"""Evaluation of law-invariant convex risk functionals on finite laws.

All families share the normalization rho(const c) = c (cash additivity plus
rho(0) = 0) and the sign convention that rho is *increasing*: larger outcomes
mean larger risk numbers. Families:

- ``entropic(eta)``:      rho(X) = log(E[exp(eta X)]) / eta
- ``shortfall(loss)``:    smallest c with E[loss(X - c)] <= 1
- ``oce(utility)``:       inf_m ( E[utility(m + X)] - m )
- ``expectation``:        E[X]
- ``esssup``:             max of X over atoms with positive mass
- ``coherent(densities)``: max over a finite density set D of E[d * X]

The first five are law invariant by construction and evaluate on any law.
A coherent family is tied to the space its densities live on, so it is
evaluated pathwise against a matching base distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    BracketFailureError,
    ConfigParseError,
    InvalidDensityError,
    InvalidPartitionError,
    LengthMismatchError,
    NegativeWeightError,
    SpaceMismatchError,
    UnknownFamilyError,
    UnsupportedFamilyError,
    ZeroTotalMassError,
    REQUIRED,
    json_object,
    number_list,
    reject_unknown_keys,
    typed_field,
)
from .losses import LossFn, UtilityFn
from .prob import FiniteDist, Partition, _as_values

# the fields of each family's JSON document besides "family"
_FIELDS = {
    "entropic": ("eta",),
    "shortfall": ("loss",),
    "oce": ("utility",),
    "expectation": (),
    "esssup": (),
    "coherent": ("densities", "reference"),
}
FAMILIES = tuple(_FIELDS)

# solver tolerance: the shortfall root and the OCE shift are found to within it
_ROOT_TOL = 1e-11
# a cap on shortfall root iterations; it also ends the search where the float
# spacing at the root exceeds _ROOT_TOL, so that neither step nor bracket can shrink to it
_ROOT_MAX_ITER = 100


@dataclass(frozen=True, eq=False)
class RiskSpec:
    """A tagged description of one risk family."""

    family: str
    eta: float | None = None
    loss: LossFn | None = None
    utility: UtilityFn | None = None
    densities: tuple | None = None
    reference: FiniteDist | None = None

    def __post_init__(self):
        if self.family == "entropic":
            if self.eta is None or not 0 < self.eta < math.inf:
                raise ConfigParseError(f"entropic family needs a finite eta > 0, got {self.eta!r}")
        elif self.family == "shortfall":
            if self.loss is None:
                raise ConfigParseError("shortfall family needs a loss function")
        elif self.family == "oce":
            if self.utility is None:
                raise ConfigParseError("oce family needs a utility function")
        elif self.family in ("expectation", "esssup"):
            pass
        elif self.family == "coherent":
            if not self.densities:
                raise ConfigParseError("coherent family needs at least one density")
            dens = tuple(tuple(float(v) for v in d) for d in self.densities)
            object.__setattr__(self, "densities", dens)
            if self.reference is not None:
                for d in dens:
                    _validate_density(np.asarray(d), self.reference.weights)
        else:
            raise UnknownFamilyError(f"unknown risk family {self.family!r}")

    @classmethod
    def entropic(cls, eta: float) -> "RiskSpec":
        return cls(family="entropic", eta=float(eta))

    @classmethod
    def shortfall(cls, loss: LossFn) -> "RiskSpec":
        return cls(family="shortfall", loss=loss)

    @classmethod
    def oce(cls, utility: UtilityFn) -> "RiskSpec":
        return cls(family="oce", utility=utility)

    @classmethod
    def expectation(cls) -> "RiskSpec":
        return cls(family="expectation")

    @classmethod
    def esssup(cls) -> "RiskSpec":
        return cls(family="esssup")

    @classmethod
    def coherent(cls, densities: Sequence[Sequence[float]], reference: FiniteDist | None = None) -> "RiskSpec":
        return cls(family="coherent", densities=tuple(densities), reference=reference)

    def as_json(self) -> dict:
        doc: dict = {"family": self.family}
        if self.family == "entropic":
            doc["eta"] = self.eta
        elif self.family == "shortfall":
            doc["loss"] = self.loss.as_json()
        elif self.family == "oce":
            doc["utility"] = self.utility.as_json()
        elif self.family == "coherent":
            doc["densities"] = [list(d) for d in self.densities]
            if self.reference is not None:
                doc["reference"] = self.reference.as_json()
        return doc

    @classmethod
    def from_json(cls, doc: Mapping) -> "RiskSpec":
        json_object(doc, "risk spec")
        family = doc.get("family")
        if family in _FIELDS:
            reject_unknown_keys(doc, ("family", *_FIELDS[family]), f"{family} risk spec")
        try:
            if family == "entropic":
                return cls.entropic(typed_field(doc, "eta", REQUIRED, float, "entropic risk spec"))
            if family == "shortfall":
                return cls.shortfall(LossFn.from_json(doc["loss"]))
            if family == "oce":
                return cls.oce(UtilityFn.from_json(doc["utility"]))
            if family == "expectation":
                return cls.expectation()
            if family == "esssup":
                return cls.esssup()
            if family == "coherent":
                ref = FiniteDist.from_json(doc["reference"]) if "reference" in doc else None
                densities = typed_field(doc, "densities", REQUIRED, list, "coherent risk spec")
                return cls.coherent([number_list(d, "a coherent density") for d in densities], ref)
        except KeyError as exc:
            raise ConfigParseError(f"risk spec is missing field {exc}") from exc
        raise UnknownFamilyError(f"unknown risk family {family!r}")


# ---------------------------------------------------------------------------
# family evaluators on (weights, values) arrays
# ---------------------------------------------------------------------------


def _validate_density(d: np.ndarray, mu_w: np.ndarray) -> None:
    if d.shape != mu_w.shape:
        raise InvalidDensityError(
            f"density has length {d.shape}, reference has {mu_w.shape}"
        )
    if np.any(d < -1e-12):
        raise InvalidDensityError("densities must be nonnegative")
    total = float(mu_w @ np.maximum(d, 0.0))
    if abs(total - 1.0) > 1e-9:
        raise InvalidDensityError(f"density integrates to {total!r} under mu, not 1")


def _coherent_values(mu_w: np.ndarray, v: np.ndarray, densities: Sequence) -> float:
    best = -math.inf
    for d in densities:
        arr = np.maximum(np.asarray(d, dtype=float), 0.0)
        _validate_density(arr, mu_w)
        best = max(best, float((mu_w * arr) @ v))
    return best


# ---------------------------------------------------------------------------
# batched evaluators on (B, K) arrays: law b is (w[b], v[b])
# ---------------------------------------------------------------------------
#
# Atoms of zero weight are masked: their values are set to 0 and their terms
# to exact zeros, so a law padded with zero-weight atoms is the same law. Each
# law's arithmetic is elementwise and its sums over atoms run in atom order,
# which makes its risk the same bits in a batch of any size, at any position
# and with any padding.


def _atom_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the last (atom) axis, adding atoms one after another.

    A running sum adds in index order whatever the array's shape, and adding
    an exact zero leaves a float unchanged; np.sum adds pairwise from 8 atoms
    on, so padding would regroup it and change the bits.
    """
    return np.add.accumulate(terms, axis=-1)[..., -1]


def _entropic_batch(w: np.ndarray, v: np.ndarray, pos: np.ndarray, eta: float) -> np.ndarray:
    """log E[exp(eta X)] / eta, shifted by the largest eta x; a law with a charged +inf value shifts by 0, its risk +inf."""
    ev = np.where(pos, eta * v, -math.inf)
    s = ev.max(axis=-1)
    s = np.where(s < math.inf, s, 0.0)
    return (s + np.log(_atom_sum(w * np.exp(ev - s[:, None])))) / eta


def _shortfall_batch(w: np.ndarray, v: np.ndarray, pos: np.ndarray, loss: LossFn) -> np.ndarray:
    """The smallest c with E[loss(X - c)] <= 1 for every law, by safeguarded Newton.

    E[loss(X - c)] is convex and nonincreasing in c, so a Newton step from
    the left of the root never passes it: a Newton point at or past hi makes
    hi the root, and one with E <= 1 is the root itself. The bracket
    [min X - 1, max X + 1] and the start E[X], clipped to it, are placed
    without evaluating E, so E is taken at all three in one stacked loss
    call, and the bracket is checked before any derivative is. By Jensen, E
    at E[X] is at least l(0) = 1: the start becomes lo, or hi where E there
    is at most 1.

    Each law keeps its bracket, E at both ends and its step under masks, all
    updated in place. A masked atom takes the value lo, so that at any
    c >= lo its loss and slope are finite and its term is an exact zero,
    never 0 * inf. Steps are taken from lo, with the loss and its derivative
    evaluated on one x = X - c. The slope is nonnegative, and a step that is
    not finite (an overflow, or a zero or infinite slope) or more than half
    the last Newton step (slow progress) becomes a bisection of [lo, hi].
    Every way a law finishes leaves its root at hi: a Newton point at or
    past hi, a step below the tolerance, an accepted Newton point, a closed
    bisection or the iteration cap. The post-check reuses E at hi,
    evaluating only the roots that a small step left unevaluated.
    """
    lo = np.where(pos, v, math.inf).min(axis=-1) - 1.0
    hi = np.where(pos, v, -math.inf).max(axis=-1) + 1.0
    finite = np.isfinite(lo) & np.isfinite(hi)
    if not finite.all():
        # as in _oce_batch, a bracket that is not finite has no root to find:
        # its law takes no step, and its risk is +inf for a +inf value and
        # NaN for a -inf or NaN one
        out = np.where(lo > -math.inf, hi, math.nan)
        if finite.any():
            out[finite] = _shortfall_batch(w[finite], v[finite], pos[finite], loss)
        return out
    start = np.minimum(np.maximum(_atom_sum(w * v), lo), hi)
    v = np.where(pos, v, lo[:, None])
    e_lo, e_hi, e_start = _atom_sum(w * loss(v - np.array([lo, hi, start])[..., None]))
    if (e_lo <= 1.0).any() or (e_hi > 1.0 + 1e-12).any():
        raise BracketFailureError(
            "E[loss(X - c)] does not cross 1 on the standard bracket; the loss violates l(0) = 1 < l(x > 0)"
        )
    left = e_start > 1.0
    np.copyto(lo, start, where=left)
    np.copyto(e_lo, e_start, where=left)
    right = ~left
    np.copyto(hi, start, where=right)
    np.copyto(e_hi, e_start, where=right)
    last = hi - lo  # the last Newton step, at first the bracket's width
    unevaluated = np.zeros(lo.shape, dtype=bool)  # hi set by a small step, e_hi not E there
    active = np.ones(lo.shape, dtype=bool)
    moves_lo = np.ones(lo.shape, dtype=bool)  # the laws whose lo is new: c, with E there in e_c
    step = np.empty(lo.shape)
    x, e_c = v - lo[:, None], e_lo  # x = X - c
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_ROOT_MAX_ITER):
            # a zero slope gives an infinite step, and laws whose lo stayed keep theirs
            slope = _atom_sum(w * loss.derivative(x))
            np.copyto(step, np.where(slope < math.inf, (e_c - 1.0) / slope, math.inf), where=moves_lo)
            ahead = lo + step
            at_hi = active & np.isfinite(step) & (ahead >= hi)
            newton = (active ^ at_hi) & (step <= 0.5 * last)
            small = newton & (step <= _ROOT_TOL)
            c = np.where(newton, ahead, 0.5 * (lo + hi))
            np.copyto(hi, c, where=small)
            unevaluated |= small
            active ^= at_hi | small
            if not active.any():
                break
            x = v - c[:, None]
            e_c = _atom_sum(w * loss(x))
            below = active & (e_c <= 1.0)
            np.copyto(hi, c, where=below)
            np.copyto(e_hi, e_c, where=below)
            moves_lo = active ^ below
            np.copyto(lo, c, where=moves_lo)
            np.copyto(e_lo, e_c, where=moves_lo)
            np.copyto(last, step, where=newton)
            # an accepted Newton point or a closed bisection finishes
            active &= np.where(newton, moves_lo, hi - lo > _ROOT_TOL)
    # a Newton step below _ROOT_TOL leaves its root unevaluated, or equal to lo
    # when the step is below half the float spacing there
    np.copyto(e_hi, e_lo, where=unevaluated & (hi == lo))
    rows = (unevaluated & (hi != lo)).nonzero()[0]
    if rows.size:
        e_hi[rows] = _atom_sum(w[rows] * loss(v[rows] - hi[rows, None]))
    if (e_hi > 1.0 + 1e-9).any():
        raise BracketFailureError("post-check failed: E[loss(X - rho)] > 1")
    return hi


def _oce_batch(w: np.ndarray, v: np.ndarray, pos: np.ndarray, utility: UtilityFn) -> np.ndarray:
    """min over c of E[phi(X - c)] + c for every law, c being the negated shift m, by bisection.

    The objective is convex in c with right derivative 1 - E[phi'(X - c-)],
    so the smallest c with E[phi'(X - c-)] <= 1 minimizes it. phi has slope
    1 at its pivot x0, so its slopes are at least 1 right of x0 and at most
    1 left of it, and that c lies in [min X - x0, max X - x0]: no margin,
    no bracket check. Each law halves its bracket as often as takes the
    width below _ROOT_TOL, a count fixed up front, none for a point mass. A
    width that is not finite, or too large for width / _ROOT_TOL to be, has
    no bracket to halve: its law takes no step and its risk is NaN. A spent
    count leaves a zero step, so a law's bits do not depend on the batch.
    The risk is the objective at the upper end hi, within _ROOT_TOL of the
    minimizer, where the objective's slope is between 0 and 1. Masked atoms
    take min X, where phi and phi' are finite if they are at the charged
    atoms, so their terms are exact zeros. _shortfall_batch's Newton
    shortcuts would need E[phi'(X - c)] convex in c, which fails for
    hinge_power with 1 < p < 2.
    """
    x0 = utility.pivot()
    low = np.where(pos, v, math.inf).min(axis=-1)
    top = np.where(pos, v, -math.inf).max(axis=-1)
    v = np.where(pos, v, low[:, None])
    with np.errstate(invalid="ignore", over="ignore"):
        width = top - low
        ratio = width / _ROOT_TOL
        hi = np.where(ratio < math.inf, top - x0, math.nan)
        steps = np.frexp(ratio)[1]
        halvings = np.arange(1, steps.max(initial=0) + 1)[:, None]
        halves = np.where(halvings <= steps, np.ldexp(width, -halvings), 0.0)
        for half in halves:
            mid = hi - half
            np.copyto(hi, mid, where=_atom_sum(w * utility.derivative(v - mid[:, None])) <= 1.0)
        return _atom_sum(w * utility(v - hi[:, None])) + hi


def rho_batch(spec: RiskSpec, W, V) -> np.ndarray:
    """Risks of the B laws whose weights and values are the rows of (B, K) arrays.

    The one law-level evaluator: every other evaluation of a law-invariant
    family is a batch of one of it. Weights must be finite and nonnegative
    (a negative, infinite or NaN weight raises NegativeWeightError) and each
    law needs an atom of positive weight; zero-weight atoms (also the zeros
    that pad shorter laws) are masked out. The total mass is the caller's:
    weights are taken as given, not renormalized. Every sum over atoms adds
    them in a fixed order, one after another, with masked atoms adding exact
    zeros, so a law's risk is the same bits whatever the batch size, its
    position in the batch and its padding. Shortfall runs its safeguarded Newton on all laws
    at once under masks, with a bracket check and a post-check; OCE bisects
    all its laws' shifts at once, each law a fixed number of times.
    """
    if spec.family == "coherent":
        raise UnsupportedFamilyError(
            "a coherent family is tied to its reference space; it has no batched law-level evaluator"
        )
    W = np.asarray(W, dtype=float)
    V = np.asarray(V, dtype=float)
    if W.ndim != 2 or W.shape != V.shape:
        raise LengthMismatchError(f"need (B, K) weights and values, got {W.shape} and {V.shape}")
    if not ((W >= 0.0) & (W < math.inf)).all():
        raise NegativeWeightError("weights must be finite and nonnegative")
    pos = W > 0.0
    if not pos.any(axis=-1).all():
        raise ZeroTotalMassError("every law of a batch needs an atom of positive weight")
    V = np.where(pos, V, 0.0)
    if spec.family == "entropic":
        return _entropic_batch(W, V, pos, spec.eta)
    if spec.family == "shortfall":
        return _shortfall_batch(W, V, pos, spec.loss)
    if spec.family == "oce":
        return _oce_batch(W, V, pos, spec.utility)
    if spec.family == "expectation":
        return _atom_sum(W * V)
    if spec.family == "esssup":
        return np.where(pos, V, -math.inf).max(axis=-1)
    raise UnknownFamilyError(spec.family)


def rho_values(spec: RiskSpec, mu_w: np.ndarray, values: np.ndarray) -> float:
    """Risk of a value vector against weights, bypassing law construction.

    A batch of one of ``rho_batch``; a coherent family evaluates pathwise.
    """
    if spec.family == "coherent":
        return _coherent_values(mu_w, values, spec.densities)
    return float(rho_batch(spec, [mu_w], [values])[0])


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def rho_entropic(law: FiniteDist, eta: float) -> float:
    """log(E[exp(eta X)]) / eta for the law of X."""
    return rho_of_law(RiskSpec.entropic(eta), law)


def rho_shortfall(law: FiniteDist, loss: LossFn) -> float:
    """Smallest cash level c with E[loss(X - c)] <= 1, by safeguarded Newton."""
    return rho_of_law(RiskSpec.shortfall(loss), law)


def rho_oce(law: FiniteDist, utility: UtilityFn) -> float:
    """inf over shifts m of E[utility(m + X)] - m, by bisection on E[utility'(m + X)] = 1."""
    return rho_of_law(RiskSpec.oce(utility), law)


def rho_of_law(spec: RiskSpec, law: FiniteDist) -> float:
    """The distribution-level functional: risk as a function of the law alone."""
    if spec.family == "coherent":
        raise UnsupportedFamilyError(
            "a coherent family is tied to its reference space; evaluate it "
            "pathwise with rho_lifted"
        )
    return rho_values(spec, law.weights, law.values_array())


def rho_lifted(spec: RiskSpec, mu: FiniteDist, f) -> float:
    """Risk of the variable f on the space (atoms of mu, mu).

    Law invariance contract: the value equals the family evaluator applied
    to the law of f under mu. Coherent specs evaluate pathwise against mu,
    which must match their reference space when one is pinned.
    """
    values = _as_values(f, len(mu))
    if spec.family == "coherent" and spec.reference is not None and spec.reference.atoms != mu.atoms:
        raise SpaceMismatchError("coherent spec is pinned to a different reference space")
    return rho_values(spec, mu.weights, values)


@dataclass(frozen=True)
class ConditionalRisk:
    """Per-block risk values rho(X | G) for a finite partition G."""

    partition: Partition
    values: tuple  # of (block, value) pairs, positive-weight blocks only
    weights: tuple  # matching block probabilities


def _pack_partition(mu: FiniteDist, f, partition: Partition) -> tuple[np.ndarray, np.ndarray]:
    """(mu, f, partition) as one packed instance of (1, E, F) weights and values: a row per block, in block order."""
    partition.validate_against(mu.atoms)
    vals = _as_values(f, len(mu))
    w = np.zeros((1, len(partition.blocks), max(len(bl) for bl in partition.blocks)))
    v = np.zeros_like(w)
    for e, block in enumerate(partition.blocks):
        ids = [mu._index[a] for a in block]
        w[0, e, : len(ids)] = mu.weights[ids]
        v[0, e, : len(ids)] = vals[ids]
    if not np.any(w > 0.0):
        raise InvalidPartitionError("no block carries positive mass")
    return w, v


def _disintegrated(w: np.ndarray, width=None) -> tuple[np.ndarray, np.ndarray]:
    """Joint weights (..., E, F) split into their row masses (..., E) and their rows, each divided by its mass.

    The one disintegration of a joint law. A mass adds its row's atoms in
    order, so zero padding changes no bits. Given ``width``, the (...,)
    column counts of the instances, a row of zero mass is uniform on its
    instance's columns: any choice is almost surely equivalent, and uniform
    is reproducible. Without it such a row stays zero, for the callers that
    use only the charged rows.
    """
    mass = _atom_sum(w)
    charged = mass > 0.0
    rows = w / np.where(charged, mass, 1.0)[..., None]
    if width is None:
        return mass, rows
    n = np.asarray(width)[..., None, None]
    return mass, np.where(charged[..., None], rows, np.where(np.arange(w.shape[-1]) < n, 1.0 / n, 0.0))


def rho_conditional(spec: RiskSpec, mu: FiniteDist, f, partition: Partition) -> ConditionalRisk:
    """Blockwise risk of f given the partition, one value per charged block, in one ``rho_batch``.

    The blocks are packed and disintegrated as ``consistency_gap`` does it,
    so the block risks and weights are the bits that gap composes.
    """
    (w,), (v,) = _pack_partition(mu, f, partition)
    mass, rows = _disintegrated(w)
    charged = mass > 0.0
    risks = rho_batch(spec, rows[charged], v[charged]).tolist()
    blocks = [block for block, c in zip(partition.blocks, charged) if c]
    return ConditionalRisk(
        partition=partition,
        values=tuple(zip(blocks, risks)),
        weights=tuple(mass[charged].tolist()),
    )
