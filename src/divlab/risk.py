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
    SpaceMismatchError,
    UnboundedObjectiveError,
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

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# solver tolerances: the shortfall root and the OCE shift are found to within these
_ROOT_TOL = 1e-11
_OPT_TOL = 1e-11
# a cap on shortfall root iterations; it also ends the search where the float
# spacing at the root exceeds _ROOT_TOL, so that neither step nor bracket can shrink to it
_ROOT_MAX_ITER = 100
# a cap on golden-section steps; 58 of them shrink a unit bracket below 1e-12
_GOLDEN_MAX_ITER = 400


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


def _golden_min(fn, lo: float, hi: float, xtol: float) -> float:
    """Golden-section search for a minimizer of a unimodal fn on [lo, hi].

    Returns the final bracket midpoint; callers that need the value evaluate
    fn there. The comparison is strict, so ties move the bracket right.
    Maximize by negating fn.
    """
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = fn(c), fn(d)
    it = 0
    while hi - lo > xtol and it < _GOLDEN_MAX_ITER:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = fn(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = fn(d)
        it += 1
    return 0.5 * (lo + hi)


def _oce_values(w: np.ndarray, v: np.ndarray, utility: UtilityFn) -> float:
    pos = w > 0.0
    vv, ww = v[pos], w[pos]

    def objective(m: float) -> float:
        with np.errstate(over="ignore"):
            return float(ww @ np.asarray(utility(m + vv), dtype=float)) - m

    # the optimal shift tracks the negated support: for any utility with
    # phi*(1) = 0 it lies within a bounded margin of [-max(v), -min(v)]
    lo = -float(np.max(vv)) - 50.0
    hi = -float(np.min(vv)) + 50.0
    for _ in range(10):
        m = _golden_min(objective, lo, hi, _OPT_TOL)
        val = objective(m)
        width = hi - lo
        if m - lo > 1e-3 * width and hi - m > 1e-3 * width:
            return val
        mid = 0.5 * (lo + hi)
        lo, hi = mid - width, mid + width
    raise UnboundedObjectiveError(
        "OCE minimizer kept hitting the bracket; utility violates phi*(1) = 0"
    )


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
    return np.cumsum(terms, axis=-1)[..., -1]


def _entropic_batch(w: np.ndarray, v: np.ndarray, pos: np.ndarray, eta: float) -> np.ndarray:
    ev = np.where(pos, eta * v, -math.inf)
    s = ev.max(axis=-1)
    return (s + np.log(_atom_sum(w * np.exp(ev - s[:, None])))) / eta


def _shortfall_batch(w: np.ndarray, v: np.ndarray, pos: np.ndarray, loss: LossFn) -> np.ndarray:
    """The smallest c with E[loss(X - c)] <= 1 for every law, by safeguarded Newton.

    expected(c) is convex and nonincreasing in c, so a Newton step from the
    left of the root never passes it: a Newton point at or past hi makes hi
    the root, and one with expected <= 1 is the root itself. The start E[X]
    is left of the root, as expected(E[X]) >= l(0) = 1 by Jensen. A step that
    is not finite (overflow) or more than half the last one (slow progress)
    becomes a bisection of [lo, hi]. Each law keeps its own bracket and step
    under masks, and every way a law finishes leaves its root at hi: a Newton
    point at or past hi, a step below the tolerance, an accepted Newton
    point, a closed bisection or the iteration cap. The post-check reuses
    e_hi, evaluating only the roots that a small step left unevaluated.
    """

    def expected(c: np.ndarray, rows=slice(None)) -> np.ndarray:
        # masked terms are exact zeros, never 0 * inf from an overflowed loss
        terms = np.where(pos[rows], loss(v[rows] - c[:, None]), 0.0)
        return _atom_sum(w[rows] * terms)

    def newton_step(c: np.ndarray, e_c: np.ndarray) -> np.ndarray:
        slope = _atom_sum(w * np.where(pos, loss.derivative(v - c[:, None]), 0.0))
        ok = (slope > 0.0) & (slope < math.inf)
        return np.where(ok, (e_c - 1.0) / np.where(ok, slope, 1.0), math.inf)

    lo = np.where(pos, v, math.inf).min(axis=-1) - 1.0
    hi = np.where(pos, v, -math.inf).max(axis=-1) + 1.0
    e_lo, e_hi = expected(lo), expected(hi)
    if np.any(e_lo <= 1.0) or np.any(e_hi > 1.0 + 1e-12):
        raise BracketFailureError(
            "E[loss(X - c)] does not cross 1 on the standard bracket; the loss violates l(0) = 1 < l(x > 0)"
        )
    start = np.minimum(np.maximum(_atom_sum(w * v), lo), hi)
    e_start = expected(start)
    left = e_start > 1.0
    lo, e_lo = np.where(left, start, lo), np.where(left, e_start, e_lo)
    hi, e_hi = np.where(left, hi, start), np.where(left, e_hi, e_start)
    step = newton_step(lo, e_lo)
    last = hi - lo
    known = np.ones(lo.shape, dtype=bool)  # e_hi holds expected(hi)
    active = np.ones(lo.shape, dtype=bool)
    for _ in range(_ROOT_MAX_ITER):
        at_hi = active & np.isfinite(step) & (lo + step >= hi)
        newton = active & ~at_hi & (step <= 0.5 * last)
        small = newton & (step <= _ROOT_TOL)
        c = np.where(newton, lo + step, 0.5 * (lo + hi))
        hi = np.where(small, c, hi)
        known &= ~small
        active &= ~(at_hi | small)
        if not active.any():
            break
        e_c = expected(c)
        below = active & (e_c <= 1.0)
        hi, e_hi = np.where(below, c, hi), np.where(below, e_c, e_hi)
        moves_lo = active & ~below
        lo, e_lo = np.where(moves_lo, c, lo), np.where(moves_lo, e_c, e_lo)
        last = np.where(newton, step, last)
        if moves_lo.any():
            step = np.where(moves_lo, newton_step(lo, e_lo), step)
        # an accepted Newton point or a closed bisection finishes
        active &= ~np.where(newton, below, hi - lo <= _ROOT_TOL)
    # a Newton step below _ROOT_TOL leaves its root unevaluated, or equal to lo
    # when the step is below half the float spacing there
    e_hi = np.where(~known & (hi == lo), e_lo, e_hi)
    rows = np.flatnonzero(~known & (hi != lo))
    if rows.size:
        e_hi[rows] = expected(hi[rows], rows)
    if np.any(e_hi > 1.0 + 1e-9):
        raise BracketFailureError("post-check failed: E[loss(X - rho)] > 1")
    return hi


def rho_batch(spec: RiskSpec, W, V) -> np.ndarray:
    """Risks of the B laws whose weights and values are the rows of (B, K) arrays.

    The one law-level evaluator: every other evaluation of a law-invariant
    family is a batch of one of it. Each law needs an atom of positive
    weight, and zero-weight atoms (also the zeros that pad shorter laws) are
    masked out. Every sum over atoms adds them in a fixed order, one after
    another, with masked atoms adding exact zeros, so a law's risk is the
    same bits whatever the batch size, its position in the batch and its
    padding. Shortfall runs its safeguarded Newton on all laws at once under
    masks, with a bracket check and a post-check; OCE solves its laws one by
    one.
    """
    if spec.family == "coherent":
        raise UnsupportedFamilyError(
            "a coherent family is tied to its reference space; it has no batched law-level evaluator"
        )
    W = np.asarray(W, dtype=float)
    V = np.asarray(V, dtype=float)
    if W.ndim != 2 or W.shape != V.shape:
        raise LengthMismatchError(f"need (B, K) weights and values, got {W.shape} and {V.shape}")
    pos = W > 0.0
    if not pos.any(axis=-1).all():
        raise ZeroTotalMassError("every law of a batch needs an atom of positive weight")
    V = np.where(pos, V, 0.0)
    if spec.family == "entropic":
        return _entropic_batch(W, V, pos, spec.eta)
    if spec.family == "shortfall":
        return _shortfall_batch(W, V, pos, spec.loss)
    if spec.family == "oce":
        return np.array([_oce_values(w, v, spec.utility) for w, v in zip(W, V)])
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
    """inf over shifts m of E[utility(m + X)] - m, by golden section."""
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
