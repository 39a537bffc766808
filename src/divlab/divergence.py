"""Divergences induced by risk functionals: closed forms and dual solves.

Each risk family induces a functional alpha(nu | mu) on pairs of laws, the
convex conjugate of the lifted risk restricted to probability vectors:

    alpha(nu | mu) = sup_f ( E_nu[f] - rho_mu(f) ).

Closed forms implemented here:

- entropic(eta)   -> relative entropy / eta (Kullback-Leibler divergence)
- oce(phi)        -> the phi*-divergence  sum mu * phi*(d nu / d mu)
- shortfall(l)    -> inf_{t>0} (1 + sum mu * l*(t d nu / d mu)) / t, in closed
                     form for every loss kind (see ``shortfall_divergence``)
- expectation     -> 0 if nu == mu else +inf
- esssup          -> 0 if nu << mu else +inf

``DivergenceSpec.evaluate_batch`` is the one implementation of the closed
forms, on many pairs at once; every other evaluation is a batch of one of it.
``dual_divergence`` solves the defining supremum directly by supergradient
ascent over mean-zero test vectors and reports a certified gap against the
closed form when one exists. ``_chain_values`` evaluates the structural
inequalities (data processing, sufficiency, refinement monotonicity): it
pushes both laws along a chain of row-stochastic matrices. All alphas are
nonnegative, vanish at nu == mu, and are +inf off absolute continuity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    ConfigParseError,
    SpaceMismatchError,
    UnknownFamilyError,
    UnsupportedFamilyError,
    json_object,
    reject_unknown_keys,
    typed_field,
)
from .losses import LossFn, UtilityFn, _table_conjugate_array, conjugate_table
from .prob import FiniteDist
from .risk import RiskSpec, _atom_sum, _golden_min, _validate_density, rho_batch, rho_values

_EQUALITY_TOL = 1e-12
# the fields of each family's JSON document besides "family"
_FIELDS = {
    "relative_entropy": ("eta",),
    "phi_star": ("utility",),
    "shortfall_div": ("loss",),
    "dual_of": ("spec",),
    "equality_indicator": (),
    "support_indicator": (),
}
# the most mass-transfer passes of primal_reconstruction's polish
_POLISH_PASSES = 12
# the dual solver's fixed budget: its most ascent iterations, its first step
# (the step grows to at most 16 times this), the improvement below which it
# stops, and the step of its central finite-difference supergradients
_DUAL_MAX_ITERS = 5000
_DUAL_STEP0 = 1.0
_DUAL_TOL = 1e-10
_DUAL_FD_STEP = 1e-6


def _check_same_atoms(nu: FiniteDist, mu: FiniteDist) -> None:
    if nu.atoms != mu.atoms:
        raise SpaceMismatchError("divergences need both laws on the same atom set")


def _not_ac(nu: np.ndarray, mu: np.ndarray) -> np.ndarray:
    return np.any((nu > 0.0) & (mu == 0.0), axis=-1)


# ---------------------------------------------------------------------------
# closed forms on (B, K) arrays: pair b is (nu[b], mu[b])
# ---------------------------------------------------------------------------
#
# As in risk.rho_batch, atoms of zero mu-weight are masked: their terms are
# exact zeros, never 0 * inf, and every sum over atoms is a running sum in
# atom order. So a pair's value is the same bits in a batch of any size, at
# any position and with any zero padding. These take pairs with nu << mu;
# DivergenceSpec.evaluate_batch sets the others to +inf.


def _relative_entropy_batch(nu: np.ndarray, mu: np.ndarray, eta: float) -> np.ndarray:
    both = (nu > 0.0) & (mu > 0.0)
    n, m = np.where(both, nu, 1.0), np.where(both, mu, 1.0)
    return _atom_sum(np.where(both, n * (np.log(n) - np.log(m)), 0.0)) / eta


def _phi_divergence_batch(nu: np.ndarray, mu: np.ndarray, utility: UtilityFn) -> np.ndarray:
    pos = mu > 0.0
    ratio = np.where(pos, nu / np.where(pos, mu, 1.0), 1.0)
    star = np.where(pos, utility.conjugate_array(ratio), 0.0)
    return np.where(np.isinf(star).any(axis=-1), math.inf, _atom_sum(mu * star))


def _shortfall_div_batch(nu: np.ndarray, mu: np.ndarray, loss: LossFn) -> np.ndarray:
    """inf over t > 0 of g(t) = (1 + sum mu * l*(t r)) / t with r = nu / mu, exactly."""
    if loss.kind == "exponential":
        # l*(y) = (y log(y / eta) - y) / eta puts the minimum at t = eta
        return _relative_entropy_batch(nu, mu, loss.eta)
    pos = mu > 0.0
    r = np.where(pos, nu / np.where(pos, mu, 1.0), 0.0)
    if loss.kind == "custom":
        return np.array([_table_shortfall_div(rr[p], mm[p], loss) for rr, mm, p in zip(r, mu, pos)])
    top = r.max(axis=-1)
    if loss.p == 1.0:
        # l*(y) = -y on [0, 1] and +inf beyond, so g(t) = 1/t - 1 falls up to
        # the edge t = 1 / max r of its domain
        return top - 1.0
    # g(t) = 1/t - 1 + (p - 1) p^-q t^(q - 1) E[r^q] with q = p / (p - 1) is
    # least at t = p E[r^q]^(-1/q); dividing r by its maximum keeps r^q finite
    q = loss.p / (loss.p - 1.0)
    top = np.where(top > 0.0, top, 1.0)
    return top * _atom_sum(mu * (r / top[:, None]) ** q) ** (1.0 / q) - 1.0


def _table_shortfall_div(r: np.ndarray, m: np.ndarray, loss: LossFn) -> float:
    """The shortfall divergence of a tabulated loss, from the ratios r on the charged atoms.

    l* is the max of the affine maps y -> x_k y - y_k, finite on the slope
    range of the table, so h(t) = t g(t) = 1 + sum m * l*(t r) is convex and
    piecewise affine in t: its kinks are the t at which some t r_i meets a
    slope s_k, and it is +inf once some t r_i leaves the slope range. On each
    affine piece g = h / t is monotone, so the infimum lies at one of the
    points s_k / r_i. As t -> 0, h tends to h(0) = 1 - inf l >= 0: g runs to
    +inf when h(0) > 0, and when h(0) = 0 it is constant on the lowest piece,
    whose upper end is one of the points.
    """
    kinks = np.diff(np.asarray(loss.ys)) / np.diff(np.asarray(loss.xs))
    ok = (kinks[:, None] > 0.0) & (r > 0.0)
    t = (kinks[:, None] / np.where(r > 0.0, r, 1.0))[ok]
    h = 1.0 + _atom_sum(m * _table_conjugate_array(conjugate_table(loss), t[:, None] * r))
    return float(np.min(h / t, initial=math.inf))


# ---------------------------------------------------------------------------
# divergence specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DivergenceSpec:
    """A tagged divergence family, closed-form or dual-of-a-risk-spec.

    ``equality_indicator`` and ``support_indicator`` are the degenerate
    closed forms induced by the expectation and esssup families.
    """

    family: str
    eta: float | None = None
    utility: UtilityFn | None = None
    loss: LossFn | None = None
    risk: RiskSpec | None = None

    def __post_init__(self):
        if self.family == "relative_entropy":
            if self.eta is None or not 0 < self.eta < math.inf:
                raise ConfigParseError(f"relative_entropy needs a finite eta > 0, got {self.eta!r}")
        elif self.family == "phi_star":
            if self.utility is None:
                raise ConfigParseError("phi_star needs a utility")
        elif self.family == "shortfall_div":
            if self.loss is None:
                raise ConfigParseError("shortfall_div needs a loss")
        elif self.family == "dual_of":
            if self.risk is None:
                raise ConfigParseError("dual_of needs a risk spec")
        elif self.family in ("equality_indicator", "support_indicator"):
            pass
        else:
            raise UnknownFamilyError(f"unknown divergence family {self.family!r}")

    @classmethod
    def relative_entropy(cls, eta: float = 1.0) -> "DivergenceSpec":
        return cls(family="relative_entropy", eta=float(eta))

    @classmethod
    def phi_star(cls, utility: UtilityFn) -> "DivergenceSpec":
        return cls(family="phi_star", utility=utility)

    @classmethod
    def shortfall_div(cls, loss: LossFn) -> "DivergenceSpec":
        return cls(family="shortfall_div", loss=loss)

    @classmethod
    def dual_of(cls, risk: RiskSpec) -> "DivergenceSpec":
        return cls(family="dual_of", risk=risk)

    @classmethod
    def equality_indicator(cls) -> "DivergenceSpec":
        return cls(family="equality_indicator")

    @classmethod
    def support_indicator(cls) -> "DivergenceSpec":
        return cls(family="support_indicator")

    def evaluate_batch(self, nu, mu) -> np.ndarray:
        """alpha(nu[b] | mu[b]) for the B pairs of laws given as the rows of (B, K) arrays.

        The one implementation of the closed forms. Atoms of zero weight under
        both laws, also the zeros that pad shorter laws, drop out, and every
        sum over atoms adds them one after another in atom order, so a pair's
        value is the same bits whatever the batch size, its position and its
        padding. ``dual_of`` solves its pairs one by one with the dual solver;
        a solve that runs out of its budget certifies nothing, so its value
        is NaN.
        """
        nu = np.asarray(nu, dtype=float)
        mu = np.asarray(mu, dtype=float)
        if self.family == "dual_of":
            solves = (_dual_divergence_w(self.risk, n, m) for n, m in zip(nu, mu))
            return np.array([math.nan if s.budget_exhausted else s.value for s in solves], dtype=float)
        if self.family == "equality_indicator":
            return np.where(np.all(np.abs(nu - mu) <= _EQUALITY_TOL, axis=-1), 0.0, math.inf)
        if self.family == "relative_entropy":
            values = _relative_entropy_batch(nu, mu, self.eta)
        elif self.family == "phi_star":
            values = _phi_divergence_batch(nu, mu, self.utility)
        elif self.family == "shortfall_div":
            values = _shortfall_div_batch(nu, mu, self.loss)
        else:  # support_indicator
            values = np.zeros(nu.shape[0])
        return np.where(_not_ac(nu, mu), math.inf, values)

    def evaluate_w(self, nu_w: np.ndarray, mu_w: np.ndarray) -> float:
        """alpha(nu | mu) on weight arrays: a batch of one of ``evaluate_batch``."""
        return float(self.evaluate_batch([nu_w], [mu_w])[0])

    def evaluate(self, nu: FiniteDist, mu: FiniteDist) -> float:
        _check_same_atoms(nu, mu)
        return self.evaluate_w(nu.weights, mu.weights)

    def as_json(self) -> dict:
        doc: dict = {"family": self.family}
        if self.family == "relative_entropy":
            doc["eta"] = self.eta
        elif self.family == "phi_star":
            doc["utility"] = self.utility.as_json()
        elif self.family == "shortfall_div":
            doc["loss"] = self.loss.as_json()
        elif self.family == "dual_of":
            doc["spec"] = self.risk.as_json()
        return doc

    @classmethod
    def from_json(cls, doc: Mapping) -> "DivergenceSpec":
        json_object(doc, "divergence spec")
        family = doc.get("family")
        if family in _FIELDS:
            reject_unknown_keys(doc, ("family", *_FIELDS[family]), f"{family} divergence")
        try:
            if family == "relative_entropy":
                return cls.relative_entropy(typed_field(doc, "eta", 1.0, float, "relative_entropy divergence"))
            if family == "phi_star":
                return cls.phi_star(UtilityFn.from_json(doc["utility"]))
            if family == "shortfall_div":
                return cls.shortfall_div(LossFn.from_json(doc["loss"]))
            if family == "dual_of":
                return cls.dual_of(RiskSpec.from_json(doc["spec"]))
            if family == "equality_indicator":
                return cls.equality_indicator()
            if family == "support_indicator":
                return cls.support_indicator()
        except KeyError as exc:
            raise ConfigParseError(f"divergence spec is missing field {exc}") from exc
        raise UnknownFamilyError(f"unknown divergence family {family!r}")


def divergence_for_risk_spec(spec: RiskSpec) -> DivergenceSpec:
    """The closed-form divergence induced by a risk spec, when one exists."""
    if spec.family == "entropic":
        return DivergenceSpec.relative_entropy(spec.eta)
    if spec.family == "oce":
        return DivergenceSpec.phi_star(spec.utility)
    if spec.family == "shortfall":
        return DivergenceSpec.shortfall_div(spec.loss)
    if spec.family == "expectation":
        return DivergenceSpec.equality_indicator()
    if spec.family == "esssup":
        return DivergenceSpec.support_indicator()
    raise UnsupportedFamilyError(
        f"no closed-form divergence for family {spec.family!r}; use dual_of"
    )


def relative_entropy(nu: FiniteDist, mu: FiniteDist, eta: float = 1.0) -> float:
    """sum nu * log(d nu / d mu), scaled by 1/eta; +inf off nu << mu."""
    return DivergenceSpec.relative_entropy(eta).evaluate(nu, mu)


def phi_divergence(nu: FiniteDist, mu: FiniteDist, utility: UtilityFn) -> float:
    """sum mu * phi*(d nu / d mu) over charged atoms; +inf off nu << mu."""
    return DivergenceSpec.phi_star(utility).evaluate(nu, mu)


def shortfall_divergence(nu: FiniteDist, mu: FiniteDist, loss: LossFn) -> float:
    """inf over t > 0 of (1 + sum mu * l*(t d nu / d mu)) / t, in closed form.

    With r = d nu / d mu: for exponential(eta), the relative entropy divided
    by eta; for power_plus(p) with p > 1, E_mu[r^q]^(1/q) - 1 with
    q = p / (p - 1); for power_plus(1), the largest r on the atoms mu charges,
    minus 1; for a tabulated loss, the least value at the finitely many t
    where t r meets a slope of the table. +inf off nu << mu.
    """
    return DivergenceSpec.shortfall_div(loss).evaluate(nu, mu)


# ---------------------------------------------------------------------------
# dual solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualSolveResult:
    """Outcome of maximizing E_nu[f] - rho_mu(f) over mean-zero f.

    ``value`` is a lower bound on the supremum by construction (every iterate
    is feasible). ``closed_form`` and ``certified_gap`` are filled when the
    family admits a closed form; the gap is closed_form - value.
    """

    value: float
    maximizer: np.ndarray | None
    iterations: int
    budget_exhausted: bool
    closed_form: float | None = None
    certified_gap: float | None = None


def _supergradient(spec: RiskSpec, mu_w: np.ndarray, nu_w: np.ndarray, f: np.ndarray):
    if spec.family == "entropic":
        g = mu_w * np.exp(spec.eta * (f - np.max(f)))
        g /= g.sum()
        return nu_w - g
    if spec.family == "coherent":
        best_val, best_d = -math.inf, None
        for d in spec.densities:
            arr = np.asarray(d, dtype=float)
            val = float((mu_w * arr) @ f)
            if val > best_val:
                best_val, best_d = val, arr
        return nu_w - mu_w * best_d
    # central finite differences on the risk term: the 2n shifted vectors are one batch
    steps = _DUAL_FD_STEP * np.eye(f.size)
    shifted = np.concatenate([f + steps, f - steps])
    rho = rho_batch(spec, np.broadcast_to(mu_w, shifted.shape), shifted)
    return nu_w - (rho[: f.size] - rho[f.size :]) / (2.0 * _DUAL_FD_STEP)


def _dual_divergence_w(spec: RiskSpec, nu_w: np.ndarray, mu_w: np.ndarray) -> DualSolveResult:
    if _not_ac(nu_w, mu_w):
        return DualSolveResult(
            value=math.inf, maximizer=None, iterations=0, budget_exhausted=False
        )
    mask = mu_w > 0.0
    mw = mu_w[mask]
    nw = nu_w[mask]
    if spec.family == "coherent":
        # the densities drop the same mu-null atoms as the weights
        for d in spec.densities:
            _validate_density(np.asarray(d), mu_w)
        spec = replace(spec, densities=tuple(np.asarray(d)[mask] for d in spec.densities), reference=None)

    def center(f: np.ndarray) -> np.ndarray:
        # cash additivity makes the objective constant along all-ones, so the
        # mean-zero gauge pins the iterate without changing the value
        return f - float(mw @ f)

    def value(f: np.ndarray) -> float:
        return float(nw @ f) - rho_values(spec, mw, f)

    # warm start at the centered log density ratio, the exact maximizer for
    # entropy-like families and a sane scale for the rest; the clip only
    # guards nu-null atoms, where the true maximizer runs to -inf
    if spec.family in ("entropic", "oce", "shortfall"):
        ratio = np.clip(nw / mw, 1e-300, 1e300)
        f = center(np.log(ratio) / (spec.eta if spec.family == "entropic" else 1.0))
    else:
        f = center(np.zeros_like(mw))
    best_f = f
    best_val = value(f)
    step = _DUAL_STEP0
    iters = 0
    exhausted = True
    while iters < _DUAL_MAX_ITERS:
        iters += 1
        g = _supergradient(spec, mw, nw, best_f)
        gnorm = float(np.max(np.abs(g)))
        if gnorm * step < 1e-14:
            exhausted = False
            break
        cand = center(best_f + step * g)
        cand_val = value(cand)
        if cand_val > best_val:
            improvement = cand_val - best_val
            best_f, best_val = cand, cand_val
            if improvement < _DUAL_TOL:
                exhausted = False
                break
            step = min(step * 1.3, 16.0 * _DUAL_STEP0)
        else:
            step *= 0.5
            if step < 1e-13:
                exhausted = False
                break
    maximizer = np.zeros_like(mu_w)
    maximizer[mask] = best_f
    return DualSolveResult(
        value=best_val,
        maximizer=maximizer,
        iterations=iters,
        budget_exhausted=exhausted,
    )


def dual_divergence(spec: RiskSpec, nu: FiniteDist, mu: FiniteDist) -> DualSolveResult:
    """Maximize E_nu[f] - rho_mu(f) by supergradient ascent.

    Analytic supergradients are used for the entropic family (Gibbs weights)
    and coherent families (the argmax density); other families use central
    finite differences with step 1e-6. The gauge freedom from cash additivity
    is removed by keeping iterates mean-zero under mu. The budget is fixed: the
    ascent stops when an accepted step improves the value by less than 1e-10
    or the step collapses, and a solve still running after 5000 iterations
    comes back with ``budget_exhausted`` set. Off absolute continuity the
    value is +inf with no optimization. A closed form, when the family has
    one, is attached together with the certified gap closed_form - value.
    """
    _check_same_atoms(nu, mu)
    return _certified_dual_w(spec, nu.weights, mu.weights)


def _certified_dual_w(spec: RiskSpec, nu_w: np.ndarray, mu_w: np.ndarray) -> DualSolveResult:
    """``dual_divergence`` on weight arrays."""
    result = _dual_divergence_w(spec, nu_w, mu_w)
    try:
        closed_spec = divergence_for_risk_spec(spec)
    except UnsupportedFamilyError:
        return result
    closed = closed_spec.evaluate_w(nu_w, mu_w)
    gap = None
    if math.isfinite(closed) and math.isfinite(result.value):
        gap = closed - result.value
    elif closed == result.value:
        gap = 0.0
    return replace(result, closed_form=closed, certified_gap=gap)


# ---------------------------------------------------------------------------
# structural inequalities
# ---------------------------------------------------------------------------


def _pushed(w: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """The laws w[b] pushed along the row-stochastic matrices kernels[b], renormalized."""
    pushed = _atom_sum(np.swapaxes(w[:, :, None] * kernels, 1, 2))
    return pushed / _atom_sum(pushed)[:, None]


def _chain_values(div: DivergenceSpec, nu: np.ndarray, mu: np.ndarray, chain: Sequence) -> np.ndarray:
    """alpha of B pairs of laws and of their pushes along a chain, as a (B, L + 1) array.

    ``nu`` and ``mu`` are (B, K) arrays and ``chain[l]`` a (B, K_l, K_l+1) array
    of row-stochastic matrices, a map's being its 0/1 matrix; column l is alpha
    after l pushes. Zeros pad short laws and matrices. Each pushed law is
    renormalized, and every sum over atoms runs in atom order, its total's too,
    so a pair's values are the same bits in any batch.
    """
    values = [div.evaluate_batch(nu, mu)]
    for kernels in chain:
        nu, mu = _pushed(nu, kernels), _pushed(mu, kernels)
        values.append(div.evaluate_batch(nu, mu))
    return np.stack(values, axis=1)


# ---------------------------------------------------------------------------
# grid oracle for primal reconstruction
# ---------------------------------------------------------------------------


def _simplex_grid(n: int, m: int) -> np.ndarray:
    """All compositions of m into n nonnegative parts, scaled to the simplex."""
    if n == 1:
        return np.ones((1, 1))
    axes = [np.arange(m + 1)] * (n - 1)
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n - 1)
    mesh = mesh[mesh.sum(axis=1) <= m]
    last = m - mesh.sum(axis=1)
    return np.column_stack([mesh, last]).astype(float) / m


# the simplex grid's divisions per atom count; the exchange polish supplies the last digits
_GRID = {1: 1, 2: 400, 3: 60, 4: 24}


def primal_reconstruction(div: DivergenceSpec, mu: FiniteDist, f) -> float:
    """Recover rho_mu(f) as max over laws nu of E_nu[f] - alpha(nu | mu).

    A brute-force enumeration oracle: score a uniform simplex grid in one
    batch, and nu = mu itself, where alpha(mu | mu) = 0 for every family; then
    polish the best point by pairwise mass transfer with golden section.
    Independent of the risk-side evaluators, so it certifies the duality
    rather than restating it.
    """
    from .prob import _as_values

    values = _as_values(f, len(mu))
    mu_w = mu.weights
    n = len(mu)
    if n > 4:
        raise UnsupportedFamilyError("the grid oracle is limited to spaces with <= 4 atoms")

    def objective(nu_w: np.ndarray) -> float:
        a = div.evaluate_w(nu_w, mu_w)
        if math.isinf(a):
            return -math.inf
        return float(nu_w @ values) - a

    grid = _simplex_grid(n, _GRID[n])
    scores = grid @ values - div.evaluate_batch(grid, np.broadcast_to(mu_w, grid.shape))
    best_idx = int(np.argmax(scores))
    best_w = grid[best_idx].copy()
    best = float(scores[best_idx])
    at_mu = float(mu_w @ values)
    if at_mu > best:
        best, best_w = at_mu, mu_w.copy()

    for _ in range(_POLISH_PASSES):
        improved = False
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                lo, hi = -best_w[j], best_w[i]
                if hi - lo < 1e-12:
                    continue

                def neg_line(delta: float) -> float:
                    w = best_w.copy()
                    w[i] -= delta
                    w[j] += delta
                    return -objective(np.maximum(w, 0.0))

                delta = _golden_min(neg_line, lo, hi, 1e-11)
                cand = best_w.copy()
                cand[i] -= delta
                cand[j] += delta
                cand = np.maximum(cand, 0.0)
                cand /= cand.sum()
                s = objective(cand)
                if s > best + 1e-13:
                    best, best_w = s, cand
                    improved = True
        if not improved:
            break
    return best
