"""The check kinds: what each structural fact samples, how a block of trials is judged, how an instance reads back.

Most kinds ask one of two questions about a risk family and its induced
divergence alpha; the others check duality, data processing, convexity and
the Lebesgue property around them:

1. Additivity of alpha over a two-stage experiment. For a pair of joint laws
   mu_bar = mu(dx) K^mu_x(dy) and nu_bar = nu(dx) K^nu_x(dy),

       superadditivity gap = alpha(nu_bar | mu_bar)
                             - alpha(nu | mu)
                             - sum_x nu(x) alpha(K^nu_x | K^mu_x)

   is identically zero for relative entropy (the chain rule), nonnegative
   for acceptance-consistent families, nonpositive for rejection-consistent
   ones. The weak (Weber) variant drops the marginal term.

2. Consistency of the risk itself under conditioning: the gap
   rho(rho(X | G)) - rho(X) over sampled spaces, variables, and partitions,
   plus the acceptance-set geometry probes (shift-convexity, the compound
   shifted-mixture property, plain mixture convexity).

All 22 kinds run one protocol. ``CheckKind.trial`` maps (risk, div, budget,
start, stop) to one BlockResult: the kind's sampler, one function of the
block's rows, draws and finishes the block in one call, and the kind's
block function judges it in batched calls whose per-trial results do not
depend on the block, into arrays over its trials; nothing is built per
trial. A conditional block takes 2 rho_batch calls
(rows with full laws, then outer laws; the weak kind rows, then recentered
full laws), and the probe kinds, dist_concavity and lebesgue take at most
two. The solver kinds batch what does not solve: duality's and
lemma_identity's closed forms are one evaluate_batch and key_identity's row
and outer risks one rho_batch each; each trial then solves its own
instance, duality through the module attribute ``dual_divergence``, which a
profiler may rebind to observe every solve. Gaps where both sides are +inf
are "vacuous": counted, never ranked. The reverse inequalities
(subadditivity, rejection) negate their gaps in ``CheckKind``, for trials
and replays alike. A kind's serializer builds trial b's instance document
from its BlockResult, and its reader evaluates a document back through
the same block code, as a block of one: a document holds finished
weights, so the reader builds, with no sampler, the arrays that the
kind's block code judges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .divergence import (
    DivergenceSpec,
    divergence_for_risk_spec,
    dual_divergence,
    primal_reconstruction,
    _certified_dual_w,
    _chain_values,
    _dual_divergence_w,
    _not_ac,
)
from .errors import (
    ConfigParseError,
    NotAbsolutelyContinuousError,
    PreconditionViolatedError,
    UnknownFamilyError,
    UnsupportedFamilyError,
    json_object,
    label_list,
    number_list,
    number_rows,
    typed_field,
)
from .prob import FiniteDist, JointDist, Kernel, Partition
from .risk import RiskSpec, _atom_sum, _disintegrated, _pack_partition, rho_batch
from .samplers import (
    _ORACLE_ATOMS,
    VALUE_GRID,
    _ChainBlock,
    _concavity,
    _ConcavityBlock,
    _conditional_instance,
    _convexity,
    _ConvexityBlock,
    _dpi,
    _finished,
    _joint,
    _joint_dist,
    _JointBlock,
    _labels,
    _LawsBlock,
    _lebesgue,
    _LebesgueBlock,
    _mixture_laws,
    _normalized,
    _one_hot,
    _own_entries,
    _padded,
    _pair,
    _property_s_laws,
    _refinement,
    _shift_convexity_laws,
    _sufficiency,
)
from .streams import SearchBudget


# ---------------------------------------------------------------------------
# the probe kinds' compound lotteries
# ---------------------------------------------------------------------------


class _Lotteries(NamedTuple):
    """A probe kind's finished compound lotteries.

    The block's laws and their values shifted onto the boundary; each trial's
    (B, k) weights q and shifts x, and (B, k, M) component weights and values,
    for ``_mixture_risks``; for shift_convexity, the kernel as drawn: its
    (B, T) target, target sizes and (B, k, T) rows.
    """

    laws: _LawsBlock
    shifted: np.ndarray
    q: np.ndarray
    x: np.ndarray
    w: np.ndarray
    v: np.ndarray
    kernel: tuple | None


def _shifted_law(lot: _Lotteries, law: int) -> FiniteDist:
    """A law of the block on the boundary, as FiniteDist stores it."""
    n = lot.laws.size[law]
    return FiniteDist(lot.shifted[law, :n].tolist(), lot.laws.weights[law, :n])


def _first_law(lot: _Lotteries, b: int) -> int:
    return int(lot.laws.counts[:b].sum())


def _components(laws: _LawsBlock, shifted: np.ndarray, rows: np.ndarray, slot: np.ndarray) -> tuple:
    """The (B, k, M) weights and values of the shifted laws ``rows``, each at its trial and slot."""
    shape = (len(laws.counts), slot.max() + 1, laws.size[rows].max())
    w, v = np.zeros(shape), np.zeros(shape)
    w[laws.owner[rows], slot] = laws.weights2[rows, : shape[2]]
    v[laws.owner[rows], slot] = shifted[rows, : shape[2]]
    return w, v


def _mixture_json(result: BlockResult, b: int) -> dict:
    """The components of trial b's mixture, a compound lottery with no shifts, and their weights."""
    lot, first = result.drawn, _first_law(result.drawn, b)
    weights = lot.q[b, : lot.laws.counts[b]].tolist()
    return {"components": [{"weight": w, "law": _shifted_law(lot, first + i).as_json()} for i, w in enumerate(weights)]}


def _mixture_lotteries(laws: _LawsBlock, shifted: np.ndarray) -> _Lotteries:
    w, v = _components(laws, shifted, np.arange(len(laws.owner)), laws.slot)
    return _Lotteries(laws, shifted, laws.mixing, np.zeros(laws.mixing.shape), w, v, None)


def _property_s_json(result: BlockResult, b: int) -> dict:
    """Trial b's pairs (w, x, law): the marginal's drawn weights and its atoms on the boundary, as shifts."""
    lot, first = result.drawn, _first_law(result.drawn, b)
    pairs = zip(lot.q[b, : lot.laws.counts[b] - 1].tolist(), _shifted_law(lot, first).atoms)
    laws = (_shifted_law(lot, first + 1 + i).as_json() for i in range(lot.laws.counts[b] - 1))
    return {"pairs": [{"weight": w, "x": x, "law": law} for (w, x), law in zip(pairs, laws)]}


def _property_s_lotteries(laws: _LawsBlock, shifted: np.ndarray) -> _Lotteries:
    marginals, rows = np.flatnonzero(laws.slot == 0), np.flatnonzero(laws.slot > 0)
    w, v = _components(laws, shifted, rows, laws.slot[rows] - 1)
    k = w.shape[1]
    q, x = laws.drawn[marginals, :k], shifted[marginals, :k]
    return _Lotteries(laws, shifted, q, x, w, v, None)


def _shift_convexity_json(result: BlockResult, b: int) -> dict:
    """Trial b's mu and the kernel whose rows are the other laws, all on the boundary."""
    lot = result.drawn
    mu = _shifted_law(lot, _first_law(lot, b))
    target, size, rows = lot.kernel
    kernel = Kernel(mu.atoms, tuple(target[b, : size[b]].tolist()), rows[b, : len(mu), : size[b]])
    return {"mu": mu.as_json(), "kernel": kernel.as_json()}


def _shift_convexity_lotteries(laws: _LawsBlock, shifted: np.ndarray) -> _Lotteries:
    """mu's (weight, atom) pairs, each with its kernel row, a law on the union of the rows' shifted atoms.

    Each trial's target is that union in increasing order: the rows' atoms
    are sorted by trial and value, and an atom's column is its rank among
    the distinct atoms of its trial. Kernel renormalizes the rows on the
    target, and each row's FiniteDist once more.
    """
    mu, rows = np.flatnonzero(laws.slot == 0), np.flatnonzero(laws.slot > 0)
    blocks = len(laws.counts)
    entries = _own_entries(laws.size[rows, None], shifted.shape[1:])
    row = rows[np.nonzero(entries)[0]]  # each atom's law
    atoms, owner = shifted[rows][entries], laws.owner[row]
    order = np.lexsort((atoms, owner))
    sorted_atoms, sorted_owner = atoms[order], owner[order]
    new = np.ones(atoms.size, bool)
    new[1:] = (sorted_atoms[1:] != sorted_atoms[:-1]) | (sorted_owner[1:] != sorted_owner[:-1])
    distinct = new.cumsum() - 1
    column = np.empty(atoms.size, int)
    column[order] = distinct - distinct[np.searchsorted(sorted_owner, np.arange(blocks))][sorted_owner]
    size = np.bincount(sorted_owner[new], minlength=blocks)
    target = np.zeros((blocks, size.max()))
    target[_own_entries(size[:, None], target.shape[1:])] = sorted_atoms[new]
    k = laws.size[mu].max()
    drawn = np.zeros((blocks, k, size.max()))
    drawn[owner, laws.slot[row] - 1, column] = laws.weights2[rows][entries]
    w = _normalized(_normalized(drawn, size), size)
    present = np.arange(k) < laws.size[mu][:, None]
    v = np.where(present[:, :, None], target[:, None, :], 0.0)
    q, x = laws.weights2[mu, :k], shifted[mu, :k]
    return _Lotteries(laws, shifted, q, x, w, v, (target, size, drawn))


# ---------------------------------------------------------------------------
# gap operations
# ---------------------------------------------------------------------------


def _gap_of(lhs: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The gaps lhs - rhs and their vacuous flags: +inf on both sides says nothing about the inequality."""
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, silently, as for Python floats
        return lhs - rhs, np.isposinf(lhs) & np.isposinf(rhs)


def _product_gaps(div: DivergenceSpec, mu: np.ndarray, nu: np.ndarray, n_f: Sequence[int], weak: bool) -> tuple:
    """Gaps of B product instances packed as (B, E, F) joint weights, with their vacuous flags.

    Instance b has ``n_f[b]`` columns; zeros pad the rest and the missing
    rows. The joint, the marginal and the nu-charged rows are each one
    batched evaluation, combined into the superadditivity gap
    alpha(nu_bar | mu_bar) - alpha(nu | mu) - sum_x nu(x) alpha(K^nu_x | K^mu_x),
    or, when ``weak``, into the weak gap, which drops alpha(nu | mu). A row
    of zero mu-mass is uniform on the instance's columns, as
    ``_disintegrated`` makes it, and the row term is +inf once any
    nu-charged row is infinite.
    """
    b, e, f = mu.shape
    joint = div.evaluate_batch(nu.reshape(b, e * f), mu.reshape(b, e * f))
    (mu_marg, mu_rows), (nu_marg, nu_rows) = _disintegrated(mu, n_f), _disintegrated(nu)
    charged = nu_marg > 0.0
    alpha = np.zeros((b, e))
    alpha[charged] = div.evaluate_batch(nu_rows[charged], mu_rows[charged])
    rows = np.where(np.isinf(alpha).any(axis=-1), math.inf, _atom_sum(nu_marg * alpha))
    if weak:
        rhs = rows
    else:
        marg = div.evaluate_batch(nu_marg, mu_marg)
        rhs = np.where(np.isinf(marg) | np.isinf(rows), math.inf, marg + rows)
    return _gap_of(joint, rhs)


def _conditional_gaps(spec: RiskSpec, w: np.ndarray, v: np.ndarray, weak: bool) -> np.ndarray:
    """Gaps of B conditional instances packed as (B, E, F) weights and values.

    Row e of instance b is block e of its partition; zero weights pad short
    rows and missing ones. The full law lists the blocks' atoms row after
    row. The gap rho(rho(X | G)) - rho(X) solves the charged row laws and
    the full laws, which do not depend on each other, in one ``rho_batch``
    and then the outer laws of the row risks: two solves. The weak margin
    -rho(X~), with X~ recentered so that rho(X~ | G) = 0 on every block,
    solves the rows first and then the recentered full laws: two solves as
    well.
    """
    b, e, f = w.shape
    mass, rows = _disintegrated(w)
    charged = mass > 0.0
    rows = rows[charged]
    full_w = w.reshape(b, e * f)
    row_risk = np.zeros((b, e))
    if weak:
        row_risk[charged] = rho_batch(spec, rows, v[charged])
        return -rho_batch(spec, full_w, (v - row_risk[:, :, None]).reshape(b, e * f))
    n = rows.shape[0]
    rho = rho_batch(spec, _stacked([rows, full_w]), _stacked([v[charged], v.reshape(b, e * f)]))
    row_risk[charged] = rho[:n]
    return rho_batch(spec, mass, row_risk) - rho[n:]


def consistency_gap(spec: RiskSpec, mu: FiniteDist, f, partition: Partition) -> float:
    """rho(rho(X | G)) - rho(X); nonnegative iff acceptance-consistent here.

    Evaluated as a batch of one by the kernel of the conditional check kinds,
    so the gap of a sampled instance's ``flat()`` form is the bits its trial
    gives.
    """
    return float(_conditional_gaps(spec, *_pack_partition(mu, f, partition), weak=False)[0])


# a presupposed-acceptable law whose risk exceeds this is not acceptable
_ACCEPTABLE_TOL = 1e-9


def _mixture_risks(spec: RiskSpec, q, x, w, v, marginal=True) -> np.ndarray:
    """rho of each mixture sum_i q_i m_i(. - x_i), once its inputs are found acceptable.

    A mixture is a row of the (B, k) weights q and shifts x and of the
    (B, k, M) weights w and values v of its component laws m_i, zeros
    padding missing components and atoms. The mixtures, their component laws
    and, when ``marginal``, their x-marginals sum_i q_i delta_(x_i) are one
    ``rho_batch``. The weights q_i are renormalized to sum to 1. A marginal
    or a component above _ACCEPTABLE_TOL violates the precondition and raises.
    """
    q = q / _atom_sum(q)[:, None]
    b, k, m = w.shape
    present = w.any(axis=-1)
    parts = [(q, x)] if marginal else []
    parts += [(w[present], v[present]), ((q[:, :, None] * w).reshape(b, k * m), (x[:, :, None] + v).reshape(b, k * m))]
    rho = rho_batch(spec, _stacked([pw for pw, _ in parts]), _stacked([pv for _, pv in parts]))
    if marginal and np.any(rho[:b] > _ACCEPTABLE_TOL):
        raise PreconditionViolatedError("the x-marginal is not acceptable")
    if np.any(rho[b * marginal : -b] > _ACCEPTABLE_TOL):
        raise PreconditionViolatedError("a component law is not acceptable")
    return rho[-b:]


def _integral_lemma(spec: RiskSpec, mu_bar: np.ndarray, nu_bar: np.ndarray, n_f: Sequence[int]) -> tuple:
    """|sum_x nu(x) alpha(K^nu_x | K^mu_x) - rowwise dual suprema| of B pairs of (B, E, F) joint weights.

    Instance b has ``n_f[b]`` columns. The dual objective separates across
    rows, so the supremum over joint test functions is the nu-weighted sum
    of per-row dual solves; the closed form of the same sum is the oracle.
    Gives the gaps, their vacuous flags, and whether a row's solve ran out
    of its budget. The closed forms of the rows nu charges are one batch; a
    row of infinite alpha makes its instance vacuous, and unsolved.
    """
    (_, mu_rows), (nu_marg, nu_rows) = _disintegrated(mu_bar, n_f), _disintegrated(nu_bar)
    charged = nu_marg > 0.0
    closed = np.zeros(nu_marg.shape)
    closed[charged] = divergence_for_risk_spec(spec).evaluate_batch(nu_rows[charged], mu_rows[charged])
    vacuous = np.isinf(closed).any(axis=1)
    closed[vacuous] = 0.0
    dual, exhausted = np.zeros(closed.shape), np.zeros(vacuous.shape, bool)
    for b, e in zip(*np.nonzero(charged & ~vacuous[:, None])):
        res = _dual_divergence_w(spec, nu_rows[b, e, : n_f[b]], mu_rows[b, e, : n_f[b]])
        dual[b, e] = res.value
        exhausted[b] |= res.budget_exhausted
    return np.abs(_atom_sum(nu_marg * closed) - _atom_sum(nu_marg * dual)), vacuous, exhausted


def _key_identity_gaps(spec: RiskSpec, w: np.ndarray, v: np.ndarray, n_e: Sequence[int]) -> np.ndarray:
    """|rho_mu(x -> rho_rows(f(x, .))) - grid-dual reconstruction| of B joint laws and payoffs as (B, E, F) arrays.

    Instance b has ``n_e[b]`` rows. The left side composes the risk through
    the disintegration of the joint law: the block's row risks are one
    ``rho_batch`` and its outer risks one more. The right side maximizes
    E_nu[g] - alpha(nu | mu) over an enumerated simplex grid, with the
    per-row inner suprema evaluated in closed form, one instance at a time.
    """
    mass, rows = _disintegrated(w)
    charged = mass > 0.0
    g = np.zeros(mass.shape)
    g[charged] = rho_batch(spec, rows[charged], v[charged])
    div = divergence_for_risk_spec(spec)
    rhs = [primal_reconstruction(div, FiniteDist(range(n), m[:n]), x[:n]) for m, x, n in zip(mass, g, n_e)]
    return np.abs(rho_batch(spec, mass, g) - rhs)


# ---------------------------------------------------------------------------
# block functions and serializers
# ---------------------------------------------------------------------------


class BlockResult(NamedTuple):
    """A block's trials judged, each field but ``drawn`` an array over its trials in order.

    ``gap`` (float64) means nothing where ``vacuous`` (bool) is set.
    ``product`` marks the product class and ``exhausted`` a solver out of its
    budget (bool), each None for a kind without it. ``drawn`` is what the
    kind's serializer rebuilds trial b's instance from: the finished block,
    with the chain kinds' values or joint_convexity's left sides, or
    duality's per-pair solves.
    """

    gap: np.ndarray
    vacuous: np.ndarray
    product: np.ndarray | None
    exhausted: np.ndarray | None
    drawn: object


def _judged(gap: np.ndarray, vacuous: np.ndarray | None, drawn, product=None, exhausted=None) -> BlockResult:
    """The BlockResult of these arrays; with vacuous None, no trial is vacuous."""
    return BlockResult(gap, np.zeros(gap.shape, bool) if vacuous is None else vacuous, product, exhausted, drawn)


def _first(gap: np.ndarray, vacuous: np.ndarray | None = None) -> float | None:
    """The gap of a block of one as a float; None when it is vacuous."""
    return None if vacuous is not None and vacuous[0] else float(gap[0])


def _pair_gaps(values: np.ndarray) -> tuple:
    """alpha before minus alpha after the one push of each data-processing trial."""
    return _gap_of(values[:, 0], values[:, 1])


def _refinement_gaps(values: np.ndarray) -> tuple:
    """Each row's least step down its values, the first of equal ones, over steps between finite values.

    NaN if any value is; vacuous without such a step.
    """
    before, after = values[:, :-1], values[:, 1:]
    finite = np.isfinite(before) & np.isfinite(after)
    steps = np.subtract(before, after, out=np.zeros(finite.shape), where=finite)
    gap, seen = np.zeros(len(values)), np.zeros(len(values), bool)
    for step, ok in zip(steps.T, finite.T):
        gap = np.where(ok & (~seen | (step < gap)), step, gap)
        seen |= ok
    nan = np.isnan(values).any(axis=1)
    return np.where(nan, math.nan, gap), ~seen & ~nan


def _chain_trials(risk, div, block: _ChainBlock, gaps: Callable = _pair_gaps) -> BlockResult:
    """Pairs of laws pushed along their chains in one ``_chain_values``."""
    values = _chain_values(div, block.nu, block.mu, block.chain)
    return _judged(*gaps(values), (block, values))


def _convexity_sides(div, t: np.ndarray, nu1, mu1, nu2, mu2) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of convexity, t alpha(nu1 | mu1) + (1 - t) alpha(nu2 | mu2) and alpha(the mixtures), of B pairs."""
    lhs = t * div.evaluate_batch(nu1, mu1) + (1 - t) * div.evaluate_batch(nu2, mu2)
    mix_nu, mix_mu = (t[:, None] * a + (1 - t[:, None]) * b for a, b in ((nu1, nu2), (mu1, mu2)))
    rhs = div.evaluate_batch(mix_nu / _atom_sum(mix_nu)[:, None], mix_mu / _atom_sum(mix_mu)[:, None])
    return lhs, rhs


def _joint_convexity_trials(risk, div, block: _ConvexityBlock) -> BlockResult:
    """The two sides of ``_convexity_sides`` minus each other; the left sides tell which trials keep an instance."""
    mu1, nu1, mu2, nu2 = (np.ascontiguousarray(block.laws[:, i]) for i in range(4))
    lhs, rhs = _convexity_sides(div, block.t, nu1, mu1, nu2, mu2)
    return _judged(*_gap_of(lhs, rhs), (block, lhs))


def _duality_trials(risk, div, pairs: tuple) -> BlockResult:
    """Each pair's certified dual gap, by one ``dual_divergence`` call on its laws as FiniteDist stores them.

    The block's closed forms are one ``evaluate_batch`` first. A pair whose
    closed form is +inf while nu << mu is vacuous without a solve: the
    ascent can only end finite there, so its gap would certify nothing. A
    family without a closed form solves every pair.
    """
    mu_w, nu_w, n = pairs
    try:
        closed = divergence_for_risk_spec(risk).evaluate_batch(_normalized(nu_w, n), _normalized(mu_w, n))
    except UnsupportedFamilyError:
        closed = np.zeros(n.shape)
    gap, exhausted, solves = np.zeros(n.shape), np.zeros(n.shape, bool), [None] * n.size
    for b in np.flatnonzero(~(np.isposinf(closed) & ~_not_ac(nu_w, mu_w))):
        mu, nu = (FiniteDist(_labels("a", n[b]), w[b, : n[b]]) for w in (mu_w, nu_w))
        res = dual_divergence(risk, nu, mu)
        if res.certified_gap is not None:
            gap[b], exhausted[b], solves[b] = res.certified_gap, res.budget_exhausted, (nu, mu, res)
    return _judged(gap, np.array([s is None for s in solves]), solves, exhausted=exhausted)


def _stacked(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """2-D arrays one after another along the first axis, zero-padded to a common width."""
    out = np.zeros((sum(a.shape[0] for a in arrays), max(a.shape[1] for a in arrays)))
    row = 0
    for a in arrays:
        out[row : row + a.shape[0], : a.shape[1]] = a
        row += a.shape[0]
    return out


def _renormalized(w: np.ndarray) -> np.ndarray:
    """Weights divided by their total, the bits JointDist and FiniteDist store."""
    flat = w.reshape(-1)
    return (flat / flat.sum()).reshape(w.shape)


def _conditional_trials(risk, div, block: _JointBlock, weak: bool) -> BlockResult:
    """Conditional instances, their gaps in one ``_conditional_gaps``.

    The joint law is renormalized twice, as JointDist and then ``flat()``'s
    FiniteDist renormalize it, so an acceptance trial gives the bits of
    ``consistency_gap`` on its ``sample_conditional_instance(...).flat()``.
    """
    return _judged(_conditional_gaps(risk, block.w, block.paired, weak=weak), None, block, block.product)


def _product_trials(risk, div, block: _JointBlock, weak: bool) -> BlockResult:
    """Product instances, their gaps in one ``_product_gaps``."""
    return _judged(*_product_gaps(div, block.w, block.paired, block.n_f, weak), block, block.product)


def _lemma_identity_trials(risk, div, block: _JointBlock) -> BlockResult:
    gap, vacuous, exhausted = _integral_lemma(risk, block.w, block.paired, block.n_f)
    return _judged(gap, vacuous, block, block.product, exhausted)


def _key_identity_trials(risk, div, block: _JointBlock) -> BlockResult:
    gap = _key_identity_gaps(risk, block.joint, block.paired, block.n_e)
    return _judged(gap, None, block, block.product)


def _on_boundary(risk: RiskSpec, laws: _LawsBlock) -> np.ndarray:
    """The values of the block's laws shifted onto rho = 0 by one ``rho_batch``: ``rho_of_law``'s bits; zeros pad."""
    rho = rho_batch(risk, laws.weights, laws.values)
    return np.where(_own_entries(laws.size[:, None], laws.values.shape[1:]), laws.values - rho[:, None], 0.0)


def _probe_trials(risk, div, laws: _LawsBlock, lotteries: Callable, marginal=True) -> BlockResult:
    """Trials of an acceptance-set probe kind in two ``rho_batch`` calls.

    The first shifts every law of the block onto the boundary
    (``_on_boundary``); ``lotteries`` assembles each trial's compound lottery
    from the shifted laws for the second, ``_mixture_risks``.
    """
    lot = lotteries(laws, _on_boundary(risk, laws))
    return _judged(-_mixture_risks(risk, lot.q, lot.x, lot.w, lot.v, marginal=marginal), None, lot)


def _concavity_gaps(risk, t: np.ndarray, w1, v1, w2, v2) -> np.ndarray:
    """rho(t m1 + (1 - t) m2) - t rho(m1) - (1 - t) rho(m2) of B pairs of laws, all in one ``rho_batch``.

    Each law is given as (B, N) weights and values.
    """
    mixed_w = np.hstack([t[:, None] * w1, (1 - t[:, None]) * w2])
    rho = rho_batch(risk, _stacked([w1, w2, mixed_w]), _stacked([v1, v2, np.hstack([v1, v2])]))
    rho1, rho2, mixed = rho.reshape(3, -1)
    return mixed - t * rho1 - (1 - t) * rho2


def _dist_concavity_trials(risk, div, block: _ConcavityBlock) -> BlockResult:
    (w1, w2), (v1, v2) = block.weights, block.values
    return _judged(_concavity_gaps(risk, block.t, w1, v1, w2, v2), None, block)


def _lebesgue_gaps(risk, w: np.ndarray, f: np.ndarray, h: np.ndarray) -> np.ndarray:
    """rho_mu(f + 4^-k h) for k < 15 falls to rho_mu(f), per row of (B, N) weights, payoffs and directions.

    All risks are one ``rho_batch``.
    """
    scales = 4.0 ** -np.arange(15.0)
    v = np.concatenate([f[:, None], f[:, None] + scales[:, None] * h[:, None]], axis=1)
    rho = rho_batch(risk, np.repeat(w, 16, axis=0), v.reshape(-1, w.shape[1])).reshape(-1, 16)
    limit, vals = rho[:, 0], rho[:, 1:]
    # ties keep the first argument, as max() does: a zero step or gap stays +0.0
    return np.maximum(np.maximum(0.0, np.diff(vals).max(axis=1)), np.abs(vals[:, -1] - limit))


def _lebesgue_trials(risk, div, block: _LebesgueBlock) -> BlockResult:
    return _judged(_lebesgue_gaps(risk, block.mu, block.f, block.h), None, block)


# a kind's serializer gives trial b's instance document from the kind's BlockResult, or None when it keeps none


def _product_json(result: BlockResult, b: int) -> dict:
    """A pair of joint laws on one product grid, the reference law's class flagged."""
    draw = result.drawn.trial(b)
    mu_bar, nu_bar = (_joint_dist(w).as_json() for w in (draw.w, draw.paired))
    return {"mu_bar": mu_bar, "nu_bar": nu_bar, "is_product": draw.is_product}


def _conditional_json(result: BlockResult, b: int) -> dict:
    return _conditional_instance(result.drawn.trial(b)).as_json()


def _concavity_json(result: BlockResult, b: int) -> dict:
    return {k: v.as_json() if isinstance(v, FiniteDist) else v for k, v in result.drawn.trial(b).items()}


def _duality_json(result: BlockResult, b: int) -> dict | None:
    """A solved pair's laws and solve; a vacuous pair keeps none."""
    if result.vacuous[b]:
        return None
    nu, mu, res = result.drawn[b]
    doc = {"nu": nu.as_json(), "mu": mu.as_json(), "dual_value": res.value, "closed_form": res.closed_form}
    return {**doc, "iterations": res.iterations, "budget_exhausted": res.budget_exhausted}


def _chain_json(result: BlockResult, b: int) -> dict:
    """A data-processing instance: its laws and its kernel, its map, or its maps and the values along them."""
    block, values = result.drawn
    draw = block.trial(b)
    labels = _labels("a", draw.mu.size)
    laws = {"nu": FiniteDist(labels, draw.nu).as_json(), "mu": FiniteDist(labels, draw.mu).as_json()}
    if not draw.maps:
        (rows,) = draw.chain
        return {**laws, "kernel": Kernel(labels, _labels("b", rows.shape[1]), rows).as_json()}
    if len(draw.maps) == 1:
        return {**laws, "map": draw.maps[0]}
    return {**laws, "maps": list(draw.maps), "values": values[b].tolist()}


def _refinement_json(result: BlockResult, b: int) -> dict | None:
    """A refinement instance; a vacuous one, without a step between finite values, keeps none."""
    return None if result.vacuous[b] else _chain_json(result, b)


def _convexity_json(result: BlockResult, b: int) -> dict | None:
    """A joint_convexity instance; a trial with an infinite left side keeps none."""
    block, lhs = result.drawn
    if math.isinf(lhs[b]):
        return None
    t, *laws = block.trial(b)
    labels = _labels("a", laws[0].size)
    return {"t": t, **{k: FiniteDist(labels, w).as_json() for k, w in zip(("nu1", "mu1", "nu2", "mu2"), laws)}}


def _lebesgue_json(result: BlockResult, b: int) -> dict:
    mu, f, h = result.drawn.trial(b)
    return {"mu": mu.as_json(), "f": f.tolist(), "h": h.tolist()}


# ---------------------------------------------------------------------------
# replay: a serialized instance read back and evaluated as a block of one
# ---------------------------------------------------------------------------
#
# An instance document comes from outside the program: a part that is
# missing or of the wrong type, or whose atoms do not match the other parts,
# raises ConfigParseError. A replay evaluates the numbers as serialized, not
# as FiniteDist, JointDist or Kernel store them when read, which renormalizes
# weights once more and moves last bits; it applies the renormalizations its
# trial applied after serializing, so it gives the trial's gap bits.


def _stored(cls, doc, key: str = "weights") -> tuple:
    """doc read as a cls, and its numbers under key as serialized."""
    return cls.from_json(doc), np.array(doc[key], dtype=float)


def _law(doc) -> tuple[np.ndarray, np.ndarray]:
    """A law on the real line: its weights as serialized and its values."""
    law, w = _stored(FiniteDist, doc)
    return w, law.values_array()


def _one_lottery(q: list, x: list, laws: list) -> tuple:
    """A compound lottery of weights q, shifts x and component laws (weights, values), as a block of one."""
    w, v = (_padded([law[i] for law in laws])[None] for i in (0, 1))
    return np.array([q], dtype=float), np.array([x], dtype=float), w, v


def _on_one_space(doc, what: str, cls, *names) -> tuple[dict, list[np.ndarray]]:
    """The atoms the laws of type cls under names share, as a JSON object, and their weights as serialized."""
    laws = [_stored(cls, part) for part in json_object(doc, what, *names)]
    spaces = [{**law.as_json(), "weights": None} for law, _ in laws]
    if any(space != spaces[0] for space in spaces):
        raise ConfigParseError(f"the laws {', '.join(names)} of a {what} must share their atoms")
    return spaces[0], [w for _, w in laws]


def _joint_pair(doc) -> list[np.ndarray]:
    """The weights of mu_bar and nu_bar, as serialized, of a product instance."""
    return _on_one_space(doc, "product instance", JointDist, "mu_bar", "nu_bar")[1]


def _product_replay(risk, div, doc, weak: bool):
    mu, nu = _joint_pair(doc)
    return _first(*_product_gaps(div, mu[None], nu[None], [mu.shape[1]], weak))


def _lemma_replay(risk, div, doc):
    mu, nu = _joint_pair(doc)
    return _first(*_integral_lemma(risk, mu[None], nu[None], [mu.shape[1]])[:2])


def _joint_payoff(doc) -> tuple[np.ndarray, np.ndarray]:
    """The weights, as serialized, and the payoff of a conditional instance."""
    joint_doc, values, partition = json_object(doc, "conditional instance", "joint", "values", "partition")
    if partition != "first_coordinate":
        raise ConfigParseError(f"a conditional instance's 'partition' must be 'first_coordinate', got {partition!r}")
    _, w = _stored(JointDist, joint_doc)
    v = np.array(number_rows(values, "conditional instance 'values'"), dtype=float)
    if v.shape != w.shape:
        raise ConfigParseError(f"conditional instance 'values' must have the joint law's shape {w.shape}: {v.shape}")
    return w, v


def _conditional_replay(risk, div, doc, weak: bool):
    w, v = _joint_payoff(doc)
    # the trial's weights are renormalized once more, as flat()'s FiniteDist does
    return _first(_conditional_gaps(risk, _renormalized(w)[None], v[None], weak))


def _key_identity_replay(risk, div, doc):
    w, v = _joint_payoff(doc)
    return _first(_key_identity_gaps(risk, w[None], v[None], [w.shape[0]]))


def _map_matrices(atoms: tuple, maps: list) -> list[np.ndarray]:
    """The 0/1 matrices of a JSON list of maps, each a JSON object on exactly the image of the one before."""
    if not isinstance(maps, list):
        raise ConfigParseError(f"a chain of maps must be a JSON list, got {maps!r}")
    out = []
    for mapping in maps:
        if not isinstance(mapping, Mapping) or set(mapping) != set(atoms):
            raise ConfigParseError(f"a map must be a JSON object on exactly the atoms {list(atoms)!r}, got {mapping!r}")
        on_atoms = {a: mapping[a] for a in atoms}
        atoms = tuple(dict.fromkeys(label_list(list(on_atoms.values()), "the images of a map")))
        # columns by the images' own equality, as the next map's atoms are found
        column = {y: i for i, y in enumerate(atoms)}
        columns = np.array([[column[y] for y in on_atoms.values()]])
        out.append(_one_hot(columns, np.array([len(on_atoms)]))[0])
    return out


def _chain_replay(risk, div, doc, link: str, gaps: Callable = _pair_gaps):
    """A data-processing instance's laws pushed along its "kernel", its "map" or its "maps".

    Sufficiency of a statistic (one map) is a property of d nu / d mu, so it needs nu << mu.
    """
    what = "data-processing instance"
    space, (nu, mu) = _on_one_space(doc, what, FiniteDist, "nu", "mu")
    (link_doc,) = json_object(doc, what, link)
    if link == "kernel":
        kernel, rows = _stored(Kernel, link_doc, "rows")
        if list(kernel.source) != space["atoms"]:
            raise ConfigParseError(f"the kernel's source must be the laws' atoms {space['atoms']!r}")
        chain = [rows]
    else:
        if link == "map" and _not_ac(nu, mu):
            raise NotAbsolutelyContinuousError("a sufficiency instance needs nu << mu")
        chain = _map_matrices(tuple(space["atoms"]), [link_doc] if link == "map" else link_doc)
    return _first(*gaps(_chain_values(div, nu[None], mu[None], [m[None] for m in chain])))


def _mixing_weight(doc, what: str) -> float:
    """A document's mixing weight t, a number in [0, 1]; else ConfigParseError."""
    t = typed_field(doc, "t", None, float, what)
    if not 0.0 <= t <= 1.0:
        raise ConfigParseError(f"{what} 't' must lie in [0, 1], got {t!r}")
    return t


def _convexity_replay(risk, div, doc):
    what = "joint_convexity instance"
    _, laws = _on_one_space(doc, what, FiniteDist, "nu1", "mu1", "nu2", "mu2")
    t = _mixing_weight(doc, what)
    return _first(*_gap_of(*_convexity_sides(div, np.array([t]), *(w[None] for w in laws))))


def _shift_convexity_replay(risk, div, doc):
    mu_doc, kernel_doc = json_object(doc, "shift_convexity instance", "mu", "kernel")
    (mu, mu_w), (kernel, rows) = _stored(FiniteDist, mu_doc), _stored(Kernel, kernel_doc, "rows")
    if kernel.source != mu.atoms:
        raise ConfigParseError(f"the kernel's source must be mu's atoms {list(mu.atoms)!r}")
    # the trial's components are the kernel's rows as FiniteDist renormalizes them
    laws = [FiniteDist(kernel.target, row) for row in rows]
    lottery = _one_lottery(mu_w, mu.values_array(), [(law.weights, law.values_array()) for law in laws])
    return -float(_mixture_risks(risk, *lottery)[0])


def _lottery_replay(risk, div, doc, shifted: bool):
    """Minus the risk of a property_s compound lottery's shifted mixture, or of a mixture, whose shifts are 0."""
    what, key = ("property_s instance", "pairs") if shifted else ("mixture_convexity instance", "components")
    (entries,) = json_object(doc, what, key)
    if not isinstance(entries, list) or not entries:
        raise ConfigParseError(f"{what} {key!r} must be a nonempty list, got {entries!r}")
    fields = ("weight", "x", "law") if shifted else ("weight", "law")
    parts = [json_object(entry, f"an entry of {what} {key!r}", *fields) for entry in entries]
    weights = number_list([p[0] for p in parts], f"the weights of {what} {key!r}")
    shifts = number_list([p[1] for p in parts], f"the shifts of {what} {key!r}") if shifted else [0.0] * len(parts)
    FiniteDist(range(len(weights)), weights)  # raises unless the weights are a probability vector
    lottery = _one_lottery(weights, shifts, [_law(p[-1]) for p in parts])
    return -float(_mixture_risks(risk, *lottery, marginal=shifted)[0])


def _concavity_replay(risk, div, doc):
    what = "dist_concavity instance"
    m1, m2 = json_object(doc, what, "m1", "m2")
    (w1, v1), (w2, v2) = (_law(m) for m in (m1, m2))
    t = np.array([_mixing_weight(doc, what)])
    return _first(_concavity_gaps(risk, t, w1[None], v1[None], w2[None], v2[None]))


def _lebesgue_replay(risk, div, doc):
    what = "lebesgue instance"
    mu_doc, f, h = json_object(doc, what, "mu", "f", "h")
    _, mu_w = _stored(FiniteDist, mu_doc)
    f, h = (np.array(number_list(x, f"{what} {key!r}"), dtype=float) for key, x in (("f", f), ("h", h)))
    if f.shape != mu_w.shape or h.shape != mu_w.shape:
        raise ConfigParseError(f"{what} 'f' and 'h' must hold one value per atom of mu")
    return _first(_lebesgue_gaps(risk, mu_w[None], f[None], h[None]))


def _duality_replay(risk, div, doc):
    _, (nu, mu) = _on_one_space(doc, "duality instance", FiniteDist, "nu", "mu")
    return _certified_dual_w(risk, nu, mu).certified_gap


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckKind:
    """One structural fact, checked by seeded sampling.

    ``side`` "lower": gaps should stay >= -noise; "abs": |gap| should stay
    <= noise. ``needs`` says which of (risk spec, divergence spec) the kind
    uses. ``sampler(rows, budget)`` draws a block of instances from the
    block's ``_Rows`` and finishes them, in one call, and ``evaluate(risk,
    div, block)`` judges them into one BlockResult. ``serialize(result, b)``
    builds trial b's instance document from it, or None when the trial
    keeps none; only ``describe_trial`` calls it, on a block of one.
    ``read(risk, div, instance_doc)`` is its inverse: it reads a serialized
    instance back and evaluates it through the kind's block code as a block
    of one; a malformed document raises ConfigParseError. ``negate`` marks a
    reverse inequality, whose gaps ``trial`` and ``replay`` negate.
    ``grid_sizes`` names the sizes, "E" or "F", that count atoms of distinct
    values drawn from VALUE_GRID, so they may not exceed its 41 points.
    ``sparse`` marks a kind whose sampler applies the budget's sparsity;
    the others draw no keep mask and refuse a nonzero sparsity.
    ``oracle`` marks a kind checked against the grid oracle, whose sizes may
    not exceed its _ORACLE_ATOMS atoms per axis.
    """

    side: str
    needs: str
    sampler: Callable
    evaluate: Callable
    serialize: Callable
    read: Callable
    grid_sizes: str = ""
    sparse: bool = True
    negate: bool = False
    oracle: bool = False

    def trial(self, risk, div, budget: SearchBudget, start: int, stop: int) -> BlockResult:
        """The BlockResult of trials [start, stop): the block is drawn and finished together, then evaluated."""
        result = self.evaluate(risk, div, _finished(self.sampler, budget, start, stop))
        return result._replace(gap=-result.gap) if self.negate else result

    def replay(self, risk, div, doc):
        """The gap of a serialized instance, the bits of its trial's; None when vacuous."""
        gap = self.read(risk, div, doc)
        return -gap if self.negate and gap is not None else gap

    def badness(self, gap):
        """How strongly a gap, or each of an array of gaps, leans toward violation; larger is worse."""
        return abs(gap) if self.side == "abs" else -gap

    def check_budget(self, budget: SearchBudget, what: str) -> None:
        """ConfigParseError if a size or the sparsity of the budget is more than this kind's sampler can draw.

        Sizes are drawn from 2 up, but ``refinement`` draws 3 to max(4, E)
        atoms and ``sufficiency_*`` 2 to max(3, E).
        """
        if not self.sparse and budget.sparsity != 0.0:
            raise ConfigParseError(f"{what} draws no sparse laws: sparsity must be 0, got {budget.sparsity!r}")
        for axis, size in zip("EF", (budget.max_e, budget.max_f)):
            if self.oracle and size > _ORACLE_ATOMS:
                limit = f"size {axis} must be at most {_ORACLE_ATOMS}, got {size}"
                raise ConfigParseError(f"{what} is checked against the {_ORACLE_ATOMS}-atom grid oracle: {limit}")
            if axis in self.grid_sizes and size > VALUE_GRID.size:
                limit = f"size {axis} must be at most {VALUE_GRID.size}, got {size}"
                raise ConfigParseError(f"{what} draws distinct payoff values from VALUE_GRID: {limit}")


def _product_kind(side: str, weak: bool = False, negate: bool = False) -> CheckKind:
    evaluate, read = (partial(f, weak=weak) for f in (_product_trials, _product_replay))
    return CheckKind(side, "div", partial(_joint, payoffs=False), evaluate, _product_json, read, negate=negate)


def _conditional_kind(side: str, weak: bool = False, negate: bool = False) -> CheckKind:
    evaluate, read = (partial(f, weak=weak) for f in (_conditional_trials, _conditional_replay))
    return CheckKind(side, "risk", partial(_joint, payoffs=True), evaluate, _conditional_json, read, negate=negate)


def _chain_kind(
    side: str, sampler: Callable, link: str, gaps: Callable = _pair_gaps, serialize=_chain_json, sparse=True
):
    read = partial(_chain_replay, link=link, gaps=gaps)
    return CheckKind(side, "div", sampler, partial(_chain_trials, gaps=gaps), serialize, read, sparse=sparse)


def _probe_kind(laws: Callable, lotteries: Callable, serialize, read, grid_sizes: str = "F", marginal=True):
    evaluate = partial(_probe_trials, lotteries=lotteries, marginal=marginal)
    return CheckKind("lower", "risk", laws, evaluate, serialize, read, grid_sizes, sparse=False)


CHECK_KINDS: dict[str, CheckKind] = {
    "chain_rule": _product_kind("abs"),
    "superadditivity": _product_kind("lower"),
    "subadditivity": _product_kind("lower", negate=True),
    "weak_consistency": _product_kind("lower", weak=True),
    "dpi": _chain_kind("lower", partial(_dpi, bijection=False), "kernel"),
    "dpi_bijection": _chain_kind("abs", partial(_dpi, bijection=True), "kernel"),
    "duality": CheckKind("abs", "risk", _pair, _duality_trials, _duality_json, _duality_replay),
    "time_consistency": _conditional_kind("abs"),
    "acceptance": _conditional_kind("lower"),
    "rejection": _conditional_kind("lower", negate=True),
    "weak_acceptance": _conditional_kind("lower", weak=True),
    "shift_convexity": _probe_kind(
        _shift_convexity_laws, _shift_convexity_lotteries, _shift_convexity_json, _shift_convexity_replay, "EF"
    ),
    "property_s": _probe_kind(
        _property_s_laws, _property_s_lotteries, _property_s_json, partial(_lottery_replay, shifted=True)
    ),
    "mixture_convexity": _probe_kind(
        _mixture_laws, _mixture_lotteries, _mixture_json, partial(_lottery_replay, shifted=False), marginal=False
    ),
    "joint_convexity": CheckKind(
        "lower", "div", _convexity, _joint_convexity_trials, _convexity_json, _convexity_replay, sparse=False
    ),
    "dist_concavity": CheckKind(
        "lower", "risk", _concavity, _dist_concavity_trials, _concavity_json, _concavity_replay, "E", sparse=False
    ),
    "sufficiency_matched": _chain_kind("abs", partial(_sufficiency, matched=True), "map", sparse=False),
    "sufficiency_generic": _chain_kind("lower", partial(_sufficiency, matched=False), "map", sparse=False),
    "refinement": _chain_kind("lower", _refinement, "maps", _refinement_gaps, _refinement_json, sparse=False),
    "lemma_identity": CheckKind(
        "abs",
        "risk",
        partial(_joint, payoffs=False, cap=_ORACLE_ATOMS),
        _lemma_identity_trials,
        _product_json,
        _lemma_replay,
        oracle=True,
    ),
    "key_identity": CheckKind(
        "abs",
        "risk",
        partial(_joint, payoffs=True, cap=_ORACLE_ATOMS),
        _key_identity_trials,
        _conditional_json,
        _key_identity_replay,
        oracle=True,
    ),
    "lebesgue": CheckKind("abs", "risk", _lebesgue, _lebesgue_trials, _lebesgue_json, _lebesgue_replay, sparse=False),
}


def check_kind(name: str) -> CheckKind:
    """The registry entry of a check kind; UnknownFamilyError if there is none."""
    try:
        return CHECK_KINDS[name]
    except KeyError:
        raise UnknownFamilyError(f"unknown check kind {name!r}") from None


def resolve_divergence(
    kind: str, risk: RiskSpec | None, div: DivergenceSpec | None
) -> DivergenceSpec | None:
    """div, or the closed form of the risk spec when a divergence kind is given none."""
    if div is None and check_kind(kind).needs == "div":
        return divergence_for_risk_spec(risk)
    return div
