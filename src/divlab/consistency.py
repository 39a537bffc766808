"""Numerical probes of time consistency, additivity, and acceptance geometry.

Everything here asks one of two questions about a risk family and its
induced divergence alpha:

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

Instances are sampled from seeded per-trial streams: trial k of a search
with seed s draws the stream of ``numpy.random.default_rng([s, k])``, so any
reported instance replays exactly from (seed, trial) and results do not
depend on how trials are split into blocks, nor on which process runs a
block (see ``_trial_pool``). A reported instance also replays from its
document: ``CHECK_KINDS[kind].replay(risk, div, doc)`` reads it back and
gives the gap bits of its trial. A block does not build a generator per
trial: ``_trial_rngs`` computes the PCG64 states of all its trials in one
vectorized pass and sets one generator to each in turn, the state
``default_rng([s, k])`` starts in. ``SearchBudget.rng_for`` builds the
generator itself and stays the reference. Dirichlet(1) weights are normalized standard
exponentials, the stream and bits of numpy's ``dirichlet``, and payoffs are
drawn by integer index into VALUE_GRID, the stream of ``choice``; reports of
earlier versions replay unchanged. The conditional and product kinds draw their
instances from one sampler of a random joint law (``_draw_joint``), and the
data-processing kinds and ``joint_convexity`` draw pairs of laws. They keep
their draws as plain arrays, which become objects only when ``describe_trial``
serializes one, and evaluate a whole block of them in batched solves whose
per-trial results do not depend on the block either; a conditional block
takes two ``rho_batch`` calls (see ``_conditional_gaps``). The acceptance-set
probes, ``dist_concavity`` and ``lebesgue`` draw laws and evaluate a block's
risks in at most two ``rho_batch`` calls. Gaps where both sides
are +inf are "vacuous" and excluded from statistics but counted. A
``SearchBudget`` sets the trial count, the seed, the grid sizes and the
sparsity; every other parameter of the samplers is a module constant. The
kinds that draw laws on distinct grid values (``shift_convexity``,
``property_s``, ``mixture_convexity``, ``dist_concavity``) refuse sizes
above the grid's 41 points.
"""

from __future__ import annotations

import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cache, partial, reduce
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .divergence import (
    DivergenceSpec,
    Gap,
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
    json_object,
    label_list,
    number_list,
    number_rows,
    typed_field,
)
from .prob import (
    FiniteDist,
    JointDist,
    Kernel,
    Partition,
    disintegrate_w,
)
from .risk import RiskSpec, _atom_sum, _pack_partition, rho_batch, rho_values

# the payoff values that samplers draw from: -2.0, -1.9, ..., 2.0
VALUE_GRID = np.linspace(-2.0, 2.0, 41)
VALUE_GRID.flags.writeable = False
# the chance that a joint instance's reference law is a product of its marginals
PRODUCT_FRACTION = 0.5


@dataclass(frozen=True)
class SearchBudget:
    """How much to sample and from where; fully determines a search."""

    trials: int
    seed: int
    max_e: int = 3
    max_f: int = 3
    sparsity: float = 0.0

    def __post_init__(self):
        if self.trials < 0 or self.seed < 0 or self.max_e < 1 or self.max_f < 1:
            raise ConfigParseError("budget needs trials >= 0, seed >= 0 and positive sizes")
        if not 0.0 <= self.sparsity <= 1.0:
            raise ConfigParseError(f"budget field 'sparsity' must lie in [0, 1], got {self.sparsity!r}")

    def rng_for(self, trial: int) -> np.random.Generator:
        """A new generator of the trial's stream, ``default_rng([seed, trial])``.

        The reference for every trial's draws: the trial functions seed a
        block's trials through ``_trial_rngs``, whose states are tested equal
        to these, and a trial replays by hand from this generator.
        """
        return np.random.default_rng([self.seed, trial])

    def as_json(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "sizes": {"E": self.max_e, "F": self.max_f},
            "sparsity": self.sparsity,
        }

    @classmethod
    def from_json(cls, doc: Mapping) -> "SearchBudget":
        field = partial(typed_field, what="budget field")
        sizes = field(doc, "sizes", {}, dict)
        return cls(
            trials=field(doc, "trials", 0, int),
            seed=field(doc, "seed", 0, int),
            max_e=field(sizes, "E", 3, int),
            max_f=field(sizes, "F", 3, int),
            sparsity=field(doc, "sparsity", 0.0, float),
        )


# ---------------------------------------------------------------------------
# trial generators
# ---------------------------------------------------------------------------
#
# default_rng([s, k]) hashes the 32-bit words of s and k into a pool of four
# words with numpy's SeedSequence (NEP 19), draws PCG64's initial state and
# sequence from the pool, and seeds PCG64 as O'Neill's srandom does. The
# functions below take the same steps on uint32 arrays, one column per trial.

_POOL_SIZE = 4  # SeedSequence's pool, in words
_HASH_A = (0x43B0D7E5, 0x931E8875)  # (first constant, multiplier) of the hashes that mix entropy
_HASH_B = (0x8B51F9DD, 0x58F38DED)  # the same for the hashes of generate_state
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1


def _uint32_words(n: int) -> list[int]:
    """n's 32-bit words, least significant first, as SeedSequence reads an int; 0 is one word.

    A negative n has no words: SeedSequence refuses it, and n >> k never reaches 0.
    """
    if n < 0:
        raise ValueError(f"seeds and trial indices must be nonnegative, got {n}")
    words = [n & _MASK32]
    while n >> 32 * len(words):
        words.append(n >> 32 * len(words) & _MASK32)
    return words


@cache
def _seeding_constants(n_words: int) -> tuple:
    """SeedSequence's hash constants on n_words of entropy, as (xor, multiply) pairs of uint32 columns.

    A hash xors its value with a running constant, multiplies the constant by
    a fixed factor and the value by the new constant, so every constant
    depends on how many hashes came before and never on the data. The pairs
    come in the order of the steps of ``_pcg64_states``: the first hash of each
    pool word; per pool word, its hashes into the other words, with zeros in
    its own row; per entropy word beyond the pool, its hashes into every pool
    word; and generate_state's hashes of the pool read twice over.
    """

    def running(first: int, factor: int, count: int) -> list[tuple[int, int]]:
        h = [first]
        for _ in range(count):
            h.append(h[-1] * factor & _MASK32)
        return list(zip(h, h[1:]))

    def columns(pairs: list) -> tuple[np.ndarray, np.ndarray]:
        out = np.array(pairs, np.uint32).T[:, :, None]
        out.flags.writeable = False
        return out[0], out[1]

    a = iter(running(*_HASH_A, _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * max(0, n_words - _POOL_SIZE)))
    first = columns([next(a) for _ in range(_POOL_SIZE)])
    rounds = [
        columns([(0, 0) if dst == src else next(a) for dst in range(_POOL_SIZE)]) for src in range(_POOL_SIZE)
    ]
    beyond = [columns([next(a) for _ in range(_POOL_SIZE)]) for _ in range(_POOL_SIZE, n_words)]
    return first, rounds, beyond, columns(running(*_HASH_B, 2 * _POOL_SIZE))


def _hashed(v: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    v = (v ^ xor) * mul
    return v ^ v >> _XSHIFT


def _mixed(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    v = x * _MIX_L - y * _MIX_R
    return v ^ v >> _XSHIFT


def _pcg64_states(seed: int, start: int, stop: int) -> list[tuple[int, int]]:
    """PCG64's (state, inc) in ``default_rng([seed, k])`` for k in [start, stop), all with start's word count."""
    trials = np.arange(start, stop, dtype=object)
    entropy = np.array(
        [
            *([w] * trials.size for w in _uint32_words(seed)),
            *(trials >> 32 * j & _MASK32 for j in range(len(_uint32_words(start)))),
        ],
        np.uint32,
    )
    first, rounds, beyond, generate = _seeding_constants(len(entropy))
    # SeedSequence.mix_entropy: hash the first words into the pool, zeros past
    # the entropy, then each pool word into every other one in turn
    pool = np.zeros((_POOL_SIZE, trials.size), np.uint32)
    pool[: len(entropy)] = entropy[:_POOL_SIZE]
    pool = _hashed(pool, *first)
    for src, consts in enumerate(rounds):
        word = pool[src].copy()
        pool = _mixed(pool, _hashed(word, *consts))
        pool[src] = word
    # and each entropy word beyond the pool into every pool word
    for word, consts in zip(entropy[_POOL_SIZE:], beyond):
        pool = _mixed(pool, _hashed(word, *consts))
    # generate_state(4, uint64): the pool cycled to 8 words, hashed, read as little-endian pairs
    w = _hashed(np.vstack([pool, pool]), *generate).astype(np.uint64)
    state_hi, state_lo, seq_hi, seq_lo = (w[0::2] | w[1::2] << np.uint64(32)).tolist()
    # PCG64's srandom: state 0 and inc = 2 initseq + 1, one step, add initstate, one step
    out = []
    for a, b, c, d in zip(state_hi, state_lo, seq_hi, seq_lo):
        inc = (c << 65 | d << 1 | 1) & _MASK128
        out.append((((a << 64 | b) + inc) * _PCG64_MULT + inc & _MASK128, inc))
    return out


def _trial_rngs(budget: SearchBudget, start: int, stop: int) -> Iterator[np.random.Generator]:
    """The generator of each trial in [start, stop), in order: one Generator, reseeded before each trial.

    Before trial k it holds exactly the state of ``budget.rng_for(k)``, buffered
    half-word cleared, so trial k draws the same stream. The states of a run of
    trials with one word count (it changes at k = 2**32) come from one
    vectorized pass, which costs a fraction of building a generator per trial.
    A yielded generator is valid only until the next one is drawn: a trial
    must take all its draws before its caller advances.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    while start < stop:
        end = min(stop, 1 << 32 * len(_uint32_words(start)))
        for state, inc in _pcg64_states(budget.seed, start, end):
            rng.bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield rng
        start = end


@dataclass(frozen=True)
class ProductInstance:
    """A pair of joint laws on a common product grid, reference flagged."""

    mu_bar: JointDist
    nu_bar: JointDist
    is_product: bool

    def as_json(self) -> dict:
        return {
            "mu_bar": self.mu_bar.as_json(),
            "nu_bar": self.nu_bar.as_json(),
            "is_product": self.is_product,
        }


@dataclass(frozen=True)
class ConditionalInstance:
    """A joint law, a payoff on the grid, and the first-coordinate partition."""

    joint: JointDist
    values: np.ndarray  # shape (n_e, n_f)
    is_product: bool

    def flat(self) -> tuple[FiniteDist, np.ndarray, Partition]:
        dist = self.joint.as_dist()
        part = Partition(
            tuple(
                tuple((x, y) for y in self.joint.col_atoms)
                for x in self.joint.row_atoms
            )
        )
        return dist, self.values.reshape(-1), part

    def as_json(self) -> dict:
        return {
            "joint": self.joint.as_json(),
            "values": [[float(v) for v in row] for row in self.values],
            "partition": "first_coordinate",
            "is_product": self.is_product,
        }


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def _dirichlet(rng: np.random.Generator, shape) -> np.ndarray:
    """Dirichlet(1) weights along the last axis, renormalized: ``rng.dirichlet``'s stream and bits.

    numpy draws them as standard exponentials times one over their
    left-to-right sum; one ``standard_exponential`` call does the same.
    """
    w = rng.standard_exponential(shape)
    w *= 1.0 / w.cumsum(axis=-1)[..., -1:]
    return w / w.sum(axis=-1, keepdims=True)


def _payoffs(rng: np.random.Generator, shape) -> np.ndarray:
    """Payoff values drawn with replacement from VALUE_GRID: ``rng.choice``'s stream and values."""
    return VALUE_GRID[rng.integers(0, VALUE_GRID.size, size=shape)]


def _draw_law(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n distinct values of VALUE_GRID and Dirichlet(1) weights, before FiniteDist renormalizes them."""
    return rng.choice(VALUE_GRID, size=n, replace=False), _dirichlet(rng, n)


def _labels(prefix: str, n: int) -> tuple:
    return tuple(f"{prefix}{i}" for i in range(n))


def _sparsify(rng: np.random.Generator, w: np.ndarray, sparsity: float) -> np.ndarray:
    if sparsity <= 0.0:
        return w
    keep = rng.random(w.shape) >= sparsity
    if not keep.any():
        keep.flat[int(rng.integers(w.size))] = True
    w = np.where(keep, w, 0.0)
    return w / w.sum()


def _draw_joint(rng: np.random.Generator, budget: SearchBudget) -> tuple[np.ndarray, bool]:
    """The reference weights of a random joint instance, and whether they are a product law."""
    n_e = int(rng.integers(2, budget.max_e + 1))
    n_f = int(rng.integers(2, budget.max_f + 1))
    is_product = bool(rng.random() < PRODUCT_FRACTION)
    if is_product:
        w = np.outer(_dirichlet(rng, n_e), _dirichlet(rng, n_f))
    else:
        w = _dirichlet(rng, n_e * n_f).reshape(n_e, n_f)
    return _sparsify(rng, w, budget.sparsity), is_product


class _JointDraw(NamedTuple):
    """A joint instance as drawn, before JointDist renormalizes its weights."""

    w: np.ndarray  # shape (n_e, n_f): the reference weights, mu_bar or the joint law
    paired: np.ndarray  # shape (n_e, n_f): the weights of nu_bar, or the payoff values
    is_product: bool


def _joint_dist(w: np.ndarray) -> JointDist:
    return JointDist(_labels("e", w.shape[0]), _labels("f", w.shape[1]), w)


def _draw_product(rng: np.random.Generator, budget: SearchBudget) -> _JointDraw:
    w, is_product = _draw_joint(rng, budget)
    return _JointDraw(w, _dirichlet(rng, w.size).reshape(w.shape), is_product)


def _draw_conditional(rng: np.random.Generator, budget: SearchBudget) -> _JointDraw:
    w, is_product = _draw_joint(rng, budget)
    return _JointDraw(w, _payoffs(rng, w.shape), is_product)


def _product_instance(draw: _JointDraw) -> ProductInstance:
    return ProductInstance(_joint_dist(draw.w), _joint_dist(draw.paired), draw.is_product)


def _conditional_instance(draw: _JointDraw) -> ConditionalInstance:
    return ConditionalInstance(_joint_dist(draw.w), draw.paired, draw.is_product)


def sample_product_instance(rng: np.random.Generator, budget: SearchBudget) -> ProductInstance:
    return _product_instance(_draw_product(rng, budget))


def sample_conditional_instance(rng: np.random.Generator, budget: SearchBudget) -> ConditionalInstance:
    return _conditional_instance(_draw_conditional(rng, budget))


def _on_boundary(spec: RiskSpec, groups: Sequence[Sequence[tuple]]) -> list[list[FiniteDist]]:
    """Each group's drawn laws (values, weights) shifted onto rho = 0 by one ``rho_batch``: ``rho_of_law``'s bits."""
    laws = [law for group in groups for law in group]
    weights = [_renormalized(w) for _, w in laws]
    rho = rho_batch(spec, _padded(weights), _padded([v for v, _ in laws])).tolist()
    shifted = iter([FiniteDist((v - r).tolist(), w) for (v, _), w, r in zip(laws, weights, rho)])
    return [[next(shifted) for _ in group] for group in groups]


@dataclass(frozen=True)
class ShiftConvexityInstance:
    mu: FiniteDist
    kernel: Kernel

    def pairs(self) -> list[tuple[float, float, FiniteDist]]:
        """(mu(x), x, K_x) for each atom x of mu: the compound lottery of the shifted mixture."""
        atoms = zip(self.mu.atoms, self.mu.weights)
        return [(float(w), float(x), self.kernel.row(i)) for i, (x, w) in enumerate(atoms)]

    def as_json(self) -> dict:
        return {"mu": self.mu.as_json(), "kernel": self.kernel.as_json()}


def _draw_shift_convexity(rng: np.random.Generator, budget: SearchBudget) -> tuple[list, None]:
    """The laws of a shift_convexity instance as drawn: mu's, then one per kernel row."""
    n_e = int(rng.integers(2, budget.max_e + 1))
    n_f = int(rng.integers(2, budget.max_f + 1))
    return [_draw_law(rng, n) for n in (n_e, *[n_f] * n_e)], None


def _shift_convexity_instance(laws: Sequence[FiniteDist], _=None) -> ShiftConvexityInstance:
    """mu and the kernel whose rows are the other laws, all on the boundary."""
    mu, rows = laws[0], laws[1:]
    # rows carry their own shifted supports; the kernel target is the union
    target = sorted({a for r in rows for a in r.atoms})
    idx = {a: i for i, a in enumerate(target)}
    mat = np.zeros((len(rows), len(target)))
    for i, r in enumerate(rows):
        mat[i, [idx[a] for a in r.atoms]] = r.weights
    return ShiftConvexityInstance(mu=mu, kernel=Kernel(mu.atoms, tuple(target), mat))


# ---------------------------------------------------------------------------
# gap operations
# ---------------------------------------------------------------------------


def _product_gaps(
    div: DivergenceSpec, mu: np.ndarray, nu: np.ndarray, n_f: np.ndarray, weak: bool
) -> list[Gap]:
    """Gaps of B product instances packed as (B, E, F) joint weights.

    Instance b has ``n_f[b]`` columns; zeros pad the rest and the missing
    rows. The joint, the marginal and the nu-charged rows are each one
    batched evaluation, combined into the superadditivity gap
    alpha(nu_bar | mu_bar) - alpha(nu | mu) - sum_x nu(x) alpha(K^nu_x | K^mu_x),
    or, when ``weak``, into the weak gap, which drops alpha(nu | mu). A row
    of zero mu-mass is uniform on the instance's columns, as
    ``disintegrate_w`` makes it, and the row term is +inf once any
    nu-charged row is infinite.
    """
    b, e, f = mu.shape
    joint = div.evaluate_batch(nu.reshape(b, e * f), mu.reshape(b, e * f))
    mu_marg, nu_marg = _atom_sum(mu), _atom_sum(nu)
    charged = nu_marg > 0.0
    mu_mass = mu_marg[charged][:, None]
    width = np.broadcast_to(n_f[:, None], (b, e))[charged][:, None]
    uniform = np.where(np.arange(f) < width, 1.0 / width, 0.0)
    mu_rows = np.where(mu_mass > 0.0, mu[charged] / np.where(mu_mass > 0.0, mu_mass, 1.0), uniform)
    alpha = np.zeros((b, e))
    alpha[charged] = div.evaluate_batch(nu[charged] / nu_marg[charged][:, None], mu_rows)
    rows = np.where(np.isinf(alpha).any(axis=-1), math.inf, _atom_sum(nu_marg * alpha))
    if weak:
        rhs = rows
    else:
        marg = div.evaluate_batch(nu_marg, mu_marg)
        rhs = np.where(np.isinf(marg) | np.isinf(rows), math.inf, marg + rows)
    return [Gap.of(j, r) for j, r in zip(joint.tolist(), rhs.tolist())]


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
    mass = _atom_sum(w)
    charged = mass > 0.0
    rows = w[charged] / mass[charged][:, None]
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


def _mixture_risks(spec: RiskSpec, mixtures: Sequence[Sequence[tuple]], marginal=True) -> np.ndarray:
    """rho of each mixture sum_i w_i m_i(. - x_i) of pairs (w_i, x_i, m_i), once its inputs are found acceptable.

    The mixtures, their component laws and, when ``marginal``, their
    x-marginals sum_i w_i delta_(x_i) are one ``rho_batch``. The weights w_i
    are renormalized to sum to 1. A marginal or a component above
    _ACCEPTABLE_TOL violates the precondition and raises.
    """
    q, x = (_padded([np.array([pair[i] for pair in pairs]) for pairs in mixtures]) for i in (0, 1))
    q = q / _atom_sum(q)[:, None]
    w = _padded([_padded([law.weights for _, _, law in pairs]) for pairs in mixtures])
    v = _padded([_padded([law.values_array() for _, _, law in pairs]) for pairs in mixtures])
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


def _integral_lemma(spec: RiskSpec, mu_bar: np.ndarray, nu_bar: np.ndarray) -> tuple[Gap, bool]:
    """|sum_x nu(x) alpha(K^nu_x | K^mu_x) - rowwise dual suprema| of two joint weight matrices.

    The dual objective separates across rows, so the supremum over joint test
    functions is the nu-weighted sum of per-row dual solves; the closed form
    of the same sum is the oracle. Also says whether a per-row dual solve ran
    out of its budget. The closed forms of the rows nu charges are one batch;
    a row of infinite alpha makes the gap vacuous, and then no row is solved.
    """
    _, mu_rows = disintegrate_w(mu_bar)
    nu_marg, nu_rows = disintegrate_w(nu_bar)
    charged = nu_marg > 0.0
    weights, nu_rows, mu_rows = nu_marg[charged], nu_rows[charged], mu_rows[charged]
    closed = divergence_for_risk_spec(spec).evaluate_batch(nu_rows, mu_rows)
    if np.isinf(closed).any():
        return Gap(value=None, vacuous=True), False
    solves = [_dual_divergence_w(spec, n, m) for n, m in zip(nu_rows, mu_rows)]
    dual = np.array([res.value for res in solves])
    gap = abs(float(_atom_sum(weights * closed)) - float(_atom_sum(weights * dual)))
    return Gap(value=gap), any(res.budget_exhausted for res in solves)


def _key_identity_gap(spec: RiskSpec, mu_bar: np.ndarray, f: np.ndarray) -> float:
    """|rho_mu(x -> rho_rows(f(x, .))) - grid-dual reconstruction| of a joint weight matrix and a payoff.

    The left side composes the risk through the disintegration of mu_bar;
    the right side maximizes E_nu[g] - alpha(nu | mu) over an enumerated
    simplex grid, with the per-row inner suprema evaluated in closed form.
    The rows' risks are one ``rho_batch``.
    """
    mu_marg, mu_rows = disintegrate_w(mu_bar)
    charged = mu_marg > 0.0
    g = np.zeros(len(mu_marg))
    g[charged] = rho_batch(spec, mu_rows[charged], f[charged])
    lhs = rho_values(spec, mu_marg, g)
    rhs = primal_reconstruction(divergence_for_risk_spec(spec), FiniteDist(range(mu_marg.size), mu_marg), g)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# check kinds
# ---------------------------------------------------------------------------
#
# A kind's trial function maps (risk, div, budget, start, stop) to an
# iterable of one TrialResult per trial in [start, stop), read once; trial k
# draws all its randomness from the stream of budget.rng_for(k). It draws
# through the block's one generator, which _trial_rngs reseeds by state
# before each trial: a trial function takes all of a trial's draws before the
# next trial's, and the generator carries no SeedSequence of the trial's own.
# 19 kinds draw their trials one by one and solve them in a few batched
# evaluations of one block function, which a kind's replay calls on a block
# of one: the conditional, product and data-processing kinds and
# joint_convexity keep their draws as arrays, and a conditional block takes
# 2 rho_batch calls (rows with full laws, then outer laws; the weak kind
# rows, then recentered full laws, 1 call each step); the probe kinds
# (shift_convexity, property_s, mixture_convexity), dist_concavity and
# lebesgue draw laws and take at most two rho_batch calls. The other 3
# kinds (duality, lemma_identity, key_identity) run a solver per trial and
# are written for one trial, as
# (rng, risk, div, budget) -> (gap, vacuous, is_product, instance[, exhausted]),
# and wrapped by per_trial, which runs each trial as it is read, so a batch
# never holds their instances.


class TrialResult(NamedTuple):
    gap: float | None
    vacuous: bool
    is_product: bool | None  # None for kinds without a product/general split
    instance: object  # None when there is nothing to report
    exhausted: bool = False  # a solver ran out of its iteration budget


def per_trial(trial: Callable) -> Callable:
    """A kind's trial function from a one-trial function of (rng, risk, div, budget)."""

    def trials(risk, div, budget, start, stop):
        return (TrialResult(*trial(rng, risk, div, budget)) for rng in _trial_rngs(budget, start, stop))

    return trials


def _draw_pair(rng, budget: SearchBudget) -> tuple[np.ndarray, np.ndarray]:
    """The weights (mu, nu) of a random pair of laws on one atom set."""
    n = int(rng.integers(2, budget.max_e + 1))
    mu_w = _sparsify(rng, _dirichlet(rng, n), budget.sparsity)
    return mu_w, _dirichlet(rng, n)


def _random_surjection(rng, n_from: int, n_to: int) -> list[int]:
    img = list(rng.permutation(n_from)[:n_to])
    out = [0] * n_from
    for k, i in enumerate(img):
        out[i] = k
    for i in sorted(set(range(n_from)) - set(img)):
        out[i] = int(rng.integers(n_to))
    return out


def _small_budget(budget: SearchBudget) -> SearchBudget:
    """The budget with spaces capped at 4 x 4, the limit of the grid oracle."""
    return replace(budget, max_e=min(4, budget.max_e), max_f=min(4, budget.max_f))


def _negated(trials):
    """The trial function with its gaps negated, for the one-sided reverse inequality."""

    def negated(risk, div, budget, start, stop):
        return (
            r if r.gap is None else r._replace(gap=-r.gap)
            for r in trials(risk, div, budget, start, stop)
        )

    return negated


class _ChainDraw(NamedTuple):
    """A pair of laws and the matrices that push them, as drawn: before FiniteDist and Kernel renormalize."""

    nu: np.ndarray
    mu: np.ndarray
    chain: tuple  # row-stochastic matrices, finest first: a kernel's rows or a map's 0/1 matrix
    maps: tuple  # the maps as the instance reports them; empty for a kernel


def _map_matrix(mapping: dict) -> np.ndarray:
    """A map's 0/1 matrix, its images in the order they first appear."""
    order = list(dict.fromkeys(mapping.values()))
    return np.eye(len(order))[[order.index(y) for y in mapping.values()]]


def _draw_dpi(rng, budget: SearchBudget, bijection: bool) -> _ChainDraw:
    mu_w, nu_w = _draw_pair(rng, budget)
    if bijection:
        kernel = np.eye(mu_w.size)[rng.permutation(mu_w.size)]
    else:
        n_f = int(rng.integers(2, budget.max_f + 1))
        kernel = _dirichlet(rng, (mu_w.size, n_f))
    return _ChainDraw(nu_w, mu_w, (kernel,), ())


def _draw_sufficiency(rng, budget: SearchBudget, matched: bool) -> _ChainDraw:
    n = int(rng.integers(2, max(3, budget.max_e) + 1))
    mu_w = _dirichlet(rng, n)
    n_fibers = 1 if n == 2 else int(rng.integers(1, n))
    images = _random_surjection(rng, n, n_fibers)
    if matched:
        nu_w = mu_w * rng.uniform(0.25, 2.5, size=n_fibers)[images]
        nu_w = nu_w / nu_w.sum()
    else:
        nu_w = _dirichlet(rng, n)
    mapping = {f"a{i}": f"g{k}" for i, k in enumerate(images)}
    return _ChainDraw(nu_w, mu_w, (_map_matrix(mapping),), (mapping,))


def _draw_refinement(rng, budget: SearchBudget) -> _ChainDraw:
    n0 = int(rng.integers(3, max(4, budget.max_e) + 1))
    mu_w, nu_w = _dirichlet(rng, (2, n0))
    n1 = int(rng.integers(2, n0))
    n2 = int(rng.integers(1, n1 + 1))
    m1 = {f"a{i}": f"b{k}" for i, k in enumerate(_random_surjection(rng, n0, n1))}
    m2 = {f"b{i}": f"c{k}" for i, k in enumerate(_random_surjection(rng, n1, n2))}
    # m2 acts on the image of m1, whose atoms come in the order they first appear
    on_image = {b: m2[b] for b in dict.fromkeys(m1.values())}
    return _ChainDraw(nu_w, mu_w, (_map_matrix(m1), _map_matrix(on_image)), (m1, m2))


def _pair_score(values: list, draw: _ChainDraw) -> TrialResult:
    """alpha before minus alpha after the one push of a data-processing trial."""
    g = Gap.of(*values)
    return TrialResult(g.value, g.vacuous, None, (draw, values))


def _refinement_score(values: list, draw: _ChainDraw) -> TrialResult:
    """The least step down the values, over the steps between finite values; NaN if any value is."""
    if any(math.isnan(v) for v in values):
        return TrialResult(math.nan, False, None, (draw, values))
    steps = [a - b for a, b in zip(values, values[1:]) if math.isfinite(a) and math.isfinite(b)]
    if not steps:
        return TrialResult(None, True, None, None)
    return TrialResult(min(steps), False, None, (draw, values))


def _chain_trials(risk, div, budget, start, stop, draw: Callable, score: Callable = _pair_score):
    """Pairs of laws drawn one by one as arrays, pushed along their chains in one ``_chain_values``.

    The laws and the matrices' rows are renormalized as FiniteDist and Kernel
    renormalize them, so the serialized instance holds the bits a trial
    evaluates.
    """
    draws = [draw(rng, budget) for rng in _trial_rngs(budget, start, stop)]
    values = _chain_values(
        div,
        _padded([_renormalized(d.nu) for d in draws]),
        _padded([_renormalized(d.mu) for d in draws]),
        [_padded([m / m.sum(axis=1, keepdims=True) for m in step]) for step in zip(*(d.chain for d in draws))],
    )
    return [score(v, d) for v, d in zip(values.tolist(), draws)]


def _draw_convexity(rng, budget: SearchBudget) -> tuple:
    """A joint_convexity instance as drawn: (t, nu1, mu1, nu2, mu2)."""
    n = int(rng.integers(2, budget.max_e + 1))
    mu1, nu1, mu2, nu2 = _dirichlet(rng, (4, n))
    return float(rng.uniform(0.05, 0.95)), nu1, mu1, nu2, mu2


def _convexity_sides(div, t: np.ndarray, nu1, mu1, nu2, mu2) -> tuple[list, list]:
    """Both sides of convexity, t alpha(nu1 | mu1) + (1 - t) alpha(nu2 | mu2) and alpha(the mixtures), of B pairs."""
    lhs = t * div.evaluate_batch(nu1, mu1) + (1 - t) * div.evaluate_batch(nu2, mu2)
    mix_nu, mix_mu = (t[:, None] * a + (1 - t[:, None]) * b for a, b in ((nu1, nu2), (mu1, mu2)))
    rhs = div.evaluate_batch(mix_nu / _atom_sum(mix_nu)[:, None], mix_mu / _atom_sum(mix_mu)[:, None])
    return lhs.tolist(), rhs.tolist()


def _joint_convexity_trials(risk, div, budget, start, stop):
    """The two sides of ``_convexity_sides`` minus each other, one trial per drawn instance.

    Laws are renormalized as FiniteDist renormalizes them. Infinite on both
    sides is vacuous, and a trial with an infinite side keeps no instance.
    """
    draws = [_draw_convexity(rng, budget) for rng in _trial_rngs(budget, start, stop)]
    t, *laws = zip(*draws)
    lhs, rhs = _convexity_sides(div, np.array(t), *(_padded([_renormalized(w) for w in ws]) for ws in laws))
    return [
        TrialResult(None, True, None, None)
        if math.isinf(left) and math.isinf(right)
        else TrialResult(left - right, False, None, None if math.isinf(left) else d)
        for left, right, d in zip(lhs, rhs, draws)
    ]


def _duality_trial(rng, risk, div, budget):
    mu, nu = (FiniteDist(_labels("a", w.size), w) for w in _draw_pair(rng, budget))
    res = dual_divergence(risk, nu, mu)
    if res.certified_gap is None:
        return None, True, None, None
    inst = {
        "nu": nu,
        "mu": mu,
        "dual_value": res.value,
        "closed_form": res.closed_form,
        "iterations": res.iterations,
        "budget_exhausted": res.budget_exhausted,
    }
    return res.certified_gap, False, None, inst, res.budget_exhausted


def _padded(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Arrays of one rank as one zero-padded array, stacked along a new first axis."""
    out = np.zeros((len(arrays), *map(max, zip(*(a.shape for a in arrays)))))
    for b, a in enumerate(arrays):
        out[(b, *map(slice, a.shape))] = a
    return out


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


def _conditional_trials(risk, div, budget, start, stop, weak: bool):
    """Conditional instances drawn one by one as arrays, their gaps in one ``_conditional_gaps``.

    The weights are renormalized twice, as JointDist and then ``flat()``'s
    FiniteDist renormalize them, so an acceptance trial gives the bits of
    ``consistency_gap`` on its ``sample_conditional_instance(...).flat()``.
    """
    draws = [_draw_conditional(rng, budget) for rng in _trial_rngs(budget, start, stop)]
    w = _padded([_renormalized(_renormalized(d.w)) for d in draws])
    gaps = _conditional_gaps(risk, w, _padded([d.paired for d in draws]), weak=weak)
    return [TrialResult(float(g), False, d.is_product, d) for g, d in zip(gaps, draws)]


def _product_trials(risk, div, budget, start, stop, weak: bool):
    """Product instances drawn one by one as arrays, their gaps in one ``_product_gaps``.

    The weights are renormalized as JointDist renormalizes them, so the
    serialized instance holds the bits a trial evaluates.
    """
    draws = [_draw_product(rng, budget) for rng in _trial_rngs(budget, start, stop)]
    gaps = _product_gaps(
        div,
        _padded([_renormalized(d.w) for d in draws]),
        _padded([_renormalized(d.paired) for d in draws]),
        np.array([d.w.shape[1] for d in draws]),
        weak,
    )
    return [TrialResult(g.value, g.vacuous, d.is_product, d) for g, d in zip(gaps, draws)]


def _probe_trials(
    risk, div, budget, start, stop, draw: Callable, instance: Callable, pairs: Callable = list, marginal=True
):
    """Trials of an acceptance-set probe kind in two ``rho_batch`` calls.

    ``draw`` gives a trial's laws and its other draws. The first call shifts
    every law onto the boundary; ``instance`` builds each trial's instance
    and ``pairs`` its compound lottery, for the second, ``_mixture_risks``.
    """
    draws = [draw(rng, budget) for rng in _trial_rngs(budget, start, stop)]
    boundary = _on_boundary(risk, [laws for laws, _ in draws])
    insts = [instance(laws, drawn) for laws, (_, drawn) in zip(boundary, draws)]
    rho = _mixture_risks(risk, [pairs(inst) for inst in insts], marginal=marginal)
    return [TrialResult(-r, False, None, inst) for r, inst in zip(rho.tolist(), insts)]


def _draw_property_s(rng, budget: SearchBudget) -> tuple[list, np.ndarray]:
    """The x-marginal and the k component laws of a compound lottery as drawn, and the marginal's weights."""
    k = int(rng.integers(2, 5))
    marginal = _draw_law(rng, k)
    return [marginal, *(_draw_law(rng, int(rng.integers(2, budget.max_f + 1))) for _ in range(k))], marginal[1]


def _property_s_instance(laws: Sequence[FiniteDist], weights: np.ndarray) -> list:
    """The pairs (w, x, law): the marginal's atoms on the boundary, as shifts."""
    return [(float(w), x, law) for w, x, law in zip(weights, laws[0].atoms, laws[1:])]


def _draw_mixture(rng, budget: SearchBudget) -> tuple[list, np.ndarray]:
    k = int(rng.integers(2, 5))
    weights = _dirichlet(rng, k)
    return [_draw_law(rng, int(rng.integers(2, budget.max_f + 1))) for _ in range(k)], weights


def _mixture_instance(laws: Sequence[FiniteDist], weights: np.ndarray) -> list:
    """The pairs (w, 0, law): a mixture is a compound lottery with no shifts."""
    return [(float(w), 0.0, law) for w, law in zip(weights, laws)]


def _draw_concavity(rng, budget: SearchBudget) -> dict:
    n1 = int(rng.integers(2, budget.max_e + 1))
    n2 = int(rng.integers(2, budget.max_e + 1))
    m1, m2 = (FiniteDist(v.tolist(), w) for v, w in (_draw_law(rng, n1), _draw_law(rng, n2)))
    return {"t": float(rng.uniform(0.05, 0.95)), "m1": m1, "m2": m2}


def _concavity_gaps(risk, t: np.ndarray, laws1: Sequence, laws2: Sequence) -> list[float]:
    """rho(t m1 + (1 - t) m2) - t rho(m1) - (1 - t) rho(m2) of B pairs, the laws and mixtures in one ``rho_batch``."""
    w1, w2 = (_padded([law.weights for law in ms]) for ms in (laws1, laws2))
    v1, v2 = (_padded([law.values_array() for law in ms]) for ms in (laws1, laws2))
    mixed_w = np.hstack([t[:, None] * w1, (1 - t[:, None]) * w2])
    rho = rho_batch(risk, _stacked([w1, w2, mixed_w]), _stacked([v1, v2, np.hstack([v1, v2])]))
    rho1, rho2, mixed = rho.reshape(3, -1)
    return (mixed - t * rho1 - (1 - t) * rho2).tolist()


def _dist_concavity_trials(risk, div, budget, start, stop):
    insts = [_draw_concavity(rng, budget) for rng in _trial_rngs(budget, start, stop)]
    t = np.array([inst["t"] for inst in insts])
    gaps = _concavity_gaps(risk, t, *([inst[m] for inst in insts] for m in ("m1", "m2")))
    return [TrialResult(g, False, None, inst) for g, inst in zip(gaps, insts)]


def _lemma_identity_trial(rng, risk, div, budget):
    inst = sample_product_instance(rng, _small_budget(budget))
    g, exhausted = _integral_lemma(risk, inst.mu_bar.matrix, inst.nu_bar.matrix)
    return g.value, g.vacuous, inst.is_product, inst, exhausted


def _key_identity_trial(rng, risk, div, budget):
    inst = sample_conditional_instance(rng, _small_budget(budget))
    return _key_identity_gap(risk, inst.joint.matrix, inst.values), False, inst.is_product, inst


def _draw_lebesgue(rng, budget: SearchBudget) -> tuple:
    n = int(rng.integers(2, budget.max_e + 1))
    mu = FiniteDist(_labels("a", n), _dirichlet(rng, n))
    return mu, _payoffs(rng, n), rng.uniform(0.0, 1.0, size=n)


def _lebesgue_gaps(risk, insts: Sequence[tuple]) -> list[float]:
    """rho_mu(f + 4^-k h) for k < 15 falls to rho_mu(f), per (mu's weights, f, h): all risks in one ``rho_batch``."""
    scales = 4.0 ** -np.arange(15.0)
    v = _padded([np.vstack([f, f + scales[:, None] * h]) for _, f, h in insts])
    w = _padded([np.broadcast_to(mu_w, (16, mu_w.size)) for mu_w, _, _ in insts])
    rho = rho_batch(risk, w.reshape(-1, w.shape[-1]), v.reshape(-1, v.shape[-1])).reshape(-1, 16)
    limit, vals = rho[:, 0], rho[:, 1:]
    # ties keep the first argument, as max() does: a zero step or gap stays +0.0
    return np.maximum(np.maximum(0.0, np.diff(vals).max(axis=1)), np.abs(vals[:, -1] - limit)).tolist()


def _lebesgue_trials(risk, div, budget, start, stop):
    insts = [_draw_lebesgue(rng, budget) for rng in _trial_rngs(budget, start, stop)]
    gaps = _lebesgue_gaps(risk, [(mu.weights, f, h) for mu, f, h in insts])
    return [TrialResult(g, False, None, inst) for g, inst in zip(gaps, insts)]


def _as_json(inst) -> dict:
    return inst.as_json()


def _product_json(draw: _JointDraw) -> dict:
    return _product_instance(draw).as_json()


def _conditional_json(draw: _JointDraw) -> dict:
    return _conditional_instance(draw).as_json()


def _parts_json(parts: dict) -> dict:
    """An instance given as named parts: laws and kernels by their as_json."""
    return {k: v.as_json() if hasattr(v, "as_json") else v for k, v in parts.items()}


def _chain_json(inst: tuple) -> dict:
    """A data-processing instance: its laws and its kernel, its map, or its maps and the values along them."""
    draw, values = inst
    labels = _labels("a", draw.mu.size)
    laws = {"nu": FiniteDist(labels, draw.nu).as_json(), "mu": FiniteDist(labels, draw.mu).as_json()}
    if not draw.maps:
        (rows,) = draw.chain
        return {**laws, "kernel": Kernel(labels, _labels("b", rows.shape[1]), rows).as_json()}
    if len(draw.maps) == 1:
        return {**laws, "map": draw.maps[0]}
    return {**laws, "maps": list(draw.maps), "values": values}


def _convexity_json(draw: tuple) -> dict:
    t, *laws = draw
    labels = _labels("a", laws[0].size)
    return {"t": t, **{k: FiniteDist(labels, w).as_json() for k, w in zip(("nu1", "mu1", "nu2", "mu2"), laws)}}


def _property_s_json(pairs) -> dict:
    return {"pairs": [{"weight": w, "x": x, "law": law.as_json()} for w, x, law in pairs]}


def _mixture_json(components) -> dict:
    return {"components": [{"weight": w, "law": law.as_json()} for w, _, law in components]}


def _lebesgue_json(inst) -> dict:
    mu, f, h = inst
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


class _Law(NamedTuple):
    """A law on the real line with its weights as serialized: what the block code reads of a FiniteDist."""

    weights: np.ndarray
    values: np.ndarray

    def values_array(self) -> np.ndarray:
        return self.values


def _law(doc) -> _Law:
    law, w = _stored(FiniteDist, doc)
    return _Law(w, law.values_array())


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


def _product_replay(risk, div, doc, weak: bool, negate: bool = False):
    mu, nu = _joint_pair(doc)
    gap = _product_gaps(div, mu[None], nu[None], np.array([mu.shape[1]]), weak)[0].value
    return -gap if negate and gap is not None else gap


def _lemma_replay(risk, div, doc):
    return _integral_lemma(risk, *_joint_pair(doc))[0].value


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


def _conditional_replay(risk, div, doc, weak: bool, negate: bool = False):
    w, v = _joint_payoff(doc)
    # the trial's weights are renormalized once more, as flat()'s FiniteDist does
    gap = float(_conditional_gaps(risk, _renormalized(w)[None], v[None], weak)[0])
    return -gap if negate else gap


def _key_identity_replay(risk, div, doc):
    return _key_identity_gap(risk, *_joint_payoff(doc))


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
        out.append(_map_matrix(on_atoms))
    return out


def _chain_replay(risk, div, doc, link: str, score: Callable = _pair_score):
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
    return score(_chain_values(div, nu[None], mu[None], [m[None] for m in chain])[0].tolist(), None).gap


def _convexity_replay(risk, div, doc):
    what = "joint_convexity instance"
    _, laws = _on_one_space(doc, what, FiniteDist, "nu1", "mu1", "nu2", "mu2")
    t = typed_field(doc, "t", None, float, what)
    (left,), (right,) = _convexity_sides(div, np.array([t]), *(w[None] for w in laws))
    return Gap.of(left, right).value


def _shift_convexity_replay(risk, div, doc):
    mu_doc, kernel_doc = json_object(doc, "shift_convexity instance", "mu", "kernel")
    (mu, mu_w), (kernel, rows) = _stored(FiniteDist, mu_doc), _stored(Kernel, kernel_doc, "rows")
    if kernel.source != mu.atoms:
        raise ConfigParseError(f"the kernel's source must be mu's atoms {list(mu.atoms)!r}")
    # the trial's components are the kernel's rows as FiniteDist renormalizes them
    pairs = [(float(w), float(x), FiniteDist(kernel.target, row)) for w, x, row in zip(mu_w, mu.values_array(), rows)]
    return -float(_mixture_risks(risk, [pairs])[0])


def _lottery_replay(risk, div, doc, what: str, key: str, shifted: bool):
    """Minus the risk of a compound lottery's shifted mixture, or of a mixture, whose shifts are 0."""
    (entries,) = json_object(doc, what, key)
    if not isinstance(entries, list) or not entries:
        raise ConfigParseError(f"{what} {key!r} must be a nonempty list, got {entries!r}")
    fields = ("weight", "x", "law") if shifted else ("weight", "law")
    parts = [json_object(entry, f"an entry of {what} {key!r}", *fields) for entry in entries]
    weights = number_list([p[0] for p in parts], f"the weights of {what} {key!r}")
    shifts = number_list([p[1] for p in parts], f"the shifts of {what} {key!r}") if shifted else [0.0] * len(parts)
    FiniteDist(range(len(weights)), weights)  # raises unless the weights are a probability vector
    pairs = [(float(w), float(x), _law(p[-1])) for w, x, p in zip(weights, shifts, parts)]
    return -float(_mixture_risks(risk, [pairs], marginal=shifted)[0])


def _concavity_replay(risk, div, doc):
    what = "dist_concavity instance"
    m1, m2 = json_object(doc, what, "m1", "m2")
    return _concavity_gaps(risk, np.array([typed_field(doc, "t", None, float, what)]), [_law(m1)], [_law(m2)])[0]


def _lebesgue_replay(risk, div, doc):
    what = "lebesgue instance"
    mu_doc, f, h = json_object(doc, what, "mu", "f", "h")
    _, mu_w = _stored(FiniteDist, mu_doc)
    f, h = (np.array(number_list(x, f"{what} {key!r}"), dtype=float) for key, x in (("f", f), ("h", h)))
    if f.shape != mu_w.shape or h.shape != mu_w.shape:
        raise ConfigParseError(f"{what} 'f' and 'h' must hold one value per atom of mu")
    return _lebesgue_gaps(risk, [(mu_w, f, h)])[0]


def _duality_replay(risk, div, doc):
    _, (nu, mu) = _on_one_space(doc, "duality instance", FiniteDist, "nu", "mu")
    return _certified_dual_w(risk, nu, mu).certified_gap


@dataclass(frozen=True)
class CheckKind:
    """One structural fact, checked by seeded sampling.

    ``side`` "lower": gaps should stay >= -noise; "abs": |gap| should stay
    <= noise. ``needs`` says which of (risk spec, divergence spec) the trial
    uses. ``trial`` is described above; ``serialize`` turns its instance into
    JSON and runs only when a trial is described, never in ``run_trials``.
    ``replay(risk, div, instance_doc)`` is its inverse: it reads a serialized
    instance back and evaluates it through the kind's block code as a block
    of one, so it gives the bits of the trial's gap, None when vacuous; a
    malformed document raises ConfigParseError. ``grid_sizes`` names the
    sizes, "E" or "F", that count atoms of distinct values drawn from
    VALUE_GRID, so they may not exceed its 41 points.
    """

    side: str
    needs: str
    trial: Callable
    serialize: Callable
    replay: Callable
    grid_sizes: str = ""

    def badness(self, gap: float) -> float:
        """How strongly a gap leans toward violation; larger is worse."""
        return abs(gap) if self.side == "abs" else -gap

    def check_budget(self, budget: SearchBudget, what: str) -> None:
        """ConfigParseError if a size of the budget exceeds what this kind's sampler can draw."""
        for axis, size in zip("EF", (budget.max_e, budget.max_f)):
            if axis in self.grid_sizes and size > VALUE_GRID.size:
                limit = f"size {axis} must be at most {VALUE_GRID.size}, got {size}"
                raise ConfigParseError(f"{what} draws distinct payoff values from VALUE_GRID: {limit}")


def _product_kind(side: str, weak: bool = False, negate: bool = False) -> CheckKind:
    trials = partial(_product_trials, weak=weak)
    replay = partial(_product_replay, weak=weak, negate=negate)
    return CheckKind(side, "div", _negated(trials) if negate else trials, _product_json, replay)


def _conditional_kind(side: str, weak: bool = False, negate: bool = False) -> CheckKind:
    trials = partial(_conditional_trials, weak=weak)
    replay = partial(_conditional_replay, weak=weak, negate=negate)
    return CheckKind(side, "risk", _negated(trials) if negate else trials, _conditional_json, replay)


def _chain_kind(side: str, draw: Callable, link: str, score: Callable = _pair_score) -> CheckKind:
    trials = partial(_chain_trials, draw=draw, score=score)
    return CheckKind(side, "div", trials, _chain_json, partial(_chain_replay, link=link, score=score))


_SHIFT_CONVEXITY = partial(
    _probe_trials, draw=_draw_shift_convexity, instance=_shift_convexity_instance, pairs=ShiftConvexityInstance.pairs
)
_PROPERTY_S = partial(_probe_trials, draw=_draw_property_s, instance=_property_s_instance)
_MIXTURE_CONVEXITY = partial(_probe_trials, draw=_draw_mixture, instance=_mixture_instance, marginal=False)
_PROPERTY_S_REPLAY = partial(_lottery_replay, what="property_s instance", key="pairs", shifted=True)
_MIXTURE_REPLAY = partial(_lottery_replay, what="mixture_convexity instance", key="components", shifted=False)

CHECK_KINDS: dict[str, CheckKind] = {
    "chain_rule": _product_kind("abs"),
    "superadditivity": _product_kind("lower"),
    "subadditivity": _product_kind("lower", negate=True),
    "weak_consistency": _product_kind("lower", weak=True),
    "dpi": _chain_kind("lower", partial(_draw_dpi, bijection=False), "kernel"),
    "dpi_bijection": _chain_kind("abs", partial(_draw_dpi, bijection=True), "kernel"),
    "duality": CheckKind("abs", "risk", per_trial(_duality_trial), _parts_json, _duality_replay),
    "time_consistency": _conditional_kind("abs"),
    "acceptance": _conditional_kind("lower"),
    "rejection": _conditional_kind("lower", negate=True),
    "weak_acceptance": _conditional_kind("lower", weak=True),
    "shift_convexity": CheckKind("lower", "risk", _SHIFT_CONVEXITY, _as_json, _shift_convexity_replay, "EF"),
    "property_s": CheckKind("lower", "risk", _PROPERTY_S, _property_s_json, _PROPERTY_S_REPLAY, "F"),
    "mixture_convexity": CheckKind("lower", "risk", _MIXTURE_CONVEXITY, _mixture_json, _MIXTURE_REPLAY, "F"),
    "joint_convexity": CheckKind("lower", "div", _joint_convexity_trials, _convexity_json, _convexity_replay),
    "dist_concavity": CheckKind("lower", "risk", _dist_concavity_trials, _parts_json, _concavity_replay, "E"),
    "sufficiency_matched": _chain_kind("abs", partial(_draw_sufficiency, matched=True), "map"),
    "sufficiency_generic": _chain_kind("lower", partial(_draw_sufficiency, matched=False), "map"),
    "refinement": _chain_kind("lower", _draw_refinement, "maps", _refinement_score),
    "lemma_identity": CheckKind("abs", "risk", per_trial(_lemma_identity_trial), _as_json, _lemma_replay),
    "key_identity": CheckKind("abs", "risk", per_trial(_key_identity_trial), _as_json, _key_identity_replay),
    "lebesgue": CheckKind("abs", "risk", _lebesgue_trials, _lebesgue_json, _lebesgue_replay),
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


# trials per call of a kind's trial function in run_trials
TRIAL_BATCH = 100


@dataclass
class TrialStats:
    """Order-independent summary of a block of trials."""

    count: int = 0
    vacuous: int = 0
    nan: int = 0  # trials whose gap is NaN; never ranked, and they fail the check
    exhausted: int = 0  # non-vacuous trials whose solver ran out of its budget; they fail the check
    worst_badness: float = -math.inf
    worst_trial: int | None = None
    worst_gap: float | None = None
    class_worst: dict | None = None  # label -> (badness, trial, gap)

    def merge(self, other: "TrialStats") -> "TrialStats":
        out = TrialStats(
            count=self.count + other.count,
            vacuous=self.vacuous + other.vacuous,
            nan=self.nan + other.nan,
            exhausted=self.exhausted + other.exhausted,
        )
        for side in (self, other):
            if side.worst_trial is None:
                continue
            if out.worst_trial is None or side.worst_badness > out.worst_badness or (
                side.worst_badness == out.worst_badness and side.worst_trial < out.worst_trial
            ):
                out.worst_badness = side.worst_badness
                out.worst_trial = side.worst_trial
                out.worst_gap = side.worst_gap
        merged: dict = {}
        for side in (self, other):
            for label, tup in (side.class_worst or {}).items():
                cur = merged.get(label)
                if cur is None or tup[0] > cur[0] or (tup[0] == cur[0] and tup[1] < cur[1]):
                    merged[label] = tup
        out.class_worst = merged or None
        return out


def run_trials(
    kind: str,
    risk: RiskSpec | None,
    div: DivergenceSpec | None,
    budget: SearchBudget,
    start: int,
    stop: int,
) -> TrialStats:
    """Evaluate trials [start, stop); summaries merge deterministically.

    The kind's trial function runs on consecutive batches of at most
    TRIAL_BATCH trials, so memory stays bounded on any range. A trial's gap
    is the same bits in any batch and when ``describe_trial`` replays it
    alone: batched kinds sum over atoms in a fixed order that zero padding
    does not change (see ``risk.rho_batch``).
    """
    entry = check_kind(kind)
    stats = TrialStats(class_worst={})
    for first in range(start, stop, TRIAL_BATCH):
        results = entry.trial(risk, div, budget, first, min(first + TRIAL_BATCH, stop))
        for trial, (gap, vacuous, is_product, _, exhausted) in enumerate(results, first):
            stats.count += 1
            if vacuous or gap is None:
                # a vacuous trial carries no information, nor does its solver's budget
                stats.vacuous += 1
                continue
            stats.exhausted += exhausted
            if math.isnan(gap):
                # every comparison with NaN is false: ranked, it would mask later gaps
                stats.nan += 1
                continue
            bad = entry.badness(gap)
            if stats.worst_trial is None or bad > stats.worst_badness:
                stats.worst_badness = bad
                stats.worst_trial = trial
                stats.worst_gap = gap
            if is_product is not None:
                label = "product" if is_product else "general"
                cur = stats.class_worst.get(label)
                if cur is None or bad > cur[0]:
                    stats.class_worst[label] = (bad, trial, gap)
    if not stats.class_worst:
        stats.class_worst = None
    return stats


def _trial_stats(
    kind: str,
    risk: RiskSpec | None,
    div: DivergenceSpec | None,
    budget: SearchBudget,
    pool=None,
) -> TrialStats:
    """run_trials over every trial of the budget, as its TRIAL_BATCH ranges merged in order.

    With a pool the ranges run on its workers, else in this process. Each
    range is a batch that run_trials would run anyway and merging is exact,
    so the result is the same with and without a pool.
    """
    starts = range(0, budget.trials, TRIAL_BATCH)
    stops = [min(first + TRIAL_BATCH, budget.trials) for first in starts]
    parts = (map if pool is None else pool.map)(partial(run_trials, kind, risk, div, budget), starts, stops)
    return reduce(TrialStats.merge, parts, TrialStats())


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform can say which cores it may use
        return os.cpu_count() or 1


@contextmanager
def _trial_pool(budgets: Iterable[SearchBudget]):
    """A process pool with one worker per usable core for a run of these budgets, or None.

    The pool opens only where it can help and forking is safe: at least two
    usable cores, some budget of more than one TRIAL_BATCH, no other thread
    in this process (a forked child gets a copy of every lock, held ones
    too), the "fork" start method, and a process that is not a daemon (a
    daemon may have no children). Its workers are forked, so they see the
    kinds and specs of this process as they are. It shuts down when the
    block ends, cancelling the ranges still queued if the block raises, so
    no worker outlives the run.
    """
    cores = _usable_cores()
    context = None
    if cores >= 2 and threading.active_count() == 1 and any(b.trials > TRIAL_BATCH for b in budgets):
        import multiprocessing  # imported here, so that a run without a pool never pays for it

        if "fork" in multiprocessing.get_all_start_methods() and not multiprocessing.current_process().daemon:
            context = multiprocessing.get_context("fork")
    if context is None:
        yield None
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(cores, mp_context=context) as pool:
        try:
            yield pool
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def describe_trial(
    kind: str,
    risk: RiskSpec | None,
    div: DivergenceSpec | None,
    budget: SearchBudget,
    trial: int,
) -> dict:
    """Replay one trial and serialize its instance together with its gap."""
    entry = check_kind(kind)
    ((gap, vacuous, is_product, inst, _),) = entry.trial(risk, div, budget, trial, trial + 1)
    doc = {"kind": kind, "trial": trial, "seed": budget.seed, "gap": gap, "vacuous": vacuous}
    if is_product is not None:
        doc["class"] = "product" if is_product else "general"
    if inst is not None:
        doc["instance"] = entry.serialize(inst)
    return doc


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a seeded counterexample hunt."""

    target: str
    trials: int
    vacuous: int
    seed: int
    worst_gap: float | None
    worst_trial: int | None
    worst_instance: dict | None
    class_worst: dict | None
    nan: int = 0  # NaN gaps; emitted only when nonzero
    exhausted: int = 0  # trials whose solver ran out of its budget; emitted only when nonzero

    def as_json(self) -> dict:
        doc = {
            "target": self.target,
            "trials": self.trials,
            "vacuous": self.vacuous,
            "seed": self.seed,
            "worst_gap": self.worst_gap,
            "worst_trial": self.worst_trial,
            "worst_instance": self.worst_instance,
            "class_worst": {
                k: {"badness": v[0], "trial": v[1], "gap": v[2]}
                for k, v in (self.class_worst or {}).items()
            }
            or None,
        }
        if self.nan:
            doc["nan"] = self.nan
        if self.exhausted:
            doc["exhausted"] = self.exhausted
        return doc


def counterexample_search(
    spec: RiskSpec,
    budget: SearchBudget,
    target: str,
    divergence: DivergenceSpec | None = None,
) -> SearchResult:
    """Hunt for the most violating sampled instance of a consistency target.

    Deterministic given the budget seed; the returned instance replays from
    (seed, trial). With zero trials the result is empty and carries no
    verdict. The trials run on every usable core (see ``_trial_pool``), with
    the same result as in one process.
    """
    check_kind(target).check_budget(budget, f"target {target!r}")
    div = resolve_divergence(target, spec, divergence)
    with _trial_pool([budget]) as pool:
        stats = _trial_stats(target, spec, div, budget, pool)
    instance = None
    if stats.worst_trial is not None:
        instance = describe_trial(target, spec, div, budget, stats.worst_trial)
    return SearchResult(
        target=target,
        trials=stats.count,
        vacuous=stats.vacuous,
        seed=budget.seed,
        worst_gap=stats.worst_gap,
        worst_trial=stats.worst_trial,
        worst_instance=instance,
        class_worst=stats.class_worst,
        nan=stats.nan,
        exhausted=stats.exhausted,
    )
