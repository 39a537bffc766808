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
block. ``run_trials`` sizes its blocks by the instance, at most
BLOCK_ENTRIES padded entries each, and with a pool this process and each
worker run one contiguous span of a budget's trials (see
``_trial_stats``). A reported
instance also replays from its document: ``CHECK_KINDS[kind].replay(risk,
div, doc)`` reads it back and gives the gap bits of its trial. A block does
not build a generator per trial: ``_trial_rngs`` computes the PCG64 states
of all its trials in one vectorized pass and sets one generator to each in
turn, the state ``default_rng([s, k])`` starts in. ``SearchBudget.rng_for``
builds the generator itself and stays the reference.

All 22 kinds run one protocol (see "check kinds"): a kind's block sampler
draws a block of trials in two steps (see "block samplers"). Per trial, the
draw step makes only the trial's draws, in the order of earlier versions.
Its sizes, permutations, distinct grid values, payoff indices and the
rare fallback index of a keep mask come from the trial's raw PCG64 words
through ``_Words``, which takes numpy's own 32-bit steps: the bits are
numpy's, without the cost of a Generator call each. Its standard
exponentials and uniforms (keep masks too), which take whole 64-bit words,
stay Generator calls, and so do payoff indices past _INTEGERS_LOOP_MAX
values, one sized ``integers`` call once no half-word is kept.
``sample_product_instance`` and ``sample_conditional_instance``
leave a caller's generator at the right word, but may drop the half-word
it keeps for its next 32-bit draw. Once per block, the finish step does
all the arithmetic on the block's draws together: Dirichlet(1) weights as
normalized standard exponentials, the stream and bits of numpy's
``dirichlet``, payoffs and distinct law values by integer index into
VALUE_GRID, the streams of ``integers`` and ``choice``, and the
renormalizations of the law classes. Sums run over the trials of one size
together, so every trial keeps its bits and reports of earlier versions
replay unchanged. The kind's block function then evaluates the whole block
in batched calls whose per-trial results do not depend on the block (the
solver kinds solve each trial's instance alone) and returns its gaps and
flags as arrays, a ``BlockResult``, which ``run_trials`` folds with numpy.
The finished arrays become laws, kernels and joint laws only when
``describe_trial`` serializes an instance. Gaps where both sides are +inf
are "vacuous" and excluded from statistics but counted. A
``SearchBudget`` sets the trial count, the seed, the grid sizes and the
sparsity; every other parameter of the samplers is a module constant. The
kinds that draw laws on distinct grid values (``shift_convexity``,
``property_s``, ``mixture_convexity``, ``dist_concavity``) refuse sizes
above the grid's 41 points, the kinds checked against the grid oracle
(``lemma_identity``, ``key_identity``) refuse sizes above its 4 atoms, and
the nine kinds whose samplers draw no keep mask refuse a nonzero sparsity
(``CheckKind.sparse``).
"""

from __future__ import annotations

import math
import os
import threading
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import cache, partial, reduce
from itertools import chain
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

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
        # every sampler draws at least 2 atoms on each axis it sizes
        if self.trials < 0 or self.seed < 0 or self.max_e < 2 or self.max_f < 2:
            raise ConfigParseError("budget needs trials >= 0, seed >= 0 and sizes of at least 2")
        if not 0.0 <= self.sparsity <= 1.0:
            raise ConfigParseError(f"budget field 'sparsity' must lie in [0, 1], got {self.sparsity!r}")

    def rng_for(self, trial: int) -> np.random.Generator:
        """A new generator of the trial's stream, ``default_rng([seed, trial])``.

        The reference for every trial's draws: ``CheckKind.trial`` seeds a
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


@dataclass(frozen=True)
class ShiftConvexityInstance:
    mu: FiniteDist
    kernel: Kernel

    def as_json(self) -> dict:
        return {"mu": self.mu.as_json(), "kernel": self.kernel.as_json()}


# ---------------------------------------------------------------------------
# a trial's 32-bit draws
# ---------------------------------------------------------------------------
#
# numpy's Generator makes bounded integers, permutations and distinct picks
# from 32-bit halves of PCG64's 64-bit words: a 32-bit draw takes the lower
# half of a new word and keeps the upper half for the next one (its state's
# ``has_uint32`` and ``uinteger``), and a 64-bit draw (``random``,
# ``uniform``, ``standard_exponential``) takes a whole word and leaves a kept
# half alone. ``_Words`` reads a trial's words with
# ``bit_generator.random_raw`` and takes numpy's 32-bit steps in Python, so a
# draw costs a word or two rather than a Generator call: ``integers`` in
# [low, high) by Lemire's method (Lemire, "Fast random integer generation in
# an interval", ACM TOMACS 2019), ``permutation`` as Fisher-Yates with
# ``random_interval``'s masked rejection, and ``choice(a, n, replace=False)``
# as Floyd's algorithm, shuffled with Lemire's method. The bits are numpy's.

_SPAN32 = 1 << 32  # the widest range that numpy's 32-bit Lemire method draws
# the most values of a sized integers draw made here: past them numpy's own
# call costs less than the loop (one core, numpy 2.4)
_INTEGERS_LOOP_MAX = 12


def _handed_over():
    raise RuntimeError("after a sized integers draw numpy keeps the half-word: no 32-bit draw may follow")


class _Words:
    """One trial's PCG64 words, read for its 32-bit draws as numpy's Generator reads them.

    ``rng`` is the trial's generator; it makes the trial's 64-bit draws from
    the same words, in turn with these. ``kept`` is the upper half-word of
    the last word a 32-bit draw opened, which the next one takes first, or
    None; the generator starts without one (``_trial_rngs`` clears it) and
    never holds one while the reader does. A sized draw past its loop's
    size goes to numpy once no half-word is kept, and from then on numpy
    keeps it: the reader refuses any later 32-bit draw of its own.
    """

    __slots__ = ("rng", "_raw", "kept")

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self._raw = rng.bit_generator.random_raw
        self.kept = None

    def _next32(self) -> int:
        kept = self.kept
        if kept is None:
            word = self._raw()
            self.kept = word >> 32
            return word & _MASK32
        self.kept = None
        return kept

    def integer(self, low: int, high: int) -> int:
        """``rng.integers(low, high)``: Lemire's method, which numpy skips for a range of one value."""
        span = high - low
        if not 1 < span <= _SPAN32:
            if span == 1:
                return low
            raise ValueError(f"a 32-bit integer draw needs a range of 1 to 2**32 values, got [{low}, {high})")
        m = self._next32() * span
        if m & _MASK32 < span:
            # the low products 2**32 mod span would favour some values: rejected
            threshold = _SPAN32 % span
            while m & _MASK32 < threshold:
                m = self._next32() * span
        return low + (m >> 32)

    def integers(self, high: int, size: int) -> np.ndarray:
        """``rng.integers(0, high, size=size)``: past _INTEGERS_LOOP_MAX values, numpy's once no half-word is kept."""
        if size <= _INTEGERS_LOOP_MAX:
            return np.array(self._lemire([high] * size), np.int64)
        head = []
        while self.kept is not None and len(head) < size:
            head.append(self.integer(0, high))
        self._raw = _handed_over
        tail = self.rng.integers(0, high, size=size - len(head))
        return np.concatenate((head, tail)) if head else tail

    def permutation(self, n: int) -> list[int]:
        """``rng.permutation(n)``: Fisher-Yates from the top, each swap's index by masked rejection."""
        out = list(range(n))
        raw, kept = self._raw, self.kept
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            while True:
                if kept is None:
                    word = raw()
                    kept = word >> 32
                    j = word & mask
                else:
                    j, kept = kept & mask, None
                if j <= i:
                    break
            out[i], out[j] = out[j], out[i]
        self.kept = kept
        return out

    def distinct(self, population: int, n: int) -> list[int]:
        """The indices that ``rng.choice(a, n, replace=False)`` takes from an array a of this size.

        Floyd's algorithm picks an n-set, a value already picked giving way
        to the top of its range, and a Fisher-Yates pass shuffles it.
        """
        picks = self._lemire([*range(population - n + 1, population + 1), *range(n, 1, -1)])
        picked: list[int] = []
        for top, pick in zip(range(population - n, population), picks):
            picked.append(top if pick in picked else pick)
        for i, j in zip(range(n - 1, 0, -1), picks[n:]):
            picked[i], picked[j] = picked[j], picked[i]
        return picked

    def _lemire(self, spans: Iterable[int]) -> list[int]:
        """One ``integer(0, span)`` for each span in turn, with the loop's state in locals."""
        raw, kept, out = self._raw, self.kept, []
        for span in spans:
            if span == 1:
                out.append(0)
                continue
            while True:
                if kept is None:
                    word = raw()
                    kept = word >> 32
                    m = (word & _MASK32) * span
                else:
                    m, kept = kept * span, None
                low = m & _MASK32
                if low >= span or low >= _SPAN32 % span:
                    break
            out.append(m >> 32)
        self.kept = kept
        return out


# ---------------------------------------------------------------------------
# block samplers
# ---------------------------------------------------------------------------
#
# A sampler is a pair (draw, finish). draw(words, budget) makes one trial's
# draws from its ``_Words`` and keeps what they return: sizes, standard
# exponentials, uniforms, permutations, payoff indices, sparsity keep masks.
# No draw depends on a drawn value, only on sizes and keep masks, so the
# arithmetic can wait. finish(draws) does all of it for a block of trials at
# once on zero-padded arrays: Dirichlet normalization, sparsification, outer
# products, the renormalizations that FiniteDist, JointDist and Kernel
# apply, kernel rows, and 0/1 map matrices. Elementwise steps and running
# sums (cumsum) are blind to padding; np.sum adds pairwise from 8 entries on,
# so ``_row_sums`` sums the trials of each exact size together, with the bits
# of each trial's own 1-D sum. A finished block holds what its kinds
# evaluate, and ``block.trial(b)`` reads out trial b's draw as the
# one-trial samplers of earlier versions returned it, for the serializers:
# laws, kernels, joint laws and maps are built only there.


class _Sampler(NamedTuple):
    draw: Callable  # (words, budget) -> one trial's raw draws
    finish: Callable  # (a block's raw draws) -> the finished block


def _configured(draw: Callable, finish: Callable, **options) -> _Sampler:
    """The sampler of draw and finish, both given the same options."""
    return _Sampler(partial(draw, **options), partial(finish, **options))


def _finished(sampler: _Sampler, budget: SearchBudget, start: int, stop: int):
    """The finished block of trials [start, stop): each trial's draws from its stream in turn, then the arithmetic."""
    return sampler.finish([sampler.draw(_Words(rng), budget) for rng in _trial_rngs(budget, start, stop)])


def _finished_one(sampler: _Sampler, rng: np.random.Generator, budget: SearchBudget):
    """The finished block of the one trial whose generator is rng.

    A half-word that rng keeps from an earlier 32-bit draw is taken first,
    as numpy takes it. The one the trial's draws leave is dropped: rng is
    left at the right word, but its next 32-bit draw may differ from numpy's.
    """
    words, state = _Words(rng), rng.bit_generator.state
    if state["has_uint32"]:
        words.kept = state["uinteger"]
        rng.bit_generator.state = {**state, "has_uint32": 0}
    return sampler.finish([sampler.draw(words, budget)])


def _padded(arrays: Sequence[np.ndarray], dtype=float) -> np.ndarray:
    """Arrays of one rank as one zero-padded array, stacked along a new first axis."""
    rank = arrays[0].ndim
    shapes = np.fromiter(chain.from_iterable(a.shape for a in arrays), int, rank * len(arrays)).reshape(-1, rank)
    out = np.zeros((len(arrays), *shapes.max(axis=0)), dtype)
    out[_own_entries(shapes, out.shape[1:])] = np.concatenate(arrays, axis=None)
    return out


def _own_entries(shapes: np.ndarray, dims: tuple) -> np.ndarray:
    """The mask of each trial's entries in a zero-padded array of these dims, trial b being of shape shapes[b].

    Its True entries run in row-major order, trial after trial: the order of
    the trials' raveled arrays one after another.
    """
    mask = np.arange(dims[0]) < shapes[:, :1]
    for axis in range(1, len(dims)):
        mask = mask[..., None] & (np.arange(dims[axis]) < shapes[:, axis].reshape((-1,) + (1,) * (axis + 1)))
    return mask


def _row_sums(x: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Sums along the last axis of x[b] over its first size[b] entries, with the bits of their own 1-D sums.

    numpy sums 8 or more entries pairwise, so zero padding would regroup the
    sum: the trials of each size are summed together, unpadded.
    """
    out = np.empty(x.shape[:-1])
    for n in set(size.tolist()):
        rows = (size == n).nonzero()[0]
        out[rows] = x[rows, ..., :n].sum(axis=-1)
    return out


def _normalized(x: np.ndarray, size: np.ndarray) -> np.ndarray:
    """x divided along its last axis by the ``_row_sums`` of its trials; rows of padding stay zero."""
    total = _row_sums(x, size)[..., None]
    return x / np.where(total > 0.0, total, 1.0)


def _dirichlet(e: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Dirichlet(1) weights from zero-padded rows of standard exponentials: ``rng.dirichlet``'s stream and bits.

    numpy draws them as standard exponentials times one over their
    left-to-right sum, which padding does not change; they are then
    renormalized, as the samplers always did.
    """
    total = e.cumsum(axis=-1)[..., -1:]
    return _normalized(e * (1.0 / np.where(total > 0.0, total, 1.0)), size)


def _keep_mask(words: _Words, n: int, sparsity: float) -> np.ndarray | None:
    """Which of n weights a sparse law keeps, at least one; None when nothing is zeroed."""
    if sparsity <= 0.0:
        return None
    keep = words.rng.random(n) >= sparsity
    if not keep.any():
        keep[words.integer(0, n)] = True
    return keep


def _sparsified(w: np.ndarray, keeps: Sequence, size: np.ndarray) -> np.ndarray:
    """Padded weights with the entries their keep masks drop zeroed, renormalized; unchanged without masks."""
    if keeps[0] is None:
        return w
    return _normalized(np.where(_padded(keeps, bool), w, 0.0), size)


def _one_hot(columns: Sequence[list]) -> np.ndarray:
    """Zero-padded 0/1 matrices: row i of matrix b has its 1 in column columns[b][i], all set in one assignment."""
    sizes = np.array([[len(c)] for c in columns])
    cols = np.fromiter(chain(*columns), np.intp)
    out = np.zeros((len(columns), sizes.max(), int(cols.max()) + 1))
    out[(*np.nonzero(_own_entries(sizes, out.shape[1:2])), cols)] = 1.0
    return out


def _payoffs(indices: Sequence) -> np.ndarray:
    """The values of VALUE_GRID at index arrays, or at lists of indices, zero-padded: the values drawn by index."""
    sizes = np.array([[len(i)] for i in indices])
    out = np.zeros((len(indices), sizes.max()))
    # arrays join fastest in one concatenate, and lists of ints through one iterator
    flat = np.concatenate(indices) if isinstance(indices[0], np.ndarray) else np.fromiter(chain(*indices), np.intp)
    out[_own_entries(sizes, out.shape[1:])] = VALUE_GRID[flat]
    return out


def _first_seen(images: Sequence) -> list[int]:
    """Each image's rank among the distinct images in the order they first appear: a map's 0/1 columns."""
    seen: dict = {}
    return [seen.setdefault(y, len(seen)) for y in images]


def _labels(prefix: str, n: int) -> tuple:
    return tuple(f"{prefix}{i}" for i in range(n))


def _draw_law(words: _Words, n: int) -> tuple[list[int], np.ndarray]:
    """The indices of n distinct values of VALUE_GRID, as ``choice`` draws them, and the exponentials of their weights."""
    return words.distinct(VALUE_GRID.size, n), words.rng.standard_exponential(n)


def _random_surjection(words: _Words, n_from: int, n_to: int) -> list[int]:
    img = words.permutation(n_from)[:n_to]
    out = [0] * n_from
    for k, i in enumerate(img):
        out[i] = k
    for i in sorted(set(range(n_from)) - set(img)):
        out[i] = words.integer(0, n_to)
    return out


# joint instances: the product kinds, the conditional kinds, lemma_identity and key_identity

# the most atoms per axis of a lemma_identity or key_identity instance, the limit of the grid oracle:
# checks and searches refuse larger sizes, and the draw step caps a direct run_trials call
_ORACLE_ATOMS = 4


class _JointRaw(NamedTuple):
    n_e: int
    n_f: int
    exps: tuple  # (n_e,) and (n_f,) exponentials of a product reference law's marginals, or (n_e * n_f,) of another
    keep: np.ndarray | None  # the reference weights' keep mask, row after row
    paired: np.ndarray  # nu_bar's n_e * n_f exponentials, or the payoffs' indices into VALUE_GRID


def _draw_joint(words: _Words, budget: SearchBudget, payoffs: bool, cap: float = math.inf) -> _JointRaw:
    """A joint instance of at most cap atoms per axis."""
    rng = words.rng
    n_e = words.integer(2, min(budget.max_e, cap) + 1)
    n_f = words.integer(2, min(budget.max_f, cap) + 1)
    if rng.random() < PRODUCT_FRACTION:
        exps = (rng.standard_exponential(n_e), rng.standard_exponential(n_f))
    else:
        exps = (rng.standard_exponential(n_e * n_f),)
    n = n_e * n_f
    keep = _keep_mask(words, n, budget.sparsity)
    paired = words.integers(VALUE_GRID.size, n) if payoffs else rng.standard_exponential(n)
    return _JointRaw(n_e, n_f, exps, keep, paired)


class _JointDraw(NamedTuple):
    """A joint instance as drawn, before JointDist renormalizes its weights."""

    w: np.ndarray  # shape (n_e, n_f): the reference weights, mu_bar or the joint law
    paired: np.ndarray  # shape (n_e, n_f): the weights of nu_bar, or the payoff values
    is_product: bool


class _JointBlock(NamedTuple):
    """Finished joint instances.

    ``drawn_w`` and ``drawn_paired`` hold each trial's n_e * n_f entries as
    drawn, row after row. ``w`` and ``paired`` are the (B, E, F) arrays the
    kinds evaluate: mu_bar and nu_bar as JointDist renormalizes them, or the
    joint law renormalized once more, as ``flat()``'s FiniteDist does, and
    the payoff values. ``joint`` is the joint law as JointDist stores it, on
    the same grid, which key_identity evaluates; None for pairs.
    """

    raws: Sequence[_JointRaw]
    product: np.ndarray
    drawn_w: np.ndarray
    drawn_paired: np.ndarray
    w: np.ndarray
    paired: np.ndarray
    joint: np.ndarray | None

    def trial(self, b: int) -> _JointDraw:
        n_e, n_f = self.raws[b].n_e, self.raws[b].n_f
        w, paired = (x[b, : n_e * n_f].reshape(n_e, n_f) for x in (self.drawn_w, self.drawn_paired))
        return _JointDraw(w, paired, bool(self.product[b]))


def _finish_joint(raws: Sequence[_JointRaw], payoffs: bool) -> _JointBlock:
    grid = np.array([(r.n_e, r.n_f) for r in raws])
    size = grid.prod(axis=1)
    product = np.array([len(r.exps) == 2 for r in raws])
    # every exponential vector of the block, a product law's two marginals in turn, in one normalization
    vectors = [e for r in raws for e in r.exps]
    d = _dirichlet(_padded(vectors), np.array([e.size for e in vectors]))
    first = np.cumsum(1 + product) - 1 - product  # each trial's first vector
    flat = _own_entries(size[:, None], (size.max(),))  # each trial's n_e * n_f entries, row after row
    w = np.zeros(flat.shape)
    w[~product, : d.shape[1]] = d[first[~product]]
    if product.any():
        outer = d[first[product], :, None] * d[first[product] + 1, None, :]
        w[flat & product[:, None]] = outer[_own_entries(grid[product], outer.shape[1:])]
    w = _sparsified(w, [r.keep for r in raws], size)
    stored = _normalized(w, size)  # JointDist's renormalization
    if payoffs:
        paired = stored_paired = _payoffs([r.paired for r in raws])
    else:
        paired = _dirichlet(_padded([r.paired for r in raws]), size)
        stored_paired = _normalized(paired, size)
    cells = _own_entries(grid, tuple(grid.max(axis=0)))

    def on_grid(x: np.ndarray) -> np.ndarray:
        out = np.zeros(cells.shape)
        out[cells] = x[flat]
        return out

    evaluated = _normalized(stored, size) if payoffs else stored  # and flat()'s FiniteDist's
    joint = on_grid(stored) if payoffs else None
    return _JointBlock(raws, product, w, paired, on_grid(evaluated), on_grid(stored_paired), joint)


_PRODUCT = _configured(_draw_joint, _finish_joint, payoffs=False)
_CONDITIONAL = _configured(_draw_joint, _finish_joint, payoffs=True)
_SMALL_PRODUCT = _Sampler(partial(_draw_joint, payoffs=False, cap=_ORACLE_ATOMS), _PRODUCT.finish)
_SMALL_CONDITIONAL = _Sampler(partial(_draw_joint, payoffs=True, cap=_ORACLE_ATOMS), _CONDITIONAL.finish)


def _joint_dist(w: np.ndarray) -> JointDist:
    return JointDist(_labels("e", w.shape[0]), _labels("f", w.shape[1]), w)


def _product_instance(draw: _JointDraw) -> ProductInstance:
    return ProductInstance(_joint_dist(draw.w), _joint_dist(draw.paired), draw.is_product)


def _conditional_instance(draw: _JointDraw) -> ConditionalInstance:
    return ConditionalInstance(_joint_dist(draw.w), draw.paired, draw.is_product)


def sample_product_instance(rng: np.random.Generator, budget: SearchBudget) -> ProductInstance:
    return _product_instance(_finished_one(_PRODUCT, rng, budget).trial(0))


def sample_conditional_instance(rng: np.random.Generator, budget: SearchBudget) -> ConditionalInstance:
    return _conditional_instance(_finished_one(_CONDITIONAL, rng, budget).trial(0))


# pairs of laws on one atom set, pushed along a chain: duality and the data-processing kinds


def _draw_pair(words: _Words, budget: SearchBudget) -> tuple:
    """(mu's exponentials, its keep mask, nu's exponentials) on one atom set."""
    n = words.integer(2, budget.max_e + 1)
    mu = words.rng.standard_exponential(n)
    return mu, _keep_mask(words, n, budget.sparsity), words.rng.standard_exponential(n)


def _finish_pair(raws: Sequence[tuple]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The weights (mu, nu) of a block of pairs as drawn, zero-padded, and their sizes."""
    mu, keep, nu = zip(*raws)
    n = np.array([e.size for e in mu])
    return _sparsified(_dirichlet(_padded(mu), n), keep, n), _dirichlet(_padded(nu), n), n


_PAIR = _Sampler(_draw_pair, _finish_pair)


class _ChainDraw(NamedTuple):
    """A pair of laws and the matrices that push them, as drawn: before FiniteDist and Kernel renormalize."""

    nu: np.ndarray
    mu: np.ndarray
    chain: tuple  # row-stochastic matrices, finest first: a kernel's rows or a map's 0/1 matrix
    maps: tuple  # the maps as the instance reports them; empty for a kernel


class _ChainBlock(NamedTuple):
    """Finished data-processing pairs.

    ``nu``, ``mu`` and ``chain`` are what ``_chain_values`` evaluates: the
    laws as FiniteDist renormalizes them and each push's (B, K, K')
    matrices, a kernel's rows as Kernel renormalizes them. The rest is the
    draw: the laws' weights and the matrices as drawn with each trial's
    matrix shapes, and each trial's map images with the labels of their
    atoms, (source prefix, image prefix) per map.
    """

    size: np.ndarray
    drawn_nu: np.ndarray
    drawn_mu: np.ndarray
    drawn_chain: list
    shapes: list
    images: list
    map_labels: tuple
    nu: np.ndarray
    mu: np.ndarray
    chain: list

    def trial(self, b: int) -> _ChainDraw:
        n = self.size[b]
        chain = tuple(m[b, : s[b, 0], : s[b, 1]] for m, s in zip(self.drawn_chain, self.shapes))
        maps = tuple(
            {f"{src}{i}": f"{dst}{k}" for i, k in enumerate(images)}
            for (src, dst), images in zip(self.map_labels, self.images[b])
        )
        return _ChainDraw(self.drawn_nu[b, :n], self.drawn_mu[b, :n], chain, maps)


def _chain_block(nu, mu, n, chain: list, shapes: list, images=None, map_labels: tuple = ()) -> _ChainBlock:
    """The block of laws (nu, mu) as drawn, of sizes n, their chain's matrices as drawn, of shapes shapes, and maps."""
    evaluated = [_normalized(m, s[:, 1]) for m, s in zip(chain, shapes)]  # Kernel's rows; a 0/1 row stays as it is
    images = [()] * len(n) if images is None else images
    return _ChainBlock(n, nu, mu, chain, shapes, images, map_labels, _normalized(nu, n), _normalized(mu, n), evaluated)


def _map_shapes(columns: Sequence) -> np.ndarray:
    return np.array([(len(c), max(c) + 1) for c in columns])


def _draw_dpi(words: _Words, budget: SearchBudget, bijection: bool) -> tuple:
    """(the pair's draws, the kernel's (n, n_f) exponentials or a permutation of the atoms)."""
    pair = _draw_pair(words, budget)
    n = pair[0].size
    if bijection:
        return pair, words.permutation(n)
    n_f = words.integer(2, budget.max_f + 1)
    return pair, words.rng.standard_exponential((n, n_f))


def _finish_dpi(raws: Sequence[tuple], bijection: bool) -> _ChainBlock:
    pairs, links = zip(*raws)
    mu, nu, n = _finish_pair(pairs)
    if bijection:
        return _chain_block(nu, mu, n, [_one_hot(links)], [np.column_stack([n, n])])
    shapes = np.array([e.shape for e in links])
    return _chain_block(nu, mu, n, [_dirichlet(_padded(links), shapes[:, 1])], [shapes])


def _draw_sufficiency(words: _Words, budget: SearchBudget, matched: bool) -> tuple:
    """(mu's exponentials, the statistic's image of each atom, nu's exponentials or a matched nu's factor per fiber)."""
    rng = words.rng
    n = words.integer(2, max(3, budget.max_e) + 1)
    mu = rng.standard_exponential(n)
    n_fibers = 1 if n == 2 else words.integer(1, n)
    images = _random_surjection(words, n, n_fibers)
    return mu, images, rng.uniform(0.25, 2.5, size=n_fibers) if matched else rng.standard_exponential(n)


def _finish_sufficiency(raws: Sequence[tuple], matched: bool) -> _ChainBlock:
    exps, images, others = zip(*raws)
    n = np.array([e.size for e in exps])
    mu = _dirichlet(_padded(exps), n)
    if matched:
        # nu is mu times its fiber's factor: d nu / d mu is a function of the statistic
        fibers = _padded([np.array(i) for i in images], int)
        nu = _normalized(mu * np.take_along_axis(_padded(others), fibers, 1), n)
    else:
        nu = _dirichlet(_padded(others), n)
    columns = [_first_seen(i) for i in images]
    return _chain_block(nu, mu, n, [_one_hot(columns)], [_map_shapes(columns)], [(i,) for i in images], (("a", "g"),))


def _draw_refinement(words: _Words, budget: SearchBudget) -> tuple:
    """(mu's and nu's exponentials as a (2, n0) array, the images of the n0 atoms and of the first map's n1 images)."""
    n0 = words.integer(3, max(4, budget.max_e) + 1)
    exps = words.rng.standard_exponential((2, n0))
    n1 = words.integer(2, n0)
    n2 = words.integer(1, n1 + 1)
    return exps, (_random_surjection(words, n0, n1), _random_surjection(words, n1, n2))


def _finish_refinement(raws: Sequence[tuple]) -> _ChainBlock:
    exps, images = zip(*raws)
    n = np.array([e.shape[1] for e in exps])
    laws = _dirichlet(_padded(exps), n)
    first = [_first_seen(one) for one, _ in images]
    # the second map acts on the first one's image, whose atoms come in the order they first appear
    second = [_first_seen([two[k] for k in dict.fromkeys(one)]) for one, two in images]
    chain, shapes = [_one_hot(first), _one_hot(second)], [_map_shapes(first), _map_shapes(second)]
    nu, mu = np.ascontiguousarray(laws[:, 1]), np.ascontiguousarray(laws[:, 0])
    return _chain_block(nu, mu, n, chain, shapes, images, (("a", "b"), ("b", "c")))


# joint_convexity: two pairs of laws on one atom set and a mixing weight


def _draw_convexity(words: _Words, budget: SearchBudget) -> tuple:
    """(the exponentials of mu1, nu1, mu2 and nu2 as a (4, n) array, t)."""
    n = words.integer(2, budget.max_e + 1)
    return words.rng.standard_exponential((4, n)), float(words.rng.uniform(0.05, 0.95))


class _ConvexityBlock(NamedTuple):
    """Finished joint_convexity instances: t, and the (B, 4, N) weights of mu1, nu1, mu2, nu2, drawn and as evaluated.

    ``laws`` holds the weights as FiniteDist renormalizes them.
    """

    t: np.ndarray
    size: np.ndarray
    drawn: np.ndarray
    laws: np.ndarray

    def trial(self, b: int) -> tuple:
        """(t, nu1, mu1, nu2, mu2) as drawn."""
        mu1, nu1, mu2, nu2 = self.drawn[b, :, : self.size[b]]
        return float(self.t[b]), nu1, mu1, nu2, mu2


def _finish_convexity(raws: Sequence[tuple]) -> _ConvexityBlock:
    exps, t = zip(*raws)
    n = np.array([e.shape[1] for e in exps])
    drawn = _dirichlet(_padded(exps), n)
    return _ConvexityBlock(np.array(t), n, drawn, _normalized(drawn, n))


_CONVEXITY = _Sampler(_draw_convexity, _finish_convexity)


# dist_concavity: two laws on the real line and a mixing weight


def _draw_concavity(words: _Words, budget: SearchBudget) -> tuple:
    """(the value indices and exponentials of m1, those of m2, t)."""
    n1 = words.integer(2, budget.max_e + 1)
    n2 = words.integer(2, budget.max_e + 1)
    m1, m2 = _draw_law(words, n1), _draw_law(words, n2)
    return m1, m2, float(words.rng.uniform(0.05, 0.95))


class _ConcavityBlock(NamedTuple):
    """Finished dist_concavity instances: t, and per law its sizes, values and weights, drawn and as evaluated."""

    t: np.ndarray
    size: tuple
    values: tuple
    drawn: tuple
    weights: tuple

    def trial(self, b: int) -> dict:
        laws = (FiniteDist(v[b, : n[b]].tolist(), w[b, : n[b]]) for v, w, n in zip(self.values, self.drawn, self.size))
        return dict(zip(("t", "m1", "m2"), (float(self.t[b]), *laws)))


def _finish_concavity(raws: Sequence[tuple]) -> _ConcavityBlock:
    *laws, t = zip(*raws)
    size = tuple(np.array([len(v) for v, _ in m]) for m in laws)
    values = tuple(_payoffs([v for v, _ in m]) for m in laws)
    drawn = tuple(_dirichlet(_padded([e for _, e in m]), n) for m, n in zip(laws, size))
    return _ConcavityBlock(np.array(t), size, values, drawn, tuple(_normalized(w, n) for w, n in zip(drawn, size)))


_CONCAVITY = _Sampler(_draw_concavity, _finish_concavity)


# lebesgue: a law, a payoff and a direction


def _draw_lebesgue(words: _Words, budget: SearchBudget) -> tuple:
    """(mu's exponentials, the payoff's indices into VALUE_GRID, the direction, uniform on [0, 1))."""
    n = words.integer(2, budget.max_e + 1)
    mu = words.rng.standard_exponential(n)
    f = words.integers(VALUE_GRID.size, n)
    return mu, f, words.rng.uniform(0.0, 1.0, size=n)


class _LebesgueBlock(NamedTuple):
    """Finished lebesgue instances: mu's (B, N) weights, drawn and as FiniteDist stores them, payoffs and directions."""

    size: np.ndarray
    drawn: np.ndarray
    mu: np.ndarray
    f: np.ndarray
    h: np.ndarray

    def trial(self, b: int) -> tuple:
        n = self.size[b]
        return FiniteDist(_labels("a", n), self.drawn[b, :n]), self.f[b, :n], self.h[b, :n]


def _finish_lebesgue(raws: Sequence[tuple]) -> _LebesgueBlock:
    exps, f, h = zip(*raws)
    n = np.array([e.size for e in exps])
    drawn = _dirichlet(_padded(exps), n)
    return _LebesgueBlock(n, drawn, _normalized(drawn, n), _payoffs(f), _padded(h))


_LEBESGUE = _Sampler(_draw_lebesgue, _finish_lebesgue)


# the acceptance-set probes: laws on the real line, each shifted onto rho = 0;
# a trial's draws are (its laws' (value indices, exponentials), the
# exponentials of mixture_convexity's mixing weights or None)


def _draw_shift_convexity(words: _Words, budget: SearchBudget) -> tuple:
    """mu's law, then one per kernel row."""
    n_e = words.integer(2, budget.max_e + 1)
    n_f = words.integer(2, budget.max_f + 1)
    return [_draw_law(words, n) for n in (n_e, *[n_f] * n_e)], None


def _draw_property_s(words: _Words, budget: SearchBudget) -> tuple:
    """The x-marginal, then its k component laws."""
    k = words.integer(2, 5)
    marginal = _draw_law(words, k)
    return [marginal, *(_draw_law(words, words.integer(2, budget.max_f + 1)) for _ in range(k))], None


def _draw_mixture(words: _Words, budget: SearchBudget) -> tuple:
    k = words.integer(2, 5)
    weights = words.rng.standard_exponential(k)
    return [_draw_law(words, words.integer(2, budget.max_f + 1)) for _ in range(k)], weights


class _LawsBlock(NamedTuple):
    """Finished probe laws, one row per law of the block, trial after trial.

    ``owner`` and ``slot`` give each law's trial and its place there;
    ``drawn`` holds the weights as drawn, ``weights`` as FiniteDist stores
    them, whose risk shifts the law onto the boundary, and ``weights2`` as
    the shifted law's FiniteDist stores them once more. ``mixing`` is
    mixture_convexity's (B, k) weights as drawn.
    """

    counts: np.ndarray
    owner: np.ndarray
    slot: np.ndarray
    size: np.ndarray
    values: np.ndarray
    drawn: np.ndarray
    weights: np.ndarray
    weights2: np.ndarray
    mixing: np.ndarray | None


def _finish_laws(raws: Sequence[tuple]) -> _LawsBlock:
    trials, mixings = zip(*raws)
    counts = np.array([len(t) for t in trials])
    laws = [law for t in trials for law in t]
    size = np.array([len(v) for v, _ in laws])
    drawn = _dirichlet(_padded([e for _, e in laws]), size)
    weights = _normalized(drawn, size)
    mixing = None if mixings[0] is None else _dirichlet(_padded(mixings), np.array([m.size for m in mixings]))
    owner = np.repeat(np.arange(len(raws)), counts)
    slot = np.arange(len(laws)) - np.repeat(counts.cumsum() - counts, counts)
    values = _payoffs([v for v, _ in laws])
    return _LawsBlock(counts, owner, slot, size, values, drawn, weights, _normalized(weights, size), mixing)


_SHIFT_CONVEXITY_LAWS = _Sampler(_draw_shift_convexity, _finish_laws)
_PROPERTY_S_LAWS = _Sampler(_draw_property_s, _finish_laws)
_MIXTURE_LAWS = _Sampler(_draw_mixture, _finish_laws)


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
    return ShiftConvexityInstance(mu, kernel).as_json()


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
# check kinds
# ---------------------------------------------------------------------------
#
# All 22 kinds run one protocol. ``CheckKind.trial`` maps (risk, div,
# budget, start, stop) to one BlockResult: the kind's sampler draws the
# block, trial k from the stream of budget.rng_for(k) through the block's
# one generator, which _trial_rngs reseeds by state before each trial, and
# the kind's block function judges it into arrays over its trials, which
# ``run_trials`` folds with numpy: nothing is built per trial. Only
# ``describe_trial`` builds an instance's laws, kernels and joint laws, as it
# serializes its trial, evaluated as a block of one; ``CheckKind.replay``
# reads an instance back through the same block code. A conditional block
# takes 2 rho_batch calls (rows with full laws, then outer laws; the weak
# kind rows, then recentered full laws), and the probe kinds, dist_concavity
# and lebesgue take at most two. The solver kinds batch what does not
# solve: duality's and lemma_identity's closed forms are one evaluate_batch
# and key_identity's row and outer risks one rho_batch each; each trial then
# solves its own instance, duality through the module attribute
# ``dual_divergence``, which a profiler may rebind to observe every solve.
# The reverse inequalities (subadditivity, rejection) negate their gaps in
# ``CheckKind``, for trials and replays alike.


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
    return _judged(*_product_gaps(div, block.w, block.paired, [r.n_f for r in block.raws], weak), block, block.product)


def _lemma_identity_trials(risk, div, block: _JointBlock) -> BlockResult:
    gap, vacuous, exhausted = _integral_lemma(risk, block.w, block.paired, [r.n_f for r in block.raws])
    return _judged(gap, vacuous, block, block.product, exhausted)


def _key_identity_trials(risk, div, block: _JointBlock) -> BlockResult:
    gap = _key_identity_gaps(risk, block.joint, block.paired, [r.n_e for r in block.raws])
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
    return _product_instance(result.drawn.trial(b)).as_json()


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
        out.append(_one_hot([_first_seen(on_atoms.values())])[0])
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


def _convexity_replay(risk, div, doc):
    what = "joint_convexity instance"
    _, laws = _on_one_space(doc, what, FiniteDist, "nu1", "mu1", "nu2", "mu2")
    t = typed_field(doc, "t", None, float, what)
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
    t = np.array([typed_field(doc, "t", None, float, what)])
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


@dataclass(frozen=True)
class CheckKind:
    """One structural fact, checked by seeded sampling.

    ``side`` "lower": gaps should stay >= -noise; "abs": |gap| should stay
    <= noise. ``needs`` says which of (risk spec, divergence spec) the kind
    uses. ``sampler`` draws a block of instances and ``evaluate(risk, div,
    block)`` judges them into one BlockResult. ``serialize(result, b)``
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
    sampler: _Sampler
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
        """ConfigParseError if a size or the sparsity of the budget is more than this kind's sampler can draw."""
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
    return CheckKind(side, "div", _PRODUCT, evaluate, _product_json, read, negate=negate)


def _conditional_kind(side: str, weak: bool = False, negate: bool = False) -> CheckKind:
    evaluate, read = (partial(f, weak=weak) for f in (_conditional_trials, _conditional_replay))
    return CheckKind(side, "risk", _CONDITIONAL, evaluate, _conditional_json, read, negate=negate)


def _chain_kind(
    side: str, sampler: _Sampler, link: str, gaps: Callable = _pair_gaps, serialize=_chain_json, sparse=True
):
    read = partial(_chain_replay, link=link, gaps=gaps)
    return CheckKind(side, "div", sampler, partial(_chain_trials, gaps=gaps), serialize, read, sparse=sparse)


def _probe_kind(laws: _Sampler, lotteries: Callable, serialize, read, grid_sizes: str = "F", marginal=True):
    evaluate = partial(_probe_trials, lotteries=lotteries, marginal=marginal)
    return CheckKind("lower", "risk", laws, evaluate, serialize, read, grid_sizes, sparse=False)


CHECK_KINDS: dict[str, CheckKind] = {
    "chain_rule": _product_kind("abs"),
    "superadditivity": _product_kind("lower"),
    "subadditivity": _product_kind("lower", negate=True),
    "weak_consistency": _product_kind("lower", weak=True),
    "dpi": _chain_kind("lower", _configured(_draw_dpi, _finish_dpi, bijection=False), "kernel"),
    "dpi_bijection": _chain_kind("abs", _configured(_draw_dpi, _finish_dpi, bijection=True), "kernel"),
    "duality": CheckKind("abs", "risk", _PAIR, _duality_trials, _duality_json, _duality_replay),
    "time_consistency": _conditional_kind("abs"),
    "acceptance": _conditional_kind("lower"),
    "rejection": _conditional_kind("lower", negate=True),
    "weak_acceptance": _conditional_kind("lower", weak=True),
    "shift_convexity": _probe_kind(
        _SHIFT_CONVEXITY_LAWS, _shift_convexity_lotteries, _shift_convexity_json, _shift_convexity_replay, "EF"
    ),
    "property_s": _probe_kind(
        _PROPERTY_S_LAWS, _property_s_lotteries, _property_s_json, partial(_lottery_replay, shifted=True)
    ),
    "mixture_convexity": _probe_kind(
        _MIXTURE_LAWS, _mixture_lotteries, _mixture_json, partial(_lottery_replay, shifted=False), marginal=False
    ),
    "joint_convexity": CheckKind(
        "lower", "div", _CONVEXITY, _joint_convexity_trials, _convexity_json, _convexity_replay, sparse=False
    ),
    "dist_concavity": CheckKind(
        "lower", "risk", _CONCAVITY, _dist_concavity_trials, _concavity_json, _concavity_replay, "E", sparse=False
    ),
    "sufficiency_matched": _chain_kind(
        "abs", _configured(_draw_sufficiency, _finish_sufficiency, matched=True), "map", sparse=False
    ),
    "sufficiency_generic": _chain_kind(
        "lower", _configured(_draw_sufficiency, _finish_sufficiency, matched=False), "map", sparse=False
    ),
    "refinement": _chain_kind(
        "lower", _Sampler(_draw_refinement, _finish_refinement), "maps", _refinement_gaps, _refinement_json,
        sparse=False,
    ),
    "lemma_identity": CheckKind(
        "abs", "risk", _SMALL_PRODUCT, _lemma_identity_trials, _product_json, _lemma_replay, oracle=True
    ),
    "key_identity": CheckKind(
        "abs", "risk", _SMALL_CONDITIONAL, _key_identity_trials, _conditional_json, _key_identity_replay, oracle=True
    ),
    "lebesgue": CheckKind("abs", "risk", _LEBESGUE, _lebesgue_trials, _lebesgue_json, _lebesgue_replay, sparse=False),
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


# the most padded entries, trials x max_e x max_f, in one block of run_trials:
# 100 trials at sizes 12, 1,600 at sizes 3
BLOCK_ENTRIES = 14_400
# a run opens a pool only for some budget of more than this many trials
POOL_MIN_TRIALS = 100


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

    def fold(self, result: BlockResult, first: int, badness: Callable) -> None:
        """Fold in a block's BlockResult, whose trial 0 is trial ``first``, as a loop over its trials would.

        A vacuous trial is only counted; a solver's budget counts on the
        others, NaN or not. A NaN gap is counted and never ranked: every
        comparison with NaN is false, so ranked it would mask later gaps.
        The worst trial, overall and per class, is the first of the largest
        badness: a strict > over the trials in order.
        """
        judged = ~result.vacuous
        nan = judged & np.isnan(result.gap)
        self.count += result.gap.size
        self.vacuous += int(np.count_nonzero(result.vacuous))
        self.nan += int(np.count_nonzero(nan))
        if result.exhausted is not None:
            self.exhausted += int(np.count_nonzero(result.exhausted & judged))
        ranked = np.flatnonzero(judged & ~nan)
        if not ranked.size:
            return
        gap = result.gap[ranked]
        bad = badness(gap)
        k = _first_largest(bad)
        if self.worst_trial is None or bad[k] > self.worst_badness:
            self.worst_badness, self.worst_trial, self.worst_gap = float(bad[k]), first + int(ranked[k]), float(gap[k])
        if result.product is None:
            return
        product = result.product[ranked]
        # a class new to the summary takes its place in the order of its first trial
        for label, rows in sorted((("product", product), ("general", ~product)), key=lambda c: not c[1][0]):
            if not rows.any():
                continue
            k = np.flatnonzero(rows)[_first_largest(bad[rows])]
            cur = self.class_worst.get(label)
            if cur is None or bad[k] > cur[0]:
                self.class_worst[label] = (float(bad[k]), first + int(ranked[k]), float(gap[k]))


def _first_largest(x: np.ndarray) -> int:
    """The index of the first largest entry of x, which holds no NaN; -0.0 and 0.0 tie."""
    return int(np.argmax(x == x.max()))


def run_trials(
    kind: str,
    risk: RiskSpec | None,
    div: DivergenceSpec | None,
    budget: SearchBudget,
    start: int,
    stop: int,
) -> TrialStats:
    """Evaluate trials [start, stop); summaries merge deterministically.

    The kind's ``trial`` runs on consecutive blocks sized by the instance,
    as many trials as BLOCK_ENTRIES padded entries of max_e x max_f hold,
    so memory stays bounded on any range while small instances pay each
    block's fixed cost (seeding, finishing, batched calls) over many
    trials. A trial's gap is the same bits in any block and when
    ``describe_trial`` replays it alone: every kind sums over atoms in a
    fixed order that zero padding does not change (see ``risk.rho_batch``).
    """
    entry = check_kind(kind)
    stats = TrialStats(class_worst={})
    size = max(1, BLOCK_ENTRIES // (budget.max_e * budget.max_f))
    for first in range(start, stop, size):
        stats.fold(entry.trial(risk, div, budget, first, min(first + size, stop)), first, entry.badness)
    if not stats.class_worst:
        stats.class_worst = None
    return stats


def _trial_stats(
    kind: str,
    risk: RiskSpec | None,
    div: DivergenceSpec | None,
    budget: SearchBudget,
    pool: list[_Worker] | None = None,
) -> TrialStats:
    """run_trials over every trial of the budget.

    Without a pool this is one run_trials call over [0, trials). With a pool
    of cores - 1 workers the trials are cut into one contiguous span per
    usable core: this process sends spans 1, 2, ... to the workers, one
    each, runs span 0 itself, then receives the other spans in span order
    and merges them. A trial's gap does not depend on its block and merging
    is exact, so the result is the same with and without a pool. Errors
    surface in span order, as in one process: one in span 0 first, then a
    worker's, raised again here with the worker's formatted traceback as its
    ``__cause__``, or a RuntimeError for a worker that died during its span.
    The other spans' replies are then left unread: ``_trial_pool``
    terminates the workers as the error leaves its block, so a pool that
    raised once runs nothing more.
    """
    if pool is None:
        return run_trials(kind, risk, div, budget, 0, budget.trials)
    spans = max(1, min(budget.trials, len(pool) + 1))
    bounds = [budget.trials * i // spans for i in range(spans + 1)]
    sent = list(zip(pool, bounds[1:], bounds[2:]))
    for worker, start, stop in sent:
        worker.pipe.send((kind, risk, div, budget, start, stop))
    parts = [run_trials(kind, risk, div, budget, 0, bounds[1])]
    for worker, start, stop in sent:
        parts.append(worker.receive(f"trials [{start}, {stop}) of {kind!r}"))
    return reduce(TrialStats.merge, parts)


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform can say which cores it may use
        return os.cpu_count() or 1


class _RemoteTraceback(Exception):
    """A worker's formatted traceback, the ``__cause__`` of the exception raised again in the parent."""

    def __str__(self) -> str:
        return self.args[0]


class _Worker(NamedTuple):
    """A forked span worker and the parent's end of its pipe."""

    process: multiprocessing.process.BaseProcess
    pipe: multiprocessing.connection.Connection

    def receive(self, span: str) -> TrialStats:
        """The TrialStats of the span sent last; its exception, raised again; or a RuntimeError if the worker died."""
        try:
            result, trace = self.pipe.recv()
        except (EOFError, OSError):
            self.process.join(1.0)
            raise RuntimeError(
                f"span worker {self.process.pid} exited with code {self.process.exitcode} during {span}"
            ) from None
        if trace is not None:
            raise result from _RemoteTraceback(trace)
        return result


def _span_worker(pipe, inherited) -> None:
    """A worker's loop: run each span that arrives on pipe and send back its TrialStats or its exception.

    It ends on the sentinel None, or when the parent is gone (EOF). It closes
    the parent's ends of the pipes it inherited, its own included, so that
    the parent's exit reads here as EOF, and it ignores SIGINT: on Ctrl-C the
    parent, which gets the same signal, terminates it.
    """
    import signal  # imported here, so that a run without a pool never pays for it

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for end in inherited:
        end.close()
    while True:
        try:
            task = pipe.recv()
        except EOFError:
            return
        if task is None:
            return
        try:
            reply = (run_trials(*task), None)
        except Exception as exc:
            import traceback  # imported here, on the error path only

            reply = (exc, traceback.format_exc())
        pipe.send(reply)


@contextmanager
def _trial_pool(budgets: Iterable[SearchBudget]):
    """cores - 1 forked span workers for a run of these budgets, or None.

    ``_trial_stats`` cuts each budget into one contiguous span per usable
    core; this process runs span 0 and each worker one other span, over
    its own pipe. The pool opens only where it can help and forking is
    safe: at least two usable cores, some budget of more than
    POOL_MIN_TRIALS trials, no other thread in this process (a forked child
    gets a copy of every lock, held ones too), the "fork" start method, and
    a process that is not a daemon (a daemon may have no children). Its
    workers are forked, so they see the kinds and specs of this process as
    they are. When the block ends each worker gets the sentinel None and is
    joined; if the block raises, the workers are terminated and joined
    instead, so no worker outlives the run.
    """
    cores = _usable_cores()
    context = None
    if cores >= 2 and threading.active_count() == 1 and any(b.trials > POOL_MIN_TRIALS for b in budgets):
        import multiprocessing  # imported here, so that a run without a pool never pays for it

        if "fork" in multiprocessing.get_all_start_methods() and not multiprocessing.current_process().daemon:
            context = multiprocessing.get_context("fork")
    if context is None:
        yield None
        return
    pool: list[_Worker] = []
    try:
        for _ in range(cores - 1):
            ours, theirs = context.Pipe()
            inherited = [w.pipe for w in pool] + [ours]
            process = context.Process(target=_span_worker, args=(theirs, inherited), daemon=True)
            process.start()
            pool.append(_Worker(process, ours))
            theirs.close()
        yield pool
    except BaseException:
        for worker in pool:
            worker.process.terminate()
        raise
    else:
        for worker in pool:
            with suppress(OSError):  # a worker that died has closed its end
                worker.pipe.send(None)
    finally:
        for worker in pool:
            worker.process.join()
            worker.pipe.close()


def describe_trial(
    kind: str,
    risk: RiskSpec | None,
    div: DivergenceSpec | None,
    budget: SearchBudget,
    trial: int,
) -> dict:
    """Replay one trial as a block of one and serialize its instance together with its gap."""
    entry = check_kind(kind)
    result = entry.trial(risk, div, budget, trial, trial + 1)
    doc = {"kind": kind, "trial": trial, "seed": budget.seed}
    doc.update(gap=_first(result.gap, result.vacuous), vacuous=bool(result.vacuous[0]))
    if result.product is not None:
        doc["class"] = "product" if result.product[0] else "general"
    instance = entry.serialize(result, 0)
    if instance is not None:
        doc["instance"] = instance
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
    verdict. The trials run on every usable core, span 0 in this process
    and one span on each forked worker (see ``_trial_pool``), with the same
    result, and the same error in the same order, as in one process.
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
