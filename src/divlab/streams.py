"""Seeded trial streams: a run's budget, each trial's generator, and a reader of its raw words.

Trial k of a run with seed s draws the stream of
``numpy.random.default_rng([s, k])``, so a trial replays from (seed, trial)
whichever block or process runs it. ``SearchBudget.rng_for`` builds that
generator and is the reference. A block does not build one per trial:
``_trial_rngs`` sets one generator to each of its trials' states in turn,
and ``_pcg64_states`` computes the states of a run of trials in one
vectorized pass. default_rng([s, k]) hashes the 32-bit words of s and k
into a pool of four words with numpy's SeedSequence (NEP 19), draws
PCG64's initial state and sequence from the pool, and seeds PCG64 as
O'Neill's srandom does; ``_pcg64_states`` takes the same steps on uint32
arrays, one column per trial.

numpy's Generator makes bounded integers, permutations and distinct picks
from 32-bit halves of PCG64's 64-bit words: a 32-bit draw takes the lower
half of a new word and keeps the upper half for the next one (its state's
``has_uint32`` and ``uinteger``), and a 64-bit draw (``random``,
``uniform``, ``standard_exponential``) takes a whole word and leaves a kept
half alone. ``_Words`` reads a trial's words with
``bit_generator.random_raw`` and takes numpy's steps in Python, so a draw
costs a word or two rather than a Generator call: ``integers`` in
[low, high) by Lemire's method (Lemire, "Fast random integer generation in
an interval", ACM TOMACS 2019), ``permutation`` as Fisher-Yates with
``random_interval``'s masked rejection, ``choice(a, n, replace=False)`` as
Floyd's algorithm shuffled with Lemire's method, and a scalar uniform from
one whole word. The bits are numpy's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import ConfigParseError, typed_field


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
    bit_generator = rng.bit_generator
    pcg = {"state": 0, "inc": 0}
    full = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    while start < stop:
        end = min(stop, 1 << 32 * len(_uint32_words(start)))
        for state, inc in _pcg64_states(budget.seed, start, end):
            pcg["state"], pcg["inc"] = state, inc
            bit_generator.state = full
            yield rng
        start = end


_SPAN32 = 1 << 32  # the widest range that numpy's 32-bit Lemire method draws
# the most values of a sized integers draw made here: past them numpy's own
# call costs less than the loop (one core, numpy 2.4)
_INTEGERS_LOOP_MAX = 12
_DOUBLE_UNIT = 2.0**-53  # next_double's unit, a word's top 53 bits counting it


def _handed_over():
    raise RuntimeError("after a sized integers draw numpy keeps the half-word: no 32-bit draw may follow")


class _Words:
    """One trial's PCG64 words, read for its 32-bit draws and scalar uniforms as numpy's Generator reads them.

    ``rng`` is the trial's generator; it makes the trial's other draws from
    the same words, in turn with these. ``kept`` is the upper half-word of
    the last word a 32-bit draw opened, which the next one takes first, or
    None; the generator starts without one (``_trial_rngs`` clears it) and
    never holds one while the reader does. A sized draw past its loop's
    size goes to numpy once no half-word is kept, and from then on numpy
    keeps it: the reader refuses any later 32-bit draw of its own.
    """

    __slots__ = ("rng", "_word", "_raw", "kept")

    def __init__(self, rng: np.random.Generator):
        self.rng = None
        self.bound(rng)

    def bound(self, rng: np.random.Generator) -> _Words:
        """The reader of rng's next trial: one reader serves a block."""
        if rng is not self.rng:
            self.rng = rng
            self._word = rng.bit_generator.random_raw
        self._raw = self._word
        self.kept = None
        return self

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """``rng.uniform(low, high)``, or ``rng.random()``: numpy's low + (high - low) * next_double, from a whole word."""
        return low + (high - low) * ((self._word() >> 11) * _DOUBLE_UNIT)

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
