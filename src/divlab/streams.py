"""Seeded trial streams: a run's budget, each trial's PCG64 state, and a block's words read as rows.

Trial k of a run with seed s draws the stream of
``numpy.random.default_rng([s, k])``, so a trial replays from (seed, trial)
whichever block or process runs it. ``SearchBudget.rng_for`` builds that
generator and is the reference; a block builds no generator per trial.
default_rng([s, k]) hashes the 32-bit words of s and k into a pool of four
words with numpy's SeedSequence (NEP 19), draws PCG64's initial state and
sequence from the pool, and seeds PCG64 as O'Neill's srandom does;
``_pcg64_states`` takes the same steps on uint32 and uint64 arrays, one
column per trial, up to srandom's last step.

``_Rows`` reads a block into a (B, W) uint64 array, row b holding trial b's
first W words. PCG64 is a 128-bit LCG (O'Neill, "PCG", 2014): a state s
steps to mult s + inc, j steps to a_j s + c_j inc (Brown, "Random number
generation with arbitrary strides", 1994), and a word is the xor of the
new state's halves rotated right by its top 6 bits (XSL-RR). So a row's
first min(W, 48) words are computed, for every row at once, by exact
128-bit arithmetic on (hi, lo) pairs of uint64 arrays (``_lcg_states``,
``_xsl_rr``). The rest of a row is read only when a draw first reaches
it, by one ``random_raw`` call of a generator set to the row's state past
its computed words: numpy reads a long row faster than the arrays compute
it, and trials take far fewer words than W. The samplers make every draw
of the block from the rows with array code, taking numpy's steps. A
32-bit draw takes the lower half of a new word and keeps the upper half
for the next one, as numpy's ``has_uint32``/``uinteger`` do, and a 64-bit
draw takes a whole word and leaves a kept half alone; each row has its own
cursor and kept half. ``integers`` in [low, high) follows Lemire's method
(Lemire, "Fast random integer generation in an interval", ACM TOMACS
2019), ``permutation`` Fisher-Yates with ``random_interval``'s masked
rejection, ``choice(a, n, replace=False)`` Floyd's algorithm shuffled with
Lemire's method, ``random`` and ``uniform`` numpy's next_double, and
``standard_exponential`` numpy's ziggurat (Marsaglia and Tsang, J. Stat.
Softw. 5(8), 2000) on tables read off numpy, a slow word tested against the
curve as numpy tests it. Each draw is one pass over the rows' words; a row
that the pass cannot settle (a possible Lemire rejection, the ziggurat's
tail, a test within rounding of the curve, or too few words) has that
draw's values made by numpy itself, from a generator set to the trial's
state at the row's cursor, which then refills the row. The bits are numpy's.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Mapping

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

        The reference for every trial's draws: ``CheckKind.trial`` computes a
        block's rows from the states ``_trial_states`` computes, and those
        rows are tested equal to this generator's words; a trial replays by
        hand from it.
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
# 0-d arrays, which numpy takes faster than scalars
_MIX_L, _MIX_R, _XSHIFT = (np.array(n, np.uint32) for n in (0xCA01F9DD, 0x4973F715, 16))
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
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


def _pcg64_states(seed: int, start: int, stop: int) -> np.ndarray:
    """PCG64's state one step before that of ``default_rng([seed, k])``, and its inc, for k in [start, stop).

    A (4, n) uint64 array, one column per trial: the state's upper and
    lower words, then inc's; every k has start's word count. PCG64's
    srandom sets state 0 and inc = 2 initseq + 1, steps once, adds
    initstate and steps once more: this stops before that last step, which
    ``_Rows.read`` takes together with the steps to the trial's words.
    """
    n, seed_words, k_words = stop - start, _uint32_words(seed), _uint32_words(start)
    # k's lowest word counts up from start's; the words above it are start's,
    # or start + 2**32's in the trials past a carry out of the lowest
    lowest = np.arange(n, dtype=np.uint64) + np.uint64(k_words[0])
    above = np.array([k_words[1:], _uint32_words(start + (1 << 32))[1 : len(k_words)]], np.uint32)
    entropy = np.empty((len(seed_words) + len(k_words), n), np.uint32)
    entropy[: len(seed_words)] = np.array(seed_words, np.uint32)[:, None]
    entropy[len(seed_words)] = lowest & _MASK32
    entropy[len(seed_words) + 1 :] = above[(lowest >> 32).astype(np.intp)].T
    first, rounds, beyond, generate = _seeding_constants(len(entropy))
    # SeedSequence.mix_entropy: hash the first words into the pool, zeros past
    # the entropy, then each pool word into every other one in turn
    pool = np.zeros((_POOL_SIZE, n), np.uint32)
    pool[: len(entropy)] = entropy[:_POOL_SIZE]
    pool = _hashed(pool, *first)
    for src, consts in enumerate(rounds):
        word = pool[src]  # a view: _mixed returns a new pool and leaves this one as it is
        pool = _mixed(pool, _hashed(word, *consts))
        pool[src] = word
    # and each entropy word beyond the pool into every pool word
    for word, consts in zip(entropy[_POOL_SIZE:], beyond):
        pool = _mixed(pool, _hashed(word, *consts))
    # generate_state(4, uint64): the pool cycled to 8 words, hashed, read as little-endian pairs
    w = _hashed(np.concatenate([pool, pool]), *generate).astype(np.uint64)
    init_hi, init_lo, seq_hi, seq_lo = w[0::2] | w[1::2] << np.uint64(32)
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    # srandom's first step takes state 0 to inc, and initstate is added
    lo = init_lo + inc_lo
    return np.array([init_hi + inc_hi + (lo < inc_lo), lo, inc_hi, inc_lo])


def _trial_states(budget: SearchBudget, start: int, stop: int) -> np.ndarray:
    """``_pcg64_states`` of each trial in [start, stop): one pass per run of trials with one word count.

    A trial index's word count changes at k = 2**32, and SeedSequence hashes
    each word, so a range across it takes two passes.
    """
    parts = [np.empty((4, 0), np.uint64)]
    while start < stop:
        end = min(stop, 1 << 32 * len(_uint32_words(start)))
        parts.append(_pcg64_states(budget.seed, start, end))
        start = end
    return np.concatenate(parts, axis=1)


def _int128(pair, b: int) -> int:
    """Entry b of a (hi, lo) pair of uint64 arrays, or the two rows of one, as a Python int."""
    return int(pair[0][b]) << 64 | int(pair[1][b])


# uint64 operands of the 128-bit arithmetic, 0-d arrays as well
_LOW32, _HALF, _TOP6, _ROT6 = (np.array(n, np.uint64) for n in (_MASK32, 32, 58, 63))


def _limbs(n: int) -> tuple:
    """A 128-bit constant as the words ``_plus_product`` multiplies by: (hi, lo, lo's lower and upper 32 bits)."""
    lo = n & _MASK64
    return tuple(np.array(w, np.uint64) for w in (n >> 64, lo, lo & _MASK32, lo >> 32))


def _plus_product(s, c: tuple, u) -> tuple[np.ndarray, np.ndarray]:
    """s + c u mod 2**128, s and u (hi, lo) pairs of uint64 arrays, c ``_limbs``, all broadcast together.

    Every product but one wraps at 2**64: the upper word of c u is
    c_hi u_lo + c_lo u_hi plus the upper word of the 64 x 64-bit product
    c_lo u_lo, built from 32-bit halves (Warren, "Hacker's Delight", 8-2),
    in place on three buffers of the result's shape.
    """
    (s_hi, s_lo), (c_hi, c_lo, c0, c1), (u_hi, u_lo) = s, c, u
    u0, u1 = u_lo & _LOW32, u_lo >> _HALF
    t = c0 * u1
    w = c0 * u0
    w >>= _HALF
    t += w  # below 2**64: (2**32 - 1)**2 + 2**32 - 1
    np.multiply(c1, u0, out=w)
    hi = t & _LOW32
    w += hi  # the middle column, below 2**64 as well
    np.multiply(c1, u1, out=hi)
    t >>= _HALF
    hi += t
    w >>= _HALF
    hi += w
    np.multiply(c_hi, u_lo, out=t)
    hi += t
    np.multiply(c_lo, u_hi, out=t)
    hi += t
    lo = np.multiply(c_lo, u_lo, out=w)
    lo += s_lo
    hi += s_hi
    hi += lo < s_lo
    return hi, lo


_STEP = _limbs(_PCG64_MULT - 1)


@cache
def _jump(steps: int) -> tuple[int, int]:
    """(a, c) such that PCG64's LCG takes a state s to a s + c inc in this many steps (Brown, 1994)."""
    a, c, step_a, step_c = 1, 0, _PCG64_MULT, 1
    while steps:
        if steps & 1:
            a, c = a * step_a & _MASK128, (c * step_a + step_c) & _MASK128
        step_a, step_c = step_a * step_a & _MASK128, (step_a + 1) * step_c & _MASK128
        steps >>= 1
    return a, c


@cache
def _step_constants(count: int) -> tuple:
    """c_1 ... c_count of ``_jump`` as ``_limbs`` of uint64 arrays."""
    limbs = np.array([_limbs(_jump(j)[1]) for j in range(1, count + 1)], np.uint64).T.copy()
    limbs.flags.writeable = False
    return tuple(limbs)


def _lcg_states(state, inc, count: int) -> tuple[np.ndarray, np.ndarray]:
    """PCG64's states 1 ... count steps past each row's state, as a (hi, lo) pair of (B, count) uint64 arrays.

    With a_j = 1 + (mult - 1) c_j, the state j steps past s is
    s + c_j u, u = (mult - 1) s + inc: one product a state once each row's
    u is known, for every row and step at once.
    """
    u_hi, u_lo = _plus_product(inc, _STEP, state)
    return _plus_product((state[0][:, None], state[1][:, None]), _step_constants(count), (u_hi[:, None], u_lo[:, None]))


def _xsl_rr(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """PCG64's output of each state into hi: its halves' xor rotated right by its top 6 bits; lo is overwritten."""
    rot = hi >> _TOP6
    lo ^= hi
    np.right_shift(lo, rot, out=hi)
    np.negative(rot, out=rot)
    rot &= _ROT6  # 64 - rot, and 0 for 0
    lo <<= rot
    hi |= lo
    return hi


_THREAD = threading.local()  # each thread's generator: one is never shared across threads


def _generator() -> np.random.Generator:
    """This thread's PCG64 generator, made on first use; each user sets its state before drawing."""
    rng = getattr(_THREAD, "rng", None)
    if rng is None:
        rng = _THREAD.rng = np.random.Generator(np.random.PCG64(0))
    return rng


_PREFIX = 48  # the words of a row that ``_Rows.read`` computes; numpy reads the rest when a draw reaches them
_NO_HALF = np.uint64(1 << 32)  # a row's kept half-word when it keeps none: no half-word is as large
_DOUBLE_UNIT = 2.0**-53  # next_double's unit, a word's top 53 bits counting it

# numpy's ziggurat tables for standard_exponential: a word w draws
# x = (w >> 11) * WE[(w >> 3) & 0xFF], taken when (w >> 11) < KE[(w >> 3) & 0xFF].
# Read off numpy by forcing words, and tested against the installed numpy index by index.
_ZIGGURAT_WE = np.frombuffer(bytes.fromhex(
    "c15dbf94ec64d13c19415d8b9d58603c2b4d5b49b2d66a3cba8d5ba93593713c732a4ae5e622753c807ac2fb9050783c"
    "ccb779efd1387b3c98bd6db7d8ec7d3c3c5cc649f03b803c70f6d624db70813c3326da900298823cca6e3dfe88b3833c"
    "21fe0bc615c5843cc34a029df8cd853cbd2ba7f040cf863c19d017dacdc9873c6f60d35459be883cd237225580ad893c"
    "03525dbec8978a3cc4a3dddda57d8b3c893f8cd77b5f8c3c367cf14da23d8d3c5a73f17866188e3caa4f5fcf0cf08e3c"
    "0932685dd2c48f3c58756aed764b903cfc809b4748b3903caff54987f319913ca0df4beb8c7f913ce7493ee926e4913c"
    "2eff3865d247923c0b6823e19eaa923c4bda26a59a0c933c02826de2d26d933ca06221d153ce933c486770ca282e943c"
    "12e7355f5c8d943c930bcd6bf8eb943c4d6f7829064a953cfdbeb83d8ea7953ccf2eddc79804963ce0680c6d2d61963c"
    "44a9fa6253bd963cbb9079791119973c737907236e74973c72817e7c6fcf973c99d5fe531b2a983cece12b2f7784983c"
    "2ac5d05088de983c44a2fdbd5338993c3813ad42de91993cbf03ff752ceb993c4a8814be42449a3c61d29653259d9a3c"
    "c924f244d8f59a3c9b974c795f4e9b3c898f3fb3bea69b3c99fe5993f9fe9b3c9fd2709a13579c3cdb5ac22b10af9c3c"
    "fbe6f08ef2069d3c8d6bd8f1bd5e9d3c5790426a75b69d3cfe317cf71b0e9e3c4410cf83b4659e3c621be2e541bd9e3c"
    "9f9402e2c6149f3cb5fe572b466c9f3ca1a90465c2c39f3cd93c9a119f0da03c62b10df65d39a03cf876721c1f65a03c"
    "72004bbbe390a03c37017103adbca03c662f7a207ce8a03c15ac17395214a13cbe7d706f3040a13cfb7f77e1176ca13c"
    "96233da90998a13c83523ddd06c4a13ce2c4a99010f0a13c050eb1d3271ca23c29a3c2b34d48a23c9f18d03b8374a23c"
    "aacd8b74c9a0a23c5d3ba56421cda23c211703118cf9a23c1176fb7c0a26a33ca11b8aaa9d52a33cf01a859a467fa33c"
    "fcefcf4c06aca33c6d338dc0ddd8a33cc4094ff4cd05a43cd06c46e6d732a43ca76c7194fc5fa43cc483c8fc3c8da43c"
    "a4186b1d9abaa43cea45cbf414e8a43cfb00d981ae15a53cf8b52cc46743a53c276f31bc4171a53cf99c4e6b3d9fa53c"
    "359311d45bcda53c26cf56fa9dfba53c2e1a73e3042aa63c8c9b5c969158a63ceeebd31b4587a63cdf3c8d7e20b6a63c"
    "08a659cb24e5a63cfba950115314a73c1c04fa61ac43a73c30d177d13173a73c0a24b176e4a2a73cf7177d6bc5d2a73c"
    "7772ceccd502a83c2ae6dfba1633a83ce70861598963a83c540fa4cf2e94a83c9460cc4808c5a83c1315fef316f6a83c"
    "e1738e045c27a93c8a8235b2d858a93cf4bb40398e8aa93c5d03c7da7dbca93c51e9dddca8eea93c2d59d08a1021aa3c"
    "90c65635b653aa3c0ff3d0329b86aa3c7a6581dfc0b9aa3cffacca9d28edaa3cb58b6ed6d320ab3c4225cff8c354ab3c"
    "b64f327bfa88ab3c102607db78bdab3c85fd2d9d40f2ab3c2de0424e5327ac3ca4b1ea82b25cac3cfb2323d85f92ac3c"
    "6ca595f35cc8ac3c8071ed83abfeac3cadf230414d35ad3cfea31eed436cad3c0aa58d5391a3ad3c7f35d24a37dbad3c"
    "9b5026b43713ae3c52a4167c944bae3c7f23f49a4f84ae3c78764a156bbdae3c68915bfce8f6ae3c7fbca06ecb30af3c"
    "d05e5198146baf3ce5e1efb3c6a5af3cd809dd0ae4e0af3cd411f97a370eb03c1b3911ef342cb03ca324929e6b4ab03c"
    "db2611cfdc68b03c0fad3acf8987b03c19c833f773a6b03c6f9400a99cc5b03cb7cfef5005e5b03cceef0b66af04b13c"
    "4a15926a9c24b13c2b3a6feccd44b13cc104c4854565b13c9eae6fdd0486b13c2078a2a70da7b13c5a2a78a661c8b13c"
    "70339baa02eab13ca2f4f093f20bb23c50e54f52332eb23cba3b40e6c650b23ca6dac761af73b23c2b5342e9ee96b23c"
    "51db45b487bab23c702d960e7cdeb23c65592659ce02b33cd0a72a0b8127b33c65c93bb3964cb33c56a88cf81172b33c"
    "4351349cf597b33c838b8d7a44beb33cd0dead8c01e5b33cadeef5e92f0cb43cf842bdc9d233b43c2cc91b85ed5bb43c"
    "3294d3988384b43c4ca15da798adb43c27b11c7b30d7b43c0895b9084f01b53cb2aaac71f82bb53c5aa7f8063157b53c"
    "61441b4cfd82b53c07e138fa61afb53c9ebd880364dcb53c79180897080ab63c942e7b245538b63c32f4c3604f67b63c"
    "ee48974afd96b63c1e7b9a2f65c7b63c0725f4b18df8b63c18d25cce7d2ab73cc371bde23c5db73cf9716bb5d290b73c"
    "d376147d47c5b73c12146ee9a3fab73cc3bec02cf130b83c427368063968b83cab5b69ce85a0b83c95363b82e2d9b83c"
    "4475f3d25a14b93c0e2afc34fb4fb93cd81a8df1d08cb93cead9243aeacab93c78f1493e560aba3c3b4ce843254bba3c"
    "ea86adc2688dba3cc445d88233d1ba3c0ab603c09916bb3c0fea9150b15dbb3c5eda76d291a6bb3c77ef4bde54f1bb3c"
    "a7e0c241163ebc3cf4c8c842f48cbc3c7fa9f2ec0fdebc3cc538276b8d31bd3cec3bec6f9487bd3c9ff14eaf50e0bd3c"
    "6009196ef23bbe3cc183f32aaf9abe3c4aea5067c2fcbe3ca7f791976e62bf3ce5c6f643fecbbf3c2eec62b3e21cc03c"
    "ef8ef58b1156c03c4ea5cbcdc191c03ca0485d7831d0c03ca6924303a811c13c2a4475677856c13cd6c2b3bc039fc13c"
    "7cfac9a0bcebc13c9f9159b62b3dc23ca5aa49aef593c23cf011448ae3f0c23c5ef7cc27ee54c33c61b8c8c74ec1c33c"
    "6213e4669737c43cd15147cdd7b9c43cf673cf3cd84ac53cd21373e17aeec53c72bf4b6d67aac63c2fc6ead65087c73c"
    "19edf2e69f93c83c857b480ddce9c93cfc71da519ec3cb3c83bb7e29d9c9ce3c"
), "<f8")
_ZIGGURAT_KE = np.frombuffer(bytes.fromhex(
    "c697242714521c0000000000000000007e319cd75b7d1300103c3f8ef56e1800aeb00e32b79b1a007c4419f727d11b00"
    "1a65880f1d951c0072395c2dfe1b1d00b2186bd55b7e1d00702c17dd34c91d00c89dacdf09041e003678d4717b331e00"
    "a2b77c178b5a1e006c046f09427b1e003eae08af0d971e009ef04eb1f5ae1e005665b407bdc31e00ce9987f0f6d51e00"
    "88566eae14e61e00d01c36ca6ef41e00a4d4dd764b011f00b696a713e30c1f007af7f16963171f007025450cf2201f00"
    "74a85119ae291f003255b98fb1311f0006c1575112391f004c696eebe23f1f00fa88d73233461f000e3a1dbf104c1f00"
    "22335c4c87511f00c0ecc309a1561f00969909d9665b1f008cd01082e05f1f00725744dd14641f00789685f609681f00"
    "e6022b2ac56b1f00f4e4323d4b6f1f003af19071a0721f00d6094d97c8751f00c05c041bc7781f00f43f41129f7b1f00"
    "8a9f0746537e1f003811e23be6801f006291ad3d5a831f0012b95660b1851f006242b289ed871f00fa749375108a1f00"
    "ac393dba1b8c1f004ad045cc108e1f00163e0102f18f1f00e0588396bd911f00d8af47ac77931f00da648b4f20951f00"
    "92386378b8961f009288960c41981f0080ba46e1ba991f00007f69bc269b1f007a711b56859c1f0002d8cf59d79d1f00"
    "cea161671d9f1f00c036091458a01f0038333aeb87a11f00fcc46b6fada21f008206ce1ac9a31f00a26aee5fdba41f00"
    "7c094daae4a51f008267e45ee5a61f00c41ea5dcdda71f0074a8e67ccea81f00ee5fce93b7a91f0058b8ad7099aa1f00"
    "3282585e74ab1f00840574a348ac1f00e89fbf8216ad1f00c082573bdead1f006c1df208a0ae1f007eb018245caf1f00"
    "127a5bc212b01f00f4df8116c4b01f00faf1b65070b11f003a96b29e17b21f004aa8df2bbab21f00184e7f2158b31f00"
    "0cbec9a6f1b31f00d6ac0ce186b41f00fc93c7f317b51f00aafdc500a5b51f0058fe37282eb61f000a01c988b3b61f00"
    "9807b53f35b71f00a87ddc68b3b71f0008bad61e2eb81f00f647037ba5b81f00740f9a9519b91f000472ba858ab91f00"
    "266f7961f8b91f0086e2ee3d63ba1f0016ec412fcbba1f004491b44830bb1f00e2a4ae9c92bb1f009e02c83cf2bb1f00"
    "9429d2394fbc1f00d440e1a3a9bc1f009e8f548a01bd1f009c72defb56bd1f006ad68b06aabd1f00403fcbb7fabd1f00"
    "de64731c49be1f005e69c94095be1f0028b18630dfbe1f007461def626bf1f00e28a829e6cbf1f00c404a931b0bf1f00"
    "b0fd0fbaf1bf1f008845024131c01f00b2545bcf6ec01f0026148b6daac01f008a699923e4c01f00648a29f91bc11f00"
    "42197df551c11f004a0f771f86c11f00b4749e7db8c11f0042ea2016e9c11f00de05d5ee17c21f00fe833c0d45c21f00"
    "c24f867670c21f000e63902f9ac21f004680e93cc2c21f00b4c6d2a2e8c21f00ec2241650dc31f000e9cde8730c31f00"
    "c67e0b0e52c31f00f866dffa71c31f0086282a5190c31f00fa977413adc31f0048330144c8c31f0040abcce4e1c31f00"
    "a84d8ef7f9c31f006050b87d10c41f0068fd777825c41f00c6bfb5e838c41f002a1115cf4ac41f00e847f42b5bc41f00"
    "04456cff69c41f00b201504977c41f00b8fb2b0983c41f00f67f453e8dc41f001ad299e795c41f00b030dd039dc41f00"
    "32b47991a2c41f00fc078e8ea6c41f008cfbebf8a8c41f009eea16cea9c41f0034fa410ba9c41f00a0284eada6c41f00"
    "742ec8b0a2c41f00e22de6119dc41f00f42d85cc95c41f00c05e26dc8cc41f007a23ec3b82c41f00e6de96e675c41f00"
    "827e81d667c41f0036c09d0558c41f00202e706d46c41f0098cb0b0733c41f000e6e0dcb1dc41f00f6bb96b106c41f00"
    "62cb48b2edc31f003c593ec4d2c31f00b49105deb5c31f004c6199f596c31f0092455a0076c31f00709306f352c31f00"
    "1828b2c12dc31f008878bd5f06c31f0062f2cbbfdcc21f009e9fb9d3b0c21f00f0fc8f8c82c21f0064f179da51c21f00"
    "9ed3b6ac1ec21f0056678cf1e8c11f003cbb3796b0c11f0010cddc8675c11f00b6d674ae37c11f001424bbf6f6c01f00"
    "a44d1848b3c01f00f0af8b896cc01f0064f392a022c01f00b8720f71d5bf1f008e4829dd84bf1f000ac62fc530bf1f00"
    "c60c7707d9be1f00da7d32807dbe1f0014a64b091ebe1f000844357ababd1f0026f8b9a752bd1f001a20c663e6bc1f00"
    "e44d2c7d75bc1f00aab763bfffbb1f00a2e63ff284bb1f008cd1a0d904bb1f00ac701a357fba1f0018b692bff3b91f00"
    "fcabd42e62b91f00164a1733cab81f00545b76762bb81f005c895b9c85b71f009455d540d8b61f004269d9f722b61f00"
    "e0376f4c65b51f00d269bfbf9eb41f0046e703c8ceb31f003e9c53cff4b21f005228443210b21f0004965a3e20b11f00"
    "c2e1423024b01f00a679c4311baf1f0004e1675704ae1f00722dbf9ddeac1f000a0640e6a8ab1f0028ff99f361aa1f00"
    "a2666f6508a91f003c8d50b39aa71f0014f2d12617a61f0000ea8bd47ba41f0094c0c593c6a21f0014f37df4f4a01f00"
    "0abe6b33049f1f00bcf9792bf19c1f00c4ab1544b89a1f00b82f785b55981f00783fd0abc3951f00f2f1cea9fd921f00"
    "1ce49adafc8f1f00f885739eb98c1f00069647ec2a891f008edb04f945851f009a0336c3fd801f0026e93978427c1f00"
    "cc2a58a300771f001c241a0f20711f002a35b734826a1f0066e2a80000631f00c4e34f90665a1f007211ce4e72501f00"
    "da6f5c66c7441f00a2598aa3e5361f000a34503414261f0014047b043e111f00e6cb57faaef61e001e1588a18cd31e00"
    "b02d121ea6a21e007c268bc761591e00b00bac2bf6dd1d00c0e8e4d94ddb1c00"
), "<u8")


# the ziggurat's curve exp(-x) at each strip's edge x = WE[idx] * 2**53, and 1 above strip 1, the top strip:
# a word that the fast path does not take is accepted when
# (FE[idx - 1] - FE[idx]) * next_double + FE[idx] < exp(-x). Computed here, not
# read off numpy, so an entry may differ from numpy's in its last bits: a test
# that falls within _TIE of the curve is left to numpy.
_ZIGGURAT_FE = np.concatenate([[1.0], np.exp(-_ZIGGURAT_WE[1:] * 2.0**53)])
_ZIGGURAT_FE_STEP = np.roll(_ZIGGURAT_FE, 1) - _ZIGGURAT_FE  # FE[idx - 1] - FE[idx]
_TIE = 2.0**-40  # relative: far above the few ulps of FE, np.exp and libm's exp


def _masks(top: np.ndarray) -> np.ndarray:
    """The smallest 2**k - 1 at least top: ``random_interval``'s mask."""
    mask = top.copy()
    for shift in (1, 2, 4, 8, 16):
        mask |= mask >> shift
    return mask


class _Rows:
    """A block's trials as rows of their PCG64 words, read for every draw as numpy's Generator reads them.

    ``words[b]`` holds W consecutive words of trial b's stream, ``cursor[b]``
    indexes the next one to read and ``kept[b]`` is the upper half-word that
    the next 32-bit draw takes first, or _NO_HALF. Row b's word 0 comes
    after PCG64 state ``_origin[b]`` of increment ``_inc[b]``, each a (hi, lo)
    pair of uint64 arrays: the trial's state, or where a draw numpy made last
    left it. A row that ``read`` computed holds only its first ``_prefix``
    words while ``_short[b]``; the rest are read when a draw first reaches
    past them (``_reach``), from ``_after[b]``, the state past the prefix.
    ``_rng`` is a generator that ``advance`` sets to any row's place; only
    it and a tail's read make a row's state a Python int. Each draw method
    takes rows ``sel`` (an index array) and makes their draws in turn, each
    row's in order, as (R, K) arrays zero-padded past each row's draws. It
    makes them in one pass over the rows' words; a row whose draws that pass
    cannot settle (a rare value, or too few words) has all of them made by
    numpy at its place, and is refilled past them.
    """

    __slots__ = ("words", "cursor", "kept", "_origin", "_inc", "_after", "_prefix", "_short", "_rng")

    def __init__(self, words: np.ndarray, origin, inc, kept: np.ndarray, rng: np.random.Generator, prefix: int, after):
        self.words, self.kept, self._rng = words, kept, rng
        self.cursor = np.zeros(len(words), np.intp)
        self._origin, self._inc, self._prefix, self._after = origin, inc, prefix, after
        self._short = np.full(len(words), prefix < words.shape[1])  # the rows that hold only their prefix

    @classmethod
    def read(cls, budget: SearchBudget, start: int, stop: int, width: int) -> _Rows:
        """The rows of trials [start, stop), each trial's first min(width, _PREFIX) words computed from its state."""
        states = _trial_states(budget, start, stop)
        before, inc = states[:2], states[2:]
        prefix = min(width, _PREFIX)
        # one step to each trial's state, the last of PCG64's srandom, then one to each word
        hi, lo = _lcg_states(before, inc, prefix + 1)
        origin, after = (hi[:, 0].copy(), lo[:, 0].copy()), (hi[:, -1].copy(), lo[:, -1].copy())
        words = np.empty((stop - start, width), np.uint64)
        words[:, :prefix] = _xsl_rr(hi, lo)[:, 1:]
        return cls(words, origin, inc, np.full(stop - start, _NO_HALF), _generator(), prefix, after)

    @classmethod
    def of_generator(cls, rng: np.random.Generator, width: int) -> _Rows:
        """A block of one read from a caller's PCG64 generator, a half-word it keeps kept; ``advance(0)`` puts it back."""
        if not isinstance(rng.bit_generator, np.random.PCG64):
            raise TypeError(f"a block is read from a PCG64 generator, got {type(rng.bit_generator).__name__}")
        state = rng.bit_generator.state
        kept = state["uinteger"] if state["has_uint32"] else _NO_HALF
        pcg = state["state"]
        origin, inc = (np.array([[n >> 64], [n & _MASK64]], np.uint64) for n in (pcg["state"], pcg["inc"]))
        words = rng.bit_generator.random_raw(width)[None]
        return cls(words, origin, inc, np.array([kept], np.uint64), rng, width, None)

    def advance(self, b: int) -> np.random.Generator:
        """The block's generator set to row b's place: trial b's stream at the row's cursor, its kept half-word kept."""
        return self._at(b, self.cursor[b].item(), self.kept[b].item())

    def _set(self, state: int, b: int, kept: int = _NO_HALF.item()) -> np.random.Generator:
        """The block's generator set to PCG64 state of row b's increment, keeping this half-word."""
        self._rng.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": _int128(self._inc, b)},
            "has_uint32": kept >> 32 ^ 1,
            "uinteger": kept & _MASK32,
        }
        return self._rng

    def _at(self, b: int, cursor: int, kept: int) -> np.random.Generator:
        """The block's generator set to trial b's stream this many words past row b's first, keeping this half-word."""
        a, c = _jump(cursor)
        return self._set((a * _int128(self._origin, b) + c * _int128(self._inc, b)) & _MASK128, b, kept)

    def _by_numpy(self, sel, short, out: np.ndarray, draw: Callable, cursor: np.ndarray, kept: np.ndarray) -> None:
        """The draws of each short row i made by numpy: out[i] starts with draw(rng, i).

        rng is set where row sel[i] stood before the draw, at cursor[i] with
        kept[i]; the row is then refilled from where numpy leaves its stream.
        """
        for i in short.nonzero()[0].tolist():
            b = int(sel[i])
            rng = self._at(b, int(cursor[i]), int(kept[i]))
            values = draw(rng, i)
            out[i, : len(values)] = values
            state = rng.bit_generator.state
            self._origin[0][b], self._origin[1][b] = divmod(state["state"]["state"], 1 << 64)
            self.kept[b] = state["uinteger"] if state["has_uint32"] else _NO_HALF
            self.words[b] = rng.bit_generator.random_raw(self.words.shape[1])
            self.cursor[b] = 0
            self._short[b] = False

    def _reach(self, sel: np.ndarray, end: np.ndarray) -> None:
        """The tail of each row sel[i] that holds only its prefix and that a draw reads up to word end[i] - 1, past it.

        numpy reads a row's tail in one call, from the state past its prefix.
        """
        width, prefix = self.words.shape[1], self._prefix
        if prefix < width:
            for b in sel[self._short[sel] & (end > prefix)].tolist():
                self.words[b, prefix:] = self._set(_int128(self._after, b), b).bit_generator.random_raw(width - prefix)
                self._short[b] = False

    def _words(self, sel: np.ndarray, at: np.ndarray) -> np.ndarray:
        """Word at[i, j] of row sel[i]; past the row, another word of the block."""
        self._reach(sel, at.max(axis=1, initial=-1) + 1)
        return np.take(self.words, (sel * self.words.shape[1])[:, None] + at, mode="clip")

    def uniforms(self, sel: np.ndarray, count: np.ndarray, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """count[i] of ``rng.uniform(low, high)`` each, or of ``rng.random()``: low + (high - low) * next_double."""
        cursor = self.cursor[sel]
        k = np.arange(count.max(initial=0))
        live = k < count[:, None]
        out = np.where(live, low + (high - low) * ((self._words(sel, cursor[:, None] + k) >> 11) * _DOUBLE_UNIT), 0.0)
        self.cursor[sel] = cursor + count
        short = cursor + count > self.words.shape[1]
        self._by_numpy(sel, short, out, lambda rng, i: rng.uniform(low, high, count[i]), cursor, self.kept[sel])
        return out

    def uniform(self, sel: np.ndarray, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """One ``rng.uniform(low, high)`` for each row."""
        return self.uniforms(sel, np.ones(sel.size, np.intp), low, high)[:, 0]

    def exponentials(self, sel: np.ndarray, count: np.ndarray) -> np.ndarray:
        """count[i] of ``rng.standard_exponential()`` each: numpy's ziggurat.

        A word w draws x = (w >> 11) * WE[idx] in strip idx = (w >> 3) & 0xFF,
        and takes only itself when (w >> 11) < KE[idx]. A slow word takes the
        next word too: in strip 0 for the tail, which numpy draws; in any other
        strip to test x against the curve, and the draw starts over past both
        words when the test fails. A slow word whose next word is slow too is
        left to numpy. The rows' words are read one after another into one
        flat run, each row's count and some room for slow draws.
        """
        out = np.zeros((sel.size, count.max(initial=0)))
        cursor = self.cursor[sel]
        room = count + (count >> 3) + 4
        end = np.cumsum(room)
        first = end - room  # each row's first entry in the run
        row = np.repeat(np.arange(sel.size), room)
        self._reach(sel, cursor + room)
        w = np.take(self.words, np.repeat(sel * self.words.shape[1] + cursor - first, room) + np.arange(row.size), mode="clip")
        ri, idx = w >> 11, (w >> 3 & 0xFF).astype(np.intp)
        x, fast = ri.view(np.int64) * _ZIGGURAT_WE[idx], ri < _ZIGGURAT_KE[idx]
        slow = (~fast).nonzero()[0]
        then = np.minimum(slow + 1, row.size - 1)
        inside = slow + 1 < end[row[slow]]  # the second word is the row's
        strip, curve = idx[slow], np.exp(-x[slow])
        test = _ZIGGURAT_FE_STEP[strip] * ((w[then] >> 11) * _DOUBLE_UNIT) + _ZIGGURAT_FE[strip]
        unsettled = (strip == 0) | (np.abs(test - curve) <= curve * _TIE) | ~inside | ~fast[then]
        # a slow draw's second word gives no value, nor does its first unless the test passes
        value = np.ones(row.size, bool)
        value[then[inside]] = False
        value[slow[(test >= curve) | unsettled]] = False
        made = value.cumsum()
        made -= (made - value)[first][row]  # the values of its row through each entry
        last = (value & (made == count[row])).nonzero()[0]  # the entry of each row's last value
        took = np.zeros(sel.size, np.intp)
        took[row[last]] = last - first[row[last]] + 1 + ~fast[last]
        self.cursor[sel] = cursor + took
        short = (took == 0) & (count > 0) | (cursor + took > self.words.shape[1])
        stuck = slow[unsettled]
        short[row[stuck][stuck < (first + took)[row[stuck]]]] = True
        own = value & (made <= count[row])
        out[row[own], made[own] - 1] = x[own]
        self._by_numpy(sel, short, out, lambda rng, i: rng.standard_exponential(count[i]), cursor, self.kept[sel])
        return out

    def _halves(self, sel: np.ndarray, cursor: np.ndarray, kept: np.ndarray, t: np.ndarray) -> tuple:
        """The t[i, j]-th next half-word of row sel[i], counting from 0, its word, and whether that lies past the row.

        A kept half-word comes first, then the lower and the upper half of each next word.
        """
        u = t - (kept != _NO_HALF)[:, None]
        at = cursor[:, None] + (u >> 1)
        w = self._words(sel, at)
        half = np.where(u & 1, w >> 32, w & _MASK32)
        return np.where(u < 0, kept[:, None], half), w, at >= self.words.shape[1]

    def _move(self, sel: np.ndarray, cursor: np.ndarray, kept: np.ndarray, q: np.ndarray, after: np.ndarray) -> None:
        """Rows sel, standing at cursor with kept, moved past their next q half-words; after is the half-word next to them."""
        new = q - (kept != _NO_HALF)  # the halves of new words taken; -1 when a kept one stays
        self.cursor[sel] = cursor + ((new + 1) >> 1)
        self.kept[sel] = np.where(q == 0, kept, np.where(new & 1, after, _NO_HALF))

    def lemire(self, sel: np.ndarray, span: np.ndarray) -> np.ndarray:
        """``rng.integers(0, span)`` for each entry of span (R, K), row sel[i] drawing row i's in turn.

        A span of 0 pads a row's draws; a span of 1 draws 0 and takes no
        half-word. A product x * span whose low half falls below 2**32 mod
        span is rejected; numpy draws the values of a row with a low half
        below span, the cheap test that numpy makes first.
        """
        cursor, kept = self.cursor[sel], self.kept[sel]
        span = span.astype(np.uint64)
        takes = span > 1
        q = takes.cumsum(axis=1)
        half, w, past = self._halves(sel, cursor, kept, q - 1)
        m = half * span
        short = (takes & (past | (m & _MASK32 < span))).any(axis=1)
        out = np.where(takes, m >> 32, 0).astype(np.int64)
        if span.shape[1]:
            # the last column's word is the last draw's: its upper half follows a lower one
            self._move(sel, cursor, kept, q[:, -1], w[:, -1] >> 32)
        self._by_numpy(sel, short, out, lambda rng, i: [rng.integers(0, s) if s else 0 for s in span[i].tolist()], cursor, kept)
        return out

    def integers(self, sel: np.ndarray, low, high) -> np.ndarray:
        """``rng.integers(low, high)`` for each row, low and high scalars or one per row."""
        span = np.empty((sel.size, 1), np.int64)
        span[:, 0] = high - low
        return low + self.lemire(sel, span)[:, 0]

    def permutations(self, sel: np.ndarray, n: np.ndarray) -> np.ndarray:
        """``rng.permutation(n[i])`` of each row: Fisher-Yates from the top, each swap's index by ``random_interval``.

        random_interval(i) takes the next half-word under the mask 2**k - 1 >= i,
        and the next again while the value exceeds i. A row looks at its next
        2 n + 16 halves; numpy draws a row that needs more.
        """
        size = int(n.max(initial=0))
        out = np.tile(np.arange(size), (sel.size, 1))
        if size < 2:
            return out
        cursor, kept = self.cursor[sel], self.kept[sel]
        top = np.maximum((n - 1)[:, None] - np.arange(size - 1), 0)  # the swaps' i, n - 1 down to 1; 0 for none
        t = np.arange(2 * size + 17)
        half, _, past = self._halves(sel, cursor, kept, np.broadcast_to(t, (sel.size, t.size)))
        value = half[:, None, :-1] & _masks(top.astype(np.uint64))[:, :, None]
        fits = (value <= top[:, :, None].astype(np.uint64)) & ~past[:, None, :-1]
        rows = np.arange(sel.size)
        taken = np.zeros(sel.size, np.intp)  # the halves each row has taken
        short = np.zeros(sel.size, bool)
        for s in range(size - 1):
            act = top[:, s] >= 1
            free = fits[:, s] & (t[:-1] >= taken[:, None])
            at = free.argmax(axis=1)
            short |= act & ~free[rows, at]
            i, j = top[:, s], np.where(act & ~short, value[rows, s, at], 0)
            out[rows, i], out[rows, j] = out[rows, j], out[rows, i]
            taken = np.where(act, at + 1, taken)
        self._move(sel, cursor, kept, taken, half[rows, taken])
        self._by_numpy(sel, short, out, lambda rng, i: rng.permutation(n[i]), cursor, kept)
        return out
