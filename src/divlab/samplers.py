"""Block samplers: each check kind's instances, drawn trial by trial and finished block by block.

A sampler is a pair (draw, finish). draw(words, budget) makes one trial's
draws from its ``_Words``, in the order of earlier versions, and keeps what
they return: sizes, standard exponentials, uniforms, permutations, payoff
indices, sparsity keep masks. Sizes, permutations, distinct grid values,
payoff indices and scalar uniforms come through the reader; standard
exponentials, sized uniforms, keep masks and payoff draws of more than
_INTEGERS_LOOP_MAX values stay Generator calls, and exponential vectors
with no draw between them share one call. No draw depends on a drawn
value, only on sizes and keep masks, so the arithmetic can wait.
finish(draws) does all of it for a block of trials at once on zero-padded
arrays: Dirichlet(1) weights as normalized standard exponentials (the
stream and bits of numpy's ``dirichlet``), payoffs and distinct law values
by integer index into VALUE_GRID (the streams of ``integers`` and
``choice``), sparsification, outer products, the renormalizations that
FiniteDist, JointDist and Kernel apply, kernel rows, and 0/1 map matrices.
Elementwise steps and running sums (cumsum) are blind to padding; np.sum
adds pairwise from 8 entries on, so ``_row_sums`` sums the trials of each
exact size together, with the bits of each trial's own 1-D sum. So every
trial keeps its bits, and reports of earlier versions replay unchanged.

A finished block holds what its kinds evaluate, and ``block.trial(b)``
reads out trial b's draw as the one-trial samplers of earlier versions
returned it, for the serializers: laws, kernels, joint laws and maps are
built only there. A budget sets the sizes and the sparsity; every other
parameter of the samplers is a module constant.
``sample_conditional_instance`` finishes a block of one from a caller's
generator; it leaves the generator at the right word, but may drop the
half-word it keeps for its next 32-bit draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .prob import FiniteDist, JointDist, Partition
from .streams import SearchBudget, _trial_rngs, _Words

# the payoff values that samplers draw from: -2.0, -1.9, ..., 2.0
VALUE_GRID = np.linspace(-2.0, 2.0, 41)
VALUE_GRID.flags.writeable = False
# the chance that a joint instance's reference law is a product of its marginals
PRODUCT_FRACTION = 0.5


class _Sampler(NamedTuple):
    draw: Callable  # (words, budget) -> one trial's raw draws
    finish: Callable  # (a block's raw draws) -> the finished block


def _configured(draw: Callable, finish: Callable, **options) -> _Sampler:
    """The sampler of draw and finish, both given the same options."""
    return _Sampler(partial(draw, **options), partial(finish, **options))


def _finished(sampler: _Sampler, budget: SearchBudget, start: int, stop: int):
    """The finished block of trials [start, stop): each trial's draws from its stream in turn, then the arithmetic."""
    rngs = _trial_rngs(budget, start, stop)
    words = _Words(next(rngs))
    draw = sampler.draw
    return sampler.finish([draw(words, budget), *(draw(words.bound(rng), budget) for rng in rngs)])


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


def _draws_keep_mask(sparsity: float) -> bool:
    """Whether a law of this sparsity draws a keep mask: without one nothing is zeroed."""
    return sparsity > 0.0


def _keep_mask(words: _Words, n: int, sparsity: float) -> np.ndarray | None:
    """Which of n weights a sparse law keeps, at least one; None when nothing is zeroed."""
    if not _draws_keep_mask(sparsity):
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
    """A joint instance of at most cap atoms per axis; its adjacent exponential vectors from one call."""
    rng = words.rng
    n_e = words.integer(2, min(budget.max_e, cap) + 1)
    n_f = words.integer(2, min(budget.max_f, cap) + 1)
    n = n_e * n_f
    product = words.uniform() < PRODUCT_FRACTION
    m = n_e + n_f if product else n  # the reference law's exponentials
    if payoffs or _draws_keep_mask(budget.sparsity):
        e = rng.standard_exponential(m)
        keep = _keep_mask(words, n, budget.sparsity)
        paired = words.integers(VALUE_GRID.size, n) if payoffs else rng.standard_exponential(n)
    else:
        e = rng.standard_exponential(m + n)
        keep, paired = None, e[m:]
    exps = (e[:n_e], e[n_e:m]) if product else (e[:m],)
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


def _joint_dist(w: np.ndarray) -> JointDist:
    return JointDist(_labels("e", w.shape[0]), _labels("f", w.shape[1]), w)


def _conditional_instance(draw: _JointDraw) -> ConditionalInstance:
    return ConditionalInstance(_joint_dist(draw.w), draw.paired, draw.is_product)


def sample_conditional_instance(rng: np.random.Generator, budget: SearchBudget) -> ConditionalInstance:
    return _conditional_instance(_finished_one(_CONDITIONAL, rng, budget).trial(0))


# pairs of laws on one atom set, pushed along a chain: duality and the data-processing kinds


def _draw_pair(words: _Words, budget: SearchBudget) -> tuple:
    """(mu's exponentials, its keep mask, nu's exponentials) on one atom set."""
    n = words.integer(2, budget.max_e + 1)
    if not _draws_keep_mask(budget.sparsity):
        mu, nu = words.rng.standard_exponential((2, n))
        return mu, None, nu
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
    return words.rng.standard_exponential((4, n)), words.uniform(0.05, 0.95)


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
    return m1, m2, words.uniform(0.05, 0.95)


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
