"""Block samplers: each check kind's instances, drawn and finished as arrays over a block of trials.

A sampler is one function (rows, budget) -> the finished block. It first
makes the block's draws from its ``_Rows``, each trial's in the order of
earlier versions, as arrays over the block's trials: sizes, standard
exponentials, uniforms, permutations, payoff indices, distinct grid values,
sparsity keep masks, each zero-padded past a trial's own. A draw that only
some trials take (a keep mask's fallback, a component law) runs on just
those rows. A row holds ``_row_width(budget)`` words, about the most a trial
takes, so that rows rarely run out. No draw depends on a drawn value, only
on sizes and keep masks, so the arithmetic can wait until the draws are
made, and then does all of it at once on the padded arrays: Dirichlet(1)
weights as normalized standard exponentials (the stream and bits of
numpy's ``dirichlet``), payoffs and distinct law values by integer index
into VALUE_GRID (the streams of ``integers`` and ``choice``),
sparsification, outer products, the renormalizations that FiniteDist,
JointDist and Kernel apply, kernel rows, and 0/1 map matrices. The
arithmetic reads no words, so where it runs among the draws moves no stream.
Elementwise steps and running sums (cumsum) are blind to padding; np.sum
adds in blocks of 8 from 8 entries on, so ``_row_sums`` sums together only
the trials whose sizes pad alike, with the bits of each trial's own 1-D sum. So every
trial keeps its bits, and reports of earlier versions replay unchanged.

A finished block holds what its kinds evaluate, and ``block.trial(b)``
reads out trial b's draw as the one-trial samplers of earlier versions
returned it, for the serializers: laws, kernels, joint laws and maps are
built only there. A budget sets the sizes and the sparsity; every other
parameter of the samplers is a module constant.
``sample_conditional_instance`` samples a block of one read from a
caller's generator, and leaves the generator past the trial's draws with
the half-word they keep, as numpy's own draws would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .prob import FiniteDist, JointDist, Partition
from .streams import SearchBudget, _Rows

# the payoff values that samplers draw from: -2.0, -1.9, ..., 2.0
VALUE_GRID = np.linspace(-2.0, 2.0, 41)
VALUE_GRID.flags.writeable = False
# the chance that a joint instance's reference law is a product of its marginals
PRODUCT_FRACTION = 0.5


def _row_width(budget: SearchBudget) -> int:
    """The words each row holds: about the most that a trial of any sampler takes at the budget's sizes."""
    return 2 * budget.max_e * budget.max_f + 16


def _finished(sampler: Callable, budget: SearchBudget, start: int, stop: int):
    """The finished block of trials [start, stop): the block's rows read, then sampled."""
    return sampler(_Rows.read(budget, start, stop, _row_width(budget)), budget)


def _each(rows: _Rows) -> np.ndarray:
    """The indices of all the block's rows."""
    return np.arange(len(rows.words))


def _own_entries(shapes: np.ndarray, dims: tuple) -> np.ndarray:
    """The mask of each trial's entries in a zero-padded array of these dims, trial b being of shape shapes[b].

    Its True entries run in row-major order, trial after trial: the order of
    the trials' raveled arrays one after another.
    """
    mask = np.arange(dims[0]) < shapes[:, :1]
    for axis in range(1, len(dims)):
        mask = mask[..., None] & (np.arange(dims[axis]) < shapes[:, axis].reshape((-1,) + (1,) * (axis + 1)))
    return mask


def _padded(arrays: list) -> np.ndarray:
    """Arrays of one rank as one zero-padded array, stacked along a new first axis."""
    shapes = np.array([a.shape for a in arrays])
    out = np.zeros((len(arrays), *shapes.max(axis=0)))
    out[_own_entries(shapes, out.shape[1:])] = np.concatenate(arrays, axis=None)
    return out


def _slices(x: np.ndarray, offset: np.ndarray, length: np.ndarray) -> np.ndarray:
    """x[b, offset[b] : offset[b] + length[b]] for each row b of x, zero-padded to the longest."""
    k = np.arange(int(length.max()))
    at = np.minimum(offset[:, None] + k, x.shape[1] - 1)
    return np.where(k < length[:, None], x[np.arange(len(x))[:, None], at], 0)


def _unflattened(flat: np.ndarray, n_rows, n_cols: np.ndarray) -> np.ndarray:
    """Each row of flat read row after row as an n_rows[b] x n_cols[b] matrix, zero-padded to the largest."""
    n_rows = np.broadcast_to(n_rows, n_cols.shape)
    i, j = np.arange(n_rows.max())[:, None], np.arange(n_cols.max())
    at = i * n_cols[:, None, None] + j
    own = (i < n_rows[:, None, None]) & (j < n_cols[:, None, None])
    entries = np.take_along_axis(flat, np.minimum(at, flat.shape[1] - 1).reshape(len(flat), -1), 1)
    return np.where(own, entries.reshape(at.shape), 0)


def _row_sums(x: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Sums along the last axis of x[b] over its first size[b] entries, with the bits of their own 1-D sums.

    numpy sums fewer than 8 entries one by one, and 8 to 128 with 8 running
    sums 8 entries apart, adding the last n % 8 entries one by one: trailing
    zeros leave such a sum as it is while they leave n // 8 alone. So the
    trials whose sizes share n // 8 are summed together over 8 (n // 8) + 7
    entries; past 128 entries numpy sums pairwise, and each size on its own.
    """
    out = np.empty(x.shape[:-1])
    group = np.where(size > 128, size, size >> 3)
    for g in set(group.tolist()):
        rows = (group == g).nonzero()[0]
        out[rows] = x[rows, ..., : g if g > 128 else min(8 * g + 7, 128)].sum(axis=-1)
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


def _keep_mask(rows: _Rows, sel: np.ndarray, n: np.ndarray, sparsity: float) -> np.ndarray:
    """Which of each row's n weights a sparse law keeps, at least one: ``rng.random(n) >= sparsity``."""
    keep = (rows.uniforms(sel, n) >= sparsity) & _own_entries(n[:, None], (n.max(),))
    none = np.flatnonzero(~keep.any(axis=1))
    if none.size:
        keep[none, rows.integers(sel[none], 0, n[none])] = True
    return keep


def _sparsified(w: np.ndarray, keep: np.ndarray | None, size: np.ndarray) -> np.ndarray:
    """Padded weights with the entries their keep mask drops zeroed, renormalized; unchanged without one."""
    if keep is None:
        return w
    return _normalized(np.where(keep, w, 0.0), size)


def _one_hot(columns: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Zero-padded 0/1 matrices: row i < size[b] of matrix b has its 1 in column columns[b, i]."""
    b, i = np.nonzero(_own_entries(size[:, None], columns.shape[1:]))
    out = np.zeros((*columns.shape, int(columns[b, i].max()) + 1))
    out[b, i, columns[b, i]] = 1.0
    return out


def _values(indices: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The values of VALUE_GRID at each row's first size[b] indices, zero-padded: the values drawn by index."""
    return np.where(_own_entries(size[:, None], indices.shape[1:]), VALUE_GRID[indices], 0.0)


def _first_seen(images: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Each image's rank among the distinct images of its row in the order they first appear: a map's 0/1 columns.

    The first size[b] images of row b count.
    """
    own = _own_entries(size[:, None], images.shape[1:])
    first = ((images[:, :, None] == images[:, None, :]) & own[:, None, :]).argmax(axis=2)
    new = first == np.arange(images.shape[1])
    return np.where(own, np.take_along_axis(new.cumsum(axis=1) - 1, first, 1), 0)


def _map_shapes(columns: np.ndarray, size: np.ndarray) -> np.ndarray:
    return np.column_stack([size, columns.max(axis=1) + 1])


def _labels(prefix: str, n: int) -> tuple:
    return tuple(f"{prefix}{i}" for i in range(n))


def _distinct(rows: _Rows, sel: np.ndarray, population: int, n: np.ndarray) -> np.ndarray:
    """The indices that ``rng.choice(a, n, replace=False)`` takes from an array a of this size, for each row.

    Floyd's algorithm picks an n-set, a value already picked giving way to
    the top of its range, and a Fisher-Yates pass shuffles it, all with
    Lemire's method.
    """
    width, nn = int(n.max()), n[:, None]
    k = np.arange(2 * width - 1)
    picks = rows.lemire(sel, np.where(k < nn, population - nn + 1 + k, np.where(k < 2 * nn - 1, 2 * nn - k, 0)))
    out = np.zeros((sel.size, width), np.int64)
    for j in range(width):
        pick = picks[:, j]
        out[:, j] = np.where((out[:, :j] == pick[:, None]).any(axis=1), population - n + j, pick)
    for s in range(width - 1):
        act = np.flatnonzero(n - 1 - s >= 1)
        i, j = n[act] - 1 - s, picks[act, n[act] + s]
        out[act, i], out[act, j] = out[act, j], out[act, i]
    return np.where(k[:width] < nn, out, 0)


def _surjections(rows: _Rows, sel: np.ndarray, n_from: np.ndarray, n_to: np.ndarray) -> np.ndarray:
    """Each row's map of n_from atoms onto n_to: a permutation's first n_to atoms go to 0, 1, ..., and each
    other atom, in increasing order, to a draw in [0, n_to)."""
    perm = rows.permutations(sel, n_from)
    k = np.arange(perm.shape[1])
    b, i = np.nonzero(k < n_to[:, None])
    out = np.zeros(perm.shape, np.int64)
    out[b, perm[b, i]] = i
    rest = _own_entries(n_from[:, None], perm.shape[1:])
    rest[b, perm[b, i]] = False
    others = k < (n_from - n_to)[:, None]
    out[rest] = rows.lemire(sel, np.where(others, n_to[:, None], 0))[others]
    return out


def _sizes(rows: _Rows, sel: np.ndarray, *highs: int) -> np.ndarray:
    """``rng.integers(2, high)`` for each high in turn, (K, R): a trial's sizes drawn one after another."""
    return 2 + rows.lemire(sel, np.full((sel.size, len(highs)), np.subtract(highs, 2))).T


def _grid_laws(rows: _Rows, sel: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The indices of n distinct values of VALUE_GRID, as ``choice`` draws them, and the exponentials of their weights."""
    return _distinct(rows, sel, VALUE_GRID.size, n), rows.exponentials(sel, n)


# joint instances: the product kinds, the conditional kinds, lemma_identity and key_identity

# the most atoms per axis of a lemma_identity or key_identity instance, the limit of the grid oracle:
# checks and searches refuse larger sizes, and the sampler caps a direct run_trials call
_ORACLE_ATOMS = 4


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

    n_e: np.ndarray
    n_f: np.ndarray
    product: np.ndarray
    drawn_w: np.ndarray
    drawn_paired: np.ndarray
    w: np.ndarray
    paired: np.ndarray
    joint: np.ndarray | None

    def trial(self, b: int) -> _JointDraw:
        n_e, n_f = self.n_e[b], self.n_f[b]
        w, paired = (x[b, : n_e * n_f].reshape(n_e, n_f) for x in (self.drawn_w, self.drawn_paired))
        return _JointDraw(w, paired, bool(self.product[b]))


def _joint(rows: _Rows, budget: SearchBudget, payoffs: bool, cap: float = math.inf) -> _JointBlock:
    """Joint instances of at most cap atoms per axis; a trial's adjacent exponential vectors from one run of words.

    A trial draws its reference law's exponentials (its marginals' n_e then
    n_f, or its n_e * n_f), their keep mask, then nu_bar's n_e * n_f
    exponentials or the payoffs' indices into VALUE_GRID.
    """
    sel = _each(rows)
    n_e, n_f = _sizes(rows, sel, min(budget.max_e, cap) + 1, min(budget.max_f, cap) + 1)
    size = n_e * n_f
    product = rows.uniform(sel) < PRODUCT_FRACTION  # whether the reference law is a product of its marginals
    m = np.where(product, n_e + n_f, size)  # the reference law's exponentials
    sparse = _draws_keep_mask(budget.sparsity)
    flat = _own_entries(size[:, None], (size.max(),))  # each trial's n_e * n_f entries, row after row
    keep = None
    if payoffs or sparse:
        exps = rows.exponentials(sel, m)
        if sparse:
            keep = _keep_mask(rows, sel, size, budget.sparsity)
        paired = rows.lemire(sel, np.where(flat, VALUE_GRID.size, 0)) if payoffs else rows.exponentials(sel, size)
    else:
        e = rows.exponentials(sel, m + size)
        exps, paired = _slices(e, 0 * m, m), _slices(e, m, size)
    grid = np.column_stack([n_e, n_f])
    # every exponential vector of the block, a product law's two marginals in turn, in one normalization
    count = 1 + product
    first = np.cumsum(count) - count  # each trial's first vector
    owner = np.repeat(np.arange(size.size), count)
    second = np.arange(owner.size) - first[owner] == 1
    length = np.where(second, n_f[owner], np.where(product[owner], n_e[owner], size[owner]))
    d = _dirichlet(_slices(exps[owner], np.where(second, n_e[owner], 0), length), length)
    w = np.zeros(flat.shape)
    w[~product, : d.shape[1]] = d[first[~product]]
    if product.any():
        outer = d[first[product], :, None] * d[first[product] + 1, None, :]
        w[flat & product[:, None]] = outer[_own_entries(grid[product], outer.shape[1:])]
    w = _sparsified(w, keep, size)
    stored = _normalized(w, size)  # JointDist's renormalization
    if payoffs:
        paired = stored_paired = _values(paired, size)
    else:
        paired = _dirichlet(paired, size)
        stored_paired = _normalized(paired, size)
    cells = _own_entries(grid, tuple(grid.max(axis=0)))

    def on_grid(x: np.ndarray) -> np.ndarray:
        out = np.zeros(cells.shape)
        out[cells] = x[flat]
        return out

    evaluated = _normalized(stored, size) if payoffs else stored  # and flat()'s FiniteDist's
    joint = on_grid(stored) if payoffs else None
    return _JointBlock(n_e, n_f, product, w, paired, on_grid(evaluated), on_grid(stored_paired), joint)


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
    """A conditional instance drawn from a caller's PCG64 generator, with the bits of the trial of that stream.

    A half-word that rng keeps from an earlier 32-bit draw is taken first,
    as numpy takes it, and rng is left past the trial's draws with the
    half-word they keep.
    """
    rows = _Rows.of_generator(rng, _row_width(budget))
    block = _joint(rows, budget, payoffs=True)
    rows.advance(0)
    return _conditional_instance(block.trial(0))


# pairs of laws on one atom set, pushed along a chain: duality and the data-processing kinds


def _pair(rows: _Rows, budget: SearchBudget) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The weights (mu, nu) of a block of pairs on one atom set as drawn, zero-padded, and their sizes.

    A trial draws mu's exponentials, its keep mask, then nu's exponentials.
    """
    sel = _each(rows)
    n = rows.integers(sel, 2, budget.max_e + 1)
    keep = None
    if not _draws_keep_mask(budget.sparsity):
        mu, nu = _unflattened(rows.exponentials(sel, 2 * n), 2, n).transpose(1, 0, 2)
    else:
        mu = rows.exponentials(sel, n)
        keep = _keep_mask(rows, sel, n, budget.sparsity)
        nu = rows.exponentials(sel, n)
    return _sparsified(_dirichlet(mu, n), keep, n), _dirichlet(nu, n), n


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
    matrix shapes, and each map's (B, K) images with the labels of their
    atoms, (source prefix, image prefix) per map.
    """

    size: np.ndarray
    drawn_nu: np.ndarray
    drawn_mu: np.ndarray
    drawn_chain: list
    shapes: list
    images: tuple
    map_labels: tuple
    nu: np.ndarray
    mu: np.ndarray
    chain: list

    def trial(self, b: int) -> _ChainDraw:
        n = self.size[b]
        chain = tuple(m[b, : s[b, 0], : s[b, 1]] for m, s in zip(self.drawn_chain, self.shapes))
        maps = tuple(
            {f"{src}{i}": f"{dst}{k}" for i, k in enumerate(images[b, : s[b, 0]].tolist())}
            for (src, dst), images, s in zip(self.map_labels, self.images, self.shapes)
        )
        return _ChainDraw(self.drawn_nu[b, :n], self.drawn_mu[b, :n], chain, maps)


def _chain_block(nu, mu, n, chain: list, shapes: list, images: tuple = (), map_labels: tuple = ()) -> _ChainBlock:
    """The block of laws (nu, mu) as drawn, of sizes n, their chain's matrices as drawn, of shapes shapes, and maps."""
    evaluated = [_normalized(m, s[:, 1]) for m, s in zip(chain, shapes)]  # Kernel's rows; a 0/1 row stays as it is
    return _ChainBlock(n, nu, mu, chain, shapes, images, map_labels, _normalized(nu, n), _normalized(mu, n), evaluated)


def _dpi(rows: _Rows, budget: SearchBudget, bijection: bool) -> _ChainBlock:
    """A pair, then its link: a permutation of its atoms, or a kernel's n * n_f exponentials, row after row."""
    mu, nu, n = _pair(rows, budget)
    sel = _each(rows)
    if bijection:
        return _chain_block(nu, mu, n, [_one_hot(rows.permutations(sel, n), n)], [np.column_stack([n, n])])
    n_f = rows.integers(sel, 2, budget.max_f + 1)
    kernel = _dirichlet(_unflattened(rows.exponentials(sel, n * n_f), n, n_f), n_f)
    return _chain_block(nu, mu, n, [kernel], [np.column_stack([n, n_f])])


def _sufficiency(rows: _Rows, budget: SearchBudget, matched: bool) -> _ChainBlock:
    """mu, the statistic's image of each atom, then nu's exponentials or a matched nu's factor per fiber."""
    sel = _each(rows)
    n = rows.integers(sel, 2, max(3, budget.max_e) + 1)
    mu = _dirichlet(rows.exponentials(sel, n), n)
    n_fibers = np.ones_like(n)
    more = np.flatnonzero(n > 2)
    n_fibers[more] = rows.integers(sel[more], 1, n[more])
    images = _surjections(rows, sel, n, n_fibers)
    if matched:
        # nu is mu times its fiber's factor: d nu / d mu is a function of the statistic
        factors = rows.uniforms(sel, n_fibers, 0.25, 2.5)
        nu = _normalized(mu * np.take_along_axis(factors, images, 1), n)
    else:
        nu = _dirichlet(rows.exponentials(sel, n), n)
    columns = _first_seen(images, n)
    chain, shapes = [_one_hot(columns, n)], [_map_shapes(columns, n)]
    return _chain_block(nu, mu, n, chain, shapes, (images,), (("a", "g"),))


def _refinement(rows: _Rows, budget: SearchBudget) -> _ChainBlock:
    """mu's n0 exponentials then nu's, the images of the n0 atoms, then those of the first map's n1 images."""
    sel = _each(rows)
    n0 = rows.integers(sel, 3, max(4, budget.max_e) + 1)
    exps = rows.exponentials(sel, 2 * n0)
    n1 = rows.integers(sel, 2, n0)
    n2 = rows.integers(sel, 1, n1 + 1)
    one, two = _surjections(rows, sel, n0, n1), _surjections(rows, sel, n1, n2)
    mu, nu = _dirichlet(_unflattened(exps, 2, n0), n0).transpose(1, 0, 2)
    first = _first_seen(one, n0)
    # the second map acts on the first one's image, whose atoms come in the order they first appear
    order = np.zeros(two.shape, np.int64)
    b, i = np.nonzero(_own_entries(n0[:, None], one.shape[1:]))
    order[b, first[b, i]] = one[b, i]
    second = _first_seen(np.take_along_axis(two, order, 1), n1)
    chain = [_one_hot(first, n0), _one_hot(second, n1)]
    shapes = [_map_shapes(first, n0), _map_shapes(second, n1)]
    nu, mu = np.ascontiguousarray(nu), np.ascontiguousarray(mu)
    return _chain_block(nu, mu, n0, chain, shapes, (one, two), (("a", "b"), ("b", "c")))


# joint_convexity: two pairs of laws on one atom set and a mixing weight


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


def _convexity(rows: _Rows, budget: SearchBudget) -> _ConvexityBlock:
    """The exponentials of mu1, nu1, mu2 and nu2 as one run, then t."""
    sel = _each(rows)
    n = rows.integers(sel, 2, budget.max_e + 1)
    exps, t = rows.exponentials(sel, 4 * n), rows.uniform(sel, 0.05, 0.95)
    drawn = _dirichlet(_unflattened(exps, 4, n), n)
    return _ConvexityBlock(t, n, drawn, _normalized(drawn, n))


# dist_concavity: two laws on the real line and a mixing weight


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


def _concavity(rows: _Rows, budget: SearchBudget) -> _ConcavityBlock:
    """m1's size, value indices and exponentials, the same of m2, then t."""
    sel = _each(rows)
    size = tuple(_sizes(rows, sel, budget.max_e + 1, budget.max_e + 1))
    laws = [_grid_laws(rows, sel, n) for n in size]
    t = rows.uniform(sel, 0.05, 0.95)
    values = tuple(_values(i, n) for n, (i, _) in zip(size, laws))
    drawn = tuple(_dirichlet(e, n) for n, (_, e) in zip(size, laws))
    return _ConcavityBlock(t, size, values, drawn, tuple(_normalized(w, n) for w, n in zip(drawn, size)))


# lebesgue: a law, a payoff and a direction


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


def _lebesgue(rows: _Rows, budget: SearchBudget) -> _LebesgueBlock:
    """mu's exponentials, the payoff's indices into VALUE_GRID, then the direction, uniform on [0, 1)."""
    sel = _each(rows)
    n = rows.integers(sel, 2, budget.max_e + 1)
    drawn = _dirichlet(rows.exponentials(sel, n), n)
    f = rows.lemire(sel, np.where(_own_entries(n[:, None], (n.max(),)), VALUE_GRID.size, 0))
    return _LebesgueBlock(n, drawn, _normalized(drawn, n), _values(f, n), rows.uniforms(sel, n, 0.0, 1.0))


# the acceptance-set probes: laws on the real line, each shifted onto rho = 0


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


def _laws_block(counts: np.ndarray, slots: list, mixing: np.ndarray | None = None) -> _LawsBlock:
    """The finished laws of each trial's counts[b] slots, laid out trial after trial.

    slots holds, slot by slot, (the trials that draw it, their sizes, value
    indices and exponentials); mixing the exponentials of
    mixture_convexity's (B, k) mixing weights.
    """
    at = np.cumsum(counts) - counts
    width = max(n.max() for _, n, _, _ in slots)
    size = np.zeros(int(counts.sum()), np.int64)
    indices, exps = np.zeros((size.size, width), np.int64), np.zeros((size.size, width))
    for slot, (trials, n, i, e) in enumerate(slots):
        law = at[trials] + slot
        size[law], indices[law, : i.shape[1]], exps[law, : e.shape[1]] = n, i, e
    drawn = _dirichlet(exps, size)
    weights = _normalized(drawn, size)
    mixing = None if mixing is None else _dirichlet(mixing, counts)
    owner = np.repeat(np.arange(counts.size), counts)
    slot = np.arange(size.size) - np.repeat(at, counts)
    values = _values(indices, size)
    return _LawsBlock(counts, owner, slot, size, values, drawn, weights, _normalized(weights, size), mixing)


def _shift_convexity_laws(rows: _Rows, budget: SearchBudget) -> _LawsBlock:
    """mu's law, then one per kernel row."""
    sel = _each(rows)
    n_e, n_f = _sizes(rows, sel, budget.max_e + 1, budget.max_f + 1)
    slots = [(sel, n_e, *_grid_laws(rows, sel, n_e))]
    for slot in range(1, int(n_e.max()) + 1):
        trials = np.flatnonzero(n_e >= slot)
        slots.append((trials, n_f[trials], *_grid_laws(rows, trials, n_f[trials])))
    return _laws_block(n_e + 1, slots)


def _property_s_laws(rows: _Rows, budget: SearchBudget) -> _LawsBlock:
    """The x-marginal, then its k component laws."""
    sel = _each(rows)
    k = rows.integers(sel, 2, 5)
    slots = [(sel, k, *_grid_laws(rows, sel, k))]
    for slot in range(1, int(k.max()) + 1):
        trials = np.flatnonzero(k >= slot)
        n = rows.integers(trials, 2, budget.max_f + 1)
        slots.append((trials, n, *_grid_laws(rows, trials, n)))
    return _laws_block(k + 1, slots)


def _mixture_laws(rows: _Rows, budget: SearchBudget) -> _LawsBlock:
    """The mixing weights' k exponentials, then the k component laws."""
    sel = _each(rows)
    k = rows.integers(sel, 2, 5)
    weights = rows.exponentials(sel, k)
    slots = []
    for slot in range(int(k.max())):
        trials = np.flatnonzero(k > slot)
        n = rows.integers(trials, 2, budget.max_f + 1)
        slots.append((trials, n, *_grid_laws(rows, trials, n)))
    return _laws_block(k, slots, weights)
