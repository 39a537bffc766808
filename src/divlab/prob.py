"""Finite probability spaces: laws, kernels, joint laws and partitions.

Everything downstream (risk evaluation, divergences, consistency checks)
reduces to arithmetic on the types defined here. Atom labels are opaque and
ordered; two spaces are "the same" exactly when their label tuples are equal.
Weights are validated on construction: tiny negatives (>= -1e-15) are clamped
to zero, totals within 1e-9 of 1 are renormalized exactly, and anything worse
raises. All values are immutable after construction. ``from_json`` refuses a
document that is not an object, lacks a field or has a field of the wrong
type (weights or rows that are not lists of numbers, rows of unequal
lengths, atoms or blocks that are not lists of labels) with
``ConfigParseError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DivLabError,
    DuplicateAtomError,
    InvalidPartitionError,
    LengthMismatchError,
    NegativeWeightError,
    TotalMassError,
    ZeroTotalMassError,
    json_object,
    label_list,
    number_list,
    number_rows,
    typed_field,
)

NEGATIVE_CLAMP = -1e-15
TOTAL_MASS_TOL = 1e-9

Atom = Any


def _clean_weights(weights: Sequence[float], n_atoms: int) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.shape[0] != n_atoms:
        raise LengthMismatchError(
            f"expected {n_atoms} weights, got shape {w.shape}"
        )
    if not np.all(np.isfinite(w)):
        raise NegativeWeightError("weights must be finite")
    if np.any(w < NEGATIVE_CLAMP):
        raise NegativeWeightError(
            f"negative weight {w.min():.3e} below clamp threshold {NEGATIVE_CLAMP:.0e}"
        )
    w = np.maximum(w, 0.0)
    total = float(w.sum())
    if total <= 0.0:
        raise ZeroTotalMassError("weights sum to zero")
    if abs(total - 1.0) > TOTAL_MASS_TOL:
        raise TotalMassError(
            f"weights sum to {total!r}, outside 1 +/- {TOTAL_MASS_TOL:.0e}"
        )
    w = w / total
    w.flags.writeable = False
    return w


@dataclass(frozen=True, eq=False)
class FiniteDist:
    """A probability measure on a finite, ordered, labeled atom set.

    ``atoms`` are opaque hashable labels; ``weights`` is the matching
    probability vector. For laws of real random variables the atoms are the
    (float) support points themselves.
    """

    atoms: tuple
    weights: np.ndarray

    def __init__(self, atoms: Iterable[Atom], weights: Sequence[float]):
        atoms = tuple(atoms)
        if len(set(atoms)) != len(atoms):
            raise DuplicateAtomError("atom labels must be distinct")
        w = _clean_weights(weights, len(atoms))
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", w)

    @cached_property
    def _index(self) -> dict:
        return {a: i for i, a in enumerate(self.atoms)}

    def __len__(self) -> int:
        return len(self.atoms)

    def weight(self, atom: Atom) -> float:
        return float(self.weights[self._index[atom]])

    def values_array(self) -> np.ndarray:
        """Atoms coerced to floats; valid only for laws on the real line."""
        try:
            return np.asarray([float(a) for a in self.atoms], dtype=float)
        except (TypeError, ValueError) as exc:
            raise DivLabError(f"atoms of this distribution are not numbers: {exc}")

    def as_json(self) -> dict:
        return {"atoms": list(self.atoms), "weights": [float(w) for w in self.weights]}

    @classmethod
    def from_json(cls, doc: Mapping) -> "FiniteDist":
        atoms, weights = json_object(doc, "law", "atoms", "weights")
        return cls(label_list(atoms, "law 'atoms'"), number_list(weights, "law 'weights'"))


def uniform(atoms: Iterable[Atom]) -> FiniteDist:
    atoms = tuple(atoms)
    return FiniteDist(atoms, np.full(len(atoms), 1.0 / len(atoms)))


def _as_values(f, n: int) -> np.ndarray:
    arr = np.asarray(f, dtype=float)
    if arr.ndim != 1 or arr.shape[0] != n:
        raise LengthMismatchError(f"expected {n} values, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class Kernel:
    """A row-stochastic family of distributions on a common target space.

    Row ``i`` is the distribution of the next state given source atom
    ``source[i]``. Rows are validated exactly like :class:`FiniteDist`.
    """

    source: tuple
    target: tuple
    matrix: np.ndarray

    def __init__(self, source: Iterable[Atom], target: Iterable[Atom], rows: Sequence[Sequence[float]]):
        source = tuple(source)
        target = tuple(target)
        if len(set(source)) != len(source):
            raise DuplicateAtomError("kernel source labels must be distinct")
        if len(set(target)) != len(target):
            raise DuplicateAtomError("kernel target labels must be distinct")
        mat = np.asarray(rows, dtype=float)
        if mat.ndim != 2 or mat.shape != (len(source), len(target)):
            raise LengthMismatchError(
                f"kernel rows have shape {mat.shape}, expected {(len(source), len(target))}"
            )
        mat = np.vstack([_clean_weights(mat[i], len(target)) for i in range(len(source))])
        mat.flags.writeable = False
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", mat)

    def as_json(self) -> dict:
        return {
            "source": list(self.source),
            "target": list(self.target),
            "rows": [[float(x) for x in row] for row in self.matrix],
        }

    @classmethod
    def from_json(cls, doc: Mapping) -> "Kernel":
        source, target, rows = json_object(doc, "kernel", "source", "target", "rows")
        rows = number_rows(rows, "kernel 'rows'")
        return cls(label_list(source, "kernel 'source'"), label_list(target, "kernel 'target'"), rows)


@dataclass(frozen=True, eq=False)
class JointDist:
    """A distribution on a product of two labeled atom sets.

    Stored as a weight matrix indexed by (row atom, column atom), so
    ``risk._disintegrated`` splits it with no parse of pair labels.
    """

    row_atoms: tuple
    col_atoms: tuple
    matrix: np.ndarray

    def __init__(self, row_atoms: Iterable[Atom], col_atoms: Iterable[Atom], matrix: Sequence[Sequence[float]]):
        row_atoms = tuple(row_atoms)
        col_atoms = tuple(col_atoms)
        if len(set(row_atoms)) != len(row_atoms) or len(set(col_atoms)) != len(col_atoms):
            raise DuplicateAtomError("joint atom labels must be distinct")
        mat = np.asarray(matrix, dtype=float)
        if mat.ndim != 2 or mat.shape != (len(row_atoms), len(col_atoms)):
            raise LengthMismatchError(
                f"joint matrix has shape {mat.shape}, expected {(len(row_atoms), len(col_atoms))}"
            )
        flat = _clean_weights(mat.reshape(-1), mat.size)
        mat = flat.reshape(mat.shape)
        mat.flags.writeable = False
        object.__setattr__(self, "row_atoms", row_atoms)
        object.__setattr__(self, "col_atoms", col_atoms)
        object.__setattr__(self, "matrix", mat)

    @property
    def pairs(self) -> tuple:
        return tuple((x, y) for x in self.row_atoms for y in self.col_atoms)

    def as_dist(self) -> FiniteDist:
        """The same measure as a flat distribution on pair atoms."""
        return FiniteDist(self.pairs, self.matrix.reshape(-1))

    def as_json(self) -> dict:
        return {
            "row_atoms": list(self.row_atoms),
            "col_atoms": list(self.col_atoms),
            "weights": [[float(x) for x in row] for row in self.matrix],
        }

    @classmethod
    def from_json(cls, doc: Mapping) -> "JointDist":
        row_atoms, col_atoms, weights = json_object(doc, "joint law", "row_atoms", "col_atoms", "weights")
        rows, cols = label_list(row_atoms, "joint law 'row_atoms'"), label_list(col_atoms, "joint law 'col_atoms'")
        return cls(rows, cols, number_rows(weights, "joint law 'weights'"))


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty blocks covering an atom set."""

    blocks: tuple

    def __init__(self, blocks: Iterable[Iterable[Atom]]):
        blocks = tuple(tuple(b) for b in blocks)
        object.__setattr__(self, "blocks", blocks)

    def validate_against(self, atoms: Sequence[Atom]) -> None:
        seen: set = set()
        for b in self.blocks:
            if not b:
                raise InvalidPartitionError("empty block")
            for a in b:
                if a in seen:
                    raise InvalidPartitionError(f"atom {a!r} appears in two blocks")
                seen.add(a)
        if seen != set(atoms):
            raise InvalidPartitionError("blocks do not cover the atom set exactly")

    def as_json(self) -> dict:
        return {"blocks": [list(b) for b in self.blocks]}

    @classmethod
    def from_json(cls, doc: Mapping) -> "Partition":
        json_object(doc, "partition", "blocks")
        return cls(label_list(b, "partition block") for b in typed_field(doc, "blocks", None, list, "partition"))
