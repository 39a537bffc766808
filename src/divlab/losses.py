"""Loss and utility functions with convex conjugates.

A loss function here is convex, nondecreasing, and normalized so that
l(0) = 1 < l(x) for x > 0; the canonical example is l(x) = exp(eta*x).
A utility function is convex, nondecreasing, and normalized through its
Fenchel conjugate, phi*(1) = sup_x (x - phi(x)) = 0; the canonical example
is phi(x) = exp(x - 1) with phi*(y) = y*log(y).

Built-in kinds carry exact conjugate formulas. Custom kinds are tabulated
piecewise-linear functions extended beyond the table with their boundary
slopes; their conjugates are exact maxima of affine functions (slope x_i,
intercept -f(x_i)), equal to +inf outside the slope range of the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    ConfigParseError,
    InvalidLossError,
    InvalidUtilityError,
    NegativeArgumentError,
    REQUIRED,
    json_object,
    number_list,
    reject_unknown_keys,
    typed_field,
)

_CONVEXITY_TOL = 1e-9
_NORMALIZATION_TOL = 1e-9
# the fields of each kind's JSON document besides "kind"
_LOSS_FIELDS = {"exponential": ("eta",), "power_plus": ("p",), "custom": ("xs", "ys")}
_UTILITY_FIELDS = {"exp_shift": (), "identity": (), "hinge_power": ("p",), "custom": ("xs", "ys")}


@dataclass(frozen=True)
class ConjugateTable:
    """A convex conjugate stored as a max of affine functions.

    ``eval(y) = max_i (slopes[i] * y + intercepts[i])`` for y inside
    ``[y_lo, y_hi]`` (the slope range of the primal table) and +inf outside;
    outside that range the linearly-extended primal makes the sup infinite.
    """

    slopes: tuple
    intercepts: tuple
    y_lo: float
    y_hi: float

    def eval(self, y: float) -> float:
        return float(_table_conjugate_array(self, np.asarray(y, dtype=float)))


def _validate_table(xs: Sequence[float], ys: Sequence[float], name: str) -> tuple[np.ndarray, np.ndarray]:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    err = InvalidLossError if name == "loss" else InvalidUtilityError
    if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
        raise err("custom table needs matching xs/ys with at least two points")
    if np.any(np.diff(xs) <= 0):
        raise err("custom table xs must be strictly increasing")
    slopes = np.diff(ys) / np.diff(xs)
    if np.any(slopes < -_CONVEXITY_TOL):
        raise err("custom table must be nondecreasing")
    if np.any(np.diff(slopes) < -_CONVEXITY_TOL):
        raise err("custom table must be convex (secant slopes nondecreasing)")
    return xs, ys


def _table_conjugate_array(table: ConjugateTable, y: np.ndarray) -> np.ndarray:
    s = np.asarray(table.slopes)
    b = np.asarray(table.intercepts)
    vals = np.max(y[..., None] * s + b, axis=-1)
    outside = (y < table.y_lo - 1e-12) | (y > table.y_hi + 1e-12)
    return np.where(outside, math.inf, vals)


def _interp_extrapolate(x: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Piecewise-linear interpolation, extended with the boundary slopes."""
    slopes = np.diff(ys) / np.diff(xs)
    out = np.interp(x, xs, ys)
    left = x < xs[0]
    right = x > xs[-1]
    if np.any(left):
        out = np.where(left, ys[0] + slopes[0] * (x - xs[0]), out)
    if np.any(right):
        out = np.where(right, ys[-1] + slopes[-1] * (x - xs[-1]), out)
    return out


def _table_slope(x: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The left derivative of the extended piecewise-linear table at x."""
    slopes = np.diff(ys) / np.diff(xs)
    # segment k spans (xs[k], xs[k+1]]; outside the table the boundary slopes
    seg = np.clip(np.searchsorted(xs, x, side="left") - 1, 0, slopes.size - 1)
    return slopes[seg]


@dataclass(frozen=True, eq=False)
class LossFn:
    """A convex nondecreasing loss with l(0) = 1 and l(x) > 1 for x > 0."""

    kind: str
    eta: float | None = None
    p: float | None = None
    xs: tuple | None = None
    ys: tuple | None = None

    def __post_init__(self):
        if self.kind == "exponential":
            if self.eta is None or not 0 < self.eta < math.inf:
                raise InvalidLossError(f"exponential loss needs a finite eta > 0, got {self.eta!r}")
        elif self.kind == "power_plus":
            if self.p is None or not 1 <= self.p < math.inf:
                raise InvalidLossError(f"power_plus loss needs a finite p >= 1, got {self.p!r}")
        elif self.kind == "custom":
            xs, ys = _validate_table(self.xs, self.ys, "loss")
            object.__setattr__(self, "xs", tuple(float(v) for v in xs))
            object.__setattr__(self, "ys", tuple(float(v) for v in ys))
        else:
            raise InvalidLossError(f"unknown loss kind {self.kind!r}")
        self._validate_shape()

    # -- constructors ---------------------------------------------------

    @classmethod
    def exponential(cls, eta: float) -> "LossFn":
        return cls(kind="exponential", eta=float(eta))

    @classmethod
    def power_plus(cls, p: float) -> "LossFn":
        """l(x) = ((1 + x)_+)^p. Vanishes left of -1, which breaks
        log-subadditivity and with it acceptance consistency."""
        return cls(kind="power_plus", p=float(p))

    @classmethod
    def custom(cls, xs: Sequence[float], ys: Sequence[float]) -> "LossFn":
        return cls(kind="custom", xs=tuple(xs), ys=tuple(ys))

    # -- evaluation -----------------------------------------------------

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "exponential":
            with np.errstate(over="ignore"):
                return np.exp(self.eta * x)
        if self.kind == "power_plus":
            return np.maximum(1.0 + x, 0.0) ** self.p
        return _interp_extrapolate(x, np.asarray(self.xs), np.asarray(self.ys))

    def derivative(self, x):
        """Elementwise left derivative l'(x-): the slope where l is smooth and
        the slope on the left at a kink, so that -l'(x - c-) is the right
        derivative in c of c -> l(x - c), the slope a Newton step taken from
        the left of a root needs.
        """
        x = np.asarray(x, dtype=float)
        if self.kind == "exponential":
            with np.errstate(over="ignore"):
                return self.eta * np.exp(self.eta * x)
        if self.kind == "power_plus":
            # explicit zero left of -1: numpy's 0.0 ** 0 is 1, which would
            # give power_plus(1) slope p there
            base = 1.0 + x
            return np.where(base > 0.0, self.p * np.maximum(base, 0.0) ** (self.p - 1.0), 0.0)
        return _table_slope(x, np.asarray(self.xs), np.asarray(self.ys))

    def conjugate(self, y: float) -> float:
        """l*(y) = sup_x (x*y - l(x)) for y >= 0; +inf is a legal value."""
        if y < 0:
            raise NegativeArgumentError("conjugates are evaluated on y >= 0 only")
        if self.kind == "exponential":
            if y == 0.0:
                return 0.0
            return (y * math.log(y / self.eta) - y) / self.eta
        if self.kind == "power_plus":
            if self.p == 1.0:
                return -y if y <= 1.0 else math.inf
            return (self.p - 1.0) * (y / self.p) ** (self.p / (self.p - 1.0)) - y
        return conjugate_table(self).eval(y)

    # -- validation -----------------------------------------------------

    def _validate_shape(self) -> None:
        grid = np.linspace(-4.0, 4.0, 81)
        vals = self(grid)
        if abs(float(self(np.asarray(0.0))) - 1.0) > _NORMALIZATION_TOL:
            raise InvalidLossError("loss must satisfy l(0) = 1")
        pos = grid > 0
        if np.any(vals[pos] <= 1.0):
            raise InvalidLossError("loss must satisfy l(x) > 1 for x > 0")
        if np.any(np.diff(vals) < -_CONVEXITY_TOL):
            raise InvalidLossError("loss must be nondecreasing")
        secants = np.diff(vals) / np.diff(grid)
        if np.any(np.diff(secants) < -1e-7 * np.maximum(1.0, np.abs(secants[:-1]))):
            raise InvalidLossError("loss must be convex")

    def as_json(self) -> dict:
        if self.kind == "exponential":
            return {"kind": "exponential", "eta": self.eta}
        if self.kind == "power_plus":
            return {"kind": "power_plus", "p": self.p}
        return {"kind": "custom", "xs": list(self.xs), "ys": list(self.ys)}

    @classmethod
    def from_json(cls, doc: Mapping) -> "LossFn":
        json_object(doc, "loss spec")
        kind = doc.get("kind")
        if kind in _LOSS_FIELDS:
            reject_unknown_keys(doc, ("kind", *_LOSS_FIELDS[kind]), f"{kind} loss spec")
        try:
            if kind == "exponential":
                return cls.exponential(typed_field(doc, "eta", REQUIRED, float, "exponential loss spec"))
            if kind == "power_plus":
                return cls.power_plus(typed_field(doc, "p", REQUIRED, float, "power_plus loss spec"))
            if kind == "custom":
                return cls.custom(*(number_list(doc[key], f"custom loss spec {key!r}") for key in ("xs", "ys")))
        except KeyError as exc:
            raise ConfigParseError(f"loss spec is missing field {exc}") from exc
        raise ConfigParseError(f"unknown loss kind {kind!r}")


@dataclass(frozen=True, eq=False)
class UtilityFn:
    """A convex nondecreasing utility normalized by phi*(1) = 0."""

    kind: str
    p: float | None = None
    xs: tuple | None = None
    ys: tuple | None = None

    def __post_init__(self):
        if self.kind in ("exp_shift", "identity"):
            pass
        elif self.kind == "hinge_power":
            if self.p is None or not 1 < self.p < math.inf:
                raise InvalidUtilityError(f"hinge_power utility needs a finite p > 1, got {self.p!r}")
        elif self.kind == "custom":
            xs, ys = _validate_table(self.xs, self.ys, "utility")
            object.__setattr__(self, "xs", tuple(float(v) for v in xs))
            object.__setattr__(self, "ys", tuple(float(v) for v in ys))
        else:
            raise InvalidUtilityError(f"unknown utility kind {self.kind!r}")
        star1 = self.conjugate(1.0)
        if not math.isfinite(star1) or abs(star1) > _NORMALIZATION_TOL:
            raise InvalidUtilityError(
                f"utility must satisfy phi*(1) = 0, got {star1!r}"
            )

    @classmethod
    def exp_shift(cls) -> "UtilityFn":
        """phi(x) = exp(x - 1); the conjugate is y*log(y)."""
        return cls(kind="exp_shift")

    @classmethod
    def identity(cls) -> "UtilityFn":
        """phi(x) = x; the induced functional is the plain expectation."""
        return cls(kind="identity")

    @classmethod
    def hinge_power(cls, p: float) -> "UtilityFn":
        """phi(x) = ((1 + x/p)_+)^p - 1, the power hinge scaled and shifted
        so that phi*(1) = 0; for p = 2 the conjugate is (y - 1)^2."""
        return cls(kind="hinge_power", p=float(p))

    @classmethod
    def custom(cls, xs: Sequence[float], ys: Sequence[float]) -> "UtilityFn":
        return cls(kind="custom", xs=tuple(xs), ys=tuple(ys))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "exp_shift":
            with np.errstate(over="ignore"):
                return np.exp(x - 1.0)
        if self.kind == "identity":
            return x + 0.0
        if self.kind == "hinge_power":
            return np.maximum(1.0 + x / self.p, 0.0) ** self.p - 1.0
        return _interp_extrapolate(x, np.asarray(self.xs), np.asarray(self.ys))

    def derivative(self, x):
        """Elementwise left derivative phi'(x-), the slope on the left at a
        table's kink, so that 1 - E[phi'(X - c-)] is the right derivative in
        c of the OCE objective E[phi(X - c)] + c.
        """
        x = np.asarray(x, dtype=float)
        if self.kind == "exp_shift":
            with np.errstate(over="ignore"):
                return np.exp(x - 1.0)
        if self.kind == "identity":
            return np.ones_like(x)
        if self.kind == "hinge_power":
            return np.maximum(1.0 + x / self.p, 0.0) ** (self.p - 1.0)
        return _table_slope(x, np.asarray(self.xs), np.asarray(self.ys))

    def pivot(self) -> float:
        """A point x0 where phi, which is at least x by phi*(1) = 0, touches
        x with slope 1: for a table the last point that maximizes x - phi(x),
        so that the OCE bisection ends inside a stretch where phi(x) = x.
        """
        if self.kind == "exp_shift":
            return 1.0
        if self.kind in ("identity", "hinge_power"):
            return 0.0
        gap = np.asarray(self.xs) - np.asarray(self.ys)
        return self.xs[gap.size - 1 - int(np.argmax(gap[::-1]))]

    def conjugate(self, y: float) -> float:
        """phi*(y) for y >= 0; phi*(0) is the right-limit -inf(phi)."""
        if y < 0:
            raise NegativeArgumentError("conjugates are evaluated on y >= 0 only")
        if self.kind == "exp_shift":
            return 0.0 if y == 0.0 else y * math.log(y)
        if self.kind == "identity":
            return 0.0 if abs(y - 1.0) <= 1e-12 else math.inf
        if self.kind == "hinge_power":
            q = self.p / (self.p - 1.0)
            return (self.p - 1.0) * y**q - self.p * y + 1.0
        return conjugate_table(self).eval(y)

    def conjugate_array(self, y: np.ndarray) -> np.ndarray:
        """Vectorized phi* over a nonnegative array; +inf entries allowed."""
        y = np.asarray(y, dtype=float)
        if np.any(y < 0):
            raise NegativeArgumentError("conjugates are evaluated on y >= 0 only")
        if self.kind == "exp_shift":
            out = np.zeros_like(y)
            pos = y > 0
            out[pos] = y[pos] * np.log(y[pos])
            return out
        if self.kind == "identity":
            return np.where(np.abs(y - 1.0) <= 1e-12, 0.0, math.inf)
        if self.kind == "hinge_power":
            q = self.p / (self.p - 1.0)
            return (self.p - 1.0) * y**q - self.p * y + 1.0
        return _table_conjugate_array(conjugate_table(self), y)

    def as_json(self) -> dict:
        if self.kind == "hinge_power":
            return {"kind": "hinge_power", "p": self.p}
        if self.kind == "custom":
            return {"kind": "custom", "xs": list(self.xs), "ys": list(self.ys)}
        return {"kind": self.kind}

    @classmethod
    def from_json(cls, doc: Mapping) -> "UtilityFn":
        json_object(doc, "utility spec")
        kind = doc.get("kind")
        if kind in _UTILITY_FIELDS:
            reject_unknown_keys(doc, ("kind", *_UTILITY_FIELDS[kind]), f"{kind} utility spec")
        try:
            if kind == "exp_shift":
                return cls.exp_shift()
            if kind == "identity":
                return cls.identity()
            if kind == "hinge_power":
                return cls.hinge_power(typed_field(doc, "p", REQUIRED, float, "hinge_power utility spec"))
            if kind == "custom":
                return cls.custom(*(number_list(doc[key], f"custom utility spec {key!r}") for key in ("xs", "ys")))
        except KeyError as exc:
            raise ConfigParseError(f"utility spec is missing field {exc}") from exc
        raise ConfigParseError(f"unknown utility kind {kind!r}")


def conjugate_table(fn: LossFn | UtilityFn) -> ConjugateTable:
    """The conjugate of a custom (tabulated) loss or utility, as a max of affines."""
    xs = np.asarray(fn.xs)
    ys = np.asarray(fn.ys)
    slopes = np.diff(ys) / np.diff(xs)
    return ConjugateTable(
        slopes=tuple(float(v) for v in xs),
        intercepts=tuple(float(-v) for v in ys),
        y_lo=float(slopes[0]),
        y_hi=float(slopes[-1]),
    )
