import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divlab.errors import (
    BracketFailureError,
    ConfigParseError,
    InvalidDensityError,
    InvalidPartitionError,
    SpaceMismatchError,
    UnsupportedFamilyError,
    ZeroTotalMassError,
)
from divlab.losses import LossFn, UtilityFn
from divlab.prob import FiniteDist, Partition, uniform
from divlab.risk import (
    RiskSpec,
    rho_conditional,
    rho_entropic,
    rho_lifted,
    rho_oce,
    rho_of_law,
    rho_batch,
    rho_shortfall,
    rho_values,
)
from divlab.risk import _oce_values

UNIFORM01 = FiniteDist([0.0, 1.0], [0.5, 0.5])
LOG_MEAN_EXP = math.log((1.0 + math.e) / 2.0)

ALL_SCALAR_SPECS = [
    RiskSpec.entropic(1.0),
    RiskSpec.entropic(2.5),
    RiskSpec.shortfall(LossFn.exponential(1.0)),
    RiskSpec.shortfall(LossFn.power_plus(2.0)),
    RiskSpec.oce(UtilityFn.exp_shift()),
    RiskSpec.oce(UtilityFn.hinge_power(2.0)),
    RiskSpec.expectation(),
    RiskSpec.esssup(),
]


def point_mass(value):
    return FiniteDist((value,), [1.0])


def block_law(mu, f, block):
    """The law of f under mu conditioned on a block of its atoms, equal values merged."""
    mass = sum(mu.weight(a) for a in block)
    law: dict = {}
    for a in block:
        v = float(f[mu.atoms.index(a)])
        law[v] = law.get(v, 0.0) + mu.weight(a) / mass
    return FiniteDist(list(law), list(law.values()))


def random_law(rng, n):
    values = rng.uniform(-2.0, 2.0, n)
    values = np.unique(values)
    return FiniteDist([float(v) for v in values], rng.dirichlet(np.ones(len(values))))


class TestEntropic:
    def test_point_mass(self):
        assert rho_entropic(point_mass(3.25), 1.7) == pytest.approx(3.25, abs=1e-12)

    def test_uniform01(self):
        assert rho_entropic(UNIFORM01, 1.0) == pytest.approx(LOG_MEAN_EXP, abs=1e-12)
        assert rho_entropic(UNIFORM01, 1.0) == pytest.approx(0.620115, abs=1e-6)

    def test_cash_additivity_exact(self):
        shifted = FiniteDist([1.0, 2.0], [0.5, 0.5])
        assert rho_entropic(shifted, 1.0) == pytest.approx(
            rho_entropic(UNIFORM01, 1.0) + 1.0, abs=1e-12
        )

    @pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf, 0.0])
    def test_eta_must_be_finite_and_positive(self, eta):
        with pytest.raises(ConfigParseError):
            RiskSpec.entropic(eta)

    def test_overflow_safety(self):
        law = FiniteDist([0.0, 500.0], [0.5, 0.5])
        val = rho_entropic(law, 2.0)
        assert math.isfinite(val) and val == pytest.approx(500.0 + math.log(0.5) / 2.0, abs=1e-9)


class TestShortfall:
    def test_point_mass(self):
        assert rho_shortfall(point_mass(-1.5), LossFn.exponential(1.0)) == pytest.approx(
            -1.5, abs=1e-10
        )

    def test_exponential_loss_equals_entropic(self):
        assert rho_shortfall(UNIFORM01, LossFn.exponential(1.0)) == pytest.approx(
            LOG_MEAN_EXP, abs=1e-9
        )

    def test_cash_additivity(self):
        loss = LossFn.power_plus(2.0)
        base = rho_shortfall(UNIFORM01, loss)
        shifted = FiniteDist([1.0, 2.0], [0.5, 0.5])
        assert rho_shortfall(shifted, loss) == pytest.approx(base + 1.0, abs=1e-9)

    def test_post_check_certificate(self):
        loss = LossFn.power_plus(3.0)
        rng = np.random.default_rng(0)
        for _ in range(25):
            law = random_law(rng, 5)
            c = rho_shortfall(law, loss)
            expected = float(law.weights @ np.asarray(loss(law.values_array() - c)))
            assert expected <= 1.0 + 1e-9


def bisection_root(w, v, loss, tol=1e-11):
    """Reference shortfall root: bisection of [min X - 1, max X + 1] down to
    tol, as the library computed it before the Newton iteration. Returns the
    root and the number of loss calls, bracket and post-check included."""
    calls = 0

    def expected(c):
        nonlocal calls
        calls += 1
        with np.errstate(over="ignore"):
            return float(w @ np.asarray(loss(v - c), dtype=float))

    lo, hi = float(np.min(v)) - 1.0, float(np.max(v)) + 1.0
    assert expected(lo) > 1.0 and expected(hi) <= 1.0 + 1e-12
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if expected(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    assert expected(hi) <= 1.0 + 1e-9
    return hi, calls


class CountingLoss:
    """A loss that counts its value and derivative calls."""

    def __init__(self, loss):
        self.loss = loss
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.loss(x)

    def derivative(self, x):
        self.calls += 1
        return self.loss.derivative(x)


class RecordingLoss(CountingLoss):
    """A loss that also records the argument of each value call."""

    def __init__(self, loss):
        super().__init__(loss)
        self.points = []

    def __call__(self, x):
        self.points.append(np.asarray(x, dtype=float).tobytes())
        return super().__call__(x)


CONVEX_TABLE = LossFn.custom([-2.0, -1.0, 0.0, 1.0, 2.0], [0.5, 0.5, 1.0, 2.0, 4.0])
ROOT_LOSSES = [
    LossFn.exponential(0.3),
    LossFn.exponential(1.0),
    LossFn.exponential(3.0),
    LossFn.power_plus(1.0),
    LossFn.power_plus(1.5),
    LossFn.power_plus(2.0),
    LossFn.power_plus(3.0),
    CONVEX_TABLE,
]
WIDE_LAWS = [
    ([0.0, 600.0], [0.999, 0.001]),
    ([-300.0, 300.0], [0.5, 0.5]),
    ([40.0, 0.0], [1e-6, 1.0 - 1e-6]),
]


def shortfall_root(w, v, loss):
    """The shortfall risk of one law, as a batch of one."""
    return float(rho_batch(RiskSpec.shortfall(loss), np.asarray(w, dtype=float)[None], np.asarray(v, dtype=float)[None])[0])


def root_and_calls(values, weights, loss):
    counting = CountingLoss(loss)
    return shortfall_root(weights, values, counting), counting.calls


class TestShortfallRoot:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-300.0, max_value=300.0),
                st.one_of(st.just(1e-6), st.floats(min_value=1e-6, max_value=1.0)),
            ),
            min_size=1,
            max_size=12,
        ),
        st.one_of(
            st.floats(min_value=0.3, max_value=3.0).map(LossFn.exponential),
            st.sampled_from([1.0, 1.5, 2.0, 3.0]).map(LossFn.power_plus),
            st.just(CONVEX_TABLE),
        ),
    )
    def test_matches_bisection_oracle(self, atoms, loss):
        v = np.array([a for a, _ in atoms])
        w = np.array([b for _, b in atoms])
        w = w / w.sum()
        rho = shortfall_root(w, v, loss)
        oracle, _ = bisection_root(w, v, loss)
        assert abs(rho - oracle) <= 1e-9
        with np.errstate(over="ignore"):
            assert float(w @ np.asarray(loss(v - rho), dtype=float)) <= 1.0 + 1e-9

    def test_exponential_overflow_terminates(self):
        # exp(3 * 600) overflows, so plain Newton would divide inf by inf
        rho, _ = root_and_calls([0.0, 600.0], [0.999, 0.001], LossFn.exponential(3.0))
        law = FiniteDist([0.0, 600.0], [0.999, 0.001])
        assert rho == pytest.approx(rho_entropic(law, 3.0), abs=1e-9)

    def test_root_at_the_mean_is_found_at_once(self):
        rho, calls = root_and_calls([0.1, -0.4, 0.9], [0.3, 0.3, 0.4], LossFn.power_plus(1.0))
        assert rho == pytest.approx(0.27, abs=1e-12)
        assert calls <= 6

    @pytest.mark.parametrize("loss", ROOT_LOSSES, ids=lambda l: str(l.as_json()))
    @pytest.mark.parametrize("values, weights", WIDE_LAWS)
    def test_wide_laws_need_no_more_calls_than_bisection(self, values, weights, loss):
        rho, calls = root_and_calls(values, weights, loss)
        oracle, oracle_calls = bisection_root(np.asarray(weights), np.asarray(values), loss)
        assert calls <= oracle_calls
        assert abs(rho - oracle) <= 1e-9

    @pytest.mark.parametrize("loss", ROOT_LOSSES, ids=lambda l: str(l.as_json()))
    def test_no_point_is_evaluated_twice(self, loss):
        # the post-check reuses E[loss(X - rho)] where the iteration has
        # already computed it
        rng = np.random.default_rng(5)
        grid = np.linspace(-2.0, 2.0, 41)
        for _ in range(40):
            n = int(rng.integers(2, 10))
            w, v = rng.dirichlet(np.ones(n)), rng.choice(grid, n)
            recorded = RecordingLoss(loss)
            shortfall_root(w, v, recorded)
            assert len(set(recorded.points)) == len(recorded.points)

    def test_terminates_where_float_spacing_exceeds_tol(self):
        # near 1e5 neighbouring floats lie 1.5e-11 apart, wider than the root tolerance,
        # so a bracket can never shrink to 1e-11
        rho, calls = root_and_calls([1e5, 1e5 + 1.0], [0.5, 0.5], LossFn.power_plus(2.0))
        assert rho == pytest.approx(1e5 + 0.5 * (3.0 - math.sqrt(3.0)), abs=1e-9)
        assert calls <= 20


BATCH_SPECS = [
    RiskSpec.entropic(0.3),
    RiskSpec.entropic(3.0),
    *[RiskSpec.shortfall(loss) for loss in ROOT_LOSSES],
    RiskSpec.oce(UtilityFn.exp_shift()),
    RiskSpec.oce(UtilityFn.hinge_power(2.0)),
    RiskSpec.expectation(),
    RiskSpec.esssup(),
]
# exp(3 * 600) overflows: masked atoms must not turn the overflow into NaN
OVERFLOW_LAW = ([0.0, 0.0, 600.0], [0.999, 0.0, 0.001])

law_strategy = st.lists(
    st.tuples(
        st.floats(min_value=-20.0, max_value=20.0),
        st.one_of(st.just(0.0), st.just(1e-6), st.floats(min_value=1e-6, max_value=1.0)),
    ),
    min_size=1,
    max_size=16,
).filter(lambda atoms: any(w > 0.0 for _, w in atoms))


def padded(laws, width):
    """(B, width) weights and values, zero beyond each law's atoms."""
    w, v = np.zeros((len(laws), width)), np.zeros((len(laws), width))
    for i, (values, weights) in enumerate(laws):
        v[i, : len(values)] = values
        w[i, : len(weights)] = np.asarray(weights) / np.sum(weights)
    return w, v


def log_mean_exp(w, v, eta):
    """Entropic risk oracle: the log-sum-exp of the charged atoms, shifted by their largest exponent."""
    pos = w > 0.0
    top = float(np.max(eta * v[pos]))
    return (top + math.log(float(np.dot(w[pos], np.exp(eta * v[pos] - top))))) / eta


def oracle_risk(spec, w, v):
    """An evaluator independent of rho_batch's own arithmetic, for each law-invariant family."""
    pos = w > 0.0
    if spec.family == "entropic":
        return log_mean_exp(w, v, spec.eta)
    if spec.family == "shortfall":
        return bisection_root(w[pos], v[pos], spec.loss)[0]
    if spec.family == "oce":
        return _oce_values(w, v, spec.utility)
    if spec.family == "expectation":
        return float(np.dot(w, v))
    return float(np.max(v[pos]))


class PortablePowerPlus:
    """((1 + x)_+)^p and its left derivative for p = 1.5 or 3, in products and square roots.

    IEEE arithmetic rounds these the same way on every machine. numpy's
    power does so for the exponents 1, 2 and 0.5, which it computes as a
    copy, a square and a square root, but for 1.5 and 3 it may take a SIMD
    path whose last bits differ between CPUs, as its exp may.
    """

    def __init__(self, p):
        self.p = p

    def __call__(self, x):
        b = np.maximum(1.0 + np.asarray(x, dtype=float), 0.0)
        return b * np.sqrt(b) if self.p == 1.5 else b * b * b

    def derivative(self, x):
        b = np.maximum(1.0 + np.asarray(x, dtype=float), 0.0)
        return 1.5 * np.sqrt(b) if self.p == 1.5 else 3.0 * (b * b)


def parity_batches(seed):
    """Seeded (B, K) shortfall batches drawn with integer arithmetic only: sparse laws of
    1-12 atoms, weights k / total, values on a 0.05 grid within +-2 or +-300, and up
    to 3 zero-padding columns."""
    rng = np.random.default_rng(seed)
    for _ in range(40):
        b, k, pad = int(rng.integers(1, 31)), int(rng.integers(1, 13)), int(rng.integers(0, 4))
        counts = rng.integers(1, 1000, size=(b, k)) * (rng.integers(0, 10, size=(b, k)) >= 3)
        counts[np.arange(b), rng.integers(0, k, size=b)] += 1
        reach = 40 if rng.integers(0, 4) else 6000
        w = np.zeros((b, k + pad))
        v = np.zeros((b, k + pad))
        w[:, :k] = counts / counts.sum(axis=1, keepdims=True)
        v[:, :k] = rng.integers(-reach, reach + 1, size=(b, k)) / 20.0
        yield w, v


# sha256 of the roots' bytes over parity_batches(seed) for each loss, as the
# solver computed them before the root was kept at the bracket's upper end
ROOT_DIGESTS = {
    "power_plus(1)": "eba6c5a35e195e754adafd78149e59a47762af448ce3d1d9997c4662793ffae9",
    "power_plus(1.5)": "74a09ab82f9b3693c987d685ee5673d76591ab56eaae2a81d43a78a042761e57",
    "power_plus(2)": "bfb302d77076afee3d6a2f0ef7be9b90f5b8d30b4a305af3893f701c6da0e712",
    "power_plus(3)": "55a3ff91f7f818e8668a91c94218875d70a9f551fcfd8f3b43fd76dfbccb9020",
    "convex_table": "b66b8284e2be3f3785941efff293b5d0ac0dca82aeab40cc003747feeda47952",
}
PARITY_LOSSES = {
    "power_plus(1)": LossFn.power_plus(1.0),
    "power_plus(1.5)": PortablePowerPlus(1.5),
    "power_plus(2)": LossFn.power_plus(2.0),
    "power_plus(3)": PortablePowerPlus(3.0),
    "convex_table": CONVEX_TABLE,
}


class TestRhoBatch:
    """rho_batch against independent oracles: bisection for shortfall, log-sum-exp for entropic, golden section for OCE."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(law_strategy, min_size=1, max_size=4), st.sampled_from(BATCH_SPECS), st.booleans())
    def test_matches_oracles_and_ignores_padding(self, atom_lists, spec, overflow):
        laws = [([a for a, _ in atoms], [b for _, b in atoms]) for atoms in atom_lists]
        if overflow and spec.family == "shortfall" and spec.loss.kind == "exponential":
            laws.insert(len(laws) // 2, OVERFLOW_LAW)
        w, v = padded(laws, 16 + 3)
        batch = rho_batch(spec, w, v)
        for i, (values, weights) in enumerate(laws):
            n = len(values)
            oracle = oracle_risk(spec, w[i, :n], v[i, :n])
            # the bisection oracle stops within 1e-11 of the root, not at the Newton iterate
            tol = 1e-9 if spec.family == "shortfall" else 1e-12 * max(1.0, abs(oracle))
            assert abs(batch[i] - oracle) <= tol
            # alone and unpadded, and through the scalar entry point: the same bits
            assert rho_batch(spec, w[i : i + 1, :n], v[i : i + 1, :n])[0] == batch[i]
            assert rho_values(spec, w[i, :n], v[i, :n]) == batch[i]

    def test_overflow_law_matches_entropic(self):
        w, v = padded([OVERFLOW_LAW, ([0.0, 1.0], [0.5, 0.5])], 12)
        out = rho_batch(RiskSpec.shortfall(LossFn.exponential(3.0)), w, v)
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(rho_entropic(FiniteDist([0.0, 600.0], [0.999, 0.001]), 3.0), abs=1e-9)
        assert out[1] == pytest.approx(rho_entropic(UNIFORM01, 3.0), abs=1e-9)

    def test_coherent_is_unsupported(self):
        spec = RiskSpec.coherent([[2.0, 0.0], [0.0, 2.0]])
        with pytest.raises(UnsupportedFamilyError):
            rho_batch(spec, np.array([[0.5, 0.5]]), np.array([[0.0, 1.0]]))

    def test_checks_are_kept(self):
        class Flat:
            def __call__(self, x):
                return np.ones_like(np.asarray(x, dtype=float))

        w, v = np.array([[0.5, 0.5], [0.25, 0.75]]), np.array([[0.0, 1.0], [1.0, 2.0]])
        with pytest.raises(BracketFailureError):
            rho_batch(RiskSpec.shortfall(Flat()), w, v)
        with pytest.raises(ZeroTotalMassError):
            rho_batch(RiskSpec.expectation(), np.array([[0.0, 0.0]]), np.array([[1.0, 2.0]]))

    @pytest.mark.parametrize("name", PARITY_LOSSES)
    def test_shortfall_roots_keep_their_bits(self, name):
        # exponential losses are left out: numpy's SIMD exp may differ between machines
        spec = RiskSpec.shortfall(PARITY_LOSSES[name])
        roots = b"".join(rho_batch(spec, w, v).tobytes() for w, v in parity_batches(31))
        assert hashlib.sha256(roots).hexdigest() == ROOT_DIGESTS[name]


class TestOce:
    def test_point_mass(self):
        assert rho_oce(point_mass(0.75), UtilityFn.exp_shift()) == pytest.approx(0.75, abs=1e-9)
        assert rho_oce(point_mass(0.75), UtilityFn.hinge_power(2.0)) == pytest.approx(
            0.75, abs=1e-9
        )

    def test_exp_shift_equals_entropic(self):
        assert rho_oce(UNIFORM01, UtilityFn.exp_shift()) == pytest.approx(LOG_MEAN_EXP, abs=1e-9)

    def test_identity_utility_gives_expectation(self):
        law = FiniteDist([-1.0, 0.0, 2.0], [0.2, 0.3, 0.5])
        assert rho_oce(law, UtilityFn.identity()) == pytest.approx(
            float(law.weights @ law.values_array()), abs=1e-9
        )


class TestCoherent:
    def test_singleton_density_is_expectation(self):
        mu = uniform(["a", "b", "c"])
        f = [1.0, 2.0, 3.0]
        assert rho_lifted(RiskSpec.coherent([[1.0, 1.0, 1.0]]), mu, f) == pytest.approx(2.0)

    def test_constant_payoff(self):
        mu = uniform(["a", "b"])
        assert rho_lifted(RiskSpec.coherent([[2.0, 0.0], [0.0, 2.0]]), mu, [0.7, 0.7]) == pytest.approx(0.7)

    def test_two_density_example(self):
        mu = uniform(["a", "b"])
        assert rho_lifted(RiskSpec.coherent([[2.0, 0.0], [0.0, 2.0]]), mu, [0.0, 1.0]) == pytest.approx(1.0)

    def test_invalid_density(self):
        mu = uniform(["a", "b"])
        with pytest.raises(InvalidDensityError):
            rho_lifted(RiskSpec.coherent([[2.0, 2.0]]), mu, [0.0, 1.0])
        with pytest.raises(InvalidDensityError):
            rho_lifted(RiskSpec.coherent([[3.0, -1.0]]), mu, [0.0, 1.0])

    def test_law_level_evaluation_unsupported(self):
        spec = RiskSpec.coherent([[1.0, 1.0]], uniform(["a", "b"]))
        with pytest.raises(UnsupportedFamilyError):
            rho_of_law(spec, UNIFORM01)

    def test_reference_space_pinned(self):
        spec = RiskSpec.coherent([[1.0, 1.0]], uniform(["a", "b"]))
        with pytest.raises(SpaceMismatchError):
            rho_lifted(spec, uniform(["x", "y"]), [0.0, 1.0])

    def test_normalization_at_zero(self):
        spec = RiskSpec.coherent([[2.0, 0.0], [0.5, 1.5]], uniform(["a", "b"]))
        assert rho_lifted(spec, uniform(["a", "b"]), [0.0, 0.0]) == 0.0


class TestLifted:
    @pytest.mark.parametrize("spec", ALL_SCALAR_SPECS)
    def test_constant_is_normalized(self, spec):
        mu = uniform(["a", "b", "c"])
        assert rho_lifted(spec, mu, [0.4, 0.4, 0.4]) == pytest.approx(0.4, abs=1e-9)

    def test_entropic_example(self):
        mu = uniform(["a", "b"])
        assert rho_lifted(RiskSpec.entropic(1.0), mu, [0.0, 1.0]) == pytest.approx(
            LOG_MEAN_EXP, abs=1e-12
        )

    @pytest.mark.parametrize("spec", ALL_SCALAR_SPECS)
    def test_law_invariance(self, spec):
        # same pushforward law on two different spaces
        mu1 = FiniteDist(["a", "b", "c"], [0.25, 0.25, 0.5])
        f1 = [1.0, 1.0, -1.0]
        mu2 = FiniteDist(["u", "v"], [0.5, 0.5])
        f2 = [1.0, -1.0]
        assert rho_lifted(spec, mu1, f1) == pytest.approx(
            rho_lifted(spec, mu2, f2), abs=1e-10
        )

    @pytest.mark.parametrize("spec", ALL_SCALAR_SPECS)
    def test_monotone_and_cash_additive_and_convex(self, spec):
        rng = np.random.default_rng(4)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            mu = FiniteDist([f"x{i}" for i in range(n)], rng.dirichlet(np.ones(n)))
            f = rng.uniform(-2, 2, n)
            g = f + rng.uniform(0, 1, n)
            rf, rg = rho_lifted(spec, mu, f), rho_lifted(spec, mu, g)
            assert rf <= rg + 1e-10
            c = float(rng.uniform(-1, 1))
            assert rho_lifted(spec, mu, f + c) == pytest.approx(rf + c, abs=1e-9)
            t = float(rng.uniform(0, 1))
            h = rng.uniform(-2, 2, n)
            mix = rho_lifted(spec, mu, t * f + (1 - t) * h)
            assert mix <= t * rf + (1 - t) * rho_lifted(spec, mu, h) + 1e-9

    @pytest.mark.parametrize("spec", ALL_SCALAR_SPECS)
    def test_convex_order_monotone(self, spec):
        # split one atom into a mean-preserving pair: a spread in convex order
        rng = np.random.default_rng(5)
        for _ in range(25):
            base = random_law(rng, 4)
            values = list(base.atoms)
            weights = list(base.weights)
            eps = float(rng.uniform(0.05, 0.4))
            v = values.pop()
            w = weights.pop()
            spread = FiniteDist(
                [*values, v - eps, v + eps], [*weights, w / 2, w / 2]
            )
            assert rho_of_law(spec, base) <= rho_of_law(spec, spread) + 1e-9

    def test_esssup_ignores_null_atoms(self):
        mu = FiniteDist(["a", "b", "c"], [0.5, 0.5, 0.0])
        assert rho_lifted(RiskSpec.esssup(), mu, [0.0, 1.0, 99.0]) == 1.0


class TestConditional:
    def test_trivial_partition(self):
        spec = RiskSpec.entropic(1.0)
        mu = uniform(["a", "b"])
        cond = rho_conditional(spec, mu, [0.0, 1.0], Partition([mu.atoms]))
        assert len(cond.values) == 1
        assert cond.values[0][1] == pytest.approx(LOG_MEAN_EXP, abs=1e-12)

    def test_finest_partition_returns_values(self):
        spec = RiskSpec.entropic(1.0)
        mu = uniform(["a", "b"])
        cond = rho_conditional(spec, mu, [0.25, 0.5], Partition((("a",), ("b",))))
        assert [v for _, v in cond.values] == pytest.approx([0.25, 0.5], abs=1e-12)

    def test_independent_product_blocks(self):
        # under a product law, conditioning on the first coordinate gives
        # rho of the slice f(x, .) under the second marginal
        spec = RiskSpec.entropic(1.0)
        atoms = [("a", "u"), ("a", "v"), ("b", "u"), ("b", "v")]
        mu = FiniteDist(atoms, [0.3 * 0.6, 0.3 * 0.4, 0.7 * 0.6, 0.7 * 0.4])
        f = [1.0, 2.0, -1.0, 0.5]
        part = Partition([(("a", "u"), ("a", "v")), (("b", "u"), ("b", "v"))])
        cond = rho_conditional(spec, mu, f, part)
        second = FiniteDist(["u", "v"], [0.6, 0.4])
        assert cond.values[0][1] == pytest.approx(
            rho_lifted(spec, second, [1.0, 2.0]), abs=1e-12
        )
        assert cond.values[1][1] == pytest.approx(
            rho_lifted(spec, second, [-1.0, 0.5]), abs=1e-12
        )

    def test_zero_weight_blocks_are_left_out_and_bad_partitions_refused(self):
        spec = RiskSpec.entropic(1.0)
        mu = FiniteDist(["a", "b", "c"], [0.5, 0.5, 0.0])
        cond = rho_conditional(spec, mu, [1.0, 2.0, 3.0], Partition([("a",), ("b",), ("c",)]))
        assert [block for block, _ in cond.values] == [("a",), ("b",)] and cond.weights == (0.5, 0.5)
        for blocks in ([("a", "b")], [("a", "b"), ("b", "c")]):
            with pytest.raises(InvalidPartitionError):
                rho_conditional(spec, mu, [1.0, 2.0, 3.0], Partition(blocks))

    def test_block_law_of_a_two_block_example(self):
        # the test-module block_law, the reference of the test below
        mu = uniform(["a", "b", "c", "d"])
        for block, support in [(("a", "b"), (0.0, 1.0)), (("c", "d"), (2.0, 3.0))]:
            law = block_law(mu, [0.0, 1.0, 2.0, 3.0], block)
            assert law.atoms == support and np.allclose(law.weights, [0.5, 0.5])
        merged = block_law(FiniteDist(["a", "b", "c"], [0.2, 0.3, 0.5]), [1.0, 1.0, 4.0], ("a", "b", "c"))
        assert merged.atoms == (1.0, 4.0) and np.allclose(merged.weights, [0.5, 0.5])

    def test_block_laws_mix_back_into_the_law(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(3, 8))
            mu = FiniteDist([f"x{i}" for i in range(n)], rng.dirichlet(np.ones(n)))
            vals = rng.uniform(-2, 2, n)
            cut = int(rng.integers(1, n))
            blocks = [mu.atoms[:cut], mu.atoms[cut:]]
            masses = [sum(mu.weight(a) for a in block) for block in blocks]
            laws = [block_law(mu, vals, block) for block in blocks]
            for v, w in zip(vals, mu.weights):
                mixed = sum(m * law.weight(float(v)) for m, law in zip(masses, laws) if float(v) in law.atoms)
                assert mixed == pytest.approx(w, abs=1e-12)

    def test_blocks_recombine_into_the_law(self):
        # the charged blocks' weights are mu's mass on each and sum to 1, and
        # each block risk is, to rounding, the risk of the block's law
        rng = np.random.default_rng(2)
        spec = RiskSpec.shortfall(LossFn.power_plus(2.0))
        for _ in range(30):
            n = int(rng.integers(3, 8))
            mu = FiniteDist([f"x{i}" for i in range(n)], rng.dirichlet(np.ones(n)))
            vals = rng.uniform(-2, 2, n)
            cut = int(rng.integers(1, n))
            part = Partition([mu.atoms[:cut], mu.atoms[cut:]])
            cond = rho_conditional(spec, mu, vals, part)
            assert [block for block, _ in cond.values] == list(part.blocks)
            assert sum(cond.weights) == pytest.approx(1.0, abs=1e-12)
            for (block, risk), weight in zip(cond.values, cond.weights):
                assert weight == pytest.approx(sum(mu.weight(a) for a in block), abs=1e-12)
                assert risk == pytest.approx(rho_of_law(spec, block_law(mu, vals, block)), abs=1e-12)

    @pytest.mark.parametrize("spec", ALL_SCALAR_SPECS)
    def test_block_measurable_cash_additivity(self, spec):
        rng = np.random.default_rng(6)
        mu = FiniteDist(["a", "b", "c", "d"], rng.dirichlet(np.ones(4)))
        part = Partition([("a", "b"), ("c", "d")])
        f = rng.uniform(-2, 2, 4)
        y = [0.5, 0.5, -0.25, -0.25]  # block measurable
        plain = rho_conditional(spec, mu, f, part)
        shifted = rho_conditional(spec, mu, f + np.asarray(y), part)
        for (_, a), (_, b), c in zip(plain.values, shifted.values, [0.5, -0.25]):
            assert b == pytest.approx(a + c, abs=1e-9)


class TestAcceptance:
    def test_point_mass_zero_accepted(self):
        assert rho_of_law(RiskSpec.entropic(1.0), point_mass(0.0)) <= 1e-9

    def test_point_mass_one_rejected(self):
        assert not rho_of_law(RiskSpec.entropic(1.0), point_mass(1.0)) <= 1e-9

    def test_two_point_example(self):
        # rho = log((e^-1 + e^0.5) / 2) > 0, so not acceptable at tol 1e-9
        law = FiniteDist([-1.0, 0.5], [0.5, 0.5])
        rho = rho_of_law(RiskSpec.entropic(1.0), law)
        assert rho == pytest.approx(
            math.log((math.exp(-1) + math.exp(0.5)) / 2.0), abs=1e-12
        )
        assert rho > 0
        assert not rho <= 1e-9


class TestAgreementOracles:
    def test_shortfall_exponential_matches_entropic(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            law = random_law(rng, int(rng.integers(2, 7)))
            eta = float(rng.uniform(0.3, 3.0))
            assert rho_shortfall(law, LossFn.exponential(eta)) == pytest.approx(
                rho_entropic(law, eta), abs=1e-8
            )

    def test_oce_exp_shift_matches_entropic_one(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            law = random_law(rng, int(rng.integers(2, 7)))
            assert rho_oce(law, UtilityFn.exp_shift()) == pytest.approx(
                rho_entropic(law, 1.0), abs=1e-8
            )


class TestFailureModes:
    def test_spec_json_round_trip(self):
        for spec in ALL_SCALAR_SPECS:
            again = RiskSpec.from_json(spec.as_json())
            assert again.family == spec.family

    def test_flat_loss_breaks_bracket(self):
        # a "loss" that never exceeds 1 cannot bracket the root; the
        # validator already refuses it at construction
        from divlab.errors import InvalidLossError

        with pytest.raises(InvalidLossError):
            LossFn.custom([-1.0, 0.0, 1.0], [1.0, 1.0, 1.0])

    def test_bracket_failure_guard(self):
        # the root finder itself also refuses a degenerate integrand that
        # slips past construction (simulated with a bare callable)
        class Flat:
            def __call__(self, x):
                return np.ones_like(np.asarray(x, dtype=float))

        with pytest.raises(BracketFailureError):
            shortfall_root([0.5, 0.5], [0.0, 1.0], Flat())

    def test_lebesgue_continuity_probe(self):
        # decreasing perturbations converge monotonically to the base risk
        rng = np.random.default_rng(9)
        for spec in [
            RiskSpec.shortfall(LossFn.power_plus(2.0)),
            RiskSpec.oce(UtilityFn.exp_shift()),
        ]:
            mu = FiniteDist(["a", "b", "c"], rng.dirichlet(np.ones(3)))
            f = rng.uniform(-2, 2, 3)
            h = rng.uniform(0, 1, 3)
            limit = rho_lifted(spec, mu, f)
            prev = math.inf
            for k in range(15):
                val = rho_lifted(spec, mu, f + 4.0 ** (-k) * h)
                assert val <= prev + 1e-12
                prev = val
            assert abs(prev - limit) <= 1e-6
