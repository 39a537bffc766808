import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divlab.errors import (
    InvalidLossError,
    InvalidUtilityError,
    NegativeArgumentError,
)
from divlab.losses import (
    LossFn,
    UtilityFn,
    conjugate_table,
)


def numeric_conjugate(fn, y: float, bound: float = 50.0, n: int = 20001) -> float:
    """Brute-force conjugate oracle: grid maximization of x*y - fn(x).

    Two enumeration stages (global, then local around the argmax) to push
    the grid error well below 1e-6. Deliberately independent of the closed
    forms; used to cross-check them.
    """
    lo, hi = -bound, bound
    best = -math.inf
    for _ in range(3):
        xs = np.linspace(lo, hi, n)
        with np.errstate(over="ignore"):
            vals = xs * y - np.asarray(fn(xs), dtype=float)
        k = int(np.argmax(vals))
        best = max(best, float(vals[k]))
        step = (hi - lo) / (n - 1)
        lo, hi = xs[k] - step, xs[k] + step
    return best


class TestLossConjugates:
    def test_exponential_at_one(self):
        # l(x) = e^x has l*(y) = y log y - y, so l*(1) = -1
        loss = LossFn.exponential(1.0)
        assert loss.conjugate(1.0) == pytest.approx(-1.0, abs=1e-12)

    def test_exponential_at_zero_is_neg_inf_of_loss(self):
        assert LossFn.exponential(1.0).conjugate(0.0) == 0.0
        assert LossFn.power_plus(2.0).conjugate(0.0) == 0.0

    def test_negative_argument_rejected(self):
        with pytest.raises(NegativeArgumentError):
            LossFn.exponential(1.0).conjugate(-0.5)

    def test_power_plus_one(self):
        loss = LossFn.power_plus(1.0)
        assert loss.conjugate(0.5) == -0.5
        assert loss.conjugate(2.0) == math.inf

    @pytest.mark.parametrize("loss", [
        LossFn.exponential(1.0),
        LossFn.exponential(2.5),
        LossFn.power_plus(2.0),
        LossFn.power_plus(3.5),
    ])
    def test_closed_forms_match_numeric_oracle(self, loss):
        for y in [0.0, 0.3, 1.0, 2.0, 5.0]:
            exact = loss.conjugate(y)
            brute = numeric_conjugate(loss, y)
            if math.isfinite(exact):
                assert exact == pytest.approx(brute, abs=1e-6)
            else:
                assert brute > 1e3

    @pytest.mark.parametrize("loss", [
        LossFn.exponential(1.0),
        LossFn.power_plus(2.0),
        LossFn.custom(np.linspace(-3, 3, 25), np.exp(np.linspace(-3, 3, 25))),
    ])
    def test_fenchel_young(self, loss):
        xs = np.linspace(-3, 3, 13)
        for y in [0.0, 0.25, 1.0, 3.0]:
            star = loss.conjugate(y)
            if not math.isfinite(star):
                continue
            vals = np.asarray(loss(xs), dtype=float)
            assert np.all(xs * y <= vals + star + 1e-8)

    def test_custom_table_conjugate_range(self):
        # tabulated e^x on [-2, 2]: slopes span roughly [e^-2, e^2]
        xs = np.linspace(-2, 2, 41)
        loss = LossFn.custom(xs, np.exp(xs))
        table = conjugate_table(loss)
        assert loss.conjugate(1.0) == pytest.approx(-1.0, abs=1e-3)
        assert loss.conjugate(table.y_hi * 2) == math.inf


CONVEX_TABLE = LossFn.custom([-2.0, -1.0, 0.0, 1.0, 2.0], [0.5, 0.5, 1.0, 2.0, 4.0])


class TestLossDerivative:
    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([
            LossFn.exponential(0.3),
            LossFn.exponential(3.0),
            LossFn.power_plus(1.0),
            LossFn.power_plus(1.5),
            LossFn.power_plus(2.0),
            LossFn.power_plus(3.0),
            CONVEX_TABLE,
            UtilityFn.exp_shift(),
            UtilityFn.identity(),
            UtilityFn.hinge_power(1.5),
            UtilityFn.hinge_power(3.0),
            UtilityFn.custom([-1.0, 0.0, 1.0], [-1.0, 0.0, 2.0]),
        ]),
        st.floats(min_value=-4.0, max_value=4.0),
    )
    def test_matches_central_differences_away_from_kinks(self, fn, x):
        kinks = {"power_plus": [-1.0], "hinge_power": [-(fn.p or 0.0)], "custom": list(fn.xs or ())}.get(fn.kind, [])
        h = 1e-6
        if any(abs(x - k) < 1e-3 for k in kinks):
            return
        central = (float(fn(x + h)) - float(fn(x - h))) / (2.0 * h)
        assert float(fn.derivative(x)) == pytest.approx(central, rel=1e-6, abs=1e-6)

    def test_power_plus_one_is_flat_left_of_minus_one(self):
        loss = LossFn.power_plus(1.0)
        xs = np.array([-5.0, -2.0, -1.0 - 1e-12, -1.0])
        assert np.all(loss.derivative(xs) == 0.0)
        assert np.all(loss.derivative(np.array([-0.5, 0.0, 3.0])) == 1.0)

    def test_custom_takes_the_left_segment_slope(self):
        # slopes 0, 0.5, 1, 2 between the table points; boundary slopes outside
        xs = np.array([-9.0, -2.0, -1.5, -1.0, 0.0, 0.5, 1.0, 2.0, 9.0])
        expected = [0.0, 0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 2.0]
        assert CONVEX_TABLE.derivative(xs).tolist() == expected

    def test_exponential_overflow_is_inf_not_an_error(self):
        with np.errstate(over="raise"):
            assert LossFn.exponential(3.0).derivative(np.array([400.0]))[0] == math.inf


class TestUtilityPivot:
    @pytest.mark.parametrize("phi", [
        UtilityFn.exp_shift(),
        UtilityFn.identity(),
        UtilityFn.hinge_power(1.5),
        UtilityFn.custom([-1.0, 0.0, 1.0], [-1.0, 0.0, 2.0]),
        UtilityFn.custom([-1.0, 0.0, 1.0], [-0.5, 0.0, 1.0]),
    ])
    def test_pivot_touches_the_identity_with_slope_one(self, phi):
        x0 = phi.pivot()
        assert float(phi(x0)) == x0
        # the left slope at x0 is at most 1 and the left slope just right of it at least 1
        assert float(phi.derivative(x0)) <= 1.0 <= float(phi.derivative(x0 + 1e-9))


class TestLossValidation:
    def test_decreasing_table_rejected(self):
        with pytest.raises(InvalidLossError):
            LossFn.custom([0.0, 1.0, 2.0], [1.0, 0.5, 2.0])

    def test_concave_table_rejected(self):
        with pytest.raises(InvalidLossError):
            LossFn.custom([-1.0, 0.0, 1.0], [0.0, 1.0, 1.5])

    def test_wrong_normalization_rejected(self):
        with pytest.raises(InvalidLossError):
            LossFn.custom([-1.0, 0.0, 1.0], [1.0, 2.0, 4.0])

    def test_bad_eta(self):
        with pytest.raises(InvalidLossError):
            LossFn.exponential(0.0)

    def test_bad_power(self):
        with pytest.raises(InvalidLossError):
            LossFn.power_plus(0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_parameters_rejected(self, value):
        # NaN passed the comparisons eta <= 0 and p < 1, and inf passed them too
        with pytest.raises(InvalidLossError):
            LossFn.exponential(value)
        with pytest.raises(InvalidLossError):
            LossFn.power_plus(value)

    def test_json_round_trip(self):
        for loss in [LossFn.exponential(2.0), LossFn.power_plus(3.0)]:
            again = LossFn.from_json(loss.as_json())
            assert again.kind == loss.kind


class TestUtilityConjugates:
    def test_exp_shift_normalization(self):
        # phi(x) = e^{x-1} has phi*(y) = y log y, so phi*(1) = 0
        assert UtilityFn.exp_shift().conjugate(1.0) == 0.0

    def test_exp_shift_is_ylogy(self):
        phi = UtilityFn.exp_shift()
        for y in [0.5, 1.0, 2.0, 3.0]:
            assert phi.conjugate(y) == pytest.approx(y * math.log(y), abs=1e-12)

    def test_identity_conjugate(self):
        phi = UtilityFn.identity()
        assert phi.conjugate(1.0) == 0.0
        assert phi.conjugate(2.0) == math.inf

    @pytest.mark.parametrize("phi", [
        UtilityFn.exp_shift(),
        UtilityFn.identity(),
        UtilityFn.hinge_power(2.0),
        UtilityFn.custom(np.linspace(-4.0, 4.0, 161), np.exp(np.linspace(-4.0, 4.0, 161) - 1.0)),
    ])
    def test_array_matches_scalar(self, phi):
        # conjugate_array feeds the batched phi* divergence, evaluate_batch
        ys = np.array([[0.0, 0.5, 1.0], [1.0 + 1e-13, 2.0, 7.0], [21.0, 1.0 - 1e-9, 3.5]])
        arr = phi.conjugate_array(ys)
        assert arr.shape == ys.shape
        for y, v in zip(ys.ravel(), arr.ravel()):
            star = phi.conjugate(float(y))
            if math.isinf(star):
                assert v == star
            else:
                assert v == pytest.approx(star, rel=1e-14, abs=1e-15)
        with pytest.raises(NegativeArgumentError):
            phi.conjugate_array(np.array([0.5, -0.1]))

    def test_hinge_power_two_is_squared_distance(self):
        phi = UtilityFn.hinge_power(2.0)
        for y in [0.0, 0.5, 1.0, 2.0, 4.0]:
            assert phi.conjugate(y) == pytest.approx((y - 1.0) ** 2, abs=1e-12)

    @pytest.mark.parametrize("phi", [
        UtilityFn.exp_shift(),
        UtilityFn.hinge_power(2.0),
        UtilityFn.hinge_power(3.0),
    ])
    def test_closed_forms_match_numeric_oracle(self, phi):
        for y in [0.0, 0.5, 1.0, 2.0, 5.0]:
            exact = phi.conjugate(y)
            brute = numeric_conjugate(phi, y)
            assert exact == pytest.approx(brute, abs=1e-6)

    def test_bad_normalization_rejected(self):
        # phi(x) = x^2 on a table has sup_x(x - phi(x)) = 1/4, not 0
        xs = np.linspace(-2, 2, 41)
        with pytest.raises(InvalidUtilityError):
            UtilityFn.custom(xs, xs**2)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_power_rejected(self, value):
        with pytest.raises(InvalidUtilityError, match="finite p > 1"):
            UtilityFn.hinge_power(value)

    def test_custom_accepts_normalized_table(self):
        xs = np.linspace(-4.0, 4.0, 161)
        phi = UtilityFn.custom(xs, np.exp(xs - 1.0))
        assert abs(phi.conjugate(1.0)) <= 1e-9


class TestOceInequality:
    def test_pair_with_one_is_equality(self):
        phi = UtilityFn.hinge_power(2.0)
        # y*phi*(1) + 1*phi*(y) = phi*(y) exactly, by phi*(1) = 0
        for y in [0.0, 0.5, 2.0]:
            lhs = y * phi.conjugate(1.0) + 1.0 * phi.conjugate(y)
            assert lhs == pytest.approx(phi.conjugate(y), abs=1e-12)

    def test_squared_distance_point_evaluation(self):
        phi = UtilityFn.hinge_power(2.0)
        x = y = 2.0
        lhs = y * phi.conjugate(x) + x * phi.conjugate(y)
        assert lhs == pytest.approx(4.0)
        assert phi.conjugate(x * y) == pytest.approx(9.0)
