import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divlab.errors import (
    ConfigParseError,
    DuplicateAtomError,
    LengthMismatchError,
    NegativeWeightError,
    TotalMassError,
    ZeroTotalMassError,
)
from divlab.prob import FiniteDist, JointDist, Kernel, Partition
from divlab.risk import _disintegrated


class TestMakeDist:
    def test_uniform_two_atoms(self):
        d = FiniteDist(["a", "b"], [0.5, 0.5])
        assert d.weight("a") == 0.5 and d.weight("b") == 0.5

    def test_point_mass(self):
        d = FiniteDist(["a"], [1.0])
        assert d.weights[0] == 1.0

    def test_sum_outside_tolerance_is_an_error(self):
        # 0.9 is neither zero mass nor within 1e-9 of 1
        with pytest.raises(TotalMassError):
            FiniteDist(["a", "b"], [0.3, 0.6])

    def test_zero_mass(self):
        with pytest.raises(ZeroTotalMassError):
            FiniteDist(["a", "b"], [0.0, 0.0])

    def test_tiny_negative_clamped(self):
        d = FiniteDist(["a", "b"], [1.0 + 5e-16, -5e-16])
        assert d.weights[1] == 0.0

    def test_real_negative_rejected(self):
        with pytest.raises(NegativeWeightError):
            FiniteDist(["a", "b"], [1.1, -0.1])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            FiniteDist(["a", "b"], [1.0])

    def test_duplicate_atoms(self):
        with pytest.raises(DuplicateAtomError):
            FiniteDist(["a", "a"], [0.5, 0.5])

    def test_near_one_sum_renormalized_exactly(self):
        d = FiniteDist(["a", "b"], [0.5 + 2e-10, 0.5])
        assert abs(float(d.weights.sum()) - 1.0) <= 1e-15

    def test_json_round_trip(self):
        d = FiniteDist(["a", "b", "c"], [0.2, 0.3, 0.5])
        back = FiniteDist.from_json(d.as_json())
        assert back.atoms == d.atoms and np.array_equal(back.weights, d.weights)

    @pytest.mark.parametrize("parse, doc", [
        (FiniteDist.from_json, {"atoms": 5, "weights": [1.0]}),
        (FiniteDist.from_json, {"atoms": [0.0], "weights": ["a"]}),
        (FiniteDist.from_json, {"atoms": [0.0], "weights": [True]}),
        (FiniteDist.from_json, {"atoms": [[0.0]], "weights": [1.0]}),
        (Partition.from_json, {"blocks": 5}),
        (Partition.from_json, {"blocks": "ab"}),
        (Partition.from_json, {"blocks": [["a"], {"b": 1}]}),
        (Kernel.from_json, {"source": ["a"], "target": ["u"], "rows": [["1"]]}),
        (Kernel.from_json, {"source": "a", "target": ["u"], "rows": [[1.0]]}),
        (JointDist.from_json, {"row_atoms": ["a"], "col_atoms": ["u"], "weights": [1.0]}),
        (Kernel.from_json, {"source": ["a", "b"], "target": ["u", "v"], "rows": [[1.0], [0.5, 0.5]]}),
        (JointDist.from_json, {"row_atoms": ["a", "b"], "col_atoms": ["u", "v"], "weights": [[0.5, 0.25], [0.25]]}),
    ])
    def test_ill_typed_fields_rejected(self, parse, doc):
        # these once escaped as a TypeError or ValueError (ragged rows too),
        # or ran coerced: true as the weight 1, "ab" as the blocks ["a"] and ["b"]
        with pytest.raises(ConfigParseError):
            parse(doc)


class TestKernelAndDisintegration:
    def test_disintegrate_product(self):
        mu, eta = np.array([0.3, 0.7]), np.array([0.4, 0.6])
        marg, rows = _disintegrated(np.outer(mu, eta))
        assert np.allclose(marg, mu)
        assert np.allclose(rows, [eta, eta])

    def test_zero_row_convention_is_uniform(self):
        _, rows = _disintegrated(np.array([[0.5, 0.3, 0.2], [0.0, 0.0, 0.0]]), 3)
        assert np.array_equal(rows[1], np.full(3, 1.0 / 3.0))

    def test_zero_rows_are_uniform_on_their_instances_columns(self):
        # a zero-padded block of two instances, of 2 and 3 columns: a padded
        # instance's masses and rows are the bits of its own; without the
        # widths, a row of zero mass stays zero
        w = np.zeros((2, 3, 4))
        w[0, 0, :2] = [0.25, 0.75]
        w[1, :2, :3] = [[0.1, 0.2, 0.3], [0.4, 0.0, 0.0]]
        mass, rows = _disintegrated(w, [2, 3])
        assert np.array_equal(rows[0, 1], [0.5, 0.5, 0.0, 0.0])
        assert np.array_equal(rows[1, 2], [1.0 / 3.0] * 3 + [0.0])
        own_mass, own_rows = _disintegrated(w[1, :, :3], 3)
        assert np.array_equal(mass[1], own_mass) and np.array_equal(rows[1, :, :3], own_rows)
        assert not _disintegrated(w)[1][:, 2].any()

    def test_round_trip_on_random_joints(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            ne, nf = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            w = rng.dirichlet(np.ones(ne * nf)).reshape(ne, nf)
            assert_disintegrates(w)

    def test_kernel_json_round_trip(self):
        k = Kernel(("a", "b"), ("u", "v"), [[0.2, 0.8], [0.6, 0.4]])
        k2 = Kernel.from_json(k.as_json())
        assert k2.source == k.source and np.allclose(k2.matrix, k.matrix)


def assert_disintegrates(w):
    """_disintegrated(w) gives w's row sums and row-stochastic rows that rebuild w."""
    marg, rows = _disintegrated(w)
    assert np.array_equal(marg, w.sum(axis=1))
    assert np.all(rows >= 0.0) and np.all(np.abs(rows.sum(axis=1) - 1.0) <= 1e-12)
    assert np.all(np.abs(marg[:, None] * rows - w) <= 1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=2, max_size=6),
    st.integers(min_value=0, max_value=10_000),
)
def test_disintegration_round_trip_property(raw, seed):
    rng = np.random.default_rng(seed)
    n = len(raw)
    w = np.asarray(raw) / np.sum(raw)
    nf = int(rng.integers(2, 4))
    rows = np.vstack([rng.dirichlet(np.ones(nf)) for _ in range(n)])
    assert_disintegrates(w[:, None] * rows)
