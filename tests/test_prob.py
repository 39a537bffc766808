import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divlab.errors import (
    ConfigParseError,
    DuplicateAtomError,
    InvalidPartitionError,
    LengthMismatchError,
    NegativeWeightError,
    TotalMassError,
    UnmappedAtomError,
    ZeroTotalMassError,
)
from divlab.prob import (
    FiniteDist,
    JointDist,
    Kernel,
    Partition,
    condition,
    disintegrate_w,
    pushforward,
    uniform,
)


def random_dist(rng, n, labels=None):
    labels = labels or tuple(f"x{i}" for i in range(n))
    return FiniteDist(labels, rng.dirichlet(np.ones(n)))


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


class TestPushforward:
    def test_identity(self):
        d = FiniteDist(["a", "b"], [0.25, 0.75])
        out = pushforward(d, {"a": "a", "b": "b"})
        assert out.atoms == d.atoms and np.array_equal(out.weights, d.weights)

    def test_constant_map_gives_point_mass(self):
        d = uniform(["a", "b"])
        out = pushforward(d, lambda _: "c")
        assert out.atoms == ("c",) and out.weights[0] == 1.0

    def test_swap(self):
        d = FiniteDist(["a", "b"], [0.25, 0.75])
        out = pushforward(d, {"a": "b", "b": "a"})
        assert out.weight("b") == 0.25 and out.weight("a") == 0.75

    def test_unmapped_atom(self):
        d = uniform(["a", "b"])
        with pytest.raises(UnmappedAtomError):
            pushforward(d, {"a": "x"})

    def test_mass_preserved(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            d = random_dist(rng, n)
            out = pushforward(d, {a: int(rng.integers(3)) for a in d.atoms})
            assert abs(float(out.weights.sum()) - 1.0) <= 1e-15


class TestKernelAndDisintegration:
    def test_deterministic_kernel_is_graph_of_the_map(self):
        k = Kernel.deterministic(["a", "b", "c"], {"a": "u", "b": "v", "c": "u"})
        assert k.target == ("u", "v")
        assert np.array_equal(k.matrix, [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])

    def test_disintegrate_product(self):
        mu, eta = np.array([0.3, 0.7]), np.array([0.4, 0.6])
        marg, rows = disintegrate_w(np.outer(mu, eta))
        assert np.allclose(marg, mu)
        assert np.allclose(rows, [eta, eta])

    def test_zero_row_convention_is_uniform(self):
        _, rows = disintegrate_w(np.array([[0.5, 0.3, 0.2], [0.0, 0.0, 0.0]]))
        assert np.array_equal(rows[1], np.full(3, 1.0 / 3.0))

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
    """disintegrate_w(w) gives w's row sums and row-stochastic rows that rebuild w."""
    marg, rows = disintegrate_w(w)
    assert np.array_equal(marg, w.sum(axis=1))
    assert np.all(rows >= 0.0) and np.all(np.abs(rows.sum(axis=1) - 1.0) <= 1e-12)
    assert np.all(np.abs(marg[:, None] * rows - w) <= 1e-12)


class TestCondition:
    def test_trivial_partition(self):
        mu = uniform(["a", "b"])
        blocks = condition(mu, [0.0, 1.0], Partition([mu.atoms]))
        assert len(blocks) == 1 and blocks[0].weight == 1.0
        assert blocks[0].law.atoms == (0.0, 1.0) and np.array_equal(blocks[0].law.weights, [0.5, 0.5])

    def test_finest_partition(self):
        mu = FiniteDist(["a", "b"], [0.3, 0.7])
        blocks = condition(mu, [5.0, 7.0], Partition((("a",), ("b",))))
        assert [b.weight for b in blocks] == pytest.approx([0.3, 0.7])
        assert blocks[0].law.atoms == (5.0,)
        assert blocks[1].law.atoms == (7.0,)

    def test_two_block_example(self):
        mu = uniform(["a", "b", "c", "d"])
        part = Partition([("a", "b"), ("c", "d")])
        blocks = condition(mu, [0.0, 1.0, 2.0, 3.0], part)
        assert [b.weight for b in blocks] == pytest.approx([0.5, 0.5])
        for b, support in zip(blocks, [(0.0, 1.0), (2.0, 3.0)]):
            assert b.law.atoms == support
            assert np.allclose(b.law.weights, [0.5, 0.5])

    def test_zero_weight_block_omitted(self):
        mu = FiniteDist(["a", "b", "c"], [0.5, 0.5, 0.0])
        blocks = condition(mu, [1.0, 2.0, 3.0], Partition([("a",), ("b",), ("c",)]))
        assert len(blocks) == 2

    def test_invalid_partition(self):
        mu = uniform(["a", "b"])
        with pytest.raises(InvalidPartitionError):
            condition(mu, [0.0, 1.0], Partition([("a",)]))
        with pytest.raises(InvalidPartitionError):
            condition(mu, [0.0, 1.0], Partition([("a", "b"), ("b",)]))

    def test_mixture_of_conditionals_is_unconditional_law(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(3, 8))
            mu = random_dist(rng, n)
            vals = rng.uniform(-2, 2, n)
            cut = int(rng.integers(1, n))
            part = Partition([mu.atoms[:cut], mu.atoms[cut:]])
            blocks = condition(mu, vals, part)
            assert sum(b.weight for b in blocks) == pytest.approx(1.0, abs=1e-12)
            for v, w in zip(vals, mu.weights):
                mixed = sum(b.weight * b.law.weight(v) for b in blocks if v in b.law.atoms)
                assert mixed == pytest.approx(w, abs=1e-12)


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


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=2, max_size=8))
def test_pushforward_preserves_mass_property(raw):
    total = sum(raw)
    if total <= 0:
        with pytest.raises(ZeroTotalMassError):
            FiniteDist(range(len(raw)), np.asarray(raw))
        return
    d = FiniteDist(range(len(raw)), np.asarray(raw) / total)
    out = pushforward(d, lambda i: i % 2)
    assert float(out.weights.sum()) == pytest.approx(1.0, abs=1e-15)
