import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divlab.errors import (
    DuplicateAtomError,
    InvalidPartitionError,
    LengthMismatchError,
    NegativeWeightError,
    NotAbsolutelyContinuousError,
    SpaceMismatchError,
    TotalMassError,
    UnmappedAtomError,
    ZeroTotalMassError,
)
from divlab.prob import (
    FiniteDist,
    JointDist,
    Kernel,
    Partition,
    check_convex_order,
    compose_kernel,
    condition,
    disintegrate,
    law_of,
    mixture,
    point_mass,
    pushforward,
    radon_nikodym,
    shift_law,
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
        assert FiniteDist.from_json(d.as_json()).is_close(d)


class TestPushforward:
    def test_identity(self):
        d = FiniteDist(["a", "b"], [0.25, 0.75])
        assert pushforward(d, {"a": "a", "b": "b"}).is_close(d)

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


class TestComposeAndDisintegrate:
    def test_deterministic_kernel_is_graph_measure(self):
        mu = FiniteDist(["a", "b"], [0.3, 0.7])
        k = Kernel.deterministic(mu.atoms, {"a": "u", "b": "v"})
        joint, marginal = compose_kernel(mu, k)
        assert marginal.is_close(pushforward(mu, {"a": "u", "b": "v"}))
        assert joint.matrix[0, 0] == pytest.approx(0.3)
        assert joint.matrix[1, 1] == pytest.approx(0.7)

    def test_constant_kernel_is_product(self):
        mu = FiniteDist(["a", "b"], [0.3, 0.7])
        eta = FiniteDist(["u", "v"], [0.4, 0.6])
        joint, marginal = compose_kernel(mu, Kernel(mu.atoms, eta.atoms, [eta.weights] * len(mu)))
        assert marginal.is_close(eta)
        assert np.allclose(joint.matrix, np.outer(mu.weights, eta.weights))

    def test_mean_measure_example(self):
        mu = uniform(["a", "b"])
        k = Kernel(mu.atoms, ["u", "v"], [[0.2, 0.8], [0.6, 0.4]])
        _, marginal = compose_kernel(mu, k)
        assert np.allclose(marginal.weights, [0.4, 0.6])

    def test_space_mismatch(self):
        mu = uniform(["a", "b"])
        k = Kernel(("x", "y"), ["u"], [[1.0], [1.0]])
        with pytest.raises(SpaceMismatchError):
            compose_kernel(mu, k)

    def test_disintegrate_product(self):
        mu = FiniteDist(["a", "b"], [0.3, 0.7])
        eta = FiniteDist(["u", "v"], [0.4, 0.6])
        joint, _ = compose_kernel(mu, Kernel(mu.atoms, eta.atoms, [eta.weights] * len(mu)))
        marg, kernel = disintegrate(joint)
        assert marg.is_close(mu)
        for i in range(2):
            assert kernel.row(i).is_close(eta)

    def test_zero_row_convention_is_uniform(self):
        joint = JointDist(["a", "b"], ["u", "v"], [[0.5, 0.5], [0.0, 0.0]])
        _, kernel = disintegrate(joint)
        assert np.allclose(kernel.matrix[1], [0.5, 0.5])

    def test_round_trip_on_random_joints(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            ne, nf = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            w = rng.dirichlet(np.ones(ne * nf)).reshape(ne, nf)
            joint = JointDist([f"e{i}" for i in range(ne)], [f"f{j}" for j in range(nf)], w)
            marg, kernel = disintegrate(joint)
            back, _ = compose_kernel(marg, kernel)
            assert np.all(np.abs(back.matrix - joint.matrix) <= 1e-12)

    def test_kernel_json_round_trip(self):
        k = Kernel(("a", "b"), ("u", "v"), [[0.2, 0.8], [0.6, 0.4]])
        k2 = Kernel.from_json(k.as_json())
        assert k2.source == k.source and np.allclose(k2.matrix, k.matrix)


class TestRadonNikodym:
    def test_identity_density(self):
        mu = FiniteDist(["a", "b"], [0.4, 0.6])
        assert np.allclose(radon_nikodym(mu, mu), [1.0, 1.0])

    def test_ratio(self):
        nu = FiniteDist(["a", "b"], [1.0, 0.0])
        mu = uniform(["a", "b"])
        assert np.allclose(radon_nikodym(nu, mu), [2.0, 0.0])

    def test_support_violation(self):
        nu = uniform(["a", "b"])
        mu = FiniteDist(["a", "b"], [1.0, 0.0])
        with pytest.raises(NotAbsolutelyContinuousError):
            radon_nikodym(nu, mu)

    def test_shared_null_atom_gets_zero(self):
        nu = FiniteDist(["a", "b", "c"], [1.0, 0.0, 0.0])
        mu = FiniteDist(["a", "b", "c"], [0.5, 0.5, 0.0])
        assert np.allclose(radon_nikodym(nu, mu), [2.0, 0.0, 0.0])

    def test_different_spaces(self):
        with pytest.raises(SpaceMismatchError):
            radon_nikodym(uniform(["a"]), uniform(["b"]))


class TestCondition:
    def test_trivial_partition(self):
        mu = uniform(["a", "b"])
        blocks = condition(mu, [0.0, 1.0], Partition.trivial(mu.atoms))
        assert len(blocks) == 1
        assert blocks[0].law.is_close(law_of(mu, [0.0, 1.0]))

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
            mixed = mixture([(b.weight, b.law) for b in blocks])
            direct = law_of(mu, vals)
            for atom in direct.atoms:
                assert mixed.weight(atom) == pytest.approx(direct.weight(atom), abs=1e-12)


class TestConvexOrder:
    def test_dirac_below_uniform(self):
        assert check_convex_order(point_mass(0.5), uniform([0.0, 1.0]))

    def test_uniform_not_below_dirac(self):
        assert not check_convex_order(uniform([0.0, 1.0]), point_mass(0.5))

    def test_unequal_means_fail(self):
        assert not check_convex_order(point_mass(0.4), uniform([0.0, 1.0]))

    def test_kernel_averaging_contracts_in_convex_order(self):
        # averaging f through a kernel produces a law dominated by the law
        # of f under the mean measure (conditional Jensen)
        rng = np.random.default_rng(3)
        for _ in range(50):
            ne, nf = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            mu = random_dist(rng, ne)
            kernel = Kernel(
                mu.atoms,
                [f"f{j}" for j in range(nf)],
                np.vstack([rng.dirichlet(np.ones(nf)) for _ in range(ne)]),
            )
            f = rng.uniform(-2, 2, nf)
            _, mean_measure = compose_kernel(mu, kernel)
            averaged = law_of(mu, kernel.matrix @ f)
            spread = law_of(mean_measure, f)
            assert check_convex_order(averaged, spread)


class TestShiftAndMixture:
    def test_shift(self):
        law = shift_law(uniform([0.0, 1.0]), 1.5)
        assert law.atoms == (1.5, 2.5)

    def test_mixture_merges_common_support(self):
        m = mixture([(0.5, uniform([0.0, 1.0])), (0.5, uniform([1.0, 2.0]))])
        assert m.atoms == (0.0, 1.0, 2.0)
        assert m.weight(1.0) == pytest.approx(0.5)


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
    mu = FiniteDist([f"e{i}" for i in range(n)], w)
    joint, _ = compose_kernel(mu, Kernel(mu.atoms, [f"f{j}" for j in range(nf)], rows))
    marg, kernel = disintegrate(joint)
    back, _ = compose_kernel(marg, kernel)
    assert np.all(np.abs(back.matrix - joint.matrix) <= 1e-12)


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
