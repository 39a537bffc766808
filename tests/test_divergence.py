import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divlab.consistency import SearchBudget, run_trials
from divlab.divergence import (
    DivergenceSpec,
    _chain_values,
    divergence_for_risk_spec,
    dual_divergence,
    phi_divergence,
    primal_reconstruction,
    relative_entropy,
    shortfall_divergence,
)
from divlab.errors import ConfigParseError, NotAbsolutelyContinuousError, SpaceMismatchError
from divlab.kinds import CHECK_KINDS
from divlab.losses import LossFn, UtilityFn
from divlab.prob import FiniteDist, Kernel, uniform
from divlab.risk import RiskSpec, rho_lifted

LOG2 = math.log(2.0)


def chain_gap(kind, div, nu, mu, link, chain):
    """A data-processing kind's gap on nu and mu and a link ("kernel", "map" or "maps"), through its replay."""
    doc = {"nu": nu.as_json(), "mu": mu.as_json(), link: chain.as_json() if link == "kernel" else chain}
    return CHECK_KINDS[kind].replay(None, div, doc)


def map_kernel(source, mapping, target=None):
    """The 0/1 kernel x -> delta_T(x) of a map T given as a dict; its target defaults to the images in order."""
    images = [mapping[a] for a in source]
    target = tuple(dict.fromkeys(images) if target is None else target)
    return Kernel(source, target, [[float(y == t) for t in target] for y in images])


def chain_values(div, nu, mu, maps):
    """alpha(nu | mu) and alpha after each map of a chain, finest first, each map pushed as its 0/1 kernel."""
    kernels = []
    for mapping in maps:
        kernels.append(map_kernel(kernels[-1].target if kernels else mu.atoms, mapping))
    return _chain_values(div, nu.weights[None], mu.weights[None], [k.matrix[None] for k in kernels])[0].tolist()


def pair(rng, n, labels=None):
    labels = labels or tuple(f"a{i}" for i in range(n))
    return (
        FiniteDist(labels, rng.dirichlet(np.ones(n))),
        FiniteDist(labels, rng.dirichlet(np.ones(n))),
    )


class TestRelativeEntropy:
    @pytest.mark.parametrize("eta", [math.nan, math.inf, 0.0])
    def test_eta_must_be_finite_and_positive(self, eta):
        with pytest.raises(ConfigParseError):
            DivergenceSpec.relative_entropy(eta)

    def test_diagonal_vanishes(self):
        mu = FiniteDist(["a", "b"], [0.4, 0.6])
        assert relative_entropy(mu, mu) == 0.0

    def test_point_vs_uniform(self):
        nu = FiniteDist(["a", "b"], [1.0, 0.0])
        assert relative_entropy(nu, uniform(["a", "b"])) == pytest.approx(LOG2, abs=1e-12)
        assert relative_entropy(nu, uniform(["a", "b"])) == pytest.approx(0.693147, abs=1e-6)

    def test_three_quarters_example(self):
        nu = FiniteDist(["a", "b"], [0.75, 0.25])
        expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        assert relative_entropy(nu, uniform(["a", "b"])) == pytest.approx(expected, abs=1e-12)
        assert relative_entropy(nu, uniform(["a", "b"])) == pytest.approx(0.130812, abs=1e-6)

    def test_scale(self):
        nu = FiniteDist(["a", "b"], [0.75, 0.25])
        mu = uniform(["a", "b"])
        assert relative_entropy(nu, mu, eta=2.0) == pytest.approx(
            relative_entropy(nu, mu) / 2.0, abs=1e-15
        )

    def test_not_absolutely_continuous_is_inf(self):
        nu = uniform(["a", "b"])
        mu = FiniteDist(["a", "b"], [1.0, 0.0])
        assert relative_entropy(nu, mu) == math.inf

    def test_space_mismatch(self):
        with pytest.raises(SpaceMismatchError):
            relative_entropy(uniform(["a"]), uniform(["b"]))


class TestPhiDivergence:
    def test_diagonal_vanishes(self):
        mu = FiniteDist(["a", "b", "c"], [0.2, 0.3, 0.5])
        assert phi_divergence(mu, mu, UtilityFn.exp_shift()) == 0.0

    def test_ylogy_equals_relative_entropy(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            nu, mu = pair(rng, int(rng.integers(2, 7)))
            assert phi_divergence(nu, mu, UtilityFn.exp_shift()) == pytest.approx(
                relative_entropy(nu, mu), abs=1e-12
            )

    def test_not_ac_is_inf(self):
        nu = uniform(["a", "b"])
        mu = FiniteDist(["a", "b"], [1.0, 0.0])
        assert phi_divergence(nu, mu, UtilityFn.exp_shift()) == math.inf

    def test_chi_squared_closed_form(self):
        nu = FiniteDist(["a", "b"], [0.75, 0.25])
        mu = uniform(["a", "b"])
        expected = 0.5 * (1.5 - 1) ** 2 + 0.5 * (0.5 - 1) ** 2
        assert phi_divergence(nu, mu, UtilityFn.hinge_power(2.0)) == pytest.approx(
            expected, abs=1e-12
        )

    def test_identity_utility_gives_equality_indicator(self):
        mu = uniform(["a", "b"])
        nu = FiniteDist(["a", "b"], [0.6, 0.4])
        assert phi_divergence(mu, mu, UtilityFn.identity()) == 0.0
        assert phi_divergence(nu, mu, UtilityFn.identity()) == math.inf


class TestShortfallDivergence:
    def test_exponential_matches_relative_entropy(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            nu, mu = pair(rng, int(rng.integers(2, 6)))
            assert shortfall_divergence(nu, mu, LossFn.exponential(1.0)) == pytest.approx(
                relative_entropy(nu, mu), abs=1e-6
            )

    def test_diagonal_vanishes(self):
        mu = FiniteDist(["a", "b"], [0.3, 0.7])
        for loss in [LossFn.exponential(1.0), LossFn.power_plus(2.0)]:
            assert abs(shortfall_divergence(mu, mu, loss)) <= 1e-9

    def test_not_ac_is_inf(self):
        nu = uniform(["a", "b"])
        mu = FiniteDist(["a", "b"], [1.0, 0.0])
        assert shortfall_divergence(nu, mu, LossFn.power_plus(2.0)) == math.inf

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            nu, mu = pair(rng, 4)
            assert shortfall_divergence(nu, mu, LossFn.power_plus(2.0)) >= -1e-12


# flat at 0.5 left of -1, so l*(0) = -0.5 is finite and nu-null atoms keep
# the divergence finite; g is +inf beyond t = 2 / max r
ORACLE_TABLE = LossFn.custom([-2.0, -1.0, 0.0, 1.0, 2.0], [0.5, 0.5, 1.0, 2.0, 4.0])
# the oracle's fine grid step in s = log t
ORACLE_STEP = 2e-4


def grid_min_of_g(nu_w, mu_w, loss):
    """A brute-force minimum of g(t) = (1 + sum mu * l*(t nu / mu)) / t.

    g is convex in 1 / t, so unimodal in s = log t: a coarse grid over
    t in [e^-18, e^6] brackets the minimizer between the neighbours of its
    least point, and a fine grid of step ORACLE_STEP searches that bracket.
    Every g value comes from the scalar ``LossFn.conjugate``.
    """
    pos = mu_w > 0.0
    pairs = list(zip(mu_w[pos].tolist(), (nu_w[pos] / mu_w[pos]).tolist()))

    def g(s):
        t = math.exp(s)
        return (1.0 + sum(m * loss.conjugate(t * r) for m, r in pairs)) / t

    coarse = np.linspace(-18.0, 6.0, 601)
    k = int(np.argmin([g(s) for s in coarse]))
    lo, hi = coarse[max(k - 1, 0)], coarse[min(k + 1, coarse.size - 1)]
    fine = np.linspace(lo, hi, int(round((hi - lo) / ORACLE_STEP)) + 1)
    return min(g(s) for s in fine)


@st.composite
def oracle_cases(draw):
    loss = draw(st.one_of(
        st.floats(0.3, 3.0).map(LossFn.exponential),
        st.sampled_from([1.0, 1.5, 2.0, 3.0]).map(LossFn.power_plus),
        st.just(ORACLE_TABLE),
    ))
    n = draw(st.integers(2, 9))
    mu = np.asarray(draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
    nu = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=n, max_size=n))
    nu = np.asarray(nu)
    if nu.sum() == 0.0:
        nu[draw(st.integers(0, n - 1))] = 1.0
    return loss, nu / nu.sum(), mu / mu.sum()


class TestShortfallDivergenceOracle:
    @settings(max_examples=60, deadline=None)
    @given(oracle_cases())
    def test_matches_a_brute_force_minimum(self, case):
        # the minimum of g may sit on the edge of l*'s finite domain
        # (power_plus(1), tables), where a scan in log t once missed it
        loss, nu, mu = case
        value = DivergenceSpec.shortfall_div(loss).evaluate_w(nu, mu)
        oracle = grid_min_of_g(nu, mu, loss)
        assert value <= oracle + 1e-12 * max(1.0, abs(oracle))
        # on a grid of step d in log t, the least grid value exceeds the true
        # minimum by at most (e^d - 1) times |g| plus the largest |x| of l*'s
        # affine pieces (1 for power_plus(1), 2 for the table)
        assert value >= oracle - 2.0 * ORACLE_STEP * (3.0 + abs(oracle))

    def test_power_plus_one_matches_the_dual_solver(self):
        # the scan gave 5.7178 here, and duality reported a false violation
        mu = FiniteDist(["a", "b"], [0.808, 0.192])
        nu = FiniteDist(["a", "b"], [0.195, 0.805])
        res = dual_divergence(RiskSpec.shortfall(LossFn.power_plus(1.0)), nu, mu)
        assert res.closed_form == pytest.approx(0.805 / 0.192 - 1.0, rel=1e-12)
        assert abs(res.closed_form - res.value) <= 1e-5


class TestAxioms:
    @pytest.mark.parametrize("div", [
        DivergenceSpec.relative_entropy(1.0),
        DivergenceSpec.phi_star(UtilityFn.exp_shift()),
        DivergenceSpec.phi_star(UtilityFn.hinge_power(2.0)),
        DivergenceSpec.shortfall_div(LossFn.exponential(1.0)),
        DivergenceSpec.shortfall_div(LossFn.power_plus(2.0)),
        DivergenceSpec.equality_indicator(),
        DivergenceSpec.support_indicator(),
    ])
    def test_zero_at_diagonal_and_inf_off_support(self, div):
        rng = np.random.default_rng(3)
        mu = FiniteDist(["a", "b", "c"], rng.dirichlet(np.ones(3)))
        assert abs(div.evaluate(mu, mu)) <= 1e-9
        nu = FiniteDist(["a", "b", "c"], [0.5, 0.5, 0.0])
        deficient = FiniteDist(["a", "b", "c"], [0.0, 0.0, 1.0])
        assert div.evaluate(deficient, nu) == math.inf

    @pytest.mark.parametrize("div", [
        DivergenceSpec.relative_entropy(1.0),
        DivergenceSpec.phi_star(UtilityFn.hinge_power(2.0)),
        DivergenceSpec.shortfall_div(LossFn.exponential(1.0)),
    ])
    def test_convexity_in_first_argument(self, div):
        rng = np.random.default_rng(4)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            labels = tuple(f"a{i}" for i in range(n))
            mu = FiniteDist(labels, rng.dirichlet(np.ones(n)))
            nu1 = FiniteDist(labels, rng.dirichlet(np.ones(n)))
            nu2 = FiniteDist(labels, rng.dirichlet(np.ones(n)))
            t = float(rng.uniform(0, 1))
            mix = FiniteDist(labels, t * nu1.weights + (1 - t) * nu2.weights)
            assert div.evaluate(mix, mu) <= (
                t * div.evaluate(nu1, mu) + (1 - t) * div.evaluate(nu2, mu) + 1e-8
            )


class TestWeakDuality:
    @pytest.mark.parametrize("spec", [
        RiskSpec.entropic(1.0),
        RiskSpec.oce(UtilityFn.exp_shift()),
        RiskSpec.shortfall(LossFn.exponential(1.0)),
    ])
    def test_every_test_vector_stays_below_alpha(self, spec):
        div = divergence_for_risk_spec(spec)
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            nu, mu = pair(rng, n)
            alpha = div.evaluate(nu, mu)
            f = rng.uniform(-3, 3, n)
            lower = float(nu.weights @ f) - rho_lifted(spec, mu, f)
            assert lower <= alpha + 1e-8


class TestDualSolver:
    def test_entropic_matches_closed_form(self):
        rng = np.random.default_rng(6)
        spec = RiskSpec.entropic(1.0)
        for _ in range(30):
            nu, mu = pair(rng, int(rng.integers(2, 9)))
            res = dual_divergence(spec, nu, mu)
            assert res.certified_gap is not None
            assert abs(res.certified_gap) <= 1e-6

    def test_oce_matches_phi_divergence(self):
        rng = np.random.default_rng(7)
        spec = RiskSpec.oce(UtilityFn.exp_shift())
        for _ in range(10):
            nu, mu = pair(rng, int(rng.integers(2, 7)))
            res = dual_divergence(spec, nu, mu)
            assert abs(res.closed_form - res.value) <= 1e-6

    def test_diagonal_gives_zero_and_flat_maximizer(self):
        mu = FiniteDist(["a", "b", "c"], [0.2, 0.3, 0.5])
        res = dual_divergence(RiskSpec.entropic(1.0), mu, mu)
        assert abs(res.value) <= 1e-10
        assert np.all(np.abs(res.maximizer) <= 1e-6)

    def test_off_support_returns_inf_without_optimizing(self):
        nu = uniform(["a", "b"])
        mu = FiniteDist(["a", "b"], [1.0, 0.0])
        res = dual_divergence(RiskSpec.entropic(1.0), nu, mu)
        assert res.value == math.inf and res.iterations == 0

    def test_value_is_a_lower_bound(self):
        rng = np.random.default_rng(8)
        spec = RiskSpec.oce(UtilityFn.hinge_power(2.0))
        for _ in range(10):
            nu, mu = pair(rng, 4)
            res = dual_divergence(spec, nu, mu)
            assert res.value <= res.closed_form + 1e-9

    def test_maximizer_is_mean_zero(self):
        rng = np.random.default_rng(9)
        nu, mu = pair(rng, 5)
        res = dual_divergence(RiskSpec.entropic(1.0), nu, mu)
        assert abs(float(mu.weights @ res.maximizer)) <= 1e-9

    def test_coherent_dual_vanishes_inside_hull(self):
        ref = uniform(["a", "b", "c"])
        densities = [[1.5, 0.75, 0.75], [0.6, 1.5, 0.9]]
        spec = RiskSpec.coherent(densities, ref)
        mid = 0.5 * np.asarray(densities[0]) + 0.5 * np.asarray(densities[1])
        nu = FiniteDist(ref.atoms, mid * ref.weights)
        res = dual_divergence(spec, nu, ref)
        assert abs(res.value) <= 1e-8

    def test_dual_of_json_rejects_options(self):
        # the solver budget is fixed; a dual_of doc once carried solver options,
        # and a misspelled one was dropped without a word
        spec = {"family": "entropic", "eta": 1.0}
        div = DivergenceSpec.from_json({"family": "dual_of", "spec": spec})
        assert div.as_json() == {"family": "dual_of", "spec": spec}
        with pytest.raises(ConfigParseError, match="'options'"):
            DivergenceSpec.from_json({"family": "dual_of", "spec": spec, "options": {"max_itres": 10}})


class TestDpi:
    @pytest.mark.parametrize("div", [
        DivergenceSpec.relative_entropy(1.0),
        DivergenceSpec.phi_star(UtilityFn.exp_shift()),
        DivergenceSpec.shortfall_div(LossFn.exponential(1.0)),
    ])
    def test_random_kernels_never_gain_information(self, div):
        rng = np.random.default_rng(10)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            nu, mu = pair(rng, n)
            nf = int(rng.integers(2, 5))
            kernel = Kernel(
                mu.atoms,
                tuple(f"b{j}" for j in range(nf)),
                np.vstack([rng.dirichlet(np.ones(nf)) for _ in range(n)]),
            )
            gap = chain_gap("dpi", div, nu, mu, "kernel", kernel)
            assert gap is not None
            assert gap >= -1e-8

    def test_bijection_is_equality(self):
        rng = np.random.default_rng(11)
        div = DivergenceSpec.relative_entropy(1.0)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            nu, mu = pair(rng, n)
            perm = rng.permutation(n)
            mat = np.zeros((n, n))
            for i, j in enumerate(perm):
                mat[i, j] = 1.0
            kernel = Kernel(mu.atoms, tuple(f"b{j}" for j in range(n)), mat)
            gap = chain_gap("dpi_bijection", div, nu, mu, "kernel", kernel)
            assert abs(gap) <= 1e-9

    def test_constant_kernel_erases_everything(self):
        div = DivergenceSpec.relative_entropy(1.0)
        nu = FiniteDist(["a", "b"], [0.75, 0.25])
        mu = uniform(["a", "b"])
        eta = FiniteDist(["u", "v"], [0.3, 0.7])
        kernel = Kernel(mu.atoms, eta.atoms, [eta.weights] * len(mu))
        gap = chain_gap("dpi", div, nu, mu, "kernel", kernel)
        assert gap == pytest.approx(relative_entropy(nu, mu), abs=1e-12)

    def test_map_kernel_is_graph_of_the_map(self):
        # the 0/1 kernel that chain_values and the tests here push laws with
        k = map_kernel(["a", "b", "c"], {"a": "u", "b": "v", "c": "u"})
        assert k.target == ("u", "v")
        assert np.array_equal(k.matrix, [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        assert map_kernel(["a", "b"], {"a": "u", "b": "u"}, ("v", "u")).matrix.tolist() == [[0.0, 1.0]] * 2

    def test_vacuous_when_both_sides_blow_up(self):
        div = DivergenceSpec.relative_entropy(1.0)
        nu = FiniteDist(["a", "b"], [0.0, 1.0])
        mu = FiniteDist(["a", "b"], [1.0, 0.0])
        identity = map_kernel(mu.atoms, {"a": "a", "b": "b"}, mu.atoms)
        assert chain_gap("dpi", div, nu, mu, "kernel", identity) is None


class TestSufficiency:
    def test_injective_map_is_equality(self):
        rng = np.random.default_rng(12)
        div = DivergenceSpec.relative_entropy(1.0)
        nu, mu = pair(rng, 4)
        gap = chain_gap("sufficiency_matched", div, nu, mu, "map", {a: a.upper() for a in mu.atoms})
        assert abs(gap) <= 1e-12

    def test_matched_ratio_merge_is_equality(self):
        div = DivergenceSpec.relative_entropy(1.0)
        mu = FiniteDist(["a", "b", "c"], [0.2, 0.3, 0.5])
        # d(nu)/d(mu) equal on the merged pair {a, b}
        nu = FiniteDist(["a", "b", "c"], [0.2 * 1.4, 0.3 * 1.4, 0.5 * 0.6])
        gap = chain_gap("sufficiency_matched", div, nu, mu, "map", {"a": "g", "b": "g", "c": "h"})
        assert abs(gap) <= 1e-8

    def test_unmatched_merge_loses_information(self):
        div = DivergenceSpec.relative_entropy(1.0)
        mu = uniform(["a", "b", "c"])
        nu = FiniteDist(["a", "b", "c"], [0.6, 0.1, 0.3])
        gap = chain_gap("sufficiency_generic", div, nu, mu, "map", {"a": "g", "b": "g", "c": "h"})
        assert gap > 1e-4

    def test_requires_absolute_continuity(self):
        div = DivergenceSpec.relative_entropy(1.0)
        nu = uniform(["a", "b"])
        mu = FiniteDist(["a", "b"], [1.0, 0.0])
        with pytest.raises(NotAbsolutelyContinuousError):
            chain_gap("sufficiency_generic", div, nu, mu, "map", {"a": "g", "b": "g"})


class TestRefinement:
    def test_identity_chain(self):
        rng = np.random.default_rng(13)
        div = DivergenceSpec.relative_entropy(1.0)
        nu, mu = pair(rng, 4)
        assert chain_values(div, nu, mu, []) == [relative_entropy(nu, mu)]
        # an empty chain takes no step, so its gap is vacuous; the identity map steps by 0
        assert chain_gap("refinement", div, nu, mu, "maps", []) is None
        assert chain_gap("refinement", div, nu, mu, "maps", [{a: a for a in mu.atoms}]) == pytest.approx(0.0, abs=1e-15)

    def test_constant_final_map_reaches_zero(self):
        div = DivergenceSpec.relative_entropy(1.0)
        nu = FiniteDist(["a", "b"], [0.75, 0.25])
        mu = uniform(["a", "b"])
        values = chain_values(div, nu, mu, [{"a": "z", "b": "z"}])
        assert values[0] == pytest.approx(relative_entropy(nu, mu))
        assert values[-1] == pytest.approx(0.0, abs=1e-15)
        # the one step falls from alpha(nu | mu) to 0
        gap = chain_gap("refinement", div, nu, mu, "maps", [{"a": "z", "b": "z"}])
        assert gap == pytest.approx(relative_entropy(nu, mu), abs=1e-15)

    def test_random_chains_are_nonincreasing(self):
        rng = np.random.default_rng(14)
        div = DivergenceSpec.relative_entropy(1.0)
        for _ in range(30):
            nu, mu = pair(rng, 6)
            chain = [
                {f"a{i}": f"b{i % 4}" for i in range(6)},
                {f"b{i}": f"c{i % 2}" for i in range(4)},
                {f"c{i}": "d" for i in range(2)},
            ]
            values = chain_values(div, nu, mu, chain)
            for hi, lo in zip(values, values[1:]):
                assert lo <= hi + 1e-10
            assert values[-1] == pytest.approx(0.0, abs=1e-12)
            # the replayed gap is the least step down the chain
            gap = chain_gap("refinement", div, nu, mu, "maps", chain)
            assert gap == min(hi - lo for hi, lo in zip(values, values[1:])) and gap >= -1e-10


class TestPrimalReconstruction:
    @pytest.mark.parametrize("spec", [
        RiskSpec.entropic(1.0),
        RiskSpec.oce(UtilityFn.exp_shift()),
        RiskSpec.oce(UtilityFn.hinge_power(2.0)),
    ])
    def test_grid_oracle_recovers_the_risk(self, spec):
        rng = np.random.default_rng(15)
        div = divergence_for_risk_spec(spec)
        for _ in range(8):
            n = int(rng.integers(2, 5))
            mu = FiniteDist(tuple(f"a{i}" for i in range(n)), rng.dirichlet(np.ones(n)))
            f = rng.uniform(-2, 2, n)
            lhs = rho_lifted(spec, mu, f)
            rhs = primal_reconstruction(div, mu, f)
            assert abs(lhs - rhs) <= 2e-4

    def test_shortfall_oracle_small_space(self):
        spec = RiskSpec.shortfall(LossFn.exponential(1.0))
        div = divergence_for_risk_spec(spec)
        rng = np.random.default_rng(16)
        mu = FiniteDist(("a", "b", "c"), rng.dirichlet(np.ones(3)))
        f = rng.uniform(-2, 2, 3)
        assert abs(rho_lifted(spec, mu, f) - primal_reconstruction(div, mu, f)) <= 2e-4


class TestReconstructionCandidates:
    def test_expectation_is_recovered_at_mu(self):
        # alpha is the indicator of nu = mu, and a grid almost never holds mu:
        # without mu as a candidate the oracle returns -inf
        rng = np.random.default_rng(17)
        div = DivergenceSpec.equality_indicator()
        for n in (2, 3, 4):
            mu = FiniteDist(tuple(f"a{i}" for i in range(n)), rng.dirichlet(np.ones(n)))
            f = rng.uniform(-2, 2, n)
            assert abs(primal_reconstruction(div, mu, f) - float(mu.weights @ f)) <= 1e-15

    def test_key_identity_holds_for_the_expectation(self):
        budget = SearchBudget(trials=20, seed=11, max_e=4, max_f=4, sparsity=0.3)
        stats = run_trials("key_identity", RiskSpec.expectation(), None, budget, 0, 20)
        assert stats.nan == 0 and stats.vacuous == 0
        assert stats.worst_gap <= 1e-15

    @pytest.mark.parametrize("spec", [
        RiskSpec.entropic(1.0),
        RiskSpec.oce(UtilityFn.exp_shift()),
        RiskSpec.shortfall(LossFn.power_plus(2.0)),
        RiskSpec.esssup(),
    ])
    def test_a_law_with_an_uncharged_atom(self, spec):
        # grid points that charge the atom score -inf; the rest find the risk
        mu = FiniteDist(("a", "b", "c", "d"), [0.3, 0.0, 0.45, 0.25])
        f = np.array([0.5, 3.0, -1.0, 1.5])
        rhs = primal_reconstruction(divergence_for_risk_spec(spec), mu, f)
        assert abs(rho_lifted(spec, mu, f) - rhs) <= 1e-10


class TestGapAlgebra:
    def test_spec_json_round_trip(self):
        for div in [
            DivergenceSpec.relative_entropy(2.0),
            DivergenceSpec.phi_star(UtilityFn.hinge_power(2.0)),
            DivergenceSpec.shortfall_div(LossFn.exponential(1.0)),
            DivergenceSpec.dual_of(RiskSpec.entropic(1.0)),
            DivergenceSpec.equality_indicator(),
            DivergenceSpec.support_indicator(),
        ]:
            again = DivergenceSpec.from_json(div.as_json())
            assert again.family == div.family
