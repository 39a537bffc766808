import hashlib
import json
import math
from dataclasses import asdict, fields, is_dataclass
from functools import partial, reduce
from operator import getitem

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divlab import consistency, kinds, samplers, streams
from divlab.consistency import (
    SearchBudget,
    TrialStats,
    consistency_gap,
    counterexample_search,
    describe_trial,
    run_trials,
    sample_conditional_instance,
)
from divlab.divergence import DivergenceSpec, divergence_for_risk_spec, relative_entropy
from divlab.errors import ConfigParseError, PreconditionViolatedError
from divlab.kinds import CHECK_KINDS, BlockResult, CheckKind
from divlab.losses import LossFn, UtilityFn
from divlab.prob import FiniteDist, JointDist, Kernel, Partition, uniform
from divlab.report import canonical_json
from divlab.risk import RiskSpec, rho_conditional, rho_lifted, rho_of_law, rho_values
from divlab.samplers import VALUE_GRID

ENTROPIC = RiskSpec.entropic(1.0)
RE = DivergenceSpec.relative_entropy(1.0)


def point_mass(value):
    return FiniteDist((value,), [1.0])


def shift_law(law, c):
    """The law of X + c."""
    return FiniteDist([float(a) + c for a in law.atoms], law.weights)


def mixture(components):
    """The mixture sum_i q_i m_i of laws on the real line, with equal support points merged."""
    acc: dict = {}
    for q, law in components:
        for a, w in zip(law.atoms, law.weights):
            acc[float(a)] = acc.get(float(a), 0.0) + q * float(w)
    return FiniteDist(list(acc), list(acc.values()))


def pushforward(law, mapping):
    """The image law of a map given as a dict, its atoms in the order they first appear."""
    acc: dict = {}
    for a, w in zip(law.atoms, law.weights):
        acc[mapping[a]] = acc.get(mapping[a], 0.0) + float(w)
    return FiniteDist(list(acc), list(acc.values()))


def row_marginal(joint):
    return FiniteDist(joint.row_atoms, joint.matrix.sum(axis=1))


CONDITIONAL_KINDS = ("time_consistency", "acceptance", "rejection", "weak_acceptance")
PRODUCT_KINDS = ("chain_rule", "superadditivity", "subadditivity", "weak_consistency")
CHAIN_KINDS = ("dpi", "dpi_bijection", "sufficiency_matched", "sufficiency_generic", "refinement")
DIV_KINDS = PRODUCT_KINDS + CHAIN_KINDS + ("joint_convexity",)
PROBE_KINDS = ("shift_convexity", "property_s", "mixture_convexity")
SOLVER_KINDS = ("duality", "lemma_identity", "key_identity")
# the risk kinds that draw laws and evaluate them with no conditioning
LAW_KINDS = PROBE_KINDS + ("dist_concavity", "lebesgue")
BATCH_SPECS = [
    RiskSpec.shortfall(LossFn.power_plus(2.0)),
    RiskSpec.shortfall(LossFn.exponential(1.0)),
    ENTROPIC,
    RiskSpec.esssup(),
]
BATCH_DIVS = [
    RE,
    DivergenceSpec.phi_star(UtilityFn.exp_shift()),
    DivergenceSpec.phi_star(UtilityFn.hinge_power(2.0)),
    DivergenceSpec.shortfall_div(LossFn.exponential(1.0)),
    DivergenceSpec.shortfall_div(LossFn.power_plus(2.0)),
    DivergenceSpec.support_indicator(),
]


DELETE = object()
# one malformed document per instance format, and each link of a
# data-processing instance: the kind, the path to a field of a valid
# document, and the field's new value, or DELETE
MALFORMED = [
    ("chain_rule", ("nu_bar",), DELETE),
    ("lemma_identity", ("mu_bar", "weights", 0), [0.5]),
    ("acceptance", ("joint", "weights", 0, 0), "0.5"),
    ("key_identity", ("values",), [[1.0]]),
    ("dpi", ("kernel", "source", 0), "z"),
    ("sufficiency_matched", ("map", "a0"), DELETE),
    ("refinement", ("maps", 1), {"z": "c0"}),
    ("joint_convexity", ("mu2", "atoms", 0), "z"),
    ("shift_convexity", ("kernel", "source", 0), 99.0),
    ("property_s", ("pairs", 0, "x"), DELETE),
    ("mixture_convexity", ("components", 0, "weight"), "half"),
    ("dist_concavity", ("t",), None),
    ("lebesgue", ("h",), [0.5]),
    ("duality", ("nu", "atoms", 0), "z"),
]


def reference_gap(kind, spec, inst):
    """A kind's gap on an instance document, rebuilt from its parsed laws without the kind's block code."""
    if kind == "dist_concavity":
        t, m1, m2 = inst["t"], FiniteDist.from_json(inst["m1"]), FiniteDist.from_json(inst["m2"])
        mixed = mixture([(t, m1), (1 - t, m2)])
        return rho_of_law(spec, mixed) - t * rho_of_law(spec, m1) - (1 - t) * rho_of_law(spec, m2)
    if kind == "lebesgue":
        mu, f, h = FiniteDist.from_json(inst["mu"]), np.array(inst["f"]), np.array(inst["h"])
        vals = [rho_lifted(spec, mu, f + 4.0 ** -k * h) for k in range(15)]
        steps = [b - a for a, b in zip(vals, vals[1:])]
        return max(0.0, *steps, abs(vals[-1] - rho_lifted(spec, mu, f)))
    laws = {k: FiniteDist.from_json(v) for k, v in inst.items() if k.startswith(("nu", "mu"))}
    if kind == "joint_convexity":
        t, atoms = inst["t"], laws["nu1"].atoms
        nu, mu = (
            FiniteDist(atoms, t * laws[a].weights + (1 - t) * laws[b].weights) for a, b in (("nu1", "nu2"), ("mu1", "mu2"))
        )
        parts = t * relative_entropy(laws["nu1"], laws["mu1"]) + (1 - t) * relative_entropy(laws["nu2"], laws["mu2"])
        return parts - relative_entropy(nu, mu)
    # refinement: both laws pushed along the maps, alpha after each push; the
    # document's values must agree, and the gap is the least step down them
    nu, mu = laws["nu"], laws["mu"]
    values = [relative_entropy(nu, mu)]
    for mapping in inst["maps"]:
        nu, mu = pushforward(nu, mapping), pushforward(mu, mapping)
        values.append(relative_entropy(nu, mu))
    assert values == pytest.approx(inst["values"], abs=1e-14)
    return min(hi - lo for hi, lo in zip(values, values[1:]))


def replay(kind, spec, doc):
    """A kind's gap on an instance document; spec is the risk or the divergence spec the kind needs."""
    risk, div = (None, spec) if CHECK_KINDS[kind].needs == "div" else (spec, None)
    return CHECK_KINDS[kind].replay(risk, div, doc)


def product_doc(mu_bar, nu_bar):
    return {"mu_bar": mu_bar.as_json(), "nu_bar": nu_bar.as_json(), "is_product": False}


def product_instance(budget, trial):
    """The product instance document of a trial, as the product kinds draw and serialize it."""
    return describe_trial("chain_rule", None, RE, budget, trial)["instance"]


def conditional_doc(joint, values):
    values = np.asarray(values, dtype=float).tolist()
    return {"joint": joint.as_json(), "values": values, "partition": "first_coordinate"}


class TestSuperadditivityGap:
    def test_chain_rule_identity_on_random_instances(self):
        budget = SearchBudget(trials=300, seed=0, max_e=5, max_f=5)
        for trial in range(300):
            inst = product_instance(budget, trial)
            assert abs(replay("chain_rule", RE, inst)) <= 1e-12

    def test_scaled_entropy_still_exact(self):
        budget = SearchBudget(trials=100, seed=1, max_e=4, max_f=4)
        div = DivergenceSpec.relative_entropy(2.0)
        for trial in range(100):
            inst = product_instance(budget, trial)
            assert abs(replay("chain_rule", div, inst)) <= 1e-12

    def test_equal_joints_give_zero(self):
        w = np.asarray([[0.2, 0.3], [0.1, 0.4]])
        joint = JointDist(["a", "b"], ["u", "v"], w)
        for div in [RE, DivergenceSpec.phi_star(UtilityFn.hinge_power(2.0))]:
            assert replay("chain_rule", div, product_doc(joint, joint)) == pytest.approx(0.0, abs=1e-12)

    def test_manual_two_by_two(self):
        mu_bar = JointDist(["a", "b"], ["u", "v"], [[0.25, 0.25], [0.25, 0.25]])
        nu_bar = JointDist(["a", "b"], ["u", "v"], [[0.4, 0.2], [0.3, 0.1]])
        gap = replay("chain_rule", RE, product_doc(mu_bar, nu_bar))
        # chain rule: assemble by hand
        joint = relative_entropy(nu_bar.as_dist(), mu_bar.as_dist())
        marg = relative_entropy(row_marginal(nu_bar), row_marginal(mu_bar))
        rows = 0.0
        for x in range(2):
            nm = nu_bar.matrix[x].sum()
            rows += nm * relative_entropy(
                FiniteDist(["u", "v"], nu_bar.matrix[x] / nm),
                FiniteDist(["u", "v"], mu_bar.matrix[x] / mu_bar.matrix[x].sum()),
            )
        assert gap == pytest.approx(joint - marg - rows, abs=1e-12)
        assert abs(gap) <= 1e-12


class TestConsistencyGap:
    def test_entropic_tower_is_exact(self):
        budget = SearchBudget(trials=200, seed=2, max_e=4, max_f=4)
        for trial in range(200):
            inst = sample_conditional_instance(budget.rng_for(trial), budget)
            dist, vals, part = inst.flat()
            assert abs(consistency_gap(ENTROPIC, dist, vals, part)) <= 1e-9

    def test_trivial_partition_is_exactly_zero(self):
        mu = uniform(["a", "b", "c"])
        gap = consistency_gap(ENTROPIC, mu, [0.0, 1.0, -1.0], Partition([mu.atoms]))
        assert gap == pytest.approx(0.0, abs=1e-12)

    def test_esssup_is_time_consistent(self):
        budget = SearchBudget(trials=200, seed=3, max_e=4, max_f=4)
        spec = RiskSpec.esssup()
        for trial in range(200):
            inst = sample_conditional_instance(budget.rng_for(trial), budget)
            dist, vals, part = inst.flat()
            assert abs(consistency_gap(spec, dist, vals, part)) <= 1e-12

    def test_expectation_is_time_consistent(self):
        budget = SearchBudget(trials=200, seed=4, max_e=4, max_f=4)
        spec = RiskSpec.expectation()
        for trial in range(200):
            inst = sample_conditional_instance(budget.rng_for(trial), budget)
            dist, vals, part = inst.flat()
            assert abs(consistency_gap(spec, dist, vals, part)) <= 1e-12

    @pytest.mark.parametrize("kind, seed", [("acceptance", 28), ("rejection", 29)])
    @pytest.mark.parametrize("sparsity", [0.0, 0.5])
    def test_one_stacked_solve_gives_the_bits_of_separate_solves(self, kind, seed, sparsity):
        # the gap solves the row laws (up to 4 atoms) and the full laws (up
        # to 16) in one stacked rho_batch; solving every law alone must give
        # the same bits, and rho_conditional's block weights and risks are
        # those of the packed rows, bit for bit
        budget = SearchBudget(trials=40, seed=seed, max_e=4, max_f=4, sparsity=sparsity)
        sign = -1.0 if kind == "rejection" else 1.0
        for spec in [*BATCH_SPECS, RiskSpec.shortfall(LossFn.custom([-2.0, 0.0, 1.0, 3.0], [0.0, 1.0, 2.0, 6.0]))]:
            for trial in range(budget.trials):
                mu, vals, part = sample_conditional_instance(budget.rng_for(trial), budget).flat()
                gap = consistency_gap(spec, mu, vals, part)
                assert describe_trial(kind, spec, None, budget, trial)["gap"] == sign * gap
                masses, risks = [], []
                for block in part.blocks:
                    ids = [mu.atoms.index(a) for a in block]
                    mass = np.cumsum(mu.weights[ids])[-1]
                    if mass > 0.0:
                        masses.append(mass)
                        risks.append(rho_values(spec, mu.weights[ids] / mass, vals[ids]))
                alone = rho_values(spec, np.array(masses), np.array(risks)) - rho_lifted(spec, mu, vals)
                assert gap == alone, (spec.as_json(), trial)
                cond = rho_conditional(spec, mu, vals, part)
                assert (list(cond.weights), [r for _, r in cond.values]) == (masses, risks), (spec.as_json(), trial)


class TestWeakConsistencyGap:
    def test_equals_marginal_entropy_for_relative_entropy(self):
        budget = SearchBudget(trials=100, seed=5, max_e=4, max_f=4)
        for trial in range(100):
            inst = product_instance(budget, trial)
            weak = replay("weak_consistency", RE, inst)
            nu_bar, mu_bar = (JointDist.from_json(inst[key]) for key in ("nu_bar", "mu_bar"))
            marg = relative_entropy(row_marginal(nu_bar), row_marginal(mu_bar))
            assert weak == pytest.approx(marg, abs=1e-10)
            assert weak >= -1e-12

    def test_equal_joints_give_zero(self):
        joint = JointDist(["a", "b"], ["u", "v"], [[0.2, 0.3], [0.1, 0.4]])
        assert replay("weak_consistency", RE, product_doc(joint, joint)) == 0.0

    def test_dominates_superadditivity_gap(self):
        budget = SearchBudget(trials=100, seed=6, max_e=4, max_f=4)
        div = DivergenceSpec.phi_star(UtilityFn.hinge_power(2.0))
        for trial in range(100):
            inst = product_instance(budget, trial)
            sup = replay("superadditivity", div, inst)
            weak = replay("weak_consistency", div, inst)
            if sup is None or weak is None:
                continue
            assert sup <= weak + 1e-10


class TestShiftConvexity:
    def test_point_masses(self):
        kernel = Kernel((0.0,), (0.0,), [[1.0]])
        doc = {"mu": point_mass(0.0).as_json(), "kernel": kernel.as_json()}
        assert replay("shift_convexity", ENTROPIC, doc) >= -1e-9

    def test_entropic_fuzz_passes(self):
        budget = SearchBudget(trials=300, seed=7, max_e=3, max_f=3)
        for trial in range(300):
            inst = describe_trial("shift_convexity", ENTROPIC, None, budget, trial)["instance"]
            assert replay("shift_convexity", ENTROPIC, inst) >= -1e-9

    def test_precondition_enforced(self):
        kernel = Kernel((1.0,), (0.0,), [[1.0]])
        with pytest.raises(PreconditionViolatedError):
            replay("shift_convexity", ENTROPIC, {"mu": point_mass(1.0).as_json(), "kernel": kernel.as_json()})

    def test_power_plus_violations_exist(self):
        spec = RiskSpec.shortfall(LossFn.power_plus(2.0))
        budget = SearchBudget(trials=4000, seed=8, max_e=3, max_f=3)
        stats = run_trials("shift_convexity", spec, None, budget, 0, 4000)
        assert stats.worst_gap < -1e-4


class TestPropertySAndMixtures:
    def test_property_s_entropic_fuzz(self):
        budget = SearchBudget(trials=300, seed=9, max_e=3, max_f=3)
        stats = run_trials("property_s", ENTROPIC, None, budget, 0, 300)
        assert stats.worst_gap >= -1e-8

    def test_mixture_convexity_entropic_fuzz(self):
        budget = SearchBudget(trials=300, seed=10, max_e=3, max_f=3)
        stats = run_trials("mixture_convexity", ENTROPIC, None, budget, 0, 300)
        assert stats.worst_gap >= -1e-8

    def test_property_s_precondition(self):
        doc = {"pairs": [{"weight": 1.0, "x": 5.0, "law": point_mass(0.0).as_json()}]}
        with pytest.raises(PreconditionViolatedError):
            replay("property_s", ENTROPIC, doc)

    def test_mixture_probe_direct(self):
        laws = [point_mass(0.0), point_mass(-1.0)]
        doc = {"components": [{"weight": 0.5, "law": law.as_json()} for law in laws]}
        assert replay("mixture_convexity", ENTROPIC, doc) >= -1e-9


class TestWeakAcceptance:
    def test_entropic_margin_never_negative(self):
        budget = SearchBudget(trials=200, seed=11, max_e=3, max_f=3)
        for trial in range(200):
            inst = sample_conditional_instance(budget.rng_for(trial), budget)
            assert replay("weak_acceptance", ENTROPIC, inst.as_json()) >= -1e-9

    def test_blockwise_recentering_reaches_boundary(self):
        # uniform on four atoms, the blocks {a, b} and {c, d} as the rows
        joint = JointDist(["ab", "cd"], ["first", "second"], [[0.25, 0.25], [0.25, 0.25]])
        margin = replay("weak_acceptance", ENTROPIC, conditional_doc(joint, [[1.0, 2.0], [-1.0, 3.0]]))
        # for the entropic family the recentered position is exactly neutral
        assert margin == pytest.approx(0.0, abs=1e-9)


class TestIntegralLemma:
    def test_equal_joints_vanish(self):
        joint = JointDist(["a", "b"], ["u", "v"], [[0.2, 0.3], [0.1, 0.4]])
        assert replay("lemma_identity", ENTROPIC, product_doc(joint, joint)) == pytest.approx(0.0, abs=1e-10)

    def test_entropic_rowwise_duality(self):
        budget = SearchBudget(trials=40, seed=12, max_e=4, max_f=4)
        for trial in range(40):
            inst = product_instance(budget, trial)
            assert replay("lemma_identity", ENTROPIC, inst) <= 1e-5

    def test_single_row_reduces_to_plain_duality(self):
        nu_bar = JointDist(["a"], ["u", "v", "w"], [[0.5, 0.3, 0.2]])
        mu_bar = JointDist(["a"], ["u", "v", "w"], [[0.2, 0.3, 0.5]])
        assert replay("lemma_identity", ENTROPIC, product_doc(mu_bar, nu_bar)) <= 1e-6


class TestKeyIdentity:
    def test_payoff_depending_only_on_first_coordinate(self):
        mu_bar = JointDist(["a", "b"], ["u", "v"], [[0.2, 0.3], [0.1, 0.4]])
        f = np.asarray([[1.0, 1.0], [-0.5, -0.5]])
        assert replay("key_identity", ENTROPIC, conditional_doc(mu_bar, f)) <= 2e-4

    def test_constant_payoff(self):
        mu_bar = JointDist(["a", "b"], ["u", "v"], [[0.2, 0.3], [0.1, 0.4]])
        f = np.full((2, 2), 0.75)
        assert replay("key_identity", ENTROPIC, conditional_doc(mu_bar, f)) <= 1e-8

    def test_random_two_by_two(self):
        budget = SearchBudget(trials=10, seed=13, max_e=2, max_f=2)
        stats = run_trials("key_identity", ENTROPIC, None, budget, 0, 10)
        assert stats.worst_gap <= 2e-4


class TestCounterexampleSearch:
    def test_entropic_acceptance_finds_nothing(self):
        budget = SearchBudget(trials=2000, seed=14, max_e=3, max_f=3)
        result = counterexample_search(ENTROPIC, budget, "acceptance")
        assert result.worst_gap >= -1e-8
        assert result.trials == 2000

    def test_power_plus_acceptance_finds_violation(self):
        spec = RiskSpec.shortfall(LossFn.power_plus(2.0))
        budget = SearchBudget(trials=5000, seed=15, max_e=3, max_f=3)
        result = counterexample_search(spec, budget, "acceptance")
        assert result.worst_gap < -1e-4
        assert result.worst_instance is not None
        assert result.worst_instance["trial"] == result.worst_trial

    def test_zero_trials_gives_empty_result(self):
        budget = SearchBudget(trials=0, seed=16, max_e=3, max_f=3)
        result = counterexample_search(ENTROPIC, budget, "acceptance")
        assert result.trials == 0 and result.worst_gap is None
        assert result.worst_instance is None

    def test_replay_is_deterministic(self):
        spec = RiskSpec.shortfall(LossFn.power_plus(2.0))
        budget = SearchBudget(trials=3000, seed=17, max_e=3, max_f=3)
        result = counterexample_search(spec, budget, "acceptance")
        once = describe_trial("acceptance", spec, None, budget, result.worst_trial)
        twice = describe_trial("acceptance", spec, None, budget, result.worst_trial)
        assert once == twice
        assert once["gap"] == result.worst_gap

    def test_replayed_instance_recomputes_the_gap(self):
        spec = RiskSpec.shortfall(LossFn.power_plus(2.0))
        budget = SearchBudget(trials=3000, seed=17, max_e=3, max_f=3)
        result = counterexample_search(spec, budget, "acceptance")
        assert replay("acceptance", spec, result.worst_instance["instance"]) == result.worst_gap

    def test_class_breakdown_reported(self):
        budget = SearchBudget(trials=500, seed=18, max_e=3, max_f=3)
        result = counterexample_search(ENTROPIC, budget, "acceptance")
        assert set(result.class_worst) == {"product", "general"}


class TestImplicationWeb:
    """Risk-side consistency and divergence-side additivity move together."""

    def test_entropic_passes_both_sides(self):
        budget = SearchBudget(trials=500, seed=19, max_e=3, max_f=3)
        risk_stats = run_trials("acceptance", ENTROPIC, None, budget, 0, 500)
        div_stats = run_trials("superadditivity", None, RE, budget, 0, 500)
        assert risk_stats.worst_gap >= -1e-8
        assert div_stats.worst_gap >= -1e-6

    def test_power_plus_fails_both_sides(self):
        spec = RiskSpec.shortfall(LossFn.power_plus(2.0))
        div = divergence_for_risk_spec(spec)
        budget = SearchBudget(trials=3000, seed=20, max_e=3, max_f=3)
        risk_stats = run_trials("acceptance", spec, None, budget, 0, 3000)
        div_stats = run_trials("superadditivity", None, div, budget, 0, 3000)
        assert risk_stats.worst_gap < -1e-4
        assert div_stats.worst_gap < -1e-4


class TestPushforwardOracle:
    """The test-module pushforward that reference_gap uses as an independent reference."""

    def test_identity(self):
        d = FiniteDist(["a", "b"], [0.25, 0.75])
        out = pushforward(d, {"a": "a", "b": "b"})
        assert out.atoms == d.atoms and np.array_equal(out.weights, d.weights)

    def test_constant_map_gives_point_mass(self):
        d = uniform(["a", "b"])
        out = pushforward(d, {"a": "c", "b": "c"})
        assert out.atoms == ("c",) and out.weights[0] == 1.0

    def test_swap(self):
        d = FiniteDist(["a", "b"], [0.25, 0.75])
        out = pushforward(d, {"a": "b", "b": "a"})
        assert out.weight("b") == 0.25 and out.weight("a") == 0.75

    def test_unmapped_atom(self):
        with pytest.raises(KeyError):
            pushforward(uniform(["a", "b"]), {"a": "x"})

    def test_mass_preserved(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            d = FiniteDist([f"x{i}" for i in range(n)], rng.dirichlet(np.ones(n)))
            out = pushforward(d, {a: int(rng.integers(3)) for a in d.atoms})
            assert abs(float(out.weights.sum()) - 1.0) <= 1e-15


class TestTrialMachinery:
    def test_chunked_and_sequential_runs_agree(self):
        # uneven chunks, some inside one internal batch and some across two;
        # sparse reference laws give vacuous trials next to both classes
        budget = SearchBudget(trials=300, seed=21, max_e=3, max_f=3, sparsity=0.5)
        whole = run_trials("chain_rule", None, RE, budget, 0, 300)
        bounds = [0, 1, 38, 39, 150, 251, 300]
        merged = TrialStats()
        for start, stop in zip(bounds, bounds[1:]):
            merged = merged.merge(run_trials("chain_rule", None, RE, budget, start, stop))
        assert whole.count == 300 and whole.vacuous > 0
        assert set(whole.class_worst) == {"product", "general"}
        assert merged == whole

    def test_every_kind_runs(self):
        budget = SearchBudget(trials=3, seed=22, max_e=3, max_f=3)
        risk_for = {
            "duality": RiskSpec.entropic(1.0),
            "lemma_identity": ENTROPIC,
            "key_identity": ENTROPIC,
        }
        for kind, meta in CHECK_KINDS.items():
            risk = risk_for.get(kind, ENTROPIC)
            div = RE if meta.needs == "div" else None
            stats = run_trials(kind, risk, div, budget, 0, 3)
            assert stats.count == 3
            assert stats.worst_trial is not None, kind
            replay = describe_trial(kind, risk, div, budget, stats.worst_trial)
            assert replay["gap"] == stats.worst_gap, kind
            canonical_json(replay["instance"])  # raises on anything it cannot emit
            if kind == "duality":
                assert replay["instance"]["budget_exhausted"] is False

    @pytest.mark.parametrize(
        "reverse, forward, spec",
        [("subadditivity", "superadditivity", RE), ("rejection", "acceptance", ENTROPIC)],
    )
    def test_a_reverse_inequality_is_its_forward_kind_negated(self, reverse, forward, spec):
        # the two kinds share sampler and evaluation, and only the reverse one
        # negates: in its trials and in its replays alike
        budget = SearchBudget(trials=40, seed=26, max_e=3, max_f=3, sparsity=0.5)
        risk, div = (None, spec) if CHECK_KINDS[forward].needs == "div" else (spec, None)
        rev = trial_gaps(CHECK_KINDS[reverse].trial(risk, div, budget, 0, 40))
        fwd = trial_gaps(CHECK_KINDS[forward].trial(risk, div, budget, 0, 40))
        assert rev == [None if f is None else -f for f in fwd]
        assert any(rev)
        for trial in range(0, 40, 7):
            doc = describe_trial(forward, risk, div, budget, trial)
            if doc["gap"] is not None:
                assert replay(reverse, spec, doc["instance"]) == -doc["gap"]

    @pytest.mark.parametrize("kind, law", [("lemma_identity", "mu_bar"), ("key_identity", "joint")])
    def test_small_budget_kinds_keep_sparsity(self, kind, law):
        budget = SearchBudget(trials=10, seed=24, max_e=3, max_f=3, sparsity=0.9)
        for trial in range(10):
            inst = describe_trial(kind, ENTROPIC, None, budget, trial)["instance"]
            assert min(min(row) for row in inst[law]["weights"]) == 0.0

    @pytest.mark.parametrize(
        "kind, sparsity",
        # the law kinds draw no reference weights, so sparsity does not reach them
        [(kind, sparsity) for kind in CONDITIONAL_KINDS + DIV_KINDS for sparsity in (0.0, 0.5)]
        + [(kind, 0.0) for kind in LAW_KINDS]
        # key_identity takes about 20 ms a trial: only sparse instances, whose rows may or may not be charged
        + [(kind, sparsity) for kind in ("duality", "lemma_identity") for sparsity in (0.0, 0.5)]
        + [("key_identity", 0.5)],
    )
    def test_batched_kinds_give_the_same_bits_in_every_layout(self, monkeypatch, kind, sparsity):
        # 4 x 4 joint instances give full laws of up to 16 atoms, the probe
        # kinds' mixtures up to 64, and the pair kinds' drawn and pushed laws,
        # dist_concavity's mixtures and lebesgue's laws reach 9 atoms or more:
        # from 8 atoms on, a pairwise sum would regroup under padding; sparse
        # product and dpi instances give +inf and vacuous gaps. Blocks are
        # made small, so that the 150 trials of a kind run in three internal
        # blocks of 50 and the splits cut across them. The solver kinds run
        # 30 trials on ENTROPIC, in internal blocks of 8, and lemma_identity
        # and key_identity instances are 4 x 4 at most
        solver = kind in SOLVER_KINDS
        n, block = (30, 8) if solver else (150, 50)
        splits = [(0, 1), (1, 13), (13, n)] if solver else [(0, 1), (1, 8), (8, 45), (45, 101), (101, n)]
        size = 4 if kind in CONDITIONAL_KINDS + PRODUCT_KINDS + PROBE_KINDS else 9
        monkeypatch.setattr(consistency, "BLOCK_ENTRIES", block * size * size)
        budget = SearchBudget(trials=n, seed=25, max_e=size, max_f=size, sparsity=sparsity)
        entry = CHECK_KINDS[kind]
        seen: dict = {}
        blocks = set()

        class Recorded(CheckKind):
            def trial(self, risk, div, budget, start, stop):
                result = entry.trial(risk, div, budget, start, stop)
                seen.update(zip(range(start, stop), trial_gaps(result)))
                blocks.add((start, stop))
                return result

        monkeypatch.setitem(CHECK_KINDS, kind, Recorded(*(getattr(entry, f.name) for f in fields(CheckKind))))
        on_div = kind in DIV_KINDS
        for spec in [ENTROPIC] if solver else BATCH_DIVS if on_div else BATCH_SPECS:
            risk, div = (None, spec) if on_div else (spec, None)
            seen.clear()
            blocks.clear()
            stats = run_trials(kind, risk, div, budget, 0, n)
            assert blocks == {(first, min(first + block, n)) for first in range(0, n, block)}
            whole = dict(seen)
            seen.clear()
            for start, stop in splits:
                run_trials(kind, risk, div, budget, start, stop)
            docs = {k: describe_trial(kind, risk, div, budget, k) for k in range(n)}
            ranked = [k for k in range(n) if whole[k] is not None]
            assert not any(math.isnan(whole[k]) for k in ranked)
            assert whole == seen == {k: doc["gap"] for k, doc in docs.items()}, spec.as_json()
            # each reported instance replays to its trial's bits
            replayed = {k: entry.replay(risk, div, doc["instance"]) for k, doc in docs.items() if "instance" in doc}
            assert replayed == {k: whole[k] for k in replayed}, spec.as_json()
            worst = max(ranked, key=lambda k: (entry.badness(whole[k]), -k), default=None)
            assert (stats.worst_trial, stats.worst_gap) == (worst, whole.get(worst))
            assert stats.vacuous == n - len(ranked)
            if kind in PRODUCT_KINDS + ("dpi", "dpi_bijection") and sparsity:
                assert stats.vacuous > 0 or any(math.isinf(whole[k]) for k in ranked), spec.as_json()

    @pytest.mark.parametrize("kind", CONDITIONAL_KINDS + DIV_KINDS)
    def test_batched_kinds_build_no_joint_law(self, monkeypatch, kind):
        # the batched kinds keep their draws as arrays: a law, a kernel or a
        # joint law is built only when describe_trial serializes the instance
        budget = SearchBudget(trials=120, seed=26, max_e=3, max_f=3, sparsity=0.3)
        risk, div = (None, RE) if kind in DIV_KINDS else (ENTROPIC, None)
        built = []
        for cls in (FiniteDist, Kernel, JointDist):

            def counted(self, *args, init=cls.__init__, **kwargs):
                built.append(type(self))
                init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        stats = run_trials(kind, risk, div, budget, 0, budget.trials)
        assert stats.count == budget.trials and stats.worst_trial is not None
        assert built == []
        doc = describe_trial(kind, risk, div, budget, stats.worst_trial)
        assert built
        if kind in CONDITIONAL_KINDS:
            assert doc["instance"] == sample_conditional_instance(budget.rng_for(stats.worst_trial), budget).as_json()

    @pytest.mark.parametrize("sparsity", [0.0, 0.5])
    @pytest.mark.parametrize("size", [3, 12])
    @pytest.mark.parametrize("kind", list(CHECK_KINDS))
    def test_replay_reads_a_reported_instance_back_to_its_trials_bits(self, kind, size, sparsity):
        # the instance goes through canonical JSON text, as a report carries
        # it; a vacuous trial that keeps no instance has nothing to replay
        budget = SearchBudget(trials=6, seed=27, max_e=size, max_f=size, sparsity=sparsity)
        solver = kind in ("duality", "lemma_identity", "key_identity")
        for spec in [ENTROPIC] if solver else [ENTROPIC, RiskSpec.shortfall(LossFn.power_plus(2.0))]:
            div = kinds.resolve_divergence(kind, spec, None)
            for trial in range(budget.trials):
                doc = describe_trial(kind, spec, div, budget, trial)
                if "instance" in doc:
                    inst = json.loads(canonical_json(doc["instance"]))
                    assert CHECK_KINDS[kind].replay(spec, div, inst) == doc["gap"], (spec.as_json(), trial)

    @pytest.mark.parametrize("size", [4, 12])
    @pytest.mark.parametrize("kind", ["dist_concavity", "lebesgue", "joint_convexity", "refinement"])
    def test_replay_agrees_with_an_independent_reference(self, kind, size):
        # the gap rebuilt from the parsed document by other code: merged
        # mixtures, one rho_lifted per law, FiniteDist mixtures, pushforwards
        budget = SearchBudget(trials=6, seed=28, max_e=size, max_f=size)
        specs = [RE] if kind in DIV_KINDS + CHAIN_KINDS else [ENTROPIC, RiskSpec.shortfall(LossFn.power_plus(2.0))]
        for spec in specs:
            for trial in range(budget.trials):
                doc = describe_trial(kind, *((None, spec) if spec is RE else (spec, None)), budget, trial)
                if "instance" not in doc:
                    continue
                inst = json.loads(canonical_json(doc["instance"]))
                gap = replay(kind, spec, inst)
                assert gap == doc["gap"]
                assert gap == pytest.approx(reference_gap(kind, spec, inst), abs=1e-14), (kind, trial)

    @pytest.mark.parametrize("kind, path, value", MALFORMED)
    def test_replay_refuses_a_malformed_document(self, kind, path, value):
        div = kinds.resolve_divergence(kind, ENTROPIC, None)
        doc = json.loads(canonical_json(describe_trial(kind, ENTROPIC, div, SearchBudget(1, 30), 0)["instance"]))
        *parents, last = path
        node = reduce(getitem, parents, doc)
        if value is DELETE:
            del node[last]
        else:
            node[last] = value
        with pytest.raises(ConfigParseError):
            CHECK_KINDS[kind].replay(ENTROPIC, div, doc)
        with pytest.raises(ConfigParseError):
            CHECK_KINDS[kind].replay(ENTROPIC, div, [doc])

    def test_shift_convexity_replay_gives_the_blocks_instance(self):
        budget = SearchBudget(trials=20, seed=29, max_e=4, max_f=4)
        entry = CHECK_KINDS["shift_convexity"]
        for spec in (ENTROPIC, RiskSpec.shortfall(LossFn.power_plus(2.0))):
            result = entry.trial(spec, None, budget, 0, 20)
            for trial in range(20):
                inst = describe_trial("shift_convexity", spec, None, budget, trial)["instance"]
                assert canonical_json(inst) == canonical_json(entry.serialize(result, trial))

    def test_sparsity_produces_vacuous_instances(self):
        budget = SearchBudget(trials=200, seed=23, max_e=3, max_f=3, sparsity=0.5)
        stats = run_trials("chain_rule", None, RE, budget, 0, 200)
        assert stats.vacuous > 0
        assert stats.count == 200


def legacy_dirichlet(rng, shape):
    """Dirichlet(1) weights as the samplers once drew them: ``rng.dirichlet``, clipped and renormalized."""
    *lead, n = np.empty(shape).shape

    def one():
        w = np.maximum(rng.dirichlet(np.full(n, 1.0)), 0.0)
        return w / w.sum()

    return np.array([one() for _ in range(math.prod(lead))]).reshape(*lead, n)


def legacy_payoffs(rng, shape):
    """Payoffs as the samplers once drew them."""
    return rng.choice(VALUE_GRID, size=shape)


def as_bits(x):
    """A draw in comparable form: arrays by dtype, shape and bytes, floats by their bytes."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, FiniteDist):
        return as_bits(x.atoms), as_bits(x.weights)
    if isinstance(x, (tuple, list)):
        return tuple(map(as_bits, x))
    if isinstance(x, float):
        return np.float64(x).tobytes()
    return x


# The samplers as they once were: each trial drew and finished its own
# instance, with one Dirichlet vector per call and payoffs from ``choice``.


def legacy_sparsify(rng, w, sparsity):
    if sparsity <= 0.0:
        return w
    keep = rng.random(w.shape) >= sparsity
    if not keep.any():
        keep.flat[int(rng.integers(w.size))] = True
    w = np.where(keep, w, 0.0)
    return w / w.sum()


def legacy_draw_joint(rng, budget, payoffs):
    n_e = int(rng.integers(2, budget.max_e + 1))
    n_f = int(rng.integers(2, budget.max_f + 1))
    is_product = bool(rng.random() < samplers.PRODUCT_FRACTION)
    if is_product:
        w = np.outer(legacy_dirichlet(rng, n_e), legacy_dirichlet(rng, n_f))
    else:
        w = legacy_dirichlet(rng, n_e * n_f).reshape(n_e, n_f)
    w = legacy_sparsify(rng, w, budget.sparsity)
    paired = legacy_payoffs(rng, w.shape) if payoffs else legacy_dirichlet(rng, w.size).reshape(w.shape)
    return w, paired, is_product


def legacy_draw_pair(rng, budget):
    n = int(rng.integers(2, budget.max_e + 1))
    mu_w = legacy_sparsify(rng, legacy_dirichlet(rng, n), budget.sparsity)
    return mu_w, legacy_dirichlet(rng, n)


def legacy_random_surjection(rng, n_from, n_to):
    img = list(rng.permutation(n_from)[:n_to])
    out = [0] * n_from
    for k, i in enumerate(img):
        out[i] = k
    for i in sorted(set(range(n_from)) - set(img)):
        out[i] = int(rng.integers(n_to))
    return out


def legacy_map_matrix(mapping):
    order = list(dict.fromkeys(mapping.values()))
    return np.eye(len(order))[[order.index(y) for y in mapping.values()]]


def legacy_draw_dpi(rng, budget, bijection):
    mu_w, nu_w = legacy_draw_pair(rng, budget)
    if bijection:
        kernel = np.eye(mu_w.size)[rng.permutation(mu_w.size)]
    else:
        n_f = int(rng.integers(2, budget.max_f + 1))
        kernel = np.vstack([legacy_dirichlet(rng, n_f) for _ in range(mu_w.size)])
    return nu_w, mu_w, (kernel,), ()


def legacy_draw_sufficiency(rng, budget, matched):
    n = int(rng.integers(2, max(3, budget.max_e) + 1))
    mu_w = legacy_dirichlet(rng, n)
    n_fibers = 1 if n == 2 else int(rng.integers(1, n))
    images = legacy_random_surjection(rng, n, n_fibers)
    if matched:
        nu_w = mu_w * rng.uniform(0.25, 2.5, size=n_fibers)[images]
        nu_w = nu_w / nu_w.sum()
    else:
        nu_w = legacy_dirichlet(rng, n)
    mapping = {f"a{i}": f"g{k}" for i, k in enumerate(images)}
    return nu_w, mu_w, (legacy_map_matrix(mapping),), (mapping,)


def legacy_draw_refinement(rng, budget):
    n0 = int(rng.integers(3, max(4, budget.max_e) + 1))
    mu_w, nu_w = legacy_dirichlet(rng, n0), legacy_dirichlet(rng, n0)
    n1 = int(rng.integers(2, n0))
    n2 = int(rng.integers(1, n1 + 1))
    m1 = {f"a{i}": f"b{k}" for i, k in enumerate(legacy_random_surjection(rng, n0, n1))}
    m2 = {f"b{i}": f"c{k}" for i, k in enumerate(legacy_random_surjection(rng, n1, n2))}
    on_image = {b: m2[b] for b in dict.fromkeys(m1.values())}
    return nu_w, mu_w, (legacy_map_matrix(m1), legacy_map_matrix(on_image)), (m1, m2)


def legacy_draw_convexity(rng, budget):
    n = int(rng.integers(2, budget.max_e + 1))
    mu1, nu1, mu2, nu2 = (legacy_dirichlet(rng, n) for _ in range(4))
    return float(rng.uniform(0.05, 0.95)), nu1, mu1, nu2, mu2


def legacy_draw_law(rng, n):
    return rng.choice(VALUE_GRID, size=n, replace=False), legacy_dirichlet(rng, n)


def legacy_draw_concavity(rng, budget):
    n1 = int(rng.integers(2, budget.max_e + 1))
    n2 = int(rng.integers(2, budget.max_e + 1))
    m1, m2 = (FiniteDist(v.tolist(), w) for v, w in (legacy_draw_law(rng, n1), legacy_draw_law(rng, n2)))
    return float(rng.uniform(0.05, 0.95)), m1, m2


def legacy_draw_lebesgue(rng, budget):
    n = int(rng.integers(2, budget.max_e + 1))
    mu = FiniteDist([f"a{i}" for i in range(n)], legacy_dirichlet(rng, n))
    return mu, legacy_payoffs(rng, n), rng.uniform(0.0, 1.0, size=n)


def legacy_draw_shift_convexity(rng, budget):
    n_e = int(rng.integers(2, budget.max_e + 1))
    n_f = int(rng.integers(2, budget.max_f + 1))
    return [legacy_draw_law(rng, n) for n in (n_e, *[n_f] * n_e)], None


def legacy_draw_property_s(rng, budget):
    k = int(rng.integers(2, 5))
    marginal = legacy_draw_law(rng, k)
    return [marginal, *(legacy_draw_law(rng, int(rng.integers(2, budget.max_f + 1))) for _ in range(k))], None


def legacy_draw_mixture(rng, budget):
    k = int(rng.integers(2, 5))
    weights = legacy_dirichlet(rng, k)
    return [legacy_draw_law(rng, int(rng.integers(2, budget.max_f + 1))) for _ in range(k)], weights


def boundary_law(words, spec, n):
    """A law drawn from a trial's words as the probe kinds draw one and shifted onto rho = 0, as a block of one law."""
    block = samplers._finish_laws([([samplers._draw_law(words, n)], None)])
    shifted = kinds._on_boundary(spec, block)
    return FiniteDist(shifted[0, :n].tolist(), block.weights[0, :n])


def legacy_boundary_law(rng, spec, n):
    values = rng.choice(VALUE_GRID, size=n, replace=False)
    w = legacy_dirichlet(rng, n)
    law = FiniteDist([float(v) for v in values], w)
    return shift_law(law, -rho_of_law(spec, law))


def grid(x, *shape):
    """x's first entries on each axis: a trial's own part of a zero-padded block array."""
    return x[tuple(slice(n) for n in shape)]


# What a finished block evaluates of trial b, against the same arrays built
# from a legacy draw by the law classes, whose renormalizations they must be


def joint_view(block, b, d):
    raw = block.raws[b]
    return grid(block.w[b], raw.n_e, raw.n_f), grid(block.paired[b], raw.n_e, raw.n_f)


def legacy_product_view(d):
    return tuple(JointDist(range(w.shape[0]), range(w.shape[1]), w).matrix for w in d[:2])


def legacy_conditional_view(d):
    joint = JointDist(range(d[0].shape[0]), range(d[0].shape[1]), d[0])
    return joint.as_dist().weights.reshape(joint.matrix.shape), d[1]


def chain_view(block, b, d):
    n = block.size[b]
    chain = [grid(m[b], *s[b]) for m, s in zip(block.chain, block.shapes)]
    return (block.nu[b, :n], block.mu[b, :n], *chain)


def legacy_chain_view(d):
    nu, mu, chain, _ = d
    laws = (FiniteDist(range(w.size), w).weights for w in (nu, mu))
    return (*laws, *(Kernel(range(m.shape[0]), range(m.shape[1]), m).matrix for m in chain))


def convexity_view(block, b, d):
    return tuple(block.laws[b, :, : block.size[b]])


def legacy_convexity_view(d):
    _, nu1, mu1, nu2, mu2 = d
    return tuple(FiniteDist(range(w.size), w).weights for w in (mu1, nu1, mu2, nu2))


def concavity_view(block, b, d):
    return tuple(x[i][b, : block.size[i][b]] for i in (0, 1) for x in (block.weights, block.values))


def legacy_concavity_view(d):
    return tuple(x for m in d[1:] for x in (m.weights, m.values_array()))


def lebesgue_view(block, b, d):
    n = block.size[b]
    return block.mu[b, :n], block.f[b, :n], block.h[b, :n]


def legacy_lebesgue_view(d):
    mu, f, h = d
    return mu.weights, f, h


def laws_view(block, b, d):
    """Trial b's laws (weights drawn, as FiniteDist stores them, as the shifted law does; values) and mixing weights."""
    arrays = (block.drawn, block.weights, block.weights2, block.values)
    laws = [tuple(x[r, : block.size[r]] for x in arrays) for r in np.flatnonzero(block.owner == b)]
    return laws, None if block.mixing is None else block.mixing[b, : block.counts[b]]


def legacy_laws_view(d):
    laws, mixing = d
    out = []
    for values, w in laws:
        law = FiniteDist(values.tolist(), w)
        out.append((w, law.weights, FiniteDist(values.tolist(), law.weights).weights, values))
    return out, mixing


def stream_position(rng, words=None):
    """Where a trial's stream stands: PCG64's 128-bit state and increment, and the half-word kept for
    the next 32-bit draw, or None.

    A reader's kept half-word counts as its generator's: numpy keeps it in
    (has_uint32, uinteger), and ``uinteger`` means nothing while has_uint32
    is 0. The two never both hold one.
    """
    state = rng.bit_generator.state
    kept = state["uinteger"] if state["has_uint32"] else None
    if words is not None and words.kept is not None:
        assert kept is None
        kept = words.kept
    return state["state"], kept


# sampler name -> (the sampler, its legacy form, what a block evaluates of a trial, the same of a legacy draw)
SAMPLERS = {
    "product": (samplers._PRODUCT, partial(legacy_draw_joint, payoffs=False), joint_view, legacy_product_view),
    "conditional": (
        samplers._CONDITIONAL, partial(legacy_draw_joint, payoffs=True), joint_view, legacy_conditional_view
    ),
    **{
        kind: (CHECK_KINDS[kind].sampler, legacy, chain_view, legacy_chain_view)
        for kind, legacy in [
            ("dpi", partial(legacy_draw_dpi, bijection=False)),
            ("dpi_bijection", partial(legacy_draw_dpi, bijection=True)),
            ("sufficiency_matched", partial(legacy_draw_sufficiency, matched=True)),
            ("sufficiency_generic", partial(legacy_draw_sufficiency, matched=False)),
            ("refinement", legacy_draw_refinement),
        ]
    },
    "convexity": (samplers._CONVEXITY, legacy_draw_convexity, convexity_view, legacy_convexity_view),
    "concavity": (samplers._CONCAVITY, legacy_draw_concavity, concavity_view, legacy_concavity_view),
    "lebesgue": (samplers._LEBESGUE, legacy_draw_lebesgue, lebesgue_view, legacy_lebesgue_view),
    "shift_convexity": (samplers._SHIFT_CONVEXITY_LAWS, legacy_draw_shift_convexity, laws_view, legacy_laws_view),
    "property_s": (samplers._PROPERTY_S_LAWS, legacy_draw_property_s, laws_view, legacy_laws_view),
    "mixture_convexity": (samplers._MIXTURE_LAWS, legacy_draw_mixture, laws_view, legacy_laws_view),
}
# one seed above 2**32, where SeedSequence takes a second word
STREAM_SEEDS = (0, 1, 101, 7919, 2**33 + 5)


class TestSamplerStream:
    """A block's draw steps leave the generator states of the legacy samplers, and its finish gives their bits."""

    @pytest.mark.parametrize("shape", [1, 2, 7, 12, (1, 5), (2, 9), (4, 3), (12, 12), (3, 2, 4)])
    def test_weights_and_payoffs(self, shape):
        for seed in STREAM_SEEDS:
            rng, legacy = np.random.default_rng([seed, 3]), np.random.default_rng([seed, 3])
            e = rng.standard_exponential(shape)
            w = samplers._dirichlet(e[None], np.array([e.shape[-1]]))[0]
            assert as_bits(w) == as_bits(legacy_dirichlet(legacy, shape))
            assert rng.bit_generator.state == legacy.bit_generator.state
            payoffs = VALUE_GRID[rng.integers(0, VALUE_GRID.size, size=shape)]
            assert as_bits(payoffs) == as_bits(legacy_payoffs(legacy, shape))
            assert rng.bit_generator.state == legacy.bit_generator.state

    def test_mixed_sizes_in_one_block(self):
        # rows of 1 to 40 exponentials padded together, each as its own call
        rng, legacy = np.random.default_rng(5), np.random.default_rng(5)
        sizes = rng.integers(1, 41, size=200)
        legacy.integers(1, 41, size=200)
        e = samplers._padded([rng.standard_exponential(n) for n in sizes])
        w = samplers._dirichlet(e, sizes)
        for row, n in zip(w, sizes):
            assert as_bits(row[:n]) == as_bits(legacy_dirichlet(legacy, n)) and not row[n:].any()

    @pytest.mark.parametrize("size", [3, 12])
    @pytest.mark.parametrize("sparsity", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_batched_samplers(self, sampler, sparsity, size):
        # blocks of 1, 7 and 100 trials; at size 12 a block mixes sizes 2 to
        # 12, so most size groups hold one trial
        new, legacy, view, legacy_view = SAMPLERS[sampler]
        for seed in STREAM_SEEDS:
            budget = SearchBudget(trials=0, seed=seed, max_e=size, max_f=size, sparsity=sparsity)
            for trials in (1, 7, 100):
                raws, olds = [], []
                for trial in range(3, 3 + trials):
                    words, old = streams._Words(budget.rng_for(trial)), budget.rng_for(trial)
                    raws.append(new.draw(words, budget))
                    olds.append(legacy(old, budget))
                    assert stream_position(words.rng, words) == stream_position(old), (seed, trial)
                block = new.finish(raws)
                for b, old in enumerate(olds):
                    if hasattr(block, "trial"):
                        drawn = block.trial(b)
                        drawn = list(drawn.values()) if isinstance(drawn, dict) else drawn
                        assert as_bits(drawn) == as_bits(old), (seed, trials, b)
                    assert as_bits(view(block, b, old)) == as_bits(legacy_view(old)), (seed, trials, b)

    def test_boundary_laws(self):
        for seed in STREAM_SEEDS:
            budget = SearchBudget(trials=0, seed=seed)
            for n in range(2, 13):
                words, old = streams._Words(budget.rng_for(n)), budget.rng_for(n)
                new = boundary_law(words, ENTROPIC, n)
                assert as_bits(new) == as_bits(legacy_boundary_law(old, ENTROPIC, n))
                assert stream_position(words.rng, words) == stream_position(old)

    def test_row_sums_are_the_bits_of_one_dimensional_sums(self):
        # batched weights renormalize each row by a 2-D sum along the last
        # axis; from 8 atoms on numpy sums pairwise, and the row sum must
        # group exactly as the 1-D sum of the row does
        rng = np.random.default_rng(0)
        for n in range(2, 41):
            w = rng.standard_exponential((50, n))
            rows = w.sum(axis=-1, keepdims=True)[:, 0]
            assert [r.tobytes() for r in rows] == [row.sum().tobytes() for row in w]

    def test_grouped_row_sums_of_mixed_sizes(self):
        # a block sums each size group unpadded: every (trial, row) sum is the
        # bits of the 1-D sum of that row's own entries
        rng = np.random.default_rng(1)
        sizes = rng.integers(1, 30, size=120)
        x = samplers._padded([rng.standard_exponential((3, n)) for n in sizes])
        sums = samplers._row_sums(x, sizes)
        assert [s.tobytes() for s in sums.reshape(-1)] == [
            row[:n].sum().tobytes() for trial, n in zip(x, sizes) for row in trial
        ]


def forced(word, inc=0x5851F42D4C957F2D):
    """A generator whose next 64-bit output is word.

    PCG64 steps its state to s' = s * mult + inc and outputs the xor of the
    halves of s', rotated by the top 6 bits of s'. A state s' whose upper
    half is 0 outputs its lower half, so s = (word - inc) * mult^-1 mod 2**128.
    """
    state = (word - inc) * pow(streams._PCG64_MULT, -1, 1 << 128) % (1 << 128)
    rng = np.random.Generator(np.random.PCG64(0))
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def twins(seed):
    """A trial's generator read through a reader, and its twin that numpy reads."""
    return streams._Words(np.random.default_rng(seed)), np.random.default_rng(seed)


def next_draws(words):
    """Two raw words, then a 32-bit draw, then a raw word: the kept half-word must outlive raw draws."""
    raw = words.rng.bit_generator.random_raw
    return [*raw(2).tolist(), words.integer(0, 2**32), raw()]


def numpy_next_draws(rng):
    raw = rng.bit_generator.random_raw
    return [*raw(2).tolist(), int(rng.integers(0, 2**32)), raw()]


# the ranges of the scalar integer draws: a single value (no draw), powers
# of 2 (no rejection), the grid, and 2**31 + 1, where nearly half of all
# products fall below Lemire's threshold
SPANS = (1, 2, 3, 5, 41, 2**31 + 1)


class TestTrialWords:
    """``_Words`` gives numpy's values from a trial's raw words and leaves its stream where numpy leaves it."""

    @pytest.mark.parametrize("span", SPANS)
    def test_integers(self, span):
        for seed in range(200):
            words, rng = twins(seed)
            for low in (0, 3, -7):
                assert words.integer(low, low + span) == int(rng.integers(low, low + span)), seed
                assert stream_position(words.rng, words) == stream_position(rng), seed
            assert next_draws(words) == numpy_next_draws(rng)

    @pytest.mark.parametrize("n", range(46))
    def test_permutations(self, n):
        for seed in range(40):
            words, rng = twins([seed, n])
            assert words.permutation(n) == rng.permutation(n).tolist(), seed
            assert stream_position(words.rng, words) == stream_position(rng), seed
            assert next_draws(words) == numpy_next_draws(rng)

    @pytest.mark.parametrize("n", range(1, VALUE_GRID.size + 1))
    def test_distinct_picks(self, n):
        for seed in range(40):
            words, rng = twins([seed, n])
            picks = VALUE_GRID[words.distinct(VALUE_GRID.size, n)]
            assert as_bits(picks) == as_bits(rng.choice(VALUE_GRID, n, replace=False)), seed
            assert stream_position(words.rng, words) == stream_position(rng), seed
            assert next_draws(words) == numpy_next_draws(rng)

    @pytest.mark.parametrize("seed", range(30))
    def test_sequences_mixed_with_64_bit_draws(self, seed):
        # a seeded program of 32-bit draws through the reader and 64-bit
        # draws on its generator, against the same calls on numpy alone
        program = np.random.default_rng([99, seed])
        words, rng = twins(seed)
        for _ in range(40):
            op = int(program.integers(8))
            n = int(program.integers(1, 13))
            if op == 0:
                got, want = words.integer(2, n + 2), int(rng.integers(2, n + 2))
            elif op == 1:
                got, want = words.permutation(n), rng.permutation(n).tolist()
            elif op == 2:
                got, want = words.distinct(VALUE_GRID.size, n), rng.choice(VALUE_GRID.size, n, replace=False).tolist()
            elif op == 3:
                got, want = words.rng.random(n).tobytes(), rng.random(n).tobytes()
            elif op == 4:
                got, want = words.rng.standard_exponential(n).tobytes(), rng.standard_exponential(n).tobytes()
            elif op == 5:
                got, want = float(words.rng.uniform(0.05, 0.95)), float(rng.uniform(0.05, 0.95))
            elif op == 6:
                got, want = words.integer(0, SPANS[n % len(SPANS)]), int(rng.integers(0, SPANS[n % len(SPANS)]))
            else:
                got, want = words.integers(41, n).tolist(), rng.integers(0, 41, size=n).tolist()
            assert got == want
            assert stream_position(words.rng, words) == stream_position(rng)
        assert next_draws(words) == numpy_next_draws(rng)

    @pytest.mark.parametrize("n", [0, 1, 2, 9, 12, 13, 41, 144])
    @pytest.mark.parametrize("kept", [False, True])
    def test_sized_draws(self, kept, n):
        # past _INTEGERS_LOOP_MAX values numpy draws, once the reader has used
        # up a kept half-word; numpy then keeps the half-word, and the reader
        # refuses any 32-bit draw of its own
        for seed in range(20):
            words, rng = twins(seed)
            if kept:
                assert words.integer(0, 5) == int(rng.integers(0, 5))
                assert words.kept is not None
            got = words.integers(VALUE_GRID.size, n)
            assert as_bits(got) == as_bits(rng.integers(0, VALUE_GRID.size, size=n))
            assert stream_position(words.rng, words) == stream_position(rng)
            if n <= streams._INTEGERS_LOOP_MAX:
                assert next_draws(words) == numpy_next_draws(rng)
                continue
            assert as_bits(words.rng.standard_exponential(3)) == as_bits(rng.standard_exponential(3))
            assert as_bits(words.integers(7, 20)) == as_bits(rng.integers(0, 7, size=20))
            assert stream_position(words.rng, words) == stream_position(rng)
            with pytest.raises(RuntimeError):
                words.integer(0, 5)

    @pytest.mark.parametrize("kept", [False, True])
    def test_scalar_uniforms(self, kept):
        # one word, scaled as numpy's next_double and random_uniform scale it;
        # a half-word kept before it stays kept for the next 32-bit draw
        for seed in range(300):
            words, rng = twins([seed, 17])
            if kept:
                assert words.integer(0, 5) == int(rng.integers(0, 5))
            assert as_bits(words.uniform()) == as_bits(rng.random()), seed
            assert as_bits(words.uniform(0.05, 0.95)) == as_bits(rng.uniform(0.05, 0.95)), seed
            assert as_bits(words.uniform(0.25, 2.5)) == as_bits(rng.uniform(0.25, 2.5)), seed
            assert (words.kept is not None) == kept
            assert stream_position(words.rng, words) == stream_position(rng), seed
            assert next_draws(words) == numpy_next_draws(rng)

    def test_scalar_uniforms_at_the_extreme_words(self):
        # word 0 gives 0.0 and low itself; 2**64 - 1 the largest double below 1
        for word in (0, 1, 2**11 - 1, 2**11, 2**63, 2**64 - 2**11, 2**64 - 1):
            for low, high in ((0.0, 1.0), (0.05, 0.95)):
                words, rng = streams._Words(forced(word)), forced(word)
                assert as_bits(words.uniform(low, high)) == as_bits(rng.uniform(low, high)), word
                assert stream_position(words.rng, words) == stream_position(rng)
            words, rng = streams._Words(forced(word)), forced(word)
            assert as_bits(words.uniform()) == as_bits(rng.random()), word
        assert streams._Words(forced(0)).uniform() == 0.0
        assert streams._Words(forced(2**64 - 1)).uniform() == 1.0 - 2.0**-53

    def test_scalar_uniforms_after_numpy_takes_the_stream(self):
        # a sized draw past _INTEGERS_LOOP_MAX values hands the stream to
        # numpy, which may keep a half-word: a uniform still reads the next
        # whole word and leaves that half-word to numpy's next 32-bit draw
        n = streams._INTEGERS_LOOP_MAX + 5
        for seed in range(40):
            words, rng = twins(seed)
            assert words.integer(0, 7) == int(rng.integers(0, 7))
            assert as_bits(words.integers(VALUE_GRID.size, n)) == as_bits(rng.integers(0, VALUE_GRID.size, size=n))
            assert as_bits(words.uniform(0.05, 0.95)) == as_bits(rng.uniform(0.05, 0.95)), seed
            assert as_bits(words.uniform()) == as_bits(rng.random()), seed
            assert stream_position(words.rng, words) == stream_position(rng)
            assert int(words.rng.integers(0, 2**32)) == int(rng.integers(0, 2**32))
            assert stream_position(words.rng, words) == stream_position(rng)

    def test_a_rebound_reader_starts_afresh(self):
        # one reader serves a block: rebound to each trial's generator, it
        # drops the last trial's kept half-word and hand-over
        budget = SearchBudget(trials=0, seed=5)
        words = None
        for k, rng in zip(range(30), streams._trial_rngs(budget, 0, 30)):
            words = streams._Words(rng) if words is None else words.bound(rng)
            old = budget.rng_for(k)
            assert words.integer(0, 3) == int(old.integers(0, 3))
            if k % 2:
                words.integers(VALUE_GRID.size, streams._INTEGERS_LOOP_MAX + 1)
                old.integers(0, VALUE_GRID.size, size=streams._INTEGERS_LOOP_MAX + 1)
            assert as_bits(words.uniform()) == as_bits(old.random())
            assert stream_position(words.rng, words) == stream_position(old), k

    def test_a_forced_word_is_the_next_output(self):
        for word in (0, 1, 7, 2**32 - 1, 2**32, 2**63 + 12345, 2**64 - 1):
            assert forced(word).bit_generator.random_raw() == word

    @pytest.mark.parametrize("draw", ["integer", "sized", "distinct"])
    @pytest.mark.parametrize("span", [3, 5, 41, 2**31 + 1])
    def test_lemire_rejections(self, span, draw):
        # x * span mod 2**32 = k for x = k / span mod 2**32: a product below
        # 2**32 mod span is rejected and the kept half-word drawn next; one
        # from there to span passes the threshold test. A scalar draw, a
        # sized one and the one pick of a distinct draw each make one.
        ours, numpys = {
            "integer": (lambda w: w.integer(0, span), lambda r: int(r.integers(0, span))),
            "sized": (lambda w: w.integers(span, 1).tolist(), lambda r: r.integers(0, span, size=1).tolist()),
            "distinct": (lambda w: w.distinct(span, 1), lambda r: r.choice(span, 1, replace=False).tolist()),
        }[draw]

        def with_product(k):
            return k * pow(span, -1, 2**32) % 2**32

        threshold = 2**32 % span
        high = with_product(threshold)  # the upper half passes
        for k in sorted({0, threshold - 1, threshold, threshold + 1, span - 1}):
            word = high << 32 | with_product(k)
            words, rng = streams._Words(forced(word)), forced(word)
            assert ours(words) == numpys(rng)
            assert words.kept == (None if k < threshold else high)  # a rejection takes both halves
            assert stream_position(words.rng, words) == stream_position(rng)
            assert next_draws(words) == numpy_next_draws(rng)

    @pytest.mark.parametrize("n", [3, 5, 6, 12, 45])
    def test_masked_rejections(self, n):
        # the first swap of a permutation of n draws in [0, n - 1] under the
        # mask 2**k - 1 >= n - 1: every masked value above n - 1 is rejected
        mask = (1 << (n - 1).bit_length()) - 1
        for low in range(mask + 1):
            word = 0x9E3779B9 << 32 | 0xABCD0000 | low
            words, rng = streams._Words(forced(word)), forced(word)
            assert words.permutation(n) == rng.permutation(n).tolist()
            assert stream_position(words.rng, words) == stream_position(rng)
            assert next_draws(words) == numpy_next_draws(rng)

    def test_a_kept_half_word_of_the_callers_generator_is_taken(self):
        # sample_conditional_instance reads a caller's generator: a half-word
        # it keeps is drawn first, as numpy draws it
        budget = SearchBudget(trials=0, seed=0, max_e=5, max_f=5)
        for seed in range(20):
            rng, old = np.random.default_rng(seed), np.random.default_rng(seed)
            for g in (rng, old):
                g.random(dtype=np.float32)  # takes half of a word and keeps the other
            new = consistency.sample_conditional_instance(rng, budget)
            raw = legacy_draw_joint(old, budget, payoffs=True)
            assert as_bits(new.values) == as_bits(raw[1])
            assert rng.bit_generator.state["state"] == old.bit_generator.state["state"]


class TestBlockSeeding:
    """A block's one reseeded generator holds, before each trial, the state of ``default_rng([seed, k])``."""

    @pytest.mark.parametrize("first, stop", [(0, 300), (2**31 - 5, 2**31 + 5), (2**32 - 3, 2**32 + 3)])
    @pytest.mark.parametrize("seed", [0, 1, 101, 7919, 2**33 + 5, 2**100 + 3])
    def test_states_are_those_of_default_rng(self, seed, first, stop):
        # 2**100 + 3 has more words than SeedSequence's pool of 4, and the last
        # range crosses k = 2**32, where k's word count changes
        budget = SearchBudget(trials=0, seed=seed)
        seen = 0
        for k, rng in zip(range(first, stop), streams._trial_rngs(budget, first, stop)):
            assert rng.bit_generator.state == np.random.default_rng([seed, k]).bit_generator.state, k
            # one float32 takes half of a 64-bit output and buffers the other
            # half, which the next trial's state must not inherit
            rng.random(dtype=np.float32)
            seen += 1
        assert seen == stop - first

    def test_a_negative_trial_index_is_refused(self):
        # -1 >> k is -1 for every k: counting the words of -1 never ended
        budget = SearchBudget(trials=5, seed=1)
        with pytest.raises(ValueError):
            describe_trial("acceptance", ENTROPIC, None, budget, -1)
        with pytest.raises(ValueError):
            run_trials("acceptance", ENTROPIC, None, budget, -3, 2)


def trial_gaps(result):
    """A BlockResult's gaps as its trials report them: floats, None where vacuous."""
    return [None if v else g for g, v in zip(result.gap.tolist(), result.vacuous.tolist())]


def trial_result(entry, result, b):
    """Trial b of a kind's BlockResult: its gap, its vacuous, class and exhausted flags, and its instance."""
    flags = (result.vacuous[b], *(None if f is None else f[b] for f in (result.product, result.exhausted)))
    return trial_gaps(result)[b], *(None if f is None else bool(f) for f in flags), entry.serialize(result, b)


def result_bits(x):
    """A trial's result in comparable form: ``as_bits``, through dicts and dataclass instances too."""
    if isinstance(x, dict):
        return tuple((k, result_bits(v)) for k, v in x.items())
    if is_dataclass(x) and not isinstance(x, type):
        return type(x).__name__, tuple(result_bits(getattr(x, f.name)) for f in fields(x))
    if isinstance(x, (tuple, list)):
        return tuple(map(result_bits, x))
    return as_bits(x)


class TestBlockPathBits:
    """Every kind gives the bits it gave when each trial built its own generator with ``rng_for``."""

    @pytest.mark.parametrize("sparsity", [0.0, 0.5])
    @pytest.mark.parametrize("size", [3, 12])
    @pytest.mark.parametrize("kind", list(CHECK_KINDS))
    def test_trials_match_per_trial_generators(self, monkeypatch, kind, size, sparsity):
        budget = SearchBudget(trials=20, seed=11, max_e=size, max_f=size, sparsity=sparsity)
        div = kinds.resolve_divergence(kind, ENTROPIC, None)

        def results():
            # gap bits, the vacuous, product and exhausted flags, and the drawn instance
            entry = CHECK_KINDS[kind]
            result = entry.trial(ENTROPIC, div, budget, 5, 15)
            return [result_bits(trial_result(entry, result, b)) for b in range(10)]

        seeded = results()
        monkeypatch.setattr(
            samplers, "_trial_rngs", lambda budget, start, stop: (budget.rng_for(k) for k in range(start, stop))
        )
        assert results() == seeded


# sha256 of the canonical instance documents of trials 0-49 at seed 11, per
# kind, over sizes 3 and 12 (3 and 4 for the kinds checked against the grid
# oracle) and sparsity 0 and 0.5, as recorded while the samplers still drew
# through Generator calls. The families avoid numpy's SIMD exp and power,
# whose last bits differ between hosts: shortfall power_plus(2) and its
# divergence, and esssup for the solver kinds, whose documents carry their
# solves (and whose power_plus(2) solves take seconds).
INSTANCE_DIGESTS = {
    "chain_rule": "b9d612be0638cd3604c6bbd54d20ce5c58acb09057464af173e11b4cd1a82e67",
    "superadditivity": "b9d612be0638cd3604c6bbd54d20ce5c58acb09057464af173e11b4cd1a82e67",
    "subadditivity": "b9d612be0638cd3604c6bbd54d20ce5c58acb09057464af173e11b4cd1a82e67",
    "weak_consistency": "b9d612be0638cd3604c6bbd54d20ce5c58acb09057464af173e11b4cd1a82e67",
    "dpi": "9e38d868de4d87857bfef38b6a44fd31a666f6ca4dc019504b87cbf30bf53610",
    "dpi_bijection": "0f1fea153910b47082bc160dfa3fa4d754ea50b58a3fdfe27dfac5e4f78b8bd4",
    "duality": "fbc6691aa11345863f6b6106351b0c65908a5c8cb6266d31df1343c017c879fa",
    "time_consistency": "d81911c6833dde8c509ebf8062417c32a68285c056635c5ebe3dbb3d735a0f39",
    "acceptance": "d81911c6833dde8c509ebf8062417c32a68285c056635c5ebe3dbb3d735a0f39",
    "rejection": "d81911c6833dde8c509ebf8062417c32a68285c056635c5ebe3dbb3d735a0f39",
    "weak_acceptance": "d81911c6833dde8c509ebf8062417c32a68285c056635c5ebe3dbb3d735a0f39",
    "shift_convexity": "4552252f00d6437a8b6c1234bfaf511d8fd1215e783693688bbbfa8efeda79a2",
    "property_s": "02a523824ec6bf3d62fec148715bdb4e8ddfff9edbe1c08f54137dd1099f80c6",
    "mixture_convexity": "9dc4cf32af8ea5c95609f847c0975d83e6e43b808ea7150b1c121ecb3e7c81cc",
    "joint_convexity": "3c832e3d6fe18cf45cb508730fc56f97f322d6b827fdc5a18de3978f06e2c832",
    "dist_concavity": "2bf20a48cb0a70a04498b1482afa00b8cc81fe669940e2f432d4c0880612cfa9",
    "sufficiency_matched": "91941be58337786f89ff8ccca2c5c2941600753d2331d13ce5cc63d99defb6f6",
    "sufficiency_generic": "c007ed70f16480f9451cc2d0dae7c1b8fd3d036562bb9042855f2abfcd90a170",
    "refinement": "adda5b7a86f017c64bf41c70f25645284c6160c3419b513eb4dfa4308e7a94f2",
    "lemma_identity": "01a2b0f2743c5696a69b34ae166a93aefdc310a30245be3516651944d067dc79",
    "key_identity": "f605b68a98889ad246961780ee6a6b80578d24458ee62265033e77d9ff19c12e",
    "lebesgue": "f0baa0a0527b65b4d0bd598ec67625e3edf488565a99741b6ceab061559024c8",
}
SOLVER_KINDS = ("duality", "lemma_identity", "key_identity")


def instance_digest(kind):
    """The sha256 of a kind's instance documents, serialized from one block per setting as describe_trial serializes them."""
    entry = CHECK_KINDS[kind]
    pp2 = RiskSpec.shortfall(LossFn.power_plus(2.0))
    risk = RiskSpec.esssup() if kind in SOLVER_KINDS else pp2
    div = kinds.resolve_divergence(kind, pp2, None)
    digest = hashlib.sha256()
    for size in (3, 4) if entry.oracle else (3, 12):
        for sparsity in (0.0, 0.5):
            budget = SearchBudget(trials=50, seed=11, max_e=size, max_f=size, sparsity=sparsity)
            result = entry.trial(risk, div, budget, 0, 50)
            for b in range(50):
                doc = entry.serialize(result, b)
                if doc is not None:
                    digest.update(canonical_json(doc).encode())
    return digest.hexdigest()


class TestInstanceDigests:
    """Every kind draws the instances it drew before its 32-bit draws came from raw words."""

    @pytest.mark.parametrize("kind", list(CHECK_KINDS))
    def test_instances_keep_their_bits(self, kind):
        assert instance_digest(kind) == INSTANCE_DIGESTS[kind]


# sha256 of what a check reports, per kind: the TrialStats fields of run_trials
# over trials 0-19 at seed 11 and the canonical describe_trial document of
# each of those trials, which carries its gap, vacuous flag, class and
# instance, over the sizes, sparsities and families of INSTANCE_DIGESTS; as
# recorded while run_trials still folded one result object per trial.
REPORT_DIGESTS = {
    "chain_rule": "6fb3287ec3cb92f6a726423690ffef75bbefc61a878a19d10cc01a61d328d09f",
    "superadditivity": "0c637aa27a00ebacd4ffd84bd66f5ab86767632e2a24864bea625a063386e64a",
    "subadditivity": "135e987d0d5aaa2c889df6e65afc809768280ccf74121516104507e5c6ebfb1f",
    "weak_consistency": "b078084c102f0d95a411962ec962e72742b8ec066a454ed2f0b0839779970fa0",
    "dpi": "e9238bab221b953927571ffd59cb032e353d19ae35fc2d6b7b8d30e32c7fcacb",
    "dpi_bijection": "e5a26d374805a2af3c9754a83f5000f8c5b5409c161752d43ba7149195e7865d",
    "duality": "544c9ed15fee05bab225a19f1eee8e2934fc75f20fdbec56db93720c8b5078d6",
    "time_consistency": "d1771102dec383795c3d9f691645dcb5b2c5ba0d9dc41f4db3aa8b1bd34f2993",
    "acceptance": "6354e7fb988dd61fec7f79028a70f2103dc795ddb298c56c056e5d55ea02c61f",
    "rejection": "fad2c23253544b5ec024a7e1953b6650836db219c363af217c142df0c482546d",
    "weak_acceptance": "7d0b23bd1a21c7bd36dbd2728b3e4471c5eee59e667705033a8d5c8792f8b951",
    "shift_convexity": "98cfd885484bae7e4212b9722cb672f34f7d384c9b6bb966265578923f4c402f",
    "property_s": "9f0c698820db1b28b81fd77fe499e0194718d1f5b84d74c808668596b339c60a",
    "mixture_convexity": "740301d7df60c8f45cd19ec5b5055344c48e57f4d63fef1ad777f5f323fae016",
    "joint_convexity": "a796304e2090318d818f348ca8a13b5602a762de80fec9fa8f886e9a8d6303d3",
    "dist_concavity": "d565119c22e8053f6ae18105a3aa6129a52eb0da4aa041104012ea4d93d56b34",
    "sufficiency_matched": "dac166877e0becb5143fd5b476ef43ddd62f7c269f423eb08f543a6bc7ff9462",
    "sufficiency_generic": "5aeb244aaf91ccac6e7a4993f7321c729bcc0da5538246d4c12a487bc6d30a59",
    "refinement": "7bfc0e70aff36609e0b9135c8a1713ad2ce11b69844a9fa23bd96c35e286f423",
    "lemma_identity": "03ac818577ba9f5f3d0f7c20c69ee2e4be7eea8cadbcf59c07e53c34b2a19f93",
    "key_identity": "7ad18e54c1d4b0b8ac3ec3f815ac2a98fc52cf894593980f3b468db19a67395f",
    "lebesgue": "c8dc1c6a76fdb25cb7734518696f9d64ca9afc8398f68045b706e0bcd63c8c36",
}


def report_digest(kind):
    """The sha256 of a kind's run_trials summaries and describe_trial documents, setting after setting."""
    entry = CHECK_KINDS[kind]
    pp2 = RiskSpec.shortfall(LossFn.power_plus(2.0))
    risk = RiskSpec.esssup() if kind in SOLVER_KINDS else pp2
    div = kinds.resolve_divergence(kind, pp2, None)
    digest = hashlib.sha256()
    for size in (3, 4) if entry.oracle else (3, 12):
        for sparsity in (0.0, 0.5):
            budget = SearchBudget(trials=20, seed=11, max_e=size, max_f=size, sparsity=sparsity)
            digest.update(canonical_json(asdict(run_trials(kind, risk, div, budget, 0, 20))).encode())
            for trial in range(20):
                digest.update(canonical_json(describe_trial(kind, risk, div, budget, trial)).encode())
    return digest.hexdigest()


class TestReportDigests:
    """Every kind reports the summaries and trial documents it reported before its blocks were folded as arrays."""

    @pytest.mark.parametrize("kind", list(CHECK_KINDS))
    def test_reports_keep_their_bits(self, kind):
        assert report_digest(kind) == REPORT_DIGESTS[kind]


def sequential_stats(entry, trials, start=0):
    """run_trials' summary of (gap, vacuous, is_product, exhausted) trials, folded one at a time as it once was.

    The reference of the array fold: a vacuous trial's gap is None, a
    negated kind's gaps come negated, and a kind without a solver is never
    exhausted.
    """
    stats = TrialStats(class_worst={})
    for trial, (gap, vacuous, is_product, exhausted) in enumerate(trials, start):
        stats.count += 1
        if vacuous or gap is None:
            stats.vacuous += 1
            continue
        stats.exhausted += exhausted
        if math.isnan(gap):
            stats.nan += 1
            continue
        bad = entry.badness(gap)
        if stats.worst_trial is None or bad > stats.worst_badness:
            stats.worst_badness = bad
            stats.worst_trial = trial
            stats.worst_gap = gap
        if is_product is not None:
            label = "product" if is_product else "general"
            cur = stats.class_worst.get(label)
            if cur is None or bad > cur[0]:
                stats.class_worst[label] = (bad, trial, gap)
    if not stats.class_worst:
        stats.class_worst = None
    return stats


# gaps with NaN, both infinities, both zeros, and ties
FOLD_GAPS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-3, -1e-3, 2.0, -2.0])


@st.composite
def judged_trials(draw):
    """The arrays of a kind's BlockResult over a run of trials, with or without classes and solver flags."""
    n = draw(st.integers(1, 30))
    flags = st.lists(st.booleans(), min_size=n, max_size=n)
    return {
        "gap": draw(st.lists(FOLD_GAPS, min_size=n, max_size=n)),
        "vacuous": draw(flags),
        "product": draw(st.none() | flags),
        "exhausted": draw(st.none() | flags),
    }


class TestArrayFold:
    """run_trials folds each block's arrays into the summary that a loop over its trials in order gives."""

    @settings(max_examples=300, deadline=None)
    @given(
        trials=judged_trials(),
        side=st.sampled_from(["lower", "abs"]),
        negate=st.booleans(),
        block=st.integers(1, 8),
        cut=st.floats(0.0, 1.0),
    )
    @example(
        # NaN first and last, an exhausted vacuous trial, and ties of -0.0 and 0.0 and of 2.0
        trials={
            "gap": [math.nan, -0.0, 2.0, 0.0, 2.0, -math.inf, math.nan],
            "vacuous": [False, False, False, False, False, True, False],
            "product": [True, False, True, True, False, False, True],
            "exhausted": [True, False, False, True, False, True, False],
        },
        side="abs",
        negate=False,
        block=3,
        cut=0.5,
    )
    @example(
        trials={"gap": [0.0, -0.0, -0.0, math.inf], "vacuous": [False] * 4, "product": None, "exhausted": None},
        side="lower",
        negate=True,
        block=2,
        cut=0.25,
    )
    def test_fold_matches_the_sequential_loop(self, trials, side, negate, block, cut):
        n = len(trials["gap"])
        arrays = {k: None if v is None else np.array(v, dtype=float if k == "gap" else bool) for k, v in trials.items()}

        def evaluate(risk, div, span):
            lo, hi = span
            return BlockResult(**{k: None if v is None else v[lo:hi].copy() for k, v in arrays.items()}, drawn=None)

        entry = CheckKind(side, "risk", None, evaluate, None, None, negate=negate)
        reference = sequential_stats(
            entry,
            [
                (None if vacuous else -gap if negate else gap, vacuous, product, bool(exhausted))
                for gap, vacuous, product, exhausted in zip(
                    trials["gap"], trials["vacuous"], trials["product"] or [None] * n, trials["exhausted"] or [False] * n
                )
            ],
        )
        budget = SearchBudget(trials=n, seed=0)
        mid = int(cut * n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(CHECK_KINDS, "folded", entry)
            # a block is the span of trials itself; blocks of `block` trials at sizes 3
            mp.setattr(kinds, "_finished", lambda sampler, budget, start, stop: (start, stop))
            mp.setattr(consistency, "BLOCK_ENTRIES", block * 9)
            whole = run_trials("folded", None, None, budget, 0, n)
            merged = run_trials("folded", None, None, budget, 0, mid).merge(
                run_trials("folded", None, None, budget, mid, n)
            )
        assert result_bits(whole) == result_bits(reference)
        assert result_bits(merged) == result_bits(reference)

    @settings(max_examples=200, deadline=None)
    @given(lhs=FOLD_GAPS, rhs=FOLD_GAPS)
    @example(lhs=math.inf, rhs=math.inf)
    @example(lhs=math.inf, rhs=1.0)
    @example(lhs=1.0, rhs=2.0)
    def test_only_plus_infinity_on_both_sides_is_vacuous(self, lhs, rhs):
        gap, vacuous = kinds._gap_of(np.array([lhs]), np.array([rhs]))
        if lhs == rhs == math.inf:
            assert vacuous[0]
        else:
            assert not vacuous[0] and as_bits(float(gap[0])) == as_bits(lhs - rhs)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(FOLD_GAPS, min_size=3, max_size=3), min_size=1, max_size=8))
    @example([[1.0, 0.0, -1.0], [0.0, -0.0, 0.0], [math.inf, 1.0, 0.0], [math.inf, math.inf, math.nan]])
    def test_refinement_takes_the_first_least_finite_step(self, rows):
        # the rule each refinement trial once applied to its own values
        def least_step(values):
            if any(math.isnan(v) for v in values):
                return math.nan, False
            steps = [a - b for a, b in zip(values, values[1:]) if math.isfinite(a) and math.isfinite(b)]
            return (None, True) if not steps else (min(steps), False)

        gap, vacuous = kinds._refinement_gaps(np.array(rows))
        got = [(None if v else g, v) for g, v in zip(gap.tolist(), vacuous.tolist())]
        assert result_bits(got) == result_bits([least_step(row) for row in rows])
