"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one line, `[criterion NN] PASS <what> (worst=...)`, on
success; a failure raises with the offending numbers. Seeds are fixed so
the whole gate is replayable.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from divlab.consistency import SearchBudget, counterexample_search, describe_trial, run_trials
from divlab.divergence import DivergenceSpec, divergence_for_risk_spec
from divlab.kinds import CHECK_KINDS
from divlab.losses import LossFn, UtilityFn
from divlab.prob import FiniteDist
from divlab.risk import RiskSpec, rho_entropic, rho_oce, rho_shortfall


def report(number: int, message: str) -> None:
    print(f"[criterion {number:02d}] PASS {message}")


def random_law(rng, n):
    values = np.unique(rng.uniform(-2.0, 2.0, n))
    return FiniteDist([float(v) for v in values], rng.dirichlet(np.ones(len(values))))


def test_criterion_01_chain_rule_exactness():
    budget = SearchBudget(trials=10_000, seed=101, max_e=6, max_f=6)
    div = DivergenceSpec.relative_entropy(1.0)
    start = time.monotonic()
    stats = run_trials("chain_rule", None, div, budget, 0, budget.trials)
    elapsed = time.monotonic() - start
    worst = abs(stats.worst_gap)
    assert worst <= 1e-9, f"chain rule broke: |gap| = {worst:.3e}"
    assert elapsed <= 10.0, f"runtime {elapsed:.1f}s exceeds the 10 s target"
    report(1, f"chain rule on 10,000 instances (worst |gap|={worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_data_processing():
    families = {
        "relative_entropy": DivergenceSpec.relative_entropy(1.0),
        "phi_star_ylogy": DivergenceSpec.phi_star(UtilityFn.exp_shift()),
        "shortfall_exp": DivergenceSpec.shortfall_div(LossFn.exponential(1.0)),
    }
    worst_random = math.inf
    worst_bijection = 0.0
    for seed, (name, div) in enumerate(families.items(), start=201):
        budget = SearchBudget(trials=1_000, seed=seed, max_e=5, max_f=5)
        stats = run_trials("dpi", None, div, budget, 0, budget.trials)
        assert stats.worst_gap >= -1e-8, f"{name}: dpi gap {stats.worst_gap:.3e}"
        worst_random = min(worst_random, stats.worst_gap)
        stats = run_trials("dpi_bijection", None, div, budget, 0, budget.trials)
        assert abs(stats.worst_gap) <= 1e-9, f"{name}: bijection gap {stats.worst_gap:.3e}"
        worst_bijection = max(worst_bijection, abs(stats.worst_gap))
    report(2, f"DPI, 1,000 kernels x 3 families (worst={worst_random:.2e}, bijection={worst_bijection:.2e})")


def test_criterion_03_duality_oracle():
    families = {
        "entropic": RiskSpec.entropic(1.0),
        "oce_exp_shift": RiskSpec.oce(UtilityFn.exp_shift()),
        "shortfall_exp": RiskSpec.shortfall(LossFn.exponential(1.0)),
    }
    worst = 0.0
    for seed, (name, spec) in enumerate(families.items(), start=301):
        budget = SearchBudget(trials=200, seed=seed, max_e=12, max_f=3)
        stats = run_trials("duality", spec, None, budget, 0, budget.trials)
        assert abs(stats.worst_gap) <= 1e-5, f"{name}: |closed - dual| = {stats.worst_gap:.3e}"
        worst = max(worst, abs(stats.worst_gap))
    report(3, f"dual solver vs closed forms, 200 pairs x 3 families (worst={worst:.2e})")


def test_criterion_04_family_coincidences():
    rng = np.random.default_rng(401)
    worst_sf = worst_oce = 0.0
    for _ in range(500):
        law = random_law(rng, int(rng.integers(2, 7)))
        eta = float(rng.uniform(0.3, 3.0))
        worst_sf = max(
            worst_sf,
            abs(rho_shortfall(law, LossFn.exponential(eta)) - rho_entropic(law, eta)),
        )
        worst_oce = max(
            worst_oce,
            abs(rho_oce(law, UtilityFn.exp_shift()) - rho_entropic(law, 1.0)),
        )
    assert worst_sf <= 1e-8, f"shortfall/entropic drift {worst_sf:.3e}"
    assert worst_oce <= 1e-8, f"oce/entropic drift {worst_oce:.3e}"
    loss = LossFn.exponential(1.0)
    re = DivergenceSpec.relative_entropy(1.0)
    sd = DivergenceSpec.shortfall_div(loss)
    worst_div = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 7))
        labels = tuple(f"a{i}" for i in range(n))
        nu = FiniteDist(labels, rng.dirichlet(np.ones(n)))
        mu = FiniteDist(labels, rng.dirichlet(np.ones(n)))
        worst_div = max(worst_div, abs(sd.evaluate(nu, mu) - re.evaluate(nu, mu)))
    assert worst_div <= 1e-6, f"shortfall divergence vs relative entropy {worst_div:.3e}"
    report(4, f"family coincidences (risk worst={max(worst_sf, worst_oce):.2e}, divergence worst={worst_div:.2e})")


def test_criterion_05_time_consistency_of_closed_families():
    worst = 0.0
    for seed, spec in [
        (501, RiskSpec.entropic(1.0)),
        (502, RiskSpec.expectation()),
        (503, RiskSpec.esssup()),
    ]:
        budget = SearchBudget(trials=2_000, seed=seed, max_e=4, max_f=4)
        stats = run_trials("time_consistency", spec, None, budget, 0, budget.trials)
        assert abs(stats.worst_gap) <= 1e-8, f"{spec.family}: |gap| = {stats.worst_gap:.3e}"
        worst = max(worst, abs(stats.worst_gap))
    report(5, f"time consistency of entropic/expectation/esssup, 2,000 each (worst={worst:.2e})")


def test_criterion_06_counterexample_search_finds_power_plus_violation():
    spec = RiskSpec.shortfall(LossFn.power_plus(2.0))
    budget = SearchBudget(trials=100_000, seed=601, max_e=3, max_f=3)
    result = counterexample_search(spec, budget, "acceptance")
    assert result.worst_gap < -1e-4, f"no violation found: worst = {result.worst_gap}"
    # deterministic replay from (seed, trial)
    replay = describe_trial("acceptance", spec, None, budget, result.worst_trial)
    assert replay == result.worst_instance
    assert replay["gap"] == result.worst_gap
    # and the serialized instance replays to the same bits
    assert CHECK_KINDS["acceptance"].replay(spec, None, result.worst_instance["instance"]) == result.worst_gap
    report(6, f"acceptance violation for ((1+x)+)^2 shortfall (gap={result.worst_gap:.4f}, trial={result.worst_trial}, replayed)")


def test_criterion_07_shift_convexity_and_property_s():
    spec = RiskSpec.entropic(1.0)
    budget = SearchBudget(trials=500, seed=701, max_e=3, max_f=3)
    sc = run_trials("shift_convexity", spec, None, budget, 0, budget.trials)
    assert sc.worst_gap >= -1e-9, f"shift-convexity violated: {sc.worst_gap:.3e}"
    ps = run_trials("property_s", spec, None, budget, 0, budget.trials)
    assert ps.worst_gap >= -1e-8, f"shifted-mixture property violated: {ps.worst_gap:.3e}"
    report(7, f"entropic shift-convexity and compound mixtures, 500 each (worst={min(sc.worst_gap, ps.worst_gap):.2e})")


def test_criterion_08_weber_weak_consistency_and_mixture_convexity():
    worst = math.inf
    for seed, div in [
        (801, DivergenceSpec.relative_entropy(1.0)),
        (802, DivergenceSpec.phi_star(UtilityFn.exp_shift())),
    ]:
        budget = SearchBudget(trials=2_000, seed=seed, max_e=3, max_f=3)
        stats = run_trials("weak_consistency", None, div, budget, 0, budget.trials)
        assert stats.worst_gap >= -1e-8, f"weak gap {stats.worst_gap:.3e}"
        worst = min(worst, stats.worst_gap)
    budget = SearchBudget(trials=500, seed=803, max_e=3, max_f=3)
    mc = run_trials("mixture_convexity", RiskSpec.entropic(1.0), None, budget, 0, budget.trials)
    assert mc.worst_gap >= -1e-8, f"mixture convexity violated: {mc.worst_gap:.3e}"
    report(8, f"weak-consistency inequality and acceptance-set convexity (worst={min(worst, mc.worst_gap):.2e})")


def test_criterion_09_rowwise_integral_identity():
    spec = RiskSpec.entropic(1.0)
    budget = SearchBudget(trials=200, seed=901, max_e=4, max_f=4)
    div = divergence_for_risk_spec(spec)
    worst = 0.0
    for trial in range(budget.trials):
        # the product instance that the product kinds draw for this trial
        inst = describe_trial("chain_rule", None, div, budget, trial)["instance"]
        gap = CHECK_KINDS["lemma_identity"].replay(spec, None, inst)
        assert gap is not None
        worst = max(worst, gap)
    assert worst <= 1e-5, f"integral identity gap {worst:.3e}"
    report(9, f"rowwise dual vs closed form on 200 entropic instances (worst={worst:.2e})")


def test_criterion_10_joint_convexity_and_distribution_concavity():
    budget = SearchBudget(trials=1_000, seed=1001, max_e=4, max_f=4)
    jc = run_trials(
        "joint_convexity", None, DivergenceSpec.phi_star(UtilityFn.exp_shift()), budget, 0, budget.trials
    )
    assert jc.worst_gap >= -1e-8, f"joint convexity violated: {jc.worst_gap:.3e}"
    worst = jc.worst_gap
    for seed, spec in [(1002, RiskSpec.oce(UtilityFn.exp_shift())), (1003, RiskSpec.entropic(1.0))]:
        b = SearchBudget(trials=500, seed=seed, max_e=4, max_f=4)
        dc = run_trials("dist_concavity", spec, None, b, 0, b.trials)
        assert dc.worst_gap >= -1e-8, f"{spec.family} concavity violated: {dc.worst_gap:.3e}"
        worst = min(worst, dc.worst_gap)
    report(10, f"joint convexity and distribution-level concavity (worst={worst:.2e})")


def test_criterion_11_sufficient_statistics():
    div = DivergenceSpec.relative_entropy(1.0)
    budget = SearchBudget(trials=200, seed=1101, max_e=6, max_f=3)
    matched = run_trials("sufficiency_matched", None, div, budget, 0, budget.trials)
    assert abs(matched.worst_gap) <= 1e-8, f"matched merge gap {matched.worst_gap:.3e}"
    generic = run_trials("sufficiency_generic", None, div, budget, 0, budget.trials)
    assert generic.worst_gap >= -1e-8, f"generic merge gap {generic.worst_gap:.3e}"
    report(11, f"sufficiency equality and generic monotonicity, 200 each (matched worst={abs(matched.worst_gap):.2e})")


# criterion 12's suite: both checks span several trial batches
DETERMINISM_SUITE = {
    "name": "determinism",
    "checks": [
        {
            "name": "chain",
            "target": "chain_rule",
            "divergence": {"family": "relative_entropy", "eta": 1.0},
            "trials": 400, "seed": 42, "sizes": {"E": 4, "F": 4},
            "tolerances": {"noise": 1e-9, "violation": 1e-4},
        },
        {
            "name": "pp2-acceptance",
            "target": "acceptance",
            "spec": {"family": "shortfall", "loss": {"kind": "power_plus", "p": 2}},
            "trials": 1500, "seed": 7, "sizes": {"E": 3, "F": 3},
            "must_pass": False,
        },
    ],
}


def test_criterion_12_report_determinism(tmp_path):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(DETERMINISM_SUITE))

    def run(hash_seed: str, out: str):
        # string hashes, and with them the iteration order of sets of
        # strings, vary with PYTHONHASHSEED; the report bytes must not
        return verify_bytes(path, tmp_path / out, hash_seed)

    first = run("0", "a.json")
    second = run("0", "b.json")
    rehashed = run("12345", "c.json")
    assert first == second, "same config and seed produced different bytes"
    assert first == rehashed, "PYTHONHASHSEED changed the report bytes"
    report(12, f"byte-identical reports across reruns and PYTHONHASHSEED 0 vs 12345 ({len(first)} bytes)")


def test_criterion_12_report_determinism_on_one_core(tmp_path):
    # every usable core runs a share of each check's trial batches; a run
    # pinned to one core runs them all in one process and must agree
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("os.sched_setaffinity is missing: a run cannot be pinned to one core")
    cores = sorted(os.sched_getaffinity(0))
    if len(cores) < 2:
        pytest.skip("only one core is usable, so every run is already a one-core run")
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(DETERMINISM_SUITE))
    workers = verify_bytes(path, tmp_path / "a.json", "0")
    pinned = verify_bytes(path, tmp_path / "b.json", "0", lambda: os.sched_setaffinity(0, {cores[0]}))
    assert workers == pinned, f"{len(cores)} workers and one core produced different bytes"
    report(12, f"byte-identical reports on {len(cores)} cores and pinned to one ({len(pinned)} bytes)")


def verify_bytes(config, out, hash_seed: str, preexec_fn=None) -> bytes:
    """The report of `divlab verify` on a suite file, run in a fresh process."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run(
        [sys.executable, "-m", "divlab.cli", "verify",
         "--config", str(config), "--no-timestamp", "--out", str(out)],
        capture_output=True, text=True, env=env, preexec_fn=preexec_fn,
    )
    assert proc.returncode == 0, proc.stderr
    return out.read_bytes()
