import csv
import io
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from divlab import cli, consistency, kinds, report
from divlab.consistency import SearchBudget, counterexample_search
from divlab.divergence import DivergenceSpec
from divlab.errors import ConfigParseError, PreconditionViolatedError, UnknownFamilyError
from divlab.kinds import CHECK_KINDS, BlockResult, CheckKind, resolve_divergence
from divlab.losses import LossFn, UtilityFn
from divlab.prob import FiniteDist, JointDist, Kernel, Partition, uniform
from divlab.report import (
    CSV_COLUMNS,
    CheckSpec,
    SuiteConfig,
    Tolerances,
    canonical_json,
    emit_report,
    report_document,
    reports_to_csv,
    run_check,
    run_suite,
    suite_failed,
)
from divlab.risk import RiskSpec


def fake_kind(side, gaps):
    """A registry entry around a fake function of a block's gaps, whose instances are plain dicts that no test replays."""

    class Fake(CheckKind):
        def trial(self, risk, div, budget, start, stop):
            gap = np.array(gaps(risk, div, budget, start, stop), dtype=float)
            return BlockResult(gap, np.zeros(gap.shape, bool), None, None, None)

    def serialize(result, b):
        return {"gap": float(result.gap[b])}

    def replay(risk, div, doc):
        raise AssertionError("a fake kind's instance is never replayed")

    return Fake(side, "risk", None, None, serialize, replay)


def entropic_check(name="tc", trials=100, seed=5, target="time_consistency"):
    return CheckSpec(
        name=name,
        target=target,
        budget=SearchBudget(trials=trials, seed=seed, max_e=3, max_f=3),
        risk=RiskSpec.entropic(1.0),
        tolerances=Tolerances(noise=1e-8, violation=1e-4),
    )


# the kinds whose samplers draw no keep mask, so that they refuse a nonzero sparsity
WITHOUT_SPARSITY = [
    "shift_convexity", "property_s", "mixture_convexity", "joint_convexity", "dist_concavity",
    "sufficiency_matched", "sufficiency_generic", "refinement", "lebesgue",
]


class TestCanonicalJson:
    def test_sorted_keys_and_17_digits(self):
        text = canonical_json({"b": 1.0 / 3.0, "a": 1})
        assert text == '{"a":1,"b":0.33333333333333331}'

    def test_float_round_trip(self):
        values = [1.0 / 3.0, 1e-300, 123456.789, 2.0**-52]
        parsed = json.loads(canonical_json(values))
        assert parsed == values

    def test_infinity_encoding(self):
        assert canonical_json([math.inf, -math.inf]) == '["inf","-inf"]'

    def test_nan_is_refused(self):
        from divlab.errors import IoError

        with pytest.raises(IoError):
            canonical_json({"x": math.nan})

    def test_nested_structures(self):
        doc = {"z": [1, {"y": True, "x": None}], "a": "text"}
        assert json.loads(canonical_json(doc)) == doc


class TestReports:
    def test_json_document_round_trip(self):
        reports = run_suite(SuiteConfig(checks=(entropic_check(),)))
        doc = json.loads(canonical_json(report_document(reports)))
        assert doc == {"schema_version": 1, "checks": [r.as_json() for r in reports]}

    def test_one_sided_report_ranks_by_badness(self):
        check = CheckSpec(
            name="wc",
            target="weak_consistency",
            budget=SearchBudget(trials=50, seed=3),
            divergence=DivergenceSpec.relative_entropy(1.0),
        )
        report = run_check(check)
        assert report.class_worst["general"][0] == -report.class_worst["general"][2]

    def test_nan_gap_fails_the_check(self, monkeypatch):
        # a NaN first gap once became the worst gap for good, since every
        # later `bad > nan` is false, and hid the -5 violation behind it
        gaps = [math.nan, 0.0, -5.0]

        def trials(risk, div, budget, start, stop):
            return gaps[start:stop]

        monkeypatch.setitem(CHECK_KINDS, "nan_probe", fake_kind("lower", trials))
        check = entropic_check(name="np", trials=3, target="nan_probe")
        report = run_check(check)
        assert (report.nan, report.worst_trial, report.worst_gap) == (1, 2, -5.0)
        assert report.verdict == "violation"
        doc = json.loads(canonical_json(report.as_json()))
        assert doc["nan"] == 1
        assert "nan" not in run_check(entropic_check()).as_json()

        only_nan = run_check(entropic_check(name="np", trials=1, target="nan_probe"))
        assert only_nan.worst_gap is None and only_nan.verdict == "violation"

        result = counterexample_search(check.risk, check.budget, "nan_probe")
        assert (result.nan, result.worst_trial, result.worst_gap) == (1, 2, -5.0)
        assert result.as_json()["nan"] == 1
        assert "nan" not in counterexample_search(check.risk, check.budget, "acceptance").as_json()

    def test_exhausted_solve_fails_the_check(self, monkeypatch):
        # a dual solve that ran out of iterations once passed on its small
        # certified gap, as if the solver had converged
        from divlab import kinds
        from divlab.divergence import DualSolveResult

        def exhausted_solve(spec, nu, mu):
            return DualSolveResult(
                value=0.0, maximizer=None, iterations=5000, budget_exhausted=True,
                closed_form=1e-12, certified_gap=1e-12,
            )

        check = entropic_check(name="dual", trials=3, target="duality")
        honest = run_check(check)
        assert honest.verdict == "pass" and honest.exhausted == 0
        assert "exhausted" not in honest.as_json()

        monkeypatch.setattr(kinds, "dual_divergence", exhausted_solve)
        report = run_check(check)
        assert (report.exhausted, report.worst_gap) == (3, 1e-12)
        assert report.verdict == "violation"
        doc = json.loads(canonical_json(report.as_json()))
        assert doc["exhausted"] == 3

        result = counterexample_search(check.risk, check.budget, "duality")
        assert result.exhausted == 3 and result.as_json()["exhausted"] == 3
        assert "exhausted" not in counterexample_search(check.risk, check.budget, "acceptance").as_json()

    def test_exhausted_lemma_solve_fails_the_check(self, monkeypatch):
        # lemma_identity once kept only the value of each per-row dual solve,
        # so a trial whose solver ran out of iterations could still pass
        from dataclasses import replace

        from divlab import kinds

        solve = kinds._dual_divergence_w

        def exhausted_solve(spec, nu_w, mu_w):
            return replace(solve(spec, nu_w, mu_w), budget_exhausted=True)

        check = entropic_check(name="lemma", trials=3, target="lemma_identity")
        honest = run_check(check)
        assert honest.verdict == "pass" and honest.exhausted == 0

        monkeypatch.setattr(kinds, "_dual_divergence_w", exhausted_solve)
        report = run_check(check)
        assert (report.exhausted, report.worst_gap) == (3, honest.worst_gap)
        assert report.verdict == "violation"

    def test_exhausted_dual_of_divergence_fails_the_check(self):
        # the dual solve of the expectation family's divergence never
        # converges off nu = mu; its last iterate once passed as alpha, and a
        # dpi check on it passed
        check = CheckSpec(
            name="dpi-dual",
            target="dpi",
            budget=SearchBudget(trials=2, seed=1),
            divergence=DivergenceSpec.dual_of(RiskSpec.expectation()),
        )
        report = run_check(check)
        assert report.verdict == "violation" and report.nan >= 1

    def test_csv_columns(self):
        reports = run_suite(SuiteConfig(checks=(entropic_check(),)))
        lines = reports_to_csv(reports).strip().split("\n")
        assert lines[0] == "name,trials,vacuous,worst_gap,verdict,seed"
        fields = lines[1].split(",")
        assert fields[0] == "tc"
        assert fields[1] == "100"
        assert fields[4] == "pass"
        assert fields[5] == "5"

    def test_csv_quotes_only_the_fields_that_need_it(self):
        # a name with a comma, a quote and a newline once split its row over
        # two lines and the wrong columns, and a bare carriage return made
        # csv.reader raise
        name = 'a,b"c\nd'
        checks = (entropic_check(name=name), entropic_check(name="a\rb"), entropic_check())
        reports = run_suite(SuiteConfig(checks=checks))
        text = reports_to_csv(reports)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == list(CSV_COLUMNS)
        assert [row[0] for row in rows[1:]] == [name, "a\rb", "tc"]
        assert all(len(row) == len(CSV_COLUMNS) for row in rows)
        assert text.splitlines()[-1].split(",")[0] == "tc"

    def test_violation_report_carries_instance(self):
        check = CheckSpec(
            name="pp2",
            target="acceptance",
            budget=SearchBudget(trials=2000, seed=7, max_e=3, max_f=3),
            risk=RiskSpec.from_json(
                {"family": "shortfall", "loss": {"kind": "power_plus", "p": 2}}
            ),
        )
        report = run_check(check)
        assert report.verdict == "violation"
        assert report.instance is not None
        assert "instance" in report.instance

    def test_pass_report_has_no_instance(self):
        report = run_check(entropic_check())
        assert report.verdict == "pass"
        assert report.instance is None

    def test_empty_suite(self):
        reports = run_suite(SuiteConfig(checks=()))
        assert reports == []
        assert not suite_failed(reports)

    def test_zero_trials_passes_vacuously(self):
        # a check that judged no trial has no evidence to pass on
        report = run_check(entropic_check(trials=0))
        assert report.verdict == "inconclusive" and report.worst_gap is None and report.instance is None
        assert not suite_failed([report])

    def test_inconclusive_band(self):
        # a violation of ~0.2 with a sky-high violation threshold lands in
        # the middle band
        check = CheckSpec(
            name="pp2",
            target="acceptance",
            budget=SearchBudget(trials=2000, seed=7, max_e=3, max_f=3),
            risk=RiskSpec.from_json(
                {"family": "shortfall", "loss": {"kind": "power_plus", "p": 2}}
            ),
            tolerances=Tolerances(noise=1e-8, violation=10.0),
        )
        assert run_check(check).verdict == "inconclusive"


class TestSuiteConfig:
    def test_parse_full_document(self):
        doc = {
            "name": "demo",
            "checks": [
                {
                    "name": "chain",
                    "target": "chain_rule",
                    "divergence": {"family": "relative_entropy", "eta": 1.0},
                    "trials": 10,
                    "seed": 1,
                    "sizes": {"E": 3, "F": 3},
                    "tolerances": {"noise": 1e-9, "violation": 1e-4},
                },
                {
                    "name": "acc",
                    "target": "acceptance",
                    "spec": {"family": "entropic", "eta": 1.0},
                    "trials": 10,
                    "seed": 42,
                    "sizes": {"E": 3, "F": 3},
                },
            ],
        }
        config = SuiteConfig.from_json(doc)
        assert len(config.checks) == 2
        assert config.checks[1].budget.seed == 42
        again = SuiteConfig.from_json(config.as_json())
        assert [c.as_json() for c in again.checks] == [c.as_json() for c in config.checks]

    @pytest.mark.parametrize("field, where", [
        ({"sparcity": 0.5}, "check 'acc'"),
        ({"sizes": {"E": 3, "G": 3}}, "check 'acc' sizes"),
        ({"tolerances": {"noise": 1e-9, "violaton": 1e-4}}, "check 'acc' tolerances"),
    ], ids=["top_level", "sizes", "tolerances"])
    def test_unknown_check_field_rejected(self, field, where):
        # a misspelled field once ran the check at the default it meant to change
        doc = {"name": "acc", "target": "acceptance", "spec": {"family": "entropic", "eta": 1.0},
               "trials": 10, "seed": 42, **field}
        with pytest.raises(ConfigParseError, match=f"^{where} has unknown field"):
            CheckSpec.from_json(doc)

    @pytest.mark.parametrize("field, message", [
        ({"must_pass": "false"}, "check 'acc' field 'must_pass' must be true or false"),
        ({"trials": 2.7}, "budget field 'trials' must be an integer"),
        ({"trials": True}, "budget field 'trials' must be an integer"),
        ({"sizes": {"E": math.inf}}, "budget field 'E' must be an integer"),
        ({"seed": 1.9}, "budget field 'seed' must be an integer"),
        ({"seed": -1}, "budget needs trials >= 0, seed >= 0"),
        ({"tolerances": {"noise": "x"}}, "tolerance 'noise' must be a number"),
        ({"sparsity": math.nan}, "budget field 'sparsity' must lie in [0, 1]"),
        ({"sparsity": -1}, "budget field 'sparsity' must lie in [0, 1]"),
        ({"sparsity": 1.5}, "budget field 'sparsity' must lie in [0, 1]"),
        ({"dirichlet_alpha": 2}, "check 'acc' has unknown field(s): 'dirichlet_alpha'"),
        ({"product_fraction": 0.5}, "check 'acc' has unknown field(s): 'product_fraction'"),
    ], ids=["must_pass_string", "trials_fraction", "trials_bool", "size_inf", "seed_fraction", "seed_negative",
            "noise_string", "sparsity_nan", "sparsity_negative", "sparsity_above_one",
            "dirichlet_alpha", "product_fraction"])
    def test_ill_valued_check_field_rejected(self, field, message):
        # each of these once parsed: coerced ("false" read as true, 2.7 as 2,
        # true as 1), kept out of range, escaping as a ValueError, or set as a
        # sampler knob that is now a constant
        doc = {"name": "acc", "target": "acceptance", "spec": {"family": "entropic", "eta": 1.0},
               "trials": 10, "seed": 42, **field}
        with pytest.raises(ConfigParseError) as err:
            CheckSpec.from_json(doc)
        assert str(err.value).startswith(message)

    def test_whole_numbers_fill_integer_and_number_fields(self):
        doc = {"name": "acc", "target": "acceptance", "spec": {"family": "entropic", "eta": 1.0},
               "trials": 10.0, "seed": 0, "sparsity": 1, "tolerances": {"noise": 0, "violation": 1},
               "must_pass": False}
        check = CheckSpec.from_json(doc)
        assert check.budget.trials == 10 and isinstance(check.budget.trials, int)
        assert (check.budget.sparsity, check.tolerances, check.must_pass) == (1.0, Tolerances(0.0, 1.0), False)

    @pytest.mark.parametrize("parse, doc, where", [
        (RiskSpec.from_json, {"family": "entropic", "eta": 1.0, "etta": 2}, "entropic risk spec"),
        (DivergenceSpec.from_json, {"family": "relative_entropy", "eta": 2.0, "etaa": 5},
         "relative_entropy divergence"),
        (LossFn.from_json, {"kind": "power_plus", "p": 2, "eta": 1.0}, "power_plus loss spec"),
        (UtilityFn.from_json, {"kind": "exp_shift", "p": 2}, "exp_shift utility spec"),
        (SuiteConfig.from_json, {"nmae": "demo", "checks": []}, "suite config"),
    ], ids=["risk", "divergence", "loss", "utility", "suite"])
    def test_unknown_spec_field_rejected(self, parse, doc, where):
        # these once parsed, with the misspelled field dropped
        with pytest.raises(ConfigParseError, match=f"^{where} has unknown field"):
            parse(doc)

    def test_every_spec_document_round_trips(self):
        table = ([-1.0, 0.0, 1.0], [0.5, 1.0, 2.0])
        utility_table = ([-1.0, 0.0, 1.0], [-1.0, 0.0, 2.0])
        losses = [LossFn.exponential(2.0), LossFn.power_plus(3.0), LossFn.custom(*table)]
        utilities = [UtilityFn.exp_shift(), UtilityFn.identity(), UtilityFn.hinge_power(2.0),
                     UtilityFn.custom(*utility_table)]
        risks = [RiskSpec.entropic(1.0), RiskSpec.expectation(), RiskSpec.esssup(),
                 RiskSpec.coherent([[1.0, 1.0]], uniform(["a", "b"])),
                 *map(RiskSpec.shortfall, losses), *map(RiskSpec.oce, utilities)]
        divergences = [DivergenceSpec.relative_entropy(2.0), DivergenceSpec.equality_indicator(),
                       DivergenceSpec.support_indicator(), DivergenceSpec.dual_of(RiskSpec.entropic(1.0)),
                       *map(DivergenceSpec.shortfall_div, losses), *map(DivergenceSpec.phi_star, utilities)]
        for cls, specs in [(LossFn, losses), (UtilityFn, utilities), (RiskSpec, risks),
                           (DivergenceSpec, divergences)]:
            for spec in specs:
                assert cls.from_json(spec.as_json()).as_json() == spec.as_json()
        config = SuiteConfig(checks=(entropic_check("x"),), name="demo")
        assert SuiteConfig.from_json(config.as_json()).as_json() == config.as_json()

    @pytest.mark.parametrize("checks", [5, [5], [{"name": "a"}, "b"]], ids=["not_a_list", "number", "string"])
    def test_checks_must_be_a_list_of_objects(self, checks):
        with pytest.raises(ConfigParseError, match="'checks' must be a list of check objects"):
            SuiteConfig.from_json({"checks": checks})

    @pytest.mark.parametrize("target, sizes", [
        ("shift_convexity", {"E": 45, "F": 3}),
        ("shift_convexity", {"E": 3, "F": 42}),
        ("property_s", {"E": 3, "F": 45}),
        ("mixture_convexity", {"E": 3, "F": 45}),
        ("dist_concavity", {"E": 45, "F": 3}),
    ])
    def test_sizes_beyond_the_value_grid_are_refused(self, target, sizes):
        # these kinds draw laws on distinct values of the 41-point grid; such
        # sizes once crashed the sampler with a ValueError at run time
        doc = {"name": "g", "target": target, "spec": {"family": "entropic", "eta": 1.0}, "sizes": sizes}
        with pytest.raises(ConfigParseError, match=r"^check 'g' draws .* must be at most 41, got 4[25]$"):
            CheckSpec.from_json(doc)
        budget = SearchBudget.from_json({"trials": 1, "sizes": sizes})
        with pytest.raises(ConfigParseError, match=f"^target '{target}' draws"):
            counterexample_search(RiskSpec.entropic(1.0), budget, target)

    @pytest.mark.parametrize("target, sizes", [
        ("shift_convexity", {"E": 41, "F": 41}),
        ("property_s", {"E": 45, "F": 41}),
        ("mixture_convexity", {"E": 45, "F": 41}),
        ("dist_concavity", {"E": 41, "F": 45}),
    ])
    def test_sizes_up_to_the_value_grid_run(self, target, sizes):
        # a size the kind's sampler does not draw distinct values for is not limited
        doc = {"name": "g", "target": target, "spec": {"family": "entropic", "eta": 1.0}, "sizes": sizes,
               "trials": 2}
        assert run_check(CheckSpec.from_json(doc)).trials == 2

    @pytest.mark.parametrize("target", ["lemma_identity", "key_identity"])
    @pytest.mark.parametrize("sizes", [{"E": 12, "F": 3}, {"E": 3, "F": 5}])
    def test_sizes_beyond_the_grid_oracle_are_refused(self, target, sizes):
        # these kinds' sampler capped every instance at 4 x 4 atoms, so a
        # check at sizes 12 once ran 4 x 4 instances under a report saying 12
        doc = {"name": "o", "target": target, "spec": {"family": "entropic", "eta": 1.0}, "sizes": sizes}
        with pytest.raises(ConfigParseError, match=r"^check 'o' is checked against the 4-atom grid oracle: .* at most 4, got (12|5)$"):
            CheckSpec.from_json(doc)
        budget = SearchBudget.from_json({"trials": 1, "sizes": sizes})
        with pytest.raises(ConfigParseError, match=f"^target '{target}' is checked against the 4-atom grid oracle"):
            counterexample_search(RiskSpec.entropic(1.0), budget, target)

    @pytest.mark.parametrize("target", ["lemma_identity", "key_identity"])
    def test_sizes_up_to_the_grid_oracle_run(self, target):
        doc = {"name": "o", "target": target, "spec": {"family": "entropic", "eta": 1.0}, "sizes": {"E": 4, "F": 4},
               "trials": 2}
        assert run_check(CheckSpec.from_json(doc)).trials == 2

    def test_nine_kinds_draw_no_sparse_laws(self):
        assert sorted(k for k, entry in CHECK_KINDS.items() if not entry.sparse) == sorted(WITHOUT_SPARSITY)

    @pytest.mark.parametrize("target", WITHOUT_SPARSITY)
    def test_a_sparsity_the_kind_ignores_is_refused(self, target):
        # these kinds draw no keep mask, so a check at sparsity 0.5 once ran
        # the instances of sparsity 0 under a config that said otherwise
        doc = {"name": "s", "target": target, "spec": {"family": "entropic", "eta": 1.0}, "sparsity": 0.5}
        with pytest.raises(ConfigParseError, match=r"^check 's' draws no sparse laws: sparsity must be 0, got 0.5$"):
            CheckSpec.from_json(doc)
        budget = SearchBudget(trials=40, seed=3, max_e=4, max_f=4, sparsity=0.5)
        risk = RiskSpec.entropic(1.0)
        with pytest.raises(ConfigParseError, match=f"^target '{target}' draws no sparse laws"):
            counterexample_search(risk, budget, target)
        assert CheckSpec.from_json({**doc, "sparsity": 0.0}).budget.sparsity == 0.0
        # the refused value was ignored: the trials are the same at sparsity 0
        div = resolve_divergence(target, risk, None)
        dense = replace(budget, sparsity=0.0)
        assert consistency.run_trials(target, risk, div, budget, 0, 40) == consistency.run_trials(
            target, risk, div, dense, 0, 40
        )

    @pytest.mark.parametrize("tolerances", [
        {"noise": 0.0, "violation": math.inf},
        {"noise": math.inf, "violation": math.inf},
    ], ids=["violation", "both"])
    def test_infinite_tolerances_are_refused(self, tolerances):
        # an infinite violation tolerance once turned every violation into a pass
        # or "inconclusive"; JSON's 1e999 reads as inf
        with pytest.raises(ConfigParseError):
            Tolerances(**tolerances)
        doc = json.loads(json.dumps(tolerances).replace("Infinity", "1e999"))
        with pytest.raises(ConfigParseError):
            Tolerances.from_json(doc)

    @pytest.mark.parametrize("cls", [
        FiniteDist, Kernel, JointDist, Partition, RiskSpec, DivergenceSpec, LossFn, UtilityFn,
    ], ids=lambda cls: cls.__name__)
    @pytest.mark.parametrize("doc", [[1], {}], ids=["list", "empty"])
    def test_malformed_documents_are_refused(self, cls, doc):
        # a document that is not an object, or lacks a field, once escaped as
        # a KeyError, TypeError or AttributeError
        with pytest.raises(ConfigParseError):
            cls.from_json(doc)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigParseError):
            SuiteConfig(checks=(entropic_check("x"), entropic_check("x")))

    def test_unknown_target_rejected(self):
        with pytest.raises(UnknownFamilyError):
            CheckSpec(
                name="x",
                target="nonsense",
                budget=SearchBudget(trials=1, seed=0),
                risk=RiskSpec.entropic(1.0),
            )

    def test_unknown_family_rejected(self):
        with pytest.raises(UnknownFamilyError):
            RiskSpec.from_json({"family": "martingale"})

    def test_missing_spec_rejected(self):
        with pytest.raises(ConfigParseError):
            CheckSpec(
                name="x",
                target="acceptance",
                budget=SearchBudget(trials=1, seed=0),
            )

    def test_divergence_derived_from_risk(self):
        check = CheckSpec(
            name="cr",
            target="chain_rule",
            budget=SearchBudget(trials=1, seed=0),
            risk=RiskSpec.entropic(2.0),
        )
        derived = resolve_divergence(check.target, check.risk, check.divergence)
        assert derived.family == "relative_entropy" and derived.eta == 2.0


# a check whose worst gap, -0.224, is a violation at the default tolerances
PP2_601 = {"name": "pp2", "target": "acceptance", "trials": 300, "seed": 601,
           "spec": {"family": "shortfall", "loss": {"kind": "power_plus", "p": 2}}}


def run_cli(*args, stdin=None, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "divlab.cli", *args],
        capture_output=True,
        text=True,
        input=stdin,
        env=full_env,
    )


class TestCli:
    def test_risk_command(self):
        out = run_cli(
            "risk",
            "--spec", '{"family":"entropic","eta":1.0}',
            "--law", '{"atoms":[0.0,1.0],"weights":[0.5,0.5]}',
        )
        assert out.returncode == 0
        assert json.loads(out.stdout)["value"] == pytest.approx(
            math.log((1 + math.e) / 2), abs=1e-12
        )

    def test_oce_identity_risk_is_the_mean(self):
        # the objective is flat in the shift: every shift minimizes it
        out = run_cli(
            "risk",
            "--spec", '{"family":"oce","utility":{"kind":"identity"}}',
            "--law", '{"atoms":[0.0,1.0],"weights":[0.5,0.5]}',
        )
        assert out.returncode == 0, out.stderr
        assert abs(json.loads(out.stdout)["value"] - 0.5) <= 1e-12

    def test_div_command(self):
        out = run_cli(
            "div",
            "--divergence", '{"family":"relative_entropy","eta":1.0}',
            "--nu", '{"atoms":["a","b"],"weights":[1.0,0.0]}',
            "--mu", '{"atoms":["a","b"],"weights":[0.5,0.5]}',
        )
        assert json.loads(out.stdout)["value"] == pytest.approx(math.log(2), abs=1e-12)

    def test_div_command_reports_inf(self):
        out = run_cli(
            "div",
            "--divergence", '{"family":"relative_entropy","eta":1.0}',
            "--nu", '{"atoms":["a","b"],"weights":[0.5,0.5]}',
            "--mu", '{"atoms":["a","b"],"weights":[1.0,0.0]}',
        )
        assert json.loads(out.stdout)["value"] == "inf"

    def test_div_command_refuses_an_exhausted_dual_solve(self):
        out = run_cli(
            "div",
            "--divergence", '{"family":"dual_of","spec":{"family":"expectation"}}',
            "--nu", '{"atoms":["a","b"],"weights":[0.3,0.7]}',
            "--mu", '{"atoms":["a","b"],"weights":[0.5,0.5]}',
        )
        assert out.returncode == 2 and "iteration budget" in out.stderr

    @pytest.mark.parametrize("atoms, weights", [(["a", "b", "c"], [0.5, 0.5, 0.0]), (["a", "b"], [0.5, 0.5])])
    def test_div_command_dual_of_coherent(self, atoms, weights):
        # the densities once kept the mu-null atom c that the weights drop
        densities = [[2, 0, 0], [0, 2, 5]] if len(atoms) == 3 else [[2, 0], [0, 2]]
        law = json.dumps({"atoms": atoms, "weights": weights})
        out = run_cli(
            "div",
            "--divergence", json.dumps({"family": "dual_of", "spec": {"family": "coherent", "densities": densities}}),
            "--nu", law,
            "--mu", law,
        )
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["value"] == 0

    def test_vacuous_trials_count_no_exhausted_solve(self):
        # every expectation-family lemma_identity trial is vacuous, and its
        # row solves run out; lemma_identity once counted them as exhausted
        # and failed where duality passes the same laws
        checks = [
            {"name": kind, "target": kind, "spec": {"family": "expectation"}, "trials": 5, "seed": 1}
            for kind in ("lemma_identity", "duality")
        ]
        out = run_cli("verify", "--no-timestamp", "--config", json.dumps({"checks": checks}))
        assert out.returncode == 0, out.stdout
        for check in json.loads(out.stdout)["checks"]:
            # all vacuous, so nothing was judged: inconclusive, with status 0
            assert (check["vacuous"], check["verdict"], "exhausted" in check) == (5, "inconclusive", False)

    def test_duality_solves_no_pair_whose_closed_form_is_infinite(self, monkeypatch, capsys):
        # the expectation family's closed form is the equality indicator, +inf
        # wherever nu != mu: duality once ran each such pair's dual ascent to
        # its 5,000-iteration budget, only to count the trial vacuous
        solve, calls = kinds.dual_divergence, []

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(kinds, "dual_divergence", counted)
        argv = ["search", "--spec", '{"family":"expectation"}', "--target", "duality", "--trials", "10", "--seed", "11"]
        assert cli.main(argv) == 0
        # the output of the version that solved every pair
        assert capsys.readouterr().out == (
            '{"class_worst":null,"seed":11,"target":"duality","trials":10,"vacuous":10,'
            '"worst_gap":null,"worst_instance":null,"worst_trial":null}\n'
        )
        assert calls == []
        # a family whose closed form is finite on nu << mu still solves each
        # pair once, and the worst one again when the search describes it
        assert cli.main([*argv[:2], '{"family":"entropic","eta":1.0}', *argv[3:]]) == 0
        assert len(calls) == 11 and json.loads(capsys.readouterr().out)["vacuous"] == 0

    def test_an_all_vacuous_check_is_inconclusive(self):
        # at sparsity 0.5 and sizes 12 every chain_rule instance of this
        # family has +inf on both sides, so no trial is judged
        check = {
            "name": "chain",
            "target": "chain_rule",
            "spec": {"family": "shortfall", "loss": {"kind": "power_plus", "p": 2}},
            "trials": 300,
            "seed": 1,
            "sizes": {"E": 12, "F": 12},
            "sparsity": 0.5,
        }
        out = run_cli("verify", "--no-timestamp", "--config", json.dumps({"checks": [check]}))
        assert out.returncode == 0, out.stderr
        assert '"vacuous":300,"verdict":"inconclusive"' in out.stdout
        (report,) = json.loads(out.stdout)["checks"]
        assert (report["worst_gap"], report["worst_trial"], "instance" in report) == (None, None, False)

    def test_conditional_command(self):
        out = run_cli(
            "conditional",
            "--spec", '{"family":"esssup"}',
            "--mu", '{"atoms":["a","b","c","d"],"weights":[0.25,0.25,0.25,0.25]}',
            "--values", "[0,1,2,3]",
            "--partition", '{"blocks":[["a","b"],["c","d"]]}',
        )
        doc = json.loads(out.stdout)
        assert [b["value"] for b in doc["blocks"]] == [1.0, 3.0]

    def test_stdin_input(self):
        out = run_cli(
            "risk",
            "--spec", "-",
            "--law", '{"atoms":[2.5],"weights":[1.0]}',
            stdin='{"family":"expectation"}',
        )
        assert json.loads(out.stdout)["value"] == 2.5

    def test_malformed_config_exits_2(self):
        out = run_cli("risk", "--spec", '{"family":"entropic"}', "--law", '{"atoms":[0],"weights":[1]}')
        assert out.returncode == 2
        assert "error:" in out.stderr

    @pytest.mark.parametrize("field", [{"trials": "many"}, {"sizes": None}], ids=["trials", "sizes"])
    def test_ill_typed_check_field_exits_2(self, field):
        # these once escaped as a ValueError or AttributeError traceback with status 1
        check = {"name": "a", "target": "acceptance", "spec": {"family": "entropic", "eta": 1.0}, **field}
        out = run_cli("verify", "--config", json.dumps({"checks": [check]}))
        assert out.returncode == 2
        assert out.stderr.startswith("error: budget field") and "Traceback" not in out.stderr

    def test_oversized_grid_kind_exits_2(self):
        # this once ran into the sampler's ValueError: status 1, the status of a violation
        check = {"name": "a", "target": "shift_convexity", "spec": {"family": "entropic", "eta": 1.0},
                 "trials": 5, "sizes": {"E": 45, "F": 45}}
        out = run_cli("verify", "--config", json.dumps({"checks": [check]}))
        assert out.returncode == 2
        assert out.stderr.startswith("error: check 'a' draws") and "41" in out.stderr

    def test_oversized_oracle_kind_exits_2(self):
        out = run_cli("search", "--target", "key_identity", "--spec", '{"family":"entropic","eta":1.0}',
                      "--size-e", "12", "--trials", "5")
        assert out.returncode == 2
        assert out.stderr.startswith("error: target 'key_identity' is checked against the 4-atom grid oracle")

    @pytest.mark.parametrize("field", [{"must_pass": "false"}, {"tolerances": {"noise": "x"}}],
                             ids=["must_pass", "tolerances"])
    def test_ill_typed_check_option_exits_2(self, field):
        # the first once ran as must_pass true; the second escaped as a ValueError with status 1
        check = {"name": "a", "target": "acceptance", "spec": {"family": "entropic", "eta": 1.0},
                 "trials": 5, **field}
        out = run_cli("verify", "--config", json.dumps({"checks": [check]}))
        assert out.returncode == 2
        assert out.stderr.startswith("error: ") and "Traceback" not in out.stderr

    def test_search_command(self, tmp_path):
        out_path = tmp_path / "search.json"
        out = run_cli(
            "search",
            "--spec", '{"family":"shortfall","loss":{"kind":"power_plus","p":2}}',
            "--target", "acceptance",
            "--trials", "2000",
            "--seed", "7",
            "--out", str(out_path),
        )
        assert out.returncode == 0
        doc = json.loads(out_path.read_text())
        assert doc["worst_gap"] < -1e-4
        assert doc["worst_instance"]["trial"] == doc["worst_trial"]

    def test_verify_exit_codes_and_overrides(self, tmp_path):
        config = {
            "checks": [
                {
                    "name": "acc",
                    "target": "acceptance",
                    "spec": {"family": "entropic", "eta": 1.0},
                    "trials": 200,
                    "seed": 0,
                    "sizes": {"E": 3, "F": 3},
                }
            ]
        }
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(config))
        clean = run_cli("verify", "--config", str(path), "--no-timestamp", "--out", str(tmp_path / "a.json"))
        assert clean.returncode == 0
        # a hostile loss and an override that enlarges the hunt both matter:
        # swap the spec via a second config and confirm the exit contract
        config["checks"][0] = {
            "name": "pp2",
            "target": "acceptance",
            "spec": {"family": "shortfall", "loss": {"kind": "power_plus", "p": 2}},
            "trials": 50,
            "seed": 7,
            "sizes": {"E": 3, "F": 3},
        }
        path.write_text(json.dumps(config))
        hot = run_cli(
            "verify", "--config", str(path), "--no-timestamp",
            "--trials", "2000",
            "--out", str(tmp_path / "b.json"),
        )
        assert hot.returncode == 1
        doc = json.loads((tmp_path / "b.json").read_text())
        assert doc["checks"][0]["trials"] == 2000

    def test_verify_csv_output(self, tmp_path):
        config = {"checks": [{"name": "tc", "target": "time_consistency",
                              "spec": {"family": "entropic", "eta": 1.0},
                              "trials": 50, "seed": 3, "sizes": {"E": 3, "F": 3}}]}
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(config))
        out = run_cli("verify", "--config", str(path), "--format", "csv", "--no-timestamp")
        lines = out.stdout.strip().split("\n")
        assert lines[0] == "name,trials,vacuous,worst_gap,verdict,seed"
        assert lines[1].startswith("tc,50,0,")

    def test_sweep_command(self, tmp_path):
        check = {"name": "tc", "target": "time_consistency",
                 "spec": {"family": "entropic", "eta": 1.0},
                 "trials": 30, "seed": 3, "sizes": {"E": 3, "F": 3}}
        path = tmp_path / "check.json"
        path.write_text(json.dumps(check))
        out = run_cli("sweep", "--config", str(path), "--param", "spec.eta", "--values", "0.5,2")
        lines = out.stdout.strip().split("\n")
        assert lines[0] == "parameter,worst_gap,verdict,nan,exhausted"
        assert len(lines) == 3
        for line, eta in zip(lines[1:], ("0.5", "2")):
            value, gap, verdict, nan, exhausted = line.split(",")
            assert (value, verdict, nan, exhausted) == (eta, "pass", "0", "0")
            float(gap)

    def test_sweep_shows_nan_and_exhausted_values(self, monkeypatch, capsys):
        # the sweep once printed only "parameter,worst_gap": a value whose
        # trials gave NaN gaps printed a plain gap, as if it had passed
        def trials(risk, div, budget, start, stop):
            return [math.nan if k == 1 else 0.5 for k in range(start, stop)]

        monkeypatch.setitem(CHECK_KINDS, "nan_probe", fake_kind("lower", trials))
        check = {"name": "np", "target": "nan_probe", "spec": {"family": "entropic", "eta": 1.0}, "trials": 5}
        assert cli.main(["sweep", "--config", json.dumps(check), "--param", "trials", "--values", "1,3"]) == 0
        assert capsys.readouterr().out == (
            "parameter,worst_gap,verdict,nan,exhausted\n1,0.5,pass,0,0\n3,0.5,violation,1,0\n"
        )

    def test_sweep_over_an_integer_field(self, tmp_path):
        # sweep values arrive as floats; an integral one is a valid integer field
        path = tmp_path / "check.json"
        path.write_text(json.dumps({"name": "tc", "target": "time_consistency",
                                    "spec": {"family": "entropic", "eta": 1.0}, "trials": 5}))
        out = run_cli("sweep", "--config", str(path), "--param", "trials", "--values", "20,30")
        assert out.returncode == 0, out.stderr
        assert [line.split(",")[0] for line in out.stdout.strip().split("\n")] == ["parameter", "20", "30"]

    @pytest.mark.parametrize("args", [
        ("--config", '{"checks":[5]}'),
        ("--tol-noise", "1e-9", "--config", json.dumps({"checks": [{
            "name": "a", "target": "acceptance", "spec": {"family": "entropic", "eta": 1.0},
            "trials": 5, "tolerances": None}]})),
        ("--tol-noise", "1", "--config", json.dumps({"checks": [{
            "name": "a", "target": "acceptance", "spec": {"family": "entropic", "eta": 1.0},
            "trials": 5}]})),
        ("--tol-noise", "inf", "--tol-violation", "inf", "--config", json.dumps({"checks": [PP2_601]})),
        ("--tol-violation", "inf", "--config", json.dumps({"checks": [PP2_601]})),
    ], ids=["check_not_an_object", "null_tolerances", "override_breaks_tolerances", "infinite_tolerances",
            "infinite_violation_tolerance"])
    def test_verify_parses_before_it_overrides(self, args):
        # the first two once escaped as an AttributeError or TypeError with status 1;
        # an override is checked like the field it replaces (noise 1 > violation 1e-4);
        # the infinite tolerances once reported PP2_601's worst gap of -0.224 as
        # "pass" or "inconclusive", with status 0
        out = run_cli("verify", *args)
        assert out.returncode == 2
        assert out.stderr.startswith("error: ") and "Traceback" not in out.stderr

    @pytest.mark.parametrize("args", [
        ("risk", "--spec", '{"family":"entropic","eta":1.0}', "--law", '{"weights":[0.5,0.5]}'),
        ("risk", "--spec", "[1]", "--law", '{"atoms":[0.0,1.0],"weights":[0.5,0.5]}'),
        ("div", "--divergence", '{"family":"shortfall_div","loss":[1]}',
         "--nu", '{"atoms":["a"],"weights":[1.0]}', "--mu", '{"atoms":["a"],"weights":[1.0]}'),
        ("conditional", "--spec", '{"family":"entropic","eta":1.0}',
         "--mu", '{"atoms":["a","b"],"weights":[0.5,0.5]}', "--values", '{"x":1}',
         "--partition", '{"blocks":[["a","b"]]}'),
        ("conditional", "--spec", '{"family":"entropic","eta":1.0}',
         "--mu", '{"atoms":["a","b"],"weights":[0.5,0.5]}', "--values", '[0,"1"]',
         "--partition", '{"blocks":[["a","b"]]}'),
        ("conditional", "--spec", '{"family":"entropic","eta":1.0}',
         "--mu", '{"atoms":["a","b"],"weights":[0.5,0.5]}', "--values", "[0,1]",
         "--partition", '[["a","b"]]'),
        ("verify", "--config", '{"checks":[{"name":"c","target":"time_consistency","trials":5,'
         '"spec":{"family":"coherent","densities":[[1.0]],"reference":[1]}}]}'),
        ("risk", "--spec", '{"family":"entropic","eta":"x"}', "--law", '{"atoms":[0.0,1.0],"weights":[0.5,0.5]}'),
        ("risk", "--spec", '{"family":"entropic","eta":1.0}', "--law", '{"atoms":5,"weights":[1.0]}'),
        ("risk", "--spec", '{"family":"entropic","eta":1.0}', "--law", '{"atoms":[0.0],"weights":["a"]}'),
        ("conditional", "--spec", '{"family":"entropic","eta":1.0}',
         "--mu", '{"atoms":["a","b"],"weights":[0.5,0.5]}', "--values", "[0,1]",
         "--partition", '{"blocks":5}'),
        ("risk", "--spec", '{"family":"shortfall","loss":{"kind":"power_plus","p":"2"}}',
         "--law", '{"atoms":[0.0,1.0],"weights":[0.5,0.5]}'),
        ("conditional", "--spec", '{"family":"entropic","eta":1.0}',
         "--mu", '{"atoms":["a","b"],"weights":[0.5,0.5]}', "--values", "[0,1]",
         "--partition", '{"blocks":"ab"}'),
    ], ids=["law_without_atoms", "spec_not_an_object", "loss_not_an_object", "values_an_object",
            "values_with_a_string", "partition_not_an_object", "reference_not_an_object",
            "eta_a_string", "atoms_a_number", "weights_with_a_string", "blocks_a_number",
            "p_a_string", "blocks_a_string"])
    def test_malformed_documents_exit_2(self, args, capsys):
        # these once escaped as a KeyError, AttributeError, ValueError or
        # TypeError with status 1, the status of a violation; the string "1"
        # ran as the value 1, "p": "2" as p = 2 and "blocks": "ab" as the
        # blocks ["a"] and ["b"]
        assert cli.main(list(args)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    @pytest.mark.parametrize("target, sizes", [
        ("acceptance", {"E": 1, "F": 3}),
        ("chain_rule", {"E": 3, "F": 1}),
        ("dpi", {"E": 1, "F": 1}),
    ])
    def test_a_size_below_2_exits_2(self, target, sizes):
        # every sampler draws at least 2 atoms a side: a size of 1 once
        # escaped as numpy's "low >= high" with status 1, the status of a violation
        check = {"name": "a", "target": target, "trials": 5, "sizes": sizes,
                 "spec": {"family": "entropic", "eta": 1.0}}
        out = run_cli("verify", "--config", json.dumps({"checks": [check]}))
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr == "error: budget needs trials >= 0, seed >= 0 and sizes of at least 2\n"

    def test_sweep_refuses_a_size_below_2(self, tmp_path):
        path = tmp_path / "check.json"
        path.write_text(json.dumps({"name": "tc", "target": "time_consistency", "trials": 5,
                                    "spec": {"family": "entropic", "eta": 1.0}, "sizes": {"E": 3, "F": 3}}))
        out = run_cli("sweep", "--config", str(path), "--param", "sizes.E", "--values", "2,1")
        assert out.returncode == 2 and out.stdout == ""
        assert "sizes of at least 2" in out.stderr

    def test_sweep_refuses_a_value_that_is_not_a_number(self, tmp_path):
        path = tmp_path / "check.json"
        path.write_text(json.dumps({"name": "tc", "target": "time_consistency",
                                    "spec": {"family": "entropic", "eta": 1.0}, "trials": 5}))
        out = run_cli("sweep", "--config", str(path), "--param", "trials", "--values", "10,abc")
        assert out.returncode == 2
        assert out.stderr == "error: sweep value 'abc' is not a number\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_sweep_refuses_a_value_that_is_not_finite(self, tmp_path, value):
        # a NaN eta once passed the spec's eta > 0 test and swept as a row "nan,,violation,5,0"
        path = tmp_path / "check.json"
        path.write_text(json.dumps({"name": "tc", "target": "time_consistency",
                                    "spec": {"family": "entropic", "eta": 1.0}, "trials": 5}))
        out = run_cli("sweep", "--config", str(path), "--param", "spec.eta", "--values", "1," + value)
        assert out.returncode == 2
        assert out.stderr == f"error: sweep value {value!r} is not a finite number\n"
        assert out.stdout == ""

    @pytest.mark.parametrize("args", [
        ("risk", "--spec", '{"family":"shortfall","loss":{"kind":"power_plus","p":2}}',
         "--law", '{"atoms":[Infinity,1.0],"weights":[0.5,0.5]}'),
        ("risk", "--spec", '{"family":"entropic","eta":1.0}',
         "--law", '{"atoms":[-Infinity,1.0],"weights":[0.5,0.5]}'),
        ("risk", "--spec", '{"family":"oce","utility":{"kind":"exp_shift"}}',
         "--law", '{"atoms":[NaN,1.0],"weights":[0.5,0.5]}'),
        ("div", "--divergence", '{"family":"relative_entropy","eta":1.0}',
         "--nu", '{"atoms":["a","b"],"weights":[NaN,0.25]}',
         "--mu", '{"atoms":["a","b"],"weights":[0.5,0.5]}'),
        ("conditional", "--spec", '{"family":"entropic","eta":1.0}',
         "--mu", '{"atoms":["a","b"],"weights":[0.5,0.5]}', "--values", "[Infinity,2.0]",
         "--partition", '{"blocks":[["a"],["b"]]}'),
        ("verify", "--config", '{"checks":[{"name":"a","target":"acceptance",'
         '"spec":{"family":"entropic","eta":NaN},"trials":5}]}'),
    ], ids=["risk-shortfall", "risk-entropic", "risk-oce", "div", "conditional", "verify"])
    def test_non_standard_json_constants_exit_2(self, args):
        # json reads NaN and +/-Infinity; the shortfall risk once printed "inf"
        # with status 0, and verify ran 5 NaN trials and exited 1
        out = run_cli(*args)
        assert out.returncode == 2, out.stdout
        assert out.stderr.startswith("error: cannot read JSON from") and "is not a JSON number" in out.stderr

    @pytest.mark.parametrize("args", [
        ("risk", "--spec", '{"family":"entropic","eta":1.0}',
         "--law", '{"atoms":[0.0,1.0],"weights":[0.5,0.5]}'),
        ("div", "--divergence", '{"family":"relative_entropy","eta":1.0}',
         "--nu", '{"atoms":["a","b"],"weights":[0.75,0.25]}',
         "--mu", '{"atoms":["a","b"],"weights":[0.5,0.5]}'),
        ("conditional", "--spec", '{"family":"entropic","eta":1.0}',
         "--mu", '{"atoms":["a","b"],"weights":[0.5,0.5]}', "--values", "[1.0,2.0]",
         "--partition", '{"blocks":[["a"],["b"]]}'),
        ("verify", "--config", '{"checks":[]}'),
        ("search", "--spec", '{"family":"entropic","eta":1.0}', "--target", "acceptance",
         "--trials", "2"),
        ("sweep", "--config", '{"name":"tc","target":"time_consistency",'
         '"spec":{"family":"entropic","eta":1.0},"trials":2}', "--param", "trials", "--values", "3"),
    ], ids=lambda args: args[0])
    def test_unwritable_out_exits_2(self, args, tmp_path):
        # five of these once escaped as a FileNotFoundError with status 1
        target = tmp_path / "missing" / "x.json"
        out = run_cli(*args, "--out", str(target))
        assert out.returncode == 2
        assert out.stderr.startswith(f"error: cannot write to {str(target)!r}")


def _gap_probe(risk, div, budget, start, stop):
    """Gaps that depend only on the trial: NaN on every 37th."""
    return [math.nan if k % 37 == 5 else 1e-3 * (k % 11) for k in range(start, stop)]


def _refusing_probe(error, first=100):
    """A kind that raises error(message) from trial ``first`` on, naming the first trial of its block it refuses."""

    def trials(risk, div, budget, start, stop):
        refused = max(start, first)
        if refused < stop:
            raise error(f"trial {refused} refused")
        return [0.0] * (stop - start)

    return fake_kind("abs", trials)


@contextmanager
def _deadline(seconds):
    """Fail with TimeoutError, instead of hanging, if the block runs longer than ``seconds``."""

    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestParallelRuns:
    """run_suite, search and sweep spread a check's trial batches over a process pool."""

    @pytest.fixture
    def pools(self, monkeypatch):
        """The pool (or None) that each run of run_suite, search and sweep opened."""
        opened = []
        open_pool = consistency._trial_pool

        @contextmanager
        def recording(budgets):
            with open_pool(budgets) as pool:
                opened.append(pool)
                yield pool

        for module in (consistency, report, cli):
            monkeypatch.setattr(module, "_trial_pool", recording)
        return opened

    @staticmethod
    def needs_pool():
        if consistency._usable_cores() < 2 or "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("a pool needs two usable cores and the fork start method")
        if threading.active_count() > 1:
            pytest.skip("a pool opens only in a process without other threads")

    @staticmethod
    def pool_off(monkeypatch):
        monkeypatch.setattr(consistency, "_usable_cores", lambda: 1)

    def suite(self, monkeypatch) -> SuiteConfig:
        monkeypatch.setitem(CHECK_KINDS, "nan_probe", fake_kind("lower", _gap_probe))
        sparse = dict(seed=1, max_e=3, max_f=3, sparsity=0.5)
        return SuiteConfig(checks=(
            CheckSpec(name="chain", target="chain_rule", budget=SearchBudget(trials=250, **sparse),
                      divergence=DivergenceSpec.relative_entropy(1.0)),
            CheckSpec(name="pp2", target="acceptance", budget=SearchBudget(trials=250, **sparse),
                      risk=RiskSpec.shortfall(LossFn.power_plus(2.0)), must_pass=False),
            CheckSpec(name="probe", target="nan_probe", budget=SearchBudget(trials=230, seed=3),
                      risk=RiskSpec.entropic(1.0)),
            CheckSpec(name="small", target="time_consistency", budget=SearchBudget(trials=40, seed=2),
                      risk=RiskSpec.entropic(1.0)),
        ))

    def test_pool_and_one_process_emit_the_same_bytes(self, monkeypatch, pools):
        self.needs_pool()
        config = self.suite(monkeypatch)
        parallel = emit_report(run_suite(config), "json", "-")
        self.pool_off(monkeypatch)
        serial = run_suite(config)
        assert pools[0] is not None and pools[1] is None
        assert emit_report(serial, "json", "-") == parallel
        chain, pp2, probe, small = serial
        # on two cores each check is two spans: the pp2 violation, trial
        # 116, sits in the first of [0, 125) and [125, 250), and both spans
        # of the probe, [0, 115) and [115, 230), hold NaN gaps
        assert (pp2.verdict, pp2.worst_trial, chain.verdict) == ("violation", 116, "pass")
        assert pp2.instance["trial"] == 116 and chain.vacuous > 0
        assert (probe.verdict, probe.nan, probe.worst_trial) == ("violation", 7, 0)
        assert small.trials == 40

    @pytest.mark.parametrize("size", [3, 12])
    def test_a_pool_gets_one_span_per_worker(self, monkeypatch, size):
        # at sizes 3 a block holds 1,600 trials, more than a span; at sizes
        # 12 it holds 100, so spans of 500 and 501 trials end on blocks of 0
        # and 1 trials
        self.needs_pool()
        budget = SearchBudget(trials=1001, seed=8, max_e=size, max_f=size, sparsity=0.5)
        # zero tolerances make the check a violation, so that its report describes the worst trial
        check = CheckSpec(name="chain", target="chain_rule", budget=budget,
                          divergence=DivergenceSpec.relative_entropy(1.0), tolerances=Tolerances(0.0, 0.0))
        ran, sent = [], []

        class Recording:
            """A worker's pipe that records the span the parent sends on it."""

            def __init__(self, pipe):
                self.pipe = pipe

            def send(self, task):
                sent.append(task[-2:])
                self.pipe.send(task)

            def recv(self):
                return self.pipe.recv()

        run_trials = consistency.run_trials

        def parents_span(kind, risk, div, budget, start, stop):
            ran.append((start, stop))
            return run_trials(kind, risk, div, budget, start, stop)

        with consistency._trial_pool([budget]) as pool:
            recording = [worker._replace(pipe=Recording(worker.pipe)) for worker in pool]
            # patched after the fork, so only this process records the span it runs itself
            with monkeypatch.context() as patch:
                patch.setattr(consistency, "run_trials", parents_span)
                pooled = consistency._trial_stats("chain_rule", None, check.divergence, budget, recording)
                pooled_report = emit_report([run_check(check, recording)], "json", "-")
        workers = consistency._usable_cores()
        spans = [(1001 * i // workers, 1001 * (i + 1) // workers) for i in range(workers)]
        assert len(pool) == workers - 1
        assert ran == 2 * spans[:1] and sent == 2 * spans[1:]
        assert pooled == consistency.run_trials("chain_rule", None, check.divergence, budget, 0, 1001)
        assert pooled_report == emit_report([run_check(check)], "json", "-")
        assert json.loads(pooled_report)["checks"][0]["instance"]["trial"] == pooled.worst_trial

    def test_search_and_sweep_run_on_the_pool(self, monkeypatch, pools, capsys):
        self.needs_pool()
        budget = SearchBudget(trials=250, seed=1, sparsity=0.5)
        spec = RiskSpec.shortfall(LossFn.power_plus(2.0))
        searched = counterexample_search(spec, budget, "acceptance")
        check = {"name": "tc", "target": "time_consistency", "spec": {"family": "entropic", "eta": 1.0}, "trials": 5}
        argv = ["sweep", "--config", json.dumps(check), "--param", "trials", "--values", "50,150,250"]
        assert cli.main(argv) == 0
        swept = capsys.readouterr().out
        assert pools[0] is not None and pools[1] is not None
        assert multiprocessing.active_children() == []
        self.pool_off(monkeypatch)
        assert counterexample_search(spec, budget, "acceptance") == searched
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == swept
        assert pools[2:] == [None, None]

    def test_small_runs_open_no_pool(self, pools):
        run_suite(SuiteConfig(checks=(entropic_check(trials=100), entropic_check(name="b", trials=3))))
        assert pools == [None]

    def test_no_pool_beside_another_thread(self, pools):
        # a forked child copies every lock of the parent, even one that
        # another thread holds, so a process with threads runs in-process
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60,))
        other.start()
        try:
            with_thread = run_suite(SuiteConfig(checks=(entropic_check(trials=250),)))
        finally:
            release.set()
            other.join(timeout=60)
        assert not other.is_alive()
        assert pools == [None]
        assert run_suite(SuiteConfig(checks=(entropic_check(trials=250),))) == with_thread

    @pytest.mark.parametrize("error", [PreconditionViolatedError, RuntimeError])
    def test_worker_errors_surface_as_in_one_process(self, monkeypatch, pools, capsys, error):
        self.needs_pool()
        monkeypatch.setitem(CHECK_KINDS, "refusing", _refusing_probe(error))
        check = {"name": "r", "target": "refusing", "spec": {"family": "entropic", "eta": 1.0}, "trials": 400}
        argv = ["verify", "--config", json.dumps({"checks": [check]}), "--no-timestamp"]

        def outcome():
            try:
                status = cli.main(argv)
            except Exception as exc:  # not a DivLabError: it escapes main, as a traceback and status 1
                status = (type(exc), str(exc))
            assert multiprocessing.active_children() == []
            return status, capsys.readouterr()

        parallel = outcome()
        self.pool_off(monkeypatch)
        assert outcome() == parallel
        assert pools[0] is not None and pools[1] is None
        if error is PreconditionViolatedError:
            assert parallel[0] == 2 and parallel[1].err == "error: trial 100 refused\n"
        else:
            assert parallel[0] == (RuntimeError, "trial 100 refused")

    def test_no_worker_outlives_a_run(self, monkeypatch, pools):
        self.needs_pool()
        run_suite(self.suite(monkeypatch))
        assert pools[0] is not None
        assert multiprocessing.active_children() == []
        # trial 200 lies past the first bound on any number of cores, in a worker's span
        monkeypatch.setitem(CHECK_KINDS, "refusing", _refusing_probe(RuntimeError, first=200))
        refusing = replace(entropic_check(name="r", trials=300), target="refusing")
        with pytest.raises(RuntimeError, match="trial 200 refused") as raised:
            run_suite(SuiteConfig(checks=(refusing,)))
        assert type(raised.value.__cause__).__name__ == "_RemoteTraceback"  # raised in a worker
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("first", [0, 150])
    def test_worker_errors_surface_in_span_order(self, monkeypatch, pools, first):
        # three spans of 100 trials on two workers; span 2's error arrives
        # first, because span 1 sleeps before it raises, yet the lowest
        # failing span's error is the one raised, span 0's when this
        # process refuses its own span too
        self.needs_pool()
        monkeypatch.setattr(consistency, "_usable_cores", lambda: 3)

        def trials(risk, div, budget, start, stop):
            if start == 100:
                time.sleep(0.5)
            refused = max(start, first)
            if refused < stop:
                raise PreconditionViolatedError(f"trial {refused} refused")
            return [0.0] * (stop - start)

        monkeypatch.setitem(CHECK_KINDS, "refusing", fake_kind("abs", trials))
        refusing = replace(entropic_check(name="r", trials=300), target="refusing")
        with _deadline(60), pytest.raises(PreconditionViolatedError, match=f"^trial {first} refused$") as raised:
            run_suite(SuiteConfig(checks=(refusing,)))
        assert len(pools[0]) == 2
        assert multiprocessing.active_children() == []
        cause = raised.value.__cause__
        if first == 0:  # raised in this process
            assert cause is None
        else:
            assert type(cause).__name__ == "_RemoteTraceback"
            assert str(cause).startswith("Traceback") and "in trials" in str(cause)
            assert str(cause).rstrip().endswith("PreconditionViolatedError: trial 150 refused")

    def test_an_interrupt_in_the_parents_span_stops_the_workers(self, monkeypatch, pools):
        # the worker's span would sleep for a minute; the interrupt in span 0
        # terminates and joins it at once instead of waiting for it
        self.needs_pool()

        def trials(risk, div, budget, start, stop):
            if start == 0:
                raise KeyboardInterrupt
            time.sleep(60)
            return [0.0] * (stop - start)

        monkeypatch.setitem(CHECK_KINDS, "slow", fake_kind("abs", trials))
        slow = replace(entropic_check(name="s", trials=300), target="slow")
        began = time.monotonic()
        with _deadline(30), pytest.raises(KeyboardInterrupt):
            run_suite(SuiteConfig(checks=(slow,)))
        assert time.monotonic() - began < 20
        assert pools[0] is not None and multiprocessing.active_children() == []

    def test_a_worker_that_dies_mid_span_raises(self, monkeypatch, pools):
        self.needs_pool()

        def trials(risk, div, budget, start, stop):
            if multiprocessing.parent_process() is not None:  # only ever in a worker
                os._exit(3)
            return [0.0] * (stop - start)

        monkeypatch.setitem(CHECK_KINDS, "dying", fake_kind("abs", trials))
        dying = replace(entropic_check(name="d", trials=300), target="dying")
        with _deadline(30), pytest.raises(RuntimeError, match=r"span worker \d+ exited with code 3 during trials \["):
            run_suite(SuiteConfig(checks=(dying,)))
        assert multiprocessing.active_children() == []
