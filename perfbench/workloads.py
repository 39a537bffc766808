"""The three benchmark workloads, built only from public divlab functions.

Each workload is constructed from a seed (that construction is the set-up
the benchmark times), runs one *verdict* at a time, and checks its outputs
afterwards, outside the timed region:

- ``search_pp2``: criterion 06's acceptance hunt on the shortfall risk of
  ((1+x)_+)^2, run as blocks of ``run_trials`` merged with
  ``TrialStats.merge`` and ending with the ``describe_trial`` replay of the
  worst trial, exactly as ``counterexample_search`` does.
- ``dual_solve``: duality trials (dual solver against the closed form) for
  the OCE exp_shift and shortfall exponential(1) families on up to 12 atoms,
  each family on its own block range. The kinked shortfall power_plus(2)
  family on up to 6 atoms runs on a third range after the timed verdicts:
  its solve times are so heavy-tailed that no verdict that fits in a run
  times steadily, so it feeds the output checks and the traced counters but
  not the end-to-end times.
- ``verify_divergences``: ``divlab verify`` in-process through ``cli.main`` on
  a fixed seven-check suite, with ``DIVLAB_THREADS`` at the core count.

Operations are trials (checks for ``verify_divergences``). Every verdict of
a run has the same inputs, so repeats must reproduce the first one's output
exactly; ``attempted`` and ``failed`` count the operations of one verdict.
Verdicts are timed with a ``Gauge`` (see gauge.py), which reports each time
both as measured and at the reference machine speed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

# Entry points are looked up on their modules at call time, so that the
# tracer's wrappers see the benchmark's own calls too.
from divlab import cli, consistency, divergence, report
from divlab.consistency import SearchBudget, SearchResult, TrialStats
from divlab.losses import LossFn, UtilityFn
from divlab.risk import RiskSpec

from gauge import Gauge
from spans import rebind, restore

# criterion 03's tolerance on |closed form - dual value|
DUAL_GAP_TOL = 1e-5
# criterion 06 demands a violation at least this deep
SEARCH_VIOLATION = -1e-4


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _summary(stats: TrialStats, target: str, seed: int, instance) -> dict:
    return SearchResult(
        target=target,
        trials=stats.count,
        vacuous=stats.vacuous,
        seed=seed,
        worst_gap=stats.worst_gap,
        worst_trial=stats.worst_trial,
        worst_instance=instance,
        class_worst=stats.class_worst,
    ).as_json()


@dataclass
class Verdict:
    """One timed verdict: its times and the emitted text.

    ``wall_s`` is as measured and ``scaled_wall_s`` at the reference speed;
    ``blocks`` holds ``(raw_s, scaled_s)`` for each block of consecutive
    trials.
    """

    wall_s: float
    scaled_wall_s: float
    blocks: list
    trials: int
    text: str
    state: object  # what the workload's check needs


@dataclass
class Checks:
    """Outcome of a workload's output checks."""

    attempted: int
    failed: int = 0
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def _verdict(gauge: Gauge, trials: int, text: str, state) -> Verdict:
    """A verdict whose blocks are the gauge's parts labelled "block"."""
    blocks = [(raw, raw * scale) for label, raw, scale in gauge.parts if label == "block"]
    return Verdict(gauge.raw_s, gauge.scaled_s, blocks, trials, text, state)


def _run_block(kind, spec, budget, start, stop, errors: list) -> TrialStats:
    """run_trials on [start, stop); a raising block counts all its trials as failed."""
    try:
        return consistency.run_trials(kind, spec, None, budget, start, stop)
    except Exception as exc:  # a trial that raises is a counted failure
        errors.append((start, stop, repr(exc)))
        return TrialStats(count=0)


# ---------------------------------------------------------------------------
# search_pp2
# ---------------------------------------------------------------------------


class SearchPP2:
    name = "search_pp2"
    TRIALS = 2000
    BLOCK = 20
    TARGET = "acceptance"
    extra_trials = 0

    def __init__(self, seed: int, traced: bool = False):
        self.seed = seed
        self.spec = RiskSpec.shortfall(LossFn.power_plus(2.0))
        self.budget = SearchBudget(trials=self.TRIALS, seed=seed, max_e=3, max_f=3)

    def install_hooks(self) -> None:
        pass

    def remove_hooks(self) -> None:
        pass

    def warmup(self) -> None:
        consistency.run_trials(self.TARGET, self.spec, None, self.budget, 0, self.BLOCK)

    def verdict(self) -> Verdict:
        errors: list = []
        stats = TrialStats()
        gauge = Gauge()
        gauge.start("block")
        for start in range(0, self.TRIALS, self.BLOCK):
            part = _run_block(self.TARGET, self.spec, self.budget, start, start + self.BLOCK, errors)
            stats = stats.merge(part)
            gauge.split("block" if start + self.BLOCK < self.TRIALS else "replay")
        instance = None
        if stats.worst_trial is not None:
            instance = consistency.describe_trial(self.TARGET, self.spec, None, self.budget, stats.worst_trial)
        text = report.canonical_json(_summary(stats, self.TARGET, self.seed, instance))
        gauge.stop()
        return _verdict(gauge, self.TRIALS, text, (stats, instance, errors))

    def extra(self) -> None:
        pass

    def check(self, first: Verdict) -> Checks:
        stats, instance, errors = first.state
        out = Checks(self.TRIALS)
        out.require(not errors, f"blocks raised: {errors[:3]}")
        # every trial's gap, recomputed from the public sampler and gap
        gaps = []
        for trial in range(self.TRIALS):
            try:
                inst = consistency.sample_conditional_instance(self.budget.rng_for(trial), self.budget)
                gap = consistency.consistency_gap(self.spec, *inst.flat())
            except Exception as exc:  # a trial that raises is a counted failure
                out.failed += 1
                out.notes.append(f"trial {trial} raised {exc!r}")
                continue
            if math.isnan(gap):
                out.failed += 1
                out.notes.append(f"trial {trial} gave a NaN gap")
            else:
                gaps.append((gap, trial))
        out.require(stats.count == self.TRIALS, f"merged {stats.count} trials, expected {self.TRIALS}")
        worst = stats.worst_gap
        out.require(worst is not None and worst < SEARCH_VIOLATION, f"worst gap {worst} is not below {SEARCH_VIOLATION}")
        if gaps and not out.failed:
            best = min(gaps)
            out.require(
                (best[0], best[1]) == (worst, stats.worst_trial),
                f"merged worst {worst} at {stats.worst_trial}, per-trial worst {best[0]} at {best[1]}",
            )
        if stats.worst_trial is not None:
            replay = consistency.describe_trial(self.TARGET, self.spec, None, self.budget, stats.worst_trial)
            out.require(replay == instance and replay["gap"] == worst, "describe_trial does not replay the worst trial exactly")
        out.notes.append(f"worst gap {worst!r} at trial {stats.worst_trial}")
        return out


# ---------------------------------------------------------------------------
# dual_solve
# ---------------------------------------------------------------------------


class DualSolve:
    name = "dual_solve"
    TARGET = "duality"
    BLOCK = 3
    TRIALS = 300
    # the traced run solves a prefix of each timed range, so that its three
    # passes fit in one run
    TRACED_TRIALS = 100
    KINKED_TRIALS = 8

    def __init__(self, seed: int, traced: bool = False):
        self.seed = seed
        timed = self.TRACED_TRIALS if traced else self.TRIALS
        # (label, spec, max atoms, trials); each family gets its own trial range
        families = (
            ("oce_exp_shift", RiskSpec.oce(UtilityFn.exp_shift()), 12, timed),
            ("shortfall_exp", RiskSpec.shortfall(LossFn.exponential(1.0)), 12, timed),
            ("shortfall_pp2", RiskSpec.shortfall(LossFn.power_plus(2.0)), 6, self.KINKED_TRIALS),
        )
        self.ranges = []
        lo = 0
        for label, spec, max_e, trials in families:
            budget = SearchBudget(trials=lo + trials, seed=seed, max_e=max_e, max_f=3)
            self.ranges.append((label, spec, budget, lo, lo + trials))
            lo += trials
        self.timed, self.kinked = self.ranges[:-1], self.ranges[-1]
        self.timed_trials = timed
        self.trials = timed * len(self.timed)
        self.extra_trials = self.kinked[4] - self.kinked[3]
        self.results: list = []
        self._undo: list = []
        self.kinked_run = None

    def install_hooks(self) -> None:
        """Record every DualSolveResult; the trial loop does not return them."""
        solve = divergence.dual_divergence
        sink = self.results

        def recorded(*args, **kwargs):
            res = solve(*args, **kwargs)
            sink.append(res)
            return res

        rebind(solve, recorded, self._undo)

    def remove_hooks(self) -> None:
        restore(self._undo)

    def warmup(self) -> None:
        for _, spec, budget, lo, _ in self.timed:
            consistency.run_trials(self.TARGET, spec, None, budget, lo, lo + 1)

    def _block(self, spec, budget, start, stop, run: dict) -> TrialStats:
        """One run_trials block, keeping its solver results."""
        mark = len(self.results)
        part = _run_block(self.TARGET, spec, budget, start, stop, run["errors"])
        run["solves"].append((start, stop, self.results[mark:]))
        return part

    def verdict(self) -> Verdict:
        """Blocks of BLOCK consecutive trials of every timed family in turn.

        A block latency covers one stretch of each family, so block times
        come from one distribution rather than one per family.
        """
        run = {"errors": [], "solves": []}
        stats = [TrialStats() for _ in self.timed]
        del self.results[:]
        gauge = Gauge()
        gauge.start("block")
        for offset in range(0, self.timed_trials, self.BLOCK):
            for i, (_, spec, budget, lo, hi) in enumerate(self.timed):
                start = lo + offset
                stats[i] = stats[i].merge(self._block(spec, budget, start, min(start + self.BLOCK, hi), run))
            gauge.split("block" if offset + self.BLOCK < self.timed_trials else "replay")
        docs, run["families"] = [], []
        for (label, spec, budget, lo, hi), st in zip(self.timed, stats):
            instance = None
            if st.worst_trial is not None:
                instance = consistency.describe_trial(self.TARGET, spec, None, budget, st.worst_trial)
            docs.append({"family": label, "search": _summary(st, self.TARGET, self.seed, instance)})
            run["families"].append((label, st, instance, hi - lo))
        text = report.canonical_json(docs)
        gauge.stop()
        return _verdict(gauge, self.trials, text, run)

    def extra(self) -> None:
        """Solve the kinked family's range once, timing each solve."""
        _, spec, budget, lo, hi = self.kinked
        run = {"errors": [], "solves": [], "blocks": []}
        for trial in range(lo, hi):
            b0 = time.perf_counter()
            self._block(spec, budget, trial, trial + 1, run)
            run["blocks"].append(time.perf_counter() - b0)
        if self.kinked_run is None:
            self.kinked_run = run

    def check(self, first: Verdict) -> Checks:
        if self.kinked_run is None:
            self.extra()
        timed, kinked = first.state, self.kinked_run
        out = Checks(self.trials + self.extra_trials)
        for start, stop, msg in timed["errors"] + kinked["errors"]:
            out.failed += stop - start
            out.notes.append(f"trials [{start}, {stop}) raised {msg}")
        raised = {start for start, _, _ in timed["errors"] + kinked["errors"]}
        for start, stop, res in timed["solves"] + kinked["solves"]:
            if start not in raised:
                out.require(len(res) == stop - start, f"trials [{start}, {stop}): {len(res)} DualSolveResults")
            for trial, r in enumerate(res, start):
                gap = r.certified_gap
                if r.budget_exhausted:
                    out.failed += 1
                    out.notes.append(f"trial {trial}: budget exhausted after {r.iterations} iterations, gap {gap!r}")
                elif gap is not None and not abs(gap) <= DUAL_GAP_TOL:
                    out.failed += 1
                    out.notes.append(f"trial {trial}: certified gap {gap!r} after {r.iterations} iterations")
        for label, stats, instance, trials in timed["families"]:
            out.require(stats.count == trials, f"{label}: merged {stats.count} trials, expected {trials}")
            if stats.worst_trial is not None:
                out.require(instance["gap"] == stats.worst_gap, f"{label}: replayed gap differs from the merged worst")
        ms = sorted(1e3 * b for b in kinked["blocks"])
        out.notes.append(
            f"{self.kinked[0]}: {len(ms)} solves outside the timed verdict, "
            f"p50 {ms[len(ms) // 2]:.1f} ms, max {ms[-1]:.1f} ms"
        )
        return out


# ---------------------------------------------------------------------------
# verify_divergences
# ---------------------------------------------------------------------------

_RE = {"family": "relative_entropy", "eta": 1.0}
_PHI_EXP = {"family": "phi_star", "utility": {"kind": "exp_shift"}}
_SD_EXP = {"family": "shortfall_div", "loss": {"kind": "exponential", "eta": 1.0}}
_PHI_HINGE = {"family": "phi_star", "utility": {"kind": "hinge_power", "p": 2}}


def _check(name, target, div, trials, e=3, f=3, **extra) -> dict:
    return {"name": name, "target": target, "divergence": div, "trials": trials, "sizes": {"E": e, "F": f}, **extra}


# Trial counts give every check about the same cost, so that the checks, the
# blocks whose latency is measured, form one cluster.
SUITE = {
    "name": "perfbench-divergences",
    "checks": [
        _check("chain-rule-re", "chain_rule", _RE, 1760, 6, 6),
        _check("dpi-phi-exp", "dpi", _PHI_EXP, 1200, 5, 5),
        _check("weak-consistency-sd", "weak_consistency", _SD_EXP, 580),
        _check("refinement-sd", "refinement", _SD_EXP, 400),
        _check("joint-convexity-phi", "joint_convexity", _PHI_EXP, 3200),
        _check("sufficiency-re", "sufficiency_generic", _RE, 1700),
        _check("superadditivity-hinge", "superadditivity", _PHI_HINGE, 1800, must_pass=False),
    ],
}
EXPECTED = {c["name"]: ("violation" if c["target"] == "superadditivity" else "pass") for c in SUITE["checks"]}


class VerifyDivergences:
    name = "verify_divergences"
    extra_trials = 0

    def __init__(self, seed: int, traced: bool = False):
        self.seed = seed
        self.threads = nproc()
        os.environ["DIVLAB_THREADS"] = str(self.threads)
        self.argv = ["verify", "--config", json.dumps(SUITE), "--seed", str(seed), "--no-timestamp"]
        args = cli.build_parser().parse_args(self.argv)
        self.config = report.SuiteConfig.from_json(json.loads(args.config))
        self.trials = sum(c.budget.trials for c in self.config.checks)
        self.gauge = Gauge()
        self._undo: list = []

    def install_hooks(self) -> None:
        """Make each of report's checks a block of the gauge.

        A check's trials run on the pool, so its chunks' own times include
        waiting for the other thread; the check, the block of all its
        trials, is the unit whose latency a user of ``verify`` sees.
        """
        run_check = report.run_check

        def timed_check(*args, **kwargs):
            self.gauge.split("block")
            try:
                return run_check(*args, **kwargs)
            finally:
                self.gauge.split("cli")

        setattr(report, "run_check", timed_check)
        self._undo.append((report, "run_check", run_check))

    def remove_hooks(self) -> None:
        restore(self._undo)

    def _main(self, argv: list) -> tuple:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def warmup(self) -> None:
        self._main(self.argv + ["--trials", "20"])

    def verdict(self) -> Verdict:
        gauge = self.gauge = Gauge()
        gauge.start("cli")
        code, text = self._main(self.argv)
        gauge.stop()
        return _verdict(gauge, self.trials, text, code)

    def extra(self) -> None:
        pass

    def check(self, first: Verdict) -> Checks:
        out = Checks(len(SUITE["checks"]))
        out.require(first.state == 0, f"divlab verify exited with {first.state}")
        out.require(len(first.blocks) == len(SUITE["checks"]), f"{len(first.blocks)} checks were timed")
        try:
            doc = json.loads(first.text)
        except ValueError as exc:
            out.failed = out.attempted
            out.require(False, f"report is not JSON: {exc}")
            return out
        got = {c["name"]: c for c in doc.get("checks", [])}
        for name, want in EXPECTED.items():
            c = got.get(name)
            if c is None or c["verdict"] != want:
                out.failed += 1
                out.notes.append(f"{name}: verdict {c and c['verdict']!r}, expected {want!r}")
        for spec in SUITE["checks"]:
            c = got.get(spec["name"])
            out.require(c is not None and c["trials"] == spec["trials"], f"{spec['name']}: wrong trial count")
        hinge = got.get("superadditivity-hinge")
        out.require(hinge is not None and "instance" in hinge, "the violating check carries no replayed instance")
        return out


WORKLOADS = {w.name: w for w in (SearchPP2, DualSolve, VerifyDivergences)}
