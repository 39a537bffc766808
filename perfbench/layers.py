"""Per-layer metrics of one traced verdict.

Each metric names the end-to-end metric it should move (see README.md).
Times are per trial or per verdict; counts are exact and must repeat
between two traced passes over the same inputs.
"""

from __future__ import annotations

import statistics

from workloads import DUAL_GAP_TOL

PER_LAYER_UNITS = {
    "consistency.self_ms_per_trial": "ms",
    "prob.calls_per_trial": "count",
    "prob.self_ms_per_trial": "ms",
    "risk.calls_per_trial": "count",
    "risk.us_per_call": "us",
    "risk.self_ms_per_trial": "ms",
    "losses.evals_per_rho": "count",
    "losses.conjugate_calls_per_trial": "count",
    "losses.self_ms_per_trial": "ms",
    "divergence.closed.calls_per_trial": "count",
    "divergence.closed.us_per_call": "us",
    "divergence.self_ms_per_trial": "ms",
    "divergence.dual.solves": "count",
    "divergence.dual.iters_p50": "count",
    "divergence.dual.iters_max": "count",
    "divergence.dual.rho_calls_per_solve": "count",
    "divergence.dual.exhausted": "count",
    "divergence.dual.gap_over_tol": "count",
    "report.emit_ms": "ms",
    "report.bytes": "bytes",
    "report.self_ms": "ms",
    "cli.self_ms": "ms",
    "trace.overhead_frac": "ratio",
}

# deterministic counters: equal between two traced passes of one seed
EXACT = (
    "prob.calls_per_trial",
    "risk.calls_per_trial",
    "losses.evals_per_rho",
    "losses.conjugate_calls_per_trial",
    "divergence.closed.calls_per_trial",
    "divergence.dual.solves",
    "divergence.dual.iters_p50",
    "divergence.dual.iters_max",
    "divergence.dual.rho_calls_per_solve",
    "divergence.dual.exhausted",
    "divergence.dual.gap_over_tol",
    "report.bytes",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(work, verdict, an) -> dict:
    """Metrics of a traced pass: one verdict plus the workload's extra range."""
    trials = verdict.trials + work.extra_trials
    rho = an.stats("risk.rho_values")
    closed = an.stats("divergence.DivergenceSpec.evaluate_w")
    solves = getattr(work, "results", [])
    iters = [r.iterations for r in solves]
    gaps = [r.certified_gap for r in solves if r.certified_gap is not None]
    conj = an.counts.get("losses.LossFn.conjugate", 0) + an.counts.get("losses.UtilityFn.conjugate", 0)

    def per_trial(layer: str) -> float:
        return _ratio(an.layer_self_s.get(layer, 0.0) * 1e3, trials)

    return {
        "consistency.self_ms_per_trial": per_trial("consistency"),
        "prob.calls_per_trial": _ratio(an.layer_calls.get("prob", 0), trials),
        "prob.self_ms_per_trial": per_trial("prob"),
        "risk.calls_per_trial": _ratio(rho.calls, trials),
        "risk.us_per_call": _ratio(rho.total_s * 1e6, rho.calls),
        "risk.self_ms_per_trial": per_trial("risk"),
        "losses.evals_per_rho": _ratio(an.evals_in_rho, an.rho_calls),
        "losses.conjugate_calls_per_trial": _ratio(conj, trials),
        "losses.self_ms_per_trial": per_trial("losses"),
        "divergence.closed.calls_per_trial": _ratio(closed.calls, trials),
        "divergence.closed.us_per_call": _ratio(closed.total_s * 1e6, closed.calls),
        "divergence.self_ms_per_trial": per_trial("divergence"),
        "divergence.dual.solves": len(solves),
        "divergence.dual.iters_p50": statistics.median(iters) if iters else 0,
        "divergence.dual.iters_max": max(iters, default=0),
        "divergence.dual.rho_calls_per_solve": _ratio(an.rho_calls_in_dual, an.stats("divergence.dual_divergence").calls),
        "divergence.dual.exhausted": sum(r.budget_exhausted for r in solves),
        "divergence.dual.gap_over_tol": sum(not abs(g) <= DUAL_GAP_TOL for g in gaps),
        "report.emit_ms": an.emit_s * 1e3,
        "report.bytes": len(verdict.text.encode("utf-8")),
        "report.self_ms": an.layer_self_s.get("report", 0.0) * 1e3,
        "cli.self_ms": an.layer_self_s.get("cli", 0.0) * 1e3,
    }
