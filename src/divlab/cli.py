"""Command-line interface.

Subcommands:

- ``risk``         evaluate a risk functional on a law
- ``div``          evaluate a divergence between two laws
- ``conditional``  evaluate blockwise conditional risk
- ``verify``       run a suite of seeded checks and emit a report
- ``search``       hunt for counterexamples to one target property
- ``sweep``        rerun one check over a parameter range, emit CSV of each value's
                   worst gap, verdict, and NaN and exhausted counts

All inputs are JSON documents read from files or standard input ("-").
Exit status is 1 iff a must-pass check reports a violation, and 2 on a
malformed input, an output that cannot be written, or a ``div`` whose dual
solve ran out of its iteration budget.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

from .consistency import _trial_pool, counterexample_search
from .divergence import DivergenceSpec
from .errors import ConfigParseError, DivLabError, number_list
from .kinds import CHECK_KINDS
from .prob import FiniteDist, Partition
from .report import (
    CheckSpec,
    SuiteConfig,
    canonical_json,
    emit_report,
    now_timestamp,
    run_check,
    run_suite,
    suite_failed,
    write_text,
)
from .risk import RiskSpec, rho_conditional, rho_of_law
from .streams import SearchBudget


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _load_json(source: str):
    """The JSON document at source; NaN, Infinity and -Infinity, which json accepts beyond the standard, are refused."""
    try:
        if source == "-":
            return json.load(sys.stdin, parse_constant=_refuse_constant)
        text = source
        if not source.lstrip().startswith(("{", "[")):
            with open(source, "r", encoding="utf-8") as handle:
                text = handle.read()
        return json.loads(text, parse_constant=_refuse_constant)
    except (OSError, ValueError) as exc:
        raise ConfigParseError(f"cannot read JSON from {source!r}: {exc}") from exc


def _cmd_risk(args) -> int:
    spec = RiskSpec.from_json(_load_json(args.spec))
    law = FiniteDist.from_json(_load_json(args.law))
    value = rho_of_law(spec, law)
    write_text(canonical_json({"value": value}) + "\n", args.out)
    return 0


def _cmd_div(args) -> int:
    div = DivergenceSpec.from_json(_load_json(args.divergence))
    nu = FiniteDist.from_json(_load_json(args.nu))
    mu = FiniteDist.from_json(_load_json(args.mu))
    value = div.evaluate(nu, mu)
    if math.isnan(value):  # the one source of a NaN divergence
        raise DivLabError("the dual solve ran out of its iteration budget; alpha(nu | mu) is unknown")
    write_text(canonical_json({"value": value}) + "\n", args.out)
    return 0


def _cmd_conditional(args) -> int:
    spec = RiskSpec.from_json(_load_json(args.spec))
    mu = FiniteDist.from_json(_load_json(args.mu))
    values = number_list(_load_json(args.values), "--values")
    partition = Partition.from_json(_load_json(args.partition))
    cond = rho_conditional(spec, mu, values, partition)
    doc = {
        "blocks": [
            {"block": list(block), "weight": w, "value": v}
            for (block, v), w in zip(cond.values, cond.weights)
        ]
    }
    write_text(canonical_json(doc) + "\n", args.out)
    return 0


def _override(check: CheckSpec, args) -> CheckSpec:
    """The parsed check with the command line's seed, trials and tolerances in place of its own."""

    def given(**fields) -> dict:
        return {key: value for key, value in fields.items() if value is not None}

    return replace(
        check,
        budget=replace(check.budget, **given(seed=args.seed, trials=args.trials)),
        tolerances=replace(
            check.tolerances, **given(noise=args.tol_noise, violation=args.tol_violation)
        ),
    )


def _cmd_verify(args) -> int:
    config = SuiteConfig.from_json(_load_json(args.config))
    config = replace(config, checks=tuple(_override(c, args) for c in config.checks))
    reports = run_suite(config)
    timestamp = None if args.no_timestamp else now_timestamp()
    write_text(emit_report(reports, args.format, "-", timestamp, config.name), args.out)
    return 1 if suite_failed(reports) else 0


def _cmd_search(args) -> int:
    spec = RiskSpec.from_json(_load_json(args.spec))
    divergence = (
        DivergenceSpec.from_json(_load_json(args.divergence)) if args.divergence else None
    )
    budget = SearchBudget(
        trials=args.trials,
        seed=args.seed,
        max_e=args.size_e,
        max_f=args.size_f,
    )
    result = counterexample_search(spec, budget, args.target, divergence)
    write_text(canonical_json(result.as_json()) + "\n", args.out)
    return 0


def _set_by_path(doc: dict, path: str, value: float) -> None:
    parts = path.split(".")
    node = doc
    for key in parts[:-1]:
        if key not in node or not isinstance(node[key], dict):
            raise ConfigParseError(f"sweep path {path!r} does not exist in the check")
        node = node[key]
    if parts[-1] not in node:
        raise ConfigParseError(f"sweep path {path!r} does not exist in the check")
    node[parts[-1]] = value


def _sweep_value(token: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ConfigParseError(f"sweep value {token!r} is not a number") from None
    if not math.isfinite(value):
        raise ConfigParseError(f"sweep value {token!r} is not a finite number")
    return value


def _cmd_sweep(args) -> int:
    base = _load_json(args.config)
    values = [_sweep_value(v) for v in args.values.split(",")]
    checks = []
    for v in values:
        doc = json.loads(json.dumps(base))
        _set_by_path(doc, args.param, v)
        checks.append(CheckSpec.from_json(doc))
    lines = ["parameter,worst_gap,verdict,nan,exhausted"]
    with _trial_pool(c.budget for c in checks) as pool:
        for v, check in zip(values, checks):
            report = run_check(check, pool)
            gap = "" if report.worst_gap is None else format(report.worst_gap, ".17g")
            lines.append(f"{format(v, '.17g')},{gap},{report.verdict},{report.nan},{report.exhausted}")
    write_text("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divlab",
        description="Risk functionals, induced divergences, and seeded property verification on finite spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_risk = sub.add_parser("risk", help="evaluate a risk functional on a law")
    p_risk.add_argument("--spec", required=True, help="risk spec JSON (path, inline, or -)")
    p_risk.add_argument("--law", required=True, help="law JSON (path, inline, or -)")
    p_risk.add_argument("--out", default="-")
    p_risk.set_defaults(fn=_cmd_risk)

    p_div = sub.add_parser("div", help="evaluate a divergence between two laws")
    p_div.add_argument("--divergence", required=True)
    p_div.add_argument("--nu", required=True)
    p_div.add_argument("--mu", required=True)
    p_div.add_argument("--out", default="-")
    p_div.set_defaults(fn=_cmd_div)

    p_cond = sub.add_parser("conditional", help="evaluate blockwise conditional risk")
    p_cond.add_argument("--spec", required=True)
    p_cond.add_argument("--mu", required=True)
    p_cond.add_argument("--values", required=True)
    p_cond.add_argument("--partition", required=True)
    p_cond.add_argument("--out", default="-")
    p_cond.set_defaults(fn=_cmd_conditional)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--config", required=True)
    p_verify.add_argument("--out", default="-")
    p_verify.add_argument("--format", choices=("json", "csv"), default="json")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--trials", type=int, default=None)
    p_verify.add_argument("--tol-noise", type=float, default=None)
    p_verify.add_argument("--tol-violation", type=float, default=None)
    p_verify.add_argument("--no-timestamp", action="store_true")
    p_verify.set_defaults(fn=_cmd_verify)

    p_search = sub.add_parser("search", help="hunt for counterexamples")
    p_search.add_argument("--spec", required=True)
    p_search.add_argument("--divergence", default=None)
    p_search.add_argument(
        "--target", required=True, help=f"a check kind: {', '.join(CHECK_KINDS)}"
    )
    p_search.add_argument("--trials", type=int, default=1000)
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--size-e", type=int, default=3)
    p_search.add_argument("--size-f", type=int, default=3)
    p_search.add_argument("--out", default="-")
    p_search.set_defaults(fn=_cmd_search)

    p_sweep = sub.add_parser("sweep", help="rerun one check over a parameter range")
    p_sweep.add_argument("--config", required=True, help="a single check JSON document")
    p_sweep.add_argument("--param", required=True, help="dotted path, e.g. spec.eta")
    p_sweep.add_argument("--values", required=True, help="comma-separated floats")
    p_sweep.add_argument("--out", default="-")
    p_sweep.set_defaults(fn=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except DivLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
