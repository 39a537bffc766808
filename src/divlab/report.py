"""Suite configuration, check execution, and deterministic report emission.

A suite is a list of named checks. Each check binds a risk spec and/or a
divergence spec to a check kind from ``consistency.CHECK_KINDS``, a seeded
sampling budget, and a two-tier tolerance: gaps inside the noise band are
ignored, gaps beyond the violation threshold are defects, and the strip in
between is "inconclusive, refine". A check that judged no trial, having none
or only vacuous ones, is inconclusive too: it has no evidence to pass on. A
trial whose gap is NaN, or whose solver ran out of its iteration budget, is
counted apart and makes its check a violation, whatever the other gaps are.
A check document with a field that the parser does not read is refused with
``ConfigParseError``.

Reports are emitted as a single JSON document (with a schema_version field)
or as CSV with one row per check. Serialization is deterministic: keys are
sorted, floats carry 17 significant digits, infinities are encoded as the
strings "inf"/"-inf", and timestamps can be suppressed. Identical configs
and seeds produce byte-identical JSON.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Mapping, Sequence

from .consistency import (
    SearchBudget,
    TrialStats,
    _trial_pool,
    _trial_stats,
    check_kind,
    describe_trial,
    resolve_divergence,
)
from .divergence import DivergenceSpec
from .errors import ConfigParseError, IoError, reject_unknown_keys, typed_field
from .risk import RiskSpec

SCHEMA_VERSION = 1

DEFAULT_NOISE_TOL = 1e-8
DEFAULT_VIOLATION_TOL = 1e-4
# the fields of a check document besides those of its budget
_CHECK_FIELDS = ("name", "target", "spec", "divergence", "tolerances", "must_pass")


@dataclass(frozen=True)
class Tolerances:
    noise: float = DEFAULT_NOISE_TOL
    violation: float = DEFAULT_VIOLATION_TOL

    def __post_init__(self):
        # an infinite violation tolerance would pass any gap
        if not (0 <= self.noise <= self.violation < math.inf):
            raise ConfigParseError(
                f"need finite 0 <= noise <= violation, got {self.noise!r}, {self.violation!r}"
            )

    @classmethod
    def from_json(cls, doc: Mapping) -> "Tolerances":
        return cls(
            noise=typed_field(doc, "noise", DEFAULT_NOISE_TOL, float, "tolerance"),
            violation=typed_field(doc, "violation", DEFAULT_VIOLATION_TOL, float, "tolerance"),
        )

    def as_json(self) -> dict:
        return {"noise": self.noise, "violation": self.violation}


@dataclass(frozen=True)
class CheckSpec:
    """One named check: what to sample, what to evaluate, how to judge it."""

    name: str
    target: str
    budget: SearchBudget
    risk: RiskSpec | None = None
    divergence: DivergenceSpec | None = None
    tolerances: Tolerances = field(default_factory=Tolerances)
    must_pass: bool = True

    def __post_init__(self):
        kind = check_kind(self.target)
        kind.check_budget(self.budget, f"check {self.name!r}")
        if kind.needs == "risk" and self.risk is None:
            raise ConfigParseError(f"check {self.name!r} needs a risk spec")
        if kind.needs == "div" and self.divergence is None and self.risk is None:
            raise ConfigParseError(
                f"check {self.name!r} needs a divergence (or a risk spec to derive one)"
            )

    @classmethod
    def from_json(cls, doc: Mapping) -> "CheckSpec":
        try:
            name = doc["name"]
            target = doc["target"]
        except KeyError as exc:
            raise ConfigParseError(f"check is missing field {exc}") from exc
        budget = SearchBudget.from_json(doc)
        budget_doc = budget.as_json()
        reject_unknown_keys(doc, (*_CHECK_FIELDS, *budget_doc), f"check {name!r}")
        reject_unknown_keys(doc.get("sizes", {}), budget_doc["sizes"], f"check {name!r} sizes")
        tolerances = typed_field(doc, "tolerances", {}, dict, f"check {name!r} field")
        reject_unknown_keys(tolerances, ("noise", "violation"), f"check {name!r} tolerances")
        return cls(
            name=name,
            target=target,
            budget=budget,
            risk=RiskSpec.from_json(doc["spec"]) if "spec" in doc else None,
            divergence=(
                DivergenceSpec.from_json(doc["divergence"]) if "divergence" in doc else None
            ),
            tolerances=Tolerances.from_json(tolerances),
            must_pass=typed_field(doc, "must_pass", True, bool, f"check {name!r} field"),
        )

    def as_json(self) -> dict:
        doc = {"name": self.name, "target": self.target, **self.budget.as_json()}
        if self.risk is not None:
            doc["spec"] = self.risk.as_json()
        if self.divergence is not None:
            doc["divergence"] = self.divergence.as_json()
        doc["tolerances"] = self.tolerances.as_json()
        doc["must_pass"] = self.must_pass
        return doc


@dataclass(frozen=True)
class SuiteConfig:
    checks: tuple
    name: str | None = None

    def __post_init__(self):
        names = [c.name for c in self.checks]
        if len(set(names)) != len(names):
            raise ConfigParseError("check names must be unique")

    @classmethod
    def from_json(cls, doc: Mapping) -> "SuiteConfig":
        if not isinstance(doc, Mapping) or "checks" not in doc:
            raise ConfigParseError("suite config must be an object with a 'checks' list")
        reject_unknown_keys(doc, ("schema_version", "checks", "name"), "suite config")
        checks = doc["checks"]
        if not isinstance(checks, list) or not all(isinstance(c, Mapping) for c in checks):
            raise ConfigParseError("suite config 'checks' must be a list of check objects")
        return cls(
            checks=tuple(CheckSpec.from_json(c) for c in checks),
            name=doc.get("name"),
        )

    def as_json(self) -> dict:
        doc: dict = {"schema_version": SCHEMA_VERSION, "checks": [c.as_json() for c in self.checks]}
        if self.name is not None:
            doc["name"] = self.name
        return doc


@dataclass(frozen=True)
class CheckReport:
    """Verdict and evidence for one executed check."""

    name: str
    target: str
    trials: int
    vacuous: int
    worst_gap: float | None
    verdict: str  # "pass" | "violation" | "inconclusive"
    seed: int
    must_pass: bool = True
    worst_trial: int | None = None
    class_worst: dict | None = None
    instance: dict | None = None
    nan: int = 0  # trials with a NaN gap; emitted only when nonzero
    exhausted: int = 0  # trials whose solver ran out of its budget; emitted only when nonzero

    def as_json(self) -> dict:
        doc = {
            "name": self.name,
            "target": self.target,
            "trials": self.trials,
            "vacuous": self.vacuous,
            "worst_gap": self.worst_gap,
            "verdict": self.verdict,
            "seed": self.seed,
            "must_pass": self.must_pass,
            "worst_trial": self.worst_trial,
        }
        if self.class_worst is not None:
            doc["class_worst"] = {
                k: {"trial": v[1], "gap": v[2]} for k, v in sorted(self.class_worst.items())
            }
        if self.instance is not None:
            doc["instance"] = self.instance
        if self.nan:
            doc["nan"] = self.nan
        if self.exhausted:
            doc["exhausted"] = self.exhausted
        return doc


def _verdict(target: str, stats: TrialStats, tol: Tolerances) -> str:
    if stats.nan or stats.exhausted:
        return "violation"
    worst_gap = stats.worst_gap
    if worst_gap is None:
        # no trial was judged: a check without evidence does not pass
        return "inconclusive"
    badness = check_kind(target).badness(worst_gap)
    if badness <= tol.noise:
        return "pass"
    if badness > tol.violation:
        return "violation"
    return "inconclusive"


def run_check(check: CheckSpec, pool=None) -> CheckReport:
    """Run a check's trials, judge them, and describe the worst one unless the check passes.

    The trials run in this process, in blocks sized by the instance (see
    ``run_trials``), or, when ``pool`` is given (see ``run_suite``), as one
    contiguous span per usable core: this process runs span 0 and each
    worker one other span, all started and received within this call. The
    report is the same bytes either way, and an error surfaces as in one
    process, the lowest span's first (see ``_trial_stats``).
    """
    div = resolve_divergence(check.target, check.risk, check.divergence)
    budget = check.budget
    stats = _trial_stats(check.target, check.risk, div, budget, pool)
    verdict = _verdict(check.target, stats, check.tolerances)
    instance = None
    if verdict != "pass" and stats.worst_trial is not None:
        instance = describe_trial(check.target, check.risk, div, budget, stats.worst_trial)
    return CheckReport(
        name=check.name,
        target=check.target,
        trials=stats.count,
        vacuous=stats.vacuous,
        worst_gap=stats.worst_gap,
        verdict=verdict,
        seed=budget.seed,
        must_pass=check.must_pass,
        worst_trial=stats.worst_trial,
        class_worst=stats.class_worst,
        instance=instance,
        nan=stats.nan,
        exhausted=stats.exhausted,
    )


def run_suite(config: SuiteConfig) -> list[CheckReport]:
    """Run every check in order; an empty suite yields an empty report.

    One pool of cores - 1 forked workers serves every check of the suite,
    each check's trials cut into one contiguous span per usable core, span 0
    run in this process (see ``_trial_pool``); it opens only when some check
    has more than POOL_MIN_TRIALS trials and the platform can fork. Before
    this returns each worker gets the sentinel and is joined; before it
    raises the workers are terminated and joined. Reports are
    byte-identical with any number of workers.
    """
    with _trial_pool(c.budget for c in config.checks) as pool:
        return [run_check(c, pool) for c in config.checks]


def suite_failed(reports: Sequence[CheckReport]) -> bool:
    return any(r.verdict == "violation" and r.must_pass for r in reports)


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------


def format_float(x: float) -> str:
    if math.isnan(x):
        raise IoError("refusing to serialize NaN; gaps must be vacuous instead")
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def _emit_value(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        import json as _json

        out.append(_json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, Mapping):
        out.append("{")
        first = True
        for key in sorted(obj.keys()):
            if not isinstance(key, str):
                raise IoError(f"JSON object keys must be strings, got {key!r}")
            if not first:
                out.append(",")
            first = False
            _emit_value(key, out)
            out.append(":")
            _emit_value(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _emit_value(item, out)
        out.append("]")
    else:
        raise IoError(f"cannot serialize {type(obj).__name__} deterministically")


def canonical_json(obj) -> str:
    """Byte-stable JSON: sorted keys, 17 significant digits, "inf" strings."""
    out: list = []
    _emit_value(obj, out)
    return "".join(out)


def report_document(
    reports: Sequence[CheckReport],
    timestamp: str | None = None,
    suite_name: str | None = None,
) -> dict:
    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "checks": [r.as_json() for r in reports],
    }
    if suite_name is not None:
        doc["suite"] = suite_name
    if timestamp is not None:
        doc["created_at"] = timestamp
    return doc


def now_timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


CSV_COLUMNS = ("name", "trials", "vacuous", "worst_gap", "verdict", "seed")


def reports_to_csv(reports: Sequence[CheckReport]) -> str:
    """One header row and one row per report; a field is quoted only when it holds a comma, a quote or a line break."""
    rows = [CSV_COLUMNS]
    for r in reports:
        gap = "" if r.worst_gap is None else format_float(r.worst_gap).strip('"')
        rows.append((r.name, r.trials, r.vacuous, gap, r.verdict, r.seed))
    return "".join(map(_csv_row, rows))


def _csv_row(fields: Sequence) -> str:
    """One CSV row, ending in a line feed.

    The writer quotes a field that holds a character of its line terminator.
    A carriage return and a line feed as the terminator make it quote both
    kinds of line break, and the row's carriage return is then cut.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(fields)
    return buf.getvalue()[:-2] + "\n"


def emit_report(
    reports: Sequence[CheckReport],
    fmt: str,
    path: str,
    timestamp: str | None = None,
    suite_name: str | None = None,
) -> str:
    """Write reports as JSON or CSV; path "-" means stdout (caller prints)."""
    if fmt == "json":
        text = canonical_json(report_document(reports, timestamp, suite_name)) + "\n"
    elif fmt == "csv":
        text = reports_to_csv(reports)
    else:
        raise ConfigParseError(f"unknown report format {fmt!r}")
    if path != "-":
        write_text(text, path)
    return text


def write_text(text: str, path: str) -> None:
    """Write text to the file at path, or to standard output when path is "-"."""
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise IoError(f"cannot write to {path!r}: {exc}") from exc
