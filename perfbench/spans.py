"""Span tracing of divlab from the outside, by rebinding public entry points.

The tracer replaces each layer's public entry points, at every ``divlab``
module attribute that binds them, with a wrapper that records a span: its
name, start, end and parent. A few very cheap, very frequent entry points
(scalar conjugates) are counted instead, because a span would cost about as
much as the call itself. Spans stay in memory until ``analyse`` turns them
into per-name and per-layer totals; ``save`` writes them out.

Entry points that a version of divlab does not have are skipped, so the
tracer keeps working while the library is refactored.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from array import array
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

# Public entry points per layer (the modules, less ``errors``, which does no
# work); "Class.method" names a method.
SPANNED = {
    "prob": (
        "FiniteDist.__init__", "Kernel.__init__", "JointDist.__init__",
        "condition", "pushforward", "mixture", "shift_law", "compose_kernel",
        "disintegrate", "law_of", "radon_nikodym", "uniform", "point_mass",
    ),
    "losses": (
        "LossFn.__call__", "UtilityFn.__call__",
        "LossFn.conjugate_array", "UtilityFn.conjugate_array",
    ),
    "risk": (
        "rho_values", "rho_of_law", "rho_lifted", "rho_conditional",
        "acceptance_member", "rho_entropic", "rho_shortfall", "rho_oce",
        "rho_coherent", "ConditionalRisk.as_law",
    ),
    "divergence": (
        "DivergenceSpec.evaluate", "DivergenceSpec.evaluate_w", "dual_divergence",
        "divergence_for_risk_spec", "dpi_gap", "sufficiency_gap",
        "refinement_monotonicity", "primal_reconstruction", "relative_entropy",
        "phi_divergence", "shortfall_divergence",
    ),
    "consistency": (
        "run_trials", "describe_trial", "counterexample_search", "TrialStats.merge",
        "sample_product_instance", "sample_conditional_instance",
        "sample_boundary_law", "sample_shift_convexity_instance",
        "superadditivity_gap", "weak_consistency_gap", "consistency_gap",
        "weak_acceptance_margin", "integral_lemma_gap", "key_identity_gap",
        "shift_convexity_probe", "property_s_probe", "mixture_convexity_probe",
    ),
    "report": (
        "run_suite", "run_check", "emit_report", "canonical_json",
        "report_document", "SuiteConfig.from_json",
    ),
    "cli": ("main",),
}
COUNTED = {"losses": ("LossFn.conjugate", "UtilityFn.conjugate")}


def divlab_modules() -> list:
    return [m for n, m in list(sys.modules.items()) if m is not None and (n == "divlab" or n.startswith("divlab."))]


def rebind(old, new, undo: list) -> None:
    """Point every divlab module attribute bound to ``old`` at ``new``."""
    for mod in divlab_modules():
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)
                undo.append((mod, attr, old))


def restore(undo: list) -> None:
    while undo:
        owner, attr, old = undo.pop()
        setattr(owner, attr, old)


class _Buffer:
    """One thread's spans, as parallel arrays, and its counts.

    ``link`` is the parent of the thread's root spans.
    """

    def __init__(self, n_names: int):
        self.span_id = array("q")
        self.name_id = array("i")
        self.parent_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list = []
        self.link = -1
        self.counts = [0] * n_names


class Tracer:
    def __init__(self):
        self.names: list = []
        self._local = threading.local()
        self._buffers: list = []
        self._ids = itertools.count()
        self._undo: list = []

    # -- recording ------------------------------------------------------

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buf
        except AttributeError:
            buf = _Buffer(len(self.names))
            self._local.buf = buf
            self._buffers.append(buf)
            return buf

    def _intern(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def current(self) -> int:
        buf = self._buffer()
        return buf.stack[-1] if buf.stack else buf.link

    def _spanned(self, name: str, fn):
        nid = self._intern(name)
        buffer, ids, clock = self._buffer, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = buffer()
            stack = buf.stack
            gid = next(ids)
            i = len(buf.span_id)
            buf.span_id.append(gid)
            buf.name_id.append(nid)
            buf.parent_id.append(stack[-1] if stack else buf.link)
            buf.end.append(0.0)
            stack.append(gid)
            buf.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.end[i] = clock()
                stack.pop()

        return traced

    def _counted(self, name: str, fn):
        nid = self._intern(name)
        buffer = self._buffer

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            buffer().counts[nid] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point this divlab version has."""
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for layer, names in table.items():
                mod = sys.modules.get(f"divlab.{layer}")
                if mod is None:
                    continue
                for name in names:
                    self._wrap(mod, layer, name, make)
        self._link_thread_pool()

    def _wrap(self, mod, layer: str, name: str, make) -> None:
        if "." not in name:
            fn = getattr(mod, name, None)
            if callable(fn):
                rebind(fn, make(f"{layer}.{name}", fn), self._undo)
            return
        cls_name, meth = name.split(".")
        cls = getattr(mod, cls_name, None)
        raw = vars(cls).get(meth) if isinstance(cls, type) else None
        if raw is None:
            return
        full = f"{layer}.{name}"
        if isinstance(raw, classmethod):
            new = classmethod(make(full, raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(make(full, raw.__func__))
        elif callable(raw):
            new = make(full, raw)
        else:
            return
        setattr(cls, meth, new)
        self._undo.append((cls, meth, raw))

    def span_own(self, mod, name: str) -> None:
        """Give the benchmark's own function ``mod.name`` a span, so that its
        time is not counted as self time of the divlab span it runs under."""
        fn = getattr(mod, name)
        setattr(mod, name, self._spanned(f"perfbench.{name}", fn))
        self._undo.append((mod, name, fn))

    def _link_thread_pool(self) -> None:
        """Parent spans run on report's worker threads to the submitting span."""
        report = sys.modules.get("divlab.report")
        pool_cls = getattr(report, "ThreadPoolExecutor", None)
        if pool_cls is not ThreadPoolExecutor:
            return
        tracer = self

        class LinkedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def linked(*a, **k):
                    buf = tracer._buffer()
                    saved, buf.link = buf.link, parent
                    try:
                        return fn(*a, **k)
                    finally:
                        buf.link = saved

                return super().submit(linked, *args, **kwargs)

        setattr(report, "ThreadPoolExecutor", LinkedPool)
        self._undo.append((report, "ThreadPoolExecutor", pool_cls))

    def uninstall(self) -> None:
        restore(self._undo)

    def reset(self) -> None:
        """Drop recorded spans and counts; wrappers stay installed."""
        for buf in self._buffers:
            for arr in (buf.span_id, buf.name_id, buf.parent_id, buf.start, buf.end):
                del arr[:]
            buf.counts = [0] * len(self.names)

    # -- results --------------------------------------------------------

    def spans(self) -> dict:
        """All spans as numpy arrays sorted by span id, with each one's thread."""
        cols = {"span_id": "q", "name_id": "i", "parent_id": "q", "start": "d", "end": "d"}
        out = {
            col: np.concatenate([np.frombuffer(getattr(buf, col), dtype=code) for buf in self._buffers] or [np.zeros(0, code)])
            for col, code in cols.items()
        }
        out["thread"] = np.concatenate(
            [np.full(len(buf.span_id), i) for i, buf in enumerate(self._buffers)] or [np.zeros(0, int)]
        )
        order = np.argsort(out["span_id"], kind="stable")
        return {col: arr[order] for col, arr in out.items()}

    def counts(self) -> dict:
        total = [0] * len(self.names)
        for buf in self._buffers:
            for i, c in enumerate(buf.counts):
                total[i] += c
        return {self.names[i]: c for i, c in enumerate(total) if c}

    def save(self, path) -> None:
        """Write the recorded spans as compressed arrays."""
        sp = self.spans()
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            span_id=sp["span_id"],
            name_id=sp["name_id"],
            parent_id=sp["parent_id"],
            start_s=sp["start"],
            end_s=sp["end"],
        )


@dataclass
class NameStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Analysis:
    """Span totals: per name, per layer, plus a few structural counts."""

    by_name: dict = field(default_factory=dict)
    layer_self_s: dict = field(default_factory=dict)
    layer_calls: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    rho_calls: int = 0
    evals_in_rho: int = 0
    rho_calls_in_dual: int = 0
    emit_s: float = 0.0

    def stats(self, name: str) -> NameStats:
        return self.by_name.get(name, NameStats())


def _covered(intervals: list) -> float:
    """Length of the union of (start, end) intervals."""
    intervals.sort()
    total = 0.0
    cur_s, cur_e = intervals[0]
    for s, e in intervals[1:]:
        if s > cur_e:
            total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    return total + (cur_e - cur_s)


EMITTERS = ("report.emit_report", "report.canonical_json")


def _under(flag: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Spans that have a flagged span among themselves and their ancestors."""
    has = flag.copy()
    linked = parent >= 0
    while True:
        grown = flag | (linked & has[np.where(linked, parent, 0)])
        if np.array_equal(grown, has):
            return has
        has = grown


def analyse(tracer: Tracer) -> Analysis:
    """Self time is a span's duration minus the union of its children's."""
    names = tracer.names
    sp = tracer.spans()
    n = len(sp["span_id"])
    out = Analysis(counts=tracer.counts())
    if n == 0:
        return out
    dur = sp["end"] - sp["start"]
    nid = sp["name_id"]
    # parent ids to row indices; -1 marks a root
    pos = np.searchsorted(sp["span_id"], sp["parent_id"])
    parent = np.where(sp["parent_id"] >= 0, pos, -1)
    linked = parent >= 0
    # children on the parent's thread never overlap, so their durations add
    covered = np.bincount(parent[linked], weights=dur[linked], minlength=n)
    cross = linked & (sp["thread"] != sp["thread"][np.where(linked, parent, 0)])
    for p in np.unique(parent[cross]):
        kids = np.nonzero(parent == p)[0]
        covered[p] = _covered(list(zip(sp["start"][kids], sp["end"][kids])))
    self_s = dur - covered
    calls = np.bincount(nid, minlength=len(names))
    total = np.bincount(nid, weights=dur, minlength=len(names))
    own = np.bincount(nid, weights=self_s, minlength=len(names))
    for i, name in enumerate(names):
        if calls[i]:
            out.by_name[name] = NameStats(int(calls[i]), float(total[i]), float(own[i]))
            layer = name.split(".", 1)[0]
            out.layer_self_s[layer] = out.layer_self_s.get(layer, 0.0) + float(own[i])
            out.layer_calls[layer] = out.layer_calls.get(layer, 0) + int(calls[i])

    def ids(*wanted) -> np.ndarray:
        return np.asarray([names.index(w) for w in wanted if w in names], dtype=int)

    is_rho = np.isin(nid, ids("risk.rho_values"))
    out.rho_calls = int(is_rho.sum())
    in_dual = _under(np.isin(nid, ids("divergence.dual_divergence")), parent)
    out.rho_calls_in_dual = int((is_rho & in_dual).sum())
    evals = np.isin(nid, ids("losses.LossFn.__call__", "losses.UtilityFn.__call__"))
    out.evals_in_rho = int((evals & linked & is_rho[np.where(linked, parent, 0)]).sum())
    emitter = np.isin(nid, ids(*EMITTERS))
    nested = linked & _under(emitter, parent)[np.where(linked, parent, 0)]
    out.emit_s = float(dur[emitter & ~nested].sum())
    return out
