"""Running checks: trials folded into summaries, in this process or on forked span workers, and the search.

``run_trials`` runs a kind's trials in consecutive blocks of at most
BLOCK_ENTRIES padded entries, folds each block's BlockResult into its own
``TrialStats`` and merges them in block order. A trial's gap does not
depend on its block nor on the process that runs it, and summaries merge
exactly, so with a pool this process and each worker run one contiguous
span of a budget's trials (``_trial_stats``) and the result keeps its
bits. ``describe_trial`` replays one trial as a block of one and
serializes its instance;
``counterexample_search`` runs a budget and describes its worst trial.
``SearchBudget``, ``sample_conditional_instance`` and ``consistency_gap``
are imported here too, for callers that read them from this module.
"""

from __future__ import annotations

import math
import os
import threading
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import reduce
from typing import Any, Callable, Iterable, NamedTuple

import numpy as np

from .divergence import DivergenceSpec
from .kinds import BlockResult, _first, check_kind, consistency_gap, resolve_divergence
from .risk import RiskSpec
from .samplers import sample_conditional_instance
from .streams import SearchBudget


# the most padded entries, trials x max_e x max_f, in one block of run_trials:
# 100 trials at sizes 12, 1,600 at sizes 3
BLOCK_ENTRIES = 14_400
# a run opens a pool only for some budget of more than this many trials
POOL_MIN_TRIALS = 100


@dataclass
class TrialStats:
    """Order-independent summary of a block of trials."""

    count: int = 0
    vacuous: int = 0
    nan: int = 0  # trials whose gap is NaN; never ranked, and they fail the check
    exhausted: int = 0  # non-vacuous trials whose solver ran out of its budget; they fail the check
    worst_badness: float = -math.inf
    worst_trial: int | None = None
    worst_gap: float | None = None
    class_worst: dict | None = None  # label -> (badness, trial, gap)

    def merge(self, other: "TrialStats") -> "TrialStats":
        """The summary of both sides' trials.

        The only ranking rule: the worst trial, overall and per class, is the
        one of the largest badness, the earliest among ties, as a loop over
        the trials in order finds it. A class keeps its place in the order
        the sides give it.
        """
        sides = (self, other)
        top = _worst((s.worst_badness, s.worst_trial, s.worst_gap) for s in sides if s.worst_trial is not None)
        classes = [s.class_worst or {} for s in sides]
        labels = dict.fromkeys(label for c in classes for label in c)
        class_worst = {label: _worst(c[label] for c in classes if label in c) for label in labels}
        return TrialStats(
            self.count + other.count,
            self.vacuous + other.vacuous,
            self.nan + other.nan,
            self.exhausted + other.exhausted,
            *(top or (-math.inf, None, None)),
            class_worst or None,
        )

    @classmethod
    def fold(cls, result: BlockResult, first: int, badness: Callable) -> "TrialStats":
        """The summary of a block's BlockResult, whose trial 0 is trial ``first``, built from its arrays.

        A vacuous trial is only counted; a solver's budget counts on the
        others, NaN or not. A NaN gap is counted and never ranked: every
        comparison with NaN is false, so ranked it would mask later gaps.
        The block's worst trial, overall and per class, is its first of the
        largest badness; classes come in the order of their first trial.
        """
        judged = ~result.vacuous
        nan = judged & np.isnan(result.gap)
        exhausted = 0 if result.exhausted is None else int(np.count_nonzero(result.exhausted & judged))
        out = cls(result.gap.size, int(np.count_nonzero(result.vacuous)), int(np.count_nonzero(nan)), exhausted)
        ranked = (judged & ~nan).nonzero()[0]
        if not ranked.size:
            return out
        gap = result.gap[ranked]
        bad = badness(gap)

        def worst(rows: np.ndarray) -> tuple:
            k = rows[_first_largest(bad[rows])]
            return float(bad[k]), first + int(ranked[k]), float(gap[k])

        out.worst_badness, out.worst_trial, out.worst_gap = worst(np.arange(ranked.size))
        if result.product is not None:
            product = result.product[ranked]
            classes = sorted((("product", product), ("general", ~product)), key=lambda c: not c[1][0])
            out.class_worst = {label: worst(rows.nonzero()[0]) for label, rows in classes if rows.any()}
        return out


def _worst(entries: Iterable[tuple]) -> tuple | None:
    """The (badness, trial, gap) of the largest badness, the earliest trial among ties; None for no entries."""
    return max(entries, key=lambda e: (e[0], -e[1]), default=None)


def _first_largest(x: np.ndarray) -> int:
    """The index of the first largest entry of x, which holds no NaN; -0.0 and 0.0 tie."""
    return int(np.argmax(x == x.max()))


def run_trials(
    kind: str,
    risk: RiskSpec | None,
    div: DivergenceSpec | None,
    budget: SearchBudget,
    start: int,
    stop: int,
) -> TrialStats:
    """Evaluate trials [start, stop); summaries merge deterministically.

    The kind's ``trial`` runs on consecutive blocks sized by the instance,
    as many trials as BLOCK_ENTRIES padded entries of max_e x max_f hold,
    so memory stays bounded on any range while small instances pay each
    block's fixed cost (seeding, finishing, batched calls) over many
    trials. A trial's gap is the same bits in any block and when
    ``describe_trial`` replays it alone: every kind sums over atoms in a
    fixed order that zero padding does not change (see ``risk.rho_batch``).
    """
    entry = check_kind(kind)
    stats = TrialStats()
    size = max(1, BLOCK_ENTRIES // (budget.max_e * budget.max_f))
    for first in range(start, stop, size):
        # bound to no name, a block's result is freed before the next block is drawn
        stats = stats.merge(
            TrialStats.fold(entry.trial(risk, div, budget, first, min(first + size, stop)), first, entry.badness)
        )
    return stats


def _trial_stats(
    kind: str,
    risk: RiskSpec | None,
    div: DivergenceSpec | None,
    budget: SearchBudget,
    pool: list[_Worker] | None = None,
) -> TrialStats:
    """run_trials over every trial of the budget.

    Without a pool this is one run_trials call over [0, trials). With a pool
    of cores - 1 workers the trials are cut into one contiguous span per
    usable core: this process sends spans 1, 2, ... to the workers, one
    each, runs span 0 itself, then receives the other spans in span order
    and merges them. A trial's gap does not depend on its block and merging
    is exact, so the result is the same with and without a pool. Errors
    surface in span order, as in one process: one in span 0 first, then a
    worker's, raised again here with the worker's formatted traceback as its
    ``__cause__``, or a RuntimeError for a worker that died during its span.
    The other spans' replies are then left unread: ``_trial_pool``
    terminates the workers as the error leaves its block, so a pool that
    raised once runs nothing more.
    """
    if pool is None:
        return run_trials(kind, risk, div, budget, 0, budget.trials)
    spans = max(1, min(budget.trials, len(pool) + 1))
    bounds = [budget.trials * i // spans for i in range(spans + 1)]
    sent = list(zip(pool, bounds[1:], bounds[2:]))
    for worker, start, stop in sent:
        worker.pipe.send((kind, risk, div, budget, start, stop))
    parts = [run_trials(kind, risk, div, budget, 0, bounds[1])]
    for worker, start, stop in sent:
        parts.append(worker.receive(f"trials [{start}, {stop}) of {kind!r}"))
    return reduce(TrialStats.merge, parts)


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform can say which cores it may use
        return os.cpu_count() or 1


class _RemoteTraceback(Exception):
    """A worker's formatted traceback, the ``__cause__`` of the exception raised again in the parent."""

    def __str__(self) -> str:
        return self.args[0]


class _Worker(NamedTuple):
    """A forked span worker and the parent's end of its pipe."""

    process: Any  # a multiprocessing Process; the module imports multiprocessing only to open a pool
    pipe: Any  # its multiprocessing Connection

    def receive(self, span: str) -> TrialStats:
        """The TrialStats of the span sent last; its exception, raised again; or a RuntimeError if the worker died."""
        try:
            result, trace = self.pipe.recv()
        except (EOFError, OSError):
            self.process.join(1.0)
            raise RuntimeError(
                f"span worker {self.process.pid} exited with code {self.process.exitcode} during {span}"
            ) from None
        if trace is not None:
            raise result from _RemoteTraceback(trace)
        return result


def _span_worker(pipe, inherited) -> None:
    """A worker's loop: run each span that arrives on pipe and send back its TrialStats or its exception.

    It ends on the sentinel None, or when the parent is gone (EOF). It closes
    the parent's ends of the pipes it inherited, its own included, so that
    the parent's exit reads here as EOF, and it ignores SIGINT: on Ctrl-C the
    parent, which gets the same signal, terminates it.
    """
    import signal  # imported here, so that a run without a pool never pays for it

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for end in inherited:
        end.close()
    while True:
        try:
            task = pipe.recv()
        except EOFError:
            return
        if task is None:
            return
        try:
            reply = (run_trials(*task), None)
        except Exception as exc:
            import traceback  # imported here, on the error path only

            reply = (exc, traceback.format_exc())
        pipe.send(reply)


@contextmanager
def _trial_pool(budgets: Iterable[SearchBudget]):
    """cores - 1 forked span workers for a run of these budgets, or None.

    ``_trial_stats`` cuts each budget into one contiguous span per usable
    core; this process runs span 0 and each worker one other span, over
    its own pipe. The pool opens only where it can help and forking is
    safe: at least two usable cores, some budget of more than
    POOL_MIN_TRIALS trials, no other thread in this process (a forked child
    gets a copy of every lock, held ones too), the "fork" start method, and
    a process that is not a daemon (a daemon may have no children). Its
    workers are forked, so they see the kinds and specs of this process as
    they are. When the block ends each worker gets the sentinel None and is
    joined; if the block raises, the workers are terminated and joined
    instead, so no worker outlives the run.
    """
    cores = _usable_cores()
    context = None
    if cores >= 2 and threading.active_count() == 1 and any(b.trials > POOL_MIN_TRIALS for b in budgets):
        import multiprocessing  # imported here, so that a run without a pool never pays for it

        if "fork" in multiprocessing.get_all_start_methods() and not multiprocessing.current_process().daemon:
            context = multiprocessing.get_context("fork")
    if context is None:
        yield None
        return
    pool: list[_Worker] = []
    try:
        for _ in range(cores - 1):
            ours, theirs = context.Pipe()
            inherited = [w.pipe for w in pool] + [ours]
            process = context.Process(target=_span_worker, args=(theirs, inherited), daemon=True)
            process.start()
            pool.append(_Worker(process, ours))
            theirs.close()
        yield pool
    except BaseException:
        for worker in pool:
            worker.process.terminate()
        raise
    else:
        for worker in pool:
            with suppress(OSError):  # a worker that died has closed its end
                worker.pipe.send(None)
    finally:
        for worker in pool:
            worker.process.join()
            worker.pipe.close()


def describe_trial(
    kind: str,
    risk: RiskSpec | None,
    div: DivergenceSpec | None,
    budget: SearchBudget,
    trial: int,
) -> dict:
    """Replay one trial as a block of one and serialize its instance together with its gap."""
    entry = check_kind(kind)
    result = entry.trial(risk, div, budget, trial, trial + 1)
    doc = {"kind": kind, "trial": trial, "seed": budget.seed}
    doc.update(gap=_first(result.gap, result.vacuous), vacuous=bool(result.vacuous[0]))
    if result.product is not None:
        doc["class"] = "product" if result.product[0] else "general"
    instance = entry.serialize(result, 0)
    if instance is not None:
        doc["instance"] = instance
    return doc


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a seeded counterexample hunt."""

    target: str
    trials: int
    vacuous: int
    seed: int
    worst_gap: float | None
    worst_trial: int | None
    worst_instance: dict | None
    class_worst: dict | None
    nan: int = 0  # NaN gaps; emitted only when nonzero
    exhausted: int = 0  # trials whose solver ran out of its budget; emitted only when nonzero

    def as_json(self) -> dict:
        doc = {
            "target": self.target,
            "trials": self.trials,
            "vacuous": self.vacuous,
            "seed": self.seed,
            "worst_gap": self.worst_gap,
            "worst_trial": self.worst_trial,
            "worst_instance": self.worst_instance,
            "class_worst": {
                k: {"badness": v[0], "trial": v[1], "gap": v[2]}
                for k, v in (self.class_worst or {}).items()
            }
            or None,
        }
        if self.nan:
            doc["nan"] = self.nan
        if self.exhausted:
            doc["exhausted"] = self.exhausted
        return doc


def counterexample_search(
    spec: RiskSpec,
    budget: SearchBudget,
    target: str,
    divergence: DivergenceSpec | None = None,
) -> SearchResult:
    """Hunt for the most violating sampled instance of a consistency target.

    Deterministic given the budget seed; the returned instance replays from
    (seed, trial). With zero trials the result is empty and carries no
    verdict. The trials run on every usable core, span 0 in this process
    and one span on each forked worker (see ``_trial_pool``), with the same
    result, and the same error in the same order, as in one process.
    """
    check_kind(target).check_budget(budget, f"target {target!r}")
    div = resolve_divergence(target, spec, divergence)
    with _trial_pool([budget]) as pool:
        stats = _trial_stats(target, spec, div, budget, pool)
    instance = None
    if stats.worst_trial is not None:
        instance = describe_trial(target, spec, div, budget, stats.worst_trial)
    return SearchResult(
        target=target,
        trials=stats.count,
        vacuous=stats.vacuous,
        seed=budget.seed,
        worst_gap=stats.worst_gap,
        worst_trial=stats.worst_trial,
        worst_instance=instance,
        class_worst=stats.class_worst,
        nan=stats.nan,
        exhausted=stats.exhausted,
    )
