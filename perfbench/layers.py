"""Per-layer spans recorded from outside the stack.

:func:`instrument` wraps the public entry points of each ``repro`` layer
(class methods are patched on their class, module functions in every
loaded ``repro`` module that bound them) for the duration of one traced
set-up and campaign.  Each call becomes a span: name, parent, start, end
and a work count where one exists.  Spans stay in memory; a scheduler
worker writes its own when it exits (see :meth:`Tracer.after_fork`).

A span's self time is its duration minus the part of that interval its
child spans cover.  Worker processes keep the parent's open span on their
stack across the fork, so the campaign root's self time is the wall time
during which no traced call ran in any process: the "uncovered" row.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import multiprocessing.util
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass(frozen=True)
class Span:
    id: str
    parent: "str | None"
    name: str
    start_ns: int
    end_ns: int
    items: int = 0
    pid: int = 0
    phase: str = ""

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """In-memory span recorder with one call stack per thread."""

    def __init__(self, flush_dir: Path):
        self.spans: list = []
        #: Tag stamped on new spans ("setup" or "campaign").
        self.phase = ""
        self.flush_dir = flush_dir
        self._ids = itertools.count(1)
        self._local = threading.local()
        # The fork bootstrap of multiprocessing clears the finalizer
        # registry before it runs its after-fork hooks, so a flush hooked
        # through os.register_at_fork would be dropped; this one survives.
        multiprocessing.util.register_after_fork(self, Tracer.after_fork)

    def after_fork(self) -> None:
        """In a new worker: drop the parent's spans, write ours at exit."""
        self.spans = []
        multiprocessing.util.Finalize(self, self.flush, exitpriority=100)

    def flush(self) -> None:
        path = self.flush_dir / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps([asdict(span) for span in self.spans]))

    def collect(self) -> list:
        """Our spans plus every span a worker flushed."""
        spans = list(self.spans)
        for path in sorted(self.flush_dir.glob("spans-*.json")):
            spans += [Span(**record) for record in json.loads(path.read_text())]
        return spans

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, items=None):
        """``fn`` recording one span per call; ``items(args, kwargs, result)``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = f"{os.getpid()}:{next(tracer._ids)}"
            parent = stack[-1] if stack else None
            stack.append(span_id)
            count = 0
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if items is not None:
                    count = int(items(args, kwargs, result))
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append(
                    Span(span_id, parent, name, start, end, count,
                         os.getpid(), tracer.phase)
                )

        return traced


def _count(index: int, name: str):
    """Items = length of argument ``index`` (``name`` when passed by keyword)."""
    def items(args, kwargs, result):
        return len(args[index] if len(args) > index else kwargs[name])
    return items


def _one(args, kwargs, result) -> int:
    return 1


def _length(args, kwargs, result) -> int:
    return len(result)


def _admitted(args, kwargs, result) -> int:
    return 0 if result is args[0] else len(result) - len(args[0])


def _empty(args, kwargs, result) -> int:
    return result is None


#: ``(span name, module, class or None for a function, attribute, items)``
#: of every wrapped entry point; ``items(args, kwargs, result)`` counts
#: the work of one call.
ENTRY_POINTS = (
    ("kernels.scatter_gradient", "repro.kernels.compiled", "CompiledKernels",
     "scatter_pair_gradient", _count(4, "rows")),
    ("kernels.toggle", "repro.kernels.compiled", "ToggleState", "toggle_pairs",
     _count(1, "node_u")),
    ("kernels.toggle", "repro.kernels.compiled", "ToggleState", "toggle_one", _one),
    ("kernels.triangle_counts", "repro.kernels.compiled", "CompiledKernels",
     "triangle_counts", None),
    ("kernels.pair_values", "repro.kernels.compiled", "CompiledKernels",
     "pair_values", _count(2, "rows")),
    ("incremental.init", "repro.graph.incremental", "IncrementalEgonetFeatures",
     "__init__", None),
    ("surrogate.create", "repro.oddball.surrogate", "SurrogateEngine", "create", None),
    ("surrogate.from_spec", "repro.oddball.surrogate", "SurrogateEngine",
     "from_spec", None),
    ("surrogate.retarget", "repro.oddball.surrogate", "SurrogateEngine",
     "retarget", None),
    ("surrogate.binarized_step", "repro.oddball.surrogate", "SparseSurrogateEngine",
     "binarized_step", None),
    ("surrogate.candidate_gradient", "repro.oddball.surrogate",
     "SparseSurrogateEngine", "candidate_gradient", None),
    ("surrogate.pair_gradient", "repro.oddball.surrogate", "SparseSurrogateEngine",
     "pair_gradient", _count(1, "rows")),
    ("candidates.build", "repro.attacks.candidates", "CandidateSet", "build", _length),
    ("candidates.refresh", "repro.attacks.candidates", "AdaptiveCandidateSet",
     "refresh", _admitted),
    ("regression.fit_power_law", "repro.oddball.regression", None,
     "fit_power_law", None),
    ("scores.score_from_features", "repro.oddball.scores", None,
     "score_from_features", None),
    ("scores.rank_positions", "repro.oddball.scores", None, "rank_positions", None),
    ("checkpoint.append", "repro.attacks.campaign", "CheckpointStore", "append", None),
    ("checkpoint.load", "repro.attacks.campaign", "CheckpointStore", "load", None),
    ("checkpoint.merge_from", "repro.attacks.campaign", "CheckpointStore",
     "merge_from", None),
    ("campaign.run", "repro.attacks.campaign", "AttackCampaign", "run", None),
    ("campaign.run_job", "repro.attacks.campaign", "AttackCampaign", "run_job", None),
    ("executor.run", "repro.attacks.executor", "ParallelCampaignExecutor", "run", None),
    ("attack.binarized", "repro.attacks.binarized", "BinarizedAttack", "attack", None),
    ("attack.gradmax", "repro.attacks.gradmax", "GradMaxSearch", "attack", None),
    ("queue.claim", "repro.attacks.scheduler", "WorkQueue", "claim", _empty),
    ("queue.complete", "repro.attacks.scheduler", "WorkQueue", "complete", None),
    ("heartbeat.enter", "repro.attacks.scheduler", "LeaseHeartbeat", "__enter__", None),
    ("heartbeat.exit", "repro.attacks.scheduler", "LeaseHeartbeat", "__exit__", None),
    ("store.open", "repro.store.graphstore", "GraphStore", "open", None),
)

SPAN_NAMES = tuple(dict.fromkeys(entry[0] for entry in ENTRY_POINTS))

#: Work-count name of each span that has one.
ITEM_NAMES = {
    "kernels.scatter_gradient": "pairs",
    "kernels.toggle": "pairs",
    "kernels.pair_values": "pairs",
    "surrogate.pair_gradient": "pairs",
    "candidates.build": "pairs",
    "candidates.refresh": "admitted",
    "queue.claim": "empty",
}

#: Spans whose self time is reported: the composite calls.
SELF_TIMED = (
    "surrogate.binarized_step",
    "surrogate.candidate_gradient",
    "surrogate.pair_gradient",
    "candidates.refresh",
    "campaign.run_job",
    "attack.binarized",
    "attack.gradmax",
)

#: Campaign root spans: the serial campaign and the parallel executors.
ROOTS = ("campaign.run", "executor.run")


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every entry point of :data:`ENTRY_POINTS` while the block runs."""
    undo = []
    try:
        for name, module_name, class_name, attribute, items in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(module, class_name)
                raw = owner.__dict__[attribute]
                if isinstance(raw, classmethod):
                    patched = classmethod(tracer.wrap(name, raw.__func__, items))
                else:
                    patched = tracer.wrap(name, raw, items)
                setattr(owner, attribute, patched)
                undo.append((owner, attribute, raw))
                continue
            original = getattr(module, attribute)
            patched = tracer.wrap(name, original, items)
            for user in list(sys.modules.values()):
                if (getattr(user, "__name__", "").startswith("repro")
                        and getattr(user, attribute, None) is original):
                    setattr(user, attribute, patched)
                    undo.append((user, attribute, original))
        yield tracer
    finally:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)


def self_times(spans) -> dict:
    """Span id → seconds of its interval that no child span covers."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        intervals = sorted(
            (max(child.start_ns, span.start_ns), min(child.end_ns, span.end_ns))
            for child in children.get(span.id, ())
        )
        covered = 0
        reach = span.start_ns
        for start, end in intervals:
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        result[span.id] = (span.end_ns - span.start_ns - covered) / 1e9
    return result


def aggregate(spans, own: "dict | None" = None) -> dict:
    """Span name → ``{"calls", "items", "s", "self_s"}`` over ``spans``.

    ``own`` maps span ids to self seconds; by default it is computed from
    ``spans`` alone.
    """
    own = self_times(spans) if own is None else own
    table = defaultdict(lambda: {"calls": 0, "items": 0, "s": 0.0, "self_s": 0.0})
    for span in spans:
        row = table[span.name]
        row["calls"] += 1
        row["items"] += span.items
        row["s"] += span.seconds
        row["self_s"] += own[span.id]
    return dict(table)


def per_layer_metrics(
    spans,
    *,
    pid: int,
    setup_s: float,
    campaign_s: float,
    untraced_campaign_s: float,
    worker_wall_s: float,
    parent_s: float,
) -> dict:
    """Every per-layer metric of one traced set-up + campaign.

    ``pid`` is the measuring process; spans of other processes are
    worker spans.  Returns ``{name: (value, unit)}``, the same names for
    every workload (0 where a layer did no work).
    """
    rows = aggregate(spans)
    own = self_times(spans)
    metrics = {}
    for name in SPAN_NAMES:
        row = rows.get(name, {"calls": 0, "items": 0, "s": 0.0, "self_s": 0.0})
        metrics[f"{name}.calls"] = (row["calls"], "count")
        if name in ITEM_NAMES:
            metrics[f"{name}.{ITEM_NAMES[name]}"] = (row["items"], "count")
        metrics[f"{name}.s"] = (row["s"], "s")
        if name in SELF_TIMED:
            metrics[f"{name}.self_s"] = (row["self_s"], "s")

    # Admission efficiency of the gradient-ranked refreshes: pairs admitted
    # per pair whose gradient a refresh evaluated to rank them.
    ranked = defaultdict(int)
    for span in spans:
        if span.name == "surrogate.pair_gradient":
            ranked[span.parent] += span.items
    scanned = admitted = 0
    for span in spans:
        if span.name == "candidates.refresh" and span.id in ranked:
            scanned += ranked[span.id]
            admitted += span.items
    metrics["candidates.refresh.scanned"] = (scanned, "count")
    metrics["candidates.refresh.admit_ratio"] = (
        admitted / scanned if scanned else 0.0, "ratio"
    )

    busy = sum(s.seconds for s in spans if s.name == "campaign.run_job" and s.pid != pid)
    metrics["worker.busy_frac"] = (busy / worker_wall_s if worker_wall_s else 0.0, "ratio")
    metrics["executor.parent_s"] = (parent_s, "s")
    metrics["trace.setup_s"] = (setup_s, "s")
    metrics["trace.campaign_s"] = (campaign_s, "s")
    metrics["trace.overhead_s"] = (campaign_s - untraced_campaign_s, "s")
    metrics["trace.uncovered_s"] = (_uncovered(spans, own), "s")
    return metrics


def _uncovered(spans, own: dict) -> float:
    return sum(own[s.id] for s in spans if s.name in ROOTS and s.parent is None)


def table(spans, *, pid: int, setup_s: float, campaign_s: float,
          worker_wall_s: float) -> list:
    """Human-readable per-layer rows: one block per phase and process kind.

    Shares are of the phase's wall time for spans of the measuring
    process, and of the summed worker wall time for worker spans.
    """
    own = self_times(spans)
    blocks = (
        ("setup", setup_s, lambda s: s.phase == "setup"),
        ("campaign", campaign_s, lambda s: s.phase == "campaign" and s.pid == pid),
        ("campaign, workers'", worker_wall_s,
         lambda s: s.phase == "campaign" and s.pid != pid),
    )
    lines = []
    for title, wall, keep in blocks:
        chosen = [s for s in spans if keep(s)]
        if not chosen:
            continue
        rows = aggregate(chosen, own)
        if title == "campaign":
            uncovered = _uncovered(chosen, own)
            rows["(uncovered)"] = {"calls": 0, "items": 0, "s": uncovered,
                                   "self_s": uncovered}
        lines.append(
            f"{title} (wall {wall:.3f} s)".ljust(40)
            + f"{'calls':>8} {'items':>10} {'total_s':>9} {'self_s':>9} {'share':>7}"
        )
        for name, row in sorted(rows.items(), key=lambda item: -item[1]["s"]):
            lines.append(
                f"  {name:<38}{row['calls']:>8} {row['items']:>10} {row['s']:>9.4f} "
                f"{row['self_s']:>9.4f} {row['s'] / wall if wall else 0.0:>6.1%}"
            )
    return lines
