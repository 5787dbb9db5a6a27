"""ParallelCampaignExecutor: one engine per worker, one work-stealing queue.

The paper's headline experiments — Fig. 4's effectiveness sweeps, Table I's
attackability column — are grids of *independent* (target × budget × λ ×
attack) jobs.  :class:`~repro.attacks.campaign.AttackCampaign` already
amortises per-job fixed costs onto one shared engine, but it drains the
grid on a single core.  Per-target structural attacks are embarrassingly
parallel across jobs (each job starts from the same clean graph and the
campaign restores the engine between jobs), so the next multiplier is
process-level parallelism:

* the parent captures the graph once as a picklable
  :class:`~repro.oddball.surrogate.EngineSpec` and publishes the pending
  jobs into a shared :class:`~repro.attacks.scheduler.WorkQueue`
  directory;
* each worker rebuilds its own :class:`SurrogateEngine` from the spec
  (``EngineSpec.build`` → ``SurrogateEngine.from_spec``) exactly once, then
  claims jobs one at a time under a heartbeat-renewed lease and runs each
  through :meth:`AttackCampaign.run_job` — the existing
  ``retarget()``/``checkpoint()``/``restore()`` primitives do the per-job
  work, so worker code adds no new attack semantics;
* workers append completed jobs to **per-worker JSONL shard files** in the
  standard :class:`~repro.attacks.campaign.CheckpointStore` format; the
  parent merges the shards into the single-file checkpoint after joining.

Claiming one job at a time divides a grid by cost rather than by job
count, so a cost-skewed grid (a λ-sweep BinarizedAttack next to cheap
GradMax jobs) keeps every worker busy until the queue is dry.  A worker
killed mid-job (``kill -9`` included) stops renewing its lease; the lease
expires after ``lease_ttl`` seconds and a survivor requeues the job.  A run
therefore fails only when jobs are still missing after the drain — and
completed work is merged into the checkpoint before it raises.

Because jobs are keyed by the content hash :attr:`AttackJob.job_id`,
merge/dedupe/resume are order-independent: an interrupted run can be
resumed with a **different** worker count (leftover shards are folded
into the main checkpoint first), and the merged result is bit-identical to
a serial :class:`AttackCampaign` run of the same grid — same flips, same
losses, same rank shifts (parity-tested; the executor is purely a
wall-clock lever).

Scaling: with W workers the critical path drops from ``E + J·t`` to about
``E + J·t/W`` (E = one engine build + clean-score pass, t = mean per-job
cost) plus fork/merge overhead.  See
``benchmarks/bench_parallel_campaign.py``.
"""

from __future__ import annotations

import json
import multiprocessing
import shutil
import tempfile
import time
from pathlib import Path
from typing import Iterable

from repro import telemetry as _telemetry
from repro.attacks import scheduler as _scheduler
from repro.attacks.campaign import (
    AttackCampaign,
    AttackJob,
    CampaignResult,
    CheckpointStore,
    JobOutcome,
    _normalize_graph,
    graph_fingerprint,
    validate_jobs,
)
from repro.kernels import validate_kernels
from repro.oddball.surrogate import EngineSpec, resolve_backend, validate_backend
from repro.utils.logging import get_logger

__all__ = ["ParallelCampaignExecutor", "build_campaign"]

_log = get_logger("attacks.executor")

#: Fork where available (workers inherit loaded modules — no per-worker
#: interpreter/import cost), spawn elsewhere.
_START_METHOD = (
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)


def build_campaign(
    graph,
    *,
    workers: int = 1,
    backend: str = "auto",
    kernels: str = "auto",
    checkpoint_path=None,
    compute_ranks: bool = True,
    scheduler: bool = True,
    lease_ttl: "float | None" = None,
    telemetry: "str | None" = None,
):
    """Serial :class:`AttackCampaign` or a :class:`ParallelCampaignExecutor`.

    The one switch the experiment drivers call: ``workers <= 1`` returns
    the serial campaign, anything larger the queue-draining executor
    (``lease_ttl`` bounds the requeue latency after a worker crash;
    ``None`` defers to ``$REPRO_LEASE_TTL``, then 30 s).  Both expose the
    same ``run(jobs) -> CampaignResult`` surface and produce bit-identical
    results, so callers never branch again.  ``kernels`` selects the
    hot-loop kernel backend (see :mod:`repro.kernels`); either value
    yields the same flips.  ``telemetry`` names a trace directory for the
    :mod:`repro.telemetry` layer (``None`` defers to
    ``$REPRO_TELEMETRY``); tracing changes no results.

    ``scheduler`` exists only for the frozen benchmark harness, which
    passes ``scheduler=True``; static round-robin shards were removed, so
    any false value raises :class:`ValueError`.
    """
    if not scheduler:
        raise ValueError(
            "scheduler=False selected static round-robin shards, which were "
            "removed; every multi-worker campaign drains the work-stealing "
            "queue (drop the argument)"
        )
    if workers <= 1:
        return AttackCampaign(
            graph,
            backend=backend,
            kernels=kernels,
            checkpoint_path=checkpoint_path,
            compute_ranks=compute_ranks,
            telemetry=telemetry,
        )
    return ParallelCampaignExecutor(
        graph,
        workers=workers,
        backend=backend,
        kernels=kernels,
        checkpoint_path=checkpoint_path,
        compute_ranks=compute_ranks,
        lease_ttl=lease_ttl,
        telemetry=telemetry,
    )


class ParallelCampaignExecutor:
    """Drain a campaign's job grid across N workers through a shared queue.

    Parameters
    ----------
    graph:
        :class:`~repro.graph.graph.Graph`, dense adjacency array, scipy
        sparse matrix — the same inputs :class:`AttackCampaign` takes — or
        a :class:`~repro.store.GraphStore`: workers then receive a
        ``store``-kind spec (a path, not arrays) and memory-map one shared
        on-disk graph instead of each holding a CSR copy (sparse-only).
    workers:
        Worker process count (at most one per pending job is started).
    backend:
        Surrogate backend (``"auto"``/``"dense"``/``"sparse"``), resolved
        once in the parent and baked into the :class:`EngineSpec` every
        worker receives — all workers run the identical engine class.
    kernels:
        Hot-loop kernel backend (``"auto"``/``"numpy"``/``"compiled"``,
        see :mod:`repro.kernels`).  Unlike ``backend`` it is shipped
        **unresolved**: each worker resolves it against its own host at
        engine-build time, so an ``"auto"`` fleet mixing hosts with and
        without a C toolchain still produces bit-identical results, while
        an explicit ``"compiled"`` is enforced on every worker.
    checkpoint_path:
        Optional JSONL checkpoint (same single-file format as the serial
        campaign — the two are interchangeable run-over-run).  Worker
        shards live next to it as ``<name>.shard<k>`` and are merged in
        after every run; leftover shards from a killed run are merged
        *before* scheduling, which is what makes resume independent of the
        original worker count.  Without a checkpoint path, shards live in
        a temporary directory and only the in-memory result survives.
    compute_ranks:
        Forwarded to every worker's campaign (per-target rank shifts).
    lease_ttl:
        Seconds a lease survives without a heartbeat renewal
        (``None`` → ``$REPRO_LEASE_TTL`` → 30).  Heartbeats fire every
        ``ttl / 3``, so the TTL bounds *requeue latency after a crash*,
        not job duration — long jobs are safe at any TTL.
    telemetry:
        Optional trace directory for the :mod:`repro.telemetry` layer.
        The parent configures its tracer here (spec capture, drain and
        merge become spans) and each worker opens its own per-worker sink
        keyed by worker id, parented to the drain span — so the merged
        trace directory reads as ONE tree.  ``None`` defers to
        ``$REPRO_TELEMETRY``/earlier configuration; results are
        bit-identical with telemetry on or off.

    Example
    -------
    >>> from repro.graph import erdos_renyi
    >>> from repro.attacks import grid_jobs
    >>> graph = erdos_renyi(60, 0.1, rng=0)
    >>> jobs = grid_jobs("gradmaxsearch", [[1], [2], [3]], budgets=[2],
    ...                  candidates="target_incident")
    >>> result = ParallelCampaignExecutor(graph, workers=2).run(jobs)
    >>> len(result) == 3
    True
    """

    def __init__(
        self,
        graph,
        *,
        workers: int = 2,
        backend: str = "auto",
        kernels: str = "auto",
        checkpoint_path=None,
        compute_ranks: bool = True,
        lease_ttl: "float | None" = None,
        telemetry: "str | None" = None,
    ):
        validate_backend(backend)
        if telemetry is not None:
            _telemetry.configure(telemetry)
        self.kernels = validate_kernels(kernels)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        # A GraphStore-backed executor ships a ``store``-kind EngineSpec (a
        # path, not arrays): workers memory-map the one on-disk graph
        # instead of each holding an unpickled CSR copy.
        from repro.store import GraphStore

        self._graph_store = graph if isinstance(graph, GraphStore) else None
        self._original = _normalize_graph(graph)
        self.backend = resolve_backend(backend, self._original)
        if self._graph_store is not None and self.backend != "sparse":
            raise ValueError(
                "store-backed campaigns are sparse-only; "
                f"got backend={backend!r}"
            )
        self.n = int(self._original.shape[0])
        self.workers = int(workers)
        self.checkpoint_path = (
            None if checkpoint_path is None else Path(checkpoint_path)
        )
        self.compute_ranks = compute_ranks
        self.lease_ttl = _scheduler.resolve_lease_ttl(lease_ttl)
        self._mp = multiprocessing.get_context(_START_METHOD)
        self._fingerprint = graph_fingerprint(self._original, self.backend)
        #: job-id lists per worker shard of the most recent :meth:`run` —
        #: the scaling bench groups per-job timings by worker through this.
        self.last_shards: "list[list[str]]" = []
        #: per-worker ``{"jobs", "cpu_seconds", "wall_seconds", ...}`` dicts
        #: from the most recent :meth:`run` (empty if every job was
        #: resumed).  CPU seconds are contention-free, so they remain the
        #: honest per-worker cost signal even when workers outnumber cores.
        self.last_worker_stats: "list[dict]" = []
        #: parent-side seconds of the most recent :meth:`run` spent outside
        #: the worker drain: checkpoint load, spec capture, queue publish,
        #: shard merge.  ``overhead + max(worker seconds)`` models the wall
        #: time of a run whose workers never contend for cores.
        self.last_overhead_seconds: float = 0.0
        #: Names of workers that exited abnormally in the most recent
        #: :meth:`run` whose jobs were nevertheless recovered by the
        #: survivors (empty on a clean run).
        self.last_dead_workers: "list[str]" = []
        #: Total lease steals (requeues) across workers in the most recent
        #: :meth:`run` — the crash-recovery signal chaos tests assert on.
        self.last_requeues: int = 0

    # ------------------------------------------------------------------ #
    # Orchestration
    # ------------------------------------------------------------------ #
    def run(self, jobs: Iterable[AttackJob]) -> CampaignResult:
        """Execute the grid across workers; ordered, serial-identical result."""
        jobs = validate_jobs(jobs, self.n)
        if self.checkpoint_path is not None:
            completed = self._merge_and_load()
            outcomes = self._execute(jobs, completed, self.checkpoint_path.parent)
        else:
            with tempfile.TemporaryDirectory(prefix="campaign-shards-") as scratch:
                outcomes = self._execute(jobs, {}, Path(scratch))
        return outcomes

    def _execute(
        self,
        jobs: "list[AttackJob]",
        completed: "dict[str, JobOutcome]",
        shard_dir: Path,
    ) -> CampaignResult:
        resumed = sum(1 for job in jobs if job.job_id in completed)
        if resumed:
            _log.info(
                "resuming parallel campaign: %d/%d jobs checkpointed",
                resumed, len(jobs),
            )
        start = time.perf_counter()
        pending = [job for job in jobs if job.job_id not in completed]
        count = min(self.workers, len(pending))
        self.last_shards = []
        self.last_worker_stats = []
        self.last_dead_workers = []
        self.last_requeues = 0
        drain_seconds = 0.0
        if pending:
            queue_dir = self._queue_dir(shard_dir)
            with _telemetry.span(
                "executor.run", workers=count, jobs=len(jobs), resumed=resumed,
            ):
                drain_seconds = self._drain_queue(
                    pending, count, shard_dir, queue_dir
                )
            self.last_worker_stats = self._collect_stats(shard_dir, count)
            self.last_requeues = sum(
                int(stats.get("steals", 0)) for stats in self.last_worker_stats
            )
            # Record who completed what BEFORE the merge deletes the shard
            # files — the benchmark groups per-job timings by worker here.
            self.last_shards = [
                sorted(self._store(self._shard_path(shard_dir, index)).load())
                for index in range(count)
                if self._shard_path(shard_dir, index).exists()
            ]
            with _telemetry.span("executor.merge", shards=len(self.last_shards)):
                self._collect(shard_dir, into=completed)
            missing = [job for job in pending if job.job_id not in completed]
            if missing:
                dead = (
                    f" (dead workers: {self.last_dead_workers})"
                    if self.last_dead_workers
                    else ""
                )
                raise RuntimeError(
                    f"parallel campaign finished with {len(missing)} jobs "
                    f"unaccounted for{dead}; completed jobs "
                    + (
                        "were checkpointed and a rerun will resume from them"
                        if self.checkpoint_path is not None
                        else "were discarded with the run — set a "
                             "checkpoint_path to make failed runs resumable"
                    )
                )
            if self.last_dead_workers:
                _log.warning(
                    "worker(s) %s died mid-lease; their jobs were requeued "
                    "and completed by the surviving workers",
                    self.last_dead_workers,
                )
            shutil.rmtree(queue_dir, ignore_errors=True)
        elapsed = time.perf_counter() - start
        self.last_overhead_seconds = max(elapsed - drain_seconds, 0.0)
        return CampaignResult(
            outcomes=[completed[job.job_id] for job in jobs],
            backend=self.backend,
            n=self.n,
            seconds=elapsed,
            resumed_jobs=resumed,
            worker_stats=list(self.last_worker_stats),
            dead_workers=tuple(self.last_dead_workers),
            requeues=self.last_requeues,
        )

    def _drain_queue(
        self,
        pending: "list[AttackJob]",
        count: int,
        shard_dir: Path,
        queue_dir: Path,
    ) -> float:
        """Publish the queue, spawn ``count`` workers, join them.

        Returns the drain wall seconds (first fork to last join).  A
        worker exiting abnormally does NOT raise here — survivors requeue
        its jobs; :meth:`_execute` only fails if jobs are actually missing
        afterwards.
        """
        # Spec capture copies the whole graph payload (store-backed specs
        # capture only the path) — that is parent overhead (see
        # ``last_overhead_seconds``), so it runs before the drain clock
        # starts.
        shard_dir.mkdir(parents=True, exist_ok=True)
        with _telemetry.span("executor.spec", store=self._graph_store is not None):
            if self._graph_store is not None:
                spec = EngineSpec.from_store(
                    self._graph_store, kernels=self.kernels
                )
            else:
                spec = EngineSpec.from_graph(
                    self._original, backend=self.backend, kernels=self.kernels
                )
        # The queue is ephemeral coordination state: durable truth lives in
        # the shard checkpoints, so a previous (crashed) run's queue is
        # simply replaced.
        if queue_dir.exists():
            shutil.rmtree(queue_dir)
        _scheduler.WorkQueue.create(queue_dir, pending, lease_ttl=self.lease_ttl)
        drain_start = time.perf_counter()
        processes = []
        with _telemetry.span("executor.drain", workers=count):
            for index in range(count):
                args = (
                    spec,
                    str(queue_dir),
                    str(self._shard_path(shard_dir, index)),
                    self.compute_ranks,
                    self.lease_ttl,
                    index,
                )
                # Only extend the args tuple when tracing, so the worker
                # entry point keeps its positional signature (chaos tests
                # monkeypatch it) on untraced runs.
                tspec = _telemetry.worker_spec(f"worker-{index}")
                if tspec is not None:
                    args += (tspec,)
                # Looked up on the module at spawn time so a monkeypatched
                # entry point reaches the forked worker.
                process = self._mp.Process(
                    target=_scheduler._scheduler_worker_main,
                    args=args,
                    name=f"campaign-worker-{index}",
                )
                process.start()
                processes.append(process)
            try:
                for process in processes:
                    process.join()
            except BaseException:
                # Parent interrupted (e.g. KeyboardInterrupt): stop the
                # workers; whatever they checkpointed stays on disk for the
                # next resume.
                for process in processes:
                    if process.is_alive():
                        process.terminate()
                for process in processes:
                    process.join()
                raise
        self.last_dead_workers = [
            p.name for p in processes if p.exitcode != 0
        ]
        return time.perf_counter() - drain_start

    # ------------------------------------------------------------------ #
    # Shard bookkeeping
    # ------------------------------------------------------------------ #
    def _stem(self) -> str:
        return (
            self.checkpoint_path.name
            if self.checkpoint_path is not None
            else "campaign"
        )

    def _shard_path(self, shard_dir: Path, index: int) -> Path:
        return shard_dir / f"{self._stem()}.shard{index}"

    def _queue_dir(self, shard_dir: Path) -> Path:
        return shard_dir / f"{self._stem()}.queue"

    def _store(self, path: Path) -> CheckpointStore:
        return CheckpointStore(path, self._fingerprint, self.backend, self.n)

    def _leftover_shards(self) -> "list[Path]":
        # Literal prefix match, NOT a glob: a checkpoint named e.g.
        # "fig4[ci].json" would turn glob metacharacters into a character
        # class and silently miss every shard.
        assert self.checkpoint_path is not None
        parent = self.checkpoint_path.parent
        if not parent.exists():
            return []
        prefix = self.checkpoint_path.name + ".shard"
        return sorted(
            path
            for path in parent.iterdir()
            if path.name.startswith(prefix) and not path.name.endswith(".stats")
        )

    def _collect_stats(self, shard_dir: Path, count: int) -> "list[dict]":
        """Read (and remove) the per-worker ``.stats`` sidecars of this run."""
        stats = []
        for index in range(count):
            path = Path(str(self._shard_path(shard_dir, index)) + ".stats")
            if not path.exists():
                continue
            try:
                payload = json.loads(path.read_text())
            except json.JSONDecodeError:
                payload = {}
            payload["worker"] = index
            stats.append(payload)
            path.unlink()
        return stats

    def _merge_and_load(self) -> "dict[str, JobOutcome]":
        """Fold any shard files into the main checkpoint, then load it.

        Called before scheduling (folding in a killed run's leftovers — the
        step that makes resume worker-count-independent) and after every
        drain.  Merged shards are deleted; merging is idempotent because
        outcomes are keyed by content-hashed job id.
        """
        assert self.checkpoint_path is not None
        main = self._store(self.checkpoint_path)
        # One parse of the main file, then O(1) appends per new shard
        # outcome — merge_from would re-load the whole checkpoint per
        # shard, which is O(W · file size) on big resumed campaigns.
        outcomes = main.load()
        for shard_path in self._leftover_shards():
            for job_id, outcome in self._store(shard_path).load().items():
                if job_id not in outcomes:
                    main.append(outcome)
                    outcomes[job_id] = outcome
            shard_path.unlink()
            stale_stats = Path(str(shard_path) + ".stats")
            if stale_stats.exists():
                stale_stats.unlink()
        return outcomes

    def _collect(
        self, shard_dir: Path, into: "dict[str, JobOutcome]"
    ) -> None:
        """Merge this run's shards into the result dict (and main file)."""
        if self.checkpoint_path is not None:
            into.update(self._merge_and_load())
            return
        prefix = "campaign.shard"
        for shard_path in sorted(
            path
            for path in shard_dir.iterdir()
            if path.name.startswith(prefix) and not path.name.endswith(".stats")
        ):
            into.update(self._store(shard_path).load())
