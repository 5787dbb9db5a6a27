"""ParallelCampaignExecutor: one engine per worker, sharded job queue.

The paper's headline experiments — Fig. 4's effectiveness sweeps, Table I's
attackability column — are grids of *independent* (target × budget × λ ×
attack) jobs.  :class:`~repro.attacks.campaign.AttackCampaign` already
amortises per-job fixed costs onto one shared engine, but it drains the
grid on a single core.  Per-target structural attacks are embarrassingly
parallel across jobs (each job starts from the same clean graph and the
campaign restores the engine between jobs), so the next multiplier is
process-level parallelism:

* the parent captures the graph once as a picklable
  :class:`~repro.oddball.surrogate.EngineSpec` and **shards** the pending
  job list round-robin across N worker processes;
* each worker rebuilds its own :class:`SurrogateEngine` from the spec
  (``EngineSpec.build`` → ``SurrogateEngine.from_spec``) exactly once,
  then drains its shard through a plain :class:`AttackCampaign` — the
  existing ``retarget()``/``checkpoint()``/``restore()`` primitives do the
  per-job work, so worker code adds no new attack semantics;
* workers append completed jobs to **per-worker JSONL shard files** in the
  standard :class:`~repro.attacks.campaign.CheckpointStore` format; the
  parent merges the shards into the single-file checkpoint after joining
  (and *before* raising, if a worker died — completed work is never lost).

Because jobs are keyed by the content hash :attr:`AttackJob.job_id`,
merge/dedupe/resume are order-independent: a run interrupted mid-shard can
be resumed with a **different** worker count (leftover shards are folded
into the main checkpoint first), and the merged result is bit-identical to
a serial :class:`AttackCampaign` run of the same grid — same flips, same
losses, same rank shifts (parity-tested; the executor is purely a
wall-clock lever).

Scaling: with W workers the critical path drops from ``E + J·t`` to
``E + ceil(J/W)·t`` (E = one engine build + clean-score pass, t = per-job
cost) plus fork/merge overhead — near-linear while ``J·t`` dominates,
which Fig. 4-scale grids (hundreds of jobs) comfortably reach.  See
``benchmarks/bench_parallel_campaign.py``.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
import tempfile
import time
from pathlib import Path
from typing import Iterable

try:  # Unix-only stdlib module; absent on Windows
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None

import numpy as np

from repro import telemetry as _telemetry
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
from repro.oddball.surrogate import (
    EngineSpec,
    SurrogateEngine,
    resolve_backend,
    validate_backend,
)
from repro.utils.logging import get_logger

__all__ = ["ParallelCampaignExecutor", "build_campaign"]

_log = get_logger("attacks.executor")


def build_campaign(
    graph,
    *,
    workers: int = 1,
    backend: str = "auto",
    kernels: str = "auto",
    checkpoint_path=None,
    compute_ranks: bool = True,
    scheduler: bool = False,
    lease_ttl: "float | None" = None,
    telemetry: "str | None" = None,
):
    """Serial :class:`AttackCampaign` or a :class:`ParallelCampaignExecutor`.

    The one switch the experiment drivers call: ``workers <= 1`` returns
    the serial campaign, anything larger the parallel executor — with
    ``scheduler=True`` the work-stealing
    :class:`~repro.attacks.scheduler.SchedulingCampaignExecutor`, whose
    shared queue keeps workers busy on cost-skewed grids and requeues a
    killed worker's jobs (``lease_ttl`` bounds the requeue latency; ``None``
    defers to ``$REPRO_LEASE_TTL``, then 30 s).  All three expose the same
    ``run(jobs) -> CampaignResult`` surface and produce bit-identical
    results, so callers never branch again.  ``kernels`` selects the
    hot-loop kernel backend (see :mod:`repro.kernels`); either value
    yields the same flips.  ``telemetry`` names a trace directory for the
    :mod:`repro.telemetry` layer (``None`` defers to
    ``$REPRO_TELEMETRY``); tracing changes no results.
    """
    if workers <= 1:
        return AttackCampaign(
            graph,
            backend=backend,
            kernels=kernels,
            checkpoint_path=checkpoint_path,
            compute_ranks=compute_ranks,
            telemetry=telemetry,
        )
    if scheduler:
        # Imported lazily: scheduler.py imports from this module.
        from repro.attacks.scheduler import SchedulingCampaignExecutor

        return SchedulingCampaignExecutor(
            graph,
            workers=workers,
            backend=backend,
            kernels=kernels,
            checkpoint_path=checkpoint_path,
            compute_ranks=compute_ranks,
            lease_ttl=lease_ttl,
            telemetry=telemetry,
        )
    return ParallelCampaignExecutor(
        graph,
        workers=workers,
        backend=backend,
        kernels=kernels,
        checkpoint_path=checkpoint_path,
        compute_ranks=compute_ranks,
        telemetry=telemetry,
    )


def _worker_main(
    spec: EngineSpec,
    jobs: "list[AttackJob]",
    shard_path: str,
    compute_ranks: bool,
    telemetry: "dict | None" = None,
) -> None:
    """Entry point of one worker process: build one engine, drain one shard.

    Runs in the child.  The engine comes from the spec round-trip
    (:meth:`EngineSpec.build`), the shard drains through a plain
    :class:`AttackCampaign` whose checkpoint file *is* the shard, so every
    completed job is durable the moment it finishes — a killed worker
    loses at most the job it was executing.

    ``telemetry`` is a :func:`repro.telemetry.worker_spec` payload (or
    ``None``): the first thing the worker does is open its OWN per-worker
    sink (or disable the fork-inherited tracer), so parent and child
    never write one file and the merged trace stays one tree.

    A ``<shard>.stats`` sidecar records the worker's CPU and wall seconds;
    the parent collects these into
    :attr:`ParallelCampaignExecutor.last_worker_stats`.  CPU seconds are
    the contention-free cost signal: on a core-starved machine the wall
    clock of W time-sharing workers stretches by up to W×, while CPU time
    measures the work itself.
    """
    _telemetry.worker_configure(telemetry)
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    try:
        with _telemetry.span("worker.run", jobs=len(jobs)):
            # Empty candidate set, exactly like AttackCampaign's lazy
            # construction: every job retargets with its own pairs, and
            # ``None`` would materialise all n(n−1)/2 upper-triangle pairs
            # — 50M entries at n = 10 000.
            empty = (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp))
            graph = spec.to_graph()  # materialised once: engine + campaign share it
            engine = SurrogateEngine.from_spec(
                spec, jobs[0].targets, candidates=empty, graph=graph
            )
            campaign = AttackCampaign(
                graph,
                backend=spec.backend,
                # The spec carries the REQUESTED kernels flag (possibly
                # "auto"); the engine build above resolved it against THIS
                # host, and the campaign default keeps per-job attack
                # params consistent with it.
                kernels=spec.kernels,
                checkpoint_path=shard_path,
                compute_ranks=compute_ranks,
                engine=engine,
            )
            campaign.run(jobs)
        stats = {
            "jobs": len(jobs),
            "cpu_seconds": time.process_time() - cpu_start,
            "wall_seconds": time.perf_counter() - wall_start,
            # Peak resident set of this worker in KiB: the memory signal the
            # store-vs-payload benchmark compares.  With the fork start method
            # this includes pages inherited copy-on-write from the parent, so
            # it is an honest "what this process kept mapped" number, not a
            # private-bytes number.  0 where getrusage is unavailable.
            "max_rss_kb": _max_rss_kb(),
        }
        Path(shard_path + ".stats").write_text(json.dumps(stats) + "\n")
    finally:
        _telemetry.shutdown()  # flush the worker's counters before exit


def _max_rss_kb() -> int:
    """This process's peak RSS in KiB (0 on platforms without getrusage).

    ``ru_maxrss`` is KiB on Linux but *bytes* on macOS — normalised here so
    every ``.stats`` sidecar speaks the same unit.
    """
    if resource is None:
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(peak // 1024) if sys.platform == "darwin" else int(peak)


class ParallelCampaignExecutor:
    """Drain a campaign's job grid across N worker processes.

    Parameters
    ----------
    graph:
        :class:`~repro.graph.graph.Graph`, dense adjacency array, scipy
        sparse matrix — the same inputs :class:`AttackCampaign` takes — or
        a :class:`~repro.store.GraphStore`: workers then receive a
        ``store``-kind spec (a path, not arrays) and memory-map one shared
        on-disk graph instead of each holding a CSR copy (sparse-only).
    workers:
        Worker process count.  Sharding is round-robin over the pending
        (non-checkpointed) jobs; a shard never exceeds
        ``ceil(pending / workers)`` jobs.
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
    telemetry:
        Optional trace directory for the :mod:`repro.telemetry` layer.
        The parent configures its tracer here (spec capture, drain and
        merge become spans) and each worker opens its own per-worker sink
        keyed by worker id, parented to the drain span — so the merged
        trace directory reads as ONE tree.  ``None`` defers to
        ``$REPRO_TELEMETRY``/earlier configuration; results are
        bit-identical with telemetry on or off.
    mp_context:
        Optional :mod:`multiprocessing` start-method name.  Defaults to
        ``"fork"`` where available (workers inherit loaded modules — no
        per-worker interpreter/import cost) and ``"spawn"`` elsewhere.

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
        mp_context: "str | None" = None,
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
        if mp_context is None:
            mp_context = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
        self._mp = multiprocessing.get_context(mp_context)
        self._fingerprint = graph_fingerprint(self._original, self.backend)
        #: job-id lists per shard of the most recent :meth:`run` — the
        #: scaling bench groups per-job timings by worker through this.
        self.last_shards: "list[list[str]]" = []
        #: per-worker ``{"jobs", "cpu_seconds", "wall_seconds"}`` dicts from
        #: the most recent :meth:`run` (empty if every job was resumed).
        #: CPU seconds are contention-free, so they remain the honest
        #: per-worker cost signal even when workers outnumber cores.
        self.last_worker_stats: "list[dict]" = []
        #: parent-side seconds of the most recent :meth:`run` spent outside
        #: the worker drain: checkpoint load, sharding, spec capture, shard
        #: merge.  ``overhead + max(worker seconds)`` models the wall time
        #: of a run whose workers never contend for cores.
        self.last_overhead_seconds: float = 0.0

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
        shards = self._shard(pending)
        self.last_shards = [[job.job_id for job in shard] for shard in shards]
        self.last_worker_stats = []
        drain_seconds = 0.0
        with _telemetry.span(
            "executor.run", workers=self.workers, jobs=len(jobs),
            resumed=resumed,
        ):
            if shards:
                drain_seconds = self._run_workers(shards, shard_dir)
                self.last_worker_stats = self._collect_stats(
                    shard_dir, len(shards)
                )
                with _telemetry.span("executor.merge", shards=len(shards)):
                    merged = self._collect(shard_dir, into=completed)
                missing = [
                    job for job in pending if job.job_id not in completed
                ]
                if missing:
                    raise RuntimeError(
                        f"parallel campaign finished with {len(missing)} jobs "
                        "unaccounted for (first missing: "
                        f"{missing[0].to_dict()!r})"
                    )
                _log.debug(
                    "merged %d outcomes from %d shards", merged, len(shards)
                )
        elapsed = time.perf_counter() - start
        self.last_overhead_seconds = max(elapsed - drain_seconds, 0.0)
        return CampaignResult(
            outcomes=[completed[job.job_id] for job in jobs],
            backend=self.backend,
            n=self.n,
            seconds=elapsed,
            resumed_jobs=resumed,
            worker_stats=list(self.last_worker_stats),
        )

    def _shard(self, pending: "list[AttackJob]") -> "list[list[AttackJob]]":
        """Round-robin shards (at most ``workers``, none empty)."""
        count = min(self.workers, len(pending))
        shards: "list[list[AttackJob]]" = [[] for _ in range(count)]
        for index, job in enumerate(pending):
            shards[index % count].append(job)
        return shards

    def _run_workers(self, shards, shard_dir: Path) -> float:
        """Spawn one process per shard; join; merge shards even on failure.

        Returns the wall seconds of the drain (start of first fork to last
        join) so :meth:`run` can separate parent overhead from worker time.
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
        drain_start = time.perf_counter()
        drain_span = _telemetry.span("executor.drain", workers=len(shards))
        processes = []
        with drain_span:
            for index, shard in enumerate(shards):
                args = (spec, shard, str(self._shard_path(shard_dir, index)),
                        self.compute_ranks)
                # Only extend the args tuple when tracing, so the worker
                # entry point keeps its historical positional signature
                # (tests monkeypatch it) on untraced runs.
                tspec = _telemetry.worker_spec(f"worker-{index}")
                if tspec is not None:
                    args += (tspec,)
                process = self._mp.Process(
                    target=_worker_main,
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
        failed = [p.name for p in processes if p.exitcode != 0]
        if failed:
            if self.checkpoint_path is not None:
                # Merge what the dead workers DID complete before raising,
                # so a rerun resumes instead of repeating their work.
                self._merge_and_load()
                detail = (
                    "completed jobs were checkpointed and a rerun will "
                    "resume from them"
                )
            else:
                detail = (
                    "no checkpoint_path was set, so completed jobs were "
                    "discarded with the run — set one to make failed runs "
                    "resumable"
                )
            raise RuntimeError(
                f"campaign worker(s) {failed} exited abnormally; {detail}"
            )
        return time.perf_counter() - drain_start

    # ------------------------------------------------------------------ #
    # Shard bookkeeping
    # ------------------------------------------------------------------ #
    def _shard_path(self, shard_dir: Path, index: int) -> Path:
        stem = (
            self.checkpoint_path.name
            if self.checkpoint_path is not None
            else "campaign"
        )
        return shard_dir / f"{stem}.shard{index}"

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
        step that makes resume worker-count-independent) and after a failed
        run.  Merged shards are deleted; merging is idempotent because
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
    ) -> int:
        """Merge this run's shards into the result dict (and main file).

        Returns the number of outcomes actually added to ``into`` (not the
        total checkpoint size — resumed jobs are already there).
        """
        before = len(into)
        if self.checkpoint_path is not None:
            into.update(self._merge_and_load())
            return len(into) - before
        prefix = "campaign.shard"
        shard_paths = sorted(
            path
            for path in shard_dir.iterdir()
            if path.name.startswith(prefix) and not path.name.endswith(".stats")
        )
        for shard_path in shard_paths:
            into.update(self._store(shard_path).load())
        return len(into) - before
