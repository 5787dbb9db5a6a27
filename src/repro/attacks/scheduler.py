"""Work-stealing campaign queue: a shared directory with leases + heartbeats.

:class:`~repro.attacks.executor.ParallelCampaignExecutor` drains a job grid
through this queue.  Campaign grids are *not* uniform in cost — a λ-sweep
BinarizedAttack job runs orders of magnitude longer than a budget-2
GradMaxSearch job — so workers claim jobs one at a time instead of taking
a fixed share, and a worker that dies mid-job loses no work:

* the parent publishes the pending jobs once into a shared
  :class:`WorkQueue` directory (``jobs.jsonl`` + a ``leases/`` and ``done/``
  marker tree);
* each worker repeatedly **claims** the first job that is neither done nor
  covered by a live lease.  A claim atomically writes a JSON lease file
  (content-hashed job id, worker id, monotonic deadline) under a queue-wide
  ``flock`` — the only coordination primitive, held for microseconds;
* while a job runs, a background :class:`LeaseHeartbeat` thread renews the
  lease every ``ttl / 3``, so a *live* slow worker never loses its claim;
* a worker killed mid-job stops heartbeating, its lease **expires** after
  ``ttl``, and the next idle worker's claim pass requeues (steals) the job
  — ``kill -9`` of any worker loses no work;
* completion is two durable steps in a fixed order: append the outcome to
  the worker's JSONL shard checkpoint (the standard
  :class:`~repro.attacks.campaign.CheckpointStore` format), *then* write the
  ``done/`` marker.  A crash between the two requeues an already-recorded
  job, which is why checkpoint merging dedupes by job content hash — the
  merged checkpoint keeps exactly one record either way.

:func:`_scheduler_worker_main` is the worker process's entry point; the
executor spawns one per worker and merges their shard checkpoints.

Scope: the queue coordinates processes on **one host** (monotonic clocks
are comparable machine-wide, ``flock`` is a kernel lock).  Multi-host
fleets mount nothing new — the queue directory and shard checkpoints are
plain files — but need a shared filesystem with coherent rename/flock
semantics.
"""

from __future__ import annotations

import json
import math
import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

try:  # Unix-only stdlib module; the queue degrades to lock-free elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

try:  # Unix-only stdlib module; absent on Windows
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None

import numpy as np

from repro import telemetry as _telemetry
from repro.attacks.campaign import AttackCampaign, AttackJob
from repro.oddball.surrogate import EngineSpec, SurrogateEngine
from repro.utils.logging import get_logger

__all__ = [
    "DEFAULT_LEASE_TTL",
    "LEASE_TTL_ENV",
    "Lease",
    "LeaseHeartbeat",
    "WorkQueue",
    "resolve_lease_ttl",
]

_log = get_logger("attacks.scheduler")

#: Default lease time-to-live in seconds.  Generous on purpose: a lease
#: only has to outlive the *gap between heartbeats* (ttl / 3), not the job,
#: so the cost of a large TTL is merely how long a killed worker's jobs
#: wait before being requeued.
DEFAULT_LEASE_TTL = 30.0

#: Environment override for the lease TTL (the chaos CI lane shrinks it to
#: force the expiry/requeue paths through every scheduler test).
LEASE_TTL_ENV = "REPRO_LEASE_TTL"

_QUEUE_VERSION = 1


def resolve_lease_ttl(value: "float | None" = None) -> float:
    """The effective lease TTL: explicit value > ``$REPRO_LEASE_TTL`` > default.

    Mirrors the precedence scheme of :func:`repro.kernels.resolve_kernels`:
    an explicit argument always wins, the environment variable covers whole
    test/CI processes, and the default is used otherwise.
    """
    if value is None:
        env = os.environ.get(LEASE_TTL_ENV, "").strip()
        if env:
            try:
                value = float(env)
            except ValueError as error:
                raise ValueError(
                    f"${LEASE_TTL_ENV} must be a number of seconds, got {env!r}"
                ) from error
        else:
            value = DEFAULT_LEASE_TTL
    value = float(value)
    if not value > 0.0:
        raise ValueError(f"lease TTL must be positive, got {value}")
    return value


@dataclass(frozen=True)
class Lease:
    """One worker's claim on one job: the content of a lease file.

    ``deadline`` and ``claimed_at`` are ``time.monotonic()`` readings —
    CLOCK_MONOTONIC is machine-wide on Linux, so every process on the host
    compares against the same clock and a wall-clock step (NTP, suspend)
    can never mass-expire live leases.  ``generation`` counts how many
    times the job has been (re)claimed: 0 for a first claim, +1 per steal.
    """

    job_id: str
    worker: str
    deadline: float
    claimed_at: float
    generation: int = 0

    def to_dict(self) -> dict:
        """JSON image of the lease (the on-disk lease-file payload)."""
        return {
            "job_id": str(self.job_id),
            "worker": str(self.worker),
            "deadline": float(self.deadline),
            "claimed_at": float(self.claimed_at),
            "generation": int(self.generation),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Lease":
        """Rebuild a lease from :meth:`to_dict` output.

        Raises :class:`ValueError` on a non-finite ``deadline`` or
        ``claimed_at`` (``json.loads`` accepts ``NaN``/``Infinity``, and
        ``now >= nan`` is never true, so such a lease would never expire)
        and on a negative ``generation``.
        """
        lease = cls(
            job_id=str(payload["job_id"]),
            worker=str(payload["worker"]),
            deadline=float(payload["deadline"]),
            claimed_at=float(payload["claimed_at"]),
            generation=int(payload.get("generation", 0)),
        )
        if not (math.isfinite(lease.deadline) and math.isfinite(lease.claimed_at)):
            raise ValueError(f"lease on {lease.job_id} has a non-finite time")
        if lease.generation < 0:
            raise ValueError(f"lease on {lease.job_id} has a negative generation")
        return lease

    def expired(self, now: float) -> bool:
        """Whether the lease's deadline has passed at monotonic time ``now``."""
        return now >= self.deadline


class WorkQueue:
    """A shared-directory job queue with lease files and done markers.

    Layout::

        <queue_dir>/
            queue.json          # {"version", "jobs", "lease_ttl"}
            jobs.jsonl          # one AttackJob.to_dict() per line (queue order)
            lock                # flock target for claim/renew/complete
            leases/<job_id>.json
            done/<job_id>.json  # {"job_id", "worker", "generation"}

    Everything on disk is JSON-pure (enforced by the
    ``checkpoint-json-purity`` lint scope on this module): the queue can be
    inspected with ``cat`` mid-run and survives any crash — durable truth
    lives in the shard checkpoints, the queue only coordinates.

    The claim scan is deterministic (queue order) so under equal load the
    schedule approximates round-robin; jobs a worker has seen
    completed are cached, making repeated claims O(pending) rather than
    O(total).  All lease mutations happen under one queue-wide ``flock``
    held for the duration of a single scan/write — the kernel releases it
    automatically if the holder is killed, so a ``kill -9`` can never
    wedge the queue.
    """

    def __init__(
        self,
        queue_dir: "Path | str",
        jobs: "list[AttackJob]",
        lease_ttl: float,
        worker: str = "anonymous",
        clock=time.monotonic,
    ):
        self.queue_dir = Path(queue_dir)
        self.jobs = list(jobs)
        self.by_id = {job.job_id: job for job in self.jobs}
        self.lease_ttl = resolve_lease_ttl(lease_ttl)
        self.worker = str(worker)
        self.clock = clock
        self._known_done: "set[str]" = set()
        #: Counters a worker reports in its ``.stats`` sidecar.
        self.claims = 0
        self.steals = 0
        self.heartbeats = 0
        self.lost_leases = 0
        self.completions = 0
        self.duplicate_completions = 0

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def create(
        cls,
        queue_dir: "Path | str",
        jobs: Iterable[AttackJob],
        lease_ttl: "float | None" = None,
    ) -> "WorkQueue":
        """Publish ``jobs`` into a fresh queue directory (parent-side).

        The job list is written atomically (temp file + rename) so a worker
        can never observe a half-written queue; the queue itself is
        ephemeral coordination state — a crashed run's directory is simply
        recreated, because completed work lives in the shard checkpoints,
        not here.
        """
        queue_dir = Path(queue_dir)
        jobs = list(jobs)
        lease_ttl = resolve_lease_ttl(lease_ttl)
        (queue_dir / "leases").mkdir(parents=True, exist_ok=True)
        (queue_dir / "done").mkdir(parents=True, exist_ok=True)
        (queue_dir / "lock").touch()
        tmp = queue_dir / "jobs.jsonl.tmp"
        with tmp.open("w") as handle:
            for job in jobs:
                handle.write(json.dumps(job.to_dict(), sort_keys=True) + "\n")
        tmp.rename(queue_dir / "jobs.jsonl")
        manifest = {
            "version": _QUEUE_VERSION,
            "jobs": len(jobs),
            "lease_ttl": float(lease_ttl),
        }
        tmp = queue_dir / "queue.json.tmp"
        tmp.write_text(json.dumps(manifest) + "\n")
        tmp.rename(queue_dir / "queue.json")
        _telemetry.event(
            "scheduler.publish", jobs=len(jobs), lease_ttl=float(lease_ttl)
        )
        return cls(queue_dir, jobs, lease_ttl)

    @classmethod
    def open(
        cls,
        queue_dir: "Path | str",
        worker: str,
        lease_ttl: "float | None" = None,
        clock=time.monotonic,
    ) -> "WorkQueue":
        """Attach a worker to an existing queue directory.

        ``lease_ttl`` defaults to the TTL recorded at :meth:`create` time so
        every worker agrees on when a lease is stealable; passing a
        different value is a test-only affordance.
        """
        queue_dir = Path(queue_dir)
        manifest = json.loads((queue_dir / "queue.json").read_text())
        if manifest.get("version") != _QUEUE_VERSION:
            raise ValueError(
                f"work queue {queue_dir} has unsupported version "
                f"{manifest.get('version')!r}"
            )
        jobs = [
            AttackJob.from_dict(json.loads(line))
            for line in (queue_dir / "jobs.jsonl").read_text().splitlines()
            if line.strip()
        ]
        if len(jobs) != manifest["jobs"]:
            raise ValueError(
                f"work queue {queue_dir} lists {len(jobs)} jobs but its "
                f"manifest promises {manifest['jobs']}"
            )
        ttl = manifest["lease_ttl"] if lease_ttl is None else lease_ttl
        return cls(queue_dir, jobs, ttl, worker=worker, clock=clock)

    # ------------------------------------------------------------------ #
    # Locking
    # ------------------------------------------------------------------ #
    @contextmanager
    def _locked(self):
        """Queue-wide exclusive flock (no-op where fcntl is unavailable).

        Held only across one claim scan or one lease write — microseconds.
        A killed holder releases it automatically (kernel semantics), so
        the lock can never outlive a crash.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        with (self.queue_dir / "lock").open("a") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    # ------------------------------------------------------------------ #
    # Paths
    # ------------------------------------------------------------------ #
    def _lease_path(self, job_id: str) -> Path:
        return self.queue_dir / "leases" / f"{job_id}.json"

    def _done_path(self, job_id: str) -> Path:
        return self.queue_dir / "done" / f"{job_id}.json"

    def _read_lease(self, job_id: str) -> "Lease | None":
        path = self._lease_path(job_id)
        try:
            return Lease.from_dict(json.loads(path.read_text()))
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            # A torn lease file (its writer was killed mid-rename-window, or
            # its payload fails Lease.from_dict's checks) is treated as
            # expired: the job is immediately stealable, which errs on the
            # side of re-running rather than stranding.
            return None

    def _write_lease(self, lease: Lease) -> None:
        path = self._lease_path(lease.job_id)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(lease.to_dict(), sort_keys=True) + "\n")
        tmp.rename(path)

    # ------------------------------------------------------------------ #
    # Protocol: claim / heartbeat / complete / release
    # ------------------------------------------------------------------ #
    def claim(self) -> "AttackJob | None":
        """Claim the first job that is neither done nor under a live lease.

        Expired leases are requeued in the same pass: the claim overwrites
        the stale lease with a fresh one at ``generation + 1`` (a *steal*).
        Returns ``None`` when every remaining job is either done or held by
        a live lease — the caller should poll again after
        :attr:`poll_interval` (the holder may complete it, or die and let
        the lease expire).
        """
        with self._locked():
            now = self.clock()
            for job in self.jobs:
                job_id = job.job_id
                if job_id in self._known_done:
                    continue
                if self._done_path(job_id).exists():
                    self._known_done.add(job_id)
                    continue
                lease = self._read_lease(job_id)
                generation = 0
                if lease is not None:
                    if not lease.expired(now):
                        continue
                    generation = lease.generation + 1
                    self.steals += 1
                    _log.info(
                        "worker %s requeues job %s (lease of %s expired, "
                        "generation %d)",
                        self.worker, job_id, lease.worker, generation,
                    )
                    _telemetry.event(
                        "scheduler.requeue",
                        job_id=job_id,
                        lost_worker=lease.worker,
                        generation=generation,
                    )
                self._write_lease(
                    Lease(
                        job_id=job_id,
                        worker=self.worker,
                        deadline=now + self.lease_ttl,
                        claimed_at=now,
                        generation=generation,
                    )
                )
                self.claims += 1
                _telemetry.event(
                    "scheduler.claim", job_id=job_id, generation=generation
                )
                return job
        return None

    def heartbeat(self, job_id: str) -> bool:
        """Renew this worker's lease on ``job_id``; ``False`` if it was lost.

        A lease is lost when it expired and another worker stole it (or the
        job is already done).  The caller keeps running the in-flight job
        either way — results are deterministic and the merge dedupes by job
        content hash, so finishing is cheaper than abandoning mid-attack —
        but a lost lease is counted so the stats surface it.
        """
        with self._locked():
            lease = self._read_lease(job_id)
            if lease is None or lease.worker != self.worker:
                self.lost_leases += 1
                _telemetry.event("scheduler.lease_lost", job_id=job_id)
                return False
            now = self.clock()
            self._write_lease(
                Lease(
                    job_id=job_id,
                    worker=self.worker,
                    deadline=now + self.lease_ttl,
                    claimed_at=lease.claimed_at,
                    generation=lease.generation,
                )
            )
            self.heartbeats += 1
            _telemetry.event("scheduler.heartbeat", job_id=job_id)
            return True

    def complete(self, job_id: str) -> bool:
        """Mark ``job_id`` done and drop this worker's lease.

        Must be called *after* the outcome is durable in the worker's shard
        checkpoint — the marker is the queue's signal to stop handing the
        job out, the shard is the record.  Returns ``False`` when another
        worker already completed it (the slow-but-alive double-completion
        case); the duplicate shard record is deduped at merge time.
        """
        with self._locked():
            lease = self._read_lease(job_id)
            generation = lease.generation if lease is not None else 0
            first = True
            try:
                fd = os.open(
                    self._done_path(job_id),
                    os.O_WRONLY | os.O_CREAT | os.O_EXCL,
                )
            except FileExistsError:
                first = False
                self.duplicate_completions += 1
            else:
                with os.fdopen(fd, "w") as handle:
                    handle.write(
                        json.dumps(
                            {
                                "job_id": str(job_id),
                                "worker": str(self.worker),
                                "generation": int(generation),
                            },
                            sort_keys=True,
                        )
                        + "\n"
                    )
            if lease is not None and lease.worker == self.worker:
                self._lease_path(job_id).unlink(missing_ok=True)
            self._known_done.add(job_id)
            self.completions += 1
            _telemetry.event("scheduler.complete", job_id=job_id, first=first)
            return first

    def release(self, job_id: str) -> None:
        """Drop this worker's lease without completing (graceful give-back)."""
        with self._locked():
            lease = self._read_lease(job_id)
            if lease is not None and lease.worker == self.worker:
                self._lease_path(job_id).unlink(missing_ok=True)
                _telemetry.event("scheduler.release", job_id=job_id)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def poll_interval(self) -> float:
        """How long an idle worker sleeps between claim passes.

        At most 10 ms, so a worker waiting on a peer's last job sees the
        drained queue promptly, and at most ``ttl / 10``, so an expired
        lease is stolen within a tenth of its TTL.
        """
        return min(self.lease_ttl / 10.0, 0.01)

    def lease_of(self, job_id: str) -> "Lease | None":
        """The current lease on ``job_id`` (``None`` if unleased)."""
        with self._locked():
            return self._read_lease(job_id)

    def done_ids(self) -> "set[str]":
        """Job ids with a done marker (one listdir; no lock needed)."""
        return {
            name[: -len(".json")] if name.endswith(".json") else name
            for name in os.listdir(self.queue_dir / "done")
        }

    def all_done(self) -> bool:
        """Whether every job in the queue has a done marker."""
        return len(os.listdir(self.queue_dir / "done")) >= len(self.jobs)

    def remaining(self) -> int:
        """Jobs without a done marker (leased in-flight jobs included)."""
        return len(self.jobs) - len(os.listdir(self.queue_dir / "done"))

    def stats(self) -> dict:
        """This worker's protocol counters (JSON-pure)."""
        return {
            "claims": int(self.claims),
            "steals": int(self.steals),
            "heartbeats": int(self.heartbeats),
            "lost_leases": int(self.lost_leases),
            "completions": int(self.completions),
            "duplicate_completions": int(self.duplicate_completions),
        }


class LeaseHeartbeat:
    """Background thread renewing one lease while its job runs.

    Renews every ``ttl / 3`` (so two renewals can fail before the lease is
    stealable).  Used as a context manager around the job execution; if a
    renewal reports the lease lost, renewing stops (:attr:`lost` is set)
    but the job is allowed to finish — see :meth:`WorkQueue.heartbeat`.
    """

    def __init__(self, queue: WorkQueue, job_id: str, interval: "float | None" = None):
        self.queue = queue
        self.job_id = job_id
        self.interval = (
            queue.lease_ttl / 3.0 if interval is None else float(interval)
        )
        self.lost = False
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                if not self.queue.heartbeat(self.job_id):
                    self.lost = True
                    _log.warning(
                        "worker %s lost its lease on job %s mid-run; "
                        "finishing anyway (merge dedupes by job id)",
                        self.queue.worker, self.job_id,
                    )
                    return
            except OSError:  # pragma: no cover - transient fs failure
                # A failed renewal is survivable until the TTL runs out;
                # the next tick retries.
                continue

    def __enter__(self) -> "LeaseHeartbeat":
        """Start renewing in a daemon thread."""
        self._thread = threading.Thread(
            target=self._run, name=f"lease-heartbeat-{self.job_id}", daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        """Stop the renewal thread (joins; the lease stays with the worker)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()


def _max_rss_kb() -> int:
    """This process's peak RSS in KiB (0 on platforms without getrusage).

    ``ru_maxrss`` is KiB on Linux but *bytes* on macOS — normalised here so
    every ``.stats`` sidecar speaks the same unit.  With the fork start
    method this includes pages inherited copy-on-write from the parent, so
    it is an honest "what this process kept mapped" number, not a
    private-bytes number.
    """
    if resource is None:
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(peak // 1024) if sys.platform == "darwin" else int(peak)


def _scheduler_worker_main(
    spec: EngineSpec,
    queue_dir: str,
    shard_path: str,
    compute_ranks: bool,
    lease_ttl: float,
    worker_index: int,
    telemetry: "dict | None" = None,
) -> None:
    """Entry point of one executor worker: drain the shared queue.

    Runs in the child.  One engine is built lazily on the first claim
    (the :class:`EngineSpec` round-trip), then every claimed job runs
    through :meth:`AttackCampaign.run_job` under a lease heartbeat.  The
    durability order is fixed: shard append **then** done marker — a crash
    between the two requeues a job whose record already exists, and the
    merge dedupes by job content hash.

    ``telemetry`` is a :func:`repro.telemetry.worker_spec` payload (or
    ``None``): the worker first opens its OWN per-worker sink (or disables
    the fork-inherited tracer), so parent and child never write one file.

    A ``<shard>.stats`` sidecar records the worker's job count, CPU and
    wall seconds, peak RSS and queue counters; CPU seconds are the
    contention-free cost signal when workers outnumber cores.
    """
    _telemetry.worker_configure(telemetry)
    try:
        with _telemetry.span("worker.run"):
            _scheduler_worker_drain(
                spec, queue_dir, shard_path, compute_ranks, lease_ttl,
                worker_index,
            )
    finally:
        _telemetry.shutdown()


def _scheduler_worker_drain(
    spec: EngineSpec,
    queue_dir: str,
    shard_path: str,
    compute_ranks: bool,
    lease_ttl: float,
    worker_index: int,
) -> None:
    """The claim/run/complete loop of :func:`_scheduler_worker_main`."""
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    queue = WorkQueue.open(
        queue_dir, worker=f"worker-{worker_index}-pid{os.getpid()}",
        lease_ttl=lease_ttl,
    )
    graph = None
    campaign: "AttackCampaign | None" = None
    shard_store = None
    jobs_done = 0
    while True:
        job = queue.claim()
        if job is None:
            if queue.all_done():
                break
            time.sleep(queue.poll_interval)
            continue
        if campaign is None:
            # Empty candidate set, exactly like AttackCampaign's lazy
            # construction: every job retargets with its own pairs, and
            # ``None`` would materialise all n(n−1)/2 upper-triangle pairs
            # — 50M entries at n = 10 000.
            empty = (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp))
            graph = spec.to_graph()
            engine = SurrogateEngine.from_spec(
                spec, job.targets, candidates=empty, graph=graph
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
            shard_store = campaign.checkpoint_store()
        with LeaseHeartbeat(queue, job.job_id):
            outcome = campaign.run_job(job)
        assert shard_store is not None
        shard_store.append(outcome)  # durable BEFORE the done marker
        queue.complete(job.job_id)
        jobs_done += 1
    stats = {
        "jobs": jobs_done,
        "cpu_seconds": time.process_time() - cpu_start,
        "wall_seconds": time.perf_counter() - wall_start,
        "max_rss_kb": _max_rss_kb(),
        **queue.stats(),
    }
    Path(shard_path + ".stats").write_text(json.dumps(stats) + "\n")
