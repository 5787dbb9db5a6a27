"""Work-queue semantics: leases, heartbeats and steals are a
fault-tolerance lever, never a semantics change.  A SIGKILL'd worker's
jobs must be requeued and recovered (chaos tests), a corrupt lease must
never strand its job, and a job legitimately completed twice must keep
exactly one record in the merged checkpoint.  Parity with the serial
campaign and checkpoint interop live in ``test_executor.py``."""

import json
import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.attacks import (
    AttackCampaign,
    ParallelCampaignExecutor,
    WorkQueue,
    grid_jobs,
)
from repro.attacks.campaign import CheckpointStore, JobOutcome
from repro.attacks.scheduler import (
    DEFAULT_LEASE_TTL,
    LEASE_TTL_ENV,
    LeaseHeartbeat,
    resolve_lease_ttl,
)
pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="scheduler chaos tests monkeypatch worker entry points through fork",
)

# graph_and_targets / sweep_jobs / assert_outcomes_identical come from
# tests/conftest.py (shared campaign fixtures)


class FakeClock:
    """Deterministic stand-in for ``time.monotonic`` (lease-expiry tests)."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _queue_jobs(count=5):
    return grid_jobs(
        "gradmaxsearch", [[t] for t in range(count)], budgets=[1],
        candidates="target_incident",
    )


class TestLeaseTtlResolution:
    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(LEASE_TTL_ENV, "5")
        assert resolve_lease_ttl(2.0) == 2.0

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv(LEASE_TTL_ENV, "7.5")
        assert resolve_lease_ttl() == 7.5

    def test_default_without_env(self, monkeypatch):
        monkeypatch.delenv(LEASE_TTL_ENV, raising=False)
        assert resolve_lease_ttl() == DEFAULT_LEASE_TTL

    def test_invalid_env_raises(self, monkeypatch):
        monkeypatch.setenv(LEASE_TTL_ENV, "soon")
        with pytest.raises(ValueError, match=LEASE_TTL_ENV):
            resolve_lease_ttl()

    def test_nonpositive_ttl_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            resolve_lease_ttl(0.0)

    def test_executor_picks_up_env(self, monkeypatch, graph_and_targets):
        graph, _ = graph_and_targets
        monkeypatch.setenv(LEASE_TTL_ENV, "7.5")
        executor = ParallelCampaignExecutor(graph, workers=2)
        assert executor.lease_ttl == 7.5


class TestWorkQueue:
    def test_create_open_round_trip(self, tmp_path):
        jobs = _queue_jobs(5)
        WorkQueue.create(tmp_path / "q", jobs, lease_ttl=3.0)
        queue = WorkQueue.open(tmp_path / "q", worker="w0")
        assert [job.job_id for job in queue.jobs] == [job.job_id for job in jobs]
        assert queue.lease_ttl == 3.0
        assert queue.remaining() == 5 and not queue.all_done()

    @pytest.mark.parametrize("ttl, poll", [(30.0, 0.01), (1.0, 0.01), (0.05, 0.005)])
    def test_idle_poll_is_at_most_10ms_and_a_tenth_of_the_ttl(
        self, tmp_path, ttl, poll
    ):
        """A worker waiting on a peer's last job must see the drained queue
        within ~10 ms, whatever the TTL; short TTLs poll faster still."""
        WorkQueue.create(tmp_path / "q", _queue_jobs(1), lease_ttl=ttl)
        queue = WorkQueue.open(tmp_path / "q", worker="w0")
        assert queue.poll_interval == pytest.approx(poll)

    def test_claims_follow_queue_order_and_write_leases(self, tmp_path):
        jobs = _queue_jobs(3)
        WorkQueue.create(tmp_path / "q", jobs, lease_ttl=10.0)
        queue = WorkQueue.open(tmp_path / "q", worker="w0")
        first = queue.claim()
        assert first.job_id == jobs[0].job_id
        lease = queue.lease_of(first.job_id)
        assert lease.worker == "w0" and lease.generation == 0
        assert queue.claim().job_id == jobs[1].job_id

    def test_claim_returns_none_when_all_leased_or_done(self, tmp_path):
        jobs = _queue_jobs(2)
        WorkQueue.create(tmp_path / "q", jobs, lease_ttl=10.0)
        alice = WorkQueue.open(tmp_path / "q", worker="alice")
        bob = WorkQueue.open(tmp_path / "q", worker="bob")
        alice.claim(), alice.claim()
        assert bob.claim() is None          # both live-leased by alice
        alice.complete(jobs[0].job_id)
        alice.complete(jobs[1].job_id)
        assert bob.claim() is None and bob.all_done()

    def test_complete_marks_done_and_drops_lease(self, tmp_path):
        jobs = _queue_jobs(2)
        WorkQueue.create(tmp_path / "q", jobs, lease_ttl=10.0)
        queue = WorkQueue.open(tmp_path / "q", worker="w0")
        job = queue.claim()
        assert queue.complete(job.job_id) is True
        assert queue.lease_of(job.job_id) is None
        assert job.job_id in queue.done_ids()
        assert queue.remaining() == 1

    def test_second_completion_reports_duplicate(self, tmp_path):
        jobs = _queue_jobs(1)
        WorkQueue.create(tmp_path / "q", jobs, lease_ttl=10.0)
        alice = WorkQueue.open(tmp_path / "q", worker="alice")
        bob = WorkQueue.open(tmp_path / "q", worker="bob")
        alice.claim()
        assert alice.complete(jobs[0].job_id) is True
        assert bob.complete(jobs[0].job_id) is False
        assert bob.duplicate_completions == 1

    def test_expired_lease_requeues_with_bumped_generation(self, tmp_path):
        jobs = _queue_jobs(1)
        WorkQueue.create(tmp_path / "q", jobs, lease_ttl=5.0)
        clock = FakeClock()
        dead = WorkQueue.open(tmp_path / "q", worker="dead", clock=clock)
        thief = WorkQueue.open(tmp_path / "q", worker="thief", clock=clock)
        dead.claim()
        assert thief.claim() is None        # lease still live
        clock.advance(5.0)                  # dead never heartbeats
        stolen = thief.claim()
        assert stolen.job_id == jobs[0].job_id
        assert thief.steals == 1
        lease = thief.lease_of(stolen.job_id)
        assert lease.worker == "thief" and lease.generation == 1

    def test_heartbeat_extends_deadline_past_original_ttl(self, tmp_path):
        jobs = _queue_jobs(1)
        WorkQueue.create(tmp_path / "q", jobs, lease_ttl=5.0)
        clock = FakeClock()
        worker = WorkQueue.open(tmp_path / "q", worker="w0", clock=clock)
        thief = WorkQueue.open(tmp_path / "q", worker="thief", clock=clock)
        worker.claim()
        clock.advance(4.0)
        assert worker.heartbeat(jobs[0].job_id) is True
        clock.advance(4.0)                  # 8s elapsed, renewed at 4s
        assert thief.claim() is None        # still covered by the renewal

    def test_heartbeat_after_steal_reports_lost_lease(self, tmp_path):
        jobs = _queue_jobs(1)
        WorkQueue.create(tmp_path / "q", jobs, lease_ttl=5.0)
        clock = FakeClock()
        slow = WorkQueue.open(tmp_path / "q", worker="slow", clock=clock)
        thief = WorkQueue.open(tmp_path / "q", worker="thief", clock=clock)
        slow.claim()
        clock.advance(6.0)
        assert thief.claim() is not None
        assert slow.heartbeat(jobs[0].job_id) is False
        assert slow.lost_leases == 1
        # the thief's lease must not have been disturbed
        assert thief.lease_of(jobs[0].job_id).worker == "thief"

    def test_torn_lease_file_is_immediately_stealable(self, tmp_path):
        jobs = _queue_jobs(1)
        WorkQueue.create(tmp_path / "q", jobs, lease_ttl=10.0)
        queue = WorkQueue.open(tmp_path / "q", worker="w0")
        torn = tmp_path / "q" / "leases" / f"{jobs[0].job_id}.json"
        torn.write_text('{"job_id": "trunc')  # killed mid-write
        job = queue.claim()
        assert job.job_id == jobs[0].job_id

    @pytest.mark.parametrize(
        "field, value",
        [
            ("deadline", "NaN"),
            ("deadline", "Infinity"),
            ("claimed_at", "NaN"),
            ("claimed_at", "-Infinity"),
            ("generation", "-1"),
        ],
    )
    def test_corrupt_lease_is_immediately_stealable(self, tmp_path, field, value):
        """``json.loads`` accepts NaN/Infinity, and ``now >= nan`` is never
        true: a lease with a non-finite time (or a negative generation)
        must count as torn — stealable at once, not held forever."""
        jobs = _queue_jobs(1)
        WorkQueue.create(tmp_path / "q", jobs, lease_ttl=10.0)
        clock = FakeClock()
        dead = WorkQueue.open(tmp_path / "q", worker="dead", clock=clock)
        thief = WorkQueue.open(tmp_path / "q", worker="thief", clock=clock)
        dead.claim()
        lease = tmp_path / "q" / "leases" / f"{jobs[0].job_id}.json"
        payload = json.loads(lease.read_text())
        payload[field] = "@"
        lease.write_text(json.dumps(payload).replace('"@"', value))
        stolen = thief.claim()
        assert stolen is not None and stolen.job_id == jobs[0].job_id
        assert thief.lease_of(stolen.job_id).worker == "thief"

    def test_release_returns_job_to_the_queue(self, tmp_path):
        jobs = _queue_jobs(1)
        WorkQueue.create(tmp_path / "q", jobs, lease_ttl=10.0)
        alice = WorkQueue.open(tmp_path / "q", worker="alice")
        bob = WorkQueue.open(tmp_path / "q", worker="bob")
        alice.claim()
        assert bob.claim() is None
        alice.release(jobs[0].job_id)
        assert bob.claim().job_id == jobs[0].job_id

    def test_heartbeat_context_manager_renews_in_background(self, tmp_path):
        jobs = _queue_jobs(1)
        WorkQueue.create(tmp_path / "q", jobs, lease_ttl=0.4)
        queue = WorkQueue.open(tmp_path / "q", worker="w0")
        queue.claim()
        import time as _time

        with LeaseHeartbeat(queue, jobs[0].job_id) as beat:
            _time.sleep(1.0)                # several TTLs worth of wall time
            assert not beat.lost
        assert queue.heartbeats >= 2
        assert queue.lease_of(jobs[0].job_id).worker == "w0"


class TestQueueCleanup:
    def test_queue_dir_is_cleaned_up_after_the_run(
        self, graph_and_targets, tmp_path, sweep_jobs
    ):
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets, count=3)
        checkpoint = tmp_path / "campaign.jsonl"
        ParallelCampaignExecutor(
            graph, workers=2, checkpoint_path=checkpoint
        ).run(jobs)
        assert not (tmp_path / "campaign.jsonl.queue").exists()
        assert not list(tmp_path.glob("*.shard*"))


def _chaos_ttl():
    """Chaos-test lease TTL: the CI chaos lane's shrunk $REPRO_LEASE_TTL
    when set, capped at 1s so local runs (default 30s) stay fast."""
    return min(resolve_lease_ttl(None), 1.0)


class TestChaosKillMidLease:
    def test_chaos_sigkill_after_claim_requeues_and_matches_serial(
        self, graph_and_targets, tmp_path, monkeypatch, sweep_jobs, assert_outcomes_identical
    ):
        """The acceptance scenario: SIGKILL a worker the instant it claims
        (it dies holding an active lease, before any work lands in its
        shard).  The surviving workers must requeue the job after the TTL
        and the merged checkpoint must be bit-identical to serial."""
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets)
        serial = AttackCampaign(graph).run(jobs)

        import repro.attacks.scheduler as scheduler_module

        real_main = scheduler_module._scheduler_worker_main

        def kamikaze_main(spec, queue_dir, shard_path, compute_ranks,
                          lease_ttl, worker_index):
            if worker_index == 0:
                # Fork isolation: this rebinding exists only in the child.
                real_claim = WorkQueue.claim

                def claim_then_die(self):
                    job = real_claim(self)
                    if job is not None:
                        os.kill(os.getpid(), signal.SIGKILL)
                    return job

                WorkQueue.claim = claim_then_die
            real_main(spec, queue_dir, shard_path, compute_ranks,
                      lease_ttl, worker_index)

        monkeypatch.setattr(
            scheduler_module, "_scheduler_worker_main", kamikaze_main
        )
        checkpoint = tmp_path / "campaign.jsonl"
        executor = ParallelCampaignExecutor(
            graph, workers=3, checkpoint_path=checkpoint,
            lease_ttl=_chaos_ttl(),
        )
        result = executor.run(jobs)           # must NOT raise: jobs recovered
        assert executor.last_dead_workers == ["campaign-worker-0"]
        assert executor.last_requeues >= 1
        assert_outcomes_identical(serial, result)

    def test_chaos_sigkill_between_append_and_done_marker_dedupes(
        self, graph_and_targets, tmp_path, monkeypatch, sweep_jobs, assert_outcomes_identical
    ):
        """Kill in the gap between the two durable steps: the outcome is in
        the dead worker's shard but the done marker never lands, so the job
        is requeued and completed AGAIN by a survivor.  The merge must keep
        exactly one record and still match serial bit-for-bit."""
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets)
        serial = AttackCampaign(graph).run(jobs)

        import repro.attacks.scheduler as scheduler_module

        real_main = scheduler_module._scheduler_worker_main

        def kamikaze_main(spec, queue_dir, shard_path, compute_ranks,
                          lease_ttl, worker_index):
            if worker_index == 0:
                def die_instead_of_completing(self, job_id):
                    os.kill(os.getpid(), signal.SIGKILL)

                WorkQueue.complete = die_instead_of_completing
            real_main(spec, queue_dir, shard_path, compute_ranks,
                      lease_ttl, worker_index)

        monkeypatch.setattr(
            scheduler_module, "_scheduler_worker_main", kamikaze_main
        )
        checkpoint = tmp_path / "campaign.jsonl"
        executor = ParallelCampaignExecutor(
            graph, workers=3, checkpoint_path=checkpoint,
            lease_ttl=_chaos_ttl(),
        )
        result = executor.run(jobs)
        assert executor.last_dead_workers == ["campaign-worker-0"]
        assert_outcomes_identical(serial, result)
        # exactly one record per job survived the double completion
        records = [
            json.loads(line)
            for line in checkpoint.read_text().splitlines()[1:]
        ]
        assert len(records) == len(jobs)

    def test_chaos_kill_without_checkpoint_still_recovers(
        self, graph_and_targets, tmp_path, monkeypatch, sweep_jobs, assert_outcomes_identical
    ):
        """Crash recovery must not depend on a main checkpoint file — the
        per-worker shards + queue are enough."""
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets, count=5)
        serial = AttackCampaign(graph).run(jobs)

        import repro.attacks.scheduler as scheduler_module

        real_main = scheduler_module._scheduler_worker_main

        def kamikaze_main(spec, queue_dir, shard_path, compute_ranks,
                          lease_ttl, worker_index):
            if worker_index == 1:
                real_claim = WorkQueue.claim

                def claim_then_die(self):
                    job = real_claim(self)
                    if job is not None:
                        os.kill(os.getpid(), signal.SIGKILL)
                    return job

                WorkQueue.claim = claim_then_die
            real_main(spec, queue_dir, shard_path, compute_ranks,
                      lease_ttl, worker_index)

        monkeypatch.setattr(
            scheduler_module, "_scheduler_worker_main", kamikaze_main
        )
        executor = ParallelCampaignExecutor(
            graph, workers=2, lease_ttl=_chaos_ttl()
        )
        result = executor.run(jobs)
        assert executor.last_dead_workers == ["campaign-worker-1"]
        assert_outcomes_identical(serial, result)


def _synthetic_outcome(job, seconds=0.0):
    """A deterministic JobOutcome derived purely from the job (plus a
    ``seconds`` that varies by writer — the one field dedupe may discard)."""
    target = int(job.targets[0])
    return JobOutcome(
        job=job,
        flips_by_budget={job.budget: ((target, target + 1),)},
        surrogate_by_budget={job.budget: float(job.budget)},
        score_before=1.0,
        score_after=0.5,
        rank_shifts={target: -1},
        seconds=seconds,
        metadata={},
    )


class TestCheckpointDedupe:
    def test_same_file_duplicate_keeps_first_record(self, tmp_path):
        """The dedupe key is the job content hash: a checkpoint holding two
        records for one job (double completion after a requeue) loads as
        exactly one outcome — the FIRST durable one."""
        job = _queue_jobs(1)[0]
        store = CheckpointStore(tmp_path / "ck.jsonl", "fp", "sparse", 64)
        store.append(_synthetic_outcome(job, seconds=1.0))
        store.append(_synthetic_outcome(job, seconds=2.0))
        loaded = store.load()
        assert len(loaded) == 1
        assert loaded[job.job_id].seconds == 1.0

    def test_double_completion_shard_pair_after_requeue_keeps_one_record(
        self, graph_and_targets, tmp_path, sweep_jobs, assert_outcomes_identical
    ):
        """A shard pair left by a slow-but-alive worker finishing a job a
        survivor already completed: both shards hold the job (different
        ``seconds``), the merged checkpoint keeps one record and the run
        matches serial."""
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets, count=4)
        serial = AttackCampaign(graph).run(jobs)
        checkpoint = tmp_path / "campaign.jsonl"

        executor = ParallelCampaignExecutor(
            graph, workers=2, checkpoint_path=checkpoint
        )
        first = serial.outcomes[0]
        doc = first.to_dict()
        doc["seconds"] = first.seconds + 5.0
        slow_duplicate = JobOutcome.from_dict(doc)
        executor._store(tmp_path / "campaign.jsonl.shard0").append(first)
        executor._store(tmp_path / "campaign.jsonl.shard1").append(slow_duplicate)

        result = executor.run(jobs)
        assert result.resumed_jobs == 1       # the duplicated job, once
        assert_outcomes_identical(serial, result)
        records = [
            json.loads(line)
            for line in checkpoint.read_text().splitlines()[1:]
        ]
        assert len(records) == len(jobs)
        # the first durable record (shard order) won
        merged = executor._store(checkpoint).load()
        assert merged[first.job_id].seconds == first.seconds


class TestPropertyInterleavings:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_interleavings_requeue_and_complete_exactly_once(
        self, tmp_path, seed
    ):
        """Property-style: drive a real 50-job WorkQueue through thousands
        of randomly interleaved claim/heartbeat/complete/crash/clock-advance
        steps across 4 simulated workers.  Whatever the interleaving, every
        job ends done exactly once and the merged checkpoint is identical
        to a serial one (``seconds`` aside)."""
        jobs = _queue_jobs(50)
        assert len(jobs) == 50
        queue_dir = tmp_path / "queue"
        WorkQueue.create(queue_dir, jobs, lease_ttl=10.0)
        clock = FakeClock()
        n_workers = 4
        workers = [
            WorkQueue.open(queue_dir, worker=f"w{i}", clock=clock)
            for i in range(n_workers)
        ]
        shards = [
            CheckpointStore(tmp_path / f"shard{i}", "prop-fp", "sparse", 64)
            for i in range(n_workers)
        ]
        active = {}
        rng = np.random.default_rng(seed)
        for _ in range(100_000):
            if workers[0].all_done():
                break
            i = int(rng.integers(n_workers))
            queue = workers[i]
            if i not in active:
                job = queue.claim()
                if job is not None:
                    active[i] = job
            else:
                action = rng.random()
                if action < 0.30:
                    queue.heartbeat(active[i].job_id)
                elif action < 0.75:
                    job = active.pop(i)
                    # durability order: shard append, THEN done marker
                    shards[i].append(_synthetic_outcome(job, seconds=float(i)))
                    queue.complete(job.job_id)
                else:
                    active.pop(i)   # crash: never completes; lease expires
            if rng.random() < 0.5:
                clock.advance(float(rng.uniform(0.0, 8.0)))
        else:
            pytest.fail("queue did not drain within the step budget")

        assert workers[0].done_ids() == {job.job_id for job in jobs}
        assert sum(w.claims for w in workers) >= 50

        main = CheckpointStore(tmp_path / "merged", "prop-fp", "sparse", 64)
        for shard in shards:
            main.merge_from(shard)
        merged = main.load()
        assert len(merged) == 50              # exactly once, despite crashes

        reference_store = CheckpointStore(
            tmp_path / "serial", "prop-fp", "sparse", 64
        )
        for job in jobs:
            reference_store.append(_synthetic_outcome(job, seconds=99.0))
        reference = reference_store.load()
        assert set(merged) == set(reference)
        for job_id, expected in reference.items():
            got = merged[job_id]
            assert got.flips_by_budget == expected.flips_by_budget
            assert got.surrogate_by_budget == expected.surrogate_by_budget
            assert got.score_before == expected.score_before
            assert got.score_after == expected.score_after
            assert got.rank_shifts == expected.rank_shifts
