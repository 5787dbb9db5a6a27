"""Executor semantics: draining a grid across processes is a wall-clock
lever, never a semantics change.  A parallel run must be bit-identical to
the serial :class:`AttackCampaign` on the same grid, checkpoints must
interoperate between serial and parallel runs, and a run killed mid-drain
must resume — with a *different* worker count — to the same result."""

import json
import multiprocessing
import os
import signal

import numpy as np
import pytest
from scipy import sparse

from repro.attacks import (
    AttackCampaign,
    OddBallHeuristic,
    ParallelCampaignExecutor,
    RandomAttack,
    WorkQueue,
    build_campaign,
    grid_jobs,
)
from repro.attacks.scheduler import _scheduler_worker_main
from repro.graph.generators import barabasi_albert
from repro.oddball.detector import OddBall
from repro.oddball.surrogate import EngineSpec, SurrogateEngine

# graph_and_targets / sweep_jobs / assert_outcomes_identical come from
# tests/conftest.py (shared campaign fixtures)


class TestParallelSerialParity:
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_identical_result_1_vs_4_workers(self, graph_and_targets, backend, sweep_jobs, assert_outcomes_identical):
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets)
        serial = build_campaign(graph, backend=backend, workers=1).run(jobs)
        parallel = build_campaign(graph, backend=backend, workers=4).run(jobs)
        assert_outcomes_identical(serial, parallel)
        assert serial.backend == parallel.backend
        assert serial.n == parallel.n

    def test_sparse_input_parity(self, graph_and_targets, sweep_jobs, assert_outcomes_identical):
        graph, targets = graph_and_targets
        csr = sparse.csr_matrix(graph.adjacency)
        jobs = sweep_jobs(targets, count=5)
        serial = AttackCampaign(csr).run(jobs)
        parallel = ParallelCampaignExecutor(csr, workers=3).run(jobs)
        assert parallel.backend == "sparse"
        assert_outcomes_identical(serial, parallel)

    def test_mixed_attack_grid_with_baselines(self, graph_and_targets, sweep_jobs, assert_outcomes_identical):
        """Gradient attacks AND injected-engine baselines shard identically."""
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets, count=3)
        jobs += grid_jobs(
            "binarizedattack", [targets[:3]], budgets=[3],
            lambdas=[0.3, 0.05], candidates="target_incident", iterations=15,
        )
        jobs += grid_jobs("random", [[t] for t in targets[:3]], budgets=[3],
                          candidates="target_incident", rng=5)
        jobs += grid_jobs("oddball-heuristic", [[t] for t in targets[:3]],
                          budgets=[3], rng=3)
        serial = AttackCampaign(graph).run(jobs)
        parallel = ParallelCampaignExecutor(graph, workers=3).run(jobs)
        assert_outcomes_identical(serial, parallel)

    def test_more_workers_than_jobs(self, graph_and_targets, sweep_jobs):
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets, count=2)
        result = ParallelCampaignExecutor(graph, workers=6).run(jobs)
        assert len(result) == 2

    def test_worker_observability(self, graph_and_targets, sweep_jobs):
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets, count=6)
        executor = ParallelCampaignExecutor(graph, workers=3)
        executor.run(jobs)
        assert sum(len(s) for s in executor.last_shards) == 6
        assert sum(s["jobs"] for s in executor.last_worker_stats) == 6
        for stats in executor.last_worker_stats:
            assert stats["claims"] >= stats["jobs"]
            assert stats["completions"] == stats["jobs"]
            assert stats["cpu_seconds"] >= 0.0
            assert stats["wall_seconds"] > 0.0
        assert executor.last_dead_workers == []
        assert executor.last_overhead_seconds >= 0.0

    def test_build_campaign_switch(self, graph_and_targets):
        graph, _ = graph_and_targets
        assert isinstance(build_campaign(graph, workers=1), AttackCampaign)
        assert isinstance(
            build_campaign(graph, workers=2), ParallelCampaignExecutor
        )
        assert isinstance(
            build_campaign(graph, workers=2, scheduler=True),
            ParallelCampaignExecutor,
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_build_campaign_rejects_static_shards(self, graph_and_targets, workers):
        graph, _ = graph_and_targets
        with pytest.raises(ValueError, match="static round-robin shards"):
            build_campaign(graph, workers=workers, scheduler=False)

    def test_rejects_bad_worker_count(self, graph_and_targets):
        graph, _ = graph_and_targets
        with pytest.raises(ValueError, match="workers"):
            ParallelCampaignExecutor(graph, workers=0)


class TestCheckpointInterop:
    def test_kill_and_resume_with_different_worker_count(
        self, graph_and_targets, tmp_path, sweep_jobs, assert_outcomes_identical
    ):
        """A parallel run killed mid-drain resumes under a new worker count.

        The kill is simulated faithfully: two worker shards are written
        directly by the executor's worker entry point, each draining its
        own queue (as a killed 2-worker run would leave them — completed
        jobs in per-worker shard files, never merged), then a fresh
        3-worker executor must fold the leftovers in, run only the
        remainder, and match a fresh serial run bit-for-bit.
        """
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets)
        fresh = AttackCampaign(graph).run(jobs)

        checkpoint = tmp_path / "campaign.jsonl"
        spec = EngineSpec.from_graph(graph.adjacency, backend="auto")
        for index, part in enumerate((jobs[0:3], jobs[3:5])):
            queue_dir = tmp_path / f"queue{index}"
            WorkQueue.create(queue_dir, part, lease_ttl=30.0)
            _scheduler_worker_main(
                spec, str(queue_dir), f"{checkpoint}.shard{index}", True,
                30.0, index,
            )
        assert (tmp_path / "campaign.jsonl.shard0").exists()
        assert not checkpoint.exists()  # parent never merged: a true kill

        resumed = ParallelCampaignExecutor(
            graph, workers=3, checkpoint_path=checkpoint
        ).run(jobs)
        assert resumed.resumed_jobs == 5
        assert not list(tmp_path.glob("*.shard*"))  # shards merged + removed
        assert_outcomes_identical(fresh, resumed)

    def test_glob_metacharacters_in_checkpoint_name(
        self, graph_and_targets, tmp_path, sweep_jobs
    ):
        """Shard discovery is a literal prefix match, not a glob — a name
        like ``fig4[ci].json`` must not turn into a character class."""
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets, count=4)
        checkpoint = tmp_path / "fig4[ci].json"
        first = ParallelCampaignExecutor(
            graph, workers=2, checkpoint_path=checkpoint
        ).run(jobs)
        assert len(first) == 4
        assert not list(tmp_path.glob("*.shard*"))
        resumed = ParallelCampaignExecutor(
            graph, workers=3, checkpoint_path=checkpoint
        ).run(jobs)
        assert resumed.resumed_jobs == 4

    def test_parallel_resumes_serial_checkpoint(self, graph_and_targets, tmp_path, sweep_jobs, assert_outcomes_identical):
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets)
        checkpoint = tmp_path / "campaign.jsonl"
        AttackCampaign(graph, checkpoint_path=checkpoint).run(jobs[:4])
        resumed = ParallelCampaignExecutor(
            graph, workers=4, checkpoint_path=checkpoint
        ).run(jobs)
        assert resumed.resumed_jobs == 4
        assert_outcomes_identical(AttackCampaign(graph).run(jobs), resumed)

    def test_serial_resumes_parallel_checkpoint(self, graph_and_targets, tmp_path, sweep_jobs):
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets)
        checkpoint = tmp_path / "campaign.jsonl"
        ParallelCampaignExecutor(
            graph, workers=3, checkpoint_path=checkpoint
        ).run(jobs)
        resumed = AttackCampaign(graph, checkpoint_path=checkpoint).run(jobs)
        assert resumed.resumed_jobs == len(jobs)

    def test_fully_checkpointed_run_spawns_no_workers(
        self, graph_and_targets, tmp_path, sweep_jobs
    ):
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets, count=3)
        checkpoint = tmp_path / "campaign.jsonl"
        ParallelCampaignExecutor(
            graph, workers=2, checkpoint_path=checkpoint
        ).run(jobs)
        executor = ParallelCampaignExecutor(
            graph, workers=2, checkpoint_path=checkpoint
        )
        replay = executor.run(jobs)
        assert replay.resumed_jobs == 3
        assert executor.last_shards == []

    def test_checkpoint_rejects_different_graph(self, graph_and_targets, tmp_path, sweep_jobs):
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets, count=2)
        checkpoint = tmp_path / "campaign.jsonl"
        ParallelCampaignExecutor(
            graph, workers=2, checkpoint_path=checkpoint
        ).run(jobs)
        other = barabasi_albert(90, 3, rng=99)
        with pytest.raises(ValueError, match="different"):
            ParallelCampaignExecutor(
                other, workers=2, checkpoint_path=checkpoint
            ).run(sweep_jobs(OddBall().analyze(other).top_k(2).tolist(), count=2))


class TestEngineSpec:
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_round_trip_preserves_state(self, graph_and_targets, backend):
        graph, targets = graph_and_targets
        engine = SurrogateEngine.create(
            graph.adjacency, targets[:3], None, backend=backend
        )
        clone = SurrogateEngine.from_spec(engine.engine_spec(), targets[:3])
        assert clone.backend == engine.backend
        assert clone.current_loss() == engine.current_loss()
        for a, b in zip(engine.node_features(), clone.node_features()):
            assert np.array_equal(a, b)

    def test_spec_captures_applied_flips(self, graph_and_targets):
        graph, targets = graph_and_targets
        engine = SurrogateEngine.create(
            sparse.csr_matrix(graph.adjacency), targets[:2], None,
            backend="sparse",
        )
        engine.apply_flip(0, 1)
        clone = SurrogateEngine.from_spec(engine.engine_spec(), targets[:2])
        assert clone.is_edge(0, 1) == engine.is_edge(0, 1)
        assert clone.current_loss() == engine.current_loss()

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_spec_rejects_pending_transient_flips(self, graph_and_targets, backend):
        graph, targets = graph_and_targets
        engine = SurrogateEngine.create(
            graph.adjacency, targets[:2], None, backend=backend
        )
        engine.push_flip(0, 1)
        with pytest.raises(RuntimeError, match="transient"):
            engine.engine_spec()
        engine.pop_flips(1)
        engine.engine_spec()  # clean again — exports fine

    def test_sparse_spec_allows_permanent_flips_after_restore(
        self, graph_and_targets
    ):
        graph, targets = graph_and_targets
        engine = SurrogateEngine.create(
            sparse.csr_matrix(graph.adjacency), targets[:2], None,
            backend="sparse",
        )
        token = engine.checkpoint()
        engine.apply_flip(0, 1)       # permanent: spec export stays legal
        engine.engine_spec()
        engine.push_flip(0, 2)        # transient on top: export refused
        with pytest.raises(RuntimeError, match="transient"):
            engine.engine_spec()
        engine.restore(token)         # restore clears the transient state
        engine.engine_spec()

    def test_from_graph_resolves_auto(self, graph_and_targets):
        graph, _ = graph_and_targets
        spec = EngineSpec.from_graph(graph.adjacency, backend="auto")
        assert spec.backend in ("dense", "sparse")
        rebuilt = spec.to_graph()
        assert rebuilt.shape == graph.adjacency.shape

    def test_spec_rejects_unresolved_backend(self, graph_and_targets):
        graph, targets = graph_and_targets
        spec = EngineSpec.from_graph(graph.adjacency)._replace(backend="auto")
        with pytest.raises(ValueError, match="resolved"):
            SurrogateEngine.from_spec(spec, targets[:1])

    def test_spec_is_picklable(self, graph_and_targets):
        import pickle

        graph, targets = graph_and_targets
        spec = EngineSpec.from_graph(
            sparse.csr_matrix(graph.adjacency), backend="sparse"
        )
        clone = pickle.loads(pickle.dumps(spec))
        engine = clone.build(targets[:2])
        reference = spec.build(targets[:2])
        assert engine.current_loss() == reference.current_loss()


class TestBaselineEngineInjection:
    """ROADMAP follow-up: baselines accept an injected engine too."""

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_random_attack_parity(self, graph_and_targets, backend):
        graph, targets = graph_and_targets
        adjacency = (
            sparse.csr_matrix(graph.adjacency)
            if backend == "sparse"
            else graph.adjacency
        )
        engine = SurrogateEngine.create(
            adjacency, targets[:2], None, backend=backend
        )
        standalone = RandomAttack(rng=7).attack(
            adjacency, targets[:2], 4, candidates="target_incident"
        )
        injected = RandomAttack(rng=7).attack(
            adjacency, targets[:2], 4, candidates="target_incident",
            engine=engine,
        )
        assert standalone.flips_by_budget == injected.flips_by_budget
        assert standalone.surrogate_by_budget == injected.surrogate_by_budget
        if backend == "sparse":
            assert engine.checkpoint() == 0  # engine left exactly as it entered

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_heuristic_parity(self, graph_and_targets, backend):
        graph, targets = graph_and_targets
        adjacency = (
            sparse.csr_matrix(graph.adjacency)
            if backend == "sparse"
            else graph.adjacency
        )
        engine = SurrogateEngine.create(
            adjacency, targets[:2], None, backend=backend
        )
        before = engine.current_loss()
        standalone = OddBallHeuristic(rng=3).attack(adjacency, targets[:2], 4)
        injected = OddBallHeuristic(rng=3).attack(
            adjacency, targets[:2], 4, engine=engine
        )
        assert standalone.flips_by_budget == injected.flips_by_budget
        assert standalone.surrogate_by_budget == injected.surrogate_by_budget
        assert engine.current_loss() == before  # every flip unwound

    def test_campaign_baseline_jobs_match_standalone(self, graph_and_targets):
        graph, targets = graph_and_targets
        jobs = grid_jobs("random", [[t] for t in targets[:3]], budgets=[4],
                         candidates="target_incident", rng=5)
        jobs += grid_jobs("oddball-heuristic", [[t] for t in targets[:3]],
                          budgets=[4], rng=3)
        campaign = AttackCampaign(graph).run(jobs)
        for outcome in campaign:
            cls = (
                RandomAttack
                if outcome.job.attack == "random"
                else OddBallHeuristic
            )
            solo = cls(**dict(outcome.job.params)).attack(
                graph, list(outcome.job.targets), outcome.job.budget,
                candidates=outcome.job.candidates,
            )
            assert {
                b: solo.flips(b) for b in solo.budgets
            } == outcome.flips_by_budget, outcome.job.attack
            assert solo.surrogate_by_budget == outcome.surrogate_by_budget


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the failure is injected by monkeypatching through fork",
)
class TestWorkerFailure:
    def test_chaos_every_worker_dying_raises_and_preserves_completed_jobs(
        self, graph_and_targets, tmp_path, monkeypatch, sweep_jobs, assert_outcomes_identical
    ):
        """When every worker dies partway no survivor can requeue the rest:
        the run fails loudly, but the jobs the workers completed stay in
        the merged checkpoint for the next resume."""
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets, count=6)
        checkpoint = tmp_path / "campaign.jsonl"
        real_complete = WorkQueue.complete

        def complete_then_die(self, job_id):
            # Fork isolation: the patch reaches the workers, and the parent
            # never completes a job.  Each worker dies after one job.
            real_complete(self, job_id)
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(WorkQueue, "complete", complete_then_die)
        executor = ParallelCampaignExecutor(
            graph, workers=2, checkpoint_path=checkpoint
        )
        with pytest.raises(RuntimeError, match="unaccounted for"):
            executor.run(jobs)
        assert executor.last_dead_workers == [
            "campaign-worker-0", "campaign-worker-1",
        ]
        # each worker's one completed job was merged into the checkpoint
        completed = [
            json.loads(line)
            for line in checkpoint.read_text().splitlines()[1:]
        ]
        assert len(completed) == 2
        assert not list(tmp_path.glob("*.shard*"))
        # an undamaged rerun resumes them and matches a fresh serial run
        monkeypatch.undo()
        resumed = ParallelCampaignExecutor(
            graph, workers=2, checkpoint_path=checkpoint
        ).run(jobs)
        assert resumed.resumed_jobs == 2
        assert_outcomes_identical(AttackCampaign(graph).run(jobs), resumed)
