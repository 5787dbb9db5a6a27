"""Store-spec execution: workers that memory-map the graph via a
``store``-kind EngineSpec must produce results bit-identical to payload-spec
workers and to the serial campaign, at any worker count."""

import numpy as np
import pytest
from scipy import sparse

from repro.attacks import (
    AttackCampaign,
    ParallelCampaignExecutor,
    build_campaign,
)
from repro.attacks.campaign import graph_fingerprint
from repro.oddball.surrogate import EngineSpec, SurrogateEngine

# store / sweep_jobs / assert_outcomes_identical come from tests/conftest.py
# (shared fixtures); this module derives its targets from store degrees.


@pytest.fixture(scope="module")
def memory_graph(store):
    return store.detached_csr()


@pytest.fixture(scope="module")
def store_targets(store):
    return np.argsort(-store.degrees(), kind="stable")[:8].tolist()


class TestStoreSpec:
    def test_spec_is_a_path_not_a_payload(self, store):
        spec = EngineSpec.from_store(store)
        assert spec.kind == "store"
        assert spec.backend == "sparse"
        assert spec.payload == (str(store.path),)

    def test_spec_round_trip_builds_identical_engine(self, store, memory_graph):
        spec = EngineSpec.from_store(store)
        targets = [0, 1, 2]
        empty = (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp))
        rebuilt = spec.build(targets, candidates=empty)
        reference = SurrogateEngine.create(
            memory_graph, targets, empty, backend="sparse"
        )
        assert rebuilt.backend == "sparse"
        assert rebuilt.current_loss() == reference.current_loss()
        n_a, e_a = rebuilt.node_features()
        n_b, e_b = reference.node_features()
        assert np.array_equal(n_a, n_b)
        assert np.array_equal(e_a, e_b)

    def test_to_graph_maps_read_only(self, store):
        graph = EngineSpec.from_store(store).to_graph()
        assert sparse.issparse(graph)
        assert not graph.data.flags.writeable


class TestStoreExecutorParity:
    def test_store_spec_1_vs_4_workers_vs_payload(self, store, memory_graph, sweep_jobs, assert_outcomes_identical, store_targets):
        """The satellite contract: a 1-worker and a 4-worker run from a
        ``store_path`` spec agree bit-for-bit with each other AND with the
        payload-spec (in-memory CSR) execution of the same grid."""
        jobs = sweep_jobs(store_targets, count=6)
        store_serial = build_campaign(store, workers=1).run(jobs)
        store_parallel = build_campaign(store, workers=4).run(jobs)
        payload_parallel = ParallelCampaignExecutor(
            memory_graph, workers=4, backend="sparse"
        ).run(jobs)
        assert_outcomes_identical(store_serial, store_parallel)
        assert_outcomes_identical(store_parallel, payload_parallel)

    def test_worker_stats_record_rss(self, store, sweep_jobs, store_targets):
        executor = ParallelCampaignExecutor(store, workers=2)
        executor.run(sweep_jobs(store_targets, count=4))
        assert executor.last_worker_stats
        for stats in executor.last_worker_stats:
            assert stats["max_rss_kb"] > 0

    def test_store_checkpoint_resume(self, store, tmp_path, sweep_jobs, assert_outcomes_identical, store_targets):
        jobs = sweep_jobs(store_targets, count=6)
        checkpoint = tmp_path / "campaign.jsonl"
        AttackCampaign(store, checkpoint_path=checkpoint).run(jobs[:2])
        resumed = ParallelCampaignExecutor(
            store, workers=3, checkpoint_path=checkpoint
        ).run(jobs)
        fresh = AttackCampaign(store).run(jobs)
        assert resumed.resumed_jobs == 2
        assert_outcomes_identical(fresh, resumed)

    def test_dense_backend_rejected(self, store):
        with pytest.raises(ValueError, match="sparse-only"):
            ParallelCampaignExecutor(store, workers=2, backend="dense")


class TestShardTruncation:
    def test_truncated_shard_mid_record_resumes(self, store, tmp_path, sweep_jobs, assert_outcomes_identical, store_targets):
        """Satellite: kill a worker mid-append (simulated by truncating its
        shard inside the final record) — the resume must skip exactly the
        torn job, warn, and still converge to the serial result."""
        jobs = sweep_jobs(store_targets, count=6)
        checkpoint = tmp_path / "campaign.jsonl"
        executor = ParallelCampaignExecutor(
            store, workers=2, checkpoint_path=checkpoint
        )
        executor.run(jobs)
        # forge a killed run: move two completed outcomes back into a shard,
        # then tear the shard's last record in half
        lines = checkpoint.read_text().splitlines()
        assert len(lines) == len(jobs) + 1  # header + one line per job
        shard = tmp_path / "campaign.jsonl.shard0"
        torn = lines[-1][: len(lines[-1]) // 2]
        shard.write_text("\n".join([lines[0], lines[-2], torn]) + "\n")
        checkpoint.write_text("\n".join(lines[:-2]) + "\n")

        resumed = ParallelCampaignExecutor(
            store, workers=3, checkpoint_path=checkpoint
        ).run(jobs)
        fresh = AttackCampaign(store).run(jobs)
        # everything the intact shard lines held was recovered; only the
        # torn record re-ran
        assert resumed.resumed_jobs == len(jobs) - 1
        assert_outcomes_identical(fresh, resumed)
        assert not shard.exists()  # merged and removed


class _ArraysRaise:
    """A stamped stand-in for the store's CSR: any attribute beyond its
    shape and stamp (``data``, ``indices``, ``tocoo``, ...) raises."""

    def __init__(self, csr):
        self.shape = csr.shape
        self._repro_fingerprint = csr._repro_fingerprint

    def __getattr__(self, name):
        raise AssertionError(f"fingerprinting touched {name!r}")


class TestGraphIdentity:
    def test_store_and_detached_fingerprints_agree(self, store, memory_graph):
        payload_fp = graph_fingerprint(memory_graph, "sparse")
        assert graph_fingerprint(store.csr(), "sparse") == payload_fp
        # the store side reads the stamp and touches no CSR array
        assert graph_fingerprint(_ArraysRaise(store.csr()), "sparse") == payload_fp

    def test_index_width_does_not_change_the_fingerprint(self, memory_graph):
        wide = memory_graph.copy()
        wide.indices = wide.indices.astype(np.int64)
        wide.indptr = wide.indptr.astype(np.int64)
        assert memory_graph.indices.dtype == np.int32
        assert wide.indices.dtype == np.int64
        assert graph_fingerprint(wide, "sparse") == graph_fingerprint(
            memory_graph, "sparse"
        )

    def test_spec_round_trip_keeps_the_fingerprint(self, store):
        spec = EngineSpec.from_graph(store.csr(), backend="sparse")
        assert spec.kind == "csr"
        assert "fingerprint" not in spec._fields
        rebuilt = spec.to_graph()
        assert not hasattr(rebuilt, "_repro_fingerprint")
        assert graph_fingerprint(rebuilt, "sparse") == graph_fingerprint(
            store.csr(), "sparse"
        )

    def test_tagged_csr_through_executor_with_checkpoint(self, store, tmp_path, sweep_jobs, assert_outcomes_identical, store_targets):
        """Passing the store's *stamped CSR* (not the GraphStore) must work:
        the parent fingerprints from the stamp, workers rebuild from a byte
        payload and hash it, and both must agree or the shard merge rejects
        every completed job."""
        jobs = sweep_jobs(store_targets, count=4)
        checkpoint = tmp_path / "campaign.jsonl"
        via_csr = ParallelCampaignExecutor(
            store.csr(), workers=2, backend="sparse", checkpoint_path=checkpoint
        ).run(jobs)
        fresh = AttackCampaign(store).run(jobs)
        assert_outcomes_identical(fresh, via_csr)
        # and the checkpoint interoperates with a GraphStore-built campaign
        resumed = AttackCampaign(store, checkpoint_path=checkpoint).run(jobs)
        assert resumed.resumed_jobs == len(jobs)


def _assert_no_side_tables(store):
    """The cache holds the store directory alone, and it holds only the
    manifest and the four arrays."""
    assert [p.name for p in store.path.parent.iterdir()] == [store.path.name]
    assert sorted(p.name for p in store.path.iterdir()) == [
        "data.bin", "features.bin", "indices.bin", "indptr.bin", "manifest.json",
    ]


class TestCrossBackingResume:
    """A store-backed and a payload-backed campaign of the same graph share
    one fingerprint, so each resumes the other's checkpoint."""

    def test_payload_campaign_resumes_store_checkpoint(self, store, memory_graph, tmp_path, sweep_jobs, store_targets):
        jobs = sweep_jobs(store_targets, count=5, budget=2)
        checkpoint = tmp_path / "campaign.jsonl"
        AttackCampaign(
            store.csr(), backend="sparse", checkpoint_path=checkpoint
        ).run(jobs)
        resumed = AttackCampaign(
            memory_graph, backend="sparse", checkpoint_path=checkpoint
        ).run(jobs)
        assert resumed.resumed_jobs == len(jobs)
        _assert_no_side_tables(store)

    def test_store_campaign_resumes_payload_checkpoint(self, store, memory_graph, tmp_path, sweep_jobs, store_targets):
        jobs = sweep_jobs(store_targets, count=5, budget=2)
        checkpoint = tmp_path / "campaign.jsonl"
        AttackCampaign(
            memory_graph, backend="sparse", checkpoint_path=checkpoint
        ).run(jobs)
        resumed = AttackCampaign(
            store.csr(), backend="sparse", checkpoint_path=checkpoint
        ).run(jobs)
        assert resumed.resumed_jobs == len(jobs)
        _assert_no_side_tables(store)

    def test_store_executor_resumes_payload_checkpoint(self, store, memory_graph, tmp_path, sweep_jobs, assert_outcomes_identical, store_targets):
        jobs = sweep_jobs(store_targets, count=5, budget=2)
        checkpoint = tmp_path / "campaign.jsonl"
        AttackCampaign(
            memory_graph, backend="sparse", checkpoint_path=checkpoint
        ).run(jobs[:3])
        resumed = ParallelCampaignExecutor(
            store, workers=2, checkpoint_path=checkpoint
        ).run(jobs)
        assert resumed.resumed_jobs == 3
        assert_outcomes_identical(AttackCampaign(store).run(jobs), resumed)
        _assert_no_side_tables(store)

    def test_payload_executor_resumes_store_checkpoint(self, store, memory_graph, tmp_path, sweep_jobs, assert_outcomes_identical, store_targets):
        jobs = sweep_jobs(store_targets, count=5, budget=2)
        checkpoint = tmp_path / "campaign.jsonl"
        AttackCampaign(store, checkpoint_path=checkpoint).run(jobs[:3])
        resumed = ParallelCampaignExecutor(
            memory_graph, workers=2, backend="sparse", checkpoint_path=checkpoint
        ).run(jobs)
        assert resumed.resumed_jobs == 3
        assert_outcomes_identical(AttackCampaign(store).run(jobs), resumed)
        _assert_no_side_tables(store)

    def test_build_campaign_resumes_payload_checkpoint(self, store, memory_graph, tmp_path, sweep_jobs, assert_outcomes_identical, store_targets):
        jobs = sweep_jobs(store_targets, count=5, budget=2)
        checkpoint = tmp_path / "campaign.jsonl"
        AttackCampaign(
            memory_graph, backend="sparse", checkpoint_path=checkpoint
        ).run(jobs[:3])
        resumed = build_campaign(
            store, workers=2, checkpoint_path=checkpoint
        ).run(jobs)
        assert resumed.resumed_jobs == 3
        assert_outcomes_identical(AttackCampaign(store).run(jobs), resumed)
        _assert_no_side_tables(store)
