"""Campaign semantics: batching is a performance lever, never a semantics
change.  A campaign over k jobs must be bit-identical to k sequential
standalone ``attack()`` calls (dense and sparse backends), resume
deterministically from checkpoints, and keep the adaptive candidate set a
superset of ``target_incident`` at every step."""

import json

import numpy as np
import pytest
from scipy import sparse

from repro.attacks import (
    AttackCampaign,
    AttackJob,
    BinarizedAttack,
    CampaignResult,
    CandidateSet,
    GradMaxSearch,
    grid_jobs,
)
from repro.attacks.candidates import AdaptiveCandidateSet
from repro.graph.generators import erdos_renyi
from repro.oddball.surrogate import SurrogateEngine

# graph_and_targets comes from tests/conftest.py (shared campaign fixture)


def _mixed_jobs(targets):
    jobs = grid_jobs(
        "gradmaxsearch", [[t] for t in targets[:4]], budgets=[3],
        candidates="target_incident",
    )
    jobs += grid_jobs(
        "binarizedattack", [targets[:3]], budgets=[3],
        lambdas=[0.3, 0.05], candidates="target_incident", iterations=15,
    )
    jobs += grid_jobs(
        "continuousa", [targets[:2]], budgets=[2],
        candidates="target_incident", max_iter=15,
    )
    return jobs


class TestCampaignMatchesSequential:
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_bit_identical_to_sequential_calls(self, graph_and_targets, backend):
        graph, targets = graph_and_targets
        jobs = _mixed_jobs(targets)
        result = AttackCampaign(graph, backend=backend).run(jobs)
        for job, outcome in zip(jobs, result):
            solo = job.build_attack(backend).attack(
                graph, list(job.targets), job.budget, candidates=job.candidates
            )
            assert {
                b: solo.flips(b) for b in solo.budgets
            } == outcome.flips_by_budget, job.attack
            for b, loss in solo.surrogate_by_budget.items():
                assert outcome.surrogate_by_budget[b] == pytest.approx(loss, rel=1e-12)

    def test_sparse_input_campaign(self, graph_and_targets):
        graph, targets = graph_and_targets
        csr = sparse.csr_matrix(graph.adjacency)
        jobs = grid_jobs(
            "gradmaxsearch", [[t] for t in targets[:3]], budgets=[3],
            candidates="target_incident",
        )
        from_sparse = AttackCampaign(csr).run(jobs)
        assert from_sparse.backend == "sparse"
        from_dense = AttackCampaign(graph, backend="sparse").run(jobs)
        for a, b in zip(from_sparse, from_dense):
            assert a.flips_by_budget == b.flips_by_budget

    def test_baseline_attacks_run_standalone(self, graph_and_targets):
        graph, targets = graph_and_targets
        jobs = [
            AttackJob.make("random", targets[:3], 3,
                           candidates="target_incident", rng=5),
            AttackJob.make("oddball-heuristic", targets[:3], 3, rng=5),
        ]
        result = AttackCampaign(graph).run(jobs)
        for job, outcome in zip(jobs, result):
            solo = job.build_attack(result.backend).attack(
                graph, list(job.targets), job.budget, candidates=job.candidates
            )
            assert {b: solo.flips(b) for b in solo.budgets} == outcome.flips_by_budget

    def test_weighted_targets_job(self, graph_and_targets):
        graph, targets = graph_and_targets
        job = AttackJob.make(
            "gradmaxsearch", targets[:3], 3,
            candidates="target_incident", weights=[2.0, 1.0, 0.5],
        )
        outcome = AttackCampaign(graph).run([job]).outcome(job)
        solo = GradMaxSearch().attack(
            graph, list(job.targets), 3,
            target_weights=[2.0, 1.0, 0.5], candidates="target_incident",
        )
        assert {b: solo.flips(b) for b in solo.budgets} == outcome.flips_by_budget


class TestCampaignOutcomes:
    def test_score_decrease_matches_public_api(self, graph_and_targets):
        graph, targets = graph_and_targets
        job = AttackJob.make("gradmaxsearch", targets[:2], 4,
                             candidates="target_incident")
        outcome = AttackCampaign(graph).run([job]).outcome(job)
        reconstructed = outcome.attack_result(graph.adjacency)
        assert outcome.score_decrease == pytest.approx(
            reconstructed.score_decrease(list(job.targets)), rel=1e-9
        )

    def test_rank_shifts_bury_targets(self, graph_and_targets):
        graph, targets = graph_and_targets
        job = AttackJob.make("gradmaxsearch", [targets[0]], 4,
                             candidates="target_incident")
        outcome = AttackCampaign(graph).run([job]).outcome(job)
        # a successful attack pushes the target DOWN the ranking
        assert outcome.rank_shifts[targets[0]] > 0

    def test_compute_ranks_off(self, graph_and_targets):
        graph, targets = graph_and_targets
        job = AttackJob.make("gradmaxsearch", [targets[0]], 2,
                             candidates="target_incident")
        outcome = AttackCampaign(graph, compute_ranks=False).run([job]).outcome(job)
        assert outcome.rank_shifts == {}

    def test_result_roundtrips_through_json(self, graph_and_targets):
        graph, targets = graph_and_targets
        jobs = _mixed_jobs(targets)[:3]
        result = AttackCampaign(graph).run(jobs)
        payload = json.loads(json.dumps(result.to_dict()))
        back = CampaignResult.from_dict(payload)
        assert back.to_dict() == result.to_dict()
        assert [o.job_id for o in back] == [o.job_id for o in result]


class TestCampaignResume:
    def test_resume_is_deterministic(self, graph_and_targets, tmp_path):
        graph, targets = graph_and_targets
        jobs = _mixed_jobs(targets)
        checkpoint = tmp_path / "campaign.json"
        # "interrupt" after the first three jobs
        AttackCampaign(graph, checkpoint_path=checkpoint).run(jobs[:3])
        resumed = AttackCampaign(graph, checkpoint_path=checkpoint).run(jobs)
        fresh = AttackCampaign(graph).run(jobs)
        assert resumed.resumed_jobs == 3
        for a, b in zip(resumed, fresh):
            assert a.flips_by_budget == b.flips_by_budget
            assert a.surrogate_by_budget == b.surrogate_by_budget
            assert a.rank_shifts == b.rank_shifts

    def test_completed_campaign_resumes_without_work(self, graph_and_targets, tmp_path):
        graph, targets = graph_and_targets
        jobs = grid_jobs("gradmaxsearch", [[t] for t in targets[:3]], budgets=[2],
                         candidates="target_incident")
        checkpoint = tmp_path / "campaign.json"
        first = AttackCampaign(graph, checkpoint_path=checkpoint).run(jobs)
        again = AttackCampaign(graph, checkpoint_path=checkpoint).run(jobs)
        assert again.resumed_jobs == len(jobs)
        for a, b in zip(first, again):
            assert a.flips_by_budget == b.flips_by_budget
            assert a.seconds == b.seconds  # replayed from the checkpoint

    def test_checkpoint_rejects_different_graph(self, graph_and_targets, tmp_path):
        graph, targets = graph_and_targets
        jobs = grid_jobs("gradmaxsearch", [[targets[0]]], budgets=[2],
                         candidates="target_incident")
        checkpoint = tmp_path / "campaign.json"
        AttackCampaign(graph, checkpoint_path=checkpoint).run(jobs)
        other = erdos_renyi(90, 0.1, rng=1)
        with pytest.raises(ValueError, match="different"):
            AttackCampaign(other, checkpoint_path=checkpoint).run(jobs)

    def test_duplicate_jobs_rejected(self, graph_and_targets):
        graph, targets = graph_and_targets
        job = AttackJob.make("gradmaxsearch", [targets[0]], 2)
        with pytest.raises(ValueError, match="duplicate"):
            AttackCampaign(graph).run([job, job])

    def test_torn_trailing_checkpoint_line_is_skipped(
        self, graph_and_targets, tmp_path
    ):
        graph, targets = graph_and_targets
        jobs = grid_jobs("gradmaxsearch", [[t] for t in targets[:3]], budgets=[2],
                         candidates="target_incident")
        checkpoint = tmp_path / "campaign.json"
        AttackCampaign(graph, checkpoint_path=checkpoint).run(jobs[:2])
        # simulate a hard kill mid-append
        with checkpoint.open("a") as handle:
            handle.write('{"job": {"attack": "gradmaxsea')
        resumed = AttackCampaign(graph, checkpoint_path=checkpoint).run(jobs)
        fresh = AttackCampaign(graph).run(jobs)
        assert resumed.resumed_jobs == 2
        for a, b in zip(resumed, fresh):
            assert a.flips_by_budget == b.flips_by_budget
        # the resumed run appended AFTER the torn fragment on a fresh line:
        # a second resume must see every completed job, not re-lose them
        replay = AttackCampaign(graph, checkpoint_path=checkpoint).run(jobs)
        assert replay.resumed_jobs == len(jobs)
        for a, b in zip(replay, fresh):
            assert a.flips_by_budget == b.flips_by_budget

    def test_torn_header_with_no_records_is_repaired(
        self, graph_and_targets, tmp_path
    ):
        """A crash during the very first append tears the header; since no
        job completed, the truthful checkpoint is an empty one — the run
        must proceed (and recheckpoint) instead of demanding manual
        deletion."""
        graph, targets = graph_and_targets
        jobs = grid_jobs("gradmaxsearch", [[targets[0]]], budgets=[2],
                         candidates="target_incident")
        checkpoint = tmp_path / "campaign.json"
        checkpoint.write_text('{"version"')  # torn header, nothing after it
        result = AttackCampaign(graph, checkpoint_path=checkpoint).run(jobs)
        assert result.resumed_jobs == 0
        replay = AttackCampaign(graph, checkpoint_path=checkpoint).run(jobs)
        assert replay.resumed_jobs == 1

    def test_corrupt_header_with_records_still_raises(
        self, graph_and_targets, tmp_path
    ):
        """Garbage where the header should be, but records following it:
        that is not a first-append tear — refuse to guess."""
        graph, targets = graph_and_targets
        jobs = grid_jobs("gradmaxsearch", [[targets[0]]], budgets=[2],
                         candidates="target_incident")
        checkpoint = tmp_path / "campaign.json"
        checkpoint.write_text('{"version"\n{"job": {}}\n')
        with pytest.raises(ValueError, match="corrupt header"):
            AttackCampaign(graph, checkpoint_path=checkpoint).run(jobs)

    def test_parseable_but_incomplete_record_is_skipped(
        self, graph_and_targets, tmp_path
    ):
        """A tear can land exactly on a close-brace, leaving valid JSON
        with fields missing — that record must cost one job, not the file."""
        graph, targets = graph_and_targets
        jobs = grid_jobs("gradmaxsearch", [[t] for t in targets[:2]], budgets=[2],
                         candidates="target_incident")
        checkpoint = tmp_path / "campaign.json"
        AttackCampaign(graph, checkpoint_path=checkpoint).run(jobs)
        lines = checkpoint.read_text().splitlines()
        # truncate the last record to a parseable prefix: its "job" object
        torn = json.loads(lines[-1])["job"]
        lines[-1] = json.dumps({"job": torn})
        checkpoint.write_text("\n".join(lines) + "\n")
        resumed = AttackCampaign(graph, checkpoint_path=checkpoint).run(jobs)
        fresh = AttackCampaign(graph).run(jobs)
        assert resumed.resumed_jobs == 1
        for a, b in zip(resumed, fresh):
            assert a.flips_by_budget == b.flips_by_budget

    @pytest.mark.parametrize(
        "flips, budget_key",
        [([[1, 999]], None), ([[3, 2]], None), ([[-1, 4]], None), ([], "3")],
        ids=["out-of-range", "non-canonical", "negative", "budget-key"],
    )
    def test_out_of_contract_record_is_skipped(
        self, graph_and_targets, tmp_path, caplog, flips, budget_key
    ):
        """A hand-edited record naming flips that do not exist on this graph
        (or a budget beyond its job's) must cost one job, never be resumed."""
        graph, targets = graph_and_targets
        jobs = grid_jobs("gradmaxsearch", [[t] for t in targets[:2]], budgets=[2],
                         candidates="target_incident")
        checkpoint = tmp_path / "campaign.json"
        AttackCampaign(graph, checkpoint_path=checkpoint).run(jobs)
        lines = checkpoint.read_text().splitlines()
        record = json.loads(lines[-1])
        record["flips_by_budget"][budget_key or "2"] = flips
        lines[-1] = json.dumps(record)
        checkpoint.write_text("\n".join(lines) + "\n")
        with caplog.at_level("WARNING"):
            resumed = AttackCampaign(graph, checkpoint_path=checkpoint).run(jobs)
        assert "unreadable entry" in caplog.text
        fresh = AttackCampaign(graph).run(jobs)
        assert resumed.resumed_jobs == 1
        for a, b in zip(resumed, fresh):
            assert a.flips_by_budget == b.flips_by_budget

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_failed_job_leaves_engine_clean(self, graph_and_targets, backend):
        graph, targets = graph_and_targets
        campaign = AttackCampaign(graph, backend=backend)
        good = grid_jobs("gradmaxsearch", [[t] for t in targets[:2]], budgets=[3],
                         candidates="target_incident")
        # run one job so the shared engine exists and holds state
        first = campaign.run(good[:1])
        # a job whose attack blows up mid-run (two_hop needs the matrix walk,
        # so force a failure via an interrupt-like exception inside attack)
        boom = AttackJob.make("gradmaxsearch", [targets[0]], 2)
        original_attack = GradMaxSearch.attack

        def exploding_attack(self, graph_, targets_, budget, **kwargs):
            engine = kwargs.get("engine")
            if engine is not None:
                engine.apply_flip(0, 1)  # poison, then die mid-job
                raise KeyboardInterrupt
            return original_attack(self, graph_, targets_, budget, **kwargs)

        GradMaxSearch.attack = exploding_attack
        try:
            with pytest.raises(KeyboardInterrupt):
                campaign.run([boom])
        finally:
            GradMaxSearch.attack = original_attack
        # the shared engine must have been restored: rerunning the good jobs
        # on the SAME campaign instance matches a fresh campaign exactly
        rerun = campaign.run(good)
        fresh = AttackCampaign(graph, backend=backend).run(good)
        for a, b in zip(rerun, fresh):
            assert a.flips_by_budget == b.flips_by_budget
        assert first.outcome(good[0]).flips_by_budget == rerun.outcome(
            good[0]
        ).flips_by_budget


class TestJobSpecs:
    def test_job_id_is_content_addressed(self):
        a = AttackJob.make("gradmaxsearch", [3, 1], 2, candidates="two_hop")
        b = AttackJob.make("gradmaxsearch", (3, 1), 2, candidates="two_hop")
        c = AttackJob.make("gradmaxsearch", [3, 2], 2, candidates="two_hop")
        assert a.job_id == b.job_id
        assert a.job_id != c.job_id

    def test_job_roundtrips_with_stable_id(self):
        job = AttackJob.make(
            "binarizedattack", [1, 2], 3,
            candidates="adaptive", weights=[1.0, 2.0],
            lambdas=(0.1,), iterations=20,
        )
        back = AttackJob.from_dict(json.loads(json.dumps(job.to_dict())))
        assert back == job
        assert back.job_id == job.job_id

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=repr)
    def test_rejects_non_finite_weights(self, bad):
        """A NaN weight would land as non-standard JSON ``NaN`` in the job id
        hash and in checkpoint records."""
        with pytest.raises(ValueError, match="finite"):
            AttackJob.make("gradmaxsearch", [1, 2], 5, weights=[bad, 1.0])

    def test_rejects_unknown_attack_and_strategy(self):
        with pytest.raises(ValueError, match="unknown attack"):
            AttackJob.make("nope", [0], 1)
        with pytest.raises(ValueError, match="strategy"):
            AttackJob.make("gradmaxsearch", [0], 1, candidates="bogus")
        with pytest.raises(ValueError, match="strategy"):
            AttackJob.make("gradmaxsearch", [0], 1, candidates="block")

    def test_every_registered_attack_is_job_buildable(self):
        # the campaign resolves repro.attacks.ATTACK_REGISTRY lazily — a
        # newly registered attack must be job-buildable with no extra wiring
        from repro.attacks import ATTACK_REGISTRY, StructuralAttack

        for name in ATTACK_REGISTRY:
            job = AttackJob.make(name, [0], 1)
            assert isinstance(job.build_attack("dense"), StructuralAttack)

    def test_rejects_params_the_attack_does_not_take(self):
        # caught at job-BUILD time, not mid-campaign
        with pytest.raises(ValueError, match="does not accept"):
            AttackJob.make("gradmaxsearch", [0], 1, lambdas=(0.1,))
        with pytest.raises(ValueError, match="does not accept"):
            grid_jobs("gradmaxsearch", [[0]], budgets=[1], lambdas=[0.1])

    def test_grid_jobs_lambda_sweep(self):
        jobs = grid_jobs(
            "binarizedattack", [[0], [1]], budgets=[2, 3],
            lambdas=[0.3, 0.1], iterations=10,
        )
        assert len(jobs) == 2 * 2 * 2
        lams = {dict(j.params)["lambdas"] for j in jobs}
        assert lams == {(0.3,), (0.1,)}
        assert all(dict(j.params)["iterations"] == 10 for j in jobs)


class TestAdaptiveCandidates:
    def test_starts_as_target_incident(self, graph_and_targets):
        graph, targets = graph_and_targets
        adaptive = CandidateSet.build("adaptive", graph, targets)
        incident = CandidateSet.target_incident(graph.number_of_nodes, targets)
        assert adaptive.pair_set() == incident.pair_set()
        assert adaptive.strategy == "adaptive"

    def test_refresh_grows_superset_of_target_incident(self, graph_and_targets):
        graph, targets = graph_and_targets
        n = graph.number_of_nodes
        incident = CandidateSet.target_incident(n, targets).pair_set()
        adaptive = CandidateSet.build("adaptive", graph, targets)
        engine = SurrogateEngine.create(
            graph.adjacency, targets, adaptive, backend="sparse"
        )
        # land flips touching non-ball nodes and check the invariant holds
        outsiders = [v for v in range(n) if v not in set(targets)][:4]
        for v in outsiders:
            grown = adaptive.refresh([(targets[0], v)], engine)
            assert incident <= grown.pair_set()
            assert adaptive.pair_set() <= grown.pair_set()
            assert v in grown.ball
            adaptive = grown
        # flips between existing ball members change nothing
        assert adaptive.refresh([(targets[0], outsiders[0])], engine) is adaptive

    def test_static_strategies_refresh_to_self(self, graph_and_targets):
        graph, targets = graph_and_targets
        static = CandidateSet.build("target_incident", graph, targets)
        assert static.refresh([(0, 1)]) is static

    def test_refresh_requires_engine_for_growth(self, graph_and_targets):
        graph, targets = graph_and_targets
        adaptive = CandidateSet.build("adaptive", graph, targets)
        outsider = next(v for v in range(graph.number_of_nodes)
                        if v not in set(targets))
        with pytest.raises(ValueError, match="engine"):
            adaptive.refresh([(targets[0], outsider)])

    @pytest.mark.parametrize("attack_cls", [GradMaxSearch, BinarizedAttack])
    def test_adaptive_backend_parity(self, graph_and_targets, attack_cls):
        graph, targets = graph_and_targets
        kwargs = {"iterations": 15} if attack_cls is BinarizedAttack else {}
        dense = attack_cls(backend="dense", **kwargs).attack(
            graph, targets[:3], 4, candidates="adaptive"
        )
        fast = attack_cls(backend="sparse", **kwargs).attack(
            graph, targets[:3], 4, candidates="adaptive"
        )
        assert dense.flips_by_budget == fast.flips_by_budget

    def test_adaptive_final_set_contains_flipped_pairs(self, graph_and_targets):
        graph, targets = graph_and_targets
        result = GradMaxSearch().attack(graph, targets[:3], 5, candidates="adaptive")
        incident = CandidateSet.target_incident(
            graph.number_of_nodes, targets[:3]
        )
        assert result.metadata["candidate_strategy"] == "adaptive"
        assert result.metadata["candidate_count"] >= len(incident)

    def test_adaptive_campaign_jobs(self, graph_and_targets):
        graph, targets = graph_and_targets
        jobs = grid_jobs("gradmaxsearch", [[t] for t in targets[:3]], budgets=[3],
                         candidates="adaptive")
        result = AttackCampaign(graph, backend="sparse").run(jobs)
        for job, outcome in zip(jobs, result):
            solo = GradMaxSearch(backend="sparse").attack(
                graph, list(job.targets), job.budget, candidates="adaptive"
            )
            assert {b: solo.flips(b) for b in solo.budgets} == outcome.flips_by_budget

    def test_adaptive_set_validates_like_candidate_set(self):
        with pytest.raises(ValueError):
            AdaptiveCandidateSet(
                n=4,
                rows=np.array([2], dtype=np.intp),
                cols=np.array([1], dtype=np.intp),  # not canonical
            )
