"""Cross-process trace merge under chaos: a SIGKILL'd worker's sink.

The scheduler chaos suite proves the *outcomes* survive a hard kill;
this suite proves the *trace* does.  A worker killed mid-lease leaves a
sink with no open-span records (spans are written on exit) but with its
instant events intact, and the merged trace must still load, summarize,
and export — with the lease steal visible as a ``scheduler.requeue``
event from a survivor.
"""

from __future__ import annotations

import json
import os
import signal

from repro import telemetry
from repro.attacks.campaign import AttackCampaign
from repro.attacks.executor import ParallelCampaignExecutor
from repro.attacks.scheduler import WorkQueue, resolve_lease_ttl
from repro.telemetry.report import chrome_trace, render_report, summarize


def _chaos_ttl():
    return min(resolve_lease_ttl(None), 1.0)


class TestMergeUnderChaos:
    def test_sigkilled_worker_trace_merges(
        self, graph_and_targets, tmp_path, monkeypatch, sweep_jobs,
        assert_outcomes_identical,
    ):
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets)
        serial = AttackCampaign(graph).run(jobs)

        import repro.attacks.scheduler as scheduler_module

        real_main = scheduler_module._scheduler_worker_main

        def kamikaze_main(spec, queue_dir, shard_path, compute_ranks,
                          lease_ttl, worker_index, telemetry=None):
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
                      lease_ttl, worker_index, telemetry=telemetry)

        monkeypatch.setattr(
            scheduler_module, "_scheduler_worker_main", kamikaze_main
        )
        trace_dir = tmp_path / "trace"
        executor = ParallelCampaignExecutor(
            graph, workers=4, lease_ttl=_chaos_ttl(), telemetry=trace_dir,
        )
        result = executor.run(jobs)
        telemetry.shutdown()

        # the run itself recovered, and the result records the chaos
        assert result.dead_workers == ("campaign-worker-0",)
        assert result.requeues >= 1
        assert result.worker_stats
        assert_outcomes_identical(serial, result)

        events = telemetry.load_trace_dir(trace_dir)
        workers = {e["worker"] for e in events}
        # the survivors' sinks all merged alongside the parent's
        assert {"main", "worker-1", "worker-2", "worker-3"} <= workers
        # survivors completed jobs, so their job spans landed
        job_workers = {
            e["worker"] for e in events
            if e["kind"] == "span" and e["name"] == "job"
        }
        assert job_workers <= {"worker-1", "worker-2", "worker-3"}
        assert len([e for e in events if e["name"] == "job"]) == len(jobs)
        # the dead worker's open spans are lost but its claim event is
        # durable (sinks flush per record), and a survivor logged the steal
        names = {e["name"] for e in events}
        assert "scheduler.requeue" in names
        dead = [e for e in events if e["worker"] == "worker-0"]
        assert dead, "the killed worker's sink should still merge"
        assert all(e["kind"] != "span" for e in dead)

        # aggregation handles the orphaned records without choking
        summary = summarize(events)
        assert summary["spans"] > 0
        text = render_report(summary)
        assert "scheduler.requeue" in text
        json.dumps(chrome_trace(events))

    def test_clean_scheduler_run_traces_every_worker(
        self, graph_and_targets, tmp_path, sweep_jobs,
    ):
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets, count=4)
        trace_dir = tmp_path / "trace"
        result = ParallelCampaignExecutor(
            graph, workers=2, telemetry=trace_dir
        ).run(jobs)
        telemetry.shutdown()
        assert result.dead_workers == ()
        assert len(result.worker_stats) == 2

        events = telemetry.load_trace_dir(trace_dir)
        spans = {e["span"]: e for e in events if e["kind"] == "span"}
        # every worker.run span parents into the main process's drain span
        drains = [s for s in spans.values() if s["name"] == "executor.drain"]
        assert len(drains) == 1
        runs = [s for s in spans.values() if s["name"] == "worker.run"]
        assert {s["worker"] for s in runs} == {"worker-0", "worker-1"}
        assert all(s["parent"] == drains[0]["span"] for s in runs)
        # claims and completions are first-class events
        claims = [e for e in events if e["name"] == "scheduler.claim"]
        completes = [e for e in events if e["name"] == "scheduler.complete"]
        assert len(claims) == len(jobs)
        assert len(completes) == len(jobs)
        # the critical path crosses the process boundary
        path = [step["name"] for step in summarize(events)["critical_path"]]
        assert path[0] == "executor.run"
        assert "worker.run" in path
