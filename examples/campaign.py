"""AttackCampaign walkthrough: a λ-sweep over 50 targets on one graph.

README-level summary
--------------------
The paper's experiments never run ONE attack — they sweep grids: many
targets × many budgets × the λ grid of BinarizedAttack, all against the
same clean graph.  Run naively, every ``attack()`` call pays the same
fixed costs again (adjacency validation, the O(n + m) sparse feature
build, candidate arrays, poisoned-graph materialisation for evaluation).

``AttackCampaign`` batches the whole grid onto one shared sparse surrogate
engine: between jobs it *retargets* (swap targets/candidates in O(|C|))
and *rolls back* the previous job's flips (O(deg) per flip) instead of
rebuilding anything.  Results are identical to independent runs — the
campaign is purely a performance layer — and a 50-target budget-5 sweep
on a sparse 10,000-node graph runs ~7× faster than sequential calls
(``benchmarks/results/BENCH_campaign.json``).

Campaigns are resumable: pass ``checkpoint_path`` and every completed job
is persisted; rerunning the same spec skips straight past them, so an
interrupted overnight sweep restarts from the last completed job.

Run:  python examples/campaign.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.attacks import AttackCampaign, grid_jobs
from repro.graph import load_dataset
from repro.oddball import OddBall


def main() -> None:
    # 1. One clean graph, many anomalous targets.  (At this demo scale the
    #    graph is small; the campaign machinery is the same one that runs
    #    50-target sweeps on sparse 10k-node graphs.)
    dataset = load_dataset("bitcoin-alpha", rng=7, scale=0.5)
    graph = dataset.graph
    report = OddBall().analyze(graph)
    targets = report.top_k(12).tolist()
    print(f"graph: {graph.number_of_nodes} nodes, {graph.number_of_edges} edges")
    print(f"sweeping {len(targets)} targets")

    # 2. The job grid.  grid_jobs is the paper's sweep shape: per-target
    #    jobs × budgets × (optionally) a λ grid.  Here: every target gets
    #    a GradMax job plus one BinarizedAttack job per λ — the λ-sweep
    #    tells you how the LASSO pressure trades attack strength against
    #    sparsity on YOUR graph.
    budget = 6
    jobs = grid_jobs(
        "gradmaxsearch",
        [[t] for t in targets],
        budgets=[budget],
        candidates="target_incident",
    )
    jobs += grid_jobs(
        "binarizedattack",
        [[t] for t in targets],
        budgets=[budget],
        lambdas=[0.3, 0.1, 0.02],        # one job per λ
        candidates="target_incident",
        iterations=60,
    )
    print(f"job grid: {len(jobs)} jobs "
          f"({len(targets)} targets × (1 gradmax + 3 λ))")

    # 3. Run the whole grid on one shared engine — with a checkpoint, so
    #    an interrupted sweep would resume instead of restarting.
    with tempfile.TemporaryDirectory() as scratch:
        checkpoint = Path(scratch) / "campaign_checkpoint.json"
        campaign = AttackCampaign(graph, backend="sparse", checkpoint_path=checkpoint)
        sweep = campaign.run(jobs)
        print(f"completed {len(sweep)} jobs in {sweep.seconds:.2f}s "
              f"(resumed {sweep.resumed_jobs})")

        # Rerunning the same spec is free — everything replays from the
        # checkpoint.
        replay = AttackCampaign(
            graph, backend="sparse", checkpoint_path=checkpoint
        ).run(jobs)
        print(f"replay: {replay.resumed_jobs}/{len(replay)} jobs from checkpoint")

    # 4. Per-λ aggregation: mean flips spent and mean AScore decrease.
    #    Small λ → the LASSO barely bites → budgets get spent; large λ →
    #    sparse, conservative flip sets.
    print("\nλ-sweep summary (BinarizedAttack):")
    print(f"{'lambda':>8} {'mean flips':>11} {'mean tau':>9} {'mean burial':>12}")
    for lam in (0.3, 0.1, 0.02):
        outcomes = [
            o for o in sweep
            if o.job.attack == "binarizedattack"
            and dict(o.job.params)["lambdas"] == (lam,)
        ]
        flips = np.mean([len(o.flips) for o in outcomes])
        tau = np.mean([o.score_decrease for o in outcomes])
        burial = np.mean([
            shift for o in outcomes for shift in o.rank_shifts.values()
        ])
        print(f"{lam:>8} {flips:>11.1f} {tau:>9.1%} {burial:>12.1f}")

    gradmax = [o for o in sweep if o.job.attack == "gradmaxsearch"]
    print(f"\ngradmax baseline: mean tau "
          f"{np.mean([o.score_decrease for o in gradmax]):.1%}, "
          f"mean seconds/job {np.mean([o.seconds for o in gradmax]):.4f}")

    # 5. Every outcome reconstructs a full AttackResult when you need the
    #    budget-indexed artefacts (poisoned graphs, per-budget flips):
    best = max(sweep, key=lambda o: o.score_decrease)
    result = best.attack_result(graph.adjacency)
    print(f"\nbest job: {best.job.attack} on target {list(best.job.targets)} "
          f"(tau {best.score_decrease:.1%}, flips {result.flips()})")

    # 6. The same grid drains across worker processes (one engine per
    #    worker, jobs claimed one at a time from a shared queue) with
    #    bit-identical results — the multiplier for Fig. 4-scale sweeps.
    #    See benchmarks/bench_parallel_campaign.py and
    #    `python -m repro.experiments.runner --workers N`.
    from repro.attacks import ParallelCampaignExecutor

    parallel = ParallelCampaignExecutor(graph, workers=2, backend="sparse").run(jobs)
    assert [o.flips for o in parallel] == [o.flips for o in sweep]
    print(f"parallel executor (2 workers): {len(parallel)} jobs, "
          f"flips identical to the serial campaign")

    # 7. Any run can be traced: pass telemetry= (or set REPRO_TELEMETRY,
    #    or --telemetry on the CLIs) and every layer writes spans, events
    #    and kernel counters to per-worker JSONL sinks — with results
    #    bit-identical to the untraced run.  Inspect the merged trace
    #    with `python -m repro.telemetry report <dir>` (add --chrome for
    #    a chrome://tracing timeline).
    from repro import telemetry
    from repro.telemetry.report import render_report, summarize

    with tempfile.TemporaryDirectory() as trace_dir:
        traced = AttackCampaign(
            graph, backend="sparse", telemetry=trace_dir
        ).run(jobs)
        telemetry.shutdown()
        assert [o.flips for o in traced] == [o.flips for o in sweep]
        summary = summarize(telemetry.load_trace_dir(trace_dir))
        print(f"\ntraced campaign: {summary['spans']} spans, "
              f"flips identical to the untraced run")
        print(render_report(summary, top=3))


if __name__ == "__main__":
    main()
