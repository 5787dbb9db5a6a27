"""ParallelCampaignExecutor scaling: serial campaign vs queue-draining workers.

The executor's claim mirrors the campaign's: flip sets (and every recorded
evaluation artefact) are **bit-identical** to the serial
:class:`~repro.attacks.campaign.AttackCampaign` — asserted here on every
run — and the only thing that changes is wall-clock.  With W workers the
critical path drops from ``E + J·t`` to about ``E + J·t/W`` (E = one
engine build + clean-score pass per process, t = mean per-job cost), so a
Fig. 4-scale grid (hundreds of jobs at n = 10,000) approaches linear
scaling while ``J·t`` dominates.

Two numbers are reported per worker count:

* ``seconds_wall`` — the measured end-to-end wall time of the executor,
  fork + queue drain + merge included.  This is the honest headline **when
  the machine has at least W cores**.
* ``seconds_critical_path`` — parent overhead (checkpoint load, queue
  publish, spec capture, shard merge — measured) plus the largest
  per-worker **CPU time** (from the executor's ``.stats`` sidecars): the
  wall time a machine with W idle cores would see.  CPU time is immune to
  time-sharing, so on core-starved machines (e.g. a 1-CPU container,
  where W processes contend for one core and wall time cannot drop) this
  is the meaningful scaling signal, and it is what the committed
  artefact's ``speedup`` field falls back to — always labelled by
  ``speedup_mode``.

The artefact records ``cpu_count`` so a reader can tell which regime a
given run was in; the scheduled CI benchmark job regenerates it on
multi-core runners where ``measured`` mode applies.

A second, cost-skewed grid checks the load balance.  A budgets × targets
sweep is emitted budget-major per target, so round-robin striping at 4
workers would hand one worker every budget-16 job.  Its ``stripe_share``
is that worker's share of the serial run's per-job seconds; the queue's
largest per-worker CPU share must stay below it.

Run the scaling study directly::

    PYTHONPATH=src python benchmarks/bench_parallel_campaign.py            # full
    PYTHONPATH=src python benchmarks/bench_parallel_campaign.py --smoke    # CI

Every run emits ``benchmarks/results/BENCH_parallel_campaign.json`` (smoke
runs a ``_smoke`` sibling); the full-run artefact is committed.
"""

import _benchenv  # first: pins BLAS/OpenMP threads before numpy loads

import json
import os
import sys
import time
from pathlib import Path

import numpy as np
from scipy import sparse

from repro.attacks import AttackCampaign, ParallelCampaignExecutor, grid_jobs
from repro.oddball.surrogate import EngineSpec
from repro.graph.sparse import anomaly_scores_sparse

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_parallel_campaign.json"

_BUDGET = 5
_CANDIDATES = "target_incident"
#: Budget-major striping: at 4 workers, round-robin would hand worker w
#: every budget ``_SKEWED_BUDGETS[w]`` job.
_SKEWED_BUDGETS = (2, 4, 8, 16)


def _random_sparse_graph(n: int, m: int, seed: int) -> sparse.csr_matrix:
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n, size=m)
    cols = rng.integers(0, n, size=m)
    mask = rows != cols
    matrix = sparse.csr_matrix(
        (np.ones(mask.sum()), (rows[mask], cols[mask])), shape=(n, n)
    )
    matrix = ((matrix + matrix.T) > 0).astype(np.float64)
    matrix.setdiag(0.0)
    matrix.eliminate_zeros()
    return matrix


def _campaign_instance(n: int, n_targets: int, seed: int = 0):
    """A mid-density sparse graph plus its top-scoring OddBall targets."""
    graph = _random_sparse_graph(n=n, m=4 * n, seed=seed)
    scores = anomaly_scores_sparse(graph)
    targets = np.argsort(-scores, kind="stable")[:n_targets].tolist()
    return graph, targets


def _assert_identical(serial, parallel) -> None:
    """The executor is a wall-clock lever only — everything else matches."""
    assert len(serial) == len(parallel)
    for a, b in zip(serial, parallel):
        assert a.job_id == b.job_id
        assert a.flips_by_budget == b.flips_by_budget, f"flip mismatch: {a.job_id}"
        assert a.surrogate_by_budget == b.surrogate_by_budget
        assert a.rank_shifts == b.rank_shifts
        assert a.score_before == b.score_before
        assert a.score_after == b.score_after


def _engine_setup_seconds(graph, targets) -> float:
    """One worker's fixed cost: spec → engine build (what E in E + J·t is).

    Built with an empty candidate set, exactly as the executor's workers
    do — ``candidates=None`` would materialise all n(n−1)/2 pairs.
    """
    spec = EngineSpec.from_graph(graph, backend="sparse")
    empty = (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp))
    start = time.perf_counter()
    spec.build(targets[:1], candidates=empty)
    return time.perf_counter() - start


def _run_case(n: int, n_targets: int, worker_counts, seed: int = 0) -> dict:
    graph, targets = _campaign_instance(n, n_targets, seed)
    jobs = grid_jobs(
        "gradmaxsearch",
        [[t] for t in targets],
        budgets=[_BUDGET],
        candidates=_CANDIDATES,
    )

    start = time.perf_counter()
    serial = AttackCampaign(graph, backend="sparse").run(jobs)
    seconds_serial = time.perf_counter() - start

    setup = _engine_setup_seconds(graph, targets)
    cpu_count = os.cpu_count() or 1

    sweeps = []
    for workers in worker_counts:
        executor = ParallelCampaignExecutor(
            graph, workers=workers, backend="sparse"
        )
        start = time.perf_counter()
        parallel = executor.run(jobs)
        seconds_wall = time.perf_counter() - start
        _assert_identical(serial, parallel)

        worker_cpu = [s["cpu_seconds"] for s in executor.last_worker_stats]
        critical_path = executor.last_overhead_seconds + max(worker_cpu)
        mode = "measured" if cpu_count >= workers else "modeled-critical-path"
        speedup = seconds_serial / (
            seconds_wall if mode == "measured" else critical_path
        )
        sweeps.append(
            {
                "workers": workers,
                "seconds_wall": round(seconds_wall, 4),
                "seconds_critical_path": round(critical_path, 4),
                "parent_overhead_seconds": round(
                    executor.last_overhead_seconds, 4
                ),
                "worker_cpu_seconds": [round(s, 4) for s in worker_cpu],
                "speedup": round(speedup, 2),
                "speedup_mode": mode,
                "shard_sizes": [len(s) for s in executor.last_shards],
                "flip_sets_identical": True,
            }
        )

    return {
        "n": n,
        "edges": int(graph.nnz // 2),
        "jobs": len(jobs),
        "budget": _BUDGET,
        "candidates": _CANDIDATES,
        "cpu_count": cpu_count,
        "engine_setup_seconds": round(setup, 4),
        "seconds_serial": round(seconds_serial, 4),
        "workers": sweeps,
    }


def _stripe_share(serial, workers: int) -> float:
    """Largest worker share of the serial per-job seconds under round-robin."""
    loads = [0.0] * workers
    for index, outcome in enumerate(serial):
        loads[index % workers] += outcome.seconds
    return max(loads) / sum(loads)


def _skewed_case(n: int, n_targets: int, workers: int = 4, seed: int = 0) -> dict:
    """The cost-skewed budgets × targets grid: parity plus load balance."""
    graph, targets = _campaign_instance(n, n_targets, seed)
    jobs = grid_jobs(
        "gradmaxsearch", [[t] for t in targets],
        budgets=list(_SKEWED_BUDGETS), candidates=_CANDIDATES,
    )
    serial = AttackCampaign(graph, backend="sparse").run(jobs)
    executor = ParallelCampaignExecutor(graph, workers=workers, backend="sparse")
    result = executor.run(jobs)
    _assert_identical(serial, result)
    worker_cpu = [s["cpu_seconds"] for s in executor.last_worker_stats]
    return {
        "n": n,
        "jobs": len(jobs),
        "budgets": list(_SKEWED_BUDGETS),
        "workers": workers,
        "seconds_serial": round(sum(o.seconds for o in serial), 4),
        "worker_cpu_seconds": [round(s, 4) for s in worker_cpu],
        "max_cpu_share": round(max(worker_cpu) / sum(worker_cpu), 4),
        "stripe_share": round(_stripe_share(serial, workers), 4),
        "shard_sizes": [len(s) for s in executor.last_shards],
        "requeues": executor.last_requeues,
        "dead_workers": list(executor.last_dead_workers),
        "flip_sets_identical": True,
    }


# --------------------------------------------------------------------- #
# CI smoke (pytest entries)
# --------------------------------------------------------------------- #


def test_bench_parallel_matches_serial(benchmark):
    row = benchmark.pedantic(
        lambda: _run_case(n=400, n_targets=8, worker_counts=(2,)),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    assert row["jobs"] == 8
    assert all(sweep["flip_sets_identical"] for sweep in row["workers"])


def test_bench_parallel_checkpoint_interop(tmp_path):
    graph, targets = _campaign_instance(n=300, n_targets=6)
    jobs = grid_jobs(
        "gradmaxsearch", [[t] for t in targets], budgets=[_BUDGET],
        candidates=_CANDIDATES,
    )
    checkpoint = tmp_path / "campaign.jsonl"
    # serial writes the first half; a 3-worker executor resumes + finishes
    AttackCampaign(graph, checkpoint_path=checkpoint).run(jobs[:3])
    resumed = ParallelCampaignExecutor(
        graph, workers=3, checkpoint_path=checkpoint
    ).run(jobs)
    fresh = AttackCampaign(graph).run(jobs)
    assert resumed.resumed_jobs == 3
    _assert_identical(fresh, resumed)


def test_bench_parallel_skewed_grid_matches_serial_and_balances():
    """Parity on the skewed grid, every job accounted for, no dead workers,
    and no worker's CPU share reaches the round-robin stripe maximum."""
    row = _skewed_case(n=400, n_targets=8)
    assert row["jobs"] == 32
    assert row["flip_sets_identical"]
    assert sum(row["shard_sizes"]) == row["jobs"]
    assert row["dead_workers"] == []
    assert row["max_cpu_share"] < row["stripe_share"]


# --------------------------------------------------------------------- #
# Scaling study (the committed artefact)
# --------------------------------------------------------------------- #


def run_parallel_scaling(smoke: bool = False, output: "Path | None" = None) -> dict:
    """Time serial vs 2/4/8 workers; print a table, emit JSON.

    Smoke runs write to a ``_smoke`` sibling so CI never clobbers the
    committed full-run artefact.
    """
    if output is None:
        output = (
            RESULTS_PATH.with_name("BENCH_parallel_campaign_smoke.json")
            if smoke
            else RESULTS_PATH
        )
    if smoke:
        cases = [(500, 16, (2,))]
        skewed_case = dict(n=400, n_targets=8)
    else:
        cases = [(10000, 120, (2, 4, 8))]
        skewed_case = dict(n=2000, n_targets=12)

    print("ParallelCampaignExecutor: queue-draining workers vs serial AttackCampaign")
    print(
        f"(gradmaxsearch, budget={_BUDGET}, candidates={_CANDIDATES}, m ≈ 4n; "
        f"cpus={os.cpu_count()})"
    )
    print()
    rows = []
    for n, n_targets, worker_counts in cases:
        row = _run_case(n=n, n_targets=n_targets, worker_counts=worker_counts)
        rows.append(row)
        print(f"n={n}  jobs={row['jobs']}  serial={row['seconds_serial']:.3f}s")
        header = f"{'workers':>8} {'wall':>8} {'critical':>9} {'speedup':>8}  mode"
        print(header)
        print("-" * (len(header) + 16))
        for sweep in row["workers"]:
            print(
                f"{sweep['workers']:>8} {sweep['seconds_wall']:>8.3f} "
                f"{sweep['seconds_critical_path']:>9.3f} "
                f"{sweep['speedup']:>7.2f}x  {sweep['speedup_mode']}"
            )
    skewed = _skewed_case(**skewed_case)
    assert skewed["max_cpu_share"] < skewed["stripe_share"], skewed
    print(
        f"\nskewed grid n={skewed['n']} jobs={skewed['jobs']} "
        f"budgets={skewed['budgets']} workers={skewed['workers']}: "
        f"max worker CPU share {skewed['max_cpu_share']:.3f} "
        f"< round-robin stripe share {skewed['stripe_share']:.3f}"
    )

    payload = {
        "benchmark": "parallel_campaign_scaling",
        "attack": "gradmaxsearch",
        "budget": _BUDGET,
        "candidates": _CANDIDATES,
        "edges_per_node": 4,
        "smoke": smoke,
        "env": _benchenv.bench_env(),
        "results": rows,
        "skewed": skewed,
        "notes": (
            "Flip sets, losses and rank shifts are asserted bit-identical "
            "between the serial campaign and every worker count. "
            "seconds_wall is the measured end-to-end executor time; "
            "seconds_critical_path = measured parent overhead (checkpoint "
            "load + queue publish + spec capture + merge) + max per-worker "
            "CPU seconds — the wall time of a run whose workers never "
            "contend for cores. speedup uses wall when cpu_count >= "
            "workers, the critical path otherwise — see speedup_mode. "
            "cpu_count records which regime this run was in. skewed is a "
            "budgets x targets grid emitted budget-major: stripe_share is "
            "the largest worker share of the serial per-job seconds under "
            "round-robin striping, max_cpu_share the queue's largest "
            "per-worker CPU share (asserted lower)."
        ),
    }
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {output}")
    return payload


if __name__ == "__main__":
    run_parallel_scaling(smoke="--smoke" in sys.argv[1:])
