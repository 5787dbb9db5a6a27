"""The two child-process steps of the benchmark.

    python3 -m perfbench.measure prepare --workload NAME
    python3 -m perfbench.measure measure --workload NAME --seed N \\
        --seconds S --trace 0|1 --scratch DIR

``run.py`` starts each in a fresh process, from the repository root, with
``src`` and ``benchmarks`` on ``PYTHONPATH`` and the store and kernel
caches inside the checkout.  ``prepare`` builds the workload's store and
the compiled kernels outside any timed region; ``measure`` times the
campaign.  Both print human-readable lines and then one JSON object as
their last line.
"""

import _benchenv  # first: pins the BLAS/OpenMP thread pools before numpy loads

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

from repro.kernels import resolve_kernels

from perfbench import gate, layers, speed
from perfbench.workloads import BUDGET, KERNELS, WORKLOADS, job_grid, open_store, set_up, shuffled

#: Repeats of set-up + campaign a run makes at least; it makes more while
#: they fit in ``--seconds``.
MIN_REPEATS = 3
#: A run times at least this many set-ups; the median is reported.
MIN_SETUPS = 5
#: After each repeat, set-ups run until this many seconds of them are
#: timed (the store set-ups take milliseconds), so set-up samples spread
#: over the whole run.
SETUP_BATCH_SECONDS = 0.2
#: Untraced repeats a traced run makes first: the base of trace.overhead_s.
UNTRACED_REPEATS = 2


def prepare(workload) -> dict:
    """Build the store and the compiled kernels; report what ``auto`` chose."""
    start = time.perf_counter()
    store = open_store(workload)
    build_s = time.perf_counter() - start
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        resolved = resolve_kernels(KERNELS)
    return {
        "kernels": resolved,
        "fallback_reason": [str(w.message) for w in caught],
        "store_build_s": build_s,
        "store_digest": store.digest,
    }


class Run:
    """One measuring process: repeats of set-up + campaign, gated."""

    def __init__(self, workload, seed: int, scratch: Path):
        self.workload = workload
        self.scratch = scratch
        self.reference = gate.load_reference(workload.name)["jobs"]
        store = open_store(workload)
        self.jobs = shuffled(job_grid(workload, store), seed)
        self.first_targets = list(self.jobs[0].targets)
        self.attempted = 0
        self.failed = 0
        self.taus = None
        self.peak_rss_kb = 0

    def set_up(self):
        checkpoint = None
        if self.workload.workers > 1:
            shutil.rmtree(self.scratch / "checkpoint", ignore_errors=True)
            checkpoint = self.scratch / "checkpoint" / "campaign.jsonl"
        return set_up(self.workload, self.first_targets, checkpoint)

    def campaign(self, jobs, record: bool = True):
        """Set up, run ``jobs`` and gate them: ``(setup_s, campaign_s, result)``.

        ``campaign_s`` and ``result`` are ``None`` when the campaign raised;
        every job of that campaign then counts as failed.
        """
        setup_s, campaign = self.set_up()
        start = time.perf_counter()
        try:
            result = campaign.run(jobs)
        except Exception:
            traceback.print_exc()
            self.attempted += len(jobs)
            self.failed += len(jobs)
            return setup_s, None, None
        campaign_s = time.perf_counter() - start
        self.gate(result)
        if record and self.taus is None:
            self.taus = [outcome.score_decrease for outcome in result]
        return setup_s, campaign_s, result

    def gate(self, result) -> None:
        problems = gate.mismatches(result.outcomes, self.reference)
        self.attempted += len(result.outcomes)
        self.failed += len(problems)
        for job_id, reason in problems[:5]:
            print(f"MISMATCH job {job_id}: {reason}", file=sys.stderr)
        self.peak_rss_kb = max(self.peak_rss_kb, result.peak_rss_kb)

    def warm_up(self) -> None:
        """One set-up and one GradMax job, so lazy set-up is paid untimed."""
        first = next(job for job in self.jobs if job.attack == "gradmaxsearch")
        self.campaign([first], record=False)

    def rss_mb(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return max(own, self.peak_rss_kb) / 1024.0


def end_to_end(run: Run, seconds: float) -> dict:
    """Repeat set-up + campaign + more set-ups for ``seconds``.

    A speed probe runs before the first repeat and after each one; every
    time is rescaled to the reference speed by the mean of the two probe
    readings around it (see ``speed.py``).
    """
    with speed.probe(run.workload.workers) as probe:
        probe.seconds()  # untimed: first touch of the probe's arrays
        probes = [probe.seconds()]
        setups, campaigns, raw_campaigns, repeats = [], [], [], 0
        job_times = {"gradmaxsearch": {}, "binarizedattack": {}}
        start = time.perf_counter()
        while True:
            setup_s, campaign_s, result = run.campaign(run.jobs)
            batch = [setup_s]
            while sum(batch) < SETUP_BATCH_SECONDS:
                batch.append(run.set_up()[0])
            probes.append(probe.seconds())
            factor = speed.scale(probes[-2], probes[-1])
            setups += [s * factor for s in batch]
            if result is not None:
                campaigns.append(campaign_s * factor)
                raw_campaigns.append(campaign_s)
                for outcome in result:
                    job_times[outcome.job.attack].setdefault(outcome.job_id, []).append(
                        outcome.seconds * factor
                    )
            elapsed = time.perf_counter() - start
            # Start another repeat only if it should end within the budget.
            repeats += 1
            if repeats >= MIN_REPEATS and elapsed * (1 + 1 / repeats) > seconds:
                break
        while len(setups) < MIN_SETUPS:
            setup_s = run.set_up()[0]
            probes.append(probe.seconds())
            setups.append(setup_s * speed.scale(probes[-2], probes[-1]))
    if not campaigns:
        raise SystemExit("every campaign raised; nothing was measured")

    for attack, samples in job_times.items():
        pooled = [t for times in samples.values() for t in times]
        tail = gate.tail_percentile(pooled)
        line = (f"{attack} jobs: {len(samples)} jobs, n={len(pooled)} "
                f"p50={gate.job_median(samples):.6f} s")
        if tail is not None:
            line += f" p90={tail:.6f} s"
        print(line)
    print(f"campaign_s samples: {[round(c, 4) for c in campaigns]}")
    print(f"campaign_s unscaled samples: {[round(c, 4) for c in raw_campaigns]}")
    print(f"probe_s: {[round(p, 4) for p in probes]} (reference {speed.REFERENCE_PROBE_S} s)")
    print(f"failed_frac: {run.failed / run.attempted:.6f} ({run.failed}/{run.attempted})")
    return {
        "setup_s": (gate.median(setups), "s"),
        "campaign_s": (gate.median(campaigns), "s"),
        "gradmax_job_p50_s": (gate.job_median(job_times["gradmaxsearch"]), "s"),
        "binarized_job_p50_s": (gate.job_median(job_times["binarizedattack"]), "s"),
        "peak_rss_mb": (run.rss_mb(), "MB"),
        "tau_mean": (statistics.fmean(run.taus), "ratio"),
    }


def per_layer(run: Run) -> dict:
    untraced = []
    for _ in range(UNTRACED_REPEATS):
        campaign_s = run.campaign(run.jobs, record=False)[1]
        if campaign_s is not None:
            untraced.append(campaign_s)
    if not untraced:
        raise SystemExit("every campaign raised; nothing was measured")

    spans_dir = run.scratch / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    tracer = layers.Tracer(flush_dir=spans_dir)
    with layers.instrument(tracer):
        tracer.phase = "setup"
        setup_s, campaign = run.set_up()
        tracer.phase = "campaign"
        start = time.perf_counter()
        result = campaign.run(run.jobs)
        campaign_s = time.perf_counter() - start
    run.gate(result)

    spans = tracer.collect()
    worker_wall = sum(stats.get("wall_seconds", 0.0) for stats in result.worker_stats)
    shape = dict(
        pid=os.getpid(), setup_s=setup_s, campaign_s=campaign_s,
        worker_wall_s=worker_wall,
    )
    for line in layers.table(spans, **shape):
        print(line)
    return layers.per_layer_metrics(
        spans, untraced_campaign_s=gate.median(untraced),
        parent_s=getattr(campaign, "last_overhead_seconds", 0.0), **shape,
    )


def measure(workload, seed: int, seconds: float, trace: bool, scratch: Path) -> dict:
    run = Run(workload, seed, scratch)
    run.warm_up()
    kernels = resolve_kernels(KERNELS)
    env = _benchenv.bench_env()
    env.update(kernels_resolved=kernels, budget=BUDGET, jobs=len(run.jobs))
    print("environment: " + json.dumps(env, sort_keys=True))
    metrics = per_layer(run) if trace else end_to_end(run, seconds)
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("step", choices=("prepare", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", type=Path, help="scratch directory of the measure step")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.step == "prepare":
        result = prepare(workload)
    else:
        result = measure(workload, args.seed, args.seconds, bool(args.trace), args.scratch)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
