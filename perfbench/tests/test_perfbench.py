"""Tests of the benchmark's own arithmetic, gate and tracing."""

import json
import multiprocessing
from collections import namedtuple
from pathlib import Path

import pytest

from perfbench import gate, layers, speed

ROOT = Path(__file__).resolve().parents[2]
Outcome = namedtuple("Outcome", "job_id flips score_decrease")


def span(id, parent, start, end, name="x", pid=1, phase="campaign"):
    return layers.Span(id, parent, name, start, end, 0, pid, phase)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        span("root", None, 0, 100, "campaign.run"),
        span("a", "root", 10, 40),
        span("b", "root", 30, 60, pid=2),  # overlaps a: a worker span
        span("a1", "a", 15, 20),
        span("c", "root", 90, 120),  # outlives the root: clipped
    ]
    own = layers.self_times(spans)
    assert own["root"] == pytest.approx((100 - 50 - 10) / 1e9)
    assert own["a"] == pytest.approx(25 / 1e9)
    assert own["a1"] == pytest.approx(5 / 1e9)
    rows = layers.aggregate(spans)
    assert rows["x"]["calls"] == 4
    assert rows["x"]["s"] == pytest.approx((30 + 30 + 5 + 30) / 1e9)
    metrics = layers.per_layer_metrics(
        spans, pid=1, setup_s=0.0, campaign_s=1e-7, untraced_campaign_s=0.5e-7,
        worker_wall_s=0.0, parent_s=0.0,
    )
    assert metrics["trace.uncovered_s"][0] == pytest.approx(40 / 1e9)
    assert metrics["trace.overhead_s"][0] == pytest.approx(0.5e-7)


def test_no_tail_percentile_without_ten_samples_beyond_it():
    assert gate.tail_percentile(range(1, 100)) is None
    assert gate.tail_percentile(range(1, 101)) == 90
    assert gate.tail_percentile([]) is None
    assert gate.median([3, 1, 2]) == 2


def test_job_median_weighs_every_job_once():
    # Pooled, the middle of {1, 1, 1, 9} is 1; per job it is the mean of 1 and 9.
    assert gate.job_median({"a": [1.0, 1.0, 1.0], "b": [9.0]}) == 5.0
    assert gate.job_median({"a": [3.0, 1.0, 2.0], "b": [4.0], "c": [9.0, 8.0, 7.0]}) == 4.0


def test_times_are_rescaled_to_the_reference_speed():
    # A machine running at half the reference speed takes twice as long.
    reference = speed.REFERENCE_PROBE_S
    assert speed.scale(2 * reference, 2 * reference) == pytest.approx(0.5)
    assert speed.scale(reference, 3 * reference) == pytest.approx(0.5)
    assert 0 < speed.Probe().seconds() < 60


def test_the_parallel_probe_stops_its_processes():
    with speed.probe(2) as probe:
        assert 0 < probe.seconds() < 60
        processes = probe._processes
        assert len(processes) == 2
    assert not any(process.is_alive() for process in processes)


@pytest.fixture(scope="module")
def reference():
    return gate.load_reference("payload-10k")["jobs"]


def test_gate_passes_the_reference_and_trips_on_one_perturbed_flip(reference):
    outcomes = [
        Outcome(job_id, [tuple(f) for f in entry["flips"]], entry["tau"])
        for job_id, entry in reference.items()
    ]
    assert gate.mismatches(outcomes, reference) == []

    victim = next(i for i, o in enumerate(outcomes) if o.flips)
    u, v = outcomes[victim].flips[0]
    perturbed = list(outcomes)
    perturbed[victim] = outcomes[victim]._replace(
        flips=[(u, v + 1)] + outcomes[victim].flips[1:]
    )
    problems = gate.mismatches(perturbed, reference)
    assert [job_id for job_id, _ in problems] == [outcomes[victim].job_id]


def test_gate_trips_on_tau_and_on_unknown_jobs(reference):
    job_id, entry = next(iter(reference.items()))
    flips = [tuple(f) for f in entry["flips"]]
    assert gate.mismatches([Outcome(job_id, flips, entry["tau"] * (1 + 1e-12))], reference)
    assert gate.mismatches([Outcome("0" * 16, flips, entry["tau"])], reference)


def test_worker_spans_survive_the_fork_bootstrap(tmp_path):
    tracer = layers.Tracer(flush_dir=tmp_path)
    work = tracer.wrap("work", lambda: None)

    def run_worker():
        process = multiprocessing.get_context("fork").Process(target=work)
        process.start()
        process.join(timeout=60)
        assert process.exitcode == 0

    tracer.wrap("campaign.run", run_worker)()
    spans = {s.name: s for s in tracer.collect()}
    assert sorted(spans) == ["campaign.run", "work"]
    root, child = spans["campaign.run"], spans["work"]
    assert child.pid != root.pid and child.parent == root.id


def test_benchmark_json_lists_every_metric_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = layers.per_layer_metrics(
        [], pid=1, setup_s=0.0, campaign_s=0.0, untraced_campaign_s=0.0,
        worker_wall_s=0.0, parent_s=0.0,
    )
    printed = {name: unit for name, (_, unit) in metrics.items()}
    printed["store.build_s"] = "s"
    assert printed == {m["name"]: m["unit"] for m in spec["per_layer"]}
