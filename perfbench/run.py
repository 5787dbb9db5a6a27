"""The canonical campaign benchmark: one command, every metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  It prepares the workload outside any
timed region (store build, compiled-kernel build), then measures in a
fresh process.  It prints provenance, human-readable detail, and as its
last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  It exits
non-zero without a result when the program cannot be measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".perfbench-cache"
PREPARE_TIMEOUT_S = 880
MEASURE_TIMEOUT_S = 170
REQUIRED = ("src/repro/__init__.py", "benchmarks/_benchenv.py", "BENCHMARK.json")


def child_env() -> dict:
    """The environment of both steps: no inherited ``REPRO_*`` switches."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        str(p) for p in (ROOT / "src", ROOT / "benchmarks", ROOT)
    )
    env["REPRO_STORE_CACHE"] = str(CACHE / "stores")
    env["REPRO_KERNEL_CACHE"] = str(CACHE / "kernels")
    return env


def run_step(args: list, timeout: float) -> "tuple[list, dict]":
    """Run one step in a fresh process group; ``(human lines, result)``.

    The whole group is killed on timeout or interrupt, and again after a
    normal exit in case a worker outlived its parent; this returns only
    once every process of the group has ended.
    """
    process = subprocess.Popen(
        [sys.executable, "-m", "perfbench.measure", *args],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        output, _ = process.communicate(timeout=timeout)
    except BaseException:
        _kill_group(process.pid)
        process.communicate()
        raise
    finally:
        _kill_group(process.pid)
    lines = output.splitlines()
    if process.returncode != 0 or not lines:
        sys.stdout.write(output)
        raise SystemExit(f"perfbench: step {args[0]} failed (exit {process.returncode})")
    return lines[:-1], json.loads(lines[-1])


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def provenance(args) -> dict:
    """Which code ran: the git commit when there is one, and a source digest."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*")):
        if path.suffix in (".py", ".c"):
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit, "source_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="canonical campaign benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [name for name in REQUIRED if not (ROOT / name).is_file()]
    if missing:
        print(f"perfbench: not a checkout of the repository (missing {missing})",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    print("provenance: " + json.dumps(provenance(args), sort_keys=True))
    _, prepared = run_step(["prepare", "--workload", args.workload], PREPARE_TIMEOUT_S)
    print("prepared: " + json.dumps(prepared, sort_keys=True))
    if prepared["kernels"] != "compiled":
        print("!" * 72 + "\nWARNING: kernels='auto' fell back to the numpy kernels "
              f"({prepared['fallback_reason']}).\nThese numbers measure a different "
              "program from the compiled one.\n" + "!" * 72)
    scratch = CACHE / "scratch" / str(os.getpid())
    try:
        lines, result = run_step(
            ["measure", "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--scratch", str(scratch)],
            MEASURE_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for line in lines:
        print(line)

    metrics = result["metrics"]
    if args.trace:
        metrics["store.build_s"] = {"value": prepared["store_build_s"], "unit": "s"}
    got = {name: metric["unit"] for name, metric in metrics.items()}
    if got != expected:
        raise SystemExit(f"perfbench: metrics {sorted(got)} do not match BENCHMARK.json")
    width = max(map(len, metrics))
    for name, metric in metrics.items():
        print(f"{name:<{width}}  {metric['value']:>14.6f} {metric['unit']}")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
