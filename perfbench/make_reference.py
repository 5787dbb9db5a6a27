"""Write the committed correctness reference of each workload.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs every job of the workload's grid serially with ``kernels="numpy"``,
the parity oracle of the compiled kernels, and records each job's
full-budget flips and τ in ``perfbench/reference/<workload>.json``.
Rerun it only when the attack semantics change on purpose.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks"), str(ROOT)]

import _benchenv  # noqa: E402,F401  (pins the thread pools before numpy loads)

from repro.attacks import AttackCampaign  # noqa: E402

from perfbench import gate  # noqa: E402
from perfbench.run import child_env  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    GRAPH, GRAPH_SEED, WORKLOADS, job_grid, open_store,
)


def make_reference(workload) -> dict:
    store = open_store(workload)
    graph = store.detached_csr() if workload.payload else store
    jobs = job_grid(workload, store)
    result = AttackCampaign(graph, backend="sparse", kernels="numpy").run(jobs)
    return {
        "workload": workload.name,
        "kernels": "numpy",
        "graph": {
            "name": GRAPH,
            "seed": GRAPH_SEED,
            "nodes": store.number_of_nodes,
            "edges": store.number_of_edges,
            "recipe_hash": store.digest,
        },
        "jobs": {outcome.job_id: gate.outcome_record(outcome) for outcome in result},
    }


def dump(document: dict) -> str:
    """JSON with one job per line, so a semantic change diffs job by job."""
    head = json.dumps({k: v for k, v in document.items() if k != "jobs"}, sort_keys=True)
    rows = ",\n".join(
        f"{json.dumps(job_id)}: {json.dumps(record, sort_keys=True)}"
        for job_id, record in sorted(document["jobs"].items())
    )
    return f'{head[:-1]}, "jobs": {{\n{rows}\n}}}}\n'


def main(argv=None) -> int:
    env = child_env()
    os.environ.update({k: v for k, v in env.items() if k.startswith("REPRO_")})
    names = (argv if argv is not None else sys.argv[1:]) or sorted(WORKLOADS)
    gate.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        document = make_reference(WORKLOADS[name])
        path = gate.reference_path(name)
        path.write_text(dump(document))
        print(f"{path.relative_to(ROOT)}: {len(document['jobs'])} jobs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
