"""The canonical campaign: its workloads, job grids and set-up step.

Every workload attacks the ``blogcatalog-full`` store recipe, built with
graph seed 7 and scaled to the workload's node count, with the paper's
pair of attacks (GradMaxSearch and BinarizedAttack with
``lambdas=(0.2, 0.05)``, 30 iterations) on the sparse engine with
``kernels="auto"``.  Targets are the top-k nodes by clean OddBall score.

The benchmark's ``--seed`` shuffles the job order.  The job *set* stays
fixed, so the committed reference (flips and τ per job) covers every
seed, ``tau_mean`` repeats exactly, and the cost of a run does not depend
on which targets a seed happened to draw.

Only the public API is called: ``build_store``, ``SurrogateEngine.create``,
``AttackCampaign`` / ``build_campaign`` and ``grid_jobs`` /
``AttackJob.make``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.attacks import AttackCampaign, AttackJob, build_campaign, grid_jobs
from repro.oddball.surrogate import SurrogateEngine
from repro.store import build_store

GRAPH = "blogcatalog-full"
GRAPH_SEED = 7
FULL_NODES = 88_800
BUDGET = 5
BINARIZED_PARAMS = {"lambdas": (0.2, 0.05), "iterations": 30}
KERNELS = "auto"
#: Scheduler workers of the queue workload: the load stays within the
#: 2 cores of the reference host.
QUEUE_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    """One input graph plus one job grid, and how it is executed."""

    name: str
    nodes: int
    #: Attack a detached in-memory CSR (no stored features) instead of
    #: the mmap store, so the engine build computes the clean features.
    payload: bool
    targets: int
    candidates: str
    gradmax_budgets: tuple
    #: The first ``binarized_targets`` targets also get a BinarizedAttack job.
    binarized_targets: int
    #: 1 = serial ``AttackCampaign``; more = ``build_campaign`` with the
    #: work-stealing scheduler and a checkpoint file.
    workers: int

    @property
    def scale(self) -> float:
        return self.nodes / FULL_NODES


#: Why each workload exists is the "why" of its entry in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="payload-10k", nodes=10_000, payload=True, targets=12,
            candidates="target_incident", gradmax_budgets=(BUDGET,),
            binarized_targets=12, workers=1,
        ),
        Workload(
            name="store-88k", nodes=FULL_NODES, payload=False, targets=2,
            candidates="target_incident", gradmax_budgets=(BUDGET,),
            binarized_targets=1, workers=1,
        ),
        Workload(
            name="adaptive-10k", nodes=10_000, payload=False, targets=12,
            candidates="adaptive_gradient", gradmax_budgets=(BUDGET,),
            binarized_targets=12, workers=1,
        ),
        Workload(
            name="queue-2k", nodes=2_000, payload=False, targets=150,
            candidates="target_incident", gradmax_budgets=(1, 3, 5),
            binarized_targets=20, workers=QUEUE_WORKERS,
        ),
    )
}


def open_store(workload: Workload):
    """Build the workload's store, or reopen it on a cache hit.

    The store lands in ``$REPRO_STORE_CACHE``, which the benchmark points
    into its own cache directory.
    """
    return build_store(GRAPH, scale=workload.scale, seed=GRAPH_SEED)


def job_grid(workload: Workload, store) -> list:
    """The workload's jobs in canonical order (one target at a time)."""
    targets = store.top_targets(workload.targets)
    jobs = []
    for index, target in enumerate(targets):
        jobs += grid_jobs(
            "gradmaxsearch", [[target]], workload.gradmax_budgets,
            candidates=workload.candidates,
        )
        if index < workload.binarized_targets:
            jobs.append(
                AttackJob.make(
                    "binarizedattack", [target], BUDGET,
                    candidates=workload.candidates, **BINARIZED_PARAMS,
                )
            )
    return jobs


def shuffled(jobs: list, seed: int) -> list:
    """The jobs in the order ``seed`` gives them."""
    order = np.random.default_rng(seed).permutation(len(jobs))
    return [jobs[i] for i in order]


def set_up(workload: Workload, first_targets, checkpoint_path=None):
    """Everything before the first job can run; returns ``(seconds, campaign)``.

    Opens the store (a cache hit), detaches the payload CSR where the
    workload asks for one, builds the engine with an empty candidate set
    and reads its clean features once, then constructs the campaign.  The
    serial campaign is handed that engine.  ``build_campaign`` takes no
    engine, so on the queue workload the engine stands for the build each
    worker repeats before its first job, and is dropped.
    """
    start = time.perf_counter()
    store = open_store(workload)
    graph = store.detached_csr() if workload.payload else store
    empty = (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp))
    engine = SurrogateEngine.create(
        graph, first_targets, empty, backend="sparse", kernels=KERNELS
    )
    engine.node_features()
    if workload.workers > 1:
        campaign = build_campaign(
            store, workers=workload.workers, scheduler=True,
            checkpoint_path=checkpoint_path, backend="sparse", kernels=KERNELS,
        )
    else:
        campaign = AttackCampaign(
            graph, backend="sparse", kernels=KERNELS, engine=engine
        )
    return time.perf_counter() - start, campaign
