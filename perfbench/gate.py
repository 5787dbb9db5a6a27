"""Correctness gate and sample statistics (standard library only).

Each workload has a committed reference of every job's full-budget flips
and relative score decrease τ, produced once with ``kernels="numpy"`` (the
parity oracle) by ``make_reference.py``.  Every timed job is compared
against it exactly; a mismatch, a job missing from the reference or a
job that raised counts as failed.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: A tail percentile is reported only with at least this many samples
#: beyond it.
MIN_BEYOND = 10


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> dict:
    """The committed reference document of one workload."""
    return json.loads(reference_path(workload).read_text())


def outcome_record(outcome) -> dict:
    """The reference entry of one ``JobOutcome``."""
    job = outcome.job
    return {
        "attack": job.attack,
        "targets": list(job.targets),
        "budget": job.budget,
        "flips": [[int(u), int(v)] for u, v in outcome.flips],
        "tau": float(outcome.score_decrease),
    }


def mismatches(outcomes, jobs: dict) -> list:
    """``(job_id, reason)`` for every outcome that differs from the reference.

    ``outcomes`` needs ``job_id``, ``flips`` and ``score_decrease``; flips
    and τ must match exactly, because the compiled kernels promise
    bit-identical results to the numpy oracle.
    """
    problems = []
    for outcome in outcomes:
        expected = jobs.get(outcome.job_id)
        if expected is None:
            problems.append((outcome.job_id, "not in the reference"))
            continue
        flips = [[int(u), int(v)] for u, v in outcome.flips]
        if flips != expected["flips"]:
            problems.append(
                (outcome.job_id, f"flips {flips} != reference {expected['flips']}")
            )
        elif float(outcome.score_decrease) != expected["tau"]:
            problems.append(
                (outcome.job_id, f"tau {float(outcome.score_decrease)!r} "
                                 f"!= reference {expected['tau']!r}")
            )
    return problems


def median(values) -> float:
    return float(statistics.median(values))


def job_median(samples: dict) -> float:
    """The median over jobs of each job's median time across repeats.

    ``samples`` maps a job id to its times.  Every job weighs the same
    whatever its number of samples, and a grid of two jobs reads the mean
    of the two rather than whichever pooled sample lands in the middle.
    """
    return median([median(times) for times in samples.values()])


def tail_percentile(values, q: float = 0.9):
    """The nearest-rank ``q`` percentile, or ``None`` when fewer than
    :data:`MIN_BEYOND` samples lie beyond it."""
    ordered = sorted(values)
    if not ordered:
        return None
    rank = math.ceil(q * len(ordered))
    if len(ordered) - rank < MIN_BEYOND:
        return None
    return float(ordered[rank - 1])
