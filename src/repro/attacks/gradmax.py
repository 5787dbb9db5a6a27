"""GradMaxSearch (Section V-A-1): greedy gradient-guided edge flipping.

At each of the ``B`` steps the surrogate loss is differentiated w.r.t. the
*current* (discrete) adjacency matrix; among the sign-valid pairs (add needs a
negative gradient, delete a positive one) that neither repeat an earlier
modification nor create a singleton, the pair with the largest absolute
gradient is flipped.  This is the standard greedy baseline most prior
structural attacks use.

Two execution paths back the greedy loop:

* the **legacy dense loop** (``candidates=None`` with a dense-resolved
  backend) — the seed implementation: a full autograd backward pass over
  all ``n²`` entries per step, O(n³) work, exact;
* the **engine loop** (any ``candidates``, any sparse-resolved backend) —
  the greedy search runs through the shared
  :class:`~repro.oddball.surrogate.SurrogateEngine`.  With the sparse
  backend, egonet features are maintained incrementally at O(deg) per flip
  and the gradient is scattered onto candidate pairs only, so one greedy
  step costs O(m + |C|) instead of O(n³); with the dense backend the engine
  gathers the full autograd gradient at the candidate pairs (the reference
  the parity suite checks against).  With the ``full`` strategy the engine
  reproduces the dense path's flips bit-for-bit (equivalence-tested); with
  ``target_incident``/``two_hop`` it prunes the search Nettack-style.
  Sparse adjacency inputs are supported and never densified by this path.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.attacks.base import AttackResult, StructuralAttack, validate_targets
from repro.attacks.candidates import CandidateSet
from repro.attacks.constraints import no_singleton_mask, sign_valid_mask
from repro.kernels import validate_kernels
from repro.oddball.surrogate import (
    SurrogateEngine,
    adjacency_gradient,
    resolve_backend,
    surrogate_loss_numpy,
    validate_backend,
)
from repro.utils.logging import get_logger
from repro.utils.validation import check_budget, check_finite

__all__ = ["GradMaxSearch"]

_log = get_logger("attacks.gradmax")


class GradMaxSearch(StructuralAttack):
    """Greedy structural attack driven by per-step adjacency gradients.

    Parameters
    ----------
    floor:
        Clamp floor for the log-features inside the surrogate (see
        :mod:`repro.oddball.surrogate`); used consistently for both the
        gradients and the per-budget surrogate bookkeeping.
    backend:
        Surrogate engine backend.  ``"auto"`` keeps the historical
        behaviour: the legacy dense loop for small dense inputs without
        ``candidates``, the sparse-incremental engine whenever a candidate
        set is given, the graph is scipy-sparse, or it is large.

    Example
    -------
    >>> from repro.graph import erdos_renyi
    >>> from repro.oddball import OddBall
    >>> graph = erdos_renyi(40, 0.15, rng=3)
    >>> targets = OddBall().analyze(graph).top_k(2).tolist()
    >>> result = GradMaxSearch().attack(graph, targets, budget=4)
    >>> len(result.flips()) <= 4
    True
    >>> fast = GradMaxSearch().attack(graph, targets, budget=4,
    ...                               candidates="target_incident")
    >>> len(fast.flips()) <= 4
    True
    """

    name = "gradmaxsearch"

    def __init__(self, floor: float = 1.0, backend: str = "auto",
                 kernels: str = "auto"):
        self.floor = check_finite(floor, "floor", positive=True)
        self.backend = validate_backend(backend)
        self.kernels = validate_kernels(kernels)

    def attack(
        self,
        graph,
        targets: Sequence[int],
        budget: int,
        target_weights: "Sequence[float] | None" = None,
        candidates: "CandidateSet | str | None" = None,
        engine: "SurrogateEngine | None" = None,
    ) -> AttackResult:
        # An injected shared engine (campaign path) is retargeted in place
        # and always drives the engine loop.  Otherwise: a candidate set
        # always means the pruned engine; else fall back to the backend rule
        # (sparse/large inputs get the engine over the full pair set, small
        # dense inputs keep the legacy dense loop).
        if engine is not None:
            return self._attack_engine(
                graph, targets, budget, target_weights, candidates,
                engine.backend, engine=engine,
            )
        if candidates is not None and self.backend == "auto":
            backend = "sparse"
        else:
            backend = resolve_backend(self.backend, graph)
        if candidates is None and backend == "dense":
            return self._attack_dense(graph, targets, budget, target_weights)
        return self._attack_engine(
            graph, targets, budget, target_weights, candidates, backend
        )

    # ------------------------------------------------------------------ #
    def _attack_dense(
        self,
        graph,
        targets: Sequence[int],
        budget: int,
        target_weights: "Sequence[float] | None",
    ) -> AttackResult:
        """Legacy full-matrix loop (the seed implementation, kept as oracle)."""
        adjacency = self._adjacency_of(graph)
        n = adjacency.shape[0]
        targets = validate_targets(targets, n)
        budget = check_budget(budget)

        current = adjacency.copy()
        ordered_flips: list[tuple[int, int]] = []
        surrogate_by_budget = {
            0: surrogate_loss_numpy(adjacency, targets, target_weights, floor=self.floor)
        }
        modified = np.zeros((n, n), dtype=bool)  # the "pool" of used pairs

        for step in range(budget):
            gradient = adjacency_gradient(
                current, targets, floor=self.floor, weights=target_weights
            )
            valid = (
                sign_valid_mask(current, gradient)
                & no_singleton_mask(current)
                & ~modified
            )
            if not valid.any():
                _log.debug("no valid flip left after %d steps", step)
                break
            magnitude = np.where(valid, np.abs(gradient), -np.inf)
            flat = int(np.argmax(magnitude))
            u, v = divmod(flat, n)
            pair = (u, v) if u < v else (v, u)
            new_value = 1.0 - current[u, v]
            current[u, v] = current[v, u] = new_value
            modified[u, v] = modified[v, u] = True
            ordered_flips.append(pair)
            surrogate_by_budget[len(ordered_flips)] = surrogate_loss_numpy(
                current, targets, target_weights, floor=self.floor
            )

        return self._prefix_result(
            self.name,
            adjacency,
            ordered_flips,
            budget,
            surrogate_by_budget=surrogate_by_budget,
            metadata={"steps_taken": len(ordered_flips), "engine": "dense"},
        )

    # ------------------------------------------------------------------ #
    def _attack_engine(
        self,
        graph,
        targets: Sequence[int],
        budget: int,
        target_weights: "Sequence[float] | None",
        candidates: "CandidateSet | str | None",
        backend: str,
        engine: "SurrogateEngine | None" = None,
    ) -> AttackResult:
        """Greedy loop through the (possibly shared) surrogate engine."""
        adjacency = self._adjacency_of(graph, allow_sparse=True)
        n = adjacency.shape[0]
        targets = validate_targets(targets, n)
        budget = check_budget(budget)
        candidate_set = self._resolve_candidates(
            candidates, adjacency, targets, n, budget=budget
        )
        if candidate_set is None:
            candidate_set = CandidateSet.full(n)
        rows, cols = candidate_set.rows, candidate_set.cols

        if engine is None:
            engine = SurrogateEngine.create(
                adjacency,
                targets,
                candidate_set,
                backend=backend,
                floor=self.floor,
                weights=target_weights,
                kernels=self.kernels,
            )
        else:
            engine.retarget(
                targets, candidate_set, floor=self.floor, weights=target_weights
            )
        ordered_flips: list[tuple[int, int]] = []
        surrogate_by_budget = {0: engine.current_loss()}
        modified = np.zeros(len(candidate_set), dtype=bool)
        # A pair's adjacency value only changes when the pair itself flips,
        # and flipped pairs leave the pool through ``modified`` — so the
        # per-pair edge values are only recomputed when the candidate set
        # itself adapts.
        edge_values = engine.edge_values

        for step in range(budget):
            gradient = engine.candidate_gradient()
            degrees = engine.degrees()
            sign_valid = ((edge_values == 0.0) & (gradient < 0.0)) | (
                (edge_values == 1.0) & (gradient > 0.0)
            )
            unsafe_delete = (edge_values == 1.0) & (
                (degrees[rows] <= 1.0) | (degrees[cols] <= 1.0)
            )
            valid = sign_valid & ~unsafe_delete & ~modified
            if not valid.any():
                _log.debug("no valid candidate flip left after %d steps", step)
                break
            magnitude = np.where(valid, np.abs(gradient), -np.inf)
            k = int(np.argmax(magnitude))
            u, v = int(rows[k]), int(cols[k])
            engine.apply_flip(u, v)
            modified[k] = True
            ordered_flips.append((u, v))
            surrogate_by_budget[len(ordered_flips)] = engine.current_loss()
            # Per-step adaptation: the landed flip may grow the ball.  The
            # greedy state (``modified``) is remapped onto the grown set via
            # one searchsorted, which raises if the refresh dropped a pair.
            refreshed = candidate_set.refresh([(u, v)], engine)
            if refreshed is not candidate_set:
                positions = refreshed.remap_positions(rows, cols)
                if len(refreshed) != len(candidate_set):
                    grown = np.zeros(len(refreshed), dtype=bool)
                    grown[positions] = modified
                    modified = grown
                    engine.set_candidates(refreshed)
                    rows, cols = refreshed.rows, refreshed.cols
                    edge_values = engine.edge_values
                candidate_set = refreshed

        return self._prefix_result(
            self.name,
            adjacency,
            ordered_flips,
            budget,
            surrogate_by_budget=surrogate_by_budget,
            metadata={
                "steps_taken": len(ordered_flips),
                "engine": "candidates",
                "backend": engine.backend,
                "candidate_strategy": candidate_set.strategy,
                "candidate_count": len(candidate_set),
            },
        )
