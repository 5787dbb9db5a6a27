"""BinarizedAttack (Section V-B, Algorithm 1) — the paper's contribution.

Inspired by Binarized Neural Networks, the attack keeps **two** decision
variables per candidate pair (upper-triangle entry of the adjacency matrix):

* a continuous ``Ż ∈ [0, 1]`` used in the backward pass, and
* a discrete dummy ``Z = −binarized(2Ż − 1) ∈ {±1}`` used in the forward
  pass, where ``Z = −1`` means "flip this pair".

The forward pass therefore evaluates the surrogate loss on a **discrete**
graph — measuring the true effect of discrete updates — while gradients flow
to ``Ż`` through a straight-through estimator.  The budget constraint is
replaced by a LASSO penalty ``λ‖Ż‖₁`` (Eq. 8a) so the objective can be
optimised well beyond ``B`` steps, and a sweep over ``λ ∈ Λ`` trades attack
strength against sparsity.

Implementation notes
--------------------
* The PGD loop runs through a
  :class:`~repro.oddball.surrogate.SurrogateEngine`.  ``backend="dense"``
  replays the historical autograd pipeline bit-for-bit (instead of Eq. 6's
  ``A = (A0 − ½) ⊙ Z + ½``, which would corrupt the diagonal when ``Z`` is
  scattered with a zero diagonal, it uses the exactly equivalent
  off-diagonal form ``A = A0 + (1 − 2·A0) ⊙ F`` with the flip indicator
  ``F = (1 − Z)/2 ∈ {0, 1}``).  ``backend="sparse"`` evaluates each
  discrete iterate by applying its flip set to incrementally-maintained
  egonet features, scoring in O(n), scattering the closed-form
  straight-through gradient onto the candidate pairs only, and rolling the
  flips back — O(Σ deg + n + |C|) per iteration instead of O(n³), which is
  what makes the attack feasible on sparse 10k+-node graphs.  The whole
  λ-sweep reuses ONE engine instance; no adjacency is ever rebuilt between
  iterates.  ``backend="auto"`` (default) picks dense below
  :data:`~repro.oddball.surrogate.AUTO_SPARSE_NODE_THRESHOLD` nodes and
  sparse above it or for scipy-sparse inputs (which then stay sparse
  end-to-end, including in the :class:`AttackResult`).
* Alg. 1 lines 16–19 ("pick out Ż = min L satisfying ΣZ = −b"): during the
  optimisation we record every iterate's discrete flip set (validated
  against the no-singleton rule) together with its surrogate loss; the
  budget-``b`` answer is the best recorded flip set of size ≤ b, falling
  back to the top-``b`` pairs ranked by final ``Ż``.
* ``candidates`` restricts the decision variables to a
  :class:`~repro.attacks.candidates.CandidateSet`: ``Ż`` then has one entry
  per candidate pair instead of n(n−1)/2, shrinking both the optimiser
  state and the per-iteration scatter.  With the ``full`` strategy the
  sweep is bit-for-bit identical to the legacy full-pair parametrisation.
* Candidate solutions recorded during the sweep are re-scored at
  ``self.floor`` whenever the validity pass trims them, so every entry of
  the per-budget argmin is measured on the same objective (Alg. 1 lines
  16–19 compare losses across iterates — mixing floors here silently
  corrupted the selection when ``floor != 1.0``).
* The adversarial gradient is normalised to unit max-magnitude before the
  projected update.  The raw surrogate's gradient scale varies by orders of
  magnitude across graphs (it is quadratic in egonet edge counts), so plain
  PGD with any fixed ``η``/``λ`` either stalls or saturates everything in
  one step.  Normalisation is a per-iteration rescaling of the learning
  rate — the fixed points and the ``Ż`` ranking dynamics are unchanged —
  and it makes one ``(η, Λ)`` default work on every dataset in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.attacks.base import AttackResult, StructuralAttack, validate_targets
from repro.attacks.candidates import CandidateSet
from repro.attacks.constraints import filter_valid_flips_engine
from repro.kernels import validate_kernels
from repro.oddball.surrogate import SurrogateEngine, resolve_backend, validate_backend
from repro.utils.logging import get_logger
from repro.utils.validation import check_budget, check_finite

__all__ = ["BinarizedAttack"]

_log = get_logger("attacks.binarized")

Edge = tuple[int, int]


@dataclass
class _Candidate:
    """One recorded (validated) discrete solution."""

    flips: tuple[Edge, ...]
    surrogate: float
    lam: float
    iteration: int

    @property
    def size(self) -> int:
        return len(self.flips)


class BinarizedAttack(StructuralAttack):
    """Gradient-descent attack with binarized decision variables (Alg. 1).

    Parameters
    ----------
    lambdas:
        The hyper-parameter set Λ; each λ weighs the LASSO penalty standing
        in for the budget constraint.  With the normalised gradient, λ is
        directly interpretable: entries whose relative gradient magnitude
        stays below λ never cross the flip threshold.  The full sweep's
        iterates form the candidate pool from which per-budget solutions
        are selected.
    iterations:
        Inner-loop length T per λ.
    lr:
        Projected-gradient-descent learning rate η.
    floor:
        Log-clamp floor of the surrogate (the forward graph is discrete, so
        the default of 1.0 only guards transient singleton states).
    init:
        Initial value of every ``Ż`` entry (0 = start from the clean graph).
    normalize_gradient:
        Rescale the adversarial gradient to unit max-magnitude each step
        (see the module docstring); disable to run textbook Alg. 1 PGD.
    backend:
        Surrogate engine backend: ``"dense"`` (exact historical autograd
        path), ``"sparse"`` (incremental features + rollback, for large or
        scipy-sparse graphs) or ``"auto"`` (pick by input size/type).

    Example
    -------
    >>> from repro.graph import erdos_renyi
    >>> from repro.oddball import OddBall
    >>> graph = erdos_renyi(40, 0.15, rng=3)
    >>> targets = OddBall().analyze(graph).top_k(2).tolist()
    >>> attack = BinarizedAttack(iterations=30)
    >>> result = attack.attack(graph, targets, budget=4)
    >>> 0 <= len(result.flips()) <= 4
    True
    """

    name = "binarizedattack"

    def __init__(
        self,
        lambdas: Sequence[float] = (0.3, 0.1, 0.02),
        iterations: int = 200,
        lr: float = 0.05,
        floor: float = 1.0,
        init: float = 0.0,
        normalize_gradient: bool = True,
        backend: str = "auto",
        kernels: str = "auto",
    ):
        if not lambdas:
            raise ValueError("lambda sweep must not be empty")
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        self.lambdas = tuple(check_finite(lam, "lambda", low=0.0) for lam in lambdas)
        self.iterations = iterations
        self.lr = check_finite(lr, "lr", positive=True)
        self.floor = check_finite(floor, "floor", positive=True)
        self.init = check_finite(init, "init", low=0.0, high=1.0)
        self.normalize_gradient = normalize_gradient
        self.backend = validate_backend(backend)
        self.kernels = validate_kernels(kernels)

    # ------------------------------------------------------------------ #
    def attack(
        self,
        graph,
        targets: Sequence[int],
        budget: int,
        target_weights: "Sequence[float] | None" = None,
        candidates: "CandidateSet | str | None" = None,
        engine: "SurrogateEngine | None" = None,
    ) -> AttackResult:
        backend = engine.backend if engine is not None else resolve_backend(
            self.backend, graph
        )
        adjacency = self._adjacency_of(graph, allow_sparse=(backend == "sparse"))
        n = adjacency.shape[0]
        targets = validate_targets(targets, n)
        budget = check_budget(budget)

        candidate_set = self._resolve_candidates(
            candidates, adjacency, targets, n, budget=budget
        )
        if candidate_set is None:
            rows, cols = np.triu_indices(n, k=1)
        else:
            rows, cols = candidate_set.rows, candidate_set.cols
        if engine is None:
            engine = SurrogateEngine.create(
                adjacency,
                targets,
                (rows, cols),
                backend=backend,
                floor=self.floor,
                weights=target_weights,
                kernels=self.kernels,
            )
        else:
            # Shared (campaign) engine: repoint it at this job's targets and
            # candidates instead of rebuilding features from scratch.
            engine.retarget(
                targets, (rows, cols), floor=self.floor, weights=target_weights
            )
        base_loss = engine.current_loss()

        recorded: list[_Candidate] = [
            _Candidate(flips=(), surrogate=base_loss, lam=0.0, iteration=-1)
        ]
        final_zdot: "np.ndarray | None" = None

        for lam in self.lambdas:
            zdot = np.full(len(rows), self.init, dtype=np.float64)
            for iteration in range(self.iterations):
                # Forward on the DISCRETE graph + straight-through backward
                # (Alg. 1 lines 5-11), delegated to the engine.
                adversarial, gradient, flip_mask = engine.binarized_step(zdot)
                # Record the iterate's discrete solution before updating.
                landed = self._record(
                    recorded,
                    engine,
                    zdot,
                    flip_mask,
                    rows,
                    cols,
                    adversarial,
                    lam,
                    iteration,
                    budget,
                )
                # Projected update (Alg. 1 line 12).  The LASSO term
                # contributes its exact subgradient +λ (Ż >= 0 in the box),
                # added after the optional normalisation so that λ is
                # calibrated against relative gradient magnitudes.
                if self.normalize_gradient:
                    scale = float(np.max(np.abs(gradient)))
                    if scale > 0.0:
                        gradient = gradient / scale
                gradient = gradient + lam
                zdot = np.clip(zdot - self.lr * gradient, 0.0, 1.0)
                # Per-step adaptation: a recorded (validated) iterate counts
                # as landed flips; remap Ż onto the grown set, seeding new
                # entries at ``init``.  ``remap_positions`` raises if the
                # refresh dropped a pair (sets only grow).
                if landed and candidate_set is not None:
                    refreshed = candidate_set.refresh(landed, engine)
                    if refreshed is not candidate_set:
                        positions = refreshed.remap_positions(rows, cols)
                        if len(refreshed) != len(candidate_set):
                            grown_zdot = np.full(
                                len(refreshed), self.init, dtype=np.float64
                            )
                            grown_zdot[positions] = zdot
                            zdot = grown_zdot
                            engine.set_candidates(refreshed)
                            rows, cols = refreshed.rows, refreshed.cols
                        candidate_set = refreshed
            final_zdot = zdot.copy()

        flips_by_budget, surrogate_by_budget = self._select(
            recorded, engine, budget, final_zdot, rows, cols
        )
        return AttackResult(
            method=self.name,
            original=adjacency,
            flips_by_budget=flips_by_budget,
            surrogate_by_budget=surrogate_by_budget,
            metadata={
                "lambdas": list(self.lambdas),
                "iterations": self.iterations,
                "lr": self.lr,
                "candidates_recorded": len(recorded),
                "candidate_strategy": (
                    "legacy-full" if candidate_set is None else candidate_set.strategy
                ),
                "decision_variables": len(rows),
                "backend": engine.backend,
            },
        )

    # ------------------------------------------------------------------ #
    def _record(
        self,
        recorded: list[_Candidate],
        engine: SurrogateEngine,
        zdot_values: np.ndarray,
        flip_mask: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
        adversarial_loss: float,
        lam: float,
        iteration: int,
        budget: int,
    ) -> "list[Edge] | None":
        """Validate and store the current iterate's discrete flip set.

        Returns the validated flips (the attack's per-step adaptive
        candidate hook treats them as "landed"), or ``None`` when the
        iterate was skipped.
        """
        flipped = np.flatnonzero(flip_mask)
        if len(flipped) == 0 or len(flipped) > 4 * max(budget, 1):
            # Empty solutions are pre-seeded; grossly over-budget iterates
            # cannot win for any b <= budget, skip the bookkeeping cost.
            return None
        # Most-confident-first ordering for the validity pass.
        order = flipped[np.argsort(-zdot_values[flipped], kind="stable")]
        raw_flips = [(int(rows[k]), int(cols[k])) for k in order]
        valid_flips = filter_valid_flips_engine(engine, raw_flips, limit=budget)
        if not valid_flips:
            return None
        if len(valid_flips) == len(raw_flips):
            surrogate = adversarial_loss  # forward value still exact
        else:
            # Re-score the trimmed flip set at the SAME floor the forward
            # pass uses — mixing floors here corrupted the per-budget argmin
            # whenever ``self.floor != 1.0``.
            surrogate = engine.score_flips(valid_flips)
        recorded.append(
            _Candidate(
                flips=tuple(valid_flips), surrogate=surrogate, lam=lam, iteration=iteration
            )
        )
        return valid_flips

    def _select(
        self,
        recorded: list[_Candidate],
        engine: SurrogateEngine,
        budget: int,
        final_zdot: "np.ndarray | None",
        rows: np.ndarray,
        cols: np.ndarray,
    ) -> tuple[dict[int, list[Edge]], dict[int, float]]:
        """Per-budget best recorded solution (Alg. 1 lines 16-19)."""
        flips_by_budget: dict[int, list[Edge]] = {}
        surrogate_by_budget: dict[int, float] = {}
        for b in range(budget + 1):
            eligible = [c for c in recorded if c.size <= b]
            best = min(eligible, key=lambda c: (c.surrogate, c.size))
            chosen = list(best.flips)
            if not chosen and b > 0 and final_zdot is not None:
                # Fallback: top-b pairs by final Ż (only reached when no
                # iterate produced a usable flip set).
                order = np.argsort(-final_zdot, kind="stable")[: 4 * b]
                ranked = [(int(rows[k]), int(cols[k])) for k in order if final_zdot[k] > 0.0]
                chosen = filter_valid_flips_engine(engine, ranked, limit=b)
                if chosen:
                    candidate_loss = engine.score_flips(chosen)
                    if candidate_loss >= best.surrogate:
                        chosen = list(best.flips)
                    else:
                        best = _Candidate(tuple(chosen), candidate_loss, -1.0, -1)
            flips_by_budget[b] = chosen
            surrogate_by_budget[b] = best.surrogate
        return flips_by_budget, surrogate_by_budget
