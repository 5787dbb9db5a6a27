"""Candidate pair sets: restricting the attack's decision variables.

Every attack in this package optimises over *pairs* of nodes (potential edge
flips).  The seed implementation materialised all ``n(n−1)/2`` upper-triangle
pairs, which is exact but quadratic — at the paper's full dataset scale
(Blogcatalog: 88.8k nodes) that is 3.9 **billion** decision variables.
Prior structural-attack libraries (Nettack, the GREAT toolbox) solve this
with *candidate pruning*: only pairs that can plausibly move the objective
are enumerated.  For OddBall's egonet objective, flipping ``{u, v}`` changes
the features of ``u``, ``v`` and their common neighbours only, so pairs far
from every target are useless until the graph around a target has grown.

:class:`CandidateSet` is the container threaded through
:meth:`repro.attacks.base.StructuralAttack.attack`.  The built-in
strategies trade coverage for speed:

``full``
    Every upper-triangle pair — exact, identical to the seed behaviour.
``target_incident``
    Pairs with at least one endpoint in the target set (|C| = |T|·(n−1) −
    |T|(|T|−1)/2).  This is the Nettack-style "direct attack" restriction;
    it captures every first-order effect on the targets' own features.
``two_hop``
    All pairs inside the distance-≤2 ball around the target set.  NOT a
    superset of ``target_incident`` — the two strategies cover different
    slices: ``two_hop`` adds flips between two neighbours of a target
    (which change the target's egonet edge count ``E_t`` without touching
    its degree) and flips among two-hop nodes that reshape the regression
    fit locally, but drops pairs joining a target to a node *outside* its
    ball.  Combine both with :meth:`CandidateSet.from_pairs` when the union
    is wanted.
``adaptive``
    Starts as exactly ``target_incident`` and *grows per step*: every flip
    the attack lands pulls its endpoints into a growing ball, and each ball
    entrant contributes its incident pairs (to its current neighbours and
    to earlier ball members).  Attacks call :meth:`CandidateSet.refresh`
    after each landed flip; static strategies return themselves unchanged,
    so the hook costs nothing unless the set actually adapts.  The adaptive
    set is a superset of ``target_incident`` at every step (invariant
    tested), and reaches the neighbour-neighbour flips ``two_hop`` covers —
    but only around regions the optimiser actually visits, keeping |C|
    near-linear instead of ball-quadratic.
``adaptive_gradient``
    The same growing ball, but admissions are *gradient-informed*: instead
    of admitting every pair incident to a ball entrant, the candidate pool
    is ranked by the engine's predicted |∂L/∂A| at those pairs
    (:meth:`~repro.oddball.surrogate.SurrogateEngine.pair_gradient`) and
    only the top :func:`admission_cap` per refresh join the set.  Same
    superset-of-``target_incident`` invariant (growth only ever adds),
    with |C| growing by a bounded amount per landed flip instead of by
    O(deg) — the ROADMAP's gradient-informed growth policy.

Admission follows one budget-aware policy (:func:`admission_cap`): it
scales with the attack budget, and λ-awareness enters through the ranking
itself — the engine's ``pair_gradient`` is the λ-regularised surrogate
gradient, so a sweep's sparsity pressure directly shapes which pairs are
admitted.

Every refresh only *grows* a set, so attacks carry per-pair optimiser state
across a refresh with :meth:`CandidateSet.remap_positions`, which raises if
a refresh ever dropped a pair.

Candidate pairs are canonical (``u < v``), unique and lexicographically
sorted, so ``full`` enumerates pairs in exactly the order of
``np.triu_indices(n, k=1)`` — the seed ordering — which is what makes the
candidate-set ``full`` path reproduce the legacy full-pair attacks
bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro import telemetry as _telemetry
from repro.graph.graph import Graph

__all__ = [
    "AdaptiveCandidateSet",
    "CandidateSet",
    "CANDIDATE_STRATEGIES",
    "admission_cap",
]

Edge = tuple[int, int]

CANDIDATE_STRATEGIES = (
    "full", "target_incident", "two_hop", "adaptive", "adaptive_gradient",
)

#: Baseline per-refresh admission count of the gradient-ranked adaptive
#: policy (the retired ``GRADIENT_ADMIT_CAP`` default, kept as the floor of
#: the budget-aware :func:`admission_cap`).
DEFAULT_ADMIT_CAP = 32


def admission_cap(budget: "int | None" = None) -> int:
    """Per-refresh admission count of the gradient-ranked growth policy.

    The unified budget-aware rule that retired the fixed
    ``GRADIENT_ADMIT_CAP`` constant: a larger flip budget explores more of
    the graph, so each refresh may admit proportionally more pairs
    (``8·budget``, floored at :data:`DEFAULT_ADMIT_CAP` so small budgets
    keep the historical behaviour bit-for-bit).  λ-awareness needs no knob
    here — ranking uses the engine's λ-regularised ``pair_gradient``, so
    sparsity pressure already shapes which pairs win the cap.
    """
    if budget is None:
        return DEFAULT_ADMIT_CAP
    return max(DEFAULT_ADMIT_CAP, 8 * int(budget))


def _adjacency_rows(graph) -> "tuple[int, object]":
    """(n, neighbour-lookup) from a Graph, dense array or scipy sparse matrix."""
    from scipy import sparse

    if isinstance(graph, Graph):
        matrix = graph.adjacency_view
        return matrix.shape[0], matrix
    if sparse.issparse(graph):
        # validate + drop stored explicit zeros, which are NOT neighbours
        from repro.graph.sparse import to_sparse

        csr = to_sparse(graph)
        return csr.shape[0], csr
    matrix = np.asarray(graph, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {matrix.shape}")
    return matrix.shape[0], matrix


def _node_count(graph) -> int:
    """Node count of a Graph/array/scipy-sparse input, without validation."""
    from scipy import sparse

    if isinstance(graph, Graph):
        return graph.number_of_nodes
    shape = graph.shape if sparse.issparse(graph) else np.asarray(graph).shape
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"adjacency must be square, got shape {shape}")
    return int(shape[0])


def _neighbors_of(matrix, node: int) -> np.ndarray:
    from scipy import sparse

    if sparse.issparse(matrix):
        start, stop = matrix.indptr[node], matrix.indptr[node + 1]
        return matrix.indices[start:stop].astype(np.intp)
    return np.flatnonzero(matrix[node]).astype(np.intp)


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """An immutable, canonically-ordered set of candidate pairs.

    Attributes
    ----------
    n:
        Number of nodes of the graph the pairs address.
    rows, cols:
        Aligned ``intp`` arrays with ``rows[k] < cols[k]``, lexicographically
        sorted and duplicate-free.  ``(rows[k], cols[k])`` is the k-th
        candidate pair.
    strategy:
        The name of the strategy that built the set (``"custom"`` for
        :meth:`from_pairs`).
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    strategy: str = "custom"
    _pair_set: "frozenset[Edge] | None" = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=np.intp)
        cols = np.asarray(self.cols, dtype=np.intp)
        if rows.shape != cols.shape or rows.ndim != 1:
            raise ValueError(
                f"rows/cols must be aligned 1-D arrays, got {rows.shape}, {cols.shape}"
            )
        if rows.size:
            if rows.min() < 0 or cols.max() >= self.n:
                raise ValueError(f"pair indices out of range [0, {self.n})")
            if np.any(rows >= cols):
                raise ValueError("candidate pairs must be canonical (u < v)")
            keys = rows * self.n + cols
            if np.any(np.diff(keys) <= 0):
                raise ValueError(
                    "candidate pairs must be lexicographically sorted and unique"
                )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        strategy: str,
        graph,
        targets: "Sequence[int] | None" = None,
        budget: "int | None" = None,
    ) -> "CandidateSet":
        """Build a candidate set with a named strategy.

        ``graph`` may be a :class:`Graph`, a dense adjacency array or a
        scipy sparse matrix; ``targets`` is required for every strategy
        except ``full``.  ``budget`` feeds the budget-aware
        :func:`admission_cap` of ``adaptive_gradient``.
        """
        if strategy not in CANDIDATE_STRATEGIES:
            raise ValueError(
                f"unknown candidate strategy {strategy!r}; "
                f"choose from {CANDIDATE_STRATEGIES}"
            )
        n = _node_count(graph)
        if strategy == "full":
            return cls.full(n)
        if targets is None:
            raise ValueError(f"strategy {strategy!r} requires a target set")
        targets = sorted({int(t) for t in targets})
        if any(not 0 <= t < n for t in targets):
            raise ValueError(f"target ids out of range [0, {n})")
        if strategy == "target_incident":
            return cls.target_incident(n, targets)
        if strategy == "adaptive":
            return AdaptiveCandidateSet.start(n, targets)
        if strategy == "adaptive_gradient":
            return AdaptiveCandidateSet.start(
                n, targets, growth="gradient", admit_cap=admission_cap(budget)
            )
        # only two_hop actually walks the adjacency — resolve it lazily so
        # the index-arithmetic strategies skip the O(m) validation pass
        _, matrix = _adjacency_rows(graph)
        return cls.two_hop(matrix, targets, n=n)

    @classmethod
    def full(cls, n: int) -> "CandidateSet":
        """All upper-triangle pairs, in ``np.triu_indices`` order."""
        if n < 0:
            raise ValueError(f"node count must be non-negative, got {n}")
        rows, cols = np.triu_indices(n, k=1)
        return cls(n=n, rows=rows.astype(np.intp), cols=cols.astype(np.intp),
                   strategy="full")

    @classmethod
    def target_incident(cls, n: int, targets: Sequence[int]) -> "CandidateSet":
        """Pairs with at least one endpoint in ``targets``.

        Built vectorised (|T|·n index arithmetic + one ``np.unique``) — at
        campaign scale this runs once per job, so the Python tuple
        comprehension it replaces was a measurable per-job fixed cost.
        """
        target_list = sorted({int(t) for t in targets})
        if not target_list:
            raise ValueError("target set must not be empty")
        if target_list[0] < 0 or target_list[-1] >= n:
            raise ValueError(f"target ids out of range [0, {n})")
        t = np.asarray(target_list, dtype=np.intp)
        others = np.arange(n, dtype=np.intp)
        rows = np.minimum(t[:, None], others[None, :]).ravel()
        cols = np.maximum(t[:, None], others[None, :]).ravel()
        keys = np.unique(rows * n + cols)  # sorts + dedupes; drops nothing else
        keys = keys[keys // n != keys % n]  # remove the diagonal (v == t) keys
        return cls(
            n=n,
            rows=(keys // n).astype(np.intp),
            cols=(keys % n).astype(np.intp),
            strategy="target_incident",
        )

    @classmethod
    def two_hop(
        cls, graph, targets: Sequence[int], n: "int | None" = None
    ) -> "CandidateSet":
        """All pairs inside the distance-≤2 ball around the target set."""
        resolved_n, matrix = _adjacency_rows(graph) if n is None else (n, graph)
        target_list = sorted({int(t) for t in targets})
        if not target_list:
            raise ValueError("target set must not be empty")
        ball: set[int] = set(target_list)
        one_hop: set[int] = set()
        for t in target_list:
            one_hop.update(int(v) for v in _neighbors_of(matrix, t))
        ball.update(one_hop)
        for v in sorted(one_hop):
            ball.update(int(w) for w in _neighbors_of(matrix, v))
        # vectorised pair construction: the ball can reach thousands of nodes
        # on hub targets, and |ball|² Python tuples would dominate the attack
        nodes = np.fromiter(sorted(ball), dtype=np.intp, count=len(ball))
        i, j = np.triu_indices(len(nodes), k=1)
        # nodes is ascending, so (nodes[i], nodes[j]) is already canonical
        # and lexicographically sorted
        return cls(
            n=resolved_n, rows=nodes[i], cols=nodes[j], strategy="two_hop"
        )

    @classmethod
    def from_pairs(
        cls, n: int, pairs: Iterable[Edge], strategy: str = "custom"
    ) -> "CandidateSet":
        """Build from explicit pairs (canonicalised, deduplicated, sorted)."""
        canonical: set[Edge] = set()
        for u, v in pairs:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"diagonal pair ({u}, {u}) is not a candidate")
            canonical.add((u, v) if u < v else (v, u))
        return cls._from_sorted_pairs(n, sorted(canonical), strategy)

    @classmethod
    def _from_sorted_pairs(
        cls, n: int, pairs: Sequence[Edge], strategy: str
    ) -> "CandidateSet":
        if pairs:
            rows = np.fromiter((p[0] for p in pairs), dtype=np.intp, count=len(pairs))
            cols = np.fromiter((p[1] for p in pairs), dtype=np.intp, count=len(pairs))
        else:
            rows = np.empty(0, dtype=np.intp)
            cols = np.empty(0, dtype=np.intp)
        return cls(n=n, rows=rows, cols=cols, strategy=strategy)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return int(self.rows.size)

    @property
    def is_full(self) -> bool:
        """Whether the set covers every upper-triangle pair."""
        return len(self) == self.n * (self.n - 1) // 2

    @property
    def density(self) -> float:
        """|C| over the n(n−1)/2 full-pair count."""
        total = self.n * (self.n - 1) // 2
        return len(self) / total if total else 0.0

    def pairs(self) -> list[Edge]:
        """Candidate pairs as a list of (u, v) tuples, u < v."""
        return list(zip(self.rows.tolist(), self.cols.tolist()))

    def pair_set(self) -> "frozenset[Edge]":
        """Frozen membership set (cached after the first call)."""
        cached = self.__dict__.get("_pair_set")
        if cached is None:
            cached = frozenset(self.pairs())
            object.__setattr__(self, "_pair_set", cached)
        return cached

    def __contains__(self, pair: Edge) -> bool:
        u, v = pair
        return ((u, v) if u < v else (v, u)) in self.pair_set()

    # ------------------------------------------------------------------ #
    # Per-step adaptation
    # ------------------------------------------------------------------ #
    def remap_positions(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Positions of the given canonical pairs inside this set.

        The adaptive-refresh contract is that sets only *grow*, so every
        pair of a pre-refresh set appears in the refreshed one; attacks use
        this to remap per-pair optimiser state (``Ż`` values, used-pair
        masks) onto the grown arrays with one vectorised binary search.
        Raises if any queried pair is not a member — a refresh
        implementation that dropped pairs would otherwise corrupt the
        remapped state silently.
        """
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        keys = self.rows * self.n + self.cols
        wanted = rows * self.n + cols
        positions = np.searchsorted(keys, wanted)
        if positions.size and (
            positions.max(initial=0) >= keys.size
            or not np.array_equal(keys[positions], wanted)
        ):
            raise ValueError("pairs to remap are not all members of this set")
        return positions

    def refresh(self, flips: "Sequence[Edge]", engine=None) -> "CandidateSet":
        """Hook the attacks call after ``flips`` land: maybe grow the set.

        Static strategies are immutable and return ``self`` (so the hook is
        free); :class:`AdaptiveCandidateSet` returns a grown set.  ``engine``
        is the live :class:`~repro.oddball.surrogate.SurrogateEngine`, used
        for neighbour lookups against the *current* (partially poisoned)
        graph.
        """
        return self


@dataclass(frozen=True, eq=False)
class AdaptiveCandidateSet(CandidateSet):
    """A candidate set that grows its ball as the attack's flips land.

    ``ball`` is the set of nodes whose incident pairs have been admitted;
    it starts as the target set (so the pairs start as exactly
    ``target_incident`` — the containment invariant the tests pin down) and
    every landed flip pulls its endpoints in.  A ball entrant ``w``
    contributes the pairs ``(w, x)`` for ``x ∈ Γ(w) ∪ ball`` — its current
    neighbours (the egonet-internal flips that move ``E`` without moving
    degree, which is what the OddBall objective rewards) plus the earlier
    ball members (so locally-discovered structure can be rewired).

    With ``growth="gradient"`` (strategy name ``adaptive_gradient``) the
    same pool of would-be admissions is *ranked* by the engine's predicted
    |∂L/∂A| at each pair (one
    :meth:`~repro.oddball.surrogate.SurrogateEngine.pair_gradient` call per
    refresh) and only the top ``admit_cap`` join (default
    :func:`admission_cap`) — the set stays focused on pairs the objective
    actually responds to, growing by a bounded amount per landed flip
    instead of by the entrant's degree.

    Instances are immutable like every :class:`CandidateSet`;
    :meth:`refresh` returns a *new* set and the attacks re-point their
    engine at it (:meth:`~repro.oddball.surrogate.SurrogateEngine.set_candidates`).
    """

    ball: "frozenset[int]" = frozenset()
    growth: str = "adjacency"
    #: Pairs admitted per gradient-informed refresh (ties broken by
    #: canonical pair order, so refreshes are deterministic).  Sized by the
    #: budget-aware :func:`admission_cap` policy when built via
    #: :meth:`CandidateSet.build`.
    admit_cap: int = DEFAULT_ADMIT_CAP

    @classmethod
    def start(
        cls,
        n: int,
        targets: Sequence[int],
        growth: str = "adjacency",
        admit_cap: int = DEFAULT_ADMIT_CAP,
    ) -> "AdaptiveCandidateSet":
        """The initial set: exactly ``target_incident`` over ``targets``.

        ``growth`` selects the admission policy for later refreshes:
        ``"adjacency"`` (every incident pair of a ball entrant) or
        ``"gradient"`` (top-|∂L/∂A| pairs of the same pool, at most
        ``admit_cap`` per refresh).
        """
        if growth not in ("adjacency", "gradient"):
            raise ValueError(
                f"unknown adaptive growth policy {growth!r}; "
                "choose 'adjacency' or 'gradient'"
            )
        if admit_cap < 1:
            raise ValueError(f"admit_cap must be >= 1, got {admit_cap}")
        base = CandidateSet.target_incident(n, targets)
        return cls(
            n=n,
            rows=base.rows,
            cols=base.cols,
            strategy="adaptive" if growth == "adjacency" else "adaptive_gradient",
            ball=frozenset(int(t) for t in targets),
            growth=growth,
            admit_cap=int(admit_cap),
        )

    def refresh(self, flips: "Sequence[Edge]", engine=None) -> "CandidateSet":
        """Grow the ball with the endpoints of ``flips``; returns a new set.

        O(Σ_{w new} deg(w) + |C| log |C|) per call (plus one engine
        ``pair_gradient`` evaluation over the pool under the gradient
        policy); ``self`` is returned unchanged when no flip endpoint is
        new.  The result is always a superset of the current set (the
        invariant :meth:`CandidateSet.remap_positions` relies on).
        """
        new_nodes = sorted(
            {int(w) for pair in flips for w in pair} - self.ball
        )
        if not new_nodes:
            return self
        if engine is None:
            raise ValueError(
                "adaptive candidate refresh needs a surrogate engine for "
                "neighbour lookups"
            )
        ball = set(self.ball)
        additions: set[Edge] = set()
        for w in new_nodes:
            partners = set(int(x) for x in engine.neighbors(w)) | ball
            partners.discard(w)
            additions.update((w, x) if w < x else (x, w) for x in partners)
            ball.add(w)
        old_keys = self.rows * self.n + self.cols
        if additions:
            add_keys = np.fromiter(
                (u * self.n + v for u, v in additions),
                dtype=np.intp,
                count=len(additions),
            )
            add_keys = np.setdiff1d(add_keys, old_keys, assume_unique=False)
            if self.growth == "gradient":
                add_keys = self._rank_by_gradient(add_keys, engine)
            keys = np.union1d(old_keys, add_keys)
        else:
            keys = old_keys
        _telemetry.count("candidates.admissions", int(keys.size - old_keys.size))
        return AdaptiveCandidateSet(
            n=self.n,
            rows=(keys // self.n).astype(np.intp),
            cols=(keys % self.n).astype(np.intp),
            strategy=self.strategy,
            ball=frozenset(ball),
            growth=self.growth,
            admit_cap=self.admit_cap,
        )

    def _rank_by_gradient(self, add_keys: np.ndarray, engine) -> np.ndarray:
        """The top-|∂L/∂A| slice of the admission pool (gradient policy).

        The engine evaluates its closed-form gradient at the *candidate*
        pool pairs — pairs that are not yet decision variables — and only
        the ``admit_cap`` strongest predicted movers are admitted.
        """
        if add_keys.size <= self.admit_cap:
            return add_keys
        # Sort on (−|g|, key): deterministic under ties, and backend-
        # independent because the engines' ``pair_gradient`` agree
        # bit-for-bit.
        rows = (add_keys // self.n).astype(np.intp)
        cols = (add_keys % self.n).astype(np.intp)
        magnitude = np.abs(engine.pair_gradient(rows, cols))
        order = np.lexsort((add_keys, -magnitude))
        return add_keys[order[: self.admit_cap]]
