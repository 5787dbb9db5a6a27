"""Tests for the CandidateSet abstraction."""

from dataclasses import dataclass

import numpy as np
import pytest
from scipy import sparse

from repro.attacks.candidates import CANDIDATE_STRATEGIES, CandidateSet
from repro.graph.graph import Graph


class TestFull:
    def test_matches_triu_order(self):
        candidate_set = CandidateSet.full(6)
        rows, cols = np.triu_indices(6, k=1)
        np.testing.assert_array_equal(candidate_set.rows, rows)
        np.testing.assert_array_equal(candidate_set.cols, cols)
        assert candidate_set.is_full
        assert candidate_set.density == 1.0
        assert len(candidate_set) == 15

    def test_trivial_sizes(self):
        assert len(CandidateSet.full(0)) == 0
        assert len(CandidateSet.full(1)) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            CandidateSet.full(-1)


class TestTargetIncident:
    def test_every_pair_touches_a_target(self):
        candidate_set = CandidateSet.target_incident(8, [2, 5])
        for u, v in candidate_set.pairs():
            assert u in (2, 5) or v in (2, 5)

    def test_size_formula(self):
        n, t = 10, 3
        candidate_set = CandidateSet.target_incident(n, [0, 4, 7])
        assert len(candidate_set) == t * (n - 1) - t * (t - 1) // 2

    def test_sorted_canonical_unique(self):
        candidate_set = CandidateSet.target_incident(7, [6, 1])
        pairs = candidate_set.pairs()
        assert pairs == sorted(set(pairs))
        assert all(u < v for u, v in pairs)

    def test_empty_targets_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            CandidateSet.target_incident(5, [])

    def test_out_of_range_targets_rejected(self):
        with pytest.raises(ValueError, match="range"):
            CandidateSet.target_incident(5, [5])


class TestTwoHop:
    def test_covers_the_distance_two_ball(self):
        # Path graph 0-1-2-3-4-5; target 0 reaches {0, 1, 2} within 2 hops.
        graph = Graph.from_edges(6, [(i, i + 1) for i in range(5)])
        candidate_set = CandidateSet.two_hop(graph, [0])
        assert set(candidate_set.pairs()) == {(0, 1), (0, 2), (1, 2)}

    def test_superset_of_target_incident_restricted_to_ball(self, small_ba_graph):
        targets = [0, 7]
        two_hop = CandidateSet.two_hop(small_ba_graph, targets)
        ball = {u for pair in two_hop.pairs() for u in pair}
        incident = CandidateSet.target_incident(small_ba_graph.number_of_nodes, targets)
        in_ball_incident = {
            pair for pair in incident.pairs() if pair[0] in ball and pair[1] in ball
        }
        assert in_ball_incident <= set(two_hop.pairs())

    def test_accepts_sparse_adjacency(self, small_er_graph):
        dense_set = CandidateSet.two_hop(small_er_graph, [3])
        sparse_set = CandidateSet.two_hop(
            sparse.csr_matrix(small_er_graph.adjacency), [3]
        )
        assert dense_set.pairs() == sparse_set.pairs()


class TestBuild:
    @pytest.mark.parametrize("strategy", CANDIDATE_STRATEGIES)
    def test_dispatch(self, small_er_graph, strategy):
        candidate_set = CandidateSet.build(strategy, small_er_graph, [0, 1])
        assert candidate_set.strategy == strategy
        assert candidate_set.n == small_er_graph.number_of_nodes
        assert len(candidate_set) > 0

    @pytest.mark.parametrize("strategy", ["everything", "block"])
    def test_unknown_strategy(self, small_er_graph, strategy):
        with pytest.raises(ValueError, match="unknown candidate strategy"):
            CandidateSet.build(strategy, small_er_graph, [0])

    def test_strategy_catalogue(self):
        assert CANDIDATE_STRATEGIES == (
            "full", "target_incident", "two_hop", "adaptive", "adaptive_gradient",
        )

    def test_targets_required_except_full(self, small_er_graph):
        assert CandidateSet.build("full", small_er_graph).is_full
        with pytest.raises(ValueError, match="requires a target set"):
            CandidateSet.build("target_incident", small_er_graph)

    def test_strategies_nest(self, small_ba_graph):
        """target_incident ⊆ full; both restrict what the attack may flip."""
        targets = [1, 4]
        full = CandidateSet.build("full", small_ba_graph, targets)
        incident = CandidateSet.build("target_incident", small_ba_graph, targets)
        assert set(incident.pairs()) <= set(full.pairs())
        assert len(incident) < len(full)


class TestFromPairsAndValidation:
    def test_canonicalises_and_deduplicates(self):
        candidate_set = CandidateSet.from_pairs(5, [(3, 1), (1, 3), (0, 4)])
        assert candidate_set.pairs() == [(0, 4), (1, 3)]

    def test_rejects_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            CandidateSet.from_pairs(5, [(2, 2)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            CandidateSet.from_pairs(3, [(0, 3)])

    def test_rejects_non_canonical_arrays(self):
        with pytest.raises(ValueError, match="canonical"):
            CandidateSet(n=4, rows=np.array([2]), cols=np.array([1]))

    def test_rejects_unsorted_arrays(self):
        with pytest.raises(ValueError, match="sorted"):
            CandidateSet(n=4, rows=np.array([0, 0]), cols=np.array([2, 1]))

    def test_membership(self):
        candidate_set = CandidateSet.from_pairs(5, [(1, 2)])
        assert (1, 2) in candidate_set
        assert (2, 1) in candidate_set  # canonicalised lookup
        assert (0, 1) not in candidate_set


class TestSparseExplicitZeros:
    def test_two_hop_ignores_stored_zeros(self):
        """Stored explicit zeros are valid zero entries (see to_sparse) and
        must not be treated as neighbours when building the two-hop ball."""
        # path graph 0-1-2 plus an explicit stored zero at (0, 3)
        data = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0])
        rows = np.array([0, 1, 1, 2, 0, 3])
        cols = np.array([1, 0, 2, 1, 3, 0])
        matrix = sparse.csr_matrix((data, (rows, cols)), shape=(5, 5))
        assert matrix.nnz == 6
        candidate_set = CandidateSet.two_hop(matrix, [0])
        assert set(candidate_set.pairs()) == {(0, 1), (0, 2), (1, 2)}


class TestGradientGrowth:
    """AdaptiveCandidateSet with growth="gradient": admissions ranked by the
    engine's predicted |dL/dA|, capped per refresh, superset invariant held."""

    def _engine(self, graph, targets, candidate_set):
        from repro.oddball.surrogate import SurrogateEngine

        return SurrogateEngine.create(
            graph.adjacency_view, targets, candidate_set, backend="sparse"
        )

    def _setup(self):
        from repro.attacks.candidates import AdaptiveCandidateSet
        from repro.graph.generators import barabasi_albert

        graph = barabasi_albert(200, 8, rng=9)
        targets = [0, 1]
        candidate_set = AdaptiveCandidateSet.start(200, targets, growth="gradient")
        return graph, targets, candidate_set

    def test_strategy_name_registered(self):
        from repro.attacks.candidates import (
            CANDIDATE_STRATEGIES,
            CandidateSet,
        )
        from repro.graph.generators import erdos_renyi

        assert "adaptive_gradient" in CANDIDATE_STRATEGIES
        graph = erdos_renyi(30, 0.2, rng=0)
        built = CandidateSet.build("adaptive_gradient", graph, [1, 2])
        assert built.strategy == "adaptive_gradient"
        assert built.growth == "gradient"

    def test_starts_as_exact_target_incident(self):
        _, targets, candidate_set = self._setup()
        base = CandidateSet.target_incident(200, targets)
        assert candidate_set.pairs() == base.pairs()

    def test_refresh_is_superset_of_previous_and_base(self):
        graph, targets, candidate_set = self._setup()
        engine = self._engine(graph, targets, candidate_set)
        base_pairs = set(CandidateSet.target_incident(200, targets).pairs())
        current = candidate_set
        for flip in [(5, 30), (30, 77), (77, 101)]:
            engine.apply_flip(*flip)
            grown = current.refresh([flip], engine)
            assert base_pairs <= set(grown.pairs())
            assert set(current.pairs()) <= set(grown.pairs())
            # remap (the attack-state contract) must succeed on every pair
            grown.remap_positions(current.rows, current.cols)
            current = grown
        # ...and must refuse a pair the refreshed set does not hold
        with pytest.raises(ValueError, match="not all members"):
            candidate_set.remap_positions(current.rows, current.cols)

    @pytest.mark.parametrize("swap", [False, True], ids=["drop", "swap"])
    @pytest.mark.parametrize("attack_name", ["gradmaxsearch", "binarizedattack"])
    def test_attacks_reject_a_refresh_that_drops_a_pair(
        self, small_ba_graph, attack_name, swap
    ):
        """Sets only grow: an attack must raise, not re-initialise state, when
        a refresh drops a pair — also when it admits another at equal size."""
        from repro.attacks import ATTACK_REGISTRY

        targets = [0, 1]
        base = CandidateSet.target_incident(small_ba_graph.number_of_nodes, targets)
        stub = _DroppingCandidateSet(
            n=base.n, rows=base.rows, cols=base.cols, swap=swap
        )
        attack = ATTACK_REGISTRY[attack_name]
        attack = attack(iterations=20) if attack_name == "binarizedattack" else attack()
        with pytest.raises(ValueError, match="not all members"):
            attack.attack(small_ba_graph, targets, budget=3, candidates=stub)

    def test_admissions_capped_and_gradient_ranked(self):
        from repro.attacks.candidates import AdaptiveCandidateSet

        graph, targets, candidate_set = self._setup()
        engine = self._engine(graph, targets, candidate_set)
        # flip to a hub so the admission pool exceeds the cap
        degrees = engine.degrees()
        hub = int(np.argmax(degrees))
        if hub in (0, 1):
            hub = int(np.argsort(-degrees)[2])
        engine.apply_flip(0, hub)
        grown = candidate_set.refresh([(0, hub)], engine)
        added = set(grown.pairs()) - set(candidate_set.pairs())
        cap = candidate_set.admit_cap
        assert 0 < len(added) <= cap
        # adjacency growth over the same pool admits strictly more
        adjacency_grown = AdaptiveCandidateSet(
            n=candidate_set.n, rows=candidate_set.rows, cols=candidate_set.cols,
            strategy="adaptive", ball=candidate_set.ball, growth="adjacency",
        ).refresh([(0, hub)], engine)
        pool = set(adjacency_grown.pairs()) - set(candidate_set.pairs())
        assert added < pool
        # the admitted pairs are exactly the top-|gradient| slice of the pool
        pool_pairs = sorted(pool)
        rows = np.array([u for u, _ in pool_pairs], dtype=np.intp)
        cols = np.array([v for _, v in pool_pairs], dtype=np.intp)
        magnitude = np.abs(engine.pair_gradient(rows, cols))
        keys = rows * candidate_set.n + cols
        order = np.lexsort((keys, -magnitude))
        expected = {
            (int(rows[k]), int(cols[k])) for k in order[:cap]
        }
        assert added == expected

    def test_refresh_without_engine_raises(self):
        _, _, candidate_set = self._setup()
        with pytest.raises(ValueError, match="engine"):
            candidate_set.refresh([(5, 30)])

    def test_pair_gradient_backends_agree(self):
        from repro.graph.generators import erdos_renyi
        from repro.oddball.surrogate import SurrogateEngine

        graph = erdos_renyi(40, 0.15, rng=2)
        targets = [3, 7]
        rows = np.array([0, 2, 5], dtype=np.intp)
        cols = np.array([9, 11, 30], dtype=np.intp)
        dense = SurrogateEngine.create(
            graph.adjacency_view, targets, backend="dense"
        )
        sparse_engine = SurrogateEngine.create(
            graph.adjacency_view, targets,
            (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)),
            backend="sparse",
        )
        np.testing.assert_allclose(
            dense.pair_gradient(rows, cols),
            sparse_engine.pair_gradient(rows, cols),
            rtol=1e-9, atol=1e-12,
        )


def _adaptive_schedule(graph, growth, seed=0, backend="sparse", kernels="numpy"):
    """Run a seeded 6-step flip/refresh schedule from targets {0, 1, 2},
    asserting the grow-only invariants; returns the per-step pair keys."""
    from repro.attacks.candidates import AdaptiveCandidateSet
    from repro.oddball.surrogate import SurrogateEngine

    n, cap = graph.number_of_nodes, 8
    current = AdaptiveCandidateSet.start(n, [0, 1, 2], growth=growth, admit_cap=cap)
    kwargs = {"kernels": kernels} if backend == "sparse" else {}
    engine = SurrogateEngine.create(
        sparse.csr_matrix(graph.adjacency) if backend == "sparse" else graph.adjacency,
        [0, 1, 2], current, backend=backend, **kwargs,
    )
    picker, history, flipped = np.random.default_rng(seed), [], set()
    for _ in range(6):
        index = int(picker.integers(len(current)))
        pair = (int(current.rows[index]), int(current.cols[index]))
        engine.apply_flip(*pair)
        flipped.add(pair)
        grown = current.refresh([pair], engine)
        engine.set_candidates(grown)
        assert current.pair_set() | flipped <= grown.pair_set()
        assert growth == "adjacency" or len(grown) - len(current) <= cap
        keys = grown.rows * n + grown.cols
        assert np.all(np.diff(keys) > 0)  # canonical order, no duplicates
        positions = grown.remap_positions(current.rows, current.cols)
        assert np.array_equal(keys[positions], current.rows * n + current.cols)
        history.append(keys)
        current = grown
    return history


class TestAdaptiveRefreshSchedule:
    """Both adaptive growth policies only grow, keep every landed flip, stay
    canonical, and replay identically whichever engine ranks admissions."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("growth", ["adjacency", "gradient"])
    def test_seeded_schedule_holds_every_invariant(self, small_ba_graph, growth, seed):
        _adaptive_schedule(small_ba_graph, growth, seed=seed + 10)

    @pytest.mark.parametrize(
        "config",
        [{"backend": "dense"}, {"kernels": "compiled"}, {}],
        ids=["dense", "compiled", "rerun"],
    )
    def test_gradient_sequence_is_engine_independent(self, small_ba_graph, config):
        from repro.kernels import compiled_available

        if config.get("kernels") == "compiled" and not compiled_available():
            pytest.skip("compiled backend unavailable on this host")
        ref = _adaptive_schedule(small_ba_graph, "gradient", seed=7)
        other = _adaptive_schedule(small_ba_graph, "gradient", seed=7, **config)
        assert all(np.array_equal(a, b) for a, b in zip(ref, other))
        moved = _adaptive_schedule(small_ba_graph, "gradient", seed=8, **config)
        assert not all(np.array_equal(a, b) for a, b in zip(ref, moved))


class TestRemapPositions:
    @pytest.mark.parametrize(
        "rows, cols, expected",
        [([0, 2, 6], [3, 5, 7], [0, 2, 3]), ([], [], []), ([1], [3], None),
         ([7], [8], None), ([0, 1], [3, 5], None)],
        ids=["members", "empty", "inside-range", "past-the-end", "one-of-two"],
    )
    def test_members_map_to_their_index_and_others_raise(self, rows, cols, expected):
        held = CandidateSet.from_pairs(9, [(0, 3), (1, 4), (2, 5), (6, 7)])
        rows, cols = np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)
        if expected is None:
            with pytest.raises(ValueError, match="not all members"):
                held.remap_positions(rows, cols)
        else:
            assert held.remap_positions(rows, cols).tolist() == expected


@dataclass(frozen=True, eq=False)
class _DroppingCandidateSet(CandidateSet):
    """Breaks the grow-only contract: each refresh drops the first pair and,
    with ``swap``, admits the first outside pair so |C| stays the same."""

    swap: bool = False

    def refresh(self, flips, engine=None):
        pairs = self.pairs()[1:]
        if self.swap:
            held = set(self.pairs())
            pairs.append(next(p for p in CandidateSet.full(self.n).pairs()
                              if p not in held))
        grown = CandidateSet.from_pairs(self.n, pairs)
        return _DroppingCandidateSet(
            n=self.n, rows=grown.rows, cols=grown.cols, swap=self.swap
        )
