"""Tests for GradMaxSearch."""

import numpy as np
import pytest

from repro.attacks.gradmax import GradMaxSearch
from repro.oddball.detector import OddBall


@pytest.fixture()
def attack_setup(small_ba_graph):
    report = OddBall().analyze(small_ba_graph)
    targets = report.top_k(3).tolist()
    return small_ba_graph, targets


class TestGradMaxSearch:
    def test_budget_respected(self, attack_setup):
        graph, targets = attack_setup
        result = GradMaxSearch().attack(graph, targets, budget=5)
        assert len(result.flips()) <= 5
        assert result.max_budget == 5

    def test_no_pair_flipped_twice(self, attack_setup):
        graph, targets = attack_setup
        result = GradMaxSearch().attack(graph, targets, budget=8)
        flips = result.flips()
        assert len(set(flips)) == len(flips)

    def test_no_singletons_created(self, attack_setup):
        graph, targets = attack_setup
        result = GradMaxSearch().attack(graph, targets, budget=8)
        degrees = result.poisoned().sum(axis=1)
        before = graph.degrees()
        assert not ((degrees == 0) & (before > 0)).any()

    def test_decreases_target_scores(self, attack_setup):
        graph, targets = attack_setup
        result = GradMaxSearch().attack(graph, targets, budget=6)
        assert result.score_decrease(targets) > 0.0

    def test_surrogate_improves_overall(self, attack_setup):
        """Per-step monotonicity is NOT guaranteed — a discrete flip can
        overshoot the gradient's local linearisation (the paper's very
        criticism of GradMaxSearch, Section V-B).  The attack must still
        improve the surrogate overall on this fixture."""
        graph, targets = attack_setup
        result = GradMaxSearch().attack(graph, targets, budget=6)
        losses = result.surrogate_by_budget
        assert losses[max(losses)] < losses[0]

    def test_deterministic(self, attack_setup):
        graph, targets = attack_setup
        a = GradMaxSearch().attack(graph, targets, budget=4)
        b = GradMaxSearch().attack(graph, targets, budget=4)
        assert a.flips() == b.flips()

    def test_prefix_property(self, attack_setup):
        """Budget-b flips are a prefix of budget-B flips (greedy order)."""
        graph, targets = attack_setup
        result = GradMaxSearch().attack(graph, targets, budget=6)
        full = result.flips(6)
        for b in range(6):
            assert result.flips(b) == full[:b]

    def test_budget_zero(self, attack_setup):
        graph, targets = attack_setup
        result = GradMaxSearch().attack(graph, targets, budget=0)
        assert result.flips() == []
        np.testing.assert_allclose(result.poisoned(), graph.adjacency)

    def test_accepts_adjacency_matrix(self, attack_setup):
        graph, targets = attack_setup
        result = GradMaxSearch().attack(graph.adjacency, targets, budget=2)
        assert len(result.flips()) <= 2

    def test_invalid_budget(self, attack_setup):
        graph, targets = attack_setup
        with pytest.raises(ValueError):
            GradMaxSearch().attack(graph, targets, budget=-1)
        with pytest.raises(TypeError):
            GradMaxSearch().attack(graph, targets, budget=1.5)

    @pytest.mark.parametrize(
        "floor", [float("nan"), float("inf"), 0.0, -1.0], ids=repr
    )
    def test_rejects_bad_floor_at_construction(self, floor):
        """NaN slipped past the in-attack ``floor <= 0`` check and produced no
        flips without complaint; every bad floor now fails in __init__."""
        with pytest.raises(ValueError, match="floor"):
            GradMaxSearch(floor=floor)
