"""Tests for BinarizedAttack (Algorithm 1)."""

import numpy as np
import pytest

from repro.attacks.binarized import BinarizedAttack
from repro.attacks.random_attack import RandomAttack
from repro.oddball.detector import OddBall


@pytest.fixture()
def attack_setup(small_ba_graph):
    report = OddBall().analyze(small_ba_graph)
    targets = report.top_k(3).tolist()
    return small_ba_graph, targets


def fast_attack(**overrides):
    defaults = dict(iterations=40, lambdas=(0.3, 0.05))
    defaults.update(overrides)
    return BinarizedAttack(**defaults)


class TestConstruction:
    def test_rejects_empty_lambdas(self):
        with pytest.raises(ValueError):
            BinarizedAttack(lambdas=())

    def test_rejects_negative_lambda(self):
        with pytest.raises(ValueError):
            BinarizedAttack(lambdas=(-0.1,))

    def test_rejects_bad_iterations(self):
        with pytest.raises(ValueError):
            BinarizedAttack(iterations=0)

    def test_rejects_bad_init(self):
        with pytest.raises(ValueError):
            BinarizedAttack(init=1.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lambdas": [float("nan")]},
            {"lambdas": [float("inf")]},
            {"lr": float("nan")},
            {"lr": float("inf")},
            {"lr": 0.0},
            {"floor": float("nan")},
            {"floor": float("inf")},
            {"floor": 0.0},
            {"init": float("nan")},
        ],
        ids=repr,
    )
    def test_rejects_non_finite_or_out_of_range_parameters(self, kwargs):
        """NaN slips past plain range checks and made the attack return no
        flips without complaint; reject it (and ±inf) at construction."""
        with pytest.raises(ValueError):
            BinarizedAttack(**kwargs)


class TestAttackInvariants:
    def test_budget_respected_at_every_level(self, attack_setup):
        graph, targets = attack_setup
        result = fast_attack().attack(graph, targets, budget=6)
        for b in result.budgets:
            assert len(result.flips(b)) <= b

    def test_poisoned_graph_valid(self, attack_setup):
        graph, targets = attack_setup
        result = fast_attack().attack(graph, targets, budget=6)
        poisoned = result.poisoned()
        assert np.array_equal(poisoned, poisoned.T)
        assert set(np.unique(poisoned)) <= {0.0, 1.0}
        assert np.diagonal(poisoned).sum() == 0.0

    def test_no_singletons(self, attack_setup):
        graph, targets = attack_setup
        result = fast_attack().attack(graph, targets, budget=8)
        degrees = result.poisoned().sum(axis=1)
        assert not ((degrees == 0) & (graph.degrees() > 0)).any()

    def test_surrogate_non_increasing_in_budget(self, attack_setup):
        """Best-recorded-solution selection is monotone by construction."""
        graph, targets = attack_setup
        result = fast_attack().attack(graph, targets, budget=6)
        losses = [result.surrogate_by_budget[b] for b in sorted(result.surrogate_by_budget)]
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_budget_zero_is_clean_graph(self, attack_setup):
        graph, targets = attack_setup
        result = fast_attack().attack(graph, targets, budget=0)
        np.testing.assert_allclose(result.poisoned(0), graph.adjacency)


class TestAttackQuality:
    def test_decreases_target_scores(self, attack_setup):
        graph, targets = attack_setup
        result = fast_attack(iterations=80).attack(graph, targets, budget=8)
        assert result.score_decrease(targets) > 0.1

    def test_beats_random_baseline(self, attack_setup):
        graph, targets = attack_setup
        binarized = fast_attack(iterations=80).attack(graph, targets, budget=8)
        random = RandomAttack(rng=0).attack(graph, targets, budget=8)
        assert binarized.score_decrease(targets) > random.score_decrease(targets)

    def test_metadata_recorded(self, attack_setup):
        graph, targets = attack_setup
        result = fast_attack().attack(graph, targets, budget=4)
        assert result.metadata["lambdas"] == [0.3, 0.05]
        assert result.metadata["candidates_recorded"] >= 1

    def test_textbook_pgd_path_runs(self, attack_setup):
        """normalize_gradient=False exercises the plain Alg. 1 update."""
        graph, targets = attack_setup
        result = fast_attack(normalize_gradient=False, lr=1e-3).attack(
            graph, targets, budget=4
        )
        assert result.max_budget == 4

    def test_larger_lambda_means_fewer_flips(self, attack_setup):
        """LASSO sparsity: a harsh λ yields no more flips than a mild one."""
        graph, targets = attack_setup
        harsh = BinarizedAttack(iterations=60, lambdas=(0.9,)).attack(graph, targets, 10)
        mild = BinarizedAttack(iterations=60, lambdas=(0.01,)).attack(graph, targets, 10)
        assert len(harsh.flips()) <= len(mild.flips()) + 1


class TestFloorConsistency:
    """Regression: `_record`/`_select` re-scored trimmed flip sets at a
    hard-coded floor of 1.0 while forward losses used ``self.floor``,
    corrupting the per-budget argmin whenever ``floor != 1.0``."""

    @pytest.mark.parametrize("floor", [2.0, 0.5])
    def test_recorded_losses_reproducible_at_attack_floor(self, attack_setup, floor):
        from repro.oddball.surrogate import surrogate_loss_numpy

        graph, targets = attack_setup
        attack = fast_attack(floor=floor)
        result = attack.attack(graph, targets, budget=5)
        for budget, loss in result.surrogate_by_budget.items():
            reproduced = surrogate_loss_numpy(
                result.poisoned(budget), targets, floor=floor
            )
            assert loss == pytest.approx(reproduced, rel=1e-12), (
                f"budget {budget}: recorded loss mixes floors"
            )

    def test_base_loss_seeded_at_attack_floor(self, attack_setup):
        from repro.oddball.surrogate import surrogate_loss_numpy

        graph, targets = attack_setup
        result = fast_attack(floor=2.0, iterations=5).attack(graph, targets, budget=3)
        assert result.surrogate_by_budget[0] == surrogate_loss_numpy(
            graph.adjacency, targets, floor=2.0
        )
