"""Tests for the experiment runner CLI (main entry point)."""

import pytest

from repro.experiments import runner
from repro.experiments.runner import main, run_experiment


class TestMain:
    def test_single_experiment_prints_table(self, capsys, tmp_path):
        exit_code = main(
            ["--experiment", "table1", "--scale", "smoke", "--seed", "3",
             "--output", str(tmp_path)]
        )
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "Table I" in captured.out
        assert (tmp_path / "table1_smoke.json").exists()

    def test_requires_experiment_or_all(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_experiment_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["--experiment", "fig99"])

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["--experiment", "table1", "--scale", "huge"])


def test_lease_ttl_is_forwarded_on_its_own(monkeypatch):
    seen = {}

    def fake_run(scale, seed, workers=1, lease_ttl=None):
        seen.update(workers=workers, lease_ttl=lease_ttl)
        return {}

    monkeypatch.setitem(runner.EXPERIMENTS, "fake", (fake_run, lambda payload: ""))
    run_experiment("fake", workers=2, lease_ttl=5.0)
    assert seen == {"workers": 2, "lease_ttl": 5.0}
