"""Tests for the experiment infrastructure and quick-scale experiment runs.

The heavyweight entropy sweeps run at tiny scale here (small n, few
trials); the full-scale numbers live in the benchmark suite.
"""

import pytest

from repro.experiments.base import ExperimentConfig, ExperimentResult
from repro.experiments.registry import (
    EXPERIMENTS,
    experiment_ids,
    get_experiment,
    run_experiment,
)


QUICK = ExperimentConfig(n=2**10, trials=250, seed=7, quick=True)


class TestExperimentConfig:
    def test_rng_reproducible(self):
        config = ExperimentConfig(seed=5)
        assert config.rng().integers(1000) == config.rng().integers(1000)

    def test_effective_trials(self):
        assert ExperimentConfig(trials=5000, quick=True).effective_trials() == 400
        assert ExperimentConfig(trials=5000, quick=False).effective_trials() == 5000
        assert ExperimentConfig(trials=100, quick=True).effective_trials() == 100


class TestExperimentResult:
    def _result(self, checks) -> ExperimentResult:
        return ExperimentResult(
            experiment_id="X",
            title="t",
            reference="r",
            headers=["a"],
            rows=[[1]],
            checks=checks,
        )

    def test_all_checks_pass(self):
        assert self._result({"c1": True, "c2": True}).all_checks_pass()
        assert not self._result({"c1": True, "c2": False}).all_checks_pass()

    def test_failed_checks(self):
        result = self._result({"good": True, "bad": False})
        assert result.failed_checks() == ["bad"]

    def test_render_contains_everything(self):
        result = self._result({"claim": True})
        result.notes.append("a note")
        text = result.render()
        assert "X" in text and "[PASS] claim" in text and "a note" in text

    def test_to_csv(self):
        assert self._result({}).to_csv().splitlines()[0] == "a"


class TestRegistry:
    def test_all_design_md_ids_present(self):
        expected = {
            "T1-NCD-UP", "T1-NCD-LOW", "T1-CD-UP", "T1-CD-LOW",
            "T2-DET-NCD", "T2-DET-CD", "T2-RAND-NCD", "T2-RAND-CD",
            "KL-NCD", "KL-CD", "SRC-CODE", "PLIAM", "LEMMA-PROBS",
            "BASELINE-X", "SSF", "LEARN", "ADVICE-ROBUST", "JAM-ROBUST",
            "ADAPT-ROBUST",
        }
        assert set(experiment_ids()) == expected

    def test_get_unknown_raises_with_options(self):
        with pytest.raises(KeyError, match="known ids"):
            get_experiment("NOPE")

    def test_descriptions_non_empty(self):
        for _, description in EXPERIMENTS.values():
            assert description


@pytest.mark.parametrize("experiment_id", experiment_ids())
def test_experiment_runs_and_passes_at_tiny_scale(experiment_id):
    """Every registered experiment runs green at reduced scale.

    This is the integration backbone: each run exercises protocols,
    simulator, information theory and the check logic end to end.
    """
    result = run_experiment(experiment_id, QUICK)
    assert result.experiment_id == experiment_id
    assert result.rows, "experiment produced no measurements"
    assert result.headers
    for row in result.rows:
        assert len(row) == len(result.headers)
    assert result.all_checks_pass(), result.failed_checks()


def test_experiments_deterministic_given_seed():
    """Same config => identical measurement tables."""
    first = run_experiment("SRC-CODE", QUICK)
    second = run_experiment("SRC-CODE", QUICK)
    assert first.rows == second.rows
