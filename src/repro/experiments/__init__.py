"""Reproduction experiments: one module per paper artefact.

See :mod:`repro.experiments.registry` for the experiment index (the
id -> runner mapping).
"""

from .base import ExperimentConfig, ExperimentResult
from .registry import (
    EXPERIMENTS,
    experiment_ids,
    get_experiment,
    run_all,
    run_experiment,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "EXPERIMENTS",
    "experiment_ids",
    "get_experiment",
    "run_experiment",
    "run_all",
]
