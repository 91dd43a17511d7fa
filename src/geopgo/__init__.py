"""Distributed pose-graph optimization via geodesic rotation consensus.

Modules:
    so3          rotation-group primitives (hat/vee, exp/log, metrics)
    graph        pose-graph data model and topology helpers
    consistency  measurement consistency checks and repairs
    solver       reference consensus solver and evaluation
    synth        synthetic scenarios, noise, initial guesses
    io           g2o / JSON / CSV formats
    runtime      block-worker distributed execution
    cli          command-line driver
"""

__version__ = "0.1.0"

from .graph import Pose, PoseGraph, RelativeMeasurement, build_graph
from .solver import SolverConfig, solve
from .synth import NoiseModel, ScenarioSpec, generate_dataset

__all__ = [
    "Pose",
    "PoseGraph",
    "RelativeMeasurement",
    "build_graph",
    "SolverConfig",
    "solve",
    "NoiseModel",
    "ScenarioSpec",
    "generate_dataset",
    "__version__",
]
