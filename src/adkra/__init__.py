"""Plan-execution knowledge refinement for a gripping robot world.

A deliberately mis-bounded PDDL domain drives a deterministic simulator;
failed executions are screened for anomalous attribute values and the
knowledge base's numeric bounds are stepped toward the success history until
the failure rate decays.
"""

__version__ = "0.1.0"

from .experience import AttributeVector, TrainingData
from .harness import ExperimentConfig, compute_metrics, emit_report, run_experiment
from .instantiate import instantiate_problem
from .kb import AttributeSchema, AttributeSpec, KnowledgeBase, Relationship
from .pddl import parse_domain, parse_problem, print_domain, print_problem
from .planner import NoPlanFound, Plan, find_plan, format_plan, validate_plan
from .reasoner import (
    detect_collective_anomalies,
    detect_point_anomalies,
    learn_value,
    process_feedback,
    refine,
    select_outlier,
)
from .world import GroundTruthEnvelope, NoiseModel, execute_plan, generate_scenario

__all__ = [
    "AttributeSchema",
    "AttributeSpec",
    "AttributeVector",
    "ExperimentConfig",
    "GroundTruthEnvelope",
    "KnowledgeBase",
    "NoPlanFound",
    "NoiseModel",
    "Plan",
    "Relationship",
    "TrainingData",
    "__version__",
    "compute_metrics",
    "detect_collective_anomalies",
    "detect_point_anomalies",
    "emit_report",
    "execute_plan",
    "find_plan",
    "format_plan",
    "generate_scenario",
    "instantiate_problem",
    "learn_value",
    "parse_domain",
    "parse_problem",
    "print_domain",
    "print_problem",
    "process_feedback",
    "refine",
    "run_experiment",
    "select_outlier",
    "validate_plan",
]
