"""Deterministic gripping world: hidden ground truth, scenarios, execution.

The world owns the real success envelope the knowledge base only
approximates. Plans are judged against true values; the feedback handed back
carries sensed (possibly noisy) values only.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import defaults
from .experience import FAILURE, SUCCESS, AttributeVector
from .kb import AttributeSchema, KnowledgeBase


class WorldError(Exception):
    pass


# ── Ground truth ──────────────────────────────────────────────────────────


@dataclass(frozen=True)
class GroundTruthEnvelope:
    """True gripping envelope: strict distance window plus an angle floor.

    The angle floor comes from a line through the anchor points, evaluated at
    the distance rounded half up to whole cm (the real coupling is per-cm),
    then clamped to ``defaults.TRUE_ANGLE_CLIP``. A single anchor gives a flat floor.
    """

    angle_anchors: tuple[tuple[float, float], ...] = defaults.FULL_ANCHORS

    @functools.cached_property
    def _floor_line(self) -> tuple[float, float, float | None]:
        """(d0, a0, slope) through the outermost anchors; slope None for one anchor."""
        anchors = sorted(self.angle_anchors)
        (d0, a0), (d1, a1) = anchors[0], anchors[-1]
        return d0, a0, None if len(anchors) == 1 else (a1 - a0) / (d1 - d0)

    def angle_bound(self, distance: float) -> float:
        d = math.floor(distance + 0.5)
        d0, a0, slope = self._floor_line
        raw = a0 if slope is None else a0 + slope * (d - d0)
        lo, hi = defaults.TRUE_ANGLE_CLIP
        return min(max(raw, lo), hi)

    def judge(self, true_distance: float, true_angle: float) -> frozenset[int]:
        """Return the set of attribute indices whose true test failed (empty = success)."""
        lo, hi = defaults.TRUE_DISTANCE_RANGE
        if not (lo < true_distance < hi):
            # distance fails first; the angle bound is undefined out of range
            return frozenset({defaults.DISTANCE})
        if not (self.angle_bound(true_distance) < true_angle <= defaults.TRUE_ANGLE_CLIP[1]):
            return frozenset({defaults.ANGLE})
        return frozenset()


@dataclass(frozen=True)
class NoiseModel:
    sigma_distance: float = 0.0
    sigma_angle: float = 0.0


def sense(true_value: float, sigma: float, rng: np.random.Generator) -> float:
    """Sensed reading: true value plus zero-mean Gaussian noise."""
    return float(true_value + rng.normal(0.0, sigma))


# ── Scenarios ─────────────────────────────────────────────────────────────


@dataclass
class Scenario:
    kind: str
    episode: int
    seed: int
    rng_stream: str
    true_distance: float
    true_angle: float
    sensed_distance: float
    sensed_angle: float
    waypoints: dict[str, tuple[float, float]]


def generate_scenario(
    kind: str,
    rng: np.random.Generator,
    kb: KnowledgeBase,
    *,
    schema: AttributeSchema = defaults.GRIP_SCHEMA,
    noise: NoiseModel = NoiseModel(),
    episode: int = 0,
    seed: int = 0,
    rng_stream: str = "phase1",
) -> Scenario:
    """Draw one scenario from the KB's current permitted ranges.

    The varied attribute is sampled uniformly over the effective (possibly
    faulty, possibly refined) KB range; learned per-bucket angle bounds
    tighten the angle draw for the matching distance bucket.
    """
    if kind not in defaults.EXPERIMENT_KINDS:
        raise WorldError(f"unknown experiment kind {kind!r}")

    if kind == "angle":
        true_d = defaults.ANGLE_KIND_FIXED_DISTANCE
    else:
        lo = kb.get_effective_value(defaults.MINDIS)
        hi = kb.get_effective_value(defaults.MAXDIS)
        true_d = float(rng.uniform(lo, hi))

    if kind == "distance":
        true_a = defaults.DISTANCE_KIND_FIXED_ANGLE
    elif kind == "group":
        true_a = defaults.GROUP_KIND_FIXED_ANGLE
    else:
        bucket = schema.quantize(defaults.DISTANCE, true_d)
        if kb.has_entry(defaults.MAXHWANGLE, bucket):
            lo = kb.get_effective_value(defaults.MAXHWANGLE, bucket)
        else:
            lo = kb.get_effective_value(defaults.MINHWANGLE)
        hi = kb.get_effective_value(defaults.MAXHWANGLE)
        true_a = float(rng.uniform(lo, hi))

    sensed_d = sense(true_d, noise.sigma_distance, rng)
    sensed_a = sense(true_a, noise.sigma_angle, rng)
    return Scenario(
        kind=kind,
        episode=episode,
        seed=seed,
        rng_stream=rng_stream,
        true_distance=true_d,
        true_angle=true_a,
        sensed_distance=sensed_d,
        sensed_angle=sensed_a,
        waypoints={
            defaults.ROBOT_START: (-50.0, 0.0),
            defaults.CUP_WAYPOINT: (0.0, 0.0),
            defaults.GRIP_WAYPOINT: (true_d, 0.0),
        },
    )


def pair_distance(scenario: Scenario, a: str, b: str) -> tuple[float, float]:
    """(true, sensed) distance between waypoints a and b.

    The robot senses the grip pair; any other pair it reads off the map,
    which is exact. The sensed value is what the planner is given.
    """
    if {a, b} == {defaults.GRIP_WAYPOINT, defaults.CUP_WAYPOINT}:
        return scenario.true_distance, scenario.sensed_distance
    (ax, ay), (bx, by) = scenario.waypoints[a], scenario.waypoints[b]
    d = math.hypot(ax - bx, ay - by)
    return d, d


# ── Execution ─────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class ExecutionFeedback:
    outcome: str
    observed: AttributeVector
    true_cause: frozenset[int]


def execute_plan(plan, scenario: Scenario, envelope: GroundTruthEnvelope, episode: int = 0) -> ExecutionFeedback:
    """Execute a plan against ground truth; report sensed values only.

    The outcome is decided by the true distance/angle at the grip step; the
    observed vector carries the sensed values the robot planned with, for the
    pair it gripped from. Every plan grips: an instantiated problem never
    starts out holding its goal, ``carry``.
    """
    grip = next(step for step in plan.steps if step.schema == "grip")
    true_d, sensed_d = pair_distance(scenario, grip.args[2], grip.args[3])
    cause = envelope.judge(true_d, scenario.true_angle)
    outcome = SUCCESS if not cause else FAILURE
    observed = AttributeVector((sensed_d, scenario.sensed_angle), outcome, episode)
    return ExecutionFeedback(outcome, observed, cause)


# ── Scenario persistence ──────────────────────────────────────────────────

_SCENARIO_FIELDS = [
    "scenario_id",
    "seed",
    "kind",
    "rng_stream",
    "true_distance",
    "true_angle",
    "sensed_distance",
    "sensed_angle",
    "robot_start",
    "cup_waypoint",
    "grip_waypoint",
]


def save_scenarios(path: str, scenarios: list[Scenario]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_SCENARIO_FIELDS)
        for s in scenarios:
            w.writerow(
                [
                    s.episode,
                    s.seed,
                    s.kind,
                    s.rng_stream,
                    repr(s.true_distance),
                    repr(s.true_angle),
                    repr(s.sensed_distance),
                    repr(s.sensed_angle),
                    defaults.ROBOT_START,
                    defaults.CUP_WAYPOINT,
                    defaults.GRIP_WAYPOINT,
                ]
            )
