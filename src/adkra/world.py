"""Deterministic gripping world: hidden ground truth, scenarios, execution.

The world owns the real success envelope the knowledge base only
approximates. Plans are judged against true values; the feedback handed back
carries sensed (possibly noisy) values only.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

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
    the grid-quantized distance (the real coupling is per-centimetre), then
    clamped to the full angle range. A single anchor gives a flat floor.
    """

    distance_range: tuple[float, float] = (15.0, 23.0)
    angle_anchors: tuple[tuple[float, float], ...] = defaults.FULL_ANCHORS
    angle_clip: tuple[float, float] = (-25.0, 0.0)
    grid: float = 1.0

    def angle_bound(self, distance: float) -> float:
        d = math.floor(distance / self.grid + 0.5) * self.grid
        anchors = sorted(self.angle_anchors)
        if len(anchors) == 1:
            raw = anchors[0][1]
        else:
            (d0, a0), (d1, a1) = anchors[0], anchors[-1]
            slope = (a1 - a0) / (d1 - d0)
            raw = a0 + slope * (d - d0)
        lo, hi = self.angle_clip
        return min(max(raw, lo), hi)

    def judge(self, true_distance: float, true_angle: float) -> frozenset[int]:
        """Return the set of attribute indices whose true test failed (empty = success)."""
        lo, hi = self.distance_range
        if not (lo < true_distance < hi):
            # distance fails first; the angle bound is undefined out of range
            return frozenset({defaults.DISTANCE})
        if not (self.angle_bound(true_distance) < true_angle <= self.angle_clip[1]):
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
    waypoints: dict[str, tuple[float, float]] = field(default_factory=dict)
    robot_start: str = "wp0"
    cup_waypoint: str = "wp1"
    grip_waypoint: str = "wp2"


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
        waypoints=_waypoints(true_d),
    )


def _waypoints(true_distance: float) -> dict[str, tuple[float, float]]:
    """Geometry realizing a distance: the cup sits at the origin, the
    candidate grip waypoint at that distance, the start far away."""
    return {"wp0": (-50.0, 0.0), "wp1": (0.0, 0.0), "wp2": (true_distance, 0.0)}


# ── Execution ─────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class ExecutionFeedback:
    outcome: str
    observed: AttributeVector
    true_cause: frozenset[int]


def execute_plan(plan, scenario: Scenario, envelope: GroundTruthEnvelope, episode: int = 0) -> ExecutionFeedback:
    """Execute a plan against ground truth; report sensed values only.

    The outcome is decided by the true distance/angle at the grip step; the
    observed vector carries the sensed values the robot planned with.
    """
    grip = None
    for step in plan.steps:
        if step.schema == "grip":
            grip = step
            break
    if grip is None:
        observed = AttributeVector((scenario.sensed_distance, scenario.sensed_angle), SUCCESS, episode)
        return ExecutionFeedback(SUCCESS, observed, frozenset())

    wp_robot, wp_cup = grip.args[2], grip.args[3]
    if wp_robot == scenario.grip_waypoint and wp_cup == scenario.cup_waypoint:
        true_d = scenario.true_distance
    else:
        ax, ay = scenario.waypoints[wp_robot]
        bx, by = scenario.waypoints[wp_cup]
        true_d = math.hypot(ax - bx, ay - by)
    true_a = scenario.true_angle

    cause = envelope.judge(true_d, true_a)
    outcome = SUCCESS if not cause else FAILURE
    observed = AttributeVector((scenario.sensed_distance, scenario.sensed_angle), outcome, episode)
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
                    s.robot_start,
                    s.cup_waypoint,
                    s.grip_waypoint,
                ]
            )


def load_scenarios(path: str) -> list[Scenario]:
    out: list[Scenario] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != _SCENARIO_FIELDS:
            raise WorldError(f"{path}: unexpected header {reader.fieldnames}")
        for lineno, row in enumerate(reader, start=2):
            try:
                true_d = float(row["true_distance"])
                scen = Scenario(
                    kind=row["kind"],
                    episode=int(row["scenario_id"]),
                    seed=int(row["seed"]),
                    rng_stream=row["rng_stream"],
                    true_distance=true_d,
                    true_angle=float(row["true_angle"]),
                    sensed_distance=float(row["sensed_distance"]),
                    sensed_angle=float(row["sensed_angle"]),
                    waypoints=_waypoints(true_d),
                    robot_start=row["robot_start"],
                    cup_waypoint=row["cup_waypoint"],
                    grip_waypoint=row["grip_waypoint"],
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise WorldError(f"{path}: bad row at line {lineno}: {exc}") from None
            out.append(scen)
    return out
