"""Built-in gripping case study: domain text, attribute schema, experiment defaults."""

from __future__ import annotations

from .kb import AttributeSchema, AttributeSpec, ground_key

# Faulty-by-configuration gripping domain for a humanoid with one usable
# gripper: goto moves between waypoints, grip succeeds only inside the
# distance and head-yaw-angle windows stored as numeric fluents.
DOMAIN_TEXT = """\
(define (domain nao)
  (:requirements :strips :typing :fluents)
  (:types waypoint thing robot gripper)
  (:predicates
    (atrobby ?r - robot ?x - waypoint)
    (pos ?o - thing ?x - waypoint)
    (free ?r - robot ?g - gripper)
    (carry ?r - robot ?o - thing ?g - gripper))
  (:functions
    (dist_to ?x1 - waypoint ?x2 - waypoint)
    (maxdis ?g - gripper)
    (mindis ?g - gripper)
    (hwangle ?r - robot)
    (maxhwangle ?r - robot)
    (minhwangle ?r - robot))
  (:action goto
    :parameters (?r - robot ?from - waypoint ?to - waypoint)
    :precondition (and
      (atrobby ?r ?from))
    :effect (and
      (atrobby ?r ?to)
      (not (atrobby ?r ?from))))
  (:action grip
    :parameters (?r - robot ?obj - thing ?waypoint1 - waypoint ?waypoint2 - waypoint ?g - gripper)
    :precondition (and
      (atrobby ?r ?waypoint1)
      (pos ?obj ?waypoint2)
      (free ?r ?g)
      (> (dist_to ?waypoint1 ?waypoint2) (mindis ?g))
      (< (dist_to ?waypoint1 ?waypoint2) (maxdis ?g))
      (< (hwangle ?r) (maxhwangle ?r))
      (> (hwangle ?r) (minhwangle ?r)))
    :effect (and
      (carry ?r ?obj ?g)
      (not (free ?r ?g)))))
"""

ROBOT = "nao"
GRIPPER = "grp"
OBJECT = "redcup"

MAXDIS = ground_key("maxdis", GRIPPER)
MINDIS = ground_key("mindis", GRIPPER)
MAXHWANGLE = ground_key("maxhwangle", ROBOT)
MINHWANGLE = ground_key("minhwangle", ROBOT)

DISTANCE = 1
ANGLE = 2

GRIP_SCHEMA = AttributeSchema(
    (
        AttributeSpec(DISTANCE, "distance", 1.0, 1.0, MAXDIS, MINDIS),  # cm
        AttributeSpec(ANGLE, "angle", 1.0, 1.0, MAXHWANGLE, MINHWANGLE),  # deg
    )
)

# Engineered (correct) bound values; experiment faults overwrite these.
INITIAL_KB = {
    MINDIS: 15.0,
    MAXDIS: 23.0,
    MINHWANGLE: -25.0,
    MAXHWANGLE: 0.0,
}

EXPERIMENT_KINDS = ("distance", "angle", "collective", "group")

# Default fault injections per experiment kind (short name -> faulty value).
KIND_FAULTS: dict[str, dict[str, float]] = {
    "distance": {MAXDIS: 27.0},
    "angle": {MINHWANGLE: -29.0},
    "collective": {},
    "group": {MAXDIS: 25.0, MINHWANGLE: -27.0},
}

# Kinds whose schema makes the angle a slave of the distance (its bounds are
# bucketed by the quantized distance); in the others both are independent.
COUPLED_KINDS = ("collective", "group")

# True angle envelope anchors per kind. The single-fault experiments run a
# flat world where the full angle range works at any distance; the coupling
# experiments run the anchored world where the workable angle window narrows
# with distance.
FULL_ANCHORS = ((15.0, -25.0), (20.0, -12.0))
FLAT_ANCHORS = ((15.0, -25.0),)
KIND_ANCHORS: dict[str, tuple[tuple[float, float], ...]] = {
    "distance": FLAT_ANCHORS,
    "angle": FLAT_ANCHORS,
    "collective": FULL_ANCHORS,
    "group": FULL_ANCHORS,
}

# The world's true gripping window: a strict distance range (cm) and the range
# (deg) the angle floor is clamped to, whose top is also the true angle ceiling.
TRUE_DISTANCE_RANGE = (15.0, 23.0)
TRUE_ANGLE_CLIP = (-25.0, 0.0)

# Scenario waypoints: the robot starts 50 cm from the cup, the cup sits at the
# origin, and the robot grips from the third, at the drawn distance.
ROBOT_START = "wp0"
CUP_WAYPOINT = "wp1"
GRIP_WAYPOINT = "wp2"

# Scenario shape per kind: which attribute varies and where the other is held.
# The held angle for the distance kind sits safely inside every gate (exactly
# 0 would fail the strict upper comparison and no plan would exist).
DISTANCE_KIND_FIXED_ANGLE = -10.0
ANGLE_KIND_FIXED_DISTANCE = 18.0
GROUP_KIND_FIXED_ANGLE = -20.0

# Short CLI fault names for the owned fluents.
FAULT_ALIASES = {
    "maxdis": MAXDIS,
    "mindis": MINDIS,
    "maxhwangle": MAXHWANGLE,
    "minhwangle": MINHWANGLE,
}
