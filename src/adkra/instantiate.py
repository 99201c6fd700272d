"""Build a ground planning problem from the KB and one drawn scenario."""

from __future__ import annotations

import math

from . import defaults
from .kb import KnowledgeBase, split_key
from .pddl import Atom, DomainModel, ProblemInstance, parse_domain, validate_problem
from .world import Scenario

_KB_FLUENTS = (defaults.MINDIS, defaults.MAXDIS, defaults.MINHWANGLE, defaults.MAXHWANGLE)


def default_domain() -> DomainModel:
    return parse_domain(defaults.DOMAIN_TEXT)


def instantiate_problem(kb: KnowledgeBase, scenario: Scenario, domain: DomainModel) -> ProblemInstance:
    """Merge current KB bound values with scenario-sensed readings into a problem.

    The KB contributes its effective (temporary or confirmed) bound fluents;
    the scenario contributes the sensed distance for the grip pair, sensed
    head-yaw angle, and map distances for every other waypoint pair.
    """
    wpnames = sorted(scenario.waypoints)
    objects = tuple(
        [(wp, "waypoint") for wp in wpnames]
        + [
            (defaults.ROBOT, "robot"),
            (defaults.OBJECT, "thing"),
            (defaults.GRIPPER, "gripper"),
        ]
    )

    init_facts = frozenset(
        {
            Atom("atrobby", (defaults.ROBOT, scenario.robot_start)),
            Atom("pos", (defaults.OBJECT, scenario.cup_waypoint)),
            Atom("free", (defaults.ROBOT, defaults.GRIPPER)),
        }
    )

    grip_pair = {
        (scenario.grip_waypoint, scenario.cup_waypoint),
        (scenario.cup_waypoint, scenario.grip_waypoint),
    }
    init_fluents: dict[Atom, float] = {}
    for a in wpnames:
        for b in wpnames:
            if (a, b) in grip_pair:
                d = scenario.sensed_distance
            else:
                ax, ay = scenario.waypoints[a]
                bx, by = scenario.waypoints[b]
                d = math.hypot(ax - bx, ay - by)
            init_fluents[Atom("dist_to", (a, b))] = d
    init_fluents[Atom("hwangle", (defaults.ROBOT,))] = scenario.sensed_angle
    for key in _KB_FLUENTS:
        fname, fargs = split_key(key)
        init_fluents[Atom(fname, fargs)] = kb.get_effective_value(key)

    problem = ProblemInstance(
        name=f"grip-e{scenario.episode}",
        domain_name=domain.name,
        objects=objects,
        init_facts=init_facts,
        init_fluents=init_fluents,
        goal=(Atom("carry", (defaults.ROBOT, defaults.OBJECT, defaults.GRIPPER)),),
    )
    validate_problem(domain, problem)
    return problem
