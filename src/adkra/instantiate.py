"""Build a ground planning problem from the KB and one drawn scenario."""

from __future__ import annotations

from . import defaults
from .kb import KnowledgeBase, split_key
from .pddl import Atom, DomainModel, ProblemInstance, parse_domain
from .world import Scenario, pair_distance

_KB_FLUENTS = (defaults.MINDIS, defaults.MAXDIS, defaults.MINHWANGLE, defaults.MAXHWANGLE)


def default_domain() -> DomainModel:
    return parse_domain(defaults.DOMAIN_TEXT)


def instantiate_problem(kb: KnowledgeBase, scenario: Scenario, domain: DomainModel) -> ProblemInstance:
    """Merge current KB bound values with scenario-sensed readings into a problem.

    The KB contributes its effective (temporary or confirmed) bound fluents;
    the scenario contributes the sensed distance for the grip pair, sensed
    head-yaw angle, and map distances for every other waypoint pair.

    The result is not validated: its objects, facts, fluent keys and goal
    are fixed by this code, and only fluent values vary. The tests parse the
    printed problem of every experiment kind, which runs the validation.
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
            Atom("atrobby", (defaults.ROBOT, defaults.ROBOT_START)),
            Atom("pos", (defaults.OBJECT, defaults.CUP_WAYPOINT)),
            Atom("free", (defaults.ROBOT, defaults.GRIPPER)),
        }
    )

    init_fluents = {
        Atom("dist_to", (a, b)): pair_distance(scenario, a, b)[1] for a in wpnames for b in wpnames
    }
    init_fluents[Atom("hwangle", (defaults.ROBOT,))] = scenario.sensed_angle
    for key in _KB_FLUENTS:
        fname, fargs = split_key(key)
        init_fluents[Atom(fname, fargs)] = kb.get_effective_value(key)

    return ProblemInstance(
        name=f"grip-e{scenario.episode}",
        domain_name=domain.name,
        objects=objects,
        init_facts=init_facts,
        init_fluents=init_fluents,
        goal=(Atom("carry", (defaults.ROBOT, defaults.OBJECT, defaults.GRIPPER)),),
    )
