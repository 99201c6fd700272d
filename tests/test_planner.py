import pathlib
import random
from collections import deque

import pytest

from adkra.pddl import Atom, EvaluationError, ProblemInstance, parse_domain, parse_problem
from adkra.planner import (
    NoPlanFound,
    Plan,
    find_plan,
    format_plan,
    ground_actions,
    validate_plan,
)

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def domain():
    return parse_domain((DATA / "nao.pddl").read_text())


@pytest.fixture(scope="module")
def faulty(domain):
    return parse_problem((DATA / "grip_faulty.pddl").read_text(), domain)


@pytest.fixture(scope="module")
def refined(domain):
    return parse_problem((DATA / "grip_refined.pddl").read_text(), domain)


def _names(plan: Plan) -> list[str]:
    return [ga.name for ga in plan.steps]


def test_grounding_prunes_self_loops_and_sorts(domain, faulty):
    actions = ground_actions(domain, faulty)
    gotos = [ga for ga in actions if ga.schema == "goto"]
    grips = [ga for ga in actions if ga.schema == "grip"]
    assert len(gotos) == 20  # 5x5 minus the five stay-put moves
    assert len(grips) == 25
    names = [ga.name for ga in actions]
    assert names == sorted(names)


def test_numeric_gates_pre_evaluated(domain, faulty):
    actions = {ga.name: ga for ga in ground_actions(domain, faulty)}
    assert actions["(grip nao redcup wp2 wp1 grp)"].numeric_ok
    assert not actions["(grip nao redcup wp0 wp1 grp)"].numeric_ok  # 50 cm away
    assert not actions["(grip nao redcup wp1 wp1 grp)"].numeric_ok  # closer than mindis


GATE_DOMAIN = parse_domain(
    """
    (define (domain gate)
      (:requirements :strips :typing :fluents)
      (:types obj)
      (:predicates (p ?x - obj) (q ?x - obj))
      (:functions (f ?x - obj) (g ?x - obj))
      (:action act
        :parameters (?x - obj)
        :precondition (and (p ?x) (< (f ?x) (g ?x)))
        :effect (and (q ?x))))
    """
)


def _gate_problem(fluents: dict[str, float]) -> ProblemInstance:
    # Built directly, not parsed: parse_problem would reject an unassigned fluent.
    return ProblemInstance(
        name="g",
        domain_name="gate",
        objects=(("a", "obj"),),
        init_facts=frozenset({Atom("p", ("a",))}),
        init_fluents={Atom(name, ("a",)): v for name, v in fluents.items()},
        goal=(Atom("q", ("a",)),),
    )


def test_ground_actions_gate_is_strict_at_the_bound():
    [at_bound] = ground_actions(GATE_DOMAIN, _gate_problem({"f": 23.0, "g": 23.0}))
    [below] = ground_actions(GATE_DOMAIN, _gate_problem({"f": 22.9, "g": 23.0}))
    assert not at_bound.numeric_ok
    assert below.numeric_ok
    facts = frozenset({Atom("p", ("a",))})
    assert below.applicable(facts)
    assert not below.applicable(frozenset())
    assert not at_bound.applicable(facts)


def test_ground_actions_missing_fluent_is_an_error():
    with pytest.raises(EvaluationError, match=r"unresolvable fluent: \(f a\)"):
        ground_actions(GATE_DOMAIN, _gate_problem({"g": 1.0}))


def test_plan_on_overstated_reach_uses_far_waypoint(domain, faulty):
    plan = find_plan(domain, faulty)
    assert _names(plan) == ["(goto nao wp0 wp2)", "(grip nao redcup wp2 wp1 grp)"]
    assert validate_plan(domain, faulty, plan)


def test_plan_on_corrected_reach_moves_closer(domain, refined):
    plan = find_plan(domain, refined)
    assert _names(plan) == ["(goto nao wp0 wp4)", "(grip nao redcup wp4 wp1 grp)"]
    assert validate_plan(domain, refined, plan)


def test_replaying_stale_plan_reports_failing_comparison(domain, faulty, refined):
    stale = find_plan(domain, faulty)
    result = validate_plan(domain, refined, stale)
    assert not result.ok
    assert result.diagnostic.startswith("step 2 (grip nao redcup wp2 wp1 grp)")
    assert "maxdis" in result.diagnostic


def test_goal_already_satisfied_gives_empty_plan(domain, faulty):
    done = type(faulty)(
        name=faulty.name,
        domain_name=faulty.domain_name,
        objects=faulty.objects,
        init_facts=faulty.init_facts | frozenset(faulty.goal),
        init_fluents=faulty.init_fluents,
        goal=faulty.goal,
    )
    plan = find_plan(domain, done)
    assert len(plan) == 0
    assert validate_plan(domain, done, plan)


def test_depth_bound_raises(domain, faulty):
    with pytest.raises(NoPlanFound):
        find_plan(domain, faulty, max_depth=1)


def test_validation_reports_missing_precondition(domain, faulty):
    plan = find_plan(domain, faulty)
    shuffled = Plan(steps=plan.steps[::-1])
    result = validate_plan(domain, faulty, shuffled)
    assert not result.ok
    assert "missing" in result.diagnostic


def test_validation_reports_unmet_goal(domain, faulty):
    result = validate_plan(domain, faulty, Plan(()))
    assert not result.ok
    assert result.diagnostic == "goal not satisfied: (carry nao redcup grp)"


def test_find_plan_is_deterministic(domain, faulty):
    assert _names(find_plan(domain, faulty)) == _names(find_plan(domain, faulty))


def test_format_plan(domain, faulty):
    plan = find_plan(domain, faulty)
    assert format_plan(plan) == (
        "; Cost : 2\n"
        "0.000: (goto nao wp0 wp2) [0.001]\n"
        "0.001: (grip nao redcup wp2 wp1 grp) [0.001]\n"
    )


WALK_DOMAIN = parse_domain(
    """
    (define (domain walk)
      (:requirements :strips :typing)
      (:types spot)
      (:predicates (at ?s - spot) (linked ?a - spot ?b - spot))
      (:action move
        :parameters (?a - spot ?b - spot)
        :precondition (and (at ?a) (linked ?a ?b))
        :effect (and (at ?b) (not (at ?a)))))
    """
)


def _walk_problem(edges: set[tuple[int, int]], n: int) -> str:
    spots = " ".join(f"s{i}" for i in range(n))
    links = "\n".join(f"    (linked s{a} s{b})" for a, b in sorted(edges))
    return (
        f"(define (problem maze) (:domain walk)\n"
        f"  (:objects {spots} - spot)\n"
        f"  (:init (at s0)\n{links})\n"
        f"  (:goal (at s{n - 1})))"
    )


def _bfs_distance(edges: set[tuple[int, int]], n: int) -> int | None:
    dist = {0: 0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for a, b in edges:
            if a == u and b not in dist:
                dist[b] = dist[u] + 1
                queue.append(b)
    return dist.get(n - 1)


def test_plan_length_matches_graph_shortest_path():
    rng = random.Random(99)
    n = 6
    for _ in range(20):
        edges = {
            (a, b)
            for a in range(n)
            for b in range(n)
            if a != b and rng.random() < 0.3
        }
        problem = parse_problem(_walk_problem(edges, n), WALK_DOMAIN)
        expected = _bfs_distance(edges, n)
        if expected is None:
            with pytest.raises(NoPlanFound):
                find_plan(WALK_DOMAIN, problem)
        else:
            plan = find_plan(WALK_DOMAIN, problem)
            assert len(plan) == expected
            assert validate_plan(WALK_DOMAIN, problem, plan)
