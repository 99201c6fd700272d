import dataclasses
import operator
import pathlib
import random
from collections import deque

import pytest

from adkra.pddl import (
    Atom,
    Effect,
    EvaluationError,
    ProblemInstance,
    apply_effect,
    ground_atom,
    iter_bindings,
    parse_domain,
    parse_problem,
)
from adkra.planner import (
    DEFAULT_MAX_DEPTH,
    GroundAction,
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
    # Of 25, only the five ending at the cup's waypoint wp1 can hold (pos is
    # static); of those, wp4 (20 cm) and wp2 (24 cm) lie inside (mindis, maxdis).
    assert [ga.args[2:4] for ga in grips] == [("wp2", "wp1"), ("wp4", "wp1")]
    names = [ga.name for ga in actions]
    assert names == sorted(names)


MARK_DOMAIN = parse_domain(
    """
    (define (domain marks)
      (:requirements :strips :typing)
      (:types item)
      (:predicates (p ?x - item) (q ?x - item))
      (:action mark
        :parameters (?x - item)
        :precondition (and (p ?x))
        :effect (and (q ?x) (not (q ?x)))))
    """
)


def test_equal_add_and_delete_lists_still_add_what_the_precondition_lacks():
    # delete-then-add makes (q a) true; only an add the precondition already
    # requires would leave every state unchanged
    problem = parse_problem(
        "(define (problem mark-a) (:domain marks) (:objects a - item) (:init (p a)) (:goal (q a)))",
        MARK_DOMAIN,
    )
    plan = find_plan(MARK_DOMAIN, problem)
    assert _names(plan) == ["(mark a)"]
    assert validate_plan(MARK_DOMAIN, problem, plan)


def test_numeric_gates_pre_evaluated(domain, faulty):
    names = {ga.name for ga in ground_actions(domain, faulty)}
    assert "(grip nao redcup wp2 wp1 grp)" in names
    assert "(grip nao redcup wp0 wp1 grp)" not in names  # 50 cm away
    assert "(grip nao redcup wp1 wp1 grp)" not in names  # closer than mindis


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
    assert ground_actions(GATE_DOMAIN, _gate_problem({"f": 23.0, "g": 23.0})) == []
    [below] = ground_actions(GATE_DOMAIN, _gate_problem({"f": 22.9, "g": 23.0}))
    assert below.applicable(frozenset({Atom("p", ("a",))}))
    assert not below.applicable(frozenset())


def test_ground_actions_missing_fluent_is_an_error():
    with pytest.raises(EvaluationError, match=r"unresolvable fluent: \(f a\)"):
        ground_actions(GATE_DOMAIN, _gate_problem({"g": 1.0}))


_OPS = {"<": operator.lt, ">": operator.gt, "<=": operator.le, ">=": operator.ge}


def _reference_plan(domain, problem) -> list[str] | None:
    """Shortest plan's step names, or None: BFS over every grounding, gates checked at each expansion."""
    actions = []
    for schema in domain.actions:
        for binding in iter_bindings(schema.params, problem.objects):
            ground = [ground_atom(a, binding) for a in schema.precondition.atoms]
            gates = [
                (_OPS[c.op], ground_atom(c.lhs, binding), ground_atom(c.rhs, binding))
                for c in schema.precondition.comparisons
            ]
            effect = Effect(
                tuple(ground_atom(a, binding) for a in schema.effect.adds),
                tuple(ground_atom(a, binding) for a in schema.effect.dels),
            )
            name = "(" + " ".join([schema.name] + [binding[v] for v, _t in schema.params]) + ")"
            actions.append((name, ground, gates, effect))
    actions.sort(key=lambda a: a[0])
    goal = frozenset(problem.goal)
    if goal <= problem.init_facts:
        return []
    seen = {problem.init_facts}
    queue = deque([(problem.init_facts, [])])
    while queue:
        facts, path = queue.popleft()
        if len(path) >= DEFAULT_MAX_DEPTH:
            continue
        for name, ground, gates, effect in actions:
            if not all(a in facts for a in ground):
                continue
            if not all(op(problem.init_fluents[lhs], problem.init_fluents[rhs]) for op, lhs, rhs in gates):
                continue
            nxt = apply_effect(facts, effect)
            if nxt in seen:
                continue
            if goal <= nxt:
                return path + [name]
            seen.add(nxt)
            queue.append((nxt, path + [name]))
    return None


def test_pruned_grounding_plans_like_a_search_that_checks_every_gate(domain, faulty):
    rng = random.Random(7)
    outcomes = {"plan": 0, "none": 0}
    for _ in range(300):
        # Whole numbers in overlapping ranges, so values often sit exactly on a bound.
        fluents = {
            term: float(rng.randint(0, 40) if term.name == "dist_to" and term.args[0] != term.args[1] else value)
            for term, value in faulty.init_fluents.items()
        }
        fluents[Atom("maxdis", ("grp",))] = float(rng.randint(15, 35))
        fluents[Atom("mindis", ("grp",))] = float(rng.randint(5, 20))
        fluents[Atom("hwangle", ("nao",))] = float(rng.randint(-20, 5))
        fluents[Atom("maxhwangle", ("nao",))] = float(rng.randint(-5, 10))
        fluents[Atom("minhwangle", ("nao",))] = float(rng.randint(-25, -5))
        problem = dataclasses.replace(faulty, init_fluents=fluents)
        want = _reference_plan(domain, problem)
        if want is None:
            outcomes["none"] += 1
            with pytest.raises(NoPlanFound):
                find_plan(domain, problem)
        else:
            outcomes["plan"] += 1
            plan = find_plan(domain, problem)
            assert _names(plan) == want
            assert validate_plan(domain, problem, plan)
    assert min(outcomes.values()) > 100, outcomes


ROADS_DOMAIN = parse_domain(
    """
    (define (domain roads)
      (:requirements :strips :typing :fluents)
      (:types place truck)
      (:predicates (at ?t - truck ?p - place) (road ?a - place ?b - place)
                   (depot ?p - place) (stocked ?p - place))
      (:functions (length ?a - place ?b - place) (range ?t - truck))
      (:action drive
        :parameters (?t - truck ?a - place ?b - place)
        :precondition (and (at ?t ?a) (road ?a ?b) (< (length ?a ?b) (range ?t)))
        :effect (and (at ?t ?b) (not (at ?t ?a))))
      (:action stock
        :parameters (?t - truck ?p - place)
        :precondition (and (at ?t ?p) (depot ?p))
        :effect (and (stocked ?p))))
    """
)


def test_static_prune_plans_like_a_search_that_grounds_every_binding():
    # road and depot are static: no action adds or deletes them. Random maps
    # (self-roads included, some without any depot) with gates often on the
    # bound, against the reference that keeps every binding.
    rng = random.Random(11)
    outcomes = {"plan": 0, "none": 0}
    for _ in range(300):
        places = [f"p{i}" for i in range(rng.randint(2, 5))]
        trucks = [f"t{i}" for i in range(rng.randint(1, 2))]
        objects = [(p, "place") for p in places] + [(t, "truck") for t in trucks]
        rng.shuffle(objects)
        facts = {Atom("at", (t, rng.choice(places))) for t in trucks}
        facts |= {Atom("road", (a, b)) for a in places for b in places if rng.random() < 0.5}
        facts |= {Atom("depot", (p,)) for p in places if rng.random() < 0.6}
        fluents = {Atom("length", (a, b)): float(rng.randint(0, 6)) for a in places for b in places}
        fluents |= {Atom("range", (t,)): float(rng.randint(0, 8)) for t in trucks}
        problem = ProblemInstance(
            "r", "roads", tuple(objects), frozenset(facts), fluents, (Atom("stocked", (rng.choice(places),)),)
        )
        want = _reference_plan(ROADS_DOMAIN, problem)
        if want is None:
            outcomes["none"] += 1
            with pytest.raises(NoPlanFound):
                find_plan(ROADS_DOMAIN, problem)
        else:
            outcomes["plan"] += 1
            plan = find_plan(ROADS_DOMAIN, problem)
            assert _names(plan) == want
            assert validate_plan(ROADS_DOMAIN, problem, plan)
    assert min(outcomes.values()) > 100, outcomes


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
    assert result.diagnostic == (
        "step 2 (grip nao redcup wp2 wp1 grp): comparison (< (dist_to wp2 wp1) (maxdis grp)) failed"
    )


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


def _brute_force_grounding(domain, problem):
    """Every binding, ground in full, filtered by ground_actions' three rules in their order, sorted by name."""
    changed = {a.name for schema in domain.actions for a in schema.effect.adds + schema.effect.dels}
    out = []
    for schema in domain.actions:
        for binding in iter_bindings(schema.params, problem.objects):
            atoms = tuple(ground_atom(a, binding) for a in schema.precondition.atoms)
            if any(a.name not in changed and a not in problem.init_facts for a in atoms):
                continue
            failed = False
            for c in schema.precondition.comparisons:
                lhs, rhs = ground_atom(c.lhs, binding), ground_atom(c.rhs, binding)
                for term in (lhs, rhs):
                    if term not in problem.init_fluents:
                        raise EvaluationError(f"unresolvable fluent: {term.render()}")
                if not _OPS[c.op](problem.init_fluents[lhs], problem.init_fluents[rhs]):
                    failed = True
                    break
            if failed:
                continue
            adds = tuple(ground_atom(a, binding) for a in schema.effect.adds)
            dels = tuple(ground_atom(a, binding) for a in schema.effect.dels)
            if set(dels) <= set(adds) <= set(atoms):
                continue
            args = tuple(binding[v] for v, _t in schema.params)
            out.append(GroundAction(schema.name, args, atoms, Effect(adds, dels)))
    return sorted(out, key=lambda ga: ga.name)


def _grounding_or_error(ground, domain, problem):
    try:
        return ground(domain, problem)
    except EvaluationError as err:
        return str(err)


def _random_roads_problem(rng: random.Random) -> ProblemInstance:
    places = [f"p{i}" for i in range(rng.randint(2, 5))]
    trucks = [f"t{i}" for i in range(rng.randint(1, 3))]
    objects = [(p, "place") for p in places] + [(t, "truck") for t in trucks]
    rng.shuffle(objects)
    facts = {Atom("at", (t, rng.choice(places))) for t in trucks}
    facts |= {Atom("road", (a, b)) for a in places for b in places if rng.random() < 0.5}
    facts |= {Atom("depot", (p,)) for p in places if rng.random() < 0.6}
    fluents = {Atom("length", (a, b)): float(rng.randint(0, 6)) for a in places for b in places}
    fluents |= {Atom("range", (t,)): float(rng.randint(0, 8)) for t in trucks}
    return ProblemInstance(
        "r", "roads", tuple(objects), frozenset(facts), fluents, (Atom("stocked", (rng.choice(places),)),)
    )


def test_grounding_matches_brute_force_on_random_roads():
    rng = random.Random(23)
    sizes = []
    for _ in range(200):
        problem = _random_roads_problem(rng)
        want = _brute_force_grounding(ROADS_DOMAIN, problem)
        assert ground_actions(ROADS_DOMAIN, problem) == want
        sizes.append(len(want))
    assert min(sizes) == 0 and max(sizes) > 10


# `hub` is a constant in two atoms and a function term; (link ?a ?a) repeats
# a variable in a static atom; link and budget are static or fixed.
HUB_DOMAIN = parse_domain(
    """
    (define (domain hubs)
      (:requirements :strips :typing :fluents)
      (:types node)
      (:predicates (at ?n - node) (link ?a - node ?b - node) (seen ?n - node))
      (:functions (cost ?a - node ?b - node) (budget ?n - node))
      (:action hop
        :parameters (?a - node ?b - node)
        :precondition (and (at ?a) (link ?a ?b) (link ?b hub) (< (cost ?a ?b) (budget hub)))
        :effect (and (at ?b) (seen ?b) (not (at ?a))))
      (:action rest
        :parameters (?a - node)
        :precondition (and (at ?a) (link ?a ?a))
        :effect (and (seen hub) (at ?a) (not (at ?a)))))
    """
)


def test_grounding_matches_brute_force_with_constants_and_repeated_variables():
    # Some problems leave a fluent unassigned (built directly, not parsed):
    # both must then raise on the same first binding that reaches the gate.
    rng = random.Random(31)
    outcomes = {"actions": 0, "none": 0, "error": 0}
    for _ in range(300):
        nodes = ["hub"] + [f"n{i}" for i in range(rng.randint(1, 4))]
        objects = [(n, "node") for n in nodes]
        rng.shuffle(objects)
        facts = {Atom("at", (rng.choice(nodes),))}
        facts |= {Atom("link", (a, b)) for a in nodes for b in nodes if rng.random() < 0.4}
        fluents = {Atom("cost", (a, b)): float(rng.randint(0, 5)) for a in nodes for b in nodes}
        fluents[Atom("budget", ("hub",))] = float(rng.randint(0, 5))
        if rng.random() < 0.2:
            del fluents[rng.choice(sorted(fluents, key=lambda a: a.render()))]
        problem = ProblemInstance("h", "hubs", tuple(objects), frozenset(facts), fluents, (Atom("seen", ("hub",)),))
        want = _grounding_or_error(_brute_force_grounding, HUB_DOMAIN, problem)
        assert _grounding_or_error(ground_actions, HUB_DOMAIN, problem) == want
        outcomes["error" if isinstance(want, str) else "actions" if want else "none"] += 1
    assert min(outcomes.values()) > 10, outcomes


# roads plus two actions that no changed atom keys: `open` needs only a
# static atom and `ring` needs nothing, so both are candidates in every state.
FLEET_DOMAIN = parse_domain(
    """
    (define (domain fleet)
      (:requirements :strips :typing :fluents)
      (:types place truck)
      (:predicates (at ?t - truck ?p - place) (road ?a - place ?b - place)
                   (depot ?p - place) (stocked ?p - place) (open ?p - place) (alarm))
      (:functions (length ?a - place ?b - place) (range ?t - truck))
      (:action drive
        :parameters (?t - truck ?a - place ?b - place)
        :precondition (and (at ?t ?a) (road ?a ?b) (< (length ?a ?b) (range ?t)))
        :effect (and (at ?t ?b) (not (at ?t ?a))))
      (:action stock
        :parameters (?t - truck ?p - place)
        :precondition (and (at ?t ?p) (depot ?p) (open ?p))
        :effect (and (stocked ?p)))
      (:action open
        :parameters (?p - place)
        :precondition (and (depot ?p))
        :effect (and (open ?p)))
      (:action ring
        :parameters ()
        :precondition (and)
        :effect (and (alarm))))
    """
)


def test_indexed_search_plans_like_the_reference_with_several_trucks():
    # Two or three trucks, so a state holds several `at` atoms that key
    # actions; goals need driving, opening a depot, and sometimes the alarm.
    rng = random.Random(17)
    outcomes = {"plan": 0, "none": 0}
    for _ in range(120):
        places = [f"p{i}" for i in range(rng.randint(2, 4))]
        trucks = [f"t{i}" for i in range(rng.randint(2, 3))]
        objects = [(p, "place") for p in places] + [(t, "truck") for t in trucks]
        rng.shuffle(objects)
        facts = {Atom("at", (t, rng.choice(places))) for t in trucks}
        facts |= {Atom("road", (a, b)) for a in places for b in places if a != b and rng.random() < 0.5}
        depots = [p for p in places if rng.random() < 0.5]
        facts |= {Atom("depot", (p,)) for p in depots}
        fluents = {Atom("length", (a, b)): float(rng.randint(0, 6)) for a in places for b in places}
        fluents |= {Atom("range", (t,)): float(rng.randint(2, 8)) for t in trucks}
        goal = [Atom("stocked", (rng.choice(places),))] + [Atom("alarm", ())] * (rng.random() < 0.3)
        problem = ProblemInstance("f", "fleet", tuple(objects), frozenset(facts), fluents, tuple(goal))
        want = _reference_plan(FLEET_DOMAIN, problem)
        if want is None:
            outcomes["none"] += 1
            with pytest.raises(NoPlanFound):
                find_plan(FLEET_DOMAIN, problem)
        else:
            outcomes["plan"] += 1
            plan = find_plan(FLEET_DOMAIN, problem)
            assert _names(plan) == want
            assert validate_plan(FLEET_DOMAIN, problem, plan)
    assert min(outcomes.values()) > 30, outcomes
