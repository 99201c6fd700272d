import numpy as np
import pytest

from adkra import defaults
from adkra.instantiate import default_domain, instantiate_problem
from adkra.kb import KnowledgeBase
from adkra.pddl import Atom, parse_problem, print_problem
from adkra.planner import find_plan, validate_plan
from adkra.world import GroundTruthEnvelope, NoiseModel, execute_plan, generate_scenario


@pytest.fixture(scope="module")
def domain():
    return default_domain()


@pytest.fixture
def kb():
    return KnowledgeBase(dict(defaults.INITIAL_KB))


def _scenario(kb, seed=0):
    return generate_scenario("distance", np.random.default_rng(seed), kb, episode=12, seed=seed)


def test_problem_shape(domain, kb):
    scen = _scenario(kb)
    problem = instantiate_problem(kb, scen, domain)
    assert problem.name == "grip-e12"
    assert problem.goal == (Atom("carry", ("nao", "redcup", "grp")),)
    assert Atom("atrobby", ("nao", "wp0")) in problem.init_facts
    assert Atom("pos", ("redcup", "wp1")) in problem.init_facts
    assert dict(problem.objects)["wp2"] == "waypoint"


def test_sensed_values_override_geometry(domain, kb):
    scen = _scenario(kb)
    scen.sensed_distance = scen.true_distance + 0.4
    problem = instantiate_problem(kb, scen, domain)
    fl = problem.init_fluents
    assert fl[Atom("dist_to", ("wp2", "wp1"))] == scen.sensed_distance
    assert fl[Atom("dist_to", ("wp1", "wp2"))] == scen.sensed_distance
    assert fl[Atom("dist_to", ("wp0", "wp1"))] == 50.0
    assert fl[Atom("dist_to", ("wp0", "wp0"))] == 0.0
    assert fl[Atom("hwangle", ("nao",))] == scen.sensed_angle


def test_kb_bounds_use_effective_values(domain, kb):
    kb.apply_temporary(defaults.MAXDIS, 21.0, stamp=3)
    problem = instantiate_problem(kb, _scenario(kb), domain)
    fl = problem.init_fluents
    assert fl[Atom("maxdis", ("grp",))] == 21.0
    assert fl[Atom("mindis", ("grp",))] == 15.0
    assert fl[Atom("minhwangle", ("nao",))] == -25.0
    assert fl[Atom("maxhwangle", ("nao",))] == 0.0


@pytest.mark.parametrize(
    "kind, bucketed, noise",
    [
        ("distance", False, NoiseModel()),
        ("angle", False, NoiseModel()),
        ("collective", False, NoiseModel()),
        ("group", False, NoiseModel()),
        ("collective", True, NoiseModel()),
        ("group", False, NoiseModel(sigma_distance=1.0, sigma_angle=2.0)),
    ],
    ids=["distance", "angle", "collective", "group", "collective-bucketed", "group-noisy"],
)
def test_problem_round_trips_through_printer(domain, kb, kind, bucketed, noise):
    # instantiate_problem does not validate what it builds; parse_problem
    # does, so this checks every shape the loop hands the planner.
    if bucketed:
        bucket = defaults.GRIP_SCHEMA.quantize(defaults.DISTANCE, 20.0)
        kb.apply_temporary(defaults.MAXHWANGLE, -8.0, stamp=1, condition=bucket)
    rng = np.random.default_rng(5)
    for episode in range(10):
        scen = generate_scenario(kind, rng, kb, noise=noise, episode=episode, seed=5)
        problem = instantiate_problem(kb, scen, domain)
        assert parse_problem(print_problem(problem), domain) == problem


def test_problem_plans_and_executes(domain, kb):
    scen = _scenario(kb, seed=3)
    problem = instantiate_problem(kb, scen, domain)
    plan = find_plan(domain, problem)
    assert validate_plan(domain, problem, plan)
    fb = execute_plan(plan, scen, GroundTruthEnvelope())
    assert fb.observed.values == (scen.sensed_distance, scen.sensed_angle)
