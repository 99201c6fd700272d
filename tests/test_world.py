import math
from types import SimpleNamespace

import numpy as np
import pytest

from adkra import defaults
from adkra.experience import FAILURE, SUCCESS
from adkra.kb import KnowledgeBase
from adkra.world import (
    GroundTruthEnvelope,
    Scenario,
    WorldError,
    execute_plan,
    generate_scenario,
    load_scenarios,
    save_scenarios,
    sense,
)

DIST = defaults.DISTANCE
ANG = defaults.ANGLE


@pytest.fixture
def envelope():
    return GroundTruthEnvelope()


@pytest.fixture
def kb():
    return KnowledgeBase(dict(defaults.INITIAL_KB))


def test_angle_bound_interpolates_between_anchors(envelope):
    assert envelope.angle_bound(15.0) == -25.0
    assert envelope.angle_bound(20.0) == -12.0
    assert envelope.angle_bound(18.0) == pytest.approx(-17.2)
    assert envelope.angle_bound(23.0) == pytest.approx(-4.2)


def test_angle_bound_quantizes_its_input(envelope):
    assert envelope.angle_bound(17.6) == envelope.angle_bound(18.0)
    assert envelope.angle_bound(18.4) == envelope.angle_bound(18.0)


def test_angle_bound_extrapolates_then_clamps(envelope):
    assert envelope.angle_bound(30.0) == 0.0
    assert envelope.angle_bound(10.0) == -25.0


def test_angle_bound_is_monotone(envelope):
    bounds = [envelope.angle_bound(d) for d in np.arange(15.0, 23.01, 0.5)]
    assert all(a <= b for a, b in zip(bounds, bounds[1:]))


def test_flat_envelope():
    flat = GroundTruthEnvelope(angle_anchors=defaults.FLAT_ANCHORS)
    assert {flat.angle_bound(d) for d in (15.0, 18.0, 23.0)} == {-25.0}


def test_judge_distance_window_is_strict(envelope):
    assert envelope.judge(23.0, -10.0) == {DIST}
    assert envelope.judge(15.0, -10.0) == {DIST}
    assert envelope.judge(24.0, -30.0) == {DIST}  # angle undefined out of range
    assert envelope.judge(22.9, -3.0) == frozenset()  # floor at d=23 is -4.2


def test_judge_angle_floor(envelope):
    assert envelope.judge(18.0, -10.0) == frozenset()
    assert envelope.judge(20.0, -18.0) == {ANG}
    assert envelope.judge(18.0, -17.2) == {ANG}  # exactly at the floor still fails
    assert envelope.judge(18.0, 0.0) == frozenset()
    assert envelope.judge(18.0, 1.0) == {ANG}


def test_sense_noise():
    rng = np.random.default_rng(3)
    assert sense(18.0, 0.0, rng) == 18.0
    noisy = sense(18.0, 0.5, np.random.default_rng(3))
    again = sense(18.0, 0.5, np.random.default_rng(3))
    assert noisy == again and noisy != 18.0


def test_generate_scenario_is_deterministic(kb):
    a = generate_scenario("distance", np.random.default_rng(5), kb, episode=3, seed=5)
    b = generate_scenario("distance", np.random.default_rng(5), kb, episode=3, seed=5)
    assert (a.true_distance, a.true_angle, a.sensed_distance, a.sensed_angle) == (
        b.true_distance,
        b.true_angle,
        b.sensed_distance,
        b.sensed_angle,
    )


def test_generate_scenario_kind_shapes(kb):
    rng = np.random.default_rng(0)
    for _ in range(20):
        s = generate_scenario("distance", rng, kb)
        assert s.true_angle == defaults.DISTANCE_KIND_FIXED_ANGLE
        assert 15.0 <= s.true_distance <= 23.0
        s = generate_scenario("angle", rng, kb)
        assert s.true_distance == defaults.ANGLE_KIND_FIXED_DISTANCE
        assert -25.0 <= s.true_angle <= 0.0
        s = generate_scenario("group", rng, kb)
        assert s.true_angle == defaults.GROUP_KIND_FIXED_ANGLE
    with pytest.raises(WorldError, match="unknown experiment kind"):
        generate_scenario("sideways", rng, kb)


def test_generate_scenario_draws_from_effective_range(kb):
    kb.load_initial(defaults.MAXDIS, 27.0)
    rng = np.random.default_rng(1)
    draws = [generate_scenario("distance", rng, kb).true_distance for _ in range(200)]
    assert max(draws) > 23.0
    assert all(15.0 <= d <= 27.0 for d in draws)


def test_generate_scenario_collective_uses_bucket_floor(kb):
    kb.load_initial(defaults.MINDIS, 20.0)
    kb.load_initial(defaults.MAXDIS, 20.0)  # pin the distance draw to 20
    rng = np.random.default_rng(2)
    unrestricted = [generate_scenario("collective", rng, kb).true_angle for _ in range(50)]
    assert min(unrestricted) < -17.0

    kb.apply_temporary(defaults.MAXHWANGLE, -17.0, stamp=1, condition=20.0)
    restricted = [generate_scenario("collective", rng, kb).true_angle for _ in range(50)]
    assert all(-17.0 <= a <= 0.0 for a in restricted)


def test_scenario_geometry(kb):
    s = generate_scenario("distance", np.random.default_rng(4), kb)
    assert s.waypoints["wp1"] == (0.0, 0.0)
    assert s.waypoints["wp0"] == (-50.0, 0.0)
    assert s.waypoints["wp2"] == (s.true_distance, 0.0)
    assert s.robot_start == "wp0" and s.cup_waypoint == "wp1" and s.grip_waypoint == "wp2"


def _scenario(true_d, true_a, sensed_d=None, sensed_a=None):
    return Scenario(
        kind="distance",
        episode=0,
        seed=0,
        rng_stream="phase1",
        true_distance=true_d,
        true_angle=true_a,
        sensed_distance=true_d if sensed_d is None else sensed_d,
        sensed_angle=true_a if sensed_a is None else sensed_a,
        waypoints={"wp0": (-50.0, 0.0), "wp1": (0.0, 0.0), "wp2": (true_d, 0.0)},
    )


def _plan(*steps):
    return SimpleNamespace(steps=steps)


def _grip(wp_robot="wp2", wp_cup="wp1"):
    return SimpleNamespace(schema="grip", args=("nao", "redcup", wp_robot, wp_cup, "grp"))


def test_execute_plan_success(envelope):
    fb = execute_plan(_plan(_grip()), _scenario(18.0, -10.0), envelope, episode=7)
    assert fb.outcome == SUCCESS
    assert fb.true_cause == frozenset()
    assert fb.observed.values == (18.0, -10.0)
    assert fb.observed.episode == 7


def test_execute_plan_judges_true_values_reports_sensed(envelope):
    scen = _scenario(23.5, -10.0, sensed_d=22.8)
    fb = execute_plan(_plan(_grip()), scen, envelope)
    assert fb.outcome == FAILURE
    assert fb.true_cause == {DIST}
    assert fb.observed.values == (22.8, -10.0)


def test_execute_plan_geometric_distance_for_other_waypoints(envelope):
    scen = _scenario(18.0, -10.0)
    fb = execute_plan(_plan(_grip(wp_robot="wp0")), scen, envelope)
    assert fb.true_cause == {DIST}  # 50 cm away
    assert math.hypot(-50.0, 0.0) == 50.0


def test_execute_plan_without_grip_is_a_noop_success(envelope):
    goto = SimpleNamespace(schema="goto", args=("nao", "wp0", "wp2"))
    fb = execute_plan(_plan(goto), _scenario(24.0, -10.0), envelope)
    assert fb.outcome == SUCCESS and fb.true_cause == frozenset()


def test_scenario_round_trip(tmp_path, kb):
    rng = np.random.default_rng(8)
    scenarios = [
        generate_scenario("distance", rng, kb, episode=i, seed=8, rng_stream="warmup")
        for i in range(5)
    ]
    path = tmp_path / "scenarios.csv"
    save_scenarios(str(path), scenarios)
    loaded = load_scenarios(str(path))
    assert len(loaded) == 5
    for a, b in zip(scenarios, loaded):
        assert a.episode == b.episode
        assert a.true_distance == b.true_distance
        assert a.sensed_angle == b.sensed_angle
        assert a.rng_stream == b.rng_stream


def test_load_scenarios_rejects_bad_input(tmp_path):
    path = tmp_path / "scenarios.csv"
    path.write_text("nope\n")
    with pytest.raises(WorldError, match="unexpected header"):
        load_scenarios(str(path))
    header = ",".join(
        [
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
    )
    path.write_text(header + "\n0,0,distance,phase1,x,0,0,0,wp0,wp1,wp2\n")
    with pytest.raises(WorldError, match="line 2"):
        load_scenarios(str(path))
