"""Acceptance suite: end-to-end behaviors the package must deliver.

Each test states one observable claim about the refinement loop and checks it
with fixed seeds, exact tolerances and independent oracles.
"""

import pathlib
import random
import time

import pytest

from adkra import defaults
from adkra.experience import FAILURE, SUCCESS, AttributeVector, TrainingData
from adkra.harness import ExperimentConfig, emit_report, run_experiment
from adkra.kb import KnowledgeBase
from adkra.pddl import parse_domain, parse_problem, print_domain, print_problem
from adkra.planner import find_plan
from adkra.reasoner import (
    REJECTED_REVERTED,
    Anomaly,
    LearnedValue,
    detect_point_anomalies,
    learn_value,
    refine,
)
from adkra.world import GroundTruthEnvelope, NoiseModel

DATA = pathlib.Path(__file__).parent / "data"
SCHEMA = defaults.GRIP_SCHEMA


def test_overstated_distance_bound_converges_exactly():
    start = time.monotonic()
    report = run_experiment(ExperimentConfig(kind="distance", episodes=100, seed=7))
    elapsed = time.monotonic() - start
    maxdis = next(e for e in report.kb.entries() if e.fluent == defaults.MAXDIS)
    assert maxdis.value == 23.0
    assert maxdis.status == "confirmed"
    assert report.phase2_failures == 0
    assert elapsed < 5.0


# Known defect: at these seeds, once maxdis is a temporary 24, every later
# failure quantizes into a distance bucket that successes already cover (at
# 40028, failures at 23.0-23.5 cm share the bucket of successes at 22.5-23.0),
# so the detector stays silent and maxdis stays at 24. A change that makes them
# converge turns this test into an unexpected pass, which fails the suite
# (xfail_strict).
@pytest.mark.xfail(strict=True, reason="failures the distance grid cannot see leave maxdis at a temporary 24")
@pytest.mark.parametrize("seed", [40028, 20065, 70085])
def test_overstated_distance_bound_converges_at_grid_blind_seeds(seed):
    report = run_experiment(ExperimentConfig(kind="distance", episodes=100, seed=seed, warmup_successes=30))
    assert report.kb.get_effective_value(defaults.MAXDIS) in (22.0, 23.0)
    assert report.phase2_failures == 0


def test_understated_angle_bound_converges():
    report = run_experiment(ExperimentConfig(kind="angle", episodes=100, seed=2))
    minhwangle = next(e for e in report.kb.entries() if e.fluent == defaults.MINHWANGLE)
    learned = next(r.value for r in reversed(minhwangle.history) if r.status == "confirmed")
    assert abs(learned - (-25.0)) <= 1.0
    assert report.phase2_failures == 0


def test_bucketed_angle_bounds_converge_to_the_coupled_floor():
    report = run_experiment(ExperimentConfig(kind="collective", episodes=100, seed=9))
    envelope = GroundTruthEnvelope(angle_anchors=defaults.KIND_ANCHORS["collective"])
    failures_per_bucket: dict[float, int] = {}
    for rec in report.records_of("phase1"):
        rep = rec.report
        if rep is None or rep.outlier is None or rep.outlier.bucket is None:
            continue
        failures_per_bucket[rep.outlier.bucket] = failures_per_bucket.get(rep.outlier.bucket, 0) + 1
    well_sampled = {b for b, n in failures_per_bucket.items() if n >= 3}
    assert well_sampled, "expected at least one distance bucket with repeated failures"
    for bucket in well_sampled:
        learned = report.kb.get_effective_value(defaults.MAXHWANGLE, bucket)
        true_floor = envelope.angle_bound(bucket)
        assert abs(learned - true_floor) <= 1.0, f"bucket {bucket}"
    assert report.phase2_failures == 0


def test_refinement_beats_the_static_baseline():
    # test_harness.py checks that the baseline equals a run without refinement.
    refined = run_experiment(ExperimentConfig(kind="distance", episodes=100, seed=7))
    fraction = refined.baseline_phase1_failures / 100
    assert 0.23 <= fraction <= 0.43
    assert refined.phase1_failures < refined.baseline_phase1_failures


def test_point_detection_matches_bruteforce():
    rng = random.Random(2024)
    mismatches = 0
    for _ in range(1000):
        rows = [
            (rng.uniform(10, 30), rng.uniform(-30, 0))
            for _ in range(rng.randint(1, 40))
        ]
        td = TrainingData(SCHEMA)
        for i, (d, a) in enumerate(rows):
            td.add_success(AttributeVector((d, a), SUCCESS, i))
        probe = (float(rng.randint(5, 35)), float(rng.randint(-35, 5)))
        fd = probe
        got = {a.index for a in detect_point_anomalies(fd, td)}
        want = set()
        for idx in (1, 2):
            covered = any(
                SCHEMA.quantize(idx, row[idx - 1]) == SCHEMA.quantize(idx, probe[idx - 1])
                for row in rows
            )
            if not covered:
                want.add(idx)
        if got != want:
            mismatches += 1
    assert mismatches == 0


def test_learning_step_arithmetic_is_exact():
    above = Anomaly(1, "distance", 24.0, "point")
    assert learn_value(above, 20.0, 1.0) == LearnedValue(1, "distance", 23.0)
    below = Anomaly(1, "distance", 13.0, "point")
    assert learn_value(below, 15.0, 1.0) == LearnedValue(1, "distance", 14.0)


def test_interior_learned_values_are_rejected():
    rng = random.Random(5)
    td = TrainingData(SCHEMA)
    for i, d in enumerate(range(15, 24)):
        td.add_success(AttributeVector((float(d), -10.0), SUCCESS, i))
    qcol = [SCHEMA.quantize(1, v) for v in td.column(1)]
    qmin, qmax = min(qcol), max(qcol)
    for trial in range(200):
        kb = KnowledgeBase(dict(defaults.INITIAL_KB))
        kb.load_initial(defaults.MAXDIS, 27.0)
        kb.apply_temporary(defaults.MAXDIS, 26.0, stamp=1)
        out = Anomaly(1, "distance", float(rng.randint(24, 30)), "point")
        interior = rng.uniform(qmin + 0.01, qmax - 0.01)
        result = refine(LearnedValue(1, "distance", interior), out, kb, td, stamp=trial)
        assert result.outcome == REJECTED_REVERTED
        assert kb.get_effective_value(defaults.MAXDIS) == 27.0
        assert [e.status for e in kb.entries() if e.fluent == defaults.MAXDIS] == ["confirmed"]


def test_pddl_round_trip_and_plan_shapes():
    domain = parse_domain((DATA / "nao.pddl").read_text())
    assert parse_domain(print_domain(domain)) == domain

    faulty = parse_problem((DATA / "grip_faulty.pddl").read_text(), domain)
    assert parse_problem(print_problem(faulty), domain) == faulty
    refined = parse_problem((DATA / "grip_refined.pddl").read_text(), domain)

    faulty_steps = [ga.name for ga in find_plan(domain, faulty).steps]
    assert faulty_steps == ["(goto nao wp0 wp2)", "(grip nao redcup wp2 wp1 grp)"]
    refined_steps = [ga.name for ga in find_plan(domain, refined).steps]
    assert refined_steps == ["(goto nao wp0 wp4)", "(grip nao redcup wp4 wp1 grp)"]


def test_sensor_noise_produces_false_negatives_by_overlap():
    cfg = ExperimentConfig(
        kind="distance",
        episodes=500,
        seed=0,
        noise=NoiseModel(sigma_distance=0.5),
    )
    report = run_experiment(cfg)
    m = report.metrics
    assert m.obs > 0 and m.fn > 0
    assert m.fnr > 0.0

    covered = {SCHEMA.quantize(1, v) for v in report.td.column(1)}
    for rec in report.records_of("phase1"):
        if rec.outcome != FAILURE or rec.true_cause == frozenset():
            continue
        rep = rec.report
        if rep is not None and rep.lv is None:  # scored as a miss
            assert SCHEMA.quantize(1, rec.scenario.sensed_distance) in covered


def test_runs_are_deterministic(tmp_path):
    cfg = ExperimentConfig(kind="distance", episodes=50, seed=3)
    first = tmp_path / "a"
    second = tmp_path / "b"
    emit_report(run_experiment(cfg), str(first))
    emit_report(run_experiment(cfg), str(second))
    assert (first / "episodes.csv").read_bytes() == (second / "episodes.csv").read_bytes()
    assert (first / "metrics.txt").read_bytes() == (second / "metrics.txt").read_bytes()
