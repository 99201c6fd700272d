import math
import re

import numpy as np
import pytest

from adkra import defaults
from adkra.experience import FAILURE, TrainingData
from adkra.harness import (
    EPISODE_FIELDS,
    ConfusionCounts,
    EpisodeRecord,
    ExperimentConfig,
    HarnessError,
    _build_kb,
    _build_schema,
    _episode_row,
    _preseed,
    _run_episode,
    _scored_events,
    _warmup,
    _windowed,
    compute_metrics,
    emit_report,
    format_rate,
    load_scored_events,
    run_experiment,
)
from adkra.instantiate import default_domain
from adkra.kb import KnowledgeBase
from adkra.pddl import Atom, ProblemInstance, print_problem
from adkra.reasoner import StepReport
from adkra.world import GroundTruthEnvelope, NoiseModel


def test_config_validation():
    with pytest.raises(HarnessError, match="unknown experiment kind"):
        ExperimentConfig(kind="sideways")
    with pytest.raises(HarnessError, match="at least 1"):
        ExperimentConfig(episodes=0)
    with pytest.raises(HarnessError, match="unknown fluent"):
        ExperimentConfig(faults={"bogus(grp)": 1.0})


def test_default_faults_per_kind():
    assert ExperimentConfig(kind="distance").resolved_faults() == {defaults.MAXDIS: 27.0}
    assert ExperimentConfig(kind="angle").resolved_faults() == {defaults.MINHWANGLE: -29.0}
    assert ExperimentConfig(kind="collective").resolved_faults() == {}
    assert ExperimentConfig(kind="group").resolved_faults() == {
        defaults.MAXDIS: 25.0,
        defaults.MINHWANGLE: -27.0,
    }
    explicit = ExperimentConfig(kind="distance", faults={defaults.MAXDIS: 30.0})
    assert explicit.resolved_faults() == {defaults.MAXDIS: 30.0}


def test_confusion_rates():
    m = ConfusionCounts(tp=61, fn=2, fp=2, tn=0)
    assert m.obs == 65
    assert m.tpr == pytest.approx(61 / 63)
    assert m.fnr == pytest.approx(2 / 63)
    assert m.precision == pytest.approx(61 / 63)
    assert m.accuracy == pytest.approx(61 / 65)
    assert m.hit_accuracy == pytest.approx(61 / 65)
    empty = ConfusionCounts()
    assert empty.tpr is None and empty.accuracy is None


def test_format_rate():
    assert format_rate(None) == "n/a"
    assert format_rate(1.0) == "100.0%"
    assert format_rate(61 / 65) == "93.8%"
    assert format_rate(2 / 63) == "3.2%"


def test_compute_metrics_counts():
    events = (
        [(frozenset({"distance"}), "distance")] * 61
        + [(frozenset({"distance"}), None)] * 2
        + [(frozenset({"angle"}), "distance")] * 2
    )
    m = compute_metrics(events)
    assert (m.obs, m.tp, m.fn, m.fp, m.tn) == (65, 61, 2, 2, 0)
    assert format_rate(m.tpr) == "96.8%"
    assert format_rate(m.hit_accuracy) == "93.8%"
    assert compute_metrics([]).obs == 0
    only_tn = compute_metrics([(frozenset(), None)])
    assert only_tn.tn == 1 and only_tn.accuracy == 1.0


def test_windowed_rates():
    class R:
        def __init__(self, outcome):
            self.outcome = outcome

    records = [R("failure" if i % 2 == 0 else "success") for i in range(25)]
    rates = _windowed(records, 10)
    assert rates == [0.5, 0.5, 0.6]  # last chunk has 3 failures in 5


def test_schema_eta_overrides():
    schema = _build_schema(ExperimentConfig(eta_distance=3.0, eta_angle=2.0))
    assert schema.spec(defaults.DISTANCE).eta == 3.0
    assert schema.spec(defaults.ANGLE).eta == 2.0
    default = _build_schema(ExperimentConfig())
    assert default.spec(defaults.DISTANCE).eta == 1.0


def test_build_kb_applies_fault_and_schema_couples_angle():
    collective = ExperimentConfig(kind="collective")
    kb = _build_kb(collective)
    assert kb.get_effective_value(defaults.MAXDIS) == 23.0
    masters = {s.index: s.master for s in _build_schema(collective).attributes}
    assert masters == {defaults.DISTANCE: None, defaults.ANGLE: defaults.DISTANCE}

    faulted = ExperimentConfig(kind="distance")
    assert _build_kb(faulted).get_effective_value(defaults.MAXDIS) == 27.0
    assert all(s.master is None for s in _build_schema(faulted).attributes)


def test_run_experiment_structure():
    cfg = ExperimentConfig(kind="distance", episodes=20, seed=7)
    report = run_experiment(cfg)
    assert len(report.records_of("phase1")) == 20
    assert len(report.records_of("phase2")) == 20
    assert report.warmup_count >= cfg.warmup_successes
    assert len(report.records) == report.warmup_count + 40
    assert len(report.baseline) == 20
    assert [r.episode for r in report.baseline] == [r.episode for r in report.records_of("phase1")]
    assert report.metrics.obs == report.phase1_failures
    assert report.kb_before != report.kb.effective_dump()  # a fault got repaired
    episodes = [r.episode for r in report.records]
    assert episodes == list(range(1, len(report.records) + 1))


def test_preseed_skips_warmup():
    cfg = ExperimentConfig(kind="distance", episodes=5, seed=1, preseed_td=25)
    report = run_experiment(cfg)
    assert report.warmup_count == 0
    assert report.records_of("warmup") == []
    assert len(report.td) >= 25


def _scalar_preseed(envelope, rng, k):
    lo, hi = defaults.TRUE_DISTANCE_RANGE
    rows = []
    for _ in range(k):
        d = float(rng.uniform(lo, hi))
        rows.append((d, float(rng.uniform(envelope.angle_bound(d), defaults.TRUE_ANGLE_CLIP[1]))))
    return rows


@pytest.mark.parametrize("k", [0, 1, 300])
@pytest.mark.parametrize(
    "anchors",
    [defaults.FULL_ANCHORS, defaults.FLAT_ANCHORS, ((15.0, -25.0), (20.0, 0.0))],
    ids=["sloped", "flat", "clips-at-0"],
)
def test_bulk_preseed_equals_scalar_draws(anchors, k):
    envelope = GroundTruthEnvelope(angle_anchors=anchors)
    bulk_rng, scalar_rng = np.random.default_rng(11), np.random.default_rng(11)
    td = TrainingData(defaults.GRIP_SCHEMA)
    _preseed(td, envelope, bulk_rng, k)
    want = _scalar_preseed(envelope, scalar_rng, k)
    # float.hex tells every bit apart, the sign of zero included
    assert [tuple(v.hex() for v in row.values) for row in td.rows] == [
        tuple(v.hex() for v in row) for row in want
    ]
    assert bulk_rng.bit_generator.state == scalar_rng.bit_generator.state
    if anchors[-1][1] == 0.0 and k == 300:
        assert any(a == 0.0 for _d, a in want)  # the floor did clip at 0


def test_unplannable_fault_yields_no_plan_episodes():
    cfg = ExperimentConfig(
        kind="distance",
        episodes=3,
        seed=0,
        faults={defaults.MAXDIS: 15.0},  # collapsed range: nothing is strictly inside
        preseed_td=5,
    )
    report = run_experiment(cfg)
    phase1 = report.records_of("phase1")
    assert [r.outcome for r in phase1] == ["no_plan"] * 3
    assert all(r.report is None for r in phase1)
    assert report.phase1_failures == 0
    assert report.metrics.obs == 0
    assert format_rate(report.metrics.tpr) == "n/a"


def test_warmup_stall_raises():
    cfg = ExperimentConfig(
        kind="distance",
        episodes=1,
        faults={defaults.MAXDIS: 15.0},
        warmup_successes=1,
    )
    with pytest.raises(HarnessError, match="warm-up stalled"):
        run_experiment(cfg)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(kind="distance", seed=7),
        dict(kind="angle", seed=7),
        dict(kind="collective", seed=7),
        dict(kind="group", seed=7),
        dict(kind="group", seed=3, noise=NoiseModel(1.0, 2.0), preseed_td=300),
    ],
    ids=["distance", "angle", "collective", "group", "group-noisy-preseeded"],
)
def test_counterfactual_equals_a_run_without_refinement(overrides):
    cfg = ExperimentConfig(episodes=100, **overrides)
    refined = run_experiment(cfg)
    # The run without refinement, from the harness's pieces: it does its own
    # preseed or warm-up from a fresh generator, so this does not rely on the
    # generator snapshot the counterfactual starts from.
    schema, kb = _build_schema(cfg), _build_kb(cfg)
    td = TrainingData(schema)
    envelope = GroundTruthEnvelope(angle_anchors=defaults.KIND_ANCHORS[cfg.kind])
    domain = default_domain()
    rng = np.random.default_rng(cfg.seed)
    warmup = []
    if cfg.preseed_td > 0:
        _preseed(td, envelope, rng, cfg.preseed_td)
    else:
        warmup = _warmup(cfg, rng, kb, td, envelope, domain)
    static = [
        _run_episode(len(warmup) + 1 + i, "phase1", cfg, rng, kb, td, envelope, domain, "record")
        for i in range(cfg.episodes)
    ]
    assert refined.baseline_phase1_failures == sum(r.outcome == FAILURE for r in static)
    assert [(r.episode, r.outcome) for r in refined.baseline] == [(r.episode, r.outcome) for r in static]
    assert [r.scenario for r in refined.baseline] == [r.scenario for r in static]


def test_runs_are_repeatable_in_process():
    cfg = ExperimentConfig(kind="distance", episodes=30, seed=7)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    rows_a = [_episode_row(a.td.schema, r) for r in a.records]
    rows_b = [_episode_row(b.td.schema, r) for r in b.records]
    assert rows_a == rows_b
    assert a.kb.effective_dump() == b.kb.effective_dump()


def test_emit_report_files(tmp_path):
    cfg = ExperimentConfig(kind="distance", episodes=20, seed=7)
    report = run_experiment(cfg)
    emit_report(report, str(tmp_path))
    for name in (
        "episodes.csv",
        "failure_curve.csv",
        "metrics.txt",
        "kb_final.csv",
        "scenarios.csv",
        "training_data.csv",
    ):
        assert (tmp_path / name).exists(), name

    lines = (tmp_path / "episodes.csv").read_text().splitlines()
    assert lines[0] == ",".join(EPISODE_FIELDS)
    assert len(lines) == 1 + len(report.records)

    metrics = (tmp_path / "metrics.txt").read_text()
    assert "Obs. TP FN Preci. Accu. FNR TPR" in metrics
    assert "# kb before" in metrics and "# kb after" in metrics

    curve = (tmp_path / "failure_curve.csv").read_text().splitlines()
    assert curve[0] == "window,with_adkra,without_adkra"
    assert curve[1:] == [
        f"{i + 1},{with_rate!r},{without_rate!r}"
        for i, (with_rate, without_rate) in enumerate(
            zip(_windowed(report.records_of("phase1")), _windowed(report.baseline))
        )
    ]


def test_scored_events_round_trip_through_csv(tmp_path):
    cfg = ExperimentConfig(kind="distance", episodes=40, seed=7)
    report = run_experiment(cfg)
    emit_report(report, str(tmp_path))
    from_csv = load_scored_events(str(tmp_path / "episodes.csv"))
    rows = [dict(zip(EPISODE_FIELDS, _episode_row(report.td.schema, r))) for r in report.records]
    in_process = _scored_events(rows)
    assert len(in_process) == report.phase1_failures > 0
    assert from_csv == in_process
    # attributed exactly when the reasoner learned a value from the outlier
    from_reports = [
        (
            frozenset(report.td.schema.spec(i).name for i in r.true_cause),
            r.report.outlier.attribute if r.report.lv is not None else None,
        )
        for r in report.records_of("phase1")
        if r.outcome == FAILURE
    ]
    assert from_csv == from_reports
    assert compute_metrics(from_csv) == report.metrics


def test_load_scored_events_checks_header(tmp_path):
    path = tmp_path / "episodes.csv"
    path.write_text("bogus,header\n")
    with pytest.raises(HarnessError, match="unexpected header"):
        load_scored_events(str(path))


# Every writer prints a number by one rule: a whole value below 1e15 without a
# fraction, anything else as its repr, so the text reads back as the same float.
NUMBERS = [
    (23.0, "23"),
    (-7.0, "-7"),
    (0.0, "0"),
    (-0.0, "-0.0"),
    (23.4, "23.4"),
    (999999999999999.0, "999999999999999"),
    (1e15, "1000000000000000.0"),
    (-1e20, "-1e+20"),
    (math.inf, "inf"),
    (math.nan, "nan"),
]


def _in_problem(v, tmp_path):
    problem = ProblemInstance("p", "nao", (("nao", "robot"),), frozenset(), {Atom("hwangle", ("nao",)): v})
    return re.search(r"\(= \(hwangle nao\) (\S+?)\)", print_problem(problem)).group(1)


def _in_kb_final(v, tmp_path):
    KnowledgeBase({defaults.MAXDIS: v}).save(str(tmp_path / "kb_final.csv"))
    return (tmp_path / "kb_final.csv").read_text().splitlines()[1].split(",")[2]


def _in_episodes(v, tmp_path):
    record = EpisodeRecord(1, "phase1", None, FAILURE, frozenset(), StepReport(1, FAILURE, nn=v), "")
    return _episode_row(defaults.GRIP_SCHEMA, record)[EPISODE_FIELDS.index("nn")]


@pytest.mark.parametrize("writer", [_in_problem, _in_kb_final, _in_episodes], ids=["problem", "kb_final", "episodes"])
def test_every_writer_prints_numbers_by_one_rule(writer, tmp_path):
    printed = [writer(v, tmp_path) for v, _text in NUMBERS]
    assert printed == [text for _v, text in NUMBERS]
    assert [repr(float(text)) for text in printed] == [repr(v) for v, _text in NUMBERS]


def test_noise_config_is_applied():
    cfg = ExperimentConfig(
        kind="distance", episodes=5, seed=3, noise=NoiseModel(sigma_distance=0.5)
    )
    report = run_experiment(cfg)
    scen = report.records[0].scenario
    assert scen.sensed_distance != scen.true_distance
    assert scen.sensed_angle == scen.true_angle
