import pytest

from adkra import defaults
from adkra.harness import (
    EPISODE_FIELDS,
    ConfusionCounts,
    ExperimentConfig,
    HarnessError,
    _build_kb,
    _build_schema,
    _episode_row,
    _scored_events,
    _windowed,
    compute_metrics,
    emit_report,
    format_rate,
    load_scored_events,
    run_experiment,
)
from adkra.kb import SLAVE
from adkra.world import NoiseModel


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
    m = ConfusionCounts(obs=65, tp=61, fn=2, fp=2, tn=0)
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
    schema = _build_schema(ExperimentConfig(eta_distance=0.5, eta_angle=2.0))
    assert schema.by_name("distance").eta == 0.5
    assert schema.by_name("angle").eta == 2.0
    default = _build_schema(ExperimentConfig())
    assert default.by_name("distance").eta == 1.0


def test_build_kb_applies_fault_and_relationships():
    kb = _build_kb(ExperimentConfig(kind="collective"))
    assert kb.get_effective_value(defaults.MAXDIS) == 23.0
    rel_kinds = {r.attribute: r.kind for r in kb.relationships}
    assert rel_kinds[defaults.ANGLE] == SLAVE

    faulted = _build_kb(ExperimentConfig(kind="distance"))
    assert faulted.get_effective_value(defaults.MAXDIS) == 27.0
    assert all(r.kind == "independent" for r in faulted.relationships)


def test_run_experiment_structure():
    cfg = ExperimentConfig(kind="distance", episodes=20, seed=7)
    report = run_experiment(cfg)
    assert len(report.records_of("phase1")) == 20
    assert len(report.records_of("phase2")) == 20
    assert report.warmup_count >= cfg.warmup_successes
    assert len(report.records) == report.warmup_count + 40
    assert len(report.curve_with) == 2
    assert len(report.curve_without) == 2
    assert report.metrics.obs == report.phase1_failures
    assert report.kb_before != report.kb.effective_dump()  # a fault got repaired
    episodes = [r.episode for r in report.records]
    assert episodes == list(range(1, len(report.records) + 1))


def test_run_experiment_without_adkra():
    cfg = ExperimentConfig(kind="distance", episodes=20, seed=7, adkra_enabled=False)
    report = run_experiment(cfg)
    assert report.phase2_failures is None
    assert report.baseline_phase1_failures is None
    assert report.records_of("phase2") == []
    assert report.curve_with is None
    assert len(report.curve_without) == 2
    assert all(r.report is None for r in report.records_of("phase1"))
    assert report.kb_before == report.kb.effective_dump()


def test_preseed_skips_warmup():
    cfg = ExperimentConfig(kind="distance", episodes=5, seed=1, preseed_td=25)
    report = run_experiment(cfg)
    assert report.warmup_count == 0
    assert report.records_of("warmup") == []
    assert len(report.td) >= 25


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
    # The run without refinement does its own warm-up, so this does not rely
    # on the generator snapshot the counterfactual starts from.
    refined = run_experiment(ExperimentConfig(episodes=100, **overrides))
    static = run_experiment(ExperimentConfig(episodes=100, adkra_enabled=False, **overrides))
    assert refined.baseline_phase1_failures == static.phase1_failures
    assert refined.curve_without == static.curve_without


def test_runs_are_repeatable_in_process():
    cfg = ExperimentConfig(kind="distance", episodes=30, seed=7)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    rows_a = [_episode_row(a, r) for r in a.records]
    rows_b = [_episode_row(b, r) for r in b.records]
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
    assert len(curve) == 1 + len(report.curve_with)


def test_scored_events_round_trip_through_csv(tmp_path):
    cfg = ExperimentConfig(kind="distance", episodes=40, seed=7)
    report = run_experiment(cfg)
    emit_report(report, str(tmp_path))
    from_csv = load_scored_events(str(tmp_path / "episodes.csv"))
    in_process = _scored_events(report.records_of("phase1"), report.schema)
    assert from_csv == in_process
    assert compute_metrics(from_csv) == report.metrics


def test_load_scored_events_checks_header(tmp_path):
    path = tmp_path / "episodes.csv"
    path.write_text("bogus,header\n")
    with pytest.raises(HarnessError, match="unexpected header"):
        load_scored_events(str(path))


def test_noise_config_is_applied():
    cfg = ExperimentConfig(
        kind="distance", episodes=5, seed=3, noise=NoiseModel(sigma_distance=0.5)
    )
    report = run_experiment(cfg)
    scen = report.records[0].scenario
    assert scen.sensed_distance != scen.true_distance
    assert scen.sensed_angle == scen.true_angle
