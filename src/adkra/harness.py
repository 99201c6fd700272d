"""End-to-end experiment driver: fault injection, episodes, metrics, reports.

One experiment = inject a fault into the KB, warm the success history up,
run a scored refinement phase, then re-evaluate the refined KB on a fresh
derived-seed draw. A counterfactual pass over the same phase-1 draws with
refinement switched off fills the "without" column of the failure curve.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import defaults
from .experience import FAILURE, SUCCESS, AttributeVector, TrainingData
from .instantiate import default_domain, instantiate_problem
from .kb import AttributeSchema, KnowledgeBase
from .planner import NoPlanFound, find_plan
from .reasoner import StepReport, process_feedback
from .world import (
    GroundTruthEnvelope,
    NoiseModel,
    Scenario,
    execute_plan,
    generate_scenario,
    save_scenarios,
)

NO_PLAN = "no_plan"
WINDOW = 10  # episodes per point of the failure curve

EPISODE_FIELDS = [
    "episode",
    "phase",
    "outcome",
    "true_cause",
    "anomalies",
    "outlier_attr",
    "nn",
    "lv",
    "refinement_outcome",
    "kb_snapshot_hash",
]


class HarnessError(Exception):
    pass


@dataclass
class ExperimentConfig:
    kind: str = "distance"
    episodes: int = 100
    adkra_enabled: bool = True
    faults: dict[str, float] | None = None  # None picks the kind's default
    seed: int = 0
    eta_distance: float | None = None
    eta_angle: float | None = None
    noise: NoiseModel = field(default_factory=NoiseModel)
    preseed_td: int = 0
    warmup_successes: int = 30

    def __post_init__(self) -> None:
        if self.kind not in defaults.EXPERIMENT_KINDS:
            raise HarnessError(f"unknown experiment kind {self.kind!r}")
        if self.episodes < 1:
            raise HarnessError("episodes must be at least 1")
        for name in ("preseed_td", "warmup_successes"):
            if getattr(self, name) < 0:
                raise HarnessError(f"{name} must not be negative")
        for name in ("eta_distance", "eta_angle"):
            eta = getattr(self, name)
            if eta is not None and not (math.isfinite(eta) and eta > 0):
                raise HarnessError(f"{name} must be finite and positive, got {eta}")
        for name in ("sigma_distance", "sigma_angle"):
            sigma = getattr(self.noise, name)
            if not (math.isfinite(sigma) and sigma >= 0):
                raise HarnessError(f"noise {name} must be finite and not negative, got {sigma}")
        bounds = dict(defaults.INITIAL_KB)
        for fluent, value in self.resolved_faults().items():
            if fluent not in defaults.INITIAL_KB:
                raise HarnessError(f"fault targets unknown fluent {fluent!r}")
            if not math.isfinite(value):
                raise HarnessError(f"fault {fluent} must be finite, got {value}")
            bounds[fluent] = value
        # Equal bounds stay allowed: nothing lies strictly inside, so no plan exists.
        for lo, hi in ((defaults.MINDIS, defaults.MAXDIS), (defaults.MINHWANGLE, defaults.MAXHWANGLE)):
            if bounds[lo] > bounds[hi]:
                raise HarnessError(f"faults leave {lo} = {bounds[lo]} above {hi} = {bounds[hi]}")

    def resolved_faults(self) -> dict[str, float]:
        if self.faults is None:
            return dict(defaults.KIND_FAULTS[self.kind])
        return dict(self.faults)


@dataclass(frozen=True)
class ConfusionCounts:
    obs: int = 0
    tp: int = 0
    fn: int = 0
    fp: int = 0
    tn: int = 0

    @property
    def tpr(self) -> float | None:
        return _rate(self.tp, self.tp + self.fn)

    @property
    def fnr(self) -> float | None:
        return _rate(self.fn, self.tp + self.fn)

    @property
    def precision(self) -> float | None:
        return _rate(self.tp, self.tp + self.fp)

    @property
    def accuracy(self) -> float | None:
        return _rate(self.tp + self.tn, self.obs)

    @property
    def hit_accuracy(self) -> float | None:
        return _rate(self.tp, self.obs)


def _rate(num: int, den: int) -> float | None:
    return None if den == 0 else num / den


def format_rate(r: float | None) -> str:
    return "n/a" if r is None else f"{100.0 * r:.1f}%"


def confusion_table(m: ConfusionCounts) -> list[str]:
    """Header and row of the confusion summary that metrics.txt and the CLI print."""
    rates = (m.precision, m.hit_accuracy, m.fnr, m.tpr)
    return [
        "Obs. TP FN Preci. Accu. FNR TPR",
        " ".join([str(m.obs), str(m.tp), str(m.fn)] + [format_rate(r) for r in rates]),
    ]


@dataclass
class EpisodeRecord:
    episode: int
    phase: str
    scenario: Scenario
    outcome: str
    true_cause: frozenset[int]
    report: StepReport | None
    kb_hash: str


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    records: list[EpisodeRecord]
    warmup_count: int
    phase1_failures: int
    phase2_failures: int | None
    baseline_phase1_failures: int | None
    metrics: ConfusionCounts
    curve_with: list[float] | None
    curve_without: list[float] | None
    kb_before: str
    kb: KnowledgeBase
    td: TrainingData
    envelope: GroundTruthEnvelope
    schema: AttributeSchema

    def records_of(self, phase: str) -> list[EpisodeRecord]:
        return [r for r in self.records if r.phase == phase]


# ── Experiment loop ───────────────────────────────────────────────────────


def _build_schema(cfg: ExperimentConfig) -> AttributeSchema:
    overrides = {"distance": cfg.eta_distance, "angle": cfg.eta_angle}
    specs = []
    for spec in defaults.GRIP_SCHEMA.attributes:
        eta = overrides.get(spec.name)
        specs.append(spec if eta is None else dataclasses.replace(spec, eta=eta))
    return AttributeSchema(tuple(specs))


def _build_kb(cfg: ExperimentConfig) -> KnowledgeBase:
    kb = KnowledgeBase(defaults.INITIAL_KB)
    for fluent, value in cfg.resolved_faults().items():
        kb.load_initial(fluent, value)
    for rel in defaults.KIND_RELATIONSHIPS[cfg.kind]:
        kb.register_relationship(rel)
    return kb


def _preseed(td: TrainingData, envelope: GroundTruthEnvelope, rng, k: int) -> None:
    lo, hi = envelope.distance_range
    for _ in range(k):
        d = float(rng.uniform(lo, hi))
        a = float(rng.uniform(envelope.angle_bound(d), envelope.angle_clip[1]))
        td.add_success(AttributeVector((d, a), SUCCESS, 0))


def _run_episode(
    episode: int,
    phase: str,
    cfg: ExperimentConfig,
    rng,
    kb: KnowledgeBase,
    td: TrainingData,
    schema: AttributeSchema,
    envelope: GroundTruthEnvelope,
    domain,
    mode: str,
    stream: str,
) -> EpisodeRecord:
    """One episode: draw, plan, execute, then learn/record/ignore per mode."""
    scenario = generate_scenario(
        cfg.kind,
        rng,
        kb,
        schema=schema,
        noise=cfg.noise,
        episode=episode,
        seed=cfg.seed,
        rng_stream=stream,
    )
    problem = instantiate_problem(kb, scenario, domain)
    try:
        plan = find_plan(domain, problem)
    except NoPlanFound:
        return EpisodeRecord(
            episode, phase, scenario, NO_PLAN, frozenset(), None, kb.snapshot_hash()
        )
    fb = execute_plan(plan, scenario, envelope, episode=episode)
    report = None
    if mode == "learn":
        report = process_feedback(fb, kb, td, episode=episode)
    elif mode == "record" and fb.outcome == SUCCESS:
        td.add_success(fb.observed)
    return EpisodeRecord(
        episode, phase, scenario, fb.outcome, fb.true_cause, report, kb.snapshot_hash()
    )


def _warmup(counter, cfg, rng, kb, td, schema, envelope, domain, stream) -> list[EpisodeRecord]:
    records: list[EpisodeRecord] = []
    successes = 0
    limit = 200 * cfg.warmup_successes
    while successes < cfg.warmup_successes:
        if len(records) >= limit:
            raise HarnessError(
                f"warm-up stalled: {successes} successes after {limit} episodes"
            )
        rec = _run_episode(
            next(counter), "warmup", cfg, rng, kb, td, schema, envelope, domain, "record", stream
        )
        records.append(rec)
        if rec.outcome == SUCCESS:
            successes += 1
    return records


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    schema = _build_schema(cfg)
    envelope = GroundTruthEnvelope(angle_anchors=defaults.KIND_ANCHORS[cfg.kind])
    domain = default_domain()

    kb = _build_kb(cfg)
    td = TrainingData(schema)
    rng = np.random.default_rng(cfg.seed)
    kb_before = kb.effective_dump()

    counter = itertools.count(1)
    records: list[EpisodeRecord] = []
    if cfg.preseed_td > 0:
        _preseed(td, envelope, rng, cfg.preseed_td)
        warmup_count = 0
    else:
        warm = _warmup(counter, cfg, rng, kb, td, schema, envelope, domain, "warmup")
        records.extend(warm)
        warmup_count = len(warm)
    after_warmup = copy.deepcopy(rng)

    mode = "learn" if cfg.adkra_enabled else "record"
    phase1: list[EpisodeRecord] = []
    for _ in range(cfg.episodes):
        rec = _run_episode(
            next(counter), "phase1", cfg, rng, kb, td, schema, envelope, domain, mode, "phase1"
        )
        phase1.append(rec)
    records.extend(phase1)
    phase1_failures = sum(1 for r in phase1 if r.outcome == FAILURE)

    phase2_failures = None
    if cfg.adkra_enabled:
        rng2 = np.random.default_rng([cfg.seed, 2])
        phase2: list[EpisodeRecord] = []
        for _ in range(cfg.episodes):
            rec = _run_episode(
                next(counter), "phase2", cfg, rng2, kb, td, schema, envelope, domain, "frozen", "phase2"
            )
            phase2.append(rec)
        records.extend(phase2)
        phase2_failures = sum(1 for r in phase2 if r.outcome == FAILURE)

    baseline_failures = None
    curve_without = None
    if cfg.adkra_enabled:
        baseline = _counterfactual_phase1(cfg, after_warmup, warmup_count, schema, envelope, domain)
        baseline_failures = sum(1 for r in baseline if r.outcome == FAILURE)
        curve_without = _windowed(baseline)

    metrics = compute_metrics(_scored_events(phase1, schema))
    return ExperimentReport(
        config=cfg,
        records=records,
        warmup_count=warmup_count,
        phase1_failures=phase1_failures,
        phase2_failures=phase2_failures,
        baseline_phase1_failures=baseline_failures,
        metrics=metrics,
        curve_with=_windowed(phase1) if cfg.adkra_enabled else None,
        curve_without=curve_without if cfg.adkra_enabled else _windowed(phase1),
        kb_before=kb_before,
        kb=kb,
        td=td,
        envelope=envelope,
        schema=schema,
    )


def _counterfactual_phase1(cfg, rng, warmup_count, schema, envelope, domain) -> list[EpisodeRecord]:
    """Same draws, no refinement: the failure curve's comparison column.

    ``rng`` is a copy of the generator taken right after the preseed or
    warm-up, so phase 1 starts from the stream position the refined run had.
    Nothing else needs replaying: the KB does not change during the warm-up
    (it runs in ``record`` mode), so a freshly built KB equals it, and
    ``record`` mode writes the history but never reads it, so an empty one
    yields the same episodes.
    """
    kb = _build_kb(cfg)
    td = TrainingData(schema)
    counter = itertools.count(warmup_count + 1)
    return [
        _run_episode(
            next(counter), "phase1", cfg, rng, kb, td, schema, envelope, domain, "record", "phase1"
        )
        for _ in range(cfg.episodes)
    ]


def _windowed(records: list[EpisodeRecord], window: int = WINDOW) -> list[float]:
    rates = []
    for i in range(0, len(records), window):
        chunk = records[i : i + window]
        rates.append(sum(1 for r in chunk if r.outcome == FAILURE) / len(chunk))
    return rates


# ── Metrics ───────────────────────────────────────────────────────────────


def _scored_events(phase1: list[EpisodeRecord], schema: AttributeSchema):
    """(true-cause names, attributed name) per scored failure event."""
    events = []
    for r in phase1:
        if r.outcome != FAILURE:
            continue
        cause = frozenset(schema.spec(i).name for i in r.true_cause)
        attributed = None
        if r.report is not None and r.report.lv is not None and r.report.outlier is not None:
            attributed = r.report.outlier.attribute
        events.append((cause, attributed))
    return events


def compute_metrics(events) -> ConfusionCounts:
    """Confusion counts over failure events.

    An event is a (true-cause name set, attributed name or None) pair; a
    refinement that was learned but rejected still counts as an attribution.
    """
    tp = fn = fp = tn = 0
    for cause, attributed in events:
        if attributed is None:
            if cause:
                fn += 1
            else:
                tn += 1
        elif attributed in cause:
            tp += 1
        else:
            fp += 1
    return ConfusionCounts(obs=tp + fn + fp + tn, tp=tp, fn=fn, fp=fp, tn=tn)


# ── Report files ──────────────────────────────────────────────────────────


def emit_report(report: ExperimentReport, out_dir: str) -> None:
    """Write episodes.csv, failure_curve.csv, metrics.txt, kb_final.csv and
    the scenario/training dumps into out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    _write_episodes(report, os.path.join(out_dir, "episodes.csv"))
    _write_curve(report, os.path.join(out_dir, "failure_curve.csv"))
    _write_metrics(report, os.path.join(out_dir, "metrics.txt"))
    report.kb.save(os.path.join(out_dir, "kb_final.csv"))
    save_scenarios(os.path.join(out_dir, "scenarios.csv"), [r.scenario for r in report.records])
    report.td.save(os.path.join(out_dir, "training_data.csv"))


def _episode_row(report: ExperimentReport, r: EpisodeRecord) -> list[str]:
    cause = "|".join(report.schema.spec(i).name for i in sorted(r.true_cause))
    anomalies = ""
    outlier = ""
    nn = ""
    lv = ""
    refinement = ""
    if r.report is not None:
        rep = r.report
        anomalies = "|".join(a.render() for a in rep.anomalies)
        outlier = rep.outlier.attribute if rep.outlier else ""
        nn = _csv_num(rep.nn)
        lv = _csv_num(rep.lv.value) if rep.lv else ""
        if rep.refinement is not None:
            refinement = rep.refinement.render()
        elif rep.undetected:
            refinement = "undetected"
        elif rep.confirmed:
            refinement = "|".join(f"confirmed:{tag}" for tag in rep.confirmed)
    return [
        str(r.episode),
        r.phase,
        r.outcome,
        cause,
        anomalies,
        outlier,
        nn,
        lv,
        refinement,
        r.kb_hash,
    ]


def _csv_num(v: float | None) -> str:
    if v is None:
        return ""
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def _write_episodes(report: ExperimentReport, path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(EPISODE_FIELDS)
        for r in report.records:
            w.writerow(_episode_row(report, r))


def _write_curve(report: ExperimentReport, path: str) -> None:
    with_col = report.curve_with or []
    without_col = report.curve_without or []
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["window", "with_adkra", "without_adkra"])
        for i in range(max(len(with_col), len(without_col))):
            w.writerow(
                [
                    i + 1,
                    repr(with_col[i]) if i < len(with_col) else "",
                    repr(without_col[i]) if i < len(without_col) else "",
                ]
            )


def _write_metrics(report: ExperimentReport, path: str) -> None:
    cfg = report.config
    m = report.metrics
    lines = [
        "# gripping experiment metrics",
        f"kind: {cfg.kind}",
        f"seed: {cfg.seed}",
        f"phase2_seed: [{cfg.seed}, 2]",
        f"adkra: {'on' if cfg.adkra_enabled else 'off'}",
        f"episodes_per_phase: {cfg.episodes}",
        f"warmup_episodes: {report.warmup_count}",
        f"phase1_failures: {report.phase1_failures}",
        f"phase2_failures: {_opt(report.phase2_failures)}",
        f"baseline_phase1_failures: {_opt(report.baseline_phase1_failures)}",
        "",
        *confusion_table(m),
        "",
        f"TP {m.tp}  FP {m.fp}  FN {m.fn}  TN {m.tn}  Obs {m.obs}",
        f"TPR {format_rate(m.tpr)}   (TP / (TP+FN))",
        f"FNR {format_rate(m.fnr)}   (FN / (TP+FN))",
        f"Precision {format_rate(m.precision)}   (TP / (TP+FP))",
        f"Accuracy {format_rate(m.accuracy)}   ((TP+TN) / Obs)",
        f"Accuracy {format_rate(m.hit_accuracy)}   (TP / Obs, prediction-hit style)",
        "",
        "# kb before",
        report.kb_before,
        "# kb after",
        report.kb.effective_dump(),
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _opt(v) -> str:
    return "n/a" if v is None else str(v)


def load_scored_events(episodes_csv: str) -> list[tuple[frozenset[str], str | None]]:
    """Rebuild scored events from an episodes.csv for metric recomputation."""
    events = []
    with open(episodes_csv, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != EPISODE_FIELDS:
            raise HarnessError(f"{episodes_csv}: unexpected header {reader.fieldnames}")
        for row in reader:
            if row["phase"] != "phase1" or row["outcome"] != FAILURE:
                continue
            cause = frozenset(x for x in row["true_cause"].split("|") if x)
            attributed = row["outlier_attr"] or None
            if not row["lv"]:
                attributed = None
            events.append((cause, attributed))
    return events
