"""End-to-end experiment driver: fault injection, episodes, metrics, reports.

One experiment = inject a fault into the KB, warm the success history up,
run a scored refinement phase, then re-evaluate the refined KB on a fresh
derived-seed draw. A counterfactual pass over the same phase-1 draws without
refinement is the static baseline: the "without" column of the failure curve.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import defaults
from .experience import FAILURE, SUCCESS, AttributeVector, TrainingData
from .instantiate import default_domain, instantiate_problem
from .kb import AttributeSchema, KnowledgeBase
from .pddl import format_number
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
        for name in ("seed", "preseed_td", "warmup_successes"):
            if getattr(self, name) < 0:
                raise HarnessError(f"{name} must not be negative")
        for name, index in (("eta_distance", defaults.DISTANCE), ("eta_angle", defaults.ANGLE)):
            eta = getattr(self, name)
            if eta is None:
                continue
            if not (math.isfinite(eta) and eta > 0):
                raise HarnessError(f"{name} must be finite and positive, got {eta}")
            # An off-grid step leaves learned bounds between grid values, where
            # no quantized success can ever confirm them.
            q = defaults.GRIP_SCHEMA.spec(index).quantization
            if not (eta / q).is_integer():
                raise HarnessError(f"{name} must be a whole multiple of the grid step {q}, got {eta}")
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
    tp: int = 0
    fn: int = 0
    fp: int = 0
    tn: int = 0

    @property
    def obs(self) -> int:
        return self.tp + self.fn + self.fp + self.tn

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


def rate_block(m: ConfusionCounts) -> list[str]:
    """The confusion table, counts and rates: metrics.txt and ``adkra metrics`` print these lines."""
    return [
        *confusion_table(m),
        "",
        f"TP {m.tp}  FP {m.fp}  FN {m.fn}  TN {m.tn}  Obs {m.obs}",
        f"TPR {format_rate(m.tpr)}   (TP / (TP+FN))",
        f"FNR {format_rate(m.fnr)}   (FN / (TP+FN))",
        f"Precision {format_rate(m.precision)}   (TP / (TP+FP))",
        f"Accuracy {format_rate(m.accuracy)}   ((TP+TN) / Obs)",
        f"Accuracy {format_rate(m.hit_accuracy)}   (TP / Obs, prediction-hit style)",
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
    """What one experiment ran. Every count, curve and rate is derived from it."""

    config: ExperimentConfig
    records: list[EpisodeRecord]
    baseline: list[EpisodeRecord]  # phase 1 without refinement
    kb: KnowledgeBase
    td: TrainingData

    def records_of(self, phase: str) -> list[EpisodeRecord]:
        return [r for r in self.records if r.phase == phase]

    @property
    def kb_before(self) -> str:
        return _build_kb(self.config).effective_dump()

    @property
    def warmup_count(self) -> int:
        return len(self.records_of("warmup"))

    @property
    def phase1_failures(self) -> int:
        return _failures(self.records_of("phase1"))

    @property
    def phase2_failures(self) -> int:
        return _failures(self.records_of("phase2"))

    @property
    def baseline_phase1_failures(self) -> int:
        return _failures(self.baseline)

    @property
    def metrics(self) -> ConfusionCounts:
        """Scored from the episodes.csv rows of the phase-1 failures, as ``adkra metrics`` scores a file."""
        rows = (
            dict(zip(EPISODE_FIELDS, _episode_row(self.td.schema, r)))
            for r in self.records_of("phase1")
            if r.outcome == FAILURE
        )
        return compute_metrics(_scored_events(rows))


def _failures(records: list[EpisodeRecord]) -> int:
    return sum(1 for r in records if r.outcome == FAILURE)


# ── Experiment loop ───────────────────────────────────────────────────────


def _build_schema(cfg: ExperimentConfig) -> AttributeSchema:
    """The grip schema with the configured steps; the coupled kinds make angle a slave of distance."""
    etas = {defaults.DISTANCE: cfg.eta_distance, defaults.ANGLE: cfg.eta_angle}
    masters = {defaults.ANGLE: defaults.DISTANCE} if cfg.kind in defaults.COUPLED_KINDS else {}
    return AttributeSchema(
        tuple(
            dataclasses.replace(spec, eta=etas[spec.index] or spec.eta, master=masters.get(spec.index))
            for spec in defaults.GRIP_SCHEMA.attributes
        )
    )


def _build_kb(cfg: ExperimentConfig) -> KnowledgeBase:
    return KnowledgeBase({**defaults.INITIAL_KB, **cfg.resolved_faults()})


def _preseed(td: TrainingData, envelope: GroundTruthEnvelope, rng, k: int) -> None:
    """File k true successes: d uniform in the distance window, a uniform above its floor.

    One draw of 2k doubles, d from the even ones and a from the odd ones,
    computed as ``Generator.uniform`` does (low + (high - low) * u): the
    values and the generator's final state equal k pairs of scalar draws.
    """
    lo, hi = defaults.TRUE_DISTANCE_RANGE
    u = rng.random(2 * k)
    d = (lo + (hi - lo) * u[0::2]).tolist()
    b = np.array([envelope.angle_bound(x) for x in d])
    a = (b + (defaults.TRUE_ANGLE_CLIP[1] - b) * u[1::2]).tolist()
    td.extend(AttributeVector(pair, SUCCESS, 0) for pair in zip(d, a))


def _run_episode(
    episode: int,
    phase: str,
    cfg: ExperimentConfig,
    rng,
    kb: KnowledgeBase,
    td: TrainingData,
    envelope: GroundTruthEnvelope,
    domain,
    mode: str,
) -> EpisodeRecord:
    """One episode: draw, plan, execute, then learn/record/ignore per mode."""
    scenario = generate_scenario(
        cfg.kind,
        rng,
        kb,
        schema=td.schema,
        noise=cfg.noise,
        episode=episode,
        seed=cfg.seed,
        rng_stream=phase,
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


def _warmup(cfg, rng, kb, td, envelope, domain) -> list[EpisodeRecord]:
    records: list[EpisodeRecord] = []
    successes = 0
    limit = 200 * cfg.warmup_successes
    while successes < cfg.warmup_successes:
        if len(records) >= limit:
            raise HarnessError(
                f"warm-up stalled: {successes} successes after {limit} episodes"
            )
        rec = _run_episode(len(records) + 1, "warmup", cfg, rng, kb, td, envelope, domain, "record")
        records.append(rec)
        if rec.outcome == SUCCESS:
            successes += 1
    return records


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    schema = _build_schema(cfg)
    envelope = GroundTruthEnvelope(angle_anchors=defaults.KIND_ANCHORS[cfg.kind])
    domain = default_domain()

    def run_phase(phase, first, rng, kb, td, mode) -> list[EpisodeRecord]:
        return [
            _run_episode(first + i, phase, cfg, rng, kb, td, envelope, domain, mode)
            for i in range(cfg.episodes)
        ]

    kb = _build_kb(cfg)
    td = TrainingData(schema)
    rng = np.random.default_rng(cfg.seed)

    records: list[EpisodeRecord] = []
    if cfg.preseed_td > 0:
        _preseed(td, envelope, rng, cfg.preseed_td)
    else:
        records = _warmup(cfg, rng, kb, td, envelope, domain)
    first = len(records) + 1
    after_warmup = copy.deepcopy(rng)

    records += run_phase("phase1", first, rng, kb, td, "learn")
    rng2 = np.random.default_rng([cfg.seed, 2])
    records += run_phase("phase2", first + cfg.episodes, rng2, kb, td, "frozen")
    # The counterfactual phase 1 starts from the generator as it stood after
    # the preseed or warm-up. Nothing else needs replaying: record mode never
    # writes the KB and never reads the history, so a fresh KB and an empty
    # history replay the same episodes.
    baseline = run_phase("phase1", first, after_warmup, _build_kb(cfg), TrainingData(schema), "record")
    return ExperimentReport(cfg, records, baseline, kb, td)


def _windowed(records: list[EpisodeRecord], window: int = WINDOW) -> list[float]:
    chunks = [records[i : i + window] for i in range(0, len(records), window)]
    return [_failures(chunk) / len(chunk) for chunk in chunks]


# ── Metrics ───────────────────────────────────────────────────────────────


def _scored_events(rows):
    """(true-cause names, attributed name or None) per scored failure, from episodes.csv rows.

    Only phase-1 failures are scored. One is attributed to its outlier when
    its row has a learned value, even if the value was then rejected.
    """
    return [
        (frozenset(x for x in row["true_cause"].split("|") if x), (row["lv"] and row["outlier_attr"]) or None)
        for row in rows
        if row["phase"] == "phase1" and row["outcome"] == FAILURE
    ]


def compute_metrics(events) -> ConfusionCounts:
    """Confusion counts over failure events: (true-cause name set, attributed name or None) pairs."""
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
    return ConfusionCounts(tp=tp, fn=fn, fp=fp, tn=tn)


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


def _episode_row(schema: AttributeSchema, r: EpisodeRecord) -> list[str]:
    cause = "|".join(schema.spec(i).name for i in sorted(r.true_cause))
    anomalies = ""
    outlier = ""
    nn = ""
    lv = ""
    refinement = ""
    if r.report is not None:
        rep = r.report
        anomalies = "|".join(a.render() for a in rep.anomalies)
        outlier = rep.outlier.attribute if rep.outlier else ""
        nn = "" if rep.nn is None else format_number(rep.nn)
        lv = format_number(rep.lv.value) if rep.lv else ""
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


def _write_episodes(report: ExperimentReport, path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(EPISODE_FIELDS)
        for r in report.records:
            w.writerow(_episode_row(report.td.schema, r))


def _write_curve(report: ExperimentReport, path: str) -> None:
    columns = zip(_windowed(report.records_of("phase1")), _windowed(report.baseline))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["window", "with_adkra", "without_adkra"])
        for i, (with_rate, without_rate) in enumerate(columns, 1):
            w.writerow([i, repr(with_rate), repr(without_rate)])


def _write_metrics(report: ExperimentReport, path: str) -> None:
    cfg = report.config
    lines = [
        "# gripping experiment metrics",
        f"kind: {cfg.kind}",
        f"seed: {cfg.seed}",
        f"phase2_seed: [{cfg.seed}, 2]",
        "adkra: on",
        f"episodes_per_phase: {cfg.episodes}",
        f"warmup_episodes: {report.warmup_count}",
        f"phase1_failures: {report.phase1_failures}",
        f"phase2_failures: {report.phase2_failures}",
        f"baseline_phase1_failures: {report.baseline_phase1_failures}",
        "",
        *rate_block(report.metrics),
        "",
        "# kb before",
        report.kb_before,
        "# kb after",
        report.kb.effective_dump(),
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_scored_events(episodes_csv: str) -> list[tuple[frozenset[str], str | None]]:
    """Rebuild scored events from an episodes.csv for metric recomputation."""

    def rows(reader: csv.DictReader):
        if reader.fieldnames != EPISODE_FIELDS:
            raise HarnessError(f"{episodes_csv}: unexpected header {reader.fieldnames}")
        for row in reader:
            # DictReader files extra fields under None and fills missing ones with None
            if None in row or None in row.values():
                raise HarnessError(
                    f"{episodes_csv}: line {reader.line_num} does not have {len(EPISODE_FIELDS)} fields"
                )
            yield row

    with open(episodes_csv, newline="") as fh:
        try:
            return _scored_events(rows(csv.DictReader(fh)))
        except UnicodeDecodeError as exc:
            raise HarnessError(f"{episodes_csv}: {exc}") from None
