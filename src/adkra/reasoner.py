"""Failure reasoning: detect anomalies, pick an outlier, learn, refine the KB.

One failed execution drives one pass: the observed vector is quantized onto
the attribute grid, screened against the success history for point anomalies
(column membership) and collective anomalies (joint membership under a
master/slave relationship), and the selected outlier value is moved one
learning step toward its nearest successful neighbour. The resulting value
lands in the KB as a temporary bound unless it falls strictly inside the
already-successful range, in which case the pending temporary is reverted.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .experience import FAILURE, SUCCESS, EmptyColumnError, TrainingData
from .kb import SLAVE, AttributeSchema, KnowledgeBase

log = logging.getLogger(__name__)

POINT = "point"
COLLECTIVE = "collective"

APPLIED_TEMPORARY = "applied_temporary"
REJECTED_REVERTED = "rejected_reverted"
NO_OP = "no_op"


class ReasonerError(Exception):
    pass


@dataclass(frozen=True)
class Anomaly:
    index: int
    attribute: str
    value: float
    kind: str
    bucket_by: int | None = None  # master attribute index, collective only
    bucket: float | None = None  # quantized master value, collective only

    def render(self) -> str:
        tag = f"{self.kind}:{self.attribute}={_num(self.value)}"
        if self.bucket is not None:
            tag += f"@{_num(self.bucket)}"
        return tag


@dataclass(frozen=True)
class Outlier:
    index: int
    attribute: str
    value: float
    kind: str
    rationale: str
    bucket_by: int | None = None
    bucket: float | None = None


@dataclass(frozen=True)
class LearnedValue:
    index: int
    attribute: str
    value: float


@dataclass(frozen=True)
class Refinement:
    outcome: str
    fluent: str | None = None
    condition: float | None = None

    def render(self) -> str:
        if self.fluent is None:
            return self.outcome
        tag = f"{self.outcome}:{self.fluent}"
        if self.condition is not None:
            tag += f"@{_num(self.condition)}"
        return tag


@dataclass
class StepReport:
    """Everything one feedback pass decided, for scoring and the episode log."""

    episode: int
    outcome: str
    anomalies: list[Anomaly] = field(default_factory=list)
    outlier: Outlier | None = None
    nn: float | None = None
    lv: LearnedValue | None = None
    refinement: Refinement | None = None
    confirmed: list[str] = field(default_factory=list)
    undetected: bool = False
    note: str = ""


def _num(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


# ── Detection ─────────────────────────────────────────────────────────────


def detect_point_anomalies(values: tuple[float, ...], td: TrainingData) -> list[Anomaly]:
    """Attribute values of a quantized failure vector never seen in any success."""
    if len(values) != len(td.schema):
        raise ReasonerError(
            f"failure vector has {len(values)} attributes, schema has {len(td.schema)}"
        )
    found = []
    for spec in td.schema.attributes:
        v = values[spec.index - 1]
        if not td.contains_value(spec.index, v):
            found.append(Anomaly(spec.index, spec.name, v, POINT))
    return found


def detect_collective_anomalies(
    values: tuple[float, ...], td: TrainingData, relationships
) -> list[Anomaly]:
    """Value combinations of a quantized failure vector never seen together
    although each value is known.

    Runs over the registered master/slave pairs only; the anomaly lands on the
    slave attribute (the one the refinement will touch), tagged with the
    master's quantized bucket.
    """
    found = []
    for rel in relationships:
        if rel.kind != SLAVE:
            continue
        master, slave = rel.master, rel.attribute
        mv = values[master - 1]
        sv = values[slave - 1]
        if not td.contains_value(master, mv) or not td.contains_value(slave, sv):
            continue
        if td.contains_joint([master, slave], [mv, sv]):
            continue
        bucket = td.schema.quantize(master, mv)
        slave_name = td.schema.spec(slave).name
        found.append(Anomaly(slave, slave_name, sv, COLLECTIVE, master, bucket))
    return found


# ── Selection ─────────────────────────────────────────────────────────────


def select_outlier(anomalies: list[Anomaly], relationships) -> Outlier | None:
    """Pick the single anomaly worth refining this episode.

    Point anomalies win over collective ones. Among several point anomalies a
    master attribute is repaired first and slave attributes wait for a later
    episode; independents break ties by attribute order.
    """
    if not anomalies:
        return None
    masters = {r.master for r in relationships if r.kind == SLAVE}
    slaves = {r.attribute for r in relationships if r.kind == SLAVE}

    points = [a for a in anomalies if a.kind == POINT]
    if len(points) == 1:
        return _as_outlier(points[0], "single point anomaly")
    if points:
        def rank(a: Anomaly) -> tuple[int, int]:
            if a.index in masters:
                tier = 0
            elif a.index in slaves:
                tier = 2
            else:
                tier = 1
            return (tier, a.index)

        best = min(points, key=rank)
        return _as_outlier(best, "master/independent first among point anomalies")

    best = min(anomalies, key=lambda a: a.index)
    return _as_outlier(best, "collective anomaly on slave attribute")


def _as_outlier(a: Anomaly, rationale: str) -> Outlier:
    return Outlier(a.index, a.attribute, a.value, a.kind, rationale, a.bucket_by, a.bucket)


# ── Learning ──────────────────────────────────────────────────────────────


def learn_value(out: Outlier, nn: float, eta: float) -> LearnedValue | None:
    """One learning step from the outlier toward its nearest neighbour.

    Returns None when the outlier equals its neighbour (nothing to learn).
    """
    if eta <= 0:
        raise ReasonerError(f"learning rate must be positive, got {eta}")
    if out.value > nn:
        return LearnedValue(out.index, out.attribute, out.value - eta)
    if out.value < nn:
        return LearnedValue(out.index, out.attribute, out.value + eta)
    return None


# ── Refinement ────────────────────────────────────────────────────────────


def refine(
    lv: LearnedValue,
    out: Outlier,
    kb: KnowledgeBase,
    td: TrainingData,
    *,
    stamp: int = 0,
) -> Refinement:
    """Validate a learned value against the success history and update the KB.

    A value strictly inside the quantized range of already-successful values
    cannot be the failure cause; the pending temporary on the target fluent is
    reverted instead. Anything at or beyond the range boundary replaces the
    bound on the side the outlier violated. Collective outliers always target
    the bucketed bound keyed by the master's value.
    """
    spec = td.schema.spec(out.index)
    qrange = td.quantized_range(out.index, out.bucket_by, out.bucket)
    if qrange is None:
        return Refinement(NO_OP)
    qmin, qmax = qrange

    condition = None
    if out.kind == COLLECTIVE:
        fluent = spec.kb_fluent_upper
        condition = out.bucket
    elif out.value > qmax:
        fluent = spec.kb_fluent_upper
    elif out.value < qmin:
        fluent = spec.kb_fluent_lower
    elif abs(out.value - qmax) <= abs(out.value - qmin):
        # the outlier sits in a coverage gap; repair the nearer bound
        fluent = spec.kb_fluent_upper
    else:
        fluent = spec.kb_fluent_lower
    if fluent is None:
        log.warning("attribute %s has no mapped bound fluent", out.attribute)
        return Refinement(NO_OP)

    if qmin < lv.value < qmax:
        kb.revert_to_confirmed(fluent, condition)
        return Refinement(REJECTED_REVERTED, fluent, condition)
    kb.apply_temporary(fluent, lv.value, stamp, condition)
    return Refinement(APPLIED_TEMPORARY, fluent, condition)


# ── Top-level feedback pass ───────────────────────────────────────────────


def process_feedback(
    fb,
    kb: KnowledgeBase,
    td: TrainingData,
    *,
    episode: int = 0,
) -> StepReport:
    """Fold one execution feedback into the stores and report what happened."""
    schema = td.schema

    if fb.outcome == SUCCESS:
        td.add_success(fb.observed)
        report = StepReport(episode, SUCCESS)
        _confirm_matching(fb, kb, schema, report)
        return report

    qvec = schema.quantize_vector(fb.observed.values)
    anomalies = detect_point_anomalies(qvec, td)
    if not anomalies:
        anomalies = detect_collective_anomalies(qvec, td, kb.relationships)
    report = StepReport(episode, FAILURE, anomalies=anomalies)

    outlier = select_outlier(anomalies, kb.relationships)
    if outlier is None:
        report.undetected = True
        report.note = "no anomaly found"
        return report
    report.outlier = outlier

    try:
        nn = td.nearest_neighbor(outlier.index, outlier.value, outlier.bucket_by, outlier.bucket)
    except EmptyColumnError:
        report.undetected = True
        report.note = "no successful history for attribute"
        return report
    report.nn = nn

    lv = learn_value(outlier, nn, schema.eta(outlier.index))
    if lv is None:
        report.undetected = True
        report.refinement = Refinement(NO_OP)
        report.note = "outlier equals nearest neighbour"
        return report
    report.lv = lv

    report.refinement = refine(lv, outlier, kb, td, stamp=episode)
    return report


def _confirm_matching(fb, kb: KnowledgeBase, schema: AttributeSchema, report: StepReport) -> None:
    """Confirm any pending temporary whose value the success just reproduced."""
    slave_master = {r.attribute: r.master for r in kb.relationships if r.kind == SLAVE}
    for entry in kb.temporaries():
        mapped = schema.by_fluent(entry.fluent)
        if mapped is None:
            continue
        spec, _side = mapped
        observed = fb.observed.values[spec.index - 1]
        if schema.quantize(spec.index, observed) != entry.value:
            continue
        if entry.condition is not None:
            master = slave_master.get(spec.index)
            if master is None:
                continue
            mv = fb.observed.values[master - 1]
            if schema.quantize(master, mv) != entry.condition:
                continue
        kb.confirm_top(entry.fluent, entry.condition)
        tag = entry.fluent
        if entry.condition is not None:
            tag += f"@{_num(entry.condition)}"
        report.confirmed.append(tag)
