import random
from types import SimpleNamespace

import pytest

from adkra import defaults
from adkra.experience import (
    FAILURE,
    SUCCESS,
    AttributeVector,
    TrainingData,
)
from adkra.kb import SLAVE, KnowledgeBase, Relationship
from adkra.reasoner import (
    APPLIED_TEMPORARY,
    COLLECTIVE,
    NO_OP,
    POINT,
    REJECTED_REVERTED,
    Anomaly,
    Outlier,
    ReasonerError,
    detect_collective_anomalies,
    detect_point_anomalies,
    learn_value,
    process_feedback,
    refine,
    select_outlier,
)

SCHEMA = defaults.GRIP_SCHEMA
MAXDIS = defaults.MAXDIS
MINDIS = defaults.MINDIS
MAXHW = defaults.MAXHWANGLE


def _td(pairs):
    td = TrainingData(SCHEMA)
    for i, (d, a) in enumerate(pairs):
        td.add_success(AttributeVector((float(d), float(a)), SUCCESS, i))
    return td


def _failure(d, a):
    """A quantized failure vector, as the detectors receive it."""
    return (float(d), float(a))


def _range_td(lo=15, hi=23, angle=-10.0):
    return _td([(d, angle) for d in range(lo, hi + 1)])


def _success_fb(d, a, episode=0):
    return SimpleNamespace(outcome=SUCCESS, observed=AttributeVector((d, a), SUCCESS, episode))


def _failure_fb(d, a, episode=0):
    return SimpleNamespace(outcome=FAILURE, observed=AttributeVector((d, a), FAILURE, episode))


# ── Detection ──────────────────────────────────────────────────────────────


def test_point_anomaly_on_unseen_distance():
    anomalies = detect_point_anomalies(_failure(24, -10), _range_td())
    assert [a.render() for a in anomalies] == ["point:distance=24"]
    assert anomalies[0].index == 1 and anomalies[0].kind == POINT


def test_no_point_anomaly_when_covered():
    assert detect_point_anomalies(_failure(20, -10), _range_td()) == []


def test_two_point_anomalies():
    anomalies = detect_point_anomalies(_failure(26, -28), _range_td())
    assert [a.attribute for a in anomalies] == ["distance", "angle"]


def test_point_detection_checks_arity():
    bad = (24.0,)
    with pytest.raises(ReasonerError, match="schema has 2"):
        detect_point_anomalies(bad, _range_td())


def test_collective_anomaly_lands_on_slave_with_master_bucket():
    td = _td([(18, -18), (20, -5)])
    rels = [Relationship(2, SLAVE, master=1)]
    anomalies = detect_collective_anomalies(_failure(20, -18), td, rels)
    assert [a.render() for a in anomalies] == ["collective:angle=-18@20"]
    a = anomalies[0]
    assert (a.index, a.kind, a.bucket_by, a.bucket) == (2, COLLECTIVE, 1, 20.0)


def test_collective_needs_both_marginals_and_missing_joint():
    rels = [Relationship(2, SLAVE, master=1)]
    seen_together = _td([(20, -18)])
    assert detect_collective_anomalies(_failure(20, -18), seen_together, rels) == []
    master_unseen = _td([(18, -18)])
    assert detect_collective_anomalies(_failure(20, -18), master_unseen, rels) == []
    no_slave_rel = detect_collective_anomalies(_failure(20, -18), _td([(18, -18), (20, -5)]), [])
    assert no_slave_rel == []


# ── Selection ──────────────────────────────────────────────────────────────


def test_select_single_point():
    a = Anomaly(2, "angle", -28.0, POINT)
    out = select_outlier([a], [])
    assert out.index == 2 and out.rationale == "single point anomaly"


def test_select_prefers_master_over_slave():
    rels = [Relationship(2, SLAVE, master=1)]
    both = [Anomaly(1, "distance", 26.0, POINT), Anomaly(2, "angle", -28.0, POINT)]
    assert select_outlier(both, rels).index == 1
    assert select_outlier(both[::-1], rels).index == 1


def test_select_prefers_independent_over_slave():
    rels = [Relationship(1, SLAVE, master=2)]  # distance slave of angle here
    both = [Anomaly(1, "distance", 26.0, POINT), Anomaly(2, "angle", -28.0, POINT)]
    assert select_outlier(both, rels).index == 2


def test_select_falls_back_to_lowest_index():
    both = [Anomaly(2, "angle", -28.0, POINT), Anomaly(1, "distance", 26.0, POINT)]
    assert select_outlier(both, []).index == 1


def test_select_point_beats_collective():
    mixed = [
        Anomaly(2, "angle", -18.0, COLLECTIVE, 1, 20.0),
        Anomaly(1, "distance", 26.0, POINT),
    ]
    out = select_outlier(mixed, [Relationship(2, SLAVE, master=1)])
    assert out.kind == POINT and out.index == 1


def test_select_collective_only():
    only = [Anomaly(2, "angle", -18.0, COLLECTIVE, 1, 20.0)]
    out = select_outlier(only, [Relationship(2, SLAVE, master=1)])
    assert out.kind == COLLECTIVE and out.bucket == 20.0
    assert select_outlier([], []) is None


# ── Learning ───────────────────────────────────────────────────────────────


def test_learn_value_steps_toward_neighbour():
    out_high = Outlier(1, "distance", 24.0, POINT, "")
    assert learn_value(out_high, 20.0, 1.0).value == 23.0
    out_low = Outlier(1, "distance", 13.0, POINT, "")
    assert learn_value(out_low, 15.0, 1.0).value == 14.0
    assert learn_value(out_high, 20.0, 0.5).value == 23.5
    assert learn_value(out_high, 24.0, 1.0) is None
    with pytest.raises(ReasonerError, match="positive"):
        learn_value(out_high, 20.0, 0.0)


# ── Refinement ─────────────────────────────────────────────────────────────


@pytest.fixture
def kb():
    kb = KnowledgeBase(dict(defaults.INITIAL_KB))
    kb.load_initial(MAXDIS, 27.0)  # deliberately overstated bound
    return kb


def test_refine_applies_upper_bound(kb):
    td = _range_td()
    out = Outlier(1, "distance", 24.0, POINT, "")
    lv = learn_value(out, 23.0, 1.0)
    result = refine(lv, out, kb, td, stamp=5)
    assert result.render() == "applied_temporary:maxdis(grp)"
    assert kb.get_effective_value(MAXDIS) == 23.0
    assert kb.status(MAXDIS) == "temporary"


def test_refine_applies_lower_bound(kb):
    td = _range_td()
    out = Outlier(1, "distance", 13.0, POINT, "")
    lv = learn_value(out, 15.0, 1.0)
    result = refine(lv, out, kb, td)
    assert result.outcome == APPLIED_TEMPORARY and result.fluent == MINDIS
    assert kb.get_effective_value(MINDIS) == 14.0


def test_refine_rejects_interior_value(kb):
    td = _range_td()
    kb.apply_temporary(MAXDIS, 26.0, stamp=3)
    out = Outlier(1, "distance", 24.0, POINT, "")
    fake_lv = learn_value(out, 16.0, 5.0)  # lands at 19, inside the success range
    result = refine(fake_lv, out, kb, td)
    assert result.outcome == REJECTED_REVERTED
    assert kb.get_effective_value(MAXDIS) == 27.0
    assert kb.status(MAXDIS) == "confirmed"


def test_refine_gap_targets_nearer_bound(kb):
    td = _td([(15, -10), (23, -10)])  # coverage gap between the extremes
    near_upper = Outlier(1, "distance", 20.0, POINT, "")
    result = refine(learn_value(near_upper, 23.0, 1.0), near_upper, kb, td)
    assert result.fluent == MAXDIS
    near_lower = Outlier(1, "distance", 17.0, POINT, "")
    result = refine(learn_value(near_lower, 15.0, 1.0), near_lower, kb, td)
    assert result.fluent == MINDIS
    tie = Outlier(1, "distance", 19.0, POINT, "")
    result = refine(learn_value(tie, 23.0, 1.0), tie, kb, td)
    assert result.fluent == MAXDIS


def test_refine_collective_targets_bucketed_upper(kb):
    td = _td([(18, -18), (20, -5), (20.4, -8)])
    out = Outlier(2, "angle", -18.0, COLLECTIVE, "", 1, 20.0)
    nn = td.nearest_neighbor(2, -18.0, bucket_by=1, bucket_value=20.0)
    assert nn == -8.0
    result = refine(learn_value(out, nn, 1.0), out, kb, td, stamp=7)
    assert result.render() == f"applied_temporary:{MAXHW}@20"
    assert kb.get_effective_value(MAXHW, condition=20.0) == -17.0
    assert kb.get_effective_value(MAXHW) == 0.0  # global bound untouched


def test_refine_interiority_is_bucket_local(kb):
    # angle -15 is interior to the full column but outside bucket 20's range
    td = _td([(18, -18), (18, -2), (20, -5), (20, -8)])
    out = Outlier(2, "angle", -15.0, COLLECTIVE, "", 1, 20.0)
    lv = learn_value(out, -8.0, 1.0)
    result = refine(lv, out, kb, td)
    assert result.outcome == APPLIED_TEMPORARY
    assert kb.get_effective_value(MAXHW, condition=20.0) == -14.0


def test_refine_empty_bucket_is_noop(kb):
    td = _td([(18, -18)])
    out = Outlier(2, "angle", -18.0, COLLECTIVE, "", 1, 25.0)
    result = refine(learn_value(out, -17.0, 1.0), out, kb, td)
    assert result.outcome == NO_OP
    assert not kb.has_entry(MAXHW, 25.0)


# ── Feedback pass ──────────────────────────────────────────────────────────


def test_success_extends_training_data(kb):
    td = _range_td()
    report = process_feedback(_success_fb(19.3, -7.0, episode=41), kb, td, episode=41)
    assert report.outcome == SUCCESS
    assert td.rows[-1].values == (19.3, -7.0)
    assert report.confirmed == []


def test_success_confirms_matching_temporary(kb):
    td = _range_td()
    kb.apply_temporary(MAXDIS, 23.0, stamp=8)
    report = process_feedback(_success_fb(23.4, -7.0), kb, td)
    assert report.confirmed == ["maxdis(grp)"]
    assert kb.status(MAXDIS) == "confirmed"


def test_success_leaves_unmatched_temporary_pending(kb):
    td = _range_td()
    kb.apply_temporary(MAXDIS, 23.0, stamp=8)
    report = process_feedback(_success_fb(21.0, -7.0), kb, td)
    assert report.confirmed == []
    assert kb.status(MAXDIS) == "temporary"


def test_success_confirms_bucketed_temporary_on_bucket_match(kb):
    kb.register_relationship(Relationship(2, SLAVE, master=1))
    td = _range_td()
    kb.apply_temporary(MAXHW, -17.0, stamp=9, condition=20.0)

    other_bucket = process_feedback(_success_fb(21.0, -17.0), kb, td)
    assert other_bucket.confirmed == []

    same_bucket = process_feedback(_success_fb(20.3, -17.2), kb, td)
    assert same_bucket.confirmed == [f"{MAXHW}@20"]
    assert kb.status(MAXHW, condition=20.0) == "confirmed"


def test_failure_full_pass_applies_bound(kb):
    td = _range_td()
    report = process_feedback(_failure_fb(23.7, -10.2, episode=50), kb, td, episode=50)
    assert report.outcome == FAILURE
    assert [a.render() for a in report.anomalies] == ["point:distance=24"]
    assert report.nn == 23.0
    assert report.lv.value == 23.0
    assert report.refinement.render() == "applied_temporary:maxdis(grp)"
    assert kb.get_effective_value(MAXDIS) == 23.0
    assert len(td) == 9  # a failure never enters the success history


def test_failure_with_full_coverage_is_undetected(kb):
    td = _range_td()
    report = process_feedback(_failure_fb(20.0, -10.0), kb, td)
    assert report.undetected and report.note == "no anomaly found"
    assert report.refinement is None


def test_failure_without_history_is_undetected(kb):
    td = TrainingData(SCHEMA)
    report = process_feedback(_failure_fb(24.0, -10.0), kb, td)
    assert report.undetected
    assert report.note == "no successful history for attribute"


def test_failure_matching_neighbour_is_noop(kb):
    td = _range_td()
    td.nearest_neighbor = lambda *a, **k: 24.0  # force the degenerate case
    report = process_feedback(_failure_fb(24.0, -10.0), kb, td)
    assert report.undetected
    assert report.refinement.outcome == NO_OP
    assert report.note == "outlier equals nearest neighbour"


def test_closed_loop_converges_to_true_bound(kb):
    # draw below the believed bound, succeed strictly below d=23, feed back
    td = _range_td(angle=-10.0)
    rng = random.Random(11)
    for episode in range(300):
        upper = kb.get_effective_value(MAXDIS)
        d = rng.uniform(15.0, upper)
        if d < 23.0:
            fb = _success_fb(d, -10.0, episode)
        else:
            fb = _failure_fb(d, -10.0, episode)
        process_feedback(fb, kb, td, episode=episode)
    assert kb.get_effective_value(MAXDIS) == 23.0
