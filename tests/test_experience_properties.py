"""Property tests: every indexed TrainingData query equals a linear scan.

Histories live on the 1 cm / 1 deg grid of the grip schema. Values are drawn
in quarter steps over a narrow range, so rows share buckets and quantization
hits its half-way points; probes also fall half-way between stored values, so
nearest-neighbour queries meet exact ties and even-length medians. Writes, one
row or a bulk of 0-5, are interleaved with queries, so a sorted column cached
before a write and not kept in step with it shows up as a wrong answer.
"""

import csv
import math
import os
import statistics
import tempfile

from hypothesis import event, given, settings
from hypothesis import strategies as st

from adkra import defaults
from adkra.experience import SUCCESS, AttributeVector, EmptyColumnError, TrainingData

SCHEMA = defaults.GRIP_SCHEMA

VALUE = st.one_of(st.integers(-6, 6).map(lambda k: k / 4), st.just(-0.0))
# probes also sit half-way between stored values, where neighbours tie
PROBE = st.one_of(VALUE, st.integers(-7, 6).map(lambda k: k / 4 + 1 / 8))
ATTR = st.sampled_from([1, 2])
BUCKET_BY = st.sampled_from([None, 1, 2])
ADD = st.tuples(st.just("add"), VALUE, VALUE)
EXTEND = st.tuples(st.just("extend"), st.lists(st.tuples(VALUE, VALUE), max_size=5))
ASK = st.tuples(st.just("ask"), ATTR, PROBE, BUCKET_BY, VALUE)


def _q(attr, v):
    return SCHEMA.quantize(attr, v)


# -- the linear scans the index replaces ------------------------------------


def _column(rows, attr, bucket_by, bucket_value):
    if bucket_by is None:
        return [r[attr - 1] for r in rows]
    want = _q(bucket_by, bucket_value)
    return [r[attr - 1] for r in rows if _q(bucket_by, r[bucket_by - 1]) == want]


def _contains_value(rows, attr, value):
    return any(_q(attr, r[attr - 1]) == _q(attr, value) for r in rows)


def _contains_joint(rows, attrs, values):
    return any(all(_q(a, r[a - 1]) == _q(a, v) for a, v in zip(attrs, values)) for r in rows)


def _quantized_range(rows, attr, bucket_by, bucket_value):
    qcol = [_q(attr, v) for v in _column(rows, attr, bucket_by, bucket_value)]
    return (min(qcol), max(qcol)) if qcol else None


def _nearest_neighbor(rows, attr, value, bucket_by, bucket_value):
    col = _column(rows, attr, bucket_by, bucket_value)
    if not col:
        return None
    best = min(abs(v - value) for v in col)
    candidates = sorted({v for v in col if abs(v - value) == best})
    if len(candidates) == 1:
        return candidates[0]
    event("exact tie")
    if len(col) % 2 == 0:
        event("tie with an even-length median")
    median = statistics.median(col)
    return candidates[-1] if median > value else candidates[0]


# -- checks -----------------------------------------------------------------


def _same_float(a, b):
    # -0.0 == 0.0, but the neighbour must be the very value stored first
    return a == b and (a is None or math.copysign(1.0, a) == math.copysign(1.0, b))


def _nn_or_none(td, attr, value, bucket_by, bucket_value):
    try:
        return td.nearest_neighbor(attr, value, bucket_by, bucket_value)
    except EmptyColumnError:
        return None


def _range_or_none(td, attr, bucket_by, bucket_value):
    try:
        return td.quantized_range(attr, bucket_by, bucket_value)
    except EmptyColumnError:
        return None


def _check(td, rows, attr, value, bucket_by, bucket_value):
    other = 3 - attr
    assert td.contains_value(attr, value) == _contains_value(rows, attr, value)
    assert td.contains_joint([attr], [value]) == _contains_joint(rows, [attr], [value])
    for attrs, values in (([attr, other], [value, bucket_value]), ([other, attr], [bucket_value, value])):
        assert td.contains_joint(attrs, values) == _contains_joint(rows, attrs, values)
    assert td.column(attr) == _column(rows, attr, None, None)
    assert td.column(attr, bucket_by, bucket_value) == _column(rows, attr, bucket_by, bucket_value)
    assert _range_or_none(td, attr, bucket_by, bucket_value) == _quantized_range(
        rows, attr, bucket_by, bucket_value
    )
    assert _same_float(
        _nn_or_none(td, attr, value, bucket_by, bucket_value),
        _nearest_neighbor(rows, attr, value, bucket_by, bucket_value),
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(ADD, EXTEND, ASK), min_size=10, max_size=80))
def test_indexed_queries_match_linear_scan(steps):
    td = TrainingData(SCHEMA)
    rows = []
    for step in steps:
        if step[0] == "add":
            rows.append(step[1:])
            td.add_success(AttributeVector(step[1:], SUCCESS, len(rows)))
        elif step[0] == "extend":
            td.extend(AttributeVector(r, SUCCESS, len(rows) + i) for i, r in enumerate(step[1], start=1))
            rows.extend(step[1])
        else:
            _check(td, rows, *step[1:])
    assert td.rows == [AttributeVector(r, SUCCESS, i) for i, r in enumerate(rows, start=1)]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(VALUE, VALUE), min_size=1, max_size=40), st.lists(ASK, min_size=5, max_size=20))
def test_save_load_round_trip_keeps_every_answer(rows, asks):
    td = TrainingData(SCHEMA)
    for i, r in enumerate(rows):
        td.add_success(AttributeVector(r, SUCCESS, i))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "td.csv")
        td.save(path)
        with open(path, newline="") as fh:
            saved = list(csv.reader(fh))[1:]
    loaded = TrainingData(SCHEMA)
    loaded.extend(AttributeVector((float(d), float(a)), outcome, int(e)) for e, d, a, outcome in saved)
    assert loaded.rows == td.rows
    # repr tells -0.0 from 0.0
    assert [tuple(map(repr, r.values)) for r in loaded.rows] == [tuple(map(repr, r.values)) for r in td.rows]
    for _ask, attr, value, bucket_by, bucket_value in asks:
        _check(loaded, rows, attr, value, bucket_by, bucket_value)
