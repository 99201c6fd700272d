import random

import pytest

from adkra import defaults
from adkra.experience import (
    FAILURE,
    SUCCESS,
    AttributeVector,
    EmptyColumnError,
    ExperienceError,
    TrainingData,
)

SCHEMA = defaults.GRIP_SCHEMA


def _success(d, a, episode=0):
    return AttributeVector((d, a), SUCCESS, episode)


def _store(pairs):
    td = TrainingData(SCHEMA)
    for i, (d, a) in enumerate(pairs):
        td.add_success(_success(d, a, i))
    return td


def test_vector_validation():
    with pytest.raises(ExperienceError, match="bad outcome"):
        AttributeVector((1.0, 2.0), "meh", 0)
    with pytest.raises(ExperienceError, match="finite"):
        AttributeVector((float("nan"), 2.0), SUCCESS, 0)


def test_add_checks_outcome_and_arity():
    td = TrainingData(SCHEMA)
    with pytest.raises(ExperienceError, match="only accepts success"):
        td.add_success(AttributeVector((1.0, 2.0), FAILURE, 0))
    with pytest.raises(ExperienceError, match="arity"):
        td.add_success(AttributeVector((1.0,), SUCCESS, 0))


def test_contains_value_quantizes_both_sides():
    td = _store([(23.4, -10.0)])
    assert td.contains_value(1, 23.0)
    assert td.contains_value(1, 22.6)
    assert not td.contains_value(1, 24.0)
    assert td.contains_value(2, -9.7)


def test_contains_value_matches_bruteforce():
    rng = random.Random(42)
    rows = [(rng.uniform(10, 30), rng.uniform(-30, 0)) for _ in range(100)]
    td = _store(rows)
    for _ in range(200):
        attr = rng.choice([1, 2])
        probe = rng.uniform(5, 35) if attr == 1 else rng.uniform(-35, 5)
        want = any(
            SCHEMA.quantize(attr, row[attr - 1]) == SCHEMA.quantize(attr, probe)
            for row in rows
        )
        assert td.contains_value(attr, probe) == want


def test_contains_joint_needs_one_matching_row():
    td = _store([(18.0, -10.0), (20.0, -15.0)])
    assert td.contains_joint([1, 2], [20.0, -15.0])
    assert td.contains_joint([1, 2], [20.3, -15.4])
    assert not td.contains_joint([1, 2], [20.0, -10.0])
    assert not td.contains_joint([1, 2], [18.0, -15.0])
    with pytest.raises(ExperienceError, match="length mismatch"):
        td.contains_joint([1], [1.0, 2.0])


def test_column_bucket_filter_is_quantized():
    td = _store([(18.0, -10.0), (20.0, -15.0), (20.4, -17.0), (22.0, -5.0)])
    assert td.column(2) == [-10.0, -15.0, -17.0, -5.0]
    assert td.column(2, bucket_by=1, bucket_value=20.0) == [-15.0, -17.0]
    assert td.column(2, bucket_by=1, bucket_value=19.6) == [-15.0, -17.0]
    assert td.column(2, bucket_by=1, bucket_value=25.0) == []


def test_nearest_neighbor_returns_raw_value():
    td = _store([(23.4, -10.0)])
    assert td.nearest_neighbor(1, 23.0) == 23.4


def test_nearest_neighbor_picks_closest():
    td = _store([(15.0, -1.0), (18.0, -8.0), (22.0, -20.0)])
    assert td.nearest_neighbor(1, 23.0) == 22.0
    assert td.nearest_neighbor(1, 14.0) == 15.0
    assert td.nearest_neighbor(2, -16.0) == -20.0


def test_nearest_neighbor_tie_breaks_toward_median():
    low_heavy = _store([(20.0, 0.0), (20.0, 0.0), (24.0, 0.0)])
    assert low_heavy.nearest_neighbor(1, 22.0) == 20.0  # median 20 < query
    high_heavy = _store([(20.0, 0.0), (24.0, 0.0), (24.0, 0.0)])
    assert high_heavy.nearest_neighbor(1, 22.0) == 24.0  # median 24 > query
    balanced = _store([(20.0, 0.0), (24.0, 0.0)])
    assert balanced.nearest_neighbor(1, 22.0) == 20.0  # median == query


def test_nearest_neighbor_respects_bucket():
    td = _store([(18.0, -3.0), (20.0, -15.0), (20.4, -17.0)])
    assert td.nearest_neighbor(2, -20.0) == -17.0
    assert td.nearest_neighbor(2, -20.0, bucket_by=1, bucket_value=18.0) == -3.0


def test_empty_column_raises():
    td = TrainingData(SCHEMA)
    with pytest.raises(EmptyColumnError):
        td.nearest_neighbor(1, 20.0)
    full = _store([(18.0, -3.0)])
    with pytest.raises(EmptyColumnError):
        full.nearest_neighbor(2, -20.0, bucket_by=1, bucket_value=25.0)


def test_nearest_neighbor_closest_property():
    rng = random.Random(7)
    rows = [(rng.uniform(10, 30), rng.uniform(-30, 0)) for _ in range(60)]
    td = _store(rows)
    for _ in range(100):
        attr = rng.choice([1, 2])
        probe = rng.uniform(5, 35) if attr == 1 else rng.uniform(-35, 5)
        got = td.nearest_neighbor(attr, probe)
        col = [row[attr - 1] for row in rows]
        assert got in col
        assert abs(got - probe) == min(abs(v - probe) for v in col)


def test_save_load_round_trip(tmp_path):
    td = _store([(23.4, -10.0), (18.0, -8.5)])
    path = tmp_path / "td.csv"
    td.save(str(path))
    loaded = TrainingData.load(str(path), SCHEMA)
    assert [r.values for r in loaded.rows] == [r.values for r in td.rows]
    assert [r.episode for r in loaded.rows] == [0, 1]


def test_load_rejects_malformed_files(tmp_path):
    path = tmp_path / "td.csv"
    path.write_text("wrong,header\n")
    with pytest.raises(ExperienceError, match="unexpected header"):
        TrainingData.load(str(path), SCHEMA)
    head = "episode,distance,angle,outcome\n"
    path.write_text(head + "0,1.0\n")
    with pytest.raises(ExperienceError, match="line 2"):
        TrainingData.load(str(path), SCHEMA)
    path.write_text(head + "0,1.0,2.0,success\n1,x,2.0,success\n")
    with pytest.raises(ExperienceError, match="line 3"):
        TrainingData.load(str(path), SCHEMA)
    path.write_text(head + "0,1.0,2.0,failure\n")
    with pytest.raises(ExperienceError, match="non-success"):
        TrainingData.load(str(path), SCHEMA)
