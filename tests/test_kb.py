import csv
import hashlib

import pytest

from adkra import defaults
from adkra.kb import (
    CONFIRMED,
    TEMPORARY,
    AttributeSchema,
    AttributeSpec,
    KnowledgeBase,
    KnowledgeBaseError,
    UnknownFluentError,
    ground_key,
    split_key,
)

MAXDIS = defaults.MAXDIS
MAXHW = defaults.MAXHWANGLE


@pytest.fixture
def kb():
    return KnowledgeBase(dict(defaults.INITIAL_KB))


def test_key_round_trip():
    key = ground_key("maxdis", "grp")
    assert key == "maxdis(grp)"
    assert split_key(key) == ("maxdis", ("grp",))
    assert split_key("bare") == ("bare", ())
    assert split_key(ground_key("dist_to", "wp0", "wp1")) == ("dist_to", ("wp0", "wp1"))


def test_quantize_rounds_half_up():
    schema = defaults.GRIP_SCHEMA
    cases = {
        23.4: 23.0,
        23.5: 24.0,
        -24.5: -24.0,
        -25.2: -25.0,
        -25.6: -26.0,
        0.5: 1.0,
        -0.5: 0.0,
    }
    for raw, want in cases.items():
        assert schema.quantize(1, raw) == want
    fine = AttributeSpec(1, "x", 0.5, 0.5, "maxx", "minx")
    half = AttributeSchema((fine,))
    assert half.quantize(1, 0.74) == 0.5
    assert half.quantize(1, 0.76) == 1.0


def test_quantize_vector_checks_arity():
    schema = defaults.GRIP_SCHEMA
    assert schema.quantize_vector((23.6, -17.4)) == (24.0, -17.0)
    with pytest.raises(KnowledgeBaseError, match="expected 2 values"):
        schema.quantize_vector((1.0,))


def test_schema_validation():
    spec = AttributeSpec(2, "x", 1.0, 1.0, "maxx", "minx")
    with pytest.raises(KnowledgeBaseError, match="contiguous"):
        AttributeSchema((spec,))
    with pytest.raises(KnowledgeBaseError, match="positive"):
        AttributeSchema((AttributeSpec(1, "x", 1.0, 0.0, "maxx", "minx"),))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(KnowledgeBaseError, match="finite"):
            AttributeSchema((AttributeSpec(1, "x", 1.0, bad, "maxx", "minx"),))
        with pytest.raises(KnowledgeBaseError, match="finite"):
            AttributeSchema((AttributeSpec(1, "x", bad, 1.0, "maxx", "minx"),))


def test_by_fluent_resolves_side():
    schema = defaults.GRIP_SCHEMA
    assert schema.by_fluent(MAXDIS).name == "distance"
    assert schema.by_fluent(defaults.MINDIS).name == "distance"
    assert schema.by_fluent(defaults.MINHWANGLE).name == "angle"
    with pytest.raises(KnowledgeBaseError, match="no attribute owns"):
        schema.by_fluent("nosuch(grp)")


def _coupled(*masters):
    return AttributeSchema(
        tuple(
            AttributeSpec(i, f"a{i}", 1.0, 1.0, f"max{i}", f"min{i}", master=m)
            for i, m in enumerate(masters, start=1)
        )
    )


def test_relationship_validation():
    assert _coupled(None, 1).spec(2).master == 1
    assert _coupled(2, None, 2).spec(3).master == 2
    for bad in (0, 3, -1):
        with pytest.raises(KnowledgeBaseError, match="no master attribute"):
            _coupled(None, bad)
    with pytest.raises(KnowledgeBaseError, match="own master"):
        _coupled(1, None)


def test_relationship_cycle_detection():
    with pytest.raises(KnowledgeBaseError, match="has a master itself"):
        _coupled(2, 1)
    # a chain is rejected too: a slave's master must be independent
    with pytest.raises(KnowledgeBaseError, match="has a master itself"):
        _coupled(None, 1, 2)


def _entry(kb, fluent, condition=None):
    return next(e for e in kb.entries() if (e.fluent, e.condition) == (fluent, condition))


def _history(kb, fluent, condition=None):
    return [(r.value, r.status) for r in _entry(kb, fluent, condition).history]


def test_temporary_then_confirm(kb):
    assert kb.get_effective_value(MAXDIS) == 23.0
    assert _entry(kb, MAXDIS).status == CONFIRMED

    kb.apply_temporary(MAXDIS, 26.0, stamp=4)
    assert kb.get_effective_value(MAXDIS) == 26.0
    assert _history(kb, MAXDIS) == [(23.0, CONFIRMED), (26.0, TEMPORARY)]

    kb.confirm_top(MAXDIS)
    assert _history(kb, MAXDIS) == [(23.0, CONFIRMED), (26.0, CONFIRMED)]


def test_temporary_replaces_instead_of_stacking(kb):
    kb.apply_temporary(MAXDIS, 26.0, stamp=4)
    kb.apply_temporary(MAXDIS, 25.0, stamp=7)
    entry = next(e for e in kb.entries() if e.fluent == MAXDIS)
    assert [r.value for r in entry.history] == [23.0, 25.0]
    kb.revert_to_confirmed(MAXDIS)
    assert kb.get_effective_value(MAXDIS) == 23.0
    assert _entry(kb, MAXDIS).status == CONFIRMED


def test_confirm_without_temporary_is_a_noop(kb):
    before = kb.effective_dump()
    kb.confirm_top(MAXDIS)
    assert kb.effective_dump() == before
    assert _history(kb, MAXDIS) == [(23.0, CONFIRMED)]


def test_unknown_fluent_errors(kb):
    with pytest.raises(UnknownFluentError):
        kb.get_effective_value("nosuch(grp)")
    with pytest.raises(UnknownFluentError):
        kb.apply_temporary("nosuch(grp)", 1.0, stamp=0)
    with pytest.raises(UnknownFluentError):
        kb.revert_to_confirmed("nosuch(grp)")


def test_conditional_entries_fall_back_to_global(kb):
    kb.apply_temporary(MAXHW, -17.0, stamp=9, condition=20.0)
    assert kb.get_effective_value(MAXHW, condition=20.0) == -17.0
    assert kb.get_effective_value(MAXHW, condition=21.0) == 0.0
    assert kb.get_effective_value(MAXHW) == 0.0
    assert kb.has_entry(MAXHW, 20.0)
    assert not kb.has_entry(MAXHW, 21.0)


def test_reverting_fresh_conditional_deletes_it(kb):
    kb.apply_temporary(MAXHW, -17.0, stamp=9, condition=20.0)
    kb.revert_to_confirmed(MAXHW, condition=20.0)
    assert not kb.has_entry(MAXHW, 20.0)
    assert kb.get_effective_value(MAXHW, condition=20.0) == 0.0
    # reverting a bucket that never existed is a silent no-op
    kb.revert_to_confirmed(MAXHW, condition=18.0)


def test_confirmed_conditional_survives_revert(kb):
    kb.apply_temporary(MAXHW, -17.0, stamp=9, condition=20.0)
    kb.confirm_top(MAXHW, condition=20.0)
    kb.apply_temporary(MAXHW, -16.0, stamp=12, condition=20.0)
    kb.revert_to_confirmed(MAXHW, condition=20.0)
    assert kb.get_effective_value(MAXHW, condition=20.0) == -17.0


def test_load_initial_resets_history(kb):
    kb.apply_temporary(MAXDIS, 26.0, stamp=4)
    kb.load_initial(MAXDIS, 23.0)
    entry = next(e for e in kb.entries() if e.fluent == MAXDIS)
    assert len(entry.history) == 1
    assert entry.status == CONFIRMED


def test_snapshot_hash_tracks_effective_content(kb):
    before = kb.snapshot_hash()
    assert KnowledgeBase(dict(defaults.INITIAL_KB)).snapshot_hash() == before
    kb.apply_temporary(MAXDIS, 26.0, stamp=4)
    assert kb.snapshot_hash() != before
    kb.revert_to_confirmed(MAXDIS)
    assert kb.snapshot_hash() == before


def _fresh_digest(kb):
    return hashlib.sha256(kb.effective_dump().encode()).hexdigest()[:12]


def test_cached_snapshot_hash_follows_every_write(kb):
    writes = [
        lambda: kb.apply_temporary(MAXDIS, 26.0, stamp=4),
        lambda: kb.confirm_top(MAXDIS),
        lambda: kb.apply_temporary(MAXDIS, 25.0, stamp=9),
        lambda: kb.apply_temporary(MAXDIS, 24.0, stamp=10),  # replaces the temporary
        lambda: kb.apply_temporary(MAXHW, -17.0, stamp=11, condition=20.0),
        lambda: kb.revert_to_confirmed(MAXDIS),
        lambda: kb.revert_to_confirmed(MAXHW, 20.0),  # deletes the conditional entry
        lambda: kb.apply_temporary(MAXHW, -16.0, stamp=12, condition=21.0),
        lambda: kb.confirm_top(MAXHW, 21.0),
        lambda: kb.load_initial(MAXDIS, 30.0),
    ]
    for write in writes:
        before = kb.snapshot_hash()  # warm the cache so a missed invalidation shows
        write()
        assert kb.snapshot_hash() == _fresh_digest(kb) != before


def test_save_load_round_trip(tmp_path, kb):
    """kb_final.csv holds every history record, read back exactly."""
    kb.apply_temporary(MAXDIS, 26.0, stamp=4)
    kb.confirm_top(MAXDIS)
    kb.apply_temporary(MAXDIS, 25.0, stamp=9)
    kb.apply_temporary(MAXHW, -17.0, stamp=11, condition=20.0)

    fpath = tmp_path / "kb.csv"
    kb.save(str(fpath))
    with open(fpath, newline="") as fh:
        read = [
            (r["fluent"], float(r["condition_bucket"]) if r["condition_bucket"] else None,
             float(r["value"]), r["status"], int(r["stamp"]))
            for r in csv.DictReader(fh)
        ]
    assert read == [(e.fluent, e.condition, r.value, r.status, r.stamp) for e in kb.entries() for r in e.history]
    assert _history(kb, MAXDIS) == [(23.0, CONFIRMED), (26.0, CONFIRMED), (25.0, TEMPORARY)]
