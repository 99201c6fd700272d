import hashlib
import logging

import pytest

from adkra import defaults
from adkra.kb import (
    CONFIRMED,
    INDEPENDENT,
    SLAVE,
    TEMPORARY,
    AttributeSchema,
    AttributeSpec,
    KnowledgeBase,
    KnowledgeBaseError,
    Relationship,
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
    fine = AttributeSpec(1, "x", "cm", 0.5, 0.5)
    half = AttributeSchema((fine,))
    assert half.quantize(1, 0.74) == 0.5
    assert half.quantize(1, 0.76) == 1.0


def test_quantize_vector_checks_arity():
    schema = defaults.GRIP_SCHEMA
    assert schema.quantize_vector((23.6, -17.4)) == (24.0, -17.0)
    with pytest.raises(KnowledgeBaseError, match="expected 2 values"):
        schema.quantize_vector((1.0,))


def test_schema_validation():
    spec = AttributeSpec(2, "x", "cm", 1.0, 1.0)
    with pytest.raises(KnowledgeBaseError, match="contiguous"):
        AttributeSchema((spec,))
    with pytest.raises(KnowledgeBaseError, match="positive"):
        AttributeSchema((AttributeSpec(1, "x", "cm", 1.0, 0.0),))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(KnowledgeBaseError, match="finite"):
            AttributeSchema((AttributeSpec(1, "x", "cm", 1.0, bad),))
        with pytest.raises(KnowledgeBaseError, match="finite"):
            AttributeSchema((AttributeSpec(1, "x", "cm", bad, 1.0),))


def test_by_fluent_resolves_side():
    schema = defaults.GRIP_SCHEMA
    spec, side = schema.by_fluent(MAXDIS)
    assert spec.name == "distance" and side == "upper"
    spec, side = schema.by_fluent(defaults.MINHWANGLE)
    assert spec.name == "angle" and side == "lower"
    assert schema.by_fluent("nosuch(grp)") is None


def test_relationship_validation():
    Relationship(1, INDEPENDENT)
    Relationship(2, SLAVE, master=1)
    with pytest.raises(KnowledgeBaseError, match="needs a master"):
        Relationship(2, SLAVE)
    with pytest.raises(KnowledgeBaseError, match="must not name"):
        Relationship(1, INDEPENDENT, master=2)
    with pytest.raises(KnowledgeBaseError, match="own master"):
        Relationship(1, SLAVE, master=1)
    with pytest.raises(KnowledgeBaseError, match="unknown relationship kind"):
        Relationship(1, "friend")


def test_relationship_cycle_detection(kb):
    kb.register_relationship(Relationship(2, SLAVE, master=1))
    with pytest.raises(KnowledgeBaseError, match="cycle"):
        kb.register_relationship(Relationship(1, SLAVE, master=2))
    # replacing attribute 2's record breaks the would-be cycle
    kb.register_relationship(Relationship(2, INDEPENDENT))
    kb.register_relationship(Relationship(1, SLAVE, master=2))
    assert {r.attribute: r.kind for r in kb.relationships} == {1: SLAVE, 2: INDEPENDENT}


def test_temporary_then_confirm(kb):
    assert kb.get_effective_value(MAXDIS) == 23.0
    assert kb.status(MAXDIS) == CONFIRMED

    kb.apply_temporary(MAXDIS, 26.0, stamp=4)
    assert kb.get_effective_value(MAXDIS) == 26.0
    assert kb.status(MAXDIS) == TEMPORARY
    assert kb.last_confirmed(MAXDIS) == 23.0

    kb.confirm_top(MAXDIS)
    assert kb.status(MAXDIS) == CONFIRMED
    assert kb.last_confirmed(MAXDIS) == 26.0


def test_temporary_replaces_instead_of_stacking(kb):
    kb.apply_temporary(MAXDIS, 26.0, stamp=4)
    kb.apply_temporary(MAXDIS, 25.0, stamp=7)
    entry = next(e for e in kb.entries() if e.fluent == MAXDIS)
    assert [r.value for r in entry.history] == [23.0, 25.0]
    kb.revert_to_confirmed(MAXDIS)
    assert kb.get_effective_value(MAXDIS) == 23.0
    assert kb.status(MAXDIS) == CONFIRMED


def test_confirm_without_temporary_is_a_warning_noop(kb, caplog):
    with caplog.at_level(logging.WARNING, logger="adkra.kb"):
        kb.confirm_top(MAXDIS)
    assert "nothing temporary" in caplog.text
    assert kb.status(MAXDIS) == CONFIRMED


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


def test_cached_snapshot_hash_follows_every_write(tmp_path, kb):
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
    path = tmp_path / "kb.csv"
    kb.save(str(path))
    loaded = KnowledgeBase.load(str(path))
    assert loaded.snapshot_hash() == _fresh_digest(loaded) == kb.snapshot_hash()


def test_save_load_round_trip(tmp_path, kb):
    kb.apply_temporary(MAXDIS, 26.0, stamp=4)
    kb.confirm_top(MAXDIS)
    kb.apply_temporary(MAXDIS, 25.0, stamp=9)
    kb.apply_temporary(MAXHW, -17.0, stamp=11, condition=20.0)

    fpath = tmp_path / "kb.csv"
    kb.save(str(fpath))
    loaded = KnowledgeBase.load(str(fpath))

    assert loaded.effective_dump() == kb.effective_dump()
    assert loaded.snapshot_hash() == kb.snapshot_hash()
    assert loaded.last_confirmed(MAXDIS) == 26.0
    assert loaded.status(MAXDIS) == TEMPORARY


def test_load_rejects_bad_rows(tmp_path):
    path = tmp_path / "kb.csv"
    path.write_text("fluent,condition_bucket,value,status,stamp\nmaxdis(grp),,abc,confirmed,0\n")
    with pytest.raises(KnowledgeBaseError, match="line 2"):
        KnowledgeBase.load(str(path))
    path.write_text("fluent,condition_bucket,value,status,stamp\nmaxdis(grp),,23,frozen,0\n")
    with pytest.raises(KnowledgeBaseError, match="bad status"):
        KnowledgeBase.load(str(path))
