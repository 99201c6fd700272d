"""Property tests: the KB history invariants hold under any sequence of writes.

Random sequences of ``load_initial``, ``apply_temporary``, ``confirm_top`` and
``revert_to_confirmed`` run over the four grip bounds, either on the
unconditional entries only or also on per-bucket entries. After every step
no entry holds more than one temporary record and that record is on top; a
revert never removes a confirmed record. The saved kb_final.csv, read back,
gives every history record exactly (the sign of -0.0 included).
"""

import csv
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adkra import defaults
from adkra.kb import CONFIRMED, TEMPORARY, KnowledgeBase, UnknownFluentError

FLUENT = st.sampled_from(sorted(defaults.INITIAL_KB))
# grid values, as learning produces them, plus -0.0 and arbitrary finite floats
VALUE = st.one_of(
    st.integers(-60, 60).map(lambda k: k / 2),
    st.just(-0.0),
    st.floats(-1e6, 1e6, allow_nan=False),
)
UNCONDITIONAL = st.just(None)
ANY_CONDITION = st.sampled_from([None, 18.0, 20.5])


def _ops(condition):
    return st.lists(
        st.one_of(
            st.tuples(st.just("load_initial"), FLUENT, VALUE),
            st.tuples(st.just("apply_temporary"), FLUENT, VALUE, condition),
            st.tuples(st.just("confirm_top"), FLUENT, condition),
            st.tuples(st.just("revert_to_confirmed"), FLUENT, condition),
        ),
        max_size=40,
    )


def _confirmed(kb, fluent, condition):
    for e in kb.entries():
        if (e.fluent, e.condition) == (fluent, condition):
            return [r for r in e.history if r.status == CONFIRMED]
    return []


def _top(kb, fluent, condition):
    return next(e.history[-1] for e in kb.entries() if (e.fluent, e.condition) == (fluent, condition))


def _step(kb, op, stamp):
    name, fluent, *rest = op
    if name == "load_initial":
        kb.load_initial(fluent, rest[0], stamp)
    elif name == "apply_temporary":
        kb.apply_temporary(fluent, rest[0], stamp, rest[1])
    elif name == "confirm_top":
        condition = rest[0]
        if kb.has_entry(fluent, condition):
            kb.confirm_top(fluent, condition)
        else:
            with pytest.raises(UnknownFluentError):
                kb.confirm_top(fluent, condition)
    else:
        condition = rest[0]
        floor = _confirmed(kb, fluent, condition)
        kb.revert_to_confirmed(fluent, condition)
        assert _confirmed(kb, fluent, condition) == floor
        if floor:
            assert _top(kb, fluent, condition).status == CONFIRMED
            assert kb.get_effective_value(fluent, condition) == floor[-1].value


def _check_history(kb):
    for e in kb.entries():
        statuses = [r.status for r in e.history]
        assert statuses, f"{e.fluent}@{e.condition} kept an empty history"
        assert TEMPORARY not in statuses[:-1], f"{e.fluent}@{e.condition}: {statuses}"
        if e.condition is None:
            assert statuses[0] == CONFIRMED


@pytest.mark.parametrize("condition", [UNCONDITIONAL, ANY_CONDITION], ids=["unconditional", "bucketed"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_history_invariants_and_round_trip(condition, data):
    kb = KnowledgeBase(dict(defaults.INITIAL_KB))
    for stamp, op in enumerate(data.draw(_ops(condition)), start=1):
        _step(kb, op, stamp)
        _check_history(kb)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "kb.csv")
        kb.save(path)
        with open(path, newline="") as fh:
            read = [
                (r["fluent"], _float(r["condition_bucket"]), _float(r["value"]), r["status"], int(r["stamp"]))
                for r in csv.DictReader(fh)
            ]
    # repr tells -0.0 from 0.0
    assert read == [
        (e.fluent, repr(e.condition), repr(r.value), r.status, r.stamp) for e in kb.entries() for r in e.history
    ]


def _float(text):
    return repr(float(text) if text else None)
