"""Layer spans and the episode clock, hooked into adkra from outside.

A hook replaces a package function, in every adkra module that holds it, by
a wrapper; ``hooked`` puts the originals back. Nothing inside the package
changes. The untraced run hooks one function, ``world.generate_scenario``,
to timestamp episode boundaries. The traced run wraps each layer's public
functions and records spans (id, parent, name, start, end) plus counts taken
at the same boundaries. A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
import weakref
from collections import Counter

from adkra import experience, harness, instantiate, kb, pddl, planner, reasoner, world

QUERY = "experience.query"

# (owner, attribute, span name); a None span name counts calls without a span,
# for functions too hot to time one by one.
LAYER_FUNCTIONS = (
    (pddl, "parse_domain", "pddl.parse_domain"),
    (pddl, "parse_problem", "pddl.parse_problem"),
    (pddl, "validate_problem", "pddl.validate_problem"),
    (pddl, "apply_effect", None),
    # find_plan is grounding plus BFS; with ground_actions as its child span,
    # its self time is the search.
    (planner, "find_plan", "planner.search"),
    (planner, "ground_actions", "planner.ground_actions"),
    (planner, "format_plan", "planner.format_plan"),
    (instantiate, "instantiate_problem", "instantiate.instantiate_problem"),
    (world, "generate_scenario", "world.generate_scenario"),
    (world, "execute_plan", "world.execute_plan"),
    (kb.KnowledgeBase, "snapshot_hash", "kb.snapshot_hash"),
    (experience.TrainingData, "add_success", "experience.add_success"),
    (experience.TrainingData, "contains_value", QUERY),
    (experience.TrainingData, "contains_joint", QUERY),
    (experience.TrainingData, "column", QUERY),
    (experience.TrainingData, "nearest_neighbor", QUERY),
    (reasoner, "process_feedback", "reasoner.process_feedback"),
    (harness, "emit_report", "harness.emit_report"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _o, _a, name in LAYER_FUNCTIONS if name))


@contextlib.contextmanager
def hooked(replacements):
    """Install (owner, attribute, wrapper-factory) hooks; restore on exit.

    A module-level function is replaced in every adkra module that imported
    it by name, so calls from inside the package go through the hook too.
    """
    undo = []
    try:
        for owner, attr, make in replacements:
            original = getattr(owner, attr)
            wrapper = make(original)
            holders = [owner]
            if not isinstance(owner, type):
                holders = [
                    mod
                    for name, mod in list(sys.modules.items())
                    if (name == "adkra" or name.startswith("adkra."))
                    and getattr(mod, attr, None) is original
                ]
            for holder in holders:
                undo.append((holder, attr, original))
                setattr(holder, attr, wrapper)
        yield
    finally:
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)


class EpisodeClock:
    """Episode latencies from successive generate_scenario calls in one phase."""

    def __init__(self):
        self.samples_ns: list[int] = []
        self._last: tuple[str | None, int] | None = None

    def new_operation(self) -> None:
        """An operation boundary: the next draw starts no interval."""
        self._last = None

    def hooks(self):
        return [(world, "generate_scenario", self._wrap)]

    def _wrap(self, fn):
        @functools.wraps(fn)
        def clocked(*args, **kwargs):
            now = time.perf_counter_ns()
            stream = kwargs.get("rng_stream")
            if self._last is not None and self._last[0] == stream:
                self.samples_ns.append(now - self._last[1])
            self._last = (stream, now)
            return fn(*args, **kwargs)

        return clocked


class Tracer:
    """Spans kept in memory, aggregated into calls and self time per name."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        self.trace_id = 0
        self.calls: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.top_ns = 0  # time covered by spans without a parent
        self.counts: Counter[str] = Counter()
        self._stack: list[list[int]] = []  # [span id, time covered by children]
        self._next_id = 0
        self._last_hash: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def hooks(self):
        observers = {
            "planner.ground_actions": self._count_actions,
            "planner.search": self._count_no_plan,
            QUERY: self._count_rows,
            "reasoner.process_feedback": self._count_feedback,
            "kb.snapshot_hash": self._count_snapshot,
        }
        out = []
        for owner, attr, name in LAYER_FUNCTIONS:
            if name is None:
                make = functools.partial(self._counting, f"{owner.__name__.split('.')[-1]}.{attr}")
            else:
                make = functools.partial(self._spanning, name, observers.get(name))
            out.append((owner, attr, make))
        return out

    def _counting(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanning(self, name, observe, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            sid = self._next_id
            parent = self._stack[-1][0] if self._stack else 0
            frame = [sid, 0]
            self._stack.append(frame)
            result = exc = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                dur = end - start
                if self._stack:
                    self._stack[-1][1] += dur
                else:
                    self.top_ns += dur
                self.self_ns[name] += dur - frame[1]
                self.calls[name] += 1
                self.spans.append((sid, parent, name, start, end, self.trace_id))
                if observe is not None:
                    observe(args, result, exc)

        return traced

    # -- counts at the span boundaries ------------------------------------

    def _count_actions(self, args, result, exc):
        if result is not None:
            self.counts["planner.ground_actions.actions"] += len(result)

    def _count_no_plan(self, args, result, exc):
        if isinstance(exc, planner.NoPlanFound):
            self.counts["planner.no_plan"] += 1

    def _count_rows(self, args, result, exc):
        # A linear scan reads every stored row once per query.
        self.counts["experience.rows_scanned"] += len(args[0].rows)

    def _count_feedback(self, args, result, exc):
        if result is None or result.outcome != experience.FAILURE:
            return
        self.counts["reasoner.failures"] += 1
        if result.undetected:
            self.counts["reasoner.undetected"] += 1
        if result.refinement is not None and result.refinement.outcome == reasoner.APPLIED_TEMPORARY:
            self.counts["reasoner.applied"] += 1

    def _count_snapshot(self, args, result, exc):
        store = args[0]
        if self._last_hash.get(store) != result:
            self.counts["kb.snapshot_changed"] += 1
        self._last_hash[store] = result

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end, trace in self.spans:
                fh.write(
                    json.dumps(
                        {"trace": trace, "id": sid, "parent": parent,
                         "name": name, "start_ns": start, "end_ns": end}
                    )
                    + "\n"
                )
