"""Grounded breadth-first planner over the supported PDDL subset.

State spaces here are tiny, so the planner grounds every type-correct action
up front. Each schema is compiled per call into templates of parameter slots,
and a binding is a plain tuple of objects. Numeric fluents never change
during a plan, and neither do the atoms of a predicate no action adds or
deletes. So a parameter's pool is first narrowed to the objects such static
atoms hold in its position, and an action whose comparisons fail on the
problem's fluents, or that needs a static atom the problem lacks, is never
built. The search runs over facts-only states, breadth-first. A successor
index keys each ground action by its first precondition atom of a changed
predicate, so a state is expanded through the actions its atoms key (and
those keyed by none). They are tried in name order, which makes plans
deterministic.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .pddl import (
    COMPARISON_OPS,
    ActionSchema,
    Atom,
    Comparison,
    DomainModel,
    Effect,
    EvaluationError,
    ProblemInstance,
    apply_effect,
    binding_pools,
    ground_atom,
)

DEFAULT_MAX_DEPTH = 10


class PlannerError(Exception):
    pass


class NoPlanFound(PlannerError):
    pass


@dataclass(frozen=True)
class GroundAction:
    schema: str
    args: tuple[str, ...]
    atoms: tuple[Atom, ...]
    effect: Effect

    @property
    def name(self) -> str:
        return f"({' '.join((self.schema,) + self.args)})"

    def applicable(self, facts: frozenset[Atom]) -> bool:
        return facts.issuperset(self.atoms)


@dataclass(frozen=True)
class Plan:
    steps: tuple[GroundAction, ...]

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    diagnostic: str = ""

    def __bool__(self) -> bool:
        return self.ok


def ground_actions(domain: DomainModel, problem: ProblemInstance) -> list[GroundAction]:
    """The type-correct instantiations that can ever apply on ``problem``, sorted by name.

    Each schema is compiled once per call: every precondition, add and delete
    atom becomes a template of slots, one per parameter and then one per
    constant, so a binding is a plain ``itertools.product`` tuple and an atom
    is read off it by index. A parameter that appears in a static
    precondition atom has its pool narrowed first to the objects ``:init``
    holds in that position (a superset of what the first check below keeps).

    Three kinds are dropped, checked in this order, so a binding's atoms are
    built only once the first two checks pass:
    - those whose precondition holds an atom of a static predicate (one no
      action adds or deletes) that ``:init`` lacks: no state ever holds it;
    - those with a failing comparison: the fluents never change either;
    - self-loop moves, which delete only atoms they add and add only atoms
      their precondition requires: effects delete before they add, so
      applying one gives back the state it applied in.
    """
    changed = _changed_predicates(domain)
    held: dict[str, set[tuple[str, ...]]] = {}
    for fact in problem.init_facts:
        if fact.name not in changed:
            held.setdefault(fact.name, set()).add(fact.args)
    # One Atom per ground atom, shared by every action that names it, so the
    # search's set lookups match on identity before comparing fields.
    interned: dict[tuple[str, tuple[str, ...]], Atom] = {}
    out: list[GroundAction] = []
    for schema in domain.actions:
        names = [v for v, _t in schema.params]
        slots = {v: i for i, v in enumerate(names)}
        pre, eff = schema.precondition.atoms, schema.effect
        # The precondition, add and delete atoms in turn. Slots below
        # len(names) are parameters; each constant takes the next free slot.
        template = [
            (a.name, tuple(slots.setdefault(arg, len(slots)) for arg in a.args))
            for a in pre + eff.adds + eff.dels
        ]
        constants = tuple(slots)[len(names):]
        n_pre, n_adds = len(pre), len(pre) + len(eff.adds)
        static = [(held.get(name, set()), slot) for name, slot in template[:n_pre] if name not in changed]
        pools = binding_pools(schema.params, problem.objects)
        for facts, slot in static:
            for position, i in enumerate(slot):
                if i < len(names):
                    objects = {args[position] for args in facts}
                    pools[i] = [o for o in pools[i] if o in objects]
        for combo in itertools.product(*pools):
            values = combo + constants
            if static and any(tuple(map(values.__getitem__, slot)) not in facts for facts, slot in static):
                continue
            if schema.precondition.comparisons and _failed_gate(schema, dict(zip(names, combo)), problem):
                continue
            keys = [(name, tuple(map(values.__getitem__, slot))) for name, slot in template]
            if set(keys[n_adds:]) <= set(keys[n_pre:n_adds]) <= set(keys[:n_pre]):
                continue
            ground = [interned.get(k) or interned.setdefault(k, Atom(*k)) for k in keys]
            effect = Effect(tuple(ground[n_pre:n_adds]), tuple(ground[n_adds:]))
            out.append(GroundAction(schema.name, combo, tuple(ground[:n_pre]), effect))
    out.sort(key=lambda ga: ga.name)
    return out


def _changed_predicates(domain: DomainModel) -> set[str]:
    """Names of the predicates some action adds or deletes; the others are static."""
    return {a.name for schema in domain.actions for a in schema.effect.adds + schema.effect.dels}


def _failed_gate(schema: ActionSchema, binding: dict[str, str], problem: ProblemInstance) -> Comparison | None:
    """The first of the schema's comparisons that fails under ``binding``, ground; None if all hold."""
    for c in schema.precondition.comparisons:
        lhs, rhs = ground_atom(c.lhs, binding), ground_atom(c.rhs, binding)
        if not COMPARISON_OPS[c.op](_fluent(problem, lhs), _fluent(problem, rhs)):
            return Comparison(c.op, lhs, rhs)
    return None


def _fluent(problem: ProblemInstance, term: Atom) -> float:
    try:
        return problem.init_fluents[term]
    except KeyError:
        raise EvaluationError(f"unresolvable fluent: {term.render()}") from None


def find_plan(
    domain: DomainModel,
    problem: ProblemInstance,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> Plan:
    """Shortest plan by breadth-first search, or NoPlanFound within the bound."""
    actions = ground_actions(domain, problem)
    goal = frozenset(problem.goal)
    start = problem.init_facts

    if goal <= start:
        return Plan(())

    # Successor index: each action under the first precondition atom of a
    # predicate that actions change, or under None if it has none. A state's
    # candidates are the actions under its atoms and under None; every other
    # action lacks an atom of the state, so it cannot apply there.
    changed = _changed_predicates(domain)
    successors: dict[Atom | None, list[int]] = {None: []}
    for rank, ga in enumerate(actions):
        key = next((a for a in ga.atoms if a.name in changed), None)
        successors.setdefault(key, []).append(rank)

    seen = {start}
    queue: deque[tuple[frozenset[Atom], tuple[GroundAction, ...]]] = deque([(start, ())])
    while queue:
        facts, path = queue.popleft()
        if len(path) >= max_depth:
            continue
        # Sorted by rank, so actions are tried in name order as over the full list.
        for rank in sorted(itertools.chain(successors[None], *(successors.get(a, ()) for a in facts))):
            ga = actions[rank]
            if not ga.applicable(facts):
                continue
            nxt = apply_effect(facts, ga.effect)
            if nxt in seen:
                continue
            steps = path + (ga,)
            if goal <= nxt:
                return Plan(steps)
            seen.add(nxt)
            queue.append((nxt, steps))
    raise NoPlanFound(f"no plan within depth {max_depth} for problem {problem.name!r}")


def validate_plan(domain: DomainModel, problem: ProblemInstance, plan: Plan) -> ValidationResult:
    """Replay a plan from Init; report the first failing step if any.

    Each step's comparisons come from its schema in ``domain`` and are
    evaluated on ``problem``'s fluents, so a plan found for one problem can be
    checked against new fluent values.
    """
    facts = problem.init_facts
    for i, ga in enumerate(plan.steps, start=1):
        schema = domain.action(ga.schema)
        failed = _failed_gate(schema, dict(zip([p for p, _t in schema.params], ga.args)), problem)
        if failed is not None:
            return ValidationResult(False, f"step {i} {ga.name}: comparison {failed.render()} failed")
        missing = [a for a in ga.atoms if a not in facts]
        if missing:
            return ValidationResult(
                False, f"step {i} {ga.name}: missing {missing[0].render()}"
            )
        facts = apply_effect(facts, ga.effect)
    if not frozenset(problem.goal) <= facts:
        unmet = next(a for a in problem.goal if a not in facts)
        return ValidationResult(False, f"goal not satisfied: {unmet.render()}")
    return ValidationResult(True)


def format_plan(plan: Plan) -> str:
    """Timed listing with a cost header, one step per line."""
    lines = [f"; Cost : {len(plan.steps)}"]
    for i, ga in enumerate(plan.steps):
        lines.append(f"{i * 0.001:.3f}: {ga.name} [0.001]")
    return "\n".join(lines) + "\n"
