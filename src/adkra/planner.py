"""Grounded breadth-first planner over the supported PDDL subset.

State spaces here are tiny, so the planner grounds every type-correct action
up front. Numeric fluents never change during a plan, and neither do the
atoms of a predicate no action adds or deletes, so an action whose
comparisons fail on the problem's fluents, or that needs such an atom the
problem lacks, is never built. The search runs over facts-only states,
breadth-first. Ties break on the ground action name, which makes plans
deterministic.
"""

from __future__ import annotations

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
    ground_atom,
    iter_bindings,
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
        return all(a in facts for a in self.atoms)


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

    Three kinds are dropped, checked in this order, so a binding's atoms are
    built only once the first two checks pass:
    - those whose precondition holds an atom of a static predicate (one no
      action adds or deletes) that ``:init`` lacks: no state ever holds it;
    - those with a failing comparison: the fluents never change either;
    - self-loop moves, which delete only atoms they add and add only atoms
      their precondition requires: effects delete before they add, so
      applying one gives back the state it applied in.
    """
    changed = {a.name for schema in domain.actions for a in schema.effect.adds + schema.effect.dels}
    held: dict[str, set[tuple[str, ...]]] = {}
    for fact in problem.init_facts:
        if fact.name not in changed:
            held.setdefault(fact.name, set()).add(fact.args)
    out: list[GroundAction] = []
    for schema in domain.actions:
        static = [a for a in schema.precondition.atoms if a.name not in changed]
        for binding in iter_bindings(schema.params, problem.objects):
            if static and any(tuple(map(binding.get, a.args, a.args)) not in held.get(a.name, ()) for a in static):
                continue
            if _failed_gate(schema, binding, problem) is not None:
                continue
            atoms = tuple(ground_atom(a, binding) for a in schema.precondition.atoms)
            adds = tuple(ground_atom(a, binding) for a in schema.effect.adds)
            dels = tuple(ground_atom(a, binding) for a in schema.effect.dels)
            if set(dels) <= set(adds) <= set(atoms):
                continue
            args = tuple(binding[v] for v, _t in schema.params)
            out.append(GroundAction(schema.name, args, atoms, Effect(adds, dels)))
    out.sort(key=lambda ga: ga.name)
    return out


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

    seen = {start}
    queue: deque[tuple[frozenset[Atom], tuple[GroundAction, ...]]] = deque([(start, ())])
    while queue:
        facts, path = queue.popleft()
        if len(path) >= max_depth:
            continue
        for ga in actions:
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
