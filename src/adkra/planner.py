"""Grounded breadth-first planner over the supported PDDL subset.

State spaces here are tiny, so the planner grounds every type-correct action
up front, folds the (static) numeric comparisons into a per-action gate, and
searches facts-only states breadth-first. Ties break on the ground action
name, which makes plans deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .pddl import (
    COMPARISON_OPS,
    Atom,
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
    comparisons: tuple[tuple[str, Atom, Atom], ...]  # ground (op, lhs, rhs)
    effect: Effect
    numeric_ok: bool  # the comparisons on the fluents of the problem it was grounded for

    @property
    def name(self) -> str:
        return f"({' '.join((self.schema,) + self.args)})"

    def applicable(self, facts: frozenset[Atom]) -> bool:
        if not self.numeric_ok:
            return False
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
    """All type-correct instantiations, numeric gates pre-evaluated.

    Instantiations whose add and delete lists coincide (self-loop moves) are
    dropped; they can never change a state.
    """
    out: list[GroundAction] = []
    for schema in domain.actions:
        for binding in iter_bindings(schema.params, problem.objects):
            atoms = tuple(ground_atom(a, binding) for a in schema.precondition.atoms)
            # Kept for validate_plan; a list comprehension is cheaper than a generator.
            comps = tuple([
                (c.op, ground_atom(c.lhs, binding), ground_atom(c.rhs, binding))
                for c in schema.precondition.comparisons
            ])
            adds = tuple(ground_atom(a, binding) for a in schema.effect.adds)
            dels = tuple(ground_atom(a, binding) for a in schema.effect.dels)
            if set(adds) == set(dels):
                continue
            numeric_ok = all(
                COMPARISON_OPS[op](_fluent(problem, lhs), _fluent(problem, rhs))
                for op, lhs, rhs in comps
            )
            out.append(
                GroundAction(
                    schema=schema.name,
                    args=tuple(binding[p] for p, _t in schema.params),
                    atoms=atoms,
                    comparisons=comps,
                    effect=Effect(adds, dels),
                    numeric_ok=numeric_ok,
                )
            )
    out.sort(key=lambda ga: ga.name)
    return out


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

    Each step's ground comparisons are evaluated on ``problem``'s fluents, so
    a plan found for one problem can be checked against new fluent values.
    ``domain`` is not read; the steps carry everything the replay needs.
    """
    facts = problem.init_facts
    for i, ga in enumerate(plan.steps, start=1):
        for op, lhs, rhs in ga.comparisons:
            if not COMPARISON_OPS[op](_fluent(problem, lhs), _fluent(problem, rhs)):
                return ValidationResult(
                    False, f"step {i} {ga.name}: comparison ({op} {lhs.render()} {rhs.render()}) failed"
                )
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
