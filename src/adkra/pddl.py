"""PDDL subset for numeric-gated gripping domains.

Supported fragment: :strips :typing :fluents, conjunctive preconditions of
positive literals and binary numeric comparisons over function terms, and
add/delete effects. Anything else is rejected by name rather than silently
mangled. Identifiers are case-insensitive (normalised to lower case); '-' and
'_' are folded only when resolving function names, and the declared spelling
wins for printing.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass, field

COMPARISON_OPS = {
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
}

SUPPORTED_REQUIREMENTS = (":strips", ":typing", ":fluents")


# ── Errors ────────────────────────────────────────────────────────────────


class PddlError(Exception):
    """Base for everything raised while reading or evaluating PDDL."""


class PddlSyntaxError(PddlError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class PddlSemanticError(PddlError):
    pass


class UnsupportedConstructError(PddlError):
    def __init__(self, construct: str, line: int | None = None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"unsupported construct: {construct}{where}")
        self.construct = construct


class EvaluationError(PddlError):
    pass


def fn_key(name: str) -> str:
    """Resolution key for function names: lower case, '-' folded to '_'."""
    return name.lower().replace("-", "_")


# ── Model types ───────────────────────────────────────────────────────────


@dataclass(frozen=True)
class Atom:
    """Predicate or function application; args may be variables (?x) or objects."""

    name: str
    args: tuple[str, ...]

    def render(self) -> str:
        if self.args:
            return "(" + self.name + " " + " ".join(self.args) + ")"
        return "(" + self.name + ")"


@dataclass(frozen=True)
class Comparison:
    op: str
    lhs: Atom
    rhs: Atom

    def render(self) -> str:
        return f"({self.op} {self.lhs.render()} {self.rhs.render()})"


@dataclass(frozen=True)
class Precondition:
    atoms: tuple[Atom, ...]
    comparisons: tuple[Comparison, ...]


@dataclass(frozen=True)
class Effect:
    adds: tuple[Atom, ...]
    dels: tuple[Atom, ...]


@dataclass(frozen=True)
class PredicateSchema:
    """Declared name and typed parameters of a predicate or a function."""

    name: str
    params: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class ActionSchema:
    name: str
    params: tuple[tuple[str, str], ...]
    precondition: Precondition
    effect: Effect


@dataclass
class DomainModel:
    name: str
    requirements: tuple[str, ...]
    types: tuple[str, ...]
    predicates: tuple[PredicateSchema, ...]
    functions: tuple[PredicateSchema, ...]
    actions: tuple[ActionSchema, ...]

    def predicate(self, name: str) -> PredicateSchema | None:
        for p in self.predicates:
            if p.name == name:
                return p
        return None

    def function(self, name: str) -> PredicateSchema | None:
        key = fn_key(name)
        for f in self.functions:
            if fn_key(f.name) == key:
                return f
        return None

    def action(self, name: str) -> ActionSchema | None:
        for a in self.actions:
            if a.name == name:
                return a
        return None


@dataclass
class ProblemInstance:
    name: str
    domain_name: str
    objects: tuple[tuple[str, str], ...]
    init_facts: frozenset[Atom]
    init_fluents: dict[Atom, float] = field(default_factory=dict)
    goal: tuple[Atom, ...] = ()


# ── Tokenizer ─────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class Token:
    kind: str  # lparen rparen id keyword var number op
    text: str
    line: int
    col: int


_NUMBER_RE = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")
_ID_RE = re.compile(r"[A-Za-z][A-Za-z0-9_\-]*")
_OP_RE = re.compile(r"<=|>=|<|>|=")


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "(":
            tokens.append(Token("lparen", "(", line, col))
            i += 1
            col += 1
            continue
        if c == ")":
            tokens.append(Token("rparen", ")", line, col))
            i += 1
            col += 1
            continue
        if c == "?":
            m = _ID_RE.match(text, i + 1)
            if not m:
                raise PddlSyntaxError("bad variable name", line, col)
            tok = "?" + m.group(0).lower()
            tokens.append(Token("var", tok, line, col))
            col += len(tok)
            i = m.end()
            continue
        if c == ":":
            m = _ID_RE.match(text, i + 1)
            if not m:
                raise PddlSyntaxError("bad keyword", line, col)
            tok = ":" + m.group(0).lower()
            tokens.append(Token("keyword", tok, line, col))
            col += len(tok)
            i = m.end()
            continue
        if c.isdigit() or (c in "+-." and i + 1 < n and (text[i + 1].isdigit() or text[i + 1] == ".")):
            m = _NUMBER_RE.match(text, i)
            if m:
                tokens.append(Token("number", m.group(0), line, col))
                col += len(m.group(0))
                i = m.end()
                continue
        m = _OP_RE.match(text, i)
        if m:
            tokens.append(Token("op", m.group(0), line, col))
            col += len(m.group(0))
            i = m.end()
            continue
        m = _ID_RE.match(text, i)
        if m:
            tokens.append(Token("id", m.group(0).lower(), line, col))
            col += len(m.group(0))
            i = m.end()
            continue
        if c == "-":
            tokens.append(Token("id", "-", line, col))
            i += 1
            col += 1
            continue
        raise PddlSyntaxError(f"unexpected character {c!r}", line, col)
    return tokens


# ── Parser ────────────────────────────────────────────────────────────────


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        if self.pos >= len(self.tokens):
            last = self.tokens[-1] if self.tokens else Token("?", "", 1, 1)
            raise PddlSyntaxError("unexpected end of input", last.line, last.col)
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.next()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise PddlSyntaxError(f"expected {want}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    # typed lists: a b - t c - t2 ...
    def typed_list(self, item_kind: str) -> list[tuple[str, str]]:
        out: list[tuple[str, str]] = []
        pending: list[str] = []
        while self.peek().kind != "rparen":
            tok = self.peek()
            if tok.kind == "id" and tok.text == "-":
                self.next()
                typ = self.expect("id")
                if not pending:
                    raise PddlSyntaxError("dangling type marker", tok.line, tok.col)
                out.extend((name, typ.text) for name in pending)
                pending = []
            elif tok.kind == item_kind:
                pending.append(self.next().text)
            else:
                raise PddlSyntaxError(f"expected {item_kind} or '-', found {tok.text!r}", tok.line, tok.col)
        if pending:
            tok = self.peek()
            raise PddlSyntaxError("untyped name in typed list (typing is required)", tok.line, tok.col)
        return out

    def literal(self, head: str = "id", ground: bool = False, numbers: str = "") -> Atom:
        """Read ``name arg* )``, the rest of a literal or function term after its ``(``.

        ``head`` names what a bad name was expected to be. A ground literal
        takes objects only, no variables. With ``numbers`` set, a numeric
        argument is an unsupported numeric constant in that construct.
        """
        name = self.next()
        if name.kind != "id":
            raise PddlSyntaxError(f"expected {head}, found {name.text!r}", name.line, name.col)
        kinds = ("id",) if ground else ("id", "var")
        args: list[str] = []
        while self.peek().kind != "rparen":
            arg = self.next()
            if numbers and arg.kind == "number":
                raise UnsupportedConstructError(f"numeric constant in {numbers}", arg.line)
            if arg.kind not in kinds:
                noun = "object" if ground else "argument"
                raise PddlSyntaxError(f"expected {noun}, found {arg.text!r}", arg.line, arg.col)
            args.append(arg.text)
        self.expect("rparen")
        return Atom(name.text, tuple(args))


def _conjuncts(p: _Parser):
    """Walk ``(and c*)`` or a lone ``c``.

    Yields the first token inside each conjunct, its ``(`` already read; the
    caller reads the conjunct through its closing ``)`` before resuming.
    """
    p.expect("lparen")
    if p.peek().kind == "id" and p.peek().text == "and":
        p.next()
        while p.peek().kind != "rparen":
            p.expect("lparen")
            yield p.peek()
        p.expect("rparen")
    else:
        yield p.peek()


def _parse_precondition(p: _Parser) -> Precondition:
    atoms: list[Atom] = []
    comparisons: list[Comparison] = []
    for tok in _conjuncts(p):
        if tok.kind == "op":
            op = p.next().text
            if op == "=":
                raise UnsupportedConstructError("equality comparison in precondition", tok.line)
            lhs = _function_term(p)
            closer = p.peek()
            if closer.kind == "rparen":
                raise PddlSyntaxError("comparison missing second argument", closer.line, closer.col)
            rhs = _function_term(p)
            p.expect("rparen")
            comparisons.append(Comparison(op, lhs, rhs))
        elif tok.kind == "id" and tok.text == "not":
            raise UnsupportedConstructError("negative precondition", tok.line)
        elif tok.kind == "id" and tok.text in ("or", "imply", "forall", "exists", "when"):
            raise UnsupportedConstructError(tok.text, tok.line)
        else:
            atoms.append(p.literal("predicate", numbers="precondition"))
    return Precondition(tuple(atoms), tuple(comparisons))


def _function_term(p: _Parser) -> Atom:
    tok = p.peek()
    if tok.kind == "number":
        raise UnsupportedConstructError("numeric constant in comparison", tok.line)
    p.expect("lparen")
    return p.literal()


def _parse_effect(p: _Parser) -> Effect:
    adds: list[Atom] = []
    dels: list[Atom] = []
    for tok in _conjuncts(p):
        if tok.kind == "id" and tok.text in ("increase", "decrease", "assign", "scale-up", "scale-down"):
            raise UnsupportedConstructError(f"numeric effect '{tok.text}'", tok.line)
        if tok.kind == "id" and tok.text in ("when", "forall"):
            raise UnsupportedConstructError(tok.text, tok.line)
        if tok.kind == "id" and tok.text == "not":
            p.next()
            p.expect("lparen")
            dels.append(p.literal())
            p.expect("rparen")
        else:
            adds.append(p.literal("effect literal"))
    return Effect(tuple(adds), tuple(dels))


def _parse_goal(p: _Parser) -> tuple[Atom, ...]:
    atoms: list[Atom] = []
    for tok in _conjuncts(p):
        if tok.kind == "op":
            raise UnsupportedConstructError("comparison in goal", tok.line)
        atoms.append(p.literal())
    return tuple(atoms)


def parse_domain(text: str) -> DomainModel:
    """Parse and validate a domain in the supported fragment."""
    p = _Parser(text)
    p.expect("lparen")
    p.expect("id", "define")
    p.expect("lparen")
    p.expect("id", "domain")
    name = p.expect("id").text
    p.expect("rparen")

    requirements: tuple[str, ...] = ()
    types: tuple[str, ...] = ()
    predicates: list[PredicateSchema] = []
    functions: list[PredicateSchema] = []
    actions: list[ActionSchema] = []

    while p.peek().kind != "rparen":
        p.expect("lparen")
        section = p.next()
        if section.kind != "keyword":
            raise PddlSyntaxError(f"expected section keyword, found {section.text!r}", section.line, section.col)
        if section.text == ":requirements":
            reqs = []
            while p.peek().kind != "rparen":
                r = p.expect("keyword")
                if r.text not in SUPPORTED_REQUIREMENTS:
                    raise UnsupportedConstructError(f"requirement {r.text}", r.line)
                reqs.append(r.text)
            requirements = tuple(reqs)
            p.expect("rparen")
        elif section.text == ":types":
            ts = []
            while p.peek().kind != "rparen":
                tok = p.next()
                if tok.kind == "id" and tok.text == "-":
                    raise UnsupportedConstructError("type hierarchy", tok.line)
                if tok.kind != "id":
                    raise PddlSyntaxError(f"expected type name, found {tok.text!r}", tok.line, tok.col)
                ts.append(tok.text)
            types = tuple(ts)
            p.expect("rparen")
        elif section.text in (":predicates", ":functions"):
            declared = predicates if section.text == ":predicates" else functions
            while p.peek().kind != "rparen":
                p.expect("lparen")
                dname = p.expect("id").text
                declared.append(PredicateSchema(dname, tuple(p.typed_list("var"))))
                p.expect("rparen")
            p.expect("rparen")
        elif section.text == ":action":
            aname = p.expect("id").text
            params: tuple[tuple[str, str], ...] = ()
            precondition = Precondition((), ())
            effect = Effect((), ())
            while p.peek().kind != "rparen":
                part = p.expect("keyword")
                if part.text == ":parameters":
                    p.expect("lparen")
                    params = tuple(p.typed_list("var"))
                    p.expect("rparen")
                elif part.text == ":precondition":
                    precondition = _parse_precondition(p)
                elif part.text == ":effect":
                    effect = _parse_effect(p)
                else:
                    raise UnsupportedConstructError(f"action part {part.text}", part.line)
            p.expect("rparen")
            actions.append(ActionSchema(aname, params, precondition, effect))
        elif section.text in (":durative-action", ":constraints", ":derived", ":constants"):
            raise UnsupportedConstructError(section.text, section.line)
        else:
            raise UnsupportedConstructError(f"section {section.text}", section.line)
    p.expect("rparen")
    if not p.at_end():
        tok = p.peek()
        raise PddlSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.col)

    model = DomainModel(name, requirements, types, tuple(predicates), tuple(functions), tuple(actions))
    _validate_domain(model)
    return _canonicalise_functions(model)


def _validate_domain(d: DomainModel) -> None:
    if len(set(d.types)) != len(d.types):
        raise PddlSemanticError("duplicate type declaration")
    # A declaration clashes when looking its name up finds an earlier one.
    for kind, declared, lookup, clash in (
        ("predicate", d.predicates, d.predicate, "duplicate predicate"),
        ("function", d.functions, d.function, "function name collision under -/_ folding:"),
    ):
        for sig in declared:
            if lookup(sig.name) is not sig:
                raise PddlSemanticError(f"{clash} {sig.name}")
            for _v, t in sig.params:
                if t not in d.types:
                    raise PddlSemanticError(f"undeclared type {t} in {kind} {sig.name}")
    seen_actions = set()
    for a in d.actions:
        if a.name in seen_actions:
            raise PddlSemanticError(f"duplicate action {a.name}")
        seen_actions.add(a.name)
        declared = {}
        for v, t in a.params:
            if t not in d.types:
                raise PddlSemanticError(f"undeclared type {t} in action {a.name}")
            if v in declared:
                raise PddlSemanticError(f"duplicate parameter {v} in action {a.name}")
            declared[v] = t
        for atom in a.precondition.atoms:
            _check_use(d, atom, "predicate", declared, a.name)
        for cmps in a.precondition.comparisons:
            for side in (cmps.lhs, cmps.rhs):
                _check_use(d, side, "function", declared, a.name)
        for atom in a.effect.adds + a.effect.dels:
            _check_use(d, atom, "predicate", declared, a.name)


def _signature(d: DomainModel, atom: Atom, kind: str, where: str) -> PredicateSchema:
    """Look up the declaration ``atom`` applies (``kind`` names which table); check its arity."""
    sig = d.predicate(atom.name) if kind == "predicate" else d.function(atom.name)
    if sig is None:
        raise PddlSemanticError(f"undeclared {kind} {atom.name} in {where}")
    if len(atom.args) != len(sig.params):
        what = atom.name if kind == "predicate" else f"function {atom.name}"
        raise PddlSemanticError(f"arity mismatch for {what} in {where}")
    return sig


def _check_use(d: DomainModel, atom: Atom, kind: str, declared: dict[str, str], where: str) -> None:
    _signature(d, atom, kind, where)
    for arg in atom.args:
        if arg.startswith("?") and arg not in declared:
            raise PddlSemanticError(f"undeclared variable {arg} in {where}")


def _canonicalise_functions(d: DomainModel) -> DomainModel:
    """Rewrite every function use to the declared spelling."""

    def fix_term(t: Atom) -> Atom:
        fs = d.function(t.name)
        return Atom(fs.name, t.args) if fs is not None else t

    actions = []
    for a in d.actions:
        comps = tuple(Comparison(c.op, fix_term(c.lhs), fix_term(c.rhs)) for c in a.precondition.comparisons)
        actions.append(ActionSchema(a.name, a.params, Precondition(a.precondition.atoms, comps), a.effect))
    return DomainModel(d.name, d.requirements, d.types, d.predicates, d.functions, tuple(actions))


def parse_problem(text: str, domain: DomainModel) -> ProblemInstance:
    """Parse a problem and validate it against the domain."""
    p = _Parser(text)
    p.expect("lparen")
    p.expect("id", "define")
    p.expect("lparen")
    p.expect("id", "problem")
    name = p.expect("id").text
    p.expect("rparen")

    domain_name = ""
    objects: tuple[tuple[str, str], ...] = ()
    init_facts: set[Atom] = set()
    init_fluents: dict[Atom, float] = {}
    goal: tuple[Atom, ...] = ()

    while p.peek().kind != "rparen":
        p.expect("lparen")
        section = p.expect("keyword")
        if section.text == ":domain":
            domain_name = p.expect("id").text
            p.expect("rparen")
        elif section.text == ":objects":
            objects = tuple(p.typed_list("id"))
            p.expect("rparen")
        elif section.text == ":init":
            while p.peek().kind != "rparen":
                p.expect("lparen")
                tok = p.peek()
                if tok.kind == "op" and tok.text == "=":
                    p.next()
                    p.expect("lparen")
                    term = p.literal()
                    val = p.next()
                    if val.kind != "number":
                        raise PddlSyntaxError(f"expected number, found {val.text!r}", val.line, val.col)
                    p.expect("rparen")
                    fs = domain.function(term.name)
                    if fs is None:
                        raise PddlSemanticError(f"undeclared function {term.name} in :init")
                    key = Atom(fs.name, term.args)
                    if key in init_fluents:
                        raise PddlSemanticError(f"duplicate assignment for {key.render()}")
                    value = float(val.text)
                    if not math.isfinite(value):
                        raise PddlSemanticError(f"non-finite value {val.text} for {key.render()} in :init")
                    init_fluents[key] = value
                else:
                    init_facts.add(p.literal("init literal", ground=True))
            p.expect("rparen")
        elif section.text == ":goal":
            goal = _parse_goal(p)
            p.expect("rparen")
        else:
            raise UnsupportedConstructError(f"section {section.text}", section.line)
    p.expect("rparen")
    if not p.at_end():
        tok = p.peek()
        raise PddlSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.col)

    problem = ProblemInstance(name, domain_name, objects, frozenset(init_facts), init_fluents, goal)
    validate_problem(domain, problem)
    return problem


def validate_problem(domain: DomainModel, problem: ProblemInstance) -> None:
    if problem.domain_name and problem.domain_name != domain.name:
        raise PddlSemanticError(
            f"problem declares domain {problem.domain_name}, expected {domain.name}"
        )
    obj_types: dict[str, str] = {}
    for oname, otype in problem.objects:
        if otype not in domain.types:
            raise PddlSemanticError(f"undeclared type {otype} for object {oname}")
        if oname in obj_types:
            raise PddlSemanticError(f"duplicate object {oname}")
        obj_types[oname] = otype

    def check_ground(atom: Atom, kind: str, where: str) -> None:
        sig = _signature(domain, atom, kind, where)
        for arg, (_, t) in zip(atom.args, sig.params):
            if arg not in obj_types:
                raise PddlSemanticError(f"unknown object {arg} in {where}")
            if obj_types[arg] != t:
                raise PddlSemanticError(f"object {arg} has type {obj_types[arg]}, {atom.name} wants {t}")

    for atom in problem.init_facts:
        check_ground(atom, "predicate", ":init")
    for term in problem.init_fluents:
        check_ground(term, "function", ":init")
    for atom in problem.goal:
        check_ground(atom, "predicate", ":goal")

    # Every fluent any grounded precondition can reference must be assigned.
    for action in domain.actions:
        term = _first_unassigned(action, problem)
        if term is not None:
            raise PddlSemanticError(f"fluent unassigned: {term.render()}")


def _first_unassigned(action: ActionSchema, problem: ProblemInstance) -> Atom | None:
    """The first unassigned fluent met over the action's bindings, or None.

    "First" is in the order of ``iter_bindings``, then comparisons, lhs before
    rhs. A side depends only on its own variables, so each is grounded over
    their product alone. The earliest full binding at which a side fails
    gives every other variable its first object; the least such binding,
    then the least side, is the one the full product meets first.
    """
    pools = [[n for n, t in problem.objects if t == typ] for _, typ in action.params]
    if not all(pools):
        return None  # no binding at all
    first: tuple[list[int], int, Atom] | None = None
    sides = [side for c in action.precondition.comparisons for side in (c.lhs, c.rhs)]
    for order, side in enumerate(sides):
        used = [i for i, (v, _) in enumerate(action.params) if v in side.args]
        for combo in itertools.product(*(range(len(pools[i])) for i in used)):
            binding = {action.params[i][0]: pools[i][j] for i, j in zip(used, combo)}
            term = ground_atom(side, binding)
            if term not in problem.init_fluents:
                at = [0] * len(pools)
                for i, j in zip(used, combo):
                    at[i] = j
                if first is None or (at, order) < first[:2]:
                    first = (at, order, term)
                break
    return None if first is None else first[2]


# ── Grounding helpers ─────────────────────────────────────────────────────


def iter_bindings(params: tuple[tuple[str, str], ...], objects: tuple[tuple[str, str], ...]):
    """Yield every type-correct variable binding over the given objects."""
    pools = []
    for _, typ in params:
        pool = [n for n, t in objects if t == typ]
        pools.append(pool)
    names = [v for v, _ in params]
    for combo in itertools.product(*pools):
        yield dict(zip(names, combo))


def ground_atom(atom: Atom, binding: dict[str, str]) -> Atom:
    return Atom(atom.name, tuple(binding.get(a, a) for a in atom.args))


def apply_effect(facts: frozenset[Atom], eff: Effect) -> frozenset[Atom]:
    return (facts - frozenset(eff.dels)) | frozenset(eff.adds)


# ── Printer ───────────────────────────────────────────────────────────────


def format_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _typed_params(params: tuple[tuple[str, str], ...]) -> str:
    return " ".join(f"{n} - {t}" for n, t in params)


def print_domain(d: DomainModel) -> str:
    """Canonical text: two-space indent, one conjunct per line."""
    out: list[str] = [f"(define (domain {d.name})"]
    if d.requirements:
        out.append("  (:requirements " + " ".join(d.requirements) + ")")
    if d.types:
        out.append("  (:types " + " ".join(d.types) + ")")
    for section, declared in ((":predicates", d.predicates), (":functions", d.functions)):
        if declared:
            out.append(f"  ({section}")
            for sig in declared:
                inner = f"{sig.name} {_typed_params(sig.params)}".rstrip()
                out.append(f"    ({inner})")
            out[-1] += ")"
    for a in d.actions:
        out.append(f"  (:action {a.name}")
        out.append(f"    :parameters ({_typed_params(a.params)})")
        out.append("    :precondition (and")
        for atom in a.precondition.atoms:
            out.append("      " + atom.render())
        for c in a.precondition.comparisons:
            out.append("      " + c.render())
        out[-1] += ")"
        out.append("    :effect (and")
        for atom in a.effect.adds:
            out.append("      " + atom.render())
        for atom in a.effect.dels:
            out.append(f"      (not {atom.render()})")
        out[-1] += "))"
    out[-1] += ")"
    return "\n".join(out) + "\n"


def print_problem(p: ProblemInstance) -> str:
    out: list[str] = [f"(define (problem {p.name})"]
    out.append(f"  (:domain {p.domain_name})")
    if p.objects:
        out.append("  (:objects")
        for n, t in p.objects:
            out.append(f"    {n} - {t}")
        out[-1] += ")"
    out.append("  (:init")
    for atom in sorted(p.init_facts, key=lambda a: a.render()):
        out.append("    " + atom.render())
    for term in sorted(p.init_fluents, key=lambda a: a.render()):
        out.append(f"    (= {term.render()} {format_number(p.init_fluents[term])})")
    out[-1] += ")"
    if p.goal:
        out.append("  (:goal (and")
        for atom in p.goal:
            out.append("    " + atom.render())
        out[-1] += ")))"
    else:
        out[-1] += ")"
    return "\n".join(out) + "\n"
