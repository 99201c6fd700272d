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
import string
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
        return "(" + " ".join((self.name, *self.args)) + ")"


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

    def __post_init__(self) -> None:
        # Name tables, built once. Filled in reverse, so the first declaration
        # of a name wins and _validate_domain finds a later one.
        self._predicates = {p.name: p for p in reversed(self.predicates)}
        self._functions = {fn_key(f.name): f for f in reversed(self.functions)}
        self._actions = {a.name: a for a in reversed(self.actions)}

    def predicate(self, name: str) -> PredicateSchema | None:
        return self._predicates.get(name)

    def function(self, name: str) -> PredicateSchema | None:
        return self._functions.get(fn_key(name))

    def action(self, name: str) -> ActionSchema | None:
        return self._actions.get(name)


@dataclass
class ProblemInstance:
    name: str
    domain_name: str
    objects: tuple[tuple[str, str], ...]
    init_facts: frozenset[Atom]
    init_fluents: dict[Atom, float] = field(default_factory=dict)
    goal: tuple[Atom, ...] = ()


# ── Tokenizer ─────────────────────────────────────────────────────────────

_ID = r"[A-Za-z][A-Za-z0-9_\-]*"
# Blanks and comments match outside the group, so findall gives "" for them.
# Inside it the alternatives are tried in order, ending with any one
# character, so every character of the text is read by some match.
_TOKEN_RE = re.compile(
    r"[ \t\r\n]+|;[^\n]*|("
    r"[()]"
    rf"|[?:]{_ID}"
    r"|[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
    r"|<=|>=|[<>=]"
    rf"|{_ID}|-"
    r"|.)",
    re.S,
)
# A token's kind follows from its first character: the one-character tokens
# by their text, the longer ones by the character that starts them.
_ASCII_KINDS = {**dict.fromkeys(string.ascii_letters, "id"), **dict.fromkeys(string.digits, "number")}
_SHORT_KINDS = {"(": "lparen", ")": "rparen", "<": "op", ">": "op", "=": "op", "-": "id", **_ASCII_KINDS}
_LONG_KINDS = {
    "?": "var", ":": "keyword", "<": "op", ">": "op", "+": "number", "-": "number", ".": "number", **_ASCII_KINDS
}
_FOLDED_KINDS = frozenset(("var", "keyword", "id"))
_BAD_START = {"?": "bad variable name", ":": "bad keyword"}

# (kind, text, index in the token list). Kinds: lparen rparen id keyword var
# number op. Names are lower case; a token's line and column are worked out
# from its index only for an error message.
Token = tuple[str, str, int]


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    # filter drops the "" of blanks and comments.
    for index, tok in enumerate(filter(None, _TOKEN_RE.findall(text))):
        kind = (_LONG_KINDS if len(tok) > 1 else _SHORT_KINDS).get(tok[0])
        if kind in _FOLDED_KINDS:
            tok = tok.lower()
        elif kind is None:
            # Only a number or the catch-all can start with another character.
            if not tok[0].isdecimal():
                line, col = token_position(text, index)
                raise PddlSyntaxError(_BAD_START.get(tok, f"unexpected character {tok!r}"), line, col)
            kind = "number"
        tokens.append((kind, tok, index))
    return tokens


def token_position(text: str, index: int) -> tuple[int, int]:
    """Line and column (both from 1) of the token ``tokenize(text)`` puts at ``index``."""
    matches = (m for m in _TOKEN_RE.finditer(text) if m.lastindex)
    offset = next(itertools.islice(matches, index, None)).start(1)
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


# ── Parser ────────────────────────────────────────────────────────────────


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    def error(self, message: str, tok: Token) -> PddlSyntaxError:
        return PddlSyntaxError(message, *token_position(self.text, tok[2]))

    def line(self, tok: Token) -> int:
        return token_position(self.text, tok[2])[0]

    def peek(self) -> Token:
        try:
            return self.tokens[self.pos]
        except IndexError:
            if not self.tokens:
                raise PddlSyntaxError("unexpected end of input", 1, 1) from None
            raise self.error("unexpected end of input", self.tokens[-1]) from None

    def next(self) -> Token:
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.next()
        if tok[0] != kind or (text is not None and tok[1] != text):
            want = text if text is not None else kind
            raise self.error(f"expected {want}, found {tok[1]!r}", tok)
        return tok

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    # typed lists: a b - t c - t2 ...
    def typed_list(self, item_kind: str) -> list[tuple[str, str]]:
        out: list[tuple[str, str]] = []
        pending: list[str] = []
        while (tok := self.peek())[0] != "rparen":
            if tok[:2] == ("id", "-"):
                self.next()
                typ = self.expect("id")[1]
                if not pending:
                    raise self.error("dangling type marker", tok)
                out.extend((name, typ) for name in pending)
                pending = []
            elif tok[0] == item_kind:
                pending.append(self.next()[1])
            else:
                raise self.error(f"expected {item_kind} or '-', found {tok[1]!r}", tok)
        if pending:
            raise self.error("untyped name in typed list (typing is required)", tok)
        return out

    def literal(self, head: str = "id", ground: bool = False, numbers: str = "") -> Atom:
        """Read ``name arg* )``, the rest of a literal or function term after its ``(``.

        ``head`` names what a bad name was expected to be. A ground literal
        takes objects only, no variables. With ``numbers`` set, a numeric
        argument is an unsupported numeric constant in that construct.
        """
        name = self.next()
        if name[0] != "id":
            raise self.error(f"expected {head}, found {name[1]!r}", name)
        kinds = ("id",) if ground else ("id", "var")
        args: list[str] = []
        while (arg := self.next())[0] != "rparen":
            if numbers and arg[0] == "number":
                raise UnsupportedConstructError(f"numeric constant in {numbers}", self.line(arg))
            if arg[0] not in kinds:
                noun = "object" if ground else "argument"
                raise self.error(f"expected {noun}, found {arg[1]!r}", arg)
            args.append(arg[1])
        return Atom(name[1], tuple(args))


def _conjuncts(p: _Parser):
    """Walk ``(and c*)`` or a lone ``c``.

    Yields the first token inside each conjunct, its ``(`` already read; the
    caller reads the conjunct through its closing ``)`` before resuming.
    """
    p.expect("lparen")
    if p.peek()[:2] == ("id", "and"):
        p.next()
        while p.peek()[0] != "rparen":
            p.expect("lparen")
            yield p.peek()
        p.expect("rparen")
    else:
        yield p.peek()


def _parse_precondition(p: _Parser) -> Precondition:
    atoms: list[Atom] = []
    comparisons: list[Comparison] = []
    for tok in _conjuncts(p):
        kind, text, _ = tok
        if kind == "op":
            p.next()
            if text == "=":
                raise UnsupportedConstructError("equality comparison in precondition", p.line(tok))
            lhs = _function_term(p)
            closer = p.peek()
            if closer[0] == "rparen":
                raise p.error("comparison missing second argument", closer)
            rhs = _function_term(p)
            p.expect("rparen")
            comparisons.append(Comparison(text, lhs, rhs))
        elif kind == "id" and text == "not":
            raise UnsupportedConstructError("negative precondition", p.line(tok))
        elif kind == "id" and text in ("or", "imply", "forall", "exists", "when"):
            raise UnsupportedConstructError(text, p.line(tok))
        else:
            atoms.append(p.literal("predicate", numbers="precondition"))
    return Precondition(tuple(atoms), tuple(comparisons))


def _function_term(p: _Parser) -> Atom:
    tok = p.peek()
    if tok[0] == "number":
        raise UnsupportedConstructError("numeric constant in comparison", p.line(tok))
    p.expect("lparen")
    return p.literal()


def _parse_effect(p: _Parser) -> Effect:
    adds: list[Atom] = []
    dels: list[Atom] = []
    for tok in _conjuncts(p):
        kind, text, _ = tok
        if kind == "id" and text in ("increase", "decrease", "assign", "scale-up", "scale-down"):
            raise UnsupportedConstructError(f"numeric effect '{text}'", p.line(tok))
        if kind == "id" and text in ("when", "forall"):
            raise UnsupportedConstructError(text, p.line(tok))
        if kind == "id" and text == "not":
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
        if tok[0] == "op":
            raise UnsupportedConstructError("comparison in goal", p.line(tok))
        atoms.append(p.literal())
    return tuple(atoms)


def _open_define(p: _Parser, what: str) -> str:
    """Read ``(define (what name)`` and return the name."""
    p.expect("lparen")
    p.expect("id", "define")
    p.expect("lparen")
    p.expect("id", what)
    name = p.expect("id")[1]
    p.expect("rparen")
    return name


def _sections(p: _Parser, want: str, single: tuple[str, ...]):
    """Yield the keyword token of each section, its ``(`` and keyword read.

    Then read the file's closing ``)`` and reject trailing input. ``want``
    names what a bad keyword was expected to be. A section named in
    ``single`` may appear once: a second one would silently replace the first.
    """
    seen = set()
    while p.peek()[0] != "rparen":
        p.expect("lparen")
        section = p.next()
        if section[0] != "keyword":
            raise p.error(f"expected {want}, found {section[1]!r}", section)
        if section[1] in seen:
            raise PddlSemanticError(f"duplicate section {section[1]}")
        if section[1] in single:
            seen.add(section[1])
        yield section
    p.expect("rparen")
    if not p.at_end():
        tok = p.peek()
        raise p.error(f"trailing input {tok[1]!r}", tok)


def parse_domain(text: str) -> DomainModel:
    """Parse and validate a domain in the supported fragment."""
    p = _Parser(text)
    name = _open_define(p, "domain")

    requirements: tuple[str, ...] = ()
    types: tuple[str, ...] = ()
    predicates: list[PredicateSchema] = []
    functions: list[PredicateSchema] = []
    actions: list[ActionSchema] = []

    for section in _sections(p, "section keyword", (":requirements", ":types")):
        keyword = section[1]
        if keyword == ":requirements":
            reqs = []
            while p.peek()[0] != "rparen":
                r = p.expect("keyword")
                if r[1] not in SUPPORTED_REQUIREMENTS:
                    raise UnsupportedConstructError(f"requirement {r[1]}", p.line(r))
                reqs.append(r[1])
            requirements = tuple(reqs)
            p.expect("rparen")
        elif keyword == ":types":
            ts = []
            while p.peek()[0] != "rparen":
                tok = p.next()
                if tok[:2] == ("id", "-"):
                    raise UnsupportedConstructError("type hierarchy", p.line(tok))
                if tok[0] != "id":
                    raise p.error(f"expected type name, found {tok[1]!r}", tok)
                ts.append(tok[1])
            types = tuple(ts)
            p.expect("rparen")
        elif keyword in (":predicates", ":functions"):
            declared = predicates if keyword == ":predicates" else functions
            while p.peek()[0] != "rparen":
                p.expect("lparen")
                dname = p.expect("id")[1]
                declared.append(PredicateSchema(dname, tuple(p.typed_list("var"))))
                p.expect("rparen")
            p.expect("rparen")
        elif keyword == ":action":
            aname = p.expect("id")[1]
            params: tuple[tuple[str, str], ...] = ()
            precondition = Precondition((), ())
            effect = Effect((), ())
            while p.peek()[0] != "rparen":
                part = p.expect("keyword")
                if part[1] == ":parameters":
                    p.expect("lparen")
                    params = tuple(p.typed_list("var"))
                    p.expect("rparen")
                elif part[1] == ":precondition":
                    precondition = _parse_precondition(p)
                elif part[1] == ":effect":
                    effect = _parse_effect(p)
                else:
                    raise UnsupportedConstructError(f"action part {part[1]}", p.line(part))
            p.expect("rparen")
            actions.append(ActionSchema(aname, params, precondition, effect))
        elif keyword in (":durative-action", ":constraints", ":derived", ":constants"):
            raise UnsupportedConstructError(keyword, p.line(section))
        else:
            raise UnsupportedConstructError(f"section {keyword}", p.line(section))

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
    """Check an action's atom: its declaration and arity, and each variable's declaration and type.

    A variable of the wrong type could never bind an object the atom accepts.
    """
    sig = _signature(d, atom, kind, where)
    for arg, (_, t) in zip(atom.args, sig.params):
        if arg.startswith("?") and arg not in declared:
            raise PddlSemanticError(f"undeclared variable {arg} in {where}")
        if arg.startswith("?") and declared[arg] != t:
            raise PddlSemanticError(f"variable {arg} has type {declared[arg]}, {atom.name} wants {t} in {where}")


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
    name = _open_define(p, "problem")

    domain_name = ""
    objects: tuple[tuple[str, str], ...] = ()
    init_facts: set[Atom] = set()
    init_fluents: dict[Atom, float] = {}
    goal: tuple[Atom, ...] = ()

    for section in _sections(p, "keyword", (":domain", ":objects", ":goal")):
        keyword = section[1]
        if keyword == ":domain":
            domain_name = p.expect("id")[1]
            p.expect("rparen")
        elif keyword == ":objects":
            objects = tuple(p.typed_list("id"))
            p.expect("rparen")
        elif keyword == ":init":
            while p.peek()[0] != "rparen":
                p.expect("lparen")
                if p.peek()[:2] == ("op", "="):
                    p.next()
                    p.expect("lparen")
                    term = p.literal()
                    val = p.next()
                    if val[0] != "number":
                        raise p.error(f"expected number, found {val[1]!r}", val)
                    p.expect("rparen")
                    fs = domain.function(term.name)
                    if fs is None:
                        raise PddlSemanticError(f"undeclared function {term.name} in :init")
                    key = Atom(fs.name, term.args)
                    if key in init_fluents:
                        raise PddlSemanticError(f"duplicate assignment for {key.render()}")
                    value = float(val[1])
                    if not math.isfinite(value):
                        raise PddlSemanticError(f"non-finite value {val[1]} for {key.render()} in :init")
                    init_fluents[key] = value
                else:
                    init_facts.add(p.literal("init literal", ground=True))
            p.expect("rparen")
        elif keyword == ":goal":
            goal = _parse_goal(p)
            p.expect("rparen")
        else:
            raise UnsupportedConstructError(f"section {keyword}", p.line(section))

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
    assigned: dict[str, set[tuple[str, ...]]] = {}
    for term in problem.init_fluents:
        check_ground(term, "function", ":init")
        assigned.setdefault(term.name, set()).add(term.args)
    for atom in problem.goal:
        check_ground(atom, "predicate", ":goal")

    # Every fluent any grounded precondition can reference must be assigned.
    for action in domain.actions:
        pools = dict(zip([v for v, _t in action.params], binding_pools(action.params, problem.objects)))
        sides = [side for c in action.precondition.comparisons for side in (c.lhs, c.rhs)]
        # Most actions have every grounding of every side assigned: check that
        # in bulk, over each argument's objects (a superset when a variable
        # repeats). Only a gap needs the walk that names the first one.
        if all(
            assigned.get(side.name, set()).issuperset(itertools.product(*(pools.get(a, [a]) for a in side.args)))
            for side in sides
        ):
            continue
        for binding in iter_bindings(action.params, problem.objects):
            for side in sides:
                term = ground_atom(side, binding)
                if term not in problem.init_fluents:
                    raise PddlSemanticError(f"fluent unassigned: {term.render()}")


# ── Grounding helpers ─────────────────────────────────────────────────────


def binding_pools(params: tuple[tuple[str, str], ...], objects: tuple[tuple[str, str], ...]) -> list[list[str]]:
    """Each parameter's objects of its type, in declaration order.

    Their ``itertools.product`` is every type-correct binding, in the order
    grounding and the unassigned-fluent walk both visit them.
    """
    return [[n for n, t in objects if t == typ] for _v, typ in params]


def iter_bindings(params: tuple[tuple[str, str], ...], objects: tuple[tuple[str, str], ...]):
    """Yield every type-correct variable binding over the given objects, as a dict."""
    names = [v for v, _ in params]
    for combo in itertools.product(*binding_pools(params, objects)):
        yield dict(zip(names, combo))


def ground_atom(atom: Atom, binding: dict[str, str]) -> Atom:
    return Atom(atom.name, tuple(map(binding.get, atom.args, atom.args)))


def apply_effect(facts: frozenset[Atom], eff: Effect) -> frozenset[Atom]:
    return (facts - frozenset(eff.dels)) | frozenset(eff.adds)


# ── Printer ───────────────────────────────────────────────────────────────


def format_number(v: float) -> str:
    """A number as every writer prints it: a whole value below 1e15 without a
    fraction, anything else (-0.0 and non-finite values too) as its repr, so
    the text reads back as the same float."""
    v = float(v)
    if v.is_integer() and abs(v) < 1e15 and repr(v) != "-0.0":
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
