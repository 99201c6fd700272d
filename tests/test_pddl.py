import itertools
import pathlib
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adkra.pddl import (
    ActionSchema,
    Atom,
    Comparison,
    DomainModel,
    Effect,
    PddlError,
    PddlSemanticError,
    PddlSyntaxError,
    Precondition,
    PredicateSchema,
    ProblemInstance,
    UnsupportedConstructError,
    apply_effect,
    fn_key,
    ground_atom,
    iter_bindings,
    parse_domain,
    parse_problem,
    print_domain,
    print_problem,
    token_position,
    tokenize,
    validate_problem,
)

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def domain():
    return parse_domain((DATA / "nao.pddl").read_text())


@pytest.fixture(scope="module")
def faulty_problem(domain):
    return parse_problem((DATA / "grip_faulty.pddl").read_text(), domain)


def test_domain_shape(domain):
    assert domain.name == "nao"
    assert domain.requirements == (":strips", ":typing", ":fluents")
    assert [a.name for a in domain.actions] == ["goto", "grip"]
    grip = domain.action("grip")
    assert len(grip.precondition.atoms) == 3
    assert len(grip.precondition.comparisons) == 4


def test_hyphen_and_underscore_resolve_to_declared_spelling(domain):
    grip = domain.action("grip")
    used = {c.lhs.name for c in grip.precondition.comparisons}
    assert "dist_to" in used
    assert "dist-to" not in used
    assert fn_key("dist-to") == fn_key("DIST_TO")


def test_round_trip(domain):
    text = print_domain(domain)
    again = parse_domain(text)
    assert again == domain
    assert print_domain(again) == text


def test_problem_round_trip(domain, faulty_problem):
    text = print_problem(faulty_problem)
    again = parse_problem(text, domain)
    assert again == faulty_problem
    assert print_problem(again) == text


def test_case_insensitive_and_comments():
    text = """
    ; a comment line
    (DEFINE (Domain Tiny)
      (:Requirements :STRIPS :typing)
      (:types spot)
      (:predicates (At ?x - Spot))
      (:action Move
        :parameters (?a - spot ?b - spot)
        :precondition (and (at ?a))
        :effect (and (at ?b) (not (at ?a)))))
    """
    d = parse_domain(text)
    assert d.name == "tiny"
    assert d.actions[0].name == "move"
    assert d.predicates[0].name == "at"


def test_syntax_error_carries_position():
    with pytest.raises(PddlSyntaxError) as err:
        parse_domain("(define (domain x)\n  (:types @bad))")
    assert err.value.line == 2


def test_unsupported_constructs_are_named():
    base = "(define (domain x) (:types t) (:predicates (p ?a - t)) {body})"
    cases = {
        "(:action a :parameters (?x - t) :precondition (not (p ?x)) :effect (and (p ?x)))": "negative",
        "(:action a :parameters (?x - t) :precondition (or (p ?x)) :effect (and (p ?x)))": "or",
        "(:action a :parameters (?x - t) :precondition (and (p ?x)) :effect (and (increase (f ?x) 1)))": "increase",
    }
    for body, needle in cases.items():
        with pytest.raises(UnsupportedConstructError) as err:
            parse_domain(base.format(body=body))
        assert needle in str(err.value)
    with pytest.raises(UnsupportedConstructError):
        parse_domain("(define (domain x) (:requirements :adl))")
    with pytest.raises(UnsupportedConstructError):
        parse_domain("(define (domain x) (:types car - vehicle))")


def test_numeric_constant_in_comparison_rejected():
    text = """
    (define (domain x) (:types t)
      (:predicates (p ?a - t))
      (:functions (f ?a - t))
      (:action a :parameters (?x - t)
        :precondition (and (< (f ?x) 5))
        :effect (and (p ?x))))
    """
    with pytest.raises(UnsupportedConstructError) as err:
        parse_domain(text)
    assert "numeric constant" in str(err.value)


def test_semantic_checks():
    with pytest.raises(PddlSemanticError, match="undeclared predicate"):
        parse_domain(
            "(define (domain x) (:types t) (:predicates (p ?a - t))"
            " (:action a :parameters (?x - t) :precondition (and (q ?x))"
            " :effect (and (p ?x))))"
        )
    with pytest.raises(PddlSemanticError, match="undeclared variable"):
        parse_domain(
            "(define (domain x) (:types t) (:predicates (p ?a - t))"
            " (:action a :parameters (?x - t) :precondition (and (p ?y))"
            " :effect (and (p ?x))))"
        )


def test_problem_validation_catches_missing_fluent(domain):
    text = (DATA / "grip_faulty.pddl").read_text()
    broken = text.replace("    (= (dist_to wp3 wp4) 20)\n", "")
    with pytest.raises(PddlSemanticError, match="fluent unassigned"):
        parse_problem(broken, domain)


def test_duplicate_fluent_assignment_rejected(domain):
    text = (DATA / "grip_faulty.pddl").read_text()
    broken = text.replace("(= (hwangle nao) -10)", "(= (hwangle nao) -10)\n    (= (hwangle nao) -9)")
    with pytest.raises(PddlSemanticError, match="duplicate assignment"):
        parse_problem(broken, domain)


def test_iter_bindings_respects_types(domain, faulty_problem):
    goto = domain.action("goto")
    bindings = list(iter_bindings(goto.params, faulty_problem.objects))
    assert len(bindings) == 1 * 5 * 5
    assert all(b["?r"] == "nao" for b in bindings)


def test_apply_effect_delete_then_add():
    eff = Effect(adds=(Atom("p", ("a",)),), dels=(Atom("p", ("a",)), Atom("q", ("a",))))
    out = apply_effect(frozenset({Atom("p", ("a",)), Atom("q", ("a",))}), eff)
    assert out == frozenset({Atom("p", ("a",))})


def test_ground_atom_keeps_constants():
    atom = Atom("p", ("?x", "c"))
    assert ground_atom(atom, {"?x": "a"}) == Atom("p", ("a", "c"))


def _random_domain(rng: random.Random) -> DomainModel:
    types = tuple(f"t{i}" for i in range(rng.randint(1, 3)))
    preds = []
    for i in range(rng.randint(1, 4)):
        arity = rng.randint(0, 3)
        params = tuple((f"?v{j}", rng.choice(types)) for j in range(arity))
        preds.append(PredicateSchema(f"p{i}", params))
    actions = []
    for i in range(rng.randint(1, 3)):
        params = tuple((f"?a{j}", rng.choice(types)) for j in range(rng.randint(1, 3)))
        names = [v for v, _ in params]

        def atom_of(ps):
            return Atom(ps.name, tuple(rng.choice(names) for _ in ps.params))

        pre = Precondition(tuple(atom_of(rng.choice(preds)) for _ in range(rng.randint(0, 3))), ())
        eff = Effect(
            tuple(atom_of(rng.choice(preds)) for _ in range(rng.randint(1, 2))),
            tuple(atom_of(rng.choice(preds)) for _ in range(rng.randint(0, 2))),
        )
        actions.append(ActionSchema(f"act{i}", params, pre, eff))
    return DomainModel(
        name=f"rnd{rng.randint(0, 999)}",
        requirements=(":strips", ":typing"),
        types=types,
        predicates=tuple(preds),
        functions=(),
        actions=tuple(actions),
    )


def test_round_trip_on_randomized_domains():
    rng = random.Random(1234)
    for _ in range(50):
        model = _random_domain(rng)
        assert parse_domain(print_domain(model)) == model


def _first_unassigned_by_full_grounding(domain, problem):
    for action in domain.actions:
        for binding in iter_bindings(action.params, problem.objects):
            for c in action.precondition.comparisons:
                for side in (c.lhs, c.rhs):
                    term = ground_atom(side, binding)
                    if term not in problem.init_fluents:
                        return f"fluent unassigned: {term.render()}"
    return None


def test_unassigned_fluent_report_matches_full_grounding():
    # Sides use some, all or none of the action's variables (and constants),
    # pools may be empty, and most problems leave several fluents unassigned.
    rng = random.Random(5)
    raised = 0
    for _ in range(400):
        types = tuple(f"t{i}" for i in range(rng.randint(1, 3)))
        objects = tuple((f"o{t}{j}", t) for t in types for j in range(rng.randint(0, 3)))
        functions = tuple(
            PredicateSchema(f"f{i}", tuple((f"?v{j}", rng.choice(types)) for j in range(rng.randint(0, 2))))
            for i in range(rng.randint(1, 4))
        )

        def side_of(params):
            fs = rng.choice(functions)
            args = []
            for _v, t in fs.params:
                names = [v for v, pt in params if pt == t] + [o for o, ot in objects if ot == t][:1]
                args.append(rng.choice(names or ["?none"]))
            return Atom(fs.name, tuple(args))

        actions = []
        for i in range(rng.randint(1, 2)):
            params = tuple((f"?a{j}", rng.choice(types)) for j in range(rng.randint(0, 3)))
            cmps = tuple(Comparison("<", side_of(params), side_of(params)) for _ in range(rng.randint(0, 3)))
            actions.append(ActionSchema(f"act{i}", params, Precondition((), cmps), Effect((), ())))
        domain = DomainModel("rnd", (), types, (), functions, tuple(actions))
        ground = [
            Atom(fs.name, combo)
            for fs in functions
            for combo in itertools.product(*([o for o, ot in objects if ot == t] for _v, t in fs.params))
        ]
        keep = rng.choice([0.5, 0.8, 1.0])
        problem = ProblemInstance("pr", "rnd", objects, frozenset(), {a: 1.0 for a in ground if rng.random() < keep})
        want = _first_unassigned_by_full_grounding(domain, problem)
        if want is None:
            validate_problem(domain, problem)
        else:
            raised += 1
            with pytest.raises(PddlSemanticError) as err:
                validate_problem(domain, problem)
            assert str(err.value) == want
    assert raised > 100


_REF_NUMBER_RE = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")
_REF_ID_RE = re.compile(r"[A-Za-z][A-Za-z0-9_\-]*")
_REF_OP_RE = re.compile(r"<=|>=|<|>|=")


def _reference_tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """The per-character scanner the regex tokenizer replaced: (kind, text, line, col) per token."""
    tokens = []
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
            tokens.append(("lparen", "(", line, col))
            i += 1
            col += 1
            continue
        if c == ")":
            tokens.append(("rparen", ")", line, col))
            i += 1
            col += 1
            continue
        if c == "?":
            m = _REF_ID_RE.match(text, i + 1)
            if not m:
                raise PddlSyntaxError("bad variable name", line, col)
            tok = "?" + m.group(0).lower()
            tokens.append(("var", tok, line, col))
            col += len(tok)
            i = m.end()
            continue
        if c == ":":
            m = _REF_ID_RE.match(text, i + 1)
            if not m:
                raise PddlSyntaxError("bad keyword", line, col)
            tok = ":" + m.group(0).lower()
            tokens.append(("keyword", tok, line, col))
            col += len(tok)
            i = m.end()
            continue
        if c.isdigit() or (c in "+-." and i + 1 < n and (text[i + 1].isdigit() or text[i + 1] == ".")):
            m = _REF_NUMBER_RE.match(text, i)
            if m:
                tokens.append(("number", m.group(0), line, col))
                col += len(m.group(0))
                i = m.end()
                continue
        m = _REF_OP_RE.match(text, i)
        if m:
            tokens.append(("op", m.group(0), line, col))
            col += len(m.group(0))
            i = m.end()
            continue
        m = _REF_ID_RE.match(text, i)
        if m:
            tokens.append(("id", m.group(0).lower(), line, col))
            col += len(m.group(0))
            i = m.end()
            continue
        if c == "-":
            tokens.append(("id", "-", line, col))
            i += 1
            col += 1
            continue
        raise PddlSyntaxError(f"unexpected character {c!r}", line, col)
    return tokens


def _scan(tokenizer, text):
    try:
        return tokenizer(text)
    except PddlError as err:
        return type(err), str(err)


def _positioned_tokens(text):
    return [(kind, tok, *token_position(text, index)) for kind, tok, index in tokenize(text)]


# Edge pieces: '?' or ':' with no name, number look-alikes, an overflowing
# exponent, blanks and comments (also trailing), and digits that are not ASCII
# ('²' is a digit to str.isdigit but not to \d; '٣' is a decimal digit).
_TOKEN_PIECES = [
    "(", ")", "?", ":", "?x", ":Key", "+", "-", ".", "+.", "-.5", "..", "1e400", "2E-3", "7",
    "e", "Ab_c-1", "<", "=", ">", "<=", ">=", " ", "\t", "\r", "\n", ";", "; note", "²", "٣", "\x0c",
]


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.lists(st.sampled_from(_TOKEN_PIECES), max_size=14).map("".join), st.text(max_size=20)))
def test_regex_tokenizer_matches_the_per_character_scanner(text):
    assert _scan(_positioned_tokens, text) == _scan(_reference_tokenize, text)


# Every error the readers and checks raise, pinned by class and full text.
_ERR_DOMAIN = (
    "(define (domain x) (:types t u) (:predicates {preds}) (:functions {fns})"
    " (:action a :parameters (?x - t ?y - u) :precondition {pre} :effect {eff}))"
)
_ERR_DOMAIN_PARTS = {
    "preds": "(p ?a - t) (q ?a - t ?b - u)",
    "fns": "(f ?a - t) (g ?a - t)",
    "pre": "(and (p ?x) (< (f ?x) (g ?x)))",
    "eff": "(and (q ?x ?y))",
}
_ERR_PROBLEM = "(define (problem pr) (:domain x) (:objects o - t k - u) (:init {init}) (:goal {goal}))"
_ERR_PROBLEM_PARTS = {"init": "(p o) (= (f o) 1) (= (g o) 2)", "goal": "(and (q o k))"}
_ERROR_CASES = [
    ("pre-arg", "domain", {"pre": "(and (p :k))"}, PddlSyntaxError, "line 1, col 172: expected argument, found ':k'"),
    ("pre-arg-single", "domain", {"pre": "(p :k)"}, PddlSyntaxError, "line 1, col 167: expected argument, found ':k'"),
    ("pre-head", "domain", {"pre": "(and (?x))"}, PddlSyntaxError, "line 1, col 170: expected predicate, found '?x'"),
    ("pre-number", "domain", {"pre": "(and (p 5))"}, UnsupportedConstructError, "unsupported construct: numeric constant in precondition (line 1)"),
    ("cmp-missing", "domain", {"pre": "(and (< (f ?x)))"}, PddlSyntaxError, "line 1, col 178: comparison missing second argument"),
    ("cmp-number", "domain", {"pre": "(and (< (f ?x) 5))"}, UnsupportedConstructError, "unsupported construct: numeric constant in comparison (line 1)"),
    ("cmp-arg", "domain", {"pre": "(and (< (f :k) (g ?x)))"}, PddlSyntaxError, "line 1, col 175: expected argument, found ':k'"),
    ("eff-arg", "domain", {"eff": "(and (p :k))"}, PddlSyntaxError, "line 1, col 211: expected argument, found ':k'"),
    ("eff-arg-single", "domain", {"eff": "(p :k)"}, PddlSyntaxError, "line 1, col 206: expected argument, found ':k'"),
    ("eff-head", "domain", {"eff": "(and (5))"}, PddlSyntaxError, "line 1, col 209: expected effect literal, found '5'"),
    ("eff-not-arg", "domain", {"eff": "(and (not (p :k)))"}, PddlSyntaxError, "line 1, col 216: expected argument, found ':k'"),
    ("eff-not-head", "domain", {"eff": "(and (not (5)))"}, PddlSyntaxError, "line 1, col 214: expected id, found '5'"),
    ("pre-undeclared-pred", "domain", {"pre": "(and (r ?x))"}, PddlSemanticError, "undeclared predicate r in a"),
    ("eff-undeclared-pred", "domain", {"eff": "(and (r ?x))"}, PddlSemanticError, "undeclared predicate r in a"),
    ("cmp-undeclared-fn", "domain", {"pre": "(and (< (h ?x) (g ?x)))"}, PddlSemanticError, "undeclared function h in a"),
    ("pre-arity", "domain", {"pre": "(and (p ?x ?y))"}, PddlSemanticError, "arity mismatch for p in a"),
    ("eff-arity", "domain", {"eff": "(not (q ?x))"}, PddlSemanticError, "arity mismatch for q in a"),
    ("cmp-arity", "domain", {"pre": "(and (< (f ?x ?y) (g ?x)))"}, PddlSemanticError, "arity mismatch for function f in a"),
    ("dup-pred", "domain", {"preds": "(p ?a - t) (p ?b - t)"}, PddlSemanticError, "duplicate predicate p"),
    ("fn-collision", "domain", {"fns": "(f-g ?a - t) (f_g ?a - t)"}, PddlSemanticError, "function name collision under -/_ folding: f_g"),
    ("pred-type", "domain", {"preds": "(p ?a - v)"}, PddlSemanticError, "undeclared type v in predicate p"),
    ("fn-type", "domain", {"fns": "(f ?a - v)"}, PddlSemanticError, "undeclared type v in function f"),
    ("init-arg-var", "problem", {"init": "(p ?x)"}, PddlSyntaxError, "line 1, col 67: expected object, found '?x'"),
    ("init-arg-number", "problem", {"init": "(p 5)"}, PddlSyntaxError, "line 1, col 67: expected object, found '5'"),
    ("init-head", "problem", {"init": "(5)"}, PddlSyntaxError, "line 1, col 65: expected init literal, found '5'"),
    ("init-term-arg", "problem", {"init": "(= (f :k) 1)"}, PddlSyntaxError, "line 1, col 70: expected argument, found ':k'"),
    ("init-value", "problem", {"init": "(= (f o) x)"}, PddlSyntaxError, "line 1, col 73: expected number, found 'x'"),
    ("init-value-overflow", "problem", {"init": "(p o) (= (f o) 1e400) (= (g o) 2)"}, PddlSemanticError, "non-finite value 1e400 for (f o) in :init"),
    ("init-value-overflow-negative", "problem", {"init": "(p o) (= (f o) 1) (= (g o) -1e400)"}, PddlSemanticError, "non-finite value -1e400 for (g o) in :init"),
    ("goal-cmp-single", "problem", {"goal": "(< (f o) (g o))"}, UnsupportedConstructError, "unsupported construct: comparison in goal (line 1)"),
    ("goal-cmp-and", "problem", {"goal": "(and (< (f o) (g o)))"}, UnsupportedConstructError, "unsupported construct: comparison in goal (line 1)"),
    ("goal-arg", "problem", {"goal": "(and (p :k))"}, PddlSyntaxError, "line 1, col 110: expected argument, found ':k'"),
    ("goal-head", "problem", {"goal": "(5)"}, PddlSyntaxError, "line 1, col 103: expected id, found '5'"),
    ("init-undeclared-pred", "problem", {"init": "(r o) (= (f o) 1) (= (g o) 2)"}, PddlSemanticError, "undeclared predicate r in :init"),
    ("init-undeclared-fn", "problem", {"init": "(= (h o) 1) (= (f o) 1) (= (g o) 2)"}, PddlSemanticError, "undeclared function h in :init"),
    ("goal-undeclared-pred", "problem", {"goal": "(r o)"}, PddlSemanticError, "undeclared predicate r in :goal"),
    ("init-arity", "problem", {"init": "(p o o) (= (f o) 1) (= (g o) 2)"}, PddlSemanticError, "arity mismatch for p in :init"),
    ("init-fn-arity", "problem", {"init": "(= (f o o) 1) (= (g o) 2)"}, PddlSemanticError, "arity mismatch for function f in :init"),
    ("goal-arity", "problem", {"goal": "(and (q o))"}, PddlSemanticError, "arity mismatch for q in :goal"),
    ("init-unknown-obj", "problem", {"init": "(p zz) (= (f o) 1) (= (g o) 2)"}, PddlSemanticError, "unknown object zz in :init"),
    ("init-fn-unknown-obj", "problem", {"init": "(= (f zz) 1) (= (f o) 1) (= (g o) 2)"}, PddlSemanticError, "unknown object zz in :init"),
    ("goal-unknown-obj", "problem", {"goal": "(q o zz)"}, PddlSemanticError, "unknown object zz in :goal"),
    ("init-type", "problem", {"init": "(p k) (= (f o) 1) (= (g o) 2)"}, PddlSemanticError, "object k has type u, p wants t"),
    ("init-fn-type", "problem", {"init": "(= (f k) 1) (= (f o) 1) (= (g o) 2)"}, PddlSemanticError, "object k has type u, f wants t"),
    ("goal-type", "problem", {"goal": "(q k o)"}, PddlSemanticError, "object k has type u, q wants t"),
    ("unassigned", "problem", {"init": "(p o) (= (f o) 1)"}, PddlSemanticError, "fluent unassigned: (g o)"),
    ("unassigned-two", "problem", {"init": "(p o)"}, PddlSemanticError, "fluent unassigned: (f o)"),
    # A repeated single-valued section would silently replace the first.
    ("dup-types", "domain", {"fns": "(f ?a - t) (g ?a - t)) (:types v"}, PddlSemanticError, "duplicate section :types"),
    ("dup-requirements", "domain", {"fns": "(f ?a - t) (g ?a - t)) (:requirements :strips) (:requirements :typing"}, PddlSemanticError, "duplicate section :requirements"),
    ("dup-objects", "problem", {"init": "(p o) (= (f o) 1) (= (g o) 2)) (:objects w - t"}, PddlSemanticError, "duplicate section :objects"),
    ("dup-goal", "problem", {"goal": "(and (q o k))) (:goal (q o k)"}, PddlSemanticError, "duplicate section :goal"),
    ("dup-domain", "problem", {"init": "(p o) (= (f o) 1) (= (g o) 2)) (:domain x"}, PddlSemanticError, "duplicate section :domain"),
]


@pytest.mark.parametrize("case, which, parts, exc, message", _ERROR_CASES, ids=[c[0] for c in _ERROR_CASES])
def test_error_class_and_message_are_pinned(case, which, parts, exc, message):
    domain_parts = {**_ERR_DOMAIN_PARTS, **parts} if which == "domain" else _ERR_DOMAIN_PARTS
    problem_parts = {**_ERR_PROBLEM_PARTS, **parts} if which == "problem" else _ERR_PROBLEM_PARTS
    with pytest.raises(PddlError) as err:
        domain = parse_domain(_ERR_DOMAIN.format(**domain_parts))
        parse_problem(_ERR_PROBLEM.format(**problem_parts), domain)
    assert type(err.value) is exc
    assert str(err.value) == message
