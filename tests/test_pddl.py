import pathlib
import random

import pytest

from adkra.pddl import (
    ActionSchema,
    Atom,
    DomainModel,
    Effect,
    PddlSemanticError,
    PddlSyntaxError,
    Precondition,
    PredicateSchema,
    UnsupportedConstructError,
    apply_effect,
    fn_key,
    ground_atom,
    iter_bindings,
    parse_domain,
    parse_problem,
    print_domain,
    print_problem,
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
