"""Lines of the package that no command reaches.

Runs a fixed surface of ``adkra`` commands in-process through
``adkra.cli.main`` under ``sys.settrace`` and lists every line of a function
body in the package that none of them executed. Such a line is dead code
unless it belongs to a ``raise`` statement (an error the surface does not
provoke) or ``ALLOWED`` lists it with its reason. An ``ALLOWED`` entry that no
longer names an unexecuted line fails as well, so the list cannot rot.

Only lines inside function bodies count, taken from the functions' code
objects: module and class bodies run at import, which may have happened
before tracing started. Line tracing cannot see a class nothing uses or a
dataclass field nothing reads; ``test_hygiene.py`` checks those by name.
"""

import ast
import contextlib
import inspect
import io
import pathlib
import sys
import types

import pytest

import adkra
from adkra.cli import EXIT_INPUT, EXIT_OK, EXIT_USAGE, main

SRC = pathlib.Path(adkra.__file__).parent
DATA = pathlib.Path(__file__).parent / "data"
DOMAIN = str(DATA / "nao.pddl")

NOISY = ["--noise-sigma-distance", "1", "--noise-sigma-angle", "2", "--preseed-td", "300"]
# Per kind, one seed for both runs. Seeds 41 and 40 reach the loop's rarer
# branches: a point outlier inside a coverage gap, nearer the upper bound
# (collective, noise-free); the confirmation of a bucketed bound (collective,
# noisy); and the reverts of a fresh bucket and of one never learned (group,
# noisy).
SEEDS = {"distance": 7, "angle": 7, "collective": 41, "group": 40}

PERFBENCH = "called only by perfbench/workloads.py"
INPUT_CHECK = "input check: the line before the raise"

# (module, function, why, line texts): unexecuted lines that stay. The text
# of a function's first line stands for every line of that function, which
# then nothing on the surface calls.
ALLOWED = [
    ("cli.py", "main", "the last-resort boundary: a bug exits 3 with its repr, not a traceback", [
        "except Exception as exc:  # noqa: BLE001 - last-resort boundary",
        'print(f"internal error: {exc!r}", file=sys.stderr)',
        "return EXIT_INTERNAL",
    ]),
    ("cli.py", "entry", "the console script and python -m adkra call it; the surface calls main", [
        "def entry() -> None:",
    ]),
    ("experience.py", "TrainingData.__len__", PERFBENCH, ["def __len__(self) -> int:"]),
    ("experience.py", "TrainingData.column", "perfbench/spans.py hooks it by name, so --trace 1 needs it", [
        "def column(self, attr: int, bucket_by: int | None = None, bucket_value: float | None = None) -> list[float]:",
    ]),
    ("experience.py", "TrainingData.nearest_neighbor", "the paper's median tie rule: only two stored values"
     " exactly as far from the query reach it", [
        "n = len(view)",
        "median = view[n // 2] if n % 2 else (view[n // 2 - 1] + view[n // 2]) / 2",
        "if median > value:",
        "return candidates[-1]",
        "return candidates[0]",
    ]),
    ("harness.py", "compute_metrics", "a failure without a true cause: the world never judges one, but"
     " adkra metrics counts it in a hand-written episodes.csv", ["tn += 1"]),
    ("kb.py", "ground_key", "runs only at import, where defaults.py builds the bound keys", [
        "def ground_key(name: str, *args: str) -> str:",
    ]),
    ("kb.py", "KnowledgeBase.get_effective_value", "the KB's lookup rule (a bucket without an entry reads"
     " the global one); world.generate_scenario asks has_entry first, as its fallback is the other bound", [
        "entry = self._entries.get((fluent, None))",
    ]),
    ("pddl.py", "UnsupportedConstructError.__init__", "the surface's input error is a syntax error", [
        "def __init__(self, construct: str, line: int | None = None):",
    ]),
    ("pddl.py", "_Parser.line", "the line number for UnsupportedConstructError", [
        "def line(self, tok: Token) -> int:",
    ]),
    ("pddl.py", "DomainModel.action", "called only by validate_plan", [
        "def action(self, name: str) -> ActionSchema | None:",
    ]),
    ("pddl.py", "tokenize", "input check: a token that starts with no ASCII character is a number"
     " if a Unicode digit starts it, an error otherwise", [
        "if not tok[0].isdecimal():",
        "line, col = token_position(text, index)",
        'kind = "number"',
    ]),
    ("pddl.py", "_Parser.peek", "input check: the text ends inside a form", [
        "except IndexError:",
        "if not self.tokens:",
    ]),
    ("pddl.py", "_Parser.expect", INPUT_CHECK, ["want = text if text is not None else kind"]),
    ("pddl.py", "_Parser.literal", INPUT_CHECK, ['noun = "object" if ground else "argument"']),
    ("pddl.py", "_conjuncts", "a lone condition without (and ...): valid PDDL that tests/data does not use", [
        "yield p.peek()",
    ]),
    ("pddl.py", "parse_domain", INPUT_CHECK, [
        'elif keyword in (":durative-action", ":constraints", ":derived", ":constants"):',
    ]),
    ("pddl.py", "_signature", INPUT_CHECK, [
        'what = atom.name if kind == "predicate" else f"function {atom.name}"',
    ]),
    ("pddl.py", "validate_problem", "input check: the walk runs only when the bulk check finds an"
     " unassigned grounding, and names the first", [
        "for binding in iter_bindings(action.params, problem.objects):",
        "for side in sides:",
        "term = ground_atom(side, binding)",
        "if term not in problem.init_fluents:",
    ]),
    ("pddl.py", "iter_bindings", "input check: the enumerator of the validate_problem walk above, over"
     " the pools grounding uses", [
        "def iter_bindings(params: tuple[tuple[str, str], ...], objects: tuple[tuple[str, str], ...]):",
    ]),
    ("pddl.py", "print_problem", "a problem without :goal: valid PDDL that tests/data does not use", [
        'out[-1] += ")"',
    ]),
    ("planner.py", "Plan.__len__", PERFBENCH, ["def __len__(self) -> int:"]),
    ("planner.py", "ValidationResult.__bool__", PERFBENCH, ["def __bool__(self) -> bool:"]),
    ("planner.py", "validate_plan", PERFBENCH, [
        "def validate_plan(domain: DomainModel, problem: ProblemInstance, plan: Plan) -> ValidationResult:",
    ]),
    ("planner.py", "ground_actions", "the static check after the pools are narrowed: nao's one static"
     " atom, pos, holds one fact, so every binding left passes it; the roads domain of test_planner.py"
     " reaches it", ["continue"]),
    ("planner.py", "_fluent", "input check: a problem built without validate_problem", ["except KeyError:"]),
    ("planner.py", "find_plan", "a problem whose :init already holds its goal", ["return Plan(())"]),
    ("planner.py", "find_plan", "the --max-depth bound: at the default depth, nao's states run out first", [
        "continue",
    ]),
    ("reasoner.py", "detect_collective_anomalies", "a public detector: a value never seen alone is a point"
     " anomaly, and process_feedback asks for collective ones only when there is none", ["continue"]),
]


def _surface(out: pathlib.Path) -> list[tuple[list[str], int]]:
    """(argv, expected exit code) for each command the trace runs."""
    runs = []
    for kind, seed in SEEDS.items():
        for flags in ([], NOISY):
            runs.append(["run", "--kind", kind, "--episodes", "30", "--seed", str(seed), *flags])
    runs += [
        # reach enough to grip from the start waypoint, 50 cm from the cup
        ["run", "--kind", "distance", "--episodes", "10", "--fault", "maxdis=60", "--preseed-td", "50"],
        ["run", "--kind", "distance", "--episodes", "20", "--eta-distance", "2"],
        # the first failure comes before any success
        ["run", "--kind", "group", "--episodes", "20", "--warmup-successes", "0"],
    ]
    surface = [(argv + ["--out", str(out / f"run{i}")], EXIT_OK) for i, argv in enumerate(runs)]
    trailing = out / "trailing.pddl"
    trailing.write_text((DATA / "nao.pddl").read_text() + "extra\n")
    not_utf8 = out / "not_utf8"
    not_utf8.mkdir()
    (not_utf8 / "episodes.csv").write_bytes(b"\xff")
    (not_utf8 / "domain.pddl").write_bytes(b"\xff")
    surface += [
        (["metrics", "--in", str(out / f"run{len(runs) - 1}")], EXIT_OK),
        (["parse", DOMAIN], EXIT_OK),
        (["parse", DOMAIN, str(DATA / "grip_faulty.pddl")], EXIT_OK),
        (["plan", "--domain", DOMAIN, "--problem", str(DATA / "grip_faulty.pddl")], EXIT_OK),
        (["plan", "--domain", DOMAIN, "--problem", str(DATA / "grip_refined.pddl")], EXIT_OK),
        (["run", "--kind", "distance", "--fault", "maxdis=far", "--out", str(out / "usage")], EXIT_USAGE),
        (["parse", str(trailing)], EXIT_INPUT),
        (["parse", str(not_utf8 / "domain.pddl")], EXIT_INPUT),
        (["metrics", "--in", str(not_utf8)], EXIT_INPUT),
    ]
    return surface


def _function_lines(code: types.CodeType, lines: set[int]) -> None:
    """Add the lines of every function body under ``code``, nested ones included."""
    if code.co_flags & inspect.CO_OPTIMIZED:
        lines.update(line for _start, _end, line in code.co_lines() if line is not None)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            _function_lines(const, lines)


def _enclosing_functions(tree: ast.Module) -> dict[int, tuple[str, int]]:
    """Line -> (dotted name, first line) of the innermost def around it, decorators included."""
    names: dict[int, tuple[str, int]] = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    names.update(dict.fromkeys(range(first, child.end_lineno + 1), (name, first)))
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return names


def _raise_lines(tree: ast.Module) -> set[int]:
    return {
        line
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        for line in range(node.lineno, node.end_lineno + 1)
    }


@pytest.fixture(scope="module")
def unexecuted(tmp_path_factory):
    """(module, function, line text, line, function's first line) per unexecuted line no raise covers."""
    modules = {str(path): path for path in sorted(SRC.glob("*.py"))}
    executed: dict[str, set[int]] = {name: set() for name in modules}

    def trace_lines(frame, event, arg):
        executed[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        if frame.f_code.co_filename in executed:
            return trace_lines(frame, event, arg)
        return None

    out = tmp_path_factory.mktemp("reach")
    codes = []
    previous = sys.gettrace()
    sys.settrace(trace_calls)
    try:
        for argv, want in _surface(out):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                codes.append((argv, main(argv), want, err.getvalue()))
    finally:
        sys.settrace(previous)
    wrong = [f"{argv}: exit {got}, want {want}\n{err}" for argv, got, want, err in codes if got != want]
    assert not wrong, "\n".join(wrong)

    found = []
    for filename, path in modules.items():
        text = path.read_text()
        tree = ast.parse(text)
        lines: set[int] = set()
        _function_lines(compile(tree, filename, "exec"), lines)
        source = text.splitlines()
        functions = _enclosing_functions(tree)
        for line in sorted(lines - executed[filename] - _raise_lines(tree)):
            function, first = functions.get(line, ("<module>", 0))
            found.append((path.name, function, source[line - 1].strip(), line, first))
    return found


ALLOWED_LINES = {(module, function, text) for module, function, _why, texts in ALLOWED for text in texts}


def test_every_unexecuted_line_is_allowed(unexecuted):
    never_called = {
        (module, function)
        for module, function, text, line, first in unexecuted
        if line == first and (module, function, text) in ALLOWED_LINES
    }
    dead = [
        f"{module}:{line} {function}: {text}"
        for module, function, text, line, _first in unexecuted
        if (module, function, text) not in ALLOWED_LINES and (module, function) not in never_called
    ]
    assert dead == []


def test_every_allowed_line_is_still_unexecuted(unexecuted):
    found = {(module, function, text) for module, function, text, _line, _first in unexecuted}
    assert sorted(ALLOWED_LINES - found) == []
