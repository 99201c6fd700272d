"""Command line front end: parse, plan, run, metrics.

Exit codes: 0 success, 1 usage error, 2 input error, 3 internal error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__, defaults
from .experience import ExperienceError
from .harness import (
    ExperimentConfig,
    HarnessError,
    compute_metrics,
    confusion_table,
    emit_report,
    format_rate,
    load_scored_events,
    run_experiment,
)
from .kb import KnowledgeBaseError
from .pddl import PddlError, parse_domain, parse_problem, print_domain, print_problem
from .planner import DEFAULT_MAX_DEPTH, PlannerError, find_plan, format_plan
from .world import NoiseModel, WorldError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

_INPUT_ERRORS = (
    PddlError,
    PlannerError,
    HarnessError,
    WorldError,
    KnowledgeBaseError,
    ExperienceError,
    OSError,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fault_spec(text: str) -> tuple[str, float]:
    name, sep, val = text.partition("=")
    name = name.strip().lower()
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected fluent=value, got {text!r}")
    try:
        return name, float(val)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad fault value in {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="adkra", description=__doc__)
    parser.add_argument("--version", action="version", version=f"adkra {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("parse", help="validate PDDL files and print the canonical form")
    p.add_argument("domain")
    p.add_argument("problem", nargs="?")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("plan", help="find and print a plan")
    p.add_argument("--domain", required=True)
    p.add_argument("--problem", required=True)
    p.add_argument("--max-depth", type=int, default=DEFAULT_MAX_DEPTH)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("run", help="run one refinement experiment")
    p.add_argument("--kind", required=True, choices=defaults.EXPERIMENT_KINDS)
    p.add_argument("--episodes", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-adkra", action="store_true", help="disable refinement (baseline)")
    p.add_argument("--eta-distance", type=float)
    p.add_argument("--eta-angle", type=float)
    p.add_argument("--noise-sigma-distance", type=float, default=0.0)
    p.add_argument("--noise-sigma-angle", type=float, default=0.0)
    p.add_argument(
        "--fault",
        action="append",
        type=_fault_spec,
        default=None,
        metavar="FLUENT=VALUE",
        help="override the kind's default fault set (repeatable)",
    )
    p.add_argument("--preseed-td", type=int, default=0, metavar="K")
    p.add_argument("--warmup-successes", type=int, default=30)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("metrics", help="recompute rates from a run directory")
    p.add_argument("--in", dest="in_dir", required=True)
    p.set_defaults(func=cmd_metrics)
    return parser


def cmd_parse(args) -> int:
    with open(args.domain) as fh:
        domain = parse_domain(fh.read())
    sys.stdout.write(print_domain(domain))
    if args.problem:
        with open(args.problem) as fh:
            problem = parse_problem(fh.read(), domain)
        sys.stdout.write(print_problem(problem))
    return EXIT_OK


def cmd_plan(args) -> int:
    with open(args.domain) as fh:
        domain = parse_domain(fh.read())
    with open(args.problem) as fh:
        problem = parse_problem(fh.read(), domain)
    plan = find_plan(domain, problem, args.max_depth)
    sys.stdout.write(format_plan(plan))
    return EXIT_OK


def cmd_run(args) -> int:
    faults = None
    if args.fault:
        faults = {defaults.FAULT_ALIASES.get(name, name): value for name, value in args.fault}
    cfg = ExperimentConfig(
        kind=args.kind,
        episodes=args.episodes,
        adkra_enabled=not args.no_adkra,
        faults=faults,
        seed=args.seed,
        eta_distance=args.eta_distance,
        eta_angle=args.eta_angle,
        noise=NoiseModel(args.noise_sigma_distance, args.noise_sigma_angle),
        preseed_td=args.preseed_td,
        warmup_successes=args.warmup_successes,
    )
    report = run_experiment(cfg)
    emit_report(report, args.out)

    print(f"kind {cfg.kind}  seed {cfg.seed}  adkra {'on' if cfg.adkra_enabled else 'off'}")
    print(f"warmup episodes: {report.warmup_count}")
    print(f"phase 1 failures: {report.phase1_failures} / {cfg.episodes}")
    if report.phase2_failures is not None:
        print(f"phase 2 failures: {report.phase2_failures} / {cfg.episodes}")
    if report.baseline_phase1_failures is not None:
        print(f"baseline phase 1 failures: {report.baseline_phase1_failures} / {cfg.episodes}")
    print("\n".join(confusion_table(report.metrics)))
    print("final bounds:")
    print(report.kb.effective_dump())
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_metrics(args) -> int:
    events = load_scored_events(os.path.join(args.in_dir, "episodes.csv"))
    m = compute_metrics(events)
    print("\n".join(confusion_table(m)))
    print(f"TP {m.tp}  FP {m.fp}  FN {m.fn}  TN {m.tn}  Obs {m.obs}")
    print(f"TPR {format_rate(m.tpr)}  FNR {format_rate(m.fnr)}")
    print(f"Precision {format_rate(m.precision)}  Accuracy {format_rate(m.accuracy)}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # noqa: BLE001 - last-resort boundary
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())
