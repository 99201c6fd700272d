"""The benchmark's workloads: seeded inputs, one timed operation, output checks.

Every workload drives adkra through the calls its command line makes:
``run_experiment`` + ``emit_report`` (as ``adkra run`` does) and
``parse_problem`` + ``find_plan`` + ``format_plan`` (as ``adkra plan`` does).
Package functions are reached through their modules (``harness.run_experiment``,
not a copied name) so that the traced run's wrappers see these calls too.

Operation ``i`` depends only on the workload seed and ``i``. Checks run
outside the timed window: loop outputs are re-read from the run directory and
held to properties the refinement loop has on every seed; plans are held to a
verdict worked out from the generated geometry and replayed.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from adkra import defaults, harness, pddl, planner
from adkra.experience import SUCCESS
from adkra.kb import CONFIRMED, TEMPORARY
from adkra.world import NoiseModel

# Experiment seeds of one benchmark seed stay apart from every other seed's.
SEED_STRIDE = 10_000

PLAN_MAX_DEPTH = 10  # the default of `adkra plan --max-depth`


@dataclass
class OpResult:
    """One timed operation: its timed window, work done, output digest, check failures."""

    ns: int
    work: int
    digest: str
    failures: list[str] = field(default_factory=list)


def _guarded(index: int, body) -> OpResult:
    """Run one operation; an exception fails the operation instead of the run."""
    try:
        return body()
    except Exception:  # noqa: BLE001 - one failed operation must not end the run
        return OpResult(0, 0, "", [f"op {index} raised:\n{traceback.format_exc()}"])


# ── Closed refinement loops ───────────────────────────────────────────────


class LoopWorkload:
    """Experiments back to back, one client: each op is run_experiment + emit_report.

    ``work`` is the number of episodes the experiment stands for: its
    warm-up, phase 1 and phase 2 records plus the counterfactual pass
    (warm-up replay and phase 1). It is read off the report, so a change that
    skips re-running some of them still counts the same work.
    """

    unit = "episodes"

    def __init__(self, kinds, out_dir, seed, *, episodes=100, warmup_successes=30,
                 noise=NoiseModel(), preseed_td=0):
        self.kinds = kinds
        self.out_dir = out_dir
        self.seed = seed
        self.episodes = episodes
        self.warmup_successes = warmup_successes
        self.noise = noise
        self.preseed_td = preseed_td
        # One pass runs every kind once; the reference loop runs between experiments.
        self.pass_ops = len(kinds)
        self.probe_every = 1

    def config(self, i: int) -> harness.ExperimentConfig:
        return harness.ExperimentConfig(
            kind=self.kinds[i % len(self.kinds)],
            episodes=self.episodes,
            seed=SEED_STRIDE * self.seed + i // len(self.kinds),
            noise=self.noise,
            preseed_td=self.preseed_td,
            warmup_successes=self.warmup_successes,
        )

    def op(self, i: int) -> OpResult:
        return _guarded(i, lambda: self._op(i))

    def _op(self, i: int) -> OpResult:
        cfg = self.config(i)
        t0 = time.perf_counter_ns()
        report = harness.run_experiment(cfg)
        harness.emit_report(report, self.out_dir)
        ns = time.perf_counter_ns() - t0
        work = len(report.records) + report.warmup_count + cfg.episodes
        failures = [f"op {i} ({cfg.kind}, seed {cfg.seed}): {msg}" for msg in self.check(cfg, report)]
        return OpResult(ns, work, dir_digest(self.out_dir), failures)

    def check(self, cfg, report) -> list[str]:
        """Properties every run of this loop has, whatever the seed."""
        bad = []
        events = harness.load_scored_events(os.path.join(self.out_dir, "episodes.csv"))
        if harness.compute_metrics(events) != report.metrics:
            bad.append("confusion counts recomputed from episodes.csv disagree with the report")
        for phase in ("phase1", "phase2"):
            if len(report.records_of(phase)) != cfg.episodes:
                bad.append(f"{phase} has {len(report.records_of(phase))} episodes, want {cfg.episodes}")
        bad.extend(_kb_history_problems(report.kb))
        if cfg.preseed_td:
            successes = sum(1 for r in report.records_of("phase1") if r.outcome == SUCCESS)
            if report.warmup_count != 0:
                bad.append("a preseeded history still ran a warm-up")
            if len(report.td) != cfg.preseed_td + successes:
                bad.append(f"history holds {len(report.td)} rows, want {cfg.preseed_td} + {successes}")
        if cfg.noise == NoiseModel():
            # Noise-free refinement always beats the same seeds without it.
            if not report.phase1_failures < report.baseline_phase1_failures:
                bad.append(
                    f"phase 1 failed {report.phase1_failures} times, the static baseline "
                    f"{report.baseline_phase1_failures}"
                )
            if cfg.kind == "distance":
                # The overstated reach is learned to within one step of the truth
                # (23 cm) from above, and the refined KB never fails again.
                maxdis = report.kb.get_effective_value(defaults.MAXDIS)
                if maxdis not in (22.0, 23.0):
                    bad.append(f"maxdis settled at {maxdis}, want 23 (or 22, one step short)")
                if report.phase2_failures != 0:
                    bad.append(f"refined KB failed {report.phase2_failures} times in phase 2")
        return bad


def _kb_history_problems(kb) -> list[str]:
    bad = []
    for entry in kb.entries():
        statuses = [rec.status for rec in entry.history]
        where = f"{entry.fluent}@{entry.condition}"
        if not statuses:
            bad.append(f"{where}: empty history")
        elif statuses.count(TEMPORARY) > 1 or TEMPORARY in statuses[:-1]:
            bad.append(f"{where}: a temporary below the top ({statuses})")
        elif entry.condition is None and statuses[0] != CONFIRMED:
            bad.append(f"{where}: no confirmed floor ({statuses})")
    return bad


def dir_digest(path: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


# ── One-shot planning ─────────────────────────────────────────────────────


@dataclass(frozen=True)
class GeneratedProblem:
    text: str
    start: str
    cup: str
    grippable: frozenset[str]  # waypoints the grip gates accept, from the geometry

    @property
    def expected_length(self) -> int | None:
        if not self.grippable:
            return None
        return 1 if self.start in self.grippable else 2


def generate_problem(seed: int, i: int, n: int, want_plan: bool) -> GeneratedProblem:
    """A distinct nao-domain problem with n waypoints on a random layout.

    The cup sits at the origin and every other waypoint at a drawn radius
    inside or outside the reach window. A problem without a plan fails either
    on reach (no waypoint in the window) or on the head angle (all gates
    closed), so BFS exhausts the state space.
    """
    rng = np.random.default_rng([seed, i])
    names = [f"wp{k}" for k in range(n)]
    start, cup = (names[k] for k in rng.choice(n, size=2, replace=False))
    mindis = round(float(rng.uniform(8.0, 18.0)), 3)
    maxdis = round(mindis + float(rng.uniform(4.0, 10.0)), 3)
    minhw = round(float(rng.uniform(-30.0, -20.0)), 3)
    maxhw = round(float(rng.uniform(-5.0, 5.0)), 3)

    angle_blocks = not want_plan and rng.random() < 0.5
    if angle_blocks:
        hw = maxhw + rng.uniform(0.5, 10.0) if rng.random() < 0.5 else minhw - rng.uniform(0.5, 10.0)
    else:
        hw = rng.uniform(minhw + 0.5, maxhw - 0.5)
    hw = round(float(hw), 3)

    others = [w for w in names if w != cup]
    if want_plan:
        k_in = int(rng.integers(1, max(1, len(others) // 3) + 1))
    elif angle_blocks:
        k_in = int(rng.integers(0, len(others) + 1))
    else:
        k_in = 0
    inside = {others[k] for k in rng.choice(len(others), size=k_in, replace=False)}
    xy = {cup: (0.0, 0.0)}
    for w in others:
        if w in inside:
            r = rng.uniform(mindis + 0.5, maxdis - 0.5)
        elif rng.random() < 0.5:
            r = rng.uniform(0.5, mindis - 0.5)
        else:
            r = rng.uniform(maxdis + 0.5, maxdis + 60.0)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        xy[w] = (float(r * math.cos(theta)), float(r * math.sin(theta)))

    dist = {
        (a, b): f"{math.hypot(xy[a][0] - xy[b][0], xy[a][1] - xy[b][1]):.3f}"
        for a in names
        for b in names
    }
    # The verdict comes from the numbers exactly as written, so rounding
    # cannot flip a gate between the label and the planner.
    angle_ok = minhw < hw < maxhw
    grippable = frozenset(
        w for w in names if angle_ok and mindis < float(dist[(w, cup)]) < maxdis
    )

    init = [f"(atrobby nao {start})", f"(pos redcup {cup})", "(free nao grp)"]
    init += [f"(= (dist_to {a} {b}) {d})" for (a, b), d in dist.items()]
    init += [
        f"(= (hwangle nao) {hw})",
        f"(= (maxdis grp) {maxdis})",
        f"(= (mindis grp) {mindis})",
        f"(= (maxhwangle nao) {maxhw})",
        f"(= (minhwangle nao) {minhw})",
    ]
    text = "\n".join(
        [
            f"(define (problem oneshot-{seed}-{i})",
            "  (:domain nao)",
            f"  (:objects {' '.join(names)} - waypoint nao - robot redcup - thing grp - gripper)",
            "  (:init",
            *(f"    {line}" for line in init),
            "  )",
            "  (:goal (and (carry nao redcup grp))))",
            "",
        ]
    )
    return GeneratedProblem(text, start, cup, grippable)


class PlanWorkload:
    """A stream of distinct problems, each parsed, planned and printed once.

    Every pass holds one problem with a plan and one without for each
    waypoint count, so passes cost about the same and half have no plan.
    """

    unit = "plans"

    def __init__(self, domain, seed, *, sizes=range(4, 17)):
        self.domain = domain
        self.seed = seed
        self.sizes = sizes
        self.pass_ops = 2 * len(sizes)
        self.probe_every = self.pass_ops

    def op(self, i: int) -> OpResult:
        return _guarded(i, lambda: self._op(i))

    def _op(self, i: int) -> OpResult:
        k = i % self.pass_ops
        gen = generate_problem(self.seed, i, self.sizes[k // 2], want_plan=k % 2 == 0)
        t0 = time.perf_counter_ns()
        problem = pddl.parse_problem(gen.text, self.domain)
        try:
            plan = planner.find_plan(self.domain, problem, PLAN_MAX_DEPTH)
        except planner.NoPlanFound:
            plan = None
            listing = "no plan\n"
        else:
            listing = planner.format_plan(plan)
        ns = time.perf_counter_ns() - t0
        failures = [f"op {i} ({problem.name}): {msg}" for msg in self.check(gen, problem, plan)]
        return OpResult(ns, 1, hashlib.sha256(listing.encode()).hexdigest(), failures)

    def check(self, gen: GeneratedProblem, problem, plan) -> list[str]:
        want = gen.expected_length
        if plan is None:
            return [] if want is None else [f"no plan found, want one of length {want}"]
        if want is None:
            return [f"found a plan of length {len(plan)}, want none"]
        bad = []
        if len(plan) != want:
            bad.append(f"plan length {len(plan)}, want {want}")
        result = planner.validate_plan(self.domain, problem, plan)
        if not result:
            bad.append(f"plan does not replay: {result.diagnostic}")
        grip = plan.steps[-1]
        if grip.schema != "grip" or grip.args[2] not in gen.grippable or grip.args[3] != gen.cup:
            bad.append(f"last step {grip.name} is not a grip from a reachable waypoint")
        return bad


# ── Registry ──────────────────────────────────────────────────────────────

# The ROADMAP's noisy run: 1 cm / 2 degrees of Gaussian sensing noise.
NOISY = NoiseModel(sigma_distance=1.0, sigma_angle=2.0)
NOISY_HISTORY_ROWS = 5000
# Shorter phases put more experiments, hence more seeds, into one run: the
# slowest episodes (collective-anomaly queries) depend on the seed.
NOISY_EPISODES = 50


def make(name: str, seed: int, domain, out_dir: str, **sizes):
    """The named workload; ``sizes`` shrinks it for the smoke test."""
    if name == "loop-clean":
        return LoopWorkload(defaults.EXPERIMENT_KINDS, out_dir, seed, **sizes)
    if name == "loop-noisy-history":
        sizes = {"noise": NOISY, "preseed_td": NOISY_HISTORY_ROWS, "episodes": NOISY_EPISODES, **sizes}
        return LoopWorkload(("group",), out_dir, seed, **sizes)
    if name == "plan-oneshot":
        return PlanWorkload(domain, seed, **sizes)
    raise ValueError(f"unknown workload {name!r}")
