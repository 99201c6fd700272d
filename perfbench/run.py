"""Layered benchmark of adkra: closed refinement loops and one-shot planning.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it print the
same figures for a reader.

``--trace 0`` measures the end-to-end metrics with one hook only: the episode
boundary timestamp. Times are reported at reference speed (see
``reference_ms``), because the speed of a shared machine moves by a third
between runs. ``--trace 1`` runs the first pass untraced and then traced,
until ``--seconds`` are spent, and reports per-layer counts and self times
from the traced pass whose wall time is the median, plus the tracing
overhead. Its spans are written to ``.perfbench_out/`` when the run ends.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 15
# Times are reported at the machine speed at which reference_ms() reads this.
REFERENCE_MS = 4.0
# p99 is taken over windows this large, so at least ten samples lie beyond it.
TAIL_WINDOW = 1000

WORKLOADS = ("loop-clean", "loop-noisy-history", "plan-oneshot")


def percentile(samples: list[int], q: float) -> float:
    """Nearest-rank percentile of nanosecond times, in milliseconds."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)] / 1e6


class Tally:
    """Attempted and failed operations, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages.extend(failures)


def digest_of(results) -> str:
    return hashlib.sha256("".join(r.digest for r in results).encode()).hexdigest()


def rerun_pass(wl, first_pass, tally: Tally) -> None:
    """Repeat the first pass; its outputs must be byte-identical."""
    for i, first in enumerate(first_pass):
        again = wl.op(i)
        if again.digest != first.digest or again.failures:
            tally.failed += 1
            tally.messages.append(f"op {i}: rerun output differs from the first run")
            tally.messages.extend(again.failures)


def reference_ms() -> float:
    """Best of three runs of a fixed pure-Python loop, in milliseconds.

    The loop does what adkra's hot paths do (tuple keys, dicts, frozensets,
    sorting, membership tests) but calls no adkra code: a change to the
    package leaves it alone, while a slower machine slows it down too.
    """
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter_ns()
        table = {}
        for i in range(3000):
            key = (f"wp{i % 97}", i % 13)
            table[key] = frozenset((key, (i, i + 1)))
        sum(1 for k, v in sorted(table.items()) if (k, 0) not in v)
        best = min(best, time.perf_counter_ns() - t0)
    return best / 1e6


def measure_setup(reps: int):
    """Median time, at reference speed, to import adkra afresh and parse its domain.

    Each repetition drops the package's modules, and the benchmark modules
    that import it, and imports the package again, so module-level work
    counts every time; third-party modules (numpy) stay loaded after the
    first repetition. The reference loop runs between repetitions.
    Returns the scaled median, the raw median and the parsed domain.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    times = []
    probes = [reference_ms()]
    for _ in range(reps):
        for name in [m for m in sys.modules if m.split(".")[0] in ("adkra", "spans", "workloads")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        adkra = importlib.import_module("adkra")
        domain = adkra.parse_domain(adkra.defaults.DOMAIN_TEXT)
        times.append(time.perf_counter() - t0)
        probes.append(reference_ms())
    if Path(adkra.__file__).resolve().parent != SRC / "adkra":
        raise RuntimeError(f"imported adkra from {adkra.__file__}, not from {SRC}")
    scaled = [t * REFERENCE_MS / ((a + b) / 2) for t, a, b in zip(times, probes, probes[1:])]
    return statistics.median(scaled), statistics.median(times), domain


def untraced_run(wl, seconds: float, spans) -> tuple[dict, Tally, list[str]]:
    """Whole passes of fresh operations until ``seconds`` are spent.

    The reference loop runs before the first operation and after every
    ``wl.probe_every`` operations. Each operation's times are scaled to
    reference speed by the mean of the two readings around it; throughput is
    the median over passes of the scaled rate, p50 is over all samples.
    """
    clock = spans.EpisodeClock()
    tally = Tally()
    results = []
    sample_slices = []  # each operation's share of clock.samples_ns
    probes = [reference_ms()]
    start = time.perf_counter()
    with spans.hooked(clock.hooks()):
        while not results or time.perf_counter() - start < seconds:
            for _ in range(wl.pass_ops):
                clock.new_operation()
                first = len(clock.samples_ns)
                res = wl.op(len(results))
                results.append(res)
                sample_slices.append(slice(first, len(clock.samples_ns)))
                tally.add(res.failures)
                if len(results) % wl.probe_every == 0:
                    probes.append(reference_ms())
    first_pass = results[: wl.pass_ops]
    rerun_pass(wl, first_pass, tally)

    scale = []
    for j in range(len(results)):
        k = j // wl.probe_every
        scale.append(REFERENCE_MS / ((probes[k] + probes[k + 1]) / 2))

    def rates(factors):
        out = []
        for p in range(0, len(results), wl.pass_ops):
            ops = range(p, p + wl.pass_ops)
            out.append(sum(results[j].work for j in ops) * 1e9 / sum(results[j].ns * factors[j] for j in ops))
        return statistics.median(out)

    def samples_by_op(factors):
        if wl.unit == "episodes":
            return [[ns * factors[j] for ns in clock.samples_ns[sl]] for j, sl in enumerate(sample_slices)]
        return [[r.ns * factors[j]] if r.work else [] for j, r in enumerate(results)]

    def p99(by_op):
        """Median over windows of consecutive operations, each with TAIL_WINDOW samples or more.

        A burst of machine noise stretches the tail of the window it hits;
        the median over windows leaves it out.
        """
        tails, window = [], []
        for op_samples in by_op:
            window.extend(op_samples)
            if len(window) >= TAIL_WINDOW:
                tails.append(percentile(window, 99))
                window = []
        return statistics.median(tails) if tails else percentile(window, 99)

    scaled_by_op, raw_by_op = samples_by_op(scale), samples_by_op([1.0] * len(results))
    scaled = [x for op_samples in scaled_by_op for x in op_samples]
    raw = [x for op_samples in raw_by_op for x in op_samples]
    metrics = {
        "ops_per_s": (rates(scale), "1/s"),
        "op_ms_p50": (percentile(scaled, 50), "ms"),
        "op_ms_p99": (p99(scaled_by_op), "ms"),
    }
    per = wl.unit[:-1]
    n = len(scaled)
    lines = [
        f"reference loop {statistics.median(probes):.4f} ms here (median of {len(probes)}); "
        f"figures below are at reference speed ({REFERENCE_MS} ms), raw in brackets",
        f"{wl.unit}_per_s {metrics['ops_per_s'][0]:.4f} 1/s  [{rates([1.0] * len(results)):.4f}]  "
        f"(median of {len(results) // wl.pass_ops} passes of {wl.pass_ops} operations, "
        f"{sum(r.work for r in results)} {wl.unit})",
        f"{per}_ms_p50 {metrics['op_ms_p50'][0]:.4f} ms  [{percentile(raw, 50):.4f}]  (n={n})",
        f"{per}_ms_p99 {metrics['op_ms_p99'][0]:.4f} ms  [{p99(raw_by_op):.4f}]  "
        f"(median over windows of {TAIL_WINDOW}+ samples, n={n})",
        f"digest of the first pass's outputs: {digest_of(first_pass)}",
    ]
    return metrics, tally, lines


def traced_run(wl, seconds: float, spans, spans_path: Path) -> tuple[dict, Tally, list[str]]:
    """The first pass untraced, then traced, repeated until ``seconds`` are spent."""
    tally = Tally()
    passes = []  # (untraced wall ns, traced wall ns, tracer)
    first_digests = None
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        plain = [wl.op(i) for i in range(wl.pass_ops)]
        tracer = spans.Tracer()
        with spans.hooked(tracer.hooks()):
            traced = []
            for i in range(wl.pass_ops):
                tracer.trace_id = i
                traced.append(wl.op(i))
        digests = [r.digest for r in plain + traced]
        for res in plain + traced:
            tally.add(res.failures)
        if first_digests is None:
            first_digests = digests[: wl.pass_ops]
        if digests != first_digests * 2:
            tally.failed += 1
            tally.messages.append(f"pass {len(passes)}: outputs differ from the first pass")
        passes.append((sum(r.ns for r in plain), sum(r.ns for r in traced), tracer))

    _, wall_ns, tracer = sorted(passes, key=lambda p: p[1])[(len(passes) - 1) // 2]
    # Each traced pass runs right after its untraced twin, so their difference
    # sees one machine speed; a difference of medians would not.
    overhead_ns = statistics.median(traced - plain for plain, traced, _ in passes)
    if any(p[2].calls != passes[0][2].calls or p[2].counts != passes[0][2].counts for p in passes):
        tally.failed += 1
        tally.messages.append("traced passes over the same operations counted different work")

    tracer.write(str(spans_path))
    metrics = layer_metrics(tracer, wall_ns, overhead_ns, spans)
    lines = [f"traced passes: {len(passes)}, each over the first {wl.pass_ops} operations; "
             f"spans of the reported pass in {spans_path}"]
    lines.append(f"{'layer':34} {'calls':>9} {'self_ms':>11} {'share':>7}")
    for name in spans.SPAN_NAMES:
        lines.append(
            f"{name:34} {tracer.calls[name]:9d} {tracer.self_ns[name] / 1e6:11.3f} "
            f"{100 * tracer.self_ns[name] / wall_ns:6.1f}%"
        )
    harness_ns = wall_ns - tracer.top_ns
    lines.append(f"{'harness (wall minus layer spans)':34} {'':9} {harness_ns / 1e6:11.3f} "
                 f"{100 * harness_ns / wall_ns:6.1f}%")
    lines.append(
        f"tracing overhead {overhead_ns / 1e6:.3f} ms per pass  (median over {len(passes)} passes "
        f"of traced minus untraced wall; reported traced wall {wall_ns / 1e6:.3f} ms)"
    )
    return metrics, tally, lines


def layer_metrics(tracer, wall_ns: int, overhead_ns: int, spans) -> dict:
    def ms(ns):
        return (ns / 1e6, "ms")

    def count(n):
        return (n, "count")

    def ratio(num, den):
        return ((num / den) if den else 0.0, "ratio")

    c, calls, self_ns = tracer.counts, tracer.calls, tracer.self_ns
    m = {}
    for name in spans.SPAN_NAMES:
        m[f"{name}.calls"] = count(calls[name])
        m[f"{name}.self_ms"] = ms(self_ns[name])
    m["planner.ground_actions.actions"] = count(c["planner.ground_actions.actions"])
    m["planner.no_plan_ratio"] = ratio(c["planner.no_plan"], calls["planner.search"])
    m["pddl.apply_effect.calls"] = count(c["pddl.apply_effect"])
    m["experience.rows_scanned"] = count(c["experience.rows_scanned"])
    m["reasoner.applied_ratio"] = ratio(c["reasoner.applied"], c["reasoner.failures"])
    m["reasoner.undetected_ratio"] = ratio(c["reasoner.undetected"], c["reasoner.failures"])
    m["kb.snapshot_changed_ratio"] = ratio(c["kb.snapshot_changed"], calls["kb.snapshot_hash"])
    m["harness.self_ms"] = ms(wall_ns - tracer.top_ns)
    m["harness.wall_ms"] = ms(wall_ns)
    m["trace.overhead_ms"] = ms(overhead_ns)
    return m


def main(argv=None, sizes=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "adkra" / "__init__.py").is_file():
        print(f"error: no adkra sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    setup_s, setup_raw_s, domain = measure_setup(SETUP_REPS)
    # Imported only now: both import adkra, whose import time setup_s measures.
    import spans
    import workloads

    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"run-{args.workload}-{os.getpid()}"
    wl = workloads.make(args.workload, args.seed, domain, str(run_dir), **(sizes or {}))
    try:
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics, tally, lines = traced_run(wl, args.seconds, spans, spans_path)
        else:
            metrics, tally, lines = untraced_run(wl, args.seconds, spans)
            metrics["setup_s"] = (setup_s, "s")
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
            lines = [
                f"setup_s {setup_s:.6f} s  [{setup_raw_s:.6f}]  "
                f"(median of {SETUP_REPS} imports + domain parses)",
                *lines,
                f"peak_rss_mb {metrics['peak_rss_mb'][0]:.2f} MB",
            ]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for line in lines:
        print(line)
    print(f"error_ratio {tally.failed / tally.attempted:.6f}  ({tally.failed} of {tally.attempted} "
          "operations failed their checks)")
    for msg in tally.messages[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
