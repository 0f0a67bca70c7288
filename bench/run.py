"""gemkit benchmark: one workload, timed untraced or traced.

    python3 bench/run.py --workload crystal-pipeline --seed 1 --seconds 40 --trace 0

Prints every metric by name with its unit, then, as the last line, one
JSON object {"correct", "attempted", "failed", "metrics"}.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
untraced and traced passes alternate and the metrics are the per-layer
ones, derived from spans written to ``.bench_out/spans-<workload>.jsonl``.
Times are in reference seconds (see refclock.py).  Exits 1 when any
output is wrong and 2 when the sources are missing.  See bench/README.md
for the workloads and how to compare two commits.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import tracing
from refclock import RefClock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9
# the import of gemkit, timed inside a fresh interpreter so that it can
# be repeated; interpreter start-up is not part of it
IMPORT_REPEATS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import gemkit, gemkit.cli; "
                "print(time.perf_counter() - t)")
# the CLI baseline: import, then four subcommands on catalog entries
SUBPROCESS_COMMANDS = (
    ("import", ["-c", "import gemkit"]),
    ("info-fig4", ["-m", "gemkit.cli", "info", "fig4_boundary16", "--json"]),
    ("genus-fig4", ["-m", "gemkit.cli", "genus", "fig4_boundary16"]),
    ("verify-fig4", ["-m", "gemkit.cli", "verify", "fig4_boundary16",
                     "--rank", "1"]),
    ("crystallize-double-fig3", ["-m", "gemkit.cli", "crystallize-double",
                                 "fig3_d3xs1"]),
)
SUBPROCESS_TIMEOUT_S = 120
OUTCOMES = ("ok", "contract", "defect", "failed")
BREAKDOWN = ("core.census", "constructions.double", "core.face_vector",
             "core.validate", "core.residue_components")
BREAKDOWN_ROWS = 60


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "gemfile.bytes":
        return "bytes"
    return "count"


class Bench:
    """Set-up, passes, checks and outcome counts of one run.  Intervals
    are kept as (start, wall duration) and converted to reference seconds
    once the run is over."""

    def __init__(self, workload, digests, tracer, clock):
        self.workload = workload
        self.digests = digests.get(workload.name, {})
        self.subprocess_digests = digests.get("subprocess", {})
        self.tracer = tracer
        self.clock = clock
        self.outcomes = Counter()
        self.import_intervals: list[tuple[float, float]] = []
        self.setup_intervals: list[tuple[float, float]] = []
        # per pass: (traced, item intervals)
        self.passes: list[tuple[bool, list[tuple[float, float]]]] = []
        self.cli_intervals: list[tuple[float, float]] = []
        self.first: dict[str, dict[str, str]] = {}
        self.wrong: list[str] = []
        self.ranges: dict[str, tuple[int, int]] = {}
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH")
                          else []))

    def time_imports(self) -> None:
        for _ in range(IMPORT_REPEATS):
            start = time.perf_counter()
            try:
                proc = self._spawn(["-c", IMPORT_PROBE])
            except subprocess.TimeoutExpired:
                proc = None
            self.clock.checkpoint(force=True)
            if proc is None or proc.returncode != 0:
                self.wrong.append("import of gemkit failed in a fresh interpreter")
                return
            self.import_intervals.append((start, float(proc.stdout)))

    def setup(self, traced: bool):
        first = None
        for k in range(SETUP_REPEATS):
            trace_this = traced and k == 0
            if trace_this:
                self.tracer.gem = "setup"
                lo = len(self.tracer.spans)
                self.tracer.install()
            start = time.perf_counter()
            batch = self.workload.setup()
            self.setup_intervals.append((start, time.perf_counter() - start))
            if trace_this:
                self.tracer.uninstall()
                self.ranges["setup"] = (lo, len(self.tracer.spans))
            self.clock.checkpoint(force=True)
            if first is None:
                first = batch
            elif [(i.id, i.text) for i in batch] != [(i.id, i.text) for i in first]:
                self.wrong.append(f"setup: inputs of repetition {k + 1} differ")
        return first

    def run_pass(self, items, traced: bool) -> None:
        """One pass over the batch, then one round of CLI subprocesses."""
        from workloads import ItemRun, _Abort

        lo = len(self.tracer.spans)
        runs, intervals = [], []
        if traced:
            self.tracer.install()
        for item in items:
            self.tracer.gem = item.id
            run = ItemRun()
            start = time.perf_counter()
            try:
                self.workload.run_item(run, item)
            except _Abort:
                pass
            intervals.append((start, time.perf_counter() - start))
            runs.append(run)
            self.clock.checkpoint()
        self.clock.checkpoint(force=True)
        if traced:
            self.tracer.uninstall()
        self.passes.append((traced, intervals))
        self.subprocess_round(traced)
        if traced:
            self.ranges[f"pass{len(self.passes)}"] = (lo, len(self.tracer.spans))
        for item, run in zip(items, runs):
            self.settle(item, run)

    def settle(self, item, run) -> None:
        """Check one item's outputs and count its outcomes."""
        from workloads import digest

        wrong = set()
        records = {step: digest(r) for step, r in run.records().items()}
        first = self.first.get(item.id)
        if first is None:
            self.first[item.id] = records
            if run.complete:
                wrong.update(self.workload.check(item, run))
            if item.anchor:
                recorded = self.digests.get(item.id, {})
                wrong.update(s for s in records.keys() | recorded.keys()
                             if records.get(s) != recorded.get(s))
        else:
            wrong.update(s for s in records.keys() | first.keys()
                         if records.get(s) != first.get(s))
        wrong.update(step for step, result in run.steps.items()
                     if result.outcome == "defect" and not item.known_defect())
        for step, result in run.steps.items():
            self.outcomes["failed" if step in wrong else result.outcome] += 1
        self.wrong.extend(f"{item.id}: {step}" for step in sorted(wrong))

    def subprocess_round(self, traced: bool) -> None:
        from workloads import digest

        for label, argv in SUBPROCESS_COMMANDS:
            self.tracer.gem = f"subprocess:{label}"
            start = time.perf_counter()
            try:
                if traced:
                    with self.tracer.span(tracing.SUBPROCESS):
                        proc = self._spawn(argv)
                else:
                    proc = self._spawn(argv)
            except subprocess.TimeoutExpired:
                proc = None
            if not traced:
                self.cli_intervals.append((start, time.perf_counter() - start))
            self.clock.checkpoint(force=True)
            if proc is None or proc.returncode != 0:
                self.outcomes["failed"] += 1
                self.wrong.append(f"subprocess {label}: exit "
                                  f"{proc.returncode if proc else 'timeout'}")
            elif digest(f"exit 0\n{proc.stdout}") != self.subprocess_digests.get(label):
                self.outcomes["failed"] += 1
                self.wrong.append(f"subprocess {label}: output differs")
            else:
                self.outcomes["ok"] += 1

    def _spawn(self, argv):
        return subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=self.env,
            capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)

    def pass_times(self, traced: bool, scaled: bool = True) -> list[float]:
        """Time of each pass: the sum of its item intervals."""
        return [
            sum(self.clock.seconds(*iv) if scaled else iv[1] for iv in intervals)
            for was_traced, intervals in self.passes if was_traced == traced
        ]

    def item_ms_per_pass(self) -> list[list[float]]:
        return [[self.clock.seconds(*iv) * 1000 for iv in intervals]
                for traced, intervals in self.passes if not traced]

    def item_ms(self) -> list[float]:
        return [ms for pass_ms in self.item_ms_per_pass() for ms in pass_ms]


def end_to_end(bench) -> dict[str, tuple[float, str]]:
    clock = bench.clock
    item_ms = bench.item_ms()
    setup_s = statistics.median(
        clock.seconds(*iv) for iv in bench.import_intervals) + statistics.median(
        clock.seconds(*iv) for iv in bench.setup_intervals)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(bench.pass_times(traced=False)), "s"),
        "item_p50_ms": (statistics.median(item_ms), "ms"),
        # a high percentile of a few dozen samples is their one outlier;
        # the median over passes of each pass's p95 is not
        "item_p95_ms": (statistics.median(
            percentile(pass_ms, 95) for pass_ms in bench.item_ms_per_pass()), "ms"),
        "cli_p50_ms": (statistics.median(
            clock.seconds(*iv) * 1000 for iv in bench.cli_intervals), "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(bench) -> dict[str, tuple[float, str]]:
    spans = bench.tracer.spans
    setup = list(range(*bench.ranges["setup"]))
    per_pass = [
        tracing.layer_metrics(spans, setup + list(range(lo, hi)),
                              bench.clock.scale_at)
        for label, (lo, hi) in bench.ranges.items() if label != "setup"
    ]
    metrics = {name: (statistics.median(p[name] for p in per_pass),
                      layer_unit(name))
               for name in per_pass[0]}
    metrics["trace.overhead_s"] = (
        statistics.median(bench.pass_times(traced=True))
        - statistics.median(bench.pass_times(traced=False)), "s")
    passes = len(bench.passes)
    attempted = sum(bench.outcomes.values())
    metrics["ops.attempted"] = (attempted / passes, "count")
    for outcome in OUTCOMES:
        metrics[f"ops.{outcome}"] = (bench.outcomes[outcome] / passes, "count")
    for outcome in ("defect", "failed"):
        metrics[f"ops.{outcome}_ratio"] = (
            bench.outcomes[outcome] / attempted, "ratio")
    return metrics


def print_breakdown(bench, label) -> None:
    rows = tracing.top_call_breakdown(
        bench.tracer.spans, range(*bench.ranges[label]), BREAKDOWN)
    print(f"per top-level call, {label}: " + " / ".join(BREAKDOWN))
    for gem, name, counts in rows[:BREAKDOWN_ROWS]:
        print(f"  {gem} {name}: " + " / ".join(str(counts[n]) for n in BREAKDOWN))
    if len(rows) > BREAKDOWN_ROWS:
        print(f"  ... {len(rows) - BREAKDOWN_ROWS} more rows; spans are in "
              f"{OUT.name}/spans-{bench.workload.name}.jsonl")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest inputs, for the schema test")
    args = parser.parse_args(argv)

    if not (SRC / "gemkit" / "__init__.py").is_file():
        print(f"error: gemkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    clock = RefClock()
    import gemkit  # noqa: F401
    import gemkit.cli  # noqa: F401

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, OUT)
    bench = Bench(workload, workloads.load_digests(), tracing.Tracer(), clock)
    traced = bool(args.trace)
    bench.time_imports()
    items = bench.setup(traced)

    loop_start = time.perf_counter()
    rounds = 0
    while True:
        bench.run_pass(items, traced=False)
        if traced:
            bench.run_pass(items, traced=True)
        rounds += 1
        elapsed = time.perf_counter() - loop_start
        if elapsed + elapsed / rounds > args.seconds:
            break

    if traced:
        metrics = per_layer(bench)
        OUT.mkdir(exist_ok=True)
        first = next(k for k in bench.ranges if k != "setup")
        bench.tracer.write(OUT / f"spans-{workload.name}.jsonl",
                           {k: bench.ranges[k] for k in ("setup", first)})
        print_breakdown(bench, first)
    else:
        metrics = end_to_end(bench)

    attempted = sum(bench.outcomes.values())
    failed = bench.outcomes["failed"]
    correct = not bench.wrong
    print(f"workload {workload.name}, seed {args.seed}: {len(bench.passes)} "
          f"passes ({rounds} untraced), {len(items)} items per pass, "
          f"{len(bench.item_ms())} item samples, "
          f"{len(bench.cli_intervals)} CLI samples")
    print("imports, reference s: " + " ".join(
        f"{clock.seconds(*iv):.4f}" for iv in bench.import_intervals))
    print("set-ups, reference s: " + " ".join(
        f"{clock.seconds(*iv):.4f}" for iv in bench.setup_intervals))
    print("untraced pass times, reference s: " + " ".join(
        f"{w:.3f}" for w in bench.pass_times(traced=False)))
    print("untraced pass times, wall s:      " + " ".join(
        f"{w:.3f}" for w in bench.pass_times(traced=False, scaled=False)))
    defect = bench.outcomes["defect"]
    print("outcomes: attempted {} = ok {} + contract {} + defect {} + failed {}; "
          "defect_ratio {:.4f} ({}/{}); failed_ratio {:.4f} ({}/{})".format(
              attempted, bench.outcomes["ok"], bench.outcomes["contract"],
              defect, failed, defect / attempted, defect, attempted,
              failed / attempted, failed, attempted))
    for problem in bench.wrong[:20]:
        print(f"WRONG OUTPUT {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
