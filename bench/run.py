"""Benchmark harness for cyclomod: one workload, one process, one job at a time.

    python3 bench/run.py --workload bool-gf2 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; cyclomod is imported from ``src/``.
Set-up (importing cyclomod and writing the seeded inputs) is repeated
and timed on its own.  Then whole passes over the workload's corpus run
back to back until ``--seconds`` have passed, and every job output is
checked: its signature, and that its bytes match the first pass.  After
the timed passes each item is re-checked through the library.

Times are taken with a host-speed probe running (see speed.py): each
job's own time excludes the probe, and its normalized time rescales it
to a host of nominal speed.  The result line reports normalized times;
the summary above it prints the raw ones too.

With ``--trace 0`` the result line holds the end-to-end metrics.  With
``--trace 1`` untraced and traced passes alternate; the result line holds
the per-layer metrics, and the spans of the last traced pass are written
to ``bench/.work/``.  The last line of stdout is always one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"
SETUP_REPEATS = 7
MIN_PASSES = 3
MIN_TRACED_PASSES = 2

sys.path.insert(0, str(BENCH_DIR))

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# per-layer metrics: normalized self seconds, plus calls
TIMED_LAYERS = (
    "boolfn.sn_action",
    "modules.orbit_basis",
    "endo.commutant_basis",
    "linalg.rref",
    "linalg.mat_pow",
    "endo.find_splitting_element",
    "polynomials.min_poly",
    "polynomials.factor",
    "endo.verify_certificate",
    "decompose.block_from_vectors",
    "wfa.left_reduce",
    "linalg.SpanSolver.add",
    "linalg.SpanSolver.coordinates",
    "linalg.SpanSolver.contains",
    "serialize.report_to_json",
    "serialize.to_text",
    "serialize.automaton_from_json",
)
WORK_COUNTS = (
    "endo.commutant_basis.unknowns",
    "linalg.rref.entries",
    "wfa.left_reduce.kept_words",
    "endo.search.candidates",
    "decompose.noncyclic_leaves",
    "decompose.undecided_leaves",
)


class SetupError(RuntimeError):
    """The checkout has no importable cyclomod."""


def load_cyclomod():
    """Import cyclomod (and its CLI) from the checkout's src/ afresh."""
    src = ROOT / "src"
    if not (src / "cyclomod" / "__init__.py").is_file():
        raise SetupError(f"no cyclomod package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for key in [k for k in sys.modules if k == "cyclomod" or k.startswith("cyclomod.")]:
        del sys.modules[key]
    importlib.invalidate_caches()
    cm = importlib.import_module("cyclomod")
    importlib.import_module("cyclomod.cli")
    return cm


def set_up(name: str, seed: int, workdir: Path, probe: speed.SpeedProbe):
    """Time SETUP_REPEATS fresh imports plus input generation; keep the last.

    Returns cyclomod, the items, and (own, normalized) seconds per repeat.
    """
    def once():
        cm = load_cyclomod()
        return cm, workloads.WORKLOADS[name](cm, seed, str(workdir))

    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        gc.collect()
        m = probe.measure(once)
        cm, items = m.result
        times.append((m.own_s, m.norm_s))
    return cm, items, times


@dataclass
class Tally:
    """Outputs of the first pass, and every failure seen."""

    reference: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def fail(self, message: str):
        self.failed += 1
        self.errors.append(message)
        print(f"FAILED: {message}", file=sys.stderr)


@dataclass
class Pass:
    wall_s: float       # own time of the jobs, probe excluded
    norm_s: float       # the same, rescaled to a host of nominal speed
    elapsed_s: float    # wall time of the jobs, probe included
    leaves: int
    undecided: int


def _guarded(item):
    """The item's job as a call that returns (text, error) instead of raising."""
    def call():
        try:
            return item.run(), None
        except Exception as err:  # a failing job is counted, never fatal
            return None, f"{item.name}: {type(err).__name__}: {err}"
    return call


def run_pass(items, tally: Tally, probe: speed.SpeedProbe, job_hook=None) -> Pass:
    """One job per item, back to back; outputs are checked after the clock stops."""
    results = []
    wall = norm = elapsed = 0.0
    for k, item in enumerate(items):
        if job_hook is not None:
            job_hook(k)
        gc.collect()  # each job starts from a collected heap, as a fresh CLI process would
        m = probe.measure(_guarded(item))
        wall += m.own_s
        norm += m.norm_s
        elapsed += m.elapsed_s
        results.append((item, *m.result))
    leaves = undecided = 0
    for item, text, error in results:
        tally.attempted += 1
        try:
            if error is not None:
                raise workloads.JobError(error)
            outcome = workloads.read_outcome(item, text)
            if text != tally.reference.setdefault(item.name, text):
                raise workloads.JobError(f"{item.name}: output bytes differ from the first pass")
        except workloads.JobError as err:
            tally.fail(str(err))
            continue
        leaves += outcome.leaves
        undecided += outcome.undecided
    return Pass(wall, norm, elapsed, leaves, undecided)


def recheck(items, tally: Tally):
    """Untimed library re-check of every item against its first output."""
    for item in items:
        tally.attempted += 1
        reference = tally.reference.get(item.name)
        if reference is None:
            tally.fail(f"{item.name}: no output to re-check")
            continue
        try:
            item.recheck(reference)
        except Exception as err:  # a failing check is counted, never fatal
            tally.fail(f"{item.name}: re-check {type(err).__name__}: {err}")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _time_left(start: float, seconds: float, durations) -> bool:
    """Whether one more pass, as long as the median pass so far, ends within seconds."""
    return perf_counter() - start + statistics.median(durations) <= seconds


def measure(items, seconds: float, tally: Tally, probe: speed.SpeedProbe):
    """Untraced passes for about `seconds` (at least MIN_PASSES)."""
    passes, durations = [], []
    start = perf_counter()
    while len(passes) < MIN_PASSES or _time_left(start, seconds, durations):
        t0 = perf_counter()
        passes.append(run_pass(items, tally, probe))
        durations.append(perf_counter() - t0)
    return passes


@dataclass
class TracedRun:
    untraced: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    layers: list = field(default_factory=list)    # per traced pass: {layer: (self, total, calls)}
    counts: list = field(default_factory=list)    # per traced pass: Counter of work counts
    absent: list = field(default_factory=list)
    count_errors: list = field(default_factory=list)
    spans: list = field(default_factory=list)     # of the last traced pass


def measure_traced(items, seconds: float, tally: Tally, probe: speed.SpeedProbe) -> TracedRun:
    """Alternate untraced and traced passes; spans come from the traced ones."""
    run = TracedRun()
    durations = []
    start = perf_counter()
    while len(run.traced) < MIN_TRACED_PASSES or _time_left(start, seconds, durations):
        t0 = perf_counter()
        run.untraced.append(run_pass(items, tally, probe))
        recorder = tracer.Recorder()
        pass_no = len(run.traced)

        def hook(k):
            recorder.job = f"pass{pass_no}.item{k}"

        inst = tracer.install(recorder)
        try:
            run.traced.append(run_pass(items, tally, probe, hook))
        finally:
            inst.remove()
        run.layers.append(recorder.layer_totals())
        run.counts.append(recorder.counts)
        run.absent = inst.absent
        run.count_errors = sorted(recorder.count_errors)
        run.spans = recorder.spans
        durations.append(perf_counter() - t0)
    return run


def write_spans(path: Path, spans):
    with open(path, "w", encoding="utf-8") as handle:
        for k, (name, start, end, parent, job) in enumerate(spans):
            record = {"id": k, "name": name, "start": start, "end": end,
                      "parent": parent, "job": job}
            handle.write(json.dumps(record) + "\n")


def metric(value, unit):
    return {"value": value, "unit": unit}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(passes, setup_times, rss_mb):
    # a minimized automaton is always final; a module leaf may be undecided
    decided = [100.0 * (1 - p.undecided / p.leaves) if p.leaves else 100.0 for p in passes]
    return {
        "wall_norm_s": metric(statistics.median(p.norm_s for p in passes), "s"),
        "decided_pct": metric(statistics.median(decided), "%"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "setup_s": metric(statistics.median(norm for _own, norm in setup_times), "s"),
    }


def per_layer(run: TracedRun):
    """Per-layer metrics of a traced run.

    A layer's normalized self time is its share of the traced pass's wall
    time (probe samples land in spans in proportion to their time) times
    the pass's normalized time, so it is on the same scale as wall_norm_s.
    """
    out = {}
    last = run.layers[-1]
    for layer in TIMED_LAYERS:
        self_norm_s = statistics.median(
            totals.get(layer, (0.0, 0.0, 0))[0] / p.elapsed_s * p.norm_s
            for totals, p in zip(run.layers, run.traced)
        )
        out[f"{layer}.self_norm_s"] = metric(self_norm_s, "s")
        out[f"{layer}.calls"] = metric(last.get(layer, (0.0, 0.0, 0))[2], "count")
    counts = run.counts[-1]
    for key in WORK_COUNTS:
        out[key] = metric(counts.get(key, 0), "count")
    candidates = counts.get("endo.search.candidates", 0)
    found = counts.get("endo.search.decomposable", 0)
    out["endo.search.yield"] = metric(found / candidates if candidates else 0.0, "ratio")
    traced = statistics.median(p.norm_s for p in run.traced)
    untraced = statistics.median(p.norm_s for p in run.untraced)
    out["trace.overhead_pct"] = metric(100.0 * (traced - untraced) / untraced, "%")
    mismatches = sum(1 for c in run.counts[1:] if c != run.counts[0])
    out["trace.count_mismatches"] = metric(mismatches, "count")
    return out


def print_summary(name, seed, items, passes, tally, setup_times, metrics):
    print(f"workload {name}  seed {seed}  items {len(items)}  passes {len(passes)}")
    for label, values in (("wall_s", [p.wall_s for p in passes]),
                          ("wall_norm_s", [p.norm_s for p in passes])):
        q1, med, q3 = quartiles(values)
        print(f"  {label:17s} {med:.4f} s   (q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)})")
    undecided = statistics.median(p.undecided for p in passes)
    print(f"  undecided_leaves  {undecided:g} count")
    print(f"  decided_pct       {metrics['decided_pct']['value']:.1f} %")
    print(f"  failed_items      {tally.failed} of {tally.attempted}")
    print(f"  peak_rss_mb       {metrics['peak_rss_mb']['value']:.1f} MB")
    own = statistics.median(o for o, _n in setup_times)
    print(f"  setup_s           {metrics['setup_s']['value']:.4f} s normalized, "
          f"{own:.4f} s raw   (median of {len(setup_times)})")


def print_layers(run: TracedRun, metrics):
    print(f"  traced passes {len(run.traced)}, untraced passes {len(run.untraced)}")
    print(f"  tracing overhead  {metrics['trace.overhead_pct']['value']:.1f} %")
    totals = run.layers[-1]
    wall = run.traced[-1].elapsed_s
    print("  layer (last traced pass, probe samples included)  self_s   share   total_s   calls")
    for layer, (self_s, total_s, calls) in sorted(totals.items(), key=lambda kv: -kv[1][0]):
        print(f"  {layer:36s} {self_s:9.4f} {100 * self_s / wall:6.1f}% {total_s:9.4f} {calls:7d}")
    for key, value in sorted(run.counts[-1].items()):
        print(f"  count {key:40s} {value}")
    for layer in run.absent:
        print(f"  absent layer: {layer}")
    for message in run.count_errors:
        print(f"  count unavailable: {message}")
    if metrics["trace.count_mismatches"]["value"]:
        print("  NONDETERMINISM: work counts differ between traced passes")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    tally = Tally()
    try:
        with speed.SpeedProbe() as probe:
            cm, items, setup_times = set_up(args.workload, args.seed, workdir, probe)
            if args.trace:
                run = measure_traced(items, args.seconds, tally, probe)
                passes = run.untraced
            else:
                passes = measure(items, args.seconds, tally, probe)
        rss_mb = peak_rss_mb()  # before the re-check, which is not the workload's own work
        recheck(items, tally)
    except SetupError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = end_to_end(passes, setup_times, rss_mb)
    print_summary(args.workload, args.seed, items, passes, tally, setup_times, metrics)
    if args.trace:
        metrics = per_layer(run)
        print_layers(run, metrics)
        spans_path = WORK_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        write_spans(spans_path, run.spans)
        print(f"  {len(run.spans)} spans of the last traced pass in {spans_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
