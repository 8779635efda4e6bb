#!/usr/bin/env python3
"""Benchmark locsemi on one workload, end to end or traced.

    python3 perfbench/run.py --workload census_n3 --seed 1 --seconds 30 --trace 0

Run from anywhere; the library is imported from ``src/`` of the checkout
that holds this directory.  With ``--trace 0`` the run sets up several
times, then repeats whole passes of the workload's op list (at least the
workload's ``min_passes``) until the next pass would end after
``--seconds``, and reports the end-to-end metrics.
With ``--trace 1`` it runs the same op list untraced and then traced, checks
that both give the same outputs, and reports the per-layer metrics.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a results file and, when traced,
a spans file go to ``perfbench/out/``.  README.md defines every metric.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import loader
import speed
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 5
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "peak_rss_mb": "MB"}
# Per-layer metrics in the final JSON line; the results file holds the rest.
PER_LAYER_UNITS = {
    **{f"{layer}.self_frac": "frac" for layer in tracing.LAYERS},
    "cli.self_s": "s",
    "trace.overhead_frac": "frac",
    "enumeration.tables_per_s": "1/s",
    "enumeration.parallel_speedup": "x",
    "enumeration.find_tables_scanned": "count",
    "checks.verdicts": "count",
    "checks.verdicts_failed": "count",
    "checks.triples_bound": "count",
    "checks.classify_unaccounted_frac": "frac",
    "magma.parse_bytes": "B",
    "constructions.not_associative": "count",
    "quiver.paths": "count",
    "predicates.related_calls": "count",
    "predicates.product_calls": "count",
    "predicates.escape_frac": "frac",
}


class Pass:
    """Outcome of one pass over a workload's op list."""

    def __init__(self):
        self.times: list[tuple[str, str, float]] = []  # (op name, kind, seconds)
        self.outputs: dict[str, object] = {}
        self.failures: list[str] = []
        self.spans: list[tuple[float, float]] = []  # (start, end) of each op


def run_pass(wl, tracer=None, probe=None, keep_outputs=False) -> Pass:
    """Run one pass; outputs are dropped after the checks unless ``keep_outputs``."""
    result = Pass()
    for op in wl.ops(result.outputs):
        stolen = 0.0
        if probe is not None:
            probe.maybe_sample()
            probe.paused = op.parallel  # a probe would compete with the op's workers
            stolen = -probe.stolen
        if tracer is not None:
            tracer.begin_op()
            tracer.active = True
        start = perf_counter()
        try:
            out, err = op.fn(), None
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            out, err = None, f"raised {type(exc).__name__}: {exc}"
        end = perf_counter()
        if probe is not None:
            probe.paused = False
            stolen += probe.stolen  # timer samples taken inside the op
        if tracer is not None:
            tracer.active = False
            tracer.end_op(op.name, start, end)
        if err is None:
            try:
                err = op.check(out)
            except Exception as exc:  # an oracle that cannot read the output fails the op
                err = f"oracle raised {type(exc).__name__}: {exc}"
        result.outputs[op.name] = out if op.keep is None or out is None else op.keep(out)
        result.times.append((op.name, op.kind, end - start - stolen))
        result.spans.append((start, end))
        if err:
            result.failures.append(f"{op.name}: {err}")
    result.failures.extend(f"pass: {e}" for e in wl.finish(result.outputs))
    if not keep_outputs:
        result.outputs = {}
    return result


def percentile(sorted_values: list[float], p: float) -> float:
    pos = (len(sorted_values) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(min_ops: int) -> float:
    """The highest listed percentile with MIN_BEYOND samples above it in every run.

    ``min_ops`` is the op count of the shortest run the workload can make
    (its guaranteed passes), so the percentile does not move with the number
    of passes a run happens to fit into its time.
    """
    return next((p for p in TAIL_PERCENTILES if min_ops * (100.0 - p) / 100.0 >= MIN_BEYOND), 50.0)


def peak_rss_mb() -> float:
    """Own peak RSS plus the largest child's (census pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def run_info(args, wl) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs": list(wl.jobs), "nproc": os.cpu_count(),
        "cpu_model": cpu_model(), "python": platform.python_version(),
        "platform": platform.platform(), "commit": git_commit(), "source_sha256": source_digest(),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def git_commit() -> "str | None":
    """HEAD's commit from .git files, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the library's sources, naming the code measured when no commit is known."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def setup(args, workdir: Path, probe: speed.Probe):
    """Set up SETUP_REPEATS times from a fresh import; return the last workload and the times.

    Times are (wall, speed-normalised) pairs.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        probe.sample()
        stolen = probe.stolen
        start = perf_counter()
        api = loader.load(ROOT)
        wl = workloads.WORKLOADS[args.workload](api, args.seed, workdir)
        end = perf_counter()
        seconds = end - start - (probe.stolen - stolen)
        probe.sample()
        times.append((seconds, probe.normalise(seconds, start, end)))
    return wl, times


def freeze_heap() -> None:
    """Move everything set-up made into the collector's permanent generation.

    A command-line user runs one command per process; here every op shares
    one process, and full collections walking the benchmark's own objects
    would add pauses of several ms to random ops.
    """
    gc.collect()
    gc.freeze()


def normalised_op_s(p: Pass, probe: speed.Probe) -> float:
    return sum(probe.normalise(t, s, e) for (_, _, t), (s, e) in zip(p.times, p.spans))


def op_metrics(durations: list[float], tail_p: float) -> dict:
    durations = sorted(durations)
    return {"ops_per_s": len(durations) / sum(durations),
            "op_p50_ms": percentile(durations, 50.0) * 1e3,
            "op_tail_ms": percentile(durations, tail_p) * 1e3}


def measure(args, workdir: Path) -> tuple[dict, dict, list[str], int]:
    """Untraced passes; returns (metrics, details, failures, ops attempted)."""
    probe = speed.Probe()
    passes = []
    with probe.timer():
        wl, setup_times = setup(args, workdir, probe)
        freeze_heap()
        start = perf_counter()
        while True:
            p0 = perf_counter()
            passes.append(run_pass(wl, probe=probe))
            probe.sample()
            now = perf_counter()
            if len(passes) >= wl.min_passes and now - start + (now - p0) > args.seconds:
                break
    wall = [t for p in passes for _, _, t in p.times]
    normalised = [probe.normalise(t, s, e) for p in passes
                  for (_, _, t), (s, e) in zip(p.times, p.spans)]
    by_kind, wall_by_kind = defaultdict(list), defaultdict(list)
    for (_, kind, t), n in zip((x for p in passes for x in p.times), normalised):
        by_kind[kind].append(n)
        wall_by_kind[kind].append(t)
    tail_p = tail_percentile(len(passes[0].times) * wl.min_passes)
    metrics = {"setup_s": statistics.median(n for _, n in setup_times),
               **op_metrics(normalised, tail_p),
               "peak_rss_mb": peak_rss_mb()}
    failures = [f for p in passes for f in p.failures]
    details = {
        "wall": {"setup_s": statistics.median(w for w, _ in setup_times), **op_metrics(wall, tail_p)},
        "probe_median_s": statistics.median(probe.seconds),
        "probe_samples": len(probe.seconds),
        "setup_s_all": setup_times,
        "passes": len(passes),
        "ops": len(wall),
        "op_tail_percentile": tail_p,
        "failed_frac": len(failures) / len(wall),
        "op_kinds": {k: {"count": len(v), "median_ms": statistics.median(v) * 1e3,
                         "wall_median_ms": statistics.median(wall_by_kind[k]) * 1e3}
                     for k, v in sorted(by_kind.items())},
        **wl.info(by_kind),
    }
    return metrics, details, failures, len(wall)


def measure_traced(args, workdir: Path, spans_path: Path) -> tuple[dict, dict, list[str], int]:
    """Untraced then traced passes of one op list; returns per-layer metrics."""
    shutil.rmtree(workdir, ignore_errors=True)
    api = loader.load(ROOT)
    tracer = tracing.Tracer(api)
    tracer.install()
    tracer.active = True
    try:
        wl = workloads.WORKLOADS[args.workload](api, args.seed, workdir)
    finally:
        tracer.active = False
        tracer.uninstall()
    freeze_heap()
    failures, attempted, pairs = [], 0, 0
    untraced_s = traced_s = 0.0
    probe = speed.Probe()
    start = perf_counter()
    while True:
        p0 = perf_counter()
        plain = run_pass(wl, probe=probe, keep_outputs=True)
        tracer.install()
        try:
            traced = run_pass(wl, tracer, probe, keep_outputs=True)
        finally:
            tracer.uninstall()
        probe.sample()
        pairs += 1
        untraced_s += normalised_op_s(plain, probe)
        traced_s += normalised_op_s(traced, probe)
        attempted += len(plain.times) + len(traced.times)
        failures += plain.failures + traced.failures
        names = [n for n, _, _ in plain.times]
        if names != [n for n, _, _ in traced.times]:
            failures.append("traced pass ran a different op list")
        failures += [f"{n}: traced output differs from untraced" for n in names
                     if plain.outputs.get(n) != traced.outputs.get(n)]
        if perf_counter() - start + (perf_counter() - p0) > args.seconds:
            break
    report = tracer.layer_report(pairs, untraced_s, traced_s, probe.normalise)
    tracer.write_spans(spans_path)
    metrics = {name: report[name] for name in PER_LAYER_UNITS}
    details = {"layer_report": report, "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, details, failures, attempted


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{stem}"
    try:
        loader.self_check(BENCH)
        OUT.mkdir(exist_ok=True)
        if args.trace:
            metrics, details, failures, attempted = measure_traced(args, workdir, OUT / f"{stem}-spans.jsonl")
            units = PER_LAYER_UNITS
        else:
            metrics, details, failures, attempted = measure(args, workdir)
            units = END_TO_END_UNITS
    except loader.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info = run_info(args, workloads.WORKLOADS[args.workload])
    record = {"run": info, "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
              "details": details, "failures": failures[:100], "failed": len(failures),
              "attempted": attempted}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("run: " + json.dumps(info))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    extra = dict(details.get("layer_report", details))
    extra.update({f"wall.{k}": v for k, v in extra.pop("wall", {}).items()})
    for name, value in extra.items():
        if name not in metrics and isinstance(value, (int, float)):
            print(f"  {name} = {value:.6g}")
    for f in failures[:20]:
        print(f"FAILED {f}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
