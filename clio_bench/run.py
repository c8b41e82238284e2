"""Clio's benchmark: one closed-loop client against a file-backed LogService.

    python3 clio_bench/run.py --workload ingest --seed 1 --seconds 15 --trace 0
    python3 clio_bench/run.py --self-check

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs an untraced
and a traced pass of the same seed and prints the per-layer metrics.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
See ``clio_bench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Store images, span dumps and other run output; listed in .gitignore.
OUT = os.path.join(ROOT, ".clio_bench")


def _import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"clio_bench: no program to measure: {src}/repro is missing")
    if src not in sys.path:
        sys.path.insert(0, src)
    import workloads
    from layers import BoundaryTracer

    return workloads, BoundaryTracer


def declared_metrics() -> tuple[list[str], list[str]]:
    """The metric names BENCHMARK.json gates: (end-to-end, per-layer)."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return (
        [m["name"] for m in spec["end_to_end"]],
        [m["name"] for m in spec["per_layer"]],
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """Measure one workload; returns the result object printed last."""
    workloads, BoundaryTracer = _import_program()
    spec = workloads.SPECS[name]
    if small:
        spec = workloads.tiny(spec)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        plain = workloads.measure(
            spec, seed, seconds, os.path.join(workdir, "plain"),
            setups=1 if trace else None,
        )
        metrics = workloads.end_to_end(plain)
        runs = [plain]
        if trace:
            tracer = BoundaryTracer()
            traced = workloads.measure(
                spec, seed, seconds, os.path.join(workdir, "traced"), tracer=tracer, setups=1
            )
            runs.append(traced)
            metrics = workloads.per_layer(traced, tracer, metrics["ops_per_s"][0])
            spans = os.path.join(OUT, f"spans-{name}-s{seed}.jsonl")
            tracer.write_spans(spans)
            print(f"spans: {len(tracer.spans)} kept, {tracer.dropped_spans} counted only, "
                  f"written to {os.path.relpath(spans, ROOT)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["run"].attempted for r in runs)
    failed = sum(r["run"].failed for r in runs)
    errors = [e for r in runs for e in r["run"].errors]
    counts_ok = all(r["counts"] == runs[0]["counts"] for r in runs)
    capped = any(r["run"].capped for r in runs)
    gated = declared_metrics()[1 if trace else 0]
    report(workloads, name, seed, spec, metrics, gated, attempted, failed, errors, runs,
           counts_ok, capped)
    return {
        "correct": failed == 0 and counts_ok and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if k in gated},
    }


def report(workloads, name, seed, spec, metrics, gated, attempted, failed, errors, runs,
           counts_ok, capped):
    """Human-readable lines, printed before the JSON result line."""
    plain = runs[0]
    run = plain["run"]
    print(f"workload {name} (seed {seed}): {spec.why}")
    print(f"  store: {os.path.relpath(OUT, ROOT)}/ on the checkout's file system "
          "(the benchmark writes nowhere else); latencies are this machine's, not a "
          "storage device's, and the file-backed store never calls fsync, so forced "
          "writes read low")
    print(f"  closed loop, 1 client; timed mix {run.mix_ops} ops in {spec.rounds} rounds; set-ups "
          + ", ".join(f"{t:.3f}s" for t in plain["setup_times"]))
    for kind in workloads.KINDS:
        samples = run.lat[kind]
        if samples:
            q = workloads.reportable_percentile(len(samples))
            print(f"  {kind:14s} n={len(samples):6d} p50={workloads._median(samples) / 1e3:10.1f}us "
                  f"p{q:g}={workloads._percentile(samples, q) / 1e3:10.1f}us")
    for metric, (value, unit) in metrics.items():
        note = "" if metric in gated else "  (printed, not gated: see clio_bench/README.md)"
        print(f"  {metric:38s} {value:14.4f} {unit}{note}")
    print(f"  {failed} of {attempted} operations failed")
    print(f"  deterministic counts: {json.dumps(runs[0]['counts'], sort_keys=True)}")
    if len(runs) > 1:
        print(f"  counts traced == untraced: {counts_ok}")
    if capped:
        print("  warning: the timed mix hit its wall-clock cap; counts are partial")
    for error in errors:
        print(f"  error: {error}", file=sys.stderr)


def self_check() -> int:
    """Each workload at a tiny size, traced and untraced: every declared
    metric is emitted, nothing fails, and the counts repeat."""
    end_to_end, layered = declared_metrics()
    workloads, _ = _import_program()
    problems = []
    for name in workloads.SPECS:
        for trace, declared in ((False, end_to_end), (True, layered)):
            result = run_workload(name, seed=1, seconds=1.0, trace=trace, small=True)
            got = sorted(result["metrics"])
            if got != sorted(declared):
                problems.append(f"{name} trace={int(trace)}: metrics {got} != {sorted(declared)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={int(trace)}: incorrect result")
    for problem in problems:
        print(f"self-check: {problem}", file=sys.stderr)
    print("self-check " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("ingest", "history-read", "tail-follow"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload at a tiny size and check the output")
    args = parser.parse_args(argv)
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
