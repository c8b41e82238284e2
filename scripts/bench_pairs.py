"""Alternating parent/working-tree pairs of ``clio_bench`` runs, with a
verdict per workload and end-to-end metric.

    python3 scripts/bench_pairs.py --parent ../clio-parent
    python3 scripts/bench_pairs.py --parent ../clio-parent \\
        --workload history-read --seeds 1987

``--parent`` is a checkout of the parent commit (``git worktree add`` or a
clone); the working tree is the checkout holding this script.  For each
workload and seed the script runs ``clio_bench/run.py --trace 0`` once on
each side, in each side's own directory, alternating which side runs first
from one seed to the next.  It reads ``BENCHMARK.json`` for the workloads,
the run length, the metrics, which direction is better and each metric's
bound, and edits nothing.

A metric's verdict, from the paired runs (see docs/PERFORMANCE.md):

* ``improved``: the working tree wins at least nine tenths of the pairs
  (ties count for neither) and its median beats the parent's by more than
  the parent's quartile spread;
* ``regressed``: the working tree's median is worse than the parent's by
  more than the metric's bound;
* ``unresolved``: either side's quartile spread is wider than the bound,
  unless every working-tree run beats every parent run;
* ``flat``: none of the above.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass(frozen=True)
class Verdict:
    """One metric on one workload: both sides' spread, pairs won, verdict."""

    parent: tuple[float, float, float]  # (q1, median, q3)
    current: tuple[float, float, float]
    wins: int
    pairs: int
    verdict: str


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) with the inclusive method; one value is its own
    quartiles."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(
    parent: list[float], current: list[float], better: str, bound: float
) -> Verdict:
    """Judge paired runs: ``parent[i]`` and ``current[i]`` share a seed.

    ``better`` is ``"higher"`` or ``"lower"``; ``bound`` is the fraction by
    which the median may worsen before it counts as a regression."""
    if len(parent) != len(current) or not parent:
        raise ValueError("verdict needs the same non-zero number of runs per side")
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(current)
    wins = sum(1 for p, c in zip(parent, current) if sign * (c - p) > 0)
    gain = sign * (c_med - p_med)
    spread_too_wide = (
        p_q3 - p_q1 > bound * abs(p_med) or c_q3 - c_q1 > bound * abs(c_med)
    )
    every_run_better = min(sign * c for c in current) > max(sign * p for p in parent)
    if wins >= math.ceil(0.9 * len(parent)) and gain > p_q3 - p_q1:
        result = "improved"
    elif -gain > bound * abs(p_med):
        result = "regressed"
    elif spread_too_wide and not every_run_better:
        result = "unresolved"
    else:
        result = "flat"
    return Verdict((p_q1, p_med, p_q3), (c_q1, c_med, c_q3), wins, len(parent), result)


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``checkout``; returns its result line."""
    done = subprocess.run(
        [sys.executable, "clio_bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{checkout}: {workload} seed {seed} exited {done.returncode}:\n"
            f"{done.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    if not result["correct"]:
        # Any failed operation, wrong answer or unrepeatable count.
        raise RuntimeError(f"{checkout}: {workload} seed {seed} reported incorrect results")
    return result


def parse_seeds(text: str) -> list[int]:
    """``"1-10"`` or ``"1,3,1987"`` (or a mix) to a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def format_row(name: str, unit: str, v: Verdict) -> str:
    def side(q: tuple[float, float, float]) -> str:
        return f"{q[1]:10.2f} [{q[0]:.2f}, {q[2]:.2f}]"

    return (f"  {name:20s} {unit:6s} {side(v.parent):30s} {side(v.current):30s} "
            f"{v.wins:2d}/{v.pairs:<2d} {v.verdict}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: every one declared)")
    parser.add_argument("--seeds", default="1-10", help='e.g. "1-10" or "1987"')
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(args.parent, "clio_bench", "run.py")):
        parser.error(f"{args.parent} is not a checkout with clio_bench/run.py")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    sides = {"parent": os.path.abspath(args.parent), "current": ROOT}
    runs: dict[str, dict[str, list[dict]]] = {}
    for workload in workloads:
        runs[workload] = {"parent": [], "current": []}
        for index, seed in enumerate(parse_seeds(args.seeds)):
            order = ("parent", "current") if index % 2 == 0 else ("current", "parent")
            for name in order:
                result = run_once(sides[name], workload, seed, seconds)
                runs[workload][name].append(result["metrics"])
                print(f"{workload} seed {seed} {name}: "
                      f"ops_per_s {result['metrics']['ops_per_s']['value']:.1f}",
                      file=sys.stderr, flush=True)
        print(f"{workload} ({len(runs[workload]['parent'])} pairs, {seconds:g} s runs): "
              "metric, unit, parent median [q1, q3], working tree median [q1, q3], "
              "pairs won, verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [r[name]["value"] for r in runs[workload]["parent"]]
            current = [r[name]["value"] for r in runs[workload]["current"]]
            judged = verdict(parent, current, metric["better"], metric["bound"])
            print(format_row(name, metric["unit"], judged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
