"""Collect benchmark runs and compare two sets of them.

    python3 bench/compare.py collect OUT --runs 10 --seed 100 [--workload NAME ...]
                                         [--trace 1] [--side parent=../old --side change=.]
    python3 bench/compare.py compare PARENT_DIR CHANGE_DIR

``collect`` runs the command in each side's ``BENCHMARK.json`` from that
side's root, once per workload and seed, alternating which side runs first,
and stores the last output line as ``OUT/<side>/<workload>/<seed>.json``
(``OUT/<workload>/<seed>.json`` with a single side).

``compare`` pairs the runs of each workload in seed order and prints one row
per workload and metric: each side's median and quartiles, the parent's
spread (quartile distance over median), the share of pairs the change won
(ties count for neither side) and a verdict:

* improved: the change wins at least 9/10 of the pairs and the medians differ,
  in the better direction, by more than the parent's quartile distance;
* worse: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json;
* unresolved: the parent's spread is wider than the bound and not every
  change run reads better than every parent run;
* within bound: otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec(root: Path) -> dict:
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def collect(args) -> int:
    sides = [tuple(s.split("=", 1)) for s in args.side] or [("", str(ROOT))]
    out = Path(args.out)
    failures = 0
    for k in range(args.runs):
        seed = args.seed + k
        order = sides if k % 2 == 0 else sides[::-1]
        for name, root in order:
            root = Path(root).resolve()
            spec = load_spec(root)
            workloads = args.workload or [w["name"] for w in spec["workloads"]]
            for workload in workloads:
                cmd = [
                    *spec["command"],
                    "--workload", workload,
                    "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]),
                    "--trace", str(args.trace),
                ]
                proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                target = out / name / workload / f"{seed}.json"
                target.parent.mkdir(parents=True, exist_ok=True)
                if proc.returncode != 0 or not lines:
                    failures += 1
                    sys.stderr.write(f"{name or root} {workload} seed {seed}: exit "
                                     f"{proc.returncode}\n{proc.stderr[-2000:]}\n")
                    continue
                target.write_text(lines[-1] + "\n")
                print(f"{name or root.name} {workload} seed {seed}: {lines[-1][:160]}", flush=True)
    return 1 if failures else 0


def load_runs(directory: Path) -> dict:
    """{workload: [(seed, result), ...] in seed order}."""
    runs = {}
    for path in sorted(directory.glob("*/*.json")):
        result = json.loads(path.read_text())
        runs.setdefault(path.parent.name, []).append((int(path.stem), result))
    return {w: sorted(r, key=lambda item: item[0]) for w, r in runs.items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent, change, better, bound):
    """The rule of the module docstring; returns (share of pairs won, verdict)."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    share = wins / len(pairs) if pairs else 0.0
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    gain = sign * (med_c - med_p)
    if share >= 0.9 and gain > q3 - q1:
        return share, "improved"
    if bound is None:
        return share, "no bound"
    if -gain > bound * abs(med_p):
        return share, "worse"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if (q3 - q1) > bound * abs(med_p) and not all_better:
        return share, "unresolved"
    return share, "within bound"


def compare(args) -> int:
    spec = load_spec(ROOT)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load_runs(Path(args.parent)), load_runs(Path(args.change))
    header = ("workload", "metric", "parent med [q1, q3]", "change med [q1, q3]",
              "spread", "won", "verdict")
    print(" | ".join(header))
    worse = 0
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        for label, runs in (("parent", p_runs), ("change", c_runs)):
            failed = sum(r["failed"] for _, r in runs)
            attempted = sum(r["attempted"] for _, r in runs)
            correct = all(r["correct"] for _, r in runs)
            print(f"{workload} | {label}: {len(runs)} runs, {failed}/{attempted} failed, "
                  f"correct={correct}")
        shared = p_runs[0][1]["metrics"].keys() & c_runs[0][1]["metrics"].keys()
        for name in (n for n in metrics if n in shared):
            m = metrics[name]
            p = [r["metrics"][name]["value"] for _, r in p_runs]
            c = [r["metrics"][name]["value"] for _, r in c_runs]
            share, word = verdict(p, c, m["better"], m.get("bound"))
            worse += word == "worse"
            cells = []
            for values in (p, c):
                q1, q3 = quartiles(values)
                cells.append(f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}]")
            med = statistics.median(p)
            q1, q3 = quartiles(p)
            spread = (q3 - q1) / abs(med) if med else float("nan")
            print(f"{workload} | {name} ({m['unit']}) | {cells[0]} | {cells[1]} | "
                  f"{spread:.3f} | {share:.2f} | {word}")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="collect and compare benchmark runs")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("collect")
    p.add_argument("out")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=100)
    p.add_argument("--workload", action="append")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--side", action="append", default=[], help="NAME=ROOT, repeatable")
    p = sub.add_parser("compare")
    p.add_argument("parent")
    p.add_argument("change")
    args = parser.parse_args(argv)
    return collect(args) if args.command == "collect" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
