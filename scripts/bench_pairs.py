#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternating pairs of untraced runs.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload rank-large --pairs 10 --seconds 30 --first-seed 11

Pair i runs `perfbench/run.py --workload W --seed K+i --seconds S` once in
each tree, PARENT first on even i and CHANGE first on odd i, after deleting
every __pycache__ under the tree's src/ and perfbench/.  Only the last line
of each run's stdout, its JSON result, is read.  Prints each pair's
end-to-end metrics, each side's median and quartiles, and how many pairs
CHANGE wins (ties count for neither side).  A metric counts as a gain when
CHANGE wins at least nine of ten pairs and its median beats the parent's by
more than the parent's interquartile range.
"""

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("pass_s", "setup_s", "peak_rss_mb")  # each better when lower


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    for sub in ("src", "perfbench"):
        for cache in sorted((tree / sub).rglob("__pycache__")):
            shutil.rmtree(cache)
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    out = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{tree}: seed {seed} failed {result['failed']} of {result['attempted']} jobs")
    return {name: result["metrics"][name]["value"] for name in METRICS}


def quartiles(xs: list[float]) -> list[float]:
    return statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {side: [] for side in sides}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(sides[side], args.workload, seed, args.seconds))
        print(f"pair {i + 1} seed {seed} ({order[0]} first): "
              + "  ".join(f"{m} {runs['parent'][i][m]:.4f} -> {runs['change'][i][m]:.4f}" for m in METRICS))

    need = math.ceil(0.9 * args.pairs)
    for m in METRICS:
        parent = [r[m] for r in runs["parent"]]
        change = [r[m] for r in runs["change"]]
        wins = sum(c < p for p, c in zip(parent, change))
        losses = sum(c > p for p, c in zip(parent, change))
        (q1, med, q3), (c1, cmed, c3) = quartiles(parent), quartiles(change)
        gain = wins >= need and med - cmed > q3 - q1
        print(f"{m}: parent median {med:.4f} (quartiles {q1:.4f} {q3:.4f}), "
              f"change median {cmed:.4f} (quartiles {c1:.4f} {c3:.4f}), "
              f"change wins {wins} of {args.pairs}, loses {losses}; "
              f"gain rule ({need} wins and beyond the parent's IQR {q3 - q1:.4f}) {'holds' if gain else 'does not hold'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
