#!/usr/bin/env python3
"""Tabulate ranks across the built-in families, timing both computation routes.

Run from the repository root after an editable install:

    python3 scripts/rank_families.py --max-n 6
"""

import argparse
import sys
import time

import delrank as dr

RANGES = {
    "simplex": (1, dr.simplex),
    "cross": (2, dr.cross_polytope),
    "halfcube": (3, dr.half_cube),
    "cube": (1, dr.cube),
}


def row(name, p):
    t0 = time.perf_counter()
    rk = dr.rank_of(p)
    t1 = time.perf_counter()
    fd = dr.face_dimension(p)
    t2 = time.perf_counter()
    agree = "yes" if fd == rk else "NO"
    return f"{name:14s} {p.dim:3d} {p.nvertices:5d} {rk:5d} {t1 - t0:8.3f}s {fd:5d} {t2 - t1:8.3f}s  {agree}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, default=8, help="largest family size")
    ap.add_argument(
        "--families",
        nargs="+",
        choices=sorted(RANGES) + ["p0"],
        default=sorted(RANGES) + ["p0"],
    )
    args = ap.parse_args(argv)

    print(f"{'instance':14s} {'dim':>3s} {'|V|':>5s} {'rank':>5s} {'time':>9s} {'face':>5s} {'time':>9s}  agree")
    for family in args.families:
        if family == "p0":
            print(row("p0", dr.p0().polytope))
            continue
        lo, make = RANGES[family]
        for n in range(lo, args.max_n + 1):
            print(row(f"{family}({n})", make(n)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
