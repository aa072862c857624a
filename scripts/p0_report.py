#!/usr/bin/env python3
"""Walk through the 14-vertex, 12-dimensional witness instance step by step.

Prints the single affine dependency as its support, the rank from both
routes, what happens to the hypermetric system when each vertex is
deleted, the basis classification with per-subset lattice indices, and a
bounded sphere check at window 0 (31,104 points; window 1 would scan
51,200,000).

    python3 scripts/p0_report.py
"""

import argparse
import sys
import time

import delrank as dr


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)

    t0 = time.perf_counter()
    data = dr.p0()
    p = data.polytope
    print(f"dim {p.dim}, {p.nvertices} vertices, blocks of 3+3+4+4")

    mod = dr.dependency_module(p)
    print(f"\naffine dependencies: {len(mod)}")
    for y in mod:
        print("  y =", dict(y))  # {vertex: coefficient} over the nonzeros

    rk = dr.rank_of(p)
    fd = dr.face_dimension(p)
    print(f"\nrank via dependency system:   {rk}")
    print(f"rank via hypermetric system:  {fd}")
    print(f"vertex pairs: {p.nvertices * (p.nvertices - 1) // 2}")

    print("\ndeleting one vertex at a time (hypermetric face of the rest):")
    for w in range(p.nvertices):
        keep = [i for i in range(p.nvertices) if i != w]
        sub = dr.restricted_face_dimension(p, keep)
        idx = dr.lattice_index(p, keep)
        print(f"  drop v{w:02d}: face {sub}, lattice index of the rest {idx}")

    cls = dr.classify_basicity(p)
    print(
        f"\nbasis classification: {cls.kind}"
        f" (tested {cls.tested} subsets, exhaustive={cls.exhaustive})"
    )

    symmetric, _ = dr.is_centrally_symmetric(p)
    print(f"centrally symmetric: {symmetric}")

    rep = dr.verify_empty_sphere(p, data.gram, window=0)
    print(
        f"\nsphere check, window {rep.window}: {rep.points_checked} points,"
        f" {len(rep.strict_violations)} strictly inside, ok={rep.ok()}"
    )
    for c in rep.caveats:
        print(f"  caveat: {c}")

    print(f"\ntotal {time.perf_counter() - t0:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
