"""Seeded benchmark inputs, the jobs that run on them, and their answer checks.

Every input is built here with plain integer code and written as a polytope
file in the format the command line reads.  No input comes from the package
under test.  Expected answers are the paper's values:

- rank: simplex n(n+1)/2, cross n(n+1)/2 - (n-1), half cube n (n >= 5),
  cube n, p0 77;
- the two rank routes agree and there are nv - dim - 1 dependencies;
- families are Z-basic; p0 is Q-basic only, after an exhaustive search
  that tests all 14 of its affinely independent subsets;
- the empty-sphere scan finds no lattice point strictly inside.

Caveats and point counts of the sphere scan are not checked, because the
scan is meant to be replaced by exact enumeration.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

Z_BASIC = "Z_BASIC"
Q_BASIC_ONLY = "Q_BASIC_ONLY"


@dataclass(frozen=True)
class Instance:
    """A polytope in integer coordinates with a form under which it is Delaunay."""

    name: str
    dim: int
    vertices: tuple[tuple[int, ...], ...]
    gram: tuple[tuple[int, ...], ...]
    rank: int
    basicity: str = Z_BASIC
    basicity_tested: int | None = None  # pinned only where the paper fixes it
    distances: tuple[tuple[int, ...], ...] = ()  # instead of vertices and gram

    @property
    def nvertices(self) -> int:
        return len(self.vertices or self.distances)


@dataclass(frozen=True)
class Job:
    """One command line call and what its answer must be."""

    name: str
    argv: tuple[str, ...]  # starts with the command: "report", "rank" or "basicity"
    digest: str
    instance: Instance


def _identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def simplex(n: int) -> Instance:
    verts = [(0,) * n] + [tuple(int(i == k) for k in range(n)) for i in range(n)]
    return Instance(f"simplex({n})", n, tuple(verts), _identity(n), n * (n + 1) // 2)


def cross(n: int) -> Instance:
    # 0, e_1 .. e_n, e_n - e_i: the segment 0..e_n is a diameter
    verts = [(0,) * n]
    verts += [tuple(int(i == k) for k in range(n)) for i in range(n)]
    verts += [tuple(int(k == n - 1) - int(i == k) for k in range(n)) for i in range(n - 1)]
    g = [[1 + int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        g[i][n - 1] = g[n - 1][i] = 2
    g[n - 1][n - 1] = 4
    return Instance(
        f"cross({n})", n, tuple(verts), tuple(map(tuple, g)), n * (n + 1) // 2 - (n - 1)
    )


def half_cube(n: int) -> Instance:
    verts = [
        tuple((mask >> k) & 1 for k in range(n))
        for mask in range(1 << n)
        if bin(mask).count("1") % 2 == 0
    ]
    return Instance(f"half_cube({n})", n, tuple(verts), _identity(n), n)


def cube(n: int) -> Instance:
    verts = [tuple((mask >> k) & 1 for k in range(n)) for mask in range(1 << n)]
    return Instance(f"cube({n})", n, tuple(verts), _identity(n), n)


# The paper's 14-vertex witness, given by its squared distances: 7 inside each
# of the blocks of sizes 3, 3, 4, 4, and a fixed value for each pair of blocks.
P0_BLOCKS = (3, 3, 4, 4)
P0_CROSS = {(0, 1): 10, (0, 2): 6, (0, 3): 12, (1, 2): 12, (1, 3): 6, (2, 3): 12}
P0_DIM = 12
P0_RANK = 77


def p0() -> Instance:
    block = [b for b, size in enumerate(P0_BLOCKS) for _ in range(size)]
    dist = tuple(
        tuple(0 if i == j else 7 if bi == bj else P0_CROSS[min(bi, bj), max(bi, bj)] for j, bj in enumerate(block))
        for i, bi in enumerate(block)
    )
    return Instance("p0", P0_DIM, (), (), P0_RANK, Q_BASIC_ONLY, basicity_tested=14, distances=dist)


def squared_distances(inst: Instance):
    if inst.distances:
        return inst.distances
    g = inst.gram
    n = inst.dim
    out = []
    for u in inst.vertices:
        row = []
        for v in inst.vertices:
            d = [a - b for a, b in zip(u, v)]
            row.append(sum(g[i][j] * d[i] * d[j] for i in range(n) for j in range(n)))
        out.append(row)
    return out


def relabel(rng: random.Random, nv: int) -> list[int]:
    """A seeded vertex order: position k of the new file holds old vertex order[k]."""
    order = list(range(nv))
    rng.shuffle(order)
    return order


def unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """A seeded integer matrix of determinant +-1 with small entries.

    A signed permutation followed by n shears row_i += c row_j, c = +-1.
    """
    perm = list(range(n))
    rng.shuffle(perm)
    u = [[rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    return u


def transformed(inst: Instance, rng: random.Random, order_rng: random.Random) -> Instance:
    """The instance under a unimodular basis change drawn from rng, with its
    vertices relabeled by a permutation drawn from order_rng.

    The rank is invariant under both.  The Gram form is left out: the
    commands run on these copies do not read it.
    """
    u = unimodular(rng, inst.dim)
    verts = [tuple(sum(r[k] * v[k] for k in range(inst.dim)) for r in u) for v in inst.vertices]
    order = relabel(order_rng, len(verts))
    return Instance(
        f"{inst.name}~T", inst.dim, tuple(verts[k] for k in order), (), inst.rank, inst.basicity
    )


def _dump(doc) -> bytes:
    # the layout `delrank family` writes
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


def _strings(rows) -> list[list[str]]:
    return [[str(x) for x in row] for row in rows]


def vertex_file(inst: Instance) -> bytes:
    doc = {"dim": inst.dim, "vertices": _strings(inst.vertices)}
    if inst.gram:
        doc["gram"] = _strings(inst.gram)
    return _dump(doc)


def distance_file(dim: int, dist) -> bytes:
    return _dump({"dim": dim, "distances": _strings(dist)})


def shuffled_distances(inst: Instance, rng: random.Random) -> bytes:
    dist = squared_distances(inst)
    order = relabel(rng, len(dist))
    return distance_file(inst.dim, [[dist[a][b] for b in order] for a in order])


class Writer:
    """Writes input files into one directory and records their digests."""

    def __init__(self, directory: Path):
        self.directory = directory
        directory.mkdir(parents=True, exist_ok=True)
        self.digests: dict[str, str] = {}

    def write(self, filename: str, data: bytes) -> tuple[str, str]:
        path = self.directory / filename
        path.write_bytes(data)
        digest = hashlib.sha256(data).hexdigest()
        self.digests[filename] = digest
        return str(path), digest


def _job(command, inst, written, *extra) -> Job:
    path, digest = written
    return Job(
        name=f"{command} {Path(path).name}",
        argv=(command, path, *extra),
        digest=digest,
        instance=inst,
    )


def report_families(w: Writer, seed: int) -> list[Job]:
    # Canonical inputs in the vertex order `delrank family` writes; the seed
    # does not change them, so every seed measures the same work.
    jobs = []
    for inst in (simplex(8), cross(8), half_cube(5), half_cube(6), half_cube(7), cube(5)):
        jobs.append(_job("report", inst, w.write(f"{inst.name}.json", vertex_file(inst))))
    inst = p0()
    jobs.append(_job("report", inst, w.write("p0.json", distance_file(inst.dim, inst.distances)), "--window", "0"))
    return jobs


def rank_large(w: Writer, seed: int) -> list[Job]:
    # The seed draws the basis changes.  The vertex relabelings are drawn
    # from seed 0 for every --seed: the pair-system route's time depends on
    # the vertex order with a heavy tail (2.0-3.7 s on half_cube(7) over 8
    # orders, where basis changes alone give 1.9-2.2 s), so seeded orders
    # would make the pass time depend on the seed more than on the code.
    rng = random.Random(seed)
    order_rng = random.Random(0)
    jobs = []
    for inst in (half_cube(7), cube(6)):
        jobs.append(_job("rank", inst, w.write(f"{inst.name}.json", vertex_file(inst)), "--method", "both"))
        t = transformed(inst, rng, order_rng)
        jobs.append(_job("rank", t, w.write(f"{inst.name}-T.json", vertex_file(t)), "--method", "both"))
    return jobs


# Seeded relabelings of each instance per distances-shuffled pass: the
# reconstruction and the basicity search depend on the vertex order, and two
# copies average that out of the pass time.
COPIES = 2


def distances_shuffled(w: Writer, seed: int) -> list[Job]:
    # Both commands rebuild coordinates from the distances.  `rank` uses the
    # Gram-form route only: the cost of the pair-system route varies with
    # the relabeling (2.2-4.7 s on half_cube(7)), which rank-large covers.
    # The half cubes get no `basicity` job: under relabeling their subset
    # search is heavy-tailed (half_cube(7): median 0.08 s, but 33 s on one
    # of 12 seeds; half_cube(6): 0.25 s, but 2.1 s on one of 10), which
    # report-families measures in canonical order.
    rng = random.Random(seed)
    jobs = []
    for c in range(COPIES):
        for inst in (half_cube(6), half_cube(7), cube(5), cross(8), p0()):
            written = w.write(f"{inst.name}-D{c}.json", shuffled_distances(inst, rng))
            jobs.append(_job("rank", inst, written, "--method", "bspace"))
            if not inst.name.startswith("half_cube"):
                jobs.append(_job("basicity", inst, written))
    return jobs


def smoke(w: Writer, seed: int) -> list[Job]:
    """Tiny inputs covering every command and input kind, for the benchmark's own tests."""
    rng = random.Random(seed)
    jobs = []
    for inst in (simplex(3), cross(3), half_cube(5)):
        jobs.append(_job("report", inst, w.write(f"{inst.name}.json", vertex_file(inst))))
    t = transformed(cube(3), rng, rng)
    jobs.append(_job("rank", t, w.write("cube(3)-T.json", vertex_file(t)), "--method", "both"))
    inst = cube(3)
    written = w.write("cube(3)-D.json", shuffled_distances(inst, rng))
    jobs.append(_job("rank", inst, written, "--method", "bspace"))
    jobs.append(_job("basicity", inst, written))
    return jobs


WORKLOADS = {
    "report-families": report_families,
    "rank-large": rank_large,
    "distances-shuffled": distances_shuffled,
    "smoke": smoke,
}


def check(job: Job, code, stdout: str) -> str | None:
    """Why the job's answer is wrong, or None when it matches the paper."""
    if code != 0:
        return f"exit code {code}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    inst = job.instance
    command = job.argv[0]
    want = {"command": command, "input": "sha256:" + job.digest}
    if command == "rank" and "bspace" in job.argv:
        want.update(rank_bspace=inst.rank, rank_hypermetric=None)
    elif command == "rank":
        want.update(rank_bspace=inst.rank, rank_hypermetric=inst.rank, methods_agree=True)
    elif command == "basicity":
        want.update(_basicity_expect(inst))
    else:
        want.update(
            rank=inst.rank,
            face_dimension=inst.rank,
            methods_agree=True,
            dim=inst.dim,
            nvertices=inst.nvertices,
        )
        want["dependencies.count"] = want["nvertices"] - inst.dim - 1
        want.update({f"basicity.{k}": v for k, v in _basicity_expect(inst).items()})
        want["verify.empty_sphere.ok"] = True
    for key, value in want.items():
        got = doc
        for part in key.split("."):
            got = got.get(part) if isinstance(got, dict) else None
        if got != value:
            return f"{key} = {got!r}, expected {value!r}"
    return None


def _basicity_expect(inst: Instance) -> dict:
    out = {"kind": inst.basicity}
    if inst.basicity == Q_BASIC_ONLY:
        out["exhaustive"] = True
    if inst.basicity_tested is not None:
        out["tested"] = inst.basicity_tested
    return out
