"""Command line front end.

Input files are JSON documents carrying exact rationals as strings in the
canonical "p/q" form (denominator omitted when it is 1).  A polytope file
has an integer "dim" plus exactly one of "vertices" (list of coordinate
rows) or "distances" (square matrix of squared distances); a "gram" matrix
may accompany vertices.  Reports are JSON with sorted keys, so equal inputs
produce byte-identical output, and every report echoes the sha256 digest of
the input bytes.

Exit codes: 0 success, 1 usage error, 2 invalid input, 3 inconsistency,
4 internal error, which is also the code of any other exception.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import basis, deps, exact, families, hyp, model, rank
from .errors import DelrankError, InputError, InternalError, NotCospherical

_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")


class UsageError(Exception):
    """Bad command line arguments, as opposed to bad file contents."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; usage errors are 1 here
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_rational(value) -> int | Fraction:
    """An int for an integer string, a Fraction for "p/q"; ASCII digits, matched whole ("$" allows a final newline)."""
    match = _RATIONAL.fullmatch(value) if isinstance(value, str) else None
    if match is None:
        raise InputError(f"not a rational string: {value!r}")
    num, den = match.groups()
    try:
        return int(num) if den is None else Fraction(int(num), int(den))
    except ValueError as e:  # int() refuses more digits than sys.get_int_max_str_digits()
        digits = max(len(num.lstrip("-")), len(den or ""))
        raise InputError(f"a number has {digits} digits, more than the limit of {sys.get_int_max_str_digits()}") from e


def _rat(x) -> str:
    return str(Fraction(x))


def _rational_matrix(obj, path: str, name: str) -> list[list[int | Fraction]]:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise InputError(f"{path}: {name} must be a non-empty list of rows")
    parsed: dict[str, int | Fraction] = {}  # each distinct string is parsed once; _parse_rational rejects the rest
    return [[parsed[x] if isinstance(x, str) and x in parsed else parsed.setdefault(x, _parse_rational(x)) for x in row]
            for row in obj]


@dataclass(frozen=True)
class LoadedInput:
    digest: str
    polytope: model.Polytope
    gram: model._Form | None  # checked once, here


_FILE_KEYS = {"dim", "vertices", "gram", "distances"}


def load_polytope_file(path: str) -> LoadedInput:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except (OSError, ValueError) as e:  # ValueError: a path with a NUL byte
        raise InputError(f"cannot read {path}: {e}") from e
    digest = "sha256:" + hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw)
    except (ValueError, RecursionError) as e:
        raise InputError(f"{path}: not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top level must be an object")
    extra = set(doc) - _FILE_KEYS
    if extra:
        raise InputError(f"{path}: unknown fields {sorted(extra)}")
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InputError(f"{path}: dim must be a positive integer")
    has_vertices = "vertices" in doc
    has_distances = "distances" in doc
    if has_vertices == has_distances:
        raise InputError(f"{path}: exactly one of vertices/distances is required")
    if has_distances and "gram" in doc:
        raise InputError(f"{path}: gram is only allowed together with vertices")
    if has_vertices:
        verts = _rational_matrix(doc["vertices"], path, "vertices")
        p = model.from_coords(dim, verts)
        gram = None
        if "gram" in doc:
            gram = model._validate_gram_shape(p, _rational_matrix(doc["gram"], path, "gram"))
        return LoadedInput(digest=digest, polytope=p, gram=gram)
    dm = _rational_matrix(doc["distances"], path, "distances")
    p, gram = model.from_distances(dm)
    if p.dim != dim:
        raise InputError(f"{path}: distances imply dimension {p.dim}, file says {dim}")
    return LoadedInput(digest=digest, polytope=p, gram=model._Form(*exact.over_common_denominator(gram)))  # from_distances checked it


def _emit(doc) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def cmd_rank(args) -> int:
    loaded = load_polytope_file(args.file)
    p = loaded.polytope
    doc = {"command": "rank", "input": loaded.digest, "method": args.method}
    if args.method in ("bspace", "both"):
        doc["rank_bspace"] = rank.rank_of(p)
    if args.method in ("hypermetric", "both"):
        doc["rank_hypermetric"] = hyp.face_dimension(p)
    code = 0
    if args.method == "both":
        doc["methods_agree"] = doc["rank_bspace"] == doc["rank_hypermetric"]
        if not doc["methods_agree"]:
            code = 3
    _emit(doc)
    if code:
        print("inconsistency: rank methods disagree", file=sys.stderr)
    return code


_GENERATORS = {"simplex": families.simplex, "cross": families.cross_polytope,
               "halfcube": families.half_cube, "cube": families.cube}


def cmd_family(args) -> int:
    if args.name == "p0":
        if args.n is not None:
            raise UsageError("p0 takes no size argument")
        doc = {
            "dim": 12,
            "distances": [[_rat(x) for x in row] for row in families.p0_distance_matrix()],
        }
    else:
        if args.n is None:
            raise UsageError(f"family {args.name} needs a size argument")
        try:
            p = _GENERATORS[args.name](args.n)
        except InputError as e:
            raise UsageError(str(e)) from e
        doc = {
            "dim": p.dim,
            "vertices": [[_rat(x) for x in v] for v in p.vertices],
            "gram": [[_rat(x) for x in row] for row in families.canonical_gram(args.name, p.dim)],
        }
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_deps(args) -> int:
    loaded = load_polytope_file(args.file)
    dep = deps.dependency_module(loaded.polytope)
    doc = {
        "command": "deps",
        "input": loaded.digest,
        "count": len(dep),
        "supports": [[[v, str(c)] for v, c in y] for y in dep],
    }
    _emit(doc)
    return 0


def _basicity_doc(cls: basis.BasicityClass) -> dict:
    return {
        "kind": cls.kind,
        "witness": list(cls.witness) if cls.witness is not None else None,
        "tested": cls.tested,
        "exhaustive": cls.exhaustive,
        "note": cls.note,
    }


def cmd_basicity(args) -> int:
    loaded = load_polytope_file(args.file)
    cls = basis.classify_basicity(loaded.polytope, budget=args.budget)
    doc = {"command": "basicity", "input": loaded.digest, "budget": args.budget}
    doc.update(_basicity_doc(cls))
    _emit(doc)
    return 0


def _verify_doc(p: model.Polytope, gram, window: int) -> dict:
    rep = model.verify_empty_sphere(p, gram, window=window)
    symmetric, _ = model.is_centrally_symmetric(p)
    return {
        "center": [_rat(x) for x in rep.sphere.center],
        "radius_sq": _rat(rep.sphere.radius_sq),
        "cospherical": True,
        "centrally_symmetric": symmetric,
        "empty_sphere": {
            "heuristic": True,
            "note": rep.note,
            "window": rep.window,
            "box": [list(b) for b in rep.box],
            "points_checked": rep.points_checked,
            "strict_violations": [list(z) for z in rep.strict_violations],
            "on_sphere_nonvertices": [list(z) for z in rep.on_sphere_nonvertices],
            "caveats": list(rep.caveats),
            "ok": rep.ok(),
        },
    }


def cmd_verify(args) -> int:
    loaded = load_polytope_file(args.file)
    if loaded.gram is None:
        raise InputError("verify needs a Gram form: add a gram field or supply distances")
    doc = {"command": "verify", "input": loaded.digest}
    doc.update(_verify_doc(loaded.polytope, loaded.gram, args.window))
    _emit(doc)
    return 0


def cmd_nrd(args) -> int:
    loads = [load_polytope_file(f) for f in args.files]
    dims = {l.polytope.dim for l in loads}
    if len(dims) > 1:
        raise InputError(f"dimension mismatch across inputs: {sorted(dims)}")
    value = rank.nrd([l.polytope for l in loads])
    doc = {
        "command": "nrd",
        "inputs": [l.digest for l in loads],
        "dim": loads[0].polytope.dim,
        "nrd": value,
    }
    _emit(doc)
    return 0


def cmd_report(args) -> int:
    loaded = load_polytope_file(args.file)
    p = loaded.polytope
    cls = basis.classify_basicity(p, budget=args.budget)
    verify = symmetric = None
    warnings = ["no Gram form in input; sphere checks skipped"]
    if loaded.gram is not None:
        verify = _verify_doc(p, loaded.gram, args.window)
        symmetric = verify.pop("centrally_symmetric")
        warnings = ["empty-sphere check is a bounded-window heuristic, not a proof"]
    rk = rank.rank_of(p)
    fd = hyp.face_dimension(p)
    dep = deps.dependency_module(p)
    doc = {
        "command": "report",
        "input": loaded.digest,
        "dim": p.dim,
        "nvertices": p.nvertices,
        "rank": rk,
        "face_dimension": fd,
        "methods_agree": rk == fd,
        "extreme": rk == 1,
        "centrally_symmetric": symmetric,
        "dependencies": {
            "count": len(dep),
            "supports": [[[v, str(c)] for v, c in y] for y in dep],
        },
        "basicity": _basicity_doc(cls),
        "verify": verify,
        "warnings": warnings,
    }
    _emit(doc)
    if not doc["methods_agree"]:
        print("inconsistency: rank methods disagree", file=sys.stderr)
        return 3
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser unchanged
    parser = _Parser(prog="delrank", description="Exact rank computations for lattice Delaunay polytopes.")
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("rank", help="rank of the polytope in a file")
    q.add_argument("file")
    q.add_argument("--method", choices=("bspace", "hypermetric", "both"), default="both")
    q.set_defaults(func=cmd_rank)

    q = sub.add_parser("family", help="write a generated polytope file")
    q.add_argument("name", choices=families.FAMILY_NAMES)
    q.add_argument("n", type=int, nargs="?")
    q.add_argument("--output")
    q.set_defaults(func=cmd_family)

    q = sub.add_parser("deps", help="saturated affine dependency basis")
    q.add_argument("file")
    q.set_defaults(func=cmd_deps)

    q = sub.add_parser("basicity", help="integral affine basis classification")
    q.add_argument("file")
    q.add_argument("--budget", type=int, default=2000)
    q.set_defaults(func=cmd_basicity)

    q = sub.add_parser("verify", help="sphere and symmetry checks")
    q.add_argument("file")
    q.add_argument("--window", type=int, default=1)
    q.set_defaults(func=cmd_verify)

    q = sub.add_parser("nrd", help="dimension of the joint form space of several polytopes")
    q.add_argument("files", nargs="+")
    q.set_defaults(func=cmd_nrd)

    q = sub.add_parser("report", help="combined report")
    q.add_argument("file")
    q.add_argument("--window", type=int, default=1)
    q.add_argument("--budget", type=int, default=2000)
    q.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "window", 0) < 0:
            raise UsageError("window must be >= 0")
        if getattr(args, "budget", 1) < 1:
            raise UsageError("budget must be >= 1")
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except NotCospherical as e:
        print(f"inconsistency: {e}", file=sys.stderr)
        return 3
    except InternalError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 4
    except (DelrankError, OSError) as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
