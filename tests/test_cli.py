"""Command line wiring: exit codes, JSON shapes, determinism."""

import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

import delrank as dr
from delrank import cli, deps, exact, hyp, model, rank
from delrank.errors import DelrankError, InternalError
from tests.helpers import count_calls, dense_dependency_module, fraction_distance_matrix


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc) + "\n")
    return str(path)


@pytest.fixture
def square_file(tmp_path):
    return write_json(
        tmp_path,
        "square.json",
        {"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]},
    )


def test_rank_both_methods(square_file, capsys):
    code, out, err = run(["rank", square_file], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "rank"
    assert doc["rank_bspace"] == 2
    assert doc["rank_hypermetric"] == 2
    assert doc["methods_agree"] is True


def test_rank_single_method(square_file, capsys):
    code, out, err = run(["rank", square_file, "--method", "bspace"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["rank_bspace"] == 2
    assert "rank_hypermetric" not in doc
    assert "methods_agree" not in doc


def test_digest_echo(square_file, capsys):
    raw = Path(square_file).read_bytes()
    expected = "sha256:" + hashlib.sha256(raw).hexdigest()
    code, out, err = run(["deps", square_file], capsys)
    assert code == 0
    assert json.loads(out)["input"] == expected


def test_deps_square(square_file, capsys):
    code, out, err = run(["deps", square_file], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 1
    assert doc["supports"] == [[[0, "1"], [1, "-1"], [2, "-1"], [3, "1"]]]


@pytest.mark.parametrize("family", [("cube", "8"), ("halfcube", "8")])
def test_deps_and_report_print_one_pair_per_nonzero(family, tmp_path, capsys):
    """The printed module grows with the nonzeros of its dependencies, at most dim + 2 each, not with nv per dependency."""
    path = str(tmp_path / "input.json")
    assert cli.main(["family", *family, "--output", path]) == 0
    p = cli.load_polytope_file(path).polytope
    dense = dense_dependency_module(p)
    nonzeros = sum(1 for y in dense for c in y if c)
    for argv in (["deps", path], ["report", path, "--window", "0"]):
        code, out, err = run(argv, capsys)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        printed = doc["supports"] if argv[0] == "deps" else doc["dependencies"]["supports"]
        assert len(printed) == len(dense) == p.nvertices - p.dim - 1
        assert sum(len(y) for y in printed) == nonzeros
        assert max(len(y) for y in printed) <= p.dim + 2
        assert [[[v, int(c)] for v, c in y] for y in printed] == [[[v, c] for v, c in enumerate(y) if c] for y in dense]


def test_family_to_file_then_rank(tmp_path, capsys):
    target = str(tmp_path / "hc4.json")
    code, out, err = run(["family", "halfcube", "4", "--output", target], capsys)
    assert code == 0
    assert out == ""
    doc = json.loads(Path(target).read_text())
    assert doc["dim"] == 4
    assert len(doc["vertices"]) == 8
    assert doc["gram"] == [["1" if i == j else "0" for j in range(4)] for i in range(4)]
    code, out, err = run(["rank", target], capsys)
    assert code == 0
    assert json.loads(out)["rank_bspace"] == 7


def test_family_p0_is_distances_only(capsys):
    code, out, err = run(["family", "p0"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 12
    assert "vertices" not in doc
    assert len(doc["distances"]) == 14
    assert doc["distances"][0][1] == "7"


@pytest.mark.parametrize(
    "argv",
    [
        ["family", "simplex"],          # size missing
        ["family", "p0", "3"],          # size not allowed
        ["family", "halfcube", "2"],    # below minimum
        ["basicity", "x.json", "--budget", "0"],
        ["verify", "x.json", "--window", "-1"],
        ["report", "x.json", "--budget", "0"],
        ["report", "x.json", "--window", "-1"],
        ["basicity", "x.json", "--budget", "-1"],
    ],
)
def test_usage_errors(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 1
    assert err


@pytest.mark.parametrize("argv", [["rank", "--method", "both"], ["report"]])
def test_rank_methods_disagree_exits_three(argv, square_file, capsys, monkeypatch):
    # CI sweeps both routes through `delrank rank --method both` and relies on this exit code
    monkeypatch.setattr(hyp, "face_dimension", lambda p: rank.rank_of(p) + 1)
    code, out, err = run([argv[0], square_file, *argv[1:]], capsys)
    assert code == 3
    assert json.loads(out)["methods_agree"] is False
    assert err == "inconsistency: rank methods disagree\n"


def test_argparse_errors_exit_one(capsys):
    for argv in [[], ["family", "orthoplex", "3"], ["rank"]]:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        capsys.readouterr()


BAD_FILES = [
    {"dim": 2},
    {"dim": 2, "vertices": [["0", "0"]], "distances": [["0"]]},
    {"dim": 2, "distances": [["0", "1"], ["1", "0"]], "gram": [["1"]]},
    {"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"]], "extra": 1},
    {"dim": 0, "vertices": [["0"], ["1"]]},
    {"dim": True, "vertices": [["0"], ["1"]]},
    {"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]]},
    {"dim": 2, "vertices": [["0.5", "0"], ["1", "0"], ["0", "1"]]},
    {"dim": 2, "vertices": [["1/0", "0"], ["1", "0"], ["0", "1"]]},
    {
        "dim": 2,
        "vertices": [["0", "0"], ["1", "0"], ["0", "1"]],
        "gram": [["1", "2"], ["3", "1"]],
    },
    {
        "dim": 2,
        "vertices": [["0", "0"], ["1", "0"], ["0", "1"]],
        "gram": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    },
    {"dim": 3, "distances": [["0", "1", "1", "2"], ["1", "0", "2", "1"], ["1", "2", "0", "1"], ["2", "1", "1", "0"]]},
    [1, 2, 3],
    {
        "dim": 2,
        "vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]],
        "gram": [["1", "0"], ["0", "-1"]],
    },
    {
        "dim": 2,
        "vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]],
        "gram": [["0", "0"], ["0", "0"]],
    },
    # int() refuses more digits than sys.get_int_max_str_digits(), 4300 by default
    {"dim": 1, "vertices": [["1" + "0" * 4999], ["0"]]},
    # a final newline, and a non-ASCII digit (Arabic-Indic three), are not canonical "p/q" strings
    {"dim": 1, "vertices": [["12\n"], ["0"]]},
    {"dim": 1, "distances": [["0", "\u0663"], ["\u0663", "0"]]},
]


@pytest.mark.parametrize("doc", BAD_FILES)
def test_invalid_files_exit_two(doc, tmp_path, capsys):
    path = write_json(tmp_path, "bad.json", doc)
    code, out, err = run(["rank", path], capsys)
    assert code == 2
    assert err.startswith("invalid input:")


def test_internal_error_exits_four(tmp_path, capsys, monkeypatch):
    # a Hermite form that loses its last row, the one pivoting at w's column, leaves no relation row at w; the
    # first vertex has affine coordinates 1/2, 1/2 over the others, so the module walk takes a Hermite form there
    path = write_json(tmp_path, "halves.json", {"dim": 2, "vertices": [["1", "1"], ["0", "0"], ["2", "0"], ["0", "2"]]})
    real = exact.hermite_normal_form
    monkeypatch.setattr(exact, "hermite_normal_form", lambda m: real(m)[:-1])
    code, out, err = run(["deps", path], capsys)
    assert code == 4
    assert out == ""
    assert err == "internal error: 0 relation rows at vertex 0, expected 1\n"
    assert not issubclass(InternalError, DelrankError)


def test_failed_distance_recheck_exits_four(tmp_path, capsys, monkeypatch):
    # the re-check of a distance file guards an invariant, so its failure is a bug
    square = [[0, 1, 1, 2], [1, 0, 2, 1], [1, 2, 0, 1], [2, 1, 1, 0]]
    path = write_json(tmp_path, "square_d.json", {"dim": 2, "distances": [[str(x) for x in row] for row in square]})
    real = model._distance_matrix

    def bumped(p, w, s):
        num, scale = real(p, w, s)
        num[1][2] += 1
        return num, scale

    monkeypatch.setattr(model, "_distance_matrix", bumped)
    code, out, err = run(["rank", path, "--method", "bspace"], capsys)
    assert code == 4
    assert out == ""
    assert err == "internal error: reconstructed coordinates do not reproduce the distance matrix\n"


def test_singular_circumcenter_system_exits_four(tmp_path, capsys, monkeypatch):
    # the circumcenter system is regular over an affine basis and a definite form, so a failed solve is a bug
    doc = {"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]], "gram": [["1", "0"], ["0", "1"]]}
    path = write_json(tmp_path, "square_g.json", doc)
    monkeypatch.setattr(exact, "solve", lambda a, b: None)
    code, out, err = run(["verify", path, "--window", "0"], capsys)
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: circumcenter system is singular")


def test_other_exceptions_exit_four(square_file, capsys, monkeypatch):
    # only the error class decides: a ValueError from inside the library is a bug, not bad input
    for exc in (ZeroDivisionError("division by zero"), ValueError("lost a row")):
        def broken(p):
            raise exc

        monkeypatch.setattr(rank, "rank_of", broken)
        code, out, err = run(["rank", square_file, "--method", "bspace"], capsys)
        assert code == 4
        assert out == ""
        assert err == f"internal error: {type(exc).__name__}: {exc}\n"


def test_deeply_nested_file_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000)
    code, out, err = run(["rank", str(path)], capsys)
    assert code == 2
    assert err.startswith("invalid input:")


def test_over_long_number_names_its_digits(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    for value, digits in ((f"1{'0' * limit}", limit + 1), (f"-1/1{'0' * limit}", limit + 1)):
        path = write_json(tmp_path, "long.json", {"dim": 1, "vertices": [[value], ["0"]]})
        code, out, err = run(["rank", path], capsys)
        assert (code, out) == (2, "")
        assert err == f"invalid input: a number has {digits} digits, more than the limit of {limit}\n"


@pytest.mark.parametrize("command", ["verify", "report"])
def test_scan_box_beyond_maxsize_is_invalid_input(command, tmp_path, capsys):
    # the box from 0 to 10^3000 cannot be scanned, and itertools cannot even size it
    path = write_json(tmp_path, "huge.json", {"dim": 1, "vertices": [["1" + "0" * 3000], ["0"]], "gram": [["1"]]})
    code, out, err = run([command, path, "--window", "0"], capsys)
    assert (code, out) == (2, "")
    assert err == f"invalid input: the scan box holds more than {sys.maxsize} integer points\n"


FUZZ_COMMANDS = [["rank"], ["deps"], ["basicity"], ["verify", "--window", "0"], ["report", "--window", "0"]]

json_documents = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["dim", "vertices", "gram", "distances"]) | st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)


def _squared_distances(points, gram):
    diffs = [[[a - b for a, b in zip(u, v)] for v in points] for u in points]
    return [[sum(gram[i][j] * x[i] * x[j] for i in range(len(x)) for j in range(len(x))) for x in row] for row in diffs]


@st.composite
def near_valid_files(draw):
    """A small polytope file, often broken in one of the ways the loader must reject."""
    small = st.integers(-9, 9)
    dim = draw(st.integers(1, 3))
    points = draw(st.lists(st.lists(small, min_size=dim, max_size=dim), min_size=2, max_size=6, unique_by=tuple))
    gram = draw(st.lists(st.lists(small, min_size=dim, max_size=dim), min_size=dim, max_size=dim))
    form = draw(st.sampled_from(["positive definite", "positive definite", "symmetric", "arbitrary"]))
    if form != "arbitrary":
        gram = [[gram[min(i, j)][max(i, j)] for j in range(dim)] for i in range(dim)]
    if form == "positive definite":
        # each diagonal entry above its row's off-diagonal sum
        for i, row in enumerate(gram):
            row[i] = 1 + sum(abs(x) for k, x in enumerate(row) if k != i)
    fault = draw(st.sampled_from(
        ["none", "ragged", "duplicate", "dim", "asymmetric", "nonpositive", "diagonal", "near-singular"]
    ))
    if fault == "duplicate":
        points.append(list(draw(st.sampled_from(points))))
    if draw(st.booleans()):
        doc = {"dim": dim, "vertices": points}
        if draw(st.booleans()):
            doc["gram"] = gram
        key = draw(st.sampled_from(sorted(doc.keys() - {"dim"})))
    else:
        doc = {"dim": dim, "distances": _squared_distances(points, gram)}
        key = "distances"
    m = doc[key]
    i, j = draw(st.integers(0, len(m) - 1)), draw(st.integers(0, len(m) - 1))
    if fault == "ragged":
        m[i] = m[i][:-1] if draw(st.booleans()) else m[i] + [1]
    elif fault == "dim":
        doc["dim"] = dim + draw(st.sampled_from([-1, 1]))
    elif key == "vertices":
        pass
    elif fault == "asymmetric":
        m[i][j] += draw(st.integers(1, 9))
    elif fault == "nonpositive":
        m[i][j] = m[j][i] = -draw(st.integers(0, 9))
    elif fault == "diagonal":
        m[i][i] = draw(st.integers(1, 9))
    elif fault == "near-singular":
        # a small symmetric change: the entries no longer come from one form
        step = Fraction(draw(st.sampled_from([-1, 1])), draw(st.integers(2, 9)))
        m[i][j] += step
        if i != j:
            m[j][i] += step
    return {k: v if k == "dim" else [[str(x) for x in row] for row in v] for k, v in doc.items()}


@given(
    doc=json_documents | near_valid_files(),
    command=st.sampled_from(FUZZ_COMMANDS),
)
def test_fuzzed_files_exit_cleanly(doc, command, tmp_path_factory):
    # only the documented outcomes: a report, invalid input or an inconsistency, each in one stderr line
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command[0], str(path), *command[1:]])
    text = err.getvalue()
    assert code in (0, 2, 3), text
    if code == 0:
        assert text == ""
    else:
        assert text.startswith("invalid input:" if code == 2 else "inconsistency:")
        assert text.count("\n") == 1 and text.endswith("\n")


def test_missing_and_unparsable_files(tmp_path, capsys):
    code, out, err = run(["rank", str(tmp_path / "no_such.json")], capsys)
    assert code == 2
    bad = tmp_path / "syntax.json"
    bad.write_text("{not json")
    code, out, err = run(["rank", str(bad)], capsys)
    assert code == 2


def test_verify_square(tmp_path, capsys):
    path = write_json(
        tmp_path,
        "sq.json",
        {
            "dim": 2,
            "vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]],
            "gram": [["1", "0"], ["0", "1"]],
        },
    )
    code, out, err = run(["verify", path, "--window", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["center"] == ["1/2", "1/2"]
    assert doc["radius_sq"] == "1/2"
    assert doc["cospherical"] is True
    assert doc["centrally_symmetric"] is True
    es = doc["empty_sphere"]
    assert set(es) == {
        "heuristic",
        "note",
        "window",
        "box",
        "points_checked",
        "strict_violations",
        "on_sphere_nonvertices",
        "caveats",
        "ok",
    }
    assert es["heuristic"] is True
    assert es["ok"] is True
    assert es["strict_violations"] == []


def test_verify_needs_gram(square_file, capsys):
    # vertices without gram: no form to check against
    code, out, err = run(["verify", square_file], capsys)
    assert code == 2


def test_verify_not_cospherical_exits_three(tmp_path, capsys):
    path = write_json(
        tmp_path,
        "off.json",
        {
            "dim": 2,
            "vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["3", "3"]],
            "gram": [["1", "0"], ["0", "1"]],
        },
    )
    code, out, err = run(["verify", path], capsys)
    assert code == 3
    assert err.startswith("inconsistency:")


def test_basicity_square(square_file, capsys):
    code, out, err = run(["basicity", square_file], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "Z_BASIC"
    assert doc["witness"] == [0, 1, 2]
    assert doc["budget"] == 2000


def test_nrd_two_files(tmp_path, square_file, capsys):
    other = write_json(
        tmp_path,
        "tri.json",
        {"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]},
    )
    code, out, err = run(["nrd", square_file, other], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 2
    assert doc["nrd"] == 2
    assert len(doc["inputs"]) == 2


def test_nrd_dimension_mismatch(tmp_path, square_file, capsys):
    seg = write_json(tmp_path, "seg.json", {"dim": 1, "vertices": [["0"], ["1"]]})
    code, out, err = run(["nrd", square_file, seg], capsys)
    assert code == 2
    assert (out, err) == ("", "invalid input: dimension mismatch across inputs: [1, 2]\n")


def test_report_square(tmp_path, capsys):
    path = write_json(
        tmp_path,
        "sq.json",
        {
            "dim": 2,
            "vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]],
            "gram": [["1", "0"], ["0", "1"]],
        },
    )
    code, out, err = run(["report", path], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 2
    assert doc["face_dimension"] == 2
    assert doc["methods_agree"] is True
    assert doc["extreme"] is False
    assert doc["centrally_symmetric"] is True
    assert doc["dependencies"] == {"count": 1, "supports": [[[0, "1"], [1, "-1"], [2, "-1"], [3, "1"]]]}
    assert doc["basicity"]["kind"] == "Z_BASIC"
    assert doc["verify"]["empty_sphere"]["ok"] is True
    assert doc["warnings"]


# sha256 of `delrank report` stdout on `delrank family` files: any change to
# a report byte, from any layer below the command line, shows up here
REPORT_DIGESTS = {
    "simplex4": (["simplex", "4"], [], "e3d45cced550279f42443dd8102e3a3de0e222617a6ef8e3613356a5fe0036a2"),
    "cross4": (["cross", "4"], [], "6c60085b65ce9a13d19bca010dab81345a63624513b26fab975b4885083afd43"),
    "halfcube5": (["halfcube", "5"], [], "70b50714482909a6bddd1faf138ff2b1bfe984e55281df06e3072d011d20a553"),
    "cube4": (["cube", "4"], [], "36088f41f8dafe08e2d54f14f9c32be33bb54f52a1fe7f82cc8da946489f4109"),
    "p0": (["p0"], ["--window", "0"], "0a216a177b518690f2e6bb925033e775bf192201e7888c3b4d8536f856f6ec54"),
    "halfcube6": (["halfcube", "6"], ["--window", "0"], "d2b05472a17792e90c057183e0659646788a5d08a6d0540a77117ed40aea811d"),
    "cube5": (["cube", "5"], ["--window", "0"], "2db45da7f2b46de272b4ea6be6b7b4f26322cd60b668870c5dee434e90d49d8c"),
}


@pytest.mark.parametrize("family, extra, digest", REPORT_DIGESTS.values(), ids=REPORT_DIGESTS)
def test_report_stdout_is_pinned(family, extra, digest, tmp_path, capsys):
    path = str(tmp_path / "input.json")
    assert cli.main(["family", *family, "--output", path]) == 0
    code, out, err = run(["report", path, *extra], capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _distance_instance(name):
    if name == "p0":
        return 12, dr.p0_distance_matrix()
    build, family, n = {
        "halfcube6": (dr.half_cube, "halfcube", 6),
        "cube5": (dr.cube, "cube", 5),
        "cross8": (dr.cross_polytope, "cross", 8),
    }[name]
    return n, fraction_distance_matrix(build(n), dr.canonical_gram(family, n))


def shuffled_distance_doc(name):
    dim, dm = _distance_instance(name)
    order = list(range(len(dm)))
    random.Random(0).shuffle(order)
    return {"dim": dim, "distances": [[cli._rat(dm[i][j]) for j in order] for i in order]}


# sha256 of stdout on distance files with the vertices in one fixed shuffled order
DISTANCE_DIGESTS = {
    ("halfcube6", "rank"): "36afd98800863e2cc4f274bac5715f6c8a217e66b540b9c9729514fb5b31ec0a",
    ("halfcube6", "basicity"): "d27fe927b60905eeb5ebebde8e54a0451d8b4bce0897decf36e8e0f3ab277b16",
    ("cube5", "rank"): "c43bc3b86c4e64fbd4937333225f1fb957965308fd0751f65ea142572ac853af",
    ("cube5", "basicity"): "91132dfc50580dea05157722eda8de8243b786d60256ee8ae222fc1b4659857b",
    ("cross8", "rank"): "feb224330d50f0eca929537de6a40e09727a1b6a763a770e7957f5c09765b72c",
    ("cross8", "basicity"): "d29ae7950981629180c0d64be47f911635f66255410b84782ecd68d47c9a952f",
    ("p0", "rank"): "cd22dabb50c6441aa28c8901701acc20591040a1366a26b18f5be357056694fa",
    ("p0", "basicity"): "4990b44ca5cdc3d77e188bbaeeceb03d685bda7a65300f8b898c7d3424b8733d",
}


@pytest.mark.parametrize(
    "name, command, digest",
    [(*key, digest) for key, digest in DISTANCE_DIGESTS.items()],
    ids=["-".join(key) for key in DISTANCE_DIGESTS],
)
def test_distance_file_stdout_is_pinned(name, command, digest, tmp_path, capsys):
    path = write_json(tmp_path, "input.json", shuffled_distance_doc(name))
    extra = ["--method", "bspace"] if command == "rank" else []
    code, out, err = run([command, path, *extra], capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_report_computes_the_circumsphere_once(tmp_path, capsys, monkeypatch):
    target = str(tmp_path / "hc4.json")
    assert run(["family", "halfcube", "4", "--output", target], capsys)[0] == 0
    calls = count_calls(monkeypatch, model, "circumcenter")
    code, out, err = run(["report", target], capsys)
    assert code == 0
    assert json.loads(out)["verify"]["center"] == ["1/2"] * 4
    assert len(calls) == 1


def test_report_builds_the_dependency_module_once(tmp_path, capsys, monkeypatch):
    target = str(tmp_path / "hc4.json")
    assert run(["family", "halfcube", "4", "--output", target], capsys)[0] == 0
    calls = count_calls(monkeypatch, deps, "dependency_module")
    code, out, err = run(["report", target], capsys)
    assert code == 0
    assert json.loads(out)["dependencies"]["count"] == 8 - 4 - 1
    assert len(calls) == 1


def test_rank_both_builds_no_hermite_module(tmp_path, capsys, monkeypatch):
    target = str(tmp_path / "hc5.json")
    assert run(["family", "halfcube", "5", "--output", target], capsys)[0] == 0
    calls = count_calls(monkeypatch, exact, "hermite_normal_form")
    code, out, err = run(["rank", target, "--method", "both"], capsys)
    assert code == 0
    assert json.loads(out)["methods_agree"] is True
    assert calls == []


def test_rank_both_reduces_the_lifted_vertices_once(tmp_path, capsys, monkeypatch):
    target = str(tmp_path / "hc5.json")
    assert run(["family", "halfcube", "5", "--output", target], capsys)[0] == 0
    lifted = count_calls(monkeypatch, model, "_lifted")
    ranks = count_calls(monkeypatch, exact, "rank")
    sparse = count_calls(monkeypatch, exact, "sparse_rank")
    code, out, err = run(["rank", target, "--method", "both"], capsys)
    assert code == 0
    assert json.loads(out)["methods_agree"] is True
    # the frame's rref reduces the lifted vertices; both routes then rank sparse rows
    assert (len(lifted), len(sparse), len(ranks)) == (1, 2, 0)


def test_report_takes_one_covolume_of_all_lifted_vertices_plus_one_per_tested_subset(tmp_path, capsys, monkeypatch):
    target = str(tmp_path / "hc5.json")
    assert run(["family", "halfcube", "5", "--output", target], capsys)[0] == 0
    lifted = count_calls(monkeypatch, model, "_lifted")
    covolumes = count_calls(monkeypatch, exact, "covolume")
    code, out, err = run(["report", target], capsys)
    assert code == 0
    doc = json.loads(out)
    # the lifted rows k (v, 1) are dim + 1 wide; the sphere check's vertex differences are dim wide
    on_lifted = [rows for (rows,) in covolumes if len(rows[0]) == doc["dim"] + 1]
    assert len(lifted) == 1
    # one covolume per (dim + 1)-subset reached: half_cube(5) reaches 3 dependent subsets before its witness
    assert [len(rows) for rows in on_lifted] == [doc["nvertices"]] + [doc["dim"] + 1] * 4
    assert [exact.rank(rows) for rows in on_lifted[1:]] == [doc["dim"]] * 3 + [doc["dim"] + 1]
    assert (doc["basicity"]["kind"], doc["basicity"]["tested"]) == ("Z_BASIC", 1)


def test_report_without_gram_skips_verify(square_file, capsys):
    code, out, err = run(["report", square_file], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["verify"] is None
    assert doc["centrally_symmetric"] is None
    assert any("skipped" in w for w in doc["warnings"])


def test_determinism_double_run(square_file, capsys):
    _, first, _ = run(["report", square_file], capsys)
    _, second, _ = run(["report", square_file], capsys)
    assert first == second
    assert first.endswith("\n")


@given(
    st.fractions(
        min_value=Fraction(-(10**9)),
        max_value=Fraction(10**9),
        max_denominator=10**9,
    )
)
def test_rational_text_round_trip(q):
    text = cli._rat(q)
    assert cli._RATIONAL.fullmatch(text)
    assert cli._parse_rational(text) == q


def test_rational_rejections():
    from delrank.errors import InputError

    # "$" matched before a final newline, and \d matched non-ASCII digits such as Arabic-Indic three
    for bad in ["1.5", "1/0", "2/-3", "", "+1", " 1", "1/", None, 3, "12\n", "\u0663", "1/\u0663"]:
        with pytest.raises(InputError):
            cli._parse_rational(bad)


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "delrank.cli", "family", "simplex", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["dim"] == 2
    assert len(doc["vertices"]) == 3
