"""The benchmark's own tests.

    python3 -m pytest perfbench

A smoke run on tiny inputs must print every metric BENCHMARK.json declares,
and a wrong expected answer or an output that changes between passes must
be counted as a failed job.
"""

import dataclasses
import json
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import probe
import run
import spans
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

sys.path.insert(0, str(run.SRC))
from delrank import cli  # noqa: E402


def bench(argv, cwd=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=cwd or HERE.parent,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_every_declared_metric(trace, section):
    proc = bench(["--workload", "smoke", "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == run.MIN_PASSES * 6
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:  # calls through every import style were traced
        values = {name: m["value"] for name, m in result["metrics"].items()}
        for name in ("rank.rank_of.calls", "deps.dependency_module.calls", "hyp.face_system.calls",
                     "model.from_distances.calls", "model.verify_empty_sphere.points"):
            assert values[name] > 0, name
        assert values["basis.classify_basicity.visited"] >= values["basis.classify_basicity.tested"] > 0


def test_declared_per_layer_metrics_are_the_traced_ones():
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == [w for w in workloads.WORKLOADS if w != "smoke"]


def test_wrong_expected_answer_counts_as_failed(monkeypatch):
    def smoke_with_wrong_rank(writer, seed):
        jobs = workloads.smoke(writer, seed)
        job = jobs[0]
        jobs[0] = dataclasses.replace(job, instance=dataclasses.replace(job.instance, rank=job.instance.rank + 1))
        return jobs

    monkeypatch.setitem(workloads.WORKLOADS, "smoke", smoke_with_wrong_rank)
    record = run.run("smoke", seed=3, seconds=0, trace=False)
    result = record["result"]
    npasses = len(record["pass_wall_s"])
    assert result["correct"] is False
    assert result["failed"] == npasses  # the one wrong job, in every pass
    assert record["fail_frac"] == npasses / result["attempted"] > 0
    assert {f["job"] for f in record["failures"]} == {"report simplex(3).json"}
    assert record["failures"][0]["why"].startswith("rank = 6, expected 7")


def test_output_that_changes_between_passes_counts_as_failed(tmp_path):
    jobs = workloads.smoke(workloads.Writer(tmp_path), 1)
    first = run.run_pass(cli, jobs, None, 0)
    assert run.failures(jobs, [first, first]) == []
    wall, results = first
    second = (wall, [(code, out.replace("\n", "\n ", 1), *times) for code, out, *times in results])
    found = run.failures(jobs, [first, second])
    assert [(f["pass"], f["why"]) for f in found] == [(1, "stdout differs from the first pass")] * len(jobs)


def test_inputs_depend_only_on_the_seed(tmp_path):
    def digests(seed, name):
        w = workloads.Writer(tmp_path / name)
        workloads.rank_large(w, seed)
        workloads.distances_shuffled(w, seed)
        return w.digests

    a, b, c = digests(7, "a"), digests(7, "b"), digests(8, "c")
    assert a == b
    changed = {f for f in a if a[f] != c[f]}
    assert changed == {f for f in a if re.search(r"-(T|D\d+)\.json$", f)}
    assert sum(f.startswith("cube(5)-D") for f in a) == workloads.COPIES


def test_rank_large_relabels_the_same_way_for_every_seed(tmp_path):
    a = workloads.rank_large(workloads.Writer(tmp_path / "a"), 7)[1].instance
    b = workloads.rank_large(workloads.Writer(tmp_path / "b"), 8)[1].instance
    # the basis changes differ, the permutation does not: a linear map keeps
    # the origin, so the origin lands in the same place
    origin = (0,) * 7
    assert a.vertices != b.vertices
    assert a.vertices.index(origin) == b.vertices.index(origin) != 0


@pytest.mark.parametrize(
    "argv, inst",
    [
        (["simplex", "8"], workloads.simplex(8)),
        (["cross", "8"], workloads.cross(8)),
        (["halfcube", "7"], workloads.half_cube(7)),
        (["cube", "6"], workloads.cube(6)),
    ],
)
def test_family_files_match_the_command_line(tmp_path, argv, inst):
    path = tmp_path / "f.json"
    assert cli.main(["family", *argv, "--output", str(path)]) == 0
    assert path.read_bytes() == workloads.vertex_file(inst)


def test_p0_file_matches_the_command_line(tmp_path):
    path = tmp_path / "p0.json"
    assert cli.main(["family", "p0", "--output", str(path)]) == 0
    inst = workloads.p0()
    assert path.read_bytes() == workloads.distance_file(inst.dim, inst.distances)


def test_probe_scales_by_the_host_speed_around_the_interval():
    speed = probe.Probe()
    # one sample a second; from t = 50 on, the host runs at half speed
    speed.starts = [float(t) for t in range(100)]
    speed.times = [probe.REF_S * (1 if t < 50 else 2) for t in range(100)]
    assert speed.scaled(0, 40) == pytest.approx(40 - 40 * probe.REF_S)
    assert speed.scaled(60, 100) == pytest.approx((40 - 40 * 2 * probe.REF_S) / 2)
    # an interval without samples of its own takes the nearest ones
    assert speed.scaled(70.2, 70.7) == pytest.approx(0.25)


def test_probe_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with probe.Probe() as speed:
        assert signal.getitimer(signal.ITIMER_REAL)[1] == probe.INTERVAL_S
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.times) == 2 * probe.MIN_SAMPLES


def test_tracer_restores_every_patched_name():
    import delrank.deps
    import delrank.rank

    original = delrank.deps.dependency_module
    with spans.Tracer():
        assert delrank.rank.dependency_module is delrank.deps.dependency_module is not original
    assert delrank.rank.dependency_module is delrank.deps.dependency_module is original


def test_fails_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(["--workload", "smoke", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
