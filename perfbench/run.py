#!/usr/bin/env python3
"""Run one benchmark workload against the package in src/ and print its metrics.

    python3 perfbench/run.py --workload rank-large --seed 1 --seconds 20 --trace 0

Writes the workload's input files from the seed, then runs closed-loop
passes over its jobs, one `delrank.cli.main(argv)` call at a time, for as
many passes as fit in --seconds (at least two, so outputs can be compared
across passes).  Every answer is checked against the paper's values.  In
untraced runs a host-speed probe (probe.py) samples beside the jobs, and
each job's time is scaled to the probe's reference speed.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 the passes run under a span tracer and the
metrics are the per-layer ones.  Inputs, their sha256 digests, per-job
times, failures and (traced) spans go to .perfbench_out/<run>/.

Exits with status 2, printing no result, when src/delrank is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_PASSES = 2
SETUP_SPAWNS = 15

# printed with --trace 1, in this order
PER_LAYER = (
    "cli.main.self_s",
    "cli.load_polytope_file.s",
    "model.from_distances.calls",
    "model.from_distances.s",
    "model.from_distances.self_s",
    "model.distance_matrix.s",
    "exact.is_positive_definite.s",
    "model.verify_empty_sphere.s",
    "model.verify_empty_sphere.points",
    "model.verify_empty_sphere.points_per_s",
    "model.circumcenter.calls",
    "model.circumcenter.s",
    "model.is_centrally_symmetric.s",
    "basis.classify_basicity.s",
    "basis.classify_basicity.self_s",
    "basis.classify_basicity.visited",
    "basis.classify_basicity.tested",
    "basis.classify_basicity.useful_ratio",
    "basis.is_affine_basis.calls",
    "basis.is_affine_basis.s",
    "hyp.face_dimension.calls",
    "hyp.face_dimension.s",
    "hyp.face_dimension.self_s",
    "hyp.face_system.calls",
    "hyp.face_system.s",
    "exact.sparse_rank.calls",
    "exact.sparse_rank.s",
    "exact.sparse_rank.rows",
    "exact.sparse_rank.nnz",
    "exact.sparse_rank.pivot_ratio",
    "rank.rank_of.calls",
    "rank.rank_of.s",
    "rank.bspace_constraints.s",
    "exact.rank.calls",
    "exact.rank.s",
    "exact.rank.cells",
    "deps.dependency_module.calls",
    "deps.dependency_module.s",
    "exact.hermite_normal_form.calls",
    "exact.hermite_normal_form.s",
    "exact.solve.calls",
    "exact.solve.s",
    "model.from_coords.calls",
    "model.from_coords.s",
    "trace.wall_s",
)


def unit(name: str) -> str:
    measure = name.rsplit(".", 1)[1]
    if measure in ("s", "self_s", "wall_s"):
        return "s"
    if measure == "points_per_s":
        return "1/s"
    if measure.endswith("_ratio"):
        return "ratio"
    return "count"


def measure_setup() -> float:
    """Median seconds from a fresh interpreter to `delrank.cli` imported."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import delrank.cli"]
    times = []
    for i in range(SETUP_SPAWNS + 1):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        if i:  # the first spawn also writes the bytecode cache
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_pass(cli, jobs, tracer, pass_index):
    """One closed-loop pass: (seconds, [(exit code, stdout, start, end) per job])."""
    results = []
    gc.collect()
    start = time.perf_counter()
    for k, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = (pass_index, k)
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(job.argv))
        except (Exception, SystemExit) as e:  # a crash is a failed job, not a failed run
            code = f"raised {type(e).__name__}: {e}"
        results.append((code, out.getvalue(), t0, time.perf_counter()))
    return time.perf_counter() - start, results


def failures(jobs, passes) -> list[dict]:
    """Wrong answers, nonzero exits, and outputs that differ from the first pass."""
    found = []
    first = passes[0][1]
    for p, (_, results) in enumerate(passes):
        for job, (code, out, *_), (_, ref, *_) in zip(jobs, results, first):
            why = workloads.check(job, code, out)
            if why is None and out != ref:
                why = "stdout differs from the first pass"
            if why is not None:
                found.append({"pass": p, "job": job.name, "why": why})
    return found


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the workload; returns the full record, including the result line."""
    run_dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    writer = workloads.Writer(run_dir / "inputs")
    jobs = workloads.WORKLOADS[workload](writer, seed)
    setup_s = None if trace else measure_setup()

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from delrank import cli

    if Path(cli.__file__).resolve().parent != (SRC / "delrank").resolve():
        raise SystemExit(f"imported delrank from {cli.__file__}, not from {SRC}")

    tracer = spans.Tracer() if trace else None
    speed = None if trace else probe.Probe()
    passes = []
    pass_spans = []
    with tracer or speed:
        start = time.perf_counter()
        # start another pass only if it should end within the time allowed
        while len(passes) < MIN_PASSES or time.perf_counter() - start + passes[-1][0] <= seconds:
            passes.append(run_pass(cli, jobs, tracer, len(passes)))
            if tracer:
                pass_spans.append(tracer.take())
    walls = [wall for wall, _ in passes]
    failed = failures(jobs, passes)

    if trace:
        per_pass = [spans.layer_metrics(s) for s in pass_spans]
        layers = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        layers["trace.wall_s"] = statistics.median(walls)
        metrics = {name: {"value": layers[name], "unit": unit(name)} for name in PER_LAYER}
        with open(run_dir / "spans.json", "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "job", "counts"], "passes": pass_spans}, fh
            )
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        job_scaled = [[speed.scaled(t0, t1) for *_, t0, t1 in res] for _, res in passes]
        scaled = [sum(jobs_s) for jobs_s in job_scaled]
        metrics = {
            "pass_s": {"value": statistics.median(scaled), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }

    attempted = len(jobs) * len(passes)
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "inputs": writer.digests,
        "pass_wall_s": walls,
        "pass_s": None if trace else scaled,
        "job_scaled_s": None if trace else {job.name: [p[k] for p in job_scaled] for k, job in enumerate(jobs)},
        "probe_s": None if trace else statistics.quantiles(speed.times, n=4),
        "job_s": {job.name: [res[k][3] - res[k][2] for _, res in passes] for k, job in enumerate(jobs)},
        "failures": failed,
        "fail_frac": result["failed"] / attempted,
        "result": result,
    }
    with open(run_dir / "record.json", "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "delrank" / "cli.py").is_file():
        print(f"no package to benchmark: {SRC / 'delrank'} is missing", file=sys.stderr)
        return 2

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {record['workload']}, seed {record['seed']}, python {record['python']}, nproc {record['nproc']}")
    for name, digest in record["inputs"].items():
        print(f"input {name} sha256:{digest}")
    for name, times in record["job_s"].items():
        print(f"job {name}: median {statistics.median(times):.4f} s over {len(times)} passes")
    print("pass wall s: " + " ".join(f"{w:.4f}" for w in record["pass_wall_s"]))
    if record["pass_s"]:
        print("pass s at reference speed: " + " ".join(f"{w:.4f}" for w in record["pass_s"]))
        print("probe quartiles s: " + " ".join(f"{q:.6f}" for q in record["probe_s"]))
    for f in record["failures"]:
        print(f"FAILED pass {f['pass']} {f['job']}: {f['why']}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
