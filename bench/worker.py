"""Run benchmark cases in-process, in a fresh interpreter.

    python3 bench/worker.py JOB RESULT

JOB is a JSON file {"workloads": {name: [case, ...]}, "trace": bool,
"out": directory for case outputs, "seconds": float}.  The worker imports
endlab from the checkout's ``src`` and runs passes over every case of
every workload, in order: one pass when ``seconds`` is 0, else as many as
``cases.another_pass`` allows, with a ``calibration`` before each case.
It writes RESULT: the wall time of each workload in each pass (imports
excluded), each case's time, calibration time and failure (null when it
passed) and, when traced, the span tree.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time
import traceback

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from endlab import cellsurf, cli, crossratio  # noqa: E402

import cases  # noqa: E402
import spans  # noqa: E402

CALIBRATION_MATRIX = np.random.default_rng(0).standard_normal((250, 250))


def calibration():
    """Seconds taken by a fixed mix of work that runs no endlab code.

    A dict loop, a loop of small numpy operations and a dense SVD, about
    60 ms in all: the kinds of work the workloads do, so a slower machine
    slows it as it slows them.
    """
    t0 = time.perf_counter()
    counts = {}
    for i in range(80000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    v = np.ones(64)
    for _ in range(12000):
        v = v * 1.0001 + 0.5
    np.linalg.svd(CALIBRATION_MATRIX)
    return time.perf_counter() - t0


def run_case(case, out_dir):
    """None when the case passes, else the reason it failed."""
    if case["kind"] == "solve":
        surf = cellsurf.parse_surf(pathlib.Path(case["surf"]).read_text())
        res = crossratio.solve_vertex_conditions(
            surf, seed=case["seed"], spread=case["spread"])
        if not res.converged:
            return "no convergence: residual %.3g after %d iterations" % (
                res.residual, res.iterations)
        if not crossratio.vertex_conditions(res.assignment).passed:
            return "solution fails the vertex conditions"
        return None
    out = out_dir / (case["name"] + ".out")
    out.unlink(missing_ok=True)
    code = cli.main(case["argv"] + ["--out", str(out)])
    data = out.read_bytes() if out.exists() else None
    return cases.check_output(case, code, data)


def guarded(case, out_dir):
    try:
        return run_case(case, out_dir)
    except Exception:  # a crash is a failed case, reported with its traceback
        return traceback.format_exc()


def main(job_path, result_path):
    job = json.loads(pathlib.Path(job_path).read_text())
    out_dir = pathlib.Path(job["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if job["trace"] else None
    if tracer:
        tracer.install()
    walls = {workload: [] for workload in job["workloads"]}
    pass_walls, results = [], []
    clock = time.perf_counter
    t_run = clock()
    while not pass_walls or job["seconds"] and cases.another_pass(
            pass_walls, clock() - t_run, job["seconds"]):
        t_pass = clock()
        for workload, case_list in job["workloads"].items():
            t_start = clock()
            for case in case_list:
                calib = calibration() if job["seconds"] else None
                t0 = clock()
                if tracer:
                    failure = tracer.span(
                        "case:%s:%s" % (workload, case["name"]),
                        guarded, case, out_dir)
                else:
                    failure = guarded(case, out_dir)
                results.append({"workload": workload, "name": case["name"],
                                "seconds": clock() - t0, "calib_s": calib,
                                "failure": failure})
            walls[workload].append(clock() - t_start)
        pass_walls.append(clock() - t_pass)
    if tracer:
        tracer.uninstall()
    pathlib.Path(result_path).write_text(json.dumps({
        "wall_s": walls, "cases": results,
        "trace": tracer.dump() if tracer else None}))


if __name__ == "__main__":
    main(*sys.argv[1:])
