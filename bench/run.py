"""endlab's benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload against the checkout's ``src/`` and checks every output.
Load is one closed-loop client: cases run one after another, each in a
child process started from this one, never two children at a time.

Every run sets up by running the golden runs of the CLI tests (the
cli-golden cases), each as a fresh CLI process whose output is compared
byte for byte with ``tests/golden``; start-up dominates them, as it does
for a CLI user.  Then it times one workload (cases in ``cases.py``):

* rigidity-sweep: in-process ``rigidity`` reports on spiral-hull surfaces
  of up to 512 vertices, written at set-up; dense linear algebra and
  operator assembly dominate.
* surface-search: in-process pak-search, check-admissible cycle searches
  and cross-ratio Newton solves; per-dart Python loops dominate.

With ``--trace 0`` one worker child repeats whole passes over the
workload's cases while another fits in ``--seconds`` (at least
``cases.MIN_PASSES``) and the run reports:

* setup_s: time from spawning a fresh CLI process until ``endlab.cli`` is
  imported, the median over the golden runs;
* wall_cal: time to run and check every case of the workload once, in
  units of a fixed calibration run before each case
  (``cases.calibrated_wall``); input generation and the worker's own
  imports are excluded;
* peak_rss_mb: peak resident memory of the worker that ran the cases.

It also prints, outside the result line, wall_s (the same time in
seconds, as measured), fail_ratio (failed over attempted cases, golden
runs included, also given as ``failed``/``attempted``), golden_s (the
golden runs' total time as fresh processes) and, on surface-search,
pak_samples_per_s.

With ``--trace 1`` it makes the traced run instead: an import breakdown of
a fresh child, one untraced in-process pass of the workload, and one
traced in-process pass of the cli-golden cases and of every workload.  It
reports the per-layer metrics of ``layers.py`` and the tracing overhead,
and writes the spans to ``bench/out/<run>/spans.json``.

Every child has BLAS pinned to one thread: on a small shared machine a
second BLAS thread measures the scheduler, not endlab.  The last line of
standard output is the JSON result.  A checkout without ``src/endlab`` or
the golden tests makes the run exit with code 2 before it measures.
"""

from __future__ import annotations

import os

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)  # before numpy loads, here and in every child

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

import cases  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = ("src/endlab/cli.py", "tests/scripts_path.py", "tests/golden")
PY = sys.executable
CHILD_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
CHILD_TIMEOUT = 150.0
#: ``python -m endlab.cli ARGS`` that prints the monotonic clock on
#: standard output once ``endlab.cli`` is imported
CLI_CHILD = ("import sys, time, endlab.cli; "
             "print(time.clock_gettime(time.CLOCK_MONOTONIC), flush=True); "
             "sys.exit(endlab.cli.main(sys.argv[1:]))")


def run_child(argv, log, timeout=CHILD_TIMEOUT, stdout=None):
    """Run a child to completion: (exit code, seconds, peak RSS in KiB).

    Its standard error goes to ``log``, and so does its standard output
    unless ``stdout`` names another file.  The child is killed if it
    outlives ``timeout``.
    """
    with open(log, "wb") as fh, open(stdout or os.devnull, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out if stdout else fh,
                                stderr=fh, env=CHILD_ENV, cwd=ROOT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.waitpid(proc.pid, 0)
            proc.returncode = -9
            raise
        finally:
            killer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss


def import_breakdown(work):
    """Cumulative import seconds per module, from ``-X importtime``."""
    log = work / "importtime.log"
    code, _, _ = run_child([PY, "-X", "importtime", "-c", "import endlab.cli"],
                           log)
    if code != 0:
        raise RuntimeError("importing endlab.cli failed; see %s" % log)
    out = {}
    for line in log.read_text().splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cumulative, name = line.split("|")
            if cumulative.strip().isdigit():
                out.setdefault(name.strip(), int(cumulative) * 1e-6)
    return out


def golden_runs(case_list, work):
    """The golden runs as fresh CLI processes, one after another.

    Returns the seconds from each spawn until ``endlab.cli`` was imported,
    the peak RSS in KiB and the results.
    """
    starts, results, peak = [], [], 0
    (work / "cases").mkdir(exist_ok=True)
    for case in case_list:
        stem = str(work / "cases" / case["name"])
        out, stamp, log = (pathlib.Path(stem + ext)
                           for ext in (".out", ".stamp", ".log"))
        out.unlink(missing_ok=True)
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        code, seconds, rss = run_child(
            [PY, "-c", CLI_CHILD, *case["argv"], "--out", str(out)], log,
            stdout=stamp)
        data = out.read_bytes() if out.exists() else None
        failure = cases.check_output(case, code, data)
        try:
            starts.append(float(stamp.read_text().split()[0]) - t0)
        except (IndexError, ValueError):
            failure = failure or "endlab.cli was not imported"
        results.append({"workload": "cli-golden", "name": case["name"],
                        "seconds": seconds, "failure": failure})
        peak = max(peak, rss)
    return starts, peak, results


def worker_pass(jobs, work, trace=False, seconds=0.0):
    """Run {workload: cases} in one worker child: (result, peak KiB).

    The worker makes one pass, or with ``seconds`` as many as fit in them.
    """
    job, result = work / "job.json", work / "result.json"
    job.write_text(json.dumps({"workloads": jobs, "trace": trace,
                               "out": str(work / "cases"),
                               "seconds": seconds}))
    result.unlink(missing_ok=True)
    code, seconds, rss = run_child([PY, str(HERE / "worker.py"), str(job),
                                    str(result)], work / "worker.log")
    if code != 0 or not result.exists():
        # a worker that died took every case with it
        failure = "worker exited with %s; see %s" % (code, work / "worker.log")
        return {"wall_s": {w: [seconds] for w in jobs}, "trace": None,
                "cases": [{"workload": w, "name": c["name"], "seconds": 0.0,
                           "failure": failure}
                          for w, cs in jobs.items() for c in cs]}, rss
    return json.loads(result.read_text()), rss


def timed_run(workload, case_list, seconds, work):
    starts, golden_peak, golden = golden_runs(cases.cli_golden(), work)
    if not starts:
        raise RuntimeError("no golden run imported endlab.cli; see %s"
                           % (work / "cases"))
    out, peak = worker_pass({workload: case_list}, work, seconds=seconds)
    wall_cal, wall_s = cases.calibrated_wall(out["cases"])
    metrics = {"setup_s": (statistics.median(starts), "s"),
               "wall_cal": (wall_cal, "cal"),
               "peak_rss_mb": (peak / 1024.0, "MB")}
    notes = {"setup_s samples": starts, "wall_s (s)": wall_s,
             "golden_s (s)": sum(r["seconds"] for r in golden),
             "golden peak_rss_mb (MB)": golden_peak / 1024.0,
             "pass wall_s samples": out["wall_s"][workload]}
    pak = [r["seconds"] for r in out["cases"] if r["name"] == "pak-search"]
    if pak:
        notes["pak_samples_per_s (1/s)"] = (cases.PAK_SAMPLES
                                            / statistics.median(pak))
    return metrics, golden + out["cases"], notes


def traced_run(workload, cases_by_workload, work):
    imports = import_breakdown(work)
    plain, _ = worker_pass({workload: cases_by_workload[workload]}, work)
    traced, _ = worker_pass(cases_by_workload, work, trace=True)
    if traced["trace"] is None:
        raise RuntimeError("traced worker failed; see %s" % (work / "worker.log"))
    metrics = layers.metrics(spans.Profile(traced["trace"]), imports)
    plain_wall = plain["wall_s"][workload][0]
    traced_walls = {w: walls[0] for w, walls in traced["wall_s"].items()}
    metrics["trace.overhead_s"] = (traced_walls[workload] - plain_wall, "s")
    notes = {"untraced wall_s": plain_wall, "traced wall_s": traced_walls,
             "moves": layers.MOVES}
    (work / "spans.json").write_text(json.dumps(
        {"workload": workload, "machine": machine(), "notes": notes,
         "metrics": metrics, **traced["trace"]}, indent=1))
    return metrics, plain["cases"] + traced["cases"], notes


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.exists() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def machine():
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu,
            "python": platform.python_version(),
            **{pkg: importlib.metadata.version(pkg)
               for pkg in ("numpy", "scipy", "sympy")},
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_threads": BLAS_PIN,
            "git_commit": git_commit()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        sys.stderr.write("error: not an endlab checkout, missing %s\n"
                         % ", ".join(missing))
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = HERE / "out" / ("%s-seed%d-trace%d" % (args.workload, args.seed,
                                                  args.trace))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = work / "inputs"
    cases.write_inputs(inputs, args.seed)
    if args.trace:
        metrics, results, notes = traced_run(
            args.workload, {w: cases.workload_cases(w, inputs, args.seed)
                            for w in cases.TRACED}, work)
    else:
        metrics, results, notes = timed_run(
            args.workload,
            cases.workload_cases(args.workload, inputs, args.seed),
            args.seconds, work)
    failures = [r for r in results if r["failure"]]
    for r in failures:
        sys.stderr.write("FAILED %s/%s: %s\n" % (r["workload"], r["name"],
                                                r["failure"]))
    print("endlab benchmark: workload %s, seed %d, seconds %g, trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("machine: " + json.dumps(machine()))
    for name, (value, unit) in metrics.items():
        print("%s: %.6g %s" % (name, value, unit))
    print("fail_ratio: %.6g (%d of %d cases failed)"
          % (len(failures) / len(results), len(failures), len(results)))
    for key, value in notes.items():
        print("%s: %s" % (key, json.dumps(value)))
    shutil.rmtree(inputs, ignore_errors=True)
    shutil.rmtree(work / "cases", ignore_errors=True)
    print(json.dumps({"correct": not failures, "attempted": len(results),
                      "failed": len(failures),
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
