"""The benchmark's workloads as lists of cases, and the check of each case.

A case is a plain dict, so the harness can hand it to a worker process:

* ``kind`` "cli": run ``endlab <argv> --out PATH``; the exit code must be
  ``code`` and the output must equal the bytes of ``golden``, or contain
  every line of ``lines``;
* ``kind`` "solve": a ``crossratio.solve_vertex_conditions`` run on the
  surface file ``surf`` from ``seed``; it must converge and its assignment
  must pass ``vertex_conditions``.
"""

from __future__ import annotations

import pathlib
import statistics
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
GENUS2 = ROOT / "tests" / "golden" / "inputs" / "genus2_uniform.surf"

#: the timed workloads; every run also makes the cli-golden runs at set-up
WORKLOADS = ("rigidity-sweep", "surface-search")
#: the case sets of the traced run
TRACED = ("cli-golden",) + WORKLOADS

RIGIDITY_SIZES = (("compact", 8), ("compact", 32), ("compact", 128),
                  ("compact", 512), ("hyper", 32), ("hyper", 128),
                  ("ideal", 8), ("ideal", 32), ("ideal", 80))
RIGID_LINES = ("dim: 6", "residual-dim: 0", "trivial-match-residual: <= 1e-12",
               "max-residual: <= 1e-12", "result: rigid modulo trivial motions")

PAK_SAMPLES = 10000
#: (pattern size, contractible non-facial cycles of length <= 8); the
#: spiral hull combinatorics, hence the count, do not depend on the seed
PATTERNS = ((128, 4410), (512, 18138))
PATTERN_L_MAX = 8
#: checked-cycle counts of the genus-2 fixture at the default l-max
GENUS2_CHECKED = {"simple": 48, "all-cycles": 0}
NEWTON_SOLVES = 8
#: at spread 0.5, 5 of 320 seeded starts did not converge in 200 iterations;
#: at 0.3 all of 400 converged, in 6 to 10 iterations
NEWTON_SPREAD = 0.3

#: a timed run makes at least this many passes over its cases
MIN_PASSES = 2


def another_pass(pass_walls, elapsed, seconds):
    """Whether a timed run starts another pass over its cases.

    ``pass_walls`` are the times of the passes made so far and ``elapsed``
    the time since the first began.  After ``MIN_PASSES`` passes, another
    starts only if one as slow as the slowest so far ends within
    ``seconds``, so a run overshoots its time only for its first passes.
    """
    if len(pass_walls) < MIN_PASSES:
        return True
    return elapsed + max(pass_walls) <= seconds


def calibrated_wall(results):
    """(wall_cal, wall_s) of a timed run's passing cases.

    wall_s sums over the cases each case's median time in seconds;
    wall_cal divides it by the mean time of the calibrations made in the
    run, one before each case.  On a small shared machine the speed a
    process gets can drift by a fifth over minutes; the calibration's speed
    drifts with it, so dividing by it takes most of that drift out of
    wall_cal, at the cost of the calibration's own noise of a few percent.
    """
    passed = [r for r in results if not r["failure"]]
    if not passed:
        return 0.0, 0.0
    seconds = {}
    for r in passed:
        seconds.setdefault(r["name"], []).append(r["seconds"])
    wall_s = sum(statistics.median(v) for v in seconds.values())
    return wall_s / statistics.fmean(r["calib_s"] for r in passed), wall_s


def cli_golden():
    """The golden runs, from the run list the CLI tests use."""
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        from scripts_path import GOLDEN, RUNS
    finally:
        sys.path.pop(0)
    return [{"kind": "cli", "name": name.rsplit(".", 1)[0], "argv": argv,
             "code": code, "golden": str(GOLDEN / name)}
            for name, code, argv in RUNS]


def input_files(inputs):
    """(name, family, n, path) of every generated input."""
    out = [("%s-%d" % (kind, n), kind, n, inputs / ("%s-%d.poly" % (kind, n)))
           for kind, n in RIGIDITY_SIZES]
    out += [("pattern-%d" % n, "pattern", n, inputs / ("pattern-%d.surf" % n))
            for n, _ in PATTERNS]
    return out


def write_inputs(inputs, seed):
    """Write the spiral-hull inputs of this seed; each is strictly built."""
    import spiral
    inputs.mkdir(parents=True, exist_ok=True)
    for i, (_, kind, n, path) in enumerate(input_files(inputs)):
        rng = np.random.default_rng([seed, i])
        path.write_text(spiral.serialize(kind, spiral.build(kind, n, rng)))


def rigidity_sweep(inputs, seed):
    return [{"kind": "cli", "name": name, "code": 0, "lines": RIGID_LINES,
             "argv": ["rigidity", "--seed", str(seed), str(path)]}
            for name, kind, _, path in input_files(inputs)
            if kind != "pattern"]


def surface_search(inputs, seed):
    out = [{"kind": "cli", "name": "pak-search", "code": 0,
            "lines": ("counting-identities: exact",),
            "argv": ["pak-search", "--structured", "--samples",
                     str(PAK_SAMPLES), "--seed", str(seed), str(GENUS2)]}]
    for mode, count in GENUS2_CHECKED.items():
        flags = ["--all-cycles"] if mode == "all-cycles" else []
        out.append({
            "kind": "cli", "name": "genus2-" + mode, "code": 0,
            "lines": ("contractible-non-facial-checked: %d" % count,
                      "result: pass (up to l-max)"),
            "argv": ["check-admissible", "--fixture-labels", *flags,
                     str(GENUS2)]})
    paths = {n: p for _, kind, n, p in input_files(inputs)
             if kind == "pattern"}
    for n, count in PATTERNS:
        out.append({
            "kind": "cli", "name": "pattern-%d" % n, "code": 0,
            "lines": ("contractible-non-facial-checked: %d" % count,
                      "result: pass (up to l-max)"),
            "argv": ["check-admissible", "--max-cycle", str(PATTERN_L_MAX),
                     str(paths[n])]})
    seeds = np.random.default_rng(seed).integers(0, 2**31, NEWTON_SOLVES)
    out += [{"kind": "solve", "name": "newton-%d" % i, "surf": str(GENUS2),
             "seed": int(s), "spread": NEWTON_SPREAD}
            for i, s in enumerate(seeds)]
    return out


def workload_cases(workload, inputs, seed):
    if workload == "cli-golden":
        return cli_golden()
    if workload == "rigidity-sweep":
        return rigidity_sweep(inputs, seed)
    if workload == "surface-search":
        return surface_search(inputs, seed)
    raise ValueError("unknown workload %r" % workload)


def check_output(case, code, data):
    """None when a cli case's exit code and output are right, else why not."""
    if code != case["code"]:
        return "exit code %s, expected %d" % (code, case["code"])
    if data is None:
        return "no output written"
    if "golden" in case:
        with open(case["golden"], "rb") as fh:
            if data != fh.read():
                return "output differs from %s" % case["golden"]
        return None
    lines = set(data.decode().splitlines())
    missing = [ln for ln in case["lines"] if ln not in lines]
    return "missing lines %s" % missing if missing else None
