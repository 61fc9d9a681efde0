"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import pathlib
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import cases  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import spiral  # noqa: E402
from endlab import cellsurf, decor, polysurf, rigidity  # noqa: E402

FAMILIES = [(kind, n) for kind, n in cases.RIGIDITY_SIZES] + [
    ("pattern", n) for n, _ in cases.PATTERNS]


@pytest.mark.parametrize("kind,n", FAMILIES)
def test_spiral_family_builds_strictly(kind, n):
    for seed in (0, 1):
        text = spiral.serialize(kind, spiral.build(
            kind, n, np.random.default_rng(seed)))
        if kind == "pattern":
            surface = cellsurf.parse_surf(text)
            assert surface.n_vertices == 3 * n - 4
            assert all(len(c) == 4 for c in surface.face_cycles)
        else:
            # parse_poly rebuilds with the strict planarity and convexity checks
            ps = polysurf.parse_poly(text)
            assert ps.strict and ps.kind == kind
            surface = ps.base
            assert surface.n_vertices == n and surface.is_quasi_simplicial()
        assert surface.genus() == 0
    again = spiral.serialize(kind, spiral.build(
        kind, n, np.random.default_rng(1)))
    assert again == text


def test_hyper_edges_cross_h3():
    ps = spiral.build("hyper", 128, None)
    pairings = [float(ps.vectors[a] @ np.diag([1, 1, 1, -1]) @ ps.vectors[b])
                for a, b in ps.base.edges]
    assert max(pairings) <= -spiral.HYPER_EDGE_PAIRING + 1e-9


def _corrupted(tmp_path, name):
    original = pathlib.Path(name).read_bytes()
    bad = tmp_path / "corrupted.txt"
    bad.write_bytes(original[:-2] + bytes([original[-2] ^ 1]) + original[-1:])
    return str(bad)


def test_corrupted_golden_raises_fail_ratio(tmp_path):
    good, corrupted = [c for c in cases.cli_golden()
                       if c["name"] in ("schlafli", "render_octahedron")]
    corrupted = dict(corrupted, golden=_corrupted(tmp_path, corrupted["golden"]))
    starts, _, results = run.golden_runs([good, corrupted], tmp_path)
    assert len(starts) == 2 and all(0 < s < 60 for s in starts)
    assert [r["name"] for r in results] == [good["name"], corrupted["name"]]
    assert results[0]["failure"] is None
    assert "differs" in results[1]["failure"]
    assert sum(bool(r["failure"]) for r in results) / len(results) > 0


def test_worker_reports_wrong_lines_and_crashes(tmp_path):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    path = inputs / "compact-8.poly"
    path.write_text(spiral.serialize("compact", spiral.build(
        "compact", 8, np.random.default_rng(0))))
    argv = ["rigidity", "--seed", "0", str(path)]
    jobs = {"rigidity-sweep": [
        {"kind": "cli", "name": "ok", "code": 0, "lines": cases.RIGID_LINES,
         "argv": argv},
        {"kind": "cli", "name": "wrong-line", "code": 0, "lines": ["dim: 7"],
         "argv": argv},
        {"kind": "cli", "name": "bad-input", "code": 0, "lines": [],
         "argv": ["rigidity", str(tmp_path / "missing.poly")]},
        {"kind": "solve", "name": "crash", "surf": str(tmp_path / "missing"),
         "seed": 0, "spread": 0.5}]}
    out, peak = run.worker_pass(jobs, tmp_path)
    failures = {r["name"]: r["failure"] for r in out["cases"]}
    assert failures["ok"] is None
    assert "missing lines" in failures["wrong-line"]
    assert "exit code 2" in failures["bad-input"]
    assert "FileNotFoundError" in failures["crash"]
    assert peak > 0


def test_tracer_wraps_every_binding_and_restores():
    original = decor.pak_report
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert rigidity.pak_report is decor.pak_report is not original
        surface = cellsurf.parse_surf(cases.GENUS2.read_text())
        dec = decor.random_decoration(surface, np.random.default_rng(0))
        tracer.span("case:test", decor.pak_report, dec)
    finally:
        tracer.uninstall()
    assert decor.pak_report is original and rigidity.pak_report is original
    profile = spans.Profile(tracer.dump())
    case = next(r for r in profile.roots if r["name"] == "case:test")
    assert case["count"] == 1
    children = sum(c["total_s"] for c in case["children"])
    assert case["self_s"] == pytest.approx(case["total_s"] - children)
    assert profile.calls("decor.pak_report") == 1
    assert profile.calls("decor.corner_value") == surface.n_darts


def test_layer_metrics_match_benchmark_json():
    tracer = spans.Tracer()
    profile = spans.Profile(tracer.dump())
    imports = {m: 0.0 for m in ("endlab.cli", "sympy", "scipy.special", "numpy")}
    names = {n: unit for n, (_, unit) in layers.metrics(profile, imports).items()}
    names["trace.overhead_s"] = "s"
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == names
    assert [w["name"] for w in declared["workloads"]] == list(cases.WORKLOADS)


def test_passes_fit_the_run_and_wall_is_calibrated_per_pass():
    assert cases.another_pass([], 0.0, 1.0)
    assert cases.another_pass([5.0] * (cases.MIN_PASSES - 1), 99.0, 1.0)
    walls = [10.0] * cases.MIN_PASSES
    assert cases.another_pass(walls, sum(walls), sum(walls) + 10.0)
    assert not cases.another_pass(walls, sum(walls), sum(walls) + 9.9)
    # the machine ran at half speed in the second pass
    results = [{"name": n, "seconds": s * (1 + p),
                "calib_s": c * (1 + p), "failure": None}
               for p in (0, 1)
               for n, s, c in (("a", 2.0, 0.01), ("b", 5.0, 0.03))]
    results.append({"name": "a", "seconds": 0.0, "calib_s": 1.0,
                    "failure": "crash"})
    wall_cal, wall_s = cases.calibrated_wall(results)
    assert wall_cal == pytest.approx((3.0 + 7.5) / 0.03)
    assert wall_s == pytest.approx(3.0 + 7.5)
