#!/usr/bin/env python3
"""Regenerate CLI golden inputs and outputs under tests/golden/.

Run from the repository root after an intentional output-format change:

    python3 scripts/regenerate_goldens.py
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from endlab import cellsurf, fixtures, polysurf  # noqa: E402
from endlab.cli import main  # noqa: E402
from scripts_path import GOLDEN, INPUTS, RUNS  # noqa: E402


def write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    print("wrote", path.relative_to(ROOT))


def build_inputs():
    pat = cellsurf.thurston_pattern(fixtures.tetrahedron_surface())
    write(INPUTS / "pattern.surf", cellsurf.serialize_surf(pat))
    theta = pat.theta.copy()
    theta[0] += 0.1
    write(INPUTS / "pattern_bad.surf",
          cellsurf.serialize_surf(pat.with_theta(theta)))
    write(INPUTS / "octahedron.poly",
          polysurf.serialize_poly(fixtures.ideal_octahedron()))
    write(INPUTS / "tetrahedron_ideal.poly",
          polysurf.serialize_poly(fixtures.ideal_tetrahedron()))
    write(INPUTS / "tetrahedron_compact.poly",
          polysurf.serialize_poly(fixtures.compact_tetrahedron(1.0)))
    write(INPUTS / "genus2_uniform.surf",
          cellsurf.serialize_surf(fixtures.genus2_surface().with_theta(
              fixtures.genus2_theta_uniform())))


def build_outputs():
    for name, expect_code, argv in RUNS:
        out = GOLDEN / name
        out.parent.mkdir(parents=True, exist_ok=True)
        code = main(argv + ["--out", str(out)])
        if code != expect_code:
            raise SystemExit("golden run %s exited %d (expected %d)"
                             % (name, code, expect_code))
        print("wrote", out.relative_to(ROOT))


if __name__ == "__main__":
    build_inputs()
    build_outputs()
