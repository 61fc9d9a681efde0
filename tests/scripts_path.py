"""Golden locations and the golden run list, the one copy shared by the CLI
tests, ``scripts/regenerate_goldens.py`` and the benchmark; and the loader
of the benchmark's spiral-hull inputs for the tests."""

import importlib.util
import pathlib

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
INPUTS = GOLDEN / "inputs"

RUNS = [
    ("check_admissible_pattern.txt", 0,
     ["check-admissible", str(INPUTS / "pattern.surf")]),
    ("check_admissible_bad.txt", 1,
     ["check-admissible", str(INPUTS / "pattern_bad.surf")]),
    ("check_admissible_genus2.txt", 0,
     ["check-admissible", str(INPUTS / "genus2_uniform.surf")]),
    ("rigidity_octahedron.txt", 0,
     ["rigidity", "--seed", "7", str(INPUTS / "octahedron.poly")]),
    ("rigidity_compact_tetrahedron.txt", 0,
     ["rigidity", "--seed", "7", str(INPUTS / "tetrahedron_compact.poly")]),
    ("render_octahedron.svg", 0,
     ["render", str(INPUTS / "octahedron.poly")]),
    ("render_tetrahedron.svg", 0,
     ["render", str(INPUTS / "tetrahedron_ideal.poly")]),
    ("pak_search_genus2.txt", 0,
     ["pak-search", "--seed", "7", "--samples", "1000", "--structured",
      str(INPUTS / "genus2_uniform.surf")]),
    ("schlafli.txt", 0, ["schlafli"]),
    ("crossratio_octahedron.txt", 0,
     ["crossratio", str(INPUTS / "octahedron.poly")]),
]


def spiral_module():
    """bench/spiral.py, the benchmark's spiral-hull inputs."""
    path = HERE.parent / "bench" / "spiral.py"
    spec = importlib.util.spec_from_file_location("spiral", path)
    spiral = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spiral)
    return spiral
