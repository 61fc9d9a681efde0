#!/usr/bin/env python3
"""Synthetic genus-2 cross-ratio solutions and their handle holonomies.

Solves the vertex polynomial conditions on the coned-octagon fixture from
seeded starts of increasing shear spread and prints the holonomy traces of
a handle loop, illustrating the transition from elliptic to hyperbolic
holonomy away from the symmetric point.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from endlab import crossratio, fixtures  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, nargs="*", default=[1, 2, 7])
    ap.add_argument("--spreads", type=float, nargs="*",
                    default=[0.1, 0.5, 1.0])
    args = ap.parse_args()
    surface = fixtures.genus2_surface()
    # a handle loop: out along one cone edge from the octagon's center to a
    # trisection vertex and back along the other (the vertex has two copies
    # on the octagon's boundary)
    e1, e2 = [e for e, uv in enumerate(surface.edges) if uv == (0, 1)]
    loop = [2 * e1, 2 * e2 + 1]
    for seed in args.seeds:
        for spread in args.spreads:
            res = crossratio.solve_vertex_conditions(
                surface, seed=seed, spread=spread)
            if not res.converged:
                print("seed %d spread %.2f: no convergence "
                      "(residual %.2e after %d iterations)"
                      % (seed, spread, res.residual, res.iterations))
                continue
            rep = crossratio.vertex_conditions(res.assignment)
            tr = crossratio.holonomy_trace(res.assignment, loop)
            kind = "hyperbolic" if tr > 2 else "elliptic/parabolic"
            print("seed %d spread %.2f: converged in %d iterations, "
                  "conditions %s, handle |trace| %.4f (%s)"
                  % (seed, spread, res.iterations,
                     "pass" if rep.passed else "FAIL", tr, kind))


if __name__ == "__main__":
    main()
