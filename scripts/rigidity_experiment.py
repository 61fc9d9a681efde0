#!/usr/bin/env python3
"""Kernel statistics of the length-variation operators over seeded fixtures.

Sweeps the random convex compact and random decorated ideal families,
printing kernel dimension, spectral gap, trivial-motion match, and
adjointness residual per seed.  A degenerate (flat-vertex) fixture is
included to show a kernel above the trivial dimension.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from endlab import fixtures, rigidity  # noqa: E402


def survey(name, fixture_fn, seeds):
    print("==", name)
    for seed in seeds:
        ps = fixture_fn(seed)
        v = rigidity.projective_rigidity_verdict(ps)
        gap = "inf" if v.gap == float("inf") else "%.2e" % v.gap
        print("seed %3d: kernel %d (trivial %d, residual %d) gap %s "
              "match %.2e adjoint %.2e"
              % (seed, v.kernel_dim, v.trivial_dim, v.residual_dim, gap,
                 v.trivial_match_residual, v.adjointness))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--vertices", type=int, default=8)
    args = ap.parse_args()
    seeds = range(args.seeds)
    survey("random convex compact",
           lambda s: fixtures.random_convex_compact(s, args.vertices), seeds)
    survey("random decorated ideal",
           lambda s: fixtures.random_ideal(s, args.vertices), seeds)
    print("== degenerate flat-vertex fixture")
    v = rigidity.projective_rigidity_verdict(fixtures.flat_vertex_pyramid())
    print("kernel %d (trivial %d, residual %d): the flat vertex contributes "
          "an extra length-preserving motion" %
          (v.kernel_dim, v.trivial_dim, v.residual_dim))


if __name__ == "__main__":
    main()
