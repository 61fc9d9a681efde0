"""The endlab command line.

Subcommands: check-admissible, rigidity, render, pak-search, schlafli,
crossratio.  Exit codes: 0 pass, 1 mathematical violation or undecided
verdict (an indeterminate rank), 2 input or usage error (a usage error of
the parser, or one of the error classes in ``INPUT_ERRORS``), 3 internal
fault (any other ``ValueError``: numpy's ``LinAlgError``, a shape error,
a broken internal invariant).  Reports are line-oriented "key: value" text
with section headers; every report embeds the tool version, format versions,
seed, and tolerances, and identical inputs with identical flags produce
byte-identical output.  Values at rounding level are printed as "<= bound"
sentinels so reruns stay stable.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import FORMAT_VERSIONS, __version__
from . import cellsurf, crossratio, decor, mink, polysurf, rigidity, volume
from .cellsurf import SurfaceFormatError
from .decor import DecorationError
from .mink import GeometryError
from .polysurf import PolyBuildError, UnsupportedGeometry
from .svgout import render_circles

EXIT_PASS, EXIT_VIOLATION, EXIT_USAGE, EXIT_INTERNAL = 0, 1, 2, 3

#: the error classes that mean bad input or a command outside its scope
INPUT_ERRORS = (SurfaceFormatError, PolyBuildError, GeometryError,
                DecorationError, crossratio.CrossRatioError, OSError)

#: pak-search samples drawn and analyzed per array block
PAK_BLOCK = 500


def _fmt(x):
    if x is None:
        return "none"
    if isinstance(x, float):
        if math.isinf(x):
            return "inf"
        return "%.12g" % x
    return str(x)


def _sentinel(x, bound):
    return ("<= %.0e" % bound) if x <= bound else ("%.6g" % x)


class ReportWriter:
    def __init__(self, command, seed=None, tolerances=None):
        self.lines = ["# endlab report",
                      "tool: endlab %s" % __version__,
                      "command: %s" % command,
                      "formats: %s" % ", ".join(
                          FORMAT_VERSIONS[k] for k in sorted(FORMAT_VERSIONS)),
                      "seed: %s" % _fmt(seed)]
        for key, val in (tolerances or {}).items():
            self.lines.append("%s: %s" % (key, _fmt(val)))

    def section(self, name):
        self.lines.append("[%s]" % name)

    def kv(self, key, val):
        self.lines.append("%s: %s" % (key, _fmt(val)))

    def raw(self, line):
        self.lines.append(line)

    def text(self):
        return "\n".join(self.lines) + "\n"


def _emit(args, text):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read(path):
    with open(path) as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# check-admissible


def cmd_check_admissible(args):
    surface = cellsurf.parse_surf(_read(args.files[0]))
    rep = cellsurf.validate_admissible(
        surface, l_max=args.max_cycle,
        simple_cycles_only=not args.all_cycles)
    w = ReportWriter("check-admissible", seed=args.seed,
                     tolerances={"tau-ang": cellsurf.TAU_ANG,
                                 "l-max": args.max_cycle,
                                 "simple-cycles-only":
                                     "off" if args.all_cycles else "on"})
    w.section("FACE-SUMS")
    for f, s in enumerate(rep.face_sums):
        w.kv("face %d" % f, s)
    w.section("CYCLES")
    w.kv("contractible-non-facial-checked", rep.checked_cycles)
    if rep.note:
        w.kv("note", rep.note)
    w.section("VIOLATIONS")
    if rep.violations:
        for v in rep.violations:
            w.raw("violation: " + v.describe())
    else:
        w.kv("violations", "none")
    w.section("VERDICT")
    w.kv("result", "pass (up to l-max)" if rep.passed else "FAIL")
    _emit(args, w.text())
    return EXIT_PASS if rep.passed else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# rigidity


def _spectrum_and_kernel(w, count, spectrum, dim, gap):
    """The SPECTRUM section, relative to the largest singular value, then
    the KERNEL section's dimension and spectral gap.  A spectrum of None
    (the inertia certificate decided the rank) prints the certified lower
    bound on the smallest value instead of the values."""
    w.section("SPECTRUM")
    w.kv("count", count)
    if spectrum is None:
        w.kv("sigma-rel-min", "> %g (a certified lower bound, not a "
             "computed value)" % rigidity.CERTIFIED_FLOOR)
    else:
        smax = spectrum[0] if len(spectrum) else 0.0
        for i, s in enumerate(spectrum):
            rel = s / smax if smax > 0 else 0.0
            w.kv("sigma-rel %d" % i, _sentinel(rel, 1e-13))
    w.section("KERNEL")
    w.kv("dim", dim)
    w.kv("gap", "inf" if math.isinf(gap) else ">= 1e3" if gap >= 1e3
         else "%.3g" % gap)


def cmd_rigidity(args):
    ps = polysurf.parse_poly(_read(args.files[0]))
    w = ReportWriter("rigidity", seed=args.seed,
                     tolerances={"tol-rank": args.tol_rank,
                                 "branch": mink.BRANCH_CONVENTION})
    w.kv("kind", ps.kind)
    try:
        verdict = rigidity.projective_rigidity_verdict(
            ps, tau_rank=args.tol_rank)
    except rigidity.IndeterminateRankError as exc:
        # an undecided verdict, not bad input: report what was measured
        _spectrum_and_kernel(w, len(exc.spectrum), exc.spectrum,
                             "indeterminate", exc.gap)
        w.section("VERDICT")
        w.kv("result", "indeterminate rank")
        _emit(args, w.text())
        return EXIT_VIOLATION
    _spectrum_and_kernel(w, verdict.spectrum_count, verdict.spectrum,
                         verdict.kernel_dim, verdict.gap)
    w.kv("trivial-dim", verdict.trivial_dim)
    w.kv("residual-dim", verdict.residual_dim)
    w.kv("trivial-match-residual", _sentinel(verdict.trivial_match_residual, 1e-12))
    w.section("ADJOINTNESS")
    w.kv("max-residual", _sentinel(verdict.adjointness, 1e-12))
    w.section("DECORATIONS")
    for i, d in enumerate(verdict.decorations):
        w.raw("vector %d: tight=%s oriented-edges=%d outside-coverage=%d "
              "identities=%s"
              % (i, "yes" if d["tight"] else "no", d["oriented_edges"],
                 d["components_outside_coverage"],
                 "ok" if d["identities_hold"] else "BROKEN"))
    w.section("VERDICT")
    if verdict.residual_dim == 0:
        w.kv("kernel", "%d = trivial motions" % verdict.kernel_dim)
        w.kv("result", "rigid modulo trivial motions")
    else:
        w.kv("kernel", "%d (trivial %d, residual %d)"
             % (verdict.kernel_dim, verdict.trivial_dim, verdict.residual_dim))
        w.kv("result", "extra kernel reported")
    for note in verdict.notes:
        w.kv("note", note)
    _emit(args, w.text())
    return EXIT_PASS


# ---------------------------------------------------------------------------
# render


def cmd_render(args):
    ps = polysurf.parse_poly(_read(args.files[0]))
    if ps.kind != polysurf.IDEAL:
        raise UnsupportedGeometry("render needs an ideal surface")
    svg = render_circles(ps.gauss_circles())
    _emit(args, svg)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# pak-search


def cmd_pak_search(args):
    surface = cellsurf.parse_surf(_read(args.files[0]))
    if surface.genus() < 2:
        raise SurfaceFormatError("pak-search needs genus >= 2 (genus %d)"
                                 % surface.genus())
    if not surface.is_quasi_simplicial():
        raise SurfaceFormatError("pak-search needs a triangulation")
    seed = args.seed if args.seed is not None else 0
    rng = np.random.default_rng(seed)
    w = ReportWriter("pak-search", seed=seed,
                     tolerances={"samples": args.samples,
                                 "structured": "on" if args.structured else "off"})

    w.section("RANDOM")
    tight_random = 0
    identities = True
    patterns = {}  # one kept-face pattern table for the run
    for done in range(0, args.samples, PAK_BLOCK):
        states = decor.random_states(surface, rng,
                                     min(PAK_BLOCK, args.samples - done))
        rep = decor.batch_report(surface, states, patterns)
        tight_random += int(np.sum(rep.tight & np.any(states != 0, axis=1)))
        identities = identities and bool(np.all(rep.identities))
    w.kv("samples", args.samples)
    w.kv("tight-nontrivial", tight_random)
    w.kv("counting-identities", "exact" if identities else "BROKEN")

    if args.structured:
        # rows: each single edge forward, each face oriented along its
        # boundary, then the vertex-order orientation
        ne, nf = surface.n_edges, surface.n_faces
        states = np.zeros((ne + nf + 1, ne), dtype=int)
        states[np.arange(ne), np.arange(ne)] = decor.FORWARD
        # one scatter per face position, in cycle order: a face holding
        # both darts of an edge leaves the later one's state, as a walk
        # of the cycle does
        for darts in surface.face_darts.T:
            states[ne + np.arange(nf), darts // 2] = np.where(
                darts % 2 == 0, decor.FORWARD, decor.BACKWARD)
        states[-1] = decor.orient_by_vertex_order(surface).states
        rep = decor.batch_report(surface, states, patterns)
        identities = identities and bool(np.all(rep.identities))
        single = rep.tight[:ne]
        w.section("STRUCTURED")
        w.kv("single-edge tight-by-definition", int(np.sum(single)))
        w.kv("single-edge outside-proof-coverage",
             int(np.sum(single & (rep.outside[:ne] > 0))))
        w.kv("single-triangle tight", int(np.sum(rep.tight[ne:ne + nf])))
        w.kv("vertex-order-orientation tight",
             "yes" if rep.tight[-1] else "no")

    w.section("VERDICT")
    only_flagged = tight_random == 0
    w.kv("random-dense-tight", "none" if only_flagged
         else "%d FOUND" % tight_random)
    if not identities:
        w.kv("result", "counting identities BROKEN")
    elif only_flagged:
        w.kv("result", "only structured tight-by-definition cases")
    else:
        w.kv("result", "unexpected tight decorations")
    _emit(args, w.text())
    return EXIT_PASS if only_flagged and identities else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# schlafli and crossratio


def cmd_schlafli(args):
    w = ReportWriter("schlafli", seed=args.seed,
                     tolerances={"order-window": "[1.8, 2.2]"})
    ok = True
    for name, rep in (
            ("tetrahedron", volume.schlafli_residual_tetrahedron()),
            ("split-octahedron", volume.schlafli_residual_split_octahedron())):
        w.section(name.upper())
        for eps, r in zip(rep.eps, rep.residuals):
            w.kv("residual eps=%s" % _fmt(eps), "%.6g" % r)
        w.kv("order", "%.3f" % rep.order)
        # the split octahedron's sum is 0 exactly: its rounding is a sentinel
        s = rep.schlafli_sum
        w.kv("schlafli-sum", "<= 1e-12" if abs(s) <= 1e-12 else "%.12g" % s)
        w.kv("decoration-shift-change",
             _sentinel(rep.decoration_shift_change, 1e-12))
        ok = ok and rep.order_in(1.8, 2.2) \
            and rep.decoration_shift_change <= 1e-12
    w.section("VERDICT")
    w.kv("result", "pass" if ok else "FAIL")
    _emit(args, w.text())
    return EXIT_PASS if ok else EXIT_VIOLATION


def cmd_crossratio(args):
    ps = polysurf.parse_poly(_read(args.files[0]))
    if ps.kind != polysurf.IDEAL:
        raise UnsupportedGeometry("crossratio needs an ideal surface")
    assignment = crossratio.from_ideal_surface(ps)
    rep = crossratio.vertex_conditions(assignment)
    w = ReportWriter("crossratio", seed=args.seed,
                     tolerances={"tau-cr": crossratio.TAU_CR})
    w.section("VERTEX-CONDITIONS")
    for r in rep.per_vertex:
        if r["status"] != "checked":
            w.kv("vertex %d" % r["vertex"], r["status"])
        else:
            w.kv("vertex %d" % r["vertex"],
                 "product %s sum %s" % (_sentinel(r["product_residual"], 1e-10),
                                        _sentinel(r["sum_residual"], 1e-10)))
    w.section("HOLONOMY")
    worst = 0.0
    for v in range(ps.tri.n_vertices):
        loop = crossratio.vertex_loop_darts(ps.tri, v)
        m = crossratio.holonomy_loop(assignment, loop)
        resid = crossratio.identity_residual(m)
        worst = max(worst, resid)
        w.kv("vertex %d identity-residual" % v, _sentinel(resid, 1e-9))
    w.section("VERDICT")
    ok = rep.passed and worst <= 1e-9
    w.kv("result", "pass" if ok else "FAIL")
    _emit(args, w.text())
    return EXIT_PASS if ok else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# entry point


def _int_at_least(low):
    """argparse type: an int of at least ``low``; below it is a usage error,
    as a non-number is."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                "must be at least %d (got %d)" % (low, value))
        return value
    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


def _rank_cut(text):
    """argparse type of ``--tol-rank``: a finite number strictly between 0
    and 1, the cut sigma / sigma_max below which a singular value counts
    as zero; anything else (nan, inf, 0, 1 or beyond) is a usage error."""
    value = float(text)
    if not 0.0 < value < 1.0:  # false for nan as well
        raise argparse.ArgumentTypeError(
            "must be a finite number in (0, 1) (got %s)" % text)
    return value


_rank_cut.__name__ = "float"  # argparse names the type in its messages


def build_parser():
    p = argparse.ArgumentParser(
        prog="endlab",
        description="Polyhedral surfaces in hyperbolic 3-space: validators, "
                    "rigidity reports, circle patterns.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, files=1):
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", type=str, default=None)
        if files:
            sp.add_argument("files", nargs=files, metavar="FILE")

    sp = sub.add_parser("check-admissible",
                        help="face sums and short contractible cycles")
    common(sp)
    sp.add_argument("--max-cycle", type=_int_at_least(1),
                    default=cellsurf.DEFAULT_L_MAX)
    sp.add_argument("--all-cycles", action="store_true",
                    help="also search cycles with repeated vertices")
    sp.add_argument("--fixture-labels", action="store_true",
                    help="accepted and ignored: contractibility on genus >= 2 "
                    "comes from the surface's own cells")

    sp = sub.add_parser("rigidity", help="operator spectra and kernels")
    common(sp)
    sp.add_argument("--tol-rank", type=_rank_cut, default=rigidity.TAU_RANK)

    sp = sub.add_parser("render", help="SVG of the Gauss-map circle pattern")
    common(sp)

    sp = sub.add_parser("pak-search", help="sample decorations for tightness")
    common(sp)
    sp.add_argument("--samples", type=_int_at_least(0), default=1000)
    sp.add_argument("--structured", action="store_true")

    sp = sub.add_parser("schlafli", help="finite-difference volume checks")
    common(sp, files=0)

    sp = sub.add_parser("crossratio", help="vertex conditions and holonomy")
    common(sp)
    return p


@functools.cache
def _parser():
    """The :func:`build_parser` parser, built on the first call in a process
    and reused by every later :func:`main`: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    # the handler is looked up at each call, so a cached parser reaches a
    # cmd_* function rebound since (a wrapper, a monkeypatch) or restored
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except INPUT_ERRORS as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE
    except ValueError as exc:  # LinAlgError included: a fault, not bad input
        sys.stderr.write("internal error: %s\n" % exc)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
