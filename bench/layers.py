"""Per-layer metrics of the traced run, and the end-to-end metric each moves.

The traced run runs the in-process cases of every workload once under
``spans.Tracer``; every per-layer metric is a total over that run.  A
metric named after a function, ``<module>.<function>_s``, is the time
inside that function's spans, nested calls counted once; ``<module>.self_s``
is the layer's self time, its spans less their child spans; ``_calls`` and
the other counts repeat exactly for a given seed.
"""

from __future__ import annotations

import cases

MODULES = ("cli", "polysurf", "rigidity", "cellsurf", "surfgroup", "decor",
           "crossratio", "volume", "mink", "svgout")

RIGIDITY_OPERATORS = ("rigidity.length_variation_operator",
                      "rigidity.angle_motion_operator",
                      "rigidity.decorated_length_variation_operator",
                      "rigidity.ideal_angle_variation_operator")
#: spans inside operator assembly that are factorisation or links, not assembly
NOT_ASSEMBLY = ("numpy.linalg.svd", "rigidity.zero_sum_basis",
                "polysurf.PolySurface.links")

CLI_GOLDEN = "golden_s (printed by every run, not bounded)"
RIGIDITY = "wall_cal on rigidity-sweep"
SEARCH = "wall_cal on surface-search"

#: layer -> the end-to-end metrics its per-layer metrics should move
MOVES = {
    "import": "setup_s and golden_s on every workload",
    "cli": CLI_GOLDEN + ", the compute left after start-up",
    "polysurf": RIGIDITY,
    "rigidity": RIGIDITY + " and peak_rss_mb on rigidity-sweep; "
                "zero_sum_basis_* on the ideal cases only",
    "cellsurf": SEARCH + " (cycles); " + RIGIDITY + " (vertex_star)",
    "surfgroup": SEARCH,
    "decor": "pak_samples_per_s (printed by surface-search) and " + SEARCH
             + "; " + RIGIDITY,
    "crossratio": SEARCH,
    "volume": CLI_GOLDEN + " (small); its scipy.special import feeds setup_s",
    "mink": RIGIDITY,
    "svgout": CLI_GOLDEN + " (small)",
    "trace": "none: the cost of tracing, traced minus untraced seconds",
}


def _ratio(num, den):
    return num / den if den else 0.0


def metrics(profile, imports):
    """{name: (value, unit)} of every per-layer metric.

    ``profile`` is a ``spans.Profile`` of the traced run and ``imports`` the
    import breakdown of a fresh child, {module: cumulative seconds}.
    """
    p = profile
    out = {
        "import.total_s": (imports["endlab.cli"], "s"),
        "import.sympy_s": (imports["sympy"], "s"),
        "import.scipy_special_s": (imports["scipy.special"], "s"),
        "import.numpy_s": (imports["numpy"], "s"),
    }
    for case in cases.cli_golden():
        out["cli.case_s." + case["name"]] = (
            p.inclusive("case:cli-golden:" + case["name"]), "s")
    out.update({
        "polysurf.parse_poly_s": (p.inclusive("polysurf.parse_poly"), "s"),
        "polysurf.build_s": (p.inclusive("polysurf.PolySurface.__init__"), "s"),
        "polysurf.links_s": (p.inclusive("polysurf.PolySurface.links"), "s"),
        "polysurf.decoration_from_deformation_s": (p.inclusive(
            "polysurf.PolySurface.decoration_from_deformation"), "s"),
        "polysurf.face_svd_calls": (p.svd("polysurf")[1], "count"),
    })
    for kind, n in cases.RIGIDITY_SIZES:
        name = "%s-%d" % (kind, n)
        out["rigidity.verdict_s." + name] = (p.inclusive(
            "rigidity.projective_rigidity_verdict",
            within="case:rigidity-sweep:" + name), "s")
    svd_s, svd_calls = p.svd("rigidity")
    out.update({
        "rigidity.operator_assembly_s": (
            p.exclusive(RIGIDITY_OPERATORS, NOT_ASSEMBLY), "s"),
        "rigidity.svd_s": (svd_s, "s"),
        "rigidity.svd_calls": (svd_calls, "count"),
        "rigidity.zero_sum_basis_s": (p.inclusive("rigidity.zero_sum_basis"), "s"),
        "rigidity.zero_sum_basis_calls": (p.calls("rigidity.zero_sum_basis"),
                                          "count"),
        "rigidity.trivial_motion_basis_s": (
            p.inclusive("rigidity.trivial_motion_basis"), "s"),
        "rigidity.adjointness_residual_s": (
            p.inclusive("rigidity.adjointness_residual"), "s"),
        "rigidity.kernel_vector_as_deformation_s": (
            p.inclusive("rigidity.kernel_vector_as_deformation"), "s"),
    })
    enumerated = p.counters["cellsurf.cycles_enumerated"]
    checked = p.counters["cellsurf.cycles_checked"]
    out.update({
        "cellsurf.parse_surf_s": (p.inclusive("cellsurf.parse_surf"), "s"),
        "cellsurf.validate_admissible_s": (
            p.inclusive("cellsurf.validate_admissible"), "s"),
        "cellsurf.simple_cycles_upto_s": (
            p.inclusive("cellsurf.simple_cycles_upto"), "s"),
        "cellsurf.closed_trails_upto_s": (
            p.inclusive("cellsurf.closed_trails_upto"), "s"),
        "cellsurf.cycles_enumerated": (enumerated, "count"),
        "cellsurf.cycles_checked": (checked, "count"),
        "cellsurf.cycle_useful_ratio": (_ratio(checked, enumerated), "ratio"),
        "cellsurf.vertex_star_calls": (
            p.calls("cellsurf.CellSurface.vertex_star"), "count"),
        "cellsurf.vertex_star_s": (
            p.inclusive("cellsurf.CellSurface.vertex_star"), "s"),
        "surfgroup.cycle_is_contractible_s": (
            p.inclusive("surfgroup.Genus2Presentation.cycle_is_contractible"),
            "s"),
        "surfgroup.dehn_reduce_calls": (
            p.calls("surfgroup.SurfaceGroupPresentation.dehn_reduce"), "count"),
        "decor.random_decoration_s": (p.inclusive("decor.random_decoration"),
                                      "s"),
        "decor.is_tight_s": (p.inclusive("decor.is_tight"), "s"),
        "decor.pak_report_s": (p.inclusive("decor.pak_report"), "s"),
        "decor.corner_value_calls": (p.calls("decor.corner_value"), "count"),
        "decor.tight_ratio": (_ratio(p.counters["decor.tight"],
                                     p.calls("decor.is_tight")), "ratio"),
        "crossratio.solve_vertex_conditions_s": (
            p.inclusive("crossratio.solve_vertex_conditions"), "s"),
        "crossratio.newton_iterations": (
            p.counters["crossratio.newton_iterations"], "count"),
        "crossratio.vertex_conditions_s": (
            p.inclusive("crossratio.vertex_conditions"), "s"),
        "volume.schlafli_s": (p.inclusive(
            "volume.schlafli_residual_tetrahedron",
            "volume.schlafli_residual_split_octahedron"), "s"),
        "volume.lobachevsky_calls": (p.calls("volume.lobachevsky"), "count"),
        "mink.mdot_calls": (p.calls("mink.mdot"), "count"),
    })
    for module in MODULES:
        out[module + ".self_s"] = (p.self_time(module), "s")
    return out
