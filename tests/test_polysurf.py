import math
import random
import re

import numpy as np
import pytest

from endlab import fixtures, mink, polysurf
from endlab.cellsurf import SurfaceFormatError, from_face_vertex_lists
from endlab.decor import BACKWARD, FORWARD
from endlab.mink import mdot
from endlab.polysurf import (PolyBuildError, PolySurface, UnsupportedGeometry,
                             VertexGeom, compact_point, hyper_point,
                             ideal_point, parse_poly, serialize_poly)
from scripts_path import spiral_module  # see conftest
from test_cellsurf import both_readers


def test_octahedron_builds_right_angles():
    oc = fixtures.ideal_octahedron()
    assert np.allclose(oc.dihedral_angles(), math.pi / 2, atol=1e-12)


def test_octahedron_rescale_adds_to_incident_edges():
    t = 0.41
    base = fixtures.ideal_octahedron()
    scaled = fixtures.ideal_octahedron(scales=[t, 0, 0, 0, 0, 0])
    l0 = base.edge_lengths()
    l1 = scaled.edge_lengths()
    for e, (u, v) in enumerate(base.tri.edges):
        expect = l0[e] + (t if 0 in (u, v) else 0.0)
        assert abs(l1[e] - expect) < 1e-12


def test_ideal_tetrahedron_angles():
    tet = fixtures.ideal_tetrahedron()
    interior = math.pi - tet.dihedral_angles()
    assert np.allclose(interior, math.pi / 3, atol=1e-10)
    # generic shape: interior angles are arg z, arg 1/(1-z), arg (z-1)/z
    z = 0.9 + 1.2j
    tet2 = fixtures.ideal_tetrahedron(z)
    interior2 = sorted(math.pi - a for a in tet2.dihedral_angles())
    expected = sorted([np.angle(z), np.angle(1 / (1 - z)),
                       np.angle((z - 1) / z)] * 2)
    assert np.allclose(interior2, expected, atol=1e-10)


def test_compact_tetrahedron_gram_oracle():
    r = 1.0
    ct = fixtures.compact_tetrahedron(r)
    # independent Gram computation: cosh l = cosh^2 r - sinh^2 r cos(angle),
    # regular tetrahedron directions have pairwise cosine -1/3
    expect = math.acosh(math.cosh(r) ** 2 + math.sinh(r) ** 2 / 3.0)
    assert np.allclose(ct.edge_lengths(), expect, atol=1e-12)


def test_hyperideal_truncated_length():
    ht = fixtures.hyperideal_tetrahedron(k=2.0)
    # adjacent vertices pair to -(k^2/3 + k^2 - 1) = -13/3
    assert np.allclose(ht.edge_lengths(), math.acosh(13.0 / 3.0), atol=1e-12)


def double_pyramid(h_top, h_bot=-0.8, rho=0.9, strict=True):
    pts = []
    for i in range(4):
        phi = 2 * math.pi * i / 4
        pts.append(np.array([math.sinh(rho) * math.cos(phi),
                             math.sinh(rho) * math.sin(phi), 0.0,
                             math.cosh(rho)]))
    pts.append(np.array([0.0, 0.0, math.sinh(h_top), math.cosh(h_top)]))
    pts.append(np.array([0.0, 0.0, math.sinh(h_bot), math.cosh(h_bot)]))
    faces = [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4],
             [1, 0, 5], [2, 1, 5], [3, 2, 5], [0, 3, 5]]
    surf = from_face_vertex_lists(faces, n_vertices=6)
    return PolySurface(surf, [compact_point(p) for p in pts], strict=strict)


def test_concave_vertex_rejected():
    # a tetrahedron cannot be dented (4 points are always in convex
    # position); push the top apex of a double pyramid through the base
    # plane instead
    double_pyramid(0.8)  # convex control
    with pytest.raises(PolyBuildError, match="concave"):
        double_pyramid(-0.3)


def test_mixed_kinds_rejected():
    geoms = [compact_point(np.array([0.0, 0, 0, 1])),
             ideal_point(np.array([1.0, 0, 0, 1])),
             ideal_point(np.array([0.0, 1, 0, 1])),
             ideal_point(np.array([0.0, 0, 1, 1]))]
    with pytest.raises(UnsupportedGeometry):
        PolySurface(fixtures.tetrahedron_surface(), geoms)


# ---------------------------------------------------------------------------
# links


def test_compact_link_standard_frame():
    t = 0.77
    points = [np.array([0.0, 0, 0, 1]),
              np.array([0.0, 0, math.sinh(t), math.cosh(t)]),
              np.array([math.sinh(t), 0, 0, math.cosh(t)]),
              np.array([0.0, math.sinh(t), 0, math.cosh(t)])]
    # not convex necessarily; build loosely just to read links
    ps = PolySurface(fixtures.tetrahedron_surface(),
                     [compact_point(p) for p in points], strict=False)
    links = ps.links()
    d = next(d for d in range(ps.tri.n_darts)
             if ps.tri.tail(d) == 0 and ps.tri.head(d) == 1)
    assert np.allclose(links.coords[d], [0.0, 0.0, 1.0], atol=1e-12)


def test_octahedron_vertex_link_is_square():
    oc = fixtures.ideal_octahedron()
    links = oc.links()
    star = oc.tri.vertex_star(4)  # the +z vertex
    pts = [links.coords[d] for d in star]
    assert len(pts) == 4
    side = [np.linalg.norm(pts[i] - pts[(i + 1) % 4]) for i in range(4)]
    diag = [np.linalg.norm(pts[0] - pts[2]), np.linalg.norm(pts[1] - pts[3])]
    assert np.allclose(side, side[0], atol=1e-12)
    assert np.allclose(diag, math.sqrt(2) * side[0], atol=1e-12)


def convex_polygon_2d(points):
    n = len(points)
    cross = []
    for i in range(n):
        a = points[(i + 1) % n] - points[i]
        b = points[(i + 2) % n] - points[(i + 1) % n]
        cross.append(a[0] * b[1] - a[1] * b[0])
    return all(c > 0 for c in cross) or all(c < 0 for c in cross)


def spherical_convex(points):
    n = len(points)
    dets = []
    for i in range(n):
        dets.append(np.linalg.det(np.array([points[i], points[(i + 1) % n],
                                            points[(i + 2) % n]])))
    return all(d > 0 for d in dets) or all(d < 0 for d in dets)


def test_links_form_convex_polygons():
    oc = fixtures.ideal_octahedron()
    links = oc.links()
    for v in range(6):
        pts = [links.coords[d] for d in oc.tri.vertex_star(v)]
        assert convex_polygon_2d(pts)
    rc = fixtures.random_convex_compact(11, 8)
    links = rc.links()
    for v in range(8):
        pts = [links.coords[d] for d in rc.tri.vertex_star(v)]
        assert spherical_convex(pts)


# ---------------------------------------------------------------------------
# duality


def test_dual_tetrahedron_lengths_are_angles():
    ct = fixtures.compact_tetrahedron(0.9)
    dual = ct.dual_surface()
    assert np.allclose(dual.edge_lengths(), ct.dihedral_angles(), atol=1e-10)


def test_dual_involution_recovers_planes():
    ct = fixtures.compact_tetrahedron(0.9)
    dual = ct.dual_surface()
    # dual faces of the dual correspond to primal vertices; their planes'
    # normals are the original vertex positions
    for v in range(ct.base.n_vertices):
        n = dual.face_normals[v]
        p = mink.normalize_timelike(n)
        assert np.allclose(p, ct.vectors[v], atol=1e-9)


def test_dual_random_fixture():
    rc = fixtures.random_convex_compact(17, 7)
    dual = rc.dual_surface()
    ne = rc.base.n_edges
    # dual edges reuse primal ids; triangulation diagonals come after
    assert np.allclose(dual.edge_lengths()[:ne], rc.dihedral_angles(),
                       atol=1e-10)
    for v in range(rc.base.n_vertices):
        p = mink.normalize_timelike(dual.base_face_normals[v])
        assert np.allclose(p, rc.vectors[v], atol=1e-9)


# ---------------------------------------------------------------------------
# isometry invariance


def test_lengths_angles_isometry_invariant():
    rng = np.random.default_rng(7)
    for fixture in (fixtures.compact_tetrahedron(1.1),
                    fixtures.ideal_octahedron([0.1, -0.2, 0.0, 0.3, -0.1, 0.2]),
                    fixtures.hyperideal_tetrahedron(1.8)):
        a = mink.random_isometry(rng)
        moved = fixture.with_vertex_vectors([a @ v for v in fixture.vectors],
                                            reference=a @ fixture.reference)
        assert np.allclose(moved.edge_lengths(), fixture.edge_lengths(),
                           atol=1e-10)
        assert np.allclose(moved.dihedral_angles(), fixture.dihedral_angles(),
                           atol=1e-10)


def _spiral_hyper_hull(n):
    """Base and vertex vectors of the benchmark hyper spiral hull, unmoved."""
    spiral = spiral_module()
    dirs = spiral.spiral_directions(n)
    faces = spiral.hull_faces(dirs)
    vecs = spiral.vertex_vectors("hyper", dirs, faces, None)
    return from_face_vertex_lists(faces, n_vertices=n), vecs


def test_moved_hyper_hull_builds_strictly():
    # with the fixed reference (0,0,0,1) this isometry flipped the normals'
    # orientation and the strict build failed on a concave edge 27
    base, vecs = _spiral_hyper_hull(16)
    a = mink.random_isometry(np.random.default_rng(2))
    fixed = PolySurface(base, [hyper_point(v) for v in vecs])
    moved = PolySurface(base, [hyper_point(a @ v) for v in vecs])
    assert np.allclose(moved.reference, a @ fixed.reference, atol=1e-9)
    assert np.allclose(moved.dihedral_angles(), fixed.dihedral_angles(),
                       atol=1e-9)


def test_hyper_reference_needs_an_edge_through_h3():
    # every edge of this tetrahedron pairs to 0 or -1: none crosses H^3
    vecs = [(1, 0, 0, 0), (0, 1, 0, 0), (-1, 0, 1, 1), (0, 0, -1, 0)]
    with pytest.raises(PolyBuildError, match="no edge crosses"):
        PolySurface(fixtures.tetrahedron_surface(),
                    [hyper_point(v) for v in vecs], strict=False)


def test_null_support_plane_rejected():
    # the plane through the first three vertices, <x, (0,0,1,1)> = 0, has a
    # null normal; rounding leaves |<n,n>| / |n|^2 at 2e-16, not at 0
    vecs = [(1, 0, 0, 0), (0, 1, 0, 0), (-1, 0, 1, 1), (0, 0, -1, 0)]
    with pytest.raises(PolyBuildError, match="null support plane"):
        PolySurface(fixtures.tetrahedron_surface(),
                    [hyper_point(v) for v in vecs],
                    reference=[0.0, 0.0, 0.0, 1.0], strict=False)


# ---------------------------------------------------------------------------
# fan triangulation of polygon faces


def square_pyramid():
    # base square 0..3 in the plane x3=0, apex 4 above
    rho, h = 0.8, 0.7
    pts = []
    for i in range(4):
        phi = 2 * math.pi * i / 4
        pts.append(np.array([math.sinh(rho) * math.cos(phi),
                             math.sinh(rho) * math.sin(phi), 0.0,
                             math.cosh(rho)]))
    pts.append(np.array([0.0, 0.0, math.sinh(h), math.cosh(h)]))
    faces = [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4], [3, 2, 1, 0]]
    surf = from_face_vertex_lists(faces, n_vertices=5)
    return PolySurface(surf, [compact_point(p) for p in pts])


def test_quad_face_triangulated_flat_diagonal():
    ps = square_pyramid()
    assert ps.base.n_faces == 5 and ps.tri.n_faces == 6
    assert len(ps.diagonal_edges) == 1
    angles = ps.dihedral_angles()
    diag = next(iter(ps.diagonal_edges))
    assert abs(angles[diag]) < 1e-9
    # structural edges are strictly convex
    for e in range(ps.tri.n_edges):
        if e != diag:
            assert angles[e] > 0.1


def test_nonplanar_quad_rejected():
    rho, h = 0.8, 0.7
    pts = []
    for i in range(4):
        phi = 2 * math.pi * i / 4
        bump = 0.1 if i == 0 else 0.0
        pts.append(np.array([math.sinh(rho) * math.cos(phi),
                             math.sinh(rho) * math.sin(phi), -bump,
                             math.cosh(rho)]))
    pts.append(np.array([0.0, 0.0, math.sinh(h), math.cosh(h)]))
    faces = [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4], [3, 2, 1, 0]]
    surf = from_face_vertex_lists(faces, n_vertices=5)
    with pytest.raises(PolyBuildError, match="non-planar"):
        PolySurface(surf, [compact_point(p) for p in pts])


def test_planarity_margins_one_per_base_face():
    ps = square_pyramid()
    margins = ps.diagnostics["planarity_margins"]
    sizes = [len(cyc) for cyc in ps.base.face_cycles]
    assert len(margins) == ps.base.n_faces == 5 and sorted(sizes)[-1] == 4
    for size, margin in zip(sizes, margins):
        assert margin == 0.0 if size == 3 else 0.0 <= margin < 1e-12


# ---------------------------------------------------------------------------
# gauss circles


def circle_exterior_cos(c1, c2):
    (_, z1, r1), (_, z2, r2) = c1, c2
    d = abs(z1 - z2)
    return (d * d - r1 * r1 - r2 * r2) / (2 * r1 * r2)


def test_gauss_circles_octahedron():
    # the axis-aligned octahedron has a vertex at the projection direction,
    # so rotate: all eight images are then honest circles
    oc = fixtures.rotated_ideal_octahedron()
    circles = oc.gauss_circles()
    assert len(circles) == 8
    assert all(c[0] == "circle" for c in circles)
    s = oc.base
    for e in range(s.n_edges):
        c1 = circles[int(s.dart_face[2 * e])]
        c2 = circles[int(s.dart_face[2 * e + 1])]
        assert abs(circle_exterior_cos(c1, c2)) < 1e-9  # orthogonal


def test_gauss_circles_exterior_angle_sum_at_vertices():
    # Delaunay face condition: around each ideal vertex the exterior
    # intersection angles of consecutive circles sum to 2*pi
    oc = fixtures.rotated_ideal_octahedron()
    circles = oc.gauss_circles()
    s = oc.base
    for v in range(s.n_vertices):
        star = s.vertex_star(v)
        total = 0.0
        for d in star:
            c1 = circles[int(s.dart_face[d])]
            c2 = circles[int(s.dart_face[d ^ 1])]
            total += math.acos(max(-1, min(1, circle_exterior_cos(c1, c2))))
        assert abs(total - 2 * math.pi) < 1e-9


def test_gauss_circles_tetrahedron_records():
    # vertices 0, 1, inf, zeta: the three faces through the chart's
    # infinity are lines, the face (0, zeta, 1) is a circle
    tet = fixtures.ideal_tetrahedron()
    recs = tet.gauss_circles()
    kinds = sorted(r[0] for r in recs)
    assert kinds == ["circle", "line", "line", "line"]
    # the face through 0, 1, inf is the real axis: y = 0
    line_real = [r for r in recs if r[0] == "line" and abs(r[1]) < 1e-12]
    assert any(abs(b - 1.0) < 1e-12 and abs(c) < 1e-12
               for (_, a, b, c) in line_real)


def test_gauss_circles_angles_generic_tetrahedron():
    z = 0.8 + 1.1j
    tet = fixtures.ideal_tetrahedron(z)
    recs = tet.gauss_circles()
    ext = tet.dihedral_angles()
    s = tet.base
    for e in range(s.n_edges):
        r1 = recs[int(s.dart_face[2 * e])]
        r2 = recs[int(s.dart_face[2 * e + 1])]
        if r1[0] == "circle" and r2[0] == "circle":
            ang = math.acos(max(-1, min(1, circle_exterior_cos(r1, r2))))
            assert abs(ang - ext[e]) < 1e-9


# ---------------------------------------------------------------------------
# decorations from deformations


def killing_field_at(ps, gen_index):
    gen = mink.so31_basis()[gen_index]
    return [gen @ v for v in ps.vectors]


def test_killing_deformation_certified_consistent():
    ct = fixtures.compact_tetrahedron(1.0)
    for i in range(6):
        z = killing_field_at(ct, i)
        dec = ct.decoration_from_deformation(z, certified=True)
        assert dec.states.shape == (ct.tri.n_edges,)


def test_zero_deformation_trivial():
    ct = fixtures.compact_tetrahedron(1.0)
    z = [np.zeros(4) for _ in range(4)]
    dec = ct.decoration_from_deformation(z, certified=True)
    assert not dec.states.any()


def test_radial_scaling_not_length_preserving():
    r = 1.0
    ct = fixtures.compact_tetrahedron(r)
    z = []
    for d in fixtures._TETRA_DIRS:
        z.append(np.array([*(math.cosh(r) * d), math.sinh(r)]))
    with pytest.raises(PolyBuildError, match="not length-preserving"):
        ct.decoration_from_deformation(z, certified=True)


# ---------------------------------------------------------------------------
# poly v1 format


def test_poly_roundtrip():
    oc = fixtures.ideal_octahedron([0.1, 0, -0.1, 0, 0.2, 0])
    text = serialize_poly(oc)
    back = parse_poly(text)
    assert serialize_poly(back) == text
    assert np.allclose(back.edge_lengths(), oc.edge_lengths(), atol=0)


@pytest.mark.parametrize("fixture", [fixtures.ideal_octahedron,
                                     fixtures.compact_tetrahedron])
def test_poly_duplicate_geom_rejected(fixture):
    lines = serialize_poly(fixture()).splitlines()
    # a second record for vertex 0, carrying vertex 1's vector
    geom1 = next(ln for ln in lines if ln.startswith("geom 1 "))
    lines.append(geom1.replace("geom 1 ", "geom 0 "))
    with pytest.raises(SurfaceFormatError,
                       match="line %d: duplicate geom 0" % len(lines)):
        parse_poly("\n".join(lines) + "\n")


def test_poly_parse_geom_error():
    oc = fixtures.ideal_octahedron()
    text = serialize_poly(oc).replace("geom 0 ideal", "geom 0 weird", 1)
    with pytest.raises(Exception):
        parse_poly(text)


def _two_pass_parse_poly(text):
    """parse_poly as it was when it split the text a second time after
    parse_surf, over the per-line surf parser.  Verbatim, bar the names of
    the per-line parser and its helpers."""
    from test_cellsurf import (parent_check_ids as _check_ids,
                               parent_parse_surf as parse_surf,
                               parent_record as _record)
    from endlab.polysurf import COMPACT, HYPER, IDEAL
    surface = parse_surf(text)
    geoms, geom_lines = {}, {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] != "geom":
            continue
        if len(parts) != 7 or parts[2] not in (COMPACT, IDEAL, HYPER):
            raise SurfaceFormatError("bad geom record", line=ln)
        try:
            vec = np.array([float(x) for x in parts[3:7]])
            if not np.all(np.isfinite(vec)):
                raise ValueError("non-finite geom coordinate")
            v = _record(geom_lines, parts[1], "geom", ln)
            geoms[v] = VertexGeom(parts[2], vec)
        except (ValueError, PolyBuildError) as exc:
            raise SurfaceFormatError(str(exc), line=ln) from exc
    _check_ids(geom_lines, surface.n_vertices,
               "geom records must cover all vertices")
    return PolySurface(surface, [geoms[v] for v in range(surface.n_vertices)])


def _poly_variants(text):
    """The text with single records changed, added, moved or removed."""
    from test_cellsurf import (ARABIC_DIGITS, REAL_FORMS, SEPARATORS,
                               _int_forms)
    lines = text.splitlines()
    geoms = [i for i, ln in enumerate(lines) if ln.startswith("geom ")]
    first, last = geoms[0], geoms[-1]
    fields = lines[first].split()
    other = {"compact": "hyper", "hyper": "ideal", "ideal": "compact"}

    def swap(i, new, at=None):
        return (at or lines)[:i] + [new] + (at or lines)[i + 1:]

    def vector(kind, *coords, i=first):
        return " ".join(lines[i].split()[:2] + [kind, *coords])

    yield lines
    yield swap(first, " ".join(fields[:2] + ["weird"] + fields[3:]))
    yield swap(first, " ".join(fields[:6]))
    yield swap(first, " ".join(fields[:3] + ["nan"] + fields[4:]))
    yield swap(first, " ".join(fields[:5] + ["inf"] + fields[6:]))
    yield swap(first, " ".join(fields[:4] + ["-1e999"] + fields[5:]))
    yield swap(first, " ".join(fields[:3] + ["x"] + fields[4:]))
    yield swap(first, " ".join(["geom", "99"] + fields[2:]))
    yield swap(first, " ".join(["geom", "-1"] + fields[2:]))
    yield swap(first, " ".join(["geom", "100000000000000000000"] + fields[2:]))
    yield swap(first, " ".join(["geom", "a"] + fields[2:]))
    # the coordinates are read before the id
    yield swap(first, " ".join(["geom", "a"] + fields[2:3] + ["nan"]
                               + fields[4:]))
    yield swap(first, " ".join(fields[:3] + ["5"] + fields[4:]))
    yield swap(first, lines[first] + "  # a comment")
    yield swap(first, "geom")
    # vectors of the wrong causal type for their tag
    yield swap(first, vector("ideal", "0", "0", "0", "1"))     # timelike
    yield swap(first, vector("ideal", "0", "0", "1", "-1"))    # past null
    yield swap(first, vector("ideal", "0", "0", "0", "0"))     # zero
    yield swap(first, vector("ideal", "1", "0", "0", "0"))     # spacelike
    yield swap(first, vector("compact", "0", "0", "1", "1"))   # null
    yield swap(first, vector("compact", "1", "0", "0", "0"))   # spacelike
    yield swap(first, vector("hyper", "0", "0", "0", "2"))     # timelike
    yield swap(first, vector("hyper", "0", "0", "1", "1"))     # null
    # valid vectors needing normalisation: scaled, on the past sheet
    yield swap(first, vector(fields[2], *("%r" % (3.5 * float(x))
                                         for x in fields[3:])))
    yield swap(first, vector(fields[2], *("%r" % (-float(x))
                                         for x in fields[3:])))
    # mixed kinds: a valid vector of another kind
    yield swap(first, vector(other[fields[2]], *{
        "compact": ("0", "0", "0.5", "2"), "hyper": ("0", "2", "0", "1"),
        "ideal": ("0.6", "0", "0.8", "1")}[other[fields[2]]]))
    # a fault in the last record beats an id out of range in the first,
    # and the first of two faulty records wins
    yield swap(last, vector("compact", "1", "0", "0", "0", i=last),
               at=swap(first, " ".join(["geom", "99"] + fields[2:])))
    yield swap(last, "geom", at=swap(first, vector("hyper", "0", "0", "0",
                                                   "2")))
    yield lines[:last] + lines[last + 1:]
    yield [ln for ln in lines if not ln.startswith("geom ")]
    yield lines + [lines[last]]
    # a repeated id is found before a vector of the wrong causal type
    yield lines + [vector("hyper", "0", "0", "0", "2")]
    yield [lines[first]] + lines[:first] + lines[first + 1:]
    # a bad geom record before a bad surf record: the surf error wins
    yield swap(first, "geom") + ["bogus 1"]
    yield swap(0, "e 0 0") + swap(first, "geom")[1:]
    # ids, reals and separators that Python's int and float and numpy's
    # reader may read apart: the same vectors or the same first error
    for form in _int_forms(fields[1]):
        yield swap(first, " ".join(["geom", form] + fields[2:]))
    for form in REAL_FORMS:
        yield swap(first, " ".join(fields[:4] + [form] + fields[5:]))
    yield swap(first, " ".join(fields[:3] + [
        re.sub("([0-9])([0-9])", r"\1_\2", x, count=1) for x in fields[3:]]))
    yield swap(first, " ".join(fields[:3] + [
        x.translate(ARABIC_DIGITS) for x in fields[3:]]))
    for sep in SEPARATORS:
        yield swap(first, sep.join(fields))


def _spiral_hull(kind):
    """serialize_poly text of a 120-vertex spiral hull of the benchmark."""
    spiral = spiral_module()
    return spiral.serialize(kind, spiral.build(
        kind, 120, np.random.default_rng(11)))


POLY_TEXTS = {
    "ideal_octahedron": lambda: serialize_poly(fixtures.ideal_octahedron()),
    "compact_tetrahedron": lambda: serialize_poly(
        fixtures.compact_tetrahedron()),
    "hyperideal_tetrahedron": lambda: serialize_poly(
        fixtures.hyperideal_tetrahedron()),
    "compact_hull_120": lambda: _spiral_hull("compact"),
    "ideal_hull_120": lambda: _spiral_hull("ideal"),
    "hyper_hull_120": lambda: _spiral_hull("hyper"),
}


@pytest.mark.parametrize("name,reader", both_readers(
    [(name,) for name in POLY_TEXTS], POLY_TEXTS), indirect=["reader"])
def test_parse_poly_reads_like_two_passes(name, reader):
    # one pass over the text: the same surfaces, and the same first error
    # with the same message and line, whichever reader reads it
    def outcome(parse, text):
        try:
            return serialize_poly(parse(text))
        except (SurfaceFormatError, PolyBuildError) as exc:
            return "%s: %s" % (type(exc).__name__, exc)

    for lines in _poly_variants(POLY_TEXTS[name]()):
        text = "\n".join(lines) + "\n"
        assert outcome(parse_poly, text) == outcome(_two_pass_parse_poly,
                                                    text)


def _scaled_geoms(text, rng):
    """poly text with each geom vector scaled by a factor in 1/4..4, of
    random sign on compact vertices (whose normalisation takes the upper
    sheet)."""
    out = []
    for ln in text.splitlines():
        parts = ln.split()
        if parts[:1] == ["geom"]:
            scale = math.exp(rng.uniform(-1.4, 1.4))
            if parts[2] == "compact":
                scale *= rng.choice([-1, 1])
            parts[3:] = ["%.17g" % (scale * float(x)) for x in parts[3:]]
            ln = " ".join(parts)
        out.append(ln)
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("scaled", [False, True], ids=["as_written",
                                                       "rescaled"])
@pytest.mark.parametrize("name", POLY_TEXTS)
def test_poly_vectors_normalised_as_one_vertex_at_a_time(name, scaled):
    # the one-pass normalisation gives VertexGeom's vector, bit for bit
    text = POLY_TEXTS[name]()
    if scaled:
        text = _scaled_geoms(text, np.random.default_rng(5))
    ps = parse_poly(text)
    raw = {int(p[1]): (p[2], np.array([float(x) for x in p[3:]]))
           for p in map(str.split, text.splitlines()) if p[:1] == ["geom"]}
    one_by_one = np.array([VertexGeom(*raw[v]).vec
                           for v in range(ps.base.n_vertices)])
    assert ps.vectors.tobytes() == one_by_one.tobytes()
    assert [g.kind for g in ps.geoms] == [raw[v][0] for v in sorted(raw)]


@pytest.mark.parametrize("name", POLY_TEXTS)
def test_poly_records_in_any_order_with_comments(name):
    from test_cellsurf import _scrambled
    text = POLY_TEXTS[name]()
    canonical = serialize_poly(parse_poly(text))
    rng = random.Random(name)
    for _ in range(3):
        assert serialize_poly(parse_poly(_scrambled(text, rng))) == canonical


def test_surf_with_geom_records_parses():
    from endlab.cellsurf import parse_surf, serialize_surf
    ps = fixtures.ideal_octahedron()
    assert serialize_surf(parse_surf(serialize_poly(ps))) == serialize_surf(
        ps.base)


# ---------------------------------------------------------------------------
# array-built frames and convexity checks against their scalar loops


def _gram_schmidt_frame(v):
    """Minkowski-orthonormal frame of the complement of a non-null v.

    Returns (rows, signs): rows[i] with <rows[i], rows[j]> = signs[i] d_ij,
    deterministic over the canonical seed order.
    """
    basis = [np.asarray(v, dtype=float)]
    norms = [mdot(v, v)]
    rows, signs = [], []
    for seed in np.eye(4):
        w = seed.copy()
        for b, q in zip(basis, norms):
            w = w - (mdot(w, b) / q) * b
        q = mdot(w, w)
        if abs(q) < 1e-10:
            continue
        w = w / math.sqrt(abs(q))
        basis.append(w)
        norms.append(math.copysign(1.0, q))
        rows.append(w)
        signs.append(int(math.copysign(1.0, q)))
        if len(rows) == 3:
            break
    if len(rows) != 3:
        raise PolyBuildError("degenerate tangent frame")
    return np.array(rows), np.array(signs)


def _horosphere_chart_loop(u):
    """horosphere_chart as a loop over the seed axes of one vector, before
    the charts of all vertices became one array pass, kept verbatim as its
    oracle."""
    u = np.asarray(u, dtype=float)
    m_raw = np.array([-u[0], -u[1], -u[2], u[3]])
    m = m_raw / (u[3] * u[3])
    spatial = u[:3]
    axes = []
    # least-aligned seed axes first: their projections off u cancel least
    for seed in np.eye(3)[np.argsort(np.abs(spatial), kind="stable")]:
        w = seed - (seed @ spatial) / (spatial @ spatial) * spatial
        for a in axes:
            w = w - (w @ a[:3]) * a[:3]
        nrm = np.linalg.norm(w)
        if nrm < 1e-10:
            continue
        axes.append(np.array([w[0], w[1], w[2], 0.0]) / nrm)
        if len(axes) == 2:
            break
    if len(axes) != 2:
        raise PolyBuildError("degenerate horosphere chart")
    return axes[0], axes[1], m


def _check_convexity_loop(self):
    """PolySurface._check_convexity as one loop over the edges (``self`` a
    built PolySurface); returns the diagnostics it would set."""
    diagnostics = {}
    margins = np.zeros(self.tri.n_edges)
    flat = []
    for e in range(self.tri.n_edges):
        d1, d2 = 2 * e, 2 * e + 1
        f1 = int(self.tri.dart_face[d1])
        f2 = int(self.tri.dart_face[d2])
        apex = self.tri.tail(int(self.tri.fprev[d2]))
        val = mdot(self.vectors[apex], self.face_normals[f1])
        scale = max(1.0, float(np.max(np.abs(self.vectors[apex]))))
        margins[e] = val / scale
        if e in self.diagonal_edges:
            continue
        if val > 1e-7 * scale:
            if self.strict:
                raise PolyBuildError("locally concave structural edge %d" % e)
            flat.append(e)
        elif val > -1e-9 * scale:
            flat.append(e)
    diagnostics["convexity_margins"] = margins
    diagnostics["flat_edges"] = flat
    if self.kind == "hyper" and not self.is_dual:
        missing = [e for e in range(self.tri.n_edges)
                   if mdot(self.vectors[self.tri.edges[e][0]],
                           self.vectors[self.tri.edges[e][1]]) > -1.0]
        if missing and self.strict:
            raise PolyBuildError("hyperideal edge missing H^3: %s" % missing)
        diagnostics["edges_missing_h3"] = missing
    return diagnostics


def _hyper_tetrahedron_off_h3():
    # adjacent vertices pair to 1 - 4k^2/3 > -1: no edge crosses H^3
    k = 1.1
    vecs = [np.array([*(k * d), math.sqrt(k * k - 1.0)])
            for d in fixtures._TETRA_DIRS]
    return PolySurface(fixtures.tetrahedron_surface(),
                       [hyper_point(v) for v in vecs],
                       reference=[0.0, 0.0, 0.0, 1.0], strict=False)


def _golden_poly(name):
    from scripts_path import INPUTS
    return parse_poly((INPUTS / name).read_text())


ORACLE_SURFACES = {
    "compact-tetrahedron": lambda: fixtures.compact_tetrahedron(1.0),
    "hyper-tetrahedron": lambda: fixtures.hyperideal_tetrahedron(2.0),
    "hyper-dual": lambda: fixtures.compact_tetrahedron(1.0).dual_surface(),
    "hyper-off-h3": _hyper_tetrahedron_off_h3,
    "random-compact": lambda: fixtures.random_convex_compact(3, 9),
    "flat-vertex": fixtures.flat_vertex_pyramid,
    "square-pyramid": square_pyramid,
    "concave-nonstrict": lambda: double_pyramid(-0.3, strict=False),
    "ideal-octahedron": fixtures.ideal_octahedron,
    "ideal-rotated": fixtures.rotated_ideal_octahedron,
    "ideal-tetrahedron": fixtures.ideal_tetrahedron,
    "random-ideal": lambda: fixtures.random_ideal(13, 8),
    "golden-octahedron": lambda: _golden_poly("octahedron.poly"),
    "golden-compact": lambda: _golden_poly("tetrahedron_compact.poly"),
    "golden-ideal": lambda: _golden_poly("tetrahedron_ideal.poly"),
}
for _kind in ("compact", "hyper"):
    for _n in (8, 32, 128, 512):
        for _seed in (1, 2, 3):
            ORACLE_SURFACES["%s-%d-seed%d" % (_kind, _n, _seed)] = (
                lambda k=_kind, n=_n, s=_seed:
                spiral_module().build(k, n, np.random.default_rng(s)))


@pytest.mark.parametrize("make", ORACLE_SURFACES.values(),
                         ids=ORACLE_SURFACES.keys())
def test_frames_and_convexity_match_scalar_loops(make):
    ps = make()
    links = ps.links()
    if ps.kind != "ideal":
        rows, signs = zip(*(_gram_schmidt_frame(v) for v in ps.vectors))
        assert np.array_equal(links.frames, np.array(rows))
        assert np.array_equal(links.signs, np.array(signs))
        assert links.signs.dtype == np.array(signs).dtype
    else:
        assert np.array_equal(links.frames, np.array(
            [_horosphere_chart_loop(u) for u in ps.vectors]))
    expect = _check_convexity_loop(ps)
    assert ps.diagnostics.keys() >= expect.keys()
    assert np.array_equal(ps.diagnostics["convexity_margins"],
                          expect["convexity_margins"])
    assert ps.diagnostics["flat_edges"] == expect["flat_edges"]
    assert ps.diagnostics.get("edges_missing_h3") == expect.get(
        "edges_missing_h3")
    # the strict checks raise the same first offender, or pass alike
    ps.strict = True
    try:
        expect = _check_convexity_loop(ps)
    except PolyBuildError as exc:
        with pytest.raises(PolyBuildError) as got:
            ps._check_convexity()
        assert str(got.value) == str(exc)
    else:
        ps._check_convexity()
        assert ps.diagnostics["flat_edges"] == expect["flat_edges"]



@pytest.mark.parametrize("n", [8, 32, 128])
def test_horosphere_charts_match_the_loop_on_moved_hulls(n):
    # wherever the isometry moves the ideal vertices, bit for bit
    for seed in range(30):
        ps = spiral_module().build("ideal", n,
                                   np.random.default_rng([seed, n]))
        assert np.array_equal(
            polysurf._horosphere_charts(ps.vectors),
            np.array([_horosphere_chart_loop(u) for u in ps.vectors]))


def test_horosphere_chart_of_no_spatial_part_is_degenerate():
    # no seed has a projection off a zero spatial part (0 / 0), so no
    # axis is kept, in the array pass as for one vector
    ideal = fixtures.ideal_octahedron().vectors
    with np.errstate(invalid="ignore"):
        for vectors in (np.array([[0.0, 0.0, 0.0, 1.0]]),
                        np.vstack([ideal, [0.0, 0.0, 0.0, 1.0]])):
            with pytest.raises(PolyBuildError,
                               match="degenerate horosphere chart"):
                polysurf._horosphere_charts(vectors)
        with pytest.raises(PolyBuildError,
                           match="degenerate horosphere chart"):
            polysurf.horosphere_chart([0.0, 0.0, 0.0, 1.0])


def parent_face_normals(ps, triangle=None):
    """PolySurface._face_normals as it was before the vertex ids of each
    face size became one ``dart_tail`` gather, kept verbatim (``self`` read
    as ``ps``) as its oracle; returns (normals, planarity margins).  With
    ``triangle`` given, a triangle f takes the unnormalised normal
    ``triangle(ps, f)`` instead of the SVD's."""
    g = np.diag(mink.METRIC_DIAG)
    cycles = ps.base.face_cycles
    sizes = np.array([len(cyc) for cyc in cycles])
    out = np.empty((len(cycles), 4))
    planarity_margin = np.zeros(len(cycles))
    for k in np.unique(sizes):
        faces = np.flatnonzero(sizes == k)
        vids = np.array([[ps.base.tail(d) for d in cycles[f]]
                         for f in faces])
        _, sing, vt = np.linalg.svd(ps.vectors[vids] @ g)
        if k >= 4:
            planarity_margin[faces] = sing[:, 3] / sing[:, 0]
        out[faces] = vt[:, 3]
        if k == 3 and triangle is not None:
            out[faces] = [triangle(ps, f) for f in faces]
    nn = mdot(out, out)
    null = np.flatnonzero(np.abs(nn) <= mink.TAU_NULL
                          * np.sum(out * out, axis=1))
    if null.size:
        raise PolyBuildError("face %d has a null support plane" % null[0])
    out /= np.sqrt(np.abs(nn))[:, None]
    out[(nn < 0) & (out[:, 3] < 0)] *= -1
    out[mdot(out, ps.reference) > 0] *= -1
    return out, planarity_margin


def triangle_cofactors(ps, f):
    """polysurf._triangle_planes of face f alone, in Python floats and in
    its operation order: the vertex rows times the metric, each divided by
    its Euclidean length, then the cofactors of the first row of
    det(x; a; b - a; c - a) from the 2 x 2 minors of its last two rows."""
    rows = [[x * g for x, g in zip(ps.vectors[ps.base.tail(d)].tolist(),
                                   mink.METRIC_DIAG.tolist())]
            for d in ps.base.face_cycles[f]]
    a, b, c = [[x / math.sqrt(r[0] * r[0] + r[1] * r[1] + r[2] * r[2]
                              + r[3] * r[3]) for x in r] for r in rows]
    b = [x - y for x, y in zip(b, a)]
    c = [x - y for x, y in zip(c, a)]

    def p(k, m):
        return b[k] * c[m] - b[m] * c[k]
    return [a[1] * p(2, 3) - a[2] * p(1, 3) + a[3] * p(1, 2),
            -(a[0] * p(2, 3) - a[2] * p(0, 3) + a[3] * p(0, 2)),
            a[0] * p(1, 3) - a[1] * p(0, 3) + a[3] * p(0, 1),
            -(a[0] * p(1, 2) - a[1] * p(0, 2) + a[2] * p(0, 1))]


def parent_planarity_message(ps):
    """PolySurface._check_planarity's loop before np.flatnonzero: the
    message it raises, or None."""
    bad = [f for f in range(ps.base.n_faces)
           if ps._planarity_margin[f] > ps.tau_plane]
    return "non-planar declared face: %s" % bad if bad else None


NORMAL_SURFACES = {name: make for name, make in ORACLE_SURFACES.items()
                   if "seed" not in name or name.endswith("seed1")}


@pytest.mark.parametrize("make", NORMAL_SURFACES.values(),
                         ids=NORMAL_SURFACES.keys())
def test_face_normals_match_parent_loop(make):
    # polygons bit for bit as the parent's SVD, triangles as the scalar
    # cofactors; all margins bit for bit
    ps = make()
    normals, margins = parent_face_normals(ps, triangle_cofactors)
    assert np.array_equal(ps.base_face_normals, normals)
    assert np.array_equal(ps._planarity_margin, margins)
    # the cofactor normals are the SVD's, oriented alike, to within 1e-13
    # of the pairings' scale, and annihilate the vertex rows
    svd, _ = parent_face_normals(ps)
    for f, cyc in enumerate(ps.base.face_cycles):
        verts = ps.vectors[[ps.base.tail(d) for d in cyc]]
        n = ps.base_face_normals[f]
        scale = np.max(np.abs(verts)) * np.max(np.abs(n))
        assert np.max(np.abs(n - svd[f])) <= 1e-13 * scale
        assert np.max(np.abs(mdot(verts, n))) <= 1e-12 * scale


def _degenerate_tetrahedron(kind):
    """A tetrahedron whose face 0 = (0, 1, 2) has linearly dependent vertex
    vectors: vertex 2 on the geodesic of vertices 0 and 1 (compact), or at
    the ideal point of vertex 0 with another decoration (ideal)."""
    if kind == "compact":
        p = [v.copy() for v in fixtures.compact_tetrahedron(1.0).vectors]
        p[2] = mink.normalize_timelike(p[0] + p[1])
        make = polysurf.compact_point
    else:
        p = [v.copy() for v in fixtures.ideal_tetrahedron().vectors]
        p[2] = 2.0 * p[0]
        make = polysurf.ideal_point
    return fixtures.tetrahedron_surface(), [make(v) for v in p]


@pytest.mark.parametrize("kind", ["compact", "ideal"])
def test_degenerate_triangle_is_rejected(kind):
    base, geoms = _degenerate_tetrahedron(kind)
    with np.errstate(all="raise"):  # no NaN on the way
        with pytest.raises(PolyBuildError, match="^face 0 is degenerate: its "
                           "vertex vectors are linearly dependent$"):
            PolySurface(base, geoms)


def _bumped_square_pyramid(bump, tau_plane):
    # square_pyramid with base vertex 0 moved off the base plane by ``bump``
    rho, h = 0.8, 0.7
    pts = [np.array([math.sinh(rho) * math.cos(math.pi * i / 2),
                     math.sinh(rho) * math.sin(math.pi * i / 2),
                     -bump if i == 0 else 0.0, math.cosh(rho)])
           for i in range(4)]
    pts.append(np.array([0.0, 0.0, math.sinh(h), math.cosh(h)]))
    faces = [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4], [3, 2, 1, 0]]
    return PolySurface(from_face_vertex_lists(faces, n_vertices=5),
                       [compact_point(p) for p in pts], tau_plane=tau_plane)


@pytest.mark.parametrize("bump, tau_plane", [
    (0.0, polysurf.TAU_PLANE), (0.1, polysurf.TAU_PLANE), (0.0, -1.0),
    (0.1, -1.0), (0.1, 0.5)])
def test_planarity_message_matches_parent_loop(bump, tau_plane):
    # tau_plane -1 flags every face, triangles included: a list of several
    ps = _bumped_square_pyramid(bump, polysurf.TAU_PLANE if bump == 0.0
                                else 1.0)
    ps.tau_plane = tau_plane
    expect = parent_planarity_message(ps)
    if expect is None:
        ps._check_planarity()
        return
    with pytest.raises(PolyBuildError) as got:
        ps._check_planarity()
    assert str(got.value) == expect
