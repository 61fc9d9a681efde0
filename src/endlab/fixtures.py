"""Shared test and CLI fixtures: combinatorial surfaces, weights, geometry.

Geometric fixtures (octahedron, tetrahedra, random hulls) live here too so
that the CLI, the tests, and the experiment scripts agree on one source.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from . import cellsurf, mink, polysurf
from .cellsurf import from_face_vertex_lists


def genus2_surface_file():
    """Path of the shipped "surf v1" serialization of the genus-2 fixture."""
    import importlib.resources as res
    return res.files("endlab").joinpath("data/genus2.surf")


@functools.lru_cache(maxsize=1)
def genus2_surface():
    """The 10-vertex, 36-edge, 24-face genus-2 triangulation (the regular
    octagon with trisected sides, coned from its center), parsed from the
    shipped file (cached)."""
    return cellsurf.parse_surf(genus2_surface_file().read_text())


def tetrahedron_surface():
    """Boundary of the tetrahedron, faces counterclockwise from outside."""
    return from_face_vertex_lists([[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]])


#: octahedron vertices are indexed +x,-x,+y,-y,+z,-z
_OCTA_AXES = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]

#: faces listed counterclockwise as seen from inside, which makes the
#: argument of the edge cross-ratios the (positive) interior angle
_OCTA_FACES = [
    [4, 2, 0], [4, 1, 2], [4, 3, 1], [4, 0, 3],
    [5, 0, 2], [5, 2, 1], [5, 1, 3], [5, 3, 0],
]


def octahedron_surface():
    """Boundary of the octahedron (8 triangles, all vertex degrees 4)."""
    return from_face_vertex_lists(_OCTA_FACES)


def octahedron_null_vectors(scales=None):
    """Future null vectors over the six octahedron directions.

    ``scales`` optionally rescales each decoration by e^{s_v}.
    """
    out = []
    for i, ax in enumerate(_OCTA_AXES):
        u = np.array([ax[0], ax[1], ax[2], 1.0], dtype=float)
        if scales is not None:
            u = math.exp(scales[i]) * u
        out.append(u)
    return out


def genus2_theta_uniform():
    """All weights 2*pi/3: every face of the fixture sums to 2*pi."""
    return np.full(genus2_surface().n_edges, 2.0 * math.pi / 3.0)


#: the weights of :func:`genus2_theta_bad_link`, edge by edge: 0.8*pi on
#: the spokes at trisection vertex 1 (edges 1, 8, 24 and 25), and on the
#: other edges a solution in [0.05, pi - 0.05] of the face sums 2*pi,
#: found once by bounded least squares and written out bit for bit, so
#: that no solver build changes it
_BAD_LINK_THETA = (
    1.2566370614359172, 2.5132741228718345, 1.2566370614359172,
    2.1731245914838198, 2.3606126026233034, 1.7281801274231516,
    2.1731245914838198, 1.2566370614359172, 2.5132741228718345,
    1.2566370614359172, 2.6446676574710537, 1.4441250725754016,
    3.089612121531722, 1.6107437557169215, 2.490106244096068,
    1.596719510628454, 2.1565512374722067, 2.1540700206239474,
    2.1731245914838193, 1.9137011632407037, 2.1871488365722853,
    2.513207040676358, 1.8139875714314087, 2.4966336866647443,
    2.5132741228718345, 2.5132741228718345, 2.8534236542598492,
    1.749448113072463, 2.1943925771331307, 2.381880588272615,
    1.582829429930943, 2.182335307366597, 2.196359552455064,
    2.529914559078925, 1.972564049083433, 1.95599069507182,
)


def genus2_theta_bad_link():
    """Weights with correct face sums but a short failing contractible cycle.

    The four edges at trisection vertex 1 are pinned to spoke = 0.8*pi; its
    link 4-cycle then sums to 8*pi - 2*4*spoke < 2*pi while every face still
    sums to 2*pi.  Returns (theta, link_cycle_edge_ids).
    """
    s = genus2_surface()
    link_edges = sorted({int(s.fnext[d]) // 2 for d in s.vertex_star(1)})
    return np.array(_BAD_LINK_THETA), link_edges


# ---------------------------------------------------------------------------
# geometric fixtures


def ideal_octahedron(scales=None):
    """Regular ideal octahedron with unit-scale decorations (optionally
    rescaled per vertex); all exterior dihedral angles are pi/2."""
    geoms = [polysurf.ideal_point(u) for u in octahedron_null_vectors(scales)]
    return polysurf.PolySurface(octahedron_surface(), geoms)


def rotated_ideal_octahedron():
    """Ideal octahedron rotated so that no vertex hits the chart's
    projection direction (0,0,-1); all Gauss-map images are then circles."""
    from scipy.linalg import expm
    gens = mink.so31_basis()
    rot = expm(0.35 * gens[1] + 0.25 * gens[2])
    geoms = [polysurf.ideal_point(rot @ u) for u in octahedron_null_vectors()]
    return polysurf.PolySurface(octahedron_surface(), geoms)


def tetra_chart_points(z=None):
    """CP^1 chart positions (0, 1, inf, z) of an ideal tetrahedron."""
    if z is None:
        z = cmath.exp(1j * math.pi / 3.0)
    return [0j, 1 + 0j, complex(math.inf, 0.0), z]


def ideal_tetrahedron(z=None, scales=None):
    """Ideal tetrahedron over chart points 0, 1, inf, z (default regular)."""
    pts = tetra_chart_points(z)
    geoms = []
    for i, p in enumerate(pts):
        u = mink.chart_to_null(p)
        if scales is not None:
            u = math.exp(scales[i]) * u
        geoms.append(polysurf.ideal_point(u))
    return polysurf.PolySurface(tetrahedron_surface(), geoms)


_TETRA_DIRS = np.array([
    (1.0, 1.0, 1.0), (1.0, -1.0, -1.0), (-1.0, 1.0, -1.0), (-1.0, -1.0, 1.0),
]) / math.sqrt(3.0)


def compact_tetrahedron(radius=1.0):
    """Regular compact tetrahedron at the given circumradius about the origin."""
    geoms = []
    for d in _TETRA_DIRS:
        v = np.array([*(math.sinh(radius) * d), math.cosh(radius)])
        geoms.append(polysurf.compact_point(v))
    return polysurf.PolySurface(tetrahedron_surface(), geoms)


def hyperideal_tetrahedron(k=2.0):
    """Regular hyperideal tetrahedron: vertices (k d, sqrt(k^2-1)) in dS^3."""
    geoms = []
    for d in _TETRA_DIRS:
        v = np.array([*(k * d), math.sqrt(k * k - 1.0)])
        geoms.append(polysurf.hyper_point(v))
    return polysurf.PolySurface(tetrahedron_surface(), geoms)


def _separated_directions(rng, n):
    """Unit directions at pairwise angles above min(0.55, 2.46/sqrt(n)), by
    rejection.  The bound is 0.55 up to n = 20; beyond, it shrinks so that
    the caps keep the share of the sphere they cover at n = 20 (about 3/8,
    below the 0.55 at which random sequential packing jams)."""
    cos_sep = math.cos(min(0.55, 2.46 / math.sqrt(n)))
    dirs = []
    attempts = 0
    while len(dirs) < n:
        attempts += 1
        if attempts > 20000:
            raise RuntimeError("direction sampling failed")
        d = rng.normal(size=3)
        d = d / np.linalg.norm(d)
        if all(np.dot(d, e) < cos_sep for e in dirs):
            dirs.append(d)
    return np.array(dirs)


def _hull_faces(points3):
    """Outward-oriented triangles of the convex hull of 3d points."""
    from scipy.spatial import ConvexHull
    hull = ConvexHull(points3)
    if len(hull.vertices) != len(points3):
        raise RuntimeError("input points are not in convex position")
    faces = []
    for simplex, eq in zip(hull.simplices, hull.equations):
        a, b, c = simplex
        normal = eq[:3]
        if np.dot(np.cross(points3[b] - points3[a], points3[c] - points3[a]),
                  normal) < 0:
            a, b, c = a, c, b
        faces.append([int(a), int(b), int(c)])
    return faces


def random_convex_compact(seed, n=8):
    """Seeded random convex compact surface: n points on a sphere in H^3."""
    rng = np.random.default_rng(seed)
    n = max(n, 5)
    dirs = _separated_directions(rng, n)
    radius = 0.8 + 0.4 * rng.random()
    klein = math.tanh(radius) * dirs
    faces = _hull_faces(klein)
    surface = from_face_vertex_lists(faces, n_vertices=n)
    geoms = [polysurf.compact_point(
        np.array([*(math.sinh(radius) * d), math.cosh(radius)]))
        for d in dirs]
    return polysurf.PolySurface(surface, geoms)


def random_ideal(seed, n=8):
    """Seeded random ideal surface: n ideal points with random decorations."""
    rng = np.random.default_rng(seed)
    n = max(n, 5)
    dirs = _separated_directions(rng, n)
    # inside-ccw orientation, matching the cross-ratio angle convention
    faces = [f[::-1] for f in _hull_faces(dirs)]
    surface = from_face_vertex_lists(faces, n_vertices=n)
    geoms = []
    for d in dirs:
        u = np.array([d[0], d[1], d[2], 1.0])
        u = math.exp(rng.uniform(-0.3, 0.3)) * u
        geoms.append(polysurf.ideal_point(u))
    return polysurf.PolySurface(surface, geoms)


def flat_vertex_pyramid():
    """Double pyramid over a square with the lower apex flattened into the
    equatorial plane; the flat vertex admits a first-order isometric motion,
    so the rigidity kernel exceeds the trivial dimension."""
    rho, height = 0.9, 0.8
    base = []
    for i in range(4):
        phi = 2.0 * math.pi * i / 4.0
        base.append(np.array([math.sinh(rho) * math.cos(phi),
                              math.sinh(rho) * math.sin(phi), 0.0,
                              math.cosh(rho)]))
    top = np.array([0.0, 0.0, math.sinh(height), math.cosh(height)])
    flat = np.array([0.0, 0.0, 0.0, 1.0])
    pts = base + [top, flat]
    faces = [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4],
             [1, 0, 5], [2, 1, 5], [3, 2, 5], [0, 3, 5]]
    surface = from_face_vertex_lists(faces, n_vertices=6)
    geoms = [polysurf.compact_point(p) for p in pts]
    return polysurf.PolySurface(surface, geoms, strict=False)
