import functools
import itertools
import math
import operator
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endlab import cellsurf, polysurf
from endlab.cellsurf import (CellSurface, SurfaceFormatError,
                             from_face_vertex_lists, parse_surf, serialize_surf,
                             simple_cycles_upto, thurston_pattern,
                             validate_admissible, validate_hyperideal)
from endlab.fixtures import (genus2_surface, genus2_surface_file,
                             genus2_theta_bad_link, genus2_theta_uniform,
                             octahedron_surface, random_convex_compact,
                             tetrahedron_surface)
from octagon import genus2_complex
from scripts_path import INPUTS, spiral_module  # see conftest


def test_tetrahedron_counts():
    s = tetrahedron_surface()
    assert (s.n_vertices, s.n_edges, s.n_faces) == (4, 6, 4)
    assert s.genus() == 0
    assert s.is_quasi_simplicial()


def test_octahedron_counts():
    s = octahedron_surface()
    assert (s.n_vertices, s.n_edges, s.n_faces) == (6, 12, 8)
    assert s.genus() == 0
    assert all(s.vertex_degree(v) == 4 for v in range(6))


def test_vertex_star_closes():
    s = octahedron_surface()
    for v in range(s.n_vertices):
        star = s.vertex_star(v)
        assert len(star) == 4
        assert all(s.tail(d) == v for d in star)


def test_vertex_star_is_a_lookup(monkeypatch):
    s = genus2_surface()
    assert np.array_equal(s.fnext[s.fprev], np.arange(s.n_darts))
    walked = []
    for v in range(s.n_vertices):
        star = [min(d for d in range(s.n_darts) if s.tail(d) == v)]
        while s.vnext(star[-1]) != star[0]:
            star.append(s.vnext(star[-1]))
        walked.append(star)
    steps = []
    monkeypatch.setattr(CellSurface, "vnext", lambda self, d: steps.append(d))
    stars = [s.vertex_star(v) for v in range(s.n_vertices)]
    assert stars == walked and steps == []
    stars[0].append(-1)
    assert s.vertex_star(0) == walked[0]


def parent_walk_stars(self):
    """The star walk the constructor made before it stored the ``star`` and
    ``star_start`` arrays, kept as their oracle.  Verbatim (a method of
    CellSurface there)."""
    degree = np.bincount(self.dart_tail, minlength=self.n_vertices).tolist()
    first = {}
    for d, v in enumerate(self.dart_tail.tolist()):
        first.setdefault(v, d)
    stars = []
    for v in range(self.n_vertices):
        if v not in first:
            raise SurfaceFormatError("vertex %d has no darts" % v)
        star = [first[v]]
        nxt = self.vnext(star[0])
        while nxt != star[0]:
            star.append(nxt)
            nxt = self.vnext(nxt)
        if len(star) != degree[v]:
            raise SurfaceFormatError("vertex %d has a disconnected star" % v)
        stars.append(star)
    return stars


STAR_SURFACES = {
    "tetrahedron": tetrahedron_surface,
    "octahedron": octahedron_surface,
    "theta-sphere": lambda: CellSurface(
        2, [(0, 1), (0, 1), (0, 1)], [[0, 3], [2, 5], [4, 1]]),
    "loop-torus": lambda: CellSurface(1, [(0, 0), (0, 0)], [[0, 2, 1, 3]]),
    "genus2-complex": lambda: genus2_complex().surface,
    "genus2-data": lambda: parse_surf(genus2_surface_file().read_text()),
    "pattern-tetrahedron": lambda: thurston_pattern(tetrahedron_surface()),
    "pattern-genus2": lambda: thurston_pattern(genus2_surface()),
    "dual-genus2": lambda: cellsurf.dual_cell_surface(
        genus2_surface()),
    "hull-8": lambda: random_convex_compact(0, 8).base,
    "hull-60": lambda: random_convex_compact(3, 60).base,
    "pattern-hull-40": lambda: thurston_pattern(
        random_convex_compact(5, 40).base),
}


@pytest.mark.parametrize("relabel", [False, True],
                         ids=["as-built", "relabeled"])
@pytest.mark.parametrize("name", STAR_SURFACES)
def test_star_arrays_match_parent_walk(name, relabel):
    s = STAR_SURFACES[name]()
    if relabel:
        rng = np.random.default_rng(7)
        s = s.relabeled(rng.permutation(s.n_vertices).tolist(),
                        rng.permutation(s.n_edges).tolist())
    walked = parent_walk_stars(s)
    sizes = [len(star) for star in walked]
    assert s.star.tolist() == [d for star in walked for d in star]
    assert s.star_start.tolist() == np.cumsum([0] + sizes).tolist()
    assert [s.vertex_star(v) for v in range(s.n_vertices)] == walked
    assert [s.vertex_degree(v) for v in range(s.n_vertices)] == sizes
    assert cellsurf.dual_cell_surface(s).face_cycles == walked


def parent_check_connected(self):
    """The breadth-first search that checked connectivity before the
    labelling by pointer jumping, kept as its oracle.  Verbatim (a method
    of CellSurface there)."""
    if not self.n_vertices:
        raise SurfaceFormatError("no vertices")
    # the far end of each star dart, star by star
    head = self.dart_tail[self.star ^ 1].tolist()
    start = self.star_start.tolist()
    seen = [True] + [False] * (self.n_vertices - 1)
    todo = [0]
    for v in todo:
        for w in head[start[v]:start[v + 1]]:
            if not seen[w]:
                seen[w] = True
                todo.append(w)
    if not all(seen):
        raise SurfaceFormatError(
            "surface is not connected (vertex %d unreached from vertex 0)"
            % seen.index(False))


class UncheckedComponents(CellSurface):
    """CellSurface that leaves the connectivity check to the caller."""

    def _check_connected(self):
        pass


def _disjoint_union(surfaces, rng):
    """The disjoint union of ``surfaces``, its vertices and edges renamed
    at random."""
    edges, cycles, nv = [], [], 0
    for s in surfaces:
        cycles += [[d + 2 * len(edges) for d in cyc] for cyc in s.face_cycles]
        edges += [(u + nv, v + nv) for u, v in s.edges]
        nv += s.n_vertices
    vperm = rng.sample(range(nv), nv)
    eperm = rng.sample(range(len(edges)), len(edges))
    renamed = [None] * len(edges)
    for e, (u, v) in enumerate(edges):
        renamed[eperm[e]] = (vperm[u], vperm[v])
    return UncheckedComponents(nv, renamed, [
        [2 * eperm[d // 2] + d % 2 for d in cyc] for cyc in cycles])


@pytest.mark.parametrize("seed", range(16))
def test_components_found_as_the_parent_search_found_them(seed):
    # one to four surfaces side by side: the same verdict, and the same
    # least vertex unreached from vertex 0
    rng = random.Random(seed)
    names = sorted(STAR_SURFACES)
    s = _disjoint_union([STAR_SURFACES[rng.choice(names)]()
                         for _ in range(1 + seed % 4)], rng)

    def outcome(check):
        try:
            return check(s)
        except SurfaceFormatError as exc:
            return str(exc)

    assert outcome(CellSurface._check_connected) == outcome(
        parent_check_connected)


@pytest.mark.parametrize("name", STAR_SURFACES)
def test_cached_dart_arrays_are_the_surface_data(name):
    # one read-only array each, the face darts only for a triangulation
    s = STAR_SURFACES[name]()
    triangulated = all(len(c) == 3 for c in s.face_cycles)
    assert s.is_quasi_simplicial() == triangulated
    if triangulated:
        assert s.face_darts.tolist() == s.face_cycles
    else:
        assert s.face_darts is None
    assert s.rotation_next.tolist() == [s.vnext(d) for d in range(s.n_darts)]
    assert s.degrees.tolist() == [s.vertex_degree(v)
                                  for v in range(s.n_vertices)]
    for attr in ("face_darts", "rotation_next", "degrees"):
        a = getattr(s, attr)
        assert a is getattr(s, attr)
        if a is not None:
            with pytest.raises(ValueError):
                a[0] = 0


def test_parse_builds_no_face_darts_or_degrees():
    # a quad pattern's parse pays only for the arrays the constructor reads
    s = parse_surf(serialize_surf(thurston_pattern(tetrahedron_surface())))
    assert not {"face_darts", "degrees"} & set(vars(s))
    assert not s.is_quasi_simplicial()


def test_vertex_without_darts_rejected():
    sphere = ("v 0\nv 1\nv 2\ne 0 0 1\ne 1 1 2\ne 2 2 0\n"
              "f 0 0+ 1+ 2+\nf 1 2- 1- 0-\n")
    assert parse_surf(sphere).genus() == 0
    with pytest.raises(SurfaceFormatError, match="vertex 3 has no darts"):
        parse_surf(sphere + "v 3\nv 4\n")


def test_face_cycle_consistency_rejected():
    # [0, 4, 2] is not head-to-tail (dart 0 ends at vertex 1, dart 4 starts at 2)
    with pytest.raises(SurfaceFormatError):
        CellSurface(3, [(0, 1), (1, 2), (2, 0)], [[0, 4, 2], [1, 5, 3]])
    # consistent orientation works
    CellSurface(3, [(0, 1), (1, 2), (2, 0)], [[0, 2, 4], [5, 3, 1]])


# ---------------------------------------------------------------------------
# surf v1 round trip


def test_surf_roundtrip_bytes():
    s = octahedron_surface().with_theta(np.full(12, math.pi / 2))
    text = serialize_surf(s)
    s2 = parse_surf(text)
    assert serialize_surf(s2) == text
    assert s2.genus() == 0


def test_surf_parse_error_line():
    with pytest.raises(SurfaceFormatError) as err:
        parse_surf("v 0\nv 1\ne 0 0 zzz\n")
    assert "line 3" in str(err.value)


def test_surf_truncated_missing_face():
    with pytest.raises(SurfaceFormatError):
        parse_surf("v 0\nv 1\ne 0 0 1\n")


@pytest.mark.parametrize("record,what", [("v", "vertex"), ("e", "edge"),
                                         ("f", "face"), ("theta", "theta")])
def test_surf_duplicate_record_rejected(record, what):
    text = serialize_surf(thurston_pattern(tetrahedron_surface()))
    lines = text.splitlines()
    first = next(ln for ln in lines if ln.split()[0] == record)
    lines.append(first)
    with pytest.raises(SurfaceFormatError,
                       match="line %d: duplicate %s %s"
                       % (len(lines), what, first.split()[1])):
        parse_surf("\n".join(lines) + "\n")


SPHERE = ("v 0\nv 1\nv 2\ne 0 0 1\ne 1 1 2\ne 2 2 0\n"
          "f 0 0+ 1+ 2+\nf 1 2- 1- 0-\n")


def two_spheres(second, first=(0, 1, 2)):
    """Two triangle spheres, on the triples ``first`` and ``second``, with
    theta 2*pi/3 on every edge (each face sums to 2*pi)."""
    ends = [pair for tri in (first, second)
            for pair in zip(tri, tri[1:] + tri[:1])]
    lines = ["v %d" % v for v in range(1 + max(first + second))]
    lines += ["e %d %d %d" % (e, u, v) for e, (u, v) in enumerate(ends)]
    lines += ["f 0 0+ 1+ 2+", "f 1 2- 1- 0-", "f 2 3+ 4+ 5+", "f 3 5- 4- 3-"]
    lines += ["theta %d %.17g" % (e, 2 * math.pi / 3) for e in range(6)]
    return "\n".join(lines) + "\n"


def both_readers(cases, ids):
    """pytest params of the argument tuples ``cases`` with their ``ids``,
    each with one argument more for the ``reader`` fixture (indirect):
    once as "c", numpy's C reader on, under its id, and once as "python",
    that reader off, under its id and "-python-reader"."""
    return ([pytest.param(*case, "c", id=i) for case, i in zip(cases, ids)]
            + [pytest.param(*case, "python", id=i + "-python-reader")
               for case, i in zip(cases, ids)])


MALFORMED_SURF = [
    (SPHERE + "x 1\n", "line 9: unrecognized record 'x'"),
    (SPHERE.replace("f 0 0+ 1+ 2+", "f 0 0+ 1 2+"), "line 7: dart token '1'"),
    (SPHERE.replace("f 0 0+ 1+ 2+", "f 0"), "line 7: empty face"),
    (SPHERE.replace("f 1 2- 1- 0-", "f 1 0+ 1+ 2+"), "dart 0 used twice"),
    (two_spheres((0, 3, 4)), "vertex 0 has a disconnected star"),
    (two_spheres((3, 4, 5)),
     "surface is not connected (vertex 3 unreached from vertex 0)"),
    # two faults each: the first in face order, then in vertex order, wins
    (SPHERE.replace("f 0 0+ 1+ 2+", "f 0 0+ 1+ 2+ 0+")
     .replace("f 1 2- 1- 0-", "f 1 2- 1- 5-"), "dart 0 used twice"),
    (two_spheres((3, 4, 5), first=(1, 2, 3)), "vertex 0 has no darts"),
    (two_spheres((1, 4, 5)) + "v 6\n", "vertex 1 has a disconnected star"),
    # a record of a known kind with the wrong number of fields
    (SPHERE + "e\n", "line 9: e record needs 4 fields, got 1"),
    (SPHERE.replace("e 1 1 2", "e 1 1 2 0"),
     "line 5: e record needs 4 fields, got 5"),
    (SPHERE.replace("v 2", "v"), "line 3: v record needs 2 fields, got 1"),
    (SPHERE + "v 3 3\n", "line 9: v record needs 2 fields, got 3"),
    (SPHERE + "theta 0\n", "line 9: theta record needs 3 fields, got 2"),
    # within a record, a theta value is read before its id
    (SPHERE + "theta 0 1\ntheta 0 nan\n", "line 10: non-finite theta 'nan'"),
    (SPHERE + "theta x nan\n", "line 9: non-finite theta 'nan'"),
    # numpy's C reader reads U+0761 as a digit, and drops the NUL of a word
    (SPHERE.replace("e 1 1 2", "e 1 1 2\u0761"),
     "line 5: invalid literal for int() with base 10: '2\u0761'"),
    (SPHERE.replace("f 0 0+", "f 0\u0761 0+"),
     "line 7: invalid literal for int() with base 10: '0\u0761'"),
    (SPHERE.replace("v 2", "v\x00 2"), "line 3: unrecognized record 'v\\x00'"),
]


@pytest.mark.parametrize("text,message,reader", both_readers(
    MALFORMED_SURF,
    ["unrecognized-record", "dart-token", "empty-face", "dart-used-twice",
     "disconnected-star", "two-components", "used-twice-then-out-of-range",
     "no-darts-then-disconnected-star", "disconnected-star-then-no-darts",
     "bare-e", "long-e", "bare-v", "long-v", "short-theta",
     "value-before-id", "value-before-bad-id", "non-ascii-digit",
     "non-ascii-face-id", "nul-in-kind"]), indirect=["reader"])
def test_malformed_surf_rejected(text, message, reader):
    with pytest.raises(SurfaceFormatError) as err:
        parse_surf(text)
    assert str(err.value) == message


def test_empty_complex_rejected():
    with pytest.raises(SurfaceFormatError, match="no vertices"):
        CellSurface(0, [], [])


# ---------------------------------------------------------------------------
# the columnar parser against the per-line parser it replaced


class ParentFaceLoop(CellSurface):
    """CellSurface whose constructor checks the face cycles with the
    per-dart loop it had before the array checks, kept as their oracle.
    Verbatim, bar the class line, and the face cycles laid end to end,
    which the class keeps as arrays now, derived from the lists."""

    @property
    def cycle_darts(self):
        return np.array([d for cyc in self.face_cycles for d in cyc],
                        dtype=int)

    @property
    def cycle_start(self):
        return np.cumsum([0] + [len(cyc) for cyc in self.face_cycles])

    def __init__(self, n_vertices, edges, face_cycles, theta=None):
        self.n_vertices = int(n_vertices)
        self.edges = [(int(u), int(v)) for u, v in edges]
        self.n_edges = len(self.edges)
        self.n_darts = 2 * self.n_edges
        self.face_cycles = [list(map(int, c)) for c in face_cycles]
        self.theta = None if theta is None else np.asarray(theta, dtype=float)

        self.dart_tail = np.array(self.edges, dtype=int).reshape(self.n_darts)
        outside = (self.dart_tail < 0) | (self.dart_tail >= self.n_vertices)
        if outside.any():
            raise SurfaceFormatError(
                "edge %d endpoint out of range 0..%d"
                % (np.argmax(outside) // 2, self.n_vertices - 1))
        tail = self.dart_tail.tolist()
        fnext, face = [-1] * self.n_darts, [-1] * self.n_darts
        for f, cyc in enumerate(self.face_cycles):
            if not cyc:
                raise SurfaceFormatError("empty face cycle")
            for d in cyc:
                if not 0 <= d < self.n_darts:
                    raise cellsurf._DartOutOfRange(d, f)
            for d, dn in zip(cyc, cyc[1:] + cyc[:1]):
                if fnext[d] != -1:
                    raise SurfaceFormatError("dart %d used twice" % d)
                if tail[d ^ 1] != tail[dn]:
                    raise SurfaceFormatError(
                        "face cycle not head-to-tail at dart %d" % d)
                fnext[d] = dn
                face[d] = f
        if -1 in fnext:
            raise SurfaceFormatError(
                "dart %d missing from faces" % fnext.index(-1))
        self.fnext = np.array(fnext, dtype=int)
        self.dart_face = np.array(face, dtype=int)
        self.fprev = np.empty(self.n_darts, dtype=int)
        self.fprev[self.fnext] = np.arange(self.n_darts)
        #: the vertex stars: vertex v's darts, in rotation order from its
        #: lowest dart, are star[star_start[v]:star_start[v + 1]]
        self.star, self.star_start = self._walk_stars()
        self._check_connected()
        if self.theta is not None and len(self.theta) != self.n_edges:
            raise SurfaceFormatError("theta length != edge count")


def parent_record(lines, token, what, ln):
    """Record id ``token`` read on line ``ln``; rejects a repeated id."""
    key = int(token)
    if key in lines:
        raise ValueError("duplicate %s %d" % (what, key))
    lines[key] = ln
    return key


def parent_check_ids(lines, count, message):
    """Record ids must be exactly 0..count-1; an error names the line of the
    first record whose id lies outside that range, when there is one."""
    if sorted(lines) != list(range(count)):
        outside = [ln for key, ln in lines.items() if not 0 <= key < count]
        raise SurfaceFormatError(message, line=min(outside, default=None))


#: the field count of the records the oracle names in its field-count error
FIELD_COUNT = {"v": 2, "e": 4, "theta": 3}


def parent_parse_surf(text, geom_records=None):
    """The per-line parser that the columnar one replaced, kept as its
    oracle.  Verbatim, bar the helper and class names and the field-count
    error of a v, e or theta record (an unrecognized record before)."""
    vertex_lines = {}
    edges, edge_lines = {}, {}
    faces, face_lines = {}, {}
    thetas, theta_lines = {}, {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "v" and len(parts) == 2:
                parent_record(vertex_lines, parts[1], "vertex", ln)
            elif parts[0] == "e" and len(parts) == 4:
                e = parent_record(edge_lines, parts[1], "edge", ln)
                edges[e] = (int(parts[2]), int(parts[3]))
            elif parts[0] == "f":
                cyc = []
                for tok in parts[2:]:
                    if tok[-1] not in "+-":
                        raise ValueError("dart token %r" % tok)
                    cyc.append(2 * int(tok[:-1]) + (0 if tok[-1] == "+" else 1))
                if not cyc:
                    raise ValueError("empty face")
                faces[parent_record(face_lines, parts[1], "face", ln)] = cyc
            elif parts[0] == "theta" and len(parts) == 3:
                value = float(parts[2])
                if not math.isfinite(value):
                    raise ValueError("non-finite theta %r" % parts[2])
                thetas[parent_record(theta_lines, parts[1], "theta", ln)] = value
            elif parts[0] == "geom":
                if geom_records is not None:
                    geom_records.append((ln, parts))
            elif parts[0] in FIELD_COUNT:
                raise ValueError("%s record needs %d fields, got %d"
                                 % (parts[0], FIELD_COUNT[parts[0]],
                                    len(parts)))
            else:
                raise ValueError("unrecognized record %r" % parts[0])
        except ValueError as exc:
            raise SurfaceFormatError(str(exc), line=ln) from exc
    n_vertices = len(vertex_lines)
    if not n_vertices:
        raise SurfaceFormatError("no vertices")
    parent_check_ids(vertex_lines, n_vertices, "vertex ids must be 0..n-1")
    for e, ends in edges.items():
        if not all(0 <= u < n_vertices for u in ends):
            raise SurfaceFormatError("edge %d endpoint out of range 0..%d"
                                     % (e, n_vertices - 1),
                                     line=edge_lines[e])
    parent_check_ids(edge_lines, len(edges), "edge ids must be 0..m-1")
    parent_check_ids(face_lines, len(faces), "face ids must be 0..k-1")
    theta = None
    if thetas:
        parent_check_ids(theta_lines, len(edges), "theta must cover all edges")
        theta = [thetas[e] for e in range(len(edges))]
    try:
        return ParentFaceLoop(n_vertices,
                              [edges[e] for e in range(len(edges))],
                              [faces[f] for f in range(len(faces))], theta)
    except cellsurf._DartOutOfRange as exc:
        raise SurfaceFormatError(str(exc), line=face_lines[exc.face]) from None


SURF_CORPUS = {
    "packaged-genus2": lambda: genus2_surface_file().read_text(),
    **{path.name: path.read_text
       for path in sorted(INPUTS.iterdir()) if path.suffix == ".surf"},
    "octahedron-poly": (INPUTS / "octahedron.poly").read_text,
    "pattern-tetrahedron": lambda: serialize_surf(
        thurston_pattern(tetrahedron_surface())),
    "pattern-octahedron": lambda: serialize_surf(thurston_pattern(
        octahedron_surface().with_theta(np.full(12, math.pi / 2)))),
    "pattern-genus2": lambda: serialize_surf(
        thurston_pattern(genus2_surface())),
}


def _records_by_kind(lines):
    out = {}
    for i, ln in enumerate(lines):
        parts = ln.split("#", 1)[0].split()
        if parts:
            out.setdefault(parts[0], []).append(i)
    return out


#: Arabic-Indic digits, which Python's int and float read as ASCII digits
ARABIC_DIGITS = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663"
                              "\u0664\u0665\u0666\u0667\u0668\u0669")
#: reals that Python's float and numpy's reader may read apart
REAL_FORMS = ["1_0.5", "0x1p3", "1e999", "+1.5", "1.5_0", "\u0663.5", "1.5"]
#: whitespace that splits fields, or lines (all but the last)
SEPARATORS = ["\x0b", "\x0c", "\x1c", "\u3000", "\xa0", "\x1f", "\t"]


def _int_forms(digits):
    """``digits`` written in ways that Python's int and numpy's reader may
    read apart, and past int64."""
    return ["+" + digits, "00" + digits,
            digits[:1] + "_" + (digits[1:] or "0"),
            digits.translate(ARABIC_DIGITS), str(2 ** 63), str(10 ** 20)]


def _mutate(lines, rng):
    """``lines`` of a surf v1 text with one seeded fault put in (or, when
    the fault picked has no record to go in, unchanged)."""
    lines = list(lines)
    records = _records_by_kind(lines)
    count = {kind: len(ix) for kind, ix in records.items()}
    n_v, n_e = count.get("v", 0), count.get("e", 0)
    huge = 10 ** 20
    how = rng.choice(["drop-field", "add-field", "duplicate", "drop-record",
                      "sign", "theta", "endpoint", "dart", "id",
                      "empty-face", "swap-darts", "reuse-dart", "unknown",
                      "int-form", "real-form", "separator"])
    kind = {"sign": "f", "theta": "theta", "endpoint": "e", "dart": "f",
            "empty-face": "f", "swap-darts": "f", "reuse-dart": "f",
            "real-form": "theta"}.get(how) or rng.choice(sorted(records))
    if kind not in records:
        return lines
    i = rng.choice(records[kind])
    parts = lines[i].split("#", 1)[0].split()
    darts = list(range(2, len(parts))) if kind == "f" else []
    if how == "drop-field":
        del parts[rng.randrange(len(parts))]
    elif how == "add-field":
        parts.insert(rng.randrange(1, len(parts) + 1),
                     rng.choice(["7", "x", "1+", "nan", "0"]))
    elif how == "duplicate":
        lines.insert(rng.randrange(len(lines) + 1), lines[i])
        return lines
    elif how == "drop-record":
        return lines[:i] + lines[i + 1:]
    elif how == "sign" and darts:
        j = rng.choice(darts)
        parts[j] = parts[j][:-1] + rng.choice("*x0")
    elif how == "theta":
        parts[-1] = rng.choice(["nan", "inf", "-inf", "1e999", "-nan"])
    elif how == "endpoint":
        parts[rng.choice([2, 3])] = str(rng.choice([n_v, n_v + 5, -1, huge]))
    elif how == "dart" and darts:
        parts[rng.choice(darts)] = "%d%s" % (
            rng.choice([n_e, n_e + 3, -1, huge]), rng.choice("+-"))
    elif how == "id":
        parts[1] = str(rng.choice([count[kind], count[kind] + 2, -1, huge]))
    elif how == "empty-face":
        parts = parts[:rng.choice([1, 2])]
    elif how == "swap-darts" and len(darts) > 1:
        a, b = rng.sample(darts, 2)
        parts[a], parts[b] = parts[b], parts[a]
    elif how == "reuse-dart" and darts:
        other = lines[rng.choice(records["f"])].split()[2:]
        if other:
            parts[rng.choice(darts)] = rng.choice(other)
    elif how == "unknown":
        parts[0] = rng.choice(["x", "vv", "E"])
    elif how == "int-form" and len(parts) > 1:
        # an id, an edge end or a dart's edge id; theta values stay
        j = 1 if kind == "theta" else rng.randrange(1, len(parts))
        sign = parts[j][-1] if j > 1 and kind == "f" else ""
        parts[j] = rng.choice(_int_forms(parts[j][:len(parts[j])
                                                  - len(sign)])) + sign
    elif how == "real-form":
        parts[-1] = rng.choice(REAL_FORMS)
    elif how == "separator":
        j = rng.randrange(1, len(parts) + 1)
        lines[i] = (" ".join(parts[:j]) + rng.choice(SEPARATORS)
                    + " ".join(parts[j:]))
        return lines
    lines[i] = " ".join(parts)
    return lines


def _outcome(parse, text):
    """The serialized surface, or the (type, message) of what was raised."""
    try:
        return serialize_surf(parse(text))
    except Exception as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("name,reader", both_readers(
    [(name,) for name in SURF_CORPUS], SURF_CORPUS), indirect=["reader"])
def test_parse_surf_matches_per_line_parser_on_mutations(name, reader):
    # one fault, or two in one file: the same surface or the same first
    # error (type, message and line) as the per-line parser, whichever
    # reader reads it
    lines = SURF_CORPUS[name]().splitlines()
    rng = random.Random(name)
    errors = set()
    for trial in range(120):
        mutated = _mutate(lines, rng)
        if trial % 3 == 2:
            mutated = _mutate(mutated, rng)
        text = "\n".join(mutated) + "\n"
        expected = _outcome(parent_parse_surf, text)
        assert _outcome(parse_surf, text) == expected, text
        if isinstance(expected, tuple):
            assert expected[0] in {"SurfaceFormatError", "_DartOutOfRange"}
            errors.add(re.sub(r"'.*'|-?\d+", "N", expected[1]))
    # the corpus reaches the record, id and face-cycle checks alike
    assert len(errors) >= 12, sorted(errors)


def _mutate_cycles(cycles, n_darts, rng):
    """Face cycles with one or two seeded faults."""
    cycles = [list(c) for c in cycles]
    for _ in range(rng.choice([1, 2])):
        f = rng.randrange(len(cycles))
        cyc = cycles[f]
        how = rng.choice(["empty", "out", "huge", "swap", "reuse", "drop",
                          "move"])
        if how == "empty":
            cyc.clear()
        elif how == "out" and cyc:
            cyc[rng.randrange(len(cyc))] = rng.choice([-1, n_darts,
                                                       n_darts + 1])
        elif how == "huge" and cyc:
            cyc[rng.randrange(len(cyc))] = rng.choice([2 ** 64, -2 ** 70])
        elif how == "swap" and len(cyc) > 1:
            a, b = rng.sample(range(len(cyc)), 2)
            cyc[a], cyc[b] = cyc[b], cyc[a]
        elif how == "reuse" and cyc:
            cyc[rng.randrange(len(cyc))] = rng.randrange(n_darts)
        elif how == "drop" and cyc:
            del cyc[rng.randrange(len(cyc))]
        elif how == "move" and cyc:
            cycles[rng.randrange(len(cycles))].append(
                cyc.pop(rng.randrange(len(cyc))))
    return cycles


@pytest.mark.parametrize("name", STAR_SURFACES)
def test_face_checks_match_per_dart_loop(name):
    # the array checks meet the first fault in face order, as the loop did
    s = STAR_SURFACES[name]()
    rng = random.Random(name)

    def build(cls, cycles):
        try:
            t = cls(s.n_vertices, s.edges, cycles)
            return t.fnext.tolist(), t.dart_face.tolist(), t.star.tolist()
        except Exception as exc:
            return type(exc).__name__, str(exc), getattr(exc, "face", None)

    assert build(CellSurface, s.face_cycles) == build(ParentFaceLoop,
                                                      s.face_cycles)
    for _ in range(150):
        cycles = _mutate_cycles(s.face_cycles, s.n_darts, rng)
        assert build(CellSurface, cycles) == build(ParentFaceLoop, cycles)


def _scrambled(text, rng):
    """surf/poly text with its records shuffled, comments, tabs and blank
    lines put in, and the header dropped."""
    records = [ln for ln in text.splitlines() if not ln.startswith("#")]
    rng.shuffle(records)
    out = []
    for ln in records:
        ln = rng.choice(["\t", "  ", ""]) + ln.replace(" ", rng.choice(
            [" ", "\t", " \t "]))
        if rng.random() < 0.3:
            ln += rng.choice(["  # note", "#x", "\t# v 9 # nested"])
        out.append(ln)
        if rng.random() < 0.2:
            out.append(rng.choice(["", "   ", "# a comment", "\t"]))
    return "\r\n".join(out) + "\n"


@pytest.mark.parametrize("name", SURF_CORPUS)
def test_surf_records_in_any_order_with_comments(name):
    text = SURF_CORPUS[name]()
    canonical = serialize_surf(parse_surf(text))
    rng = random.Random(name)
    for _ in range(5):
        assert serialize_surf(parse_surf(_scrambled(text, rng))) == canonical


def test_comment_keeps_line_numbers():
    # a comment between a carriage return and a line feed ends no line
    text = "v 0\r# note\nv 0\n"
    with pytest.raises(SurfaceFormatError, match="^line 3: duplicate vertex 0$"):
        parse_surf(text)


def test_python_readers_read_only_what_the_c_reader_rejects(monkeypatch):
    # numpy's reader alone reads every golden input; an id that only
    # Python's int reads sends the text to the Python readers, which read
    # the same surface
    calls = []
    for module, name in ((cellsurf, "_python_records"),
                         (polysurf, "_python_geoms")):
        monkeypatch.setattr(module, name, functools.partial(
            lambda read, name, *args: calls.append(name) or read(*args),
            getattr(module, name), name))
    for path in sorted(INPUTS.iterdir()):
        (polysurf.parse_poly if path.suffix == ".poly" else parse_surf)(
            path.read_text())
    assert not calls
    text = (INPUTS / "genus2_uniform.surf").read_text()
    odd = text.replace("v 0\n", "v 0_0\n", 1)
    assert serialize_surf(parse_surf(odd)) == serialize_surf(parse_surf(text))
    assert calls == ["_python_records"]
    text = (INPUTS / "octahedron.poly").read_text()
    odd = text.replace("geom 0 ", "geom 0_0 ", 1)
    assert (polysurf.serialize_poly(polysurf.parse_poly(odd))
            == polysurf.serialize_poly(polysurf.parse_poly(text)))
    assert calls == ["_python_records", "_python_geoms"]


# ---------------------------------------------------------------------------
# Thurston pattern


def test_thurston_pattern_tetrahedron():
    pat = thurston_pattern(tetrahedron_surface())
    assert pat.n_vertices == 4 + 4
    assert pat.n_edges == 12
    assert pat.n_faces == 6
    assert pat.genus() == 0
    assert all(len(c) == 4 for c in pat.face_cycles)
    # bipartite between original vertices and faces
    for u, v in pat.edges:
        assert (u < 4) != (v < 4)
    # exact face sums
    for cyc in pat.face_cycles:
        s = sum(pat.theta[d // 2] for d in cyc)
        assert s == 2.0 * math.pi


def test_thurston_pattern_genus2():
    pat = thurston_pattern(genus2_surface())
    assert pat.n_vertices == 34
    assert pat.n_edges == 72
    assert pat.n_faces == 36
    assert pat.genus() == 2
    assert all(len(c) == 4 for c in pat.face_cycles)


def test_thurston_pattern_rejects_quads():
    pat = thurston_pattern(tetrahedron_surface())
    with pytest.raises(SurfaceFormatError, match="triangulation"):
        thurston_pattern(pat)


# ---------------------------------------------------------------------------
# cycle enumeration


def brute_force_cycles(n_vertices, adjacency, l_max):
    """Oracle: enumerate closed walks by BFS and filter simple cycles."""
    found = set()

    def walk(vseq, eseq):
        v = vseq[-1]
        for w, e in adjacency[v]:
            if e in eseq:
                continue
            if w == vseq[0] and eseq:
                cyc_v, cyc_e = vseq, eseq + [e]
                if len(set(cyc_v)) == len(cyc_v) and len(cyc_e) <= l_max:
                    key = canonical(cyc_v, cyc_e)
                    found.add(key)
            if w not in vseq and len(eseq) + 1 < l_max:
                walk(vseq + [w], eseq + [e])

    def canonical(vs, es):
        k = len(es)
        best = None
        for rev in (False, True):
            v2 = vs[::-1] if rev else list(vs)
            e2 = es[::-1] if rev else list(es)
            if rev:
                v2 = v2[-1:] + v2[:-1]
            for r in range(k):
                cand = (tuple(v2[r:] + v2[:r]), tuple(e2[r:] + e2[:r]))
                if best is None or cand < best:
                    best = cand
        return best

    for s in range(n_vertices):
        walk([s], [])
    return found


def test_cycle_enumeration_matches_bruteforce():
    for surface, l_max in ((octahedron_surface(), 5),
                           (thurston_pattern(octahedron_surface()), 6)):
        adj = surface.adjacency()
        ours = simple_cycles_upto(surface.n_vertices, adj, l_max)
        assert len(set(ours)) == len(ours)
        assert set(ours) == brute_force_cycles(surface.n_vertices, adj, l_max)


def test_cycle_enumeration_multiedge():
    # two vertices joined by three parallel edges (theta sphere)
    s = CellSurface(2, [(0, 1), (0, 1), (0, 1)],
                    [[0, 3], [2, 5], [4, 1]])
    assert s.genus() == 0
    cycles = simple_cycles_upto(s.n_vertices, s.adjacency(), 4)
    assert len(cycles) == 3  # pairs of parallel edges


# The unpruned depth-first searches the pruned ones replaced, kept as the
# ordered-output oracle: the pruned searches must return the same list, in
# the same order.


def reference_canon(vseq, eseq):
    best = None
    for rev in (False, True):
        vs = vseq[::-1] if rev else vseq
        es = eseq[::-1] if rev else eseq
        if rev:
            vs = vs[-1:] + vs[:-1]
        for r in range(len(eseq)):
            cand = (tuple(vs[r:] + vs[:r]), tuple(es[r:] + es[:r]))
            if best is None or cand < best:
                best = cand
    return best


def reference_simple_cycles_upto(n_vertices, adjacency, l_max):
    seen = set()
    out = []

    def dfs(start, v, vpath, epath):
        for w, e in adjacency[v]:
            if w == start:
                # closing the cycle (covers loop edges when epath is empty)
                if e in epath or len(epath) + 1 > l_max:
                    continue
                key = reference_canon(vpath, epath + [e])
                if key not in seen:
                    seen.add(key)
                    out.append(key)
                continue
            if w in vpath or w < start or len(epath) + 1 >= l_max:
                continue
            dfs(start, w, vpath + [w], epath + [e])

    for start in range(n_vertices):
        dfs(start, start, [start], [])
    return out


def reference_closed_trails_upto(n_vertices, adjacency, l_max, theta, budget):
    seen = set()
    out = []

    def dfs(start, v, vpath, epath, used, total):
        for w, e in adjacency[v]:
            if e in used:
                continue
            t = total + theta[e]
            if t > budget or len(epath) + 1 > l_max:
                continue
            if w == start:
                key = reference_canon(vpath, epath + [e])
                if key not in seen:
                    seen.add(key)
                    out.append(key)
            if w >= start and len(epath) + 1 < l_max:
                used.add(e)
                dfs(start, w, vpath + [w], epath + [e], used, t)
                used.remove(e)

    for start in range(n_vertices):
        dfs(start, start, [start], [], set(), 0.0)
    return out


def parent_starts(n_vertices, adjacency, l_max, need):
    """The distance-ball table the recursive searches used before they read
    :func:`cellsurf._need`, kept for the oracle below.  Verbatim: yield each
    start s with ``need[w]`` set: 1 at s, the distance to s through
    vertices >= s within l_max // 2, else l_max + 1 (unreachable)."""
    for start in range(n_vertices):
        need[start] = 1
        ball, frontier = [start], [start]
        for r in range(1, l_max // 2 + 1):
            frontier = {w for v in frontier for w, _ in adjacency[v]
                        if w > start and need[w] > r}
            for w in frontier:
                need[w] = r
            ball += frontier
        yield start
        for w in ball:
            need[w] = l_max + 1


def parent_canon(vseq, eseq):
    """The canonicaliser the recursive searches used.  Verbatim: least
    (vertex tuple, edge tuple) over rotations and reflections of a closed
    walk given as aligned vertex and edge lists that begin at its least
    vertex: over the rotations that begin there, just two when the walk
    passes that vertex once (as every simple cycle does)."""
    vs, es = tuple(vseq), tuple(eseq)
    back = vs[:1] + vs[:0:-1], es[::-1]
    if vs.count(vs[0]) == 1:
        return min((vs, es), back)
    return min((v[r:] + v[:r], e[r:] + e[:r])
               for v, e in ((vs, es), back)
               for r, u in enumerate(v) if u == vs[0])


def pruned_simple_cycles_upto(n_vertices, adjacency, l_max):
    """The recursive depth-first search the level-synchronous array search
    replaced, kept as the ordered-output oracle: its list, in its order, is
    what simple_cycles_upto must iterate.  Verbatim."""
    out = []
    need = [l_max + 1] * n_vertices
    on_path = [False] * n_vertices
    epath = []

    def dfs(v, room):
        for w, e in adjacency[v]:
            if w == start:
                # closing the cycle (a loop edge when epath is empty)
                if room > 0 and (not epath or e > epath[0]):
                    out.append(parent_canon(vpath, epath + [e]))
            elif need[w] < room and not on_path[w]:
                on_path[w] = True
                vpath.append(w)
                epath.append(e)
                dfs(w, room - 1)
                on_path[w] = False
                vpath.pop()
                epath.pop()

    for start in parent_starts(n_vertices, adjacency, l_max, need):
        vpath = [start]
        dfs(start, l_max)
    return out


def hyperideal_dual_graph(surface):
    """(n, adjacency, theta) of the dual graph validate_hyperideal searches."""
    seen = []
    search = cellsurf.simple_cycles_upto

    def capture(n_vertices, adjacency, l_max):
        seen.append((n_vertices, adjacency, surface.theta))
        return search(n_vertices, adjacency, l_max)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(cellsurf, "simple_cycles_upto", capture)
        theta = np.full(surface.n_edges, 0.5 * math.pi)
        validate_hyperideal(surface.with_theta(theta), l_max=1)
    (graph,) = seen
    return graph


def surface_graph(surface):
    return surface.n_vertices, surface.adjacency(), surface.theta


def input_graph(name):
    return surface_graph(parse_surf((INPUTS / name).read_text()))


def multigraph(n_vertices, edges):
    """(n, adjacency, None) of a graph given by its edges alone, with the
    adjacency lists in edge-id order, as CellSurface.adjacency builds them."""
    adj = [[] for _ in range(n_vertices)]
    for e, (u, v) in enumerate(edges):
        adj[u].append((v, e))
        if u != v:
            adj[v].append((u, e))
    return n_vertices, adj, None


def random_multigraph(seed, n_vertices=5, n_edges=10):
    rng = np.random.default_rng(seed)
    return multigraph(n_vertices, rng.integers(0, n_vertices,
                                               size=(n_edges, 2)).tolist())


ORACLE_GRAPHS = {
    "octahedron": lambda: surface_graph(octahedron_surface()),
    "theta-sphere": lambda: surface_graph(CellSurface(
        2, [(0, 1), (0, 1), (0, 1)], [[0, 3], [2, 5], [4, 1]])),
    "loop-torus": lambda: surface_graph(CellSurface(
        1, [(0, 0), (0, 0)], [[0, 2, 1, 3]])),
    "pattern": lambda: input_graph("pattern.surf"),
    "pattern-bad": lambda: input_graph("pattern_bad.surf"),
    "genus2-uniform": lambda: input_graph("genus2_uniform.surf"),
    "data-genus2": lambda: surface_graph(
        parse_surf(genus2_surface_file().read_text())),
    "dual-tetrahedron": lambda: hyperideal_dual_graph(tetrahedron_surface()),
    "dual-octahedron": lambda: hyperideal_dual_graph(octahedron_surface()),
    "dual-genus2": lambda: hyperideal_dual_graph(genus2_surface()),
    # loops at the start vertex, whose trails are met in both directions
    "two-loops-two-parallel": lambda: multigraph(
        2, [(0, 0), (0, 1), (0, 0), (1, 0)]),
    "loops-both-ends": lambda: multigraph(
        3, [(1, 2), (0, 0), (0, 1), (1, 1), (0, 1), (0, 0), (2, 0)]),
    "random-multigraph": lambda: random_multigraph(3),
}
for _seed in (0, 1, 2):
    ORACLE_GRAPHS["random-pattern-%d" % _seed] = (
        lambda seed=_seed: surface_graph(
            thurston_pattern(random_convex_compact(seed, 8).base)))


@pytest.mark.parametrize("name", ORACLE_GRAPHS)
def test_need_rows_are_the_parent_distance_balls(name):
    # closed_trails_upto reads these rows, with its start set to 1
    n, adj, _ = ORACLE_GRAPHS[name]()
    off, nbr, _ = cellsurf._csr(adj)
    for l_max in (1, 4, 8, 9):
        rows = cellsurf._need(off, nbr, np.arange(n), n, l_max).tolist()
        need = [l_max + 1] * n
        for start in parent_starts(n, adj, l_max, need):
            rows[start][start] = 1
            assert rows[start] == need


@pytest.mark.parametrize("name", ORACLE_GRAPHS)
def test_pruned_searches_match_unpruned_order(name):
    """Same lists in the same order for every l_max up to 8, or 12 on graphs
    of at most 8 vertices; trails weigh pi/2 per edge where the graph
    carries no theta."""
    n, adj, theta = ORACLE_GRAPHS[name]()
    if theta is None:
        theta = np.full(1 + max(e for row in adj for _, e in row), 0.5 * math.pi)
    budget = 2 * math.pi + cellsurf.TAU_ANG
    for l_max in range(1, (12 if n <= 8 else 8) + 1):
        assert (list(simple_cycles_upto(n, adj, l_max))
                == reference_simple_cycles_upto(n, adj, l_max)), l_max
        assert (list(cellsurf.closed_trails_upto(n, adj, l_max, theta,
                                                 budget))
                == reference_closed_trails_upto(n, adj, l_max, theta,
                                                budget)), l_max


@pytest.mark.parametrize("name", ["theta-sphere", "loop-torus", "pattern",
                                  "dual-octahedron", "two-loops-two-parallel",
                                  "loops-both-ends", "random-multigraph"])
def test_searches_meet_each_cycle_once_in_any_adjacency_order(name):
    # the start-edge rules keep one traversal whatever the order of the
    # adjacency lists; only the order of the output depends on it
    n, adj, theta = ORACLE_GRAPHS[name]()
    if theta is None:
        theta = np.full(1 + max(e for row in adj for _, e in row), 0.5 * math.pi)
    budget = 2 * math.pi + cellsurf.TAU_ANG
    rng = np.random.default_rng(11)
    undirected = lambda p: min((tuple(p[0]), tuple(p[1])),
                               (tuple(p[0][::-1]), tuple(p[1][::-1])))
    for trial in range(3):
        shuffled = [[row[i] for i in rng.permutation(len(row))] for row in adj]
        for l_max in range(1, 7):
            for ours, want in (
                    (simple_cycles_upto(n, shuffled, l_max),
                     reference_simple_cycles_upto(n, adj, l_max)),
                    (cellsurf.closed_trails_upto(n, shuffled, l_max, theta,
                                                 budget),
                     reference_closed_trails_upto(n, adj, l_max, theta,
                                                  budget))):
                assert len(set(ours)) == len(ours)
                assert set(ours) == set(want), (trial, l_max)
            endpoints = set(range(0, n, 2))
            ours = [undirected(p[1:]) for p in return_paths(
                shuffled, [sorted(endpoints)], l_max, theta, math.inf)]
            want = _parent_simple_paths_between(adj, endpoints, l_max)
            assert len(set(ours)) == len(ours)
            assert set(ours) == {undirected(p) for p in want}, (trial, l_max)


def blocked_simple_cycles_upto(n_vertices, adjacency, l_max, block):
    """simple_cycles_upto with ``block`` starts per block of its search."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cellsurf, "START_BLOCK", block)
        return simple_cycles_upto(n_vertices, adjacency, l_max)


@pytest.mark.parametrize("name", ORACLE_GRAPHS)
def test_array_search_keeps_depth_first_order_in_any_adjacency_order(name):
    # the order follows the adjacency lists as given; blocks of one and of
    # three starts put block boundaries everywhere
    n, adj, _ = ORACLE_GRAPHS[name]()
    rng = np.random.default_rng(5)
    lists = [adj] + [[[row[i] for i in rng.permutation(len(row))]
                      for row in adj] for _ in range(2)]
    for trial, rows in enumerate(lists):
        for l_max in range(1, 9):
            want = pruned_simple_cycles_upto(n, rows, l_max)
            for block in (1, 3, cellsurf.START_BLOCK):
                got = blocked_simple_cycles_upto(n, rows, l_max, block)
                assert list(got) == want, (trial, l_max, block)


@given(st.integers(0, 100_000), st.integers(1, 6), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_array_search_keeps_depth_first_order_on_random_multigraphs(
        seed, l_max, block):
    # loops, parallel edges and isolated vertices, lists in random order
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 8))
    _, adj, _ = multigraph(n, rng.integers(
        0, n, size=(int(rng.integers(0, 14)), 2)).tolist())
    adj = [[row[i] for i in rng.permutation(len(row))] for row in adj]
    got = blocked_simple_cycles_upto(n, adj, l_max, block)
    assert list(got) == pruned_simple_cycles_upto(n, adj, l_max)


def benchmark_pattern(n, seed):
    """The benchmark's pattern-n surface, as bench/cases.py builds it."""
    index = 9 if n == 128 else 10  # its place among the benchmark inputs
    return spiral_module().build("pattern", n,
                                 np.random.default_rng([seed, index]))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_array_search_matches_depth_first_search_at_benchmark_scale(seed):
    for n, checked in ((128, 4410), (512, 18138)):
        s = benchmark_pattern(n, seed)
        adj = s.adjacency()
        assert (list(simple_cycles_upto(s.n_vertices, adj, 8))
                == pruned_simple_cycles_upto(s.n_vertices, adj, 8)), n
        rep = validate_admissible(s, l_max=8)
        assert (rep.passed, rep.checked_cycles) == (True, checked), n


def _peak_bytes(check, *args, **kwargs):
    tracemalloc.start()
    try:
        check(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cycle_search_memory_bound():
    # the blocks of starts bound the frontier: one block of all 512 starts
    # peaks at 15 MB, blocks of 64 at 4.0 MB (the recursive search, 5.9 MB);
    # the trails of pattern-512 at 2.6 MB (the recursive search, 2.2 MB);
    # the return paths of the compact-128 hull at 4.4 MB (the recursive
    # search, 1.9 MB), of which the frontier of 64 starts is 2.7 MB
    s = benchmark_pattern(512, 1)
    for simple in (True, False):
        peak = _peak_bytes(validate_admissible, s, l_max=8,
                           simple_cycles_only=simple)
        assert peak <= 8 * 2**20, (simple, peak / 2**20)
    spiral = spiral_module()
    hull = from_face_vertex_lists(
        spiral.hull_faces(spiral.spiral_directions(128)), n_vertices=128)
    peak = _peak_bytes(validate_hyperideal,
                       hull.with_theta(np.full(hull.n_edges, 0.4)), l_max=8)
    assert peak <= 8 * 2**20, peak / 2**20


def test_validators_reject_l_max_below_one():
    s = thurston_pattern(octahedron_surface())
    for l_max in (0, -3):
        with pytest.raises(ValueError, match="l_max"):
            validate_admissible(s, l_max=l_max)
        with pytest.raises(ValueError, match="l_max"):
            validate_hyperideal(octahedron_surface().with_theta(
                np.full(12, 0.5 * math.pi)), l_max=l_max)


# ---------------------------------------------------------------------------
# genus-1 contractibility against winding numbers


def grid_torus():
    """3x3 grid on the torus, each square split by its diagonal; vertex
    (i, j) of the grid has id 3i + j."""
    vid = lambda i, j: 3 * (i % 3) + j % 3
    faces = []
    for i in range(3):
        for j in range(3):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            faces += [[a, b, c], [a, c, d]]
    return from_face_vertex_lists(faces)


def winding(surface, darts):
    """Sum of the lifted grid displacements of a closed dart path."""
    total = [0, 0]
    for d in darts:
        u, w = surface.tail(d), surface.head(d)
        total[0] += (w // 3 - u // 3 + 1) % 3 - 1
        total[1] += (w % 3 - u % 3 + 1) % 3 - 1
    return tuple(total)


def test_torus_contractibility_matches_winding_numbers():
    s = grid_torus()
    assert (s.n_vertices, s.n_edges, s.n_faces, s.genus()) == (9, 27, 18, 1)
    oracle = cellsurf.ContractibilityOracle(s)
    adj = s.adjacency()
    for cycles, count, contractible in (
            (simple_cycles_upto(9, adj, 6), 1233, 234),
            (cellsurf.closed_trails_upto(9, adj, 6, [1.0] * s.n_edges,
                                         math.inf), 1557, 396)):
        flags = [oracle.cycle_is_contractible(list(vs), list(es))
                 for vs, es in cycles]
        assert flags == [winding(s, cellsurf.cycle_to_darts(s, vs, es))
                         == (0, 0) for vs, es in cycles]
        assert (len(cycles), sum(flags)) == (count, contractible)
    rep = validate_admissible(s.with_theta([2 * math.pi / 3] * s.n_edges),
                              l_max=6)
    assert rep.passed and rep.checked_cycles == 216


# ---------------------------------------------------------------------------
# admissibility


def test_admissible_thurston_pattern_passes():
    pat = thurston_pattern(tetrahedron_surface())
    rep = validate_admissible(pat)
    assert rep.passed
    assert all(abs(s - 2 * math.pi) < 1e-12 for s in rep.face_sums)


def test_admissible_perturbed_face_fails():
    pat = thurston_pattern(tetrahedron_surface())
    theta = pat.theta.copy()
    # raising one weight perturbs that edge's two face sums by +0.1
    theta[0] += 0.1
    rep = validate_admissible(pat.with_theta(theta))
    assert not rep.passed
    kinds = {w.kind for w in rep.violations}
    assert "face-sum" in kinds
    locs = [w.location for w in rep.violations if w.kind == "face-sum"]
    assert len(locs) == 2


def test_admissible_theta_range_checked():
    pat = thurston_pattern(tetrahedron_surface())
    theta = pat.theta.copy()
    theta[3] = math.pi
    with pytest.raises(SurfaceFormatError, match="weight out of"):
        validate_admissible(pat.with_theta(theta))


@pytest.mark.parametrize("edge,value,shown", [
    (0, 4.0, "4"), (3, math.pi, "3.14159265359"), (5, 0.0, "0"),
    (7, -1.5, "-1.5"), (2, math.nan, "nan"), (9, math.inf, "inf")])
def test_theta_range_error_names_first_edge(edge, value, shown):
    # the first offending edge in id order, with its value
    pat = thurston_pattern(tetrahedron_surface())
    theta = pat.theta.copy()
    theta[edge] = value
    theta[edge + 1] = 5.0
    with pytest.raises(SurfaceFormatError) as err:
        validate_admissible(pat.with_theta(theta))
    assert str(err.value) == "weight out of (0,pi): edge %d has %s" % (
        edge, shown)


def test_theta_range_error_of_parsed_text():
    text = serialize_surf(thurston_pattern(tetrahedron_surface()))
    text = re.sub("(?m)^theta 0 .*$", "theta 0 4", text)
    with pytest.raises(SurfaceFormatError,
                       match=re.escape("weight out of (0,pi): edge 0 has 4")):
        validate_admissible(parse_surf(text))


def test_admissible_genus2_uniform_passes():
    s = genus2_surface().with_theta(genus2_theta_uniform())
    rep = validate_admissible(s)
    assert rep.passed
    assert rep.checked_cycles > 0


def test_bad_link_weights_are_the_committed_input():
    # bit for bit the weights of genus2_bad_link.surf, with every face
    # summing to 2*pi and the link 4-cycle of vertex 1 summing below it
    theta, link_edges = genus2_theta_bad_link()
    text = (INPUTS / "genus2_bad_link.surf").read_text()
    committed = parse_surf(text).theta
    assert theta.tobytes() == committed.tobytes()
    s = genus2_surface()
    assert serialize_surf(s.with_theta(theta)) == text
    for cyc in s.face_cycles:
        assert abs(sum(theta[d // 2] for d in cyc) - 2 * math.pi) <= 1e-10
    assert len(link_edges) == 4
    assert sum(theta[e] for e in link_edges) < 2 * math.pi


def test_admissible_genus2_bad_link_fails_with_witness():
    # the failing witness is a vertex link, which revisits the cone apex:
    # only the trail mode (simple_cycles_only=False) can see it
    theta, link_edges = genus2_theta_bad_link()
    rep = validate_admissible(genus2_surface().with_theta(theta),
                              simple_cycles_only=False)
    assert not rep.passed
    hits = [w for w in rep.violations if w.kind == "contractible-cycle"]
    assert hits
    assert any(sorted(w.location[1:]) == link_edges for w in hits)


def test_admissible_genus2_bad_link_invisible_to_simple_mode():
    theta, _ = genus2_theta_bad_link()
    rep = validate_admissible(genus2_surface().with_theta(theta),
                              simple_cycles_only=True)
    assert rep.passed


class OctagonLabelOracle:
    """ContractibilityOracle with the octagon fixture's labels, primal or
    dual: the oracle the validators used on genus 2 before they read a
    presentation off the surface's own cells."""

    def __init__(self, surface):
        g = genus2_complex()
        self.surface = surface
        self.genus = surface.genus()
        self.labels = (g.presentation if surface.n_vertices == 10
                       else g.dual_presentation)

    def cycle_is_contractible(self, vseq, eseq):
        return self.labels.cycle_is_contractible(
            cellsurf.cycle_to_darts(self.surface, vseq, eseq))


GENUS2_WEIGHTS = {"uniform": genus2_theta_uniform,
                  "bad-link": lambda: genus2_theta_bad_link()[0]}


@pytest.mark.parametrize("weights", GENUS2_WEIGHTS)
@pytest.mark.parametrize("l_max", [4, 6])
def test_admissible_genus2_without_labels_is_the_labelled_verdict(
        monkeypatch, weights, l_max):
    s = genus2_surface().with_theta(GENUS2_WEIGHTS[weights]())
    reports = []
    for oracle in (cellsurf.ContractibilityOracle, OctagonLabelOracle):
        monkeypatch.setattr(cellsurf, "ContractibilityOracle", oracle)
        reports.append([validate_admissible(s, l_max=l_max,
                                            simple_cycles_only=simple)
                        for simple in (True, False)])
    assert reports[0] == reports[1]
    assert reports[0][1].passed == (weights == "uniform" or l_max < 4)


def _violation_edges(surface, report, eperm=None):
    """Sorted (kind, edge multiset) of each violation, edges mapped through
    ``eperm``; a face-sum witness stands for its face's edges."""
    out = []
    for w in report.violations:
        if w.kind == "face-sum":
            edges = [d // 2 for d in surface.face_cycles[w.location[1]]]
        else:
            edges = w.location[1:]
        if eperm is not None:
            edges = [eperm[e] for e in edges]
        out.append((w.kind, tuple(sorted(edges))))
    return sorted(out)


def test_admissible_relabel_invariant():
    for nerve, seed in itertools.product(
            (tetrahedron_surface, octahedron_surface), range(3)):
        pat = thurston_pattern(nerve())
        rng = np.random.default_rng(seed)
        theta = pat.theta.copy()
        theta[rng.integers(pat.n_edges)] += rng.uniform(-0.3, 0.3)
        bad = pat.with_theta(theta)
        vperm = list(rng.permutation(bad.n_vertices))
        eperm = list(rng.permutation(bad.n_edges))
        rel = bad.relabeled(vperm, eperm)
        rep, rep_rel = (validate_admissible(s, l_max=8) for s in (bad, rel))
        assert not rep.passed and not rep_rel.passed
        assert rep.checked_cycles == rep_rel.checked_cycles > 0
        assert (_violation_edges(bad, rep, eperm)
                == _violation_edges(rel, rep_rel))


# ---------------------------------------------------------------------------
# hyperideal conditions


def test_hyperideal_near_pi_passes():
    s = tetrahedron_surface().with_theta(np.full(6, math.pi - 0.05))
    rep = validate_hyperideal(s)
    assert rep.passed


def test_hyperideal_octahedron_right_angles_fails_cycle():
    s = octahedron_surface().with_theta(np.full(12, math.pi / 2))
    rep = validate_hyperideal(s)
    assert not rep.passed
    assert any(w.kind == "dual-cycle" and abs(w.value - 2 * math.pi) < 1e-12
               for w in rep.violations)


def test_hyperideal_random_matches_bruteforce_verdict():
    rng = np.random.default_rng(31)
    s = tetrahedron_surface()
    for _ in range(12):
        theta = rng.uniform(0.3, math.pi - 0.01, size=6)
        surf = s.with_theta(theta)
        rep = validate_hyperideal(surf, l_max=6)
        oracle = hyperideal_bruteforce(surf, l_max=6)
        assert rep.passed == oracle


def _left_sum(values):
    """The values added left to right, as the validators add theta on
    every Python version (the builtin sum compensates from 3.12 on)."""
    return functools.reduce(operator.add, values, 0.0)


def hyperideal_bruteforce(surface, l_max):
    """Oracle: exhaustive dual walks on a genus-0 surface.

    condition (1) over all simple dual cycles; condition (2) over all
    simple dual paths between faces sharing a vertex that leave the star.
    """
    th = surface.theta
    duals = surface.dual_edges()
    adj = [[] for _ in range(surface.n_faces)]
    for e, (f1, f2) in enumerate(duals):
        adj[f1].append((f2, e))
        adj[f2].append((f1, e))
    for vs, es in brute_force_cycles(surface.n_faces, adj, l_max):
        if _left_sum(th[e] for e in es) <= 2 * math.pi + 1e-9:
            return False
    for v in range(surface.n_vertices):
        star = surface.vertex_star(v)
        faces = {int(surface.dart_face[d]) for d in star}
        star_edges = {d // 2 for d in star}
        paths = []

        def dfs(vseq, eseq):
            cur = vseq[-1]
            for w, e in adj[cur]:
                if e in eseq or len(eseq) >= l_max:
                    continue
                if w in faces and len(eseq) + 1 >= 2 and w not in vseq[1:]:
                    paths.append(eseq + [e])
                if w not in vseq:
                    dfs(vseq + [w], eseq + [e])

        for f in faces:
            dfs([f], [])
        for es in paths:
            if all(e in star_edges for e in es):
                continue
            if _left_sum(th[e] for e in es) <= math.pi + 1e-9:
                return False
    return True


def test_hyperideal_genus2_with_labels():
    ok = genus2_surface().with_theta(np.full(36, 0.52 * math.pi))
    rep = validate_hyperideal(ok, l_max=6)
    assert rep.passed
    assert rep.checked_cycles > 0

    bad = genus2_surface().with_theta(np.full(36, 0.45 * math.pi))
    rep2 = validate_hyperideal(bad, l_max=6)
    assert not rep2.passed
    assert any(w.kind == "dual-cycle" for w in rep2.violations)


@pytest.mark.parametrize("weights",
                         [*GENUS2_WEIGHTS, "0.3pi", "0.45pi", "0.52pi"])
@pytest.mark.parametrize("l_max", [4, 6])
def test_hyperideal_genus2_without_labels_is_the_labelled_verdict(
        monkeypatch, weights, l_max):
    theta = (np.full(36, float(weights[:-2]) * math.pi)
             if weights.endswith("pi") else GENUS2_WEIGHTS[weights]())
    s = genus2_surface().with_theta(theta)
    reports = []
    for oracle in (cellsurf.ContractibilityOracle, OctagonLabelOracle):
        monkeypatch.setattr(cellsurf, "ContractibilityOracle", oracle)
        reports.append(validate_hyperideal(s, l_max=l_max))
    assert reports[0] == reports[1]
    assert reports[0].passed == (weights not in ("0.3pi", "0.45pi"))


def test_hyperideal_genus2_return_paths_need_labels():
    # at l_max=3 the dual graph has no short cycles, so only the return-path
    # condition needs contractibility, which the dual surface's own
    # presentation decides
    s = genus2_surface().with_theta(np.full(36, 0.3 * math.pi))
    rep = validate_hyperideal(s, l_max=3)
    assert not rep.passed
    assert len(rep.violations) == 32


def _hyperideal_checking_every_return_path(surface, l_max):
    """validate_hyperideal as it was before return paths were compared with
    pi first: the Dehn test runs on every return path of the unpruned
    search.  Verbatim loops."""
    report = cellsurf.ValidationReport(True)
    th = surface.theta
    duals = surface.dual_edges()

    dual_adj = [[] for _ in range(surface.n_faces)]
    for e, (f1, f2) in enumerate(duals):
        dual_adj[f1].append((f2, e))
        if f1 != f2:
            dual_adj[f2].append((f1, e))

    dual_surface = cellsurf.dual_cell_surface(surface)
    oracle = cellsurf.ContractibilityOracle(dual_surface)

    # condition (1): contractible dual cycles
    for vseq, eseq in simple_cycles_upto(surface.n_faces, dual_adj, l_max):
        if not oracle.cycle_is_contractible(list(vseq), list(eseq)):
            continue
        report.checked_cycles += 1
        s = float(_left_sum(th[e] for e in eseq))
        if s <= 2.0 * math.pi + cellsurf.TAU_ANG:
            report.passed = False
            report.violations.append(cellsurf.Witness(
                "dual-cycle", ("edges",) + tuple(eseq), s, 2.0 * math.pi))

    # condition (2): face-homotopic return paths
    for v in range(surface.n_vertices):
        b_edges = [d // 2 for d in surface.vertex_star(v)]
        b_faces = [int(surface.dart_face[d]) for d in surface.vertex_star(v)]
        for path_vseq, path_eseq in _parent_simple_paths_between(
                dual_adj, set(b_faces), l_max):
            if all(e in b_edges for e in path_eseq):
                continue
            if not cellsurf._returns_through_face(
                    oracle, b_faces, b_edges, path_vseq, path_eseq):
                continue
            s = float(_left_sum(th[e] for e in path_eseq))
            if s <= math.pi + cellsurf.TAU_ANG:
                report.passed = False
                report.violations.append(cellsurf.Witness(
                    "return-path", ("vertex", v, "edges") + tuple(path_eseq),
                    s, math.pi))
    return report


@pytest.mark.parametrize("theta", ["0.3pi", "0.45pi", "0.52pi", "bad-link",
                                   "random-0", "random-1"])
def test_hyperideal_return_paths_same_violations_as_dehn_first(theta):
    # comparing with pi before the Dehn test only skips paths that are no
    # witness: the violations, in order, are those of testing every path;
    # the random weights put return paths on both sides of pi
    n = genus2_surface().n_edges
    if theta == "bad-link":
        values = genus2_theta_bad_link()[0]
    elif theta.startswith("random"):
        rng = np.random.default_rng(int(theta[-1]))
        values = rng.uniform(0.2 * math.pi, 0.6 * math.pi, size=n)
    else:
        values = np.full(n, float(theta[:-2]) * math.pi)
    s = genus2_surface().with_theta(values)
    rep = validate_hyperideal(s, l_max=6)
    old = _hyperideal_checking_every_return_path(s, 6)
    assert rep.violations == old.violations
    assert (rep.passed, rep.checked_cycles) == (old.passed, old.checked_cycles)
    assert any(w.kind == "return-path" for w in old.violations) \
        == (theta in ("0.3pi", "random-0", "random-1"))


def test_hyperideal_return_paths_same_violations_at_l_max_8():
    # the budget prune at pi only drops paths that are no witness; random
    # weights put return paths of up to 5 edges on both sides of pi
    rng = np.random.default_rng(0)
    s = genus2_surface().with_theta(
        rng.uniform(0.2 * math.pi, 0.6 * math.pi, size=36))
    rep = validate_hyperideal(s, l_max=8)
    old = _hyperideal_checking_every_return_path(s, 8)
    assert rep.violations == old.violations
    assert (rep.passed, rep.checked_cycles) == (old.passed, old.checked_cycles)
    assert any(w.kind == "return-path" for w in rep.violations)


@pytest.mark.parametrize("l_max", [6, 8])
def test_witnesses_do_not_depend_on_the_builtin_sum(request, l_max):
    # Python 3.12 and later add floats in the builtin sum with Neumaier
    # compensation; every witness must keep its bits under that sum
    rng = np.random.default_rng(0)
    s = genus2_surface().with_theta(
        rng.uniform(0.2 * math.pi, 0.6 * math.pi, size=36))
    hyper = validate_hyperideal(s, l_max=l_max)
    primal = validate_admissible(s, l_max=l_max)
    assert any(w.kind == "return-path" for w in hyper.violations)
    request.getfixturevalue("compensated_builtin_sum")  # from here on
    assert validate_hyperideal(s, l_max=l_max).violations == hyper.violations
    assert validate_admissible(s, l_max=l_max).violations == primal.violations
    old = _hyperideal_checking_every_return_path(s, l_max)
    assert old.violations == hyper.violations


def _parent_simple_paths_between(adjacency, endpoints, l_max):
    """The recursive return-path search (``_simple_paths_between``) before
    its budget prune and in-place path stacks; the array search replaced
    it.  Verbatim."""
    out = []
    seen = set()

    def record(vseq, eseq):
        key = (tuple(vseq), tuple(eseq))
        rkey = (key[0][::-1], key[1][::-1])
        if key not in seen and rkey not in seen:
            seen.add(key)
            out.append((list(vseq), list(eseq)))

    def dfs(v, vpath, epath):
        for w, e in adjacency[v]:
            if len(epath) + 1 > l_max or e in epath:
                continue
            if w in endpoints and len(epath) + 1 >= 2 and w not in vpath[1:]:
                record(vpath + [w], epath + [e])
            if w not in vpath and len(epath) + 1 < l_max:
                dfs(w, vpath + [w], epath + [e])

    for s in sorted(endpoints):
        dfs(s, [s], [])
    return out


def return_paths(adjacency, sets, l_max, theta, budget):
    """cellsurf._return_paths from the endpoint sets ``sets``, as (set
    index, vertex list, edge list) triples."""
    set_off = np.cumsum([0] + [len(m) for m in sets])
    members = np.array([x for m in sets for x in m], dtype=np.intp)
    return [(i, v[:n + 1], e[:n])
            for owner, verts, edges, length in cellsurf._return_paths(
                len(adjacency), adjacency, set_off, members, l_max,
                np.asarray(theta, dtype=float), budget)
            for i, v, e, n in zip(owner.tolist(), verts.tolist(),
                                  edges.tolist(), length.tolist())]


def parent_return_paths(adjacency, sets, l_max, theta, budget):
    """The same from the parent search: each set's list in its order, the
    paths above the budget dropped."""
    return [(i, vseq, eseq) for i, m in enumerate(sets)
            for vseq, eseq in _parent_simple_paths_between(
                adjacency, set(m), l_max)
            if _left_sum(theta[e] for e in eseq) <= budget]


@pytest.mark.parametrize("name", ORACLE_GRAPHS)
def test_simple_paths_between_match_parent_search(name):
    # the return-path search from several endpoint sets at once: unweighted,
    # the parent's lists set after set in the same order; weighted, those
    # lists filtered by the budget, still in order
    n, adj, _ = ORACLE_GRAPHS[name]()
    n_edges = 1 + max(e for nbrs in adj for _, e in nbrs)
    rng = np.random.default_rng(7)
    for l_max in (2, 3, 5, 7):
        sets = [rng.choice(n, size=min(size, n), replace=False).tolist()
                for size in (1, 2, 3)]
        theta = rng.uniform(0.2 * math.pi, 0.6 * math.pi, size=n_edges)
        old = parent_return_paths(adj, sets, l_max, theta, math.inf)
        for budget in (math.pi, 1.7 * math.pi, math.inf):
            assert return_paths(adj, sets, l_max, theta, budget) == [
                p for p in old if _left_sum(theta[e] for e in p[2]) <= budget]


@given(st.integers(0, 100_000), st.integers(1, 6),
       st.sampled_from([1, 3, cellsurf.START_BLOCK]),
       st.sampled_from([2 * math.pi + cellsurf.TAU_ANG,
                        math.pi + cellsurf.TAU_ANG, math.inf]))
@settings(max_examples=150, deadline=None)
def test_trail_and_return_path_modes_match_their_references(
        seed, l_max, block, budget):
    # loops, parallel edges and isolated vertices, random weights; endpoint
    # sets with repeats, as faces repeat around a vertex.  The lists are in
    # edge-id order, where each reference meets first the traversal that
    # the start-edge rules keep
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    n_edges = int(rng.integers(0, 12))
    _, adj, _ = multigraph(n, rng.integers(0, n, size=(n_edges, 2)).tolist())
    theta = rng.uniform(0.1 * math.pi, 0.9 * math.pi, size=n_edges)
    sets = [rng.integers(0, n, size=int(rng.integers(1, 5))).tolist()
            for _ in range(int(rng.integers(1, 4)))]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cellsurf, "START_BLOCK", block)
        trails = list(cellsurf.closed_trails_upto(n, adj, l_max, theta,
                                                  budget))
        paths = return_paths(adj, sets, l_max, theta, budget)
    assert trails == reference_closed_trails_upto(n, adj, l_max, theta,
                                                  budget)
    assert paths == parent_return_paths(adj, sets, l_max, theta, budget)
