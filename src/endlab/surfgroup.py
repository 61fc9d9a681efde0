"""Surface group words, Dehn's algorithm, and octagon developments.

Words in the genus-g surface group <a1,b1,...,ag,bg | prod [ai,bi]> are
tuples of nonzero ints: letter i is the i-th generator, -i its inverse.
For genus 2 the generators print as a,b,c,d (capital = inverse).

Dehn's algorithm for the standard relator: cyclically reduce, then replace
any subword that is more than half of a cyclic form of the relator (or its
inverse) by the inverse of the complementary part; a word is trivial iff
this terminates at the empty word.  The standard surface relator has
pieces of length 1, so the algorithm is a decision procedure, and no two
cyclic forms share a prefix longer than half the relator: every such
prefix is one key of a table built once, and each replacement is a lookup.

The octagon machinery realizes the closed genus-2 surface as a regular
hyperbolic octagon (all corner angles pi/4) with boundary word
a b a^-1 b^-1 c d c^-1 d^-1 read counterclockwise and side k glued to the
side carrying the inverse letter.  Crossing side k multiplies the deck
position on the right by a fixed isometry D_k and appends a fixed letter;
the letters are chosen so that the walk around the single vertex class
spells the standard relator exactly (asserted at construction, together
with the matrix identity rho(relator) = +-1).  Developing a dart path of
the trisected-and-coned fixture through the polygon yields the homotopy
class of the path as a word.  The fixture develops each dart once, as the
based loop through a spanning tree, and each dual dart once, as the side
it crosses; the word of a closed primal or dual path is then the product
of its darts' words, a conjugate of its class, which Dehn's algorithm
decides.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .cellsurf import CellSurface

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


# ---------------------------------------------------------------------------
# words


def parse_word(text):
    """Parse a genus-2 word in 'abAB' or spaced 'a b a- b-' notation into a
    letter tuple."""
    letters = []
    toks = text.split() if " " in text.strip() else list(text.strip())
    i = 0
    toks = [t for t in toks if t]
    while i < len(toks):
        t = toks[i]
        if len(t) == 2 and t[1] == "-":
            base, inv = t[0], True
        elif len(t) == 1 and i + 1 < len(toks) and toks[i + 1] == "-":
            base, inv = t, True
            i += 1
        else:
            base, inv = t, t.isupper()
        idx = _LETTERS.index(base.lower()) + 1
        if idx > 4:
            raise ValueError("letter %r outside genus-2 alphabet" % t)
        letters.append(-idx if inv else idx)
        i += 1
    return tuple(letters)


def format_word(word):
    if not word:
        return "1"
    return "".join(_LETTERS[abs(x) - 1].upper() if x < 0 else _LETTERS[x - 1]
                   for x in word)


def invert_word(word):
    return tuple(-x for x in reversed(word))


def free_reduce(word):
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def cyclic_reduce(word):
    w = list(free_reduce(word))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def standard_relator(genus):
    rel = []
    for i in range(genus):
        a = 2 * i + 1
        b = 2 * i + 2
        rel += [a, b, -a, -b]
    return tuple(rel)


def _long_pieces(relator):
    """Dehn's replacement table: every prefix longer than half of a cyclic
    form of the relator or its inverse, mapped to the inverse of the rest of
    the form."""
    half = len(relator) // 2
    table = {}
    for base in (relator, invert_word(relator)):
        for r in range(len(base)):
            form = base[r:] + base[:r]
            for length in range(half + 1, len(form) + 1):
                # pieces of length 1: no two forms share a prefix this long
                assert form[:length] not in table, form
                table[form[:length]] = invert_word(form[length:])
    return table


class SurfaceGroupPresentation:
    """Standard presentation of the genus-g surface group, with the long
    relator pieces of Dehn's algorithm tabled once."""

    def __init__(self, genus):
        if genus < 2:
            raise ValueError("Dehn's algorithm needs genus >= 2")
        self.genus = genus
        self.relator = standard_relator(genus)
        self._pieces = _long_pieces(self.relator)

    def _replace_piece(self, w):
        """Cyclic word w with its longest, then leftmost, long relator piece
        replaced by the inverse of the complement; None when it has none."""
        n = len(w)
        doubled = w + w
        for length in range(min(n, len(self.relator)), len(self.relator) // 2,
                            -1):
            for start in range(n):
                rest = self._pieces.get(doubled[start:start + length])
                if rest is not None:
                    return cyclic_reduce(doubled[start + length:start + n]
                                         + rest)
        return None

    def dehn_reduce(self, word):
        """Shorten by Dehn replacements until no long relator piece remains."""
        w = cyclic_reduce(word)
        while w and (shorter := self._replace_piece(w)) is not None:
            w = shorter
        return w

    def is_trivial(self, word):
        return len(self.dehn_reduce(word)) == 0


# ---------------------------------------------------------------------------
# Moebius helpers (unit disk model)


def mobius_apply(m, z):
    num = m[0, 0] * z + m[0, 1]
    den = m[1, 0] * z + m[1, 1]
    return num / den


def _disk_map_two_points(p, q):
    """Isometry of the disk sending p to 0 and q to the positive real axis."""
    mp = np.array([[1.0, -p], [-np.conj(p), 1.0]], dtype=complex)
    qq = mobius_apply(mp, q)
    phi = cmath.phase(qq)
    rot = np.array([[cmath.exp(-1j * phi), 0.0], [0.0, 1.0]], dtype=complex)
    return rot @ mp


def disk_isometry(p, q, p2, q2):
    """The unique orientation-preserving isometry with p->p2, q->q2."""
    t1 = _disk_map_two_points(p, q)
    t2 = _disk_map_two_points(p2, q2)
    return np.linalg.solve(t2, t1)


def normalize_det(m):
    s = cmath.sqrt(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    return m / s


def matrix_is_identity_class(m, tol=1e-8):
    m = normalize_det(np.asarray(m, dtype=complex))
    eye = np.eye(2)
    return min(np.max(np.abs(m - eye)), np.max(np.abs(m + eye))) < tol


# ---------------------------------------------------------------------------
# the octagon schema


#: boundary letters of the octagon, counterclockwise
_BOUNDARY = (1, 2, -1, -2, 3, 4, -3, -4)
#: glued partner of each side
_SIGMA = (2, 3, 0, 1, 6, 7, 4, 5)
#: letter appended when crossing each side (chosen so that the walk around
#: the vertex class spells the standard relator)
_CROSS_LETTER = (1, -2, -1, 2, 3, -4, -3, 4)

CENTER = -1


class OctagonSchema:
    """Regular octagon with side pairings, matrices, and crossing letters."""

    def __init__(self):
        beta = math.pi / 8.0
        apex = math.pi / 4.0
        cosh_r = (math.cos(beta) * (1.0 + math.cos(apex))
                  / (math.sin(apex) * math.sin(beta)))
        r_euc = math.tanh(0.5 * math.acosh(cosh_r))
        self.corners = [r_euc * cmath.exp(2j * math.pi * k / 8.0)
                        for k in range(8)]
        self.pairing = []
        for k in range(8):
            m = _SIGMA[k]
            d = disk_isometry(self.corners[m], self.corners[(m + 1) % 8],
                              self.corners[(k + 1) % 8], self.corners[k])
            self.pairing.append(normalize_det(d))
        for k in range(8):
            prod = self.pairing[k] @ self.pairing[_SIGMA[k]]
            assert matrix_is_identity_class(prod, 1e-9)
        self.presentation = SurfaceGroupPresentation(2)
        word, mat = self._vertex_cycle()
        assert free_reduce(word) == self.presentation.relator, word
        assert matrix_is_identity_class(mat, 1e-8)

    def rho(self, word):
        """Matrix of a word under the deck representation."""
        gen = {1: self.pairing[0], 2: self.pairing[3],
               3: self.pairing[4], 4: self.pairing[7]}
        m = np.eye(2, dtype=complex)
        for x in word:
            g = gen[abs(x)]
            m = m @ (g if x > 0 else np.linalg.inv(g))
        return m

    def _vertex_cycle(self):
        word = []
        mat = np.eye(2, dtype=complex)
        k = 0
        for _ in range(8):
            word.append(_CROSS_LETTER[k])
            mat = mat @ self.pairing[k]
            k = (_SIGMA[k] + 1) % 8
        assert k == 0
        return tuple(word), mat

    def crossings(self, pos):
        """Single-crossing teleports from a boundary position.

        Returns (new_pos, side) pairs: position 3k+j on side k maps to
        3*sigma(k) + (3-j); a corner lies on two sides.
        """
        out = []
        k, j = divmod(pos, 3)
        if j == 0:
            out.append(((3 * (_SIGMA[k] + 1)) % 24, k))
            km = (k - 1) % 8
            out.append((3 * _SIGMA[km] % 24, km))
        else:
            out.append((3 * _SIGMA[k] + 3 - j, k))
        return out


class DevelopState:
    """Deck position while developing a path: word, matrix, polygon position."""

    def __init__(self, schema, pos):
        self.schema = schema
        self.word = []
        self.matrix = np.eye(2, dtype=complex)
        self.pos = pos

    def cross(self, side):
        self.word.append(_CROSS_LETTER[side])
        self.matrix = self.matrix @ self.schema.pairing[side]

    def teleport(self, target):
        """Move to another polygon position of the same surface point."""
        if self.pos == target:
            return
        frontier = [(self.pos, [], [])]
        seen = {self.pos}
        while frontier:
            nxt = []
            for pos, word, sides in frontier:
                for npos, side in self.schema.crossings(pos):
                    if npos in seen:
                        continue
                    nw = word + [_CROSS_LETTER[side]]
                    ns = sides + [side]
                    if npos == target:
                        self.word.extend(nw)
                        for s in ns:
                            self.matrix = self.matrix @ self.schema.pairing[s]
                        self.pos = target
                        return
                    seen.add(npos)
                    nxt.append((npos, nw, ns))
            frontier = nxt
        raise ValueError("positions %s and %s are not identified"
                         % (self.pos, target))


# ---------------------------------------------------------------------------
# the genus-2 fixture: trisected octagon, coned from the center


def _kplus(sc):
    """Side carrying the positive letter of side class sc (0..3 = a..d)."""
    return _BOUNDARY.index(sc + 1)


def _class_of_position(p):
    if p % 3 == 0:
        return 9
    k, j = divmod(p, 3)
    w = _BOUNDARY[k]
    sc, jj = (w - 1, j) if w > 0 else (-w - 1, 3 - j)
    return 1 + 2 * sc + (jj - 1)


class Genus2Complex:
    """The 10-vertex, 36-edge, 24-face genus-2 triangulation.

    Built from the regular octagon with every side trisected and the
    24-gon coned from its center.  Vertex 0 is the center, vertices 1..8
    the trisection classes (two per generator side), vertex 9 the single
    corner class.  Edges 0..23 are the cone edges in boundary order;
    edges 24..35 the boundary edges, three per generator side.  The
    complex carries exact homotopy labels via polygon development.
    """

    def __init__(self):
        self.schema = OctagonSchema()
        edges = []
        for p in range(24):
            edges.append((0, _class_of_position(p)))
        for sc in range(4):
            x1, x2 = 1 + 2 * sc, 2 + 2 * sc
            edges.append((9, x1))
            edges.append((x1, x2))
            edges.append((x2, 9))
        cycles = []
        for p in range(24):
            k, t = divmod(p, 3)
            w = _BOUNDARY[k]
            if w > 0:
                bd = 2 * (24 + 3 * (w - 1) + t)
            else:
                bd = 2 * (24 + 3 * (-w - 1) + (2 - t)) + 1
            cycles.append([2 * p, bd, 2 * ((p + 1) % 24) + 1])
        self.surface = CellSurface(10, edges, cycles)
        assert self.surface.genus() == 2
        assert self.surface.is_quasi_simplicial()

        self._tree_parent = self._build_tree()
        s = self.surface
        based = [self.develop(self.tree_path(0, s.tail(d)) + [d]
                              + self.tree_path(s.head(d), 0))[0]
                 for d in range(s.n_darts)]
        self.presentation = Genus2Presentation(
            s.dart_tail, based, "dart path",
            dual=Genus2Presentation(s.dart_face, self._crossing_words(),
                                    "dual path"))
        # Build-time consistency: every face boundary develops to a
        # contractible loop, matrices matching the words.
        for cyc in self.surface.face_cycles[:3]:
            word, mat = self.develop(cyc)
            assert self.presentation.is_trivial(word)
            assert matrix_is_identity_class(mat)

    # -- polygon instances --------------------------------------------------

    def class_positions(self, c):
        if c == 0:
            return [CENTER]
        if c == 9:
            return [3 * k for k in range(8)]
        sc, jj = divmod(c - 1, 2)
        j = jj + 1
        k = _kplus(sc)
        m = _SIGMA[k]
        return [3 * k + j, (3 * m + 3 - j) % 24]

    def dart_instances(self, d):
        """Ordered (start, end) polygon position pairs realizing a dart."""
        e, s = divmod(d, 2)
        if e < 24:
            pair = [(CENTER, e)]
        else:
            sc, seg = divmod(e - 24, 3)
            k = _kplus(sc)
            m = _SIGMA[k]
            pair = [(3 * k + seg, 3 * k + seg + 1),
                    ((3 * m + 3 - seg) % 24, 3 * m + 2 - seg)]
        if s == 1:
            pair = [(b, a) for a, b in pair]
        return pair

    # -- development ---------------------------------------------------------

    def develop(self, darts):
        """Homotopy word and deck matrix of a closed dart path.

        The result is the based class of the loop (basepoint at the path's
        start vertex); the word is returned freely reduced, with the matrix
        of the raw development.
        """
        start_class = self.surface.tail(darts[0])
        start_pos = CENTER if start_class == 0 else min(
            self.class_positions(start_class))
        state = DevelopState(self.schema, start_pos)
        for d in darts:
            cands = self.dart_instances(d)
            chosen = next((c for c in cands if c[0] == state.pos), cands[0])
            if chosen[0] == CENTER:
                if state.pos != CENTER:
                    raise ValueError("path discontinuity at dart %d" % d)
            else:
                if state.pos == CENTER:
                    raise ValueError("path discontinuity at dart %d" % d)
                state.teleport(chosen[0])
            state.pos = chosen[1]
        if (state.pos == CENTER) != (start_pos == CENTER):
            raise ValueError("dart path is not closed")
        if state.pos != CENTER:
            state.teleport(start_pos)
        return free_reduce(tuple(state.word)), state.matrix

    # -- spanning tree and labels -------------------------------------------

    def _build_tree(self):
        parent = {0: None}
        added = True
        tree_edges = []
        reached = {0}
        for e, (u, v) in enumerate(self.surface.edges):
            if (u in reached) != (v in reached):
                tree_edges.append(e)
                if u in reached:
                    parent[v] = (u, 2 * e)
                    reached.add(v)
                else:
                    parent[u] = (v, 2 * e + 1)
                    reached.add(u)
        assert len(reached) == self.surface.n_vertices
        return parent

    def tree_path(self, u, v):
        """Dart path from u to v through the lowest-index spanning tree."""

        def to_root(x):
            out = []
            while self._tree_parent[x] is not None:
                p, dart = self._tree_parent[x]
                out.append((x, p, dart))
                x = p
            return out

        up_u = to_root(u)  # u -> root; darts point parent->child, so invert
        up_v = to_root(v)
        # strip common tail at the root side
        path_u = [(d ^ 1) for (_, _, d) in up_u]          # u up to root
        path_v = [d for (_, _, d) in reversed(up_v)]      # root down to v
        # remove backtracking through the common ancestor
        while path_u and path_v and path_u[-1] == (path_v[0] ^ 1):
            path_u.pop()
            path_v.pop(0)
        return path_u + path_v

    def dart_label(self, d):
        """Word of the based loop tree(0 -> tail d) * d * tree(head d -> 0),
        freely reduced: the labels multiply along paths."""
        return self.presentation.words[d]

    def _crossing_words(self):
        """Word of each dual dart: the letter of the octagon side it crosses
        (boundary edges), or none (cone edges, inside the polygon).  Checks
        the side gluing of every dart's two faces."""
        s = self.surface
        words = []
        for d in range(s.n_darts):
            f1, f2 = int(s.dart_face[d]), int(s.dart_face[d ^ 1])
            if d // 2 >= 24:
                k, t = divmod(f1, 3)
                assert f2 == 3 * _SIGMA[k] + 2 - t
                words.append((_CROSS_LETTER[k],))
            else:
                assert f2 in ((f1 + 1) % 24, (f1 - 1) % 24)
                words.append(())
        return words


class Genus2Presentation(SurfaceGroupPresentation):
    """Contractibility of closed dart paths from one word per dart.

    ``tail[d]`` is the tail of dart d, and ``tail[d ^ 1]`` its head.  The
    product of ``words`` along a closed path is conjugate to the path's
    homotopy class.  The octagon complex builds two instances: the primal
    one over its vertices, with the based dart labels, and the dual one over
    its faces, whose dual dart d crosses primal dart d.
    """

    def __init__(self, tail, words, path_name, dual=None):
        super().__init__(2)
        self.tail = [int(t) for t in tail]
        self.words = tuple(words)
        self.path_name = path_name
        self._dual = dual

    def cycle_word(self, darts):
        """Freely reduced product of the words of a closed head-to-tail path."""
        tail = self.tail
        for prev, d in zip(darts, darts[1:]):
            if tail[prev ^ 1] != tail[d]:
                raise ValueError("%s discontinuity at dart %d"
                                 % (self.path_name, d))
        if tail[darts[-1] ^ 1] != tail[darts[0]]:
            raise ValueError("%s is not closed" % self.path_name)
        return free_reduce(x for d in darts for x in self.words[d])

    def cycle_is_contractible(self, darts):
        return self.is_trivial(self.cycle_word(darts))

    def dual_presentation(self):
        return self._dual
