"""Surface group words, Dehn's algorithm, and the presentation of a closed
cell surface of genus >= 2 read off its own cells.

Words in a surface group are tuples of nonzero ints: letter i is the i-th
generator, -i its inverse.  With four generators they print as a,b,c,d
(capital = inverse).

Dehn's algorithm for a one-relator presentation: cyclically reduce, then
replace any subword that is more than half of a cyclic form of the relator
(or its inverse) by the inverse of the complementary part; a word is
trivial iff this terminates at the empty word.  That is a decision
procedure when every piece (a common prefix of two distinct cyclic forms)
has length 1, and then no two cyclic forms share a prefix longer than half
the relator: every such prefix is one key of a table built once, and each
replacement is a lookup.

:class:`TreeCotreePresentation` builds the presentation of a surface from
a tree-cotree split of its cells (Eppstein, SODA 2003).  A breadth-first
spanning tree T of the vertices gives its darts the empty word; a
breadth-first spanning tree of the faces, over the dual edges of the
edges outside T, is the cotree; the 2g edges in neither are the
generators.  Every face but the cotree's root bounds a disk, so the
product of its darts' words is trivial; solving that relation for the
dart that crosses to the face's parent, leaves first, gives each cotree
dart its word, and the root face's word is the relator.  Contracting T and
deleting the cotree edges leaves one vertex and one face, whose boundary
word the relator is, so the dart words realize an isomorphism of the
fundamental group with the presentation: the product of the words along a
closed path is the class of the path, based through T.  Every piece of
the relator has length 1: a piece xy would mean the corners x->y and
y^-1->x^-1 both lie on the one face, so the rotation at the one vertex
would return to x^-1 after y, a vertex of degree 2, where it has degree
4g >= 8.  The presentation is thus C'(1/7), and Dehn's algorithm decides
it (Lyndon & Schupp, ch. V).  Each dart word is shortened once, when it is
stored, by Dehn replacements of its subwords, which keep its group
element.
"""

from __future__ import annotations

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
    """One-relator presentation of a genus-g surface group, the relator a
    word of length 4g whose pieces all have length 1, with the long relator
    pieces of Dehn's algorithm tabled once."""

    def __init__(self, relator):
        self.relator = tuple(relator)
        self.genus = len(self.relator) // 4
        if self.genus < 2:
            raise ValueError("Dehn's algorithm needs genus >= 2")
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

    def shorten(self, word):
        """The freely reduced word with its longest, then leftmost, long
        relator piece replaced until none is left: the same group element,
        not merely the same conjugacy class."""
        w = free_reduce(word)
        length = len(self.relator)
        while length > len(self.relator) // 2:
            hit = next((start for start in range(len(w) - length + 1)
                        if w[start:start + length] in self._pieces), None)
            if hit is None:
                length -= 1
            else:
                w = free_reduce(w[:hit] + self._pieces[w[hit:hit + length]]
                                + w[hit + length:])
                length = len(self.relator)
        return w

    def is_trivial(self, word):
        return len(self.dehn_reduce(word)) == 0


class TreeCotreePresentation(SurfaceGroupPresentation):
    """The presentation of a closed cell surface of genus >= 2 from a
    tree-cotree split of its cells, with one word per dart (see the module
    docstring).

    ``surface`` is read through ``n_vertices``, ``edges`` (edge e's dart
    2e runs from its first vertex to its second, dart 2e + 1 back) and
    ``face_cycles`` (each face's darts in boundary order).  The product of
    the dart words along a closed path is the path's class, based at vertex
    0 through the spanning tree.
    """

    def __init__(self, surface):
        self.tail = [v for edge in surface.edges for v in edge]
        face = [0] * len(self.tail)
        for f, cyc in enumerate(surface.face_cycles):
            for d in cyc:
                face[d] = f
        spanned = [False] * len(surface.edges)
        for d in _bfs_tree(surface.n_vertices, self.tail, spanned):
            spanned[d // 2] = True
        cotree = _bfs_tree(len(surface.face_cycles), face, spanned)
        for d in cotree:
            spanned[d // 2] = True
        words = [()] * len(self.tail)
        letters = [e for e, done in enumerate(spanned) if not done]
        for i, e in enumerate(letters, 1):
            words[2 * e], words[2 * e + 1] = (i,), (-i,)
        # leaves first: the dart of face f that crosses to f's parent is
        # the inverse of the rest of f's boundary
        for d in reversed(cotree):
            cyc = surface.face_cycles[face[d ^ 1]]
            j = cyc.index(d ^ 1)
            rest = free_reduce(x for c in cyc[j + 1:] + cyc[:j]
                               for x in words[c])
            words[d ^ 1], words[d] = invert_word(rest), rest
        # the root face, 0, spells the relator
        super().__init__(cyclic_reduce(
            x for d in surface.face_cycles[0] for x in words[d]))
        self.words = tuple(map(self.shorten, words))

    def cycle_word(self, darts):
        """Freely reduced product of the words of a closed head-to-tail path."""
        tail = self.tail
        for prev, d in zip(darts, darts[1:]):
            if tail[prev ^ 1] != tail[d]:
                raise ValueError("path discontinuity at dart %d" % d)
        if tail[darts[-1] ^ 1] != tail[darts[0]]:
            raise ValueError("path is not closed")
        return free_reduce(x for d in darts for x in self.words[d])

    def cycle_is_contractible(self, darts):
        return self.is_trivial(self.cycle_word(darts))


def _bfs_tree(n_nodes, node_of, skip):
    """The darts of a breadth-first spanning tree from node 0, in the order
    they are reached, each pointing away from node 0.  Dart d runs from
    ``node_of[d]`` to ``node_of[d ^ 1]``; edges e with ``skip[e]`` are not
    followed."""
    out_darts = [[] for _ in range(n_nodes)]
    for d, v in enumerate(node_of):
        out_darts[v].append(d)
    seen = [False] * n_nodes
    seen[0] = True
    order, tree = [0], []
    for v in order:  # the queue: nodes in the order reached
        for d in out_darts[v]:
            w = node_of[d ^ 1]
            if not seen[w] and not skip[d // 2]:
                seen[w] = True
                order.append(w)
                tree.append(d)
    return tree


#: the genus-2 name of :class:`TreeCotreePresentation`, kept for the
#: benchmark's span tracer; ROADMAP item 1b removes it
Genus2Presentation = TreeCotreePresentation
