"""Stallings subgroup graphs: folding, membership, rank, injectivity.

A subgroup of a free group generated by finitely many words is represented
by a labeled graph with a base vertex: one loop per generator, then folded
until no vertex carries two equally-labeled edges in the same direction.
Reduced words readable as base-to-base paths are exactly the elements of
the subgroup.

:meth:`SubgroupGraph.wedge` records only the reduced generator words; the
wedge of loops is never built, and its vertex and edge counts
(``1 + sum(len - 1)`` and ``sum(len)``) are computed from the word lengths
when it is built.
:meth:`SubgroupGraph.fold` attaches the generators one at a time to a graph
that is kept folded (attach-and-fold): it reads the longest prefix of the
generator forward from the base, the longest remaining suffix backward from
the base, and adds fresh vertices only for the letters in between.  Folds
happen only where the new arc closes up, through a union-find worklist that
merges the smaller adjacency dict into the larger.

A fresh arc's inner vertices get no adjacency dict: the fold records the
arc as (first id, start, end, code), and each inner vertex's two edges
follow from its place on the arc.  A vertex gets its dict only when the
fold reads on from it letter by letter, attaches an arc at it or merges
it, and in no other way.  So a generator whose middle no earlier loop
spells costs O(1) Python steps for its arc, not one dict per letter.

Each read starts with a jump along the loops already attached.  The codes
of the attached generators and of their inverses are kept in one sorted
list, each with the vertex ids its loop passes through, held in an
``array('q')`` of machine ints so that a jump copies its ids in one
slice, strided backwards for an inverse code, and joining a path is a
copy in C.  Merges only identify vertices, so ``find`` of those
ids still spells the loop, and the longest prefix that a read shares with
any known code is shared with a neighbour of its insertion point in the
sorted list.  Its length is found by bisection: a read of at most m
letters that already shares p letters with the neighbour takes
ceil(log2(m - p + 1)) slice compares.  One read serves both directions:
it goes on letter by letter from ``find`` of the id the jump ends at, and
the backward read is capped at the letters the forward one left.  So
only letters that no earlier loop spells cost a Python step each, and the
rest cost O(log n) Python steps and O(n) characters and ids of C work per
generator, plus the merges it causes.  See
N. Touikan, *A fast algorithm for Stallings' folding process*, IJAC 16(6)
(2006), and I. Kapovich and A. Myasnikov, *Stallings foldings and
subgroups of free groups*, J. Algebra 248 (2002), §§3–5.

Folding is a single-owner mutation.  :meth:`SubgroupGraph.fold` keeps its
state as the last attach left it: the adjacency dicts, the arcs, each
attached loop's id path and the union-find ``parent`` dict, so after a
merge a target or id may be stale.  ``parent`` holds the merged vertices
only, ``parent[b] = a`` written at the merge, and ``find`` compresses only
keys already there, so a fold that merges nothing keeps nothing per
vertex.  V is the vertices created less the keys of ``parent``, and E is
half the entries of the dicts, with two for each implicit vertex, since a
merged vertex's dict is emptied.  Every query reads and never writes that
state, resolving ids by a walk up ``parent``, so a folded graph is safe
to query from any thread.  The canonical relabel (breadth-first from the base, edges in
letter order) is the one place that expands the arcs; it is built on
the first call of :meth:`~SubgroupGraph.contains`,
:meth:`~SubgroupGraph.edges`, :meth:`~SubgroupGraph.dump` or ``==`` and
cached.  Because the folded core is unique, any two attach orders
produce identical canonical graphs.  Every query except the two size
counts needs a folded graph.

The rank of the subgroup is E - V + 1 of its folded graph, counted during
the fold: the graph is connected, and a hanging tree adds as many edges as
vertices, so no trimming to the core is needed.

Injectivity of a homomorphism between free groups is certified by rank
counting: the folded graph of the image subgroup has rank equal to the
subgroup's rank, and a surjection from a free group onto a free group of
the same finite rank is an isomorphism (free groups are Hopfian).

The edges at the base vertex of a folded graph are exactly the first
letters of the subgroup's nontrivial reduced elements (and, inverted, the
last letters); :meth:`SubgroupGraph.base_labels` reads which of them an
attached generator or its inverse uses.  It reads the base visits off the
loop's kept id path with C scans for each id that resolves to the base's
representative, found among the merged vertices, so the canonical
relabel is never built and a call costs a Python step per merged vertex,
not per letter.  The
empty word uses no base edge; any other word raises ``ValueError``.

:func:`is_injective` and :func:`~fgkit.family.verify` build the graph
through :meth:`SubgroupGraph.wedge` as :func:`build_subgroup_graph` does,
then hand the fold the inverse image codes that the
:class:`~fgkit.homs.Homomorphism` already holds, so the fold derives none.

Edges are labeled by letter codes (see :mod:`fgkit.words`): folding walks
the generators' codes, and a vertex's edges are ordered by code point,
which is the letter order.
"""

from __future__ import annotations

from array import array
from bisect import bisect, insort
from collections import namedtuple
from collections.abc import Iterable
from itertools import compress, count

from .homs import Homomorphism
from .words import Alphabet, AlphabetMismatch, Word, _inverse, _letter, _letter_key

__all__ = [
    "SubgroupGraph",
    "build_subgroup_graph",
    "InjectivityResult",
    "is_injective",
]


class SubgroupGraph:
    """Labeled graph with base vertex 0 recognizing a finitely generated subgroup."""

    def __init__(self, alphabet: Alphabet) -> None:
        self.alphabet = alphabet
        self.base = 0
        # unfolded: the codes of the nontrivial generator words, one loop
        # each, and their inverse codes when the caller already holds them
        self._gens: tuple[str, ...] = ()
        self._inverses: tuple[str, ...] | None = None
        # folded: the fold's adjacency dicts, None for an implicit vertex,
        # the union-find parents of the merged vertices, the base's
        # representative, the fresh arcs (firsts, arcs) and each attached
        # code's (path, step), all as the last attach left them, targets and
        # ids possibly stale (see fold)
        self._adj: list[dict[str, int] | None] | None = None
        self._parent: dict[int, int] = {}
        self._root = 0
        self._arcs: tuple[list[int], list[tuple[int, int, str]]] = ([], [])
        self._loops: dict[str, tuple[array, int]] = {}
        self._counts = (1, 0)  # (V, E): of the wedge, then of the folded graph
        # the canonical relabel, built on first use
        self._out: list[dict[str, int]] | None = None

    @classmethod
    def wedge(cls, generators: Iterable[Word], alphabet: Alphabet) -> "SubgroupGraph":
        """Unfolded wedge of loops at the base, one loop per generator word."""
        g = cls(alphabet)
        gens = []
        for w in generators:
            if w.alphabet is not alphabet and w.alphabet != alphabet:
                raise AlphabetMismatch("generator word not over the given alphabet")
            if w.code:
                gens.append(w.code)
        g._gens = tuple(gens)
        letters = sum(map(len, gens))
        g._counts = (1 + letters - len(gens), letters)  # 1 + sum(len - 1), sum(len)
        return g

    @property
    def folded(self) -> bool:
        return self._adj is not None

    # -- folding ---------------------------------------------------------

    def fold(self) -> "SubgroupGraph":
        """Attach the generator loops one at a time, folding as they go.

        Counts V and E, so the rank needs no further pass, and keeps the
        adjacency dicts, the merged vertices' union-find parents, the fresh
        arcs and each attached loop's id path as the last attach left them.
        """
        if self.folded:
            return self
        # adj[v] is v's adjacency dict, or None while v is an inner vertex
        # of a fresh arc that the fold has not touched since; its two edges
        # are then read off the arc (_arc_row).  adj[v] is current only for
        # representatives v, whose targets may be stale: read them by find
        adj: list[dict[str, int] | None] = [{}]
        # parent[b] = a for each merged vertex b, and no key for the others,
        # so a fold that merges nothing keeps nothing per vertex
        parent: dict[int, int] = {}
        # the fresh arcs with inner vertices: arcs[a] = (start, end, code),
        # whose inner vertices are firsts[a], firsts[a] + 1, ..., one after
        # each letter of code but the last
        firsts: list[int] = []
        arcs: list[tuple[int, int, str]] = []

        def row(v: int) -> dict[str, int]:
            # v's dict, built from its arc when the fold first needs it
            d = adj[v]
            if d is None:
                d = adj[v] = _arc_row(firsts, arcs, v)
            return d

        def find(v: int) -> int:
            # path halving, which writes only keys that are already there
            while v in parent:
                u = parent[v]
                if u in parent:
                    u = parent[v] = parent[u]
                v = u
            return v

        def identify(a: int, b: int) -> None:
            pending = [(a, b)]
            while pending:
                a, b = pending.pop()
                a, b = find(a), find(b)
                if a == b:
                    continue
                into, other = row(a), row(b)
                if len(into) < len(other):
                    a, b, into, other = b, a, other, into
                parent[b] = a
                for s, t in other.items():
                    u = into.setdefault(s, t)
                    if u != t:
                        pending.append((u, t))
                adj[b] = {}

        # every attached code and inverse code, sorted, and the ids of the
        # vertices it reads through: loops[c] = (path, step) with path the
        # ids along its generator w, positions 0..len(w), in an array of
        # machine ints, and step -1 when c is the inverse code, which reads
        # them backwards.  Merges only identify vertices, so find of those
        # ids still spells c.
        codes: list[str] = []
        loops: dict[str, tuple[array, int]] = {}
        start = array("q", (self.base,))

        def read(code: str, limit: int) -> tuple[array, int, int]:
            # the ids along the longest prefix of `code`, at most `limit`
            # letters, that the graph spells, its end vertex and its length.
            # It jumps the longest prefix a known loop spells, which over a
            # sorted list is shared with a neighbour of the insertion point
            at = bisect(codes, code)
            best, ids = 0, start
            for c in codes[at - 1 : at + 1] if at else codes[:1]:
                # one slice compare says whether c beats the best so far
                lo, hi = best + 1, min(limit, len(c))
                if lo <= hi and code[:lo] == c[:lo]:
                    # code[:lo] == c[:lo], and the common prefix is at most hi
                    while lo < hi:
                        mid = (lo + hi + 1) // 2
                        if code[lo:mid] == c[lo:mid]:
                            lo = mid
                        else:
                            hi = mid - 1
                    # the first lo + 1 ids that c reads, one copy either way
                    path, step = loops[c]
                    best, ids = lo, path[: lo + 1] if step > 0 else path[: -lo - 2 : -1]
            if not best:
                ids = start[:]
            # then reads on letter by letter, with find's fast path inlined
            k, v = best, find(ids[-1])
            while k < limit:
                d = adj[v]
                if d is None:
                    d = row(v)
                t = d.get(code[k])
                if t is None:
                    break
                v, k = (find(t) if t in parent else t), k + 1
                ids.append(v)
            return ids, v, k

        # inv[n - 1 - k] is the code of the inverse of the letter w[k];
        # fwd[k] is an id at position k of w, and bwd[q] at position n - q
        inverses = self._inverses or map(_inverse, self._gens)
        for w, inv in zip(self._gens, inverses):
            n = len(w)
            fwd, v, i = read(w, n)
            if i == n:
                identify(v, self.base)
                bwd = array("q")
            else:
                bwd, u, q = read(inv, n - i)
                j = n - q
                if j == i:
                    identify(v, u)
                    fwd.pop()  # position i is bwd's last
                else:
                    # fresh arc v -> x .. y -> u spelling w[i:j], its m inner
                    # vertices x .. y left implicit; only its closing edge can
                    # collide, when v == u and w[i] is the inverse of w[j-1]
                    x, m = len(adj), j - i - 1
                    if m:
                        firsts.append(x)
                        arcs.append((v, u, w[i:j]))
                        adj += [None] * m
                        fwd.extend(range(x, x + m))
                        y = x + m - 1
                    else:  # the one edge v -> u
                        x, y = u, v
                    row(v)[w[i]] = x
                    t = row(u).setdefault(inv[n - j], y)
                    if t != y:
                        identify(t, y)
            if w not in loops:  # else a repeat, or an earlier inverse
                path = fwd + bwd[::-1]
                for c, step in ((w, 1), (inv, -1)):
                    insort(codes, c)
                    loops[c] = (path, step)

        self._adj, self._parent, self._root = adj, parent, find(self.base)
        self._arcs, self._loops = (firsts, arcs), loops
        # the vertices are the representatives, the ones parent holds no
        # key for; a merged vertex's dict is emptied, each edge is held once
        # in each direction, a loop too, and an implicit vertex holds two
        half_edges = sum(map(len, filter(None, adj))) + 2 * adj.count(None)
        self._counts = (len(adj) - len(parent), half_edges // 2)
        self._gens, self._inverses = (), None
        return self

    # -- queries ---------------------------------------------------------

    def _folded(self, what: str) -> tuple[list[dict[str, int] | None], dict[int, int], int]:
        if self._adj is None:
            raise ValueError(f"graph must be folded before {what}")
        return self._adj, self._parent, self._root

    def _canonical(self, what: str) -> list[dict[str, int]]:
        """Adjacency relabeled canonically, built on first use and cached.

        Breadth-first from the base, neighbors in letter order, which is
        code point order; iterating ``order`` while it grows is the queue.
        The one place that expands the fresh arcs, and it reads them
        without storing a dict in the fold's state; each target is read as
        its representative.
        """
        if self._out is None:
            adj, parent, root = self._folded(what)
            firsts, arcs = self._arcs
            mapping = {root: 0}
            order = [root]
            out: list[dict[str, int]] = []
            for v in order:
                d = adj[v]
                if d is None:
                    d = _arc_row(firsts, arcs, v)
                row = {}
                for s in sorted(d):
                    t = _representative(parent, d[s])
                    idx = mapping.get(t)
                    if idx is None:
                        idx = mapping[t] = len(order)
                        order.append(t)
                    row[s] = idx
                out.append(row)
            self._out = out
        return self._out

    @property
    def n_vertices(self) -> int:
        return self._counts[0]

    @property
    def n_edges(self) -> int:
        """Undirected edge count (each labeled edge counted once)."""
        return self._counts[1]

    def edges(self) -> list[tuple[int, str, int]]:
        """Positively-oriented edges as (from, label name, to), sorted."""
        out = [
            (v, self.alphabet.name(_letter(s)), t)
            for v, d in enumerate(self._canonical("listing edges"))
            for s, t in d.items()
            if _letter(s) > 0
        ]
        out.sort()
        return out

    def contains(self, w: Word) -> bool:
        """True iff ``w`` is readable as a base-to-base path: subgroup membership."""
        if w.alphabet is not self.alphabet and w.alphabet != self.alphabet:
            raise AlphabetMismatch("query word not over the graph's alphabet")
        out = self._canonical("reading paths")
        v = 0
        for s in w.code:
            v = out[v].get(s)
            if v is None:
                return False
        return v == 0

    def base_labels(self, w: Word) -> set[int]:
        """Labels, read outward from the base, of the base edges a loop uses.

        ``w`` must be an attached generator or its inverse, or the empty
        word, which uses none; any other word raises ``ValueError``.  Each
        time the loop leaves the base along ``s`` the result gains ``s``;
        each time it arrives along ``s`` it gains ``-s``.  The base visits
        are read off the loop's kept id path by array scans.
        """
        if w.alphabet is not self.alphabet and w.alphabet != self.alphabet:
            raise AlphabetMismatch("query word not over the graph's alphabet")
        _, parent, root = self._folded("reading base labels")
        code = w.code
        if not code:
            return set()
        loop = self._loops.get(code)
        if loop is None:
            raise ValueError("word is not an attached generator or its inverse")
        # the base visits are where the path holds an id that resolves to
        # the root: the root, or a merged vertex whose representative it is.
        # Each such id costs C scans of the path, so many of them (a fold
        # that merged most of a loop into the base) take one C pass that
        # tests every id instead; an inverse code reads the path backwards
        path, step = loop
        roots = {root}.union(v for v in parent if _representative(parent, v) == root)
        if len(roots) > 2:
            visits = list(compress(count(), map(roots.__contains__, path)))
        else:
            visits = []
            for r in roots:
                p = -1
                try:
                    while True:
                        p = path.index(r, p + 1)
                        visits.append(p)
                except ValueError:  # no visit after p
                    pass
            visits.sort()
        n = len(code)
        if step < 0:
            visits = [n - p for p in reversed(visits)]
        left = {_letter(code[p]) for p in visits[:-1]}
        return left | {-_letter(code[p - 1]) for p in visits[1:]}

    def rank(self) -> int:
        """Rank of the represented subgroup: E - V + 1 of the folded graph.

        Every loop is attached at the base, so the folded graph is
        connected and E - V + 1 is its cycle rank.  V and E are counted
        by :meth:`fold`.
        """
        self._folded("rank computation")
        return self.n_edges - self.n_vertices + 1

    def dump(self) -> str:
        """Text dump: base vertex on line 1, then one edge per line."""
        lines = [str(self.base)]
        lines.extend(f"{u} {name} {v}" for u, name, v in self.edges())
        return "\n".join(lines) + "\n"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SubgroupGraph):
            return NotImplemented
        mine, theirs = self._canonical("comparison"), other._canonical("comparison")
        return self.alphabet == other.alphabet and mine == theirs


def _representative(parent: dict[int, int], v: int) -> int:
    """``v``'s representative, by a walk up ``parent`` that writes nothing."""
    while v in parent:
        v = parent[v]
    return v


def _arc_row(firsts: list[int], arcs: list[tuple[int, int, str]], v: int) -> dict[str, int]:
    """The two edges of the implicit inner vertex ``v`` of a fresh arc:
    back along the inverse of the letter before it, on along the one after."""
    a = bisect(firsts, v) - 1
    k = v - firsts[a]
    start, end, code = arcs[a]
    return {
        chr(ord(code[k]) ^ 1): v - 1 if k else start,
        code[k + 1]: v + 1 if k + 2 < len(code) else end,
    }


def build_subgroup_graph(generators: Iterable[Word], codomain: Alphabet) -> SubgroupGraph:
    """Folded graph of the subgroup the words generate."""
    return SubgroupGraph.wedge(generators, codomain).fold()


class InjectivityResult(
    namedtuple("InjectivityResult", ["verdict", "image_rank", "domain_rank"])
):
    """An injectivity verdict with the two ranks it compares."""

    __slots__ = ()

    @classmethod
    def from_graph(cls, graph: SubgroupGraph, domain_rank: int) -> "InjectivityResult":
        """Rank verdict from the folded graph of the image subgroup."""
        image_rank = graph.rank()
        return cls(image_rank == domain_rank, image_rank, domain_rank)


def is_injective(h: Homomorphism) -> InjectivityResult:
    """Certify injectivity of ``h`` by image-rank counting.

    A true verdict is sound: the image subgroup has rank equal to the
    domain rank, so the induced surjection onto the image is an
    isomorphism.  A false verdict means the images satisfy a nontrivial
    relation.
    """
    return InjectivityResult.from_graph(_image_graph(h), h.domain.rank)


def _image_graph(h: Homomorphism) -> SubgroupGraph:
    """Folded graph of the image subgroup of ``h``, as
    :func:`build_subgroup_graph` builds it, but folded with the inverse
    image codes that ``h`` already holds rather than new ones."""
    graph = SubgroupGraph.wedge(h.images, h.codomain)
    codes = h._codes
    graph._inverses = tuple(
        codes[chr(_letter_key(-k))] for k, img in enumerate(h.images, 1) if img.code
    )
    return graph.fold()
