"""Stallings subgroup graphs: folding, membership, rank, injectivity.

A subgroup of a free group generated by finitely many words is represented
by a labeled graph with a base vertex: one loop per generator, then folded
until no vertex carries two equally-labeled edges in the same direction.
Reduced words readable as base-to-base paths are exactly the elements of
the subgroup.

Folding is a single-owner mutation; after :meth:`SubgroupGraph.fold` the
graph is frozen, relabeled canonically (breadth-first from the base, edges
in letter order), and safe to query from any thread.  Because the folded
core is unique, any two fold orders produce identical canonical graphs.

Injectivity of a homomorphism between free groups is certified by rank
counting: the folded graph of the image subgroup has rank equal to the
subgroup's rank, and a surjection from a free group onto a free group of
the same finite rank is an isomorphism (free groups are Hopfian).

The edges at the base vertex of a folded graph are exactly the first
letters of the subgroup's nontrivial reduced elements (and, inverted, the
last letters); :meth:`SubgroupGraph.base_labels` reads which of them a
given base loop uses.
"""

from __future__ import annotations

import random
from typing import Iterable, NamedTuple, Optional

from .homs import Homomorphism
from .words import Alphabet, AlphabetMismatch, Word, _letter_key

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
        # unfolded adjacency: vertex -> {signed letter: set of targets}
        self._adj: Optional[list[dict[int, set[int]]]] = [{}]
        # folded adjacency: vertex -> {signed letter: unique target}
        self._out: Optional[list[dict[int, int]]] = None
        self.folded = False

    @classmethod
    def wedge(cls, generators: Iterable[Word], alphabet: Alphabet) -> "SubgroupGraph":
        """Unfolded wedge of loops at the base, one loop per generator word."""
        g = cls(alphabet)
        assert g._adj is not None
        for w in generators:
            if w.alphabet != alphabet:
                raise AlphabetMismatch("generator word not over the given alphabet")
            ls = w.letters
            if not ls:
                continue
            prev = 0
            for idx, s in enumerate(ls):
                if idx == len(ls) - 1:
                    tgt = 0
                else:
                    g._adj.append({})
                    tgt = len(g._adj) - 1
                g._adj[prev].setdefault(s, set()).add(tgt)
                g._adj[tgt].setdefault(-s, set()).add(prev)
                prev = tgt
        return g

    # -- folding ---------------------------------------------------------

    def fold(self, rng: Optional[random.Random] = None) -> "SubgroupGraph":
        """Fold in place until no equal-label collisions remain; freeze.

        ``rng`` randomizes the processing order (the folded result is the
        same either way; exposed so tests can check confluence).
        """
        if self.folded:
            return self
        adj = self._adj
        assert adj is not None
        n = len(adj)
        parent = list(range(n))

        def find(v: int) -> int:
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        work = list(range(n))
        if rng is not None:
            rng.shuffle(work)
        while work:
            v = find(work.pop())
            labels = list(adj[v].keys())
            if rng is not None:
                rng.shuffle(labels)
            for s in labels:
                reps = {find(t) for t in adj[v].get(s, ())}
                adj[v][s] = reps
                if len(reps) < 2:
                    continue
                pair = sorted(reps)[:2] if rng is None else rng.sample(sorted(reps), 2)
                a, b = min(pair), max(pair)
                # merge b into a
                parent[b] = a
                for s2, ts in adj[b].items():
                    adj[a].setdefault(s2, set()).update(ts)
                adj[b] = {}
                work.append(a)
                work.append(v)
                break

        self._freeze(find)
        return self

    def _freeze(self, find) -> None:
        adj = self._adj
        assert adj is not None
        root = find(self.base)
        # canonical relabeling: BFS from base, neighbors in letter order
        mapping = {root: 0}
        order = [root]
        queue = [root]
        while queue:
            v = queue.pop(0)
            for s in sorted(adj[v].keys(), key=_letter_key):
                reps = {find(t) for t in adj[v][s]}
                if len(reps) != 1:  # pragma: no cover - fold postcondition
                    raise AssertionError("fold left a label collision")
                (t,) = reps
                if t not in mapping:
                    mapping[t] = len(order)
                    order.append(t)
                    queue.append(t)
        out: list[dict[int, int]] = [{} for _ in order]
        for old in order:
            for s, ts in adj[old].items():
                (t,) = {find(x) for x in ts}
                out[mapping[old]][s] = mapping[t]
        self._out = out
        self._adj = None
        self.base = 0
        self.folded = True

    # -- queries ---------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        if self.folded:
            assert self._out is not None
            return len(self._out)
        assert self._adj is not None
        return len(self._adj)

    @property
    def n_edges(self) -> int:
        """Undirected edge count (each labeled edge counted once)."""
        if self.folded:
            assert self._out is not None
            return sum(1 for d in self._out for s in d if s > 0)
        assert self._adj is not None
        return sum(len(ts) for d in self._adj for s, ts in d.items() if s > 0)

    def edges(self) -> list[tuple[int, str, int]]:
        """Positively-oriented edges as (from, label name, to), sorted."""
        out = []
        if self.folded:
            assert self._out is not None
            for v, d in enumerate(self._out):
                for s, t in d.items():
                    if s > 0:
                        out.append((v, self.alphabet.name(s), t))
        else:
            assert self._adj is not None
            for v, d in enumerate(self._adj):
                for s, ts in d.items():
                    if s > 0:
                        out.extend((v, self.alphabet.name(s), t) for t in ts)
        out.sort()
        return out

    def contains(self, w: Word) -> bool:
        """True iff ``w`` is readable as a base-to-base path.

        On a folded graph this is membership in the subgroup.  On an
        unfolded graph it answers plain readability of the reduced word,
        which may be a proper subset of the subgroup.
        """
        if w.alphabet != self.alphabet:
            raise AlphabetMismatch("query word not over the graph's alphabet")
        return self.reads_loop(w.letters)

    def reads_loop(self, letters: Iterable[int]) -> bool:
        """Whether a raw (not necessarily reduced) letter sequence spells a
        base-to-base edge path."""
        if self.folded:
            assert self._out is not None
            v = self.base
            for s in letters:
                nxt = self._out[v].get(s)
                if nxt is None:
                    return False
                v = nxt
            return v == self.base
        assert self._adj is not None
        states = {self.base}
        for s in letters:
            states = {t for v in states for t in self._adj[v].get(s, ())}
            if not states:
                return False
        return self.base in states

    def base_labels(self, letters: Iterable[int]) -> set[int]:
        """Labels, read outward from the base, of the base edges a loop uses.

        ``letters`` must spell a base-to-base path in the folded graph.
        Each time the path leaves the base along ``s`` the result gains
        ``s``; each time it arrives along ``s`` it gains ``-s``.  One pass
        over the letters.
        """
        if not self.folded:
            raise ValueError("graph must be folded before reading base labels")
        assert self._out is not None
        out, base = self._out, self.base
        labels: set[int] = set()
        v = base
        for s in letters:
            if v == base:
                labels.add(s)
            try:
                v = out[v][s]
            except KeyError:
                raise ValueError("letters do not spell a path in the graph") from None
            if v == base:
                labels.add(-s)
        if v != base:
            raise ValueError("letters do not spell a base-to-base loop")
        return labels

    def rank(self) -> int:
        """Rank of the represented subgroup: E - V + 1 on the trimmed core.

        Degree-1 vertices other than the base are trimmed iteratively; the
        base is always retained.
        """
        if not self.folded:
            raise ValueError("graph must be folded before rank computation")
        assert self._out is not None
        n = len(self._out)
        deg = [len(d) for d in self._out]
        alive = [True] * n
        stack = [v for v in range(n) if v != self.base and deg[v] == 1]
        while stack:
            v = stack.pop()
            if not alive[v] or v == self.base or deg[v] != 1:
                continue
            alive[v] = False
            deg[v] = 0
            for s, u in self._out[v].items():
                if alive[u]:
                    deg[u] -= 1
                    if u != self.base and deg[u] == 1:
                        stack.append(u)
        n_vertices = sum(alive)
        n_edges = sum(
            1
            for v, d in enumerate(self._out)
            if alive[v]
            for s, t in d.items()
            if s > 0 and alive[t]
        )
        return n_edges - n_vertices + 1

    def dump(self) -> str:
        """Text dump: base vertex on line 1, then one edge per line."""
        lines = [str(self.base)]
        lines.extend(f"{u} {name} {v}" for u, name, v in self.edges())
        return "\n".join(lines) + "\n"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SubgroupGraph):
            return NotImplemented
        if self.alphabet != other.alphabet or self.folded != other.folded:
            return False
        if self.folded:
            return self._out == other._out
        return self._adj == other._adj


def build_subgroup_graph(
    generators: Iterable[Word],
    codomain: Alphabet,
    rng: Optional[random.Random] = None,
) -> SubgroupGraph:
    """Folded, canonically labeled graph of the subgroup the words generate."""
    return SubgroupGraph.wedge(generators, codomain).fold(rng)


class InjectivityResult(NamedTuple):
    verdict: bool
    image_rank: int
    domain_rank: int

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
    graph = build_subgroup_graph(h.images, h.codomain)
    return InjectivityResult.from_graph(graph, h.domain.rank)
