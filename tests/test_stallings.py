import copy
import hashlib
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgkit import (
    Alphabet,
    AlphabetMismatch,
    FamilyParams,
    Homomorphism,
    SubgroupGraph,
    Word,
    build_subgroup_graph,
    embedding,
    is_injective,
    parse_word,
    verify,
)

import fgkit.stallings as stallings
import oracles

AB = Alphabet.numbered(2, "a")
ABC = Alphabet.numbered(3, "a")
A1 = Alphabet.numbered(1, "a")


def words(alphabet, *texts):
    return [parse_word(t, alphabet) for t in texts]


def reordered(gens, seed):
    """The generators in a seeded random order, a random subset inverted:
    another generating set of the same subgroup."""
    rng = random.Random(seed)
    order = list(gens)
    rng.shuffle(order)
    return [w.inverse() if rng.random() < 0.5 else w for w in order]


class TestBuild:
    def test_single_loop(self):
        g = build_subgroup_graph(words(AB, "a1"), AB)
        assert g.n_vertices == 1
        assert g.n_edges == 1
        assert g.rank() == 1

    def test_a_squared_and_b(self):
        g = build_subgroup_graph(words(AB, "a1^2", "a2"), AB)
        assert g.n_vertices == 2
        assert g.n_edges == 3
        assert g.rank() == 2

    def test_shared_prefix_folds_to_rose(self):
        g = build_subgroup_graph(words(AB, "a1", "a1 a2"), AB)
        assert g.n_vertices == 1
        assert g.n_edges == 2
        assert g.rank() == 2
        assert g.contains(parse_word("a2", AB))

    def test_empty_generator_list(self):
        g = build_subgroup_graph([], AB)
        assert g.n_vertices == 1
        assert g.n_edges == 0
        assert g.rank() == 0

    def test_identity_generators_ignored(self):
        g = build_subgroup_graph(words(AB, "1", "a1"), AB)
        assert g.rank() == 1

    def test_wrong_alphabet_rejected(self):
        with pytest.raises(AlphabetMismatch):
            build_subgroup_graph(words(AB, "a1"), ABC)


class TestFold:
    def test_fold_is_idempotent(self):
        g = build_subgroup_graph(words(AB, "a1^2", "a2"), AB)
        dump = g.dump()
        assert g.fold() is g
        assert g.dump() == dump

    def test_duplicate_loops_collapse(self):
        g = build_subgroup_graph(words(AB, "a1", "a1"), AB)
        assert g.n_vertices == 1
        assert g.n_edges == 1

    def test_shared_letter_prefix(self):
        # the two loops share their first edge; the folded core has the
        # branch vertex and the base
        g = build_subgroup_graph(words(ABC, "a1 a2", "a1 a3"), ABC)
        assert g.n_vertices == 2
        assert g.n_edges == 3
        assert g.rank() == 2
        for text in ("a1 a2", "a1 a3", "a2^-1 a3", "a1 a2 a3^-1 a2"):
            assert g.contains(parse_word(text, ABC))
        assert not g.contains(parse_word("a1", ABC))

    def test_language_preserved_before_and_after_folding(self):
        # in a folded graph a raw letter sequence spells a base loop exactly
        # when its free reduction does, so the free reduction of the raw
        # concatenation of generator loops, and the product, are members
        rng = random.Random(71)
        gens = words(AB, "a1^2", "a2 a1 a2^-1", "a2^3")
        wedge = SubgroupGraph.wedge(gens, AB)
        products = []
        for _ in range(60):
            picks = [rng.choice(gens) for _ in range(rng.randint(1, 4))]
            raw: list[int] = []
            w = Word(AB)
            for p in picks:
                factor = p if rng.random() < 0.5 else p.inverse()
                raw.extend(factor.letters)
                w = w * factor
            products.append((tuple(raw), w))
        folded = wedge.fold()
        for g in gens:
            assert folded.contains(g)
        for raw, w in products:
            assert folded.contains(Word(AB, raw))
            assert folded.contains(w)

    def test_closing_edge_collides_at_base(self):
        # the first generator is not cyclically reduced: attaching it puts
        # a second a1-edge at the base, which must fold into the first
        gens = words(AB, "a1 a2 a1 a2^3 a1^-1", "a1")
        for order in (gens, gens[::-1]):
            g = build_subgroup_graph(order, AB)
            assert (g.n_vertices, g.n_edges, g.rank()) == (5, 6, 2)
            assert g.contains(parse_word("a2 a1 a2^3", AB))
            assert not g.contains(parse_word("a2", AB))
        alone = build_subgroup_graph(gens[:1], AB)
        assert (alone.n_vertices, alone.n_edges, alone.rank()) == (6, 6, 1)
        # the fold merges the arc's first and last inner vertices, which get
        # their dicts; the four between stay implicit and the arc is kept
        assert alone._adj.count(None) == 4 and alone._arcs == ([1], [(0, 0, gens[0].code)])
        assert alone.base_labels(gens[0]) == {1}

    def test_merge_moving_the_base_representative(self):
        gens = words(ABC, "a3 a2", "a2^-1", "a1^-1")
        rose = build_subgroup_graph(words(ABC, "a1", "a2", "a3"), ABC)
        g = build_subgroup_graph(gens, ABC)
        assert g == rose
        assert g.dump() == "0\n0 a1 0\n0 a2 0\n0 a3 0\n"
        for seed in range(8):
            assert build_subgroup_graph(reordered(gens, seed), ABC) == rose

    def test_membership_matches_nielsen_enumeration(self):
        rng = random.Random(2006)
        checked = 0
        for _ in range(200):
            alphabet = Alphabet.numbered(rng.randint(1, 3), "a")
            letters = [s for g in range(1, alphabet.rank + 1) for s in (g, -g)]
            gens = [
                Word(alphabet, [rng.choice(letters) for _ in range(rng.randint(1, 5))])
                for _ in range(rng.randint(1, 3))
            ]
            ball = oracles.subgroup_elements_up_to([w.letters for w in gens if w.letters], 4)
            graph = build_subgroup_graph(gens, alphabet)
            assert graph.rank() == len(oracles.nielsen_reduce([w.letters for w in gens]))
            for t in oracles.reduced_words(alphabet.rank, 4):
                assert graph.contains(Word(alphabet, t)) == (t in ball), (gens, t)
                checked += 1
        assert checked > 10_000

    def test_confluence_under_random_fold_orders(self):
        rng = random.Random(97)
        for trial in range(20):
            gens = []
            for _ in range(rng.randint(1, 4)):
                raw = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 6))]
                gens.append(Word(AB, raw))
            gens = [g for g in gens if not g.is_identity()]
            reference = build_subgroup_graph(gens, AB)
            for seed in range(3):
                other = build_subgroup_graph(reordered(gens, seed), AB)
                assert other == reference
                assert (other.n_vertices, other.n_edges) == (
                    reference.n_vertices,
                    reference.n_edges,
                )
                assert other.rank() == reference.rank()
                for t in oracles.reduced_words(2, 4):
                    q = Word(AB, t)
                    assert other.contains(q) == reference.contains(q)


class TestWedge:
    def test_counts_are_those_of_the_wedge_of_loops(self):
        gens = words(AB, "a1^2", "a2 a1 a2^-1", "1", "a2^3 a1")
        wedge = SubgroupGraph.wedge(gens, AB)
        assert not wedge.folded
        assert wedge.n_vertices == 1 + sum(len(w) - 1 for w in gens if len(w))
        assert wedge.n_edges == sum(len(w) for w in gens)
        assert (wedge.n_vertices, wedge.n_edges) == (7, 9)
        assert SubgroupGraph.wedge([], AB).n_vertices == 1

    def test_unfolded_queries_are_rejected(self):
        wedge = SubgroupGraph.wedge(words(AB, "a1^2"), AB)
        folded = build_subgroup_graph(words(AB, "a1^2"), AB)
        queries = [
            lambda: wedge.contains(parse_word("a1^2", AB)),
            wedge.edges,
            wedge.dump,
            lambda: wedge == folded,
        ]
        for query in queries:
            with pytest.raises(ValueError, match="folded"):
                query()


class TestRank:
    def test_single_vertex(self):
        assert build_subgroup_graph([], AB).rank() == 0

    def test_rose(self):
        for k in (1, 2, 3):
            alphabet = Alphabet.numbered(k, "a")
            gens = [Word(alphabet, (i,)) for i in range(1, k + 1)]
            assert build_subgroup_graph(gens, alphabet).rank() == k

    def test_index_two_subgroup_of_squares(self):
        g = build_subgroup_graph(words(AB, "a1^2", "a2^2", "a1 a2 a1 a2"), AB)
        assert g.rank() == 3

    def test_nielsen_schreier_index_two(self):
        # kernel of the map to Z/2 killing a1: index 2, rank 2*(2-1)+1
        g = build_subgroup_graph(words(AB, "a1", "a2^2", "a2 a1 a2^-1"), AB)
        assert g.rank() == 3

    def test_nielsen_schreier_index_three(self):
        # kernel of the map to Z/3 sending a1 to 1, a2 to 0: rank 3*(2-1)+1
        g = build_subgroup_graph(
            words(AB, "a1^3", "a2", "a1 a2 a1^-1", "a1^2 a2 a1^-2"), AB
        )
        assert g.rank() == 4

    def test_requires_folded(self):
        wedge = SubgroupGraph.wedge(words(AB, "a1^2"), AB)
        with pytest.raises(ValueError):
            wedge.rank()

    def test_hanging_tail_is_trimmed(self):
        # a conjugate generator folds to a loop on a stalk; the stalk must
        # not change the rank
        g = build_subgroup_graph(words(AB, "a2 a1 a2^-1"), AB)
        assert g.rank() == 1
        assert g.contains(parse_word("a2 a1^3 a2^-1", AB))


class TestContains:
    def test_empty_word(self):
        g = build_subgroup_graph(words(AB, "a1^2"), AB)
        assert g.contains(Word(AB))

    def test_proper_power(self):
        g = build_subgroup_graph(words(AB, "a1^2"), AB)
        assert not g.contains(parse_word("a1", AB))
        assert g.contains(parse_word("a1^2", AB))
        assert not g.contains(parse_word("a1^3", AB))
        assert g.contains(parse_word("a1^-4", AB))

    def test_conjugate_membership(self):
        g = build_subgroup_graph(words(AB, "a1^2", "a2"), AB)
        assert g.contains(parse_word("a1^2 a2 a1^-2", AB))
        assert not g.contains(parse_word("a1 a2 a1^-1", AB))

    def test_alphabet_mismatch(self):
        g = build_subgroup_graph(words(AB, "a1"), AB)
        with pytest.raises(AlphabetMismatch):
            g.contains(parse_word("a1", ABC))


class TestBaseLabels:
    def test_conjugate_uses_one_base_edge(self):
        g = build_subgroup_graph(words(AB, "a1 a2 a1^-1"), AB)
        assert g.base_labels(Word(AB, (1, 2, -1))) == {1}

    def test_loop_through_base_collects_both_sides(self):
        # a1 a2^-1 passes the base after each letter
        gens = words(AB, "a1", "a2", "a1 a2^-1")
        g = build_subgroup_graph(gens, AB)
        assert g.base_labels(gens[2]) == g.base_labels(gens[2].inverse()) == {1, -1, 2, -2}
        assert g.base_labels(Word(AB)) == set()
        assert g._out is None

    def test_alphabet_check(self):
        # the is-then-== test of wedge and contains: an equal alphabet held
        # in another object passes, an unequal one with the same codes not
        g = build_subgroup_graph(words(AB, "a1 a2"), AB)
        with pytest.raises(AlphabetMismatch):
            g.base_labels(Word(Alphabet.numbered(2, "x"), (1, 2)))
        assert g.base_labels(Word(Alphabet(("a1", "a2")), (1, 2))) == {1, -2}

    def test_rejects_non_loops(self):
        # only an attached generator or its inverse has a kept path: a
        # non-path, a non-loop and a loop the fold did not attach all raise
        g = build_subgroup_graph(words(AB, "a1^2"), AB)
        for text in ("a2", "a1", "a1^4", "a1^-1"):
            with pytest.raises(ValueError, match="attached generator"):
                g.base_labels(parse_word(text, AB))
        assert g._out is None
        with pytest.raises(ValueError, match="folded"):
            SubgroupGraph.wedge(words(AB, "a1"), AB).base_labels(Word(AB, (1,)))


class TestDump:
    def test_golden_dump(self):
        g = build_subgroup_graph(words(AB, "a1^2", "a2"), AB)
        assert g.dump() == "0\n0 a1 1\n0 a2 0\n1 a1 0\n"

    def test_graphs_compare_only_with_graphs(self):
        g = build_subgroup_graph(words(AB, "a1^2", "a2"), AB)
        assert g == build_subgroup_graph(words(AB, "a2", "a1^-2"), AB)
        assert not g == 3 and g != 3
        assert g != g.dump()

    def test_dump_deterministic_across_fold_orders(self):
        gens = words(AB, "a1 a2", "a1 a1", "a2 a1^-1")
        reference = build_subgroup_graph(gens, AB).dump()
        for seed in range(4):
            assert build_subgroup_graph(reordered(gens, seed), AB).dump() == reference


# how each later generator is built from the ones before it, so that its
# reads jump along known loops: a random word, left * last * right as the
# family builds its images, a prefix, a suffix (read backward along an
# earlier inverse code), the same word again, its inverse
_BUILDS = ["random", "chain", "prefix", "suffix", "repeat", "inverse"]


def _fold_both_ways(gens, rank):
    alphabet = Alphabet.numbered(rank, "a")
    graph = build_subgroup_graph([Word(alphabet, w) for w in gens], alphabet)
    return (graph.dump(), graph.rank()), oracles.folded_dump(gens, alphabet.names)


class TestAgainstTextbookFold:
    @settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_generators_built_from_earlier_ones(self, data):
        rank = data.draw(st.integers(1, 3))
        signed = st.sampled_from([s for g in range(1, rank + 1) for s in (g, -g)])

        def word(max_size):
            return data.draw(st.lists(signed, max_size=max_size).map(oracles.naive_reduce))

        gens = [word(8)]
        for _ in range(data.draw(st.integers(0, 6))):
            build = data.draw(st.sampled_from(_BUILDS))
            earlier = data.draw(st.sampled_from(gens))
            k = data.draw(st.integers(0, len(earlier)))
            if build == "random":
                new = word(8)
            elif build == "chain":
                new = oracles.t_mul(oracles.t_mul(word(3), gens[-1]), word(3))
            elif build == "prefix":
                new = earlier[:k]
            elif build == "suffix":
                new = earlier[k:]
            elif build == "repeat":
                new = earlier
            else:
                new = oracles.t_inv(earlier)
            gens.append(new)
        mine, textbook = _fold_both_ways(gens, rank)
        assert mine == textbook, gens

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda rank: st.tuples(
                st.just(rank),
                st.lists(
                    st.lists(st.integers(1, rank).flatmap(lambda g: st.sampled_from([g, -g])))
                    .map(oracles.naive_reduce),
                    max_size=5,
                ),
            )
        )
    )
    def test_random_generators(self, ranked):
        rank, gens = ranked
        mine, textbook = _fold_both_ways(gens, rank)
        assert mine == textbook, gens

    def test_backward_read_is_capped_at_the_forward_one(self):
        # a1 reads forward along the first loop to a vertex with no
        # a3-edge; a3^-1 a1^-1 is a prefix of the second loop's inverse
        # code, but only its first letter is left to read backward
        gens = [(1, 2), (-2, 1, 3), (1, 3)]
        mine, textbook = _fold_both_ways(gens, 3)
        assert mine == textbook
        assert textbook[1] == 3

    @pytest.mark.parametrize("g", [2, 4, 8])
    @pytest.mark.parametrize("l", [3, 12])
    def test_family(self, g, l):
        h = embedding(FamilyParams(g, l))
        graph = build_subgroup_graph(h.images, h.codomain)
        textbook = oracles.folded_dump([w.letters for w in h.images], h.codomain.names)
        assert (graph.dump(), graph.rank()) == textbook
        assert textbook[1] == 2 * g


def _letter_reads(gens, rank):
    """The fold's one-letter-at-a-time reads: the ``dict.get`` calls of the
    fold and its ``read``, one per letter read past a jump and one per read
    that stops at a missing edge.  Step counts, never a time."""
    alphabet = Alphabet.numbered(rank, "a")
    wedge = SubgroupGraph.wedge([Word(alphabet, w) for w in gens], alphabet)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        name = frame.f_code.co_name
        if event == "c_call" and name in ("fold", "read") and arg.__name__ == "get":
            calls += 1

    sys.setprofile(count)
    try:
        wedge.fold()
    finally:
        sys.setprofile(None)
    return calls


def _textbook_adjacency(gens, rank):
    """The textbook fold's graph as {(vertex, signed letter): vertex},
    read off ``oracles.folded_dump``; the base is 0."""
    names = Alphabet.numbered(rank, "a").names
    return _dump_adjacency(oracles.folded_dump(gens, names)[0], names)


def _dump_adjacency(dump, names):
    """A canonical dump's graph as {(vertex, signed letter): vertex}."""
    adj = {}
    for line in dump.splitlines()[1:]:
        u, name, v = line.split()
        s = names.index(name) + 1
        adj[int(u), s], adj[int(v), -s] = int(v), int(u)
    return adj


def _common_prefix_length(a, b):
    k = 0
    while k < min(len(a), len(b)) and a[k] == b[k]:
        k += 1
    return k


def _jump_model(earlier, w, rank):
    """What attaching ``w`` after ``earlier`` should read, by the textbook
    fold of ``earlier``: each read jumps the longest prefix it shares with an
    earlier generator or inverse, at most its limit, then reads letters one
    at a time as far as the folded graph spells it.  Returns the forward
    (jump, limit), the backward (jump, cap) or None when the forward read
    closes the loop, and the number of letters read one at a time, counting
    a read that stops at a missing edge as one."""
    adj = _textbook_adjacency(earlier, rank)
    known = [c for e in earlier if e for c in (e, oracles.t_inv(e))]

    def read(word, limit):
        jump = min(limit, max((_common_prefix_length(word, c) for c in known), default=0))
        v, spelled = 0, 0
        while spelled < limit and (v, word[spelled]) in adj:
            v, spelled = adj[v, word[spelled]], spelled + 1
        return jump, spelled, spelled - jump + (spelled < limit)

    n = len(w)
    jump, i, reads = read(w, n)
    if i == n:
        return (jump, n), None, reads
    back, _, back_reads = read(oracles.t_inv(w), n - i)
    return (jump, n), (back, n - i), reads + back_reads


# one known loop K, then a generator whose shared prefix with K or K^-1,
# the neighbours of its insertion point, is 0, 1, limit - 1 or the limit:
# (w, forward (jump, limit n), backward (jump, cap n - i) or None)
_K = (1, 2, 1, 2, 3)
_JUMP_BOUNDS = {
    "forward 0": ((2, 1, 3), (0, 3), (1, 3)),
    "forward 1": ((1, 3, 2), (1, 3), (0, 2)),
    "forward n - 1": ((1, 2, 1, 3), (3, 4), (1, 1)),
    "forward n": ((1, 2, 1), (3, 3), None),
    "forward past all of K": ((1, 2, 1, 2, 3, 1), (5, 6), None),
    "backward 0": ((1, 2, 2, 1), (2, 4), (0, 2)),
    "backward 1": ((1, 2, 2, 1, 3), (2, 5), (1, 3)),
    "backward cap - 1": ((1, 2, 2, 2, 1, 2, 3), (2, 7), (4, 5)),
    "backward cap": ((1, 2, 2, 3), (2, 4), (2, 2)),
    "backward past the cap": ((1, 2, 3), (2, 3), (1, 1)),
}


class TestJumpBounds:
    @pytest.mark.parametrize("label", list(_JUMP_BOUNDS))
    def test_jump_reaches_its_bound_and_no_further(self, label):
        w, forward, backward = _JUMP_BOUNDS[label]
        *jumps, reads = _jump_model([_K], w, 3)
        assert jumps == [forward, backward]
        for gens in ([_K, w], [oracles.t_inv(_K), w]):
            mine, textbook = _fold_both_ways(gens, 3)
            assert mine == textbook
            assert _letter_reads(gens, 3) - _letter_reads(gens[:1], 3) == reads

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_only_letters_no_known_loop_spells_are_read_one_at_a_time(self, data):
        rank = data.draw(st.integers(1, 3))
        signed = st.sampled_from([s for g in range(1, rank + 1) for s in (g, -g)])
        reduced = st.lists(signed, max_size=8).map(oracles.naive_reduce)
        earlier = data.draw(st.lists(reduced, min_size=1, max_size=4))
        base = data.draw(st.sampled_from(earlier))
        k = data.draw(st.integers(0, len(base)))
        # a prefix of an earlier loop with a random tail, a suffix with a
        # random head, or a random word
        other = data.draw(reduced)
        build = data.draw(st.sampled_from(["prefix", "suffix", "random"]))
        if build == "prefix":
            w = oracles.t_mul(base[:k], other)
        elif build == "suffix":
            w = oracles.t_mul(other, base[k:])
        else:
            w = other
        *_, reads = _jump_model(earlier, w, rank)
        gens = [*earlier, w]
        assert _letter_reads(gens, rank) - _letter_reads(earlier, rank) == reads, gens


# sha256 of dump() of the family's folded graph at l = 12, frozen from the
# fold before its paths were arrays and its jumps bisected
_FAMILY_DUMP_SHA256 = {
    8: "29cf0b1aa8bebeac1e86458bf46fea219d496d32e7f8cb38531aa17e5a8baa71",
    32: "2c429b335b34df9f62ab54d558fb88e5fd10f29a1b3b32aadd19313492928ff5",
    64: "1cfeee27e180d12aa8add22c6351f8465c8ac89587f9e30c6afff4a979f5f3ee",
}


@pytest.mark.parametrize("g", list(_FAMILY_DUMP_SHA256))
def test_family_dump_digest(g):
    h = embedding(FamilyParams(g, 12))
    graph = build_subgroup_graph(h.images, h.codomain)
    assert hashlib.sha256(graph.dump().encode()).hexdigest() == _FAMILY_DUMP_SHA256[g]
    assert graph.rank() == 2 * g


def _dump_counts(dump):
    """(V, E) of a canonical dump: vertex ids are 0..V-1, one edge a line."""
    lines = dump.splitlines()[1:]
    ends = {0} | {int(x) for line in lines for x in line.split()[::2]}
    return len(ends), len(lines)


class TestCountsDuringFold:
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_counts_match_canonical_form_and_textbook_fold(self, data):
        rank = data.draw(st.integers(1, 3))
        signed = st.sampled_from([s for g in range(1, rank + 1) for s in (g, -g)])
        reduced = st.lists(signed, max_size=7).map(oracles.naive_reduce)
        gens = data.draw(st.lists(reduced, max_size=4))
        # repeats, inverses, powers (merge-heavy: a1^2 then a1^3) and trivial words
        for _ in range(data.draw(st.integers(0, 4))):
            earlier = data.draw(st.sampled_from(gens)) if gens else ()
            build = data.draw(st.sampled_from(["repeat", "inverse", "power", "trivial"]))
            if build == "repeat":
                new = earlier
            elif build == "inverse":
                new = oracles.t_inv(earlier)
            elif build == "power":
                new = oracles.t_pow(earlier, data.draw(st.integers(2, 5)))
            else:
                new = ()
            gens.append(new)
        alphabet = Alphabet.numbered(rank, "a")
        graph = build_subgroup_graph([Word(alphabet, w) for w in gens], alphabet)
        counts = (graph.n_vertices, graph.n_edges, graph.rank())
        textbook, textbook_rank = oracles.folded_dump(gens, alphabet.names)
        assert counts == (*_dump_counts(textbook), textbook_rank), gens
        assert counts[:2] == _dump_counts(graph.dump()), gens

    def test_powers_fold_to_their_gcd(self):
        for texts, counts in [(("a1^2", "a1^3"), (1, 1, 1)), (("a1^6", "a1^4"), (2, 2, 1))]:
            g = build_subgroup_graph(words(A1, *texts), A1)
            assert (g.n_vertices, g.n_edges, g.rank()) == counts

    def test_one_identify_cascades_through_several_merges(self):
        # a1^4 reads four letters along the a1^6 loop; identifying its end
        # with the base cascades until the six vertices form the two
        # classes {0, 2, 4} and {1, 3, 5}: four merges from one call
        gens = words(A1, "a1^6", "a1^4")
        g = SubgroupGraph.wedge(gens, A1)
        assert g.fold() is g
        assert (g.n_vertices, g.n_edges, g.rank()) == (2, 2, 1)
        assert len(g._adj) - g.n_vertices == 4
        assert g.dump() == "0\n0 a1 1\n1 a1 0\n"
        # every vertex of the arc takes part in a merge, which gives it its
        # dict inside the fold; the kept paths still hold merged ids, which
        # base_labels resolves
        assert None not in g._adj
        representatives = {v for v, d in enumerate(g._adj) if d}
        for w in gens:
            assert not set(g._loops[w.code][0]) <= representatives
            assert g.base_labels(w) == g.base_labels(w.inverse()) == {1, -1}

    def test_long_arc_folds_in_a_few_words_per_vertex(self):
        # one cyclically reduced generator folds to a single arc and merges
        # nothing.  Union-find parents in a list held an int object for
        # each vertex, about 65 bytes per vertex in all; in an array of
        # machine ints 8, about 34 in all; kept for merged vertices only,
        # they hold nothing here, about 26 in all
        letters = oracles.random_reduced_letters(3, 200_000, 17)
        assert letters[0] != -letters[-1]
        graph = SubgroupGraph.wedge([Word(ABC, letters)], ABC)
        tracemalloc.start()
        try:
            graph.fold()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert graph._parent == {}
        assert graph.n_vertices == len(letters)
        assert peak < 32 * graph.n_vertices, peak / graph.n_vertices


class TestMergedOnlyUnionFind:
    """The fold keeps a union-find parent for each merged vertex only."""

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_merge_chains_match_the_textbook_fold(self, data):
        # powers of one root, conjugated or not, close up on its earlier
        # powers: each cascade merges down to the gcd of the exponents, and
        # a later one merges vertices that an earlier one left as keys
        rank = data.draw(st.integers(1, 3))
        signed = st.sampled_from([s for g in range(1, rank + 1) for s in (g, -g)])
        reduced = st.lists(signed, max_size=4).map(oracles.naive_reduce)
        root = data.draw(reduced.filter(bool))
        gens = []
        for _ in range(data.draw(st.integers(2, 5))):
            build = data.draw(st.sampled_from(["power", "conjugate", "product", "random"]))
            power = oracles.t_pow(root, data.draw(st.integers(1, 12)))
            if build == "power":
                new = power
            elif build == "conjugate":
                u = data.draw(reduced)
                new = oracles.t_mul(oracles.t_mul(u, power), oracles.t_inv(u))
            elif build == "product" and gens:
                new = oracles.t_mul(data.draw(st.sampled_from(gens)), power)
            else:
                new = data.draw(reduced)
            gens.append(new)
        alphabet = Alphabet.numbered(rank, "a")
        graph = build_subgroup_graph([Word(alphabet, w) for w in gens], alphabet)
        dump, textbook_rank = oracles.folded_dump(gens, alphabet.names)
        assert (graph.dump(), graph.rank()) == (dump, textbook_rank), gens
        assert graph.n_vertices == len(graph._adj) - len(graph._parent), gens
        # each key is a merged vertex, whose dict the merge emptied
        assert all(graph._adj[b] == {} and a != b for b, a in graph._parent.items())
        adj = _dump_adjacency(dump, alphabet.names)
        for w in gens:
            for word in (w, oracles.t_inv(w)):
                assert graph.base_labels(Word(alphabet, word)) == _walked_base_labels(adj, word)

    def test_a_second_cascade_merges_the_first_ones_classes(self):
        # a1^30 is one loop of 30 vertices; a1^18 folds it to gcd 6, 24
        # merges, and a1^10 to gcd 2, four more, by way of ids that the
        # first cascade merged
        gens = words(A1, "a1^30", "a1^18", "a1^10")
        for k, (vertices, merged) in enumerate([(30, 0), (6, 24), (2, 28)], 1):
            g = build_subgroup_graph(gens[:k], A1)
            assert (g.n_vertices, len(g._parent), len(g._adj)) == (vertices, merged, 30)
            assert (g.dump(), g.rank()) == oracles.folded_dump(
                [w.letters for w in gens[:k]], A1.names
            )
            for w in gens[:k]:
                assert g.base_labels(w) == g.base_labels(w.inverse()) == {1, -1}
        _query_everything(build_subgroup_graph(gens, A1), gens, parse_word("a1", A1))

    @pytest.mark.parametrize("genus", [2, 8])
    def test_family_folds_keep_no_parents(self, genus):
        h = embedding(FamilyParams(genus, 12))
        g = build_subgroup_graph(h.images, h.codomain)
        assert g._parent == {} and g.n_vertices == len(g._adj)


def _same_fold(mine, theirs, images):
    """Two folds of the same images agree in every kept part of their state
    and in every query."""
    assert mine == theirs
    assert (mine.n_vertices, mine.n_edges, mine.rank()) == (
        theirs.n_vertices,
        theirs.n_edges,
        theirs.rank(),
    )
    state = ("_adj", "_parent", "_root", "_arcs", "_loops")
    assert [getattr(mine, a) for a in state] == [getattr(theirs, a) for a in state]
    for w in images:
        for q in (w, w.inverse()):
            assert mine.base_labels(q) == theirs.base_labels(q)


class TestInverseCodeHandoff:
    """``is_injective`` and ``verify`` fold with the inverse image codes
    that the homomorphism already holds."""

    @pytest.mark.parametrize("g", [2, 8, 32])
    @pytest.mark.parametrize("l", [3, 12])
    def test_family_fold_from_the_homomorphisms_codes(self, g, l):
        h = embedding(FamilyParams(g, l))
        mine = stallings._image_graph(h)
        _same_fold(mine, build_subgroup_graph(h.images, h.codomain), h.images)
        assert is_injective(h) == (True, 2 * g, 2 * g)

    def test_trivial_repeated_and_inverse_images(self):
        # a trivial image is no loop, so the codes handed to the fold skip it
        images = words(AB, "1", "a1 a2", "a2^-1 a1^-1", "1", "a1 a2", "a2 a1^2 a2^-1")
        h = Homomorphism(Alphabet.numbered(6, "x"), AB, images)
        mine = stallings._image_graph(h)
        _same_fold(mine, build_subgroup_graph(images, AB), images)
        assert is_injective(h) == (False, 2, 6)

    def test_no_inverse_code_is_derived_during_the_fold(self, monkeypatch):
        calls = []

        def counting(code):
            calls.append(code)
            return inverse(code)

        inverse = stallings._inverse
        monkeypatch.setattr(stallings, "_inverse", counting)
        h = embedding(FamilyParams(8, 12))
        assert is_injective(h) == (True, 16, 16)
        assert verify(FamilyParams(8, 12)).hard_pass
        assert calls == []
        # the counter sees the fold of the images alone
        build_subgroup_graph(h.images, h.codomain)
        assert len(calls) == len(h.images)


def _walked_base_labels(adj, w):
    """Base labels of the base loop ``w``, by a naive walk over ``adj``."""
    labels, v = set(), 0
    for s in w:
        if v == 0:
            labels.add(s)
        v = adj[v, s]
        if v == 0:
            labels.add(-s)
    assert v == 0, w
    return labels


def _spells_base_loop(adj, w):
    """True iff ``w`` reads from the base back to it over ``adj``."""
    v = 0
    for s in w:
        v = adj.get((v, s))
        if v is None:
            return False
    return v == 0


def _explicit(g):
    """The vertices of a folded graph that hold their own adjacency dict."""
    return [v for v, d in enumerate(g._adj) if d is not None]


class TestImplicitArcs:
    """A fresh arc's inner vertices get a dict only when the fold reads on
    from one, attaches an arc at it or merges it."""

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_loop_base_labels_match_a_walk_of_the_textbook_fold(self, data):
        rank = data.draw(st.integers(1, 3))
        signed = st.sampled_from([s for g in range(1, rank + 1) for s in (g, -g)])
        reduced = st.lists(signed, max_size=8).map(oracles.naive_reduce)
        gens = [data.draw(reduced)]
        # later loops that jump along, branch off and close up on earlier
        # arcs, repeats, inverses, powers (merge-heavy) and trivial words
        builds = ["random", "prefix", "suffix", "repeat", "inverse", "power", "trivial"]
        for _ in range(data.draw(st.integers(0, 5))):
            build = data.draw(st.sampled_from(builds))
            earlier = data.draw(st.sampled_from(gens))
            k = data.draw(st.integers(0, len(earlier)))
            if build == "random":
                new = data.draw(reduced)
            elif build == "prefix":
                new = oracles.t_mul(earlier[:k], data.draw(reduced))
            elif build == "suffix":
                new = oracles.t_mul(data.draw(reduced), earlier[k:])
            elif build == "repeat":
                new = earlier
            elif build == "inverse":
                new = oracles.t_inv(earlier)
            elif build == "power":
                new = oracles.t_pow(earlier, data.draw(st.integers(2, 4)))
            else:
                new = ()
            gens.append(new)
        alphabet = Alphabet.numbered(rank, "a")
        graph = build_subgroup_graph([Word(alphabet, w) for w in gens], alphabet)
        adj = _textbook_adjacency(gens, rank)
        loops = [w for w in gens if w]
        for w in loops:
            for word in (w, oracles.t_inv(w)):
                assert graph.base_labels(Word(alphabet, word)) == _walked_base_labels(adj, word), gens
        assert graph.base_labels(Word(alphabet)) == set()
        assert graph._out is None  # the loops were read off their paths

    def test_later_loop_branches_at_an_inner_arc_vertex(self):
        # a1 a2 a1 leaves vertices 1 and 2 implicit; a1 a3 a2 a3 reads a1 to
        # vertex 1, so vertex 1 gets its dict, and its arc a3 a2 a3 back to
        # the base starts there, with inner vertices 3 and 4 left implicit
        gens = [(1, 2, 1), (1, 3, 2, 3)]
        g = build_subgroup_graph([Word(ABC, w) for w in gens], ABC)
        assert _explicit(g) == [0, 1]
        arcs = [(0, 0, Word(ABC, (1, 2, 1)).code), (1, 0, Word(ABC, (3, 2, 3)).code)]
        assert g._arcs == ([1, 3], arcs)
        assert (g.dump(), g.rank()) == oracles.folded_dump(gens, ABC.names)
        assert g.base_labels(Word(ABC, gens[1])) == {1, -3}
        assert g.base_labels(Word(ABC, oracles.t_inv(gens[1]))) == {1, -3}
        assert g.contains(parse_word("a1^-1 a2^-1 a3 a2 a3", ABC))
        assert not g.contains(parse_word("a2^-1 a3 a2 a3", ABC))

    def test_repeated_inverse_and_empty_generators(self):
        # a repeat and an inverse share the first loop's path; the trivial
        # word is no loop and uses no base edge
        gens = words(ABC, "a1 a2 a3", "a1 a2 a3", "a3^-1 a2^-1 a1^-1", "1", "a2 a1 a2^-1")
        g = build_subgroup_graph(gens, ABC)
        assert len(g._loops) == 4  # two codes and their inverses
        labels = [g.base_labels(w) for w in gens]
        assert labels == [{1, -3}, {1, -3}, {1, -3}, set(), {2}]
        assert g._out is None
        textbook = oracles.folded_dump([w.letters for w in gens], ABC.names)
        assert (g.dump(), g.rank()) == textbook

    def test_inverse_loop_reads_its_path_backwards(self):
        # a1 a2 a3 passes the base after one letter, its inverse after two
        gens = words(ABC, "a1", "a1 a2 a3")
        g = build_subgroup_graph(gens, ABC)
        assert g.base_labels(gens[1]) == {1, -1, 2, -3}
        assert g.base_labels(gens[1].inverse()) == {1, -1, 2, -3}
        assert g._out is None
        # a rotation of the inverse is a loop at the base, but not attached
        with pytest.raises(ValueError, match="attached generator"):
            g.base_labels(parse_word("a1^-1 a3^-1 a2^-1", ABC))

    @pytest.mark.parametrize("size", [1, 100_000])
    def test_merging_fold_leaves_its_arc_implicit(self, size):
        # a1 p a1 a2^3 a1^-1 alone: the arc's closing edge a1^-1 collides
        # with its first edge at the base, which merges the arc's first and
        # last inner vertices and leaves a merged id on the loop's path; the
        # vertices between stay implicit, and no query gives them a dict
        rng = random.Random(size)
        p = [2]
        while len(p) < size or p[-1] == -1:
            s = rng.choice((1, -1, 2, -2))
            if s != -p[-1]:
                p.append(s)
        w, core = Word(AB, (1, *p, 1, 2, 2, 2, -1)), Word(AB, (*p, 1, 2, 2, 2))
        g = build_subgroup_graph([w], AB)
        assert g._adj.count(None) == len(w) - 3
        _query_everything(g, [w], core)
        dump, rank = oracles.folded_dump([w.letters], AB.names)
        assert (g.dump(), g.rank()) == (dump, rank) and rank == 1
        adj = _dump_adjacency(dump, AB.names)
        for q in (w, w.inverse()):
            assert g.base_labels(q) == _walked_base_labels(adj, q.letters) == {1}
        for q in (w, w**2, w.inverse(), core, Word(AB, (1,)), w * Word(AB, (1,))):
            assert g.contains(q) == _spells_base_loop(adj, q.letters)
        assert g == build_subgroup_graph([w.inverse()], AB)
        assert g != build_subgroup_graph([w, core], AB)

    @pytest.mark.parametrize("genus", [8, 32])
    def test_family_arcs_stay_implicit(self, genus):
        # each generator gives at most its two read ends a dict, so at most
        # two explicit vertices per generator and the base
        h = embedding(FamilyParams(genus, 12))
        g = build_subgroup_graph(h.images, h.codomain)
        assert len(_explicit(g)) <= 1 + 2 * len(h.images)


class TestFoldedQueries:
    def test_rank_paths_build_no_canonical_form(self, monkeypatch):
        def refuse(self, what):
            raise AssertionError(f"canonical relabel built for {what}")

        monkeypatch.setattr(SubgroupGraph, "_canonical", refuse)
        h = embedding(FamilyParams(4, 5))
        assert is_injective(h) == (True, 8, 8)
        assert build_subgroup_graph(h.images, h.codomain).rank() == 8
        assert verify(FamilyParams(2, 3)).hard_pass
        with pytest.raises(AssertionError, match="edges"):
            build_subgroup_graph(h.images, h.codomain).edges()

    @pytest.mark.parametrize(
        "alphabet, texts, outsider",
        [(A1, ("a1^6", "a1^4"), "a1^3"), (AB, ("a2^-1 a1^-1 a2^2", "a2^-2"), "a2")],
    )
    def test_queries_leave_the_union_find_state_unchanged(self, alphabet, texts, outsider):
        # both folds merge and move the base's representative, and leave
        # targets that are merged ids, for the canonical relabel to resolve
        gens = words(alphabet, *texts)
        g = build_subgroup_graph(gens, alphabet)
        assert g._root != 0
        assert any(t in g._parent for d in g._adj for t in d.values())
        _query_everything(g, gens, parse_word(outsider, alphabet))

    @pytest.mark.parametrize("genus", [2, 8])
    def test_queries_leave_implicit_arcs_implicit(self, genus):
        # the family's folds merge nothing, and most inner vertices keep no
        # dict; no query gives them one
        h = embedding(FamilyParams(genus, 5))
        g = build_subgroup_graph(h.images, h.codomain)
        assert None in g._adj
        _query_everything(g, h.images, parse_word("y1", h.codomain))


def _query_everything(g, gens, outsider):
    """Every query of a folded graph, with a snapshot of the fold's state
    taken before and compared after.  The loops' base labels are read off
    their paths, before anything builds the canonical relabel."""
    state = ("_adj", "_parent", "_root", "_counts", "_arcs", "_loops")
    before = copy.deepcopy([getattr(g, name) for name in state])
    for w in gens:
        assert g.base_labels(w)
        assert g.base_labels(w.inverse())
    assert g._out is None
    for w in gens:
        assert g.contains(w)
    assert not g.contains(outsider)
    assert g.base_labels(Word(g.alphabet)) == set()
    assert g.dump() and g == g
    assert (g.n_vertices, g.n_edges) == g._counts
    assert g.rank() == g.n_edges - g.n_vertices + 1
    assert [getattr(g, name) for name in state] == before


class TestInjectivity:
    def test_injective_power_map(self):
        h = Homomorphism(Alphabet.numbered(1, "x"), A1, [Word(A1, (1, 1))])
        result = is_injective(h)
        assert result.verdict
        assert result.image_rank == 1
        assert result.domain_rank == 1

    def test_collapsing_map(self):
        x2 = Alphabet.numbered(2, "x")
        h = Homomorphism(x2, A1, [Word(A1, (1,)), Word(A1, (1,))])
        result = is_injective(h)
        assert not result.verdict
        assert result.image_rank == 1
        assert result.domain_rank == 2

    def test_family_instance(self):
        result = is_injective(embedding(FamilyParams(2, 3)))
        assert result.verdict
        assert result.image_rank == 4
        assert result.domain_rank == 4

    def test_relation_detected(self):
        # x -> a b, y -> b^-1 a^-1 satisfy x y = 1
        x2 = Alphabet.numbered(2, "x")
        h = Homomorphism(x2, AB, [parse_word("a1 a2", AB), parse_word("a2^-1 a1^-1", AB)])
        assert not is_injective(h).verdict
