import itertools
import pickle
import random
import re
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fgkit.words as words
from fgkit import (
    Alphabet,
    AlphabetMismatch,
    CyclicWord,
    Homomorphism,
    Word,
    WordSyntaxError,
    canonical_class,
    exponent_vector,
    parse_word,
    render_word,
)
from fgkit.family import FamilyParams, boundary_word, embedding, shuffle_words, verify
from fgkit.stallings import SubgroupGraph, build_subgroup_graph

from oracles import (
    is_generator_name,
    least_rotation,
    naive_reduce,
    reduced_words,
    render,
    t_apply,
    t_inv,
    t_mul,
    t_pow,
)

Y = Alphabet.numbered(3, "y")
AB = Alphabet.numbered(2, "a")
_LETTERS = st.sampled_from([1, -1, 2, -2, 3, -3])
# atoms over letters, digits, _, ^, +, -, é and ²: a name of the parse
# tests' alphabet or other text, then no exponent, a signed one, or other
# text after a caret
_ATOMS = st.tuples(
    st.one_of(st.sampled_from(["y", "a_1", "Z9", "y1"]), st.text("ay19_^+-é²", max_size=3)),
    st.one_of(
        st.just(""),
        st.tuples(st.sampled_from(["", "+", "-", "-0"]), st.integers(0, 20)).map("^{0[0]}{0[1]}".format),
        st.text("y019_^+-é²", max_size=3).map("^".__add__),
    ),
).map("".join).filter(bool)


def _code(letters):
    """The letter code of a raw letter sequence, spelled out here: generator
    k is chr(2k), its inverse chr(2k + 1)."""
    return "".join(chr(2 * abs(s) + (s < 0)) for s in letters)


def _letters(code):
    return tuple(-(ord(c) // 2) if ord(c) % 2 else ord(c) // 2 for c in code)


class TestAlphabet:
    def test_numbered(self):
        assert Y.names == ("y1", "y2", "y3")
        assert Y.rank == 3
        assert Y.index("y2") == 2
        assert Y.name(3) == "y3"

    def test_validation(self):
        with pytest.raises(ValueError):
            Alphabet(())
        with pytest.raises(ValueError):
            Alphabet(("a", "a"))
        with pytest.raises(ValueError):
            Alphabet(("1bad",))
        with pytest.raises(ValueError):
            Alphabet(("with space",))

    def test_value_class(self):
        a = Alphabet(names=("a", "b"))
        assert repr(a) == "Alphabet(names=('a', 'b'))"
        assert a == Alphabet(("a", "b")) and hash(a) == hash(Alphabet(("a", "b")))
        assert a != Alphabet(("b", "a")) and a != ("a", "b")
        assert len({a, Alphabet(("a", "b")), AB}) == 2
        with pytest.raises(AttributeError):
            a.names = ("c",)
        with pytest.raises(AttributeError):
            del a.names
        back = pickle.loads(pickle.dumps(Y))
        assert back == Y and repr(back) == repr(Y) and back.index("y3") == 3

    def test_names_are_held_as_a_tuple(self):
        names = ["y1", "y2"]
        listed, tupled = Alphabet(names), Alphabet(("y1", "y2"))
        names.append("y3")
        assert listed.names == ("y1", "y2") and listed.rank == 2
        assert listed == tupled and hash(listed) == hash(tupled)
        assert (Word(listed, (1,)) * Word(tupled, (-2,))).letters == (1, -2)

    def test_index_is_one_lookup(self):
        # name comparisons, never a time: finding each name by a scan of
        # the names would make n (n + 1) / 2 of them for the word below
        compared = []

        class CountingName(str):
            __hash__ = str.__hash__

            def __eq__(self, other):
                compared.append(other)
                return str.__eq__(self, other)

        n = 400
        alphabet = Alphabet(tuple(CountingName(f"g{k}") for k in range(1, n + 1)))
        compared.clear()
        w = parse_word(" ".join(f"g{k}" for k in range(n, 0, -1)), alphabet)
        assert w.letters == tuple(range(n, 0, -1))
        assert len(compared) <= n

    @pytest.mark.parametrize("prefix", ["y", "x", "Z9", "a_", "gen_"])
    @pytest.mark.parametrize("rank", [1, 2, 128])
    def test_numbered_matches_the_names_spelled_out(self, prefix, rank):
        spelled = Alphabet(f"{prefix}{k}" for k in range(1, rank + 1))
        numbered = Alphabet.numbered(rank, prefix)
        assert numbered == spelled and numbered.names == spelled.names
        assert numbered.index(f"{prefix}{rank}") == rank

    @pytest.mark.parametrize("prefix", ["", "1x", "_x", "x-", "é"])
    def test_numbered_refuses_invalid_prefixes(self, prefix):
        with pytest.raises(ValueError, match=f"invalid generator name '{prefix}1'"):
            Alphabet.numbered(3, prefix)
        with pytest.raises(ValueError, match=f"invalid generator name '{prefix}1'"):
            Alphabet(f"{prefix}{k}" for k in range(1, 4))

    # the names are checked all at once by str methods, which also accept
    # non-ASCII letters and digits (é, ², the Kelvin sign); the message
    # names the first invalid one
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(st.lists(st.text("aZ09_-é²\u212a \n", max_size=4), min_size=1, max_size=4, unique=True))
    @example(["a", "b_", "c9"])
    @example(["a", ""])
    @example(["a\nb"])
    @example(["a", "b\n"])
    @example(["a", "\u212a"])
    def test_name_check_matches_the_oracle(self, names):
        bad = [name for name in names if not is_generator_name(name)]
        if bad:
            with pytest.raises(ValueError, match=f"^invalid generator name {re.escape(repr(bad[0]))}$"):
                Alphabet(names)
        else:
            assert Alphabet(names).names == tuple(names)

    def test_rank_bound(self):
        # the top code point, chr(2 * rank + 1), must exist
        bound = words._MAX_RANK
        assert bound == 557_055
        assert chr(2 * bound + 1) == chr(sys.maxunicode)
        with pytest.raises(ValueError):
            chr(2 * (bound + 1))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"{bound + 1} generators; the limit is {bound}"):
                Alphabet.numbered(bound + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # refused before any name was built


class TestParse:
    def test_power_atom(self):
        assert parse_word("y3^3", Y).letters == (3, 3, 3)

    def test_cancelling_pair(self):
        assert parse_word("y1 y1^-1", Y).is_identity()

    def test_eleven_letter_word(self):
        w = parse_word("y3^-3 y2^-5 y1^3", Y)
        assert w.letters == (-3, -3, -3, -2, -2, -2, -2, -2, 1, 1, 1)
        assert len(w) == 11

    def test_identity_token(self):
        assert parse_word("1", Y).is_identity()
        assert parse_word("  1  ", Y).is_identity()

    def test_zero_exponent_contributes_nothing(self):
        assert parse_word("y1^0", Y).is_identity()
        assert parse_word("y1^0 y2", Y).letters == (2,)

    def test_signed_exponent_with_plus(self):
        assert parse_word("y2^+2", Y).letters == (2, 2)
        assert parse_word("y2^+00000002", Y).letters == (2, 2)

    @pytest.mark.parametrize(
        "bad",
        [
            "y9", "zz", "y1^", "y1^^2", "y1^2x", "^3", "y2^-10000000",
            # more digits than int() converts by default (4300)
            pytest.param("y1^" + "9" * 5000, id="y1^<5000 nines>"),
        ],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(WordSyntaxError):
            parse_word(bad, Y)

    def test_error_names_the_token(self):
        with pytest.raises(WordSyntaxError, match="y9"):
            parse_word("y1 y9", Y)

    # each atom's word, or its exact error: a name that Alphabet would
    # refuse makes the atom malformed, a valid one not in the alphabet is
    # unknown, and an exponent is a sign, then ASCII digits only
    EDGE_ATOMS = {
        "1y": "malformed atom '1y'",
        "_x": "malformed atom '_x'",
        "é1": "malformed atom 'é1'",
        "é": "malformed atom 'é'",
        "yé^2": "malformed atom 'yé^2'",
        "\uff591": "malformed atom '\uff591'",  # a fullwidth y
        "\u212a1": "malformed atom '\u212a1'",  # the Kelvin sign
        "y1²": "malformed atom 'y1²'",
        "y²^2": "malformed atom 'y²^2'",
        "x-1": "malformed atom 'x-1'",
        "^3": "malformed atom '^3'",
        "y1^": "malformed atom 'y1^'",
        "y1^^2": "malformed atom 'y1^^2'",
        "y1^2^3": "malformed atom 'y1^2^3'",
        "y1^٣": "malformed atom 'y1^٣'",
        "y1^\uff11": "malformed atom 'y1^\uff11'",  # a fullwidth 1
        "y2^²": "malformed atom 'y2^²'",
        "y1^1_0": "malformed atom 'y1^1_0'",
        "y1^1.5": "malformed atom 'y1^1.5'",
        "y1^0x1": "malformed atom 'y1^0x1'",
        "y1^+-1": "malformed atom 'y1^+-1'",
        "y1^-": "malformed atom 'y1^-'",
        "y1^+": "malformed atom 'y1^+'",
        "é^99999999": "malformed atom 'é^99999999'",
        "y4": "unknown generator 'y4'",
        "Y1": "unknown generator 'Y1'",
        "y1_": "unknown generator 'y1_'",
        "x_1^2": "unknown generator 'x_1'",
        "y1y2": "unknown generator 'y1y2'",
        "y9^99999999": "unknown generator 'y9'",
        "y1^99999999": "exponent of y1 has 8 digits; the limit is 4194304 letters",
        "y1^+003": (1, 1, 1),
        "y1^-0": (),
        "y1^-00": (),
        "y3^+0": (),
        "y1^02": (1, 1),
        "y1^-2": (-1, -1),
    }

    @pytest.mark.parametrize("atom", EDGE_ATOMS)
    def test_edge_atoms(self, atom):
        expected = self.EDGE_ATOMS[atom]
        if isinstance(expected, tuple):
            assert parse_word(atom, Y).letters == expected
        else:
            with pytest.raises(WordSyntaxError) as info:
                parse_word(atom, Y)
            assert str(info.value) == expected

    # the grammar spelled out from the oracle's name rule: the first atom
    # in error decides the message, and the text "1" alone is the identity
    @settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @given(st.lists(_ATOMS, min_size=1, max_size=3))
    @example(["a_1^-2", "y^+1", "Z9^0"])
    def test_grammar_matches_the_oracle(self, atoms):
        alphabet = Alphabet(("y", "a_1", "Z9"))
        letters, error = [], None
        for atom in atoms if atoms != ["1"] else []:
            name, caret, exp = atom.partition("^")
            sign_free = exp[1:] if exp[:1] in ("+", "-") else exp
            if not is_generator_name(name) or caret and not (
                sign_free and all(c in "0123456789" for c in sign_free)
            ):
                error = f"malformed atom {atom!r}"
            elif name not in alphabet.names:
                error = f"unknown generator {name!r}"
            else:
                gen = alphabet.names.index(name) + 1
                n = int(exp) if caret else 1
                letters += [gen if n > 0 else -gen] * abs(n)
                continue
            break
        if error is None:
            assert parse_word(" ".join(atoms), alphabet).letters == naive_reduce(letters)
        else:
            with pytest.raises(WordSyntaxError) as info:
                parse_word(" ".join(atoms), alphabet)
            assert str(info.value) == error

    def test_letter_bound_counts_before_reduction(self, monkeypatch):
        monkeypatch.setattr(words, "_MAX_PARSED_LETTERS", 5)
        assert parse_word("y1^3 y2^-2", Y).letters == (1, 1, 1, -2, -2)
        # six letters that reduce to none still exceed the bound
        with pytest.raises(WordSyntaxError, match="limit is 5"):
            parse_word("y1^3 y1^-3", Y)
        with pytest.raises(WordSyntaxError):
            parse_word("y2 y2 y2 y2 y2 y2", Y)


class TestReduce:
    def test_inverse_pair(self):
        assert Word(AB, (1, -1)).letters == ()

    def test_nested_cancellation(self):
        assert Word(AB, (1, 2, -2, 1)).letters == (1, 1)

    def test_w1_times_w2_inverse_at_l3(self):
        # no cancellation happens at the junction
        u, v = shuffle_words(3)
        raw = u.letters + v.inverse().letters
        word = Word(Y, raw)
        assert word.letters == (1, 2, 3, -1, -1, -1, 2, 2, 2, 3, 3, 3)
        assert len(word) == 12
        assert word.letters == naive_reduce(raw)

    def test_matches_naive_oracle_on_random_input(self):
        rng = random.Random(11)
        for _ in range(300):
            raw = [rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randint(0, 30))]
            assert Word(Y, raw).letters == naive_reduce(raw)

    def test_rejects_out_of_range_letters(self):
        with pytest.raises(ValueError):
            Word(AB, (3,))
        with pytest.raises(ValueError):
            Word(AB, (0,))


class TestConcat:
    def test_identity(self):
        w = parse_word("a1 a2", AB)
        assert w * Word(AB) == w
        assert Word(AB) * w == w

    def test_inverse_cancels(self):
        w = parse_word("a1 a2 a1^-1", AB)
        assert (w * w.inverse()).is_identity()

    def test_same_junction_example_as_reduce(self):
        u, v = shuffle_words(3)
        assert len(u * v.inverse()) == 12

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            parse_word("a1", AB) * parse_word("y1", Y)

    def test_multiplies_only_words(self):
        w = parse_word("a1", AB)
        for other in (3, CyclicWord(AB, (1,))):
            with pytest.raises(TypeError, match="unsupported operand"):
                w * other

    # junctions that cancel no letter, one, several or all of them, and
    # empty operands: the product tests the junction pair before it
    # compares blocks, so each kind must agree with the naive reduction
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(
        st.lists(_LETTERS, max_size=6),
        st.lists(_LETTERS, max_size=12),
        st.lists(_LETTERS, max_size=6),
    )
    @example([], [], [])
    @example([1], [], [])
    @example([], [], [2])
    @example([], [1, 2, 3], [])
    @example([1], [2], [-1])
    @example([2, 3], [1, -2, 3, 3], [2, 1])
    def test_matches_naive_oracle_at_every_junction(self, head, shared, tail):
        left = Word(Y, head + shared)
        right = Word(Y, t_inv(shared) + tuple(tail))
        product = left * right
        assert product.letters == naive_reduce(left.letters + right.letters)
        assert product.code == _code(product.letters)

    def test_length_parity(self):
        rng = random.Random(5)
        for _ in range(100):
            a = Word(AB, [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 12))])
            b = Word(AB, [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 12))])
            c = a * b
            assert len(c) <= len(a) + len(b)
            assert (len(c) - len(a) - len(b)) % 2 == 0


class TestAlphabetChecks:
    # each per-word check tries `is` before `==`: an equal alphabet held in
    # another object must pass it, and an unequal one must not
    X = Alphabet.numbered(2, "x")

    def _hom(self, codomain):
        return Homomorphism(self.X, Y, [Word(codomain, (1, 2)), Word(codomain, (3,))])

    def test_equal_alphabets_pass(self):
        y, x = Alphabet(["y1", "y2", "y3"]), Alphabet(["x1", "x2"])
        assert y is not Y and x is not self.X
        assert (Word(Y, (1, 2)) * Word(y, (-2, 3))).letters == (1, 3)
        hom = self._hom(y)
        assert hom.apply(Word(x, (1, 2, 1))).letters == (1, 2, 3, 1, 2)
        assert SubgroupGraph.wedge([Word(y, (1,)), Word(Y, (2,))], Y).n_edges == 2
        graph = build_subgroup_graph([Word(Y, (1, 2))], Y)
        assert graph.contains(Word(y, (1, 2))) and graph.base_labels(Word(y, (1, 2))) == {1, -2}

    def test_unequal_alphabets_raise(self):
        hom = self._hom(Y)
        with pytest.raises(AlphabetMismatch):
            Word(Y, (1,)) * Word(Alphabet.numbered(3, "z"), (1,))
        with pytest.raises(AlphabetMismatch):
            self._hom(Alphabet.numbered(4, "y"))
        with pytest.raises(AlphabetMismatch):
            hom.apply(Word(AB, (1,)))
        with pytest.raises(AlphabetMismatch):
            SubgroupGraph.wedge([Word(Y, (1,)), Word(AB, (2,))], Y)
        graph = build_subgroup_graph([Word(Y, (1, 2))], Y)
        for query in (graph.contains, graph.base_labels):
            with pytest.raises(AlphabetMismatch):
                query(Word(Alphabet.numbered(3, "z"), (1, 2)))


class TestInvert:
    def test_empty(self):
        assert Word(Y).inverse().is_identity()

    def test_run(self):
        assert Word(Y, (3, 3, 3)).inverse().letters == (-3, -3, -3)

    def test_w2_at_l5(self):
        _, v = shuffle_words(5)
        inv = v.inverse()
        assert inv == parse_word("y1^-3 y2^5 y3^3", Y)
        assert len(inv) == 11

    def test_involution(self):
        w = parse_word("y1 y2^-2 y3", Y)
        assert w.inverse().inverse() == w


class TestPower:
    def test_zero(self):
        assert (parse_word("y1 y2", Y) ** 0).is_identity()

    def test_single_letter(self):
        assert (Word(AB, (1,)) ** 3).letters == (1, 1, 1)

    def test_block_square_at_l3(self):
        u, v = shuffle_words(3)
        block = u.inverse() * v
        assert len(block) == 12
        sq = block ** 2
        assert len(sq) == 24
        assert sq.letters == naive_reduce(block.letters * 2)

    def test_negative_matches_inverse(self):
        w = parse_word("y1 y2 y1^-1 y3", Y)
        for n in range(4):
            assert w ** -n == (w ** n).inverse()

    def test_matches_oracle_on_conjugates(self):
        rng = random.Random(13)
        for _ in range(50):
            raw = tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 8)))
            w = Word(AB, raw)
            n = rng.randint(-4, 4)
            assert (w ** n).letters == t_pow(w.letters, n)


class TestCyclicReduce:
    def test_simple_conjugate(self):
        core, conj = parse_word("a1 a2 a1^-1", AB).cyclic_reduce()
        assert core.letters == (2,)
        assert conj.letters == (1,)

    def test_empty(self):
        core, conj = Word(Y).cyclic_reduce()
        assert core.is_identity() and conj.is_identity()

    def test_image_of_x2(self):
        # y1^3 y3^3 y1 is already cyclically reduced; its class is the
        # rotation class of y1^4 y3^3
        w = parse_word("y1^3 y3^3 y1", Y)
        core, conj = w.cyclic_reduce()
        assert len(core) == 7
        assert core == w and conj.is_identity()
        assert canonical_class(core) == CyclicWord(Y, parse_word("y1^4 y3^3", Y).letters)
        assert conj * core * conj.inverse() == w

    def test_round_trip_random(self):
        rng = random.Random(17)
        for _ in range(200):
            raw = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 16))]
            w = Word(AB, raw)
            core, conj = w.cyclic_reduce()
            assert conj * core * conj.inverse() == w
            ls = core.letters
            assert not (len(ls) >= 2 and ls[0] == -ls[-1])
            assert core.is_identity() == w.is_identity()


class TestCanonicalClass:
    def test_rotation(self):
        a, b = Word(AB, (1,)), Word(AB, (2,))
        assert canonical_class(a * b) == canonical_class(b * a)

    def test_inversion_unoriented(self):
        ab = parse_word("a1 a2", AB)
        assert canonical_class(ab, oriented=False) == canonical_class(
            ab.inverse(), oriented=False
        )

    def test_inversion_oriented_differs(self):
        ab = parse_word("a1 a2", AB)
        assert canonical_class(ab, oriented=True) != canonical_class(
            ab.inverse(), oriented=True
        )

    def test_conjugation_invariance(self):
        rng = random.Random(23)
        for _ in range(200):
            w = Word(AB, [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 10))])
            c = Word(AB, [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 10))])
            assert canonical_class(c * w * c.inverse()) == canonical_class(w)

    def test_canonical_is_least_rotation(self):
        # b a -> a b under the letter order y1 < y1^-1 < y2 < ...
        w = parse_word("a2 a1", AB)
        assert canonical_class(w).letters == (1, 2)

    def test_both_orientations_match_brute_force(self):
        rng = random.Random(2026)
        for n in list(range(8)) * 40:
            w = Word(Y, [rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(n)])
            core = w.cyclic_reduce()[0].letters
            inv = t_inv(core)
            key = lambda r: [words._letter_key(s) for s in r]
            rotations = [core[k:] + core[:k] for k in range(len(core))] or [()]
            inv_rotations = [inv[k:] + inv[:k] for k in range(len(inv))] or [()]
            unoriented, oriented = words._canonical_classes(w)
            assert oriented.letters == min(rotations, key=key)
            assert unoriented.letters == min(rotations + inv_rotations, key=key)
            assert unoriented.letters == canonical_class(w, oriented=False).letters
            assert oriented.letters == canonical_class(w).letters

    def test_one_least_rotation_per_orientation(self, monkeypatch):
        calls = []
        real = words._least_start

        def counted(code, least):
            calls.append(len(code))
            return real(code, least)

        monkeypatch.setattr(words, "_least_start", counted)
        w = parse_word("y1 y2^-2 y3 y1^-1 y3", Y)
        for run, rotations in (
            (lambda: canonical_class(w), 1),
            (lambda: canonical_class(w, oriented=False), 2),
            (lambda: words._canonical_classes(w), 2),
            # verify's boundary stage: both classes from two rotations
            (lambda: verify(FamilyParams(2, 3)), 2),
        ):
            calls.clear()
            run()
            assert len(calls) == rotations

    @pytest.mark.parametrize(
        "g,l", [(g, l) for g in (2, 4, 6, 8) for l in range(3, 13)] + [(32, 12)]
    )
    def test_boundary_classes_match_duval_oracle(self, g, l):
        image = embedding(FamilyParams(g, l)).apply(boundary_word(g))
        core = image.cyclic_reduce()[0].letters
        unoriented, oriented = words._canonical_classes(image)
        forward, backward = least_rotation(core), least_rotation(t_inv(core))
        key = lambda r: [(abs(s), s < 0) for s in r]
        assert oriented.letters == forward
        assert unoriented.letters == min(forward, backward, key=key)


def _longest_run_starts(letters):
    """Starts of the maximal cyclic runs of the least letter that no run of
    it is longer than, by a plain walk over the runs."""
    least = min(letters, key=lambda s: (abs(s), s < 0))
    n = len(letters)
    # begin after another letter, so that no run wraps round the end
    offset = next(k for k in range(n) if letters[k - 1] != least)
    runs, pos = [], offset
    for letter, group in itertools.groupby(letters[offset:] + letters[:offset]):
        size = len(list(group))
        if letter == least:
            runs.append((pos % n, size))
        pos += size
    longest = max(size for _, size in runs)
    return [start for start, size in runs if size == longest]


def _assert_classes_match_brute_force(alphabet, letters):
    w = Word(alphabet, letters)
    core = w.cyclic_reduce()[0].letters
    unoriented, oriented = words._canonical_classes(w)
    forward, backward = _brute_least_rotation(core), _brute_least_rotation(t_inv(core))
    assert oriented.letters == forward
    assert unoriented.letters == min(
        forward, backward, key=lambda r: [words._letter_key(s) for s in r]
    )


def _brute_least_rotation(letters):
    keys = [words._letter_key(s) for s in letters]
    k = min(range(len(keys)), key=lambda k: keys[k:] + keys[:k], default=0)
    return letters[k:] + letters[:k]


class TestLeastRotation:
    # ties are where a two-pointer scan can go wrong: periodic words w^k,
    # w^k followed by a short tail, and runs of one letter
    @settings(max_examples=500, derandomize=True, deadline=None, database=None)
    @given(
        st.one_of(
            st.lists(_LETTERS, max_size=30),
            st.tuples(
                st.lists(_LETTERS, min_size=1, max_size=5),
                st.integers(1, 6),
                st.lists(_LETTERS, max_size=3),
            ).map(lambda p: p[0] * p[1] + p[2]),
            st.tuples(_LETTERS, st.integers(1, 12)).map(lambda p: [p[0]] * p[1]),
            # many equal maximal runs of the least letter, where the scan
            # has the most candidate starts: (y1 y2^k)^m and a tail, and
            # blocks y1^r f with varying r and filler f
            st.tuples(
                st.integers(1, 4), st.integers(1, 8), st.lists(_LETTERS, max_size=3)
            ).map(lambda p: ([1] + [2] * p[0]) * p[1] + p[2]),
            st.lists(
                st.tuples(st.integers(1, 3), st.lists(_LETTERS, min_size=1, max_size=3)),
                min_size=1,
                max_size=8,
            ).map(lambda blocks: [s for r, f in blocks for s in [1] * r + f]),
        )
    )
    def test_matches_brute_force(self, letters):
        letters = tuple(letters)
        rotations = [letters[k:] + letters[:k] for k in range(len(letters))] or [()]
        best = min(rotations, key=lambda r: [words._letter_key(s) for s in r])
        assert _letters(words._least_rotation(_code(letters))) == best

    # over 128 generators occur, so the code needs two bytes per character
    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(
        st.permutations([s for gen in range(1, 201) for s in (gen, -gen)]),
        st.integers(257, 300),
        st.integers(1, 2),
        st.integers(0, 300),
    )
    def test_wide_codes_match_brute_force(self, letters, size, copies, tail):
        period = tuple(letters[:size])
        letters = period * copies + period[:tail]
        assert max(_code(letters)) > "\xff"
        assert _letters(words._least_rotation(_code(letters))) == _brute_least_rotation(letters)
        _assert_classes_match_brute_force(Alphabet.numbered(200), letters)

    def test_five_byte_codes_match_brute_force(self):
        # over 64^2 generators occur: characters wider than one byte, and
        # five-byte letters in the earlier byte code
        rng = random.Random(64)
        period = tuple(rng.choice((1, -1)) * gen for gen in rng.sample(range(1, 6001), 4200))
        letters = period + period[:50]
        assert max(_code(letters)) > "\xff"
        assert _letters(words._least_rotation(_code(letters))) == _brute_least_rotation(letters)
        _assert_classes_match_brute_force(Alphabet.numbered(6000), letters)

    # the run of m that wraps round the end may be the longest, tie with a
    # run inside the word, or be shorter; the scan must find the same
    # classes as brute force in each case
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.sampled_from([2, -2, 3, -3]),
        st.lists(_LETTERS, max_size=12),
        st.sampled_from([2, -2, 3, -3]),
    )
    def test_wrapping_runs_match_brute_force(self, lead, trail, first, inner, last):
        letters = (1,) * lead + (first, *inner, last) + (1,) * trail
        _assert_classes_match_brute_force(Y, letters)

    # words with at most one run y1^r per 512 letters, whose runs the window
    # tournament thins: the continuations of the runs share a prefix of up
    # to 700 letters, longer than some windows, and then differ in one
    # letter; the least one is planted at the first, last or a middle run
    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(
        st.integers(1, 4),
        st.lists(st.sampled_from([2, -2, 3, -3]), min_size=1, max_size=8).map(
            lambda unit: unit * 88
        ),
        st.integers(0, 700),
        st.lists(st.sampled_from([-2, 3, -3]), min_size=1, max_size=4),
        st.sampled_from(["first", "middle", "last"]),
        st.lists(_LETTERS, max_size=6),
    )
    def test_planted_runs_match_brute_force(self, r, shared, cut, others, where, filler):
        shared = shared[:cut]
        at = {"first": 0, "middle": len(others) // 2, "last": len(others)}[where]
        ends = others[:at] + [2] + others[at:]
        # no y1 outside the planted runs, so each block holds one run y1^r
        pad = [s for s in filler if s != 1] + [3] * 512
        blocks = [[1] * r + shared + [end] + pad for end in ends]
        letters = tuple(s for block in blocks for s in block)
        assert len(blocks) <= len(letters) >> 9
        assert _letters(words._least_rotation(_code(letters))) == _brute_least_rotation(letters)

    @pytest.mark.parametrize(
        "block,copies,last,rounds",
        [
            # periodic: the rounds keep every run, and one round of the scan
            # finds the period
            (1024, 3, 3, 1),
            # the runs differ in the last letter of their block only, so
            # the last round, whose windows are whole blocks, keeps one
            (512, 3, 2, 0),
            (1024, 2, 2, 0),
            # past the longest window: the scan breaks the tie
            (768, 2, 2, 1),
            (768, 3, 2, 2),
        ],
    )
    def test_tournament_ties(self, block, copies, last, rounds, monkeypatch):
        # `copies` blocks y1 y3^(block - 1), the last of them ending in
        # `last` instead of y3; with y2 there it starts the least rotation
        counted = []
        real = words._common_prefix

        def counted_prefix(a, i, b, j, limit):
            counted.append(limit)
            return real(a, i, b, j, limit)

        monkeypatch.setattr(words, "_common_prefix", counted_prefix)
        unit = (1,) + (3,) * (block - 1)
        letters = unit * (copies - 1) + unit[:-1] + (last,)
        assert copies <= len(letters) >> 9
        best = _letters(words._least_rotation(_code(letters)))
        assert best == _brute_least_rotation(letters)
        if last == 2:
            assert best[: len(unit)] == unit[:-1] + (2,)
        assert len(counted) == rounds

    @pytest.mark.parametrize(
        "label", ["periodic", "one long tie", "wrapping run", "boundary g=64"]
    )
    def test_scan_steps_are_bounded(self, label, monkeypatch):
        # step counts, never a time.  Each round of a scan makes one
        # common-prefix call and moves a pointer past a candidate start, and
        # every round but the last moves one past the letters it compared;
        # the scans are the forward one, then the two of _canonical_classes
        if label == "periodic":
            period = (1, 1, 2, 1, 1, 3, 1, -2)
            letters = period * 2**17
        elif label == "one long tie":
            # 2^19 candidates; the first round compares almost all letters
            letters = (1, 2) * (2**19 - 1) + (1, 3)
        elif label == "wrapping run":
            # the only y1^4 wraps round the end; 1000 runs y1^3 inside
            blocks = ((2,) * (1 + t % 5) + (3, 1, 1, 1) for t in range(1000))
            letters = (1, 1) + tuple(itertools.chain(*blocks)) + (2, 3, 1, 1)
        else:
            image = embedding(FamilyParams(64, 12)).apply(boundary_word(64))
            letters = image.cyclic_reduce()[0].letters
        rounds, scans = [], []
        real_prefix, real_start = words._common_prefix, words._least_start

        def counted_prefix(a, i, b, j, limit):
            rounds.append(real_prefix(a, i, b, j, limit))
            assert sum(rounds) <= 3 * limit, "more than linear work"
            return rounds[-1]

        def counted_start(code, least):
            rounds.clear()
            start = real_start(code, least)
            scans.append(len(rounds))
            return start

        monkeypatch.setattr(words, "_common_prefix", counted_prefix)
        monkeypatch.setattr(words, "_least_start", counted_start)
        candidates = _longest_run_starts(letters)
        inverse_candidates = _longest_run_starts(t_inv(letters))
        best = _letters(words._least_rotation(_code(letters)))
        _, oriented = words._canonical_classes(Word(Y, letters))
        forward, forward_again, inverse = scans
        assert forward_again == forward <= 2 * len(candidates) + 2
        assert inverse <= 2 * len(inverse_candidates) + 2
        assert oriented.letters == best
        if label == "periodic":
            assert len(letters) == 2**20
            assert forward <= 2 * len(_longest_run_starts(period)) + 2
            assert inverse <= 2 * len(_longest_run_starts(t_inv(period))) + 2
            assert (forward, inverse) == (2, 3)
            assert best == letters
        elif label == "one long tie":
            assert len(letters) == 2**20
            assert len(candidates) == len(inverse_candidates) == 2**19
            assert forward == inverse == 1
            assert best == letters
        elif label == "wrapping run":
            assert len(candidates) == len(inverse_candidates) == 1
            assert forward == inverse == 0
            assert best[:5] == (1, 1, 1, 1, 2)
            assert best == least_rotation(letters)
        else:
            # 63 runs in 170,360 letters: sparse, and the window tournament
            # keeps one start in each orientation, so the scan compares none
            assert len(candidates) == len(inverse_candidates) == 63
            assert forward == inverse == 0
            assert best == least_rotation(letters)


class TestLetterCodes:
    # generator k is coded chr(2k) and its inverse chr(2k + 1), so the top
    # code point of a rank-n alphabet is 2n + 1: over 127 generators need
    # two bytes per character, over 27,647 reach the surrogate range
    # 0xD800-0xDFFF and over 32,767 need four bytes
    @pytest.mark.parametrize(
        "gens,nbytes", [(3, 1), (127, 1), (129, 2), (28000, 2), (33000, 4)]
    )
    def test_order_inverse_and_least_rotations(self, gens, nbytes):
        rng = random.Random(gens)
        # every generator occurs, a quarter of them a second time, each time
        # with a random sign
        alphabet = Alphabet.numbered(gens)
        chosen = rng.sample(range(1, gens + 1), gens)
        period = [rng.choice((1, -1)) * gen for gen in chosen + chosen[: gens // 4]]
        w = Word(alphabet, period * 2 + period[: gens // 3])
        core = w.cyclic_reduce()[0]
        letters, code = core.letters, core.code
        inverse = core.inverse().code
        top = ord(max(code))
        assert top >> 1 == gens
        assert (1 if top <= 0xFF else 2 if top <= 0xFFFF else 4) == nbytes
        if gens == 28000:
            assert 0xD800 <= top <= 0xDFFF
        # the code is fixed per alphabet, and code points compare as the
        # letters do
        assert code == _code(letters)
        char = dict(zip(letters + t_inv(letters), code + inverse))
        assert "".join(map(char.get, letters)) == code
        assert len(set(char.values())) == len(char)
        assert sorted(char, key=char.get) == sorted(char, key=words._letter_key)
        assert sorted(char, key=char.get) == sorted(char, key=lambda s: (abs(s), s < 0))
        assert words._least_letter(code) == char[min(letters, key=words._letter_key)]
        assert words._least_letter(inverse) == char[min(t_inv(letters), key=words._letter_key)]
        # the inverse word's code is the reversed code with each code
        # point's last bit flipped
        assert inverse == "".join(chr(ord(c) ^ 1) for c in reversed(code))
        assert inverse == _code(t_inv(letters)) == Word(alphabet, t_inv(letters)).code
        assert _letters(words._least_rotation(code)) == least_rotation(letters)
        unoriented, oriented = words._canonical_classes(w)
        forward, backward = least_rotation(letters), least_rotation(t_inv(letters))
        assert oriented.letters == forward
        assert unoriented.letters == min(
            forward, backward, key=lambda r: [words._letter_key(s) for s in r]
        )
        # codes in the surrogate range survive a pickle round trip
        assert pickle.loads(pickle.dumps(unoriented)) == unoriented

    def test_generator_limit(self, monkeypatch):
        monkeypatch.setattr(words, "_MAX_RANK", 2)
        assert canonical_class(parse_word("a2 a1^-1", AB)).letters == (-1, 2)
        with pytest.raises(ValueError, match="3 generators; the limit is 2"):
            Alphabet.numbered(3, "y")
        with pytest.raises(ValueError, match="3 generators; the limit is 2"):
            Alphabet(("y1", "y2", "y3"))

    @pytest.mark.parametrize("label", ["generator 6000 only", "no probed generator"])
    def test_least_letter_passes_are_bounded(self, label, monkeypatch):
        # full passes over the code, never a time: a probe of every code
        # point in turn would make about 12,000 of them for these words,
        # which miss every probed code point, so min() finds the least
        alphabet = Alphabet.numbered(6000)
        if label == "generator 6000 only":
            letters = (6000,) * 1000
        else:
            rng = random.Random(6000)
            gens = (4, 5, 5999, 6000)
            letters = [rng.choice(gens) * rng.choice((1, -1)) for _ in range(1000)]
        w = Word(alphabet, letters)
        core = w.cyclic_reduce()[0].letters
        forward, backward = least_rotation(core), least_rotation(t_inv(core))
        passes, calls = [], []

        class CountingCode(str):
            def __contains__(self, item):
                passes.append("in")
                return str.__contains__(self, item)

            def __iter__(self):
                passes.append("iter")
                return str.__iter__(self)

        real = words._least_letter

        def counted(code):
            calls.append(len(code))
            return real(CountingCode(code))

        monkeypatch.setattr(words, "_least_letter", counted)
        unoriented, oriented = words._canonical_classes(w)
        assert oriented.letters == forward
        assert unoriented.letters == min(forward, backward, key=lambda r: [(abs(s), s < 0) for s in r])
        assert calls == [len(core)] * 2
        assert len(passes) <= 2 * (words._LEAST_PROBES + 1)
        least = min(core, key=lambda s: (abs(s), s < 0))
        assert real(CountingCode(w.code)) == chr(2 * abs(least) + (least < 0))

    # the int-tuple oracles over the rank-3 codomain, and over a wide
    # alphabet whose codes need one byte (generators 1 and 127) or two
    # (generators 128 and 200)
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    @pytest.mark.parametrize(
        "alphabet,gens", [(Y, (1, 2, 3)), (Alphabet.numbered(200, "g"), (1, 127, 128, 200))]
    )
    def test_operations_match_int_tuple_oracles(self, alphabet, gens, data):
        letters = st.lists(st.sampled_from([s for g in gens for s in (g, -g)]), max_size=16)
        raw_a, raw_b = data.draw(letters), data.draw(letters)
        a, b = naive_reduce(raw_a), naive_reduce(raw_b)
        u, v = Word(alphabet, raw_a), Word(alphabet, raw_b)
        assert u.letters == tuple(u) == a and v.letters == b
        assert u.code == _code(a)
        assert (u * v).letters == t_mul(a, b)
        assert u.inverse().letters == t_inv(a)
        n = data.draw(st.integers(-4, 4))
        assert (u ** n).letters == t_pow(a, n)
        core, conj = u.cyclic_reduce()
        i = 0
        while len(a) - 2 * i >= 2 and a[i] == -a[len(a) - 1 - i]:
            i += 1
        assert (core.letters, conj.letters) == (a[i : len(a) - i], a[:i])
        images = [naive_reduce(data.draw(letters)) for _ in range(3)]
        x = Alphabet.numbered(3, "x")
        hom = Homomorphism(x, alphabet, [Word(alphabet, img) for img in images])
        domain_word = naive_reduce(data.draw(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=8)))
        assert hom.apply(Word(x, domain_word)).letters == t_apply(images, domain_word)
        assert exponent_vector(u) == tuple(
            a.count(g) - a.count(-g) for g in range(1, alphabet.rank + 1)
        )
        assert render_word(u) == render(a, alphabet.names)


class TestCyclicWord:
    def test_rejects_unreduced(self):
        with pytest.raises(ValueError):
            CyclicWord(AB, (1, -1))

    def test_rejects_cyclically_unreduced(self):
        with pytest.raises(ValueError):
            CyclicWord(AB, (1, 2, -1))

    def test_rotation_equality_and_hash(self):
        w, r1, r2 = (CyclicWord(AB, ls) for ls in ((1, 2, 2), (2, 2, 1), (2, 1, 2)))
        assert w == r1 == r2
        assert hash(w) == hash(r1)
        assert len({w, r1, r2}) == 1

    def test_inverse_class_differs(self):
        w = CyclicWord(AB, (1, 2))
        assert w != w.inverse_class()

    def test_word_and_class_are_distinct_immutable_values(self):
        # one code, two kinds of value: neither comparison may accept the other
        w, c = Word(Y, (1,)), CyclicWord(Y, (1,))
        assert w.code == c.code
        assert w != c and c != w
        assert not w == c and not c == w
        for value, name in ((w, "Word"), (c, "CyclicWord")):
            with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
                value.code = ""
            with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
                del value.code
        assert w.code == c.code == "\x02"

    # powers of a cyclically reduced word are cyclically reduced and periodic
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(st.lists(_LETTERS, max_size=16), st.integers(1, 4))
    def test_holds_least_rotation(self, letters, power):
        core = Word(Y, letters).cyclic_reduce()[0].letters * power
        c = CyclicWord(Y, core)
        assert c.letters == least_rotation(core)
        assert c.inverse_class().letters == least_rotation(t_inv(core))
        back = pickle.loads(pickle.dumps(c))
        assert back.letters == c.letters
        assert back == c and hash(back) == hash(c)


class TestRender:
    def test_empty_renders_as_one(self):
        assert render_word(Word(Y)) == "1"

    def test_maximal_runs(self):
        assert render_word(parse_word("y3 y3 y3 y2^-1 y2^-1 y1", Y)) == "y3^3 y2^-2 y1"

    def test_round_trip(self):
        rng = random.Random(29)
        for _ in range(200):
            w = Word(Y, [rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randint(0, 20))])
            assert parse_word(render_word(w), Y) == w

    # runs of up to several hundred letters, over the rank-3 codomain and
    # over a wide alphabet with generators 5 and 6, whose codes chr(10) to
    # chr(13) include the newline and carriage return
    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    @pytest.mark.parametrize(
        "alphabet,gens", [(Y, (1, 2, 3)), (Alphabet.numbered(200, "g"), (1, 5, 6, 127, 128, 200))]
    )
    def test_matches_groupby_oracle(self, alphabet, gens, data):
        pieces = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from([s for g in gens for s in (g, -g)]),
                    st.one_of(st.integers(1, 3), st.integers(1, 400)),
                ),
                max_size=12,
            )
        )
        letters: list[int] = []
        for s, n in pieces:
            if not letters or letters[-1] != -s:  # keep the letters reduced
                letters += [s] * n
        w = Word(alphabet, letters)
        assert w.letters == tuple(letters)
        assert render_word(w) == render(letters, alphabet.names)

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=40))
    def test_round_trip_property(self, letters):
        w = Word(Y, letters)  # free reduction makes the tuple reduced
        text = render_word(w)
        assert parse_word(text, Y) == w
        assert render_word(parse_word(text, Y)) == text

    def test_long_run_renders_in_constant_memory(self):
        # a regex match of the whole run keeps state for every letter,
        # about 92 MiB here
        w = parse_word("y1^1000000", Y)
        tracemalloc.start()
        try:
            text = render_word(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == "y1^1000000"
        assert peak < 4 << 20


class TestIterReducedWords:
    """``oracles.reduced_words``, the exhaustive word lists of the tests."""

    def test_counts(self):
        words = list(reduced_words(2, 2))
        # 1 empty + 4 of length 1 + 12 of length 2
        assert len(words) == 17
        assert len(set(words)) == 17
        assert all(w == naive_reduce(w) for w in words)

    def test_order_frozen(self):
        assert list(reduced_words(2, 2)) == [
            (), (1,), (-1,), (2,), (-2,),
            (1, 1), (1, 2), (1, -2), (-1, -1), (-1, 2), (-1, -2),
            (2, 1), (2, -1), (2, 2), (-2, 1), (-2, -1), (-2, -2),
        ]

    def test_allowed_subset(self):
        words = list(reduced_words(3, 2, allowed=(2,)))
        assert set(words) == {(), (2,), (-2,), (2, 2), (-2, -2)}

    def test_allowed_out_of_range(self):
        # a generator outside 1..rank would give words that no Word over
        # the rank-3 alphabet can hold
        for allowed in ((5,), (0,), (2, 4)):
            with pytest.raises(ValueError, match="out of range"):
                list(reduced_words(3, 1, allowed=allowed))


class TestPickle:
    def test_word_and_cyclic_round_trip(self):
        w = parse_word("y1 y2^-2", Y)
        assert pickle.loads(pickle.dumps(w)) == w
        c = canonical_class(w)
        assert pickle.loads(pickle.dumps(c)) == c

    def test_loads_a_frozen_pickle(self):
        # (Word("y1 y2^-2"), its class) at protocol 2: both load through
        # the class's _wrap, so pickles keep loading while that resolves
        frozen = (
            b"\x80\x02c__builtin__\ngetattr\nq\x00cfgkit.words\nWord\nq\x01X\x05\x00\x00"
            b"\x00_wrapq\x02\x86q\x03Rq\x04cfgkit.words\nAlphabet\nq\x05X\x02\x00\x00\x00"
            b"y1q\x06X\x02\x00\x00\x00y2q\x07X\x02\x00\x00\x00y3q\x08\x87q\t\x85q\nRq"
            b"\x0bX\x03\x00\x00\x00\x02\x05\x05q\x0c\x86q\rRq\x0eh\x00cfgkit.words\n"
            b"CyclicWord\nq\x0fh\x02\x86q\x10Rq\x11h\x0bh\x0c\x86q\x12Rq\x13\x86q\x14."
        )
        w = parse_word("y1 y2^-2", Y)
        assert pickle.loads(frozen) == (w, canonical_class(w))


def _hom() -> Homomorphism:
    ab = Alphabet(("a", "b"))
    return Homomorphism(Alphabet(("x1", "x2")), ab, (Word(ab, (1,)), Word(ab, (1, 2))))


# (build, fields, protocol-2 pickle); build makes a new equal value on each
# call, and the pickles are those the classes wrote before they shared one
# value protocol
_VALUES = {
    "Alphabet": (
        lambda: Alphabet(("a", "b")),
        ("names",),
        b"\x80\x02cfgkit.words\nAlphabet\nq\x00X\x01\x00\x00\x00aq\x01X\x01\x00\x00\x00"
        b"bq\x02\x86q\x03\x85q\x04Rq\x05.",
    ),
    "Word": (
        lambda: Word(Alphabet(("a", "b")), (1, -2, -2)),
        ("alphabet", "code"),
        b"\x80\x02c__builtin__\ngetattr\nq\x00cfgkit.words\nWord\nq\x01X\x05\x00\x00\x00"
        b"_wrapq\x02\x86q\x03Rq\x04cfgkit.words\nAlphabet\nq\x05X\x01\x00\x00\x00aq\x06"
        b"X\x01\x00\x00\x00bq\x07\x86q\x08\x85q\tRq\nX\x03\x00\x00\x00\x02\x05\x05q\x0b"
        b"\x86q\x0cRq\r.",
    ),
    "CyclicWord": (
        lambda: CyclicWord(Alphabet(("a", "b")), (2, 1, 1)),
        ("alphabet", "code"),
        b"\x80\x02c__builtin__\ngetattr\nq\x00cfgkit.words\nCyclicWord\nq\x01X\x05\x00"
        b"\x00\x00_wrapq\x02\x86q\x03Rq\x04cfgkit.words\nAlphabet\nq\x05X\x01\x00\x00\x00"
        b"aq\x06X\x01\x00\x00\x00bq\x07\x86q\x08\x85q\tRq\nX\x03\x00\x00\x00\x02\x02\x04"
        b"q\x0b\x86q\x0cRq\r.",
    ),
    "FamilyParams": (
        lambda: FamilyParams(2, 3),
        ("g", "l"),
        b"\x80\x02cfgkit.family\nFamilyParams\nq\x00K\x02K\x03\x86q\x01Rq\x02.",
    ),
    "Homomorphism": (
        _hom,
        ("domain", "codomain", "images"),
        b"\x80\x02cfgkit.homs\nHomomorphism\nq\x00cfgkit.words\nAlphabet\nq\x01X\x02\x00"
        b"\x00\x00x1q\x02X\x02\x00\x00\x00x2q\x03\x86q\x04\x85q\x05Rq\x06h\x01X\x01\x00"
        b"\x00\x00aq\x07X\x01\x00\x00\x00bq\x08\x86q\t\x85q\nRq\x0bc__builtin__\ngetattr"
        b"\nq\x0ccfgkit.words\nWord\nq\rX\x05\x00\x00\x00_wrapq\x0e\x86q\x0fRq\x10h\x0bX"
        b"\x01\x00\x00\x00\x02q\x11\x86q\x12Rq\x13h\x0ch\rh\x0e\x86q\x14Rq\x15h\x0bX\x02"
        b"\x00\x00\x00\x02\x04q\x16\x86q\x17Rq\x18\x86q\x19\x87q\x1aRq\x1b.",
    ),
}


class TestValueProtocol:
    """The five value classes share one protocol: immutable, equal only to
    a value of the same class with equal fields, hashed alike when equal,
    and pickled as before."""

    @pytest.mark.parametrize("name", list(_VALUES))
    def test_value_protocol(self, name):
        build, fields, frozen = _VALUES[name]
        value = build()
        for field in fields:
            with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
                setattr(value, field, None)
            with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
                delattr(value, field)
        assert value != tuple(getattr(value, field) for field in fields)
        assert value == build() and hash(value) == hash(build())
        back = pickle.loads(pickle.dumps(value))
        assert back == value and repr(back) == repr(value)
        assert pickle.dumps(value, 2) == frozen
        assert pickle.loads(frozen) == value
