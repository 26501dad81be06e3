import json
import pickle
import random
from pathlib import Path

import pytest

from fgkit import (
    Alphabet,
    CyclicWord,
    FamilyParams,
    Homomorphism,
    INFINITE,
    InjectivityResult,
    Word,
    build_subgroup_graph,
    canonical_class,
    check_shuffle_identities,
    domain_alphabet,
    embedding,
    exponent_vector,
    generator_images_closed,
    generator_images_recursive,
    parse_word,
    reference_quotient_order,
    render_word,
    shuffle_words,
    target_alphabet,
    verify,
)
import oracles
from conftest import fgkit_caches
import fgkit.abelian as abelian_module
import fgkit.family as family_module
from fgkit.cli import main as cli_main
from fgkit.words import _MAX_PARSED_LETTERS, _cancelled
from fgkit.family import (
    VerificationReport,
    _block_letters_hold,
    _boundary_letters_bound,
    _closed_form_certificate,
    boundary_word,
    class_distinctness,
    first_shuffle_failure,
)

Y = target_alphabet()


def word_shuffle_sides(i_max, j_max, l):
    """Yield ``(branch, i, j, lhs, rhs)`` for both shuffle identities at
    every (i, j) with i <= i_max and j <= j_max, in row order, each side
    built by :class:`Word` products and powers and given as its letters;
    the same layout as ``oracles.shuffle_grid_sides``."""
    u, v = shuffle_words(l)
    a = u.inverse() * v
    b = u * v.inverse()
    for i in range(i_max + 1):
        for j in range(j_max + 1):
            if i > j:
                first = "first:i>j", v * a ** (i - j - 1)
            else:
                first = "first:i<=j", b ** (j - i) * u
            if i >= j:
                second = "second:i>=j", v * a ** (i - j)
            else:
                second = "second:i<j", b ** (j - i - 1) * u
            for (branch, rhs), mid in ((first, u), (second, v)):
                yield branch, i, j, (b ** j * mid * a ** i).letters, rhs.letters


class TestParams:
    def test_valid(self):
        p = FamilyParams(4, 7)
        assert (p.g, p.l) == (4, 7)

    @pytest.mark.parametrize("g,l,msg", [(3, 3, "even"), (0, 3, ">= 2"), (2, 2, ">= 3")])
    def test_invalid(self, g, l, msg):
        with pytest.raises(ValueError, match=msg):
            FamilyParams(g, l)

    @pytest.mark.parametrize(
        "build,name",
        [
            (lambda: FamilyParams(2.0, 3), "g"),
            (lambda: FamilyParams(2, 3.0), "l"),
            (lambda: shuffle_words(3.0), "l"),
            (lambda: boundary_word(2.0), "g"),
            (lambda: domain_alphabet(2.0), "g"),
        ],
        ids=["params-g", "params-l", "shuffle_words", "boundary_word", "domain_alphabet"],
    )
    def test_float_refused(self, build, name):
        # a float equal to a valid int would pass the value rules and then
        # crash verify with an unrelated message
        with pytest.raises(TypeError, match=f"^{name} must be an int, not float$"):
            build()

    def test_value_class(self):
        p = FamilyParams(g=4, l=7)
        assert repr(p) == "FamilyParams(g=4, l=7)"
        assert p == FamilyParams(4, 7) and hash(p) == hash(FamilyParams(4, 7))
        assert p != FamilyParams(4, 9) and p != (4, 7)
        assert len({p, FamilyParams(4, 7), FamilyParams(6, 7)}) == 2
        with pytest.raises(AttributeError):
            p.g = 6
        with pytest.raises(AttributeError):
            del p.l
        back = pickle.loads(pickle.dumps(p))
        assert back == p and repr(back) == repr(p)


class TestSizeBound:
    """The instance-size limit, tested by predicted size only: no test
    builds an instance near the limit."""

    @pytest.mark.parametrize("g,l", [(2, 3), (2, 12), (4, 5), (6, 3), (8, 12)])
    def test_bound_is_the_unreduced_length(self, g, l):
        # no letter cancels in the recursion, so the bound is attained by
        # the images, and the reduced boundary image is no longer
        images = generator_images_recursive(FamilyParams(g, l))
        bound = _boundary_letters_bound(g, l)
        assert bound == 2 * sum(len(img) for img in images)
        assert len(embedding(FamilyParams(g, l)).apply(boundary_word(g))) <= bound

    def test_matches_closed_form_of_image_lengths(self):
        # |x_(2m+1)| = 3 + m(l + 9) and |x_(2m+2)| = |x_(2m+1)| + 4
        for g in (2, 4, 10, 256):
            for l in (3, 12, 1000):
                lengths = [3 + m * (l + 9) + 4 * e for m in range(g) for e in (0, 1)]
                assert _boundary_letters_bound(g, l) == 2 * sum(lengths)

    @pytest.mark.parametrize(
        "g,l", [(256, 12), (316, 12), (418, 3), (2, 1_048_557)]
    )
    def test_largest_accepted(self, g, l):
        assert _boundary_letters_bound(g, l) <= _MAX_PARSED_LETTERS
        assert FamilyParams(g, l).g == g

    @pytest.mark.parametrize(
        "g,l", [(318, 12), (420, 3), (2, 1_048_558), (2, 99_999_999_999), (10**12, 3)]
    )
    def test_refused_before_building(self, g, l):
        bound = _boundary_letters_bound(g, l)
        assert bound > _MAX_PARSED_LETTERS
        with pytest.raises(ValueError, match=f"may have {bound} letters; the limit is 4194304"):
            FamilyParams(g, l)


class TestShuffleWords:
    def test_l3(self):
        u, v = shuffle_words(3)
        assert u == parse_word("y1 y2 y3", Y)
        assert v == parse_word("y3^-3 y2^-3 y1^3", Y)
        assert len(v) == 9

    @pytest.mark.parametrize("l", range(3, 13))
    def test_lengths(self, l):
        u, v = shuffle_words(l)
        assert len(u) == 3
        assert len(v) == l + 6

    def test_l5_length(self):
        assert len(shuffle_words(5)[1]) == 11

    @pytest.mark.parametrize("l", [-1, 0, 1, 2])
    def test_winding_rule(self, l):
        # the family's one winding rule, as FamilyParams applies it
        with pytest.raises(ValueError, match="l must be >= 3"):
            shuffle_words(l)


class TestGeneratorImages:
    def test_x1(self):
        imgs = generator_images_recursive(FamilyParams(2, 3))
        assert imgs[0] == parse_word("y3^3", Y)

    def test_x3_at_l3(self):
        imgs = generator_images_recursive(FamilyParams(2, 3))
        expected = parse_word("y3^-3 y2^-3 y1^3 y3^3 y1 y2 y3", Y)
        assert imgs[2] == expected
        assert len(imgs[2]) == 15
        # equals the product w2 * y3^3 * w1
        u, v = shuffle_words(3)
        assert imgs[2] == v * parse_word("y3^3", Y) * u

    def test_x5_definitional_recursion(self):
        imgs = generator_images_recursive(FamilyParams(4, 3))
        y3 = parse_word("y3", Y)
        y2 = parse_word("y2", Y)
        assert imgs[4] == y3 ** -1 * y2 ** -1 * imgs[3] * y2 ** 3 * y3 ** 3

    def test_closed_x5_is_single_block(self):
        imgs = generator_images_closed(FamilyParams(4, 3))
        u, v = shuffle_words(3)
        assert imgs[4] == (u.inverse() * v) * parse_word("y3^3", Y) * (u * v.inverse())

    def test_closed_base_cases_match_recursion(self):
        p = FamilyParams(2, 5)
        assert generator_images_closed(p) == generator_images_recursive(p)

    def test_x6_closed_equals_recursive(self):
        p = FamilyParams(4, 3)
        assert generator_images_closed(p)[5] == generator_images_recursive(p)[5]

    def test_images_are_reduced_and_nontrivial(self):
        for g, l in [(2, 3), (4, 4), (6, 12)]:
            for img in generator_images_recursive(FamilyParams(g, l)):
                assert not img.is_identity()
                assert Word(Y, img.letters) == img


ONE = Word(Y, ())
C = Word(Y, (2,))

# Edits (step r, side i, before, after) of the recursion's table, each
# making side i of step r (r None: the seed) into before * side * after.
# Each breaks exactly one equality of the certificate; a step change is
# undone in the next step's side, so the concatenation checks still hold.
CERTIFICATE_MUTANTS = {
    "x1 = y3^3": [(None, 0, ONE, C)],
    "step 2 left is y1^3": [(2, 0, C, ONE), (3, 0, ONE, C.inverse())],
    "step 2 right is y1": [(2, 1, ONE, C), (3, 1, C.inverse(), ONE)],
    "step 0 left is y1^-1": [(0, 0, C, ONE), (1, 0, ONE, C.inverse())],
    "step 0 right is y1^-3": [(0, 1, ONE, C), (1, 1, C.inverse(), ONE)],
    "L3 L2 = v": [(3, 0, ONE, C)],
    "R2 R3 = u": [(3, 1, C, ONE)],
    "L1 L0 v = a": [(1, 0, ONE, C)],
    "u R0 R1 = b": [(1, 1, C, ONE)],
}


def edited_recursion(edits):
    """``family._recursion`` with ``edits`` applied to its table."""
    real = family_module._recursion

    def table(l):
        seed, sides = real(l)
        sides = [list(pair) for pair in sides]
        for r, i, before, after in edits:
            if r is None:
                seed = before * seed * after
            else:
                sides[r][i] = before * sides[r][i] * after
        return seed, tuple(map(tuple, sides))

    return table


class TestClosedFormCertificate:
    @pytest.mark.parametrize("l", [3, 4, 12, 1000])
    def test_agrees_with_the_image_comparison(self, l):
        assert _closed_form_certificate(l)
        for g in (2, 4, 6):
            p = FamilyParams(g, l)
            assert generator_images_closed(p) == generator_images_recursive(p)

    @pytest.mark.parametrize("mutant", sorted(CERTIFICATE_MUTANTS))
    def test_each_equality_is_checked(self, monkeypatch, mutant):
        monkeypatch.setattr(
            family_module, "_recursion", edited_recursion(CERTIFICATE_MUTANTS[mutant])
        )
        # the edited recursion really builds other images by g = 4 ...
        p = FamilyParams(4, 3)
        assert generator_images_recursive(p) != generator_images_closed(p)
        # ... and the certificate, reading the same table, refuses it
        assert not _closed_form_certificate(3)
        assert not verify(p).closed_form_ok

    def test_recursion_and_certificate_read_one_table(self, monkeypatch):
        calls = []
        real = family_module._recursion

        def spy(l):
            calls.append(l)
            return real(l)

        monkeypatch.setattr(family_module, "_recursion", spy)
        generator_images_recursive(FamilyParams(2, 5))
        assert _closed_form_certificate(5)
        assert calls == [5, 5]

    def test_verify_builds_no_closed_images(self, monkeypatch):
        def refuse(params):
            raise AssertionError("verify called generator_images_closed")

        monkeypatch.setattr(family_module, "generator_images_closed", refuse)
        assert verify(FamilyParams(4, 3)).closed_form_ok


# the lru_caches of fgkit, all in family, each kept per l or per g
CACHES = {
    "fgkit.family._closed_form_certificate",
    "fgkit.family._cokernel_order",
    "fgkit.family._genus_words",
    "fgkit.family._shuffle_identities_hold",
}


class TestCaches:
    def test_every_cache_is_bounded(self):
        caches = fgkit_caches()
        assert set(caches) == CACHES
        for name, cache in caches.items():
            assert cache.cache_parameters()["maxsize"] is not None, name

    def test_reports_equal_cold_and_warm(self):
        points = [FamilyParams(g, l) for g in (2, 4) for l in (3, 5)]

        def report(p):
            r = verify(p)
            r.timings = {}
            return r

        cold = []
        for p in points:
            for cache in fgkit_caches().values():
                cache.cache_clear()
            cold.append(report(p))
        warm = [report(p) for p in points]
        assert warm == cold
        assert family_module._closed_form_certificate.cache_info().currsize == 2
        assert family_module._cokernel_order.cache_info().currsize == 2
        assert family_module._genus_words.cache_info().currsize <= family_module._PER_G

    def test_one_smith_form_per_l(self, monkeypatch):
        calls = []
        real = abelian_module.smith_normal_form

        def counting(matrix):
            calls.append(matrix)
            return real(matrix)

        monkeypatch.setattr(abelian_module, "smith_normal_form", counting)
        orders = {(g, l): verify(FamilyParams(g, l)).quotient_order
                  for g in (2, 4, 6) for l in (3, 4)}
        assert orders == {(g, l): 12 * (l - 1) for g, l in orders}
        assert len(calls) == 2

    @pytest.mark.parametrize("g", [2, 4, 6, 8, 16, 32, 64])
    def test_four_distinct_exponent_rows(self, g):
        # the order cache's key at l, the same for every g (ROADMAP item 1)
        for l in range(3, 13):
            matrix = abelian_module.image_matrix(embedding(FamilyParams(g, l)))
            assert list(dict.fromkeys(map(tuple, matrix))) == [(0, 0, 3), (4, 0, 3), (4, 1 - l, 1), (0, 1 - l, 1)]

    def test_one_alphabet_per_genus(self):
        assert domain_alphabet(4) is domain_alphabet(4)
        assert boundary_word(4) is boundary_word(4)
        assert boundary_word(4).alphabet is embedding(FamilyParams(4, 3)).domain

    def test_boundary_word_and_alphabet_are_kept_together(self):
        word = boundary_word(2)
        domain_alphabet(4)
        domain_alphabet(6)
        assert boundary_word(2) == word
        assert boundary_word(2).alphabet is domain_alphabet(2) is embedding(FamilyParams(2, 3)).domain


def _blind_eq(limit):
    """An equality blind to words longer than ``limit``."""

    def eq(self, other):
        return max(len(self), len(other)) <= limit and self.code == other.code

    return eq


def _capped_mul(self, other):
    """A product that cancels at most 9 letters where the factors meet."""
    left, right = self.code, other.code
    k = _cancelled(left, len(left), right, 0, min(len(left), len(right), 9))
    return Word._wrap(self.alphabet, left[: len(left) - k] + right[k:])


# Word methods replaced by broken ones, one per shuffle equality
SHUFFLE_MUTANTS = {
    "eq<=2": ("__eq__", _blind_eq(2)),
    "eq<=3": ("__eq__", _blind_eq(3)),
    "mul<=9": ("__mul__", _capped_mul),
}


class TestShuffleIdentities:
    def test_trivial_cases(self):
        u, v = shuffle_words(3)
        a = u.inverse() * v
        b = u * v.inverse()
        # i=1, j=0 in the first family: u a = v
        assert u * a == v
        # i=j=0: u = b^0 u
        assert check_shuffle_identities(0, 0, 3)

    @pytest.mark.parametrize("l", [3, 7, 12] + [4, 5, 6, 8, 9, 10, 11])
    def test_grid(self, l):
        assert check_shuffle_identities(6, 6, l)
        # the check compares three products; the grid of Word products and
        # powers up to 6 must still equal the fgkit-free oracle's
        expected = list(oracles.shuffle_grid_sides(6, 6, l))
        assert list(word_shuffle_sides(6, 6, l)) == expected
        assert oracles.shuffle_grid_failure(6, 6, l) is None

    # At l = 3, u has 3 letters and v has 9.  An equality blind past 2
    # letters fails b v = u, one blind past 3 fails u a = v first, and
    # (b u) a cancels 12 letters, so a product capped at 9 fails only
    # b u a = u.  Each equality is reported only when its point, (0, 1),
    # (1, 0) or (1, 1), is within the bounds.
    @pytest.mark.parametrize(
        "mutant,bounds,expected",
        [
            ("eq<=2", (0, 0), None),
            ("eq<=2", (0, 1), ("second:i<j", 0, 1)),
            ("eq<=2", (1, 0), ("first:i>j", 1, 0)),
            ("eq<=2", (6, 6), ("second:i<j", 0, 1)),
            ("eq<=3", (0, 1), None),
            ("eq<=3", (1, 0), ("first:i>j", 1, 0)),
            ("eq<=3", (6, 6), ("first:i>j", 1, 0)),
            ("mul<=9", (0, 1), None),
            ("mul<=9", (1, 0), None),
            ("mul<=9", (6, 6), ("first:i<=j", 1, 1)),
        ],
    )
    def test_each_equality_is_checked(self, monkeypatch, mutant, bounds, expected):
        monkeypatch.setattr(Word, *SHUFFLE_MUTANTS[mutant])
        assert first_shuffle_failure(*bounds, 3) == expected
        assert check_shuffle_identities(*bounds, 3) == (expected is None)

    def test_no_failure_reported(self):
        assert first_shuffle_failure(4, 4, 5) is None

    def test_negative_bounds_rejected(self):
        with pytest.raises(ValueError):
            first_shuffle_failure(-1, 0, 3)

    def test_small_l_rejected(self):
        # the same winding rule as FamilyParams
        with pytest.raises(ValueError, match="l must be >= 3"):
            first_shuffle_failure(0, 0, 2)


class TestBoundaryWord:
    def test_genus_two_instantiation(self):
        w = boundary_word(2)
        x = domain_alphabet(2)
        assert w == parse_word("x1 x3^-1 x1^-1 x3 x4^-1 x2 x4 x2^-1", x)

    @pytest.mark.parametrize("g", [2, 4, 6, 8])
    def test_length_and_balance(self, g):
        w = boundary_word(g)
        assert len(w) == 4 * g
        assert exponent_vector(w) == (0,) * (2 * g)

    @pytest.mark.parametrize("g", [0, 1, 3, -2])
    def test_invalid_genus(self, g):
        with pytest.raises(ValueError):
            boundary_word(g)

    @pytest.mark.parametrize("g", [0, 1, 3, -2])
    def test_same_genus_rule_as_params(self, g):
        with pytest.raises(ValueError) as from_word:
            boundary_word(g)
        with pytest.raises(ValueError) as from_params:
            FamilyParams(g, 3)
        assert str(from_word.value) == str(from_params.value)

    @pytest.mark.parametrize("g", [0, 1, 3, -2])
    def test_domain_alphabet_has_the_genus_rule(self, g):
        # no rank-2g alphabet for a genus the family does not admit, and
        # the family's message, not the alphabet's or range's
        with pytest.raises(ValueError) as from_alphabet:
            domain_alphabet(g)
        with pytest.raises(ValueError) as from_params:
            FamilyParams(g, 3)
        assert str(from_alphabet.value) == str(from_params.value) == "g must be even and >= 2"

    def test_code_matches_the_letters_spelled_out(self):
        # the code is written directly, reduced as it stands
        for g in range(2, 65, 2):
            letters = oracles.boundary_letters(g)
            assert oracles.naive_reduce(letters) == letters
            assert boundary_word(g) == Word(domain_alphabet(g), letters)

    def test_genus_four_block_pattern(self):
        w = boundary_word(4)
        assert w.letters[:4] == (1, -3, 5, -7)
        assert w.letters[4:8] == (-1, 3, -5, 7)
        assert w.letters[8:12] == (-8, 6, -4, 2)
        assert w.letters[12:] == (8, -6, 4, -2)


class TestBoundaryImage:
    @pytest.mark.parametrize("g,l", [(2, 3), (2, 7), (4, 3), (4, 5)])
    def test_image_nontrivial_with_long_y2_run(self, g, l):
        hom = embedding(FamilyParams(g, l))
        image = hom.apply(boundary_word(g))
        assert not image.is_identity()
        core, _ = image.cyclic_reduce()
        longest = 0
        for gen, exp in oracles.runs(core.letters):
            if gen == 2:
                longest = max(longest, abs(exp))
        assert longest >= l

    def test_class_depends_on_l(self):
        a, b = _boundary_classes(2, (3, 4))
        assert a != b


def _boundary_classes(g, l_values, oriented=False):
    """The boundary classes of ``verify``'s reports, which the sweep's
    distinctness rows compare."""
    reports = [verify(FamilyParams(g, l)) for l in l_values]
    return [r.boundary_class_oriented if oriented else r.boundary_class for r in reports]


class TestSlopeDistinctness:
    def test_single_value(self):
        assert all(class_distinctness(_boundary_classes(2, [3])))

    def test_duplicate_parameter(self):
        assert not all(class_distinctness(_boundary_classes(2, [3, 3])))

    def test_small_range(self):
        assert all(class_distinctness(_boundary_classes(2, range(3, 9))))
        assert all(class_distinctness(_boundary_classes(4, range(3, 7))))

    def test_oriented_variant(self):
        assert all(class_distinctness(_boundary_classes(2, range(3, 7), oriented=True)))

    def test_class_distinctness(self):
        a, b = _boundary_classes(2, (3, 4))
        trivial = canonical_class(Word(Y))
        assert class_distinctness([a, b]) == (True, True)
        assert class_distinctness([a, a]) == (False, True)
        assert class_distinctness([a, trivial]) == (True, False)
        assert class_distinctness([]) == (True, True)


def _certificate(hom: Homomorphism) -> tuple[bool, bool]:
    """(injective, block-letter walk) from one folded graph, as verify reads them."""
    graph = build_subgroup_graph(hom.images, hom.codomain)
    inj = InjectivityResult.from_graph(graph, hom.domain.rank)
    return inj.verdict, _block_letters_hold(hom, graph)


X4 = Alphabet.numbered(4, "x")
SHORT_WORDS = [
    (
        [Word(X4, t) for t in oracles.reduced_words(4, 4, allowed=gens) if t],
        boundary,
    )
    for gens, boundary in (((2, 4), {1}), ((1, 3), {2, 3}))
]


def _short_violation(hom: Homomorphism) -> bool:
    """Whether some single-parity word of length <= 4 breaks the property."""
    for words, boundary in SHORT_WORDS:
        for w in words:
            img = hom.apply(w)
            if img.is_identity() or not (
                abs(img.letters[0]) in boundary and abs(img.letters[-1]) in boundary
            ):
                return True
    return False


def _random_image(rng: random.Random, index: int) -> Word:
    """A short image, usually flanked by letters of its parity's block."""
    block = (1,) if index % 2 else (2, 3)
    middle = [rng.choice((1, -1, 2, -2, 3, -3)) for _ in range(rng.randint(0, 4))]
    if rng.random() < 0.85:
        first = rng.choice(block) * rng.choice((1, -1))
        last = rng.choice(block) * rng.choice((1, -1))
        return Word(Y, [first] + middle + [last])
    return Word(Y, middle)


class TestBlockLetters:
    def test_holds_at_small_instances(self):
        for g, l in [(2, 3), (4, 5), (8, 12)]:
            assert _certificate(embedding(FamilyParams(g, l))) == (True, True)

    def test_conjugated_even_image_is_rejected(self):
        images = list(generator_images_recursive(FamilyParams(2, 3)))
        y2 = Word(Y, (2,))
        images[1] = y2.inverse() * images[1] * y2
        hom = Homomorphism(domain_alphabet(2), Y, images)
        assert _certificate(hom) == (True, False)
        assert abs(hom.images[1].letters[0]) == 2  # x2 itself is a witness

    def test_agrees_with_short_words_on_random_maps(self):
        rng = random.Random(20261017)
        certified = rejected = subtle = 0
        for _ in range(1500):
            hom = Homomorphism(X4, Y, [_random_image(rng, k) for k in range(4)])
            if any(img.is_identity() for img in hom.images):
                continue
            injective, walk_ok = _certificate(hom)
            if not injective:
                continue
            violated = _short_violation(hom)
            if walk_ok:
                certified += 1
                assert not violated, hom
            else:
                rejected += 1
                assert violated, hom
                # rejected although every generator image is flanked correctly
                subtle += all(
                    abs(img.letters[0]) in b and abs(img.letters[-1]) in b
                    for img, b in zip(hom.images, ({2, 3}, {1}, {2, 3}, {1}))
                )
        assert certified > 100 and rejected > 100 and subtle > 10


@pytest.fixture(scope="module")
def report():
    return verify(FamilyParams(2, 3))


class TestVerify:
    def test_hard_checks(self, report):
        assert report.injective
        assert report.image_rank == 4
        assert report.closed_form_ok
        assert report.shuffle_identities_ok
        assert report.block_letter_ok
        assert report.quotient_finite
        assert report.hard_pass

    def test_quotient_reported_with_reference(self, report):
        assert report.quotient_order == 24
        assert report.reference_order == reference_quotient_order(3) == 16
        assert not report.reference_order_match
        assert any("reference" in w for w in report.warnings)

    def test_boundary_classes_recorded(self, report):
        assert not report.boundary_class.is_identity()
        assert not report.boundary_class_oriented.is_identity()

    def test_json_shape(self, report):
        data = report.to_json_dict()
        assert data["schema"] == "fgkit-report/1"
        assert data["params"] == {"g": 2, "l": 3}
        assert set(data) == {
            "schema",
            "params",
            "injective",
            "image_rank",
            "closed_form_ok",
            "shuffle_identities_ok",
            "block_letter_ok",
            "quotient_order",
            "reference_order",
            "reference_order_match",
            "boundary_class",
            "boundary_class_oriented",
            "hard_pass",
            "warnings",
            "timings",
        }
        stripped = report.to_json_dict(include_timings=False)
        assert "timings" not in stripped
        json.dumps(data)  # must be serializable

    def test_render_timed_only_with_timings(self, report):
        timings = report.to_json_dict()["timings"]
        assert set(timings) == set(report.timings) | {"render"}
        assert timings["render"] >= 0
        assert "render" not in report.timings
        assert "timings" not in report.to_json_dict(include_timings=False)

    def test_boundary_class_round_trips_through_grammar(self, report):
        text = report.to_json_dict()["boundary_class"]
        parsed = parse_word(text, Y)
        assert parsed.letters == report.boundary_class.letters

    def test_deterministic(self):
        a = verify(FamilyParams(2, 4)).to_json_dict(include_timings=False)
        b = verify(FamilyParams(2, 4)).to_json_dict(include_timings=False)
        assert a == b

    def test_report_pickles(self, report):
        clone = pickle.loads(pickle.dumps(report))
        assert clone.to_json_dict(include_timings=False) == report.to_json_dict(
            include_timings=False
        )
        assert clone == report

    def test_quotient_constant_in_genus(self):
        orders = {
            verify(FamilyParams(g, 5)).quotient_order for g in (2, 4)
        }
        assert len(orders) == 1
        assert INFINITE not in orders


class TestVerificationReport:
    FIELDS = dict(
        params=FamilyParams(2, 3),
        injective=True,
        image_rank=4,
        closed_form_ok=True,
        shuffle_identities_ok=True,
        block_letter_ok=False,
        quotient_order=24,
        reference_order=16,
        reference_order_match=False,
        boundary_class=canonical_class(Word(Y, (2, 1))),
        boundary_class_oriented=canonical_class(Word(Y, (1, 2))),
    )

    def test_repr(self):
        assert repr(VerificationReport(**self.FIELDS)) == (
            "VerificationReport(params=FamilyParams(g=2, l=3), injective=True, "
            "image_rank=4, closed_form_ok=True, shuffle_identities_ok=True, "
            "block_letter_ok=False, quotient_order=24, reference_order=16, "
            "reference_order_match=False, boundary_class=CyclicWord('y1 y2'), "
            "boundary_class_oriented=CyclicWord('y1 y2'), warnings=[], timings={})"
        )
        positional = VerificationReport(
            *list(self.FIELDS.values())[:6], INFINITE, 16, False,
            CyclicWord(Y, ()), CyclicWord(Y, ()), ["w"], {"a": 1.5},
        )
        assert repr(positional).endswith(
            "quotient_order=INFINITE, reference_order=16, reference_order_match=False, "
            "boundary_class=CyclicWord('1'), boundary_class_oriented=CyclicWord('1'), "
            "warnings=['w'], timings={'a': 1.5})"
        )

    # a failing value for each gated field
    GATE_FAILURES = dict(
        injective=False,
        closed_form_ok=False,
        shuffle_identities_ok=False,
        block_letter_ok=False,
        quotient_order=INFINITE,
        boundary_class=CyclicWord(Y, ()),
    )

    def test_each_gate_fails_hard_pass_alone(self):
        assert list(self.GATE_FAILURES) == [
            name for name, _, _, gate in family_module._CHECKS if gate
        ]
        # the reference order does not gate: FIELDS mismatch it and pass
        passing = dict(self.FIELDS, block_letter_ok=True)
        assert VerificationReport(**passing).hard_pass
        for name, value in self.GATE_FAILURES.items():
            assert not VerificationReport(**dict(passing, **{name: value})).hard_pass, name

    def test_constructor_takes_the_declared_fields(self):
        code = VerificationReport.__init__.__code__
        names = [name for name, _, _, _ in family_module._CHECKS]
        assert code.co_varnames[1 : code.co_argcount] == (
            "params", *names, "warnings", "timings"
        )
        assert list(self.FIELDS) == ["params", *names]

    def test_readme_schema_names_every_field(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        schema = readme.split("## Report schema\n", 1)[1].split("\n## ", 1)[0]
        for name, _, _, _ in family_module._CHECKS:
            assert f"`{name}`" in schema, name

    def test_defaults_are_fresh(self):
        a, b = VerificationReport(**self.FIELDS), VerificationReport(**self.FIELDS)
        a.warnings.append("w")
        a.timings["x"] = 1.0
        assert b.warnings == [] and b.timings == {}

    def test_eq_mutable_and_unhashable(self):
        a, b = VerificationReport(**self.FIELDS), VerificationReport(**self.FIELDS)
        assert a == b and a != self.FIELDS
        b.closed_form_ok = False
        assert a != b and not b.hard_pass
        with pytest.raises(TypeError):
            hash(a)

    def test_pickle_round_trip(self):
        a = VerificationReport(**self.FIELDS, warnings=["w"], timings={"t": 0.5})
        back = pickle.loads(pickle.dumps(a))
        assert back == a and repr(back) == repr(a)

    def test_equal_classes_render_once(self, monkeypatch):
        rendered = []

        def counting_render(w):
            rendered.append(w)
            return render_word(w)

        monkeypatch.setattr("fgkit.family.render_word", counting_render)
        data = VerificationReport(**self.FIELDS).to_json_dict()
        assert data["boundary_class"] == data["boundary_class_oriented"] == "y1 y2"
        assert len(rendered) == 1
        oriented = canonical_class(Word(Y, (1, -2)))
        unequal = dict(self.FIELDS, boundary_class_oriented=oriented)
        data = VerificationReport(**unequal).to_json_dict()
        assert (data["boundary_class"], data["boundary_class_oriented"]) == (
            "y1 y2",
            "y1 y2^-1",
        )
        assert len(rendered) == 3



# -- near misses: the family's table perturbed at one l ----------------------

_Y2_AS_Y3 = Homomorphism(Y, Y, [Word(Y, (1,)), Word(Y, (3,)), Word(Y, (3,))])


def _y2_spelled_y3(seed, sides):
    # every exponent row then has y2-sum 0, so the rows span rank 2
    return _Y2_AS_Y3.apply(seed), tuple(tuple(map(_Y2_AS_Y3.apply, pair)) for pair in sides)


def _trivial_step_2(seed, sides):
    # x_(4i+2) = x_(4i+1)
    return seed, (sides[0], sides[1], (ONE, ONE), sides[3])


def _step_2_conjugated_by_y2(seed, sides):
    # x_(4i+2) conjugated by y2, undone in step 3's sides, so only the
    # images x_(4i+2) change, and each starts with y2
    (L0, R0), (L1, R1), (L2, R2), (L3, R3) = sides
    return seed, ((L0, R0), (L1, R1), (C * L2, R2 * C.inverse()), (L3 * C.inverse(), C * R3))


NEAR_MISSES = {
    "exponent rows of rank 2": _y2_spelled_y3,
    "a trivial side pair": _trivial_step_2,
    "an even image conjugated by y2": _step_2_conjugated_by_y2,
}
NEAR_G, NEAR_L = 4, 5


def near_miss(monkeypatch, name):
    """Perturb ``family._recursion`` at ``NEAR_L`` alone; return the
    perturbed table."""
    real, edit = family_module._recursion, NEAR_MISSES[name]

    def recursion(l):
        return edit(*real(l)) if l == NEAR_L else real(l)

    monkeypatch.setattr(family_module, "_recursion", recursion)
    return recursion(NEAR_L)


def _oracle_fields(seed, sides, g, l) -> dict:
    """Every field of the report at (g, l) for the table (seed, sides),
    from ``oracles`` alone."""
    images = [seed.letters]
    for k in range(2, 2 * g + 1):
        left, right = sides[k % 4]
        images.append(oracles.t_mul(oracles.t_mul(left.letters, images[-1]), right.letters))
    rank = oracles.folded_dump(images, Y.names)[1]
    injective = rank == 2 * g
    # single-parity words of up to two letters, each image checked for its
    # first and last letters; even-index generators must give y1 there
    violated = False
    for parity, boundary in ((range(2, 2 * g + 1, 2), {1}), (range(1, 2 * g, 2), {2, 3})):
        for w in filter(None, oracles.reduced_words(2 * g, 2, allowed=parity)):
            img = oracles.t_apply(images, w)
            violated |= not img or abs(img[0]) not in boundary or abs(img[-1]) not in boundary
    rows = [[sum((s == k) - (s == -k) for s in img) for k in (1, 2, 3)] for img in images]
    order = oracles.lattice_index(rows, 3)
    core = oracles.t_apply(images, oracles.boundary_letters(g))
    while len(core) > 1 and core[0] == -core[-1]:
        core = core[1:-1]
    oriented = oracles.least_rotation(core)
    key = lambda w: [(abs(s), s < 0) for s in w]  # noqa: E731
    fields = {
        "injective": injective,
        "image_rank": rank,
        "closed_form_ok": images == oracles.closed_images(g, l),
        "shuffle_identities_ok": oracles.shuffle_grid_failure(1, 1, l) is None,
        "block_letter_ok": injective and not violated,
        "quotient_order": INFINITE if order is None else order,
        "reference_order": 4 * l + 4,
        "boundary_class": min(oriented, oracles.least_rotation(oracles.t_inv(core)), key=key),
        "boundary_class_oriented": oriented,
    }
    gates = ("injective", "closed_form_ok", "shuffle_identities_ok", "block_letter_ok")
    fields["hard_pass"] = all(fields[name] for name in gates) and order is not None and core != ()
    return fields


def _report_fields(report, names) -> dict:
    """The report's fields ``names``, each class as its letters."""
    fields = {name: getattr(report, name) for name in names}
    for name in ("boundary_class", "boundary_class_oriented"):
        fields[name] = fields[name].letters
    return fields


class TestNearMisses:
    """The whole battery on families a few letters from the real one
    (ROADMAP item 12): each report field agrees with the oracles, some
    hard_pass check fails, and the CLI exits 1."""

    def test_the_oracles_pass_the_real_family(self):
        expected = _oracle_fields(*family_module._recursion(NEAR_L), NEAR_G, NEAR_L)
        report = verify(FamilyParams(NEAR_G, NEAR_L))
        assert _report_fields(report, expected) == expected
        assert expected["hard_pass"]

    @pytest.mark.parametrize("name", sorted(NEAR_MISSES))
    def test_report_fields_agree_with_the_oracles(self, monkeypatch, name):
        seed, sides = near_miss(monkeypatch, name)
        report = verify(FamilyParams(NEAR_G, NEAR_L))
        expected = _oracle_fields(seed, sides, NEAR_G, NEAR_L)
        assert _report_fields(report, expected) == expected
        assert report.reference_order_match == (report.quotient_order == report.reference_order)
        assert not report.hard_pass and not report.closed_form_ok
        if name == "exponent rows of rank 2":
            # injective, and every image flanked as in the family, but
            # the quotient is infinite, and verify warns of it
            assert report.injective and report.block_letter_ok
            assert report.warnings == ["abelianized cokernel is infinite"]
        elif name == "a trivial side pair":
            assert report.image_rank == 2 * NEAR_G - 2 and not report.block_letter_ok
        else:
            # injective, with a finite quotient, but x2 starts with y2
            assert report.injective and report.quotient_finite
            assert not report.block_letter_ok

    @pytest.mark.parametrize("name", sorted(NEAR_MISSES))
    def test_cli_exits_one(self, monkeypatch, capsys, name):
        near_miss(monkeypatch, name)
        report = verify(FamilyParams(NEAR_G, NEAR_L))
        argv = ["verify", "--g", str(NEAR_G), "--l", str(NEAR_L), "--no-timings"]
        assert cli_main(argv) == 1
        out, err = capsys.readouterr()
        assert json.loads(out) == report.to_json_dict(include_timings=False)
        assert json.loads(out)["hard_pass"] is False
        assert err == "".join(f"WARNING: g={NEAR_G} l={NEAR_L}: {w}\n" for w in report.warnings)
        # a sweep over a real l and the perturbed one fails at the second alone
        l_list = f"{NEAR_L - 1},{NEAR_L}"
        argv = ["sweep", "--g-list", str(NEAR_G), "--l-list", l_list, "--no-timings"]
        assert cli_main(argv) == 1
        data = json.loads(capsys.readouterr().out)
        assert [r["hard_pass"] for r in data["reports"]] == [True, False]
        assert data["ok"] is False
