import pickle
import random

import pytest

from fgkit import (
    Alphabet,
    AlphabetMismatch,
    FamilyParams,
    Homomorphism,
    Word,
    embedding,
    parse_word,
)
from fgkit.family import boundary_word

from oracles import random_reduced_letters, t_apply

Y = Alphabet.numbered(3, "y")
X1 = Alphabet.numbered(1, "x")
A1 = Alphabet.numbered(1, "a")


@pytest.fixture(scope="module")
def phi23():
    return embedding(FamilyParams(2, 3))


class TestApply:
    def test_first_generator_image(self, phi23):
        x1 = Word(phi23.domain, (1,))
        assert phi23.apply(x1) == parse_word("y3^3", Y)

    def test_empty_word(self, phi23):
        assert phi23.apply(Word(phi23.domain)).is_identity()

    def test_x2_image(self, phi23):
        x2 = Word(phi23.domain, (2,))
        img = phi23.apply(x2)
        assert img == parse_word("y1^3 y3^3 y1", Y)
        assert len(img) == 7

    def test_alphabet_mismatch(self, phi23):
        with pytest.raises(AlphabetMismatch):
            phi23.apply(parse_word("y1", Y))

    def test_homomorphism_law(self, phi23):
        rng = random.Random(41)
        letters = [s for g in range(1, 5) for s in (g, -g)]
        for _ in range(300):
            a = Word(phi23.domain, [rng.choice(letters) for _ in range(rng.randint(0, 10))])
            b = Word(phi23.domain, [rng.choice(letters) for _ in range(rng.randint(0, 10))])
            assert phi23.apply(a * b) == phi23.apply(a) * phi23.apply(b)

    def test_inverse_law(self, phi23):
        rng = random.Random(43)
        letters = [s for g in range(1, 5) for s in (g, -g)]
        for _ in range(300):
            w = Word(phi23.domain, [rng.choice(letters) for _ in range(rng.randint(0, 10))])
            assert phi23.apply(w.inverse()) == phi23.apply(w).inverse()


X4 = Alphabet.numbered(4, "x")


def hom_from(images) -> Homomorphism:
    """X4 -> Y map; each image is reduced on construction."""
    return Homomorphism(X4, Y, [Word(Y, img) for img in images])


def random_domain_words(seed: int, count: int = 200, max_len: int = 12):
    rng = random.Random(seed)
    letters = [s for g in range(1, 5) for s in (g, -g)]
    for _ in range(count):
        yield Word(X4, [rng.choice(letters) for _ in range(rng.randint(0, max_len))])


def assert_matches_oracle(hom, words):
    images = [img.letters for img in hom.images]
    for w in words:
        assert hom.apply(w).letters == t_apply(images, w.letters), w


class TestApplyOracle:
    """``apply`` against concatenating the images and reducing once, on maps
    whose cancellation runs across whole images."""

    def test_shared_long_prefixes(self):
        # the prefix avoids y3 and every tail starts with y3^+-1, so each
        # image p + tail is reduced as written
        p = random_reduced_letters(3, 15, seed=7, allowed=(1, 2))
        tails = [(3,), (3, 1), (-3, 2, 2), (-3, -1)]
        hom = hom_from([p + t for t in tails])
        assert [img.letters for img in hom.images] == [p + t for t in tails]
        assert_matches_oracle(hom, random_domain_words(11))
        # x1^-1 x2 cancels the whole image of x1
        assert hom.apply(Word(X4, (-1, 2))).letters == (1,)

    def test_inverse_images(self):
        a = random_reduced_letters(3, 9, seed=3)
        b = random_reduced_letters(3, 4, seed=5)
        hom = hom_from([a, tuple(-s for s in reversed(a)), b, a + b])
        assert hom.apply(Word(X4, (1, 2))).is_identity()
        # x1 x1 x2 x2 cancels back through the output of two letters
        assert hom.apply(Word(X4, (1, 1, 2, 2))).is_identity()
        assert hom.apply(Word(X4, (4, -3, 2))).is_identity()
        assert_matches_oracle(hom, random_domain_words(13))

    def test_empty_images(self):
        a = random_reduced_letters(3, 6, seed=17)
        hom = hom_from([a, (), (2, -1), ()])
        assert hom.apply(Word(X4, (1, 2, 4, -1))).is_identity()
        assert_matches_oracle(hom, random_domain_words(19))

    def test_single_letter_images(self):
        hom = hom_from([(1,), (-1,), (2,), (-3,)])
        assert_matches_oracle(hom, random_domain_words(23, max_len=20))

    def test_identity_map(self):
        ident = Homomorphism(Y, Y, [Word(Y, (g,)) for g in (1, 2, 3)])
        w = parse_word("y1 y2^-1 y3", Y)
        assert ident.apply(w) == w
        for n in range(12):
            w = Word(Y, random_reduced_letters(3, n, seed=29 + n))
            assert ident.apply(w).letters == t_apply([(1,), (2,), (3,)], w.letters)

    def test_two_map_chain(self, phi23):
        # x -> x2, then phi23
        relabel = Homomorphism(X1, phi23.domain, [Word(phi23.domain, (2,))])
        images = [img.letters for img in phi23.images]
        for n in range(-3, 4):
            w = Word(X1, (1,) * n if n > 0 else (-1,) * -n)
            chained = phi23.apply(relabel.apply(w))
            assert chained.letters == t_apply(images, t_apply([(2,)], w.letters))

    @pytest.mark.parametrize("g", [2, 4])
    @pytest.mark.parametrize("l", [3, 12])
    def test_family_boundary_word(self, g, l):
        hom = embedding(FamilyParams(g, l))
        images = [img.letters for img in hom.images]
        bw = boundary_word(g)
        assert hom.apply(bw).letters == t_apply(images, bw.letters)
        assert hom.apply(bw.inverse()).letters == t_apply(images, bw.inverse().letters)


class TestConstruction:
    def test_image_count_checked(self):
        with pytest.raises(ValueError):
            Homomorphism(Y, Y, [Word(Y, (1,))])

    def test_image_alphabet_checked(self):
        with pytest.raises(AlphabetMismatch):
            Homomorphism(X1, Y, [Word(A1, (1,))])


class TestRandomReducedWord:
    """``oracles.random_reduced_letters``, the random words of these tests
    and of acceptance criterion 8."""

    def test_length_zero(self):
        assert random_reduced_letters(3, 0, seed=1) == ()

    def test_rank_one_length_three(self):
        for seed in range(20):
            assert random_reduced_letters(1, 3, seed=seed) in {(1, 1, 1), (-1, -1, -1)}

    def test_deterministic(self):
        a = random_reduced_letters(3, 50, seed=99)
        b = random_reduced_letters(3, 50, seed=99)
        assert a == b

    def test_seeds_vary(self):
        outputs = {random_reduced_letters(3, 20, seed=s) for s in range(10)}
        assert len(outputs) > 1

    def test_exact_length_and_reduced(self):
        for seed in range(30):
            n = seed % 9
            w = random_reduced_letters(3, n, seed=seed)
            assert len(w) == n
            assert Word(Y, w).letters == w

    def test_allowed_subset(self):
        w = random_reduced_letters(3, 40, seed=3, allowed=(1, 3))
        assert all(abs(s) in (1, 3) for s in w)

    def test_allowed_out_of_range(self):
        for allowed in ((5,), (0,), (1, 4), (-1,)):
            with pytest.raises(ValueError, match="out of range"):
                random_reduced_letters(3, 2, seed=1, allowed=allowed)

    def test_criterion_8_samples_frozen(self):
        # acceptance criterion 8's first three samples per parity at
        # (g, l) = (2, 3), frozen so that a change to the random stream
        # (which would resample that criterion) shows here
        seed = 20250810
        for gens, frozen in (
            ((2, 4), [(2,), (-2, 4), (4, -2, -2)]),
            ((1, 3), [(1,), (-1, 3), (3, -1, -1)]),
        ):
            drawn = [
                random_reduced_letters(4, 1 + i % 8, seed=seed + i, allowed=gens)
                for i in range(3)
            ]
            assert drawn == frozen


class TestSerialization:
    def test_pickle_round_trip(self, phi23):
        assert pickle.loads(pickle.dumps(phi23)) == phi23
