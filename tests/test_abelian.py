import random

import pytest

from fgkit import (
    Alphabet,
    FamilyParams,
    Homomorphism,
    INFINITE,
    Word,
    embedding,
    exponent_vector,
    image_matrix,
    parse_word,
    quotient_order,
    smith_normal_form,
    verify,
)
from fgkit import abelian as abelian_module
from fgkit.family import boundary_word

from oracles import det_int, lattice_index, matmul

Y = Alphabet.numbered(3, "y")

# rows derived from the l=3 instance of the family; the lattice index 24
# was frozen from the integer row-echelon oracle
L3_MATRIX = [[4, 0, 0], [0, 0, 3], [0, -2, 1], [4, -2, 1]]


def random_matrix(rng, max_dim=5, bound=9):
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def check_certificate(m, u, d, v):
    rows, cols = len(m), len(m[0]) if m else 0
    assert matmul(matmul(u, m), v) == d
    assert abs(det_int(u)) == 1
    assert abs(det_int(v)) == 1
    diag = [d[i][i] for i in range(min(rows, cols))]
    for i, row in enumerate(d):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0


class TestExponentVector:
    def test_power_of_one_generator(self):
        assert exponent_vector(parse_word("y3^3", Y)) == (0, 0, 3)

    def test_empty(self):
        assert exponent_vector(Word(Y)) == (0, 0, 0)

    def test_boundary_word_is_balanced(self):
        w = boundary_word(2)
        assert exponent_vector(w) == (0, 0, 0, 0)

    def test_additivity(self):
        rng = random.Random(3)
        for _ in range(100):
            a = Word(Y, [rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randint(0, 12))])
            b = Word(Y, [rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randint(0, 12))])
            left = exponent_vector(a * b)
            expected = tuple(x + y for x, y in zip(exponent_vector(a), exponent_vector(b)))
            assert left == expected

    def test_commutator_vanishes(self):
        a = parse_word("y1 y2", Y)
        b = parse_word("y3^2 y1^-1", Y)
        comm = a * b * a.inverse() * b.inverse()
        assert exponent_vector(comm) == (0, 0, 0)


class TestImageMatrix:
    def test_identity(self):
        identity = Homomorphism(Y, Y, [Word(Y, (g,)) for g in (1, 2, 3)])
        assert image_matrix(identity) == [
            [1, 0, 0],
            [0, 1, 0],
            [0, 0, 1],
        ]

    @pytest.mark.parametrize("l", [3, 5, 9])
    def test_family_rows(self, l):
        m = image_matrix(embedding(FamilyParams(2, l)))
        assert m[0] == [0, 0, 3]
        assert m[1] == [4, 0, 3]
        assert m[2] == [4, 1 - l, 1]
        assert m[3] == [0, 1 - l, 1]

    def test_rows_repeat_across_genus(self):
        small = image_matrix(embedding(FamilyParams(2, 4)))
        large = image_matrix(embedding(FamilyParams(6, 4)))
        assert large == small * 3


class TestSmithNormalForm:
    def test_identity(self):
        u, d, v = smith_normal_form([[1, 0], [0, 1]])
        assert u == [[1, 0], [0, 1]]
        assert d == [[1, 0], [0, 1]]
        assert v == [[1, 0], [0, 1]]

    def test_divisibility_normalization(self):
        _, d, _ = smith_normal_form([[2, 0], [0, 3]])
        assert d == [[1, 0], [0, 6]]

    def test_frozen_l3_matrix(self):
        u, d, v = smith_normal_form(L3_MATRIX)
        check_certificate(L3_MATRIX, u, d, v)
        diag = [d[i][i] for i in range(3)]
        nonzero_product = 1
        for x in diag:
            if x:
                nonzero_product *= x
        assert nonzero_product == 24
        assert lattice_index(L3_MATRIX, 3) == 24

    def test_zero_matrix(self):
        u, d, v = smith_normal_form([[0, 0], [0, 0]])
        check_certificate([[0, 0], [0, 0]], u, d, v)
        assert d == [[0, 0], [0, 0]]

    def test_certificates_random(self):
        rng = random.Random(12345)
        for _ in range(120):
            m = random_matrix(rng)
            u, d, v = smith_normal_form(m)
            check_certificate(m, u, d, v)

    def test_against_sympy(self):
        # sympy is in the test extra: a missing one fails here, not skips
        import sympy
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        rng = random.Random(777)
        for _ in range(60):
            m = random_matrix(rng, max_dim=4, bound=7)
            _, d, _ = smith_normal_form(m)
            ours = [abs(d[i][i]) for i in range(min(len(m), len(m[0])))]
            theirs = sympy_snf(sympy.Matrix(m))
            reference = [
                abs(theirs[i, i]) for i in range(min(theirs.rows, theirs.cols))
            ]
            assert sorted(ours) == sorted(reference)

    @pytest.mark.parametrize("rows", range(5))
    @pytest.mark.parametrize("cols", range(5))
    def test_certificates_every_small_shape(self, rows, cols):
        # the augmented matrix's blocks are empty when rows or cols is 0;
        # a matrix with no rows is [] whatever its width
        rng = random.Random(100 * rows + cols)
        m = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        for matrix in (m, [[0] * cols for _ in range(rows)]):
            u, d, v = smith_normal_form(matrix)
            assert (len(u), len(d), len(v)) == (rows, rows, cols if rows else 0)
            check_certificate(matrix, u, d, v)

    def test_rejects_ragged_input(self):
        with pytest.raises(ValueError):
            smith_normal_form([[1, 2], [3]])

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            smith_normal_form([[1.5]])


class TestQuotientOrder:
    def test_identity_lattice(self):
        assert quotient_order([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3) == 1

    def test_rank_deficient(self):
        assert quotient_order([[2, 0]], 2) is INFINITE

    def test_diagonal_lattice(self):
        assert quotient_order([[2, 0], [0, 3]], 2) == 6

    def test_empty_matrix(self):
        assert quotient_order([], 2) is INFINITE

    def test_width_checked(self):
        with pytest.raises(ValueError):
            quotient_order([[1, 2, 3]], 2)

    @pytest.mark.parametrize(
        "matrix, rank, error",
        [([], -1, ValueError), ([[2]], 1.0, TypeError), ([[2]], True, TypeError), ([], "0", TypeError)],
    )
    def test_ambient_rank_is_a_non_negative_int(self, matrix, rank, error):
        with pytest.raises(error, match="ambient_rank"):
            quotient_order(matrix, rank)
        assert quotient_order([], 0) == 1

    def test_invariant_under_row_operations(self):
        rng = random.Random(31)
        for _ in range(60):
            m = random_matrix(rng, max_dim=4, bound=5)
            base = quotient_order(m, len(m[0]))
            shuffled = m[:]
            rng.shuffle(shuffled)
            assert quotient_order(shuffled, len(m[0])) == base
            if len(m) >= 2:
                i, j = rng.sample(range(len(m)), 2)
                modified = [row[:] for row in m]
                c = rng.randint(-3, 3)
                modified[i] = [a + c * b for a, b in zip(modified[i], modified[j])]
                assert quotient_order(modified, len(m[0])) == base

    def test_matches_hermite_oracle(self):
        rng = random.Random(57)
        for _ in range(80):
            m = random_matrix(rng, max_dim=4, bound=6)
            ambient = len(m[0])
            ours = quotient_order(m, ambient)
            oracle = lattice_index(m, ambient)
            if oracle is None:
                assert ours is INFINITE
            else:
                assert ours == oracle

    def test_duplicated_and_reordered_rows(self):
        rng = random.Random(61)
        for _ in range(60):
            m = random_matrix(rng, max_dim=4, bound=5)
            ambient = len(m[0])
            oracle = lattice_index(m, ambient)
            base = quotient_order(m, ambient)
            assert base == (INFINITE if oracle is None else oracle)
            grown = m + [rng.choice(m)[:] for _ in range(rng.randint(1, 6))]
            rng.shuffle(grown)
            assert quotient_order(grown, ambient) == base
        assert quotient_order([[2, 0], [2, 0], [2, 0]], 2) is INFINITE

    def test_family_smith_form_gets_distinct_rows(self, monkeypatch):
        # the 2g exponent rows repeat with period 4
        sizes = []

        def counting(matrix):
            sizes.append(len(matrix))
            return smith_normal_form(matrix)

        monkeypatch.setattr(abelian_module, "smith_normal_form", counting)
        report = verify(FamilyParams(64, 12))
        assert report.quotient_order == 12 * 11
        assert sizes and max(sizes) <= 4

    def test_nothing_is_kept_between_calls(self, monkeypatch):
        calls = []

        def counting(matrix):
            calls.append(matrix)
            return smith_normal_form(matrix)

        monkeypatch.setattr(abelian_module, "smith_normal_form", counting)
        assert quotient_order(L3_MATRIX, 3) == quotient_order(L3_MATRIX, 3) == 24
        assert len(calls) == 2

    def test_infinite_singleton_pickles(self):
        import pickle

        assert pickle.loads(pickle.dumps(INFINITE)) is INFINITE
