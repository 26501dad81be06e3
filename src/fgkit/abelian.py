"""Exponent sums, integer matrices, Smith normal form, cokernel order.

All arithmetic is exact: Python integers never overflow, which is the
whole contract here.  The Smith routine pivots on a least-absolute-value
nonzero entry and returns the full certificate (U, D, V) with
``U @ M @ V == D``, U and V unimodular, and the diagonal of D nonnegative
with each entry dividing the next.  It works on one augmented matrix,
rows [M | I_m] above rows I_n: a row operation rewrites a whole
augmented row and a column operation runs down every row, so each step
is written once and the blocks U and V follow M without a copy of it.
Nothing here is kept between calls; the orders ``verify`` reuses are
kept in :mod:`fgkit.family`.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import prod

from .homs import Homomorphism
from .words import Word, _letter_key

__all__ = [
    "INFINITE",
    "exponent_vector",
    "image_matrix",
    "smith_normal_form",
    "quotient_order",
]


class _InfiniteType:
    """Singleton marking an infinite quotient."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITE"

    def __reduce__(self):
        return (_InfiniteType, ())


INFINITE = _InfiniteType()

IntMatrix = list[list[int]]


def exponent_vector(w: Word) -> tuple[int, ...]:
    """Exponent sum per generator; additive over concatenation.

    Two ``str.count`` passes over the letter code per generator, so the
    cost is O(rank * length), all of it in C.

    >>> from .words import Alphabet, parse_word
    >>> y = Alphabet.numbered(3, "y")
    >>> exponent_vector(parse_word("y3^3", y))
    (0, 0, 3)
    """
    return tuple(_exponent_sums(w.code, _code_pairs(w.alphabet.rank)))


def _code_pairs(rank: int) -> list[tuple[str, str]]:
    """The codes of generator k and of its inverse, for k = 1 .. rank."""
    return [(chr(_letter_key(k)), chr(_letter_key(-k))) for k in range(1, rank + 1)]


def _exponent_sums(code: str, pairs: list[tuple[str, str]]) -> list[int]:
    return [code.count(gen) - code.count(inv) for gen, inv in pairs]


def image_matrix(h: Homomorphism) -> IntMatrix:
    """One row per domain generator: the exponent vector of its image.
    The generator codes are built once for all the rows."""
    pairs = _code_pairs(h.codomain.rank)
    return [_exponent_sums(img.code, pairs) for img in h.images]


def _validated(matrix: Sequence[Sequence[int]]) -> IntMatrix:
    rows = [list(r) for r in matrix]
    for r in rows:
        if len(r) != len(rows[0]):
            raise ValueError("matrix is not rectangular")
        for x in r:
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValueError(f"matrix entry {x!r} is not an integer")
    return rows


def _identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _least_entry(b: IntMatrix, t: int, m: int, n: int) -> tuple[int, int, int] | None:
    """(|x|, i, j) of the first nonzero entry x of least absolute value in
    rows t..m-1 and columns t..n-1, in row-major order, or None."""
    best = None
    for i in range(t, m):
        for j, x in enumerate(b[i][t:n], t):
            if x and (best is None or abs(x) < best[0]):
                best = (abs(x), i, j)
    return best


def smith_normal_form(
    matrix: Sequence[Sequence[int]],
) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Diagonalize an integer matrix: returns (U, D, V) with U*M*V = D.

    U and V are unimodular, D is diagonal with nonnegative entries and
    d1 | d2 | ... (trailing zeros allowed).

    The m x n matrix M is reduced inside one augmented matrix: rows
    0..m-1 hold [M | I_m] and rows m.. hold I_n.  A row operation is one
    list operation on a whole augmented row, so the right block follows
    it as U; a column operation is one pass over every row, so the
    bottom block follows it as V.

    >>> U, D, V = smith_normal_form([[2, 0], [0, 3]])
    >>> D
    [[1, 0], [0, 6]]
    """
    a = _validated(matrix)
    m, n = len(a), len(a[0]) if a else 0
    b = [r + e for r, e in zip(a, _identity(m))] + _identity(n)
    t = 0
    while t < min(m, n):
        pivot = _least_entry(b, t, m, n)
        if pivot is None:
            break
        _, i, j = pivot
        b[t], b[i] = b[i], b[t]
        if j != t:
            for r in b:
                r[t], r[j] = r[j], r[t]
        if b[t][t] < 0:
            b[t] = [-x for x in b[t]]
        row, p = b[t], b[t][t]
        for i in range(t + 1, m):
            q = b[i][t] // p
            if q:
                b[i] = [x - q * y for x, y in zip(b[i], row)]
        for j in range(t + 1, n):
            q = row[j] // p
            if q:
                for r in b:
                    r[j] -= q * r[t]
        if any(r[t] for r in b[t + 1 : m]) or any(row[t + 1 : n]):
            continue  # an entry with |entry| < p appeared; re-pivot
        # drag a non-divisible entry into row t so the gcd reaches the pivot
        for i in range(t + 1, m):
            if any(x % p for x in b[i][t + 1 : n]):
                b[t] = [x + y for x, y in zip(row, b[i])]
                break
        else:
            t += 1
    return [r[n:] for r in b[:m]], [r[:n] for r in b[:m]], [r[:n] for r in b[m:]]


def quotient_order(
    matrix: Sequence[Sequence[int]], ambient_rank: int
) -> int | _InfiniteType:
    """Order of Z^ambient_rank modulo the row lattice of ``matrix``.

    Returns :data:`INFINITE` when the rows span a lattice of rank less
    than ``ambient_rank``; otherwise the index, the product of the nonzero
    Smith diagonal entries.  Duplicate rows span the same lattice, so only
    the first copy of each row goes to the Smith form: the family's 2g
    exponent rows repeat with period 4.  Nothing is kept between calls.
    ``ambient_rank`` must be a non-negative ``int``.

    >>> quotient_order([[2, 0], [0, 3]], 2)
    6
    >>> quotient_order([[2, 0]], 2)
    INFINITE
    """
    if not isinstance(ambient_rank, int) or isinstance(ambient_rank, bool):
        raise TypeError(f"ambient_rank must be an int, not {type(ambient_rank).__name__}")
    if ambient_rank < 0:
        raise ValueError("ambient_rank must be >= 0")
    rows = _validated(matrix)
    if rows and len(rows[0]) != ambient_rank:
        raise ValueError("matrix width does not match the ambient rank")
    if not rows:
        return INFINITE if ambient_rank > 0 else 1
    rows = list(dict.fromkeys(map(tuple, rows)))
    _, d, _ = smith_normal_form(rows)
    diag = [d[i][i] for i in range(min(len(rows), ambient_rank))]
    nonzero = [x for x in diag if x]
    if len(nonzero) < ambient_rank:
        return INFINITE
    return prod(nonzero)
