"""Exponent sums, integer matrices, Smith normal form, cokernel order.

All arithmetic is exact: Python integers never overflow, which is the
whole contract here.  The Smith routine pivots on a least-absolute-value
nonzero entry and returns the full certificate (U, D, V) with
``U @ M @ V == D``, U and V unimodular, and the diagonal of D nonnegative
with each entry dividing the next.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
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

# quotient_order keeps the order of up to _KEPT_ORDERS deduplicated
# matrices of at most _KEPT_ENTRIES entries; verify's are four rows of
# three at each l, the same rows for every g, so one is kept for each l of
# the longest --l-list (tests/test_cli.py::test_per_l_caches_hold_a_whole_l_list)
_KEPT_ORDERS = 4096
_KEPT_ENTRIES = 64


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
    if rows:
        width = len(rows[0])
        for r in rows:
            if len(r) != width:
                raise ValueError("matrix is not rectangular")
            for x in r:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise ValueError(f"matrix entry {x!r} is not an integer")
    return rows


def _identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _min_abs_nonzero(a: IntMatrix, t: int, m: int, n: int):
    best = None
    for i in range(t, m):
        row = a[i]
        for j in range(t, n):
            x = row[j]
            if x != 0 and (best is None or abs(x) < abs(a[best[0]][best[1]])):
                best = (i, j)
    return best


def smith_normal_form(
    matrix: Sequence[Sequence[int]],
) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Diagonalize an integer matrix: returns (U, D, V) with U*M*V = D.

    U and V are unimodular, D is diagonal with nonnegative entries and
    d1 | d2 | ... (trailing zeros allowed).

    >>> U, D, V = smith_normal_form([[2, 0], [0, 3]])
    >>> D
    [[1, 0], [0, 6]]
    """
    a = _validated(matrix)
    m = len(a)
    n = len(a[0]) if m else 0
    u = _identity(m)
    v = _identity(n)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):
        arow, srow = a[dst], a[src]
        for k in range(n):
            arow[k] += c * srow[k]
        urow, usrc = u[dst], u[src]
        for k in range(m):
            urow[k] += c * usrc[k]

    def add_col(dst, src, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(m, n):
        if _min_abs_nonzero(a, t, m, n) is None:
            break
        while True:
            i0, j0 = _min_abs_nonzero(a, t, m, n)
            if i0 != t:
                swap_rows(t, i0)
            if j0 != t:
                swap_cols(t, j0)
            if a[t][t] < 0:
                negate_row(t)
            p = a[t][t]
            leftover = False
            for i in range(t + 1, m):
                q = a[i][t] // p
                if q:
                    add_row(i, t, -q)
                if a[i][t]:
                    leftover = True
            for j in range(t + 1, n):
                q = a[t][j] // p
                if q:
                    add_col(j, t, -q)
                if a[t][j]:
                    leftover = True
            if leftover:
                continue  # an entry with |entry| < p appeared; re-pivot
            offender = None
            for i in range(t + 1, m):
                if any(a[i][j] % p for j in range(t + 1, n)):
                    offender = i
                    break
            if offender is None:
                break
            # drag a non-divisible entry into row t so the gcd reaches the pivot
            add_row(t, offender, 1)
        t += 1
    return u, a, v


def quotient_order(
    matrix: Sequence[Sequence[int]], ambient_rank: int
) -> int | _InfiniteType:
    """Order of Z^ambient_rank modulo the row lattice of ``matrix``.

    Returns :data:`INFINITE` when the rows span a lattice of rank less
    than ``ambient_rank``; otherwise the index, the product of the nonzero
    Smith diagonal entries.  Duplicate rows span the same lattice, so only
    the first copy of each row goes to the Smith form: the family's 2g
    exponent rows repeat with period 4.  The order of a small deduplicated
    matrix is kept, so a matrix seen before costs no Smith form.

    >>> quotient_order([[2, 0], [0, 3]], 2)
    6
    >>> quotient_order([[2, 0]], 2)
    INFINITE
    """
    rows = _validated(matrix)
    for r in rows:
        if len(r) != ambient_rank:
            raise ValueError("matrix width does not match the ambient rank")
    if not rows:
        return INFINITE if ambient_rank > 0 else 1
    rows = tuple(dict.fromkeys(map(tuple, rows)))
    if len(rows) * ambient_rank > _KEPT_ENTRIES:
        return _lattice_index.__wrapped__(rows, ambient_rank)
    return _lattice_index(rows, ambient_rank)


@lru_cache(maxsize=_KEPT_ORDERS)
def _lattice_index(
    rows: tuple[tuple[int, ...], ...], ambient_rank: int
) -> int | _InfiniteType:
    _, d, _ = smith_normal_form(rows)
    diag = [d[i][i] for i in range(min(len(rows), ambient_rank))]
    nonzero = [x for x in diag if x]
    if len(nonzero) < ambient_rank:
        return INFINITE
    return prod(nonzero)
