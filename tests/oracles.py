"""Independent brute-force oracles used to freeze expected values.

Everything here works on plain tuples of signed integers and deliberately
avoids the library's own algorithms: reduction is by repeated full scans,
lattice indices come from integer row echelon, determinants from Bareiss
elimination, subgroup membership from Nielsen-reduced enumeration, and
folded subgroup graphs from folding the whole wedge of loops.
The word generators the tests draw their inputs from live here too.
"""

from __future__ import annotations

import random
from itertools import groupby
from math import prod


# -- word arithmetic ---------------------------------------------------------


def naive_reduce(seq) -> tuple[int, ...]:
    """Free reduction by repeated full scans (quadratic, obviously correct)."""
    out = list(seq)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i] == -out[i + 1]:
                del out[i : i + 2]
                changed = True
                break
    return tuple(out)


def t_mul(a, b) -> tuple[int, ...]:
    return naive_reduce(tuple(a) + tuple(b))


def t_inv(a) -> tuple[int, ...]:
    return tuple(-x for x in reversed(a))


def t_pow(a, n: int) -> tuple[int, ...]:
    if n < 0:
        return t_inv(t_pow(a, -n))
    out: tuple[int, ...] = ()
    for _ in range(n):
        out = t_mul(out, a)
    return out


def t_apply(images, word) -> tuple[int, ...]:
    """Image of ``word`` under generator k -> ``images[k - 1]``: every image
    (inverted for an inverse letter) concatenated, then reduced once."""
    seq: list[int] = []
    for s in word:
        seq.extend(images[s - 1] if s > 0 else t_inv(images[-s - 1]))
    return naive_reduce(seq)


def boundary_letters(g: int) -> tuple[int, ...]:
    """The surface boundary word of genus ``g``, letter by letter: odd
    indices ascending with signs +, -, +, ..., the same flipped, even
    indices descending with signs -, +, -, ..., the same flipped."""
    odd, even_desc = range(1, 2 * g, 2), range(2 * g, 0, -2)
    blocks = (
        [k if t % 2 == 0 else -k for t, k in enumerate(odd)],
        [-k if t % 2 == 0 else k for t, k in enumerate(odd)],
        [-k if t % 2 == 0 else k for t, k in enumerate(even_desc)],
        [k if t % 2 == 0 else -k for t, k in enumerate(even_desc)],
    )
    return tuple(s for block in blocks for s in block)


def is_generator_name(name: str) -> bool:
    """A generator name: an ASCII letter, then ASCII letters, digits and
    underscores, checked one character at a time."""
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    return (
        name != ""
        and name[0] in letters
        and all(c in letters or c in "0123456789_" for c in name[1:])
    )


def runs(letters) -> list[tuple[int, int]]:
    """Maximal runs of ``letters`` as (generator, signed exponent) pairs,
    by ``itertools.groupby``."""
    return [(abs(s), len(list(group)) * (1 if s > 0 else -1)) for s, group in groupby(letters)]


def render(letters, names) -> str:
    """Text of the reduced word ``letters`` with generator k named
    ``names[k - 1]``: one atom ``name`` or ``name^e`` per maximal run, ``1``
    for the empty word."""
    atoms = [names[g - 1] if e == 1 else f"{names[g - 1]}^{e}" for g, e in runs(letters)]
    return " ".join(atoms) or "1"


# -- word generators ----------------------------------------------------------


def _signed_letters(rank: int, allowed) -> list[int]:
    """``g, -g`` for each generator g of ``allowed`` (default all of
    1..rank), in increasing g; ``ValueError`` for one outside 1..rank."""
    gens = sorted(allowed) if allowed is not None else range(1, rank + 1)
    for g in gens:
        if not (isinstance(g, int) and 1 <= g <= rank):
            raise ValueError(f"generator {g!r} out of range for rank {rank}")
    return [s for g in gens for s in (g, -g)]


def reduced_words(rank: int, max_length: int, allowed=None):
    """Yield every reduced word of length <= ``max_length`` over the
    generators ``allowed`` (default 1..rank), shortest first; within a
    length, lexicographic under the letter order g, -g of ``allowed``."""
    letters = _signed_letters(rank, allowed)
    frontier: list[tuple[int, ...]] = [()]
    yield ()
    for _ in range(max_length):
        nxt = []
        for prefix in frontier:
            for s in letters:
                if prefix and prefix[-1] == -s:
                    continue
                seq = prefix + (s,)
                nxt.append(seq)
                yield seq
        frontier = nxt


def random_reduced_letters(rank: int, length: int, seed: int, allowed=None) -> tuple[int, ...]:
    """Random reduced word of exactly ``length`` letters, deterministic per
    seed: a non-backtracking walk whose first letter is uniform over the
    signed letters of ``allowed`` (default 1..rank) and each later letter
    uniform over those that do not cancel it."""
    rng = random.Random(seed)
    choices = _signed_letters(rank, allowed)
    out: list[int] = []
    for _ in range(length):
        opts = [s for s in choices if s != -out[-1]] if out else choices
        out.append(rng.choice(opts))
    return tuple(out)


# -- shuffle identities -------------------------------------------------------


def shuffle_grid_sides(i_max: int, j_max: int, l: int):
    """Yield ``(branch, i, j, lhs, rhs)`` for both shuffle identities at each
    (i, j) of the grid, in row order, as plain reduced tuples.

    u = y1 y2 y3 and v = y3^-3 y2^-l y1^3 are spelled out here, a = u^-1 v
    and b = u v^-1, and every power is a repeated naive product.
    """
    u = (1, 2, 3)
    v = (-3,) * 3 + (-2,) * l + (1,) * 3
    a = t_mul(t_inv(u), v)
    b = t_mul(u, t_inv(v))
    top = max(i_max, j_max) + 1
    a_pow, b_pow = [()], [()]
    for _ in range(top):
        a_pow.append(t_mul(a_pow[-1], a))
        b_pow.append(t_mul(b_pow[-1], b))
    for i in range(i_max + 1):
        for j in range(j_max + 1):
            lhs = t_mul(t_mul(b_pow[j], u), a_pow[i])
            if i > j:
                yield "first:i>j", i, j, lhs, t_mul(v, a_pow[i - j - 1])
            else:
                yield "first:i<=j", i, j, lhs, t_mul(b_pow[j - i], u)
            lhs = t_mul(t_mul(b_pow[j], v), a_pow[i])
            if i >= j:
                yield "second:i>=j", i, j, lhs, t_mul(v, a_pow[i - j])
            else:
                yield "second:i<j", i, j, lhs, t_mul(b_pow[j - i - 1], u)


def shuffle_grid_failure(i_max: int, j_max: int, l: int):
    """First ``(branch, i, j)`` whose two sides differ, or None."""
    for branch, i, j, lhs, rhs in shuffle_grid_sides(i_max, j_max, l):
        if lhs != rhs:
            return branch, i, j
    return None


def closed_images(g: int, l: int) -> list[tuple[int, ...]]:
    """Images of x1 .. x_2g by the closed forms, every product a naive one:
    with mid_i = a^i y3^3 b^i, x_(4i+1) .. x_(4i+4) are mid_i, y1^3 mid_i y1,
    v mid_i u and y1^-1 v mid_i u y1^-3, for u and v as above."""
    u = (1, 2, 3)
    v = (-3,) * 3 + (-2,) * l + (1,) * 3
    a, b = t_mul(t_inv(u), v), t_mul(u, t_inv(v))
    images: list[tuple[int, ...]] = []
    for i in range(g // 2):
        mid = t_mul(t_mul(t_pow(a, i), (3, 3, 3)), t_pow(b, i))
        vmu = t_mul(t_mul(v, mid), u)
        images += [mid, t_mul(t_mul((1, 1, 1), mid), (1,)), vmu, t_mul(t_mul((-1,), vmu), (-1,) * 3)]
    return images


# -- least rotation -----------------------------------------------------------


def least_rotation(seq) -> tuple[int, ...]:
    """Least rotation under the order y1 < y1^-1 < y2 < y2^-1 < ...

    Duval's Lyndon factorisation of the word read twice: the least rotation
    starts at the last factor that begins in the first copy (J.-P. Duval,
    *Factorizing words over an ordered alphabet*, J. Algorithms 4 (1983)).
    """
    word = tuple(seq)
    n = len(word)
    order = [(abs(s), s < 0) for s in word] * 2
    start = i = 0
    while i < n:
        start, j, k = i, i + 1, i
        # order[i:j] is a power of a Lyndon word of length j - k, then a
        # prefix of it
        while j < 2 * n and order[k] <= order[j]:
            k = i if order[k] < order[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return word[start:] + word[:start]


# -- Nielsen reduction and subgroup enumeration ------------------------------


def _wkey(u) -> tuple[int, ...]:
    return tuple(2 * abs(s) + (0 if s > 0 else 1) for s in u)


def _canon_state(words) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted((w for w in words if w), key=lambda u: (len(u), _wkey(u))))


def _total(state) -> int:
    return sum(len(u) for u in state)


def _neighbors(state):
    """States one elementary Nielsen move away (inversion, one-sided products)."""
    for i, u in enumerate(state):
        rest = state[:i] + state[i + 1 :]
        yield _canon_state(rest + (t_inv(u),))
        for j, v in enumerate(state):
            if j == i:
                continue
            for other in (v, t_inv(v)):
                yield _canon_state(rest + (t_mul(u, other),))
                yield _canon_state(rest + (t_mul(other, u),))


def is_nielsen_reduced(state) -> bool:
    """Check the N0, N1, N2 conditions on the set and its inverses."""
    closed = []
    for u in state:
        closed.extend((u, t_inv(u)))
    if any(not u for u in closed):
        return False
    for u in closed:
        for v in closed:
            uv = t_mul(u, v)
            if uv == ():
                continue
            if len(uv) < max(len(u), len(v)):
                return False
            for w in closed:
                if t_mul(v, w) == ():
                    continue
                if len(t_mul(uv, w)) <= len(u) - len(v) + len(w):
                    return False
    return True


def nielsen_reduce(gens) -> list[tuple[int, ...]]:
    """Carry a generating set to a Nielsen-reduced basis of the same subgroup.

    Strictly length-decreasing elementary moves are applied greedily; when
    none applies and the set is still not Nielsen reduced, the plateau of
    length-preserving moves is searched breadth-first for either a shorter
    state (resuming the descent) or a Nielsen-reduced one.  Raises if the
    search exhausts without success, which the classical theory rules out.
    """
    state = _canon_state([naive_reduce(g) for g in gens])
    while True:
        # greedy strict descent on total length
        improved = True
        while improved:
            improved = False
            total = _total(state)
            for nb in _neighbors(state):
                if _total(nb) < total:
                    state = nb
                    improved = True
                    break
        if is_nielsen_reduced(state):
            return list(state)
        outcome = _plateau_search(state)
        if outcome is None:
            raise AssertionError(f"could not Nielsen-reduce {state!r}")
        kind, state = outcome
        if kind == "reduced":
            return list(state)
        # kind == "shorter": resume the descent loop


def _plateau_search(state):
    from collections import deque

    total = _total(state)
    seen = {state}
    queue = deque([state])
    while queue:
        cur = queue.popleft()
        for nb in _neighbors(cur):
            t = _total(nb)
            if t < total:
                return ("shorter", nb)
            if t > total or nb in seen:
                continue
            if is_nielsen_reduced(nb):
                return ("reduced", nb)
            seen.add(nb)
            queue.append(nb)
    return None


def subgroup_elements_up_to(gens, max_len: int) -> set[tuple[int, ...]]:
    """All subgroup elements of reduced length <= max_len.

    Complete because a reduced product of k syllables over a Nielsen
    reduced basis has length >= k, so products of at most max_len
    syllables already realize every element this short.
    """
    basis = nielsen_reduce(gens)
    if not is_nielsen_reduced(tuple(basis)):  # pragma: no cover - safety net
        raise AssertionError("enumeration requires a Nielsen-reduced basis")
    found = {()}
    if not basis:
        return found

    def extend(word, last, depth):
        if depth == max_len:
            return
        for idx, u in enumerate(basis):
            for sign in (1, -1):
                if last == (idx, -sign):
                    continue
                nxt = t_mul(word, u if sign > 0 else t_inv(u))
                if len(nxt) <= max_len:
                    found.add(nxt)
                extend(nxt, (idx, sign), depth + 1)

    extend((), None, 0)
    return found


def folded_dump(gens, names) -> tuple[str, int]:
    """Dump and rank of the folded graph of the subgroup ``gens`` generate,
    by the textbook fold: build the wedge of one loop per nontrivial
    generator, then identify the far ends of two edges that carry the same
    label out of (or into) one vertex, until no such pair is left.

    Edges are (tail, generator, head) triples in a set, so two edges that
    come to join the same vertices in the same direction become one.  The
    folded graph is numbered breadth-first from the base, each vertex's
    edges taken in the letter order g, -g, g + 1, ...; the dump is the base,
    then one ``tail name head`` line per edge, sorted.  Rank is E - V + 1.
    """
    edges: set[tuple[int, int, int]] = set()
    n_vertices = 1
    for w in gens:
        if not w:
            continue
        path = [0, *range(n_vertices, n_vertices + len(w) - 1), 0]
        n_vertices += len(w) - 1
        for a, s, b in zip(path, w, path[1:]):
            edges.add((a, s, b) if s > 0 else (b, -s, a))
    while True:
        ends: dict[tuple[int, int, int], int] = {}
        pair = None
        for a, s, b in sorted(edges):
            for key, far in (((a, s, 1), b), ((b, s, -1), a)):
                if ends.setdefault(key, far) != far:
                    pair = sorted((ends[key], far))
                    break
            if pair:
                break
        if pair is None:
            break
        keep, drop = pair  # the base, 0, is never dropped
        edges = {
            (keep if a == drop else a, s, keep if b == drop else b) for a, s, b in edges
        }
    out: dict[int, list[tuple[tuple[int, int], int]]] = {}
    for a, s, b in edges:
        out.setdefault(a, []).append(((s, 0), b))
        out.setdefault(b, []).append(((s, 1), a))
    number = {0: 0}
    order = [0]
    for v in order:
        for _, t in sorted(out.get(v, [])):
            if t not in number:
                number[t] = len(order)
                order.append(t)
    lines = sorted((number[a], names[s - 1], number[b]) for a, s, b in edges)
    dump = "".join(f"{a} {name} {b}\n" for a, name, b in lines)
    return "0\n" + dump, len(edges) - len(order) + 1


# -- exact integer linear algebra --------------------------------------------


def matmul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            aik = a[i][k]
            if aik:
                for j in range(cols):
                    out[i][j] += aik * b[k][j]
    return out


def det_int(matrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in matrix]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def lattice_index(rows, ambient: int):
    """Index of the row lattice in Z^ambient via integer row echelon.

    Returns None when the lattice has rank below ambient.
    """
    mat = [list(r) for r in rows if any(r)]
    for r in mat:
        if len(r) != ambient:
            raise ValueError("row width mismatch")
    rank = 0
    pivots = []
    for col in range(ambient):
        while True:
            candidates = [i for i in range(rank, len(mat)) if mat[i][col]]
            if not candidates:
                break
            i0 = min(candidates, key=lambda i: abs(mat[i][col]))
            mat[rank], mat[i0] = mat[i0], mat[rank]
            p = mat[rank][col]
            leftover = False
            for i in range(rank + 1, len(mat)):
                q = mat[i][col] // p
                if q:
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[rank])]
                if mat[i][col]:
                    leftover = True
            if not leftover:
                pivots.append(abs(p))
                rank += 1
                break
    if rank < ambient:
        return None
    return prod(pivots)
