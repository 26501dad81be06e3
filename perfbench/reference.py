"""Independent answers for the benchmark's output checks.

Nothing here imports fgkit or reuses its algorithms.  Words are plain
tuples of signed integers (+k is generator k, -k its inverse), reduced
with a stack; least rotations come from Duval's Lyndon factorisation
instead of Booth's failure function.  The family's generator images are
built from the recursion as stated, one reduced concatenation per step.
"""

from __future__ import annotations

import hashlib

NAMES = ("y1", "y2", "y3")


# -- words ------------------------------------------------------------------


def reduce(letters) -> tuple[int, ...]:
    stack: list[int] = []
    for s in letters:
        if stack and stack[-1] == -s:
            stack.pop()
        else:
            stack.append(s)
    return tuple(stack)


def inverse(letters) -> tuple[int, ...]:
    return tuple(-s for s in reversed(letters))


def parse(text: str, names=NAMES) -> tuple[int, ...]:
    """Letters of a word in text form: ``name`` or ``name^k`` atoms, ``1`` if empty."""
    text = text.strip()
    if text == "1":
        return ()
    index = {name: k + 1 for k, name in enumerate(names)}
    letters: list[int] = []
    for atom in text.split():
        name, _, exp = atom.partition("^")
        k = int(exp) if exp else 1
        gen = index[name]
        letters.extend([gen if k > 0 else -gen] * abs(k))
    return reduce(letters)


def _key(s: int) -> int:
    # the letter order y1 < y1^-1 < y2 < y2^-1 < ... that fgkit's canonical classes use
    return 2 * abs(s) + (0 if s > 0 else 1)


def least_rotation(letters: tuple[int, ...]) -> tuple[int, ...]:
    """Least rotation under the letter order, by Duval's factorisation."""
    n = len(letters)
    if n == 0:
        return letters
    s = [_key(x) for x in letters] * 2
    i = start = 0
    while i < n:
        start = i
        j, k = i + 1, i
        while j < 2 * n and s[k] <= s[j]:
            k = i if s[k] < s[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return letters[start:] + letters[:start]


def canonical(letters, oriented: bool) -> tuple[int, ...]:
    """Least rotation of the cyclic core; unoriented also tries the inverse."""
    core = list(reduce(letters))
    while len(core) >= 2 and core[0] == -core[-1]:
        core = core[1:-1]
    best = least_rotation(tuple(core))
    if not oriented and core:
        cand = least_rotation(inverse(core))
        if [_key(x) for x in cand] < [_key(x) for x in best]:
            best = cand
    return best


def digest(letters) -> str:
    return hashlib.sha256(",".join(map(str, letters)).encode()).hexdigest()


def digest_words(words) -> str:
    return hashlib.sha256("|".join(",".join(map(str, w)) for w in words).encode()).hexdigest()


# -- the embedding family ---------------------------------------------------


def family_images(g: int, l: int) -> list[tuple[int, ...]]:
    """Images of x1..x_{2g} by the four-step recursion seeded with y3^3."""
    images = [(3, 3, 3)]
    for k in range(2, 2 * g + 1):
        prev = images[-1]
        step = k % 4
        if step == 1:
            seq = (-3, -2) + prev + (2,) * l + (3, 3, 3)
        elif step == 2:
            seq = (1, 1, 1) + prev + (1,)
        elif step == 3:
            seq = (-3, -3, -3) + (-2,) * l + prev + (2, 3)
        else:
            seq = (-1,) + prev + (-1, -1, -1)
        images.append(reduce(seq))
    return images


def boundary_letters(g: int) -> list[int]:
    odd = range(1, 2 * g, 2)
    even_desc = range(2 * g, 0, -2)
    out = [x if t % 2 == 0 else -x for t, x in enumerate(odd)]
    out += [-x if t % 2 == 0 else x for t, x in enumerate(odd)]
    out += [-x if t % 2 == 0 else x for t, x in enumerate(even_desc)]
    out += [x if t % 2 == 0 else -x for t, x in enumerate(even_desc)]
    return out


def apply(images, letters) -> tuple[int, ...]:
    seq: list[int] = []
    for s in letters:
        seq.extend(images[s - 1] if s > 0 else inverse(images[-s - 1]))
    return reduce(seq)


def folded_vertex_count(words) -> int:
    """Vertices of the folded graph of a wedge of loops, one per word.

    Edges are inserted one at a time into a graph that is kept folded:
    a clash merges two vertices, and the loser's edges are re-inserted.
    """
    parent: list[int] = [0]
    out: list[dict[int, int]] = [{}]

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    pending: list[tuple[int, int, int]] = []
    for w in words:
        prev = 0
        for idx, s in enumerate(w):
            if idx == len(w) - 1:
                nxt = 0
            else:
                parent.append(len(parent))
                out.append({})
                nxt = len(parent) - 1
            pending.append((prev, s, nxt))
            pending.append((nxt, -s, prev))
            prev = nxt
    while pending:
        u, s, v = pending.pop()
        u, v = find(u), find(v)
        t = out[u].get(s)
        if t is None:
            out[u][s] = v
            continue
        t = find(t)
        if t == v:
            continue
        keep, gone = min(t, v), max(t, v)
        parent[gone] = keep
        pending.extend((keep, s2, t2) for s2, t2 in out[gone].items())
        out[gone] = {}
        pending.append((u, s, keep))
    return sum(1 for v in range(len(parent)) if find(v) == v)


def instance_answers(g: int, l: int) -> dict:
    """Everything the benchmark checks for one (g, l), from first principles."""
    images = family_images(g, l)
    image = apply(images, boundary_letters(g))
    unoriented = canonical(image, oriented=False)
    oriented = canonical(image, oriented=True)
    return {
        "injective": True,
        "shuffle_identities_ok": True,
        "hard_pass": True,
        "image_rank": 2 * g,
        # cokernel order in closed form: the image rows are 4-periodic, and
        # three of the four span the lattice with determinant -12(l-1)
        "quotient_order": 12 * (l - 1),
        "images_sha256": digest_words(images),
        # the closed forms must reproduce the recursion's images exactly
        "closed_images_sha256": digest_words(images),
        "image_letters": sum(map(len, images)),
        "boundary_image_letters": len(image),
        "wedge_vertices": 1 + sum(len(w) - 1 for w in images),
        "folded_vertices": folded_vertex_count(images),
        "class_sha256": digest(unoriented),
        "class_oriented_sha256": digest(oriented),
    }
