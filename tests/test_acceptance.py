"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the verdict
lines.  Expected values tagged as derived were frozen from the independent
oracles in ``oracles.py``.
"""

import itertools
import random
import time

from fgkit import (
    Alphabet,
    FamilyParams,
    INFINITE,
    Word,
    build_subgroup_graph,
    canonical_class,
    embedding,
    generator_images_closed,
    generator_images_recursive,
    image_matrix,
    is_injective,
    parse_word,
    quotient_order,
    reference_quotient_order,
    render_word,
    check_shuffle_identities,
    smith_normal_form,
)
from fgkit.family import boundary_word, class_distinctness, domain_alphabet

import oracles
from test_family import word_shuffle_sides

GRID = [(g, l) for g in (2, 4, 6, 8) for l in range(3, 13)]
SEED = 20250810


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n} failed: {detail}"


def test_criterion_1_injectivity_on_grid():
    t0 = time.perf_counter()
    failures = []
    for g, l in GRID:
        result = is_injective(embedding(FamilyParams(g, l)))
        if not (result.verdict and result.image_rank == 2 * g):
            failures.append((g, l, result))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    _verdict(
        1,
        ok,
        f"injectivity with image rank 2g on all {len(GRID)} grid instances "
        f"({elapsed:.2f}s < 30s){'; failures: ' + repr(failures) if failures else ''}",
    )


def test_criterion_2_closed_forms_match_recursion():
    failures = []
    for g, l in GRID:
        p = FamilyParams(g, l)
        if generator_images_recursive(p) != generator_images_closed(p):
            failures.append((g, l))
    _verdict(
        2,
        not failures,
        f"recursive and closed-form images agree entrywise on all {len(GRID)} "
        f"grid instances{'; failures: ' + repr(failures) if failures else ''}",
    )


def test_criterion_3_shuffle_identities():
    t0 = time.perf_counter()
    failures = [l for l in range(3, 13) if not check_shuffle_identities(6, 6, l)]
    elapsed = time.perf_counter() - t0
    # the check compares three products, so the grid of Word products and
    # powers up to 6 is compared with the fgkit-free oracle
    failures += [
        l
        for l in range(3, 13)
        if oracles.shuffle_grid_failure(6, 6, l) is not None
        or list(oracles.shuffle_grid_sides(6, 6, l)) != list(word_shuffle_sides(6, 6, l))
    ]
    ok = not failures and elapsed < 5.0
    _verdict(
        3,
        ok,
        f"all four identity branches hold for i,j <= 6 and l in 3..12, and "
        f"Word arithmetic there equals the oracle's ({elapsed:.2f}s < 5s)"
        f"{'; failures: ' + repr(failures) if failures else ''}",
    )


def test_criterion_4_slope_distinctness():
    t0 = time.perf_counter()
    ok = True
    details = []
    for g in (2, 4):
        classes = []
        for l in range(3, 21):
            hom = embedding(FamilyParams(g, l))
            cls = canonical_class(hom.apply(boundary_word(g)), oriented=False)
            if cls.is_identity():
                ok = False
            classes.append(cls)
        distinct = len(set(classes)) == len(classes)
        ok = ok and distinct
        details.append(f"g={g}: {len(set(classes))}/18 distinct nontrivial classes")
        nontrivial = not any(c.is_identity() for c in classes)
        assert class_distinctness(classes) == (distinct, nontrivial)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _verdict(4, ok, "; ".join(details) + f" ({elapsed:.2f}s < 10s)")


def test_criterion_5_homology_finiteness_and_reported_order():
    orders_by_l: dict[int, set] = {}
    infinite = []
    for g, l in GRID:
        order = quotient_order(image_matrix(embedding(FamilyParams(g, l))), 3)
        if order is INFINITE:
            infinite.append((g, l))
        orders_by_l.setdefault(l, set()).add(order)
    constant_in_g = all(len(v) == 1 for v in orders_by_l.values())
    comparisons = []
    for l in sorted(orders_by_l):
        (order,) = orders_by_l[l]
        ref = reference_quotient_order(l)
        tag = "agrees" if order == ref else "WARNING differs"
        comparisons.append(f"l={l}: computed {order} vs reference {ref} ({tag})")
    ok = not infinite and constant_in_g
    _verdict(
        5,
        ok,
        "quotient finite and constant in g on full grid; " + "; ".join(comparisons),
    )


def test_criterion_6_word_engine_property_suite():
    y = Alphabet.numbered(3, "y")
    letters = [s for g in range(1, 4) for s in (g, -g)]
    rng = random.Random(SEED)

    def raw(max_len=40):
        return [rng.choice(letters) for _ in range(rng.randint(0, max_len))]

    checks = 0
    for _ in range(1000):  # reduce idempotence
        w = Word(y, raw())
        assert Word(y, w.letters) == w
        checks += 1
    for _ in range(1000):  # concat associativity
        a, b, c = Word(y, raw(15)), Word(y, raw(15)), Word(y, raw(15))
        assert (a * b) * c == a * (b * c)
        checks += 1
    for _ in range(1000):  # inverse laws
        a, b = Word(y, raw(15)), Word(y, raw(15))
        assert (a * b).inverse() == b.inverse() * a.inverse()
        assert a.inverse().inverse() == a
        assert (a * a.inverse()).is_identity()
        checks += 1
    for _ in range(1000):  # canonical class invariance
        w = Word(y, raw(12))
        c = Word(y, raw(12))
        assert canonical_class(c * w * c.inverse()) == canonical_class(w)
        core, _ = w.cyclic_reduce()
        if len(core) > 1:
            k = rng.randrange(1, len(core))
            rotated = Word(y, core.letters[k:] + core.letters[:k])
            assert canonical_class(rotated) == canonical_class(w)
        assert canonical_class(w.inverse(), oriented=False) == canonical_class(
            w, oriented=False
        )
        checks += 1
    for _ in range(1000):  # parse/render round trip
        w = Word(y, raw(25))
        assert parse_word(render_word(w), y) == w
        checks += 1
    _verdict(6, True, f"{checks} randomized word-engine property cases, zero failures")


def _membership_instances():
    for rank in (1, 2):
        cands = [t for t in oracles.reduced_words(rank, 3) if t]
        # generating sets are inverse-insensitive, so one representative
        # per {w, w^-1} pair is enough
        canon = sorted({min(t, oracles.t_inv(t)) for t in cands})
        instances = [(t,) for t in canon]
        instances.extend(itertools.combinations_with_replacement(canon, 2))
        yield rank, instances


def test_criterion_7_stallings_oracle_and_smith_certificates():
    checks = 0
    mismatches = []
    for rank, instances in _membership_instances():
        alphabet = Alphabet.numbered(rank, "a")
        queries = list(oracles.reduced_words(rank, 6))
        for inst in instances:
            ball = oracles.subgroup_elements_up_to(inst, 6)
            graph = build_subgroup_graph([Word(alphabet, t) for t in inst], alphabet)
            for t in queries:
                if graph.contains(Word(alphabet, t)) != (t in ball):
                    mismatches.append((inst, t))
                checks += 1
    assert not mismatches, mismatches[:5]

    rng = random.Random(SEED + 7)
    for _ in range(500):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        u, d, v = smith_normal_form(m)
        assert oracles.matmul(oracles.matmul(u, m), v) == d
        assert abs(oracles.det_int(u)) == 1
        assert abs(oracles.det_int(v)) == 1
        diag = [d[i][i] for i in range(min(rows, cols))]
        assert all(
            x == 0 for i, row in enumerate(d) for j, x in enumerate(row) if i != j
        )
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0 if a else b == 0
    _verdict(
        7,
        True,
        f"membership agreed with Nielsen-basis enumeration on {checks} queries; "
        f"500 Smith certificates verified",
    )


def test_criterion_8_block_letter_structure():
    failures = []
    for g, l in [(2, 3), (4, 5)]:
        hom = embedding(FamilyParams(g, l))
        domain = domain_alphabet(g)
        even = tuple(range(2, 2 * g + 1, 2))
        odd = tuple(range(1, 2 * g + 1, 2))
        for gens, boundary in ((even, {1}), (odd, {2, 3})):
            rank = domain.rank
            samples = [t for t in oracles.reduced_words(rank, 3, allowed=gens) if t]
            for i in range(200):
                length = 1 + i % 8
                samples.append(
                    oracles.random_reduced_letters(rank, length, seed=SEED + i, allowed=gens)
                )
            for t in samples:
                img = hom.apply(Word(domain, t))
                if img.is_identity() or not (
                    abs(img.letters[0]) in boundary and abs(img.letters[-1]) in boundary
                ):
                    failures.append((g, l, gens, t))
    _verdict(
        8,
        not failures,
        "first/last letters of single-parity images stay in their generator "
        f"blocks at (2,3) and (4,5): exhaustive length<=3 plus 200 samples per "
        f"parity{'; failures: ' + repr(failures[:3]) if failures else ''}",
    )
