"""Scaling guards: a primitive on an adversarial input of size n and 8n.

Linear work makes the time ratio about 8 and quadratic work about 64, so
each case asserts a ratio below 16, taking the best of 3 runs at each
size.  The sizes are timed in turn (n, 8n, n, 8n, n, 8n), so that a slow
spell from a noisy neighbour lands on both sides of the ratio.  A ratio,
not a time, is checked, so the bound does not depend on the machine's
speed.

Calibration (2 CPUs shared with other jobs, CPython 3.11.7, sizes timed
in turn, 12 ratios per case): ``apply`` gave 5.5-9.5 on the long-part cut
and 7.6-9.9 on the covered cut; ``canonical_class`` of the dense word
6.4-8.8 at n = 20,000, of the long tie 7.3-8.3 at n = 2^16 runs and of
the periodic word 7.9-9.8 at n = 2^14 periods; ``parse_word`` 7.4-12.4
at n = 5,000 (42 ratios); ``render_word`` 7.0-9.9 at n = 20,000;
``Word.__mul__`` across a cancelling junction of n = 20,000 letters
5.0-5.5 and ``__pow__`` of c u c^-1 with |c| = 20,000 4.7-5.6 (8n takes
under 1 ms, so the fixed cost of a call shows at n); ``fold`` of four
generators p s_i q with |p| = |q| = 40,000 9.2-13.1 (8n takes 0.11-0.17
s); ``base_labels`` of y1^n after y1^(n + 1) merged it into the base
7.7-10.6 at n = 5,000, where one C scan of the path per base id would be
quadratic.

Earlier, with all three runs at n timed before those at 8n, one slow
spell could land on one side only: ``parse_word`` read 17.0 once in 24
ratios.  Other findings of that method stand: when ``apply`` cut its
last part in place, copying what was left at each cut, the same sizes
gave 20-38 and 24, and at n = 20,000 that copy is too small a share of
the run to show reliably, hence n = 40,000; ``canonical_class`` gave 11.1
at n = 5,000, too close to the bound; at n = 100,000-200,000
``__mul__`` and ``__pow__`` gave 4.1-17.7, their megabyte strings
allocated by page faults in some processes and from the heap in others;
``fold`` gave 13-14 with eight generators at 20,000.
``smith_normal_form`` has no case: its cost depends on the entries as
well as the shape, so no one size makes it linear.  The bound is never
raised to make a failure pass.
"""

import random
import time

import pytest

from fgkit import (
    Alphabet,
    Homomorphism,
    Word,
    build_subgroup_graph,
    canonical_class,
    parse_word,
    render_word,
    target_alphabet,
)

A = Alphabet.numbered(3, "a")
X = Alphabet.numbered(3, "x")
Y = target_alphabet()


def _long_part_cut(n):
    # x1 -> a1 a2^n leaves one long part, which each x2 -> a2^-1 cuts by
    # one letter
    phi = Homomorphism(X, A, [Word(A, (1,) + (2,) * n), Word(A, (-2,)), Word(A, ())])
    return phi.apply, Word(X, (1,) + (2,) * n)


def _covered_cut(n):
    # each x3 -> a3^-1 a2^-1 a3 cancels the part a3 whole, cuts the long
    # part by one letter and covers it again with a new part a3
    images = [Word(A, (1,) + (2,) * n), Word(A, (-2, 3)), Word(A, (-3, -2, 3))]
    phi = Homomorphism(X, A, images)
    return phi.apply, Word(X, (1, 2) + (3,) * (n - 2))


def _ratio(case, n):
    # best of 3 at 8n over best of 3 at n, the sizes timed in turn (n, 8n,
    # n, 8n, ...) so that a slow spell lands on both sides
    runs = [case(n), case(8 * n)]
    best = [float("inf")] * 2
    for _ in range(3):
        for i, (fn, arg) in enumerate(runs):
            start = time.perf_counter()
            fn(arg)
            best[i] = min(best[i], time.perf_counter() - start)
    return best[1] / best[0]


@pytest.mark.parametrize("case", [_long_part_cut, _covered_cut])
def test_apply_is_linear(case):
    n = 40_000
    ratio = _ratio(case, n)
    assert ratio < 16, ratio


def _dense_class(n):
    # (y1 y3)^n y1 y2: n + 1 runs of y1, each a candidate start of the
    # least rotation
    return canonical_class, Word(Y, (1, 3) * n + (1, 2))


def _long_tie(n):
    # (y1 y2)^(n - 1) y1 y3: n longest runs of y1, and all but one of the
    # pieces between them are y2
    return canonical_class, Word(Y, (1, 2) * (n - 1) + (1, 3))


def _periodic(n):
    # n periods y1^2 y2 y1^2 y3 y1 y2^-1: the pieces between the runs y1^2
    # rank as two letters, and those ranks as one
    return canonical_class, Word(Y, (1, 1, 2, 1, 1, 3, 1, -2) * n)


def _parse(n):
    return (lambda text: parse_word(text, Y)), " ".join(["y1 y2^-1 y3^2"] * n)


def _render(n):
    return render_word, Word(Y, (1, -2, 3, 3) * n)


@pytest.mark.parametrize(
    "case,n",
    [
        (_dense_class, 20_000),
        (_long_tie, 2**16),
        (_periodic, 2**14),
        (_parse, 5_000),
        (_render, 20_000),
    ],
)
def test_word_primitive_is_linear(case, n):
    ratio = _ratio(case, n)
    assert ratio < 16, ratio


def _random_reduced(n, seed):
    # a seeded reduced word of n letters with no y1^-1 that starts and ends
    # with y1, so that it meets y2^+-1 and y3^+-1 on either side uncancelled
    rng = random.Random(seed)
    letters = [1]
    while len(letters) < n - 1:
        s = rng.choice((1, 2, -2, 3, -3))
        if s != -letters[-1]:
            letters.append(s)
    return Word(Y, letters + [1])


def _cancelling_junction(n):
    # y2 w times w^-1 y3: the n letters of w cancel at one junction
    w = _random_reduced(n, n)
    left = Word(Y, (2,)) * w
    assert left * w.inverse() == Word(Y, (2,))
    return (lambda right: left * right), w.inverse() * Word(Y, (3,))


def _long_conjugator(n):
    # c y2 y3 c^-1 to the 5th: the n-letter conjugator is read once
    c = _random_reduced(n, n)
    return (lambda w: w**5), c * Word(Y, (2, 3)) * c.inverse()


def _shared_prefixes(n):
    # p y2^i y3^i q for i = 1..4: each generator after the first jumps the
    # n letters of p and of q along earlier loops, and the fold merges
    # nothing: V counts every vertex it created
    p, q = _random_reduced(n, n), _random_reduced(n, n + 1)
    gens = [p * Word(Y, (2,) * i + (3,) * i) * q for i in range(1, 5)]
    graph = build_subgroup_graph(gens, Y)
    assert (graph.n_vertices, graph.rank()) == (len(graph._adj), 4)
    return (lambda words: build_subgroup_graph(words, Y)), gens


def _loop_merged_into_the_base(n):
    # y1^n then y1^(n + 1) merges every vertex of the first loop into the
    # base, so every id on its path is a base visit
    gens = [Word(Y, (1,) * n), Word(Y, (1,) * (n + 1))]
    graph = build_subgroup_graph(gens, Y)
    assert (graph.n_vertices, len(graph._parent)) == (1, n - 1)
    assert graph.base_labels(gens[0]) == {1, -1}
    return graph.base_labels, gens[0]


@pytest.mark.parametrize(
    "case,n",
    [
        (_cancelling_junction, 20_000),
        (_long_conjugator, 20_000),
        (_shared_prefixes, 40_000),
        (_loop_merged_into_the_base, 5_000),
    ],
)
def test_product_power_and_fold_are_linear(case, n):
    ratio = _ratio(case, n)
    assert ratio < 16, ratio
