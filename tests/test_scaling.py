"""Scaling guards: a primitive on an adversarial input of size n and 8n.

Linear work makes the time ratio about 8 and quadratic work about 64, so
each case asserts a ratio below 16, taking the best of 3 runs at each
size to damp a noisy neighbour.  A ratio, not a time, is checked, so the
bound does not depend on the machine's speed.

Calibration (2 CPUs shared with other jobs, CPython 3.11, best of 3):
with an end offset per part, ``apply`` gave ratios 8.4-8.7 on the
long-part cut and 8.6-9.7 on the covered cut below.  When ``apply`` cut
its last part in place, copying what was left at each cut, the same
sizes gave 20-38 and 24.  At n = 20,000 that copy is still too small a
share of the run to show reliably, hence n = 40,000.  On the same
machine, at 8n taking 0.1-0.4 s: ``canonical_class`` of the dense word
gave ratios 7.2-11.9 at n = 20,000, but 11.1 at n = 5,000, too close to
the bound; ``parse_word`` 7.8-8.5 at n = 5,000; ``render_word`` 7.9-9.2
at n = 20,000.  The bound is never raised to make a failure pass.
"""

import time

import pytest

from fgkit import (
    Alphabet,
    Homomorphism,
    Word,
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


def _best_of_3(case, n):
    fn, arg = case(n)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - start)
    return min(times)


@pytest.mark.parametrize("case", [_long_part_cut, _covered_cut])
def test_apply_is_linear(case):
    n = 40_000
    ratio = _best_of_3(case, 8 * n) / _best_of_3(case, n)
    assert ratio < 16, ratio


def _dense_class(n):
    # (y1 y3)^n y1 y2: n + 1 runs of y1, each a candidate start of the
    # least rotation
    return canonical_class, Word(Y, (1, 3) * n + (1, 2))


def _parse(n):
    return (lambda text: parse_word(text, Y)), " ".join(["y1 y2^-1 y3^2"] * n)


def _render(n):
    return render_word, Word(Y, (1, -2, 3, 3) * n)


@pytest.mark.parametrize("case,n", [(_dense_class, 20_000), (_parse, 5_000), (_render, 20_000)])
def test_word_primitive_is_linear(case, n):
    ratio = _best_of_3(case, 8 * n) / _best_of_3(case, n)
    assert ratio < 16, ratio
