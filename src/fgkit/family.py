"""A parametric family of embeddings of surface groups into the rank-3 free group.

The family is indexed by an even genus ``g >= 2`` and a winding parameter
``l >= 3``.  The domain is the free group on x1..x_{2g} (the fundamental
group of a genus-g surface with one boundary circle); the codomain is the
free group on y1, y2, y3.  Generator images are defined by a four-step
recursion seeded with ``x1 -> y3^3``; closed forms for the images exist in
terms of a pair of shuffle words and are re-derived here as checked claims,
never assumed.

:func:`verify` runs the full battery for one parameter pair: closed-form
agreement (for every g, from seven equalities), the telescoping shuffle
identities (for all exponents, from three equalities), first/last-letter
structure of images of single-parity words, an injectivity certificate
via Stallings folding, the order of the abelianized cokernel, and the
canonical conjugacy class of the image of the surface boundary word.
Mathematical failures are recorded in the report, never raised.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from functools import lru_cache

from .abelian import INFINITE, _InfiniteType, image_matrix, quotient_order
from .homs import Homomorphism
from .stallings import InjectivityResult, SubgroupGraph, _image_graph
from .words import (
    _MAX_PARSED_LETTERS,
    Alphabet,
    CyclicWord,
    Word,
    _canonical_classes,
    _Value,
    render_word,
)

__all__ = [
    "DEFAULT_G_VALUES",
    "DEFAULT_L_VALUES",
    "FamilyParams",
    "VerificationReport",
    "target_alphabet",
    "domain_alphabet",
    "shuffle_words",
    "generator_images_recursive",
    "generator_images_closed",
    "embedding",
    "check_shuffle_identities",
    "first_shuffle_failure",
    "boundary_word",
    "class_distinctness",
    "reference_quotient_order",
    "verify",
]

DEFAULT_G_VALUES = (2, 4, 6, 8)
DEFAULT_L_VALUES = tuple(range(3, 13))

REPORT_SCHEMA = "fgkit-report/1"


_TARGET = Alphabet(("y1", "y2", "y3"))

# lru_cache sizes, the only state fgkit keeps between calls.  A sweep's
# --l-list names at most 4,096 values, so a per-l value (a verdict or an
# order) is computed once per sweep (tests/test_cli.py::test_per_l_caches_hold_a_whole_l_list);
# its jobs run genus by genus, so a genus's alphabet and boundary word are
# needed only while its genus runs.
_PER_L = 4096
_PER_G = 2


def target_alphabet() -> Alphabet:
    """The rank-3 codomain alphabet y1, y2, y3: one object on every call,
    so the family's words share it and the alphabet checks of products,
    homomorphisms and folds succeed on identity, without comparing names."""
    return _TARGET


def domain_alphabet(g: int) -> Alphabet:
    """The rank-2g domain alphabet x1 .. x_{2g}, for a genus the family
    admits.  Calls for one g in a row return one object, the alphabet of
    :func:`boundary_word` at g, so :func:`embedding` and the boundary word
    share it and ``apply``'s alphabet check succeeds on identity."""
    _check_genus(g)
    return _genus_words(g)[0]


class FamilyParams(_Value):
    """One instance of the family: genus g (even, >= 2), winding l (>= 3).

    Immutable; equal when g and l are.  An instance whose boundary image
    may spell more than ``words._MAX_PARSED_LETTERS`` letters (see
    :func:`_boundary_letters_bound`) is refused before any word is built.
    """

    __slots__ = ("g", "l")
    _fields = ("g", "l")

    def __init__(self, g: int, l: int) -> None:
        _check_genus(g)
        _check_winding(l)
        bound = _boundary_letters_bound(g, l)
        if bound > _MAX_PARSED_LETTERS:
            raise ValueError(
                f"g={g}, l={l}: the boundary image may have {bound} letters; "
                f"the limit is {_MAX_PARSED_LETTERS}"
            )
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "l", l)


def _boundary_letters_bound(g: int, l: int) -> int:
    """Upper bound on the letters of the boundary image at (g, l), before
    reduction, in O(1).

    x1 has 3 letters, and step k of the recursion wraps x_(k-1) in
    ``left * x_(k-1) * right`` (:func:`generator_images_recursive`), which
    adds l + 5 letters for odd k and 4 for even k.  So |x_(2m+1)| <=
    3 + m(l + 9) and |x_(2m+2)| <= |x_(2m+1)| + 4, and the boundary word,
    which spells each x_k once and its inverse once, maps to at most
    2 * (10g + (l + 9) g (g - 1)) letters.
    """
    return 2 * (10 * g + (l + 9) * g * (g - 1))


def _check_genus(g: int) -> None:
    """The family's genus rule, shared by :class:`FamilyParams`,
    :func:`domain_alphabet` and :func:`boundary_word`."""
    if not isinstance(g, int):
        raise TypeError(f"g must be an int, not {type(g).__name__}")
    if g < 2 or g % 2 != 0:
        raise ValueError("g must be even and >= 2")


def _check_winding(l: int) -> None:
    """The family's winding rule, shared by :class:`FamilyParams` and
    :func:`shuffle_words`."""
    if not isinstance(l, int):
        raise TypeError(f"l must be an int, not {type(l).__name__}")
    if l < 3:
        raise ValueError("l must be >= 3")


def shuffle_words(l: int) -> tuple[Word, Word]:
    """The word pair (y1 y2 y3, y3^-3 y2^-l y1^3) driving the recursion.

    Conjugation blocks built from this pair telescope, which is what the
    shuffle identities and the closed image forms express.  Raises
    ``ValueError`` for l < 3, and for an l whose v, of l + 6 letters,
    would spell more than ``words._MAX_PARSED_LETTERS``; that is refused
    before any letter is built.
    """
    _check_winding(l)
    if l + 6 > _MAX_PARSED_LETTERS:
        raise ValueError(
            f"l={l}: the shuffle word v has {l + 6} letters; "
            f"the limit is {_MAX_PARSED_LETTERS}"
        )
    y = target_alphabet()
    u = Word(y, (1, 2, 3))
    v = Word(y, (-3, -3, -3) + (-2,) * l + (1, 1, 1))
    return u, v


# the l-free words of the recursion and the closed forms, built once
_Y1, _Y2, _Y3 = (Word(_TARGET, (k,)) for k in (1, 2, 3))
_Y1_3, _Y3_3 = _Y1 ** 3, _Y3 ** 3
_Y1_INV, _Y1_3_INV, _Y3_3_INV = _Y1.inverse(), _Y1_3.inverse(), _Y3_3.inverse()
_Y2_Y3 = _Y2 * _Y3
_Y2_Y3_INV = _Y2_Y3.inverse()


def _recursion(l: int) -> tuple[Word, tuple[tuple[Word, Word], ...]]:
    """The recursion's seed x1 -> y3^3 and its (left, right) sides for
    k % 4 == 0, 1, 2, 3: the one table that
    :func:`generator_images_recursive` builds from and
    :func:`_closed_form_certificate` checks."""
    y2_l = _Y2 ** l
    return _Y3_3, (
        (_Y1_INV, _Y1_3_INV),
        (_Y2_Y3_INV, y2_l * _Y3_3),
        (_Y1_3, _Y1),
        (_Y3_3_INV * y2_l.inverse(), _Y2_Y3),
    )


def generator_images_recursive(params: FamilyParams) -> list[Word]:
    """Images of x1 .. x_{2g} by the defining four-step recursion: x1 ->
    y3^3, and x_k -> left * x_(k-1) * right with the pair chosen by k % 4."""
    seed, sides = _recursion(params.l)
    images = [seed]
    for k in range(2, 2 * params.g + 1):
        left, right = sides[k % 4]
        images.append(left * images[-1] * right)
    return images


def _closed_form_words(l: int) -> tuple:
    """The words the closed forms are built from: u, v, a = u^-1 v,
    b = u v^-1, mid_0 = y3^3, and the (left, right) pairs (y1^3, y1) and
    (y1^-1, y1^-3) of the steps k % 4 == 2 and k % 4 == 0."""
    u, v = shuffle_words(l)
    return (
        u, v, u.inverse() * v, u * v.inverse(), _Y3_3,
        (_Y1_3, _Y1), (_Y1_INV, _Y1_3_INV),
    )


def generator_images_closed(params: FamilyParams) -> list[Word]:
    """Images of x1 .. x_{2g} built directly from the closed forms:
    x_(4i+1) = mid_i = a^i y3^3 b^i, x_(4i+2) = y1^3 mid_i y1,
    x_(4i+3) = v mid_i u and x_(4i+4) = y1^-1 v mid_i u y1^-3.

    Agrees with :func:`generator_images_recursive` entrywise for every
    even g when :func:`_closed_form_certificate` holds at l, which
    ``verify`` checks.
    """
    u, v, a, b, mid0, (l2, r2), (l0, r0) = _closed_form_words(params.l)
    images = []
    # g is even, so x_(4i+1) .. x_(4i+4) for i < g/2 are all 2g images
    for i in range(params.g // 2):
        mid = a ** i * mid0 * b ** i
        vmu = v * mid * u
        images += (mid, l2 * mid * r2, vmu, l0 * vmu * r0)
    return images


@lru_cache(maxsize=_PER_L)
def _closed_form_certificate(l: int) -> bool:
    """A proof that the recursive and the closed-form images agree at l
    for every even g (README, "What `closed_form_ok` proves").

    With x_k = L_r x_(k-1) R_r for k % 4 == r, seven equalities on the
    recursion's table and the closed forms' words carry the induction on
    i: x1 = y3^3 = mid_0; the steps r = 2 and r = 0 are y1^3 _ y1 and
    y1^-1 _ y1^-3 in both; L3 L2 = v and R2 R3 = u, so x_(4i+3) =
    v mid_i u; and L1 L0 v = a and u R0 R1 = b, so x_(4i+5) = a mid_i b =
    mid_(i+1).
    """
    seed, ((L0, R0), (L1, R1), (L2, R2), (L3, R3)) = _recursion(l)
    u, v, a, b, mid0, step2, step0 = _closed_form_words(l)
    return (
        seed == mid0
        and (L2, R2) == step2
        and (L0, R0) == step0
        and L3 * L2 == v
        and R2 * R3 == u
        and L1 * L0 * v == a
        and u * R0 * R1 == b
    )


def embedding(params: FamilyParams) -> Homomorphism:
    """The family homomorphism, with recursively built images."""
    return Homomorphism(
        domain_alphabet(params.g), target_alphabet(), generator_images_recursive(params)
    )


def first_shuffle_failure(
    i_max: int, j_max: int, l: int
) -> tuple[str, int, int] | None:
    """First (branch, i, j) where a shuffle identity fails, or None.

    The four branches state how mixed conjugation blocks telescope:
    ``b^j u a^i`` collapses to ``v a^(i-j-1)`` when i > j and to
    ``b^(j-i) u`` otherwise, and ``b^j v a^i`` collapses to ``v a^(i-j)``
    when i >= j and to ``b^(j-i-1) u`` otherwise, where a = u^-1 v and
    b = u v^-1.  Raises ``ValueError`` for a negative bound or for an l
    that :func:`shuffle_words` refuses.

    Three equalities imply every branch for all i, j >= 0: ``b v = u``,
    ``u a = v`` and ``b u a = u``.  By induction ``b^j u a^j = u``; hence
    ``b^j u a^i`` is ``u a^(i-j) = v a^(i-j-1)`` when i > j and
    ``b^(j-i) u`` when i <= j, and ``b^j v a^i = b^j u a^(i+1)`` gives the
    two second branches.  They are the branches ``second:i<j`` at (0, 1),
    ``first:i>j`` at (1, 0) and ``first:i<=j`` at (1, 1), and each is
    checked, in that (row) order, only when its point is within the
    bounds.  So None proves every branch for all i, j >= 0 when both
    bounds are at least 1, and otherwise on the grid up to the bounds:
    with j_max = 0 that grid needs only ``u a = v``, and with i_max = 0
    only ``b v = u``.  The identities hold in any group, so what this
    really tests is that :class:`Word` multiplication realises them on
    these words.
    """
    if i_max < 0 or j_max < 0:
        raise ValueError("bounds must be >= 0")
    u, v, a, b = _closed_form_words(l)[:4]
    if j_max >= 1 and b * v != u:
        return ("second:i<j", 0, 1)
    if i_max >= 1 and u * a != v:
        return ("first:i>j", 1, 0)
    if i_max >= 1 and j_max >= 1 and b * u * a != u:
        return ("first:i<=j", 1, 1)
    return None


def check_shuffle_identities(i_max: int, j_max: int, l: int) -> bool:
    """True iff all four telescoping branches hold.

    With both bounds at least 1, True proves them for every i, j >= 0
    (see :func:`first_shuffle_failure`); otherwise for i <= i_max and
    j <= j_max.
    """
    return first_shuffle_failure(i_max, j_max, l) is None


@lru_cache(maxsize=_PER_L)
def _shuffle_identities_hold(l: int) -> bool:
    """``check_shuffle_identities(g, g, l)`` for every g >= 1: with both
    bounds at least 1 the check, and so the verdict, is the same."""
    return check_shuffle_identities(1, 1, l)


def boundary_word(g: int) -> Word:
    """The length-4g word spelling the surface boundary circle.

    Four blocks: odd generator indices ascending with alternating signs
    starting +, the same with all signs flipped, even indices descending
    with alternating signs starting -, the same flipped.  Every generator
    occurs exactly once with each sign, so the word abelianizes to zero.
    Words are immutable, and calls for one g in a row return one word,
    spelled over :func:`domain_alphabet` at g.
    """
    _check_genus(g)
    return _genus_words(g)[1]


@lru_cache(maxsize=_PER_G)
def _genus_words(g: int) -> tuple[Alphabet, Word]:
    """The domain alphabet at g and the boundary word over it, kept as one
    pair so the two are built, and dropped, together.

    The boundary word's code is written directly (README, "Letter codes").

    Each block of g letters alternates between two progressions of code
    points, step 8 since its indices step by 4 between letters of one
    sign: x_k is 2k and x_k^-1 is 2k + 1.  The blocks are x1 x3^-1 x5
    x7^-1 ..., then x1^-1 x3 ..., then x_2g^-1 x_(2g-2) ..., then x_2g
    x_(2g-2)^-1 ....  The code is reduced as it stands.
    """
    alphabet = Alphabet.numbered(2 * g, "x")
    n = 4 * g
    blocks = (
        (range(2, n, 8), range(7, n, 8)),
        (range(3, n, 8), range(6, n, 8)),
        (range(n + 1, 8, -8), range(n - 4, 0, -8)),
        (range(n, 0, -8), range(n - 3, 0, -8)),
    )
    points = [0] * n
    for b, (even, odd) in enumerate(blocks):
        points[b * g : (b + 1) * g : 2] = even
        points[b * g + 1 : (b + 1) * g : 2] = odd
    return alphabet, Word._wrap(alphabet, "".join(map(chr, points)))


def class_distinctness(classes: Sequence[CyclicWord]) -> tuple[bool, bool]:
    """(pairwise distinct, all nontrivial) for a list of conjugacy classes.

    The one distinctness check; the per-genus rows of ``fgkit sweep``
    call it on the classes of :func:`verify` reports.
    """
    distinct = len(set(classes)) == len(classes)
    return distinct, not any(c.is_identity() for c in classes)


def reference_quotient_order(l: int) -> int:
    """Reference closed form, 4l + 4, for the abelianized cokernel order.

    The verifier recomputes the order mechanically and reports agreement
    with this value; a mismatch is a warning, not a failure, since only
    finiteness is load-bearing.
    """
    return 4 * l + 4


@lru_cache(maxsize=_PER_L)
def _cokernel_order(rows: tuple[tuple[int, ...], ...]) -> int | _InfiniteType:
    """``quotient_order(rows, 3)`` for the distinct exponent rows of an
    image matrix.  At one l every g has the same four rows, so this is kept
    once per l (tests/test_family.py::TestCaches::test_four_distinct_exponent_rows)."""
    return quotient_order(rows, 3)


def _derived_quotient_order(l: int) -> int:
    """The abelianized cokernel order derived for every g, 12(l - 1)
    (README, "Quick start (CLI)"); it equals
    :func:`reference_quotient_order` only at l = 2."""
    return 12 * (l - 1)


# -- first/last-letter structure ------------------------------------------

_EVEN_BOUNDARY_GENS = frozenset({1})
_ODD_BOUNDARY_GENS = frozenset({2, 3})


def _block_letters_hold(hom: Homomorphism, graph: SubgroupGraph) -> bool:
    """Exact first/last-letter certificate for single-parity words.

    ``graph`` must be the folded graph of the subgroup H generated by all
    images of ``hom``.  Each even-index image is a base loop of ``graph``,
    whose base labels the fold's kept path gives; every base edge the loop
    uses must carry y1^±1.  Odd-index images must likewise use only y2^±1
    and y3^±1 edges at the base.

    For an injective ``hom`` this holds exactly when every nontrivial word
    in the even-index generators alone maps to a word starting and ending
    in y1^±1, and every nontrivial word in the odd-index generators alone
    maps to one starting and ending in y2^±1 or y3^±1.  Sound: the folded
    graph of the even images immerses into ``graph`` base to base, so its
    base edges are among the ones the loops use, and a nontrivial reduced
    element of a subgroup starts and ends on base edges of its folded
    graph.  Exact: when both properties hold, the two parity graphs have
    disjoint base labels, so their wedge is already folded and, by
    uniqueness of the folded graph, is ``graph`` itself (Stallings 1983;
    Kapovich and Myasnikov 2002, sections 3-5).
    """
    parities = (
        (hom.images[1::2], _EVEN_BOUNDARY_GENS),
        (hom.images[0::2], _ODD_BOUNDARY_GENS),
    )
    for images, boundary in parities:
        for img in images:
            if any(abs(s) not in boundary for s in graph.base_labels(img)):
                return False
    return True


# -- the per-instance verdict ----------------------------------------------

# Every report field after params, in order: (name, table heading or None,
# width, gate), the gate the test hard_pass asks of its value, or None for a
# field that only informs.  The JSON, CSV, table and hard_pass read this, so
# a new field takes one entry here and one parameter of the constructor.
_CHECKS = (
    ("injective", "inj", 4, bool),
    ("image_rank", "rank", 5, None),
    ("closed_form_ok", "closed", 7, bool),
    ("shuffle_identities_ok", "ident", 6, bool),
    ("block_letter_ok", "block", 6, bool),
    ("quotient_order", "quotient", 9, lambda order: order is not INFINITE),
    ("reference_order", "ref", 5, None),
    ("reference_order_match", "match", 6, None),
    ("boundary_class", None, 0, lambda cls: not cls.is_identity()),
    ("boundary_class_oriented", None, 0, None),
)


class VerificationReport:
    """Structured outcome of one (g, l) verification run.

    Fields are plain attributes, set in the constructor's order; ``==``
    compares them all, and a report is unhashable.
    """

    def __init__(
        self,
        params: FamilyParams,
        injective: bool,
        image_rank: int,
        closed_form_ok: bool,
        shuffle_identities_ok: bool,
        block_letter_ok: bool,
        quotient_order: int | _InfiniteType,
        reference_order: int,
        reference_order_match: bool,
        boundary_class: CyclicWord,
        boundary_class_oriented: CyclicWord,
        warnings: list[str] | None = None,
        timings: dict[str, float] | None = None,
    ) -> None:
        self.params = params
        self.injective = injective
        self.image_rank = image_rank
        self.closed_form_ok = closed_form_ok
        self.shuffle_identities_ok = shuffle_identities_ok
        self.block_letter_ok = block_letter_ok
        self.quotient_order = quotient_order
        self.reference_order = reference_order
        self.reference_order_match = reference_order_match
        self.boundary_class = boundary_class
        self.boundary_class_oriented = boundary_class_oriented
        self.warnings = [] if warnings is None else warnings
        self.timings = {} if timings is None else timings

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"VerificationReport({fields})"

    @property
    def quotient_finite(self) -> bool:
        return self.quotient_order is not INFINITE

    @property
    def hard_pass(self) -> bool:
        """Whether every gated field passes its gate; the reference-order
        comparison is not gated (a mismatch only warns)."""
        return all(gate(getattr(self, name)) for name, _, _, gate in _CHECKS if gate)

    def to_json_dict(self, include_timings: bool = True) -> dict:
        data = {"schema": REPORT_SCHEMA, "params": {"g": self.params.g, "l": self.params.l}}
        for name, _, _, _ in _CHECKS:
            value = getattr(self, name)
            data[name] = "INFINITE" if value is INFINITE else value
        # each class's slot takes its render; the two classes are equal on
        # every instance checked, so render once then
        t0 = time.perf_counter()
        data["boundary_class"] = render_word(self.boundary_class)
        if self.boundary_class_oriented == self.boundary_class:
            data["boundary_class_oriented"] = data["boundary_class"]
        else:
            data["boundary_class_oriented"] = render_word(self.boundary_class_oriented)
        render = time.perf_counter() - t0
        data["hard_pass"] = self.hard_pass
        data["warnings"] = list(self.warnings)
        if include_timings:
            data["timings"] = {**self.timings, "render": render}
        return data


def verify(params: FamilyParams) -> VerificationReport:
    """Run every check for one parameter pair and return the report.

    Mathematical failures are recorded in the report fields; only invalid
    parameters raise.  The closed-form and shuffle verdicts and the
    quotient order depend on l alone and are computed once per l; the
    domain alphabet and boundary word once per g (README, "What `verify`
    keeps between calls").
    """
    timings: dict[str, float] = {}

    def timed(name: str, fn):
        t0 = time.perf_counter()
        result = fn()
        timings[name] = time.perf_counter() - t0
        return result

    images_rec = timed("images_recursive", lambda: generator_images_recursive(params))
    closed_form_ok = timed("images_closed", lambda: _closed_form_certificate(params.l))
    hom = Homomorphism(domain_alphabet(params.g), target_alphabet(), images_rec)
    shuffle_ok = timed("shuffle_identities", lambda: _shuffle_identities_hold(params.l))

    def injectivity() -> tuple[SubgroupGraph, InjectivityResult]:
        graph = _image_graph(hom)
        return graph, InjectivityResult.from_graph(graph, hom.domain.rank)

    graph, inj = timed("injectivity", injectivity)
    # the certificate is exact only for injective maps; injectivity also
    # rules out single-parity words with trivial images
    block_ok = timed(
        "block_letters", lambda: inj.verdict and _block_letters_hold(hom, graph)
    )
    del graph  # release the folded graph before the later stages
    order = timed(
        "quotient_order",
        lambda: _cokernel_order(tuple(dict.fromkeys(map(tuple, image_matrix(hom))))),
    )
    reference = reference_quotient_order(params.l)
    order_match = order == reference

    cls_unoriented, cls_oriented = timed(
        "boundary_class",
        lambda: _canonical_classes(hom.apply(boundary_word(params.g))),
    )

    warnings = []
    if order is INFINITE:
        warnings.append("abelianized cokernel is infinite")
    elif not order_match:
        warnings.append(
            f"quotient order {order} != reference closed form {reference}"
        )

    return VerificationReport(
        params=params,
        injective=inj.verdict,
        image_rank=inj.image_rank,
        closed_form_ok=closed_form_ok,
        shuffle_identities_ok=shuffle_ok,
        block_letter_ok=block_ok,
        quotient_order=order,
        reference_order=reference,
        reference_order_match=order_match,
        boundary_class=cls_unoriented,
        boundary_class_oriented=cls_oriented,
        warnings=warnings,
        timings=timings,
    )
