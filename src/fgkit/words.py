"""Exact arithmetic on freely reduced words in finite-rank free groups.

A letter is a nonzero ``int``: ``+k`` is the k-th generator of an
:class:`Alphabet` (1-indexed), ``-k`` its inverse.  A :class:`Word` is an
immutable, freely reduced sequence of letters; the empty word is the group
identity.  All operations are pure and return new values, so words are safe
to share between threads.

A word is held as its letter code, a ``str`` with one character per
letter, the same for every alphabet: generator k is ``chr(2k)`` and its
inverse ``chr(2k + 1)``.  Code points order letters by generator index,
the generator before its inverse, so codes compare as the words do; the
code of the inverse word is the reversed code with the last bit of every
code point flipped.  Products, powers, inverses, cyclic reduction, the
least rotation and equality all run on codes, in C.  ``letters`` decodes
the code to signed ints on every access.

The text grammar is whitespace-separated atoms ``name`` or ``name^k`` with
``name`` a generator name, by the one rule :class:`Alphabet` checks, and
``k`` a signed ASCII decimal integer; the single token ``1`` denotes the
empty word.  Rendering always emits maximal runs, e.g. ``y1^3 y2^-2``.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterable, Iterator
from math import isqrt
from operator import attrgetter

__all__ = [
    "Alphabet",
    "Word",
    "CyclicWord",
    "WordSyntaxError",
    "AlphabetMismatch",
    "parse_word",
    "render_word",
    "canonical_class",
]


class WordSyntaxError(ValueError):
    """Raised when word text does not conform to the grammar."""


class AlphabetMismatch(ValueError):
    """Raised when combining values that live over different alphabets."""


# the end of each maximal run of one letter code: splitting at it puts the
# runs at even indices, each followed by its code, and scans without the
# per-letter backtracking state a match of the whole run keeps; DOTALL,
# since generator 5 is coded chr(10), a newline
_RUN_END_RE = re.compile(r"(?s)(?<=(.))(?!\1)")
# an integer is signed ASCII digits, in an exponent and in every integer the
# CLI reads (int() takes "_" and other digits); an atom is a caret-free name,
# then maybe a caret and an integer; the name is left to the alphabet, or
# else to _valid_names
_INTEGER = "[+-]?[0-9]+"
_ATOM_RE = re.compile(rf"(?P<name>[^^]+)(?:\^(?P<exp>{_INTEGER}))?\Z")
# parse_word refuses text that spells more letters than this before
# reduction, and FamilyParams an instance whose boundary image may; the
# boundary image at g = 256, l = 12 has 2,745,848
_MAX_PARSED_LETTERS = 1 << 22
# the inverse of the last generator is coded chr(2 * rank + 1), and chr
# stops at sys.maxunicode, so an alphabet has at most 557,055 generators
_MAX_RANK = (sys.maxunicode - 1) // 2


def _check_rank(rank: int) -> None:
    if rank > _MAX_RANK:
        raise ValueError(f"alphabet has {rank} generators; the limit is {_MAX_RANK}")


class _Value:
    """An immutable value given by the fields that ``_fields`` names, in
    the order its constructor takes them: equal to a value of the same
    class with equal fields, hashed, pickled and shown as those fields.
    Its constructor sets every slot with ``object.__setattr__``, or, in
    ``_Coded._wrap``, with the slot's own descriptor."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # ``_key(value)`` reads the fields in C, as a tuple even when there is one
        get = attrgetter(*cls._fields)
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda value: (get(value),))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return (type(self), self._key(self))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class Alphabet(_Value):
    """An ordered set of free generators, identified by name.

    Immutable; equal when the names are.

    >>> Alphabet.numbered(3, "y").names
    ('y1', 'y2', 'y3')
    """

    # _index maps name -> 1-based generator index, so that index() is one lookup
    __slots__ = ("names", "_index")
    _fields = ("names",)

    def __init__(self, names: Iterable[str]) -> None:
        # a tuple of its own, so equal names compare, hash and multiply alike
        # however they were passed, and no caller can change them
        names = tuple(names)
        if len(names) < 1:
            raise ValueError("alphabet needs at least one generator")
        _check_rank(len(names))
        index = {name: k for k, name in enumerate(names, 1)}
        if len(index) != len(names):
            raise ValueError("generator names must be distinct")
        if not _valid_names(names):
            # find the name to report
            for name in names:
                if not _valid_names((name,)):
                    raise ValueError(f"invalid generator name {name!r}")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_index", index)

    @classmethod
    def numbered(cls, rank: int, prefix: str = "y") -> "Alphabet":
        """Alphabet with generators ``prefix1 .. prefixN``."""
        _check_rank(rank)
        return cls(tuple(f"{prefix}{k}" for k in range(1, rank + 1)))

    @property
    def rank(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        """1-based generator index of ``name``; ``KeyError`` if it has none."""
        return self._index[name]

    def name(self, gen: int) -> str:
        return self.names[gen - 1]


def _valid_names(names: tuple[str, ...]) -> bool:
    """Whether every name is a generator name: an ASCII letter first, then
    ASCII letters, digits and underscores.  C string methods check all the
    names at once.  ``isalpha`` and ``isalnum`` also accept other letters
    and digits, hence ``isascii``; a regex would cost its compile at every
    import."""
    firsts = "".join([name[:1] for name in names])
    rest = "".join(names).replace("_", "a")
    return len(firsts) == len(names) and rest.isascii() and firsts.isalpha() and rest.isalnum()


def _letter_key(letter: int) -> int:
    # the code point of a letter: 2k for generator k, 2k + 1 for its
    # inverse, so code points order letters by generator, then sign
    return 2 * letter if letter > 0 else 1 - 2 * letter


def _free_reduce(letters: Iterable[int], rank: int) -> str:
    """Code of the free reduction of ``letters``, each checked to be a
    letter of ``rank``."""
    out: list[int] = []
    for s in letters:
        if not isinstance(s, int) or s == 0 or abs(s) > rank:
            raise ValueError(f"letter {s!r} out of range for rank {rank}")
        p = _letter_key(s)
        if out and out[-1] == p ^ 1:
            out.pop()
        else:
            out.append(p)
    return "".join(map(chr, out))


def _letter(char: str) -> int:
    """The signed letter whose code is ``char``."""
    p = ord(char)
    return -(p >> 1) if p & 1 else p >> 1


class _Flip(dict):
    """``str.translate`` table from each code point to its inverse letter's:
    a dict lookup in C for the one-byte code points of alphabets of up to
    127 generators, a Python call for wider ones."""

    def __missing__(self, point: int) -> int:
        return point ^ 1


_FLIP = _Flip({point: point ^ 1 for point in range(256)})


def _inverse(code: str) -> str:
    """Code of the inverse word: reversed, each code point's last bit flipped."""
    return code[::-1].translate(_FLIP)


def _cancelled(left: str, end: int, right: str, start: int, limit: int) -> int:
    """Number of letters, at most ``limit``, that cancel where the reduced
    codes ``left[:end]`` and ``right[start:]`` meet: the length of the
    longest suffix of the one that is the inverse code of a prefix of the
    other.

    Nothing cancels unless the junction pair ``left[end - 1]``,
    ``right[start]`` does, and that is rare in a product, so
    ``Word.__mul__`` and ``Homomorphism.apply`` test the pair themselves
    and call this only when it cancels.  Blocks of doubling size are
    compared while they cancel, then halving ones, so k cancelled letters
    cost O(log k) Python steps and O(k) characters of C work, and nothing
    else is copied."""
    if not limit or ord(left[end - 1]) ^ 1 != ord(right[start]):
        return 0
    k, step = 1, 2
    # a block cancels when it is the inverse code of the block it meets
    while k + step <= limit:
        block = right[start + k : start + k + step]
        if left[end - k - step : end - k] != block[::-1].translate(_FLIP):
            break
        k += step
        step *= 2
    # the first letter that does not cancel, or the limit, lies in [k, k + step)
    while step > 1:
        step //= 2
        if k + step <= limit:
            block = right[start + k : start + k + step]
            if left[end - k - step : end - k] == block[::-1].translate(_FLIP):
                k += step
    return k


def _conj_len(code: str) -> int:
    """Length of c in the reduced ``code`` = c u c^-1 with u cyclically
    reduced: the letters that cancel between the code and itself.  The
    code is reduced, so at least one letter of an odd-length code and two
    of an even-length one stay in u."""
    return _cancelled(code, len(code), code, 0, len(code) // 2)


class _Coded(_Value):
    """A value held as an alphabet and a letter code, rendered in the text
    grammar.  A subclass says what the code is; ``_wrap`` trusts its
    caller to pass such a code."""

    __slots__ = ("alphabet", "code")
    _fields = ("alphabet", "code")

    @classmethod
    def _wrap(cls, alphabet: Alphabet, code: str):
        # every product, power, image and class is made here, so the slots
        # are set through their descriptors, skipping object.__setattr__'s
        # attribute lookup
        value = object.__new__(cls)
        _set_alphabet(value, alphabet)
        _set_code(value, code)
        return value

    def __reduce__(self):
        return (type(self)._wrap, (self.alphabet, self.code))

    @property
    def letters(self) -> tuple[int, ...]:
        """The signed letters, decoded from the code on every access."""
        return tuple(map(_letter, self.code))

    def __len__(self) -> int:
        return len(self.code)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({render_word(self)!r})"

    def __str__(self) -> str:
        return render_word(self)

    def is_identity(self) -> bool:
        return not self.code


_set_alphabet, _set_code = _Coded.alphabet.__set__, _Coded.code.__set__


class Word(_Coded):
    """A freely reduced word.  Construction reduces its argument.

    >>> ab = Alphabet.numbered(2, "a")
    >>> str(Word(ab, (1, 2, -2, 1)))
    'a1^2'
    >>> Word(ab, (1, -1)).is_identity()
    True
    """

    __slots__ = ()

    def __init__(self, alphabet: Alphabet, letters: Iterable[int] = ()) -> None:
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "code", _free_reduce(letters, alphabet.rank))

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        alphabet = self.alphabet
        if other.alphabet is not alphabet and other.alphabet != alphabet:
            raise AlphabetMismatch("cannot concatenate words over different alphabets")
        left, right = self.code, other.code
        # both factors are reduced, so cancellation stops at the junction,
        # and none happens unless its pair of letters cancels
        if left and right and ord(left[-1]) ^ 1 == ord(right[0]):
            k = _cancelled(left, len(left), right, 0, min(len(left), len(right)))
            left, right = left[: len(left) - k], right[k:]
        return Word._wrap(alphabet, left + right)

    def inverse(self) -> "Word":
        return Word._wrap(self.alphabet, _inverse(self.code))

    def __pow__(self, n: int) -> "Word":
        """n-fold reduced product; negative n inverts.

        >>> ab = Alphabet.numbered(1, "a")
        >>> str(Word(ab, (1,)) ** 3)
        'a1^3'
        """
        if n == 0:
            return Word._wrap(self.alphabet, "")
        # w^n for n < 0 is (w^-1)^-n
        code = self.code if n > 0 else _inverse(self.code)
        n, size = abs(n), len(code)
        # the code is c u c^-1 with u cyclically reduced, so w^n = c u^n c^-1
        # and the n copies of u concatenate with no cancellation
        i = _conj_len(code)
        return Word._wrap(self.alphabet, code[:i] + code[i : size - i] * n + code[size - i :])

    def cyclic_reduce(self) -> tuple["Word", "Word"]:
        """Split ``w`` as ``conj * core * conj^-1`` with ``core`` cyclically reduced.

        >>> ab = Alphabet.numbered(2, "a")
        >>> core, conj = Word(ab, (1, 2, -1)).cyclic_reduce()
        >>> core.letters, conj.letters
        ((2,), (1,))
        """
        code = self.code
        i = _conj_len(code)
        return (
            Word._wrap(self.alphabet, code[i : len(code) - i]),
            Word._wrap(self.alphabet, code[:i]),
        )


class CyclicWord(_Coded):
    """The conjugacy class of a cyclically reduced word.

    Two cyclically reduced words are conjugate exactly when one is a
    rotation of the other, so a class is held as the code of the least
    rotation of its words, and equality and hashing compare those codes.
    Orientation is respected: a class and its inverse class compare
    unequal unless they happen to coincide.  ``letters`` are those of the
    least rotation, and ``_wrap`` must be given a least rotation.

    >>> ab = Alphabet.numbered(2, "a")
    >>> CyclicWord(ab, (2, 2, 1)).letters
    (1, 2, 2)
    """

    __slots__ = ()

    def __init__(self, alphabet: Alphabet, letters: Iterable[int] = ()) -> None:
        letters = tuple(letters)
        code = _free_reduce(letters, alphabet.rank)
        if len(code) != len(letters):
            raise ValueError("letters are not freely reduced")
        if len(code) >= 2 and ord(code[0]) ^ 1 == ord(code[-1]):
            raise ValueError("word is not cyclically reduced")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "code", _least_rotation(code))

    def inverse_class(self) -> "CyclicWord":
        return CyclicWord._wrap(self.alphabet, _least_rotation(_inverse(self.code)))


# min() compares one character object per letter, while `in` scans in C;
# so the code points 2 .. 2 + _LEAST_PROBES - 1, the six letters of a
# rank-3 word, are probed first, each probe one pass that stops at the
# first hit, and min() runs only when none of them occurs
_LEAST_PROBES = 6


def _least_letter(code: str) -> str:
    """The least character of the nonempty ``code``, in O(len(code)) for
    any alphabet."""
    for p in range(2, 2 + _LEAST_PROBES):
        if chr(p) in code:
            return chr(p)
    return min(code)


def _least_start(code: str, least: str) -> int:
    """Start of the least rotation of the cyclic word ``code`` whose least
    letter has code ``least``.

    Let r be the length of the longest cyclic run of m = ``least``: one
    pass finds the longest run, and a run that wraps round the end is the
    leading run of m plus the trailing one.  When the wrapping run is a
    longest run, the code is first rotated to start at it, so that every
    longest run lies whole in the code.  One ``str.split`` at m^r then
    cuts the code into its pieces, the letters between one longest run and
    the next, the piece after the last run joined to the piece before the
    first.

    A piece is nonempty and holds no m^r, and it cannot end in m, since
    that would make a run longer than r.  So a piece that is a proper
    prefix of another loses at its next letter to the m^r that follows it,
    and piece-by-piece string order is rotation order (see
    :func:`_least_rotation` for why a least rotation starts at a longest
    run).  The distinct pieces are ranked in string order as chr(2),
    chr(3), ..., and the least rotation of the rank code, whose least
    letter is chr(2), gives the index t of the winning run: the start is
    that of the first run, plus r * t, plus the lengths of the first t
    pieces.  The rank code has one letter per piece, at most
    size / (r + 1), so there are at most log2(size) levels, and all
    per-letter work is in C.  The levels are reduced in a loop and then
    unwound, so that one least rotation is one call.

    A level with more distinct pieces than the 2 * _MAX_RANK code points
    from chr(2) up, which takes over 2.2 million letters, writes rank k as
    two code points, chr(2 + k // b) then chr(2 + b + k % b), with b * b
    at least the number of ranks.  The second kind is larger than the
    first, so a least rotation of that rank code starts at the first of a
    pair, and pairs compare as their ranks do.
    """
    # (size, start of the first run, r, pieces, rank width) of each level
    levels: list[tuple[int, int, int, list[str], int]] = []
    while True:
        size = len(code)
        r = _longest_run(code, least)
        if r == size:
            t = 0  # one letter repeated
            break
        shift = 0
        if code[0] == least == code[-1]:
            trail = size - len(code.rstrip(least))
            wrap = size - len(code.lstrip(least)) + trail
            if wrap >= r:
                r, shift = wrap, size - trail
                code = code[shift:] + code[:shift]
        parts = code.split(least * r)
        first = (shift + len(parts[0])) % size
        if len(parts) == 2:
            t = first  # one longest run
            break
        pieces = parts[1:-1]
        pieces.append(parts[-1] + parts[0])
        ranked = sorted(set(pieces))
        if len(ranked) <= 2 * _MAX_RANK:
            width, ranks = 1, map(chr, range(2, len(ranked) + 2))
        else:
            b = isqrt(len(ranked) - 1) + 1
            width = 2
            ranks = (chr(2 + k // b) + chr(2 + b + k % b) for k in range(len(ranked)))
        levels.append((size, first, r, pieces, width))
        code, least = "".join(map(dict(zip(ranked, ranks)).__getitem__, pieces)), "\x02"
    for size, first, r, pieces, width in reversed(levels):
        t //= width
        t = (first + r * t + sum(map(len, pieces[:t]))) % size
    return t


def _longest_run(data: str, unit: str) -> int:
    """Length of the longest run of the character ``unit`` in ``data``,
    read as a string: a run does not wrap round the end.

    Each search for a run one longer starts past the last run found, so
    the characters are read O(1) times.  The run found at p ends at the
    first run end after p (``_RUN_END_RE``, whose lookbehind sees p)."""
    r, p = 0, data.find(unit)
    while p >= 0:
        end = _RUN_END_RE.search(data, p + 1).end()
        r = end - p
        p = data.find(unit * (r + 1), end)
    return r


def _least_rotation(code: str) -> str:
    """Lexicographically least rotation of a cyclic word's code.

    Let m be the least letter that occurs and r the length of its longest
    cyclic run.  A least rotation begins with m^r, since every word of r
    letters is at least m^r, and at the start of a maximal run of m, since
    inside a run fewer than r letters m follow.  So only the starts of the
    longest runs of m are candidates, and :func:`_least_start` ranks the
    pieces between them and reduces to the least rotation of the ranks.
    """
    if not code:
        return code
    i = _least_start(code, _least_letter(code))
    return code[i:] + code[:i]


def canonical_class(w: Word, oriented: bool = True) -> CyclicWord:
    """Deterministic representative of the conjugacy class of ``w``.

    With ``oriented=False`` the representative is shared by the class of
    ``w`` and the class of ``w^-1`` (the unoriented comparison used for
    boundary slopes).  Equal outputs iff the classes are equal.  The
    oriented class costs one least rotation, the unoriented one two.

    >>> ab = Alphabet.numbered(2, "a")
    >>> a, b = Word(ab, (1,)), Word(ab, (2,))
    >>> canonical_class(a * b) == canonical_class(b * a)
    True
    >>> canonical_class(a * b) == canonical_class((a * b).inverse())
    False
    >>> canonical_class(a * b, oriented=False) == canonical_class(
    ...     (a * b).inverse(), oriented=False)
    True
    """
    if not oriented:
        return _canonical_classes(w)[0]
    core, _ = w.cyclic_reduce()
    return CyclicWord._wrap(w.alphabet, _least_rotation(core.code))


def _canonical_classes(w: Word) -> tuple[CyclicWord, CyclicWord]:
    """``(canonical_class(w, oriented=False), canonical_class(w))`` from one
    least rotation of the core of ``w`` and one of its inverse, so that
    :func:`~fgkit.family.verify` gets both classes for two rotations.
    The unoriented choice is one comparison of two codes."""
    core, _ = w.cyclic_reduce()
    oriented = _least_rotation(core.code)
    # on a tie the two rotations are equal, so either is the answer
    unoriented = min(oriented, _least_rotation(_inverse(core.code)))
    return CyclicWord._wrap(w.alphabet, unoriented), CyclicWord._wrap(w.alphabet, oriented)


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Parse word text and return its free reduction.

    Raises :class:`WordSyntaxError` for a malformed atom, an unknown
    generator, or text whose atoms spell more than ``_MAX_PARSED_LETTERS``
    letters in total; that total is checked before any letter is built,
    and an exponent with too many digits is refused before it is converted.

    >>> y = Alphabet.numbered(3, "y")
    >>> parse_word("y3^3", y).letters
    (3, 3, 3)
    >>> parse_word("y1 y1^-1", y).is_identity()
    True
    >>> parse_word("1", y).is_identity()
    True
    """
    stripped = text.strip()
    if stripped == "1":
        return Word._wrap(alphabet, "")
    index = alphabet._index
    runs: list[tuple[int, int]] = []
    for atom in stripped.split():
        m = _ATOM_RE.match(atom)
        if m is None:
            raise WordSyntaxError(f"malformed atom {atom!r}")
        name = m.group("name")
        gen = index.get(name)
        if gen is None:
            # every name of an alphabet is valid, so a name it lacks is
            # unknown if it is valid and malformed if not
            if _valid_names((name,)):
                raise WordSyntaxError(f"unknown generator {name!r}")
            raise WordSyntaxError(f"malformed atom {atom!r}")
        exp_text = m.group("exp") or "1"
        # an exponent with more digits than the bound exceeds it alone;
        # checked before int(), which refuses over 4300 digits otherwise
        digits = len(exp_text.lstrip("+-0"))
        if digits > len(str(_MAX_PARSED_LETTERS)):
            raise WordSyntaxError(
                f"exponent of {name} has {digits} digits; "
                f"the limit is {_MAX_PARSED_LETTERS} letters"
            )
        exp = int(exp_text)
        # exponent 0 is legal and contributes nothing
        runs.append((gen if exp > 0 else -gen, abs(exp)))
    total = sum(n for _, n in runs)
    if total > _MAX_PARSED_LETTERS:
        raise WordSyntaxError(
            f"word spells {total} letters; the limit is {_MAX_PARSED_LETTERS}"
        )
    letters: list[int] = []
    for letter, n in runs:
        letters.extend([letter] * n)
    return Word(alphabet, letters)


def render_word(w: Word | CyclicWord) -> str:
    """Render ``w`` in the text grammar; the empty word renders as ``1``.
    A class renders as its least rotation.

    >>> y = Alphabet.numbered(3, "y")
    >>> render_word(parse_word("y3 y3 y3 y2^-1", y))
    'y3^3 y2^-1'
    """
    if w.is_identity():
        return "1"
    code, names = w.code, w.alphabet.names
    # the atom of each distinct run, built on its first occurrence
    atoms: dict[str, str] = {}
    slices = []
    # slices of at least 2^16 letters, each cut at the first run end past
    # that, are rendered in turn, so that the runs split out at once are
    # those of one slice, not of the whole word
    start = 0
    while start < len(code):
        end = _RUN_END_RE.search(code, min(start + (1 << 16), len(code))).end()
        pieces = _RUN_END_RE.split(code[start:end])
        parts = []
        for run, char in zip(pieces[::2], pieces[1::2]):
            atom = atoms.get(run)
            if atom is None:
                p, n = ord(char), len(run)
                name = names[(p >> 1) - 1]
                if p & 1:
                    atom = f"{name}^-{n}"
                else:
                    atom = name if n == 1 else f"{name}^{n}"
                atoms[run] = atom
            parts.append(atom)
        slices.append(" ".join(parts))
        start = end
    return " ".join(slices)
