"""Free-group homomorphisms given by generator images.

A homomorphism is determined by one image word per domain generator.
Application and composition reduce eagerly, so equal maps have equal
image tuples.  Everything here is immutable and parallel-safe.
"""

from __future__ import annotations

import random
from operator import neg
from typing import Iterable, Optional

from .words import Alphabet, AlphabetMismatch, Word, parse_word, render_word

__all__ = ["Homomorphism", "compose", "random_reduced_word"]


class Homomorphism:
    """A map between free groups, one reduced image word per generator."""

    __slots__ = ("domain", "codomain", "images")

    def __init__(
        self, domain: Alphabet, codomain: Alphabet, images: Iterable[Word]
    ) -> None:
        images = tuple(images)
        if len(images) != domain.rank:
            raise ValueError(
                f"expected {domain.rank} images, got {len(images)}"
            )
        for img in images:
            if img.alphabet != codomain:
                raise AlphabetMismatch("image word not over the codomain alphabet")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Homomorphism is immutable")

    def __reduce__(self):
        return (Homomorphism, (self.domain, self.codomain, self.images))

    @classmethod
    def identity(cls, alphabet: Alphabet) -> "Homomorphism":
        return cls(
            alphabet,
            alphabet,
            (Word._wrap(alphabet, (g,)) for g in range(1, alphabet.rank + 1)),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Homomorphism):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.codomain == other.codomain
            and self.images == other.images
        )

    def __hash__(self) -> int:
        return hash((self.domain, self.codomain, self.images))

    def __repr__(self) -> str:
        imgs = ", ".join(
            f"{self.domain.name(k + 1)}->{render_word(img)}"
            for k, img in enumerate(self.images)
        )
        return f"Homomorphism({imgs})"

    def apply(self, w: Word) -> Word:
        """Reduced image of ``w``; a group homomorphism by construction.

        Every image is reduced, and so is the image of each prefix of
        ``w``, so cancellation can only happen at the junction between
        the output so far and the next image (or its inverse): the same
        fact ``Word.__mul__`` uses.  Each letter of ``w`` costs one loop
        over the k letters cancelled at its junction, a ``del`` of those
        k and one C-level extend by the rest.  A letter is cancelled at
        most once after it is output, so the total work is O(letters in
        + letters out).  An inverse image is read backwards and negated
        as it is copied; no inverse is built.
        """
        if w.alphabet != self.domain:
            raise AlphabetMismatch("word is not over the domain alphabet")
        images = self.images
        out: list[int] = []
        for s in w.letters:
            img = images[abs(s) - 1].letters
            n, m, k = len(out), len(img), 0
            limit = min(n, m)
            if s > 0:
                while k < limit and out[n - 1 - k] == -img[k]:
                    k += 1
                del out[n - k :]
                out.extend(img[k:])
            else:
                # the inverse image starts -img[m-1], -img[m-2], ...
                while k < limit and out[n - 1 - k] == img[m - 1 - k]:
                    k += 1
                del out[n - k :]
                out.extend(map(neg, reversed(img[: m - k])))
        return Word._wrap(self.codomain, tuple(out))

    def to_json_dict(self) -> dict:
        return {
            "domain": list(self.domain.names),
            "codomain": list(self.codomain.names),
            "images": {
                self.domain.name(k + 1): render_word(img)
                for k, img in enumerate(self.images)
            },
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Homomorphism":
        domain = Alphabet(tuple(data["domain"]))
        codomain = Alphabet(tuple(data["codomain"]))
        images = [
            parse_word(data["images"][name], codomain) for name in domain.names
        ]
        return cls(domain, codomain, images)


def compose(outer: Homomorphism, inner: Homomorphism) -> Homomorphism:
    """Composite map applying ``inner`` first, then ``outer``:
    ``compose(outer, inner).apply(w) == outer.apply(inner.apply(w))``."""
    if inner.codomain != outer.domain:
        raise AlphabetMismatch(
            "inner codomain does not match outer domain"
        )
    return Homomorphism(
        inner.domain, outer.codomain, (outer.apply(img) for img in inner.images)
    )


def random_reduced_word(
    alphabet: Alphabet,
    length: int,
    seed: int,
    allowed: Optional[Iterable[int]] = None,
) -> Word:
    """Uniformly random reduced word of exactly the requested length.

    The walk is non-backtracking: the first letter is uniform over all
    2*rank signed letters, each later letter uniform over the 2*rank - 1
    letters that do not cancel.  Deterministic for a fixed seed.
    """
    rng = random.Random(seed)
    gens = tuple(sorted(allowed)) if allowed is not None else tuple(
        range(1, alphabet.rank + 1)
    )
    choices = [s for g in gens for s in (g, -g)]
    out: list[int] = []
    for _ in range(length):
        if out:
            opts = [s for s in choices if s != -out[-1]]
        else:
            opts = choices
        out.append(rng.choice(opts))
    return Word._wrap(alphabet, tuple(out))
