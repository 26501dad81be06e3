"""Free-group homomorphisms given by generator images.

A homomorphism is determined by one image word per domain generator.
Images are reduced words, so equal maps have equal image tuples, and
application returns a reduced word.  Everything here is immutable and
parallel-safe.
"""

from __future__ import annotations

from collections.abc import Iterable

from .words import Alphabet, AlphabetMismatch, Word, render_word
from .words import _cancelled, _inverse, _letter_key, _Value

__all__ = ["Homomorphism"]


class Homomorphism(_Value):
    """A map between free groups, one reduced image word per generator.

    Immutable; equal when the domains, codomains and images are."""

    __slots__ = ("domain", "codomain", "images", "_codes")
    _fields = ("domain", "codomain", "images")

    def __init__(
        self, domain: Alphabet, codomain: Alphabet, images: Iterable[Word]
    ) -> None:
        images = tuple(images)
        if len(images) != domain.rank:
            raise ValueError(
                f"expected {domain.rank} images, got {len(images)}"
            )
        for img in images:
            if img.alphabet is not codomain and img.alphabet != codomain:
                raise AlphabetMismatch("image word not over the codomain alphabet")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "images", images)
        # letter code -> code of its image; an inverse letter's is the
        # inverse image's code, built here once
        codes = {}
        for k, img in enumerate(images, 1):
            codes[chr(_letter_key(k))] = img.code
            codes[chr(_letter_key(-k))] = _inverse(img.code)
        object.__setattr__(self, "_codes", codes)

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
        the output so far and the next image code (or the inverse image
        code, built once per homomorphism): the same fact
        ``Word.__mul__`` uses.  The output is a list of parts, pieces of
        image codes, each kept whole with the offset where it is cut, and
        one ``join`` at the end, which makes each cut once.  A junction
        pops each part that cancels whole, moves back the end of the last
        part it reaches, and appends what is left of the image.  Each
        letter of ``w`` costs O(log k) Python steps for the k letters that
        cancel at its junction, one more for each part that cancels whole,
        and C work linear in its image, so the total work is
        O(letters in + letters out), however often a long part is cut.
        One offset for the last part alone would not do: a part that is
        cut, then covered by a new part, would be copied at each cover.
        """
        if w.alphabet is not self.domain and w.alphabet != self.domain:
            raise AlphabetMismatch("word is not over the domain alphabet")
        codes = self._codes
        # the output so far is parts[0][:ends[0]] + parts[1][:ends[1]] + ...
        parts: list[str] = []
        ends: list[int] = []
        for c in w.code:
            img, start = codes[c], 0
            # the junction may cancel several parts whole, and cancels
            # nothing unless its pair of letters does
            while parts and start < len(img):
                last, n = parts[-1], ends[-1]
                if ord(last[n - 1]) ^ 1 != ord(img[start]):
                    break
                k = _cancelled(last, n, img, start, min(n, len(img) - start))
                start += k
                if k < n:
                    ends[-1] = n - k
                    break
                parts.pop()
                ends.pop()
            if start < len(img):
                parts.append(img[start:])
                ends.append(len(img) - start)
        return Word._wrap(self.codomain, "".join([p[:n] for p, n in zip(parts, ends)]))
