"""fgkit: a small, exact verifier for a built-in family of surface-group
embeddings into the rank-3 free group F(y1, y2, y3).

:func:`verify` checks one instance (g, l) of the family.  It runs on exact
free-group arithmetic: freely reduced words and their conjugacy classes,
homomorphism application, Stallings subgroup graphs with injectivity
certificates, and integer Smith normal forms.
"""

from .abelian import INFINITE, exponent_vector, image_matrix, quotient_order, smith_normal_form
from .family import (
    DEFAULT_G_VALUES,
    DEFAULT_L_VALUES,
    FamilyParams,
    VerificationReport,
    boundary_word,
    check_shuffle_identities,
    domain_alphabet,
    embedding,
    generator_images_closed,
    generator_images_recursive,
    reference_quotient_order,
    shuffle_words,
    target_alphabet,
    verify,
)
from .homs import Homomorphism
from .stallings import InjectivityResult, SubgroupGraph, build_subgroup_graph, is_injective
from .words import (
    Alphabet,
    AlphabetMismatch,
    CyclicWord,
    Word,
    WordSyntaxError,
    canonical_class,
    parse_word,
    render_word,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "AlphabetMismatch",
    "CyclicWord",
    "DEFAULT_G_VALUES",
    "DEFAULT_L_VALUES",
    "FamilyParams",
    "Homomorphism",
    "INFINITE",
    "InjectivityResult",
    "SubgroupGraph",
    "VerificationReport",
    "Word",
    "WordSyntaxError",
    "boundary_word",
    "build_subgroup_graph",
    "canonical_class",
    "check_shuffle_identities",
    "domain_alphabet",
    "embedding",
    "exponent_vector",
    "generator_images_closed",
    "generator_images_recursive",
    "image_matrix",
    "is_injective",
    "parse_word",
    "quotient_order",
    "reference_quotient_order",
    "render_word",
    "shuffle_words",
    "smith_normal_form",
    "target_alphabet",
    "verify",
]
