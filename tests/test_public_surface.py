"""The public surface of fgkit: what the package exports, what the
benchmark harness calls, and that importing the CLI needs only the
standard library and none of its slow-to-import modules.

The lists here are literal, so deleting or renaming a public name is a
deliberate edit of this file.
"""

import importlib
import subprocess
import sys
import types
from pathlib import Path

import pytest

import fgkit

SRC = Path(__file__).resolve().parents[1] / "src"

PACKAGE_ALL = [
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

SUBMODULES = ["abelian", "family", "homs", "stallings", "words"]

# (module, name): what perfbench/workloads.py calls and perfbench/tracer.py
# wraps, read from the module the harness reads it from
PERFBENCH_FUNCTIONS = [
    ("fgkit.words", "canonical_class"),
    ("fgkit.words", "render_word"),
    ("fgkit.stallings", "is_injective"),
    ("fgkit.stallings", "build_subgroup_graph"),
    ("fgkit.abelian", "image_matrix"),
    ("fgkit.abelian", "smith_normal_form"),
    ("fgkit.abelian", "quotient_order"),
    ("fgkit.family", "generator_images_recursive"),
    ("fgkit.family", "generator_images_closed"),
    ("fgkit.family", "check_shuffle_identities"),
    ("fgkit.family", "verify"),
    ("fgkit.family", "FamilyParams"),
    ("fgkit.family", "domain_alphabet"),
    ("fgkit.family", "target_alphabet"),
    ("fgkit.family", "boundary_word"),
    ("fgkit.homs", "Homomorphism"),
    ("fgkit.cli", "main"),
]

# (class, method): the tracer wraps what it finds in the class's own
# __dict__, so an inherited method would go untraced
PERFBENCH_METHODS = [
    ("fgkit.words", "Word", "__mul__"),
    ("fgkit.words", "Word", "__pow__"),
    ("fgkit.homs", "Homomorphism", "apply"),
    ("fgkit.stallings", "SubgroupGraph", "wedge"),
    ("fgkit.stallings", "SubgroupGraph", "fold"),
    ("fgkit.stallings", "SubgroupGraph", "rank"),
]


def test_package_all_is_frozen():
    assert fgkit.__all__ == PACKAGE_ALL
    for name in PACKAGE_ALL:
        assert hasattr(fgkit, name), name


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_resolves(name):
    module = importlib.import_module(f"fgkit.{name}")
    for attr in module.__all__:
        assert hasattr(module, attr), (name, attr)


@pytest.mark.parametrize("module, name", PERFBENCH_FUNCTIONS)
def test_perfbench_function_exists(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))


@pytest.mark.parametrize("module, cls, method", PERFBENCH_METHODS)
def test_perfbench_method_exists(module, cls, method):
    assert method in vars(getattr(importlib.import_module(module), cls))


@pytest.mark.parametrize("name", SUBMODULES)
def test_public_functions_are_plain_functions(name):
    # a cache wrapper is no plain function, so doctest discovery may skip
    # it; fgkit's caches sit on private helpers, each with a fixed size
    module = importlib.import_module(f"fgkit.{name}")
    for attr in module.__all__:
        value = getattr(module, attr)
        if callable(value) and not isinstance(value, type):
            assert isinstance(value, types.FunctionType), (name, attr)
            assert not hasattr(value, "cache_clear"), (name, attr)


def test_wedge_is_a_classmethod():
    assert isinstance(vars(fgkit.SubgroupGraph)["wedge"], classmethod)


# slow to import and not needed: dataclasses alone pulls in inspect and
# ast; the CLI parses its options from its own table, and argparse would
# cost every fgkit process a few ms to import, gettext with it, and locale
# at its first message
SLOW_IMPORTS = {"dataclasses", "inspect", "ast", "argparse", "gettext", "locale"}

# every standard library module fgkit imports at import time; importing
# fgkit.cli after these must add no other top-level module (typing, say,
# or csv, which only --format csv imports)
FGKIT_STDLIB_IMPORTS = [
    "__future__", "array", "bisect", "collections.abc", "functools", "io",
    "itertools", "json", "math", "os", "re", "sys", "time", "types",
]


def test_cli_imports_only_the_standard_library():
    # -S skips site, so nothing from site-packages is imported on the side
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        f"import {', '.join(FGKIT_STDLIB_IMPORTS)}\n"
        "before = {name.partition('.')[0] for name in sys.modules}\n"
        "import fgkit.cli\n"
        "tops = {name.partition('.')[0] for name in sys.modules}\n"
        "print(' '.join(sorted(tops - set(sys.stdlib_module_names))))\n"
        f"print(' '.join(sorted(tops & {SLOW_IMPORTS!r})))\n"
        "print(' '.join(sorted(tops - before)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    outside, slow, added = done.stdout.split("\n")[:3]
    assert set(outside.split()) - {"__main__"} == {"fgkit"}
    assert slow.split() == []
    assert added.split() == ["fgkit"]
