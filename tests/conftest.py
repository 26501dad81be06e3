"""Every test starts with fgkit's caches empty, as a new process does, so a
test that counts calls or patches a word operation sees every call, and
no patched verdict outlives its test."""

import sys

import pytest

import fgkit  # noqa: F401  (imports every module that may hold a cache)


def fgkit_caches() -> dict:
    """Every ``functools.lru_cache`` in fgkit, by qualified name."""
    return {
        f"{modname}.{attr}": value
        for modname, mod in list(sys.modules.items())
        if modname.startswith("fgkit.")
        for attr, value in vars(mod).items()
        if hasattr(value, "cache_clear")
    }


@pytest.fixture(autouse=True)
def _empty_caches():
    for cache in fgkit_caches().values():
        cache.cache_clear()
