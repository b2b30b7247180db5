"""Test isolation for facevol's memos.

A memo keeps an error as well as a result, so an artefact that a
monkeypatched fault broke would otherwise fail every later test that reads
it, in whatever file runs next.
"""

import sys

import pytest


def _clear_facevol_memos() -> None:
    for name, module in list(sys.modules.items()):
        if name == "facevol" or name.startswith("facevol."):
            for value in list(vars(module).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


@pytest.fixture(autouse=True)
def clear_memos(request):
    """Empty every facevol memo before and after each test that uses
    monkeypatch. Such a test may call the fixture's value to empty them in
    between too."""
    patched = "monkeypatch" in request.fixturenames
    if patched:
        _clear_facevol_memos()
    yield _clear_facevol_memos
    if patched:
        _clear_facevol_memos()
