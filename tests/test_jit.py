"""The optional numba backend gate (repro.engines._jit).

The module decides at import time; these tests reload it under forced
environments so both decisions are covered wherever the suite runs —
with or without numba installed.
"""

import importlib
import os
import sys
import warnings

import pytest

import repro.engines._jit as _jit

_SENTINEL = object()


def _probe(jit_env, numba_module):
    """Reload ``_jit`` under a forced env/numba combination.

    Returns a snapshot of the reloaded module's decision (reload hands
    back the *same* module object, so state must be captured before
    the restoring reload in the ``finally`` block re-executes it).
    """
    old_env = os.environ.get("REPRO_JIT")
    old_numba = sys.modules.get("numba", _SENTINEL)
    if jit_env is None:
        os.environ.pop("REPRO_JIT", None)
    else:
        os.environ["REPRO_JIT"] = jit_env
    if numba_module is not _SENTINEL:
        sys.modules["numba"] = numba_module
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            module = importlib.reload(_jit)

        def kernel(x):
            return x + 1

        compiled = module.compile_kernel(kernel)
        return {
            "requested": module.REQUESTED,
            "have_numba": module.HAVE_NUMBA,
            "enabled": module.ENABLED,
            "warnings": [str(w.message) for w in caught],
            "passthrough": compiled is kernel,
            "result": compiled(41),
        }
    finally:
        if old_env is None:
            os.environ.pop("REPRO_JIT", None)
        else:
            os.environ["REPRO_JIT"] = old_env
        if old_numba is _SENTINEL:
            sys.modules.pop("numba", None)
        else:
            sys.modules["numba"] = old_numba
        importlib.reload(_jit)


def test_requested_without_numba_warns_and_falls_back():
    # sys.modules[name] = None makes ``import numba`` raise ImportError.
    probe = _probe("1", None)
    assert probe["requested"]
    assert not probe["have_numba"]
    assert not probe["enabled"]
    assert any("falling back" in message for message in probe["warnings"])
    # Disabled -> compile_kernel is the identity, not a numba wrapper.
    assert probe["passthrough"]


def test_not_requested_is_silent_and_disabled():
    probe = _probe(None, None)
    assert not probe["requested"]
    assert not probe["enabled"]
    assert not probe["warnings"]
    assert probe["passthrough"]


@pytest.mark.skipif(not _jit.HAVE_NUMBA, reason="numba not installed")
def test_requested_with_numba_compiles():
    probe = _probe("1", _SENTINEL)
    assert probe["enabled"]
    assert not probe["warnings"]
    assert not probe["passthrough"]
    assert probe["result"] == 42
