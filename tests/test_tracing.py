"""The benchmark's traced run must find every engine function it wraps."""

import importlib

from conftest import load_perfbench


def test_traced_names_resolve_in_their_own_modules():
    tracing = load_perfbench("tracing")
    missing = []
    for layer, names in tracing.LAYERS.items():
        importlib.import_module(f"staircase.{layer}")
        for dotted in names:
            try:
                _, _, original = tracing._resolve(layer, dotted)
            except (KeyError, AttributeError):
                missing.append(f"staircase.{layer}.{dotted}")
                continue
            assert callable(original), f"staircase.{layer}.{dotted}"
    assert not missing, f"traced names missing from their modules: {missing}"
