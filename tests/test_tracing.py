"""The benchmark's traced run must find every engine function it wraps."""

import importlib
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing() -> types.ModuleType:
    """Execute ``perfbench/tracing.py`` from its source, writing nothing."""
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    code = compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec")
    exec(code, module.__dict__)
    return module


def test_traced_names_resolve_in_their_own_modules():
    tracing = _load_tracing()
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
