"""Per-layer tracing by wrapping the engine's public functions from outside.

No source file of the engine changes.  ``Tracer.install`` replaces every
binding of each traced function in every loaded ``staircase.*`` module (and
the class attribute for methods), so calls made through from-imports such
as ``oracle.dot`` or ``cli.dumps`` are counted too.  Each wrapper records a
span: its duration minus the durations of the traced spans nested inside it
is its self time; a layer's self time is the sum over its functions.
"""

from __future__ import annotations

import cProfile
import functools
import pstats
import sys
import time
import types

LAYERS = {
    "qe": [
        "is_empty_cell", "witness_cell", "canonicalize", "condense", "minkowski",
        "difference", "difference_witness", "intersect", "union", "exists",
        "eliminate", "is_subset", "PLSet.contains", "directional_limit_member",
    ],
    "rationals": ["dot"],
    "geometry": [
        "upper_boundary", "shape_at", "is_downset", "is_upset",
        "lower_boundary_direct", "project_mod",
    ],
    "socle": [
        "socle_table", "max_along", "socle_stratum", "boundary_degrees",
        "min_along", "top", "top_direct", "sigma_closure", "validate_socle_table",
    ],
    "decompose": ["primary_decomposition", "primary_component", "coprincipal", "reconstruct"],
    "discrete": ["discrete_primary_decomposition", "is_irredundant", "socle_isomorphism_check"],
    "oracle": [
        "verify_instance", "sample_check_membership", "boundary_probe_check",
        "interval_boundary_probe_check", "sigma_closure_probe_check",
        "correspondence_check",
    ],
    "jsonio": ["instance_from_json", "dumps"],
    "cli": ["run"],
}

# Functions checked call for call against cProfile.
COVERAGE_KEYS = ("qe.is_empty_cell", "qe.minkowski", "rationals.dot")
# Functions whose results feed the useful-work ratios and size maxima.
OBSERVED = ("qe.is_empty_cell", "qe.condense", "qe.canonicalize", "qe.difference", "qe.minkowski")


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for layer, names in LAYERS.items():
        for fn in names:
            out.append((f"{layer}.{fn}.calls", "count"))
            out.append((f"{layer}.{fn}.self_s", "s"))
    out += [(f"{layer}.self_s", "s") for layer in LAYERS]
    out += [
        ("qe.is_empty_cell.empty_ratio", "ratio"),
        ("qe.condense.cells_in", "count"),
        ("qe.condense.cells_kept_ratio", "ratio"),
        ("qe.canonicalize.cells_in", "count"),
        ("qe.canonicalize.cells_kept_ratio", "ratio"),
        ("qe.difference.cells_out_max", "count"),
        ("qe.minkowski.constraints_out_max", "count"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return out


def _resolve(layer: str, dotted: str):
    """(owner, attribute name, original) for a traced function."""
    owner = sys.modules[f"staircase.{layer}"]
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


class Tracer:
    """Counts calls and self time of the traced functions while ``active``."""

    def __init__(self):
        self.active = False
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.empty = 0
        self.cells = {"qe.condense": [0, 0], "qe.canonicalize": [0, 0]}
        self.difference_cells_max = 0
        self.minkowski_constraints_max = 0
        self._stack = [0.0]  # time covered by child spans, per open span
        self._patched: list[tuple[object, str, object]] = []

    def _observe(self, key: str, args, result) -> None:
        if key == "qe.is_empty_cell":
            self.empty += result
        elif key in self.cells:
            self.cells[key][0] += len(args[0].cells)
            self.cells[key][1] += len(result.cells)
        elif key == "qe.difference":
            self.difference_cells_max = max(self.difference_cells_max, len(result.cells))
        elif key == "qe.minkowski":
            size = sum(len(c.constraints) for c in result.cells)
            self.minkowski_constraints_max = max(self.minkowski_constraints_max, size)

    def _wrap(self, key: str, fn):
        observed = key in OBSERVED
        stack = self._stack
        clock = time.perf_counter
        self.calls[key] = 0
        self.self_s[key] = 0.0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                self.calls[key] += 1
                self.self_s[key] += elapsed - child
            if observed:
                self._observe(key, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.startswith("staircase")]
        for layer, names in LAYERS.items():
            for dotted in names:
                owner, attr, original = _resolve(layer, dotted)
                wrapper = self._wrap(f"{layer}.{dotted}", original)
                setattr(owner, attr, wrapper)
                self._patched.append((owner, attr, original))
                if isinstance(owner, types.ModuleType):
                    for mod in modules:
                        for name, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, name, wrapper)
                                self._patched.append((mod, name, original))
        leftover = unpatched_references({id(o) for _, _, o in self._patched}, modules)
        if leftover:
            self.uninstall()
            raise RuntimeError(f"traced functions still bound unwrapped: {leftover}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        m: dict[str, float] = {}
        for key, calls in self.calls.items():
            m[f"{key}.calls"] = calls
            m[f"{key}.self_s"] = self.self_s[key]
        for layer, names in LAYERS.items():
            m[f"{layer}.self_s"] = sum(self.self_s[f"{layer}.{fn}"] for fn in names)
        empties = self.calls["qe.is_empty_cell"]
        m["qe.is_empty_cell.empty_ratio"] = self.empty / empties if empties else 0.0
        for key, (cin, cout) in self.cells.items():
            m[f"{key}.cells_in"] = cin
            m[f"{key}.cells_kept_ratio"] = cout / cin if cin else 0.0
        m["qe.difference.cells_out_max"] = self.difference_cells_max
        m["qe.minkowski.constraints_out_max"] = self.minkowski_constraints_max
        m["trace.overhead_ratio"] = overhead_ratio
        return m


def unpatched_references(originals: set[int], modules) -> list[str]:
    """Module globals, and values inside module-level containers, that still
    hold an original traced function."""
    found = []
    for mod in modules:
        for name, value in vars(mod).items():
            members = value.values() if isinstance(value, dict) else (
                value if isinstance(value, (list, tuple, set, frozenset)) else (value,)
            )
            for member in members:
                if id(member) in originals:
                    found.append(f"{mod.__name__}.{name}")
    return found


def profile_counts(run) -> dict[str, int]:
    """cProfile's ncalls of the coverage functions over ``run()``, with the
    original (unwrapped) functions in place."""
    targets = {key: _resolve(*key.split(".", 1))[2].__code__ for key in COVERAGE_KEYS}
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler).stats
    counts = {}
    for key, code in targets.items():
        entry = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
        counts[key] = entry[1] if entry else 0
    return counts
