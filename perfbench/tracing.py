"""In-memory span tracing of the engine's public layer functions.

The tracer wraps each function named in TARGETS and rebinds the wrapper
under every name that any ``f2hopf`` module holds for the function, so calls
made through ``from f2hopf.x import f`` bindings are traced as well as calls
through the module attribute.  Nothing under ``src/`` changes.

A span is (name, start, end, parent span index, run id).  Spans stay in a
list until the run ends; ``write_spans`` writes them out and ``layer_stats``
turns them into per-layer call counts, self times and work counters.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path


def _calls_only(args, kwargs, result):
    return {}


def _kernel_counts(args, kwargs, result):
    return {"vars": args[0], "equations": len(args[1]), "solutions": len(result)}


def _size(key):
    return lambda args, kwargs, result: {key: len(result)}


def _found(args, kwargs, result):
    return {"found": int(result is not None)}


def _dumped_bytes(args, kwargs, result):
    return {"bytes": len(result.encode())}


def _loaded_bytes(args, kwargs, result):
    return {"bytes": len(args[0].encode())}


# (module, function, counters the call contributes besides `calls`).
TARGETS = (
    ("kernels", "solve_quadratic", _kernel_counts),
    ("kernels", "transform_product", _calls_only),
    ("kernels", "transform_coproduct", _calls_only),
    ("coproducts", "solve_coproducts", _calls_only),
    ("coproducts", "solve_coproduct_tensors", _size("tensors")),
    ("coproducts", "coalgebra_type", _calls_only),
    ("catalog", "identify_algebra", _calls_only),
    ("structure", "solve_antipode", _found),
    ("catalog", "catalog", _calls_only),
    ("catalog", "enumerate_algebras", _size("tensors")),
    ("catalog", "classify_algebras", _calls_only),
    ("gf2", "enumerate_invertible", _calls_only),
    ("classify", "classify_dimension", _calls_only),
    ("classify", "classify_bialgebras", _size("classes")),
    ("classify", "build_quiver", _calls_only),
    ("reps", "enumerate_reps", _size("reps")),
    ("reps", "decompose", _calls_only),
    ("reps", "equivalent_by_conjugation", _found),
    ("qtri", "enumerate_quasitriangular", _size("structures")),
    ("fourier", "fourier_data", _calls_only),
    ("serialize", "dump_dataset", _dumped_bytes),
    ("serialize", "load_dataset", _loaded_bytes),
    ("cli", "run_pipeline", _calls_only),
)

# Work counters per target, as reported (all are exact counts).
COUNTERS = {
    "kernels.solve_quadratic": ("vars", "equations", "solutions"),
    "coproducts.solve_coproduct_tensors": ("tensors",),
    "structure.solve_antipode": ("found",),
    "catalog.enumerate_algebras": ("tensors",),
    "classify.classify_bialgebras": ("classes",),
    "reps.enumerate_reps": ("reps",),
    "reps.equivalent_by_conjugation": ("found",),
    "qtri.enumerate_quasitriangular": ("structures",),
    "serialize.dump_dataset": ("bytes",),
    "serialize.load_dataset": ("bytes",),
}


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.phase = "setup"
        self.spans: list = []  # [name, start, end, parent, run_id, phase]
        self.counts: dict[str, dict[str, int]] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count):
        spans, stack = self.spans, self._stack
        totals = self.counts.setdefault(name, {})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, self.phase]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            for key, value in count(args, kwargs, result).items():
                totals[key] = totals.get(key, 0) + value
            return result

        return traced

    def install(self) -> None:
        """Wrap every target and rebind it in each f2hopf module holding it."""
        for mod_name, fn_name, _ in TARGETS:
            importlib.import_module(f"f2hopf.{mod_name}")
        modules = [m for k, m in sys.modules.items()
                   if (k == "f2hopf" or k.startswith("f2hopf.")) and m is not None]
        for mod_name, fn_name, count in TARGETS:
            original = getattr(sys.modules[f"f2hopf.{mod_name}"], fn_name)
            traced = self.wrap(f"{mod_name}.{fn_name}", original, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)

    def write_spans(self, path: Path) -> None:
        with path.open("w") as fh:
            for name, start, end, parent, run_id, phase in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id,
                                     "phase": phase}) + "\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the time covered by its direct children.

    Children of one span run one after another (the engine is single
    threaded), so their durations simply add up.
    """
    own = [end - start for _, start, end, *_ in spans]
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_stats(spans, counts) -> dict[str, float]:
    """Per-layer metrics `<module>.<function>.<stat>` over all phases."""
    own = self_times(spans)
    stats: dict[str, float] = {}
    for mod_name, fn_name, _ in TARGETS:
        name = f"{mod_name}.{fn_name}"
        stats[f"{name}.calls"] = 0
        stats[f"{name}.self_s"] = 0.0
        for key in COUNTERS.get(name, ()):
            stats[f"{name}.{key}"] = counts.get(name, {}).get(key, 0)
    for span, t in zip(spans, own):
        stats[f"{span[0]}.calls"] += 1
        stats[f"{span[0]}.self_s"] += t
    return stats


def phase_breakdown(spans, phase: str) -> tuple[float, float]:
    """(sum of self times, time covered by root spans) within one phase."""
    own = self_times(spans)
    total_self = sum(t for span, t in zip(spans, own) if span[5] == phase)
    covered = sum(span[2] - span[1] for span in spans
                  if span[5] == phase and span[3] < 0)
    return total_self, covered
