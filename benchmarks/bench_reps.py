#!/usr/bin/env python3
"""Benchmark the equivalence tests of the reps stage of ``f2hopf run --dim 4``.

Two suites, both on the digital u_q(sl_2) (``golden.dsl2_presentation``):

- the 20 ``decompose`` calls that build the reps dataset's tensor table (16)
  and duals (4), checked against ``golden.TENSOR_TABLE`` and
  ``golden.DUAL_REPS``;
- ``equivalence_classes`` of the 394 three-dimensional representations
  (enumerated once, outside the timing), checked to partition exactly
  ``golden.REP_COUNTS[3]`` representations.

Times are the best of up to three runs, fewer when a run is slow.  The
numbers, the core count, the Python version and the kernel backend go to
benchmarks/BENCH_reps.json (or the path given with --out).  The script uses
only the reps API and the golden fixtures, so it also times older engines:
point PYTHONPATH at their source.

Run:  PYTHONPATH=src python benchmarks/bench_reps.py
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

from f2hopf import kernels
from f2hopf.gf2 import Gf2Mat
from f2hopf.golden import (
    DUAL_REPS,
    REP_1,
    REP_1BAR,
    REP_2,
    REP_2BAR,
    REP_COUNTS,
    TENSOR_TABLE,
    dsl2_presentation,
)
from f2hopf.reps import (
    Representation,
    decompose,
    dual_rep,
    enumerate_reps,
    equivalence_classes,
    tensor_rep,
)


def timed(fn, runs=3, budget_s=10.0):
    """Best wall time of up to `runs` calls, stopping once `budget_s` is spent."""
    best = float("inf")
    spent = 0.0
    for _ in range(runs):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        best = min(best, elapsed)
        spent += elapsed
        if spent > budget_s:
            break
    return best, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(Path(__file__).with_name("BENCH_reps.json")))
    args = parser.parse_args(argv)

    h = dsl2_presentation()
    named = {
        key: Representation(fx["s"].nrows, (Gf2Mat.identity(fx["s"].nrows),
                                            fx["s"], fx["x"], fx["w"]))
        for key, fx in (("1", REP_1), ("1b", REP_1BAR), ("2", REP_2), ("2b", REP_2BAR))
    }

    def decompositions():
        table = {(a, b): decompose(tensor_rep(h, named[a], named[b]), named)
                 for a in named for b in named}
        duals = {a: decompose(dual_rep(h, named[a]), named)[0] for a in named}
        return table, duals

    reps3 = enumerate_reps(h.alg, 3)
    decompose_s, (table, duals) = timed(decompositions)
    if table != TENSOR_TABLE or duals != DUAL_REPS:
        raise SystemExit("decompositions disagree with golden.TENSOR_TABLE / DUAL_REPS")
    classes_s, classes = timed(lambda: equivalence_classes(reps3))
    if sorted(i for c in classes for i in c) != list(range(REP_COUNTS[3])):
        raise SystemExit("equivalence classes do not partition the k = 3 representations")

    record = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cores": os.cpu_count(),
        "backend": kernels.BACKEND,
        "suites": {
            "decompose, tensor table and duals": {
                "calls": len(table) + len(duals),
                "seconds": round(decompose_s, 4),
            },
            "equivalence_classes, k = 3": {
                "representations": len(reps3),
                "classes": len(classes),
                "seconds": round(classes_s, 4),
            },
        },
    }
    for name, suite in record["suites"].items():
        print(f"{name:36s} {suite['seconds']:9.4f}s", flush=True)
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
