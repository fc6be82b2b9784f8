#!/usr/bin/env python3
"""Benchmark the quadratic-XOR kernel on the three workloads that dominate
the pipeline: the dimension-4 algebra enumeration, the heaviest coproduct
solve (algebra P), and a full R-matrix scan.

Each suite times the systems the backtracker receives in the engine: the
builders' systems, each given as (number of variables, equations), after
``kernels.eliminate`` has removed the product-free equations (the
elimination and the greedy order's construction, ``kernels.search_order``,
are timed separately).  The backtracker is timed in the greedy search order
every engine search uses
(``kernels.backtrack(n, eqs, kernels.search_order(n, eqs))``, the order's
construction included).  The algebra P suite times all four of P's counit
systems, although the engine searches only eps = 0001 and transports the
other three counits' solutions along automorphisms; the dense eps = 1111
system stays in the suite as a stress test of the kernel.
``build_s`` times the builders that state a suite's systems.  The
coproduct builder memoises its counit and coassociativity laws per
(n, eps), so every round after the first reads them from the memo, as most
systems of a census do (its 38 counit systems share 7 keys).
Every time is the median of ROUNDS runs.  The numbers, the core count and
the Python version go to benchmarks/BENCH_kernel.json (or the path given
with --out).

Run:  PYTHONPATH=src python benchmarks/bench_kernels.py
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import time
from pathlib import Path

from f2hopf import kernels
from f2hopf.catalog import _algebra_equations, catalog
from f2hopf.coproducts import _coproduct_equations, enumerate_counits
from f2hopf.qtri import _equations as qt_equations

ROUNDS = 10


def workload_algebras():
    return [_algebra_equations(4)]


def workload_coproducts():
    a = catalog(4)["P"].representative
    return [_coproduct_equations(a, eps) for eps in enumerate_counits(a)]


def workload_qt():
    from f2hopf.golden import HOPF_FIXTURES_DIM4

    return [qt_equations(fx.bialgebra()) for fx in HOPF_FIXTURES_DIM4]


def timed(solve, jobs):
    """Median wall time of ROUNDS passes of solve over the jobs, and the
    last pass's results."""
    times = []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        results = [solve(*job) for job in jobs]
        times.append(time.perf_counter() - t0)
    return statistics.median(times), results


def greedy(nvars, equations):
    return kernels.backtrack(nvars, equations, kernels.search_order(nvars, equations))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(Path(__file__).with_name("BENCH_kernel.json")))
    args = parser.parse_args(argv)

    builders = {
        "algebra enumeration n=4": workload_algebras,
        "coproduct solve, algebra P": workload_coproducts,
        "R-matrix scan, 20 Hopf classes": workload_qt,
    }
    record = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cores": os.cpu_count(),
        "rounds": ROUNDS,
        "suites": {},
    }
    for name, build in builders.items():
        build_s, (systems,) = timed(build, [()])
        # The backtracker receives each system after elimination; a system
        # that elimination already finds unsolvable is not searched.
        eliminate_s, reductions = timed(kernels.eliminate, systems)
        jobs = [r[:2] for r in reductions if r is not None]
        order_s, _ = timed(kernels.search_order, jobs)
        elapsed, results = timed(greedy, jobs)
        print(f"{name:32s} build {build_s:10.6f}s eliminate {eliminate_s:10.6f}s "
              f"greedy {elapsed:10.6f}s", flush=True)
        record["suites"][name] = {
            "systems": len(systems),
            "searched": len(jobs),
            "solutions": sum(len(r) for r in results),
            "build_s": round(build_s, 6),
            "eliminate_s": round(eliminate_s, 6),
            "search_order_s": round(order_s, 6),
            "seconds": {"greedy": round(elapsed, 6)},
        }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
