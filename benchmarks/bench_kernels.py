#!/usr/bin/env python3
"""Benchmark the quadratic-XOR kernel on the workloads that dominate the
pipeline: the dimension-4 algebra enumeration, the heaviest coproduct solve
(algebra P), a full R-matrix scan, and the counit systems a census searches.

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
system stays in the suite as a stress test of the kernel.  The counit suite
holds the 38 counit systems a ``run --dim 2 --dim 3 --dim 4`` census
searches, the least counit of each orbit of each algebra's automorphism
group; its ``build_s`` plus ``eliminate_s`` is the equation layer of a cold
census.  ``build_s`` times the builders that state a suite's systems, as
``coproducts._coproduct_equations`` for the coproduct suites.  The laws
that depend on n alone are memoised, so every round after the first reads
them from the memo, as most systems of a census do.
Every time is the median of ROUNDS runs.

``--tree NAME=SRC`` (repeatable) times the engine whose source is the
directory SRC, such as a checkout of an older commit's ``src``; without it,
the ``src`` next to this script is timed.  Each tree is timed in CHILDREN
fresh interpreters, which alternate between the trees, so a drift in
machine load reaches each tree alike; a tree's suites report the median of
each time over its children, and every child's numbers are kept under
``runs``.  The numbers of each tree, the core count and the Python version
go to benchmarks/BENCH_kernel.json (or the path given with --out).

Run:  python benchmarks/bench_kernels.py [--tree parent=../old/src --tree change=src]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROUNDS = 10
CHILDREN = 3
TIMES = ("build_s", "eliminate_s", "search_order_s")


def workload_algebras():
    from f2hopf.catalog import _algebra_equations

    return [_algebra_equations(4)]


def workload_coproducts():
    from f2hopf.catalog import catalog
    from f2hopf.coproducts import _coproduct_equations, enumerate_counits

    a = catalog(4)["P"].representative
    return [_coproduct_equations(a, eps) for eps in enumerate_counits(a)]


def searched_counits():
    """(algebra, counit) for each counit system of a census of n = 2..4:
    the least counit of each orbit of the algebra's automorphism group."""
    from f2hopf.catalog import automorphism_group, catalog
    from f2hopf.coproducts import enumerate_counits
    from f2hopf.gf2 import parity

    searched = []
    for n in (2, 3, 4):
        for cls in catalog(n).classes:
            a = cls.representative
            autos = automorphism_group(a)
            covered = set()
            for eps in enumerate_counits(a):
                if eps not in covered:
                    searched.append((a, eps))
                    covered |= {sum(parity(row & eps) << i for i, row in enumerate(p.rows))
                                for p in autos}
    return searched


def workload_qt():
    from f2hopf.golden import HOPF_FIXTURES_DIM4
    from f2hopf.qtri import _equations as qt_equations

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


def suites() -> dict:
    """Time every suite in this process; returns the per-suite record."""
    from f2hopf import kernels
    from f2hopf.coproducts import _coproduct_equations

    def greedy(nvars, equations):
        return kernels.backtrack(nvars, equations, kernels.search_order(nvars, equations))

    counits = searched_counits()
    builders = {
        "algebra enumeration n=4": workload_algebras,
        "coproduct solve, algebra P": workload_coproducts,
        "R-matrix scan, 20 Hopf classes": workload_qt,
        f"counit systems of a census, {len(counits)} searched":
            lambda: [_coproduct_equations(a, eps) for a, eps in counits],
    }
    record = {}
    for name, build in builders.items():
        build_s, (systems,) = timed(build, [()])
        # The backtracker receives each system after elimination; a system
        # that elimination already finds unsolvable is not searched.
        eliminate_s, reductions = timed(kernels.eliminate, systems)
        jobs = [r[:2] for r in reductions if r is not None]
        order_s, _ = timed(kernels.search_order, jobs)
        elapsed, results = timed(greedy, jobs)
        print(f"{name:40s} build {build_s:10.6f}s eliminate {eliminate_s:10.6f}s "
              f"greedy {elapsed:10.6f}s", file=sys.stderr, flush=True)
        record[name] = {
            "systems": len(systems),
            "searched": len(jobs),
            "equations": sum(len(eqs) for _, eqs in systems),
            "pairs": sum(len(pairs) for _, eqs in systems for _, _, pairs in eqs),
            "solutions": sum(len(r) for r in results),
            "build_s": round(build_s, 6),
            "eliminate_s": round(eliminate_s, 6),
            "search_order_s": round(order_s, 6),
            "seconds": {"greedy": round(elapsed, 6)},
        }
    return record


def median_suites(runs: list[dict]) -> dict:
    """The suites of one tree from its children's records: every time the
    median over the children, every count as all children found it."""
    suites = {}
    for name, first in runs[0].items():
        recs = [run[name] for run in runs]
        counts = {key: value for key, value in first.items()
                  if key not in TIMES and key != "seconds"}
        if any({key: rec[key] for key in counts} != counts for rec in recs):
            raise RuntimeError(f"{name}: the children disagree on the counts")
        suites[name] = dict(counts, **{key: round(statistics.median(rec[key] for rec in recs), 6)
                                      for key in TIMES})
        suites[name]["seconds"] = {
            "greedy": round(statistics.median(rec["seconds"]["greedy"] for rec in recs), 6)}
    return suites


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(Path(__file__).with_name("BENCH_kernel.json")))
    parser.add_argument("--tree", action="append", metavar="NAME=SRC",
                        help="time the engine whose source directory is SRC")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(suites()))
        return

    default = str(Path(__file__).resolve().parents[1] / "src")
    trees = dict(t.split("=", 1) for t in args.tree) if args.tree else {"src": default}
    record = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cores": os.cpu_count(),
        "rounds": ROUNDS,
        "children": CHILDREN,
        "trees": {},
    }
    runs: dict[str, list] = {name: [] for name in trees}
    for child in range(CHILDREN):
        for name, src in trees.items():
            print(f"child {child + 1}/{CHILDREN}, tree {name}: {src}", file=sys.stderr, flush=True)
            env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
            proc = subprocess.run([sys.executable, __file__, "--child"], env=env,
                                  stdout=subprocess.PIPE, text=True, check=True)
            runs[name].append(json.loads(proc.stdout))
    for name, tree_runs in runs.items():
        record["trees"][name] = {"suites": median_suites(tree_runs), "runs": tree_runs}
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
