#!/usr/bin/env python3
"""List the functions of ``src/f2hopf`` that no command calls.

In one process, under ``sys.setprofile`` and in a temporary directory, it
runs:

- ``run --dim 1 --dim 2 --dim 3 --dim 4 --stage all`` in computed and in
  fixture mode, each with a cold cache and then a warm one;
- ``verify`` on every dataset those runs wrote;
- ``run --dim 3 --algebra B``.

Every command must exit 0.  The profiler is installed before ``f2hopf`` is
imported, so functions called at import time count as reached.  A function
is every ``def`` at module level or in a class body; a nested function
belongs to its parent.  Each unreached function is printed with its line
count, marked ``keep`` when KEEP names it (with the reason) and ``UNREACHED``
otherwise.  The exit status is 1 when a function is unreached and not in
KEEP, or when a KEEP entry names a function that no longer exists or is
now reached; 2 when a command fails; else 0.

Run:  python3 benchmarks/reach.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "f2hopf"

ACCEPTANCE = "paper API: tests/test_acceptance.py reaches it"
ORACLE = "test oracle or test helper: only tests/ reach it"
TRACED = "pinned: perfbench/tracing.py TARGETS names it"

# Unreached functions that stay, each with its reason.  The reasons were
# read off tier-1 run under the same profiler, per test file: a name that
# TARGETS lists is pinned whatever reaches it; otherwise one that
# test_acceptance.py reaches, directly or through another function, is
# paper API, and one that only other tests reach is a test oracle or helper.
KEEP: dict[str, str] = {
    "catalog.AlgebraClass.automorphisms": ORACLE,
    "catalog.AlgebraClass.commutative": ACCEPTANCE,
    "catalog.AlgebraClass.orbit_size": ORACLE,
    "catalog._algebra_equations": ORACLE,
    "catalog.classify_algebras": TRACED,
    "catalog.enumerate_algebras": TRACED,
    "catalog.identify_algebra": TRACED,
    "catalog.standardize_unit": ORACLE,
    "classify.QuiverGraph.arrow": ACCEPTANCE,
    "classify.QuiverGraph.hopf_arrows": ACCEPTANCE,
    "classify.QuiverGraph.total_bialgebras": ACCEPTANCE,
    "classify.QuiverGraph.total_hopf": ACCEPTANCE,
    "classify.bialgebra_type": ORACLE,
    "classify.dual_bialgebra": ORACLE,
    "classify.hopf_census": ACCEPTANCE,
    "classify.locate_class": ORACLE,
    "classify.self_duality_pairing": ORACLE,
    "coproducts.RawSolutionSet.__len__": ACCEPTANCE,
    "coproducts.RawSolutionSet.type_counts": ORACLE,
    "fourier._dual_hopf": ACCEPTANCE,
    "fourier.adjoint_dual_transport_back": ACCEPTANCE,
    "fourier.adjoint_round_trip": ACCEPTANCE,
    "fourier.canonical_round_trip": ACCEPTANCE,
    "fourier.dual_transport_back": ACCEPTANCE,
    "fourier.holonomy": ACCEPTANCE,
    "fourier.right_cointegral": ORACLE,
    "fourier.transport_matrix": ACCEPTANCE,
    "gf2._gl_rows": ORACLE,
    "gf2.enumerate_invertible": TRACED,
    "gf2.gl_order": ORACLE,
    "golden.NamedCoproduct.hopf": ACCEPTANCE,
    "golden.qt_cbplus_star_nontrivial": ORACLE,
    "golden.qt_dsl2_standard": ORACLE,
    "golden.qt_family_dd": ORACLE,
    "golden.qt_family_gg": ORACLE,
    "golden.qt_family_grassmann_plane": ACCEPTANCE,
    "kernels.Equation.add_var": ACCEPTANCE,
    "qtri.QuasiTriangularStructure.triangular": ACCEPTANCE,
    "qtri._cqt_equations": ACCEPTANCE,
    "qtri.coquasitriangular_direct": ACCEPTANCE,
    "qtri.yang_baxter_ok": ACCEPTANCE,
    "reps.equivalence_classes": ACCEPTANCE,
    "reps.invariant_line": ACCEPTANCE,
    "reps.regular_rep": ACCEPTANCE,
    "structure.TensorProductAlgebra.prod": ACCEPTANCE,
    "structure.algebra_equations": ORACLE,
    "structure.apply_basis_change": ORACLE,
    "structure.apply_basis_change_algebra": ORACLE,
    "structure.apply_basis_change_coalgebra": ORACLE,
    "structure.dual_bialgebra_raw": ACCEPTANCE,
    "structure.dualize_algebra": ACCEPTANCE,
    "structure.opposite": ACCEPTANCE,
}


def definitions() -> dict[tuple[str, int], tuple[str, int]]:
    """(file, first line) -> (module.qualname, line count) of every function
    at module level or in a class body.  The first line is that of the
    first decorator, as in the function's code object."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(), str(path))
        todo = [(module, node) for node in tree.body]
        while todo:
            prefix, node = todo.pop()
            if isinstance(node, ast.ClassDef):
                todo.extend((f"{prefix}.{node.name}", child) for child in node.body)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                found[(str(path), first)] = (f"{prefix}.{node.name}",
                                             node.end_lineno - first + 1)
    return found


def commands(tmp: Path):
    """The argument lists to run, in order; verify lists are built from the
    files the runs before them wrote."""
    dims = ["--dim", "1", "--dim", "2", "--dim", "3", "--dim", "4"]
    outs = []
    for mode in ("computed", "fixture"):
        out = tmp / mode
        outs.append(out)
        for _ in ("cold", "warm"):
            yield ["run", *dims, "--stage", "all", "--mode", mode, "--out", str(out)]
    for out in outs:
        yield ["verify", *sorted(str(p) for p in out.glob("*.json"))]
    yield ["run", "--dim", "3", "--algebra", "B", "--out", str(tmp / "one")]


def main() -> int:
    os.environ.pop("F2HOPF_CACHE_ROOT", None)
    sys.path.insert(0, str(SRC))
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    with tempfile.TemporaryDirectory(prefix="f2hopf-reach-") as tmp:
        sys.setprofile(profile)
        try:
            from f2hopf import cli

            for argv in commands(Path(tmp)):
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main(argv)
                if rc != 0:
                    print(f"f2hopf {argv[0]} exited {rc}", file=sys.stderr)
                    return 2
        finally:
            sys.setprofile(None)

    defs = definitions()
    sizes = dict(defs.values())
    reached = {defs[code.co_filename, code.co_firstlineno][0] for code in called
               if (code.co_filename, code.co_firstlineno) in defs}
    unreached = sorted(sizes.keys() - reached)
    for name in unreached:
        if name in KEEP:
            print(f"keep       {name} ({sizes[name]} lines): {KEEP[name]}")
        else:
            print(f"UNREACHED  {name} ({sizes[name]} lines)")
    stale = sorted(KEEP.keys() - set(unreached))
    for name in stale:
        print(f"STALE      {name}: on the keep list, but "
              f"{'reached' if name in sizes else 'not defined'}")
    outside = [name for name in unreached if name not in KEEP]
    print(f"{len(unreached)} of {len(sizes)} functions unreached "
          f"({sum(sizes[name] for name in unreached)} lines), "
          f"{len(outside)} of them not on the keep list")
    return 1 if outside or stale else 0


if __name__ == "__main__":
    sys.exit(main())
