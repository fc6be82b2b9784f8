"""Regression of the full dimension-3 coproduct tables and the dimension-4
per-algebra structure tables against the engine's exhaustive output."""

from collections import defaultdict

from f2hopf.catalog import catalog
from f2hopf.classify import classify_dimension
from f2hopf.coproducts import solve_coproducts
from f2hopf.golden import COPRODUCTS_DIM3, ORBITS_DIM3, TABLES_DIM4
from f2hopf.structure import Bialgebra, check_bialgebra, solve_antipode


def _by_algebra(entries):
    grouped = defaultdict(list)
    for e in entries:
        grouped[e.algebra_label].append(e)
    return grouped


def test_dim3_tables_match_solver_as_sets():
    grouped = _by_algebra(COPRODUCTS_DIM3)
    assert {k: len(v) for k, v in grouped.items()} == {"B": 33, "C": 8, "D": 3, "G": 8}
    for label, entries in grouped.items():
        rs = solve_coproducts(catalog(3)[label].representative, label)
        table = {(e.coalg.c, e.coalg.eps) for e in entries}
        solver = {(s.coalg.c, s.coalg.eps) for s in rs.solutions}
        assert table == solver, label


def test_dim3_annotations():
    for e in COPRODUCTS_DIM3:
        alg = catalog(3)[e.algebra_label].representative
        bi = Bialgebra(alg, e.coalg)
        assert check_bialgebra(bi), e.name
        s = solve_antipode(bi)
        assert (s is not None) == e.hopf, e.name
        if e.antipode is not None:
            assert s == e.antipode, e.name
        from f2hopf.coproducts import coalgebra_type

        assert coalgebra_type(e.coalg) == e.dual_label, e.name


def test_dim3_hopf_entries():
    hopf_names = {e.name for e in COPRODUCTS_DIM3 if e.hopf}
    assert hopf_names == {"B.4", "B.21", "B.33", "D.1"}


def test_dim4_tables_match_solver_as_sets():
    grouped = _by_algebra(TABLES_DIM4)
    assert {k: len(v) for k, v in grouped.items()} == {
        "G": 8, "I": 4, "J": 6, "M": 3, "NF": 8,
    }
    for label, entries in grouped.items():
        rs = solve_coproducts(catalog(4)[label].representative, label)
        assert {e.coalg.c for e in entries} == {s.coalg.c for s in rs.solutions}


def test_dim4_table_annotations():
    from f2hopf.coproducts import coalgebra_type

    for e in TABLES_DIM4:
        alg = catalog(4)[e.algebra_label].representative
        bi = Bialgebra(alg, e.coalg)
        assert check_bialgebra(bi), e.name
        s = solve_antipode(bi)
        assert (s is not None) == e.hopf, e.name
        if e.antipode is not None:
            assert s == e.antipode, e.name
        assert coalgebra_type(e.coalg) == e.dual_label, e.name


def test_published_orbits_match_engine():
    dim3 = classify_dimension(3)
    tensors = {e.name: e.coalg.c for e in COPRODUCTS_DIM3 if e.algebra_label == "B"}
    idx = {s.coalg.c: i for i, s in enumerate(dim3.raw["B"].solutions)}
    engine = {frozenset(c.members) for c in dim3.classes["B"]}
    published = {
        frozenset(idx[tensors[name]] for name in orbit)
        for orbit in ORBITS_DIM3["B"]
    }
    assert engine == published


def test_published_cop_partners():
    from f2hopf.structure import opposite_coproduct

    def named(entries, name):
        return next(e for e in entries if e.name == name)

    pairs3 = [("B.8", "B.9"), ("B.14", "B.15"), ("B.26", "B.27"),
              ("C.4", "C.5"), ("D.2", "D.3")]
    for a, b in pairs3:
        ea, eb = named(COPRODUCTS_DIM3, a), named(COPRODUCTS_DIM3, b)
        assert opposite_coproduct(ea.coalg).c == eb.coalg.c, (a, b)
    pairs4 = [("NF.2", "NF.3"), ("NF.6", "NF.7"), ("I.1", "I.3"),
              ("I.2", "I.4"), ("J.5", "J.6"), ("M.1", "M.3")]
    for a, b in pairs4:
        ea, eb = named(TABLES_DIM4, a), named(TABLES_DIM4, b)
        assert opposite_coproduct(ea.coalg).c == eb.coalg.c, (a, b)
