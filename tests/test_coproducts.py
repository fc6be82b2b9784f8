import random

import pytest

from f2hopf import coproducts, kernels
from f2hopf.catalog import BASIS_NAMES, automorphism_group, catalog
from f2hopf.classify import classify_bialgebras
from f2hopf.coproducts import (
    coalgebra_type,
    enumerate_counits,
    solve_coproduct_tensors,
    solve_coproducts,
)
from f2hopf.gf2 import Gf2Mat
from f2hopf.golden import HOPF_RAW_COUNTS, RAW_COUNTS, RAW_TYPE_COUNTS
from f2hopf.structure import (
    Bialgebra,
    CoalgebraSC,
    apply_basis_change_algebra,
    check_bialgebra,
)
from reference import (
    brute_force_coproduct_set,
    brute_force_coproducts,
    coproducts_per_counit,
    naive_antipode_law,
    naive_coproduct_equations,
    unpack_tensor,
    unpack_vec,
)


def test_counits_dim2():
    cat = catalog(2)
    assert enumerate_counits(cat["A"].representative) == [0b01]
    assert enumerate_counits(cat["B"].representative) == [0b01, 0b11]
    # the field F4 admits no algebra map onto F2 at all
    assert enumerate_counits(cat["C"].representative) == []


def test_counits_dim3_algebra_b():
    # eps in {(1,0,0), (1,1,0), (1,0,1)}: both idempotents cannot map to 1
    # since eps(xy) = eps(0) = 0.
    got = enumerate_counits(catalog(3)["B"].representative)
    assert got == [0b001, 0b011, 0b101]


@pytest.mark.parametrize("n", [2, 3])
def test_raw_counts_small(n):
    expected = {2: {"A": 2, "B": 4, "C": 0}, 3: RAW_COUNTS[3]}[n]
    for label, want in expected.items():
        rs = solve_coproducts(catalog(n)[label].representative, label)
        assert len(rs) == want, (n, label)


def test_raw_counts_dim4():
    for label, want in RAW_COUNTS[4].items():
        rs = solve_coproducts(catalog(4)[label].representative, label)
        assert len(rs) == want, label
        if (4, label) in RAW_TYPE_COUNTS:
            assert rs.type_counts() == RAW_TYPE_COUNTS[(4, label)], label
        assert sum(s.hopf for s in rs.solutions) == HOPF_RAW_COUNTS.get((4, label), 0), label


def test_type_counts_dim3():
    for (n, label), want in RAW_TYPE_COUNTS.items():
        if n != 3:
            continue
        rs = solve_coproducts(catalog(3)[label].representative, label)
        assert rs.type_counts() == want
        assert sum(s.hopf for s in rs.solutions) == HOPF_RAW_COUNTS.get((3, label), 0)


def test_solutions_sound_and_ordered():
    for label in ("B", "G"):
        rs = solve_coproducts(catalog(3)[label].representative, label)
        tensors = [s.coalg.c for s in rs.solutions]
        assert tensors == sorted(tensors)
        assert len(set(tensors)) == len(tensors)
        for s in rs.solutions:
            assert check_bialgebra(Bialgebra(rs.algebra, s.coalg))


def test_completeness_dim2_brute_force():
    for cls in catalog(2).classes:
        rs = solve_coproducts(cls.representative, cls.label)
        assert brute_force_coproduct_set(2, cls.label) == {
            (s.coalg.c, s.coalg.eps) for s in rs.solutions
        }


def test_brute_force_counit_filter_drops_no_bialgebra():
    # The oracle's counit filter only skips candidates the checker rejects:
    # at n = 2 its scan equals the unfiltered one over all 2 x 2^4 candidates.
    for cls in catalog(2).classes:
        a = cls.representative
        unfiltered = [(1 | free << 4, eps) for eps in (0b01, 0b11) for free in range(1 << 4)
                      if check_bialgebra(Bialgebra(a, CoalgebraSC(2, 1 | free << 4, eps)))]
        assert [(c.c, c.eps) for c in brute_force_coproducts(a)] == unfiltered, cls.label


def test_completeness_dim3_algebra_d_brute_force():
    rs = solve_coproducts(catalog(3)["D"].representative, "D")
    assert brute_force_coproduct_set(3, "D") == {
        (s.coalg.c, s.coalg.eps) for s in rs.solutions
    }


def test_random_candidates_against_full_checker():
    # Solver membership must coincide with the full bialgebra checker on a
    # random sample of coproduct candidates.
    rng = random.Random(37)
    a = catalog(3)["B"].representative
    by_eps = {
        eps: set(solve_coproduct_tensors(a, eps)) for eps in enumerate_counits(a)
    }
    for _ in range(3000):
        eps = rng.choice(list(by_eps))
        c = 1 | (rng.getrandbits(18) << 9)
        valid = bool(check_bialgebra(Bialgebra(a, CoalgebraSC(3, c, eps))))
        assert valid == (c in by_eps[eps])


def test_coalgebra_types_examples():
    from f2hopf.golden import COPRODUCTS_DIM3, TABLES_DIM4

    b4 = next(e for e in COPRODUCTS_DIM3 if e.name == "B.4")
    assert coalgebra_type(b4.coalg) == "D"
    g5 = next(e for e in TABLES_DIM4 if e.name == "G.5")
    assert coalgebra_type(g5.coalg) == "P"
    # a primitive-generator coproduct on the Grassmann plane has type E
    from f2hopf.golden import coalgebra_from_terms

    grass = coalgebra_from_terms(
        BASIS_NAMES[4], "1", x="1.x x.1", y="1.y y.1", z="1.z x.y y.x z.1"
    )
    assert coalgebra_type(grass) == "E"


def _count_calls(monkeypatch, name):
    """Record the arguments of every call of coproducts.<name>."""
    calls = []
    fn = getattr(coproducts, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(coproducts, name, counted)
    return calls


def _assert_transport_matches_per_counit_solve(a):
    # The per-counit oracle annotates every solution on its own, so equality
    # checks each transported counit, type and antipode.
    rs = solve_coproducts(a)
    assert rs == coproducts_per_counit(a)
    v, eta = unpack_tensor(a.v, a.n), unpack_vec(a.eta, a.n)
    for s in rs.solutions:
        if s.antipode is not None:
            assert naive_antipode_law(v, eta, unpack_tensor(s.coalg.c, a.n),
                                      unpack_vec(s.coalg.eps, a.n),
                                      s.antipode.to_lists(), a.n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_transported_solutions_match_a_search_of_every_counit(n):
    # Every annotated solution reached along an automorphism is the one a
    # search of its own counit's system finds, and every antipode satisfies
    # the naive antipode law.
    for cls in catalog(n).classes:
        _assert_transport_matches_per_counit_solve(cls.representative)


def _non_representative_p():
    # P in the basis 1, 1 + x, y, z: still in standard form, but the change
    # is not an automorphism, so the algebra is not the catalog's tensor.
    p_rep = catalog(4)["P"].representative
    return apply_basis_change_algebra(p_rep, Gf2Mat((0b0001, 0b0011, 0b0100, 0b1000), 4))


def test_transport_on_a_non_representative_algebra(monkeypatch):
    a = _non_representative_p()
    assert a.is_standard and a != catalog(4)["P"].representative
    searched = _count_calls(monkeypatch, "solve_coproduct_tensors")
    solve_coproducts(a)
    # the four counits form one orbit, and only the smallest is searched
    counits = enumerate_counits(a)
    assert len(counits) == 4
    assert searched == [(a, counits[0])]
    _assert_transport_matches_per_counit_solve(a)


def _naive_counit_orbits(a) -> set[frozenset]:
    def image(p, eps):
        return sum((sum(p[i, m] * ((eps >> m) & 1) for m in range(a.n)) % 2) << i
                   for i in range(a.n))

    autos = automorphism_group(a)
    return {frozenset(image(p, eps) for p in autos) for eps in enumerate_counits(a)}


def test_one_search_per_counit_orbit(monkeypatch):
    searched = _count_calls(monkeypatch, "solve_coproduct_tensors")
    counits = orbits = 0
    for n in (2, 3, 4):
        for cls in catalog(n).classes:
            a = cls.representative
            searched.clear()
            solve_coproducts(a, cls.label)
            want = _naive_counit_orbits(a)
            assert len(searched) == len(want), (n, cls.label)
            assert {eps for _, eps in searched} == {min(o) for o in want}
            counits += len(enumerate_counits(a))
            orbits += len(want)
    assert (counits, orbits) == (48, 38)


def test_counit_systems_match_the_naive_builder():
    # Every counit system of n = 2..4 (the 38 searched among them), and those
    # of an algebra that is not a catalog representative: searched in the
    # counit's own basis and carried back, each has the solutions of the
    # system stated in the algebra's basis.
    algebras = [cls.representative for n in (2, 3, 4) for cls in catalog(n).classes]
    systems = 0
    for a in algebras + [_non_representative_p()]:
        for eps in enumerate_counits(a):
            want = kernels.solve_quadratic(*naive_coproduct_equations(a, eps))
            assert solve_coproduct_tensors(a, eps) == want, (a, eps)
            systems += 1
    assert systems == 48 + 4


def test_one_annotation_per_class(monkeypatch):
    types = _count_calls(monkeypatch, "coalgebra_type")
    antipodes = _count_calls(monkeypatch, "solve_antipode")
    total = 0
    for n in (2, 3, 4):
        for cls in catalog(n).classes:
            types.clear()
            antipodes.clear()
            rs = solve_coproducts(cls.representative, cls.label)
            classes = len(classify_bialgebras(rs))
            assert len(types) == len(antipodes) == classes, (n, cls.label)
            total += classes
    assert total == 314
