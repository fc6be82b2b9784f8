import random

import pytest

from f2hopf.catalog import BASIS_NAMES, catalog
from f2hopf.classify import classify_dimension
from f2hopf.golden import (
    QT_ANYONIC_NONTRIVIAL,
    QT_A110_NONTRIVIAL,
    QT_COUNTS_DIM4,
    QT_PAIR_CENSUS,
    coalgebra_from_terms,
    dsl2_presentation,
    parse_tensor_terms,
    qt_cbplus_star_nontrivial,
    qt_dsl2_standard,
    qt_family_dd,
    qt_family_gg,
    qt_family_grassmann_plane,
    HOPF_FIXTURES_DIM4,
)
from f2hopf.qtri import (
    coquasitriangular_direct,
    enumerate_quasitriangular,
    qt_by_class,
    qt_pairs,
    yang_baxter_ok,
)
from f2hopf.structure import Bialgebra
from reference import (
    antipode_leg_transform,
    both_legs_antipode,
    braid_ok,
    coquasitriangular_via_dual,
    naive_qt_equations,
    naive_quasitriangular,
    naive_yang_baxter,
    unpack_square,
    unpack_tensor,
)


def fixture(name):
    return next(fx for fx in HOPF_FIXTURES_DIM4 if fx.name == name)


def small_bialgebra(kind):
    if kind == "gra":
        return Bialgebra(
            catalog(2)["A"].representative,
            coalgebra_from_terms(BASIS_NAMES[2], "1", x="1.x x.1"),
        )
    if kind == "F2Z2":
        return Bialgebra(
            catalog(2)["A"].representative,
            coalgebra_from_terms(BASIS_NAMES[2], "1", x="1.x x.1 x.x"),
        )
    if kind == "F2(Z2)":
        return Bialgebra(
            catalog(2)["B"].representative,
            coalgebra_from_terms(BASIS_NAMES[2], "1", x="1.x x.1"),
        )
    raise KeyError(kind)


def test_grassmann_line():
    sols = enumerate_quasitriangular(small_bialgebra("gra"))
    bits = sorted(s.r for s in sols)
    assert bits == [
        parse_tensor_terms("1.1", BASIS_NAMES[2]),
        parse_tensor_terms("1.1 x.x", BASIS_NAMES[2]),
    ]
    assert all(s.triangular for s in sols)


def test_z2_trivial_only():
    for kind in ("F2Z2", "F2(Z2)"):
        sols = enumerate_quasitriangular(small_bialgebra(kind))
        assert len(sols) == 1 and sols[0].trivial


def test_enumerator_accepts_non_hopf_bialgebra():
    # the projector bialgebra has no antipode; invertibility of R is decided
    # by the explicit linear solve, and only the trivial element survives
    proj = Bialgebra(
        catalog(2)["B"].representative,
        coalgebra_from_terms(BASIS_NAMES[2], "1+x", x="x.x"),
    )
    sols = enumerate_quasitriangular(proj)
    assert len(sols) == 1 and sols[0].trivial


def test_z3_trivial_only():
    dim3 = classify_dimension(3)
    for cls in dim3.hopf_classes():
        bi = Bialgebra(
            dim3.cat[cls.algebra_label].representative, cls.representative.coalg
        )
        sols = enumerate_quasitriangular(bi)
        assert len(sols) == 1 and sols[0].trivial


@pytest.mark.parametrize("n", [2, 3, 4])
def test_census(n):
    assert qt_pairs(qt_by_class(classify_dimension(n))) == QT_PAIR_CENSUS[n]


def test_counts_per_class_dim4():
    by_cls = qt_by_class(classify_dimension(4))
    assert set(by_cls) == set(QT_COUNTS_DIM4)
    for key, (total, nontrivial) in QT_COUNTS_DIM4.items():
        sols = by_cls[key]
        assert len(sols) == total, key
        assert sum(1 for s in sols if not s.trivial) == nontrivial, key


def test_cocommutative_classes_have_trivial_solution():
    by_cls = qt_by_class(classify_dimension(4))
    for (alg, typ), sols in by_cls.items():
        if catalog(4)[typ].commutative:  # cocommutative class
            assert any(s.trivial for s in sols), (alg, typ)


def test_nonlinear_anyonic_family():
    sols = enumerate_quasitriangular(fixture("G.2").bialgebra())
    assert sorted(s.r for s in sols) == qt_family_gg()
    assert all(s.triangular for s in sols)
    assert not any(s.factorisable for s in sols)


def test_double_family():
    sols = enumerate_quasitriangular(fixture("D.2").bialgebra())
    assert sorted(s.r for s in sols) == qt_family_dd()
    # triangular iff the two exponents agree; factorisable iff they differ
    names = BASIS_NAMES[4]
    for s in sols:
        a = (s.r >> (names.index("y") * 4 + names.index("x"))) & 1
        b = (s.r >> (names.index("x") * 4 + names.index("y"))) & 1
        assert s.triangular == (a == b)
        assert s.factorisable == (a != b)


def test_grassmann_plane_family():
    sols = enumerate_quasitriangular(fixture("E.1").bialgebra())
    want = dict(qt_family_grassmann_plane())
    assert sorted(s.r for s in sols) == sorted(want)
    names = BASIS_NAMES[4]
    double_form = parse_tensor_terms("1.1 x.y y.x z.z", names)
    for s in sols:
        assert s.triangular == want[s.r]
        if s.triangular:
            assert not s.factorisable
        else:
            # All eight non-symmetric cases share the quantum-double Killing
            # form, which is invertible, so the matrix test marks them
            # factorisable (this algebra is the double of the Grassmann line).
            assert s.q == double_form
            assert s.factorisable


def test_cbplus_and_dual():
    # c[B+] admits nothing at all, not even the trivial element.
    sols = enumerate_quasitriangular(fixture("E.40").bialgebra())
    assert sols == []
    # its dual has the trivial one plus the Grassmann-line element
    sols = enumerate_quasitriangular(fixture("NF.1").bialgebra())
    nontrivial = [s for s in sols if not s.trivial]
    assert len(sols) == 2 and len(nontrivial) == 1
    assert nontrivial[0].r == qt_cbplus_star_nontrivial()
    assert nontrivial[0].triangular


def test_dsl2_structures():
    sols = enumerate_quasitriangular(fixture("NF.2").bialgebra())
    assert sorted(s.r for s in sols) == qt_dsl2_standard()
    assert all(not s.trivial and s.triangular and not s.factorisable for s in sols)
    # same count on the presentation basis
    pres = enumerate_quasitriangular(dsl2_presentation().bi)
    assert len(pres) == 2 and all(s.triangular and not s.trivial for s in pres)


def test_unique_nontrivial_on_additive_lines():
    assert [s.r for s in enumerate_quasitriangular(fixture("G.1").bialgebra())
            if not s.trivial] == [QT_ANYONIC_NONTRIVIAL]
    assert [s.r for s in enumerate_quasitriangular(fixture("D.1").bialgebra())
            if not s.trivial] == [QT_A110_NONTRIVIAL]


def test_trivial_only_exclusions():
    for name in ("E.15", "E.16", "E.38", "G.5", "G.6", "L.6", "L.11",
                 "M.2", "P.1", "P.3"):
        sols = enumerate_quasitriangular(fixture(name).bialgebra())
        assert len(sols) == 1 and sols[0].trivial, name


def _naive_yang_baxter(bi, r):
    n = bi.n
    return naive_yang_baxter(unpack_tensor(bi.alg.v, n), unpack_square(r, n), n)


def test_yang_baxter_everywhere():
    for n in (2, 3, 4):
        dim = classify_dimension(n)
        by_cls = qt_by_class(dim)
        for cls in dim.hopf_classes():
            bi = Bialgebra(
                dim.cat[cls.algebra_label].representative, cls.representative.coalg
            )
            for s in by_cls[(cls.algebra_label, cls.coalgebra_type)]:
                assert yang_baxter_ok(bi, s.r), (n, cls.algebra_label)
                assert _naive_yang_baxter(bi, s.r), (n, cls.algebra_label)
    gra = small_bialgebra("gra")
    for s in enumerate_quasitriangular(gra):
        assert yang_baxter_ok(gra, s.r)
        assert _naive_yang_baxter(gra, s.r)


def test_yang_baxter_matches_the_naive_check_off_the_r_matrices():
    # Random elements of H (x) H for digital u_q(sl_2), none an R-matrix:
    # the check must reject those the leg-by-leg oracle rejects.
    bi = dsl2_presentation().bi
    rs = {s.r for s in enumerate_quasitriangular(bi)}
    rng = random.Random(47)
    elements = []
    while len(elements) < 50:
        bits = rng.getrandbits(16)
        if bits not in rs:
            elements.append(bits)
    results = [yang_baxter_ok(bi, r) for r in elements]
    assert results == [_naive_yang_baxter(bi, r) for r in elements]
    assert not all(results)


def test_r_matrices_braid_in_every_small_representation():
    # The abstract: R-matrices induce solutions of the braid relation in
    # any representation.  Every R of every Hopf class of n = 2..4, in the
    # regular representation and in every one of dimension 1 and 2: 696
    # cases.  On seeded elements that are not R-matrices the regular
    # representation, which is faithful, braids exactly when yang_baxter_ok
    # holds, and some of them fail both.
    from f2hopf.reps import enumerate_reps, regular_rep

    rng = random.Random(31)
    cases = 0
    checked = []
    for n in (2, 3, 4):
        dim = classify_dimension(n)
        by_cls = qt_by_class(dim)
        for cls in dim.hopf_classes():
            alg = dim.cat[cls.algebra_label].representative
            regular = regular_rep(alg)
            reps = [regular, *enumerate_reps(alg, 1), *enumerate_reps(alg, 2)]
            rs = {s.r for s in by_cls[(cls.algebra_label, cls.coalgebra_type)]}
            for r in rs:
                for rep in reps:
                    assert braid_ok(rep.images, r, n), (n, cls.algebra_label, r, rep)
                    cases += 1
            bi = Bialgebra(alg, cls.representative.coalg)
            for _ in range(20):
                x = rng.getrandbits(n * n)
                if x not in rs:
                    checked.append((braid_ok(regular.images, x, n), yang_baxter_ok(bi, x)))
    assert cases == 696
    assert all(braids == ybe for braids, ybe in checked)
    assert not all(braids for braids, _ in checked)


def test_antipode_leg_identities():
    for fx in HOPF_FIXTURES_DIM4:
        h = fx.hopf()
        for s in enumerate_quasitriangular(h.bi):
            assert antipode_leg_transform(h, s.r) == s.r_inv, fx.name
            assert both_legs_antipode(h, s.r) == s.r, fx.name


def test_inverse_is_two_sided():
    from f2hopf.structure import TensorProductAlgebra

    for name in ("E.1", "D.2", "NF.2"):
        bi = fixture(name).bialgebra()
        square = TensorProductAlgebra(bi.alg, bi.alg)
        for s in enumerate_quasitriangular(bi):
            assert square.mul_vec(s.r, s.r_inv) == square.eta
            assert square.mul_vec(s.r_inv, s.r) == square.eta


def test_intertwiner_vacuous_when_commutative_and_cocommutative():
    # For commutative algebras with cocommutative coproducts the
    # quasi-commutativity condition contributes no equations at all.
    from f2hopf.qtri import _equations
    from f2hopf.structure import dualize_coalgebra, homomorphism_equations, opposite_product

    nvars = 16
    for fx in HOPF_FIXTURES_DIM4:
        bi = fx.bialgebra()
        comm = catalog(4)[fx.algebra_label].commutative
        cocomm = catalog(4)[fx.coalgebra_type].commutative
        count, eqs = _equations(bi)
        assert count == nvars
        # the intertwiner block is the tail of purely linear equations past
        # the two homomorphism blocks (counit conditions and hexagons)
        dual = dualize_coalgebra(bi.coalg)
        n_structural = sum(len(homomorphism_equations(dual, target, lambda i, j: 4 * i + j))
                           for target in (bi.alg, opposite_product(bi.alg)))
        intertwiner = eqs[n_structural:]
        if comm and cocomm:
            assert intertwiner == [], fx.name
        assert all(not pairs for _, _, pairs in intertwiner)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_product_table_matches_the_factorwise_oracle(n):
    # The equations and structures read off the tensor-square table are
    # those of the factorwise products in TensorProductAlgebra(a, a), on
    # every Hopf class.
    from f2hopf.qtri import _equations

    dim = classify_dimension(n)
    for cls in dim.hopf_classes():
        bi = Bialgebra(dim.cat[cls.algebra_label].representative, cls.representative.coalg)
        assert _equations(bi) == naive_qt_equations(bi), cls
        assert [(s.r, s.r_inv, s.q, s.klass, s.factorisable)
                for s in enumerate_quasitriangular(bi)] == naive_quasitriangular(bi), cls


def test_coquasitriangular_cross_check():
    # direct evaluation == transport from the dual, on the named examples
    for bi in (small_bialgebra("gra"), small_bialgebra("F2(Z2)"),
               fixture("NF.1").bialgebra(), fixture("G.2").bialgebra()):
        assert coquasitriangular_direct(bi) == coquasitriangular_via_dual(bi)


def test_duality_count_consistency():
    # |quasitriangular(H)| = |coquasitriangular(H*)|: the dual of the class
    # of type (A, B*) is the class of type (B, A*), and coquasitriangular
    # structures on it are exactly the quasitriangular structures of its dual.
    dual_pairs = [
        ("D.2", "D.2"), ("D.1", "E.2"), ("E.1", "E.1"), ("E.5", "G.1"),
        ("E.15", "L.6"), ("E.16", "M.2"), ("E.38", "P.1"), ("E.40", "NF.1"),
        ("G.2", "G.2"), ("G.6", "L.11"), ("G.5", "P.3"), ("NF.2", "NF.2"),
    ]
    for name, dual_name in dual_pairs:
        h = fixture(name).bialgebra()
        h_dual = fixture(dual_name).bialgebra()
        assert len(enumerate_quasitriangular(h)) == len(
            coquasitriangular_direct(h_dual)
        ), (name, dual_name)
        assert len(enumerate_quasitriangular(h_dual)) == len(
            coquasitriangular_direct(h)
        ), (name, dual_name)
