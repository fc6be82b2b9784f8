import pytest

from f2hopf.catalog import BASIS_NAMES, catalog, isomorphisms
from f2hopf.classify import classify_dimension
from f2hopf.fourier import (
    IntegralError,
    adjoint_round_trip,
    canonical_round_trip,
    computed_identification,
    fourier_data,
    fourier_matrices,
    holonomy,
    right_cointegral,
    right_integral,
    transport_matrix,
)
from f2hopf.gf2 import mat_inv_rows, mat_mul_rows, mat_order_rows
from f2hopf.golden import (
    COPRODUCTS_DIM3,
    FOURIER_SMALL,
    HOLONOMY_CYCLES,
    HOLONOMY_MATRICES,
    HOLONOMY_ORDERS,
    HOPF_FIXTURES_DIM4,
    SELF_DUAL_FOURIER,
    coalgebra_from_terms,
    dsl2_presentation,
    parse_element,
)
from f2hopf.structure import Bialgebra, HopfAlgebra, dualize_coalgebra, solve_antipode


def small_hopf(kind):
    if kind == "gra":
        alg = catalog(2)["A"].representative
        coalg = coalgebra_from_terms(BASIS_NAMES[2], "1", x="1.x x.1")
    elif kind == "F2Z2":
        alg = catalog(2)["A"].representative
        coalg = coalgebra_from_terms(BASIS_NAMES[2], "1", x="1.x x.1 x.x")
    elif kind == "F2(Z2)":
        alg = catalog(2)["B"].representative
        coalg = coalgebra_from_terms(BASIS_NAMES[2], "1", x="1.x x.1")
    elif kind == "F2Z3":
        e = next(x for x in COPRODUCTS_DIM3 if x.name == "D.1")
        alg = catalog(3)["D"].representative
        coalg = e.coalg
    elif kind == "F2(Z3)":
        e = next(x for x in COPRODUCTS_DIM3 if x.name == "B.4")
        alg = catalog(3)["B"].representative
        coalg = e.coalg
    else:
        raise KeyError(kind)
    bi = Bialgebra(alg, coalg)
    return HopfAlgebra(bi, solve_antipode(bi))


@pytest.mark.parametrize("kind", sorted(FOURIER_SMALL))
def test_small_integral_and_fourier(kind):
    h = small_hopf(kind)
    want_i, want_f = FOURIER_SMALL[kind]
    i, f, fs = fourier_matrices(h)
    assert i == parse_element(want_i, BASIS_NAMES[h.n])
    assert f == want_f
    assert fs == f  # all of these are commutative


def test_grassmann_fourier_squares_to_identity():
    h = small_hopf("gra")
    _, f, _ = fourier_matrices(h)
    assert mat_mul_rows(f, f) == (1, 2)


def test_z2_transports_mutually_inverse():
    _, f_ab = FOURIER_SMALL["F2Z2"][1], FOURIER_SMALL["F2Z2"][1]
    f_ba = FOURIER_SMALL["F2(Z2)"][1]
    assert mat_mul_rows(f_ab, f_ba) == (1, 2)
    assert mat_mul_rows(f_ba, f_ab) == (1, 2)


def test_z3_composite_is_antipode():
    f = FOURIER_SMALL["F2Z3"][1]
    s = solve_antipode(small_hopf("F2Z3").bi)
    assert mat_mul_rows(f, f) == s
    assert mat_mul_rows(s, s) == (1, 2, 4)


def test_all_fixture_rows_bit_exact():
    for fx in HOPF_FIXTURES_DIM4:
        h = fx.hopf()
        i, f, fs = fourier_matrices(h)
        assert i == fx.integral, fx.name
        assert f == fx.fourier, fx.name
        t = transport_matrix(h, fx.dual_basis)
        assert t == fx.transport, fx.name
        assert (f == fs) == catalog(4)[fx.algebra_label].commutative


def test_integral_space_one_dimensional_everywhere():
    for n in (2, 3, 4):
        dim = classify_dimension(n)
        for cls in dim.hopf_classes():
            h = HopfAlgebra(
                Bialgebra(dim.cat[cls.algebra_label].representative,
                          cls.representative.coalg),
                cls.representative.antipode,
            )
            i = right_integral(h)  # raises unless dimension exactly one
            assert i
            lam = right_cointegral(h)
            assert lam
            _, f, _ = fourier_matrices(h)
            assert mat_inv_rows(f, n) is not None


def test_fourier_degenerates_on_non_hopf():
    # The projector bialgebra still has a one-dimensional right-integral
    # space, but the Fourier matrix it induces is singular: the transform
    # only inverts on genuine Hopf algebras.
    proj = Bialgebra(
        catalog(2)["B"].representative,
        coalgebra_from_terms(BASIS_NAMES[2], "1+x", x="x.x"),
    )
    h = HopfAlgebra(proj, (1, 2))  # placeholder antipode
    assert right_integral(h) == 0b01
    with pytest.raises(IntegralError):
        fourier_matrices(h)


def test_self_dual_published_operators():
    for label, (m, order) in SELF_DUAL_FOURIER.items():
        assert mat_order_rows(m) == order, label


def test_transport_orders_self_dual_commutative():
    # The engine's own transports for the three self-dual commutative classes
    # square to the identity; the noncommutative self-dual one has order 4
    # (its published operator differs by the identification choice).
    by_type = {(fx.algebra_label, fx.coalgebra_type): fx for fx in HOPF_FIXTURES_DIM4}
    for label in ("D", "E", "G"):
        fx = by_type[(label, label)]
        assert mat_mul_rows(fx.transport, fx.transport) == (1, 2, 4, 8), label
    assert mat_order_rows(by_type[("NF", "NF")].transport) == 4


def test_dsl2_presentation_transport_consistent():
    from f2hopf.golden import DSL2_TO_STANDARD, PAIRINGS

    h = dsl2_presentation()
    _, f, _ = fourier_matrices(h)
    t = mat_mul_rows(f, mat_inv_rows(PAIRINGS["d_sl2"], 4))
    nf2 = next(fx for fx in HOPF_FIXTURES_DIM4 if fx.name == "NF.2")
    b = DSL2_TO_STANDARD
    assert mat_mul_rows(mat_mul_rows(b, nf2.transport), mat_inv_rows(b, 4)) == t
    assert mat_order_rows(t) == 4


def test_holonomies():
    transports = {}
    for fx in HOPF_FIXTURES_DIM4:
        transports[(fx.algebra_label, fx.coalgebra_type)] = transport_matrix(
            fx.hopf(), fx.dual_basis
        )
    for cycle, want, order in zip(HOLONOMY_CYCLES, HOLONOMY_MATRICES, HOLONOMY_ORDERS):
        m, got_order = holonomy([transports[a] for a in cycle])
        assert m == want
        assert got_order == order
    # the long cycle is the product of the two short ones
    m1, _ = holonomy([transports[a] for a in HOLONOMY_CYCLES[0]])
    m2, _ = holonomy([transports[a] for a in HOLONOMY_CYCLES[1]])
    m3, _ = holonomy([transports[a] for a in HOLONOMY_CYCLES[2]])
    assert mat_mul_rows(m1, m2) == m3


def test_round_trip_cocommutative_is_antipode():
    for kind in ("gra", "F2Z2", "F2(Z2)", "F2Z3", "F2(Z3)"):
        h = small_hopf(kind)
        assert canonical_round_trip(h) == h.s
    for fx in HOPF_FIXTURES_DIM4:
        h = fx.hopf()
        cocommutative = catalog(4)[fx.coalgebra_type].commutative
        trip = canonical_round_trip(h)
        assert (trip == fx.antipode) == cocommutative, fx.name


def test_adjoint_round_trip_is_antipode_everywhere():
    for fx in HOPF_FIXTURES_DIM4:
        h = fx.hopf()
        assert adjoint_round_trip(h) == fx.antipode, fx.name
    for kind in ("gra", "F2Z2", "F2Z3"):
        h = small_hopf(kind)
        assert adjoint_round_trip(h) == h.s


def test_computed_identification_mode():
    # The deterministic isomorphism search succeeds for every Hopf class and
    # gives an invertible transport.
    for fx in HOPF_FIXTURES_DIM4:
        h = fx.hopf()
        data = fourier_data(h)
        assert mat_inv_rows(data.transport, 4) is not None
        target = catalog(4)[fx.coalgebra_type].representative
        ident = computed_identification(h.coalg, target)
        assert ident == data.dual_identification


def test_computed_identification_matches_the_gl_scan():
    # For every Hopf class of n = 2..4 the homomorphism solve finds the same
    # isomorphism as the exhaustive GL(n) scan: the lexicographically first.
    from reference import naive_identification

    for n in (2, 3, 4):
        dim = classify_dimension(n)
        for cls in dim.hopf_classes():
            coalg = cls.representative.coalg
            target = dim.cat[cls.coalgebra_type].representative
            want = naive_identification(coalg, target)
            assert computed_identification(coalg, target) == want
            assert isomorphisms(dualize_coalgebra(coalg), target)[0] == want
