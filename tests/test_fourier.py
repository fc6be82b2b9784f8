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
    assert i.bits == parse_element(want_i, BASIS_NAMES[h.n])
    assert f.rows == want_f.rows
    assert fs.rows == f.rows  # all of these are commutative


def test_grassmann_fourier_squares_to_identity():
    h = small_hopf("gra")
    _, f, _ = fourier_matrices(h)
    assert (f * f).is_identity()


def test_z2_transports_mutually_inverse():
    _, f_ab = FOURIER_SMALL["F2Z2"][1], FOURIER_SMALL["F2Z2"][1]
    f_ba = FOURIER_SMALL["F2(Z2)"][1]
    assert (f_ab * f_ba).is_identity()
    assert (f_ba * f_ab).is_identity()


def test_z3_composite_is_antipode():
    f = FOURIER_SMALL["F2Z3"][1]
    s = solve_antipode(small_hopf("F2Z3").bi)
    assert (f * f).rows == s.rows
    assert (f * f * f * f).is_identity()


def test_all_fixture_rows_bit_exact():
    for fx in HOPF_FIXTURES_DIM4:
        h = fx.hopf()
        i, f, fs = fourier_matrices(h)
        assert i.bits == fx.integral, fx.name
        assert f.rows == fx.fourier.rows, fx.name
        t = transport_matrix(h, fx.dual_basis)
        assert t.rows == fx.transport.rows, fx.name
        assert (f.rows == fs.rows) == catalog(4)[fx.algebra_label].commutative


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
            assert i.bits
            lam = right_cointegral(h)
            assert lam.bits
            _, f, _ = fourier_matrices(h)
            assert f.inverse() is not None


def test_fourier_degenerates_on_non_hopf():
    # The projector bialgebra still has a one-dimensional right-integral
    # space, but the Fourier matrix it induces is singular: the transform
    # only inverts on genuine Hopf algebras.
    from f2hopf.gf2 import Gf2Mat

    proj = Bialgebra(
        catalog(2)["B"].representative,
        coalgebra_from_terms(BASIS_NAMES[2], "1+x", x="x.x"),
    )
    h = HopfAlgebra(proj, Gf2Mat.identity(2))  # placeholder antipode
    assert right_integral(h).coords() == (1, 0)
    with pytest.raises(IntegralError):
        fourier_matrices(h)


def test_self_dual_published_operators():
    for label, (m, order) in SELF_DUAL_FOURIER.items():
        assert m.order() == order, label


def test_transport_orders_self_dual_commutative():
    # The engine's own transports for the three self-dual commutative classes
    # square to the identity; the noncommutative self-dual one has order 4
    # (its published operator differs by the identification choice).
    by_type = {(fx.algebra_label, fx.coalgebra_type): fx for fx in HOPF_FIXTURES_DIM4}
    for label in ("D", "E", "G"):
        fx = by_type[(label, label)]
        assert (fx.transport * fx.transport).is_identity(), label
    assert by_type[("NF", "NF")].transport.order() == 4


def test_dsl2_presentation_transport_consistent():
    from f2hopf.golden import DSL2_TO_STANDARD, PAIRINGS

    h = dsl2_presentation()
    _, f, _ = fourier_matrices(h)
    t = f * PAIRINGS["d_sl2"].inverse()
    nf2 = next(fx for fx in HOPF_FIXTURES_DIM4 if fx.name == "NF.2")
    b = DSL2_TO_STANDARD
    assert (b * nf2.transport * b.inverse()).rows == t.rows
    assert t.order() == 4


def test_holonomies():
    transports = {}
    for fx in HOPF_FIXTURES_DIM4:
        transports[(fx.algebra_label, fx.coalgebra_type)] = transport_matrix(
            fx.hopf(), fx.dual_basis
        )
    for cycle, want, order in zip(HOLONOMY_CYCLES, HOLONOMY_MATRICES, HOLONOMY_ORDERS):
        m, got_order = holonomy([transports[a] for a in cycle])
        assert m.rows == want.rows
        assert got_order == order
    # the long cycle is the product of the two short ones
    m1, _ = holonomy([transports[a] for a in HOLONOMY_CYCLES[0]])
    m2, _ = holonomy([transports[a] for a in HOLONOMY_CYCLES[1]])
    m3, _ = holonomy([transports[a] for a in HOLONOMY_CYCLES[2]])
    assert (m1 * m2).rows == m3.rows


def test_round_trip_cocommutative_is_antipode():
    for kind in ("gra", "F2Z2", "F2(Z2)", "F2Z3", "F2(Z3)"):
        h = small_hopf(kind)
        assert canonical_round_trip(h).rows == h.s.rows
    for fx in HOPF_FIXTURES_DIM4:
        h = fx.hopf()
        cocommutative = catalog(4)[fx.coalgebra_type].commutative
        trip = canonical_round_trip(h)
        assert (trip.rows == fx.antipode.rows) == cocommutative, fx.name


def test_adjoint_round_trip_is_antipode_everywhere():
    for fx in HOPF_FIXTURES_DIM4:
        h = fx.hopf()
        assert adjoint_round_trip(h).rows == fx.antipode.rows, fx.name
    for kind in ("gra", "F2Z2", "F2Z3"):
        h = small_hopf(kind)
        assert adjoint_round_trip(h).rows == h.s.rows


def test_computed_identification_mode():
    # The deterministic isomorphism search succeeds for every Hopf class and
    # gives an invertible transport.
    for fx in HOPF_FIXTURES_DIM4:
        h = fx.hopf()
        data = fourier_data(h)
        assert data.transport.inverse() is not None
        target = catalog(4)[fx.coalgebra_type].representative
        ident = computed_identification(h.coalg, target)
        assert ident.rows == data.dual_identification.rows


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
            assert computed_identification(coalg, target).rows == want.rows
            assert isomorphisms(dualize_coalgebra(coalg), target)[0].rows == want.rows
