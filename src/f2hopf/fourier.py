"""Right integrals, Fourier transforms, transport along the quiver, and
holonomy composition.

The transform F maps H to its dual; composing with an identification of the
dual basis with the standard basis of the target algebra gives a 'transport'
matrix attached to the quiver arrow.  Identifications come in two modes:
'computed' (lexicographically smallest algebra isomorphism, deterministic,
read off the solutions of the homomorphism equations rather than a scan of
GL(n)) and 'fixture' (the frozen identifications shipped with the golden
data).
"""

from __future__ import annotations


from f2hopf.catalog import catalog, isomorphisms
from f2hopf.gf2 import Gf2Mat, Gf2Vec, solve_linear, value_type
from f2hopf.structure import (
    AlgebraSC,
    CoalgebraSC,
    HopfAlgebra,
    dual_bialgebra_raw,
    dualize_coalgebra,
)


class IntegralError(RuntimeError):
    """The right-integral system does not have a one-dimensional solution
    space; the input is not a Hopf algebra in the expected sense."""


def _right_integral(a: AlgebraSC, chi: int, name: str) -> Gf2Vec:
    """The unique nonzero L in a with L e_beta = chi(e_beta) L for every
    basis element e_beta, for the character chi given as a bit vector."""
    n = a.n
    rows = []
    for beta in range(n):
        for mu in range(n):
            row = 0
            for alpha in range(n):
                if (a.prod(alpha, beta) >> mu) & 1:
                    row ^= 1 << alpha
            if (chi >> beta) & 1:
                row ^= 1 << mu
            rows.append(row)
    sol = solve_linear(Gf2Mat(tuple(rows), n), Gf2Vec(len(rows), 0))
    if sol is None or len(sol.nullspace) != 1:
        raise IntegralError(f"{name} space is not one-dimensional")
    return sol.nullspace[0]


def right_integral(h: HopfAlgebra) -> Gf2Vec:
    """The unique nonzero right integral: (I (x) id) Delta = 1 . I, that is
    I e_beta = e_beta(1) I in the dual algebra H*."""
    return _right_integral(dualize_coalgebra(h.coalg), h.alg.eta, "right-integral")


def right_cointegral(h: HopfAlgebra) -> Gf2Vec:
    """The unique nonzero element L with L h = eps(h) L for all h."""
    return _right_integral(h.alg, h.coalg.eps, "right-cointegral")


@value_type
class FourierData:
    """Fourier matrix F, adjoint F#, the dual-basis identification and the
    resulting transport onto the target algebra's standard basis."""

    integral: Gf2Vec
    f: Gf2Mat
    f_sharp: Gf2Mat
    dual_identification: Gf2Mat
    transport: Gf2Mat


def fourier_matrices(h: HopfAlgebra) -> tuple[Gf2Vec, Gf2Mat, Gf2Mat]:
    """(integral, F, F#) with F[mu][nu] = integral of x^nu x^mu and the
    adjoint F#[mu][nu] = integral of x^mu x^nu, which is F transposed; F is
    checked invertible."""
    a = h.alg
    n = h.n
    i = right_integral(h)
    f_rows = []
    for mu in range(n):
        row = 0
        for nu in range(n):
            if (a.prod(nu, mu) & i.bits).bit_count() & 1:
                row |= 1 << nu
        f_rows.append(row)
    f = Gf2Mat(tuple(f_rows), n)
    if f.inverse() is None:
        raise IntegralError("Fourier matrix is singular")
    return i, f, f.transpose()


def computed_identification(coalg: CoalgebraSC, target: AlgebraSC) -> Gf2Mat:
    """Lexicographically smallest algebra isomorphism from the dual algebra
    of the coalgebra (on the dual basis) onto the target standard form.

    Row mu of the result expresses the dual basis element y_mu in the
    target's standard basis.  The isomorphisms are the invertible solutions
    of the homomorphism equations (``catalog.isomorphisms``).
    """
    found = isomorphisms(dualize_coalgebra(coalg), target)
    if not found:
        raise RuntimeError("dual algebra is not isomorphic to the target")
    return found[0]


def transport_matrix(h: HopfAlgebra, identification: Gf2Mat) -> Gf2Mat:
    """Transport = F composed with the dual-basis identification."""
    _, f, _ = fourier_matrices(h)
    return f * identification


def fourier_data(h: HopfAlgebra, identification: Gf2Mat | None = None) -> FourierData:
    i, f, fs = fourier_matrices(h)
    if identification is None:
        from f2hopf.coproducts import coalgebra_type

        target_label = coalgebra_type(h.coalg)
        identification = computed_identification(
            h.coalg, catalog(h.n)[target_label].representative
        )
    return FourierData(i, f, fs, identification, f * identification)


def holonomy(transports: list[Gf2Mat]) -> tuple[Gf2Mat, int]:
    """Ordered product of transport matrices along a composable path, with
    its multiplicative order."""
    acc = transports[0]
    for t in transports[1:]:
        acc = acc * t
    return acc, acc.order()


def _dual_hopf(h: HopfAlgebra) -> HopfAlgebra:
    """H* on the dual basis: its right integral is H's right cointegral."""
    return HopfAlgebra(dual_bialgebra_raw(h.bi), h.s.transpose())


def dual_transport_back(h: HopfAlgebra) -> Gf2Mat:
    """The Fourier transform of the dual Hopf algebra, written as a map from
    the dual basis back to the original basis (no identification choices).

    Row mu is F_{H*}(y_mu) expressed in the x basis; its (mu, nu) entry is
    the cointegral paired against y_nu y_mu.
    """
    return fourier_matrices(_dual_hopf(h))[1]


def canonical_round_trip(h: HopfAlgebra) -> Gf2Mat:
    """F followed by the dual Fourier transform, identifying the double dual
    with the original space through the canonical dual-basis pairing.

    Equals the antipode whenever the coproduct is cocommutative.
    """
    _, f, _ = fourier_matrices(h)
    return f * dual_transport_back(h)


def adjoint_dual_transport_back(h: HopfAlgebra) -> Gf2Mat:
    """The adjoint Fourier transform of the dual (reversed multiplication
    order in the integrand), as a map from the dual basis back to H: the
    transpose of ``dual_transport_back``."""
    return fourier_matrices(_dual_hopf(h))[2]


def adjoint_round_trip(h: HopfAlgebra) -> Gf2Mat:
    """F followed by the adjoint transform of the dual; equals the antipode
    for every finite-dimensional Hopf algebra here (checked exhaustively)."""
    _, f, _ = fourier_matrices(h)
    return f * adjoint_dual_transport_back(h)
