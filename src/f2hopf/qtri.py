"""Quasitriangular structures: exhaustive enumeration of universal R-matrices
on each bialgebra, quantum Killing forms, triangular/factorisable
classification, the Yang-Baxter check, and the dual (coquasitriangular)
picture.

R lives in H (x) H as an n^2-bit vector.  The defining hexagon identities
are quadratic XOR equations in the bits of R, and the intertwiner and counit
conditions are linear, so ``kernels.solve_quadratic``, the solve path that
finds coproducts, enumerates all solutions: its elimination step removes the
linear conditions and the backtracker searches what is left.  Invertibility
is decided afterwards by an explicit linear solve in H (x) H.
"""

from __future__ import annotations

from dataclasses import dataclass

from f2hopf import kernels
from f2hopf.classify import ClassifiedDimension
from f2hopf.gf2 import Gf2Mat, Gf2Vec, bits_of, solve_linear
from f2hopf.kernels import Equation
from f2hopf.structure import (
    Bialgebra,
    HopfAlgebra,
    TensorSquareElement,
    tensor_square_multiply,
    unit_tensor_square,
)


@dataclass(frozen=True)
class QuasiTriangularStructure:
    """A universal R-matrix with its inverse, its quantum Killing form and
    its class.

    ``factorisable`` means Q = R21 R is nondegenerate as a map H* -> H
    (f |-> (f (x) id) Q), i.e. its n x n coefficient matrix is invertible;
    this does not depend on the choice of basis.
    """

    r: TensorSquareElement
    r_inv: TensorSquareElement
    q: TensorSquareElement  # quantum Killing form R21 R
    klass: str  # trivial | triangular | strict
    factorisable: bool

    @property
    def trivial(self) -> bool:
        return self.klass == "trivial"

    @property
    def triangular(self) -> bool:
        return self.klass in ("trivial", "triangular")


def _mult_table(b: Bialgebra) -> list[int]:
    """table[p * n^2 + q] = packed product of tensor-square basis elements."""
    a = b.alg
    n = b.n
    nn = n * n
    table = [0] * (nn * nn)
    for p in range(nn):
        n1, r1 = divmod(p, n)
        for q in range(nn):
            n2, r2 = divmod(q, n)
            acc = 0
            for al in bits_of(a.prod(n1, n2)):
                for be in bits_of(a.prod(r1, r2)):
                    acc ^= 1 << (al * n + be)
            table[p * nn + q] = acc
    return table


def _equations(b: Bialgebra):
    """The hexagon, intertwiner and counit conditions as XOR equations over
    the n^2 bits of R (variable mu*n + nu for the x^mu (x) x^nu term)."""
    a, c = b.alg, b.coalg
    n = b.n

    def var(mu, nu):
        return mu * n + nu

    equations = []
    # Counit conditions: eps applied to either leg collapses R to 1.
    for nu in range(n):
        left = Equation(1 if nu == 0 else 0)
        right = Equation(1 if nu == 0 else 0)
        for mu in bits_of(c.eps):
            left.add_var(var(mu, nu))
            right.add_var(var(nu, mu))
        equations += [left.emit(), right.emit()]
    # Hexagon 1: (Delta (x) id) R = R13 R23.
    for al in range(n):
        for be in range(n):
            for rho in range(n):
                eq = Equation()
                for mu in range(n):
                    if (c.cop(mu) >> (al * n + be)) & 1:
                        eq.add_var(var(mu, rho))
                for m in range(n):
                    for v in range(n):
                        if (a.prod(m, v) >> rho) & 1:
                            eq.add_pair(var(al, m), var(be, v))
                equations.append(eq.emit())
    # Hexagon 2: (id (x) Delta) R = R13 R12.
    for mu in range(n):
        for al in range(n):
            for be in range(n):
                eq = Equation()
                for nu in range(n):
                    if (c.cop(nu) >> (al * n + be)) & 1:
                        eq.add_var(var(mu, nu))
                for rho in range(n):
                    for nu in range(n):
                        if (a.prod(nu, rho) >> mu) & 1:
                            eq.add_pair(var(rho, al), var(nu, be))
                equations.append(eq.emit())
    # Intertwiner: R Delta(h) = Delta^cop(h) R, linear in R.
    for rho in range(n):
        for sg in range(n):
            for ta in range(n):
                eq = Equation()
                for mu in range(n):
                    for nu in range(n):
                        coef = 0
                        for t in bits_of(c.cop(rho)):
                            al, be = divmod(t, n)
                            coef ^= ((a.prod(mu, al) >> sg) & 1) & (
                                (a.prod(nu, be) >> ta) & 1
                            )
                            coef ^= ((a.prod(be, mu) >> sg) & 1) & (
                                (a.prod(al, nu) >> ta) & 1
                            )
                        if coef:
                            eq.add_var(var(mu, nu))
                if eq.lin:
                    equations.append(eq.emit())
    return equations


def invert_tensor_square(b: Bialgebra, r_bits: int, table=None) -> int | None:
    """Two-sided inverse of an element of H (x) H, or None."""
    n = b.n
    nn = n * n
    if table is None:
        table = _mult_table(b)
    unit = unit_tensor_square(b.alg).bits
    rows = []
    rhs = 0
    # For each target coefficient, one equation from R X = 1 and one from X R.
    left = [0] * nn  # left[q] = packed product R . e_q
    right = [0] * nn
    for q in range(nn):
        acc_l = 0
        acc_r = 0
        for p in bits_of(r_bits):
            acc_l ^= table[p * nn + q]
            acc_r ^= table[q * nn + p]
        left[q] = acc_l
        right[q] = acc_r
    idx = 0
    for target in range(nn):
        row = 0
        for q in range(nn):
            if (left[q] >> target) & 1:
                row |= 1 << q
        rows.append(row)
        if (unit >> target) & 1:
            rhs |= 1 << idx
        idx += 1
        row = 0
        for q in range(nn):
            if (right[q] >> target) & 1:
                row |= 1 << q
        rows.append(row)
        if (unit >> target) & 1:
            rhs |= 1 << idx
        idx += 1
    sol = solve_linear(Gf2Mat(tuple(rows), nn), Gf2Vec(len(rows), rhs))
    if sol is None:
        return None
    return sol.particular.bits


def swap_legs(r: TensorSquareElement) -> TensorSquareElement:
    n = r.n
    out = 0
    for t in bits_of(r.bits):
        mu, nu = divmod(t, n)
        out |= 1 << (nu * n + mu)
    return TensorSquareElement(n, out)


def killing_form(b: Bialgebra, r: TensorSquareElement) -> TensorSquareElement:
    return tensor_square_multiply(swap_legs(r), r, b.alg)


def classify_r(b: Bialgebra, r: TensorSquareElement, r_inv: TensorSquareElement):
    """Class of R (trivial: R = 1 (x) 1; triangular: Q = R21 R = 1 (x) 1;
    strict otherwise) and whether it is factorisable: Q nondegenerate as a
    map H* -> H, i.e. its coefficient matrix invertible."""
    q = killing_form(b, r)
    unit = unit_tensor_square(b.alg).bits
    if r.bits == unit:
        klass = "trivial"
    elif q.bits == unit:
        klass = "triangular"
    else:
        klass = "strict"
    factorisable = q.matrix().inverse() is not None
    return QuasiTriangularStructure(r, r_inv, q, klass, factorisable)


def enumerate_quasitriangular(b: Bialgebra) -> list[QuasiTriangularStructure]:
    """All quasitriangular structures, ascending by R bit pattern."""
    n = b.n
    table = _mult_table(b)
    out = []
    for bits in kernels.solve_quadratic(n * n, _equations(b)):
        inv = invert_tensor_square(b, bits, table)
        if inv is None:
            continue
        r = TensorSquareElement(n, bits)
        out.append(classify_r(b, r, TensorSquareElement(n, inv)))
    return out


def antipode_leg_transform(h: HopfAlgebra, r: TensorSquareElement) -> TensorSquareElement:
    """(S (x) id) R, which must equal the inverse on a Hopf algebra."""
    n = h.n
    out = 0
    for t in bits_of(r.bits):
        mu, nu = divmod(t, n)
        for i in bits_of(h.s.rows[mu]):
            out ^= 1 << (i * n + nu)
    return TensorSquareElement(n, out)


def both_legs_antipode(h: HopfAlgebra, r: TensorSquareElement) -> TensorSquareElement:
    """(S (x) S) R, invariant for every quasitriangular structure."""
    n = h.n
    out = 0
    for t in bits_of(r.bits):
        mu, nu = divmod(t, n)
        for i in bits_of(h.s.rows[mu]):
            for j in bits_of(h.s.rows[nu]):
                out ^= 1 << (i * n + j)
    return TensorSquareElement(n, out)


# --- Yang-Baxter in H (x) H (x) H ------------------------------------------------


def _triple_multiply(alg, a_bits: int, b_bits: int) -> int:
    n = alg.n
    acc = 0
    for p in bits_of(a_bits):
        a1, rest = divmod(p, n * n)
        b1, c1 = divmod(rest, n)
        for q in bits_of(b_bits):
            a2, rest2 = divmod(q, n * n)
            b2, c2 = divmod(rest2, n)
            for i in bits_of(alg.prod(a1, a2)):
                for j in bits_of(alg.prod(b1, b2)):
                    for k in bits_of(alg.prod(c1, c2)):
                        acc ^= 1 << (i * n * n + j * n + k)
    return acc


def yang_baxter_ok(b: Bialgebra, r: TensorSquareElement) -> bool:
    """R12 R13 R23 == R23 R13 R12 in the triple tensor power (standard form
    assumed, so the unit is basis element 0)."""
    n = b.n
    r12 = 0
    r13 = 0
    r23 = 0
    for t in bits_of(r.bits):
        mu, nu = divmod(t, n)
        r12 |= 1 << (mu * n * n + nu * n)
        r13 |= 1 << (mu * n * n + nu)
        r23 |= 1 << (mu * n + nu)
    lhs = _triple_multiply(b.alg, _triple_multiply(b.alg, r12, r13), r23)
    rhs = _triple_multiply(b.alg, _triple_multiply(b.alg, r23, r13), r12)
    return lhs == rhs


# --- census and the dual picture ---------------------------------------------


def qt_by_class(dim: ClassifiedDimension) -> dict[tuple[str, str], list[QuasiTriangularStructure]]:
    """All quasitriangular structures on each Hopf class, keyed by
    (algebra label, coalgebra type)."""
    out = {}
    for cls in dim.hopf_classes():
        bi = Bialgebra(dim.cat[cls.algebra_label].representative,
                       cls.representative.coalg)
        out[(cls.algebra_label, cls.coalgebra_type)] = enumerate_quasitriangular(bi)
    return out


def qt_pairs(by_class: dict[tuple[str, str], list[QuasiTriangularStructure]]) -> int:
    """Number of (Hopf class, nontrivial R) pairs in a ``qt_by_class`` result."""
    return sum(not s.trivial for structures in by_class.values() for s in structures)


# Coquasitriangular structures: bilinear forms on H (x) H.  In finite
# dimension these are exactly the quasitriangular structures of the dual, so
# the two routes below must agree.


def _cqt_equations(b: Bialgebra):
    """Direct evaluation of the coquasitriangular axioms for the functional
    with values Rf[mu][nu] = R(x^mu (x) x^nu)."""
    a, c = b.alg, b.coalg
    n = b.n

    def var(mu, nu):
        return mu * n + nu

    equations = []
    for mu in range(n):
        # R(x^mu (x) 1) = eps = R(1 (x) x^mu)
        equations.append((((c.eps >> mu) & 1), 1 << var(mu, 0), ()))
        equations.append((((c.eps >> mu) & 1), 1 << var(0, mu), ()))
    for al in range(n):
        for be in range(n):
            for ga in range(n):
                # R(fg (x) h) = R(f (x) h1) R(g (x) h2)
                eq = Equation()
                for tau in bits_of(a.prod(al, be)):
                    eq.add_var(var(tau, ga))
                for t in bits_of(c.cop(ga)):
                    rho, sg = divmod(t, n)
                    eq.add_pair(var(al, rho), var(be, sg))
                equations.append(eq.emit())
                # R(f (x) gh) = R(f1 (x) h) R(f2 (x) g)
                eq = Equation()
                for tau in bits_of(a.prod(be, ga)):
                    eq.add_var(var(al, tau))
                for t in bits_of(c.cop(al)):
                    rho, sg = divmod(t, n)
                    eq.add_pair(var(rho, ga), var(sg, be))
                equations.append(eq.emit())
    # Quasi-commutativity: g1 h1 R(h2 (x) g2) = R(h1 (x) g1) h2 g2.
    for be in range(n):
        for ga in range(n):
            for tp in range(n):
                eq = Equation()
                for tb in bits_of(c.cop(be)):
                    b1, b2 = divmod(tb, n)
                    for tg in bits_of(c.cop(ga)):
                        g1, g2 = divmod(tg, n)
                        if (a.prod(b1, g1) >> tp) & 1:
                            eq.add_var(var(g2, b2))
                        if (a.prod(g2, b2) >> tp) & 1:
                            eq.add_var(var(g1, b1))
                if eq.lin:
                    equations.append(eq.emit())
    return equations


def _convolution_invertible(b: Bialgebra, rf_bits: int) -> bool:
    """Whether the bilinear form has a convolution inverse on H (x) H."""
    c = b.coalg
    n = b.n
    nn = n * n
    rows = []
    rhs = 0
    idx = 0
    eps2 = 0
    for al in range(n):
        for be in range(n):
            if ((c.eps >> al) & 1) and ((c.eps >> be) & 1):
                eps2 |= 1 << (al * n + be)
    for al in range(n):
        for be in range(n):
            row_l = 0
            row_r = 0
            for ta in bits_of(c.cop(al)):
                a1, a2 = divmod(ta, n)
                for tb in bits_of(c.cop(be)):
                    b1, b2 = divmod(tb, n)
                    if (rf_bits >> (a1 * n + b1)) & 1:
                        row_l ^= 1 << (a2 * n + b2)
                    if (rf_bits >> (a2 * n + b2)) & 1:
                        row_r ^= 1 << (a1 * n + b1)
            want = (eps2 >> (al * n + be)) & 1
            rows.append(row_l)
            rhs |= want << idx
            idx += 1
            rows.append(row_r)
            rhs |= want << idx
            idx += 1
    return solve_linear(Gf2Mat(tuple(rows), nn), Gf2Vec(len(rows), rhs)) is not None


def coquasitriangular_direct(b: Bialgebra) -> list[int]:
    """All coquasitriangular forms by direct evaluation of the axioms,
    ascending as packed functionals Rf[mu][nu] at bit mu*n + nu."""
    n = b.n
    out = []
    for bits in kernels.solve_quadratic(n * n, _cqt_equations(b)):
        if _convolution_invertible(b, bits):
            out.append(bits)
    return out
