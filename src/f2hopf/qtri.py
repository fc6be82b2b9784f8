"""Quasitriangular structures: exhaustive enumeration of universal R-matrices
on each bialgebra, quantum Killing forms, triangular/factorisable
classification, the Yang-Baxter check, and the dual (coquasitriangular)
picture.

R lives in H (x) H as an n^2-bit vector.  The counit and hexagon
identities say that its legs are algebra maps (``_equations``), quadratic
XOR equations in the bits of R, and the intertwiner conditions are linear,
so ``kernels.solve_quadratic``, the solve path that finds coproducts,
enumerates all solutions: its elimination step removes the linear
conditions and the backtracker searches what is left.  Every product,
unit and inverse in H (x) H, H (x) H (x) H and (H (x) H)* is read from a
``structure.TensorProductAlgebra``, from its table of basis products; the
square is ``structure.tensor_square``, built once per algebra, and the cube
is the square tensored with H.  Invertibility is
``structure.algebra_inverse`` in each.
"""

from __future__ import annotations

from f2hopf import kernels
from f2hopf.classify import ClassifiedDimension
from f2hopf.gf2 import Gf2Mat, bits_of, value_type
from f2hopf.kernels import Equation
from f2hopf.structure import (
    Bialgebra,
    TensorProductAlgebra,
    TensorSquareElement,
    algebra_inverse,
    dualize_coalgebra,
    homomorphism_equations,
    opposite_coproduct,
    opposite_product,
    tensor_square,
)


@value_type
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


def _equations(b: Bialgebra) -> tuple[int, list[tuple]]:
    """The counit, hexagon and intertwiner conditions as (number of
    variables, equations) over the n^2 bits of R, variable mu*n + nu for the
    x^mu (x) x^nu term.  With D = H* on the dual basis, the counit conditions
    and hexagons say that f |-> (f (x) id) R is an algebra map D -> H
    ((Delta (x) id) R = R13 R23) and g |-> (id (x) g) R an anti-algebra map
    ((id (x) Delta) R = R13 R12)."""
    a, c = b.alg, b.coalg
    n = b.n

    def var(mu, nu):
        return mu * n + nu

    dual = dualize_coalgebra(c)
    equations = homomorphism_equations(dual, a, var)
    equations += homomorphism_equations(dual, opposite_product(a), lambda i, j: var(j, i))
    # Intertwiner: R Delta(h) = Delta^cop(h) R, linear in R.  Column
    # var(mu, nu) of the block for h = x^rho is the coefficient vector of
    # (x^mu (x) x^nu) Delta(h) + Delta^cop(h) (x^mu (x) x^nu): entries of
    # row var(mu, nu) and of its column in the tensor-square table.
    table = tensor_square(a).table
    cop = opposite_coproduct(c)
    for rho in range(n):
        right = list(bits_of(c.cop(rho)))
        left = [table[u] for u in bits_of(cop.cop(rho))]
        cols = []
        for v, row in enumerate(table):
            col = 0
            for w in right:
                col ^= row[w]
            for row_u in left:
                col ^= row_u[v]
            cols.append(col)
        for lin in Gf2Mat(tuple(cols), n * n).transpose().rows:
            if lin:
                equations.append((0, lin, ()))
    return n * n, equations


def swap_legs(r: TensorSquareElement) -> TensorSquareElement:
    n = r.n
    out = 0
    for t in bits_of(r.bits):
        mu, nu = divmod(t, n)
        out |= 1 << (nu * n + mu)
    return TensorSquareElement(n, out)


def killing_form(b: Bialgebra, r: TensorSquareElement) -> TensorSquareElement:
    return TensorSquareElement(r.n, tensor_square(b.alg).mul_vec(swap_legs(r).bits, r.bits))


def classify_r(b: Bialgebra, r: TensorSquareElement, r_inv: TensorSquareElement):
    """Class of R (trivial: R = 1 (x) 1; triangular: Q = R21 R = 1 (x) 1;
    strict otherwise) and whether it is factorisable: Q nondegenerate as a
    map H* -> H, i.e. its coefficient matrix invertible."""
    q = killing_form(b, r)
    unit = tensor_square(b.alg).eta
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
    square = tensor_square(b.alg)
    out = []
    for bits in kernels.solve_quadratic(*_equations(b)):
        inv = algebra_inverse(square, bits)
        if inv is None:
            continue
        r = TensorSquareElement(n, bits)
        out.append(classify_r(b, r, TensorSquareElement(n, inv)))
    return out


# --- Yang-Baxter in H (x) H (x) H ------------------------------------------------


def yang_baxter_ok(b: Bialgebra, r: TensorSquareElement) -> bool:
    """R12 R13 R23 == R23 R13 R12 in H (x) H (x) H, whose basis element
    (i*n + j)*n + k is x^i (x) x^j (x) x^k (standard form assumed, so the
    unit is basis element 0)."""
    n = b.n
    cube = TensorProductAlgebra(tensor_square(b.alg), b.alg)
    r12 = 0
    r13 = 0
    r23 = 0
    for t in bits_of(r.bits):
        mu, nu = divmod(t, n)
        r12 |= 1 << (mu * n * n + nu * n)
        r13 |= 1 << (mu * n * n + nu)
        r23 |= 1 << (mu * n + nu)
    return (cube.mul_vec(cube.mul_vec(r12, r13), r23)
            == cube.mul_vec(cube.mul_vec(r23, r13), r12))


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


def _cqt_equations(b: Bialgebra) -> tuple[int, list[tuple]]:
    """Direct evaluation of the coquasitriangular axioms for the functional
    with values Rf[mu][nu] = R(x^mu (x) x^nu), as (number of variables,
    equations).  With D = H* on the dual basis, the unit conditions say
    with R(fg (x) h) = R(f (x) h1) R(g (x) h2) that h |-> R(h (x) -) is an
    algebra map H -> D, and with R(f (x) gh) = R(f1 (x) h) R(f2 (x) g) that
    h |-> R(- (x) h) is an anti-algebra map."""
    a, c = b.alg, b.coalg
    n = b.n

    def var(mu, nu):
        return mu * n + nu

    dual = dualize_coalgebra(c)
    equations = homomorphism_equations(a, dual, var)
    equations += homomorphism_equations(a, opposite_product(dual), lambda i, j: var(j, i))
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
    return n * n, equations


def coquasitriangular_direct(b: Bialgebra) -> list[int]:
    """All coquasitriangular forms by direct evaluation of the axioms,
    ascending as packed functionals Rf[mu][nu] at bit mu*n + nu.

    A form must be convolution-invertible on H (x) H; convolution on
    (H (x) H)* is the product of H* (x) H*, on the dual basis."""
    dual = dualize_coalgebra(b.coalg)
    square = TensorProductAlgebra(dual, dual)
    return [bits for bits in kernels.solve_quadratic(*_cqt_equations(b))
            if algebra_inverse(square, bits) is not None]
