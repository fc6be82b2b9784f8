"""For a fixed algebra, every coalgebra structure making it a bialgebra.

The counits are the unital algebra maps H -> F2.  Each counit eps that is
searched is solved after the basis change P_eps of ``counit_basis``,
z_0 = x^0 and z_k = x^k + eps(x^k) x^0: P_eps is its own inverse, keeps
the algebra in standard form and turns eps into e^0.  In that basis
Delta(1) = 1 (x) 1 and the counit laws pin every bit of the coproduct
tensor with an index 0, and coassociativity and compatibility (Delta an
algebra map) are stated over the (n-1)^3 bits of the reduced coproduct on
ker eps, so no product in the system names a pinned bit
(``_coproduct_equations``).  The system is solved by
``kernels.solve_quadratic``, whose elimination step removes the linear
equations before the backtracker searches the remaining bits, and each
solution is carried back by P_eps with ``kernels.coproduct_orbit``.

An automorphism p of the algebra is a basis change that leaves the algebra
unchanged, so it carries bialgebras to bialgebras: the coproduct by
``kernels.coproduct_orbit``, the one implementation of that basis change
(reading tables that ``kernels.coproduct_change`` builds once per
automorphism and solve), the counit eps to P eps, the antipode S to
p S p^-1, and the coalgebra type unchanged.  So each solution a search finds
is expanded to its whole orbit, which is its bialgebra class, and is
annotated once, with its coalgebra type and its antipode (or None); every
image takes them along.  A counit that is the counit of such an image is
never searched, so only one counit per orbit of the automorphism group is
(a counit with no solutions covers no other).  On algebra P (F2^4) the four
counits form one orbit, and the densest of their systems is never searched.

The solution set keeps the partition these orbits make: each solution
records the index of its class representative, the smallest member.  The
run cache stores it with the records, so classification never expands an
orbit again.
"""

from __future__ import annotations

from functools import lru_cache

from f2hopf import kernels
from f2hopf.catalog import _catalog_label, automorphism_group, identify_algebra
from f2hopf.gf2 import (
    bits_of,
    mat_mul_rows,
    parity,
    set_field,
    spread_table,
    value_type,
)
from f2hopf.kernels import Equation
from f2hopf.structure import (
    AlgebraSC,
    Bialgebra,
    CoalgebraSC,
    dualize_coalgebra,
    homomorphism_equations,
    solve_antipode,
)


def enumerate_counits(a: AlgebraSC) -> list[int]:
    """All counit vectors, ascending: the unital algebra maps a -> F2."""
    if not a.is_standard:
        raise ValueError("expects standard form")
    return kernels.solve_quadratic(
        a.n, homomorphism_equations(a, AlgebraSC(1, 1), lambda i, j: i))


def counit_basis(n: int, eps: int) -> tuple[int, ...]:
    """Rows of the basis change P_eps: z_0 = x^0 and
    z_k = x^k + eps(x^k) x^0.  P_eps is its own inverse, keeps the unit at
    z_0 and turns the counit eps into e^0."""
    return tuple((1 << k) | ((eps >> k) & 1) for k in range(n))


def _coproduct_equations(a: AlgebraSC, eps: int) -> tuple[int, list[tuple]]:
    """Bialgebra constraints on (a, eps) as XOR equations over the coproduct
    tensor in the basis z of ``counit_basis``, as (number of variables,
    equations).

    Variable mu*n^2 + nu*n + rho is bit C[mu][nu][rho] of the packed tensor
    in that basis, so a solution mask is the tensor; P_eps carries it back.
    There the counit is e^0, so Delta(1) = 1 (x) 1 and the counit laws fix
    every bit with an index 0, one pin per bit.  The rest is stated over the
    reduced coproduct D on ker eps, spanned by z_1..z_(n-1):
    Delta(x) = x (x) 1 + 1 (x) x + D(x), and D is coassociative and obeys

        D(xy) = x (x) y + y (x) x + D(x)(y (x) 1 + 1 (x) y)
                + (x (x) 1 + 1 (x) x) D(y) + D(x) D(y),

    one equation per (x, y) = (z_p, z_q) and coefficient z_al (x) z_be, all
    indices at least 1 (ker eps is an ideal, so nothing leaves ker eps (x)
    ker eps).  No equation names a pinned bit.  A commutative algebra states
    only p <= q: the equations of (z_q, z_p) are the same.  The pins and
    coassociativity depend on n alone and are built once per n
    (``_reduced_laws``); compatibility reads tables of the product in the
    basis z.
    """
    n = a.n
    nn = n * n
    p_eps = counit_basis(n, eps)
    b = AlgebraSC(n, kernels.transform_product(a.v, n, p_eps))
    ker = range(1, n)
    prod = [[b.prod(x, y) for y in range(n)] for x in range(n)]
    # target[al]: the (nu, nu2) with coefficient al in z_nu z_nu2;
    # left[x][al] and right[x][al]: the nu (a mask) with coefficient al in
    # z_x z_nu and in z_nu z_x.
    target = [[] for _ in range(n)]
    left = [[0] * n for _ in range(n)]
    right = [[0] * n for _ in range(n)]
    for x in ker:
        for y in ker:
            for al in bits_of(prod[x][y]):
                target[al].append((x, y))
                left[x][al] |= 1 << y
                right[y][al] |= 1 << x
    spread = spread_table(n)
    # slices[m]: bit s*nn for each bit s of m.
    slices = [0]
    for s in range(n):
        slices += [w | 1 << (s * nn) for w in slices]
    # terms[al][be]: D(z_p) D(z_q) at z_al (x) z_be, as the products of
    # bit nu*n + rho of D(z_p) and bit nu2*n + rho2 of D(z_q); diagonal[al][be]:
    # the same for p = q, as an ``Equation``, which folds x_t x_t into x_t
    # and cancels a product listed twice.
    terms = [[[(nu * n + rho, nu2 * n + rho2) for nu, nu2 in target[al]
               for rho, rho2 in target[be]] for be in range(n)] for al in range(n)]
    diagonal = [[Equation() for _ in range(n)] for _ in range(n)]
    for al in range(n):
        for be in range(n):
            for t, t2 in terms[al][be]:
                diagonal[al][be].add_pair(t, t2)
    equations = list(_reduced_laws(n))
    for p in ker:
        for q in range(p, n) if a.commutative else ker:
            for al in ker:
                for be in ker:
                    lin = ((slices[prod[p][q]] << (al * n + be))
                           ^ (spread[right[q][al]] << (p * nn + be))
                           ^ (right[q][be] << (p * nn + al * n))
                           ^ (spread[left[p][al]] << (q * nn + be))
                           ^ (left[p][be] << (q * nn + al * n)))
                    const = (p == al and q == be) ^ (q == al and p == be)
                    if p < q:
                        pairs = [(p * nn + t, q * nn + t2) for t, t2 in terms[al][be]]
                    elif p > q:
                        pairs = [(q * nn + t2, p * nn + t) for t, t2 in terms[al][be]]
                    else:
                        _, square, folded = diagonal[al][be].emit()
                        lin ^= square << (p * nn)
                        pairs = [(p * nn + t, p * nn + t2) for t, t2 in folded]
                    equations.append((int(const), lin, tuple(pairs)))
    return n * nn, equations


@lru_cache(maxsize=None)
def _reduced_laws(n: int) -> tuple[tuple, ...]:
    """The equations of ``_coproduct_equations`` that depend on n alone: the
    pins of the bits with an index 0 (C[mu][nu][rho] is 1 exactly when
    nu = 0 and mu = rho, or rho = 0 and mu = nu), then coassociativity of
    the reduced coproduct, one equation per (mu, a, b, c) for coefficient
    z_a (x) z_b (x) z_c of (D (x) id) D(z_mu) = (id (x) D) D(z_mu)."""
    nn = n * n
    equations = []
    for mu in range(n):
        for nu in range(n):
            for rho in range(n):
                if 0 in (mu, nu, rho):
                    one = (nu == 0 and mu == rho) or (rho == 0 and mu == nu)
                    equations.append((int(one), 1 << (mu * nn + nu * n + rho), ()))
    ker = range(1, n)
    for mu in ker:
        for a in ker:
            for b in ker:
                for c in ker:
                    eq = Equation()
                    for lam in ker:
                        eq.add_pair(lam * nn + a * n + b, mu * nn + lam * n + c)
                        eq.add_pair(lam * nn + b * n + c, mu * nn + a * n + lam)
                    equations.append(eq.emit())
    return tuple(equations)


@value_type
class RawSolution:
    """One coproduct solution with its annotations: the coalgebra type and
    the antipode's packed rows, None when the bialgebra is not Hopf."""

    coalg: CoalgebraSC
    type_label: str
    antipode: tuple[int, ...] | None

    def __init__(self, coalg: CoalgebraSC, type_label: str,
                 antipode: tuple[int, ...] | None):
        set_field(self, "coalg", coalg)
        set_field(self, "type_label", type_label)
        set_field(self, "antipode", antipode)

    @property
    def hopf(self) -> bool:
        return self.antipode is not None


@value_type
class RawSolutionSet:
    """The solutions of one algebra, ascending by packed tensor, and their
    bialgebra classes: ``class_rep[i]`` is the index of the smallest member
    of solution i's class, its representative."""

    algebra_label: str
    algebra: AlgebraSC
    solutions: tuple[RawSolution, ...]
    class_rep: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.solutions)

    def type_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for s in self.solutions:
            counts[s.type_label] = counts.get(s.type_label, 0) + 1
        return counts


def coalgebra_type(c: CoalgebraSC) -> str:
    """Label of the algebra isomorphic to the dual of the coalgebra.  The
    dual of a coalgebra is an algebra, so it is labelled by its invariant
    alone, without checking the algebra axioms, and memoised per dual
    tensor: the duals of many classes are the same algebra."""
    dual = dualize_coalgebra(c)
    return _catalog_label(dual.n, dual.v, dual.eta)


def solve_coproduct_tensors(a: AlgebraSC, eps: int) -> list[int]:
    """All coproduct tensors compatible with the algebra and counit,
    ascending as packed tensors: the solutions of ``_coproduct_equations``,
    carried back to the basis of a by P_eps."""
    n = a.n
    back = [kernels.coproduct_change(counit_basis(n, eps), n)]
    return sorted(next(iter(kernels.coproduct_orbit(c, n, back)))
                  for c in kernels.solve_quadratic(*_coproduct_equations(a, eps)))


def solve_coproducts(a: AlgebraSC, label: str | None = None) -> RawSolutionSet:
    """The complete raw solution set for one algebra, deterministically
    ordered by the packed coproduct tensor.

    One counit per automorphism orbit is searched, and one solution per
    bialgebra class annotated; the rest are its images under automorphisms,
    and each records its class (see the module docstring)."""
    if not a.is_standard:
        raise ValueError("expects standard form")
    if label is None:
        label = identify_algebra(a)
    n = a.n
    changes = [kernels.coproduct_change(p, n) for p in automorphism_group(a)]
    found: dict[int, RawSolution] = {}
    least: dict[int, int] = {}  # tensor -> smallest tensor of its class
    covered: set[int] = set()
    for eps in enumerate_counits(a):
        if eps in covered:
            continue
        for c in solve_coproduct_tensors(a, eps):
            if c in found:
                continue
            coalg = CoalgebraSC(n, c, eps)
            type_label = coalgebra_type(coalg)
            antipode = solve_antipode(Bialgebra(a, coalg))
            orbit = kernels.coproduct_orbit(c, n, changes)
            rep = min(orbit)
            for image, (p, pinv, _) in orbit.items():
                image_eps = 0
                for i, row in enumerate(p):
                    image_eps |= parity(row & eps) << i
                covered.add(image_eps)
                least[image] = rep
                found[image] = RawSolution(
                    coalg=CoalgebraSC(n, image, image_eps),
                    type_label=type_label,
                    antipode=None if antipode is None else
                    mat_mul_rows(mat_mul_rows(p, antipode), pinv),
                )
    tensors = sorted(found)
    index_of = {c: i for i, c in enumerate(tensors)}
    return RawSolutionSet(label, a, tuple(found[c] for c in tensors),
                          tuple(index_of[least[c]] for c in tensors))
