"""For a fixed algebra, every coalgebra structure making it a bialgebra.

For each multiplicative counit, the counit identities, coassociativity and
compatibility with the product are one quadratic XOR system in the free
coproduct bits, solved by ``kernels.solve_quadratic``.  The counit
identities are linear, so its elimination step removes them before the
backtracker searches the remaining bits.
"""

from __future__ import annotations

from dataclasses import dataclass

from f2hopf import kernels
from f2hopf.catalog import identify_algebra
from f2hopf.gf2 import Gf2Mat, bits_of
from f2hopf.kernels import Equation
from f2hopf.structure import (
    AlgebraSC,
    Bialgebra,
    CoalgebraSC,
    dualize_coalgebra,
    solve_antipode,
    tensor_product_algebra,
)


def enumerate_counits(a: AlgebraSC) -> list[int]:
    """All multiplicative counit vectors with eps(1) = 1, ascending."""
    if not a.is_standard:
        raise ValueError("expects standard form")
    n = a.n
    out = []
    for rest in range(1 << (n - 1)):
        eps = 1 | (rest << 1)
        if all(
            ((eps >> mu) & 1) & ((eps >> nu) & 1)
            == (a.prod(mu, nu) & eps).bit_count() & 1
            for mu in range(n)
            for nu in range(n)
        ):
            out.append(eps)
    return out


def _coproduct_equations(a: AlgebraSC, eps: int) -> list[tuple[int, int, tuple]]:
    """Bialgebra constraints as XOR equations over the free coproduct bits.

    Variables are the bits of the coproduct rows for mu >= 1 (the row of the
    unit is forced to 1 (x) 1), numbered (mu-1)*n^2 + nu*n + rho, so
    variable v is bit n^2 + v of the packed coproduct tensor.
    """
    n = a.n
    nn = n * n

    def var(mu: int, nu: int, rho: int) -> int:
        return (mu - 1) * nn + nu * n + rho

    equations = []

    # Counit identities, linear in the coproduct.
    for mu in range(1, n):
        for rho in range(n):
            eq = Equation(1 if mu == rho else 0)
            for nu in bits_of(eps):
                eq.add_var(var(mu, nu, rho))
            equations.append(eq.emit())
        for nu in range(n):
            eq = Equation(1 if mu == nu else 0)
            for rho in bits_of(eps):
                eq.add_var(var(mu, nu, rho))
            equations.append(eq.emit())

    # Coassociativity: for mu >= 1 and every (alpha, beta, gamma).
    for mu in range(1, n):
        for alpha in range(n):
            for beta in range(n):
                for gamma in range(n):
                    eq = Equation()
                    # sum_nu C[mu][nu][gamma] C[nu][alpha][beta]
                    if alpha == 0 and beta == 0:
                        eq.add_var(var(mu, 0, gamma))
                    for nu in range(1, n):
                        eq.add_pair(var(mu, nu, gamma), var(nu, alpha, beta))
                    # sum_rho C[mu][alpha][rho] C[rho][beta][gamma]
                    if beta == 0 and gamma == 0:
                        eq.add_var(var(mu, alpha, 0))
                    for rho in range(1, n):
                        eq.add_pair(var(mu, alpha, rho), var(rho, beta, gamma))
                    equations.append(eq.emit())

    # Compatibility: Delta(x^mu x^nu) = Delta(x^mu) Delta(x^nu), mu, nu >= 1,
    # one equation per basis element t = lam*n + gamma of H (x) H.  The
    # nonzero products e_p e_q in H (x) H are the same for every (mu, nu).
    square = tensor_product_algebra(a, a)
    products = [(divmod(p, n), divmod(q, n), tuple(bits_of(square.prod(p, q))))
                for p in range(nn) for q in range(nn) if square.prod(p, q)]
    for mu in range(1, n):
        for nu in range(1, n):
            pv = a.prod(mu, nu)
            # LHS sum_rho V[mu][nu][rho] C[rho][t], where row 0 is the
            # constant Delta(1) = 1 (x) 1.
            eqs = [Equation(pv & 1 if t == 0 else 0) for t in range(nn)]
            for t, eq in enumerate(eqs):
                for rho in bits_of(pv & ~1):
                    eq.add_var(var(rho, *divmod(t, n)))
            # RHS sum_{p,q} C[mu][p] C[nu][q] (e_p e_q)[t].
            for p, q, targets in products:
                i, j = var(mu, *p), var(nu, *q)
                for t in targets:
                    eqs[t].add_pair(i, j)
            equations += [eq.emit() for eq in eqs]
    return equations


@dataclass(frozen=True)
class RawSolution:
    """One coproduct solution with its annotations."""

    coalg: CoalgebraSC
    type_label: str
    antipode: Gf2Mat | None

    @property
    def hopf(self) -> bool:
        return self.antipode is not None


@dataclass(frozen=True)
class RawSolutionSet:
    algebra_label: str
    algebra: AlgebraSC
    solutions: tuple[RawSolution, ...]

    def __len__(self) -> int:
        return len(self.solutions)

    @property
    def hopf_count(self) -> int:
        return sum(1 for s in self.solutions if s.hopf)

    def type_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for s in self.solutions:
            counts[s.type_label] = counts.get(s.type_label, 0) + 1
        return counts


def coalgebra_type(c: CoalgebraSC) -> str:
    """Label of the algebra isomorphic to the dual of the coalgebra."""
    return identify_algebra(dualize_coalgebra(c))


def solve_coproduct_tensors(a: AlgebraSC, eps: int) -> list[int]:
    """All coproduct tensors compatible with the algebra and counit,
    ascending as packed tensors."""
    n = a.n
    nn = n * n
    masks = kernels.solve_quadratic((n - 1) * nn, _coproduct_equations(a, eps))
    return [1 | (mask << nn) for mask in masks]  # Delta(1) = 1 (x) 1


def solve_coproducts(a: AlgebraSC, label: str | None = None) -> RawSolutionSet:
    """The complete raw solution set for one algebra, deterministically
    ordered by the packed coproduct tensor."""
    if not a.is_standard:
        raise ValueError("expects standard form")
    if label is None:
        label = identify_algebra(a)
    found: list[RawSolution] = []
    for eps in enumerate_counits(a):
        for c in solve_coproduct_tensors(a, eps):
            coalg = CoalgebraSC(a.n, c, eps)
            bi = Bialgebra(a, coalg)
            found.append(
                RawSolution(
                    coalg=coalg,
                    type_label=coalgebra_type(coalg),
                    antipode=solve_antipode(bi),
                )
            )
    found.sort(key=lambda s: s.coalg.c)
    return RawSolutionSet(label, a, tuple(found))
