"""For a fixed algebra, every coalgebra structure making it a bialgebra.

The counits are the unital algebra maps H -> F2.  For each, the counit
identities and coassociativity (the dual H* an algebra with unit the
counit, stated by ``structure.algebra_equations``) and compatibility (Delta
an algebra map H -> H (x) H, stated by ``structure.homomorphism_equations``)
are one quadratic XOR system in the bits of the coproduct tensor, solved by
``kernels.solve_quadratic``.  Its elimination step removes the linear
equations before the backtracker searches the remaining bits.  The counit
and coassociativity laws depend only on (n, eps) and are built once for
each.

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
from f2hopf.catalog import automorphism_group, identify_algebra
from f2hopf.gf2 import Gf2Mat, mat_mul_rows, parity, set_field, value_type
from f2hopf.structure import (
    AlgebraSC,
    Bialgebra,
    CoalgebraSC,
    TensorProductAlgebra,
    algebra_equations,
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


def _coproduct_equations(a: AlgebraSC, eps: int) -> tuple[int, list[tuple]]:
    """Bialgebra constraints as XOR equations over the coproduct tensor, as
    (number of variables, equations).

    Variable mu*n^2 + nu*n + rho is bit C[mu][nu][rho] of the packed
    coproduct tensor, so a solution mask is the tensor.  It is also
    coefficient mu of e^nu e^rho in the dual algebra, and the counit laws and
    coassociativity say that the dual is an algebra with unit eps.
    Delta(1) = 1 (x) 1 and compatibility say that Delta: a -> a (x) a is a
    unital algebra map.
    """
    n = a.n
    nn = n * n
    return n * nn, [*_coalgebra_laws(n, eps),
                    *homomorphism_equations(a, TensorProductAlgebra(a, a),
                                            lambda mu, t: mu * nn + t)]


@lru_cache(maxsize=None)
def _coalgebra_laws(n: int, eps: int) -> tuple[tuple, ...]:
    """The counit laws and coassociativity over the coproduct tensor's bits:
    the dual algebra has unit eps and is associative."""
    nn = n * n
    return tuple(algebra_equations(n, eps, lambda p, q, r: r * nn + p * n + q))


@value_type
class RawSolution:
    """One coproduct solution with its annotations."""

    coalg: CoalgebraSC
    type_label: str
    antipode: Gf2Mat | None

    def __init__(self, coalg: CoalgebraSC, type_label: str, antipode: Gf2Mat | None):
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
    """Label of the algebra isomorphic to the dual of the coalgebra."""
    return identify_algebra(dualize_coalgebra(c))


def solve_coproduct_tensors(a: AlgebraSC, eps: int) -> list[int]:
    """All coproduct tensors compatible with the algebra and counit,
    ascending as packed tensors."""
    return kernels.solve_quadratic(*_coproduct_equations(a, eps))


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
    changes = [kernels.coproduct_change(p.rows, n) for p in automorphism_group(a)]
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
                    Gf2Mat(mat_mul_rows(mat_mul_rows(p, antipode.rows), pinv), n),
                )
    tensors = sorted(found)
    index_of = {c: i for i, c in enumerate(tensors)}
    return RawSolutionSet(label, a, tuple(found[c] for c in tensors),
                          tuple(index_of[least[c]] for c in tensors))
