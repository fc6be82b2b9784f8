"""Matrix representations of the classified algebras: exhaustive enumeration
in sizes k <= 3 (the unital algebra maps into ``structure.matrix_algebra``),
equivalence classes under conjugation, duals and tensor products through the
Hopf structure, and decomposition into named representations.

Both searches run on the one kernel, ``kernels.solve_quadratic``: the
representations are the solutions of ``homomorphism_equations``, and the
matrices P with P r1(x) = r2(x) P for every basis element x (the
intertwiners) are the solutions of product-free equations.  r1 and r2 are
equivalent exactly when an intertwiner is invertible; the conjugation
returned is the invertible intertwiner whose rows tuple is lexicographically
smallest, i.e. the first one in the order of gf2.enumerate_invertible.
"""

from __future__ import annotations


from f2hopf import kernels
from f2hopf.gf2 import Gf2Mat, Gf2Vec, bits_of, rank_rows, set_field, value_type
from f2hopf.structure import AlgebraSC, HopfAlgebra, homomorphism_equations, matrix_algebra


@value_type
class Representation:
    """A unital algebra map into k x k matrices; images[mu] is the image of
    basis element mu (images[0] is the identity)."""

    k: int
    images: tuple[Gf2Mat, ...]

    def __init__(self, k: int, images: tuple[Gf2Mat, ...]):
        if not images[0].is_identity():
            raise ValueError("the unit must act as the identity")
        set_field(self, "k", k)
        set_field(self, "images", images)

    def image_of(self, coeffs: int) -> Gf2Mat:
        rows = [0] * self.k
        for mu in bits_of(coeffs):
            for i in range(self.k):
                rows[i] ^= self.images[mu].rows[i]
        return Gf2Mat(tuple(rows), self.k)


def is_representation(a: AlgebraSC, rep: Representation) -> bool:
    for mu in range(a.n):
        for nu in range(a.n):
            prod = rep.images[mu] * rep.images[nu]
            want = rep.image_of(a.prod(mu, nu))
            if prod.rows != want.rows:
                return False
    return True


def enumerate_reps(a: AlgebraSC, k: int) -> list[Representation]:
    """All unital algebra maps into k x k matrices, ascending in the packed
    image bits: entry (i, j) of the image of basis element mu is bit
    mu*k^2 + i*k + j, the matrix unit E_ij of ``matrix_algebra(k)``."""
    if not a.is_standard:
        raise ValueError("expects standard form")
    if not 1 <= k <= 3:
        raise ValueError("matrix size out of supported range")
    kk = k * k
    equations = homomorphism_equations(a, matrix_algebra(k), lambda mu, t: mu * kk + t)
    row_mask = (1 << k) - 1
    image_mask = (1 << kk) - 1
    # The image matrices by their k^2 bits, each built once and shared.
    matrices: dict[int, Gf2Mat] = {}
    out = []
    for mask in kernels.solve_quadratic(a.n * kk, equations):
        images = []
        for _ in range(a.n):
            bits = mask & image_mask
            m = matrices.get(bits)
            if m is None:
                m = matrices[bits] = Gf2Mat(
                    tuple((bits >> (i * k)) & row_mask for i in range(k)), k)
            images.append(m)
            mask >>= kk
        out.append(Representation(k, tuple(images)))
    return out


def equivalence_classes(reps: list[Representation]) -> list[list[int]]:
    """Partition under simultaneous conjugation; indices into the input.

    Classes are ordered by their smallest index and list their members in
    ascending order; each representation is compared with the first member
    of every class found so far.
    """
    classes: list[list[int]] = []
    for i, r in enumerate(reps):
        for cls in classes:
            if equivalent_by_conjugation(reps[cls[0]], r) is not None:
                cls.append(i)
                break
        else:
            classes.append([i])
    return classes


# --- Hopf-side constructions ----------------------------------------------------


def _kron(a: Gf2Mat, b: Gf2Mat) -> Gf2Mat:
    ka, kb = a.nrows, b.nrows
    rows = []
    for i in range(ka):
        for p in range(kb):
            row = 0
            for j in range(ka):
                if (a.rows[i] >> j) & 1:
                    row |= b.rows[p] << (j * kb)
            rows.append(row)
    return Gf2Mat(tuple(rows), ka * kb)


def tensor_rep(h: HopfAlgebra, r1: Representation, r2: Representation) -> Representation:
    """Image of x^mu = sum C[mu][nu][rho] r1(x^nu) (x) r2(x^rho)."""
    n = h.n
    k = r1.k * r2.k
    images = []
    for mu in range(n):
        rows = [0] * k
        for t in bits_of(h.coalg.cop(mu)):
            nu, rho = divmod(t, n)
            m = _kron(r1.images[nu], r2.images[rho])
            for i in range(k):
                rows[i] ^= m.rows[i]
        images.append(Gf2Mat(tuple(rows), k))
    return Representation(k, tuple(images))


def dual_rep(h: HopfAlgebra, r: Representation) -> Representation:
    """Image of x^mu = transpose of r(S x^mu)."""
    images = []
    for mu in range(h.n):
        images.append(r.image_of(h.s.rows[mu]).transpose())
    return Representation(r.k, tuple(images))


def regular_rep(a: AlgebraSC) -> Representation:
    """Left multiplication on the algebra itself (column convention)."""
    n = a.n
    images = []
    for mu in range(n):
        rows = [0] * n
        for j in range(n):
            for i in bits_of(a.prod(mu, j)):
                rows[i] |= 1 << j
        images.append(Gf2Mat(tuple(rows), n))
    return Representation(n, tuple(images))


def direct_sum(r1: Representation, r2: Representation) -> Representation:
    k = r1.k + r2.k
    images = []
    for m1, m2 in zip(r1.images, r2.images):
        rows = list(m1.rows) + [r << r1.k for r in m2.rows]
        images.append(Gf2Mat(tuple(rows), k))
    return Representation(k, tuple(images))


def equivalent_by_conjugation(r1: Representation, r2: Representation) -> Gf2Mat | None:
    """The conjugation P with P r1(x) P^-1 = r2(x) for all x whose rows tuple
    is lexicographically smallest (the first in gf2.enumerate_invertible
    order), or None when r1 and r2 are not equivalent.

    Entry (i, j) of P is variable k*(k-1-i) + j, so row 0 takes the highest
    bits and the kernel's ascending masks are in lexicographic row order.
    """
    if r1.k != r2.k:
        return None
    k = r1.k

    def var(i: int, j: int) -> int:
        return k * (k - 1 - i) + j

    equations = []
    for a, b in zip(r1.images[1:], r2.images[1:]):
        for i in range(k):
            for j in range(k):
                # (P a)[i][j] + (b P)[i][j] = sum_l P[i][l] a[l][j] + b[i][l] P[l][j]
                lin = 0
                for l in range(k):
                    if (a.rows[l] >> j) & 1:
                        lin ^= 1 << var(i, l)
                    if (b.rows[i] >> l) & 1:
                        lin ^= 1 << var(l, j)
                equations.append((0, lin, ()))
    row_mask = (1 << k) - 1
    for mask in kernels.solve_quadratic(k * k, equations):
        rows = tuple((mask >> var(i, 0)) & row_mask for i in range(k))
        if rank_rows(rows) == k:
            return Gf2Mat(rows, k)
    return None


def decompose(rep: Representation, candidates: dict[str, Representation]):
    """Name the representation as a candidate or a direct sum of two of them
    (the first match in candidate order, then in sorted name pairs); None when
    nothing matches."""
    for name, cand in candidates.items():
        if cand.k == rep.k and equivalent_by_conjugation(rep, cand) is not None:
            return (name,)
    names = sorted(candidates)
    for a in names:
        for b in names:
            cand_a, cand_b = candidates[a], candidates[b]
            if cand_a.k + cand_b.k != rep.k:
                continue
            if equivalent_by_conjugation(rep, direct_sum(cand_a, cand_b)) is not None:
                return (a, b)
    return None


def invariant_line(rep: Representation, vec_bits: int, character: Representation) -> bool:
    """Whether the given vector spans a subrepresentation isomorphic to the
    one-dimensional character."""
    v = Gf2Vec(rep.k, vec_bits)
    for m, ch in zip(rep.images, character.images):
        want_bits = v.bits if ch.rows[0] & 1 else 0
        if m.mul_vec(v).bits != want_bits:
            return False
    return True
