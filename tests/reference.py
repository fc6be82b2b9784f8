"""Naive index-loop reference implementations used as oracles.

Everything here works on unpacked tensors (nested tuples of 0/1) with plain
modular arithmetic, deliberately sharing no code with the packed evaluators.
``naive_backtrack`` is the kernel's search with its check unrolled
equation by equation.  The exceptions are at the end: the GL(n) searches
enumerate the whole group with gf2's packed matrices, as the engine did
before it read conjugations, algebra isomorphisms and self-duality pairings
off quadratic solves, and ``pairing_ok`` checks the self-pairing axioms on
every triple of basis elements, as the engine did before it read a pairing
off two algebra isomorphisms;
``brute_force_coproducts`` scans every coproduct candidate that passes
the counit laws (``counit_slice_ok``, slice by slice) through the bialgebra
checker, and ``brute_force_coproduct_set`` memoises it;
``naive_coproduct_equations`` states a counit's coproduct system in the
algebra's own basis, with no pinned bits removed;
``coproducts_per_counit`` solves and annotates every counit's coproducts
afresh, with no transport along automorphisms, and partitions them with
``orbit_class_rep``, which expands each class's orbit on its own with
``naive_transform_coproduct``, the packed coproduct basis change as the
engine computed it bit by bit before it read images off chunk tables;
``convolution_antipode`` is the antipode as the engine found it before it
stated S * id = eta eps = id * S on the coproduct's slices: the inverse of
id in the tensor product algebra C* (x) A;
``naive_homomorphism_equations`` is the homomorphism builder as it was
before it read each entry's variable once, one ``kernels.Equation`` per
equation; ``naive_qt_equations`` and ``naive_quasitriangular`` are the
R-matrix search as it was before it read the intertwiner columns off
tensor-square table entries, with every product taken by ``mul_vec`` of a
``TensorProductAlgebra``;
``classify_bialgebras_pairwise`` and ``coquasitriangular_via_dual`` reach
the engine's bialgebra classes and coquasitriangular forms by other routes.
The last section holds helpers that only tests use: a quartic algebra, the
antipode's anti-homomorphism identities, the antipode applied to the legs of
an R-matrix, and conjugation of representations.
"""

from __future__ import annotations

from functools import cache


def unpack_tensor(bits: int, n: int):
    return tuple(
        tuple(
            tuple((bits >> (mu * n * n + nu * n + rho)) & 1 for rho in range(n))
            for nu in range(n)
        )
        for mu in range(n)
    )


def unpack_vec(bits: int, n: int):
    return tuple((bits >> i) & 1 for i in range(n))


def naive_backtrack(nvars: int, equations) -> list[int]:
    """The kernel's backtracker as it was before its check was bit-sliced:
    the same index-order search, 0 before 1, but each equation whose highest
    variable has just been set is evaluated term by term.  Ascending."""
    by_last = [[] for _ in range(nvars)]
    for const, lin, pairs in equations:
        last = lin.bit_length() - 1
        for _, j in pairs:
            last = max(last, j)
        if last < 0:
            if const:
                return []
            continue
        by_last[last].append((const, lin, pairs))

    solutions = []

    def descend(level: int, assign: int):
        if level == nvars:
            solutions.append(assign)
            return
        for bit in (0, 1 << level):
            a = assign | bit
            ok = True
            for const, lin, pairs in by_last[level]:
                v = const ^ ((a & lin).bit_count() & 1)
                for i, j in pairs:
                    v ^= (a >> i) & (a >> j) & 1
                if v:
                    ok = False
                    break
            if ok:
                descend(level + 1, a)

    descend(0, 0)
    return sorted(solutions)


def naive_check_algebra(v, eta, n):
    """Same report convention as the packed evaluator: (ok, axiom, index)."""
    for mu in range(n):
        for rho in range(n):
            left = sum(eta[nu] * v[nu][mu][rho] for nu in range(n)) % 2
            if left != (1 if mu == rho else 0):
                return (False, "unit-left", (mu,))
        for rho in range(n):
            right = sum(eta[nu] * v[mu][nu][rho] for nu in range(n)) % 2
            if right != (1 if mu == rho else 0):
                return (False, "unit-right", (mu,))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for g in range(n):
                    lhs = sum(v[i][j][l] * v[l][k][g] for l in range(n)) % 2
                    rhs = sum(v[j][k][l] * v[i][l][g] for l in range(n)) % 2
                    if lhs != rhs:
                        return (False, "associativity", (i, j, k))
    return (True, None, None)


def naive_check_coalgebra(c, eps, n):
    for mu in range(n):
        for a in range(n):
            for b in range(n):
                for g in range(n):
                    lhs = sum(c[mu][nu][g] * c[nu][a][b] for nu in range(n)) % 2
                    rhs = sum(c[mu][a][r] * c[r][b][g] for r in range(n)) % 2
                    if lhs != rhs:
                        return (False, "coassociativity", (mu, a, b, g))
        for rho in range(n):
            left = sum(c[mu][nu][rho] * eps[nu] for nu in range(n)) % 2
            if left != (1 if mu == rho else 0):
                return (False, "counit-left", (mu,))
        for nu in range(n):
            right = sum(c[mu][nu][rho] * eps[rho] for rho in range(n)) % 2
            if right != (1 if mu == nu else 0):
                return (False, "counit-right", (mu,))
    return (True, None, None)


def naive_check_bialgebra(v, eta, c, eps, n):
    ok = naive_check_coalgebra(c, eps, n)
    if not ok[0]:
        return ok
    if sum(eta[mu] * eps[mu] for mu in range(n)) % 2 != 1:
        return (False, "counit-of-unit", ())
    for a in range(n):
        for b in range(n):
            lhs = sum(eta[mu] * c[mu][a][b] for mu in range(n)) % 2
            if lhs != (eta[a] * eta[b]) % 2:
                return (False, "coproduct-of-unit", ())
    for mu in range(n):
        for nu in range(n):
            lhs = sum(v[mu][nu][rho] * eps[rho] for rho in range(n)) % 2
            if lhs != (eps[mu] * eps[nu]) % 2:
                return (False, "counit-multiplicative", (mu, nu))
            for lam in range(n):
                for gam in range(n):
                    lhs = sum(
                        v[mu][nu][rho] * c[rho][lam][gam] for rho in range(n)
                    ) % 2
                    rhs = 0
                    for aa in range(n):
                        for bb in range(n):
                            for rr in range(n):
                                for dd in range(n):
                                    rhs += (
                                        c[mu][aa][bb]
                                        * c[nu][rr][dd]
                                        * v[aa][rr][lam]
                                        * v[bb][dd][gam]
                                    )
                    if lhs != rhs % 2:
                        return (False, "coproduct-multiplicative", (mu, nu))
    return (True, None, None)


def naive_antipode_law(v, eta, c, eps, s, n) -> bool:
    """Whether s, with s[mu][al] the coefficient of x^al in S(x^mu), satisfies
    m(S (x) id)Delta = eta eps = m(id (x) S)Delta on every basis element."""
    for mu in range(n):
        for beta in range(n):
            want = eps[mu] * eta[beta]
            left = right = 0
            for nu in range(n):
                for rho in range(n):
                    if c[mu][nu][rho]:
                        left += sum(s[nu][al] * v[al][rho][beta] for al in range(n))
                        right += sum(s[rho][al] * v[nu][al][beta] for al in range(n))
            if left % 2 != want or right % 2 != want:
                return False
    return True


def naive_antipode(v, eta, c, eps, n):
    """The antipode found by trying all 2^(n^2) 0/1 matrices against
    ``naive_antipode_law``, as a tuple of rows (row mu is S(x^mu)), or None
    when none satisfies it; asserts that at most one does."""
    found = []
    for mask in range(1 << (n * n)):
        s = tuple(tuple((mask >> (mu * n + al)) & 1 for al in range(n)) for mu in range(n))
        if naive_antipode_law(v, eta, c, eps, s, n):
            found.append(s)
    assert len(found) <= 1, "antipode is not unique"
    return found[0] if found else None


def naive_mat_mul(a, b):
    rows = len(a)
    inner = len(b)
    cols = len(b[0])
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(inner)) % 2 for j in range(cols))
        for i in range(rows)
    )


def unpack_square(bits: int, n: int):
    """Element of H (x) H packed at bit mu*n + nu, as an n x n 0/1 matrix
    whose entry [mu][nu] is the coefficient of x^mu (x) x^nu."""
    return tuple(
        tuple((bits >> (mu * n + nu)) & 1 for nu in range(n)) for mu in range(n)
    )


def naive_tensor_square_product(v, a, b, n):
    """(sum a[p][q] x^p (x) x^q)(sum b[r][s] x^r (x) x^s) in H (x) H, with
    each leg multiplied by the structure constants v."""
    out = [[0] * n for _ in range(n)]
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for s in range(n):
                    if a[p][q] * b[r][s] == 0:
                        continue
                    for i in range(n):
                        for j in range(n):
                            out[i][j] += v[p][r][i] * v[q][s][j]
    return tuple(tuple(x % 2 for x in row) for row in out)


def naive_killing_form(v, r, n):
    """Quantum Killing form Q = R21 R, where R21 swaps the legs of R."""
    r21 = tuple(tuple(r[nu][mu] for nu in range(n)) for mu in range(n))
    return naive_tensor_square_product(v, r21, r, n)


def naive_yang_baxter(v, r, n) -> bool:
    """R12 R13 R23 == R23 R13 R12 in H (x) H (x) H, for R an n x n 0/1
    matrix (``unpack_square``) and the unit x^0.  Elements are sets of the
    triples (i, j, k) standing for x^i (x) x^j (x) x^k; each leg is
    multiplied by the structure constants v."""
    def leg(legs):  # R in the two given legs, the unit in the third
        return {tuple(mu if t == legs[0] else nu if t == legs[1] else 0 for t in range(3))
                for mu in range(n) for nu in range(n) if r[mu][nu]}

    def mul(x, y):
        out = set()
        for p in x:
            for q in y:
                prods = [[i for i in range(n) if v[p[t]][q[t]][i]] for t in range(3)]
                out ^= {(i, j, k) for i in prods[0] for j in prods[1] for k in prods[2]}
        return out

    r12, r13, r23 = leg((0, 1)), leg((0, 2)), leg((1, 2))
    return mul(mul(r12, r13), r23) == mul(mul(r23, r13), r12)


def naive_algebra_maps(a, b) -> list[int]:
    """Every unital algebra map a -> b, found by trying all a.n x b.n 0/1
    matrices.  phi[i][j], coefficient j of the image of basis element i, is
    bit i*b.n + j of the returned masks, which ascend."""
    m, n = a.n, b.n
    va, vb = unpack_tensor(a.v, m), unpack_tensor(b.v, n)
    eta_a, eta_b = unpack_vec(a.eta, m), list(unpack_vec(b.eta, n))
    out = []
    for mask in range(1 << (m * n)):
        phi = [[(mask >> (i * n + j)) & 1 for j in range(n)] for i in range(m)]

        def image(x):
            return [sum(x[i] * phi[i][j] for i in range(m)) % 2 for j in range(n)]

        def product(x, y):
            return [sum(x[j] * y[k] * vb[j][k][r] for j in range(n) for k in range(n)) % 2
                    for r in range(n)]

        if image(eta_a) == eta_b and all(
            image(va[p][q]) == product(phi[p], phi[q]) for p in range(m) for q in range(m)
        ):
            out.append(mask)
    return out


def naive_rank(m):
    """Rank over GF(2) of a 0/1 matrix, by row reduction on plain lists."""
    rows = [list(row) for row in m]
    cols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(cols):
        pivot = next(
            (i for i in range(rank, len(rows)) if rows[i][col] % 2), None
        )
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % 2:
                rows[i] = [(x + y) % 2 for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def naive_conjugation(r1, r2):
    """The first matrix p of gf2.enumerate_invertible(k) with p m p^-1 = m2 for
    every pair of images (m, m2) of r1 and r2, or None."""
    from f2hopf.gf2 import enumerate_invertible

    if r1.k != r2.k:
        return None
    for p in enumerate_invertible(r1.k):
        pinv = p.inverse()
        if all((p * m * pinv).rows == m2.rows for m, m2 in zip(r1.images, r2.images)):
            return p
    return None


def naive_orbit_partition(reps):
    """Indices of reps grouped by their orbit under conjugation by all of
    GL(k); classes ordered by smallest index, members ascending."""
    from f2hopf.gf2 import enumerate_invertible

    if not reps:
        return []
    group = [(p, p.inverse()) for p in enumerate_invertible(reps[0].k)]
    classes: dict = {}
    for i, r in enumerate(reps):
        orbit_min = min(
            tuple((p * m * pinv).rows for m in r.images) for p, pinv in group
        )
        classes.setdefault(orbit_min, []).append(i)
    return list(classes.values())


def naive_identification(coalg, target):
    """The first matrix m of gf2.enumerate_invertible(n) that is an algebra
    isomorphism from the dual algebra of the coalgebra onto the target: it
    sends the dual's unit to the target's unit and moves the dual onto the
    target's structure constants.  Row mu is the image of the dual basis
    element y_mu."""
    from f2hopf.gf2 import enumerate_invertible
    from f2hopf.structure import apply_basis_change_algebra, dualize_coalgebra

    dual = dualize_coalgebra(coalg)
    for m in enumerate_invertible(dual.n):
        img_unit = 0
        for i in range(dual.n):
            if (dual.eta >> i) & 1:
                img_unit ^= m.rows[i]
        if img_unit != target.eta:
            continue
        if apply_basis_change_algebra(dual, m.inverse()).v == target.v:
            return m
    return None


def pairing_ok(b, p) -> bool:
    """Whether P[mu][nu] = <x^mu, x^nu> is a bialgebra self-pairing:
    <ab, c> = <a (x) b, Delta c>, <a, bc> = <Delta a, b (x) c>, <1, .> = eps,
    <., 1> = eps, with P invertible.  Every axiom is checked on every triple
    of basis elements."""
    from f2hopf.gf2 import bits_of, parity

    a, c = b.alg, b.coalg
    n = b.n
    for nu in range(n):
        left_unit = 0
        right_unit = 0
        for mu in bits_of(a.eta):
            left_unit ^= (p.rows[mu] >> nu) & 1
            right_unit ^= (p.rows[nu] >> mu) & 1
        if left_unit != (c.eps >> nu) & 1 or right_unit != (c.eps >> nu) & 1:
            return False
    if p.inverse() is None:
        return False
    pt = p.transpose()
    for mu in range(n):
        for nu in range(n):
            for rho in range(n):
                lhs = parity(a.prod(mu, nu) & pt.rows[rho])
                rhs = 0
                for t in bits_of(c.cop(rho)):
                    al, be = divmod(t, n)
                    rhs ^= ((p.rows[mu] >> al) & 1) & ((p.rows[nu] >> be) & 1)
                if lhs != rhs:
                    return False
                lhs2 = parity(p.rows[mu] & a.prod(nu, rho))
                rhs2 = 0
                for t in bits_of(c.cop(mu)):
                    al, be = divmod(t, n)
                    rhs2 ^= ((p.rows[al] >> nu) & 1) & ((p.rows[be] >> rho) & 1)
                if lhs2 != rhs2:
                    return False
    return True


def naive_self_duality_pairing(b):
    """The lexicographically smallest invertible matrix of
    gf2.enumerate_invertible(n) that passes ``pairing_ok``, or None;
    only matrices whose first row and column are the counit are tried, as
    the unit axioms of a pairing force for a standard-form bialgebra."""
    from f2hopf.gf2 import enumerate_invertible

    eps = b.coalg.eps
    found = [m for m in enumerate_invertible(b.n)
             if m.rows[0] == eps
             and sum((row & 1) << i for i, row in enumerate(m.rows)) == eps
             and pairing_ok(b, m)]
    return min(found, key=lambda m: m.rows, default=None)


def counit_slice_ok(s: int, mu: int, eps: int, n: int) -> bool:
    """Both counit laws on one coproduct slice s = Delta(x^mu), bit
    nu*n + rho for x^nu (x) x^rho, coefficient by coefficient:
    sum_nu eps_nu C[mu][nu][k] and sum_rho C[mu][k][rho] eps_rho are both
    1 exactly when k = mu."""
    for k in range(n):
        left = sum(((s >> (nu * n + k)) & 1) * ((eps >> nu) & 1) for nu in range(n)) % 2
        right = sum(((s >> (k * n + rho)) & 1) * ((eps >> rho) & 1) for rho in range(n)) % 2
        if left != (k == mu) or right != (k == mu):
            return False
    return True


def brute_force_coproducts(a: AlgebraSC) -> list[CoalgebraSC]:
    """Independent completeness oracle: scan every (coproduct, counit)
    candidate with Delta(x^0) = x^0 (x) x^0 and eps(x^0) = 1 through the
    full bialgebra checker, after counit filtering: the counit laws hold
    slice by slice, so each slice Delta(x^mu), mu >= 1, ranges over the
    n^2-bit values that pass ``counit_slice_ok``.  Ascending by (counit,
    tensor).  Viable for n = 2 and n = 3."""
    from itertools import product

    from f2hopf.structure import Bialgebra, CoalgebraSC, check_bialgebra

    n = a.n
    nn = n * n
    out = []
    for eps_rest in range(1 << (n - 1)):
        eps = 1 | (eps_rest << 1)
        slices = [[s for s in range(1 << nn) if counit_slice_ok(s, mu, eps, n)]
                  for mu in range(1, n)]
        found = []
        for rest in product(*slices):
            c = 1
            for mu, s in enumerate(rest, 1):
                c |= s << (mu * nn)
            coalg = CoalgebraSC(n, c, eps)
            if check_bialgebra(Bialgebra(a, coalg)):
                found.append(coalg)
        out += sorted(found, key=lambda coalg: coalg.c)
    return out


@cache
def brute_force_coproduct_set(n: int, label: str) -> frozenset:
    """(coproduct, counit) of every bialgebra on catalog algebra ``label`` of
    dimension n, found by ``brute_force_coproducts``; computed
    once per test session."""
    from f2hopf.catalog import catalog

    return frozenset(
        (c.c, c.eps) for c in brute_force_coproducts(catalog(n)[label].representative)
    )


def coproducts_per_counit(a: AlgebraSC) -> RawSolutionSet:
    """The raw solution set of ``coproducts.solve_coproducts``, reached by
    searching every counit's system, annotating each solution with its own
    ``coalgebra_type`` and ``solve_antipode``, and partitioning the whole set
    with ``orbit_class_rep``."""
    from f2hopf.catalog import identify_algebra
    from f2hopf.coproducts import (
        RawSolution,
        RawSolutionSet,
        coalgebra_type,
        enumerate_counits,
        solve_coproduct_tensors,
    )
    from f2hopf.structure import Bialgebra, CoalgebraSC, solve_antipode

    found = []
    for eps in enumerate_counits(a):
        for c in solve_coproduct_tensors(a, eps):
            coalg = CoalgebraSC(a.n, c, eps)
            found.append(RawSolution(coalg, coalgebra_type(coalg),
                                     solve_antipode(Bialgebra(a, coalg))))
    found.sort(key=lambda s: s.coalg.c)
    return RawSolutionSet(identify_algebra(a), a, tuple(found), orbit_class_rep(a, found))


def naive_coproduct_equations(a: AlgebraSC, eps: int) -> tuple[int, list[tuple]]:
    """The coproduct system of (a, eps) in a's own basis, as the engine
    stated it before it searched each counit in its own basis: the counit
    laws and coassociativity say that the dual algebra has unit eps and is
    associative (``structure.algebra_equations``), and Delta(1) = 1 (x) 1 and
    compatibility that Delta: a -> a (x) a is a unital algebra map
    (``structure.homomorphism_equations``).  Variable mu*n^2 + nu*n + rho is
    bit C[mu][nu][rho], so a solution mask is the coproduct tensor."""
    from f2hopf.structure import (
        TensorProductAlgebra,
        algebra_equations,
        homomorphism_equations,
    )

    n = a.n
    nn = n * n
    return n * nn, (algebra_equations(n, eps, lambda p, q, r: r * nn + p * n + q)
                    + homomorphism_equations(a, TensorProductAlgebra(a, a),
                                             lambda mu, t: mu * nn + t))


def convolution_antipode(b: Bialgebra):
    """The antipode matrix of b, or None: the two-sided inverse of
    id = sum_mu e^mu (x) x^mu in the convolution algebra
    C* (x) A = ``TensorProductAlgebra(dualize_coalgebra(c), a)``, found by
    ``algebra_inverse``, which raises ``ValueError`` when it is not unique."""
    from f2hopf.structure import (
        TensorProductAlgebra,
        TensorSquareElement,
        algebra_inverse,
        dualize_coalgebra,
    )

    n = b.n
    conv = TensorProductAlgebra(dualize_coalgebra(b.coalg), b.alg)
    s = algebra_inverse(conv, sum(1 << (mu * n + mu) for mu in range(n)))
    return None if s is None else TensorSquareElement(n, s).matrix()


def naive_homomorphism_equations(a, b, var) -> list[tuple]:
    """``structure.homomorphism_equations`` as it was before it read each
    entry's variable once: one ``kernels.Equation`` per equation, with var
    called for every term and every product folded through ``add_pair``."""
    from f2hopf.gf2 import bits_of
    from f2hopf.kernels import Equation

    equations = []
    for j in range(b.n):
        eq = Equation((b.eta >> j) & 1)
        for i in bits_of(a.eta):
            eq.add_var(var(i, j))
        equations.append(eq.emit())
    products = [(j, k, targets) for j in range(b.n) for k in range(b.n)
                if (targets := tuple(bits_of(b.prod(j, k))))]
    first = a.eta & 1
    for p in range(first, a.n):
        for q in range(first, a.n):
            eqs = [Equation() for _ in range(b.n)]
            for s in bits_of(a.prod(p, q)):
                for r, eq in enumerate(eqs):
                    eq.add_var(var(s, r))
            for j, k, targets in products:
                x, y = var(p, j), var(q, k)
                for r in targets:
                    eqs[r].add_pair(x, y)
            equations += [eq.emit() for eq in eqs]
    return equations


def naive_qt_equations(b: Bialgebra) -> tuple[int, list[tuple]]:
    """``qtri._equations`` as it was before it read the intertwiner columns
    off the entries of the tensor-square table: each column is a product of
    two vectors in a ``TensorProductAlgebra(a, a)``."""
    from f2hopf.gf2 import Gf2Mat
    from f2hopf.structure import (
        TensorProductAlgebra,
        dualize_coalgebra,
        homomorphism_equations,
        opposite_coproduct,
        opposite_product,
    )

    a, c = b.alg, b.coalg
    n = b.n

    def var(mu, nu):
        return mu * n + nu

    dual = dualize_coalgebra(c)
    equations = homomorphism_equations(dual, a, var)
    equations += homomorphism_equations(dual, opposite_product(a), lambda i, j: var(j, i))
    square = TensorProductAlgebra(a, a)
    cop = opposite_coproduct(c)
    for rho in range(n):
        cols = [square.mul_vec(1 << v, c.cop(rho)) ^ square.mul_vec(cop.cop(rho), 1 << v)
                for v in range(n * n)]
        for lin in Gf2Mat(tuple(cols), n * n).transpose().rows:
            if lin:
                equations.append((0, lin, ()))
    return n * n, equations


def naive_quasitriangular(b: Bialgebra) -> list[tuple]:
    """(R, R^-1, Q, class, factorisable) of every quasitriangular structure,
    as bits, ascending by R, read from ``naive_qt_equations`` with every
    product, unit and inverse in ``TensorProductAlgebra(a, a)``."""
    from f2hopf import kernels
    from f2hopf.gf2 import Gf2Mat
    from f2hopf.structure import TensorProductAlgebra, algebra_inverse

    n = b.n
    square = TensorProductAlgebra(b.alg, b.alg)
    out = []
    for r in kernels.solve_quadratic(*naive_qt_equations(b)):
        r_inv = algebra_inverse(square, r)
        if r_inv is None:
            continue
        r21 = 0
        for t in range(n * n):
            if (r >> t) & 1:
                mu, nu = divmod(t, n)
                r21 |= 1 << (nu * n + mu)
        q = square.mul_vec(r21, r)
        klass = ("trivial" if r == square.eta else
                 "triangular" if q == square.eta else "strict")
        rows = tuple((q >> (mu * n)) & ((1 << n) - 1) for mu in range(n))
        out.append((r, r_inv, q, klass, Gf2Mat(rows, n).inverse() is not None))
    return out


def naive_transform_coproduct(c: int, n: int, p: tuple[int, ...], pinv: tuple[int, ...]) -> int:
    """Basis change of a packed coproduct tensor, bit by bit, as the engine
    computed it before ``kernels.coproduct_orbit`` read images off tables:
    C'[a][b][g] = sum P[a][m] C[m][u][r] Pinv[u][b] Pinv[r][g]."""
    nn = n * n
    mask2 = (1 << nn) - 1
    out = 0
    for a in range(n):
        acc = 0
        ra = p[a]
        while ra:
            low = ra & -ra
            m = low.bit_length() - 1
            ra ^= low
            acc ^= (c >> (m * nn)) & mask2
        res = 0
        while acc:
            low = acc & -acc
            t = low.bit_length() - 1
            acc ^= low
            u, r = divmod(t, n)
            ru = pinv[u]
            while ru:
                l2 = ru & -ru
                bcol = l2.bit_length() - 1
                ru ^= l2
                rr = pinv[r]
                while rr:
                    l3 = rr & -rr
                    gcol = l3.bit_length() - 1
                    rr ^= l3
                    res ^= 1 << (bcol * n + gcol)
        out |= res << (a * nn)
    return out


def orbit_class_rep(a: AlgebraSC, solutions) -> tuple[int, ...]:
    """The bialgebra classes of the solutions (ascending by tensor) in the
    form of ``RawSolutionSet.class_rep``: the smallest unclassified solution
    starts the next class, which is its orbit under ``automorphism_group(a)``,
    one ``naive_transform_coproduct`` per automorphism.  Raises when the
    orbits are not those of a group, or when one mixes Hopf flags or
    coalgebra types."""
    from f2hopf.catalog import automorphism_group
    from f2hopf.gf2 import mat_inv_rows

    n = a.n
    changes = [(p.rows, mat_inv_rows(p.rows, n)) for p in automorphism_group(a)]
    index_of = {s.coalg.c: i for i, s in enumerate(solutions)}
    class_rep: list[int | None] = [None] * len(solutions)
    for start, rep in enumerate(solutions):
        if class_rep[start] is not None:
            continue
        orbit = sorted({index_of[naive_transform_coproduct(rep.coalg.c, n, p, pinv)]
                        for p, pinv in changes})
        if orbit[0] != start or any(class_rep[i] is not None for i in orbit):
            raise RuntimeError("automorphisms do not form a group")
        if any(solutions[i].hopf != rep.hopf or solutions[i].type_label != rep.type_label
               for i in orbit):
            raise RuntimeError("orbit mixes Hopf flags or coalgebra types")
        for i in orbit:
            class_rep[i] = start
    return tuple(class_rep)


def classify_bialgebras_pairwise(a: AlgebraSC, raw: RawSolutionSet) -> list[set[int]]:
    """Cross-check partition: i ~ j when some invertible matrix is at once a
    coalgebra map between the two coproducts and an algebra automorphism.
    Exhaustive over the general linear group; use only for small dimensions."""
    from f2hopf import kernels
    from f2hopf.gf2 import enumerate_invertible, mat_inv_rows

    n = a.n
    auto_pairs = []
    for m in enumerate_invertible(n):
        pinv = mat_inv_rows(m.rows, n)
        if kernels.transform_product(a.v, n, m.rows, pinv) == a.v:
            auto_pairs.append((m.rows, pinv))
    index_of = {s.coalg.c: i for i, s in enumerate(raw.solutions)}
    parent = list(range(len(raw.solutions)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, s in enumerate(raw.solutions):
        for p, pinv in auto_pairs:
            img = naive_transform_coproduct(s.coalg.c, n, pinv, p)
            j = index_of.get(img)
            if j is not None:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, set[int]] = {}
    for i in range(len(raw.solutions)):
        groups.setdefault(find(i), set()).add(i)
    return sorted(groups.values(), key=min)


def coquasitriangular_via_dual(b: Bialgebra) -> list[int]:
    """The forms ``qtri.coquasitriangular_direct`` finds, obtained instead by
    enumerating quasitriangular structures on the standardized dual and
    transporting coefficients back."""
    from f2hopf.catalog import standardize_unit
    from f2hopf.gf2 import bits_of
    from f2hopf.qtri import enumerate_quasitriangular
    from f2hopf.structure import apply_basis_change, dual_bialgebra_raw

    raw = dual_bialgebra_raw(b)
    _, p = standardize_unit(raw.alg)
    std = apply_basis_change(raw, p)
    n = b.n
    out = []
    for s in enumerate_quasitriangular(std):
        bits = 0
        for t in bits_of(s.r.bits):
            al, be = divmod(t, n)
            for mu in bits_of(p.rows[al]):
                for nu in bits_of(p.rows[be]):
                    bits ^= 1 << (mu * n + nu)
        out.append(bits)
    return sorted(out)


# --- helpers only tests use ----------------------------------------------------


def quartic_algebra(a: int, b: int, c: int, d: int) -> AlgebraSC:
    """F2[w] / (w^4 + a w^3 + b w^2 + c w + d) on basis 1, w, w^2, w^3."""
    from f2hopf.gf2 import bits_of
    from f2hopf.structure import AlgebraSC

    n = 4
    w4 = (d & 1) | ((c & 1) << 1) | ((b & 1) << 2) | ((a & 1) << 3)
    powers = [1 << 0, 1 << 1, 1 << 2, 1 << 3, w4]
    for k in range(5, 7):
        prev = powers[k - 1]
        nxt = 0
        for i in bits_of(prev):
            nxt ^= powers[i + 1]
        powers.append(nxt)
    v = 0
    for i in range(4):
        for j in range(4):
            v |= powers[i + j] << ((i * n + j) * n)
    return AlgebraSC(n, v)


def check_antipode_identities(h):
    """The anti-homomorphism consequences of the antipode law: S reverses the
    product and coproduct, fixes the unit, and preserves the counit."""
    from f2hopf.gf2 import bits_of, parity
    from f2hopf.structure import AxiomReport

    a, c, s = h.alg, h.coalg, h.s
    n = h.n
    for mu in range(n):
        for nu in range(n):
            # S(x^mu x^nu) = S(x^nu) S(x^mu)
            lhs = 0
            for rho in bits_of(a.prod(mu, nu)):
                lhs ^= s.rows[rho]
            rhs = a.mul_vec(s.rows[nu], s.rows[mu])
            if lhs != rhs:
                return AxiomReport(False, "antipode-anti-homomorphism", (mu, nu))
    for mu in range(n):
        # (S (x) S) o Delta^cop = Delta o S
        lhs = 0
        for t in bits_of(c.cop(mu)):
            al, be = divmod(t, n)
            for i in bits_of(s.rows[be]):
                for j in bits_of(s.rows[al]):
                    lhs ^= 1 << (i * n + j)
        rhs = 0
        for rho in bits_of(s.rows[mu]):
            rhs ^= c.cop(rho)
        if lhs != rhs:
            return AxiomReport(False, "antipode-anti-cohomomorphism", (mu,))
        if parity(s.rows[mu] & c.eps) != (c.eps >> mu) & 1:
            return AxiomReport(False, "antipode-counit", (mu,))
    fixed_unit = 0
    for mu in bits_of(a.eta):
        fixed_unit ^= s.rows[mu]
    if fixed_unit != a.eta:
        return AxiomReport(False, "antipode-unit", ())
    return AxiomReport(True)


def antipode_leg_transform(h, r):
    """(S (x) id) R, which must equal the inverse on a Hopf algebra."""
    from f2hopf.gf2 import bits_of
    from f2hopf.structure import TensorSquareElement

    n = h.n
    out = 0
    for t in bits_of(r.bits):
        mu, nu = divmod(t, n)
        for i in bits_of(h.s.rows[mu]):
            out ^= 1 << (i * n + nu)
    return TensorSquareElement(n, out)


def both_legs_antipode(h, r):
    """(S (x) S) R, invariant for every quasitriangular structure."""
    from f2hopf.gf2 import bits_of
    from f2hopf.structure import TensorSquareElement

    n = h.n
    out = 0
    for t in bits_of(r.bits):
        mu, nu = divmod(t, n)
        for i in bits_of(h.s.rows[mu]):
            for j in bits_of(h.s.rows[nu]):
                out ^= 1 << (i * n + j)
    return TensorSquareElement(n, out)


def conjugate(rep, p):
    """The representation x -> p rep(x) p^-1."""
    from f2hopf.reps import Representation

    pinv = p.inverse()
    if pinv is None:
        raise ValueError("singular conjugation matrix")
    return Representation(rep.k, tuple(p * m * pinv for m in rep.images))


def are_equivalent(r1, r2) -> bool:
    from f2hopf.reps import equivalent_by_conjugation

    return equivalent_by_conjugation(r1, r2) is not None
