"""Structure constants of algebras, coalgebras, bialgebras and Hopf algebras
over F2, with exact evaluators for every axiom.

Rank-3 tensors are packed flat into one integer with index
(mu, nu, rho) -> bit mu*n*n + nu*n + rho.  For a product tensor V the n-bit
slice at (mu, nu) is the coefficient vector of x^mu * x^nu; for a coproduct
tensor C the n^2-bit slice at mu is Delta(x^mu) as an element of H (x) H,
whose bit nu*n + rho stands for x^nu (x) x^rho.  Tensor products of
algebras (``TensorProductAlgebra``) are never packed but multiply from one
table of their basis products, built on first read; ``tensor_square``
keeps the one of a (x) a per algebra.
The antipode S is the two-sided inverse of id under convolution,
S * id = eta eps = id * S: ``solve_antipode`` states that as one linear
system over the n^2 bits of S, read off the slices of the coproduct and the
algebra's multiplication tables, without forming H* (x) H.

The axioms searched for are stated as XOR equations by two builders:
``algebra_equations`` (a product has a given unit and is associative) and
``homomorphism_equations`` (a linear map is a unital algebra map).  The
coproduct search states its system from the algebra's product tables, in
the basis where the counit is e^0 (``coproducts._coproduct_equations``).
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from f2hopf.gf2 import (
    Gf2Mat,
    Gf2Vec,
    bits_of,
    mat_inv_rows,
    parity,
    set_field,
    solve_linear,
    spread_table,
    value_type,
)
from f2hopf.kernels import Equation, transform_coproduct, transform_product


def tensor_bit(n: int, mu: int, nu: int, rho: int) -> int:
    return mu * n * n + nu * n + rho


@value_type
class AlgebraSC:
    """A unital associative algebra given by its structure constants.

    v holds the product tensor (x^mu x^nu = sum_rho V[mu][nu][rho] x^rho) and
    eta the coefficients of the unit element.  Standard form means the unit
    is the basis element x^0.
    """

    n: int
    v: int
    eta: int = 1

    def __init__(self, n: int, v: int, eta: int = 1):
        if v >> n**3 or eta >> n:
            raise ValueError("tensor bits outside dimension range")
        set_field(self, "n", n)
        set_field(self, "v", v)
        set_field(self, "eta", eta)

    def prod(self, mu: int, nu: int) -> int:
        """Packed coefficient vector of x^mu * x^nu."""
        n = self.n
        return (self.v >> ((mu * n + nu) * n)) & ((1 << n) - 1)

    def mul_vec(self, a: int, b: int) -> int:
        """Product of two packed coefficient vectors."""
        acc = 0
        for i in bits_of(a):
            for j in bits_of(b):
                acc ^= self.prod(i, j)
        return acc

    @property
    def is_standard(self) -> bool:
        return self.eta == 1

    @cached_property
    def commutative(self) -> bool:
        return all(
            self.prod(mu, nu) == self.prod(nu, mu)
            for mu in range(self.n)
            for nu in range(mu + 1, self.n)
        )


@value_type
class CoalgebraSC:
    """A coalgebra given by its coproduct tensor and counit vector."""

    n: int
    c: int
    eps: int

    def __init__(self, n: int, c: int, eps: int):
        if c >> n**3 or eps >> n:
            raise ValueError("tensor bits outside dimension range")
        set_field(self, "n", n)
        set_field(self, "c", c)
        set_field(self, "eps", eps)

    def cop(self, mu: int) -> int:
        """Delta(x^mu) as a packed element of H (x) H."""
        n = self.n
        return (self.c >> (mu * n * n)) & ((1 << (n * n)) - 1)


@value_type
class Bialgebra:
    alg: AlgebraSC
    coalg: CoalgebraSC

    def __post_init__(self):
        if self.alg.n != self.coalg.n:
            raise ValueError("algebra and coalgebra dimensions differ")

    @property
    def n(self) -> int:
        return self.alg.n


@value_type
class HopfAlgebra:
    bi: Bialgebra
    s: Gf2Mat

    @property
    def n(self) -> int:
        return self.bi.n

    @property
    def alg(self) -> AlgebraSC:
        return self.bi.alg

    @property
    def coalg(self) -> CoalgebraSC:
        return self.bi.coalg


@value_type
class TensorSquareElement:
    """Element of H (x) H as an n^2-bit vector, bit mu*n + nu = x^mu (x) x^nu."""

    n: int
    bits: int

    def __post_init__(self):
        if self.bits >> self.n**2:
            raise ValueError("bits outside n^2 range")

    def matrix(self) -> Gf2Mat:
        n = self.n
        return Gf2Mat(
            tuple((self.bits >> (mu * n)) & ((1 << n) - 1) for mu in range(n)), n
        )


@value_type
class AxiomReport:
    """Outcome of an axiom check; on failure, the first violated axiom and
    index tuple in lexicographic order."""

    ok: bool
    axiom: str | None = None
    index: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.ok


_PASS = AxiomReport(True)


# --- algebra axioms ----------------------------------------------------------


def check_algebra(a: AlgebraSC) -> AxiomReport:
    """Unit law and associativity at every index.  Reads a table of the n^2
    basis products, built once per call."""
    n = a.n
    table = [[a.prod(i, j) for j in range(n)] for i in range(n)]
    for mu in range(n):
        left = 0
        right = 0
        for nu in bits_of(a.eta):
            left ^= table[nu][mu]
            right ^= table[mu][nu]
        if left != 1 << mu:
            return AxiomReport(False, "unit-left", (mu,))
        if right != 1 << mu:
            return AxiomReport(False, "unit-right", (mu,))
    for i in range(n):
        row_i = table[i]
        for j in range(n):
            ij = row_i[j]
            row_j = table[j]
            for k in range(n):
                # (e_i e_j) e_k against e_i (e_j e_k).
                lhs = 0
                x = ij
                while x:
                    low = x & -x
                    lhs ^= table[low.bit_length() - 1][k]
                    x ^= low
                rhs = 0
                x = row_j[k]
                while x:
                    low = x & -x
                    rhs ^= row_i[low.bit_length() - 1]
                    x ^= low
                if lhs != rhs:
                    return AxiomReport(False, "associativity", (i, j, k))
    return _PASS


def check_coalgebra(c: CoalgebraSC) -> AxiomReport:
    """Coassociativity and the two counit identities."""
    n = c.n
    for mu in range(n):
        # (Delta (x) id) Delta vs (id (x) Delta) Delta, in the n^3 bit space
        # with basis index alpha*n*n + beta*n + gamma.
        lhs = 0
        rhs = 0
        for t in bits_of(c.cop(mu)):
            nu, gamma = divmod(t, n)
            for t2 in bits_of(c.cop(nu)):
                alpha, beta = divmod(t2, n)
                lhs ^= 1 << (alpha * n * n + beta * n + gamma)
        for t in bits_of(c.cop(mu)):
            alpha, rho = divmod(t, n)
            for t2 in bits_of(c.cop(rho)):
                beta, gamma = divmod(t2, n)
                rhs ^= 1 << (alpha * n * n + beta * n + gamma)
        if lhs != rhs:
            diff = lhs ^ rhs
            t = (diff & -diff).bit_length() - 1
            alpha, rest = divmod(t, n * n)
            beta, gamma = divmod(rest, n)
            return AxiomReport(False, "coassociativity", (mu, alpha, beta, gamma))
        left = 0
        right = 0
        for t in bits_of(c.cop(mu)):
            nu, rho = divmod(t, n)
            if (c.eps >> nu) & 1:
                left ^= 1 << rho
            if (c.eps >> rho) & 1:
                right ^= 1 << nu
        if left != 1 << mu:
            return AxiomReport(False, "counit-left", (mu,))
        if right != 1 << mu:
            return AxiomReport(False, "counit-right", (mu,))
    return _PASS


@value_type
class TensorProductAlgebra:
    """The tensor product algebra a (x) b on the product basis, multiplied
    from its table of basis products; either factor may be a tensor product
    too.

    x^i (x) y^j is basis element i*b.n + j, so (x^i (x) y^j)(x^k (x) y^l)
    = x^i x^k (x) y^j y^l, and the unit is eta_a (x) eta_b.  It is read
    wherever an ``AlgebraSC`` is, through n, eta, prod and mul_vec.
    """

    a: AlgebraSC | TensorProductAlgebra
    b: AlgebraSC | TensorProductAlgebra

    @property
    def n(self) -> int:
        return self.a.n * self.b.n

    @property
    def eta(self) -> int:
        return sum(self.b.eta << (i * self.b.n) for i in bits_of(self.a.eta))

    @cached_property
    def table(self) -> tuple[tuple[int, ...], ...]:
        """``table[v][w]`` is e_v e_w, built on first read: for v = i*m + j
        and w = k*m + l, with m = b.n, it is spread(x^i x^k) * y^j y^l, where
        spread(s) has bit t*m for each bit t of s, so the product places a
        copy of y^j y^l in the slice of each term of x^i x^k, without
        carries.  One multiplication per entry."""
        a, b = self.a, self.b
        m = b.n
        spread = [[sum(1 << (t * m) for t in bits_of(a.prod(i, k))) for k in range(a.n)]
                  for i in range(a.n)]
        prods = [[b.prod(j, l) for l in range(m)] for j in range(m)]
        return tuple(tuple(s * p for s in spread[i] for p in prods[j])
                     for i in range(a.n) for j in range(m))

    def prod(self, mu: int, nu: int) -> int:
        return self.table[mu][nu]

    def mul_vec(self, x: int, y: int) -> int:
        """Product of two packed vectors, one table row per bit of x."""
        table = self.table
        ys = list(bits_of(y))
        acc = 0
        while x:
            low = x & -x
            row = table[low.bit_length() - 1]
            x ^= low
            for w in ys:
                acc ^= row[w]
        return acc


@lru_cache(maxsize=None)
def tensor_square(a: AlgebraSC) -> TensorProductAlgebra:
    """a (x) a, memoised, so that its table is built once per algebra."""
    return TensorProductAlgebra(a, a)


def algebra_inverse(alg: AlgebraSC | TensorProductAlgebra, x: int) -> int | None:
    """The two-sided inverse of a packed element, or None if it has none.

    x y = 1 and y x = 1 form one linear system in the coefficients of y.
    In an associative algebra it has at most one solution; more than one
    raises ``ValueError``, since the product cannot be associative."""
    n, eta = alg.n, alg.eta
    # Column q holds the coefficients of x e_q, then those of e_q x.
    cols = Gf2Mat(tuple(alg.mul_vec(x, 1 << q) | alg.mul_vec(1 << q, x) << n
                        for q in range(n)), 2 * n)
    sol = solve_linear(cols.transpose(), Gf2Vec(2 * n, eta | eta << n))
    if sol is None:
        return None
    if sol.nullspace:
        raise ValueError("inverse is not unique: the product is not associative")
    return sol.particular.bits


@lru_cache(maxsize=None)
def matrix_algebra(k: int) -> AlgebraSC:
    """M_k(F2) on the matrix units: E_ij is basis element i*k + j,
    E_ij E_jl = E_il and every other product vanishes."""
    n = k * k
    v = 0
    for i in range(k):
        for j in range(k):
            for l in range(k):
                v |= 1 << tensor_bit(n, i * k + j, j * k + l, i * k + l)
    return AlgebraSC(n, v, sum(1 << (i * k + i) for i in range(k)))


def algebra_equations(n: int, eta: int, var) -> list[tuple]:
    """The XOR equations stating that a product on n basis elements has unit
    eta and is associative.

    Coefficient r of e_p e_q is variable var(p, q, r).  First come the unit
    laws eta e_q = e_q and e_q eta = e_q, linear, one equation per (q, r)
    for each side; then (e_a e_b) e_c = e_a (e_b e_c), one equation per
    (a, b, c, g) in lexicographic order for coefficient g.
    """
    equations = []
    for side in (var, lambda i, q, r: var(q, i, r)):
        for q in range(n):
            for r in range(n):
                eq = Equation(int(q == r))
                for i in bits_of(eta):
                    eq.add_var(side(i, q, r))
                equations.append(eq.emit())
    # When the unit is e_0 itself, the unit laws pin every product with e_0:
    # var(0, c, g) = [c = g] and var(a, 0, g) = [a = g].  Associativity at a
    # triple containing 0 then reads 0 = 0 and is not emitted, and its
    # lambda = 0 terms are stated as the linear terms they become.
    first = int(eta == 1)
    for a in range(first, n):
        for b in range(first, n):
            for c in range(first, n):
                for g in range(n):
                    eq = Equation()
                    if first:
                        if c == g:
                            eq.add_var(var(a, b, 0))
                        if a == g:
                            eq.add_var(var(b, c, 0))
                    for lam in range(first, n):
                        eq.add_pair(var(a, b, lam), var(lam, c, g))
                        eq.add_pair(var(b, c, lam), var(a, lam, g))
                    equations.append(eq.emit())
    return equations


def homomorphism_equations(a: AlgebraSC, b: AlgebraSC, var) -> list[tuple]:
    """The XOR equations stating that phi: a -> b is a unital algebra map.

    Entry phi[i][j], coefficient j of phi(e_i) in b's basis, is variable
    var(i, j).  First come the unit equations phi(eta_a) = eta_b, one per
    coefficient j; then phi(e_p e_q) = phi(e_p) phi(e_q), one equation per
    (p, q, r) in lexicographic order for coefficient r.  var must give
    every entry its own variable.
    """
    cols = range(b.n)
    phi = [[var(i, j) for j in cols] for i in range(a.n)]
    equations = []
    for j in cols:
        lin = 0
        for i in bits_of(a.eta):
            lin ^= 1 << phi[i][j]
        equations.append(((b.eta >> j) & 1, lin, ()))
    # by_target[r]: the (j, k) for which e_j e_k in b has coefficient r,
    # in lexicographic order.
    by_target = [[] for _ in cols]
    for j in cols:
        for k in cols:
            for r in bits_of(b.prod(j, k)):
                by_target[r].append((j, k))
    # When e_0 is a term of a's unit, e_0 = eta_a + u with u a sum of other
    # basis elements, and phi(eta_a) = eta_b by the unit equations, so by the
    # unit laws of a and b each product with e_0 reduces to products of u's
    # terms with e_1..e_(n-1), which are stated: products with e_0 add
    # nothing and are not emitted.
    first = a.eta & 1
    for p in range(first, a.n):
        row_p = phi[p]
        for q in range(first, a.n):
            row_q = phi[q]
            terms = [phi[s] for s in bits_of(a.prod(p, q))]
            for r in cols:
                lin = 0
                for row_s in terms:
                    lin ^= 1 << row_s[r]
                if p != q:
                    # Entries of two different rows: no pair is a square,
                    # and none repeats, since var is injective.
                    pairs = []
                    for j, k in by_target[r]:
                        x, y = row_p[j], row_q[k]
                        pairs.append((x, y) if x < y else (y, x))
                else:
                    # x_j x_k and x_k x_j cancel; x_j x_j = x_j is linear.
                    pairs = set()
                    for j, k in by_target[r]:
                        x, y = row_p[j], row_p[k]
                        if x == y:
                            lin ^= 1 << x
                            continue
                        key = (x, y) if x < y else (y, x)
                        if key in pairs:
                            pairs.remove(key)
                        else:
                            pairs.add(key)
                equations.append((0, lin, tuple(sorted(pairs))))
    return equations


def check_bialgebra(b: Bialgebra) -> AxiomReport:
    """Coalgebra axioms plus compatibility: Delta and eps are algebra maps,
    Delta(1) = 1 (x) 1 and eps(1) = 1."""
    rep = check_coalgebra(b.coalg)
    if not rep:
        return rep
    a, c = b.alg, b.coalg
    n = b.n
    # eps(1) = 1 and Delta(1) = 1 (x) 1.
    if parity(a.eta & c.eps) != 1:
        return AxiomReport(False, "counit-of-unit", ())
    square = tensor_square(a)
    delta_unit = 0
    for mu in bits_of(a.eta):
        delta_unit ^= c.cop(mu)
    if delta_unit != square.eta:
        return AxiomReport(False, "coproduct-of-unit", ())
    for mu in range(n):
        for nu in range(n):
            # eps multiplicative.
            lhs = parity(a.prod(mu, nu) & c.eps)
            rhs = ((c.eps >> mu) & 1) & ((c.eps >> nu) & 1)
            if lhs != rhs:
                return AxiomReport(False, "counit-multiplicative", (mu, nu))
            # Delta multiplicative.
            left = 0
            for rho in bits_of(a.prod(mu, nu)):
                left ^= c.cop(rho)
            if left != square.mul_vec(c.cop(mu), c.cop(nu)):
                return AxiomReport(False, "coproduct-multiplicative", (mu, nu))
    return _PASS


# --- antipode ----------------------------------------------------------------


@lru_cache(maxsize=None)
def _product_masks(a: AlgebraSC) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Multiplication of a, as the antipode equations read it: for every
    packed vector s and coefficient tau, ``right[s][tau]`` is the set of
    sigma (a mask) for which e_sigma s has coefficient tau, and
    ``left[s][tau]`` the same for s e_sigma.  Returns (left, right)."""
    n = a.n
    tables = []
    for side in (lambda sigma, rho: a.prod(rho, sigma), a.prod):
        # unit[rho][tau]: the sigma for which side(sigma, rho), that is
        # e_rho e_sigma (left) or e_sigma e_rho (right), has coefficient
        # tau; a sum s of basis elements XORs their rows.
        unit = [[0] * n for _ in range(n)]
        for rho in range(n):
            for sigma in range(n):
                for tau in bits_of(side(sigma, rho)):
                    unit[rho][tau] |= 1 << sigma
        table = [(0,) * n]
        for row in unit:
            table += [tuple(x ^ y for x, y in zip(t, row)) for t in table]
        tables.append(tuple(table))
    return tuple(tables)


def solve_antipode(b: Bialgebra) -> Gf2Mat | None:
    """The antipode matrix when one exists, else None; row mu is S(x^mu).

    S is the two-sided inverse of id under convolution: for every mu,
    (S * id)(x^mu) = sum C[mu][nu][rho] S(x^nu) x^rho and
    (id * S)(x^mu) = sum C[mu][nu][rho] x^nu S(x^rho) both equal
    eps(x^mu) eta.  That is 2 n^2 linear equations, one per mu and
    coefficient tau on each side, over the n^2 bits of S (bit nu*n + sigma
    is coefficient sigma of S(x^nu)).  In an associative algebra they have
    at most one solution; more than one raises ``ValueError``.
    """
    a, c = b.alg, b.coalg
    n = a.n
    left, right = _product_masks(a)
    full = (1 << n) - 1
    unit = [(a.eta >> tau) & 1 for tau in range(n)]
    rows = []
    rhs = 0
    for mu in range(n):
        cop = c.cop(mu)
        # slices[nu] holds C[mu][nu][.] over rho; columns[rho], C[mu][.][rho] over nu.
        slices = [(cop >> (nu * n)) & full for nu in range(n)]
        columns = [0] * n
        for nu, s in enumerate(slices):
            while s:
                low = s & -s
                columns[low.bit_length() - 1] |= 1 << nu
                s ^= low
        counit = (c.eps >> mu) & 1
        for masks, parts in ((right, slices), (left, columns)):
            for tau in range(n):
                row = 0
                for k, s in enumerate(parts):
                    row |= masks[s][tau] << (k * n)
                rhs |= (counit & unit[tau]) << len(rows)
                rows.append(row)
    sol = solve_linear(Gf2Mat(tuple(rows), n * n), Gf2Vec(len(rows), rhs))
    if sol is None:
        return None
    if sol.nullspace:
        raise ValueError("antipode is not unique: the convolution is not associative")
    s = sol.particular.bits
    return Gf2Mat(tuple((s >> (nu * n)) & full for nu in range(n)), n)


# --- duality, opposites, basis change ---------------------------------------


def dualize_coalgebra(c: CoalgebraSC) -> AlgebraSC:
    """Dual algebra on the dual basis: V*[nu][rho][mu] = C[mu][nu][rho]."""
    n = c.n
    v = 0
    for mu in range(n):
        for t in bits_of(c.cop(mu)):
            nu, rho = divmod(t, n)
            v |= 1 << tensor_bit(n, nu, rho, mu)
    return AlgebraSC(n, v, eta=c.eps)


def dualize_algebra(a: AlgebraSC) -> CoalgebraSC:
    """Dual coalgebra on the dual basis: C*[mu][nu][rho] = V[nu][rho][mu]."""
    n = a.n
    c = 0
    for nu in range(n):
        for rho in range(n):
            for mu in bits_of(a.prod(nu, rho)):
                c |= 1 << tensor_bit(n, mu, nu, rho)
    return CoalgebraSC(n, c, eps=a.eta)


def dual_bialgebra_raw(b: Bialgebra) -> Bialgebra:
    """Swap the two structures onto the dual basis (unit may be non-standard)."""
    return Bialgebra(dualize_coalgebra(b.coalg), dualize_algebra(b.alg))


def opposite_product(a: AlgebraSC) -> AlgebraSC:
    n = a.n
    v = 0
    for mu in range(n):
        for nu in range(n):
            v |= a.prod(nu, mu) << ((mu * n + nu) * n)
    return AlgebraSC(n, v, a.eta)


def opposite_coproduct(c: CoalgebraSC) -> CoalgebraSC:
    """Each slice Delta(x^mu) transposed as an n x n bit matrix: its row
    nu, spread, is column nu of the new slice."""
    n = c.n
    spread = spread_table(n)
    row_mask = (1 << n) - 1
    out = 0
    for mu in range(n):
        s = c.cop(mu)
        t = 0
        for nu in range(n):
            t |= spread[(s >> (nu * n)) & row_mask] << nu
        out |= t << (mu * n * n)
    return CoalgebraSC(n, out, c.eps)


def opposite(b: Bialgebra, which: str) -> Bialgebra:
    """H^op (reversed product) or H^cop (reversed coproduct)."""
    if which == "product":
        return Bialgebra(opposite_product(b.alg), b.coalg)
    if which == "coproduct":
        return Bialgebra(b.alg, opposite_coproduct(b.coalg))
    raise ValueError("which must be 'product' or 'coproduct'")


def apply_basis_change_algebra(a: AlgebraSC, p: Gf2Mat) -> AlgebraSC:
    """Structure constants in the new basis z_a = sum_m P[a][m] x^m."""
    n = a.n
    pinv = mat_inv_rows(p.rows, n)
    if pinv is None:
        raise ValueError("singular basis-change matrix")
    v = transform_product(a.v, n, p.rows, pinv)
    eta = 0
    for i in bits_of(a.eta):
        eta ^= pinv[i]
    return AlgebraSC(n, v, eta)


def apply_basis_change_coalgebra(c: CoalgebraSC, p: Gf2Mat) -> CoalgebraSC:
    n = c.n
    out = transform_coproduct(c.c, n, p.rows)  # ValueError when p is singular
    eps = 0
    for a in range(n):
        if parity(p.rows[a] & c.eps):
            eps |= 1 << a
    return CoalgebraSC(n, out, eps)


def apply_basis_change(struct, p: Gf2Mat):
    if isinstance(struct, AlgebraSC):
        return apply_basis_change_algebra(struct, p)
    if isinstance(struct, CoalgebraSC):
        return apply_basis_change_coalgebra(struct, p)
    if isinstance(struct, Bialgebra):
        return Bialgebra(
            apply_basis_change_algebra(struct.alg, p),
            apply_basis_change_coalgebra(struct.coalg, p),
        )
    raise TypeError(f"cannot change basis of {type(struct).__name__}")
