"""Exact integer and field linear algebra.

Everything here is total on exact inputs: arbitrary-precision integers,
Fractions, or residues modulo a prime.  Smith normal form is the engine
behind all finitely-generated-abelian-group computations; row reduction
over a field backs the vector-space and Jordan-type computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .matrix import Mat


class NonSplitError(Exception):
    """Characteristic polynomial does not split over the coefficient field."""

    def __init__(self, factor: str):
        self.factor = factor
        super().__init__(f"characteristic polynomial has a non-linear irreducible factor: {factor}")


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SnfResult:
    """U @ M @ V = D with U, V unimodular and D diagonal, d_1 | d_2 | ... | d_r."""

    U: Mat
    D: Mat
    V: Mat
    Uinv: Mat
    Vinv: Mat

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        n = min(self.D.rows, self.D.cols)
        return tuple(self.D[i, i] for i in range(n) if self.D[i, i] != 0)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)


def smith_normal_form(M: Mat) -> SnfResult:
    """Smith normal form over Z with both transforms and their inverses.

    Pivoting picks the smallest nonzero absolute value in the remaining
    block, which keeps entry growth tame at the scales this library
    targets.
    """
    m, n = M.rows, M.cols
    D = [list(r) for r in M.data]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    Ui = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    Vi = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(a, b):
        if a != b:
            D[a], D[b] = D[b], D[a]
            U[a], U[b] = U[b], U[a]
            for r in Ui:
                r[a], r[b] = r[b], r[a]

    def swap_cols(a, b):
        if a != b:
            for r in D:
                r[a], r[b] = r[b], r[a]
            for r in V:
                r[a], r[b] = r[b], r[a]
            Vi[a], Vi[b] = Vi[b], Vi[a]

    def add_row(dst, src, c):
        # row_dst += c * row_src;  inverse op on Ui columns
        D[dst] = [x + c * y for x, y in zip(D[dst], D[src])]
        U[dst] = [x + c * y for x, y in zip(U[dst], U[src])]
        for r in Ui:
            r[src] -= c * r[dst]

    def add_col(dst, src, c):
        for r in D:
            r[dst] += c * r[src]
        for r in V:
            r[dst] += c * r[src]
        Vi[src] = [x - c * y for x, y in zip(Vi[src], Vi[dst])]

    def negate_row(i):
        D[i] = [-x for x in D[i]]
        U[i] = [-x for x in U[i]]
        for r in Ui:
            r[i] = -r[i]

    t = 0
    while True:
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = D[i][j]
                if v != 0 and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])

        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, m):
                if D[i][t] != 0:
                    q = D[i][t] // D[t][t]
                    add_row(i, t, -q)
                    if D[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if D[t][j] != 0:
                    q = D[t][j] // D[t][t]
                    add_col(j, t, -q)
                    if D[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # force divisibility of the remaining block by the pivot
            stuck = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if D[i][j] % D[t][t] != 0:
                        stuck = i
                        break
                if stuck is not None:
                    break
            if stuck is None:
                break
            add_row(t, stuck, 1)
        if D[t][t] < 0:
            negate_row(t)
        t += 1

    return SnfResult(Mat.from_rows(U, m), Mat.from_rows(D, n),
                     Mat.from_rows(V, n), Mat.from_rows(Ui, m), Mat.from_rows(Vi, n))


def det_int(M: Mat) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    if M.rows != M.cols:
        raise ValueError("determinant of a non-square matrix")
    n = M.rows
    if n == 0:
        return 1
    a = [list(r) for r in M.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def is_unimodular(M: Mat) -> bool:
    return M.rows == M.cols and abs(det_int(M)) == 1


# ---------------------------------------------------------------------------
# Integer lattices (given by generating-set matrices, columns = generators)
# ---------------------------------------------------------------------------

def int_kernel(M: Mat) -> Mat:
    """Basis of the integer kernel {x : M x = 0}, columns of the result."""
    s = smith_normal_form(M)
    r = s.rank
    return s.V.take_cols(range(r, M.cols))


def solve_int(M: Mat, B: Mat) -> Mat | None:
    """One integer solution X of M X = B, or None if none exists."""
    s = smith_normal_form(M)
    r = s.rank
    W = s.U @ B
    Y = []
    for j in range(B.cols):
        y = []
        for i in range(M.cols):
            if i < r:
                d = s.D[i, i]
                w = W[i, j] if i < M.rows else 0
                if w % d != 0:
                    return None
                y.append(w // d)
            else:
                y.append(0)
        Y.append(y)
    for i in range(r, M.rows):
        for j in range(B.cols):
            if W[i, j] != 0:
                return None
    return s.V @ Mat.from_cols(Y, nrows=M.cols)


def lattice_basis(gens: Mat) -> Mat:
    """Independent basis (columns) of the lattice spanned by the columns of gens."""
    s = smith_normal_form(gens)
    r = s.rank
    cols = []
    for i in range(r):
        d = s.D[i, i]
        cols.append(tuple(s.Uinv[k, i] * d for k in range(gens.rows)))
    return Mat.from_cols(cols, nrows=gens.rows)


def lattice_contains(gens: Mat, B: Mat) -> bool:
    """True iff every column of B lies in the column lattice of gens."""
    return solve_int(gens, B) is not None


def lattice_intersection(A: Mat, B: Mat) -> Mat:
    """Generators of the intersection of two column lattices in the same Z^n."""
    if A.rows != B.rows:
        raise ValueError("ambient rank mismatch")
    if A.cols == 0 or B.cols == 0:
        return Mat.zero(A.rows, 0)
    K = int_kernel(A.hstack(B.scale(-1)))
    u = K.take_rows(range(A.cols))
    return lattice_basis(A @ u)


def preimage_lattice(g: Mat, R: Mat) -> Mat:
    """Generators of {x in Z^n : g x in column-lattice(R)} for g : Z^n -> Z^m."""
    if g.rows != R.rows:
        raise ValueError("ambient rank mismatch")
    if R.cols == 0:
        return int_kernel(g)
    K = int_kernel(g.hstack(R.scale(-1)))
    return lattice_basis(K.take_rows(range(g.cols)))


class LatticeContainmentError(ValueError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"generator column {index} is not contained in the ambient lattice")


def quotient_invariants(L_gens: Mat, B_gens: Mat) -> tuple[int, list[int]]:
    """Free rank and invariant factors of L/B for column lattices B <= L <= Z^n.

    Containment of B in L is checked; a violation reports the offending
    generator column of B_gens.
    """
    if L_gens.rows != B_gens.rows:
        raise ValueError("ambient rank mismatch")
    s = smith_normal_form(L_gens)
    r = s.rank
    # coordinates of B in a basis of L
    W = s.U @ B_gens
    coords = []
    for j in range(B_gens.cols):
        c = []
        for i in range(r):
            w = W[i, j]
            d = s.D[i, i]
            if w % d != 0:
                raise LatticeContainmentError(j)
            c.append(w // d)
        for i in range(r, L_gens.rows):
            if W[i, j] != 0:
                raise LatticeContainmentError(j)
        coords.append(c)
    C = Mat.from_cols(coords, nrows=r)
    sc = smith_normal_form(C)
    invs = [d for d in sc.invariant_factors if d >= 2]
    return r - sc.rank, invs


# ---------------------------------------------------------------------------
# Fields and row reduction
# ---------------------------------------------------------------------------

MAX_EXPONENT = 4300  # Python's own limit on the digits of an int read from text


def parse_rational(text) -> Fraction:
    """`Fraction(text)`, but a decimal exponent beyond MAX_EXPONENT raises
    ValueError: `Fraction("1e999999999")` would build 10**999999999."""
    exp = str(text).lower().partition("e")[2].replace("_", "").strip()
    exp = exp.lstrip("+-").lstrip("0")
    if exp.isdigit() and (len(exp) > 4 or int(exp) > MAX_EXPONENT):
        raise ValueError(f"exponent of {str(text)[:40]!r} exceeds {MAX_EXPONENT}")
    return Fraction(text)


class RationalField:
    """The field Q; elements are Fractions (ints are coerced)."""

    name = "Q"

    def coerce(self, x):
        return Fraction(x)

    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return 1 / Fraction(a)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField:
    """The field F_p; elements are int residues in [0, p)."""

    def __init__(self, p: int):
        if p < 2 or any(p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"
        self.zero = 0
        self.one = 1 % p

    def coerce(self, x):
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError
        return pow(a, self.p - 2, self.p)

    def elements(self):
        return range(self.p)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()


def field_rref(F, M: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form and pivot columns of M over the field F."""
    a = [[F.coerce(v) for v in r] for r in M.data]
    m, n = M.rows, M.cols
    pivots = []
    r = 0
    for j in range(n):
        piv = None
        for i in range(r, m):
            if a[i][j] != F.zero:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = F.inv(a[r][j])
        a[r] = [F.mul(inv, v) for v in a[r]]
        for i in range(m):
            if i != r and a[i][j] != F.zero:
                c = a[i][j]
                a[i] = [F.sub(x, F.mul(c, y)) for x, y in zip(a[i], a[r])]
        pivots.append(j)
        r += 1
        if r == m:
            break
    return Mat.from_rows(a, n), pivots


def field_rank(F, M: Mat) -> int:
    return len(field_rref(F, M)[1])


def fp_rank(M: Mat, p: int) -> int:
    """Rank of an integer matrix over F_p."""
    return field_rank(PrimeField(p), M)


def field_kernel(F, M: Mat) -> Mat:
    """Basis (columns) of the kernel of M over F."""
    R, pivots = field_rref(F, M)
    free = [j for j in range(M.cols) if j not in pivots]
    cols = []
    for j in free:
        v = [F.zero] * M.cols
        v[j] = F.one
        for i, pj in enumerate(pivots):
            v[pj] = F.neg(R[i, j])
        cols.append(v)
    return Mat.from_cols(cols, nrows=M.cols)


def field_solve(F, M: Mat, B: Mat) -> Mat | None:
    """One solution X of M X = B over F, or None."""
    aug = M.hstack(B)
    R, pivots = field_rref(F, aug)
    if any(j >= M.cols for j in pivots):
        return None
    X = []
    for j in range(B.cols):
        x = [F.zero] * M.cols
        for i, pj in enumerate(pivots):
            x[pj] = R[i, M.cols + j]
        X.append(x)
    return Mat.from_cols(X, nrows=M.cols)


def column_space_basis(F, M: Mat) -> Mat:
    _, pivots = field_rref(F, M)
    return M.take_cols(pivots).map(F.coerce)


# ---------------------------------------------------------------------------
# Jordan type
# ---------------------------------------------------------------------------

def _char_poly_roots(F, A: Mat) -> dict:
    """Roots with multiplicity of char(A) over F; NonSplitError if it fails to split."""
    import sympy

    x = sympy.Symbol("x")
    n = A.rows
    if isinstance(F, PrimeField):
        SA = sympy.Matrix(n, n, lambda i, j: sympy.Integer(A[i, j] % F.p))
        poly = SA.charpoly(x)
        factors = sympy.factor_list(poly.as_expr(), modulus=F.p)[1]
        roots: dict = {}
        for fac, mult in factors:
            p = sympy.Poly(fac, x, modulus=F.p)
            if p.degree() > 1:
                raise NonSplitError(str(fac))
            # monic linear factor x - root
            a1, a0 = p.all_coeffs() if p.degree() == 1 else (1, 0)
            root = F.coerce(-int(a0) * pow(int(a1), F.p - 2, F.p))
            roots[root] = roots.get(root, 0) + mult
        return roots
    SA = sympy.Matrix(n, n, lambda i, j: sympy.Rational(Fraction(A[i, j])))
    poly = SA.charpoly(x)
    factors = sympy.factor_list(poly.as_expr(), x)[1]
    roots = {}
    for fac, mult in factors:
        p = sympy.Poly(fac, x)
        if p.degree() > 1:
            raise NonSplitError(str(fac))
        a1, a0 = p.all_coeffs()
        root = Fraction(sympy.Rational(-a0 / a1).p, sympy.Rational(-a0 / a1).q)
        roots[root] = roots.get(root, 0) + mult
    return roots


def jordan_type(A: Mat, F=QQ) -> tuple:
    """Multiset of (eigenvalue, block size) pairs of a square matrix over F.

    Block counts come from the rank sequence r_k = rank((A - lambda I)^k):
    the number of blocks of size exactly k is r_{k-1} - 2 r_k + r_{k+1}.
    Raises NonSplitError when the characteristic polynomial does not split.
    """
    if A.rows != A.cols:
        raise ValueError("jordan_type expects a square matrix")
    n = A.rows
    if n == 0:
        return ()
    roots = _char_poly_roots(F, A)
    Acoerced = A.map(F.coerce)
    blocks = []
    for lam, mult in sorted(roots.items()):
        B = Mat(n, n, tuple(tuple(F.sub(Acoerced[i, j], lam if i == j else F.zero)
                                  for j in range(n)) for i in range(n)))
        ranks = [n]
        P = Mat.identity(n, one=F.one, zero=F.zero)
        for _ in range(mult):
            P = (P @ B).map(F.coerce)
            ranks.append(field_rank(F, P))
        ranks.append(ranks[-1])  # stabilized beyond the algebraic multiplicity
        for k in range(1, mult + 1):
            count = ranks[k - 1] - 2 * ranks[k] + ranks[k + 1]
            blocks.extend([(lam, k)] * count)
    blocks.sort()
    return tuple(blocks)


# ---------------------------------------------------------------------------
# Presented abelian groups L/B with canonical coordinates
# ---------------------------------------------------------------------------

class LatticeQuotient:
    """The group L/B for column lattices B <= L <= Z^n, with coordinates.

    Canonical generators are free generators first, then torsion
    generators whose orders form the invariant-factor chain.  `coords`
    expresses any element of L in these generators; `generator_reps`
    are ambient representatives of the generators.
    """

    def __init__(self, L_gens: Mat, B_gens: Mat):
        if L_gens.rows != B_gens.rows:
            raise ValueError("ambient rank mismatch")
        self.ambient = L_gens.rows
        self.basis = lattice_basis(L_gens)
        self._basis_snf = smith_normal_form(self.basis)
        z = self.basis.cols
        # coordinates of B in the basis of L
        C_cols = []
        for j in range(B_gens.cols):
            c = self._basis_coords(B_gens.col(j), which=j)
            C_cols.append(c)
        C = Mat.from_cols(C_cols, nrows=z)
        s = smith_normal_form(C)
        self._P = s.U
        self._Pinv = s.Uinv
        rho = s.rank
        ds = list(s.invariant_factors)
        self.free_rows = list(range(rho, z))
        self.torsion_rows = [i for i in range(rho) if ds[i] >= 2]
        self.torsion_orders = [ds[i] for i in self.torsion_rows]
        self.free_rank = len(self.free_rows)

    def _basis_coords(self, x, which=None):
        s = self._basis_snf
        w = [sum(s.U[i, k] * x[k] for k in range(len(x))) for i in range(s.U.rows)]
        z = self.basis.cols
        u = []
        for i in range(z):
            d = s.D[i, i]
            if w[i] % d != 0:
                raise LatticeContainmentError(which if which is not None else -1)
            u.append(w[i] // d)
        for i in range(z, self.ambient):
            if w[i] != 0:
                raise LatticeContainmentError(which if which is not None else -1)
        return u

    def iso(self) -> tuple[int, list[int]]:
        return self.free_rank, list(self.torsion_orders)

    @property
    def ngens(self) -> int:
        return self.free_rank + len(self.torsion_rows)

    def coords(self, x) -> list[int]:
        """Coordinates of an ambient vector x of L in the canonical generators."""
        u = self._basis_coords(tuple(x))
        s = [sum(self._P[i, k] * u[k] for k in range(len(u))) for i in range(self._P.rows)]
        out = [s[i] for i in self.free_rows]
        out += [s[i] % d for i, d in zip(self.torsion_rows, self.torsion_orders)]
        return out

    def generator_reps(self) -> Mat:
        """Ambient representative of each canonical generator, as columns."""
        cols = []
        for i in self.free_rows + self.torsion_rows:
            u = self._Pinv.col(i)
            cols.append(tuple(sum(self.basis[r, k] * u[k] for k in range(len(u)))
                              for r in range(self.ambient)))
        return Mat.from_cols(cols, nrows=self.ambient)
