"""Exact integer and field linear algebra.

Everything here is total on exact inputs: arbitrary-precision integers,
rationals (ints while integral, else Fractions), or residues modulo a
prime.  Smith normal form is the engine behind all
finitely-generated-abelian-group computations; it builds U and its
inverse, the side every caller reads.  A `LatticeQuotient` builds its
basis and the sparse columns of U only when a caller first reads them,
so a caller that only asks `iso` pays for neither, and quotient
coordinates follow the nonzeros of the vector.  One sparse column
reduction (`field_reduce`) over a field backs the vector-space and
Jordan-type computations and the homology of a filtration: over `QQ` a
reduction of integer columns runs in int arithmetic and builds Fractions
only where a pivot does not divide.  `int_reduce` is its twin over Z,
for integer kernels and the cycles of integer homology.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import isqrt

from .matrix import Mat, Value


class NonSplitError(Exception):
    """Characteristic polynomial does not split over the coefficient field."""

    def __init__(self, factor: str):
        self.factor = factor
        super().__init__(f"characteristic polynomial has a non-linear irreducible factor: {factor}")


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

class SnfResult(Value):
    """U @ M @ V = D for some unimodular V, with U unimodular, Uinv its
    inverse and D diagonal, d_1 | d_2 | ... | d_r.  Every caller reads the
    row side, so V is not built."""

    U: Mat
    D: Mat
    Uinv: Mat

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        n = min(self.D.rows, self.D.cols)
        return tuple(self.D[i, i] for i in range(n) if self.D[i, i] != 0)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)


def _elimination(a: int, b: int) -> tuple[int, int, int, int]:
    """(x, y, u, v) with x v - y u = 1 and u a + v b = 0: the unimodular step
    (a, b) -> (x a + y b, 0).  The pivot a stays when it divides b; else
    x a + y b = +-gcd(a, b), by the extended Euclidean algorithm."""
    if b % a == 0:
        return 1, 0, -(b // a), 1
    r0, r1, x0, x1, y0, y1 = a, b, 1, 0, 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return x0, y0, -b // r0, a // r0


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(M: Mat) -> SnfResult:
    """Smith normal form over Z, with U and its inverse Uinv.

    Pivoting picks the smallest nonzero absolute value in the remaining
    block, the first in row-major order; the scan stops at the first
    entry of absolute value 1.  An entry of the pivot's row or column
    that the pivot does not divide is combined with it by a 2x2
    unimodular step whose coefficients come from their extended gcd
    (`_elimination`), and the divisibility chain is made on the
    diagonal at the end.  Chains of Euclidean remainders with row swaps,
    and forcing divisibility by adding a whole row to the pivot row, can
    grow the entries of a 10x10 matrix with entries below 7000 past
    10^100.
    """
    m, n = M.rows, M.cols
    D = [list(r) for r in M.data]
    Ut, Ui = _identity(m), _identity(m)

    def swap_rows(a, b):
        if a != b:
            for T in (D, Ut):
                T[a], T[b] = T[b], T[a]
            for r in Ui:
                r[a], r[b] = r[b], r[a]

    def swap_cols(a, b):
        if a != b:
            for r in D:
                r[a], r[b] = r[b], r[a]

    # An operation with y = 0 has x = v = 1 (`_elimination` of a pivot that
    # divides b): it only adds u times line a to line b, so it skips the
    # entries with p = 0, which it leaves unchanged.

    def mix_rows(a, b, x, y, u, v):
        # (row_a, row_b) <- (x row_a + y row_b, u row_a + v row_b), x v - y u = 1;
        # the inverse operation on the columns of Ui
        if y == 0 and x == v == 1:  # row_b += u row_a; Ui: col_a -= u col_b
            for T in (D, Ut):
                T[b] = [q + u * p if p else q for p, q in zip(T[a], T[b])]
            for r in Ui:
                q = r[b]
                if q:
                    r[a] -= u * q
            return
        for T in (D, Ut):
            ra, rb = T[a], T[b]
            T[a] = [x * p + y * q for p, q in zip(ra, rb)]
            T[b] = [u * p + v * q for p, q in zip(ra, rb)]
        for r in Ui:
            p, q = r[a], r[b]
            r[a], r[b] = v * p - u * q, x * q - y * p

    def mix_cols(a, b, x, y, u, v):
        # (col_a, col_b) <- (x col_a + y col_b, u col_a + v col_b), x v - y u = 1
        if y == 0 and x == v == 1:  # col_b += u col_a
            for r in D:
                p = r[a]
                if p:
                    r[b] += u * p
            return
        for r in D:
            p, q = r[a], r[b]
            r[a], r[b] = x * p + y * q, u * p + v * q

    def negate_row(i):
        for T in (D, Ut):
            T[i] = [-x for x in T[i]]
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
                    if best == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])

        dirty = True
        while dirty:
            # clear column t, then row t; a gcd step on row t refills column t
            dirty = False
            for i in range(t + 1, m):
                if D[i][t]:
                    mix_rows(t, i, *_elimination(D[t][t], D[i][t]))
            for j in range(t + 1, n):
                if D[t][j]:
                    dirty = dirty or D[t][j] % D[t][t] != 0
                    mix_cols(t, j, *_elimination(D[t][t], D[t][j]))
        t += 1

    # diag(a, b) -> diag(gcd, lcm) until each entry divides the next
    for i in range(t):
        for j in range(i + 1, t):
            if D[j][j] % D[i][i]:
                mix_cols(i, j, 1, 1, 0, 1)  # column i now reads (a, b) in rows i, j
                mix_rows(i, j, *_elimination(D[i][i], D[j][i]))
                mix_cols(j, i, 1, -(D[i][j] // D[i][i]), 0, 1)
        if D[i][i] < 0:
            negate_row(i)

    return SnfResult(Mat.from_rows(Ut, m), Mat.from_rows(D, n), Mat.from_rows(Ui, m))


# ---------------------------------------------------------------------------
# Integer lattices (given by generating-set matrices, columns = generators)
# ---------------------------------------------------------------------------

def int_kernel(M: Mat) -> Mat:
    """Basis of the integer kernel {x : M x = 0}, columns of the result:
    the combinations of the columns of M that `int_reduce` zeroes, in
    echelon form."""
    R, _, V = int_reduce(_columns(QQ, M))
    return _dense(QQ, [v for c, v in zip(R, V) if not c], M.cols)


def lattice_basis(gens: Mat) -> Mat:
    """Independent basis (columns) of the lattice spanned by the columns of gens."""
    return LatticeQuotient(gens, Mat.zero(gens.rows, 0)).basis


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
    """Basis (columns) of {x in Z^n : g x in column-lattice(R)} for
    g : Z^n -> Z^m: the x rows of the kernel of [-R | g], whose echelon
    basis from `int_kernel` projects onto one once the vectors that
    vanish there, the relations among the columns of R, are dropped."""
    if g.rows != R.rows:
        raise ValueError("ambient rank mismatch")
    K = int_kernel(R.scale(-1).hstack(g)).take_rows(range(R.cols, R.cols + g.cols))
    return K.take_cols([j for j, col in enumerate(K.columns()) if any(col)])


class LatticeContainmentError(ValueError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"generator column {index} is not contained in the ambient lattice")


# ---------------------------------------------------------------------------
# Fields and column reduction
# ---------------------------------------------------------------------------

MAX_EXPONENT = 4300  # Python's own limit on the digits of an int read from text
_TOO_MANY_DIGITS = 10 ** MAX_EXPONENT
# Largest prime p of F_p and modulus m of Z/m: primality and primary
# decomposition use trial division, about sqrt(p) steps.
MAX_MODULUS = 2 ** 31


def parse_rational(text) -> Fraction:
    """`Fraction(text)`, but a decimal exponent beyond MAX_EXPONENT raises
    ValueError: `Fraction("1e999999999")` would build 10**999999999.  So
    does a numerator or denominator of more than MAX_EXPONENT digits,
    which `str` could not print."""
    exp = str(text).lower().partition("e")[2].replace("_", "").strip()
    exp = exp.lstrip("+-").lstrip("0")
    if exp.isdigit() and (len(exp) > 4 or int(exp) > MAX_EXPONENT):
        raise ValueError(f"exponent of {str(text)[:40]!r} exceeds {MAX_EXPONENT}")
    value = Fraction(text)
    if abs(value.numerator) >= _TOO_MANY_DIGITS or value.denominator >= _TOO_MANY_DIGITS:
        raise ValueError(f"{str(text)[:40]!r} has more than {MAX_EXPONENT} digits")
    return value


class RationalField:
    """The field Q.  An element is an int while it is integral and a
    Fraction once a division leaves Z: `coerce` passes ints through,
    `zero` and `one` are ints, and `div` of two ints is their exact int
    quotient where the divisor divides.  So a reduction of integer
    columns does int arithmetic, and Fractions appear only in the
    columns that a non-dividing pivot touches.  Values, not types, carry
    meaning: 2 and Fraction(2) are the same element."""

    name = "Q"
    zero = 0
    one = 1

    def coerce(self, x):
        return x if type(x) is int else Fraction(x)

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return self.div(1, a)

    def div(self, a, b):
        if type(a) is int and type(b) is int:
            q, r = divmod(a, b)
            return Fraction(a, b) if r else q
        return a / b

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


def is_prime(p: int) -> bool:
    """Trial division up to the integer square root of p."""
    return p >= 2 and all(p % q for q in range(2, isqrt(p) + 1))


class PrimeField:
    """The field F_p; elements are int residues in [0, p)."""

    def __init__(self, p: int):
        if p > MAX_MODULUS:
            raise ValueError(f"prime {p} exceeds {MAX_MODULUS}")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"
        self.zero = 0
        self.one = 1 % p

    def coerce(self, x):
        return int(x) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()


def _sub_multiple(F, c: dict, f, col: dict):
    """c -= f * col in place, for dict columns over F."""
    p = F.p if isinstance(F, PrimeField) else 0  # Q entries are not reduced
    for r, x in col.items():
        y = c.get(r, 0) - f * x
        if p:
            y %= p
        if y:
            c[r] = y
        else:
            del c[r]  # f != 0, so c[r] = f * x was nonzero


def _clear(F, c: dict, R: list, lows: dict) -> list:
    """Subtract multiples of the reduced columns R from the dict column c,
    in place, until c is zero or its lowest row is not in `lows` (lowest
    row -> index into R).  Returns the steps (index, multiple); each
    index appears once, since every step clears c's lowest row."""
    steps = []
    while c:
        low = max(c)
        j = lows.get(low)
        if j is None:
            break
        f = F.div(c[low], R[j][low])
        _sub_multiple(F, c, f, R[j])
        steps.append((j, f))
    return steps


def field_reduce(F, cols: list, track: bool = False) -> tuple:
    """Column reduction over F (Zomorodian and Carlsson).

    F is a field, QQ or a PrimeField.  `cols` are dict columns (row ->
    nonzero entry of F).  Left to right,
    multiples of the nonzero columns before each one are subtracted from
    it until its lowest row differs from theirs, so a column reduces to
    zero exactly when it lies in the span of the columns before it.
    Returns (R, lows, V): the reduced columns, {lowest row: index} of the
    nonzero ones, and, when `track` is set, the combinations with
    R[j] = sum of V[j][i] * cols[i] (else None).  Every multiple is
    `F.div` of the entry to clear by the pivot, so V is unitriangular;
    over QQ it is an int where the pivot divides, else a Fraction.
    """
    R, lows, V = [], {}, [] if track else None
    for j, col in enumerate(cols):
        c = dict(col)
        steps = _clear(F, c, R, lows)
        if c:
            lows[max(c)] = j
        R.append(c)
        if track:
            v = {j: F.one}
            for i, f in steps:
                _sub_multiple(F, v, f, V[i])
            V.append(v)
    return R, lows, V


def int_reduce(cols: list) -> tuple:
    """`field_reduce` over Z with V tracked: the same (R, lows, V), in int
    dict columns.  Where a pivot leaves a remainder at the column's lowest
    row, the column and the pivot swap (Euclid on columns), so V stays
    integer and unimodular.  The V of a column j reduced to zero has
    lowest row j, as the kernel of the first j + 1 columns has rank one
    more than that of the first j; so these V, whose leads need not be
    units, are an echelon Z-basis of the kernel of every prefix."""
    R, lows, V = [], {}, []
    for j, col in enumerate(cols):
        c, v = dict(col), {j: 1}
        while c:
            low = max(c)
            i = lows.get(low)
            if i is None:
                lows[low] = j
                break
            if q := c[low] // R[i][low]:
                _sub_multiple(QQ, c, q, R[i])
                _sub_multiple(QQ, v, q, V[i])
            if low in c:  # a remainder: it becomes the pivot at low
                c, R[i] = R[i], c
                v, V[i] = V[i], v
        R.append(c)
        V.append(v)
    return R, lows, V


def _columns(F, M: Mat) -> list:
    return [{i: v for i, v in enumerate(map(F.coerce, col)) if v} for col in M.columns()]


def _dense(F, cols: list, n: int) -> Mat:
    return Mat.from_cols([[c.get(i, F.zero) for i in range(n)] for c in cols], nrows=n)


def field_rank(F, M: Mat) -> int:
    return len(field_reduce(F, _columns(F, M))[1])


def field_kernel(F, M: Mat) -> Mat:
    """Basis (columns) of the kernel of M over F: for each column of M in
    the span of the columns before it, the combination that zeroes it."""
    R, _, V = field_reduce(F, _columns(F, M), track=True)
    return _dense(F, [v for c, v in zip(R, V) if not c], M.cols)


def field_solve(F, M: Mat, B: Mat) -> Mat | None:
    """One solution X of M X = B over F, or None.  X is zero outside the
    rows of the columns of M that `column_space_basis` picks."""
    R, lows, V = field_reduce(F, _columns(F, M), track=True)
    X = []
    for b in _columns(F, B):
        x: dict = {}
        for j, f in _clear(F, b, R, lows):
            _sub_multiple(F, x, -f, V[j])
        if b:
            return None
        X.append(x)
    return _dense(F, X, M.cols)


def column_space_basis(F, M: Mat) -> Mat:
    """The columns of M outside the span of the columns before them."""
    lows = field_reduce(F, _columns(F, M))[1]
    return M.take_cols(sorted(lows.values())).map(F.coerce)


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
    expresses any element of L in these generators.

    One Smith normal form U L V = D of L_gens gives both the basis of L
    (`basis`, the columns d_i * Uinv[:, i]) and coordinates in it: x lies
    in L iff d_i divides (U x)_i for i < rank and (U x)_i = 0 beyond, and
    then its coordinates are (U x)_i / d_i.  A second one, of the
    coordinates of B, gives the canonical generators.  Containment of B
    in L is checked; a violation reports the offending column of B_gens.

    The constructor computes only what `iso` answers.  `basis` is built
    on first read, and the nonzeros of each column of U on the first
    `coords` call.  `coords` then costs one step per nonzero of U in the
    columns where x is nonzero, plus one per returned row and nonzero of U x.
    """

    def __init__(self, L_gens: Mat, B_gens: Mat):
        if L_gens.rows != B_gens.rows:
            raise ValueError("ambient rank mismatch")
        self.ambient = L_gens.rows
        s = smith_normal_form(L_gens)
        self._U, self._Uinv = s.U, s.Uinv
        self._d = s.invariant_factors
        W = s.U @ B_gens
        C = Mat.from_cols([self._divide(w, j) for j, w in enumerate(W.columns())],
                          nrows=len(self._d))
        s = smith_normal_form(C)
        self._P = s.U
        rho = s.rank
        ds = list(s.invariant_factors)
        self.free_rows = list(range(rho, len(self._d)))
        self.torsion_rows = [i for i in range(rho) if ds[i] >= 2]
        self.torsion_orders = [ds[i] for i in self.torsion_rows]
        self.free_rank = len(self.free_rows)

    @cached_property
    def basis(self) -> Mat:
        """Basis of L as columns: d_i times column i of Uinv."""
        d = self._d
        return Mat.from_rows([[a * di for a, di in zip(row, d)] for row in self._Uinv.data],
                             ncols=len(d))

    @cached_property
    def _U_columns(self) -> list:
        """The nonzeros (row, entry) of each column of U."""
        return [[(i, a) for i, a in enumerate(col) if a] for col in self._U.columns()]

    def _divide(self, w, which: int) -> list[int]:
        """Coordinates in `basis` of the x with U x = w, or
        LatticeContainmentError(which) if that x is not in L."""
        d = self._d
        if any(w[len(d):]):
            raise LatticeContainmentError(which)
        u = []
        for wi, di in zip(w, d):
            q, rem = divmod(wi, di)
            if rem:
                raise LatticeContainmentError(which)
            u.append(q)
        return u

    def iso(self) -> tuple[int, list[int]]:
        return self.free_rank, list(self.torsion_orders)

    def coords(self, x) -> list[int]:
        """Coordinates of an ambient vector x of L in the canonical generators."""
        columns = self._U_columns
        w = [0] * self.ambient
        for k, xk in enumerate(x):
            if xk:
                for i, a in columns[k]:
                    w[i] += a * xk
        nonzero = [(k, v) for k, v in enumerate(self._divide(w, -1)) if v]
        P = self._P.data
        out = [sum(P[i][k] * v for k, v in nonzero) for i in self.free_rows]
        out += [sum(P[i][k] * v for k, v in nonzero) % d
                for i, d in zip(self.torsion_rows, self.torsion_orders)]
        return out
