"""Exact integer and field linear algebra.

Everything here is total on exact inputs: arbitrary-precision integers,
rationals (ints while integral, else Fractions), or residues modulo a
prime.  Smith normal form is the engine behind all
finitely-generated-abelian-group computations; it builds U and its
inverse, and every caller reads the group off it through
`SnfResult.cokernel` and `canonical`.  A `LatticeQuotient` builds the
sparse columns of U only when `coords` is first called, so a caller
that only asks `iso` does not pay for them, and quotient coordinates
follow the nonzeros of the vector.  One sparse column
reduction (`column_reduce`) over a ring, `ZZ`, `QQ` or a `PrimeField`,
backs kernels, preimages, ranks, solutions, the Jordan type and the
homology of a filtration: over `QQ` a reduction of integer columns runs
in int arithmetic and builds Fractions only where a pivot does not
divide, and over `ZZ` a floor quotient that leaves a remainder swaps the
column with its pivot (Euclid on columns).
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
    row side, so V is not built.  Every caller reads Z^m / im M off D
    through `cokernel` and `canonical`."""

    U: Mat
    D: Mat
    Uinv: Mat

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        n = min(self.D.rows, self.D.cols)
        return tuple(self.D[i, i] for i in range(n) if self.D[i, i] != 0)

    @property
    def cokernel(self) -> tuple[int, tuple[int, ...]]:
        """(free rank, invariant factors) of Z^m / im M: m less the rank
        of M, and each d_i > 1, as a d_i = 1 kills its generator."""
        d = self.invariant_factors
        return self.D.rows - len(d), tuple(di for di in d if di > 1)

    @property
    def canonical(self) -> list[tuple[int, int]]:
        """(i, order, 0 if free) per canonical generator of Z^m / im M,
        free ones first: column i of Uinv, on which x has coordinate
        (U x)_i, mod the order if torsion."""
        d = self.invariant_factors
        return [(i, 0) for i in range(len(d), self.D.rows)] + \
            [(i, di) for i, di in enumerate(d) if di > 1]


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
# Rings and column reduction
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


class IntegerRing:
    """The ring Z, for `column_reduce` and what it backs: elements are
    ints, and `div` is the floor quotient, which can leave a remainder."""

    zero = 0
    one = 1

    def coerce(self, x):
        return int(x)

    def div(self, a, b):
        return a // b


QQ = RationalField()
ZZ = IntegerRing()


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


def _clear(F, c: dict, pivots: dict) -> list:
    """Subtract multiples of the reduced columns `pivots` (lowest row ->
    column) from the dict column c, in place, until c is zero or its
    lowest row is not a key.  Returns the steps (lowest row, multiple);
    each row appears once, since every step clears c's lowest row."""
    steps = []
    while c:
        low = max(c)
        col = pivots.get(low)
        if col is None:
            break
        f = F.div(c[low], col[low])
        _sub_multiple(F, c, f, col)
        steps.append((low, f))
    return steps


def column_reduce(F, cols: list, track: bool = False) -> tuple:
    """Column reduction over the ring F, ZZ, QQ or a PrimeField
    (Zomorodian and Carlsson).

    `cols` are dict columns (row -> nonzero entry of F).  Left to right,
    while a column's lowest row is that of a nonzero column before it,
    the pivot, the multiple `F.div` of its entry there by the pivot's is
    subtracted; over a field that clears the entry, and over ZZ a
    remainder makes the column and the pivot swap (Euclid on columns).
    Returns (R, lows, V): the reduced columns, {lowest row: index} of
    the nonzero ones, and, when `track` is set, the combinations with
    R[j] = sum of V[j][i] * cols[i] (else None).  The steps are
    unimodular, so the nonzero columns of R are an echelon basis of what
    `cols` span, over ZZ the lattice.  The V of a column j reduced to
    zero has lowest row j, as the kernel of the first j + 1 columns has
    rank one more than that of the first j, so these V are an echelon
    basis of the kernel of every prefix, over ZZ a Z-basis whose leads
    need not be units.  Over QQ, V stays int while every pivot divides.
    """
    R, lows, V = [], {}, [] if track else None
    for j, col in enumerate(cols):
        c = dict(col)
        v = {j: F.one} if track else None
        while c:
            low = max(c)
            i = lows.get(low)
            if i is None:
                lows[low] = j
                break
            if q := F.div(c[low], R[i][low]):
                _sub_multiple(F, c, q, R[i])
                if track:
                    _sub_multiple(F, v, q, V[i])
            if low in c:  # a remainder over ZZ: it becomes the pivot at low
                c, R[i] = R[i], c
                if track:
                    v, V[i] = V[i], v
        R.append(c)
        if track:
            V.append(v)
    return R, lows, V


def _columns(F, M: Mat) -> list:
    return [{i: v for i, v in enumerate(map(F.coerce, col)) if v} for col in M.columns()]


def _dense(F, cols: list, n: int) -> Mat:
    return Mat.from_cols([[c.get(i, F.zero) for i in range(n)] for c in cols], nrows=n)


def field_rank(F, M: Mat) -> int:
    return len(column_reduce(F, _columns(F, M))[1])


def kernel(F, M: Mat) -> Mat:
    """Basis (columns) of the kernel {x : M x = 0} over the ring F: for
    each column of M in the span of the columns before it, the
    combination that zeroes it, in echelon form."""
    R, _, V = column_reduce(F, _columns(F, M), track=True)
    return _dense(F, [v for c, v in zip(R, V) if not c], M.cols)


def preimage(F, g: Mat, R: Mat) -> Mat:
    """Basis (columns) of {x : g x in the span of the columns of R} over
    the ring F: the x rows of the kernel of [-R | g], whose echelon
    basis from `kernel` projects onto one once the vectors that vanish
    there, the relations among the columns of R, are dropped."""
    if g.rows != R.rows:
        raise ValueError("ambient rank mismatch")
    K = kernel(F, R.scale(-1).hstack(g)).take_rows(range(R.cols, R.cols + g.cols))
    return K.take_cols([j for j, col in enumerate(K.columns()) if any(col)])


def field_solve(F, M: Mat, B: Mat) -> Mat | None:
    """One solution X of M X = B over F, or None.  X is zero outside the
    rows of the columns of M that `column_space_basis` picks."""
    R, lows, V = column_reduce(F, _columns(F, M), track=True)
    pivots = {low: R[j] for low, j in lows.items()}
    X = []
    for b in _columns(F, B):
        x: dict = {}
        for low, f in _clear(F, b, pivots):
            _sub_multiple(F, x, -f, V[lows[low]])
        if b:
            return None
        X.append(x)
    return _dense(F, X, M.cols)


def column_space_basis(F, M: Mat) -> Mat:
    """The columns of M outside the span of the columns before them."""
    lows = column_reduce(F, _columns(F, M))[1]
    return M.take_cols(sorted(lows.values())).map(F.coerce)


# ---------------------------------------------------------------------------
# Jordan type
# ---------------------------------------------------------------------------

def _char_poly_roots(F, A: Mat) -> dict:
    """Roots with multiplicity of char(A) over F; NonSplitError if it fails to split."""
    import sympy

    x = sympy.Symbol("x")
    n = A.rows
    poly = sympy.Matrix(n, n, lambda i, j: sympy.Rational(F.coerce(A[i, j]))).charpoly(x)
    if isinstance(F, PrimeField):
        poly = sympy.Poly(poly.as_expr(), x, modulus=F.p)
    roots: dict = {}
    for p, mult in poly.factor_list()[1]:  # over Q, primitive integer factors
        if p.degree() > 1:
            raise NonSplitError(str(p.as_expr()))
        a1, a0 = p.all_coeffs()
        root = F.div(F.coerce(-int(a0)), F.coerce(int(a1)))
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

class LatticeContainmentError(ValueError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"generator column {index} is not contained in the ambient lattice")


class LatticeQuotient:
    """The group L/B for column lattices B <= L <= Z^n, with coordinates.

    Canonical generators are free generators first, then torsion
    generators whose orders form the invariant-factor chain.  `coords`
    expresses any element of L in these generators.

    One Smith normal form U L V = D of L_gens gives coordinates in the
    basis of L whose columns are d_i * Uinv[:, i]: x lies in L iff d_i
    divides (U x)_i for i < rank and (U x)_i = 0 beyond, and then its
    coordinates are (U x)_i / d_i.  A second one, of the coordinates of
    B, presents L/B, and `iso` and `coords` read its `canonical`
    generators.  Containment of B in L is checked; a violation reports
    the offending column of B_gens.

    The constructor computes only what `iso` answers; the nonzeros of
    each column of U are built on the first `coords` call.  `coords` then
    costs one step per nonzero of U in the columns where x is nonzero,
    plus one per returned row and nonzero of U x.
    """

    def __init__(self, L_gens: Mat, B_gens: Mat):
        if L_gens.rows != B_gens.rows:
            raise ValueError("ambient rank mismatch")
        self.ambient = L_gens.rows
        s = smith_normal_form(L_gens)
        self._U = s.U
        self._d = s.invariant_factors
        W = s.U @ B_gens
        C = Mat.from_cols([self._divide(w, j) for j, w in enumerate(W.columns())],
                          nrows=len(self._d))
        s = smith_normal_form(C)
        self._P, self._canonical = s.U, s.canonical

    @cached_property
    def _U_columns(self) -> list:
        """The nonzeros (row, entry) of each column of U."""
        return [[(i, a) for i, a in enumerate(col) if a] for col in self._U.columns()]

    def _divide(self, w, which: int) -> list[int]:
        """Coordinates in the basis of L of the x with U x = w, or
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
        orders = [d for _, d in self._canonical]
        return orders.count(0), [d for d in orders if d]

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
        out = []
        for i, d in self._canonical:
            y = sum(P[i][k] * v for k, v in nonzero)
            out.append(y % d if d else y)
        return out
