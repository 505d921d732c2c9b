"""Independent oracles used by the test suite.

Each oracle deliberately avoids the library code path it checks:
brute-force enumeration, minor gcds, raw GF(2) elimination, exhaustive
matching.  Expected values in the tests are computed here, never copied
from the implementation under test.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd

from gpd.categories import (
    Mor,
    ab,
    ab_relations,
    finab,
    finset,
    identity_mor,
    image_iso_class,
    iso_from_invariants,
    make_mor,
    make_obj,
    vect,
)
from gpd.diagram import DiagramError, DiagramGrid, cumulative_at, cumulative_at_cell, mobius_invert
from gpd.exact import LatticeContainmentError, SnfResult, _elimination, smith_normal_form
from gpd.grothendieck import GroupElem, add, leq, sub, zero_elem
from gpd.metrics import ErosionReport
from gpd.homology import (
    FiltrationError,
    _Stage,
    parse_coeffs,
    persistent_homology,
    persistent_module,
)
from gpd.matrix import Mat, Value
from gpd.pmodule import (
    ConstructibleModule,
    InterleavingGridError,
    InterleavingPair,
    composite_mor,
    dX_A,
    expected_phi_grid,
    segment_reps,
)


# --- Smith normal form: d_1 * ... * d_k = gcd of all k x k minors -----------

def minor_gcds(M: Mat) -> list[int]:
    """gcd of all k x k minors for k = 1 .. min(rows, cols)."""
    out = []
    n = min(M.rows, M.cols)
    for k in range(1, n + 1):
        g = 0
        for rows in combinations(range(M.rows), k):
            for cols in combinations(range(M.cols), k):
                sub = [[M[i, j] for j in cols] for i in rows]
                g = gcd(g, _det(sub))
        out.append(g)
    return out


def _det(a) -> int:
    n = len(a)
    if n == 0:
        return 1
    if n == 1:
        return a[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in a[1:]]
        total += (-1) ** j * a[0][j] * _det(minor)
    return total


def invariants_from_minor_gcds(M: Mat) -> list[int]:
    gs = minor_gcds(M)
    invs = []
    prev = 1
    for g in gs:
        if g == 0:
            break
        invs.append(g // prev)
        prev = g
    return invs


# --- Dense products and the all-transforms Smith normal form ---------------

def dense_mul(A: Mat, B: Mat) -> Mat:
    """A @ B by the dense sum 0 + sum_k A[i, k] * B[k, j] of every entry,
    zeros included."""
    if A.cols != B.rows:
        raise ValueError(f"shape mismatch: {A.rows}x{A.cols} @ {B.rows}x{B.cols}")
    return Mat(A.rows, B.cols, tuple(
        tuple(sum(A.data[i][k] * B.data[k][j] for k in range(A.cols)) for j in range(B.cols))
        for i in range(A.rows)))


class DenseSnf(Value):
    """U @ M @ V = D with all three transforms: `SnfResult` and its V."""

    U: Mat
    D: Mat
    V: Mat
    Uinv: Mat
    invariant_factors = SnfResult.invariant_factors
    rank = SnfResult.rank


def dense_smith_normal_form(M: Mat) -> DenseSnf:
    """Smith normal form with U, V and Uinv always built and updated, every
    row of every transform touched by each operation, and a pivot scan of
    the whole remaining block: the same pivots and steps as
    `exact.smith_normal_form`, so the same D, U and Uinv."""
    m, n = M.rows, M.cols
    D = [list(r) for r in M.data]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    Ui = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

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

    def mix_rows(a, b, x, y, u, v):
        for T in (D, U):
            ra, rb = T[a], T[b]
            T[a] = [x * p + y * q for p, q in zip(ra, rb)]
            T[b] = [u * p + v * q for p, q in zip(ra, rb)]
        for r in Ui:
            p, q = r[a], r[b]
            r[a], r[b] = v * p - u * q, x * q - y * p

    def mix_cols(a, b, x, y, u, v):
        for T in (D, V):
            for r in T:
                p, q = r[a], r[b]
                r[a], r[b] = x * p + y * q, u * p + v * q

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
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if D[i][t]:
                    mix_rows(t, i, *_elimination(D[t][t], D[i][t]))
            for j in range(t + 1, n):
                if D[t][j]:
                    dirty = dirty or D[t][j] % D[t][t] != 0
                    mix_cols(t, j, *_elimination(D[t][t], D[t][j]))
        t += 1

    for i in range(t):
        for j in range(i + 1, t):
            if D[j][j] % D[i][i]:
                mix_cols(i, j, 1, 1, 0, 1)
                mix_rows(i, j, *_elimination(D[i][i], D[j][i]))
                mix_cols(j, i, 1, -(D[i][j] // D[i][i]), 0, 1)
        if D[i][i] < 0:
            negate_row(i)

    return DenseSnf(Mat.from_rows(U, m), Mat.from_rows(D, n),
                    Mat.from_rows(V, n), Mat.from_rows(Ui, m))


def assert_snf_sides_match_oracle(M: Mat):
    """`smith_normal_form`'s D, U and Uinv equal the dense all-transforms
    oracle's, and with the oracle's V they reassemble U M V = D."""
    o = dense_smith_normal_form(M)
    s = smith_normal_form(M)
    assert (s.U, s.D, s.Uinv) == (o.U, o.D, o.Uinv)
    assert s.U @ M @ o.V == s.D


# --- Integer determinants and solving (checks of SNF transforms, lattices) --

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


def solve_int(M: Mat, B: Mat) -> Mat | None:
    """One integer solution X of M X = B, or None if none exists."""
    s = dense_smith_normal_form(M)
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


def lattice_contains(gens: Mat, B: Mat) -> bool:
    """True iff every column of B lies in the column lattice of gens."""
    return solve_int(gens, B) is not None


# --- Finite abelian groups by element enumeration ---------------------------

class FiniteGroupTable:
    """A finite abelian group Z/d_1 x ... x Z/d_k as explicit element tuples."""

    def __init__(self, orders):
        self.orders = tuple(orders)
        self.elements = list(product(*[range(d) for d in self.orders]))

    def add(self, a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, self.orders))

    def order_of(self, a) -> int:
        k = 1
        cur = a
        zero = tuple(0 for _ in self.orders)
        while cur != zero:
            cur = self.add(cur, a)
            k += 1
        return k

    def order_profile(self, subset=None) -> dict:
        """Multiset {element order: count}; a complete invariant for finite abelian groups."""
        elems = self.elements if subset is None else subset
        prof: dict = {}
        for a in elems:
            o = self.order_of(a)
            prof[o] = prof.get(o, 0) + 1
        return prof

    def subgroup_generated(self, gens) -> set:
        zero = tuple(0 for _ in self.orders)
        seen = {zero}
        frontier = [zero]
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = self.add(cur, g)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen


def cyclic_decomposition_by_profile(table: FiniteGroupTable, subset) -> list[int]:
    """Invariant factors of a subgroup, found by matching order profiles.

    Exhaustive over candidate decompositions of the subgroup order; fine
    for the small groups (order <= 64ish) used in tests.
    """
    n = len(subset)
    if n == 1:
        return []
    target = table.order_profile(subset)
    for cand in _factor_chains(n):
        if FiniteGroupTable(cand).order_profile() == target:
            return list(cand)
    raise AssertionError("no abelian group matches the order profile")


def _factor_chains(n: int):
    """All divisibility chains d_1 | d_2 | ... with product n, each d >= 2."""
    def rec(n, minfac):
        if n == 1:
            yield ()
        for d in range(minfac, n + 1):
            if n % d == 0:
                for rest in rec(n // d, d):
                    yield (d,) + rest
    yield from rec(n, 2)


# --- Classical persistence by quadrant counting over GF(2) -------------------

def gf2_rank(rows: list[list[int]]) -> int:
    rows = [r[:] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    r = 0
    while r < len(rows) and col < ncols:
        piv = None
        for i in range(r, len(rows)):
            if rows[i][col] % 2:
                piv = i
                break
        if piv is None:
            col += 1
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col] % 2:
                rows[i] = [(a + b) % 2 for a, b in zip(rows[i], rows[r])]
        r += 1
        col += 1
    return r


def classical_diagram_gf2(dims: list[int], maps: list[list[list[int]]]) -> dict:
    """Persistence diagram of a GF(2) module by the quadrant-count definition.

    dims[i] is the dimension at stage i (1-based critical values s_1..s_n
    are implicit); maps[i] sends stage i to stage i+1.  The multiplicity
    of [s_i, s_j) is r(i,j-1) - r(i,j) - r(i-1,j-1) + r(i-1,j) where
    r(a,b) = rank of the composite from stage a to stage b, with the
    empty stage 0 prepended.  Implemented with raw GF(2) elimination.
    """
    n = len(dims)

    def composite(a, b):
        # identity at stage a, then maps a..b-1; shapes tracked explicitly
        # because stages may be zero-dimensional
        cols = dims[a - 1]
        m = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
        for k in range(a - 1, b - 1):
            mk = maps[k]
            nrows = dims[k + 1]
            m = [[sum(mk[i][t] * m[t][j] for t in range(len(m))) % 2
                  for j in range(cols)] for i in range(nrows)]
        return m

    def r(a, b):
        if a == 0 or dims[a - 1] == 0:
            return 0
        return gf2_rank(composite(a, b))

    diagram = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            mult = r(i, j - 1) - r(i, j) - r(i - 1, j - 1) + r(i - 1, j)
            if mult:
                diagram[(i, j)] = mult
        mult = r(i, n) - r(i - 1, n)
        if mult:
            diagram[(i, n + 1)] = mult
    return diagram


# --- Bottleneck distance by exhaustive matching ------------------------------

def bottleneck_distance(pts1, pts2):
    """Bottleneck distance between small multiplicity diagrams.

    Points are (birth, death) with death possibly None for infinity,
    with multiplicity expanded by the caller.  Exhaustive over all
    matchings including matches to the diagonal.
    """
    INF = Fraction(10 ** 12)

    def expand(pts):
        fin = [p for p in pts if p[1] is not None]
        inf = [p for p in pts if p[1] is None]
        return fin, inf

    f1, i1 = expand(pts1)
    f2, i2 = expand(pts2)
    if len(i1) != len(i2):
        return None  # infinite distance
    best_inf = INF
    for perm in permutations(range(len(i2))) if i2 else [()]:
        cost = Fraction(0)
        for a, pi in zip(i1, perm):
            cost = max(cost, abs(a[0] - i2[pi][0]))
        best_inf = min(best_inf, cost)
    if not i1:
        best_inf = Fraction(0)

    def diag_cost(p):
        return (p[1] - p[0]) / 2

    m, k = len(f1), len(f2)
    best = INF
    # choose subsets matched to the diagonal, match the rest bijectively
    for keep1 in range(m + 1):
        for s1 in combinations(range(m), keep1):
            rest1 = [f1[i] for i in s1]
            drop1 = [f1[i] for i in range(m) if i not in s1]
            if k < keep1:
                continue
            for s2 in combinations(range(k), keep1):
                rest2 = [f2[i] for i in s2]
                drop2 = [f2[i] for i in range(k) if i not in s2]
                base = Fraction(0)
                for p in drop1 + drop2:
                    base = max(base, diag_cost(p))
                if base >= best:
                    continue
                for perm in permutations(range(keep1)) if keep1 else [()]:
                    cost = base
                    for a, pi in zip(rest1, perm):
                        b = rest2[pi]
                        cost = max(cost, abs(a[0] - b[0]), abs(a[1] - b[1]))
                    best = min(best, cost)
    return max(best, best_inf)


# --- Lattice quotient with a second Smith normal form for coordinates -------

class lattice_quotient_oracle:
    """L/B without sharing a Smith normal form: a basis d_i Uinv[:, i] of L
    from one Smith normal form of L_gens, a second Smith normal form
    U_b basis V_b = D_b of that basis to read the coordinates
    V_b ((U_b x)_i / d_i) of each column x of B one at a time, and a third
    of those coordinates for the canonical generators."""

    def __init__(self, L_gens: Mat, B_gens: Mat):
        self.ambient = L_gens.rows
        s = dense_smith_normal_form(L_gens)
        self.basis = Mat.from_cols([[s.Uinv[k, i] * s.D[i, i] for k in range(self.ambient)]
                                    for i in range(s.rank)], nrows=self.ambient)
        self._basis_snf = dense_smith_normal_form(self.basis)
        C = Mat.from_cols([self._basis_coords(B_gens.col(j), which=j)
                           for j in range(B_gens.cols)], nrows=self.basis.cols)
        s = dense_smith_normal_form(C)
        self._P = s.U
        self._Pinv = s.Uinv
        ds = list(s.invariant_factors)
        self.free_rows = list(range(s.rank, self.basis.cols))
        self.torsion_rows = [i for i in range(s.rank) if ds[i] >= 2]
        self.torsion_orders = [ds[i] for i in self.torsion_rows]

    def _basis_coords(self, x, which=-1):
        s = self._basis_snf
        w = [sum(s.U[i, k] * x[k] for k in range(len(x))) for i in range(s.U.rows)]
        y = []
        for i in range(self.basis.cols):
            if w[i] % s.D[i, i] != 0:
                raise LatticeContainmentError(which)
            y.append(w[i] // s.D[i, i])
        if any(w[i] != 0 for i in range(self.basis.cols, self.ambient)):
            raise LatticeContainmentError(which)
        return [sum(s.V[i, k] * y[k] for k in range(len(y))) for i in range(s.V.rows)]

    def iso(self) -> tuple[int, list[int]]:
        return len(self.free_rows), list(self.torsion_orders)

    def coords(self, x) -> list[int]:
        u = self._basis_coords(tuple(x))
        s = [sum(self._P[i, k] * u[k] for k in range(len(u))) for i in range(self._P.rows)]
        return [s[i] for i in self.free_rows] + \
            [s[i] % d for i, d in zip(self.torsion_rows, self.torsion_orders)]

    def generator_reps(self) -> Mat:
        cols = []
        for i in self.free_rows + self.torsion_rows:
            u = self._Pinv.col(i)
            cols.append(tuple(sum(self.basis[r, k] * u[k] for k in range(len(u)))
                              for r in range(self.ambient)))
        return Mat.from_cols(cols, nrows=self.ambient)


def image_iso_class_oracle(f):
    """Image class of a morphism; over ab and finab the presented quotient
    (payload | R) / R of the target relations R by `lattice_quotient_oracle`,
    whatever the target, and the library's `image_iso_class` otherwise."""
    if f.cat.kind not in ("ab", "finab"):
        return image_iso_class(f)
    R = ab_relations(f.tgt)
    rank, invs = lattice_quotient_oracle(f.payload.hstack(R), R).iso()
    return iso_from_invariants(f.cat, rank, invs)


# --- Full-grid type A and type B diagrams -----------------------------------

def _b_label(c) -> dict:
    """Quotient-group label of an isomorphism class, read off its
    indecomposables: dimension, free rank, p-power length per prime
    (torsion dies over Z), total Jordan block size per eigenvalue."""
    label: dict = {}
    for d, cnt in c.coeffs:
        if d == "line":
            key, amount = "dim", cnt
        elif d == "Z":
            key, amount = "rank", cnt
        elif d[0] == "t" and c.cat.kind == "ab":
            continue
        else:
            key, amount = d[1], d[2] * cnt
        label[key] = label.get(key, 0) + amount
    return label


def full_grid_type_A(F) -> DiagramGrid:
    """Type A diagram with an image class on every cell of F's grid,
    isomorphism steps included: the inversion of X_A without
    restricting F to the values where it changes."""
    return mobius_invert(dX_A(F))


def type_B_oracle(F) -> DiagramGrid:
    """Type B diagram of a module without the split group: each cell's
    image is recomposed from scratch, its class labelled directly in the
    quotient group, and the cumulative data inverted."""
    n = F.n
    cells = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 2):
            b = n if j == n + 1 else j - 1
            label = _b_label(image_iso_class_oracle(composite_mor(F, i, b)))
            cells[(i, j)] = GroupElem("B", F.cat, tuple(sorted((k, v) for k, v in label.items() if v)))
    return mobius_invert(DiagramGrid.make("B", F.cat, F.values, cells, role="constructible"))


# --- Dense field linear algebra and per-stage field homology ---------------

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


def rref_rank(F, M: Mat) -> int:
    return len(field_rref(F, M)[1])


def rref_kernel(F, M: Mat) -> Mat:
    """Basis (columns) of the kernel of M over F, one per free column."""
    R, pivots = field_rref(F, M)
    cols = []
    for j in (j for j in range(M.cols) if j not in pivots):
        v = [F.zero] * M.cols
        v[j] = F.one
        for i, pj in enumerate(pivots):
            v[pj] = F.sub(F.zero, R[i, j])
        cols.append(v)
    return Mat.from_cols(cols, nrows=M.cols)


def rref_solve(F, M: Mat, B: Mat) -> Mat | None:
    """One solution X of M X = B over F, or None."""
    R, pivots = field_rref(F, M.hstack(B))
    if any(j >= M.cols for j in pivots):
        return None
    X = []
    for j in range(B.cols):
        x = [F.zero] * M.cols
        for i, pj in enumerate(pivots):
            x[pj] = R[i, M.cols + j]
        X.append(x)
    return Mat.from_cols(X, nrows=M.cols)


def rref_column_space_basis(F, M: Mat) -> Mat:
    return M.take_cols(field_rref(F, M)[1]).map(F.coerce)


def boundary_matrix(rows: list, cols: list) -> Mat:
    """Integer boundary matrix from the simplices `cols` to their facets,
    the simplices `rows`: entry (-1)^i at the facet without vertex i."""
    pos = {s: i for i, s in enumerate(rows)}
    out = [[0] * len(rows) for _ in cols]
    for c, s in zip(out, cols):
        for i in range(len(s) if len(s) > 1 else 0):
            c[pos[s[:i] + s[i + 1:]]] = (-1) ** i
    return Mat.from_cols(out, nrows=len(rows))


class DenseFieldStage:
    """Field homology of one sublevel complex by dense RREFs: a kernel of
    d_k, a basis of the boundaries, an RREF of [boundaries | cycles] to
    extend it to the cycles, and one solve per chain in `coords`."""

    def __init__(self, K, k: int, F, at):
        self.k_simplices = K.simplices_of_dim(k, at=at)
        below = K.simplices_of_dim(k - 1, at=at) if k > 0 else []
        d_k = boundary_matrix(below, self.k_simplices).map(F.coerce)
        d_k1 = boundary_matrix(self.k_simplices, K.simplices_of_dim(k + 1, at=at)).map(F.coerce)
        ker = rref_kernel(F, d_k) if k > 0 else \
            Mat.identity(len(self.k_simplices), one=F.one, zero=F.zero)
        img = rref_column_space_basis(F, d_k1)
        _, pivots = field_rref(F, img.hstack(ker))
        self.gen_reps = ker.take_cols([p - img.cols for p in pivots if p >= img.cols])
        self._F, self._full, self._split = F, img.hstack(self.gen_reps), img.cols
        self.obj = make_obj(vect(F), self.gen_reps.cols)

    def coords(self, chain) -> list:
        sol = rref_solve(self._F, self._full, Mat.from_cols([chain], nrows=len(chain)))
        if sol is None:
            raise FiltrationError("chain is not a cycle of this stage")
        return [sol[i, 0] for i in range(self._split, self._full.cols)]


def _dense_induced(src, tgt) -> Mat:
    """Induced map between two oracle stages (`DenseFieldStage` or
    `SnfIntegerStage`), one `coords` call per generator of src."""
    pos = {s: i for i, s in enumerate(tgt.k_simplices)}
    cols = []
    for g in src.gen_reps.columns():
        chain = [0] * len(tgt.k_simplices)
        for s, v in zip(src.k_simplices, g):
            chain[pos[s]] = v
        cols.append(tgt.coords(chain))
    return Mat.from_cols(cols, nrows=tgt.gen_reps.cols)


def dense_field_homology(K, k: int, coeffs: str) -> tuple:
    """(stages, module) of degree-k persistent homology over a field,
    from one DenseFieldStage per segment."""
    F = parse_coeffs(coeffs)[1]
    stages = [DenseFieldStage(K, k, F, t) for t in segment_reps(K.critical_values)]
    mors = tuple(make_mor(a.obj, b.obj, _dense_induced(a, b))
                 for a, b in zip(stages, stages[1:]))
    return stages, ConstructibleModule(vect(F), K.critical_values,
                                       tuple(st.obj for st in stages), mors)


class SnfIntegerStage:
    """Integer homology of one sublevel complex as the presented quotient
    Z_k / B_k: the kernel of d_k read off the V of a dense Smith normal
    form, and `lattice_quotient_oracle` of it by the columns of d_{k+1}.

    With m > 0 it is homology mod m as one whole-stage quotient of
    lattices of integer k-chains, with no mapping cone: the chains whose
    boundary is 0 mod m, the first rows of the kernel of [d_k | m I],
    over the boundaries and m times every chain, [d_{k+1} | m I]."""

    def __init__(self, K, k: int, at, m: int = 0):
        self.k_simplices = K.simplices_of_dim(k, at=at)
        n = len(self.k_simplices)
        below = K.simplices_of_dim(k - 1, at=at) if k > 0 else []
        d_k = boundary_matrix(below, self.k_simplices)
        d_k1 = boundary_matrix(self.k_simplices, K.simplices_of_dim(k + 1, at=at))
        if m:
            d_k = d_k.hstack(Mat.identity(d_k.rows).scale(m))
            d_k1 = d_k1.hstack(Mat.identity(n).scale(m))
        s = dense_smith_normal_form(d_k)
        kernel = s.V.take_cols(range(s.rank, d_k.cols)).take_rows(range(n))
        self._q = lattice_quotient_oracle(kernel, d_k1)
        rank, invs = self._q.iso()
        self.gen_reps = self._q.generator_reps()
        self.obj = make_obj(finab() if m else ab(), (rank, tuple(invs)))

    def coords(self, chain) -> list:
        try:
            return self._q.coords(chain)
        except LatticeContainmentError:
            raise FiltrationError("chain is not a cycle of this stage") from None


def snf_integer_homology(K, k: int, m: int = 0) -> tuple:
    """(stages, module) of degree-k persistent homology over Z, or over
    Z/m for m > 0, from one SnfIntegerStage per segment."""
    stages = [SnfIntegerStage(K, k, t, m) for t in segment_reps(K.critical_values)]
    mors = tuple(make_mor(a.obj, b.obj, _dense_induced(a, b))
                 for a, b in zip(stages, stages[1:]))
    return stages, ConstructibleModule(finab() if m else ab(), K.critical_values,
                                       tuple(st.obj for st in stages), mors)


def dense_interleaving(dense, dense2, eps) -> InterleavingPair:
    """The eps-interleaving of two `dense_field_homology` (or two
    `snf_integer_homology`) results of filtrations of one complex,
    between their own stages."""

    def family(src, tgt):
        (stages, M), (stages2, N) = src, tgt
        grid = expected_phi_grid(M, N, eps)
        mors = []
        for r in segment_reps(grid):
            a, b = stages[M.segment(r)], stages2[N.segment(r + eps)]
            mors.append(make_mor(a.obj, b.obj, _dense_induced(a, b)))
        return grid, tuple(mors)

    return InterleavingPair(eps, *family(dense, dense2), *family(dense2, dense))


# --- Induced maps by reading gen_reps entry by entry ------------------------

def induced_payload_oracle(src, tgt) -> Mat:
    """Matrix of the inclusion-induced map between two homology stages:
    for each generator chain of src, one lookup per k-simplex of src, a
    check that every simplex of the chain is one of them and one of tgt,
    then `tgt.coords` of the chain."""
    inside = set(tgt.k_simplices)
    cols = []
    for g in src.gen_reps:
        chain = {s: g[s] for s in src.k_simplices if s in g}
        assert len(chain) == len(g) and set(chain) <= inside
        cols.append(tgt.coords(chain))
    return Mat.from_cols(cols, nrows=len(tgt.gen_reps))


# --- Interleaving of a perturbation from freshly built stages ----------------

def interleaving_oracle(K, K2, k, coeffs, eps) -> InterleavingPair:
    """The canonical eps-interleaving of the degree-k homology of K and K2,
    with every morphism computed between two homology stages built
    afresh at r and r + eps from reductions of their own, sharing
    nothing with the modules' stages."""
    F, G = persistent_module(K, k, coeffs), persistent_module(K2, k, coeffs)

    def stage(L, r):
        return _Stage(persistent_homology(L, k, coeffs), r)

    def family(src, tgt, M, N):
        grid = expected_phi_grid(M, N, eps)
        mors = tuple(make_mor(M.objects[M.segment(r)], N.objects[N.segment(r + eps)],
                              induced_payload_oracle(stage(src, r), stage(tgt, r + eps)))
                     for r in segment_reps(grid))
        return grid, mors

    return InterleavingPair(eps, *family(K, K2, F, G), *family(K2, K, G, F))


# --- Connected components by union-find at every segment (merge tree) -----

def component_module(K) -> ConstructibleModule:
    """Pi_0 of the sublevel filtration, valued in finite sets, from a
    union-find of each stage's vertices and edges.

    Components at each stage are ordered by their smallest vertex; the
    connecting maps send a component to the one absorbing it.
    """
    cat = finset()
    values = K.critical_values

    def components(at):
        verts = [s[0] for s in K.simplices_of_dim(0, at=at)]
        parent = {v: v for v in verts}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for a, b in K.simplices_of_dim(1, at=at):
            parent[find(a)] = find(b)
        groups = {}
        for v in verts:
            groups.setdefault(find(v), []).append(v)
        return sorted(min(g) for g in groups.values()), {v: min(groups[find(v)]) for v in verts}

    comps = [components(t) for t in segment_reps(values)]
    objs = tuple(make_obj(cat, len(reps)) for reps, _ in comps)
    mors = tuple(make_mor(objs[i], objs[i + 1], tuple(b.index(root_of[r]) for r in a))
                 for i, ((a, _), (b, root_of)) in enumerate(zip(comps, comps[1:])))
    return ConstructibleModule(cat, values, objs, mors)


# --- Composition through the validating constructor ------------------------

def compose_oracle(g: Mor, f: Mor) -> Mor:
    """g after f by the dense product, validated and reduced by make_mor
    like any payload given from outside."""
    if f.tgt != g.src:
        raise ValueError("composition mismatch")
    if f.cat.kind == "finset":
        return make_mor(f.src, g.tgt, tuple(g.payload[v] for v in f.payload))
    return make_mor(f.src, g.tgt, dense_mul(g.payload, f.payload))


def _evaluate_oracle(F: ConstructibleModule, p, q) -> Mor:
    """F(p <= q), composed from the identity at p through compose_oracle."""
    a, b = F.segment(p), F.segment(q)
    m = identity_mor(F.objects[a])
    for i in range(a, b):
        m = compose_oracle(F.morphisms[i], m)
    return m


# --- The interleaving check, per rep by bisection ---------------------------

def check_interleaving_oracle(F: ConstructibleModule, G: ConstructibleModule,
                              pair: InterleavingPair) -> bool:
    """Verify naturality of both families and the two composite identities.

    Raises InterleavingGridError when the pair is not presented on the
    expected merged grids or its morphisms do not match the evaluations
    of F and G; returns False when the interleaving identities fail.

    Every morphism is looked up by bisection at its rep and every
    evaluation of F or G composes from an identity, every composite
    through `compose_oracle`.
    """
    eps = pair.eps
    if eps < 0:
        raise InterleavingGridError("negative interleaving parameter")
    if pair.phi_grid != expected_phi_grid(F, G, eps):
        raise InterleavingGridError("phi is not given on the merged grid of F and shifted G")
    if pair.psi_grid != expected_phi_grid(G, F, eps):
        raise InterleavingGridError("psi is not given on the merged grid of G and shifted F")
    if len(pair.phi) != len(pair.phi_grid) + 1 or len(pair.psi) != len(pair.psi_grid) + 1:
        raise InterleavingGridError("one morphism per segment is required")

    points = set()
    for s in list(F.values) + list(G.values):
        points.update((s, s - eps, s - 2 * eps))
    reps = segment_reps(tuple(sorted(points)))

    def phi_at(r) -> Mor:
        return pair.phi[bisect_right(pair.phi_grid, r)]

    def psi_at(r) -> Mor:
        return pair.psi[bisect_right(pair.psi_grid, r)]

    for r in reps:
        if phi_at(r).src != F.objects[F.segment(r)] or \
                phi_at(r).tgt != G.objects[G.segment(r + eps)]:
            raise InterleavingGridError(f"phi at {r} does not map F({r}) to G({r} + eps)")
        if psi_at(r).src != G.objects[G.segment(r)] or \
                psi_at(r).tgt != F.objects[F.segment(r + eps)]:
            raise InterleavingGridError(f"psi at {r} does not map G({r}) to F({r} + eps)")

    for r1, r2 in zip(reps, reps[1:]):
        # naturality squares against the connecting morphisms
        if compose_oracle(phi_at(r2), _evaluate_oracle(F, r1, r2)) != \
                compose_oracle(_evaluate_oracle(G, r1 + eps, r2 + eps), phi_at(r1)):
            return False
        if compose_oracle(psi_at(r2), _evaluate_oracle(G, r1, r2)) != \
                compose_oracle(_evaluate_oracle(F, r1 + eps, r2 + eps), psi_at(r1)):
            return False
    for r in reps:
        if compose_oracle(psi_at(r + eps), phi_at(r)) != _evaluate_oracle(F, r, r + 2 * eps):
            return False
        if compose_oracle(phi_at(r + eps), psi_at(r)) != _evaluate_oracle(G, r, r + 2 * eps):
            return False
    return True


# --- Cumulative values and the erosion scan, cell by cell in Fractions ------

def cumulative_oracle(Y: DiagramGrid, i: int, j: int) -> GroupElem:
    """Sum of Y over the cells (h, k) with h <= i and k >= j, one cell at
    a time (no table)."""
    total = zero_elem(Y.group, Y.cat)
    for (h, k), val in Y.cells:
        if h <= i and k >= j:
            total = add(total, val)
    return total


def cumulative_at_oracle(Y: DiagramGrid, p, q=None) -> GroupElem:
    """Cumulative value on [p, q), snapped onto the grid by counting."""
    i = sum(1 for t in Y.grid if t <= p)
    j = Y.n + 1 if q is None else sum(1 for t in Y.grid if t < q) + 1
    return cumulative_oracle(Y, i, j)


def _leq_oracle(x: GroupElem, y: GroupElem) -> bool:
    return all(v >= 0 for _, v in sub(y, x).coeffs)


def _eroded_leq_oracle(Ye: DiagramGrid, eps, Yt: DiagramGrid):
    n = Ye.n
    for (i, j), _ in Ye.cells:
        p = Ye.grid[i - 1] + eps
        if j == n + 1:
            q = None
        else:
            q = Ye.grid[j - 1] - eps
            if q <= p:
                continue
        if not _leq_oracle(cumulative_oracle(Ye, i, j), cumulative_at_oracle(Yt, p, q)):
            return False, (p, q)
    return True, None


def diagram_leq_oracle(d1: DiagramGrid, d2: DiagramGrid) -> bool:
    """Morphism d1 -> d2 of diagrams, one support cell of d1 at a time,
    with d2's cumulative value snapped onto its grid in Fractions."""
    if (d1.group, d1.cat, d1.role) != (d2.group, d2.cat, d2.role):
        raise DiagramError("diagrams live in different groups")
    n = d1.n
    for (i, j), _ in d1.cells:
        p = d1.grid[i - 1]
        q = None if j == n + 1 else d1.grid[j - 1]
        if not leq(cumulative_at_cell(d1, i, j), cumulative_at(d2, p, q)):
            return False
    return True


def erosion_witness_oracle(Y1: DiagramGrid, Y2: DiagramGrid, eps):
    """(ok, failing direction, failing interval) at eps, in Fractions."""
    if (Y1.group, Y1.cat, Y1.role) != (Y2.group, Y2.cat, Y2.role):
        raise DiagramError("erosion compares diagrams in the same group")
    eps = Fraction(eps)
    ok, cell = _eroded_leq_oracle(Y2, eps, Y1)
    if not ok:
        return False, "2->1", cell
    ok, cell = _eroded_leq_oracle(Y1, eps, Y2)
    if not ok:
        return False, "1->2", cell
    return True, None, None


def erosion_candidates_oracle(Y1: DiagramGrid, Y2: DiagramGrid) -> tuple:
    """Differences, half-differences and midpoints, in Fractions."""
    T = sorted(set(Y1.grid) | set(Y2.grid))
    if not T:
        return (Fraction(0),)
    T = T + [T[-1] + 1]
    base = {Fraction(0)}
    for a in T:
        for b in T:
            if a < b:
                base.add(b - a)
                base.add((b - a) / 2)
    cands = sorted(base)
    mids = [(x + y) / 2 for x, y in zip(cands, cands[1:])]
    return tuple(sorted(set(cands) | set(mids)))


def erosion_oracle(Y1: DiagramGrid, Y2: DiagramGrid) -> ErosionReport:
    """The whole erosion scan in Fractions, with cumulative values summed
    cell by cell."""
    table, distance = [], None
    for eps in erosion_candidates_oracle(Y1, Y2):
        ok, _, _ = erosion_witness_oracle(Y1, Y2, eps)
        table.append((eps, ok))
        if ok:
            distance = eps
            break
    return ErosionReport(distance=distance, table=tuple(table))
