"""Generalized persistence diagrams on a rational grid.

A diagram assigns a Grothendieck group element to every half-open grid
interval [s_i, s_j) with 1 <= i < j <= n + 1, where column j = n + 1
encodes the unbounded interval [s_i, infinity).  The same container
holds both the 'constructible' function X (interval -> class of the
image) and its Moebius inversion Y (the diagram proper); the two are
related by an exact inclusion-exclusion bijection implemented here.

Only the type A diagram is computed from a module.  The quotient group
B is a quotient of A, and the quotient map pi is linear, as is the
inversion, so Y_B = pi(Y_A) cell by cell (`type_B_from_A`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from functools import cached_property

from .categories import (AB, FINAB, FINSET, VECT, _restrict_endo, ab_relations, iso_class,
                         iso_from_invariants, make_obj)
from .exact import ZZ, LatticeQuotient, column_space_basis, preimage
from .grothendieck import GroupElem, NoBGroupError, _make_elem, add, b_class, sub, zero_elem
from .matrix import Mat, Value


class DiagramError(ValueError):
    pass


class DiagramGrid(Value):
    """Grid-indexed function into a Grothendieck group.

    role is 'constructible' for cumulative interval data and 'diagram'
    for its Moebius inversion; cells maps (i, j) pairs to nonzero group
    elements, with j = len(grid) + 1 standing for infinity.
    """

    group: str  # 'A' or 'B'
    cat: object
    grid: tuple  # exact rationals, strictly increasing
    cells: tuple  # sorted tuple of ((i, j), GroupElem)
    role: str

    @staticmethod
    def make(group, cat, grid, cells: dict, role) -> "DiagramGrid":
        grid = tuple(Fraction(v) for v in grid)
        if any(a >= b for a, b in zip(grid, grid[1:])):
            raise DiagramError("grid values must be strictly increasing")
        n = len(grid)
        items = []
        for (i, j), val in cells.items():
            if not 1 <= i < j <= n + 1:
                raise DiagramError(f"cell ({i}, {j}) is outside the grid")
            if val.group != group or val.cat != cat:
                raise DiagramError("cell value lives in the wrong group")
            if not val.is_zero():
                items.append(((i, j), val))
        if role not in ("constructible", "diagram"):
            raise DiagramError(f"unknown role {role!r}")
        return DiagramGrid(group, cat, grid, tuple(sorted(items, key=lambda it: it[0])), role)

    @property
    def n(self) -> int:
        return len(self.grid)

    def as_dict(self) -> dict:
        return dict(self.cells)

    @cached_property
    def cumulative(self) -> tuple:
        """C(i, j), the sum of the cells (h, k) with h <= i and k >= j, on
        the support: (rows, cols, table), the distinct rows and columns of
        the cells ascending, and table[a][b] = C(rows[a], cols[b]) where
        rows[a] < cols[b].  Any other C(i, j) is the entry at the largest
        row <= i and the smallest column >= j, or zero if there is none.
        Row a adds the suffix sums of its own cells to row a - 1 up to its
        last column, as coefficient dicts; further right it repeats row
        a - 1.  So each new entry becomes a GroupElem once."""
        rows = sorted({i for (i, _), _ in self.cells})
        cols = sorted({j for (_, j), _ in self.cells})
        own: dict = {}
        for (i, j), v in self.cells:
            own.setdefault(i, {})[bisect_left(cols, j)] = dict(v.coeffs)
        table, sums, row = [], [{}] * len(cols), [zero_elem(self.group, self.cat)] * len(cols)
        for i in rows:
            suffix, sums, row = Counter(), list(sums), list(row)
            for b in range(max(own[i]), bisect_right(cols, i) - 1, -1):
                suffix.update(own[i].get(b, {}))
                sums[b] = s = Counter(sums[b])
                s.update(suffix)
                row[b] = _make_elem(self.group, self.cat, s)
            table.append(tuple(row))
        return tuple(rows), tuple(cols), tuple(table)


def _zero(d: DiagramGrid) -> GroupElem:
    return zero_elem(d.group, d.cat)


def mobius_invert(X: DiagramGrid) -> DiagramGrid:
    """Inclusion-exclusion over the corner order of half-open intervals.

    Rows below the first grid value contribute the zero object, so the
    i = 0 terms vanish and the alternating sum needs no padding data.
    """
    if X.role != "constructible":
        raise DiagramError("inversion expects cumulative interval data")
    n = X.n
    xd = X.as_dict()
    z = _zero(X)

    def xv(i, j):
        if i < 1 or j > n + 1:
            return z
        return xd.get((i, j), z)

    cells = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 2):
            if j == n + 1:
                val = sub(xv(i, j), xv(i - 1, j))
            else:
                val = add(sub(xv(i, j), xv(i, j + 1)),
                          sub(xv(i - 1, j + 1), xv(i - 1, j)))
            cells[(i, j)] = val
    return DiagramGrid.make(X.group, X.cat, X.grid, cells, role="diagram")


def cumulate(Y: DiagramGrid) -> DiagramGrid:
    """Inverse of mobius_invert: sum the diagram over the upper-left cone."""
    if Y.role != "diagram":
        raise DiagramError("cumulation expects a diagram")
    cells = {(i, j): cumulative_at_cell(Y, i, j) for i in range(1, Y.n + 1)
             for j in range(i + 1, Y.n + 2)}
    return DiagramGrid.make(Y.group, Y.cat, Y.grid, cells, role="constructible")


def cumulative_at_cell(Y: DiagramGrid, i: int, j: int) -> GroupElem:
    """Sum of Y over cells (h, k) with h <= i and k >= j (`Y.cumulative`).

    Row i = 0, below the grid, sums nothing; any other cell must lie in
    1 <= i < j <= n + 1.
    """
    if i and not 1 <= i < j <= Y.n + 1:
        raise DiagramError(f"cell ({i}, {j}) is outside the grid")
    rows, cols, table = Y.cumulative
    a, b = bisect_right(rows, i) - 1, bisect_left(cols, j)
    return table[a][b] if a >= 0 and b < len(cols) else _zero(Y)


def _snap(grid, p, q=None) -> tuple:
    """Snap [p, q) onto `grid` as the cell (i, j) such that the grid cells
    [s_h, s_k) containing [p, q) are those with h <= i and k >= j (i = 0
    below the grid, j = n + 1 for q None).  Works on any grid whose values
    compare with p and q."""
    i = bisect_right(grid, p)
    if q is None:
        return i, len(grid) + 1
    if q <= p:
        raise DiagramError("empty interval")
    return i, bisect_left(grid, q) + 1


def cumulative_at(Y: DiagramGrid, p, q=None) -> GroupElem:
    """Cumulative value on the interval [p, q), q None meaning infinity.

    The sum runs over diagram cells [s_h, s_k) containing [p, q), which
    snaps arbitrary rational endpoints onto the grid (`_snap`).  Returns
    zero when p lies below the grid.
    """
    return cumulative_at_cell(Y, *_snap(Y.grid, p, q))


def type_A_diagram(F) -> DiagramGrid:
    """The Moebius inversion of the image classes X_A of F.

    At a value where F does not change, X_A repeats the neighbouring row
    and column, so every diagram cell in that row or column is zero.  The
    image classes are computed and inverted on `essential_restriction(F)`
    only, and each cell is read back at its index in F's grid; zero cells
    are not stored, so the grid equals the full-grid inversion.
    """
    from .pmodule import dX_A, essential_restriction

    E, pos = essential_restriction(F)
    Y = mobius_invert(dX_A(E))
    cells = {(pos[a], pos[b]): v for (a, b), v in Y.cells}
    return DiagramGrid.make("A", F.cat, F.values, cells, role="diagram")


def type_B_from_A(Y: DiagramGrid) -> DiagramGrid:
    """Apply the quotient map pi: A -> B to every cell of a type A grid.

    pi is a group homomorphism and Moebius inversion is a signed sum of
    cells, so the two commute: pi of the type A diagram is the type B
    diagram, and pi of X_A is X_B.  Cells whose class dies in B are
    dropped.  Finite sets have no quotient group, whatever the cells.
    """
    if Y.group != "A":
        raise DiagramError("the quotient map acts on type A grids")
    if not Y.cat.abelian:
        raise NoBGroupError("finite sets have no exact-sequence Grothendieck group")
    return DiagramGrid.make("B", Y.cat, Y.grid, {k: b_class(v) for k, v in Y.cells},
                            role=Y.role)


def type_B_diagram(F) -> DiagramGrid:
    return type_B_from_A(type_A_diagram(F))


def diagram_leq(d1: DiagramGrid, d2: DiagramGrid) -> bool:
    """Existence of a morphism d1 -> d2 of diagrams.

    There is one exactly when, over every support cell I of d1, the
    cumulative value of d1 precedes that of d2 in the group order.  The
    grids need not coincide.  This is `metrics.eroded_leq` at eps = 0,
    the one scan that compares cumulative values.
    """
    from .metrics import eroded_leq

    return eroded_leq(d1, d2, 0)


# ---------------------------------------------------------------------------
# Positivity of quotient-group diagrams via explicit subquotients
# ---------------------------------------------------------------------------

class PositivityReport(Value):
    ok: bool
    negative_cells: tuple  # cells of Y with some negative coefficient
    witnesses: tuple  # sorted ((i, j), GroupElem) from subquotients
    matches: bool  # witnesses reproduce Y exactly


def positivity_check(F, Y: DiagramGrid | None = None) -> PositivityReport:
    """Check Y_B(F) >= 0 and recompute each cell as a concrete subquotient.

    The cell [s_i, s_j) is realized inside the object just before s_j as
    (im F(s_i) cap ker) / (im F(s_{i-1}) cap ker), with ker the kernel
    of the next connecting morphism (the whole object for j = n + 1).
    The class of that subquotient in the quotient group equals the
    inclusion-exclusion value, which certifies nonnegativity cell by
    cell.  Each intersection im m cap ker n is L P, for L the payload of
    m beside the relations of its target (none over a field) and P the
    `preimage` under n L of the relations of n's target, one call over
    the field or ZZ for every kind.
    """
    from .pmodule import composite_mor

    if Y is None:
        Y = type_B_diagram(F)
    negative = tuple(k for k, v in Y.cells if any(c < 0 for _, c in v.coeffs))

    witnesses = {}
    n = F.n
    for i in range(1, n + 1):
        for j in range(i + 1, n + 2):
            b = j - 1
            m1 = composite_mor(F, i, b)
            m0 = composite_mor(F, i - 1, b)
            nxt = F.morphisms[b] if j <= n else None
            val = _subquotient_class(F.cat, F.objects[b], m1, m0, nxt)
            if not val.is_zero():
                witnesses[(i, j)] = val

    matches = dict(Y.cells) == witnesses
    return PositivityReport(ok=not negative and matches,
                            negative_cells=negative,
                            witnesses=tuple(sorted(witnesses.items())),
                            matches=matches)


def _subquotient_class(cat, obj, m1, m0, nxt) -> GroupElem:
    if cat.kind == FINSET:
        raise DiagramError("finite sets have no quotient-group diagram")
    # L = (payload | relations of obj, none over a field) spans the
    # preimage of im m, and L y lies in ker nxt iff nxt L y lies in the
    # span of the target's relations: im m cap ker nxt is L (preimage of
    # those relations under nxt L), and the witness is the quotient L1 / L0
    groups = cat.kind in (AB, FINAB)
    L1, L0 = m1.payload, m0.payload
    if groups:
        L1, L0 = L1.hstack(ab_relations(obj)), L0.hstack(ab_relations(obj))
    if nxt is not None:
        R = ab_relations(nxt.tgt) if groups else Mat.zero(nxt.payload.rows, 0)
        L1, L0 = (L @ preimage(cat.field or ZZ, nxt.payload @ L, R) for L in (L1, L0))
    if groups:
        return b_class(iso_from_invariants(cat, *LatticeQuotient(L1, L0).iso()))
    # the subspaces W1 >= W0 of obj: the class of their dimensions (vect)
    # or of the endomorphism restricted to them (repn)
    W1, W0 = (column_space_basis(cat.field, L) for L in (L1, L0))
    if cat.kind == VECT:
        return sub(_obj_class(cat, W1.cols), _obj_class(cat, W0.cols))
    return sub(*(_obj_class(cat, _restrict_endo(cat.field, obj.data, W)) for W in (W1, W0)))


def _obj_class(cat, data) -> GroupElem:
    return b_class(iso_class(make_obj(cat, data)))
