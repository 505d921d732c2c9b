"""Interval growth, erosion of diagrams, and the erosion distance.

Eroding a diagram by eps >= 0 precomposes it with interval growth
[p, q) -> [p - eps, q + eps): every cell moves toward the diagonal by
eps on each side and disappears once its width drops to zero.  The
erosion distance between two diagrams is the least eps at which eroded
morphisms exist in both directions.

One integer scan compares cumulative values, for both directions of the
erosion check, for `eroded_leq` and for `diagram_leq` (eps = 0).  Both
grids, and eps, are scaled once by a common denominator, so every eps
and shifted endpoint s +- eps is an int.  A checked cell then costs at
most two bisections on an integer grid, one lookup in the other
diagram's cumulative table (`DiagramGrid.cumulative`, built once per
diagram) and one order test; Fractions are built only for results.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .diagram import DiagramError, DiagramGrid, _snap
from .grothendieck import _leq_coeffs


def erode(Y: DiagramGrid, eps) -> DiagramGrid:
    """Precompose Y with interval growth by eps.

    The eroded diagram's value at [p, q) is Y([p - eps, q + eps)), so
    its support sits at the shrunken cells [t_i + eps, t_j - eps);
    cells of width at most 2 * eps vanish.
    """
    eps = Fraction(eps)
    if eps < 0:
        raise DiagramError("erosion needs eps >= 0")
    if eps == 0:
        return Y
    n = Y.n
    grid = sorted({t - eps for t in Y.grid} | {t + eps for t in Y.grid})
    index = {t: k + 1 for k, t in enumerate(grid)}
    cells = {}
    for (i, j), val in Y.cells:
        p = Y.grid[i - 1] + eps
        if j == n + 1:
            cells[(index[p], len(grid) + 1)] = val
        else:
            q = Y.grid[j - 1] - eps
            if q > p:
                cells[(index[p], index[q])] = val
    return DiagramGrid.make(Y.group, Y.cat, tuple(grid), cells, role=Y.role)


def _scale(Y1: DiagramGrid, Y2: DiagramGrid, eps=0) -> int:
    """4 * lcm of the denominators of both grids and of eps: at this scale
    every grid value, difference, half difference and midpoint of two of
    those is an integer."""
    return 4 * lcm(*(t.denominator for t in Y1.grid + Y2.grid), Fraction(eps).denominator)


def _scaled(Y: DiagramGrid, D: int) -> tuple:
    """Y's grid times D as ints, its support cells as (start, end or None
    for infinity, cumulative value) in the same units, and its table."""
    grid = [t.numerator * (D // t.denominator) for t in Y.grid]
    n, C = Y.n, Y.cumulative
    cells = [(grid[i - 1], None if j == n + 1 else grid[j - 1], C[i][j]) for (i, j), _ in Y.cells]
    return grid, cells, C


def _check(D: int, S1: tuple, S2: tuple, eps: int, directions=("2->1", "1->2")):
    """Eroded morphisms at eps / D in the given directions, as (ok, failing
    direction, failing interval), for Y1 and Y2 scaled by D.

    The eroded diagram's cumulative value at the shrunken cell
    [s_i + eps, s_j - eps) is its own at [s_i, s_j), so no re-inversion
    is needed.  `_prepare` has checked that both diagrams live in one
    group, so values are compared by their coefficients alone.
    """
    for direction in directions:
        (_, cells, _), (grid, _, table) = (S2, S1) if direction == "2->1" else (S1, S2)
        for start, end, val in cells:
            p = start + eps
            q = None if end is None else end - eps
            if q is not None and q <= p:
                continue  # the cell has disappeared into the diagonal
            i, j = _snap(grid, p, q)
            if not _leq_coeffs(val.coeffs, table[i][j].coeffs):
                return False, direction, (Fraction(p, D), None if q is None else Fraction(q, D))
    return True, None, None


def _prepare(Y1: DiagramGrid, Y2: DiagramGrid, eps=0) -> tuple:
    """`_check`'s D, Y1 and Y2 scaled by D, and eps * D, for comparable Y1, Y2."""
    if (Y1.group, Y1.cat, Y1.role) != (Y2.group, Y2.cat, Y2.role):
        raise DiagramError("erosion compares diagrams in the same group")
    eps = Fraction(eps)
    if eps < 0:
        raise DiagramError("erosion needs eps >= 0")
    D = _scale(Y1, Y2, eps)
    return D, _scaled(Y1, D), _scaled(Y2, D), eps.numerator * (D // eps.denominator)


def erosion_exists(Y1: DiagramGrid, Y2: DiagramGrid, eps) -> bool:
    """Whether eroded morphisms exist in both directions at eps."""
    ok, _, _ = erosion_witness(Y1, Y2, eps)
    return ok


def erosion_witness(Y1: DiagramGrid, Y2: DiagramGrid, eps):
    """(ok, failing direction, failing interval) of the two-sided check,
    run at the common scale of both grids and eps."""
    return _check(*_prepare(Y1, Y2, eps))


def eroded_leq(Y1: DiagramGrid, Y2: DiagramGrid, eps) -> bool:
    """`diagram_leq(erode(Y1, eps), Y2)` by the one-directional check: it
    reads Y1's own table at the shrunken cells and builds no diagram."""
    return _check(*_prepare(Y1, Y2, eps), ("1->2",))[0]


def erosion_candidates(Y1: DiagramGrid, Y2: DiagramGrid) -> tuple:
    """Ascending eps values at which the two-sided predicate can change.

    Pairwise differences of the combined grids (with one padding value
    past the maximum) catch every endpoint crossing, half-differences
    catch cells vanishing into the diagonal, and midpoints of
    consecutive values catch open-interval behavior where endpoint
    inclusion flips asymmetrically.  They are computed in integers at
    the common scale D of both grids, where the padding is D.
    """
    D = _scale(Y1, Y2)
    T = sorted({t.numerator * (D // t.denominator) for t in Y1.grid + Y2.grid})
    T = T + [T[-1] + D] if T else []
    base = {0}
    for k, a in enumerate(T):
        for b in T[k + 1:]:
            base.update((b - a, (b - a) // 2))
    cands = sorted(base)
    cands = sorted(base.union((x + y) // 2 for x, y in zip(cands, cands[1:])))
    return tuple(Fraction(c, D) for c in cands)


@dataclass(frozen=True)
class ErosionReport:
    """Outcome of an erosion-distance scan.

    distance is None for infinity.  table lists every evaluated
    candidate as (eps, ok); failures records, for each failing eps, the
    direction ('1->2' or '2->1') and the interval where the cumulative
    comparison broke.
    """

    distance: Fraction | None
    table: tuple
    failures: tuple


def erosion_distance(Y1: DiagramGrid, Y2: DiagramGrid) -> ErosionReport:
    """Least candidate eps at which eroded morphisms exist both ways.

    Candidates are evaluated in ascending order with no monotonicity
    assumption; the first success is therefore the least one.  If none
    succeeds the distance is infinite.  Both diagrams are scaled once,
    and each candidate is checked in integers with no group additions.
    """
    D, S1, S2, _ = _prepare(Y1, Y2)
    table = []
    failures = []
    distance = None
    for eps in erosion_candidates(Y1, Y2):
        ok, direction, cell = _check(D, S1, S2, eps.numerator * (D // eps.denominator))
        table.append((eps, ok))
        if ok:
            distance = eps
            break
        failures.append((eps, direction, cell))
    return ErosionReport(distance=distance, table=tuple(table), failures=tuple(failures))
