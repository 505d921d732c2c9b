"""Interval growth, erosion of diagrams, and the erosion distance.

Eroding a diagram by eps >= 0 precomposes it with interval growth
[p, q) -> [p - eps, q + eps): every cell moves toward the diagonal by
eps on each side and disappears once its width drops to zero.  The
erosion distance between two diagrams is the least eps at which eroded
morphisms exist in both directions.

One integer sweep (`_sweep`) compares cumulative values, for both
directions of the erosion check, for `eroded_leq` and for `diagram_leq`
(eps = 0), the last two at a single candidate.  Both grids, and eps,
are scaled once by a common denominator, so every eps and shifted
endpoint s +- eps is an int.  Each diagram's cumulative table, on the
rows and columns of its support (`DiagramGrid.cumulative`), is built
once, a cell is re-tested only when its snapped cell on the other grid
moves, and the sweep yields failing cells, so no scan builds a Fraction
per candidate: only `erosion_witness` does, two for its interval.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import lcm
from numbers import Rational

from .diagram import DiagramError, DiagramGrid, _snap, cumulative_at_cell
from .grothendieck import _leq_coeffs
from .matrix import Value


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


def _scale(Y1: DiagramGrid, Y2: DiagramGrid, den: int = 1) -> int:
    """4 * lcm of the denominators of both grids and den, that of eps: at
    this scale every grid value, difference, half difference and midpoint
    of two of those is an integer."""
    return 4 * lcm(*(t.denominator for t in Y1.grid + Y2.grid), den)


def _scaled(Y: DiagramGrid, D: int) -> tuple:
    """Y's grid times D as ints, its support cells as (start, end or None
    for infinity, cumulative value) in the same units, and Y."""
    grid = [t.numerator * (D // t.denominator) for t in Y.grid]
    cells = [(grid[i - 1], None if j == Y.n + 1 else grid[j - 1], cumulative_at_cell(Y, i, j))
             for (i, j), _ in Y.cells]
    return grid, cells, Y


def _sweep(D: int, S1: tuple, S2: tuple, cands, directions=("2->1", "1->2")):
    """The failing sets {direction: indices of its failing cells} of
    eroded morphisms at each eps / D, for the ascending ints eps of
    `cands` and Y1, Y2 scaled by D ("2->1" indexes S2's cells, "1->2"
    S1's): one dict, updated in place, so read it before advancing.

    The eroded value at the shrunken cell [start + eps, end - eps) is the
    cell's own cumulative value, and the target's is read at the cell it
    snaps to, (i, j).  As eps grows, i rises at eps = grid[i] - start, j
    falls at eps = end - grid[j - 2], and the cell vanishes for good at
    eps = ceil((end - start) / 2); the test changes only there.  A heap
    holds each live cell's next crossing, and a candidate re-snaps and
    re-tests only the cells it has reached.  `_prepare` has checked that
    both diagrams live in one group, so coefficients are compared alone.
    """
    sides = {"2->1": (S2[1], S1[0], S1[2]), "1->2": (S1[1], S2[0], S2[2])}
    heap = [(0, d, c) for d in directions for c in range(len(sides[d][0]))]
    heapify(heap)
    failing = {d: set() for d in directions}
    for eps in cands:
        while heap and heap[0][0] <= eps:
            _, d, c = heappop(heap)
            cells, grid, Y = sides[d]
            start, end, val = cells[c]
            p = start + eps
            q = None if end is None else end - eps
            if q is not None and q <= p:
                failing[d].discard(c)  # the cell has disappeared into the diagonal
                continue
            i, j = _snap(grid, p, q)
            if _leq_coeffs(val.coeffs, cumulative_at_cell(Y, i, j).coeffs):
                failing[d].discard(c)
            else:
                failing[d].add(c)
            crossings = [grid[i] - start] if i < len(grid) else []
            if q is not None:
                crossings.append((end - start + 1) // 2)
                if j >= 2:
                    crossings.append(end - grid[j - 2])
            if crossings:
                heappush(heap, (min(crossings), d, c))
        yield failing


def _prepare(Y1: DiagramGrid, Y2: DiagramGrid, eps=0) -> tuple:
    """`_sweep`'s D, Y1 and Y2 scaled by D, and eps * D, for comparable Y1, Y2."""
    if (Y1.group, Y1.cat, Y1.role) != (Y2.group, Y2.cat, Y2.role):
        raise DiagramError("erosion compares diagrams in the same group")
    if not isinstance(eps, Rational):
        eps = Fraction(eps)
    if eps < 0:
        raise DiagramError("erosion needs eps >= 0")
    D = _scale(Y1, Y2, eps.denominator)
    return D, _scaled(Y1, D), _scaled(Y2, D), eps.numerator * (D // eps.denominator)


def erosion_exists(Y1: DiagramGrid, Y2: DiagramGrid, eps) -> bool:
    """Whether eroded morphisms exist in both directions at eps."""
    ok, _, _ = erosion_witness(Y1, Y2, eps)
    return ok


def erosion_witness(Y1: DiagramGrid, Y2: DiagramGrid, eps):
    """(ok, failing direction, failing interval) of the two-sided check,
    run at the common scale of both grids and eps: "2->1" before "1->2",
    each at its lowest-index failing cell, whose interval is the check's
    only two Fractions."""
    D, S1, S2, eps = _prepare(Y1, Y2, eps)
    failing = next(_sweep(D, S1, S2, (eps,)))
    for d, (_, cells, _) in (("2->1", S2), ("1->2", S1)):
        if failing[d]:
            start, end, _ = cells[min(failing[d])]
            return False, d, (Fraction(start + eps, D),
                              None if end is None else Fraction(end - eps, D))
    return True, None, None


def eroded_leq(Y1: DiagramGrid, Y2: DiagramGrid, eps) -> bool:
    """`diagram_leq(erode(Y1, eps), Y2)` by the one-directional check: it
    reads Y1's own table at the shrunken cells and builds no diagram."""
    D, S1, S2, eps = _prepare(Y1, Y2, eps)
    return not next(_sweep(D, S1, S2, (eps,), ("1->2",)))["1->2"]


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


class ErosionReport(Value):
    """Outcome of an erosion-distance scan.

    distance is None for infinity.  table lists every evaluated
    candidate as (eps, ok).  The failing direction and interval at any
    eps are `erosion_witness`'s.
    """

    distance: Fraction | None
    table: tuple


def erosion_distance(Y1: DiagramGrid, Y2: DiagramGrid) -> ErosionReport:
    """Least candidate eps at which eroded morphisms exist both ways.

    Candidates are evaluated in ascending order with no monotonicity
    assumption; the first success is therefore the least one.  If none
    succeeds the distance is infinite.  Both diagrams are scaled once,
    and one sweep over the candidates in integers (`_sweep`) re-tests a
    cell only where its snapped cell moves, with no group additions and
    no Fraction beyond the candidates.
    """
    D, S1, S2, _ = _prepare(Y1, Y2)
    cands = erosion_candidates(Y1, Y2)
    table, distance = [], None
    sweep = _sweep(D, S1, S2, (eps.numerator * (D // eps.denominator) for eps in cands))
    for eps, failing in zip(cands, sweep):
        ok = not any(failing.values())
        table.append((eps, ok))
        if ok:
            distance = eps
            break
    return ErosionReport(distance=distance, table=tuple(table))
