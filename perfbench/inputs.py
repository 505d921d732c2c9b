"""Seeded benchmark inputs, written with the standard library only.

The generators never import `gpd`: the filtration text and the diagram
JSON are produced here by hand, following the formats in the README, so
the same seed gives byte-identical inputs on every commit of the
program.  Every generator draws from `random.Random(<workload>:<seed>:<k>)`,
which is stable across Python runs (string seeds are hashed with SHA-512,
not with the per-process `hash`).
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import combinations


def rng_for(workload: str, seed: int, k: int = 0) -> random.Random:
    return random.Random(f"{workload}:{seed}:{k}")


# Median of rips_work over random point sets, per engine and size.
# rips_flt keeps only point sets within RIPS_WORK_BAND of it, so that the
# homology work of a call hardly depends on the seed.
RIPS_WORK_MEDIAN = {("Z", 12): 6_308_000, ("field", 11): 1_277_930,
                    ("field", 17): 27_088_650}
RIPS_WORK_BAND = {"Z": 0.04, "field": 0.02}


def rips_work(values: list, engine: str) -> int:
    """Estimate of the degree-1 homology work over all sublevel stages.

    `values` holds (dimension, value) of every simplex.  For the integer
    engine ("Z") the estimate is the sum over stages of edges^2 *
    triangles: the cost of expressing each boundary in coordinates of the
    edge lattice, which dominates that path.  For a field ("field") it is
    the sum of edges^3: row reductions of matrices with one row per edge
    (kernel, image, cycle basis, and one solve per generator of the
    induced maps).  Over seeds, each estimate correlates best with the
    measured call time among the simple counts tried.
    """
    counts: dict = {}
    for dim, val in values:
        if dim:
            counts.setdefault(val, [0, 0])[dim - 1] += 1
    edges = triangles = total = 0
    for val in sorted(counts):
        edges += counts[val][0]
        triangles += counts[val][1]
        total += edges * edges * (triangles if engine == "Z" else edges)
    return total


def rips_flt(rng: random.Random, npts: int, engine: str = "Z") -> str:
    """Rips filtration text of `npts` random planar points.

    Integer coordinates in 0..20 and Manhattan distances; vertices enter
    at 0, every edge and triangle at the largest pairwise distance among
    its vertices (`max_dim` 2, so npts + C(npts, 2) + C(npts, 3)
    simplices).  Point sets are drawn until one has rips_work for
    `engine` within RIPS_WORK_BAND of the median for its size.
    """
    target, band = RIPS_WORK_MEDIAN[(engine, npts)], RIPS_WORK_BAND[engine]
    while True:
        pts = [(rng.randint(0, 20), rng.randint(0, 20)) for _ in range(npts)]

        def dist(a, b):
            return abs(pts[a][0] - pts[b][0]) + abs(pts[a][1] - pts[b][1])

        simplices = [((v,), 0) for v in range(npts)]
        for d in (1, 2):
            for s in combinations(range(npts), d + 1):
                simplices.append((s, max(dist(a, b) for a, b in combinations(s, 2))))
        work = rips_work([(len(s) - 1, val) for s, val in simplices], engine)
        if abs(work - target) <= band * target:
            return "".join(f"{' '.join(map(str, s))} : {val}\n" for s, val in simplices)


def _rat(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _diagram_json(grid: list, cells: dict) -> str:
    """Canonical diagram JSON (sorted keys, two-space indent) for a type B
    `vect`/Q diagram: `cells` maps (i, j_or_inf) to a positive dim."""
    doc = {
        "cells": [{"i": i, "j_or_inf": j, "label": {"dim": m}}
                  for (i, j), m in sorted(cells.items(),
                                          key=lambda c: (c[0][0], len(grid) + 1
                                                         if c[0][1] == "inf" else c[0][1]))],
        "grid": [_rat(t) for t in grid],
        "group": {"category": "vect", "field": "Q", "role": "diagram", "tag": "B"},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# Median of erosion_work over erosion_pair(rng, 30, 30, 14, 20, 2) drawn
# without the band; erosion_pair keeps only pairs within
# EROSION_WORK_BAND of it.
EROSION_WORK_MEDIAN = 283_450
EROSION_WORK_BAND = 0.03
# Every grid value, pairwise difference, half difference and midpoint of
# two of those is a whole multiple of 1 / SCALE.
SCALE = 4 * 2520


def erosion_work(ga: list, cells_a: dict, gb: list, bars: list) -> int:
    """Estimate of the cost of `gpd erosion` on a pair from erosion_pair.

    The scan evaluates every candidate eps (pairwise differences of the
    union of both grids padded by one value, their halves, and midpoints
    of consecutive ones) below the distance.  For eps below half the bar
    length, each finite bar [b, d) of B is checked against A by summing
    the cells of A that contain [b + eps, d - eps) snapped onto A's grid;
    those additions are what varies from pair to pair.  The estimate is
    their number, in integers scaled by SCALE.  `ga` and `gb` are sorted
    Fractions, `cells_a` maps (i, j_or_inf) to a dim, `bars` holds (b, d).
    """
    a = [int(t * SCALE) for t in ga]
    t = sorted(set(a) | {int(x * SCALE) for x in gb})
    t.append(t[-1] + SCALE)
    base = {0}
    for x in t:
        for y in t:
            if x < y:
                base.add(y - x)
                base.add((y - x) // 2)
    cands = sorted(base)
    cands = sorted(set(cands) | {(x + y) // 2 for x, y in zip(cands, cands[1:])})
    n = len(a)
    ends = [(i, n + 1 if j == "inf" else j) for i, j in cells_a]
    # contain[i][j]: cells (h, k) of A with h <= i and k >= j
    contain = [[sum(1 for h, k in ends if h <= i and k >= j) for j in range(n + 2)]
               for i in range(n + 1)]
    work = 0
    for b, d in bars:
        b, d = int(b * SCALE), int(d * SCALE)
        for eps in cands:
            p, q = b + eps, d - eps
            if q <= p:
                break
            i = bisect_right(a, p)
            if i:
                work += contain[i][bisect_left(a, q) + 1]
    return work


def erosion_pair(rng: random.Random, nvalues: int, ncells: int, nbars: int, width: int,
                 ninf: int):
    """Two type B `vect`/Q diagrams with equal rank `ninf` at infinity,
    as JSON texts, and a lower bound on their erosion distance.

    Grid values are rationals with denominators dividing 2520 in [0, 30),
    and no value is on both grids, so nearly all pairwise differences are
    distinct and the candidate count hardly depends on the seed.

    Diagram A has `nvalues` grid values and `ncells` random cells; its
    only cell at the first grid value is an infinite bar.  Diagram B has
    `nbars` unit bars, all of length `width`, born above A's first value,
    and `ninf` infinite bars born at and after A's last value.  Bars of
    equal length never contain one another, so for every eps below the
    gap (A's last value minus its first) the direction B -> A checks every
    cell of B and passes, and A -> B fails at A's first cell: nearly every
    candidate is evaluated, and each finite bar of B costs two cumulative
    lookups until eps reaches width / 2.  The same argument makes the gap
    a lower bound on the distance, and the distance is finite.  What the
    lookups add up depends on how A's random cells contain B's bars
    (erosion_work varies by about +-30% between pairs), so pairs are drawn
    until erosion_work is within EROSION_WORK_BAND of EROSION_WORK_MEDIAN.
    """
    while True:
        ga = set()
        while len(ga) < nvalues:
            ga.add(Fraction(rng.randrange(30 * 2520), 2520))
        ga = sorted(ga)
        lo, top = ga[0], ga[-1]
        cells_a = {(1, "inf"): 1}
        for _ in range(ninf - 1):
            i = rng.randint(2, nvalues)
            cells_a[(i, "inf")] = cells_a.get((i, "inf"), 0) + 1
        while len(cells_a) < ncells:
            i = rng.randint(2, nvalues - 1)
            j = rng.randint(i + 1, nvalues)
            cells_a[(i, j)] = cells_a.get((i, j), 0) + rng.randint(1, 2)

        taken = set(ga) | {top + k for k in range(ninf)}
        births = []
        while len(births) < nbars:
            b = Fraction(rng.randrange(30 * 2520), 2520)
            if lo < b < top - width and not {b, b + width} & taken:
                births.append(b)
                taken |= {b, b + width}
        gb = sorted({b for b in births} | {b + width for b in births}
                    | {top + k for k in range(ninf)})
        bars = [(b, b + width) for b in births]
        work = erosion_work(ga, cells_a, gb, bars)
        if abs(work - EROSION_WORK_MEDIAN) <= EROSION_WORK_BAND * EROSION_WORK_MEDIAN:
            break
    pos = {t: k + 1 for k, t in enumerate(gb)}
    cells_b = {(pos[b], pos[d]): 1 for b, d in bars}
    for k in range(ninf):
        cells_b[(pos[top + k], "inf")] = 1
    return _diagram_json(ga, cells_a), _diagram_json(gb, cells_b), top - lo
