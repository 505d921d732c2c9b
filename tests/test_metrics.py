"""Erosion of diagrams and the erosion distance."""

import random
from fractions import Fraction as Fr

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gpd.diagram
import gpd.grothendieck
import gpd.metrics
from gpd.categories import finab, vect
from gpd.diagram import (
    DiagramError,
    DiagramGrid,
    cumulative_at,
    diagram_leq,
    type_A_diagram,
)
from gpd.exact import QQ, PrimeField
from gpd.grothendieck import GroupElem
from gpd.metrics import (
    erode,
    eroded_leq,
    erosion_candidates,
    erosion_distance,
    erosion_exists,
    erosion_witness,
)

from generators import bars_shaped_erosion_pair, random_interval_sum_module
from oracles import _eroded_leq_oracle, diagram_leq_oracle, erosion_oracle, erosion_witness_oracle
from test_diagram import diagram_pairs, elem, random_B_diagram

GF2 = PrimeField(2)
CQ = vect(QQ)


def bars_diagram(bars: dict, grid, cat=CQ, group="B", key="dim"):
    cells = {k: GroupElem(group, cat, ((key, m),)) for k, m in bars.items()}
    return DiagramGrid.make(group, cat, tuple(Fr(v) for v in grid), cells, role="diagram")


def test_erode_by_zero_is_identity():
    Y = random_B_diagram(CQ, random.Random(1))
    assert erode(Y, 0) is Y


def test_narrow_cell_disappears():
    Y = bars_diagram({(1, 2): 1}, [0, 2])
    assert erode(Y, 1).cells == ()
    assert erode(Y, Fr(3, 4)).cells != ()


def test_erode_moves_endpoints():
    Y = bars_diagram({(1, 3): 1, (2, 4): 2}, [0, 4, 6])  # [0,6) and [4,inf)
    E = erode(Y, 1)
    got = {(E.grid[i - 1], None if j == len(E.grid) + 1 else E.grid[j - 1]): v.mult()["dim"]
           for (i, j), v in E.cells}
    assert got == {(Fr(1), Fr(5)): 1, (Fr(5), None): 2}


def test_grow_commutes_with_inversion():
    """Cumulating the eroded diagram equals cumulating at the grown interval."""
    rng = random.Random(67)
    for _ in range(100):
        Y = random_B_diagram(CQ, rng, nvals=rng.randint(1, 5))
        eps = Fr(rng.randint(0, 6), rng.randint(1, 4))
        E = erode(Y, eps)
        m = len(E.grid)
        for i in range(1, m + 1):
            for j in range(i + 1, m + 2):
                p = E.grid[i - 1]
                q = None if j == m + 1 else E.grid[j - 1]
                grown_q = None if q is None else q + eps
                assert cumulative_at(E, p, q) == cumulative_at(Y, p - eps, grown_q)


def test_eroded_diagram_maps_to_original():
    rng = random.Random(71)
    for _ in range(50):
        Y = random_B_diagram(CQ, rng)
        # morphisms of diagrams need nonnegative support; build one
        Y = DiagramGrid.make(Y.group, Y.cat, Y.grid,
                             {k: elem("B", CQ, dim=abs(v.mult()["dim"]))
                              for k, v in Y.cells}, role="diagram")
        eps = Fr(rng.randint(0, 4), rng.randint(1, 3))
        assert diagram_leq(erode(Y, eps), Y)


def test_erosion_exists_examples():
    y1 = bars_diagram({(1, 2): 1}, [0, 2])
    y2 = bars_diagram({(1, 2): 1}, [0, 3])
    assert erosion_exists(y1, y1, 0)
    assert erosion_exists(y1, y2, 1)
    assert not erosion_exists(y1, y2, Fr(1, 2))
    empty = DiagramGrid.make("B", CQ, (Fr(5),), {}, role="diagram")
    assert erosion_exists(bars_diagram({(1, 2): 1}, [0, 1]), empty, Fr(1, 2))


def test_erosion_witness_reports_direction():
    y1 = bars_diagram({(1, 2): 1}, [0, 2])
    y2 = bars_diagram({(1, 2): 1}, [0, 3])
    ok, direction, cell = erosion_witness(y1, y2, Fr(1, 2))
    assert not ok and direction == "2->1"
    assert cell == (Fr(1, 2), Fr(5, 2))


def test_group_mismatch_rejected():
    y1 = bars_diagram({(1, 2): 1}, [0, 2])
    y2 = bars_diagram({(1, 2): 1}, [0, 2], cat=finab(), group="A", key=("t", 2, 1))
    with pytest.raises(DiagramError):
        erosion_exists(y1, y2, 0)
    with pytest.raises(DiagramError):
        diagram_leq(y1, y2)
    with pytest.raises(DiagramError):
        eroded_leq(y1, y2, 1)


def test_erosion_distance_examples():
    y1 = bars_diagram({(1, 2): 1}, [0, 2])
    y2 = bars_diagram({(1, 2): 1}, [0, 3])
    assert erosion_distance(y1, y1).distance == 0
    r = erosion_distance(y1, y2)
    assert r.distance == 1
    assert all(not ok for eps, ok in r.table[:-1])
    failing = [eps for eps, ok in r.table if not ok]
    assert failing and all(erosion_witness(y1, y2, eps)[1] in ("1->2", "2->1") for eps in failing)

    # incomparable split-group labels over a bounded cell: both vanish at 1
    cat = finab()
    a = bars_diagram({(1, 2): 1}, [0, 2], cat=cat, group="A", key=("t", 2, 1))
    b = bars_diagram({(1, 2): 1}, [0, 2], cat=cat, group="A", key=("t", 3, 1))
    assert erosion_distance(a, b).distance == 1

    # over an unbounded cell the supports never vanish: infinite distance
    a = bars_diagram({(1, 2): 1}, [0], cat=cat, group="A", key=("t", 2, 1))
    b = bars_diagram({(1, 2): 1}, [0], cat=cat, group="A", key=("t", 3, 1))
    r = erosion_distance(a, b)
    assert r.distance is None


def test_erosion_distance_symmetric_and_reflexive():
    rng = random.Random(73)
    for _ in range(20):
        F1, _ = random_interval_sum_module(GF2, rng, nvals=3, nints=2)
        F2, _ = random_interval_sum_module(GF2, rng, nvals=3, nints=2)
        y1, y2 = type_A_diagram(F1), type_A_diagram(F2)
        assert erosion_distance(y1, y1).distance == 0
        assert erosion_distance(y1, y2).distance == erosion_distance(y2, y1).distance


def test_erosion_distance_at_most_bottleneck():
    """Erosion is coarser than bottleneck on interval-decomposable diagrams."""
    from oracles import bottleneck_distance

    rng = random.Random(79)
    for _ in range(15):
        F1, bars1 = random_interval_sum_module(GF2, rng, nvals=3, nints=2)
        F2, bars2 = random_interval_sum_module(GF2, rng, nvals=3, nints=2)
        y1, y2 = type_A_diagram(F1), type_A_diagram(F2)

        def pts(F, bars):
            out = []
            for (i, j), m in bars.items():
                b = F.values[i - 1]
                d = None if j == F.n + 1 else F.values[j - 1]
                out.extend([(b, d)] * m)
            return out

        bd = bottleneck_distance(pts(F1, bars1), pts(F2, bars2))
        ed = erosion_distance(y1, y2).distance
        if bd is None:
            continue  # infinite bottleneck bounds anything
        assert ed is not None and ed <= bd


def test_candidate_scan_matches_brute_force():
    rng = random.Random(83)
    for _ in range(100):
        Y1 = random_B_diagram(CQ, rng, nvals=rng.randint(1, 4))
        Y2 = random_B_diagram(CQ, rng, nvals=rng.randint(1, 4))
        got = erosion_distance(Y1, Y2).distance
        successes = [eps for eps in erosion_candidates(Y1, Y2)
                     if erosion_exists(Y1, Y2, eps)]
        expected = min(successes) if successes else None
        assert got == expected


# Pairs for the candidate sweep: a cell vanishing exactly at a candidate
# while another cell's snapped cell moves there, endpoints on values of
# the other grid, infinite bars, and a pair failing in "1->2" only.
VANISHING = (bars_diagram({(1, 2): 1, (2, 3): 1}, [0, 2, 3]), bars_diagram({(1, 2): 1}, [0, 3]))
SHARED_VALUES = (bars_diagram({(1, 3): 1, (2, 4): 1}, [0, 1, 3]),
                 bars_diagram({(1, 2): 2, (2, 4): 1}, [1, 3, 4]))
INFINITE = (bars_diagram({(1, 2): 1, (2, 3): 1}, [0, 1]),
            bars_diagram({(1, 3): 1, (2, 3): 1}, [Fr(1, 2), 2]))
ONE_TO_TWO = (bars_diagram({(1, 4): 1, (2, 3): 1}, [0, 1, 2, 4]), bars_diagram({(1, 2): 1}, [0, 4]))
SHAPED = bars_shaped_erosion_pair(random.Random(7))


def test_sweep_edge_pairs_have_their_shape():
    half_widths = {(Y.grid[j - 1] - Y.grid[i - 1]) / 2 for Y in VANISHING for (i, j), _ in Y.cells}
    assert half_widths & set(erosion_candidates(*VANISHING))
    assert set(SHARED_VALUES[0].grid) & set(SHARED_VALUES[1].grid)
    assert all(any(j == Y.n + 1 for (_, j), _ in Y.cells) for Y in INFINITE + SHAPED)
    for Y1, Y2 in (ONE_TO_TWO, SHAPED):
        report = erosion_distance(Y1, Y2)
        failing = [eps for eps, ok in report.table if not ok]
        assert failing and {erosion_witness(Y1, Y2, eps)[1] for eps in failing} == {"1->2"}
        assert report == erosion_oracle(Y1, Y2)


ORACLE_PAIRS = diagram_pairs() | st.integers(0, 2 ** 16).map(
    lambda seed: bars_shaped_erosion_pair(random.Random(seed)))


@settings(max_examples=200, deadline=None)
@given(ORACLE_PAIRS)
@example(pair=VANISHING)
@example(pair=SHARED_VALUES)
@example(pair=INFINITE)
@example(pair=ONE_TO_TWO)
@example(pair=SHAPED)
def test_erosion_report_matches_fraction_oracle(pair):
    Y1, Y2 = pair
    assert erosion_distance(Y1, Y2) == erosion_oracle(Y1, Y2)
    assert erosion_distance(Y2, Y1) == erosion_oracle(Y2, Y1)
    assert erosion_distance(Y1, Y1) == erosion_oracle(Y1, Y1)


@settings(max_examples=200, deadline=None)
@given(ORACLE_PAIRS)
@example(pair=ONE_TO_TWO)
@example(pair=SHAPED)
def test_failing_candidates_have_the_oracle_witness(pair):
    """The report names no failing direction or interval: at every eps
    its table marks failing, `erosion_witness` reports a failure, and the
    one the Fraction oracle finds."""
    Y1, Y2 = pair
    report = erosion_distance(Y1, Y2)
    assert report == erosion_oracle(Y1, Y2)
    for eps, ok in report.table:
        if not ok:
            witness = erosion_witness(Y1, Y2, eps)
            assert not witness[0] and witness == erosion_witness_oracle(Y1, Y2, eps)


def test_erosion_report_on_empty_diagrams_matches_oracle():
    no_values = DiagramGrid.make("B", CQ, (), {}, role="diagram")
    no_cells = DiagramGrid.make("B", CQ, (Fr(1, 3), Fr(2)), {}, role="diagram")
    bars = bars_diagram({(1, 2): 1, (2, 3): 2}, [Fr(1, 2), 3])
    for Y1, Y2 in [(no_values, no_values), (no_values, no_cells), (no_cells, bars),
                   (bars, no_values), (bars, bars)]:
        assert erosion_distance(Y1, Y2) == erosion_oracle(Y1, Y2)
    assert erosion_distance(no_values, no_values).table == ((0, True),)


@settings(max_examples=200, deadline=None)
@given(diagram_pairs(), st.fractions(min_value=0, max_value=7, max_denominator=30))
@example(pair=(bars_diagram({(1, 2): 1, (2, 4): 1}, [0, 2, 5]),
               bars_diagram({(1, 3): 1, (2, 4): 1}, [1, 2, 5])), eps=Fr(1, 7))
def test_erosion_witness_matches_oracle_at_any_eps(pair, eps):
    Y1, Y2 = pair
    assert erosion_witness(Y1, Y2, eps) == erosion_witness_oracle(Y1, Y2, eps)


def test_erosion_witness_between_candidates():
    """eps = 1/7 is no candidate of two integer grids; the check runs at a
    scale that covers its denominator and reports the exact interval."""
    y1 = bars_diagram({(1, 2): 1}, [0, 2])
    y2 = bars_diagram({(1, 2): 1}, [0, 3])
    eps = Fr(1, 7)
    assert eps not in erosion_candidates(y1, y2)
    got = erosion_witness(y1, y2, eps)
    assert got == erosion_witness_oracle(y1, y2, eps) == (False, "2->1", (Fr(1, 7), Fr(20, 7)))


def _long_scan_pair():
    """Two diagrams on 30 values each, 24 cells each at most, whose scan
    checks more than 1,000 candidates and finds no distance."""
    rng = random.Random(89)
    n = 30

    def diagram():
        grid = sorted(rng.sample(range(n * 97), n))
        cells = {(i, j): elem("B", CQ, dim=rng.choice([-1, 1, 2]))
                 for i, j in {(rng.randint(1, n), n + 1) for _ in range(4)}
                 | {(i, i + rng.randint(1, 5)) for i in rng.sample(range(1, n - 4), 20)}}
        return DiagramGrid.make("B", CQ, tuple(Fr(t, 97) for t in grid), cells, role="diagram")

    return diagram(), diagram()


def test_erosion_scan_adds_only_to_build_two_tables(monkeypatch):
    """The group additions of a scan are those of the two cumulative
    tables, 3 per cell, however many candidates are checked."""
    count = [0]
    real = gpd.grothendieck.add

    def counting_add(x, y):
        count[0] += 1
        return real(x, y)

    for mod in (gpd.grothendieck, gpd.diagram):
        monkeypatch.setattr(mod, "add", counting_add)
    Y1, Y2 = _long_scan_pair()
    report = erosion_distance(Y1, Y2)
    assert report.distance is None and len(report.table) == len(erosion_candidates(Y1, Y2)) > 1000
    n = Y1.n
    assert count[0] <= 2 * 3 * n * (n + 1) // 2


def test_erosion_scan_builds_fractions_only_for_candidates_and_witnesses(monkeypatch):
    """A scan builds no Fraction beyond the candidates it reads, however
    many fail; at one eps, `eroded_leq` builds none and `erosion_witness`
    at most the two of its interval."""
    count = [0]
    real = gpd.metrics.Fraction

    def counting_fraction(*args):
        count[0] += 1
        return real(*args)

    Y1, Y2 = _long_scan_pair()
    cands = erosion_candidates(Y1, Y2)
    monkeypatch.setattr(gpd.metrics, "Fraction", counting_fraction)
    report = erosion_distance(Y1, Y2)
    assert report.distance is None and len(report.table) == len(cands) > 1000
    assert count[0] == len(cands)
    for eps in (Fr(0), cands[len(cands) // 2], Fr(1, 7)):
        for check, most in ((erosion_witness, 2), (eroded_leq, 0)):
            count[0] = 0
            check(Y1, Y2, eps)
            assert count[0] <= most


def test_erosion_scan_retests_a_cell_only_when_its_snapped_cell_moves(monkeypatch):
    """Each support cell is order-tested once, then again only when its
    snapped row rises or its column falls past a value of the other grid:
    at most 2 n + 2 tests per cell, n the values of both grids, however
    many candidates are checked."""
    count = [0]
    real = gpd.metrics._leq_coeffs

    def counting_leq(x, y):
        count[0] += 1
        return real(x, y)

    monkeypatch.setattr(gpd.metrics, "_leq_coeffs", counting_leq)
    Y1, Y2 = _long_scan_pair()
    report = erosion_distance(Y1, Y2)
    assert len(report.table) > 1000
    n = len(set(Y1.grid) | set(Y2.grid))
    assert 0 < count[0] <= (len(Y1.cells) + len(Y2.cells)) * (2 * n + 2)


INTEGER_PAIR = (bars_diagram({(1, 2): 1}, [0, 2]), bars_diagram({(1, 2): 1}, [0, 3]))
EMPTY = DiagramGrid.make("B", CQ, (), {}, role="diagram")


@settings(max_examples=200, deadline=None)
@given(diagram_pairs(), st.integers(0, 10 ** 6))
@example(pair=INTEGER_PAIR, pick=1)  # eps = 1/7, no candidate of integer grids
@example(pair=INTEGER_PAIR[::-1], pick=1)
@example(pair=(EMPTY, INTEGER_PAIR[0]), pick=0)
@example(pair=(INTEGER_PAIR[0], EMPTY), pick=2)
def test_eroded_leq_matches_eroded_diagram_and_oracle(pair, pick):
    """The scan at eps agrees with building erode(Y1, eps) and comparing it
    cell by cell, and with the Fraction oracle, at eps = 0, 1/7 and at
    every candidate eps."""
    for Y1, Y2 in (pair, pair[::-1], pair[:1] * 2):
        choices = (Fr(0), Fr(1, 7)) + erosion_candidates(Y1, Y2)
        eps = choices[pick % len(choices)]
        got = eroded_leq(Y1, Y2, eps)
        assert got == _eroded_leq_oracle(Y1, eps, Y2)[0]
        assert got == diagram_leq_oracle(erode(Y1, eps), Y2)
        if eps == 0:
            assert diagram_leq(Y1, Y2) == got
