"""Acceptance gate: one pass/fail line per criterion.

Each test exercises one end-to-end guarantee of the library and prints a
single summary line on the real stdout (bypassing capture) so the verdicts
are visible in any pytest run.
"""

import random
import time
from fractions import Fraction as Fr
from pathlib import Path

import pytest

from gpd.categories import (
    ab,
    direct_sum_obj,
    finab,
    finset,
    iso_class,
    repn,
    vect,
)
from gpd.diagram import (
    DiagramGrid,
    cumulate,
    cumulative_at,
    diagram_leq,
    mobius_invert,
    positivity_check,
    type_A_diagram,
    type_B_diagram,
)
from gpd.exact import QQ, PrimeField
from gpd.grothendieck import _make_elem, add
from gpd.homology import (
    interleaving_from_perturbation,
    parse_filtration,
    persistent_homology,
    persistent_module,
    perturb,
)
from gpd.metrics import erode, erosion_distance, erosion_exists
from gpd.pmodule import check_interleaving

from generators import random_module, random_obj
from oracles import classical_diagram_gf2
from test_diagram import random_B_diagram
from test_homology import homology_invariants_oracle

GF2 = PrimeField(2)
DATA = Path(__file__).resolve().parent.parent / "src" / "gpd" / "data"

# trial records shared between the continuity and semicontinuity criteria
_TRIALS: list[dict] = []

# verdict lines, echoed after the run by the conftest terminal-summary hook
VERDICTS: list[str] = []


def verdict(num: int, name: str, ok: bool):
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}"
    VERDICTS.append(line)
    print(line, flush=True)
    assert ok, f"acceptance criterion {num} ({name}) failed"


def test_1_mobius_round_trip():
    rng = random.Random(101)
    cat = finab()
    keys = [("t", 2, 1), ("t", 3, 1), ("t", 5, 1)]  # labels range over Z^3
    start = time.perf_counter()
    ok = True
    for _ in range(200):
        nvals = rng.randint(1, 8)
        den = rng.randint(1, 3)
        grid = tuple(Fr(v, den) for v in sorted(rng.sample(range(-12, 24), nvals)))
        cells = {}
        for i in range(1, nvals + 1):
            for j in range(i + 1, nvals + 2):
                if rng.random() < 0.5:
                    cells[(i, j)] = _make_elem(
                        "A", cat, {k: rng.randint(-3, 3) for k in keys})
        Y = DiagramGrid.make("A", cat, grid, cells, role="diagram")
        X = cumulate(Y)
        ok = ok and mobius_invert(X).cells == Y.cells
        ok = ok and cumulate(mobius_invert(X)).cells == X.cells
    elapsed = time.perf_counter() - start
    verdict(1, "Mobius round-trip", ok and elapsed < 5.0)


def test_2_grow_commutation():
    rng = random.Random(103)
    cat = vect(QQ)
    ok = True
    for _ in range(100):
        Y = random_B_diagram(cat, rng, nvals=rng.randint(1, 5))
        eps = Fr(rng.randint(0, 8), rng.randint(1, 4))
        E = erode(Y, eps)
        m = len(E.grid)
        for i in range(1, m + 1):
            for j in range(i + 1, m + 2):
                p = E.grid[i - 1]
                q = None if j == m + 1 else E.grid[j - 1] + eps
                ok = ok and cumulative_at(E, p, None if j == m + 1 else E.grid[j - 1]) \
                    == cumulative_at(Y, p - eps, q)
    verdict(2, "Grow-commutation", ok)


def test_3_positivity():
    rng = random.Random(107)
    ok = True
    for cat in [finab(), vect(QQ)]:
        for _ in range(50):
            F = random_module(cat, rng, max_values=6, max_size=3)
            report = positivity_check(F)
            ok = ok and report.ok and report.matches
    verdict(3, "positivity and subquotient oracle", ok)


def test_4_classical_agreement():
    rng = random.Random(109)
    cat = vect(GF2)
    ok = True
    for _ in range(50):
        F = random_module(cat, rng, max_values=4, max_size=3)
        dims = [o.data for o in F.objects[1:]]
        maps = [m.payload.to_lists() for m in F.morphisms[1:]]
        expected = classical_diagram_gf2(dims, maps)
        got = {k: v.mult()["line"] for k, v in type_A_diagram(F).cells}
        ok = ok and got == expected
        # over a field the two diagram flavours carry the same multiplicities
        got_b = {k: v.mult()["dim"] for k, v in type_B_diagram(F).cells}
        ok = ok and got_b == expected
    verdict(4, "classical agreement", ok)


def test_5_continuity():
    start = time.perf_counter()
    ok = True
    for name in ["klein_bottle.flt", "torus.flt"]:
        K = parse_filtration((DATA / name).read_text())
        H = persistent_homology(K, 1, "Z")
        F = H.module
        gap = min(b - a for a, b in zip(F.values, F.values[1:]))
        YA_F = type_A_diagram(F)
        YB_F = type_B_diagram(F)
        eps_menu = [gap / 8, gap / 4, gap / 2]
        rho = gap / 4
        for trial in range(50):
            eps = eps_menu[trial % 3]
            H2 = persistent_homology(perturb(K, eps, seed=1000 + trial), 1, "Z")
            G = H2.module
            inter_ok = check_interleaving(F, G, interleaving_from_perturbation(H, H2, eps))
            dist = erosion_distance(YB_F, type_B_diagram(G)).distance
            cont_ok = dist is not None and dist <= eps
            ok = ok and inter_ok and cont_ok
            _TRIALS.append({"eps": eps, "rho": rho, "YA_F": YA_F,
                            "YA_G": type_A_diagram(G)})
    elapsed = time.perf_counter() - start
    verdict(5, "continuity of type B diagrams", ok and elapsed < 60.0)


def test_6_semicontinuity():
    assert _TRIALS, "continuity trials must run first"
    in_scope = [t for t in _TRIALS if t["eps"] < t["rho"]]
    ok = bool(in_scope)
    for t in in_scope:
        ok = ok and diagram_leq(erode(t["YA_F"], t["eps"]), t["YA_G"])
    verdict(6, "semicontinuity of type A diagrams", ok)


def test_7_torsion_pipeline():
    K = parse_filtration((DATA / "klein_bottle.flt").read_text())
    F = persistent_module(K, 1, "Z")
    YA = type_A_diagram(F)
    torsion_cells = [(k, v) for k, v in YA.cells
                     if any(key != "Z" and m for key, m in v.mult().items())]
    ok = len(torsion_cells) == 1
    if ok:
        (_, label), = torsion_cells
        ok = label.mult().get(("t", 2, 1), 0) == 1
    YB = type_B_diagram(F)
    ok = ok and all(set(v.mult()) <= {"rank"} for _, v in YB.cells)
    # final-stage value against an independent Smith-normal-form computation
    ok = ok and homology_invariants_oracle(K, 1) == (1, (2,))
    ok = ok and F.objects[-1].data == (1, (2,))
    verdict(7, "Klein bottle torsion pipeline", ok)


def test_8_erosion_oracle():
    rng = random.Random(113)
    cat = vect(QQ)
    ok = True
    for _ in range(100):
        Y1 = random_B_diagram(cat, rng, nvals=rng.randint(1, 4))
        Y2 = random_B_diagram(cat, rng, nvals=rng.randint(1, 4))
        got = erosion_distance(Y1, Y2).distance
        # brute force: evaluate the predicate at every difference-derived
        # candidate and every midpoint between consecutive candidates
        vals = sorted(set(Y1.grid) | set(Y2.grid))
        ext = vals + [max(vals) + 1]
        cands = {Fr(0)}
        for a in ext:
            for b in ext:
                d = abs(a - b)
                cands.update((d, d / 2))
        ordered = sorted(cands)
        full = set(ordered)
        full.update((a + b) / 2 for a, b in zip(ordered, ordered[1:]))
        wins = [eps for eps in sorted(full) if erosion_exists(Y1, Y2, eps)]
        expected = min(wins) if wins else None
        ok = ok and got == expected
    verdict(8, "erosion distance brute-force agreement", ok)


def test_9_krull_schmidt_canonicity():
    rng = random.Random(127)
    ok = True
    for cat in [finset(), vect(QQ), vect(GF2), ab(), finab(), repn(QQ),
                repn(PrimeField(3))]:
        for _ in range(200):
            a = random_obj(cat, rng, max_size=3)
            b = random_obj(cat, rng, max_size=3)
            got = iso_class(direct_sum_obj(a, b))
            ok = ok and got == add(iso_class(a), iso_class(b))
    verdict(9, "Krull-Schmidt canonicity", ok)
