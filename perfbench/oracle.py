"""Independent check of rank diagrams: the classical degree-1 barcode.

Standard column reduction of the boundary matrix in filtration order
(Edelsbrunner-Letscher-Zomorodian; Zomorodian-Carlsson) over Q or F_p,
written with the standard library only.  A type B diagram over a field
labels each cell with the number of bars on that interval, and a type B
diagram over Z labels it with the rank, which is the barcode over Q.
"""

from __future__ import annotations

import json
from fractions import Fraction


def parse_flt(text: str) -> list:
    """[(vertex tuple, value)] of a filtration file."""
    out = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            left, _, right = line.partition(":")
            out.append((tuple(sorted(int(v) for v in left.split())), Fraction(right.strip())))
    return out


def barcode_h1(simplices: list, p: int | None) -> dict:
    """{(birth, death or None): multiplicity} of degree-1 bars of positive
    length, over F_p, or over Q when p is None."""
    order = sorted(simplices, key=lambda sv: (sv[1], len(sv[0]), sv[0]))
    index = {s: k for k, (s, _) in enumerate(order)}

    def coef(x):
        return x % p if p else Fraction(x)

    def div(a, b):
        return a * pow(b, -1, p) % p if p else a / b

    pivot_of = {}  # low row -> reduced column (dict row -> coefficient)
    pairs, positive_edges = {}, []
    for k, (s, _) in enumerate(order):
        col = {}
        if len(s) > 1:
            for i in range(len(s)):
                col[index[s[:i] + s[i + 1:]]] = coef((-1) ** i)
        while col:
            low = max(col)
            if low not in pivot_of:
                break
            other = pivot_of[low]
            c = div(col[low], other[low])
            for r, v in other.items():
                nv = coef(col.get(r, 0) - c * v)
                if nv:
                    col[r] = nv
                else:
                    col.pop(r, None)
        if col:
            low = max(col)
            pivot_of[low] = col
            pairs[low] = k
        elif len(s) == 2:
            positive_edges.append(k)
    bars: dict = {}
    for e in positive_edges:
        birth = order[e][1]
        death = order[pairs[e]][1] if e in pairs else None
        if death is None or death > birth:
            bars[(birth, death)] = bars.get((birth, death), 0) + 1
    return bars


def diagram_problems(flt_text: str, diagram_json: bytes, coeff: str) -> list:
    """Differences between a type B degree-1 diagram and the barcode."""
    p = int(coeff[3:]) if coeff.startswith("Fp:") else None
    simplices = parse_flt(flt_text)
    grid = sorted({v for _, v in simplices})
    doc = json.loads(diagram_json)
    if [Fraction(t) for t in doc["grid"]] != grid:
        return ["diagram grid is not the set of filtration values"]
    cells = {}
    for c in doc["cells"]:
        (key, mult), = c["label"].items()
        if key not in ("dim", "rank"):
            return [f"unexpected label {key!r} in a type B diagram"]
        death = None if c["j_or_inf"] == "inf" else grid[c["j_or_inf"] - 1]
        cells[(grid[c["i"] - 1], death)] = mult
    if cells != barcode_h1(simplices, p):
        return ["diagram differs from the degree-1 barcode"]
    return []
