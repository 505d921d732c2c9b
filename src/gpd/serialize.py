"""Diagram serialization: canonical JSON, TSV tables, and SVG plots.

All rationals travel as "p/q" strings (or "p" when integral) so no
precision is lost.  JSON output is canonical — sorted cells, fixed key
order, one trailing newline — which makes emit -> parse -> emit the
identity on bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import log10

from .categories import ab, finab, finset, repn, vect
from .diagram import DiagramGrid
from .exact import (MAX_EXPONENT, MAX_MODULUS, QQ, PrimeField, RationalField, is_prime,
                    parse_rational)
from .grothendieck import GroupElem, NoBGroupError, _make_elem


class SerializeError(ValueError):
    pass


def rat_str(x) -> str:
    """A Fraction or an int as `p` or `p/q`."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _field_token(field) -> str:
    if isinstance(field, RationalField):
        return "Q"
    if isinstance(field, PrimeField):
        return f"F{field.p}"
    raise SerializeError(f"unknown field {field!r}")


def _field_from_token(tok: str):
    if tok == "Q":
        return QQ
    if tok.startswith("F"):
        return PrimeField(int(tok[1:]))
    raise SerializeError(f"unknown field token {tok!r}")


def _cat_to_json(cat) -> dict:
    out = {"category": cat.kind}
    out["field"] = _field_token(cat.field) if cat.field is not None else None
    return out


def _cat_from_json(d: dict):
    kind = d["category"]
    field = _field_from_token(d["field"]) if d.get("field") else None
    makers = {"finset": lambda: finset(), "ab": lambda: ab(), "finab": lambda: finab(),
              "vect": lambda: vect(field), "repn": lambda: repn(field)}
    if kind not in makers:
        raise SerializeError(f"unknown category {kind!r}")
    return makers[kind]()


def _scalar_from_str(s: str, field):
    """A field element: a rational over Q, a residue 0 <= x < p over F_p."""
    if isinstance(field, RationalField):
        return parse_rational(s)
    x = int(s)
    if not 0 <= x < field.p:
        raise SerializeError(f"{s[:40]!r} is not a residue mod {field.p}")
    return x


def _label_key_str(group: str, cat, key) -> str:
    if group == "A":
        if isinstance(key, str):
            return key  # 'pt', 'line', 'Z'
        if key[0] == "t":
            return f"t:{key[1]}:{key[2]}"
        return f"j:{rat_str(key[1])}:{key[2]}"
    if isinstance(key, str):
        return key  # 'dim', 'rank'
    if isinstance(key, int) and cat.kind == "finab":
        return f"p:{key}"
    return f"ev:{rat_str(key)}"


def _label_key_parse(group: str, cat, tok: str):
    """The basis key that `tok` names in the group of (group, cat):
    A has pt (finset), line (vect), Z and t:p:m (ab), t:p:m (finab) and
    j:lam:m (repn); B has dim (vect), rank (ab), p:<p> (finab) and
    ev:lam (repn).  Any other token raises SerializeError."""
    kind = cat.kind
    head, _, rest = tok.partition(":")
    if group == "A":
        if tok == {"finset": "pt", "vect": "line", "ab": "Z"}.get(kind):
            return tok
        if head == "t" and kind in ("ab", "finab"):  # Z/p**m, which TSV and SVG print in full
            a, b = rest.split(":")
            p, m = int(a), int(b)
            if not (p <= MAX_MODULUS and is_prime(p) and m >= 1
                    and m * log10(p) <= MAX_EXPONENT + 1 and p ** m < 10 ** MAX_EXPONENT):
                raise SerializeError(f"label {tok[:40]!r} needs a prime p <= {MAX_MODULUS}, "
                                     f"m >= 1 and p**m of at most {MAX_EXPONENT} digits")
            return ("t", p, m)
        if head == "j" and kind == "repn":
            a, b = rest.split(":")
            lam, m = _scalar_from_str(a, cat.field), int(b)
            if m < 1:
                raise SerializeError(f"label {tok[:40]!r} needs a block size m >= 1")
            return ("j", lam, m)
    else:
        if tok == {"vect": "dim", "ab": "rank"}.get(kind):
            return tok
        if head == "p" and kind == "finab":
            p = int(rest)
            if not (p <= MAX_MODULUS and is_prime(p)):
                raise SerializeError(f"label {tok[:40]!r} needs a prime p <= {MAX_MODULUS}")
            return p
        if head == "ev" and kind == "repn":
            return _scalar_from_str(rest, cat.field)
    raise SerializeError(f"label key {tok[:40]!r} is not a basis key of {group}({kind})")


def _json_int(x, what: str) -> int:
    """x if it is a JSON integer; a float, string or boolean raises."""
    if type(x) is not int:
        raise SerializeError(f"{what} must be an integer, got {repr(x)[:40]}")
    return x


def diagram_to_json(d: DiagramGrid) -> str:
    cells = []
    n = d.n
    for (i, j), val in d.cells:
        label = {_label_key_str(d.group, d.cat, k): v for k, v in val.coeffs}
        cells.append({"i": i, "j_or_inf": "inf" if j == n + 1 else j,
                      "label": dict(sorted(label.items()))})
    doc = {
        "grid": [rat_str(t) for t in d.grid],
        "cells": cells,
        "group": {"tag": d.group, **_cat_to_json(d.cat), "role": d.role},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def diagram_from_json(text: str) -> DiagramGrid:
    try:
        doc = json.loads(text)
        group = doc["group"]["tag"]
        if group not in ("A", "B"):
            raise SerializeError(f"unknown group tag {group!r}")
        cat = _cat_from_json(doc["group"])
        if group == "B" and not cat.abelian:
            raise NoBGroupError("finite sets have no exact-sequence Grothendieck group")
        role = doc["group"].get("role", "diagram")
        grid = tuple(parse_rational(t) for t in doc["grid"])
        n = len(grid)
        cells = {}
        for c in doc["cells"]:
            i = _json_int(c["i"], "i")
            j = n + 1 if c["j_or_inf"] == "inf" else _json_int(c["j_or_inf"], "j_or_inf")
            coeffs = {}
            for tok, v in c["label"].items():
                key = _label_key_parse(group, cat, tok)
                if key in coeffs:
                    raise SerializeError(f"label of cell ({i}, {j}) names {tok[:40]!r} twice")
                coeffs[key] = _json_int(v, "a multiplicity")
            if (i, j) in cells:
                raise SerializeError(f"cell ({i}, {j}) is listed twice")
            cells[(i, j)] = _make_elem(group, cat, coeffs)
        return DiagramGrid.make(group, cat, grid, cells, role=role)
    except (KeyError, TypeError, AttributeError, ValueError, ArithmeticError,
            RecursionError) as exc:
        raise SerializeError(f"bad diagram file: {exc}") from exc


def label_text(val: GroupElem, cat) -> str:
    """Human-readable signed label, e.g. '[Z] - [Z/4]' or '2[line]'."""
    parts = []
    for key, c in val.coeffs:
        name = _pretty_key(val.group, cat, key)
        mag = "" if abs(c) == 1 else str(abs(c))
        term = f"{mag}[{name}]"
        parts.append(("- " if c < 0 else "+ " if parts else "") + term)
    return " ".join(parts) if parts else "0"


def _pretty_key(group: str, cat, key) -> str:
    if group == "A":
        if key == "pt":
            return "pt"
        if key == "line":
            return "k"
        if key == "Z":
            return "Z"
        if key[0] == "t":
            p, m = key[1], key[2]
            return f"Z/{p ** m}"
        return f"J({rat_str(key[1])},{key[2]})"
    if isinstance(key, str):
        return key
    if isinstance(key, int) and cat.kind == "finab":
        return f"len_{key}"
    return f"ev {rat_str(key)}"


def diagram_to_tsv(d: DiagramGrid) -> str:
    lines = ["i\tj\tbirth\tdeath\tlabel"]
    n = d.n
    for (i, j), val in d.cells:
        death = "inf" if j == n + 1 else rat_str(d.grid[j - 1])
        jtxt = "inf" if j == n + 1 else str(j)
        lines.append(f"{i}\t{jtxt}\t{rat_str(d.grid[i - 1])}\t{death}\t{label_text(val, d.cat)}")
    return "\n".join(lines) + "\n"


def diagram_to_svg(d: DiagramGrid) -> str:
    """Deterministic scatter plot: diagonal, grid lines, an infinity row
    above the finite range, and a signed text label at each cell."""
    size, margin = 420, 50
    span = size - 2 * margin
    grid = d.grid
    if grid:
        lo, hi = grid[0], grid[-1]
        width = (hi - lo) or Fraction(1)
    else:
        lo, width = Fraction(0), Fraction(1)

    def sx(v):
        return float(margin + span * (v - lo) / width)

    inf_y = margin // 2

    def sy(v):
        return float(size - margin - span * (v - lo) / width)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
           f'viewBox="0 0 {size} {size}">',
           f'<rect width="{size}" height="{size}" fill="white"/>',
           f'<line x1="{margin}" y1="{size - margin}" x2="{size - margin}" y2="{margin}" '
           'stroke="#999" stroke-dasharray="4 3"/>',
           f'<line x1="{margin}" y1="{inf_y}" x2="{size - margin}" y2="{inf_y}" '
           'stroke="#ccc"/>',
           f'<text x="{margin - 35}" y="{inf_y + 4}" font-size="12">inf</text>']
    for t in grid:
        out.append(f'<line x1="{sx(t):.2f}" y1="{margin}" x2="{sx(t):.2f}" '
                   f'y2="{size - margin}" stroke="#eee"/>')
        out.append(f'<text x="{sx(t):.2f}" y="{size - margin + 15}" font-size="10" '
                   f'text-anchor="middle">{rat_str(t)}</text>')
        out.append(f'<text x="{margin - 8}" y="{sy(t):.2f}" font-size="10" '
                   f'text-anchor="end">{rat_str(t)}</text>')
    n = d.n
    for (i, j), val in d.cells:
        x = sx(grid[i - 1])
        y = inf_y if j == n + 1 else sy(grid[j - 1])
        out.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="black"/>')
        out.append(f'<text x="{x + 6:.2f}" y="{y - 6:.2f}" font-size="11">'
                   f'{label_text(val, d.cat)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
