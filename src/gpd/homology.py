"""Filtered simplicial complexes and their persistent homology modules.

The pipeline parses a plain-text filtration, computes homology of each
sublevel complex exactly (field and integer coefficients from one column
reduction of the whole filtration, integer stages from its `lead_stop`
on by one Smith normal form of the core its unit-lead eliminations
leave, and Z/m coefficients as the integer homology of the mapping cone
of m, by the same reduction) on chains {k-cell: coefficient}, reads
induced maps as canonical coordinates of chains, and assembles a
constructible module.
One `PersistentHomology` per filtration and degree runs that reduction
and holds its stages and module.  Every type A diagram of a filtration
(`filtration_type_A`) is read off the bars of the same reduction where
`barcode` decides, and the type A diagram of pi_0 in finite sets
(`component_type_A`) is always the H_0 barcode.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from functools import cached_property

from .categories import ab, finab, finset, iso_class, make_mor, make_obj, vect
from .diagram import DiagramGrid, type_A_diagram
from .exact import (
    MAX_MODULUS,
    QQ,
    ZZ,
    PrimeField,
    _clear,
    column_reduce,
    parse_rational,
    smith_normal_form,
)
from .matrix import Mat, Value


class FiltrationError(ValueError):
    pass


class FiltrationParseError(FiltrationError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class _FaceError(FiltrationError):
    problem = ""  # what is wrong between `simplex` and `face`

    def __init__(self, simplex, face, line_no=None):
        where = "" if line_no is None else f"line {line_no}: "
        super().__init__(f"{where}simplex {simplex} {self.problem} {face}")
        self.simplex, self.face, self.line_no = simplex, face, line_no


class MissingFaceError(_FaceError):
    problem = "is missing its face"


class ValueInversionError(_FaceError):
    problem = "appears before its face"


class FilteredComplex(Value):
    """Simplices (sorted vertex tuples, ordered by dimension then
    vertices) with one rational filtration value each."""

    simplices: tuple
    values: tuple

    def __post_init__(self):
        index = {s: i for i, s in enumerate(self.simplices)}
        if len(index) != len(self.simplices):
            raise FiltrationError("duplicate simplex")
        verts = {v for s in self.simplices for v in s}
        if verts != set(range(len(verts))):
            raise FiltrationError(f"vertex indices must be dense from 0, got {sorted(verts)}")
        for s, v in zip(self.simplices, self.values):
            for f in facets(s):
                if f not in index:
                    raise MissingFaceError(s, f)
                if self.values[index[f]] > v:
                    raise ValueInversionError(s, f)

    @cached_property
    def critical_values(self) -> tuple:
        return tuple(sorted(set(self.values)))

    @cached_property
    def _by_dim(self) -> dict:
        """Per dimension, the simplices in complex order, each paired with
        the index of its value in `critical_values`."""
        index = {v: i for i, v in enumerate(self.critical_values)}
        out: dict = {}
        for s, v in zip(self.simplices, self.values):
            out.setdefault(len(s) - 1, []).append((s, index[v]))
        return out

    def simplices_of_dim(self, k: int, at=None) -> list:
        """The k-simplices in complex order, those with value <= at only
        when `at` is given."""
        entries = self._by_dim.get(k, [])
        if at is None:
            return [s for s, _ in entries]
        n = bisect_right(self.critical_values, at)
        return [s for s, i in entries if i < n]


def facets(simplex: tuple):
    if len(simplex) > 1:
        for i in range(len(simplex)):
            yield simplex[:i] + simplex[i + 1:]


def make_complex(items) -> FilteredComplex:
    """Build a complex from (vertex-tuple, value) pairs in any order."""
    entries = sorted(((tuple(sorted(s)), Fraction(v)) for s, v in items),
                     key=lambda e: (len(e[0]), e[0]))
    return FilteredComplex(tuple(s for s, _ in entries), tuple(v for _, v in entries))


def parse_filtration(text: str) -> FilteredComplex:
    """Parse `v0 v1 ... vk : value` lines; `#` starts a comment.

    Values are decimals or `p/q` rationals; lines may come in any
    order.  Errors carry the offending 1-based line number, except that
    vertex indices must be dense from 0 across the whole file.
    """
    values, lines = {}, {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise FiltrationParseError(line_no, "expected `v0 v1 ... vk : value`")
        left, _, right = line.partition(":")
        try:
            verts = tuple(sorted(int(tok) for tok in left.split()))
        except ValueError:
            raise FiltrationParseError(line_no, f"bad vertex list {left.strip()!r}") from None
        if not verts:
            raise FiltrationParseError(line_no, "empty vertex list")
        if len(set(verts)) != len(verts):
            raise FiltrationParseError(line_no, f"repeated vertex in {verts}")
        try:
            value = parse_rational(right.strip())
        except (ValueError, ZeroDivisionError):
            raise FiltrationParseError(line_no, f"bad value {right.strip()!r}") from None
        if verts in lines:
            raise FiltrationParseError(line_no, f"duplicate simplex {verts}")
        lines[verts], values[verts] = line_no, value
    try:
        return make_complex(values.items())
    except _FaceError as exc:
        raise type(exc)(exc.simplex, exc.face, lines[exc.simplex]) from None


def _cells(K: FilteredComplex, d: int, m: int) -> list:
    """The d-cells, each with the index of its value, in value order
    (complex order within a value): the d-simplices of K, or for m > 0
    the cells of the mapping cone of m on its chains, (s, 0) for each
    d-simplex s and then (t, 1) for each (d-1)-simplex t."""
    cells = K._by_dim.get(d, [])
    if m:
        cells = [((s, 0), i) for s, i in cells] + \
            [((t, 1), i) for t, i in K._by_dim.get(d - 1, [])]
    return sorted(cells, key=lambda e: e[1])


def _boundary_columns(rows: list, cols: list, coerce=int, m: int = 0) -> list:
    """Boundaries of the cells `cols` as dict columns {position of a face
    in `rows`: coefficient}: of simplices, or for m > 0 of the cone's
    cells (s, j), with d(s, 0) = (ds, 0) and d(t, 1) = m (t, 0) - (dt, 1)."""
    pos = {s: i for i, s in enumerate(rows)}
    if not m:
        return [{pos[f]: coerce((-1) ** i) for i, f in enumerate(facets(s))} for s in cols]
    return [{pos[f, j]: coerce((-1) ** (i + j)) for i, f in enumerate(facets(s))}
            | ({pos[s, 0]: coerce(m)} if j else {}) for s, j in cols]


# ---------------------------------------------------------------------------
# Homology of one sublevel complex, with coordinates
# ---------------------------------------------------------------------------

def parse_coeffs(token: str):
    """Coefficient token 'Z', 'Q', 'Fp:<p>' or 'Zm:<m>' as (kind, field or
    modulus, category of its homology): the one place a token is read."""
    if token == "Z":
        return ("Z", QQ, ab())
    if token == "Q":
        return ("F", QQ, vect(QQ))
    if token[:3] not in ("Fp:", "Zm:"):
        raise FiltrationError(f"unknown coefficient token {token!r}")
    try:
        n = int(token[3:])
    except ValueError:
        raise FiltrationError(f"coefficient token {token!r} needs an integer "
                              f"after {token[:3]!r}") from None
    if token[:3] == "Fp:":
        F = PrimeField(n)
        return ("F", F, vect(F))
    if not 2 <= n <= MAX_MODULUS:
        raise FiltrationError(f"Z/m coefficients need 2 <= m <= {MAX_MODULUS}")
    return ("Zm", n, finab())


class PersistentHomology:
    """Persistent homology of one filtration in degree k: one column
    reduction of the whole filtration, from which every stage reads its
    homology.

    The cells are the simplices, and over Z/m those of the mapping cone
    of m on the chains (`_cells`): cone_k = C_k + C_{k-1}, with
    d(b, a) = (db + m a, -da), a cell (s, 0) in degree dim s and a cell
    (s, 1) in degree dim s + 1, both at the value of s.  Its integer
    homology is H_k(C (x) Z/m), by the map (b, a) -> b mod m, which
    commutes with the inclusions of sublevel complexes; it is finite, as
    m is invertible over Q.  So Z/m runs the reduction over Z on the
    cone, with no split by primes.

    Cells go in value order (complex order within a value), so a stage's
    k-cells are a prefix of `k_simplices`, its (k+1)-cells a prefix of
    the columns of d_{k+1}, and its reduction the prefix of this one.
    The reduction of d_{k+1} pairs each nonzero reduced column R_j with
    its lowest row p, which is born at its value (`born`, an index into
    `K.critical_values`) and dies at that of column j (`death`).  Those
    rows are cycles, so the reduction of d_k skips them (clearing, Chen
    and Kerber) and tracks the combinations V; every other p whose
    column reduces to zero has the cycle z_p = V_p.
    `table` maps each such p to R_j or z_p, columns of lowest row p, and
    `chains` maps p to the same column keyed by k-cell: those born by
    stage t are a basis of Z_k(t), those dead by t a basis of B_k(t), and
    the others, the stage's generators, a basis of H_k(t) (Zomorodian and
    Carlsson).

    Over Z and Z/m the reduction of d_{k+1} runs over QQ, whose values
    stay ints while every pivot divides.  `lead_stop` is the first value
    index of a column of d_{k+1} whose lead (entry at its lowest row) is
    not +-1.  Over ZZ a later column could swap with that one and leave
    the gcd of both leads there, so the stages before it would read as
    free: this reduction stays over QQ.
    Below it that reduction divides only by unit leads, so its R spans
    the lattice d_{k+1} does, and a pair dying there keeps R_j, an
    integer column leading with +-1; a pair dying from `lead_stop` on
    keeps z_p.  The reduction of d_k runs over ZZ (`column_reduce`), so the
    z_p are an echelon Z-basis of the integer cycles on the kept rows,
    and with the R_j, whose unit leads clear a cycle's entries at their
    rows from the top down, the table is an echelon Z-basis of Z_k: a
    cycle's entry at its lowest row is a multiple of the table's lead
    there.  So an integer cycle clears against the table by integer
    multiples, through columns of lower rows only, and the bases above
    are bases of the lattices.  Below `lead_stop`, B_k(t) is spanned by
    part of that basis of Z_k(t), so H_k(t) is free on the generators,
    and so is every image of H_k(s) -> H_k(t), spanned by the generators
    of s alive at t: the bars are those over Q.  The unit-lead test is
    sufficient, not necessary: the column (1, 2) spans a saturated
    lattice, yet its lead is 2.  Torsion always fails it.  A stage from
    `lead_stop` on is the table and one Smith normal form of a small
    core (`_Stage`; Dumas, Heckenbach, Saunders and Welker).  Over Z/m
    the stages below `lead_stop` are free and finite, hence zero, so no
    value before it has homology, and every stage's object is torsion
    only; over a field no stage has a core (lead_stop = the number of
    values).

    The stages (`stages[i]` the stage of segment i, `stages[0]` the empty
    complex) and the module are built on first use, so a diagram read off
    the bars builds neither.  The module's connecting maps share one
    record of cleared chains, so a generator that several stages share
    is cleared once; an interleaving reuses the stages.  Only the
    caller holds them.
    """

    def __init__(self, K: FilteredComplex, k: int, coeffs: str):
        if k < 0:
            raise FiltrationError("homology degree must be nonnegative")
        self.complex, self.k, self.coeffs = K, k, coeffs
        self.ring = parse_coeffs(coeffs)
        kind, F, _ = self.ring
        m = F if kind == "Zm" else 0
        self.field = F = QQ if m else F
        ks, above = (_cells(K, d, m) for d in (k, k + 1))
        self.k_simplices, self.born = [s for s, _ in ks], [i for _, i in ks]
        n, integral = len(K.critical_values), kind != "F"
        R, lows, _ = column_reduce(F, _boundary_columns(self.k_simplices, [s for s, _ in above],
                                                       F.coerce, m))
        self.death = {p: above[j][1] for p, j in lows.items()}
        self.lead_stop = min((self.death[p] for p, j in lows.items() if abs(R[j][p]) != 1),
                             default=n) if integral else n
        table = {p: R[j] for p, j in lows.items() if self.death[p] < self.lead_stop}
        kept = [p for p in range(len(ks)) if p not in table]
        below = K.simplices_of_dim(k - 1)
        if m:
            below = [(s, 0) for s in below] + [(t, 1) for t in K.simplices_of_dim(k - 2)]
        cols = _boundary_columns(below, [ks[p][0] for p in kept], F.coerce, m)
        R, _, V = column_reduce(ZZ if integral else F, cols, track=True)
        table.update((p, {kept[i]: x for i, x in v.items()})
                     for p, c, v in zip(kept, R, V) if not c)
        self.table = dict(sorted(table.items()))
        self.index = {s: i for i, s in enumerate(self.k_simplices)}
        self.chains = {p: {self.k_simplices[i]: x for i, x in c.items()}
                       for p, c in self.table.items()}
        # the columns of the stages' cores: the boundaries of the
        # (k+1)-cells from lead_stop on, cleared against the table
        late = [e for e in above if self.lead_stop <= e[1]]
        cols = _boundary_columns(self.k_simplices, [s for s, _ in late], int, m)
        self.core_columns = [(i, dict(_clear(F, c, self.table)))
                             for (_, i), c in zip(late, cols)]

    @cached_property
    def stages(self) -> tuple:
        from .pmodule import segment_reps  # the barcode path loads no module layer

        return tuple(_Stage(self, at=t) for t in segment_reps(self.complex.critical_values))

    @cached_property
    def module(self) -> ConstructibleModule:
        from .pmodule import ConstructibleModule

        stages, cleared = self.stages, {}  # a chain shared by stages is cleared once
        mors = tuple(make_mor(a.obj, b.obj, _induced_payload(a, b, cleared))
                     for a, b in zip(stages, stages[1:]))
        return ConstructibleModule(stages[0].obj.cat, self.complex.critical_values,
                                   tuple(st.obj for st in stages), mors)


class _Stage:
    """Homology of one sublevel complex in one degree, coordinatized.

    Exposes the homology object, its canonical generators' cycles as
    chains {k-cell: coefficient} (`gen_reps`; over Z/m, cycles of the
    mapping cone of m), and `coords` of any cycle chain of the stage in
    those generators.

    The table columns born by the stage are a basis of its cycles, and
    `coords` clears a chain against the table.  The rows of the core are
    those columns that no pair dying before `lead_stop` (or the stage)
    kills, as that pair's column is its R_j.  Below `lead_stop` they are
    the generators, and a coordinate is the multiple of a generator's
    column that clearing subtracts.  From `lead_stop` on the core's
    columns are the cleared boundaries of the (k+1)-cells born since
    (`H.core_columns`), and its Smith normal form U C V = D gives the
    rest: the object is its `cokernel`, and each `canonical` generator
    (i, order) combines the table chains by column i of U^-1 and has
    row i of U, applied to the core rows of the cleared chain, mod the
    order if torsion, as coordinate (`_core`: those rows and orders).
    """

    def __init__(self, H: PersistentHomology, at):
        kind, _, cat = H.ring
        n = bisect_right(H.complex.critical_values, at)
        m = bisect_left(H.born, n)
        self._index, self.k_simplices = H.index, H.k_simplices[:m]
        self._clearing = H.field, H.table  # not H: no cycle through H.stages
        dead = min(n, H.lead_stop)  # a pair dying before this kills its row
        self._gens = [p for p in H.table if p < m and H.death.get(p, dead) >= dead]
        self.gen_reps = [H.chains[p] for p in self._gens]
        self._core = None
        if n <= H.lead_stop:
            self.obj = make_obj(cat, len(self._gens) if kind == "F" else (len(self._gens), ()))
            return
        cols = [c for i, c in H.core_columns if i < n]
        s = smith_normal_form(Mat.from_rows([[c.get(p, 0) for c in cols] for p in self._gens],
                                            len(cols)))
        canonical = s.canonical
        self._core = [({p: a for p, a in zip(self._gens, s.U.data[i]) if a}, d)
                      for i, d in canonical]
        self.gen_reps = [_combination(zip(s.Uinv.col(i), self.gen_reps)) for i, _ in canonical]
        self.obj = make_obj(cat, s.cokernel)

    def coords(self, chain: dict, cleared: dict | None = None) -> list:
        """Canonical homology coordinates of a cycle chain of this stage;
        FiltrationError for a chain with a cell outside the stage or
        one that is not a cycle.  A chain clears against the table alike
        at every stage, and `cleared` keeps that, by id, for other stages
        of H."""
        F, table = self._clearing
        cleared = {} if cleared is None else cleared
        if id(chain) not in cleared:
            at = {self._index.get(s, len(self._index)): v for s, v in chain.items()}
            c = {i: x for i, v in at.items() if (x := F.coerce(v))}
            cleared[id(chain)] = chain, max(at, default=-1), dict(_clear(F, c, table)), c
        _, top, steps, rest = cleared[id(chain)]  # the chain keeps its id unique
        if top >= len(self.k_simplices):
            raise FiltrationError("chain has a simplex outside this stage")
        if rest:
            raise FiltrationError("chain is not a cycle of this stage")
        if self._core is None:
            return [steps.get(p, F.zero) for p in self._gens]
        out = []
        for row, d in self._core:
            y = sum(a * steps.get(p, 0) for p, a in row.items())
            out.append(y % d if d else y)
        return out


def _combination(terms) -> dict:
    """The chain sum of a * chain over the (a, chain) pairs `terms`."""
    out = Counter()
    for a, chain in terms:
        for s, x in chain.items():
            out[s] += a * x
    return {s: x for s, x in out.items() if x}


def _induced_payload(src: _Stage, tgt: _Stage, cleared: dict | None = None):
    """Matrix of the inclusion-induced map in canonical coordinates."""
    return Mat.from_cols([tgt.coords(g, cleared) for g in src.gen_reps], nrows=len(tgt.gen_reps))


def persistent_homology(K: FilteredComplex, k: int, coeffs: str) -> PersistentHomology:
    """Degree-k persistent homology of the sublevel filtration.

    Field coefficients give vector-space objects, 'Z' gives finitely
    generated abelian groups, 'Zm:<m>' gives finite abelian groups (the
    integer homology of the mapping cone of m).  Degrees above the
    complex dimension give zero modules.  The one reduction of the whole
    filtration (or of the cone) runs here; each stage is read off
    it once, below the first critical value and at every one, when the
    module is first asked for.
    """
    return PersistentHomology(K, k, coeffs)


def persistent_module(K: FilteredComplex, k: int, coeffs: str) -> ConstructibleModule:
    """The module of `persistent_homology(K, k, coeffs)`."""
    return persistent_homology(K, k, coeffs).module


def barcode(H: PersistentHomology) -> dict | None:
    """Degree-k bars of H's filtration as {(i, j): multiplicity} on the
    grid `K.critical_values`, 1-based, j = n + 1 for an infinite bar; None
    over Z or Z/m where a lead is not a unit.  They are the pairs of H's
    reduction and its rows that never die, less the bars of length zero.
    The module is the sum of their intervals (over Z and Z/m, by the
    proof in `PersistentHomology`), so Y_A counts them with class `line`
    (`Z` over Z) and Y_B with `dim` (`rank`).  A Z/m module carries no
    free homology, so over Z/m the bars come back only for the zero
    module, and there are none.
    """
    n = len(H.complex.critical_values)
    if H.lead_stop < n:
        return None
    ends = [(H.born[p], H.death.get(p, n)) for p in H.table]
    return dict(Counter((b + 1, d + 1) for b, d in ends if b < d))


def _bars_type_A(bars: dict, cat, values) -> DiagramGrid:
    """Y_A on the grid `values` of the sum of the intervals `bars`, as
    `barcode` gives them: a bar of multiplicity m has the class of m
    copies of the rank-one object of `cat`."""
    cells = {c: iso_class(make_obj(cat, (m, ()) if cat == ab() else m))
             for c, m in bars.items()}
    return DiagramGrid.make("A", cat, values, cells, role="diagram")


def filtration_type_A(H: PersistentHomology) -> DiagramGrid:
    """The type A diagram of `H.module`: read off the bars where `barcode`
    decides, else `type_A_diagram(H.module)`, so the stages are built
    only then or when the caller asks for them."""
    bars = barcode(H)
    if bars is None:  # a non-unit lead over Z or Z/m
        return type_A_diagram(H.module)
    return _bars_type_A(bars, H.ring[2], H.complex.critical_values)


# ---------------------------------------------------------------------------
# Connected components: pi_0 read off the H_0 bars
# ---------------------------------------------------------------------------

def component_type_A(K: FilteredComplex) -> DiagramGrid:
    """The type A diagram of pi_0 of the sublevel filtration, valued in
    finite sets under disjoint union (a merge tree; it has no type B
    diagram).

    The image of pi_0(K_s) -> pi_0(K_t) has as many points as the rank
    of H_0(K_s) -> H_0(K_t) over any field: both count the components of
    K_t that meet K_s.  Moebius inversion is the same on both rank
    functions, so the diagram is the H_0 barcode (Cohen-Steiner,
    Edelsbrunner and Harer), here over F_2, with class [pt] per bar.
    """
    return _bars_type_A(barcode(persistent_homology(K, 0, "Fp:2")), finset(),
                        K.critical_values)


# ---------------------------------------------------------------------------
# Perturbation and the induced interleaving
# ---------------------------------------------------------------------------

def perturb(K: FilteredComplex, eps, seed: int) -> FilteredComplex:
    """Move every filtration value by a seeded rational offset in [-eps, eps].

    Face-value monotonicity is restored by propagating values upward
    from faces, which keeps every value within eps of the original.
    """
    eps = Fraction(eps)
    if eps < 0:
        raise FiltrationError("perturbation needs eps >= 0")
    rng = random.Random(seed)
    # offsets on a coarse rational lattice keep the number of distinct
    # perturbed values (hence homology stages) small
    index = {s: v + eps * Fraction(rng.randint(-4, 4), 4)
             for s, v in zip(K.simplices, K.values)}
    for s in K.simplices:  # dimension order: faces are already repaired
        for f in facets(s):
            if index[f] > index[s]:
                index[s] = index[f]
    return make_complex(index.items())


def interleaving_from_perturbation(H: PersistentHomology, H2: PersistentHomology,
                                   eps) -> InterleavingPair:
    """The canonical eps-interleaving of H.module and H2.module, for
    filtrations of the same complex whose values differ by at most eps,
    in the same degree and with the same coefficients.

    Both directions are inclusions of sublevel complexes, so the
    morphism families are the induced maps between the stages of H and
    H2 in homology coordinates.
    """
    from .pmodule import InterleavingPair, _segments, expected_phi_grid, segment_reps

    eps = Fraction(eps)
    if (H.k, H.coeffs) != (H2.k, H2.coeffs):
        raise FiltrationError("interleaving needs the same degree and coefficients")
    if H.complex.simplices != H2.complex.simplices:
        raise FiltrationError("interleaving needs the same underlying complex")
    if any(abs(a - b) > eps for a, b in zip(H.complex.values, H2.complex.values)):
        raise FiltrationError("filtration values differ by more than eps")

    def family(src: PersistentHomology, tgt: PersistentHomology):
        grid = expected_phi_grid(src.module, tgt.module, eps)
        reps = segment_reps(grid)
        mors, cleared = [], {}  # each source chain is cleared against tgt's table once
        for i, j in zip(_segments(src.module.values, reps),
                        _segments(tgt.module.values, [r + eps for r in reps])):
            a, b = src.stages[i], tgt.stages[j]
            mors.append(make_mor(a.obj, b.obj, _induced_payload(a, b, cleared)))
        return grid, tuple(mors)

    pg, phi = family(H, H2)
    sg, psi = family(H2, H)
    return InterleavingPair(eps, pg, phi, sg, psi)
