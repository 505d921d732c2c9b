"""Diagrams: inclusion-exclusion inversion, cumulation, order, positivity."""

import random
from fractions import Fraction as Fr
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gpd.diagram
import gpd.grothendieck
from gpd.categories import ab, finab, finset, identity_obj, make_mor, make_obj, repn, vect
from gpd.diagram import (
    DiagramError,
    DiagramGrid,
    cumulate,
    cumulative_at,
    cumulative_at_cell,
    diagram_leq,
    mobius_invert,
    positivity_check,
    type_A_diagram,
    type_B_diagram,
    type_B_from_A,
)
from gpd.exact import QQ, PrimeField
from gpd.grothendieck import GroupElem, NoBGroupError, _make_elem, add, zero_elem
from gpd.homology import (
    filtration_type_A,
    make_complex,
    parse_filtration,
    persistent_homology,
    persistent_module,
    perturb,
)
from gpd.matrix import Mat
from gpd.pmodule import ConstructibleModule, dX_A

from generators import (ALL_CATS, grid_complex, random_interval_sum_module, random_module,
                        splice_steps)
from oracles import (
    classical_diagram_gf2,
    component_module,
    cumulative_at_oracle,
    cumulative_oracle,
    full_grid_type_A,
    positivity_witnesses_oracle,
    type_B_oracle,
)

DATA = Path(__file__).resolve().parent.parent / "src" / "gpd" / "data"

GF2 = PrimeField(2)


def elem(group, cat, **coeffs):
    items = tuple(sorted(coeffs.items()))
    return GroupElem(group, cat, tuple((k, v) for k, v in items if v))


def random_B_diagram(cat, rng, nvals=4):
    grid = tuple(Fr(v) for v in sorted(rng.sample(range(0, 12), nvals)))
    cells = {}
    for i in range(1, nvals + 1):
        for j in range(i + 1, nvals + 2):
            if rng.random() < 0.6:
                cells[(i, j)] = elem("B", cat, dim=rng.randint(-2, 3))
    return DiagramGrid.make("B", cat, grid, cells, role="diagram")


# (group, category, basis keys) of the groups random diagrams live in
DIAGRAM_GROUPS = [
    ("B", vect(QQ), ["dim"]),
    ("B", finab(), [2, 3]),
    ("A", finab(), [("t", 2, 1), ("t", 3, 2)]),
    ("A", ab(), ["Z", ("t", 2, 1)]),
    ("A", vect(GF2), ["line"]),
]
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


@st.composite
def diagram_grids(draw, group, cat, keys, denominators):
    """A diagram on grid values with the given denominators (repeats
    collapse) and random signed labels on a random subset of its cells."""
    grid = sorted({Fr(draw(st.integers(0, 5)) * d + draw(st.integers(1, d - 1)) if d > 1
                      else draw(st.integers(0, 5)), d) for d in denominators})
    n = len(grid)
    coeffs = st.dictionaries(st.sampled_from(keys), st.integers(-2, 3), max_size=len(keys))
    cells = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 2):
            if draw(st.booleans()):
                cells[(i, j)] = _make_elem(group, cat, draw(coeffs))
    return DiagramGrid.make(group, cat, grid, cells, role="diagram")


@st.composite
def diagram_pairs(draw):
    """Two diagrams in one group on up to five grid values each, with
    small mixed denominators or pairwise coprime ones across both grids."""
    group, cat, keys = draw(st.sampled_from(DIAGRAM_GROUPS))
    n1, n2 = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    if draw(st.booleans()):
        dens = draw(st.permutations(PRIMES))[:n1 + n2]
    else:
        dens = draw(st.lists(st.integers(1, 6), min_size=n1 + n2, max_size=n1 + n2))
    return (draw(diagram_grids(group, cat, keys, dens[:n1])),
            draw(diagram_grids(group, cat, keys, dens[n1:])))


@settings(max_examples=200, deadline=None)
@given(diagram_pairs(), st.data())
def test_cumulative_table_matches_cell_by_cell_oracle(pair, data):
    Y = pair[0]
    n = Y.n
    expected = {(i, j): cumulative_oracle(Y, i, j) for i in range(1, n + 1)
                for j in range(i + 1, n + 2)}
    for (i, j), val in expected.items():
        assert cumulative_at_cell(Y, i, j) == val
    assert cumulate(Y).as_dict() == {k: v for k, v in expected.items() if not v.is_zero()}
    rationals = st.fractions(min_value=-1, max_value=6, max_denominator=12)
    p = data.draw(rationals)
    q = data.draw(st.none() | rationals.filter(lambda q: q > p))
    assert cumulative_at(Y, p, q) == cumulative_at_oracle(Y, p, q)


@st.composite
def sparse_diagram_grids(draw):
    """A diagram on 20-60 grid values whose support holds 5-50% of the
    cells, with random signed labels, in one of the groups above."""
    group, cat, keys = draw(st.sampled_from(DIAGRAM_GROUPS))
    n, density = draw(st.integers(20, 60)), draw(st.floats(0.05, 0.5))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    cells = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 2)]
    support = {c: _make_elem(group, cat, {rng.choice(keys): rng.choice([-2, -1, 1, 2, 3])})
               for c in rng.sample(cells, max(1, round(density * len(cells))))}
    grid = sorted(rng.sample(range(4 * n), n))
    return DiagramGrid.make(group, cat, tuple(Fr(t, 3) for t in grid), support, role="diagram")


@settings(max_examples=20, deadline=None)
@given(sparse_diagram_grids(), st.randoms(use_true_random=False))
def test_cumulative_table_matches_the_oracle_on_large_sparse_grids(Y, rng):
    """The support table on grids where it is much smaller than the grid:
    every cell of `cumulate` inverts back to Y, and the support cells,
    their neighbours and random cells match the cell-by-cell oracle."""
    n = Y.n
    assert mobius_invert(cumulate(Y)).cells == Y.cells
    cells = {(i, j) for i in range(n + 1) for j in range(i + 1, n + 2)}
    near = {(h + a, k + b) for (h, k), _ in Y.cells for a in (-1, 0, 1) for b in (-1, 0, 1)}
    for i, j in sorted(cells & near) + rng.sample(sorted(cells), 50):
        assert cumulative_at_cell(Y, i, j) == cumulative_oracle(Y, i, j)


def test_cumulative_table_adds_on_the_support_only(monkeypatch):
    """A 60-value grid with 5 support cells: the table has at most 5 x 5
    entries, and at most one group operation is made per entry (the
    full table made three additions per grid cell, 5,490 here)."""
    count = [0]

    def counting(f):
        def wrapped(*args):
            count[0] += 1
            return f(*args)
        return wrapped

    for name in ("add", "sub", "_make_elem"):
        wrapped = counting(getattr(gpd.grothendieck, name))
        for mod in (gpd.grothendieck, gpd.diagram):
            monkeypatch.setattr(mod, name, wrapped, raising=False)
    rng = random.Random(3)
    cat = vect(QQ)
    cells = {(i, i + rng.randint(1, 61 - i)): elem("B", cat, dim=1)
             for i in rng.sample(range(1, 61), 5)}
    Y = DiagramGrid.make("B", cat, tuple(Fr(t) for t in range(60)), cells, role="diagram")
    count[0] = 0
    Y.cumulative
    assert 0 < count[0] <= 36
    rows, cols, _ = Y.cumulative
    assert len(rows) == len(cols) == 5


def test_cumulative_at_cell_domain():
    Y = random_B_diagram(vect(QQ), random.Random(5), nvals=3)
    for j in range(1, 5):
        assert cumulative_at_cell(Y, 0, j).is_zero()
    assert cumulative_at_cell(Y, 3, 4) == cumulative_oracle(Y, 3, 4)
    for i, j in [(1, 1), (2, 1), (3, 3), (1, 5), (4, 5), (-1, 2)]:
        with pytest.raises(DiagramError, match="outside the grid"):
            cumulative_at_cell(Y, i, j)


def test_round_trip_inversion():
    rng = random.Random(41)
    cat = vect(QQ)
    for _ in range(30):
        Y = random_B_diagram(cat, rng, nvals=rng.randint(1, 5))
        X = cumulate(Y)
        assert mobius_invert(X).cells == Y.cells
    # and the other direction, starting from cumulative data
    for _ in range(10):
        Y0 = random_B_diagram(cat, rng)
        X = cumulate(Y0)
        assert cumulate(mobius_invert(X)).cells == X.cells


def test_roles_are_enforced():
    cat = vect(QQ)
    Y = random_B_diagram(cat, random.Random(2))
    with pytest.raises(DiagramError):
        mobius_invert(Y)
    with pytest.raises(DiagramError):
        cumulate(cumulate(Y))


def test_diagram_recovers_interval_multiplicities():
    rng = random.Random(43)
    for _ in range(15):
        F, bars = random_interval_sum_module(GF2, rng, nvals=4, nints=rng.randint(1, 4))
        Y = type_A_diagram(F)
        got = {k: v.mult() for k, v in Y.cells}
        assert got == {k: {"line": m} for k, m in bars.items()}


def test_diagram_matches_quadrant_count_oracle():
    rng = random.Random(47)
    cat = vect(GF2)
    for _ in range(15):
        F = random_module(cat, rng, max_values=4, max_size=3)
        Y = type_A_diagram(F)
        dims = [o.data for o in F.objects[1:]]
        maps = [m.payload.to_lists() for m in F.morphisms[1:]]
        expected = classical_diagram_gf2(dims, maps)
        got = {k: v.mult()["line"] for k, v in Y.cells}
        assert got == expected


def diagram_sum(parts, grid) -> DiagramGrid:
    """The cellwise sum of diagrams in one group, each re-indexed on
    `grid`, which holds all of their grids."""
    n, index = len(grid), {v: k for k, v in enumerate(grid, start=1)}
    cells = {}
    for d in parts:
        for (i, j), val in d.cells:
            key = (index[d.grid[i - 1]], n + 1 if j == d.n + 1 else index[d.grid[j - 1]])
            cells[key] = add(cells[key], val) if key in cells else val
    return DiagramGrid.make(d.group, d.cat, grid, cells, role=d.role)


def disjoint_union(K, L):
    """K and L side by side, L's vertices numbered after K's."""
    shift = len(K.simplices_of_dim(0))
    return make_complex([*zip(K.simplices, K.values),
                         *((tuple(v + shift for v in s), x) for s, x in zip(L.simplices, L.values))])


def test_diagram_additive_under_disjoint_union():
    """H_k(K + L) = H_k(K) (+) H_k(L) at every stage, and the maps are
    the sums too, so every diagram of the union is the sum of those of
    the parts on the merged grid: type A from image classes and from
    `filtration_type_A`, and type B."""
    K, L = (perturb(parse_filtration((DATA / name).read_text()), Fr(1, 4), seed=5)
            for name in ("torus.flt", "klein_bottle.flt"))
    U = disjoint_union(K, L)
    for coeffs in ["Z", "Q", "Fp:2", "Zm:4"]:
        for k in range(3):
            H = persistent_homology(U, k, coeffs)
            parts = [filtration_type_A(persistent_homology(X, k, coeffs)) for X in (K, L)]
            YA = type_A_diagram(H.module)
            assert YA == filtration_type_A(H) == diagram_sum(parts, U.critical_values)
            assert type_B_from_A(YA) == \
                diagram_sum([type_B_from_A(Y) for Y in parts], U.critical_values)


def test_cumulative_at_snaps_rational_endpoints():
    F, bars = random_interval_sum_module(GF2, random.Random(59), nvals=3, nints=2)
    Y = type_A_diagram(F)
    X, z = dX_A(F).as_dict(), zero_elem("A", F.cat)
    n = F.n
    for i in range(1, n + 1):
        for j in range(i + 1, n + 2):
            p = F.values[i - 1]
            q = None if j == n + 1 else F.values[j - 1]
            assert cumulative_at(Y, p, q) == X.get((i, j), z)
    # below the grid everything vanishes
    assert cumulative_at(Y, F.values[0] - 1).is_zero()
    # endpoints strictly inside a segment snap to the surrounding cell
    mid = (F.values[0] + F.values[1]) / 2
    assert cumulative_at(Y, mid, None) == X.get((1, n + 1), z)


@pytest.mark.parametrize("cat", [c for c in ALL_CATS if c.abelian],
                         ids=lambda c: f"{c.kind}-{getattr(c.field, 'name', '')}")
def test_type_B_is_quotient_of_type_A(cat):
    """Y_B = pi(Y_A) agrees with classifying every cell directly into B."""
    rng = random.Random(67)
    for _ in range(8):
        F = random_module(cat, rng, max_values=4, max_size=3)
        assert type_B_diagram(F) == type_B_oracle(F)
        assert type_B_from_A(dX_A(F)) == cumulate(type_B_oracle(F))


@pytest.mark.parametrize("name", ["torus.flt", "klein_bottle.flt"])
def test_type_B_of_bundled_filtrations_matches_oracle(name):
    K = parse_filtration((DATA / name).read_text())
    for coeffs in ["Z", "Q", "Fp:2", "Zm:4"]:
        for k in range(3):
            F = persistent_module(K, k, coeffs)
            assert type_B_diagram(F) == type_B_oracle(F), (name, coeffs, k)


@pytest.mark.parametrize("cat", ALL_CATS, ids=lambda c: f"{c.kind}-{getattr(c.field, 'name', '')}")
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(0, 4))
def test_essential_grid_diagram_matches_full_grid_oracle(cat, seed, k):
    """Steps from an object to itself spliced into a random module, some
    isomorphisms and some not: the essential-grid inversion agrees with
    the full-grid inversion (type A) and with classifying every full-grid
    cell into B."""
    rng = random.Random(seed)
    F = splice_steps(random_module(cat, rng), rng, k)
    assert type_A_diagram(F) == full_grid_type_A(F)
    if cat.abelian:
        assert type_B_diagram(F) == type_B_oracle(F)


@pytest.mark.parametrize("name,coeffs", [("torus.flt", "Z"), ("torus.flt", "Zm:4"),
                                         ("klein_bottle.flt", "Z"),
                                         ("klein_bottle.flt", "Zm:4"),
                                         ("torus.flt", "components")])
def test_essential_grid_diagram_of_perturbed_bundled_data(name, coeffs):
    K = parse_filtration((DATA / name).read_text())
    for seed in (1, 2):
        K2 = perturb(K, Fr(1, 8), seed=seed)
        F = component_module(K2) if coeffs == "components" else persistent_module(K2, 1, coeffs)
        assert type_A_diagram(F) == full_grid_type_A(F), (name, coeffs, seed)
        if F.cat.abelian:
            assert type_B_diagram(F) == type_B_oracle(F), (name, coeffs, seed)


def test_image_classes_do_not_grow_with_isomorphism_steps(monkeypatch):
    """Identity steps add values where the module does not change; the
    image-class pass runs on the essential grid, so its work stays put
    (on the full grid it grows quadratically in the number of steps)."""
    import gpd.pmodule as pmodule

    calls = []
    real = pmodule.image_iso_class
    monkeypatch.setattr(pmodule, "image_iso_class", lambda f: calls.append(1) or real(f))

    F = persistent_module(parse_filtration((DATA / "torus.flt").read_text()), 1, "Z")
    G = splice_steps(F, random.Random(3), 8, kinds=("identity",))
    assert G.n == F.n + 8
    counts = []
    for M in (F, G):
        calls.clear()
        type_A_diagram(M)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_quotient_map_rejects_finset_and_type_B_grids():
    def zero_module(cat):
        return ConstructibleModule(cat, (), (identity_obj(cat),), ())

    # finite sets have no quotient group, even for a module with no cells
    with pytest.raises(NoBGroupError):
        type_B_diagram(zero_module(finset()))
    with pytest.raises(DiagramError):
        type_B_from_A(type_B_diagram(zero_module(vect(QQ))))


def test_quotient_group_diagram_positive_where_split_diagram_is_not():
    """e -> Z/4 -> Z/2 with the quotient map: the split-group diagram
    has a negative cell, the quotient-group diagram does not."""
    cat = finab()
    e = make_obj(cat, (0, ()))
    z4 = make_obj(cat, (0, (4,)))
    z2 = make_obj(cat, (0, (2,)))
    F = ConstructibleModule(
        cat, (Fr(0), Fr(1)),
        (e, z4, z2),
        (make_mor(e, z4, Mat.zero(1, 0)), make_mor(z4, z2, Mat.from_rows([[1]], ncols=1))))
    YA = type_A_diagram(F)
    assert any(c < 0 for _, v in YA.cells for _, c in v.coeffs)
    YB = type_B_diagram(F)
    assert all(c >= 0 for _, v in YB.cells for _, c in v.coeffs)
    report = positivity_check(F, YB)
    assert report.ok


@pytest.mark.parametrize("cat", [vect(QQ), vect(GF2), ab(), finab(), repn(QQ), repn(PrimeField(5))],
                         ids=lambda c: f"{c.kind}-{getattr(c.field, 'name', '')}")
def test_positivity_with_subquotient_witnesses(cat):
    rng = random.Random(61)
    for _ in range(8):
        F = random_module(cat, rng, max_values=3, max_size=3)
        report = positivity_check(F)
        assert report.matches, f"witnesses disagree for {F}"
        assert report.ok
        assert report.negative_cells == ()


def _torsion_filtration(name, seed):
    if name == "grid":
        return grid_complex(4 + seed, seed, klein=True)
    return perturb(parse_filtration((DATA / name).read_text()), Fr(1, 8), seed)


@pytest.mark.parametrize("coeffs", ["Z", "Zm:4", "Q"])
@pytest.mark.parametrize("name,seed", [("torus.flt", 1), ("torus.flt", 2),
                                       ("klein_bottle.flt", 1), ("klein_bottle.flt", 2),
                                       ("grid", 0), ("grid", 1)])
def test_positivity_witnesses_match_the_subquotient_oracle(name, seed, coeffs):
    """H_1 of the bundled surfaces perturbed and of grid Klein bottles 4
    and 5: each witness, (im m1 cap ker n) / (im m0 cap ker n) read off
    the kernel of n m, equals the class of the subquotient that
    `positivity_witnesses_oracle` builds from two subobject intersections."""
    F = persistent_module(_torsion_filtration(name, seed), 1, coeffs)
    report = positivity_check(F)
    assert report.ok
    assert report.witnesses == positivity_witnesses_oracle(F)
    if coeffs == "Zm:4":  # witnesses with torsion: a class of length 2 at the prime 2
        assert any(dict(v.coeffs).get(2, 0) for _, v in report.witnesses)


def test_diagram_leq_is_cumulative_comparison():
    cat = vect(QQ)
    one = elem("B", cat, dim=1)
    lo = DiagramGrid.make("B", cat, (Fr(0), Fr(2)), {(1, 2): one}, role="diagram")
    hi = DiagramGrid.make("B", cat, (Fr(0), Fr(3)), {(1, 2): one}, role="diagram")
    # {[0,2): 1} -> {[0,3): 1}: the longer bar dominates over [0,2)
    assert diagram_leq(lo, hi)
    # {[0,3): 1} -> {[0,2): 1}: nothing in lo covers [0,3)
    assert not diagram_leq(hi, lo)
    assert diagram_leq(lo, lo)
    assert (1, 3) not in lo.as_dict()
