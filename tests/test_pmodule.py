"""Constructible modules: segments, image classes, interleavings."""

import random
from fractions import Fraction as Fr
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpd import categories
from gpd.categories import Mor, compose, identity_mor, identity_obj, make_mor, make_obj, vect
from gpd.diagram import cumulative_at, type_A_diagram
from gpd.exact import QQ
from gpd.homology import (
    interleaving_from_perturbation,
    parse_filtration,
    persistent_homology,
    perturb,
)
from gpd.matrix import Mat
from gpd.pmodule import (
    ConstructibleModule,
    InterleavingGridError,
    InterleavingPair,
    ModuleError,
    check_interleaving,
    composite_mor,
    dX_A,
    expected_phi_grid,
    segment_reps,
)

from generators import ALL_CATS, random_module, random_mor
from oracles import check_interleaving_oracle


def _with(pair, **changes):
    """A copy of the interleaving pair with some fields changed."""
    fields = {name: getattr(pair, name) for name in ("eps", "phi_grid", "phi", "psi_grid", "psi")}
    return InterleavingPair(**{**fields, **changes})


DATA = Path(__file__).resolve().parent.parent / "src" / "gpd" / "data"


def shift(F: ConstructibleModule, eps) -> ConstructibleModule:
    """Precompose with r -> r + eps: the result changes at the values S - eps."""
    eps = Fr(eps)
    return ConstructibleModule(F.cat, tuple(v - eps for v in F.values),
                               F.objects, F.morphisms)


def identity_interleaving(F: ConstructibleModule) -> InterleavingPair:
    grid = expected_phi_grid(F, F, Fr(0))
    mors = tuple(identity_mor(F.objects[F.segment(t)]) for t in segment_reps(grid))
    return InterleavingPair(Fr(0), grid, mors, grid, mors)


def interval_module(field, values, i, j):
    """The indicator interval [s_i, s_j) as a one-dimensional module."""
    cat = vect(field)
    n = len(values)
    objs = [make_obj(cat, 0)]
    mors = []
    for k in range(1, n + 1):
        dim = 1 if i <= k < j else 0
        objs.append(make_obj(cat, dim))
        prev = objs[-2].data
        if dim and prev:
            payload = Mat.from_rows([[field.one]], ncols=1)
        else:
            payload = Mat.zero(dim, prev, zero=field.zero)
        mors.append(make_mor(objs[-2], objs[-1], payload))
    return ConstructibleModule(cat, tuple(Fr(v) for v in values), tuple(objs), tuple(mors))


def test_validation_rejects_bad_data():
    cat = vect(QQ)
    e = make_obj(cat, 0)
    v = make_obj(cat, 1)
    m = make_mor(e, v, Mat.zero(1, 0, zero=Fr(0)))
    with pytest.raises(ModuleError):
        ConstructibleModule(cat, (Fr(1), Fr(1)), (e, v, v), (m, identity_mor(v)))
    with pytest.raises(ModuleError):
        ConstructibleModule(cat, (Fr(1),), (v, v), (identity_mor(v),))
    with pytest.raises(ModuleError):
        ConstructibleModule(cat, (1.0,), (e, v), (m,))


def morphism_at(F: ConstructibleModule, p, q) -> Mor:
    return composite_mor(F, F.segment(p), F.segment(q))


def test_evaluate_snaps_to_segments():
    F = interval_module(QQ, [0, 1, 2], 1, 3)  # alive on [0, 2)
    assert morphism_at(F, Fr(0), Fr(3, 2)).payload == Mat.from_rows([[Fr(1)]], ncols=1)
    assert morphism_at(F, Fr(0), Fr(2)).tgt.data == 0
    assert morphism_at(F, Fr(-1), Fr(0)).src.data == 0
    assert morphism_at(F, Fr(1, 2), Fr(1, 2)) == identity_mor(F.objects[F.segment(Fr(1, 2))])


def test_shift_moves_critical_values():
    F = interval_module(QQ, [0, 2], 1, 2)
    G = shift(F, Fr(1, 2))
    assert G.values == (Fr(-1, 2), Fr(3, 2))
    assert G.objects[G.segment(Fr(-1, 2))].data == F.objects[F.segment(Fr(0))].data == 1


def test_dX_A_of_interval_module():
    F = interval_module(QQ, [0, 1, 2], 1, 3)  # alive on [0, 2)
    X = dX_A(F).as_dict()
    assert X[(1, 2)].mult() == {"line": 1}
    assert X[(1, 3)].mult() == {"line": 1}
    assert (1, 4) not in X
    assert X[(2, 3)].mult() == {"line": 1}
    assert (3, 4) not in X


def test_image_classes_snap_rational_endpoints():
    F = interval_module(QQ, [0, 1, 2], 1, 3)
    Y = type_A_diagram(F)
    assert cumulative_at(Y, Fr(1, 2), Fr(3, 2)).mult() == {"line": 1}
    assert cumulative_at(Y, Fr(0), Fr(2)).mult() == {"line": 1}  # [0, 2) excludes 2
    assert cumulative_at(Y, Fr(0), Fr(5, 2)).mult() == {}
    assert cumulative_at(Y, Fr(0)).mult() == {}  # unbounded interval dies at 2


def test_identity_interleaving_checks():
    rng = random.Random(5)
    for cat in ALL_CATS:
        F = random_module(cat, rng)
        assert check_interleaving(F, F, identity_interleaving(F))
        # the zero module: no critical values, a single segment
        Z = ConstructibleModule(cat, (), (identity_obj(cat),), ())
        assert check_interleaving(Z, Z, identity_interleaving(Z))


def test_interleaving_of_shifted_intervals():
    # [0, 2) and [1, 3): interleaved at eps = 1 via the evaluation maps
    F = interval_module(QQ, [0, 1, 2, 3], 1, 3)
    G = interval_module(QQ, [0, 1, 2, 3], 2, 4)
    eps = Fr(1)

    def family(A, B):
        grid = expected_phi_grid(A, B, eps)
        mors = []
        for t in (grid[0] - 1,) + grid:
            a, b = A.objects[A.segment(t)], B.objects[B.segment(t + eps)]
            if a.data and b.data:
                payload = Mat.from_rows([[Fr(1)]], ncols=1)
            else:
                payload = Mat.zero(b.data, a.data, zero=Fr(0))
            mors.append(make_mor(a, b, payload))
        return grid, tuple(mors)

    pg, phi = family(F, G)
    sg, psi = family(G, F)
    assert check_interleaving(F, G, InterleavingPair(eps, pg, phi, sg, psi))

    # the same shape at eps = 1/2 has mismatching objects -> grid error
    bad = InterleavingPair(Fr(1, 2), pg, phi, sg, psi)
    with pytest.raises(InterleavingGridError):
        check_interleaving(F, G, bad)


def test_interleaving_identities_can_fail():
    # zero maps between two copies of a surviving interval: phi/psi
    # compose to zero but F(r <= r + 2eps) is the identity
    F = interval_module(QQ, [0, 10], 1, 3)
    eps = Fr(1)
    grid = expected_phi_grid(F, F, eps)
    pairs = [(F.objects[F.segment(t)], F.objects[F.segment(t + eps)])
             for t in (grid[0] - 1,) + grid]
    mors = tuple(make_mor(a, b, Mat.zero(b.data, a.data, zero=Fr(0))) for a, b in pairs)
    pair = InterleavingPair(eps, grid, mors, grid, mors)
    assert check_interleaving(F, F, pair) is False


def test_composite_mor_chains():
    rng = random.Random(31)
    for cat in ALL_CATS:
        F = random_module(cat, rng, max_values=4)
        n = F.n
        from gpd.categories import compose
        m = composite_mor(F, 0, n)
        step = identity_mor(F.objects[0])
        for i in range(1, n + 1):
            step = compose(F.morphisms[i - 1], step)
        assert m == step


def test_interleaving_naturality_can_fail():
    # identities except on the segment [1, 2), where phi scales by 2 and
    # psi by 1/2: both composite identities hold, but the square from
    # [0, 1) into [1, 2) does not commute
    F = interval_module(QQ, [0, 1, 2], 1, 3)  # alive on [0, 2)
    pair = identity_interleaving(F)
    k = pair.phi_grid.index(Fr(1)) + 1
    o = pair.phi[k].src
    phi = list(pair.phi)
    psi = list(pair.psi)
    phi[k] = make_mor(o, o, Mat.from_rows([[Fr(2)]], ncols=1))
    psi[k] = make_mor(o, o, Mat.from_rows([[Fr(1, 2)]], ncols=1))
    pair = _with(pair, phi=tuple(phi), psi=tuple(psi))
    for a, b in zip(pair.phi, pair.psi):
        assert compose(b, a) == compose(a, b) == identity_mor(a.src)
    assert check_interleaving(F, F, pair) is False
    assert check_interleaving_oracle(F, F, pair) is False


# --- The interleaving check against its per-rep oracle on mutated pairs -----

def self_interleaving(F: ConstructibleModule, eps) -> InterleavingPair:
    """F eps-interleaved with itself by its own maps F(r <= r + eps)."""
    grid = expected_phi_grid(F, F, eps)
    mors = tuple(composite_mor(F, F.segment(t), F.segment(t + eps)) for t in segment_reps(grid))
    return InterleavingPair(eps, grid, mors, grid, mors)


@lru_cache(maxsize=None)
def _bundled_pair(name, coeffs, eps, seed):
    K = parse_filtration((DATA / name).read_text())
    H = persistent_homology(K, 1, coeffs)
    H2 = persistent_homology(perturb(K, eps, seed=seed), 1, coeffs)
    return H.module, H2.module, interleaving_from_perturbation(H, H2, eps)


def _random_identity(cat):
    def source(rng):
        F = random_module(cat, rng)
        return F, F, identity_interleaving(F)
    return source


def _random_self(cat):
    def source(rng):
        F = random_module(cat, rng)
        return F, F, self_interleaving(F, Fr(rng.randint(1, 6), 2))
    return source


def _bundled(name, coeffs, eps, seed):
    return lambda rng: _bundled_pair(name, coeffs, eps, seed)


_SOURCES = ([_random_identity(cat) for cat in ALL_CATS]
            + [_random_self(cat) for cat in ALL_CATS]
            + [_bundled("klein_bottle.flt", c, Fr(1, 8), 1) for c in ("Z", "Q", "Zm:4", "Fp:2")]
            + [_bundled("torus.flt", "Z", Fr(1, 2), 2)])


def _entry(pair, rng):
    family = rng.choice(("phi", "psi"))
    return family, rng.randrange(len(getattr(pair, family)))


def _set(pair, family, i, m):
    mors = list(getattr(pair, family))
    mors[i] = m
    return _with(pair, **{family: tuple(mors)})


def _replace_entry(pair, rng):
    family, i = _entry(pair, rng)
    m = getattr(pair, family)[i]
    new = random_mor(m.src, m.tgt, rng)
    return pair if new is None else _set(pair, family, i, new)


def _swap_entries(pair, rng):
    (f1, i), (f2, j) = _entry(pair, rng), _entry(pair, rng)
    a, b = getattr(pair, f1)[i], getattr(pair, f2)[j]
    return _set(_set(pair, f1, i, b), f2, j, a)


def _drop_entry(pair, rng):
    family, i = _entry(pair, rng)
    mors = getattr(pair, family)
    return _with(pair, **{family: mors[:i] + mors[i + 1:]})


def _shift_grid(pair, rng):
    family = rng.choice(("phi_grid", "psi_grid"))
    grid = getattr(pair, family)
    if grid and rng.random() < 0.5:  # truncated instead of shifted
        return _with(pair, **{family: grid[:-1]})
    delta = Fr(rng.choice((-1, 1)), rng.randint(1, 4))
    return _with(pair, **{family: tuple(v + delta for v in grid)})


def _negative_eps(pair, rng):
    return _with(pair, eps=-pair.eps - Fr(rng.randint(1, 4), 4))


def _noncanonical_entry(pair, rng):
    """An ab entry built as Mor directly, its torsion rows not reduced."""
    family, i = _entry(pair, rng)
    m = getattr(pair, family)[i]
    if m.src.cat.kind not in ("ab", "finab") or not m.tgt.data[1]:
        return pair
    rank, invs = m.tgt.data
    rows = m.payload.to_lists()
    for j, d in enumerate(invs):
        rows[rank + j] = [v + d * rng.randint(-2, 3) for v in rows[rank + j]]
    return _set(pair, family, i, Mor(m.src, m.tgt, Mat.from_rows(rows, ncols=m.payload.cols)))


_MUTATIONS = [_replace_entry, _swap_entries, _drop_entry, _shift_grid, _negative_eps,
              _noncanonical_entry]


def _outcome(check, F, G, pair):
    try:
        return check(F, G, pair)
    except InterleavingGridError as exc:
        return f"InterleavingGridError: {exc}"


@settings(max_examples=250, deadline=None)
@given(st.sampled_from(_SOURCES), st.lists(st.sampled_from(_MUTATIONS), max_size=3),
       st.integers(0, 2 ** 32))
def test_check_interleaving_matches_oracle_on_mutated_pairs(source, mutations, seed):
    rng = random.Random(seed)
    F, G, pair = source(rng)
    for mutate in mutations:
        if len(pair.phi) and len(pair.psi):
            pair = mutate(pair, rng)
    assert _outcome(check_interleaving, F, G, pair) == \
        _outcome(check_interleaving_oracle, F, G, pair)


def test_mutated_pairs_reach_every_outcome():
    # the property above is only as strong as its mutants: both verdicts
    # and every kind of grid error must occur among them
    def kind(out):
        if isinstance(out, bool):
            return out
        return next(k for k in ("negative", "merged grid", "one morphism", "does not map")
                    if k in out)

    seen = set()
    for seed in range(300):
        rng = random.Random(seed)
        F, G, pair = _SOURCES[seed % len(_SOURCES)](rng)
        pair = _MUTATIONS[seed % len(_MUTATIONS)](pair, rng)
        seen.add(kind(_outcome(check_interleaving, F, G, pair)))
    assert seen == {True, False, "negative", "merged grid", "one morphism", "does not map"}


@pytest.mark.parametrize("family", ["phi", "psi"])
def test_grid_error_names_the_rep_below_the_grid(family):
    # the sweep runs on the grid scaled to ints, but the rep before the
    # first point is that point minus 1, printed as a Fraction
    F, G, pair = _bundled_pair("torus.flt", "Z", Fr(1, 8), 1)
    mors = getattr(pair, family)
    bad = next(m for m in reversed(mors) if m.src != mors[0].src)
    pair = _set(pair, family, 0, bad)
    out = _outcome(check_interleaving, F, G, pair)
    assert out == _outcome(check_interleaving_oracle, F, G, pair)
    points = {p for s in F.values + G.values for p in (s, s - pair.eps, s - 2 * pair.eps)}
    r = min(points) - 1
    assert r.denominator > 1 and out.startswith(f"InterleavingGridError: {family} at {r} ")


def test_check_interleaving_work_follows_the_nonzero_maps(monkeypatch):
    # ten perturbations each of the bundled torus and Klein bottle over Z:
    # composites through a zero object multiply nothing, no running
    # composite starts from an identity product, and no composite is
    # re-validated by make_mor
    pairs = [_bundled_pair(name, "Z", Fr(1, 8), seed)
             for name in ("torus.flt", "klein_bottle.flt") for seed in range(1, 11)]
    calls = {"mul": 0, "make_mor": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Mat, "mul", counted("mul", Mat.mul))
    monkeypatch.setattr(categories, "make_mor", counted("make_mor", categories.make_mor))
    assert all(check_interleaving(F, G, pair) for F, G, pair in pairs)
    assert calls["mul"] <= 1300 and calls["make_mor"] == 0
