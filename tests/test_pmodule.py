"""Constructible modules: evaluation, refinement, sums, interleavings."""

import random
from fractions import Fraction as Fr

import pytest

from gpd.categories import identity_mor, identity_obj, make_mor, make_obj, vect
from gpd.diagram import cumulative_at, type_A_diagram
from gpd.exact import QQ
from gpd.matrix import Mat, frac
from gpd.pmodule import (
    ConstructibleModule,
    InterleavingGridError,
    InterleavingPair,
    ModuleError,
    check_interleaving,
    common_refinement,
    composite_mor,
    dX_A,
    evaluate,
    expected_phi_grid,
    identity_interleaving,
    module_direct_sum,
    shift,
)

from generators import ALL_CATS, random_module


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


def test_evaluate_snaps_to_segments():
    F = interval_module(QQ, [0, 1, 2], 1, 3)  # alive on [0, 2)
    assert evaluate(F, Fr(0), Fr(3, 2)).payload == Mat.from_rows([[Fr(1)]], ncols=1)
    assert evaluate(F, Fr(0), Fr(2)).tgt.data == 0
    assert evaluate(F, Fr(-1), Fr(0)).src.data == 0
    assert evaluate(F, Fr(1, 2), Fr(1, 2)) == identity_mor(F.object_at(Fr(1, 2)))


def test_shift_moves_critical_values():
    F = interval_module(QQ, [0, 2], 1, 2)
    G = shift(F, Fr(1, 2))
    assert G.values == (Fr(-1, 2), Fr(3, 2))
    assert G.object_at(Fr(-1, 2)).data == F.object_at(Fr(0)).data == 1


@pytest.mark.parametrize("cat", ALL_CATS, ids=lambda c: f"{c.kind}-{getattr(c.field, 'name', '')}")
def test_refinement_preserves_evaluation(cat):
    rng = random.Random(23)
    for _ in range(6):
        F = random_module(cat, rng)
        G = random_module(cat, rng)
        Fr_, Gr_ = common_refinement(F, G)
        assert Fr_.values == Gr_.values == tuple(sorted(set(F.values) | set(G.values)))
        probes = set(Fr_.values) | {v - Fr(1, 2) for v in Fr_.values} | {Fr_.values[-1] + 1}
        for p in sorted(probes):
            for q in sorted(probes):
                if p <= q:
                    assert evaluate(F, p, q) == evaluate(Fr_, p, q)


def test_direct_sum_of_intervals():
    F = interval_module(QQ, [0, 1, 2], 1, 2)
    G = interval_module(QQ, [0, 1, 2], 2, 4)
    S = module_direct_sum(F, G)
    assert [o.data for o in S.objects] == [0, 1, 1, 1]
    # at s_1 only F lives; at s_2 only G; the connecting map kills F's line
    assert S.morphisms[1].payload.is_zero()


def test_dX_A_of_interval_module():
    F = interval_module(QQ, [0, 1, 2], 1, 3)  # alive on [0, 2)
    X = dX_A(F)
    assert X.get(1, 2).mult() == {"line": 1}
    assert X.get(1, 3).mult() == {"line": 1}
    assert X.get(1, 4).mult() == {}
    assert X.get(2, 3).mult() == {"line": 1}
    assert X.get(3, 4).mult() == {}


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
            a, b = A.object_at(t), B.object_at(t + eps)
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
    mors = tuple(
        make_mor(F.object_at(t), F.object_at(t + eps),
                 Mat.zero(F.object_at(t + eps).data, F.object_at(t).data, zero=Fr(0)))
        for t in (grid[0] - 1,) + grid)
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
