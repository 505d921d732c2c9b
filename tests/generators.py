"""Seeded random objects, morphisms, and modules for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import gcd
from types import SimpleNamespace

from gpd.categories import (
    Category,
    Mor,
    Obj,
    ab,
    finab,
    finset,
    identity_mor,
    identity_obj,
    make_mor,
    make_obj,
    obj_ngens,
    repn,
    vect,
)
from gpd.diagram import DiagramGrid
from gpd.exact import QQ, PrimeField, field_kernel, field_solve, jordan_type
from gpd.grothendieck import GroupElem
from gpd.homology import FilteredComplex, make_complex
from gpd.matrix import Mat

SMALL_CHAINS = [(), (2,), (3,), (4,), (2, 2), (2, 4), (3, 3), (2, 6), (8,), (2, 2, 2), (6,), (12,)]


def random_obj(cat: Category, rng: random.Random, max_size: int = 4) -> Obj:
    if cat.kind == "finset":
        return make_obj(cat, rng.randint(0, max_size + 2))
    if cat.kind == "vect":
        return make_obj(cat, rng.randint(0, max_size))
    if cat.kind in ("ab", "finab"):
        rank = 0 if cat.kind == "finab" else rng.randint(0, 2)
        invs = rng.choice(SMALL_CHAINS)
        if cat.kind == "finab" and not invs and rng.random() < 0.7:
            invs = rng.choice([c for c in SMALL_CHAINS if c])
        return make_obj(cat, (rank, invs))
    # repn: random Jordan blocks, conjugated by a random invertible matrix
    F = cat.field
    n = rng.randint(0, max_size)
    if n == 0:
        return identity_obj(cat)
    eigs = list(range(F.p)[:5]) if isinstance(F, PrimeField) else [Fraction(v) for v in (-1, 0, 1, 2)]
    rows = [[F.zero] * n for _ in range(n)]
    pos = 0
    while pos < n:
        size = rng.randint(1, n - pos)
        lam = rng.choice(eigs)
        for k in range(size):
            rows[pos + k][pos + k] = lam
            if k + 1 < size:
                rows[pos + k][pos + k + 1] = F.one
        pos += size
    J = Mat.from_rows(rows, ncols=n)
    P = random_invertible(F, n, rng)
    Pinv = field_solve(F, P, Mat.identity(n, one=F.one, zero=F.zero))
    return make_obj(cat, (P @ J @ Pinv).map(F.coerce))


def random_invertible(F, n: int, rng: random.Random) -> Mat:
    rows = Mat.identity(n, one=F.one, zero=F.zero).to_lists()
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = F.coerce(rng.randint(-2, 2))
        rows[i] = [F.coerce(a + c * b) for a, b in zip(rows[i], rows[j])]
    return Mat.from_rows(rows, ncols=n)


def random_mor(src: Obj, tgt: Obj, rng: random.Random) -> Mor:
    cat = src.cat
    if cat.kind == "finset":
        if tgt.data == 0:
            return make_mor(src, tgt, ()) if src.data == 0 else None
        return make_mor(src, tgt, tuple(rng.randrange(tgt.data) for _ in range(src.data)))
    if cat.kind == "vect":
        F = cat.field
        M = Mat.from_rows([[F.coerce(rng.randint(-2, 2)) for _ in range(src.data)]
                           for _ in range(tgt.data)], ncols=src.data)
        return make_mor(src, tgt, M)
    if cat.kind in ("ab", "finab"):
        return make_mor(src, tgt, random_ab_payload(src, tgt, rng))
    # repn: random element of the intertwiner space
    F = cat.field
    A, B = src.data, tgt.data
    n, m = A.rows, B.rows
    if n == 0 or m == 0:
        return make_mor(src, tgt, Mat.zero(m, n, zero=F.zero))
    # vec(X A - B X) = 0 as a linear system on the m*n entries of X
    rows = []
    for i in range(m):
        for j in range(n):
            row = [F.zero] * (m * n)
            for k in range(n):
                row[i * n + k] = F.coerce(row[i * n + k] + A[k, j])
            for k in range(m):
                row[k * n + j] = F.sub(row[k * n + j], B[i, k])
            rows.append(row)
    K = field_kernel(F, Mat.from_rows(rows, ncols=m * n))
    if K.cols == 0:
        return make_mor(src, tgt, Mat.zero(m, n, zero=F.zero))
    combo = [F.coerce(rng.randint(-2, 2)) for _ in range(K.cols)]
    flat = [F.coerce(sum(K[i, c] * combo[c] for c in range(K.cols))) for i in range(m * n)]
    X = Mat.from_rows([flat[i * n:(i + 1) * n] for i in range(m)], ncols=n)
    return make_mor(src, tgt, X)


# the ring Z with the field interface random_invertible uses
_INTEGERS = SimpleNamespace(one=1, zero=0, coerce=int)


def random_automorphism(a: Obj, rng: random.Random) -> Mor:
    """A random automorphism of a, built invertible by construction.

    finset: a permutation.  vect: a product of elementary row operations.
    ab/finab: block triangular, a unimodular matrix on the free part, a
    unit modulo the order on each torsion generator, and random torsion
    entries in the free columns.  repn: a nonzero multiple of I or of
    c*I + A with -c not an eigenvalue of A, both commuting with A.
    """
    cat = a.cat
    if cat.kind == "finset":
        perm = list(range(a.data))
        rng.shuffle(perm)
        return make_mor(a, a, tuple(perm))
    if cat.kind == "vect":
        return make_mor(a, a, random_invertible(cat.field, a.data, rng))
    if cat.kind in ("ab", "finab"):
        rank, invs = a.data
        free = random_invertible(_INTEGERS, rank, rng)
        cols = []
        for j in range(rank):
            cols.append(list(free.col(j)) + [rng.randrange(d) for d in invs])
        for j, d in enumerate(invs):
            unit = rng.choice([u for u in range(1, d) if gcd(u, d) == 1])
            cols.append([0] * rank + [unit if k == j else 0 for k in range(len(invs))])
        return make_mor(a, a, Mat.from_cols(cols, nrows=rank + len(invs)))
    F, A = cat.field, a.data
    M = Mat.identity(A.rows, one=F.one, zero=F.zero)
    c = F.coerce(rng.randint(-2, 2))
    # c*I + A is invertible exactly when -c is not an eigenvalue of A
    if rng.random() < 0.5 and all(lam != F.coerce(-c) for lam, _ in jordan_type(A, F)):
        M = Mat(A.rows, A.cols, tuple(tuple(c * m + x for m, x in zip(rm, ra))
                                      for rm, ra in zip(M.data, A.data)))
    scale = F.coerce(rng.choice([v for v in (1, 2, 3, -1) if F.coerce(v) != F.zero]))
    return make_mor(a, a, M.scale(scale))


SPLICE_KINDS = ("identity", "automorphism", "endomorphism")


def splice_steps(F, rng: random.Random, k: int, kinds=SPLICE_KINDS):
    """F with k extra critical values, each inserted at a random position,
    whose connecting morphism maps the object there to itself: an
    identity, a random automorphism, or a random endomorphism (which may
    or may not be invertible), drawn from `kinds`.  The morphism after an
    inserted step is left as it was, so the result is a valid module but,
    unless only identities are spliced, not in general isomorphic to F."""
    from gpd.pmodule import ConstructibleModule

    values, objs, mors = list(F.values), list(F.objects), list(F.morphisms)
    for _ in range(k):
        p = rng.randint(0, len(values))  # the new value follows segment p
        lo = values[p - 1] if p else (values[0] - 2 if values else Fraction(0))
        hi = values[p] if p < len(values) else lo + 2
        o = objs[p]
        kind = rng.choice(kinds)
        step = identity_mor(o) if kind == "identity" else \
            random_automorphism(o, rng) if kind == "automorphism" else random_mor(o, o, rng)
        values.insert(p, (lo + hi) / 2)
        objs.insert(p + 1, o)
        mors.insert(p, step)
    return ConstructibleModule(F.cat, tuple(values), tuple(objs), tuple(mors))


def random_ab_payload(src: Obj, tgt: Obj, rng: random.Random) -> Mat:
    """A random well-defined generator matrix between abelian-group objects."""
    rank_s, invs_s = src.data
    rank_t, invs_t = tgt.data
    gt = obj_ngens(tgt)
    cols = []
    for j in range(obj_ngens(src)):
        if j < rank_s:
            cols.append([rng.randint(-2, 2) for _ in range(gt)])
        else:
            d = invs_s[j - rank_s]
            col = [0] * rank_t
            for dt in invs_t:
                step = dt // gcd(dt, d)
                col.append(step * rng.randint(0, max(dt // step - 1, 0)))
            cols.append(col)
    return Mat.from_cols(cols, nrows=gt)


ALL_CATS = [finset(), vect(QQ), vect(PrimeField(2)), ab(), finab(), repn(QQ), repn(PrimeField(5))]


def random_module(cat: Category, rng: random.Random, max_values: int = 4, max_size: int = 3):
    """A random constructible module: e at the start, then random steps."""
    from fractions import Fraction

    from gpd.pmodule import ConstructibleModule

    n = rng.randint(1, max_values)
    values = sorted(rng.sample(range(-4, 9), n))
    values = tuple(Fraction(v) for v in values)
    objs = [identity_obj(cat)]
    for _ in range(n):
        o = random_obj(cat, rng, max_size=max_size)
        if cat.kind == "finset" and o.data == 0 and objs[-1].data > 0:
            o = make_obj(cat, 1)
        objs.append(o)
    mors = []
    for i in range(1, n + 1):
        mors.append(random_mor(objs[i - 1], objs[i], rng))
    return ConstructibleModule(cat, values, tuple(objs), tuple(mors))


def random_interval_sum_module(field, rng: random.Random, nvals: int = 4, nints: int = 3):
    """Vect module built as a sum of interval modules with a random basis change.

    Returns (module, bars) where bars is a dict (i, j) -> multiplicity on
    the 1-based grid, j = nvals + 1 meaning infinity.
    """
    from gpd.pmodule import ConstructibleModule

    cat = vect(field)
    values = tuple(Fraction(v) for v in sorted(rng.sample(range(0, 10), nvals)))
    bars: dict = {}
    draws = []
    for _ in range(nints):
        i = rng.randint(1, nvals)
        j = rng.randint(i + 1, nvals + 1)
        bars[(i, j)] = bars.get((i, j), 0) + 1
        draws.append((i, j))
    # segment k has one line per interval alive there, in draw order; the
    # connecting maps carry each line that lives on to itself
    alive = [[b for b, (i, j) in enumerate(draws) if i <= k < j] for k in range(nvals + 1)]
    objs = [make_obj(cat, len(a)) for a in alive]
    mors = [make_mor(objs[k - 1], objs[k],
                     Mat.from_rows([[field.one if r == c else field.zero for c in alive[k - 1]]
                                    for r in alive[k]], ncols=len(alive[k - 1])))
            for k in range(1, nvals + 1)]
    # conjugate each stage by a random invertible matrix
    changes = [Mat.identity(objs[0].data, one=field.one, zero=field.zero)]
    for i in range(1, len(objs)):
        changes.append(random_invertible(field, objs[i].data, rng))
    new_mors = []
    for i, m in enumerate(mors, start=1):
        Pi = changes[i]
        Pprev_inv = field_solve(field, changes[i - 1],
                                Mat.identity(objs[i - 1].data, one=field.one, zero=field.zero))
        new_mors.append(make_mor(objs[i - 1], objs[i], (Pi @ m.payload @ Pprev_inv).map(field.coerce)))
    return ConstructibleModule(cat, values, tuple(objs), tuple(new_mors)), bars


def rips_filtration(dist: list, max_dim: int = 2) -> FilteredComplex:
    """Rips filtration from a symmetric rational distance matrix.

    Vertices enter at 0 and every higher simplex at the largest
    pairwise distance among its vertices.
    """
    npts = len(dist)
    items = [((v,), Fraction(0)) for v in range(npts)]
    for d in range(1, max_dim + 1):
        for s in combinations(range(npts), d + 1):
            val = max(Fraction(dist[a][b]) for a, b in combinations(s, 2))
            items.append((s, val))
    return make_complex(items)


def grid_complex(m: int, seed: int, klein: bool = False) -> FilteredComplex:
    """The m x m triangulated torus (m >= 3), or with `klein` the Klein
    bottle that glues the last column to the first with the rows
    flipped, filtered by the lower star of seeded vertex values in
    0..2m^2: each simplex enters at the largest value of its vertices."""
    rng = random.Random(seed)
    value = [rng.randint(0, 2 * m * m) for _ in range(m * m)]

    def vertex(i, j):
        if j == m and klein:
            i = -i
        return i % m * m + j % m

    items = {}
    for i in range(m):
        for j in range(m):
            a, b, c, d = vertex(i, j), vertex(i + 1, j), vertex(i, j + 1), vertex(i + 1, j + 1)
            for s in ((a,), (a, b), (a, c), (a, d), (a, b, d), (a, c, d)):
                items[tuple(sorted(s))] = max(value[v] for v in s)
    return make_complex(items.items())


def bars_shaped_erosion_pair(rng: random.Random, nvalues: int = 6, ncells: int = 4,
                             nbars: int = 3, width: int = 2, ninf: int = 2):
    """Two type B vect/Q diagrams shaped like the benchmark's erosion
    pairs, on quarter values, so values of the two grids may coincide.

    A has `nvalues` values, an infinite bar at its first one, `ninf - 1`
    more infinite bars and random finite cells, `ncells` cells in all.  B
    has `nbars` bars of length `width` born between A's first value and
    its last minus `width`, none containing another, and `ninf` infinite
    bars born at and after A's last value.  While eps is below the gap
    (A's last value minus its first), B -> A passes and A -> B fails at
    A's first cell.
    """
    cat = vect(QQ)

    def diagram(grid, cells):
        vals = {c: GroupElem("B", cat, (("dim", m),)) for c, m in cells.items()}
        return DiagramGrid.make("B", cat, grid, vals, role="diagram")

    ga = [Fraction(0)]
    while ga[-1] - ga[0] < width + nbars:  # room for the bars of B
        ga = sorted(Fraction(t, 4) for t in rng.sample(range(4 * 12), nvalues))
    n, lo, top = nvalues, ga[0], ga[-1]
    cells_a = {(1, n + 1): 1}
    for _ in range(ninf - 1):
        i = rng.randint(2, n)
        cells_a[(i, n + 1)] = cells_a.get((i, n + 1), 0) + 1
    while len(cells_a) < ncells:
        i = rng.randint(2, n - 1)
        j = rng.randint(i + 1, n)
        cells_a[(i, j)] = cells_a.get((i, j), 0) + rng.randint(1, 2)
    births = rng.sample([lo + Fraction(t, 4) for t in range(1, int(4 * (top - lo - width)))],
                        nbars)
    infs = [top + k for k in range(ninf)]
    gb = sorted(set(births) | {b + width for b in births} | set(infs))
    pos = {t: k + 1 for k, t in enumerate(gb)}
    cells_b = {(pos[b], pos[b + width]): 1 for b in births}
    cells_b.update(((pos[t], len(gb) + 1), 1) for t in infs)
    return diagram(ga, cells_a), diagram(gb, cells_b)
