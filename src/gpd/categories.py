"""The five value-category backends.

Objects and morphisms for: finite sets under disjoint union, finite
dimensional vector spaces, finitely generated abelian groups, finite
abelian groups, and vector-space endomorphisms (square matrices up to
conjugation, classified by Jordan type).

Objects are kept in canonical form at all times; abelian morphism
payloads are reduced modulo the target relations at construction, so
equality of morphisms is structural equality.
"""

from __future__ import annotations

from math import prod

from .exact import (
    QQ,
    LatticeQuotient,
    _columns,
    column_space_basis,
    field_rank,
    field_reduce,
    field_solve,
    jordan_type,
)
from .grothendieck import GroupElem, _make_elem, add
from .matrix import Mat, Value, _set

FINSET = "finset"
VECT = "vect"
AB = "ab"
FINAB = "finab"
REPN = "repn"


class CategoryError(ValueError):
    pass


class Category(Value):
    kind: str
    field: object = None  # QQ or PrimeField, for vect and repn

    def __post_init__(self):
        if self.kind in (VECT, REPN):
            if self.field is None:
                raise CategoryError(f"{self.kind} needs a coefficient field")
        elif self.field is not None:
            raise CategoryError(f"{self.kind} takes no coefficient field")

    @property
    def abelian(self) -> bool:
        return self.kind != FINSET

    def __repr__(self):
        return f"Category({self.kind}{', ' + repr(self.field) if self.field else ''})"


def finset() -> Category:
    return Category(FINSET)


def vect(field=QQ) -> Category:
    return Category(VECT, field)


def ab() -> Category:
    return Category(AB)


def finab() -> Category:
    return Category(FINAB)


def repn(field=QQ) -> Category:
    return Category(REPN, field)


# ---------------------------------------------------------------------------
# Objects
# ---------------------------------------------------------------------------

class Obj(Value):
    __slots__ = ("cat", "data")
    __hash__ = Value.__hash__  # a class defining __eq__ alone is unhashable
    cat: Category
    data: object

    def __init__(self, cat, data):
        _set(self, "cat", cat)
        _set(self, "data", data)

    def __eq__(self, other):
        if other.__class__ is not Obj:
            return NotImplemented
        return self.data == other.data and self.cat == other.cat

    def __repr__(self):
        return f"Obj({self.cat.kind}, {self.data!r})"


def make_obj(cat: Category, data) -> Obj:
    if cat.kind == FINSET:
        n = int(data)
        if n < 0:
            raise CategoryError("negative set size")
        return Obj(cat, n)
    if cat.kind == VECT:
        n = int(data)
        if n < 0:
            raise CategoryError("negative dimension")
        return Obj(cat, n)
    if cat.kind in (AB, FINAB):
        rank, invs = data
        rank = int(rank)
        invs = tuple(int(d) for d in invs)
        if rank < 0 or any(d < 2 for d in invs):
            raise CategoryError("bad abelian group data")
        for a, b in zip(invs, invs[1:]):
            if b % a != 0:
                raise CategoryError("invariant factors must form a divisibility chain")
        if cat.kind == FINAB and rank != 0:
            raise CategoryError("finite abelian groups have no free part")
        return Obj(cat, (rank, invs))
    if cat.kind == REPN:
        A = data if isinstance(data, Mat) else Mat.from_rows(data)
        if A.rows != A.cols:
            raise CategoryError("endomorphism object must be square")
        return Obj(cat, A.map(cat.field.coerce))
    raise CategoryError(f"unknown category kind {cat.kind!r}")


def identity_obj(cat: Category) -> Obj:
    if cat.kind in (FINSET, VECT):
        return Obj(cat, 0)
    if cat.kind in (AB, FINAB):
        return Obj(cat, (0, ()))
    return Obj(cat, Mat.zero(0, 0))


def obj_ngens(a: Obj) -> int:
    if a.cat.kind in (FINSET, VECT):
        return a.data
    if a.cat.kind in (AB, FINAB):
        rank, invs = a.data
        return rank + len(invs)
    return a.data.rows


def ab_relations(a: Obj) -> Mat:
    """Relation lattice of an abelian-group object inside Z^ngens (columns)."""
    rank, invs = a.data
    g = rank + len(invs)
    cols = []
    for j, d in enumerate(invs):
        v = [0] * g
        v[rank + j] = d
        cols.append(v)
    return Mat.from_cols(cols, nrows=g)


# ---------------------------------------------------------------------------
# Morphisms
# ---------------------------------------------------------------------------

class Mor(Value):
    __slots__ = ("src", "tgt", "payload")
    __hash__ = Value.__hash__  # a class defining __eq__ alone is unhashable
    src: Obj
    tgt: Obj
    payload: object

    def __init__(self, src, tgt, payload):
        _set(self, "src", src)
        _set(self, "tgt", tgt)
        _set(self, "payload", payload)

    def __eq__(self, other):
        if other.__class__ is not Mor:
            return NotImplemented
        return self.payload == other.payload and self.src == other.src and self.tgt == other.tgt

    @property
    def cat(self) -> Category:
        return self.src.cat

    def __repr__(self):
        return f"Mor({self.src.data!r} -> {self.tgt.data!r})"


def make_mor(src: Obj, tgt: Obj, payload) -> Mor:
    if src.cat != tgt.cat:
        raise CategoryError("source and target live in different categories")
    cat = src.cat
    if cat.kind == FINSET:
        table = tuple(int(v) for v in payload)
        if len(table) != src.data:
            raise CategoryError("function table length must equal source size")
        if any(not 0 <= v < tgt.data for v in table):
            raise CategoryError("function table value out of range")
        return Mor(src, tgt, table)
    if cat.kind == VECT:
        M = payload if isinstance(payload, Mat) else Mat.from_rows(payload)
        if (M.rows, M.cols) != (tgt.data, src.data):
            raise CategoryError(f"matrix shape {M.rows}x{M.cols} does not match "
                                f"{tgt.data}x{src.data}")
        return Mor(src, tgt, M.map(cat.field.coerce))
    if cat.kind in (AB, FINAB):
        M = payload if isinstance(payload, Mat) else Mat.from_rows(payload)
        gs, gt = obj_ngens(src), obj_ngens(tgt)
        if (M.rows, M.cols) != (gt, gs):
            raise CategoryError(f"matrix shape {M.rows}x{M.cols} does not match "
                                f"{gt}x{gs} generators")
        M = _ab_canonical_payload(tgt, M)
        _ab_check_well_defined(src, tgt, M)
        return Mor(src, tgt, M)
    if cat.kind == REPN:
        M = payload if isinstance(payload, Mat) else Mat.from_rows(payload)
        if (M.rows, M.cols) != (tgt.data.rows, src.data.rows):
            raise CategoryError("matrix shape does not match endomorphism dimensions")
        F = cat.field
        M = M.map(F.coerce)
        left = (M @ src.data).map(F.coerce)
        right = (tgt.data @ M).map(F.coerce)
        if left != right:
            raise CategoryError("payload does not intertwine the endomorphisms")
        return Mor(src, tgt, M)
    raise CategoryError(f"unknown category kind {cat.kind!r}")


def _ab_canonical_payload(tgt: Obj, M: Mat) -> Mat:
    rank, invs = tgt.data
    if not invs:
        return M
    rows = M.to_lists()
    for j, d in enumerate(invs):
        rows[rank + j] = [v % d for v in rows[rank + j]]
    return Mat.from_rows(rows, ncols=M.cols)


def _ab_check_well_defined(src: Obj, tgt: Obj, M: Mat):
    """Each source relation d_j * g_j must map into the target relations."""
    rank_s, invs_s = src.data
    rank_t, invs_t = tgt.data
    for j, d in enumerate(invs_s):
        col = M.col(rank_s + j)
        for i in range(rank_t):
            if d * col[i] != 0:
                raise CategoryError(
                    f"torsion generator {j} of order {d} maps to an element of infinite order")
        for i, dt in enumerate(invs_t):
            if (d * col[rank_t + i]) % dt != 0:
                raise CategoryError(
                    f"torsion generator {j} of order {d} maps to an element whose order "
                    f"does not divide {d}")


def identity_mor(a: Obj) -> Mor:
    """The identity of a; over ab its payload is canonical, as invariant factors are >= 2."""
    if a.cat.kind == FINSET:
        return Mor(a, a, tuple(range(a.data)))
    n, F = obj_ngens(a), a.cat.field
    return Mor(a, a, Mat.identity(n) if F is None else Mat.identity(n, one=F.one, zero=F.zero))


def compose(g: Mor, f: Mor) -> Mor:
    """g after f, not re-validated: over ab the product is only reduced
    modulo the target's invariant factors, and a composite through a
    zero object is the zero map, read off the shapes with no product."""
    if f.tgt != g.src:
        raise CategoryError("composition mismatch: target of f is not source of g")
    cat = f.cat
    if cat.kind == FINSET:
        return Mor(f.src, g.tgt, tuple(g.payload[v] for v in f.payload))
    if not (g.payload.rows and g.payload.cols and f.payload.cols):
        return Mor(f.src, g.tgt, Mat.zero(g.payload.rows, f.payload.cols))
    M = g.payload @ f.payload
    if cat.kind in (VECT, REPN):
        return Mor(f.src, g.tgt, M.map(cat.field.coerce))
    return Mor(f.src, g.tgt, _ab_canonical_payload(g.tgt, M))


def is_isomorphism(f: Mor) -> bool:
    """Whether f is invertible.

    Between free abelian groups of rank n the column reduction of the
    payload M over QQ gives R = M V with V unitriangular, and the nonzero
    columns of R have distinct lowest rows, so det M = +-(product of the
    pivots): f is an isomorphism iff there are n pivots and their product
    is +-1 ([[1, 1], [2, 3]] has pivots 2 and -1/2).  For a group with
    torsion the cokernel quotient decides.
    """
    cat = f.cat
    if cat.kind == FINSET:
        return f.src.data == f.tgt.data and len(set(f.payload)) == f.src.data
    if cat.kind == VECT:
        return (f.src.data == f.tgt.data
                and field_rank(cat.field, f.payload) == f.src.data)
    if cat.kind == REPN:
        return (f.src.data.rows == f.tgt.data.rows
                and field_rank(cat.field, f.payload) == f.payload.rows)
    # abelian groups: surjective onto an isomorphic group implies bijective
    if iso_class(f.src) != iso_class(f.tgt):
        return False
    rank, invs = f.tgt.data
    if cat.kind == AB and not invs:
        R, lows, _ = field_reduce(QQ, _columns(QQ, f.payload))
        return len(lows) == rank and abs(prod(R[j][low] for low, j in lows.items())) == 1
    gt = obj_ngens(f.tgt)
    cok = LatticeQuotient(Mat.identity(gt), f.payload.hstack(ab_relations(f.tgt)))
    return cok.iso() == (0, [])


# ---------------------------------------------------------------------------
# Isomorphism classes, as effective elements of the split group A
# ---------------------------------------------------------------------------

def _prime_power_parts(d: int):
    """Primary decomposition of a cyclic group order d >= 2."""
    parts = []
    p = 2
    while p * p <= d:
        if d % p == 0:
            m = 0
            while d % p == 0:
                d //= p
                m += 1
            parts.append((p, m))
        p += 1
    if d > 1:
        parts.append((d, 1))
    return parts


def iso_from_invariants(cat: Category, rank: int, invs) -> GroupElem:
    counter: dict = {}
    if rank:
        counter["Z"] = rank
    for d in invs:
        for p, m in _prime_power_parts(d):
            key = ("t", p, m)
            counter[key] = counter.get(key, 0) + 1
    return _make_elem("A", cat, counter)


def invariants_from_iso(c: GroupElem) -> tuple[int, tuple[int, ...]]:
    """Rebuild (free rank, invariant-factor chain) from a primary multiset."""
    rank = 0
    primary: dict = {}
    for d, cnt in c.coeffs:
        if d == "Z":
            rank = cnt
        else:
            _, p, m = d
            primary.setdefault(p, []).extend([m] * cnt)
    chains: list[int] = []
    for p, ms in primary.items():
        ms.sort(reverse=True)
        for i, m in enumerate(ms):
            if i < len(chains):
                chains[i] *= p ** m
            else:
                chains.append(p ** m)
    chains.sort()
    return rank, tuple(chains)


def iso_class(a: Obj) -> GroupElem:
    cat = a.cat
    if cat.kind == FINSET:
        return _make_elem("A", cat, {"pt": a.data})
    if cat.kind == VECT:
        return _make_elem("A", cat, {"line": a.data})
    if cat.kind in (AB, FINAB):
        rank, invs = a.data
        return iso_from_invariants(cat, rank, invs)
    counter: dict = {}
    for lam, size in jordan_type(a.data, cat.field):
        key = ("j", lam, size)
        counter[key] = counter.get(key, 0) + 1
    return _make_elem("A", cat, counter)


def image_iso_class(f: Mor) -> GroupElem:
    """Isomorphism class of the epi-mono image of f.

    Over ab with a torsion-free target the image is a subgroup of a free
    abelian group, hence free, of rank the rank of the payload over Q.
    Other abelian images are read off the presented quotient
    (payload | relations) / relations.
    """
    cat = f.cat
    if cat.kind == FINSET:
        return _make_elem("A", cat, {"pt": len(set(f.payload))})
    if cat.kind == VECT:
        return _make_elem("A", cat, {"line": field_rank(cat.field, f.payload)})
    if cat.kind == AB and not f.tgt.data[1]:
        return iso_from_invariants(cat, field_rank(QQ, f.payload), ())
    if cat.kind in (AB, FINAB):
        R = ab_relations(f.tgt)
        q = LatticeQuotient(f.payload.hstack(R), R)
        rank, invs = q.iso()
        return iso_from_invariants(cat, rank, invs)
    # repn: the endomorphism of the target restricted to the image
    F = cat.field
    W = column_space_basis(F, f.payload)
    return iso_class(make_obj(cat, field_solve(F, W, (f.tgt.data @ W).map(F.coerce))))


# ---------------------------------------------------------------------------
# Direct sums
# ---------------------------------------------------------------------------

def direct_sum_obj(a: Obj, b: Obj) -> Obj:
    cat = a.cat
    if cat != b.cat:
        raise CategoryError("direct sum across categories")
    if cat.kind in (FINSET, VECT):
        return Obj(cat, a.data + b.data)
    if cat.kind in (AB, FINAB):
        rank, invs = invariants_from_iso(add(iso_class(a), iso_class(b)))
        return make_obj(cat, (rank, invs))
    A, B = a.data, b.data
    n, m = A.rows, B.rows
    F = cat.field
    rows = []
    for i in range(n):
        rows.append(tuple(A[i, j] for j in range(n)) + tuple(F.zero for _ in range(m)))
    for i in range(m):
        rows.append(tuple(F.zero for _ in range(n)) + tuple(B[i, j] for j in range(m)))
    return Obj(cat, Mat.from_rows(rows, ncols=n + m))
