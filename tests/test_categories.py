"""Backend object/morphism algebra: composition, images, isomorphism tests."""

import random
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gpd import categories
from gpd.categories import (
    CategoryError,
    Mor,
    ab,
    compose,
    direct_sum_obj,
    finab,
    finset,
    identity_mor,
    identity_obj,
    image_iso_class,
    invariants_from_iso,
    is_isomorphism,
    iso_class,
    iso_from_invariants,
    make_mor,
    make_obj,
    repn,
    vect,
)
from gpd.exact import QQ, PrimeField
from gpd.grothendieck import GroupElem, _make_elem, add
from gpd.matrix import Mat

from generators import ALL_CATS, random_automorphism, random_mor, random_obj
from oracles import (
    FiniteGroupTable,
    cyclic_decomposition_by_profile,
    compose_oracle,
    image_iso_class_oracle,
    is_unimodular,
    rref_rank,
)


def mor(src, tgt, rows):
    return make_mor(src, tgt, Mat.from_rows(rows, ncols=src.data if isinstance(src.data, int) else None))


class TestFinSet:
    def test_compose_and_image(self):
        c = finset()
        a, b, d = make_obj(c, 3), make_obj(c, 2), make_obj(c, 4)
        f = make_mor(a, b, (0, 0, 1))
        g = make_mor(b, d, (2, 2))
        gf = compose(g, f)
        assert gf.payload == (2, 2, 2)
        assert image_iso_class(gf).mult() == {"pt": 1}
        assert image_iso_class(f).mult() == {"pt": 2}

    def test_iso_is_bijection(self):
        c = finset()
        a = make_obj(c, 3)
        assert is_isomorphism(make_mor(a, a, (2, 0, 1)))
        assert not is_isomorphism(make_mor(a, a, (0, 0, 1)))

    def test_identity_object_is_empty(self):
        c = finset()
        assert identity_obj(c).data == 0
        assert iso_class(identity_obj(c)).coeffs == ()


class TestVect:
    def test_image_is_rank(self):
        c = vect(QQ)
        a, b = make_obj(c, 3), make_obj(c, 2)
        f = make_mor(a, b, Mat.from_rows([[1, 2, 3], [2, 4, 6]], ncols=3).map(Fraction))
        assert image_iso_class(f).mult() == {"line": 1}

    def test_mod_p_rank_differs(self):
        cq, c2 = vect(QQ), vect(PrimeField(2))
        m = [[1, 1], [1, -1]]
        fq = make_mor(make_obj(cq, 2), make_obj(cq, 2),
                      Mat.from_rows(m, ncols=2).map(Fraction))
        f2 = make_mor(make_obj(c2, 2), make_obj(c2, 2), Mat.from_rows(m, ncols=2))
        assert image_iso_class(fq).mult() == {"line": 2}
        assert image_iso_class(f2).mult() == {"line": 1}

    def test_iso_square_full_rank(self):
        c = vect(QQ)
        a = make_obj(c, 2)
        assert is_isomorphism(make_mor(a, a, Mat.from_rows([[1, 1], [0, 1]], ncols=2).map(Fraction)))
        assert not is_isomorphism(make_mor(a, a, Mat.from_rows([[1, 1], [1, 1]], ncols=2).map(Fraction)))


class TestAb:
    def test_times_two_into_z4_has_image_z2(self):
        c = finab()
        z2 = make_obj(c, (0, (2,)))
        z4 = make_obj(c, (0, (4,)))
        f = make_mor(z2, z4, Mat.from_rows([[2]], ncols=1))
        assert image_iso_class(f).mult() == {("t", 2, 1): 1}

    def test_z_onto_torsion_forgets_rank(self):
        c = ab()
        z = make_obj(c, (1, ()))
        z6 = make_obj(c, (0, (6,)))
        f = make_mor(z, z6, Mat.from_rows([[1]], ncols=1))
        assert image_iso_class(f).mult() == {("t", 2, 1): 1, ("t", 3, 1): 1}

    def test_payload_canonicalized_mod_relations(self):
        c = finab()
        z4 = make_obj(c, (0, (4,)))
        f = make_mor(z4, z4, Mat.from_rows([[5]], ncols=1))
        g = make_mor(z4, z4, Mat.from_rows([[1]], ncols=1))
        assert f == g

    def test_ill_defined_payload_rejected(self):
        c = ab()
        z2 = make_obj(c, (0, (2,)))
        z = make_obj(c, (1, ()))
        with pytest.raises(CategoryError):
            make_mor(z2, z, Mat.from_rows([[1]], ncols=1))

    def test_iso_detects_multiplication(self):
        c = finab()
        z4 = make_obj(c, (0, (4,)))
        assert is_isomorphism(make_mor(z4, z4, Mat.from_rows([[3]], ncols=1)))
        assert not is_isomorphism(make_mor(z4, z4, Mat.from_rows([[2]], ncols=1)))

    def test_image_matches_group_table_oracle(self):
        rng = random.Random(7)
        c = finab()
        for _ in range(25):
            src = random_obj(c, rng)
            tgt = random_obj(c, rng)
            f = random_mor(src, tgt, rng)
            img = image_iso_class(f)
            # enumerate the image subgroup inside the finite target group
            _, invs_t = tgt.data
            table = FiniteGroupTable(invs_t)
            gens = [tuple(f.payload[i, j] % d for i, d in enumerate(invs_t))
                    for j in range(f.payload.cols)]
            sub = table.subgroup_generated(gens)
            expected = cyclic_decomposition_by_profile(table, sub)
            assert list(invariants_from_iso(img)[1]) == expected


# [[1, 1], [2, 3]] and [[2, 3], [4, 6]] meet a pivot that does not divide,
# so their reduction over QQ leaves Z; [[2]] has image 2Z, free of rank 1
# (over F_2 it reads 0)
_FREE_TARGET_PAYLOADS = [([[1, 1], [2, 3]], 2), ([[2, 3], [4, 6]], 1), ([[2]], 1),
                         ([[2, 4], [3, 6]], 1), ([[0, 0]], 0), ([[3, 1, 2]], 1)]


@pytest.mark.parametrize("rows, rank", _FREE_TARGET_PAYLOADS)
def test_ab_image_at_free_target_is_free_of_rational_rank(rows, rank):
    c = ab()
    f = make_mor(make_obj(c, (len(rows[0]), ())), make_obj(c, (len(rows), ())), rows)
    assert image_iso_class(f) == image_iso_class_oracle(f) == iso_from_invariants(c, rank, ())


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32), st.booleans())
def test_ab_image_matches_quotient_oracle(seed, free):
    """Free targets (read by rank) and targets with torsion (presented
    quotients) against `lattice_quotient_oracle`."""
    rng = random.Random(seed)
    c = ab()
    src = random_obj(c, rng)
    tgt = make_obj(c, (rng.randint(0, 3), ())) if free else random_obj(c, rng)
    f = random_mor(src, tgt, rng)
    assert image_iso_class(f) == image_iso_class_oracle(f)


class TestRepn:
    def test_inclusion_into_jordan_block(self):
        c = repn(QQ)
        lam = Fraction(2)
        line = make_obj(c, Mat.from_rows([[lam]], ncols=1))
        block = make_obj(c, Mat.from_rows([[lam, 1], [0, lam]], ncols=2).map(Fraction))
        f = make_mor(line, block, Mat.from_rows([[1], [0]], ncols=1).map(Fraction))
        assert image_iso_class(f).mult() == {("j", lam, 1): 1}

    def test_non_intertwiner_rejected(self):
        c = repn(QQ)
        a = make_obj(c, Mat.from_rows([[Fraction(0)]], ncols=1))
        b = make_obj(c, Mat.from_rows([[Fraction(1)]], ncols=1))
        with pytest.raises(CategoryError):
            make_mor(a, b, Mat.from_rows([[1]], ncols=1).map(Fraction))

    def test_projection_of_jordan_block(self):
        c = repn(QQ)
        lam = Fraction(0)
        block = make_obj(c, Mat.from_rows([[lam, 1], [0, lam]], ncols=2).map(Fraction))
        line = make_obj(c, Mat.from_rows([[lam]], ncols=1))
        f = make_mor(block, line, Mat.from_rows([[0, 1]], ncols=2).map(Fraction))
        assert image_iso_class(f).mult() == {("j", lam, 1): 1}


class TestGeneric:
    @pytest.mark.parametrize("cat", ALL_CATS, ids=lambda c: f"{c.kind}-{getattr(c.field, 'name', '')}")
    def test_classes_are_effective_split_group_elements(self, cat):
        """The class of an object and of an image is an element of the
        split group A of its category, in canonical form, with positive
        coefficients only."""
        rng = random.Random(19)
        for _ in range(20):
            a, b = random_obj(cat, rng), random_obj(cat, rng)
            f = random_mor(a, b, rng)
            images = [] if f is None else [image_iso_class(f)]
            for c in [iso_class(a), iso_class(b), *images]:
                assert type(c) is GroupElem and (c.group, c.cat) == ("A", cat)
                assert c == _make_elem("A", cat, c.mult())
                assert all(v > 0 for _, v in c.coeffs)

    @pytest.mark.parametrize("cat", ALL_CATS, ids=lambda c: f"{c.kind}-{getattr(c.field, 'name', '')}")
    def test_identity_and_zero_laws(self, cat):
        rng = random.Random(11)
        for _ in range(10):
            a = random_obj(cat, rng)
            b = random_obj(cat, rng)
            if cat.kind == "finset" and b.data == 0 and a.data > 0:
                continue
            f = random_mor(a, b, rng)
            assert compose(f, identity_mor(a)) == f
            assert compose(identity_mor(b), f) == f
            assert is_isomorphism(identity_mor(a))

    @pytest.mark.parametrize("cat", ALL_CATS, ids=lambda c: f"{c.kind}-{getattr(c.field, 'name', '')}")
    def test_direct_sum_class_is_union(self, cat):
        rng = random.Random(13)
        for _ in range(10):
            a = random_obj(cat, rng)
            b = random_obj(cat, rng)
            s = direct_sum_obj(a, b)
            assert iso_class(s) == add(iso_class(a), iso_class(b))


def _raw_payload(m: Mor, rng) -> Mor:
    """m built as Mor directly, the torsion rows of its payload moved off
    their canonical residues by multiples of the invariant factors."""
    rank, invs = m.tgt.data
    rows = m.payload.to_lists()
    for j, d in enumerate(invs):
        rows[rank + j] = [v + d * rng.randint(-2, 3) for v in rows[rank + j]]
    return Mor(m.src, m.tgt, Mat.from_rows(rows, ncols=m.payload.cols))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(ALL_CATS), st.lists(st.booleans(), min_size=3, max_size=3),
       st.lists(st.booleans(), min_size=2, max_size=2), st.integers(0, 2 ** 32))
def test_compose_matches_the_validating_oracle(cat, zero, raw, seed):
    # compose neither re-validates a composite nor multiplies through a
    # zero object; make_mor of the dense product must agree exactly
    rng = random.Random(seed)
    a, b, c = (identity_obj(cat) if z else random_obj(cat, rng, max_size=3) for z in zero)
    f, g = random_mor(a, b, rng), random_mor(b, c, rng)
    assume(None not in (f, g))  # finset has no map into the empty set
    if cat.kind in ("ab", "finab"):
        f, g = (_raw_payload(m, rng) if r else m for m, r in zip((f, g), raw))
    assert compose(g, f) == compose_oracle(g, f)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ALL_CATS), st.integers(0, 2 ** 32))
def test_composition_is_associative_and_unital(cat, seed):
    # the interleaving sweep reuses running composites and skips identity
    # steps, so it rests on both laws holding exactly under Mor equality
    rng = random.Random(seed)
    a, b, c, d = (random_obj(cat, rng, max_size=3) for _ in range(4))
    f, g, h = random_mor(a, b, rng), random_mor(b, c, rng), random_mor(c, d, rng)
    assume(None not in (f, g, h))  # finset has no map into the empty set
    assert compose(h, compose(g, f)) == compose(compose(h, g), f)
    for m in (f, compose(g, f)):
        assert compose(m, identity_mor(m.src)) == m == compose(identity_mor(m.tgt), m)
    if cat.kind in ("ab", "finab"):
        # a payload whose torsion rows are not reduced: composing with
        # either identity reduces it to the canonical one
        rank, invs = b.data
        rows = f.payload.to_lists()
        for j, n in enumerate(invs):
            rows[rank + j] = [v + n * rng.randint(-2, 3) for v in rows[rank + j]]
        raw = Mor(a, b, Mat.from_rows(rows, ncols=f.payload.cols))
        assert compose(raw, identity_mor(a)) == f == compose(identity_mor(b), raw)
        assert compose(g, raw) == compose(g, f)


def _bijective_on_elements(f) -> bool:
    """A morphism of finite abelian groups, applied to every element."""
    src = FiniteGroupTable(f.src.data[1])
    invs_t = f.tgt.data[1]
    images = {tuple(sum(f.payload[i, k] * x[k] for k in range(len(x))) % d
                    for i, d in enumerate(invs_t))
              for x in src.elements}
    return len(images) == len(src.elements) == prod(invs_t)


class TestIsIsomorphism:
    """type_A_diagram skips every value whose connecting morphism
    is_isomorphism accepts, so an accepted map must really be invertible."""

    def test_finset_matches_bijectivity_on_every_small_map(self):
        c = finset()
        for n, m in product(range(4), repeat=2):
            for table in product(range(m), repeat=n):
                f = make_mor(make_obj(c, n), make_obj(c, m), table)
                assert is_isomorphism(f) == (n == m and len(set(table)) == n)

    def test_finab_matches_bijectivity_on_elements(self):
        rng = random.Random(29)
        c = finab()
        seen = set()
        for _ in range(80):
            src = random_obj(c, rng)
            tgt = src if rng.random() < 0.6 else random_obj(c, rng)
            f = random_mor(src, tgt, rng)
            expected = _bijective_on_elements(f)
            assert is_isomorphism(f) == expected, f
            seen.add(expected)
        assert seen == {True, False}

    def test_ab_matches_unimodularity(self):
        # between free groups of one rank, the product of the pivots of the
        # reduction over QQ decides; [[1, 1], [2, 3]] is unimodular, with
        # pivots 2 and -1/2
        c = ab()
        fixed = [([[1, 1], [2, 3]], True), ([[2, 0], [0, 1]], False),
                 ([[1, 2], [2, 4]], False), ([[2, 3], [4, 6]], False)]
        for rows, expected in fixed:
            a = make_obj(c, (2, ()))
            assert is_isomorphism(make_mor(a, a, rows)) == expected == \
                is_unimodular(Mat.from_rows(rows))
        rng = random.Random(43)
        seen = set()
        for _ in range(120):
            a = make_obj(c, (rng.randint(0, 3), ()))
            f = random_mor(a, a, rng) if rng.random() < 0.6 else random_automorphism(a, rng)
            expected = is_unimodular(f.payload)
            assert is_isomorphism(f) == expected, f.payload
            seen.add(expected)
        assert seen == {True, False}

    @pytest.mark.parametrize("rows, expected", [([[1, 1], [2, 3]], True),
                                                ([[2, 1], [1, 1]], True),
                                                ([[2, 0], [0, 1]], False)])
    def test_ab_free_target_builds_no_quotient(self, monkeypatch, rows, expected):
        # the pivots of [[1, 1], [2, 3]] are 2 and -1/2: no pivot is +-1,
        # yet their product is
        built = []
        real = categories.LatticeQuotient
        monkeypatch.setattr(categories, "LatticeQuotient",
                            lambda *args: built.append(args) or real(*args))
        a = make_obj(ab(), (2, ()))
        assert is_isomorphism(make_mor(a, a, rows)) == expected == \
            is_unimodular(Mat.from_rows(rows))
        assert built == []

    @pytest.mark.parametrize("field", [QQ, PrimeField(2)], ids=lambda F: F.name)
    def test_vect_matches_dense_rank(self, field):
        rng = random.Random(31)
        c = vect(field)
        seen = set()
        for _ in range(80):
            src = random_obj(c, rng)
            tgt = src if rng.random() < 0.7 else random_obj(c, rng)
            f = random_mor(src, tgt, rng)
            expected = src.data == tgt.data and rref_rank(field, f.payload) == src.data
            assert is_isomorphism(f) == expected, f
            seen.add(expected)
        assert seen == {True, False}

    @pytest.mark.parametrize("cat", ALL_CATS, ids=lambda c: f"{c.kind}-{getattr(c.field, 'name', '')}")
    def test_automorphisms_are_isomorphisms(self, cat):
        # identities: TestGeneric.test_identity_and_zero_laws
        rng = random.Random(37)
        for _ in range(10):
            a = random_obj(cat, rng)
            g = random_automorphism(a, rng)
            assert is_isomorphism(g)
            assert is_isomorphism(compose(g, random_automorphism(a, rng)))


def test_invariants_round_trip():
    c = ab()
    for rank, invs in [(0, ()), (2, ()), (0, (2, 4)), (1, (2, 6, 12)), (0, (60,))]:
        iso = iso_from_invariants(c, rank, invs)
        assert invariants_from_iso(iso) == (rank, tuple(invs))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.lists(st.sampled_from([2, 3, 4, 8, 9, 6, 12]), max_size=3))
def test_invariants_round_trip_random(rank, raw):
    # build a valid divisibility chain from arbitrary cyclic orders
    chain = []
    for d in sorted(raw):
        if not chain or d % chain[-1] == 0:
            chain.append(d)
    c = ab()
    iso = iso_from_invariants(c, rank, chain)
    assert invariants_from_iso(iso) == (rank, tuple(chain))
