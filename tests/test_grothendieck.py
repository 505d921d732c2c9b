"""Grothendieck group arithmetic and the translation-invariant order."""

import random
from fractions import Fraction

import pytest

from gpd.categories import (
    ab,
    direct_sum_obj,
    finab,
    finset,
    iso_class,
    iso_from_invariants,
    make_obj,
    repn,
    vect,
)
from gpd.exact import QQ, PrimeField
from gpd.grothendieck import (
    NoBGroupError,
    add,
    b_class,
    leq,
    neg,
    sub,
    zero_elem,
)
from gpd.matrix import Mat

from generators import ALL_CATS, random_obj


def test_b_class_vect_is_dimension():
    c = vect(QQ)
    assert b_class(iso_class(make_obj(c, 3))).mult() == {"dim": 3}


def test_b_class_ab_forgets_torsion():
    c = ab()
    obj = make_obj(c, (2, (9,)))
    assert b_class(iso_class(obj)).mult() == {"rank": 2}


def test_b_class_finab_counts_prime_lengths():
    c = finab()
    z8 = make_obj(c, (0, (8,)))
    assert b_class(iso_class(z8)).mult() == {2: 3}
    z12 = make_obj(c, (0, (2, 12)))  # Z/2 + Z/4 + Z/3 in primary form
    assert b_class(iso_class(z12)).mult() == {2: 3, 3: 1}


def test_b_class_repn_counts_block_sizes():
    c = repn(QQ)
    lam = Fraction(2)
    block3 = make_obj(c, Mat.from_rows(
        [[lam, 1, 0], [0, lam, 1], [0, 0, lam]], ncols=3).map(Fraction))
    assert b_class(iso_class(block3)).mult() == {lam: 3}


def test_finset_has_no_b_group():
    c = finset()
    with pytest.raises(NoBGroupError):
        b_class(iso_class(make_obj(c, 2)))
    with pytest.raises(NoBGroupError):
        b_class(zero_elem("A", c))


def test_b_class_acts_on_split_group_elements_only():
    with pytest.raises(ValueError):
        b_class(zero_elem("B", vect(QQ)))


@pytest.mark.parametrize("cat", [c for c in ALL_CATS if c.abelian],
                         ids=lambda c: f"{c.kind}-{getattr(c.field, 'name', '')}")
def test_b_class_is_a_homomorphism(cat):
    """pi is linear on A, negative coefficients included."""
    rng = random.Random(7)
    for _ in range(10):
        x = iso_class(random_obj(cat, rng))
        y = iso_class(random_obj(cat, rng))
        assert b_class(sub(x, y)) == sub(b_class(x), b_class(y))
        assert b_class(neg(x)) == neg(b_class(x))


def test_short_exact_sequence_additivity():
    """[middle] = [sub] + [quotient] in the quotient group, per backend."""
    # 0 -> Z -2-> Z -> Z/2 -> 0 : quotient group forgets Z/2
    c = ab()
    mid = b_class(iso_class(make_obj(c, (1, ()))))
    ends = add(b_class(iso_class(make_obj(c, (1, ())))),
               b_class(iso_class(make_obj(c, (0, (2,))))))
    assert mid == ends
    # 0 -> Z/2 -> Z/4 -> Z/2 -> 0 : lengths at 2 add up
    cf = finab()
    mid = b_class(iso_class(make_obj(cf, (0, (4,)))))
    ends = add(b_class(iso_class(make_obj(cf, (0, (2,))))),
               b_class(iso_class(make_obj(cf, (0, (2,))))))
    assert mid == ends
    # 0 -> J_1(0) -> J_2(0) -> J_1(0) -> 0 : block sizes add per eigenvalue
    cr = repn(QQ)
    j2 = make_obj(cr, Mat.from_rows([[0, 1], [0, 0]], ncols=2).map(Fraction))
    j1 = make_obj(cr, Mat.from_rows([[0]], ncols=1).map(Fraction))
    assert b_class(iso_class(j2)) == add(b_class(iso_class(j1)), b_class(iso_class(j1)))


@pytest.mark.parametrize("cat", ALL_CATS, ids=lambda c: f"{c.kind}-{getattr(c.field, 'name', '')}")
def test_a_class_additive_on_direct_sums(cat):
    rng = random.Random(3)
    for _ in range(10):
        x, y = random_obj(cat, rng), random_obj(cat, rng)
        assert iso_class(direct_sum_obj(x, y)) == add(iso_class(x), iso_class(y))


def test_group_axioms_and_order():
    c = finab()
    x = b_class(iso_from_invariants(c, 0, (4,)))
    y = b_class(iso_from_invariants(c, 0, (3,)))
    z = zero_elem("B", c)
    assert sub(add(x, y), y) == x
    assert add(x, neg(x)) == z
    assert leq(z, x) and not leq(x, z)
    # partial: incomparable elements in different prime slots
    assert not leq(x, y) and not leq(y, x)
    # translation invariance: x <= y iff x + t <= y + t
    t = b_class(iso_from_invariants(c, 0, (2, 2)))
    assert leq(x, add(x, y)) == leq(add(x, t), add(add(x, y), t))


def test_order_is_componentwise():
    c = vect(QQ)
    two = b_class(iso_class(make_obj(c, 2)))
    three = b_class(iso_class(make_obj(c, 3)))
    assert leq(two, three)
    assert not leq(three, two)
    assert leq(two, two)
