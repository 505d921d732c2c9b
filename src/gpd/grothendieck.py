"""Grothendieck groups of the category backends.

The split group A (free on indecomposable classes) and the
exact-sequence quotient group B are both represented in explicit free
bases, so group elements are finitely supported integer maps and the
translation invariant order is componentwise nonnegativity of the
difference.  The isomorphism class of an object is an effective element
of A.  B is a quotient of A, and `b_class` is the quotient map
pi: A -> B; isomorphism classes reach B only through it.
"""

from __future__ import annotations

from fractions import Fraction

from .matrix import Value, _set


class NoBGroupError(Exception):
    """The category of finite sets is not abelian and has no quotient group."""


class GroupElem(Value):
    """Element of the split ('A') or quotient ('B') Grothendieck group."""

    __slots__ = ("group", "cat", "coeffs")
    __hash__ = Value.__hash__  # a class defining __eq__ alone is unhashable
    group: str  # 'A' or 'B'
    cat: object  # categories.Category
    coeffs: tuple  # sorted tuple of (basis key, nonzero int)

    def __init__(self, group, cat, coeffs):
        _set(self, "group", group)
        _set(self, "cat", cat)
        _set(self, "coeffs", coeffs)

    def __eq__(self, other):
        if other.__class__ is not GroupElem:
            return NotImplemented
        return self.coeffs == other.coeffs and self.group == other.group and self.cat == other.cat

    def mult(self) -> dict:
        return dict(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __repr__(self):
        return f"GroupElem({self.group}, {dict(self.coeffs)!r})"


def _key_sort(group: str, key):
    """The basis order of both groups, names first.  The basis of A is
    the indecomposables: 'pt' (singleton set), 'line' (1-dim space), 'Z'
    (infinite cyclic), ('t', p, m) for Z/p^m and ('j', lam, m) for a
    Jordan block of size m at eigenvalue lam.  The basis of B is 'dim',
    'rank', and the primes or eigenvalues that carry a length."""
    if isinstance(key, str):
        return (0, key)
    if group == "B":
        return (1, key)
    kind, x, m = key
    if kind == "t":
        return (1, x, m)
    return (2, Fraction(x) if not isinstance(x, int) else x, m)


def _make_elem(group: str, cat, counter: dict) -> GroupElem:
    items = tuple(sorted(((k, v) for k, v in counter.items() if v),
                         key=lambda it: _key_sort(group, it[0])))
    return GroupElem(group, cat, items)


def zero_elem(group: str, cat) -> GroupElem:
    return GroupElem(group, cat, ())


def b_class(x: GroupElem) -> GroupElem:
    """The quotient homomorphism pi: A(C) -> B(C) on a split-group element.

    B(C) is A(C) modulo the relations [middle] = [sub] + [quotient] of
    short exact sequences, so pi sends each indecomposable to its
    quotient class and extends linearly (negative coefficients
    included): a line keeps its dimension, Z its free rank, Z/p^m the
    length m at p (zero in fgab, where torsion dies), and a Jordan
    block of size m the length m at its eigenvalue.
    """
    if x.group != "A":
        raise ValueError("the quotient map acts on split-group elements")
    cat = x.cat
    if not cat.abelian:
        raise NoBGroupError("finite sets have no exact-sequence Grothendieck group")
    counter: dict = {}
    for d, cnt in x.coeffs:
        if d == "line":
            counter["dim"] = counter.get("dim", 0) + cnt
        elif d == "Z":
            counter["rank"] = counter.get("rank", 0) + cnt
        elif d[0] == "t":
            if cat.kind == "finab":
                _, p, m = d
                counter[p] = counter.get(p, 0) + m * cnt
        else:
            _, lam, m = d
            counter[lam] = counter.get(lam, 0) + m * cnt
    return _make_elem("B", cat, counter)


def _check_compatible(x: GroupElem, y: GroupElem):
    if x.group != y.group or x.cat != y.cat:
        raise ValueError(f"incompatible group elements: {x.group}/{x.cat} vs {y.group}/{y.cat}")


def add(x: GroupElem, y: GroupElem) -> GroupElem:
    _check_compatible(x, y)
    if not y.coeffs:
        return x
    if not x.coeffs:
        return y
    counter = dict(x.coeffs)
    for k, v in y.coeffs:
        counter[k] = counter.get(k, 0) + v
    return _make_elem(x.group, x.cat, counter)


def neg(x: GroupElem) -> GroupElem:
    return GroupElem(x.group, x.cat, tuple((k, -v) for k, v in x.coeffs))


def sub(x: GroupElem, y: GroupElem) -> GroupElem:
    return add(x, neg(y))


def leq(x: GroupElem, y: GroupElem) -> bool:
    """x precedes y iff y - x has nonnegative multiplicity everywhere.

    In every supported backend the positive cone of the group is exactly
    the nonnegative orthant of the chosen free basis, so the order
    induced by effective classes reduces to this componentwise test,
    read off the two coefficient maps without forming y - x.
    """
    _check_compatible(x, y)
    return _leq_coeffs(x.coeffs, y.coeffs)


def _leq_coeffs(xc: tuple, yc: tuple) -> bool:
    """`leq` on the coefficient tuples of two elements of one group."""
    rest = dict(yc)
    for k, v in xc:
        if rest.pop(k, 0) < v:
            return False
    return all(v >= 0 for v in rest.values())
