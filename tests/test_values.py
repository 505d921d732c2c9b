"""Value semantics of the immutable classes of gpd: equality and hash on
the field tuple, no assignment, keyword construction, the checks made at
construction, and the reprs."""

from fractions import Fraction as Fr

import pytest

from gpd.categories import Category, CategoryError, Mor, Obj, ab, identity_obj, vect
from gpd.diagram import DiagramGrid, PositivityReport
from gpd.exact import QQ, SnfResult
from gpd.grothendieck import GroupElem
from gpd.homology import FilteredComplex, FiltrationError, MissingFaceError
from gpd.matrix import Mat, Value
from gpd.metrics import ErosionReport
from gpd.pmodule import ConstructibleModule, InterleavingPair, ModuleError


def _obj(rank):
    return Obj(ab(), (rank, ()))


def _mat(v):
    return Mat(1, 1, ((v,),))


# class -> (field names, two builders of different field tuples, repr of
# the first).  Each call of a builder makes new, equal field values.
VALUES = {
    Category: (("kind", "field"), lambda: ("vect", QQ), lambda: ("ab", None),
               "Category(vect, QQ)"),
    Obj: (("cat", "data"), lambda: (ab(), (1, (2,))), lambda: (ab(), (0, ())),
          "Obj(ab, (1, (2,)))"),
    Mor: (("src", "tgt", "payload"), lambda: (_obj(1), _obj(1), _mat(1)),
          lambda: (_obj(1), _obj(1), _mat(-1)), "Mor((1, ()) -> (1, ()))"),
    DiagramGrid: (("group", "cat", "grid", "cells", "role"),
                  lambda: ("A", ab(), (Fr(0),), (), "diagram"),
                  lambda: ("A", ab(), (Fr(0),), (), "constructible"),
                  "DiagramGrid(group='A', cat=Category(ab), grid=(Fraction(0, 1),), cells=(), "
                  "role='diagram')"),
    PositivityReport: (("ok", "negative_cells", "witnesses", "matches"),
                       lambda: (True, (), (), True), lambda: (False, ((1, 2),), (), True),
                       "PositivityReport(ok=True, negative_cells=(), witnesses=(), matches=True)"),
    SnfResult: (("U", "D", "Uinv"), lambda: (_mat(1), _mat(2), _mat(1)),
                lambda: (_mat(-1), _mat(2), _mat(-1)),
                "SnfResult(U=Mat(1x1, [[1]]), D=Mat(1x1, [[2]]), Uinv=Mat(1x1, [[1]]))"),
    GroupElem: (("group", "cat", "coeffs"), lambda: ("A", ab(), (("Z", 1),)),
                lambda: ("B", ab(), (("rank", 1),)), "GroupElem(A, {'Z': 1})"),
    FilteredComplex: (("simplices", "values"),
                      lambda: (((0,), (1,), (0, 1)), (Fr(0), Fr(0), Fr(1))),
                      lambda: (((0,), (1,), (0, 1)), (Fr(0), Fr(1), Fr(1))),
                      "FilteredComplex(simplices=((0,), (1,), (0, 1)), "
                      "values=(Fraction(0, 1), Fraction(0, 1), Fraction(1, 1)))"),
    Mat: (("rows", "cols", "data"), lambda: (1, 2, ((1, 0),)), lambda: (1, 2, ((0, 1),)),
          "Mat(1x2, [[1, 0]])"),
    ErosionReport: (("distance", "table"), lambda: (Fr(1), ((Fr(1), True),)),
                    lambda: (None, ((Fr(1), False),)),
                    "ErosionReport(distance=Fraction(1, 1), table=((Fraction(1, 1), True),))"),
    ConstructibleModule: (("cat", "values", "objects", "morphisms"),
                          lambda: (ab(), (), (identity_obj(ab()),), ()),
                          lambda: (vect(), (), (identity_obj(vect()),), ()),
                          "ConstructibleModule(cat=Category(ab), values=(), "
                          "objects=(Obj(ab, (0, ())),), morphisms=())"),
    InterleavingPair: (("eps", "phi_grid", "phi", "psi_grid", "psi"),
                       lambda: (Fr(1, 2), (), (), (), ()), lambda: (Fr(1), (), (), (), ()),
                       "InterleavingPair(eps=Fraction(1, 2), phi_grid=(), phi=(), "
                       "psi_grid=(), psi=())"),
}

class Pair(Value):
    """Two fields, as Obj and ErosionReport have, and no checks."""

    first: object
    second: object


class Triple(Value):
    """Three fields, as Mor has, and no checks."""

    first: object
    second: object
    third: object


# Classes with the same number of fields, none checked at construction.
TWINS = {Obj: Pair, ErosionReport: Pair, Mor: Triple, GroupElem: Mat, Mat: Mor}


@pytest.mark.parametrize("cls", list(VALUES), ids=lambda cls: cls.__name__)
def test_value_semantics(cls):
    names, first, second, text = VALUES[cls]
    x, y, z = cls(*first()), cls(*first()), cls(*second())
    assert x == y and hash(x) == hash(y) and not x != y
    assert x != z and z != x and z == cls(*second())
    assert x != first() and x != object()
    assert tuple(getattr(x, name) for name in names) == first()
    assert cls(**dict(zip(names, first()))) == x
    assert cls(*first()[:1], **dict(zip(names[1:], first()[1:]))) == x
    assert len({x, y, z}) == 2
    assert repr(x) == text
    if cls in TWINS:
        assert TWINS[cls](*first()) != x
    for name in (*names, "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == y
    with pytest.raises(TypeError):
        cls(*first(), None)
    with pytest.raises(TypeError):
        cls(*first(), **{names[0]: first()[0]})


def test_category_default_field():
    assert Category("ab") == Category(kind="ab") == Category("ab", field=None) == ab()
    assert Category("ab").field is None and hash(Category("ab")) == hash(ab())
    with pytest.raises(TypeError):
        Category()


@pytest.mark.parametrize("build, error", [
    (lambda: Category("vect"), CategoryError),
    (lambda: Category("ab", QQ), CategoryError),
    (lambda: FilteredComplex(((0,), (0,)), (Fr(0), Fr(0))), FiltrationError),
    (lambda: FilteredComplex(((0,), (2,)), (Fr(0), Fr(0))), FiltrationError),
    (lambda: FilteredComplex(((0,), (0, 1)), (Fr(0), Fr(1))), MissingFaceError),
    (lambda: FilteredComplex(((0,), (1,), (0, 1)), (Fr(1), Fr(0), Fr(0))), FiltrationError),
    (lambda: ConstructibleModule(ab(), (Fr(0),), (identity_obj(ab()),), ()), ModuleError),
    (lambda: ConstructibleModule(ab(), (), (_obj(1),), ()), ModuleError),
    (lambda: ConstructibleModule(vect(), (), (identity_obj(ab()),), ()), ModuleError),
], ids=["vect-no-field", "ab-with-field", "duplicate-simplex", "sparse-vertices",
        "missing-face", "value-inversion", "lengths", "first-object", "category"])
def test_construction_checks_still_raise(build, error):
    with pytest.raises(error):
        build()


def test_cached_properties_still_cache():
    K = FilteredComplex(((0,), (1,), (0, 1)), (Fr(0), Fr(1), Fr(1)))
    assert K.critical_values == (Fr(0), Fr(1)) and K.critical_values is K.critical_values
    assert K._by_dim is K._by_dim and K == FilteredComplex(*VALUES[FilteredComplex][2]())
    one = GroupElem("A", ab(), (("Z", 1),))
    Y = DiagramGrid("A", ab(), (Fr(0), Fr(1)), (((1, 2), one),), "diagram")
    assert Y.cumulative is Y.cumulative and "cumulative" in vars(Y)
    assert Y == DiagramGrid("A", ab(), (Fr(0), Fr(1)), (((1, 2), one),), "diagram")
