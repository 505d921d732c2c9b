"""Small immutable matrices with exact entries.

Entries are plain Python numbers (int or Fraction) or field residues;
no floating point is allowed anywhere in this library.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from operator import attrgetter

_set = object.__setattr__


class Value:
    """Base of the immutable value classes.  A subclass's annotated names
    are its fields, a class attribute of the same name a default, and
    `__post_init__` checks them once set.  Equality and hash go by class
    and field tuple; assignment raises AttributeError.  Hot subclasses
    add `__slots__` and a direct `__init__` and `__eq__`."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._values = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        cls, names = type(self), self._fields
        given = dict(**dict(zip(names, args)), **kwargs)  # a name given twice raises TypeError
        if len(args) > len(names) or not given.keys() <= set(names):
            raise TypeError(f"bad arguments for {cls.__name__}")
        for name in names:
            if name in given:
                _set(self, name, given[name])
            elif name not in cls.__dict__:  # a default is read through the class
                raise TypeError(f"{cls.__name__} needs {name!r}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of an immutable {type(self).__name__}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Mat(Value):
    __slots__ = ("rows", "cols", "data")
    __hash__ = Value.__hash__  # a class defining __eq__ alone is unhashable
    rows: int
    cols: int
    data: tuple  # tuple of row tuples

    def __init__(self, rows, cols, data):
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "data", data)

    def __eq__(self, other):
        if other.__class__ is not Mat:
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self.data == other.data

    @staticmethod
    def from_rows(rows: Sequence[Sequence], ncols: int | None = None) -> "Mat":
        rows = [tuple(r) for r in rows]
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged rows")
        elif ncols is None:
            ncols = 0
        return Mat(len(rows), ncols, tuple(rows))

    @staticmethod
    def zero(rows: int, cols: int, zero=0) -> "Mat":
        return Mat(rows, cols, tuple(tuple(zero for _ in range(cols)) for _ in range(rows)))

    @staticmethod
    def identity(n: int, one=1, zero=0) -> "Mat":
        return Mat(n, n, tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)))

    @staticmethod
    def from_cols(cols: Sequence[Sequence], nrows: int | None = None) -> "Mat":
        cols = [tuple(c) for c in cols]
        if cols:
            nrows = len(cols[0])
            if any(len(c) != nrows for c in cols):
                raise ValueError("ragged columns")
        elif nrows is None:
            nrows = 0
        return Mat(nrows, len(cols), tuple(zip(*cols)) if cols else ((),) * nrows)

    def __getitem__(self, ij: tuple[int, int]):
        i, j = ij
        return self.data[i][j]

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.data)

    def columns(self) -> list[tuple]:
        return list(zip(*self.data)) if self.rows else [()] * self.cols

    def mul(self, other: "Mat") -> "Mat":
        """The product self @ other, at a cost that follows the nonzeros:
        each nonzero entry a = self[i, k] adds a times the nonzero entries
        of row k of other to row i, and zeros cost one test each.
        """
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        n = other.cols
        right = [[(j, b) for j, b in enumerate(r) if b] for r in other.data]
        out = []
        for ri in self.data:
            acc = [0] * n
            for a, rk in zip(ri, right):
                if a:
                    for j, b in rk:
                        acc[j] += a * b
            out.append(tuple(acc))
        return Mat(self.rows, n, tuple(out))

    def __matmul__(self, other: "Mat") -> "Mat":
        return self.mul(other)

    def hstack(self, other: "Mat") -> "Mat":
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        return Mat(self.rows, self.cols + other.cols,
                   tuple(self.data[i] + other.data[i] for i in range(self.rows)))

    def block_sum(self, other: "Mat") -> "Mat":
        """The block diagonal matrix with self above and left of other,
        zeros elsewhere."""
        right, left = (0,) * other.cols, (0,) * self.cols
        return Mat(self.rows + other.rows, self.cols + other.cols,
                   tuple(r + right for r in self.data) + tuple(left + r for r in other.data))

    def take_cols(self, idx: Iterable[int]) -> "Mat":
        idx = list(idx)
        return Mat(self.rows, len(idx),
                   tuple(tuple(self.data[i][j] for j in idx) for i in range(self.rows)))

    def take_rows(self, idx: Iterable[int]) -> "Mat":
        idx = list(idx)
        return Mat(len(idx), self.cols, tuple(self.data[i] for i in idx))

    def map(self, f: Callable) -> "Mat":
        return Mat(self.rows, self.cols, tuple(tuple(f(v) for v in r) for r in self.data))

    def scale(self, c) -> "Mat":
        return self.map(lambda v: c * v)

    def to_lists(self) -> list[list]:
        return [list(r) for r in self.data]

    def __repr__(self) -> str:
        return f"Mat({self.rows}x{self.cols}, {self.to_lists()})"

