"""Small immutable matrices with exact entries.

Entries are plain Python numbers (int or Fraction) or field residues;
no floating point is allowed anywhere in this library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence


@dataclass(frozen=True)
class Mat:
    rows: int
    cols: int
    data: tuple  # tuple of row tuples

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

    def add(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Mat(self.rows, self.cols,
                   tuple(tuple(a + b for a, b in zip(ra, rb))
                         for ra, rb in zip(self.data, other.data)))

    def is_zero(self) -> bool:
        return all(v == 0 for r in self.data for v in r)

    def to_lists(self) -> list[list]:
        return [list(r) for r in self.data]

    def __repr__(self) -> str:
        return f"Mat({self.rows}x{self.cols}, {self.to_lists()})"

