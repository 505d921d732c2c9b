from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from gpd.matrix import Mat

from oracles import dense_mul

# entries of each kind, zeros made likely; "F5" are residues in [0, 5)
_ENTRIES = {
    "int": st.integers(-3, 3) | st.just(0),
    "Fraction": st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
    "F5": st.integers(0, 4) | st.just(0),
    "mixed": st.integers(-3, 3) | st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
}
_ZEROS = {"int": [0], "Fraction": [Fraction(0)], "F5": [0], "mixed": [0, Fraction(0)]}


@st.composite
def _factors(draw):
    """A pair (A, B) of one entry kind with A.cols == B.rows, each side
    possibly empty, and some rows of each all zero."""
    kind = draw(st.sampled_from(sorted(_ENTRIES)))
    m, k, n = (draw(st.integers(0, 4)) for _ in range(3))

    def mat(rows, cols):
        out = []
        for _ in range(rows):
            if draw(st.integers(0, 3)) == 0:
                out.append([draw(st.sampled_from(_ZEROS[kind])) for _ in range(cols)])
            else:
                out.append([draw(_ENTRIES[kind]) for _ in range(cols)])
        return Mat.from_rows(out, ncols=cols)

    return mat(m, k), mat(k, n)


@settings(max_examples=400, deadline=None)
@given(_factors())
def test_mul_matches_dense_oracle(AB):
    A, B = AB
    C, O = A @ B, dense_mul(A, B)
    assert (C.rows, C.cols) == (O.rows, O.cols) == (A.rows, B.cols)
    assert C == O


def test_mul_of_zero_rows_matches_dense_oracle():
    A = Mat.from_rows([[0, 0], [Fraction(0), 0], [1, 0]])
    B = Mat.from_rows([[1, Fraction(1, 2)], [2, 0]])
    C = A @ B
    assert C == dense_mul(A, B)
    assert Mat.zero(2, 0) @ Mat.zero(0, 3) == Mat.zero(2, 3)
