import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpd import categories, exact
from gpd.categories import ab, image_iso_class, is_isomorphism, iso_class, make_mor, make_obj
from gpd.exact import (
    MAX_EXPONENT,
    QQ,
    ZZ,
    LatticeContainmentError,
    LatticeQuotient,
    NonSplitError,
    PrimeField,
    RationalField,
    column_reduce,
    column_space_basis,
    field_rank,
    field_solve,
    is_prime,
    jordan_type,
    kernel,
    parse_rational,
    preimage,
    smith_normal_form,
)
from gpd.matrix import Mat

from oracles import (
    FiniteGroupTable,
    assert_snf_sides_match_oracle,
    dense_smith_normal_form,
    det_int,
    invariants_from_minor_gcds,
    is_unimodular,
    lattice_basis,
    lattice_contains,
    lattice_intersection,
    lattice_quotient_oracle,
    rref_column_space_basis,
    rref_rank,
    rref_solve,
    solve_int,
)

small_matrices = st.integers(0, 4).flatmap(
    lambda m: st.integers(0, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-5, 5), min_size=n, max_size=n),
            min_size=m, max_size=m,
        ).map(lambda rows: Mat.from_rows(rows, ncols=n))
    )
)


class TestSmithNormalForm:
    def test_identity(self):
        s = smith_normal_form(Mat.identity(2))
        assert s.D == s.U == s.Uinv == Mat.identity(2)
        assert dense_smith_normal_form(Mat.identity(2)).V == Mat.identity(2)

    def test_known_invariants(self):
        s = smith_normal_form(Mat.from_rows([[2, 4], [6, 8]]))
        assert s.invariant_factors == (2, 4)
        assert s.cokernel == (0, (2, 4)) and s.canonical == [(0, 2), (1, 4)]
        s = smith_normal_form(Mat.from_rows([[1, 0], [0, 2], [0, 0]]))
        assert s.cokernel == (1, (2,)) and s.canonical == [(2, 0), (1, 2)]

    def test_zero_matrix(self):
        s = smith_normal_form(Mat.zero(3, 2))
        assert s.D == Mat.zero(3, 2)
        assert s.invariant_factors == ()
        assert s.cokernel == (3, ()) and s.canonical == [(0, 0), (1, 0), (2, 0)]

    @settings(max_examples=200, deadline=None)
    @given(small_matrices)
    def test_reassembly_and_unimodularity(self, M):
        # the same steps as the dense oracle, whose V completes U M V = D
        s = smith_normal_form(M)
        V = dense_smith_normal_form(M).V
        assert s.U @ M @ V == s.D
        assert is_unimodular(s.U) and is_unimodular(V)
        assert s.U @ s.Uinv == Mat.identity(M.rows)
        # divisibility chain
        invs = s.invariant_factors
        for a, b in zip(invs, invs[1:]):
            assert b % a == 0

    @settings(max_examples=150, deadline=None)
    @given(small_matrices)
    def test_invariants_match_minor_gcd_oracle(self, M):
        s = smith_normal_form(M)
        invs = invariants_from_minor_gcds(M)
        assert list(s.invariant_factors) == invs
        assert s.cokernel == (M.rows - len(invs), tuple(d for d in invs if d > 1))

    @settings(max_examples=150, deadline=None)
    @given(small_matrices)
    def test_each_side_matches_dense_oracle(self, M):
        assert_snf_sides_match_oracle(M)

    def test_entries_stay_small(self):
        # coordinates of 4 Z^10 in a basis of an image lattice over Z/4 (torus H1,
        # perturbed); Euclidean remainder chains grew its entries past 10**100
        C = Mat.from_rows([
            [4, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            [-12, 4, 0, 0, 0, 0, 0, 0, 0, 0],
            [12, -4, 4, 0, 0, 0, 0, 0, 0, 0],
            [-12, 4, -4, 4, 0, 0, 0, 0, 0, 0],
            [44, -16, 12, -12, 4, 0, 0, 0, 0, 0],
            [-24, 4, -4, 0, 0, 4, 0, 0, 0, 0],
            [-12, 4, -4, 0, 0, 4, -4, 0, 0, 0],
            [0, 0, 4, 0, -4, -4, 4, 0, 4, 0],
            [0, 0, 4, 44, -4, -68, 68, 16, -12, 4],
            [0, 0, -397, -4359, 397, 6737, -6737, -1585, 1188, -396],
        ])
        s = smith_normal_form(C)
        V = dense_smith_normal_form(C).V
        assert s.U @ C @ V == s.D and s.invariant_factors == (1,) + (4,) * 9
        assert max(abs(v) for T in (s.U, V) for r in T.data for v in r) < 10 ** 4


remainder_matrices = st.integers(0, 6).flatmap(
    lambda m: st.integers(0, 8).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3, 6]), min_size=n, max_size=n),
            min_size=m, max_size=m,
        ).map(lambda rows: Mat.from_rows(rows, ncols=n))
    )
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_matrices, remainder_matrices))
@example(Mat.from_rows([[2, 3]]))  # 3 leaves 2 under the pivot 2: Euclid swaps twice
def test_integer_column_reduce_zero_columns_are_an_echelon_basis_of_every_prefix_kernel(M):
    """R = M V with V integer and unimodular; the V of a zero column j has
    lowest row j, so the zero columns have distinct lows; and for every
    prefix q, the zero columns of low below q span the integer kernel of
    the first q columns, that of the dense Smith normal form oracle."""
    cols = [{i: x for i, x in enumerate(col) if x} for col in M.columns()]
    R, lows, V = column_reduce(ZZ, cols, track=True)
    n = M.cols
    assert all(type(x) is int for v in V for x in v.values())
    Vm = Mat.from_cols([[v.get(i, 0) for i in range(n)] for v in V], nrows=n)
    assert is_unimodular(Vm)
    assert M @ Vm == Mat.from_cols([[c.get(i, 0) for i in range(M.rows)] for c in R],
                                   nrows=M.rows)
    assert lows == {max(c): j for j, c in enumerate(R) if c}
    zero = [(j, v) for j, (c, v) in enumerate(zip(R, V)) if not c]
    assert all(max(v) == j for j, v in zero)
    for q in range(n + 1):
        o = dense_smith_normal_form(M.take_cols(range(q)))
        kernel = o.V.take_cols(range(o.rank, q))
        Z = Mat.from_cols([[v.get(i, 0) for i in range(q)] for j, v in zero if j < q], nrows=q)
        assert lattice_contains(kernel, Z) and lattice_contains(Z, kernel)


class TestIntegerSolving:
    def test_solve_consistent(self):
        M = Mat.from_rows([[2, 0], [0, 3]])
        B = Mat.from_cols([[4, 9]])
        X = solve_int(M, B)
        assert X is not None and M @ X == B

    def test_solve_inconsistent(self):
        M = Mat.from_rows([[2]])
        B = Mat.from_cols([[3]])
        assert solve_int(M, B) is None

    @settings(max_examples=100, deadline=None)
    @given(small_matrices, st.integers(0, 10 ** 6))
    def test_kernel_annihilates(self, M, seed):
        K = kernel(ZZ, M)
        assert M @ K == Mat.zero(M.rows, K.cols)
        rng = random.Random(seed)
        if K.cols:
            v = Mat.from_cols([[rng.randint(-3, 3) for _ in range(K.cols)]])
            assert M @ (K @ v) == Mat.zero(M.rows, 1)


class TestLattices:
    def test_basis_spans_same_lattice(self):
        """The basis of the positivity oracle spans the lattice it is given."""
        G = Mat.from_rows([[2, 4, 6], [0, 2, 2]])
        B = lattice_basis(G)
        assert B.cols == 2
        assert lattice_contains(B, G) and lattice_contains(G, B)

    def test_intersection(self):
        """The oracle's intersection, and A (A^-1 B), the preimage route
        `positivity_check` takes for im m cap ker n."""
        A = Mat.from_cols([[2, 0], [0, 1]])
        B = Mat.from_cols([[3, 0], [0, 1]])
        I = lattice_intersection(A, B)
        # intersection of 2Z x Z and 3Z x Z is 6Z x Z
        assert lattice_contains(I, Mat.from_cols([[6, 0], [0, 1]]))
        assert lattice_contains(A, I) and lattice_contains(B, I)
        J = A @ preimage(ZZ, A, B)
        assert lattice_contains(I, J) and lattice_contains(J, I)

    def test_preimage(self):
        g = Mat.from_rows([[1, 0], [0, 1]])
        R = Mat.from_cols([[2, 0], [0, 3]])
        P = preimage(ZZ, g, R)
        assert lattice_contains(P, Mat.from_cols([[2, 0], [0, 3]]))
        assert not lattice_contains(P, Mat.from_cols([[1, 0]]))

    @settings(max_examples=150, deadline=None)
    @given(small_matrices, st.integers(0, 3), st.integers(0, 10 ** 6))
    def test_preimage_is_a_basis_of_the_preimage(self, g, k, seed):
        """Its columns are independent and map into the lattice of R, and
        they span the x rows of the kernel of [g | -R] that the dense
        Smith normal form oracle finds."""
        rng = random.Random(seed)
        R = Mat.from_cols([[rng.choice([0, 0, 1, -1, 2, 3]) for _ in range(g.rows)]
                           for _ in range(k)], nrows=g.rows)
        P = preimage(ZZ, g, R)
        assert P.rows == g.cols and rref_rank(QQ, P) == P.cols
        assert lattice_contains(R, g @ P)
        o = dense_smith_normal_form(g.hstack(R.scale(-1)))
        Q = o.V.take_cols(range(o.rank, g.cols + k)).take_rows(range(g.cols))
        assert lattice_contains(P, Q) and lattice_contains(Q, P)


class TestQuotientInvariants:
    def test_free_quotient(self):
        L = Mat.identity(2)
        B = Mat.zero(2, 0)
        assert LatticeQuotient(L, B).iso() == (2, [])

    def test_cyclic_quotient(self):
        L = Mat.from_cols([[1]])
        B = Mat.from_cols([[4]])
        assert LatticeQuotient(L, B).iso() == (0, [4])

    def test_small_index_matches_coset_count(self):
        L = Mat.from_cols([[2, 0], [0, 3]])
        B = Mat.from_cols([[4, 0], [0, 3]])
        rank, invs = LatticeQuotient(L, B).iso()
        assert (rank, invs) == (0, [2])
        # coset-enumeration oracle: index of B in L equals product of invariants
        table = FiniteGroupTable([4, 3])  # L / (2L') ~ ambient big enough: enumerate directly
        sub = table.subgroup_generated([(2, 0), (0, 0)])
        assert len(table.elements) // len(sub) * len(sub) == len(table.elements)

    def test_containment_violation_names_generator(self):
        L = Mat.from_cols([[2]])
        B = Mat.from_cols([[2], [3]])
        with pytest.raises(LatticeContainmentError) as ei:
            LatticeQuotient(L, B).iso()
        assert ei.value.index == 1

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from([2, 3, 4, 6, 8]), min_size=1, max_size=2),
           st.integers(0, 10 ** 6))
    def test_random_finite_quotients_match_enumeration(self, orders, seed):
        rng = random.Random(seed)
        n = len(orders)
        L = Mat.identity(n)
        cols = [[orders[i] if i == j else 0 for i in range(n)] for j in range(n)]
        extra = [[rng.randint(0, 3) * orders[i] for i in range(n)]] if rng.random() < 0.5 else []
        # B generated by k*e_i plus diagonal relations: quotient is finite
        ks = [rng.choice([1, 2, orders[j]]) for j in range(n)]
        gen_cols = [[ks[j] if i == j else 0 for i in range(n)] for j in range(n)]
        B = Mat.from_cols(gen_cols + cols + extra, nrows=n)
        rank, invs = LatticeQuotient(L, B).iso()
        assert rank == 0
        table = FiniteGroupTable(orders)
        sub = table.subgroup_generated([tuple(c[i] % orders[i] for i in range(n))
                                        for c in gen_cols + extra])
        order = 1
        for d in invs:
            order *= d
        # |Z^n / B| equals |ambient| / |image subgroup| in Z/orders
        assert order == len(table.elements) // len(sub)

    @settings(max_examples=200, deadline=None)
    @given(small_matrices, st.integers(0, 10 ** 6))
    def test_matches_two_snf_oracle(self, L, seed):
        rng = random.Random(seed)

        def members(k):
            return L @ Mat.from_cols([[rng.randint(-3, 3) for _ in range(L.cols)]
                                      for _ in range(k)], nrows=L.cols)

        B = members(rng.randint(0, 3))
        q, o = LatticeQuotient(L, B), lattice_quotient_oracle(L, B)
        assert q.iso() == o.iso()
        for x in members(3).columns():
            assert q.coords(x) == o.coords(x)
        # the oracle's canonical generators are the library's: their
        # coordinates are the unit vectors
        reps = o.generator_reps()
        assert [q.coords(g) for g in reps.columns()] == \
            [[int(i == j) for j in range(reps.cols)] for i in range(reps.cols)]
        # a random column, often outside L, among the generators of B
        cols = B.columns()
        cols.insert(rng.randint(0, len(cols)), [rng.randint(-3, 3) for _ in range(L.rows)])
        outcomes = []
        for quotient in (LatticeQuotient, lattice_quotient_oracle):
            try:
                outcomes.append(quotient(L, Mat.from_cols(cols, nrows=L.rows)).iso())
            except LatticeContainmentError as exc:
                outcomes.append(exc.index)
        assert outcomes[0] == outcomes[1]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 6), st.integers(2, 4), st.integers(0, 10 ** 6))
    def test_coords_off_the_lattice_match_two_snf_oracle(self, n, d0, seed):
        """Sparse vectors, torsion and a lattice L that is not saturated:
        every member of L has its coordinate 0 divisible by d0 >= 2 and its
        last coordinate zero, though d0 * e_0 lies in L.  Off L, both ways
        of failing raise the same LatticeContainmentError as the oracle."""
        rng = random.Random(seed)
        gens = [[d0] + [0] * (n - 1)]
        for _ in range(rng.randint(0, n)):
            col = [0] * n
            for k in rng.sample(range(n - 1), rng.randint(1, min(2, n - 1))):
                col[k] = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
            col[0] *= d0
            gens.append(col)
        L = Mat.from_cols(gens, nrows=n)

        def member():  # a combination of at most two generators
            c = [0] * len(gens)
            for j in rng.sample(range(len(gens)), rng.randint(0, min(2, len(gens)))):
                c[j] = rng.randint(-3, 3)
            return [sum(g[i] * cj for g, cj in zip(gens, c)) for i in range(n)]

        def multiple():  # a member times 1, 2 or 3, for torsion in L/B
            c = rng.choice([1, 2, 3])
            return [c * v for v in member()]

        B = Mat.from_cols([multiple() for _ in range(rng.randint(0, 3))], nrows=n)
        q, o = LatticeQuotient(L, B), lattice_quotient_oracle(L, B)
        assert q.iso() == o.iso()

        def outcome(quotient, x):
            try:
                return quotient.coords(x)
            except LatticeContainmentError as exc:
                return "raised", exc.index

        y = member()
        not_divisible = [y[0] + rng.randint(1, d0 - 1)] + y[1:]
        beyond_rank = y[:-1] + [y[-1] + rng.choice([-2, -1, 1, 2])]
        sparse = [0] * n
        sparse[rng.randrange(n)] = rng.randint(-4, 4)
        for x in ([0] * n, member(), member(), not_divisible, beyond_rank, sparse):
            assert outcome(q, x) == outcome(o, x)
        assert outcome(q, not_divisible) == outcome(q, beyond_rank) == ("raised", -1)

    def test_runs_two_smith_normal_forms(self, monkeypatch):
        calls = []
        real = exact.smith_normal_form
        monkeypatch.setattr(exact, "smith_normal_form",
                            lambda M, **kw: calls.append(M) or real(M, **kw))
        L = Mat.from_cols([[2, 0], [0, 3]])
        B = Mat.from_cols([[4, 0]])
        assert LatticeQuotient(L, B).iso() == (1, [2])
        assert len(calls) == 2

    def test_iso_builds_neither_basis_nor_columns_of_U(self, monkeypatch):
        """A quotient has no basis of L to build, and `iso` leaves the
        columns of U to the first `coords`; the isomorphism test on a
        torsion target builds no quotient at all."""
        built = []

        class Recorded(LatticeQuotient):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(categories, "LatticeQuotient", Recorded)
        Z4, Z2 = make_obj(ab(), (0, (4,))), make_obj(ab(), (0, (2,)))
        f = make_mor(Z4, Z4, Mat.from_rows([[2]]))
        assert image_iso_class(f) == iso_class(Z2)
        assert not is_isomorphism(f)
        assert is_isomorphism(make_mor(Z4, Z4, Mat.from_rows([[3]])))
        assert len(built) == 1
        q = built[0]  # the image 2Z/4 of f, as L/B with L = (2, 4) and B = (4)
        assert not hasattr(q, "basis") and "_U_columns" not in vars(q)
        assert q.coords([6]) == [1]
        assert "_U_columns" in vars(q)


def test_is_prime_matches_a_sieve_and_bounds_prime_fields():
    composite = {a * b for a in range(2, 32) for b in range(a, 500 // a + 1)}
    primes = [p for p in range(2, 500) if p not in composite]
    assert [p for p in range(500) if is_prime(p)] == primes
    assert is_prime(2 ** 31 - 1) and not is_prime(2 ** 31 - 3)
    assert is_prime(46337) and not is_prime(46337 ** 2)  # the largest prime <= isqrt(2 ** 31)
    assert PrimeField(2 ** 31 - 1).p == 2 ** 31 - 1
    for p in (-7, 0, 1, 4, 2 ** 31 - 3, 2 ** 31):
        with pytest.raises(ValueError):
            PrimeField(p)


class TestFieldAlgebra:
    def test_fp_rank_examples(self):
        assert field_rank(PrimeField(5), Mat.identity(3)) == 3
        assert field_rank(PrimeField(2), Mat.from_rows([[2]])) == 0
        assert field_rank(PrimeField(3), Mat.from_rows([[1, 1], [1, 1]])) == 1

    def test_field_kernel_and_solve(self):
        F = PrimeField(5)
        M = Mat.from_rows([[1, 2], [2, 4]])
        K = kernel(F, M)
        assert K.cols == 1
        assert (M.map(F.coerce) @ K).map(F.coerce) == Mat.zero(2, 1)
        B = Mat.from_cols([[1, 2]])
        X = field_solve(F, M, B)
        assert X is not None
        assert (M.map(F.coerce) @ X).map(F.coerce) == B.map(F.coerce)

    def test_rational_rank(self):
        M = Mat.from_rows([[Fraction(1, 2), 1], [1, 2]])
        assert field_rank(QQ, M) == 1


class _CountedRationals(RationalField):
    """QQ that keeps every quotient it returns."""

    def __init__(self):
        self.quotients = []

    def div(self, a, b):
        q = super().div(a, b)
        self.quotients.append(q)
        return q


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.data())
def test_rational_reduction_with_int_multiples_keeps_the_lattice(m, n, data):
    """Where every multiple of the QQ reduction of integer columns is an
    int, V is integer and unitriangular, R = M V, every entry is an int,
    and there are as many pivots as M has rational rank."""
    M = Mat.from_rows([[data.draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(m)],
                      ncols=n)
    cols = [{i: v for i, v in enumerate(col) if v} for col in M.columns()]
    F = _CountedRationals()
    R, lows, V = column_reduce(F, cols, track=True)
    assert len(lows) == rref_rank(QQ, M)
    if any(type(q) is not int for q in F.quotients):
        return
    for j, (r, v) in enumerate(zip(R, V)):
        assert v[j] == 1 and max(v) == j and all(type(x) is int for x in v.values())
        assert all(type(x) is int for x in r.values())
        combo = {}
        for i, f in v.items():
            for row, x in cols[i].items():
                combo[row] = combo.get(row, 0) + f * x
        assert r == {row: x for row, x in combo.items() if x}


@settings(max_examples=300, deadline=None)
@given(st.lists(st.dictionaries(st.integers(0, 4), st.integers(-4, 4).filter(bool), max_size=5),
                max_size=6))
@example([{0: 1, 1: 2}, {0: 1, 1: 3}])  # pivot 2 does not divide 3
def test_rational_reduction_of_integer_columns_matches_fractions(cols):
    """Integer columns reduce over QQ to the values the same columns
    held as Fractions reduce to, and over ZZ to the same lows, so the
    pairing of rows with columns is the same over both rings, Euclid's
    swaps notwithstanding."""
    R, lows, V = column_reduce(QQ, cols, track=True)
    fractions = [{i: Fraction(v) for i, v in c.items()} for c in cols]
    assert (R, lows, V) == column_reduce(QQ, fractions, track=True)
    types = {type(v) for c in R + V for v in c.values()}
    assert types <= {int, Fraction}
    assert column_reduce(ZZ, cols)[1] == lows


@given(st.integers(-50, 50), st.integers(-12, 12).filter(bool))
def test_rational_division_stays_int_exactly_when_it_divides(a, b):
    q = QQ.div(a, b)
    assert q == Fraction(a, b)
    assert (type(q) is int) == (a % b == 0)
    assert type(QQ.div(Fraction(a), b)) is Fraction


@st.composite
def _field_systems(draw):
    """A field, a matrix M of up to 5 x 5 (empty shapes included) and a
    right-hand side B, half the time of the form M X."""
    F = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(3), PrimeField(5)]))
    entry = st.integers(-3, 3)
    if F == QQ:
        entry = st.builds(Fraction, entry, st.integers(1, 3))
    m, n, k = draw(st.integers(0, 5)), draw(st.integers(0, 5)), draw(st.integers(0, 3))

    def matrix(rows, cols):
        return Mat.from_rows([[draw(entry) for _ in range(cols)] for _ in range(rows)], ncols=cols)

    M = matrix(m, n)
    B = M @ matrix(n, k) if draw(st.booleans()) else matrix(m, k)
    return F, M, B


@settings(max_examples=300, deadline=None)
@given(_field_systems())
def test_field_reduction_matches_rref_oracle(system):
    F, M, B = system
    Mf = M.map(F.coerce)
    rank = rref_rank(F, M)
    assert field_rank(F, M) == rank
    assert column_space_basis(F, M) == rref_column_space_basis(F, M)
    K = kernel(F, M)
    assert (K.rows, K.cols) == (M.cols, M.cols - rank)
    assert (Mf @ K).map(F.coerce) == Mat.zero(M.rows, K.cols) and rref_rank(F, K) == K.cols
    X = field_solve(F, M, B)
    assert (X is None) == (rref_solve(F, M, B) is None)
    if X is not None:
        assert (X.rows, X.cols) == (M.cols, B.cols)
        assert (Mf @ X).map(F.coerce) == B.map(F.coerce)


class TestJordanType:
    def test_zero_matrix(self):
        assert jordan_type(Mat.zero(2, 2), QQ) == ((Fraction(0), 1), (Fraction(0), 1))

    def test_nilpotent_block(self):
        # rank-sequence oracle: r_1 = 1, r_2 = 0 forces a single size-2 block
        A = Mat.from_rows([[0, 1], [0, 0]])
        assert jordan_type(A, QQ) == ((Fraction(0), 2),)

    def test_three_by_three_bidiagonal(self):
        lam = 7
        A = Mat.from_rows([[lam, 1, 0], [0, lam, 1], [0, 0, lam]])
        assert jordan_type(A, QQ) == ((Fraction(lam), 3),)

    def test_non_split_rational(self):
        A = Mat.from_rows([[0, -1], [1, 0]])  # char poly x^2 + 1
        with pytest.raises(NonSplitError):
            jordan_type(A, QQ)

    def test_split_over_f5_but_not_q(self):
        A = Mat.from_rows([[0, -1], [1, 0]])
        # x^2 + 1 = (x-2)(x-3) mod 5
        assert jordan_type(A, PrimeField(5)) == ((2, 1), (3, 1))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 10 ** 6))
    def test_sizes_sum_to_dimension_and_similarity(self, n, seed):
        rng = random.Random(seed)
        # random block-diagonal with rational eigenvalues, conjugated
        blocks = []
        total = 0
        while total < n:
            size = rng.randint(1, n - total)
            lam = rng.randint(-2, 2)
            blocks.append((lam, size))
            total += size
        A = Mat.zero(n, n)
        rows = [[0] * n for _ in range(n)]
        pos = 0
        for lam, size in blocks:
            for k in range(size):
                rows[pos + k][pos + k] = lam
                if k + 1 < size:
                    rows[pos + k][pos + k + 1] = 1
            pos += size
        J = Mat.from_rows(rows)
        # conjugate by a random unimodular matrix
        P = Mat.identity(n)
        for _ in range(3):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.randint(-1, 1)
                rows_p = P.to_lists()
                rows_p[i] = [a + c * b for a, b in zip(rows_p[i], rows_p[j])]
                P = Mat.from_rows(rows_p)
        Pinv = _int_inverse(P)
        A = (P @ J @ Pinv)
        jt = jordan_type(A.map(Fraction), QQ)
        assert sum(size for _, size in jt) == n
        assert sorted(jt) == sorted((Fraction(lam), size) for lam, size in blocks)


def _int_inverse(P: Mat) -> Mat:
    X = field_solve(QQ, P.map(Fraction), Mat.identity(P.rows).map(Fraction))
    assert X is not None
    return X


def test_det_int():
    assert det_int(Mat.identity(3)) == 1
    assert det_int(Mat.from_rows([[2, 1], [1, 1]])) == 1
    assert det_int(Mat.from_rows([[2, 4], [1, 2]])) == 0


def test_parse_rational_caps_the_exponent():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational(" 1.5E+2 ") == 150
    assert parse_rational(f"1e-{MAX_EXPONENT - 1}") == Fraction(1, 10 ** (MAX_EXPONENT - 1))
    for text in (f"1e{MAX_EXPONENT + 1}", "1e10000000", "1e-10000000", "2.5E+0010000000"):
        with pytest.raises(ValueError, match="exceeds"):
            parse_rational(text)
    # 10**MAX_EXPONENT has one digit more than str() prints
    for text in (f"1e{MAX_EXPONENT}", f"1e-{MAX_EXPONENT}", f"-{'9' * MAX_EXPONENT}e1"):
        with pytest.raises(ValueError, match=f"more than {MAX_EXPONENT} digits"):
            parse_rational(text)
    with pytest.raises(ValueError):
        parse_rational("1e")
