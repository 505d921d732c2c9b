"""Filtration parsing, exact homology, perturbation, and interleavings."""

import importlib.util
import itertools
import math
import random
import sys
import weakref
from collections import Counter
from fractions import Fraction as Fr
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpd import exact, homology
from gpd.categories import finab, image_iso_class, iso_class, iso_from_invariants, make_mor
from gpd.diagram import DiagramGrid, type_A_diagram, type_B_diagram
from gpd.homology import (
    FilteredComplex,
    FiltrationError,
    FiltrationParseError,
    MissingFaceError,
    ValueInversionError,
    barcode,
    filtration_type_A,
    interleaving_from_perturbation,
    make_complex,
    parse_filtration,
    persistent_homology,
    persistent_module,
    perturb,
    _induced_payload,
    _Stage,
)
from gpd.homology import facets
from gpd.matrix import Mat
from gpd.pmodule import check_interleaving, composite_mor, segment_reps

from oracles import (
    assert_snf_sides_match_oracle,
    boundary_matrix,
    component_module,
    dense_field_homology,
    dense_interleaving,
    image_iso_class_oracle,
    induced_payload_oracle,
    interleaving_oracle,
    rref_rank,
    snf_integer_homology,
)
from generators import grid_complex, rips_filtration

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "gpd" / "data"


def homology_invariants_oracle(K, k):
    """(rank, invariant factors) of H_k at the final stage, via sympy.

    Independent of the library's own linear algebra: the free rank is
    n_k - rank d_k - rank d_{k+1} and the torsion is read off the Smith
    normal form of d_{k+1}.
    """
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    sk = K.simplices_of_dim(k)
    d_k = boundary_matrix(K.simplices_of_dim(k - 1) if k else [], sk)
    d_k1 = boundary_matrix(sk, K.simplices_of_dim(k + 1))
    m_k = Matrix(d_k.to_lists()) if sk else Matrix(0, 0, [])
    m_k1 = Matrix(d_k1.to_lists()) if d_k1.cols else Matrix(len(sk), 0, [])
    r_k = m_k.rank() if k else 0
    r_k1 = m_k1.rank()
    rank = len(sk) - r_k - r_k1
    tors = []
    if d_k1.cols and len(sk):
        D = smith_normal_form(m_k1, domain=ZZ)
        diag = [abs(int(D[i, i])) for i in range(min(D.rows, D.cols))]
        tors = sorted(d for d in diag if d > 1)
    return rank, tuple(tors)


TRIANGLE = "0 : 0\n1 : 0\n2 : 0\n0 1 : 1\n1 2 : 1\n0 2 : 1"

RP2_TRIS = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
            (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)]
RP2_UNUSED = [t for t in itertools.combinations(range(6), 3)
              if t not in {tuple(sorted(u)) for u in RP2_TRIS}]


def rp2_text():
    tris = sorted(tuple(sorted(t)) for t in RP2_TRIS)
    edges = sorted({e for t in tris for e in itertools.combinations(t, 2)})
    lines = [f"{v} : 0" for v in range(6)]
    lines += [f"{a} {b} : 0" for a, b in edges]
    lines += [f"{' '.join(map(str, t))} : 1" for t in tris]
    return "\n".join(lines)


class TestParsing:
    def test_single_vertex(self):
        K = parse_filtration("0 : 0")
        assert K.simplices == ((0,),) and K.values == (Fr(0),)

    def test_triangle_critical_set(self):
        K = parse_filtration(TRIANGLE)
        assert K.critical_values == (Fr(0), Fr(1))

    def test_comments_rationals_and_order_independence(self):
        K = parse_filtration("0 1 : 3/2  # an edge\n1 : 1/2\n0 : 0.5\n")
        assert K.values == (Fr(1, 2), Fr(1, 2), Fr(3, 2))

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(FiltrationParseError) as exc:
            parse_filtration("0 : 0\nbogus line\n")
        assert exc.value.line_no == 2
        with pytest.raises(FiltrationParseError) as exc:
            parse_filtration("0 : 0\n1 : nope")
        assert exc.value.line_no == 2
        with pytest.raises(FiltrationParseError):
            parse_filtration("0 : 0\n0 : 1")  # duplicate simplex

    def test_missing_face(self):
        with pytest.raises(MissingFaceError) as exc:
            parse_filtration("0 : 0\n1 : 0\n2 : 0\n0 1 : 1\n0 1 2 : 2")
        assert exc.value.line_no == 5

    def test_value_inversion(self):
        with pytest.raises(ValueInversionError) as exc:
            parse_filtration("0 : 0\n1 : 2\n0 1 : 1")
        assert exc.value.line_no == 3

    @pytest.mark.parametrize("value", ["1e10000000", "1e-10000000"])
    def test_huge_exponent_rejected(self, value):
        with pytest.raises(FiltrationParseError) as exc:
            parse_filtration(f"0 : 0\n1 : {value}")
        assert exc.value.line_no == 2

    def test_complex_errors_name_the_simplex(self):
        with pytest.raises(MissingFaceError) as exc:
            make_complex([((0,), 0), ((1,), 0), ((2,), 0), ((0, 1, 2), 1)])
        assert exc.value.simplex == (0, 1, 2) and exc.value.line_no is None
        with pytest.raises(FiltrationError, match="dense") as exc:
            parse_filtration("0 : 0\n2 : 0")
        assert "line" not in str(exc.value)


_value = st.sampled_from(["0", "1/2", "1", "2", "0.5", "1e0"] * 3 + ["x", "1e9999"])
_noise = st.one_of(st.text(max_size=12), st.just("# comment"), st.just(""))


@st.composite
def _filtration_texts(draw):
    """Face-closed vertex lists with values from a small alphabet, shuffled,
    maybe missing one line, with arbitrary text lines mixed in."""
    tops = draw(st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True),
                         max_size=4))
    dense = {v: i for i, v in enumerate(sorted({v for t in tops for v in t}))}
    closure = {f for t in tops for r in range(1, len(t) + 1)
               for f in itertools.combinations(sorted(dense[v] for v in t), r)}
    monotone = draw(st.booleans())  # values by dimension: no inversions
    lines = [f"{' '.join(map(str, s))} : {len(s) if monotone else draw(_value)}"
             f"{draw(st.sampled_from(['', ' # c']))}" for s in sorted(closure)]
    lines = draw(st.permutations(lines))
    if lines and draw(st.booleans()):
        lines.pop(draw(st.integers(0, len(lines) - 1)))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_noise))
    return "\n".join(lines)


@settings(max_examples=200, deadline=None)
@given(_filtration_texts())
def test_parse_filtration_raises_only_filtration_errors(text):
    try:
        K = parse_filtration(text)
    except (MissingFaceError, ValueInversionError) as exc:
        # the line number points at the non-comment line of the simplex
        assert exc.line_no >= 1
        line = text.splitlines()[exc.line_no - 1].split("#", 1)[0].strip()
        assert line
        assert tuple(sorted(int(t) for t in line.partition(":")[0].split())) == exc.simplex
    except FiltrationError:
        pass
    else:
        assert isinstance(K, FilteredComplex)


class TestHomology:
    def test_single_vertex_module(self):
        F = persistent_module(parse_filtration("0 : 0"), 0, "Z")
        assert [o.data for o in F.objects] == [(0, ()), (1, ())]
        assert {k: v.mult() for k, v in type_A_diagram(F).cells} == {(1, 2): {"Z": 1}}

    def test_triangle_h1_over_q(self):
        F = persistent_module(parse_filtration(TRIANGLE), 1, "Q")
        assert {k: v.mult() for k, v in type_B_diagram(F).cells} == {(2, 3): {"dim": 1}}

    def test_rp2_all_coefficients(self):
        K = parse_filtration(rp2_text())
        assert persistent_module(K, 1, "Z").objects[-1].data == (0, (2,))
        assert persistent_module(K, 1, "Zm:2").objects[-1].data == (0, (2,))
        assert persistent_module(K, 1, "Zm:4").objects[-1].data == (0, (2,))
        assert persistent_module(K, 1, "Q").objects[-1].data == 0
        assert persistent_module(K, 1, "Fp:2").objects[-1].data == 1
        assert persistent_module(K, 2, "Z").objects[-1].data == (0, ())
        assert persistent_module(K, 2, "Zm:2").objects[-1].data == (0, (2,))

    def test_matches_independent_snf_oracle(self):
        for name in ["triangle.flt", "torus.flt", "klein_bottle.flt"]:
            K = parse_filtration((DATA / name).read_text())
            for k in range(3):
                rank, tors = homology_invariants_oracle(K, k)
                got = persistent_module(K, k, "Z").objects[-1].data
                assert got == (rank, tors), (name, k, got, (rank, tors))

    def test_universal_coefficients_spot_check(self):
        for name in ["torus.flt", "klein_bottle.flt"]:
            K = parse_filtration((DATA / name).read_text())
            for p in (2, 3):
                for k in (0, 1, 2):
                    dim_p = persistent_module(K, k, f"Fp:{p}").objects[-1].data

                    def ptors(kk):
                        if kk < 0:
                            return 0
                        _, invs = persistent_module(K, kk, "Z").objects[-1].data
                        return sum(1 for d in invs if d % p == 0)

                    rank, _ = persistent_module(K, k, "Z").objects[-1].data
                    assert dim_p == rank + ptors(k) + ptors(k - 1)

    def test_euler_characteristic_consistency(self):
        for name in ["torus.flt", "klein_bottle.flt", "triangle.flt"]:
            K = parse_filtration((DATA / name).read_text())
            dims = {}
            for k in range(max(map(len, K.simplices))):
                dims[k] = persistent_module(K, k, "Q")
            for t in K.critical_values:
                chi_h = sum((-1) ** k * F.objects[F.segment(t)].data for k, F in dims.items())
                chi_c = sum((-1) ** (len(s) - 1)
                            for s, v in zip(K.simplices, K.values) if v <= t)
                assert chi_h == chi_c

    def test_degree_beyond_dimension_is_zero(self):
        F = persistent_module(parse_filtration(TRIANGLE), 5, "Z")
        assert all(o.data == (0, ()) for o in F.objects)

    def test_bad_coefficients_rejected(self):
        K = parse_filtration("0 : 0")
        with pytest.raises(FiltrationError):
            persistent_module(K, 0, "Zm:1")
        with pytest.raises(FiltrationError):
            persistent_module(K, 0, "R")
        for token in ("Fp:abc", "Fp:", "Zm:", "Zm:x"):
            with pytest.raises(FiltrationError, match=f"'{token}'"):
                persistent_module(K, 0, token)

    def test_induced_map_naturality(self):
        for name in ["torus.flt", "klein_bottle.flt"]:
            K = parse_filtration((DATA / name).read_text())
            for coeffs in ["Z", "Q", "Zm:4", "Fp:2"]:
                F = persistent_module(K, 1, coeffs)
                two_step = composite_mor(F, 1, 3)
                H = persistent_homology(K, 1, coeffs)
                direct = _induced_payload(_Stage(H, F.values[0]), _Stage(H, F.values[2]))
                assert two_step.payload == direct


@pytest.mark.parametrize("coeffs", ["Z", "Zm:4", "Q", "Fp:2"])
@pytest.mark.parametrize("name", ["torus.flt", "klein_bottle.flt"])
def test_induced_maps_match_entrywise_oracle(name, coeffs):
    """Consecutive stages of one filtration, and stages eps apart of a
    filtration and its eps-perturbation, both ways, in degrees 0-2."""
    K = parse_filtration((DATA / name).read_text())
    eps = Fr(1, 4)
    K2 = perturb(K, eps, seed=3)
    for k in range(3):
        H, H2 = persistent_homology(K, k, coeffs), persistent_homology(K2, k, coeffs)
        pairs = list(zip(H.stages, H.stages[1:]))
        for a, b in ((H, H2), (H2, H)):
            pairs += [(a.stages[a.module.segment(r)], b.stages[b.module.segment(r + eps)])
                      for r in segment_reps(a.complex.critical_values)]
        for src, tgt in pairs:
            fast, slow = _induced_payload(src, tgt), induced_payload_oracle(src, tgt)
            assert fast == slow
            assert [list(map(type, r)) for r in fast.data] == \
                [list(map(type, r)) for r in slow.data]


def _is_table_stage(stage) -> bool:
    """A stage below `lead_stop`: its generators are table columns."""
    return stage._core is None


def _assert_cores_exactly_from_lead_stop(H):
    """Stage i reads the first i values: it has a core exactly when
    i > `lead_stop`, over every ring alike."""
    assert [st._core is not None for st in H.stages] == \
        [H.lead_stop < i for i in range(len(H.stages))]


@pytest.mark.parametrize("coeffs", ["Z", "Q", "Fp:2", "Zm:4"])
def test_module_maps_match_the_entrywise_oracle(coeffs):
    """Each connecting map of H.module, read off `born` and `death` where
    both stages are below `lead_stop`, equals `make_mor` of the entrywise
    oracle on the same pair of stages, in degrees 0-2: on the bundled
    data as given and perturbed, and on grid tori and Klein bottles,
    whose H_1 over Z has a table stage followed by a stage with a core.
    Over Z/4 the stages are those of the mapping cone of 4, whose
    homology is finite: its table stages are zero, and its cores start
    at the first value with homology."""
    inputs = [grid_complex(5, 1), grid_complex(5, 1, klein=True)]
    for name in ("torus.flt", "klein_bottle.flt", "triangle.flt"):
        K = parse_filtration((DATA / name).read_text())
        inputs += [K, perturb(K, Fr(1, 4), seed=2)]
    kinds = Counter()
    for K in inputs:
        for k in range(3):
            H = persistent_homology(K, k, coeffs)
            for a, b, mor in zip(H.stages, H.stages[1:], H.module.morphisms):
                assert mor == make_mor(a.obj, b.obj, induced_payload_oracle(a, b))
                kinds[_is_table_stage(a), _is_table_stage(b)] += 1
            _assert_cores_exactly_from_lead_stop(H)
            if coeffs == "Zm:4":
                assert all(st.obj.data == (0, ()) for st in H.stages[:H.lead_stop + 1])
    if coeffs in ("Z", "Zm:4"):
        assert kinds[True, False] > 0 and kinds[True, True] > 0
        assert (kinds[False, False] > 0) == (coeffs == "Zm:4")
    else:
        assert list(kinds) == [(True, True)]


class TestComponents:
    def test_two_branch_merge_tree(self):
        text = "0 : 0\n1 : 1\n0 1 : 2"
        C = component_module(parse_filtration(text))
        got = {k: v.mult() for k, v in type_A_diagram(C).cells}
        assert got == {(1, 4): {"pt": 1}, (2, 3): {"pt": 1}}

    def test_matches_h0_rank(self):
        rng = random.Random(5)
        for name in ["torus.flt", "klein_bottle.flt", "triangle.flt"]:
            K = parse_filtration((DATA / name).read_text())
            K = perturb(K, Fr(1, 3), seed=rng.randint(0, 99))
            C = component_module(K)
            H0 = persistent_module(K, 0, "Q")
            assert C.values == H0.values
            assert [o.data for o in C.objects] == [o.data for o in H0.objects]


class TestPerturbation:
    def test_zero_eps_is_identity(self):
        K = parse_filtration(TRIANGLE)
        assert perturb(K, 0, seed=3) == K

    def test_deterministic_and_bounded(self):
        K = parse_filtration((DATA / "torus.flt").read_text())
        a = perturb(K, Fr(1, 4), seed=11)
        b = perturb(K, Fr(1, 4), seed=11)
        c = perturb(K, Fr(1, 4), seed=12)
        assert a == b
        assert a != c
        assert all(abs(x - y) <= Fr(1, 4) for x, y in zip(a.values, K.values))

    def test_interleaving_verifies(self):
        K = parse_filtration((DATA / "klein_bottle.flt").read_text())
        for seed, eps, coeffs in [(1, Fr(1, 8), "Z"), (2, Fr(1, 2), "Q"),
                                  (3, Fr(1, 4), "Zm:2")]:
            H = persistent_homology(K, 1, coeffs)
            H2 = persistent_homology(perturb(K, eps, seed=seed), 1, coeffs)
            pair = interleaving_from_perturbation(H, H2, eps)
            assert check_interleaving(H.module, H2.module, pair)

    @pytest.mark.parametrize("coeffs", ["Z", "Q", "Zm:2", "Fp:2"])
    @pytest.mark.parametrize("name", ["torus.flt", "klein_bottle.flt", "empty",
                                      "grid-torus-5", "grid-klein-5"])
    def test_interleaving_matches_fresh_stage_oracle(self, name, coeffs):
        """Over Z, grid Klein 5 has `lead_stop` 19 of its 20 values, so table
        and SNF stages meet across the interleaving."""
        if name.startswith("grid"):
            K = grid_complex(5, seed=1, klein=name == "grid-klein-5")
        else:
            K = parse_filtration("" if name == "empty" else (DATA / name).read_text())
        eps = Fr(1, 4)
        K2 = perturb(K, eps, seed=7)
        H, H2 = persistent_homology(K, 1, coeffs), persistent_homology(K2, 1, coeffs)
        assert interleaving_from_perturbation(H, H2, eps) == \
            interleaving_oracle(K, K2, 1, coeffs, eps)

    def test_interleaving_rejects_mismatched_inputs(self):
        K = parse_filtration(TRIANGLE)
        H = persistent_homology(K, 1, "Z")
        shifted = make_complex((s, v + 1) for s, v in zip(K.simplices, K.values))
        for other in (persistent_homology(K, 0, "Z"), persistent_homology(K, 1, "Q"),
                      persistent_homology(parse_filtration("0 : 0"), 1, "Z"),
                      persistent_homology(shifted, 1, "Z")):
            with pytest.raises(FiltrationError):
                interleaving_from_perturbation(H, other, Fr(1, 2))


class TestPersistentHomology:
    def test_one_stage_per_segment(self):
        H = persistent_homology(parse_filtration(TRIANGLE), 1, "Q")
        assert (H.k, H.coeffs) == (1, "Q")
        assert [st.obj for st in H.stages] == list(H.module.objects)
        assert H.stages[0].k_simplices == []
        assert [H.module.segment(r) for r in (Fr(-5), Fr(1, 2), Fr(9))] == [0, 1, 2]
        assert persistent_module(H.complex, 1, "Q") == H.module

    def test_stages_are_owned_by_the_caller(self):
        """No stage refers back to its `PersistentHomology`, so dropping
        it frees its stages at once, without the cycle collector."""
        H = persistent_homology(parse_filtration((DATA / "torus.flt").read_text()), 1, "Z")
        ref = weakref.ref(H.stages[-1])
        assert H.module.objects
        del H
        assert ref() is None

    def test_smith_normal_forms_of_klein_bottle_h1(self, monkeypatch):
        calls = []
        real = exact.smith_normal_form
        for mod in (exact, homology):
            monkeypatch.setattr(mod, "smith_normal_form",
                                lambda M, **kw: calls.append(M) or real(M, **kw))
        persistent_module(parse_filtration((DATA / "klein_bottle.flt").read_text()), 1, "Z")
        # of four stages only the last, with torsion, runs one Smith
        # normal form: every triangle enters at its value, so its core is
        # its 19 cycles of the table against its 18 cleared boundaries
        assert [(M.rows, M.cols) for M in calls] == [(19, 18)]

    def test_torus_h1_over_z_runs_no_smith_normal_form(self, monkeypatch):
        calls = []
        real = exact.smith_normal_form
        monkeypatch.setattr(exact, "smith_normal_form",
                            lambda M, **kw: calls.append(M) or real(M, **kw))
        H = persistent_homology(parse_filtration((DATA / "torus.flt").read_text()), 1, "Z")
        assert calls == []
        assert H.module.objects[-1].data == (2, ())

    def test_smith_normal_forms_build_only_the_transforms_read(self, monkeypatch):
        # over Z, the torsion stage's core is the one Smith normal form, and
        # it builds no V; a stage after a cycle whose lead is not a unit (RP^2 plus
        # a triangle, in degree 2) is a table stage and runs none
        built = Counter()
        real = exact.smith_normal_form

        def spy(M):
            s = real(M)
            caller = sys._getframe(1).f_code.co_name
            built[caller, hasattr(s, "V")] += 1
            return s

        for mod in (exact, homology):
            monkeypatch.setattr(mod, "smith_normal_form", spy)
        persistent_module(parse_filtration((DATA / "klein_bottle.flt").read_text()), 1, "Z")
        assert built == {("__init__", False): 1}
        built.clear()
        persistent_module(parse_filtration(rp2_text() + "\n0 1 3 : 2"), 2, "Z")
        assert built == {}

    def test_quotient_coordinates_read_only_columns_of_U_where_x_is_nonzero(self):
        class Counted(int):
            """An int that counts the products it takes part in."""
            products = 0

            def __mul__(self, other):
                Counted.products += 1
                return int(self) * other

            __rmul__ = __mul__

        # the quotients Z_1 / B_1 of the torus stages, built from their
        # boundary matrices (the stages themselves need no quotient)
        K = parse_filtration((DATA / "torus.flt").read_text())
        H = persistent_homology(K, 1, "Z")
        read = bound = dense = 0
        for at, src, tgt in zip(H.module.values, H.stages, H.stages[1:]):
            below, above = K.simplices_of_dim(0, at=at), K.simplices_of_dim(2, at=at)
            q = exact.LatticeQuotient(exact.int_kernel(boundary_matrix(below, tgt.k_simplices)),
                                      boundary_matrix(tgt.k_simplices, above))
            pos = {s: i for i, s in enumerate(tgt.k_simplices)}
            for g in src.gen_reps:
                x = [0] * len(pos)
                for s, v in g.items():
                    x[pos[s]] = v
                expected = q.coords(x)
                Counted.products = 0
                assert q.coords([Counted(v) for v in x]) == expected
                support = [k for k, v in enumerate(x) if v]
                nonzeros = sum(1 for row in q._U.data for k in support if row[k])
                assert Counted.products <= nonzeros
                read, bound, dense = read + Counted.products, bound + nonzeros, \
                    dense + len(support) * q._U.rows
        assert 0 < read <= bound < dense


@st.composite
def _complexes(draw):
    """Face-closed complexes on up to five vertices, with values in
    {0, 1/2, ..., 3} raised to those of their faces."""
    tops = draw(st.lists(st.lists(st.integers(0, 4), min_size=1, max_size=4, unique=True),
                         min_size=1, max_size=5))
    dense = {v: i for i, v in enumerate(sorted({v for t in tops for v in t}))}
    closure = sorted({f for t in tops for r in range(1, len(t) + 1)
                      for f in itertools.combinations(sorted(dense[v] for v in t), r)},
                     key=lambda s: (len(s), s))
    value = {}
    for s in closure:
        value[s] = max([Fr(draw(st.integers(0, 6)), 2)] + [value[f] for f in facets(s)])
    return make_complex(value.items())


@st.composite
def _grid_klein_bottles(draw):
    """Complexes whose integer homology has torsion: grid Klein bottles on
    3 x 3 or 4 x 4 vertices, as given or perturbed."""
    K = grid_complex(draw(st.sampled_from([3, 4])), draw(st.integers(0, 99)), klein=True)
    if draw(st.booleans()):
        K = perturb(K, Fr(draw(st.integers(1, 8)), 2), draw(st.integers(0, 99)))
    return K


@st.composite
def _rp2_with_triangles(draw):
    """RP^2, whose integer homology has torsion, with one or two of its
    unused triangles at values in {1, 3/2, ..., 3}, where the reduction
    of d_2 over Z meets a remainder."""
    extra = draw(st.lists(st.sampled_from(RP2_UNUSED), min_size=1, max_size=2, unique=True))
    return parse_filtration(rp2_text() + "".join(
        f"\n{' '.join(map(str, t))} : {Fr(draw(st.integers(2, 6)), 2)}" for t in extra))


@settings(max_examples=60, deadline=None)
@given(_complexes(), st.integers(1, 3), st.sampled_from([0, 2, 4]))
def test_smith_normal_forms_of_boundary_matrices_match_dense_oracle(K, k, m):
    # m > 0 appends m times the identity, as the stages over Z/m do
    d = boundary_matrix(K.simplices_of_dim(k - 1), K.simplices_of_dim(k))
    assert_snf_sides_match_oracle(d.hstack(Mat.identity(d.rows).scale(m)) if m else d)


def _composite_images(M, image=image_iso_class) -> list:
    """Of every composite: its rank over a field, its image class over Z
    by `image`."""
    if M.cat.kind == "ab":
        return [image(composite_mor(M, a, b))
                for a in range(M.n + 1) for b in range(a, M.n + 1)]
    return [rref_rank(M.cat.field, composite_mor(M, a, b).payload)
            for a in range(M.n + 1) for b in range(a, M.n + 1)]


def _dense_homology(K, k, coeffs):
    return snf_integer_homology(K, k) if coeffs == "Z" else dense_field_homology(K, k, coeffs)


def _assert_matches_dense_stages(K, k, coeffs, eps=Fr(1, 2), seed=0):
    """Stage objects, the image of every composite, both diagrams and
    the interleaving verdict agree with the dense per-stage oracle."""
    H = persistent_homology(K, k, coeffs)
    dense = _dense_homology(K, k, coeffs)
    M, N = H.module, dense[1]
    assert M.objects == N.objects
    assert _composite_images(M) == _composite_images(N, image_iso_class_oracle)
    assert type_A_diagram(M) == type_A_diagram(N)
    assert type_B_diagram(M) == type_B_diagram(N)
    K2 = perturb(K, eps, seed)
    H2 = persistent_homology(K2, k, coeffs)
    dense2 = _dense_homology(K2, k, coeffs)
    assert check_interleaving(M, H2.module, interleaving_from_perturbation(H, H2, eps))
    assert check_interleaving(N, dense2[1], dense_interleaving(dense, dense2, eps))


@settings(max_examples=60, deadline=None)
@given(_complexes(), st.sampled_from(["Q", "Fp:2", "Fp:3"]), st.integers(0, 2),
       st.integers(0, 99))
def test_field_stages_match_dense_oracle(K, coeffs, k, seed):
    _assert_matches_dense_stages(K, k, coeffs, seed=seed)


@pytest.mark.parametrize("coeffs", ["Q", "Fp:2", "Fp:3"])
@pytest.mark.parametrize("name", ["triangle.flt", "torus.flt", "klein_bottle.flt"])
def test_field_stages_match_dense_oracle_on_bundled_data(name, coeffs):
    K = parse_filtration((DATA / name).read_text())
    for k in range(3):
        _assert_matches_dense_stages(K, k, coeffs, eps=Fr(1, 4), seed=k)


def _over_each_family(check, *strategies, examples=20):
    """Run the property `check(K, *drawn)` for `examples` draws of K from
    each family, `_complexes()`, `_grid_klein_bottles()` and
    `_rp2_with_triangles()`: a fixed share for each, where one strategy
    over their union gave grid Klein bottles anywhere from 3 to 30 of 60
    draws."""
    for family in (_complexes(), _grid_klein_bottles(), _rp2_with_triangles()):
        settings(max_examples=examples, deadline=None)(given(family, *strategies)(check))()


def test_integer_stages_match_snf_oracle():
    _over_each_family(lambda K, k, seed: _assert_matches_dense_stages(K, k, "Z", seed=seed),
                      st.integers(0, 2), st.integers(0, 99))


@pytest.mark.parametrize("name", ["triangle.flt", "torus.flt", "klein_bottle.flt", "rp2"])
def test_integer_stages_match_snf_oracle_on_bundled_data(name):
    K = parse_filtration(rp2_text() if name == "rp2" else (DATA / name).read_text())
    for k in range(3):
        _assert_matches_dense_stages(K, k, "Z", eps=Fr(1, 4), seed=k)


def _first_non_unit_lead(K, k):
    """The index in `K.critical_values` of the first column of d_{k+1},
    with the simplices in value order, whose lead after reduction over Q
    is not +-1; the number of values if there is none."""
    value = dict(zip(K.simplices, K.values))
    ks, above = (sorted(K.simplices_of_dim(d), key=value.get) for d in (k, k + 1))
    cols = [{i: x for i, x in enumerate(c) if x} for c in boundary_matrix(ks, above).columns()]
    R, lows, _ = exact.field_reduce(exact.QQ, cols)
    leads = [value[above[j]] for low, j in lows.items() if abs(R[j][low]) != 1]
    return K.critical_values.index(min(leads)) if leads else len(K.critical_values)


def _assert_stop_splits_the_integer_stages(K, k, eps=Fr(1, 4), seed=0):
    """Exactly the stages from `lead_stop` on carry a core.  The objects
    are those of the SNF oracle, the generators are int chains, and every induced map, within
    the module and both ways across a perturbation, is the entrywise
    oracle's.  Returns the persistent homology."""
    H, H2 = persistent_homology(K, k, "Z"), persistent_homology(perturb(K, eps, seed), k, "Z")
    _assert_cores_exactly_from_lead_stop(H)
    assert H.module.objects == snf_integer_homology(K, k)[1].objects
    assert all(type(x) is int for st in H.stages for g in st.gen_reps for x in g.values())
    pairs = list(zip(H.stages, H.stages[1:]))
    for a, b in ((H, H2), (H2, H)):
        pairs += [(a.stages[a.module.segment(r)], b.stages[b.module.segment(r + eps)])
                  for r in segment_reps(a.complex.critical_values)]
    for src, tgt in pairs:
        assert _induced_payload(src, tgt) == induced_payload_oracle(src, tgt)
    _assert_matches_dense_stages(K, k, "Z", eps, seed)
    return H


@pytest.mark.parametrize("perturbation", [None, (Fr(1, 8), 1), (Fr(1, 4), 2), (Fr(1, 2), 3)])
@pytest.mark.parametrize("name", ["klein_bottle.flt", "rp2"])
def test_integer_stop_is_the_first_non_unit_lead(name, perturbation):
    """H_1 of the Klein bottle and of RP^2 has torsion, which a lead of 2
    shows: the stages from its value on are Smith normal forms.  In
    degree 2 there is no d_3 to stop the reduction, and every stage
    reads it."""
    K = parse_filtration(rp2_text() if name == "rp2" else (DATA / name).read_text())
    if perturbation:
        K = perturb(K, *perturbation)
    for k in (1, 2):
        H = _assert_stop_splits_the_integer_stages(K, k)
        assert H.lead_stop == _first_non_unit_lead(K, k)
        assert (H.lead_stop < len(K.critical_values)) == (k == 1)


@pytest.mark.parametrize("triangle", RP2_UNUSED)
def test_integer_stop_at_a_cycle_with_a_fractional_combination(triangle, monkeypatch):
    """RP^2 and one of its ten unused triangles at value 2, in degree 2:
    d_3 is zero, so no lead stops the reduction, but the cycle the new
    triangle closes over Q is the triangle plus halves of the others.
    The reduction over Z keeps twice that cycle, leading with +-2 at the
    triangle, so the stage at value 2 is a table stage generated by it,
    and the module runs no Smith normal form."""
    calls = []
    real = exact.smith_normal_form
    for mod in (exact, homology):
        monkeypatch.setattr(mod, "smith_normal_form", lambda M: calls.append(M) or real(M))
    K = parse_filtration(rp2_text() + f"\n{' '.join(map(str, triangle))} : 2")
    H = persistent_homology(K, 2, "Z")
    assert H.module.objects[-1].data == (1, ())
    assert calls == []
    monkeypatch.undo()
    last = H.stages[-1]
    assert (H.lead_stop, K.critical_values[-1]) == (len(K.critical_values), 2)
    assert _is_table_stage(last) and [abs(g[triangle]) for g in last.gen_reps] == [2]
    _assert_stop_splits_the_integer_stages(K, 2)


def _assert_rank_maps_z_diagram_onto_q(K, k):
    """The rank homomorphism [Z] -> [line], [Z/p^m] -> 0 maps the type A
    diagram over Z onto the one over Q, cell by cell: Q is flat, so
    im(f (x) Q) = (im f) (x) Q, and Moebius inversion is linear.  Returns
    the cells over Q."""
    YZ = type_A_diagram(persistent_module(K, k, "Z"))
    YQ = type_A_diagram(persistent_module(K, k, "Q"))
    assert YZ.grid == YQ.grid
    rho = {cell: {"line": v.mult()["Z"]} for cell, v in YZ.cells if "Z" in v.mult()}
    assert rho == {cell: v.mult() for cell, v in YQ.cells}
    return YQ.cells


def test_rank_maps_integer_diagram_onto_rational_one():
    def check(K, k):
        _assert_rank_maps_z_diagram_onto_q(K, k)

    _over_each_family(check, st.integers(0, 2))


@pytest.mark.parametrize("name", ["klein_bottle.flt", "rp2"])
def test_rank_maps_torsion_to_zero(name):
    K = parse_filtration(rp2_text() if name == "rp2" else (DATA / name).read_text())
    for k in range(3):
        _assert_rank_maps_z_diagram_onto_q(K, k)


def test_rank_maps_integer_diagram_onto_rational_one_on_rips():
    """A 20-point Manhattan Rips complex up to triangles: 1,350 simplices,
    33 critical values, five cells in its H_1 diagram."""
    rng = random.Random(5)
    pts = [(rng.randint(0, 20), rng.randint(0, 20)) for _ in range(20)]
    K = rips_filtration([[abs(a - c) + abs(b - d) for c, d in pts] for a, b in pts])
    assert len(K.simplices) == 1350
    assert len(_assert_rank_maps_z_diagram_onto_q(K, 1)) == 5


def test_field_stage_reduces_once(monkeypatch):
    """A field stage runs no column reduction of its own: the reduction of
    the whole filtration runs two (boundaries, then cycles with
    clearing), and coordinates reuse its table."""
    calls = []
    real = exact.field_reduce
    counting = lambda *args, **kw: calls.append(args) or real(*args, **kw)  # noqa: E731
    monkeypatch.setattr(exact, "field_reduce", counting)
    monkeypatch.setattr(homology, "field_reduce", counting)
    K = parse_filtration((DATA / "torus.flt").read_text())
    dims = []
    for coeffs in ("Q", "Fp:2"):
        for k in range(3):
            stage = _Stage(persistent_homology(K, k, coeffs), K.critical_values[-1])
            assert len(calls) == 2
            calls.clear()
            assert [stage.coords(g) for g in stage.gen_reps] == \
                Mat.identity(stage.obj.data).to_lists()
            assert calls == []
            dims.append(stage.obj.data)
    assert dims == [1, 2, 1] * 2


@pytest.mark.parametrize("stage", [-2, -1])
@pytest.mark.parametrize("coeffs", ["Z", "Zm:4", "Q", "Fp:2"])
def test_coords_refuse_a_chain_that_is_not_a_cycle(coeffs, stage):
    """A single edge of the Klein bottle's last two stages is no 1-cycle,
    nor is the first 1-cell of the mapping cone of 4, and every route
    says so alike: the table (Q, F_2 and Z before its `lead_stop`) and
    the core (Z at the last stage, Z/4 at both)."""
    K = parse_filtration((DATA / "klein_bottle.flt").read_text())
    H = persistent_homology(K, 1, coeffs)
    st = H.stages[stage]
    assert _is_table_stage(st) == (coeffs in ("Q", "Fp:2") or (coeffs, stage) == ("Z", -2))
    with pytest.raises(FiltrationError, match="chain is not a cycle of this stage"):
        st.coords({st.k_simplices[0]: 1})


def _universal_coefficients(K, k, m):
    """Per stage, whether H_k(K_t; Z/m) is H_k(K_t) (x) Z/m (+) Tor(H_{k-1}(K_t), Z/m)
    (Hatcher, Thm 3A.3) as isomorphism classes: Z (x) Z/m = Z/m, and
    Z/d (x) Z/m = Tor(Z/d, Z/m) = Z/gcd(d, m)."""
    over_z = [persistent_homology(K, j, "Z").stages if j >= 0 else None for j in (k, k - 1)]
    found = []
    for i, st in enumerate(persistent_homology(K, k, f"Zm:{m}").stages):
        (rank, invs), tors = over_z[0][i].obj.data, over_z[1][i].obj.data[1] if k else ()
        orders = [m] * rank + [math.gcd(d, m) for d in invs + tors]
        found.append(iso_class(st.obj) == iso_from_invariants(finab(), 0,
                                                               [q for q in orders if q > 1]))
    return found


def _assert_universal_coefficients(K, k, m):
    assert all(_universal_coefficients(K, k, m))


def test_z_mod_m_stages_obey_universal_coefficients():
    _over_each_family(_assert_universal_coefficients, st.integers(0, 2),
                      st.sampled_from([2, 3, 4, 6]))


@pytest.mark.parametrize("perturbation", [None, (Fr(1, 8), 1), (Fr(1, 4), 2)])
@pytest.mark.parametrize("name", ["klein_bottle.flt", "rp2"])
def test_z_mod_m_stages_obey_universal_coefficients_with_torsion(name, perturbation):
    """H_1 of both surfaces has a Z/2, which Z/m for even m sees twice:
    in H_1 and, through Tor, in H_2."""
    K = parse_filtration(rp2_text() if name == "rp2" else (DATA / name).read_text())
    if perturbation:
        K = perturb(K, *perturbation)
    for k in range(3):
        for m in (2, 3, 4, 6):
            _assert_universal_coefficients(K, k, m)


def _zm_input(name):
    """A bundled filtration, as given or perturbed, or grid torus or
    Klein bottle 5."""
    if name.startswith("grid"):
        return grid_complex(5, seed=1, klein=name == "grid-klein-5")
    K = parse_filtration((DATA / name.removesuffix("-perturbed")).read_text())
    return perturb(K, Fr(1, 4), seed=2) if name.endswith("-perturbed") else K


ZM_INPUTS = [f"{name}{how}" for name in ("triangle.flt", "torus.flt", "klein_bottle.flt")
             for how in ("", "-perturbed")] + ["grid-torus-5", "grid-klein-5"]


@pytest.mark.parametrize("name", ZM_INPUTS)
def test_z_mod_m_stages_match_the_whole_stage_oracle(name):
    """Over Z/m, for m = 2, 4, 6 in degrees 0-2, the module read off the
    mapping cone has per stage the object of the oracle that takes each
    stage whole as a quotient of lattices of k-chains, and both modules
    have the same type A diagram, which is also the one the CLI reads."""
    K = _zm_input(name)
    for m in (2, 4, 6):
        for k in range(3):
            H, N = persistent_homology(K, k, f"Zm:{m}"), snf_integer_homology(K, k, m)[1]
            assert H.module.objects == N.objects
            assert type_A_diagram(H.module) == filtration_type_A(H) == type_A_diagram(N)


def _square_free_type_A(K, k, m) -> DiagramGrid:
    """Y_A over Z/m for square-free m, from field bars alone: Z/m is the
    product of the F_p over the primes p | m, so the module is the sum of
    its F_p modules, each a sum of intervals, and cell (i, j) is the sum
    over p of its F_p bars times [Z/p]."""
    invs: dict = {}
    for p in (q for q in (2, 3, 5, 7) if m % q == 0):
        for cell, mult in barcode(persistent_homology(K, k, f"Fp:{p}")).items():
            invs.setdefault(cell, []).extend([p] * mult)
    cells = {c: iso_from_invariants(finab(), 0, ds) for c, ds in invs.items()}
    return DiagramGrid.make("A", finab(), K.critical_values, cells, role="diagram")


@pytest.mark.parametrize("name", ZM_INPUTS)
def test_square_free_z_mod_m_diagram_is_the_sum_of_prime_field_bars(name):
    K = _zm_input(name)
    for m in (2, 3, 6, 30):
        for k in range(3):
            assert filtration_type_A(persistent_homology(K, k, f"Zm:{m}")) == \
                _square_free_type_A(K, k, m)


def _rips_z_input():
    """Input A of the benchmark's `rips-z` workload at seed 1, from
    perfbench/inputs.py: a 12-point Rips complex, 298 simplices and 26
    values, on which `gpd diagram --degree 2` over Z/4 and Z/6 once ran
    for more than a minute."""
    spec = importlib.util.spec_from_file_location("bench_inputs", ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return parse_filtration(inputs.rips_flt(inputs.rng_for("rips-z", 1, 0), 12))


def test_square_free_z_mod_m_diagram_on_the_rips_input():
    K = _rips_z_input()
    Y = filtration_type_A(persistent_homology(K, 2, "Zm:6"))
    assert Y == _square_free_type_A(K, 2, 6) and Y.cells


def test_z_mod_m_stages_run_one_smith_normal_form_each_and_no_lattice_quotient(monkeypatch):
    """On the `rips-z` input in degree 2 over Z/4, building the stages
    constructs no `LatticeQuotient` and runs one Smith normal form per
    stage from `lead_stop` on, each of its core: 24, on at most 304,907
    entries in all (the whole-stage lattice quotients ran 54 on
    609,814)."""
    K = _rips_z_input()
    snfs, quotients = [], []
    real_snf, real_quotient = exact.smith_normal_form, exact.LatticeQuotient.__init__
    for mod in (exact, homology):
        monkeypatch.setattr(mod, "smith_normal_form",
                            lambda M: snfs.append(M.rows * M.cols) or real_snf(M))
    monkeypatch.setattr(exact.LatticeQuotient, "__init__",
                        lambda q, *a: quotients.append(a) or real_quotient(q, *a))
    H = persistent_homology(K, 2, "Zm:4")
    assert len(H.stages) == 27 and H.lead_stop == 2
    assert quotients == [] and len(snfs) == 24 and sum(snfs) <= 304_907
    _assert_cores_exactly_from_lead_stop(H)


@pytest.mark.parametrize("coeffs", ["Q", "Zm:4"])
def test_coords_refuse_a_chain_outside_the_stage(coeffs):
    """On table stages (every stage over Q, those to `lead_stop` over
    Z/4) and SNF stages (the later ones over Z/4) alike, a chain holding
    a k-cell of a later stage is not a chain of the stage, alone or
    added to a generator.  Neither is a cycle of a later stage whose
    lowest cell enters after it, although the table's later columns
    would clear it.  The torus is perturbed, so that cells enter at
    many values."""
    K = perturb(parse_filtration((DATA / "torus.flt").read_text()), Fr(1, 4), seed=2)
    H = persistent_homology(K, 1, coeffs)
    _assert_cores_exactly_from_lead_stop(H)
    refused = Counter()
    for st in H.stages:
        m, inside = len(st.k_simplices), set(st.k_simplices)
        later = [s for s in H.stages[-1].k_simplices if s not in inside]
        chains = [{s: 1} for s in later] + [{**g, s: 1} for g in st.gen_reps for s in later]
        chains += [c for p, c in H.chains.items() if p >= m]  # cycles entering after st
        for chain in chains:
            with pytest.raises(FiltrationError, match="outside this stage"):
                st.coords(chain)
        refused[_is_table_stage(st)] += len(chains)
    assert refused[True] > 0 and (refused[False] > 0) == (coeffs == "Zm:4")


@pytest.mark.parametrize("coeffs", ["Q", "Fp:2", "Z"])
def test_induced_maps_coerce_only_the_nonzeros_of_the_source_chains(monkeypatch, coeffs):
    """A connecting map of the module between two stages below `lead_stop` is
    read off `born` and `death` and coerces nothing; one into a stage
    from `lead_stop` on coerces at most one entry per nonzero of its source
    generators' chains, not one per k-simplex of the target.  Each
    direction of an interleaving clears a source chain once, however
    many of its maps read it: it coerces at most one entry per nonzero
    of its distinct source chains.  `make_mor` coerces the finished
    matrix on its own, after the map is built, and is not counted."""
    cls = type(homology.parse_coeffs(coeffs)[1])
    real = cls.coerce
    coerced, per_map = [], []
    monkeypatch.setattr(cls, "coerce", lambda self, x: coerced.append(x) or real(self, x))

    def counting(build):
        def wrapped(src, tgt, *rest):
            before = len(coerced)
            M = build(src, tgt, *rest)
            per_map.append((build, _is_table_stage(tgt), len(coerced) - before,
                            sum(len(g) for g in src.gen_reps)))
            return M
        return wrapped

    for name in ("_induced_payload", "_partial_identity"):
        monkeypatch.setattr(homology, name, counting(getattr(homology, name)))
    targets = Counter()
    for name in ("torus.flt", "klein_bottle.flt"):
        K = parse_filtration((DATA / name).read_text())
        for k in range(3):
            per_map.clear()
            H = persistent_homology(K, k, coeffs)
            assert H.module.objects
            assert len(per_map) == len(K.critical_values)
            for build, table, n, nonzeros in per_map:
                assert (build.__name__ == "_partial_identity") == table
                assert n == 0 if table else n <= nonzeros
                targets[table] += 1
        K2 = perturb(K, Fr(1, 8), seed=1)
        H, H2 = persistent_homology(K, 1, coeffs), persistent_homology(K2, 1, coeffs)
        H.module, H2.module
        per_map.clear()
        interleaving_from_perturbation(H, H2, Fr(1, 8))
        distinct = {id(g): len(g) for L in (H, H2) for stage in L.stages for g in stage.gen_reps}
        n = sum(n for _, _, n, _ in per_map)
        assert n <= sum(distinct.values())
        assert n > 0 or not any(table and nonzeros for _, table, _, nonzeros in per_map)
    assert targets[True] and bool(targets[False]) == (coeffs == "Z")  # Z: Klein bottle H_1


def test_rational_stage_on_integer_path_clears_fractional_cycles():
    # the torus H1 stages over Q reduce integer columns in int arithmetic;
    # a cycle with non-integer entries, such as a generator of a stage
    # where a pivot does not divide, still clears to its coordinates
    K = parse_filtration((DATA / "torus.flt").read_text())
    stage = _Stage(persistent_homology(K, 1, "Q"), K.critical_values[-1])
    assert stage.obj.data == 2
    g, h = stage.gen_reps
    assert stage.coords({s: Fr(v, 2) for s, v in g.items()}) == [Fr(1, 2), 0]
    assert stage.coords({s: Fr(g.get(s, 0), 2) + Fr(h.get(s, 0), 3) for s in g.keys() | h.keys()}) \
        == [Fr(1, 2), Fr(1, 3)]
    assert stage.coords({s: Fr(v) for s, v in h.items()}) == [0, 1]
    with pytest.raises(FiltrationError):
        stage.coords({stage.k_simplices[0]: Fr(1, 2)})


def test_rational_stages_reduce_once_over_the_rationals(monkeypatch):
    """A module over Q runs two reductions over QQ and no other, whatever
    its number of stages, also on the Klein bottle, whose pivots do not
    all divide; the dimensions are those of the dense oracle."""
    rings, quotients = [], []
    real, div = exact.field_reduce, exact.QQ.div
    monkeypatch.setattr(homology, "field_reduce",
                        lambda F, *args, **kw: rings.append(F) or real(F, *args, **kw))
    monkeypatch.setattr(exact.QQ, "div", lambda a, b: quotients.append(div(a, b)) or div(a, b))
    for name in ("torus.flt", "klein_bottle.flt"):
        K = parse_filtration((DATA / name).read_text())
        for k in range(3):
            rings.clear()
            H = persistent_homology(K, k, "Q")
            assert rings == [exact.QQ] * 2
            assert H.module.objects == dense_field_homology(K, k, "Q")[1].objects
        assert any(type(q) is Fr for q in quotients) == (name == "klein_bottle.flt")
        quotients.clear()


def test_rips_filtration():
    dist = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    K = rips_filtration(dist, max_dim=2)
    assert K.simplices_of_dim(0) == [(0,), (1,), (2,)]
    vals = dict(zip(K.simplices, K.values))
    assert vals[(0, 1)] == 1 and vals[(0, 2)] == 2 and vals[(0, 1, 2)] == 2
    C = component_module(K)
    assert [o.data for o in C.objects] == [0, 3, 1, 1]


def test_make_complex_validates():
    with pytest.raises(FiltrationError):
        make_complex([((0,), 0), ((0, 1), 1)])  # vertex 1 missing
    with pytest.raises(FiltrationError):
        make_complex([((0,), 0), ((1,), 0), ((0, 1), 1), ((0, 1), 2)])
