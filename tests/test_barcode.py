"""The barcode engine of `gpd diagram` against the per-stage path, which
stays its oracle, and against the universal coefficient theorem."""

import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpd import cli, homology
from gpd.diagram import type_A_diagram, type_B_from_A
from gpd.homology import (
    barcode,
    component_type_A,
    filtration_type_A,
    make_complex,
    parse_filtration,
    persistent_homology,
    persistent_module,
    perturb,
)
from gpd.serialize import diagram_to_json

from generators import grid_complex, rips_filtration
from oracles import component_module, snf_integer_homology
from test_homology import _complexes, rp2_text

DATA = Path(__file__).resolve().parent.parent / "src" / "gpd" / "data"


def _rips():
    """A seeded 20-point Manhattan Rips complex up to triangles: 1,350
    simplices on seven values."""
    rng = random.Random(3)
    pts = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(20)]
    return rips_filtration([[abs(a - c) + abs(b - d) for c, d in pts] for a, b in pts])


def _named(name):
    """A named input; "<name>@<eps>#<seed>" is `perturb` of it."""
    base, _, perturbation = name.partition("@")
    if perturbation:
        eps, seed = perturbation.split("#")
        return perturb(_named(base), Fraction(eps), int(seed))
    if name == "rips":
        return _rips()
    return parse_filtration(rp2_text() if name == "rp2" else (DATA / name).read_text())


def _flt_text(K) -> str:
    return "".join(f"{' '.join(map(str, s))} : {v}\n" for s, v in zip(K.simplices, K.values))


def _assert_barcode_matches_stages(K, k, coeffs):
    """Where `barcode` decides, its type A and type B diagrams are those
    of the per-stage module, byte for byte; returns whether it decided."""
    H = persistent_homology(K, k, coeffs)
    if barcode(H) is None:
        return False
    YA = type_A_diagram(persistent_module(K, k, coeffs))
    got = filtration_type_A(H)
    assert "stages" not in vars(H)  # the bars path builds no stage
    assert diagram_to_json(got) == diagram_to_json(YA)
    assert diagram_to_json(type_B_from_A(got)) == diagram_to_json(type_B_from_A(YA))
    return True


# `gpd stability` reads the bars of perturbed filtrations: of these too
_filtrations = st.one_of(_complexes(), st.builds(perturb, _complexes(),
                                                 st.sampled_from([Fraction(1, 4), Fraction(1, 2)]),
                                                 st.integers(0, 2**16)))


@settings(max_examples=120, deadline=None)
@given(_filtrations, st.sampled_from(["Q", "Fp:2", "Fp:3", "Z"]), st.integers(0, 2))
def test_barcode_diagrams_match_stages(K, coeffs, k):
    assert _assert_barcode_matches_stages(K, k, coeffs) or coeffs == "Z"


@pytest.mark.parametrize("coeffs", ["Q", "Fp:2", "Fp:3", "Z"])
@pytest.mark.parametrize("name", ["triangle.flt", "torus.flt", "klein_bottle.flt", "rp2", "rips",
                                  "triangle.flt@1/4#2", "torus.flt@1/8#1",
                                  "klein_bottle.flt@1/8#1"])
def test_barcode_diagrams_match_stages_on_bundled_data(name, coeffs):
    K = _named(name)
    decided = [_assert_barcode_matches_stages(K, k, coeffs) for k in range(3)]
    torsion_h1 = coeffs == "Z" and name.partition("@")[0] in ("klein_bottle.flt", "rp2")
    assert decided == [True, not torsion_h1, True]


def test_cli_diagram_falls_back_exactly_where_barcode_returns_none(monkeypatch, capsys, tmp_path):
    """Z H_1 of the Klein bottle and of RP^2 has torsion, so `barcode`
    returns None and `gpd diagram` builds the module stage by stage; it
    does so for Z/m coefficients too, and never for the torus, the Rips
    complex or a field.  `gpd stability` makes the same choice for F and
    for every perturbed G, and inverts the image classes of the modules
    it built for the interleaving check, never of a rebuilt one."""
    decided, complexes, staged, inverted = [], [], [], []

    def counted_barcode(H):
        complexes.append(H.complex)
        bars = barcode(H)
        decided.append(bars is not None)
        return bars

    def modules_built():
        return len({id(red) for red in staged})

    real_stage = homology._Stage
    monkeypatch.setattr(homology, "barcode", counted_barcode)
    monkeypatch.setattr(homology, "_Stage",
                        lambda red, at: staged.append(red) or real_stage(red, at))
    monkeypatch.setattr(homology, "type_A_diagram",
                        lambda F: inverted.append(F) or type_A_diagram(F))
    runs = [("klein_bottle.flt", "Z", False), ("rp2", "Z", False), ("torus.flt", "Z", True),
            ("rips", "Z", True), ("klein_bottle.flt", "Fp:2", True), ("rp2", "Q", True),
            ("torus.flt", "Zm:2", False), ("klein_bottle.flt", "Zm:4", False)]
    for name, coeffs, engine in runs:
        path = tmp_path / "in.flt"
        path.write_text(_flt_text(_named(name)))
        decided.clear()
        staged.clear()
        inverted.clear()
        argv = ["diagram", "--input", str(path), "--coeff", coeffs, "--degree", "1"]
        assert cli.main(argv + ["--type", "B"]) == 0
        assert decided == [engine], name
        assert modules_built() == (0 if engine else 1), name
        assert len(inverted) == (0 if engine else 1), name
    trials = 2
    runs = [("torus.flt", "Z", True), ("torus.flt", "Q", True), ("torus.flt", "Fp:2", True),
            ("klein_bottle.flt", "Z", False), ("torus.flt", "Zm:4", False)]
    for name, coeffs, engine in runs:
        decided.clear()
        complexes.clear()
        staged.clear()
        inverted.clear()
        argv = ["stability", "--input", str(DATA / name), "--coeff", coeffs, "--degree", "1",
                "--epsilon", "1/8", "--trials", str(trials)]
        assert cli.main(argv) == 0
        assert decided == [engine] * (1 + trials), (name, coeffs)
        K = _named(name)
        assert complexes == [K] + [perturb(K, Fraction(1, 8), t) for t in range(trials)]
        assert modules_built() == 1 + trials, (name, coeffs)
        assert len(inverted) == (0 if engine else 1 + trials), (name, coeffs)
        assert len({id(F) for F in inverted}) == len(inverted), (name, coeffs)
    capsys.readouterr()


@pytest.mark.parametrize("argv, built", [
    (["stability", "--input", "torus.flt", "--coeff", "Z", "--degree", "1", "--epsilon", "1/8",
      "--trials", "2"], 3),
    (["diagram", "--input", "klein_bottle.flt", "--coeff", "Z", "--degree", "1"], 1),
    (["diagram", "--input", "torus.flt", "--category", "finset"], 1),
])
def test_cli_reduces_each_filtration_once(monkeypatch, capsys, argv, built):
    """`gpd stability` reduces F's filtration and each perturbed one once,
    for its module and its diagram alike; `gpd diagram` on Z H_1 of the
    Klein bottle reads its stages off the reduction whose bars did not
    decide, and `--category finset` reads pi_0 off the H_0 bars of one
    reduction and builds no stage."""
    reductions, stages = [], []

    class CountedHomology(homology.PersistentHomology):
        def __init__(self, *args):
            reductions.append(args)
            super().__init__(*args)

    class CountedStage(homology._Stage):
        def __init__(self, *args, **kwargs):
            stages.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(homology, "PersistentHomology", CountedHomology)
    monkeypatch.setattr(homology, "_Stage", CountedStage)
    argv = [str(DATA / a) if a.endswith(".flt") else a for a in argv]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(reductions) == built
    assert bool(stages) == ("finset" not in argv)


def _random_graph(seed):
    """A seeded graph on 1 to 8 vertices with values in halves, often
    with isolated vertices; each edge enters at or after its ends."""
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    items = {(v,): Fraction(rng.randint(0, 6), 2) for v in range(n)}
    for a, b in combinations(range(n), 2):
        if rng.random() < 0.3:
            items[(a, b)] = max(items[(a,)], items[(b,)]) + rng.randint(0, 2)
    return make_complex(items.items())


_PI0_INPUTS = {
    **{name: (lambda name=name: _named(name))
       for name in ["triangle.flt", "torus.flt", "klein_bottle.flt", "rp2", "rips",
                    "triangle.flt@1/4#2", "torus.flt@1/8#1", "torus.flt@1/2#3",
                    "klein_bottle.flt@1/8#1", "klein_bottle.flt@1/2#2", "rp2@1/4#1"]},
    **{f"grid-{kind}-{m}": (lambda m=m, kind=kind: grid_complex(m, m, klein=kind == "klein"))
       for m in (3, 5, 8) for kind in ("torus", "klein")},
    **{f"graph-{seed}": (lambda seed=seed: _random_graph(seed)) for seed in range(30)},
    "empty": lambda: make_complex([]),
    "isolated-vertices": lambda: parse_filtration("0 : 0\n1 : 1\n2 : 1\n3 : 5/2"),
}


@pytest.mark.parametrize("name", list(_PI0_INPUTS))
def test_components_diagram_is_the_h0_barcode(name):
    """`gpd diagram --category finset` reads pi_0 off the H_0 bars: it is
    the type A diagram of the merge tree that union-find builds stage by
    stage, byte for byte."""
    K = _PI0_INPUTS[name]()
    got, want = component_type_A(K), type_A_diagram(component_module(K))
    assert got == want
    assert diagram_to_json(got) == diagram_to_json(want)


def _assert_universal_coefficients(K, p):
    """Bars of `barcode(K, k, Fp:p)` alive at each stage number
    rank H_k + t_p(H_k) + t_p(H_{k-1}) of the integer homology there,
    with t_p the number of invariant factors divisible by p."""
    def ptors(obj):
        return sum(1 for d in obj.data[1] if d % p == 0)

    below = None
    for k in range(3):
        bars = barcode(persistent_homology(K, k, f"Fp:{p}"))
        H = snf_integer_homology(K, k)[1]
        for i in range(1, H.n + 1):
            alive = sum(m for (b, d), m in bars.items() if b <= i < d)
            expected = H.objects[i].data[0] + ptors(H.objects[i])
            assert alive == expected + (ptors(below.objects[i]) if below else 0), (k, i)
        below = H


@settings(max_examples=60, deadline=None)
@given(_complexes(), st.sampled_from([2, 3]))
def test_field_bars_obey_universal_coefficients(K, p):
    _assert_universal_coefficients(K, p)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", ["klein_bottle.flt", "rp2"])
def test_field_bars_obey_universal_coefficients_at_torsion(name, p):
    _assert_universal_coefficients(_named(name), p)


def test_barcode_rejects_negative_degrees_and_leaves_finite_groups_to_the_stages():
    K = _named("triangle.flt")
    with pytest.raises(homology.FiltrationError, match="nonnegative"):
        persistent_homology(K, -1, "Q")
    assert barcode(persistent_homology(K, 1, "Zm:3")) is None
    assert barcode(persistent_homology(K, 1, "Q")) == {(2, 3): 1}
    assert barcode(persistent_homology(K, 0, "Z")) == {(1, 2): 2, (1, 3): 1}
    assert barcode(persistent_homology(K, 5, "Fp:2")) == {}
