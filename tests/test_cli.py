"""Command-line interface: subcommands, output formats, and exit codes."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpd import cli, homology, metrics, pmodule
from gpd.cli import main
from gpd.diagram import DiagramGrid
from gpd.grothendieck import NoBGroupError
from gpd.homology import interleaving_from_perturbation
from gpd.pmodule import InterleavingPair
from gpd.serialize import SerializeError, diagram_from_json

DATA = Path(__file__).resolve().parent.parent / "src" / "gpd" / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDiagram:
    def test_triangle_h1_json(self, capsys):
        code, out, _ = run(capsys, "diagram", "--input", str(DATA / "triangle.flt"),
                           "--type", "B", "--coeff", "Q", "--degree", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["cells"] == [{"i": 2, "j_or_inf": "inf", "label": {"dim": 1}}]
        assert doc["grid"] == ["0", "1"]

    def test_klein_torsion_in_tsv(self, capsys):
        code, out, _ = run(capsys, "diagram", "--input", str(DATA / "klein_bottle.flt"),
                           "--coeff", "Z", "--degree", "1", "--format", "tsv")
        assert code == 0
        assert any("[Z/2]" in line for line in out.splitlines())

    def test_svg_deterministic(self, capsys):
        args = ("diagram", "--input", str(DATA / "torus.flt"),
                "--coeff", "Q", "--degree", "1", "--format", "svg")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second and first.startswith("<svg")

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "d.json"
        code, out, _ = run(capsys, "diagram", "--input", str(DATA / "triangle.flt"),
                           "--coeff", "Q", "--degree", "0", "--out", str(dest))
        assert code == 0 and out == ""
        json.loads(dest.read_text())

    def test_empty_complex(self, capsys, tmp_path):
        src = tmp_path / "empty.flt"
        src.write_text("# nothing here\n")
        code, out, _ = run(capsys, "diagram", "--input", str(src), "--coeff", "Z")
        assert code == 0
        assert json.loads(out)["cells"] == []

    def test_finset_type_b_unsupported(self, capsys):
        code, _, err = run(capsys, "diagram", "--input", str(DATA / "triangle.flt"),
                           "--category", "finset", "--type", "B")
        assert code == 3 and err.strip()

    def test_repn_unsupported(self, capsys):
        code, _, err = run(capsys, "diagram", "--input", str(DATA / "triangle.flt"),
                           "--category", "repn")
        assert code == 3 and err.strip()

    def test_coeff_category_mismatch(self, capsys):
        code, _, err = run(capsys, "diagram", "--input", str(DATA / "triangle.flt"),
                           "--category", "vect", "--coeff", "Z")
        assert code == 2 and err.strip()

    @pytest.mark.parametrize("coeff, category, message", [
        ("Zx", "ab", "unknown coefficient token"),
        ("Fp:4", "finab", "4 is not prime"),
        ("Zm:1", "ab", "2 <= m"),
        ("Fp:abc", "vect", "'Fp:abc' needs an integer"),
        ("Fp:", "vect", "'Fp:' needs an integer"),
        ("Zm:", "finab", "'Zm:' needs an integer"),
    ])
    def test_bad_coeff_reports_parse_error(self, capsys, coeff, category, message):
        code, out, err = run(capsys, "diagram", "--input", str(DATA / "torus.flt"),
                             "--coeff", coeff, "--category", category)
        assert code == 2 and out == "" and message in err and "produce" not in err

    def test_stability_bad_coeff_names_the_token(self, capsys):
        code, out, err = run(capsys, "stability", "--input", str(DATA / "triangle.flt"),
                             "--coeff", "Zm:x", "--epsilon", "1/8")
        assert code == 2 and out == "" and "'Zm:x' needs an integer" in err

    @pytest.mark.parametrize("value", ["1e10000000", "1e-10000000"])
    def test_huge_exponent_value_exit_2(self, capsys, tmp_path, value):
        src = tmp_path / "huge.flt"
        src.write_text(f"0 : {value}\n")
        code, out, err = run(capsys, "diagram", "--input", str(src))
        assert code == 2 and out == "" and "line 1" in err

    def test_too_many_digits_value_exit_2(self, capsys, tmp_path):
        src = tmp_path / "digits.flt"
        src.write_text("0 : 1e4300\n")
        code, out, err = run(capsys, "diagram", "--input", str(src), "--coeff", "Q")
        assert code == 2 and out == "" and "line 1" in err

    @pytest.mark.parametrize("coeff", ["Fp:1000000000000000003", "Zm:1000000000000000003"])
    def test_huge_modulus_exit_2(self, capsys, coeff):
        code, out, err = run(capsys, "diagram", "--input", str(DATA / "triangle.flt"),
                             "--coeff", coeff)
        assert code == 2 and out == "" and "2147483648" in err

    def test_parse_error_exit_2(self, capsys, tmp_path):
        src = tmp_path / "bad.flt"
        src.write_text("0 : 0\n1 : 2\n0 1 : 1\n")
        code, _, err = run(capsys, "diagram", "--input", str(src))
        assert code == 2 and "3" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "diagram", "--input", "/nonexistent.flt")
        assert code == 2 and err.strip()

    def test_unwritable_out_exit_2(self, capsys, tmp_path):
        dest = tmp_path / "missing" / "d.json"
        code, out, err = run(capsys, "diagram", "--input", str(DATA / "triangle.flt"),
                             "--coeff", "Q", "--out", str(dest))
        assert code == 2 and out == "" and "cannot write" in err
        code, _, err = run(capsys, "convert", "--input", str(DATA / "sample_a.json"),
                           "--out", str(dest))
        assert code == 2 and "cannot write" in err


class TestErosion:
    def test_self_distance_zero(self, capsys):
        code, out, _ = run(capsys, "erosion", str(DATA / "sample_a.json"),
                           str(DATA / "sample_b.json"))
        assert code == 0
        assert out.splitlines()[0] == "distance\t1"
        code, out, _ = run(capsys, "erosion", str(DATA / "sample_a.json"),
                           str(DATA / "sample_a.json"))
        assert code == 0 and out.splitlines()[0] == "distance\t0"

    def test_candidate_table_present(self, capsys):
        _, out, _ = run(capsys, "erosion", str(DATA / "sample_a.json"),
                        str(DATA / "sample_b.json"))
        lines = out.splitlines()
        assert lines[1] == "candidate\tok"
        assert ("1\tyes" in lines) and any(l.endswith("no") for l in lines[2:])

    def test_group_mismatch_exit_2(self, capsys, tmp_path):
        doc = json.loads((DATA / "sample_a.json").read_text())
        doc["group"]["tag"] = "A"
        doc["cells"] = []
        other = tmp_path / "a.json"
        other.write_text(json.dumps(doc))
        code, _, err = run(capsys, "erosion", str(DATA / "sample_a.json"), str(other))
        assert code == 2 and err.strip()


class TestStability:
    def test_all_pass_small_eps(self, capsys):
        code, out, _ = run(capsys, "stability", "--input", str(DATA / "triangle.flt"),
                           "--coeff", "Z", "--degree", "1",
                           "--epsilon", "1/8", "--trials", "3", "--seed", "1")
        assert code == 0
        rows = out.splitlines()
        assert rows[0] == "trial\tinterleaving\tcontinuity\tsemicontinuity"
        assert all(r.split("\t")[1:] == ["pass", "pass", "pass"] for r in rows[1:])

    def test_semicontinuity_skipped_above_threshold(self, capsys):
        code, out, _ = run(capsys, "stability", "--input", str(DATA / "triangle.flt"),
                           "--coeff", "Q", "--degree", "0",
                           "--epsilon", "1/2", "--trials", "2", "--seed", "0")
        assert code == 0
        assert all(r.endswith("skipped") for r in out.splitlines()[1:])

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_nonpositive_trials_exit_2(self, capsys, trials):
        code, out, err = run(capsys, "stability", "--input", str(DATA / "triangle.flt"),
                             "--epsilon", "1/8", "--trials", trials)
        assert code == 2 and out == "" and "trials" in err

    def test_empty_filtration_passes(self, capsys, tmp_path):
        src = tmp_path / "empty.flt"
        src.write_text("# nothing here\n")
        code, out, _ = run(capsys, "stability", "--input", str(src),
                           "--epsilon", "1/8", "--trials", "2")
        assert code == 0
        rows = out.splitlines()
        assert len(rows) == 3
        assert all(r.split("\t")[1:3] == ["pass", "pass"] for r in rows[1:])

    def test_negative_epsilon_exit_2(self, capsys):
        code, _, err = run(capsys, "stability", "--input", str(DATA / "triangle.flt"),
                           "--epsilon", "-1", "--trials", "1")
        assert code == 2 and err.strip()

    @pytest.mark.parametrize("eps", ["1e10000000", "1e-10000000"])
    def test_huge_exponent_epsilon_exit_2(self, capsys, eps):
        code, out, err = run(capsys, "stability", "--input", str(DATA / "triangle.flt"),
                             "--epsilon", eps, "--trials", "1")
        assert code == 2 and out == "" and "bad rational" in err

    def test_one_persistent_homology_per_filtration(self, capsys, monkeypatch):
        calls = []
        real = homology.persistent_homology
        monkeypatch.setattr(homology, "persistent_homology",
                            lambda *args: calls.append(args) or real(*args))
        code, _, _ = run(capsys, "stability", "--input", str(DATA / "torus.flt"),
                         "--degree", "1", "--epsilon", "1/8", "--trials", "3")
        assert code == 0 and len(calls) == 4

    def test_integer_stages_run_smith_normal_forms_only_on_cores(self, capsys, monkeypatch):
        """The Klein bottle call of the `stability` workload in perfbench:
        over its 11 filtrations (the given one and 10 perturbations), each
        stage from `lead_stop` on (11 in all) runs one Smith normal form, on
        the small core the table leaves, not an integer kernel and a
        lattice quotient of the whole stage."""
        from gpd import exact

        shapes, building = [], []
        real_snf, real_init = exact.smith_normal_form, homology._Stage.__init__

        def snf(M, **kw):
            if building:
                shapes.append((M.rows, M.cols))
            return real_snf(M, **kw)

        def init(self, *args, **kw):
            building.append(self)
            try:
                real_init(self, *args, **kw)
            finally:
                building.pop()

        for mod in (exact, homology):
            monkeypatch.setattr(mod, "smith_normal_form", snf)
        monkeypatch.setattr(homology._Stage, "__init__", init)
        code, _, _ = run(capsys, "stability", "--input", str(DATA / "klein_bottle.flt"),
                         "--coeff", "Z", "--degree", "1", "--epsilon", "1/8", "--trials", "10",
                         "--seed", "1")
        assert code == 0
        assert 0 < len(shapes) <= 11
        assert sum(r * c for r, c in shapes) <= 1000

    def test_semicontinuity_builds_no_eroded_diagram(self, capsys, monkeypatch):
        def broken(*args):
            raise AssertionError("erode called")

        monkeypatch.setattr(metrics, "erode", broken)
        code, out, _ = run(capsys, "stability", "--input", str(DATA / "torus.flt"),
                           "--degree", "1", "--epsilon", "1/8", "--trials", "2")
        assert code == 0
        assert all(r.split("\t")[1:] == ["pass", "pass", "pass"] for r in out.splitlines()[1:])


class TestConvert:
    def test_json_round_trip_byte_identical(self, capsys):
        original = (DATA / "sample_a.json").read_text()
        code, out, _ = run(capsys, "convert", "--input", str(DATA / "sample_a.json"),
                           "--format", "json")
        assert code == 0 and out == original

    def test_tsv_and_svg(self, capsys):
        code, out, _ = run(capsys, "convert", "--input", str(DATA / "sample_b.json"),
                           "--format", "tsv")
        assert code == 0 and out.splitlines()[0].startswith("i\t")
        code, out, _ = run(capsys, "convert", "--input", str(DATA / "sample_b.json"),
                           "--format", "svg")
        assert code == 0 and out.startswith("<svg")

    def test_bad_json_exit_2(self, capsys, tmp_path):
        src = tmp_path / "bad.json"
        src.write_text("{not json")
        code, _, err = run(capsys, "convert", "--input", str(src))
        assert code == 2 and err.strip()

    @pytest.mark.parametrize("value", ["1e10000000", "1e-10000000"])
    @pytest.mark.parametrize("where", ["grid", "label"])
    def test_huge_exponent_in_diagram_exit_2(self, capsys, tmp_path, value, where):
        doc = {"grid": ["0"], "cells": [{"i": 1, "j_or_inf": "inf", "label": {"j:1:1": 1}}],
               "group": {"tag": "A", "category": "repn", "field": "Q", "role": "diagram"}}
        if where == "grid":
            doc["grid"] = [value]
        else:
            doc["cells"][0]["label"] = {f"j:{value}:1": 1}
        text = json.dumps(doc)
        with pytest.raises(SerializeError):
            diagram_from_json(text)
        src = tmp_path / "huge.json"
        src.write_text(text)
        code, out, err = run(capsys, "convert", "--input", str(src))
        assert code == 2 and out == "" and "exceeds" in err

    @pytest.mark.parametrize("field, where, value", [
        ("F1000000000000000003", "field", "F1000000000000000003"),
        ("Q", "label", [1]),
        ("Q", "label", "dim"),
        ("Q", "field", 5),
        ("Q", "tag", "C"),
    ])
    def test_malformed_diagram_exit_2(self, capsys, tmp_path, field, where, value):
        doc = {"grid": ["0"], "cells": [{"i": 1, "j_or_inf": "inf", "label": {"dim": 1}}],
               "group": {"tag": "B", "category": "vect", "field": field, "role": "diagram"}}
        if where == "label":
            doc["cells"][0]["label"] = value
        else:
            doc["group"][where] = value
        src = tmp_path / "bad.json"
        src.write_text(json.dumps(doc))
        code, out, err = run(capsys, "convert", "--input", str(src))
        assert code == 2 and out == "" and err.startswith("error: bad diagram file")

    @pytest.mark.parametrize("fmt", ["tsv", "svg"])
    @pytest.mark.parametrize("label", ["t:3:100000000", "t:2:14285", "t:1:5", "t:0:1", "t:-3:2",
                                       "t:2147483659:1", "t:2:0", "t:3:-1"])
    def test_prime_power_label_out_of_bounds_exit_2(self, capsys, tmp_path, fmt, label):
        doc = {"grid": ["0"], "cells": [{"i": 1, "j_or_inf": "inf", "label": {label: 1}}],
               "group": {"tag": "A", "category": "ab", "role": "diagram"}}
        src = tmp_path / "power.json"
        src.write_text(json.dumps(doc))
        code, out, err = run(capsys, "convert", "--input", str(src), "--format", fmt)
        assert code == 2 and out == "" and err.startswith("error: bad diagram file")

    def test_prime_power_label_at_the_digit_bound(self, capsys, tmp_path):
        m = 14284  # 2**14284 has 4300 digits, 2**14285 has 4301
        assert len(str(2 ** m)) == 4300
        doc = {"grid": ["0"], "cells": [{"i": 1, "j_or_inf": "inf", "label": {f"t:2:{m}": 1}}],
               "group": {"tag": "A", "category": "ab", "role": "diagram"}}
        src = tmp_path / "power.json"
        src.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "convert", "--input", str(src), "--format", "tsv")
        assert code == 0 and f"[Z/{2 ** m}]" in out

    @pytest.mark.parametrize("tag, category, label, prime", [
        ("A", "ab", "t:4:1", False), ("A", "finab", "t:6:1", False), ("B", "finab", "p:4", False),
        ("A", "ab", "t:2:2", True), ("B", "finab", "p:2", True),
        ("A", "ab", "t:2147483647:1", True),
    ])
    def test_torsion_label_needs_a_prime(self, capsys, tmp_path, tag, category, label, prime):
        """ℤ/4 is t:2:2, never t:4:1: a non-prime p in a torsion label
        would name one group two ways, so both commands refuse it."""
        doc = {"grid": ["0"], "cells": [{"i": 1, "j_or_inf": "inf", "label": {label: 1}}],
               "group": {"tag": tag, "category": category, "role": "diagram"}}
        src = tmp_path / "cell.json"
        src.write_text(json.dumps(doc))
        for argv in (["convert", "--input", str(src)], ["erosion", str(src), str(src)]):
            code, out, err = run(capsys, *argv)
            if prime:
                assert code == 0 and out and err == ""
            else:
                assert code == 2 and out == "" and err.startswith("error: bad diagram file")
                assert "prime" in err

    def test_deeply_nested_diagram_exit_2(self, capsys, tmp_path):
        src = tmp_path / "deep.json"
        src.write_text("[" * 100000)
        code, _, err = run(capsys, "convert", "--input", str(src))
        assert code == 2 and err.startswith("error: bad diagram file")

    @pytest.mark.parametrize("grid", [["1/0"], ["Infinity"]])
    def test_arithmetic_errors_in_diagram_exit_2(self, capsys, tmp_path, grid):
        src = tmp_path / "bad.json"
        src.write_text(json.dumps({"grid": grid, "cells": [],
                                   "group": {"tag": "B", "category": "ab"}})
                       .replace('"Infinity"', "Infinity"))
        code, _, err = run(capsys, "convert", "--input", str(src))
        assert code == 2 and err.strip()

    def test_pipeline_diagram_then_convert(self, capsys, tmp_path):
        dest = tmp_path / "k.json"
        run(capsys, "diagram", "--input", str(DATA / "klein_bottle.flt"),
            "--coeff", "Z", "--degree", "1", "--out", str(dest))
        code, out, _ = run(capsys, "convert", "--input", str(dest), "--format", "json")
        assert code == 0 and out == dest.read_text()

    @pytest.mark.parametrize("tag, category, field, accepted, refused", [
        ("A", "finset", None, "pt", ["line", "Z", "dim"]),
        ("A", "vect", "Q", "line", ["Z", "pt", "t:2:1", "dim"]),
        ("A", "ab", None, "Z", ["line", "rank", "j:1:1", "p:2"]),
        ("A", "finab", None, "t:3:2", ["Z", "p:3"]),
        ("A", "repn", "Q", "j:1/2:3", ["j:0:-3", "j:1:0", "line", "ev:1"]),
        ("A", "repn", "F3", "j:2:1", ["j:3:1", "j:-1:1", "j:1/2:1"]),
        ("B", "vect", "F2", "dim", ["rank", "line", "ev:0"]),
        ("B", "ab", None, "rank", ["p:3", "dim", "Z"]),
        ("B", "finab", None, "p:3", ["p:-5", "p:1", "p:2147483649", "ev:3", "rank"]),
        ("B", "repn", "Q", "ev:-1/2", ["dim", "p:2", "j:1:1"]),
        ("B", "repn", "F5", "ev:4", ["ev:5", "ev:-1"]),
    ])
    def test_label_keys_of_the_group_only(self, capsys, tmp_path, tag, category, field,
                                          accepted, refused):
        """A label key is a basis key of the file's group and category;
        any other key exits 2, even one of another category."""
        src = tmp_path / "keys.json"
        for key in [accepted, *refused]:
            doc = {"grid": ["0"], "cells": [{"i": 1, "j_or_inf": "inf", "label": {key: 1}}],
                   "group": {"tag": tag, "category": category, "field": field,
                             "role": "diagram"}}
            src.write_text(json.dumps(doc))
            code, out, err = run(capsys, "convert", "--input", str(src))
            if key == accepted:
                assert code == 0 and json.loads(out)["cells"][0]["label"] == {key: 1}
            else:
                assert (code, out) == (2, ""), key
                assert err.startswith("error: bad diagram file"), key

    def test_type_B_finset_file_unsupported(self, capsys, tmp_path):
        src = tmp_path / "finset.json"
        src.write_text(json.dumps({"grid": ["0"], "cells": [],
                                   "group": {"tag": "B", "category": "finset"}}))
        for argv in (["convert", "--input", str(src)], ["erosion", str(src), str(src)]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (3, "") and "finite sets" in err

    @pytest.mark.parametrize("cell", [
        {"i": 1.9, "j_or_inf": 2, "label": {"dim": 1}},
        {"i": 1, "j_or_inf": 2.5, "label": {"dim": 1}},
        {"i": 1, "j_or_inf": 2, "label": {"dim": 2.9}},
        {"i": True, "j_or_inf": 2, "label": {"dim": 1}},
        {"i": 1, "j_or_inf": True, "label": {"dim": 1}},
        {"i": 1, "j_or_inf": 2, "label": {"dim": True}},
        {"i": "1", "j_or_inf": 2, "label": {"dim": 1}},
        {"i": 1, "j_or_inf": "2", "label": {"dim": 1}},
        {"i": 1, "j_or_inf": 2, "label": {"dim": "1"}},
    ])
    def test_cell_numbers_are_json_integers(self, capsys, tmp_path, cell):
        src = tmp_path / "cell.json"
        src.write_text(json.dumps({"grid": ["0", "1"], "cells": [cell],
                                   "group": {"tag": "B", "category": "vect", "field": "Q"}}))
        code, out, err = run(capsys, "convert", "--input", str(src))
        assert (code, out) == (2, "") and err.startswith("error: bad diagram file")

    @pytest.mark.parametrize("category, cells", [
        ("vect", [{"i": 1, "j_or_inf": "inf", "label": {"dim": 1}},
                  {"i": 1, "j_or_inf": "inf", "label": {"dim": 5}}]),
        ("repn", [{"i": 1, "j_or_inf": "inf", "label": {"ev:1/2": 1, "ev:2/4": 1}}]),
    ], ids=["cell", "label-key"])
    def test_repeated_cell_or_label_key_exit_2(self, capsys, tmp_path, category, cells):
        """A cell listed twice, or one basis key named twice in a label,
        would silently replace the first."""
        src = tmp_path / "twice.json"
        src.write_text(json.dumps({"grid": ["0"], "cells": cells,
                                   "group": {"tag": "B", "category": category, "field": "Q"}}))
        code, out, err = run(capsys, "convert", "--input", str(src))
        assert (code, out) == (2, "") and err.startswith("error: bad diagram file")


_KEYS = ["grid", "cells", "group", "tag", "category", "field", "role", "i", "j_or_inf", "label"]
_TOKENS = ["A", "B", "ab", "finab", "vect", "repn", "finset", "Q", "F2", "F4", "inf", "0", "1/2",
           "Z", "dim", "rank", "t:2:1", "p:2", "j:1:1", "ev:1", "diagram", "constructible"]
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats() | st.text(max_size=5)
    | st.sampled_from(_TOKENS),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(_KEYS + _TOKENS) | st.text(max_size=5), kids, max_size=4),
    max_leaves=12)


@st.composite
def _mutated_diagram_docs(draw):
    """A bundled diagram file with one to three entries replaced, deleted or added."""
    doc = json.loads((DATA / draw(st.sampled_from(["sample_a.json", "sample_b.json"]))).read_text())
    for _ in range(draw(st.integers(1, 3))):
        slots = []

        def collect(node):
            keys = node if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
            for key in list(keys):
                slots.append((node, key))
                collect(node[key])

        collect(doc)
        node, key = draw(st.sampled_from(slots))
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "replace":
            node[key] = draw(_json_values)
        elif action == "delete":
            del node[key]
        elif isinstance(node, dict):
            node[draw(st.sampled_from(_KEYS))] = draw(_json_values)
        else:
            node.append(draw(_json_values))
    return json.dumps(doc)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_mutated_diagram_docs(), _json_values.map(json.dumps), st.text(max_size=30)))
def test_diagram_from_json_raises_only_serialize_errors(text):
    try:
        d = diagram_from_json(text)
    except SerializeError:
        return
    except NoBGroupError:  # a type B file of finite sets: exit 3, not a parse error
        group = json.loads(text)["group"]
        assert (group["tag"], group["category"]) == ("B", "finset")
        return
    assert isinstance(d, DiagramGrid)


class TestInternalErrors:
    def test_unexpected_exception_exit_4(self, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_convert", broken)
        code, out, err = run(capsys, "convert", "--input", str(DATA / "sample_a.json"))
        assert code == cli.EXIT_INTERNAL == 4
        assert out == "" and "internal error" in err and "boom" in err
        assert "Traceback" not in err


def _raise_boom(*args):
    raise RuntimeError("boom")


def _pair_off_grid(H, H2, eps):
    pair = interleaving_from_perturbation(H, H2, eps)
    return InterleavingPair(pair.eps, pair.phi_grid + (max(pair.phi_grid, default=0) + 1,),
                            pair.phi, pair.psi_grid, pair.psi)


# One case per exit-code clause of the README: (clause, code, argv, and
# (module, name, replacement) for a name of gpd replaced for the case, or None).
_EXIT_CASES = [
    ("success", 0, ["convert", "--input", "{data}/sample_a.json"], None),
    ("stability check failed", 1, ["stability", "--input", "{data}/triangle.flt",
                                   "--epsilon", "1/8", "--trials", "1"],
     (pmodule, "check_interleaving", lambda *args: False)),
    ("malformed filtration", 2, ["diagram", "--input", "{tmp}/bad.flt"], None),
    ("malformed diagram", 2, ["convert", "--input", "{tmp}/bad.json"], None),
    ("unreadable input", 2, ["erosion", "{tmp}/missing.json", "{data}/sample_a.json"], None),
    ("unwritable out", 2, ["convert", "--input", "{data}/sample_a.json",
                           "--out", "{tmp}/missing/a.json"], None),
    ("nonpositive trials", 2, ["stability", "--input", "{data}/triangle.flt",
                               "--epsilon", "1/8", "--trials", "0"], None),
    ("trials above MAX_TRIALS", 2, ["stability", "--input", "{data}/triangle.flt",
                                    "--epsilon", "1/8", "--trials", "1000000000"], None),
    ("type B with finset", 3, ["diagram", "--input", "{data}/triangle.flt",
                               "--category", "finset", "--type", "B"], None),
    ("category repn", 3, ["diagram", "--input", "{data}/triangle.flt", "--category", "repn"],
     None),
    ("internal error", 4, ["erosion", "{data}/sample_a.json", "{data}/sample_b.json"],
     (metrics, "erosion_distance", _raise_boom)),
    ("interleaving off its grid", 4, ["stability", "--input", "{data}/triangle.flt",
                                      "--epsilon", "1/8", "--trials", "1"],
     (homology, "interleaving_from_perturbation", _pair_off_grid)),
]


@pytest.mark.parametrize("clause, code, argv, patch", _EXIT_CASES,
                         ids=[case[0] for case in _EXIT_CASES])
def test_exit_code_per_readme_clause(capsys, monkeypatch, tmp_path, clause, code, argv, patch):
    (tmp_path / "bad.flt").write_text("0 : 0\n1 : 2\n0 1 : 1\n")
    (tmp_path / "bad.json").write_text("{not json")
    if patch is not None:
        monkeypatch.setattr(*patch)
    got, out, err = run(capsys, *[a.format(data=DATA, tmp=tmp_path) for a in argv])
    assert got == code
    if code >= 2:
        assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1
    else:
        assert out and err == ""
