"""The bundled data files are what tools/generate_data.py writes, the
benchmark's tracer still runs the CLI, each CLI subcommand loads only the
layers it runs, the layers import without cycles, and public names have
callers."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "gpd" / "data"


def _generator():
    spec = importlib.util.spec_from_file_location("generate_data", ROOT / "tools" / "generate_data.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, lines", [("torus.flt", "torus_lines"),
                                         ("klein_bottle.flt", "klein_lines"),
                                         ("triangle.flt", "triangle_lines")])
def test_bundled_filtrations_are_reproducible(name, lines):
    assert getattr(_generator(), lines)() == (DATA / name).read_text()


@pytest.mark.parametrize("argv", [
    ["diagram", "--input", "klein_bottle.flt", "--degree", "1", "--coeff", "Z"],
    ["diagram", "--input", "torus.flt", "--degree", "1", "--coeff", "Q", "--type", "B"],
    ["diagram", "--input", "triangle.flt", "--category", "finset"],
    ["stability", "--input", "torus.flt", "--degree", "1", "--coeff", "Z", "--epsilon", "1/8",
     "--trials", "2"],
    ["stability", "--input", "klein_bottle.flt", "--degree", "1", "--coeff", "Z",
     "--epsilon", "1/8", "--trials", "2"],
    ["erosion", "sample_a.json", "sample_b.json"],
], ids=["klein_bottle-Z", "torus-Q", "triangle-finset", "stability-torus-Z", "stability-klein-Z",
        "erosion-samples"])
def test_tracer_runs_the_cli_unchanged(tmp_path, argv):
    """perfbench/trace_child.py wraps the library's functions by name: a
    traced call exits 0, writes its `calls` map and prints what the
    untraced call prints, byte for byte.  The Klein bottle over Z takes
    the image-class path of `gpd diagram`, the torus over Q and pi_0 of
    the triangle the barcode.  `gpd stability` on the torus over Z reads
    every stage and every diagram off the one reduction of each
    filtration; on the Klein bottle over Z each module mixes such stages
    with the Smith normal forms of its torsion stages, and its diagrams
    come from image classes.  `gpd erosion` on the bundled diagrams runs
    no homology, only the candidate scan, whose candidates the tracer
    counts through `metrics.erosion_candidates`."""
    argv = [str(DATA / a) if a.endswith((".flt", ".json")) else a for a in argv]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    trace = tmp_path / "trace.json"
    traced = subprocess.run([sys.executable, str(ROOT / "perfbench" / "trace_child.py"),
                             str(trace), "--", *argv],
                            capture_output=True, env=env, cwd=tmp_path, timeout=120)
    plain = subprocess.run([sys.executable, "-m", "gpd.cli", *argv],
                           capture_output=True, env=env, cwd=tmp_path, timeout=120)
    assert traced.returncode == 0, traced.stderr.decode()
    assert plain.returncode == 0, plain.stderr.decode()
    assert plain.stdout and traced.stdout == plain.stdout
    record = json.loads(trace.read_text())
    calls = record["calls"]
    assert isinstance(calls, dict) and any(calls.values())
    if argv[0] == "erosion":
        extra = record["extra"]
        assert extra["metrics.candidates_total"] >= extra["metrics.candidates_evaluated"] > 0


# Public names of src/gpd kept although nothing outside their own
# definition refers to them, each with its reason.  A name that gains a
# caller leaves this dict.
UNCALLED_EXEMPT = {
    "grothendieck.leq": "the translation invariant order of the group, kept with repn and "
                        "sympy for ACCEPTANCE 9; the erosion sweep runs _leq_coeffs directly",
    "pmodule.ConstructibleModule.segment": "the segment of a value, by which the module "
                                           "docstring defines F(p <= q); tests and oracles "
                                           "find the object or stage at a value with it",
}


def _names(tree: ast.AST) -> Counter:
    return Counter(n.id for n in ast.walk(tree) if isinstance(n, ast.Name))


def _attributes_read(tree: ast.AST) -> Counter:
    return Counter(n.attr for n in ast.walk(tree)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def _imported(tree: ast.AST) -> set:
    """(module, name) for each name imported from a gpd module, and each
    attribute read off a gpd module imported whole (`from gpd import
    categories`); a relative import is read inside the gpd package."""
    refs, whole = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            mod = "gpd" + (f".{node.module}" if node.module else "") if node.level else node.module
            for alias in node.names:
                if mod == "gpd":
                    whole[alias.asname or alias.name] = alias.name
                elif mod.startswith("gpd."):
                    refs.add((mod[4:], alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in whole:
            refs.add((whole[node.value.id], node.attr))
    return refs


def test_every_public_function_has_a_caller():
    """Each public top-level def or class of src/gpd is referred to
    outside its own definition: in its own module, elsewhere in src/gpd,
    in demos/, tools/ or the acceptance gate.  So is each public method
    or property of a class of src/gpd: an attribute of its name is read
    in those files outside the method's own body.  Methods go by name
    alone, so one that shares its name with a function or method that
    is read escapes this test, as `Mat.add` and `Mat.is_zero` did beside
    `grothendieck.add` and `GroupElem.is_zero`.  Read with ast, so a
    docstring or comment that names a function does not count.  The names without one are exactly those of
    UNCALLED_EXEMPT."""
    src = ROOT / "src" / "gpd"
    users = [*src.glob("*.py"), *(ROOT / "demos").glob("*.py"), *(ROOT / "tools").glob("*.py"),
             ROOT / "tests" / "test_acceptance.py"]
    trees = {path: ast.parse(path.read_text()) for path in users}
    imported = set().union(*(_imported(tree) for tree in trees.values()))
    read = sum(map(_attributes_read, trees.values()), Counter())
    uncalled = []
    for path in sorted(src.glob("*.py")):
        tree = trees[path]
        names = _names(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                if names[node.name] == _names(node)[node.name] and \
                        (path.stem, node.name) not in imported:
                    uncalled.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                uncalled += [f"{path.stem}.{node.name}.{item.name}" for item in node.body
                             if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                             and read[item.name] == _attributes_read(item)[item.name]]
    assert sorted(uncalled) == sorted(UNCALLED_EXEMPT)


def test_homology_uses_no_lattice_quotient():
    """Every stage, over Z/m too, is read off the one column reduction:
    homology imports none of the lattice routines of exact, and
    `column_reduce` is the only reduction it imports."""
    tree = ast.parse((ROOT / "src" / "gpd" / "homology.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert "smith_normal_form" in imported
    assert not imported & {"LatticeQuotient", "kernel", "preimage"}
    assert {name for name in imported if name.endswith("reduce")} == {"column_reduce"}


def test_only_exact_reads_invariant_factors():
    """An abelian group is read off its Smith normal form in one place:
    every other module of src/gpd takes `SnfResult.cokernel` or
    `canonical`, and none reads the attribute `invariant_factors`."""
    readers = {path.stem for path in (ROOT / "src" / "gpd").glob("*.py")
               if _attributes_read(ast.parse(path.read_text()))["invariant_factors"]}
    assert readers <= {"exact"}


def _layers_imported(path: Path) -> set:
    """The gpd modules a module of src/gpd imports at module level."""
    return {node.module.removeprefix("gpd.") for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.ImportFrom)
            and (node.level or node.module.startswith("gpd."))}


def test_layers_import_without_cycles():
    """The module-level imports among the modules of src/gpd form an
    acyclic graph, and grothendieck, which holds the bases of both
    groups, imports only matrix."""
    left = {path.stem: _layers_imported(path) for path in (ROOT / "src" / "gpd").glob("*.py")}
    assert left["grothendieck"] == {"matrix"}
    while left:
        leaves = [mod for mod, deps in left.items() if not deps & left.keys()]
        assert leaves, f"import cycle among {sorted(left)}"
        for mod in leaves:
            del left[mod]


# Runs a statement in a fresh interpreter and writes to stderr the names
# it adds to sys.modules.
_PROBE = ("import sys; base = set(sys.modules); {}; "
          "sys.stderr.write(repr(sorted(set(sys.modules) - base)))")
_HEAVY = {"dataclasses", "inspect", "ast"}


def _modules_added(statement: str) -> tuple[set, str]:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    res = subprocess.run([sys.executable, "-c", _PROBE.format(statement)], capture_output=True,
                         text=True, env=env, cwd=ROOT, timeout=120)
    assert res.returncode == 0, res.stderr
    return set(ast.literal_eval(res.stderr)), res.stdout


def test_importing_the_cli_loads_no_layer():
    added, _ = _modules_added("import gpd.cli")
    assert {m for m in added if m.startswith("gpd")} == {"gpd", "gpd.cli"}
    assert not added & _HEAVY


@pytest.mark.parametrize("argv", [
    ["erosion", "sample_a.json", "sample_b.json"],
    ["convert", "--input", "sample_b.json", "--format", "svg"],
], ids=["erosion", "convert"])
def test_diagram_file_commands_load_no_homology(argv):
    argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    added, out = _modules_added(f"from gpd.cli import main; main({argv!r})")
    assert out and "gpd.serialize" in added
    assert not added & {"gpd.homology", "gpd.pmodule", *_HEAVY}


@pytest.mark.parametrize("argv, module_layer", [
    (["--input", "torus.flt", "--coeff", "Z"], False),
    (["--input", "torus.flt", "--coeff", "Q"], False),
    (["--input", "torus.flt", "--coeff", "Fp:2"], False),
    (["--input", "klein_bottle.flt", "--coeff", "Z"], True),
], ids=["torus-Z", "torus-Q", "torus-Fp2", "klein_bottle-Z"])
def test_diagram_loads_pmodule_only_for_image_classes(argv, module_layer):
    """`gpd diagram` reads the torus's diagrams off the barcode and loads
    no module layer; over Z the Klein bottle's torsion takes the
    image-class path, which builds the stages and the module."""
    argv = ["diagram", "--degree", "1", "--format", "tsv",
            *(str(DATA / a) if a.endswith(".flt") else a for a in argv)]
    added, out = _modules_added(f"from gpd.cli import main; main({argv!r})")
    assert out and "gpd.homology" in added
    assert ("gpd.pmodule" in added) == module_layer


def test_library_generates_no_code():
    """No module of src/gpd imports dataclasses or typing, or calls exec,
    eval or compile."""
    for path in (ROOT / "src" / "gpd").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] if not node.level else []
            else:
                modules = []
            assert not {m.partition(".")[0] for m in modules} & {"dataclasses", "typing"}, path
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id not in ("exec", "eval", "compile"), path
