"""The bundled data files are what tools/generate_data.py writes, and the
benchmark's tracer still runs the CLI."""

import importlib.util
import json
import os
import subprocess
import sys
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
