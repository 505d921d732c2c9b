"""The bundled data files are what tools/generate_data.py writes."""

import importlib.util
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
