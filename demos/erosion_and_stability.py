"""Erosion distance and perturbation stability on the bundled torus.

Run from the repository root:  python3 demos/erosion_and_stability.py
"""

from fractions import Fraction
from pathlib import Path

from gpd.diagram import diagram_leq, type_A_diagram, type_B_diagram
from gpd.homology import (
    interleaving_from_perturbation,
    parse_filtration,
    persistent_homology,
    perturb,
)
from gpd.metrics import erode, erosion_distance
from gpd.pmodule import check_interleaving

DATA = Path(__file__).resolve().parent.parent / "src" / "gpd" / "data"

K = parse_filtration((DATA / "torus.flt").read_text())
H = persistent_homology(K, 1, "Z")
F = H.module

eps = Fraction(1, 8)
K2 = perturb(K, eps, seed=42)
print(f"perturbed every entry value by at most {eps} (seed 42)")

H2 = persistent_homology(K2, 1, "Z")
G = H2.module
pair = interleaving_from_perturbation(H, H2, eps)
print(f"explicit {eps}-interleaving verifies: {check_interleaving(F, G, pair)}")

d = erosion_distance(type_B_diagram(F), type_B_diagram(G)).distance
print(f"erosion distance between the type B diagrams: {d}  (<= {eps}: {d <= eps})")

shrunk = erode(type_A_diagram(F), eps)
print("eroded type A diagram maps into the perturbed one: "
      f"{diagram_leq(shrunk, type_A_diagram(G))}")
