"""Erosion distance and perturbation stability on the bundled torus.

Run from the repository root:  python3 demos/erosion_and_stability.py
"""

from fractions import Fraction
from pathlib import Path

from gpd.diagram import diagram_leq, type_B_from_A
from gpd.homology import (
    filtration_type_A,
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

# over Z the torus has unit leads only, so both diagrams are read off the bars
YA_F = filtration_type_A(H)
YA_G = filtration_type_A(H2)
d = erosion_distance(type_B_from_A(YA_F), type_B_from_A(YA_G)).distance
print(f"erosion distance between the type B diagrams: {d}  (<= {eps}: {d <= eps})")

shrunk = erode(YA_F, eps)
print("eroded type A diagram maps into the perturbed one: "
      f"{diagram_leq(shrunk, YA_G)}")
