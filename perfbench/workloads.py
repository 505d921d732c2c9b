"""The four benchmark workloads: which CLI calls one pass makes, on what.

Each workload is the only one where a single layer does most of the
work, and each of those layers is nearly idle in at least one other
workload, so a change to one layer shows on one workload and should not
move the others (see README.md for the full layer-to-metric table).

A workload function writes its seeded inputs into `workdir` and returns
`(calls, inputs, checks)`: the `(label, argv)` CLI calls of one pass,
`{input name: path}`, and `{label: check}` naming the output check of
each call that needs no recorded digest: ("stability",),
("diagram", input path, coefficients, type) or
("erosion", lower bound of the distance).
"""

from __future__ import annotations

from pathlib import Path

import inputs

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "gpd" / "data"


def stability(seed: int, workdir: Path):
    """`gpd stability` over Z in degree 1 on the bundled torus and Klein
    bottle, 10 perturbation trials each, perturbation seed = `seed`.

    Chosen because it is the only workload that runs every layer: stage
    reuse in `homology`, induced maps (`exact.LatticeQuotient.coords`),
    image classes twice per module (`pmodule.dX_A_s`, `pmodule.dX_B_s`,
    `categories.image_iso_class_*`), `pmodule.check_interleaving_*` and
    small erosion scans.  It stresses `pmodule` interleaving and
    `categories`; it barely touches `exact.field_rref` and the big
    erosion scan.  The input files are the bundled ones, so only the
    perturbations change with the seed.
    """
    calls, files = [], {}
    for label, name in (("stability_torus", "torus.flt"), ("stability_klein", "klein_bottle.flt")):
        path = DATA / name
        files[name] = path
        calls.append((label, ["stability", "--input", str(path), "--coeff", "Z", "--degree", "1",
                              "--epsilon", "1/8", "--trials", "10", "--seed", str(seed)]))
    return calls, files, {label: ("stability",) for label, _ in calls}


def rips_z(seed: int, workdir: Path):
    """`gpd diagram --coeff Z --degree 1`, type A and type B, each on its
    own seeded 12-point Rips filtration (298 simplices).

    Chosen for the integer engine: nearly all time is Smith normal form
    and lattice quotients (`exact.smith_normal_form_*`,
    `exact.LatticeQuotient_*`, `exact.LatticeQuotient.coords_*`,
    `matrix.Mat.mul_*`).  H1 diagrams have a few cells, so image classes,
    inversion and erosion are nearly idle; `exact.field_rref` is never
    called.  Two inputs instead of one halve the seed-to-seed spread of
    the pass time.
    """
    calls, files, checks = [], {}, {}
    for k, t in enumerate("AB"):
        path = workdir / f"rips12_{t}.flt"
        path.write_text(inputs.rips_flt(inputs.rng_for("rips-z", seed, k), 12))
        files[path.name] = path
        label = f"rips_z_{t}"
        calls.append((label, ["diagram", "--input", str(path), "--coeff", "Z",
                              "--degree", "1", "--type", t]))
        checks[label] = ("diagram", path, "Z", t)
    return calls, files, checks


def rips_field(seed: int, workdir: Path):
    """`gpd diagram --type B --degree 1` over Q on a seeded 11-point Rips
    filtration (231 simplices) and over F_2 on a 17-point one (833).

    Chosen for the field path: `exact.field_rref_*` dominates, once with
    Fraction arithmetic and once with small integers.  It never calls
    Smith normal form, so a change to the integer engine should leave it
    unchanged, while a field change (a twist, clearing) should show here
    and not in `rips-z`.
    """
    calls, files, checks = [], {}, {}
    for k, (label, coeff, npts) in enumerate((("rips_Q", "Q", 11), ("rips_Fp2", "Fp:2", 17))):
        path = workdir / f"rips{npts}.flt"
        path.write_text(inputs.rips_flt(inputs.rng_for("rips-field", seed, k), npts, "field"))
        files[path.name] = path
        calls.append((label, ["diagram", "--input", str(path), "--coeff", coeff,
                              "--degree", "1", "--type", "B"]))
        checks[label] = ("diagram", path, coeff, "B")
    return calls, files, checks


def erosion(seed: int, workdir: Path):
    """`gpd erosion a.json b.json` on a seeded pair of type B `vect`/Q
    diagrams: A with 30 cells on 30 grid values, B with 14 bars of length
    20 and 2 infinite bars on 30 grid values (see `inputs.erosion_pair`).

    Chosen because it runs no homology at all: the cost is the candidate
    scan (`metrics.candidates_*`, `metrics.erosion_distance_s`) times the
    O(cells) cumulative lookups per checked cell (`diagram.cumulative_at*`,
    `grothendieck.add_calls`).  A precomputed cumulative table or scan
    pruning shows here and almost nowhere else.
    """
    text_a, text_b, gap = inputs.erosion_pair(inputs.rng_for("erosion", seed), 30, 30, 14, 20, 2)
    a, b = workdir / "a.json", workdir / "b.json"
    a.write_text(text_a)
    b.write_text(text_b)
    calls = [("erosion", ["erosion", str(a), str(b)])]
    return calls, {a.name: a, b.name: b}, {"erosion": ("erosion", gap)}


WORKLOADS = {"stability": stability, "rips-z": rips_z, "rips-field": rips_field,
             "erosion": erosion}

# Every per-call label any workload uses; the traced run reports
# cli.call.<label>_s for each (0 where the workload makes no such call).
CALL_LABELS = ("stability_torus", "stability_klein", "rips_z_A", "rips_z_B",
               "rips_Q", "rips_Fp2", "erosion")
