"""Command-line front end.

Subcommands: `diagram` (filtration -> persistence diagram), `erosion`
(distance between two diagram files), `stability` (perturbation trials
checking the continuity and semicontinuity properties of the diagrams),
and `convert` (re-emit a diagram file in another format).

Exit codes: 0 success; 1 a stability trial violated a theorem; 2 parse
or validation errors (among them `--trials` outside 1..MAX_TRIALS), or a
file that cannot be read or written; 3 unsupported group/category
combination; 4 any other exception, or an interleaving that `stability`
built itself and that is not given on its grids, which is a bug in gpd
and is reported without a traceback.

Each subcommand, and the exit-code mapping in `main`, imports only the
layers it runs: `erosion` and `convert` never load homology or pmodule.
"""

from __future__ import annotations

import argparse
import sys

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_INTERNAL = 4

# Largest `stability --trials`: each trial rebuilds the perturbed module,
# so a larger count is unbounded work that prints nothing until the end.
MAX_TRIALS = 10000


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(EXIT_INPUT, f"cannot read {path}: {exc}") from exc


def _write_out(text: str, out: str | None):
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(EXIT_INPUT, f"cannot write {out}: {exc}") from exc


def _emit(d, args):
    from . import serialize

    emit = {"json": serialize.diagram_to_json, "svg": serialize.diagram_to_svg,
            "tsv": serialize.diagram_to_tsv}[args.format]
    _write_out(emit(d), args.out)


def _type_A_from_config(args):
    from . import homology

    K = homology.parse_filtration(_read(args.input))
    if args.category == "finset":
        return homology.component_type_A(K)
    if args.category == "repn":
        raise CliError(EXIT_UNSUPPORTED,
                       "the endomorphism category does not arise from a filtration")
    cat = homology.parse_coeffs(args.coeff)[2]
    if args.category not in (None, cat.kind):
        raise CliError(EXIT_INPUT,
                       f"coefficients {args.coeff} produce category {cat.kind}, "
                       f"not {args.category}")
    return homology.filtration_type_A(homology.persistent_homology(K, args.degree, args.coeff))


def cmd_diagram(args) -> int:
    from . import diagram

    Y = _type_A_from_config(args)
    _emit(Y if args.type == "A" else diagram.type_B_from_A(Y), args)
    return EXIT_OK


def cmd_erosion(args) -> int:
    from . import diagram, metrics, serialize

    d1 = serialize.diagram_from_json(_read(args.diagram_a))
    d2 = serialize.diagram_from_json(_read(args.diagram_b))
    try:
        report = metrics.erosion_distance(d1, d2)
    except diagram.DiagramError as exc:
        raise CliError(EXIT_INPUT, str(exc)) from exc
    rat_str = serialize.rat_str
    lines = [f"distance\t{'inf' if report.distance is None else rat_str(report.distance)}",
             "candidate\tok"]
    lines += [f"{rat_str(eps)}\t{'yes' if ok else 'no'}" for eps, ok in report.table]
    _write_out("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_stability(args) -> int:
    from . import diagram, exact, homology, metrics, pmodule

    K = homology.parse_filtration(_read(args.input))
    try:
        eps = exact.parse_rational(args.epsilon)
    except (ValueError, ZeroDivisionError):
        raise CliError(EXIT_INPUT, f"bad rational {args.epsilon!r}") from None
    if eps < 0:
        raise CliError(EXIT_INPUT, "epsilon must be nonnegative")
    if args.trials <= 0:
        raise CliError(EXIT_INPUT, "trials must be positive")
    if args.trials > MAX_TRIALS:
        raise CliError(EXIT_INPUT, f"trials must be at most {MAX_TRIALS}")
    H = homology.persistent_homology(K, args.degree, args.coeff)
    F = H.module
    gaps = [b - a for a, b in zip(F.values, F.values[1:])]
    rho = min(gaps) / 4 if gaps else None
    in_hypothesis = rho is not None and eps < rho
    YA_F = homology.filtration_type_A(H)
    YB_F = diagram.type_B_from_A(YA_F)

    lines = ["trial\tinterleaving\tcontinuity\tsemicontinuity"]
    ok_all = True
    for trial in range(args.trials):
        K2 = homology.perturb(K, eps, seed=args.seed + trial)
        H2 = homology.persistent_homology(K2, args.degree, args.coeff)
        G = H2.module
        try:
            inter_ok = pmodule.check_interleaving(
                F, G, homology.interleaving_from_perturbation(H, H2, eps))
        except pmodule.InterleavingGridError as exc:  # the pair is built here: a bug in gpd
            raise CliError(EXIT_INTERNAL, f"internal error: {exc}") from exc
        YA_G = homology.filtration_type_A(H2)
        dist = metrics.erosion_distance(YB_F, diagram.type_B_from_A(YA_G)).distance
        cont_ok = dist is not None and dist <= eps
        if in_hypothesis:
            semi_ok = metrics.eroded_leq(YA_F, YA_G, eps)
            semi_txt = "pass" if semi_ok else "FAIL"
        else:
            semi_ok, semi_txt = True, "skipped"
        ok_all = ok_all and inter_ok and cont_ok and semi_ok
        lines.append(f"{trial}\t{'pass' if inter_ok else 'FAIL'}\t"
                     f"{'pass' if cont_ok else 'FAIL'}\t{semi_txt}")
    _write_out("\n".join(lines) + "\n", args.out)
    return EXIT_OK if ok_all else EXIT_VIOLATION


def cmd_convert(args) -> int:
    from . import serialize

    _emit(serialize.diagram_from_json(_read(args.input)), args)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gpd",
                                description="Generalized persistence diagrams "
                                            "of filtered simplicial complexes")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("diagram", help="compute a persistence diagram")
    sp.add_argument("--format", choices=["json", "svg", "tsv"], default="json")
    sp.add_argument("--out", default=None)
    sp.add_argument("--input", required=True)
    sp.add_argument("--type", choices=["A", "B"], default="A")
    sp.add_argument("--category", choices=["finset", "vect", "ab", "finab", "repn"],
                    default=None, help="inferred from --coeff when omitted")
    sp.add_argument("--coeff", default="Z", help="Z | Q | Fp:<p> | Zm:<m>")
    sp.add_argument("--degree", type=int, default=0)
    sp.set_defaults(fn=cmd_diagram)

    sp = sub.add_parser("erosion", help="erosion distance between two diagram files")
    sp.add_argument("diagram_a")
    sp.add_argument("diagram_b")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_erosion)

    sp = sub.add_parser("stability", help="perturbation trials for the stability theorems")
    sp.add_argument("--input", required=True)
    sp.add_argument("--coeff", default="Z")
    sp.add_argument("--degree", type=int, default=0)
    sp.add_argument("--epsilon", required=True)
    sp.add_argument("--trials", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_stability)

    sp = sub.add_parser("convert", help="re-emit a diagram file in another format")
    sp.add_argument("--input", required=True)
    sp.add_argument("--format", choices=["json", "svg", "tsv"], default="json")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_convert)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except Exception as exc:
        from . import exact, grothendieck

        if isinstance(exc, (grothendieck.NoBGroupError, exact.NonSplitError)):
            code = EXIT_UNSUPPORTED
        elif isinstance(exc, ValueError):  # FiltrationError, SerializeError, DiagramError, ...
            code = EXIT_INPUT
        else:  # a bug in gpd, never a theorem violation
            print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_INTERNAL
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
