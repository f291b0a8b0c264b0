"""Command-line front end: gen, verify, equiv, export.

Spins are passed as doubled integers ("--spins 1,1,0,0" is the
representation (1/2,1/2)+(0,0)).  Scalar parameters accept literals made
of terms joined by "+": each term is an optional rational "p/q", an
optional imaginary marker "i", and an optional "sqrt(d)" with d below
2**40, joined by "*" (examples: "1", "-1/2", "i", "3/4*i*sqrt(6)", "1+i",
"1/2*sqrt(2)+i").

Exit status: 0 success / all rules hold; 1 verification failure;
2 spins admit no nonzero solution; 3 I/O, format, or argument error.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from .bundle import (
    SCHEMA_VERSION,
    SOURCES,
    MatrixBundle,
    load_bundle,
    save_bundle,
    scalar_to_json,
    vectors_from_source,
)
from .cg import RatioFit, cg_vector_matrices, equivalence_ratio
from .momentum import momentum_from_vectors
from .radical import RadicalScalar, unlimited_int_digits
from .spins import Spin
from .vectors import BLOCKS, FreeParams, NoSolutionError, closed_form_vectors
from .verify import check_poincare, sweep

EXIT_OK = 0
EXIT_RULE_FAILURE = 1
EXIT_NO_SOLUTION = 2
EXIT_BAD_INPUT = 3

# Work bounds.  A bundle of dimension 1201 is already 44 MB, and its size
# grows with the square of the dimension; ``verify --sweep 12`` takes about
# 6 s (a fresh process on a 2-core Xeon, Python 3.11), and the sweep's cost
# grows with the fourth power of its bound.
MAX_DIMENSION = 2048
MAX_SWEEP_BOUND = 12

_TERM_RE = re.compile(
    r"^(?P<sign>[+-])?(?P<num>\d+(?:/\d+)?)?(?:\*?(?P<i>i))?(?:\*?sqrt\((?P<d>\d+)\))?$"
)


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_BAD_INPUT):
        super().__init__(message)
        self.code = code


def parse_scalar(text: str) -> RadicalScalar:
    """Parse a scalar literal like "1/2*sqrt(2)+i" into an exact value."""
    text = text.strip().replace(" ", "")
    if not text:
        raise CliError("empty scalar literal")
    text = text.replace("-", "+-").lstrip("+")
    triples = []
    for term in text.split("+"):
        m = _TERM_RE.match(term)
        if not m or (m.group("num") is None and m.group("i") is None and m.group("d") is None):
            raise CliError(f"cannot parse scalar term {term!r}")
        try:
            coeff = Fraction(m.group("num")) if m.group("num") else Fraction(1)
            d = int(m.group("d")) if m.group("d") else 1
        except ZeroDivisionError:
            raise CliError(f"zero denominator in scalar term {term!r}") from None
        except ValueError:  # more digits than the interpreter converts to an int
            raise CliError(f"a number in a {len(term)}-character scalar term is too long") from None
        if m.group("sign") == "-":
            coeff = -coeff
        if d >= 2**40:  # radicands are factored by trial division, fast below this
            raise CliError(f"radicand in scalar term {term!r} must be below 2**40")
        if m.group("i"):
            triples.append((d, Fraction(0), coeff))
        else:
            triples.append((d, coeff, Fraction(0)))
    return RadicalScalar.from_terms(triples)


def parse_spins(text: str) -> tuple[Spin, Spin, Spin, Spin]:
    parts = text.split(",")
    if len(parts) != 4:
        raise CliError("--spins needs four comma-separated doubled integers")
    try:
        doubled = [int(p) for p in parts]
    except ValueError as exc:
        raise CliError(f"bad spin value in {text!r}: {exc}") from exc
    if any(t < 0 for t in doubled):
        raise CliError("spins must be nonnegative doubled integers")
    a, b, c, d = doubled
    dimension = (a + 1) * (b + 1) + (c + 1) * (d + 1)
    if dimension > MAX_DIMENSION:
        raise CliError(
            f"--spins {text} give dimension {dimension}, above the limit {MAX_DIMENSION}"
        )
    return tuple(Spin(t) for t in doubled)  # type: ignore[return-value]


def _scalar_json(value: RadicalScalar) -> dict:
    return {"display": str(value), "terms": scalar_to_json(value)}


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {out}: {exc}") from exc


def _write_bundle(bundle: MatrixBundle, out: str | None) -> None:
    """The bundle's canonical text to ``out``, or to stdout, one matrix at a time."""
    if out is None:
        sys.stdout.writelines(bundle.chunks())
        return
    try:
        save_bundle(bundle, out)
    except OSError as exc:
        raise CliError(f"cannot write {out}: {exc}") from exc
    except ValueError:
        # A literal near the limit times a radical or a coefficient of the
        # route can give an entry more digits than the loader would read.
        raise CliError(
            f"cannot write {out}: a matrix entry holds an integer of more than"
            f" {sys.get_int_max_str_digits()} digits"
        ) from None


def _load(path: str) -> MatrixBundle:
    try:
        return load_bundle(path)
    except (OSError, ValueError, KeyError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def cmd_gen(args: argparse.Namespace) -> int:
    spins = parse_spins(args.spins)
    params = FreeParams(parse_scalar(args.t12), parse_scalar(args.t21))
    vec = vectors_from_source(args.source, spins, params)
    if args.block != "both":
        vec = momentum_from_vectors(vec, args.block)
    bundle = MatrixBundle.of(args.source, vec)
    _write_bundle(bundle, args.out)
    sys.stdout.write(
        f"wrote {bundle.dimension}x{bundle.dimension} bundle ({bundle.case.value}, "
        f"source={args.source}, block={args.block}) to {args.out}\n"
    )
    return EXIT_OK


def _verify_bundle(path: str) -> dict:
    bundle = _load(path)
    reports = check_poincare(bundle.generators, bundle.vectors)
    return {
        "bundle": path,
        "spins": list(bundle.spins),
        "caseTag": bundle.case.value,
        "block": bundle.block,
        "rules": [r.to_json() for r in reports],
        "allHold": all(r.holds for r in reports),
    }


def cmd_verify(args: argparse.Namespace) -> int:
    if (args.infile is None) == (args.sweep is None):
        raise CliError("verify needs exactly one of --in or --sweep")
    if args.infile is not None:
        report = _verify_bundle(args.infile)
    else:
        if args.sweep < 0:
            raise CliError("--sweep bound must be nonnegative")
        if args.sweep > MAX_SWEEP_BOUND:
            raise CliError(
                f"--sweep bound {args.sweep} is too large: the limit is {MAX_SWEEP_BOUND}"
            )
        report = sweep(args.sweep)
    with unlimited_int_digits():
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    _write_text(text, args.out)
    return EXIT_OK if report["allHold"] else EXIT_RULE_FAILURE


def cmd_equiv(args: argparse.Namespace) -> int:
    spins = parse_spins(args.spins)
    params = FreeParams(parse_scalar(args.t12), parse_scalar(args.t21))
    lams = FreeParams(parse_scalar(args.lambda12), parse_scalar(args.lambda21))
    reference = closed_form_vectors(*spins, params)
    candidate = cg_vector_matrices(*spins, lams)
    try:
        fit = equivalence_ratio(reference, candidate)
    except ValueError as exc:
        raise CliError(f"{exc}; --lambda12 and --lambda21 must each be a single term") from exc
    proportional = isinstance(fit, RatioFit)
    payload = {
        "spins": [s.twice for s in spins],
        "caseTag": reference.case.value,
        "proportional": proportional,
    }
    with unlimited_int_digits():  # each scalar's display text is written here too
        if proportional:
            payload["ratio12"] = _scalar_json(fit.ratio12)
            payload["ratio21"] = _scalar_json(fit.ratio21)
        else:
            payload["mismatch"] = {
                "block": fit.block,
                "component": fit.component,
                "row": fit.row,
                "col": fit.col,
                "reference": _scalar_json(fit.reference),
                "candidate": _scalar_json(fit.candidate),
            }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _write_text(text, args.out)
    return EXIT_OK if proportional else EXIT_RULE_FAILURE


def cmd_export(args: argparse.Namespace) -> int:
    bundle = _load(args.infile)
    if args.format == "exact-json":
        _write_bundle(bundle, args.out)
        return EXIT_OK
    mats = bundle.matrices()
    if args.format == "float-json":
        try:
            payload = {
                "schemaVersion": SCHEMA_VERSION,
                "spins": list(bundle.spins),
                "caseTag": bundle.case.value,
                "block": bundle.block,
                "dimension": bundle.dimension,
                "matrices": {
                    key: [
                        [val.real, val.imag]
                        for val in (
                            mat.get(i, j).to_complex()
                            for i in range(mat.rows)
                            for j in range(mat.cols)
                        )
                    ]
                    for key, mat in mats.items()
                },
            }
            text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
        except (OverflowError, ValueError):
            # OverflowError: a coefficient beyond float range; ValueError: an
            # entry whose float value is infinite or nan, which JSON cannot hold.
            raise CliError("a matrix entry is too large for a float") from None
        _write_text(text + "\n", args.out)
        return EXIT_OK
    # plain: the parser's choices admit no other format.
    lines = [
        f"spins (doubled): {','.join(str(t) for t in bundle.spins)}"
        f"  case: {bundle.case.value}  block: {bundle.block}"
        f"  dimension: {bundle.dimension}",
        f"t12 = {bundle.params.t12}   t21 = {bundle.params.t21}",
    ]
    for key, mat in mats.items():
        lines.append("")
        lines.append(f"{key}:")
        lines.append(str(mat))
    _write_text("\n".join(lines) + "\n", args.out)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits with 2; keep 3
        raise CliError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and reused by every ``main`` call."""
    parser = _Parser(prog="poincarerep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a matrix bundle")
    gen.add_argument(
        "--spins", required=True,
        help=f"doubled 2A,2B,2C,2D, of dimension at most {MAX_DIMENSION}",
    )
    gen.add_argument("--t12", default="1", help="12-block parameter (lambda12 for clebsch-gordan)")
    gen.add_argument("--t21", default="1", help="21-block parameter (lambda21 for clebsch-gordan)")
    gen.add_argument("--source", choices=SOURCES, default="closed-form")
    gen.add_argument("--block", choices=BLOCKS, default="both")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    ver = sub.add_parser("verify", help="check commutation rules")
    ver.add_argument("--in", dest="infile", help="bundle file to verify")
    ver.add_argument(
        "--sweep", type=int,
        help=f"check all quadruples with doubled spins <= N (N <= {MAX_SWEEP_BOUND})",
    )
    ver.add_argument("--out", help="write the JSON report here instead of stdout")
    ver.set_defaults(func=cmd_verify)

    eq = sub.add_parser("equiv", help="fit per-block ratios between construction routes")
    eq.add_argument("--spins", required=True)
    eq.add_argument("--t12", default="1")
    eq.add_argument("--t21", default="1")
    eq.add_argument("--lambda12", default="1")
    eq.add_argument("--lambda21", default="1")
    eq.add_argument("--out")
    eq.set_defaults(func=cmd_equiv)

    exp = sub.add_parser("export", help="re-emit a bundle in another format")
    exp.add_argument("--in", dest="infile", required=True)
    exp.add_argument("--format", choices=("exact-json", "float-json", "plain"), required=True)
    exp.add_argument("--out")
    exp.set_defaults(func=cmd_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # argparse (Python 3.11 at least) takes the value "--" in "--t12=--"
        # for its option separator and hands the option an empty list.
        if any(isinstance(value, list) for value in vars(args).values()):
            raise CliError("an option was given '--' as its value")
        return args.func(args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code
    except NoSolutionError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NO_SOLUTION


if __name__ == "__main__":
    sys.exit(main())
