"""Command-line front end: exact expansion, series, and verification runs.

Every command goes through one pipeline, `run`: build the system, local
expansion, the center's spectral record (indicial data), then the
expansion printout (`expand`) or the Frobenius series, then the golden
comparison (`series`) or reconstruction from the records of every point
and of infinity and the exact ODE check (`verify`).  `run` prints as
each stage finishes, stops at the command's last stage or the first
stage that fails, and returns the exit code with the report; `main`
parses the arguments and is the one place that writes the `--json` report.

Configs are single JSON documents whose numbers are exact strings ("p/q");
reports echo every value exactly, so serialize -> parse -> serialize is
byte-identical.  Exit codes: 0 success/verified, 1 golden mismatch or
unverified rationality, 2 usage or config error or a closed stdout,
3 resonance obstruction.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii as _quote
from math import gcd
from typing import NamedTuple

from .frobenius import ResonanceObstruction, SeriesSolution, compute_series, indicial_data
from .frobenius import infinity_record, point_records
from .golden import compare_series
from .kzmodel import (
    CONVENTIONS,
    DERIVED_TAYLOR,
    SYMBOLIC,
    KZSystem,
    LocalExpansion,
    build_kz_s3,
    kz_system,
    local_expansion,
)
from .matrix import FMatrix, combination, int_form, scalar_combination, stripped
from .poly import Poly, poly_str
from .ratfunc import RatFunc
from .reconstruct import (
    InsufficientSeriesError,
    NoPolynomialDenominator,
    NotRepresentable,
    denominator_exponents,
    numerator_growth,
    reconstruct,
    verify_ode,
)
from .scalars import _int_of, format_ratio, format_scalar, parse_scalar

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_OBSTRUCTION = 3

PRESET_KZ_S3 = "kz-s3"


class ConfigError(ValueError):
    """A malformed or inconsistent run configuration."""


class SystemConfig(NamedTuple):
    mode: str
    points: tuple[Fraction | str, ...]  # each a Fraction, or SYMBOLIC
    preset: str | None
    residues: tuple[FMatrix, ...] | None
    coupling: Fraction
    convention: str
    order: int
    center: int
    numerator_degree: int | None
    denominator_exponents: tuple[int, ...] | None

    def build_system(self) -> KZSystem:
        if self.preset == PRESET_KZ_S3:
            if len(self.points) != 2:
                raise ConfigError("points: the kz-s3 preset needs exactly two points")
            try:
                return build_kz_s3(*self.points, self.coupling)
            except ValueError as exc:
                raise ConfigError(f"points: {exc}") from exc
        try:
            return kz_system(self.points, self.residues, self.coupling)
        except ValueError as exc:
            raise ConfigError(f"residues/points: {exc}") from exc

    def echo(self) -> dict:
        out = {
            "mode": self.mode,
            "points": [p if p == SYMBOLIC else format_scalar(p) for p in self.points],
            "coupling": format_scalar(self.coupling),
            "convention": self.convention,
            "order": self.order,
            "center": self.center,
        }
        if self.preset is not None:
            out["residues"] = self.preset
        else:
            out["residues"] = [_matrix_json(m) for m in self.residues]
        if self.numerator_degree is not None:
            out["numerator_degree"] = self.numerator_degree
        if self.denominator_exponents is not None:
            out["denominator_exponents"] = list(self.denominator_exponents)
        return out


# every field is a config key but `preset`, which parse_config derives from `residues`
_KNOWN_KEYS = frozenset(SystemConfig._fields) - {"preset"}


def _is_int(value) -> bool:
    """A JSON integer; true and false are bools, which Python counts as ints."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_config(text: str, overrides: dict | None = None) -> SystemConfig:
    """Validate a JSON config, once, with `overrides` (the command-line
    flags) replacing its keys first: an overridden value is never read.
    Diagnostics name the offending field."""
    try:
        doc = json.loads(text, parse_int=_int_of)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("the config must be a JSON object")
    doc.update(overrides or {})
    unknown = set(doc) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    mode = doc.get("mode")
    if mode not in ("symbolic", "numeric"):
        raise ConfigError("mode: must be 'symbolic' or 'numeric'")

    points = doc.get("points")
    if not isinstance(points, list) or not points or not all(
        isinstance(p, str) for p in points
    ):
        raise ConfigError("points: must be a non-empty list of strings")
    try:
        points = tuple(p if p == SYMBOLIC else parse_scalar(p) for p in points)
    except ValueError as exc:
        raise ConfigError(f"points: {exc}") from exc
    symbolic_flags = [p == SYMBOLIC for p in points]
    if mode == "symbolic":
        if not all(symbolic_flags) or len(points) != 2:
            raise ConfigError(
                "points: symbolic mode needs exactly two points, both 'symbolic'"
            )
    elif any(symbolic_flags):
        raise ConfigError("points: numeric mode does not allow 'symbolic' points")
    if mode == "numeric" and len(set(points)) != len(points):
        raise ConfigError("points: coincident points")

    residues = doc.get("residues", PRESET_KZ_S3)
    preset = None
    matrices = None
    if isinstance(residues, str):
        if residues != PRESET_KZ_S3:
            raise ConfigError(f"residues: unknown preset {residues!r}")
        preset = residues
    elif isinstance(residues, list):
        matrices = tuple(_parse_matrix(m, f"residues[{k}]") for k, m in enumerate(residues))
        if len(matrices) != len(points):
            raise ConfigError("residues: need one matrix per point")
    else:
        raise ConfigError("residues: must be a preset name or a list of matrices")

    coupling_text = doc.get("coupling", "2")
    if not isinstance(coupling_text, str):
        raise ConfigError("coupling: must be an exact rational string")
    try:
        coupling = parse_scalar(coupling_text)
    except ValueError as exc:
        raise ConfigError(f"coupling: {exc}") from exc

    convention = doc.get("convention", DERIVED_TAYLOR)
    if convention not in CONVENTIONS:
        raise ConfigError(f"convention: must be one of {CONVENTIONS}")

    order = doc.get("order", 3)
    if not _is_int(order) or order < 0:
        raise ConfigError("order: must be a nonnegative integer")

    center = doc.get("center", 1)
    if not _is_int(center) or not (1 <= center <= len(points)):
        raise ConfigError("center: must be a 1-based index into points")

    num_degree = doc.get("numerator_degree")
    if num_degree is not None and (not _is_int(num_degree) or num_degree < 0):
        raise ConfigError("numerator_degree: must be a nonnegative integer")

    den_exps = doc.get("denominator_exponents")
    if den_exps is not None:
        if (
            not isinstance(den_exps, list)
            or len(den_exps) != len(points)
            or not all(_is_int(e) and e >= 0 for e in den_exps)
        ):
            raise ConfigError(
                "denominator_exponents: must list one nonnegative integer per point"
            )
        den_exps = tuple(den_exps)

    return SystemConfig(
        mode=mode,
        points=points,
        preset=preset,
        residues=matrices,
        coupling=coupling,
        convention=convention,
        order=order,
        center=center,
        numerator_degree=num_degree,
        denominator_exponents=den_exps,
    )


def _parse_matrix(obj, where: str) -> FMatrix:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise ConfigError(f"{where}: must be a list of rows")
    rows = []
    for row in obj:
        out = []
        for e in row:
            if _is_int(e):
                out.append(Fraction(e))
            elif isinstance(e, str):
                try:
                    out.append(parse_scalar(e))
                except ValueError as exc:
                    raise ConfigError(f"{where}: {exc}") from exc
            else:
                raise ConfigError(f"{where}: entries must be integers or 'p/q' strings")
        rows.append(out)
    try:
        return FMatrix(rows)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# exact serialization


def _entry_json(e):
    if isinstance(e, Fraction):
        return format_scalar(e)
    if isinstance(e, RatFunc):
        return _monomial_json(format_scalar(e.coeff), e.power)
    raise TypeError(f"unserializable entry {e!r}")


def _monomial_json(c: str, power: int) -> dict:
    """The report cell of c * d^power, c a formatted scalar: the monomial's
    canonical form num / den."""
    if c == "0":
        return {"num": [], "den": ["1"]}
    return {"num": ["0"] * power + [c], "den": ["0"] * -power + ["1"]}


def parse_entry(obj):
    """Inverse of the report entry encoding (used for round-trip checks)."""
    if isinstance(obj, str):
        return parse_scalar(obj)
    if isinstance(obj, dict):
        num, den = (Poly([parse_scalar(c) for c in obj[k]]) for k in ("num", "den"))
        if any(p.valuation() != p.degree for p in (num, den)):
            raise ValueError(f"entry is not a monomial in d: {obj!r}")
        return RatFunc(num.coeff(num.degree) / den.leading, num.degree - den.degree)
    raise ValueError(f"unrecognized entry encoding: {obj!r}")


def _ratio_json(x: int, den: int) -> str:
    """format_scalar(Fraction(x, den)) for den > 0."""
    g = gcd(x, den)
    return format_ratio(x // g, den // g)


def _negated_json(cell):
    """The report cell of -x, from that of x: a string, or a polynomial's
    list of them."""
    if type(cell) is list:
        return [_negated_json(t) for t in cell]
    return cell[1:] if cell[0] == "-" else cell if cell == "0" else "-" + cell


def _poly_cells(f: list[int], den: int) -> list[str]:
    return [_ratio_json(x, den) for x in f]


class _Text:
    """A report value laid out ahead of the writer: its indented JSON text,
    in which "\n" breaks a line at the value's own indent.  A matrix's
    node also keeps its cells, the formatted scalars c of its entries
    c * d^power, which the printout reads, and power (None for
    Fractions).  Not a tuple, so that json.dumps refuses it rather than
    writing it as a list."""

    __slots__ = ("text", "cells", "power")

    def __init__(self, text: str, cells: list | None = None, power: int | None = None):
        self.text, self.cells, self.power = text, cells, power


def _matrix_json(m: FMatrix) -> _Text:
    # from its integers: each pivot entry is formatted once, and no entry built
    rows, den, relations, power = int_form(m)
    cells = relations.derived(rows, den, _ratio_json, scalar_combination, _negated_json, "0")
    # a cell is digits, "-" and "/", with nothing to escape
    if power is None:
        lines = ['"' + '",\n    "'.join(row) + '"' for row in cells]
    else:
        prefix, suffix = _monomial_text(power)
        lines = [
            ",\n    ".join(_ZERO_CELL if c == "0" else prefix + c + suffix for c in row)
            for row in cells
        ]
    return _Text("[\n  [\n    " + "\n  ],\n  [\n    ".join(lines) + "\n  ]\n]", cells, power)


# the text of _monomial_json at a matrix cell's indent, as the writer lays it out
_ZERO_CELL = '{\n      "den": [\n        "1"\n      ],\n      "num": []\n    }'


def _monomial_text(power: int) -> tuple[str, str]:
    """The text of a nonzero cell c * d^power of a matrix, as prefix + c + suffix."""
    zeros = '"0",\n        ' * abs(power)
    den, num = (zeros, "") if power < 0 else ("", zeros)
    head = '{\n      "den": [\n        ' + den + '"1"\n      ],\n      "num": [\n        '
    return head + num + '"', '"\n      ]\n    }'


def _indexed_json(key: str, pairs) -> _Text:
    """[{key: k, "matrix": node}, ...] for the (k, node) pairs, k an int,
    as one node; key sorts before "matrix"."""
    items = [
        f'{{\n    "{key}": {format_scalar(k)},\n    "matrix": '
        + node.text.replace("\n", "\n    ")
        + "\n  }"
        for k, node in pairs
    ]
    return _Text("[\n  " + ",\n  ".join(items) + "\n]" if items else "[]")


def _vector_json(v):
    return [_entry_json(e) for e in v]


def _poly_json(p: Poly):
    return [format_scalar(c) for c in p.coeffs]


def _numerator_json(m: FMatrix):
    rows, den, relations, _ = int_form(m)  # a reconstructed numerator builds no Poly
    return relations.derived(rows, den, _poly_cells, combination, _negated_json, [])


def report_to_json(report: dict) -> str:
    """json.dumps(report, indent=2, sort_keys=True) + newline, byte for byte.

    One pass appends the text piece by piece to a list, joined once at the
    end.  Strings are quoted by json's C helper, and ints go through
    format_scalar, so an int past CPython's int -> str cap is written too.
    A node laid out ahead (_Text) is copied in at its indent."""
    return _json_text(report, "\n") + "\n"


def _json_text(obj, newline: str) -> str:
    parts: list[str] = []
    _write_json(obj, newline, parts.append)
    return "".join(parts)


def _write_json(obj, newline: str, write) -> None:
    """Write obj as indented JSON; `newline` breaks a line to obj's own indent."""
    kind = type(obj)
    if kind is str:
        write(_quote(obj))
    elif kind is int:
        write(format_scalar(obj))
    elif kind is _Text:
        # JSON text holds no raw newline inside a string
        write(obj.text.replace("\n", newline))
    elif (kind is dict or kind is list or kind is tuple) and not obj:
        write("{}" if kind is dict else "[]")
    elif kind is dict:
        inner = newline + "  "
        sep = "{" + inner
        for k in sorted(obj):
            write(sep + _quote(k) + ": ")
            _write_json(obj[k], inner, write)
            sep = "," + inner
        write(newline + "}")
    elif kind is list or kind is tuple:
        inner = newline + "  "
        if all(type(v) is str for v in obj):
            write("[" + inner + ("," + inner).join(map(_quote, obj)) + newline + "]")
            return
        sep = "[" + inner
        for v in obj:
            write(sep)
            _write_json(v, inner, write)
            sep = "," + inner
        write(newline + "]")
    elif kind is bool or obj is None:
        write("null" if obj is None else "true" if obj else "false")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# human-readable printing


def _cell_lines(cells: list[list[str]], indent: str = "  ") -> list[str]:
    """Rows of cells in brackets, each column right-aligned to its widest cell."""
    widths = [max(map(len, col)) for col in zip(*cells)]
    return [indent + "[" + "  ".join(map(str.rjust, row, widths)) + "]" for row in cells]


def _symbolic_lines(m: FMatrix) -> list[str]:
    """The lines of a matrix of monomials c * d^k of one power k != 0, from
    its integers (int_form): 1/L * d^k * [integers] with L the least
    common denominator."""
    rows, den, relations, power = int_form(m)
    ints, den = stripped(*relations.flat(rows, den))
    head = f"  d^{power} *" if den == 1 else f"  1/{den} * d^{power} *"
    n = relations.cols
    cells = [[format_ratio(x, 1) for x in ints[i : i + n]] for i in range(0, len(ints), n)]
    return [head] + _cell_lines(cells, indent="    ")


def _print_coefficient(label: str, m: FMatrix, node: _Text, out) -> None:
    """Print m; node is its report form, whose cells print its Fractions."""
    lines = _symbolic_lines(m) if node.power else _cell_lines(node.cells)
    print(f"{label} =", *lines, sep="\n", file=out)


# ---------------------------------------------------------------------------
# report assembly


def _indicial_json(ind) -> dict:
    return {
        "eigenvalues": [[format_scalar(v), mult] for v, mult in ind.eigenvalues],
        "resonant_levels": sorted(ind.resonant_levels),
        "unresolved_factor": _poly_json(ind.unresolved_factor),
    }


def _series_json(series: SeriesSolution, levels: list[_Text]) -> dict:
    return {
        "leading_exponent": series.leading_exponent,
        "convention": series.convention,
        "coefficients": _indexed_json("level", zip(series.levels(), levels)),
        "resonances": [
            {
                "level": rec.level,
                "kind": rec.kind.value,
                "kernel": [_vector_json(v) for v in rec.kernel],
            }
            for rec in series.resonances
        ],
    }


def _expansion_json(exp: LocalExpansion, a_minus1: _Text, regular: list[_Text]) -> dict:
    return {
        "center": exp.center_index,
        "convention": exp.convention,
        "a_minus1": a_minus1,
        "regular": _indexed_json("index", enumerate(regular)),
    }


# ---------------------------------------------------------------------------
# the pipeline


def _indicial_summary(doc: dict) -> str:
    """The indicial line, from the report's indicial section."""
    eigs = ", ".join(f"{v} (x{m})" for v, m in doc["eigenvalues"])
    levels = "{" + ", ".join(map(format_scalar, doc["resonant_levels"])) + "}"
    return f"indicial: eigenvalues {eigs}; resonant levels {levels}"


def run(cfg: SystemConfig, command: str, golden: bool, out, err) -> tuple[int, dict | None]:
    """Run `command` ("expand", "series" or "verify") through the pipeline.

    `golden` adds the golden comparison to `series`; the config's convention
    decides whether it goes through the d -> -d duality.  Text goes to
    `out`, and usage diagnostics to `err`.  Returns the exit code and the
    report, or None for a usage error that writes no report.
    """
    if command == "verify" and cfg.mode != "numeric":
        print("verify needs a numeric-mode config", file=err)
        return EXIT_USAGE, None
    if golden and cfg.order < 3:
        print("golden comparison needs --order >= 3", file=err)
        return EXIT_USAGE, None
    if golden and (cfg.mode != "symbolic" or cfg.preset != PRESET_KZ_S3):
        print("golden comparison needs the kz-s3 preset in symbolic mode", file=err)
        return EXIT_USAGE, None
    if golden and cfg.center != 1:
        print("golden comparison needs --center 1", file=err)
        return EXIT_USAGE, None
    system = cfg.build_system()
    exp = local_expansion(system, cfg.center, cfg.convention, cfg.order)
    ind = indicial_data(exp, cfg.coupling)
    report: dict = {"config": cfg.echo(), "indicial": _indicial_json(ind)}
    if command == "expand":
        regular = [exp.regular(r) for r in range(exp.order + 1)]
        nodes = [_matrix_json(m) for m in (exp.a_minus1, *regular)]
        report["expansion"] = _expansion_json(exp, nodes[0], nodes[1:])
        print(f"local expansion at point {cfg.center} ({cfg.convention})", file=out)
        _print_coefficient("a[-1]", exp.a_minus1, nodes[0], out)
        for r, (m, node) in enumerate(zip(regular, nodes[1:])):
            _print_coefficient(f"a[{r}]", m, node, out)
        return EXIT_OK, report

    print(_indicial_summary(report["indicial"]), file=out)
    if not ind.resonant_levels:
        print("no integer eigenvalue: the Laurent ansatz has no integer leading exponent", file=out)
        return EXIT_MISMATCH, report
    try:
        series = compute_series(exp, cfg.coupling, cfg.order, min(ind.resonant_levels))
    except ResonanceObstruction as exc:
        certificate = _vector_json(exc.certificate)
        print(f"resonance obstruction at level {format_scalar(exc.level)}", file=out)
        print(f"certificate y (y*step = 0, y*rhs != 0): {certificate}", file=out)
        report["obstruction"] = {
            "level": exc.level,
            "certificate": certificate,
            "rhs": _matrix_json(exc.rhs),
        }
        return EXIT_OBSTRUCTION, report
    levels = [_matrix_json(m) for m in series.coeffs]
    report["series"] = _series_json(series, levels)
    if command == "series":
        exponent = format_scalar(series.leading_exponent)
        print(f"leading exponent: {exponent} ({series.convention})", file=out)
        for p, m, node in zip(series.levels(), series.coeffs, levels):
            _print_coefficient(f"b[{format_scalar(p)}]", m, node, out)
        for rec in series.resonances:
            print(
                f"resonant level {format_scalar(rec.level)}: {rec.kind.value}, "
                f"kernel dimension {len(rec.kernel)}",
                file=out,
            )
        if not golden:
            return EXIT_OK, report
        outcome = compare_series(series, exp)
        for line in outcome.lines:
            print(line, file=out)
        report["golden"] = {"matched": outcome.matched, "lines": list(outcome.lines)}
        return (EXIT_OK if outcome.matched else EXIT_MISMATCH), report

    try:
        exponents, degree = cfg.denominator_exponents, cfg.numerator_degree
        if exponents is None or degree is None:  # read from the records
            records = point_records(system, (ind,))
            exponents = exponents or denominator_exponents(system.points, records)
            if degree is None:
                degree = sum(exponents) + numerator_growth(infinity_record(records, system.n))
        w = reconstruct(series, zip(system.points, exponents), degree)
    except NoPolynomialDenominator as exc:
        print(f"reconstruction impossible: {exc}", file=out)
        report["reconstruction"] = {"status": "no-polynomial-denominator", "detail": str(exc)}
        return EXIT_MISMATCH, report
    except InsufficientSeriesError as exc:
        print(f"insufficient series length: {exc}", file=err)
        report["reconstruction"] = {"status": "insufficient-series", "detail": str(exc)}
        return EXIT_USAGE, report
    except NotRepresentable as exc:
        print(f"not representable: {exc}", file=out)
        report["reconstruction"] = {
            "status": "not-representable",
            "first_unmatched_level": exc.first_unmatched_level,
        }
        return EXIT_MISMATCH, report

    verdict = verify_ode(w, system)
    recon = report["reconstruction"] = {
        "status": "ok",
        "denominator": _poly_json(w.denominator),
        "numerator": _numerator_json(w.numerator),
        "numerator_degree_bound": degree,
    }
    report["ode"] = {
        "satisfied": verdict.satisfied,
        "det_identically_zero": verdict.det_identically_zero,
        "residual_zero": verdict.residual.is_zero(),
    }
    print(f"denominator: {poly_str(recon['denominator'], 'z')}", file=out)
    cells = [[poly_str(texts, "z") for texts in row] for row in recon["numerator"]]
    print("numerator:", *_cell_lines(cells), sep="\n", file=out)
    print(
        f"ode satisfied: {verdict.satisfied}; det identically zero: "
        f"{verdict.det_identically_zero}",
        file=out,
    )
    return (EXIT_OK if verdict.satisfied else EXIT_MISMATCH), report


# ---------------------------------------------------------------------------
# entry point


def load_config(path: str, overrides: dict) -> SystemConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    return parse_config(text, overrides)


_COMMANDS = {
    "expand": "print the local expansion coefficients",
    "series": "solve the recursion and print the Laurent coefficients",
    "verify": "series -> rational reconstruction -> exact ODE check",
}


class _ArgumentParser(argparse.ArgumentParser):
    def print_help(self, file=None):
        # argparse's own write ignores an OSError, so --help into a closed
        # unbuffered stdout would exit 0; print raises it, and main handles
        # it like a run's closed stdout
        print(self.format_help(), end="", file=file)


@cache
def _parser() -> _ArgumentParser:
    """The command-line parser, built once per process: parsing an argument
    list leaves it as it was."""
    parser = _ArgumentParser(
        prog="kzrat",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Exact Frobenius series and rational solutions for "
        "KZ-type Fuchsian systems.",
        epilog="commands:\n" + "".join(f"  {c:8}{text}\n" for c, text in _COMMANDS.items()),
    )
    parser.add_argument("command", choices=_COMMANDS, help="one of the commands below")
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--json", dest="json_path", help="write the full report here")
    parser.add_argument("--order", type=int, help="override the config order")
    parser.add_argument("--center", type=int, help="override the expansion center (1-based)")
    parser.add_argument("--convention", choices=CONVENTIONS, help="override the convention")
    parser.add_argument("--golden", action="store_true", help="series: compare with built-in tables")
    return parser


def main(argv=None) -> int:
    parser = _parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            # --help has written to stdout: flush it while a closed stdout
            # is still handled below
            print(end="", flush=True)
            raise
        if args.golden and args.command != "series":
            parser.error("--golden needs the series command")

        overrides = {}
        if args.order is not None:
            overrides["order"] = args.order
        if args.center is not None:
            overrides["center"] = args.center
        if args.convention is not None:
            overrides["convention"] = args.convention

        cfg = load_config(args.config, overrides)
        code, report = run(cfg, args.command, args.golden, sys.stdout, sys.stderr)
        print(end="", flush=True)  # like run's prints, a no-op when there is no stdout
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to devnull,
        # so that the flush at interpreter exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: standard output closed", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if report is not None and args.json_path:
        try:
            with open(args.json_path, "w", encoding="utf-8") as fh:
                fh.write(report_to_json(report))
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
