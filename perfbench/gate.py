"""Output gate: decides whether one solve's report is correct.

A solve fails when its exit code is not 0, when the report's own verdict
(golden match or ODE check) is negative, when parsing and re-serializing
the report is not byte-identical, or when its digest differs from the
pinned one.  Once per run, the series is also rebuilt through the library
and checked against the report and by `verify_recursion`.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from kzrat import frobenius, kzmodel
from kzrat.matrix import FMatrix

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


def digest(report: bytes) -> str:
    return hashlib.sha256(report).hexdigest()


def pinned_digests() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def report_problems(check: str | None, code, report: bytes) -> list[str]:
    """Everything wrong with one solve, judged from its exit code and report."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    try:
        doc = json.loads(report)
    except ValueError:
        return problems + ["report is not valid JSON"]
    if (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode() != report:
        problems.append("report does not round-trip byte-identically")
    if check == "golden" and doc.get("golden", {}).get("matched") is not True:
        problems.append("golden comparison did not match")
    if check == "ode" and doc.get("ode", {}).get("satisfied") is not True:
        problems.append("ODE check not satisfied")
    return problems


def _encode(e):
    """The report's exact entry encoding, written independently of kzrat.cli."""
    if isinstance(e, Fraction):
        return str(e)
    return {"num": [str(c) for c in e.num.coeffs], "den": [str(c) for c in e.den.coeffs]}


def _point(text: str):
    return kzmodel.SYMBOLIC if text == kzmodel.SYMBOLIC else Fraction(text)


def library_series(cfg: dict):
    """Rebuild (expansion, series) from a config through the library API.

    Calls go through the module attributes so that a traced run sees them.
    """
    points = [_point(p) for p in cfg["points"]]
    coupling = Fraction(cfg["coupling"])
    if cfg["residues"] == "kz-s3":
        system = kzmodel.build_kz_s3(points[0], points[1], coupling)
    else:
        residues = [FMatrix([[Fraction(e) for e in row] for row in m]) for m in cfg["residues"]]
        system = kzmodel.kz_system(points, residues, coupling)
    exp = kzmodel.local_expansion(system, cfg["center"], cfg["convention"], cfg["order"])
    return exp, frobenius.compute_series(exp, coupling, cfg["order"])


def library_check(cfg: dict) -> tuple[list, list[str]]:
    """Rebuild the series through the library and check it with verify_recursion.

    Returns the coefficients in the report's encoding, for series_problems,
    and what verify_recursion found wrong.
    """
    exp, series = library_series(cfg)
    expected = [
        {"level": p, "matrix": [[_encode(e) for e in row] for row in series.coefficient(p).entries]}
        for p in series.levels()
    ]
    problems = []
    if not frobenius.verify_recursion(series, exp, Fraction(cfg["coupling"])).all_ok:
        problems.append("verify_recursion found a level whose identity fails")
    return expected, problems


def series_problems(expected: list, report: bytes) -> list[str]:
    if json.loads(report).get("series", {}).get("coefficients") != expected:
        return ["report coefficients differ from the library series"]
    return []


def _scalars(entry):
    if isinstance(entry, str):
        yield Fraction(entry)
    else:
        for part in ("num", "den"):
            yield from (Fraction(c) for c in entry[part])


def sizes(cfg: dict, report: bytes) -> dict[str, int]:
    """Exact counts that pin a workload's input and the bit height of its series."""
    try:
        coefficients = json.loads(report)["series"]["coefficients"]
    except (ValueError, KeyError):  # a failed solve; its failure is already counted
        coefficients = []
    num_bits = den_bits = 0
    for coeff in coefficients:
        for row in coeff["matrix"]:
            for entry in row:
                for x in _scalars(entry):
                    num_bits = max(num_bits, abs(x.numerator).bit_length())
                    den_bits = max(den_bits, x.denominator.bit_length())
    n = 3 if cfg["residues"] == "kz-s3" else len(cfg["residues"][0])
    return {
        "size.order": cfg["order"],
        "size.n": n,
        "size.points": len(cfg["points"]),
        "size.peak_num_bits": num_bits,
        "size.peak_den_bits": den_bits,
    }
