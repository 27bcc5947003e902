import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kzrat import (
    CONVENTIONS,
    DERIVED_TAYLOR,
    LITERAL_PAPER,
    SYMBOLIC,
    RatFunc,
    ResonanceObstruction,
    build_kz_s3,
    compute_series,
    format_scalar,
    indicial_data,
    kz_system,
    local_expansion,
    parse_scalar,
)
from kzrat import cli
from kzrat import matrix as matrix_module
from kzrat import poly as poly_module
from kzrat.cli import (
    ConfigError,
    main,
    parse_config,
    parse_entry,
    report_to_json,
)
from kzrat.golden import compare_series
from kzrat.matrix import ColumnRelations, FMatrix, _GradedMatrix, graded, int_form
from kzrat.scalars import format_ratio
from support import (
    OBSTRUCTED_RESIDUE2,
    P1,
    entries_built,
    fraction_compute_series,
    graded_entries,
    kz_systems,
    printed_lines,
)
from test_matrix import cleared_forms
from test_pinned_reports import PINNED

S3_SYMBOLIC = {
    "mode": "symbolic",
    "points": ["symbolic", "symbolic"],
    "residues": "kz-s3",
    "coupling": "2",
    "convention": "literal-paper",
    "order": 3,
    "center": 1,
}

S3_NUMERIC = {
    "mode": "numeric",
    "points": ["0", "1"],
    "residues": "kz-s3",
    "coupling": "2",
    "convention": "derived-taylor",
    "order": 14,
    "center": 1,
}

SINGLE_POLE = {
    "mode": "numeric",
    "points": ["0"],
    "residues": [[[0, 1, 0], [1, 0, 0], [0, 0, 1]]],
    "coupling": "2",
    "convention": "derived-taylor",
    "order": 5,
    "center": 1,
}

OBSTRUCTED = {
    "mode": "numeric",
    "points": ["0", "1"],
    "residues": [
        [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
        [[1, 0, 1], [-1, 0, 0], [-1, 0, 1]],
    ],
    "coupling": "2",
    "convention": "derived-taylor",
    "order": 8,
    "center": 1,
}


def write_config(tmp_path: Path, doc: dict, name="cfg.json") -> str:
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


def test_parse_config_valid_preset():
    cfg = parse_config(json.dumps(S3_NUMERIC))
    assert cfg.preset == "kz-s3"
    assert cfg.coupling == Fraction(2)
    sys_ = cfg.build_system()
    assert sys_.n == 3 and not sys_.is_symbolic


def test_parse_config_coincident_points():
    doc = dict(S3_NUMERIC, points=["0", "0"])
    with pytest.raises(ConfigError, match="coincident"):
        parse_config(json.dumps(doc))


@st.composite
def _spellings(draw, value: Fraction) -> str:
    """Another way to write `value` that parse_scalar reads as `value`:
    a sign, leading zeros, surrounding spaces, a common factor, "/1"."""
    k = draw(st.integers(1, 3))
    num, den = value.numerator * k, value.denominator * k
    sign = "-" if num < 0 else draw(st.sampled_from(["", "+", "-"] if num == 0 else ["", "+"]))
    text = sign + "0" * draw(st.integers(0, 2)) + str(abs(num))
    if den != 1 or draw(st.booleans()):
        text += f"/{den}"
    pad = draw(st.sampled_from(["", " "]))
    return pad + text + pad


@given(
    values=st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
        min_size=2,
        max_size=2,
        unique=True,
    ),
    data=st.data(),
)
@settings(max_examples=25, deadline=None)
def test_points_echo_in_canonical_form(values, data):
    spelled = [data.draw(_spellings(v)) for v in values]
    canonical = [format_scalar(v) for v in values]
    doc = dict(S3_NUMERIC, order=3)
    echoed = parse_config(json.dumps(dict(doc, points=spelled))).echo()["points"]
    assert echoed == [format_scalar(parse_scalar(p)) for p in spelled] == canonical
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for points in (spelled, canonical):
            cfg = Path(tmp) / "cfg.json"
            report = Path(tmp) / "report.json"
            cfg.write_text(json.dumps(dict(doc, points=points)), encoding="utf-8")
            out = io.StringIO()
            with redirect_stdout(out):
                rc = main(["series", "--config", str(cfg), "--json", str(report)])
            runs.append((rc, out.getvalue(), report.read_bytes()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize(
    "doc, match",
    [
        (dict(S3_NUMERIC, coupling="0.5"), "1/2"),
        # non-ASCII decimal digits are not read as numbers
        (dict(S3_NUMERIC, coupling="\uff11"), "not a rational literal"),
        (dict(S3_NUMERIC, points=["0", "\u0663"]), "not a rational literal"),
    ],
    ids=("decimal", "fullwidth-coupling", "arabic-indic-point"),
)
def test_parse_config_rejects_decimals(tmp_path, capsys, doc, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(json.dumps(doc))
    assert main(["series", "--config", write_config(tmp_path, doc)]) == 2
    assert match in capsys.readouterr().err


def test_parse_config_unknown_preset_and_keys():
    with pytest.raises(ConfigError, match="unknown preset"):
        parse_config(json.dumps(dict(S3_NUMERIC, residues="kz-s4")))
    with pytest.raises(ConfigError, match="unknown config keys"):
        parse_config(json.dumps(dict(S3_NUMERIC, extra=1)))


def test_parse_config_mode_point_consistency():
    with pytest.raises(ConfigError):
        parse_config(json.dumps(dict(S3_NUMERIC, mode="symbolic")))
    with pytest.raises(ConfigError):
        parse_config(json.dumps(dict(S3_SYMBOLIC, points=["symbolic", "1"])))


def test_parse_config_explicit_residues():
    cfg = parse_config(json.dumps(SINGLE_POLE))
    assert cfg.preset is None
    assert cfg.residues[0].rows == 3
    with pytest.raises(ConfigError, match="one matrix per point"):
        parse_config(json.dumps(dict(SINGLE_POLE, points=["0", "1"])))


# JSON true/false are Python bools, which are ints; each field must refuse them.
BOOLEAN_CONFIGS = {
    "order": dict(S3_NUMERIC, order=True),
    "center": dict(S3_NUMERIC, center=True),
    "numerator_degree": dict(S3_NUMERIC, numerator_degree=True),
    "denominator_exponents": dict(S3_NUMERIC, denominator_exponents=[True, 2]),
    "residues": dict(SINGLE_POLE, residues=[[[False, True, 0], [1, 0, 0], [0, 0, 1]]]),
}


@pytest.mark.parametrize("field", sorted(BOOLEAN_CONFIGS))
def test_parse_config_rejects_json_booleans(tmp_path, capsys, field):
    doc = BOOLEAN_CONFIGS[field]
    with pytest.raises(ConfigError, match=field):
        parse_config(json.dumps(doc))
    rc = main(["series", "--config", write_config(tmp_path, doc)])
    assert rc == 2
    assert field in capsys.readouterr().err


def test_series_golden_matches(tmp_path, capsys):
    path = write_config(tmp_path, S3_SYMBOLIC)
    rc = main(["series", "--config", path, "--golden"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "golden: match (4 coefficients + resonant RHS)" in out


def test_series_golden_dual_matches(tmp_path, capsys):
    path = write_config(tmp_path, dict(S3_SYMBOLIC, convention="derived-taylor"))
    rc = main(["series", "--config", path, "--golden"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "golden: match up to d->-d duality" in out
    # the convention picks the comparison; there is no second flag
    with pytest.raises(SystemExit) as exc:
        main(["series", "--config", path, "--golden-dual"])
    assert exc.value.code == 2


def test_compare_series_needs_center_one():
    exp = local_expansion(build_kz_s3(SYMBOLIC, SYMBOLIC), 2, LITERAL_PAPER, 4)
    series = compute_series(exp, Fraction(2), 4)
    assert compare_series(series, exp) == (False, ("golden comparison needs center 1, got center 2",))


def test_series_golden_needs_order_three(tmp_path, capsys):
    path = write_config(tmp_path, dict(S3_SYMBOLIC, order=2))
    rc = main(["series", "--config", path, "--golden"])
    assert rc == 2


@pytest.mark.parametrize(
    "cfg, message",
    [
        (dict(S3_SYMBOLIC, order=2), "golden comparison needs --order >= 3"),
        # before "no integer eigenvalue", which coupling 1/2 would give
        (dict(S3_SYMBOLIC, order=2, coupling="1/2"), "golden comparison needs --order >= 3"),
        (S3_NUMERIC, "golden comparison needs the kz-s3 preset in symbolic mode"),
        (
            dict(S3_SYMBOLIC, residues=[[[0, 1, 0], [1, 0, 0], [0, 0, 1]]] * 2),
            "golden comparison needs the kz-s3 preset in symbolic mode",
        ),
        (dict(S3_SYMBOLIC, center=2), "golden comparison needs --center 1"),
    ],
    ids=("order-2", "order-2-no-integer-eigenvalue", "numeric", "custom-residues", "center-2"),
)
def test_golden_usage_errors_are_decided_from_the_config(tmp_path, capsys, monkeypatch, cfg, message):
    def no_stage(*args):
        raise AssertionError("a pipeline stage ran before a golden usage error")

    monkeypatch.setattr(cli, "local_expansion", no_stage)
    path = write_config(tmp_path, cfg)
    report = tmp_path / "report.json"
    rc = main(["series", "--config", path, "--golden", "--json", str(report)])
    assert (rc, capsys.readouterr()) == (2, ("", message + "\n"))
    assert not report.exists()


def test_series_single_pole_reports_zero_tail(tmp_path, capsys):
    path = write_config(tmp_path, SINGLE_POLE)
    report_path = str(tmp_path / "report.json")
    rc = main(["series", "--config", path, "--json", report_path])
    assert rc == 0
    doc = json.loads(Path(report_path).read_text())
    coeffs = {c["level"]: c["matrix"] for c in doc["series"]["coefficients"]}
    assert coeffs[-2][0][0] == "1"
    for level in range(-1, 4):
        assert all(e == "0" for row in coeffs[level] for e in row)


def test_verify_paper_preset(tmp_path, capsys):
    path = write_config(tmp_path, S3_NUMERIC)
    report_path = str(tmp_path / "verify.json")
    rc = main(["verify", "--config", path, "--json", report_path])
    out = capsys.readouterr().out
    assert rc == 0
    assert "ode satisfied: True" in out
    doc = json.loads(Path(report_path).read_text())
    assert doc["ode"] == {
        "satisfied": True,
        "det_identically_zero": True,
        "residual_zero": True,
    }
    assert doc["reconstruction"]["status"] == "ok"


def test_verify_insufficient_order(tmp_path, capsys):
    path = write_config(tmp_path, dict(S3_NUMERIC, order=3))
    rc = main(["verify", "--config", path])
    err = capsys.readouterr().err
    assert rc == 2
    assert "order >=" in err


@pytest.mark.parametrize(
    "overrides, need",
    [({}, 60044), ({"denominator_exponents": [10007, 10007], "numerator_degree": 0}, 20016)],
    ids=("proposed", "configured"),
)
def test_verify_huge_denominator_reports_insufficient_series(tmp_path, capsys, overrides, need):
    # the denominator z^10007 (z - 1)^10007 must not be expanded for a
    # series of 41 coefficients
    doc = dict(S3_NUMERIC, coupling="10007", order=40, **overrides)
    path = write_config(tmp_path, doc)
    report = tmp_path / "report.json"
    start = time.perf_counter()
    rc = main(["verify", "--config", path, "--json", str(report)])
    assert time.perf_counter() - start < 2.0
    assert rc == 2
    detail = (
        f"reconstruction needs at least {need} series coefficients, got 41; "
        f"recompute the series with order >= {need - 1}"
    )
    assert f"insufficient series length: {detail}" in capsys.readouterr().err
    assert json.loads(report.read_text())["reconstruction"] == {
        "status": "insufficient-series",
        "detail": detail,
    }


def test_verify_rejects_symbolic_mode(tmp_path, capsys):
    path = write_config(tmp_path, S3_SYMBOLIC)
    rc = main(["verify", "--config", path])
    assert rc == 2


def test_verify_nonrational_coupling(tmp_path, capsys):
    path = write_config(tmp_path, dict(S3_NUMERIC, coupling="2/3"))
    rc = main(["verify", "--config", path])
    out = capsys.readouterr().out
    assert rc == 1
    assert "no integer eigenvalue" in out


def test_verify_with_narrow_numerator_override(tmp_path, capsys):
    path = write_config(tmp_path, dict(S3_NUMERIC, numerator_degree=6))
    rc = main(["verify", "--config", path])
    out = capsys.readouterr().out
    assert rc == 1
    assert "not representable" in out


def test_verify_with_denominator_override(tmp_path, capsys):
    doc = dict(S3_NUMERIC, denominator_exponents=[2, 2], numerator_degree=8)
    path = write_config(tmp_path, doc)
    rc = main(["verify", "--config", path])
    out = capsys.readouterr().out
    assert rc == 0
    assert "ode satisfied: True" in out


def test_a_configured_shape_needs_no_other_spectral_record(tmp_path, monkeypatch):
    # with the denominator exponents and the numerator degree both in the
    # config, only the center's characteristic polynomial is formed
    expanded = []
    leverrier = matrix_module.faddeev_leverrier
    monkeypatch.setattr(
        matrix_module, "faddeev_leverrier", lambda a, n: expanded.append(a) or leverrier(a, n)
    )
    doc = dict(S3_NUMERIC, denominator_exponents=[2, 2], numerator_degree=8)
    with redirect_stdout(io.StringIO()):
        assert main(["verify", "--config", write_config(tmp_path, doc)]) == 0
    assert len(expanded) == 1


def test_verify_at_coupling_zero_reconstructs_the_identity(tmp_path, capsys):
    # W' = 0: the seed is the whole kernel of the zero step matrix, so W = I
    # and its determinant does not vanish
    path = write_config(tmp_path, dict(S3_NUMERIC, coupling="0"))
    report = tmp_path / "report.json"
    assert main(["verify", "--config", path, "--json", str(report)]) == 0
    assert "ode satisfied: True; det identically zero: False" in capsys.readouterr().out
    doc = json.loads(report.read_text())
    assert doc["reconstruction"]["denominator"] == ["1"]
    assert doc["reconstruction"]["numerator"] == [
        [["1"] if i == j else [] for j in range(3)] for i in range(3)
    ]
    assert doc["ode"] == {"satisfied": True, "det_identically_zero": False, "residual_zero": True}


def test_verify_obstructed_system_exits_three(tmp_path, capsys):
    path = write_config(tmp_path, OBSTRUCTED)
    report_path = str(tmp_path / "obstructed.json")
    rc = main(["verify", "--config", path, "--json", report_path])
    out = capsys.readouterr().out
    assert rc == 3
    assert "resonance obstruction at level 2" in out
    doc = json.loads(Path(report_path).read_text())
    assert doc["obstruction"]["level"] == 2
    assert any(e != "0" for e in doc["obstruction"]["certificate"])


def test_series_obstructed_system_exits_three(tmp_path, capsys):
    path = write_config(tmp_path, OBSTRUCTED)
    rc = main(["series", "--config", path])
    assert rc == 3


def test_expand_command(tmp_path, capsys):
    path = write_config(tmp_path, dict(S3_SYMBOLIC, order=2))
    report_path = str(tmp_path / "expand.json")
    rc = main(["expand", "--config", path, "--json", report_path])
    out = capsys.readouterr().out
    assert rc == 0
    assert "a[-1]" in out
    doc = json.loads(Path(report_path).read_text())
    assert len(doc["expansion"]["regular"]) == 3


def test_report_roundtrip_is_byte_identical(tmp_path):
    path = write_config(tmp_path, S3_SYMBOLIC)
    report_path = tmp_path / "series.json"
    rc = main(["series", "--config", path, "--golden", "--json", str(report_path)])
    assert rc == 0
    text = report_path.read_text()
    assert report_to_json(json.loads(text)) == text
    doc = json.loads(text)
    entry = parse_entry(doc["series"]["coefficients"][1]["matrix"][0][0])
    assert entry == RatFunc.monomial(-1, Fraction(4, 3))


def test_report_to_json_writes_the_bytes_of_json_dumps():
    doc = {
        "b": [1, -2, True, False, None, [], {}, ("t", "\u00e9")],
        "a": {"\u2603": 'q"\\\n\t', "z": [["x", "y"], [], [[]]]},
        "": 0,
    }
    assert report_to_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    big = 10**5000  # past CPython's int -> str digit cap
    digits = "1" + "0" * 5000
    expected = f'{{\n  "n": [\n    {digits},\n    -{digits}\n  ]\n}}\n'
    assert report_to_json({"n": [big, -big]}) == expected
    for bad in ({"s": {1}}, [Fraction(1, 2)]):
        with pytest.raises(TypeError):
            report_to_json(bad)


# Documents of every JSON shape the writer handles: nested dicts, lists and
# tuples, empty containers, lists of strings only, strings with escapes and
# non-ASCII characters, negative ints, bools and None.
_texts = st.text(max_size=6) | st.sampled_from(['"', "\\", "\n\t\x00", "\u00e9", "\U0001f600"])
_report_documents = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | _texts,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.lists(_texts, max_size=4)
    | st.dictionaries(_texts, inner, max_size=4),
    max_leaves=24,
)


@given(doc=_report_documents)
@settings(max_examples=300, deadline=None)
def test_report_to_json_writes_the_bytes_of_json_dumps_on_drawn_documents(doc):
    assert report_to_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@given(
    form=cleared_forms(),
    power=st.none() | st.integers(-4, 4),
    path=st.lists(st.tuples(_texts, _report_documents, st.booleans()), max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_a_matrix_node_writes_the_bytes_of_its_entries_encoded_one_by_one(form, power, path):
    # numeric levels with copied, negated, zero and combined columns, and
    # their graded views (all-zero ones too), with ints past the digit cap
    ints, den, relations = form
    m = FMatrix.from_basis(ints, den, relations)
    view = m if power is None else graded(m, power)
    node = cli._Block([view])
    decoded = json.loads(node.text("\n"))
    assert decoded == [[cli._entry_json(e) for e in row] for row in view.entries]
    indexed = cli._Block([view, view], "level", [-2, 3])
    plain_indexed = [{"level": -2, "matrix": decoded}, {"level": 3, "matrix": decoded}]
    assert json.loads(indexed.text("\n")) == plain_indexed
    # at a drawn depth in a document, beside drawn values
    doc, plain = [node, indexed], [decoded, plain_indexed]
    for key, sibling, in_list in path:
        if in_list:
            doc, plain = [sibling, doc], [sibling, plain]
        else:
            doc, plain = {key: doc, key + "'": sibling}, {key: plain, key + "'": sibling}
    assert report_to_json(doc) == json.dumps(plain, indent=2, sort_keys=True) + "\n"


@st.composite
def matrix_blocks(draw):
    """A sequence of matrices as a series may hold them: lazy from_basis
    levels sharing one relations object (rank 1 to n), all-zero levels,
    eager matrices and levels with other relations among them, each
    Fractions or graded at a power -4 .. 4, with entries past CPython's
    int -> str digit cap at times."""
    ints, _, relations = draw(cleared_forms())
    entries = st.integers(-60, 60) | st.just(-(10**4400) - 7)
    matrices = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("lazy", "lazy", "zero", "eager", "other")))
        if kind == "other":
            m = FMatrix.from_basis(*draw(cleared_forms()))
        else:
            level = [0] * len(ints)
            if kind != "zero":
                level = draw(st.lists(entries, min_size=len(ints), max_size=len(ints)))
            m = FMatrix.from_basis(level, draw(st.sampled_from((1, 6, 35, 10**30))), relations)
        power = draw(st.none() | st.integers(-4, 4))
        if kind == "eager":
            entry = (lambda e: e) if power is None else (lambda e: RatFunc(e, power))
            m = FMatrix([[entry(e) for e in row] for row in m.entries])
        elif power is not None:
            m = graded(m, power)
        matrices.append(m)
    return matrices


@given(matrices=matrix_blocks(), start=st.integers(-50, 50))
@settings(max_examples=150, deadline=None)
def test_a_block_writes_the_bytes_of_its_matrices_written_one_by_one(matrices, start):
    labels = range(start, start + len(matrices))
    block = cli._Block(matrices, "level", labels)
    names = [f"b[{p}]" for p in labels]
    # the printout against the per-matrix printout, read from the integers
    expected_lines = [line for name, m in zip(names, matrices) for line in printed_lines(name, m)]
    assert block.printout(names).splitlines() == expected_lines
    # the report text against each entry encoded on its own, at an indent
    plain = [
        {"level": p, "matrix": [[cli._entry_json(e) for e in row] for row in m.entries]}
        for p, m in zip(labels, matrices)
    ]
    doc = {"series": {"coefficients": block, "matrix": cli._Block(matrices[:1])}}
    plain_doc = {"series": {"coefficients": plain, "matrix": plain[0]["matrix"]}}
    assert report_to_json(doc) == json.dumps(plain_doc, indent=2, sort_keys=True) + "\n"
    for cells, m in zip(block.cells, matrices):
        scalars = [[e if type(e) is Fraction else e.coeff for e in row] for row in m.entries]
        assert cells == [tuple(map(format_scalar, row)) for row in scalars]


@pytest.mark.parametrize("scale", (1, 2), ids=("same-values", "other-values"))
def test_a_series_with_one_eager_level_writes_the_bytes_of_per_level_writing(monkeypatch, scale):
    # the eager level has every column a pivot, the lazy ones the seed's
    # relations: the block splits into three runs
    cfg = parse_config(json.dumps(S3_NUMERIC))
    compute = cli.compute_series
    solved = []

    def tampered(*args):
        series = compute(*args)
        coeffs = list(series.coeffs)
        coeffs[5] = FMatrix(coeffs[5].entries) * Fraction(scale)
        solved.append(series._replace(coeffs=tuple(coeffs)))
        return solved[-1]

    untampered = io.StringIO()
    _, plain_report = cli.run(cfg, "series", False, untampered, io.StringIO())
    monkeypatch.setattr(cli, "compute_series", tampered)
    out = io.StringIO()
    code, report = cli.run(cfg, "series", False, out, io.StringIO())
    assert code == 0
    (series,) = solved
    relations = [int_form(m)[2] for m in series.coeffs[4:7]]
    assert relations[0] == relations[2] != relations[1] == ColumnRelations.trivial(3)
    # the printout, level by level
    lines = out.getvalue().splitlines()
    start = lines.index("leading exponent: -2 (derived-taylor)") + 1
    names = [f"b[{p}]" for p in series.levels()]
    expected = [line for name, m in zip(names, series.coeffs) for line in printed_lines(name, m)]
    assert lines[start : start + len(expected)] == expected
    # the report, each level's entries encoded on their own
    doc = json.loads(report_to_json(report))
    doc["series"]["coefficients"] = [
        {"level": p, "matrix": [[cli._entry_json(e) for e in row] for row in m.entries]}
        for p, m in zip(series.levels(), series.coeffs)
    ]
    assert report_to_json(report) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    # an eager level of the same values writes the bytes of the lazy one
    if scale == 1:
        assert out.getvalue() == untampered.getvalue()
        assert report_to_json(report) == report_to_json(plain_report)
    else:
        assert report_to_json(report) != report_to_json(plain_report)


def _graded_entries(node):
    """Every {"num", "den"} entry anywhere in a report document."""
    if isinstance(node, dict):
        if set(node) == {"num", "den"}:
            yield node
        else:
            for value in node.values():
                yield from _graded_entries(value)
    elif isinstance(node, list):
        for value in node:
            yield from _graded_entries(value)


def test_parse_entry_round_trips_every_graded_entry(tmp_path):
    # coefficients, the level-2 kernel and the expansion, at order 20
    for command in ("series", "expand"):
        path = write_config(tmp_path, dict(S3_SYMBOLIC, order=20))
        report_path = tmp_path / f"{command}.json"
        with redirect_stdout(io.StringIO()):
            assert main([command, "--config", path, "--json", str(report_path)]) == 0
        entries = list(_graded_entries(json.loads(report_path.read_text())))
        assert len(entries) > 100
        for obj in entries:
            value = parse_entry(obj)
            assert isinstance(value, RatFunc)
            assert cli._entry_json(value) == obj


@pytest.mark.parametrize(
    "obj",
    [
        {"num": ["1", "1"], "den": ["1"]},
        {"num": ["1"], "den": ["1", "1"]},
        {"num": ["1"], "den": []},
    ],
)
def test_parse_entry_rejects_a_non_monomial(obj):
    with pytest.raises(ValueError):
        parse_entry(obj)


def test_series_reports_entries_past_the_int_str_digit_cap(tmp_path):
    # with the far pole at 10^18, b_p grows like 10^(18 p): at order 300
    # entries run past CPython's default int -> str cap of 4300 digits
    doc = dict(S3_NUMERIC, points=["0", "1000000000000000000"], order=300)
    report_path = tmp_path / "series.json"
    with redirect_stdout(io.StringIO()):
        rc = main(["series", "--config", write_config(tmp_path, doc), "--json", str(report_path)])
    assert rc == 0
    coefficients = json.loads(report_path.read_text())["series"]["coefficients"]
    longest = max((e for c in coefficients for row in c["matrix"] for e in row), key=len)
    assert len(longest) > 4300
    assert cli._entry_json(parse_entry(longest)) == longest


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int <-> str digit cap before 3.10.7"
)
def test_main_leaves_the_int_str_digit_cap_as_it_found_it(tmp_path):
    # long integers are converted in pieces, never by lifting the cap
    before = sys.get_int_max_str_digits()
    big = "1" + "0" * 5000
    text = json.dumps(dict(SINGLE_POLE, residues=[[["BIG"]]])).replace('"BIG"', big)
    path = tmp_path / "cfg.json"
    path.write_text(text, encoding="utf-8")
    report = tmp_path / "report.json"
    with redirect_stdout(io.StringIO()):
        assert main(["verify", "--config", str(path), "--json", str(report)]) == 2
    assert f'"{big}"' in report.read_text()
    assert sys.get_int_max_str_digits() == before


def test_derived_report_cells_at_the_edges():
    # one pivot column f over 2: a copy, a negation with zero coefficients
    # inside, a zero column, and single terms that are a multiple other
    # than +-den of the pivot column (2 f, and -f / 2 for relations over 2),
    # which are formatted, not derived
    f = [3, 0, -4, 0, 5]
    m = FMatrix.from_poly_basis([[f]], 2, ColumnRelations((0,), ((1, -1, 0, 2),), 1))
    assert cli._numerator_json(m) == [[
        ["3/2", "0", "-2", "0", "5/2"],
        ["-3/2", "0", "2", "0", "-5/2"],
        [],
        ["3", "0", "-4", "0", "5"],
    ]]
    m = FMatrix.from_poly_basis([[f]], 2, ColumnRelations((0,), ((2, -1, 0),), 2))
    assert cli._numerator_json(m) == [
        [["3/2", "0", "-2", "0", "5/2"], ["-3/4", "0", "1", "0", "-5/4"], []]
    ]
    level = FMatrix.from_basis([3, -4], 2, ColumnRelations((0,), ((2, -1, 0, -2),), 2))
    assert cli._Block([level]).cells == [[("3/2", "-3/4", "0", "-3/2"), ("-2", "1", "0", "2")]]
    # a negation past CPython's int -> str digit cap, in a level and in a
    # numerator, with the cap as it was
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    x = 10**4400 + 7
    negation = ColumnRelations((0,), ((1, -1),), 1)
    level = FMatrix.from_basis([x, 1], 1, negation)
    assert cli._Block([level]).cells == [[(format_ratio(x, 1), format_ratio(-x, 1)), ("1", "-1")]]
    m = FMatrix.from_poly_basis([[[0, x]]], 3, negation)
    assert cli._numerator_json(m) == [[["0", format_ratio(x, 3)], ["0", format_ratio(-x, 3)]]]
    assert cli._numerator_json(m) == [[cli._poly_json(p) for p in row] for row in m.entries]
    if cap is not None:
        assert sys.get_int_max_str_digits() == cap
    if cap and cap < 4400:
        with pytest.raises(ValueError):
            str(x)


def test_library_round_trips_long_entries_in_a_fresh_process():
    # a fresh process has CPython's default int <-> str digit cap whatever
    # this one has done, so it shows whether the library reads, writes and
    # prints long entries under that cap
    script = (
        "from fractions import Fraction\n"
        "from kzrat import Poly, RatFunc\n"
        "from kzrat.cli import _entry_json, parse_entry\n"
        "graded = _entry_json(RatFunc(Fraction(-(10**5000 // 9), 7), -2))\n"
        "for entry in ('1' * 5000, '-' + '7' * 9001 + '/' + '3' * 4301, graded):\n"
        "    assert _entry_json(parse_entry(entry)) == entry, entry\n"
        "big = '1' + '0' * 5000\n"
        "assert Poly([10**5000]).to_str() == big\n"
        "assert RatFunc(Fraction(10**5000), 1).to_str() == big + '*d'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_golden_series_takes_one_gcd_from_indicial_data(tmp_path, monkeypatch):
    # Graded values need no gcd: the only one left is the integer gcd of
    # the characteristic polynomial and its derivative in rational_roots,
    # run by the builder of the center's record for indicial_data.
    # poly_gcd would be counted too, as it calls int_gcd.
    callers = Counter()
    original = poly_module.int_gcd

    def counting(*args):
        frame = sys._getframe(1)
        callers[tuple(f.f_code.co_name for f in (frame, frame.f_back, frame.f_back.f_back))] += 1
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "kzrat" and getattr(module, "int_gcd", None) is original:
            monkeypatch.setattr(module, "int_gcd", counting)
    path = write_config(tmp_path, dict(S3_SYMBOLIC, order=20))
    with redirect_stdout(io.StringIO()):
        assert main(["series", "--config", path, "--golden"]) == 0
    assert callers == {("rational_roots", "spectral_record", "indicial_data"): 1}


@pytest.mark.parametrize(
    "config, points",
    [("kz-s3-numeric.json", 2), ("s5-permutation.json", 4)],
    ids=("kz-s3-numeric.json", "s5-permutation.json"),
)
def test_verify_run_factors_each_characteristic_polynomial_once(monkeypatch, config, points):
    # one spectral record per point, the center's made once, and one at
    # infinity: one Faddeev-LeVerrier each, and the roots of each distinct
    # characteristic polynomial found once, wherever the builder lives
    factored, expanded = [], Counter()
    roots, leverrier = poly_module.rational_roots, matrix_module.faddeev_leverrier
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "kzrat":
            continue
        if getattr(module, "rational_roots", None) is roots:
            monkeypatch.setattr(
                module, "rational_roots", lambda p: factored.append(p.coeffs) or roots(p)
            )
        if getattr(module, "faddeev_leverrier", None) is leverrier:
            monkeypatch.setattr(
                module,
                "faddeev_leverrier",
                lambda a, n: expanded.update([tuple(a)]) or leverrier(a, n),
            )
    with redirect_stdout(io.StringIO()):
        assert main(["verify", "--config", str(REPO / "configs" / config)]) == 0
    assert factored and len(factored) == len(set(factored))
    assert sum(expanded.values()) == points + 1
    assert set(expanded.values()) == {1}


def test_cli_overrides(tmp_path, capsys):
    path = write_config(tmp_path, S3_SYMBOLIC)
    rc = main(["series", "--config", path, "--order", "5", "--convention", "derived-taylor"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "b[3]" in out
    assert "(derived-taylor)" in out


@pytest.mark.parametrize(
    "field, bad, flag, value",
    [
        ("order", -1, "--order", "3"),
        ("order", True, "--order", "3"),
        ("center", 9, "--center", "2"),
        ("convention", "taylor", "--convention", "literal-paper"),
    ],
)
def test_flag_replaces_an_invalid_config_value_unread(tmp_path, capsys, field, bad, flag, value):
    # The flags replace config keys before validation: the file's value is
    # never read, so only the run without the flag is a config error.
    path = write_config(tmp_path, dict(S3_SYMBOLIC, **{field: bad}))
    assert main(["series", "--config", path]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")
    report = tmp_path / "report.json"
    assert main(["series", "--config", path, flag, value, "--json", str(report)]) == 0
    echoed = json.loads(report.read_text())["config"][field]
    assert str(echoed) == value


def test_overrides_give_the_config_of_the_merged_document(tmp_path):
    overrides = {"order": 7, "center": 2, "convention": "derived-taylor"}
    path = write_config(tmp_path, S3_NUMERIC)
    assert cli.load_config(path, overrides) == parse_config(json.dumps(dict(S3_NUMERIC, **overrides)))
    assert cli.load_config(path, {}) == parse_config(json.dumps(S3_NUMERIC))


def test_missing_config_file(tmp_path, capsys):
    rc = main(["series", "--config", str(tmp_path / "absent.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "cannot read config" in err


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_unwritable_report_path_exits_two(tmp_path, capsys, target):
    path = write_config(tmp_path, SINGLE_POLE)
    report = tmp_path / "absent" / "report.json" if target == "missing-directory" else tmp_path
    rc = main(["series", "--config", path, "--json", str(report)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: cannot write report: ")
    assert err.count("\n") == 1


def test_malformed_config_reports_field(tmp_path, capsys):
    path = write_config(tmp_path, dict(S3_NUMERIC, order=-1))
    rc = main(["series", "--config", path])
    err = capsys.readouterr().err
    assert rc == 2
    assert "order" in err


# "{}" in UTF-16 after its byte-order mark: bytes that do not decode as UTF-8
NOT_UTF8 = b"\xff\xfe{\x00}\x00"


# Property: for any JSON document in the config file, main exits 0-3 and
# never raises.  Orders stay in 0..8 to keep each run short; couplings and
# exponents range up to 2^61 - 1.
_junk = (
    st.none()
    | st.booleans()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4)
    | st.lists(st.integers(-2, 2), max_size=2)
    | st.dictionaries(st.text(max_size=3), st.integers(-2, 2), max_size=2)
)
_rational_text = st.fractions(max_denominator=5).map(
    lambda f: str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
)
_scalar_text = (
    _rational_text
    | st.sampled_from(["symbolic", "10007", "2305843009213693951", "-3", "0", "1/0", "0.5", "2e3", "x"])
    | st.text(max_size=4)
)
_matrices = st.lists(
    st.lists(st.integers(-2, 2) | _scalar_text | _junk, min_size=1, max_size=3),
    min_size=1,
    max_size=3,
)
_config_docs = st.fixed_dictionaries(
    {},
    optional={
        "mode": st.sampled_from(["numeric", "symbolic"]) | _junk,
        "points": st.lists(_scalar_text, max_size=4) | _junk,
        "residues": st.just("kz-s3") | st.lists(_matrices, max_size=4) | _junk,
        "coupling": _scalar_text | _junk,
        "convention": st.sampled_from(["derived-taylor", "literal-paper"]) | _junk,
        "order": st.integers(0, 8) | _junk,
        "center": st.integers(-1, 5) | _junk,
        "numerator_degree": st.integers(-1, 2**61) | _junk,
        "denominator_exponents": st.lists(st.integers(-1, 2**61), max_size=4) | _junk,
        "extra": _junk,
    },
)


@st.composite
def _valid_configs(draw):
    """A config that parses, with one field replaced by junk a quarter of
    the time."""
    mode = draw(st.sampled_from(["numeric", "symbolic"]))
    if mode == "symbolic":
        points = ["symbolic", "symbolic"]
    else:
        points = draw(st.lists(_rational_text, min_size=1, max_size=3, unique=True))
    n = draw(st.integers(1, 3))
    entries = st.integers(-2, 2) | _rational_text
    matrix = st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    size = len(points)
    residues = st.lists(matrix, min_size=size, max_size=size)
    conventions = ["derived-taylor", "literal-paper"][: 2 if mode == "symbolic" else 1]
    doc = {
        "mode": mode,
        "points": points,
        "residues": draw(st.just("kz-s3") | residues if size == 2 else residues),
        "coupling": draw(
            st.integers(-4, 4).map(str)
            | _rational_text
            | st.sampled_from(["10007", "-10007", "2305843009213693951"])
        ),
        "convention": draw(st.sampled_from(conventions)),
        "order": draw(st.integers(0, 8)),
        "center": draw(st.integers(1, size)),
    }
    if draw(st.booleans()):
        doc["numerator_degree"] = draw(st.integers(0, 12) | st.just(2**61))
    if draw(st.booleans()):
        exponent = st.integers(0, 4) | st.just(2**61 - 1)
        doc["denominator_exponents"] = draw(st.lists(exponent, min_size=size, max_size=size))
    if draw(st.integers(0, 3)) == 0:
        doc[draw(st.sampled_from(sorted(doc)))] = draw(_junk | _scalar_text)
    return doc


_json_documents = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


# valid configs are listed twice so that about half the runs reach the solver
@given(
    doc=st.one_of(_valid_configs(), _valid_configs(), _config_docs, _json_documents),
    argv=st.sampled_from([["expand"], ["series"], ["series", "--golden"], ["verify"]]),
)
@example(
    doc={"mode": "numeric", "points": ["0", "1"], "coupling": "10007", "order": 40},
    argv=["verify"],
)
@example(doc=NOT_UTF8, argv=["series"])
@example(doc=b"[" * 100_000, argv=["series"])
@settings(max_examples=200, deadline=None)
def test_main_exits_zero_to_three_on_any_json(doc, argv):
    """`doc` is a JSON document, or raw bytes written as the config file."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        if isinstance(doc, bytes):
            cfg.write_bytes(doc)
        else:
            cfg.write_text(json.dumps(doc), encoding="utf-8")
        report = str(Path(tmp) / "report.json")
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            rc = main([*argv, "--config", str(cfg), "--json", report])
    assert rc in (0, 1, 2, 3)


REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "code, argv, doc",
    [
        (0, ["series"], SINGLE_POLE),
        (1, ["verify"], dict(S3_NUMERIC, coupling="1/2")),
        (2, ["series"], NOT_UTF8),
        (3, ["series"], OBSTRUCTED),
    ],
    ids=("ok", "mismatch", "usage", "obstruction"),
)
def test_python_m_kzrat_exit_status(tmp_path, code, argv, doc):
    """`python -m kzrat` exits with main's code and never with a traceback."""
    cfg = tmp_path / "cfg.json"
    if isinstance(doc, bytes):
        cfg.write_bytes(doc)
    else:
        cfg.write_text(json.dumps(doc), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "kzrat", *argv, "--config", str(cfg)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    if code == 2:
        assert proc.stderr.startswith("config error: cannot read config: ")


@pytest.mark.parametrize("command", ["expand", "verify"])
def test_golden_needs_the_series_command(tmp_path, capsys, command):
    # the argument parser refuses it before the config (here a missing file) is read
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(tmp_path / "absent.json"), "--golden"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("kzrat: error: --golden needs the series command\n")


def test_options_may_come_before_the_command(tmp_path, capsys):
    report = tmp_path / "report.json"
    config = REPO / "configs" / "kz-s3-numeric.json"
    rc = main(["--config", str(config), "--json", str(report), "verify"])
    out, err = capsys.readouterr()
    digests = [hashlib.sha256(b).hexdigest() for b in (report.read_bytes(), out.encode(), err.encode())]
    assert (rc, *digests) == PINNED["verify-kz-s3-numeric"]


def test_help_lists_the_commands_and_golden(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for line in (
        "expand  print the local expansion coefficients",
        "series  solve the recursion and print the Laurent coefficients",
        "verify  series -> rational reconstruction -> exact ODE check",
        "--golden",
    ):
        assert line in out


def test_main_back_to_back_in_one_process_reads_as_separate_runs(tmp_path, monkeypatch):
    # the parser is built once per process: a series, a usage error from
    # the parser, a verify, --help and the series again give the exit
    # codes, stdout, stderr and report bytes of runs in fresh processes
    monkeypatch.setenv("COLUMNS", "80")  # the help's width, in both
    symbolic = write_config(tmp_path, S3_SYMBOLIC, name="symbolic.json")
    numeric = str(REPO / "configs" / "kz-s3-numeric.json")
    runs = [
        ["series", "--config", symbolic, "--golden", "--json"],
        ["verify", "--config", numeric, "--golden"],
        ["verify", "--config", numeric, "--json"],
        ["--help"],
        ["series", "--config", symbolic, "--golden", "--json"],
    ]

    def outcome(argv, report, in_process):
        if argv[-1] == "--json":
            argv = [*argv, str(report)]
        if in_process:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            out, err = out.getvalue(), err.getvalue()
        else:
            env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
            proc = subprocess.run(
                [sys.executable, "-m", "kzrat", *argv],
                capture_output=True, text=True, env=env, timeout=120,
            )
            code, out, err = proc.returncode, proc.stdout, proc.stderr
        return code, out, err, report.read_bytes() if report.exists() else None

    together = [outcome(argv, tmp_path / f"together-{k}.json", True) for k, argv in enumerate(runs)]
    apart = [outcome(argv, tmp_path / f"apart-{k}.json", False) for k, argv in enumerate(runs)]
    assert [o[0] for o in together] == [0, 2, 0, 0, 0]
    assert together == apart


def _run_with_stdout(tmp_path, argv, stdout, env=None, **kwargs):
    env = dict(env or os.environ, PYTHONPATH=str(REPO / "src"))
    config = REPO / "configs" / "kz-s3-numeric.json"
    return subprocess.run(
        [sys.executable, "-m", "kzrat", *argv, "--config", str(config),
         "--json", str(tmp_path / "report.json")],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=120, **kwargs,
    )


@pytest.mark.parametrize("argv", [["verify"], ["series", "--order", "300"]], ids=" ".join)
@pytest.mark.parametrize("unbuffered", [True, False], ids=("unbuffered", "buffered"))
def test_closed_stdout_exits_two_with_one_line(tmp_path, argv, unbuffered):
    """A reader that closes stdout (`kzrat ... | head`) ends the run with
    exit 2, one stderr line and no report, whatever the buffering."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_with_stdout(tmp_path, argv, write_end, env)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, "error: standard output closed\n")
    assert not (tmp_path / "report.json").exists()


def test_help_into_closed_stdout_exits_two_with_one_line():
    """argparse writes --help into the stdout buffer and exits; the flush
    into a closed pipe is handled like a run's, not at interpreter exit."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(REPO / "src")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "kzrat", "--help"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, "error: standard output closed\n")


def test_unbuffered_help_into_closed_stdout_exits_two_with_one_line():
    """Unbuffered, argparse's own write of --help would ignore the closed
    pipe and exit 0; the help text goes through a write that raises."""
    env = dict(os.environ, PYTHONUNBUFFERED="1", PYTHONPATH=str(REPO / "src"))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "kzrat", "--help"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, "error: standard output closed\n")


def test_no_stdout_at_all_still_writes_the_report(tmp_path):
    # fd 1 closed from the start: Python sets sys.stdout to None, and print
    # then writes nothing
    proc = _run_with_stdout(tmp_path, ["verify"], None, preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (0, "")
    digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
    assert digest == PINNED["verify-kz-s3-numeric"][1]


# ---------------------------------------------------------------------------
# symbolic levels read from their integers: the golden check, the report
# cells and the printed lines


def _golden_case(convention, engine):
    """The kz-s3 symbolic series at order 4 from `engine`: compute_series,
    whose levels are lazy graded views, or the reference engine, whose
    levels are graded entry by entry."""
    exp = local_expansion(build_kz_s3(SYMBOLIC, SYMBOLIC), 1, convention, 4)
    return exp, engine(exp, Fraction(2), 4)


def _regraded(m, change):
    """m with its pivot integers and power changed by change(rows, power),
    made the way m was: a lazy graded view, or a matrix of RatFunc entries."""
    rows, den, relations, power = int_form(m)
    rows, power = change([list(row) for row in rows], power)
    basis = FMatrix.from_basis([x for row in rows for x in row], den, relations)
    if type(m) is _GradedMatrix:
        return graded(basis, power)
    return FMatrix([[RatFunc(e, power) for e in row] for row in basis.entries])


def _bump_first(rows, power):
    rows[0][0] += 1
    return rows, power


def _bump_power(rows, power):
    return rows, power + 1


def _bump_second_row(rows, power):
    rows[1][0] -= 2
    return rows, power


@pytest.mark.parametrize("engine", (compute_series, fraction_compute_series), ids=("lazy", "eager"))
@pytest.mark.parametrize("convention", CONVENTIONS)
@pytest.mark.parametrize(
    "level, change",
    [(0, _bump_first), (-1, _bump_power), (1, _bump_second_row)],
    ids=("pivot-integer", "power", "level-1"),
)
def test_the_golden_check_fails_on_a_tampered_level(engine, convention, level, change):
    # every tampered level is one of -2 .. 1, which the level-2 right side
    # reads as well: that level and the right side mismatch, no other line
    exp, series = _golden_case(convention, engine)
    assert compare_series(series, exp).matched
    coeffs = list(series.coeffs)
    coeffs[level - series.leading_exponent] = _regraded(series.coefficient(level), change)
    outcome = compare_series(series._replace(coeffs=tuple(coeffs)), exp)
    label = " (dual)" if convention == DERIVED_TAYLOR else ""
    expected = [f"b[{p}]{label}: {'MISMATCH' if p == level else 'match'}" for p in (-2, -1, 0, 1)]
    assert outcome == (False, (*expected, "level-2 rhs: MISMATCH", "golden: MISMATCH"))


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_an_eager_series_gives_the_golden_outcome_of_the_lazy_one(convention):
    exp, lazy = _golden_case(convention, compute_series)
    _, eager = _golden_case(convention, fraction_compute_series)
    assert all(type(m) is _GradedMatrix for m in lazy.coeffs)
    assert all(type(m) is FMatrix for m in eager.coeffs)
    assert compare_series(eager, exp) == compare_series(lazy, exp)
    assert compare_series(lazy, exp).matched


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_a_golden_run_builds_no_graded_entry(monkeypatch, tmp_path, convention):
    # the report cells, the printed lines and the golden check all read the
    # levels' pivot integers; the spy is on the graded view's entry build,
    # which the resonant step matrix, a graded view too, goes through
    built = []
    original = _GradedMatrix._built

    def spy(self):
        built.append(self)
        return original(self)

    series = []
    compute = cli.compute_series

    def computed(*args):
        series.append(compute(*args))
        return series[-1]

    monkeypatch.setattr(_GradedMatrix, "_built", spy)
    monkeypatch.setattr(cli, "compute_series", computed)
    path = write_config(tmp_path, dict(S3_SYMBOLIC, convention=convention))
    report = tmp_path / "report.json"
    out = io.StringIO()
    with redirect_stdout(out):
        argv = ["series", "--config", path, "--golden", "--order", "20", "--json", str(report)]
        assert main(argv) == 0
    assert "golden: match" in out.getvalue()
    assert len(json.loads(report.read_text())["series"]["coefficients"]) == 21
    # only the step matrix of the one resonant level is built, no level
    (solved,) = series
    assert len(solved.coeffs) == 21 and len(solved.resonances) == 1
    assert len(built) == 1 and not any(m is built[0] for m in solved.coeffs)
    # the spy sees a graded view's entries being built
    level = graded(FMatrix.from_basis([1], 1, ColumnRelations.trivial(1)), -1)
    level.entries
    assert built[-1] is level


def _eager_printed_lines(m: FMatrix) -> list[str]:
    """The printed lines of a matrix of graded monomials, read from its
    RatFunc entries: 1/L * d^k * [integers] for one power k != 0, with L
    the lcm of the entries' denominators, and each entry's text otherwise."""
    powers = {e.power for row in m.entries for e in row if e}
    if len(powers) != 1 or 0 in powers:
        return cli._cell_lines([[e.to_str("d") for e in row] for row in m.entries])
    (power,) = powers
    den = lcm(*(e.coeff.denominator for row in m.entries for e in row))
    head = f"d^{power}" if den == 1 else f"1/{den} * d^{power}"
    body = [[format_scalar(e.coeff * den) for e in row] for row in m.entries]
    return [f"  {head} *"] + cli._cell_lines(body, indent="    ")


def _assert_reads_as_eager(m: FMatrix, exp, power: int) -> None:
    """m, a lazy graded view, against its Fractions graded entry by entry:
    the report cells and printed lines before any entry is built, then
    the entries."""
    rows, den, relations, _ = int_form(m)
    fractions = FMatrix.from_basis([x for row in rows for x in row], den, relations)
    eager = graded_entries(exp, fractions, power)
    block = cli._Block([m])
    decoded = json.loads(block.text("\n"))
    assert decoded == [[cli._entry_json(e) for e in row] for row in eager.entries]
    assert block.printout(["b"]).splitlines() == ["b ="] + _eager_printed_lines(eager)
    assert not entries_built(m)
    assert m.entries == eager.entries



@given(case=kz_systems(symbolic=True))
@settings(max_examples=60, deadline=None)
def test_lazy_graded_levels_read_as_their_eager_grading(case):
    # seed ranks 1 .. n: copied, negated, zero and combined columns occur
    system, center, convention, order = case
    exp = local_expansion(system, center, convention, order)
    resonant = indicial_data(exp, system.coupling).resonant_levels
    assume(resonant)
    rho = min(resonant)
    try:
        series = compute_series(exp, system.coupling, order)
    except ResonanceObstruction as exc:
        _assert_reads_as_eager(exc.rhs, exp, rho - exc.level)
        return
    for p, m in zip(series.levels(), series.coeffs):
        _assert_reads_as_eager(m, exp, rho - p)


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_the_obstruction_rhs_reads_as_its_eager_grading(convention):
    system = kz_system((SYMBOLIC, SYMBOLIC), (P1, OBSTRUCTED_RESIDUE2), Fraction(2))
    exp = local_expansion(system, 1, convention, 8)
    with pytest.raises(ResonanceObstruction) as exc:
        compute_series(exp, system.coupling, 8)
    # a view of the seed's one pivot column, not of every column cleared
    assert int_form(exc.value.rhs)[2] == ColumnRelations((0,), ((1, -1, 0),), 1)
    _assert_reads_as_eager(exc.value.rhs, exp, -2 - exc.value.level)
