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
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kzrat import (
    LITERAL_PAPER,
    SYMBOLIC,
    RatFunc,
    build_kz_s3,
    compute_series,
    format_scalar,
    local_expansion,
    parse_scalar,
)
from kzrat import cli
from kzrat import frobenius as frobenius_module
from kzrat import poly as poly_module
from kzrat.cli import (
    ConfigError,
    main,
    parse_config,
    parse_entry,
    report_to_json,
)
from kzrat.golden import compare_series
from test_pinned_reports import PINNED

reconstruct_module = sys.modules["kzrat.reconstruct"]  # kzrat.reconstruct is the function

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


def test_golden_series_calls_poly_gcd_once_from_indicial_data(tmp_path, monkeypatch):
    # Graded values need no gcd: the only one left is the square-free part
    # of the characteristic polynomial in rational_roots.
    callers = Counter()
    original = poly_module.poly_gcd

    def counting(*args):
        callers[sys._getframe(1).f_code.co_name, sys._getframe(2).f_code.co_name] += 1
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "kzrat" and getattr(module, "poly_gcd", None) is original:
            monkeypatch.setattr(module, "poly_gcd", counting)
    path = write_config(tmp_path, dict(S3_SYMBOLIC, order=20))
    with redirect_stdout(io.StringIO()):
        assert main(["series", "--config", path, "--golden"]) == 0
    assert sum(callers.values()) <= 1
    assert set(callers) <= {("rational_roots", "indicial_data")}


@pytest.mark.parametrize("config", ["kz-s3-numeric.json", "s5-permutation.json"])
def test_verify_run_factors_each_characteristic_polynomial_once(tmp_path, monkeypatch, config):
    # indicial_data and denominator_exponents share the center's spectrum;
    # numerator_growth factors that of the residue sum
    factored = []
    for module in (frobenius_module, reconstruct_module):
        original = module.rational_roots
        monkeypatch.setattr(
            module, "rational_roots", lambda p, f=original: factored.append(p.coeffs) or f(p)
        )
    with redirect_stdout(io.StringIO()):
        assert main(["verify", "--config", str(REPO / "configs" / config)]) == 0
    assert len(factored) == len(set(factored))


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
