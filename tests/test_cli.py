import json
from fractions import Fraction
from pathlib import Path

import pytest

from kzrat import RatFunc
from kzrat.cli import (
    ConfigError,
    main,
    parse_config,
    parse_entry,
    report_to_json,
)

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


def test_parse_config_rejects_decimals():
    doc = dict(S3_NUMERIC, coupling="0.5")
    with pytest.raises(ConfigError, match="1/2"):
        parse_config(json.dumps(doc))


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


def test_series_golden_flags_derived_without_dual(tmp_path, capsys):
    path = write_config(tmp_path, dict(S3_SYMBOLIC, convention="derived-taylor"))
    rc = main(["series", "--config", path, "--golden"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "golden-dual" in out


def test_series_golden_dual_matches(tmp_path, capsys):
    path = write_config(tmp_path, dict(S3_SYMBOLIC, convention="derived-taylor"))
    rc = main(["series", "--config", path, "--golden-dual"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "golden: match up to d->-d duality" in out


def test_series_golden_needs_order_three(tmp_path, capsys):
    path = write_config(tmp_path, dict(S3_SYMBOLIC, order=2))
    rc = main(["series", "--config", path, "--golden"])
    assert rc == 2


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


def test_cli_overrides(tmp_path, capsys):
    path = write_config(tmp_path, S3_SYMBOLIC)
    rc = main(["series", "--config", path, "--order", "5", "--convention", "derived-taylor"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "b[3]" in out
    assert "(derived-taylor)" in out


def test_missing_config_file(tmp_path, capsys):
    rc = main(["series", "--config", str(tmp_path / "absent.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "cannot read config" in err


def test_malformed_config_reports_field(tmp_path, capsys):
    path = write_config(tmp_path, dict(S3_NUMERIC, order=-1))
    rc = main(["series", "--config", path])
    err = capsys.readouterr().err
    assert rc == 2
    assert "order" in err
