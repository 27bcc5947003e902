"""The result records are immutable NamedTuples, importing the package
loads neither `dataclasses` nor what it imports, and every name it
exports resolves."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import kzrat
from kzrat import (
    FMatrix,
    Poly,
    compute_series,
    indicial_data,
    kz_system,
    local_expansion,
    rational_matrix,
    solve_linear,
    verify_ode,
    verify_recursion,
)
from kzrat.cli import parse_config
from kzrat.golden import compare_series

REPO = Path(__file__).resolve().parent.parent

RECORDS = (
    "SystemConfig",
    "KZSystem",
    "LocalExpansion",
    "IndicialData",
    "SeriesSolution",
    "ResonanceRecord",
    "LevelCheck",
    "RecursionReport",
    "GoldenOutcome",
    "SolveResult",
    "RationalMatrixFunction",
    "OdeVerdict",
)


@pytest.fixture(scope="module")
def records():
    """One instance of each record, most of them from a kz-s3 numeric run."""
    cfg = parse_config((REPO / "configs" / "kz-s3-numeric.json").read_text())
    system = cfg.build_system()
    exp = local_expansion(system, cfg.center, cfg.convention, cfg.order)
    ind = indicial_data(exp, cfg.coupling)
    series = compute_series(exp, cfg.coupling, cfg.order, min(ind.resonant_levels))
    report = verify_recursion(series, exp, cfg.coupling)
    w = rational_matrix(FMatrix([[Poly.one()]]), Poly.one())
    found = [
        cfg,
        system,
        exp,
        ind,
        series,
        series.resonances[0],
        report.checks[0],
        report,
        compare_series(series, exp),
        solve_linear(FMatrix.identity(2), FMatrix.identity(2)),
        w,
        verify_ode(w, kz_system([0], [FMatrix([[1]])])),
    ]
    return {type(r).__name__: r for r in found}


@pytest.mark.parametrize("name", RECORDS)
def test_record_fields_are_read_only(records, name):
    record = records[name]
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


def test_import_loads_neither_dataclasses_nor_inspect():
    # pytest itself imports dataclasses, so only a fresh process shows what
    # the import costs; -S keeps the host's site hooks out of sys.modules
    script = (
        "import kzrat.cli, sys\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_every_exported_name_resolves():
    # a star import reads each name of kzrat.__all__, and fails on one that
    # a deletion left behind
    namespace = {}
    exec("from kzrat import *", namespace)
    assert set(kzrat.__all__) <= set(namespace)
