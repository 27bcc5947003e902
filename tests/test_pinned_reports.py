"""Exit codes and `--json` report digests pinned against a reference build.

Reports are byte-deterministic, so the sha256 of a report changes with any
value, any entry type (a Fraction and a constant RatFunc encode
differently) and any formatting detail.  A missing report pins as None.
"""

import hashlib
import json
from pathlib import Path

import pytest

from kzrat.cli import main
from support import OBSTRUCTED_RESIDUE2, P1

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

S3_SYMBOLIC = {
    "mode": "symbolic",
    "points": ["symbolic", "symbolic"],
    "residues": "kz-s3",
    "coupling": "2",
    "convention": "literal-paper",
    "order": 20,
    "center": 1,
}

# Verify at large bit heights: the three-point transposition system shifted
# by 1234 (centers 2 and 3 are fractional, so the Taylor shifts are too)
# and kz-s3 far from the origin.
T12 = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
T13 = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
T23 = [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
THREE_POINT_FAR = {
    "mode": "numeric",
    "points": ["1234", "3704/3", "8633/7"],
    "residues": [T12, T13, T23],
    "coupling": "6",
    "convention": "derived-taylor",
    "order": 55,
    "center": 1,
}
S3_FAR = {
    "mode": "numeric",
    "points": ["1000", "1001"],
    "residues": "kz-s3",
    "coupling": "2",
    "convention": "derived-taylor",
    "order": 40,
    "center": 2,
}

SYMBOLIC_OBSTRUCTED = dict(
    S3_SYMBOLIC,
    residues=[[[str(e) for e in row] for row in m.entries] for m in (P1, OBSTRUCTED_RESIDUE2)],
    order=8,
)


def _cases():
    yield "golden", ["series", "--golden"], S3_SYMBOLIC
    yield "golden-dual", ["series", "--golden-dual"], dict(
        S3_SYMBOLIC, convention="derived-taylor"
    )
    for convention in ("literal-paper", "derived-taylor"):
        for center in (1, 2):
            cfg = dict(S3_SYMBOLIC, convention=convention, center=center)
            for command in ("expand", "series"):
                yield f"{command}-{convention}-{center}", [command], cfg
            yield f"obstructed-{convention}-{center}", ["series"], dict(
                SYMBOLIC_OBSTRUCTED, convention=convention, center=center
            )
    for center in (1, 2, 3):
        yield f"verify-three-point-far-{center}", ["verify"], dict(
            THREE_POINT_FAR, center=center
        )
    yield "verify-kz-s3-far", ["verify"], S3_FAR
    for path in sorted(CONFIGS.glob("*.json")):
        for command in ("expand", "series", "verify"):
            yield f"{command}-{path.stem}", [command], json.loads(path.read_text())


CASES = {name: (argv, cfg) for name, argv, cfg in _cases()}

PINNED = {
    # name: (exit code, sha256 of the --json report or None)
    "expand-derived-taylor-1": (0, "1c619c5f8cc7f48bd9a4ceb9c586ba53b4fa47ac0f692b75bd72c5737a36a08a"),
    "expand-derived-taylor-2": (0, "8df0f648a8bf17ca1275c7f260c829c38f9b7e26f7329d8667a603f7babe0d96"),
    "expand-kz-s3-numeric": (0, "99a59c709d79eb888e68565b0466bc71d3ae97586ec1f58aed47389acb7a2228"),
    "expand-kz-s3-symbolic-literal": (0, "c682e32c02d66455cb0970a493bd549b5040f23c680fb812818c3f141ed34457"),
    "expand-literal-paper-1": (0, "d5da2e6b59a572f39edb4e967a021349d3a3befe067e3258ac230cc9aa8f4a60"),
    "expand-literal-paper-2": (0, "2151b2122d328cb2db87db2553be66d9068b979d3ce3f12e52e928d7c727d7e7"),
    "expand-single-pole": (0, "af1a36b80b061815ec1ecc75858cb615903391640a2f71d08ffdbbf2d08b65de"),
    "golden": (0, "c5e334d83a71f83c5c5aec53dc74b6665888b37a83bafa4281d0ac3c1f64cb29"),
    "golden-dual": (0, "8952fb9241e333258678cd794ab09f498ca3d26e76a2e214e1ed8cad26b098a1"),
    "obstructed-derived-taylor-1": (3, "cf790f3d618a8e5df91d1ce714e3285c14bbcdabb2932c718cc1de0a59cf23b6"),
    "obstructed-derived-taylor-2": (0, "4aa2d08717c9188cf489852a6f427fd7f146da310e20b00106460a9eb8ca652f"),
    "obstructed-literal-paper-1": (3, "221013654ecf495bb911ceccefb1242e4fbc27515b3222d7189734f437df1c49"),
    "obstructed-literal-paper-2": (0, "68c4b2f7819349624ea64acdaa8a5b755dfa7c35905d506465682fa71beb7d2f"),
    "series-derived-taylor-1": (0, "97a2d668badc6f0d9ad90a596331e1859ff058d598eba76837a4cc994d8c5269"),
    "series-derived-taylor-2": (0, "0768b17acf1ab1e94c5144f7cec48db58399cc9831d87549c8d7c8ba07a0f790"),
    "series-kz-s3-numeric": (0, "0418af3d6b48ff2efc1e7e8e2a647596982438ecdb6ad5d20382fd6a55ab7bb9"),
    "series-kz-s3-symbolic-literal": (0, "009f355851f37852adb9c87ecbeaf620a151b6c280a3216006b65da7cfa3b2b5"),
    "series-literal-paper-1": (0, "136a2444b30885b1ee08e617fa235040357344c447aec6125e343e39f3f802c0"),
    "series-literal-paper-2": (0, "abf1718c84df5b4f8d96bd0bb8b62fb22891e015737b1a2a6d194b765bf78dd1"),
    "series-single-pole": (0, "53ec442104992805576b0d47fd32b96794a6161c4ea50eaccf5c78993e5bacb3"),
    "verify-kz-s3-far": (0, "84a2a13ffd9421f343a81a077fca2fc9563e6cfa5f71f8cc434c3406593ad269"),
    "verify-kz-s3-numeric": (0, "2555277b9473cfff2e555875142c37d27067e21ef691382c82ec8340823003d9"),
    "verify-kz-s3-symbolic-literal": (2, None),
    "verify-single-pole": (0, "5a2e9b39d9938f736b4ae26275ff0eb53018cbd39f9d9f53c1e6527f136c5c16"),
    "verify-three-point-far-1": (0, "2542cbd14f50ad9fa990213199b90b264cc5f30d5f3e6ff6609a1af2445e0542"),
    "verify-three-point-far-2": (0, "d8ce06a881b7ee2a77b1ef044662fb88d688ce5b0919dd29564283ab1c48dcea"),
    "verify-three-point-far-3": (0, "31ed0345e007066aa9c5cd470ca5bca8490cd707cd44e3584193c5b1d7dc58ef"),
}


def run_case(tmp_path: Path, argv: list[str], cfg: dict) -> tuple[int, str | None]:
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    report = tmp_path / "report.json"
    rc = main(argv + ["--config", str(config), "--json", str(report)])
    if not report.exists():
        return rc, None
    return rc, hashlib.sha256(report.read_bytes()).hexdigest()


def test_every_case_is_pinned():
    assert set(PINNED) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_pinned_digest(tmp_path, name):
    argv, cfg = CASES[name]
    assert run_case(tmp_path, argv, cfg) == PINNED[name]
