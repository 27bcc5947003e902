"""The benchmark's four workloads and the configs generated from a seed.

Each workload is one kzrat config plus one CLI command.  The seed draws an
integer shift that is added to every numeric point: translation leaves the
local expansion, and so the recursion cost and the series, unchanged, but
changes the reconstructed numerators and the ODE identity that `verify`
checks.  The symbolic workload has no numeric points and ignores the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

DEFAULT_SEED = 0

T12 = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
T13 = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
T23 = [[1, 0, 0], [0, 0, 1], [0, 1, 0]]


def report_check(command: tuple[str, ...]) -> str | None:
    """Which verdict in the report gates a solve: golden, ode or none."""
    if "--golden" in command:
        return "golden"
    if command[0] == "verify":
        return "ode"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]
    config: dict
    small_order: int


# Why each workload was chosen is recorded in BENCHMARK.json.  small_order
# is the order the self-test uses: small, but enough to run the whole
# command (three-point-verify is already at its minimum, 55).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="symbolic-golden",
            command=("series", "--golden"),
            config={
                "mode": "symbolic",
                "points": ["symbolic", "symbolic"],
                "residues": "kz-s3",
                "coupling": "2",
                "convention": "literal-paper",
                "order": 20,
                "center": 1,
            },
            small_order=6,
        ),
        Workload(
            name="numeric-long",
            command=("verify",),
            config={
                "mode": "numeric",
                "points": ["0", "1"],
                "residues": "kz-s3",
                "coupling": "2",
                "convention": "derived-taylor",
                "order": 120,
                "center": 1,
            },
            small_order=20,
        ),
        Workload(
            name="three-point-verify",
            command=("verify",),
            config={
                "mode": "numeric",
                "points": ["0", "2/3", "-5/7"],
                "residues": [T12, T13, T23],
                "coupling": "6",
                "convention": "derived-taylor",
                "order": 55,
                "center": 1,
            },
            small_order=55,
        ),
        Workload(
            name="large-coupling-series",
            command=("series",),
            config={
                "mode": "numeric",
                "points": ["0", "1"],
                "residues": "kz-s3",
                "coupling": "10007",
                "convention": "derived-taylor",
                "order": 40,
                "center": 1,
            },
            small_order=10,
        ),
    )
}


def point_shift(seed: int) -> int:
    """Integer shift for the numeric points, 1000..1999 in size.

    Zero is never drawn: a point at 0 makes reconstruction cheaper than at
    any other shift, which would show up as spread between seeds.
    """
    rng = random.Random(seed)
    return rng.choice((-1, 1)) * rng.randint(1000, 1999)


def make_config(w: Workload, seed: int, order: int | None = None) -> dict:
    cfg = json.loads(json.dumps(w.config))
    if w.config["mode"] == "numeric":
        shift = point_shift(seed)
        cfg["points"] = [str(Fraction(p) + shift) for p in cfg["points"]]
    if order is not None:
        cfg["order"] = order
    return cfg


def write_config(cfg: dict, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
    return path
