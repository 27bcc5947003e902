"""Exit codes, `--json` reports and printed text pinned against a reference build.

Reports are byte-deterministic, so the sha256 of a report changes with any
value, any entry type (a Fraction and a constant RatFunc encode
differently) and any formatting detail.  A missing report pins as None.
Stdout and stderr are pinned the same way, so every exit path of the CLI
keeps its code, its report and its text.
"""

import hashlib
import json
import sys
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

# Seeds whose column relations are more than one column times an integer:
# kz-s3 conjugated by diag(1, 2, 1), relations (2, -1, 0) / 2, and a rank-2
# projector seed, column 3 = -column 1 - column 2 (det of W is 0).
S3_SCALED = {
    "mode": "numeric",
    "points": ["0", "1"],
    "residues": [[["0", "1/2", "0"], ["2", "0", "0"], ["0", "0", "1"]], T13],
    "coupling": "2",
    "order": 14,
}
RANK_TWO_SEED = {
    "mode": "numeric",
    "points": ["0", "1"],
    "residues": [[["-1/3", "2/3", "2/3"], ["2/3", "-1/3", "2/3"], ["2/3", "2/3", "-1/3"]], T12],
    "coupling": "2",
    "order": 13,
}

SYMBOLIC_OBSTRUCTED = dict(
    S3_SYMBOLIC,
    residues=[[[str(e) for e in row] for row in m.entries] for m in (P1, OBSTRUCTED_RESIDUE2)],
    order=8,
)

S3_NUMERIC = json.loads((CONFIGS / "kz-s3-numeric.json").read_text())
NUMERIC_OBSTRUCTED = dict(
    SYMBOLIC_OBSTRUCTED, mode="numeric", points=["0", "1"], convention="derived-taylor"
)
QUARTER = [["1/4", 0, 0], [0, "1/4", 0], [0, 0, "1/4"]]

# One case per exit path that the configs above do not reach.
EXIT_PATHS = {
    "series-no-integer-eigenvalue": (["series"], dict(S3_NUMERIC, coupling="1/2")),
    "verify-no-integer-eigenvalue": (["verify"], dict(S3_NUMERIC, coupling="1/2")),
    "series-obstructed-numeric": (["series"], NUMERIC_OBSTRUCTED),
    "verify-obstructed-numeric": (["verify"], NUMERIC_OBSTRUCTED),
    "verify-no-polynomial-denominator": (["verify"], dict(S3_NUMERIC, residues=[T12, QUARTER])),
    "verify-not-representable": (["verify"], dict(S3_NUMERIC, numerator_degree=2)),
    "verify-insufficient-series": (["verify"], dict(S3_NUMERIC, order=5)),
    "verify-configured-denominator": (
        ["verify"],
        dict(S3_NUMERIC, denominator_exponents=[2, 2], numerator_degree=8),
    ),
    "golden-order-2": (["series", "--golden"], dict(S3_SYMBOLIC, order=2)),
    "golden-numeric": (["series", "--golden"], S3_NUMERIC),
    "golden-center-2": (["series", "--golden"], dict(S3_SYMBOLIC, center=2)),
    "overrides-expand": (["expand", "--order", "2", "--center", "2"], S3_SYMBOLIC),
    "overrides-series": (
        ["series", "--order", "5", "--center", "2", "--convention", "derived-taylor"],
        S3_SYMBOLIC,
    ),
    "overrides-verify": (["verify", "--order", "20", "--center", "2"], S3_NUMERIC),
    "config-error-parse": (["series"], dict(S3_NUMERIC, order=-1)),
    "config-error-build": (["series"], dict(S3_NUMERIC, points=["0", "1", "2"])),
    # S3_NUMERIC in other spellings: the report echoes each value canonically
    "verify-noncanonical-points": (["verify"], dict(S3_NUMERIC, points=["-0", "2/2"], coupling="4/2")),
}

# Integers past CPython's 4,300-digit int <-> str cap, as JSON integer
# literals (raw config text) or point strings: each message and report
# that carries one.
BIG = "1" + "0" * 5000


def _long(doc: dict) -> str:
    """doc as JSON text, with each "BIG" or "-BIG" string a 5,001-digit literal."""
    return json.dumps(doc).replace('"-BIG"', "-" + BIG).replace('"BIG"', BIG)


ONE_POINT = {"mode": "numeric", "points": ["0"], "coupling": "1", "order": 5}
LONG_INTEGERS = {
    "verify-long-residue-literal": (
        ["verify"],
        _long(dict(ONE_POINT, residues=[[["BIG"]]], coupling="1/3")),
    ),
    "verify-long-point": (
        ["verify"],
        dict(ONE_POINT, points=["0", BIG], residues=[[[-3]], [["1/2"]]]),
    ),
    "verify-long-numerator-degree": (["verify"], _long(dict(S3_NUMERIC, numerator_degree="BIG"))),
    "verify-long-level": (
        ["verify"],
        _long(dict(ONE_POINT, residues=[[["BIG"]]], numerator_degree=2)),
    ),
    "series-long-leading-exponent": (["series"], _long(dict(ONE_POINT, residues=[[["-BIG"]]]))),
}


def _cases():
    yield "golden", ["series", "--golden"], S3_SYMBOLIC
    yield "golden-dual", ["series", "--golden"], dict(
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
    for command in ("series", "verify"):
        yield f"{command}-kz-s3-scaled", [command], S3_SCALED
        yield f"{command}-rank-two-seed", [command], RANK_TWO_SEED
    # a numeric series printout whose entries run to about 520 bits
    yield "series-kz-s3-coupling-10007", ["series"], dict(S3_NUMERIC, coupling="10007", order=40)
    for path in sorted(CONFIGS.glob("*.json")):
        for command in ("expand", "series", "verify"):
            yield f"{command}-{path.stem}", [command], json.loads(path.read_text())
    for name, (argv, cfg) in {**EXIT_PATHS, **LONG_INTEGERS}.items():
        yield name, argv, cfg


CASES = {name: (argv, cfg) for name, argv, cfg in _cases()}

PINNED = {
    # name: (exit code, report sha256 or None, stdout sha256, stderr sha256)
    "config-error-build": (
        2,
        None,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "995760ca77ee3c4666e363719f775b1b8667baa638b52764163ed9faa751665e",
    ),
    "config-error-parse": (
        2,
        None,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "03a2d3eeb2f67cd7d751c15c92b16e32048f79a22cb64211e620cce9f5448f7b",
    ),
    "expand-derived-taylor-1": (
        0,
        "1c619c5f8cc7f48bd9a4ceb9c586ba53b4fa47ac0f692b75bd72c5737a36a08a",
        "390eb20fe586df90cfb758065cb9008a71696b8715e7efef77a6c53dd8067441",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "expand-derived-taylor-2": (
        0,
        "8df0f648a8bf17ca1275c7f260c829c38f9b7e26f7329d8667a603f7babe0d96",
        "f9ac734cdacde03f117916601958b9e5bb214925c0cc15343678b47ae3f7d45b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "expand-kz-s3-numeric": (
        0,
        "99a59c709d79eb888e68565b0466bc71d3ae97586ec1f58aed47389acb7a2228",
        "29171ced90556a60eb17ef0619993e5cda2224def417bb19d2ead26cd48d1bec",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "expand-kz-s3-symbolic-literal": (
        0,
        "c682e32c02d66455cb0970a493bd549b5040f23c680fb812818c3f141ed34457",
        "76fcad07d8b69577b87097bf0e278a01dfbfa42a8940b6cb1d0efba6a379b984",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "expand-literal-paper-1": (
        0,
        "d5da2e6b59a572f39edb4e967a021349d3a3befe067e3258ac230cc9aa8f4a60",
        "2bc8875f29a662dd4519187939d316f4f8b8fbf3cba32f27874374336de0035a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "expand-literal-paper-2": (
        0,
        "2151b2122d328cb2db87db2553be66d9068b979d3ce3f12e52e928d7c727d7e7",
        "32177c149a77c9b2c6430ecfacfd5984ecfde9f547ecf9e1339ced3d6e7d35e6",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "expand-s5-permutation": (
        0,
        "f7e1b47892cb07bd690ec9b9ccf8d0bbf77cbe4a94cc4c4952c82df2c15bc123",
        "f2140e8e6fd16d868c08850a2a89da742e4e4e5a30e8426f59659521e64a26d5",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "expand-single-pole": (
        0,
        "af1a36b80b061815ec1ecc75858cb615903391640a2f71d08ffdbbf2d08b65de",
        "db9559f917176a2a54b583eabcba968deff6aa4b43fd252f45c57ab4ff5c0e22",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "golden": (
        0,
        "c5e334d83a71f83c5c5aec53dc74b6665888b37a83bafa4281d0ac3c1f64cb29",
        "712e223901a4e72e3ab75bfbb322e33416faab6a09872c6d747a7cda97c60c66",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "golden-center-2": (
        2,
        None,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "f3f1ce44ff775029eb064a219418f976aea804cc0ebcb37b5a3251e9302cd6b7",
    ),
    "golden-dual": (
        0,
        "8952fb9241e333258678cd794ab09f498ca3d26e76a2e214e1ed8cad26b098a1",
        "662c284ab342f91c9347fceadbabf31af8b35713c25b0771419ac276f39f914e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "golden-numeric": (
        2,
        None,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "7dec23c34538b766941db6a49937ad2ead381a1957a591afe726f9a2021edea7",
    ),
    "golden-order-2": (
        2,
        None,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "5a07558d95b5b770f60bebc2461a4109d3efca626944e5844fdcb30536ea3977",
    ),
    "obstructed-derived-taylor-1": (
        3,
        "cf790f3d618a8e5df91d1ce714e3285c14bbcdabb2932c718cc1de0a59cf23b6",
        "0c3d7ab1ff134f2dfc0a96c59d661b44263ba010852d34979267d7a970b9de14",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "obstructed-derived-taylor-2": (
        0,
        "4aa2d08717c9188cf489852a6f427fd7f146da310e20b00106460a9eb8ca652f",
        "8f685f53f9273b304de3ac67b0b602191e2613f50239924ca4031c5a26a002ea",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "obstructed-literal-paper-1": (
        3,
        "221013654ecf495bb911ceccefb1242e4fbc27515b3222d7189734f437df1c49",
        "0c3d7ab1ff134f2dfc0a96c59d661b44263ba010852d34979267d7a970b9de14",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "obstructed-literal-paper-2": (
        0,
        "68c4b2f7819349624ea64acdaa8a5b755dfa7c35905d506465682fa71beb7d2f",
        "75dbbec038dabfb69d3515101de40004a2eef1c103819696a3efa93ecc8d4947",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "overrides-expand": (
        0,
        "64fb735481fb3e99e73e6353e685cbb5c4fae1c7adb323122e715550b91a7521",
        "7f533ac6a7805ef38a1073f991db8cccf05176e60fa19ca23c0516b1ff00802d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "overrides-series": (
        0,
        "f7cbb8cb8c86a409e99a53ee396f5cd699bb780f52da7fad59a46ab3070f3c76",
        "2fee93b869a1e1359e78534faa8e8f45f7a15865239d20b4b498441be630f907",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "overrides-verify": (
        0,
        "4554918fc9a0289d00f0f62c6cb8790444945c9a12ae806beb0e41c29156e9eb",
        "8d0c490de9b1acd7db107f5885095231a06e15c607166983d6238916869801a9",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "series-derived-taylor-1": (
        0,
        "97a2d668badc6f0d9ad90a596331e1859ff058d598eba76837a4cc994d8c5269",
        "12f642d9ac2d06d1ec257ac43f80056c0fe29c563e3d2631ffc8daf2f7f0ac3c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "series-derived-taylor-2": (
        0,
        "0768b17acf1ab1e94c5144f7cec48db58399cc9831d87549c8d7c8ba07a0f790",
        "04b1202c14448da98a9221c4a528df018edb4d59e2680a72124cc2f9beb7cfb5",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "series-kz-s3-coupling-10007": (
        0,
        "e442544af7050ebcb52b93b532e3133b0127a8bae2cb88ce48c7a88299428cc7",
        "2f37b7a3d26e2e1bf0f8ae199d842fc9b1a9632c39f9494035fb18b38de13b41",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "series-kz-s3-numeric": (
        0,
        "0418af3d6b48ff2efc1e7e8e2a647596982438ecdb6ad5d20382fd6a55ab7bb9",
        "bac20fdf564b8e727935dd7e0c1f59a0240bd331e574c4bdc1432e265ba92033",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "series-kz-s3-scaled": (
        0,
        "8c911acb5df6f5cc5dbf368b29db51d5f26b1e5edc51e1d8cc6f00ea03ded515",
        "a4f931bcef6da0ab58bea478e17f73da13869026f985058b90016cc1eab80e17",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "series-kz-s3-symbolic-literal": (
        0,
        "009f355851f37852adb9c87ecbeaf620a151b6c280a3216006b65da7cfa3b2b5",
        "4aee0bcd38e0888776e6cb807177f7817b99c95aed26082b98771a645a3cd7c0",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "series-literal-paper-1": (
        0,
        "136a2444b30885b1ee08e617fa235040357344c447aec6125e343e39f3f802c0",
        "f1f9c792c6a949795945d9f01eb3a463f7bb903dc7e813f199c52bfd2b03496a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "series-literal-paper-2": (
        0,
        "abf1718c84df5b4f8d96bd0bb8b62fb22891e015737b1a2a6d194b765bf78dd1",
        "81dd90f1dcb873761797b90dd7597e8d1a7d446841b500087e0a8083b29a3831",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "series-long-leading-exponent": (
        0,
        "6226280856518bcc0c83467db34fd132a5245f67e32f72ecc065832d7d35b4d1",
        "07badd1d4d52e1911a4f175a57ce350a50458d0d03fff1777498c13489eb74ce",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "series-no-integer-eigenvalue": (
        1,
        "9d556637fcdd4f74ea62a613b1ffba43b42ab582ff7eacd67b84bceae979b82f",
        "6edced2d779358af2e9edfa3c820865b4885f76dd1f536f06a64d360371a193c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "series-obstructed-numeric": (
        3,
        "22cba568ae57bd4c22b5cf5d1316aac49ffe6157d236d06533242bffe82f2224",
        "636ee4b4dedf7c19009e046e3a22696080d9e34a81c3123d250da857604e4e4f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "series-rank-two-seed": (
        0,
        "99515f8ee61fc30e4ce0099bb1321b8b81976a173d7492775a3ceb8a678b8f8e",
        "920a803bcbf3bd087167868b789e20012565cef04a967894b3fbbd7f47dc6c7b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "series-s5-permutation": (
        0,
        "f1c3e513b44883513e7113644da709faf81f1397fe2c63ff51c388de65e27bef",
        "a7d9ad50f85848b66782bef5a341a38c02c25edfda6b8864ad905992e51d5d7a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "series-single-pole": (
        0,
        "53ec442104992805576b0d47fd32b96794a6161c4ea50eaccf5c78993e5bacb3",
        "f22c33c995d7681a70d1345e4666513cfcb7ff071118ddb40af8d31697df0c46",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "verify-configured-denominator": (
        0,
        "36c33e690f135e456371adecdbed921acea86d94e3273a0de2b24683fae66c44",
        "fce3715bee667d028130798e8ffe1c266687a9fa69e1bb3aa1eae30e64628162",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "verify-insufficient-series": (
        2,
        "bbd720b8912645882e58ddde68a7eaad7430a9ac633722bffeb03a791c316c72",
        "f21e169c4696407066a118b65d37fbd50bb3cdca81204678f326a153286626b9",
        "bacb5b3a754630b8bb210dda440c8dff3db2238950456b65d9bf7728cd37781a",
    ),
    "verify-kz-s3-far": (
        0,
        "84a2a13ffd9421f343a81a077fca2fc9563e6cfa5f71f8cc434c3406593ad269",
        "17f1738fc2029d7116d90421f2ac15b9fa63ad7ffcd2ee2ddc446e29ad9669d9",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "verify-kz-s3-numeric": (
        0,
        "2555277b9473cfff2e555875142c37d27067e21ef691382c82ec8340823003d9",
        "fce3715bee667d028130798e8ffe1c266687a9fa69e1bb3aa1eae30e64628162",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "verify-kz-s3-scaled": (
        0,
        "b9a30fe92bc5054d895f4c22085ec43a688a51ea7511c3991a923df728b0f7b6",
        "cf860bc66c9a0227fd2268ec940c2336033721814ff6aa67b0c8daee8f634d11",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "verify-kz-s3-symbolic-literal": (
        2,
        None,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "600c86c0d0cf7282e969931b5d5885fa47c6542c2c54222f060c9257fb8e4af3",
    ),
    "verify-long-level": (
        1,
        "d747f0379ab3d73c24c884ad8c4a746640f1f949171cea2d5424253320385052",
        "b23acba916dfc98fa119480330598a35aa900ba4e783c53218cea4ce39ad465f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "verify-long-numerator-degree": (
        2,
        "e11efbc251be2f8c493d2a726dcf0220bc99b45649201de7210536857e21a75d",
        "f21e169c4696407066a118b65d37fbd50bb3cdca81204678f326a153286626b9",
        "3c96edc8065220f2dc91d5b6fd0222c60934be467b0e6b7d091056f3ada535b5",
    ),
    "verify-long-point": (
        1,
        "a3b051613197db8caa38f6ace5e6ec062ece607cdc3fb08f5c24d4142ffce6bc",
        "4cf72c106c50e95e5ab9bed236542634af2a40c2a1485caa745dd34e73c4cfff",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "verify-long-residue-literal": (
        1,
        "3b6bcce06d24e3dc87144e5ecf79361efca08d3c8c1a0cc2f65e570a715b7dd5",
        "1100edeca4659a9d0d9df37f81ad042cddf67846fff2090d39d4b3e5882507d9",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "verify-no-integer-eigenvalue": (
        1,
        "9d556637fcdd4f74ea62a613b1ffba43b42ab582ff7eacd67b84bceae979b82f",
        "6edced2d779358af2e9edfa3c820865b4885f76dd1f536f06a64d360371a193c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "verify-no-polynomial-denominator": (
        1,
        "722bf05a65fc9c23f3c5b6d2a3864bf711521108c395c2f4923368283a2da8fa",
        "652cbaceafaec502d6ef5fd51db340dea842012ec1ee5c08e9091f9f126e6e8c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "verify-not-representable": (
        1,
        "3a36f93680f96162e88dfed23d18c8c93e95aeeeef4c58ad1be86e01215a4fdd",
        "0c71800c90bd5b4284ff021294f5fbca113518163e4efcc0ae6d32d8f76e6afa",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "verify-obstructed-numeric": (
        3,
        "22cba568ae57bd4c22b5cf5d1316aac49ffe6157d236d06533242bffe82f2224",
        "636ee4b4dedf7c19009e046e3a22696080d9e34a81c3123d250da857604e4e4f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "verify-rank-two-seed": (
        0,
        "9b27be9f99d1c2c7ef45d922b98166e8b9ff6d8f38e153e3145f2ee3914a102b",
        "3090a425db71b08a0327925f6a13392cb8e4797231e35c1adbf7a18f578341ec",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "verify-s5-permutation": (
        0,
        "f1dbc5cba702126b53272bbdc4ce29f479c85d2a4807d5cbb0af670d05aaca16",
        "9fef88d1a3b1ce77010490db09d784f35bef97bf4ea203a8a43b53e62ec6a242",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "verify-single-pole": (
        0,
        "5a2e9b39d9938f736b4ae26275ff0eb53018cbd39f9d9f53c1e6527f136c5c16",
        "e4f28b42f49df2706474d45e4ab9c573c5c718e0500a12c4321e073c4b2e71b1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "verify-three-point-far-1": (
        0,
        "2542cbd14f50ad9fa990213199b90b264cc5f30d5f3e6ff6609a1af2445e0542",
        "1cbfeeedad4551764e529b9319ce40448090ab3de0720a065dc54dc9a7ee1942",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "verify-three-point-far-2": (
        0,
        "d8ce06a881b7ee2a77b1ef044662fb88d688ce5b0919dd29564283ab1c48dcea",
        "2afc5a54f9ddae007edb7480ca60ad28077554dd801bf7952563aa3db9e73d2c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "verify-three-point-far-3": (
        0,
        "31ed0345e007066aa9c5cd470ca5bca8490cd707cd44e3584193c5b1d7dc58ef",
        "3512f1513321ea718c50ddd9d0fe541ff9a3cbfb9a7f729a48369d70380a325d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
}
# the same system as configs/kz-s3-numeric.json, so the same bytes
PINNED["verify-noncanonical-points"] = PINNED["verify-kz-s3-numeric"]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(tmp_path: Path, capsys, argv: list[str], cfg: dict | str) -> tuple:
    """(exit code, report digest or None, stdout digest, stderr digest);
    `cfg` is a config document or its JSON text."""
    config = tmp_path / "config.json"
    config.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg), encoding="utf-8")
    report = tmp_path / "report.json"
    capsys.readouterr()
    rc = main(argv + ["--config", str(config), "--json", str(report)])
    out, err = capsys.readouterr()
    digest = _sha256(report.read_bytes()) if report.exists() else None
    return rc, digest, _sha256(out.encode()), _sha256(err.encode())


def test_every_case_is_pinned():
    assert set(PINNED) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_pinned_digest(tmp_path, capsys, name):
    argv, cfg = CASES[name]
    assert run_case(tmp_path, capsys, argv, cfg) == PINNED[name]


@pytest.mark.parametrize("name", sorted(n for n, (argv, _) in CASES.items() if argv[0] == "verify"))
def test_verify_holds_its_pins_without_series_division(tmp_path, capsys, monkeypatch, name):
    # reconstruct over-checks each numerator on the product D W it already
    # forms; expanding N/D back into a series is never needed.
    def refuse(*args):
        raise AssertionError("reconstruct expanded N/D as a series")

    monkeypatch.setattr(sys.modules["kzrat.reconstruct"], "_series_of_ratio", refuse)
    argv, cfg = CASES[name]
    assert run_case(tmp_path, capsys, argv, cfg) == PINNED[name]
