"""Pinned SHA-256 digests of every `audit` output, and of `dist` and
`verify` output.

The `audit` digests were taken before the verdict and heatmap loops moved
to integer arithmetic, and the `dist` and `verify` ones before the
enumeration and row writing were rewritten; a change that is meant to
leave the output alone must keep every one of them. A change that alters
the output on purpose updates the table and says so.

`audit` inputs: each CSV fixture, with and without ``--flip``, and one synthetic
table whose pairs sit exactly on the OFI threshold (±3/10) and on both
DI band edges (4/5 and 5/4), whose cells round to ±0.00 or tie at the
half, and whose groups include two with a zero positive-prediction rate
(undefined and contextual DI cells). A wide table of 44 groups, whose
1892 pairs span more than one of the report's pair batches, has names
that each format must escape: JSON (quote, backslash, non-ASCII, a quoted
U+2028), CSV (comma, quote) and XML (ampersand, angle bracket).
"""

import csv
import hashlib
import io

import pytest

from ofi_audit.cli import main
from ofi_audit.metrics import BinaryConfusion

FIXTURE_ARGS = {
    "recidivism_style": ["--group-col", "race", "--label-col", "two_year_recid"],
    "scenario_a": [],
    "scenario_alpha": [],
    "scenario_b": [],
}

# name -> (tp, fn, fp, tn); against "ten_0" (a = fp - fn = 0, rate 1/2):
# "ten_3" has OFI 3/10 and DI 4/5, "two_hundred_1" OFI 1/200 (0.00),
# "two_hundred_-3" OFI -3/200 (-0.02), "eight_1" OFI 1/8 (0.12, a tie),
# "eight_3" OFI 3/8 (0.38, a tie); "zero_a" and "zero_b" predict no one
SYNTHETIC = {
    "ten_0": BinaryConfusion(5, 0, 0, 5),
    "ten_3": BinaryConfusion(1, 0, 3, 6),
    "two_hundred_1": BinaryConfusion(0, 0, 1, 199),
    "two_hundred_-3": BinaryConfusion(2, 3, 0, 195),
    "eight_1": BinaryConfusion(0, 0, 1, 7),
    "eight_3": BinaryConfusion(0, 0, 3, 5),
    "zero_a": BinaryConfusion(0, 2, 0, 3),
    "zero_b": BinaryConfusion(0, 1, 0, 7),
}

# names that JSON, CSV or XML must escape, then plain fillers; every
# seventh group predicts no one, so DI cells are undefined and contextual
ESCAPED_NAMES = [
    "Ålborg, north", 'say "hi"', "back\\slash", "A&B", "<tag>",
    "Zürich", "line\u2028sep", "Łódź", "日本",
]
WIDE = {
    name: BinaryConfusion(
        0 if i % 7 == 3 else i % 11, (5 * i) % 7,
        0 if i % 7 == 3 else (3 * i) % 9, 1 + (13 * i) % 17,
    )
    for i, name in enumerate(ESCAPED_NAMES + [f"g{i:02d}" for i in range(35)])
}

OUTPUTS = ("report.json", "ofi.svg", "di.svg", "grid.ofi.csv", "grid.di.csv")

DIGESTS = {
    "recidivism_style": {
        "report.json": "98920ed6a2186ddf98ab686421a0b81c2f36e81a651062c5ba3060e59e1af84c",
        "ofi.svg": "4517196af75cc30db9f8dd643534297b956500697153c5cea806c4e5ee0546f6",
        "di.svg": "3a726842dddcedf9cea1cf46426d179d18c18c7f477533efcf949cb90f254a3b",
        "grid.ofi.csv": "21931e87694d11afbf1098c0d70889a12ea9013c76e4ddc8f57383ac1ec6a07f",
        "grid.di.csv": "7d5876a300216e366f9c6882de7f2ce4ce1d97dc730a4c79efe5c9bbd553e085",
    },
    "recidivism_style+flip": {
        "report.json": "f9efe317c24d6ff2f1b47604df418c49b7ae775fa97c1817983d316531caf732",
        "ofi.svg": "6e20c1d52e431dc4d6e560de09a88bd4764468e939581bb5f2b9fe32cb8ed36d",
        "di.svg": "7e8cc602fd0a76fbc00604ac0eab01dcb6d72e635ca925654892394c7833d139",
        "grid.ofi.csv": "4ee94cd251b54c452606dc0c670832a8751b621a32cab5e0ad87c64cb82e11f8",
        "grid.di.csv": "3764a0813a904598a96cf9b7e21a32ed191ea7943e58311a939a416f129369b9",
    },
    "scenario_a": {
        "report.json": "291422768b8daafc49f584e62ed947e8e1853c57f68262b6d922e4b2642e3dda",
        "ofi.svg": "223d8b4dcfb4b8a0174f0ac7bb4ed8637b13d95209c17735fbbcf3be4b8b94da",
        "di.svg": "e3498f4d544da553399f0d68f627fbc19f5f64fb049eb4aaf425c2e1c759de6f",
        "grid.ofi.csv": "ab4588afb32f08aafe0cc5d8293086087b8038f7402775958eb00db8c414dd09",
        "grid.di.csv": "a388507538788ae223052e2486488f0c16042e32488a9e8efd516803e85958b3",
    },
    "scenario_a+flip": {
        "report.json": "88e856b51eb9eed9c77ae043beed7eaeed1e49bbe8c04083e846a998b4b547b0",
        "ofi.svg": "8bac86ed8951ef08fc496a90d97bcdb71b83b9b3d8168ed13acf20bd338878c5",
        "di.svg": "b9dea58172891c02b6d62a38d07589007e4d38189845863496c98454252f9fc1",
        "grid.ofi.csv": "88c30b18530eba02ef58a90073890143c6ab7de259a579e25db7894a2bf69b39",
        "grid.di.csv": "760a1b8c542e0cbee0cec15806daf6ba17f56314a6e1d2cff2d243eefa1c1a80",
    },
    "scenario_alpha": {
        "report.json": "f304fe3ca50edf77a3f5e18248081e3c9d4d71c2e2673c8bc5686016ae935db6",
        "ofi.svg": "0ca4eeab5d0dca84e27f3b8b76d74db93cba5b99d1a59a2a4db46b8c332dc404",
        "di.svg": "d08d8e81663a347fb330b41b42a0a3b5bbc2645a543e8f9ba2c5e50f7381bc14",
        "grid.ofi.csv": "c966d032b75f84bcd712af4e1da30fc20dca40755638935940e022e8f341e462",
        "grid.di.csv": "815a22a9295777a86dc2340cf114739aace2f7bc0f06dc6db1a8cd526fcbdc93",
    },
    "scenario_alpha+flip": {
        "report.json": "e00c901d059dd475abb4370684defb3dbc6833387ae9d280b620aa7370146080",
        "ofi.svg": "6e96547159bad78940f7b2931c8763df305fd05b1ef6795a1b595f730dec2bad",
        "di.svg": "9dfe4efad0b26ee1cfbb314a336454224700a6353563d562b71b09a9e40c887c",
        "grid.ofi.csv": "22994899999d1d99d3144482a0a7dc03ff1c02d36c5cb1d873d6ebf16d2981bb",
        "grid.di.csv": "5771dd16005e9d651d89057dc714900ef4afa2646cd03d52e7165401d27e94d8",
    },
    "scenario_b": {
        "report.json": "426294efad5092dad78f6a21c77df0da5c4a4749a317a4259da0f9f7466197e4",
        "ofi.svg": "cba792bf5a68a34657014383758f0040e5a7d377d7e6b0e81bd47ff8dd9c5e3f",
        "di.svg": "692738dbf120ccb92603dea2c9e3d30cbcecf11ee90cb48efbbb236b07db2937",
        "grid.ofi.csv": "81326f1099b0b8ff0859559d802c1c69535209c3f55be0f665b97deba2b0860b",
        "grid.di.csv": "9392410c1b58badd4222df661549a517f005593b9fc5d8274b71fff4bae169f0",
    },
    "scenario_b+flip": {
        "report.json": "6c8fa5e28c21f55f61c23578cca94de9adbf48a8eb8440c92dd1ca710bd64acc",
        "ofi.svg": "cbdee6cc458caf40f282b8da00124e9a2bcb9db5d2d3fced1ef101f7cb686192",
        "di.svg": "692738dbf120ccb92603dea2c9e3d30cbcecf11ee90cb48efbbb236b07db2937",
        "grid.ofi.csv": "1b178c958f32cf4e573b03d7220a6d47b3295d49ee655a0579bc5cbf1ddef45c",
        "grid.di.csv": "e4967ce5806a554476bf69b385ef598b4bb7c5a44d57c15c71fa903e48f5221a",
    },
    "synthetic": {
        "report.json": "e350e2274122fb47a399ba3ee03288554e2c0e3da86572674f73b22c2efee68d",
        "ofi.svg": "cac385b1d21f1a826729f09e05f847d915cfb26ae48cbc67818164b626f2a23e",
        "di.svg": "ec6c89be77c02b9faa3732119285fefa7294d3ca9b88adf67a8e227c624dd53a",
        "grid.ofi.csv": "a0510ad4ac6152d32b85744c1d5c20dfca070c3670402eb821a6d630afc372ee",
        "grid.di.csv": "dc5568b2d7c69acb8a1a361b6e0db07967604d28fabc94c8ae3336f32a091145",
    },
    "synthetic+flip": {
        "report.json": "f93a78d1f49252ccf0acbc5d6a6d4e18064eafcca3fe0277fc541d9f2d1952d6",
        "ofi.svg": "4c24156726d0a6e950141c1ad4eecf94888c9f55c70a3eda3b907a9b026a999a",
        "di.svg": "bd582420dc57cd272f883304ca1e37fa91c5bfc30b30a8294c89464cf35a11f9",
        "grid.ofi.csv": "63effee6e3bf294732c502fa2519ef2fd4dc4e7c4f56058dee82b134e9c25e4a",
        "grid.di.csv": "431d91802229327b6f0bc74c55c32e4d0e3d501d71d4b4418c8c187153ca0f32",
    },
    "wide": {
        "report.json": "fb74641848c48c7091c719ad078f44d3b3d04109fd0ef8a2769d75aff027dbb8",
        "ofi.svg": "bf517fe58b724dfb94688e1db819c1c2e9a66f72043a47c32925f89409c3ff26",
        "di.svg": "62a2d7bcd33f130bbd38b7e68760d973df2edea3a6c98012dfb6b82ed1889a82",
        "grid.ofi.csv": "3beda5adaf0ea41e792e29dcb4dba8405424d7838ea69f9787e18512be36ae46",
        "grid.di.csv": "91c9e699ad3d795a0c937eac652dfa5fca80e159b1fba6a1d1929f0fc73ddf55",
    },
    "wide+flip": {
        "report.json": "bdbff1c4d48c483e93a0d4dbc38af5f7ecd12ac6602aee2e5114e7ae966b76a7",
        "ofi.svg": "ca9a158851582e6305b04e7a159aca47ee87ad6b31cbc020fc6b3f58aed06ef2",
        "di.svg": "023bc4229de13d30df92afa4ece6d5c48e9ce6bea7a9974f67945deda270ffac",
        "grid.ofi.csv": "5824a5d5244b893c5f3637f4a100b15bce6e1b95631109b5ed35b9592a430547",
        "grid.di.csv": "ad187588e1efdb805c2b740a8307a0be219f79ecd0c46aef0e24ef533a0d784c",
    },
}


def synthetic_csv(groups: dict[str, BinaryConfusion]) -> str:
    # every text field is quoted, so names may hold a comma, a quote or a
    # line separator
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_NONNUMERIC)
    writer.writerow(["group", "label", "prediction"])
    for name, cm in groups.items():
        for (label, pred), count in zip(((1, 1), (1, 0), (0, 1), (0, 0)),
                                        (cm.tp, cm.fn, cm.fp, cm.tn)):
            writer.writerows([(name, label, pred)] * count)
    return out.getvalue()


def audit_digests(capsys, tmp_path, argv: list[str]) -> dict[str, str]:
    code = main([
        "audit", *argv,
        "--out-report", str(tmp_path / "report.json"),
        "--out-heatmap-ofi", str(tmp_path / "ofi.svg"),
        "--out-heatmap-di", str(tmp_path / "di.svg"),
        "--out-grid-csv", str(tmp_path / "grid"),
    ])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, "", "")
    return {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in OUTPUTS
    }


CASES = [
    (f"{name}{'+flip' if flip else ''}", name, flip)
    for name in (*FIXTURE_ARGS, "synthetic", "wide")
    for flip in (False, True)
]


@pytest.mark.parametrize("case, source, flip", CASES, ids=[c[0] for c in CASES])
def test_audit_outputs_match_pinned_digests(capsys, tmp_path, fixtures_dir, case, source, flip):
    if source in ("synthetic", "wide"):
        path = tmp_path / f"{source}.csv"
        path.write_text(synthetic_csv(SYNTHETIC if source == "synthetic" else WIDE),
                        encoding="utf-8")
        argv = ["--input", str(path)]
    else:
        argv = ["--input", str(fixtures_dir / f"{source}.csv"), *FIXTURE_ARGS[source]]
    if flip:
        argv.append("--flip")
    assert audit_digests(capsys, tmp_path, argv) == DIGESTS[case]


# n -> (stdout, stderr); 2047 and 2048 give 4095 and 4097 rows, one
# either side of the 4096-row chunk that `dist` writes its rows in
DIST_DIGESTS = {
    1: ("ec854d7a0f786935c557d86008c94f9c4f3c0226a555578fbf2871e5fb2075a3",
        "b6914a84d44a470208ed026e6924faf8ef313f75ca084f7b75ce10a17290f499"),
    7: ("dc83c0958578f3add8d241086ddd54cbd03cbf6a13199fc47f2e58f5550f506e",
        "8e28dba7c9b00b0479d93bb50d937ef0dd5aadb90f85cd43f439f909e26b16af"),
    1000: ("636b106c8a3a1a690e5ba76c3337bee561543dc4b3523d031b27c6123a54b9e1",
           "0b74bdeeaee9056b8492a0703610f863315e857d13f08e86366d0c1dc7da1014"),
    2047: ("2f4d3a09460985c4c6402fe9527384ae414587e1b92da48c88fec139b32d534f",
           "72194bf6bdb4a1382182ffea3c18c97503b0a463888a0b0a945fd9c20d2a42e4"),
    2048: ("42f65d6008e8630a3b24c9e29aa3e16d180fbaa96fc309e34521f6969b464e10",
           "8d19025abd0e401953f31b9effde451046729e3466d175a2308ea091eddea271"),
    100000: ("5ea8d91f0e965bf2d8c785bd31e439e11edd0fdf9ef59891f40e835be20a50fd",
             "2cabe69659a944980943e9f62f07100fab6a3ded2c1be69ab9a7a3b4a7cf2904"),
}

VERIFY_60_DIGEST = "05d82d6cd6be5960d5f934073518425ccea091a3dc38360ef6476701ced8b1b8"


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("n", sorted(DIST_DIGESTS))
def test_dist_output_matches_pinned_digests(capsys, n):
    code = main(["dist", "--n", str(n)])
    captured = capsys.readouterr()
    assert code == 0
    assert (sha256_text(captured.out), sha256_text(captured.err)) == DIST_DIGESTS[n]


def test_verify_output_matches_pinned_digest(capsys):
    code = main(["verify", "--n-max", "60"])
    captured = capsys.readouterr()
    assert (code, sha256_text(captured.out), captured.err) == (0, VERIFY_60_DIGEST, "")
