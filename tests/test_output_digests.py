"""Pinned SHA-256 digests of every `audit` output, and of `dist` and
`verify` output.

The `audit` digests were taken before the verdict and heatmap loops moved
to integer arithmetic, and the `dist` and `verify` ones before the
enumeration and row writing were rewritten; a change that is meant to
leave the output alone must keep every one of them. A change that alters
the output on purpose updates the table and says so. The `report.json`
digests have been re-pinned since, twice. Report schema 2 writes each
rational as the exact text of its grid CSV cell, drops the float `approx`
copy, writes each pair as a list and adds a `schema` field. Schema 3 adds
`dataset.confusion`, every group's counts, and changes nothing else but
the schema number. The values each carries are the same. The SVG digests
have been re-pinned once: the fonts, text anchors and cell stroke that
every element repeated moved into one `<style>` sheet keyed on the
element classes. Each element, with that sheet applied, has the same
attributes and text as before (`test_heatmap.py` checks the 2×2 grids).
Every grid CSV digest stayed as it was. A second test checks, case by
case, that each report grid cell is the text of the matching grid CSV
cell.

`audit` inputs: each CSV fixture, with and without ``--flip``, and one synthetic
table whose pairs sit exactly on the OFI threshold (±3/10) and on both
DI band edges (4/5 and 5/4), whose cells round to ±0.00 or tie at the
half, and whose groups include two with a zero positive-prediction rate
(undefined and contextual DI cells). A wide table of 44 groups, whose
1892 pairs span more than one of the report's pair batches, has names
that each format must escape: JSON (quote, backslash, non-ASCII, a quoted
U+2028), CSV (comma, quote) and XML (ampersand, angle bracket). A huge
table, too large for a CSV, is rendered through the library: its group
sizes near 10^12 take a cell's denominator past 2^53 and 2^63, which pins
the float palette position and the rounding where no other case reaches.
"""

import csv
import hashlib
import io
import json

import pytest

from ofi_audit.audit import build_report, grid_csv_chunks, serialize_report
from ofi_audit.cli import main
from ofi_audit.heatmap import heatmap_chunks
from ofi_audit.ingestion import GroupTable
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

# sizes near 10^12 (8·10^12 and 10^13 for "eighth" and "edge"); against
# "base": "eighth" has OFI 1/8 (0.12, a tie), "edge" OFI 3/10, "four_fifths"
# DI 4/5, "near_zero" an OFI that rounds to 0.00; "none_a" and "none_b"
# predict no one
HUGE = {
    "base": BinaryConfusion(234_566_791_225, 98_765_432_101, 222_222_221_118, 444_445_555_595),
    "eighth": BinaryConfusion(1_901_225_676_737, 765_432_109_871, 2_753_086_422_046,
                              2_580_255_791_658),
    "edge": BinaryConfusion(2_098_754_343_137, 1_234_567_890_123, 5_469_135_780_410,
                            1_197_541_986_720),
    "four_fifths": BinaryConfusion(333_328_893_307, 876_543_210_987, 1_493_827_156_065,
                                   2_296_300_739_836),
    "near_zero": BinaryConfusion(234_566_791_220, 98_765_432_111, 222_222_221_128,
                                 444_445_555_582),
    "none_a": BinaryConfusion(0, 333_333_333_331, 0, 666_666_666_697),
    "none_b": BinaryConfusion(0, 499_999_999_989, 0, 500_000_000_017),
    "odd": BinaryConfusion(99_090_273_723, 314_159_265_359, 42_331_082_514, 544_419_378_393),
}

OUTPUTS = ("report.json", "ofi.svg", "di.svg", "grid.ofi.csv", "grid.di.csv")

DIGESTS = {
    "recidivism_style": {
        "report.json": "959245e1e2ca01daba4558f38a13ae4fed4082ce013cecda59e3fcbe76ea7b5f",
        "ofi.svg": "03adb8404864e5c8bfd3c7aabe88b93a1973ea06b05a60744207d1d06c62219e",
        "di.svg": "dfcac9410b3351b0335db692e49183e5f69f697734ce6b8f97867205b8d52e7c",
        "grid.ofi.csv": "21931e87694d11afbf1098c0d70889a12ea9013c76e4ddc8f57383ac1ec6a07f",
        "grid.di.csv": "7d5876a300216e366f9c6882de7f2ce4ce1d97dc730a4c79efe5c9bbd553e085",
    },
    "recidivism_style+flip": {
        "report.json": "5e366abfdca56faa61d75c1f421f015bd59971a91eff4721a90fd0752d545f5b",
        "ofi.svg": "1f4ea6e4e22e2b584cbd77749443623db1111be1487206e67b401892bb4e3b8e",
        "di.svg": "12f6bfd0598ccc710fc6afc47ec0051fc8b6d3d1f9e8abc47ddf0aa82c878cba",
        "grid.ofi.csv": "4ee94cd251b54c452606dc0c670832a8751b621a32cab5e0ad87c64cb82e11f8",
        "grid.di.csv": "3764a0813a904598a96cf9b7e21a32ed191ea7943e58311a939a416f129369b9",
    },
    "scenario_a": {
        "report.json": "42b425f08377448ee40d3408996e8ea2f3b60ce864c02aed88a6cdaa01110788",
        "ofi.svg": "82ba259b37b1f75f41036132f0b158815e94639349931a3b57ce7805cc77fbcc",
        "di.svg": "a29b577a35cf5a79d902780aacc9b61e91d05e4c89373157926c3acd1357c564",
        "grid.ofi.csv": "ab4588afb32f08aafe0cc5d8293086087b8038f7402775958eb00db8c414dd09",
        "grid.di.csv": "a388507538788ae223052e2486488f0c16042e32488a9e8efd516803e85958b3",
    },
    "scenario_a+flip": {
        "report.json": "b940697440e35f1d353f208d4c139341714880997a917394dc5f72926009f2b9",
        "ofi.svg": "450127daab4bfa0476518c90ee0553317253985ea1d7b15d2b3bde37cb1b9c23",
        "di.svg": "55f6ff1d5098b6280e080c4d56024231b94460213b6de45f9e388798265e028c",
        "grid.ofi.csv": "88c30b18530eba02ef58a90073890143c6ab7de259a579e25db7894a2bf69b39",
        "grid.di.csv": "760a1b8c542e0cbee0cec15806daf6ba17f56314a6e1d2cff2d243eefa1c1a80",
    },
    "scenario_alpha": {
        "report.json": "2536bc0de9d8e7b573cb9c8731854a41a58b95301d47c3ee6e006c4b1d79e979",
        "ofi.svg": "8d3122993446d8581e151e2619af9a3e61f462b71695dd250407e014fe9cfdd2",
        "di.svg": "b24dd4a0aca2448c65c9b854c9da19f37a8afb4c8fa171b2b3fa577c76e7117f",
        "grid.ofi.csv": "c966d032b75f84bcd712af4e1da30fc20dca40755638935940e022e8f341e462",
        "grid.di.csv": "815a22a9295777a86dc2340cf114739aace2f7bc0f06dc6db1a8cd526fcbdc93",
    },
    "scenario_alpha+flip": {
        "report.json": "d84b0bfb26e0715f5a234c9368267718fe3c7a5f45c7c1bd633eac1daa684fea",
        "ofi.svg": "eeceafd713e83f3b62d4eb7fd3f93f00460f978f6efedb3ea224450ce222610a",
        "di.svg": "35657ef3f5112eb5e1620fa81654ba321cc06c28241641f118ab6aa7e8771e85",
        "grid.ofi.csv": "22994899999d1d99d3144482a0a7dc03ff1c02d36c5cb1d873d6ebf16d2981bb",
        "grid.di.csv": "5771dd16005e9d651d89057dc714900ef4afa2646cd03d52e7165401d27e94d8",
    },
    "scenario_b": {
        "report.json": "f573c75834647636d249bcfa9d50488d45350815f542f3a4e03440531b4919ae",
        "ofi.svg": "44b93d1c9139a3d0d47aed115eee35d5cc0871f8de8c311d00f7023a552cfdc9",
        "di.svg": "f64e57734b35d6e8f2b5c65832d6f94f2c2a4e5886751daef15f0e65f8cc0b79",
        "grid.ofi.csv": "81326f1099b0b8ff0859559d802c1c69535209c3f55be0f665b97deba2b0860b",
        "grid.di.csv": "9392410c1b58badd4222df661549a517f005593b9fc5d8274b71fff4bae169f0",
    },
    "scenario_b+flip": {
        "report.json": "95a2a40c2b30099c965aab24fab23984e72a9edaecb67b2aa4ab51ddd637dcbc",
        "ofi.svg": "ac72a3a150e2d889950c6d5443550b0b43d67cf6953f6418683afd44465d2aa0",
        "di.svg": "f64e57734b35d6e8f2b5c65832d6f94f2c2a4e5886751daef15f0e65f8cc0b79",
        "grid.ofi.csv": "1b178c958f32cf4e573b03d7220a6d47b3295d49ee655a0579bc5cbf1ddef45c",
        "grid.di.csv": "e4967ce5806a554476bf69b385ef598b4bb7c5a44d57c15c71fa903e48f5221a",
    },
    "synthetic": {
        "report.json": "b907b70068384b6bf337d4294541756ca826f0e286ff939ef7598113b1162c0e",
        "ofi.svg": "7604bb8e8e033057e397a3ad05d6262c01e99a8431b3d34b31ace41b61b5969f",
        "di.svg": "f59f36aca81959b2ce197e56931bdc09a6bbb478561fac6301af7d8066c2e848",
        "grid.ofi.csv": "a0510ad4ac6152d32b85744c1d5c20dfca070c3670402eb821a6d630afc372ee",
        "grid.di.csv": "dc5568b2d7c69acb8a1a361b6e0db07967604d28fabc94c8ae3336f32a091145",
    },
    "synthetic+flip": {
        "report.json": "41af1d501e74aaa06bed7d91debd4d966768d72733985872b76a887d3479eb55",
        "ofi.svg": "0dcae6439cc724f254741a6224b9f5a1e360a2094ba16305360d23c8c2d88bcc",
        "di.svg": "b42d558501f336b2407a0b9df83a8d5720be81374d68d94c103dc5fbbf7db106",
        "grid.ofi.csv": "63effee6e3bf294732c502fa2519ef2fd4dc4e7c4f56058dee82b134e9c25e4a",
        "grid.di.csv": "431d91802229327b6f0bc74c55c32e4d0e3d501d71d4b4418c8c187153ca0f32",
    },
    "wide": {
        "report.json": "7bedc96fca4d61d949ebcb02ee43264a9990703f7d287def5ebdc83514ff845f",
        "ofi.svg": "271b6fc11b95d8c6f89b9b542cce98d1dbdb7136321e28e1a7ced420c7fd7a70",
        "di.svg": "0437b4830f174ed2639a766ad8f6e5be725932e611a574ae96bdca7d67c9a20a",
        "grid.ofi.csv": "3beda5adaf0ea41e792e29dcb4dba8405424d7838ea69f9787e18512be36ae46",
        "grid.di.csv": "91c9e699ad3d795a0c937eac652dfa5fca80e159b1fba6a1d1929f0fc73ddf55",
    },
    "wide+flip": {
        "report.json": "6407d50f1360488645561f25307abc909d9f4afce6ce98c2fa54105f12108740",
        "ofi.svg": "35fee8dbb43deb9db255d45669eac8c94cb7f330bb39cd4d1845e2b35c6e2738",
        "di.svg": "23f08d96e08afdc98516e94b366202fdbbe2a9975398f4b07dd53e4adc18f623",
        "grid.ofi.csv": "5824a5d5244b893c5f3637f4a100b15bce6e1b95631109b5ed35b9592a430547",
        "grid.di.csv": "ad187588e1efdb805c2b740a8307a0be219f79ecd0c46aef0e24ef533a0d784c",
    },
    "huge": {
        "report.json": "52c39f5ccb5edde56c71d2eb96e7c026d499c030a8a0e46928c711c58a3a11fe",
        "ofi.svg": "a72ec7f3a92ec804f84aad18055ce1614bcf3c8432376f29d2a90ec6994c9f33",
        "di.svg": "747cf46af65af368eeaa71641c0add2529bb0991a630f8d76ab5055b02f1f8db",
        "grid.ofi.csv": "ab8469361250d059c11cd2bcb29853ca43f4176652d4b53c5a0035c206477b36",
        "grid.di.csv": "5d1c8f623e8bf3de25c9ad3f7aae5a0c679ba5f0356fe9ba7dcaf952b562625c",
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


def run_audit(capsys, tmp_path, argv: list[str]) -> None:
    code = main([
        "audit", *argv,
        "--out-report", str(tmp_path / "report.json"),
        "--out-heatmap-ofi", str(tmp_path / "ofi.svg"),
        "--out-heatmap-di", str(tmp_path / "di.svg"),
        "--out-grid-csv", str(tmp_path / "grid"),
    ])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, "", "")


CASES = [
    (f"{name}{'+flip' if flip else ''}", name, flip)
    for name in (*FIXTURE_ARGS, "synthetic", "wide")
    for flip in (False, True)
]


def case_argv(tmp_path, fixtures_dir, source: str, flip: bool) -> list[str]:
    if source in ("synthetic", "wide"):
        path = tmp_path / f"{source}.csv"
        path.write_text(synthetic_csv(SYNTHETIC if source == "synthetic" else WIDE),
                        encoding="utf-8")
        argv = ["--input", str(path)]
    else:
        argv = ["--input", str(fixtures_dir / f"{source}.csv"), *FIXTURE_ARGS[source]]
    return [*argv, "--flip"] if flip else argv


@pytest.mark.parametrize("case, source, flip", CASES, ids=[c[0] for c in CASES])
def test_audit_outputs_match_pinned_digests(capsys, tmp_path, fixtures_dir, case, source, flip):
    run_audit(capsys, tmp_path, case_argv(tmp_path, fixtures_dir, source, flip))
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in OUTPUTS
    }
    assert digests == DIGESTS[case]


@pytest.mark.parametrize("case, source, flip", CASES, ids=[c[0] for c in CASES])
def test_report_cells_are_the_grid_csv_cells(capsys, tmp_path, fixtures_dir, case, source, flip):
    run_audit(capsys, tmp_path, case_argv(tmp_path, fixtures_dir, source, flip))
    doc = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    for metric in ("ofi", "di"):
        with open(tmp_path / f"grid.{metric}.csv", newline="", encoding="utf-8") as handle:
            header, *rows = csv.reader(handle)
        assert header == ["group", *doc["group_order"]]
        assert [row[0] for row in rows] == doc["group_order"]
        # grids.<metric>[i][j] is cell (i + 1, j + 1) of the CSV
        assert [row[1:] for row in rows] == doc["grids"][metric]


def test_huge_counts_match_pinned_digests():
    report = build_report(GroupTable(HUGE))
    outputs = {
        "report.json": serialize_report(report),
        "ofi.svg": "".join(heatmap_chunks(report.ofi_grid)),
        "di.svg": "".join(heatmap_chunks(report.di_grid)),
        "grid.ofi.csv": "".join(grid_csv_chunks(report.ofi_grid)),
        "grid.di.csv": "".join(grid_csv_chunks(report.di_grid)),
    }
    assert {name: sha256_text(text) for name, text in outputs.items()} == DIGESTS["huge"]


# n -> (stdout, stderr); 2047 and 2048 give 4095 and 4097 rows, one
# either side of 4096, a whole number of the pieces of CSV_CHUNK_ROWS
# rows that `dist` writes its rows in
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


def test_verify_output_matches_pinned_digest(capsys, monkeypatch):
    # the sizes from STREAM_CHILD_MIN stream in a forked child, or in this
    # process where fork is not safe: both give the pinned bytes
    for forks in (True, False):
        monkeypatch.setattr("ofi_audit.cli._can_fork", lambda forks=forks: forks)
        code = main(["verify", "--n-max", "60"])
        captured = capsys.readouterr()
        assert (code, sha256_text(captured.out), captured.err) == (0, VERIFY_60_DIGEST, ""), forks
