"""End-to-end CLI behavior, exit codes and output determinism."""

import argparse
import contextlib
import csv
import io
import json
import sys
import tempfile
from array import array
from fractions import Fraction
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofi_audit import combinatorics, exhaustive
from ofi_audit.audit import AuditConfig, build_report, parse_report, serialize_report
from ofi_audit.cli import build_parser, main
from ofi_audit.formatting import format_fraction
from ofi_audit.ingestion import RowValueError, aggregate, flip_polarity, iter_records


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def exits(capsys, *argv):
    # the exit code and streams of an invocation that argparse ends
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


SCENARIO_A_GROUPS = """\
group i: tp=1 fn=0 fp=0 tn=5 n=6
  benefit           1/6 (0.17)
  expected benefit  1/6 (0.17)
  marginal benefit  0 (0.00)
group j: tp=7 fn=0 fp=1 tn=10 n=18
  benefit           4/9 (0.44)
  expected benefit  7/18 (0.39)
  marginal benefit  1/18 (0.06)
"""

SCENARIO_B_GROUPS = """\
group i: tp=0 fn=1 fp=0 tn=5 n=6
  benefit           0 (0.00)
  expected benefit  1/6 (0.17)
  marginal benefit  -1/6 (-0.17)
group j: tp=0 fn=7 fp=0 tn=11 n=18
  benefit           0 (0.00)
  expected benefit  7/18 (0.39)
  marginal benefit  -7/18 (-0.39)
"""

CONTEXTUAL_DI = "1 (1.00, contextual: both positive-prediction rates are zero)"

README_CELLS = ["1", "0", "0", "5", "7", "0", "1", "10"]


class TestScenario:
    @pytest.mark.parametrize("argv, stdout", [
        (README_CELLS, SCENARIO_A_GROUPS + """\
OFI: -1/18 (-0.06)  verdict: no bias indicated (threshold 3/10)
DI:  3/8 (0.38)  verdict: bias toward second (band 4/5..5/4)
"""),
        (["0", "1", "0", "5", "0", "7", "0", "11"], SCENARIO_B_GROUPS + f"""\
OFI: 2/9 (0.22)  verdict: no bias indicated (threshold 3/10)
DI:  {CONTEXTUAL_DI}  verdict: no bias indicated (band 4/5..5/4)
"""),
        (["1", "1", "0", "5", "1", "7", "0", "11"], """\
group i: tp=1 fn=1 fp=0 tn=5 n=7
  benefit           1/7 (0.14)
  expected benefit  2/7 (0.29)
  marginal benefit  -1/7 (-0.14)
group j: tp=1 fn=7 fp=0 tn=11 n=19
  benefit           1/19 (0.05)
  expected benefit  8/19 (0.42)
  marginal benefit  -7/19 (-0.37)
OFI: 30/133 (0.23)  verdict: no bias indicated (threshold 3/10)
DI:  19/7 (2.71)  verdict: bias toward first (band 4/5..5/4)
"""),
        (["5", "0", "0", "0", "0", "0", "0", "5"], """\
group i: tp=5 fn=0 fp=0 tn=0 n=5
  benefit           1 (1.00)
  expected benefit  1 (1.00)
  marginal benefit  0 (0.00)
group j: tp=0 fn=0 fp=0 tn=5 n=5
  benefit           0 (0.00)
  expected benefit  0 (0.00)
  marginal benefit  0 (0.00)
OFI: 0 (0.00)  verdict: no bias indicated (threshold 3/10)
DI:  undefined (zero denominator)  verdict: undefined (band 4/5..5/4)
"""),
        (["0", "1", "0", "5", "0", "7", "0", "11", "--di-low", "3/2", "--di-high", "2"],
         SCENARIO_B_GROUPS + f"""\
OFI: 2/9 (0.22)  verdict: no bias indicated (threshold 3/10)
DI:  {CONTEXTUAL_DI}  verdict: bias toward second (band 3/2..2)
"""),
        (["0", "1", "0", "5", "0", "7", "0", "11", "--ofi-threshold", "1/5"],
         SCENARIO_B_GROUPS + f"""\
OFI: 2/9 (0.22)  verdict: bias toward first (threshold 1/5)
DI:  {CONTEXTUAL_DI}  verdict: no bias indicated (band 4/5..5/4)
"""),
    ], ids=["readme-a", "b-contextual", "alpha", "undefined-di", "band-excludes-one",
            "ofi-threshold"])
    def test_whole_stdout(self, capsys, argv, stdout):
        assert run(capsys, "scenario", *argv) == (0, stdout, "")

    @pytest.mark.parametrize("argv, message", [
        ([*README_CELLS, "--ofi-threshold", "0"], "OFI threshold must be > 0, got 0"),
        ([*README_CELLS, "--di-low", "2", "--di-high", "1"], "bad DI band [2, 1]"),
        ([*README_CELLS, "--di-low", "0"], "bad DI band [0, 5/4]"),
        (["1", "0", "0", "5", "0", "0", "0", "0"], "group 'j' has no observations (n=0)"),
        (["0", "0", "0", "0", "7", "0", "1", "10"], "group 'i' has no observations (n=0)"),
        # the thresholds are checked before the groups' metrics, the cells first
        (["1", "0", "0", "5", "0", "0", "0", "0", "--ofi-threshold", "0"],
         "OFI threshold must be > 0, got 0"),
        (["-1", "0", "0", "5", "7", "0", "1", "10"], "confusion cell tp must be >= 0, got -1"),
        (["-1", "0", "0", "5", "7", "0", "1", "10", "--ofi-threshold", "0"],
         "confusion cell tp must be >= 0, got -1"),
    ], ids=["ofi-threshold-zero", "band-inverted", "band-not-positive", "empty-group-j",
            "empty-group-i", "empty-group-and-bad-threshold", "negative-cell",
            "negative-cell-and-bad-threshold"])
    def test_failure_writes_one_stderr_line_and_no_stdout(self, capsys, argv, message):
        assert run(capsys, "scenario", *argv) == (1, "", f"error [scenario]: {message}\n")

    def test_help_lists_the_eight_cells(self, capsys):
        code, out, err = exits(capsys, "scenario", "--help")
        assert (code, err) == (0, "")
        assert "TP_I FN_I FP_I TN_I TP_J FN_J FP_J TN_J\n" in out

    @pytest.mark.parametrize("argv, message", [
        (["1", "2"], "the following arguments are required: FP_I, TN_I, TP_J, FN_J, FP_J, TN_J"),
        (["1", "2", "x", "0", "0", "0", "0", "0"], "argument FP_I: invalid int value: 'x'"),
    ], ids=["short", "not-an-int"])
    def test_bad_cells_are_one_usage_error(self, capsys, argv, message):
        code, out, err = exits(capsys, "scenario", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: ofi-audit scenario ")
        assert err.endswith(f"\nofi-audit scenario: error: {message}\n")
        assert err.count("error:") == 1

    @pytest.mark.parametrize("cells", [
        ("0", "1", "0", "5", "0", "7", "0", "11"),  # contextual: both rates zero
        ("1", "0", "0", "1", "1", "0", "0", "1"),  # finite: equal rates
    ])
    def test_di_of_one_outside_the_band_is_flagged(self, capsys, cells):
        code, out, _ = run(capsys, "scenario", *cells, "--di-low", "3/2", "--di-high", "2")
        assert code == 0
        assert out.splitlines()[-1].endswith("verdict: bias toward second (band 3/2..2)")

    @pytest.mark.parametrize("value", ["1e5000", "1e-5000"])
    @pytest.mark.parametrize("flag, label", [
        ("--ofi-threshold", "OFI threshold"),
        ("--di-low", "DI low edge"),
        ("--di-high", "DI high edge"),
    ])
    def test_threshold_past_the_digit_limit_fails(self, capsys, flag, label, value):
        # the verdict lines write each threshold as its exact text, which
        # Python caps at 4300 digits by default
        code, out, err = run(capsys, "scenario", "1", "0", "0", "5", "7", "0", "1", "10",
                             flag, value)
        assert (code, err) == (
            1, f"error [scenario]: {label} has more than {sys.get_int_max_str_digits()} digits\n"
        )
        assert "verdict" not in out

    def test_ratio_past_the_digit_limit_fails_before_any_line(self, capsys):
        # each cell's text fits the digit limit, the OFI's 6001-digit
        # denominator does not
        big = 10**3000
        code, out, err = run(capsys, "scenario", "0", "0", "1", str(big),
                             "0", "1", "0", str(big + 1))
        assert (code, out, err) == (
            1, "", f"error [scenario]: OFI has more than {sys.get_int_max_str_digits()} digits\n"
        )

    def test_n_past_the_digit_limit_is_named(self, capsys):
        # each cell's text fits the digit limit, group i's n = 2*big + 1
        # does not
        big = "9" * sys.get_int_max_str_digits()
        code, out, err = run(capsys, "scenario", big, "0", "1", big, "1", "0", "0", "1")
        assert (code, out, err) == (
            1, "", f"error [scenario]: n of group i has more than "
            f"{sys.get_int_max_str_digits()} digits\n"
        )

    def test_di_past_the_digit_limit_is_named(self, capsys):
        # OFI is 0, DI is 10^3000 (10^3000 + 3) / (10^3000 + 1)
        big = 10**3000
        code, out, err = run(capsys, "scenario", str(big), "0", "0", "1",
                             "1", "0", "0", str(big + 2))
        assert (code, out, err) == (
            1, "", f"error [scenario]: DI has more than {sys.get_int_max_str_digits()} digits\n"
        )


class TestAudit:
    def test_scenario_a_fixture(self, capsys, fixtures_dir, tmp_path):
        report_path = tmp_path / "report.json"
        code, _, err = run(
            capsys,
            "audit",
            "--input", str(fixtures_dir / "scenario_a.csv"),
            "--out-report", str(report_path),
        )
        assert code == 0, err
        report = parse_report(report_path.read_text())
        # the (i, j) cell of each grid
        assert Fraction(*next(report.ofi_grid.integer_rows())[1]) == Fraction(-1, 18)
        assert Fraction(*next(report.di_grid.integer_rows())[1]) == Fraction(3, 8)

    def test_report_to_stdout_by_default(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "audit", "--input", str(fixtures_dir / "scenario_a.csv"))
        assert code == 0
        doc = json.loads(out)
        assert doc["group_order"] == ["i", "j"]

    def test_report_on_stdout_has_the_file_bytes(self, capsys, fixtures_dir, tmp_path):
        argv = ["audit", "--input", str(fixtures_dir / "recidivism_style.csv"),
                "--group-col", "race", "--label-col", "two_year_recid"]
        code, out, err = run(capsys, *argv, "--out-report", "-")
        assert (code, err) == (0, "")
        code, _, err = run(capsys, *argv, "--out-report", str(tmp_path / "report.json"))
        assert (code, err) == (0, "")
        assert out.encode("utf-8") == (tmp_path / "report.json").read_bytes()

    def test_group_order_flips_ofi_sign(self, capsys, fixtures_dir):
        argv = ["audit", "--input", str(fixtures_dir / "scenario_a.csv")]
        code, out, _ = run(capsys, *argv, "--group-order", "i,j")
        assert code == 0
        forward = parse_report(out)
        code, out, _ = run(capsys, *argv, "--group-order", "j,i")
        assert code == 0
        swapped = parse_report(out)
        forward_ij, swapped_ji = (Fraction(*next(report.ofi_grid.integer_rows())[1])
                                  for report in (forward, swapped))
        assert swapped_ji == -forward_ij
        assert forward_ij == Fraction(-1, 18)

    def test_unknown_group_in_order(self, capsys, fixtures_dir):
        code, _, err = run(
            capsys,
            "audit",
            "--input", str(fixtures_dir / "scenario_a.csv"),
            "--group-order", "i,k",
        )
        assert code == 1
        assert "[report]" in err and "'k'" in err

    def test_duplicate_group_in_order(self, capsys, fixtures_dir):
        code, out, err = run(
            capsys,
            "audit",
            "--input", str(fixtures_dir / "scenario_a.csv"),
            "--group-order", "i,i",
        )
        assert code == 1
        assert out == ""
        assert "error [report]" in err and "duplicate group 'i'" in err

    def test_all_artifacts_written(self, capsys, fixtures_dir, tmp_path):
        code, _, _ = run(
            capsys,
            "audit",
            "--input", str(fixtures_dir / "scenario_a.csv"),
            "--out-report", str(tmp_path / "report.json"),
            "--out-heatmap-ofi", str(tmp_path / "ofi.svg"),
            "--out-heatmap-di", str(tmp_path / "di.svg"),
            "--out-grid-csv", str(tmp_path / "grid"),
        )
        assert code == 0
        assert (tmp_path / "ofi.svg").read_text().startswith("<?xml")
        assert (tmp_path / "di.svg").read_text().startswith("<?xml")
        assert (tmp_path / "grid.ofi.csv").read_text().splitlines()[0] == "group,i,j"
        assert (tmp_path / "grid.di.csv").exists()

    @pytest.mark.parametrize("flag, target, message", [
        ("--out-heatmap-ofi", "adir", "[Errno 21] Is a directory: '{}adir'"),
        ("--out-grid-csv", "nodir/g", "[Errno 2] No such file or directory: '{}nodir/g.ofi.csv'"),
        # a name that ends in "/" is a directory to open(), there or not
        ("--out-heatmap-ofi", "nodir/", "[Errno 21] Is a directory: '{}nodir/'"),
        ("--out-heatmap-di", "afile/", "[Errno 21] Is a directory: '{}afile/'"),
        ("--out-heatmap-di", "afile/x.svg", "[Errno 20] Not a directory: '{}afile/x.svg'"),
        # an empty path names no file: "" is passed as it is
        ("--out-report", "", "[Errno 2] No such file or directory: ''"),
        ("--out-heatmap-ofi", "", "[Errno 2] No such file or directory: ''"),
        ("--out-heatmap-di", "", "[Errno 2] No such file or directory: ''"),
        ("--out-grid-csv", "", "[Errno 2] No such file or directory: ''"),
    ], ids=["directory", "missing-directory", "new-directory", "file-as-directory",
            "file-in-a-file", "empty-report", "empty-heatmap-ofi", "empty-heatmap-di",
            "empty-grid-csv"])
    @pytest.mark.parametrize("report_exists", [False, True])
    def test_directory_output_fails_before_any_output_is_opened(
        self, capsys, fixtures_dir, tmp_path, flag, target, message, report_exists
    ):
        (tmp_path / "adir").mkdir()
        (tmp_path / "afile").write_text("file\n")
        report = tmp_path / "report.json"
        if report_exists:
            report.write_text("old\n")
        # as text: a Path would drop a trailing "/"
        code, out, err = run(
            capsys, "audit", "--input", str(fixtures_dir / "scenario_a.csv"),
            "--out-report", str(report), flag, f"{tmp_path}/{target}" if target else "",
        )
        assert (code, out) == (1, "")
        assert err == "error [write]: " + message.format(f"{tmp_path}/") + "\n"
        # nothing created or truncated
        assert {p.name for p in tmp_path.iterdir()} == {"adir", "afile"} | ({"report.json"} if report_exists else set())
        assert (tmp_path / "afile").read_text() == "file\n"
        assert not report_exists or report.read_text() == "old\n"

    def test_custom_columns_and_flip(self, capsys, fixtures_dir):
        argv = [
            "audit",
            "--input", str(fixtures_dir / "recidivism_style.csv"),
            "--group-col", "race",
            "--label-col", "two_year_recid",
        ]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        plain = parse_report(out)

        code, out, _ = run(capsys, *argv, "--flip")
        assert code == 0
        flipped = parse_report(out)
        for name, gm in plain.group_metrics.items():
            assert flipped.group_metrics[name].marginal_benefit == -gm.marginal_benefit

    def test_determinism_with_sampling(self, capsys, fixtures_dir):
        argv = [
            "audit",
            "--input", str(fixtures_dir / "recidivism_style.csv"),
            "--group-col", "race",
            "--label-col", "two_year_recid",
            "--sample", "30",
            "--seed", "11",
        ]
        code_one, out_one, _ = run(capsys, *argv)
        code_two, out_two, _ = run(capsys, *argv)
        assert code_one == code_two == 0
        assert out_one == out_two

    def test_missing_input_fails_at_input_stage(self, capsys, tmp_path):
        code, _, err = run(capsys, "audit", "--input", str(tmp_path / "nope.csv"))
        assert code == 1
        assert "[input]" in err

    def test_bad_column_fails_at_parse_stage(self, capsys, fixtures_dir):
        code, _, err = run(
            capsys,
            "audit",
            "--input", str(fixtures_dir / "scenario_a.csv"),
            "--group-col", "ethnicity",
        )
        assert code == 1
        assert "[parse]" in err and "'ethnicity'" in err

    def test_single_group_fails_at_report_stage(self, capsys, tmp_path):
        path = tmp_path / "solo.csv"
        path.write_text("group,label,prediction\nonly,1,1\nonly,0,0\n")
        code, _, err = run(capsys, "audit", "--input", str(path))
        assert (code, err) == (
            1, "error [report]: pairwise ofi needs at least 2 groups, have 1\n"
        )

    def test_sample_without_seed(self, capsys, fixtures_dir):
        code, _, err = run(
            capsys,
            "audit",
            "--input", str(fixtures_dir / "scenario_a.csv"),
            "--sample", "5",
        )
        assert code == 1
        assert "[config]" in err

    def test_oversized_sample(self, capsys, fixtures_dir):
        code, _, err = run(
            capsys,
            "audit",
            "--input", str(fixtures_dir / "scenario_a.csv"),
            "--sample", "1000",
            "--seed", "1",
        )
        assert code == 1
        assert "[sample]" in err

    def test_ofi_threshold_flag_changes_verdicts(self, capsys, fixtures_dir):
        code, out, _ = run(
            capsys,
            "audit",
            "--input", str(fixtures_dir / "scenario_b.csv"),
            "--ofi-threshold", "1/5",
        )
        assert code == 0
        first, second, *_, diagnosis = json.loads(out)["pairs"][0]
        assert (first, second, diagnosis) == ("i", "j", "algorithmic_bias")

    @pytest.mark.parametrize("input_exists", [True, False])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--ofi-threshold", "0"], "OFI threshold must be > 0, got 0"),
            (["--ofi-threshold=-1/10"], "OFI threshold must be > 0, got -1/10"),
            (["--di-low", "0"], "bad DI band [0, 5/4]"),
            (["--di-high", "1/2"], "bad DI band [4/5, 1/2]"),
            (["--di-low", "2", "--di-high", "1"], "bad DI band [2, 1]"),
            # past the digits Python writes an int in, default 4300
            (["--ofi-threshold", "1e5000"],
             f"OFI threshold has more than {sys.get_int_max_str_digits()} digits"),
            (["--di-low", "1e-5000"],
             f"DI low edge has more than {sys.get_int_max_str_digits()} digits"),
            (["--di-high", "1e5000"],
             f"DI high edge has more than {sys.get_int_max_str_digits()} digits"),
        ],
    )
    def test_bad_threshold_fails_at_config_stage(
        self, capsys, fixtures_dir, tmp_path, flags, message, input_exists
    ):
        # checked before the input is opened, so a missing file is not named
        path = fixtures_dir / "scenario_a.csv" if input_exists else tmp_path / "absent.csv"
        code, out, err = run(capsys, "audit", "--input", str(path), *flags)
        assert (code, out, err) == (1, "", f"error [config]: {message}\n")

    def test_threshold_past_float_range_is_written_exactly(self, capsys, fixtures_dir):
        code, out, err = run(
            capsys,
            "audit",
            "--input", str(fixtures_dir / "scenario_a.csv"),
            "--ofi-threshold", "1e400",
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["config"]["ofi_threshold"] == "1" + "0" * 400

    def test_stated_threshold_defaults_are_audit_configs(self):
        # a threshold left out takes AuditConfig's default, which --help states
        [commands] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        for command in ("audit", "scenario"):
            helps = {action.dest: action.help for action in commands.choices[command]._actions}
            for name in ("ofi_threshold", "di_low", "di_high"):
                default = format_fraction(getattr(AuditConfig(), name))
                assert helps[name].endswith(f" (default {default})")


BOM = "\ufeff"

# characters of quoted group names: the delimiter, line breaks that
# str.splitlines() also splits on, and non-ASCII letters
NAME_PARTS = ["a", "B", "é", " ", ",", "\n", "\r\n", "\u2028", "\u2029", "\x85", "\x0c"]

csv_inputs = st.fixed_dictionaries({
    "names": st.lists(
        st.lists(st.sampled_from(NAME_PARTS), min_size=1, max_size=4).map("".join)
        .filter(str.strip),
        min_size=2, max_size=4, unique_by=str.strip,
    ),
    "rows": st.lists(st.tuples(st.integers(0, 3), st.integers(0, 1), st.integers(0, 1)),
                     max_size=12),
    "bom": st.booleans(),
    "newline": st.sampled_from(["\n", "\r\n"]),
    "duplicate_header": st.booleans(),
    "short_row_at": st.none() | st.integers(0, 15),
    "flip": st.booleans(),
})


def quoted(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def csv_text(names, rows, newline="\n", bom=False, duplicate_header=False, short_row_at=None):
    # every group appears, so the report has at least two groups
    body = [f"{quoted(name)},1,0" for name in names]
    body += [f"{quoted(names[g % len(names)])},{label},{pred}" for g, label, pred in rows]
    if duplicate_header:  # a second 'group' column; the first one counts
        body = [row + ",zz" for row in body]
    if short_row_at is not None:
        body.insert(short_row_at, f"{quoted(names[0])},1")
    header = "group,label,prediction" + (",group" if duplicate_header else "")
    return (BOM if bom else "") + newline.join([header, *body]) + newline


class TestAuditInput:
    """The CLI reads input bytes the way the library reads an open file."""

    def test_bom_on_input_file(self, capsys, fixtures_dir, tmp_path):
        plain = (fixtures_dir / "scenario_a.csv").read_bytes()
        path = tmp_path / "bom.csv"
        path.write_bytes(BOM.encode("utf-8") + plain)
        code, out, err = run(capsys, "audit", "--input", str(path))
        assert code == 0, err
        assert out == run(capsys, "audit", "--input", str(fixtures_dir / "scenario_a.csv"))[1]

    def test_bom_on_stdin(self, capsys, fixtures_dir, monkeypatch):
        plain = (fixtures_dir / "scenario_a.csv").read_bytes()
        stdin = io.TextIOWrapper(io.BytesIO(BOM.encode("utf-8") + plain))
        monkeypatch.setattr(sys, "stdin", stdin)
        code, out, err = run(capsys, "audit", "--input", "-")
        assert code == 0, err
        assert not stdin.closed
        assert out == run(capsys, "audit", "--input", str(fixtures_dir / "scenario_a.csv"))[1]

    def test_quoted_line_separators_are_data(self, capsys, tmp_path):
        names = ["x\u2028y", "x\u2029y", "x\x85y", "x\x0cy", "x\r\ny", "z"]
        path = tmp_path / "separators.csv"
        path.write_bytes(csv_text(names, [(5, 0, 0)]).encode("utf-8"))
        code, out, err = run(capsys, "audit", "--input", str(path))
        assert code == 0, err
        sizes = json.loads(out)["dataset"]["group_sizes"]
        assert sizes == {**{name: 1 for name in names}, "z": 2}

    def test_quoted_line_separators_round_trip_through_the_grid_csvs(self, capsys, tmp_path):
        names = sorted(["x\ry", "x\ny", "x\r\ny", "x\u2028y", "x\x0cy", "z"])
        path = tmp_path / "separators.csv"
        path.write_bytes(csv_text(names, [(5, 0, 0)]).encode("utf-8"))
        prefix = str(tmp_path / "grid")
        code, _, err = run(capsys, "audit", "--input", str(path), "--out-report",
                           str(tmp_path / "report.json"), "--out-grid-csv", prefix)
        assert (code, err) == (0, "")
        for metric in ("ofi", "di"):
            with open(f"{prefix}.{metric}.csv", newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["group", *names]
            assert [row[0] for row in rows[1:]] == names
            assert {len(row) for row in rows} == {len(names) + 1}

    def test_quoted_line_separators_round_trip_through_the_svgs(self, capsys, tmp_path):
        names = sorted(["x\ry", "x\ny", "x\r\ny", "x\u2028y", "x\u2029y", "x\x85y", "z"])
        path = tmp_path / "separators.csv"
        path.write_bytes(csv_text(names, [(5, 0, 0)]).encode("utf-8"))
        svgs = [tmp_path / "ofi.svg", tmp_path / "di.svg"]
        code, _, err = run(capsys, "audit", "--input", str(path), "--out-report",
                           str(tmp_path / "report.json"), "--out-heatmap-ofi", str(svgs[0]),
                           "--out-heatmap-di", str(svgs[1]))
        assert (code, err) == (0, "")
        for svg in svgs:
            root = ElementTree.parse(svg).getroot()
            labels = [el.text for el in root.iter() if el.get("class") == "axis-label"]
            assert labels == names + names  # column labels, then row labels

    @pytest.mark.parametrize("char, shown", [
        ("\x0c", "'a\\x0cb' holds U+000C"),
        ("\x01", "'a\\x01b' holds U+0001"),
        ("\ufffe", "'a\\ufffeb' holds U+FFFE"),
    ])
    def test_name_an_svg_cannot_carry_fails_at_write_stage(self, capsys, tmp_path, char, shown):
        path = tmp_path / "control.csv"
        path.write_bytes(csv_text([f"a{char}b", "z"], []).encode("utf-8"))
        report = tmp_path / "report.json"
        argv = ["audit", "--input", str(path), "--out-report", str(report)]
        assert run(capsys, *argv) == (0, "", "")  # the report carries the name
        written = report.read_bytes()
        code, out, err = run(capsys, *argv, "--out-heatmap-di", str(tmp_path / "di.svg"),
                             "--out-grid-csv", str(tmp_path / "grid"))
        assert (code, out) == (1, "")
        assert err == f"error [write]: group {shown}, which an SVG cannot carry\n"
        # refused before any output is opened: nothing created or truncated
        assert report.read_bytes() == written
        assert {p.name for p in tmp_path.iterdir()} == {"control.csv", "report.json"}

    def test_invalid_utf8_fails_at_parse_stage(self, capsys, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("group,label,prediction\na,1,1\nb\xe9,0,0\n".encode("latin-1"))
        code, out, err = run(capsys, "audit", "--input", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error [parse]: ") and "can't decode byte 0xe9" in err

    def test_invalid_utf8_names_its_offset_in_the_file(self, capsys, tmp_path):
        # past the first 8192-byte read, so the offset is not the codec's
        data = bytearray(b"group,label,prediction\n" + b"a,1,1\n" * 3600)
        data[21017] = 0xE9  # the first cell of a row
        path = tmp_path / "late.csv"
        path.write_bytes(bytes(data))
        code, out, err = run(capsys, "audit", "--input", str(path))
        assert (code, out) == (1, "")
        assert err == (
            "error [parse]: input is not UTF-8: can't decode byte 0xe9"
            " at offset 21017: invalid continuation byte\n"
        )

    @pytest.mark.parametrize("seekable", [True, False])
    def test_invalid_utf8_on_stdin(self, capsys, monkeypatch, seekable):
        class Pipe(io.BytesIO):
            def seekable(self):
                return False

        data = b"group,label,prediction\na,1,1\nb\xe9,0,0\n"
        buffer = io.BytesIO(data) if seekable else Pipe(data)
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(buffer))
        code, out, err = run(capsys, "audit", "--input", "-")
        assert (code, out) == (1, "")
        where = " at offset 30" if seekable else ""
        assert err == (
            "error [parse]: input is not UTF-8: can't decode byte 0xe9"
            f"{where}: invalid continuation byte\n"
        )

    @pytest.mark.parametrize("delimiter", [";;", "", '"', "\r", "\n"])
    def test_bad_delimiter_fails_at_config_stage(self, capsys, tmp_path, delimiter):
        # the input does not exist: the check runs before it is opened
        code, out, err = run(
            capsys, "audit", "--input", str(tmp_path / "absent.csv"),
            "--delimiter", delimiter,
        )
        assert (code, out) == (1, "")
        assert err == (
            "error [config]: --delimiter must be one character other than a"
            f" quote, CR or LF, got {delimiter!r}\n"
        )

    def test_oversized_field_fails_at_parse_stage(self, capsys, tmp_path):
        path = tmp_path / "wide.csv"
        field = "a" * (csv.field_size_limit() + 1)
        path.write_text(f"group,label,prediction\nb,1,1\n{field},0,0\n", encoding="utf-8")
        code, out, err = run(capsys, "audit", "--input", str(path))
        assert code == 1
        assert out == ""
        assert err == (
            "error [parse]: CSV line 3: field larger than field limit "
            f"({csv.field_size_limit()})\n"
        )

    @pytest.mark.parametrize("sample", [(), ("--sample", "1", "--seed", "1")],
                             ids=["all-rows", "sample"])
    @pytest.mark.parametrize("row, message", [
        (" ,yes,1", "row 1, column 'group': group identifier is empty"),
        (" ,1", "row 1, column 'group': group identifier is empty"),
        ("a,2", "row 1, column 'label': expected 0 or 1, got '2'"),
    ])
    def test_row_with_two_bad_cells_reports_the_first(self, capsys, tmp_path, row, message,
                                                      sample):
        path = tmp_path / "bad.csv"
        path.write_text(f"group,label,prediction\n{row}\n", encoding="utf-8")
        code, out, err = run(capsys, "audit", "--input", str(path), *sample)
        assert (code, out, err) == (1, "", f"error [parse]: {message}\n")

    @pytest.mark.parametrize("sample", [(), ("--sample", "1", "--seed", "1")],
                             ids=["all-rows", "sample"])
    @pytest.mark.parametrize("text, message", [
        ('group,label,prediction\na,1,1\n"x"y,1,0\n', "CSV line 3: ',' expected after '\"'"),
        ('group,label,prediction\na,1,1\n"x,1,0\n', "CSV line 3: unexpected end of data"),
    ], ids=["text-after-a-closing-quote", "quote-open-at-the-end"])
    def test_malformed_quoting_fails_at_parse_stage(self, capsys, tmp_path, text, message,
                                                    sample):
        path = tmp_path / "quotes.csv"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "audit", "--input", str(path), *sample)
        assert (code, out, err) == (1, "", f"error [parse]: {message}\n")

    @settings(max_examples=60, deadline=None)
    @given(csv_inputs)
    def test_cli_and_library_agree(self, case):
        text = csv_text(case["names"], case["rows"], case["newline"], case["bom"],
                        case["duplicate_header"], case["short_row_at"])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "in.csv"
            path.write_bytes(text.encode("utf-8"))
            report_path = Path(tmp) / "report.json"
            argv = ["audit", "--input", str(path), "--out-report", str(report_path)]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv + (["--flip"] if case["flip"] else []))
            try:
                with open(path, newline="", encoding="utf-8-sig") as fh:
                    table = aggregate(iter_records(fh))
            except RowValueError as exc:
                assert (code, err.getvalue()) == (1, f"error [parse]: {exc}\n")
                return
            assert code == 0, err.getvalue()
            if case["flip"]:
                table = flip_polarity(table)
            assert report_path.read_text(encoding="utf-8") == serialize_report(build_report(table))


class TestDist:
    def test_size_one_rows(self, capsys):
        code, out, err = run(capsys, "dist", "--n", "1")
        assert code == 0
        assert out.splitlines() == [
            "score_numerator,score_denominator,multiplicity",
            "-1,1,1",
            "0,1,2",
            "1,1,1",
        ]
        assert "mean=0" in err and "variance=1/2" in err

    def test_summary_at_n_100(self, capsys):
        code, out, err = run(capsys, "dist", "--n", "100")
        assert code == 0
        assert "std=0.322490" in err
        assert "triangular_std=0.408248" in err
        assert len(out.splitlines()) == 1 + 201  # header plus one row per score

    def test_convergence_at_n_10000(self, capsys):
        code, _, err = run(capsys, "dist", "--n", "10000")
        assert code == 0
        std = float(err.split("std=")[1].split()[0])
        assert abs(std - 0.31623) < 0.001

    def test_rejects_zero(self, capsys):
        code, out, err = run(capsys, "dist", "--n", "0")
        assert code == 1
        assert out == ""
        assert err == "error [dist]: n must be >= 1, got 0\n"


class TestVerify:
    def test_help_states_each_default(self, capsys):
        code, out, _ = exits(capsys, "verify", "--help")
        assert code == 0
        assert "  --n-min N_MIN  smallest n (default 1)\n" in out
        assert "  --n-max N_MAX  largest n (default 40)\n" in out

    def test_small_range_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-min", "1", "--n-max", "12")
        assert code == 0
        assert "all identities hold for n in [1, 12]" in out
        assert "FAIL" not in out
        assert out.count("ok  ") == 10

    def test_guard_refuses_huge_range(self, capsys):
        code, _, err = run(capsys, "verify", "--n-max", "1000000")
        assert code == 1
        assert "[verify]" in err and "guard" in err

    def test_guard_is_checked_before_any_enumeration(self, capsys, monkeypatch):
        def enumerations(n_min, n_max):
            raise AssertionError(f"enumerated to {n_max} past the guard")

        monkeypatch.setattr(exhaustive, "enumerations", enumerations)
        code, out, err = run(capsys, "verify", "--n-max", "501")
        assert code == 1
        assert out == ""
        assert err == (
            "error [verify]: n_max 501 exceeds the enumeration guard 500; "
            "full enumeration is O(n^3)\n"
        )

    def test_guard_size_enumerates_without_overflow(self, capsys):
        # the d^2 sums and the counts at the cap stay well inside int64
        code, out, _ = run(capsys, "verify", "--n-min", "500", "--n-max", "500")
        assert code == 0
        assert out.endswith("all identities hold for n in [500, 500]\n")

    def test_inverted_range(self, capsys):
        code, _, err = run(capsys, "verify", "--n-min", "9", "--n-max", "3")
        assert code == 1
        assert "[verify]" in err


# the originals, taken before any test patches them; the _pair_counts
# faults patch score_counts(n, start, stop), the one closed form that
# both dist and verify's distribution take
SCORE_COUNTS = combinatorics.score_counts
ENUMERATIONS = exhaustive.enumerations
MARGINAL_BENEFIT = exhaustive.marginal_benefit
B_STATS = combinatorics.b_stats


def _pair_counts_off_at_the_ends(n, start, stop):
    counts = SCORE_COUNTS(n, start, stop)
    for d in (-n, n):  # |d| = n
        if start <= d < stop:
            counts[d - start] += 1
    return counts


def _enumeration_without(triple):
    # the enumeration as if it never reached one triple (tp, fn, fp): each
    # record of size n >= s = tp + fn + fp lacks the quadruple (tp, fn, fp, n - s)
    tp, fn, fp = triple
    s = tp + fn + fp

    def enumerations(n_min, n_max):
        for record in ENUMERATIONS(n_min, n_max):
            n = len(record.cell_counts[0]) - 1
            if n >= s:
                count = record.count - 1
                cell_counts = tuple(
                    tuple(k - (x == value) for x, k in enumerate(counts))
                    for counts, value in zip(record.cell_counts, (tp, fn, fp, n - s))
                )
                histogram = array("q", record.histogram)
                histogram[fp - fn + n] -= 1
                first = sum(k * (i - n) for i, k in enumerate(histogram))
                second = sum(k * (i - n) ** 2 for i, k in enumerate(histogram))
                mean = Fraction(first, count * n)
                variance = Fraction(second, count * n * n) - mean**2
                record = exhaustive.Enumeration(count, cell_counts, histogram, mean, variance)
            yield record
    return enumerations


def _pair_counts_off_at_one_end(n, start, stop):
    counts = SCORE_COUNTS(n, start, stop)
    if start == -n < stop:  # d = -n only
        counts[0] += 1
    return counts


def _pair_counts_tied_at_two_n_ths(n, start, stop):
    # from n = 4 on, the score 2/n as frequent as 0
    counts = SCORE_COUNTS(n, start, stop)
    if n >= 4 and start <= 2 < stop:
        counts[2 - start] = SCORE_COUNTS(n, 0, 1)[0]
    return counts


def _marginal_benefit_wrong_once(cm):
    if (cm.tp, cm.fn, cm.fp) == (0, 0, 0):
        return Fraction(1, cm.n)
    return MARGINAL_BENEFIT(cm)


def _marginal_benefit_off_grid(cm):
    # a score in steps of 1/(n+1), which mostly falls between the bins d/n
    return Fraction(cm.fp - cm.fn, cm.n + 1)


class TestVerifyFails:
    """A fault on either side of an identity makes `verify` fail loudly."""

    @pytest.mark.parametrize("module, name, fault, identity", [
        (combinatorics, "score_counts", _pair_counts_off_at_the_ends, "distribution"),
        # (0, 0, 0) is the quadruple (0, 0, 0, n) of every size
        (exhaustive, "enumerations", _enumeration_without((0, 0, 0)), "cardinality"),
        (exhaustive, "marginal_benefit", _marginal_benefit_wrong_once, "stream-equivalence"),
        (exhaustive, "marginal_benefit", _marginal_benefit_off_grid, "stream-equivalence"),
    ], ids=[
        "pair-counts-off-by-one",
        "enumeration-missing-a-quadruple",
        "stream-misscored",
        "stream-off-grid",
    ])
    def test_fault_fails_its_identity(self, capsys, monkeypatch, module, name, fault, identity):
        monkeypatch.setattr(module, name, fault)
        code, out, err = run(capsys, "verify", "--n-max", "6")
        assert code == 1
        assert f"FAIL {identity}: " in out
        assert "all identities hold" not in out
        assert err == "identity check failed\n"

    def test_missing_triple_hits_every_size_from_its_sum_up(self, capsys, monkeypatch):
        # (1, 1, 1) is a quadruple of size 3 and up, and of no smaller size
        monkeypatch.setattr(exhaustive, "enumerations", _enumeration_without((1, 1, 1)))
        code, out, _ = run(capsys, "verify", "--n-max", "6")
        assert code == 1
        first_failure = next(line for line in out.splitlines() if line.startswith("FAIL"))
        assert first_failure == (
            "FAIL cardinality: enumerated quadruple count equals (n+1)(n+2)(n+3)/6"
            "  [n=3: enumerated 19, closed form 20]"
        )

    @pytest.mark.parametrize("module, name, fault, argv, lines", [
        (exhaustive, "enumerations", _enumeration_without((1, 1, 1)), ("--n-max", "6"), [
            "FAIL cell-counts: enumerated per-cell value counts match the triangular "
            "closed form  [n=3: cell 0 value 1: enumerated 5, closed form 6]",
        ]),
        (combinatorics, "score_counts", _pair_counts_off_at_the_ends, ("--n-max", "6"), [
            "FAIL distribution-total: distribution multiplicities sum to the total count"
            "  [n=1: multiplicities sum to 6, expected 4]",
            "FAIL distribution-mode: zero is the unique most frequent score"
            "  [n=1: counts[-1]=2 >= counts[0]=2]",
        ]),
        (combinatorics, "score_counts", _pair_counts_off_at_one_end, ("--n-max", "6"), [
            "FAIL distribution-total: distribution multiplicities sum to the total count"
            "  [n=1: multiplicities sum to 5, expected 4]",
            "FAIL distribution-symmetry: multiplicities at s and -s agree"
            "  [n=1: counts[-1]=2 but counts[1]=1]",
            "FAIL distribution-mode: zero is the unique most frequent score"
            "  [n=1: counts[-1]=2 >= counts[0]=2]",
        ]),
        (combinatorics, "score_counts", _pair_counts_tied_at_two_n_ths,
         ("--n-min", "3", "--n-max", "6"), [
            "FAIL distribution-total: distribution multiplicities sum to the total count"
            "  [n=4: multiplicities sum to 40, expected 35]",
            "FAIL distribution-symmetry: multiplicities at s and -s agree"
            "  [n=4: counts[-1/2]=4 but counts[1/2]=9]",
            "FAIL distribution-mode: zero is the unique most frequent score"
            "  [n=4: counts[1/2]=9 >= counts[0]=9]",
        ]),
    ], ids=[
        "enumeration-missing-a-triple",
        "pair-counts-off-at-the-ends",
        "pair-counts-off-at-one-end",
        "pair-counts-tied-with-the-mode",
    ])
    def test_failure_lines(self, capsys, monkeypatch, module, name, fault, argv, lines):
        # the whole line of each failing identity named, and the first n it fails at
        monkeypatch.setattr(module, name, fault)
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 1
        for line in lines:
            identity = line.split(":")[0]
            assert [x for x in out.splitlines() if x.startswith(identity + ":")] == [line]


def _score_counts_off_at_zero(n, start, stop):
    # the multiplicity of d = 0 one too high, in whatever range holds it
    counts = SCORE_COUNTS(n, start, stop)
    if start <= 0 < stop:
        counts[-start] += 1
    return counts


def test_dist_and_verify_share_one_closed_form(capsys, monkeypatch):
    # a fault in the per-range closed form reaches dist's CSV and fails
    # verify's distribution identity: neither has a route of its own
    _, before, _ = run(capsys, "dist", "--n", "5")
    monkeypatch.setattr(combinatorics, "score_counts", _score_counts_off_at_zero)
    code, after, _ = run(capsys, "dist", "--n", "5")
    assert code == 0
    assert after != before
    assert after.replace("\n0,1,13\n", "\n0,1,12\n") == before
    code, out, _ = run(capsys, "verify", "--n-max", "6")
    assert code == 1
    assert "FAIL distribution: " in out


def _b_stats_variance_off(n):
    # the variance one 10n-th too high
    stats = B_STATS(n)
    variance = stats.variance + Fraction(1, 10 * n)
    return combinatorics.BStats(n, stats.mean, variance, float(variance) ** 0.5)


def test_dist_and_verify_share_one_form_of_the_moments(capsys, monkeypatch):
    # a fault in b_stats reaches dist's summary and fails verify's moments
    # identity: verify has no variance of its own
    _, _, before = run(capsys, "dist", "--n", "5")
    monkeypatch.setattr(combinatorics, "b_stats", _b_stats_variance_off)
    code, _, after = run(capsys, "dist", "--n", "5")
    assert code == 0
    assert "variance=9/50 (0.180000)" in before
    assert "variance=1/5 (0.200000)" in after
    code, out, _ = run(capsys, "verify", "--n-max", "6")
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL moments: enumerated mean is 0 and variance is (n+4)/(10n) exactly"
        "  [n=1: enumerated mean 0, variance 1/2, expected 0 and 3/5]"
    ]
