"""An input file counted in two processes.

From ``SPLIT_MIN_BYTES`` on, ``audit`` without ``--sample`` counts a
regular input file in two byte ranges split at the first LF at or after
the middle byte: a forked child counts the second range while the parent
counts the first, each with a strict csv reader. Both read the file the
parent opened, by offset, so a file renamed over the input path is not
read. When the split is not a record boundary, either range holds text
that only a lenient reader accepts, or either count fails, the parent
counts the same open file in one pass, which reports any fault. The
child is only a speed-up: when it cannot be had, or is lost, the parent
counts the second range too. Each case runs in a fresh ``-X dev``
interpreter (see probe.py), with ``SPLIT_MIN_BYTES`` patched to 1 in the
"split" mode, and is compared with the path that has no ``os.fork``: the
five outputs, the stdout and the stderr must be the same bytes.
"""

import os
from pathlib import Path

import pytest
from probe import run_probe

from ofi_audit.cli import SPLIT_MIN_BYTES

HEADER = b"group,label,prediction"


def rows(newline: bytes, names: list[str], count: int = 12) -> bytes:
    # quoted names, labels and predictions that fill all four cells
    lines = []
    for i in range(count):
        name = names[i % len(names)]
        quoted = '"' + name.replace('"', '""') + '"'
        lines.append(f"{quoted},{i % 2},{i // 2 % 2}".encode("utf-8") + newline)
    return b"".join(lines)


def filler(size: int, row: bytes = b"pad,1,0\n") -> bytes:
    # rows of ``size`` bytes in all (0, or 16 and more), each ``row`` with
    # spaces after its group name "pad"
    out = b""
    while size:
        part = size if size <= 4096 else min(4096, size - 16)
        out += row.replace(b"pad", b"pad" + b" " * (part - len(row)), 1)
        size -= part
    return out


def split_after(head: bytes, tail: bytes, row: bytes = b"pad,1,0\n") -> bytes:
    """``head`` + ``tail``, with filler rows after the header line and at
    the end, so that the last byte of ``head`` is the middle byte and an
    LF."""
    header_end = head.index(b"\n") + 1
    short = len(tail) + 18 - len(head)
    if short > 0:
        head = head[:header_end] + filler(max(short, 16), row) + head[header_end:]
    data = head + tail + filler(len(head) - len(tail) - 2, row)
    assert data.find(b"\n", len(data) // 2) == len(head) - 1
    return data


def every_output(out: Path) -> list[str]:
    return ["--out-report", str(out / "report.json"),
            "--out-heatmap-ofi", str(out / "ofi.svg"), "--out-heatmap-di", str(out / "di.svg"),
            "--out-grid-csv", str(out / "grid")]


def compare(
    tmp_path: Path, data: bytes, *flags: str, modes: str = "split"
) -> tuple[int, str, float, bool | None]:
    """Audit ``data`` in ``modes`` and with no os.fork; assert that both
    give the same outputs and streams, and return the first run's exit
    code, stderr, children's CPU time and two-process count flag."""
    path = tmp_path / "in.csv"
    path.write_bytes(data)
    runs = {}
    for mode in (modes, "in-order"):
        out = tmp_path / mode
        out.mkdir()
        code, child_cpu, stdout, stderr, split = run_probe(
            mode, "audit", "--input", str(path), *flags, *every_output(out), cwd=tmp_path
        )
        written = sorted((p.name, p.read_bytes()) for p in out.iterdir())
        runs[mode] = code, stdout, stderr, written
        if mode == modes:
            result = code, stderr, child_cpu, split
        else:
            assert (child_cpu, split) == (0, None)
    assert runs[modes] == runs["in-order"]
    return result


NAMES = ["a", "b", "x y", "x\r\ny", "é, q\"t"]

# inputs split at a record boundary, each counted in two processes, and
# the flags they are audited with
BOUNDARY = {
    "bom-crlf-blank-lines": (split_after(
        b"\xef\xbb\xbf" + HEADER + b"\r\n" + rows(b"\r\n", NAMES) + b"\r\n\r\n",
        b"\r\n" + rows(b"\r\n", NAMES[::-1]), b"pad,1,0\r\n",
    ), []),
    "u2028-names": (split_after(
        # an unquoted field keeps a quote as a literal
        HEADER + b"\n" + rows(b"\n", ["x\u2028y", "x\u2029y"]) + b'5" tall,1,1\n',
        rows(b"\n", ["x\u2028y", "x\r\ny", "x\ny"]),
    ), []),
    "feff-at-split": (split_after(
        HEADER + b"\n" + rows(b"\n", NAMES),
        "\ufeffa,1,1\n".encode("utf-8") + rows(b"\n", NAMES),
    ), []),
    "columns-delimiter-flip": (split_after(
        b"id;y;g;yhat\nr;1;a;0\nr;0;b;0\n", b"r;1;a;1\nr;0;b;1\n", b"r;1;pad;0\n"
    ), ["--delimiter", ";", "--group-col", "g", "--label-col", "y", "--pred-col", "yhat", "--flip"]),
}


@pytest.mark.parametrize("data, flags", BOUNDARY.values(), ids=BOUNDARY.keys())
def test_split_at_a_record_boundary_matches_one_pass(tmp_path, data, flags):
    code, stderr, child_cpu, split = compare(tmp_path, data, *flags)
    assert (code, stderr, split) == (0, "", True)
    assert child_cpu > 0


def test_quoted_field_across_the_split_is_counted_in_one_pass(tmp_path):
    # the split falls inside a quoted name after its CRLF, where what
    # follows also reads as valid rows: only the first range's strict
    # reader, which refuses to end inside the open quote, can tell
    head = b"label,prediction,group\r\n" + b"1,0,a\r\n" * 8 + b'1,0,"x\r\n'
    tail = b'1,1,b\r\n1,1,c"\r\n' + b"0,1,a\r\n" * 8
    data = split_after(head, tail, b"1,0,pad\r\n")
    code, stderr, _, split = compare(tmp_path, data)
    assert (code, stderr, split) == (0, "", False)


def test_text_after_a_closing_quote_in_the_first_range_is_counted_in_one_pass(tmp_path):
    # the lenient reader of one pass reads "x"y as the name xy; the first
    # range's strict reader refuses it, so the file is counted in one pass
    head = HEADER + b"\n" + rows(b"\n", NAMES) + b'"x"y,1,0\n'
    data = split_after(head, rows(b"\n", NAMES + ["xy"]))
    code, stderr, _, split = compare(tmp_path, data)
    assert (code, stderr, split) == (0, "", False)


def test_text_after_a_closing_quote_in_the_second_range_is_counted_in_one_pass(tmp_path):
    # the second range is read as strictly as the first
    tail = b'"x"y,1,0\n' + rows(b"\n", NAMES + ["xy"])
    data = split_after(HEADER + b"\n" + rows(b"\n", NAMES), tail)
    code, stderr, _, split = compare(tmp_path, data)
    assert (code, stderr, split) == (0, "", False)


@pytest.mark.parametrize("bad", [b"", b"g1,2,1\n"], ids=["counted", "bad-value-in-tail"])
def test_a_file_renamed_over_the_input_is_not_read(tmp_path, bad):
    # just before the child forks, the input path is made to name another
    # file: both ranges, and the one pass after a split that fails, read
    # the file that was opened, as one pass over that file alone does
    good, other = (rows(b"\n", [f"{c}0", f"{c}1", f"{c}2"]) for c in "gh")
    opened = split_after(HEADER + b"\n" + good, good + bad + good)
    other = split_after(HEADER + b"\n" + other, other + other)
    runs = {}
    for mode in ("split,replace", "default"):
        out = tmp_path / mode.replace(",", "-")
        out.mkdir()
        (out / "in.csv").write_bytes(opened)
        (out / "other.csv").write_bytes(other)
        code, _, stdout, stderr, split = run_probe(
            mode, "audit", "--input", "in.csv", "--out-report", "report.json", cwd=out
        )
        report = (out / "report.json").read_bytes() if code == 0 else None
        runs[mode] = code, stdout, stderr, report
        if mode == "default":
            assert split is None
        else:
            assert split is (bad == b"") and (out / "in.csv").read_bytes() == other
    assert runs["split,replace"] == runs["default"]
    # the opened file's fault, at its row
    error = "error [parse]: row 26, column 'label': expected 0 or 1, got '2'\n"
    assert runs["default"][:3] == ((1, "", error) if bad else (0, "", ""))


BAD_ROWS = {
    "bad-value": b"a,2,1\n",
    "short-row": b"a,1\n",
    "oversized-field": b"a,1," + b"1" * 140_000 + b"\n",
    "invalid-utf-8": b"\xe9,1,1\n",
}


@pytest.mark.parametrize("half", ["first", "second"])
@pytest.mark.parametrize("bad", BAD_ROWS.values(), ids=BAD_ROWS.keys())
def test_a_fault_in_either_half_reads_as_in_one_pass(tmp_path, bad, half):
    good = rows(b"\n", NAMES)
    if half == "first":
        data = split_after(HEADER + b"\n" + good + bad + good, good)
    else:
        data = split_after(HEADER + b"\n" + good, good + bad + good)
    code, stderr, _, split = compare(tmp_path, data)
    assert code == 1 and stderr.startswith("error [parse]: ")
    assert split is False


def test_no_pipe_counts_both_ranges_in_the_parent(tmp_path):
    data = split_after(HEADER + b"\n" + rows(b"\n", NAMES), rows(b"\n", NAMES))
    assert compare(tmp_path, data, modes="split,no-pipe") == (0, "", 0, True)


@pytest.mark.parametrize("fault", ["die", "short", "garble"], ids=[
    "killed-at-its-first-row", "message-short", "message-garbled",
])
def test_a_lost_child_leaves_its_range_to_the_parent(tmp_path, fault):
    data = split_after(HEADER + b"\n" + rows(b"\n", NAMES), rows(b"\n", NAMES))
    code, stderr, child_cpu, split = compare(tmp_path, data, modes=f"split,{fault}")
    assert (code, stderr, split) == (0, "", True)
    assert child_cpu > 0


def test_a_parent_count_that_raises_kills_the_child(tmp_path):
    # the parent's range raises a non-CSV error while the child waits at
    # its first row for as long as the parent lives; run_probe asserts
    # that no child is left, and a count that raises records no split flag
    good = rows(b"\n", NAMES)
    path = tmp_path / "in.csv"
    path.write_bytes(split_after(HEADER + b"\n" + good + b"raise,1,0\n" + good, good))
    for mode in ("split,raise,stall", "in-order,raise,stall"):
        code, _, stdout, stderr, split = run_probe(
            mode, "audit", "--input", str(path), "--out-report", os.devnull, cwd=tmp_path
        )
        assert (code, stdout, stderr, split) == ("RuntimeError", "", "", None)


@pytest.mark.parametrize("flags, stdin", [
    (["--input", "in.csv", "--sample", "4", "--seed", "1"], False),
    (["--input", "-"], True),
], ids=["sample", "stdin"])
def test_sample_and_stdin_are_counted_in_one_pass(tmp_path, flags, stdin):
    path = tmp_path / "in.csv"
    path.write_bytes(split_after(HEADER + b"\n" + rows(b"\n", NAMES), rows(b"\n", NAMES)))
    code, child_cpu, _, stderr, split = run_probe(
        "split", "audit", *flags, "--out-report", os.devnull,
        cwd=tmp_path, stdin=path if stdin else None,
    )
    assert (code, stderr, child_cpu, split) == (0, "", 0, None)


@pytest.mark.parametrize("size", [SPLIT_MIN_BYTES - 1, SPLIT_MIN_BYTES])
def test_splits_from_the_threshold_size(tmp_path, size):
    data = HEADER + b"\n" + rows(b"\n", NAMES)
    data += filler(size - len(data))
    assert len(data) == size
    path = tmp_path / "in.csv"
    path.write_bytes(data)
    code, child_cpu, _, stderr, split = run_probe(
        "default", "audit", "--input", str(path), "--out-report", os.devnull, cwd=tmp_path
    )
    assert (code, stderr) == (0, "")
    assert split is (True if size >= SPLIT_MIN_BYTES else None)
    assert (child_cpu > 0) == (size >= SPLIT_MIN_BYTES)
