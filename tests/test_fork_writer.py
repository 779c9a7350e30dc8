"""The audit heatmaps written by a forked child process.

From ``FORK_MIN_GROUPS`` groups on, on Linux and in a process with one
thread, ``audit`` forks one child that writes the heatmaps while the
parent writes the report and grid CSVs. Each case runs in a fresh
``-X dev`` interpreter (see probe.py). Every input here is far below
``SPLIT_MIN_BYTES``, so any child process is the heatmap writer.
"""

import errno
import os
from pathlib import Path

import pytest
from probe import run_probe

from ofi_audit.cli import CHILD_DIED, FORK_MIN_GROUPS

OUTPUTS = ("report.json", "ofi.svg", "di.svg", "grid.ofi.csv", "grid.di.csv")


def write_input(path: Path, groups: int) -> Path:
    # names that JSON, CSV and XML each escape; one group with no positive
    # prediction gives undefined and contextual DI cells
    names = ["a&b", 'q"t', "é<>", "c,d"] + [f"g{i:03d}" for i in range(groups - 4)]
    rows = ["group,label,prediction"]
    for i, name in enumerate(names[:groups]):
        quoted = '"' + name.replace('"', '""') + '"'
        for r in range(i % 5 + 1):
            rows.append(f"{quoted},{(i + r) % 2},{0 if i == 1 else (i * r) % 3 % 2}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def every_output(out: Path) -> list[str]:
    return ["--out-report", str(out / "report.json"),
            "--out-heatmap-ofi", str(out / "ofi.svg"), "--out-heatmap-di", str(out / "di.svg"),
            "--out-grid-csv", str(out / "grid")]


def test_forked_outputs_match_the_in_order_path(tmp_path):
    data = write_input(tmp_path / "in.csv", 12)
    written = {}
    for mode in ("fork", "in-order"):
        out = tmp_path / mode
        out.mkdir()
        code, child_cpu, stdout, stderr, _ = run_probe(
            mode, "audit", "--input", str(data), *every_output(out), cwd=tmp_path
        )
        assert (code, stdout, stderr) == (0, "", "")
        assert (child_cpu > 0) == (mode == "fork")
        written[mode] = [(out / name).read_bytes() for name in OUTPUTS]
    assert written["fork"] == written["in-order"]


def test_one_usable_core_runs_no_child(tmp_path):
    # the heatmap writer and the two-process count both need a second core
    data = write_input(tmp_path / "in.csv", 12)
    written = {}
    for mode in ("one-core", "in-order"):
        out = tmp_path / mode
        out.mkdir()
        code, child_cpu, stdout, stderr, split = run_probe(
            mode, "audit", "--input", str(data), *every_output(out), cwd=tmp_path
        )
        assert (code, stdout, stderr, child_cpu, split) == (0, "", "", 0, None)
        written[mode] = [(out / name).read_bytes() for name in OUTPUTS]
    assert written["one-core"] == written["in-order"]


@pytest.mark.parametrize("groups", [FORK_MIN_GROUPS - 1, FORK_MIN_GROUPS])
def test_forks_from_the_threshold_group_count(tmp_path, groups):
    data = write_input(tmp_path / "in.csv", groups)
    code, child_cpu, _, stderr, _ = run_probe(
        "default", "audit", "--input", str(data), "--out-report", os.devnull,
        "--out-heatmap-ofi", "ofi.svg", "--out-heatmap-di", "di.svg", cwd=tmp_path,
    )
    assert (code, stderr) == (0, "")
    assert (child_cpu > 0) == (groups >= FORK_MIN_GROUPS)


TOO_LONG = "x" * 300


def too_long(path: str) -> str:
    return f"error [write]: [Errno {errno.ENAMETOOLONG}] {os.strerror(errno.ENAMETOOLONG)}: {path!r}\n"


@pytest.mark.parametrize("flags, message", [
    # the child's error, in the parent's words
    (["--out-heatmap-ofi", TOO_LONG + ".svg"], too_long(TOO_LONG + ".svg")),
    # the report comes first, though the heatmaps are written
    (["--out-report", TOO_LONG + ".json", "--out-heatmap-ofi", "ofi.svg",
      "--out-heatmap-di", "di.svg"], too_long(TOO_LONG + ".json")),
    # the DI heatmap (child) comes before the grid CSVs (parent)
    (["--out-heatmap-ofi", "ofi.svg", "--out-heatmap-di", TOO_LONG + ".svg",
      "--out-grid-csv", TOO_LONG], too_long(TOO_LONG + ".svg")),
], ids=["heatmap", "report-first", "heatmap-before-csv"])
def test_first_failing_output_in_order_is_reported(tmp_path, flags, message):
    data = write_input(tmp_path / "in.csv", 6)
    argv = ["audit", "--input", str(data), "--out-report", os.devnull, *flags]
    for mode in ("fork", "in-order"):
        code, child_cpu, stdout, stderr, _ = run_probe(mode, *argv, cwd=tmp_path)
        assert (code, stdout, stderr) == (1, "", message)
        assert (child_cpu > 0) == (mode == "fork")


def test_a_child_that_dies_fails_the_write_stage(tmp_path):
    data = write_input(tmp_path / "in.csv", 6)
    code, child_cpu, _, stderr, _ = run_probe(
        "die", "audit", "--input", str(data), *every_output(tmp_path), cwd=tmp_path
    )
    assert (code, stderr) == (1, f"error [write]: {CHILD_DIED}\n")
    assert child_cpu > 0


@pytest.mark.parametrize("flags, held, existing", [
    (["--out-report", "report.json", "--out-heatmap-ofi", "-"], "stdout", False),
    (["--out-report", "report.json", "--out-heatmap-ofi", os.devnull], None, False),
    # the later output wins the shared file, as in order
    (["--out-report", "same.svg", "--out-heatmap-ofi", "./same.svg"], "same.svg", False),
    (["--out-report", "same.svg", "--out-heatmap-ofi", "./same.svg"], "same.svg", True),
], ids=["stdout", "devnull", "same-new-file", "same-existing-file"])
def test_heatmaps_that_stay_in_the_parent(tmp_path, flags, held, existing):
    data = write_input(tmp_path / "in.csv", 6)
    written = {}
    for mode in ("fork", "in-order"):
        out = tmp_path / mode
        out.mkdir()
        if existing:
            (out / "same.svg").write_text("old\n")
        code, child_cpu, stdout, stderr, _ = run_probe(
            mode, "audit", "--input", str(data), *flags, cwd=out
        )
        assert (code, stderr, child_cpu) == (0, "", 0)
        written[mode] = stdout, sorted((p.name, p.read_bytes()) for p in out.iterdir())
    assert written["fork"] == written["in-order"]
    stdout, files = written["fork"]
    if held == "stdout":
        assert stdout.startswith("<?xml")
    elif held:
        assert dict(files)[held].startswith(b"<?xml")
