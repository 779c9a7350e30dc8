"""A standard stream that fails or is closed fails at a named stage.

Every command writes its stdout through one path, which flushes it: a
full device or a pipe whose reader has gone is one ``error [write]``
line and exit 1, with no traceback and no second report of the same
fault when the interpreter exits. Each case runs in a fresh ``-X dev``
interpreter, both with its stdout block-buffered and unbuffered. A
descriptor closed before the process starts (``<&-``, ``>&-``) fails at
``input`` or ``write``.
"""

import errno
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ofi_audit import cli

SRC = Path(__file__).parent.parent / "src"
FIXTURES = Path(__file__).parent / "fixtures"

COMMANDS = {
    "audit": ("audit", "--input", str(FIXTURES / "scenario_a.csv")),
    "dist": ("dist", "--n", "3"),
    "scenario": ("scenario", "1", "0", "0", "5", "7", "0", "1", "10"),
    "verify": ("verify", "--n-max", "3"),
}

WRITE_FAILURES = {
    "full": f"error [write]: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n",
    "pipe": f"error [write]: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n",
}


def closed(stream: str) -> str:
    return f"[Errno {errno.EBADF}] {os.strerror(errno.EBADF)}: '<{stream}>'"


def command(*argv: str) -> list[str]:
    return [sys.executable, "-X", "dev", "-m", "ofi_audit.cli", *argv]


def environment(buffered: bool) -> dict[str, str]:
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return {**env, "PYTHONPATH": str(SRC)}


@pytest.fixture(params=[True, False], ids=["buffered", "unbuffered"])
def env(request) -> dict[str, str]:
    return environment(request.param)


@pytest.mark.parametrize("name", COMMANDS)
def test_a_full_device_is_one_write_error(tmp_path, env, name):
    with open("/dev/full", "wb") as full:
        done = subprocess.run(
            command(*COMMANDS[name]), cwd=tmp_path, env=env, stdout=full,
            stderr=subprocess.PIPE, text=True, timeout=120,
        )
    assert (done.returncode, done.stderr) == (1, WRITE_FAILURES["full"])


@pytest.mark.parametrize("name", COMMANDS)
def test_a_pipe_closed_before_the_first_write_is_one_write_error(tmp_path, env, name):
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    try:
        done = subprocess.run(
            command(*COMMANDS[name]), cwd=tmp_path, env=env, stdout=write_fd,
            stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write_fd)
    assert (done.returncode, done.stderr) == (1, WRITE_FAILURES["pipe"])


def test_a_pipe_closed_after_the_first_line_is_one_write_error(tmp_path, env, big_output):
    # each output is far larger than a pipe holds, so the command is still
    # writing when its reader goes
    argv, first = big_output
    with subprocess.Popen(
        command(*argv), cwd=tmp_path, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    ) as proc:
        assert proc.stdout.readline() == first
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    assert stderr == WRITE_FAILURES["pipe"]


@pytest.fixture(params=["dist", "audit"])
def big_output(request, tmp_path) -> tuple[tuple[str, ...], str]:
    # a 778 kB distribution, and a 1.5 MB report of 100 groups
    if request.param == "dist":
        return ("dist", "--n", "20000"), "score_numerator,score_denominator,multiplicity\n"
    path = tmp_path / "groups.csv"
    rows = "".join(f"g{i % 100},{i // 100 % 2},{i // 200}\n" for i in range(400))
    path.write_text("group,label,prediction\n" + rows, encoding="utf-8")
    return ("audit", "--input", str(path)), "{\n"


def run_shell(script: str, *argv: str, cwd: Path) -> subprocess.CompletedProcess:
    # sh runs ``script`` with the command line as "$@"
    return subprocess.run(
        ["sh", "-c", script, "sh", *argv], cwd=cwd, env=environment(True),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )


def test_a_closed_stdin_fails_at_the_input_stage(tmp_path):
    done = run_shell('"$@" <&-', *command("audit", "--input", "-"), cwd=tmp_path)
    assert (done.returncode, done.stderr) == (1, f"error [input]: {closed('stdin')}\n")


@pytest.mark.parametrize("name", COMMANDS)
def test_a_closed_stdout_fails_at_the_write_stage(tmp_path, name):
    done = run_shell('"$@" >&-', *command(*COMMANDS[name]), cwd=tmp_path)
    assert (done.returncode, done.stderr) == (1, f"error [write]: {closed('stdout')}\n")


def test_a_closed_stdout_beside_a_forked_heatmap_writer_fails_at_the_write_stage(tmp_path):
    # the writer's fork compares the file behind each output with stdout's
    script = (
        "import sys\nfrom ofi_audit import cli\n"
        "cli.FORK_MIN_GROUPS = 2\nsys.exit(cli.main(sys.argv[1:]))\n"
    )
    done = run_shell(
        '"$@" >&-', sys.executable, "-X", "dev", "-c", script,
        "audit", "--input", str(FIXTURES / "scenario_a.csv"), "--out-heatmap-ofi", "ofi.svg",
        cwd=tmp_path,
    )
    assert (done.returncode, done.stderr) == (1, f"error [write]: {closed('stdout')}\n")


def test_no_stdout_is_a_file_of_its_own(monkeypatch):
    monkeypatch.setattr(sys, "stdout", None)
    assert cli._file_key("-", None) == "-"
