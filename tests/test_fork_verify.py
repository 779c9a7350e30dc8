"""The verify stream check, its largest sizes walked in a forked child.

On Linux, in a process with one thread that may use two or more cores,
``verify`` forks one child before numpy loads. The child streams the
sizes from ``STREAM_CHILD_MIN`` to the top of the stream span, while the
parent enumerates, runs the other checks and streams the smaller sizes.
The parent compares each of the child's records where it would have
streamed that size. The child is only a speed-up: when it cannot be had,
exits nonzero or sends a message that does not decode, the parent
streams its sizes itself. Each case runs in a fresh ``-X dev``
interpreter (see probe.py) and is compared with the path that has no
``os.fork``: stdout, stderr and exit code must be the same.
"""

import pytest
from probe import run_probe

from ofi_audit.cli import STREAM_CHILD_MIN
from ofi_audit.verification import STREAM_CHECK_MAX


def in_order(tmp_path, *argv: str, modes: str = "") -> tuple[int, str, str]:
    # the one-process run: exit code, stdout and stderr
    code, child_cpu, stdout, stderr, _ = run_probe(
        ",".join(filter(None, ["in-order", modes])), "verify", *argv, cwd=tmp_path
    )
    assert child_cpu == 0
    return code, stdout, stderr


@pytest.mark.parametrize("argv", [
    ("--n-max", "40"),
    ("--n-max", "45"),
    ("--n-min", "35", "--n-max", "38"),
], ids=["stream-span", "past-the-span", "inside-the-span"])
def test_forked_stream_matches_the_in_order_path(tmp_path, argv):
    code, child_cpu, stdout, stderr, _ = run_probe("default", "verify", *argv, cwd=tmp_path)
    assert child_cpu > 0
    assert (code, stdout, stderr) == in_order(tmp_path, *argv)
    assert code == 0 and stderr == ""


@pytest.mark.parametrize("argv", [
    ("--n-max", str(STREAM_CHILD_MIN - 1)),
    ("--n-min", str(STREAM_CHECK_MAX + 1), "--n-max", "45"),
], ids=["below-the-child-sizes", "above-the-stream-span"])
def test_no_child_without_child_sizes(tmp_path, argv):
    code, child_cpu, stdout, stderr, _ = run_probe("default", "verify", *argv, cwd=tmp_path)
    assert child_cpu == 0
    assert (code, stdout, stderr) == in_order(tmp_path, *argv)


@pytest.mark.parametrize("mode", ["one-core", "in-order"])
def test_one_usable_core_or_no_fork_streams_in_one_process(tmp_path, mode):
    code, child_cpu, stdout, stderr, _ = run_probe(mode, "verify", "--n-max", "40", cwd=tmp_path)
    assert (code, stderr, child_cpu) == (0, "", 0)
    assert stdout.endswith("all identities hold for n in [1, 40]\n")


def test_no_pipe_streams_in_one_process(tmp_path):
    argv = ("--n-max", "40")
    code, child_cpu, stdout, stderr, split = run_probe("no-pipe", "verify", *argv, cwd=tmp_path)
    assert (child_cpu, split) == (0, None)
    assert (code, stdout, stderr) == in_order(tmp_path, *argv)
    assert (code, stderr) == (0, "")


@pytest.mark.parametrize("size", [5, STREAM_CHILD_MIN + 2], ids=["parent-size", "child-size"])
def test_stream_fault_fails_with_the_one_process_line(tmp_path, size):
    assert (size >= STREAM_CHILD_MIN) == (size > 5)
    argv = ("--n-max", "40")
    code, child_cpu, stdout, stderr, _ = run_probe(
        f"default,misscore={size}", "verify", *argv, cwd=tmp_path
    )
    assert child_cpu > 0
    assert (code, stdout, stderr) == in_order(tmp_path, *argv, modes=f"misscore={size}")
    assert (code, stderr) == (1, "identity check failed\n")
    failures = [line for line in stdout.splitlines() if line.startswith("FAIL")]
    assert failures == [
        f"FAIL stream-equivalence: tuple stream agrees with the enumeration kernels "
        f"(n <= {STREAM_CHECK_MAX})  [n={size}: stream route disagrees with kernels]"
    ]


@pytest.mark.parametrize("mode", ["die", "short", "garble"], ids=[
    "killed-mid-stream", "message-short-of-a-record", "message-not-a-record",
])
def test_a_child_that_fails_is_streamed_again(tmp_path, mode):
    argv = ("--n-max", "40")
    code, child_cpu, stdout, stderr, _ = run_probe(mode, "verify", *argv, cwd=tmp_path)
    assert child_cpu > 0
    assert (code, stdout, stderr) == in_order(tmp_path, *argv)
    assert (code, stderr) == (0, "")


def test_a_parent_that_raises_reaps_its_child(tmp_path):
    # run_probe asserts that no child outlived main()
    code, _, stdout, stderr, _ = run_probe("raise", "verify", "--n-max", "40", cwd=tmp_path)
    assert (code, stdout, stderr) == ("RuntimeError", "", "")


@pytest.mark.parametrize("argv, line", [
    (("--n-max", "501"),
     "error [verify]: n_max 501 exceeds the enumeration guard 500; full enumeration is O(n^3)\n"),
    (("--n-min", "0"), "error [verify]: need 1 <= n_min <= n_max, got [0, 40]\n"),
], ids=["past-the-guard", "n-min-zero"])
def test_range_error_forks_no_child(tmp_path, argv, line):
    assert run_probe("default", "verify", *argv, cwd=tmp_path) == (1, 0, "", line, None)
