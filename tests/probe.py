"""Runs one ``ofi-audit`` invocation in a fresh ``-X dev`` interpreter,
with the CLI's fork settings patched by mode, and reports what became of
its child processes.

A fresh interpreter is needed for three reasons. Under ``-X dev`` a file
or pipe left unclosed prints a ResourceWarning into the stderr that the
tests compare whole. A mode patches module functions and constants, and
those patches must not leak into other tests. And the CPU time of the
children waited for is one process's own count, which the test process
would blur with every child it has ever had.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src"

# modes, joined by commas: "fork" forks the heatmap writer at any group
# count, "split" counts any input file in two processes, "one-core" does
# both on a process that may use one core only, "in-order" has no
# os.fork (the path every other platform takes), "no-pipe" has an
# os.pipe that fails with EMFILE, "die" kills a forked child when it
# renders a heatmap, validates its first new row or streams the size
# STREAM_CHILD_MIN + 1, "stall" has a forked child wait for as long as
# its parent lives when it renders a heatmap or validates a row, "short"
# has a child send its message one byte short, "garble" has it send the
# bytes b"?" for its message (the lost child's work then runs in the
# parent, as with "die"), "raise" makes verify's enumeration, audit's
# report rendering and the validation of a row with a field "raise"
# raise RuntimeError, "replace" renames other.csv in the working
# directory over the --input path when a child is started, before it
# forks, "misscore=N" scores one quadruple of size N wrongly (in parent
# and child alike), "default" leaves the module as it is. The last
# stderr line reports the exit code (or the name of the exception main()
# raised), whether a child is left, the CPU time of the children waited
# for and whether the two-process count was used (true), fell back to
# one pass (false) or was not tried (null).
# Each function is patched in the module that defines it: a command
# imports what it runs from there when it starts.
PROBE = """\
import errno, json, marshal, os, resource, signal, sys, time
from fractions import Fraction
modes, *argv = sys.argv[1:]
modes = set(modes.split(","))
from ofi_audit import audit, cli, exhaustive, heatmap, ingestion
parent = os.getpid()
split = None
if "in-order" in modes:
    del os.fork
if "no-pipe" in modes:
    def no_pipe():
        raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
    os.pipe = no_pipe
if modes & {"fork", "one-core"}:
    cli.FORK_MIN_GROUPS = 2
if modes & {"split", "one-core"}:
    cli.SPLIT_MIN_BYTES = 1
if "one-core" in modes:
    os.sched_getaffinity = lambda pid: {0}
if "die" in modes:
    chunks, validate, stream = heatmap.heatmap_chunks, ingestion._validate, exhaustive.stream
    def die():
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
    def dying_heatmap(grid):
        die()
        yield from chunks(grid)
    def dying_validate(*args):
        die()
        return validate(*args)
    def dying_stream(n):
        if n == cli.STREAM_CHILD_MIN + 1:
            die()
        return stream(n)
    heatmap.heatmap_chunks = dying_heatmap
    ingestion._validate = dying_validate
    exhaustive.stream = dying_stream
if "stall" in modes:
    chunks, validate = heatmap.heatmap_chunks, ingestion._validate
    def stall():
        while os.getpid() != parent and os.getppid() == parent:
            time.sleep(0.01)
    def stalling_heatmap(grid):
        stall()
        yield from chunks(grid)
    def stalling_validate(*args):
        stall()
        return validate(*args)
    heatmap.heatmap_chunks = stalling_heatmap
    ingestion._validate = stalling_validate
if "short" in modes:
    dumps = marshal.dumps
    marshal.dump = lambda value, file: file.write(dumps(value)[:-1])
if "garble" in modes:
    marshal.dump = lambda value, file: file.write(b"?")
if "raise" in modes:
    def raising(*args):
        raise RuntimeError("raised on purpose")
        yield
    exhaustive.enumerations = raising
    audit.report_chunks = raising
    checked = ingestion._validate
    def raising_validate(row, *args):
        if "raise" in row:
            raise RuntimeError("raised on purpose")
        return checked(row, *args)
    ingestion._validate = raising_validate
if "replace" in modes:
    child = cli._child
    def replacing(work):
        os.replace("other.csv", argv[argv.index("--input") + 1])
        return child(work)
    cli._child = replacing
for mode in modes:
    if mode.startswith("misscore="):
        size = int(mode.split("=")[1])
        scored = exhaustive.marginal_benefit
        def misscored(cm):
            if cm.n == size and (cm.tp, cm.fn, cm.fp) == (0, 0, 0):
                return Fraction(1, size)
            return scored(cm)
        exhaustive.marginal_benefit = misscored
count_split = cli._count_split
def recorded(*args):
    global split
    table = count_split(*args)
    split = table is not None
    return table
cli._count_split = recorded
try:
    code = cli.main(argv)
except Exception as exc:
    code = type(exc).__name__
sys.stdout.flush()
try:
    os.waitpid(-1, os.WNOHANG)
    left = True
except ChildProcessError:
    left = False
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
print(json.dumps([code, left, usage.ru_utime + usage.ru_stime, split]), file=sys.stderr)
"""


def run_probe(
    mode: str, *argv: str, cwd: Path, stdin: Path | None = None
) -> tuple[int | str, float, str, str, bool | None]:
    """(exit code or the name of the exception raised, children's CPU
    seconds, stdout, stderr, two-process count used) of one invocation in
    ``mode`` (modes joined by commas), reading ``stdin`` if given."""
    with open(stdin or os.devnull, "rb") as source:
        done = subprocess.run(
            [sys.executable, "-X", "dev", "-c", PROBE, mode, *argv],
            cwd=cwd, env={**os.environ, "PYTHONPATH": str(SRC)}, stdin=source,
            capture_output=True, text=True, encoding="utf-8", timeout=120,
        )
    *err, last = done.stderr.splitlines(keepends=True)
    code, left, child_cpu, split = json.loads(last)
    assert not left, "a child process outlived main()"
    return code, child_cpu, done.stdout, "".join(err), split
