"""Runs one ``ofi-audit`` invocation in a fresh ``-X dev`` interpreter,
with the CLI's fork settings patched by mode, and reports what became of
its child processes.

A fresh interpreter is needed because the test process has loaded
numpy, whose thread pool keeps the CLI on its one-process paths. Under
``-X dev`` a file or pipe left unclosed prints a ResourceWarning into
the stderr that the tests compare whole.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src"

# modes: "fork" forks the heatmap writer at any group count, "split"
# counts any input file in two processes, "one-core" does both on a
# process that may use one core only, "in-order" has no os.fork (the path
# every other platform takes), "die" forks a heatmap writer that is
# killed while it renders, "default" leaves the module as it is. The last
# stderr line reports the exit code, whether a child is left, the CPU
# time of the children waited for and whether the two-process count was
# used (true), fell back to one pass (false) or was not tried (null).
PROBE = """\
import json, os, resource, signal, sys
from ofi_audit import cli
mode, *argv = sys.argv[1:]
split = None
if mode == "in-order":
    del os.fork
if mode in ("fork", "die", "one-core"):
    cli.FORK_MIN_GROUPS = 2
if mode in ("split", "one-core"):
    cli.SPLIT_MIN_BYTES = 1
if mode == "one-core":
    os.sched_getaffinity = lambda pid: {0}
if mode == "die":
    def dying(grid):
        os.kill(os.getpid(), signal.SIGKILL)
        yield ""
    cli.heatmap_chunks = dying
count_split = cli._count_split
def recorded(*args):
    global split
    table = count_split(*args)
    split = table is not None
    return table
cli._count_split = recorded
code = cli.main(argv)
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
) -> tuple[int, float, str, str, bool | None]:
    """(exit code, children's CPU seconds, stdout, stderr, two-process
    count used) of one invocation, reading ``stdin`` if given."""
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
