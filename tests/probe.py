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

# modes, joined by commas: "fork" forks the heatmap writer at any group
# count, "split" counts any input file in two processes, "one-core" does
# both on a process that may use one core only, "in-order" has no os.fork
# (the path every other platform takes), "die" kills a forked heatmap
# writer while it renders and a forked verify stream child at n = 36,
# "short" has the stream child send every record but its last and exit 0,
# "garble" has it send bytes that are no record, "raise" makes verify's
# enumeration raise RuntimeError, "misscore=N" scores one quadruple of
# size N wrongly (in parent and child alike), "default" leaves the module
# as it is. The last stderr line reports the exit code (or the name of
# the exception main() raised), whether a child is left, the CPU time of
# the children waited for and whether the two-process count was used
# (true), fell back to one pass (false) or was not tried (null).
PROBE = """\
import json, os, resource, signal, sys
from fractions import Fraction
from ofi_audit import cli, exhaustive
modes, *argv = sys.argv[1:]
modes = set(modes.split(","))
parent = os.getpid()
split = None
if "in-order" in modes:
    del os.fork
if modes & {"fork", "die", "one-core"}:
    cli.FORK_MIN_GROUPS = 2
if modes & {"split", "one-core"}:
    cli.SPLIT_MIN_BYTES = 1
if "one-core" in modes:
    os.sched_getaffinity = lambda pid: {0}
if "die" in modes:
    def dying(grid):
        os.kill(os.getpid(), signal.SIGKILL)
        yield ""
    cli.heatmap_chunks = dying
    stream = exhaustive.stream
    def dying_stream(n):
        if os.getpid() != parent and n == 36:
            os.kill(os.getpid(), signal.SIGKILL)
        return stream(n)
    exhaustive.stream = dying_stream
stream_sizes = cli._stream_sizes
if "short" in modes:
    cli._stream_sizes = lambda sizes, pipe: stream_sizes(sizes[:-1], pipe)
if "garble" in modes:
    cli._stream_sizes = lambda sizes, pipe: pipe.write(b"?")
if "raise" in modes:
    def raising(n_min, n_max):
        raise RuntimeError("enumeration failed")
        yield
    exhaustive.enumerations = raising
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
