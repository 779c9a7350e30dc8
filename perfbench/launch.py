"""Start one command, wait for it, and report its wall time and rusage.

Usage: python launch.py RESULT_JSON TIMEOUT_S STDOUT STDERR -- ARGV...

run.py starts every measured process through this helper. On Linux a
child's ru_maxrss also counts the peak RSS of the process that spawned
it, and the benchmark process grows while it generates inputs and checks
outputs. This helper imports nothing beyond the standard library and stays
far smaller than any ofi-audit invocation, so the maxrss it reads is the
invocation's own.

RESULT_JSON receives {"wall_s", "maxrss_kib", "cpu_s", "exit_code"}, with
exit_code null when the command was killed after TIMEOUT_S seconds.
"""

import json
import os
import select
import signal
import sys
from time import perf_counter


def main() -> int:
    result_path, timeout, stdout, stderr, separator, *argv = sys.argv[1:]
    if separator != "--" or not argv:
        raise SystemExit("usage: launch.py RESULT_JSON TIMEOUT_S STDOUT STDERR -- ARGV...")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr, flags, 0o644),
    ]
    start = perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        finished, _, _ = select.select([pidfd], [], [], float(timeout))
        if not finished:
            os.kill(pid, signal.SIGKILL)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    finally:
        os.close(pidfd)
    _, status, usage = os.wait4(pid, 0)
    wall = perf_counter() - start
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({
            "wall_s": wall,
            "maxrss_kib": usage.ru_maxrss,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "exit_code": os.waitstatus_to_exitcode(status) if finished else None,
        }, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
