"""Command-line interface: audit, scenario, dist and verify subcommands.

Each command imports the package modules it runs when it starts, so
``--version``, ``--help`` and a usage error load none of them, ``dist``
loads no audit-side module and ``verify`` no module of ``audit``'s input
or output. ``io`` and ``marshal`` are imported here because the
interpreter has loaded both before any module of the package runs.
"""

from __future__ import annotations

import argparse
import errno
import io
import marshal
import os
import stat
import sys
from contextlib import contextmanager, nullcontext, suppress
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, TextIO, TypeVar

from . import __version__

if TYPE_CHECKING:
    from fractions import Fraction

    from .audit import AuditConfig
    from .exhaustive import Enumeration
    from .ingestion import ColumnSchema, GroupTable


def _fraction_arg(text: str) -> Fraction:
    # accepts "3/10" as well as exact decimal text like "0.3"
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _fail(stage: str, message: str) -> int:
    print(f"error [{stage}]: {message}", file=sys.stderr)
    return 1


def _std_stream(name: str) -> TextIO:
    # sys.stdin or sys.stdout, which is None when the process started
    # with that descriptor closed
    stream = getattr(sys, name)
    if stream is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF), f"<{name}>")
    return stream


@contextmanager
def _open_input(path: str) -> Iterator[TextIO]:
    # newline="" keeps line separators inside quoted fields as data, and
    # utf-8-sig drops a leading byte order mark
    if path != "-":
        with open(path, encoding="utf-8-sig", newline="") as handle:
            yield handle
        return
    handle = io.TextIOWrapper(_std_stream("stdin").buffer, encoding="utf-8-sig", newline="")
    try:
        yield handle
    finally:
        handle.detach()  # leave stdin open


def _decode_error_text(exc: UnicodeDecodeError, handle: TextIO) -> str:
    # the codec's position is inside the chunk it was given; the chunk
    # ends where the byte stream now stands
    text = f"input is not UTF-8: can't decode byte 0x{exc.object[exc.start]:02x}"
    if handle.buffer.seekable():
        offset = handle.buffer.tell() - len(exc.object) + exc.start
        text += f" at offset {offset}"
    return f"{text}: {exc.reason}"


def _write_text(path: str, chunks: Iterable[str]) -> None:
    # written as rendered, so no whole output is held in memory
    if path == "-":
        stdout = _std_stream("stdout")
        try:
            stdout.writelines(chunks)
            stdout.flush()
        except OSError:
            # closing drops the bytes still buffered, which the interpreter
            # would write again, and fail on again, when it exits
            with suppress(OSError):
                stdout.close()
            raise
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(chunks)


Output = tuple[str, Iterable[str]]
T = TypeVar("T")

#: Group count from which ``audit`` renders its heatmaps in a forked child
#: while it writes the report and grid CSVs itself. In A/B runs on 2 vCPUs
#: the fork never won at 8 or 30 groups and lost some run sets at 100 and
#: 150, where a host that lent no second core left only the fork's cost
#: and the two processes' contention; from 200 on it won every set. Re-run
#: once the heatmap took its colors from a step table (whole invocations,
#: 3 sets of 8 alternating pairs per size), the forked median was 13-29%
#: below the in-order one at 150 groups, 21-22% at 200 and 17-33% at 300,
#: and the fork was faster in 7 or 8 of the 8 pairs of every set.
FORK_MIN_GROUPS = 200

#: Input file size from which ``audit`` counts the rows in two processes,
#: the file split at the first LF at or after its middle byte. In A/B runs
#: of whole invocations on 2 vCPUs (4 sets of 11 pairs per size, cut from
#: the ``audit_rows`` input), the split lost the set where the host lent no
#: second core by 4-6% in median at 1, 2 and 4 MiB; from 8 MiB on it won
#: every set in median, by 25-34% at 8 MiB and 33-39% at 16 MiB.
SPLIT_MIN_BYTES = 8 << 20

#: Smallest size that ``verify`` streams in a forked child: the child
#: walks the sizes from here to the top of the stream span while the
#: parent enumerates and streams the sizes below. Stream cost grows as
#: C(n+3, 3), so 35..40 hold 62k of the 136k quadruples in 1..40. In two
#: sets of 10 interleaved rounds on 2 vCPUs (time after the CLI import),
#: the medians from 32, 33, 34 and 35 were 0.52, 0.47, 0.46 and 0.42 s,
#: then 0.48, 0.44, 0.44 and 0.41 s, at ``--n-max 200``; and 0.35, 0.39,
#: 0.36 and 0.35 s, then 0.43, 0.37, 0.37 and 0.35 s, at ``--n-max 40``.
STREAM_CHILD_MIN = 35

def _check_output(path: str) -> os.stat_result | None:
    """The status of the file an output path names, or None for one that
    is not there yet. A directory, or a new file in a directory that is
    not there, raises the error open() would raise, before any output is
    opened; any other fault is left for open() to report."""
    try:
        status = os.stat(path)
    except FileNotFoundError:
        if os.path.isdir(os.path.dirname(path.rstrip("/")) or "."):
            return None
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path) from None
    except OSError:
        return None
    if stat.S_ISDIR(status.st_mode):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    return status


def _file_key(path: str, status: os.stat_result | None) -> object:
    # one key per file, whatever path names it
    if path == "-":
        try:
            status = os.fstat(_std_stream("stdout").fileno())
        except (OSError, ValueError):  # a stdout with no file behind it
            return path
    elif status is None:
        return os.path.realpath(path)
    return status.st_dev, status.st_ino


def _child_outputs(
    outputs: list[Output], statuses: list[os.stat_result | None], heatmaps: list[int]
) -> list[int]:
    """The heatmaps a forked child can write: each names a regular file,
    or one not there yet, that no other output names."""
    keys = [_file_key(path, status) for (path, _), status in zip(outputs, statuses)]
    return [
        i for i in heatmaps
        if outputs[i][0] != "-"
        and (statuses[i] is None or stat.S_ISREG(statuses[i].st_mode))
        and keys.count(keys[i]) == 1
    ]


def _can_fork() -> bool:
    # fork copies only the calling thread, so a lock that another thread
    # holds (a library caller's worker thread, say) would stay held in the
    # child; on one usable core a second process adds only its own cost
    if sys.platform != "linux" or not hasattr(os, "fork"):
        return False
    try:
        return len(os.listdir("/proc/self/task")) == 1 and len(os.sched_getaffinity(0)) >= 2
    except OSError:
        return False


@contextmanager
def _child(work: Callable[[], T]) -> Iterator[Callable[[], T]]:
    """Fork a child process that runs ``work`` and sends its value as one
    ``marshal`` message; yield a function that returns that value. The
    child is only a speed-up: the function runs ``work`` in this process
    when no pipe or process can be had, the child exits nonzero or its
    message does not decode. A child whose value is not taken in the block
    is killed and waited for when the block ends. The child leaves by
    os._exit: no at-exit code runs and no buffer it inherited is flushed,
    since the parent owns both."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        yield work
        return
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        yield work
        return
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                marshal.dump(work(), pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    status = None

    def result() -> T:
        nonlocal status
        with pipe:
            message = pipe.read()
        status = os.waitpid(pid, 0)[1]
        if not status:
            try:
                return marshal.loads(message)
            except (EOFError, ValueError):
                pass
        return work()

    with open(read_fd, "rb") as pipe:
        try:
            yield result
        finally:
            if status is None:
                # loaded here: building its enums costs every run a ms
                from signal import SIGKILL

                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)


def _write_first(outputs: list[Output], indices: Iterable[int]) -> tuple[int, str] | None:
    # writes the outputs at ``indices`` up to the first that fails: its (index, error text)
    for index in indices:
        try:
            _write_text(*outputs[index])
        except (OSError, ValueError) as exc:
            return index, str(exc)


def _write_stdout(chunks: Iterable[str]) -> int:
    # a command's whole stdout: exit code 0, or 1 with its write error
    failure = _write_first([("-", chunks)], [0])
    return 0 if failure is None else _fail("write", failure[1])


def _write_outputs(outputs: list[Output], child: list[int]) -> tuple[int, str] | None:
    """Write every output, those at the positions ``child`` in a forked
    child process, and return the (index, error text) of the first output
    that fails, in output order, or None."""
    rest = [index for index in range(len(outputs)) if index not in child]
    if not child:
        return _write_first(outputs, rest)
    with _child(partial(_write_first, outputs, child)) as written:
        failures = [f for f in (_write_first(outputs, rest), written()) if f]
    return min(failures, default=None)


class _ByteRange:
    """The bytes [start, stop) of an open file, or to its end for a stop of
    None, as the buffer of a TextIOWrapper, read with os.pread, which moves
    no file offset. Not an io.RawIOBase under a BufferedReader: the wrapper
    then checks ``closed`` through both layers for every line it yields."""

    closed = False

    def __init__(self, fd: int, start: int, stop: int | None):
        self.fd, self.pos, self.stop = fd, start, stop

    def readable(self) -> bool:
        return True

    def writable(self) -> bool:
        return False

    def seekable(self) -> bool:
        return False

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    def read1(self, size: int) -> bytes:
        if self.stop is not None:
            size = min(size, self.stop - self.pos)
        data = os.pread(self.fd, size, self.pos)
        self.pos += len(data)
        return data


def _range_rows(fd: int, start: int, stop: int | None, delimiter: str) -> Iterator[list[str]]:
    # the strict reader of one pass: a range that ends inside a quoted
    # field, off a record boundary, raises "unexpected end of data"
    # instead of yielding the open field; a U+FEFF past offset 0 is data,
    # as it is in one pass
    from .ingestion import read_rows

    encoding = "utf-8-sig" if start == 0 else "utf-8"
    text = io.TextIOWrapper(_ByteRange(fd, start, stop), encoding=encoding, newline="")
    return read_rows(text, delimiter)


def _split_point(fd: int, size: int) -> int:
    # the offset just past the first LF at or after the middle byte
    pos = size // 2
    while chunk := os.pread(fd, 1 << 16, pos):
        lf = chunk.find(b"\n")
        if lf >= 0:
            return pos + lf + 1
        pos += len(chunk)
    return pos


def _count_tail(
    fd: int, split: int, positions: dict[str, int], schema: ColumnSchema,
    delimiter: str,
) -> dict[str, list[int]] | None:
    # the counts from ``split`` to the end of the file, or None for a fault,
    # which one pass reports
    import csv

    from .ingestion import count_rows

    try:
        return count_rows(_range_rows(fd, split, None, delimiter), positions, schema)
    except (OSError, ValueError, csv.Error):
        return None


def _count_split(fd: int, size: int, schema: ColumnSchema, delimiter: str) -> GroupTable | None:
    """Count the rows of the open file ``fd``, ``size`` bytes long, in two
    processes that read it by offset: a forked child counts the bytes from
    the first LF at or after the middle byte on, this process those before
    it. Return None when there is no such LF, the split is not a record
    boundary or either count fails; one pass then reads the file, and
    reports any fault."""
    import csv

    from .ingestion import GroupTable, count_rows, header_positions

    try:
        split = _split_point(fd, size)
        if split >= size:
            return None
        head = _range_rows(fd, 0, split, delimiter)
        positions = header_positions(head, schema)
        with _child(partial(_count_tail, fd, split, positions, schema, delimiter)) as counted:
            counts = count_rows(head, positions, schema)
            tail = counted()
    except (OSError, ValueError, csv.Error):
        return None
    if tail is None:
        return None
    for name, quad in tail.items():
        total = counts.setdefault(name, [0, 0, 0, 0])
        for cell, value in enumerate(quad):
            total[cell] += value
    return GroupTable.from_counts(counts)


def _add_thresholds(parser: argparse.ArgumentParser) -> None:
    # a threshold left out takes AuditConfig's default (see _thresholds)
    parser.add_argument(
        "--ofi-threshold", type=_fraction_arg,
        help="no-bias band half-width for OFI verdicts (default 3/10)",
    )
    parser.add_argument(
        "--di-low", type=_fraction_arg,
        help="lower edge of the DI no-bias band (default 4/5)",
    )
    parser.add_argument(
        "--di-high", type=_fraction_arg,
        help="upper edge of the DI no-bias band (default 5/4)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ofi-audit",
        description="Group-fairness auditing with the Objective Fairness Index "
        "and disparate impact, plus exact confusion-matrix combinatorics.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_audit = sub.add_parser(
        "audit", help="audit a CSV of per-record (group, label, prediction) data"
    )
    p_audit.add_argument("--input", required=True, help="CSV path, or - for stdin")
    p_audit.add_argument("--group-col", default="group", help="group column name")
    p_audit.add_argument("--label-col", default="label", help="label column name")
    p_audit.add_argument("--pred-col", default="prediction", help="prediction column name")
    p_audit.add_argument("--delimiter", default=",", help="field delimiter (default ,)")
    p_audit.add_argument(
        "--flip",
        action="store_true",
        help="complement labels and predictions (use when the negative label is the beneficial one)",
    )
    p_audit.add_argument(
        "--group-order", default=None, metavar="A,B,...",
        help="comma-separated group order for grids and pair direction (default lexicographic)",
    )
    p_audit.add_argument(
        "--sample", type=int, default=None,
        help="audit a uniform sample (without replacement) of this many records; needs --seed",
    )
    p_audit.add_argument("--seed", type=int, default=None, help="RNG seed for --sample")
    _add_thresholds(p_audit)
    p_audit.add_argument(
        "--out-report", default="-", help="report JSON path, or - for stdout (default)"
    )
    p_audit.add_argument("--out-heatmap-ofi", default=None, help="OFI heatmap SVG path")
    p_audit.add_argument("--out-heatmap-di", default=None, help="DI heatmap SVG path")
    p_audit.add_argument(
        "--out-grid-csv", default=None, metavar="PREFIX",
        help="write PREFIX.ofi.csv and PREFIX.di.csv grid exports",
    )

    p_scenario = sub.add_parser(
        "scenario", help="score two inline confusion matrices against each other"
    )
    # one positional per cell: argparse cannot write a tuple metavar
    for group in "ij":
        for cell in ("tp", "fn", "fp", "tn"):
            p_scenario.add_argument(
                f"{cell}_{group}", metavar=f"{cell}_{group}".upper(), type=int,
                help=f"{cell} count of group {group}",
            )
    _add_thresholds(p_scenario)

    p_dist = sub.add_parser(
        "dist", help="marginal-benefit score distribution over all confusion matrices of size n"
    )
    p_dist.add_argument("--n", type=int, required=True, help="sample size, at least 1")

    p_verify = sub.add_parser(
        "verify", help="check every counting/distribution identity against full enumeration"
    )
    p_verify.add_argument("--n-min", type=int, default=1, help="smallest n (default %(default)s)")
    p_verify.add_argument("--n-max", type=int, default=40, help="largest n (default %(default)s)")

    return parser


def _thresholds(args: argparse.Namespace) -> dict[str, Fraction]:
    # the threshold options given; AuditConfig holds the defaults of the rest
    return {
        name: value for name in ("ofi_threshold", "di_low", "di_high")
        if (value := getattr(args, name)) is not None
    }


def cmd_audit(args: argparse.Namespace) -> int:
    from .audit import (
        AuditConfig,
        InsufficientGroupsError,
        build_report,
        grid_csv_chunks,
        report_chunks,
    )
    from .ingestion import ColumnSchema, aggregate, flip_polarity, iter_records
    from .metrics import ThresholdError

    if args.sample is not None:
        if args.seed is None:
            return _fail("config", "--sample requires --seed for reproducibility")
        if args.sample < 1:
            return _fail("config", f"--sample must be >= 1, got {args.sample}")
    if len(args.delimiter) != 1 or args.delimiter in '"\r\n':
        return _fail(
            "config",
            "--delimiter must be one character other than a quote, CR or LF, "
            f"got {args.delimiter!r}",
        )

    group_order = None
    if args.group_order:
        group_order = tuple(name.strip() for name in args.group_order.split(","))
    try:
        config = AuditConfig(**_thresholds(args), group_order=group_order)
    except ThresholdError as exc:
        return _fail("config", str(exc))

    schema = ColumnSchema(
        group=args.group_col, label=args.label_col, prediction=args.pred_col
    )
    table = None
    try:
        with _open_input(args.input) as handle:
            # a large regular file is counted in two processes that read
            # this open file by offset; one pass over ``handle``, still
            # unread, is the fallback, and it reports every fault
            if args.sample is None and args.input != "-":
                status = os.fstat(handle.fileno())
                if (stat.S_ISREG(status.st_mode) and status.st_size >= SPLIT_MIN_BYTES
                        and _can_fork()):
                    table = _count_split(handle.fileno(), status.st_size, schema, args.delimiter)
            try:
                if args.sample is not None:
                    records = list(iter_records(handle, schema, args.delimiter))
                elif table is None:
                    table = aggregate(iter_records(handle, schema, args.delimiter))
            except UnicodeDecodeError as exc:
                return _fail("parse", _decode_error_text(exc, handle))
            except ValueError as exc:
                return _fail("parse", str(exc))
    except OSError as exc:
        return _fail("input", str(exc))

    if args.sample is not None:
        if args.sample > len(records):
            return _fail(
                "sample",
                f"sample size {args.sample} exceeds record count {len(records)}",
            )
        import random

        # sampling picks positions only, so it commutes with --flip
        table = aggregate(random.Random(args.seed).sample(records, args.sample))

    if args.flip:
        table = flip_polarity(table)

    try:
        report = build_report(table, config)
    except (InsufficientGroupsError, ValueError) as exc:
        return _fail("report", str(exc))

    try:
        # each output renders as it is written, but a heatmap checks its
        # group names when it is set up, and every path is checked for a
        # directory: such a fault fails here, before any file is opened
        for value in (args.out_report, args.out_heatmap_ofi, args.out_heatmap_di,
                      args.out_grid_csv):
            if value == "":  # open("") fails so; a prefix would name ".ofi.csv"
                raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), value)
        outputs: list[Output] = [(args.out_report, report_chunks(report))]
        heatmaps = []
        for path, grid in ((args.out_heatmap_ofi, report.ofi_grid),
                           (args.out_heatmap_di, report.di_grid)):
            if path:
                from .heatmap import heatmap_chunks

                heatmaps.append(len(outputs))
                outputs.append((path, heatmap_chunks(grid)))
        if args.out_grid_csv:
            outputs.append((args.out_grid_csv + ".ofi.csv", grid_csv_chunks(report.ofi_grid)))
            outputs.append((args.out_grid_csv + ".di.csv", grid_csv_chunks(report.di_grid)))
        statuses = [None if path == "-" else _check_output(path) for path, _ in outputs]
    except (OSError, ValueError) as exc:  # ValueError: a name an SVG cannot carry
        return _fail("write", str(exc))

    # the heatmaps are the largest outputs: rendered on the second core
    # while this process writes the rest, they finish in parallel
    child = []
    if heatmaps and len(report.ofi_grid.group_order) >= FORK_MIN_GROUPS and _can_fork():
        child = _child_outputs(outputs, statuses, heatmaps)
    failure = _write_outputs(outputs, child)
    if failure is not None:
        return _fail("write", failure[1])
    return 0


def _verdict_text(verdict) -> str:
    return verdict.value.replace("_", " ")


def _value_text(label: str, num: int, den: int) -> str:
    # the exact and the rounded text of an OFI or DI, whose terms can have
    # twice the digits of a cell
    from .formatting import digit_limit_text, fixed_text, ratio_text

    try:
        return f"{ratio_text(num, den)} ({fixed_text(num, den)})"
    except ValueError:
        raise ValueError(digit_limit_text(label)) from None


def _scenario_lines(table: GroupTable, config: AuditConfig) -> Iterator[str]:
    # a two-group audit, judged by the rules that judge audit's pairs
    from .audit import _verdict_rows, build_report
    from .formatting import digit_limit_text, format_fixed, format_fraction

    report = build_report(table, config)
    for name, gm in report.group_metrics.items():
        cm = table.groups[name]
        # each cell was read from text, so its text fits the cap, but n may
        # not; the terms of the rates over n are at most n
        try:
            n = str(cm.n)
        except ValueError:
            raise ValueError(digit_limit_text(f"n of group {name}")) from None
        yield f"group {name}: tp={cm.tp} fn={cm.fn} fp={cm.fp} tn={cm.tn} n={n}\n"
        for label, value in (("benefit", gm.benefit),
                             ("expected benefit", gm.expected_benefit),
                             ("marginal benefit", gm.marginal_benefit)):
            yield f"  {label:<17} {format_fraction(value)} ({format_fixed(value)})\n"

    # the (i, j) cell of each grid, and that pair's verdicts
    ofi_x, ofi_y = next(report.ofi_grid.integer_rows())[1]
    di_x, di_y = next(report.di_grid.integer_rows())[1]
    [(_, ofi_v, di_v)] = next(_verdict_rows(report))[1]
    yield (
        f"OFI: {_value_text('OFI', ofi_x, ofi_y)}"
        f"  verdict: {_verdict_text(ofi_v)}"
        f" (threshold {format_fraction(config.ofi_threshold)})\n"
    )
    if di_y:
        di_text = _value_text("DI", di_x, di_y)
    elif di_x == 0:
        di_text = "1 (1.00, contextual: both positive-prediction rates are zero)"
    else:
        di_text = "undefined (zero denominator)"
    yield (
        f"DI:  {di_text}  verdict: {_verdict_text(di_v)}"
        f" (band {format_fraction(config.di_low)}..{format_fraction(config.di_high)})\n"
    )


def cmd_scenario(args: argparse.Namespace) -> int:
    # every line is rendered before any is printed, so a fault, a value
    # past the int-to-text digit limit included, leaves stdout empty
    from .audit import AuditConfig
    from .ingestion import GroupTable
    from .metrics import BinaryConfusion

    try:
        table = GroupTable({
            "i": BinaryConfusion(args.tp_i, args.fn_i, args.fp_i, args.tn_i),
            "j": BinaryConfusion(args.tp_j, args.fn_j, args.fp_j, args.tn_j),
        })
        config = AuditConfig(**_thresholds(args))
        text = "".join(_scenario_lines(table, config))
    except ValueError as exc:
        return _fail("scenario", str(exc))
    return _write_stdout([text])


def cmd_dist(args: argparse.Namespace) -> int:
    from .combinatorics import (
        TRIANGULAR_STD,
        b_stats,
        distribution_csv_chunks,
        total_combinations,
    )
    from .formatting import format_fraction

    try:
        chunks = distribution_csv_chunks(args.n)
    except ValueError as exc:
        return _fail("dist", str(exc))
    stats = b_stats(args.n)
    if _write_stdout(chunks):
        return 1

    # the total and the mode (0: the counts are symmetric and peak at the
    # middle) are closed forms, so no count is walked again
    print(
        f"dist n={args.n}: total={total_combinations(args.n)} "
        f"mean={format_fraction(stats.mean)} "
        f"variance={format_fraction(stats.variance)} ({float(stats.variance):.6f}) "
        f"std={stats.std:.6f} mode=0 "
        f"triangular_std={TRIANGULAR_STD:.6f}",
        file=sys.stderr,
    )
    return 0


def _stream_sizes(sizes: range) -> list[tuple]:
    # runs in the child: each record in the plain form marshal writes
    from .exhaustive import stream

    return [stream(n).plain() for n in sizes]


def cmd_verify(args: argparse.Namespace) -> int:
    from . import exhaustive
    from .verification import STREAM_CHECK_MAX, check_range, run_identity_checks

    try:
        check_range(args.n_min, args.n_max)
    except ValueError as exc:
        return _fail("verify", str(exc))

    # the largest stream sizes are walked in a forked child; each of its
    # records is taken where this process would have streamed that size, so
    # every check runs in the order, and fails with the lines, of one process
    sizes = range(max(args.n_min, STREAM_CHILD_MIN), min(args.n_max, STREAM_CHECK_MAX) + 1)
    streamed: dict[int, Enumeration] = {}
    forks = sizes and _can_fork()
    with _child(partial(_stream_sizes, sizes)) if forks else nullcontext() as child:

        def stream(n: int) -> Enumeration:
            if child is None or n not in sizes:
                return exhaustive.stream(n)
            if n == sizes[0]:
                streamed.update(zip(sizes, map(exhaustive.Enumeration.from_plain, child())))
            return streamed.pop(n)

        results = run_identity_checks(args.n_min, args.n_max, stream)
    passed = all(r.passed for r in results)
    lines = [f"verifying identities for n in [{args.n_min}, {args.n_max}]\n"]
    for result in results:
        status = "ok  " if result.passed else "FAIL"
        lines.append(f"{status} {result.name}: {result.description}  [{result.detail}]\n")
    if passed:
        lines.append(f"all identities hold for n in [{args.n_min}, {args.n_max}]\n")
    if _write_stdout(lines):
        return 1
    if not passed:
        print("identity check failed", file=sys.stderr)
    return 0 if passed else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "audit": cmd_audit,
        "scenario": cmd_scenario,
        "dist": cmd_dist,
        "verify": cmd_verify,
    }
    return handlers[args.command](args)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
