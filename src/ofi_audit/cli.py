"""Command-line interface: audit, scenario, dist and verify subcommands."""

from __future__ import annotations

import argparse
import io
import random
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import Iterable, Iterator, TextIO

from . import __version__
from .audit import (
    AuditConfig,
    InsufficientGroupsError,
    build_report,
    check_digits,
    grid_csv_chunks,
    report_chunks,
)
from .combinatorics import (
    DIST_MAX,
    TRIANGULAR_STD,
    b_stats,
    marginal_benefit_distribution,
)
from .formatting import format_fixed, format_fraction
from .heatmap import heatmap_chunks
from .ingestion import (
    ColumnSchema,
    aggregate,
    flip_polarity,
    iter_records,
)
from .metrics import (
    BinaryConfusion,
    DiKind,
    ThresholdError,
    benefit,
    disparate_impact,
    expected_benefit,
    four_fifths_verdict,
    marginal_benefit,
    ofi,
    ofi_verdict,
)


def _fraction_arg(text: str) -> Fraction:
    # accepts "3/10" as well as exact decimal text like "0.3"
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _fail(stage: str, message: str) -> int:
    print(f"error [{stage}]: {message}", file=sys.stderr)
    return 1


@contextmanager
def _open_input(path: str) -> Iterator[TextIO]:
    # newline="" keeps line separators inside quoted fields as data, and
    # utf-8-sig drops a leading byte order mark
    if path != "-":
        with open(path, encoding="utf-8-sig", newline="") as handle:
            yield handle
        return
    handle = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8-sig", newline="")
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
        sys.stdout.writelines(chunks)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(chunks)


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
    p_audit.add_argument(
        "--ofi-threshold", type=_fraction_arg, default=Fraction(3, 10),
        help="no-bias band half-width for OFI verdicts (default 3/10)",
    )
    p_audit.add_argument(
        "--di-low", type=_fraction_arg, default=Fraction(4, 5),
        help="lower edge of the DI no-bias band (default 4/5)",
    )
    p_audit.add_argument(
        "--di-high", type=_fraction_arg, default=Fraction(5, 4),
        help="upper edge of the DI no-bias band (default 5/4)",
    )
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
    p_scenario.add_argument(
        "cells", type=int, nargs=8,
        metavar=("TP_I", "FN_I", "FP_I", "TN_I", "TP_J", "FN_J", "FP_J", "TN_J"),
        help="eight cell counts: tp fn fp tn for group i, then for group j",
    )
    p_scenario.add_argument("--ofi-threshold", type=_fraction_arg, default=Fraction(3, 10))
    p_scenario.add_argument("--di-low", type=_fraction_arg, default=Fraction(4, 5))
    p_scenario.add_argument("--di-high", type=_fraction_arg, default=Fraction(5, 4))

    p_dist = sub.add_parser(
        "dist", help="marginal-benefit score distribution over all confusion matrices of size n"
    )
    p_dist.add_argument("--n", type=int, required=True, help=f"sample size (1 to {DIST_MAX})")

    p_verify = sub.add_parser(
        "verify", help="check every counting/distribution identity against full enumeration"
    )
    p_verify.add_argument("--n-min", type=int, default=1)
    p_verify.add_argument("--n-max", type=int, default=40)

    return parser


def cmd_audit(args: argparse.Namespace) -> int:
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
        config = AuditConfig(
            ofi_threshold=args.ofi_threshold,
            di_low=args.di_low,
            di_high=args.di_high,
            group_order=group_order,
        )
    except ThresholdError as exc:
        return _fail("config", str(exc))

    schema = ColumnSchema(
        group=args.group_col, label=args.label_col, prediction=args.pred_col
    )
    try:
        with _open_input(args.input) as handle:
            try:
                if args.sample is None:
                    table = aggregate(iter_records(handle, schema, args.delimiter))
                else:
                    records = list(iter_records(handle, schema, args.delimiter))
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
        # group names when it is set up: a name an SVG cannot carry fails
        # here, before any file is opened
        outputs = [(args.out_report, report_chunks(report))]
        if args.out_heatmap_ofi:
            outputs.append((args.out_heatmap_ofi, heatmap_chunks(report.ofi_grid)))
        if args.out_heatmap_di:
            outputs.append((args.out_heatmap_di, heatmap_chunks(report.di_grid)))
        if args.out_grid_csv:
            outputs.append((args.out_grid_csv + ".ofi.csv", grid_csv_chunks(report.ofi_grid)))
            outputs.append((args.out_grid_csv + ".di.csv", grid_csv_chunks(report.di_grid)))
        for path, chunks in outputs:
            _write_text(path, chunks)
    except (OSError, ValueError) as exc:  # ValueError: a name an SVG cannot carry
        return _fail("write", str(exc))
    return 0


def _scenario_group_lines(name: str, cm: BinaryConfusion) -> list[str]:
    rows = [
        ("benefit", benefit(cm)),
        ("expected benefit", expected_benefit(cm)),
        ("marginal benefit", marginal_benefit(cm)),
    ]
    lines = [
        f"group {name}: tp={cm.tp} fn={cm.fn} fp={cm.fp} tn={cm.tn} n={cm.n}"
    ]
    for label, value in rows:
        lines.append(
            f"  {label:<17} {format_fraction(value)} ({format_fixed(value)})"
        )
    return lines


def _verdict_text(verdict) -> str:
    return verdict.value.replace("_", " ")


def cmd_scenario(args: argparse.Namespace) -> int:
    try:
        cm_i = BinaryConfusion(*args.cells[:4])
        cm_j = BinaryConfusion(*args.cells[4:])
        for name, cm in (("i", cm_i), ("j", cm_j)):
            print("\n".join(_scenario_group_lines(name, cm)))

        ofi_value = ofi(cm_i, cm_j)
        di = disparate_impact(cm_i, cm_j)
        # the verdict lines write each threshold as its exact text
        check_digits("OFI threshold", args.ofi_threshold)
        check_digits("DI low edge", args.di_low)
        check_digits("DI high edge", args.di_high)
        ofi_v = ofi_verdict(ofi_value, args.ofi_threshold)
        di_v = four_fifths_verdict(di, args.di_low, args.di_high)
    except ValueError as exc:
        return _fail("scenario", str(exc))

    print(
        f"OFI: {format_fraction(ofi_value)} ({format_fixed(ofi_value)})"
        f"  verdict: {_verdict_text(ofi_v)}"
        f" (threshold {format_fraction(args.ofi_threshold)})"
    )
    if di.kind is DiKind.FINITE:
        assert di.value is not None
        di_text = f"{format_fraction(di.value)} ({format_fixed(di.value)})"
    elif di.kind is DiKind.CONTEXTUAL_ONE:
        di_text = "1 (1.00, contextual: both positive-prediction rates are zero)"
    else:
        di_text = "undefined (zero denominator)"
    print(
        f"DI:  {di_text}  verdict: {_verdict_text(di_v)}"
        f" (band {format_fraction(args.di_low)}..{format_fraction(args.di_high)})"
    )
    return 0


def cmd_dist(args: argparse.Namespace) -> int:
    try:
        dist = marginal_benefit_distribution(args.n)
    except ValueError as exc:
        return _fail("dist", str(exc))
    stats = b_stats(args.n)
    sys.stdout.writelines(dist.csv_chunks())

    print(
        f"dist n={args.n}: total={dist.total()} mean={format_fraction(stats.mean)} "
        f"variance={format_fraction(stats.variance)} ({float(stats.variance):.6f}) "
        f"std={stats.std:.6f} mode={format_fraction(dist.mode())} "
        f"triangular_std={TRIANGULAR_STD:.6f}",
        file=sys.stderr,
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    # the enumeration kernels need numpy, which no other subcommand loads
    from .verification import run_identity_checks

    try:
        results = run_identity_checks(args.n_min, args.n_max)
    except ValueError as exc:
        return _fail("verify", str(exc))
    print(f"verifying identities for n in [{args.n_min}, {args.n_max}]")
    for result in results:
        status = "ok  " if result.passed else "FAIL"
        print(f"{status} {result.name}: {result.description}  [{result.detail}]")
    if all(r.passed for r in results):
        print(f"all identities hold for n in [{args.n_min}, {args.n_max}]")
        return 0
    print("identity check failed", file=sys.stderr)
    return 1


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
