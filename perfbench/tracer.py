"""Run one ofi-audit CLI invocation in-process with a span around each layer.

Usage: python tracer.py SPANS_JSON -- CLI_ARGS...

The package is left unchanged on disk. Before ``cli.main`` runs, every
layer function named in LAYERS is replaced, in each ``ofi_audit`` module
namespace that binds it (or on its class, for methods), by a wrapper that
records calls, total time and self time: total minus the time of traced
calls made inside it on the same thread. A generator function is timed
over each step of its iteration. Only public names are wrapped, and
per-cell functions are kept as aggregate counts and time, because a
wrapper per private helper call would dominate what it measures. A name
this file lists but the package no longer has is reported as absent.

After the CLI returns, SPANS_JSON receives one record per layer key:
{"calls", "total_s", "self_s", "counts"} plus the list of absent names.
The process exits with the CLI's exit code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import threading
from time import perf_counter


def _quadruples(args, result):
    n = args[0]
    return {"quadruples": (n + 1) * (n + 2) * (n + 3) // 6}


def _pair_ops(args, result):
    # computed from n, not measured: one update per (fp, fn) pair with
    # fp + fn <= n, over an int64 array of 2n + 1 counts
    n = args[0]
    return {"ops": (n + 1) * (n + 2) // 2, "bytes_computed": 8 * (2 * n + 1)}


def _text_bytes(args, result):
    return {"bytes": len(result.encode("utf-8"))}


def _rows(args, result):
    return {"rows": len(result)}


def _grid_cells(args, result):
    return {"cells": len(result.group_order) ** 2}


# (layer key, module, attribute path, counter). Several functions may
# share one key; their calls and times add up.
LAYERS = (
    ("cli.cmd_audit", "cli", "cmd_audit", None),
    ("cli.cmd_dist", "cli", "cmd_dist", None),
    ("ingestion.parse_records", "ingestion", "parse_records", _rows),
    ("ingestion.flip_polarity", "ingestion", "flip_polarity", None),
    ("ingestion.aggregate", "ingestion", "aggregate", None),
    ("audit.build_report", "audit", "build_report", None),
    ("audit.pairwise", "audit", "pairwise", _grid_cells),
    ("audit.diagnose", "audit", "diagnose", None),
    ("audit.serialize_report", "audit", "serialize_report", _text_bytes),
    ("audit.grid_to_csv", "audit", "grid_to_csv", None),
    ("metrics.ofi", "metrics", "ofi", None),
    ("metrics.disparate_impact", "metrics", "disparate_impact", None),
    ("metrics.ofi_verdict", "metrics", "ofi_verdict", None),
    ("metrics.four_fifths_verdict", "metrics", "four_fifths_verdict", None),
    ("metrics.marginal_benefit", "metrics", "marginal_benefit", None),
    ("formatting.format_fixed", "formatting", "format_fixed", None),
    ("formatting.format_fraction", "formatting", "format_fraction", None),
    ("heatmap.render_heatmap", "heatmap", "render_heatmap", _text_bytes),
    ("combinatorics.marginal_benefit_distribution", "combinatorics", "marginal_benefit_distribution", None),
    ("combinatorics.ScoreDistribution.mode", "combinatorics", "ScoreDistribution.mode", None),
    ("combinatorics.ScoreDistribution.csv_rows", "combinatorics", "ScoreDistribution.csv_rows", None),
    ("kernels.pair_score_counts", "_kernels", "pair_score_counts", _pair_ops),
    ("kernels.enum", "_kernels", "enum_count", _quadruples),
    ("kernels.enum", "_kernels", "enum_cell_counts", _quadruples),
    ("kernels.enum", "_kernels", "enum_score_counts", _quadruples),
    ("kernels.enum", "_kernels", "enum_score_sums", _quadruples),
    ("exhaustive.stream", "exhaustive", "stream_count", _quadruples),
    ("exhaustive.stream", "exhaustive", "stream_cell_value_counts", _quadruples),
    ("exhaustive.stream", "exhaustive", "stream_score_histogram", _quadruples),
    ("exhaustive.stream", "exhaustive", "stream_score_moments", _quadruples),
    ("exhaustive.score_histogram", "exhaustive", "score_histogram", None),
    ("verification.run_identity_checks", "verification", "run_identity_checks", None),
)


class Tracer:
    """Per-thread span stacks and per-layer totals.

    Each thread keeps its own stack and table, so the wrappers take no
    lock on the hot path; the tables are merged once the CLI returns.
    A stack entry accumulates the time of the traced calls made directly
    inside the enclosing span.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict] = []

    def _state(self):
        local = self._local
        try:
            return local.table, local.stack
        except AttributeError:
            local.table, local.stack = {}, [0.0]
            with self._lock:
                self._tables.append(local.table)
            return local.table, local.stack

    def _record(self, table, key, elapsed, child, calls):
        rec = table.get(key)
        if rec is None:
            rec = table[key] = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}}
        rec["calls"] += calls
        rec["total_s"] += elapsed
        rec["self_s"] += elapsed - child
        return rec

    def wrap(self, key, fn, counter):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(key, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            table, stack = self._state()
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                rec = self._record(table, key, end - start, stack.pop(), 1)
                stack[-1] += end - start
            if counter is not None:
                for name, value in counter(args, result).items():
                    rec["counts"][name] = rec["counts"].get(name, 0) + value
                # the parent's self time excludes the counter's cost too
                stack[-1] += perf_counter() - end
            return result

        return wrapper

    def _wrap_generator(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            table, _ = self._state()
            self._record(table, key, 0.0, 0.0, 1)
            return self._steps(key, fn(*args, **kwargs))

        return wrapper

    def _steps(self, key, gen):
        # each resumption is a span of its own, a child of whatever span
        # is open on the consuming thread at that moment
        while True:
            table, stack = self._state()
            stack.append(0.0)
            start = perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                elapsed = perf_counter() - start
                self._record(table, key, elapsed, stack.pop(), 0)
                stack[-1] += elapsed
            yield item

    def merged(self) -> dict:
        out: dict = {}
        for table in self._tables:
            for key, rec in table.items():
                acc = out.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}})
                acc["calls"] += rec["calls"]
                acc["total_s"] += rec["total_s"]
                acc["self_s"] += rec["self_s"]
                for name, value in rec["counts"].items():
                    acc["counts"][name] = acc["counts"].get(name, 0) + value
        return out


def _resolve(module, path):
    """(owner, attribute name, object) for a dotted path, or None."""
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    obj = getattr(owner, attr, None)
    return None if obj is None else (owner, attr, obj)


def install(tracer: Tracer) -> list[str]:
    """Wrap every LAYERS function; return the dotted names not found."""
    import ofi_audit

    for info in pkgutil.iter_modules(ofi_audit.__path__):
        importlib.import_module(f"ofi_audit.{info.name}")
    modules = [m for name, m in sys.modules.items() if name == "ofi_audit" or name.startswith("ofi_audit.")]

    absent = []
    for key, module_name, path, counter in LAYERS:
        found = _resolve(sys.modules.get(f"ofi_audit.{module_name}"), path)
        if found is None:
            absent.append(f"{module_name}.{path}")
            continue
        owner, attr, original = found
        wrapper = tracer.wrap(key, original, counter)
        if inspect.isclass(owner):
            setattr(owner, attr, wrapper)
            continue
        for mod in modules:
            for name in [n for n, v in vars(mod).items() if v is original]:
                setattr(mod, name, wrapper)
    return absent


def main() -> int:
    spans_path = sys.argv[1]
    if sys.argv[2] != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON -- CLI_ARGS...")
    tracer = Tracer()
    absent = install(tracer)
    from ofi_audit import cli

    code = cli.main(sys.argv[3:])
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"layers": tracer.merged(), "absent": absent}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
