#!/usr/bin/env python3
"""End-to-end benchmark of the ofi-audit CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

The CLI runs the way users run it: one fresh Python process per
invocation, started from ``src/`` of this checkout, on inputs generated
from the seed before any timing starts. Load is a closed loop with one
client: the next invocation starts when the previous one has exited.
Invocations continue while the next one is expected to end within S
seconds; at least one always runs.

--trace 0 reports the end-to-end metrics: the median wall time and peak
RSS of an invocation, and ``setup_s``, the median wall time of
``ofi-audit --version``. --trace 1 also runs the same invocation once
under perfbench/tracer.py and reports time and counts per layer.

Every invocation's outputs are checked (see workloads.py). The last line
of stdout is the result object; the line before it holds the details:
machine and provenance, every sample, the wall-time tail, the failed
share and any traced name that no longer exists. All files go to
perfbench/.work/ and are removed at exit. With ``all``, every workload
runs in turn and a table of the end-to-end metrics closes the output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "tracer.py"
LAUNCHER = Path(__file__).resolve().parent / "launch.py"
CLI = [sys.executable, "-c", "import sys; from ofi_audit.cli import run; sys.exit(run())"]

SETUP_SAMPLES = 11
INVOCATION_TIMEOUT_S = 60.0
# Wrappers slow the traced invocation, so it gets a longer limit.
TRACE_TIMEOUT_S = 90.0

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# name -> unit. "<layer key>.<field>" names read the tracer's record for
# that key; the remaining names are computed in layer_metrics().
PER_LAYER = {
    "cli.cmd_audit.self_s": "s",
    "cli.cmd_dist.self_s": "s",
    "cli.out_bytes": "bytes",
    "ingestion.parse_records.self_s": "s",
    "ingestion.parse_records.rows_per_s": "1/s",
    "ingestion.flip_polarity.self_s": "s",
    "ingestion.aggregate.self_s": "s",
    "audit.build_report.self_s": "s",
    "audit.pairwise.self_s": "s",
    "audit.pairwise.cells": "count",
    "audit.diagnose.calls": "count",
    "audit.serialize_report.self_s": "s",
    "audit.serialize_report.bytes": "bytes",
    "audit.grid_to_csv.self_s": "s",
    "metrics.ofi.calls": "count",
    "metrics.ofi.self_s": "s",
    "metrics.disparate_impact.calls": "count",
    "metrics.disparate_impact.self_s": "s",
    "metrics.ofi_verdict.self_s": "s",
    "metrics.four_fifths_verdict.self_s": "s",
    "metrics.marginal_benefit.calls": "count",
    "formatting.format_fixed.calls": "count",
    "formatting.format_fixed.self_s": "s",
    "formatting.format_fraction.self_s": "s",
    "heatmap.render_heatmap.self_s": "s",
    "heatmap.render_heatmap.bytes": "bytes",
    "combinatorics.marginal_benefit_distribution.self_s": "s",
    "combinatorics.ScoreDistribution.mode.self_s": "s",
    "combinatorics.ScoreDistribution.csv_rows.total_s": "s",
    "kernels.pair_score_counts.self_s": "s",
    "kernels.pair_score_counts.ops": "count",
    "kernels.pair_score_counts.bytes_computed": "bytes",
    "kernels.enum.self_s": "s",
    "kernels.enum.quadruples": "count",
    "exhaustive.stream.self_s": "s",
    "exhaustive.stream.quadruples": "count",
    "exhaustive.score_histogram.self_s": "s",
    "verification.run_identity_checks.self_s": "s",
    "process.cpu_s": "s",
    "process.cpu_per_wall": "ratio",
    "trace.overhead_s": "s",
    "trace.absent": "count",
}


class SetupError(Exception):
    """The program cannot be run at all in this checkout."""


@dataclass
class Invocation:
    wall_s: float
    peak_rss_mb: float
    cpu_s: float
    failure: str | None = None


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # An installed package runs from cached bytecode; let the warm-up
    # invocation write that cache so no timed invocation compiles source.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(argv: list[str], stdout: Path, stderr: Path, timeout: float) -> Invocation:
    """Run one child to completion through launch.py, which times it from
    spawn to exit and takes its peak RSS and CPU time from wait4."""
    result = stdout.with_name(stdout.name + ".launch.json")
    result.unlink(missing_ok=True)
    launcher = [sys.executable, str(LAUNCHER), str(result), str(timeout), str(stdout), str(stderr), "--", *argv]
    pid = os.posix_spawn(sys.executable, launcher, _env())
    pidfd = os.pidfd_open(pid)
    try:
        # the launcher enforces the timeout; this one only guards the launcher
        if not select.select([pidfd], [], [], timeout + 30)[0]:
            os.kill(pid, signal.SIGKILL)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(pidfd)
        _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise SetupError(f"launcher failed on {argv[:4]}")
    facts = json.loads(result.read_text(encoding="utf-8"))
    code = facts["exit_code"]
    return Invocation(
        wall_s=facts["wall_s"],
        peak_rss_mb=facts["maxrss_kib"] / 1024,
        cpu_s=facts["cpu_s"],
        failure=None if code == 0 else ("timed out" if code is None else f"exit code {code}"),
    )


def _digests(w: workloads.Workload) -> dict[str, str]:
    out = {}
    for role, path in w.outputs.items():
        digest = hashlib.sha256()
        with path.open("rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
        out[role] = digest.hexdigest()
    return out


def _clear(w: workloads.Workload) -> None:
    w.out.mkdir(parents=True, exist_ok=True)
    for path in w.outputs.values():
        path.unlink(missing_ok=True)


class Checker:
    """Checks outputs in full once, then by digest: an invocation whose
    outputs equal bytes that already passed the full check passes too."""

    def __init__(self) -> None:
        self.verified: dict[str, str] | None = None

    def check(self, w: workloads.Workload, inv: Invocation) -> None:
        if inv.failure:
            inv.failure += ": " + _tail(w.outputs["stderr"])
            return
        try:
            digests = _digests(w)
            if digests != self.verified:
                w.check()
                self.verified = digests
        except Exception as exc:  # any malformed output is a failed invocation
            inv.failure = f"output check: {type(exc).__name__}: {exc}"


def _tail(path: Path) -> str:
    try:
        lines = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    except OSError:
        return "no stderr"
    return lines[-1] if lines else "empty stderr"


def provenance(work: Path) -> dict:
    """Machine and build facts, read by a child from this checkout."""
    probe = (
        "import json, sys, numpy, ofi_audit\n"
        "try:\n    import numba\nexcept ImportError:\n    numba = None\n"
        "try:\n    from ofi_audit import _kernels\nexcept ImportError:\n    _kernels = None\n"
        "backend = getattr(_kernels, 'active_backend', None)\n"
        "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__,\n"
        "    'numba_imports': numba is not None, 'kernel_backend': backend() if backend else None,\n"
        "    'ofi_audit': getattr(ofi_audit, '__version__', None), 'package': ofi_audit.__file__}))\n"
    )
    out, err = work / "probe.json", work / "probe.err"
    inv = spawn([sys.executable, "-c", probe], out, err, INVOCATION_TIMEOUT_S)
    if inv.failure:
        raise SetupError(f"cannot import ofi_audit from {SRC}: {inv.failure}: {_tail(err)}")
    facts = json.loads(out.read_text(encoding="utf-8"))
    if not Path(facts["package"]).resolve().is_relative_to(SRC):
        raise SetupError(f"ofi_audit imports from {facts['package']}, not from {SRC}")
    facts["package"] = str(Path(facts["package"]).resolve().relative_to(ROOT))
    facts.update(
        cores=os.cpu_count(),
        usable_cores=len(os.sched_getaffinity(0)),
        commit=_git_commit(),
        source_sha256=_source_digest(),
    )
    return facts


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def measure_setup(work: Path, version: str, invocations: list[Invocation]) -> list[float]:
    """Wall times of ``ofi-audit --version``, after one untimed warm-up
    that also compiles the bytecode cache."""
    out, err = work / "version.txt", work / "version.err"
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        inv = spawn([*CLI, "--version"], out, err, INVOCATION_TIMEOUT_S)
        if not inv.failure and out.read_text(encoding="utf-8") != f"ofi-audit {version}\n":
            inv.failure = "unexpected --version output"
        if i == 0:
            if inv.failure:
                raise SetupError(f"ofi-audit --version failed: {inv.failure}: {_tail(err)}")
            continue
        invocations.append(inv)
        samples.append(inv.wall_s)
    return samples


def run_invocations(w: workloads.Workload, seconds: float, trace: bool, invocations: list[Invocation]):
    """The closed loop. Returns untraced samples, the traced invocation
    (or None) and the tracer's spans."""
    checker = Checker()
    untraced: list[Invocation] = []
    traced = spans = None
    traced_w = w.moved_to(w.out.parent / "traced")
    spans_path = w.out.parent / "spans.json"
    start = perf_counter()
    while True:
        if trace and untraced and traced is None:
            _clear(traced_w)
            spans_path.unlink(missing_ok=True)
            argv = [sys.executable, str(TRACER), str(spans_path), "--", *traced_w.argv]
            traced = spawn(argv, traced_w.outputs["stdout"], traced_w.outputs["stderr"], TRACE_TIMEOUT_S)
            invocations.append(traced)
            if traced.failure or checker.verified is None:
                checker.check(traced_w, traced)
            elif _digests(traced_w) != checker.verified:
                traced.failure = "traced outputs differ from the untraced invocation's"
            if not traced.failure:
                spans = json.loads(spans_path.read_text(encoding="utf-8"))
        else:
            _clear(w)
            inv = spawn([*CLI, *w.argv], w.outputs["stdout"], w.outputs["stderr"], INVOCATION_TIMEOUT_S)
            checker.check(w, inv)
            invocations.append(inv)
            untraced.append(inv)
        elapsed = perf_counter() - start
        expected = statistics.median(i.wall_s for i in untraced)
        if (not trace or traced is not None) and elapsed + expected > seconds:
            return untraced, traced, spans


def tail_percentile(samples: list[float]) -> dict:
    """The highest percentile that has at least ten samples above it."""
    ordered = sorted(samples)
    if len(ordered) < 11:
        return {"percentile": None, "value": None, "samples": len(ordered),
                "note": "needs at least 11 samples"}
    index = len(ordered) - 11
    return {"percentile": round(100 * (index + 1) / len(ordered), 2), "value": ordered[index],
            "samples": len(ordered)}


def layer_metrics(spans: dict | None, untraced: list[Invocation], traced: Invocation | None,
                  w: workloads.Workload) -> dict[str, float]:
    layers = spans["layers"] if spans else {}
    wall = statistics.median(i.wall_s for i in untraced)
    values: dict[str, float] = {
        "cli.out_bytes": sum(p.stat().st_size for p in w.outputs.values() if p.exists()),
        "process.cpu_s": statistics.median(i.cpu_s for i in untraced),
        "process.cpu_per_wall": statistics.median(i.cpu_s / i.wall_s for i in untraced),
        "trace.overhead_s": traced.wall_s - wall if traced else 0.0,
        "trace.absent": len(spans["absent"]) if spans else 0,
    }
    parse = layers.get("ingestion.parse_records")
    values["ingestion.parse_records.rows_per_s"] = (
        parse["counts"]["rows"] / parse["self_s"] if parse and parse["self_s"] > 0 else 0.0
    )
    for name in PER_LAYER:
        if name in values:
            continue
        key, field = name.rsplit(".", 1)
        rec = layers.get(key)
        if rec is None:
            values[name] = 0
        elif field in rec:
            values[name] = rec[field]
        else:
            values[name] = rec["counts"].get(field, 0)
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict]:
    """One benchmark run; returns (details, result)."""
    facts = provenance(work)
    w = workloads.build(name, seed, work)
    invocations: list[Invocation] = []
    setup = [] if trace else measure_setup(work, facts["ofi_audit"], invocations)
    untraced, traced, spans = run_invocations(w, seconds, trace, invocations)

    failures = [i.failure for i in invocations if i.failure]
    walls = [i.wall_s for i in untraced]
    if trace:
        values = layer_metrics(spans, untraced, traced, w)
        units = PER_LAYER
    else:
        values = {
            "wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(i.peak_rss_mb for i in untraced),
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END
    details = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "argv": ["ofi-audit", *(str(Path(a).relative_to(work)) if a.startswith(str(work)) else a
                                for a in w.argv)],
        "provenance": {**facts, "inputs": w.inputs, "workload_seed": seed,
                       **({"sample_seed": w.expected["sample_seed"]} if "sample_seed" in w.expected else {})},
        "wall_s": {"median": statistics.median(walls), "tail": tail_percentile(walls),
                   "samples": walls},
        "peak_rss_mb_samples": [i.peak_rss_mb for i in untraced],
        "cpu_s_samples": [i.cpu_s for i in untraced],
        "setup_s_samples": setup,
        "failed_share": {"failed": len(failures), "attempted": len(invocations),
                         "value": len(failures) / len(invocations)},
        "failures": failures[:5],
        "out_bytes": {role: p.stat().st_size for role, p in w.outputs.items() if p.exists()},
    }
    if trace:
        details["traced"] = {
            "traced_wall_s": traced.wall_s if traced else None,
            "absent": spans["absent"] if spans else None,
            "layers": spans["layers"] if spans else None,
        }
    result = {
        "correct": not failures,
        "attempted": len(invocations),
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    return details, result


def _summary(rows: list[tuple[str, dict, dict]]) -> str:
    lines = [f"{'workload':<14} {'wall_s (s)':>11} {'tail':>14} {'peak_rss_mb (MB)':>17} "
             f"{'setup_s (s)':>12} {'failed_share':>16}"]
    for name, details, result in rows:
        m = result["metrics"]
        tail = details["wall_s"]["tail"]
        tail_text = (f"p{tail['percentile']}={tail['value']:.3f}" if tail["value"] is not None
                     else f"n/a ({tail['samples']} smp)")
        share = details["failed_share"]
        lines.append(
            f"{name:<14} {m['wall_s']['value']:>11.4f} {tail_text:>14} {m['peak_rss_mb']['value']:>17.1f} "
            f"{m['setup_s']['value']:>12.4f} {share['value']:>6.3f} ({share['failed']}/{share['attempted']})"
        )
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark of the ofi-audit CLI.")
    parser.add_argument("--workload", required=True, choices=[*workloads.BUILDERS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all" and args.trace:
        parser.error("--workload all reports the end-to-end metrics only; use --trace 0")
    if not (SRC / "ofi_audit").is_dir():
        print(f"error: no ofi_audit package under {SRC}", file=sys.stderr)
        return 2

    names = list(workloads.BUILDERS) if args.workload == "all" else [args.workload]
    work = ROOT / "perfbench" / ".work" / f"run-{os.getpid()}"
    rows = []
    try:
        for name in names:
            if work.exists():
                shutil.rmtree(work)
            work.mkdir(parents=True)
            details, result = run_workload(name, args.seed, args.seconds, bool(args.trace), work)
            rows.append((name, details, result))
            print(json.dumps(details))
            print(json.dumps(result), flush=True)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.workload == "all":
        print(_summary(rows))
        return 0 if all(r["correct"] for _, _, r in rows) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
