"""Workload inputs, CLI command lines and output checks.

Each workload turns a seed into its inputs and the exact values the CLI
must produce from them. The checks recompute every expected value from
the paper's definitions with this module's own ``Fraction`` arithmetic
and never import ``ofi_audit``, so a defect in the code under test cannot
vouch for itself.
"""

from __future__ import annotations

import csv
import json
import random
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

AUDIT_ROWS_ROWS = 1_000_000
# Quoted names holding a comma and a non-ASCII letter exercise the CSV
# quoting path. No input holds a BOM or a U+2028: the CLI fails on the
# first and rewrites the second (see perfbench/README.md).
AUDIT_ROWS_GROUPS = (
    "Ålborg, north", "Bézier, south", "Çanakkale, east", "Dürnstein, west",
    "Éire, centre", "Føroyar, isles", "Göteborg, coast", "Hüttental, hills",
)

AUDIT_GROUPS_ROWS = 200_000
AUDIT_GROUPS_GROUPS = 300
AUDIT_GROUPS_SAMPLE = 150_000

DIST_N = 100_000
VERIFY_N_MAX = 200
VERIFY_IDENTITIES = 10


class CheckError(Exception):
    """An output differs from what the inputs determine."""


@dataclass
class Workload:
    """One workload instance: CLI arguments, outputs and expected values."""

    name: str
    out: Path  # directory every output is written to
    argv: list[str]
    outputs: dict[str, Path]  # role -> path; "stdout"/"stderr" capture streams
    inputs: dict[str, dict] = field(default_factory=dict)  # file name -> rows, bytes
    expected: dict = field(default_factory=dict)

    def check(self) -> None:
        CHECKS[self.name](self)

    def moved_to(self, out: Path) -> Workload:
        """The same invocation with every output under ``out`` instead."""
        old = str(self.out)
        return replace(
            self,
            out=out,
            argv=[str(out) + arg[len(old):] if arg.startswith(old) else arg for arg in self.argv],
            outputs={role: out / path.relative_to(self.out) for role, path in self.outputs.items()},
        )


def build(name: str, seed: int, work: Path) -> Workload:
    """Write the workload's inputs under ``work`` and return its instance."""
    return BUILDERS[name](seed, work)


def _cells(label: np.ndarray, pred: np.ndarray) -> np.ndarray:
    # cell index in (tp, fn, fp, tn) order
    return (1 - label) * 2 + (1 - pred)


def _group_counts(group: np.ndarray, label: np.ndarray, pred: np.ndarray, k: int) -> np.ndarray:
    flat = np.bincount(group * 4 + _cells(label, pred), minlength=4 * k)
    return flat.reshape(k, 4)


def _write_lines(path: Path, lines: list[str], newline: str) -> int:
    data = (newline.join(lines) + newline).encode("utf-8")
    path.write_bytes(data)
    return len(data)


def _audit_rows(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng([seed, 1])
    k = len(AUDIT_ROWS_GROUPS)
    group = rng.choice(k, size=AUDIT_ROWS_ROWS, p=rng.dirichlet(np.full(k, 4.0)))
    label = (rng.random(AUDIT_ROWS_ROWS) < rng.uniform(0.2, 0.8, k)[group]).astype(np.int64)
    correct = rng.random(AUDIT_ROWS_ROWS) < rng.uniform(0.6, 0.95, k)[group]
    pred = np.where(correct, label, 1 - label)
    score = rng.integers(0, 1000, AUDIT_ROWS_ROWS)

    quoted = [f'"{name}"' for name in AUDIT_ROWS_GROUPS]
    score_text = [f"0.{s:03d}" for s in range(1000)]
    lines = ["record_id,group,score,label,prediction"]
    lines += [
        f"{i},{quoted[g]},{score_text[s]},{lab},{p}"
        for i, g, s, lab, p in zip(
            range(AUDIT_ROWS_ROWS), group.tolist(), score.tolist(),
            label.tolist(), pred.tolist(),
        )
    ]
    path = work / "audit_rows.csv"
    size = _write_lines(path, lines, "\r\n")

    counts = _group_counts(group, label, pred, k)
    # --flip complements label and prediction: tp<->tn and fn<->fp
    flipped = counts[:, ::-1]
    table = {name: tuple(int(c) for c in flipped[g]) for g, name in enumerate(AUDIT_ROWS_GROUPS)}
    out = work / "out"
    return Workload(
        name="audit_rows",
        out=out,
        argv=["audit", "--input", str(path), "--flip",
              "--out-report", str(out / "report.json"), "--out-grid-csv", str(out / "grid")],
        outputs={
            "report": out / "report.json",
            "grid_ofi": out / "grid.ofi.csv",
            "grid_di": out / "grid.di.csv",
            "stdout": out / "stdout.txt",
            "stderr": out / "stderr.txt",
        },
        inputs={str(path.name): {"rows": AUDIT_ROWS_ROWS, "bytes": size}},
        expected={"table": table, "records": AUDIT_ROWS_ROWS},
    )


def _audit_groups(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng([seed, 2])
    k = AUDIT_GROUPS_GROUPS
    names = [f"grp-{g:03d}" for g in range(k)]
    group = rng.choice(k, size=AUDIT_GROUPS_ROWS, p=rng.dirichlet(np.full(k, 8.0)))
    label = (rng.random(AUDIT_GROUPS_ROWS) < rng.uniform(0.1, 0.9, k)[group]).astype(np.int64)
    pred_rate = rng.uniform(0.1, 0.9, k)
    # one group receives no positive prediction, so the DI grid holds
    # undefined and contextual cells as well as finite ones
    pred_rate[int(rng.integers(k))] = 0.0
    pred = (rng.random(AUDIT_GROUPS_ROWS) < pred_rate[group]).astype(np.int64)

    lines = ["group,label,prediction"]
    lines += [f"{names[g]},{lab},{p}" for g, lab, p in zip(group.tolist(), label.tolist(), pred.tolist())]
    path = work / "audit_groups.csv"
    size = _write_lines(path, lines, "\n")

    # the CLI samples with random.Random(seed).sample over its record
    # list; the drawn positions depend only on the list's length
    sample_seed = seed * 7919 + 1
    picked = np.array(random.Random(sample_seed).sample(range(AUDIT_GROUPS_ROWS), AUDIT_GROUPS_SAMPLE))
    counts = _group_counts(group[picked], label[picked], pred[picked], k)
    table = {
        names[g]: tuple(int(c) for c in counts[g]) for g in range(k) if counts[g].sum()
    }
    out = work / "out"
    return Workload(
        name="audit_groups",
        out=out,
        argv=["audit", "--input", str(path),
              "--sample", str(AUDIT_GROUPS_SAMPLE), "--seed", str(sample_seed),
              "--out-report", str(out / "report.json"),
              "--out-heatmap-ofi", str(out / "ofi.svg"), "--out-heatmap-di", str(out / "di.svg"),
              "--out-grid-csv", str(out / "grid")],
        outputs={
            "report": out / "report.json",
            "heatmap_ofi": out / "ofi.svg",
            "heatmap_di": out / "di.svg",
            "grid_ofi": out / "grid.ofi.csv",
            "grid_di": out / "grid.di.csv",
            "stdout": out / "stdout.txt",
            "stderr": out / "stderr.txt",
        },
        inputs={str(path.name): {"rows": AUDIT_GROUPS_ROWS, "bytes": size}},
        expected={"table": table, "records": AUDIT_GROUPS_SAMPLE, "sample_seed": sample_seed},
    )


def _dist(seed: int, work: Path) -> Workload:
    out = work / "out"
    return Workload(
        name="dist",
        out=out,
        argv=["dist", "--n", str(DIST_N)],
        outputs={"stdout": out / "dist.csv", "stderr": out / "stderr.txt"},
        expected={"n": DIST_N},
    )


def _verify(seed: int, work: Path) -> Workload:
    out = work / "out"
    return Workload(
        name="verify",
        out=out,
        argv=["verify", "--n-max", str(VERIFY_N_MAX)],
        outputs={"stdout": out / "stdout.txt", "stderr": out / "stderr.txt"},
        expected={"n_max": VERIFY_N_MAX},
    )


BUILDERS = {"audit_rows": _audit_rows, "audit_groups": _audit_groups, "dist": _dist, "verify": _verify}


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _fraction_text(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _expected_grids(table: dict[str, tuple[int, int, int, int]]) -> tuple[list[str], list[list[str]], list[list[str]]]:
    """Group order plus OFI and DI grid cell texts, from the definitions:
    B = (fp - fn)/n, OFI_ij = B_i - B_j, DI_ij = rate_i / rate_j with
    rate = (tp + fp)/n; two zero rates read "1 (contextual)" and a zero
    denominator alone "undef"."""
    names = sorted(table)
    marginal = []
    rate = []
    for name in names:
        tp, fn, fp, tn = table[name]
        n = tp + fn + fp + tn
        marginal.append(Fraction(fp - fn, n))
        rate.append(Fraction(tp + fp, n))
    ofi = [[_fraction_text(bi - bj) for bj in marginal] for bi in marginal]
    di = []
    for ri in rate:
        row = []
        for rj in rate:
            if rj > 0:
                row.append(_fraction_text(ri / rj))
            elif ri == 0:
                row.append("1 (contextual)")
            else:
                row.append("undef")
        di.append(row)
    return names, ofi, di


def _check_grid_csv(path: Path, names: list[str], cells: list[list[str]], metric: str) -> None:
    with path.open(encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    _require(rows and rows[0] == ["group", *names], f"{metric} grid header differs from the group order")
    _require(len(rows) == len(names) + 1, f"{metric} grid has {len(rows) - 1} rows, expected {len(names)}")
    for name, row, want in zip(names, rows[1:], cells):
        _require(row == [name, *want], f"{metric} grid row {name!r} differs from the exact values")


def _check_report(path: Path, table: dict, records: int) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    sizes = {name: sum(cells) for name, cells in table.items()}
    k = len(table)
    _require(doc["dataset"]["record_count"] == records,
             f"report record_count {doc['dataset']['record_count']}, expected {records}")
    _require(doc["dataset"]["group_sizes"] == sizes, "report group sizes differ from the input")
    _require(len(doc["pairs"]) == k * (k - 1), f"report has {len(doc['pairs'])} pairs, expected {k * (k - 1)}")


def _check_heatmap(path: Path, k: int) -> None:
    text = path.read_text(encoding="utf-8")
    _require(text.startswith("<?xml") and text.endswith("</svg>\n"), f"{path.name} is not a whole SVG document")
    cells = text.count('<rect class="cell"')
    _require(cells == k * k, f"{path.name} has {cells} cells, expected {k * k}")


def _check_audit(w: Workload) -> None:
    _require(w.outputs["stdout"].stat().st_size == 0, "audit wrote to stdout")
    table = w.expected["table"]
    names, ofi, di = _expected_grids(table)
    _check_grid_csv(w.outputs["grid_ofi"], names, ofi, "OFI")
    _check_grid_csv(w.outputs["grid_di"], names, di, "DI")
    for role in ("heatmap_ofi", "heatmap_di"):
        if role in w.outputs:
            _check_heatmap(w.outputs[role], len(names))
    _check_report(w.outputs["report"], table, w.expected["records"])


def _dist_multiplicity(n: int, d: int) -> int:
    """Number of quadruples with cell sum n and fp - fn = d (closed form)."""
    m = (n - abs(d)) // 2 + 1
    return m * (n + 1 - abs(d)) - m * (m - 1)


def _check_dist(w: Workload) -> None:
    n = w.expected["n"]
    with w.outputs["stdout"].open(encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    _require(rows[0] == ["score_numerator", "score_denominator", "multiplicity"], "dist CSV header differs")
    _require(len(rows) == 2 * n + 2, f"dist CSV has {len(rows) - 1} rows, expected {2 * n + 1}")
    total = 0
    for d, (num, den, mult) in zip(range(-n, n + 1), rows[1:]):
        score = Fraction(d, n)
        _require((int(num), int(den)) == (score.numerator, score.denominator),
                 f"dist row for d={d} has score {num}/{den}")
        _require(int(mult) == _dist_multiplicity(n, d), f"dist multiplicity at d={d} is {mult}")
        total += int(mult)
    _require(total == (n + 1) * (n + 2) * (n + 3) // 6, f"dist multiplicities sum to {total}")
    summary = w.outputs["stderr"].read_text(encoding="utf-8")
    variance = re.search(r"variance=(\S+)", summary)
    _require(variance is not None and Fraction(variance.group(1)) == Fraction(n + 4, 10 * n),
             "dist variance is not (n+4)/(10n)")
    total_text = re.search(r"total=(\d+)", summary)
    _require(total_text is not None and int(total_text.group(1)) == total, "dist summary total differs")


def _check_verify(w: Workload) -> None:
    lines = w.outputs["stdout"].read_text(encoding="utf-8").splitlines()
    ok = [line for line in lines if line.startswith("ok ")]
    _require(len(ok) == VERIFY_IDENTITIES, f"verify printed {len(ok)} ok lines, expected {VERIFY_IDENTITIES}")
    n_max = w.expected["n_max"]
    _require(bool(lines) and lines[-1] == f"all identities hold for n in [1, {n_max}]",
             "verify did not report that all identities hold")


CHECKS = {"audit_rows": _check_audit, "audit_groups": _check_audit, "dist": _check_dist, "verify": _check_verify}
