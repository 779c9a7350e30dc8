"""Acceptance checklist for the whole package.

Each test covers one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (run ``pytest -s tests/test_acceptance.py``
to see them). Expected values were computed with independent brute-force
oracles (full enumeration, record-level reconstruction) before the closed
forms were written.

``test_non_triangularity_margin`` checks the 0.08 gap between the score
std and the triangular reference 1/sqrt(6) where the closed form says it
holds, and nowhere else. A uniform 0.08 gap for every n <= 200 is
unattainable: sqrt((n+4)/(10n)) equals 1/sqrt(6) exactly at n=6 and stays
within 0.08 of it for all n in [3, 51]. Past n=6 the std falls strictly
toward 1/sqrt(10), so the gap rises strictly toward
1/sqrt(6) - 1/sqrt(10) = 0.0920... and first exceeds 0.08 at n=52. The test
therefore asserts that the gap exceeds 0.08 at exactly n in {1, 2} and
n in [52, 200], which decides every size in both directions.
"""

import math
import random
import time
from fractions import Fraction

from ofi_audit import exhaustive
from ofi_audit.audit import build_report, parse_report
from ofi_audit.cli import main
from ofi_audit.combinatorics import (
    TRIANGULAR_STD,
    b_stats,
    count_value,
    enumerate_cms,
    marginal_benefit_distribution,
    termial,
    total_combinations,
)
from ofi_audit.formatting import format_fixed
from ofi_audit.ingestion import PredictionRecord, aggregate, flip_polarity, iter_records
from ofi_audit.metrics import (
    BinaryConfusion,
    DiKind,
    benefit,
    disparate_impact,
    expected_benefit,
    marginal_benefit,
    ofi,
)


def check(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_scenario_reproduction():
    scenarios = {
        "A": (BinaryConfusion(1, 0, 0, 5), BinaryConfusion(7, 0, 1, 10)),
        "B": (BinaryConfusion(0, 1, 0, 5), BinaryConfusion(0, 7, 0, 11)),
        "alpha": (BinaryConfusion(1, 1, 0, 5), BinaryConfusion(1, 7, 0, 11)),
    }
    expected_rows = {
        # (b_i, E[b]_i, B_i, b_j, E[b]_j, B_j)
        "A": (Fraction(1, 6), Fraction(1, 6), Fraction(0),
              Fraction(8, 18), Fraction(7, 18), Fraction(1, 18)),
        "B": (Fraction(0), Fraction(1, 6), Fraction(-1, 6),
              Fraction(0), Fraction(7, 18), Fraction(-7, 18)),
        "alpha": (Fraction(1, 7), Fraction(2, 7), Fraction(-1, 7),
                  Fraction(1, 19), Fraction(8, 19), Fraction(-7, 19)),
    }
    ok = True
    for name, (cm_i, cm_j) in scenarios.items():
        got = (benefit(cm_i), expected_benefit(cm_i), marginal_benefit(cm_i),
               benefit(cm_j), expected_benefit(cm_j), marginal_benefit(cm_j))
        ok = ok and got == expected_rows[name]

    a_i, a_j = scenarios["A"]
    b_i, b_j = scenarios["B"]
    al_i, al_j = scenarios["alpha"]
    ok = ok and ofi(a_i, a_j) == Fraction(-1, 18)
    ok = ok and format_fixed(ofi(a_i, a_j)) == "-0.06"
    ok = ok and disparate_impact(a_i, a_j).value == Fraction(3, 8)
    ok = ok and format_fixed(disparate_impact(a_i, a_j).value) == "0.38"
    ok = ok and format_fixed(ofi(b_i, b_j)) == "0.22"
    di_b = disparate_impact(b_i, b_j)
    ok = ok and di_b.kind is DiKind.CONTEXTUAL_ONE and di_b.value == 1
    ok = ok and format_fixed(ofi(al_i, al_j)) == "0.23"
    ok = ok and format_fixed(disparate_impact(al_i, al_j).value) == "2.71"
    check("reference scenarios reproduce exactly, fractions and 2-decimal rendering", ok)


def test_counting_identities():
    start = time.perf_counter()
    ok = True
    for n, record in enumerate(exhaustive.enumerations(1, 60), 1):
        if sum(1 for _ in enumerate_cms(n)) != total_combinations(n):
            ok = False
            break
        for cell in range(4):
            counts = record.cell_counts[cell]
            for x in range(n + 1):
                if counts[x] != count_value(x, n) or counts[x] != termial(n - x + 1):
                    ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30
    check("counting identities for n in 1..60", ok, f"{elapsed:.1f}s")


def test_moment_identities():
    ok = True
    records = list(exhaustive.enumerations(1, 200))
    for n, record in enumerate(records, 1):
        ok = ok and record.mean == 0 and record.variance == Fraction(n + 4, 10 * n)
    ok = ok and len(records) == 200 and records[0].variance == Fraction(1, 2)
    ok = ok and math.isclose(b_stats(1).std, 0.70711, abs_tol=5e-6)
    check("enumerated moments match mean 0 and variance (n+4)/(10n) for n in 1..200", ok)


def test_convergence():
    stats = b_stats(10**6)  # closed form, constant time at any size
    ok = abs(stats.std - 1 / math.sqrt(10)) < 1e-5
    check("std at n=10^6 within 1e-5 of 1/sqrt(10)", ok, f"std={stats.std:.7f}")


def test_distribution_properties():
    start = time.perf_counter()
    ok = True
    for n in range(1, 201):
        dist = marginal_benefit_distribution(n)
        counts = dist.counts  # multiplicity of the score (i - n)/n at index i
        if sum(counts) != total_combinations(n):
            ok = False
        if counts != counts[::-1]:
            ok = False
        if max(counts[:n] + counts[n + 1 :]) >= counts[n]:
            ok = False
        if n <= 40 and dist != exhaustive.stream(n).histogram:
            ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60
    check(
        "distribution total/symmetry/mode for n in 1..200, enumeration equality for n in 1..40",
        ok,
        f"{elapsed:.1f}s",
    )


def test_non_triangularity_margin():
    # The gap |sqrt((n+4)/(10n)) - 1/sqrt(6)| is exactly 0 at n=6, where the
    # variance (n+4)/(10n) is 1/6, and at most 0.08 for every n in [3, 51].
    # Past n=6 it rises strictly toward 1/sqrt(6) - 1/sqrt(10) = 0.0920...
    # and never reaches it, so the 0.08 margin holds at exactly n in {1, 2}
    # and n >= 52. Every size in 1..200 is checked against that set.
    sizes = range(1, 201)
    gaps = {n: abs(b_stats(n).std - TRIANGULAR_STD) for n in sizes}
    expected = {1, 2, *range(52, 201)}
    above = {n for n in sizes if gaps[n] > 0.08}
    misclassified = sorted(above ^ expected)
    tail = [gaps[n] for n in range(6, 201)]
    rising = all(a < b for a, b in zip(tail, tail[1:]))
    below_limit = max(tail) < TRIANGULAR_STD - 1 / math.sqrt(10)
    variance_at_six = b_stats(6).variance
    exact_at_six = variance_at_six == Fraction(1, 6) and gaps[6] < 1e-12
    problems = []
    if misclassified:
        problems.append(f"misclassified sizes {misclassified}")
    if not exact_at_six:
        problems.append(f"variance at n=6 is {variance_at_six}, gap {gaps[6]:.3g}")
    if not rising:
        problems.append("gap does not rise strictly over n in 6..200")
    if not below_limit:
        problems.append(f"gap reaches 1/sqrt(6) - 1/sqrt(10), max {max(tail):.6f}")
    check(
        "std gap to the triangular reference exceeds 0.08 exactly at n in {1, 2} "
        "and 52..200; it is 0 at n=6 and rises strictly toward 0.092",
        not problems,
        "; ".join(problems),
    )


def test_metric_property_suite():
    rng = random.Random(1408)
    cases = 10_000

    def random_confusion():
        while True:
            cm = BinaryConfusion(*(rng.randint(0, 25) for _ in range(4)))
            if cm.n >= 1:
                return cm

    ok = True
    for _ in range(cases):
        a, b = random_confusion(), random_confusion()
        k = rng.randint(1, 6)
        value = ofi(a, b)
        ok = ok and -2 <= value <= 2
        ok = ok and value == -ofi(b, a)
        scaled_a = BinaryConfusion(*(k * c for c in (a.tp, a.fn, a.fp, a.tn)))
        scaled_b = BinaryConfusion(*(k * c for c in (b.tp, b.fn, b.fp, b.tn)))
        ok = ok and ofi(scaled_a, scaled_b) == value
        forward, backward = disparate_impact(a, b), disparate_impact(b, a)
        if forward.kind is DiKind.FINITE and backward.kind is DiKind.FINITE:
            ok = ok and forward.value * backward.value == 1
        ok = ok and (marginal_benefit(a) == 0) == (a.fp == a.fn)
        if not ok:
            break
    check(f"metric property suite over {cases} randomized pairs, exact assertions", ok)


def test_pipeline_round_trip(fixtures_dir, tmp_path):
    fixture = fixtures_dir / "scenario_a.csv"
    report_path = tmp_path / "report.json"
    code = main(["audit", "--input", str(fixture), "--out-report", str(report_path)])
    ok = code == 0

    lines = fixture.read_text().splitlines()
    records = list(iter_records(lines))
    ok = ok and len(records) == 24
    direct = build_report(aggregate(records))
    from_cli = parse_report(report_path.read_text())
    ok = ok and from_cli == direct
    ok = ok and [[Fraction(x, y) for x, y in row] for row in from_cli.ofi_grid.integer_rows()] == [
        [Fraction(0), Fraction(-1, 18)],
        [Fraction(1, 18), Fraction(0)],
    ]
    ok = ok and Fraction(*next(from_cli.di_grid.integer_rows())[1]) == Fraction(3, 8)

    plain = aggregate(records)
    flipped = flip_polarity(plain)
    complemented = [PredictionRecord(r.group, 1 - r.label, 1 - r.prediction) for r in records]
    ok = ok and flipped == aggregate(complemented)
    for name, cm in plain.groups.items():
        ok = ok and marginal_benefit(flipped.groups[name]) == -marginal_benefit(cm)
    check("24-record pipeline round trip with polarity flip", ok)
