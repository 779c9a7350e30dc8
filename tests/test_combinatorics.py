"""Closed forms against enumeration oracles, plus the stated examples."""

import math
import tracemalloc
from array import array
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ofi_audit import exhaustive
from ofi_audit.combinatorics import (
    CSV_CHUNK_ROWS,
    TRIANGULAR_STD,
    b_stats,
    count_value,
    distribution_csv_chunks,
    enumerate_cms,
    marginal_benefit_distribution,
    prime_powers,
    score_counts,
    score_gcds,
    termial,
    total_combinations,
)
from ofi_audit.verification import STREAM_CHECK_MAX
from reference import pair_score_counts_loops


def csv_rows(n: int) -> list[tuple[int, int, int]]:
    """The rows of the CSV text of size n, header checked and dropped."""
    header, *lines = "".join(distribution_csv_chunks(n)).splitlines()
    assert header == "score_numerator,score_denominator,multiplicity"
    return [tuple(int(field) for field in line.split(",")) for line in lines]


def oracle_rows(n: int) -> list[tuple[int, int, int]]:
    """The rows the CSV must hold: each score d/n reduced by Fraction,
    with its multiplicity from the pair-loop reference."""
    mults = pair_score_counts_loops(n)
    return [
        (Fraction(d, n).numerator, Fraction(d, n).denominator, mults[d + n])
        for d in range(-n, n + 1)
    ]


# the ten quadruples of size 2, spelled out
M2 = {
    (2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2),
    (1, 0, 0, 1), (1, 0, 1, 0), (1, 1, 0, 0), (0, 1, 0, 1),
    (0, 1, 1, 0), (0, 0, 1, 1),
}


class TestTermial:
    def test_examples(self):
        assert termial(0) == 0
        assert (termial(1), termial(2), termial(3)) == (1, 3, 6)
        assert termial(100) == sum(range(1, 101)) == 5050

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            termial(-1)


class TestEnumerateCms:
    def test_size_one_is_the_unit_vectors(self):
        assert set(enumerate_cms(1)) == {
            (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
        }

    def test_size_two_matches_the_listing(self):
        assert set(enumerate_cms(2)) == M2

    def test_lexicographic_order(self):
        for n in (1, 2, 5, 9):
            items = list(enumerate_cms(n))
            assert items == sorted(items)
            assert len(items) == len(set(items))

    def test_cells_sum_to_n(self):
        assert all(sum(cm) == 7 for cm in enumerate_cms(7))

    def test_size_five_count(self):
        assert len(list(enumerate_cms(5))) == 56 == total_combinations(5)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            list(enumerate_cms(0))


class TestCountValue:
    def test_examples(self):
        assert count_value(2, 2) == 1
        assert count_value(1, 2) == 3
        assert count_value(0, 2) == 6
        assert count_value(3, 7) == 15

    def test_against_enumeration(self):
        for n in (1, 2, 3, 7, 11):
            for cell in range(4):
                observed = Counter(cm[cell] for cm in enumerate_cms(n))
                for x in range(n + 1):
                    assert observed[x] == count_value(x, n) == termial(n - x + 1)

    @pytest.mark.parametrize("x", [-1, 8])
    def test_domain(self, x):
        with pytest.raises(ValueError):
            count_value(x, 7)


class TestTotalCombinations:
    @pytest.mark.parametrize("n, expected", [(1, 4), (2, 10), (60, 39711)])
    def test_examples(self, n, expected):
        assert total_combinations(n) == expected

    def test_against_enumeration(self):
        for n in (1, 2, 3, 8, 13):
            assert total_combinations(n) == len(list(enumerate_cms(n)))


class TestCountSumIdentity:
    @pytest.mark.parametrize("n", [1, 2, 37])
    def test_holds(self, n):
        assert sum(count_value(x, n) for x in range(n + 1)) == total_combinations(n)


class TestCountIncrement:
    """count_value(x, n + 1) - count_value(x, n), the growth of a value's
    count when one sample is added."""

    def test_examples(self):
        assert count_value(0, 2) - count_value(0, 1) == 3
        assert count_value(4, 11) - count_value(4, 10) == 8
        for n in (1, 4, 9):
            assert count_value(n, n + 1) - count_value(n, n) == 2

    def test_lemma_formula(self):
        for n in range(1, 30):
            for x in range(n + 1):
                assert count_value(x, n + 1) - count_value(x, n) == n - x + 2

    def test_against_enumeration(self):
        for n in (3, 10):
            before = Counter(cm[0] for cm in enumerate_cms(n))
            after = Counter(cm[0] for cm in enumerate_cms(n + 1))
            for x in range(n + 1):
                assert after[x] - before[x] == count_value(x, n + 1) - count_value(x, n)

    def test_domain(self):
        # x = 11 has a count at n = 11 but none at n = 10
        assert count_value(11, 11) == 1
        with pytest.raises(ValueError):
            count_value(11, 10)


class TestDistribution:
    def test_size_one(self):
        # scores -1, 0, 1 at indices d + n
        assert marginal_benefit_distribution(1).tolist() == [1, 2, 1]

    def test_matches_enumeration_histogram(self):
        for n in range(1, 15):
            assert marginal_benefit_distribution(n) == exhaustive.stream(n).histogram

    @pytest.mark.parametrize("n", [1, 2, 6, 17, 50])
    def test_total_symmetry_mode(self, n):
        counts = marginal_benefit_distribution(n)
        assert sum(counts) == total_combinations(n)
        assert counts == counts[::-1]
        # zero, at index n, is the unique most frequent score
        assert max(counts[:n] + counts[n + 1 :]) < counts[n]

    def test_scores_are_reduced_with_denominator_dividing_n(self):
        rows = csv_rows(12)
        assert len(rows) == 25
        for num, den, _ in rows:
            assert math.gcd(num, den) == 1
            assert 12 % den == 0
            assert -1 <= Fraction(num, den) <= 1

    def test_csv_rows_ascending(self):
        rows = csv_rows(3)
        scores = [Fraction(num, den) for num, den, _ in rows]
        assert scores == sorted(scores)
        assert sum(mult for _, _, mult in rows) == total_combinations(3)

    def test_csv_rows_match_reduced_fractions(self):
        for n in range(1, 61):
            assert csv_rows(n) == oracle_rows(n)

    def test_csv_multiplicities_are_the_distributions(self):
        # dist writes from the closed form that verify checks
        for n in range(1, 301):
            mults = [mult for _, _, mult in csv_rows(n)]
            assert mults == marginal_benefit_distribution(n).tolist(), n
            assert mults == pair_score_counts_loops(n), n

    @pytest.mark.parametrize("n", [2049, 3071, 3600, 4096, 5000, 5040, 7919])
    def test_csv_rows_match_reduced_fractions_across_chunks(self, n):
        # d = 0 falls inside a chunk at 2049, 3600, 5000, 5040 and 7919,
        # closes one at 3071 and opens one at 4096; 5040 has 60 divisors,
        # 7919 two, and the square 3600 has its root 60 among its 45
        assert 2 * n + 1 > CSV_CHUNK_ROWS
        assert csv_rows(n) == oracle_rows(n)

    def test_piece_gcds_match_math_gcd(self):
        for n in range(1, 2001):
            powers = prime_powers(n)
            for start in range(-n, n + 1, CSV_CHUNK_ROWS):
                stop = min(start + CSV_CHUNK_ROWS, n + 1)
                expected = [math.gcd(d, n) for d in range(start, stop)]
                assert score_gcds(powers, start, stop) == expected, (n, start)

    def test_prime_powers(self):
        assert prime_powers(1) == []
        assert prime_powers(720720) == [
            (2, 2), (4, 2), (8, 2), (16, 2), (3, 3), (9, 3), (5, 5), (7, 7), (11, 11), (13, 13),
        ]
        assert prime_powers(2 * 7919) == [(2, 2), (7919, 7919)]
        assert prime_powers(3_810_776) == [(2, 2), (4, 2), (8, 2), (476347, 476347)]

    def test_csv_text_comes_in_bounded_pieces(self):
        # 2n + 1 = CSV_CHUNK_ROWS + 1 rows: one full piece and one single row
        n = (CSV_CHUNK_ROWS + 1) // 2
        header, *pieces = distribution_csv_chunks(n)
        assert header.count("\n") == 1
        assert [piece.count("\n") for piece in pieces] == [CSV_CHUNK_ROWS, 1]

    def test_csv_rejects_sizes_before_any_text(self):
        with pytest.raises(ValueError):
            distribution_csv_chunks(0)

    def test_first_csv_piece_at_the_limit_allocates_no_array(self):
        # an array over the 2n + 1 scores at the prime n = 9999999967 is
        # 160 GB of int64 counts and 40 GB of int32 gcds; the header and
        # one piece are not
        tracemalloc.start()
        try:
            chunks = distribution_csv_chunks(9_999_999_967)
            next(chunks), next(chunks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_csv_memory_does_not_grow_with_n(self):
        # the traced peak while every piece is made and dropped: a few
        # pieces' worth, well under 512 KB and within 64 KB at both sizes,
        # where the counts and gcds of 10^5 alone would take 2 MB
        peaks = []
        for n in (10_000, 100_000):
            tracemalloc.start()
            try:
                for _ in distribution_csv_chunks(n):
                    pass
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 512 << 10
        assert abs(peaks[1] - peaks[0]) < 64 << 10

    def test_equality_compares_every_multiplicity(self):
        dist = marginal_benefit_distribution(7)
        assert dist == array("q", dist)
        changed = array("q", dist)
        changed[3] += 1
        assert dist != changed

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match=r"^n must be >= 1, got 0$"):
            marginal_benefit_distribution(0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 10**10), st.integers(0, 2 * 10**10), st.integers(0, 512))
    @example(3_810_777, 0, 512)
    @example(3_810_777, 3_810_777 - 256, 512)
    @example(2**33, 2**33, 512)
    @example(9_999_999_967, 2 * 9_999_999_967 - 511, 512)
    def test_pieces_are_exact_at_any_size(self, n, offset, width):
        # far past where an int64 total overflows (n = 3810777): a window
        # of at most 512 d, starting offset % (2n + 1) places above -n
        start = -n + offset % (2 * n + 1)
        stop = min(start + width, n + 1)
        expected = []
        for d in range(start, stop):
            m = (n - abs(d)) // 2 + 1
            expected.append(m * (n + 1 - abs(d)) - m * (m - 1))
        assert score_counts(n, start, stop) == expected
        powers = prime_powers(n)
        assert score_gcds(powers, start, stop) == [math.gcd(d, n) for d in range(start, stop)]
        assert math.prod(p for _, p in powers) == n


class TestEnumerationRecord:
    def test_stream_equals_kernel_enumeration(self):
        # from n = 10 on, the walk spans more than one batch
        assert total_combinations(9) <= exhaustive.STREAM_BATCH < total_combinations(10)
        records = list(exhaustive.enumerations(1, STREAM_CHECK_MAX))
        assert len(records) == STREAM_CHECK_MAX
        for n, record in enumerate(records, 1):
            assert exhaustive.stream(n) == record

    def test_stream_leaves_off_grid_scores_out_of_the_histogram(self, monkeypatch):
        # with scores (fp - fn)/7 at n = 6, only 0 is a multiple of 1/6
        monkeypatch.setattr(
            exhaustive, "marginal_benefit", lambda cm: Fraction(cm.fp - cm.fn, cm.n + 1)
        )
        record = exhaustive.stream(6)
        on_grid = sum(1 for _, fn, fp, _ in enumerate_cms(6) if fp == fn)
        assert record.count == total_combinations(6)
        assert record.histogram.tolist() == [0] * 6 + [on_grid] + [0] * 6

    def test_range_starts_at_n_min(self):
        records = list(exhaustive.enumerations(7, 9))
        assert [len(record.histogram) for record in records] == [15, 17, 19]
        assert records[0] == exhaustive.stream(7)

    def test_equality_compares_every_field(self):
        (record,) = exhaustive.enumerations(5, 5)
        cells = [list(counts) for counts in record.cell_counts]
        cells[2][1] += 1
        counts = array("q", record.histogram)
        counts[0] += 1
        for changed in (
            replace(record, count=record.count + 1),
            replace(record, cell_counts=tuple(map(tuple, cells))),
            replace(record, histogram=counts),
            replace(record, mean=Fraction(1, 5)),
            replace(record, variance=record.variance + 1),
        ):
            assert changed != record
        copied = tuple(tuple(list(counts)) for counts in record.cell_counts)
        assert replace(record, cell_counts=copied) == record


class TestBStats:
    def test_size_one(self):
        stats = b_stats(1)
        assert stats.mean == 0
        assert stats.variance == Fraction(1, 2)
        assert math.isclose(stats.std, math.sqrt(0.5), rel_tol=1e-12)

    def test_size_four_against_brute_force(self):
        scores = [Fraction(fp - fn, 4) for (tp, fn, fp, tn) in enumerate_cms(4)]
        assert len(scores) == 35
        brute_var = sum(s**2 for s in scores) / len(scores)  # mean is 0
        assert brute_var == Fraction(1, 5) == b_stats(4).variance

    def test_matches_enumeration_moments(self):
        for n in range(1, 15):
            record = exhaustive.stream(n)
            stats = b_stats(n)
            assert record.mean == stats.mean == 0
            assert record.variance == stats.variance == Fraction(n + 4, 10 * n)

    def test_std_squares_to_variance(self):
        for n in (1, 7, 100, 10**6):
            stats = b_stats(n)
            assert math.isclose(stats.std**2, float(stats.variance), rel_tol=1e-12)

    def test_limits(self):
        assert math.isclose(b_stats(10**6).std, 1 / math.sqrt(10), abs_tol=1e-5)
        assert abs(float(b_stats(10**8).variance) - 0.1) < 1e-8

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            b_stats(0)


class TestNonTriangularWitness:
    """The exact std against the triangular reference 1/sqrt(6)."""

    def test_reference_constant(self):
        assert TRIANGULAR_STD == 1 / math.sqrt(6)
        assert math.isclose(TRIANGULAR_STD, 0.4082, abs_tol=5e-4)

    def test_size_100(self):
        std = b_stats(100).std
        assert math.isclose(std, 0.3225, abs_tol=5e-4)
        assert abs(std - TRIANGULAR_STD) > 0.08

    def test_size_one(self):
        std = b_stats(1).std
        assert math.isclose(std, 0.7071, abs_tol=5e-4)
        assert abs(std - TRIANGULAR_STD) > 0.08

    def test_size_six_coincidence(self):
        # (n+4)/(10n) equals 1/6 exactly at n=6, so the std gap vanishes
        # there; the distribution still is not triangular at that size.
        assert b_stats(6).variance == Fraction(1, 6)
        assert abs(b_stats(6).std - TRIANGULAR_STD) < 1e-12
        dist = marginal_benefit_distribution(6)
        brute_var = sum(
            Fraction(i - 6, 6) ** 2 * m for i, m in enumerate(dist.tolist())
        ) / sum(dist)
        assert brute_var == Fraction(1, 6)

    def test_gap_exceeds_008_away_from_the_window(self):
        for n in (1, 2, 52, 120, 200):
            assert abs(b_stats(n).std - TRIANGULAR_STD) > 0.08
