"""Unit and property tests for the exact metric core."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofi_audit.metrics import (
    BiasVerdict,
    BinaryConfusion,
    DiKind,
    DiScore,
    EmptyGroupError,
    ThresholdError,
    benefit,
    disparate_impact,
    expected_benefit,
    four_fifths_verdict,
    marginal_benefit,
    ofi,
    ofi_verdict,
)

A_I = BinaryConfusion(1, 0, 0, 5)
A_J = BinaryConfusion(7, 0, 1, 10)
B_I = BinaryConfusion(0, 1, 0, 5)
B_J = BinaryConfusion(0, 7, 0, 11)
AL_I = BinaryConfusion(1, 1, 0, 5)
AL_J = BinaryConfusion(1, 7, 0, 11)

cells = st.integers(min_value=0, max_value=200)
confusions = st.builds(BinaryConfusion, cells, cells, cells, cells).filter(
    lambda cm: cm.n >= 1
)


class TestBinaryConfusion:
    def test_derived_totals(self):
        cm = BinaryConfusion(3, 4, 5, 6)
        assert cm.n == 18
        assert cm.positive_labels == 7
        assert cm.positive_predictions == 8

    def test_integer_like_cells_are_stored_as_int(self):
        class Three:  # an integer type of another library, as operator.index sees it
            def __index__(self):
                return 3

        cm = BinaryConfusion(True, Three(), 0, 2)
        assert (cm.tp, cm.fn) == (1, 3)
        assert all(type(cell) is int for cell in (cm.tp, cm.fn, cm.fp, cm.tn))

    def test_rejects_negative_cells(self):
        for name in ("tp", "fn", "fp", "tn"):
            cells = {"tp": 1, "fn": 0, "fp": 0, "tn": 0, name: -1}
            with pytest.raises(ValueError, match=f"confusion cell {name} must be >= 0, got -1"):
                BinaryConfusion(**cells)

    def test_rejects_non_integers(self):
        for value in (1.5, "1"):
            with pytest.raises(TypeError):
                BinaryConfusion(value, 0, 0, 0)


class TestBenefit:
    @pytest.mark.parametrize(
        "cm, expected",
        [
            (A_I, Fraction(1, 6)),
            (A_J, Fraction(8, 18)),
            (BinaryConfusion(0, 0, 0, 4), Fraction(0)),
        ],
    )
    def test_examples(self, cm, expected):
        assert benefit(cm) == expected

    def test_empty_group(self):
        with pytest.raises(EmptyGroupError):
            benefit(BinaryConfusion(0, 0, 0, 0))


class TestExpectedBenefit:
    @pytest.mark.parametrize(
        "cm, expected",
        [
            (A_J, Fraction(7, 18)),
            (B_J, Fraction(7, 18)),
            (BinaryConfusion(2, 0, 0, 0), Fraction(1)),
        ],
    )
    def test_examples(self, cm, expected):
        assert expected_benefit(cm) == expected

    def test_empty_group(self):
        with pytest.raises(EmptyGroupError):
            expected_benefit(BinaryConfusion(0, 0, 0, 0))


class TestMarginalBenefit:
    @pytest.mark.parametrize(
        "cm, expected",
        [
            (BinaryConfusion(1, 1, 0, 5), Fraction(-1, 7)),
            (B_J, Fraction(-7, 18)),
            (BinaryConfusion(4, 3, 3, 2), Fraction(0)),
        ],
    )
    def test_examples(self, cm, expected):
        assert marginal_benefit(cm) == expected

    def test_empty_group(self):
        with pytest.raises(EmptyGroupError):
            marginal_benefit(BinaryConfusion(0, 0, 0, 0))


class TestOfi:
    @pytest.mark.parametrize(
        "cm_i, cm_j, expected",
        [
            (A_I, A_J, Fraction(-1, 18)),
            (B_I, B_J, Fraction(4, 18)),
            (AL_I, AL_J, Fraction(30, 133)),
        ],
    )
    def test_scenario_examples(self, cm_i, cm_j, expected):
        assert ofi(cm_i, cm_j) == expected

    def test_empty_group_names_side(self):
        empty = BinaryConfusion(0, 0, 0, 0)
        with pytest.raises(EmptyGroupError, match="first group"):
            ofi(empty, A_J)
        with pytest.raises(EmptyGroupError, match="second group"):
            ofi(A_I, empty)


class TestDisparateImpact:
    def test_scenario_a_finite(self):
        di = disparate_impact(A_I, A_J)
        assert di == DiScore.finite(Fraction(3, 8))
        assert float(di.value) == 0.375

    def test_scenario_b_contextual_one(self):
        di = disparate_impact(B_I, B_J)
        assert di.kind is DiKind.CONTEXTUAL_ONE
        assert di.value == 1

    def test_scenario_alpha(self):
        assert disparate_impact(AL_I, AL_J) == DiScore.finite(Fraction(19, 7))

    def test_zero_denominator(self):
        di = disparate_impact(A_I, B_J)  # first has positives, second has none
        assert di.kind is DiKind.UNDEFINED_ZERO_DENOMINATOR
        assert di.value is None

    def test_empty_group(self):
        with pytest.raises(EmptyGroupError):
            disparate_impact(BinaryConfusion(0, 0, 0, 0), A_J)

    def test_finite_rejects_negative(self):
        with pytest.raises(ValueError):
            DiScore.finite(Fraction(-1, 2))


class TestFourFifthsVerdict:
    @pytest.mark.parametrize(
        "di, expected",
        [
            (DiScore.finite(Fraction(3, 8)), BiasVerdict.BIAS_TOWARD_SECOND),
            (DiScore.finite(Fraction(1)), BiasVerdict.NO_BIAS_INDICATED),
            (DiScore.finite(Fraction(19, 7)), BiasVerdict.BIAS_TOWARD_FIRST),
            (DiScore.contextual_one(), BiasVerdict.NO_BIAS_INDICATED),
            (DiScore.zero_denominator(), BiasVerdict.UNDEFINED),
        ],
    )
    def test_examples(self, di, expected):
        assert four_fifths_verdict(di) == expected

    @pytest.mark.parametrize("edge", [Fraction(4, 5), Fraction(5, 4)])
    def test_band_edges_are_no_bias(self, edge):
        assert four_fifths_verdict(DiScore.finite(edge)) == BiasVerdict.NO_BIAS_INDICATED

    def test_bad_band(self):
        # the texts AuditConfig gives for the same band
        with pytest.raises(ThresholdError, match=r"^bad DI band \[0, 2\]$"):
            four_fifths_verdict(DiScore.finite(Fraction(1)), low=Fraction(0), high=Fraction(2))
        with pytest.raises(ThresholdError, match=r"^bad DI band \[2, 1\]$"):
            four_fifths_verdict(DiScore.finite(Fraction(1)), low=Fraction(2), high=Fraction(1))


class TestOfiVerdict:
    @pytest.mark.parametrize(
        "value, expected",
        [
            (Fraction(0), BiasVerdict.NO_BIAS_INDICATED),
            (Fraction(4, 18), BiasVerdict.NO_BIAS_INDICATED),
            (Fraction(2), BiasVerdict.BIAS_TOWARD_FIRST),
            (Fraction(-2), BiasVerdict.BIAS_TOWARD_SECOND),
            (Fraction(3, 10), BiasVerdict.NO_BIAS_INDICATED),
            (Fraction(-3, 10), BiasVerdict.NO_BIAS_INDICATED),
        ],
    )
    def test_examples(self, value, expected):
        assert ofi_verdict(value) == expected

    def test_custom_threshold(self):
        assert ofi_verdict(Fraction(4, 18), Fraction(1, 5)) == BiasVerdict.BIAS_TOWARD_FIRST

    def test_threshold_must_be_positive(self):
        with pytest.raises(ThresholdError, match=r"^OFI threshold must be > 0, got 0$"):
            ofi_verdict(Fraction(0), Fraction(0))
        with pytest.raises(ThresholdError, match=r"^OFI threshold must be > 0, got -1/10$"):
            ofi_verdict(Fraction(0), Fraction(-1, 10))


class TestProperties:
    @given(confusions)
    def test_rates_in_unit_interval(self, cm):
        assert 0 <= benefit(cm) <= 1
        assert 0 <= expected_benefit(cm) <= 1
        assert -1 <= marginal_benefit(cm) <= 1

    @given(confusions)
    def test_marginal_is_benefit_minus_expected(self, cm):
        assert marginal_benefit(cm) == benefit(cm) - expected_benefit(cm)

    @given(confusions)
    def test_marginal_zero_iff_symmetric_errors(self, cm):
        assert (marginal_benefit(cm) == 0) == (cm.fp == cm.fn)

    @given(confusions, confusions)
    def test_ofi_range_and_antisymmetry(self, a, b):
        value = ofi(a, b)
        assert -2 <= value <= 2
        assert value == -ofi(b, a)

    @given(confusions)
    def test_ofi_self_is_zero(self, cm):
        assert ofi(cm, cm) == 0

    @given(confusions, confusions, st.integers(1, 60), st.integers(1, 60))
    @settings(max_examples=200)
    def test_ofi_scale_invariance(self, a, b, k1, k2):
        # rates are unchanged under any per-group positive scaling
        scaled_a = BinaryConfusion(*(k1 * c for c in (a.tp, a.fn, a.fp, a.tn)))
        scaled_b = BinaryConfusion(*(k2 * c for c in (b.tp, b.fn, b.fp, b.tn)))
        assert ofi(scaled_a, scaled_b) == ofi(a, b)

    @given(confusions, confusions)
    def test_di_reciprocity(self, a, b):
        forward = disparate_impact(a, b)
        backward = disparate_impact(b, a)
        if forward.kind is DiKind.FINITE and backward.kind is DiKind.FINITE:
            assert forward.value * backward.value == 1

    @given(confusions)
    def test_di_self(self, cm):
        di = disparate_impact(cm, cm)
        if cm.positive_predictions > 0:
            assert di == DiScore.finite(Fraction(1))
        else:
            assert di.kind is DiKind.CONTEXTUAL_ONE
