"""Exact bias metrics over binary confusion matrices.

Every metric here is computed with exact rational arithmetic
(:class:`fractions.Fraction`). Floating point never enters a metric value;
decimals appear only when results are formatted for display. Verdicts
are exact integer comparisons: :func:`ofi_rule` and :func:`di_rule`
cross-multiply a value's numerator and denominator with the threshold's.
:func:`ofi_verdict` and :func:`four_fifths_verdict` are the public
``Fraction`` API over them: each checks its thresholds with
:func:`_check_ofi_threshold` or :func:`_check_di_band`, the checks that
the audit config also makes, then hands a value's integer parts to the
rule.

Conventions:

* The positive prediction is the beneficial outcome. Datasets where the
  negative label is the beneficial one should be flipped first (see
  :func:`ofi_audit.ingestion.flip_polarity`).
* Two-group metrics are directional. The first argument is the group the
  score is *for*; OFI is antisymmetric and DI values are reciprocal, so
  callers must fix the comparison direction explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import index


DEFAULT_OFI_THRESHOLD = Fraction(3, 10)
FOUR_FIFTHS_LOW = Fraction(4, 5)
FOUR_FIFTHS_HIGH = Fraction(5, 4)


class EmptyGroupError(ValueError):
    """A metric was requested for a group with no observations."""


class ThresholdError(ValueError):
    """A verdict threshold is outside its valid range."""


@dataclass(frozen=True, slots=True)
class BinaryConfusion:
    """Outcome counts (tp, fn, fp, tn) for one group's binary predictions.

    ``tp`` counts label 1 / prediction 1, ``fn`` label 1 / prediction 0,
    ``fp`` label 0 / prediction 1 and ``tn`` label 0 / prediction 0. All
    four cells are non-negative integers; an all-zero matrix is a valid
    value but metric functions reject it.
    """

    tp: int
    fn: int
    fp: int
    tn: int

    def __post_init__(self) -> None:
        for name in ("tp", "fn", "fp", "tn"):
            value = getattr(self, name)
            # plain ints are stored as given; bools and other __index__ types become int
            if type(value) is not int:
                value = index(value)
                object.__setattr__(self, name, value)
            if value < 0:
                raise ValueError(f"confusion cell {name} must be >= 0, got {value}")

    @property
    def n(self) -> int:
        """Total number of observations."""
        return self.tp + self.fn + self.fp + self.tn

    @property
    def positive_labels(self) -> int:
        return self.tp + self.fn

    @property
    def positive_predictions(self) -> int:
        return self.tp + self.fp


class DiKind(Enum):
    """How a disparate-impact value should be read."""

    FINITE = "finite"
    CONTEXTUAL_ONE = "contextual_one"
    UNDEFINED_ZERO_DENOMINATOR = "undefined_zero_denominator"


@dataclass(frozen=True, slots=True)
class DiScore:
    """A disparate-impact result with explicit undefined states.

    DI is a ratio of positive-prediction rates, so it is undefined when the
    second group's rate is zero. Two zero rates are conventionally read as
    "equal rates", carried here as ``CONTEXTUAL_ONE`` with value 1. A zero
    denominator against a nonzero numerator has no such convention and is
    reported as ``UNDEFINED_ZERO_DENOMINATOR`` with no value, rather than
    as an infinity or NaN.
    """

    kind: DiKind
    value: Fraction | None

    @classmethod
    def finite(cls, value: Fraction) -> "DiScore":
        if not isinstance(value, Fraction):
            value = Fraction(value)
        if value.numerator < 0:
            raise ValueError(f"a finite DI value cannot be negative: {value}")
        return cls(DiKind.FINITE, value)

    @classmethod
    def contextual_one(cls) -> "DiScore":
        return cls(DiKind.CONTEXTUAL_ONE, Fraction(1))

    @classmethod
    def zero_denominator(cls) -> "DiScore":
        return cls(DiKind.UNDEFINED_ZERO_DENOMINATOR, None)


class BiasVerdict(Enum):
    """Categorical reading of a bias score against a threshold rule."""

    BIAS_TOWARD_FIRST = "bias_toward_first"
    BIAS_TOWARD_SECOND = "bias_toward_second"
    NO_BIAS_INDICATED = "no_bias_indicated"
    UNDEFINED = "undefined"


def _require_samples(cm: BinaryConfusion, which: str = "group") -> None:
    if cm.n == 0:
        raise EmptyGroupError(f"{which} has no observations (n=0)")


def benefit(cm: BinaryConfusion) -> Fraction:
    """Positive-prediction rate (tp + fp) / n: the share of the group that
    received the beneficial outcome."""
    _require_samples(cm)
    return Fraction(cm.positive_predictions, cm.n)


def expected_benefit(cm: BinaryConfusion) -> Fraction:
    """Positive-label rate (tp + fn) / n: the share of the group that
    should have received the beneficial outcome per the ground labels."""
    _require_samples(cm)
    return Fraction(cm.positive_labels, cm.n)


def marginal_benefit(cm: BinaryConfusion) -> Fraction:
    """Benefit minus expected benefit, which reduces to (fp - fn) / n.

    Negative values mean the group received less than its labels warrant,
    positive values a surplus, zero an exactly proportionate outcome.
    """
    _require_samples(cm)
    return Fraction(cm.fp - cm.fn, cm.n)


def ofi(cm_i: BinaryConfusion, cm_j: BinaryConfusion) -> Fraction:
    """Objective Fairness Index for group i versus group j.

    The difference of the two marginal benefits, in [-2, 2]. It is
    antisymmetric in its arguments and zero when the two groups are
    treated equally relative to their own labels.
    """
    _require_samples(cm_i, "first group")
    _require_samples(cm_j, "second group")
    return marginal_benefit(cm_i) - marginal_benefit(cm_j)


def disparate_impact(cm_i: BinaryConfusion, cm_j: BinaryConfusion) -> DiScore:
    """Disparate impact of group i versus group j.

    The ratio of the groups' positive-prediction rates, their benefits:
    finite when group j's rate is positive, the contextual value 1 when
    both rates are zero, and an explicit zero-denominator marker when
    only group j's rate is zero.
    """
    _require_samples(cm_i, "first group")
    _require_samples(cm_j, "second group")
    rate_i, rate_j = benefit(cm_i), benefit(cm_j)
    if rate_j > 0:
        return DiScore.finite(rate_i / rate_j)
    if rate_i == 0:
        return DiScore.contextual_one()
    return DiScore.zero_denominator()


# The one home of each threshold rule; the audit config and the verdict
# wrappers below all check their thresholds here.

def _check_ofi_threshold(threshold: Fraction) -> None:
    if threshold <= 0:
        raise ThresholdError(f"OFI threshold must be > 0, got {threshold}")


def _check_di_band(low: Fraction, high: Fraction) -> None:
    if low <= 0 or high <= 0 or low > high:
        raise ThresholdError(f"bad DI band [{low}, {high}]")


def di_rule(x: int, y: int, low: Fraction, high: Fraction) -> BiasVerdict:
    """The four-fifths band rule for the DI value x/y, with x, y >= 0.

    Above ``high`` (``x·h_q > h_p·y`` for ``high = h_p/h_q``) flags bias
    toward the first group, below ``low`` (``x·l_q < l_p·y``) toward the
    second; the closed band is no indication. A ``y`` of 0 is
    ``UNDEFINED`` unless ``x`` is also 0: that is the contextual 1, judged
    against the band as the value 1/1. The band is taken as already
    validated.
    """
    if y == 0:
        if x != 0:
            return BiasVerdict.UNDEFINED
        x = y = 1
    if x * high.denominator > high.numerator * y:
        return BiasVerdict.BIAS_TOWARD_FIRST
    if x * low.denominator < low.numerator * y:
        return BiasVerdict.BIAS_TOWARD_SECOND
    return BiasVerdict.NO_BIAS_INDICATED


def four_fifths_verdict(
    di: DiScore,
    low: Fraction = FOUR_FIFTHS_LOW,
    high: Fraction = FOUR_FIFTHS_HIGH,
) -> BiasVerdict:
    """Classify a DI score with the four-fifths screening band.

    Values above ``high`` flag bias toward the first group, values below
    ``low`` bias toward the second; the closed band [low, high] is read as
    no indication. A contextual 1 is judged as the value 1, so a band
    that excludes 1 flags it as it would a finite 1; a zero-denominator
    DI yields ``UNDEFINED``. The band is validated, then
    :func:`di_rule` decides.
    """
    low = Fraction(low)
    high = Fraction(high)
    _check_di_band(low, high)
    if di.kind is DiKind.FINITE:
        assert di.value is not None
        return di_rule(di.value.numerator, di.value.denominator, low, high)
    # the rates' ratio had a zero denominator: 0/0 is the contextual 1
    return di_rule(0 if di.kind is DiKind.CONTEXTUAL_ONE else 1, 0, low, high)


def ofi_rule(num: int, den: int, threshold: Fraction) -> BiasVerdict:
    """The symmetric threshold rule for the OFI value num/den, den > 0.

    With ``threshold = p/q``, ``num·q > p·den`` flags bias toward the
    first group and ``num·q < −p·den`` toward the second; the closed band
    between is no indication. The threshold is taken as already
    validated.
    """
    p, q = threshold.numerator, threshold.denominator
    if num * q > p * den:
        return BiasVerdict.BIAS_TOWARD_FIRST
    if num * q < -p * den:
        return BiasVerdict.BIAS_TOWARD_SECOND
    return BiasVerdict.NO_BIAS_INDICATED


def ofi_verdict(
    value: Fraction,
    threshold: Fraction = DEFAULT_OFI_THRESHOLD,
) -> BiasVerdict:
    """Classify an OFI value against a symmetric threshold band.

    The closed band [-threshold, threshold] is the no-bias region, so
    boundary values do not flag bias. The default threshold of 3/10 suits
    uniformly distributed confusion matrices; domains with concentrated
    outcomes should lower it. The threshold is validated, then
    :func:`ofi_rule` decides.
    """
    threshold = Fraction(threshold)
    _check_ofi_threshold(threshold)
    value = Fraction(value)
    return ofi_rule(value.numerator, value.denominator, threshold)
