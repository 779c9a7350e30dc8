"""Group-fairness auditing with the Objective Fairness Index.

The package computes exact-rational bias metrics (benefit, expected
benefit, marginal benefit, OFI, disparate impact) over per-group binary
confusion matrices, aggregates record-level CSV data, renders pairwise
reports and heatmaps, and provides the counting and distribution analysis
of the marginal-benefit score over all confusion matrices of a given
size, verified against brute-force enumeration.

The package root exports what the README's Library example imports, plus
``parse_report``; everything else is imported from its submodule.
"""

__version__ = "0.1.0"

from .audit import build_report, parse_report, serialize_report
from .combinatorics import b_stats, marginal_benefit_distribution
from .ingestion import aggregate, flip_polarity, iter_records
from .metrics import (
    BinaryConfusion,
    disparate_impact,
    four_fifths_verdict,
    ofi,
    ofi_verdict,
)

__all__ = [
    "BinaryConfusion",
    "aggregate",
    "b_stats",
    "build_report",
    "disparate_impact",
    "flip_polarity",
    "four_fifths_verdict",
    "iter_records",
    "marginal_benefit_distribution",
    "ofi",
    "ofi_verdict",
    "parse_report",
    "serialize_report",
]
