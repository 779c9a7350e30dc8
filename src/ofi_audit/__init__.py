"""Group-fairness auditing with the Objective Fairness Index.

The package computes exact-rational bias metrics (benefit, expected
benefit, marginal benefit, OFI, disparate impact) over per-group binary
confusion matrices, aggregates record-level CSV data, renders pairwise
reports and heatmaps, and provides the counting and distribution analysis
of the marginal-benefit score over all confusion matrices of a given
size, verified against brute-force enumeration.

The package root exports what the README's Library example imports, plus
``parse_report``; everything else is imported from its submodule. Each
root name loads its submodule when it is first used, so ``import
ofi_audit``, and every CLI run, loads only the submodules it needs.
"""

__version__ = "0.1.0"

# each root name and the submodule that defines it
_HOMES = {
    "BinaryConfusion": "metrics",
    "aggregate": "ingestion",
    "b_stats": "combinatorics",
    "build_report": "audit",
    "disparate_impact": "metrics",
    "flip_polarity": "ingestion",
    "four_fifths_verdict": "metrics",
    "iter_records": "ingestion",
    "marginal_benefit_distribution": "combinatorics",
    "ofi": "metrics",
    "ofi_verdict": "metrics",
    "parse_report": "audit",
    "serialize_report": "audit",
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    # any other name raises, a submodule's too: ``from ofi_audit import
    # cli`` then imports the submodule
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
