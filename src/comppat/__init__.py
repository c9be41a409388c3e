"""Exact enumeration of 3-letter patterns in compositions and k-ary words.

The package computes, exactly, how many integer compositions of n with m
parts from a given part set contain each of the six adjacent 3-letter
statistics (111, 112, 221, 123, peak, valley) a prescribed number of
times; specializes the same series to words over a finite alphabet; and
reproduces the dominant-pole growth constants of the avoidance sequences
numerically.

Each export loads its module on first use (PEP 562), so a CLI run loads
only what its subcommand runs.  The paper's alternative forms live in
:mod:`comppat.identities`, which is not exported: they are cross-checks.
"""

_MODULES = {
    "patterns": "ALL_PATTERNS OccurrenceTable PartSet PatternId "
                "brute_force_table brute_force_word_table count_occurrences "
                "enumerate_compositions",
    "series": "GradingMismatchError NonInvertibleError NormalizationError "
              "OrderRangeError SeriesError TruncatedSeries make_monomial one "
              "zero",
    "genfun": "avoidance_sequence build_gf",
    "words": "w111_closed w112_closed w123_closed w_peak_closed word_gf "
             "word_table",
    "asymptotics": "AsymptoticEstimate emit_curve estimate eval_f find_rho "
                   "predict_count winding_number",
}
_MODULE_OF = {name: module for module, names in _MODULES.items()
              for name in names.split()}
__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    # any other name raises, so `from comppat import genfun` imports it
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
