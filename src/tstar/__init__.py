"""Exact toolkit for t-intersecting families over partitioned ground sets.

The names below are the public API, declared here only, and exported
lazily: `tstar.X` and `from tstar import X` import X's submodule on
first use, so importing the package loads none of its submodules, and
the CLI loads only those its subcommand runs.  A name is looked up in
its submodule on every access and never stored here, so a rebinding in
the submodule (a test's monkeypatch, a tracer's wrapper) is seen at once
and undone with it.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "core": (
        "Error", "InvalidParametersError", "InstanceTooLargeError", "EmptyFamilyError",
        "HypothesisViolationError", "InvariantError", "GroundSet", "Family", "ProfileSet",
        "binom", "mask_of", "elements_of", "block_size", "enumerate_block",
        "enumerate_profile_union", "enumerate_quota", "trivial_star",
        "format_family", "parse_family", "write_family", "read_family",
    ),
    "bounds": (
        "delsarte_bound", "exchange_optimal", "hypothesis_flags", "max_star_size",
        "max_union_star_size", "optimal_t_distributions", "ratio_bound",
    ),
    "kneser": ("KneserParams", "is_connected"),
    "search": (
        "SearchResult", "brute_force_max", "check_block_maximum", "check_quota_family",
        "max_t_intersecting",
    ),
    "shifting": (
        "compress_family", "is_l_shifted", "is_shifted", "shift_closure", "simultaneous_closure",
    ),
    "verify": (
        "are_cross_t_intersecting", "check_partwise_prefix_intersection",
        "check_prefix_intersection", "check_star_preservation", "is_full_t_star",
        "is_t_intersecting",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _EXPORTS:    # `tstar.bounds` after a bare `import tstar`
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
