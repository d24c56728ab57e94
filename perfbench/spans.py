"""Span recording around tstar's public functions, for the traced run.

`Tracer.install` replaces each listed function, in every loaded tstar
module namespace that binds it, with a wrapper that records a span
(group name, start, end, parent).  Library-internal calls go through
those namespaces too (`tstar.search` calls `enumerate_block` and
`is_full_t_star` by their module-global names), so nested work is
attributed to the innermost wrapped function.  A span's self time is its
duration minus the time covered by its direct child spans.

Hot leaf helpers (binom, mask_of, compress_member, star_size, ...) and
generators (bounded_compositions) are left unwrapped: their cost lands in
the self time of the wrapped caller.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable

# (module, function) -> span group.  Functions sharing a group are one layer.
SPAN_GROUPS = {
    ("tstar.search", "max_t_intersecting"): "search.max_t_intersecting",
    ("tstar.search", "check_block_maximum"): "search.report",
    ("tstar.search", "check_quota_family"): "search.report",
    ("tstar.core", "enumerate_block"): "core.enumerate",
    ("tstar.core", "enumerate_profile_union"): "core.enumerate",
    ("tstar.core", "enumerate_quota"): "core.enumerate",
    ("tstar.core", "format_family"): "core.family_io",
    ("tstar.core", "parse_family"): "core.family_io",
    ("tstar.core", "write_family"): "core.family_io",
    ("tstar.core", "read_family"): "core.family_io",
    ("tstar.verify", "is_full_t_star"): "verify.is_full_t_star",
    ("tstar.verify", "is_t_intersecting"): "verify.is_t_intersecting",
    ("tstar.verify", "check_prefix_intersection"): "verify.prefix_checks",
    ("tstar.verify", "check_partwise_prefix_intersection"): "verify.prefix_checks",
    ("tstar.verify", "are_cross_t_intersecting"): "verify.other",
    ("tstar.verify", "check_star_preservation"): "verify.other",
    ("tstar.bounds", "optimal_t_distributions"): "bounds.optimal_t_distributions",
    ("tstar.bounds", "ratio_entries"): "bounds.ratio_entries",
    ("tstar.bounds", "enumerate_distribution_argmax"): "bounds.enumerate_distribution_argmax",
    ("tstar.bounds", "exchange_optimal"): "bounds.exchange_optimal",
    ("tstar.bounds", "max_union_star_size"): "bounds.max_union_star_size",
    ("tstar.bounds", "max_star_size"): "bounds.other",
    ("tstar.bounds", "ratio_bound"): "bounds.other",
    ("tstar.bounds", "hypothesis_flags"): "bounds.other",
    ("tstar.shifting", "shift_closure"): "shifting.shift_closure",
    ("tstar.shifting", "simultaneous_closure"): "shifting.simultaneous_closure",
    ("tstar.shifting", "compress_family"): "shifting.compress_family",
    ("tstar.shifting", "is_shifted"): "shifting.is_shifted",
    ("tstar.shifting", "is_l_shifted"): "shifting.is_shifted",
    ("tstar.kneser", "is_connected"): "kneser.is_connected",
    ("tstar.cli", "main"): "cli.dispatch",
}


@dataclass
class Span:
    group: str
    start: int
    end: int
    parent: int          # index into Tracer.spans, -1 at the root
    child_ns: int = 0


def _count_search(tracer: "Tracer", span_index: int, args, result) -> None:
    tracer.count("search.nodes", result.nodes_explored)
    tracer.count("search.closed", 1)
    tracer.count("search.seed_optimal", int(result.bound_used == result.max_size))


def _count_enumerate(tracer: "Tracer", span_index: int, args, result) -> None:
    parent = tracer.spans[span_index].parent
    if parent < 0 or tracer.spans[parent].group != "core.enumerate":
        tracer.count("core.enumerate.members", len(result.members))


def _count_compress(tracer: "Tracer", span_index: int, args, result) -> None:
    tracer.count("shifting.steps", int(result.members != args[0].members))


POST_HOOKS: dict[str, Callable] = {
    "search.max_t_intersecting": _count_search,
    "core.enumerate": _count_enumerate,
    "shifting.compress_family": _count_compress,
}


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    def _wrap(self, group: str, fn: Callable) -> Callable:
        hook = POST_HOOKS.get(group)
        clock = time.perf_counter_ns
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            span = Span(group, clock(), 0, parent)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent].child_ns += span.end - span.start
            if hook is not None:
                hook(self, index, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", group)
        return wrapper

    def install(self) -> None:
        """Wrap every listed function wherever a tstar module binds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "tstar" or name.startswith("tstar."))]
        for (module_name, attr), group in SPAN_GROUPS.items():
            if module_name not in sys.modules:
                continue
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(group, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def self_ns(self) -> dict[str, int]:
        """Self time per group: duration minus direct children's durations."""
        out: dict[str, int] = {}
        for span in self.spans:
            own = span.end - span.start - span.child_ns
            out[span.group] = out.get(span.group, 0) + own
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for span in self.spans:
            out[span.group] = out.get(span.group, 0) + 1
        return out
