"""Span and count wrappers around public `chevbounds` functions.

`install` replaces each traced function in every `chevbounds` module namespace
that binds it, so calls from one library module into another are traced as
well.  A span's self time is its duration minus the time its child spans
cover; a layer's `*_s` metric sums the self time of its spans.  Wrappers pass
arguments and results through unchanged and record nothing while the tracer
is inactive, so the benchmark's own input preparation and output checks stay
out of the numbers.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from workloads import full_page_dim


def _page_dims(args, page):
    rs, p, s, f, _, mu_set, m = args[:7]
    full = full_page_dim(len(rs.positive_roots), p, s + f, m) * mu_set.total_dimension
    return (
        ("e1oracle.page_dim_full", full),
        ("e1oracle.page_dim_kept", page.gammas.total_dimension),
    )


# (module, function, time metric or None, call-count metric or None,
#  extra counts from (args, result) or None, counts cap hits?)
_THRESHOLD = ("bounds.threshold_s", "bounds.threshold_calls", None, False)
TRACED = (
    ("rootsys", "build_root_system", "rootsys.build_s", None, None, False),
    ("weightcomb", "b_invariant", "weightcomb.b_invariant_s",
     "weightcomb.b_invariant_calls",
     lambda a, r: (("weightcomb.b_invariant_weights", a[1].support_size),), False),
    ("weightcomb", "b_of_weight", None, "weightcomb.b_of_weight_calls", None, False),
    ("modchar", "weyl_character", "modchar.character_s", "modchar.characters",
     lambda a, r: (("modchar.character_weights", r.support_size),), False),
    ("modchar", "graded_power", "modchar.graded_power_s", None,
     lambda a, r: (("modchar.graded_power_weights", r.support_size),), False),
    ("e1oracle", "invariant_page", "e1oracle.page_s", "e1oracle.pages", _page_dims, True),
    ("e1oracle", "check_weight_bounds", "e1oracle.check_s", None, None, True),
    ("e1oracle", "check_bs_vanishing", "e1oracle.vanish_s", None, None, True),
    ("bounds", "compare_thresholds", "bounds.compare_s", "bounds.compares",
     lambda a, r: (("bounds.compare_weights", a[3].support_size),), False),
    ("bounds", "bs_vanish_threshold") + _THRESHOLD,
    ("bounds", "generic_thresholds") + _THRESHOLD,
    ("bounds", "cpsvdk_thresholds") + _THRESHOLD,
    ("bounds", "stability_constants") + _THRESHOLD,
    ("bounds", "finite_group_vanishing_range") + _THRESHOLD,
    ("cli", "run", "cli.self_s", "cli.runs", None, False),
)


class Tracer:
    """Per-layer self time and counts, summed over every traced call."""

    def __init__(self) -> None:
        self.totals: dict[str, float] = defaultdict(float)
        self.on = False
        self._covered = [0.0]  # per open span: time its child spans took
        self._build_cache = None
        self._builds_before = 0

    @contextmanager
    def active(self):
        self.on = True
        try:
            yield self
        finally:
            self.on = False

    def wrap(self, fn, time_key, count_key, extra, caps, cap_error):
        totals, covered = self.totals, self._covered

        if time_key is None:
            def counted(*args, **kwargs):
                if self.on:
                    totals[count_key] += 1
                return fn(*args, **kwargs)
            return counted

        def spanned(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            covered.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except cap_error as exc:
                if caps and not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    totals["e1oracle.cap_hits"] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                totals[time_key] += elapsed - covered.pop()
                covered[-1] += elapsed
            if count_key:
                totals[count_key] += 1
            if extra:
                for key, value in extra(args, result):
                    totals[key] += value
            return result

        return spanned

    def snapshot(self) -> dict[str, float]:
        """Raw totals; root-system builds are the misses of its cache."""
        out = dict(self.totals)
        if self._build_cache is not None:
            out["rootsys.builds"] = self._build_cache().misses - self._builds_before
        return out


def install(tracer: Tracer) -> None:
    """Replace every traced function in every loaded `chevbounds` namespace."""
    import chevbounds  # noqa: F401  (loads every submodule)
    from chevbounds.errors import ResourceLimitError

    namespaces = [
        mod for name, mod in sys.modules.items()
        if name == "chevbounds" or name.startswith("chevbounds.")
    ]
    for module, func, time_key, count_key, extra, caps in TRACED:
        original = getattr(sys.modules[f"chevbounds.{module}"], func)
        if func == "build_root_system":
            tracer._build_cache = original.cache_info
            tracer._builds_before = original.cache_info().misses
        wrapper = tracer.wrap(original, time_key, count_key, extra, caps, ResourceLimitError)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, wrapper)
