"""Spans around btamari's layer functions, installed from outside the library.

Each module of the package is a layer.  ``install`` replaces every function
named in SPANS with a wrapper that records a span (name, start, end, parent)
and the counts in COUNTERS, at every module that binds the function: a
``from``-import makes a second binding (``theta_classes`` lives in both
``projection`` and ``tamari``, ``quotient_rows`` in ``parabolic``,
``alignment`` and ``enumeration``), and wrapping only the defining module
would miss those calls.  Spans stay in memory until the run ends.

``signed_perm`` methods run millions of times, so they get no wrapper; their
cost shows in the self time of their callers.  ``cli`` and ``config`` do no
measurable work.  Generator functions are not wrapped either, because a span
would only time the creation of the generator.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict

SPANS = {
    "enumeration": [
        "t_sequence", "cover_enumerator", "check_conjecture_t", "check_type_d_count",
    ],
    "tamari": [
        "verify_theorems", "build_tamari", "weak_order_lattice", "_weak_leq_matrix",
        "_theta_partition", "not_sublattice_witness", "_isomorphic",
        "_constructor_matches",
    ],
    "projection": [
        "theta_classes", "project_down", "project_up", "project_onto_312", "iota",
    ],
    "alignment": [
        "count_aligned", "enumerate_aligned", "aligned_mask", "cover_counts",
        "find_231_pattern", "find_312_pattern",
    ],
    "parabolic": ["all_compositions", "quotient_rows", "enumerate_quotient"],
    "lattice": [
        "try_lattice", "quotient_lattice", "check_congruence", "congruence_closure",
        "is_congruence_uniform", "is_semidistributive", "is_extremal", "is_trim",
        "has_left_modular_chain", "join_irreducibles", "meet_irreducibles",
    ],
}


def _count_pairs(counts, args, result):
    counts["pairs"] += args[0].n ** 2


def _count_quotient_rows(counts, args, result):
    counts["rows"] += len(result)


def _count_aligned_rows(counts, args, result):
    counts["rows"] += len(result)
    counts["kept"] += int(result.sum())


# Work counts taken at the same boundaries as the spans, outside the span's
# own interval: elements squared for the meet/join tables, rows built by the
# quotient enumeration, rows scanned and kept by the 231 scan.
COUNTERS = {
    "lattice.try_lattice": _count_pairs,
    "parabolic.quotient_rows": _count_quotient_rows,
    "alignment.aligned_mask": _count_aligned_rows,
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.absent: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count = COUNTERS.get(name)
        counts = self.counts[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def install(self):
        """Wrap every SPANS function at each btamari module that binds it."""
        modules = [
            mod for name, mod in sys.modules.items()
            if name == "btamari" or name.startswith("btamari.")
        ]
        for layer, names in SPANS.items():
            home = sys.modules[f"btamari.{layer}"]
            for fn_name in names:
                original = getattr(home, fn_name, None)
                if original is None:
                    self.absent.append(f"{layer}.{fn_name}")
                    continue
                traced = self.wrap(f"{layer}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, traced)

    def table(self) -> dict[str, dict[str, float]]:
        """Per-span-name calls, total_s, self_s and p50_s, plus the counts.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly in one thread, so that is the part of
        the interval no child covers.
        """
        durations = [end - start for _, start, end, _ in self.spans]
        own = list(durations)
        for (_, _, _, parent), dur in zip(self.spans, durations):
            if parent >= 0:
                own[parent] -= dur
        per_name: dict[str, list[int]] = defaultdict(list)
        for idx, span in enumerate(self.spans):
            per_name[span[0]].append(idx)
        table = {}
        for name, idxs in per_name.items():
            row = {
                "calls": len(idxs),
                "total_s": sum(durations[i] for i in idxs),
                "self_s": sum(own[i] for i in idxs),
                "p50_s": statistics.median(durations[i] for i in idxs),
            }
            row.update(self.counts.get(name, {}))
            table[name] = row
        return table

    def root_seconds(self) -> float:
        """Time inside top-level spans, which equals the sum of all self times."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)
