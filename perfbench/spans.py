"""Per-layer metrics from the spans that ``trace_cli.py`` writes.

A span is [name, start, end, parent index, attributes]. Within one process
the spans nest (one thread), so a span's self time is its duration minus the
durations of its direct children, and a function's busy time is the summed
duration of its outermost spans (recursive calls are not counted twice).
"""

from __future__ import annotations

import math
from collections import defaultdict

# (metric, unit, better) in the order they are reported.
PER_LAYER = [
    ("interp.start_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.import.mpmath_s", "s", "lower"),
    ("cli.import.futures_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("spectrum.count_N.calls", "count", "lower"),
    ("spectrum.count_N.serial_s", "s", "lower"),
    ("spectrum.count_N.parallel_s", "s", "lower"),
    ("spectrum.count.sqrtX_per_s", "1/s", "higher"),
    ("spectrum.parallel.speedup", "1", "higher"),
    ("spectrum.table.busy_s", "s", "lower"),
    ("spectrum.table.entries_per_s", "1/s", "higher"),
    ("spectrum.write_csv.busy_s", "s", "lower"),
    ("asymptotics.series.busy_s", "s", "lower"),
    ("asymptotics.series.K", "count", "lower"),
    ("asymptotics.series.terms_per_s", "1/s", "higher"),
    ("asymptotics.closed.self_s", "s", "lower"),
    ("asymptotics.empirical.self_s", "s", "lower"),
    ("asymptotics.profile.self_s", "s", "lower"),
    ("asymptotics.profile.samples", "count", "lower"),
    ("exact.stirling.busy_s", "s", "lower"),
    ("exact.bernoulli.busy_s", "s", "lower"),
    ("exact.pipoly_eval.busy_s", "s", "lower"),
    ("exact.to_string.busy_s", "s", "lower"),
    ("trace.overhead_ratio", "1", "lower"),
    ("trace.unaccounted_ratio", "1", "lower"),
]


class Totals:
    """Self and busy times, call counts and attributes summed over processes."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.busy_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.attrs: dict[str, list[tuple[dict, float]]] = defaultdict(list)
        self.total_self_s = 0.0

    def add_process(self, spans: list) -> None:
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, attrs) in enumerate(spans):
            duration = end - start
            self_time = duration - child_time[i]
            self.self_s[name] += self_time
            self.total_self_s += self_time
            if not _has_ancestor(spans, i, name):
                self.busy_s[name] += duration
                self.calls[name] += 1
                if attrs is not None:
                    self.attrs[name].append((attrs, duration))


def _has_ancestor(spans: list, i: int, name: str) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(totals: Totals, output_bytes: int) -> dict[str, float]:
    """Every per-layer metric that comes from spans (not the process-level ones)."""
    t = totals
    count_calls = t.attrs["spectrum.count_N"]
    serial = [(a, d) for a, d in count_calls if a["workers"] <= 1]
    parallel = [(a, d) for a, d in count_calls if a["workers"] > 1]
    serial_s = sum(d for _, d in serial)
    parallel_s = sum(d for _, d in parallel)
    sqrt_x = sum(math.isqrt(a["X"]) for a, _ in serial)
    # Speed-up over the calls that ran both ways on the same (n, X, convention).
    twins: dict[tuple, list[float]] = defaultdict(list)
    for a, d in serial:
        twins[a["n"], a["X"], a["conv"]].append(d)
    matched_serial = matched_parallel = 0.0
    for a, d in parallel:
        key = a["n"], a["X"], a["conv"]
        if twins[key]:
            matched_serial += twins[key].pop()
            matched_parallel += d
    table_s = t.busy_s["spectrum.spectrum_table"]
    entries = sum(a["entries"] for a, _ in t.attrs["spectrum.spectrum_table"])
    series_s = t.busy_s["asymptotics.leading_coefficient_series"]
    series_k = sum(a["K"] for a, _ in t.attrs["asymptotics.leading_coefficient_series"])
    cli_self = sum(v for k, v in t.self_s.items() if k.startswith("cli.") and k != "cli.import")
    return {
        "cli.main.self_s": cli_self,
        "cli.output_bytes": output_bytes,
        "spectrum.count_N.calls": t.calls["spectrum.count_N"],
        "spectrum.count_N.serial_s": serial_s,
        "spectrum.count_N.parallel_s": parallel_s,
        "spectrum.count.sqrtX_per_s": _rate(sqrt_x, serial_s),
        "spectrum.parallel.speedup": _rate(matched_serial, matched_parallel),
        "spectrum.table.busy_s": table_s,
        "spectrum.table.entries_per_s": _rate(entries, table_s),
        "spectrum.write_csv.busy_s": t.busy_s["spectrum.write_spectrum_csv"],
        "asymptotics.series.busy_s": series_s,
        "asymptotics.series.K": series_k,
        "asymptotics.series.terms_per_s": _rate(series_k, series_s),
        "asymptotics.closed.self_s": t.self_s["asymptotics.leading_coefficient_closed"],
        "asymptotics.empirical.self_s": t.self_s["asymptotics.empirical_report"]
        + t.self_s["asymptotics.empirical_ratio"],
        "asymptotics.profile.self_s": t.self_s["asymptotics.remainder_profile"],
        "asymptotics.profile.samples": sum(
            a["samples"] for a, _ in t.attrs["asymptotics.remainder_profile"]
        ),
        "exact.stirling.busy_s": t.busy_s["exact.stirling_first_signed"],
        "exact.bernoulli.busy_s": t.busy_s["exact.bernoulli"],
        "exact.pipoly_eval.busy_s": t.busy_s["exact.pipoly_eval"],
        "exact.to_string.busy_s": t.busy_s["exact.to_string"],
    }
