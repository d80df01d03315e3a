"""Summary statistics shared by every workload."""

from __future__ import annotations

import statistics


def summarize(lat_s: list[float], attempted: int, wall_s: float, rss_mb: float,
              extra: dict) -> dict:
    """End-to-end metrics of one timed phase as ``{name: {"value", "unit"}}``."""
    ms = [1e3 * t for t in lat_s]
    out = {"ops_per_s": (attempted / wall_s, "1/s"),
           "op_ms_p50": (statistics.median(ms), "ms"),
           "op_ms_p90": (statistics.quantiles(ms, n=10, method="inclusive")[8], "ms"),
           "peak_rss_mb": (rss_mb, "MB")}
    out.update(extra)
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}
