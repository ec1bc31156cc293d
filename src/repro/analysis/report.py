"""Plain-text table rendering for benchmark output, plus helpers that
join telemetry snapshots with the paper's evaluation metrics."""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """A simple aligned ASCII table."""
    cells = [[str(h) for h in headers]] + [
        [_fmt(value) for value in row] for row in rows
    ]
    widths = [max(len(row[col]) for row in cells) for col in range(len(headers))]
    lines = []
    for index, row in enumerate(cells):
        lines.append(
            "  ".join(value.rjust(width) for value, width in zip(row, widths))
        )
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3g}"
        return f"{value:.3f}"
    return str(value)


def normalized_table(
    per_arch: Mapping[str, Mapping[str, float]], metrics: Sequence[str]
) -> str:
    """Architectures × metrics table of normalised values (Fig. 14)."""
    headers = ["architecture"] + list(metrics)
    rows = [
        [arch] + [values[m] for m in metrics] for arch, values in per_arch.items()
    ]
    return format_table(headers, rows)


# ----------------------------------------------------------------------
# Telemetry snapshot rendering / joining
# ----------------------------------------------------------------------


def span_summary_table(snapshot: Mapping[str, Any]) -> str:
    """Per-span table (count, total/mean/max µs) from a telemetry
    snapshot's ``spans`` section — the per-phase compile breakdown."""
    spans = snapshot.get("spans", {})
    headers = ["span", "count", "total_us", "mean_us", "max_us"]
    rows = []
    for name in sorted(spans, key=lambda n: -spans[n]["total_us"]):
        agg = spans[name]
        count = agg["count"]
        rows.append(
            [
                name,
                count,
                agg["total_us"],
                agg["total_us"] / count if count else 0.0,
                agg["max_us"],
            ]
        )
    return format_table(headers, rows)


def metrics_summary_table(snapshot: Mapping[str, Any]) -> str:
    """Counters and gauges of a telemetry snapshot as one table."""
    rows: List[List[object]] = []
    for key in sorted(snapshot.get("counters", {})):
        rows.append([key, "counter", snapshot["counters"][key]])
    for key in sorted(snapshot.get("gauges", {})):
        rows.append([key, "gauge", snapshot["gauges"][key]["value"]])
    for key in sorted(snapshot.get("histograms", {})):
        hist = snapshot["histograms"][key]
        rows.append([key, "histogram", f"n={hist['count']} mean={hist['mean']:.2f}"])
    return format_table(["metric", "kind", "value"], rows)


def profile_summary_table(profile: Mapping[str, Any], top: int = 10) -> str:
    """The "find your hottest pattern" view of a ``ScanProfile``.

    Renders the top ``top`` patterns by activation share (who keeps the
    combined bitset hot) next to their sampled time share, followed by
    one-line memo, stepping-tier and hottest-region summaries.
    """
    rows: List[List[object]] = []
    for entry in profile.get("patterns", [])[:top]:
        pattern = entry.get("pattern", "")
        if len(pattern) > 40:
            pattern = pattern[:37] + "..."
        rows.append(
            [
                entry["pattern_id"],
                f"{entry['activation_share']:.1%}",
                f"{entry['time_share']:.1%}",
                f"{entry['mean_active']:.1f}",
                entry["peak_active"],
                pattern,
            ]
        )
    lines = [
        format_table(
            ["pattern", "activation", "time", "mean_act", "peak", "source"],
            rows,
        )
    ]
    cache = profile.get("cache", {})
    if cache:
        lines.append(
            f"lazy-DFA cache: {cache.get('hits', 0)} hits / "
            f"{cache.get('misses', 0)} misses "
            f"({cache.get('hit_ratio', 0.0):.1%} hit ratio, "
            f"{len(cache.get('series', []))} series points)"
        )
    stepping = profile.get("stepping", {})
    if stepping.get("steps_table") or stepping.get("steps_bitset"):
        lines.append(
            f"stepping tiers: table {stepping.get('table_share', 0.0):.1%} "
            f"({stepping.get('steps_table', 0)} bytes) / "
            f"bitset {stepping.get('bitset_share', 0.0):.1%} "
            f"({stepping.get('steps_bitset', 0)} bytes), "
            f"{stepping.get('skipped_bytes', 0)} prefilter-skipped"
        )
    heatmap = profile.get("heatmap", {})
    density = heatmap.get("density", [])
    if density:
        peak = max(range(len(density)), key=lambda i: density[i])
        bucket = heatmap.get("bucket_bytes", 0)
        lines.append(
            f"hottest input region: offsets {peak * bucket}-"
            f"{(peak + 1) * bucket} (mean {density[peak]:.1f} active states)"
        )
    return "\n".join(lines)


def join_profile_metrics(
    profile: Mapping[str, Any], snapshot: Mapping[str, Any]
) -> Dict[str, object]:
    """Flatten a ``ScanProfile`` and a telemetry snapshot into one flat
    dict keyed like :func:`join_report_metrics` — the analysis join for
    correlating per-pattern attribution with the run's counters (cache
    hit rates, shard occupancy, symbols scanned)."""
    out: Dict[str, object] = {
        "engine": profile.get("engine"),
        "stride": profile.get("stride"),
        "input_bytes": profile.get("input_bytes"),
        "samples": profile.get("samples"),
    }
    for entry in profile.get("patterns", []):
        prefix = f"profile.pattern.{entry['pattern_id']}"
        out[f"{prefix}.activation_share"] = entry["activation_share"]
        out[f"{prefix}.time_share"] = entry["time_share"]
        out[f"{prefix}.peak_active"] = entry["peak_active"]
    cache = profile.get("cache", {})
    out["profile.cache.hits"] = cache.get("hits", 0)
    out["profile.cache.misses"] = cache.get("misses", 0)
    out["profile.cache.hit_ratio"] = cache.get("hit_ratio", 0.0)
    for key, value in snapshot.get("counters", {}).items():
        out[f"telemetry.{key}"] = value
    for key, value in snapshot.get("gauges", {}).items():
        out[f"telemetry.{key}"] = value["value"]
    for name, agg in snapshot.get("spans", {}).items():
        out[f"telemetry.span.{name}.total_us"] = agg["total_us"]
    return out


def join_report_metrics(report: "Any") -> Dict[str, object]:
    """Flatten a :class:`~repro.hardware.report.SimulationReport` and the
    telemetry snapshot it carries (``notes["metrics"]``) into one flat
    dict, so evaluation scripts can correlate the paper's figures
    (energy/symbol, compute density, …) with per-event accounting
    (per-tile BVM activations, per-array stalls, occupancy)."""
    out: Dict[str, object] = {
        "architecture": report.architecture,
        "symbols": report.symbols,
        "matches": report.matches,
        "system_cycles": report.system_cycles,
        "stall_cycles": report.stall_cycles,
        "bvm_activations": report.bvm_activations,
        "area_mm2": report.area_mm2,
        "energy_per_symbol_nj": report.energy_per_symbol_nj,
        "throughput_gbps": report.throughput_gbps,
        "compute_density_gbps_mm2": report.compute_density_gbps_mm2,
        "power_w": report.power_w,
        "edp": report.edp,
        "fom": report.fom,
    }
    snapshot = report.metrics_snapshot
    if snapshot:
        for key, value in snapshot.get("counters", {}).items():
            out[f"telemetry.{key}"] = value
        for key, value in snapshot.get("gauges", {}).items():
            out[f"telemetry.{key}"] = value["value"]
        for key, hist in snapshot.get("histograms", {}).items():
            out[f"telemetry.{key}.count"] = hist["count"]
            out[f"telemetry.{key}.mean"] = hist["mean"]
            out[f"telemetry.{key}.max"] = hist["max"]
        for name, agg in snapshot.get("spans", {}).items():
            out[f"telemetry.span.{name}.total_us"] = agg["total_us"]
    return out
