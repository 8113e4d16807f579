"""Plain-text rendering of experiment results.

The experiments print the same rows/series the paper's figures
plot, as aligned text tables, so results can be eyeballed against the
paper without a plotting stack.  Telemetry has two generic renderers:
:func:`render_counters` for any component's ``stats()`` dict and
:func:`render_timeline` for the cluster's event log.
"""

from __future__ import annotations

import typing


def render_table(headers: typing.Sequence[str],
                 rows: typing.Sequence[typing.Sequence[typing.Any]],
                 title: str = "") -> str:
    """Render an aligned text table."""
    cells = [[str(h) for h in headers]]
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}: {row!r}"
            )
        cells.append([_fmt(value) for value in row])
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_series_table(
    series: dict[str, list[tuple[float, float | None]]]) -> str:
    """Render several aligned time series as one table.

    All series must share the same bucket starts (the usual case when
    they come from the same experiment window).
    """
    names = list(series)
    if not names:
        raise ValueError("no series given")
    base_times = [t for t, _v in series[names[0]]]
    for name in names[1:]:
        times = [t for t, _v in series[name]]
        if times != base_times:
            raise ValueError(f"series {name!r} has mismatched bucket times")
    rows = []
    for i, t in enumerate(base_times):
        row: list[typing.Any] = [t]
        for name in names:
            row.append(series[name][i][1])
        rows.append(row)
    return render_table(["t(s)"] + names, rows)


def render_slo_table(tenants: dict[str, dict[str, float | int]],
                     title: str = "latency SLOs") -> str:
    """Render per-tenant latency percentiles and shed accounting.

    ``tenants`` maps tenant name -> a merged dict of the tenant's
    :meth:`LatencyHistogram.summary` plus the admission counters
    (``offered`` / ``shed`` / ``rejected`` / ``abandoned``) and an
    optional ``slo_p99_ms`` target; the p99 column is judged against
    the target when one is given.

    When the engine split latencies by transaction class (the
    ``read_*`` / ``write_*`` keys of :meth:`SessionEngine
    .tenant_report`), the table carries separate read and write
    percentile columns; without the split those cells render as "-".
    """
    headers = ["tenant", "requests", "p50 ms", "p99 ms", "p999 ms",
               "mean ms", "reads", "r-p50 ms", "r-p99 ms", "writes",
               "w-p50 ms", "w-p99 ms", "shed %", "rejected %",
               "abandoned", "p99 SLO"]
    rows = []
    for name in sorted(tenants):
        t = tenants[name]
        offered = t.get("offered", t.get("count", 0)) or 0
        shed_pct = 100.0 * t.get("shed", 0) / offered if offered else 0.0
        rejected_pct = (100.0 * t.get("rejected", 0) / offered
                        if offered else 0.0)
        target = t.get("slo_p99_ms")
        if target is None:
            verdict = "-"
        else:
            verdict = ("met" if t.get("p99", 0.0) <= target
                       else f"MISS>{_fmt(target)}")
        rows.append([
            name, offered, t.get("p50", 0.0), t.get("p99", 0.0),
            t.get("p999", 0.0), t.get("mean", 0.0),
            t.get("read_requests"), t.get("read_p50"), t.get("read_p99"),
            t.get("write_requests"), t.get("write_p50"),
            t.get("write_p99"), shed_pct,
            rejected_pct, t.get("abandoned", 0), verdict,
        ])
    return "\n".join([render_table(headers, rows, title=title)]
                     + render_retry_lines(
                         (name, tenants[name].get("retries_by_class"))
                         for name in sorted(tenants)))


def render_retry_lines(retries_by_label) -> list[str]:
    """Why clients retried: a line per ``(label, retries_by_class)``
    that retried at all — aborted attempts by exception class name, as
    the request loop counted them."""
    return [
        f"{label}: retries by class: "
        + ", ".join(f"{name} {n}" for name, n in sorted(counts.items()))
        for label, counts in retries_by_label if counts
    ]


def render_counters(title: str,
                    stats: typing.Mapping[str, typing.Any]) -> str:
    """Render a component's ``stats()`` dict, one row per key in dict
    order: the component is the one place that names its counters."""
    return render_table(["counter", "value"], list(stats.items()), title=title)


def render_timeline(title: str, events: typing.Iterable) -> str:
    """Render :class:`~repro.cluster.cluster.TimelineEvent`\\ s — a
    filtered ``Cluster.timeline`` — one row each, in the given order."""
    return render_table(
        ["t(s)", "source", "kind", "node", "partition", "detail"],
        [[e.time, e.source, e.kind, e.node_id, e.partition_id, e.detail]
         for e in events],
        title=title)


def _fmt(value: typing.Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.1f}"
        return f"{value:.4f}"
    return str(value)
