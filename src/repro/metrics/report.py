"""Plain-text rendering of experiment results.

The experiments print the same rows/series the paper's figures
plot, as aligned text tables, so results can be eyeballed against the
paper without a plotting stack.
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
    series: dict[str, list[tuple[float, float | None]]],
    time_header: str = "t(s)",
    title: str = "",
) -> str:
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
    return render_table([time_header] + names, rows, title=title)


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


def render_reads_summary(stats: dict[str, int | float],
                         title: str = "read tier") -> str:
    """Render a :meth:`repro.reads.ReadTier.stats` dict: where reads
    were served (cache / replica / view / bounced to the primary) and
    the cache's conservation ledgers."""
    rows = [
        ["cache hits", stats.get("reads_cache", 0)],
        ["replica point reads", stats.get("reads_replica", 0)],
        ["replica definitive misses", stats.get("reads_replica_miss", 0)],
        ["replica range reads", stats.get("reads_replica_range", 0)],
        ["view reads", stats.get("reads_view", 0)],
        ["failover retries", stats.get("reads_failover_retries", 0)],
        ["bounced: commit in flight", stats.get("bounce_horizon", 0)],
        ["bounced: version newer", stats.get("bounce_version", 0)],
        ["bounced: lag over budget", stats.get("bounce_lag", 0)],
        ["bounced: no live replica", stats.get("bounce_no_replica", 0)
         + stats.get("bounce_no_candidate", 0)],
        ["bounced: partition moving", stats.get("bounce_moving", 0)],
        ["cache lookups", stats.get("cache_lookups", 0)],
        ["cache misses (absent)", stats.get("cache_miss_absent", 0)],
        ["cache misses (version)", stats.get("cache_miss_version", 0)],
        ["cache misses (node down)", stats.get("cache_miss_node_down", 0)],
        ["cache fills accepted", stats.get("cache_fills", 0)],
        ["cache fills rejected (race)",
         stats.get("cache_fills_rejected_race", 0)],
        ["cache fills rejected (quota)",
         stats.get("cache_fills_rejected_quota", 0)],
        ["cache invalidations", stats.get("cache_invalidations", 0)],
        ["cache write-throughs", stats.get("cache_write_throughs", 0)],
        ["cache entries held", stats.get("cache_entries", 0)],
        ["view batches folded", stats.get("view_batches", 0)],
        ["view max lag s", stats.get("view_max_lag", 0.0)],
        ["view checkpoints", stats.get("view_checkpoints", 0)],
    ]
    return render_table(["metric", "value"], rows, title=title)


def render_admission_summary(stats: dict[str, int | float],
                             title: str = "admission control") -> str:
    """Render an :class:`~repro.traffic.admission.AdmissionController`'s
    :meth:`stats` — every offered logical request is accounted exactly
    once as admitted, rate-limit rejected, or queue-full shed."""
    rows = [
        ["requests offered", stats.get("offered", 0)],
        ["requests admitted", stats.get("admitted", 0)],
        ["rejected (rate limit)", stats.get("rejected", 0)],
        ["shed (queue full)", stats.get("shed", 0)],
        ["completed", stats.get("completed", 0)],
        ["abandoned (retry cap)", stats.get("abandoned", 0)],
        ["peak queue depth", stats.get("peak_queue_depth", 0)],
        ["peak queue wait s", stats.get("peak_queue_wait", 0.0)],
    ]
    return render_table(["metric", "value"], rows, title=title)


def render_move_summary(summary: dict[str, int],
                        title: str = "move summary") -> str:
    """Render a move journal's :meth:`summary` — first-try moves are
    reported separately from moves that needed retries or a chunk-level
    resume, mirroring the client-side retry accounting."""
    rows = [
        ["moves completed", summary.get("moves_total", 0)],
        ["first-try moves", summary.get("first_try_moves", 0)],
        ["retried moves", summary.get("retried_moves", 0)],
        ["resumed moves", summary.get("resumed_moves", 0)],
        ["rolled-back moves", summary.get("rolled_back_moves", 0)],
        ["failed (unresumable)", summary.get("failed_moves", 0)],
        ["retries spent", summary.get("retries_total", 0)],
        ["resumes spent", summary.get("resumes_total", 0)],
        ["bytes shipped", summary.get("bytes_shipped", 0)],
        ["bytes re-shipped", summary.get("bytes_reshipped", 0)],
        ["still open (segment)", summary.get("open_moves", 0)],
        ["still open (range)", summary.get("open_range_moves", 0)],
    ]
    return render_table(["metric", "value"], rows, title=title)


def render_wal_summary(retention: dict[str, int],
                       checkpoint_stats: dict[str, int] | None = None,
                       vacuum_stats: dict[str, int] | None = None,
                       title: str = "WAL summary") -> str:
    """Render one WAL's :meth:`retention_stats`, optionally joined
    with a checkpoint manager's and a vacuum scheduler's :meth:`stats`
    for the endurance report."""
    rows = [
        ["live records", retention.get("live_records", 0)],
        ["live bytes", retention.get("live_bytes", 0)],
        ["records truncated", retention.get("records_truncated", 0)],
        ["next LSN", retention.get("next_lsn", 0)],
    ]
    if checkpoint_stats:
        rows += [
            ["checkpoints taken", checkpoint_stats.get(
                "checkpoints_taken", 0)],
            ["records recycled", checkpoint_stats.get(
                "records_recycled", 0)],
            ["image bytes written", checkpoint_stats.get(
                "image_bytes_written", 0)],
            ["max replay window", checkpoint_stats.get(
                "max_replay_window", 0)],
            ["peak footprint slack", checkpoint_stats.get(
                "peak_footprint_slack", 0)],
            ["replica compactions", checkpoint_stats.get(
                "replica_compactions", 0)],
        ]
    if vacuum_stats:
        rows += [
            ["vacuum sweeps", vacuum_stats.get("sweeps", 0)],
            ["vacuum chunks", vacuum_stats.get("chunks", 0)],
            ["versions reclaimed", vacuum_stats.get("reclaimed", 0)],
            ["throttled ticks", vacuum_stats.get("throttled_ticks", 0)],
        ]
    return render_table(["metric", "value"], rows, title=title)


def render_scrub_summary(stats: dict[str, int],
                         title: str = "scrub summary") -> str:
    """Render a :class:`~repro.ha.scrub.ScrubDaemon`'s :meth:`stats` —
    how much was walked, what silent corruption it surfaced, and how
    each instance was resolved (repair from replica, fence, or replica
    rebuild)."""
    rows = [
        ["scrub ticks", stats.get("ticks", 0)],
        ["full passes", stats.get("passes", 0)],
        ["pages scanned", stats.get("pages_scanned", 0)],
        ["versions verified", stats.get("versions_verified", 0)],
        ["replica logs scanned", stats.get("replica_logs_scanned", 0)],
        ["corruptions found", stats.get("corruptions_found", 0)],
        ["repaired from replica", stats.get("repaired", 0)],
        ["fenced (unrepairable)", stats.get("fenced", 0)],
        ["replicas rebuilt", stats.get("replicas_rebuilt", 0)],
        ["throttled ticks", stats.get("throttled_ticks", 0)],
    ]
    return render_table(["metric", "value"], rows, title=title)


def render_gray_summary(stats: dict[str, int],
                        events: typing.Sequence = (),
                        title: str = "gray-failure detector") -> str:
    """Render a :class:`~repro.cluster.monitor.GrayFailureDetector`'s
    :meth:`stats`, optionally followed by its event timeline
    (suspect/quarantine/drain/clear transitions with sim timestamps)."""
    rows = [
        ["suspect transitions", stats.get("suspects", 0)],
        ["quarantines", stats.get("quarantines", 0)],
        ["drains driven", stats.get("drains", 0)],
        ["clears", stats.get("clears", 0)],
        ["suspected now", stats.get("suspected_now", 0)],
        ["quarantined now", stats.get("quarantined_now", 0)],
    ]
    out = render_table(["metric", "value"], rows, title=title)
    if events:
        lines = [
            f"  t={event.time:8.3f}  {event.kind:<12} node "
            f"{event.node_id}"
            + (f"  ({event.detail})" if event.detail else "")
            for event in events
        ]
        out += "\n" + "\n".join(lines)
    return out


def render_audit_summary(label: str, anomalies: typing.Sequence[str],
                         stats: dict[str, int]) -> str:
    """Render one audited run's verdict: the evidence volume (how many
    operations back it, whether the ring dropped any) and every
    anomaly the checkers found."""
    rows = [
        ["operations recorded", stats.get("ops_recorded", 0)],
        ["operations retained", stats.get("ops_retained", 0)],
        ["operations dropped", stats.get("ops_dropped", 0)],
        ["coverage checkpoints", stats.get("coverage_checkpoints", 0)],
        ["commits", stats.get("commit", 0)],
        ["aborts", stats.get("abort", 0)],
        ["anomalies", len(anomalies)],
    ]
    table = render_table(
        ["metric", "value"], rows,
        title=f"audit [{label}] — "
              + ("CLEAN" if not anomalies else "ANOMALIES FOUND"),
    )
    if not anomalies:
        return table
    lines = [table]
    for anomaly in anomalies:
        lines.append(f"  ANOMALY: {anomaly}")
    return "\n".join(lines)


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


def render_kernel_stats(stats: dict[str, int | float],
                        title: str = "kernel stats") -> str:
    """Render :meth:`Environment.kernel_stats` (plus any extra counters
    the caller merged in, e.g. the buffer pools' contended latches)."""
    rows = [
        ["events processed", stats.get("events_processed", 0)],
        ["heap scheduled", stats.get("heap_scheduled", 0)],
        ["zero-delay fast-pathed", stats.get("fast_scheduled", 0)],
        ["fast-path fraction", stats.get("fast_fraction", 0.0)],
        ["heap peak depth", stats.get("heap_peak", 0)],
        ["event-free resource grants", stats.get("resource_fast_grants", 0)],
    ]
    if "latch_contended" in stats:
        rows.append(["latch contended", stats["latch_contended"]])
    return render_table(["counter", "value"], rows, title=title)
