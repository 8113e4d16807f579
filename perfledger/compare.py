"""Compare mode: two ledgers against the bounds in BENCHMARK.json.

One row per (workload, end-to-end metric): both values, the ratio with
its base, the bound, and a verdict.  ``unresolved`` means the
repetitions' own interquartile spread is wider than the bound, so the
two sides cannot be told apart at that resolution; it is neither a pass
nor a breach.
"""

from __future__ import annotations

#: ``failed_share`` may rise by this much (absolute) between ledgers.
FAILED_SHARE_SLACK = 0.002


def _relative_spread(metric: dict) -> float:
    """Interquartile spread of a metric's repetitions over their median
    (0 for simulated metrics, which carry no quartiles)."""
    if "q1" not in metric or not metric["median"]:
        return 0.0
    return (metric["q3"] - metric["q1"]) / metric["median"]


def compare(a: dict, b: dict, spec: dict) -> tuple[list[dict], bool]:
    """Rows for every workload both ledgers hold, and whether B stays
    within every bound of A."""
    rows: list[dict] = []
    ok = True
    for name, before in a["workloads"].items():
        after = b["workloads"].get(name)
        if after is None:
            continue
        for metric in spec["end_to_end"]:
            old = before["end_to_end"][metric["name"]]
            new = after["end_to_end"][metric["name"]]
            ratio = new["value"] / old["value"]
            worse = (ratio - 1.0 if metric["better"] == "lower"
                     else 1.0 - ratio)
            noise = max(_relative_spread(old), _relative_spread(new))
            if noise > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "BREACH"
                ok = False
            else:
                verdict = "ok"
            rows.append({
                "workload": name, "metric": metric["name"],
                "unit": metric["unit"], "a": old["value"], "b": new["value"],
                "ratio": ratio, "bound": metric["bound"],
                "better": metric["better"], "verdict": verdict,
            })
        rise = after["failed_share"] - before["failed_share"]
        failed_ok = rise <= FAILED_SHARE_SLACK
        ok = ok and failed_ok
        rows.append({
            "workload": name, "metric": "failed_share", "unit": "ratio",
            "a": before["failed_share"], "b": after["failed_share"],
            "ratio": None, "bound": FAILED_SHARE_SLACK, "better": "lower",
            "verdict": "ok" if failed_ok else "BREACH",
        })
        same = before["sim_fingerprint"] == after["sim_fingerprint"]
        rows.append({
            "workload": name, "metric": "sim_fingerprint", "unit": "",
            "a": before["sim_fingerprint"][:12],
            "b": after["sim_fingerprint"][:12],
            "ratio": None, "bound": None, "better": "",
            "verdict": "identical" if same else "differs",
        })
    return rows, ok


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return "" if value is None else str(value)


def render(rows: list[dict]) -> str:
    header = ["workload", "metric", "unit", "A", "B", "B/A (base A)",
              "bound", "verdict"]
    table = [header]
    for row in rows:
        ratio = "" if row["ratio"] is None else (
            f"{row['ratio']:.4f} of {_cell(row['a'])}")
        bound = "" if row["bound"] is None else (
            f"+{row['bound']}" if row["metric"] == "failed_share"
            else f"{row['bound']:.0%} {row['better']}")
        table.append([row["workload"], row["metric"], row["unit"],
                      _cell(row["a"]), _cell(row["b"]), ratio, bound,
                      row["verdict"]])
    widths = [max(len(line[i]) for line in table) for i in range(len(header))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip()
        for line in table)
