"""Self-contained HTML run reports from telemetry event streams.

``repro report --html`` renders any captured JSONL stream — a sweep, a
profile run, a daemon session — into one static HTML file with no
external assets (inline CSS only, no CDN, no web fonts): a manifest
header, the per-phase rounds/messages/bits table (the same
:func:`~repro.telemetry.summary.phase_rows` reduction as ``repro trace
summary``), a per-phase × round-bin message-volume congestion heatmap,
and the final metrics snapshot. The artifact is meant to be attached to CI runs
and mailed around, so everything must work from ``file://``.

Heatmap encoding: magnitude → a single-hue sequential blue ramp
(light→dark on a light surface; flipped on dark so "near zero" always
recedes toward the surface). Cell classes, not inline colors, carry the
ramp so dark mode is a stylesheet swap. Every cell has a native
``title`` tooltip with phase, round range, and message count; the phase
table doubles as the accessible table view of the same data.
"""

import html
from typing import Any, List, Mapping, Optional, Sequence

from .summary import manifest_of, phase_rows, totals_of

#: Number of ramp steps (CSS classes ``hm0`` .. ``hm<N-1>``); ``hm0``
#: is reserved for exactly-zero cells (surface colored).
RAMP_STEPS = 9

#: Maximum heatmap columns; runs with more rounds are binned.
MAX_BINS = 36

# Sequential blue ramp (validated single-hue scale), light surface:
# low → high magnitude. The dark-mode ramp uses the same steps flipped
# plus dark-tuned ink.
_LIGHT_RAMP = [
    "#cde2fb", "#9ec5f4", "#6da7ec", "#3987e5",
    "#2a78d6", "#256abf", "#1c5cab", "#104281",
]
_DARK_RAMP = [
    "#0d366b", "#184f95", "#1c5cab", "#256abf",
    "#2a78d6", "#3987e5", "#6da7ec", "#9ec5f4",
]
# Ink that clears the cell background in each mode (light text on the
# dark half of the ramp and vice versa).
_LIGHT_INK = ["#0b0b0b"] * 3 + ["#ffffff"] * 5
_DARK_INK = ["#ffffff"] * 4 + ["#0b0b0b"] * 4

_CSS = """
:root {
  color-scheme: light dark;
  --surface: #fcfcfb; --panel: #f4f3f1; --border: #dddbd6;
  --ink: #0b0b0b; --ink-2: #52514e;
}
@media (prefers-color-scheme: dark) {
  :root { --surface: #1a1a19; --panel: #242423; --border: #3a3937;
          --ink: #ffffff; --ink-2: #c3c2b7; }
}
body { background: var(--surface); color: var(--ink);
       font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto;
       max-width: 72rem; padding: 0 1rem; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; margin: 0.75rem 0; }
th, td { padding: 0.3rem 0.7rem; text-align: right;
         border-bottom: 1px solid var(--border); }
th { color: var(--ink-2); font-weight: 600; }
th:first-child, td:first-child { text-align: left; }
tr.total td { font-weight: 600; border-top: 2px solid var(--border); }
dl.manifest { display: grid; grid-template-columns: max-content 1fr;
              gap: 0.15rem 1rem; background: var(--panel);
              border: 1px solid var(--border); border-radius: 6px;
              padding: 0.75rem 1rem; }
dl.manifest dt { color: var(--ink-2); } dl.manifest dd { margin: 0;
  font-family: ui-monospace, monospace; overflow-wrap: anywhere; }
table.heatmap { table-layout: fixed; }
table.heatmap td { border: none; padding: 0; }
table.heatmap td.cell { width: 16px; height: 20px;
  border: 1px solid var(--surface); }
table.heatmap td.cell:hover { outline: 2px solid var(--ink);
  outline-offset: -1px; }
table.heatmap th { font-weight: 400; white-space: nowrap; }
.legend { display: flex; align-items: center; gap: 0.4rem;
          color: var(--ink-2); margin: 0.5rem 0; }
.legend span.swatch { width: 16px; height: 12px; display: inline-block;
  border: 1px solid var(--border); }
""" + "\n".join(
    f"td.hm{i + 1} {{ background: {_LIGHT_RAMP[i]}; color: {_LIGHT_INK[i]}; }}"
    for i in range(RAMP_STEPS - 1)
) + """
td.hm0 { background: var(--panel); }
@media (prefers-color-scheme: dark) {
""" + "\n".join(
    f"  td.hm{i + 1} {{ background: {_DARK_RAMP[i]}; color: {_DARK_INK[i]}; }}"
    for i in range(RAMP_STEPS - 1)
) + """
}
"""


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _manifest_section(manifest: Optional[Mapping[str, Any]]) -> List[str]:
    if not manifest:
        return ["<p>No manifest event in this stream.</p>"]
    parts = ["<dl class=\"manifest\">"]
    preferred = ("run_id", "created", "git", "python", "platform",
                 "backend", "network", "schema")
    keys = [k for k in preferred if manifest.get(k) not in (None, "")]
    keys += sorted(
        k for k in manifest
        if k not in preferred and k != "workload"
        and manifest.get(k) not in (None, "")
    )
    for key in keys:
        parts.append(f"<dt>{_esc(key)}</dt><dd>{_esc(manifest[key])}</dd>")
    workload = manifest.get("workload") or {}
    if workload:
        described = " ".join(f"{k}={workload[k]}" for k in sorted(workload))
        parts.append(f"<dt>workload</dt><dd>{_esc(described)}</dd>")
    parts.append("</dl>")
    return parts


def _phase_table(rows: Sequence[Mapping[str, Any]]) -> List[str]:
    if not rows:
        return ["<p>No phase events in this stream.</p>"]
    parts = [
        "<table><thead><tr><th>phase</th><th>rounds</th>"
        "<th>messages</th><th>bits</th><th>wall s</th></tr></thead><tbody>"
    ]
    for row in rows:
        parts.append(
            f"<tr><td>{_esc(row['phase'])}</td><td>{row['rounds']:,}</td>"
            f"<td>{row['messages']:,}</td><td>{row['bits']:,}</td>"
            f"<td>{row['wall_time']:.4f}</td></tr>"
        )
    totals = totals_of(rows)
    parts.append(
        f"<tr class=\"total\"><td>total</td><td>{totals['rounds']:,}</td>"
        f"<td>{totals['messages']:,}</td><td>{totals['bits']:,}</td>"
        f"<td>{totals['wall_time']:.4f}</td></tr>"
    )
    parts.append("</tbody></table>")
    return parts


def _heatmap_grid(
    events: Sequence[Mapping[str, Any]], bins: int = MAX_BINS
):
    """Per-phase × round-bin message volume from a stream's phase events.

    Phase events arrive in execution order, each covering the next
    ``rounds`` rounds of the run with ``messages`` messages; the
    messages are spread uniformly over the segment's rounds and
    accumulated into ``bins`` equal round intervals. Returns
    ``(phase_names, grid, total_rounds)`` with ``grid[row][col]`` a
    float message volume, or ``(..., 0)`` when the stream has no
    rounds to bin.
    """
    segments = []
    total_rounds = 0
    for event in events:
        if event.get("event") != "phase":
            continue
        phase = str(event.get("phase", "(unattributed)"))
        rounds = int(event.get("rounds") or 0)
        messages = int(event.get("messages") or 0)
        segments.append((phase, rounds, messages))
        total_rounds += rounds
    names: List[str] = []
    for phase, _, _ in segments:
        if phase not in names:
            names.append(phase)
    if not segments or total_rounds <= 0:
        return names, [], 0
    bins = max(1, min(bins, total_rounds))
    grid = [[0.0] * bins for _ in names]
    scale = bins / total_rounds
    position = 0
    for phase, rounds, messages in segments:
        row = names.index(phase)
        if rounds <= 0:
            # Round-free work: deposit at the current position.
            col = min(int(position * scale), bins - 1)
            grid[row][col] += messages
            continue
        per_round = messages / rounds
        start, end = position, position + rounds
        first, last = int(start * scale), min(int(end * scale), bins - 1)
        for col in range(first, last + 1):
            lo = max(start, col / scale)
            hi = min(end, (col + 1) / scale)
            if hi > lo:
                grid[row][col] += (hi - lo) * per_round
        position = end
    return names, grid, total_rounds


def _heatmap_section(events: Sequence[Mapping[str, Any]]) -> List[str]:
    names, grid, total_rounds = _heatmap_grid(events)
    if not grid:
        return ["<p>No round-by-round phase data in this stream.</p>"]
    bins = len(grid[0])
    peak = max((v for row in grid for v in row), default=0.0)
    if peak <= 0:
        return ["<p>No message volume recorded in any phase.</p>"]
    rounds_per_bin = total_rounds / bins
    parts = [
        "<p>Message volume per phase over the run's rounds "
        f"({total_rounds:,} rounds in {bins} bins; darker = more "
        "messages). Hover a cell for exact values.</p>",
        "<table class=\"heatmap\"><tbody>",
    ]
    for row_index, phase in enumerate(names):
        cells = [f"<th>{_esc(phase)}</th>"]
        for col in range(bins):
            value = grid[row_index][col]
            if value <= 0:
                step = 0
            else:
                # hm1..hm8 over the value range; sqrt spreads the low end
                # so a single dominant phase doesn't flatten the rest.
                step = 1 + min(
                    RAMP_STEPS - 2,
                    int((value / peak) ** 0.5 * (RAMP_STEPS - 1)),
                )
            lo = int(col * rounds_per_bin)
            hi = max(lo + 1, int((col + 1) * rounds_per_bin))
            tip = (
                f"{phase} · rounds {lo:,}–{hi:,} · "
                f"{value:,.0f} messages"
            )
            cells.append(
                f"<td class=\"cell hm{step}\" title=\"{_esc(tip)}\"></td>"
            )
        parts.append("<tr>" + "".join(cells) + "</tr>")
    parts.append("</tbody></table>")
    swatches = "".join(
        f"<span class=\"swatch hm{i}\"></span>" for i in range(1, RAMP_STEPS)
    )
    parts.append(
        "<div class=\"legend\"><span>0</span>"
        f"<span class=\"swatch hm0\"></span>{swatches}"
        f"<span>{peak:,.0f} messages / bin</span></div>"
    )
    # Reuse the td ramp classes on legend swatches.
    parts.append(
        "<style>" + "\n".join(
            f".legend span.hm{i} {{ background: {_LIGHT_RAMP[i - 1]}; }}"
            for i in range(1, RAMP_STEPS)
        ) + "\n.legend span.hm0 { background: var(--panel); }\n"
        "@media (prefers-color-scheme: dark) {\n" + "\n".join(
            f".legend span.hm{i} {{ background: {_DARK_RAMP[i - 1]}; }}"
            for i in range(1, RAMP_STEPS)
        ) + "\n}</style>"
    )
    return parts


def _metrics_section(events: Sequence[Mapping[str, Any]]) -> List[str]:
    snapshot = None
    for event in events:
        if event.get("event") == "metrics":
            snapshot = event
    if snapshot is None:
        return ["<p>No metrics snapshot in this stream.</p>"]
    parts = []
    counters = snapshot.get("counters") or {}
    gauges = snapshot.get("gauges") or {}
    if counters or gauges:
        parts.append(
            "<table><thead><tr><th>counter / gauge</th><th>value</th>"
            "</tr></thead><tbody>"
        )
        for name in sorted(counters):
            parts.append(
                f"<tr><td>{_esc(name)}</td><td>{counters[name]:,}</td></tr>"
            )
        for name in sorted(gauges):
            parts.append(
                f"<tr><td>{_esc(name)} (gauge)</td>"
                f"<td>{_esc(gauges[name])}</td></tr>"
            )
        parts.append("</tbody></table>")
    histograms = snapshot.get("histograms") or {}
    if histograms:
        parts.append(
            "<table><thead><tr><th>histogram</th><th>count</th>"
            "<th>mean</th><th>p50</th><th>p95</th><th>p99</th>"
            "<th>max</th></tr></thead><tbody>"
        )
        for name in sorted(histograms):
            hist = histograms[name]
            if not hist.get("count"):
                parts.append(
                    f"<tr><td>{_esc(name)}</td><td>0</td>"
                    + "<td>—</td>" * 5 + "</tr>"
                )
                continue
            cells = "".join(
                f"<td>{hist.get(k, 0.0):.6g}</td>"
                for k in ("mean", "p50", "p95", "p99", "max")
            )
            parts.append(
                f"<tr><td>{_esc(name)}</td><td>{hist['count']:,}</td>"
                f"{cells}</tr>"
            )
        parts.append("</tbody></table>")
    if not parts:
        return ["<p>The metrics snapshot is empty.</p>"]
    return parts


def render_html_report(
    events: Sequence[Mapping[str, Any]], title: str = "Run report"
) -> str:
    """One self-contained HTML page for a telemetry event stream."""
    manifest = manifest_of(events)
    rows = phase_rows(events)
    body: List[str] = [f"<h1>{_esc(title)}</h1>"]
    body.extend(_manifest_section(manifest))
    body.append("<h2>Per-phase complexity</h2>")
    body.extend(_phase_table(rows))
    body.append("<h2>Congestion heatmap</h2>")
    body.extend(_heatmap_section(events))
    body.append("<h2>Metrics</h2>")
    body.extend(_metrics_section(events))
    body.append(
        f"<p style=\"color: var(--ink-2)\">{len(events):,} events in "
        "stream · generated by <code>repro report --html</code></p>"
    )
    return (
        "<!doctype html>\n<html lang=\"en\">\n<head>\n"
        "<meta charset=\"utf-8\">\n"
        "<meta name=\"viewport\" content=\"width=device-width, "
        "initial-scale=1\">\n"
        f"<title>{_esc(title)}</title>\n"
        f"<style>{_CSS}</style>\n</head>\n<body>\n"
        + "\n".join(body)
        + "\n</body>\n</html>\n"
    )
