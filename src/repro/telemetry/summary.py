"""Phase tables and run diffs over profile rows and event streams.

A row is one :meth:`repro.perf.PhaseProfiler.to_dict` frame — phase,
rounds, messages, bits, wall time — whether it comes from a stored
record's ``profile`` field or from a stream's ``phase`` events
(:meth:`repro.telemetry.Telemetry.emit_profile`). One text table
(:func:`render_phase_table`) renders rows for both ``repro profile``
(:func:`render_profile_report`, per-job means over record groups) and
``repro trace summary`` (:func:`render_summary`, headed by the run
manifest). :func:`diff_streams` compares two streams' *logical*
metrics — the deterministic columns that must agree across ledger
tiers and code versions, wall time explicitly excluded.
"""

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

#: The deterministic per-phase columns (wall time is environment noise
#: and never part of a diff verdict).
LOGICAL_COLUMNS = ("rounds", "messages", "bits")


def manifest_of(events: Sequence[Mapping[str, Any]]) -> Optional[Dict[str, Any]]:
    """The first manifest event's payload, if the stream carries one."""
    for event in events:
        if event.get("event") == "manifest":
            return {k: v for k, v in event.items() if k not in ("event", "seq", "t")}
    return None


def _merge_rows(rows: Iterable[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """Rows summed per phase in first-seen order; a missing or null
    counter reads as 0."""
    order: List[str] = []
    acc: Dict[str, Dict[str, Any]] = {}
    for source in rows:
        name = str(source.get("phase", "(unattributed)"))
        row = acc.get(name)
        if row is None:
            row = acc[name] = {
                "phase": name, "rounds": 0, "messages": 0,
                "bits": 0, "wall_time": 0.0,
            }
            order.append(name)
        row["rounds"] += source.get("rounds", 0) or 0
        row["messages"] += source.get("messages", 0) or 0
        row["bits"] += source.get("bits", 0) or 0
        row["wall_time"] += source.get("wall_time", 0.0) or 0.0
    return [acc[name] for name in order]


def phase_rows(events: Sequence[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """Per-phase rows from a stream's ``phase`` events, merged in
    first-seen order (a phase re-entered later accumulates)."""
    return _merge_rows(e for e in events if e.get("event") == "phase")


def totals_of(rows: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
    return {
        "rounds": sum(r["rounds"] for r in rows),
        "messages": sum(r["messages"] for r in rows),
        "bits": sum(r["bits"] for r in rows),
        "wall_time": sum(r["wall_time"] for r in rows),
    }


#: Width of the wall-share bar (characters at 100%).
BAR_WIDTH = 28

#: Minimum width of the phase column, so every table shares one header.
PHASE_WIDTH = 28


def _nesting(name: str, names: Set[str]) -> Tuple[int, str]:
    """(depth, label) of a row: a span path nests one level under each
    ancestor that is itself a row and shows the rest of its path, so
    ``phase-1/bellman-ford`` reads ``bellman-ford`` under ``phase-1``
    while ``oracle/spd``, with no ``oracle`` row, keeps its name."""
    parts = name.split("/")
    for cut in range(len(parts) - 1, 0, -1):
        parent = "/".join(parts[:cut])
        if parent in names:
            return _nesting(parent, names)[0] + 1, "/".join(parts[cut:])
    return 0, name


def _count(value: Any) -> str:
    """Integers print exactly; group means keep one decimal."""
    return f"{value:.1f}" if isinstance(value, float) else str(value)


def render_phase_table(rows: Sequence[Mapping[str, Any]]) -> List[str]:
    """The phase table both ``repro profile`` and ``repro trace summary``
    print: one line per row (span paths indented under their phase)
    with rounds, messages, bits, wall seconds, the wall share and a bar
    proportional to it, then a totals line. Rows are
    :meth:`repro.perf.PhaseProfiler.to_dict` rows, one per phase."""
    names = {row["phase"] for row in rows}
    labels = []
    for row in rows:
        depth, label = _nesting(row["phase"], names)
        labels.append("  " * depth + label)
    width = max([PHASE_WIDTH] + [len(label) for label in labels])
    totals = totals_of(rows)
    total_wall = totals["wall_time"] or 1.0

    def counters(label: str, row: Mapping[str, Any]) -> str:
        return (
            f"{label.ljust(width)} {_count(row['rounds']):>9s} "
            f"{_count(row['messages']):>10s} {_count(row['bits']):>12s} "
            f"{row['wall_time']:9.4f}"
        )

    lines = [
        f"{'phase'.ljust(width)} {'rounds':>9s} {'messages':>10s} "
        f"{'bits':>12s} {'wall s':>9s} {'share':>6s}"
    ]
    for label, row in zip(labels, rows):
        share = row["wall_time"] / total_wall
        bar = "█" * max(int(round(share * BAR_WIDTH)), 1 if share > 0 else 0)
        lines.append(f"{counters(label, row)} {share:6.1%} {bar}".rstrip())
    lines.append(counters("total", totals))
    return lines


def render_summary(
    events: Sequence[Mapping[str, Any]], title: str = ""
) -> str:
    """The ``repro trace summary`` view: the run manifest, then the
    phase table (:func:`render_phase_table`) of the stream's ``phase``
    events."""
    manifest = manifest_of(events)
    rows = phase_rows(events)
    lines = []
    if title:
        lines.append(f"== trace summary: {title} ==")
    if manifest is not None:
        workload = manifest.get("workload") or {}
        described = " ".join(
            f"{key}={workload[key]}" for key in sorted(workload)
        )
        lines.append(
            f"run {manifest.get('run_id')}"
            + (f"  git {manifest['git']}" if manifest.get("git") else "")
        )
        if described:
            lines.append(f"workload: {described}")
    if not rows:
        lines.append("no phase events in this stream")
        return "\n".join(lines)
    lines.extend(render_phase_table(rows))
    return "\n".join(lines)


def _merge_profiles(profiles: List[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """Average per-phase counters across several job profiles.

    Phases keep first-seen order (executions of one pipeline narrate
    their phases in the same order; stragglers appear where first seen).
    Sums divide by the *group* size, not by how many jobs reached the
    phase — a phase only the largest grid point executes contributes its
    per-group mean, so "mean per job" holds for every row and the group
    totals equal the mean per-job totals.
    """
    jobs = max(1, len(profiles))
    rows = _merge_rows(row for profile in profiles for row in profile.get("phases", []))
    for row in rows:
        for column in ("rounds", "messages", "bits", "wall_time"):
            row[column] /= jobs
    return rows


def render_profile_report(records: Sequence[Mapping[str, Any]]) -> str:
    """The ``repro profile`` view: profiled job records (the ``profile``
    field :func:`repro.engine.runner.execute_job` stores) grouped by
    (scenario, algorithm, backend), each group one phase table
    (:func:`render_phase_table`) of per-job means. Records without a
    ``profile`` are ignored; an all-unprofiled input renders a hint
    instead of nothing."""
    groups: Dict[Tuple[str, str, str], List[Mapping[str, Any]]] = {}
    for record in records:
        if not record.get("profile"):
            continue
        group = (
            str(record.get("scenario", "?")),
            str(record.get("algorithm", "?")),
            str(record.get("backend_name", "reference")),
        )
        groups.setdefault(group, []).append(record)
    if not groups:
        return "no profiled records (run with profiling enabled)"

    sections = []
    for (scenario, algorithm, backend), group in sorted(groups.items()):
        rows = _merge_profiles([r["profile"] for r in group])
        heading = (
            f"== profile: {scenario} · {algorithm} · backend={backend} "
            f"({len(group)} job{'s' if len(group) != 1 else ''}, "
            f"mean per job) =="
        )
        sections.append("\n".join([heading] + render_phase_table(rows)))
    return "\n\n".join(sections)


def diff_streams(
    events_a: Sequence[Mapping[str, Any]],
    events_b: Sequence[Mapping[str, Any]],
    label_a: str = "a",
    label_b: str = "b",
) -> Tuple[bool, str]:
    """Compare two streams' logical per-phase metrics.

    Returns ``(identical, report)``: identical is True iff both streams
    narrate the same phase set with equal rounds / messages / bits per
    phase (wall time is environment noise and never judged).
    """
    rows_a = {r["phase"]: r for r in phase_rows(events_a)}
    rows_b = {r["phase"]: r for r in phase_rows(events_b)}
    order = list(rows_a)
    order.extend(name for name in rows_b if name not in rows_a)
    width = max([len(name) for name in order] + [len("phase"), len("total")])
    lines = [
        f"== trace diff: {label_a} vs {label_b} (logical metrics) ==",
        f"{'phase'.ljust(width)} {'column':>9s} {label_a:>12s} "
        f"{label_b:>12s}  verdict",
    ]
    identical = True
    zero = {"rounds": 0, "messages": 0, "bits": 0}

    def _compare(name: str, a: Mapping[str, Any], b: Mapping[str, Any]) -> None:
        nonlocal identical
        for column in LOGICAL_COLUMNS:
            same = a[column] == b[column]
            if not same:
                identical = False
            lines.append(
                f"{name.ljust(width)} {column:>9s} {a[column]:12d} "
                f"{b[column]:12d}  {'=' if same else 'DIFFERS'}"
            )

    for name in order:
        a = rows_a.get(name)
        b = rows_b.get(name)
        if a is None or b is None:
            identical = False
            missing = label_a if a is None else label_b
            lines.append(
                f"{name.ljust(width)} {'(phase)':>9s} "
                f"{'—':>12s} {'—':>12s}  MISSING in {missing}"
            )
            _compare(name, a or dict(zero, phase=name), b or dict(zero, phase=name))
            continue
        _compare(name, a, b)
    totals_a = totals_of(rows_a.values())
    totals_b = totals_of(rows_b.values())
    _compare("total", totals_a, totals_b)
    lines.append(
        "logical metrics identical"
        if identical
        else "logical metrics DIFFER"
    )
    return identical, "\n".join(lines)
