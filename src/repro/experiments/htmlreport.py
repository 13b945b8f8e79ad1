"""Self-contained single-file HTML reports with inline SVG charts.

Everything a report needs travels in one ``.html`` file — styles in a
``<style>`` block, charts as inline SVG, data already rendered — so a
report can be attached to a CI run, mailed, or archived next to the
store segments it was computed from, and still open a decade later
with no network, no JavaScript, and no dependency on this repo.

Three chart kinds, composed by two builders:

* hit-rate-vs-cache-size line charts, one series per policy, with 95%
  CI whiskers when the store holds replicate seeds — rendered once for
  the overall rate and once per plotted document type (the paper's
  per-type panels);
* a regression verdict table from
  :class:`repro.experiments.regress.RegressionReport`;
* a span waterfall reconstructed from ``span`` events
  (:mod:`repro.observability.trace`), showing where a run's wall-time
  went across processes.

Colors follow the repo-wide chart conventions: an eight-slot
categorical palette assigned to policies in first-seen order (never
cycled — a ninth series folds into the chart note), CSS custom
properties with a ``prefers-color-scheme`` dark block, ink tokens for
every piece of text (text never wears a series color), and hairline
solid gridlines.  Verdict and status markers pair an icon with a label
so no state is encoded by color alone.
"""

from __future__ import annotations

import html as _html
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.experiments.service import AXES, TrialSpec, store_samples
from repro.experiments.stats import summarize
from repro.types import PLOTTED_TYPES

PathLike = Union[str, Path]

__all__ = [
    "line_chart",
    "span_waterfall",
    "verdict_table",
    "render_document",
    "report_from_store",
    "report_from_experiment",
    "write_html_report",
]

#: Categorical palette, light / dark steps of the same eight hues, in
#: the validated fixed order.  Slot assignment follows the entity
#: (policy or span name), never its rank in a particular chart.
PALETTE_LIGHT = ("#2a78d6", "#eb6834", "#1baf7a", "#eda100",
                 "#e87ba4", "#008300", "#4a3aa7", "#e34948")
PALETTE_DARK = ("#3987e5", "#d95926", "#199e70", "#c98500",
                "#d55181", "#008300", "#9085e9", "#e66767")

_CSS = """
:root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --page: #f9f9f7;
  --ink-primary: #0b0b0b;
  --ink-secondary: #52514e;
  --ink-muted: #898781;
  --gridline: #e1e0d9;
  --baseline: #c3c2b7;
  --good: #006300;
  --critical: #d03b3b;
  --border: rgba(11, 11, 11, 0.10);
%(light_series)s
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --page: #0d0d0d;
    --ink-primary: #ffffff;
    --ink-secondary: #c3c2b7;
    --ink-muted: #898781;
    --gridline: #2c2c2a;
    --baseline: #383835;
    --good: #0ca30c;
    --critical: #d03b3b;
%(dark_series)s
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px;
  background: var(--page); color: var(--ink-primary);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
main { max-width: 980px; margin: 0 auto; }
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 32px 0 8px; }
.subtitle { color: var(--ink-secondary); margin: 0 0 24px; }
.panel {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px; margin: 12px 0;
}
.panel h3 {
  font-size: 14px; margin: 0 0 2px; color: var(--ink-primary);
}
.panel .meta { color: var(--ink-muted); font-size: 12px;
               margin: 0 0 10px; }
.legend { display: flex; flex-wrap: wrap; gap: 4px 16px;
          margin: 8px 0 0; padding: 0; list-style: none;
          font-size: 12px; color: var(--ink-secondary); }
.legend .swatch {
  display: inline-block; width: 10px; height: 10px;
  border-radius: 2px; margin-right: 5px; vertical-align: -1px;
}
svg { display: block; }
svg text { font: 11px system-ui, -apple-system, "Segoe UI",
           sans-serif; font-variant-numeric: tabular-nums; }
table { border-collapse: collapse; width: 100%%; font-size: 13px; }
th, td { text-align: left; padding: 5px 10px;
         border-bottom: 1px solid var(--gridline); }
th { color: var(--ink-muted); font-weight: 600; font-size: 12px; }
td.num { text-align: right;
         font-variant-numeric: tabular-nums; }
.verdict-improved { color: var(--good); }
.verdict-regressed { color: var(--critical); font-weight: 600; }
.verdict-indistinguishable { color: var(--ink-muted); }
.note { color: var(--ink-muted); font-size: 12px; }
pre { background: var(--surface-1); border: 1px solid var(--border);
      border-radius: 8px; padding: 16px; overflow-x: auto;
      font-size: 12px; }
"""


def _series_vars(palette: Sequence[str], indent: str) -> str:
    return "\n".join(f"{indent}--series-{i + 1}: {color};"
                     for i, color in enumerate(palette))


def _css() -> str:
    return _CSS % {
        "light_series": _series_vars(PALETTE_LIGHT, "  "),
        "dark_series": _series_vars(PALETTE_DARK, "    "),
    }


def _esc(value: object) -> str:
    return _html.escape(str(value), quote=True)


def _fmt_bytes(value: float) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if abs(value) < 1024 or unit == "GB":
            return (f"{value:.0f}{unit}" if value >= 10 or unit == "B"
                    else f"{value:.1f}{unit}")
        value /= 1024
    return f"{value:.0f}TB"  # pragma: no cover - capacities cap at GB


def _nice_ceiling(value: float) -> float:
    """The smallest 'nice' tick ceiling >= value."""
    if value <= 0:
        return 1.0
    for ceiling in (0.1, 0.2, 0.25, 0.5, 0.75, 1.0):
        if value <= ceiling:
            return ceiling
    import math
    return math.ceil(value)


class SlotAssigner:
    """First-seen palette slot per entity name, shared across charts
    in one document so a policy keeps its color from panel to panel."""

    def __init__(self, limit: int = len(PALETTE_LIGHT)):
        self._slots: Dict[str, int] = {}
        self.limit = limit

    def slot(self, name: str) -> Optional[int]:
        """1-based slot, or None once the palette is exhausted."""
        if name not in self._slots:
            if len(self._slots) >= self.limit:
                return None
            self._slots[name] = len(self._slots) + 1
        return self._slots[name]


def line_chart(title: str, x_labels: Sequence[str],
               series: Sequence[dict], *, y_label: str = "hit rate",
               meta: str = "", slots: Optional[SlotAssigner] = None,
               width: int = 640, height: int = 280) -> str:
    """One panel: an SVG line chart plus its HTML legend.

    ``series`` items are ``{"name": str, "values": [float|None, ...],
    "lo": [...]|None, "hi": [...]|None}`` — ``lo``/``hi`` draw 95% CI
    whiskers.  X positions are index-spaced over ``x_labels`` (cache
    capacities are a geometric grid, so index spacing reads like the
    conventional log axis without log-scale machinery).
    """
    slots = slots or SlotAssigner()
    margin_l, margin_r, margin_t, margin_b = 52, 16, 10, 34
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b
    n = max(len(x_labels), 1)

    peak = 0.0
    for one in series:
        for bucket in ("values", "hi"):
            for value in one.get(bucket) or []:
                if value is not None:
                    peak = max(peak, value)
    y_max = _nice_ceiling(peak * 1.05 if peak else 1.0)

    def x_at(index: int) -> float:
        if n == 1:
            return margin_l + plot_w / 2
        return margin_l + plot_w * index / (n - 1)

    def y_at(value: float) -> float:
        return margin_t + plot_h * (1 - value / y_max)

    parts: List[str] = [
        f'<svg viewBox="0 0 {width} {height}" width="100%" '
        f'role="img" aria-label="{_esc(title)}">']
    # horizontal hairline gridlines + y tick labels
    ticks = 5
    for i in range(ticks + 1):
        value = y_max * i / ticks
        y = y_at(value)
        parts.append(
            f'<line x1="{margin_l}" y1="{y:.1f}" '
            f'x2="{width - margin_r}" y2="{y:.1f}" '
            f'stroke="var(--gridline)" stroke-width="1"/>')
        parts.append(
            f'<text x="{margin_l - 8}" y="{y + 4:.1f}" '
            f'text-anchor="end" fill="var(--ink-muted)">'
            f'{value:.2f}</text>')
    # baseline + x tick labels (thinned to ~8)
    base_y = y_at(0)
    parts.append(
        f'<line x1="{margin_l}" y1="{base_y:.1f}" '
        f'x2="{width - margin_r}" y2="{base_y:.1f}" '
        f'stroke="var(--baseline)" stroke-width="1"/>')
    step = max(1, (n + 7) // 8)
    for index, label in enumerate(x_labels):
        if index % step and index != n - 1:
            continue
        parts.append(
            f'<text x="{x_at(index):.1f}" y="{base_y + 16:.1f}" '
            f'text-anchor="middle" fill="var(--ink-muted)">'
            f'{_esc(label)}</text>')
    parts.append(
        f'<text x="{margin_l - 40}" y="{margin_t + plot_h / 2:.1f}" '
        f'fill="var(--ink-muted)" text-anchor="middle" '
        f'transform="rotate(-90 {margin_l - 40} '
        f'{margin_t + plot_h / 2:.1f})">{_esc(y_label)}</text>')

    folded: List[str] = []
    legend: List[str] = []
    for one in series:
        slot = slots.slot(one["name"])
        if slot is None:
            folded.append(one["name"])
            continue
        color = f"var(--series-{slot})"
        values = one.get("values") or []
        lo, hi = one.get("lo"), one.get("hi")
        points = [(x_at(i), y_at(v)) for i, v in enumerate(values)
                  if v is not None]
        # CI whiskers under the line: stem + end caps
        if lo and hi:
            for i, v in enumerate(values):
                if v is None or lo[i] is None or hi[i] is None:
                    continue
                x, y_lo, y_hi = x_at(i), y_at(lo[i]), y_at(hi[i])
                parts.append(
                    f'<line x1="{x:.1f}" y1="{y_lo:.1f}" '
                    f'x2="{x:.1f}" y2="{y_hi:.1f}" '
                    f'stroke="{color}" stroke-width="1.5"/>')
                for y_cap in (y_lo, y_hi):
                    parts.append(
                        f'<line x1="{x - 4:.1f}" y1="{y_cap:.1f}" '
                        f'x2="{x + 4:.1f}" y2="{y_cap:.1f}" '
                        f'stroke="{color}" stroke-width="1.5"/>')
        if len(points) > 1:
            path = " ".join(f"{x:.1f},{y:.1f}" for x, y in points)
            parts.append(
                f'<polyline points="{path}" fill="none" '
                f'stroke="{color}" stroke-width="2" '
                f'stroke-linejoin="round"/>')
        for x, y in points:
            parts.append(
                f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" '
                f'fill="{color}" stroke="var(--surface-1)" '
                f'stroke-width="2"/>')
        legend.append(
            f'<li><span class="swatch" style="background:{color}">'
            f'</span>{_esc(one["name"])}</li>')
    parts.append("</svg>")

    note = ""
    if folded:
        note = (f'<p class="note">palette exhausted: '
                f'{_esc(", ".join(folded))} not plotted '
                f'({len(folded)} series beyond 8)</p>')
    meta_html = f'<p class="meta">{_esc(meta)}</p>' if meta else ""
    legend_html = ""
    if len(legend) > 1:
        legend_html = f'<ul class="legend">{"".join(legend)}</ul>'
    return (f'<div class="panel"><h3>{_esc(title)}</h3>{meta_html}'
            f'{"".join(parts)}{legend_html}{note}</div>')


def span_waterfall(spans: Sequence[dict],
                   title: str = "span waterfall", *,
                   max_rows: int = 60, width: int = 900) -> str:
    """Horizontal bars from ``span`` events, indented by tree depth.

    Spans are sorted by start time; depth comes from chasing
    ``parent_id`` through the set (a parent in another process's file
    still resolves, because ids are global).  Bars wear the slot color
    of their span *name* — the same phase is the same color on every
    row — and an errored span carries an explicit ``x error`` label,
    never color alone.
    """
    spans = [s for s in spans
             if isinstance(s.get("started_at"), (int, float))
             and isinstance(s.get("duration_seconds"), (int, float))]
    if not spans:
        return (f'<div class="panel"><h3>{_esc(title)}</h3>'
                f'<p class="note">(no span events)</p></div>')
    spans = sorted(spans, key=lambda s: (s["started_at"],
                                         str(s.get("span_id"))))
    dropped = max(len(spans) - max_rows, 0)
    spans = spans[:max_rows]
    by_id = {s.get("span_id"): s for s in spans}

    def depth(span: dict) -> int:
        seen, level = set(), 0
        parent = span.get("parent_id")
        while parent in by_id and parent not in seen:
            seen.add(parent)
            parent = by_id[parent].get("parent_id")
            level += 1
        return level

    t0 = min(s["started_at"] for s in spans)
    t1 = max(s["started_at"] + s["duration_seconds"] for s in spans)
    total = max(t1 - t0, 1e-9)
    label_w, margin_r, row_h = 240, 14, 22
    plot_w = width - label_w - margin_r
    height = row_h * len(spans) + 24
    slots = SlotAssigner()
    parts = [f'<svg viewBox="0 0 {width} {height}" width="100%" '
             f'role="img" aria-label="{_esc(title)}">']
    for i, span in enumerate(spans):
        y = 4 + i * row_h
        x = label_w + plot_w * (span["started_at"] - t0) / total
        bar_w = max(plot_w * span["duration_seconds"] / total, 2.0)
        slot = slots.slot(str(span.get("name")))
        color = (f"var(--series-{slot})" if slot
                 else "var(--ink-muted)")
        indent = min(depth(span), 8) * 12
        name = str(span.get("name"))
        status = str(span.get("status", "ok"))
        suffix = " — x error" if status == "error" else ""
        parts.append(
            f'<text x="{4 + indent}" y="{y + 14}" '
            f'fill="var(--ink-secondary)">{_esc(name)}</text>')
        parts.append(
            f'<rect x="{x:.1f}" y="{y + 3}" width="{bar_w:.1f}" '
            f'height="{row_h - 9}" rx="3" fill="{color}" '
            f'stroke="var(--surface-1)" stroke-width="1"/>')
        duration = span["duration_seconds"]
        text = (f"{duration * 1000:.1f}ms" if duration < 1
                else f"{duration:.2f}s") + suffix
        anchor_x = x + bar_w + 6
        anchor = "start"
        if anchor_x > width - 90:
            anchor_x, anchor = x - 6, "end"
        fill = ("var(--critical)" if status == "error"
                else "var(--ink-muted)")
        parts.append(
            f'<text x="{anchor_x:.1f}" y="{y + 14}" '
            f'text-anchor="{anchor}" fill="{fill}">'
            f'{_esc(text)}</text>')
    parts.append(
        f'<text x="{label_w}" y="{height - 6}" '
        f'fill="var(--ink-muted)">0s</text>')
    parts.append(
        f'<text x="{width - margin_r}" y="{height - 6}" '
        f'text-anchor="end" fill="var(--ink-muted)">'
        f'{total:.2f}s</text>')
    parts.append("</svg>")
    note = (f'<p class="note">showing the first {max_rows} of '
            f'{max_rows + dropped} spans</p>' if dropped else "")
    return (f'<div class="panel"><h3>{_esc(title)}</h3>'
            f'{"".join(parts)}{note}</div>')


_VERDICT_ICONS = {"improved": "▲", "regressed": "▼",
                  "indistinguishable": "·"}


def verdict_table(report_data: dict,
                  title: str = "regression verdicts") -> str:
    """HTML table from ``RegressionReport.as_dict()`` output."""
    rows = []
    for v in report_data.get("verdicts", []):
        verdict = str(v.get("verdict"))
        icon = _VERDICT_ICONS.get(verdict, "")
        condition = (f"{v.get('trace')}/scale={v.get('scale')}"
                     f"/{v.get('policy')}"
                     f"/cache={v.get('size_fraction')}"
                     + "".join(f"/{axis}={v[axis]}"
                               for axis in AXES if axis in v))
        rows.append(
            "<tr>"
            f"<td>{_esc(condition)}</td>"
            f"<td>{_esc(v.get('metric'))}</td>"
            f"<td class='num'>{v.get('mean_baseline', 0):.4f}</td>"
            f"<td class='num'>{v.get('mean_candidate', 0):.4f}</td>"
            f"<td class='num'>{v.get('delta', 0):+.4f}</td>"
            f"<td class='num'>{v.get('p_value', 1):.4f}</td>"
            f"<td class='num'>{v.get('a12', 0.5):.3f}</td>"
            f"<td class='verdict-{_esc(verdict)}'>{icon} "
            f"{_esc(verdict)}</td></tr>")
    if not rows:
        rows.append('<tr><td colspan="8" class="note">(no shared '
                    "configuration between the revisions)</td></tr>")
    summary = report_data.get("summary") or {}
    meta = (f"baseline {report_data.get('baseline')} vs candidate "
            f"{report_data.get('candidate')} at alpha="
            f"{report_data.get('alpha')} — "
            f"{summary.get('improved', 0)} improved, "
            f"{summary.get('regressed', 0)} regressed, "
            f"{summary.get('indistinguishable', 0)} indistinguishable")
    return (
        f'<div class="panel"><h3>{_esc(title)}</h3>'
        f'<p class="meta">{_esc(meta)}</p><table>'
        "<thead><tr><th>condition</th><th>metric</th>"
        "<th>baseline</th><th>candidate</th><th>delta</th>"
        "<th>p</th><th>A12</th><th>verdict</th></tr></thead>"
        f'<tbody>{"".join(rows)}</tbody></table></div>')


def render_document(title: str, sections: Sequence[str],
                    subtitle: str = "") -> str:
    """Assemble panels into one complete self-contained document."""
    subtitle_html = (f'<p class="subtitle">{_esc(subtitle)}</p>'
                     if subtitle else "")
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"<title>{_esc(title)}</title>\n"
        f"<style>{_css()}</style></head>\n"
        f"<body><main><h1>{_esc(title)}</h1>{subtitle_html}"
        f'{"".join(sections)}</main></body></html>\n')


# --------------------------------------------------------------------------
# Builders: store records / experiment reports -> document
# --------------------------------------------------------------------------

def _store_groups(store) -> Dict[tuple, Dict[float, Dict[str, dict]]]:
    """(condition, git_hash) -> size_fraction -> policy -> metrics
    keyed by seed; the condition leaves out the two fields a panel
    plots against each other."""
    groups: Dict[tuple, Dict[float, Dict[str, dict]]] = {}
    for sample in store_samples(store):
        spec = sample.spec
        group = groups.setdefault(
            (TrialSpec.condition_of(spec, "policy", "size_fraction"),
             sample.git_hash), {})
        by_policy = group.setdefault(float(spec["size_fraction"]), {})
        by_policy.setdefault(spec["policy"], {})[sample.seed] = \
            sample.metrics
    return groups


def _series_from_group(fractions: Sequence[float],
                       group: Dict[float, Dict[str, dict]],
                       metric: str) -> List[dict]:
    policies = sorted({policy for by_policy in group.values()
                       for policy in by_policy})
    series = []
    for policy in policies:
        values: List[Optional[float]] = []
        lo: List[Optional[float]] = []
        hi: List[Optional[float]] = []
        for fraction in fractions:
            sample = [metrics[metric] for _, metrics in
                      sorted((group.get(fraction) or {})
                             .get(policy, {}).items())
                      if metric in metrics]
            if not sample:
                values.append(None)
                lo.append(None)
                hi.append(None)
                continue
            summary = summarize(sample)
            values.append(summary.mean)
            lo.append(summary.ci_low)
            hi.append(summary.ci_high)
        series.append({"name": policy, "values": values,
                       "lo": lo, "hi": hi})
    return series


def report_from_store(store, *, regression: Optional[dict] = None,
                      span_events: Optional[Sequence[dict]] = None,
                      title: str = "experiment service report") -> str:
    """The full service document: curves, per-type panels, verdicts,
    waterfall — straight from the store (plus optional extras).

    ``regression`` is a ``RegressionReport.as_dict()``;
    ``span_events`` a list of parsed ``span`` event dicts (for
    example ``read_events(path, event="span")`` over each telemetry
    file).
    """
    sections: List[str] = []
    slots = SlotAssigner()
    for group_key, group in sorted(_store_groups(store).items(),
                                   key=lambda item: str(item[0])):
        (trace, scale, *axes), git_hash = group_key
        widened = "".join(f" {axis}={value}" for axis, value in axes)
        subject = f"{trace}{widened} @ {git_hash}"
        fractions = sorted(group)
        x_labels = [f"{fraction:g}" for fraction in fractions]
        meta = (f"trace={trace} scale={scale:g}{widened} "
                f"git={git_hash} — "
                "x: cache size as a fraction of total data; whiskers: "
                "95% CI across seeds")
        sections.append(line_chart(
            f"hit rate vs cache size — {subject}",
            x_labels,
            _series_from_group(fractions, group, "hit_rate"),
            meta=meta, slots=slots))
        sections.append(line_chart(
            f"byte hit rate vs cache size — {subject}",
            x_labels,
            _series_from_group(fractions, group, "byte_hit_rate"),
            y_label="byte hit rate", meta=meta, slots=slots))
        for doc_type in PLOTTED_TYPES:
            type_series = _series_from_group(
                fractions, group, f"hit_rate[{doc_type.value}]")
            if not any(v is not None for one in type_series
                       for v in one["values"]):
                continue  # records predate the per-type breakdown
            sections.append(line_chart(
                f"{doc_type.value} hit rate — {subject}",
                x_labels, type_series, meta=meta, slots=slots))
    if not sections:
        sections.append('<div class="panel"><p class="note">'
                        "(store holds no service records)</p></div>")
    if regression is not None:
        sections.append(verdict_table(regression))
    if span_events:
        sections.append(span_waterfall(span_events))
    return render_document(title, sections,
                           subtitle="rendered from the results store; "
                                    "self-contained, no scripts")


def report_from_experiment(report) -> str:
    """One suite experiment's document, from its in-memory report.

    Sweep experiments (``data`` carries ``capacities`` plus per-panel
    ``hit_rate``/``byte_hit_rate`` maps) get the full per-type chart
    set; anything else falls back to the text report in a ``<pre>``
    so ``write_report`` can emit ``report.html`` unconditionally.
    """
    data = report.data if isinstance(report.data, dict) else {}
    capacities = data.get("capacities")
    hit_rate = data.get("hit_rate")
    sections: List[str] = []
    if (isinstance(capacities, list) and capacities
            and isinstance(hit_rate, dict)
            and isinstance(hit_rate.get("overall"), dict)):
        slots = SlotAssigner()
        x_labels = [_fmt_bytes(c) for c in capacities]
        for metric, label in (("hit_rate", "hit rate"),
                              ("byte_hit_rate", "byte hit rate")):
            panels = data.get(metric) or {}
            for panel_key in (["overall"]
                              + [t.value for t in PLOTTED_TYPES]):
                by_policy = panels.get(panel_key)
                if not isinstance(by_policy, dict) or not by_policy:
                    continue
                series = [{"name": policy, "values": list(values),
                           "lo": None, "hi": None}
                          for policy, values
                          in sorted(by_policy.items())]
                sections.append(line_chart(
                    f"{panel_key} {label} vs cache size", x_labels,
                    series, y_label=label,
                    meta=f"{report.experiment_id} "
                         f"(scale={report.scale_name})",
                    slots=slots))
    if not sections:
        sections.append(f"<pre>{_esc(report.text)}</pre>")
    return render_document(
        f"{report.experiment_id} — {report.scale_name}", sections)


def write_html_report(path: PathLike, document: str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(document, encoding="utf-8")
    return path
