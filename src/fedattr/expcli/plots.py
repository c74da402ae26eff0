"""Static SVG chart emission.

Charts are written directly as SVG text with fixed-precision coordinates, so
identical inputs always produce identical bytes.  Three chart types cover
the simulator's outputs: per-phase share composition bars, intensity curves
(share and accuracy), and grouped bars across methods or client counts.
"""

from __future__ import annotations

from pathlib import Path

PALETTE = (
    "#4c72b0", "#dd8452", "#55a868", "#c44e52", "#8172b3",
    "#937860", "#da8bc3", "#8c8c8c", "#ccb974", "#64b5cd",
    "#5f9e6e", "#b55d60", "#857aab", "#c1b37f", "#71aec0",
)


def _f(v: float) -> str:
    return f"{v:.3f}"


class SvgCanvas:
    def __init__(self, width: int, height: int, fingerprint: str):
        self.parts: list[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">',
            f"<!-- config:{fingerprint} -->",
            f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        ]

    def rect(self, x, y, w, h, fill: str, title: str = "") -> None:
        tag = f'<rect x="{_f(x)}" y="{_f(y)}" width="{_f(w)}" height="{_f(h)}" fill="{fill}"'
        self.parts.append(f"{tag}><title>{title}</title></rect>" if title else f"{tag}/>")

    def line(self, x1, y1, x2, y2) -> None:
        self.parts.append(
            f'<line x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}" '
            'stroke="#333333" stroke-width="1.000"/>'
        )

    def polyline(self, points, stroke: str) -> None:
        coords = " ".join(f"{_f(x)},{_f(y)}" for x, y in points)
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
            'stroke-width="2.000"/>'
        )

    def circle(self, x, y, fill: str) -> None:
        self.parts.append(f'<circle cx="{_f(x)}" cy="{_f(y)}" r="3.000" fill="{fill}"/>')

    def text(self, x, y, s: str, size=11, anchor="start") -> None:
        self.parts.append(
            f'<text x="{_f(x)}" y="{_f(y)}" font-family="sans-serif" '
            f'font-size="{size}" text-anchor="{anchor}" fill="#222222">{s}</text>'
        )

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(self.parts) + "\n</svg>\n")


def _primary(payload: dict) -> str:
    """The run's first configured evaluator, the one that picked the attacker;
    a payload stores the config's canonical list, without blanks."""
    return payload["config"]["evaluators"].split(",")[0]


_LEFT, _TOP, _BOTTOM = 60, 40, 310  # plot area of the `_axes_chart` charts


def _axes_chart(width: int, title: str, fingerprint: str, ticks) -> SvgCanvas:
    """A 360-high canvas with `title`, an x axis ending 30 short of its right
    edge, a y axis, and a labelled y tick for each (fraction of the axis,
    label) in `ticks`."""
    canvas = SvgCanvas(width, 360, fingerprint)
    canvas.text(_LEFT, 22, title, size=13)
    canvas.line(_LEFT, _BOTTOM, width - 30, _BOTTOM)
    canvas.line(_LEFT, _BOTTOM, _LEFT, _TOP)
    for frac, label in ticks:
        y = _BOTTOM - frac * (_BOTTOM - _TOP)
        canvas.line(_LEFT - 3, y, _LEFT, y)
        canvas.text(_LEFT - 6, y + 4, label, anchor="end", size=9)
    return canvas


def share_composition_chart(payload: dict, path: Path) -> None:
    """One stacked bar per phase; segments are per-client normalized shares."""
    rows = []
    for name in sorted(payload["evaluators"]):
        for phase in ("attack_free", "attacked"):
            rows.append((f"{name} / {phase}", payload["evaluators"][name][phase]["shares"]))
    bar_h, gap, left, top = 30, 16, 170, 40
    width = 640
    canvas = SvgCanvas(width, top + len(rows) * (bar_h + gap) + 30, payload["fingerprint"])
    canvas.text(left, 22, "Attribution share composition by client", size=13)
    scale = width - left - 40
    malicious = payload["malicious_id"]
    for r, (label, shares) in enumerate(rows):
        y = top + r * (bar_h + gap)
        canvas.text(left - 8, y + bar_h / 2 + 4, label, anchor="end")
        x = float(left)
        for i, s in enumerate(shares):
            w = s * scale
            canvas.rect(x, y, w, bar_h, PALETTE[i % len(PALETTE)],
                        title=f"client {i}: {s:.4f}")
            x += w
        canvas.rect(left - 4, y, 2, bar_h, "#000000")
    # legend
    y = top + len(rows) * (bar_h + gap) + 6
    x = float(left)
    n = len(rows[0][1]) if rows else 0
    for i in range(n):
        mark = "*" if i == malicious else ""
        canvas.rect(x, y, 10, 10, PALETTE[i % len(PALETTE)])
        canvas.text(x + 13, y + 9, f"c{i}{mark}", size=10)
        x += 52
    canvas.save(path)


def intensity_curve_chart(payloads: list[dict], values: list, path: Path) -> None:
    """Attacker share and global accuracy versus attack intensity."""
    width = 560
    right = width - 30
    canvas = _axes_chart(
        width, "Attacker share and accuracy vs attack intensity",
        payloads[0]["fingerprint"],
        [(fy, f"{fy:.2f}") for fy in (0.0, 0.25, 0.5, 0.75, 1.0)],
    )
    xs = []
    span = max(len(values) - 1, 1)
    for i, v in enumerate(values):
        x = _LEFT + (right - _LEFT) * i / span
        xs.append(x)
        canvas.line(x, _BOTTOM, x, _BOTTOM + 3)
        canvas.text(x, _BOTTOM + 16, f"{v}x", anchor="middle", size=10)

    primary = _primary(payloads[0])
    shares = [p["evaluators"][primary]["target_share_after"] for p in payloads]
    accs = [p["u1"] for p in payloads]

    def to_y(v: float) -> float:
        return _BOTTOM - max(0.0, min(1.0, v)) * (_BOTTOM - _TOP)

    canvas.polyline([(x, to_y(s)) for x, s in zip(xs, shares)], PALETTE[3])
    canvas.polyline([(x, to_y(a)) for x, a in zip(xs, accs)], PALETTE[0])
    for x, s in zip(xs, shares):
        canvas.circle(x, to_y(s), PALETTE[3])
    for x, a in zip(xs, accs):
        canvas.circle(x, to_y(a), PALETTE[0])
    canvas.rect(right - 150, _TOP, 10, 10, PALETTE[3])
    canvas.text(right - 136, _TOP + 9, "attacker share", size=10)
    canvas.rect(right - 150, _TOP + 16, 10, 10, PALETTE[0])
    canvas.text(right - 136, _TOP + 25, "test accuracy", size=10)
    canvas.save(path)


def grouped_bar_chart(
    groups: list[str], series: dict[str, list[float]], title: str, path: Path,
    fingerprint: str,
) -> None:
    """Grouped bars: one cluster per group, one bar per series entry."""
    width = 620
    right = width - 30
    peak = max(
        (v for vals in series.values() for v in vals), default=1.0
    )
    peak = max(peak, 1e-9)
    ticks = [(frac, f"{frac * peak:.3f}") for frac in (0.0, 0.5, 1.0)]
    canvas = _axes_chart(width, title, fingerprint, ticks)
    cluster_w = (right - _LEFT) / max(len(groups), 1)
    names = sorted(series)
    bar_w = cluster_w * 0.8 / max(len(names), 1)
    for gi, group in enumerate(groups):
        x0 = _LEFT + gi * cluster_w + cluster_w * 0.1
        for si, name in enumerate(names):
            v = series[name][gi]
            h = (_BOTTOM - _TOP) * max(v, 0.0) / peak
            canvas.rect(
                x0 + si * bar_w, _BOTTOM - h, bar_w * 0.92, h,
                PALETTE[si % len(PALETTE)], title=f"{name}@{group}: {v:.4f}",
            )
        canvas.text(x0 + cluster_w * 0.4, _BOTTOM + 16, str(group), anchor="middle", size=10)
    y = _TOP
    for si, name in enumerate(names):
        canvas.rect(right - 170, y, 10, 10, PALETTE[si % len(PALETTE)])
        canvas.text(right - 156, y + 9, name, size=10)
        y += 16
    canvas.save(path)


def emit_run_plots(payload: dict, out_dir: Path) -> None:
    out_dir = Path(out_dir)
    share_composition_chart(payload, out_dir / "share_composition.svg")


def emit_sweep_plots(payloads: list[dict], axis: str, values: list, out_dir: Path) -> None:
    out_dir = Path(out_dir)
    if axis == "intensity":
        intensity_curve_chart(payloads, values, out_dir / "intensity_curve.svg")
        return
    primary = _primary(payloads[0])
    series = {
        "share_before": [
            p["evaluators"][primary]["target_share_before"] for p in payloads
        ],
        "share_after": [
            p["evaluators"][primary]["target_share_after"] for p in payloads
        ],
    }
    grouped_bar_chart(
        [str(v) for v in values],
        series,
        f"Attacker share across {axis}",
        out_dir / f"grouped_{axis}.svg",
        payloads[0]["fingerprint"],
    )
