"""Static SVG chart emission.

Charts are written directly as SVG text with fixed-precision coordinates, so
identical inputs always produce identical bytes.  Two charts cover the
simulator's outputs: a run's per-phase share composition bars, and a sweep's
attacker share and accuracy curves across its axis, whichever axis it is.
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

    def circle(self, x, y, fill: str, title: str) -> None:
        self.parts.append(
            f'<circle cx="{_f(x)}" cy="{_f(y)}" r="3.000" fill="{fill}">'
            f"<title>{title}</title></circle>"
        )

    def text(self, x, y, s: str, size=11, anchor="start") -> None:
        self.parts.append(
            f'<text x="{_f(x)}" y="{_f(y)}" font-family="sans-serif" '
            f'font-size="{size}" text-anchor="{anchor}" fill="#222222">{s}</text>'
        )

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(self.parts) + "\n</svg>\n")


def share_composition_chart(payload: dict, path: Path) -> None:
    """One stacked bar per phase; segments are per-client normalized shares."""
    rows = []
    for name in sorted(payload["evaluators"]):
        for phase in ("attack_free", "attacked"):
            rows.append((f"{name} / {phase}", payload["evaluators"][name][phase]["shares"]))
    bar_h, gap, left, top = 30, 16, 170, 40
    width = 640
    n = len(rows[0][1]) if rows else 0
    per_row, row_step = 9, 16  # nine legend entries fit the canvas's width
    height = top + len(rows) * (bar_h + gap) + 30 + max(n - 1, 0) // per_row * row_step
    canvas = SvgCanvas(width, height, payload["fingerprint"])
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
    y0 = top + len(rows) * (bar_h + gap) + 6
    for i in range(n):
        mark = "*" if i == malicious else ""
        x, y = float(left + 52 * (i % per_row)), y0 + row_step * (i // per_row)
        canvas.rect(x, y, 10, 10, PALETTE[i % len(PALETTE)])
        canvas.text(x + 13, y + 9, f"c{i}{mark}", size=10)
    canvas.save(path)


def sweep_chart(payloads: list[dict], axis: str, values: list, path: Path) -> None:
    """The primary evaluator's attacker share before and after the attack, and
    the test accuracy after it, at each value of the sweep's `axis`."""
    left, top, bottom, right = 60, 40, 310, 530
    canvas = SvgCanvas(560, 360, payloads[0]["fingerprint"])
    canvas.text(left, 22, f"Attacker share and accuracy across {axis}", size=13)
    canvas.line(left, bottom, right, bottom)
    canvas.line(left, bottom, left, top)
    for fy in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = bottom - fy * (bottom - top)
        canvas.line(left - 3, y, left, y)
        canvas.text(left - 6, y + 4, f"{fy:.2f}", anchor="end", size=9)
    span = max(len(values) - 1, 1)
    xs = [left + (right - left) * i / span for i in range(len(values))]
    for x, value in zip(xs, values):
        canvas.line(x, bottom, x, bottom + 3)
        canvas.text(x, bottom + 16, str(value), anchor="middle", size=10)

    # the first configured evaluator picked the attacker; a payload stores the
    # config's canonical list, without blanks
    primary = payloads[0]["config"]["evaluators"].split(",")[0]
    series = {
        "share_before": [p["evaluators"][primary]["target_share_before"] for p in payloads],
        "share_after": [p["evaluators"][primary]["target_share_after"] for p in payloads],
        "accuracy": [p["u1"] for p in payloads],
    }
    for k, (name, ys) in enumerate(series.items()):
        color = PALETTE[k]
        points = [(x, bottom - max(0.0, min(1.0, v)) * (bottom - top)) for x, v in zip(xs, ys)]
        canvas.polyline(points, color)
        for (x, y), value, v in zip(points, values, ys):
            canvas.circle(x, y, color, title=f"{name}@{value}: {v:.4f}")
        # the legend sits under the x labels, where no series can run through it
        canvas.rect(left + 140 * k, 338, 10, 10, color)
        canvas.text(left + 140 * k + 14, 347, name, size=10)
    canvas.save(path)


def emit_run_plots(payload: dict, out_dir: Path) -> None:
    out_dir = Path(out_dir)
    share_composition_chart(payload, out_dir / "share_composition.svg")
