"""SVG plot of a sweep's test SSE against k, emitted as text with no plotting dependency."""

from __future__ import annotations


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def sse_plot(ks, sses, k_star: int) -> str:
    """Render test SSE against interface width k, the sweep's ks 0..k_max in
    order, as one polyline with axes and ticks, with k* highlighted."""
    xs = [float(x) for x in ks]
    ys = [float(y) for y in sses]

    width, height = 640, 420
    left, right, top, bottom = 60, 20, 30, 50
    plot_w = width - left - right
    plot_h = height - top - bottom

    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    if y_max == y_min:
        y_max = y_min + 1.0
    y_pad = 0.05 * (y_max - y_min)
    y_min -= y_pad
    y_max += y_pad

    def px(x: float) -> float:
        return left + (x - x_min) / (x_max - x_min) * plot_w

    def py(y: float) -> float:
        return top + (y_max - y) / (y_max - y_min) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="18" text-anchor="middle">SSE vs interface width</text>',
    ]

    axis = f'stroke="black" stroke-width="1"'
    parts.append(f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" {axis}/>')
    parts.append(
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" y2="{top + plot_h}" {axis}/>'
    )

    for x in xs:
        gx = px(x)
        parts.append(f'<line x1="{gx:.1f}" y1="{top + plot_h}" x2="{gx:.1f}" y2="{top + plot_h + 4}" {axis}/>')
        parts.append(f'<text x="{gx:.1f}" y="{top + plot_h + 18}" text-anchor="middle">{_fmt(x)}</text>')
    for i in range(5):
        y = y_min + i * (y_max - y_min) / 4
        gy = py(y)
        parts.append(f'<line x1="{left - 4}" y1="{gy:.1f}" x2="{left}" y2="{gy:.1f}" {axis}/>')
        parts.append(
            f'<text x="{left - 8}" y="{gy + 4:.1f}" text-anchor="end">{_fmt(y)}</text>'
        )

    parts.append(
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 10}" text-anchor="middle">interface bits k</text>'
    )
    cx, cy = 16, top + plot_h / 2
    parts.append(
        f'<text x="{cx}" y="{cy:.1f}" text-anchor="middle" transform="rotate(-90 {cx} {cy:.1f})">test SSE</text>'
    )

    points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    parts.append(f'<polyline points="{points}" fill="none" stroke="steelblue" stroke-width="2"/>')
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="steelblue"/>')

    my = ys[k_star]
    parts.append(
        f'<circle cx="{px(k_star):.2f}" cy="{py(my):.2f}" r="6" fill="none" stroke="crimson" stroke-width="2"/>'
    )
    parts.append(
        f'<text x="{px(k_star) + 8:.2f}" y="{py(my) - 8:.2f}" fill="crimson">k*={_fmt(k_star)}</text>'
    )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
