"""Static SVG line plots with byte-deterministic output.

No plotting toolkit: the figure is assembled as a string with fixed
number formatting, so identical inputs always produce identical bytes.
Non-finite samples split the polyline rather than being interpolated.

Every coordinate is written as ``"%.3f"`` would write it.  The points of
all curves of a plot are formatted as whole arrays: each coordinate's
rounding to thousandths is computed exactly (the product by 1000 split
into a float and its exact error, Dekker's two-product; exact ties to
even, as float formatting rounds them) and looked up in byte tables of
the 1000 integer parts and the 1000 fractions.  A plot with a coordinate
outside [0, 999.9995), or a non-finite time, formats each point through
``"%.3f"`` instead; both give the same bytes.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["emit_svg"]

WIDTH = 800
HEIGHT = 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 160, 40, 50

TICK_TARGET = 6  # about this many ticks per axis

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")


def _tick_step(lo: float, hi: float, target: int) -> float | None:
    """The 1-2-5 step giving about ``target`` ticks on [lo, hi].

    None when the range is empty or narrower than float resolution.  A step
    of at least 4 ulps of the endpoints is what keeps ``v += step`` in the
    tick loop advancing up to ``hi + 1.5 * step``.
    """
    if hi <= lo:
        return None
    raw = (hi - lo) / max(target - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    if step < 4 * math.ulp(max(abs(lo), abs(hi))):
        return None
    return step


def _nice_ticks(lo: float, hi: float, target: int = TICK_TARGET) -> list[float]:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return []
    step = _tick_step(lo, hi, target)
    if step is None:
        # a flat range (or one a few ulps wide) is ticked as [lo, lo + 1]
        hi = lo + 1.0
        step = _tick_step(lo, hi, target)
        if step is None:
            raise ValueError(f"axis range at {lo!r} is below float resolution")
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 0.5 * step:
        ticks.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return ticks


def _fmt(v: float) -> str:
    return format(v, ".3f")


def _tick_label(v: float) -> str:
    return format(v, "g")


# "%.3f" of 0 <= v < 999.9995 in two 4-byte words: the integer part
# right-aligned in three bytes padded with NUL and ".", then the three
# decimals and the byte that follows them in a point's text "x,y "
_I = np.arange(1000)
_DIGITS = np.stack([_I // 100, _I // 10 % 10, _I % 10], axis=1) + ord("0")
_INT_PAD = (_I < 10) * 1 + (_I < 100)  # leading zeros not written


def _words(digits: np.ndarray, last: str) -> np.ndarray:
    rows = np.column_stack([digits, np.full(1000, ord(last))])
    return rows.astype(np.uint8).view(np.uint32).ravel()


_INT_WORDS = _words(np.where(np.arange(3) < _INT_PAD[:, None], 0, _DIGITS), ".")
_X_FRAC_WORDS = _words(_DIGITS, ",")
_Y_FRAC_WORDS = _words(_DIGITS, " ")


def _thousandths(v: np.ndarray) -> np.ndarray | None:
    """round(v * 1000) of each value, exactly and with ties to even, as
    ``"%.3f"`` rounds the exact binary value; None unless every value is in
    [0, 999.9995) and is not -0.0."""
    if not np.all((v >= 0.0) & (v < 1000.0)) or np.signbit(v).any():
        return None
    p = v * 1000.0
    # v = hi + lo with hi of 26 bits: hi * 1000 and lo * 1000 are exact
    # (1000 has 7), so v * 1000 = p + e exactly (Dekker's two-product)
    hi = v * 134217729.0
    hi -= hi - v
    e = hi * 1000.0
    e -= p
    hi -= v
    hi *= 1000.0
    e -= hi
    q = np.floor(p)
    # (p - q) - 0.5 is exact, so the sum's sign is that of the exact
    # fraction's distance past one half
    p -= q
    p -= 0.5
    p += e
    k = q.astype(np.intp)
    k += p > 0.0
    tie = p == 0.0
    k[tie] += k[tie] & 1  # to even
    return k if k.max(initial=0) < 1_000_000 else None


def _points(x: np.ndarray, rows: np.ndarray, y: np.ndarray) -> tuple[str, np.ndarray]:
    """The text "x,y " of the points (x[rows], y), each coordinate as
    ``"%.3f"`` writes it, run together, and the offset of each point's
    text in it (one more offset, the end)."""
    kx, ky = _thousandths(x), _thousandths(y)
    if kx is None or ky is None:
        xs = ["%.3f," % v for v in x.tolist()]
        records = [xs[r] + "%.3f " % v for r, v in zip(rows.tolist(), y.tolist())]
        lengths = [len(r) for r in records]
        text = "".join(records)
    else:
        (xi, xf), (yi, yf) = divmod(kx, 1000), divmod(ky, 1000)
        words = np.empty((len(y), 4), dtype=np.uint32)
        words[:, 0], words[:, 1] = _INT_WORDS[xi][rows], _X_FRAC_WORDS[xf][rows]
        words[:, 2], words[:, 3] = _INT_WORDS[yi], _Y_FRAC_WORDS[yf]
        lengths = 16 - _INT_PAD[xi][rows] - _INT_PAD[yi]
        records = words.view(np.uint8)
        text = records[records != 0].tobytes().decode("ascii")
    return text, np.concatenate(([0], np.cumsum(lengths)))


def _check_span(axis: str, lo: float, hi: float):
    if not math.isfinite(hi - lo):
        raise ValueError(f"{axis} axis span [{lo!r}, {hi!r}] is not finite")


def emit_svg(
    t: np.ndarray,
    curves: list[tuple[str, np.ndarray]],
    title: str = "",
    xlabel: str = "t",
    ylabel: str = "",
) -> str:
    """Render labelled time series as a static SVG document string; an axis
    span that is not finite (overflowed, or a NaN end of ``t``) is a ValueError."""
    t = np.asarray(t, dtype=float)
    if t.size == 0 or not curves:
        raise ValueError("nothing to plot: empty series")
    for label, y in curves:
        if np.asarray(y).shape != t.shape:
            raise ValueError(f"curve {label!r} length does not match the time axis")

    ys = [np.asarray(y, dtype=float) for _, y in curves]
    finite = [np.isfinite(y) for y in ys]
    finite_vals = np.concatenate([y[f] for y, f in zip(ys, finite)])
    if finite_vals.size == 0:
        raise ValueError("nothing to plot: no finite samples")
    x_lo, x_hi = float(t[0]), float(t[-1])
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    _check_span("t", x_lo, x_hi)
    y_lo, y_hi = float(np.min(finite_vals)), float(np.max(finite_vals))
    _check_span("y", y_lo, y_hi)
    if _tick_step(y_lo, y_hi, TICK_TARGET) is None:  # flat, or flat to within float resolution
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    _check_span("y", y_lo, y_hi)  # the pad may overflow

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x: float) -> float:
        return MARGIN_L + plot_w * (x - x_lo) / (x_hi - x_lo)

    def sy(y: float) -> float:
        return MARGIN_T + plot_h * (1.0 - (y - y_lo) / (y_hi - y_lo))

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black" stroke-width="1"/>',
    ]

    for xv in _nice_ticks(x_lo, x_hi):
        if xv < x_lo - 1e-12 or xv > x_hi + 1e-12:
            continue
        px = _fmt(sx(xv))
        parts.append(
            f'<line x1="{px}" y1="{MARGIN_T + plot_h}" x2="{px}" '
            f'y2="{MARGIN_T + plot_h + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px}" y="{MARGIN_T + plot_h + 20}" font-size="12" '
            f'text-anchor="middle">{_tick_label(xv)}</text>'
        )
    for yv in _nice_ticks(y_lo, y_hi):
        if yv < y_lo - 1e-12 or yv > y_hi + 1e-12:
            continue
        py = _fmt(sy(yv))
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{py}" x2="{MARGIN_L}" y2="{py}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{py}" font-size="12" text-anchor="end" '
            f'dominant-baseline="middle">{_tick_label(yv)}</text>'
        )

    # the finite samples of all curves, curve after curve, formatted in one pass
    text, offsets = _points(
        sx(t),
        np.concatenate([np.flatnonzero(f) for f in finite]),
        np.concatenate([sy(y[f]) for y, f in zip(ys, finite)]),
    )
    done = 0  # points of the curves before this one
    for idx, (label, _) in enumerate(curves):
        color = PALETTE[idx % len(PALETTE)]
        # each finite run starts and ends where isfinite flips
        edges = np.flatnonzero(np.diff(np.concatenate(([False], finite[idx], [False]))))
        for n in (edges[1::2] - edges[::2]).tolist():
            points = text[offsets[done]:offsets[done + n] - 1]
            if n == 1:
                cx, cy = points.split(",")
                parts.append(f'<circle cx="{cx}" cy="{cy}" r="1.5" fill="{color}"/>')
            else:
                parts.append(
                    f'<polyline points="{points}" fill="none" stroke="{color}" '
                    'stroke-width="1.5"/>'
                )
            done += n
        ly = MARGIN_T + 16 + 18 * idx
        lx = WIDTH - MARGIN_R + 12
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 20}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{lx + 26}" y="{ly}" font-size="12">{_escape(label)}</text>')

    if title:
        parts.append(
            f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="24" font-size="15" '
            f'text-anchor="middle">{_escape(title)}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 12}" font-size="13" '
        f'text-anchor="middle">{_escape(xlabel)}</text>'
    )
    if ylabel:
        parts.append(
            f'<text x="18" y="{MARGIN_T + plot_h / 2:.1f}" font-size="13" text-anchor="middle" '
            f'transform="rotate(-90 18 {MARGIN_T + plot_h / 2:.1f})">{_escape(ylabel)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
