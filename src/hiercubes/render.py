"""SVG rendering of configurations.

d = 1: stacked interval rows, one row per scale (coarsest on top), occupied
blocks drawn as filled intervals in their scale's row.  d = 2: the window as
a canvas with occupied blocks as filled squares.  Colors come from a fixed
palette keyed on scale mod 8.
"""

from __future__ import annotations

from .blocks import Block, Geometry, format_block, least_indices
from .sampler import Configuration

PALETTE = ["#4e79a7", "#f28e2b", "#e15759", "#76b7b2",
           "#59a14f", "#edc948", "#b07aa1", "#9c755f"]

_VERSION_COMMENT = "<!-- hiercubes svg v1 -->"
WIDTH = 640.0   # drawing width in SVG units


def scale_color(j: int) -> str:
    return PALETTE[j % 8]


def render_svg(cfg: Configuration, geo: Geometry) -> str:
    """Deterministic SVG for a validated configuration, WIDTH units wide."""
    cfg.validate(geo)
    if geo.d == 1:
        return _render_1d(cfg, geo, WIDTH)
    if geo.d == 2:
        return _render_2d(cfg, geo, WIDTH)
    raise ValueError(f"SVG rendering supports d in {{1, 2}}, not d={geo.d}")


def _placements(cfg: Configuration, geo: Geometry) -> list[tuple[Block, list[float], float]]:
    """(b, corner per coordinate, side) of each block b, in units of the
    window's side, so the window's own scale cancels; the corner is an exact
    integer count of b's sides past the window's least index at b's scale
    before it is scaled."""
    top = cfg.window.scale
    firsts = least_indices(cfg.window, min((b.scale for b in cfg.blocks), default=top), geo)
    sides = [geo.side(b.scale - top) for b in cfg.blocks]
    return [(b, [(m - w) * side for m, w in zip(b.index, firsts[top - b.scale])], side)
            for b, side in zip(cfg.blocks, sides)]


def _render_1d(cfg: Configuration, geo: Geometry, width: float) -> str:
    row_h = 24.0
    scales = list(range(cfg.window.scale, -cfg.depth - 1, -1))
    height = row_h * len(scales) + 8
    rows = {j: i for i, j in enumerate(scales)}
    parts = [_VERSION_COMMENT,
             f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" '
             f'height="{height:g}" viewBox="0 0 {width:g} {height:g}">']
    for j, i in rows.items():
        y = 4 + i * row_h
        parts.append(f'<rect x="0" y="{y:g}" width="{width:g}" '
                     f'height="{row_h - 4:g}" fill="none" stroke="#ccc"/>')
        parts.append(f'<text x="2" y="{y + 14:g}" font-size="10" '
                     f'fill="#888">j={j}</text>')
    for b, corner, side in _placements(cfg, geo):
        x = corner[0] * width
        w = side * width
        y = 4 + rows[b.scale] * row_h
        parts.append(f'<rect x="{x:g}" y="{y:g}" width="{w:g}" '
                     f'height="{row_h - 4:g}" fill="{scale_color(b.scale)}" '
                     f'stroke="#333"><title>{format_block(b)}</title></rect>')
    parts.append("</svg>")
    return "\n".join(parts)


def _render_2d(cfg: Configuration, geo: Geometry, width: float) -> str:
    parts = [_VERSION_COMMENT,
             f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" '
             f'height="{width:g}" viewBox="0 0 {width:g} {width:g}">',
             f'<rect x="0" y="0" width="{width:g}" height="{width:g}" '
             f'fill="none" stroke="#999"/>']
    for b, corner, side in sorted(_placements(cfg, geo), key=lambda p: -p[0].scale):
        x = corner[0] * width
        # svg y grows downward; flip the second coordinate
        y = width - (corner[1] + side) * width
        w = side * width
        parts.append(f'<rect x="{x:g}" y="{y:g}" width="{w:g}" height="{w:g}" '
                     f'fill="{scale_color(b.scale)}" stroke="#333" '
                     f'fill-opacity="0.85"><title>{format_block(b)}</title></rect>')
    parts.append("</svg>")
    return "\n".join(parts)
