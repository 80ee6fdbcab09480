"""Spectral sequence charts, in plain text and SVG.

Glyph conventions follow the published figures: a filled dot is a single
F4 class, a circled dot an F4 power series tower, a box a Witt power
series tower (scalar prefixes annotate the box).  Differentials are
drawn as arrows of span (stem - 1, filtration + r); an arrow is dashed
when the tower-to-tower map it depicts is not an isomorphism.  Slope-1
lines can be added to show eta-multiplication.

The text format uses one character per glyph ('.', 'o', '#'), a
fixed-width grid, and a sorted arrow list below the grid; it is intended
for byte-exact golden tests.

Both renderers draw the page's towers (Page.towers) at trusted
bidegrees, one glyph each, and the arrows between trusted bidegrees.
"""

from __future__ import annotations

from .groupexpr import Term
from .modules import BidegreeModule, Page
from .monomials import NAMED
from .rules import Propagation

GLYPHS = {"f4": ".", "f4_series": "o", "w": "#"}


def _glyph(t: Term) -> str:
    if t.free:
        return GLYPHS["w"]
    return GLYPHS["f4_series"] if t.period is not None else GLYPHS["f4"]


def _slot_towers(mod: BidegreeModule, towers: list[Term], N: int) -> list[int | None]:
    """Per slot of mod, the index of the tower covering it.

    None for a slot at or beyond the horizon N.  The towers of a module
    partition its slots below N, so every other slot has exactly one.
    """
    tower_of = {b: i for i, t in enumerate(towers) for b in t.offsets(N)}
    return [tower_of.get(b) for b in mod.u1s]


def _arrows(page: Page, prop: Propagation) -> list[tuple]:
    """(source bid, target bid, dashed) per tower-to-tower differential
    between two trusted bidegrees."""
    arrows = []
    window, towers = page.window, page.towers
    for (stem, filt), lm in sorted(prop.maps.items()):
        tgt_key = (lm.target.stem, lm.target.filt)
        if not (window.trusted(stem, filt) and window.trusted(*tgt_key)):
            continue
        src_of = _slot_towers(lm.source, towers.get((stem, filt), []), window.N)
        tgt_of = _slot_towers(lm.target, towers.get(tgt_key, []), window.N)
        pairs: dict[tuple[int, int], list] = {}
        for j, col in enumerate(lm.cols):
            si = src_of[j]
            if si is None:
                continue
            for i, exp in col:
                ti = tgt_of[i]
                if ti is not None:
                    pairs.setdefault((si, ti), []).append(
                        (exp, lm.source.orders[j], lm.target.orders[i]))
        for (si, ti), hits in pairs.items():
            iso = (len(hits) == src_of.count(si) == tgt_of.count(ti)
                   and all(exp == 0 and e_src == e_tgt for (exp, e_src, e_tgt) in hits))
            arrows.append(((stem, filt), tgt_key, not iso))
    return sorted(set(arrows))


def render_text(page: Page, prop: Propagation | None = None,
                page_index: int | None = None) -> str:
    """Fixed-width glyph grid plus a sorted arrow list."""
    window = page.window
    stems = range(window.stem_lo, window.stem_hi + 1)
    cells = {}
    max_filt = 0
    for (stem, filt), ts in page.towers.items():
        if window.trusted(stem, filt):
            cells[(stem, filt)] = "".join(_glyph(t) for t in ts)
            max_filt = max(max_filt, filt)
    width = max([len(v) for v in cells.values()], default=1) + 1
    lines = [f"target {page.target.value}  page E{page_index or page.r}  "
             f"stems {window.stem_lo}..{window.stem_hi}"]
    for filt in range(max_filt, -1, -1):
        row = "".join(cells.get((stem, filt), "").ljust(width) for stem in stems)
        lines.append(f"{filt:3d} |" + row.rstrip())
    lines.append("    +" + "-" * (width * len(stems)))
    labels = "".join(str(stem).ljust(width) for stem in stems)
    lines.append("     " + labels.rstrip())
    if prop is not None:
        lines.append("")
        lines.append("arrows:")
        for (src, tgt, dashed) in _arrows(page, prop):
            style = " dashed" if dashed else ""
            lines.append(f"  d{tgt[1] - src[1]} "
                         f"({src[0]},{src[1]}) -> ({tgt[0]},{tgt[1]}){style}")
    return "\n".join(lines) + "\n"


def _svg_header(width: int, height: int) -> list[str]:
    return [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">',
            '<rect width="100%" height="100%" fill="white"/>']


def render_svg(page: Page, prop: Propagation | None = None,
               labels: bool = False, eta_lines: bool = False,
               cell: int = 26) -> str:
    """SVG 1.1 chart of one page."""
    window = page.window
    stems = list(range(window.stem_lo, window.stem_hi + 1))
    max_filt = max([f for (n, f) in page.towers if window.trusted(n, f)], default=0)
    margin = 40
    width = margin * 2 + cell * len(stems)
    height = margin * 2 + cell * (max_filt + 1)

    def xy(stem: int, filt: int) -> tuple[int, int]:
        return (margin + cell * (stem - window.stem_lo) + cell // 2,
                height - margin - cell * filt - cell // 2)

    out = _svg_header(width, height)
    out.append('<g stroke="#cccccc" stroke-width="1">')
    for i in range(len(stems) + 1):
        x = margin + cell * i
        out.append(f'<line x1="{x}" y1="{margin}" x2="{x}" y2="{height - margin}"/>')
    for j in range(max_filt + 2):
        y = height - margin - cell * j
        out.append(f'<line x1="{margin}" y1="{y}" x2="{width - margin}" y2="{y}"/>')
    out.append("</g>")
    for i, stem in enumerate(stems):
        if stem % 2 == 0:
            x = margin + cell * i + cell // 2
            out.append(f'<text x="{x}" y="{height - margin + 14}" font-size="9" '
                       f'text-anchor="middle">{stem}</text>')
    for filt in range(0, max_filt + 1, 2):
        y = height - margin - cell * filt - cell // 2
        out.append(f'<text x="{margin - 6}" y="{y + 3}" font-size="9" '
                   f'text-anchor="end">{filt}</text>')

    if eta_lines:
        eta = NAMED["eta"]
        out.append('<g stroke="#bbbbbb" stroke-width="1">')
        for (stem, filt), ts in page.towers.items():
            if not (window.trusted(stem, filt) and window.trusted(stem + 1, filt + 1)):
                continue
            nxt = page.module(stem + 1, filt + 1)
            for t in ts:
                if nxt.slot_of(t.mono * eta) is not None:
                    x1, y1 = xy(stem, filt)
                    x2, y2 = xy(stem + 1, filt + 1)
                    out.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}"/>')
        out.append("</g>")

    if prop is not None:
        out.append('<g stroke="#c02020" stroke-width="1.5" fill="none">')
        for (src, tgt, dashed) in _arrows(page, prop):
            x1, y1 = xy(*src)
            x2, y2 = xy(*tgt)
            dash = ' stroke-dasharray="4 3"' if dashed else ""
            out.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}"{dash}/>')
        out.append("</g>")

    for (stem, filt), ts in page.towers.items():
        if not window.trusted(stem, filt):
            continue
        x, y = xy(stem, filt)
        n = len(ts)
        for k, t in enumerate(ts):
            dx = (k - (n - 1) / 2) * 8
            cx = int(x + dx)
            if t.free:
                out.append(f'<rect x="{cx - 4}" y="{y - 4}" width="8" height="8" '
                           f'fill="none" stroke="black"/>')
                if t.scalar:
                    out.append(f'<text x="{cx - 6}" y="{y - 6}" font-size="7" '
                               f'text-anchor="end">{1 << t.scalar}</text>')
            elif t.period is not None:
                out.append(f'<circle cx="{cx}" cy="{y}" r="5" fill="none" stroke="black"/>')
                out.append(f'<circle cx="{cx}" cy="{y}" r="1.8" fill="black"/>')
            else:
                out.append(f'<circle cx="{cx}" cy="{y}" r="2.5" fill="black"/>')
            if labels:
                out.append(f'<text x="{cx + 6}" y="{y + 9}" font-size="7">'
                           f'{t.label()}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_page(page: Page, prop: Propagation | None = None, fmt: str = "text",
                page_index: int | None = None, **kwargs) -> str:
    if fmt == "text":
        return render_text(page, prop, page_index=page_index)
    if fmt == "svg":
        return render_svg(page, prop, **kwargs)
    raise ValueError(f"unknown chart format {fmt!r}")


def tower_count(page: Page) -> int:
    """Number of towers in the trusted region of the page."""
    return sum(len(ts) for (n, f), ts in page.towers.items() if page.window.trusted(n, f))


glyph_count = tower_count  # a chart draws one glyph per trusted tower
