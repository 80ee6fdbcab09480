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

Both renderers, and pages.page_to_json, serialise one Layout per page,
found on first read and kept as Page.layout (as Page.towers is kept).
It holds each tower's glyph and label, keyed as Page.towers (trusted
only), and max_filt.  The eta-line pairs are computed when an SVG
draws them.  The arrows of a differential are added the first time a
chart draws that differential on the page, after a check, row by row,
that every map of it starts and ends at the page's own column.
Inside that one computation, the arrow styles are found once per map,
as propagate builds one map per distinct (source, target, cols).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .groupexpr import Term
from .modules import Column, LinearMap, Page
from .rules import Propagation

GLYPHS = {"f4": ".", "f4_series": "o", "w": "#"}

Bidegree = tuple[int, int]
Arrow = tuple[Bidegree, Bidegree, bool]  # source, target, dashed


@dataclass
class Layout:
    """What the charts and the JSON of one page draw; see page_layout.

    cells holds, per key of Page.towers (the trusted bidegrees that have
    towers, in bidegree order), one GLYPHS character and one generator
    label per tower: (glyphs, labels).  max_filt is their top filtration.
    arrows (one entry per differential drawn on the page) is filled on
    first use.
    """

    cells: dict[Bidegree, tuple[str, tuple[str, ...]]]
    max_filt: int
    arrows: list[tuple[Propagation, list[Arrow]]] = field(default_factory=list)


def _glyph(t: Term) -> str:
    if t.free:
        return GLYPHS["w"]
    return GLYPHS["f4_series"] if t.period is not None else GLYPHS["f4"]


def page_layout(page: Page) -> Layout:
    """Glyphs and labels of the towers of the page, each tower labelled once."""
    towers = page.towers
    return Layout({key: ("".join(map(_glyph, ts)), tuple(t.label() for t in ts))
                   for key, ts in towers.items()}, max((f for _, f in towers), default=0))


def _slot_towers(col: Column, towers: list[Term], N: int) -> list[int | None]:
    """Per slot of col, the index of the tower covering it.

    None for a slot at or beyond the horizon N.  The towers of a column
    partition its slots below N, so every other slot has exactly one.
    """
    tower_of = {b: i for i, t in enumerate(towers) for b in t.offsets(N)}
    return [tower_of.get(b) for b in col.u1s]


def _styles(lm: LinearMap, src_towers: list[Term], tgt_towers: list[Term],
            N: int) -> tuple[bool, ...]:
    """The distinct dashed flags of the tower-to-tower maps of lm.

    A tower pair is solid when lm maps the source tower isomorphically
    onto the target tower: every slot of each is hit, with 2-exponent 0,
    between slots of equal order.  Reads only the two columns and lm.cols.
    """
    src_of = _slot_towers(lm.source, src_towers, N)
    tgt_of = _slot_towers(lm.target, tgt_towers, N)
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
    return tuple(sorted({
        not (len(hits) == src_of.count(si) == tgt_of.count(ti)
             and all(exp == 0 and e_src == e_tgt for (exp, e_src, e_tgt) in hits))
        for (si, ti), hits in pairs.items()}))


def _arrows(page: Page, prop: Propagation) -> list[Arrow]:
    """Sorted (source, target, dashed) per tower-to-tower differential
    between two bidegrees of Page.towers; computed once per (page, prop).

    Walks prop.rows against page.rows, as turn_page does, and raises
    ValueError unless prop has the page's window and every map starts and
    ends at the page's own column of its bidegree: prop acts on the page.
    """
    layout = page.layout
    for seen, arrows in layout.arrows:
        if seen is prop:
            return arrows
    window, towers, N, r, rows = page.window, page.towers, page.window.N, prop.r, page.rows
    if prop.window != window:
        raise ValueError(f"d{r} of another window does not act on page E{page.r}")
    start = window.stem_range.start
    styles: dict[LinearMap, tuple[bool, ...]] = {}  # per distinct map
    found = set()
    for filt, (row, maps) in enumerate(zip(rows, prop.rows)):
        tgts = (None,) + rows[filt + r] if filt + r < len(rows) else (None,) * len(row)
        for i, (col, lm, tgt) in enumerate(zip(row, maps, tgts)):  # tgt: cell i - 1
            if lm is None:
                continue
            key, tgt_key = (start + i, filt), (start + i - 1, filt + r)
            if col is not lm.source or tgt is not lm.target:
                raise ValueError(f"d{r} at ({start + i},{filt}) does not act on "
                                 f"page E{page.r} of {page.target.value}")
            if key not in towers or tgt_key not in towers:
                continue
            dashed = styles.get(lm)  # both ends have towers, which lm's columns fix
            if dashed is None:
                dashed = styles[lm] = _styles(lm, towers[key], towers[tgt_key], N)
            found.update((key, tgt_key, d) for d in dashed)
    arrows = sorted(found)
    layout.arrows.append((prop, arrows))
    return arrows


def _eta_lines(page: Page) -> list[tuple[Bidegree, Bidegree]]:
    """One (bidegree, bidegree + (1, 1)) pair per trusted tower whose
    generator times eta is a generator of the page.  eta = alpha u1 raises
    stem, filtration and u1-exponent by one, so the product is a generator
    iff the next cell's column has that exponent."""
    trusted, rows, start = page.window.trusted, page.rows, page.window.stem_range.start
    lines = []
    for (stem, filt), towers in page.towers.items():
        nxt = trusted(stem + 1, filt + 1) and rows[filt + 1][stem + 1 - start]
        if nxt:
            lines.extend(((stem, filt), (stem + 1, filt + 1))
                         for t in towers if t.mono.u1 + 1 in nxt.u1s)
    return lines


def render_text(page: Page, prop: Propagation | None = None,
                page_index: int | None = None) -> str:
    """Fixed-width glyph grid plus a sorted arrow list."""
    window, layout = page.window, page.layout
    stems = range(window.stem_lo, window.stem_hi + 1)
    width = max([len(glyphs) for glyphs, _ in layout.cells.values()], default=1) + 1
    rows: dict[int, list[str]] = {}
    ends: dict[int, int] = {}  # per row, the column after its last glyph
    for (stem, filt), (cell, _) in layout.cells.items():  # by stem within a row
        row = rows.setdefault(filt, [])
        col = (stem - window.stem_lo) * width
        row.append(" " * (col - ends.get(filt, 0)) + cell)
        ends[filt] = col + len(cell)
    lines = [f"target {page.target.value}  page E{page_index or page.r}  "
             f"stems {window.stem_lo}..{window.stem_hi}"]
    for filt in range(layout.max_filt, -1, -1):
        lines.append(f"{filt:3d} |" + "".join(rows.get(filt, ())))
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
               labels: bool = False, eta_lines: bool = False) -> str:
    """SVG 1.1 chart of one page."""
    window, layout = page.window, page.layout
    stems = list(range(window.stem_lo, window.stem_hi + 1))
    max_filt = layout.max_filt
    margin, cell = 40, 26
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
        out.append('<g stroke="#bbbbbb" stroke-width="1">')
        for src, tgt in _eta_lines(page):
            x1, y1 = xy(*src)
            x2, y2 = xy(*tgt)
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

    series, dot = GLYPHS["f4_series"], GLYPHS["f4"]
    for key, (glyphs, names) in layout.cells.items():
        x, y = xy(*key)
        n = len(glyphs)
        for k, (glyph, label) in enumerate(zip(glyphs, names)):
            cx = int(x + (k - (n - 1) / 2) * 8)
            if glyph == dot:
                out.append(f'<circle cx="{cx}" cy="{y}" r="2.5" fill="black"/>')
            elif glyph == series:
                out.append(f'<circle cx="{cx}" cy="{y}" r="5" fill="none" stroke="black"/>')
                out.append(f'<circle cx="{cx}" cy="{y}" r="1.8" fill="black"/>')
            else:
                out.append(f'<rect x="{cx - 4}" y="{y - 4}" width="8" height="8" '
                           f'fill="none" stroke="black"/>')
                scalar = page.towers[key][k].scalar
                if scalar:
                    out.append(f'<text x="{cx - 6}" y="{y - 6}" font-size="7" '
                               f'text-anchor="end">{1 << scalar}</text>')
            if labels:
                out.append(f'<text x="{cx + 6}" y="{y + 9}" font-size="7">'
                           f'{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def tower_count(page: Page) -> int:
    """Number of towers of the page, all in its trusted window."""
    return sum(map(len, page.towers.values()))


glyph_count = tower_count  # a chart draws one glyph per trusted tower
