"""Golden chart tests and glyph bookkeeping."""

import pathlib
import re
import xml.etree.ElementTree as ET
from collections import Counter

import pytest

from hfpss import modules
from hfpss.charts import glyph_count, render_svg, render_text, tower_count
from hfpss.engine import compute
from hfpss.modules import Column, LinearMap
from hfpss.pages import run_to_einfty, stack_to_json
from hfpss.targets import Target, Window
from hfpss.verify import verify_target

from test_pages import prop_of

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _golden_case(name):
    if name == "c2_v0_e3":
        stack = run_to_einfty(Target.C2_V0, Window(0, 12, filt_max=12))
        return stack, stack.page(3), stack.maps[3], 3
    if name == "c6_e7":
        stack = run_to_einfty(Target.C6, Window(0, 48, filt_max=14))
        return stack, stack.page(7), stack.maps[7], 7
    stack = run_to_einfty(Target.C6_Y, Window(0, 48, filt_max=10))
    return stack, stack.page(8), None, 8


@pytest.mark.parametrize("name", ["c2_v0_e3", "c6_e7", "c6_y_einf"])
def test_golden_text_charts_byte_identical(name):
    stack, page, prop, idx = _golden_case(name)
    text = render_text(page, prop, page_index=idx)
    assert text == (GOLDEN / f"{name}.txt").read_text()


@pytest.mark.parametrize("name", ["c2_v0_e3", "c6_e7", "c6_y_einf"])
def test_golden_glyph_count_equals_module_count(name):
    stack, page, prop, idx = _golden_case(name)
    text = (GOLDEN / f"{name}.txt").read_text()
    grid = text.split("\n\narrows:")[0].split("\n", 1)[1]
    glyphs = sum(grid.count(c) for c in ".o#")
    assert glyphs == tower_count(page) == glyph_count(page)


def test_every_nonzero_differential_column_is_an_arrow():
    stack = run_to_einfty(Target.C2_V0, Window(0, 12, filt_max=12))
    prop = stack.maps[3]
    text = render_text(stack.page(3), prop, page_index=3)
    arrows = {line.strip() for line in text.splitlines() if line.startswith("  d")}
    window = stack.window
    expected = set()
    for (stem, filt), lm in prop.maps.items():
        if not (window.trusted(stem, filt) and window.trusted(stem - 1, filt + 3)):
            continue
        if any(s.mono.u1 < window.N and col for col, s
               in zip(lm.cols, stack.page(3).modules[(stem, filt)].summands)):
            expected.add((stem, filt))
    got = {tuple(map(int, a.split("(")[1].split(")")[0].split(",")))
           for a in arrows}
    assert got == expected


def test_empty_page_renders_axes_only():
    stack = run_to_einfty(Target.C6, Window(5, 5, filt_max=6))
    text = render_text(stack.page(8))
    grid = text.split("\n", 1)[1]
    assert not any(c in grid for c in ".o#")


def test_svg_well_formed():
    stack = run_to_einfty(Target.C6, Window(0, 24, filt_max=10))
    svg = render_svg(stack.page(8), None, labels=True, eta_lines=True)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert svg.startswith("<svg")


def test_svg_contains_dashed_arrows():
    stack = run_to_einfty(Target.C6, Window(0, 48, filt_max=14))
    svg = render_svg(stack.page(7), stack.maps[7])
    assert "stroke-dasharray" in svg


def test_determinism():
    stack = run_to_einfty(Target.C6_V0, Window(0, 16, filt_max=10))
    a = render_text(stack.page(8))
    b = render_text(run_to_einfty(Target.C6_V0, Window(0, 16, filt_max=10)).page(8))
    assert a == b


def test_chart_rejects_a_differential_of_another_page():
    """A differential is drawn only on the page it acts on (E3 = E2 for d3,
    E7 = E4 for d7): its maps must start and end at that page's modules."""
    stack = run_to_einfty(Target.C2_V0, Window(0, 12, filt_max=12))
    for r, d in ((2, 7), (4, 3), (8, 3), (8, 7)):
        for render in (render_text, render_svg):
            with pytest.raises(ValueError, match=f"d{d} at .* does not act on page E{r}"):
                render(stack.page(r), stack.maps[d])
    for r in (3, 7):
        assert "arrows:\n  d" in render_text(stack.page(r), stack.maps[r])


def test_chart_checks_both_ends_of_each_map():
    """A map whose source, or whose target, is an equal column that is not
    the page's own object at that bidegree is rejected."""
    stack = run_to_einfty(Target.C2_V0, Window(0, 12, filt_max=12))
    (stem, filt), lm = next(iter(stack.maps[3].maps.items()))

    def copy(col):
        return Column(col.u1s, col.scalars, col.orders, col.free)

    for source, target in ((copy(lm.source), lm.target), (lm.source, copy(lm.target))):
        prop = prop_of(3, stack.window, {(stem, filt): LinearMap(source, target, lm.cols)})
        with pytest.raises(ValueError, match=rf"d3 at \({stem},{filt}\) does not act"):
            render_text(stack.page(3), prop)


@pytest.mark.parametrize("target", list(Target))
def test_charts_with_arrows_build_no_view(target):
    # E3 and E7 with their differential, text and SVG with labels and eta
    # lines, walk the rows: no bidegree-keyed view of a page or a map
    stack = run_to_einfty(target, Window(0, 24, filt_max=12))
    for r in (3, 7):
        page, prop = stack.page(r), stack.maps[r]
        render_text(page, prop, page_index=r)
        render_svg(page, prop, labels=True, eta_lines=True)
        assert page.layout.arrows and not {"columns", "modules"} & set(vars(page))
        assert "maps" not in vars(prop)


def test_no_command_builds_a_bidegree_module(monkeypatch):
    """compute, verify, the JSON and every chart read columns from the rows:
    BidegreeModule is left to the tests and the oracle."""
    def refuse(*args, **kwargs):
        raise AssertionError("a BidegreeModule was built")

    monkeypatch.setattr(modules, "BidegreeModule", refuse)
    for target in Target:
        result = compute(target)
        assert verify_target(result).ok
        stack_to_json(result.stack)
        for r in (2, 3, 4, 7, 8):
            page, prop = result.stack.page(r), result.stack.maps.get(r)
            render_text(page, prop, page_index=r)
            render_svg(page, prop, labels=True, eta_lines=True)


def test_chart_rejects_a_differential_of_another_window():
    stack = run_to_einfty(Target.C2_V0, Window(0, 12, filt_max=12))
    other = run_to_einfty(Target.C2_V0, Window(0, 11, filt_max=12))
    with pytest.raises(ValueError, match="d3 of another window does not act on page E2"):
        render_text(stack.page(3), other.maps[3])


_SVG = "{http://www.w3.org/2000/svg}"


def _svg_arrows_and_glyphs(svg: str, window: Window, margin: int = 40, cell: int = 26):
    """The arrows of an SVG chart, as text-chart arrow lines, and its glyph count."""
    root = ET.fromstring(svg)
    height = int(root.get("height"))

    def bidegree(x, y):
        return ((int(x) - margin - cell // 2) // cell + window.stem_lo,
                (height - margin - cell // 2 - int(y)) // cell)

    arrows = []
    for group in root.iter(f"{_SVG}g"):
        if group.get("stroke") != "#c02020":
            continue
        for line in group.iter(f"{_SVG}line"):
            (n1, f1), (n2, f2) = (bidegree(line.get("x1"), line.get("y1")),
                                  bidegree(line.get("x2"), line.get("y2")))
            style = " dashed" if line.get("stroke-dasharray") else ""
            arrows.append(f"d{f2 - f1} ({n1},{f1}) -> ({n2},{f2}){style}")
    glyphs = (sum(c.get("r") in ("5", "2.5") for c in root.iter(f"{_SVG}circle"))
              + sum(r.get("width") == "8" for r in root.iter(f"{_SVG}rect")))
    return arrows, glyphs


def test_text_and_svg_charts_agree(computed_all):
    """Both formats draw the same arrows, solid and dashed, and one glyph
    per trusted tower, on pages 2, 3, 4, 7 and 8 of every default target."""
    drawn = Counter()
    for target, res in computed_all.items():
        stack = res.stack
        for r in (2, 3, 4, 7, 8):
            page = stack.page(r)
            prop = stack.maps.get(r) if r in (3, 7) else None
            text = render_text(page, prop, page_index=r)
            svg = render_svg(page, prop, labels=True, eta_lines=True)
            grid, _, arrow_list = text.partition("\n\narrows:\n")
            text_arrows = [line.strip() for line in arrow_list.splitlines()]
            svg_arrows, svg_glyphs = _svg_arrows_and_glyphs(svg, stack.window)
            assert text_arrows == svg_arrows, (target, r)
            text_glyphs = len(re.findall(r"[.o#]", grid.split("\n", 1)[1]))
            assert text_glyphs == svg_glyphs == tower_count(page), (target, r)
            drawn.update(a.endswith("dashed") for a in text_arrows)
    assert drawn[False] > 0 and drawn[True] > 0  # solid and dashed arrows compared
