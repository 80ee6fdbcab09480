"""Driving a spectral sequence from its starting page to collapse.

The page succession is

    E2 = E3  --d3-->  E4 = E5 = E6 = E7  --d7-->  E8 = Einfty;

the intermediate equalities hold because the d5 rule sets are empty and
no even-r differential can exist (it would flip the parity of stem +
filt, which is even on every cell).  Both facts are certified, not
assumed: the d5 table must be empty, the even-r case by a parity check
of every cell, and collapse at E8 by checking that every d_r with r >= 8
has zero source or zero target; the padding, by checking that no d3 or
d7 value of a trusted class leaves it.  Each page turn checks d_r∘d_r = 0:
homology_at sees every composable pair of maps, as d_in and d_out of
their middle bidegree, and rejects an image that exceeds the kernel.

Pages are tuples of immutable rows of interned columns (modules.Page), and
propagate places one LinearMap, in the same rows, at every cell that gives
it: the d_r target of cell i of row filt is cell i - 1 of row filt + r.  A
page turn computes a row once per distinct (row, d_out row, d_in row)
objects, reused wherever they meet again, and runs homology_at once per
distinct (column, d_in, d_out) in a memo its column table keeps across
computes (modules.column_table); each cell it computes is checked, by
identity, to have d_out start and d_in end at its column.  A row whose
three input rows repeat with Propagation.period copies its interior
(modules.Tiling).  The checks a reused row or a copied cell skips are pure
functions of the same objects, which passed them: the column memo's
argument, one level up.  An unchanged column is the same object on the
next page.  Rule coverage is checked by propagate, which factorizes every
residue class of the page it acts on (E2 for d3, E4 for d7) at least once.

Freeness of a tower comes from E2, which flags the free summands
(filtration 0 of the integral pages); page turns carry the flag from each
old summand to its survivor, and homology_at rejects any differential
that enters a free summand.  So the pipeline runs once, at truncation K.

Page.towers names, once, the towers of the trusted cells with a slot below N
(tower_shapes per column, towers_at per bidegree); check_collapse, serialization,
assembly and the charts read that one record and test no trust of their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .e2 import build_e2
from .groupexpr import Term, term_order_exp
from .modules import Column, Page, PipelineError, Tiling, homology_at
from .monomials import Monomial
from .rules import Propagation, propagate, rule_table
from .targets import Target, Window

ALIASES = {3: 2, 5: 4, 6: 4, 7: 4}


class CertificateError(PipelineError):
    """A structural page fact failed to verify."""


def turn_page(page: Page, prop: Propagation) -> Page:
    """Homology at every cell, generator names carried by pure lifts, once
    per distinct (column, d_in, d_out), in a memo of the page's table, and
    (row, d_out row, d_in row), in a memo for this call.  d_out of cell i
    of row filt is cell i of its map row; d_in is cell i + 1 of map row
    filt - r (a blank row below r)."""
    r, table, start = prop.r, page.table, page.window.stem_range.start
    blank = table.row([None] * len(page.window.stem_range))
    tiling, last = Tiling(len(blank), prop.period), len(blank) - 1
    memo = table.turns  # the new column, None if empty
    done, rows = {}, []  # done: each new row, by the identity of its three input rows
    for filt, (row, outs) in enumerate(zip(page.rows, prop.rows)):
        ins = prop.rows[filt - r] if filt >= r else blank
        key = (id(row), id(outs), id(ins))  # the rows are alive
        new_row = done.get(key)
        if new_row is None:
            cells = [None] * len(row)
            tiled = tiling.walk is not None and all(map(tiling.periodic, (row, outs, ins)))
            for i in tiling.walk if tiled else range(len(row)):
                col = row[i]
                if col is None:
                    continue
                d_out, d_in = outs[i], ins[i + 1] if i < last else None
                if d_out is not None and d_out.source is not col:
                    raise PipelineError(f"d_out source mismatch at ({start + i},{filt})")
                if d_in is not None and d_in.target is not col:
                    raise PipelineError(f"d_in target mismatch at ({start + i},{filt})")
                key_i = (col, d_in, d_out)
                try:
                    cells[i] = memo[key_i]
                except KeyError:
                    found, _lifts = homology_at(start + i, filt, col, d_in, d_out)
                    cells[i] = memo[key_i] = table[found] if found[0] else None
            if tiled:
                tiling.fill(cells, [])
            new_row = done[key] = table.row(cells)
        rows.append(new_row)
    return Page(page.target, r + 1, page.window, tuple(rows), table)


def check_even_r_vanishing(page: Page) -> None:
    """Sparseness: no even-r differential has nonzero source and target,
    since no cell has stem + filt odd (checked once per distinct row and
    filt mod 2) and an even d_r flips that parity."""
    start, seen = page.window.stem_range.start, set()
    for filt, row in enumerate(page.rows):
        if (id(row), filt % 2) in seen:  # the rows are alive
            continue
        seen.add((id(row), filt % 2))
        odd = (start + filt + 1) % 2  # the first cell with stem + filt odd
        if any(row[odd::2]):
            i = next(i for i in range(odd, len(row), 2) if row[i] is not None)
            raise CertificateError(f"cell ({start + i},{filt}) has stem + filt odd")


def check_collapse(page: Page) -> None:
    """E8 = Einfty: every d_r (r >= 8) has zero source or target.

    Reads Page.towers (the trusted cells with a slot below N) in bidegree
    order: the lowest filtration of a stem against the highest of stem - 1.
    """
    high: dict[int, int] = {}  # per stem, its highest filtration with towers
    for stem, filt in page.towers:
        if stem not in high and high.get(stem - 1, filt) - filt >= 8:
            raise CertificateError(f"possible d{high[stem - 1] - filt} from ({stem},{filt})")
        high[stem] = filt


def check_padding(prop: Propagation) -> None:
    """No d_r value of a trusted source leaves the padded window."""
    leak = min((key for key in prop.boundary if prop.window.trusted(*key)), default=None)
    if leak is not None:
        raise CertificateError(f"d{prop.r} of trusted ({leak[0]},{leak[1]}) leaves the padding")


@dataclass
class PageStack:
    target: Target
    window: Window
    pages: dict[int, Page]
    maps: dict[int, Propagation]
    certificates: list[str] = field(default_factory=list)

    def page(self, r: int) -> Page:
        if r >= 8:
            r = 8
        r = ALIASES.get(r, r)
        return self.pages[r]

    @property
    def einfty(self) -> Page:
        return self.pages[8]


def run_to_einfty(target: Target, window: Window) -> PageStack:
    """E2 through Einfty at truncation K with all structural certificates."""
    p2 = build_e2(target, window)
    prop3 = propagate(p2, rule_table(target, 3))
    check_padding(prop3)
    p4 = turn_page(p2, prop3)

    if rule_table(target, 5).values:
        raise CertificateError(f"d5 rule set of {target.value} is not empty")

    prop7 = propagate(p4, rule_table(target, 7))
    check_padding(prop7)
    p8 = turn_page(p4, prop7)

    check_even_r_vanishing(p2)
    check_even_r_vanishing(p4)
    check_collapse(p8)
    certificates = [
        "no cell of E2 or E4 has stem + filt odd",
        "d5 rule set empty",
        "padding: no d3 or d7 value of a trusted class leaves the padded window",
        "E8 collapse: every d_r (r>=8) has zero source or target",
        "monotone death of total module length",  # by homology_at, see its docstring
    ]
    return PageStack(target=target, window=window, pages={2: p2, 4: p4, 8: p8},
                     maps={3: prop3, 7: prop7}, certificates=certificates)


# ---------------------------------------------------------------------------
# Tower (power series) recognition on one module of a computed page.

_COEFF = {1: "F4", 2: "W/4"}   # group of a non-free tower by order exponent


Shape = tuple[int, int, str, int | None]  # scalar, u1-offset, coefficient, period


def tower_shapes(stem: int, filt: int, col: Column, period: int,
                 N: int) -> tuple[Shape, ...]:
    """Group the reported slots of col into truncated power series towers.

    A run of slots with u1-exponents beta, beta+p, ... is a series tower
    exactly when it reaches the reporting horizon N; shorter runs are
    isolated classes.  A free run is a W term, a run of order 2 a W/4
    term and a run of order 1 an F4 term; any other order is an error at
    (stem, filt), the only use of the bidegree.  Returns one Shape per
    tower (period None for an isolated class), by offset and scalar.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for b, scalar, order in zip(col.u1s, col.scalars, col.orders):
        if b >= N:
            break
        groups.setdefault((scalar, order), []).append(b)
    shapes = []
    for (scalar, order), bs in sorted(groups.items()):
        coeff = "W" if col.free else _COEFF.get(order)
        if coeff is None:
            raise PipelineError(f"tower of order 2^{order} at "
                                f"({stem},{filt}) is not F4, W/4 or W")
        start = 0
        for k, b in enumerate(bs, 1):
            if k < len(bs) and bs[k] == b + period:
                continue
            if b + period >= N:  # the run bs[start:k] reaches the horizon
                shapes.append((scalar, bs[start], coeff, period))
            else:
                shapes.extend((scalar, bb, coeff, None) for bb in bs[start:k])
            start = k
    shapes.sort(key=lambda t: (t[1], t[0]))
    return tuple(shapes)


def towers_at(stem: int, filt: int, shapes: tuple[Shape, ...]) -> list[Term]:
    """The towers at (stem, filt) as Terms, from tower_shapes of its column."""
    u = (filt - stem) // 2
    return [Term(scalar, Monomial(u, b, filt), coeff, per) for scalar, b, coeff, per in shapes]


# ---------------------------------------------------------------------------
# Serialization.

def page_to_json(page: Page) -> dict:
    """The towers of each trusted bidegree (Page.towers), labelled as Page.layout labels them."""
    layout, K = page.layout, page.K
    bidegrees = [{
        "stem": stem,
        "filt": filt,
        "towers": [{
            "gen": gen,
            "ann_exp": "free" if t.free else term_order_exp(t, K),
            "period": t.period,
            "offset": t.mono.u1,
        } for t, gen in zip(ts, layout.cells[(stem, filt)][1])],
    } for (stem, filt), ts in page.towers.items()]
    return {
        "target": page.target.value,
        "page": page.r,
        "window": {"stem_lo": page.window.stem_lo, "stem_hi": page.window.stem_hi,
                   "filt_max": page.window.filt_max,
                   "K": page.window.K, "N": page.window.N},
        "bidegrees": bidegrees,
    }


def stack_to_json(stack: PageStack) -> dict:
    return {
        "target": stack.target.value,
        "pages": {str(r): page_to_json(p) for r, p in sorted(stack.pages.items())},
        "aliases": {str(k): v for k, v in ALIASES.items()},
        "certificates": stack.certificates,
    }
