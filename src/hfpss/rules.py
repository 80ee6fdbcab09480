"""Differential rule sets and their propagation by linearity.

Each d_r is determined by finitely many values on a transversal of
monomials together with a linearity monoid.  Factor a basis monomial as
(monoid element) * (transversal element); the differential is the monoid
element times the stored value of the transversal element, reduced inside
the current page presentation (classes that died on earlier pages
contribute zero).  Transversal elements without a stored value have zero
differential.  The factorization sees only a residue of the monomial
(RuleSet.bidegree_key of its bidegree and RuleSet.residue_classes of its
u1-exponent), so propagate walks each distinct row of the page once,
factorizes once per residue class of each distinct input, moves the
whole class by one u1-shift, and builds one LinearMap per distinct map,
placed in the row layout of the page at every cell that gives it;
RuleSet.value_on is the slotwise reference.  Coverage is checked there
too: a monomial the scheme cannot factor raises RuleCoverageError from
the propagate call that meets it; every residue of the page meets factorize.

Rule data for the C2 tower:

    d3(u^-2) = alpha^3 u1            linear over alpha, u1, u^{+-4}
    d7(u^-4) = alpha^7               linear over alpha, u1, u^{+-8}

and for the mod-2 C2 tower additionally

    d3(u^-3) = alpha^3 u^-1 u1
    d7(u^-5) = alpha^7 u^-1.

The C6-family differentials are the restrictions of these to weight-0
classes.  The smash-with-Y d7 is linear over alpha^3, u^{+-24} and
v1 = u^-1 u1, with values on twelve transversal monomials; see
Y_D7_VALUES below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import lcm
from typing import Mapping

from .e2 import E2_STRIDE
from .modules import Column, HfpssError, LinearMap, Page, PipelineError, Tiling, rows_view
from .monomials import Monomial, parse_monomial
from .targets import Target, Window


class RuleCoverageError(HfpssError):
    """A window monomial is not covered by the factorization scheme."""


@dataclass(frozen=True)
class RuleSet:
    page: int
    u_modulus: int
    transversal: tuple[Monomial, ...]
    values: Mapping[Monomial, Monomial]
    y_mode: bool = False

    def __post_init__(self):
        for g, v in self.values.items():
            if g not in self.transversal:
                raise ValueError(f"value on non-transversal monomial {g}")
            if v.stem != g.stem - 1 or v.filt != g.filt + self.page:
                raise ValueError(
                    f"d{self.page}({g}) = {v} violates (stem-1, filt+{self.page})")

    def factorize(self, m: Monomial) -> tuple[Monomial, Monomial]:
        """Split m = l * g with l in the linearity monoid, g transversal:
        g = u^r alpha^c' with r = u + s mod u_modulus in (-u_modulus, 0], where
        on Y s = u1's exponent (v1 = u^-1 u1) and c' = alpha's mod 3, else 0."""
        if self.y_mode and m.u1 > 0 and m.al != 0:
            raise RuleCoverageError(f"{m} has both alpha and u1 factors")
        s, c = (m.u1, m.al % 3) if self.y_mode else (0, 0)
        r = -((-(m.u + s)) % self.u_modulus)
        g = Monomial(r, 0, c)
        l = Monomial(m.u - r, m.u1, m.al - c)
        if g not in self.transversal:
            raise RuleCoverageError(f"residual monomial {g} of {m} not in transversal")
        return l, g

    def value_on(self, m: Monomial) -> Monomial | None:
        """The differential of a basis monomial, or None when zero."""
        l, g = self.factorize(m)
        v = self.values.get(g)
        return None if v is None else l * v

    def bidegree_key(self, stem: int, filt: int) -> tuple:
        """What factorize reads of a monomial's bidegree.

        Off Y that is u mod u_modulus.  On Y it is u mod u_modulus, alpha's
        exponent filt mod 3 and whether filt is 0; per slot it also reads
        whether u1 > 0 and (u + u1) mod u_modulus (see residue_classes).
        The u1-exponent otherwise only passes into the linearity factor.
        """
        u = (filt - stem) // 2 % self.u_modulus
        return (u, filt % 3, filt == 0) if self.y_mode else (u,)

    def residue_classes(self, u1s: tuple[int, ...]) -> list:
        """Slot indices of one bidegree, grouped by what factorize reads.

        Off Y factorize reads nothing of a slot beyond its bidegree, so all
        slots form one class; on Y the classes are the slots with equal
        u1 > 0 and u1 mod u_modulus (u is fixed by the bidegree).  So the
        slots of one class factor with one transversal element, and d_r
        shifts all of them by one u1 amount.
        """
        if not self.y_mode:
            return [range(len(u1s))]
        classes: dict[tuple[bool, int], list[int]] = {}
        for j, b in enumerate(u1s):
            classes.setdefault((b > 0, b % self.u_modulus), []).append(j)
        return list(classes.values())


def _u(r: int) -> Monomial:
    return Monomial(r, 0, 0)


def _m(s: str) -> Monomial:
    return parse_monomial(s)


# d3 and d7 values of the C2-family tables (C6 and C6-v0 use the same);
# the mod-2 tables add one value on each page.  d5 is zero everywhere.
C2_VALUES = {3: {_u(-2): _m("u1a^{3}")}, 5: {}, 7: {_u(-4): _m("a^{7}")}}
C2_V0_VALUES = {3: {**C2_VALUES[3], _u(-3): _m("u^{-1}u1a^{3}")}, 5: {},
                7: {**C2_VALUES[7], _u(-5): _m("u^{-1}a^{7}")}}

# The smash-with-Y transversal: the weight-0 monomials u^-r alpha^c with
# r < 24 and c < 3.
Y_TRANSVERSAL = tuple(g for g in (Monomial(-r, 0, c) for c in range(3) for r in range(24))
                      if g.weight == 0)

# d7 values on the smash-with-Y page.  The first nine are the published
# generating set; the last three are forced by the same boundary argument
# pattern (they are the unique grading- and weight-consistent values making
# the eta-cofiber long exact sequence and the homotopy group tables hold,
# and they vanish on classes that already died on the mod-2 page, so they
# are invisible to naturality).
Y_D7_PUBLISHED_VALUES: dict[Monomial, Monomial] = {
    _m("u^{-4}a^{2}"): _m("a^{9}"),
    _m("u^{-12}"): _m("u^{-8}a^{7}"),
    _m("u^{-20}a"): _m("u^{-16}a^{8}"),
    _m("u^{-5}a"): _m("u^{-1}a^{8}"),
    _m("u^{-13}a^{2}"): _m("u^{-9}a^{9}"),
    _m("u^{-21}"): _m("u^{-17}a^{7}"),
    _m("u^{-6}"): _m("u^{-2}a^{7}"),
    _m("u^{-14}a"): _m("u^{-10}a^{8}"),
    _m("u^{-22}a^{2}"): _m("u^{-18}a^{9}"),
}

Y_D7_EXTENDED_VALUES: dict[Monomial, Monomial] = {
    _m("u^{-7}a^{2}"): _m("u^{-3}a^{9}"),
    _m("u^{-15}"): _m("u^{-11}a^{7}"),
    _m("u^{-23}a"): _m("u^{-19}a^{8}"),
}

Y_D7_VALUES = {**Y_D7_PUBLISHED_VALUES, **Y_D7_EXTENDED_VALUES}


def rule_table(target: Target, page: int) -> RuleSet:
    """The declarative differential table for one page of one target, a
    new RuleSet with its own copy of the values."""
    if page not in (3, 5, 7):
        raise ValueError(f"no rule set for d{page}")
    if target.y_page:
        return RuleSet(page, 24, Y_TRANSVERSAL, dict(Y_D7_VALUES) if page == 7 else {},
                       y_mode=True)
    modulus = 8 if page == 7 else 4
    transversal = tuple(_u(-r) for r in range(0, modulus, 1 if target.mod2 else 2))
    return RuleSet(page, modulus, transversal,
                   dict((C2_V0_VALUES if target.mod2 else C2_VALUES)[page]))


@dataclass
class Propagation:
    """The maps of one d_r on a page, in its rows (cell i of row filt maps to
    cell i - 1 of row filt + r), and the sources with a boundary effect."""

    r: int
    window: Window
    rows: tuple[tuple[LinearMap | None, ...], ...]
    period: int  # the stem period p the rows were tiled with; turn_page tiles by it too
    boundary: set[tuple[int, int]] = field(default_factory=set)

    @cached_property
    def maps(self) -> Mapping[tuple[int, int], LinearMap]:
        return rows_view(self.rows, self.window)


def propagate(page: Page, rules: RuleSet) -> Propagation:
    """Evaluate d_r on every basis class of the page.

    The map at a cell depends only on its RuleSet.bidegree_key (period P =
    2 * u_modulus in the stem, and in filt together with filt == 0), its
    column, the column of cell i - 1 of row filt + r, or its absence, and
    whether that cell is in the padded window.  So it is computed once per
    distinct such input, in a memo that the page's table keeps across
    computes per RuleSet content (page, u_modulus, transversal, values,
    y_mode), keyed by column objects, and one LinearMap, validated once,
    serves every cell with the same (source, target, cols); an invalid
    one is stored nowhere and names the first of them in row
    order.  So is a map row, once per distinct (filt mod P, filt == 0, row,
    target row), rows by identity; a reused row moves its boundary cells to
    its filtration.  A map row whose row and target row repeat with p =
    lcm(E2_STRIDE, P) copies its interior (modules.Tiling): a copied cell
    has the memo key, so the map, boundary flag and error, of the cell p to
    its left.  Each computation factorizes once per residue class of the
    slots (RuleSet.residue_classes); within a class d_r is one u1-shift.
    Values are reduced in the current page presentation: a target slot that
    is no longer present contributes zero, a scalar-prefixed target absorbs
    the matching 2-power, and an entry whose 2-exponent reaches the
    target's order is zero and is dropped.  Values landing outside the
    padded window flag the source bidegree as a boundary effect.
    """
    r, rows, window = rules.page, page.rows, page.window
    start, period = window.stem_range.start, 2 * rules.u_modulus
    tiling = Tiling(len(window.stem_range), lcm(E2_STRIDE, period))
    memo, made = page.table.rules.setdefault(  # per distinct input; (source, target, cols)
        (r, rules.u_modulus, rules.transversal, tuple(sorted(rules.values.items())),
         rules.y_mode), ({}, {}))
    done, out_rows, boundary = {}, [], set()  # done: (row, boundary cells) per row input
    for filt, row in enumerate(rows):
        tgt_row = rows[filt + r] if filt + r < len(rows) else None
        key = (filt % period, filt == 0, id(row), id(tgt_row))  # the rows are alive
        found_row = done.get(key)
        if found_row is None:
            cells, edge = [None] * len(row), []
            keys = [None] * period  # bidegree_key by stem residue, found on first use
            tiled = tiling.walk is not None and tiling.periodic(row) and tiling.periodic(tgt_row)
            for i in tiling.walk if tiled else range(len(row)):
                col = row[i]
                if col is None:
                    continue
                padded = tgt_row is not None and i > 0
                tgt = tgt_row[i - 1] if padded else None
                bk = keys[i % period]
                if bk is None:
                    bk = keys[i % period] = rules.bidegree_key(start + i, filt)
                key_i = (bk, col, tgt, padded)
                found = memo.get(key_i)
                if found is None:
                    cols, edged = _values_at(start + i, filt, col, tgt, padded, rules)
                    lm = None if cols is None else made.get((col, tgt, cols))
                    if cols is not None and lm is None:
                        try:
                            lm = made[col, tgt, cols] = LinearMap(col, tgt, cols)
                        except PipelineError as exc:
                            raise PipelineError(f"d{r} at ({start + i},{filt}): {exc}") from None
                    found = memo[key_i] = (lm, edged)
                cells[i], edged = found
                if edged:
                    edge.append(i)
            edge += tiling.fill(cells, edge) if tiled else []
            found_row = done[key] = (page.table.row(cells), edge)
        out_rows.append(found_row[0])
        for i in found_row[1]:
            boundary.add((start + i, filt))
    return Propagation(r, window, tuple(out_rows), tiling.p, boundary)


def _values_at(stem: int, filt: int, col: Column, tgt: Column | None, padded: bool,
               rules: RuleSet) -> tuple[tuple | None, bool]:
    """(columns of d_r from col at (stem, filt), or None if it is zero;
    whether a value left the padded window), with tgt the target's column."""
    r = rules.page
    tgt_bid, u = (stem - 1, filt + r), (filt - stem) // 2
    cols, boundary = [()] * len(col.u1s), False
    rows = {} if tgt is None else {b: i for i, b in enumerate(tgt.u1s)}
    for cls in rules.residue_classes(col.u1s):
        b0 = col.u1s[cls[0]]
        g = Monomial(u, b0, filt)
        w = rules.value_on(g)
        if w is None:
            continue
        if w.bidegree != tgt_bid:
            raise PipelineError(f"d{r}({g}) = {w} lands at "
                                f"{w.bidegree}, not {tgt_bid}")
        if not padded:
            boundary = True
            continue
        shift = w.u1 - b0
        for j in cls:
            # a missing row died on an earlier page (or lies beyond
            # the internal u1 truncation); its class is zero
            i = rows.get(col.u1s[j] + shift)
            if i is None:
                continue
            exp = col.scalars[j] - tgt.scalars[i]
            if exp < 0:
                gen = Monomial(w.u, tgt.u1s[i], w.al)  # the target slot's generator
                raise PipelineError(f"value 2^{col.scalars[j]}*{gen} more divisible than "
                                    f"presentation generator 2^{tgt.scalars[i]}*{gen}")
            if exp < tgt.orders[i]:
                cols[j] = ((i, exp),)
    return (tuple(cols) if any(cols) else None), boundary
