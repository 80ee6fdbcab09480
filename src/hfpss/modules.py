"""Column rows of modules over the truncated Witt ring, and homology.

A bidegree (stem, filt) fixes a = (filt - stem)/2 and c = filt, so a
module is a u1-column: sorted u1-exponents b and, parallel to them,
scalars j and orders e (slot b is W/2^e generated by 2^j u^a u1^b
alpha^c), with one flag for free summands (order K - j), which only fill
a whole filtration-0 bidegree of an integral page.  A stack holds a
handful of distinct columns, interned in the ColumnTable of its (target,
K, n_u1): one object per content, hashed by identity, and a Page holds
them in rows: one per filtration, one cell per padded stem, None if
empty.  Rows are tuples, shared by identity between filtrations and
pages (a table has one blank row per width), and memoised by it.  Every
differential sends a generator to a 2-power times one generator and hits
each generator at most once, so a LinearMap between two columns stores
(row, 2-exponent) pairs, and homology is slotwise valuation arithmetic.
The bidegree-keyed views Page.modules and Propagation.maps, and the
BidegreeModule records of the first, exist for the counters of
bench/tracer.py (the tests read them too): no command builds one.
groupexpr expands terms into Summand records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import TYPE_CHECKING

from .monomials import Monomial
from .targets import Target, Window

if TYPE_CHECKING:
    from .charts import Layout
    from .groupexpr import Term


class HfpssError(Exception):
    """Base of the package's errors; the CLI exits with exit_code."""

    exit_code = 1


class PipelineError(HfpssError):
    """Structural inconsistency while running the spectral sequence."""


@dataclass(frozen=True)
class Summand:
    """One cyclic summand 2^scalar * mono of order 2^order (K - scalar if free)."""

    scalar: int
    mono: Monomial
    order: int
    free: bool = False


@dataclass(frozen=True, slots=True, eq=False)
class Column:
    """The u1-column of a module, without its bidegree; u1s strictly increasing.

    Compared and hashed by identity: a ColumnTable holds one Column per
    distinct content, so a memo keyed by columns never reads them.
    """

    u1s: tuple[int, ...]
    scalars: tuple[int, ...]
    orders: tuple[int, ...]
    free: bool = False


class ColumnTable:
    """The columns of one (target, K, n_u1): table[u1s, scalars, orders,
    free] is the one Column of that content, made on first use, and no
    caller stores one.  Kept across computes (column_table) with the cell
    memos: `e2` by _u1_residue, `rules` propagate's per RuleSet content,
    `turns` turn_page's, and `shapes` by the (period, N) they read.  Each
    key names all its value reads and a failing cell stores nothing."""

    def __init__(self):
        self._columns: dict[tuple, Column] = {}
        self.e2: dict[tuple, Column | None] = {}
        self.rules: dict[tuple, tuple[dict, dict]] = {}
        self.turns: dict[tuple, Column | None] = {}
        self.shapes: dict[tuple[int, int], dict[Column, tuple]] = {}
        self.blanks: dict[int, tuple[None, ...]] = {}

    def __getitem__(self, key: tuple) -> Column:
        col = self._columns.get(key)
        if col is None:
            col = self._columns[key] = Column(*key)
        return col

    def __len__(self) -> int:
        return len(self._columns)

    def row(self, cells: list) -> tuple:
        """The cells as a row: a tuple, or the table's blank row if all are None."""
        return tuple(cells) if any(cells) else self.blanks.setdefault(len(cells), tuple(cells))


@lru_cache(maxsize=16)
def column_table(target: Target, K: int, n_u1: int) -> ColumnTable:
    """The ColumnTable of (target, K, n_u1), one per process for the 16 used last."""
    return ColumnTable()


@dataclass(frozen=True, slots=True)
class BidegreeModule:
    """The u1-column of one bidegree, placed there; u1s must be strictly increasing.

    A read-only view, read as Summand records:

    >>> mod = BidegreeModule(4, 0, (0, 1), (1, 0), (2, 1))
    >>> [(s.scalar, str(s.mono)) for s in mod.summands]
    [(1, 'u^{-2}'), (0, 'u^{-2}u1')]
    """

    stem: int
    filt: int
    u1s: tuple[int, ...]
    scalars: tuple[int, ...]
    orders: tuple[int, ...]
    free: bool = False

    def mono(self, b: int) -> Monomial:
        """The monomial of this bidegree with u1-exponent b."""
        return Monomial((self.filt - self.stem) // 2, b, self.filt)

    @property
    def summands(self) -> tuple[Summand, ...]:
        """Read-only view of the slots as Summand records, in u1 order."""
        return tuple(Summand(j, self.mono(b), e, self.free)
                     for b, j, e in zip(self.u1s, self.scalars, self.orders))


@dataclass(frozen=True, slots=True, eq=False)
class LinearMap:
    """A monomial-sparse map between two columns.

    cols[j] is () or ((row, exp),): the j-th source generator goes to
    2^exp times the row-th target generator.  Every differential acts this
    way, so a map with two entries in one column or on one row, or one
    that does not respect the summand orders, is rejected when built.
    propagate builds one map per distinct (source, target, cols) of its
    table, placed at every bidegree that gives it, so each is validated
    once.  Maps are read-only, compared and hashed by identity, so they
    key the memo of a page turn.
    """

    source: Column
    target: Column
    cols: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self):
        if type(self.cols) is not tuple:
            object.__setattr__(self, "cols", tuple(map(tuple, self.cols)))
        src, tgt, rows = self.source.orders, self.target.orders, set()
        for j, col in enumerate(self.cols):
            for i, exp in col:
                if len(col) > 1 or i in rows:
                    raise PipelineError(f"map not monomial-sparse at {self._arrow(j, i)}")
                if src[j] + exp < tgt[i]:
                    raise PipelineError(
                        f"map not well defined on presentations: {self._arrow(j, i)}")
                rows.add(i)

    def _arrow(self, j: int, i: int) -> str:
        return f"slot u1^{self.source.u1s[j]} -> slot u1^{self.target.u1s[i]}"


def homology_at(stem: int, filt: int, col: Column, d_in: LinearMap | None,
                d_out: LinearMap | None) -> tuple:
    """ker(d_out)/im(d_in) on the column col of (stem, filt), generators named.

    The maps are monomial-sparse, so each slot sits in its own little
    complex W/2^{e_src} -> W/2^{e} -> W/2^{e_tgt} of cyclic modules, where
    homology is plain valuation arithmetic: the kernel is generated by 2^a
    with a = clamp(e_tgt - v_out, 0, e), the image by 2^t with
    t = max(v_in, e - e_src), and the subquotient is cyclic of order
    2^(t - a) <= 2^e on the pure lift 2^a * generator: no slot grows (a
    test enumerates small cases to prove it).  Returns the new column's
    (u1s, scalars, orders, free), a ColumnTable key, free iff col is; a
    slot's lift a is its new scalar minus its old one.  (stem, filt) only
    names errors: PipelineError if d_in enters a free summand or if im is
    not in ker.  The caller checks that the maps start and end at col.

    >>> src, tgt = Column((0,), (0,), (3,)), Column((1,), (0,), (3,))
    >>> homology_at(0, 0, src, None, LinearMap(src, tgt, (((0, 1),),)))
    ((0,), (2,), (1,), False)
    """
    orders = col.orders
    kers = [0] * len(orders)   # kernel generated by 2^a
    ims = list(orders)         # image generated by 2^t
    for j, c in enumerate(d_out.cols if d_out is not None else ()):
        for i, exp in c:
            kers[j] = min(max(d_out.target.orders[i] - exp, 0), orders[j])
    for j, c in enumerate(d_in.cols if d_in is not None else ()):
        for i, exp in c:
            if col.free:
                raise PipelineError(f"d_in enters free summand at ({stem},{filt}) "
                                    f"slot u1^{col.u1s[i]}")
            ims[i] = min(max(exp, orders[i] - d_in.source.orders[j]), orders[i])
    for idx, (a, t) in enumerate(zip(kers, ims)):
        if t < a:
            raise PipelineError(f"image exceeds kernel at ({stem},{filt}) "
                                f"slot u1^{col.u1s[idx]}: d∘d != 0")
    kept = [(b, j + a, t - a) for b, j, a, t in zip(col.u1s, col.scalars, kers, ims) if t > a]
    return (*map(tuple, zip(*kept)), col.free) if kept else ((), (), (), col.free)


def rows_view(rows: tuple[tuple, ...], window: Window) -> MappingProxyType:
    """The cells of rows that are not None, read-only and in bidegree order."""
    stem = window.stem_range.start
    return MappingProxyType({(stem + i, filt): x for i, cells in enumerate(zip(*rows))
                             for filt, x in enumerate(cells) if x is not None})


TILE_EDGE = 3  # cells a tiled walk computes at each end of a row


class Tiling:
    """The plan of one d_r's two walks, for rows of `width` cells, stem period p.

    A row whose input rows are all `periodic` (equal, by cell identity, to
    themselves shifted by p, one cell past the interior each way; checked
    once per row, which `seen` keeps) computes only `walk`, TILE_EDGE cells
    at each end and one period; `fill` copies the interior from the cells p
    to its left, which have the same memo keys, so the same objects, and
    fail first.  Below 2p of interior `walk` is None: every row is walked in full."""

    def __init__(self, width: int, p: int):
        self.p, self.lo, self.hi, self.seen = p, TILE_EDGE + p, width - TILE_EDGE, {}
        self.walk = [*range(self.lo), *range(self.hi, width)] if self.hi - self.lo >= p else None
        self.span = slice(TILE_EDGE - 1, self.hi + 1 - p), slice(self.lo - 1, self.hi + 1)

    def periodic(self, row: tuple | None) -> bool:
        if id(row) not in self.seen:  # kept, so no other row gets its id while the plan lives
            self.seen[id(row)] = row, row is None or row[self.span[0]] == row[self.span[1]]
        return self.seen[id(row)][1]

    def fill(self, cells: list, marked: list[int]) -> list[int]:
        """Copy the interior into cells; return the copies of the marked cells."""
        lo, hi, p = self.lo, self.hi, self.p
        cells[lo:hi] = (cells[lo - p:lo] * (hi // p))[:hi - lo]
        return [j for i in marked if lo - p <= i < lo for j in range(i + p, hi, p)]


@dataclass
class Page:
    """One page of one spectral sequence on a padded window.

    `rows` holds a tuple per filtration of the padded window, each cell
    the Column of its stem in `table`, the table of its (target, K, n_u1)
    that every page of its stack shares, or None; pages share rows by identity.  Complete when
    build_e2 or turn_page returns it, so `towers`, the chart `layout` and
    the views are built on first read and kept.  Trust and truncation are the
    window's (pages.check_padding certifies the padding), K is window.K,
    and `towers`, with all that reads it, holds the trusted cells only.
    """

    target: Target
    r: int
    window: Window
    rows: tuple[tuple[Column | None, ...], ...]
    table: ColumnTable = field(default_factory=ColumnTable)

    @property
    def K(self) -> int:
        return self.window.K

    @cached_property
    def modules(self) -> MappingProxyType:
        return MappingProxyType({(n, f): BidegreeModule(n, f, c.u1s, c.scalars, c.orders, c.free)
                                 for (n, f), c in rows_view(self.rows, self.window).items()})

    def is_trusted(self, stem: int, filt: int) -> bool:
        return self.window.trusted(stem, filt)

    @cached_property
    def towers(self) -> dict[tuple[int, int], list[Term]]:
        """The towers of each trusted bidegree with any, in bidegree order: the one place
        that decides what the edges report.  A cell has towers iff its column has a slot
        below N; each distinct trusted row lists such stems once, and each stem its filts
        in order.  Shapes are found once per column of the table (ColumnTable), across
        computes, in bidegree order, so an error names the first bidegree that fails.
        One record shared by every reader; do not mutate it."""
        from .pages import tower_shapes, towers_at  # pages imports this module
        w, period, N, rows = self.window, self.target.period, self.window.N, self.rows
        shapes = self.table.shapes.setdefault((period, N), {})
        start, hits, towers = w.stem_range.start, {}, {}
        filts = {stem: [] for stem in range(w.stem_lo, w.stem_hi + 1)}  # the trusted stems
        for filt, row in enumerate(rows[:w.filt_max + 1]):
            if id(row) not in hits:  # the rows are alive
                hits[id(row)] = [n for n in filts if row[n - start] and row[n - start].u1s[0] < N]
            for stem in hits[id(row)]:
                filts[stem].append(filt)
        for stem, stem_filts in filts.items():
            for filt in stem_filts:
                col = rows[filt][stem - start]
                found = shapes.get(col)
                if found is None:
                    found = shapes[col] = tower_shapes(stem, filt, col, period, N)
                towers[(stem, filt)] = towers_at(stem, filt, found)
        return towers

    @cached_property
    def layout(self) -> Layout:
        """What the charts and the JSON of this page draw, found once
        (charts.page_layout); kept like towers, and read the same way."""
        from .charts import page_layout  # charts imports this module
        return page_layout(self)
