"""Bidegree modules over the truncated Witt ring and homology of maps.

A bidegree (stem, filt) fixes a = (filt - stem)/2 and c = filt, so its
cyclic summands differ only in their u1-exponent, one per exponent at
most.  A BidegreeModule is its u1-column: the sorted u1-exponents b and,
parallel to them, scalars j and orders e (slot b is W/2^e generated by
2^j u^a u1^b alpha^c), with one flag for free summands (order K - j),
which only ever fill a whole filtration-0 bidegree of an integral page.
Every differential sends a generator to a 2-power times one generator
and hits each generator at most once, so a LinearMap stores (row,
2-exponent) integer pairs, and homology ker(d_out)/im(d_in) is slotwise
valuation arithmetic; a surviving slot keeps its u1-exponent and is
renamed by its minimal pure lift.  Summand and Monomial records appear
only at the edges: BidegreeModule.from_summands and the `summands` view
(labels, JSON, tests), and the Smith normal form oracle in snf.py.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from .monomials import Monomial
from .targets import Target, Window

if TYPE_CHECKING:
    from .charts import Layout
    from .groupexpr import Term


class PipelineError(Exception):
    """Structural inconsistency while running the spectral sequence."""


@dataclass(frozen=True)
class Summand:
    """One cyclic summand 2^scalar * mono of order 2^order (K - scalar if free)."""

    scalar: int
    mono: Monomial
    order: int
    free: bool = False

    def label(self) -> str:
        prefix = "" if self.scalar == 0 else str(1 << self.scalar)
        return prefix + str(self.mono)


@dataclass(frozen=True, slots=True)
class BidegreeModule:
    """The u1-column of one bidegree; u1s must be strictly increasing.

    Built from its columns, or from Summand records at the edges:

    >>> mod = BidegreeModule.from_summands(4, 0, (Summand(0, Monomial(-2, 1, 0), 1),
    ...                                           Summand(1, Monomial(-2, 0, 0), 2)))
    >>> mod.u1s, mod.scalars, mod.orders, mod.free
    ((0, 1), (1, 0), (2, 1), False)
    >>> mod == BidegreeModule(4, 0, (0, 1), (1, 0), (2, 1))
    True
    >>> [s.label() for s in mod.summands]
    ['2u^{-2}', 'u^{-2}u1']
    >>> mod.slot_of(Monomial(-2, 1, 0)), mod.slot_of(Monomial(-2, 2, 0))
    (1, None)
    """

    stem: int
    filt: int
    u1s: tuple[int, ...]
    scalars: tuple[int, ...]
    orders: tuple[int, ...]
    free: bool = False

    @classmethod
    def from_summands(cls, stem: int, filt: int, summands) -> BidegreeModule:
        """The module of these summands, which must form a u1-column at (stem, filt)."""
        ss = tuple(sorted(summands, key=lambda s: s.mono.u1))
        mod = cls(stem, filt, tuple(s.mono.u1 for s in ss), tuple(s.scalar for s in ss),
                  tuple(s.order for s in ss), any(s.free for s in ss))
        if len(set(mod.u1s)) < len(ss) or mod.summands != ss:
            raise PipelineError(f"summands do not form a u1-column at ({stem},{filt})")
        return mod

    def __len__(self) -> int:
        return len(self.u1s)

    def mono(self, b: int) -> Monomial:
        """The monomial of this bidegree with u1-exponent b."""
        return Monomial((self.filt - self.stem) // 2, b, self.filt)

    @property
    def summands(self) -> tuple[Summand, ...]:
        """Read-only view of the slots as Summand records, in u1 order."""
        return tuple(Summand(j, self.mono(b), e, self.free)
                     for b, j, e in zip(self.u1s, self.scalars, self.orders))

    def label(self, i: int) -> str:
        return self.summands[i].label()

    @property
    def total_length(self) -> int:
        return sum(self.orders)

    def slot_of(self, mono: Monomial) -> int | None:
        """Index of the slot of mono, by its u1-exponent, if it is here."""
        i = bisect_left(self.u1s, mono.u1)
        found = i < len(self.u1s) and self.u1s[i] == mono.u1 and mono == self.mono(mono.u1)
        return i if found else None


@dataclass(slots=True)
class LinearMap:
    """A monomial-sparse map between bidegree modules.

    cols[j] is () or ((row, exp),): the j-th source generator goes to
    2^exp times the row-th target generator.  Every differential acts this
    way, so a map with two entries in one column or on one row, or one
    that does not respect the summand orders, is rejected when built.
    That validation reads only cols and the two modules' orders, so a map
    copied onto modules with those orders (with_ends) is not validated
    again: propagate validates once per distinct input.  cols is a tuple
    of tuples (other sequences are converted), so it can key a memo and
    be shared by maps between equal columns.
    """

    source: BidegreeModule
    target: BidegreeModule
    cols: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self):
        if type(self.cols) is not tuple:
            self.cols = tuple(map(tuple, self.cols))
        src, tgt, rows = self.source.orders, self.target.orders, set()
        for j, col in enumerate(self.cols):
            for i, exp in col:
                if len(col) > 1 or i in rows:
                    raise PipelineError(f"map not monomial-sparse at {self._arrow(j, i)}")
                if src[j] + exp < tgt[i]:
                    raise PipelineError(
                        f"map not well defined on presentations: {self._arrow(j, i)}")
                rows.add(i)

    def with_ends(self, source: BidegreeModule, target: BidegreeModule) -> LinearMap:
        """These columns from `source` to `target`, without validating again.

        Valid because this map is, provided source and target have the
        orders of self.source and self.target; the caller guarantees that.
        """
        lm = object.__new__(LinearMap)
        lm.source, lm.target, lm.cols = source, target, self.cols
        return lm

    def _arrow(self, j: int, i: int) -> str:
        return f"{self.source.label(j)} -> {self.target.label(i)}"


def check_ends(module: BidegreeModule, d_in: LinearMap | None,
               d_out: LinearMap | None) -> None:
    """Raise PipelineError unless d_out starts and d_in ends at `module` itself."""
    if d_out is not None and d_out.source is not module:
        raise PipelineError(f"d_out source mismatch at ({module.stem},{module.filt})")
    if d_in is not None and d_in.target is not module:
        raise PipelineError(f"d_in target mismatch at ({module.stem},{module.filt})")


def homology_at(module: BidegreeModule,
                d_in: LinearMap | None,
                d_out: LinearMap | None,
                K: int) -> tuple[BidegreeModule, tuple[int, ...]]:
    """ker(d_out)/im(d_in) at `module`, with named surviving generators.

    The maps are monomial-sparse, so each slot sits in its own little
    complex W/2^{e_src} -> W/2^{e} -> W/2^{e_tgt} of cyclic modules, where
    homology is plain valuation arithmetic: the kernel is generated by 2^a
    with a = clamp(e_tgt - v_out, 0, e), the image by 2^t with
    t = max(v_in, e - e_src), and the subquotient is cyclic of order
    2^(t - a) on the pure lift 2^a * generator.  Returns the new module
    and its lifts: per new slot, the a of the old slot with the same
    u1-exponent.  The new module is free iff the old one is.  The page
    truncation K is not needed here (an exponent of at least K acts as
    zero by these formulas); it keeps the signature of the oracle
    snf.homology_at.  Raises PipelineError if a map does not start or end
    at `module`, if d_in enters a free summand, or if im is not in ker.
    """
    check_ends(module, d_in, d_out)
    orders = module.orders
    if d_out is None and d_in is None:
        return module, (0,) * len(orders)
    kers = [0] * len(orders)   # kernel generated by 2^a
    ims = list(orders)         # image generated by 2^t
    for j, col in enumerate(d_out.cols if d_out is not None else ()):
        for i, exp in col:
            kers[j] = min(max(d_out.target.orders[i] - exp, 0), orders[j])
    for j, col in enumerate(d_in.cols if d_in is not None else ()):
        for i, exp in col:
            if module.free:
                raise PipelineError(f"d_in enters free summand {module.label(i)}"
                                    f" at ({module.stem},{module.filt})")
            ims[i] = min(max(exp, orders[i] - d_in.source.orders[j]), orders[i])
    for idx, (a, t) in enumerate(zip(kers, ims)):
        if t < a:
            raise PipelineError(f"image exceeds kernel at ({module.stem},{module.filt}) "
                                f"slot {module.label(idx)}: d∘d != 0")
    kept = [(b, j + a, t - a, a)
            for b, j, a, t in zip(module.u1s, module.scalars, kers, ims) if t > a]
    u1s, scalars, new_orders, lifts = map(tuple, zip(*kept)) if kept else ((),) * 4
    return BidegreeModule(module.stem, module.filt, u1s, scalars, new_orders,
                          module.free), lifts


@dataclass
class Page:
    """One page of one spectral sequence on a padded window.

    Complete when build_e2 or turn_page returns it; nothing mutates
    `modules` after that, so `towers` is recognised on first read and
    kept, and so is the chart `layout` built from it.  Modules are
    frozen, and a page turn shares with the next page every module that
    no differential changed.  Trust and truncation are the window's: the
    d3 or d7 value of a trusted source, at (stem - 1, filt + r), never
    leaves the padded window, and K is window.K.
    """

    target: Target
    r: int
    window: Window
    modules: dict[tuple[int, int], BidegreeModule] = field(default_factory=dict)

    @property
    def K(self) -> int:
        return self.window.K

    def module(self, stem: int, filt: int) -> BidegreeModule:
        return self.modules.get((stem, filt)) or BidegreeModule(stem, filt, (), (), ())

    def is_trusted(self, stem: int, filt: int) -> bool:
        return self.window.trusted(stem, filt)

    @cached_property
    def towers(self) -> dict[tuple[int, int], list[Term]]:
        """The towers of each bidegree that has any, in bidegree order.

        Tower shapes are found once per distinct column, then named per
        bidegree.  One record shared by every reader; read it, do not
        mutate it.
        """
        from .pages import tower_shapes, towers_of_module  # pages imports this module
        period, N = self.target.period, self.window.N
        shapes: dict[tuple, tuple] = {}  # per distinct column
        towers = {}
        for key, mod in sorted(self.modules.items()):
            col = (mod.u1s, mod.scalars, mod.orders, mod.free)
            found = shapes.get(col)
            if found is None:
                found = shapes[col] = tower_shapes(mod, period, N)
            ts = towers_of_module(mod, found)
            if ts:
                towers[key] = ts
        return towers

    @cached_property
    def layout(self) -> Layout:
        """What the charts and the JSON of this page draw, found once
        (charts.page_layout); kept like towers, and read the same way."""
        from .charts import page_layout  # charts imports this module
        return page_layout(self)

    def reported_summands(self, stem: int, filt: int) -> list[Summand]:
        """Summands below the u1 reporting horizon."""
        return [s for s in self.module(stem, filt).summands if s.mono.u1 < self.window.N]
