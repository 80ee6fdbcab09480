"""Bidegree modules over the truncated Witt ring and homology of maps.

A BidegreeModule is a direct sum of cyclic W/2^order summands, each
generated by a 2-power multiple of a single monomial, ordered by
(u1-exponent, u-exponent) within the bidegree.  Every differential sends
a generator to a 2-power times one generator and hits each generator at
most once, so a LinearMap stores (row, 2-exponent) integer pairs, and
homology ker(d_out)/im(d_in) is slotwise valuation arithmetic.  Surviving
generators are renamed by their minimal pure lifts 2^j * monomial.  The
general Smith normal form route lives in snf.py, as the test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .monomials import Monomial
from .targets import Target, Window


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


def _slot_key(s: Summand) -> tuple[int, int, int]:
    return (s.mono.u1, s.mono.u, s.scalar)


@dataclass(frozen=True)
class BidegreeModule:
    stem: int
    filt: int
    summands: tuple[Summand, ...]

    def __post_init__(self):
        object.__setattr__(self, "summands",
                           tuple(sorted(self.summands, key=_slot_key)))

    def __bool__(self) -> bool:
        return bool(self.summands)

    @property
    def total_length(self) -> int:
        return sum(s.order for s in self.summands)

    def invariants(self) -> list[int]:
        """Multiset of cyclic orders, the isomorphism type at this K."""
        return sorted(s.order for s in self.summands)

    def slot_of(self, mono: Monomial) -> int | None:
        for i, s in enumerate(self.summands):
            if s.mono == mono:
                return i
        return None


def zero_module(stem: int, filt: int) -> BidegreeModule:
    return BidegreeModule(stem, filt, ())


@dataclass
class LinearMap:
    """A monomial-sparse map between bidegree modules.

    cols[j] is [] or [(row, exp)]: the j-th source generator goes to 2^exp
    times the row-th target generator.  Every differential acts this way,
    so a map with two entries in one column or on one row, or one that
    does not respect the summand orders, is rejected when built.
    """

    source: BidegreeModule
    target: BidegreeModule
    cols: list[list[tuple[int, int]]]

    def __post_init__(self):
        rows = set()
        for j, col in enumerate(self.cols):
            for i, exp in col:
                src, tgt = self.source.summands[j], self.target.summands[i]
                if len(col) > 1 or i in rows:
                    raise PipelineError(
                        f"map not monomial-sparse at {src.label()} -> {tgt.label()}")
                if src.order + exp < tgt.order:
                    raise PipelineError(
                        f"map not well defined on presentations: "
                        f"{src.label()} -> {tgt.label()}")
                rows.add(i)

    def is_zero(self) -> bool:
        return all(not col for col in self.cols)


def compose_cols(first: LinearMap, second: LinearMap, K: int) -> list[list[tuple[int, int]]]:
    """Columns of second∘first (first.target must equal second.source).

    Exponents add; a sum of at least K is the zero entry, since 2^K = 0.
    """
    return [[(row, e1 + e2) for mid, e1 in col for row, e2 in second.cols[mid]
             if e1 + e2 < K]
            for col in first.cols]


def homology_at(module: BidegreeModule,
                d_in: LinearMap | None,
                d_out: LinearMap | None,
                K: int) -> tuple[BidegreeModule, dict[Summand, tuple[Summand, int]]]:
    """ker(d_out)/im(d_in) at `module`, with named surviving generators.

    The maps are monomial-sparse, so each slot sits in its own little
    complex W/2^{e_src} -> W/2^{e} -> W/2^{e_tgt} of cyclic modules, where
    homology is plain valuation arithmetic: the kernel is generated by 2^a
    with a = clamp(e_tgt - v_out, 0, e), the image by 2^t with
    t = max(v_in, e - e_src), and the subquotient is cyclic of order
    2^(t - a) on the pure lift 2^a * generator.  The returned section maps
    each new summand to (old summand, a); new is free iff old is.  The page
    truncation K is not needed here (an exponent of at least K acts as zero
    by these formulas); it keeps the signature of the oracle
    snf.homology_at.  Raises PipelineError if a map does not start or end
    at `module`, if d_in enters a free summand, or if im is not in ker.
    """
    if d_out is not None and d_out.source is not module:
        raise PipelineError(f"d_out source mismatch at ({module.stem},{module.filt})")
    if d_in is not None and d_in.target is not module:
        raise PipelineError(f"d_in target mismatch at ({module.stem},{module.filt})")
    out_entry: dict[int, tuple[int, int]] = {}
    if d_out is not None:
        for j, col in enumerate(d_out.cols):
            for i, exp in col:
                out_entry[j] = (exp, d_out.target.summands[i].order)
    in_entry: dict[int, tuple[int, int]] = {}
    if d_in is not None:
        for j, col in enumerate(d_in.cols):
            for i, exp in col:
                if module.summands[i].free:
                    raise PipelineError(f"d_in enters free summand {module.summands[i].label()}"
                                        f" at ({module.stem},{module.filt})")
                in_entry[i] = (exp, d_in.source.summands[j].order)

    new_summands = []
    section: dict[Summand, tuple[Summand, int]] = {}
    for idx, s in enumerate(module.summands):
        e = s.order
        if idx in out_entry:
            v_out, e_tgt = out_entry[idx]
            a = min(max(e_tgt - v_out, 0), e)
        else:
            a = 0
        if idx in in_entry:
            v_in, e_src = in_entry[idx]
            t = min(max(v_in, e - e_src), e)
        else:
            t = e
        if t < a:
            raise PipelineError(
                f"image exceeds kernel at ({module.stem},{module.filt}) "
                f"slot {s.label()}: d∘d != 0")
        if t > a:
            new = Summand(s.scalar + a, s.mono, t - a, s.free)
            new_summands.append(new)
            section[new] = (s, a)
    return BidegreeModule(module.stem, module.filt, tuple(new_summands)), section


@dataclass
class Page:
    """One page of one spectral sequence on a padded window."""

    target: Target
    r: int
    window: Window
    K: int
    modules: dict[tuple[int, int], BidegreeModule] = field(default_factory=dict)
    untrusted: set[tuple[int, int]] = field(default_factory=set)

    def module(self, stem: int, filt: int) -> BidegreeModule:
        return self.modules.get((stem, filt)) or zero_module(stem, filt)

    def is_trusted(self, stem: int, filt: int) -> bool:
        return self.window.trusted(stem, filt) and (stem, filt) not in self.untrusted

    def total_length(self) -> int:
        return sum(m.total_length for m in self.modules.values())

    def reported_summands(self, stem: int, filt: int) -> list[Summand]:
        """Summands below the u1 reporting horizon."""
        mod = self.module(stem, filt)
        return [s for s in mod.summands if s.mono.u1 < self.window.N]
