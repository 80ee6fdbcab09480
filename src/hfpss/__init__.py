"""Exact-arithmetic homotopy fixed point spectral sequence engine.

Computes the five spectral sequences converging to the 2-local homotopy
of the height-2 fixed point spectra (integral and smashed with the mod-2
Moore spectrum and with Y), resolves the extensions, and verifies the
resulting homotopy groups against the published tables.
"""

from .engine import ComputeResult, compute, default_window
from .groupexpr import GroupExpr, parse_group_expr, truncate_group
from .monomials import Monomial, parse_monomial
from .targets import Target, Window

__all__ = [
    "ComputeResult", "compute", "default_window",
    "GroupExpr", "parse_group_expr", "truncate_group",
    "Monomial", "parse_monomial", "Target", "Window",
]
__version__ = "0.1.0"
