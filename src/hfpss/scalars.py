"""The oracle's ring: truncated Witt vectors of F4.

The truncation W(F4)/2^K is realized as the Galois ring

    (Z/2^K)[w] / (w^2 + w + 1),

whose elements are written a0 + a1*w.  For K = 1 this is the field F4.
The pipeline never builds these elements: its maps are (row, 2-exponent)
pairs.  Only the Smith normal form oracle in snf.py computes with them.

>>> Witt(2, 1, 3) * Witt(2, 0, 3)
Witt(4, 2, K=3)
>>> (Witt(1, 1, 3) * Witt(1, 1, 3)).render()   # w^2 = -1 - w
'0+1*w'
"""

from __future__ import annotations


class Witt:
    """An element a0 + a1*w of (Z/2^K)[w]/(w^2+w+1)."""

    __slots__ = ("a0", "a1", "K")

    def __init__(self, a0: int, a1: int, K: int):
        if K < 1:
            raise ValueError("truncation exponent K must be >= 1")
        mod = 1 << K
        self.a0 = a0 % mod
        self.a1 = a1 % mod
        self.K = K

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, K: int) -> "Witt":
        return cls(0, 0, K)

    @classmethod
    def one(cls, K: int) -> "Witt":
        return cls(1, 0, K)

    @classmethod
    def two_power(cls, j: int, K: int) -> "Witt":
        return cls(1 << j, 0, K) if j < K else cls(0, 0, K)

    # -- ring structure -----------------------------------------------------

    def _check(self, other: "Witt") -> None:
        if self.K != other.K:
            raise ValueError(f"mixed truncations K={self.K} and K={other.K}")

    def __add__(self, other: "Witt") -> "Witt":
        self._check(other)
        return Witt(self.a0 + other.a0, self.a1 + other.a1, self.K)

    def __sub__(self, other: "Witt") -> "Witt":
        self._check(other)
        return Witt(self.a0 - other.a0, self.a1 - other.a1, self.K)

    def __neg__(self) -> "Witt":
        return Witt(-self.a0, -self.a1, self.K)

    def __mul__(self, other: "Witt") -> "Witt":
        self._check(other)
        # (a0 + a1 w)(b0 + b1 w), reduced by w^2 = -1 - w.
        a0, a1, b0, b1 = self.a0, self.a1, other.a0, other.a1
        return Witt(a0 * b0 - a1 * b1, a0 * b1 + a1 * b0 - a1 * b1, self.K)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Witt) and self.K == other.K
                and self.a0 == other.a0 and self.a1 == other.a1)

    def __hash__(self) -> int:
        return hash((self.a0, self.a1, self.K))

    def __bool__(self) -> bool:
        return bool(self.a0 or self.a1)

    def __repr__(self) -> str:
        return f"Witt({self.a0}, {self.a1}, K={self.K})"

    def render(self) -> str:
        """Canonical text form "a0+a1*w" with decimal digits in [0, 2^K)."""
        return f"{self.a0}+{self.a1}*w"

    # -- 2-adic structure ---------------------------------------------------

    def val(self) -> int:
        """2-adic valuation in [0, K]; val(0) = K by convention."""
        v = self.K
        for a in (self.a0, self.a1):
            if a:
                v = min(v, (a & -a).bit_length() - 1)
        return v

    def is_unit(self) -> bool:
        return self.val() == 0

    def norm(self) -> int:
        """The norm a0^2 - a0*a1 + a1^2 mod 2^K; odd exactly for units."""
        return (self.a0 * self.a0 - self.a0 * self.a1 + self.a1 * self.a1) % (1 << self.K)

    def inv(self) -> "Witt":
        if not self.is_unit():
            raise ZeroDivisionError(f"{self!r} is not a unit")
        d = pow(self.norm(), -1, 1 << self.K)
        return Witt((self.a0 - self.a1) * d, -self.a1 * d, self.K)

    def unit_part(self) -> "Witt":
        """The unit u with self = 2^val * u (u arbitrary for self = 0)."""
        v = self.val()
        if v >= self.K:
            return Witt.one(self.K)
        return Witt(self.a0 >> v, self.a1 >> v, self.K)

    def shift_down(self, j: int) -> "Witt":
        """Exact division by 2^j; requires val >= j."""
        if self.val() < j:
            raise ValueError(f"{self!r} not divisible by 2^{j}")
        return Witt(self.a0 >> j, self.a1 >> j, self.K)
