"""Exact arithmetic in F4 and in truncated Witt vectors of F4.

The truncation W(F4)/2^K is realized as the Galois ring

    (Z/2^K)[w] / (w^2 + w + 1),

whose elements are written a0 + a1*w.  For K = 1 this is the field F4.
F4 elements are packed into the integers 0..3 as c0 + 2*c1, standing for
c0 + c1*w.

>>> f4_mul(W_GEN, W_GEN) == f4_add(1, W_GEN)   # w^2 = 1 + w
True
>>> Witt(2, 1, 3) * Witt(2, 0, 3)
Witt(4, 2, K=3)
"""

from __future__ import annotations


# ---------------------------------------------------------------------------
# F4 = GF(4) on {0, 1, w, 1+w}, encoded 0, 1, 2, 3.

W_GEN = 2  # the generator w, with w^2 + w + 1 = 0


def f4_add(x: int, y: int) -> int:
    return x ^ y


def f4_mul(x: int, y: int) -> int:
    # (c0 + c1 w)(d0 + d1 w) with w^2 = w + 1 over F2.
    c0, c1 = x & 1, x >> 1
    d0, d1 = y & 1, y >> 1
    e0 = (c0 & d0) ^ (c1 & d1)
    e1 = (c0 & d1) ^ (c1 & d0) ^ (c1 & d1)
    return e0 | (e1 << 1)


def f4_inv(x: int) -> int:
    if x == 0:
        raise ZeroDivisionError("inversion of zero in F4")
    # The nonzero elements form a cyclic group of order 3, so x^-1 = x^2.
    return f4_mul(x, x)


def f4_pow(x: int, n: int) -> int:
    n %= 3
    if x == 0:
        return 0 if n else 1
    out = 1
    for _ in range(n):
        out = f4_mul(out, x)
    return out


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

    def reduce_mod2(self) -> int:
        """Reduction to F4 along W/2^K ->> W/2 = F4."""
        return (self.a0 & 1) | ((self.a1 & 1) << 1)


def two_adic_valuation(a: Witt) -> int:
    return a.val()


def witt_units(K: int):
    """Iterate over all units of W/2^K (there are 3 * 4^(K-1) of them)."""
    mod = 1 << K
    for a0 in range(mod):
        for a1 in range(mod):
            w = Witt(a0, a1, K)
            if w.is_unit():
                yield w


def witt_elements(K: int):
    mod = 1 << K
    for a0 in range(mod):
        for a1 in range(mod):
            yield Witt(a0, a1, K)
