"""Exhaustive and property tests for the truncated Witt ring."""

import itertools

import pytest
from hypothesis import given, strategies as st

from hfpss.scalars import Witt


def witt_elements(K: int):
    """Every element of W/2^K, in (a0, a1) order (the oracle tests enumerate these)."""
    mod = 1 << K
    for a0 in range(mod):
        for a1 in range(mod):
            yield Witt(a0, a1, K)


@pytest.mark.parametrize("K", [1, 2, 3])
def test_witt_ring_axioms_exhaustive(K):
    elems = list(witt_elements(K))
    one = Witt.one(K)
    for a in elems:
        assert a * one == a
        assert a + Witt.zero(K) == a
    for a, b in itertools.product(elems[:16], repeat=2):
        assert a + b == b + a
        assert a * b == b * a
    for a, b, c in itertools.product(elems[:8], repeat=3):
        assert a * (b * c) == (a * b) * c
        assert a * (b + c) == a * b + a * c


def test_witt_spec_examples():
    # (2 + w) * 2 = 4 + 2w at K=3
    assert Witt(2, 1, 3) * Witt(2, 0, 3) == Witt(4, 2, 3)
    # (1 + w)^2 = 1 + 2w + w^2 = w, by w^2 = -1 - w (the defining relation
    # w^2 + w + 1 = 0; the value is frozen from the exhaustive oracle below)
    assert Witt(1, 1, 3) * Witt(1, 1, 3) == Witt(0, 1, 3)
    # 2*2 = 0 at K=2
    assert Witt(2, 0, 2) * Witt(2, 0, 2) == Witt.zero(2)


def test_exhaustive_square_table_64_elements():
    # (1+w)^2 verified against an independently-built multiplication table
    # of the 64-element ring: multiply polynomials a0+a1*x, reduce by
    # x^2 = -1-x, reduce coefficients mod 8.
    def oracle_mul(a, b):
        c0 = a[0] * b[0]
        c1 = a[0] * b[1] + a[1] * b[0]
        c2 = a[1] * b[1]
        return ((c0 - c2) % 8, (c1 - c2) % 8)

    table = {((a0, a1), (b0, b1)): oracle_mul((a0, a1), (b0, b1))
             for a0 in range(8) for a1 in range(8)
             for b0 in range(8) for b1 in range(8)}
    for (a, b), c in table.items():
        got = Witt(*a, 3) * Witt(*b, 3)
        assert (got.a0, got.a1) == c
    assert table[((1, 1), (1, 1))] == (0, 1)


def test_valuation_examples():
    assert Witt(4, 4, 3).val() == 2
    assert Witt(0, 1, 3).val() == 0
    assert Witt.zero(3).val() == 3


@pytest.mark.parametrize("K", [2, 3])
def test_units_are_valuation_zero(K):
    for w in witt_elements(K):
        assert w.is_unit() == (w.val() == 0)
        if w.is_unit():
            assert w * w.inv() == Witt.one(K)


def test_every_element_is_two_power_times_unit():
    for K in (1, 2, 3):
        for w in witt_elements(K):
            v = w.val()
            if v == K:
                assert not w
                continue
            assert (Witt.two_power(v, K) * w.unit_part()) == w
            assert w.unit_part().is_unit()


witt3 = st.builds(lambda a, b: Witt(a, b, 3),
                  st.integers(0, 7), st.integers(0, 7))


@given(witt3, witt3, witt3)
def test_witt_distributivity_property(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(witt3, witt3)
def test_valuation_submultiplicative(a, b):
    assert (a * b).val() >= min(3, a.val() + b.val())


def test_render():
    assert Witt(5, 2, 3).render() == "5+2*w"
