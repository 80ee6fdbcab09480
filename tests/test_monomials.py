"""Grading, weights, the named-class registry, and the text format."""

from hypothesis import given, strategies as st

from hfpss.monomials import NAMED, ONE, Monomial, parse_monomial

monomials = st.builds(Monomial, st.integers(-30, 30),
                      st.integers(0, 20), st.integers(0, 20))


def test_grading_of_w5():
    # u^-2 alpha: internal degree 6, filtration 1, stem 5, weight 0
    m = Monomial(-2, 0, 1)
    assert (m.degree, m.filt, m.stem, m.weight) == (6, 1, 5, 0)


def test_grading_of_v1v2():
    # u1 u^-4 has internal degree 8 and stem 8
    m = Monomial(-4, 1, 0)
    assert (m.degree, m.filt, m.stem, m.weight) == (8, 0, 8, 0)


def test_grading_of_unit():
    assert (ONE.degree, ONE.filt, ONE.stem, ONE.weight) == (0, 0, 0, 0)


@given(monomials, monomials)
def test_grading_additive(m, x):
    p = m * x
    assert (p.degree, p.filt, p.stem) == (m.degree + x.degree, m.filt + x.filt, m.stem + x.stem)
    assert p.weight == (m.weight + x.weight) % 3


def test_named_registry_values():
    assert NAMED["v1"] == Monomial(-1, 1, 0)
    assert NAMED["v2"] == Monomial(-3, 0, 0)
    assert NAMED["j0"] == Monomial(0, 3, 0)
    assert NAMED["w5"] == Monomial(-2, 0, 1)
    assert NAMED["v1v2"] == Monomial(-4, 1, 0)
    assert NAMED["v2sq"] == Monomial(-6, 0, 0)
    assert NAMED["eta"] == Monomial(0, 1, 1)
    assert NAMED["nu"] == NAMED["alpha"] ** 3
    assert NAMED["kappabar"] == Monomial(-8, 0, 4)
    # defining products
    assert NAMED["g"] * NAMED["v2sq"] == NAMED["w5"] ** 2
    assert NAMED["v1sq"] * NAMED["v2sq"] == NAMED["v1v2"] ** 2
    assert NAMED["mu"] == NAMED["eta"] * NAMED["v1sq"]
    assert NAMED["h"] == NAMED["alpha"] * NAMED["u"]


def test_named_classes_are_weight_zero():
    for name, m in NAMED.items():
        if name in ("u", "u1", "alpha", "h"):
            continue
        assert m.weight == 0, name


def test_hurewicz_detector_stems():
    assert NAMED["eta"].bidegree == (1, 1)
    assert NAMED["nu"].bidegree == (3, 3)
    assert NAMED["kappabar"].bidegree == (20, 4)


def test_h_class_normalization():
    # h^c u^{a'} u1^b = alpha^c u^{a'+c} u1^b
    h = NAMED["h"]
    assert h ** 3 * Monomial(-5, 2, 0) == Monomial(-2, 2, 3)


def test_relation_v1_cubed():
    assert NAMED["v1"] ** 3 == NAMED["v2"] * NAMED["j0"]


def test_relation_v1v2_cubed():
    assert NAMED["v1v2"] ** 3 == NAMED["j0"] * NAMED["v2sq"] ** 2
    assert (NAMED["v1v2"] ** 3).u1 == 3 and (NAMED["v1v2"] ** 3).u == -12


def test_render_examples():
    assert str(Monomial(-4, 1, 0)) == "u^{-4}u1"
    assert str(Monomial(0, 0, 3)) == "a^{3}"
    assert str(ONE) == "1"
    assert str(Monomial(2, 3, 1)) == "u^{2}u1^{3}a"


def test_parse_any_order_and_braces():
    assert parse_monomial("a^3 u^{-1} u1^2") == Monomial(-1, 2, 3)
    assert parse_monomial("u^{-4}u1a^{2}") == Monomial(-4, 1, 2)
    assert parse_monomial("1") == ONE


@given(monomials)
def test_parse_render_roundtrip(m):
    assert parse_monomial(str(m)) == m
