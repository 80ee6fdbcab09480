"""Group expression grammar: parsing, rendering, truncation."""

import pytest
from hypothesis import given, strategies as st

from hfpss.groupexpr import (GroupExpr, GroupExprError, Term, iso_invariants,
                             parse_group_expr, truncate_group)
from hfpss.monomials import Monomial
from hfpss.targets import Target
from hfpss.verify import load_fixtures


def test_parse_w_series():
    g = parse_group_expr("W[[u1^3]]")
    (t,) = g.terms
    assert t.coeff == "W" and t.period == 3 and t.mono.is_one() and t.scalar == 0


def test_parse_two_terms_any_spacing():
    g = parse_group_expr("a^3F4 + a u^{-1}u1^2 F4[[u1^3]]")
    assert len(g.terms) == 2
    assert g.render() == "a^{3}F4 + u^{-1}u1^{2}aF4[[u1^3]]"


def test_parse_zero():
    assert parse_group_expr("0").is_zero()
    assert parse_group_expr("0").render() == "0"


def test_parse_scalar_prefix():
    g = parse_group_expr("2u^{-4}W + u^{-4}u1W[[u1]]")
    assert g.terms[0].scalar == 1 and g.terms[0].period is None
    assert g.terms[1].scalar == 0 and g.terms[1].period == 1


def test_reject_non_power_scalar():
    with pytest.raises(GroupExprError):
        parse_group_expr("3u^{-4}W")


def test_reject_garbage():
    with pytest.raises(GroupExprError):
        parse_group_expr("W[[u2]]")


def test_roundtrip_is_canonical():
    s = "u^{-8}a^{4}F4 + 2u^{-10}u1W[[u1^3]]"
    assert parse_group_expr(s).render() == s


def test_truncate_w4_series():
    g = parse_group_expr("W/4[[u1]]")
    assert [s.order for s in truncate_group(g, 3, 4)] == [2, 2, 2, 2]


def test_truncate_offset_series():
    g = parse_group_expr("u1F4[[u1]]")
    summands = truncate_group(g, 3, 4)
    assert len(summands) == 3
    assert [s.mono.u1 for s in summands] == [1, 2, 3]


def test_truncate_scalar_free():
    g = parse_group_expr("2u^{-4}W")
    (s,) = truncate_group(g, 3, 12)
    assert s.free and s.scalar == 1 and s.order == 2  # K - scalar at K=3
    (s4,) = truncate_group(g, 4, 12)
    assert s4.order == 3  # grows with K: free


def test_truncate_period_3():
    g = parse_group_expr("u^{-1}u1W/4[[u1^3]]")
    summands = truncate_group(g, 3, 12)
    assert [s.mono.u1 for s in summands] == [1, 4, 7, 10]
    assert all(s.order == 2 for s in summands)


def test_w4_requires_k_3():
    with pytest.raises(GroupExprError):
        truncate_group(parse_group_expr("W/4[[u1]]"), 2, 4)


def test_iso_invariants_distinguish():
    a = parse_group_expr("a^{2}F4 + u^{-1}W/4[[u1]]")
    b = parse_group_expr("a^{2}F4[[u1]] + u^{-1}F4[[u1]]")
    assert iso_invariants(a, 3, 12) != iso_invariants(b, 3, 12)


terms = st.builds(
    Term,
    st.integers(0, 2),
    st.builds(Monomial, st.integers(-9, 9), st.integers(0, 5), st.integers(0, 7)),
    st.sampled_from(["W", "W/4", "F4"]),
    st.sampled_from([None, 1, 3]),
)


@given(st.lists(terms, min_size=0, max_size=4))
def test_render_parse_roundtrip(term_list):
    g = GroupExpr(tuple(term_list))
    assert parse_group_expr(g.render()).render() == g.render()


def _orders_or_error(f, g, K, N):
    try:
        return f(g, K, N)
    except GroupExprError as exc:
        return str(exc)


def _by_truncation(g, K, N):
    """The reference: the orders of the summands truncate_group builds."""
    return sorted(s.order for s in truncate_group(g, K, N))


@pytest.mark.parametrize("K", [3, 4, 5])
@pytest.mark.parametrize("N", [4, 12, 48])
def test_iso_invariants_count_the_summands_of_truncate_group(K, N):
    exprs = [fe.expr for t in Target for fe in load_fixtures(t)]
    assert len(exprs) == 176
    for g in exprs:
        assert iso_invariants(g, K, N) == _by_truncation(g, K, N), g.render()


def test_iso_invariants_reads_the_order_of_a_term_without_slots():
    g = parse_group_expr("8u1^{20}W + a^{2}F4")  # 2^3 vanishes at K = 3
    assert [len(t.offsets(4)) for t in g.terms if t.free] == [0]
    for f in (iso_invariants, _by_truncation):
        with pytest.raises(GroupExprError, match="vanishes at K=3"):
            f(g, 3, 4)
    assert iso_invariants(g, 4, 4) == [1] == _by_truncation(g, 4, 4)


_terms = st.builds(Term, st.integers(0, 6),
                   st.builds(Monomial, st.integers(-30, 30), st.integers(0, 60), st.integers(0, 9)),
                   st.sampled_from(("W", "W/4", "F4")), st.sampled_from((None, 1, 3)))


@given(st.lists(_terms, max_size=6), st.integers(2, 7), st.integers(1, 64))
def test_iso_invariants_match_truncate_group_on_random_expressions(terms, K, N):
    g = GroupExpr(tuple(terms))
    assert _orders_or_error(iso_invariants, g, K, N) == _orders_or_error(_by_truncation, g, K, N)
