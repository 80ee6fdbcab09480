"""Long exact sequence cardinality identities (exact at every stem)."""

import pytest

from hfpss import les
from hfpss.engine import DEFAULT_STEMS, compute, default_window
from hfpss.groupexpr import ETA_ALPHA_CLIMB, parse_group_expr
from hfpss.les import check_eta_les, check_two_les, degraded_log4, expand_slots
from hfpss.targets import Target, Window


@pytest.fixture(scope="module")
def extended_groups():
    """Groups with the window extended down to stem -2, so the n-1 and n-2
    terms of the sequences exist at n = 0."""
    out = {}
    for target in Target:
        hi = 15 if target in (Target.C2, Target.C2_V0) else 47
        res = compute(target, default_window(target, -2, hi))
        out[target] = {s: g.expr for s, g in res.groups.items()}
    return out


def test_negative_stems(extended_groups):
    for target, groups in extended_groups.items():
        assert groups[-1].is_zero()
        if target is Target.C6_Y:
            # nonzero by the eta-cofiber sequence (= u^{24} * stem 46 under
            # the 48-periodicity of the collapsed page)
            assert groups[-2].render() == "uu1^{2}F4[[u1^3]]"
        else:
            assert groups[-2].is_zero()


def test_two_les_exact_every_stem(extended_groups):
    checks = check_two_les(extended_groups[Target.C2],
                           extended_groups[Target.C2_V0],
                           Window(0, 15))
    assert len(checks) == 16
    for c in checks:
        assert c.ok, (c.stem, c.lhs, c.coker, c.ker)


def test_two_les_c6_exact_every_stem(extended_groups):
    checks = check_two_les(extended_groups[Target.C6],
                           extended_groups[Target.C6_V0],
                           Window(0, 47))
    assert len(checks) == 48
    for c in checks:
        assert c.ok, (c.stem, c.lhs, c.coker, c.ker)


# Stems where each sequence fails when filt_max cuts the columns of the
# default windows: (two-LES C2, two-LES C6 -> C6-v0, eta-LES C6-v0 -> C6-y),
# 2/2/4, 2/2/8 and 5/13/14 stems at filt_max 5, 3 and 0.
FAILING_STEMS = {
    5: ([7, 8], [7, 24], [8, 12, 26, 42]),
    3: ([5, 8], [21, 24], [9, 12, 22, 25, 39, 40, 42, 43]),
    0: ([2, 4, 8, 10, 12],
        [2, 4, 10, 12, 18, 20, 24, 26, 28, 34, 36, 42, 44],
        [2, 6, 10, 12, 14, 18, 22, 26, 30, 34, 38, 42, 44, 46]),
}


@pytest.mark.parametrize("filt_max", sorted(FAILING_STEMS, reverse=True))
def test_les_fail_where_filt_max_cuts_columns(filt_max):
    groups = {t: {s: g.expr for s, g in compute(
        t, Window(*DEFAULT_STEMS[t], filt_max=filt_max)).groups.items()}
        for t in Target}
    checks = (check_two_les(groups[Target.C2], groups[Target.C2_V0], Window(0, 15)),
              check_two_les(groups[Target.C6], groups[Target.C6_V0], Window(0, 47)),
              check_eta_les(groups[Target.C6_V0], groups[Target.C6_Y], Window(0, 47)))
    failing = tuple([c.stem for c in cs if not c.ok] for cs in checks)
    assert failing == FAILING_STEMS[filt_max]


def test_eta_les_exact_every_stem(extended_groups):
    checks = check_eta_les(extended_groups[Target.C6_V0],
                           extended_groups[Target.C6_Y],
                           Window(0, 47))
    assert len(checks) == 48
    for c in checks:
        assert c.ok, (c.stem, c.lhs, c.coker, c.ker)


def test_degraded_log4_boundary_slot():
    # W/4 series at offset 0, N=12: 11 paired slots + 1 degraded boundary
    g = parse_group_expr("u^{-1}W/4[[u1]]")
    assert degraded_log4(g, 3, 12) == 2 * 11 + 1


def test_expand_slots_partner_monomials():
    g = parse_group_expr("u^{-1}W/4[[u1]]")
    slots = expand_slots(g, 3, 12)
    w4 = [s for s in slots if not s.free and s.order == 2]
    partner = w4[0].mono * ETA_ALPHA_CLIMB
    assert partner.al == 2 and partner.u == 0
    assert les._lookup(g, partner) == (g.terms[0], w4[0].mono, 1)
    assert les._lookup(g, w4[0].mono) == (g.terms[0], w4[0].mono, 0)
    assert sum(1 for s in slots if s.order == 1) == 1  # the boundary slot


def test_expand_slots_stop_at_the_horizon():
    # an isolated class at u1 >= N lies beyond the horizon, as series slots do
    assert expand_slots(parse_group_expr("u1^{5}F4 + u1^{5}W[[u1]]"), 3, 4) == []
    slots = expand_slots(parse_group_expr("u1^{2}F4[[u1]] + u1^{3}F4"), 3, 4)
    assert sorted(s.mono.u1 for s in slots) == [2, 3, 3]


def test_each_group_is_expanded_and_each_eta_map_counted_once(extended_groups,
                                                              monkeypatch):
    expanded, maps = [], []
    expand, eta_map = les.expand_slots, les._eta_map_counts
    monkeypatch.setattr(les, "expand_slots",
                        lambda g, K, N: expanded.append(g) or expand(g, K, N))
    monkeypatch.setattr(les, "_eta_map_counts", lambda *a: maps.append(a) or eta_map(*a))
    check_eta_les(extended_groups[Target.C6_V0], extended_groups[Target.C6_Y],
                  Window(0, 47))
    # C6-v0 on stems -2..47 and C6-y on 0..47; eta: pi_{n-1} -> pi_n for n in -1..47
    assert (len(expanded), len(maps)) == (50 + 48, 49)
    expanded.clear()
    check_two_les(extended_groups[Target.C2], extended_groups[Target.C2_V0],
                  Window(0, 15))
    assert len(expanded) == 17 + 16  # C2 on stems -1..15, C2-v0 on 0..15


def test_two_les_catches_wrong_groups(extended_groups):
    # drop the alpha^4 summand of pi_4: the order identity must fail
    broken = dict(extended_groups[Target.C2_V0])
    broken[4] = parse_group_expr("u^{-1}a^{2}F4[[u1]]")
    checks = check_two_les(extended_groups[Target.C2], broken, Window(0, 15))
    assert not all(c.ok for c in checks)
