"""Long exact sequence cardinality identities (exact at every stem)."""

import pytest

from hfpss.engine import compute, default_window
from hfpss.groupexpr import parse_group_expr
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
    w4 = [s for s in slots if s.kind == "w4"]
    assert w4[0].partner is not None
    assert w4[0].partner.al == 2 and w4[0].partner.u == 0
    assert sum(1 for s in slots if s.kind == "f4") == 1  # the boundary slot


def test_expand_slots_stop_at_the_horizon():
    # an isolated class at u1 >= N lies beyond the horizon, as series slots do
    assert expand_slots(parse_group_expr("u1^{5}F4 + u1^{5}W[[u1]]"), 3, 4) == []
    slots = expand_slots(parse_group_expr("u1^{2}F4[[u1]] + u1^{3}F4"), 3, 4)
    assert sorted(s.mono.u1 for s in slots) == [2, 3, 3]


def test_two_les_catches_wrong_groups(extended_groups):
    # drop the alpha^4 summand of pi_4: the order identity must fail
    broken = dict(extended_groups[Target.C2_V0])
    broken[4] = parse_group_expr("u^{-1}a^{2}F4[[u1]]")
    checks = check_two_les(extended_groups[Target.C2], broken, Window(0, 15))
    assert not all(c.ok for c in checks)
