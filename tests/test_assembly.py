"""Extension resolution and order bookkeeping."""

import pytest

from hfpss.assembly import ExtensionError, assemble_pi
from hfpss.engine import compute
from hfpss.groupexpr import GroupExpr, Term
from hfpss.les import degraded_log4
from hfpss.monomials import Monomial
from hfpss.targets import Target, Window
from hfpss.verify import load_fixtures

MOORE = (Target.C2_V0, Target.C6_V0)
SPLIT = (Target.C2, Target.C6, Target.C6_Y)


def _eta_alpha_pair(stem):
    """A filtration-0 F4 series and its eta*alpha partner in filtration 2.

    The pair sits at the even stem 2 * (stem // 2); assemble_pi reads the
    stem it is given only to label the group, so odd stems test that too."""
    u = -(stem // 2)
    return [Term(0, Monomial(u, 0, 0), "F4", 1), Term(0, Monomial(u + 1, 0, 2), "F4", 1)]


def _merged_stems(target):
    """The stems in 0..47 at which assemble_pi merges an eta*alpha pair."""
    merged = []
    for stem in range(48):
        pair = _eta_alpha_pair(stem)
        g = assemble_pi(stem, pair, target)
        assert g.consulted
        if g.merged:
            merged.append(stem)
            assert sorted(t.coeff for t in g.expr.terms) == ["F4", "W/4"]
        else:
            assert g.expr == GroupExpr(tuple(pair))
    return merged


def test_directives_by_target():
    """The rule reads the target and the towers, never the stem: an eta*alpha
    pair merges at every stem on the Moore targets, and at none elsewhere."""
    for target in MOORE:
        assert _merged_stems(target) == list(range(48)), target
    for target in SPLIT:
        assert _merged_stems(target) == [], target


def test_merge_stems_are_2_mod_8():
    """The mod-8 law is a consequence of the page: on a wide window off the
    phase of every stem period, at two (K, N), the merges of the Moore
    targets fall exactly on the stems congruent to 2 mod 8."""
    for K, N in ((3, 12), (5, 30)):
        window = Window(-40, 200, filt_max=60, K=K, N=N)
        for target in Target:
            groups = compute(target, window).groups
            merged = [n for n, g in groups.items() if g.merged]
            expected = [n for n in groups if n % 8 == 2] if target in MOORE else []
            assert merged == expected, (target, K, N)
            assert all(groups[n].consulted for n in merged)


@pytest.mark.parametrize("filt_max", [0, 1])
def test_no_merge_below_filtration_2(filt_max):
    """Below filtration 2 no column holds an upper series, so nothing
    merges, and a group is consulted exactly when its column has two or
    more towers (the stems 2 mod 8 of the Moore targets are not)."""
    for target in Target:
        res = compute(target, Window(0, 47, filt_max=filt_max))
        count = {n: 0 for n in res.groups}
        for (stem, _), towers in res.stack.einfty.towers.items():
            count[stem] += len(towers)
        for stem, g in res.groups.items():
            assert not g.merged and g.consulted == (count[stem] >= 2), (target, stem)


def test_extension_spot_check_stem_2(computed_c2_v0):
    assert computed_c2_v0.groups[2].expr.render() == "a^{2}F4 + u^{-1}W/4[[u1]]"
    assert computed_c2_v0.groups[2].merged


def test_extension_spot_check_stem_10(computed_c2_v0):
    assert computed_c2_v0.groups[10].expr.render() == \
        "u^{-4}u1a^{2}F4 + u^{-5}u1W/4[[u1]]"


def test_all_six_w4_towers_of_mod2_c6(computed_c6_v0):
    stems = [n for n, g in computed_c6_v0.groups.items()
             if any(t.coeff == "W/4" for t in g.expr.terms)]
    assert stems == [2, 10, 18, 26, 34, 42]


def test_split_everywhere_on_integral_and_y(computed_all):
    for target in (Target.C2, Target.C6, Target.C6_Y):
        for g in computed_all[target].groups.values():
            assert not g.merged
            assert all(t.coeff != "W/4" for t in g.expr.terms)


def test_order_counting_invariant(computed_all):
    """Extensions change isomorphism type, never cardinality.

    log4 of each group's truncated order equals the summed orders of the
    trusted Einfty slots of its column below the horizon N."""
    for res in computed_all.values():
        K, N = res.window.K, res.window.N
        einf = res.stack.einfty
        column = {}
        for (stem, filt), mod in einf.modules.items():
            if einf.is_trusted(stem, filt):
                column[stem] = column.get(stem, 0) + sum(
                    e for b, e in zip(mod.u1s, mod.orders) if b < N)
        for stem, g in res.groups.items():
            assert degraded_log4(g.expr, K, N) == column.get(stem, 0), (res.target, stem)


def test_underlined_stems_consulted(computed_all):
    for target, res in computed_all.items():
        for fe in load_fixtures(target):
            if fe.underlined:
                assert res.groups[fe.stem].consulted, (target, fe.stem)


def test_merge_predicate_rejects_wrong_partner():
    lower = Term(0, Monomial(-1, 0, 0), "F4", 1)
    upper = Term(0, Monomial(3, 0, 2), "F4", 1)  # wrong u-power
    with pytest.raises(ExtensionError):
        assemble_pi(2, [lower, upper], Target.C2_V0)


@pytest.mark.parametrize("pair", [
    [Term(0, Monomial(-2, 0, 0), "F4", 1), Term(0, Monomial(2, 0, 2), "F4", 1)],
    [Term(0, Monomial(-2, 0, 0), "F4", 1), Term(0, Monomial(-1, 0, 2), "F4", 3)],
    [Term(0, Monomial(-2, 0, 0), "F4", 1), Term(0, Monomial(-2, 1, 0), "F4", 1),
     Term(0, Monomial(-1, 0, 2), "F4", 1)],
], ids=["wrong-u-power", "wrong-period", "two-lowers"])
def test_pairing_off_the_merge_stems_raises(pair):
    # at stem 4, not 2 mod 8, a column that is not one eta*alpha pair still raises
    for target in MOORE:
        with pytest.raises(ExtensionError):
            assemble_pi(4, pair, target)


def test_merge_residual_classes():
    # lower offset 0, upper offset 0: the bottom upper class survives as F4
    lower = Term(0, Monomial(-1, 0, 0), "F4", 1)
    upper = Term(0, Monomial(0, 0, 2), "F4", 1)
    g = assemble_pi(2, [lower, upper], Target.C2_V0)
    assert g.expr.render() == "a^{2}F4 + u^{-1}W/4[[u1]]"


def test_empty_column_is_zero_group(computed_c6):
    assert computed_c6.groups[5].expr.render() == "0"
    assert computed_c6.groups[5].expr.is_zero()
