"""Extension resolution and order bookkeeping."""

import pytest

from hfpss.assembly import MERGE_STEMS_MOD_8, ExtensionError, assemble_pi
from hfpss.groupexpr import GroupExpr, Term
from hfpss.les import degraded_log4
from hfpss.monomials import Monomial
from hfpss.targets import Target
from hfpss.verify import load_fixtures


def _eta_alpha_pair(stem):
    """A filtration-0 F4 series and its eta*alpha partner in filtration 2.

    The pair sits at the even stem 2 * (stem // 2); assemble_pi reads the
    stem it is given only through MERGE_STEMS_MOD_8, so odd stems test the
    table too."""
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
    assert MERGE_STEMS_MOD_8 == {Target.C2_V0: 2, Target.C6_V0: 2}
    for target in (Target.C2, Target.C6, Target.C6_Y):
        assert _merged_stems(target) == [], target


def test_merge_stems_are_2_mod_8():
    for target in (Target.C2_V0, Target.C6_V0):
        assert _merged_stems(target) == [2, 10, 18, 26, 34, 42], target


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


def test_merge_residual_classes():
    # lower offset 0, upper offset 0: the bottom upper class survives as F4
    lower = Term(0, Monomial(-1, 0, 0), "F4", 1)
    upper = Term(0, Monomial(0, 0, 2), "F4", 1)
    g = assemble_pi(2, [lower, upper], Target.C2_V0)
    assert g.expr.render() == "a^{2}F4 + u^{-1}W/4[[u1]]"


def test_empty_column_is_zero_group(computed_c6):
    assert computed_c6.groups[5].expr.render() == "0"
    assert computed_c6.groups[5].expr.is_zero()
