"""Module Leibniz rule and v1-linearity, checked classwise on pages.

The mod-2 spectral sequence is a module over the integral one, so

    d_r(x * m) = d_r(x) * m + x * d_r(m)     (characteristic-2 signs)

must hold for every page class x of the integral tower and module class
m of the mod-2 tower.  All three products are evaluated and reduced in
the current page presentation: a product whose monomial died reduces to
zero, a 2-power prefix at least the annihilator exponent reduces to
zero.

Each sweep runs once per session: _check_leibniz is cached, so the
acceptance suite (criterion 3) reuses the counts of the tests here.
"""

import functools
from itertools import product

from hfpss.modules import rows_view
from hfpss.monomials import NAMED, Monomial
from hfpss.pages import run_to_einfty
from hfpss.rules import rule_table
from hfpss.targets import Target, Window

WIN = Window(-8, 16, filt_max=14, N=4)


def _slots(page):
    """Each slot of the page, (scalar, order) by its monomial, read once."""
    return {Monomial((filt - stem) // 2, b, filt): (j, e)
            for (stem, filt), col in rows_view(page.rows, page.window).items()
            for b, j, e in zip(col.u1s, col.scalars, col.orders)}


def _padded(window):
    """The bidegrees of the padded window."""
    return set(product(window.stem_range, window.filt_range))


def _page_class(slots, scalar, mono):
    """Reduce 2^scalar * mono in the page of these slots; returns (slot key,
    exponent), or None if mono has no slot there (none outside the rows)."""
    slot = slots.get(mono)
    if slot is None:
        return None
    exp = scalar - slot[0]
    if exp < 0:
        raise AssertionError(f"class 2^{scalar}{mono} below presentation scalar")
    if exp >= slot[1]:
        return None
    return (mono, exp)


def _diff_class(slots, padded, rules, scalar, mono):
    """d_r of the page class 2^scalar * mono, reduced in the page."""
    v = rules.value_on(mono)
    if v is None:
        return None
    if v.bidegree not in padded:
        return "boundary"
    return _page_class(slots, scalar, v)


def _add(c1, c2):
    """Characteristic-2 sum of two reduced classes (same target module)."""
    classes = [c for c in (c1, c2) if c is not None]
    if not classes:
        return None
    if len(classes) == 1:
        return classes[0]
    (m1, e1), (m2, e2) = classes
    if m1 == m2 and e1 == e2:
        return None  # x + x = 0 in the 2-torsion part
    return tuple(sorted(classes))


def _leibniz_pairs(r):
    stack_int = run_to_einfty(Target.C2, WIN)
    stack_mod = run_to_einfty(Target.C2_V0, WIN)
    page_mod = stack_mod.page(r)
    rules_int = rule_table(Target.C2, r)
    rules_mod = rule_table(Target.C2_V0, r)

    # only reported slots: u1-exponents near the internal truncation sit in
    # the padding zone whose kernels are deliberately untrusted
    xs = [(j, mono) for mono, (j, _) in _slots(stack_int.page(r)).items()
          if WIN.stem_lo <= mono.stem <= WIN.stem_hi and mono.u1 < WIN.N]
    ms = [mono for mono in _slots(page_mod)
          if WIN.stem_lo <= mono.stem <= WIN.stem_hi and mono.u1 < WIN.N]
    return page_mod, rules_mod, rules_int, xs, ms


@functools.cache
def _check_leibniz(r):
    page_mod, rules_mod, rules_int, xs, ms = _leibniz_pairs(r)
    slots, padded = _slots(page_mod), _padded(page_mod.window)
    dms = [rules_mod.value_on(m) for m in ms]
    checked = 0
    for scalar, x in xs:
        dx = rules_int.value_on(x)
        for m, dm in zip(ms, dms):
            prod = x * m
            stem, filt = prod.bidegree
            if (stem, filt) not in padded or (stem - 1, filt + r) not in padded:
                continue
            lhs_mono = _page_class(slots, scalar, prod)
            if lhs_mono is None:
                lhs = None
            else:
                lhs = _diff_class(slots, padded, rules_mod, scalar, prod)
            # right side: d(x)*m + x*d(m), each reduced in the page (a product
            # outside the padded window has no slot there, so it reduces to None)
            t1 = None if dx is None else _page_class(slots, scalar, dx * m)
            t2 = None if dm is None else _page_class(slots, scalar, x * dm)
            if lhs == "boundary":
                continue
            # when the product class is zero on the page, its differential is 0
            if lhs_mono is None:
                lhs = None
            assert lhs == _add(t1, t2), (x, m, lhs, t1, t2)
            checked += 1
    return checked


def test_module_leibniz_d3():
    assert _check_leibniz(3) == 188_240  # the window really was swept


def test_module_leibniz_d7():
    assert _check_leibniz(7) == 8_712


def test_v1_linearity_of_y_d7():
    """d7(v1 * m) = v1 * d7(m) for every window monomial of the Y page."""
    window = Window(0, 47)
    stack = run_to_einfty(Target.C6_Y, window)
    page = stack.page(7)
    rules = rule_table(Target.C6_Y, 7)
    v1 = NAMED["v1"]
    slots, padded = _slots(page), _padded(window)
    checked = 0
    for m in slots:
        if m.u1 >= window.N:
            continue
        vm = v1 * m
        if vm.bidegree not in padded or (vm.stem - 1, vm.filt + 7) not in padded:
            continue
        lhs = None
        if _page_class(slots, 0, vm) is not None:
            lhs = _diff_class(slots, padded, rules, 0, vm)
        dm = rules.value_on(m)
        rhs = None
        if dm is not None and _page_class(slots, 0, m) is not None:
            rhs = _page_class(slots, 0, v1 * dm)
        if lhs == "boundary":
            continue
        assert lhs == rhs, (m, lhs, rhs)
        checked += 1
    assert checked > 400


def test_nu_linearity_of_y_d7():
    """alpha^3-linearity holds by construction; spot check the reduction."""
    rules = rule_table(Target.C6_Y, 7)
    nu = NAMED["nu"]
    for g, v in rules.values.items():
        assert rules.value_on(nu * g) == nu * v
