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

from hfpss.monomials import NAMED
from hfpss.pages import run_to_einfty
from hfpss.rules import rule_table
from hfpss.targets import Target, Window

WIN = Window(-8, 16, filt_max=14, N=4)


def _page_class(page, scalar, mono):
    """Reduce 2^scalar * mono in the page; returns (slot key, exponent) or None."""
    mod = page.module(*mono.bidegree)
    row = mod.slot_of(mono)
    if row is None:
        return None
    exp = scalar - mod.scalars[row]
    if exp < 0:
        raise AssertionError(f"class 2^{scalar}{mono} below presentation scalar")
    if exp >= mod.orders[row]:
        return None
    return (mono, exp)


def _diff_class(page, rules, scalar, mono):
    """d_r of the page class 2^scalar * mono, reduced in the page."""
    v = rules.value_on(mono)
    if v is None:
        return None
    if not page.window.in_padded(*v.bidegree):
        return "boundary"
    return _page_class(page, scalar, v)


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
    page_int = stack_int.page(r)
    page_mod = stack_mod.page(r)
    rules_int = rule_table(Target.C2, r)
    rules_mod = rule_table(Target.C2_V0, r)

    # only reported slots: u1-exponents near the internal truncation sit in
    # the padding zone whose kernels are deliberately untrusted
    xs = [(s.scalar, s.mono) for m_ in page_int.modules.values() for s in m_.summands
          if WIN.stem_lo <= s.mono.stem <= WIN.stem_hi and s.mono.u1 < WIN.N]
    ms = [s.mono for m_ in page_mod.modules.values() for s in m_.summands
          if WIN.stem_lo <= s.mono.stem <= WIN.stem_hi and s.mono.u1 < WIN.N]
    return page_mod, rules_mod, rules_int, xs, ms


@functools.cache
def _check_leibniz(r):
    page_mod, rules_mod, rules_int, xs, ms = _leibniz_pairs(r)
    window = page_mod.window
    checked = 0
    for scalar, x in xs:
        dx = rules_int.value_on(x)
        for m in ms:
            prod = x * m
            if not window.in_padded(*prod.bidegree):
                continue
            tgt = (prod.stem - 1, prod.filt + r)
            if not window.in_padded(*tgt):
                continue
            lhs_mono = _page_class(page_mod, scalar, prod)
            if lhs_mono is None:
                lhs = None
            else:
                lhs = _diff_class(page_mod, rules_mod, scalar, prod)
            # right side: d(x)*m + x*d(m), each reduced in the page
            t1 = None
            if dx is not None and window.in_padded(*(dx * m).bidegree):
                t1 = _page_class(page_mod, scalar, dx * m)
            dm = rules_mod.value_on(m)
            t2 = None
            if dm is not None and window.in_padded(*(x * dm).bidegree):
                t2 = _page_class(page_mod, scalar, x * dm)
            if lhs == "boundary" or t1 == "boundary" or t2 == "boundary":
                continue
            # when the product class is zero on the page, its differential is 0
            if lhs_mono is None:
                lhs = None
            assert lhs == _add(t1, t2), (x, m, lhs, t1, t2)
            checked += 1
    assert checked > 5000  # the window really was swept
    return checked


def test_module_leibniz_d3():
    _check_leibniz(3)


def test_module_leibniz_d7():
    _check_leibniz(7)


def test_v1_linearity_of_y_d7():
    """d7(v1 * m) = v1 * d7(m) for every window monomial of the Y page."""
    window = Window(0, 47)
    stack = run_to_einfty(Target.C6_Y, window)
    page = stack.page(7)
    rules = rule_table(Target.C6_Y, 7)
    v1 = NAMED["v1"]
    checked = 0
    for mod in page.modules.values():
        for s in mod.summands:
            m = s.mono
            if m.u1 >= window.N:
                continue
            vm = v1 * m
            if not window.in_padded(*vm.bidegree):
                continue
            tgt = (vm.stem - 1, vm.filt + 7)
            if not window.in_padded(*tgt):
                continue
            lhs = None
            if _page_class(page, 0, vm) is not None:
                lhs = _diff_class(page, rules, 0, vm)
            dm = rules.value_on(m)
            rhs = None
            if dm is not None and _page_class(page, 0, m) is not None:
                rhs = _page_class(page, 0, v1 * dm)
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
