"""Homology over W/2^K against a brute-force enumeration oracle.

The enumeration enumerates module elements directly (modules are capped
at 4^6 = 4096 elements), computes kernels and images pointwise, and
reads off the invariant factors from order statistics.  It shares no
code path with either the Smith normal form oracle (dense maps with
arbitrary Galois-ring entries) or the production slotwise path
(monomial-sparse maps), and checks both.
"""

import functools
import itertools
import random

from hfpss import snf
from hfpss.modules import Column, LinearMap, Summand, homology_at
from hfpss.monomials import Monomial
from hfpss.scalars import Witt
from hfpss.snf import Lattice, chain_ring_snf, kernel_gens, presentation_invariants

from pagechecks import from_summands
from test_scalars import witt_elements

K = 3


def W(a0, a1=0):
    return Witt(a0, a1, K)


def mat(rows):
    return [[W(x) if isinstance(x, int) else x for x in row] for row in rows]


def snf_diag(rows):
    diag, E, F = chain_ring_snf(rows, K)
    # verify E * A * F is the claimed diagonal
    n, m = len(rows), len(rows[0])
    prod = [[sum((E[i][k] * rows[k][j] for k in range(n)), W(0)) for j in range(m)]
            for i in range(n)]
    prod = [[sum((prod[i][k] * F[k][j] for k in range(m)), W(0)) for j in range(m)]
            for i in range(n)]
    for i in range(n):
        for j in range(m):
            expect = Witt.two_power(diag[min(i, j)], K) if i == j and i < len(diag) \
                else W(0)
            if i == j and i < len(diag):
                assert prod[i][j] == Witt.two_power(diag[i], K)
            else:
                assert not prod[i][j]
    return diag


def test_snf_single_two():
    # [[2]]: cokernel W/2
    assert snf_diag(mat([[2]])) == [1]
    assert presentation_invariants([[W(2)]], 1, K) == [1]


def test_snf_single_zero():
    # [[0]]: free rank 1 (invariant 0 = free at this truncation)
    assert snf_diag(mat([[0]])) == [K]
    assert presentation_invariants([[W(0)]], 1, K) == [K]


def test_snf_triangular_example():
    # [[2, 2w], [0, 4]] over W/8
    rows = mat([[2, Witt(0, 2, K)], [0, 4]])
    diag = snf_diag(rows)
    assert diag == sorted(diag)
    assert _enumeration_invariants_of_cokernel(rows, [K, K]) == \
        sorted(min(d, K) for d in diag if d > 0) or True
    oracle = _enumeration_invariants_of_cokernel(rows, [K, K])
    assert oracle == sorted(d for d in diag if d > 0)


# ---------------------------------------------------------------------------
# Enumeration oracle.

def _module_elements(exps):
    """All elements of the direct sum of W/2^e for e in exps."""
    spaces = [list(witt_elements(e)) for e in exps]
    for combo in itertools.product(*spaces):
        yield [Witt(w.a0, w.a1, K) for w in combo]


def _apply(matrix_cols, vec, tgt_exps):
    out = [Witt.zero(K) for _ in tgt_exps]
    for j, x in enumerate(vec):
        for i, c in matrix_cols[j]:
            out[i] = out[i] + c * x
    return [Witt(w.a0 % (1 << e), w.a1 % (1 << e), K)
            for w, e in zip(out, tgt_exps)]


def _invariants_from_orders(elements):
    """Invariant exponents of a finite W/2^K-module from order statistics.

    #(2^t-torsion) = 4^(sum min(e_i, t)) determines the multiset of e_i.
    """
    n = len(elements)
    counts = []
    for t in range(K + 1):
        c = 0
        for v in elements:
            if all((Witt.two_power(t, K) * x).val() >= K or not (Witt.two_power(t, K) * x)
                   for x in v):
                c += 1
        counts.append(c)
    # log4 of torsion growth gives sum of min(e_i, t)
    logs = []
    for c in counts:
        l = 0
        while 4 ** l < c:
            l += 1
        assert 4 ** l == c
        logs.append(l)
    exps = []
    for t in range(1, K + 1):
        exps.append(logs[t] - logs[t - 1])  # number of e_i >= t
    invs = []
    for t in range(K, 0, -1):
        new = exps[t - 1] - (len([e for e in invs if e >= t + 1]))
        invs.extend([t] * (exps[t - 1] - sum(1 for e in invs if e >= t)))
    return sorted(invs)


def _enumeration_invariants_of_cokernel(rows, row_exps):
    """Invariants of W^n/(columns of rows) by enumerating the quotient."""
    n = len(rows)
    cols = [[(i, rows[i][j]) for i in range(n) if rows[i][j]]
            for j in range(len(rows[0]))]
    image = set()
    src_exps = [K] * len(rows[0])
    for v in _module_elements(src_exps):
        w = _apply(cols, v, [K] * n)
        image.add(tuple((x.a0, x.a1) for x in w))
    # quotient elements: orbit representatives under translation by image
    seen = set()
    reps = []
    for v in _module_elements([K] * n):
        key = min(tuple(((v[i].a0 + d[i][0]) % 8, (v[i].a1 + d[i][1]) % 8)
                        for i in range(n)) for d in image)
        if key not in seen:
            seen.add(key)
            reps.append(key)
    # order statistics of the quotient group
    elements = [[Witt(a, b, K) for a, b in rep] for rep in reps]

    def order_exp(rep):
        for t in range(K + 1):
            scaled = tuple(((rep[i][0] << t) % 8, (rep[i][1] << t) % 8)
                           for i in range(len(rep)))
            key = min(tuple(((scaled[i][0] + d[i][0]) % 8, (scaled[i][1] + d[i][1]) % 8)
                            for i in range(len(rep))) for d in image)
            if all(x == (0, 0) for x in key):
                return t
        raise AssertionError

    counts = [sum(1 for r in reps if order_exp(r) <= t) for t in range(K + 1)]
    logs = []
    for c in counts:
        l = 0
        while 4 ** l < c:
            l += 1
        assert 4 ** l == c, (c,)
        logs.append(l)
    n_ge = [logs[t] - logs[t - 1] for t in range(1, K + 1)]  # count of e_i >= t
    invs = []
    for t in range(K, 0, -1):
        invs.extend([t] * (n_ge[t - 1] - sum(1 for e in invs if e > t)))
    return sorted(invs)


def _random_monomials(rng, n, stem, filt):
    out = []
    used = set()
    while len(out) < n:
        b = rng.randrange(6)
        if b not in used:
            used.add(b)
            out.append(Monomial((filt - stem) // 2, b, filt))
    return out


def _random_module(rng, stem, filt, max_rank=4, max_log=6):
    n = rng.randint(1, max_rank)
    exps = []
    total = 0
    for _ in range(n):
        e = rng.randint(1, K)
        if total + e > max_log:
            break
        exps.append(e)
        total += e
    if not exps:
        exps = [1]
    monos = _random_monomials(rng, len(exps), stem, filt)
    return from_summands(stem, filt, tuple(Summand(0, m, e) for m, e in zip(monos, exps)))


def _random_map_into_kernel(rng, src, mid, ker_elements):
    """Oracle-built d_in: send each source generator to a kernel element
    of compatible order, independent of any SNF machinery."""
    cols = []
    for s in src.summands:
        candidates = [v for v in ker_elements
                      if all((Witt.two_power(s.order, K) * x).val() >= e
                             for x, e in zip(v, [t.order for t in mid.summands]))]
        v = rng.choice(candidates)
        cols.append([(i, x) for i, x in enumerate(v) if x])
    return cols


def _random_dense_map(rng, mid, tgt):
    """Well-defined d_out with random Galois-ring entries anywhere."""
    cols = []
    for s in mid.summands:
        col = []
        for i, t in enumerate(tgt.summands):
            v_min = max(0, t.order - s.order)
            if rng.random() < 0.5:
                continue
            val = rng.randrange(1 << K), rng.randrange(1 << K)
            w = Witt(val[0], val[1], K)
            if w.val() < v_min:
                w = Witt.two_power(v_min, K) * w
            if w:
                col.append((i, w))
        cols.append(col)
    return cols


def _random_sparse_map(rng, src, tgt, allowed):
    """Monomial-sparse (row, exp) columns, each row hit at most once.

    allowed(i, exp) says whether a source generator may go to 2^exp
    times target generator i."""
    free = set(range(len(tgt.summands)))
    cols = []
    for s in src.summands:
        candidates = [(i, e) for i in sorted(free) for e in range(K)
                      if s.order + e >= tgt.summands[i].order and allowed(i, e)]
        if not candidates or rng.random() < 0.3:
            cols.append([])
            continue
        i, e = rng.choice(candidates)
        free.discard(i)
        cols.append([(i, e)])
    return cols


def _column(mod):
    return Column(mod.u1s, mod.scalars, mod.orders, mod.free)


def _witt_cols(cols):
    return [[(i, Witt.two_power(e, K)) for i, e in col] for col in cols]


def _dense(cols, n):
    """Dense vectors of length n from (row, coefficient) columns."""
    out = []
    for col in cols:
        v = [W(0)] * n
        for i, c in col:
            v[i] = c
        out.append(v)
    return out


def _enumerated_subquotient(mid, ker_elements, image):
    """Invariants of <ker_elements>/<image> from order statistics of cosets."""
    mid_exps = [s.order for s in mid.summands]
    seen = set()
    reps = []
    mods = [1 << e for e in mid_exps]
    for v in ker_elements:
        key = min(tuple(((v[i].a0 + d[i][0]) % mods[i],
                         (v[i].a1 + d[i][1]) % mods[i])
                        for i in range(len(v))) for d in image)
        if key not in seen:
            seen.add(key)
            reps.append(key)

    def order_exp(rep):
        for t in range(K + 1):
            scaled = tuple((((rep[i][0] << t)) % mods[i],
                            ((rep[i][1] << t)) % mods[i])
                           for i in range(len(rep)))
            key = min(tuple(((scaled[i][0] + d[i][0]) % mods[i],
                             (scaled[i][1] + d[i][1]) % mods[i])
                            for i in range(len(rep))) for d in image)
            if all(x == (0, 0) for x in key):
                return t
        raise AssertionError

    counts = [sum(1 for r in reps if order_exp(r) <= t) for t in range(K + 1)]
    logs = []
    for c in counts:
        l = 0
        while 4 ** l < c:
            l += 1
        assert 4 ** l == c
        logs.append(l)
    n_ge = [logs[t] - logs[t - 1] for t in range(1, K + 1)]
    oracle = []
    for t in range(K, 0, -1):
        oracle.extend([t] * (n_ge[t - 1] - sum(1 for e in oracle if e > t)))
    return sorted(oracle)


@functools.cache
def _random_presentations(seed, sparse):
    """100 random complexes src -> mid -> tgt with enumerated homology.

    Returns (mid, tgt, src, in_cols, out_cols, invariants) tuples; src is
    None (no d_in) on even trials.  Dense columns hold (row, Witt) pairs,
    monomial-sparse ones (row, exp) pairs.  Enumerating the homology is
    the slow part, so the list is built once per (seed, sparse) and shared
    by the tests that read it; they must not mutate it."""
    rng = random.Random(seed)
    out = []
    for trial in range(100):
        mid = _random_module(rng, 0, 0)
        tgt = _random_module(rng, -1, 7)
        if sparse:
            out_cols = _random_sparse_map(rng, mid, tgt, lambda i, e: True)
            out_witt = _witt_cols(out_cols)
        else:
            out_cols = out_witt = _random_dense_map(rng, mid, tgt)

        # enumerate the kernel of d_out inside mid
        mid_exps = [s.order for s in mid.summands]
        tgt_exps = [t.order for t in tgt.summands]
        ker_elements = [v for v in _module_elements(mid_exps)
                        if all(x.val() >= e or not x
                               for x, e in zip(_apply(out_witt, v, tgt_exps), tgt_exps))]

        if trial % 2 == 0:
            src, in_cols = None, []
            image = {tuple((0, 0) for _ in mid.summands)}
        else:
            src = _random_module(rng, 1, 0)
            if sparse:
                def in_kernel(i, e):
                    return all(e + f >= tgt.summands[t].order for t, f in out_cols[i])
                in_cols = _random_sparse_map(rng, src, mid, in_kernel)
                in_witt = _witt_cols(in_cols)
            else:
                in_cols = in_witt = _random_map_into_kernel(rng, src, mid, ker_elements)
            image = set()
            for v in _module_elements([s.order for s in src.summands]):
                w = _apply(in_witt, v, mid_exps)
                image.add(tuple((x.a0 % (1 << e), x.a1 % (1 << e))
                                for x, e in zip(w, mid_exps)))

        out.append((mid, tgt, src, in_cols, out_cols,
                    _enumerated_subquotient(mid, ker_elements, image)))
    return tuple(out)


@functools.cache
def _check_dense_enumeration() -> int:
    """Run the dense comparison once per session; returns the trial count.

    Cached, so the acceptance suite (criterion 6) reuses the result of the
    test here instead of enumerating the 100 presentations again.
    """
    trials = 0
    for trial, (mid, tgt, _src, in_cols, out_cols, oracle) in enumerate(
            _random_presentations(20240817, sparse=False)):
        n, n_t = len(mid.summands), len(tgt.summands)
        _ker, _im, invariants = snf.subquotient(
            [s.order for s in mid.summands], _dense(in_cols, n), _dense(out_cols, n_t),
            [t.order for t in tgt.summands], K)
        assert invariants == oracle, f"trial {trial}"
        trials += 1
    return trials


def test_homology_agrees_with_enumeration_on_100_random_presentations():
    """The SNF oracle on dense maps with arbitrary Galois-ring entries."""
    assert _check_dense_enumeration() == 100


def test_sparse_homology_agrees_with_enumeration_on_100_random_presentations():
    """The production path, and the SNF oracle on the same monomial-sparse maps."""
    for trial, (mid, tgt, src, in_cols, out_cols, oracle) in enumerate(
            _random_presentations(20261017, sparse=True)):
        mid_col, tgt_col = _column(mid), _column(tgt)
        d_out = LinearMap(mid_col, tgt_col, out_cols)
        d_in = None if src is None else LinearMap(_column(src), mid_col, in_cols)
        got = homology_at(mid.stem, mid.filt, mid_col, d_in, d_out)
        _u1s, _scalars, orders, _free = got
        assert sorted(orders) == oracle, f"trial {trial}"
        assert snf.homology_at(mid.stem, mid.filt, mid_col, d_in, d_out, K) == got, \
            f"trial {trial}"


def test_kernel_gens_span_the_kernel():
    rows = mat([[2, 1], [0, 4]])
    gens = kernel_gens(rows, K)
    lat = Lattice(2, K, gens)
    # brute force kernel membership
    for v in _module_elements([K, K]):
        out = [rows[0][0] * v[0] + rows[0][1] * v[1],
               rows[1][0] * v[0] + rows[1][1] * v[1]]
        in_ker = not out[0] and not out[1]
        assert lat.contains(v) == in_ker


def test_homology_basis_order_independence():
    # snf.homology takes the d_out target coordinates (out_cols rows with
    # out_orders) and the d_in source generators (in_cols) as plain lists;
    # reversing either must leave the named summands and sections alone,
    # and it changes the input on at least 30 of the 100 presentations
    permuted = {"d_out": 0, "d_in": 0}
    for trial, (mid, tgt, _src, in_cols, out_cols, _oracle) in enumerate(
            _random_presentations(20261017, sparse=True)):
        n, n_t = len(mid.summands), len(tgt.summands)
        in_vecs = _dense(_witt_cols(in_cols), n)
        out_vecs = _dense(_witt_cols(out_cols), n_t)
        out_orders = [t.order for t in tgt.summands]
        homology = functools.partial(snf.homology, mid.stem, mid.filt, _column(mid))
        expected = homology(in_vecs, out_vecs, out_orders, K)
        rows = range(n_t - 1, -1, -1)
        perm_out = [[v[i] for i in rows] for v in out_vecs]
        perm_orders = [out_orders[i] for i in rows]
        perm_in = in_vecs[::-1]
        if (perm_out, perm_orders) != (out_vecs, out_orders):
            permuted["d_out"] += 1
            assert homology(in_vecs, perm_out, perm_orders, K) == expected, f"trial {trial}"
        if perm_in != in_vecs:
            permuted["d_in"] += 1
            assert homology(perm_in, out_vecs, out_orders, K) == expected, f"trial {trial}"
    assert min(permuted.values()) >= 30, permuted
