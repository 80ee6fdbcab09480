"""Smith normal form and lattice arithmetic over the chain ring W/2^K.

Every element of the Galois ring factors as 2^v * unit, so Gaussian
elimination with minimal-valuation pivoting always succeeds and yields a
diagonal matrix diag(2^{s_1}, 2^{s_2}, ...) with s_1 <= s_2 <= ...  The
transforms are accumulated directly, never inverted:

    E * A * F = S,   E and F invertible over W/2^K.

A "lattice" here is a subgroup of (W/2^K)^n spanned by a finite list of
vectors; membership tests reduce to valuation checks against the SNF of
the generator matrix.

The engine never calls this module: its differentials are
monomial-sparse, and modules.homology_at turns pages by valuation
arithmetic.  The homology routine here handles arbitrary maps and serves
the tests as an independent oracle for it.
"""

from __future__ import annotations

from .modules import Column, LinearMap, PipelineError
from .scalars import Witt


Vector = list[Witt]
Matrix = list[list[Witt]]


def zeros(n: int, m: int, K: int) -> Matrix:
    z = Witt.zero(K)
    return [[z] * m for _ in range(n)]


def identity(n: int, K: int) -> Matrix:
    I = zeros(n, n, K)
    one = Witt.one(K)
    for i in range(n):
        I[i][i] = one
    return I


def mat_vec(A: Matrix, v: Vector, K: int) -> Vector:
    out = []
    for row in A:
        acc = Witt.zero(K)
        for a, x in zip(row, v):
            if a and x:
                acc = acc + a * x
        out.append(acc)
    return out


def chain_ring_snf(A: Matrix, K: int) -> tuple[list[int], Matrix, Matrix]:
    """Diagonalize A over W/2^K.

    Returns (diag, E, F) where diag lists the valuations s_t of the
    diagonal 2-power entries (length min(rows, cols), padded with K for
    zero pivots) and E, F satisfy E*A*F = diag(2^{s_t}).
    """
    n_rows = len(A)
    n_cols = len(A[0]) if n_rows else 0
    S = [row[:] for row in A]
    E = identity(n_rows, K)
    F = identity(n_cols, K)
    r = min(n_rows, n_cols)
    diag = [K] * r

    for k in range(r):
        # Minimal-valuation pivot among the remaining block.
        best, bv = None, K
        for i in range(k, n_rows):
            for j in range(k, n_cols):
                v = S[i][j].val()
                if v < bv:
                    best, bv = (i, j), v
                    if v == 0:
                        break
            if bv == 0:
                break
        if best is None:
            break  # the rest of the block is zero; diag stays K
        i0, j0 = best
        if i0 != k:
            S[k], S[i0] = S[i0], S[k]
            E[k], E[i0] = E[i0], E[k]
        if j0 != k:
            for row in S:
                row[k], row[j0] = row[j0], row[k]
            for row in F:
                row[k], row[j0] = row[j0], row[k]

        # Normalize the pivot to exactly 2^bv.
        u_inv = S[k][k].unit_part().inv()
        S[k] = [u_inv * x for x in S[k]]
        E[k] = [u_inv * x for x in E[k]]

        # Clear the pivot column with row operations.
        for i in range(k + 1, n_rows):
            x = S[i][k]
            if not x:
                continue
            q = x.shift_down(bv)  # exact: bv is minimal in the block
            S[i] = [a - q * b for a, b in zip(S[i], S[k])]
            E[i] = [a - q * b for a, b in zip(E[i], E[k])]
        # Clear the pivot row with column operations.
        for j in range(k + 1, n_cols):
            x = S[k][j]
            if not x:
                continue
            q = x.shift_down(bv)
            for row in S:
                row[j] = row[j] - q * row[k]
            for row in F:
                row[j] = row[j] - q * row[k]
        diag[k] = bv

    return diag, E, F


def kernel_gens(A: Matrix, K: int) -> list[Vector]:
    """Generators of {x : A x = 0} as a subgroup of (W/2^K)^n."""
    n_rows = len(A)
    n_cols = len(A[0]) if n_rows else 0
    if n_cols == 0:
        return []
    if n_rows == 0:
        return [col for col in _columns(identity(n_cols, K))]
    diag, _E, F = chain_ring_snf(A, K)
    gens = []
    for t in range(n_cols):
        s = diag[t] if t < len(diag) else K
        if s == 0:
            continue
        col = [F[i][t] for i in range(n_cols)]
        if s < K:
            scale = Witt.two_power(K - s, K)
            col = [scale * x for x in col]
        gens.append(col)
    return gens


def _columns(A: Matrix) -> list[Vector]:
    if not A:
        return []
    return [[A[i][j] for i in range(len(A))] for j in range(len(A[0]))]


class Lattice:
    """Subgroup of (W/2^K)^n spanned by a list of vectors."""

    def __init__(self, n: int, K: int, gens: list[Vector]):
        self.n = n
        self.K = K
        self.gens = [g[:] for g in gens]
        if gens:
            A = [[g[i] for g in gens] for i in range(n)]
            diag, E, _F = chain_ring_snf(A, K)
            self._E = E
            self._diag = [diag[t] if t < len(diag) else K for t in range(n)]
        else:
            self._E = identity(n, K)
            self._diag = [K] * n

    def contains(self, v: Vector) -> bool:
        w = mat_vec(self._E, v, self.K)
        return all(x.val() >= s for x, s in zip(w, self._diag))

    def extended(self, v: Vector) -> "Lattice":
        return Lattice(self.n, self.K, self.gens + [v])


def presentation_invariants(rel_vectors: list[Vector], n: int, K: int) -> list[int]:
    """Invariant exponents of (W/2^K)^n / <rel_vectors>.

    Returns the sorted multiset of exponents e with one cyclic summand
    W/2^e per entry; e = K entries are indistinguishable from free
    summands at this truncation.  Zero summands are dropped.
    """
    if not rel_vectors:
        return [K] * n
    diag, _E, _F = chain_ring_snf([[g[i] for g in rel_vectors] for i in range(n)], K)
    return sorted(e for e in diag + [K] * (n - len(diag)) if e > 0)


# ---------------------------------------------------------------------------
# Homology by Smith normal form: the oracle for modules.homology_at.

def _unit_vector(n: int, i: int, j: int, K: int) -> Vector:
    v = [Witt.zero(K)] * n
    v[i] = Witt.two_power(j, K)
    return v


def _relations(orders: list[int], K: int) -> list[Vector]:
    """The relations 2^e * e_i of the sum of W/2^e; 2^K is already zero."""
    return [_unit_vector(len(orders), i, e, K) for i, e in enumerate(orders) if e < K]


def subquotient(orders: list[int], in_cols: list[Vector], out_cols: list[Vector],
                out_orders: list[int], K: int) -> tuple[Lattice, Lattice, list[int]]:
    """Kernel and image lattices of ker(d_out)/im(d_in), and its invariants.

    The module is the sum of W/2^e over `orders`.  in_cols are the images
    of the d_in source generators in it, and out_cols the images of its
    generators in the d_out target (the sum of W/2^e over out_orders),
    both as dense vectors over W/2^K.  Raises PipelineError if im is not
    contained in ker.
    """
    n = len(orders)
    rels = _relations(orders, K)
    if any(x for col in out_cols for x in col):
        tgt_rels = _relations(out_orders, K)
        # rows: target coordinates; columns: source coords then relation coords
        B = [[col[i] for col in out_cols] + [r[i] for r in tgt_rels]
             for i in range(len(out_orders))]
        ker_vecs = [v[:n] for v in kernel_gens(B, K)] + rels
    else:
        ker_vecs = [_unit_vector(n, i, 0, K) for i in range(n)]
    im_vecs = rels + list(in_cols)
    ker, im = Lattice(n, K, ker_vecs), Lattice(n, K, im_vecs)
    if not all(ker.contains(v) for v in im_vecs):
        raise PipelineError("image not contained in kernel: d∘d != 0")
    # ker/im presented in kernel coordinates
    a = len(ker_vecs)
    B2 = [[g[i] for g in ker_vecs] + [v[i] for v in im_vecs] for i in range(n)]
    rel_z = [v[:a] for v in kernel_gens(B2, K)]
    return ker, im, presentation_invariants(rel_z, a, K)


def homology(stem: int, filt: int, col: Column, in_cols: list[Vector], out_cols: list[Vector],
             out_orders: list[int], K: int) -> tuple:
    """ker(d_out)/im(d_in) on the column col of (stem, filt), maps as in
    subquotient; returns what modules.homology_at returns.

    Surviving generators are named greedily by minimal pure lifts
    2^j * (old generator), slots in u1 order; a slot's lift j is its new
    scalar minus the old one.  (stem, filt) only names errors:
    PipelineError if pure lifts cannot realize the invariants (possible
    only for maps that mix monomials).
    """
    n = len(col.u1s)
    ker, acc, invariants = subquotient(list(col.orders), in_cols, out_cols, out_orders, K)
    u1s, scalars, orders = [], [], []
    for i, (b, scalar) in enumerate(zip(col.u1s, col.scalars)):
        lift = next((j for j in range(K) if ker.contains(_unit_vector(n, i, j, K))), None)
        if lift is None:
            continue
        order = 0
        while order + lift < K and not acc.contains(_unit_vector(n, i, lift + order, K)):
            order += 1
        if order == 0:
            continue
        u1s.append(b)
        scalars.append(scalar + lift)
        orders.append(order)
        acc = acc.extended(_unit_vector(n, i, lift, K))
    if sorted(orders) != invariants:
        raise PipelineError(
            f"pure lifts cannot realize the invariants {invariants} at ({stem},{filt})")
    return tuple(u1s), tuple(scalars), tuple(orders), col.free


def homology_at(stem: int, filt: int, col: Column, d_in: LinearMap | None,
                d_out: LinearMap | None, K: int) -> tuple:
    """modules.homology_at by Smith normal form: each (row, exp) becomes 2^exp."""
    def dense(lm: LinearMap | None) -> list[Vector]:
        if lm is None:
            return []
        n_t = len(lm.target.u1s)
        return [_unit_vector(n_t, *c[0], K) if c else [Witt.zero(K)] * n_t
                for c in lm.cols]
    out_orders = list(d_out.target.orders) if d_out is not None else []
    return homology(stem, filt, col, dense(d_in), dense(d_out), out_orders, K)
