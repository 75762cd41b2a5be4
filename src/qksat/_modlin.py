"""Exact dense linear algebra over the word-size prime field GF(P).

P = 8388593 is the largest prime below 2^23. A residue is held in float64
as a centered integer in [-(P-1)/2, (P-1)/2]; `_reduce` maps an integer x
with |x| < 2^52 back into that range as x - P*rint(x/P). Below 2^52 the
computed quotient x/P is off by less than 1/(2P), while x/P lies at least
1/(2P) from every half-integer (P is odd), so rint picks the exact nearest
integer. Every sum and product formed here is an integer below 2^53, which
float64 holds exactly.

The elimination reduces lazily, in the style of FFLAS-FFPACK (Dumas,
Giorgi and Pernet, "Dense linear algebra over word-size prime fields", ACM
TOMS 2008): a reduced entry takes up to NB products of reduced entries
before it is reduced again. The largest value this forms stays below 2^52
because

    NB * ((P - 1) // 2) ** 2 + P < 2 ** 52,

which is checked at import. So each NB-wide block update is one float64
matrix product (BLAS dgemm) followed by one reduction.
"""

from __future__ import annotations

import numpy as np

P = 8388593
H = (P - 1) // 2
NB = 128
if not NB * H ** 2 + P < 2 ** 52:
    raise ImportError(f"NB = {NB} products modulo {P} are not exact in float64")
# entries per block of rank_mod's entry check: 4 MB of float64 temporaries.
# A matrix up to n = 9 (2.4 MB) is still checked in one block, whose freed
# temporary raises glibc's dynamic mmap threshold as before; with 512 KB
# blocks the float trial that followed peaked 2.3 MB higher in RSS
_CHECK_CELLS = 1 << 19


def _reduce(x, out=None):
    """Centered residues of an integer-valued float64 array, |x| < 2^52,
    written to out (which must not overlap x) when given."""
    q = np.divide(x, P, out=out)
    np.rint(q, out=q)
    q *= P
    return np.subtract(x, q, out=q)


def inv_mod(a) -> int:
    """Inverse of a nonzero residue, in [0, P)."""
    return pow(int(a) % P, P - 2, P)


def matmul_mod(left, right, acc):
    """acc + left @ right mod P as centered residues, written into acc (a
    gemm with beta = 1). Exact for reduced left and right, |acc| < P and an
    inner dimension of at most NB."""
    if left.shape[1] > NB:
        raise ValueError(f"inner dimension {left.shape[1]} exceeds {NB}")
    # the product takes acc's memory layout: adding across layouts would
    # cost more than the product itself
    prod = np.matmul(left, right, out=np.empty_like(acc))
    prod += acc
    return _reduce(prod, out=acc)


def _rank(a: np.ndarray) -> int:
    """Row rank of a reduced float64 matrix with rows >= cols, which it
    overwrites.

    Left-looking within each panel of NB columns: column c is brought up to
    date by one matrix-vector product with the panel's earlier pivots, and
    so is each pivot row, out to the last column (normalized by its
    pivot). Only reduced entries reach the pivot search and the inverses.
    The rows below the panel then take one block update.
    """
    rows, cols = a.shape
    r = 0
    for c0 in range(0, cols, NB):
        c1 = min(c0 + NB, cols)
        r0 = r
        # negated multipliers of the panel's pivots, rows r0.. of a
        lmul = np.zeros((rows - r0, c1 - c0), order="F")
        # the pivot rows from column c0 on, each divided by its pivot
        urow = np.zeros((c1 - c0, cols - c0))
        for c in range(c0, c1):
            j = r - r0
            col = _reduce(a[r:, c] + lmul[j:, :j] @ urow[:j, c - c0])
            i = 0
            if not col[0]:
                nz = col.nonzero()[0]
                if nz.size == 0:
                    continue
                i = int(nz[0])
            tail = _reduce(a[r + i, c + 1:]
                           + lmul[j + i, :j] @ urow[:j, c - c0 + 1:])
            urow[j, c - c0 + 1:] = _reduce(tail * inv_mod(col[i]))
            if i:
                # row r + i is the pivot row: move row r into its place
                a[r + i, c + 1:] = a[r, c + 1:]
                lmul[j + i, :j] = lmul[j, :j]
                col[i] = col[0]
            lmul[j + 1:, j] = -col[1:]
            r += 1
        pc = r - r0
        if pc and r < rows and c1 < cols:
            matmul_mod(lmul[pc:, :pc], urow[:pc, c1 - c0:], a[r:, c1:])
    return r


def rank_mod(a) -> int:
    """Exact rank over GF(P) of a float64 matrix of centered residues, which
    it consumes: every entry must be an integer with |x| <= (P-1)/2."""
    if a.dtype != np.float64 or a.ndim != 2:
        raise ValueError("rank_mod takes a float64 matrix of centered residues, "
                         f"got {a.dtype} of shape {a.shape}")
    if a.size == 0:
        return 0
    # block by block over the memory order (a view for either contiguous
    # layout), so the check's temporaries stay a small fraction of a
    flat = a.ravel(order="K")
    for start in range(0, flat.size, _CHECK_CELLS):
        block = flat[start:start + _CHECK_CELLS]
        if (not -H <= block.min() <= block.max() <= H
                or (block != np.rint(block)).any()):
            raise ValueError(f"rank_mod needs integer entries with |x| <= {H}")
    # eliminate along the shorter side; the panels read columns, so a
    # column-major tall or row-major wide matrix needs no copy
    return _rank(a if a.shape[0] >= a.shape[1] else a.T)


def _grouped(m, x: int, lo: int):
    """(rows, hi, x, lo) view of a C- or F-contiguous matrix whose column
    index is (h * x + j) * lo + l."""
    rows, cols = m.shape
    hi = cols // (x * lo)
    if m.flags.c_contiguous:
        return m.reshape(rows, hi, x, lo)
    return m.T.reshape(hi, x, lo, rows).transpose(3, 0, 1, 2)


def quotient_mod(a, v, lo: int, work):
    """The rows of a modulo span(v) in one tensor factor, written over a.

    a's column index is (h * len(v) + j) * lo + l, and v is a nonzero vector
    of residues with first nonzero entry v[j0]. Column (h, j, l) of the
    result, for j != j0 in order, is a[:, (h, j, l)] - a[:, (h, j0, l)] *
    v[j] / v[j0] mod P: the coordinates of a's rows in the quotient by the
    span of v in the j-factor. Every entry formed is below H + H^2 < 2^52.
    work is a matrix of the result's shape; it holds the unreduced entries,
    and the result, in work's layout, is a view of a's memory. Both
    matrices are C- or F-contiguous."""
    j0 = int(np.flatnonzero(v)[0])
    w = _reduce(v * inv_mod(v[j0]))
    src, dst = _grouped(a, w.size, lo), _grouped(work, w.size - 1, lo)
    pivot = src[:, :, j0:j0 + 1]
    for s, d, ws in ((src[:, :, :j0], dst[:, :, :j0], w[:j0]),
                     (src[:, :, j0 + 1:], dst[:, :, j0:], w[j0 + 1:])):
        np.multiply(pivot, ws[:, None], out=d)
        np.subtract(s, d, out=d)
    return _reduce(work, out=a.ravel(order="K")[:work.size].reshape(
        work.shape, order="C" if work.flags.c_contiguous else "F"))


def rand_mod(rng: np.random.Generator, size) -> np.ndarray:
    """Uniform field elements as centered float64 residues."""
    return rng.integers(-H, H + 1, size=size).astype(np.float64)
