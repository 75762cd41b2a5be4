"""Tests for the float64 GF(P) kernels, against a Python-integer reference."""

import tracemalloc

import numpy as np
import pytest

import qksat._modlin as _modlin
from qksat._modlin import (NB, H, P, _reduce, inv_mod, matmul_mod, rand_mod,
                           rank_mod)

# a prime just above 2^60, for checking the reference itself
OTHER_PRIME = 1152921504606847009


def _rank_object(a, p: int = P) -> int:
    """Gaussian elimination over any prime field with Python integers."""
    mat = [[int(x) % p for x in row] for row in np.asarray(a)]
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = pow(mat[r][c], p - 2, p)
        mat[r] = [(x * inv) % p for x in mat[r]]
        prow = mat[r]
        for i in range(r + 1, rows):
            f = mat[i][c]
            if f:
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], prow)]
        r += 1
    return r


def _centered(x):
    """Python-integer centered residues, as floats."""
    return np.vectorize(lambda v: float((int(v) + H) % P - H), otypes=[float])(x)


def _planted(rng, rows, cols, r):
    """A rows x cols product of two random factors of width r, reduced with
    int64 arithmetic (exact: r * H^2 < 2^63)."""
    left = rand_mod(rng, (rows, r)).astype(np.int64)
    right = rand_mod(rng, (r, cols)).astype(np.int64)
    return _centered((left @ right) % P)


def test_prime_and_exactness_inequality():
    assert P < 1 << 23
    assert all(P % q for q in range(2, int(P ** 0.5) + 1))
    assert NB * H ** 2 + P < 2 ** 52


def test_reduce_is_the_centered_residue():
    top = NB * H ** 2 + H
    ints = [0, 1, -1, H, -H, H + 1, -H - 1, P, -P, 3 * P + H, top, -top,
            top - 1, 2 ** 52 - 1, -(2 ** 52 - 1)]
    rng = np.random.default_rng(0)
    ints += [int(v) for v in rng.integers(-top, top, size=2000)]
    # x/P just past a half-integer, near 2^52: a reciprocal product rounds
    # some of these to the wrong side
    k_top = 2 ** 52 // P - 1
    ints += [sign * (k * P + s) for k in range(k_top - 20000, k_top)
             for s in (H + 1, -H) for sign in (1, -1)]
    got = _reduce(np.array(ints, dtype=np.float64))
    assert got.tolist() == [float((v + H) % P - H) for v in ints]


def test_inv_mod():
    rng = np.random.default_rng(2)
    for a in rand_mod(rng, 50).tolist() + [1, -1, H, -H]:
        if a:
            assert (int(a) * inv_mod(a)) % P == 1


def _object_matmul(left, right):
    return _centered(np.dot(left.astype(np.int64).astype(object),
                            right.astype(np.int64).astype(object)) % P)


def test_matmul_mod_small():
    rng = np.random.default_rng(3)
    for shape in [(4, 7, 3), (1, 1, 1), (5, 2, 8), (6, 64, 6), (3, NB, 5)]:
        left = rand_mod(rng, (shape[0], shape[1]))
        right = rand_mod(rng, (shape[1], shape[2]))
        acc = rand_mod(rng, (shape[0], shape[2]))
        product = matmul_mod(left, right, np.zeros_like(acc))
        assert product.tolist() == _object_matmul(left, right).tolist()
        want = _centered(_object_matmul(left, right) + acc)
        # acc is updated in place, whatever its memory layout
        for layout in (acc.copy(), np.asfortranarray(acc)):
            assert matmul_mod(left, right, layout) is layout
            assert layout.tolist() == want.tolist()


def test_matmul_mod_worst_case_magnitudes():
    # a full block of entries +-(P-1)/2 added to (P-1)/2: the largest
    # sums the elimination forms
    rng = np.random.default_rng(4)
    for sign in (1.0, -1.0):
        left = np.full((3, NB), sign * H)
        right = np.full((NB, 3), H)
        acc = np.full((3, 3), sign * H)
        want = (int(sign) * (NB * H * H + H) + H) % P - H
        assert matmul_mod(left, right, acc).tolist() == [[want] * 3] * 3
    left = H * rng.choice([-1.0, 1.0], size=(5, NB))
    right = H * rng.choice([-1.0, 1.0], size=(NB, 4))
    got = matmul_mod(left, right, np.zeros((5, 4)))
    assert got.tolist() == _object_matmul(left, right).tolist()


def test_matmul_mod_shape_checks():
    with pytest.raises(ValueError):
        matmul_mod(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros((2, 2)))
    # past NB products the float64 sums are no longer guaranteed exact
    with pytest.raises(ValueError):
        matmul_mod(np.zeros((2, NB + 1)), np.zeros((NB + 1, 2)), np.zeros((2, 2)))
    empty = matmul_mod(np.zeros((2, 0)), np.zeros((0, 3)), np.full((2, 3), 5.0))
    assert empty.tolist() == [[5.0] * 3] * 2


def _kernel_rank(monkeypatch, a, nb):
    """rank_mod of a copy of a, with panels nb wide."""
    monkeypatch.setattr(_modlin, "NB", nb)
    return rank_mod(a.copy())


def test_rank_paths_agree_on_planted_rank():
    rng = np.random.default_rng(5)
    # tall, wide, square full rank (within one panel and across panels),
    # rank one, rank deficient across panels
    for rows, cols, r in [(150, 100, 40), (100, 150, 99), (90, 90, 90),
                          (NB + 40, NB + 40, NB + 40), (70, 130, 1),
                          (300, 260, 200), (140, 300, 139)]:
        a = _planted(rng, rows, cols, r)
        # rank_mod consumes its argument
        assert rank_mod(a.copy()) == r
        assert rank_mod(a.T.copy()) == r
        if rows * cols <= 15000:
            assert _rank_object(a) == r


def test_rank_panel_widths_around_nb(monkeypatch):
    # widths nb - 1, nb and nb + 1, full rank and deficient, tall and wide
    rng = np.random.default_rng(11)
    for width in (NB - 1, NB, NB + 1):
        for r in (width, width - 3):
            a = _planted(rng, width + 20, width, r)
            assert rank_mod(a.copy()) == r
            assert rank_mod(a.T.copy()) == r
    for nb in (7, 8, 9):
        for r in (8, 5):
            a = _planted(rng, 40, 8, r)
            assert _kernel_rank(monkeypatch, a, nb) == r == _rank_object(a)


def test_rank_blocked_small_block_size(monkeypatch):
    # a tiny nb forces many panels and the cross-panel updates
    rng = np.random.default_rng(6)
    a = _planted(rng, 120, 95, 33)
    for nb in (1, 2, 7):
        assert _kernel_rank(monkeypatch, a, nb) == 33


def test_rank_full_block_worst_case_magnitudes():
    # every entry +-(P-1)/2, a full panel wide and more
    rng = np.random.default_rng(12)
    for shape in [(NB + 10, NB), (NB + 1, NB + 1)]:
        a = H * rng.choice([-1.0, 1.0], size=shape)
        assert rank_mod(a.copy()) == _rank_object(a)
    dup = H * rng.choice([-1.0, 1.0], size=(NB, 40))
    assert rank_mod(np.hstack([dup, -dup, dup])) == _rank_object(dup) == 40


def test_rank_degenerate_patterns():
    assert rank_mod(np.zeros((80, 90))) == 0
    assert rank_mod(np.eye(200)) == 200
    rng = np.random.default_rng(7)
    c = _planted(rng, 150, 70, 70)
    assert rank_mod(np.hstack([c, c])) == 70
    assert rank_mod(np.vstack([c.T, c.T])) == 70
    # zero columns ahead of, between and after the pivots
    z = np.zeros((150, 30))
    assert rank_mod(np.hstack([z, c[:, :35], z, c[:, 35:], z])) == 70
    assert rank_mod(np.vstack([z.T, c.T, z.T])) == 70


def test_rank_degenerate_entry_distribution(monkeypatch):
    # many zeros and extreme entries stress pivot search and row swaps
    rng = np.random.default_rng(8)
    vals = np.array([0, 0, 0, 1, -1, H, -H], dtype=np.float64)
    for _ in range(8):
        shape = tuple(int(s) for s in rng.integers(1, 60, size=2))
        a = vals[rng.integers(0, len(vals), size=shape)]
        want = _rank_object(a)
        assert rank_mod(a.copy()) == want
        for nb in (1, 3):
            assert _kernel_rank(monkeypatch, a, nb) == want


def test_rank_object_path_other_prime():
    # the reference itself, on planted ranks over two primes
    rng = np.random.default_rng(9)
    for p in (P, OTHER_PRIME):
        left = rng.integers(0, 1000, size=(20, 8)).astype(object)
        right = rng.integers(0, 1000, size=(8, 25)).astype(object)
        assert _rank_object(np.dot(left, right) % p, p) == 8
    # 2 * eye is singular over GF(2) only
    assert _rank_object(2 * np.eye(5, dtype=int), 2) == 0
    assert _rank_object(2 * np.eye(5, dtype=int), P) == 5


def test_rank_mod_input_validation():
    with pytest.raises(ValueError, match="shape"):
        rank_mod(np.zeros(5))
    assert rank_mod(np.zeros((0, 4))) == 0
    # one input form: float64 centered residues, never reduced on entry
    for dtype, rows in [(np.int64, [[P, 2 * P], [1, 5]]),
                        (np.uint64, [[1, 2], [3, 6 + P]]),
                        (object, [[P * (1 << 70) + 1, 2], [3, 6]]),
                        (np.float32, [[1, 2], [3, 6]])]:
        with pytest.raises(ValueError, match=np.dtype(dtype).name):
            rank_mod(np.array(rows, dtype=dtype))
    for bad in ([[0.5, 1.0]], [[1.0, H - 0.5]], [[np.nan, 1.0]]):
        with pytest.raises(ValueError, match="integer entries"):
            rank_mod(np.array(bad))
    for bad in (H + 1.0, -H - 1.0, P, 2.0 ** 52, np.inf):
        with pytest.raises(ValueError, match="integer entries"):
            rank_mod(np.array([[1.0, 2.0], [3.0, bad]]))
    assert rank_mod(np.array([[H, -H], [-H, H]], dtype=np.float64)) == 1


def test_rank_mod_entry_check_allocates_a_small_fraction():
    # the check runs block by block: a whole-matrix rint would allocate a
    # float64 copy plus a mask, 1.125 matrices on top of the matrix
    for order in "CF":
        # 64 MB, 16 of the check's blocks
        a = np.zeros((4096, 2048), order=order)
        # the last entry in memory order lies in the check's last block
        a[-1, -1] = 0.5
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="integer entries"):
                rank_mod(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < a.nbytes / 8, (order, peak)


def test_rank_mod_refuses_float32_planted_ranks():
    # float32 holds these residues exactly, but a block update would round
    # its products into a float32 buffer: rank 300 and 232 were read here
    rng = np.random.default_rng(13)
    for rows, cols, r in [(400, 300, 200), (500, 260, 100)]:
        a = _planted(rng, rows, cols, r)
        with pytest.raises(ValueError, match="float32"):
            rank_mod(a.astype(np.float32))
        assert rank_mod(a) == r


def test_rank_mod_any_layout_and_orientation():
    # one matrix given in C and F order, tall and wide: the kernel works in
    # place on whichever layout it gets
    rng = np.random.default_rng(14)
    a = _planted(rng, 300, 170, 150)
    for m in (a, a.T):
        for order in "CF":
            assert rank_mod(np.array(m, order=order)) == 150


def test_rand_mod_bounds():
    rng = np.random.default_rng(10)
    x = rand_mod(rng, 10000)
    assert x.dtype == np.float64
    assert (x == np.rint(x)).all()
    assert -H <= x.min() < -0.9 * H and 0.9 * H < x.max() <= H
