"""Analytic unsatisfiability bounds and threshold root-finding.

The per-qubit log-rank bounds all have the shape ln 2 + (expected gadget
log-weight per vertex); a negative value certifies that random formulas at
that clause density are unsatisfiable with high probability. The sunflower
bound sums closed-form degree densities, and its quad_error bounds their
rounding. Only the nosegay bound integrates, with _poisson_integral, and
its quad_error is a Richardson estimate; BoundReport.upper adds quad_error
to the value. Cutting degrees only raises the value, as every gadget
log-weight is negative. Both bounds refuse unbuilt, by rng.check_memory, a
cutoff whose tables cannot fit.

The two Poisson bounds split their work by what it depends on. Their
tables depend on k and the degree cutoff only: the sunflower's c_d, d,
ln(d/(2^k-2) + 1) and log-weights, and the alpha-free terms of its ln q_i
window; the nosegay's h(d), x(d), its (T+1) x J table of x(d)^j, ln d! and
the Simpson pattern of its fixed grid. The alpha step reads them and builds
what depends on alpha: the q_i, the Poisson means, the pmf rows and the
sums. A Tables memo holds the tables for one top-level call:
threshold_root makes one per search and passes it to every bound it
evaluates, so a table is built once per distinct key, and a bound called
without one builds its own and drops it on return. No table is kept
between calls.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from math import ceil, gamma, inf, lgamma, log, log1p, pi, sqrt, ulp
from typing import Callable

import numpy as np

from .hypergraph import check_arity
from .rng import check_memory, require_int

LN2 = log(2.0)
# pmf entries per block of the Poisson integrator: about 8 MB of float64
_BLOCK_CELLS = 1 << 20
# what the ln(1 - y) series of the nosegay bound may leave out per vector
SERIES_TAIL = 1e-17
# Simpson panels over nu; a multiple of 4 keeps the half-resolution rule of
# the error estimate Simpson too
NOSEGAY_PANELS = 1000
U = 2.0 ** -53    # float64's unit roundoff


class Tables:
    """The tables of one top-level call, by kind: at most one of each kind,
    built for one key. All but the nosegay's top row, which one bound reads
    twice, depend on k and the cutoff only. Asking for another key drops the
    held table before building the new one, so a search holds one table of
    each kind at its current cutoff, never two."""

    def __init__(self):
        self._held: dict[str, tuple[tuple, tuple]] = {}

    def get(self, kind: str, key: tuple, build: Callable[[], tuple]) -> tuple:
        """The table of this kind for key, a tuple of arrays and numbers
        that build() makes where the one held has another key."""
        if kind not in self._held or self._held[kind][0] != key:
            self._held.pop(kind, None)    # freed before its successor is built
            self._held[kind] = (key, build())
        return self._held[kind][1]

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays held, a view counted as the array it shows."""
        return sum((v if v.base is None else v.base).nbytes
                   for _, table in self._held.values() for v in table
                   if isinstance(v, np.ndarray))


@dataclass(frozen=True)
class BoundReport:
    """verdict is unsat-whp exactly when upper = value + quad_error < 0: it
    is derived, never passed in, and threshold_root bisects upper too."""
    method: str
    alpha: float
    k: int
    value: float
    quad_error: float = 0.0
    params: dict = field(default_factory=dict)
    verdict: str = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "verdict", "unsat-whp" if self.upper < 0
                           else "inconclusive")

    @property
    def upper(self) -> float:
        return self.value + self.quad_error


def check_model(alpha: float, k: int = 3) -> None:
    """Refuse alpha not positive and finite, and k outside 2..1023."""
    if not 0 < alpha < inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    check_arity(k)
    if k >= 1024:
        raise ValueError(f"arity k = {k} is too large: 2^k overflows a float")


def _simpson_pattern(panels: int) -> tuple[np.ndarray]:
    """Simpson's 1, 4, 2, ..., 4, 1 over panels + 1 points (row 0) and over
    every second point (row 1, zero between): the weights of the rule and of
    its half-resolution check before they are scaled by their step / 3."""
    base = np.zeros((2, panels + 1))
    for w in (base[0], base[1, ::2]):
        w[:] = 1.0
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
    return (base,)


def _log_factorials(d_max: int) -> tuple[np.ndarray, np.ndarray]:
    """d = 0..d_max as floats and ln d!, a running sum of logs."""
    ds = np.arange(d_max + 1, dtype=np.float64)
    return ds, np.concatenate(([0.0], np.cumsum(np.log(ds[1:]))))


def _pmf_rows(lam: np.ndarray, ds: np.ndarray,
              log_fact: np.ndarray) -> np.ndarray:
    """_poisson_pmf from the tables of _log_factorials."""
    with np.errstate(divide="ignore", invalid="ignore"):
        pmf = ds * np.log(lam)[:, None]
        pmf -= lam[:, None]
        pmf -= log_fact
        np.exp(pmf, out=pmf)
    pmf[lam == 0.0] = ds == 0
    return pmf


def _poisson_pmf(lam: np.ndarray, d_max: int) -> np.ndarray:
    """exp((d ln lam - lam) - ln d!), built in place in one float64 array:
    rows are the means lam, columns are d = 0..d_max; a zero mean gives the
    point mass at 0."""
    return _pmf_rows(lam, *_log_factorials(d_max))


def _poisson_integral(lam: np.ndarray, lo: float, hi: float, d_max: int,
                      expectation, tables: Tables | None = None):
    """Composite Simpson integral over [lo, hi] of expectation(pmf), pmf
    being _poisson_pmf(lam, d_max) on a grid of 4m + 1 equally spaced
    points, and its Richardson error estimate |S_N - S_{N/2}| / 15. Both
    sums build up, Kahan-compensated, over blocks of at most _BLOCK_CELLS
    pmf entries (or one grid row), so memory does not grow with the grid.
    The Simpson pattern and ln d! come from tables, which depend on the
    grid size and d_max only."""
    tables = Tables() if tables is None else tables
    panels = len(lam) - 1
    (base,) = tables.get("simpson", (panels,), lambda: _simpson_pattern(panels))
    factorials = tables.get("log factorials", (d_max,),
                            lambda: _log_factorials(d_max))
    weights = base * np.array([[(hi - lo) / panels / 3.0],
                               [2.0 * (hi - lo) / panels / 3.0]])
    rows = max(1, _BLOCK_CELLS // (d_max + 1))
    sums = carry = 0.0
    for start in range(0, panels + 1, rows):
        f = expectation(_pmf_rows(lam[start:start + rows], *factorials))
        part = weights[:, start:start + rows] @ f - carry
        sums, carry = sums + part, ((sums + part) - sums) - part
    return sums[0], abs(sums[0] - sums[1]) / 15.0


def _cutoff(alpha: float, k: int, cutoff, name: str, least: int) -> int:
    """check_model and a finite top mean k alpha of both Poisson bounds, then
    the degree cutoff given (require_int, >= least) or, for None, 12 sd plus
    20 above that mean."""
    check_model(alpha, k)
    if not k * alpha < inf:
        raise ValueError(f"alpha = {alpha} is too large: the top Poisson mean "
                         f"k alpha overflows a float at k = {k}")
    if cutoff is None:
        cutoff = int(ceil(k * alpha + 12.0 * sqrt(k * alpha))) + 20
    return require_int(cutoff, name, least)


def _stirlerr(x: np.ndarray) -> np.ndarray:
    """ln Gamma(x+1) - (x+1/2) ln x + x - ln(2 pi)/2 by five terms of its
    asymptotic series; from x = 16 on the rest is below 1.1e-16."""
    z = (y := 1.0 / x) * y
    return y * (1/12 - z * (1/360 - z * (1/1260 - z * (1/1680 - z/1188))))


def _sunflower_degrees(k: int, d_max: int) -> tuple:
    """The sunflower's tables over d = 0..d_max: c_d = s Gamma(d+s)/d!
    (s = 1/(k-1)), d, g(d) = ln(d/(2^k-2) + 1), the gadget log-weight
    w(d) = d ln(1 - 2^(1-k)) + g(d), and the slope ln(1 - 2^(1-k))."""
    s = 1.0 / (k - 1)
    d = np.arange(16.0, d_max + 1)
    c = np.exp(log(s) - s - (1.0 - s) * np.log(d + s) + (d + 0.5)
               * np.log1p(s / d) + _stirlerr(d + s) - _stirlerr(d))
    c = np.r_[[s * gamma(j + s) / gamma(j + 1) for j in range(16)][:d_max + 1], c]
    ds = np.arange(d_max + 1)
    slope, g = log1p(-(2.0 ** (1 - k))), np.log1p(ds / float((1 << k) - 2))
    return c, ds, g, ds * slope + g, slope


def _sunflower_window(k: int, lo: int, top: int) -> tuple:
    """The alpha-free parts of ln q_i over the window i = lo..top: i,
    x = i + s, ln(2 pi x)/2 and _stirlerr(x), and for the n points below
    x = 16 ln Gamma(x + 1) itself."""
    x = (i := np.arange(lo, top + 1)) + 1.0 / (k - 1)
    n = int(np.count_nonzero(x < 16))    # directly below x = 16
    return (i, x, 0.5 * np.log(2.0 * pi * x), _stirlerr(x), n,
            np.array([lgamma(v + 1.0) for v in x[:n]]))


def sunflower_densities(alpha: float, k: int = 3, d_max: int | None = None,
                        *, tables: Tables | None = None):
    """(a, err): the limiting share a_d of sunflower peel steps of degree
    d = 0..d_max, and a bound on the rounding error of each. With A = k alpha
    and s = 1/(k-1), a_d = s gamma(d+s, A) / (d! A^s) = c_d R_d, where
    c_d = s Gamma(d+s) / d!, R_d = sum_{i>=d} q_i, q_i = e^-A A^i/Gamma(i+s+1),
    the sum cut to i in [A - 12 sqrt(A) - 20, max(d_max, A) + 12 sqrt(A) + 20]
    (README, "Numerical notes"). c_d and the window's alpha-free terms come
    from tables."""
    d_max = _cutoff(alpha, k, d_max, "d_max", 1)
    big, s, spread = k * alpha, 1.0 / (k - 1), int(12.0 * sqrt(k * alpha)) + 20
    lo, top = max(0, int(big) - spread), max(d_max, int(big)) + spread + 1
    tables = Tables() if tables is None else tables
    # at most 67 B per degree and per q_i at k = 14 and 16, tables and
    # temporaries together, measured with tracemalloc
    check_memory(80 * (d_max + top - lo + 2), "the sunflower degree table")
    c, ds = tables.get("sunflower degrees", (k, d_max),
                       lambda: _sunflower_degrees(k, d_max))[:2]
    i, x, half, stirlerr, n, g = tables.get(
        "sunflower window", (k, lo, top), lambda: _sunflower_window(k, lo, top))
    with np.errstate(over="ignore", invalid="ignore"):  # (x-A)/A = inf, tiny A
        # ln q_i in Loader's form, and the magnitudes bounding its rounding
        p = x * np.log1p((x - big) / big)
        log_q = (x - big) - p - stirlerr - half - s * log(big)
        size = np.abs(p) + np.abs(x - big) + half + s * abs(log(big)) + 1.0
        log_q[:n] = i[:n] * log(big) - big - g
        size[:n] = x[:n] * abs(log(big)) + big + np.abs(g) + x[:n] + 2.0
        q = np.exp(log_q)
        terms = np.stack([q, np.where(q > 0, q * size, 0.0)])
    r, e = np.cumsum(terms[:, ::-1], axis=1)[:, ::-1]
    relative = (16 * (abs(log(s)) + log(d_max + 1.0) + 3) + len(q) + 2) * U
    at = np.maximum(ds - lo, 0)
    return c * r[at], c * (16 * U * e[at] + relative * r[at])


def sunflower_bound(alpha: float, k: int = 3, d_max: int | None = None,
                    *, tables: Tables | None = None) -> BoundReport:
    """ln 2 + sum_{d<=d_max} a_d (d ln(1 - 2^(1-k)) + ln(d/(2^k-2) + 1)).
    d_max=None takes _cutoff's default, far into the Poisson tail; omitted
    terms are negative, so the value is an upper bound regardless. tables,
    which threshold_root passes, holds the per-degree tables; without it
    the bound builds its own."""
    tables = Tables() if tables is None else tables
    a, err = sunflower_densities(alpha, k, d_max, tables=tables)
    _, ds, g, w, slope = tables.get("sunflower degrees", (k, len(a) - 1),
                                    lambda: _sunflower_degrees(k, len(a) - 1))
    # numpy sums each contiguous array pairwise; one product at a time
    mass = float(np.sum(a))
    total, edge_mass, g_mass, w_err = (
        float(np.sum(u * v)) for u, v in ((a, w), (a, ds), (a, g), (err, w)))
    value = LN2 + total
    quad_error = (16 * U * (g_mass - slope * edge_mass) - w_err
                  - (len(a).bit_length() + 32) * U * total + U * (abs(value) + 1))
    return BoundReport("sunflower", float(alpha), k, value, quad_error, {
        "d_max": len(a) - 1, "density_mass": mass, "density_edge_mass": edge_mass})


def nosegay_ode(alpha: float, k: int = 3) -> tuple[float, float]:
    """c and nu0 of the nosegay peel's closed-form trajectory.

    Its edges per original vertex, mu(nu) = nu(c nu^(k-1) - 1)/(k(k-1))
    with c = k(k-1) alpha + 1, solve d mu/d nu = 1/k + k mu/nu with
    mu(1) = alpha and hit zero at nu0 = c^(-1/(k-1)); each vertex degree
    is then Poisson of mean k mu/nu = (c nu^(k-1) - 1)/(k-1).
    """
    check_model(alpha, k)
    c = k * (k - 1) * alpha + 1.0
    if c == inf:
        raise ValueError(f"alpha = {alpha} is too large: the nosegay's "
                         f"c = k(k-1) alpha + 1 overflows a float at k = {k}")
    return c, c ** (-1.0 / (k - 1))


def _nosegay_vertex_terms(k: int, ds: np.ndarray):
    """h(d) and x(d) such that the k-uniform nosegay log-weight is
    sum_i h(d_i) - k ln 2 + ln(1 - prod_i x(d_i)); M = 2^(k-1) - 1."""
    m = float((1 << (k - 1)) - 1)
    h = (ds - 1) * log(m) + np.log(ds + 2.0 * m) - (k - 1) * ds * LN2
    return h, (ds + m) / (ds + 2.0 * m)


def _tail_width(lam: float, truncation: int) -> int:
    """Columns of _poisson_tail's pmf row: T + 1 below the mean, else
    max(T, ceil(2 lam)) + 61."""
    if truncation < lam:
        return truncation + 1
    return max(truncation, ceil(2 * lam)) + 61


def _poisson_tail(lam: float, truncation: int):
    """(P(d = 0..T), P(d > T)) of the Poisson law of mean lam. Below the
    mean, T < lam, P(d > T) is above about 1/2 and is read as 1 - P(d <= T)
    from T + 1 pmf columns; from it on, it is summed from the upper tail
    itself, whose terms past max(T, 2 lam) each are at most half the one
    before."""
    pmf = _poisson_pmf(np.array([lam]), _tail_width(lam, truncation) - 1)[0]
    if truncation < lam:
        return pmf, max(1.0 - float(pmf.sum()), 0.0)
    return pmf[:truncation + 1], min(float(pmf[truncation + 1:].sum()), 1.0)


def _top_row(top_mean: float, truncation: int, tables: Tables):
    """_poisson_tail at the largest mean, built once per bound."""
    return tables.get("nosegay top row", (top_mean, truncation),
                      lambda: _poisson_tail(top_mean, truncation))


def _series_terms_max(y: float) -> int:
    """A J at which the worst-case tail y^(J+1)/((J+1)(1-y)) of
    ln(1 - y) = -sum_j y^j/j is below SERIES_TAIL."""
    return ceil(log(SERIES_TAIL * (1.0 - y)) / log(y))


def _nosegay_preflight(k: int, truncation: int, top_mean: float,
                       tables: Tables) -> None:
    """Refuse unbuilt, by check_memory, a nosegay bound whose arrays cannot
    fit together, J counted at its worst case _series_terms_max(x(T)^k): the
    (T+1) x J table of x(d)^j; one pmf block of at most _BLOCK_CELLS
    entries (or one row) with its q = pmf @ x^j; the top row's pmf with its
    d and ln d! arrays and their temporaries; eight vectors per degree, per
    grid point and per block row; and what tables already holds. The first
    check, of one column, also refuses every T at which x(T)^k would round
    to 1."""
    check_memory(8 * (truncation + 1), "the nosegay series table")
    y = _nosegay_vertex_terms(k, np.array([truncation]))[1][0] ** k
    width, terms = truncation + 1, _series_terms_max(y)
    rows = min(NOSEGAY_PANELS + 1, max(1, _BLOCK_CELLS // width))
    floats = ((width + rows) * terms + rows * width
              + 6 * _tail_width(top_mean, truncation)
              + 8 * (width + NOSEGAY_PANELS + 1 + rows))
    check_memory(8 * floats + tables.nbytes,
                 "the nosegay series table and pmf block")


def _nosegay_terms(x: np.ndarray, k: int, top: tuple) -> int:
    """J, the number of terms of ln(1 - y) = -sum_j y^j/j that
    _nosegay_expectation keeps, given x(d) for d = 0..T and top, the
    _poisson_tail (head, tail) of the largest Poisson mean of its pmf rows.

    g_j(d) = x(min(d, T))^j rises in d, and the Poisson law rises
    stochastically in its mean, so every row's E[x^j; d <= T] is at most
    E_top[g_j] under the top mean; and x <= x(T), so each row's tail
    after J terms is at most E_top[g_(J+1)]^k / ((J+1)(1-y)), y = x(T)^k.
    J is the least j at which that bound, or the worst case
    y^(j+1)/((j+1)(1-y)) where it is smaller, is at most SERIES_TAIL. Both
    fall as j grows, so J is bisected, on the top row alone, below the
    worst-case count that the preflight charges.
    """
    y = x[-1] ** k
    head, tail = top
    # P(d > T) rounded up, far above the rounding of the pmf sums
    over = min(tail + 1e-9, 1.0)

    def fits(j: int) -> bool:
        top = head @ x ** (j + 1) + over * x[-1] ** (j + 1)
        return min(top ** k, y ** (j + 1)) / ((j + 1) * (1.0 - y)) <= SERIES_TAIL

    return bisect_left(range(1, _series_terms_max(y)), True, key=fits) + 1


def _series_powers(x: np.ndarray, terms: int) -> tuple[np.ndarray, np.ndarray]:
    """x(d)^j for j = 1..J, a (T+1) x J table, and the 1/j."""
    js = np.arange(1, terms + 1)
    return x[:, None] ** js, 1.0 / js


def _nosegay_expectation(k: int, truncation: int, top_mean: float,
                         tables: Tables | None = None):
    """pmf -> E[nosegay log-weight; all d_i <= T], the d_i i.i.d. by each
    pmf row, a Poisson law of mean at most top_mean: k E[h] P^(k-1)
    - k ln 2 P^k - sum_{j<=J} E[x^j]^k / j, P the kept mass, from
    ln(1-y) = -sum_j y^j/j with J from _nosegay_terms. All terms are
    negative, so both cuts only raise the value. h, x and the (T+1) x J
    table of x^j come from tables; only J depends on top_mean."""
    tables = Tables() if tables is None else tables
    h, x = tables.get("nosegay vertex terms", (k, truncation),
                      lambda: _nosegay_vertex_terms(k, np.arange(truncation + 1)))
    terms = _nosegay_terms(x, k, _top_row(top_mean, truncation, tables))
    powers, inverses = tables.get("nosegay series", (k, truncation, terms),
                                  lambda: _series_powers(x, terms))

    def expectation(pmf: np.ndarray) -> np.ndarray:
        mass = pmf.sum(axis=1)
        q = pmf @ powers
        np.power(q, k, out=q)
        return k * (pmf @ h) * mass ** (k - 1) - k * LN2 * mass ** k - q @ inverses

    return expectation


def nosegay_bound(alpha: float, k: int = 3, truncation: int | None = None,
                  *, tables: Tables | None = None) -> BoundReport:
    """ln 2 + (1/k) integral over nu of E[ln(N(d)/2^t)], the d_i i.i.d.
    Poisson of mean k mu/nu along nosegay_ode.

    Vectors with some d_i above `truncation` are dropped; truncation=None
    takes _cutoff's default, as sunflower_bound does. The means rise with
    nu, so the last grid row, at nu = 1, has the largest (k alpha): its row
    sizes the ln(1 - y) series of every row (_nosegay_expectation), and
    max_poisson_tail is its dropped mass 1 - P(d <= T)^k, the largest of
    any row, from _poisson_tail. tables, which threshold_root passes,
    holds the tables that depend on k and T only; without it the bound
    builds its own.
    """
    truncation = _cutoff(alpha, k, truncation, "truncation", 10)
    c, nu0 = nosegay_ode(alpha, k)
    nus = np.linspace(nu0, 1.0, NOSEGAY_PANELS + 1)
    lam = np.maximum((c * nus ** (k - 1) - 1.0) / (k - 1), 0.0)
    tables = Tables() if tables is None else tables
    _nosegay_preflight(k, truncation, lam[-1], tables)
    expectation = _nosegay_expectation(k, truncation, lam[-1], tables)
    integral, error = _poisson_integral(lam, nu0, 1.0, truncation, expectation,
                                        tables)
    value, quad_error = LN2 + float(integral) / k, float(error) / k
    tail = _top_row(lam[-1], truncation, tables)[1]
    return BoundReport("nosegay", float(alpha), k, value, quad_error, {
        "truncation": truncation, "quadrature_points": NOSEGAY_PANELS,
        "nu0": nu0,
        # 1 - (1 - tail)^k, accurate at both ends
        "max_poisson_tail": tail * sum((1.0 - tail) ** i for i in range(k))})


def general_k_bound(alpha: float, k: int) -> BoundReport:
    """ln 2 + alpha ln(1 - 2^(1-k)) + ln(alpha/(2^k - 2) + 1).

    Arithmetic-mean relaxation of the sunflower sum; weaker but closed-form.
    """
    check_model(alpha, k)
    value = LN2 + alpha * log1p(-(2.0 ** (1 - k))) + log1p(alpha / ((1 << k) - 2))
    return BoundReport(method="general_k", alpha=float(alpha), k=k, value=value)


def bisect_bracket(f, lo: float, hi: float, width: float) -> tuple[float, float]:
    """Plain bisection's bracket of a non-increasing f, from few
    evaluations of f.

    f must be positive at lo, negative at hi and non-increasing on [lo, hi].
    Plain bisection replaces hi by the midpoint 0.5 (lo + hi) where f is
    negative there, and lo otherwise, until hi - lo <= width. This returns
    the same (lo, hi), bit for bit:

    1. Illinois false position (Dowell and Jarratt, BIT 1971) shrinks an
       evaluated bracket a < b, f(a) >= 0 > f(b), to width / 16, to adjacent
       floats, or until it has made as many evaluations as plain bisection.
    2. Plain bisection's midpoints are replayed from (lo, hi). Since f does
       not increase, a midpoint <= a has f >= 0 and one >= b has f < 0, so
       each takes the branch that plain bisection takes; only midpoints
       strictly between a and b are evaluated.
    3. The returned hi is evaluated if it was not yet, and f must be
       negative there. So hi is always a point where f was evaluated
       negative, and an f found non-negative there, which cannot be
       non-increasing, is refused with ValueError rather than trusted.

    So f is evaluated at most about twice as often as by plain bisection,
    and for the roots of this module's bounds a third to a half as often
    (6 evaluations against 18 for the sunflower at k = 3). ValueError is
    also raised where the bracket closes on adjacent floats still wider
    than `width`, where plain bisection would loop forever.
    """
    values = {lo: f(lo), hi: f(hi)}
    a, fa, b, fb = lo, values[lo], hi, values[hi]
    if not fa > 0 > fb:
        raise ValueError(f"no sign change on [{lo}, {hi}]: "
                         f"f(lo)={fa:.3g}, f(hi)={fb:.3g}")
    # phase 1 stops once plain bisection would have ended: span is its
    # bracket's width after as many evaluations
    side, span = 0, hi - lo
    while b - a > width / 16 and span > width:
        span *= 0.5
        x = b - fb * (b - a) / (fb - fa)
        if not a < x < b:
            x = 0.5 * (a + b)
            if not a < x < b:
                break
        fx = values[x] = f(x)
        # Illinois: an end kept twice in a row has its value halved
        if fx < 0:
            if side < 0:
                fa *= 0.5
            b, fb, side = x, fx, -1
        else:
            if side > 0:
                fb *= 0.5
            a, fa, side = x, fx, 1
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            raise ValueError(f"bisection cannot narrow [{lo!r}, {hi!r}] to "
                             f"width {width}: no float lies between them")
        if a < mid < b:
            values[mid] = f(mid)
        if mid >= b or (mid > a and values[mid] < 0):
            hi = mid
        else:
            lo = mid
    if hi not in values:
        values[hi] = f(hi)
    if not values[hi] < 0:
        raise ValueError(f"f is not non-increasing on [{lo!r}, {hi!r}]: "
                         f"f(hi)={values[hi]:.3g} at the returned hi")
    return lo, hi


def solve_b() -> float:
    """Unique positive root of ln 2 - 2b + ln(b + 1) = 0, bisected to 1e-10."""
    lo, hi = bisect_bracket(lambda b: LN2 - 2.0 * b + log1p(b), 0.0, 2.0, 1e-10)
    return 0.5 * (lo + hi)


def single_clause_threshold(k: int) -> float:
    """Density above which independent single-clause factors already certify
    unsatisfiability: ln 2 / (-ln(1 - 2^(-k)))."""
    check_arity(k)
    rate = -log1p(-(2.0 ** -k))     # 0.0 from k = 1075 on
    if rate < LN2 / np.finfo(float).max:
        raise ValueError(f"the single-clause threshold overflows a float at k = {k}")
    return LN2 / rate


def bound(method: str, alpha: float, k: int = 3, **options) -> BoundReport:
    """The "sunflower", "nosegay" or "general_k" bound at density alpha,
    given the method's own option: d_max, truncation or none. The first two
    also take threshold_root's tables; without it they build their own."""
    # looked up per call, so a rebound module attribute reaches every caller
    methods = {"sunflower": sunflower_bound, "nosegay": nosegay_bound,
               "general_k": general_k_bound}
    if method not in methods:
        raise ValueError(f"unknown method {method!r}")
    return methods[method](alpha, k, **options)


ROOT_PRECISION = 1e-4
# densities at which the k = 3 bounds are already negative
_NEGATIVE_AT = {("nosegay", 3): 3.594, ("sunflower", 3): 3.894}


def threshold_root(method: str, k: int = 3, **options) -> float:
    """A density at most ROOT_PRECISION above the zero crossing of the
    selected bound's upper (value + quad_error), at which upper was evaluated
    negative: the right end of the bracket that bisection ends with.
    bisect_bracket rests on the bound falling as alpha grows (gadget
    log-weights fall with degree, and the Poisson means rise with alpha).
    Rounding and the nosegay's error estimate have no such proof, so it
    evaluates the right end if it had not and refuses an upper not negative
    there. The bracket starts from 0.5 and a density known to certify,
    _NEGATIVE_AT or else 2^k b plus max(1, 2^k 1e-10), a margin that covers
    solve_b's bisection width; tests find the general-k bound negative there
    for k = 3..39. From k = 40 on, floats near the root are spaced wider than
    ROOT_PRECISION, so the arity is refused before any bound is evaluated.
    The sunflower and nosegay bounds share one Tables memo for the search,
    so each table that depends on (k, cutoff) only is built once per key."""
    check_model(0.5, k)     # the left end; refuses k before 2^k is built
    right = _NEGATIVE_AT.get((method, k))
    if right is None:
        right = (1 << k) * solve_b() + max(1.0, 2.0 ** k * 1e-10)
    if ulp(right) > ROOT_PRECISION:
        raise ValueError(f"at k = {k} floats near the root are {ulp(right):.3g} "
                         f"apart, wider than ROOT_PRECISION = {ROOT_PRECISION}")
    if method != "general_k":
        options["tables"] = Tables()    # dropped when the search returns
    return bisect_bracket(lambda alpha: bound(method, alpha, k, **options).upper,
                          0.5, right, ROOT_PRECISION)[1]
