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
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from math import ceil, gamma, inf, lgamma, log, log1p, pi, sqrt, ulp

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


def _simpson_weights(points: int, h: float) -> np.ndarray:
    w = np.ones(points)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def _poisson_pmf(lam: np.ndarray, d_max: int) -> np.ndarray:
    """exp((d ln lam - lam) - ln d!), built in place in one float64 array:
    rows are the means lam, columns are d = 0..d_max; a zero mean gives the
    point mass at 0."""
    ds = np.arange(d_max + 1, dtype=np.float64)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(ds[1:]))))
    with np.errstate(divide="ignore", invalid="ignore"):
        pmf = ds * np.log(lam)[:, None]
        pmf -= lam[:, None]
        pmf -= log_fact
        np.exp(pmf, out=pmf)
    pmf[lam == 0.0] = ds == 0
    return pmf


def _poisson_integral(lam: np.ndarray, lo: float, hi: float, d_max: int,
                      expectation):
    """Composite Simpson integral over [lo, hi] of expectation(pmf), pmf
    being _poisson_pmf(lam, d_max) on a grid of 4m + 1 equally spaced
    points, and its Richardson error estimate |S_N - S_{N/2}| / 15. Both
    sums build up, Kahan-compensated, over blocks of at most _BLOCK_CELLS
    pmf entries (or one grid row), so memory does not grow with the grid."""
    panels = len(lam) - 1
    weights = np.zeros((2, panels + 1))
    weights[0] = _simpson_weights(panels + 1, (hi - lo) / panels)
    weights[1, ::2] = _simpson_weights(panels // 2 + 1, 2.0 * (hi - lo) / panels)
    rows = max(1, _BLOCK_CELLS // (d_max + 1))
    sums = carry = 0.0
    for start in range(0, panels + 1, rows):
        f = expectation(_poisson_pmf(lam[start:start + rows], d_max))
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


def sunflower_densities(alpha: float, k: int = 3, d_max: int | None = None):
    """(a, err): the limiting share a_d of sunflower peel steps of degree
    d = 0..d_max, and a bound on the rounding error of each. With A = k alpha
    and s = 1/(k-1), a_d = s gamma(d+s, A) / (d! A^s) = c_d R_d, where
    c_d = s Gamma(d+s) / d!, R_d = sum_{i>=d} q_i, q_i = e^-A A^i/Gamma(i+s+1),
    the sum cut to i in [A - 12 sqrt(A) - 20, max(d_max, A) + 12 sqrt(A) + 20]
    (README, "Numerical notes")."""
    d_max = _cutoff(alpha, k, d_max, "d_max", 1)
    big, s, spread = k * alpha, 1.0 / (k - 1), int(12.0 * sqrt(k * alpha)) + 20
    lo, top = max(0, int(big) - spread), max(d_max, int(big)) + spread + 1
    # 72 B per degree and per q_i, measured with tracemalloc
    check_memory(80 * (d_max + top - lo + 2), "the sunflower degree table")
    x = (i := np.arange(lo, top + 1)) + s
    with np.errstate(over="ignore", invalid="ignore"):  # (x-A)/A = inf, tiny A
        # ln q_i in Loader's form, and the magnitudes bounding its rounding
        p, half = x * np.log1p((x - big) / big), 0.5 * np.log(2.0 * pi * x)
        log_q = (x - big) - p - _stirlerr(x) - half - s * log(big)
        size = np.abs(p) + np.abs(x - big) + half + s * abs(log(big)) + 1.0
        n = int(np.count_nonzero(x < 16))    # directly below x = 16
        g = np.array([lgamma(v + 1.0) for v in x[:n]])
        log_q[:n] = i[:n] * log(big) - big - g
        size[:n] = x[:n] * abs(log(big)) + big + np.abs(g) + x[:n] + 2.0
        q = np.exp(log_q)
        terms = np.stack([q, np.where(q > 0, q * size, 0.0)])
    r, e = np.cumsum(terms[:, ::-1], axis=1)[:, ::-1]
    d = np.arange(16.0, d_max + 1)
    c = np.exp(log(s) - s - (1.0 - s) * np.log(d + s) + (d + 0.5)
               * np.log1p(s / d) + _stirlerr(d + s) - _stirlerr(d))
    c = np.r_[[s * gamma(j + s) / gamma(j + 1) for j in range(16)][:d_max + 1], c]
    at = np.maximum(np.arange(d_max + 1) - lo, 0)
    relative = (16 * (abs(log(s)) + log(d_max + 1.0) + 3) + len(q) + 2) * U
    return c * r[at], c * (16 * U * e[at] + relative * r[at])


def sunflower_bound(alpha: float, k: int = 3,
                    d_max: int | None = None) -> BoundReport:
    """ln 2 + sum_{d<=d_max} a_d (d ln(1 - 2^(1-k)) + ln(d/(2^k-2) + 1)).
    d_max=None takes _cutoff's default, far into the Poisson tail; omitted
    terms are negative, so the value is an upper bound regardless."""
    a, err = sunflower_densities(alpha, k, d_max)
    ds = np.arange(len(a))
    slope, g = log1p(-(2.0 ** (1 - k))), np.log1p(ds / float((1 << k) - 2))
    w = ds * slope + g
    # numpy sums each contiguous array pairwise
    total, mass, edge_mass, g_mass, w_err = (
        float(np.sum(v)) for v in (a * w, a, a * ds, a * g, err * w))
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


def _poisson_tail(lam: float, truncation: int):
    """(P(d = 0..T), P(d > T)) of the Poisson law of mean lam. Below the
    mean, T < lam, P(d > T) is above about 1/2 and is read as 1 - P(d <= T)
    from T + 1 pmf columns; from it on, it is summed from the upper tail
    itself, whose terms past max(T, 2 lam) each are at most half the one
    before."""
    if truncation < lam:
        head = _poisson_pmf(np.array([lam]), truncation)[0]
        return head, max(1.0 - float(head.sum()), 0.0)
    pmf = _poisson_pmf(np.array([lam]), max(truncation, ceil(2 * lam)) + 60)[0]
    return pmf[:truncation + 1], min(float(pmf[truncation + 1:].sum()), 1.0)


def _series_terms_max(y: float) -> int:
    """A J at which the worst-case tail y^(J+1)/((J+1)(1-y)) of
    ln(1 - y) = -sum_j y^j/j is below SERIES_TAIL."""
    return ceil(log(SERIES_TAIL * (1.0 - y)) / log(y))


def _nosegay_preflight(k: int, truncation: int) -> None:
    """Refuse unbuilt, by check_memory, a (T+1) x J table of x(d)^j that
    cannot fit, J counted at its worst case _series_terms_max(x(T)^k). The
    first check, of one column, also refuses every T at which x(T)^k would
    round to 1."""
    check_memory(8 * (truncation + 1), "the nosegay series table")
    y = _nosegay_vertex_terms(k, np.array([truncation]))[1][0] ** k
    check_memory(8 * (truncation + 1) * _series_terms_max(y),
                 "the nosegay series table")


def _nosegay_terms(x: np.ndarray, k: int, top_mean: float) -> int:
    """J, the number of terms of ln(1 - y) = -sum_j y^j/j that
    _nosegay_expectation keeps, given x(d) for d = 0..T and top_mean, the
    largest Poisson mean of its pmf rows.

    g_j(d) = x(min(d, T))^j rises in d, and the Poisson law rises
    stochastically in its mean, so every row's E[x^j; d <= T] is at most
    E_top[g_j] under the mean top_mean; and x <= x(T), so each row's tail
    after J terms is at most E_top[g_(J+1)]^k / ((J+1)(1-y)), y = x(T)^k.
    J is the least j at which that bound, or the worst case
    y^(j+1)/((j+1)(1-y)) where it is smaller, is at most SERIES_TAIL. Both
    fall as j grows, so J is bisected, on the top row alone, below the
    worst-case count that the preflight charges.
    """
    y = x[-1] ** k
    head, tail = _poisson_tail(top_mean, len(x) - 1)
    # P(d > T) rounded up, far above the rounding of the pmf sums
    over = min(tail + 1e-9, 1.0)

    def fits(j: int) -> bool:
        top = head @ x ** (j + 1) + over * x[-1] ** (j + 1)
        return min(top ** k, y ** (j + 1)) / ((j + 1) * (1.0 - y)) <= SERIES_TAIL

    return bisect_left(range(1, _series_terms_max(y)), True, key=fits) + 1


def _nosegay_expectation(k: int, truncation: int, top_mean: float):
    """pmf -> E[nosegay log-weight; all d_i <= T], the d_i i.i.d. by each
    pmf row, a Poisson law of mean at most top_mean: k E[h] P^(k-1)
    - k ln 2 P^k - sum_{j<=J} E[x^j]^k / j, P the kept mass, from
    ln(1-y) = -sum_j y^j/j with J from _nosegay_terms. All terms are
    negative, so both cuts only raise the value. The table of x^j has
    T + 1 rows and J columns."""
    h, x = _nosegay_vertex_terms(k, np.arange(truncation + 1))
    js = np.arange(1, _nosegay_terms(x, k, top_mean) + 1)
    powers, inverses = x[:, None] ** js, 1.0 / js

    def expectation(pmf: np.ndarray) -> np.ndarray:
        mass = pmf.sum(axis=1)
        q = pmf @ powers
        np.power(q, k, out=q)
        return k * (pmf @ h) * mass ** (k - 1) - k * LN2 * mass ** k - q @ inverses

    return expectation


def nosegay_bound(alpha: float, k: int = 3,
                  truncation: int | None = None) -> BoundReport:
    """ln 2 + (1/k) integral over nu of E[ln(N(d)/2^t)], the d_i i.i.d.
    Poisson of mean k mu/nu along nosegay_ode.

    Vectors with some d_i above `truncation` are dropped; truncation=None
    takes _cutoff's default, as sunflower_bound does. The means rise with
    nu, so the last grid row, at nu = 1, has the largest (k alpha): its row
    sizes the ln(1 - y) series of every row (_nosegay_expectation), and
    max_poisson_tail is its dropped mass 1 - P(d <= T)^k, the largest of
    any row, from _poisson_tail.
    """
    truncation = _cutoff(alpha, k, truncation, "truncation", 10)
    _nosegay_preflight(k, truncation)
    c, nu0 = nosegay_ode(alpha, k)
    nus = np.linspace(nu0, 1.0, NOSEGAY_PANELS + 1)
    lam = np.maximum((c * nus ** (k - 1) - 1.0) / (k - 1), 0.0)
    expectation = _nosegay_expectation(k, truncation, lam[-1])
    integral, error = _poisson_integral(lam, nu0, 1.0, truncation, expectation)
    value, quad_error = LN2 + float(integral) / k, float(error) / k
    tail = _poisson_tail(lam[-1], truncation)[1]
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
    given the method's own option: d_max, truncation or none."""
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
    ROOT_PRECISION, so the arity is refused before any bound is evaluated."""
    check_model(0.5, k)     # the left end; refuses k before 2^k is built
    right = _NEGATIVE_AT.get((method, k))
    if right is None:
        right = (1 << k) * solve_b() + max(1.0, 2.0 ** k * 1e-10)
    if ulp(right) > ROOT_PRECISION:
        raise ValueError(f"at k = {k} floats near the root are {ulp(right):.3g} "
                         f"apart, wider than ROOT_PRECISION = {ROOT_PRECISION}")
    return bisect_bracket(lambda alpha: bound(method, alpha, k, **options).upper,
                          0.5, right, ROOT_PRECISION)[1]
