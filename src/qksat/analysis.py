"""Analytic unsatisfiability bounds and threshold root-finding.

The per-qubit log-rank bounds all have the shape ln 2 + (expected gadget
log-weight per vertex); a negative value certifies that random formulas at
that clause density are unsatisfiable with high probability. The sunflower and
nosegay bounds integrate an expectation under i.i.d. Poisson degrees along
their peel's trajectory with one integrator, _poisson_integral. It builds the
pmf in log space, so that terms survive large degrees, a block of grid rows
at a time: one float64 array of at most _BLOCK_CELLS = 2^20 entries (8 MB),
built in place. Its grids are fixed: SUNFLOWER_PANELS = 4096 Simpson panels
over peel time t, NOSEGAY_PANELS = 1000 over nu. On those grids the Simpson
rule carries a Richardson error estimate (|S_N - S_{N/2}| / 15) that is
reported, never silently trusted.

Truncations are one-sided by construction: every gadget log-weight is
negative, so cutting the degree sum or the Poisson expectation only raises
the reported value, and a negative truncated bound still certifies. The
nosegay bound reports the Poisson mass it drops (max_poisson_tail). Both
refuse a cutoff whose tables cannot fit in memory before building them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, inf, log, log1p, sqrt, ulp

import numpy as np

from .hypergraph import check_arity
from .rank_oracle import check_memory
from .rng import require_int

LN2 = log(2.0)
# pmf entries per block of the Poisson integrator: about 8 MB of float64
_BLOCK_CELLS = 1 << 20
# what the ln(1 - y) series of the nosegay bound may leave out per vector
SERIES_TAIL = 1e-17
# Simpson panels over t (sunflower) and over nu (nosegay); multiples of 4
# keep the half-resolution rule of the error estimate Simpson too
SUNFLOWER_PANELS, NOSEGAY_PANELS = 4096, 1000


@dataclass(frozen=True)
class BoundReport:
    method: str
    alpha: float
    k: int
    value: float
    verdict: str
    quad_error: float = 0.0
    params: dict = field(default_factory=dict)


def check_model(alpha: float, k: int = 3) -> None:
    """Refuse alpha not positive and finite, and k outside 2..1023."""
    if not 0 < alpha < inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    check_arity(k)
    if k >= 1024:
        raise ValueError(f"arity k = {k} is too large: 2^k overflows a float")


def _verdict(upper: float) -> str:
    """unsat-whp when the bound is negative even with its error estimate
    (value + quad_error) added."""
    return "unsat-whp" if upper < 0 else "inconclusive"


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


def _auto_dmax(alpha: float, k: int) -> int:
    """Both bounds' degree cutoff: 12 sd plus 20 above their top mean."""
    mean = k * alpha
    return int(ceil(mean + 12.0 * sqrt(mean))) + 20


def sunflower_bound(alpha: float, k: int = 3,
                    d_max: int | None = None) -> BoundReport:
    """ln 2 + sum_{d<=d_max} a_d (d ln(1 - 2^(1-k)) + ln(d/(2^k-2) + 1)).

    d_max=None takes _auto_dmax(alpha, k), far into the Poisson tail. The
    omitted terms are negative, so the value is an upper bound regardless.
    """
    check_model(alpha, k)
    if d_max is None:
        d_max = _auto_dmax(alpha, k)
    require_int(d_max, "d_max", 1)
    # the table, one pmf row and their temporaries: 65 B per degree measured
    check_memory(80 * (d_max + 1), "the sunflower degree table")
    ds = np.arange(d_max + 1)
    table = np.stack([ds * log1p(-(2.0 ** (1 - k)))
                      + np.log(ds / float((1 << k) - 2) + 1.0),
                      np.ones(d_max + 1), ds], axis=1)
    t = np.linspace(0.0, 1.0, SUNFLOWER_PANELS + 1)
    (total, mass, edge_mass), errors = _poisson_integral(
        k * alpha * t ** (k - 1), 0.0, 1.0, d_max, lambda pmf: pmf @ table)
    value, quad_error = LN2 + float(total), float(errors[0])
    return BoundReport(
        method="sunflower", alpha=float(alpha), k=k, value=value,
        verdict=_verdict(value + quad_error), quad_error=quad_error,
        params={
            "d_max": d_max,
            "quadrature_points": SUNFLOWER_PANELS,
            "density_mass": float(mass),
            "density_edge_mass": float(edge_mass),
        },
    )


def nosegay_ode(alpha: float, k: int = 3) -> tuple[float, float]:
    """c and nu0 of the nosegay peel's closed-form trajectory.

    Its edges per original vertex, mu(nu) = nu(c nu^(k-1) - 1)/(k(k-1))
    with c = k(k-1) alpha + 1, solve d mu/d nu = 1/k + k mu/nu with
    mu(1) = alpha and hit zero at nu0 = c^(-1/(k-1)); each vertex degree
    is then Poisson of mean k mu/nu = (c nu^(k-1) - 1)/(k-1).
    """
    check_model(alpha, k)
    c = k * (k - 1) * alpha + 1.0
    return c, c ** (-1.0 / (k - 1))


def _nosegay_vertex_terms(k: int, ds: np.ndarray):
    """h(d) and x(d) such that the k-uniform nosegay log-weight is
    sum_i h(d_i) - k ln 2 + ln(1 - prod_i x(d_i)); M = 2^(k-1) - 1."""
    m = float((1 << (k - 1)) - 1)
    h = (ds - 1) * log(m) + np.log(ds + 2.0 * m) - (k - 1) * ds * LN2
    return h, (ds + m) / (ds + 2.0 * m)


def _nosegay_expectation(k: int, truncation: int):
    """pmf -> E[nosegay log-weight; all d_i <= T], the d_i i.i.d. by each
    pmf row: k E[h] P^(k-1) - k ln 2 P^k - sum_{j<=J} E[x^j]^k / j, P the
    kept mass, from ln(1-y) = -sum_j y^j/j. J is the least with tail
    y^(J+1)/((J+1)(1-y)) <= SERIES_TAIL at y = x(T)^k, the largest y kept;
    all terms are negative, so both cuts only raise the value. The (T+1) x J
    table of x^j is refused unbuilt if its first column, or J's bound
    ln(SERIES_TAIL (1-y)) / ln y, says it cannot fit in memory; the first
    check also refuses every T at which y would round to 1."""
    check_memory(8 * (truncation + 1), "the nosegay series table")
    y, terms = _nosegay_vertex_terms(k, np.array([truncation]))[1][0] ** k, 1
    terms_max = ceil(log(SERIES_TAIL * (1.0 - y)) / log(y))
    check_memory(8 * (truncation + 1) * terms_max, "the nosegay series table")
    h, x = _nosegay_vertex_terms(k, np.arange(truncation + 1))
    while y ** (terms + 1) / ((terms + 1) * (1.0 - y)) > SERIES_TAIL:
        terms += 1
    js = np.arange(1, terms + 1)
    powers, inverses = x[:, None] ** js, 1.0 / js

    def expectation(pmf: np.ndarray) -> np.ndarray:
        mass = pmf.sum(axis=1)
        return (k * (pmf @ h) * mass ** (k - 1) - k * LN2 * mass ** k
                - (pmf @ powers) ** k @ inverses)

    return expectation


def nosegay_bound(alpha: float, k: int = 3,
                  truncation: int | None = None) -> BoundReport:
    """ln 2 + (1/k) integral over nu of E[ln(N(d)/2^t)], the d_i i.i.d.
    Poisson of mean k mu/nu along nosegay_ode.

    Vectors with some d_i above `truncation` are dropped; truncation=None
    takes _auto_dmax(alpha, k), as sunflower_bound does. max_poisson_tail
    is the dropped mass 1 - P(d <= T)^k at nu = 1, where the mean (k alpha)
    and with it the tail are largest, summed from the upper tail itself.
    """
    check_model(alpha, k)
    if truncation is None:
        truncation = _auto_dmax(alpha, k)
    require_int(truncation, "truncation", 10)
    expectation = _nosegay_expectation(k, truncation)
    c, nu0 = nosegay_ode(alpha, k)
    nus = np.linspace(nu0, 1.0, NOSEGAY_PANELS + 1)
    lam = np.maximum((c * nus ** (k - 1) - 1.0) / (k - 1), 0.0)
    integral, error = _poisson_integral(lam, nu0, 1.0, truncation, expectation)
    value, quad_error = LN2 + float(integral) / k, float(error) / k
    # past max(T, 2 lam[-1]) each pmf term is at most half the one before
    pmf = _poisson_pmf(lam[-1:], max(truncation, ceil(2 * lam[-1])) + 60)
    tail = min(float(pmf[0, truncation + 1:].sum()), 1.0)
    return BoundReport(
        method="nosegay", alpha=float(alpha), k=k, value=value,
        verdict=_verdict(value + quad_error), quad_error=quad_error,
        params={
            "truncation": truncation,
            "quadrature_points": NOSEGAY_PANELS,
            "nu0": nu0,
            # 1 - (1 - tail)^k, accurate at both ends
            "max_poisson_tail": tail * sum((1.0 - tail) ** i for i in range(k)),
        },
    )


def general_k_bound(alpha: float, k: int) -> BoundReport:
    """ln 2 + alpha ln(1 - 2^(1-k)) + ln(alpha/(2^k - 2) + 1).

    Arithmetic-mean relaxation of the sunflower sum; weaker but closed-form.
    """
    check_model(alpha, k)
    value = LN2 + alpha * log1p(-(2.0 ** (1 - k))) + log1p(alpha / ((1 << k) - 2))
    return BoundReport(method="general_k", alpha=float(alpha), k=k,
                       value=value, verdict=_verdict(value))


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
    selected bound plus its quad_error, at which that sum was evaluated
    negative: the right end of the bracket that bisection ends with. The
    bound falls as alpha grows (gadget log-weights fall with degree, and
    the Poisson means rise with alpha), and bisect_bracket rests on that to
    return plain bisection's bracket from few bound evaluations. The
    quad_error estimate has no such proof, so bisect_bracket evaluates the
    right end if it had not and refuses a sum that is not negative there.
    The bracket starts from 0.5 and a density
    known to certify, _NEGATIVE_AT or else 2^k b plus max(1, 2^k 1e-10), a
    margin that covers solve_b's bisection width; tests find the general-k
    bound negative there for k = 3..39. From k = 40 on, floats near the root
    are spaced wider than ROOT_PRECISION, so the bracket could not close,
    and the arity is refused before any bound is evaluated."""
    check_model(0.5, k)     # the left end; refuses k before 2^k is built
    right = _NEGATIVE_AT.get((method, k))
    if right is None:
        right = (1 << k) * solve_b() + max(1.0, 2.0 ** k * 1e-10)
    if ulp(right) > ROOT_PRECISION:
        raise ValueError(f"at k = {k} floats near the root are {ulp(right):.3g} "
                         f"apart, wider than ROOT_PRECISION = {ROOT_PRECISION}")

    def f(alpha: float) -> float:
        report = bound(method, alpha, k, **options)
        return report.value + report.quad_error

    return bisect_bracket(f, 0.5, right, ROOT_PRECISION)[1]
