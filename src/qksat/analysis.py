"""Analytic unsatisfiability bounds and threshold root-finding.

The per-qubit log-rank bounds all have the shape ln 2 + (expected gadget
log-weight per vertex); a negative value certifies that random formulas at
that clause density are unsatisfiable with high probability. The sunflower and
nosegay bounds integrate an expectation under i.i.d. Poisson degrees along
their peel's trajectory with one integrator, _poisson_integral. It builds the
pmf in log space, so that terms survive large degrees, in blocks of at most
_BLOCK_CELLS entries; its Simpson rule carries a Richardson error estimate
(|S_N - S_{N/2}| / 15) that is reported, never silently trusted.

Truncations are one-sided by construction: every gadget log-weight is
negative, so cutting the degree sum or the Poisson expectation only raises
the reported value, and a negative truncated bound still certifies. The
nosegay bound reports the Poisson mass it drops (max_poisson_tail). Both
refuse a cutoff whose tables cannot fit in memory before building them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, inf, log, log1p, sqrt

import numpy as np

from .rank_oracle import check_memory

LN2 = log(2.0)
# pmf entries per block of the Poisson integrator: about 8 MB of float64
_BLOCK_CELLS = 1 << 20
# what the ln(1 - y) series of the nosegay bound may leave out per vector
SERIES_TAIL = 1e-17


@dataclass(frozen=True)
class BoundReport:
    method: str
    alpha: float
    k: int
    value: float
    verdict: str
    quad_error: float = 0.0
    params: dict = field(default_factory=dict)


def _check_model(alpha: float, k: int = 3) -> None:
    if not 0 < alpha < inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if k < 2:
        raise ValueError(f"arity k must be >= 2, got {k}")


def _verdict(upper: float) -> str:
    """unsat-whp when the bound is negative even with its error estimate
    (value + quad_error) added."""
    return "unsat-whp" if upper < 0 else "inconclusive"


def _even_panels(panels: int) -> int:
    # multiples of 4 keep the half-resolution Simpson rule valid too
    if panels < 4:
        raise ValueError(f"need at least 4 quadrature panels, got {panels}")
    return panels + (-panels) % 4


def _simpson_weights(points: int, h: float) -> np.ndarray:
    w = np.ones(points)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def _poisson_pmf(lam: np.ndarray, d_max: int) -> np.ndarray:
    """exp(d ln lam - lam - ln d!): rows are the means lam, columns are
    d = 0..d_max; a zero mean gives the point mass at 0."""
    ds = np.arange(d_max + 1)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(ds[1:]))))
    with np.errstate(divide="ignore", invalid="ignore"):
        pmf = ds * np.log(lam)[:, None] - lam[:, None] - log_fact
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


def sunflower_degree_densities(d_max: int, alpha: float, k: int = 3,
                               quadrature_points: int = 4096) -> np.ndarray:
    """a_d for d = 0..d_max: the limiting fraction of peeling steps whose
    sunflower has degree d, the integral over peel time t in [0, 1] of the
    Poisson pmf of mean k alpha t^(k-1)."""
    if d_max < 0:
        raise ValueError(f"d_max must be nonnegative, got {d_max}")
    _check_model(alpha, k)
    t = np.linspace(0.0, 1.0, _even_panels(quadrature_points) + 1)
    return _poisson_integral(k * alpha * t ** (k - 1), 0.0, 1.0, d_max,
                             lambda pmf: pmf)[0]


def _auto_dmax(alpha: float, k: int) -> int:
    """Both bounds' degree cutoff: 12 sd plus 20 above their top mean."""
    mean = k * alpha
    return int(ceil(mean + 12.0 * sqrt(mean))) + 20


def sunflower_bound(alpha: float, k: int = 3, d_max: int | None = None,
                    quadrature_points: int = 4096) -> BoundReport:
    """ln 2 + sum_{d<=d_max} a_d (d ln(1 - 2^(1-k)) + ln(d/(2^k-2) + 1)).

    d_max=None takes _auto_dmax(alpha, k), far into the Poisson tail. The
    omitted terms are negative, so the value is an upper bound regardless.
    """
    _check_model(alpha, k)
    if d_max is None:
        d_max = _auto_dmax(alpha, k)
    if d_max < 1:
        raise ValueError(f"d_max must be >= 1, got {d_max}")
    # the table, one pmf row and their temporaries: 65 B per degree measured
    check_memory(80 * (d_max + 1), "the sunflower degree table")
    panels = _even_panels(quadrature_points)
    ds = np.arange(d_max + 1)
    table = np.stack([ds * log1p(-(2.0 ** (1 - k)))
                      + np.log(ds / float((1 << k) - 2) + 1.0),
                      np.ones(d_max + 1), ds], axis=1)
    (total, mass, edge_mass), errors = _poisson_integral(
        k * alpha * np.linspace(0.0, 1.0, panels + 1) ** (k - 1), 0.0, 1.0,
        d_max, lambda pmf: pmf @ table)
    value, quad_error = LN2 + float(total), float(errors[0])
    return BoundReport(
        method="sunflower", alpha=float(alpha), k=k, value=value,
        verdict=_verdict(value + quad_error), quad_error=quad_error,
        params={
            "d_max": int(d_max),
            "quadrature_points": panels,
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
    _check_model(alpha, k)
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


def nosegay_bound(alpha: float, k: int = 3, truncation: int | None = None,
                  quadrature_points: int = 1000) -> BoundReport:
    """ln 2 + (1/k) integral over nu of E[ln(N(d)/2^t)], the d_i i.i.d.
    Poisson of mean k mu/nu along nosegay_ode.

    Vectors with some d_i above `truncation` are dropped; truncation=None
    takes _auto_dmax(alpha, k), as sunflower_bound does. max_poisson_tail
    is the dropped mass 1 - P(d <= T)^k at nu = 1, where the mean (k alpha)
    and with it the tail are largest, summed from the upper tail itself.
    """
    _check_model(alpha, k)
    if truncation is None:
        truncation = _auto_dmax(alpha, k)
    if truncation < 10:
        raise ValueError(f"truncation must be >= 10, got {truncation}")
    if quadrature_points < 100:
        raise ValueError(f"need >= 100 quadrature points, got {quadrature_points}")
    expectation = _nosegay_expectation(k, truncation)
    panels = _even_panels(quadrature_points)
    c, nu0 = nosegay_ode(alpha, k)
    nus = np.linspace(nu0, 1.0, panels + 1)
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
            "truncation": int(truncation),
            "quadrature_points": panels,
            "nu0": nu0,
            # 1 - (1 - tail)^k, accurate at both ends
            "max_poisson_tail": tail * sum((1.0 - tail) ** i for i in range(k)),
        },
    )


def general_k_bound(alpha: float, k: int) -> BoundReport:
    """ln 2 + alpha ln(1 - 2^(1-k)) + ln(alpha/(2^k - 2) + 1).

    Arithmetic-mean relaxation of the sunflower sum; weaker but closed-form.
    """
    _check_model(alpha, k)
    value = LN2 + alpha * log1p(-(2.0 ** (1 - k))) + log1p(alpha / ((1 << k) - 2))
    return BoundReport(method="general_k", alpha=float(alpha), k=k,
                       value=value, verdict=_verdict(value))


def bisect_bracket(f, lo: float, hi: float,
                   precision: float) -> tuple[float, float]:
    """Shrink [lo, hi] by bisection until it is at most `precision` wide.

    f must be positive at lo and negative at hi; the returned bracket keeps
    f(lo) >= 0 > f(hi), so hi is a point where f was evaluated negative (or
    the given hi).
    """
    f_lo, f_hi = f(lo), f(hi)
    if not f_lo > 0 > f_hi:
        raise ValueError(
            f"no sign change on [{lo}, {hi}]: f(lo)={f_lo:.3g}, f(hi)={f_hi:.3g}"
        )
    while hi - lo > precision:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            hi = mid
        else:
            lo = mid
    return lo, hi


def solve_b(precision: float = 1e-10) -> float:
    """Unique positive root of ln 2 - 2b + ln(b + 1) = 0, by bisection."""
    lo, hi = bisect_bracket(lambda b: LN2 - 2.0 * b + log1p(b), 0.0, 2.0,
                            precision)
    return 0.5 * (lo + hi)


def single_clause_threshold(k: int) -> float:
    """Density above which independent single-clause factors already certify
    unsatisfiability: ln 2 / (-ln(1 - 2^(-k)))."""
    if k < 2:
        raise ValueError(f"arity k must be >= 2, got {k}")
    return LN2 / -log1p(-(2.0 ** (-k)))


def bound(method: str, alpha: float, k: int = 3, *, d_max: int | None = None,
          truncation: int | None = None,
          quadrature_points: int | None = None) -> BoundReport:
    """The "sunflower", "nosegay" or "general_k" bound at density alpha.

    Each method reads only its own options; quadrature_points=None keeps
    the method's default.
    """
    points = {} if quadrature_points is None else {
        "quadrature_points": quadrature_points}
    if method == "sunflower":
        return sunflower_bound(alpha, k, d_max, **points)
    if method == "nosegay":
        return nosegay_bound(alpha, k, truncation, **points)
    if method == "general_k":
        return general_k_bound(alpha, k)
    raise ValueError(f"unknown method {method!r}")


ROOT_PRECISION = 1e-4
# densities at which the k = 3 bounds are already negative
_NEGATIVE_AT = {("nosegay", 3): 3.594, ("sunflower", 3): 3.894}


def threshold_root(method: str, k: int = 3, *, bracket=None,
                   d_max: int | None = None,
                   truncation: int | None = None,
                   quadrature_points: int | None = None,
                   precision: float = ROOT_PRECISION) -> float:
    """A density at most `precision` above the zero crossing of the selected
    bound plus its quad_error, at which that sum was evaluated negative: the
    right end of the final bisection bracket.

    The bracket must straddle the sign change: bound positive at the left
    end, negative at the right end. Without one, the right end is a density
    known to certify; elsewhere 2^k b + 1 lies above the general-k root,
    which no sunflower or nosegay root exceeds.
    """
    if bracket is None:
        right = _NEGATIVE_AT.get((method, k))
        bracket = (0.5, (1 << k) * solve_b() + 1.0 if right is None else right)

    def f(alpha: float) -> float:
        report = bound(method, alpha, k, d_max=d_max, truncation=truncation,
                       quadrature_points=quadrature_points)
        return report.value + report.quad_error

    return bisect_bracket(f, float(bracket[0]), float(bracket[1]), precision)[1]
