"""Analytic unsatisfiability bounds and threshold root-finding.

The per-qubit log-rank bounds all have the shape ln 2 + (expected gadget
log-weight per vertex); a negative value certifies that random formulas at
that clause density are unsatisfiable with high probability. Quadratures run
in log space so that Poisson-like terms survive large degrees, and composite
Simpson rules carry a Richardson error estimate (|S_N - S_{N/2}| / 15) that
is reported, never silently trusted.

Truncations are one-sided by construction: every gadget log-weight is
negative, so cutting the degree sum or the Poisson expectation only raises
the reported value, and a negative truncated bound still certifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, inf, log, log1p, sqrt

import numpy as np

LN2 = log(2.0)
_CHUNK = 512
# degree truncation of the nosegay bound and its threshold search
NOSEGAY_TRUNCATION = 50


@dataclass(frozen=True)
class BoundReport:
    method: str
    alpha: float
    k: int
    value: float
    verdict: str
    quad_error: float = 0.0
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class OdeState:
    nu: float
    mu: float
    nu0: float


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


def _log_factorials(dmax: int) -> np.ndarray:
    """ln(d!) for d = 0..dmax by exact summation of logs."""
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, dmax + 1)))))


def _poisson_block(log_lam: np.ndarray, lam: np.ndarray, ds: np.ndarray,
                   lgam: np.ndarray) -> np.ndarray:
    """exp(d ln lam - lam - ln d!) rows d, columns lam; lam = 0 handled."""
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.exp(ds[:, None] * log_lam[None, :] - lam[None, :] - lgam[:, None])
    zero = lam == 0.0
    if zero.any():
        # a zero mean concentrates on d = 0
        f[:, zero] = 0.0
        if ds[0] == 0:
            f[0, zero] = 1.0
    return np.nan_to_num(f, nan=0.0)


def _density_matrix(alpha: float, k: int, ds: np.ndarray,
                    panels: int) -> np.ndarray:
    """Integrand values of a_d on the t grid, one row per degree in ds."""
    t = np.linspace(0.0, 1.0, panels + 1)
    lam = k * alpha * t ** (k - 1)
    with np.errstate(divide="ignore"):
        log_lam = np.log(lam)
    lgam = _log_factorials(int(ds[-1]))[ds]
    return _poisson_block(log_lam, lam, ds, lgam)


def sunflower_degree_densities(d_max: int, alpha: float, k: int = 3,
                               quadrature_points: int = 4096) -> np.ndarray:
    """a_d for d = 0..d_max: the limiting fraction of peeling steps whose
    sunflower has degree d. Composite Simpson on [0,1] in log space."""
    if d_max < 0:
        raise ValueError(f"d_max must be nonnegative, got {d_max}")
    _check_model(alpha, k)
    panels = _even_panels(quadrature_points)
    w = _simpson_weights(panels + 1, 1.0 / panels)
    out = np.empty(d_max + 1)
    for start in range(0, d_max + 1, _CHUNK):
        ds = np.arange(start, min(start + _CHUNK, d_max + 1))
        out[ds] = _density_matrix(alpha, k, ds, panels) @ w
    return out


def _auto_dmax(alpha: float, k: int) -> int:
    mean = k * alpha
    return int(ceil(mean + 12.0 * sqrt(mean))) + 20


def sunflower_bound(alpha: float, k: int = 3, d_max: int | None = 100,
                    quadrature_points: int = 4096) -> BoundReport:
    """ln 2 + sum_{d<=d_max} a_d (d ln(1 - 2^(1-k)) + ln(d/(2^k-2) + 1)).

    d_max=None picks a cutoff far into the Poisson tail automatically. The
    omitted terms are negative, so the value is an upper bound regardless.
    """
    _check_model(alpha, k)
    if d_max is None:
        d_max = _auto_dmax(alpha, k)
    if d_max < 1:
        raise ValueError(f"d_max must be >= 1, got {d_max}")
    panels = _even_panels(quadrature_points)
    w_full = _simpson_weights(panels + 1, 1.0 / panels)
    w_half = _simpson_weights(panels // 2 + 1, 2.0 / panels)
    log_shrink = log1p(-(2.0 ** (1 - k)))
    denom = float((1 << k) - 2)
    total_full = 0.0
    total_half = 0.0
    mass = 0.0
    edge_mass = 0.0
    for start in range(0, d_max + 1, _CHUNK):
        ds = np.arange(start, min(start + _CHUNK, d_max + 1))
        f = _density_matrix(alpha, k, ds, panels)
        a_full = f @ w_full
        a_half = f[:, ::2] @ w_half
        weights = ds * log_shrink + np.log(ds / denom + 1.0)
        total_full += float(a_full @ weights)
        total_half += float(a_half @ weights)
        mass += float(a_full.sum())
        edge_mass += float(a_full @ ds)
    value = LN2 + total_full
    quad_error = abs(total_full - total_half) / 15.0
    return BoundReport(
        method="sunflower", alpha=float(alpha), k=k, value=value,
        verdict=_verdict(value + quad_error), quad_error=quad_error,
        params={
            "d_max": int(d_max),
            "quadrature_points": panels,
            "density_mass": mass,
            "density_edge_mass": edge_mass,
        },
    )


def nosegay_ode(alpha: float, nu: float) -> OdeState:
    """Closed-form trajectory of the nosegay peel: edges per original vertex.

    mu(nu) = (nu/6)((6 alpha + 1) nu^2 - 1) solves d mu/d nu = 1/3 + 3 mu/nu
    with mu(1) = alpha; it hits zero at nu0 = 1/sqrt(6 alpha + 1).
    """
    _check_model(alpha)
    nu0 = 1.0 / sqrt(6.0 * alpha + 1.0)
    if not nu0 - 1e-12 <= nu <= 1.0 + 1e-12:
        raise ValueError(f"nu={nu} outside [{nu0}, 1]")
    mu = nu * ((6.0 * alpha + 1.0) * nu * nu - 1.0) / 6.0
    return OdeState(float(nu), float(mu), float(nu0))


def _nosegay_weight_table(truncation: int) -> np.ndarray:
    """ln(R_(a,b,c)) - (3 + 2(a+b+c)) ln 2 for all indices <= truncation."""
    ds = np.arange(truncation + 1, dtype=np.float64)
    s = ds[:, None, None] + ds[None, :, None] + ds[None, None, :]
    wide = ((ds + 6)[:, None, None] * (ds + 6)[None, :, None]
            * (ds + 6)[None, None, :])
    narrow = ((ds + 3)[:, None, None] * (ds + 3)[None, :, None]
              * (ds + 3)[None, None, :])
    return (s - 3) * log(3.0) + np.log(wide - narrow) - (3 + 2 * s) * LN2


def nosegay_bound(alpha: float, truncation: int = NOSEGAY_TRUNCATION,
                  quadrature_points: int = 1000) -> BoundReport:
    """ln 2 + (1/3) integral over nu of E[ln(R_(a,b,c)/2^t)], a, b, c Poisson.

    The three degrees are independent Poisson with mean 3 mu/nu; indices
    above `truncation` are dropped, which only raises the value since every
    log-weight is negative.
    """
    _check_model(alpha)
    if truncation < 10:
        raise ValueError(f"truncation must be >= 10, got {truncation}")
    if quadrature_points < 100:
        raise ValueError(f"need >= 100 quadrature points, got {quadrature_points}")
    panels = _even_panels(quadrature_points)
    nu0 = 1.0 / sqrt(6.0 * alpha + 1.0)
    nus = np.linspace(nu0, 1.0, panels + 1)
    lam = np.maximum(((6.0 * alpha + 1.0) * nus * nus - 1.0) / 2.0, 0.0)
    with np.errstate(divide="ignore"):
        log_lam = np.log(lam)
    ds = np.arange(truncation + 1)
    pmf = _poisson_block(log_lam, lam, ds, _log_factorials(truncation)).T
    table = _nosegay_weight_table(truncation)
    g = np.einsum("na,nb,nc,abc->n", pmf, pmf, pmf, table, optimize=True)
    h = (1.0 - nu0) / panels
    s_full = float(g @ _simpson_weights(panels + 1, h))
    s_half = float(g[::2] @ _simpson_weights(panels // 2 + 1, 2.0 * h))
    value = LN2 + s_full / 3.0
    quad_error = abs(s_full - s_half) / 45.0
    return BoundReport(
        method="nosegay", alpha=float(alpha), k=3, value=value,
        verdict=_verdict(value + quad_error), quad_error=quad_error,
        params={
            "truncation": int(truncation),
            "quadrature_points": panels,
            "nu0": nu0,
            "max_poisson_tail": float((1.0 - pmf.sum(axis=1) ** 3).max()),
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


def bound(method: str, alpha: float, k: int = 3, *, d_max: int | None = 100,
          truncation: int = NOSEGAY_TRUNCATION,
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
        if k != 3:
            raise ValueError("the nosegay bound is defined for k = 3 only")
        return nosegay_bound(alpha, truncation, **points)
    if method == "general_k":
        return general_k_bound(alpha, k)
    raise ValueError(f"unknown method {method!r}")


ROOT_PRECISION = 1e-4
# densities at which the k = 3 bounds are already negative
_NEGATIVE_AT = {("nosegay", 3): 3.594, ("sunflower", 3): 3.894}


def threshold_root(method: str, k: int = 3, *, bracket=None,
                   d_max: int | None = None,
                   truncation: int = NOSEGAY_TRUNCATION,
                   quadrature_points: int | None = None,
                   precision: float = ROOT_PRECISION) -> float:
    """A density at most `precision` above the zero crossing of the selected
    bound plus its quad_error, at which that sum was evaluated negative: the
    right end of the final bisection bracket.

    The bracket must straddle the sign change: bound positive at the left
    end, negative at the right end. Without one, the right end is a density
    known to certify; elsewhere 2^k b + 1 lies above the general-k root,
    which no sunflower root exceeds.
    """
    if bracket is None:
        right = _NEGATIVE_AT.get((method, k))
        bracket = (0.5, (1 << k) * solve_b() + 1.0 if right is None else right)

    def f(alpha: float) -> float:
        report = bound(method, alpha, k, d_max=d_max, truncation=truncation,
                       quadrature_points=quadrature_points)
        return report.value + report.quad_error

    return bisect_bracket(f, float(bracket[0]), float(bracket[1]), precision)[1]
