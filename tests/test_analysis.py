"""Tests for degree densities, analytic bounds, and threshold roots."""

import itertools
import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

import qksat.analysis as analysis
from qksat.analysis import (
    ROOT_PRECISION,
    BoundReport,
    bisect_bracket,
    bound,
    general_k_bound,
    nosegay_bound,
    nosegay_ode,
    single_clause_threshold,
    solve_b,
    sunflower_bound,
    threshold_root,
)
from qksat.gadgets import gadget_log_weight, nosegay_k_rank
from support import bisect_reference, nosegay_mu, sunflower_degree_densities


def sunflower_degree_density(d: int, alpha: float, k: int = 3) -> float:
    return float(sunflower_degree_densities(d, alpha, k)[d])


def log_lower_incomplete_gamma(s: float, x: float) -> float:
    """ln of the lower incomplete gamma function, by the all-positive series
    gamma(s, x) = x^s e^-x sum_j x^j / (s (s+1) ... (s+j)).

    Cross-check path only: at k = 3 the degree density has the closed form
    a_d = gamma(d + 1/2, 3 alpha) / (2 d! sqrt(3 alpha)).
    """
    if s <= 0 or x <= 0:
        raise ValueError(f"need s > 0 and x > 0, got s={s}, x={x}")
    term = 1.0 / s
    total = term
    j = 0
    while term > total * 1e-18:
        j += 1
        term *= x / (s + j)
        total += term
    return s * math.log(x) - x + math.log(total)


def erf_degree_zero(alpha: float) -> float:
    """Closed form for a_0 at k = 3: (1/2) sqrt(pi/(3 alpha)) erf(sqrt(3 alpha))."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return 0.5 * math.sqrt(math.pi / (3.0 * alpha)) * math.erf(math.sqrt(3.0 * alpha))


def test_densities_normalize():
    for alpha, k in [(3.894, 3), (2.0, 4), (0.7, 2)]:
        dmax = 40 + int(10 * alpha * k)
        dens = sunflower_degree_densities(dmax, alpha, k)
        assert dens.min() >= 0.0
        assert dens.sum() == pytest.approx(1.0, abs=1e-8)
        assert float(dens @ np.arange(dmax + 1)) == pytest.approx(alpha, abs=1e-8)


def test_density_matches_scipy_quadrature():
    for alpha, k in [(3.894, 3), (2.0, 4)]:
        for d in [0, 1, 5, 12]:
            want, _ = integrate.quad(
                lambda t: math.exp(-k * alpha * t ** (k - 1))
                * (k * alpha * t ** (k - 1)) ** d / math.factorial(d),
                0.0, 1.0)
            got = sunflower_degree_density(d, alpha, k)
            assert got == pytest.approx(want, rel=1e-8), (alpha, k, d)


def test_density_matches_incomplete_gamma_form(monkeypatch):
    # at k = 3, a_d = gamma(d + 1/2, 3 alpha) / (2 d! sqrt(3 alpha))
    monkeypatch.setattr(analysis, "SUNFLOWER_PANELS", 16384)
    alpha = 3.894
    x = 3.0 * alpha
    dens = sunflower_degree_densities(100, alpha, 3)
    for d in range(101):
        lg = log_lower_incomplete_gamma(d + 0.5, x)
        want = math.exp(lg - math.lgamma(d + 1)) / (2.0 * math.sqrt(x))
        assert math.isclose(dens[d], want, rel_tol=1e-8, abs_tol=1e-300), d


def test_degree_zero_erf_form():
    for alpha in [0.25, 1.0, 3.894]:
        want = erf_degree_zero(alpha)
        assert sunflower_degree_density(0, alpha, 3) == pytest.approx(want, rel=1e-10)
        quad, _ = integrate.quad(lambda t: math.exp(-3 * alpha * t * t), 0, 1)
        assert want == pytest.approx(quad, rel=1e-10)


def test_sunflower_bound_headline():
    report = sunflower_bound(3.894, 3, d_max=100)
    assert report.value == pytest.approx(-1.372e-4, abs=2e-5)
    assert report.value == pytest.approx(-0.00013721449487347215, abs=1e-8)
    assert report.verdict == "unsat-whp"
    assert report.quad_error < 1e-10
    assert report.params["density_mass"] == pytest.approx(1.0, abs=1e-8)
    assert report.params["density_edge_mass"] == pytest.approx(3.894, abs=1e-8)


def test_sunflower_bound_sign_structure():
    assert sunflower_bound(3.85, 3).value > 0
    assert sunflower_bound(3.92, 3).value < 0
    grid = [sunflower_bound(a, 3).value for a in (3.0, 3.5, 3.894, 4.2)]
    assert all(x > y for x, y in zip(grid, grid[1:]))
    assert sunflower_bound(0.5, 3).value <= math.log(2) + 1e-12


def test_sunflower_truncation_is_one_sided():
    full = sunflower_bound(3.894, 3, d_max=120).value
    short = sunflower_bound(3.894, 3, d_max=18).value
    auto = sunflower_bound(3.894, 3, d_max=None).value
    assert short > full
    assert auto == pytest.approx(full, abs=1e-12)


def test_nosegay_ode_closed_form():
    alpha = 3.594
    c, nu0 = nosegay_ode(alpha)
    assert c == 6 * alpha + 1
    assert nu0 == pytest.approx(1.0 / math.sqrt(6 * alpha + 1), abs=1e-15)
    for k, a in [(3, 3.594), (4, 7.6), (6, 31.0)]:
        c, nu0 = nosegay_ode(a, k)
        assert nosegay_mu(a, 1.0, k) == pytest.approx(a, abs=1e-12)
        assert nosegay_mu(a, nu0, k) == pytest.approx(0.0, abs=1e-12)
        # d mu / d nu = 1/k + k mu / nu along the trajectory, with the
        # Poisson mean k mu / nu that nosegay_bound integrates
        for nu in [0.5, 0.7, 0.95]:
            h = 1e-6
            dmu = (nosegay_mu(a, nu + h, k) - nosegay_mu(a, nu - h, k)) / (2 * h)
            mu = nosegay_mu(a, nu, k)
            assert dmu == pytest.approx(1.0 / k + k * mu / nu, rel=1e-6)
            assert k * mu / nu == pytest.approx(
                (c * nu ** (k - 1) - 1) / (k - 1), rel=1e-12)
    with pytest.raises(ValueError):
        nosegay_ode(0.0)
    with pytest.raises(ValueError):
        nosegay_ode(alpha, 1)


def test_separable_nosegay_weight_matches_rank():
    from qksat.analysis import _nosegay_vertex_terms

    for k, top in [(3, 20), (4, 8)]:
        h, x = _nosegay_vertex_terms(k, np.arange(top + 1))
        for dvec in itertools.product(range(top + 1), repeat=k):
            separable = (sum(h[d] for d in dvec) - k * math.log(2)
                         + math.log1p(-math.prod(x[d] for d in dvec)))
            assert separable == pytest.approx(
                nosegay_k_rank(dvec, k).log_weight, abs=1e-12), dvec


def test_nosegay_expectation_matches_brute_force():
    # independent k-fold sum of Poisson-weighted gadget log-weights
    from qksat.analysis import _nosegay_expectation

    lam = 2.0
    for k, trunc in [(3, 20), (4, 10)]:
        pmf = [math.exp(-lam) * lam ** d / math.factorial(d)
               for d in range(trunc + 1)]
        brute = sum(
            math.prod(pmf[d] for d in dvec)
            * gadget_log_weight(dvec, k)
            for dvec in itertools.product(range(trunc + 1), repeat=k))
        fast = _nosegay_expectation(k, trunc)(np.array([pmf]))
        assert float(fast[0]) == pytest.approx(brute, rel=1e-12)


def test_poisson_pmf_matches_closed_form():
    from qksat.analysis import _poisson_pmf

    lams = np.array([0.0, 0.3, 2.0, 10.782, 150.0])
    got = _poisson_pmf(lams, 400)
    for lam, row in zip(lams, got):
        want = [math.exp(d * math.log(lam) - lam - math.lgamma(d + 1))
                if lam else float(d == 0) for d in range(401)]
        # ln d! is a running sum of logs, whose rounding near d = 400 is
        # about 1e-11 relative
        np.testing.assert_allclose(row, want, rtol=1e-10, atol=0.0)
    # bit for bit the out-of-place int64-grid reference, cell by cell
    ds = np.arange(401)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(ds[1:]))))
    with np.errstate(divide="ignore", invalid="ignore"):
        ref = np.exp(ds * np.log(lams)[:, None] - lams[:, None] - log_fact)
    ref[0] = ds == 0
    np.testing.assert_array_equal(got, ref)


def test_poisson_pmf_peaks_at_one_block():
    # the sunflower bound's block at alpha = 3.7: 4097 x 73 cells, built in
    # place, so no second pmf-sized temporary
    import tracemalloc

    from qksat.analysis import _poisson_pmf

    t = np.linspace(0.0, 1.0, analysis.SUNFLOWER_PANELS + 1)
    lam = 3 * 3.7 * t ** 2
    tracemalloc.start()
    try:
        pmf = _poisson_pmf(lam, 72)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pmf.shape == (4097, 73)
    assert peak <= 1.1 * pmf.nbytes, (peak, pmf.nbytes)


def test_max_poisson_tail_is_the_dropped_mass():
    # 1 - P(d <= T)^k at the top mean k alpha, from the upper tail itself
    from scipy.stats import poisson

    def dropped(alpha, k, trunc):
        return -math.expm1(k * math.log1p(-poisson.sf(trunc, k * alpha)))

    for trunc, rough in [(10, 0.885), (25, 1.796e-4), (71, 2.70e-34)]:
        got = nosegay_bound(3.594, 3, trunc).params["max_poisson_tail"]
        assert got == pytest.approx(dropped(3.594, 3, trunc), rel=1e-9)
        assert got == pytest.approx(rough, rel=1e-3)
    for alpha, k in [(1.0, 2), (123.264, 8)]:
        report = nosegay_bound(alpha, k)
        assert report.params["max_poisson_tail"] == pytest.approx(
            dropped(alpha, k, report.params["truncation"]), rel=1e-9)


@pytest.mark.parametrize("rows", [1, 7])
def test_integrator_blocks_do_not_change_results(monkeypatch, rows):
    # one grid row per block, or 7-row blocks that split 4097, 1005 and
    # 4097 grid points unevenly, against the default single block
    monkeypatch.setattr(analysis, "NOSEGAY_PANELS", 1004)

    def run():
        sun = sunflower_bound(3.894, 3, d_max=100)
        nose = nosegay_bound(3.594, truncation=50)
        dens = sunflower_degree_densities(60, 3.894)
        return [sun.value, sun.quad_error, nose.value, nose.quad_error], dens

    default, default_dens = run()
    # the pmf widths d_max + 1 of the three calls: each cap gives one of them
    # exactly `rows` rows per block
    for width in (101, 51, 61):
        monkeypatch.setattr(analysis, "_BLOCK_CELLS", rows * width)
        got, dens = run()
        assert got == pytest.approx(default, rel=0, abs=1e-15), width
        np.testing.assert_allclose(dens, default_dens, rtol=0, atol=1e-15)


def test_nosegay_bound_headline():
    report = nosegay_bound(3.594, truncation=50)
    assert report.value == pytest.approx(-1.601e-4, abs=2e-5)
    assert report.value == pytest.approx(-0.00016009764519220315, abs=1e-8)
    assert report.verdict == "unsat-whp"
    assert report.params["nu0"] == pytest.approx(1 / math.sqrt(6 * 3.594 + 1))
    assert report.params["max_poisson_tail"] < 1e-12
    assert report.quad_error < 1e-8


def test_nosegay_bound_truncation_converged():
    a = nosegay_bound(3.594, truncation=30).value
    b = nosegay_bound(3.594, truncation=50).value
    c = nosegay_bound(3.594, truncation=70).value
    assert a >= b >= c
    assert abs(a - b) < 1e-6
    assert abs(b - c) < 1e-12


def test_nosegay_bound_sign_structure():
    assert nosegay_bound(3.55).value > 0
    assert nosegay_bound(3.62).value < 0
    assert nosegay_bound(3.0).verdict == "inconclusive"


def test_nosegay_bound_validation():
    with pytest.raises(ValueError):
        nosegay_bound(0.0)
    with pytest.raises(ValueError):
        nosegay_bound(3.5, truncation=5)


def test_bounds_refuse_non_finite_alpha():
    for alpha in (math.nan, math.inf):
        for method in ("sunflower", "nosegay", "general_k"):
            with pytest.raises(ValueError):
                bound(method, alpha)


def test_general_k_bound_formula():
    for alpha, k in [(3.894, 3), (8.0, 4), (2.0, 5)]:
        want = (math.log(2) + alpha * math.log1p(-(2.0 ** (1 - k)))
                + math.log1p(alpha / (2 ** k - 2)))
        report = general_k_bound(alpha, k)
        assert report.value == pytest.approx(want, rel=1e-14)
        assert report.verdict == ("unsat-whp" if want < 0 else "inconclusive")


def test_general_k_bound_at_scaled_b():
    b = solve_b()
    for k in range(3, 13):
        assert general_k_bound((1 << k) * b, k).value < 0, k


def test_solve_b():
    b = solve_b()
    assert b == pytest.approx(0.573, abs=1e-3)
    assert abs(math.log(2) - 2 * b + math.log1p(b)) < 1e-9
    lo, hi = bisect_bracket(lambda x: math.log(2) - 2 * x + math.log1p(x),
                            0.0, 2.0, 1e-6)
    assert hi - lo <= 1e-6 and lo <= b <= hi


def _recorded(f):
    """f, and the list of (x, f(x)) pairs it is called with, in order."""
    calls = []

    def g(x):
        calls.append((x, f(x)))
        return calls[-1][1]
    return g, calls


@st.composite
def non_increasing_problems(draw):
    """(f, lo, hi, width) with f non-increasing on [lo, hi]."""
    if draw(st.booleans()):
        # floats near 1.5e12 are 2^-12 apart: the ends become adjacent
        # floats, wider than some of these widths
        lo, hi = 1e12, 2e12
        width = math.ulp(1.5e12) * draw(st.sampled_from([0.5, 1.0, 1.5, 3.0, 1e3]))
    else:
        lo, hi = draw(st.sampled_from([(0.0, 1.0), (0.5, 3.894), (-2.0, 7.5)]))
        width = draw(st.floats(1e-12, hi - lo))
    inner = st.floats(lo, hi, exclude_min=True, exclude_max=True)
    kind = draw(st.sampled_from(["step", "kink", "cubic", "midpoint", "flat"]))
    if kind == "step":
        breaks = sorted(draw(st.lists(inner, min_size=1, max_size=6)))
        levels = st.sampled_from([-3.0, -1.0, -1e-300, 0.0, 1e-300, 2.0, 5.0])
        values = sorted(draw(st.lists(levels, min_size=len(breaks) - 1,
                                      max_size=len(breaks) - 1)) + [-1.0, 1.0],
                        reverse=True)
        return (lambda x: values[bisect_right(breaks, x)]), lo, hi, width
    if kind == "kink":
        # slopes far apart on the two sides of the root
        r = draw(inner)
        left, right = draw(st.sampled_from([1e-3, 1.0, 1e6])), draw(
            st.sampled_from([1e-3, 1.0, 1e6]))
        return (lambda x: (left if x < r else right) * (r - x)), lo, hi, width
    if kind == "cubic":
        r = draw(inner)
        return (lambda x: (r - x) * (r - x) * (r - x)), lo, hi, width
    # a root at one of plain bisection's midpoints, with f == 0 exactly there
    a, b = lo, hi
    for go_right in draw(st.lists(st.booleans(), min_size=1, max_size=60)):
        mid = 0.5 * (a + b)
        a, b = (mid, b) if go_right else (a, mid)
    r = 0.5 * (a + b)
    if kind == "midpoint":
        return (lambda x: r - x), lo, hi, width
    # flat at exactly 0 on [r, s]
    s = draw(st.floats(r, hi))
    return (lambda x: max(r - x, 0.0) + min(s - x, 0.0)), lo, hi, width


@settings(max_examples=400, deadline=None)
@given(non_increasing_problems())
def test_bisect_bracket_returns_plain_bisections_bracket(problem):
    f, lo, hi, width = problem
    g, calls = _recorded(f)
    reference, reference_calls = _recorded(f)
    try:
        want = bisect_reference(reference, lo, hi, width)
    except ValueError:
        with pytest.raises(ValueError):
            bisect_bracket(g, lo, hi, width)
        return
    got = bisect_bracket(g, lo, hi, width)
    assert [x.hex() for x in got] == [x.hex() for x in want]
    # the returned hi was evaluated, and negative
    assert dict(calls)[got[1]] < 0
    assert len(calls) <= 2 * len(reference_calls)


def test_bisect_bracket_evaluates_few_points():
    # solve_b's root: plain bisection evaluates f at 37 points
    def f(x):
        return math.log(2) - 2 * x + math.log1p(x)
    g, calls = _recorded(f)
    assert bisect_bracket(g, 0.0, 2.0, 1e-10) == bisect_reference(f, 0.0, 2.0, 1e-10)
    assert len(calls) <= 24


def test_bisect_bracket_refuses_adjacent_floats_wider_than_width():
    # floats near 1.5e12 are 2.4e-4 apart: plain bisection never ends here
    with pytest.raises(ValueError, match="no float lies between"):
        bisect_bracket(lambda x: 1.5e12 - x, 1e12, 2e12, 1e-6)


def test_bisect_bracket_refuses_an_increasing_f():
    def base(x):
        return 0.3 - x
    g, calls = _recorded(base)
    lo, hi = bisect_bracket(g, 0.0, 1.0, 1e-3)
    # hi was inferred negative and evaluated only by the final check
    assert calls[-1] == (hi, base(hi))
    assert hi not in [x for x, _ in calls[:-1]]

    def spiked(x):
        return 1.0 if x == hi else base(x)
    with pytest.raises(ValueError, match="not non-increasing"):
        bisect_bracket(spiked, 0.0, 1.0, 1e-3)


def test_single_clause_threshold():
    got = single_clause_threshold(3)
    assert got == pytest.approx(5.191, abs=1e-3)
    assert got == pytest.approx(math.log(2) / -math.log1p(-0.125), rel=1e-14)
    assert single_clause_threshold(2) == pytest.approx(
        math.log(2) / -math.log(0.75), rel=1e-14)
    with pytest.raises(ValueError):
        single_clause_threshold(1)


def test_threshold_roots():
    root_s = threshold_root("sunflower", 3)
    assert 3.89 < root_s <= 3.894
    assert abs(sunflower_bound(root_s, 3).value) < 1e-3
    assert sunflower_bound(root_s, 3).value < 0
    root_g3 = threshold_root("general_k", 3)
    root_g4 = threshold_root("general_k", 4)
    assert root_s < root_g3 < root_g4
    assert abs(general_k_bound(root_g3, 3).value) < 1e-3


def test_threshold_root_nosegay(monkeypatch):
    monkeypatch.setattr(analysis, "NOSEGAY_PANELS", 400)
    root = threshold_root("nosegay", 3, truncation=30)
    assert 3.55 < root <= 3.594
    assert nosegay_bound(root + 0.01, truncation=30).value < 0


def test_verdict_and_root_count_quad_error(monkeypatch):
    # four panels: the value is negative, but not by more than its error
    monkeypatch.setattr(analysis, "SUNFLOWER_PANELS", 4)
    report = bound("sunflower", 3.894)
    assert report.value == pytest.approx(-1.47e-4, abs=1e-6)
    assert report.quad_error == pytest.approx(1.64e-4, abs=1e-6)
    assert report.verdict == "inconclusive"
    monkeypatch.setitem(analysis._NEGATIVE_AT, ("sunflower", 3), 4.0)
    root = threshold_root("sunflower", 3)
    at_root = bound("sunflower", root)
    assert at_root.value + at_root.quad_error < 0
    assert at_root.verdict == "unsat-whp"


@pytest.mark.parametrize("method", ["sunflower", "nosegay", "general_k"])
def test_verdict_is_upper_below_zero_around_each_root(method, monkeypatch):
    # coarse grids make quad_error large, so just left of each Poisson
    # bound's root the value is negative while value + quad_error is not
    monkeypatch.setattr(analysis, "SUNFLOWER_PANELS", 4)
    monkeypatch.setattr(analysis, "NOSEGAY_PANELS", 4)
    if method != "general_k":
        monkeypatch.setitem(analysis._NEGATIVE_AT, (method, 3), 4.0)
    root = threshold_root(method, 3)
    left, right = (bound(method, alpha)
                   for alpha in (root - 4 * ROOT_PRECISION, root))
    for report in (left, right):
        assert report.upper == report.value + report.quad_error
        assert report.verdict == ("unsat-whp" if report.value
                                  + report.quad_error < 0 else "inconclusive")
    assert (left.verdict, right.verdict) == ("inconclusive", "unsat-whp")
    if method == "general_k":
        assert left.quad_error == right.quad_error == 0.0
    else:
        assert left.value < 0 <= left.upper


def test_threshold_root_validation(monkeypatch):
    with pytest.raises(ValueError):
        threshold_root("bogus")
    with pytest.raises(ValueError):
        threshold_root("nosegay", 1)
    # a bracket with no sign change: the bound is positive at both ends
    monkeypatch.setitem(analysis._NEGATIVE_AT, ("sunflower", 3), 3.5)
    with pytest.raises(ValueError, match="no sign change"):
        threshold_root("sunflower", 3)


def test_incomplete_gamma_series():
    # gamma(1, x) = 1 - e^-x
    for x in [0.3, 2.0, 11.682]:
        assert log_lower_incomplete_gamma(1.0, x) == pytest.approx(
            math.log(1 - math.exp(-x)), rel=1e-12)
    # recurrence gamma(s+1, x) = s gamma(s, x) - x^s e^-x
    s, x = 2.5, 7.0
    lhs = math.exp(log_lower_incomplete_gamma(s + 1, x))
    rhs = s * math.exp(log_lower_incomplete_gamma(s, x)) - x ** s * math.exp(-x)
    assert lhs == pytest.approx(rhs, rel=1e-10)
    with pytest.raises(ValueError):
        log_lower_incomplete_gamma(0.0, 1.0)


def test_report_shape():
    report = sunflower_bound(1.0, 3)
    assert isinstance(report, BoundReport)
    assert report.method == "sunflower" and report.alpha == 1.0 and report.k == 3
