"""Acceptance suite: eight headline criteria, one pass/fail line each.

Covers the reported threshold numbers, exact formula-vs-oracle equality for
every gadget family, the cross-formula identities, the rank product bound,
concentration of the peeling simulations around their analytic limits,
float/field backend agreement, the arity-2 phase transition, and the
general-k certification inequality.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

import qksat.cli as cli
from qksat.analysis import (
    general_k_bound,
    nosegay_bound,
    nosegay_ode,
    single_clause_threshold,
    solve_b,
    sunflower_bound,
    sunflower_densities,
)
from qksat.gadgets import (
    k2_rank,
    nosegay_hang_rank,
    nosegay_k_rank,
    sorted_dvecs,
    sunflower_rank,
    verification_cases,
)
from qksat.hypergraph import Hypergraph, random_hypergraph
from qksat.peeling import empirical_log_rank, nosegay_peel, sunflower_peel
from qksat.rank_oracle import (
    RankInstabilityError,
    generic_rank_field,
    min_rank_float,
)
from qksat.rng import child_rng, make_rng
from support import (attach, nosegay3_paper_rank, nosegay3_via_binomial,
                     nosegay_mu, random_mixed_graph,
                     stoquastic_component_count)


def _report(capsys, num, description, ok, detail=""):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {description}"
    if detail:
        line += f" [{detail}]"
    with capsys.disabled():
        print(line)
    assert ok, line


def _cli_json(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0, f"exit {code} for {argv}"
    return json.loads(out)


def test_criterion_1_headline_numbers(capsys):
    checks = []
    t0 = time.monotonic()
    sun = _cli_json(capsys, ["bound", "sunflower", "--alpha", "3.894",
                             "--dmax", "100"])
    checks.append(("sunflower time", time.monotonic() - t0 < 60.0))
    checks.append(("sunflower value", abs(sun["value"] - (-1.372e-4)) <= 2e-5))

    t0 = time.monotonic()
    nose = _cli_json(capsys, ["bound", "nosegay", "--alpha", "3.594",
                              "--trunc", "50"])
    checks.append(("nosegay time", time.monotonic() - t0 < 60.0))
    checks.append(("nosegay value", abs(nose["value"] - (-1.601e-4)) <= 2e-5))

    t0 = time.monotonic()
    b = solve_b()
    checks.append(("b time", time.monotonic() - t0 < 60.0))
    checks.append(("b value", abs(b - 0.573) <= 1e-3))

    t0 = time.monotonic()
    sct = single_clause_threshold(3)
    checks.append(("single-clause time", time.monotonic() - t0 < 60.0))
    checks.append(("single-clause value", abs(sct - 5.191) <= 1e-3))

    failed = [name for name, ok in checks if not ok]
    _report(capsys, 1, "headline numbers reproduce within tolerance",
            not failed,
            f"sunflower={sun['value']:.4e} nosegay={nose['value']:.4e} "
            f"b={b:.4f} single-clause={sct:.4f}"
            + (f" failed={failed}" if failed else ""))


def test_criterion_2_gadget_formulas_match_oracle(capsys):
    t0 = time.monotonic()
    mismatches = []
    cases = 0

    def check(label, graph, formula_rank):
        nonlocal cases
        cases += 1
        # the default trial count: a wrong oracle rank has chance <= 2^-40
        oracle = generic_rank_field(graph, seed=0).rank
        if oracle != formula_rank:
            mismatches.append(f"{label}: formula {formula_rank} oracle {oracle}")

    k2_cases = 0
    k4_nosegays = []
    for family, params, formula_rank, graph in verification_cases(7):
        # the oracle's cost grows as 4^n; arity-2 graphs on at most 4
        # vertices with over 5 edges all fall in the rank-0 classes
        if graph.n > 10 or family == "k2" and graph.m > 5:
            continue
        check(f"{family} {params}", graph, formula_rank)
        k2_cases += family == "k2"
        if family == "nosegay-k" and params["k"] == 4:
            k4_nosegays.append(params["dvec"])
    # the k = 4 formula, an upper bound in general, is exact on every
    # hanging-count class with d_1 + ... + d_4 <= 2 (n <= 10)
    if k4_nosegays != [(0, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0), (1, 1, 0, 0)]:
        mismatches.append(f"k = 4 nosegay classes checked: {k4_nosegays}")
    # the one arity-2 class without edges: a single vertex
    check("k2 n=1", Hypergraph(1, []), k2_rank(Hypergraph(1, [])))
    k2_cases += 1

    elapsed = time.monotonic() - t0
    _report(capsys, 2, "gadget closed forms equal the field oracle exactly",
            not mismatches,
            f"{cases} cases ({k2_cases} arity-2 classes, "
            f"{len(k4_nosegays)} k = 4 nosegays) in {elapsed:.0f}s"
            + (f"; mismatches={mismatches[:3]}" if mismatches else ""))


def test_criterion_3_cross_formula_identities(capsys):
    bad = []
    for a, b, c in itertools.product(range(7), repeat=3):
        rank = nosegay_k_rank((a, b, c), 3).rank
        if nosegay3_via_binomial(a, b, c) != rank:
            bad.append(f"binomial ({a},{b},{c})")
        if nosegay3_paper_rank(a, b, c) != rank:
            bad.append(f"paper ({a},{b},{c})")
    for s in range(9):
        for a, b, c in sorted_dvecs(s, 3):
            want = nosegay_hang_rank(a, b, c).rank
            if stoquastic_component_count(a, b, c, mode="states") != want:
                bad.append(f"states ({a},{b},{c})")
            if stoquastic_component_count(a, b, c, mode="cube") != want:
                bad.append(f"cube ({a},{b},{c})")
    for k in range(2, 7):
        for d in range(11):
            dvec = (d,) + (0,) * (k - 1)
            if nosegay_k_rank(dvec, k).rank != sunflower_rank(d + 1, k).rank:
                bad.append(f"arm d={d} k={k}")
        base = (1 << (k - 1)) - 2
        for d in range(21):
            total = sum(math.comb(d, a) * (a + 2) * base ** (d - a)
                        for a in range(d + 1))
            if total != sunflower_rank(d, k).rank:
                bad.append(f"petal-sum d={d} k={k}")
    _report(capsys, 3, "cross-formula identities hold exactly", not bad,
            f"failures={bad[:4]}" if bad else "binomial, stoquastic, "
            "k-arity reduction, and petal-sum identities all exact")


def test_criterion_4_rank_product_bound(capsys):
    rng = make_rng(20260816)
    violations = []
    trials = 100
    for i in range(trials):
        n_g = int(rng.integers(3, 9))
        n_h = int(rng.integers(2, n_g + 1))
        g = random_mixed_graph(n_g, int(rng.integers(0, n_g + 1)), rng)
        h = random_mixed_graph(n_h, int(rng.integers(1, n_h + 2)), rng)
        joined = attach(g, h, rng.choice(n_g, size=n_h, replace=False).tolist())
        r_g = generic_rank_field(g, seed=i).rank
        r_h = generic_rank_field(h, seed=i).rank
        r_j = generic_rank_field(joined, seed=i).rank
        if r_j * (1 << n_h) > r_g * r_h:
            violations.append((i, n_g, n_h, r_g, r_h, r_j))
    _report(capsys, 4, "rank product bound holds on random attachments",
            not violations,
            f"{trials} attachments, {len(violations)} violations"
            + (f"; first={violations[0]}" if violations else ""))


def _nosegay_peel_problems(n, alpha, k, seeds):
    """Peel a k-uniform graph per seed, as `qksat peel --gadget nosegay`
    does; each trajectory must stay within 0.01 of nosegay_ode and each
    value within 0.01 of nosegay_bound."""
    problems = []
    target = nosegay_bound(alpha, k).value
    nu0 = nosegay_ode(alpha, k)[1]
    for seed in seeds:
        g = random_hypergraph(n, round(alpha * n), k, child_rng(seed, 0))
        trace = nosegay_peel(g, seed)
        sup = 0.0
        for vertices, edges in zip(trace.vertices_remaining.tolist(),
                                   trace.edges_remaining.tolist()):
            nu = vertices / n
            frac = edges / n
            err = abs(frac - nosegay_mu(alpha, nu, k)) if nu >= nu0 else frac
            sup = max(sup, err)
        if sup > 0.01:
            problems.append(f"nosegay k={k} alpha={alpha} trajectory seed "
                            f"{seed}: {sup:.4f}")
        emp = empirical_log_rank(trace)
        if abs(emp - target) > 0.01:
            problems.append(f"nosegay k={k} alpha={alpha} value seed {seed}: "
                            f"{emp:.5f}")
    return problems


def test_criterion_5_peeling_matches_analytics(capsys):
    t0 = time.monotonic()
    n = 100_000
    seeds = range(5)
    problems = []

    alpha_s = 3.894
    target_s = sunflower_bound(alpha_s, 3).value
    densities = sunflower_densities(alpha_s, 3, 10)[0]
    for seed in seeds:
        g = random_hypergraph(n, round(alpha_s * n), 3, child_rng(seed, 0))
        trace = sunflower_peel(g, seed)
        counts = np.bincount(trace.steps[:, 0], minlength=11)[:11]
        hist_err = float(np.max(np.abs(counts / n - densities)))
        if hist_err > 0.01:
            problems.append(f"sunflower hist seed {seed}: {hist_err:.4f}")
        emp = empirical_log_rank(trace)
        if abs(emp - target_s) > 0.01:
            problems.append(f"sunflower value seed {seed}: {emp:.5f}")

    problems += _nosegay_peel_problems(n, 3.594, 3, seeds)

    elapsed = time.monotonic() - t0
    ok = not problems and elapsed < 300.0
    _report(capsys, 5, "peeling concentrates on the analytic limits",
            ok, f"n={n}, 5 seeds per algorithm, {elapsed:.0f}s"
            + (f"; problems={problems[:3]}" if problems else ""))


def test_criterion_5_nosegay_peel_at_k4_matches_analytics(capsys):
    t0 = time.monotonic()
    # Each early step consumes about k^2 alpha edges, so at n = 1e5 the
    # trajectory's sampling noise has sd about 0.006 near nu = 0.9 and its
    # sup over one run reaches 0.012; doubling n keeps 0.01 a safe margin.
    n = 200_000
    problems = []
    for alpha in (7.0, 8.0):
        problems += _nosegay_peel_problems(n, alpha, 4, range(3))
    elapsed = time.monotonic() - t0
    _report(capsys, 5, "the 4-uniform nosegay peel concentrates on its "
            "analytic limits", not problems,
            f"n={n}, alpha 7.0 and 8.0, 3 seeds each, {elapsed:.0f}s"
            + (f"; problems={problems[:3]}" if problems else ""))


def test_criterion_6_backend_agreement(capsys):
    rng = make_rng(777)
    disagreements = []
    unstable = 0
    total = 50
    for i in range(total):
        n = 4 + (i % 7)
        g = random_mixed_graph(n, int(rng.integers(1, n + 3)), rng)
        field = generic_rank_field(g, seed=i).rank
        try:
            fl = min_rank_float(g, samples=3, seed=i).rank
        except RankInstabilityError:
            unstable += 1
            continue
        if fl != field:
            disagreements.append((i, n, g.m, field, fl))
    ok = not disagreements and unstable < 0.05 * total
    _report(capsys, 6, "float and field backends agree", ok,
            f"{total} instances, {len(disagreements)} disagreements, "
            f"{unstable} unstable"
            + (f"; first={disagreements[0]}" if disagreements else ""))


def test_criterion_7_k2_phase_transition(capsys):
    n, samples = 2000, 20
    sat_like = sum(
        k2_rank(random_hypergraph(n, round(0.4 * n), 2, seed=s)) >= 1
        for s in range(samples))
    unsat_like = sum(
        k2_rank(random_hypergraph(n, round(0.6 * n), 2, seed=1000 + s)) == 0
        for s in range(samples))
    ok = sat_like >= 16 and unsat_like >= 16
    _report(capsys, 7, "arity-2 rank flips across density 1/2", ok,
            f"alpha=0.4: rank>=1 in {sat_like}/{samples}; "
            f"alpha=0.6: rank=0 in {unsat_like}/{samples}")


def test_criterion_8_general_k_certifies_scaled_b(capsys):
    b = solve_b()
    values = {k: general_k_bound((1 << k) * b, k).value for k in range(3, 13)}
    bad = {k: v for k, v in values.items() if not v < 0}
    _report(capsys, 8, "general-k bound certifies alpha = 2^k b", not bad,
            f"max value {max(values.values()):.4f} over k=3..12"
            + (f"; nonnegative at {sorted(bad)}" if bad else ""))
