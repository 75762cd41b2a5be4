"""Independent reference routes and graph utilities that only the tests use."""

import csv
import tracemalloc
from fractions import Fraction
from math import comb

import mpmath
import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from qksat import analysis
from qksat.analysis import nosegay_ode
from qksat.gadgets import (gadget_log_weight, nosegay_hang_graph,
                           nosegay_hang_rank)
from qksat.hypergraph import Hypergraph
from qksat.peeling import GADGETS
from qksat.rank_oracle import generic_rank_float
from qksat.rng import child_rng

STOQUASTIC_CAP = 22


def nosegay3_paper_rank(a: int, b: int, c: int) -> int:
    """The paper's (a,b,c)-nosegay rank, 3^(a+b+c-3) [(a+6)(b+6)(c+6) -
    (a+3)(b+3)(c+3)], asserted integral."""
    value = Fraction(3) ** (a + b + c - 3) * ((a + 6) * (b + 6) * (c + 6)
                                              - (a + 3) * (b + 3) * (c + 3))
    assert value.denominator == 1, (a, b, c, value)
    return value.numerator


def nosegay3_via_binomial(a: int, b: int, c: int) -> int:
    """The 3-uniform nosegay rank as a binomial sum over hanging-edge ranks.

    R_(a,b,c) = sum over p,q,r of 2^(a+b+c-p-q-r) C(a,p) C(b,q) C(c,r) R_[p,q,r].
    Independent route to the same integer as nosegay3_paper_rank.
    """
    total = 0
    for p in range(a + 1):
        for q in range(b + 1):
            for r in range(c + 1):
                hang = nosegay_hang_rank(p, q, r).rank
                total += (
                    (1 << (a + b + c - p - q - r))
                    * comb(a, p) * comb(b, q) * comb(c, r) * hang
                )
    return total


# Simpson panels over peel time of the sunflower degree density reference
SUNFLOWER_PANELS = 4096


def sunflower_degree_densities(d_max: int, alpha: float,
                               k: int = 3) -> np.ndarray:
    """a_d for d = 0..d_max: the limiting fraction of peeling steps whose
    sunflower has degree d, the integral over peel time t in [0, 1] of the
    Poisson pmf of mean k alpha t^(k-1), by the Simpson rule on
    SUNFLOWER_PANELS panels: a quadrature reference for the closed form of
    analysis.sunflower_densities."""
    analysis.check_model(alpha, k)
    t = np.linspace(0.0, 1.0, SUNFLOWER_PANELS + 1)
    return analysis._poisson_integral(k * alpha * t ** (k - 1), 0.0, 1.0,
                                      d_max, lambda pmf: pmf)[0]


def sunflower_bound_reference(alpha: float, k: int, d_max: int):
    """The sunflower bound ln 2 + sum_{d<=d_max} a_d (d ln(1 - 2^(1-k))
    + ln(1 + d/(2^k - 2))) in 40-digit mpmath, from a_d = s gamma(d+s, A) /
    (d! A^s), A = k alpha and s = 1/(k-1): mpmath.gammainc gives the lower
    incomplete gamma at d_max + s, and the all-positive recurrence
    gamma(a, A) = (gamma(a+1, A) + A^a e^-A) / a the ones below."""
    with mpmath.workdps(40):
        big, s = mpmath.mpf(k) * mpmath.mpf(alpha), mpmath.mpf(1) / (k - 1)
        slope = mpmath.log1p(-mpmath.mpf(2) ** (1 - k))
        gam = mpmath.gammainc(d_max + s, 0, big)
        power = big ** (d_max + s) * mpmath.exp(-big)
        total = mpmath.mpf(0)
        for d in range(d_max, -1, -1):
            a_d = s * gam / (mpmath.factorial(d) * big ** s)
            total += a_d * (d * slope + mpmath.log1p(d / (mpmath.mpf(2) ** k - 2)))
            if d:
                power /= big
                gam = (gam + power) / (d - 1 + s)
        return mpmath.log(2) + total


def bisect_reference(f, lo: float, hi: float, width: float):
    """Plain bisection of [lo, hi] down to at most `width`, the reference
    for analysis.bisect_bracket: f(lo) > 0 > f(hi), then the midpoint
    0.5 (lo + hi) replaces hi where f is negative there and lo otherwise.
    Where no float lies strictly between lo and hi the loop could not end,
    and ValueError is raised instead."""
    f_lo, f_hi = f(lo), f(hi)
    if not f_lo > 0 > f_hi:
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            raise ValueError(f"no float lies between {lo!r} and {hi!r}")
        if f(mid) < 0:
            hi = mid
        else:
            lo = mid
    return lo, hi


def nosegay_mu(alpha: float, nu: float, k: int = 3) -> float:
    """Edges per original vertex at nu on the nosegay peel's trajectory,
    nu(c nu^(k-1) - 1)/(k(k-1)), c from nosegay_ode."""
    c, _ = nosegay_ode(alpha, k)
    return nu * (c * nu ** (k - 1) - 1.0) / (k * (k - 1))


def stoquastic_component_count(a: int, b: int, c: int, mode: str = "states") -> int:
    """Rank of the canonical hanging-edge nosegay, counted combinatorially.

    mode="states": adorn the center with |000> - |111> and every hanging edge
    with a singlet |01> - |10|; the satisfying dimension is the number of
    connected components of the graph on the 2^n basis states whose edges
    join states mixed by some projector. mode="cube": count the diagonals
    parallel to (1,1,1) in the integer box [0,a+1] x [0,b+1] x [0,c+1], an
    independent reduction of the same count.
    """
    if min(a, b, c) < 0:
        raise ValueError(f"counts must be nonnegative, got {(a, b, c)}")
    if mode == "cube":
        reps = set()
        for x in range(a + 2):
            for y in range(b + 2):
                for z in range(c + 2):
                    drop = min(x, y, z)
                    reps.add((x - drop, y - drop, z - drop))
        return len(reps)
    if mode != "states":
        raise ValueError(f"mode must be 'states' or 'cube', got {mode!r}")
    n = 3 + a + b + c
    if n > STOQUASTIC_CAP:
        raise ValueError(f"n={n} exceeds the stoquastic cap {STOQUASTIC_CAP}")
    states = np.arange(1 << n, dtype=np.int64)
    pairs = []
    # center: states agreeing off qubits {0,1,2} and reading 000 there link to 111
    low = states[(states & 7) == 0]
    pairs.append((low, low | 7))
    # each hanging edge (u,v), u its center: 01 links to 10, other qubits fixed
    for u, v in nosegay_hang_graph(a, b, c).edges[1:]:
        mask = (1 << u) | (1 << v)
        sel = states[(states & (1 << u) == 0) & (states & (1 << v) != 0)]
        pairs.append((sel, sel ^ mask))
    us, vs = (np.concatenate(side) for side in zip(*pairs))
    links = coo_matrix((np.ones(len(us)), (us, vs)), shape=(1 << n, 1 << n))
    return connected_components(links, directed=False)[0]


def complex_unit_vector(rng: np.random.Generator, size: int) -> np.ndarray:
    """The complex adornment: the conjugate of a vector uniform on the unit
    sphere of C^size (real normals, then imaginary, normalized)."""
    z = rng.normal(size=size) + 1j * rng.normal(size=size)
    return np.conj(z / np.linalg.norm(z))


def clause_rows_by_kron(edge, n: int, w: np.ndarray) -> np.ndarray:
    """Rows of one clause with entries w, built as kron(I, w) on the qubit
    order (rest..., edge...) and then permuted into the global order (bit v
    of a column index is vertex v); independent of clause_columns."""
    rest = [v for v in range(n) if v not in edge]
    m = np.kron(np.eye(1 << len(rest)), w[None, :])
    # column axis i of the reshaped rows is local bit n-1-i, the rest above
    # the edge; move vertex v to axis n-1-v, the global bit v
    vertex_at_axis = (list(edge) + rest)[::-1]
    axes = [1 + vertex_at_axis.index(v) for v in reversed(range(n))]
    t = m.reshape((-1,) + (2,) * n).transpose([0] + axes)
    return t.reshape(m.shape[0], 1 << n)


def complex_adorned_rank(g: Hypergraph, samples: int = 3, seed: int = 0) -> int:
    """Least float rank over `samples` complex adornments, trial t drawing
    each clause's entries in edge order from child_rng(seed, t): the complex
    reference for the real-adorned min_rank_float."""
    best = 1 << g.n
    for t in range(samples):
        rng = child_rng(seed, t)
        blocks = [clause_rows_by_kron(e, g.n, complex_unit_vector(rng, 1 << len(e)))
                  for e in g.edges]
        a = np.concatenate(blocks) if blocks else np.zeros((0, 1 << g.n))
        best = min(best, generic_rank_float(a).rank)
    return best


def random_mixed_graph(n: int, m: int, rng: np.random.Generator) -> Hypergraph:
    """m clauses of arity 2 or 3, each arity and vertex set drawn from rng
    (arity 2 only when n < 3)."""
    edges = []
    for _ in range(m):
        k = 2 if n < 3 else int(rng.integers(2, 4))
        edges.append(tuple(sorted(rng.choice(n, size=k, replace=False).tolist())))
    return Hypergraph(n, edges)


def attach(g: Hypergraph, h: Hypergraph, embedding) -> Hypergraph:
    """g plus a copy of h whose vertices are mapped into g through `embedding`.

    `embedding` maps each vertex of h (0..h.n-1) to a distinct vertex of g;
    it may be a dict or a sequence indexed by h's vertices. The result keeps
    g's vertex count; h's edges are appended after g's.
    """
    if isinstance(embedding, dict):
        missing = [v for v in range(h.n) if v not in embedding]
        if missing:
            raise ValueError(f"embedding missing h vertices {missing}")
        image = [embedding[v] for v in range(h.n)]
    else:
        image = [int(x) for x in embedding]
        if len(image) != h.n:
            raise ValueError(f"embedding covers {len(image)} vertices, h has {h.n}")
    if len(set(image)) != len(image):
        raise ValueError("embedding must be injective")
    if image and (min(image) < 0 or max(image) >= g.n):
        raise ValueError(f"embedding image out of range for g.n={g.n}")
    new_edges = [tuple(sorted(image[v] for v in e)) for e in h.edges]
    return Hypergraph(g.n, g.edges + tuple(new_edges))


def format_hypergraph(g: Hypergraph) -> str:
    """The text format that parse_hypergraph reads."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(" ".join(str(v) for v in e) for e in g.edges)
    return "\n".join(lines) + "\n"


def write_hypergraph(g: Hypergraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_hypergraph(g))


def write_trace_csv_reference(trace, path) -> None:
    """The `--trace` CSV written row by row through csv.writer, one
    log-weight per distinct step row, with the remaining vertex and edge
    counts kept as running totals: the reference for write_trace_csv."""
    family = GADGETS[trace.algorithm]
    weights = {}
    vertices, edges = trace.n, trace.m
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "vertices_remaining", "edges_remaining",
                         "gadget", "params", "log_weight", "anomaly"])
        for i, (row, a) in enumerate(zip(trace.steps.tolist(),
                                         trace.step_anomalies.tolist())):
            key = tuple(row)
            # the step's centers; its hanging edges, and a central edge
            # joining two or more centers
            vertices -= len(key)
            edges -= sum(key) + (len(key) >= 2)
            if key not in weights:
                weights[key] = gadget_log_weight(key, trace.k)
            writer.writerow([i, vertices, edges, family, ";".join(map(str, row)),
                             repr(weights[key]), a])


def traced_peak(call) -> int:
    """The tracemalloc peak of call() in bytes, over what was traced before."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
