"""Output checks for the benchmark's ops.

Each check returns a list of problems (empty when the output is right). The
checks hold for any correct implementation: they test analytic agreement and
internal consistency, never the exact bytes a seed produces, since a faster
peel may legitimately draw a different sample from the same seed.
"""

from __future__ import annotations

from math import log, log1p

PEEL_TOLERANCE = 0.01
ROOT_TOLERANCE = 1e-3
# the bounds at the peel densities; both densities sit at their thresholds,
# so these are ~1e-4 and far inside PEEL_TOLERANCE
ANALYTIC_VALUE = {("sunflower", 3.894): -1.3721e-4, ("nosegay", 3.594): -1.6010e-4}
THRESHOLD = {"sunflower": 3.894, "nosegay": 3.594}


def peel(payload: dict, *, gadget: str, n: int, alpha: float,
         trace_rows: int) -> list[str]:
    problems = []
    value = payload.get("value")
    expected = ANALYTIC_VALUE[(gadget, alpha)]
    if value is None or abs(value - expected) > PEEL_TOLERANCE:
        problems.append(f"peel value {value} not within {PEEL_TOLERANCE} "
                        f"of the analytic {expected}")
    steps = payload.get("step_count")
    if gadget == "sunflower" and steps != n:
        problems.append(f"sunflower step_count {steps} != n {n}")
    if not isinstance(steps, int) or trace_rows != steps + 1:
        problems.append(f"trace has {trace_rows} rows for {steps} steps")
    return problems


def rank_pair(field: dict | None, flt: dict) -> list[str]:
    """The float rank must equal the field rank of the same graph; a field
    op that already failed is counted there, not again here."""
    if field is None or field.get("rank") == flt.get("rank"):
        return []
    return [f"float rank {flt.get('rank')} != field rank {field.get('rank')}"]


def verify(payload: dict, min_cases: int = 51) -> list[str]:
    problems = []
    if payload.get("all_equal") is not True:
        problems.append(f"verify reports {payload.get('failures')} mismatches")
    if not payload.get("case_count", 0) >= min_cases:
        problems.append(f"verify covered {payload.get('case_count')} < {min_cases} cases")
    return problems


def threshold_root(payload: dict, method: str) -> list[str]:
    root = payload.get("root")
    if root is None or abs(root - THRESHOLD[method]) > ROOT_TOLERANCE:
        return [f"{method} root {root} not within {ROOT_TOLERANCE} "
                f"of {THRESHOLD[method]}"]
    return []


def general_k_value(alpha: float, k: int) -> float:
    """ln 2 + alpha ln(1 - 2^(1-k)) + ln(1 + alpha / (2^k - 2))."""
    return log(2.0) + alpha * log1p(-(2.0 ** (1 - k))) + log1p(alpha / (2 ** k - 2))


def general_k_root(payload: dict) -> list[str]:
    """The closed form must change sign across root +- ROOT_TOLERANCE."""
    root, k = payload.get("root"), payload.get("k")
    if root is None or not (general_k_value(root - ROOT_TOLERANCE, k) > 0
                            > general_k_value(root + ROOT_TOLERANCE, k)):
        return [f"general-k root {root} at k={k} is not a sign change"]
    return []


def bound(payload: dict) -> list[str]:
    if payload.get("verdict") != "unsat-whp":
        return [f"{payload.get('method')} bound verdict {payload.get('verdict')!r}"]
    return []
