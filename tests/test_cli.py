"""End-to-end tests of the command-line interface."""

import csv
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qksat.cli as cli
import qksat.rank_oracle as rank_oracle
from qksat._modlin import P
from qksat.analysis import general_k_bound
from qksat.hypergraph import Hypergraph, random_hypergraph
from qksat.rank_oracle import RankInstabilityError
from qksat.rng import make_rng
from support import random_mixed_graph, write_hypergraph


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_bound_nosegay_example(capsys):
    payload = run_json(capsys, "bound", "nosegay", "--alpha", "3.594")
    assert payload["method"] == "nosegay"
    assert payload["value"] == pytest.approx(-1.601e-4, abs=2e-5)
    assert payload["verdict"] == "unsat-whp"
    # the derived cutoff ceil(k alpha + 12 sqrt(k alpha)) + 20, k = 3
    assert payload["params"]["truncation"] == 71


def test_bound_nosegay_refuses_oversized_series_table(capsys, monkeypatch):
    import qksat.analysis as analysis

    def unreachable(*args):
        raise AssertionError("the pmf was built before the refusal")

    monkeypatch.setattr(analysis, "_poisson_pmf", unreachable)
    code, out, err = run_cli(capsys, "bound", "nosegay", "--alpha", "0.6",
                             "--k", "2", "--trunc", "100000")
    assert code == 2 and out == ""
    assert "nosegay series table" in err


def test_bound_nosegay_refuses_before_building_its_tables(capsys, monkeypatch):
    import qksat.analysis as analysis

    terms = analysis._nosegay_vertex_terms

    def one_degree_only(k, ds):
        assert ds.size == 1, "a (T+1)-sized table was built before the refusal"
        return terms(k, ds)

    monkeypatch.setattr(analysis, "_nosegay_vertex_terms", one_degree_only)
    code, out, err = run_cli(capsys, "bound", "nosegay", "--alpha", "0.6",
                             "--k", "2", "--trunc", "100000")
    assert code == 2 and out == ""
    assert "nosegay series table" in err


@pytest.mark.parametrize("argv", [
    ("bound", "nosegay", "--alpha", "1e17"),
    ("bound", "nosegay", "--alpha", "1e20"),
    ("bound", "nosegay", "--alpha", "3.6", "--trunc", str(10 ** 17)),
    ("threshold", "nosegay", "--trunc", str(10 ** 17)),
])
def test_nosegay_refuses_huge_cutoffs(capsys, argv):
    # x(T) rounds to 1 from T ~ 3e16 on, and T >= 2^63 overflows int64
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "nosegay series table" in err


def test_bound_sunflower_refuses_oversized_cutoff(capsys, monkeypatch):
    import qksat.analysis as analysis

    def unreachable(*args):
        raise AssertionError("the table was built before the refusal")

    monkeypatch.setattr(analysis, "_stirlerr", unreachable)
    # 10^12 degrees: terabytes of table
    code, out, err = run_cli(capsys, "bound", "sunflower", "--alpha", "3.894",
                             "--dmax", str(10 ** 12))
    assert code == 2 and out == ""
    assert "sunflower degree table" in err


@pytest.mark.parametrize("argv", [
    ("bound", "sunflower", "--alpha", "1e308", "--dmax", "10"),
    ("bound", "sunflower", "--alpha", "1e308"),
    ("bound", "nosegay", "--alpha", "1e308"),
    # k alpha is finite here, the nosegay's k(k-1) alpha is not
    ("bound", "nosegay", "--alpha", "5.6e307", "--trunc", "20"),
], ids=" ".join)
def test_bounds_refuse_an_overflowing_mean_by_name(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert f"alpha = {float(argv[3])!r} is too large" in err


def test_nosegay_tail_below_the_mean_takes_truncation_columns(capsys,
                                                              monkeypatch):
    # at T = 20 < k alpha the dropped mass is 1 - P(d <= T): no pmf of
    # 2 k alpha columns, which at alpha = 1e200 numpy cannot allocate
    import qksat.analysis as analysis

    pmf, widths = analysis._poisson_pmf, set()

    def recorded(lam, d_max):
        widths.add(d_max + 1)
        return pmf(lam, d_max)

    monkeypatch.setattr(analysis, "_poisson_pmf", recorded)
    for alpha in ("1e6", "1e200"):
        payload = run_json(capsys, "bound", "nosegay", "--alpha", alpha,
                           "--trunc", "20")
        assert payload["params"]["max_poisson_tail"] == 1.0
        assert payload["verdict"] == "inconclusive"
    assert widths == {21}


def test_bound_sunflower_headline(capsys):
    payload = run_json(capsys, "bound", "sunflower", "--alpha", "3.894",
                       "--dmax", "100")
    assert payload["value"] == pytest.approx(-1.372e-4, abs=2e-5)
    assert payload["k"] == 3 and payload["alpha"] == 3.894


def test_bound_single_clause(capsys):
    payload = run_json(capsys, "bound", "single-clause", "--k", "3")
    assert payload["threshold"] == pytest.approx(5.191, abs=1e-3)
    assert "verdict" not in payload
    above = run_json(capsys, "bound", "single-clause", "--k", "3",
                     "--alpha", "6.0")
    assert above["verdict"] == "unsat-whp"
    below = run_json(capsys, "bound", "single-clause", "--k", "3",
                     "--alpha", "5.0")
    assert below["verdict"] == "inconclusive"


def test_bound_single_clause_at_the_edge_of_float_range(capsys):
    # the verdict only compares alpha with the threshold, which is finite at
    # k = 1024 though 2^k overflows a float
    for alpha, verdict in (("1e308", "inconclusive"), ("1.3e308", "unsat-whp")):
        payload = run_json(capsys, "bound", "single-clause", "--k", "1024",
                           "--alpha", alpha)
        assert payload["threshold"] == 1.2460659279417838e+308
        assert payload["verdict"] == verdict, alpha
    for k, alpha, message in [
            ("1025", "2", "overflows a float at k = 1025"),
            ("1024", "0", "alpha must be positive, got 0.0"),
            ("1024", "-1", "alpha must be positive, got -1.0"),
            ("1024", "nan", "argument --alpha: expects a finite number")]:
        code, out, err = run_cli(capsys, "bound", "single-clause", "--k", k,
                                 "--alpha", alpha)
        assert code == 2 and out == "", alpha
        assert message in err, alpha


def test_bound_general_k(capsys):
    payload = run_json(capsys, "bound", "general-k", "--alpha", "9.0",
                       "--k", "4")
    want = (math.log(2) + 9.0 * math.log1p(-0.125) + math.log1p(9.0 / 14))
    assert payload["value"] == pytest.approx(want, rel=1e-12)


def test_gadget_commands(capsys):
    sun = run_json(capsys, "gadget", "sunflower", "--d", "0", "--k", "3")
    assert sun["rank"] == 2 and sun["vertex_count"] == 1
    hang = run_json(capsys, "gadget", "nosegay-hang", "--a", "1", "--b", "2",
                    "--c", "3")
    assert hang["rank"] == 36
    nk = run_json(capsys, "gadget", "nosegay-k", "--dvec", "2,0,0")
    assert nk["rank"] == 81 and nk["params"]["k"] == 3
    # the paper's (1,2,3)-nosegay
    nk = run_json(capsys, "gadget", "nosegay-k", "--dvec", "1,2,3")
    assert (nk["rank"], nk["vertex_count"]) == (10368, 15)
    tree = run_json(capsys, "gadget", "k2", "--vertices", "3", "--edges", "2")
    assert tree["rank"] == 4
    assert tree["log_weight"] == pytest.approx(math.log(4) - 3 * math.log(2))


@pytest.mark.parametrize("argv, name", [
    (("nosegay-hang", "--a", str(10 ** 2000), "--b", "1", "--c", "1"), "a"),
    (("sunflower", "--d", str(10 ** 400)), "d"),
    (("k2", "--vertices", str(10 ** 400), "--edges", str(10 ** 400 - 1)),
     "vertices"),
    (("nosegay-k", "--dvec", f"{10 ** 400},0,0"), "d0"),
], ids=["nosegay-hang", "sunflower", "k2", "nosegay-k"])
def test_gadget_refuses_huge_counts_by_name(capsys, argv, name):
    # a count beyond float range is refused by its option's name
    code, out, err = run_cli(capsys, "gadget", *argv)
    assert code == 2 and out == ""
    assert err == f"error: {name} must be below 2^63\n"


def test_gadget_refuses_ranks_too_long_to_print(capsys, monkeypatch):
    import qksat.gadgets as gadgets

    # (2998, 3000, 3000) has 4300 digits, Python's default int print limit
    edge = run_json(capsys, "gadget", "nosegay-k", "--dvec", "2998,3000,3000")
    assert len(str(edge["rank"])) == 4300
    # the all-zero nosegay of arity k has rank 2^k - 1
    zeros = run_json(capsys, "gadget", "nosegay-k",
                     "--dvec", ",".join("0" * 2000))
    assert zeros["rank"] == 2 ** 2000 - 1

    def unreachable(*args):
        raise AssertionError("the rank was built before the refusal")

    # 4775, 4301 and 4301 digits
    for argv in [("gadget", "sunflower", "--d", "10000", "--k", "3"),
                 ("gadget", "nosegay-k", "--dvec", "3000,3000,3000"),
                 ("gadget", "nosegay-k", "--dvec", ",".join("0" * 14285))]:
        with monkeypatch.context() as patch:
            patch.setattr(gadgets, "sunflower_rank", unreachable)
            patch.setattr(gadgets, "nosegay_k_rank", unreachable)
            code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.count("\n") == 1 and "decimal digits" in err, argv
    # the peel's log-weights take such ranks: 3^8997 (3006^3 - 3003^3) over
    # 2^18003
    want = (8997 * math.log(3) + math.log(3006 ** 3 - 3003 ** 3)
            - 18003 * math.log(2))
    assert gadgets.gadget_log_weight((3000,) * 3, 3) == pytest.approx(want)


def test_readme_gadget_and_bound_examples_run(capsys):
    # every `qksat gadget|bound ...` line of the README's sh blocks
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S):
        for line in block.splitlines():
            argv = shlex.split(line.removeprefix("$ "))
            if argv[:1] == ["qksat"] and argv[1:2] in (["gadget"], ["bound"]):
                commands.append(argv[1:])
    assert {argv[0] for argv in commands} == {"gadget", "bound"}
    for argv in commands:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
        assert json.loads(out)["command"] == argv[0]


def test_readme_library_example_runs(capsys):
    # the README's python block; a print commented with a value prints it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## Library\n\n```python\n(.*?)^```", readme,
                      re.M | re.S)[1]
    exec(block, {})
    out = capsys.readouterr().out.splitlines()
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    assert len(out) == len(prints)
    for line, got in zip(prints, out):
        if "#" in line:
            assert got == line.split("#", 1)[1].strip(), line


def test_gadget_zero_rank_serializes_null(capsys):
    code, out, _ = run_cli(capsys, "gadget", "k2", "--vertices", "2",
                           "--edges", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 0
    assert payload["log_weight"] is None
    assert "Infinity" not in out


def test_rank_modes(tmp_path, capsys):
    path = tmp_path / "triangle.hg"
    write_hypergraph(Hypergraph(3, [(0, 1, 2)]), path)
    field = run_json(capsys, "rank", "--graph", str(path))
    assert field["rank"] == 7 and field["backend"] == "field"
    # one row, so two trials take the Schwartz-Zippel bound (1/P)^2 below 2^-40
    assert field["prime"] == P and field["trials"] == 2
    assert field["failure_bound"] == 1 / P ** 2 <= 2 ** -40
    forced = run_json(capsys, "rank", "--graph", str(path), "--trials", "1")
    assert forced["trials"] == 1 and forced["failure_bound"] == 1 / P
    fl = run_json(capsys, "rank", "--graph", str(path), "--mode", "float")
    assert fl["rank"] == 7 and fl["backend"] == "float"
    assert fl["trials"] == 3 and fl["tolerance"] == 1e-9


def test_rank_field_refuses_tolerance(tmp_path, capsys):
    # the float cut is fixed at 1e-9, so neither mode takes --tolerance
    path = tmp_path / "triangle.hg"
    write_hypergraph(Hypergraph(3, [(0, 1, 2)]), path)
    for mode in ("field", "float"):
        for value in ("0.5", "1e-9"):
            code, out, err = run_cli(capsys, "rank", "--graph", str(path),
                                     "--mode", mode, "--tolerance", value)
            assert code == 2 and out == ""
            assert "--tolerance" in err


def test_rank_instability_exits_one(tmp_path, capsys, monkeypatch):
    path = tmp_path / "g.hg"
    write_hypergraph(Hypergraph(2, [(0, 1)]), path)

    def raiser(*args, **kwargs):
        raise RankInstabilityError(1.7)

    monkeypatch.setattr(cli, "min_rank_float", raiser)
    code, out, err = run_cli(capsys, "rank", "--graph", str(path),
                             "--mode", "float")
    assert code == 1
    assert out == ""
    assert "1.7" in err and "field backend" in err


def test_argument_errors_exit_two(tmp_path, capsys):
    graph = tmp_path / "edge.hg"
    write_hypergraph(Hypergraph(2, [(0, 1)]), graph)
    bad = [
        ("frobnicate",),
        ("peel", "--n", "10", "--alpha", "1.0", "--gadget", "sunflower"),
        ("bound", "sunflower"),
        ("bound", "nosegay", "--alpha", "3.0", "--k", "1"),
        ("rank", "--graph", str(tmp_path / "missing.hg")),
        ("gadget", "nosegay-k", "--dvec", "1,x"),
        ("gadget", "nosegay3", "--a", "1", "--b", "2", "--c", "3"),
        ("gadget", "sunflower", "--d", "-1"),
        ("gadget", "k2", "--vertices", "3", "--edges", "3", "--max-mult", "1"),
        ("rank", "--graph", str(graph), "--prime", "97"),
        ("bound", "sunflower", "--alpha", "nan"),
        ("bound", "nosegay", "--alpha", "inf"),
        ("bound", "general-k", "--alpha", "inf"),
        ("bound", "single-clause", "--alpha", "nan"),
        ("bound", "single-clause", "--alpha", "-1"),
        ("bound", "single-clause", "--alpha", "0"),
        ("peel", "--n", "10", "--alpha", "inf", "--gadget", "sunflower",
         "--seed", "0"),
        ("verify", "gadgets", "--max-size", "-1"),
    ]
    for argv in bad:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
    # a negative density is named, not the edge count derived from it
    for alpha in ("-0.004", "-1"):
        code, out, err = run_cli(capsys, "peel", "--n", "100", "--alpha", alpha,
                                 "--gadget", "nosegay", "--seed", "0")
        assert (code, out) == (2, "")
        assert err == f"error: alpha must be nonnegative, got {float(alpha)}\n"


def test_rank_refuses_malformed_graph_files(tmp_path, capsys):
    path = tmp_path / "bad.hg"
    for text, message in [("", "empty hypergraph file"),
                          (" \n\n\t\n", "empty hypergraph file"),
                          ("3\n0 1\n", "header must be 'n m', got '3'"),
                          ("3 1 1\n0 1\n", "header must be 'n m', got '3 1 1'")]:
        path.write_text(text)
        code, out, err = run_cli(capsys, "rank", "--graph", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n"), text


def test_negative_seeds_are_refused_by_name(tmp_path, capsys):
    graph = tmp_path / "edge.hg"
    write_hypergraph(Hypergraph(2, [(0, 1)]), graph)
    for argv, seed in [
            (("rank", "--graph", str(graph), "--seed", "-1"), -1),
            (("rank", "--graph", str(graph), "--mode", "float", "--seed", "-1"),
             -1),
            (("verify", "gadgets", "--seed", "-1"), -1),
            (("peel", "--n", "20", "--alpha", "1.0", "--gadget", "sunflower",
              "--seed", "-5"), -5),
            (("peel", "--n", "20", "--alpha", "1.0", "--gadget", "nosegay",
              "--seed", "-5"), -5)]:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert f"seed must be nonnegative, got {seed}" in err, argv


def test_parser_is_built_once_and_reused(capsys):
    argv = ("threshold", "general-k", "--k", "4")
    first = run_cli(capsys, *argv)
    # one argv that argparse rejects and one that a handler rejects
    assert run_cli(capsys, "bound", "nosegay", "--alpha", "3.7",
                   "--dmax", "50")[:2] == (2, "")
    assert run_cli(capsys, "bound", "sunflower", "--alpha", "0")[:2] == (2, "")
    again = run_cli(capsys, *argv)
    assert first[0] == again[0] == 0 and first[1] == again[1]
    assert cli._build_parser() is cli._build_parser()


def test_import_builds_no_parser():
    # importing the CLI constructs no parser: the first main call builds it,
    # and later calls reuse it
    script = """
import argparse
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
import qksat.cli as cli
print(len(built))
cli.main(["threshold", "general-k", "--k", "4"])
print(len(built))
cli.main(["threshold", "general-k", "--k", "4"])
print(len(built))
"""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    at_import, _, after_one, _, after_two = proc.stdout.splitlines()
    assert at_import == "0"
    assert int(after_one) > 0 and after_two == after_one


def test_options_a_method_never_reads_exit_two(capsys):
    ignored = [
        ("bound", "nosegay", "--alpha", "3.7", "--dmax", "50"),
        ("bound", "general-k", "--alpha", "5.0", "--dmax", "50"),
        ("bound", "sunflower", "--alpha", "3.9", "--trunc", "20"),
        ("bound", "general-k", "--alpha", "5.0", "--trunc", "20"),
        ("bound", "single-clause", "--trunc", "20"),
        ("threshold", "nosegay", "--dmax", "50"),
        ("threshold", "general-k", "--k", "4", "--dmax", "50"),
        ("threshold", "sunflower", "--trunc", "20"),
        ("threshold", "general-k", "--k", "4", "--trunc", "10"),
    ]
    for argv in ignored:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        # argparse names the option and its value
        assert out == ""
        assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in err, argv
    # every bound method but single-clause needs a density
    for method in ("sunflower", "nosegay", "general-k"):
        code, out, err = run_cli(capsys, "bound", method, "--k", "4")
        assert code == 2 and out == "", method
        assert "required: --alpha" in err, method
    # params echoes only what the method reads, defaults filled in
    assert run_json(capsys, "threshold", "general-k", "--k", "4")["params"] == {}
    assert run_json(capsys, "threshold", "sunflower", "--dmax", "60")[
        "params"] == {"d_max": 60}
    nosegay = run_json(capsys, "bound", "nosegay", "--alpha", "3.7",
                       "--trunc", "20")
    assert nosegay["params"]["truncation"] == 20
    sunflower = run_json(capsys, "bound", "sunflower", "--alpha", "3.9")
    # the derived cutoff ceil(k alpha + 12 sqrt(k alpha)) + 20, k = 3
    assert sunflower["params"]["d_max"] == 73


def test_bounds_certify_at_their_roots_for_larger_k(capsys):
    # nosegay roots of a separate prototype of the separable sum, rounded to
    # at most 5e-4; each lies below the sunflower root at the same k
    nosegay_roots = {4: 7.6126, 5: 15.5385, 6: 31.1827, 7: 62.0996, 8: 123.264}
    options = (("sunflower", "d_max"), ("nosegay", "truncation"))
    for k, want in nosegay_roots.items():
        roots = {}
        for method, option in options:
            root = run_json(capsys, "threshold", method, "--k", str(k))
            assert root["params"] == {option: None}
            roots[method] = root["root"]
            at_root = run_json(capsys, "bound", method, "--alpha",
                               repr(root["root"]), "--k", str(k))
            assert at_root["verdict"] == "unsat-whp", (k, method)
        assert roots["nosegay"] == pytest.approx(want, abs=5e-4), k
        assert roots["nosegay"] < roots["sunflower"], k


def test_sunflower_bound_and_root_are_quick_at_wide_cutoffs(capsys):
    # a closed form, no quadrature: 9.5 s and minutes before
    start = time.perf_counter()
    payload = run_json(capsys, "bound", "sunflower", "--alpha", "3.894",
                       "--dmax", "100000")
    assert time.perf_counter() - start < 1.0
    assert payload["params"]["d_max"] == 100000
    assert payload["verdict"] == "unsat-whp"
    start = time.perf_counter()
    root = run_json(capsys, "threshold", "sunflower", "--k", "16")["root"]
    assert time.perf_counter() - start < 5.0
    at_root = run_json(capsys, "bound", "sunflower", "--alpha", repr(root),
                       "--k", "16")
    assert at_root["verdict"] == "unsat-whp"


@pytest.mark.parametrize("k", range(18, 23))
def test_sunflower_root_at_large_k_certifies_or_is_refused(capsys,
                                                           monkeypatch, k):
    # as on a machine with 384 MiB: k = 18 runs (about 2 s and 240 MB) and
    # the tables of k = 19..22 are refused by name before they are built;
    # a root must certify, one precision below it the bound must not
    real = os.sysconf
    fake = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 384 << 20}
    monkeypatch.setattr(os, "sysconf",
                        lambda name: fake[name] if name in fake else real(name))
    code, out, err = run_cli(capsys, "threshold", "sunflower", "--k", str(k))
    if k > 18:
        assert code == 2 and out == ""
        assert "the sunflower degree table needs" in err
        return
    assert code == 0, err
    root = json.loads(out)["root"]
    verdicts = [run_json(capsys, "bound", "sunflower", "--alpha", repr(alpha),
                         "--k", str(k))["verdict"]
                for alpha in (root, root - 1e-4)]
    assert verdicts == ["unsat-whp", "inconclusive"]


def test_peel_nosegay_any_k(tmp_path, capsys):
    trace = tmp_path / "steps.csv"
    payload = run_json(capsys, "peel", "--n", "400", "--alpha", "7.0",
                       "--k", "4", "--gadget", "nosegay", "--seed", "3",
                       "--trace", str(trace))
    assert payload["k"] == 4 and payload["algorithm"] == "nosegay"
    with open(trace, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == payload["step_count"] > 0
    assert {row["gadget"] for row in rows} == {"nosegay-k"}
    assert all(len(row["params"].split(";")) == 4 for row in rows)
    assert rows[-1]["vertices_remaining"] == str(400 - 4 * len(rows))


def test_oracles_refuse_matrices_beyond_memory(tmp_path, capsys, monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("the oracle allocated past its memory preflight")

    monkeypatch.setattr(rank_oracle, "constraint_matrix", no_allocation)
    path = tmp_path / "wide.hg"
    # 2^20 columns and 2^18 rows: terabytes in either backend
    write_hypergraph(Hypergraph(20, [(0, 1), (2, 3)]), path)
    for mode in ("field", "float"):
        code, out, err = run_cli(capsys, "rank", "--graph", str(path),
                                 "--mode", mode, "--force")
        assert code == 2, mode
        assert out == "" and "physical memory" in err


def test_rank_cap_refusal_names_force(tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a trial was drawn before the refusal")

    monkeypatch.setattr(rank_oracle, "child_rng", unreachable)
    path = tmp_path / "big.hg"
    # at n = 30 the default trial count would refuse the 2^28 rows as too
    # large for the field, a reason that names no remedy: the cap comes first
    for n in (14, 30):
        write_hypergraph(Hypergraph(n, [(0, 1)]), path)
        for mode in ("field", "float"):
            code, out, err = run_cli(capsys, "rank", "--graph", str(path),
                                     "--mode", mode)
            assert code == 2, (n, mode)
            assert out == "" and "exceeds the cap 13; pass --force" in err
    # both modes name a bad seed or trial count before the cap, with the
    # library's messages (test_cap_and_parameter_validation)
    seed = "seed must be nonnegative, got -1"
    for flags, want in [(("--seed", "-1"), (seed, seed)),
                        (("--trials", "0"), ("trials must be >= 1, got 0",
                                             "samples must be >= 1, got 0"))]:
        for mode, message in zip(("field", "float"), want):
            code, out, err = run_cli(capsys, "rank", "--graph", str(path),
                                     "--mode", mode, *flags)
            assert (code, out, err) == (2, "", f"error: {message}\n"), mode


def test_rank_preflight_counts_two_matrices(tmp_path, capsys, monkeypatch):
    # either oracle holds the matrix and one more (a block-update product or
    # LAPACK's copy): 2.5 matrices of physical memory suffice, 1.5 do not
    g = random_hypergraph(9, 9, 3, 0)
    path = tmp_path / "g.hg"
    write_hypergraph(g, path)
    matrix = 8 * (64 * 9) << 9
    real = os.sysconf
    for share, want in [(2.5, 0), (1.5, 2)]:
        fake = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": int(share * matrix)}
        monkeypatch.setattr(os, "sysconf",
                            lambda name: fake[name] if name in fake else real(name))
        for mode in ("field", "float"):
            code, _, err = run_cli(capsys, "rank", "--graph", str(path),
                                   "--mode", mode)
            assert code == want, (share, mode, err)


def test_peel_refuses_graphs_beyond_memory(capsys, monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("the peel allocated past its memory preflight")

    monkeypatch.setattr(cli, "random_hypergraph", no_allocation)
    code, out, err = run_cli(capsys, "peel", "--n", "1000000000", "--alpha",
                             "3.894", "--gadget", "sunflower", "--seed", "0")
    assert code == 2
    assert out == "" and "physical memory" in err


def test_peel_refuses_an_overflowing_edge_count(capsys, monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("the peel drew a graph past its preflight")

    monkeypatch.setattr(cli, "random_hypergraph", no_allocation)
    code, out, err = run_cli(capsys, "peel", "--n", "10", "--alpha", "1e308",
                             "--gadget", "sunflower", "--seed", "0")
    assert code == 2 and out == ""
    assert "alpha * n = inf edges" in err and "physical memory" in err


@pytest.mark.parametrize("n", ["1" + "0" * 400, "-1" + "0" * 400],
                         ids=["10^400", "-10^400"])
def test_peel_names_an_n_beyond_float_range(capsys, monkeypatch, n):
    # alpha * n is a float, so such an n is refused before the product
    def no_allocation(*args, **kwargs):
        raise AssertionError("the peel drew a graph past its preflight")

    monkeypatch.setattr(cli, "random_hypergraph", no_allocation)
    code, out, err = run_cli(capsys, "peel", "--n", n, "--alpha", "0",
                             "--gadget", "sunflower", "--seed", "0")
    assert code == 2 and out == ""
    assert err == "error: vertex count n is too large for a float\n"


@pytest.mark.parametrize("where", ["directory", "missing directory", "empty"])
def test_peel_refuses_a_bad_trace_path_before_the_draw(tmp_path, capsys,
                                                       monkeypatch, where):
    def no_allocation(*args, **kwargs):
        raise AssertionError("the peel drew a graph before checking --trace")

    monkeypatch.setattr(cli, "random_hypergraph", no_allocation)
    path = {"directory": tmp_path, "missing directory":
            tmp_path / "no" / "steps.csv", "empty": ""}[where]
    code, out, err = run_cli(capsys, "peel", "--n", "300000", "--alpha", "3",
                             "--gadget", "sunflower", "--seed", "0",
                             "--trace", str(path))
    assert code == 2 and out == ""
    assert f"the trace path {str(path)!r}" in err and where in err
    assert sorted(tmp_path.iterdir()) == []


def test_peel_refuses_draws_that_cannot_finish():
    # 30 distinct vertices of 30 come up with p = 1.3e-12 per draw, so the
    # rejection draw would never finish; a subprocess turns a hang into a
    # timeout failure
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "qksat.cli", "peel", "--n", "30", "--k", "30",
         "--alpha", "0.1", "--gadget", "sunflower", "--seed", "0"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == "" and "p=1.29e-12 < 2^-12" in proc.stderr


def test_peel_reports_and_reruns_identically(capsys):
    argv = ("peel", "--n", "300", "--alpha", "3.2", "--k", "3",
            "--gadget", "nosegay", "--seed", "5")
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["m"] == round(3.2 * 300)
    assert payload["seed"] == 5
    assert payload["value"] < math.log(2)
    _, other, _ = run_cli(capsys, "peel", "--n", "300", "--alpha", "3.2",
                          "--k", "3", "--gadget", "nosegay", "--seed", "6")
    assert other != out1


def test_peel_trace_file(tmp_path, capsys):
    trace = tmp_path / "steps.csv"
    payload = run_json(capsys, "peel", "--n", "50", "--alpha", "3.0",
                       "--k", "3", "--gadget", "sunflower", "--seed", "2",
                       "--trace", str(trace))
    assert payload["trace_file"] == str(trace)
    with open(trace, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "vertices_remaining", "edges_remaining",
                       "gadget", "params", "log_weight", "anomaly"]
    assert len(rows) == 1 + payload["step_count"]


GOLDEN_TRACES = [
    ("2000", "sunflower", "3.894", "3", "46cbd4626e2cdba6"),
    ("2000", "nosegay", "3.594", "3", "531beecfc083ba42"),
    ("2000", "nosegay", "7.6", "4", "9f19714cdb6b8148"),
    ("20000", "nosegay", "3.594", "3", "0d47d926b21c352a"),
    ("20000", "nosegay", "7.6", "4", "d02fe39fc9c3826e"),
    ("2000", "sunflower", "1.0", "2", "fcadbf017722dac0"),
    ("2000", "sunflower", "7.6", "4", "1665432e21b3cd71"),
    ("2000", "nosegay", "1.0", "2", "265e02886a61ac04"),
    # every step has d = 0
    ("2000", "sunflower", "0", "3", "d89ca76d3c7502ef"),
    # the peel benchmark's sunflower op
    ("20000", "sunflower", "3.894", "3", "eee5f0ae2b74b199"),
    # wide rows: every per-edge reduction runs over 8 columns
    ("2000", "sunflower", "40", "8", "62fb8e148fcdc633"),
    ("2000", "nosegay", "40", "8", "d50bb421b0dd9002"),
]


@pytest.mark.parametrize("n, gadget, alpha, k, digest", GOLDEN_TRACES,
                         ids=["-".join(case[1:]) for case in GOLDEN_TRACES])
def test_peel_trace_golden(tmp_path, capsys, n, gadget, alpha, k, digest):
    # pinned samples: any change to the graph or the peel for a seed fails here
    trace = tmp_path / "steps.csv"
    run_json(capsys, "peel", "--n", n, "--alpha", alpha, "--k", k,
             "--gadget", gadget, "--seed", "0", "--trace", str(trace))
    assert hashlib.sha256(trace.read_bytes()).hexdigest()[:16] == digest


def check_verify_sweep(capsys, max_size, case_count):
    """Check one `verify gadgets` sweep and return its stdout."""
    code, out, err = run_cli(capsys, "verify", "gadgets", "--max-size",
                             str(max_size))
    assert code == 0, err
    payload = json.loads(out)
    assert payload["all_equal"] is True
    assert payload["failures"] == 0
    assert payload["case_count"] == case_count
    families = {case["family"] for case in payload["cases"]}
    assert families == {"sunflower", "nosegay-k", "nosegay-hang", "k2"}
    assert all(case["equal"] for case in payload["cases"])
    nosegays = [case["params"] for case in payload["cases"]
                if case["family"] == "nosegay-k"]
    assert {p["k"] for p in nosegays} == {3, 4}
    assert all(len(p["dvec"]) == p["k"] for p in nosegays)
    return out


def test_verify_small_sweep(capsys):
    check_verify_sweep(capsys, 2, 20)


def test_verify_size_three_sweep(capsys):
    out = check_verify_sweep(capsys, 3, 53)
    # pinned byte for byte: the cases, their order, params and bounds
    assert hashlib.sha256(out.encode()).hexdigest().startswith("23fe23eacb3b7d15")


def test_threshold_general_k(capsys):
    payload = run_json(capsys, "threshold", "general-k", "--k", "3")
    assert payload["method"] == "general_k"
    assert 4.2 < payload["root"] < 4.35
    # from k = 36 on the bracket's margin must cover solve_b's 1e-10 width
    for k in (36, 39):
        root = run_json(capsys, "threshold", "general-k", "--k", str(k))["root"]
        assert general_k_bound(root - 1e-4, k).value >= 0, k
        assert general_k_bound(root, k).value < 0, k


@pytest.mark.parametrize("argv, root", [
    (("sunflower",), 3.8933785400390626),
    (("nosegay", "--trunc", "25"), 3.5934334716796874),
])
def test_threshold_evaluates_few_bounds(capsys, monkeypatch, argv, root):
    import qksat.analysis as analysis

    calls = []
    bound = analysis.bound

    def counted(*args, **options):
        calls.append(args)
        return bound(*args, **options)

    monkeypatch.setattr(analysis, "bound", counted)
    # plain bisection evaluates 18 and 17 bounds for the same root
    assert run_json(capsys, "threshold", *argv)["root"] == root
    assert 3 <= len(calls) <= 8


def test_threshold_refuses_arities_it_cannot_resolve(capsys, monkeypatch):
    import qksat.analysis as analysis

    def unreachable(*args):
        raise AssertionError("the bisection evaluated a bound")

    monkeypatch.setattr(analysis, "bound", unreachable)
    # at k = 40 floats near the root are 1.2e-4 apart, wider than the precision
    code, out, err = run_cli(capsys, "threshold", "general-k", "--k", "40")
    assert code == 2 and out == "" and "k = 40" in err


@pytest.mark.parametrize("argv", [
    ("bound", "single-clause", "--k", "1025"),
    ("bound", "single-clause", "--k", "1100"),
    ("bound", "sunflower", "--alpha", "3.0", "--k", "1024"),
    ("bound", "nosegay", "--alpha", "3.0", "--k", "1024"),
    ("bound", "general-k", "--alpha", "3.0", "--k", "1024"),
    ("threshold", "sunflower", "--k", "1024"),
], ids=" ".join)
def test_bounds_refuse_arities_beyond_float_range(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert f"k = {argv[-1]}" in err


# the bounds commands of the threshold benchmark and the README, and five
# more, with the sha256 of their stdout
GOLDEN_BOUNDS = [
    (("threshold", "nosegay", "--trunc", "25"), "c27df68f8ae78c00"),
    (("threshold", "sunflower"), "7f647725cd39b68a"),
    (("threshold", "general-k", "--k", "4"), "ee0189966097e50e"),
    (("threshold", "general-k", "--k", "5"), "24faba9074e0611b"),
    (("threshold", "general-k", "--k", "6"), "6c5321b6d05421b8"),
    (("threshold", "general-k", "--k", "7"), "dce24ee977c7c3dc"),
    (("threshold", "general-k", "--k", "8"), "17313191bca52edd"),
    (("bound", "nosegay", "--alpha", "3.594"), "bbd3cf12d5e2c65c"),
    (("bound", "nosegay", "--alpha", "3.65"), "4ff493f6b4f95c24"),
    (("bound", "nosegay", "--alpha", "3.7"), "663fc5a5d3af7c8c"),
    (("bound", "nosegay", "--alpha", "3.8"), "5d85bf5d4a8b2b47"),
    (("bound", "sunflower", "--alpha", "3.894"), "a0295e9808d8db8c"),
    (("threshold", "nosegay"), "c2a1edcda611164d"),
    # outside the benchmark's grid: k = 4 roots, rows of tiny mean, and
    # cutoffs wide enough that the integrator takes two blocks
    (("threshold", "sunflower", "--k", "4"), "9171b6487c32aef0"),
    (("bound", "sunflower", "--alpha", "0.5"), "006138f432b5a3c1"),
    (("bound", "sunflower", "--alpha", "3.894", "--dmax", "300"),
     "531e103f137c496e"),
    (("bound", "nosegay", "--alpha", "123.264", "--k", "8"), "cc157a9ee1256312"),
    (("threshold", "nosegay", "--k", "4", "--trunc", "40"), "0e8b23cc1177e406"),
]


def test_bounds_golden(capsys):
    # pinned byte for byte: values, quad errors, roots and echoed params
    for argv, digest in GOLDEN_BOUNDS:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest, argv


# README's two graph files and four random mixed-arity graphs (n, m, seed of
# random_mixed_graph), ranked in each mode, with the sha256 of the exit codes
# and stdout of the six runs
RANK_GRAPHS = {
    "clause.txt": Hypergraph(3, [(0, 1, 2)]),
    "mixed.txt": Hypergraph(4, [(0, 1, 2), (1, 2, 3), (0, 3)]),
    **{f"mixed{n}.txt": random_mixed_graph(n, m, make_rng(seed))
       for n, m, seed in [(4, 3, 1), (6, 6, 2), (8, 7, 3), (10, 8, 4)]},
}
GOLDEN_RANKS = [
    (("--mode", "field"), "ef5afeaf0198eea0"),
    (("--mode", "float"), "4165e3b3052ca29d"),
    (("--mode", "float", "--seed", "3", "--trials", "5"), "b279e47e4cbf6609"),
]


@pytest.mark.parametrize("mode, digest", GOLDEN_RANKS,
                         ids=[" ".join(case[0]) for case in GOLDEN_RANKS])
def test_rank_golden(tmp_path, capsys, monkeypatch, mode, digest):
    # pinned byte for byte: ranks, confidences, trial counts and bounds
    monkeypatch.chdir(tmp_path)
    runs = []
    for name, g in RANK_GRAPHS.items():
        write_hypergraph(g, name)
        code, out, err = run_cli(capsys, "rank", "--graph", name, *mode)
        runs.append(f"{code} {out}")
    assert hashlib.sha256("".join(runs).encode()).hexdigest()[:16] == digest, runs


def test_json_is_sorted_and_stable(capsys):
    code, out, _ = run_cli(capsys, "gadget", "sunflower", "--d", "3", "--k", "4")
    assert code == 0
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"
