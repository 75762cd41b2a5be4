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
from pathlib import Path

import pytest

import qksat.cli as cli
import qksat.rank_oracle as rank_oracle
from qksat._modlin import P
from qksat.hypergraph import Hypergraph
from qksat.rank_oracle import RankInstabilityError
from support import write_hypergraph


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
    # the derived cutoff _auto_dmax(3.594, 3)
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
        raise AssertionError("the pmf was built before the refusal")

    monkeypatch.setattr(analysis, "_poisson_pmf", unreachable)
    # 10^12 degrees: terabytes of table and pmf row
    code, out, err = run_cli(capsys, "bound", "sunflower", "--alpha", "3.894",
                             "--dmax", str(10 ** 12))
    assert code == 2 and out == ""
    assert "sunflower degree table" in err


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
    # --tolerance is the float cutoff; field mode would ignore it
    path = tmp_path / "triangle.hg"
    write_hypergraph(Hypergraph(3, [(0, 1, 2)]), path)
    for value in ("0.5", "1e-9"):
        code, out, err = run_cli(capsys, "rank", "--graph", str(path),
                                 "--mode", "field", "--tolerance", value)
        assert code == 2 and out == ""
        assert "--tolerance" in err
    fl = run_json(capsys, "rank", "--graph", str(path), "--mode", "float",
                  "--tolerance", "1e-6")
    assert fl["tolerance"] == 1e-6 and fl["rank"] == 7


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
        assert out == "" and "does not read" in err
    # params echoes only what the method reads, defaults filled in
    assert run_json(capsys, "threshold", "general-k", "--k", "4")["params"] == {}
    assert run_json(capsys, "threshold", "sunflower", "--dmax", "60")[
        "params"] == {"d_max": 60}
    nosegay = run_json(capsys, "bound", "nosegay", "--alpha", "3.7",
                       "--trunc", "20")
    assert nosegay["params"]["truncation"] == 20
    sunflower = run_json(capsys, "bound", "sunflower", "--alpha", "3.9")
    # the derived cutoff _auto_dmax(3.9, 3)
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


def test_peel_refuses_graphs_beyond_memory(capsys, monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("the peel allocated past its memory preflight")

    monkeypatch.setattr(cli, "random_hypergraph", no_allocation)
    code, out, err = run_cli(capsys, "peel", "--n", "1000000000", "--alpha",
                             "3.894", "--gadget", "sunflower", "--seed", "0")
    assert code == 2
    assert out == "" and "physical memory" in err


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


def test_json_is_sorted_and_stable(capsys):
    code, out, _ = run_cli(capsys, "gadget", "sunflower", "--d", "3", "--k", "4")
    assert code == 0
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"
