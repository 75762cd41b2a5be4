"""End-to-end tests of the command-line interface."""

import csv
import json
import math

import pytest

import qksat.cli as cli
import qksat.rank_oracle as rank_oracle
from qksat._modlin import P
from qksat.hypergraph import Hypergraph, write_hypergraph
from qksat.rank_oracle import RankInstabilityError


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
    assert payload["params"]["truncation"] == 50


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
    tree = run_json(capsys, "gadget", "k2", "--vertices", "3", "--edges", "2")
    assert tree["rank"] == 4
    assert tree["log_weight"] == pytest.approx(math.log(4) - 3 * math.log(2))


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
        ("bound", "nosegay", "--alpha", "3.0", "--k", "4"),
        ("peel", "--n", "12", "--alpha", "1.0", "--k", "4",
         "--gadget", "nosegay", "--seed", "1"),
        ("rank", "--graph", str(tmp_path / "missing.hg")),
        ("gadget", "nosegay-k", "--dvec", "1,x"),
        ("gadget", "sunflower", "--d", "-1"),
        ("gadget", "k2", "--vertices", "3", "--edges", "3", "--max-mult", "1"),
        ("rank", "--graph", str(graph), "--prime", "97"),
        ("bound", "sunflower", "--alpha", "nan"),
        ("bound", "nosegay", "--alpha", "inf"),
        ("bound", "general-k", "--alpha", "inf"),
        ("bound", "single-clause", "--alpha", "nan"),
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
    assert sunflower["params"]["d_max"] == 100


def test_oracles_refuse_matrices_beyond_memory(tmp_path, capsys, monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("the oracle allocated past its memory preflight")

    monkeypatch.setattr(rank_oracle, "_assemble", no_allocation)
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


def check_verify_sweep(capsys, max_size, case_count):
    payload = run_json(capsys, "verify", "gadgets", "--max-size", str(max_size))
    assert payload["all_equal"] is True
    assert payload["failures"] == 0
    assert payload["case_count"] == case_count
    families = {case["family"] for case in payload["cases"]}
    assert families == {"sunflower", "nosegay3", "nosegay-hang", "k2"}
    assert all(case["equal"] for case in payload["cases"])


def test_verify_small_sweep(capsys):
    check_verify_sweep(capsys, 2, 19)


def test_verify_size_three_sweep(capsys):
    check_verify_sweep(capsys, 3, 51)


def test_threshold_general_k(capsys):
    payload = run_json(capsys, "threshold", "general-k", "--k", "3")
    assert payload["method"] == "general_k"
    assert 4.2 < payload["root"] < 4.35


def test_json_is_sorted_and_stable(capsys):
    code, out, _ = run_cli(capsys, "gadget", "sunflower", "--d", "3", "--k", "4")
    assert code == 0
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"
