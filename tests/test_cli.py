"""The command-line interface: outputs, determinism and exit codes."""

import csv
import io
import json
import math

import pytest

from minorclass.cli import ExperimentConfig, graph_from_json, main, parse_number
from minorclass.graphs import Graph, graph_to_text, path_graph


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_enumerate_forests(capsys):
    code, out = run_cli(["enumerate", "--family", "forests", "--lambda", "1",
                         "--nu", "1", "--nmax", "6"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["n"] == "0" and rows[0]["a_n"] == "1"
    assert rows[4]["a_n"] == "38"
    assert rows[6]["a_n"] == "2932"


def test_enumerate_trees_weighted(capsys):
    code, out = run_cli(["enumerate", "--family", "trees", "--lambda", "2",
                         "--nu", "3", "--nmax", "5"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[5]["c_n"] == "6000"


def test_enumerate_rational_weights(capsys):
    code, out = run_cli(["enumerate", "--family", "forests", "--lambda", "1/2",
                         "--nu", "1", "--nmax", "3"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[3]["a_n"] == "13/4"  # empty + 3 single edges / 2 + 3 paths / 4


def test_constants_planar_gamma(capsys):
    code, out = run_cli(["constants", "--gamma", "27.226878", "--census-nmax", "0"], capsys)
    assert code == 0
    data = json.loads(out)
    assert abs(data["beta"] - 26.207554) <= 1e-4
    assert abs(data["alpha"] - 0.961843) <= 1e-5


def test_constants_radius_case(capsys):
    code, out = run_cli(["constants", "--gamma", repr(math.e), "--census-nmax", "0"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["beta"] is None and data["alpha"] == 0.0


def test_constants_estimated_from_table(capsys):
    code, out = run_cli(["constants", "--family", "forests", "--nmax", "6",
                         "--census-nmax", "4"], capsys)
    assert code == 0
    data = json.loads(out)
    assert "estimated" in data["note"]
    assert data["gamma"] > 1.0
    assert data["forest_closed_forms"]["conn_limit"] == pytest.approx(math.exp(-0.5))


def test_sample_and_stats_round_trip(tmp_path, capsys):
    out_path = tmp_path / "samples.jsonl"
    code, _ = run_cli(["sample", "--family", "forests", "--method", "exact", "--n", "5",
                       "--draws", "200", "--seed", "9", "--out", str(out_path)], capsys)
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 200
    g0 = json.loads(lines[0])
    assert g0["n"] == 5
    code, out = run_cli(["stats", "--in", str(out_path)], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["statistic", "key", "value"]
    assert any(r[0] == "kappa_hist" for r in rows)


def test_sample_methods(capsys, tmp_path):
    for method, extra in [("tree", []), ("mcmc", ["--burn-in", "2000", "--thin", "2"]),
                          ("boltzmann", ["--census-nmax", "4"])]:
        code, out = run_cli(["sample", "--family", "forests", "--method", method,
                             "--n", "5", "--draws", "10", "--seed", "1"] + extra, capsys)
        assert code == 0, method
        assert len(out.strip().splitlines()) == 10


def test_sample_determinism(capsys):
    args = ["sample", "--family", "forests", "--method", "exact", "--n", "4",
            "--draws", "50", "--seed", "123"]
    _, out1 = run_cli(args, capsys)
    _, out2 = run_cli(args, capsys)
    assert out1 == out2


def test_enumerate_determinism(capsys):
    args = ["enumerate", "--family", "series-parallel", "--lambda", "2", "--nu", "3",
            "--nmax", "5"]
    _, out1 = run_cli(args, capsys)
    _, out2 = run_cli(args, capsys)
    assert out1 == out2


def test_census_output(capsys):
    code, out = run_cli(["census", "--family", "forests", "--nmax", "4"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 5  # unlabelled trees up to 4 vertices: 1+1+1+2
    assert rows[0]["aut"] == "1"


def test_pendant_command(tmp_path, capsys):
    gpath = tmp_path / "g.graph"
    hpath = tmp_path / "h.graph"
    gpath.write_text(graph_to_text(path_graph(3)))
    hpath.write_text(graph_to_text(Graph(1, 0)))
    code, out = run_cli(["pendant", "--graph", str(gpath), "--h", str(hpath),
                         "--gamma", repr(math.e)], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["f_H"] == 2
    assert data["limit_density"] == pytest.approx(1 / math.e)


def test_families_check(capsys):
    code, out = run_cli(["families-check", "--family", "forests", "--nmax", "4"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["bridge_addable"]["holds"] is True
    assert data["decomposable"]["holds"] is True
    assert data["trimmable"]["holds"] is True
    assert all(en["class"] == "freely-addable-at-scale" for en in data["dichotomy"])


def test_families_check_ex_k_disjoint_cycles(capsys):
    """The README's example: the dichotomy scan tests 4 disjoint copies of each
    member, which passes the cycle search's cap only component by component."""
    code, out = run_cli(["families-check", "--family", "ex-k-disjoint-cycles:1",
                         "--nmax", "5"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["bridge_addable"]["holds"] is True
    assert data["dichotomy"]


def test_verify_single_suite(capsys):
    code, out = run_cli(["verify", "exp-formula"], capsys)
    assert code == 0
    assert out.startswith("PASS exp-formula")


def test_verify_failure_exit_code(capsys, monkeypatch):
    from minorclass import acceptance

    def fake():
        return acceptance.CriterionResult("fake", "always fails", False, {})

    monkeypatch.setitem(acceptance.CRITERIA, "fake", fake)
    code, out = run_cli(["verify", "fake"], capsys)
    assert code == 4
    assert "FAIL fake" in out


def test_config_round_trip():
    cfg = ExperimentConfig(family="planar", lam="1/2", nu="3", n_max=5, seed=7)
    assert ExperimentConfig.parse(cfg.render()) == cfg


def test_config_file_merging(tmp_path, capsys):
    cfg = ExperimentConfig(family="trees", lam="2", nu="3", n_max=5)
    path = tmp_path / "cfg.json"
    path.write_text(cfg.render())
    code, out = run_cli(["enumerate", "--config", str(path)], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[5]["c_n"] == "6000"
    # flags override the config file
    code, out = run_cli(["enumerate", "--config", str(path), "--nmax", "3"], capsys)
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4


def test_exit_code_config_error(capsys):
    code, _ = run_cli(["enumerate", "--family", "no-such-family"], capsys)
    assert code == 2


@pytest.mark.parametrize("argv, flag", [
    (["sample", "--method", "mcmc", "--thin", "0"], "--thin"),
    (["sample", "--method", "mcmc", "--burn-in", "-5"], "--burn-in"),
    (["sample", "--seed", "-1"], "--seed"),
    (["enumerate", "--nmax", "-1"], "--nmax"),
    (["sample", "--draws", "-3"], "--draws"),
    (["census", "--nmax", "-1"], "--nmax"),
], ids=["thin", "burn-in", "seed", "nmax", "draws", "census-nmax"])
def test_bad_config_values_exit_2_naming_the_flag(argv, flag, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"configuration error: {flag} must be" in captured.err


def test_mcmc_series_parallel_beyond_member_arrays(capsys):
    # n=8 has no membership array; the chain tests membership per step
    from minorclass.families import builtin_family

    code, out = run_cli(["sample", "--family", "series-parallel", "--method", "mcmc", "--n", "8",
                         "--draws", "20", "--burn-in", "3000", "--thin", "50", "--seed", "1"],
                        capsys)
    assert code == 0
    sp = builtin_family("series-parallel")
    lines = out.strip().splitlines()
    assert len(lines) == 20
    graphs = [graph_from_json(line) for line in lines]
    assert all(g.n == 8 and sp.base_member(g) for g in graphs)
    assert any(g.edge_count > 0 for g in graphs)


def test_exit_code_resource_cap(capsys):
    # forests would take the analytic lift route, so use a family that cannot
    code, _ = run_cli(["enumerate", "--family", "series-parallel", "--nmax", "8"], capsys)
    assert code == 3


def test_forests_lift_beyond_cap(capsys):
    # the forest table switches to the closed-form + lift route past the cap
    code, out = run_cli(["enumerate", "--family", "forests", "--nmax", "9"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[9]["c_n"] == str(9 ** 7)


def test_parse_number():
    from fractions import Fraction

    assert parse_number("3") == 3
    assert parse_number("1/2") == Fraction(1, 2)
    assert parse_number("0.25") == 0.25
