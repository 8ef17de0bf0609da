"""The command-line interface: outputs, determinism and exit codes."""

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from minorclass import cli, jsonl
from minorclass.cli import ExperimentConfig, main, parse_number
from minorclass.jsonl import graph_from_json, graphs_to_jsonl
from minorclass.graphs import Graph, complete_graph, graph_to_text, is_forest, path_graph, \
    set_bits


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


def test_constants_for_all_graphs_need_gamma(monkeypatch, capsys):
    """The class of all graphs has no growth constant: without --gamma,
    constants exits 2 before any census or table is built; with it, the
    constants follow from the given gamma."""
    from minorclass import enumeration

    def no_build(*args, **kwargs):
        raise AssertionError("built before the check")

    with monkeypatch.context() as m:
        m.setattr(enumeration, "build_census", no_build)
        m.setattr(enumeration, "compute_weight_table", no_build)
        assert main(["constants", "--family", "all", "--nmax", "20"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("configuration error: the class of all graphs has no growth "
                            "constant; give --gamma\n")
    code, out = run_cli(["constants", "--family", "all", "--gamma", "3", "--census-nmax", "3"],
                        capsys)
    assert code == 0
    data = json.loads(out)
    assert data["gamma"] == 3.0 and data["note"] == "gamma supplied"


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


def test_sample_split_weight_flags_match_config(tmp_path, capsys):
    """sample takes --lambda0/--lambda1 as enumerate does: the same draws as
    a config file giving lambda0 and lambda1, and one of them alone is a
    configuration error."""
    argv = ["sample", "--method", "mcmc", "--family", "series-parallel", "--n", "6",
            "--draws", "50", "--burn-in", "1000", "--seed", "3"]
    code, by_flags = run_cli(argv + ["--lambda0", "1/2", "--lambda1", "2"], capsys)
    assert code == 0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"lambda0": "1/2", "lambda1": "2"}))
    code, by_config = run_cli(argv + ["--config", str(path)], capsys)
    assert code == 0
    assert by_flags == by_config
    assert by_flags != run_cli(argv, capsys)[1]
    for flag in ("--lambda0", "--lambda1"):
        code = main(argv + [flag, "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "lambda0 and lambda1 must be given together" in captured.err


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
    (["enumerate", "--lambda", "1/0"], "--lambda"),
    (["enumerate", "--nu", "3/0"], "--nu"),
    (["enumerate", "--lambda0", "1/0", "--lambda1", "2"], "--lambda0"),
    (["sample", "--lambda0", "1/2", "--lambda1", "0/0"], "--lambda1"),
    (["constants", "--gamma", "1/0", "--census-nmax", "0"], "--gamma"),
    (["sample", "--method", "boltzmann", "--census-nmax", "3", "--rho", "1/0"], "--rho"),
], ids=["thin", "burn-in", "seed", "nmax", "draws", "census-nmax", "lambda-1/0", "nu-3/0",
        "lambda0-1/0", "lambda1-0/0", "gamma-1/0", "rho-1/0"])
def test_bad_config_values_exit_2_naming_the_flag(argv, flag, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"configuration error: {flag} must be" in captured.err


@pytest.mark.parametrize("data, message", [
    ({"lam": 2}, "--lambda must be a string, got 2"),
    ({"family": 3}, "--family must be a string, got 3"),
    ({"n": None}, "--n must be an integer, got None"),
    ([1], "--config must hold a JSON object, got list"),
], ids=["number-lambda", "number-family", "null-n", "list"])
def test_wrongly_typed_config_exits_2_naming_the_flag(data, message, tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(data))
    code = main(["enumerate", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"configuration error: {message}\n"


def _pendant(cfg, tmp_path):
    g, h = tmp_path / "g.txt", tmp_path / "h.txt"
    g.write_text(graph_to_text(path_graph(3)))
    h.write_text(graph_to_text(path_graph(2)))
    return cli.cmd_pendant(cfg, argparse.Namespace(graph=g, h_graph=h, root=1))


def _weighting(cfg, tmp_path):
    return cfg.weighting()


def _validate(cfg, tmp_path):
    return cfg.validate()


def _constants(cfg, tmp_path):
    return cli.cmd_constants(cfg, argparse.Namespace())


def _sample(cfg, tmp_path):
    return cli.cmd_sample(cfg, argparse.Namespace())


@pytest.mark.parametrize("fields, cfg, run", [
    (("lambda0",), ExperimentConfig(lambda0="1/0", lambda1="2"), _weighting),
    (("lambda1",), ExperimentConfig(lambda0="2", lambda1="1/0"), _weighting),
    (("lam",), ExperimentConfig(lam="1/0"), _weighting),
    (("nu",), ExperimentConfig(nu="1/0"), _weighting),
    (("gamma",), ExperimentConfig(gamma="1/0", census_n_max=0), _constants),
    (("gamma",), ExperimentConfig(gamma="1/0"), _pendant),
    (("rho",), ExperimentConfig(method="boltzmann", census_n_max=3, rho="1/0"), _sample),
    (("seed",), ExperimentConfig(seed=1 << 64), _validate),
], ids=["lambda0", "lambda1", "lambda", "nu", "constants-gamma", "pendant-gamma", "rho", "seed"])
def test_messages_name_the_flags_of_the_command_table(fields, cfg, run, monkeypatch, tmp_path):
    """A message naming a flag reads it from the table: renaming the flag
    there renames it in the message."""
    for field in fields:
        monkeypatch.setitem(cli._OPTIONS, field, ("--renamed-" + field, {}))
    with pytest.raises(ValueError) as err:
        run(cfg, tmp_path)
    for field in fields:
        assert cli._OPTIONS[field][0] in str(err.value), field


@pytest.mark.parametrize("rho", [[], ["--rho", "0.3"]], ids=["radius", "inside"])
def test_boltzmann_on_an_empty_census_exits_2(rho, capsys):
    code = main(["sample", "--method", "boltzmann", "--family", "forests",
                 "--census-nmax", "0"] + rho)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "configuration error: empty census\n"


def test_mcmc_series_parallel_beyond_member_arrays(capsys):
    # n=8 has no membership array; the chain asks base_member about each
    # addition it accepts, and about no removal
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


def test_trees_past_cap_stay_connected(capsys):
    """Past the whole slices (n = 7), trees take the forest table's route
    with a = c, so the rows up to n = 7 are those of the brute-force sweep."""
    _, within = run_cli(["enumerate", "--family", "trees", "--nmax", "7"], capsys)
    code, past = run_cli(["enumerate", "--family", "trees", "--nmax", "8"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(past)))
    assert rows[:8] == list(csv.DictReader(io.StringIO(within)))
    assert rows[8]["a_n"] == rows[8]["c_n"] == str(8 ** 6)


_MEMBER_ARRAYS_STOP = ("membership arrays for minor-tested families stop at n=7; "
                       "only forests and all are swept past it")


@pytest.mark.parametrize("argv, message", [
    (["census", "--family", "all", "--nmax", "9"], "brute force is limited to n <= 8"),
    (["enumerate", "--family", "series-parallel", "--nmax", "8"], _MEMBER_ARRAYS_STOP),
    (["census", "--family", "planar", "--nmax", "8"], _MEMBER_ARRAYS_STOP),
    (["sample", "--method", "exact", "--family", "planar", "--n", "8"], _MEMBER_ARRAYS_STOP),
    (["sample", "--method", "exact", "--family", "all", "--n", "8"],
     "listing every graph stops at n=7"),
], ids=["census-all-9", "enumerate-sp-8", "census-planar-8", "exact-planar-8", "exact-all-8"])
def test_each_limit_is_raised_by_the_layer_whose_data_stops_there(argv, message, capsys):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"resource cap exceeded: {message}\n"


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_no_command_takes_a_cap(command, capsys):
    required = {"stats": ["--in", "s.jsonl"], "pendant": ["--graph", "g.txt", "--h", "h.txt"]}
    with pytest.raises(SystemExit) as exc:
        main([command, *required.get(command, []), "--cap", "8"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cap" in capsys.readouterr().err


def test_cap_in_a_config_file_exits_2(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"cap": 8}))
    assert main(["enumerate", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "configuration error: unknown config keys: ['cap']\n"


@pytest.mark.parametrize("family, column", [("forests", "a"), ("trees", "c")])
def test_forest_constants_reach_n9_and_enumerate_sweeps_nothing(family, column, capsys):
    """constants reads the forests' and the trees' table from forest_table at
    any n: past the lattice, gamma is 1 / r_9 of its a column (the c column
    for the trees, whose a is c).  enumerate prints no progress for them."""
    from minorclass.enumeration import forest_table
    from minorclass.graphs import Weighting

    code, out = run_cli(["constants", "--family", family, "--nmax", "9", "--census-nmax", "0"],
                        capsys)
    assert code == 0
    r9 = forest_table(Weighting(1, 1), 9).ratios(column)[9]
    assert json.loads(out)["gamma"] == 1.0 / float(r9)
    assert main(["enumerate", "--family", family, "--nmax", "7"]) == 0
    assert capsys.readouterr().err == ""


def test_minor_budget_is_not_an_option(tmp_path, capsys):
    """The minor search runs at its fixed budget: --minor-budget is no flag,
    and a config file naming minor_budget exits 2."""
    with pytest.raises(SystemExit) as exc:
        main(["families-check", "--family", "planar", "--minor-budget", "9"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --minor-budget" in capsys.readouterr().err
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"minor_budget": 9}))
    assert main(["families-check", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "configuration error: unknown config keys: ['minor_budget']\n"


@pytest.mark.parametrize("argv", [
    ["sample", "--method", "mcmc", "--steps", "100"],
    ["families-check", "--family", "planar", "--kmax", "3"],
    *([*argv, "--seed", "3"] for argv in (
        ["enumerate"], ["census"], ["constants"], ["stats", "--in", "s.jsonl"],
        ["pendant", "--graph", "g.txt", "--h", "h.txt"], ["families-check"], ["verify"])),
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_options_that_nothing_reads_are_not_flags(argv, capsys):
    """--steps, --kmax, and --seed on every command but sample are no flags."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


def test_steps_in_a_config_file_exits_2(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"method": "mcmc", "steps": 100}))
    assert main(["sample", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "configuration error: unknown config keys: ['steps']\n"


def test_lambda_with_split_weights_exits_2(tmp_path, capsys):
    """--lambda given with --lambda0/--lambda1 is refused, not dropped, from
    flags or from a config file."""
    argv = ["enumerate", "--family", "forests", "--nmax", "3"]
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"lam": "5", "lambda0": "1", "lambda1": "1"}))
    for extra in (["--lambda", "5", "--lambda0", "1", "--lambda1", "1"],
                  ["--lambda", "5", "--config", str(path)],
                  ["--config", str(path)]):
        assert main(argv + extra) == 2, extra
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("configuration error: --lambda cannot be given with "
                                "--lambda0 and --lambda1\n"), extra
    # --lambda alone, or lambda0 and lambda1 alone, still run
    assert main(argv + ["--lambda", "5"]) == 0
    assert main(argv + ["--lambda0", "1", "--lambda1", "1"]) == 0


def test_command_table_has_no_orphan():
    """Every config field has one flag in _OPTIONS and a command that takes
    it, so no option is left that nothing sets."""
    fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert sorted(cli._OPTIONS) == sorted(fields)
    for name in fields:
        assert any(kw.get("dest") == name for cmd in cli.COMMANDS.values()
                   for _, kw in cmd.options), name


@pytest.mark.parametrize("argv", [[], ["--lambda0", "1/2", "--lambda1", "2", "--nu", "3"]],
                         ids=["diagonal", "split"])
def test_enumerate_all_sweeps_nothing_at_any_nmax(argv, monkeypatch, capsys):
    """enumerate --family all reads the random-cluster series: no slice is
    swept at --nmax 8 or past the lattice at 10, and no progress line is
    printed.  At lambda = nu = 1, c_n is OEIS A001187."""
    from minorclass import _kernels

    def no_sweep(*args, **kwargs):
        raise AssertionError("a slice was swept")

    monkeypatch.setattr(_kernels, "sweep_counts", no_sweep)
    monkeypatch.setattr(_kernels, "_blocks", no_sweep)
    code, out = run_cli(["enumerate", "--family", "all", "--nmax", "10", *argv], capsys)
    assert code == 0 and capsys.readouterr().err == ""
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 11
    if not argv:
        assert [rows[n]["c_n"] for n in (8, 9, 10)] == [
            "251548592", "66296291072", "34496488594816"]
        assert rows[10]["a_n"] == str(2 ** 45)


def test_exact_forests_at_n8_are_deterministic(capsys):
    argv = ["sample", "--method", "exact", "--family", "forests", "--n", "8", "--draws", "50",
            "--seed", "5"]
    code, first = run_cli(argv, capsys)
    assert code == 0 and run_cli(argv, capsys) == (0, first)
    graphs = [graph_from_json(line) for line in first.splitlines()]
    assert len(graphs) == 50 and all(g.n == 8 and is_forest(g) for g in graphs)


def test_json_family_named_all_is_swept_by_its_minors(tmp_path, capsys):
    """A JSON family is counted and sampled by its excluded minors whatever its
    name: one named "all" that excludes K3 is the forests."""
    (tmp_path / "k3.graph").write_text(graph_to_text(complete_graph(3)))
    paths = {}
    for name in ("all", "no-k3"):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps({"name": name, "excluded_minors": ["k3.graph"]}))
    outs = [run_cli(["enumerate", "--family", str(paths[name]), "--nmax", "5"], capsys)
            for name in ("all", "no-k3")]
    assert outs[0] == outs[1]
    assert list(csv.DictReader(io.StringIO(outs[0][1])))[3]["a_n"] == "7"
    code, _ = run_cli(["census", "--family", str(paths["all"]), "--nmax", "4"], capsys)
    assert code == 0
    from minorclass.families import load_family
    from minorclass.graphs import Weighting, is_forest
    from minorclass.sampling import mcmc_sample

    draws = mcmc_sample(load_family(paths["all"]), Weighting(1, 1), 6, 200, burn_in=200,
                        thin=2, seed=1)
    assert all(is_forest(g) for g in draws)
    assert any(g.edge_count for g in draws)


def test_parse_number():
    from fractions import Fraction

    assert parse_number("3", "--nu") == 3
    assert parse_number("1/2", "--nu") == Fraction(1, 2)
    assert parse_number("0.25", "--nu") == 0.25


def test_jsonl_writer_matches_json_dumps(monkeypatch):
    """Mixed orders, edgeless and repeated graphs, an order whose draws set
    only a few pairs, with chunks smaller than a group: two n = 300 masks per
    chunk, then one draw per chunk.  Orders 11, 12 and 13 (55, 66 and 78
    pairs) put the mask width on both sides of one 64-bit word."""
    from minorclass.sampling import random_tree_sample

    k7 = complete_graph(7)
    graphs = [Graph(0), Graph(1), Graph(7), k7, Graph.from_edges(7, [(2, 5), (1, 7)])]
    graphs += random_tree_sample(300, 3, 3)
    graphs += [Graph(16, (1 << 120) - 1), Graph(16), Graph(16, 0b1011 << 100), Graph(1), k7]
    graphs += random_tree_sample(300, 4, 2) + [Graph(300), Graph(0), k7]
    graphs += [Graph(20, 1 << 150 | 0b101), Graph(20), Graph(20, 1 << 189 | 1 << 150)]
    graphs += [Graph(2, 1), complete_graph(11), Graph(12, 1 << 64 | 1 << 63), Graph(2),
               complete_graph(12), Graph(13, 1 << 77 | 1 << 64), complete_graph(13),
               Graph(11, 1 << 54), Graph(12, 1 << 65), Graph(13, 1 << 63 | 1)]
    monkeypatch.setattr(jsonl, "_CHUNK_BYTES", 12000)  # an n = 300 mask takes 5608 bytes
    lines = graphs_to_jsonl(graphs)
    assert len(lines) == len(graphs)
    for g, line in zip(graphs, lines):
        assert line == json.dumps({"n": g.n, "edges": [list(e) for e in g.edges]})
        assert graph_from_json(line) == g
    monkeypatch.setattr(jsonl, "_CHUNK_BYTES", 1)
    assert graphs_to_jsonl(graphs) == lines
    assert graphs_to_jsonl([]) == []


def _mask_lines(n, masks):
    """The lines of masks_to_jsonl's text, each with its newline; every
    chunk must end on a whole line."""
    chunks = list(jsonl.masks_to_jsonl(n, masks))
    assert all(chunk.endswith("\n") for chunk in chunks)
    return "".join(chunks).splitlines(keepends=True)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 11, 12, 16])
def test_mask_writer_matches_json_dumps(n, monkeypatch):
    """Random, repeated, empty and full masks of one order, whose widths put
    the top pair on both sides of a 64-bit word (11, 12), in chunks of many
    masks and of one mask."""
    rng = random.Random(n)
    m = n * (n - 1) // 2
    full = (1 << m) - 1
    masks = [0, full, 0] + [rng.getrandbits(m) for _ in range(40)] + [1 << m >> 1, full, 0]
    masks += masks[3:12]
    want = [json.dumps({"n": n, "edges": Graph(n, s).edges}) + "\n" for s in masks]
    assert _mask_lines(n, masks) == want
    monkeypatch.setattr(jsonl, "_CHUNK_BYTES", 1)
    assert _mask_lines(n, masks) == want
    assert _mask_lines(n, [0, 0]) == [json.dumps({"n": n, "edges": []}) + "\n"] * 2
    assert _mask_lines(n, []) == []


@pytest.mark.parametrize("name", ["all", "forests", "trees", "planar", "series-parallel",
                                  "ex-k-disjoint-cycles:1"])
def test_mask_writer_reads_int64_arrays_as_python_ints(name, monkeypatch):
    """The exact sampler's int64 masks and the same masks as Python ints give
    the same text, for every built-in family at n <= 7 and the forests at
    n = 8, in chunks of 7 masks and of the default size."""
    from minorclass.families import builtin_family
    from minorclass.graphs import Weighting
    from minorclass.sampling import exact_masks

    fam = builtin_family(name)
    w = Weighting.extended(Fraction(1, 2), 2, 3)
    for n in range(9 if name == "forests" else 8):
        if name == "trees" and n == 0:
            continue  # no tree on no vertex
        masks = exact_masks(fam, w, n, seed=n, draws=600)
        assert masks.dtype == np.int64
        for chunk_bytes in (56, jsonl._CHUNK_BYTES):
            monkeypatch.setattr(jsonl, "_CHUNK_BYTES", chunk_bytes)
            text = "".join(jsonl.masks_to_jsonl(n, masks))
            assert text == "".join(jsonl.masks_to_jsonl(n, masks.tolist())), (n, chunk_bytes)
        assert text.count("\n") == masks.size


@pytest.mark.parametrize("as_array", [False, True], ids=["ints", "int64"])
def test_mask_writer_chunk_ends_after_an_edgeless_line(as_array, monkeypatch):
    """Two masks a chunk (16 bytes at n = 5): a chunk that ends on an edgeless
    line, one of edgeless lines only, and a last chunk of one line."""
    masks = [0b1011, 0, 0, 0, 1 << 9 | 1, 0, 0b10]
    lines = [json.dumps({"n": 5, "edges": Graph(5, s).edges}) + "\n" for s in masks]
    monkeypatch.setattr(jsonl, "_CHUNK_BYTES", 16)
    got = list(jsonl.masks_to_jsonl(5, np.array(masks) if as_array else masks))
    assert got == ["".join(lines[i:i + 2]) for i in range(0, len(lines), 2)]


@pytest.mark.parametrize("method, argv", [
    ("exact", ["--family", "forests", "--n", "7"]),
    ("mcmc", ["--family", "forests", "--n", "10", "--burn-in", "50"]),
    ("tree", ["--n", "9"]),
    ("boltzmann", ["--family", "forests", "--census-nmax", "4"]),
])
def test_zero_draws_write_an_empty_file(method, argv, tmp_path, capsys):
    out = tmp_path / "none.jsonl"
    code, stdout = run_cli(["sample", "--method", method, *argv, "--draws", "0",
                            "--out", str(out)], capsys)
    assert (code, stdout) == (0, "")
    assert out.read_bytes() == b""


@pytest.mark.parametrize("argv", [["--draws", "0"], ["--draws", "1"],
                                  ["--nu", "1000", "--draws", "30"]])
def test_boltzmann_output_is_one_line_per_count_row(argv, capsys):
    """sample --method boltzmann prints json.dumps of classes_to_graph over
    each draw's count row as a class list, with no draws, one, and counts of
    256 and more."""
    from minorclass.enumeration import build_census
    from minorclass.families import builtin_family
    from minorclass.sampling import boltzmann_component_counts, boltzmann_config, \
        classes_to_graph

    code, out = run_cli(["sample", "--method", "boltzmann", "--family", "forests",
                         "--census-nmax", "4", "--seed", "3", *argv], capsys)
    assert code == 0
    census = build_census(builtin_family("forests"), 4)
    w = ExperimentConfig(nu=argv[1] if argv[0] == "--nu" else "1").weighting()
    cfg = boltzmann_config(census, 1 / math.e, w)
    rows = boltzmann_component_counts(cfg, 3, int(argv[-1]))
    assert out.splitlines() == [json.dumps({"n": g.n, "edges": g.edges})
                                for g in (classes_to_graph(census, np.repeat(np.arange(len(r)), r))
                                          for r in rows)]
    assert argv[0] != "--nu" or rows.max() >= 256


@pytest.mark.parametrize("family, argv, rows", [
    ("forests", ["--nmax", "7"], []),
    ("trees", ["--nmax", "7"], []),
    ("all", ["--nmax", "7"], []),
    ("series-parallel", ["--nmax", "6"], ["32768 edge masks"]),
])
def test_enumerate_progress_names_the_rows_it_reads(family, argv, rows, capsys):
    """The progress line counts every edge mask of a swept slice; the forests
    and the trees read their table from Cayley's formula and all graphs from
    the random-cluster series, so they sweep no slice and print none."""
    assert main(["enumerate", "--family", family, *argv]) == 0
    err = capsys.readouterr().err
    assert err == "".join(f"enumerating n={n} ({r})...\n" for n, r in enumerate(rows, 6))


@pytest.mark.parametrize("n, draws", [(1, 5), (2, 5), (3, 200), (41, 60), (300, 40), (2000, 10),
                                      (5, 0)])
def test_tree_output_matches_json_dumps_of_the_sampled_graphs(n, draws, monkeypatch, capsys):
    """sample --method tree formats the sampled edges without building
    Graphs, in chunks smaller than the draws here; its text is json.dumps
    over random_tree_sample's Graphs on the same seed."""
    from minorclass import sampling
    from minorclass.sampling import random_tree_sample

    monkeypatch.setattr(sampling, "_CHUNK_EDGES", 1000)
    code, out = run_cli(["sample", "--method", "tree", "--n", str(n), "--draws", str(draws),
                         "--seed", "7"], capsys)
    assert code == 0
    want = [json.dumps({"n": g.n, "edges": [list(e) for e in g.edges]})
            for g in random_tree_sample(n, 7, draws)]
    assert out.splitlines() == want


@pytest.mark.parametrize("method, argv, module, constant", [
    ("tree", ["--n", "3"], "sampling", "_CHUNK_EDGES"),
    ("tree", ["--n", "41"], "sampling", "_CHUNK_EDGES"),
    ("boltzmann", ["--family", "forests", "--census-nmax", "5"], "jsonl", "_CHUNK_LINES"),
    ("boltzmann", ["--family", "all", "--census-nmax", "4", "--rho", "0.4",
                   "--lambda0", "1/2", "--lambda1", "2"], "jsonl", "_CHUNK_LINES"),
])
def test_sampler_output_does_not_depend_on_the_chunk_size(method, argv, module, constant,
                                                          monkeypatch, capsys):
    """The tree and Boltzmann draws, and their text, are the same in chunks
    of 1, 7 and the default size."""
    from minorclass import sampling

    owner = {"sampling": sampling, "jsonl": jsonl}[module]
    outs = []
    for size in (getattr(owner, constant), 1, 7):
        monkeypatch.setattr(owner, constant, size)
        code, out = run_cli(["sample", "--method", method, *argv, "--draws", "60",
                             "--seed", "5"], capsys)
        assert code == 0 and out.count("\n") == 60
        outs.append(out)
    assert outs[1] == outs[0] and outs[2] == outs[0]


def test_tree_with_negative_draws_exits_2(capsys):
    code = main(["sample", "--method", "tree", "--n", "5", "--draws", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "configuration error: --draws must be >= 0, got -1" in captured.err


def test_jsonl_writer_formats_equal_draws_alike(monkeypatch):
    """Equal (n, mask) draws in distinct Graph objects, shared Graph objects
    (as Boltzmann draws are), and equal masks at distinct orders, in mixed
    orders, with one mask per chunk: every line is json.dumps of its own
    draw."""
    from minorclass.enumeration import build_census
    from minorclass.families import builtin_family
    from minorclass.graphs import Weighting
    from minorclass.sampling import boltzmann_config, boltzmann_poisson_sample

    census = build_census(builtin_family("forests"), 4)
    shared = boltzmann_poisson_sample(boltzmann_config(census, 0.3, Weighting(1, 1)), 5, 40)
    assert len({id(g) for g in shared}) < len(shared)
    graphs = []
    for k, g in enumerate(shared):
        graphs += [g, Graph(g.n, g.mask), Graph(g.n + 1 + k % 3, g.mask)]
    graphs += [Graph(12, 1 << 65), complete_graph(5), Graph(12, 1 << 65), Graph(5),
               complete_graph(5), Graph(13, 1 << 65), Graph(5)]
    monkeypatch.setattr(jsonl, "_CHUNK_BYTES", 1)
    lines = graphs_to_jsonl(graphs)
    assert lines == [json.dumps({"n": g.n, "edges": [list(e) for e in g.edges]}) for g in graphs]


@pytest.mark.parametrize("rho", ["0", "-1", "nan", "inf"])
def test_boltzmann_rejects_rho_that_is_not_finite_and_positive(rho, capsys):
    code = main(["sample", "--method", "boltzmann", "--family", "forests", "--census-nmax", "4",
                 "--rho=" + rho])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "configuration error: rho must be a finite positive number\n"


def test_set_bits_matches_graphs_set_bits():
    """Every width from 1 to 130 bits, which puts the top bit at each byte and
    word position, and 44,850 bits, the width of an n = 300 mask: the top bit
    alone, every bit, a random mask and a sparse one, as a buffer of whole
    64-bit words."""
    rng = random.Random(11)
    for bits in [*range(1, 131), 44_850]:
        top = 1 << (bits - 1)
        sparse = sum(1 << b for b in rng.sample(range(bits), min(bits, 7)))
        for mask in (0, top, 2 * top - 1, rng.getrandbits(bits) | top, sparse):
            buf = mask.to_bytes((bits + 63) // 64 * 8, "little")
            assert jsonl._set_bits(buf).tolist() == set_bits(mask)


def test_mcmc_ex_k_cycles_past_15_vertices(capsys):
    """The chain's membership test peels each component to its 2-core and
    suppresses the degree-2 vertices before it enumerates cycles, so 16-vertex
    proposals with a 16-vertex 2-core get an answer."""
    code, out = run_cli(["sample", "--method", "mcmc", "--family", "ex-k-disjoint-cycles:1",
                         "--n", "16", "--draws", "10", "--burn-in", "2000", "--thin", "10",
                         "--seed", "1"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10
    assert all(graph_from_json(line).n == 16 for line in lines)


def test_import_loads_neither_networkx_nor_scipy():
    """A fresh `import minorclass.cli` loads numpy.random, which every sampler
    uses, but not networkx (only planarity tests of large 2-cores need it) or
    scipy (only the chi-square test needs it)."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, minorclass.cli; "
            "print(sorted(m for m in ('networkx', 'scipy', 'numpy.random') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "['numpy.random']"


def test_membership_and_census_do_not_load_numpy_ma():
    """np.unique and np.isin import numpy.ma on first use, which costs tens of
    milliseconds in a fresh process; the membership DP, the census and the
    closure checks stay clear of it."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import contextlib, io, sys\n"
            "from minorclass import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    cli.main(['enumerate', '--family', 'planar', '--nmax', '6'])\n"
            "    cli.main(['census', '--family', 'all', '--nmax', '6'])\n"
            "    cli.main(['families-check', '--family', 'planar', '--nmax', '6'])\n"
            "print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("argv", [
    ["enumerate", "--family", "planar", "--lambda", "1/2", "--nu", "2", "--lambda0", "1",
     "--lambda1", "3", "--nmax", "5", "--config", "c.json", "--out", "o.csv"],
    ["census", "--family", "planar", "--nmax", "4"],
    ["constants", "--gamma", "27", "--lambda", "2", "--nmax", "5", "--census-nmax", "0"],
    ["sample", "--method", "mcmc", "--n", "5", "--draws", "4", "--burn-in", "10",
     "--thin", "2", "--rho", "0.1", "--census-nmax", "3"],
    ["stats", "--in", "s.jsonl"],
    ["pendant", "--graph", "g.txt", "--h", "h.txt", "--root", "2", "--gamma", "3"],
    ["families-check", "--family", "planar"],
    ["verify", "cayley-trees", "tree-series"],
], ids=lambda argv: argv[0])
def test_parser_of_one_command_parses_and_helps_like_the_full_parser(argv, capsys):
    """The parser main builds for a named command gives the same Namespace
    and the same --help text as the parser with every command, and
    registers the named command alone."""
    full, one = cli.build_parser(), cli.build_parser(argv[0])
    assert one.parse_args(argv) == full.parse_args(argv)
    helps = []
    for ap in (full, one):
        with pytest.raises(SystemExit) as exc:
            ap.parse_args([argv[0], "--help"])
        assert exc.value.code == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1] and f"usage: minorclass {argv[0]}" in helps[0]
    with pytest.raises(SystemExit):
        main([argv[0], "--help"])
    assert capsys.readouterr().out == helps[0]
    subcommands, = (a for a in one._actions if isinstance(a, argparse._SubParsersAction))
    assert list(subcommands.choices) == [argv[0]]


@pytest.mark.parametrize("argv", [["--help"], ["bogus"], [], ["--bogus", "stats", "--in", "x"]])
def test_command_lines_naming_no_command_use_the_full_parser(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    want = (exc.value.code, capsys.readouterr())
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert (exc.value.code, capsys.readouterr()) == want


@pytest.mark.parametrize("argv", [
    ["enumerate", "--bogus"], ["enumerate", "--nmax", "x"], ["enumerate", "--nmax"],
    ["enumerate", "extra"], ["census", "--nmax", "2", "extra"], ["sample", "--method", "nope"],
    ["stats"], ["pendant", "--graph"], ["families-check", "--family"],
], ids=" ".join)
def test_parse_errors_of_a_named_command_are_those_of_the_full_parser(argv, capsys):
    """main parses a named command with that command's parser alone; its
    usage line, error text and exit code are those of the parser of every
    command."""
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    want = (exc.value.code, capsys.readouterr())
    assert want[0] == 2 and want[1].err.startswith("usage: minorclass ")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert (exc.value.code, capsys.readouterr()) == want
