"""The command-line interface: outputs, determinism and exit codes."""

import argparse
import csv
import io
import json
import math
import os
import random
import subprocess
import sys

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
    ([1], "--config must hold a JSON object, got list"),
], ids=["number-lambda", "number-family", "list"])
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
    (("steps", "method"), ExperimentConfig(method="exact", steps=70), _sample),
    (("steps", "burn_in"), ExperimentConfig(method="mcmc", steps=70), _sample),
    (("seed",), ExperimentConfig(seed=1 << 64), _validate),
], ids=["lambda0", "lambda1", "lambda", "nu", "constants-gamma", "pendant-gamma", "rho",
        "steps-method", "steps-burn-in", "seed"])
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


def test_mcmc_steps_below_burn_in_exit_2(capsys):
    argv = ["sample", "--method", "mcmc", "--family", "forests", "--n", "5", "--draws", "3"]
    code = main(argv + ["--steps", "70"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "configuration error: --steps must be >= --burn-in (100000), got 70" in captured.err
    # a budget that covers the burn-in sets the draw count
    code, out = run_cli(argv + ["--steps", "130", "--burn-in", "100", "--thin", "10"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 3


@pytest.mark.parametrize("method", ["exact", "tree"])
def test_steps_outside_mcmc_exit_2(method, capsys):
    code = main(["sample", "--method", method, "--n", "4", "--draws", "3", "--steps", "70"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"configuration error: --steps applies only to --method mcmc, got --method {method}" \
        in captured.err


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
    (["enumerate", "--family", "all", "--nmax", "9"], "brute force is limited to n <= 8"),
    (["enumerate", "--family", "series-parallel", "--nmax", "8"], _MEMBER_ARRAYS_STOP),
    (["census", "--family", "planar", "--nmax", "8"], _MEMBER_ARRAYS_STOP),
    (["sample", "--method", "exact", "--family", "planar", "--n", "8"], _MEMBER_ARRAYS_STOP),
    (["sample", "--method", "exact", "--family", "all", "--n", "8"],
     "listing every graph stops at n=7"),
], ids=["enumerate-all-9", "enumerate-sp-8", "census-planar-8", "exact-planar-8", "exact-all-8"])
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


def test_enumerate_all_reaches_the_n8_sweep(monkeypatch, capsys):
    """enumerate --family all --nmax 8 passes every check and streams the
    n = 8 slice (stubbed here: the real sweep takes seconds)."""
    from minorclass import _kernels

    class Reached(Exception):
        pass

    sweep = _kernels.sweep_counts

    def stop_at_8(n, *args, **kwargs):
        if n == 8:
            raise Reached
        return sweep(n, *args, **kwargs)

    monkeypatch.setattr(_kernels, "sweep_counts", stop_at_8)
    with pytest.raises(Reached):
        main(["enumerate", "--family", "all", "--nmax", "8"])
    assert capsys.readouterr().err.endswith("enumerating n=8 (268435456 edge masks)...\n")


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
    want = [json.dumps({"n": n, "edges": Graph(n, s).edges}) for s in masks]
    assert jsonl.masks_to_jsonl(n, masks) == want
    monkeypatch.setattr(jsonl, "_CHUNK_BYTES", 1)
    assert jsonl.masks_to_jsonl(n, masks) == want
    assert jsonl.masks_to_jsonl(n, [0, 0]) == [json.dumps({"n": n, "edges": []})] * 2
    assert jsonl.masks_to_jsonl(n, []) == []


@pytest.mark.parametrize("argv", [["--draws", "0"], ["--draws", "1"],
                                  ["--nu", "1000", "--draws", "30"]])
def test_boltzmann_output_is_one_line_per_count_row(argv, capsys):
    """sample --method boltzmann prints json.dumps of counts_to_graph over
    each draw's count row, with no draws, one, and counts of 256 and more."""
    from minorclass.enumeration import build_census
    from minorclass.families import builtin_family
    from minorclass.sampling import boltzmann_component_counts, boltzmann_config, \
        counts_to_graph

    code, out = run_cli(["sample", "--method", "boltzmann", "--family", "forests",
                         "--census-nmax", "4", "--seed", "3", *argv], capsys)
    assert code == 0
    census = build_census(builtin_family("forests"), 4)
    w = ExperimentConfig(nu=argv[1] if argv[0] == "--nu" else "1").weighting()
    cfg = boltzmann_config(census, 1 / math.e, w)
    rows = boltzmann_component_counts(cfg, 3, int(argv[-1]))
    assert out.splitlines() == [json.dumps({"n": g.n, "edges": g.edges})
                                for g in (counts_to_graph(census, r) for r in rows)]
    assert argv[0] != "--nu" or rows.max() >= 256


@pytest.mark.parametrize("family, argv, rows", [
    ("forests", ["--nmax", "7"], ["2932 forests", "36961 forests"]),
    ("trees", ["--nmax", "7"], ["2932 forests", "36961 forests"]),
    ("all", ["--nmax", "7"], ["32768 edge masks", "2097152 edge masks"]),
])
def test_enumerate_progress_names_the_rows_it_reads(family, argv, rows, capsys):
    """The progress line counts the forest slice's rows for a family swept
    as the forests, and every edge mask otherwise."""
    assert main(["enumerate", "--family", family, *argv]) == 0
    err = capsys.readouterr().err
    assert err == "".join(f"enumerating n={n} ({r})...\n" for n, r in enumerate(rows, 6))


@pytest.mark.parametrize("n, draws", [(1, 5), (2, 5), (3, 200), (41, 60), (300, 40), (2000, 10),
                                      (5, 0)])
def test_tree_output_matches_json_dumps_of_the_sampled_graphs(n, draws, monkeypatch, capsys):
    """sample --method tree formats the decoded edge bits without building
    Graphs, in batches smaller than the draws here; its text is json.dumps
    over random_tree_sample's Graphs on the same seed."""
    from minorclass.sampling import random_tree_sample

    monkeypatch.setattr(jsonl, "_CHUNK_EDGES", 1000)
    code, out = run_cli(["sample", "--method", "tree", "--n", str(n), "--draws", str(draws),
                         "--seed", "7"], capsys)
    assert code == 0
    want = [json.dumps({"n": g.n, "edges": [list(e) for e in g.edges]})
            for g in random_tree_sample(n, 7, draws)]
    assert out.splitlines() == want


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
     "--lambda1", "3", "--nmax", "5", "--config", "c.json", "--seed", "3",
     "--out", "o.csv"],
    ["census", "--family", "planar", "--nmax", "4"],
    ["constants", "--gamma", "27", "--lambda", "2", "--nmax", "5", "--census-nmax", "0"],
    ["sample", "--method", "mcmc", "--n", "5", "--draws", "4", "--steps", "100",
     "--burn-in", "10", "--thin", "2", "--rho", "0.1", "--census-nmax", "3"],
    ["stats", "--in", "s.jsonl"],
    ["pendant", "--graph", "g.txt", "--h", "h.txt", "--root", "2", "--gamma", "3"],
    ["families-check", "--family", "planar", "--kmax", "3", "--minor-budget", "9"],
    ["verify", "cayley-trees", "tree-series"],
], ids=lambda argv: argv[0])
def test_parser_of_one_command_parses_and_helps_like_the_full_parser(argv, capsys):
    """The parser main builds for a named command gives the same Namespace
    and the same --help text as the parser with every command's arguments,
    and registers every command, with arguments only on the named one."""
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
    assert list(subcommands.choices) == list(cli.COMMANDS)
    for name, sub in subcommands.choices.items():
        assert (len(sub._actions) > 1) == (name == argv[0])  # -h alone on the others


@pytest.mark.parametrize("argv", [["--help"], ["bogus"], [], ["--bogus", "stats", "--in", "x"]])
def test_command_lines_naming_no_command_use_the_full_parser(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    want = (exc.value.code, capsys.readouterr())
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert (exc.value.code, capsys.readouterr()) == want
