"""Tests of the benchmark itself: the checks, the failure accounting and the tracer.

    python3 -m pytest -q perfbench/selftest.py

The sampler tests run the sampler ops through the benchmark's own child
processes, on two seeds, so they take about half a minute.
"""

import json
import sys
import time

import pytest

import run
from checks import DETERMINISTIC, SAME_AS, Oracles, check_op, reference_path
from layers import PER_LAYER, layer_metrics
from workloads import KNOWN_DEFECTS, Op, workload_ops

sys.path.insert(0, str(run.SRC))


@pytest.fixture(scope="module")
def oracles():
    return Oracles()


def _reference(op_id):
    return reference_path(op_id).read_text()


@pytest.mark.parametrize("op_id", DETERMINISTIC + tuple(SAME_AS))
def test_references_pass_their_checks(op_id, oracles):
    outputs = {partner: _reference(partner) for partner in SAME_AS.values()}
    assert check_op(op_id, _reference(op_id), oracles, outputs) == []


@pytest.mark.parametrize("op_id", ["enum-forests-7", "enum-all-ext-6", "enum-planar-6"])
def test_perturbed_enumerate_row_is_rejected(op_id, oracles):
    lines = _reference(op_id).splitlines(keepends=True)
    cells = lines[6].split(",")  # the n=5 row
    cells[1] = str(int(cells[1].split("/")[0]) + 1) + ("/" + cells[1].split("/")[1]
                                                      if "/" in cells[1] else "")
    lines[6] = ",".join(cells)
    assert check_op(op_id, "".join(lines), oracles, {})


def test_perturbed_partner_output_is_rejected(oracles):
    text = _reference("enum-planar-6")
    outputs = {"enum-planar-6": text.replace("32071", "32070")}
    problems = check_op("enum-planar-minors-6", text, oracles, outputs)
    assert problems == ["output differs from enum-planar-6"]


def test_wrong_class_count_is_rejected(oracles):
    lines = _reference("census-all-6").splitlines(keepends=True)
    drop = next(i for i, ln in enumerate(lines) if ln.split(",")[1:2] == ["6"])
    problems = check_op("census-all-6", "".join(lines[:drop] + lines[drop + 1:]), oracles, {})
    assert any(p.startswith("class counts") for p in problems)


def test_constants_residuals_are_bounded_not_compared(oracles):
    out = json.loads(_reference("constants-planar-6"))
    out["residuals"] = {k: 3 * r for k, r in out["residuals"].items()}
    assert check_op("constants-planar-6", json.dumps(out), oracles, {}) == []
    out["residuals"]["beta_equation"] = 1e-6
    assert check_op("constants-planar-6", json.dumps(out), oracles, {})


def _forest_draws(k, edges=()):
    return "".join(json.dumps({"n": 16, "edges": list(edges)}) + "\n" for _ in range(k))


@pytest.mark.parametrize("text, rc, failed", [
    (_forest_draws(8000), 0, 0),  # the wrong law alone: the known defect
    (_forest_draws(7999), 0, 1),  # truncated output
    (_forest_draws(8000, [(1, 2), (2, 3), (1, 3)]), 0, 1),  # draws that are not forests
    (None, 2, 1),  # a crash
])
def test_known_defect_excuses_only_its_own_problem(text, rc, failed, oracles):
    rec = {"id": "mcmc-forests-16", "rc": rc, "text": text}
    if rc != 0:
        rec["problems"] = [f"exit code {rc}: OverflowError"]
    run.judge(rec, oracles, {})
    assert rec["problems"]
    assert run._failures([rec]) == (failed, 1)


@pytest.mark.parametrize("seed", [11, 12])
def test_sampler_checks_pass_on_two_seeds(seed, oracles, tmp_path):
    outputs = {}
    for op in workload_ops("samplers", seed):
        rec = run.run_op(op, tmp_path, None, time.monotonic() + run.RUN_LIMIT_S)
        assert rec["rc"] == 0, rec.get("problems")
        problems = check_op(op.id, rec["text"], oracles, outputs)
        if op.id in KNOWN_DEFECTS:
            assert problems, f"{op.id} passed; remove it from KNOWN_DEFECTS"
        else:
            assert problems == [], (op.id, problems)


def test_tracer_wraps_every_binding(oracles, tmp_path):
    op = Op("enum-planar-minors-5", ("enumerate", "--family",
                                     str(run.HERE / "families" / "planar-by-minors.json"),
                                     "--nmax", "5"))
    rec = run.run_op(op, tmp_path, tmp_path / "spans.npz", time.monotonic() + run.RUN_LIMIT_S)
    assert rec["rc"] == 0
    m = layer_metrics([rec], rec["wall_s"], 0.0)
    assert set(m) == {name for name, _ in PER_LAYER}
    # base_member is a method and imports canonicalize from canon at call time;
    # has_minor is reached through the name imported into families.
    assert m["canon.canonicalize.calls"] > 0
    assert m["families.GraphFamily.base_member.calls"] > 0
    assert m["minors.has_minor.calls"] > 0
    assert 0 < m["families.GraphFamily.base_member.memo_hit_frac"] < 1
    assert m["_kernels.sweep_counts.masks"] == sum(1 << (n * (n - 1) // 2) for n in range(6))
    assert 0 < m["design.membership_share"] <= 1
