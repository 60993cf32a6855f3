"""Tests of the benchmark itself.

Run from the repository root with

    python3 -m pytest -q perfbench/bench_tests.py

The file name keeps these tests out of the package's own suite.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import domw  # noqa: E402
from domw import cli  # noqa: E402

import check  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from workloads import SEED_STRIDE, WORKLOADS, gen_sparse_interval  # noqa: E402


def _solver_output(inst: domw.InstanceFile) -> str:
    if inst.kind == "interval":
        return domw.write_certificate(domw.solve_interval(inst.payload))
    if inst.kind == "tree-edges":
        return domw.write_certificate(domw.solve_tree(inst.payload.host, inst.payload.f_edges))
    return domw.write_split_result(domw.solve_split(inst.payload))


def _cli_output(path: Path, capsys) -> str:
    capsys.readouterr()
    assert cli.run(["solve", str(path)]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [0, 7])
def test_traced_recomposition_matches_solver(name, seed, tmp_path, capsys):
    for text in (WORKLOADS[name].instance_text(seed, i) for i in range(2)):
        path = tmp_path / "instance.txt"
        path.write_text(text, encoding="ascii")
        expected = _solver_output(domw.parse_instance(text))
        output, self_times, counts, total = layers.traced_solve(str(path))
        assert output == expected == _cli_output(path, capsys)
        assert check.output_error(text, output, None) is None
        assert layers.ROOT in self_times and total > 0
        assert counts["instances_io.bytes_in"] == len(text)


def test_layer_spans_cover_the_chain(tmp_path):
    path = tmp_path / "instance.txt"
    path.write_text(WORKLOADS["tree-edges"].instance_text(0, 0), encoding="ascii")
    _, self_times, counts, _ = layers.traced_solve(str(path))
    assert {
        "instances_io.parse_instance",
        "tree_edge_solver.reduce_to_full_tree",
        "tree_edge_solver.bottom_up_f",
        "tree_edge_solver.root_adjust",
        "tree_edge_solver.extract_dispersed_tree",
        "tree_edge_solver.edge_line_graph",
        "graph_core.is_w_dominating",
        "graph_core.is_dispersed",
        "instances_io.write_certificate",
    } <= set(self_times)
    assert counts["tree_edge_solver.components"] >= 1
    assert counts["tree_edge_solver.deletion_layers"] >= counts["tree_edge_solver.components"]


def test_self_time_excludes_children():
    tracer = layers.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10_000))
    times = tracer.self_times()
    assert times["outer"] + times["inner"] == pytest.approx(tracer.total())
    assert times["inner"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_files(name):
    workload = WORKLOADS[name]
    first = [workload.instance_text(3, i) for i in range(3)]
    assert first == [workload.instance_text(3, i) for i in range(3)]
    assert first != [workload.instance_text(4, i) for i in range(3)]
    assert first[0] == domw.write_instance(workload.make(3 * SEED_STRIDE))


def test_sparse_interval_draw_order():
    n = 50
    rng = domw.LCG(11)
    expected = []
    for _ in range(n):
        left = 1 + rng.draw(2 * n)
        length = rng.draw(7)
        weight = 1 + rng.draw(5)
        expected.append((left, left + length, weight))
    fam = gen_sparse_interval(11, n)
    assert [(iv.left, iv.right, iv.weight) for iv in fam.intervals] == expected


def test_checker_rejects_wrong_answers():
    tree_text = WORKLOADS["tree-edges"].instance_text(0, 0)
    good = _solver_output(domw.parse_instance(tree_text))
    assert check.output_error(tree_text, good, None) is None
    lines = good.splitlines()
    bad = "\n".join(line for line in lines if not line.startswith("f ")) + "\n"
    assert check.output_error(tree_text, bad, None) is not None

    split_text = WORKLOADS["split-search"].instance_text(0, 0)
    good = _solver_output(domw.parse_instance(split_text))
    value = int(good.split()[-1])
    assert check.output_error(split_text, good, value) is None
    assert check.output_error(split_text, good, value + 1) is not None
    assert check.output_error(split_text, good.replace(f"value {value}", f"value {value + 1}"), None)


def test_pinned_split_values_cover_the_workload():
    pinned = json.loads((HERE / "split_values.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[pinned["workload"]]
    assert len(pinned["values"]) == workload.count
    for i in range(3):
        inst = workload.make(pinned["seed"] * SEED_STRIDE + i)
        assert domw.solve_split(inst.payload).value == pinned["values"][i]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run(name, trace):
    result, lines = run.run(name, seed=0, seconds=0, trace=trace, count=3)
    kind = "per_layer" if trace else "end_to_end"
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (6 if trace else 3)
    assert list(result["metrics"]) == [spec["name"] for spec in run.METRICS[kind]]
    if not trace:
        assert result["metrics"]["solved_frac"]["value"] == 1.0
    assert not run.WORK_ROOT.exists()


def test_expired_deadline_counts_as_failed(monkeypatch):
    monkeypatch.setattr(run, "DEADLINE_S", 1e-6)
    result, lines = run.run("split-search", seed=0, seconds=0, trace=False, count=2)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2
    assert any("DeadlineExpired" in line for line in lines)


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for kind, keys in (("end_to_end", ("name", "unit", "better", "bound")),
                       ("per_layer", ("name", "unit", "better"))):
        mine = [{k: m[k] for k in keys} for m in run.METRICS[kind]]
        assert spec[kind] == mine
