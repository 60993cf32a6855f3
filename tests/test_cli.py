"""End-to-end tests for the command line interface."""

import argparse
import dataclasses
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import domw
import domw.interval_solver
import domw.tree_edge_solver
from domw import DominationFunction, SplitResult, oracles, solve_split, write_split_result
from domw.cli import run
from domw.instances_io import KINDS, parse_instance

# one edge between two vertices of weight 1
_EDGE = "domw 1\nkind explicit\n2\n0 1\n1 1\n1\n0 1\n"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def interval_file(tmp_path, capsys):
    code, out, _ = invoke(capsys, "example", "non-tu-intervals")
    assert code == 0
    path = tmp_path / "ntu4.domw"
    path.write_text(out)
    return str(path)


def test_example_writes_a_parseable_instance(capsys):
    code, out, err = invoke(capsys, "example", "non-tu-intervals")
    assert code == 0 and err == ""
    assert out == (
        "domw 1\n"
        "kind interval\n"
        "4\n"
        "0 1 1 1\n"
        "1 2 2 1\n"
        "2 3 3 1\n"
        "3 1 3 1\n"
    )


def test_solve_emits_a_certificate(interval_file, capsys):
    code, out, err = invoke(capsys, "solve", interval_file)
    assert code == 0 and err == ""
    assert out == "domw-cert 1\nf 3 1\nI 2\nvalue 1\n"


@pytest.mark.parametrize("module", ["domw", "domw.cli"])
def test_python_dash_m_runs_the_command_line(module, interval_file):
    env = dict(os.environ, PYTHONPATH=str(Path(domw.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", module, "solve", interval_file],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "domw-cert 1\nf 3 1\nI 2\nvalue 1\n", ""
    )
    proc = subprocess.run(
        [sys.executable, "-m", module, "solve", interval_file + ".missing"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1 and proc.stdout == "" and proc.stderr != ""


def test_verify_accepts_the_solver_output(interval_file, tmp_path, capsys):
    _, cert_text, _ = invoke(capsys, "solve", interval_file)
    cert_path = tmp_path / "out.cert"
    cert_path.write_text(cert_text)
    code, out, _ = invoke(capsys, "verify", interval_file, str(cert_path))
    assert code == 0
    assert out == "PASS value 1\n"


def test_verify_rejects_a_tampered_certificate(interval_file, tmp_path, capsys):
    _, cert_text, _ = invoke(capsys, "solve", interval_file)
    cert_path = tmp_path / "bad.cert"
    cert_path.write_text(cert_text.replace("value 1", "value 2"))
    code, out, _ = invoke(capsys, "verify", interval_file, str(cert_path))
    assert code == 1
    assert out.startswith("FAIL")


def test_verify_accepts_the_split_solver_output(tmp_path, capsys):
    _, text, _ = invoke(capsys, "gen", "split", "--seed", "2")
    path = tmp_path / "sp.domw"
    path.write_text(text)
    _, result, _ = invoke(capsys, "solve", str(path))
    out_path = tmp_path / "sp.out"
    out_path.write_text(result)
    code, out, _ = invoke(capsys, "verify", str(path), str(out_path))
    assert (code, out) == (0, "PASS value 9\n")


@pytest.mark.parametrize(
    "values, witness, failing",
    [
        ({3: 6}, {3, 4, 5}, "FAIL function dominates at its value"),
        ({0: 2, 1: 2, 2: 2}, {0, 3}, "FAIL witness is independent"),
        ({0: 2, 1: 2, 2: 2}, {3, 9}, "FAIL witness is independent"),
    ],
    ids=["function", "witness", "unknown-vertex"],
)
def test_verify_rejects_a_faulty_split_block(values, witness, failing, tmp_path, capsys):
    _, text, _ = invoke(capsys, "example", "split-triangle")
    path = tmp_path / "tri.domw"
    path.write_text(text)
    block = tmp_path / "tri.out"
    fake = SplitResult(6, DominationFunction(values), frozenset(witness))
    block.write_text(write_split_result(fake))
    code, out, _ = invoke(capsys, "verify", str(path), str(block))
    assert (code, out) == (1, failing + "\n")


@pytest.mark.parametrize(
    "instance, block, expected",
    [
        (_EDGE, "domw-cert 1\nf 0 1\nI 1\nvalue 1\n", (0, "PASS value 1\n")),
        (_EDGE, "domw-cert 1\nI 1\nvalue 0\n", (1, "FAIL NotDominating\n")),
        (_EDGE, "domw-cert 1\nf 2 1\nI 1\nvalue 1\n", (1, "")),
        # a witness listed twice is refused as it is read, not read as one
        (_EDGE, "domw-cert 1\nf 0 1\nI 1 1\nvalue 1\n", (1, "")),
        # every dispersed set of the triangle is one vertex, of weight at most 5 < 6
        (None, "domw-cert 1\nf 0 2\nf 1 2\nf 2 2\nI 0\nvalue 6\n", (1, "FAIL ValueMismatch\n")),
    ],
    ids=[
        "explicit-pass", "explicit-not-dominating", "explicit-unknown-vertex",
        "explicit-repeated-witness", "split",
    ],
)
def test_verify_checks_a_certificate_of_another_kind_on_its_graph(instance, block, expected, tmp_path, capsys):
    """Kinds with no checker of their own: the explicit-graph route."""
    text = instance or invoke(capsys, "example", "split-triangle")[1]
    path, cert = tmp_path / "inst.domw", tmp_path / "inst.cert"
    path.write_text(text)
    cert.write_text(block)
    code, out, _ = invoke(capsys, "verify", str(path), str(cert))
    assert (code, out) == expected


def test_verify_refuses_a_split_block_for_an_interval_instance(interval_file, tmp_path, capsys):
    block = tmp_path / "ntu4.out"
    block.write_text("domw-split 1\nf 3 1\nI 2\nvalue 1\n")
    code, out, err = invoke(capsys, "verify", interval_file, str(block))
    assert (code, out) == (1, "")
    assert "domw-cert 1" in err


def test_oracle_gamma_output(interval_file, capsys):
    code, out, _ = invoke(capsys, "oracle", "gamma", interval_file)
    assert code == 0
    assert out == "value 1\nf 3 1\n"


def test_oracle_rho_output(interval_file, capsys):
    code, out, _ = invoke(capsys, "oracle", "rho", interval_file)
    assert code == 0
    assert out.splitlines()[0] == "value 1"


def test_oracle_gammai_output(interval_file, capsys):
    code, out, _ = invoke(capsys, "oracle", "gammai", interval_file)
    assert code == 0
    assert out == "value 1\nI 0 1 2\nf 3 1\n"


def test_forked_star_separates_gamma_from_gammai(tmp_path, capsys):
    _, text, _ = invoke(capsys, "example", "forked-star")
    path = tmp_path / "fs.domw"
    path.write_text(text)
    _, out, _ = invoke(capsys, "oracle", "gamma", str(path), "--cap", "15")
    assert out.splitlines()[0] == "value 5"
    _, out, _ = invoke(capsys, "oracle", "gammai", str(path), "--cap", "15")
    assert out.splitlines()[0] == "value 4"


def test_oracle_frac_output(interval_file, capsys):
    code, out, _ = invoke(capsys, "oracle", "frac", interval_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "gamma_star 1"
    assert lines[1] == "rho_star 1"


def test_matrix_flags(interval_file, capsys):
    code, out, _ = invoke(capsys, "matrix", interval_file, "--det", "--c1p")
    assert code == 0
    assert out == (
        "1 0 1 0\n"
        "0 1 1 0\n"
        "1 1 1 1\n"
        "0 0 1 1\n"
        "det -2\n"
        "c1p false\n"
    )


_CERTIFICATE_CHECK_LINES = [
    "PASS solver certificate verifies",
    "PASS sandwich rho <= gamma_i <= gamma",
    "PASS solver value equals gamma_w",
    "PASS solver value equals rho_w",
    "PASS fractional duality gamma* = rho*",
    "PASS gamma* at most gamma_w",
    "PASS rho* at least rho_w",
]
_ORACLE_CHECK_LINES = [
    "PASS sandwich rho <= gamma_i <= gamma",
    "PASS fractional duality gamma* = rho*",
    "PASS gamma* at most gamma_w",
    "PASS rho* at least rho_w",
]
_WEIGHTED_C5 = "domw 1\nkind explicit\n5\n0 2\n1 1\n2 3\n3 1\n4 2\n5\n0 1\n1 2\n2 3\n3 4\n4 0\n"


@pytest.mark.parametrize(
    "source, expected",
    [
        (("example", "non-tu-intervals"), _CERTIFICATE_CHECK_LINES),
        (("gen", "tree-edges", "--seed", "3", "--n-edges", "5"), _CERTIFICATE_CHECK_LINES),
        (
            ("gen", "split", "--seed", "2"),
            [
                "PASS solver function dominates at its value",
                "PASS solver witness is independent",
                "PASS sandwich rho <= gamma_i <= gamma",
                "PASS solver value equals gamma_w",
                "PASS solver value equals gamma_i_w",
                "PASS rho_w at most solver value",
                "PASS fractional duality gamma* = rho*",
                "PASS gamma* at most gamma_w",
                "PASS rho* at least rho_w",
            ],
        ),
        (("gen", "subtree-intersection", "--seed", "1"), _ORACLE_CHECK_LINES),
        (_WEIGHTED_C5, _ORACLE_CHECK_LINES),
        (
            ("gen", "interval", "--seed", "1", "--n", "12"),
            [
                "PASS solver certificate verifies",
                "SKIP oracle comparisons (12 vertices exceed the cap of 10)",
            ],
        ),
    ],
    ids=["interval", "tree-edges", "split", "subtree-intersection", "explicit", "over-cap"],
)
def test_check_reports_every_property(source, expected, tmp_path, capsys):
    text = source if isinstance(source, str) else invoke(capsys, *source)[1]
    path = tmp_path / "inst.domw"
    path.write_text(text)
    code, out, _ = invoke(capsys, "check", str(path))
    assert code == 0
    assert out.splitlines() == expected


@pytest.mark.parametrize(
    "values, witness, failing",
    [
        ({3: 6}, {3, 4, 5}, "FAIL solver function dominates at its value"),
        ({0: 2, 1: 2, 2: 2}, {0, 3}, "FAIL solver witness is independent"),
    ],
    ids=["function", "witness"],
)
def test_check_rejects_a_faulty_split_result(values, witness, failing, tmp_path, capsys, monkeypatch):
    """Each fault keeps the right value of 6, so only its own line can catch it."""
    _, text, _ = invoke(capsys, "example", "split-triangle")
    path = tmp_path / "tri.domw"
    path.write_text(text)
    fake = SplitResult(6, DominationFunction(values), frozenset(witness))
    monkeypatch.setattr(KINDS["split"], "solve", lambda inst: fake)
    code, out, _ = invoke(capsys, "check", str(path))
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [failing]


@pytest.mark.parametrize("kind", ["interval", "tree-edges", "split", "subtree-intersection"])
def test_check_over_the_cap_builds_no_graph(kind, tmp_path, capsys, monkeypatch):
    """Past the cap only the solver lines run; the graph, which a large
    interval or tree-edge file could not afford, is never built."""
    sizes = ("--n", "12", "--n-edges", "12", "--n-subtrees", "12")
    _, text, _ = invoke(capsys, "gen", kind, "--seed", "1", *sizes)
    path = tmp_path / "big.domw"
    path.write_text(text)

    def no_graph(payload):
        raise AssertionError("graph built")

    monkeypatch.setattr(KINDS[kind], "graph", no_graph)
    code, out, _ = invoke(capsys, "check", str(path), "--cap", "2")
    assert code == 0
    assert out.splitlines()[-1].startswith("SKIP oracle comparisons (")


def test_check_over_the_cap_still_checks_the_subtrees(tmp_path, capsys):
    path = tmp_path / "bad.domw"
    path.write_text("domw 1\nkind subtree-intersection\n3\n0 1 1 0\n1 2 1 0\n1\n1 2 0 2\n")
    code, out, err = invoke(capsys, "check", str(path), "--cap", "0")
    assert (code, out) == (1, "")
    assert err == "error: subtree 0 is not connected in the host tree\n"


def test_run_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    _, text, _ = invoke(capsys, "gen", "interval", "--seed", "1", "--n", "12")
    path = tmp_path / "big.domw"
    path.write_text(text)
    code, _, _ = invoke(capsys, "oracle", "gamma", str(path), "--cap", "12")
    assert code == 0
    # a shared parser must not carry the oracle's --cap over to check
    code, out, _ = invoke(capsys, "check", str(path))
    assert code == 0
    assert out.splitlines()[-1] == "SKIP oracle comparisons (12 vertices exceed the cap of 10)"
    assert built.count("domw") <= 1


def test_gen_is_deterministic(capsys):
    code, first, _ = invoke(capsys, "gen", "interval", "--seed", "5", "--n", "4")
    assert code == 0
    code, second, _ = invoke(capsys, "gen", "interval", "--seed", "5", "--n", "4")
    assert first == second
    code, third, _ = invoke(capsys, "gen", "interval", "--seed", "6", "--n", "4")
    assert third != first


def test_gen_then_solve_round_trip(tmp_path, capsys):
    _, text, _ = invoke(capsys, "gen", "tree-edges", "--seed", "3", "--n-edges", "5")
    path = tmp_path / "t.domw"
    path.write_text(text)
    code, out, _ = invoke(capsys, "solve", str(path))
    assert code == 0
    assert out.startswith("domw-cert 1\n")
    cert_path = tmp_path / "t.cert"
    cert_path.write_text(out)
    code, out, _ = invoke(capsys, "verify", str(path), str(cert_path))
    assert code == 0


def test_sweep_runs_clean_on_twenty_seeds(capsys):
    code, out, _ = invoke(capsys, "sweep", "--seeds", "20")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert all("20 instances, 0 mismatches" in line for line in lines)


def test_sweep_refuses_a_negative_count(capsys):
    code, out, err = invoke(capsys, "sweep", "--seeds", "-5")
    assert (code, out) == (1, "")
    assert err == "error: --seeds must be nonnegative, got -5\n"


@pytest.mark.parametrize("command", [("oracle", "gamma"), ("check",)], ids=["oracle", "check"])
def test_a_negative_cap_is_invalid_input(command, tmp_path, capsys):
    _, text, _ = invoke(capsys, "example", "split-triangle")
    path = tmp_path / "triangle.domw"
    path.write_text(text)
    code, out, err = invoke(capsys, *command, str(path), "--cap", "-1")
    assert (code, out, err) == (1, "", "error: --cap must be nonnegative, got -1\n")


_SWEEP_PINS = [
    (
        ["--seeds", "100"],
        "interval    100 instances, 0 mismatches; gamma - gamma*: max 0 (0.000), mean 0.000, integral on 100/100\n"
        "tree        100 instances, 0 mismatches; gamma - gamma*: max 0 (0.000), mean 0.000, integral on 100/100\n"
        "split       100 instances, 0 mismatches; gamma - gamma*: max 0 (0.000), mean 0.000, integral on 100/100\n"
        "subtree     100 instances, 0 mismatches; gamma - gamma*: max 0 (0.000), mean 0.000, integral on 100/100\n",
    ),
    (
        # seeds 519 and 599 have gamma - gamma* = 1/2
        ["--classes", "split", "--seeds", "600"],
        "split       600 instances, 0 mismatches; gamma - gamma*: max 1/2 (0.500), mean 0.002, integral on 598/600\n",
    ),
]


@pytest.mark.parametrize("argv, expected", _SWEEP_PINS, ids=["all-100", "split-600"])
def test_sweep_output_is_pinned(argv, expected, capsys):
    code, out, err = invoke(capsys, "sweep", *argv)
    assert code == 0
    assert out == expected
    assert err == ""


def test_sweep_counts_a_dependent_split_witness(capsys, monkeypatch):
    """Value and function stay right, so only the witness check can object."""

    def dependent_witness(inst):
        result = solve_split(inst)
        b = min(inst.independent)
        a = min(inst.graph.adjacency[b])
        return dataclasses.replace(result, witness_independent=frozenset({a, b}))

    monkeypatch.setattr(KINDS["split"], "solve", dependent_witness)
    code, out, err = invoke(capsys, "sweep", "--seeds", "10", "--classes", "interval", "split")
    assert code == 1
    assert out.splitlines()[0].startswith("interval     10 instances, 0 mismatches")
    assert out.splitlines()[1].startswith("split        10 instances, 10 mismatches")
    assert err.count("MISMATCH split seed") == 10


def test_non_tu_star_certificate_verifies(tmp_path, capsys):
    _, text, _ = invoke(capsys, "example", "non-tu-star")
    path = tmp_path / "star.domw"
    path.write_text(text)
    code, out, _ = invoke(capsys, "solve", str(path))
    assert code == 0
    cert_path = tmp_path / "star.cert"
    cert_path.write_text(out)
    assert invoke(capsys, "verify", str(path), str(cert_path)) == (0, "PASS value 3\n", "")


def test_solve_refuses_kinds_without_an_exact_solver(tmp_path, capsys):
    _, text, _ = invoke(capsys, "gen", "subtree-intersection", "--seed", "1")
    path = tmp_path / "s.domw"
    path.write_text(text)
    code, out, err = invoke(capsys, "solve", str(path))
    assert code == 1
    assert out == ""
    assert "oracle" in err


def test_split_instances_solve_to_the_split_block(tmp_path, capsys):
    _, text, _ = invoke(capsys, "gen", "split", "--seed", "2")
    path = tmp_path / "sp.domw"
    path.write_text(text)
    code, out, _ = invoke(capsys, "solve", str(path))
    assert code == 0
    assert out.startswith("domw-split 1\n")
    assert "value " in out


def test_split_with_an_isolated_b_vertex_is_solved(tmp_path, capsys):
    path = tmp_path / "iso.domw"
    path.write_text(
        "domw 1\nkind split\n4\n0 A 3\n1 A 2\n2 B 4\n3 B 5\n1\n0 2\n"
    )
    code, out, err = invoke(capsys, "solve", str(path))
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == "value 9"
    code, out, _ = invoke(capsys, "check", str(path))
    assert code == 0
    assert out and all(line.startswith("PASS ") for line in out.splitlines())


def test_oversized_instance_exits_three(tmp_path, capsys, monkeypatch):
    """Over the cap the oracle refuses the file before it builds the graph."""
    _, text, _ = invoke(capsys, "gen", "interval", "--seed", "1", "--n", "12")
    path = tmp_path / "big.domw"
    path.write_text(text)

    def no_graph(payload):
        raise AssertionError("graph built")

    monkeypatch.setattr(KINDS["interval"], "graph", no_graph)
    code, out, err = invoke(capsys, "oracle", "gamma", str(path))
    assert (code, out, err) == (3, "", "error: 12 vertices exceeds the cap of 10\n")
    monkeypatch.undo()
    code, _, _ = invoke(capsys, "oracle", "gamma", str(path), "--cap", "12")
    assert code == 0


def test_rho_oracle_past_its_packing_cap_exits_three(tmp_path, capsys, monkeypatch):
    """A path of five unit vertices: its packing search needs more than one
    mask, so with room for one brute_rho gives up instead of guessing."""
    monkeypatch.setattr(oracles, "PACKING_MASKS", 1)
    edges = [(i, i + 1) for i in range(4)]
    with pytest.raises(domw.InstanceTooLarge, match="packing"):
        oracles.brute_rho(domw.WeightedGraph.from_edges((1,) * 5, edges))
    path = tmp_path / "p5.domw"
    lines = ["domw 1", "kind explicit", "5", *(f"{i} 1" for i in range(5)), "4"]
    path.write_text("\n".join(lines + [f"{u} {v}" for u, v in edges]) + "\n")
    for command in ("oracle", "rho"), ("check",):
        code, out, err = invoke(capsys, *command, str(path))
        assert code == 3 and "packing" in err


def test_gamma_i_enumeration_over_its_node_budget_exits_three(tmp_path, capsys, monkeypatch):
    """Three vertices and no edge: the enumeration visits 4 nodes, one per
    vertex added and the maximal set, and pricing that set visits none, as
    its packing already weighs as much as the greedy seed."""
    path = tmp_path / "edgeless.domw"
    path.write_text("domw 1\nkind explicit\n3\n0 1\n1 2\n2 3\n0\n")
    monkeypatch.setattr(oracles, "NODE_BUDGET", 3)
    code, out, err = invoke(capsys, "oracle", "gammai", str(path))
    assert (code, out) == (3, "")
    assert err == "error: the independent set enumeration exceeded its budget of 3 nodes\n"
    monkeypatch.setattr(oracles, "NODE_BUDGET", 4)
    code, out, _ = invoke(capsys, "oracle", "gammai", str(path))
    assert (code, out) == (0, "value 6\nI 0 1 2\nf 0 1\nf 1 2\nf 2 3\n")


def test_cover_search_over_its_node_budget_exits_three(tmp_path, capsys, monkeypatch):
    # the cover search of this instance visits 23 nodes over two target passes
    _, text, _ = invoke(capsys, "gen", "split", "--seed", "3", "--n-a", "5", "--n-b", "8")
    path = tmp_path / "sp.domw"
    path.write_text(text)
    monkeypatch.setattr(oracles, "NODE_BUDGET", 10)
    code, out, err = invoke(capsys, "solve", str(path))
    assert (code, out) == (3, "")
    assert "budget" in err
    code, _, err = invoke(capsys, "oracle", "gamma", str(path), "--cap", "13")
    assert code == 3 and "budget" in err
    monkeypatch.undo()
    code, out, _ = invoke(capsys, "solve", str(path))
    assert code == 0 and out.startswith("domw-split 1\n")


@pytest.fixture
def replay_dir(tmp_path, monkeypatch):
    """A fresh, empty temp directory for the replay files of one test."""
    path = tmp_path / "replay"
    path.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(path))
    return path


def assert_replays(err: str, instance_path: str, replay_dir: Path) -> None:
    """The last stderr line names a replay file in the temp directory that
    holds the instance text, named by its SHA-256, and parses back to it."""
    text = Path(instance_path).read_text()
    line = err.splitlines()[-1]
    assert line.startswith("replay file: ")
    replay = Path(line[len("replay file: "):])
    digest = hashlib.sha256(text.encode("ascii")).hexdigest()
    assert replay == replay_dir / f"domw-replay-{digest}.domw"
    assert list(replay_dir.iterdir()) == [replay]
    assert replay.read_text() == text
    assert parse_instance(replay.read_text()) == parse_instance(text)


def test_internal_error_exits_two(interval_file, replay_dir, capsys, monkeypatch):
    def broken(_payload):
        raise domw.TheoremViolation("planted failure")

    monkeypatch.setattr(KINDS["interval"], "solve", broken)
    code, out, err = invoke(capsys, "solve", interval_file)
    assert (code, out) == (2, "")
    assert err.startswith("internal error:")
    assert_replays(err, interval_file, replay_dir)


def test_an_internal_error_in_check_exits_two_without_a_replay(
    interval_file, replay_dir, capsys, monkeypatch
):
    """`run` itself turns an internal error into exit 2 for every command
    but `solve`, which catches its own and keeps a replay file."""

    def broken(_payload):
        raise domw.TheoremViolation("planted failure")

    monkeypatch.setattr(KINDS["interval"], "solve", broken)
    code, out, err = invoke(capsys, "check", interval_file)
    assert (code, out) == (2, "")
    assert err.startswith("internal error: planted failure\n")
    assert list(replay_dir.iterdir()) == []


def test_an_lp_failure_exits_two_with_a_replay(interval_file, replay_dir, capsys, monkeypatch):
    def broken(_payload):
        raise domw.LPInternalError("planted failure")

    monkeypatch.setattr(KINDS["interval"], "solve", broken)
    code, out, err = invoke(capsys, "solve", interval_file)
    assert (code, out) == (2, "")
    assert err.startswith("internal error: planted failure\n")
    assert_replays(err, interval_file, replay_dir)


def test_an_unwritable_replay_still_exits_two(interval_file, tmp_path, capsys, monkeypatch):
    def broken(_payload):
        raise domw.TheoremViolation("planted failure")

    monkeypatch.setattr(KINDS["interval"], "solve", broken)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    code, out, err = invoke(capsys, "solve", interval_file)
    assert (code, out) == (2, "")
    assert err.startswith("internal error:")
    assert err.splitlines()[-1].startswith("replay file: not written (")


def test_only_exit_two_leaves_a_replay(interval_file, replay_dir, tmp_path, capsys, monkeypatch):
    assert invoke(capsys, "solve", interval_file)[0] == 0
    junk = tmp_path / "junk.domw"
    junk.write_text("not an instance\n")
    assert invoke(capsys, "solve", str(junk))[0] == 1
    monkeypatch.setattr(oracles, "NODE_BUDGET", 10)
    _, text, _ = invoke(capsys, "gen", "split", "--seed", "3", "--n-a", "5", "--n-b", "8")
    split = tmp_path / "split.domw"
    split.write_text(text)
    code, out, err = invoke(capsys, "solve", str(split))
    assert (code, out) == (3, "")
    assert "replay" not in err
    assert list(replay_dir.iterdir()) == []


def test_a_solve_that_succeeds_loads_no_hashlib(interval_file):
    """The replay file's hash is imported on exit 2 only: hashlib loads
    OpenSSL, which would raise the peak RSS of every solve by megabytes."""
    env = dict(os.environ, PYTHONPATH=str(Path(domw.__file__).parents[1]))
    code = (
        "import sys\nfrom domw.cli import run\n"
        f"assert run(['solve', {interval_file!r}]) == 0\n"
        "print('hashlib' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize(
    "witnesses",
    # every interval, which all meet the long one; an id past the last; a negative id
    [lambda n: range(n), lambda n: [n], lambda n: [-1]],
    ids=["not-dispersed", "past-the-end", "negative"],
)
def test_interval_self_check_failure_exits_two(witnesses, interval_file, replay_dir, capsys, monkeypatch):
    monkeypatch.setattr(
        domw.interval_solver, "extract_dispersed",
        lambda fam, f, g, gtrace: (frozenset(witnesses(fam.n)), None),
    )
    code, out, err = invoke(capsys, "solve", interval_file)
    assert (code, out) == (2, "")
    assert "re-verification" in err
    assert_replays(err, interval_file, replay_dir)


@pytest.mark.parametrize(
    "witnesses",
    # every edge of the star, which all share the center; an id past the last; a negative id
    [lambda edges: list(edges), lambda edges: [len(edges)], lambda edges: [-1]],
    ids=["not-dispersed", "past-the-end", "negative"],
)
def test_tree_self_check_failure_exits_two(witnesses, tmp_path, replay_dir, capsys, monkeypatch):
    _, text, _ = invoke(capsys, "example", "non-tu-star")
    path = tmp_path / "star.domw"
    path.write_text(text)
    monkeypatch.setattr(
        domw.tree_edge_solver, "_peel",
        lambda tb, root, d, e0, edges, *scratch: [(witnesses(edges), list(edges))],
    )
    code, out, err = invoke(capsys, "solve", str(path))
    assert (code, out) == (2, "")
    assert "re-verification" in err
    assert_replays(err, str(path), replay_dir)


def test_malformed_file_exits_one(tmp_path, capsys):
    path = tmp_path / "junk.domw"
    path.write_text("not an instance\n")
    code, _, err = invoke(capsys, "solve", str(path))
    assert code == 1
    assert err != ""


def test_a_tree_edges_file_selecting_no_edge_exits_one(tmp_path, capsys):
    # the file parses; the solve, which skips the parse's checks, refuses it
    path = tmp_path / "none.domw"
    path.write_text("domw 1\nkind tree-edges\n3\n0 1 0\n1 2 0\n")
    code, out, err = invoke(capsys, "solve", str(path))
    assert (code, out) == (1, "")
    assert "empty" in err


def test_missing_file_exits_one(capsys):
    code, _, err = invoke(capsys, "solve", "/nonexistent/path.domw")
    assert code == 1
    assert err != ""


def test_bad_arguments_exit_one(capsys):
    assert run(["oracle", "nonsense", "whatever"]) == 1


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
