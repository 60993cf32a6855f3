"""End-to-end tests for the command line interface."""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

import domw
from domw import DominationFunction, SplitResult, oracles, write_split_result
from domw.cli import run
from domw.instances_io import KINDS


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
    fake = SplitResult(6, DominationFunction(values), frozenset(witness), 6)
    block.write_text(write_split_result(fake))
    code, out, _ = invoke(capsys, "verify", str(path), str(block))
    assert (code, out) == (1, failing + "\n")


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
    fake = SplitResult(6, DominationFunction(values), frozenset(witness), 6)
    monkeypatch.setattr(KINDS["split"], "solve", lambda inst: fake)
    code, out, _ = invoke(capsys, "check", str(path))
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [failing]


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


def test_oversized_instance_exits_three(tmp_path, capsys):
    _, text, _ = invoke(capsys, "gen", "interval", "--seed", "1", "--n", "12")
    path = tmp_path / "big.domw"
    path.write_text(text)
    code, _, err = invoke(capsys, "oracle", "gamma", str(path))
    assert code == 3
    code, _, _ = invoke(capsys, "oracle", "gamma", str(path), "--cap", "12")
    assert code == 0


def test_cover_search_over_its_node_budget_exits_three(tmp_path, capsys, monkeypatch):
    # the cover search of this instance visits 53 nodes
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


def test_malformed_file_exits_one(tmp_path, capsys):
    path = tmp_path / "junk.domw"
    path.write_text("not an instance\n")
    code, _, err = invoke(capsys, "solve", str(path))
    assert code == 1
    assert err != ""


def test_missing_file_exits_one(capsys):
    code, _, err = invoke(capsys, "solve", "/nonexistent/path.domw")
    assert code == 1
    assert err != ""


def test_bad_arguments_exit_one(capsys):
    assert run(["oracle", "nonsense", "whatever"]) == 1


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
