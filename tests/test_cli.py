import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

CNF = """c x1 or x2
p cnf 2 1
1 2 0
"""

SCRIPT = {
    "steps": [
        {"oracle": "sigma", "point": [2]},
        {"oracle": "q", "point": [2, 3]},
        {
            "if": {"step": 0, "equals": 1},
            "then": {"oracle": "sigma", "point": [2, 0]},
            "else": {"oracle": "t1", "point": [0, 2]},
        },
    ]
}


def cli_env():
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "zkpcp.cli", *argv],
        capture_output=True,
        text=True,
        env=cli_env(),
    )
    records = [json.loads(line) for line in proc.stdout.splitlines() if line]
    return proc.returncode, records


@pytest.fixture()
def cnf_file(tmp_path):
    path = tmp_path / "ex.cnf"
    path.write_text(CNF)
    return str(path)


@pytest.fixture()
def script_file(tmp_path):
    path = tmp_path / "qs.json"
    path.write_text(json.dumps(SCRIPT))
    return str(path)


def test_prove_verify_roundtrip(cnf_file, tmp_path):
    out = str(tmp_path / "p.bin")
    code, recs = run_cli(
        "prove", "--cnf", cnf_file, "--count", "3", "--seed", "7", "--out", out
    )
    assert code == 0 and recs[-1]["record"] == "prove"
    code, recs = run_cli(
        "verify", "--cnf", cnf_file, "--count", "3", "--proof", out, "--seed", "9"
    )
    assert code == 0
    assert recs[-1]["accepts"] == 1


def test_verify_wrong_count_rejects(cnf_file, tmp_path):
    out = str(tmp_path / "p.bin")
    run_cli("prove", "--cnf", cnf_file, "--count", "3", "--seed", "7", "--out", out)
    code, recs = run_cli(
        "verify",
        "--cnf", cnf_file, "--count", "2", "--proof", out,
        "--seed", "1", "--trials", "5",
    )
    assert code == 1
    assert recs[-1]["accepts"] == 0


def test_prove_refuses_a_count_the_formula_does_not_have(tmp_path):
    # 4 models: an honest proof would claim 4, whatever --count says
    cnf = tmp_path / "four.cnf"
    cnf.write_text("p cnf 3 2\n1 -2 0\n2 3 0\n")
    out = tmp_path / "p.bin"
    code, recs = run_cli("prove", "--cnf", str(cnf), "--count", "3", "--out", str(out))
    assert code == 2
    assert [r["record"] for r in recs] == ["error"]
    assert "model count is not 3" in recs[-1]["message"]
    assert not out.exists()
    code, recs = run_cli("prove", "--cnf", str(cnf), "--count", "4", "--out", str(out))
    assert code == 0 and recs[-1]["claimed_count"] == 4 and out.exists()


def test_prove_and_verify_refuse_a_count_outside_the_cube(tmp_path):
    # 4 models over 3 variables; 101 and -93 are both 4 mod 97
    cnf = tmp_path / "four.cnf"
    cnf.write_text("p cnf 3 2\n1 -2 0\n2 3 0\n")
    good = tmp_path / "good.bin"
    code, _ = run_cli("prove", "--cnf", str(cnf), "--field", "97", "--count", "4",
                      "--out", str(good))
    assert code == 0
    for count in ("101", "-93"):
        for shift in ((), ("--dishonest-shift",)):
            out = tmp_path / "p.bin"
            code, recs = run_cli("prove", "--cnf", str(cnf), "--field", "97",
                                 "--count", count, "--out", str(out), *shift)
            assert code == 2 and [r["record"] for r in recs] == ["error"]
            assert "outside [0, 2^3]" in recs[-1]["message"]
            assert not out.exists()
        code, recs = run_cli("verify", "--cnf", str(cnf), "--field", "97",
                             "--count", count, "--proof", str(good))
        assert code == 2 and [r["record"] for r in recs] == ["error"]


def test_dishonest_shift_rejected_in_most_trials(cnf_file, tmp_path):
    out = str(tmp_path / "cheat.bin")
    code, _ = run_cli(
        "prove", "--cnf", cnf_file, "--count", "2", "--seed", "3",
        "--out", out, "--dishonest-shift",
    )
    assert code == 0
    code, recs = run_cli(
        "verify", "--cnf", cnf_file, "--count", "2", "--proof", out,
        "--seed", "4", "--trials", "20",
    )
    assert code == 1
    assert recs[-1]["accepts"] <= 10


def test_simulate_deterministic_given_seed(script_file):
    args = [
        "simulate", "--script", script_file,
        "--field", "5", "--m", "2", "--degree", "3", "--seed", "11",
    ]
    code1, recs1 = run_cli(*args)
    code2, recs2 = run_cli(*args)
    assert code1 == code2 == 0
    assert recs1 == recs2
    views = [r for r in recs1 if r["record"] == "view"]
    assert len(views) == 3


def test_simulate_ends_with_summary(script_file):
    code, recs = run_cli("simulate", "--script", script_file, "--seed", "11")
    assert code == 0
    assert [r["record"] for r in recs] == ["view"] * 3 + ["simulate"]
    assert recs[-1]["queries"] == 3


def test_simulate_failure_keeps_answered_views(tmp_path):
    """A session that turns inconsistent prints its answered views, then an
    error record, and exits 1. The script is the honest verifier's reads at
    p=5, m=2 on the CLI's seed-0 instance, through the CLI's seed-0 session,
    up to and including the query that fails."""
    from zkpcp.cli import random_instance, trial_rng
    from zkpcp.pcp import SimulatorSession, SumcheckParams, verify

    params = SumcheckParams(5, 2, 3, (0, 1))
    poly, gamma = random_instance(params, 0)
    sim = SimulatorSession(params, poly.eval, gamma, trial_rng(0, 0))
    asked = []

    class Reads:
        def read(self, oracle, pt):
            asked.append({"oracle": oracle, "point": list(pt)})
            return sim.query(oracle, pt)

        def sigma_at(self, pt):
            return self.read("sigma", pt)

        def q_at(self, pt):
            return self.read("q", pt)

        def t_at(self, i, pt):
            return self.read(f"t{i}", pt)

    with pytest.raises(RuntimeError):
        verify(poly.eval, params, Reads(), random.Random(2), gamma=gamma)
    assert len(asked) == 28
    path = tmp_path / "crash.json"
    path.write_text(json.dumps({"steps": asked}))
    code, recs = run_cli(
        "simulate", "--script", str(path), "--field", "5", "--m", "2", "--seed", "0"
    )
    assert code == 1
    assert [r["record"] for r in recs] == ["view"] * 27 + ["error"]
    assert [r["answer"] for r in recs[:-1]] == [v for _, _, v in sim.transcript]
    assert "inconsistent" in recs[-1]["message"]


def test_audit_zk_battery_passes_and_negative_control_fails():
    base = [
        "audit-zk", "--field", "3", "--m", "2", "--degree", "3",
        "--h-set", "0,1", "--battery", "4", "--seed", "2",
    ]
    code, recs = run_cli(*base)
    assert code == 0
    assert all(r["pass"] for r in recs if r["record"] == "audit-script")
    code, recs = run_cli(*base, "--negative-control")
    assert code == 1
    assert any(not r["pass"] for r in recs if r["record"] == "audit-script")


def test_locate_and_detect_records():
    code, recs = run_cli(
        "locate", "--code", "rm", "--field", "5", "--m", "2",
        "--degree", "2", "--h-set", "0,1", "--points", "[[0,0]]",
    )
    assert code == 0
    assert recs[0]["R"] == [[0, 0]]
    code, recs = run_cli(
        "locate", "--code", "antisym", "--field", "5", "--m", "2",
        "--h-set", "0,1", "--points", "[[]]",
    )
    assert code == 0
    assert [[]] == recs[0]["R"] or [] in recs[0]["R"]
    code, recs = run_cli(
        "detect", "--field", "5", "--m", "1", "--degree", "1",
        "--points", "[[0],[1],[2]]",
    )
    assert code == 0
    assert recs[0]["rows"] == [[1, 3, 1]]


def test_malformed_inputs_exit_nonzero(tmp_path):
    bad = tmp_path / "bad.cnf"
    bad.write_text("1 2 0\n")
    code, recs = run_cli(
        "prove", "--cnf", str(bad), "--count", "1", "--out", str(tmp_path / "x.bin")
    )
    assert code == 2
    assert recs[-1]["record"] == "error"


def test_prove_refuses_modulus_above_bound(cnf_file, tmp_path):
    code, recs = run_cli(
        "prove", "--cnf", cnf_file, "--count", "3", "--field", "1099511627791",
        "--out", str(tmp_path / "x.bin"),
    )
    assert code == 2
    assert recs[-1]["record"] == "error"
    assert "bound" in recs[-1]["message"]


QUERY = {"oracle": "sigma", "point": [2]}
BAD_SCRIPTS = {
    "branch-on-later-step": {
        "steps": [{"if": {"step": 3, "equals": 1}, "then": QUERY, "else": QUERY}]
    },
    "negative-step": {
        "steps": [QUERY, {"if": {"step": -1, "equals": 1}, "then": QUERY, "else": QUERY}]
    },
    "missing-point": {"steps": [{"oracle": "sigma"}]},
    # no proof at m=2 has a table t7, nor a coordinate outside [0, 5)
    "t-index-beyond-m": {"steps": [{"oracle": "t7", "point": [0, 1]}]},
    "coordinate-above-field": {"steps": [QUERY, {"oracle": "sigma", "point": [9]}]},
    "negative-coordinate": {"steps": [{"oracle": "sigma", "point": [-1]}]},
}


@pytest.mark.parametrize("command", ["simulate", "audit-zk"])
@pytest.mark.parametrize("case", sorted(BAD_SCRIPTS))
def test_malformed_script_refused(command, case, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(BAD_SCRIPTS[case]))
    code, recs = run_cli(command, "--field", "5", "--m", "2", "--script", str(path))
    assert code == 2
    assert recs[-1]["record"] == "error"


def test_verify_refuses_malformed_proof(cnf_file, tmp_path):
    bad = tmp_path / "short.bin"
    bad.write_bytes(b"ZKP1\x05\x00")
    code, recs = run_cli(
        "verify", "--cnf", cnf_file, "--count", "3", "--proof", str(bad)
    )
    assert code == 2
    assert recs[-1]["record"] == "error"
    assert "truncated" in recs[-1]["message"]


def test_verify_checks_every_entry_of_the_file(cnf_file, tmp_path):
    out = tmp_path / "p.bin"
    run_cli("prove", "--cnf", cnf_file, "--count", "3", "--seed", "7", "--out", str(out))
    bad = tmp_path / "bad.bin"
    bad.write_bytes(out.read_bytes()[:-8] + b"\xff" * 8)
    code, recs = run_cli("verify", "--cnf", cnf_file, "--count", "3", "--proof", str(bad))
    assert code == 2
    assert [r["record"] for r in recs] == ["error"]
    assert "field element" in recs[-1]["message"]


def test_proof_file_is_read_into_an_aligned_frozen_image(tmp_path):
    from zkpcp.cli import read_proof_file
    from zkpcp.pcp import SumcheckParams, deserialize_proof, prove, serialize_proof
    from zkpcp.poly import MultiPoly

    params = SumcheckParams(11, 2, 3, (0, 1))
    poly = MultiPoly(11, np.eye(2, dtype=np.int64)[::-1])
    blob = serialize_proof(prove(poly, params, random.Random(0)))
    path = tmp_path / "p.bin"
    path.write_bytes(blob)
    view = read_proof_file(path)
    assert view.readonly and bytes(view) == bytes(blob)
    back = deserialize_proof(view)
    # decoded in place, every word on an 8-byte boundary
    assert np.shares_memory(back.q, np.frombuffer(view, np.uint8))
    assert all(t.flags.aligned for t in [*back.sigma, back.q, *back.t])


def test_verify_reads_a_proof_from_a_pipe(cnf_file, tmp_path):
    out = tmp_path / "p.bin"
    run_cli("prove", "--cnf", cnf_file, "--count", "3", "--seed", "7", "--out", str(out))
    proc = subprocess.run(
        [sys.executable, "-m", "zkpcp.cli", "verify", "--cnf", cnf_file, "--count", "3",
         "--proof", "/dev/stdin"],
        input=out.read_bytes(),
        capture_output=True,
        env=cli_env(),
    )
    assert proc.returncode == 0, proc.stdout
    assert json.loads(proc.stdout.splitlines()[-1])["accepts"] == 1


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_refuses_fewer_than_one_trial(cnf_file, tmp_path, trials):
    out = str(tmp_path / "p.bin")
    run_cli("prove", "--cnf", cnf_file, "--count", "3", "--seed", "7", "--out", out)
    code, recs = run_cli(
        "verify", "--cnf", cnf_file, "--count", "3", "--proof", out, "--trials", trials
    )
    assert code == 2
    assert [r["record"] for r in recs] == ["error"]
    assert "trials" in recs[-1]["message"]


@pytest.mark.parametrize("battery, scripts", [("1", 1), ("3", 3), ("5", 5)])
def test_audit_zk_battery_runs_exactly_count_scripts(battery, scripts):
    code, recs = run_cli("audit-zk", "--field", "5", "--m", "3", "--battery", battery)
    assert code == 0
    assert sum(r["record"] == "audit-script" for r in recs) == scripts
    assert recs[-1]["record"] == "audit-zk" and recs[-1]["scripts"] == scripts


def test_audit_zk_refuses_an_empty_or_negative_battery():
    code, recs = run_cli("audit-zk", "--field", "5", "--m", "3", "--battery", "0")
    assert code == 2
    assert recs == [{"record": "audit-zk", "error": "no scripts given"}]
    code, recs = run_cli("audit-zk", "--field", "5", "--m", "3", "--battery", "-2")
    assert code == 2
    assert [r["record"] for r in recs] == ["error"]
    assert "nonnegative" in recs[-1]["message"]


# each point set, or summation set, names a coordinate outside [0, p); the
# parsed point would reduce mod p onto another point while keeping its raw
# label, and the locators would search a product set outside the field
OUT_OF_FIELD = {
    "detect-above": ("detect", "--field", "5", "--points", "[[0,4],[0,9]]"),
    "sigma-rm-above": ("locate", "--code", "sigma-rm", "--points", "[[7],[2]]"),
    "rm-negative": ("locate", "--code", "rm", "--points", "[[-1,0]]"),
    "antisym-above": ("locate", "--code", "antisym", "--field", "5", "--points", "[[5]]"),
    "rm-h-set-above": ("locate", "--code", "rm", "--field", "5", "--h-set=0,7", "--points", "[[1,0]]"),
    "sigma-rm-h-set-at-p": ("locate", "--code", "sigma-rm", "--field", "5", "--h-set=5", "--points", "[[1]]"),
    "antisym-h-set-negative": ("locate", "--code", "antisym", "--field", "5", "--h-set=-1,0", "--points", "[[1]]"),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_FIELD))
def test_locate_and_detect_refuse_points_outside_the_field(case):
    code, recs = run_cli(*OUT_OF_FIELD[case])
    assert code == 2
    assert [r["record"] for r in recs] == ["error"]
    assert "outside [0, 5)" in recs[-1]["message"]


# each coordinate is a JSON value that int() would turn into a field element
NOT_INTEGERS = {
    "float": ("detect", "--field", "5", "--m", "2", "--points", "[[1.5,0],[0,2]]"),
    "integral-float": ("detect", "--field", "5", "--m", "2", "--points", "[[1.0,0]]"),
    "bool": ("detect", "--field", "5", "--m", "2", "--points", "[[true,2]]"),
    "string": ("locate", "--code", "rm", "--field", "5", "--points", '[["1",0]]'),
    "antisym-float": ("locate", "--code", "antisym", "--field", "5", "--points", "[[0.5]]"),
}


@pytest.mark.parametrize("case", sorted(NOT_INTEGERS))
def test_locate_and_detect_refuse_coordinates_that_are_not_integers(case):
    code, recs = run_cli(*NOT_INTEGERS[case])
    assert code == 2
    assert [r["record"] for r in recs] == ["error"]
    assert "not an integer" in recs[-1]["message"]


def test_locate_refuses_points_that_are_not_lists():
    code, recs = run_cli("locate", "--code", "rm", "--points", "[5]")
    assert code == 2
    assert recs == [{"record": "error", "message": "points must be a JSON list of coordinate lists"}]


UNREAD = {
    "prove-m": ("prove", "--m", "2"),
    "prove-degree": ("prove", "--degree", "3"),
    "prove-h-set": ("prove", "--h-set", "0,1"),
    "prove-cap": ("prove", "--cap", "10"),
    "verify-m": ("verify", "--m", "2"),
    "verify-degree": ("verify", "--degree", "3"),
    "verify-h-set": ("verify", "--h-set", "0,1"),
    "audit-zk-cap": ("audit-zk", "--field", "5", "--m", "3", "--battery", "1", "--cap", "10"),
    "locate-seed": ("locate", "--code", "rm", "--points", "[[0,2]]", "--seed", "1"),
    "detect-h-set": ("detect", "--points", "[[0,2]]", "--h-set", "0,1"),
    "detect-seed": ("detect", "--points", "[[0,2]]", "--seed", "1"),
}


@pytest.mark.parametrize("case", sorted(UNREAD))
def test_commands_refuse_options_they_do_not_read(case, cnf_file, tmp_path):
    """An option a command would parse and then ignore is not registered:
    argparse refuses it with exit 2 before the command runs."""
    out = tmp_path / "x.bin"
    command, *rest = UNREAD[case]
    if command == "prove":
        rest += ["--cnf", cnf_file, "--count", "3", "--out", str(out)]
    elif command == "verify":
        run_cli("prove", "--cnf", cnf_file, "--count", "3", "--out", str(out))
        rest += ["--cnf", cnf_file, "--count", "3", "--proof", str(out)]
    code, recs = run_cli(command, *rest)
    assert code == 2 and recs == []
    assert out.exists() == (command == "verify")


@pytest.mark.parametrize("command", ["simulate", "audit-zk"])
def test_one_degree_commands_refuse_unequal_degree_vectors(command, script_file):
    """simulate and audit-zk use one degree d in every variable: a vector of
    equal bounds means d, and unequal ones are refused, not cut to the first."""
    args = [command, "--script", script_file, "--field", "5", "--m", "2", "--seed", "4"]
    code, recs = run_cli(*args, "--degree", "3,9")
    assert code == 2
    assert [r["record"] for r in recs] == ["error"]
    assert "equal" in recs[-1]["message"]
    code, recs = run_cli(*args, "--degree", "3,3")
    assert code == 0 and recs == run_cli(*args, "--degree", "3")[1]
    assert (recs[-1]["d"] == 3) if command == "simulate" else (recs[-1]["failures"] == 0)


@pytest.mark.parametrize("command", ["simulate", "audit-zk"])
def test_simulator_commands_refuse_zero_variables(command, script_file):
    """A proof word of arity 0 has no view to simulate: the simulator's view
    refuses m < 1 with an error record and exit 2, not a traceback."""
    code, recs = run_cli(command, "--script", script_file, "--m", "0")
    assert code == 2
    assert [r["record"] for r in recs] == ["error"]
    assert "m >= 1" in recs[0]["message"]


def test_a_zero_variable_formula_proves_and_verifies(tmp_path):
    """The empty formula has one model, the empty assignment; its proof holds
    Q at the one point of F^0 and has no line to test."""
    cnf = tmp_path / "empty.cnf"
    cnf.write_text("p cnf 0 0\n")
    out = tmp_path / "empty.proof"
    code, recs = run_cli("prove", "--cnf", str(cnf), "--count", "1", "--out", str(out))
    assert code == 0 and (recs[0]["m"], recs[0]["p"]) == (0, 5)
    code, recs = run_cli(
        "verify", "--cnf", str(cnf), "--count", "1", "--proof", str(out), "--trials", "3"
    )
    assert code == 0 and recs[-1]["accepts"] == 3


@pytest.mark.parametrize("command", ["simulate", "audit-zk"])
@pytest.mark.parametrize(
    "given", [("--m", "5"), ("--degree", "3,9"), ("--h-set", "0,1,2"),
              ("--m", "5", "--degree", "3,9", "--h-set", "0,1,2")]
)
def test_cnf_commands_refuse_the_options_the_formula_fixes(command, given, cnf_file, script_file):
    """With --cnf the formula fixes m, d and H: --m, --degree and --h-set are
    refused with an error record and exit 2, not parsed and dropped."""
    args = [command, "--cnf", cnf_file, "--count", "3", "--field", "61", "--script", script_file]
    code, recs = run_cli(*args, *given)
    assert code == 2
    assert [r["record"] for r in recs] == ["error"]
    assert "--cnf" in recs[0]["message"]
    code, recs = run_cli(*args)
    assert code == 0
    if command == "simulate":
        assert (recs[-1]["m"], recs[-1]["d"]) == (2, 3)


def test_audit_zk_checks_the_dimension_before_building_an_instance(monkeypatch, capsys):
    """At p=5, m=12 the masks have 4^12 + 12 * 4^11 * 2 > 2^24 coefficients:
    the command refuses them before it samples the instance's (d + 1)^m."""
    from zkpcp import cli

    def refused(*args):
        raise AssertionError("an instance was built")

    monkeypatch.setattr(cli, "random_instance", refused)
    assert cli.main(["audit-zk", "--field", "5", "--m", "12", "--battery", "1"]) == 2
    recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    dim = 4**12 + 12 * 4**11 * 2
    assert recs == [
        {"record": "audit-zk", "error": f"coefficient dimension {dim} exceeds cap {1 << 24}"}
    ]
