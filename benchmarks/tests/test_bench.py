"""Tests of the benchmark itself: tracer hygiene, layer coverage, inputs."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracer
from workloads import WORKLOADS

BENCH = Path(run.__file__).resolve().parent
CONTRACT = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _declared(kind):
    return {m["name"]: m["unit"] for m in CONTRACT[kind]}


def _bindings():
    """Every zkpcp module-namespace binding plus the traced class methods."""
    snap = {}
    for ns in tracer.zkpcp_namespaces():
        for key, val in vars(ns).items():
            snap[(ns.__name__, key)] = val
    pcp = sys.modules["zkpcp.pcp"]
    classes = [
        pcp.SimulatorSession,
        pcp.ProofOracle,
        sys.modules["zkpcp.audit"].LinearLaw,
        sys.modules["zkpcp.poly"].MultiPoly,
    ]
    for cls in classes:
        for key, val in vars(cls).items():
            snap[(cls.__qualname__, key)] = val
    return snap


def test_tracer_restores_every_binding():
    import importlib

    for t in tracer.TARGETS:
        importlib.import_module(f"zkpcp.{t.module}")
    before = _bindings()
    with tracer.Tracer():
        during = _bindings()
        swapped = {k for k in before if during.get(k) is not before[k]}
        # every module binding of a traced function is swapped, e.g. rref in
        # linalg, poly, oracles, rm_locator and rm's local import target
        rref = before[("zkpcp.linalg", "rref")]
        holders = {k for k, v in before.items() if v is rref}
        assert len(holders) > 1
        assert holders <= swapped
        assert ("SimulatorSession", "query") in swapped
        assert ("MultiPoly", "eval") in swapped
        assert ("ProofOracle", "sigma_at") in swapped
        assert ("zkpcp.encoding", "compose") in swapped
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _traced(name, n_ops, tmp_path):
    line, report = run.execute(name, 3, 0, True, n_ops=n_ops, out_dir=tmp_path)
    assert report["correct"], report["problems"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == _declared("per_layer")
    assert (tmp_path / f"{name}-seed3.spans.tsv.gz").is_file()
    return {k: v["value"] for k, v in line["metrics"].items()}


EXERCISED = {
    "sharp_sat": [
        "pcp.prove", "pcp._grid_eval", "pcp._mask_table", "pcp._sum_tables",
        "pcp.serialize_proof", "pcp.deserialize_proof", "pcp.verify",
        "poly.MultiPoly.eval",
    ],
    "sim_view": [
        "pcp.verify", "pcp.SimulatorSession.query", "pcp.gather_state_rows",
        "pcp.build_table_rows", "pcp.mask_row", "linalg.rref",
        "linalg.kernel_basis", "linalg.image_dual_basis", "linalg.sample_affine",
        "rm.rm_generator", "rm.cd_rm", "rm.cd_zero_rm", "rm_locator.rm_locate",
        "sigma_rm.sigma_rm_locate", "antisym.antisym_locate",
        "encoding.compose.locate", "encoding.constraint_rows_for",
        "poly.MultiPoly.eval",
    ],
    "zk_audit": [
        "audit.audit_script", "audit.symbolic_simulator_law",
        "audit.LinearLaw.add_step", "audit.real_law", "oracles.affine_sets_equal",
        "pcp.gather_state_rows", "pcp.build_table_rows", "pcp.mask_row",
        "linalg.rref", "linalg.kernel_basis", "linalg.image_dual_basis",
        "rm.rm_generator", "rm.cd_rm", "rm.cd_zero_rm", "rm_locator.rm_locate",
        "sigma_rm.sigma_rm_locate", "antisym.antisym_locate",
        "encoding.compose.locate", "encoding.constraint_rows_for",
        "poly.MultiPoly.eval",
    ],
}
AUDIT = [n for n in tracer.SPAN_NAMES if n.startswith("audit.")]
BYPASSED = {
    "sharp_sat": AUDIT,
    "sim_view": ["pcp.prove"] + AUDIT,
    "zk_audit": ["pcp.prove"],
}
N_OPS = {"sharp_sat": 1, "sim_view": 2, "zk_audit": 1}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_layers_exercised_and_bypassed(name, tmp_path):
    m = _traced(name, N_OPS[name], tmp_path)
    for layer in EXERCISED[name]:
        assert m[f"{layer}.calls"] >= 1, layer
    for layer in BYPASSED[name]:
        assert m[f"{layer}.calls"] == 0, layer
        assert m[f"{layer}.self_s"] == 0, layer
    if name == "sharp_sat":
        assert m["pcp.oracle_reads"] == 5674
        assert m["pcp.serialize_proof.bytes"] == 41294556
    assert m["trace.overhead"] > 0


def _inputs(name, seed):
    return WORKLOADS[name].build(run.import_zkpcp(), seed)


def _canonical(inputs):
    """A comparable rendering of workload inputs (polynomials by coefficients)."""

    def flat(x):
        if hasattr(x, "coeffs"):
            return ("poly", x.p, x.coeffs.tolist())
        if hasattr(x, "cnf"):
            return ("cnf", x.cnf.clauses, x.claimed_count, repr(x.params))
        if isinstance(x, (list, tuple)):
            return [flat(y) for y in x]
        if isinstance(x, dict):
            return {k: flat(v) for k, v in x.items()}
        if isinstance(x, np.ndarray):
            return x.tolist()
        return repr(x)

    return flat(inputs)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_deterministic_per_seed(name):
    assert _canonical(_inputs(name, 5)) == _canonical(_inputs(name, 5))
    assert _canonical(_inputs(name, 5)) != _canonical(_inputs(name, 6))


def test_sharp_sat_inputs_are_acceptance_parameters():
    for bundle in _inputs("sharp_sat", 2)["bundles"]:
        p = bundle.params
        assert (p.p, p.m, p.d, p.h) == (101, 3, 3, (0, 1))
        assert bundle.claimed_count == bundle.cnf.model_count()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run(name):
    line, report = run.execute(name, run.DEFAULT_SEED, 0, False, n_ops=N_OPS[name])
    assert report["correct"], report["problems"]
    assert line["attempted"] == N_OPS[name]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == _declared("end_to_end")
    assert bool(report["errors"]) <= bool(line["failed"])
    if name != "sim_view":  # sim_view sessions may crash on a known defect
        assert line["failed"] == 0
    else:
        assert line["failed"] == sum(report["errors"].values())
    for key in ("setup_s", "op_ms_p50", "peak_rss_mb"):
        assert line["metrics"][key]["value"] > 0
    env = report["environment"]
    for key in ("python", "numpy", "nproc", "cpu", "commit", "seed", "samples"):
        assert key in env


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "zk_audit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    for text_line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(text_line)
