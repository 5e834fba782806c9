import random
from fractions import Fraction

import numpy as np
import pytest

from zkpcp.audit import (
    AuditError,
    BranchStep,
    LinearLaw,
    ScriptStep,
    audit_script,
    enumerate_branches,
    parse_script,
    real_law,
    script_battery,
    symbolic_simulator_law,
)
from zkpcp.oracles import uniform_law_tv
from zkpcp.pcp import SimulatorSession, SumcheckParams
from zkpcp.poly import MultiPoly


def xy_poly(p):
    c = np.zeros((2, 2), dtype=np.int64)
    c[1, 1] = 1
    return MultiPoly(p, c)


PARAMS3 = SumcheckParams(3, 2, 3, (0, 1))
POLY3 = xy_poly(3)
GAMMA3 = 1


def test_uniform_law_tv_disjoint_and_nested():
    p = 3
    off_a = np.array([0, 0])
    rows_a = np.array([[1, 0]])
    off_b = np.array([0, 1])
    rows_b = np.array([[1, 0]])
    assert uniform_law_tv(off_a, rows_a, off_b, rows_b, p) == Fraction(1)
    rows_c = np.zeros((0, 2), dtype=np.int64)
    # point mass vs a 3-element line through it
    tv = uniform_law_tv(off_a, rows_c, off_a, rows_a, p)
    assert tv == Fraction(2, 3)
    assert uniform_law_tv(off_a, rows_a, off_a, rows_a, p) == 0


def test_parse_script_and_branches():
    obj = {
        "steps": [
            {"oracle": "sigma", "point": [2]},
            {
                "if": {"step": 0, "equals": 1},
                "then": {"oracle": "q", "point": [2, 0]},
                "else": {"oracle": "t1", "point": [0, 2]},
            },
        ]
    }
    script = parse_script(obj)
    assert script[0] == ScriptStep("sigma", (2,))
    branches = enumerate_branches(script)
    assert len(branches) == 2
    conds_true, steps_true = branches[0]
    assert conds_true == [(0, 1, True)]
    assert steps_true[1] == ("q", (2, 0))


def test_branch_forward_reference_rejected():
    script = [
        BranchStep(0, 1, ScriptStep("q", (0, 0)), ScriptStep("q", (1, 1)))
    ]
    with pytest.raises(ValueError):
        enumerate_branches(script)


def test_single_query_scripts_tv_zero():
    for step in [
        ("sigma", ()),
        ("sigma", (2,)),
        ("sigma", (1, 2)),
        ("q", (2, 1)),
        ("t0", (0, 2)),
        ("t1", (2, 2)),
    ]:
        rep = audit_script(PARAMS3, POLY3, GAMMA3, [ScriptStep(*step)])
        assert rep.tv == 0 and rep.support_equal, step


def test_mixed_script_tv_zero():
    script = [
        ScriptStep("sigma", (2,)),
        ScriptStep("q", (2, 0)),
        ScriptStep("sigma", (2, 0)),
    ]
    rep = audit_script(PARAMS3, POLY3, GAMMA3, script)
    assert rep.tv == 0


def test_adaptive_script_tv_zero():
    script = [
        ScriptStep("sigma", (2,)),
        BranchStep(0, 1, ScriptStep("q", (2, 0)), ScriptStep("t1", (1, 2))),
        ScriptStep("sigma", (0,)),
    ]
    rep = audit_script(PARAMS3, POLY3, GAMMA3, script)
    assert rep.tv == 0 and rep.branches == 2


def test_broken_simulator_flagged():
    script = [
        ScriptStep("sigma", (2, 2)),
        ScriptStep("t0", (2, 2)),
        ScriptStep("t1", (2, 2)),
    ]
    ok = audit_script(PARAMS3, POLY3, GAMMA3, script)
    bad = audit_script(PARAMS3, POLY3, GAMMA3, script, include_mask_row=False)
    assert ok.tv == 0
    assert bad.tv > 0 and not bad.support_equal


def test_battery_has_sensitive_scripts_and_mixes_oracles():
    scripts = script_battery(PARAMS3, 20, seed=1)
    assert len(scripts) >= 20
    oracles = set()
    for script in scripts:
        for step in script:
            if isinstance(step, ScriptStep):
                oracles.add(step.oracle)
            else:
                oracles.add(step.then.oracle)
                oracles.add(step.else_.oracle)
    assert {"sigma", "q", "t0", "t1"} <= oracles
    bad_hits = sum(
        audit_script(PARAMS3, POLY3, GAMMA3, s, include_mask_row=False).tv > 0
        for s in scripts[:3]
    )
    assert bad_hits >= 1


def test_linear_law_detects_prefix_violation():
    law = LinearLaw(3)
    law.add_step(1, np.zeros((0, 1), dtype=np.int64), np.zeros(0, dtype=np.int64))
    with pytest.raises(AuditError, match="constrain already-sampled coordinates"):
        law.add_step(1, np.array([[1, 0]]), np.array([0]))  # pins column 0
    with pytest.raises(AuditError, match="inconsistent with the prefix law"):
        law.add_step(1, np.array([[0, 0]]), np.array([1]))
    # a refused step leaves the law as it was; a row that forces only the
    # new column is accepted
    assert law.n == 1
    law.add_step(1, np.array([[1, 1]]), np.array([2]))
    assert law.n == 2


def test_linear_law_marginal_of_free_coords():
    law = LinearLaw(5)
    law.add_step(2, np.array([[1, 4]]), np.array([0]))
    off, dirs = law.marginal([0])
    from zkpcp.linalg import rank

    assert rank(dirs, 5) == 1  # a is free once b absorbs the constraint


def test_real_law_matches_sampled_proofs():
    # the affine-image oracle's support contains every honestly proved answer
    # tuple, and honest answers hit multiple cosets of it
    params = SumcheckParams(5, 2, 3, (0, 1))
    poly = xy_poly(5)
    steps = [("sigma", (3,)), ("q", (3, 2)), ("t0", (2, 3))]
    off, dirs = real_law(params, poly, steps)
    from zkpcp.linalg import kernel_basis

    dual = kernel_basis(dirs, 5)
    from zkpcp.pcp import prove

    import random as _r

    for seed in range(30):
        proof = prove(poly, params, _r.Random(seed))
        ans = np.array(
            [
                proof.sigma_at((3,)),
                proof.q_at((3, 2)),
                proof.t_at(0, (2, 3)),
            ],
            dtype=np.int64,
        )
        if dual.size:
            assert not np.any((dual @ (ans - off)) % 5)


def test_symbolic_law_matches_sampling_simulator():
    params = PARAMS3
    steps = [("sigma", (2, 2)), ("t0", (2, 2)), ("t1", (2, 2))]
    law, cols = symbolic_simulator_law(params, POLY3.eval, GAMMA3, steps)
    off, dirs = law.marginal(cols)
    from zkpcp.linalg import kernel_basis

    dual = kernel_basis(dirs, 3)
    seen = set()
    for seed in range(400):
        sim = SimulatorSession(params, POLY3.eval, GAMMA3, random.Random(seed))
        ans = np.array([sim.query(o, pt) for o, pt in steps], dtype=np.int64)
        seen.add(tuple(int(x) for x in ans))
        if dual.size:
            assert not np.any((dual @ (ans - off)) % 3)
    from zkpcp.linalg import rank

    assert len(seen) == 3 ** rank(dirs, 3)


def test_entangled_script_tables_pin_proof_word():
    # Reading both Q orientations and T0 at a point pins the proof word
    # there through the mask identity; the simulator must return the forced
    # value, and the exact laws must still coincide.
    steps = [("q", (2, 1)), ("q", (1, 2)), ("t0", (2, 1)), ("sigma", (2, 1))]
    rep = audit_script(PARAMS3, POLY3, GAMMA3, [ScriptStep(*s) for s in steps])
    assert rep.tv == 0 and rep.support_equal
    for seed in range(150):
        sim = SimulatorSession(PARAMS3, POLY3.eval, GAMMA3, random.Random(seed))
        ans = [sim.query(o, pt) for o, pt in steps]
        zh2 = (2 * (2 - 1)) % 3
        want = (POLY3.eval((2, 1)) + ans[0] - ans[1] + zh2 * ans[2]) % 3
        assert ans[3] == want


def test_full_t_line_consistent_at_arity_one():
    # At arity one the Q terms of the mask cancel, so a full T-table line
    # must come out as one low-degree polynomial consistent with the proof
    # word; this is the sequence that breaks a simulator which conditions
    # the proof word only on earlier proof-word answers.
    params = SumcheckParams(11, 1, 3, (0, 1))
    poly = MultiPoly(11, np.array([3, 1, 4, 1], dtype=np.int64))
    gamma = sum(poly.eval((a,)) for a in (0, 1)) % 11
    for seed in range(5):
        sim = SimulatorSession(params, poly.eval, gamma, random.Random(seed))
        t0 = [sim.query("t0", (x,)) for x in range(11)]
        diffs = {(t0[x + 1] - t0[x]) % 11 for x in range(10)}
        assert len(diffs) == 1  # degree <= 1
        for x in range(11):
            sig = sim.values[sim.view.index[("sigma", (x,))]]
            assert sig == (poly.eval((x,)) + x * (x - 1) * t0[x]) % 11


def test_simulator_draws_lie_in_the_symbolic_law():
    # The simulator and the audit run one view state: the simulator samples
    # exactly the law's coordinates, and its values satisfy every law row.
    params = SumcheckParams(5, 2, 3, (0, 1))
    poly = xy_poly(5)
    steps = [("sigma", (2,)), ("q", (2, 3)), ("t0", (3, 2)), ("sigma", (3, 2)),
             ("q", (3, 2)), ("sigma", ())]
    law, cols = symbolic_simulator_law(params, poly.eval, 1, steps)
    for seed in range(3):
        sim = SimulatorSession(params, poly.eval, 1, random.Random(seed))
        answers = [sim.query(o, pt) for o, pt in steps]
        assert len(sim.values) == law.n
        assert answers == [sim.values[j] for j in cols]
        x = np.array(sim.values, dtype=np.int64)
        assert not np.any((law.ab[:, :-1] @ x - law.ab[:, -1]) % 5)
