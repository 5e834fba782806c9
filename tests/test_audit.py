import gc
import random
import weakref
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
import zkpcp.audit as audit_mod
from zkpcp.domains import rev_point
from zkpcp.linalg import rref
from zkpcp.oracles import uniform_law_tv
from zkpcp.pcp import SimulatorSession, SumcheckParams, ViewState, gather_state_rows
from zkpcp.poly import (
    MultiPoly,
    eval_monomial,
    eval_univariate,
    monomial_exponents,
    univariate_from_roots,
)


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


def test_battery_returns_exactly_count_scripts_fixed_first():
    full = script_battery(PARAMS3, 20, seed=1)
    for count in range(21):
        assert script_battery(PARAMS3, count, seed=1) == full[:count]
    with pytest.raises(ValueError):
        script_battery(PARAMS3, -1, seed=1)


def test_battery_has_sensitive_scripts_and_mixes_oracles():
    scripts = script_battery(PARAMS3, 20, seed=1)
    assert len(scripts) == 20
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
    [(law, cols)] = symbolic_simulator_law(params, POLY3.eval, GAMMA3, [steps])
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
    [(law, cols)] = symbolic_simulator_law(params, poly.eval, 1, [steps])
    for seed in range(3):
        sim = SimulatorSession(params, poly.eval, 1, random.Random(seed))
        answers = [sim.query(o, pt) for o, pt in steps]
        assert len(sim.values) == law.n
        assert answers == [sim.values[j] for j in cols]
        x = np.array(sim.values, dtype=np.int64)
        assert not np.any((law.ab[:, :-1] @ x - law.ab[:, -1]) % 5)


def per_entry_real_law(params, f_poly, steps):
    """The real law built one monomial at a time with ``eval_monomial``;
    the reference for ``real_law``'s generator rows."""
    p = params.p
    coords = [("Q", e) for e in monomial_exponents((params.d,) * params.m)]
    for i in range(params.m):
        coords.extend(("T", i, e) for e in monomial_exponents(params.t_degree_vector(i)))
    cidx = {c: j for j, c in enumerate(coords)}
    zh = univariate_from_roots(params.h, p)
    l_rows = np.zeros((len(steps), len(coords)), dtype=np.int64)
    off = np.zeros(len(steps), dtype=np.int64)
    for si, (oracle, pt) in enumerate(steps):
        pt = tuple(int(c) for c in pt)
        if oracle == "sigma":
            tails = list(params.cube.suffix_points(len(pt)))
            off[si] = sum(f_poly.eval(pt + tail) for tail in tails) % p
            for e in monomial_exponents((params.d,) * params.m):
                w = sum(
                    eval_monomial(e, pt + t, p) - eval_monomial(e, rev_point(pt + t), p)
                    for t in tails
                )
                l_rows[si, cidx[("Q", e)]] = w % p
            for i in range(params.m):
                for e in monomial_exponents(params.t_degree_vector(i)):
                    w = sum(
                        eval_univariate(zh, (pt + t)[i], p) * eval_monomial(e, pt + t, p)
                        for t in tails
                    )
                    l_rows[si, cidx[("T", i, e)]] = w % p
        elif oracle == "q":
            for e in monomial_exponents((params.d,) * params.m):
                l_rows[si, cidx[("Q", e)]] = eval_monomial(e, pt, p)
        else:
            i = int(oracle[1:])
            for e in monomial_exponents(params.t_degree_vector(i)):
                l_rows[si, cidx[("T", i, e)]] = eval_monomial(e, pt, p)
    dirs, piv = rref(l_rows.T, p)
    return off, dirs[: len(piv)]


@pytest.mark.parametrize("p,m", [(5, 2), (5, 3), (7, 2)])
def test_real_law_equals_per_entry_reference(p, m):
    rng = np.random.default_rng(p * 10 + m)
    params = SumcheckParams(p, m, 3, (0, 1))
    poly = MultiPoly(p, rng.integers(0, p, (4,) * m))
    oracles = ["q"] + [f"t{i}" for i in range(m)]
    for _ in range(8):
        steps = [("sigma", tuple(int(x) for x in rng.integers(0, p, k))) for k in range(m + 1)]
        steps += [(o, tuple(int(x) for x in rng.integers(0, p, m))) for o in oracles]
        order = rng.permutation(len(steps))
        steps = [steps[j] for j in order]
        off, dirs = real_law(params, poly, steps)
        want_off, want_dirs = per_entry_real_law(params, poly, steps)
        assert np.array_equal(off, want_off)
        assert np.array_equal(dirs, want_dirs)
    assert real_law(params, poly, [])[0].shape == (0,)
    with pytest.raises(ValueError, match="unknown oracle"):
        real_law(params, poly, [(f"t{m}", (0,) * m)])


@pytest.mark.parametrize("p,m", [(3, 2), (5, 3)])
def test_shared_prefix_law_equals_independent_runs(p, m):
    params = SumcheckParams(p, m, 3, (0, 1))
    rng = np.random.default_rng(p)
    poly = MultiPoly(p, rng.integers(0, p, (4,) * m))
    gamma = sum(poly.eval(pt) for pt in params.cube.points()) % p
    scripts = [s for s in script_battery(params, 40, 3) if len(enumerate_branches(s)) > 1]
    assert len(scripts) >= 5
    for script in scripts:
        branches = [steps for _, steps in enumerate_branches(script)]
        shared = symbolic_simulator_law(params, poly.eval, gamma, branches)
        assert len(shared) == len(branches)
        for steps, (law, cols) in zip(branches, shared):
            [(alone, alone_cols)] = symbolic_simulator_law(params, poly.eval, gamma, [steps])
            assert np.array_equal(law.ab, alone.ab)
            assert cols == alone_cols


def test_shared_prefix_is_built_once(monkeypatch):
    calls = []
    gather = audit_mod.gather_state_rows

    def counting(view):
        calls.append(tuple(view.coords))
        return gather(view)

    monkeypatch.setattr(audit_mod, "gather_state_rows", counting)
    params = SumcheckParams(5, 2, 3, (0, 1))
    poly = xy_poly(5)
    prefix = [("sigma", (2,)), ("q", (2, 3))]
    branches = [prefix + [("t0", (3, 2))], prefix + [("sigma", (4, 4))], prefix + [("q", (2, 3))]]
    laws = symbolic_simulator_law(params, poly.eval, 1, branches)
    # two prefix steps once, then one step for each branch that adds
    # coordinates (the third re-reads a coordinate already in the view)
    assert len(calls) == 4
    assert len(set(calls)) == 4
    assert [cols[:2] for _, cols in laws] == [laws[0][1][:2]] * 3
    assert laws[2][1][2] == laws[2][1][1]
    # a branch that is a prefix of another, and a repeated branch
    calls.clear()
    branches = [prefix, prefix + [("t0", (3, 2))], prefix]
    laws = symbolic_simulator_law(params, poly.eval, 1, branches)
    assert len(calls) == 3
    assert np.array_equal(laws[0][0].ab, laws[2][0].ab)
    assert laws[1][0].n > laws[0][0].n


def test_reused_views_gather_the_rows_of_fresh_ones(monkeypatch):
    """Forks share the located layers and the table bases. Over a 60-script
    battery, every forked view that reuses them gathers exactly the rows of
    a fresh view replaying the same admissions, and reuse saves work."""
    import zkpcp.pcp as pcp_mod
    import zkpcp.sigma_rm as sigma_mod

    calls = {"rm_locate": 0, "cd_rm": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(sigma_mod, "rm_locate", counted("rm_locate", sigma_mod.rm_locate))
    monkeypatch.setattr(pcp_mod, "cd_rm", counted("cd_rm", pcp_mod.cd_rm))

    def gather(view):
        before = dict(calls)
        rows = gather_state_rows(view)
        return rows, {k: calls[k] - before[k] for k in calls}

    params = SumcheckParams(5, 3, 3, (0, 1))
    rng = np.random.default_rng(5)
    poly = MultiPoly(5, rng.integers(0, 5, (4, 4, 4)))
    gamma = sum(poly.eval(pt) for pt in params.cube.points()) % 5
    spent = {"reused": {"rm_locate": 0, "cd_rm": 0}, "fresh": {"rm_locate": 0, "cd_rm": 0}}
    for script in script_battery(params, 60, 0):
        root = ViewState(params, poly.eval, gamma)
        for _, steps in enumerate_branches(script):
            view, admitted = root, []
            for step in steps:
                view = view.fork()
                c = view.coord(*step)
                if not view.admit(c):
                    continue
                admitted.append(c)
                fresh = ViewState(params, poly.eval, gamma)
                for e in admitted:
                    fresh.admit(e)
                assert fresh.coords == view.coords
                (a, b, reads), used = gather(view)
                (fa, fb, freads), fresh_used = gather(fresh)
                assert np.array_equal(a, fa) and np.array_equal(b, fb)
                assert reads == freads
                for k in calls:
                    spent["reused"][k] += used[k]
                    spent["fresh"][k] += fresh_used[k]
            assert view.table_bases is root.table_bases
    for k in calls:
        assert 0 < spent["reused"][k] < spent["fresh"][k], (k, spent)


def test_view_evaluates_f_once_per_point():
    """A view and its forks share one memo of F: every point is evaluated at
    most once per script, and a new view starts with nothing evaluated."""
    params = SumcheckParams(5, 3, 3, (0, 1))
    rng = np.random.default_rng(6)
    poly = MultiPoly(5, rng.integers(0, 5, (4, 4, 4)))
    gamma = sum(poly.eval(pt) for pt in params.cube.points()) % 5
    evaluated = []

    def f_eval(pt):
        evaluated.append(pt)
        return poly.eval(pt)

    total = 0
    for script in script_battery(params, 20, 0):
        evaluated.clear()
        root = ViewState(params, f_eval, gamma)
        assert root.f_vals == {}
        for _, steps in enumerate_branches(script):
            view = root
            for step in steps:
                view = view.fork()
                assert view.f_vals is root.f_vals
                if view.admit(view.coord(*step)):
                    gather_state_rows(view)
        assert len(evaluated) == len(set(evaluated))
        assert root.f_vals == {pt: poly.eval(pt) for pt in evaluated}
        total += len(evaluated)
    assert total > 0
    # the memo holds no reference back to its view, so a finished view is
    # freed by reference counting, without waiting for the cycle collector
    gc.disable()
    try:
        view = ViewState(params, f_eval, gamma)
        view.admit(view.coord("sigma", (1, 2, 3)))
        gather_state_rows(view)
        ref = weakref.ref(view)
        del view
        assert ref() is None
    finally:
        gc.enable()
    # each session evaluates the cube once, in its own view
    for _ in range(2):
        evaluated.clear()
        session = SimulatorSession(params, f_eval, gamma, random.Random(0))
        assert sorted(evaluated) == sorted(params.cube.points())
        session.query("sigma", (2,))
        assert len(evaluated) == len(set(evaluated))
