import gc
import itertools
import random
import time
import weakref
from fractions import Fraction

import numpy as np
import pytest

from zkpcp.audit import (
    AuditError,
    AuditReport,
    BranchStep,
    LinearLaw,
    ScriptStep,
    audit_script,
    branch_tv,
    enumerate_branches,
    parse_script,
    real_law,
    script_battery,
    symbolic_simulator_law,
)
import zkpcp.audit as audit_mod
import zkpcp.pcp as pcp_mod
from zkpcp.domains import rev_point
from zkpcp.encoding import constraint_rows_for
from zkpcp.field import Field
from zkpcp.linalg import AffineSystem, coset_system, rref
from zkpcp.pcp import SimulatorSession, SumcheckParams, ViewState, gather_state_rows
from zkpcp.poly import (
    MultiPoly,
    eval_monomial,
    eval_univariate,
    monomial_exponents,
    univariate_from_roots,
)
from zkpcp.rm import CodeView, cd_rm


def xy_poly(p):
    c = np.zeros((2, 2), dtype=np.int64)
    c[1, 1] = 1
    return MultiPoly(p, c)


PARAMS3 = SumcheckParams(3, 2, 3, (0, 1))
POLY3 = xy_poly(3)
GAMMA3 = 1


def test_branch_tv_disjoint_and_nested():
    p = 3
    off_a = np.array([0, 0])
    rows_a = np.array([[1, 0]])
    off_b = np.array([0, 1])
    rows_b = np.array([[1, 0]])
    assert branch_tv((off_a, rows_a), (off_b, rows_b), [], p) == Fraction(1)
    rows_c = np.zeros((0, 2), dtype=np.int64)
    # point mass vs a 3-element line through it
    tv = branch_tv((off_a, rows_c), (off_a, rows_a), [], p)
    assert tv == Fraction(2, 3)
    assert branch_tv((off_a, rows_a), (off_a, rows_a), [], p) == 0
    # two laws on zero coordinates are the same point mass
    empty = np.zeros(0, dtype=np.int64)
    assert branch_tv((empty, np.zeros((0, 0))), (empty, np.zeros((0, 0))), [], p) == 0


def enumerated_tv(params, f_poly, gamma, script, include_mask_row=True):
    """The audit's total variation by brute force: every answer tuple is
    weighed under the first branch whose conditions it meets."""
    p = params.p
    branches = enumerate_branches(script)
    laws = symbolic_simulator_law(
        params, f_poly.eval, gamma, [steps for _, steps in branches], include_mask_row
    )
    compared = [
        (conds, law.marginal(cols), real_law(params, f_poly, steps))
        for (conds, steps), (law, cols) in zip(branches, laws)
    ]
    cosets = [
        (conds, coset_system(*sim, p), coset_system(*re, p)) for conds, sim, re in compared
    ]
    tv = Fraction(0)
    # every branch resolves one query per script step
    for combo in itertools.product(range(p), repeat=len(branches[0][1])):
        ans = np.array(combo, dtype=np.int64)
        for conds, sim, re in cosets:
            if all((ans[j] == v) == truth for j, v, truth in conds):
                p_sim = Fraction(1, p ** sim.dim()) if sim.contains(ans) else Fraction(0)
                p_re = Fraction(1, p ** re.dim()) if re.contains(ans) else Fraction(0)
                tv += abs(p_sim - p_re)
                break
    return tv / 2


def random_poly(params, seed):
    """A seeded instance polynomial of degree 3 in each variable, with its
    true cube total."""
    p, m = params.p, params.m
    poly = MultiPoly(p, np.random.default_rng(seed).integers(0, p, (4,) * m))
    return poly, sum(poly.eval(pt) for pt in params.cube.points()) % p


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (3, 2), (5, 2), (5, 3)])
def test_audit_tv_equals_enumeration_on_the_battery(p, m):
    """Under the negative control, the closed-form TV of every battery
    script equals the sum over all p^k answer tuples."""
    params = SumcheckParams(p, m, 3, (0, 1))
    poly, gamma = random_poly(params, p * 10 + m)
    flagged = 0
    for script in script_battery(params, 60, m):
        rep = audit_script(params, poly, gamma, script, include_mask_row=False)
        assert rep.tv == enumerated_tv(params, poly, gamma, script, False), script
        flagged += not rep.passed
    assert flagged > 0


def branch_heavy_scripts(params, count, seed):
    """Seeded scripts of 3-6 steps, about half of them branches, some on
    values outside the field that no answer equals."""
    p, m = params.p, params.m
    rng = random.Random(seed)

    def query():
        oracle = rng.choice(params.oracles)
        arity = m if oracle != "sigma" else rng.randrange(m + 1)
        return ScriptStep(oracle, tuple(rng.randrange(p) for _ in range(arity)))

    scripts = []
    for _ in range(count):
        steps = [query()]
        for _ in range(rng.randrange(2, 6)):
            if rng.random() < 0.5:
                at = rng.randrange(len(steps))
                steps.append(BranchStep(at, rng.randrange(-1, p + 1), query(), query()))
            else:
                steps.append(query())
        scripts.append(steps)
    return scripts


def test_audit_tv_equals_enumeration_on_branch_heavy_scripts():
    """Branch conditions, equal and unequal, select the answers each
    branch's share counts: the closed form equals the enumeration under the
    negative control and under a wrong total, on scripts where many
    branches differ."""
    params = SumcheckParams(3, 2, 3, (0, 1))
    poly, gamma = random_poly(params, 7)
    flagged_multi = 0
    for script in branch_heavy_scripts(params, 240, 5):
        for g, mask in ((gamma, False), (gamma + 1, True)):
            try:
                rep = audit_script(params, poly, g, script, include_mask_row=mask)
            except AuditError:
                continue
            assert rep.tv == enumerated_tv(params, poly, g, script, mask), script
            flagged_multi += not rep.passed and rep.branches > 1
    assert flagged_multi >= 30


# a flagged view too long to enumerate: 5^16 answer tuples
LONG_SCRIPT = [
    ScriptStep(oracle, (a,) * 3) for a in (4, 3, 2) for oracle in ("sigma", "t0", "t1", "t2")
] + [ScriptStep("q", pt) for pt in ((4, 4, 4), (3, 3, 3), (2, 2, 2), (4, 3, 2))]


def test_long_flagged_script_audits_exactly_and_fast():
    """A 16-query single-branch script under the negative control reports
    its exact TV in well under a second."""
    params = SumcheckParams(5, 3, 3, (0, 1))
    poly, gamma = random_poly(params, 0)
    start = time.perf_counter()
    rep = audit_script(params, poly, gamma, LONG_SCRIPT, include_mask_row=False)
    assert time.perf_counter() - start < 1
    assert rep.branches == 1 and not rep.support_equal
    assert rep.tv == Fraction(124, 125)
    assert audit_script(params, poly, gamma, LONG_SCRIPT).tv == 0


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


def test_every_two_query_view_audits_to_zero():
    """Every ordered pair of distinct coordinates at p=3, m=2, d=3, H={0,1},
    F = X1·X2 audits to TV = 0. A branch of an adaptive script is a query
    sequence, and equal laws have equal marginals, so this covers every
    adaptive script of at most two queries at these parameters."""
    coords = [
        (o, pt)
        for o in PARAMS3.oracles
        for k in ([0, 1, 2] if o == "sigma" else [2])
        for pt in itertools.product(range(3), repeat=k)
    ]
    audited = 0
    for a, b in itertools.permutations(coords, 2):
        rep = audit_script(PARAMS3, POLY3, GAMMA3, [ScriptStep(*a), ScriptStep(*b)])
        assert rep.tv == 0 and rep.support_equal, (a, b)
        audited += 1
    assert len(coords) == 40 and audited == 1560


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
        assert law.system.contains(x)


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


@pytest.mark.parametrize(
    "p,m,count,seed",
    [
        pytest.param(3, 2, 40, 3, id="3-2"),
        pytest.param(5, 3, 40, 3, id="5-3"),
        # 466 branches; script 264 branches on step 0 to one query either
        # way, so each branch after it repeats another
        pytest.param(5, 3, 300, 5, id="5-3-battery300"),
    ],
)
def test_shared_prefix_law_equals_independent_runs(p, m, count, seed, monkeypatch):
    """Every branch's law is its lone run's, and the shared walk gathers
    rows once per distinct branch prefix whose last step admits
    coordinates."""
    calls = []
    gather = audit_mod.gather_state_rows
    monkeypatch.setattr(
        audit_mod, "gather_state_rows", lambda view: calls.append(view) or gather(view)
    )
    params = SumcheckParams(p, m, 3, (0, 1))
    rng = np.random.default_rng(p)
    poly = MultiPoly(p, rng.integers(0, p, (4,) * m))
    gamma = sum(poly.eval(pt) for pt in params.cube.points()) % p
    scripts = [s for s in script_battery(params, count, seed) if len(enumerate_branches(s)) > 1]
    assert len(scripts) >= 5
    for script in scripts:
        branches = [steps for _, steps in enumerate_branches(script)]
        calls.clear()
        shared = symbolic_simulator_law(params, poly.eval, gamma, branches)
        prefixes = {
            tuple(params.coord(*step) for step in steps[:k])
            for steps in branches
            for k in range(1, len(steps) + 1)
        }
        admitting = 0
        for prefix in prefixes:
            view = ViewState(params, poly.eval, gamma)
            admitting += [view.admit(c) for c in prefix][-1] > 0
        assert len(calls) == admitting
        assert len(shared) == len(branches)
        for steps, (law, cols) in zip(branches, shared):
            [(alone, alone_cols)] = symbolic_simulator_law(params, poly.eval, gamma, [steps])
            assert np.array_equal(law.system.rows, alone.system.rows)
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
    assert np.array_equal(laws[0][0].system.rows, laws[2][0].system.rows)
    assert laws[1][0].n > laws[0][0].n


def test_audit_compares_each_distinct_query_sequence_once(monkeypatch):
    """Script 264 of this battery branches on step 0 to one query either
    way, so its 4 branches hold 2 distinct query sequences: the audit builds
    2 real laws, and reports TV 0 on the true total and 1/5 on a wrong one,
    as a comparison per branch does."""
    calls = []
    real = audit_mod.real_law
    monkeypatch.setattr(audit_mod, "real_law", lambda *args: calls.append(args) or real(*args))
    params = SumcheckParams(5, 3, 3, (0, 1))
    script = script_battery(params, 300, 5)[264]
    poly = MultiPoly(5, np.random.default_rng(5).integers(0, 5, (4,) * 3))
    gamma = sum(poly.eval(pt) for pt in params.cube.points()) % 5
    for claim, tv in ((gamma, Fraction(0)), (gamma + 1, Fraction(1, 5))):
        calls.clear()
        assert audit_script(params, poly, claim, script) == AuditReport(tv, tv == 0, 4)
        assert len(calls) == 2


def test_reused_views_gather_the_rows_of_fresh_ones(monkeypatch):
    """Forks share the located layers. Over a 60-script battery, every
    forked view that reuses them gathers exactly the rows of a fresh view
    replaying the same admissions, and reuse saves locator work."""
    import zkpcp.sigma_rm as sigma_mod

    calls = [0]
    rm_locate = sigma_mod.rm_locate

    def counted(*args):
        calls[0] += 1
        return rm_locate(*args)

    monkeypatch.setattr(sigma_mod, "rm_locate", counted)

    def gather(view):
        before = calls[0]
        rows = gather_state_rows(view)
        return rows, calls[0] - before

    params = SumcheckParams(5, 3, 3, (0, 1))
    rng = np.random.default_rng(5)
    poly = MultiPoly(5, rng.integers(0, 5, (4, 4, 4)))
    gamma = sum(poly.eval(pt) for pt in params.cube.points()) % 5
    spent = {"reused": 0, "fresh": 0}
    for script in script_battery(params, 60, 0):
        root = ViewState(params, poly.eval, gamma)
        for _, steps in enumerate_branches(script):
            view, admitted = root, []
            for step in steps:
                view = view.fork()
                c = view.params.coord(*step)
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
                spent["reused"] += used
                spent["fresh"] += fresh_used
    assert 0 < spent["reused"] < spent["fresh"], spent


def whole_view_rows(view):
    """Every row of the whole view: the composed-locator rows of the proof
    word, every mask table's full detector basis and, unless the view drops
    them, every full-arity proof-word point's mask row. This is what the
    gather emitted at every step before it kept only the rows an admission
    adds."""
    params, n = view.params, len(view.coords)
    sig_pts = sorted(view.points("sigma"), key=lambda q: (len(q), q))
    a_sig, b_sig, _ = constraint_rows_for(view.spec, sig_pts)
    sig_rows = np.zeros((len(a_sig), n), dtype=np.int64)
    sig_rows[:, view.cols("sigma", sig_pts)] = a_sig
    blocks, rhs = [sig_rows], [np.asarray(b_sig, dtype=np.int64)]
    for oracle, dv in params.tables:
        cb = cd_rm(CodeView(params.fld, params.m, dv), sorted(view.points(oracle)))
        rows = np.zeros((len(cb.z), n), dtype=np.int64)
        rows[:, view.cols(oracle, cb.domain)] = cb.z
        blocks.append(rows)
        rhs.append(np.zeros(len(cb.z), dtype=np.int64))
    if view.include_mask_row:
        for pt in view.points("sigma"):
            if len(pt) == params.m:
                row, b = pcp_mod.mask_row(view, pt)
                blocks.append(row[None])
                rhs.append(np.array([b], dtype=np.int64))
    return np.vstack(blocks), np.concatenate(rhs)


class StackedSteps:
    """The rows of every step of one lineage so far, each zero-padded on the
    columns that entered after it, as one reduced system."""

    def __init__(self, p):
        self.system = AffineSystem(np.zeros((0, 0), dtype=np.int64), [], p)

    def add(self, a, b):
        old = self.system
        pad = np.zeros((len(old.rows), a.shape[1] - old.n), dtype=np.int64)
        self.system = AffineSystem(
            np.vstack([np.hstack([old.rows[:, : old.n], pad]), a]),
            np.concatenate([old.rows[:, old.n], b]),
            old.p,
        )

    def matches(self, view) -> bool:
        """Whether the stacked rows have the RREF of the whole view's."""
        whole = AffineSystem(*whole_view_rows(view), view.params.p)
        return self.system.pivots == whole.pivots and np.array_equal(
            self.system.rows, whole.rows
        )


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("include_mask_row", [True, False])
def test_stacked_step_rows_are_the_whole_view_rows(include_mask_row, m):
    """After every step of every branch of a 60-script battery, the rows the
    steps gathered, stacked, reduce to the RREF of the whole view's rows.
    The whole view's rows hold the composed-locator rows on every view, so
    this also checks that the ones the gather leaves out on full-arity
    views are implied by the rest."""
    params = SumcheckParams(5, m, 3, (0, 1))
    rng = np.random.default_rng(8)
    poly = MultiPoly(5, rng.integers(0, 5, (4,) * m))
    gamma = sum(poly.eval(pt) for pt in params.cube.points()) % 5
    checked = 0
    for script in script_battery(params, 60, 0):
        for _, steps in enumerate_branches(script):
            view = ViewState(params, poly.eval, gamma, include_mask_row)
            stack = StackedSteps(params.p)
            for step in steps:
                if view.admit(params.coord(*step)):
                    a, b, _ = gather_state_rows(view)
                    stack.add(a, b)
                    assert stack.matches(view), (script, step)
                    checked += 1
    assert checked > 150


def test_simulator_steps_stack_to_the_whole_view(monkeypatch):
    """In simulator sessions at p=7, m=2, the rows each step gathers, stacked
    over the session, reduce to the RREF of the whole view's rows, and the
    answered values satisfy every row of the whole view. A session that
    meets the open inconsistency stops there, after its rows were checked."""
    params = SumcheckParams(7, 2, 3, (0, 1))
    steps = []
    gather = pcp_mod.gather_state_rows

    def stacked(view):
        a, b, reads = gather(view)
        steps.append((a, b))
        return a, b, reads

    monkeypatch.setattr(pcp_mod, "gather_state_rows", stacked)
    for seed in range(4):
        rng = random.Random(seed)
        poly = MultiPoly(7, Field(7).sample_array(rng, (4, 4)))
        gamma = sum(poly.eval(pt) for pt in params.cube.points()) % 7
        sim = SimulatorSession(params, poly.eval, gamma, rng)
        stack = StackedSteps(7)
        for _ in range(30):
            oracle = rng.choice(params.oracles)
            arity = rng.randrange(3) if oracle == "sigma" else 2
            steps.clear()
            try:
                sim.query(oracle, tuple(rng.randrange(7) for _ in range(arity)))
            except RuntimeError:
                break
            finally:
                for a, b in steps:
                    stack.add(a, b)
                    assert stack.matches(sim.view)
            whole = AffineSystem(*whole_view_rows(sim.view), 7)
            assert whole.contains(sim.values)


def test_composed_locator_runs_only_on_views_with_a_short_prefix(monkeypatch):
    """The proof word's composed locator runs at no step while every Σ point
    in the view has arity m; it runs from the step a shorter prefix enters
    (the empty one included) on every later step, and on every step of a
    view that drops the mask rows."""
    calls = [0]
    rows_for = pcp_mod.constraint_rows_for

    def counted(spec, pts):
        calls[0] += 1
        return rows_for(spec, pts)

    monkeypatch.setattr(pcp_mod, "constraint_rows_for", counted)
    params = SumcheckParams(5, 2, 3, (0, 1))
    full = [("sigma", (1, 2)), ("q", (2, 3)), ("t0", (0, 4)), ("t1", (3, 3)), ("sigma", (4, 0))]
    later = [("q", (1, 1)), ("sigma", (0, 2)), ("t1", (2, 4))]
    for short in [(), (3,)]:
        for include_mask_row in (True, False):
            view = ViewState(params, xy_poly(5).eval, 1, include_mask_row)
            ran = []
            for step in full + [("sigma", short)] + later:
                assert view.admit(params.coord(*step))
                before = calls[0]
                gather_state_rows(view)
                ran.append(calls[0] - before)
            if include_mask_row:
                assert ran == [0] * len(full) + [1] * (1 + len(later))
            else:
                assert ran == [1] * len(ran)


@pytest.mark.parametrize("p,m", [(5, 1), (7, 2), (5, 3)])
def test_simulator_draws_equal_those_of_the_whole_view_gather(
    monkeypatch, p, m
):
    """Seeded simulator sessions on random query streams give the transcripts,
    and turn inconsistent at the queries, that they give when every step
    gathers the whole view's rows, composed-locator rows included."""
    params = SumcheckParams(p, m, 3, (0, 1))

    def session(seed, gather):
        monkeypatch.setattr(pcp_mod, "gather_state_rows", gather)
        rng = random.Random(seed)
        poly = MultiPoly(p, Field(p).sample_array(rng, (4,) * m))
        gamma = sum(poly.eval(pt) for pt in params.cube.points()) % p
        sim = SimulatorSession(params, poly.eval, gamma, rng)
        for _ in range(16):
            oracle = rng.choice(params.oracles)
            arity = rng.randrange(m + 1) if oracle == "sigma" else m
            try:
                sim.query(oracle, tuple(rng.randrange(p) for _ in range(arity)))
            except RuntimeError:
                return sim.transcript, True
        return sim.transcript, False

    answered = 0
    for seed in range(6):
        got = session(seed, gather_state_rows)
        assert got == session(seed, lambda view: (*whole_view_rows(view), ())), seed
        answered += len(got[0])
    assert answered > 40


def test_mask_row_runs_once_per_entering_full_arity_point(monkeypatch):
    """Each full-arity proof-word point gets its mask row once, at the step
    it enters the view, whichever oracle brought it in."""
    calls = []
    mask_row = pcp_mod.mask_row

    def counted(view, pt):
        calls.append(pt)
        return mask_row(view, pt)

    monkeypatch.setattr(pcp_mod, "mask_row", counted)
    params = SumcheckParams(5, 2, 3, (0, 1))
    poly = xy_poly(5)
    rng = random.Random(3)
    sim = SimulatorSession(params, poly.eval, 1, rng)
    for _ in range(40):
        oracle = rng.choice(params.oracles)
        arity = rng.randrange(3) if oracle == "sigma" else 2
        n, entered = len(sim.view.coords), len(calls)
        sim.query(oracle, tuple(rng.randrange(5) for _ in range(arity)))
        assert calls[entered:] == [
            pt for o, pt in sim.view.coords[n:] if o == "sigma" and len(pt) == 2
        ]
    full = [pt for pt in sim.view.points("sigma") if len(pt) == 2]
    assert len(full) > 10 and sorted(calls) == sorted(full)


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
                if view.admit(view.params.coord(*step)):
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
        view.admit(view.params.coord("sigma", (1, 2, 3)))
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
