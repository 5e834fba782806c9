"""Exact zero-knowledge audit: simulated law vs the real proof law.

The simulator's random draws are all uniform-on-affine-fiber, so for a
fixed query sequence its joint output law is uniform on an affine set; this
module drives the simulator's own view state (``pcp.ViewState``: the same
activation rule and the same rows) and accumulates the rows symbolically to
recover that set, builds the real law from the explicit linear map out of
the prover's coefficient space, and compares the two distributions with
exact rational arithmetic. A total-variation distance of zero is a proof of
distribution equality for that script, not a statistical estimate.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .domains import Point
from .linalg import AffineSystem, coset_system, rank, rref
from .pcp import SumcheckParams, ViewState, gather_state_rows
from .poly import MultiPoly
from .rm import CodeView, rm_generator


class AuditError(Exception):
    """The simulator's chained law failed a structural invariant."""


class LinearLaw:
    """Uniform law on the solution set of an accumulated system A x = b.

    Columns are added in step batches, and ``system`` holds the reduced
    system (an immutable ``linalg.AffineSystem``). A step's rows may force
    new columns but must never further constrain old ones (that would break
    the chained-uniformity invariant), which is checked exactly.
    """

    def __init__(self, p: int):
        self.system = AffineSystem(np.zeros((0, 0), dtype=np.int64), [], p)

    @property
    def n(self) -> int:
        return self.system.n

    def add_step(self, n_new: int, a, b):
        """Append ``n_new`` columns and the step's rows A x = b over all the
        columns, checking the chain invariant.

        The prefix law is preserved exactly when the old columns' marginal
        keeps its dimension: rank(A') - rank(A' on the new columns) equals
        the old rank, A' being the old rows stacked on the step's.
        """
        old, n_old = self.system, self.n
        n = n_old + n_new
        pad = np.zeros((len(old.rows), n_new), dtype=np.int64)
        new = AffineSystem(
            np.vstack([np.hstack([old.rows[:, :n_old], pad]), a]),
            np.concatenate([old.rows[:, n_old], b]),
            old.p,
        )
        if not new.consistent:
            raise AuditError("step rows are inconsistent with the prefix law")
        if len(new.pivots) - rank(new.rows[:, n_old:n], old.p) != len(old.pivots):
            raise AuditError("step rows constrain already-sampled coordinates")
        self.system = new

    def fork(self) -> "LinearLaw":
        """A copy for continuing the law along another branch; it shares the
        immutable system until its own next step."""
        return copy.copy(self)

    def marginal(self, cols: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """(offset, direction rows) of the law's projection onto columns."""
        return self.system.solve()[cols], self.system.kernel()[:, cols]


def symbolic_simulator_law(
    params: SumcheckParams,
    f_eval: Callable[[Point], int],
    gamma: int,
    branches: Sequence[Sequence[tuple[str, Point]]],
    include_mask_row: bool = True,
) -> list[tuple[LinearLaw, list[int]]]:
    """Run the simulator's view state without sampling, once per branch.

    ``branches`` holds each branch's resolved steps. Returns, per branch, the
    accumulated law over the view's coordinates plus, per step, the column
    whose value the simulator would have returned. Branches that query the
    same coordinates share one run; every other branch continues from copies
    of the view and law after the prefix it shares with the branch run before
    it. So on branches listed depth-first, as ``enumerate_branches`` lists
    them, every shared prefix runs once.
    """
    # states[k]: (view, law, answered columns) after prev's first k steps
    states = [(ViewState(params, f_eval, gamma, include_mask_row), LinearLaw(params.p), [])]
    prev: tuple = ()
    seqs = [tuple(params.coord(*step) for step in steps) for steps in branches]
    # (law, answered columns) per distinct coordinate sequence: a branch
    # whose arms name one coordinate repeats every branch after it
    runs = dict.fromkeys(seqs)
    for coords in runs:
        k = 0
        while k < min(len(coords), len(prev)) and coords[k] == prev[k]:
            k += 1
        del states[k + 1 :]
        for c in coords[k:]:
            view, law, cols = states[-1]
            view, law = view.fork(), law.fork()
            n_new = view.admit(c)
            if n_new:
                a, b, _ = gather_state_rows(view)
                law.add_step(n_new, a, b)
            states.append((view, law, cols + [view.index[c]]))
        runs[coords], prev = states[-1][1:], coords
    return [runs[coords] for coords in seqs]


def real_law(
    params: SumcheckParams,
    f_poly: MultiPoly,
    steps: Sequence[tuple[str, Point]],
) -> tuple[np.ndarray, np.ndarray]:
    """(offset, direction rows) of the honest answers for a fixed script.

    Answers are affine in the prover's mask coefficients, which are uniform,
    so the law is uniform on offset + row span of the linear map's image.
    The map's rows are code generator rows at full-arity points, over the
    coefficients of each table of ``params.tables`` in turn, each in
    monomial order. A table entry is one generator row at its point. A
    sigma entry at a prefix sums the masked word F + mask over the prefix's
    suffix cube: per point, the generator rows of its ``params.mask_terms``
    with their weights, and for the offset F's generator row times F's
    coefficients.
    """
    p, m = params.p, params.m
    # per table: (step, point, weight) of each generator row in the map
    terms: dict = {name: [] for name, _ in params.tables}
    f_terms = []
    for si, step in enumerate(steps):
        oracle, pt = params.coord(*step)
        if oracle != "sigma":
            terms[oracle].append((si, pt, 1))
            continue
        for tail in params.cube.suffix_points(len(pt)):
            f_terms.append((si, pt + tail, 1))
            for (name, x), w in params.mask_terms(pt + tail):
                terms[name].append((si, x, w))

    def rows(dv, entries) -> np.ndarray:
        """The step rows of one generator: each entry's weighted row added
        into its step's row."""
        owner, pts, weights = zip(*entries) if entries else ((), (), ())
        select = np.zeros((len(steps), len(pts)), dtype=np.int64)
        select[list(owner), range(len(pts))] = weights
        return select @ rm_generator(CodeView(params.fld, m, dv), pts) % p

    l_rows = np.hstack([rows(dv, terms[name]) for name, dv in params.tables])
    off = rows(f_poly.degree_vector, f_terms) @ f_poly.coeffs.reshape(-1) % p
    # image of the coefficient space: row space of the transposed map
    dirs, piv = rref(l_rows.T, p)
    dirs = dirs[: len(piv)]
    return off, dirs


@dataclass(frozen=True)
class ScriptStep:
    oracle: str
    point: Point


@dataclass(frozen=True)
class BranchStep:
    """Answer-dependent choice: compare an earlier answer against a value."""

    step: int
    equals: int
    then: ScriptStep
    else_: ScriptStep


Script = list  # of ScriptStep | BranchStep


def parse_script(obj) -> Script:
    """Script from its JSON form; any malformed script raises ValueError.

    Every query names a known oracle (``sigma``, ``q`` or ``t<i>``) and an
    integer point, and a branch compares the answer of an earlier step.
    """
    if not isinstance(obj, dict) or not isinstance(obj.get("steps"), list):
        raise ValueError("script must be an object with a list of steps")
    steps: Script = []
    for i, raw in enumerate(obj["steps"]):
        if isinstance(raw, dict) and "if" in raw:
            cond = raw["if"]
            if not isinstance(cond, dict) or not all(
                _is_int(cond.get(k)) for k in ("step", "equals")
            ):
                raise ValueError(f"step {i}: a branch needs integer step and equals")
            if not 0 <= cond["step"] < i:
                raise ValueError(f"step {i}: a branch must refer to an earlier step")
            steps.append(
                BranchStep(
                    cond["step"],
                    cond["equals"],
                    _parse_query(raw.get("then"), i),
                    _parse_query(raw.get("else"), i),
                )
            )
        else:
            steps.append(_parse_query(raw, i))
    return steps


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_query(raw, i: int) -> ScriptStep:
    oracle = raw.get("oracle") if isinstance(raw, dict) else None
    if not isinstance(oracle, str) or not (
        oracle in ("sigma", "q") or (oracle[:1] == "t" and oracle[1:].isdigit())
    ):
        raise ValueError(f"step {i}: unknown oracle {oracle!r}")
    pt = raw.get("point")
    if not isinstance(pt, list) or not all(_is_int(c) for c in pt):
        raise ValueError(f"step {i}: the point must be a list of integers")
    return ScriptStep(oracle, tuple(pt))


def enumerate_branches(script: Script):
    """All (conditions, resolved steps) pairs for a script.

    A condition is (slot, value, truth): answer at slot == value iff truth.
    """
    paths = [([], [])]
    for i, step in enumerate(script):
        # each arm: the conditions it adds and its query
        if isinstance(step, ScriptStep):
            arms = [([], step)]
        elif step.step >= i:
            raise ValueError("branch references a later step")
        else:
            arms = [
                ([(step.step, step.equals, truth)], arm)
                for truth, arm in ((True, step.then), (False, step.else_))
            ]
        paths = [
            (conds + new, resolved + [(arm.oracle, arm.point)])
            for conds, resolved in paths
            for new, arm in arms
        ]
    return paths


@dataclass
class AuditReport:
    tv: Fraction
    support_equal: bool
    branches: int

    @property
    def passed(self) -> bool:
        return self.tv == 0


def script_battery(params: SumcheckParams, count: int, seed: int) -> list[Script]:
    """Exactly ``count`` deterministic adaptive scripts (length <= 4) mixing
    all oracle families.

    The first few are fixed sensitive cases, including palindromic off-cube
    points whose mask rows bind every answered coordinate (the scripts that
    expose a simulator with the mask row dropped); the rest are seeded
    random, with equality branches on earlier answers.
    """
    import random as _random

    if count < 0:
        raise ValueError(f"script count must be nonnegative, got {count}")
    p, m = params.p, params.m
    rng = _random.Random(seed)
    off = p - 1  # an off-cube coordinate
    pal = (off,) * m
    scripts: list[Script] = [
        [ScriptStep("sigma", ())],
        [ScriptStep("sigma", pal)]
        + [ScriptStep(name, pal) for name, _ in params.tables[1:]],
        [
            ScriptStep("sigma", (off,) + (0,) * (m - 1)),
            ScriptStep("q", (off,) + (0,) * (m - 1)),
            ScriptStep("q", (0,) * (m - 1) + (off,)),
            ScriptStep("t0", (off,) + (0,) * (m - 1)),
        ],
        # tables first, proof word last: the answer is pinned backward
        # through the pointwise mask identity
        [
            ScriptStep("q", (off,) + (1,) * (m - 1)),
            ScriptStep("q", (1,) * (m - 1) + (off,)),
            ScriptStep("t0", (off,) + (1,) * (m - 1)),
            ScriptStep("sigma", (off,) + (1,) * (m - 1)),
        ],
    ]
    oracles = list(params.oracles)

    def rand_point(full: bool) -> Point:
        ln = m if full else rng.randrange(0, m + 1)
        return tuple(rng.randrange(p) for _ in range(ln))

    def rand_step() -> ScriptStep:
        oracle = rng.choice(oracles)
        return ScriptStep(oracle, rand_point(full=oracle != "sigma"))

    while len(scripts) < count:
        length = rng.randrange(1, 5)
        steps: Script = [rand_step()]
        for _ in range(length - 1):
            if rng.random() < 0.3:
                steps.append(
                    BranchStep(
                        rng.randrange(len(steps)),
                        rng.randrange(p),
                        rand_step(),
                        rand_step(),
                    )
                )
            else:
                steps.append(rand_step())
        scripts.append(steps)
    return scripts[:count]


def audit_script(
    params: SumcheckParams,
    f_poly: MultiPoly,
    gamma: int,
    script: Script,
    include_mask_row: bool = True,
) -> AuditReport:
    """Compare the simulator's exact law against the real law on one script."""
    from .oracles import affine_sets_equal

    p = params.p
    branches = enumerate_branches(script)
    seqs = [tuple(steps) for _, steps in branches]
    laws = dict(
        zip(seqs, symbolic_simulator_law(params, f_poly.eval, gamma, seqs, include_mask_row))
    )
    # per distinct query sequence: the simulated and the real law of its
    # answers, each as (offset, direction rows)
    compared = {
        seq: (law.marginal(cols), real_law(params, f_poly, seq))
        for seq, (law, cols) in laws.items()
    }
    if all(affine_sets_equal(*sim, *re, p) for sim, re in compared.values()):
        return AuditReport(Fraction(0), True, len(branches))
    tv = sum(
        branch_tv(*compared[seq], conds, p) for (conds, _), seq in zip(branches, seqs)
    )
    return AuditReport(tv, False, len(branches))


def branch_tv(sim, real, conds, p: int) -> Fraction:
    """One branch's share of the total variation between the uniform laws on
    two affine sets, each given as (offset, direction rows): with S and R the
    sets and Reg the answers the branch's conditions select, it is
    ½(|S∩Reg|/|S| + |R∩Reg|/|R|) − |S∩R∩Reg| / max(|S|, |R|). A count is p^dim
    of the set's system plus a unit row per equal condition, by
    inclusion-exclusion over the unequal ones. With no conditions the share
    is the whole distance."""
    s, r = coset_system(*sim, p), coset_system(*real, p)
    n = s.n
    # an answer lies in [0, p), so it never equals a value outside that range
    eq = [(j, v) for j, v, truth in conds if truth]
    ne = [(j, v) for j, v, truth in conds if not truth and 0 <= v < p]
    if any(not 0 <= v < p for _, v in eq):
        return Fraction(0)

    def count(rows) -> int:
        """Solutions of the [A | b] rows that lie in Reg."""
        total = 0
        for k in range(len(ne) + 1):
            for drop in combinations(ne, k):
                fixed = eq + list(drop)
                units = np.eye(n + 1, dtype=np.int64)[[j for j, _ in fixed]]
                units[:, n] = [v for _, v in fixed]
                both = np.vstack([rows, units])
                dim = AffineSystem(both[:, :n], both[:, n], p).dim()
                total += 0 if dim is None else (-1) ** k * p**dim
        return total

    size_s, size_r = p ** s.dim(), p ** r.dim()
    share = Fraction(count(s.rows), size_s) + Fraction(count(r.rows), size_r)
    return share / 2 - Fraction(count(np.vstack([s.rows, r.rows])), max(size_s, size_r))
