import itertools
import random

import numpy as np
import pytest

from zkpcp import rm_locator
from zkpcp.domains import ProductSet, dedup_points, hypercube, sort_points
from zkpcp.field import Field
from zkpcp.oracles import pack_assignment, packed_attainable_set
from zkpcp.rm import CodeView, cd_rm
from zkpcp.rm_locator import (
    check_constraints,
    copy_rows,
    interpolating_set,
    rm_locate,
)


def locator_matches_bruteforce(view, a, pts):
    """Exact equivalence of kernel membership and attainability on all
    (message, answers) assignments; returns the first mismatch if any."""
    out = rm_locate(view, a, pts)
    cube = list(a.points())
    attain = set(packed_attainable_set(view, a, list(pts)).tolist())
    p = view.p
    for combo in itertools.product(range(p), repeat=len(cube) + len(pts)):
        msg = dict(zip(cube, combo[: len(cube)]))
        beta = dict(zip(pts, combo[len(cube) :]))
        want = pack_assignment(list(combo), p) in attain
        got = out.kernel_contains(msg, beta, p)
        if got != want:
            return out, msg, beta, want
    return None


def searched_reference(view, a, pts):
    """The searched locator without the layer shortcut: interpolating set at
    the reduced degree, root test, search, then the full-degree detector."""
    pts = dedup_points(pts)
    dprime = tuple(d - (len(f) - 1) for d, f in zip(view.dv, a.factors))
    dview = CodeView(view.field, view.m, dprime)
    iprime = interpolating_set(dview, pts)
    flagged = [0] * max(view.m, 1)

    def search(prefix, level):
        if level == view.m:
            return [prefix]
        found = []
        for s_val in a.factors[level]:
            grid = ProductSet(tuple((c,) for c in prefix) + ((s_val,),) + a.factors[level + 1 :])
            if check_constraints(dview, iprime, grid):
                flagged[level] += 1
                found += search(prefix + (s_val,), level + 1)
        return found

    r = search((), 0) if check_constraints(dview, iprime, a) else []
    r += [pt for pt in pts if a.contains(pt) and pt not in r]
    basis = cd_rm(view, sort_points(set(pts) | set(r)))
    z = copy_rows(r, pts, view.p)
    if len(basis.z):
        col = {q: j for j, q in enumerate(r)}
        col.update((q, len(r) + j) for j, q in enumerate(pts))
        lifted = np.zeros((len(basis.z), z.shape[1]), dtype=np.int64)
        lifted[:, [col[q] for q in basis.domain]] = basis.z
        z = np.vstack([lifted, z])
    return tuple(r), tuple(pts), z, {"interpolating_set": iprime, "flagged_per_level": flagged}


def count_detector_calls(monkeypatch):
    calls = {"cd_rm": 0, "cd_zero_rm": 0}
    for name in calls:
        real = getattr(rm_locator, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(rm_locator, name, counted)
    return calls


def test_check_constraints_examples():
    f = Field(5)
    view = CodeView(f, 1, (2,))
    s = ProductSet(((0, 1),))
    assert not check_constraints(view, [(2,)], s)
    assert check_constraints(view, [(2,), (3,), (4,)], s)


@pytest.mark.parametrize(
    "s", [ProductSet(((0, 1), (0, 1))), ProductSet(((0, 1, 2),))], ids=["arity", "degree"]
)
def test_check_constraints_refuses_a_grid_it_cannot_test(s):
    view = CodeView(Field(5), 1, (1,))
    for pts in ([], [(3,)]):
        with pytest.raises(ValueError):
            check_constraints(view, pts, s)


def test_check_constraints_empty_query_cube_free():
    f = Field(5)
    for m in (1, 2):
        view = CodeView(f, m, (2,) * m)
        assert not check_constraints(view, [], hypercube((0, 1), m))


def test_check_constraints_monotone_in_grid():
    f = Field(5)
    rng = random.Random(3)
    view = CodeView(f, 1, (3,))
    for _ in range(30):
        pts = [(x,) for x in rng.sample(range(5), rng.randrange(1, 4))]
        small = tuple(sorted(rng.sample(range(5), 2)))
        big = tuple(sorted(set(small) | {rng.randrange(5)}))
        if len(big) == len(small) or 3 < len(big) - 1:
            continue
        s_small, s_big = ProductSet((small,)), ProductSet((big,))
        if check_constraints(view, pts, s_small):
            assert check_constraints(view, pts, s_big)


def test_interpolating_set_unconstrained_identity():
    f = Field(5)
    view = CodeView(f, 1, (2,))
    pts = [(0,), (4,)]
    assert interpolating_set(view, pts) == pts


def test_interpolating_set_four_points_quadratic():
    f = Field(5)
    view = CodeView(f, 1, (2,))
    pts = [(0,), (1,), (2,), (3,)]
    got = interpolating_set(view, pts)
    assert len(got) == 3
    assert set(got) <= set(pts)
    # the result is unconstrained
    assert cd_rm(view, got).is_empty()


def test_interpolating_set_empty():
    f = Field(5)
    assert interpolating_set(CodeView(f, 1, (2,)), []) == []


def test_rm_locate_systematic_point():
    f = Field(5)
    view = CodeView(f, 2, (2, 2))
    out = rm_locate(view, hypercube((0, 1), 2), [(0, 0)])
    assert out.r == ((0, 0),)
    assert out.z.shape[0] == 1
    # answer equals message value: row proportional to (1, -1)
    z = out.z[0]
    assert (z[0] + z[1]) % 5 == 0 and z[0] != 0


def test_rm_locate_single_offcube_point_free():
    f = Field(5)
    view = CodeView(f, 2, (2, 2))
    out = rm_locate(view, hypercube((0, 1), 2), [(2, 2)])
    assert out.r == ()
    assert out.z.shape[0] == 0
    assert locator_matches_bruteforce(view, hypercube((0, 1), 2), [(2, 2)]) is None


def test_rm_locate_univariate_three_evals():
    f = Field(5)
    view = CodeView(f, 1, (2,))
    a = hypercube((0, 1), 1)
    out = rm_locate(view, a, [(2,), (3,), (4,)])
    assert set(out.r) == {(0,), (1,)}
    from zkpcp.linalg import rank

    assert rank(out.z, 5) == 2
    assert locator_matches_bruteforce(view, a, [(2,), (3,), (4,)]) is None


@pytest.mark.parametrize("p", [3, 5])
def test_rm_locate_contract_sweep(p):
    rng = random.Random(100 + p)
    f = Field(p)
    cases = []
    for m in (1, 2):
        for d in (2, 3):
            dv = (d,) * m
            if p ** int(np.prod([x + 1 for x in dv])) > 2_000_000:
                continue
            pool = list(itertools.product(range(p), repeat=m))
            for _ in range(8):
                pts = rng.sample(pool, rng.randrange(1, 4))
                cases.append((m, dv, pts))
    assert cases
    for m, dv, pts in cases:
        view = CodeView(f, m, dv)
        a = hypercube((0, 1), m)
        res = locator_matches_bruteforce(view, a, pts)
        assert res is None, f"mismatch for m={m} dv={dv} I={pts}: {res[1:]}"


def test_rm_locate_locality_and_flag_bounds():
    rng = random.Random(7)
    f = Field(5)
    view = CodeView(f, 2, (2, 2))
    a = hypercube((0, 1), 2)
    pool = list(itertools.product(range(5), repeat=2))
    for _ in range(200):
        pts = rng.sample(pool, rng.randrange(1, 5))
        out = rm_locate(view, a, pts)
        assert len(out.r) <= len(pts)
        iprime = out.meta["interpolating_set"]
        for level_count in out.meta["flagged_per_level"]:
            assert level_count <= len(iprime)


def test_unflagged_product_set_flags_no_level_zero_grid():
    """The searched locator's root test: when the whole product set is
    unconstrained with the interpolating set, so is every level-0 subgrid,
    and the search it skips would have flagged nothing."""
    rng = random.Random(11)
    unflagged = flagged = 0
    for _ in range(150):
        p, m, h = rng.choice([(5, 1, (0, 1)), (5, 2, (0, 1)), (7, 2, (0, 1, 2)), (5, 3, (0, 1))])
        a = hypercube(h, m)
        dprime = tuple(rng.randrange(len(h) - 1, len(h) + 2) for _ in range(m))
        dview = CodeView(Field(p), m, dprime)
        pool = list(itertools.product(range(p), repeat=m))
        pts = rng.sample(pool, rng.randrange(1, min(7, len(pool) + 1)))
        iprime = interpolating_set(dview, pts)
        if check_constraints(dview, iprime, a):
            flagged += 1
            continue
        unflagged += 1
        for s_val in a.factors[0]:
            grid = ProductSet(((s_val,),) + a.factors[1:])
            assert not check_constraints(dview, iprime, grid)
    assert unflagged >= 20 and flagged >= 20


def test_rm_locate_rejects_low_degree():
    f = Field(5)
    view = CodeView(f, 1, (1,))
    with pytest.raises(ValueError):
        rm_locate(view, hypercube((0, 1), 1), [(2,)])


def test_rm_locate_rejects_partial_points():
    f = Field(5)
    view = CodeView(f, 2, (2, 2))
    with pytest.raises(ValueError):
        rm_locate(view, hypercube((0, 1), 2), [(1,)])


def test_rm_locate_arity_zero():
    # Degenerate but used by the sum-code locator: single coordinate, total sum.
    f = Field(5)
    view = CodeView(f, 0, ())
    out = rm_locate(view, ProductSet(()), [()])
    assert out.r == ((),)
    assert out.z.shape[0] == 1


def test_rm_locate_without_queries_depends_on_no_message():
    """An empty query set reads no message position at any arity, 0 included."""
    f = Field(5)
    for m in range(3):
        out = rm_locate(CodeView(f, m, (2,) * m), hypercube((0, 1), m), [])
        assert (out.r, out.queries, out.z.shape) == ((), (), (0, 0))


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("d", [2, 3])
def test_rm_locate_inside_the_product_set_is_systematic(m, d):
    """Every subset of A up to size 4, in two orders: the closed form equals
    the search's output, meta included, and cd_rm finds no constraint."""
    f = Field(5)
    view = CodeView(f, m, (d,) * m)
    a = hypercube((0, 1), m)
    cube = list(a.points())
    for k in range(1, 5):
        for subset in itertools.combinations(cube, k):
            for pts in (list(subset), list(reversed(subset))):
                got = rm_locate(view, a, pts)
                r, queries, z, meta = searched_reference(view, a, pts)
                assert got.r == r == tuple(pts) and got.queries == queries
                assert np.array_equal(got.z, z)
                assert got.meta == meta
                assert cd_rm(view, pts).is_empty()


def test_layer_shortcut_matches_the_searched_reference(monkeypatch):
    """Seeded random layers, on-cube, off-cube and repeated points: rm_locate
    equals the path without the shortcut, and both branches occur."""
    calls = count_detector_calls(monkeypatch)
    rng = random.Random(20)
    shortcut = fallback = 0
    for _ in range(400):
        p, m, d = rng.choice([5, 7]), rng.randrange(1, 4), rng.choice([3, 4])
        a = hypercube((0, 1, 2) if d == 4 and rng.random() < 0.5 else (0, 1), m)
        view = CodeView(Field(p), m, (d,) * m)
        cube = list(a.points())
        pts = []
        for _ in range(rng.randrange(9)):
            pool = rng.choice(["cube", "field", "again"])
            if pool == "cube" or (pool == "again" and not pts):
                pts.append(rng.choice(cube))
            elif pool == "field":
                pts.append(tuple(rng.randrange(p) for _ in range(m)))
            else:
                pts.append(rng.choice(pts))
        before = calls["cd_rm"]
        out = rm_locate(view, a, pts)
        searched = calls["cd_rm"] > before
        r, queries, z, meta = searched_reference(view, a, pts)
        assert (out.r, out.queries, out.meta) == (r, queries, meta)
        assert out.z.shape == z.shape and np.array_equal(out.z, z)
        if not pts or not all(a.contains(pt) for pt in pts):
            fallback += searched
            shortcut += not searched
    assert shortcut >= 40 and fallback >= 40, (shortcut, fallback)


def test_an_unconstrained_off_cube_layer_asks_one_detector_question(monkeypatch):
    view = CodeView(Field(5), 2, (3, 3))
    a = hypercube((0, 1), 2)
    for pts in ([(2, 3), (4, 2)], [(2, 3), (4, 2), (0, 1)], [(3, 3), (3, 3)]):
        calls = count_detector_calls(monkeypatch)
        out = rm_locate(view, a, pts)
        assert calls == {"cd_rm": 0, "cd_zero_rm": 1}
        assert out.r == tuple(pt for pt in dedup_points(pts) if a.contains(pt))
        assert out.meta["interpolating_set"] == dedup_points(pts)
        monkeypatch.undo()
