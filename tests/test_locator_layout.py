"""The one column layout every locator shares, pinned over a seeded sweep.

A locator returns (R, I, Z) with Z = [Z_R | Z_I]: the message positions R,
then its queries I deduplicated in input order. The sweep covers the three
plain locators, the composed proof-word locator, ``constraint_rows_for`` and
both compositions with the identity encoding; its sha256 over (R, tagged
columns, Z) was recorded before the layout was made implicit.
"""
import dataclasses
import hashlib
import random

import numpy as np
import pytest

from zkpcp.antisym import antisym_locate
from zkpcp.domains import dedup_points, hypercube
from zkpcp.encoding import (
    antisym_spec,
    compose,
    constraint_rows_for,
    enc_pcp_spec,
    identity_spec,
)
from zkpcp.field import Field
from zkpcp.poly import MultiPoly
from zkpcp.rm import CodeView
from zkpcp.rm_locator import LocatorOutput, rm_locate
from zkpcp.sigma_rm import sigma_rm_locate

PARAMS = ((5, 2, 3), (7, 2, 3), (5, 3, 3), (7, 3, 4))
H = (0, 1)
PER_KIND = 30
SWEEP_SHA256 = "721894e7d7ec6e5833d43ac5b44671e9b8d6eb17b3a988a6c6ef31e5508454ad"


def rand_points(rng, m, p, full, lo=1, hi=5, dup=True):
    """lo..hi random points with coordinates below p (full arity, or any
    arity up to m), sometimes with one repeated."""
    pts = []
    for _ in range(rng.randrange(lo, hi + 1)):
        k = m if full else rng.randrange(m + 1)
        pts.append(tuple(rng.randrange(p) for _ in range(k)))
    if dup and pts and rng.random() < 0.3:
        pts.append(rng.choice(pts))
    return pts


def line_points(rng, m, p):
    """Points along one axis line, which the code constrains past d + 1,
    plus a few random ones."""
    base = [rng.randrange(p) for _ in range(m)]
    axis = rng.randrange(m)
    pts = []
    for x in rng.sample(range(p), rng.randrange(2, p + 1)):
        pt = list(base)
        pt[axis] = x
        pts.append(tuple(pt))
    return pts + rand_points(rng, m, p, True, lo=0, hi=2)


def sweep_cases():
    """(key, locator, args) triples; a None locator means constraint_rows_for
    on the composed spec at distinct points."""
    for p, m, d in PARAMS:
        rng = random.Random(f"sweep:{p}:{m}:{d}")
        fld = Field(p)
        a = hypercube(H, m)
        view = CodeView(fld, m, (d,) * m)
        poly = MultiPoly(p, fld.sample_array(rng, (d + 1,) * m))
        gamma = sum(poly.eval(pt) for pt in a.points()) % p
        msg = {pt: rng.randrange(p) for pt in a.points()}
        msg[()] = sum(msg.values()) % p
        pcp = enc_pcp_spec(fld, m, d, H, poly.eval, gamma)
        anti = antisym_spec(fld, a, msg.__getitem__)
        ident = identity_spec(fld)
        composed = {
            "idento_antisym": compose(anti, ident),
            "antisym_o_ident": compose(ident, anti),
        }
        for i in range(PER_KIND):
            yield (p, m, d, "rm", i), rm_locate, (view, a, line_points(rng, m, p))
            yield (p, m, d, "rm-sys", i), rm_locate, (view, a, rand_points(rng, m, 2, True))
            yield (p, m, d, "sigma", i), sigma_rm_locate, (
                view, a, rand_points(rng, m, p, False) + line_points(rng, m, p)[:3],
            )
            yield (p, m, d, "antisym", i), antisym_locate, (fld, a, rand_points(rng, m, 2, False))
            yield (p, m, d, "pcp", i), pcp.locator, (rand_points(rng, m, p, False),)
            yield (p, m, d, "rows", i), None, (pcp, rand_points(rng, m, p, False, dup=False))
            for name, spec in composed.items():
                yield (p, m, d, name, i), spec.locator, (rand_points(rng, m, 2, False),)


def sweep_digest() -> tuple[int, str]:
    h = hashlib.sha256()
    n = 0
    for key, fn, args in sweep_cases():
        h.update(repr((key, args[-1])).encode())
        if fn is None:
            a_mat, b_vec, reads = constraint_rows_for(args[0], list(dict.fromkeys(args[1])))
            h.update(repr(reads).encode())
            parts = (a_mat, b_vec[None, :])
        else:
            out = fn(*args)
            h.update(repr((out.r, out.cols)).encode())
            parts = (out.z,)
        for arr in parts:
            arr = np.asarray(arr, dtype=np.int64)
            h.update(repr(arr.shape).encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        n += 1
    return n, h.hexdigest()


def test_locator_sweep_is_pinned():
    assert sweep_digest() == (960, SWEEP_SHA256)


def test_every_locator_lays_out_r_then_its_deduplicated_queries():
    for key, fn, args in sweep_cases():
        if fn is None:
            continue
        out = fn(*args)
        queries = tuple(dedup_points(args[-1]))
        assert out.queries == queries, key
        assert out.cols == tuple(("m", q) for q in out.r) + tuple(("c", q) for q in queries), key
        assert out.z.shape[1] == len(out.r) + len(queries), key


def test_compose_refuses_an_inner_locator_that_reorders_its_queries():
    fld = Field(5)
    ident = identity_spec(fld)

    def reversed_locate(pts):
        out = ident.locator(pts)
        return LocatorOutput(r=out.r[::-1], queries=out.queries[::-1], z=out.z)

    spec = compose(dataclasses.replace(ident, locator=reversed_locate), ident)
    assert spec.locator([(1,)]).r == ((1,),)
    with pytest.raises(ValueError, match="outer R in order"):
        spec.locator([(1,), (2,)])


def test_constraint_rows_for_refuses_repeated_points():
    fld = Field(5)
    spec = dataclasses.replace(identity_spec(fld), message_oracle=lambda q: 0)
    constraint_rows_for(spec, [(1,), (2,)])
    with pytest.raises(ValueError, match="distinct"):
        constraint_rows_for(spec, [(1,), (1,)])
