import dataclasses
import hashlib
import itertools
import random
import struct
import sys
import threading
import time
import weakref
from collections import Counter
from functools import partial

import numpy as np
import pytest

from zkpcp import pcp
from zkpcp.audit import AuditError, ScriptStep, audit_script
from zkpcp.domains import hypercube
from zkpcp.field import MAX_MODULUS, Field
from zkpcp.linalg import spans_equal
from zkpcp.oracles import antisym_basis
from zkpcp.pcp import (
    CnfInstance,
    ProofOracle,
    SimulatorSession,
    SumcheckParams,
    _grid_eval,
    arithmetize,
    deserialize_proof,
    parse_dimacs,
    pcp_for_sharp_sat,
    proof_from_tables,
    prove,
    prove_shifted,
    serialize_proof,
    verify,
    line_test_count,
)
from zkpcp.poly import (
    MultiPoly,
    eval_univariate,
    lagrange_univariate,
    power_table,
    subcube_sum,
    univariate_from_roots,
    zero_code_poly_basis,
)
from zkpcp.rm import CodeView, rm_generator


def xy_poly(p):
    c = np.zeros((2, 2), dtype=np.int64)
    c[1, 1] = 1
    return MultiPoly(p, c)


def test_arithmetize_or_clause():
    p = 97
    cnf = CnfInstance(2, ((1, 2),))
    poly = arithmetize(cnf, p)
    # 1 - (1 - X1)(1 - X2)
    for a, b in itertools.product((0, 1), repeat=2):
        assert poly.eval((a, b)) == (1 if (a or b) else 0)
    assert subcube_sum(poly, hypercube((0, 1), 2), ()) == 3


def test_arithmetize_contradiction():
    p = 97
    cnf = CnfInstance(1, ((1,), (-1,)))
    assert cnf.model_count() == 0
    poly = arithmetize(cnf, p)
    assert subcube_sum(poly, hypercube((0, 1), 1), ()) == 0


def test_arithmetize_random_cnfs_match_truth_table():
    rng = random.Random(5)
    p = 211
    for _ in range(40):
        n = rng.randrange(1, 5)
        clauses = []
        for _ in range(rng.randrange(1, 6)):
            width = rng.randrange(1, n + 1)
            vars_ = rng.sample(range(1, n + 1), width)
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vars_))
        cnf = CnfInstance(n, tuple(clauses))
        poly = arithmetize(cnf, p)
        assert subcube_sum(poly, hypercube((0, 1), n), ()) == cnf.model_count() % p
        for bits in itertools.product((0, 1), repeat=n):
            assert poly.eval(bits) == cnf.eval(bits)


def test_parse_dimacs():
    text = """c example
p cnf 3 2
1 -2 0
2 3 0
"""
    cnf = parse_dimacs(text)
    assert cnf.num_vars == 3
    assert cnf.clauses == ((1, -2), (2, 3))
    with pytest.raises(ValueError):
        parse_dimacs("1 2 0\n")


def test_modulus_bound_checked_before_primality():
    # both moduli are prime: int64 elimination overflows at 2**40 + 15, and
    # trial division of 2**61 - 1 would run for minutes
    for p in (1099511627791, 2**61 - 1):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="bound"):
            Field(p)
        with pytest.raises(ValueError, match="bound"):
            SumcheckParams(p, 1, 3, (0, 1))
        assert time.perf_counter() - t0 < 0.5
    assert MAX_MODULUS == 2**17
    assert Field(2**17 - 1).p == 2**17 - 1  # the largest prime within the bound


def test_params_validation():
    with pytest.raises(ValueError):
        SumcheckParams(4, 1, 3, (0, 1))  # not prime
    with pytest.raises(ValueError):
        SumcheckParams(11, 1, 2, (0, 1))  # d < |H| + 1
    p = SumcheckParams(61, 2, 3, (0, 1))
    assert p.nodes == (0, 1, 2, 3)
    assert p.meets_soundness_bound
    assert not SumcheckParams(31, 2, 3, (0, 1)).meets_soundness_bound


def test_prove_deterministic_given_seed():
    params = SumcheckParams(61, 2, 3, (0, 1))
    poly = xy_poly(61)
    a = prove(poly, params, random.Random(9))
    b = prove(poly, params, random.Random(9))
    assert all(np.array_equal(x, y) for x, y in zip(a.sigma, b.sigma))
    assert np.array_equal(a.q, b.q)
    assert all(np.array_equal(x, y) for x, y in zip(a.t, b.t))


def test_prove_names_the_wrong_arity():
    params = SumcheckParams(5, 2, 3, (0, 1))
    cube3 = MultiPoly(5, np.ones((2, 2, 2), dtype=np.int64))
    with pytest.raises(ValueError, match="instance polynomial has arity 3, expected 2"):
        prove(cube3, params, random.Random(0))
    too_high = MultiPoly(5, np.ones((5, 1), dtype=np.int64))
    with pytest.raises(ValueError, match="degree exceeds d"):
        prove(too_high, params, random.Random(0))


def test_honest_proof_structure_and_total():
    params = SumcheckParams(61, 2, 3, (0, 1))
    poly = xy_poly(61)
    gamma = sum(poly.eval(pt) for pt in params.cube.points()) % 61
    for seed in range(5):
        proof = prove(poly, params, random.Random(seed))
        assert proof.sigma_at(()) == gamma
        # sum table consistency at a few random prefixes
        rng = random.Random(seed + 100)
        for _ in range(10):
            i = rng.randrange(params.m)
            pt = tuple(rng.randrange(61) for _ in range(i))
            want = sum(proof.sigma_at(pt + (h,)) for h in params.h) % 61
            assert proof.sigma_at(pt) == want


def test_completeness_small_field_many_seeds():
    params = SumcheckParams(61, 2, 3, (0, 1))
    poly = xy_poly(61)
    for seed in range(20):
        proof = prove(poly, params, random.Random(seed))
        res = verify(poly.eval, params, proof, random.Random(1000 + seed))
        assert res.accepted, res.reason


def test_query_count_bound():
    params = SumcheckParams(61, 2, 3, (0, 1))
    poly = xy_poly(61)
    proof = prove(poly, params, random.Random(0))
    res = verify(poly.eval, params, proof, random.Random(1))
    m, d, p = params.m, params.d, params.p
    r = line_test_count(params)
    bound = 1 + m * (d + 1) + (m + 2) + (m + 1) * r * p
    assert len(res.queries) <= bound


def test_sharp_sat_end_to_end():
    cnf = CnfInstance(2, ((1, 2),))
    bundle = pcp_for_sharp_sat(cnf, 3)
    proof = bundle.prove(random.Random(7))
    assert bundle.verify(proof, random.Random(9)).accepted
    # same proof against the wrong claim is rejected outright
    wrong = pcp_for_sharp_sat(cnf, 2, p=bundle.params.p)
    assert not wrong.verify(proof, random.Random(9)).accepted


def test_sharp_sat_parameter_floor():
    cnf = CnfInstance(3, ((1, 2, 3),))
    bundle = pcp_for_sharp_sat(cnf, 7)
    assert bundle.params.p > max(10 * bundle.params.m * bundle.params.d, 2**3)
    with pytest.raises(ValueError):
        pcp_for_sharp_sat(cnf, 7, p=7)  # below the aliasing floor


def test_sharp_sat_refuses_a_count_outside_the_cube():
    # 4 models over 3 variables; 101 and -93 are both 4 mod 97
    cnf = CnfInstance(3, ((1, -2), (2, 3)))
    assert cnf.model_count() == 4
    for count in (101, -93, 9, -1):
        with pytest.raises(ValueError, match="outside"):
            pcp_for_sharp_sat(cnf, count, p=97)
    for count in (0, 4, 8):
        assert pcp_for_sharp_sat(cnf, count, p=97).claimed_count == count


def test_shifted_prover_rejected_often():
    cnf = CnfInstance(2, ((1, 2),))
    bundle = pcp_for_sharp_sat(cnf, 2)  # wrong claim: truth is 3
    rejected = 0
    trials = 60
    for seed in range(trials):
        cheat = prove_shifted(bundle, random.Random(seed))
        assert cheat.sigma_at(()) == bundle.gamma  # claim check passes
        res = bundle.verify(cheat, random.Random(5000 + seed))
        rejected += not res.accepted
    # md/p = 6/67 miss chance per trial; half is a very safe floor
    assert rejected >= trials // 2


def test_random_q_corruption_caught_by_line_test():
    params = SumcheckParams(61, 2, 3, (0, 1))
    poly = xy_poly(61)
    caught = 0
    trials = 40
    for seed in range(trials):
        proof = prove(poly, params, random.Random(seed))
        rng = np.random.default_rng(seed)
        q = rng.integers(0, 61, size=proof.q.shape)
        proof = proof_from_tables(params, proof.sigma, q, proof.t)
        res = verify(poly.eval, params, proof, random.Random(9000 + seed))
        caught += not res.accepted
    assert caught >= trials // 2


def test_serialization_roundtrip_and_errors():
    params = SumcheckParams(61, 2, 3, (0, 1))
    poly = xy_poly(61)
    proof = prove(poly, params, random.Random(3))
    blob = serialize_proof(proof)
    back = deserialize_proof(blob)
    assert back.params == params
    assert all(np.array_equal(x, y) for x, y in zip(proof.sigma, back.sigma))
    assert np.array_equal(proof.q, back.q)
    assert all(np.array_equal(x, y) for x, y in zip(proof.t, back.t))
    with pytest.raises(ValueError):
        deserialize_proof(b"XXXX" + blob[4:])
    with pytest.raises(ValueError):
        deserialize_proof(bytes(blob) + b"\x00" * 8)


def test_deserialize_rejects_entries_outside_the_field():
    params = SumcheckParams(61, 2, 3, (0, 1))
    poly = xy_poly(61)
    proof = prove(poly, params, random.Random(3))
    for table in ("q", "sigma1"):
        sigma, q = proof.sigma, proof.q
        if table == "q":
            q = q + 61
        else:
            sigma[1] = sigma[1] + 61
        forged = proof_from_tables(params, sigma, q, proof.t)
        # the shifted entries agree mod p, so a trusting decoder accepts them
        assert verify(poly.eval, params, forged, random.Random(4)).accepted
        with pytest.raises(ValueError, match="field element"):
            deserialize_proof(serialize_proof(forged))
    blob = bytearray(serialize_proof(prove(poly, params, random.Random(3))))
    blob[-8:] = (1 << 63).to_bytes(8, "little")  # beyond int64
    with pytest.raises(ValueError, match="field element"):
        deserialize_proof(bytes(blob))


def test_deserialize_checks_header_before_allocating():
    # a huge prime-sized modulus would stall trial division; a huge m or
    # summation-set length would allocate; each is refused from the header
    headers = [
        (2**61 - 1, 1, 3, 2, 0, 1, 4, 0, 1, 2, 3),
        (5, 2**40, 3, 2, 0, 1, 4, 0, 1, 2, 3),
        (5, 2, 3, 2**60, 0, 1),
        (5, 2, 2**63, 2, 0, 1, 0),
    ]
    for head in headers:
        blob = b"ZKP1" + struct.pack(f"<{len(head)}Q", *head) + b"\x00" * 64
        with pytest.raises(ValueError):
            deserialize_proof(blob)
    for blob in (b"", b"ZKP1", b"ZKP1\x00\x00"):
        with pytest.raises(ValueError):
            deserialize_proof(blob)
    # a non-buffer is refused before any copy: bytes(12) would be 12 zeros
    for blob in (12, "ZKP1"):
        with pytest.raises(TypeError):
            deserialize_proof(blob)
    # a reordered summation set names the same parameters but would not
    # serialise back to the same bytes
    blob = serialize_proof(prove(xy_poly(5), SumcheckParams(5, 2, 3, (0, 1)), random.Random(1)))
    swapped = bytes(blob[:36]) + blob[44:52] + blob[36:44] + blob[52:]
    with pytest.raises(ValueError, match="strictly increasing"):
        deserialize_proof(swapped)


def test_deserialize_fuzz_roundtrips_or_raises_value_error():
    params = SumcheckParams(5, 2, 3, (0, 1))
    proof = prove(xy_poly(5), params, random.Random(1))
    blob = serialize_proof(proof)
    head = len(blob) - 8 * sum(t.size for t in [*proof.sigma, proof.q, *proof.t])
    rng = random.Random(17)
    outcomes = Counter()
    for trial in range(400):
        if trial % 2:
            cut = bytearray(blob[: rng.randrange(len(blob))])
        else:
            cut = bytearray(blob)
            # flip bits in the header half the time, anywhere otherwise
            span = head if trial % 4 else len(cut)
            for _ in range(rng.randrange(1, 4)):
                cut[rng.randrange(span)] ^= 1 << rng.randrange(8)
        try:
            proof = deserialize_proof(bytes(cut))
        except ValueError:
            outcomes["refused"] += 1
            continue
        assert serialize_proof(proof) == bytes(cut)
        outcomes["parsed"] += 1
    assert outcomes["refused"] > 0 and outcomes["parsed"] > 0


# sha256 of serialize_proof(prove(...)), recorded before the prover built
# the masked word in the coefficient domain and the codec stopped copying.
GOLDEN_PROOF_SHA256 = [
    "aab9c267e40576f6963ed0b0721d1dcd37c9f751c4801413856ab480c24860b6",
    "50a915a6dfc0c061c8e3910a42bc474f7d26f6f17ade4371158b6993caf67622",
    "b8ca83cdae6c74cac8e7f18ab46c22a6ab07eefda1efeb28cbe40bfc1773b1a5",
]
GOLDEN_SHARP_SAT_SHA256 = "20a79b2720749f52e1c060529f9bb684f93c2f9f070157c78c0c193a85b76c98"


def test_proof_bytes_match_golden():
    params = SumcheckParams(11, 2, 3, (0, 1))
    for seed, digest in enumerate(GOLDEN_PROOF_SHA256):
        blob = serialize_proof(prove(xy_poly(11), params, random.Random(seed)))
        assert hashlib.sha256(blob).hexdigest() == digest
    cnf = CnfInstance(3, ((1, -2), (2, 3), (-1, -3)))
    bundle = pcp_for_sharp_sat(cnf, cnf.model_count(), p=101)
    assert (bundle.params.p, bundle.params.m, bundle.params.d) == (101, 3, 3)
    blob = serialize_proof(bundle.prove(random.Random(0)))
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_SHARP_SAT_SHA256


@pytest.mark.parametrize(
    "p, shape",
    [
        (101, (4, 4, 4)),  # W1's tables, float32
        (2039, (4, 3)),  # 4 * 2039^2 < 2^24: the last float32 case at k = 4
        (2053, (4, 3)),  # 4 * 2053^2 > 2^24: float64
        (131071, (9,)),  # the largest prime below MAX_MODULUS, float64
    ],
)
def test_grid_eval_matches_int64_generator(p, shape):
    assert p <= MAX_MODULUS
    rng = np.random.default_rng(p)
    m = len(shape)
    # all-(p-1) coefficients push the partial sums towards their bound
    for coeffs in (rng.integers(0, p, shape), np.full(shape, p - 1)):
        table = _grid_eval(MultiPoly(p, coeffs), p)
        assert table.dtype == np.int64 and table.flags.c_contiguous
        assert table.shape == (p,) * m
        pts = {(p - 1,) * m, (0,) * m}
        if p**m <= 1 << 18:
            pts.update(itertools.product(range(p), repeat=m))
        else:
            pts.update(tuple(int(c) for c in pt) for pt in rng.integers(0, p, (4096, m)))
        pts = sorted(pts)
        view = CodeView(Field(p), m, tuple(s - 1 for s in shape))
        want = rm_generator(view, pts) @ coeffs.reshape(-1) % p
        assert [int(table[pt]) for pt in pts] == want.tolist()


def _int64_grid(coeffs, p):
    """The evaluation table by int64 contractions, reduced after each axis."""
    table = coeffs
    for axis in reversed(range(coeffs.ndim)):
        v = power_table(p, table.shape[axis] - 1)
        table = np.moveaxis(np.tensordot(v, table, axes=([1], [axis])), 0, axis) % p
    return table


# (p, shape) -> blocks of _grid_eval's last contraction
GRID_BLOCKS = {
    (101, (4, 4, 4)): 17,  # W1, float32: blocks of 6 rows, the last of 5
    (2039, (4, 3)): 64,  # float32: blocks of 32 rows, the last of 23
    (2053, (4, 3)): 67,  # float64: blocks of 31 rows, the last of 7
    (131071, (9,)): 2,  # float64, m = 1: the last block one row short
    (101, (4,)): 1,  # m = 1: one block of 101 rows
    (41, (2, 2, 2, 2)): 41,  # rows of 41^3 > GRID_BLOCK entries, one per block
}


@pytest.mark.parametrize("p, shape", list(GRID_BLOCKS))
def test_grid_eval_into_a_slot_matches_a_fresh_table(p, shape):
    rng = np.random.default_rng(p)
    coeffs = rng.integers(0, p, shape)
    poly = MultiPoly(p, coeffs)
    m = len(shape)
    rows = max(1, pcp.GRID_BLOCK // p ** (m - 1))  # rows of the last contraction
    assert -(-p // rows) == GRID_BLOCKS[p, shape]
    out = np.full((p,) * m, -1, dtype=np.int64)
    assert _grid_eval(poly, p, out) is out
    assert np.array_equal(out, _int64_grid(coeffs, p))
    assert np.array_equal(out, _grid_eval(poly, p))
    strided = np.empty(2 * p**m, np.int64)[::2].reshape((p,) * m)
    with pytest.raises(ValueError):
        _grid_eval(poly, p, strided)


def test_grid_eval_refuses_past_the_float64_bound():
    p = 131071
    k = -(-(2**53) // (p * p))  # the least axis length with k * p^2 >= 2^53
    assert (k - 1) * p * p < 2**53 <= k * p * p
    with pytest.raises(ValueError):
        _grid_eval(MultiPoly(p, np.ones(k, dtype=np.int64)), p)


# sha256 of repr(result.queries) for three verifier seeds on the W1 proof
# below, recorded before the verifier read its degree-test lines in one pass.
GOLDEN_VERIFY_QUERIES_SHA256 = {
    1: "d3e5e53f9536811808583baad010a36270ce07fc1557715ba9c5e8eed07fb6c0",
    2: "899adfdea5deec1011f9d6ca6e8f3026f8bc64251b8e59cb63391a0e28ebfe1a",
    3: "4bb1bedced4e8de9ee6e279b3b1b03424ec2650235f9a60aa765f65959a302e5",
}


def _w1_bundle_and_proof():
    cnf = CnfInstance(3, ((1, -2), (2, 3), (-1, -3)))
    bundle = pcp_for_sharp_sat(cnf, cnf.model_count(), p=101)
    return bundle, bundle.prove(random.Random(0))


def test_verifier_transcript_matches_golden():
    bundle, proof = _w1_bundle_and_proof()
    for seed, digest in GOLDEN_VERIFY_QUERIES_SHA256.items():
        result = bundle.verify(proof, random.Random(seed))
        assert result.accepted and len(result.queries) == 5674
        assert hashlib.sha256(repr(result.queries).encode()).hexdigest() == digest


class CountingOracle(ProofOracle):
    """Counts every read that goes through the oracle's read methods."""

    reads = 0

    def sigma_at(self, pt):
        self.reads += 1
        return super().sigma_at(pt)

    def q_at(self, pt):
        self.reads += 1
        return super().q_at(pt)

    def t_at(self, i, pt):
        self.reads += 1
        return super().t_at(i, pt)


def test_verifier_reads_each_logged_entry_once():
    bundle, proof = _w1_bundle_and_proof()
    counting = CountingOracle(proof.params, proof.wire)
    result = bundle.verify(counting, random.Random(1))
    assert result.accepted
    assert counting.reads == len(result.queries) == 5674
    assert result.queries == bundle.verify(proof, random.Random(1)).queries


def test_oracle_reads_return_ints_and_refuse_points_no_proof_holds():
    params = SumcheckParams(5, 2, 3, (0, 1))
    proof = prove(xy_poly(5), params, random.Random(1))
    blob = serialize_proof(proof)
    in_place = deserialize_proof(bytes(blob))
    # a bytes object's data is 8-aligned and the tables start 4 bytes off
    assert not in_place.q.flags.aligned
    copied = deserialize_proof(bytearray(blob))
    assert copied.q.flags.aligned and not np.shares_memory(copied.q, proof.q)
    for oracle in (proof, in_place, copied):
        for pt in itertools.chain.from_iterable(
            itertools.product(range(5), repeat=k) for k in range(3)
        ):
            got = oracle.sigma_at(pt)
            assert type(got) is int and got == int(proof.sigma[len(pt)][pt])
        for pt in itertools.product(range(5), repeat=2):
            reads = [oracle.q_at(pt), oracle.t_at(0, pt), oracle.t_at(1, pt)]
            assert all(type(v) is int for v in reads)
            assert reads == [int(proof.q[pt]), int(proof.t[0][pt]), int(proof.t[1][pt])]
        for pt in [(5,), (-1,), (0, 5), (2, -3), (0, 0, 0)]:
            with pytest.raises(ValueError):
                oracle.sigma_at(pt)
        # (3,) would be a flat index into a 2-d table
        for pt in [(), (3,), (0, 5), (5, 0), (0, 0, 0)]:
            for read in (oracle.q_at, partial(oracle.t_at, 0), partial(oracle.t_at, 1)):
                with pytest.raises(ValueError):
                    read(pt)
        # a negative coordinate wraps in the mask tables (not checked per read)
        assert oracle.q_at((-1, 0)) == oracle.q_at((4, 0))
        # but a table index outside [0, m) names no table
        for i in (-1, -2, 2, 3):
            for pt in [(1, 2), (0,)]:
                with pytest.raises(ValueError, match=f"no mask table t{i}: the tables are t0..t1"):
                    oracle.t_at(i, pt)


def test_serialize_ignores_table_layout():
    params = SumcheckParams(11, 2, 3, (0, 1))
    proof = prove(xy_poly(11), params, random.Random(0))
    blob = serialize_proof(proof)
    assert all(t.flags.c_contiguous for t in [*proof.sigma, proof.q, *proof.t])
    # the same tables as strided views serialise to the same bytes
    sigma, q = proof.sigma, np.ascontiguousarray(proof.q.T).T
    t = [np.flip(np.flip(x, 1).copy(), 1) for x in proof.t]
    sigma[2] = np.asfortranarray(sigma[2])
    assert not any(x.flags.c_contiguous for x in [q, sigma[2], *t])
    strided = proof_from_tables(params, sigma, q, t)
    assert serialize_proof(strided) == blob == copy_path_wire(proof)
    # an entry outside [0, p) is written as its 64-bit two's complement
    q = q - 11
    shifted = serialize_proof(proof_from_tables(params, sigma, q, t))
    assert bytes(shifted) == copy_path_wire(proof, [*sigma, q, *t])
    q_bytes = shifted[-8 * 3 * 121 : -8 * 2 * 121]
    assert q_bytes == q.reshape(-1).astype("<u8").tobytes()
    assert q_bytes[:8] == (2**64 + int(q[0, 0])).to_bytes(8, "little")


def test_deserialized_tables_are_read_only_views():
    params = SumcheckParams(11, 2, 3, (0, 1))
    proof = prove(xy_poly(11), params, random.Random(1))
    blob = serialize_proof(proof)
    back = deserialize_proof(blob)
    pairs = list(zip([*back.sigma, back.q, *back.t], [*proof.sigma, proof.q, *proof.t]))
    for got, want in pairs:
        assert got.dtype == np.int64 and np.array_equal(got, want)
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[(0,) * got.ndim] = 1
    assert serialize_proof(back) == blob


def test_serialized_proof_is_a_read_only_aligned_image():
    params = SumcheckParams(11, 2, 3, (0, 1))
    proof = prove(xy_poly(11), params, random.Random(1))
    blob = serialize_proof(proof)
    words = 11 + sum(t.size for t in [*proof.sigma, proof.q, *proof.t])
    assert isinstance(blob, memoryview) and blob.format == "B"
    assert blob.readonly and len(blob) == 4 + 8 * words
    with pytest.raises(TypeError):
        blob[0] = 0
    # words after MAGIC sit on 8-byte boundaries
    back = deserialize_proof(blob)
    assert all(t.flags.aligned for t in [*back.sigma, back.q, *back.t])
    # a buffer that cannot change is decoded in place
    for fixed in (blob, bytes(blob)):
        back = deserialize_proof(fixed)
        assert np.shares_memory(back.q, np.frombuffer(fixed, np.uint8))


def test_deserialize_copies_buffers_that_can_change():
    params = SumcheckParams(11, 2, 3, (0, 1))
    proof = prove(xy_poly(11), params, random.Random(1))
    wire = bytes(serialize_proof(proof))
    # (what the decoder is given, a writable handle on the same memory)
    cases = []
    for make in (bytearray, lambda w: np.frombuffer(w, np.uint8).copy()):
        source = make(wire)
        cases.append((source, source))
        source = make(wire)
        cases.append((memoryview(source).toreadonly(), source))
    source = np.frombuffer(wire, np.uint8).copy()
    alias = source[:]
    alias.flags.writeable = False
    cases.append((alias, source))
    # a writable view taken before its array was frozen
    source = np.frombuffer(wire, np.uint8).copy()
    view = memoryview(source)
    source.flags.writeable = False
    cases.append((view, view))
    for given, handle in cases:
        back = deserialize_proof(given)
        np.frombuffer(handle, np.uint8)[-8:] = 0xFF
        assert not np.shares_memory(back.t[-1], np.frombuffer(handle, np.uint8))
        assert not back.t[-1].flags.writeable
        assert back.t[-1][-1, -1] == proof.t[-1][-1, -1]
    # a strided view of bytes is decoded in its logical byte order
    spread = memoryview(np.repeat(np.frombuffer(wire, np.uint8), 2).tobytes())[::2]
    assert serialize_proof(deserialize_proof(spread)) == wire


def copy_path_wire(proof, tables=None):
    """The wire bytes written table by table, as the codec wrote them before
    prove wrote the image itself: of a proof, or of its parameters with
    ``tables`` (in wire order) in place of its own."""
    params = proof.params
    if tables is None:
        tables = [*proof.sigma, proof.q, *proof.t]
    head = [params.p, params.m, params.d, len(params.h), *params.h,
            len(params.nodes), *params.nodes]
    return b"ZKP1" + struct.pack(f"<{len(head)}Q", *head) + b"".join(
        np.ascontiguousarray(t, dtype="<i8").tobytes() for t in tables
    )


def test_prove_tables_are_read_only():
    proof = prove(xy_poly(11), SumcheckParams(11, 2, 3, (0, 1)), random.Random(0))
    for t in [*proof.sigma, proof.q, *proof.t]:
        assert t.dtype == np.int64 and t.flags.c_contiguous and t.flags.aligned
        assert not t.flags.writeable
        with pytest.raises(ValueError):
            t[(0,) * t.ndim] = 1
        with pytest.raises(ValueError):
            t.flags.writeable = True


def test_serialize_returns_the_image_prove_wrote():
    params = SumcheckParams(11, 2, 3, (0, 1))
    proof = prove(xy_poly(11), params, random.Random(1))
    blob = serialize_proof(proof)
    assert np.shares_memory(blob, proof.q)
    assert all(np.shares_memory(blob, t) for t in [*proof.sigma, *proof.t])
    assert np.shares_memory(serialize_proof(proof), blob)
    assert bytes(blob) == copy_path_wire(proof)
    # a proof decoded from a buffer that can change owns a fresh image
    back = deserialize_proof(bytearray(blob))
    assert np.shares_memory(serialize_proof(back), back.q)
    assert bytes(serialize_proof(back)) == bytes(blob)


def test_serialize_of_a_proof_decoded_in_place_shares_its_input():
    params = SumcheckParams(11, 2, 3, (0, 1))
    blob = serialize_proof(prove(xy_poly(11), params, random.Random(1)))
    for fixed in (blob, bytes(blob)):
        again = serialize_proof(deserialize_proof(fixed))
        assert np.shares_memory(np.frombuffer(again, np.uint8), np.frombuffer(fixed, np.uint8))
        assert again.readonly and again.format == "B" and again == fixed


def test_a_proof_cannot_change():
    params = SumcheckParams(11, 2, 3, (0, 1))
    poly = xy_poly(11)
    proof = prove(poly, params, random.Random(1))
    want = bytes(serialize_proof(proof))
    queries = verify(poly.eval, params, proof, random.Random(2)).queries
    other = prove(poly, params, random.Random(7))
    for name, value in [("q", proof.q.copy()), ("wire", other.wire),
                        ("params", SumcheckParams(11, 2, 3, (0, 2)))]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(proof, name, value)
    proof.sigma[1] = other.sigma[1]
    proof.t[0] = other.t[0]
    proof.t.append(proof.q)
    assert verify(poly.eval, params, proof, random.Random(2)).queries == queries
    assert bytes(serialize_proof(proof)) == want == copy_path_wire(proof)
    # the wire must carry the header of the parameters it is given with
    with pytest.raises(ValueError, match="image of the parameters"):
        ProofOracle(SumcheckParams(11, 2, 3, (0, 2)), proof.wire)
    with pytest.raises(ValueError, match="image of the parameters"):
        ProofOracle(params, memoryview(bytearray(proof.wire)))


def test_proof_from_tables_copies_into_an_image_of_its_own():
    # criterion 7 corrupts q this way on every trial
    params = SumcheckParams(101, 2, 3, (0, 1))
    poly = xy_poly(101)
    for seed in range(3):
        proof = prove(poly, params, random.Random(f"h:{seed}"))
        written = bytes(proof.wire)
        q = np.random.default_rng(seed).integers(0, 101, proof.q.shape)
        forged = proof_from_tables(params, proof.sigma, q, proof.t)
        assert not np.shares_memory(forged.wire.obj, proof.wire.obj)
        assert bytes(forged.wire) == copy_path_wire(proof, [*proof.sigma, q, *proof.t])
        assert bytes(proof.wire) == written
    # a table of the wrong shape is refused, not broadcast into its slot
    sigma = proof.sigma
    sigma[2] = sigma[1]
    with pytest.raises(ValueError, match="shapes"):
        proof_from_tables(params, sigma, proof.q, proof.t)
    with pytest.raises(ValueError, match="shapes"):
        proof_from_tables(params, proof.sigma, proof.q, proof.t + [proof.q])


def test_params_without_reading_nodes_are_refused_where_nodes_are_read():
    # the verifier reads each round at the nodes 0..d, which must be field
    # elements (d < p) holding H; only prove, verify and the codec read them
    for params, why in [(SumcheckParams(5, 1, 5, (0, 1)), "d < p"),
                        (SumcheckParams(31, 1, 3, (0, 5)), "contained in the nodes")]:
        poly = MultiPoly(params.p, np.ones(params.d + 1, dtype=np.int64))
        with pytest.raises(ValueError, match=why):
            prove(poly, params, random.Random(0))
        with pytest.raises(ValueError, match=why):
            verify(poly.eval, params, None, random.Random(0))
        head = [params.p, 1, params.d, len(params.h), *params.h,
                params.d + 1, *range(params.d + 1)]
        words = 1 + 3 * params.p
        blob = b"ZKP1" + struct.pack(f"<{len(head)}Q", *head) + bytes(8 * words)
        with pytest.raises(ValueError, match=why):
            deserialize_proof(blob)


def test_decoder_refuses_nodes_other_than_0_to_d():
    params = SumcheckParams(11, 2, 3, (0, 1))
    blob = bytearray(serialize_proof(prove(xy_poly(11), params, random.Random(0))))
    # header words: p, m, d, |H|, H..., |D|, D...; the last node is word 10
    assert struct.unpack_from("<11Q", blob, 4)[6:] == (4, 0, 1, 2, 3)
    struct.pack_into("<Q", blob, 4 + 8 * 10, 4)
    with pytest.raises(ValueError, match="0..d"):
        deserialize_proof(bytes(blob))


@pytest.mark.parametrize("p", [5, 101])
def test_extension_matches_horner_on_the_interpolant(p):
    rng = random.Random(p)
    for d in range(min(p, 6)):
        nodes = tuple(range(d + 1))
        vals = [rng.randrange(p) for _ in nodes]
        coeffs = sum(v * lagrange_univariate(nodes, w, p) for v, w in zip(vals, nodes)) % p
        ext = pcp._extension(nodes, p)
        assert not ext.flags.writeable
        want = [eval_univariate(coeffs, x, p) for x in range(p)]
        assert (ext @ np.array(vals) % p).tolist() == want


def test_deserialized_copies_are_aligned_images():
    params = SumcheckParams(11, 2, 3, (0, 1))
    blob = serialize_proof(prove(xy_poly(11), params, random.Random(1)))
    for given in (bytearray(blob), memoryview(bytearray(blob))):
        back = deserialize_proof(given)
        for t in [*back.sigma, back.q, *back.t]:
            assert t.flags.aligned and t.ctypes.data % 8 == 0
            assert not t.flags.writeable
        assert bytes(serialize_proof(back)) == bytes(blob)


def _held(kind, params, poly):
    """The one object of ``kind`` left holding a proof image; the proof it
    came from is dropped."""
    proof = prove(poly, params, random.Random(1))
    if kind == "table view":
        return proof.q
    if kind == "serialize memoryview":
        return serialize_proof(proof)
    if kind == "proof decoded in place":
        return deserialize_proof(serialize_proof(proof))
    if kind == "frombuffer view":
        return np.frombuffer(serialize_proof(proof), np.uint8)
    if kind == "proof_from_tables wire":
        return serialize_proof(proof_from_tables(params, proof.sigma, proof.q, proof.t))
    if kind == "proof decoded from a copy":
        return deserialize_proof(bytearray(serialize_proof(proof)))
    raise AssertionError(kind)


def _held_arrays(held):
    if isinstance(held, ProofOracle):
        return [*held.sigma, held.q, *held.t]
    return [np.frombuffer(held, np.uint8)]


def test_held_images_keep_their_bytes_across_later_proves():
    params = SumcheckParams(11, 2, 3, (0, 1))
    poly = xy_poly(11)
    for kind in ("table view", "serialize memoryview", "proof decoded in place",
                 "frombuffer view", "proof_from_tables wire", "proof decoded from a copy"):
        held = _held(kind, params, poly)
        before = [a.tobytes() for a in _held_arrays(held)]
        for seed in (2, 3):
            later = prove(poly, params, random.Random(seed))
            assert not any(
                np.shares_memory(a, t)
                for a in _held_arrays(held) for t in [*later.sigma, later.q, *later.t]
            ), kind
            del later
        assert [a.tobytes() for a in _held_arrays(held)] == before, kind


def test_a_dropped_image_is_reused():
    params = SumcheckParams(11, 2, 3, (0, 1))
    poly = xy_poly(11)
    want = bytes(serialize_proof(prove(poly, params, random.Random(2))))
    proof = prove(poly, params, random.Random(1))
    image = weakref.ref(proof.wire.obj)
    del proof
    proof = prove(poly, params, random.Random(2))
    assert proof.wire.obj is image() and np.shares_memory(image(), proof.q)
    # a reused image is frozen again and handed out as the wire image
    assert not image().flags.writeable
    assert not any(t.flags.writeable for t in [*proof.sigma, proof.q, *proof.t])
    assert np.shares_memory(serialize_proof(proof), proof.q)
    assert bytes(serialize_proof(proof)) == want == copy_path_wire(proof)


def test_at_most_two_images_stay_pooled():
    poly = xy_poly(11)
    proofs = [prove(poly, SumcheckParams(11, 2, 3, (0, 1)), random.Random(s)) for s in (1, 2)]
    proofs += [prove(xy_poly(p), SumcheckParams(p, 2, 3, (0, 1)), random.Random(0))
               for p in (13, 17)]
    assert len(pcp._POOL) == 2
    del proofs
    proof = prove(poly, SumcheckParams(11, 2, 3, (0, 1)), random.Random(3))
    assert len(pcp._POOL) <= 2 and pcp._POOL[-1] is proof.wire.obj
    # both same-size images were free: one is reused, the other dropped
    a, b = (prove(poly, SumcheckParams(11, 2, 3, (0, 1)), random.Random(s)) for s in (4, 5))
    del proof, a, b
    proof = prove(poly, SumcheckParams(11, 2, 3, (0, 1)), random.Random(6))
    assert len(pcp._POOL) == 1 and pcp._POOL[0] is proof.wire.obj


def test_concurrent_proves_match_a_sequential_run(monkeypatch):
    params = SumcheckParams(31, 3, 3, (0, 1))
    poly = MultiPoly(31, np.arange(8, dtype=np.int64).reshape(2, 2, 2))

    def run(seeds):
        digests = []
        for seed in seeds:
            # the last proof stays alive while the next one is proved
            proof = prove(poly, params, random.Random(seed))
            digests.append(hashlib.sha256(serialize_proof(proof)).hexdigest())
        return digests

    runs = [range(6 * k, 6 * k + 6) for k in range(4)]
    want = [run(seeds) for seeds in runs]

    def slow_refs(pool, i, refs=pcp._refs):
        # widen the window between finding an image free and taking it
        n = refs(pool, i)
        time.sleep(0.001)
        return n

    monkeypatch.setattr(pcp, "_refs", slow_refs)
    got = [None] * len(runs)
    threads = [
        threading.Thread(target=lambda k=k: got.__setitem__(k, run(runs[k])))
        for k in range(len(runs))
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert got == want


def test_simulator_examples():
    params = SumcheckParams(5, 2, 3, (0, 1))
    poly = xy_poly(5)
    gamma = 1
    # bot always gamma
    for seed in range(6):
        sim = SimulatorSession(params, poly.eval, gamma, random.Random(seed))
        assert sim.query("sigma", ()) == gamma
    # fresh q at a non-palindromic point is uniform across seeds
    vals = Counter()
    for seed in range(1000):
        sim = SimulatorSession(params, poly.eval, gamma, random.Random(seed))
        vals[sim.query("q", (2, 3))] += 1
    assert set(vals) == set(range(5))
    expected = 1000 / 5
    chi2 = sum((c - expected) ** 2 / expected for c in vals.values())
    assert chi2 < 20
    # determinism given the seed
    s1 = SimulatorSession(params, poly.eval, gamma, random.Random(4))
    s2 = SimulatorSession(params, poly.eval, gamma, random.Random(4))
    steps = [("sigma", (2,)), ("q", (2, 3)), ("t1", (3, 2)), ("sigma", (2, 3))]
    assert [s1.query(o, pt) for o, pt in steps] == [
        s2.query(o, pt) for o, pt in steps
    ]


def test_simulator_rejects_false_statement():
    params = SumcheckParams(5, 2, 3, (0, 1))
    poly = xy_poly(5)
    with pytest.raises(ValueError):
        SimulatorSession(params, poly.eval, 2, random.Random(0))


def test_mask_fact_antisym_part_exact_enumeration():
    # (Q - Q reversed) restricted to the cube is uniform on the antisymmetric
    # space: exact enumeration of every Q at F3, m=2, d=2.
    p, m, d = 3, 2, 2
    cube = list(hypercube((0, 1), m).points())
    counts = Counter()
    shape = (d + 1,) * m
    n = (d + 1) ** m
    for flat in itertools.product(range(p), repeat=n):
        q = MultiPoly(p, np.array(flat, dtype=np.int64).reshape(shape))
        qr = q.reverse_vars()
        counts[tuple((q.eval(pt) - qr.eval(pt)) % p for pt in cube)] += 1
    basis = antisym_basis(hypercube((0, 1), m), p)
    want = set()
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        vec = [0] * len(cube)
        for c, b in zip(coeffs, basis):
            for i, pt in enumerate(cube):
                vec[i] = (vec[i] + c * b.get(pt, 0)) % p
        want.add(tuple(vec))
    assert set(counts) == want
    assert len(set(counts.values())) == 1  # exact uniformity


def test_mask_fact_zero_code_part_support_equality():
    # sum of Z_H(X_i) T_i ranges over exactly the cube-vanishing code tables,
    # uniformly; supports enumerated exactly at F3, m=2, d=3.
    p, m, d = 3, 2, 3
    params = SumcheckParams(p, m, d, (0, 1))
    grid = list(itertools.product(range(p), repeat=m))
    zh = univariate_from_roots(params.h, p)
    rows = []
    for i in range(m):
        dv = params.t_degree_vector(i)
        from zkpcp.poly import monomial_exponents, eval_monomial

        for e in monomial_exponents(dv):
            rows.append(
                [
                    (eval_univariate(zh, pt[i], p) * eval_monomial(e, pt, p)) % p
                    for pt in grid
                ]
            )
    mask_rows = np.array(rows, dtype=np.int64)
    zc_rows = []
    for poly in zero_code_poly_basis(hypercube((0, 1), m), (d,) * m, p):
        zc_rows.append([poly.eval(pt) for pt in grid])
    zc_rows = np.array(zc_rows, dtype=np.int64)
    # as evaluation tables the two spans coincide, so the uniform laws match
    assert spans_equal(mask_rows, zc_rows, p)
    # enumerate both supports exactly (they are small as table spaces)
    def span_set(rows):
        rows = [r for r in rows if np.any(np.array(r) % p)]
        from zkpcp.linalg import rref

        red, piv = rref(np.array(rows, dtype=np.int64), p)
        base = red[: len(piv)]
        out = set()
        for coeffs in itertools.product(range(p), repeat=len(base)):
            v = np.zeros(len(grid), dtype=np.int64)
            for c, r in zip(coeffs, base):
                v = (v + c * r) % p
            out.add(tuple(int(x) for x in v))
        return out

    assert span_set(mask_rows) == span_set(zc_rows)


@pytest.mark.parametrize("p, m", [(5, 2), (7, 3)])
def test_mask_identity_is_the_params_mask_terms(p, m):
    """At every full-arity point of an honest proof, sigma = F + the mask as
    ``params.mask_terms`` weighs it; ``mask_row`` carries exactly those
    weights, plus -1 on sigma, and the honest values satisfy it."""
    params = SumcheckParams(p, m, 3, (0, 1))
    rng = random.Random(p * m)
    poly = MultiPoly(p, Field(p).sample_array(rng, (4,) * m))
    proof = prove(poly, params, rng)
    read = {"sigma": proof.sigma_at, "q": proof.q_at}
    read.update((f"t{i}", partial(proof.t_at, i)) for i in range(m))
    view = pcp.ViewState(params, poly.eval, proof.sigma_at(()))
    cube = list(itertools.product(range(p), repeat=m))
    for pt in cube:
        view.admit(("sigma", pt))
    values = np.array([read[name](x) for name, x in view.coords], dtype=np.int64)
    for pt in cube:
        terms = params.mask_terms(pt)
        assert [c for c, _ in terms] == [("q", pt), ("q", pcp.rev_point(pt))] + [
            (f"t{i}", pt) for i in range(m)
        ]
        mask = sum(w * read[name](x) for (name, x), w in terms)
        assert proof.sigma[m][pt] == (poly.eval(pt) + mask) % p
        row, rhs = pcp.mask_row(view, pt)
        want = Counter({view.index[("sigma", pt)]: -1})
        for c, w in terms:
            want[view.index[c]] += w
        assert {j: int(v) for j, v in enumerate(row) if v} == {
            j: w % p for j, w in want.items() if w % p
        }
        assert rhs == -poly.eval(pt) % p and row @ values % p == rhs


class _SimulatedProof:
    """Adapter exposing a simulator session through the proof-oracle surface."""

    def __init__(self, session):
        self.session = session

    def sigma_at(self, pt):
        return self.session.query("sigma", pt)

    def q_at(self, pt):
        return self.session.query("q", pt)

    def t_at(self, i, pt):
        return self.session.query(f"t{i}", pt)


def test_honest_verifier_accepts_simulated_view():
    # Completeness against the simulator: the verifier cannot tell the
    # simulated oracle from a real proof, so every run accepts.
    params = SumcheckParams(11, 1, 3, (0, 1))
    rng = random.Random(2)
    poly = MultiPoly(11, np.array([3, 1, 4, 1], dtype=np.int64))
    gamma = sum(poly.eval((a,)) for a in (0, 1)) % 11
    for seed in range(5):
        sim = SimulatorSession(params, poly.eval, gamma, random.Random(seed))
        res = verify(
            poly.eval, params, _SimulatedProof(sim), random.Random(100 + seed),
            gamma=gamma,
        )
        assert res.accepted, res.reason


def test_view_record_replayable():
    params = SumcheckParams(5, 2, 3, (0, 1))
    poly = xy_poly(5)
    steps = [("sigma", (2,)), ("q", (2, 3)), ("t0", (3, 2))]

    def run(seed):
        sim = SimulatorSession(params, poly.eval, 1, random.Random(seed))
        for o, pt in steps:
            sim.query(o, pt)
        return seed, tuple(sim.transcript)

    assert run(9) == run(9)
    # the first sigma answer is a free coordinate, drawn as the seed's first
    # field sample, and seeds 9 and 10 draw different first samples
    for seed in (9, 10):
        assert run(seed)[1][0][2] == Field(5).sample(random.Random(seed))
    assert run(9)[1] != run(10)[1]


def test_simulator_refuses_queries_no_proof_answers():
    params = SumcheckParams(5, 2, 3, (0, 1))
    sim = SimulatorSession(params, xy_poly(5).eval, 1, random.Random(0))
    for oracle, pt in [("t7", (0, 1)), ("t2", (0, 1)), ("sigma", (9,)),
                       ("sigma", (-1,)), ("q", (0, 5)), ("q", (0,)),
                       ("sigma", (0, 0, 0)), ("r", (0, 1))]:
        with pytest.raises(ValueError):
            sim.query(oracle, pt)
    assert sim.transcript == [] and sim.values == []
    assert sim.query("sigma", (4,)) == sim.transcript[0][2]


def test_failed_extend_poisons_the_session(monkeypatch):
    # A failed extension leaves the new coordinates admitted without values;
    # every later query raises the same RuntimeError instead of reading
    # past the answered values.
    import zkpcp.pcp as pcp

    params = SumcheckParams(11, 2, 3, (0, 1))
    sim = SimulatorSession(params, xy_poly(11).eval, 1, random.Random(0))
    sim.query("sigma", (3,))
    monkeypatch.setattr(pcp, "sample_new", lambda *args: None)
    with pytest.raises(RuntimeError, match="inconsistent"):
        sim.query("q", (2, 5))
    monkeypatch.undo()
    assert len(sim.values) < len(sim.view.coords)
    for oracle, pt in [sim.view.coords[-1], ("q", (2, 5)), ("sigma", (3,)),
                       ("sigma", (4,))]:
        with pytest.raises(RuntimeError, match="inconsistent"):
            sim.query(oracle, pt)
    assert len(sim.transcript) == 1


# Simulator transcripts for seeds 0-4, recorded before the view state moved
# to one dense coordinate index. Any change to the sampler's column order,
# row space or randomness use shows up here as a changed answer.
GOLDEN_T_LINE_M1 = [
    [6, 4, 2, 0, 9, 7, 5, 3, 1, 10, 8],
    [9, 4, 10, 5, 0, 6, 1, 7, 2, 8, 3],
    [1, 5, 9, 2, 6, 10, 3, 7, 0, 4, 8],
    [9, 2, 6, 10, 3, 7, 0, 4, 8, 1, 5],
    [4, 6, 8, 10, 1, 3, 5, 7, 9, 0, 2],
]
GOLDEN_MIXED_M2 = [
    [3, 3, 3, 2, 0, 1],
    [1, 4, 3, 1, 0, 1],
    [0, 0, 2, 2, 0, 1],
    [1, 4, 4, 1, 4, 1],
    [1, 2, 1, 0, 0, 1],
]


@pytest.mark.parametrize(
    "params, poly, gamma, steps, golden",
    [
        (
            SumcheckParams(11, 1, 3, (0, 1)),
            MultiPoly(11, np.array([3, 1, 4, 1], dtype=np.int64)),
            (3 + 9) % 11,
            [("t0", (x,)) for x in range(11)],
            GOLDEN_T_LINE_M1,
        ),
        (
            SumcheckParams(5, 2, 3, (0, 1)),
            xy_poly(5),
            1,
            [("sigma", (2,)), ("q", (2, 3)), ("t0", (3, 2)), ("sigma", (3, 2)),
             ("q", (3, 2)), ("sigma", ())],
            GOLDEN_MIXED_M2,
        ),
    ],
    ids=["t-line-m1", "mixed-m2"],
)
def test_simulator_transcripts_match_golden(params, poly, gamma, steps, golden):
    assert gamma == sum(poly.eval(pt) for pt in params.cube.points()) % params.p
    for seed, values in enumerate(golden):
        sim = SimulatorSession(params, poly.eval, gamma, random.Random(seed))
        for o, pt in steps:
            sim.query(o, pt)
        assert sim.transcript == [(o, pt, v) for (o, pt), v in zip(steps, values)]


def _honest_transcript_m2():
    """The honest verifier's 193 queries at p=5, m=2 on F = X1*X2, coins 2."""
    params = SumcheckParams(5, 2, 3, (0, 1))
    poly = xy_poly(5)
    res = verify(poly.eval, params, prove(poly, params, random.Random(0)),
                 random.Random(2), gamma=1)
    assert res.accepted
    return params, poly, [ScriptStep(o, pt) for o, pt, _ in res.queries]


def test_audit_long_m2_transcript_prefix():
    params, poly, steps = _honest_transcript_m2()
    assert len(steps) == 193
    assert audit_script(params, poly, 1, steps[:27]).tv == 0
    # the chain check fires at the 28th query, a Q line read
    with pytest.raises(AuditError, match="constrain already-sampled coordinates"):
        audit_script(params, poly, 1, steps[:28])


@pytest.mark.xfail(
    strict=True,
    raises=AuditError,
    reason="known defect: at m=2 the simulator's rows do not span the dual of "
    "the joint (sigma, Q, T) code, so the chained law breaks mid-transcript",
)
def test_audit_long_m2_transcript():
    params, poly, steps = _honest_transcript_m2()
    assert audit_script(params, poly, 1, steps).tv == 0


@pytest.mark.xfail(
    strict=True,
    raises=RuntimeError,
    reason="known defect: at m=2 the simulator's rows do not span the dual of "
    "the joint (sigma, Q, T) code, so a complete honest view turns inconsistent",
)
def test_honest_verifier_accepts_simulated_view_m2():
    params = SumcheckParams(11, 2, 3, (0, 1))
    poly = xy_poly(11)
    sim = SimulatorSession(params, poly.eval, 1, random.Random(0))
    res = verify(poly.eval, params, _SimulatedProof(sim), random.Random(2), gamma=1)
    assert res.accepted, res.reason
