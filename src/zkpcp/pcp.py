"""The masked-sumcheck PCP: prover, verifier, simulator, #SAT front end.

The proof string has four table families: pi_sigma holds all subcube sums
of the masked instance polynomial over prefixes of F^{<=m}; pi_q and the
pi_t tables hold the mask components as full evaluation tables. The
verifier replays one random sumcheck path against interpolated univariate
slices plus axis-parallel-line degree tests. The simulator answers queries
by exact conditional sampling over pi_sigma and the mask tables jointly,
with the composed locally-simulatable encoding's rows for pi_sigma on views
that hold a subcube sum over a proper prefix.
"""
from __future__ import annotations

import copy
import math
import struct
import sys
import threading
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from itertools import repeat
from typing import Callable, Optional, Sequence

import numpy as np

from .domains import Point, hypercube, require_in_field, rev_point, sort_points
from .encoding import EncodingSpec, constraint_rows_for, enc_pcp_spec
from .field import Field, next_prime
from .linalg import sample_affine
from .poly import (
    MultiPoly,
    _inverse_vandermonde,
    lagrange,
    power_table,
    univariate_from_roots,
)
from .rm import CodeView, cd_rm

MAGIC = b"ZKP1"
# every dense proof table holds p**m <= TABLE_CAP entries; the decoder and
# field.MAX_MODULUS rely on this bound
TABLE_CAP = 1 << 24


@dataclass(frozen=True)
class CnfInstance:
    """A CNF formula."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for clause in self.clauses:
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range")

    def eval(self, assignment: Sequence[int]) -> int:
        for clause in self.clauses:
            if not any(
                (assignment[abs(l) - 1] == 1) == (l > 0) for l in clause
            ):
                return 0
        return 1

    def model_count(self) -> int:
        from itertools import product

        return sum(self.eval(bits) for bits in product((0, 1), repeat=self.num_vars))


def parse_dimacs(text: str) -> CnfInstance:
    """DIMACS CNF. After the problem line the clauses are one stream of
    literals in which each 0 ends a clause, so a clause may span lines and a
    line may hold several; a lone 0 is the empty clause, and the last clause
    may omit its 0. A c line is a comment and a % line ends the formula
    (SATLIB files end with % and 0). The clause count must be the one the
    problem line declares."""
    header = None
    clauses: list[tuple[int, ...]] = []
    lits: list[int] = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("%"):
            break
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) < 4 or parts[1] != "cnf":
                raise ValueError(f"bad problem line: {line!r}")
            header = (int(parts[2]), int(parts[3]))
            continue
        for lit in map(int, line.split()):
            if lit:
                lits.append(lit)
            else:
                clauses.append(tuple(lits))
                lits = []
    if lits:
        clauses.append(tuple(lits))
    if header is None:
        raise ValueError("missing DIMACS problem line")
    if len(clauses) != header[1]:
        raise ValueError(
            f"the problem line declares {header[1]} clauses, the formula has {len(clauses)}"
        )
    return CnfInstance(header[0], tuple(clauses))


def arithmetize(cnf: CnfInstance, p: int) -> MultiPoly:
    """Product over clauses of (1 - product over literals of (1 - lit-poly)).

    Agrees with the CNF on the Boolean cube; the degree in variable i equals
    the number of clauses mentioning it.
    """
    m = cnf.num_vars
    one = MultiPoly(p, np.ones((1,) * m, dtype=np.int64))
    acc = one
    for clause in cnf.clauses:
        miss = one
        for lit in clause:
            shape = [1] * m
            shape[abs(lit) - 1] = 2
            arr = np.zeros(shape, dtype=np.int64)
            flat = arr.reshape(2)
            if lit > 0:  # 1 - X_i
                flat[0], flat[1] = 1, (-1) % p
            else:  # X_i
                flat[0], flat[1] = 0, 1
            miss = miss.mul(MultiPoly(p, arr))
        acc = acc.mul(one.sub(miss))
    return acc


# a view coordinate: (oracle, point), named as the verifier names its queries
Coord = tuple[str, Point]


@dataclass(frozen=True)
class SumcheckParams:
    """Common input to the simulator and the audit: (p, m, d, H).

    It also owns the proof layout: the mask tables and the mask identity
    that ties them to the proof word, which the prover, the verifier, the
    simulator and the audit all read from here.
    """

    p: int
    m: int
    d: int
    h: tuple[int, ...]

    def __post_init__(self):
        if self.m < 0:
            raise ValueError(f"arity must be nonnegative, got m={self.m}")
        self.fld  # built here so that Field checks the modulus
        h = tuple(sorted(set(self.h)))
        object.__setattr__(self, "h", h)
        if not h or any(not 0 <= x < self.p for x in h):
            raise ValueError("summation set must be nonempty field elements")
        if self.d < len(h) + 1:
            raise ValueError("need d >= |H| + 1")

    @cached_property
    def fld(self) -> Field:
        return Field(self.p)

    @cached_property
    def cube(self):
        return hypercube(self.h, self.m)

    def t_degree_vector(self, i: int) -> tuple[int, ...]:
        return tuple(
            self.d - len(self.h) if j == i else self.d for j in range(self.m)
        )

    @cached_property
    def tables(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """The mask tables in wire order, each with its degree vector: Q of
        individual degree d, then each T_i with the degree in axis i reduced
        by |H|."""
        return (("q", (self.d,) * self.m),) + tuple(
            (f"t{i}", self.t_degree_vector(i)) for i in range(self.m)
        )

    @cached_property
    def oracles(self) -> tuple[str, ...]:
        """Every oracle a query may name: the proof word, then the tables."""
        return ("sigma",) + tuple(name for name, _ in self.tables)

    @cached_property
    def nodes(self) -> tuple[int, ...]:
        """The d + 1 points 0..d at which the verifier reads each round
        polynomial; ValueError unless they are field elements holding H."""
        if self.d >= self.p:
            raise ValueError("need d < p: the reading nodes 0..d are field elements")
        if self.h[-1] > self.d:
            raise ValueError("summation set must be contained in the nodes 0..d")
        return tuple(range(self.d + 1))

    @property
    def meets_soundness_bound(self) -> bool:
        """m*d < p/10, the floor soundness needs; checked where soundness is
        claimed (``pcp_for_sharp_sat``), so tiny fields stay usable."""
        return self.m * self.d * 10 < self.p

    def coord(self, oracle: str, pt) -> Coord:
        """The coordinate (oracle, point) a query names; ValueError if no
        proof could answer it: an unknown oracle, a point of the wrong arity
        or a coordinate outside [0, p)."""
        m = self.m
        pt = tuple(int(c) for c in pt)
        if oracle not in self.oracles:
            raise ValueError(f"unknown oracle {oracle!r} at m={m}")
        if oracle == "sigma" and len(pt) > m:
            raise ValueError(f"sigma is indexed by points of arity at most {m}")
        if oracle != "sigma" and len(pt) != m:
            raise ValueError("mask tables are indexed by full-arity points")
        return oracle, require_in_field(pt, self.p)

    def mask_terms(self, pt: Point) -> list[tuple[tuple[str, Point], int]]:
        """(coordinate, weight) pairs whose weighted sum is the mask at a
        full-arity point, Q(pt) - Q(rev pt) + sum_i Z_H(pt_i) T_i(pt), in the
        order the verifier reads them. Weights lie in [0, p); a palindrome
        names its Q coordinate twice, with weights 1 and p - 1."""
        p = self.p
        q, *ts = (name for name, _ in self.tables)
        return [((q, pt), 1), ((q, rev_point(pt)), p - 1)] + [
            ((t, pt), math.prod(x - a for a in self.h) % p) for t, x in zip(ts, pt)
        ]


# benchmarks/workloads.py still builds its parameters under the former name
PcpParams = SumcheckParams


@dataclass(frozen=True, eq=False)
class ProofOracle:
    """A proof: its parameters and its wire image, exactly the bytes
    ``serialize_proof`` returns, in a read-only memoryview (format ``B``).

    The tables are read-only int64 views cut from ``wire`` once: sigma[i] has
    shape (p,) * i; q and t_i, (p,) * m. ``sigma`` and ``t`` return fresh
    lists of them. Build a proof with ``prove``, ``deserialize_proof`` or
    ``proof_from_tables``; the wire must start with the header of ``params``.
    Proofs compare by identity; compare ``bytes(proof.wire)`` for the bytes.
    """

    params: SumcheckParams
    wire: memoryview = field(repr=False)
    q: np.ndarray = field(init=False, repr=False)
    _sigma: tuple = field(init=False, repr=False)
    _t: tuple = field(init=False, repr=False)

    def __post_init__(self):
        p, m = self.params.p, self.params.m
        lead, total = _wire_lead(self.params), _table_words(p, m)
        wire = self.wire
        if not wire.readonly or len(wire) != len(lead) + 8 * total or wire[: len(lead)] != lead:
            raise ValueError("the wire is not a read-only image of the parameters")
        tables = _split_tables(np.frombuffer(wire, "<i8", total, len(lead)), p, m)
        object.__setattr__(self, "_sigma", tuple(tables[: m + 1]))
        object.__setattr__(self, "q", tables[m + 1])
        object.__setattr__(self, "_t", tuple(tables[m + 2 :]))

    @property
    def sigma(self) -> list[np.ndarray]:
        return list(self._sigma)

    @property
    def t(self) -> list[np.ndarray]:
        return list(self._t)

    # The reads return Python ints and raise ValueError on a point no proof
    # holds, except that q_at and t_at wrap a negative coordinate as numpy
    # does: checking each coordinate of every read added 1.3-1.5 ms to a
    # 5674-read W1 verify. ``item`` takes a one-coordinate point as a flat
    # index, so their arity is checked before it. t_at refuses a table index
    # outside [0, m): a negative one would wrap like a coordinate.
    def sigma_at(self, pt: Point) -> int:
        p, m = self.params.p, self.params.m
        if len(pt) > m or not all(0 <= c < p for c in pt):
            raise ValueError(f"sigma is read at points of arity at most {m} in [0, {p})")
        return self._sigma[len(pt)].item(pt)

    def q_at(self, pt: Point) -> int:
        if len(pt) != self.params.m:
            raise ValueError(_MASK_READ)
        try:
            return self.q.item(pt)
        except IndexError:
            raise ValueError(_MASK_READ) from None

    def t_at(self, i: int, pt: Point) -> int:
        if i < 0 or len(pt) != self.params.m:
            raise ValueError(_t_read(i, self.params.m))
        try:
            return self._t[i].item(pt)
        except IndexError:
            raise ValueError(_t_read(i, self.params.m)) from None


_MASK_READ = "mask tables are read at full-arity points with coordinates below p"


def _t_read(i: int, m: int) -> str:
    """Why ``t_at(i, pt)`` refused a read: no table i, else a bad point."""
    if 0 <= i < m:
        return _MASK_READ
    return f"no mask table t{i}: the tables are t0..t{m - 1}"


def _table_shapes(p: int, m: int) -> list[tuple[int, ...]]:
    """The table shapes in wire order: sigma_0..sigma_m, Q, T_0..T_{m-1}."""
    return [(p,) * i for i in range(m + 1)] + [(p,) * m] * (m + 1)


def _table_words(p: int, m: int) -> int:
    return sum(math.prod(shape) for shape in _table_shapes(p, m))


def _wire_lead(params: SumcheckParams) -> bytes:
    """MAGIC and the u64 header: the wire bytes before the tables."""
    head = [params.p, params.m, params.d, len(params.h), *params.h,
            len(params.nodes), *params.nodes]
    return struct.pack(f"<4s{len(head)}Q", MAGIC, *head)


def _refs(pool: list, i: int) -> int:
    return sys.getrefcount(pool[i])


def _free_count() -> int:
    """_refs of an image only the pool holds, if every count agrees; 0 (never
    reuse) where references cannot be counted, or are counted while another
    thread changes them (no GIL)."""
    if not hasattr(sys, "getrefcount") or not getattr(sys, "_is_gil_enabled", lambda: True)():
        return 0
    counts = {_refs([np.empty(0, np.uint8)], 0) for _ in range(64)}
    return counts.pop() if len(counts) == 1 else 0


# The last two images _new_image handed out. One that only this list holds
# (_refs == _FREE) is free: numpy views and exported buffers all hold the
# owning array, so no proof, table or memoryview can reach it.
_POOL: list[np.ndarray] = []
_POOL_LOCK = threading.Lock()
_FREE = _free_count()


def _pooled(size: int) -> np.ndarray:
    """A writable uint8 buffer of ``size`` bytes, with stale contents: the
    latest free pooled image of that size, whose pages are already mapped
    (every other free one of that size is dropped), else a new array."""
    with _POOL_LOCK:
        free = [
            i for i in range(len(_POOL))
            if _FREE and _POOL[i].size == size and _refs(_POOL, i) == _FREE
        ]
        if free:
            buf = _POOL[free[-1]]
            _POOL[:] = [b for i, b in enumerate(_POOL) if i not in free]
            buf.flags.writeable = True
        else:
            buf = np.empty(size, np.uint8)
        _POOL.append(buf)
        del _POOL[:-2]
    return buf


def _new_image(params: SumcheckParams) -> tuple[np.ndarray, list[np.ndarray]]:
    """One uint8 buffer for a whole proof, and writable int64 views of its
    tables in wire order; the only place proof images are allocated.

    The buffer is 4 spare bytes, MAGIC, the header as u64 words, then the
    tables, so ``buf[4:]`` is the wire image and every word after MAGIC sits
    on an 8-byte boundary. One allocation keeps the page faults of a large
    proof down (numpy asks for huge pages), and reusing a freed image
    (``_pooled``) avoids them: every caller writes each table byte.
    """
    lead = _wire_lead(params)
    buf = _pooled(4 + len(lead) + 8 * _table_words(params.p, params.m))
    buf[4 : 4 + len(lead)] = np.frombuffer(lead, np.uint8)
    return buf, _split_tables(buf[4 + len(lead) :].view("<i8"), params.p, params.m)


def _split_tables(words: np.ndarray, p: int, m: int) -> list[np.ndarray]:
    """The tables of a flat word array, as views in wire order."""
    shapes = _table_shapes(p, m)
    parts = np.split(words, np.cumsum([math.prod(shape) for shape in shapes])[:-1])
    return [part.reshape(shape) for part, shape in zip(parts, shapes)]


def _frozen(params: SumcheckParams, buf: np.ndarray) -> ProofOracle:
    """The proof whose wire image is ``buf[4:]``, frozen for good: a view of
    a read-only buffer cannot be made writable again."""
    buf.flags.writeable = False
    return ProofOracle(params, memoryview(buf)[4:])


def proof_from_tables(params: SumcheckParams, sigma, q, t) -> ProofOracle:
    """The proof over the given tables, copied once into an image of its own,
    for corruption experiments. The tables must have the shapes ``params``
    implies. Entries are written as two's complement 64-bit words, so the
    decoder refuses any outside [0, p)."""
    tables = [*sigma, q, *t]
    if [np.shape(x) for x in tables] != _table_shapes(params.p, params.m):
        raise ValueError("proof tables do not have the shapes of their parameters")
    buf, slots = _new_image(params)
    for slot, x in zip(slots, tables):
        slot[...] = x
    return _frozen(params, buf)


# entries per block of _grid_eval's last contraction: its float buffer holds
# two blocks (1 MB in float64) wherever a row fits, small enough for cache
GRID_BLOCK = 1 << 16


def _grid_dtype(k: int, p: int):
    if k * p * p >= 2**53:
        raise ValueError("grid evaluation would exceed exact float64 range")
    return np.float32 if k * p * p < 2**24 else np.float64


def _grid_eval(poly: MultiPoly, p: int, out=None) -> np.ndarray:
    """Evaluation table over the full grid F^m: int64, C-contiguous.

    Axes are contracted last to first, so the last contraction (axis 0)
    leaves C order. With k the largest axis length, each contraction runs in
    float32 if k*p^2 < 2^24, else in float64 (k*p^2 < 2^53), and is exact:
    every partial sum is an integer below 2^24 (resp. 2^53), whatever order
    BLAS sums in, and the error of x/p is at most half an ulp of k*p < 1/p,
    so x - p*floor(x/p) is exact.

    The last, full-size contraction runs in blocks of whole rows of the
    (p, p^(m-1)) result, at most GRID_BLOCK entries (or one row, where a
    row is longer), through one small float buffer that every block reuses:
    the product, the reduction and the int64 cast of a block stay in cache,
    and only the int64 words reach memory. Blocking cannot change a bit,
    since each entry is exact on its own. The blocks run on one thread: on
    a 2-vCPU VM, two threads sped numpy up by only 1.01-1.81x, a W1 prove
    took 10.3-26.3 ms (sometimes slower than one thread) and an m=2 prove
    went from 1.0 to 3.0-3.4 ms.

    The table is written into ``out`` (C-contiguous, shape (p,) * m) when
    given.
    """
    c = poly.coeffs
    dtype = _grid_dtype(max(c.shape, default=1), p)
    if out is None:
        out = np.empty((p,) * poly.m, np.int64)
    elif not out.flags.c_contiguous:
        raise ValueError("the grid table must be written into a C-contiguous array")
    c = c.astype(dtype)
    if poly.m == 0:
        np.copyto(out, c, casting="unsafe")
        return out
    for axis in reversed(range(1, poly.m)):
        v = power_table(p, c.shape[axis] - 1).astype(dtype)
        moved = np.moveaxis(c, axis, 0)
        flat = moved.reshape(moved.shape[0], -1)
        prod = v @ flat
        prod -= p * np.floor(prod / p)
        c = np.moveaxis(prod.reshape((p,) + moved.shape[1:]), 0, axis)
    v = power_table(p, c.shape[0] - 1).astype(dtype)
    flat = c.reshape(c.shape[0], -1)
    n = flat.shape[1]
    dest = out.reshape(p, n)
    rows = max(1, GRID_BLOCK // n)
    pair = np.empty((2, rows * n), dtype)
    for i in range(0, p, rows):
        r = min(rows, p - i)
        prod, quot = pair[:, : r * n].reshape(2, r, n)
        np.matmul(v[i : i + r], flat, out=prod)
        np.divide(prod, p, out=quot)
        np.floor(quot, out=quot)
        quot *= p
        np.subtract(prod, quot, out=dest[i : i + r], casting="unsafe")
    return out


def _mask_table(
    params: SumcheckParams, f: MultiPoly, q: MultiPoly, ts: list[MultiPoly], out
) -> np.ndarray:
    """Table of the masked word F + Q - Q(rev) + sum Z_H(X_i) T_i.

    The word is summed in the coefficient domain (individual degree <= d)
    and evaluated over F^m once, into ``out`` (see ``_grid_eval``).
    """
    p, m = params.p, params.m
    zh = univariate_from_roots(params.h, p)
    word = f.add(q).sub(q.reverse_vars())
    for i, t in enumerate(ts):
        shape = [1] * m
        shape[i] = zh.size
        word = word.add(t.mul(MultiPoly(p, zh.reshape(shape))))
    return _grid_eval(word, p, out)


def _sum_tables(layers: list[np.ndarray], params: SumcheckParams):
    """Fill layers[m-1..0] in place with the prefix sums over suffix cubes of
    the summation set; ``layers[m]`` is the masked word's table, whose
    entries are field elements."""
    h = list(params.h)
    for i in range(params.m - 1, -1, -1):
        np.sum(layers[i + 1][..., h], axis=-1, out=layers[i])
        np.remainder(layers[i], params.p, out=layers[i])


def prove(f_poly: MultiPoly, params: SumcheckParams, rng) -> ProofOracle:
    """Sample the mask and emit the full proof tables.

    Q is uniform of individual degree d; each T_i is uniform with the degree
    in axis i reduced by |H|; the mask is Q - Q(rev) + sum Z_H(X_i) T_i.

    The tables are written straight into the proof's wire image, which is
    then frozen.
    """
    p, m, d = params.p, params.m, params.d
    if p**m > TABLE_CAP:
        raise ValueError("dense proof tables exceed the size cap")
    if f_poly.m != m:
        raise ValueError(f"instance polynomial has arity {f_poly.m}, expected {m}")
    if any(dd > d for dd in f_poly.degree_vector):
        raise ValueError("instance polynomial degree exceeds d")
    q, *ts = (
        MultiPoly(p, params.fld.sample_array(rng, tuple(dd + 1 for dd in dv)))
        for _, dv in params.tables
    )
    buf, tables = _new_image(params)
    _mask_table(params, f_poly, q, ts, tables[m])
    _sum_tables(tables[: m + 1], params)
    for poly, slot in zip([q, *ts], tables[m + 1 :]):
        _grid_eval(poly, p, slot)
    return _frozen(params, buf)


@dataclass
class VerifyResult:
    accepted: bool
    reason: str
    queries: list[tuple[str, Point, int]] = field(default_factory=list)
    path: tuple[int, ...] = ()


@lru_cache(maxsize=64)
def _extension(nodes: tuple[int, ...], p: int) -> np.ndarray:
    """Read-only p x len(nodes) matrix E: E @ values is the interpolant
    through (nodes, values) evaluated at every x in [0, p)."""
    e = power_table(p, len(nodes) - 1) @ _inverse_vandermonde(nodes, p) % p
    e.flags.writeable = False
    return e


def line_test_count(params: SumcheckParams) -> int:
    """Axis-parallel lines per table for the degree tests."""
    return math.ceil(4 * (params.m + 2) * math.log(2))


def verify(
    f_eval: Callable[[Point], int],
    params: SumcheckParams,
    proof: ProofOracle,
    rng,
    gamma: int,
    path: Optional[tuple[int, ...]] = None,
    line_choices: Optional[list[list[tuple[int, Point]]]] = None,
) -> VerifyResult:
    """Unrolled sumcheck along one random path plus per-table line tests.

    The proof's total-sum entry must match the claimed total ``gamma``.
    ``path`` and ``line_choices`` may be injected for exhaustive sweeps;
    they default to fresh uniform coins from rng.
    """
    p, m, nodes = params.p, params.m, params.nodes
    fld = params.fld
    log: list[tuple[str, Point, int]] = []
    readers = dict(zip(
        params.oracles,
        [proof.sigma_at, proof.q_at] + [partial(proof.t_at, i) for i in range(m)],
    ))

    def ask(oracle: str, pt: Point) -> int:
        v = readers[oracle](pt)
        log.append((oracle, pt, v))
        return v

    gamma_claim = ask("sigma", ())
    if gamma_claim != gamma % p:
        return VerifyResult(False, "claimed total mismatch", log)
    if path is None:
        path = tuple(fld.sample(rng) for _ in range(m))
    prev = gamma_claim
    ext = _extension(nodes, p)
    for i in range(m):
        vals = [ask("sigma", path[:i] + (x,)) for x in nodes]
        # the nodes are 0..d, so H indexes its own values
        if sum(vals[a] for a in params.h) % p != prev:
            return VerifyResult(False, f"sum check failed at round {i + 1}", log, path)
        prev = int(ext[path[i]] @ vals) % p
    r_val = sum(w * ask(*c) for c, w in params.mask_terms(path))
    if (f_eval(path) + r_val) % p != prev:
        return VerifyResult(False, "final consistency check failed", log, path)

    # F^0 is one point, with no line to test
    r_lines = line_test_count(params) if m else 0
    for k, (name, dv) in enumerate(params.tables):
        read = readers[name]
        for j in range(r_lines):
            if line_choices is not None:
                axis, base = line_choices[k][j]
            else:
                axis = rng.randrange(m)
                base = tuple(fld.sample(rng) for _ in range(m))
            line = (range(p) if j == axis else repeat(base[j], p) for j in range(m))
            pts = list(zip(*line))
            vals = list(map(read, pts))
            log.extend(zip(repeat(name, p), pts, vals))
            deg = dv[axis]
            got = np.asarray(vals, dtype=np.int64) % p
            if not np.array_equal(_extension(nodes[: deg + 1], p) @ got[: deg + 1] % p, got):
                return VerifyResult(
                    False, f"degree test failed on {name} axis {axis}", log, path
                )
    return VerifyResult(True, "accept", log, path)


class ViewState:
    """The coordinates of a simulated view and the rows that tie them.

    A coordinate is (oracle, point), named as the verifier names its queries:
    "sigma", "q" or "t<i>". Coordinates are indexed in the order they entered
    the view, and every row is a dense vector over that index. The simulator
    samples the coordinates each query brings in; the audit accumulates the
    same rows symbolically, so both run this one activation rule.
    """

    def __init__(
        self,
        params: SumcheckParams,
        f_eval: Callable[[Point], int],
        gamma: int,
        include_mask_row: bool = True,
    ):
        if params.m < 1:
            raise ValueError("the simulator needs m >= 1: an arity-0 proof word has no view")
        self.params = params
        # F at each point evaluated so far. The spec's message oracle and the
        # mask rows both read F through ``f_at``, a closure rather than a
        # method, so the spec holds no reference back to the view.
        f_vals: dict[Point, int] = {}

        def f_at(pt: Point) -> int:
            """F(pt), evaluated once per point over the view and its forks."""
            if pt not in f_vals:
                f_vals[pt] = f_eval(pt)
            return f_vals[pt]

        self.f_vals, self.f_at = f_vals, f_at
        self.include_mask_row = include_mask_row
        self.spec: EncodingSpec = enc_pcp_spec(
            params.fld, params.m, params.d, params.h, f_at, gamma
        )
        self.coords: list[Coord] = []
        self.index: dict[Coord, int] = {}
        # where the coordinates of the latest admission start in ``coords``
        self.start = 0

    def fork(self) -> "ViewState":
        """An independent copy, for continuing the view along another branch.

        The copy shares the spec's located layers and ``f_vals``: both hold
        pure functions of the parameters and the points, so they stay valid
        on every branch.
        """
        other = copy.copy(self)
        other.coords = list(self.coords)
        other.index = dict(self.index)
        return other

    def points(self, oracle: str) -> list[Point]:
        return [pt for o, pt in self.coords if o == oracle]

    def cols(self, oracle: str, pts) -> list[int]:
        return [self.index[(oracle, pt)] for pt in pts]

    def admit(self, c: Coord) -> int:
        """Bring a coordinate into the view with the coordinates that enter
        with it; returns how many entered (0 if it was already in the view).
        """
        if c in self.index:
            return 0
        self.start = len(self.coords)
        pt = c[1]
        entering = [("sigma", pt)]
        # Any full-arity point entering the view materialises its mask
        # coordinates: the pointwise mask identity entangles the proof word
        # with the tables there, and committing the latent values now (drawn
        # from their exact conditional) is just lazy sampling of the
        # prover's randomness. They enter in table order, each table's
        # points sorted: the simulator's draws depend on this order.
        if len(pt) == self.params.m:
            rank = self.params.oracles.index
            fresh = {c for c, _ in self.params.mask_terms(pt) if c not in self.index}
            entering += sorted(fresh, key=lambda c: (rank(c[0]), c[1]))
        for e in entering:
            self.index[e] = len(self.coords)
            self.coords.append(e)
        return len(entering)


INCONSISTENT = "simulator system inconsistent; detector bug"


class SimulatorSession:
    """Exact simulator for the proof oracles on a true statement.

    Every answer is drawn from the conditional distribution given the whole
    current view: the accumulated system of detector rows for each mask
    table, one mask-consistency row per full-arity proof-word point and,
    at steps whose view holds a proof-word point of arity < m, the composed
    locator's rows for the proof word (see ``gather_state_rows``).
    Conditioning on the proof-word part alone would not be exact, because
    mask-table reads can pin the proof word at fresh points (read one full
    T-table line at arity one, or both orientations of Q plus the T values
    at a point), so each new value is solved jointly against everything
    already answered.

    ``messages_read`` holds the message positions (``()`` for the claimed
    total, cube points for F) whose values the composed locator's rows
    read. A step on a view of only full-arity points reads none: its mask
    row evaluates F at the queried point alone, which is no message read.
    """

    def __init__(
        self,
        params: SumcheckParams,
        f_eval: Callable[[Point], int],
        gamma: int,
        rng,
    ):
        self.params = params
        self.gamma = gamma % params.p
        self.rng = rng
        self.view = ViewState(params, f_eval, self.gamma)
        total = 0
        for pt in params.cube.points():
            total = (total + self.view.f_at(pt)) % params.p
        if total != self.gamma:
            raise ValueError("simulator is only defined on true statements")
        # values[j] answers view.coords[j]
        self.values: list[int] = []
        self.messages_read: set[Point] = set()
        self.transcript: list[tuple[str, Point, int]] = []

    def query(self, oracle: str, pt: Point) -> int:
        c = self.params.coord(oracle, pt)
        if len(self.values) < len(self.view.coords):
            # a failed _extend admitted coordinates it could not answer
            raise RuntimeError(INCONSISTENT)
        if c not in self.view.index:
            self._extend(c)
        val = self.values[self.view.index[c]]
        self.transcript.append((oracle, c[1], val))
        return val

    def _cache_of(self, oracle: str) -> dict[Point, int]:
        """The answered points of one oracle, with their values."""
        return {
            pt: v for (o, pt), v in zip(self.view.coords, self.values) if o == oracle
        }

    def _extend(self, c: Coord):
        self.view.admit(c)
        a, b, reads = gather_state_rows(self.view)
        self.messages_read.update(reads)
        sol = sample_affine(a, b, self.values, self.params.p, self.rng)
        if sol is None:
            raise RuntimeError(INCONSISTENT)
        self.values.extend(int(v) for v in sol)


def gather_state_rows(view: ViewState):
    """The linear relations the view's latest admission adds.

    Rows are dense over ``view.coords``: the detector rows of each mask
    table that just gained a point, the mask-consistency row of a
    full-arity proof-word point that just entered and, on a view that holds
    a proof-word point of arity < m (or drops the mask rows), the composed
    locator's constraints on the whole proof word (message values
    substituted). Every other row of the view was gathered at an earlier
    step of the same lineage, over earlier coordinates only, so these rows
    stacked on the earlier steps' have the solution set of the whole view's.

    On a view whose proof-word points all have arity m, the composed rows
    are implied by the rest: there Σ(pt) = F(pt) + mask(pt), with Q and the
    Tᵢ independent uniform Reed-Muller codewords, so the mask rows and each
    table's full detector basis already span the dual of the view's law.
    Such a step reads no message position. Returns (A, b, message positions
    read) for the system A x = b.
    """
    sig_pts = sort_points(view.points("sigma"))
    a_sig, b_sig, reads = np.zeros((0, len(sig_pts)), np.int64), np.zeros(0, np.int64), ()
    if not view.include_mask_row or any(len(q) < view.params.m for q in sig_pts):
        a_sig, b_sig, reads = constraint_rows_for(view.spec, sig_pts)
    sig_rows = np.zeros((len(a_sig), len(view.coords)), dtype=np.int64)
    sig_rows[:, view.cols("sigma", sig_pts)] = a_sig
    table_rows = build_table_rows(view)
    new = view.coords[view.start :]
    full = [pt for o, pt in new if o == "sigma" and len(pt) == view.params.m]
    masks = [mask_row(view, pt) for pt in full] if view.include_mask_row else []
    a = np.vstack([sig_rows, table_rows] + [row for row, _ in masks])
    b = np.concatenate(
        [
            b_sig,
            np.zeros(len(table_rows), dtype=np.int64),
            np.array([rhs for _, rhs in masks], dtype=np.int64),
        ]
    )
    return a, b, reads


def build_table_rows(view: ViewState) -> np.ndarray:
    """Detector rows of each mask table that the latest admission gave a
    point, over all of that table's points in the view."""
    params = view.params
    gained = {o for o, _ in view.coords[view.start :]}
    blocks = [np.zeros((0, len(view.coords)), dtype=np.int64)]
    for oracle, dv in params.tables:
        if oracle in gained:
            cb = cd_rm(CodeView(params.fld, params.m, dv), sorted(view.points(oracle)))
            rows = np.zeros((len(cb.z), len(view.coords)), dtype=np.int64)
            rows[:, view.cols(oracle, cb.domain)] = cb.z
            blocks.append(rows)
    return np.vstack(blocks)


def mask_row(view: ViewState, pt: Point) -> tuple[np.ndarray, int]:
    """mask(pt) - sigma(pt) = -F(pt), the mask as ``params.mask_terms``."""
    row = np.zeros(len(view.coords), dtype=np.int64)
    for c, w in view.params.mask_terms(pt):
        row[view.index[c]] += w
    row[view.index[("sigma", pt)]] = -1
    return row % view.params.p, (-view.f_at(pt)) % view.params.p


def serialize_proof(proof: ProofOracle) -> memoryview:
    """MAGIC, the u64 header, then every table as little-endian 64-bit words.

    Returns the proof's wire image, a read-only memoryview (format ``B``) of
    exactly the wire bytes, with no copy; call ``bytes()`` on it for a
    ``bytes``. Entries are two's complement words; the decoder refuses any
    outside [0, p).
    """
    return proof.wire


def deserialize_proof(blob) -> ProofOracle:
    """Parse a serialised proof; any malformed input raises ValueError.

    ``blob`` is any bytes-like object; anything else raises TypeError before
    anything is allocated. The header is checked with Python ints before any
    table is read or the modulus is tested for primality: the tables it
    implies must fit the dense size cap and fill the rest of the blob
    exactly. Every table entry must then be a field element.

    The proof's wire is the blob itself only when the blob cannot change
    while anything references it: a ``bytes``, or a read-only view of a
    read-only numpy array that owns its memory, which is what
    ``serialize_proof`` returns (a proof image is reused only once nothing
    references it, and up to two freed images stay resident; see
    ``_pooled``). Then ``serialize_proof`` of the result returns that memory
    again. Every other buffer is copied first, into an image of its own laid
    out as ``prove`` lays it out (so the words are 8-byte aligned), and the
    checked entries cannot change under the tables.
    """
    blob = memoryview(blob)
    if not blob.c_contiguous:
        # a private bytes copy, in the blob's logical byte order
        blob = memoryview(blob.tobytes())
    owner = blob.obj
    fixed = type(owner) is bytes or (
        blob.readonly
        and type(owner) is np.ndarray
        and owner.flags.owndata
        and not owner.flags.writeable
    )
    blob = blob.cast("B")
    if blob[:4] != MAGIC:
        raise ValueError("bad proof magic")
    off = 4

    def take(n: int) -> list[int]:
        nonlocal off
        if n > (len(blob) - off) // 8:
            raise ValueError("truncated proof header")
        vals = struct.unpack_from(f"<{n}Q", blob, off)
        off += 8 * n
        return list(vals)

    p, m, d, hn = take(4)
    h = take(hn)
    nodes = take(take(1)[0])
    if m > 64 or p ** max(m, 1) > TABLE_CAP:
        raise ValueError("dense proof tables exceed the size cap")
    total = _table_words(p, m)
    if len(blob) - off != 8 * total:
        raise ValueError("proof length does not match its header")
    params = SumcheckParams(p, m, d, tuple(h))
    if params.h != tuple(h):
        raise ValueError("summation set must be strictly increasing")
    if params.nodes != tuple(nodes):
        raise ValueError("the reading nodes must be 0..d")
    if fixed:
        proof = ProofOracle(params, blob)
    else:
        # the header just parsed is written afresh; only the tables are copied
        buf, _ = _new_image(params)
        buf[4 + off :] = np.frombuffer(blob, np.uint8, 8 * total, off)
        proof = _frozen(params, buf)
    if int(np.frombuffer(proof.wire, "<u8", total, off).max()) >= p:
        raise ValueError("proof entry is not a field element")
    return proof


@dataclass(frozen=True)
class SharpSatPcp:
    """Parameters and instance bundle for the #SAT specialisation."""

    cnf: CnfInstance
    claimed_count: int
    params: SumcheckParams
    poly: MultiPoly

    @property
    def gamma(self) -> int:
        return self.claimed_count % self.params.p

    def f_eval(self, pt: Point) -> int:
        return self.poly.eval(pt)

    def prove(self, rng) -> ProofOracle:
        return prove(self.poly, self.params, rng)

    def verify(self, proof: ProofOracle, rng) -> VerifyResult:
        return verify(self.f_eval, self.params, proof, rng, gamma=self.gamma)


def pcp_for_sharp_sat(
    cnf: CnfInstance, claimed_count: int, p: Optional[int] = None
) -> SharpSatPcp:
    """Choose parameters for a CNF instance and bind the claim.

    The claimed count must lie in [0, 2^n] and the modulus must exceed the
    soundness threshold 10 m d, 2^n (so the claimed count cannot alias) and
    d (so the reading nodes 0..d are field elements; this binds only at
    n = 0); a user-supplied smaller prime is rejected. A formula whose
    arithmetization, a dense tensor with one axis of occ_i + 1 entries per
    variable, would exceed TABLE_CAP entries is refused before it is built.
    """
    m = cnf.num_vars
    if not 0 <= claimed_count <= 2**m:
        raise ValueError(f"claimed count {claimed_count} is outside [0, 2^{m}]")
    occurrences = [0] * m
    for clause in cnf.clauses:
        for lit in clause:
            occurrences[abs(lit) - 1] += 1
    d = max(3, max(occurrences, default=0))
    floor = max(10 * m * d, 2**m, d)
    if p is None:
        p = next_prime(floor)
    elif p <= floor:
        raise ValueError(f"modulus must be a prime above {floor}")
    params = SumcheckParams(p, m, d, (0, 1))  # bounds p, then tests primality
    assert params.meets_soundness_bound
    entries = math.prod(n + 1 for n in occurrences)
    if entries > TABLE_CAP:
        raise ValueError(
            f"the formula's arithmetization has {entries} coefficients, above the cap {TABLE_CAP}"
        )
    poly = arithmetize(cnf, p)
    return SharpSatPcp(cnf, claimed_count, params, poly)


def prove_shifted(bundle: SharpSatPcp, rng) -> ProofOracle:
    """Honest-structure cheating prover for a wrong claimed count.

    Proves F + (claim - truth) * L where L is the product of the Lagrange
    indicators of the first summation node, so the forged word sums to the
    claim; every table stays a genuine polynomial and only the final
    consistency check can expose the shift.
    """
    params = bundle.params
    p = params.p
    truth = bundle.cnf.model_count() % p
    delta = (bundle.gamma - truth) % p
    shift = lagrange(params.cube, (params.h[0],) * params.m, p)
    forged = bundle.poly.add(shift.scale(delta))
    return prove(forged, params, rng)
