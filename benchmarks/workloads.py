"""The three benchmark workloads: inputs from a seed, one operation, checks.

Every workload runs closed-loop in one process: operation i starts after
operation i - 1 has returned. Operation i draws its coins from (seed, i)
alone, so the same seed replays the same inputs and outputs, and a traced
pass can repeat an untraced pass exactly.
"""
from __future__ import annotations

import hashlib
import random
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np


def coins(seed: int, i: int, role: str) -> random.Random:
    """The random stream of one role in operation i of a run."""
    return random.Random(f"zkpcp-bench/{seed}/{i}/{role}")


@dataclass
class Run:
    """What a pass over a workload recorded: timings, failures, outcomes."""

    samples: dict = field(default_factory=lambda: defaultdict(list))
    attempted: int = 0
    failed: int = 0
    errors: Counter = field(default_factory=Counter)
    problems: list = field(default_factory=list)
    # one hash per operation, so two passes over the same ops can be compared
    outcomes: list = field(default_factory=list)
    # outputs of the once-per-run checks, folded into the digest
    check_outputs: list = field(default_factory=list)
    wall_s: float = 0.0

    def fail(self, exc: BaseException):
        self.failed += 1
        self.errors[type(exc).__name__] += 1

    def problem(self, msg: str):
        if len(self.problems) < 20:
            self.problems.append(msg)

    def outcome(self, *parts):
        self.outcomes.append(hashlib.sha256(repr(parts).encode()).hexdigest())

    def digest(self, ops: int) -> str:
        """Hash of the check outputs and the first ``ops`` operation outcomes."""
        text = repr(self.check_outputs) + "".join(self.outcomes[:ops])
        return hashlib.sha256(text.encode()).hexdigest()


def _random_poly(poly_mod, rng: random.Random, p: int, shape) -> object:
    size = int(np.prod(shape))
    coeffs = np.array([rng.randrange(p) for _ in range(size)], dtype=np.int64)
    return poly_mod.MultiPoly(p, coeffs.reshape(shape))


def _cube_total(params, f) -> int:
    return sum(f.eval(pt) for pt in params.cube.points()) % params.p


class Workload:
    name = ""
    unit = ""
    op_sample = ""  # the timing that op_ms_p50 reports
    min_ops = 1
    digest_ops = 1

    def build(self, zk, seed: int) -> dict:
        raise NotImplementedError

    def precheck(self, zk, inputs, run: Run):
        """Checks made once per run before the timed loop."""

    def op(self, zk, inputs, i: int, run: Run):
        raise NotImplementedError


class SharpSat(Workload):
    """Honest #SAT trials at the acceptance parameters p=101, m=3, d=3: the
    prover, the proof I/O and the verifier's reads do all the work."""

    name = "sharp_sat"
    unit = "trial"
    op_sample = "trial"
    min_ops = 5
    digest_ops = 5
    pool = 16

    def random_cnf(self, pcp, rng: random.Random):
        """A 3-variable CNF in which each variable occurs in at most 3 clauses."""
        uses = [0, 0, 0]
        clauses = []
        for _ in range(rng.randint(2, 5)):
            free = [v for v in range(3) if uses[v] < 3]
            if not free:
                break
            chosen = sorted(rng.sample(free, rng.randint(1, min(3, len(free)))))
            for v in chosen:
                uses[v] += 1
            clauses.append(tuple((v + 1) * rng.choice((1, -1)) for v in chosen))
        return pcp.CnfInstance(3, tuple(clauses))

    def build(self, zk, seed: int) -> dict:
        bundles = []
        for k in range(self.pool):
            cnf = self.random_cnf(zk.pcp, coins(seed, k, "cnf"))
            bundles.append(zk.pcp.pcp_for_sharp_sat(cnf, cnf.model_count(), p=101))
        return {"seed": seed, "bundles": bundles}

    def precheck(self, zk, inputs, run: Run):
        """serialize_proof(deserialize_proof(b)) == b, byte for byte."""
        proof = inputs["bundles"][0].prove(coins(inputs["seed"], -1, "prover"))
        blob = zk.pcp.serialize_proof(proof)
        if zk.pcp.serialize_proof(zk.pcp.deserialize_proof(blob)) != blob:
            run.problem("serialize_proof(deserialize_proof(b)) != b")
        run.check_outputs.append(hashlib.sha256(blob).hexdigest())

    def op(self, zk, inputs, i: int, run: Run):
        bundle = inputs["bundles"][i % self.pool]
        seed = inputs["seed"]
        t0 = perf_counter()
        proof = bundle.prove(coins(seed, i, "prover"))
        t1 = perf_counter()
        blob = zk.pcp.serialize_proof(proof)
        t2 = perf_counter()
        back = zk.pcp.deserialize_proof(blob)
        t3 = perf_counter()
        result = bundle.verify(back, coins(seed, i, "verifier"))
        t4 = perf_counter()
        run.samples["prove"].append(t1 - t0)
        run.samples["proof_io"].append(t3 - t1)
        run.samples["verify"].append(t4 - t3)
        run.samples["trial"].append(t4 - t0)
        # serialize_proof is a function of (params, tables), so equal tables
        # imply serialize_proof(deserialize_proof(blob)) == blob, which
        # precheck() confirms byte for byte once per run.
        same = back.params == proof.params and all(
            np.array_equal(a, b)
            for a, b in zip(
                back.sigma + [back.q] + back.t, proof.sigma + [proof.q] + proof.t
            )
        )
        if not result.accepted:
            run.problem(f"trial {i}: honest proof rejected ({result.reason})")
        if not same:
            run.problem(f"trial {i}: deserialized proof differs from the proof")
        run.failed += not (result.accepted and same)
        proof_hash = hashlib.sha256(blob).hexdigest() if i < self.digest_ops else ""
        run.outcome(proof_hash, result.accepted, result.queries)


class SimulatedProof:
    """Proof-oracle adapter that answers the verifier from a simulator session.

    Times every query the verifier asks for the first time.
    """

    def __init__(self, session):
        self.session = session
        self.asked: set = set()
        self.first_query_s: list[float] = []

    def _ask(self, oracle: str, pt) -> int:
        key = (oracle, pt)
        if key in self.asked:
            return self.session.query(oracle, pt)
        t0 = perf_counter()
        val = self.session.query(oracle, pt)
        self.first_query_s.append(perf_counter() - t0)
        self.asked.add(key)
        return val

    def sigma_at(self, pt) -> int:
        return self._ask("sigma", pt)

    def q_at(self, pt) -> int:
        return self._ask("q", pt)

    def t_at(self, i: int, pt) -> int:
        return self._ask(f"t{i}", pt)


class SimView(Workload):
    """The honest verifier reading a simulated proof at m=2, p=7: simulator
    rows, locators, detectors and rref do the work; the prover does none."""

    name = "sim_view"
    unit = "session"
    op_sample = "view"
    min_ops = 4
    digest_ops = 4
    pool = 128

    def build(self, zk, seed: int) -> dict:
        params = zk.pcp.PcpParams(7, 2, 3, (0, 1))
        instances = []
        for k in range(self.pool):
            f = _random_poly(zk.poly, coins(seed, k, "instance"), 7, (4, 4))
            instances.append((f, _cube_total(params, f)))
        return {"seed": seed, "params": params, "instances": instances}

    def op(self, zk, inputs, i: int, run: Run):
        params, seed = inputs["params"], inputs["seed"]
        f, gamma = inputs["instances"][i % self.pool]
        session = None
        t0 = perf_counter()
        try:
            session = zk.pcp.SimulatorSession(
                params, f.eval, gamma, coins(seed, i, "simulator")
            )
            view = SimulatedProof(session)
            result = zk.pcp.verify(
                f.eval, params, view, coins(seed, i, "verifier"), gamma=gamma
            )
        except Exception as exc:  # a crashed session is a measured failure
            run.fail(exc)
            transcript = session.transcript if session is not None else []
            run.outcome(type(exc).__name__, transcript)
            return
        t1 = perf_counter()
        run.samples["view"].append(t1 - t0)
        run.samples["query"].extend(view.first_query_s)
        if not result.accepted:
            run.failed += 1
            run.problem(f"session {i}: simulated view rejected ({result.reason})")
        run.outcome(result.accepted, session.transcript)


class ZkAudit(Workload):
    """Exact audits of small adaptive scripts at m=3, p=5: many small
    eliminations, where per-call overhead dominates, plus the real law."""

    name = "zk_audit"
    # One operation is a battery of scripts, as `zkpcp audit-zk --battery`
    # runs them. Script costs spread over two orders of magnitude, so a
    # battery drawn at random costs between half and twice its median. To
    # make every operation the same work, the battery is fixed: one fixed
    # draw of script_battery (the 4 fixed sensitive scripts plus 496 random
    # ones), ranked by resolved step count, gives the script at the middle
    # rank of each twentieth. The seed draws the instance.
    unit = "battery of 20 scripts"
    op_sample = "battery"
    size = 20
    min_ops = 2
    digest_ops = 2
    corpus = 500
    corpus_seed = 0
    sensitive = 4  # the corpus's fixed scripts that a broken simulator fails

    def build(self, zk, seed: int) -> dict:
        params = zk.pcp.SumcheckParams(5, 3, 3, (0, 1))
        f = _random_poly(zk.poly, coins(seed, 0, "instance"), 5, (4, 4, 4))
        corpus = zk.audit.script_battery(params, self.corpus, self.corpus_seed)
        ranked = sorted(
            corpus,
            key=lambda s: sum(len(steps) for _, steps in zk.audit.enumerate_branches(s)),
        )
        step = self.corpus // self.size
        return {
            "seed": seed,
            "params": params,
            "f": f,
            "gamma": _cube_total(params, f),
            "sensitive": corpus[: self.sensitive],
            "scripts": ranked[step // 2 :: step],
        }

    def precheck(self, zk, inputs, run: Run):
        """Negative control: with the mask row dropped, the audit must flag at
        least two of the fixed sensitive scripts, or the run is invalid."""
        tvs = [
            zk.audit.audit_script(
                inputs["params"], inputs["f"], inputs["gamma"], script,
                include_mask_row=False,
            ).tv
            for script in inputs["sensitive"]
        ]
        run.check_outputs.append([str(tv) for tv in tvs])
        if sum(tv != 0 for tv in tvs) < 2:
            run.problem(f"negative control flagged too few scripts: {tvs}")

    def op(self, zk, inputs, i: int, run: Run):
        results = []
        t_battery = perf_counter()
        for k, script in enumerate(inputs["scripts"]):
            t0 = perf_counter()
            try:
                report = zk.audit.audit_script(
                    inputs["params"], inputs["f"], inputs["gamma"], script
                )
            except Exception as exc:  # an audit that raises fails its battery
                run.errors[type(exc).__name__] += 1
                results.append(type(exc).__name__)
                continue
            run.samples["script"].append(perf_counter() - t0)
            results.append((str(report.tv), report.support_equal, report.branches))
            if report.tv != 0:
                run.problem(f"script {k}: TV = {report.tv}")
        run.samples["battery"].append(perf_counter() - t_battery)
        run.failed += any(not isinstance(r, tuple) or r[0] != "0" for r in results)
        run.outcome(results)


WORKLOADS = {w.name: w for w in (SharpSat(), SimView(), ZkAudit())}


def measure(workload, zk, inputs, run: Run, seconds: float, n_ops=None, tracer=None):
    """Closed loop: operations back to back until ``seconds`` have passed and
    at least ``min_ops`` ran, or exactly ``n_ops`` operations if given."""
    t0 = perf_counter()
    i = 0
    while True:
        if n_ops is not None:
            if i >= n_ops:
                break
        elif i >= workload.min_ops and perf_counter() - t0 >= seconds:
            break
        if tracer is not None:
            tracer.op = i
        run.attempted += 1
        try:
            workload.op(zk, inputs, i, run)
        except Exception as exc:
            run.fail(exc)
            run.outcome(type(exc).__name__)
        i += 1
    run.wall_s = perf_counter() - t0
    return i
