"""Command-line front end: prove/verify/simulate plus locator and audit tools.

Every command is deterministic, given --seed where it takes one; Monte
Carlo commands derive one independent stream per trial from (seed, trial
index). Output is one self-describing JSON record per line so runs can be
diffed mechanically.
Exit status 0 means every check in the invocation passed.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import random
import stat
import sys
from pathlib import Path

import numpy as np

from .audit import ScriptStep, audit_script, parse_script, script_battery
from .domains import hypercube, require_in_field
from .field import Field
from .pcp import (
    SimulatorSession,
    SumcheckParams,
    deserialize_proof,
    parse_dimacs,
    pcp_for_sharp_sat,
    serialize_proof,
    prove_shifted,
)
from .poly import MultiPoly, subcube_sum
from .rm import CodeView, cd_rm
from .rm_locator import rm_locate
from .sigma_rm import sigma_rm_locate
from .antisym import antisym_locate

# the largest coefficient dimension of the prover's masks that simulate and
# audit-zk take: the simulator's detectors have one column per coefficient
AUDIT_CAP = 1 << 24


def emit(record: dict):
    print(json.dumps(record, sort_keys=True, default=str))


def trial_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{index}")


def parse_points(text: str, p: int) -> list[tuple[int, ...]]:
    """A JSON list of points over GF(p); every coordinate must be a JSON
    integer in [0, p). A float, bool or string is refused, not truncated."""
    data = json.loads(text)
    if not isinstance(data, list) or not all(isinstance(pt, list) for pt in data):
        raise ValueError("points must be a JSON list of coordinate lists")
    for pt in data:
        if any(type(c) is not int for c in pt):
            raise ValueError(f"point {json.dumps(pt)} has a coordinate that is not an integer")
    return [require_in_field(tuple(pt), p) for pt in data]


def parse_degrees(text: str, m: int) -> tuple[int, ...]:
    parts = [int(x) for x in text.split(",")]
    if len(parts) == 1:
        return tuple(parts * m)
    if len(parts) != m:
        raise ValueError("degree vector length must match --m")
    return tuple(parts)


def parse_degree(text: str, m: int) -> int:
    """The one degree bound that simulate and audit-zk use in every
    variable: one bound, or a vector of m equal ones."""
    parts = [int(x) for x in text.split(",")]
    if len(parts) not in (1, m) or len(set(parts)) != 1:
        raise ValueError(
            f"--degree must be one bound, or {m} equal ones: this command uses one degree d"
        )
    return parts[0]


def parse_h(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def read_proof_file(path) -> memoryview:
    """The file's bytes as a read-only view 4 bytes into a frozen numpy
    buffer, the layout serialize_proof returns: deserialize_proof decodes it
    in place, with every word after MAGIC on an 8-byte boundary."""
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if not stat.S_ISREG(info.st_mode):
            # a pipe has no size up front: read it whole, as bytes
            return memoryview(fh.read())
        size = info.st_size
        buf = np.empty(4 + size, np.uint8)
        if fh.readinto(memoryview(buf)[4:]) != size or fh.read(1):
            raise ValueError(f"{path} changed while it was read")
    buf.flags.writeable = False
    return memoryview(buf)[4:]


def load_bundle(args, count=None):
    """The --cnf formula's PCP over --field (by default the formula's own
    prime), claiming ``count``, or the formula's model count if None."""
    cnf = parse_dimacs(Path(args.cnf).read_text())
    return pcp_for_sharp_sat(cnf, cnf.model_count() if count is None else count, p=args.field)


def load_instance(args, field: int):
    """(params, instance polynomial, claimed cube total) for simulate and
    audit-zk: the --cnf formula's, with its model count as the total, or a
    seeded random one from --field (by default ``field``), --m, --degree and
    --h-set (by default m=2, d=3, H={0,1}). The formula fixes m, d and H, so
    those three options are refused next to --cnf. Masks of more than
    AUDIT_CAP coefficients are refused before a random instance is built."""
    given = {k: getattr(args, k) for k in ("m", "degree", "h_set") if getattr(args, k) is not None}
    bundle = None
    if args.cnf:
        if given:
            names = ", ".join("--" + k.replace("_", "-") for k in given)
            raise ValueError(f"{names} cannot be given with --cnf: the formula fixes m, d and H")
        bundle = load_bundle(args)
        params = bundle.params
    else:
        opts = {"m": 2, "degree": "3", "h_set": "0,1", **given}
        m = opts["m"]
        p = field if args.field is None else args.field
        params = SumcheckParams(p, m, parse_degree(opts["degree"], m), parse_h(opts["h_set"]))
    coeff_dim = sum(math.prod(d + 1 for d in dv) for _, dv in params.tables)
    if coeff_dim > AUDIT_CAP:
        raise ValueError(f"coefficient dimension {coeff_dim} exceeds cap {AUDIT_CAP}")
    if bundle is not None:
        return params, bundle.poly, bundle.gamma
    return (params, *random_instance(params, args.seed))


def random_instance(params: SumcheckParams, seed: int) -> tuple[MultiPoly, int]:
    """Seeded random degree-d polynomial plus its true cube total."""
    rng = random.Random(f"instance:{seed}")
    poly = MultiPoly(params.p, params.fld.sample_array(rng, (params.d + 1,) * params.m))
    return poly, subcube_sum(poly, params.cube, ())


def cmd_prove(args) -> int:
    bundle = load_bundle(args, args.count)
    rng = trial_rng(args.seed, 0)
    proof = prove_shifted(bundle, rng) if args.dishonest_shift else bundle.prove(rng)
    if proof.sigma_at(()) != bundle.gamma:
        raise ValueError(
            f"the formula's model count is not {args.count} mod {bundle.params.p}; "
            "an honest proof cannot claim it (use --dishonest-shift)"
        )
    blob = serialize_proof(proof)
    Path(args.out).write_bytes(blob)
    emit(
        {
            "record": "prove",
            "p": bundle.params.p,
            "m": bundle.params.m,
            "d": bundle.params.d,
            "claimed_count": args.count,
            "bytes": len(blob),
            "out": args.out,
            "seed": args.seed,
        }
    )
    return 0


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    bundle = load_bundle(args, args.count)
    proof = deserialize_proof(read_proof_file(args.proof))
    if proof.params != bundle.params:
        raise ValueError("proof parameters do not match instance")
    accepts = 0
    for i in range(args.trials):
        res = bundle.verify(proof, trial_rng(args.seed, i))
        accepts += res.accepted
        emit(
            {
                "record": "verify-trial",
                "trial": i,
                "accepted": res.accepted,
                "reason": res.reason,
                "queries": len(res.queries),
            }
        )
    emit(
        {
            "record": "verify",
            "trials": args.trials,
            "accepts": accepts,
            "seed": args.seed,
        }
    )
    return 0 if accepts == args.trials else 1


def cmd_simulate(args) -> int:
    script = parse_script(json.loads(Path(args.script).read_text()))
    params, poly, gamma = load_instance(args, field=5)
    sim = SimulatorSession(params, poly.eval, gamma, trial_rng(args.seed, 0))
    answers: list[int] = []
    for step in script:
        if not isinstance(step, ScriptStep):
            taken = step.then if answers[step.step] == step.equals else step.else_
            step = taken
        try:
            val = sim.query(step.oracle, step.point)
        except RuntimeError as exc:
            # the views answered before the failure stay in the output
            emit({"record": "error", "message": str(exc), "queries": len(answers)})
            return 1
        answers.append(val)
        emit({"record": "view", "oracle": step.oracle, "point": list(step.point), "answer": val})
    emit(
        {
            "record": "simulate",
            "p": params.p,
            "m": params.m,
            "d": params.d,
            "seed": args.seed,
            "queries": len(answers),
        }
    )
    return 0


def cmd_audit_zk(args) -> int:
    params, poly, gamma = load_instance(args, field=3)
    scripts = []
    if args.script:
        for path in args.script:
            scripts.append((path, parse_script(json.loads(Path(path).read_text()))))
    if args.battery:
        for i, s in enumerate(script_battery(params, args.battery, args.seed)):
            scripts.append((f"battery[{i}]", s))
    if not scripts:
        raise ValueError("no scripts given")
    failures = 0
    for name, script in scripts:
        rep = audit_script(
            params, poly, gamma, script, include_mask_row=not args.negative_control
        )
        failures += not rep.passed
        emit(
            {
                "record": "audit-script",
                "script": name,
                "branches": rep.branches,
                "support_equal": rep.support_equal,
                "tv": str(rep.tv),
                "pass": rep.passed,
            }
        )
    emit(
        {
            "record": "audit-zk",
            "scripts": len(scripts),
            "failures": failures,
            "negative_control": bool(args.negative_control),
        }
    )
    return 0 if failures == 0 else 1


def cmd_locate(args) -> int:
    fld = Field(args.field)
    pts = parse_points(args.points, fld.p)
    h = require_in_field(parse_h(args.h_set), fld.p)
    dv = parse_degrees(args.degree, args.m)
    a = hypercube(h, args.m)
    if args.code == "antisym":
        out = antisym_locate(fld, a, pts)
    else:
        locate = rm_locate if args.code == "rm" else sigma_rm_locate
        out = locate(CodeView(fld, args.m, dv), a, pts)
    emit(
        {
            "record": "locate",
            "code": args.code,
            "R": [list(pt) for pt in out.r],
            "cols": [[kind, list(pt)] for kind, pt in out.cols],
            "rows": [[int(c) for c in row] for row in out.z],
        }
    )
    return 0


def cmd_detect(args) -> int:
    fld = Field(args.field)
    pts = parse_points(args.points, fld.p)
    dv = parse_degrees(args.degree, args.m)
    view = CodeView(fld, args.m, dv)
    cb = cd_rm(view, pts)
    emit(
        {
            "record": "detect",
            "domain": [list(pt) for pt in cb.domain],
            "rows": [[int(c) for c in row] for row in cb.z],
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="zkpcp", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, *names, field_default=None):
        """--field, plus the named shared options."""
        p.add_argument("--field", type=int, default=field_default, help="prime modulus")
        shared = {
            "--m": dict(type=int, default=2, help="number of variables"),
            "--degree": dict(type=str, default="3", help="degree bound (or comma vector)"),
            "--h-set": dict(type=str, default="0,1", help="summation set, comma separated"),
            "--seed": dict(type=int, default=0),
        }
        for name in names:
            p.add_argument(name, **shared[name])

    p = sub.add_parser("prove", help="prove a #SAT claim and write the proof")
    common(p, "--seed")
    p.add_argument("--cnf", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--dishonest-shift",
        action="store_true",
        help="honest-structure cheating prover for a wrong count (experiments)",
    )
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("verify", help="verify a proof against a #SAT claim")
    common(p, "--seed")
    p.add_argument("--cnf", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--proof", required=True)
    p.add_argument("--trials", type=int, default=1)
    p.set_defaults(func=cmd_verify)

    instance = ("--m", "--degree", "--h-set", "--seed")
    # unset, so that load_instance can tell them given; it supplies defaults
    unset = dict.fromkeys(("m", "degree", "h_set"))
    p = sub.add_parser("simulate", help="replay a query script against the simulator")
    common(p, *instance)
    p.set_defaults(**unset)
    p.add_argument("--cnf")
    p.add_argument("--script", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("audit-zk", help="exact real-vs-simulated law comparison")
    common(p, *instance)
    p.set_defaults(**unset)
    p.add_argument("--cnf")
    p.add_argument("--script", action="append", help="script file (repeatable)")
    p.add_argument("--battery", type=int, default=0, help="also run N generated scripts")
    p.add_argument(
        "--negative-control",
        action="store_true",
        help="run the deliberately broken simulator (mask row omitted)",
    )
    p.set_defaults(func=cmd_audit_zk)

    p = sub.add_parser("locate", help="run a constraint locator on a query set")
    common(p, "--m", "--degree", "--h-set", field_default=5)
    p.add_argument("--code", choices=["rm", "sigma-rm", "antisym"], required=True)
    p.add_argument("--points", required=True, help="JSON list of points")
    p.set_defaults(func=cmd_locate)

    p = sub.add_parser("detect", help="run the plain code constraint detector")
    common(p, "--m", "--degree", field_default=5)
    p.add_argument("--points", required=True, help="JSON list of points")
    p.set_defaults(func=cmd_detect)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        emit({"record": "error", "message": str(exc)})
        return 2


if __name__ == "__main__":
    sys.exit(main())
