"""Outside-in tracer for zkpcp: timed wrappers swapped into module namespaces.

zkpcp's modules bind each other's functions with ``from .x import y``, so a
function is reachable through several module-namespace bindings. The tracer
swaps every binding of each traced function, and the traced class methods,
for a wrapper. A span stack makes a layer's self time its span minus its
children. Spans stay in memory until ``write_spans``; every original binding
is restored on exit. Nothing under ``src/`` is edited.
"""
from __future__ import annotations

import dataclasses
import gzip
import importlib
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional


@dataclass(frozen=True)
class Target:
    """One traced function: ``module.qualname`` plus the counts it records.

    ``after`` maps (args, result) to counts and ``before`` maps args to
    counts; each count is summed under ``<module>.<qualname>.<stat>``.
    """

    module: str
    qualname: str
    after: Optional[Callable] = None
    before: Optional[Callable] = None
    stats: tuple[str, ...] = ()

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


def _query_hits(args):
    session, oracle, pt = args[:3]
    return {"hits": int(tuple(int(c) for c in pt) in session._cache_of(oracle))}


TARGETS = (
    Target("pcp", "prove"),
    Target("pcp", "_grid_eval"),
    Target("pcp", "_mask_table"),
    Target("pcp", "_sum_tables"),
    Target("pcp", "serialize_proof", lambda a, r: {"bytes": len(r)}, stats=("bytes",)),
    Target("pcp", "deserialize_proof"),
    Target("pcp", "verify"),
    Target("pcp", "SimulatorSession.query", before=_query_hits, stats=("hits",)),
    Target("pcp", "gather_state_rows", lambda a, r: {"rows": len(r[0])}, stats=("rows",)),
    Target("pcp", "build_table_rows", lambda a, r: {"rows": len(r)}, stats=("rows",)),
    Target("pcp", "mask_row"),
    Target("linalg", "rref", lambda a, r: {"cells": int(r[0].size)}, stats=("cells",)),
    Target("linalg", "kernel_basis"),
    Target("linalg", "image_dual_basis"),
    Target(
        "linalg",
        "sample_affine",
        lambda a, r: {"inconsistent": int(r is None)},
        stats=("inconsistent",),
    ),
    Target("rm", "rm_generator"),
    Target("rm", "cd_rm", lambda a, r: {"points": len(r.domain)}, stats=("points",)),
    Target("rm", "cd_zero_rm"),
    Target("rm_locator", "rm_locate"),
    Target(
        "sigma_rm",
        "sigma_rm_locate",
        lambda a, r: {"i_size": len(r.meta["ihat"]), "r_size": len(r.r)},
        stats=("i_size", "r_size"),
    ),
    Target("antisym", "antisym_locate", lambda a, r: {"r_size": len(r.r)}, stats=("r_size",)),
    Target(
        "encoding",
        "constraint_rows_for",
        lambda a, r: {"rows": len(r[0])},
        stats=("rows",),
    ),
    Target("audit", "audit_script"),
    Target("audit", "symbolic_simulator_law"),
    Target("audit", "LinearLaw.add_step"),
    Target("audit", "real_law"),
    Target("oracles", "affine_sets_equal"),
    Target("poly", "MultiPoly.eval"),
)
# encoding.compose builds a spec around a locator closure: the factory is
# wrapped so that the spec it returns carries a timed locator.
COMPOSE_LOCATE = "encoding.compose.locate"
# Oracle reads are counted, not timed: the verifier makes thousands per trial.
ORACLE_READS = "pcp.oracle_reads"
READ_METHODS = ("sigma_at", "q_at", "t_at")
SPAN_NAMES = tuple(t.name for t in TARGETS) + (COMPOSE_LOCATE,)


def zkpcp_namespaces() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if name == "zkpcp" or name.startswith("zkpcp.")
    ]


def _owner(module, qualname: str):
    """(object holding the attribute, attribute name) for a qualname."""
    *outer, attr = qualname.split(".")
    owner = module
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Spans and counts for the traced zkpcp layers, while installed."""

    def __init__(self):
        # (span id, parent id or -1, name, start, end, self seconds, op id)
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[list] = []
        self._swapped: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self):
        if self._swapped:
            raise RuntimeError("tracer already installed")
        modules = {
            t.module: importlib.import_module(f"zkpcp.{t.module}") for t in TARGETS
        }
        encoding = importlib.import_module("zkpcp.encoding")
        pcp = importlib.import_module("zkpcp.pcp")
        namespaces = zkpcp_namespaces()
        for t in TARGETS:
            owner, attr = _owner(modules[t.module], t.qualname)
            original = vars(owner)[attr]
            wrapper = self._timed(t.name, original, t.before, t.after)
            if owner is modules[t.module]:
                self._swap_bindings(namespaces, original, wrapper)
            else:
                self._swap(owner, attr, wrapper)
        self._swap_bindings(
            namespaces, encoding.compose, self._compose_wrapper(encoding.compose)
        )
        for meth in READ_METHODS:
            self._swap(pcp.ProofOracle, meth, self._counted(vars(pcp.ProofOracle)[meth]))

    def uninstall(self):
        while self._swapped:
            owner, attr, original = self._swapped.pop()
            setattr(owner, attr, original)

    def _swap(self, owner, attr: str, value):
        self._swapped.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _swap_bindings(self, namespaces, original, wrapper):
        for ns in namespaces:
            for key, val in list(vars(ns).items()):
                if val is original:
                    self._swap(ns, key, wrapper)

    def _timed(self, name: str, fn, before=None, after=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            if before is not None:
                for stat, n in before(args).items():
                    counts[f"{name}.{stat}"] += n
            parent = stack[-1][0] if stack else -1
            sid = len(spans)
            spans.append(None)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                spans[sid] = (sid, parent, name, t0, t1, t1 - t0 - frame[1], self.op)
            if after is not None:
                for stat, n in after(args, result).items():
                    counts[f"{name}.{stat}"] += n
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _compose_wrapper(self, compose):
        def traced_compose(*args, **kwargs):
            spec = compose(*args, **kwargs)
            return dataclasses.replace(
                spec, locator=self._timed(COMPOSE_LOCATE, spec.locator)
            )

        traced_compose.__wrapped__ = compose
        return traced_compose

    def _counted(self, meth):
        counts = self.counts

        def read(*args):
            counts[ORACLE_READS] += 1
            return meth(*args)

        read.__wrapped__ = meth
        return read

    def summary(self) -> dict[str, dict[str, float]]:
        """Per traced name: calls, self seconds and its extra counts."""
        out = {name: {"calls": 0, "self_s": 0.0} for name in SPAN_NAMES}
        for span in self.spans:
            row = out[span[2]]
            row["calls"] += 1
            row["self_s"] += span[5]
        for t in TARGETS:
            for stat in t.stats:
                out[t.name][stat] = self.counts.get(f"{t.name}.{stat}", 0)
        return out

    def write_spans(self, path):
        """Write every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\tname\tstart_s\tend_s\tself_s\top\n")
            for sid, parent, name, t0, t1, self_s, op in self.spans:
                fh.write(f"{sid}\t{parent}\t{name}\t{t0:.9f}\t{t1:.9f}\t{self_s:.9f}\t{op}\n")
