"""zkpcp benchmark: one workload per process, closed loop, outputs checked.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload sharp_sat --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics untraced. ``--trace 1`` runs
an untraced pass for half the time, then repeats the same operations with
the outside-in tracer installed, and reports the per-layer metrics plus the
tracing overhead. Human-readable lines go to stdout, a full report (every
metric with unit and sample count, the environment and the output digest)
goes to ``benchmarks/out/``, and the last stdout line is the JSON result.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
BASELINE_DIGESTS = BENCH / "baseline" / "digests.json"
DEFAULT_SEED = 1
SETUP_REPS = 7
TAIL_MIN_SAMPLES = 100  # a p90 needs ten samples beyond it

sys.path.insert(0, str(BENCH))
from tracer import ORACLE_READS, Tracer  # noqa: E402
from workloads import WORKLOADS, Run, measure  # noqa: E402


def import_zkpcp() -> SimpleNamespace:
    """Import zkpcp afresh from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "zkpcp" or n.startswith("zkpcp.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"zkpcp.{m}") for m in ("pcp", "audit", "poly")}
    return SimpleNamespace(package=sys.modules["zkpcp"], **mods)


def timed_setup(workload, seed: int):
    """Median over SETUP_REPS of: import zkpcp, then build the inputs."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        zk = import_zkpcp()
        inputs = workload.build(zk, seed)
        times.append(perf_counter() - t0)
    return statistics.median(times), times, zk, inputs


def timing(samples: list[float], scale: float, unit: str, tail: bool = True) -> dict:
    """p50, plus p90 when at least TAIL_MIN_SAMPLES samples back it."""
    out = {"p50": {"value": statistics.median(samples) * scale, "unit": unit, "n": len(samples)}}
    if tail and len(samples) >= TAIL_MIN_SAMPLES:
        p90 = statistics.quantiles(samples, n=10, method="inclusive")[8]
        out["p90"] = {"value": p90 * scale, "unit": unit, "n": len(samples)}
    return out


def named_metrics(workload, run: Run) -> dict:
    """The workload's own operation timings, named after what they time."""
    s = run.samples
    named = {}

    def add(prefix, samples, scale, unit, tail=True):
        if samples:
            for stat, m in timing(samples, scale, unit, tail).items():
                named[f"{prefix}_{stat}"] = m

    if workload.name == "sharp_sat":
        add("prove_ms", s["prove"], 1e3, "ms")
        add("verify_ms", s["verify"], 1e3, "ms")
        add("proof_io_ms", s["proof_io"], 1e3, "ms")
        add("trial_ms", s["trial"], 1e3, "ms")
    elif workload.name == "sim_view":
        add("sim_view_s", s["view"], 1.0, "s", tail=False)
        # the p50 of a first-time query is a cache hit: a latent coordinate
        # the simulator already committed, so only the tail is reported
        if len(s["query"]) >= TAIL_MIN_SAMPLES:
            add("sim_query_ms", s["query"], 1e3, "ms")
            del named["sim_query_ms_p50"]
    else:
        add("audit_script_ms", s["script"], 1e3, "ms")
        add("battery_ms", s["battery"], 1e3, "ms")
    return named


def end_to_end(workload, run: Run, setup_s: float) -> dict:
    """The gated metrics: every workload reports each of them."""
    op = run.samples[workload.op_sample]
    if not op:
        raise RuntimeError(f"no {workload.unit} completed, so no latency to report")
    return {
        "setup_s": {"value": setup_s, "unit": "s", "n": SETUP_REPS},
        "op_ms_p50": {
            "value": statistics.median(op) * 1e3,
            "unit": "ms",
            "n": len(op),
        },
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
            "n": 1,
        },
    }


def run_metrics(run: Run) -> dict:
    return {
        "fail_share": {"value": run.failed / run.attempted, "unit": "share", "n": run.attempted},
        "ops_per_s": {"value": run.attempted / run.wall_s, "unit": "1/s", "n": run.attempted},
    }


def per_layer(tracer, run: Run, overhead: float) -> dict:
    """Per-operation layer counts and self times from the traced pass."""
    n = run.attempted
    out = {}
    for name, stats in tracer.summary().items():
        for stat, total in stats.items():
            if stat == "hits":
                calls = stats["calls"]
                out[f"{name}.hit_ratio"] = {
                    "value": total / calls if calls else 0.0,
                    "unit": "ratio",
                }
            else:
                out[f"{name}.{stat}"] = {
                    "value": total / n,
                    "unit": "s" if stat == "self_s" else "count",
                }
    out[ORACLE_READS] = {"value": tracer.counts.get(ORACLE_READS, 0) / n, "unit": "count"}
    out["run.fail_share"] = {"value": run.failed / n, "unit": "share"}
    out["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, run: Run, setup_times) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "seed": seed,
        "samples": {k: len(v) for k, v in run.samples.items()},
        "setup_reps_s": setup_times,
    }


def execute(name: str, seed: int, seconds: float, trace: bool, n_ops=None, out_dir=OUT):
    """Run one workload; return (result line, full report)."""
    workload = WORKLOADS[name]
    setup_s, setup_times, zk, inputs = timed_setup(workload, seed)
    src = (ROOT / "src").resolve()
    if not Path(zk.package.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"zkpcp was imported from {zk.package.__file__}, not from src/")
    run = Run()
    workload.precheck(zk, inputs, run)
    # warm-up: one untimed operation, so lazy set-up and caches are filled
    measure(workload, zk, inputs, Run(), 0, n_ops=1)
    report = {"workload": name, "unit": workload.unit}
    if not trace:
        measure(workload, zk, inputs, run, seconds, n_ops=n_ops)
        named = named_metrics(workload, run)
        metrics = end_to_end(workload, run, setup_s)
        report["named"] = {**named, **run_metrics(run), **metrics}
        result_run = run
    else:
        ops = measure(workload, zk, inputs, run, seconds / 2, n_ops=n_ops)
        traced = Run(check_outputs=run.check_outputs)
        with Tracer() as tracer:
            measure(workload, zk, inputs, traced, 0, n_ops=ops, tracer=tracer)
        if traced.outcomes != run.outcomes:
            traced.problem("traced pass changed an output of the untraced pass")
        metrics = per_layer(tracer, traced, traced.wall_s / run.wall_s)
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(out_dir / f"{name}-seed{seed}.spans.tsv.gz")
        report["spans"] = len(tracer.spans)
        result_run = traced
    digest = result_run.digest(workload.digest_ops)
    report.update(
        correct=not result_run.problems,
        attempted=result_run.attempted,
        failed=result_run.failed,
        errors=dict(result_run.errors),
        problems=result_run.problems,
        digest=digest,
        digest_matches_baseline=_baseline_digest(name, seed, digest),
        environment=environment(seed, result_run, setup_times),
        metrics=metrics,
    )
    line = {
        "correct": report["correct"],
        "attempted": result_run.attempted,
        "failed": result_run.failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    return line, report


def _baseline_digest(name: str, seed: int, digest: str):
    """Whether the output digest equals the committed one (default seed only)."""
    if seed != DEFAULT_SEED or not BASELINE_DIGESTS.is_file():
        return None
    expected = json.loads(BASELINE_DIGESTS.read_text()).get(name)
    return None if expected is None else expected == digest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "zkpcp" / "__init__.py").is_file():
        print("error: no zkpcp sources under src/ in this checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401  (a dependency; its import is not zkpcp's set-up)

    line, report = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, default=str) + "\n")
    shown = report["metrics"] if args.trace else report["named"]
    for key, m in shown.items():
        n = f"  (n={m['n']})" if "n" in m else ""
        print(f"{args.workload}  {key:44s} {m['value']:.6g} {m['unit']}{n}")
    print(
        f"{args.workload}  correct={report['correct']} attempted={report['attempted']} "
        f"failed={report['failed']} errors={report['errors']} digest={report['digest'][:16]} "
        f"matches_baseline={report['digest_matches_baseline']}"
    )
    for msg in report["problems"]:
        print(f"{args.workload}  problem: {msg}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
