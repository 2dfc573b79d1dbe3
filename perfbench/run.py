"""reflexsim benchmark: one workload, one seed, one line of JSON results.

    python3 perfbench/run.py --workload plane_acl --seed 1 --seconds 5 --trace 0

Run from the repository root; the program is imported from `src/`. With
`--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of a traced repetition. The
lines before it are a JSON record of the run (environment, generation
time, anchors, raw per-workload figures), also written to
`.bench_out/BENCH_<workload>_s<seed>_t<trace>.json`. A failed correctness
gate prints the reason to stderr, exits 1 and reports no numbers.

Everything runs in this one process and thread.
"""

from __future__ import annotations

import argparse
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: keep its kernels single-threaded

import gc
import json
import platform
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "reports_per_s": "1/s",
    "scalar_keys_per_s": "1/s",
    "batch_keys_per_s": "1/s",
    "reflex_e2e_p50_vns": "vns",
    "reflex_e2e_p99_vns": "vns",
    "commands_applied_frac": "frac",
    "reports_delivered_frac": "frac",
}


def import_program():
    """Import reflexsim from this checkout's src/, never from anywhere else."""
    if not (SRC / "reflexsim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no reflexsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import reflexsim

    if Path(reflexsim.__file__).resolve().parent != SRC / "reflexsim":
        raise SystemExit(f"perfbench: reflexsim imported from {reflexsim.__file__}, not {SRC}")
    return reflexsim


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git; 'unknown' outside git."""
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


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "processes": 1,
        "threads": threading.active_count(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def summary(samples: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"n": len(samples), "min": min(samples), "q1": q1, "median": q2, "q3": q3,
            "max": max(samples)}


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Returns (contract result, detail record)."""
    import harness
    import layers
    import workloads

    wl = workloads.WORKLOADS[workload]
    anchors = harness.check_anchors(seed)
    gc.collect()
    t0 = time.perf_counter()
    inp = workloads.make_inputs(wl, seed)
    gen_s = time.perf_counter() - t0
    # The inputs live for the whole run; keep the collector from rescanning them.
    gc.collect()
    gc.freeze()
    detail = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "held_out_seed": workloads.HELD_OUT_SEED, "gen_s": gen_s,
              "reports": len(inp.reports), "corpus_keys": len(inp.keys), "anchors": anchors}
    if trace:
        metrics, extra = traced(wl, inp, seed, seconds)
        detail.update(extra)
        attempted = extra["attempted"]
        units = layers.PER_LAYER_UNITS
    else:
        setup, run_s, out, last = harness.plane_phase(wl, inp, 0.45 * seconds)
        cls = harness.classify_phase(last.classifiers[0].engine, last.ruleset, inp, 0.45 * seconds)
        harness.more_setups(wl, inp, setup, 0.1 * seconds)
        n = len(inp.reports)
        metrics = {
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb(),
            "reports_per_s": statistics.median(n / s for s in run_s),
            "scalar_keys_per_s": statistics.median(cls["scalar_rates"]),
            "batch_keys_per_s": statistics.median(cls["batch_rates"]),
            "reflex_e2e_p50_vns": out["e2e_p50_ns"],
            "reflex_e2e_p99_vns": out["e2e_p99_ns"],
            "commands_applied_frac": out["applied"] / out["issued"],
            "reports_delivered_frac": 1 - out["reports_dropped_frac"],
        }
        attempted = n * len(run_s) + cls["checked"]
        detail.update({
            "setup_s_samples": summary(setup), "run_s_samples": run_s,
            "events_per_s": statistics.median(out["events"] / s for s in run_s),
            "scalar_rates": summary(cls["scalar_rates"]),
            "batch_rates": summary(cls["batch_rates"]),
            "engine_leaves": last.classifiers[0].engine.leaf_count,
            "engine_depth": last.classifiers[0].engine.depth,
            "virtual": out,
        })
        units = END_TO_END_UNITS
    metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    result = {"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}
    return result, detail


def traced(wl, inp, seed: int, seconds: float) -> tuple[dict, dict]:
    """An untraced plane repetition, the same one traced, then a traced classify phase."""
    import harness
    import layers

    plain = harness.plane_rep(wl, inp)
    base = harness.virtual_outcome(plain.plane, plain.run, inp)
    harness.check_outcome(base)
    plain_run_s = plain.run_s
    plain = None
    gc.collect()
    tr = layers.Tracer()
    tr.install()
    try:
        rep = harness.plane_rep(wl, inp)
        out = harness.virtual_outcome(rep.plane, rep.run, inp)
        harness.gate(out["fingerprint"] == base["fingerprint"],
                     "the traced run gave different virtual outputs than the untraced run")
        cls = harness.classify_phase(rep.plane.classifiers[0].engine, rep.plane.ruleset, inp,
                                     0.45 * seconds)
    finally:
        tr.uninstall()
    n = len(inp.reports)
    tr.save(OUT_DIR / f"spans_{wl.name}_s{seed}.npz")
    metrics = layers.layer_metrics(tr, out, n, untraced_events_per_s=out["events"] / plain_run_s,
                                   trace_slowdown=rep.run_s / plain_run_s)
    extra = {
        "attempted": 2 * n + cls["checked"],
        "untraced_reports_per_s": n / plain_run_s,
        "traced_reports_per_s": n / rep.run_s,
        "spans": {name: {"calls": s.calls, "total_s": s.total_ns / 1e9, "self_s": s.self_ns / 1e9}
                  for name, s in tr.stats().items()},
        "virtual": out,
    }
    return metrics, extra


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    import_program()
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    try:
        result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except harness.GateFailure as exc:
        print(f"perfbench: correctness gate failed: {exc}", file=sys.stderr)
        return 1
    detail["environment"] = environment()
    detail["result"] = result
    OUT_DIR.mkdir(exist_ok=True)
    name = f"BENCH_{args.workload}_s{args.seed}_t{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
