"""Measurement and correctness checks: plane runs, classifier phases, paper anchors.

Wall-clock numbers come from `time.perf_counter` around single calls into
the program's public API. Virtual-time numbers come from the plane's own
provenance (`ReflexTrace`) and element agents, and repeat exactly for a
given seed.
"""

from __future__ import annotations

import gc
import hashlib
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from reflexsim.fixtures import gen_anomaly_trace
from reflexsim.plane import (
    PRESETS,
    MonitorSpec,
    Plane,
    PlaneConfig,
    RunReport,
    apply_preset,
    build_plane,
)
from reflexsim.raftnet import CALIBRATED_WRITE_SERVICE_NS, RaftScenario, raft_noload_latency
from reflexsim.rules import classify_linear_batch
from reflexsim.simnet import percentile_nearest_rank

from workloads import Inputs, Workload

# Paper anchors (arxiv 2212.06658) and where the code holds them.
NANOPU_E2E_NS = 3892                       # analytic stage sum under plane.PRESETS["nanopu"]
RAFT_WRITE_P50_NS = {1: 1880, 300: 3076}   # switch_ns -> p50, raftnet.CALIBRATED_WRITE_SERVICE_NS
NANOPU_PRESET = {"classify_service_ns": 120, "monitor_service_ns": 50,
                 "raft_request_service_ns": 1532, "mac_serial_ns": 26}
MIN_COMMANDS = 1_000                       # >= 10 samples beyond p99


class GateFailure(Exception):
    """A correctness gate failed: the run reports no numbers."""


def gate(ok: bool, message: str) -> None:
    if not ok:
        raise GateFailure(message)


# --------------------------------------------------------------------------
# Paper anchors
# --------------------------------------------------------------------------

def analytic_e2e_ns(cfg: PlaneConfig) -> int:
    """Stage sum of one reflex with no queueing, independent of the event kernel.

    Five star traversals (cls->mon->leader->follower->leader->element), each
    two links and the switch, plus rx and tx serialisation at every node the
    command passes and the classify, monitor and replica-append services.
    """
    hop = 2 * cfg.link_ns + cfg.switch_ns
    mac2 = 2 * cfg.mac_serial_ns
    nodes = 5 * mac2  # classifier, monitor, leader admit, follower, leader commit
    service = cfg.classify_service_ns + cfg.monitor_service_ns + cfg.raft_request_service_ns
    return 5 * hop + nodes + service


def check_anchors(seed: int) -> dict[str, int]:
    """The paper's exact virtual-time numbers; any drift fails the run."""
    gate(PRESETS["nanopu"] == NANOPU_PRESET,
         f"plane.PRESETS['nanopu'] drifted: {PRESETS['nanopu']}")
    gate(CALIBRATED_WRITE_SERVICE_NS == NANOPU_PRESET["raft_request_service_ns"],
         "raftnet.CALIBRATED_WRITE_SERVICE_NS differs from the nanopu replication service")
    got: dict[str, int] = {}
    for switch_ns, want in RAFT_WRITE_P50_NS.items():
        cfg = RaftScenario(switch_ns=switch_ns, request_service_ns=CALIBRATED_WRITE_SERVICE_NS)
        p50 = raft_noload_latency(cfg, trials=64).p50_ns
        gate(p50 == want, f"raft no-load p50 at switch_ns={switch_ns}: {p50} != {want}")
        got[f"raft_write_p50_ns.switch_{switch_ns}"] = p50
    cfg = apply_preset(PlaneConfig(monitors=(MonitorSpec("m0", "path_latency"),)), "nanopu")
    analytic = analytic_e2e_ns(cfg)
    gate(analytic == NANOPU_E2E_NS, f"analytic nanopu e2e {analytic} != {NANOPU_E2E_NS}")
    reports, plan = gen_anomaly_trace(seed)
    run = build_plane(cfg).inject_reports(reports, rate_rps=100_000.0)
    e2e = [t.e2e_ns() for t in run.traces if t.complete()]
    gate(len(e2e) == len(plan.spikes) and set(e2e) == {analytic},
         f"no-load nanopu reflex e2e {e2e} != analytic {analytic}")
    got["nanopu_e2e_ns"] = e2e[0]
    return got


# --------------------------------------------------------------------------
# Plane runs
# --------------------------------------------------------------------------

@dataclass
class PlaneRep:
    plane: Plane
    run: RunReport
    setup_s: float
    run_s: float


def plane_rep(wl: Workload, inp: Inputs) -> PlaneRep:
    """Build one plane (timed as set-up) and push the whole stream through it."""
    t0 = time.perf_counter()
    plane = build_plane(wl.config, inp.ruleset)
    t1 = time.perf_counter()
    if inp.crash_ns is not None:
        plane.sim.schedule_timer("raft0", inp.crash_ns, "crash")
        plane.sim.schedule_timer("raft0", inp.restart_ns, "restart")
    t2 = time.perf_counter()
    run = plane.inject_reports(inp.reports, rate_rps=wl.stream.rate_rps)
    t3 = time.perf_counter()
    return PlaneRep(plane, run, t1 - t0, t3 - t2)


def censored_e2e(ingress: list[int], arrival: list[int | None], run_end: int) -> list[int]:
    """Reflex e2e per issued command; one never applied counts as (run end - ingress).

    A lost command thereby ranks above every delivered one (all arrivals
    happen before run end), so it counts as missing any latency limit.
    """
    return [(a if a is not None else run_end) - i for i, a in zip(ingress, arrival)]


def virtual_outcome(plane: Plane, run: RunReport, inp: Inputs) -> dict:
    """Virtual-time results of one plane run, plus a fingerprint of every output."""
    applied: dict[str, set[str]] = {
        name: {u.command_id for u, _, _ in agent.updates} for name, agent in plane.agents.items()
    }
    deliveries = sum(len(agent.updates) for agent in plane.agents.values())
    issued = plane.commands
    traces = [plane.traces[c.command_id] for c in issued]
    ok = [c.command_id in applied[c.target_element] and t.complete()
          for c, t in zip(issued, traces)]
    done = [t for t in run.traces if t.complete()]
    gate(bool(done), "no reflex command completed")
    run_end = plane.sim.clock
    e2e = sorted(censored_e2e(
        [t.report_ingress_ns for t in traces],
        [t.switch_update_arrival_ns if good else None for t, good in zip(traces, ok)],
        run_end,
    ))
    summary = plane.sim.summary()
    drops = summary.drops_by_node
    n_cls = sum(v for k, v in drops.items() if k.startswith("cls"))
    n_mon = sum(drops.get(m.monitor_id, 0) for m in plane.config.monitors)
    n_raft = sum(v for k, v in drops.items() if k.startswith("raft"))
    gap = 0
    if inp.crash_ns is not None:
        after = [u.committed_at for a in plane.agents.values() for u, _, _ in a.updates
                 if u.committed_at > inp.crash_ns]
        gate(bool(after), "no command committed after the leader crash")
        gap = min(after) - inp.crash_ns

    def stage(a: str, b: str, pct: float) -> int:
        return percentile_nearest_rank(sorted(getattr(t, b) - getattr(t, a) for t in done), pct)

    fingerprint = hashlib.sha256(repr((
        [(t.command_id, t.report_ingress_ns, t.classify_done_ns, t.monitor_decision_ns,
          t.raft_commit_ns, t.switch_update_egress_ns, t.switch_update_arrival_ns)
         for t in run.traces],
        sorted(drops.items()), run.dedup, run.classified, run.monitored, run_end,
        summary.events_processed,
        {n: [(u.command_id, u.committed_at, arr) for u, arr, _ in a.updates]
         for n, a in plane.agents.items()},
    )).encode()).hexdigest()
    return {
        "issued": len(issued),
        "applied": sum(ok),
        "deliveries": deliveries,
        "complete_traces": len(done),
        "all_monotone": all(t.monotone() for t in done),
        "e2e_p50_ns": percentile_nearest_rank(e2e, 50.0),
        "e2e_p99_ns": percentile_nearest_rank(e2e, 99.0),
        "commands_lost_frac": 1 - sum(ok) / len(issued),
        "reports_after_dedup": run.dedup.reports_out,
        "rx_drops": {"cls": n_cls, "mon": n_mon, "raft": n_raft},
        "reports_dropped_frac": (n_cls + n_mon) / run.dedup.reports_out,
        "failover_gap_ns": gap,
        "stage_classify_p99_ns": stage("report_ingress_ns", "classify_done_ns", 99.0),
        "stage_monitor_p99_ns": stage("classify_done_ns", "monitor_decision_ns", 99.0),
        "stage_replicate_p50_ns": stage("monitor_decision_ns", "raft_commit_ns", 50.0),
        "stage_replicate_p99_ns": stage("monitor_decision_ns", "raft_commit_ns", 99.0),
        "stage_forward_p99_ns": stage("raft_commit_ns", "switch_update_arrival_ns", 99.0),
        "commands_duplicated": deliveries - len(set().union(*applied.values())),
        "events": summary.events_processed,
        "dedup": vars(run.dedup),
        "fingerprint": fingerprint,
    }


def check_outcome(out: dict) -> None:
    gate(out["issued"] >= MIN_COMMANDS,
         f"only {out['issued']} commands issued; p99 needs >= {MIN_COMMANDS}")
    gate(out["all_monotone"], "a complete ReflexTrace is not monotone")


def plane_phase(wl: Workload, inp: Inputs, budget_s: float, min_reps: int = 3):
    """Fresh-plane repetitions until `min_reps` are done and the budget is spent.

    Every repetition must reproduce the first one's virtual outputs exactly.
    Only one plane is alive at a time (a 10k-rule engine holds about 1 GB).
    Returns (set-up seconds, run seconds, virtual outcome, last plane).
    """
    setup_s: list[float] = []
    run_s: list[float] = []
    first = rep = None
    t_end = time.perf_counter() + budget_s
    while len(run_s) < min_reps or time.perf_counter() < t_end:
        rep = None  # drop the previous plane before building the next
        gc.collect()
        rep = plane_rep(wl, inp)
        setup_s.append(rep.setup_s)
        run_s.append(rep.run_s)
        out = virtual_outcome(rep.plane, rep.run, inp)
        check_outcome(out)
        if first is None:
            first = out
        gate(out["fingerprint"] == first["fingerprint"],
             "a repeated plane run with the same seed gave different virtual outputs")
    return setup_s, run_s, first, rep.plane


def more_setups(wl: Workload, inp: Inputs, setup_s: list[float], budget_s: float,
                max_samples: int = 100) -> None:
    """Extra timed plane builds while one fits in the budget (cheap set-ups are noisy).

    No forced collection between builds: collecting evicts the caches and
    made the 0.3 ms plane_storm build read 10-50% slower in some processes.
    """
    t_end = time.perf_counter() + budget_s
    while len(setup_s) < max_samples and time.perf_counter() + min(setup_s) < t_end:
        t0 = time.perf_counter()
        build_plane(wl.config, inp.ruleset)
        setup_s.append(time.perf_counter() - t0)


# --------------------------------------------------------------------------
# Classifier phases
# --------------------------------------------------------------------------

def timed_passes(work: Callable[[], object], ids_of: Callable[[object], np.ndarray],
                 want: np.ndarray, budget_s: float, min_passes: int = 3
                 ) -> tuple[list[float], int, int]:
    """Repeat the same pass over the corpus until `min_passes` are done and the budget is spent.

    Only `work` is timed; `ids_of` turns its result into rule ids for the
    oracle check. Returns (keys/s of each pass, keys checked, keys that
    differ from the oracle).
    """
    rates: list[float] = []
    mismatched = 0
    t_end = time.perf_counter() + budget_s
    while len(rates) < min_passes or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        got = work()
        rates.append(len(want) / (time.perf_counter() - t0))
        mismatched += int(np.count_nonzero(ids_of(got) != want))
    return rates, len(rates) * len(want), mismatched


def rule_ids(matches: list) -> np.ndarray:
    return np.array([-1 if m is None else m.rule_id for m in matches], dtype=np.int64)


def classify_phase(engine, ruleset, inp: Inputs, budget_s: float) -> dict:
    """Scalar then batch classification of the corpus, each checked against the oracle."""
    want = classify_linear_batch(ruleset, inp.key_array)
    classify, keys = engine.classify, inp.keys
    scalar, n_s, bad_s = timed_passes(
        lambda: [classify(k) for k in keys], rule_ids, want, budget_s / 2)
    batch, n_b, bad_b = timed_passes(
        lambda: engine.classify_batch(inp.key_array), np.asarray, want, budget_s / 2)
    gate(bad_s == 0, f"{bad_s} of {n_s} scalar results differ from classify_linear_batch")
    gate(bad_b == 0, f"{bad_b} of {n_b} batch results differ from classify_linear_batch")
    return {"scalar_rates": scalar, "batch_rates": batch, "checked": n_s + n_b}
