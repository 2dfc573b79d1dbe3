"""Workload definitions and seeded input generation for the reflexsim benchmark.

Every input is built here, before any measurement, from `reflexsim.fixtures`
(rulesets, key corpora) and the `reflexsim.telemetry` constructors (INT
reports). The program under test only ever receives these generated inputs.

Rulesets are fixed per workload (their seed is part of the workload's
definition); the run seed draws the traffic: flows, anomaly positions,
duplicates and the classifier key corpus. A ruleset decides the shape of
the cut tree, and with it the classify cost: three 10k-rule rulesets drawn
from seeds 1, 2 and 3 gave 12 k, 5.5 k and 23 k scalar keys/s on one
2-vCPU AMD EPYC machine. Redrawing the ruleset with every seed would bury
any change in that spread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from reflexsim.fixtures import gen_acl_ruleset, gen_keys
from reflexsim.plane import MonitorSpec, PlaneConfig, apply_preset
from reflexsim.rng import make_rng
from reflexsim.rules import Action, Rule, RuleSet, Wildcard, key_from_report
from reflexsim.telemetry import FlowKey, HopMetadata, IntReport

# The held-out seed: never used while tuning the benchmark or a change; a
# claimed gain must also hold when the runs are repeated with it.
HELD_OUT_SEED = 9001

RULESET_SEED = 1
SWITCHES = ("s1", "s2", "s3")           # PlaneConfig's default elements
PREFIX_POOL = (10 << 24, 172 << 24, 192 << 24, 100 << 24)  # gen_acl_ruleset's /8s
DST_PORTS = (22, 25, 53, 80, 123, 443, 8080)
SPIKE_NS = 1_500                        # path_latency monitors fire above mean + 500 ns
HOT_UTIL = 0.6                          # other hops stay below 0.5; threshold monitors use 0.55
CORPUS_KEYS = 8_192                     # keys in one classify pass (and oracle check)


@dataclass(frozen=True)
class StreamSpec:
    """Shape of a seeded INT report stream (open loop, fixed interval)."""

    n_reports: int
    rate_rps: float
    n_flows: int
    # Shares of reports, each placed at seed-drawn positions. Exact counts,
    # not coin flips, so the load a seed offers differs only in its timing.
    spike_frac: float = 0.0     # path latency +SPIKE_NS at the middle hop
    burst_frac: float = 0.0     # one hop's queue depth 20-40 packets (microburst)
    hot_frac: float = 0.0       # one hop's link utilisation above HOT_UTIL
    dup_frac: float = 0.0       # followed by an exact duplicate
    partial_frac: float = 0.0   # followed by a same (flow, seq) hop prefix: coalesced


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: PlaneConfig
    n_rules: int | None          # None: the plane's default one-rule ruleset
    stream: StreamSpec
    rule_monitors: tuple[str, ...] = ("m0",)  # gen_acl_ruleset spreads rules over these
    catch_all: bool = False      # lowest-priority rule to the first monitor
    key_corpus: bool = False     # classify a gen_keys corpus, not the stream's own keys
    fault: bool = False          # crash raft0 mid-run, restart it 1 ms later


THRESHOLD_M0 = MonitorSpec("m0", "threshold", field="link_utilization", limit=0.55)


def _nanopu(*monitors: MonitorSpec) -> PlaneConfig:
    return apply_preset(PlaneConfig(monitors=monitors), "nanopu")


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="plane_acl",
            why="Everyday loop with a leader crash: kernel, 1k-rule scalar classify, "
                "dispatch and monitors do the wall work; the failover loses commands.",
            config=_nanopu(MonitorSpec("m0", "path_latency"), MonitorSpec("m1", "microburst")),
            n_rules=1_000,
            stream=StreamSpec(n_reports=50_000, rate_rps=2e6, n_flows=1_024,
                              spike_frac=0.05, burst_frac=0.01,
                              dup_frac=0.01, partial_frac=0.01),
            rule_monitors=("m0", "m1"),
            catch_all=True,
            fault=True,
        ),
        Workload(
            name="plane_storm",
            why="Reflex storm: a threshold monitor fires on 83% of a 1M reports/s burst, "
                "overloading Raft writes; Raft, raftnet and the kernel do the work.",
            config=_nanopu(THRESHOLD_M0),
            n_rules=None,
            stream=StreamSpec(n_reports=7_000, rate_rps=1e6, n_flows=256, hot_frac=0.83),
        ),
        Workload(
            name="classify_10k",
            why="10k-rule classifier at its node budget: scalar and batch keys/s on a 70%-hit "
                "corpus, plus a short plane phase whose wall time is classification.",
            config=_nanopu(THRESHOLD_M0),
            n_rules=10_000,
            stream=StreamSpec(n_reports=3_000, rate_rps=2e5, n_flows=256, hot_frac=0.83),
            key_corpus=True,
        ),
    )
}


@dataclass
class Inputs:
    ruleset: RuleSet | None
    reports: list[IntReport]
    keys: list[tuple[int, ...]]      # classify corpus, scalar form
    key_array: np.ndarray            # the same corpus, batch form
    crash_ns: int | None
    restart_ns: int | None


def with_catch_all(ruleset: RuleSet, monitor: str) -> RuleSet:
    """Append a lowest-priority all-wildcard rule, so every report reaches a monitor."""
    n = len(ruleset)
    rule = Rule(n, 0, tuple(Wildcard() for _ in ruleset.schema), Action((monitor,)))
    return RuleSet([*ruleset.rules, rule], ruleset.schema)


def gen_flows(rng: np.random.Generator, n_flows: int) -> list[FlowKey]:
    """Flows whose addresses and ports come from the pools the ACL generator uses."""
    pool = np.array(PREFIX_POOL, dtype=np.int64)
    src = pool[rng.integers(0, len(pool), n_flows)] | rng.integers(0, 1 << 24, n_flows)
    dst = pool[rng.integers(0, len(pool), n_flows)] | rng.integers(0, 1 << 24, n_flows)
    sport = rng.integers(1024, 65536, n_flows)
    dport = np.array(DST_PORTS)[rng.integers(0, len(DST_PORTS), n_flows)]
    proto = np.where(rng.random(n_flows) < 0.7, 6, 17)
    return [
        FlowKey(int(a), int(b), int(c), int(d), int(e))
        for a, b, c, d, e in zip(src, dst, sport, dport, proto)
    ]


def _positions(rng: np.random.Generator, n: int, frac: float) -> np.ndarray:
    return rng.choice(n, size=round(frac * n), replace=False)


def gen_reports(spec: StreamSpec, seed: int, label: str) -> list[IntReport]:
    """Seeded report stream over three switches, with planted anomalies and duplicates."""
    rng = make_rng(seed, "perfbench", label, "reports")
    n, hops = spec.n_reports, len(SWITCHES)
    flows = gen_flows(rng, spec.n_flows)
    base = rng.integers(200, 901, (spec.n_flows, hops))
    flow_of = rng.integers(0, spec.n_flows, n)
    lat = base[flow_of] + rng.integers(0, 51, (n, hops))
    lat[_positions(rng, n, spec.spike_frac), 1] += SPIKE_NS
    depth = rng.integers(0, 9, (n, hops))
    burst = _positions(rng, n, spec.burst_frac)
    depth[burst, rng.integers(0, hops, len(burst))] = rng.integers(20, 41, len(burst))
    util = rng.random((n, hops)) * 0.5
    hot = _positions(rng, n, spec.hot_frac)
    util[hot, rng.integers(0, hops, len(hot))] = HOT_UTIL + rng.random(len(hot)) * (1 - HOT_UTIL)
    util = np.round(util, 4)
    ts = np.cumsum(lat, axis=1)
    extra = np.zeros(n, dtype=np.int8)
    dup_or_partial = _positions(rng, n, spec.dup_frac + spec.partial_frac)
    extra[dup_or_partial] = 2
    extra[dup_or_partial[: round(spec.dup_frac * n)]] = 1
    seqs = [0] * spec.n_flows
    out: list[IntReport] = []
    for i in range(n):
        f = int(flow_of[i])
        report = IntReport(
            flow=flows[f],
            seq=seqs[f],
            hops=tuple(
                HopMetadata(SWITCHES[h], h, h + 1, 0, int(depth[i, h]), int(lat[i, h]),
                            float(util[i, h]), int(ts[i, h]))
                for h in range(hops)
            ),
            pkt_size_bytes=64,
        )
        seqs[f] += 1
        out.append(report)
        if extra[i] == 1:
            out.append(report)
        elif extra[i] == 2:
            out.append(IntReport(report.flow, report.seq, report.hops[:2], 64))
    return out


def make_inputs(wl: Workload, seed: int) -> Inputs:
    ruleset = None
    if wl.n_rules is not None:
        ruleset = gen_acl_ruleset(wl.n_rules, RULESET_SEED, wl.rule_monitors)
        if wl.catch_all:
            ruleset = with_catch_all(ruleset, wl.rule_monitors[0])
    reports = gen_reports(wl.stream, seed, wl.name)
    if wl.key_corpus:
        key_array = gen_keys(ruleset, CORPUS_KEYS, seed, hit_fraction=0.7)
        keys = [tuple(int(v) for v in row) for row in key_array]
    else:
        keys = [key_from_report(r) for r in reports[:CORPUS_KEYS]]
        key_array = np.array(keys, dtype=np.int64)
    crash_ns = restart_ns = None
    if wl.fault:
        interval = max(1, round(1e9 / wl.stream.rate_rps))
        crash_ns = 1_000 + (wl.stream.n_reports // 2) * interval
        restart_ns = crash_ns + 1_000_000
    return Inputs(ruleset, reports, keys, key_array, crash_ns, restart_ns)
