"""Per-layer tracing from outside the program: span-recording wrappers and counters.

`Tracer.install()` replaces public functions and handler methods of the
reflexsim modules with wrappers that record one span (name, start, end,
parent) per call, plus counts read off arguments and return values at the
same boundary. `uninstall()` puts the originals back. Spans stay in memory
until `save()`. Nothing here changes what the program computes, so a traced
run must give the same virtual outputs as an untraced one.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable

import numpy as np

from reflexsim import engine, monitors, plane, raft, raftnet, rules, simnet, telemetry
from reflexsim.raft import AppendEntries, ClientReply, message_size_bytes


@dataclass
class OutboundCounts:
    """What the Raft core asked to send, counted from its returned Outbound lists."""

    append_entries: int = 0
    entries_shipped: int = 0
    bytes: int = 0
    commits: int = 0               # committed client replies from a leader
    redirects: int = 0             # uncommitted client replies
    redirects_without_hint: int = 0

    def add(self, out: list[tuple[str, Any]]) -> None:
        for _dst, msg in out:
            self.bytes += message_size_bytes(msg)
            if isinstance(msg, AppendEntries):
                self.append_entries += 1
                self.entries_shipped += len(msg.entries)
            elif isinstance(msg, ClientReply):
                if msg.committed:
                    self.commits += 1
                else:
                    self.redirects += 1
                    if msg.leader_hint is None:
                        self.redirects_without_hint += 1


@dataclass
class SpanStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


def span_stats(name_of, parent, start, end, names: list[str]) -> dict[str, SpanStats]:
    """Per span name: calls, inclusive time, and self time (minus direct children)."""
    n = len(name_of)
    child_ns = [0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child_ns[p] += end[i] - start[i]
    stats = {name: SpanStats() for name in names}
    for i in range(n):
        s = stats[names[name_of[i]]]
        dur = end[i] - start[i]
        s.calls += 1
        s.total_ns += dur
        s.self_ns += dur - child_ns[i]
    return stats


@dataclass
class Counters:
    raft: OutboundCounts = field(default_factory=OutboundCounts)
    useful_ticks: int = 0
    timer_wakeups: int = 0
    max_term: int = 0
    commands_issued: int = 0
    batch_keys: int = 0
    duplicates_removed: int = 0
    coalesced: int = 0
    leaves: int = 0
    depth: int = 0


_HANDLERS = (plane.SourceNode, plane.ClassifierNode, plane.MonitorNode,
             plane.TracingElementAgent, plane.ControlStub)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.counts = Counters()
        self._restore: list[tuple[Any, str, Any, bool]] = []

    # -- recording ------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, after: Callable | None) -> Callable:
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_of, parent, stack = self.name_of, self.parent, self._stack
        start, end = self.start, self.end

        def wrapper(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _patch_method(self, cls: type, attr: str, name: str, after: Callable | None = None) -> None:
        own = attr in cls.__dict__
        original = getattr(cls, attr)
        setattr(cls, attr, self._wrap(name, original, after))
        self._restore.append((cls, attr, original, own))

    def _patch_function(self, module, attr: str, name: str, after: Callable | None = None) -> None:
        """Replace a function in its module and wherever a reflexsim module imported it."""
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("reflexsim") and getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)
                self._restore.append((mod, attr, original, True))

    # -- counters read at the boundaries ----------------------------------------

    def _after_raft_handle(self, args, out) -> None:
        self.counts.raft.add(out)
        self.counts.max_term = max(self.counts.max_term, args[0].current_term)

    def _after_raft_tick(self, args, out) -> None:
        self.counts.useful_ticks += bool(out)
        self._after_raft_handle(args, out)

    def _after_server_timer(self, args, _out) -> None:
        self.counts.timer_wakeups += args[2] == "tick"

    def _after_observe(self, _args, result) -> None:
        if isinstance(result, list):
            self.counts.commands_issued += len(result)
        elif result is not None:
            self.counts.commands_issued += 1

    def _after_batch(self, args, _out) -> None:
        self.counts.batch_keys += len(args[1])

    def _after_dedup(self, _args, result) -> None:
        self.counts.duplicates_removed += result[1].duplicates_removed
        self.counts.coalesced += result[1].coalesced

    def _after_build(self, args, _result) -> None:
        self.counts.leaves = args[0].leaf_count
        self.counts.depth = args[0].depth

    def install(self) -> None:
        pm, pf = self._patch_method, self._patch_function
        pm(simnet.Simulator, "run_until", "simnet.run_until")
        pm(plane.Plane, "inject_reports", "plane.inject_reports")
        for cls in _HANDLERS:
            pm(cls, "on_message", "plane.handler")
            pm(cls, "on_timer", "plane.handler")
        pm(engine.ClassifierEngine, "__init__", "engine.build", self._after_build)
        pm(engine.ClassifierEngine, "classify", "engine.classify")
        pm(engine.ClassifierEngine, "classify_batch", "engine.classify_batch", self._after_batch)
        pf(rules, "key_from_report", "rules.key_from_report")
        pf(rules, "dispatch", "rules.dispatch")
        pf(telemetry, "dedup_coalesce", "telemetry.dedup_coalesce", self._after_dedup)
        pm(monitors.PathLatencyMonitor, "observe", "monitors.observe", self._after_observe)
        pm(monitors.MicroburstMonitor, "observe", "monitors.observe", self._after_observe)
        pf(monitors, "threshold_observe", "monitors.observe", self._after_observe)
        pm(raft.RaftNode, "handle", "raft.handle", self._after_raft_handle)
        pm(raft.RaftNode, "tick", "raft.tick", self._after_raft_tick)
        pm(raftnet.RaftServer, "on_message", "raftnet.server")
        pm(raftnet.RaftServer, "on_timer", "raftnet.server", self._after_server_timer)

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._restore):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._restore.clear()

    # -- results ------------------------------------------------------------------

    def stats(self) -> dict[str, SpanStats]:
        return span_stats(self.name_of, self.parent, self.start, self.end, self.names)

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names),
            name_of=np.frombuffer(self.name_of, np.uint16),
            parent=np.frombuffer(self.parent, np.int64),
            start_ns=np.frombuffer(self.start, np.int64),
            end_ns=np.frombuffer(self.end, np.int64),
        )


PER_LAYER_UNITS = {
    "simnet.events": "count",
    "simnet.events_per_report": "count/report",
    "simnet.events_per_s": "1/s",
    "simnet.self_s": "s",
    "simnet.rx_drops.cls": "count",
    "simnet.rx_drops.mon": "count",
    "simnet.rx_drops.raft": "count",
    "engine.build_s": "s",
    "engine.leaves": "count",
    "engine.depth": "count",
    "engine.classify_us": "us",
    "engine.batch_us_per_key": "us",
    "rules.key_us": "us",
    "rules.dispatch_us": "us",
    "telemetry.dedup_s": "s",
    "telemetry.duplicates_removed": "count",
    "telemetry.coalesced": "count",
    "monitors.observe_calls": "count",
    "monitors.observe_us": "us",
    "monitors.commands_issued": "count",
    "raft.handle_calls": "count",
    "raft.handle_us": "us",
    "raft.commits": "count",
    "raft.append_entries": "count",
    "raft.entries_shipped_per_commit": "count/commit",
    "raft.bytes_per_commit": "B/commit",
    "raft.redirects": "count",
    "raft.redirects_without_hint": "count",
    "raft.max_term": "count",
    "raftnet.server_us": "us",
    "raftnet.timer_wakeups_per_commit": "count/commit",
    "raftnet.useful_tick_frac": "frac",
    "plane.stage_classify_p99_vns": "vns",
    "plane.stage_monitor_p99_vns": "vns",
    "plane.stage_forward_p99_vns": "vns",
    "plane.stage_replicate_p50_vns": "vns",
    "plane.stage_replicate_p99_vns": "vns",
    "plane.commands_duplicated": "count",
    "plane.failover_gap_vns": "vns",
    "bench.trace_slowdown": "x",
}


def layer_metrics(tr: Tracer, outcome: dict, n_reports: int, untraced_events_per_s: float,
                  trace_slowdown: float) -> dict[str, float]:
    """The per-layer metrics, from spans, boundary counters and the plane's outputs."""
    st = tr.stats()
    c = tr.counts
    commits = max(c.raft.commits, 1)

    def total_s(name: str, self_time: bool = False) -> float:
        s = st[name]
        return (s.self_ns if self_time else s.total_ns) / 1e9

    def mean_us(name: str, self_time: bool = False) -> float:
        return total_s(name, self_time) * 1e6 / st[name].calls if st[name].calls else 0.0

    return {
        "simnet.events": outcome["events"],
        "simnet.events_per_report": outcome["events"] / n_reports,
        "simnet.events_per_s": untraced_events_per_s,
        "simnet.self_s": total_s("simnet.run_until", self_time=True),
        "simnet.rx_drops.cls": outcome["rx_drops"]["cls"],
        "simnet.rx_drops.mon": outcome["rx_drops"]["mon"],
        "simnet.rx_drops.raft": outcome["rx_drops"]["raft"],
        "engine.build_s": total_s("engine.build"),
        "engine.leaves": c.leaves,
        "engine.depth": c.depth,
        "engine.classify_us": mean_us("engine.classify"),
        "engine.batch_us_per_key": total_s("engine.classify_batch") * 1e6 / max(c.batch_keys, 1),
        "rules.key_us": mean_us("rules.key_from_report"),
        "rules.dispatch_us": mean_us("rules.dispatch"),
        "telemetry.dedup_s": total_s("telemetry.dedup_coalesce"),
        "telemetry.duplicates_removed": c.duplicates_removed,
        "telemetry.coalesced": c.coalesced,
        "monitors.observe_calls": st["monitors.observe"].calls,
        "monitors.observe_us": mean_us("monitors.observe"),
        "monitors.commands_issued": c.commands_issued,
        "raft.handle_calls": st["raft.handle"].calls,
        "raft.handle_us": mean_us("raft.handle"),
        "raft.commits": c.raft.commits,
        "raft.append_entries": c.raft.append_entries,
        "raft.entries_shipped_per_commit": c.raft.entries_shipped / commits,
        "raft.bytes_per_commit": c.raft.bytes / commits,
        "raft.redirects": c.raft.redirects,
        "raft.redirects_without_hint": c.raft.redirects_without_hint,
        "raft.max_term": c.max_term,
        "raftnet.server_us": mean_us("raftnet.server", self_time=True),
        "raftnet.timer_wakeups_per_commit": c.timer_wakeups / commits,
        "raftnet.useful_tick_frac": c.useful_ticks / max(c.timer_wakeups, 1),
        "plane.stage_classify_p99_vns": outcome["stage_classify_p99_ns"],
        "plane.stage_monitor_p99_vns": outcome["stage_monitor_p99_ns"],
        "plane.stage_forward_p99_vns": outcome["stage_forward_p99_ns"],
        "plane.stage_replicate_p50_vns": outcome["stage_replicate_p50_ns"],
        "plane.stage_replicate_p99_vns": outcome["stage_replicate_p99_ns"],
        "plane.commands_duplicated": outcome["commands_duplicated"],
        "plane.failover_gap_vns": outcome["failover_gap_ns"],
        "bench.trace_slowdown": trace_slowdown,
    }
