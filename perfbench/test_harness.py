"""Self-tests of the benchmark's own helpers: python -m pytest perfbench -q"""

from array import array

from harness import censored_e2e
from layers import OutboundCounts, Tracer, span_stats
from reflexsim.monitors import SetParam
from reflexsim.raft import (
    AppendEntries,
    AppendReply,
    ClientReply,
    Control,
    ControlCommand,
    NoOp,
    RaftLogEntry,
    message_size_bytes,
)
from reflexsim.simnet import percentile_nearest_rank


def test_lost_commands_rank_at_run_end():
    ingress = [100, 200, 300, 400]
    arrival = [4_000, None, 4_300, None]
    e2e = censored_e2e(ingress, arrival, run_end=10_000)
    assert e2e == [3_900, 9_800, 4_000, 9_600]
    ranked = sorted(e2e)
    # both lost commands rank above every delivered one
    assert ranked[-2:] == [9_600, 9_800]
    assert percentile_nearest_rank(ranked, 50.0) == 4_000
    assert percentile_nearest_rank(ranked, 99.0) == 9_800


def test_self_time_subtracts_direct_children_only():
    # root [0, 100) holds a [10, 40) and b [50, 90); a holds c [15, 25)
    names = ["root", "a", "b", "c"]
    name_of = array("H", [0, 1, 3, 2])
    parent = array("q", [-1, 0, 1, 0])
    start = array("q", [0, 10, 15, 50])
    end = array("q", [100, 40, 25, 90])
    st = span_stats(name_of, parent, start, end, names)
    assert (st["root"].total_ns, st["root"].self_ns) == (100, 100 - 30 - 40)
    assert (st["a"].total_ns, st["a"].self_ns) == (30, 20)
    assert (st["b"].self_ns, st["c"].self_ns) == (40, 10)


def test_tracer_records_nesting_and_restores_originals():
    class Thing:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 41

    original = Thing.__dict__["outer"]
    tr = Tracer()
    tr._patch_method(Thing, "outer", "outer")
    tr._patch_method(Thing, "inner", "inner")
    assert Thing().outer() == 42
    tr.uninstall()
    assert Thing.__dict__["outer"] is original
    assert list(tr.parent) == [-1, 0]
    st = tr.stats()
    assert st["outer"].calls == st["inner"].calls == 1
    assert st["outer"].self_ns == st["outer"].total_ns - st["inner"].total_ns


def test_entries_shipped_counter_on_hand_built_outbound():
    cmd = ControlCommand("c1", 0, "s1", SetParam("x", 1))
    entries = tuple(RaftLogEntry(1, i, Control(cmd), ("m0", i)) for i in (1, 2, 3))
    ae_full = AppendEntries(1, "raft0", 0, 0, entries, 0)
    ae_tail = AppendEntries(1, "raft0", 2, 1, entries[2:], 0)
    heartbeat = AppendEntries(1, "raft0", 3, 1, (), 3)
    out = [
        ("raft1", ae_full),
        ("raft2", ae_tail),
        ("raft1", heartbeat),
        ("raft0", AppendReply(1, True, 3)),
        ("m0", ClientReply(1, True, "raft0")),
        ("m0", ClientReply(2, True, "raft0")),
        ("m1", ClientReply(7, False, "raft1")),
        ("m1", ClientReply(8, False, None)),
    ]
    c = OutboundCounts()
    c.add(out)
    assert c.append_entries == 3
    assert c.entries_shipped == 4
    assert c.commits == 2
    assert (c.redirects, c.redirects_without_hint) == (2, 1)
    assert c.bytes == sum(message_size_bytes(m) for _, m in out)
    c.add([("raft1", AppendEntries(2, "raft0", 3, 1, (RaftLogEntry(2, 4, NoOp()),), 3))])
    assert (c.append_entries, c.entries_shipped) == (4, 5)


def test_benchmark_json_matches_the_code():
    import json
    from pathlib import Path

    import run
    import workloads
    from layers import PER_LAYER_UNITS

    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER_UNITS
