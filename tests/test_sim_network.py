"""Unit tests for the simulated network and delay models."""

import math
import sys
from dataclasses import dataclass

import pytest

from repro._core import MEMO_LIMIT, IdentityMemo, canonical_bytes
from repro.sim.events import Simulator
from repro.sim.network import (
    Network,
    PartialSynchronyDelay,
    RandomDelay,
    RoundSynchronousDelay,
    SynchronousDelay,
    payload_size,
)


def make_network(delay_model=None, interceptor=None, pids=range(4), **kwargs):
    sim = Simulator()
    net = Network(sim, delay_model=delay_model, interceptor=interceptor, **kwargs)
    inboxes = {pid: [] for pid in pids}
    for pid in pids:
        net.register(
            pid,
            lambda src, payload, pid=pid: inboxes[pid].append(
                (src, payload, net.sim.now)
            ),
        )
    return sim, net, inboxes


class TestSynchronousDelay:
    def test_fixed_delay(self):
        sim, net, inboxes = make_network(SynchronousDelay(2.5))
        net.send(0, 1, "hello")
        sim.run()
        assert inboxes[1] == [(0, "hello", 2.5)]

    def test_sender_identity_preserved(self):
        sim, net, inboxes = make_network()
        net.send(3, 2, "msg")
        sim.run()
        assert inboxes[2][0][0] == 3


class TestRoundSynchronousDelay:
    def test_message_at_time_zero_arrives_at_delta(self):
        model = RoundSynchronousDelay(1.0)
        assert model.delivery_time(0.0) == 1.0

    def test_message_mid_round_arrives_at_round_boundary(self):
        model = RoundSynchronousDelay(1.0)
        assert model.delivery_time(0.4) == 1.0
        assert model.delivery_time(1.7) == 2.0

    def test_message_on_boundary_goes_to_next_round(self):
        model = RoundSynchronousDelay(1.0)
        assert model.delivery_time(1.0) == 2.0

    def test_custom_delta(self):
        model = RoundSynchronousDelay(5.0)
        assert model.delivery_time(0.0) == 5.0
        assert model.delivery_time(7.0) == 10.0

    def test_end_to_end_two_hops(self):
        sim, net, inboxes = make_network(RoundSynchronousDelay(1.0))
        # Relay: on delivery at 1.0, respond; response arrives at 2.0.
        net.unregister(1)
        net.register(1, lambda src, payload: net.send(1, 0, "pong"))
        net.send(0, 1, "ping")
        sim.run()
        assert inboxes[0] == [(1, "pong", 2.0)]


class TestPartialSynchronyDelay:
    def test_after_gst_delay_is_delta(self):
        model = PartialSynchronyDelay(delta=1.0, gst=10.0, seed=1)
        assert model.delay(0, 1, 10.0) == 1.0
        assert model.delay(0, 1, 50.0) == 1.0

    def test_before_gst_delay_bounded(self):
        model = PartialSynchronyDelay(delta=1.0, gst=100.0, pre_gst_max=30.0, seed=2)
        for _ in range(50):
            delay = model.delay(0, 1, 5.0)
            assert 0.0 <= delay <= 30.0

    def test_messages_in_flight_at_gst_arrive_by_gst_plus_delta(self):
        model = PartialSynchronyDelay(delta=1.0, gst=10.0, pre_gst_max=1000.0, seed=3)
        for send_time in (0.0, 5.0, 9.9):
            arrival = send_time + model.delay(0, 1, send_time)
            assert arrival <= 10.0 + 1.0 + 1e-9

    def test_deterministic_given_seed(self):
        a = PartialSynchronyDelay(gst=100.0, seed=7)
        b = PartialSynchronyDelay(gst=100.0, seed=7)
        assert [a.delay(0, 1, 1.0) for _ in range(10)] == [
            b.delay(0, 1, 1.0) for _ in range(10)
        ]


class TestRandomDelay:
    def test_within_bounds(self):
        model = RandomDelay(0.5, 1.5, seed=0)
        for _ in range(100):
            assert 0.5 <= model.delay(0, 1, 0.0) <= 1.5

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            RandomDelay(2.0, 1.0)
        with pytest.raises(ValueError):
            RandomDelay(-1.0, 1.0)

    def test_seeded_determinism(self):
        a = RandomDelay(seed=5)
        b = RandomDelay(seed=5)
        assert [a.delay(0, 1, 0.0) for _ in range(20)] == [
            b.delay(0, 1, 0.0) for _ in range(20)
        ]


class TestNetwork:
    def test_broadcast_reaches_everyone_including_self(self):
        sim, net, inboxes = make_network()
        net.broadcast(0, "all")
        sim.run()
        for pid in range(4):
            assert inboxes[pid] == [(0, "all", 1.0)]

    def test_broadcast_exclude_self(self):
        sim, net, inboxes = make_network()
        net.broadcast(0, "others", include_self=False)
        sim.run()
        assert inboxes[0] == []
        assert inboxes[1] == [(0, "others", 1.0)]

    def test_unknown_destination_rejected(self):
        sim, net, _ = make_network()
        with pytest.raises(ValueError, match="unknown destination process 99"):
            net.send(0, 99, "x")

    def test_delay_model_returning_invalid_delay_rejected(self):
        class BadModel:
            def delay(self, src, dst, send_time):
                return -1.0

        sim, net, _ = make_network(BadModel())
        with pytest.raises(
            ValueError, match="delay model returned invalid delay -1.0"
        ):
            net.send(0, 0, "x")

    def test_duplicate_registration_rejected(self):
        sim, net, _ = make_network()
        with pytest.raises(ValueError):
            net.register(0, lambda s, p: None)

    def test_message_to_unregistered_destination_dropped_silently(self):
        sim, net, inboxes = make_network()
        net.send(0, 1, "x")
        net.unregister(1)
        sim.run()  # no exception; message dropped (process shut down)
        assert inboxes[1] == []

    def test_stats_count_sends_and_deliveries(self):
        sim, net, _ = make_network()
        net.broadcast(0, "x")
        sim.run()
        assert net.stats.messages_sent == 4
        assert net.stats.messages_delivered == 4

    def test_no_duplication_no_loss(self):
        sim, net, inboxes = make_network()
        for i in range(25):
            net.send(0, 1, i)
        sim.run()
        assert [p for _, p, _ in inboxes[1]] == list(range(25))

    def test_equal_times_deliver_in_send_order(self):
        sim = Simulator()
        net = Network(sim, delay_model=SynchronousDelay(1.0))
        delivered = []
        for pid in range(3):
            net.register(pid, lambda src, payload: delivered.append(payload))
        net.send(0, 1, "a")
        net.send(1, 2, "b")
        sim.run()
        assert delivered == ["a", "b"]

    def test_rule_delayed_and_plain_sends_deliver_alike(self):
        """The slow (rule-active) path and the fast path reach the same
        handlers the same way."""
        from repro.sim.network import DelayRule

        sim, net, inboxes = make_network(SynchronousDelay(1.0))
        net.send(0, 1, "fast")
        net.set_delay_rule(DelayRule(name="later", extra_delay=5.0))
        net.send(0, 2, "slow")
        sim.run()
        assert inboxes[1] == [(0, "fast", 1.0)]
        assert inboxes[2] == [(0, "slow", 6.0)]

    def test_send_hook_sees_every_send(self):
        sim, net, _ = make_network()
        seen = []
        net.add_send_hook(seen.append)
        record = net.broadcast(0, "x")
        assert seen == [record]
        assert (record.payload, record.dsts) == ("x", (0, 1, 2, 3))


class TestPayloadSizeMemo:
    def test_alternating_broadcasts_do_not_thrash(self):
        """Two payload objects broadcast in the same tick (client request +
        replica gossip) must each be walked once, not once per recipient —
        the regression the old one-entry cache had."""
        sim, net, _ = make_network()
        a = ("client-request", "k1", 1)
        b = ("replica-gossip", "k2", 2)
        net.broadcast(0, a)
        net.broadcast(1, b)
        net.broadcast(0, a)
        net.broadcast(1, b)
        assert net.stats.size_cache_misses == 2  # one walk per object
        assert net.stats.size_cache_hits == 2   # re-broadcasts hit
        sim.run()

    def test_sends_of_same_object_hit_the_memo(self):
        sim, net, _ = make_network()
        payload = ("x", 1)
        for dst in range(3):
            net.send(0, dst, payload)
        assert net.stats.size_cache_misses == 1
        assert net.stats.size_cache_hits == 2

    def test_bytes_accounting_matches_unmemoized_walk(self):
        sim, net, _ = make_network()
        a = ("client-request", "k1", 1)
        b = ("replica-gossip", "k2", 2)
        net.broadcast(0, a)
        net.broadcast(1, b)
        net.broadcast(0, a)
        expected = 4 * (2 * payload_size(a) + payload_size(b))
        assert net.stats.bytes_sent == expected


@dataclass(frozen=True)
class _Value:
    """A frozen value embedded in other payloads (a stand-in for the SMR
    layer's ``Batch``; ``signing_fields`` lets both walks take it)."""

    entries: tuple

    def signing_fields(self):
        return (self.entries,)


both_walks = pytest.mark.parametrize(
    "walk", [payload_size, canonical_bytes], ids=["size", "bytes"]
)


class TestSizeMemoSafety:
    """The identity memo both walks share (``Network``'s for sizes,
    ``KeyRegistry``'s for bytes) must survive CPython id reuse, at the
    top of a walk and at the nodes inside it."""

    @both_walks
    def test_stale_entry_with_aliased_id_cannot_hit(self, walk):
        """The regression the safe keying exists for: an entry whose id()
        key aliases a *different* live object (as happens when a memo
        without strong references outlives its payload) must miss."""
        memo = IdentityMemo(walk)
        stale_payload = ("old",)
        fresh_payload = ("this", "is", "new")
        memo.entries[id(fresh_payload)] = (stale_payload, 999_999)
        assert memo.get(fresh_payload) == walk(fresh_payload)
        assert (memo.hits, memo.misses) == (0, 1)
        # The stale entry was overwritten with a correct one.
        assert memo.entries[id(fresh_payload)][0] is fresh_payload

    @both_walks
    def test_stale_node_entry_with_aliased_id_cannot_hit(self, walk):
        """Same hazard one level down: the aliased entry sits on a node
        *inside* the payload being walked."""
        memo = IdentityMemo(walk)
        value = _Value((1, "two"))
        memo.entries[id(value)] = (_Value(("stale",) * 9), 999_999)
        payload = ("ack", value, 3)
        assert memo.get(payload) == walk(payload)
        assert memo.entries[id(value)] == (value, walk(value))

    @both_walks
    def test_id_reuse_under_churn_stays_correct(self, walk):
        """Drive real id reuse: same-shape tuples die every iteration, so
        CPython's allocator hands later payloads the ids of evicted dead
        ones.  Results must stay correct throughout, and (on CPython) the
        hazard must actually have occurred for the test to mean anything."""
        memo = IdentityMemo(walk)
        seen_ids = set()
        reused = 0
        for i in range(40 * MEMO_LIMIT):
            payload = ("key", "v" * (i % 3), i % 2 == 0)
            if id(payload) in seen_ids:
                reused += 1
            assert memo.get(payload) == walk(payload)
            seen_ids.add(id(payload))
            del payload
        assert len(memo) <= MEMO_LIMIT
        if sys.implementation.name == "cpython":
            assert reused > 0, "workload never recycled an id"

    @both_walks
    def test_a_dead_nodes_recycled_id_never_serves_a_live_one(self, walk):
        """Node-level id reuse: every iteration mints a fresh value inside
        a fresh wrapper and drops both, so once the memo evicts them the
        allocator recycles their ids for later, *different* values."""
        memo = IdentityMemo(walk)
        seen_ids = set()
        reused = 0
        for i in range(40 * MEMO_LIMIT):
            value = _Value(("cmd", "k" * (i % 5), i))
            if id(value) in seen_ids:
                reused += 1
            payload = ("ack", value, i % 3)
            assert memo.get(payload) == walk(payload)
            assert memo.entries[id(value)][0] is value  # admitted as a node
            seen_ids.add(id(value))
            del value, payload
        assert len(memo) <= MEMO_LIMIT
        if sys.implementation.name == "cpython":
            assert reused > 0, "workload never recycled a node id"

    @both_walks
    def test_eviction_is_oldest_first_not_wholesale(self, walk):
        memo = IdentityMemo(walk)
        payloads = [("p", i) for i in range(MEMO_LIMIT + 1)]
        for payload in payloads:
            memo.get(payload)
        assert len(memo) == MEMO_LIMIT
        # Only the oldest entry fell out; the rest still hit.
        assert id(payloads[0]) not in memo.entries
        hits_before = memo.hits
        for payload in payloads[1:]:
            memo.get(payload)
        assert memo.hits == hits_before + len(payloads) - 1

    @both_walks
    def test_a_shared_node_is_walked_once_across_fresh_wrappers(self, walk):
        memo = IdentityMemo(walk)
        value = _Value(tuple(("set", f"k{i}", i) for i in range(8)))
        for view in range(5):
            payload = ("ack", value, view)  # minted fresh, like a message
            assert memo.get(payload) == walk(payload)
        # Every top-level lookup missed; the value inside was a node hit.
        assert (memo.hits, memo.misses) == (0, 5)
        assert memo.entries[id(value)] == (value, walk(value))

    @both_walks
    def test_payload_holding_something_mutable_is_never_admitted(self, walk):
        memo = IdentityMemo(walk)
        inner = ["x" * 10]
        value = _Value((1, inner))  # frozen, but not all the way down
        payload = ("ack", value)
        before = memo.get(payload)
        assert before == walk(payload)
        assert not memo.entries
        inner.append("x" * 12)
        assert memo.get(payload) == walk(payload) != before
        assert (memo.hits, memo.misses) == (0, 2)

    def test_mutated_list_is_re_walked_on_the_next_send(self):
        """The size memo used to admit anything, a list included, and
        accounted the second send at the first one's 26 bytes."""
        sim, net, _ = make_network()
        payload = ["x" * 11, "y" * 11]
        net.send(0, 1, payload)
        payload.append("x" * 12)
        net.send(0, 1, payload)
        assert net.stats.bytes_sent == 26 + 39
        assert (net.stats.size_cache_hits, net.stats.size_cache_misses) == (0, 2)


class TestSendDeliverTrace:
    """Sends, a broadcast, an unregister and a memo hit with every
    observable pinned to literals: envelopes, per-inbox delivery order and
    clock types, stats counters, and the simulator's event count."""

    @pytest.mark.parametrize(
        "delay_model, at",
        [(SynchronousDelay(1.0), 1.0), (RoundSynchronousDelay(2.0), 2.0)],
        ids=["fixed", "model"],
    )
    def test_trace_is_exactly_this(self, delay_model, at):
        sim = Simulator()
        net = Network(sim, delay_model=delay_model)
        inboxes = {pid: [] for pid in range(4)}
        for pid in range(4):
            net.register(
                pid,
                lambda src, payload, pid=pid: inboxes[pid].append(
                    (src, payload, sim.now, type(sim.now).__name__)
                ),
            )
        req = ("req", "value", 7)
        gossip = ("gossip", 2)
        records = [net.send(0, dst, req) for dst in range(4)]
        records.append(net.broadcast(1, gossip, include_self=False))
        net.unregister(3)
        net.send(0, 2, req)  # memo hit
        sim.run()

        # ("req", "value", 7) is 2 + 4 + 6 + 8 bytes, ("gossip", 2) is
        # 2 + 7 + 8: the accounted size rides on the record.
        assert [tuple(record.dsts) for record in records] == [
            (0,), (1,), (2,), (3,), (0, 2, 3),
        ]
        assert [
            (r.src, dst, r.payload, r.send_time, at, r.size)
            for r in records
            for dst, at in zip(r.dsts, r.deliver_times)
        ] == [
            (0, dst, req, 0.0, at, 20) for dst in range(4)
        ] + [(1, dst, gossip, 0.0, at, 17) for dst in (0, 2, 3)]
        assert inboxes == {
            0: [(0, req, at, "float"), (1, gossip, at, "float")],
            1: [(0, req, at, "float")],
            2: [(0, req, at, "float"), (1, gossip, at, "float"),
                (0, req, at, "float")],
            3: [],  # unregistered while its messages were in flight
        }
        stats = net.stats
        assert (
            stats.messages_sent,
            stats.messages_delivered,
            stats.bytes_sent,
            stats.size_cache_hits,
            stats.size_cache_misses,
        ) == (8, 6, 151, 4, 2)
        assert (sim.events_processed, sim.now) == (8, at)


class TestRegistrationCache:
    def test_process_ids_cached_and_invalidated(self):
        sim, net, _ = make_network()
        first = net.process_ids
        assert first == (0, 1, 2, 3)
        assert net.process_ids is first  # cached tuple, not re-sorted
        net.register(9, lambda s, p: None)
        assert net.process_ids == (0, 1, 2, 3, 9)
        net.unregister(1)
        assert net.process_ids == (0, 2, 3, 9)

    def test_broadcast_after_unregister_skips_removed(self):
        sim, net, inboxes = make_network()
        net.unregister(2)
        net.broadcast(0, "x")
        sim.run()
        assert inboxes[2] == []
        assert inboxes[3] == [(0, "x", 1.0)]


class TestDelayModelSwap:
    def test_fixed_delay_cache_follows_model_swap(self):
        """The SynchronousDelay fast path must track delay_model updates."""
        sim, net, inboxes = make_network(SynchronousDelay(1.0))
        net.send(0, 1, "first")
        net.delay_model = SynchronousDelay(5.0)
        net.send(0, 1, "second")  # still sent at t=0, now with delta=5
        sim.run()
        assert inboxes[1] == [(0, "first", 1.0), (0, "second", 5.0)]

    def test_swap_to_non_fixed_model(self):
        sim, net, inboxes = make_network(SynchronousDelay(1.0))
        net.delay_model = RoundSynchronousDelay(2.0)
        net.send(0, 1, "x")
        sim.run()
        assert inboxes[1] == [(0, "x", 2.0)]


class TestInterceptor:
    def test_interceptor_can_delay_messages(self):
        def delay_to_ten(envelope):
            if envelope.dst == 1:
                return 10.0
            return None

        sim, net, inboxes = make_network(
            SynchronousDelay(1.0), interceptor=delay_to_ten
        )
        net.broadcast(0, "x")
        sim.run()
        assert inboxes[1][0][2] == 10.0
        assert inboxes[2][0][2] == 1.0

    def test_interceptor_cannot_drop_messages(self):
        sim, net, _ = make_network(
            SynchronousDelay(1.0), interceptor=lambda env: math.inf
        )
        with pytest.raises(ValueError):
            net.send(0, 1, "x")

    def test_interceptor_cannot_deliver_in_past(self):
        sim, net, _ = make_network(
            SynchronousDelay(1.0), interceptor=lambda env: -5.0
        )
        with pytest.raises(ValueError):
            net.send(0, 1, "x")


class TestDelayModelEdgeCases:
    """Exact-boundary behaviour the scenario engine's schedules rely on."""

    def test_round_boundary_send_at_every_round(self):
        """A send at exactly i*delta belongs to round i+1 for every i."""
        model = RoundSynchronousDelay(1.0)
        for i in range(10):
            assert model.delivery_time(float(i)) == float(i + 1)

    def test_round_boundary_with_fractional_delta(self):
        model = RoundSynchronousDelay(0.25)
        assert model.delivery_time(0.5) == 0.75   # exactly on a boundary
        assert model.delivery_time(0.5 + 1e-12) == 0.75  # just inside the round

    def test_round_delay_is_always_positive(self):
        """No model may produce a zero or negative transit time."""
        model = RoundSynchronousDelay(1.0)
        for send_time in (0.0, 0.3, 0.999999, 1.0, 7.5, 100.0):
            assert model.delay(0, 1, send_time) > 0.0

    def test_just_before_boundary_delivers_at_that_boundary(self):
        model = RoundSynchronousDelay(1.0)
        send = 3.0 - 1e-9
        assert model.delivery_time(send) == 3.0

    def test_partial_synchrony_send_just_before_gst(self):
        """A message sent at gst - epsilon must arrive by gst + delta."""
        model = PartialSynchronyDelay(delta=1.0, gst=20.0, pre_gst_max=50.0, seed=3)
        for epsilon in (1e-9, 1e-3, 0.5, 1.0):
            send = 20.0 - epsilon
            delay = model.delay(0, 1, send)
            assert delay >= 0.0
            assert send + delay <= 20.0 + 1.0 + 1e-9, (
                f"send at {send} arrived at {send + delay}, after gst + delta"
            )

    def test_partial_synchrony_send_exactly_at_gst(self):
        model = PartialSynchronyDelay(delta=1.0, gst=20.0, seed=3)
        assert model.delay(0, 1, 20.0) == 1.0

    def test_partial_synchrony_pre_gst_delay_never_negative(self):
        """Sends inside (gst - delta, gst) hit the gst + delta clamp; the
        resulting delay must stay >= 0 even when the raw draw overshoots."""
        model = PartialSynchronyDelay(delta=2.0, gst=5.0, pre_gst_max=100.0, seed=0)
        for send in (4.0, 4.5, 4.999, 3.0):
            for _ in range(20):
                delay = model.delay(0, 1, send)
                assert delay >= 0.0
                assert send + delay <= 5.0 + 2.0 + 1e-9

    def test_partial_synchrony_early_send_bounded_by_pre_gst_max(self):
        model = PartialSynchronyDelay(delta=1.0, gst=1000.0, pre_gst_max=30.0, seed=9)
        for _ in range(50):
            delay = model.delay(0, 1, 0.0)
            assert 1.0 <= delay <= 30.0


class _CountingHandlers(dict):
    """A registry that counts its membership tests."""

    lookups = 0

    def __contains__(self, pid):
        self.lookups += 1
        return super().__contains__(pid)


class _EnvelopeLog:
    """A tracer that wants everything and logs what it is shown."""

    def __init__(self):
        self.sent, self.delivered = [], []

    def wants(self, payload_type):
        return True

    def on_send(self, envelope):
        self.sent.append(envelope)
        return envelope

    def begin_delivery(self, envelope):
        self.delivered.append(envelope)

    def end_delivery(self, token):
        pass


class TestBroadcastGroup:
    def test_an_unknown_member_is_rejected_when_declared(self):
        sim, net, _ = make_network()
        with pytest.raises(ValueError, match="unknown destination process 9"):
            net.group([0, 1, 9])
        group = net.group([2, 0, 1])
        assert group == (0, 1, 2) and net.group(range(3)) == group
        # Declared once: no send to the group tests the registry again.
        net._handlers = counting = _CountingHandlers(net._handlers)
        net.broadcast(0, "in", group=group)
        net.broadcast(0, "in", include_self=False, group=group)
        assert counting.lookups == 0
        net._send_general(0, (0, 1, 3), "hand-built")
        assert counting.lookups == 3

    def test_a_group_losing_a_member_or_never_declared_is_refused(self):
        sim, net, _ = make_network()
        group, rest = net.group(range(3)), net.group((0, 2, 3))
        net.unregister(1)
        with pytest.raises(ValueError, match="unknown destination process 1"):
            net.broadcast(0, "x", group=group)
        with pytest.raises(ValueError, match="unknown destination process 1"):
            net.broadcast(0, "x", include_self=False, group=group)
        with pytest.raises(ValueError, match="not declared"):
            net.broadcast(0, "x", group=(0, 2))
        assert net.stats.messages_sent == 0
        assert net.broadcast(0, "y", group=rest).dsts == (0, 2, 3)
        with pytest.raises(ValueError, match="unknown destination process 1"):
            net.group(range(3))

    def test_a_group_broadcast_is_atomic(self):
        class ThirdIsBroken:
            def delay(self, src, dst, send_time):
                return math.nan if dst == 2 else 1.0

        sim, net, inboxes = make_network(ThirdIsBroken(), pids=range(6))
        group = net.group(range(4))
        hooked = []
        net.add_send_hook(hooked.append)
        with pytest.raises(ValueError, match="invalid delay"):
            net.broadcast(0, "half", group=group)
        stats = net.stats
        assert (stats.messages_sent, stats.bytes_sent, stats.messages_held) == (0, 0, 0)
        assert hooked == [] and sim.pending_events == 0

    def test_include_self_false_excludes_the_sender(self):
        sim, net, inboxes = make_network(pids=range(6))
        group = net.group(range(4))
        first = net.broadcast(1, "a", include_self=False, group=group)
        again = net.broadcast(1, "b", include_self=False, group=group)
        assert first.dsts == (0, 2, 3)
        assert again.dsts is first.dsts  # the tuple declared with the group
        # A sender outside the group reaches all of it.
        assert net.broadcast(5, "c", include_self=False, group=group).dsts == group
        sim.run()
        assert inboxes[1] == [(5, "c", 1.0)]
        assert inboxes[4] == [] and inboxes[5] == []

    def test_rules_partitions_and_the_tracer_see_a_whole_network_broadcast(self):
        from repro.sim.network import DelayRule

        def run(grouped):
            # The group's members are the whole network of the other run.
            sim, net, inboxes = make_network(pids=range(6 if grouped else 4))
            tracer = _EnvelopeLog()
            net.install_tracer(tracer)
            records = []
            net.add_send_hook(records.append)
            net.set_delay_rule(DelayRule(name="slow-to-3", dst={3}, extra_delay=4.0))
            net.start_partition([(0, 1), (2, 3)])
            group = net.group(range(4)) if grouped else None
            net.broadcast(0, "all", group=group)
            net.broadcast(2, "others", include_self=False, group=group)
            held = net.held_messages
            sim.run()
            net.heal_partition()
            sim.run()
            return (records, held, tracer.sent, tracer.delivered,
                    {pid: inboxes[pid] for pid in range(4)}, net.stats.messages_sent)

        grouped = run(grouped=True)
        assert grouped[1] and grouped[3]  # something was held and traced
        assert grouped == run(grouped=False)
