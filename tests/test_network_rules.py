"""First-class network fault primitives: delay rules, partitions, bytes.

These are the sim-level features the scenario engine is built on; they
must behave correctly standalone (this file) before the engine composes
them (test_scenarios.py).
"""

import pytest

from repro.sim.events import Simulator
from repro.sim.network import (
    DelayRule,
    Network,
    SynchronousDelay,
    payload_size,
)
from repro.sim.process import ProcessContext


def make_network(pids=range(4), delta=1.0):
    sim = Simulator()
    net = Network(sim, delay_model=SynchronousDelay(delta))
    inboxes = {pid: [] for pid in pids}
    for pid in pids:
        net.register(
            pid,
            lambda src, payload, pid=pid: inboxes[pid].append(
                (net.sim.now, src, payload)
            ),
        )
    return sim, net, inboxes


class TestPayloadSize:
    def test_primitives(self):
        assert payload_size(None) == 1
        assert payload_size(True) == 1
        assert payload_size(7) == 8
        assert payload_size(1.5) == 8
        assert payload_size("abc") == 4
        assert payload_size(b"abc") == 3

    def test_containers_recurse(self):
        assert payload_size((1, 2)) == 2 + 16
        assert payload_size({"k": "v"}) == 2 + 2 + 2

    def test_dataclass_counts_fields(self):
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class Msg:
            value: str
            view: int

        assert payload_size(Msg("x", 1)) == 2 + 2 + 8

    def test_deterministic(self):
        value = {"cmd": ("set", "k", 1), "ids": [1, 2, 3]}
        assert payload_size(value) == payload_size(value)


class TestBytesAccounting:
    def test_bytes_sent_incremented_on_send(self):
        sim, net, _ = make_network()
        assert net.stats.bytes_sent == 0
        net.send(0, 1, "hello")
        assert net.stats.bytes_sent == payload_size("hello")
        net.broadcast(2, "hi")
        assert net.stats.bytes_sent == payload_size("hello") + 4 * payload_size("hi")

    def test_held_messages_also_counted(self):
        sim, net, _ = make_network()
        net.start_partition([(0, 1), (2, 3)])
        net.send(0, 2, "x")
        assert net.stats.bytes_sent == payload_size("x")
        assert net.stats.messages_held == 1


class TestDelayRules:
    def test_extra_delay_applies_to_matching_messages(self):
        sim, net, inboxes = make_network()
        net.set_delay_rule(DelayRule(name="slow-to-3", dst=frozenset({3}), extra_delay=4.0))
        net.send(0, 3, "a")
        net.send(0, 1, "b")
        sim.run()
        assert inboxes[3] == [(5.0, 0, "a")]
        assert inboxes[1] == [(1.0, 0, "b")]

    def test_hold_until_floors_delivery_time(self):
        sim, net, inboxes = make_network()
        net.set_delay_rule(DelayRule(name="hold", src=frozenset({0}), hold_until=10.0))
        net.send(0, 1, "early")
        sim.run()
        assert inboxes[1] == [(10.0, 0, "early")]

    def test_payload_type_filter(self):
        sim, net, inboxes = make_network()
        net.set_delay_rule(
            DelayRule(name="strings-only", payload_types=("str",), extra_delay=3.0)
        )
        net.send(0, 1, "slowed")
        net.send(0, 1, 42)
        sim.run()
        times = sorted(t for t, _, _ in inboxes[1])
        assert times == [1.0, 4.0]

    def test_clear_rule_restores_normal_delivery(self):
        sim, net, inboxes = make_network()
        net.set_delay_rule(DelayRule(name="r", extra_delay=5.0))
        net.clear_delay_rule("r")
        net.send(0, 1, "fast")
        sim.run()
        assert inboxes[1] == [(1.0, 0, "fast")]

    def test_set_replaces_by_name(self):
        sim, net, _ = make_network()
        net.set_delay_rule(DelayRule(name="r", extra_delay=5.0))
        net.set_delay_rule(DelayRule(name="r", extra_delay=1.0))
        assert len(net.delay_rules) == 1
        assert net.delay_rules[0].extra_delay == 1.0

    def test_rules_cannot_drop(self):
        with pytest.raises(ValueError):
            DelayRule(name="bad", extra_delay=-1.0)

    def test_iterable_filters_coerced(self):
        rule = DelayRule(name="r", src=[0, 1], dst={2}, payload_types=["Ack"])
        assert rule.src == frozenset({0, 1})
        assert rule.dst == frozenset({2})
        assert rule.payload_types == ("Ack",)

    def test_rules_apply_in_installation_order(self):
        """extra_delay and hold_until do not commute; the per-type rule
        index must preserve installation order across typed and wildcard
        rules.  Here: (1 + 4) then max(.., 5) = 5, whereas the reverse
        order would give max(1, 5) + 4 = 9."""
        sim, net, inboxes = make_network()
        net.set_delay_rule(
            DelayRule(name="typed-extra", payload_types=("str",), extra_delay=4.0)
        )
        net.set_delay_rule(DelayRule(name="wild-hold", hold_until=5.0))
        net.send(0, 1, "m")
        sim.run()
        assert inboxes[1] == [(5.0, 0, "m")]

    def test_rules_apply_in_installation_order_reversed(self):
        sim, net, inboxes = make_network()
        net.set_delay_rule(DelayRule(name="wild-hold", hold_until=5.0))
        net.set_delay_rule(
            DelayRule(name="typed-extra", payload_types=("str",), extra_delay=4.0)
        )
        net.send(0, 1, "m")
        sim.run()
        assert inboxes[1] == [(9.0, 0, "m")]

    def test_rule_index_rebuilt_after_mid_run_changes(self):
        """set/clear after sends (index already populated) must refresh
        which rules match each payload type."""
        sim, net, inboxes = make_network()
        net.set_delay_rule(
            DelayRule(name="slow-str", payload_types=("str",), extra_delay=2.0)
        )
        net.send(0, 1, "a")              # 1 + 2 = 3
        net.clear_delay_rule("slow-str")
        net.send(0, 1, "b")              # back to 1
        net.set_delay_rule(
            DelayRule(name="slow-int", payload_types=("int",), extra_delay=6.0)
        )
        net.send(0, 1, "c")              # strings unaffected: 1
        net.send(0, 1, 7)                # 1 + 6 = 7
        sim.run()
        assert sorted(inboxes[1]) == [
            (1.0, 0, "b"), (1.0, 0, "c"), (3.0, 0, "a"), (7.0, 0, 7),
        ]


class TestPartitions:
    def test_crossing_messages_held_until_heal(self):
        sim, net, inboxes = make_network()
        net.start_partition([(0, 1), (2, 3)])
        net.send(0, 2, "crossing")
        net.send(0, 1, "local")
        sim.run()
        assert inboxes[1] == [(1.0, 0, "local")]
        assert inboxes[2] == []  # still held
        assert len(net.held_messages) == 1
        net.heal_partition()
        sim.run()
        assert inboxes[2] == [(2.0, 0, "crossing")]  # healed at t=1? no: heal at now
        assert net.held_messages == ()

    def test_heal_retimes_from_heal_instant(self):
        sim, net, inboxes = make_network()
        net.start_partition([(0,), (1, 2, 3)])
        net.send(0, 1, "m")
        sim.run(until=7.0)
        net.heal_partition()
        sim.run()
        assert inboxes[1] == [(8.0, 0, "m")]  # heal at 7 + delta

    def test_unlisted_pids_form_implicit_group(self):
        sim, net, inboxes = make_network()
        net.start_partition([(0, 1)])  # 2 and 3 implicitly together
        net.send(2, 3, "ok")
        net.send(2, 0, "held")
        sim.run()
        assert inboxes[3] == [(1.0, 2, "ok")]
        assert inboxes[0] == []

    def test_overlapping_groups_rejected(self):
        sim, net, _ = make_network()
        with pytest.raises(ValueError):
            net.start_partition([(0, 1), (1, 2)])

    def test_messages_never_lost(self):
        """Reliability: every message sent during the partition arrives."""
        sim, net, inboxes = make_network()
        net.start_partition([(0, 1), (2, 3)])
        for i in range(10):
            net.send(0, 2, i)
        sim.run(until=20.0)
        net.heal_partition()
        sim.run()
        assert [payload for _, _, payload in inboxes[2]] == list(range(10))
        assert net.stats.messages_delivered == 10

    def test_heal_still_honours_active_delay_rules(self):
        """Releasing held messages must not bypass an installed rule's
        contract (hold_until is an absolute floor, partition or not)."""
        sim, net, inboxes = make_network()
        net.set_delay_rule(DelayRule(name="hold", dst=frozenset({1}), hold_until=100.0))
        net.start_partition([(0,), (1, 2, 3)])
        net.send(0, 1, "m")
        sim.run(until=10.0)
        net.heal_partition()
        sim.run()
        assert inboxes[1] == [(100.0, 0, "m")]

    def test_heal_still_routes_through_interceptor(self):
        sim = Simulator()
        seen = []

        def spy(envelope):
            seen.append((sim.now, envelope.payload))
            return None

        net = Network(sim, delay_model=SynchronousDelay(1.0), interceptor=spy)
        net.register(0, lambda *_: None)
        net.register(1, lambda *_: None)
        net.start_partition([(0,), (1,)])
        net.send(0, 1, "m")
        sim.run(until=5.0)
        net.heal_partition()
        sim.run()
        assert (5.0, "m") in seen  # the release passed the interceptor again


class TestCrashRecovery:
    def test_resume_reenables_delivery(self):
        sim = Simulator()
        net = Network(sim, delay_model=SynchronousDelay(1.0))
        received = []
        ctx = ProcessContext(0, sim, net)
        net.register(0, lambda src, payload: not ctx.halted and received.append(payload))
        net.register(1, lambda src, payload: None)
        ctx.halt()
        net.send(1, 0, "lost")
        sim.run()
        ctx.resume()
        net.send(1, 0, "seen")
        sim.run()
        assert received == ["seen"]
        assert not ctx.halted
