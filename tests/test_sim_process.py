"""Unit tests for the process abstraction and cluster harness."""

import pytest

from repro.sim.events import Simulator
from repro.sim.network import SynchronousDelay
from repro.sim.process import Process
from repro.sim.runner import Cluster


class Echo(Process):
    """Replies 'pong' to every 'ping'."""

    def __init__(self, pid):
        super().__init__(pid)
        self.received = []

    def on_message(self, sender, payload):
        self.received.append((sender, payload))
        if payload == "ping":
            self.send(sender, "pong")


class Starter(Process):
    def __init__(self, pid, target):
        super().__init__(pid)
        self.target = target
        self.received = []

    def on_start(self):
        self.send(self.target, "ping")

    def on_message(self, sender, payload):
        self.received.append((sender, payload, self.now))


class TestProcessMessaging:
    def test_request_reply_round_trip(self):
        starter = Starter(0, target=1)
        cluster = Cluster([starter, Echo(1)], delay_model=SynchronousDelay(1.0))
        cluster.run(until=10.0)
        assert starter.received == [(1, "pong", 2.0)]

    def test_broadcast_includes_self_by_default(self):
        class Caster(Process):
            def __init__(self, pid):
                super().__init__(pid)
                self.got = []

            def on_start(self):
                if self.pid == 0:
                    self.broadcast("x")

            def on_message(self, sender, payload):
                self.got.append(payload)

        procs = [Caster(i) for i in range(3)]
        Cluster(procs).run(until=5.0)
        assert all(p.got == ["x"] for p in procs)

    def test_crashed_process_sends_nothing(self):
        starter = Starter(0, target=1)
        echo = Echo(1)
        cluster = Cluster([starter, echo])
        echo.crash()
        cluster.run(until=10.0)
        assert starter.received == []

    def test_crashed_process_receives_nothing(self):
        echo = Echo(1)
        starter = Starter(0, target=1)
        cluster = Cluster([starter, echo])
        echo.crash()
        cluster.run(until=10.0)
        assert echo.received == []

    def test_crash_mid_run(self):
        class CrashAtTwo(Echo):
            def on_start(self):
                self.ctx.set_timer("death", 2.0, self.crash)

        echo = CrashAtTwo(1)

        class Pinger(Process):
            def __init__(self, pid):
                super().__init__(pid)
                self.pongs = 0

            def on_start(self):
                for delay in (0.0, 3.0):
                    self.ctx.set_timer(
                        f"ping{delay}", delay, lambda: self.send(1, "ping")
                    )

            def on_message(self, sender, payload):
                self.pongs += 1

        pinger = Pinger(0)
        Cluster([pinger, echo]).run(until=20.0)
        assert pinger.pongs == 1  # second ping hit a crashed process


class TestTimers:
    def test_timer_fires_after_delay(self):
        class Timed(Process):
            def __init__(self, pid):
                super().__init__(pid)
                self.fired_at = None

            def on_start(self):
                self.ctx.set_timer("t", 4.0, self._fire)

            def _fire(self):
                self.fired_at = self.now

        proc = Timed(0)
        Cluster([proc]).run(until=10.0)
        assert proc.fired_at == 4.0

    def test_rearming_timer_cancels_previous(self):
        class Rearm(Process):
            def __init__(self, pid):
                super().__init__(pid)
                self.fired = []

            def on_start(self):
                self.ctx.set_timer("t", 2.0, lambda: self.fired.append(2.0))
                self.ctx.set_timer("t", 5.0, lambda: self.fired.append(5.0))

        proc = Rearm(0)
        Cluster([proc]).run(until=10.0)
        assert proc.fired == [5.0]

    def test_cancel_timer(self):
        class Cancelled(Process):
            def __init__(self, pid):
                super().__init__(pid)
                self.fired = False

            def on_start(self):
                self.ctx.set_timer("t", 2.0, lambda: setattr(self, "fired", True))
                self.ctx.cancel_timer("t")

        proc = Cancelled(0)
        Cluster([proc]).run(until=10.0)
        assert not proc.fired

    def test_has_timer(self):
        class Checker(Process):
            def __init__(self, pid):
                super().__init__(pid)
                self.checks = []

            def on_start(self):
                self.ctx.set_timer("t", 2.0, lambda: None)
                self.checks.append(self.ctx.has_timer("t"))
                self.ctx.cancel_timer("t")
                self.checks.append(self.ctx.has_timer("t"))

        proc = Checker(0)
        Cluster([proc]).run(until=10.0)
        assert proc.checks == [True, False]

    def test_crash_cancels_timers(self):
        class Doomed(Process):
            def __init__(self, pid):
                super().__init__(pid)
                self.fired = False

            def on_start(self):
                self.ctx.set_timer("t", 5.0, lambda: setattr(self, "fired", True))
                self.ctx.set_timer("death", 1.0, self.crash)

        proc = Doomed(0)
        Cluster([proc]).run(until=10.0)
        assert not proc.fired


class TestChildContexts:
    """Adopted child contexts (e.g. per-slot contexts) share the parent's
    crash fate: halt cancels their timers, resume revives them both."""

    def _parent_and_child(self):
        from repro.sim.process import ProcessContext

        proc = Echo(0)
        cluster = Cluster([proc])
        child = ProcessContext(proc.pid, cluster.sim, cluster.network)
        proc.ctx.adopt(child)
        return cluster, proc, child

    def test_halt_propagates_to_children(self):
        cluster, proc, child = self._parent_and_child()
        child.set_timer("tick", 5.0, lambda: None)
        proc.crash()
        assert child.halted
        assert not child._timers

    def test_resume_propagates_to_children(self):
        cluster, proc, child = self._parent_and_child()
        proc.crash()
        proc.recover()
        assert not child.halted

    def test_a_released_child_no_longer_shares_the_crash(self):
        cluster, proc, child = self._parent_and_child()
        proc.ctx.release(child)
        assert proc.ctx._children == []
        proc.crash()
        assert not child.halted
        proc.recover()
        with pytest.raises(ValueError):
            proc.ctx.release(child)  # released once, not twice

    def test_adopting_into_a_halted_parent_halts_the_child(self):
        from repro.sim.process import ProcessContext

        proc = Echo(0)
        cluster = Cluster([proc])
        proc.crash()
        child = ProcessContext(proc.pid, cluster.sim, cluster.network)
        proc.ctx.adopt(child)
        assert child.halted

    def test_child_timer_does_not_fire_while_parent_down(self):
        cluster, proc, child = self._parent_and_child()
        fired = []
        child.set_timer("tick", 2.0, lambda: fired.append(cluster.sim.now))
        proc.crash()
        cluster.run(until=10.0)
        assert fired == []


class TestCluster:
    def test_duplicate_pids_rejected(self):
        with pytest.raises(ValueError):
            Cluster([Echo(0), Echo(0)])

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            Cluster([])

    def test_double_start_rejected(self):
        cluster = Cluster([Echo(0)])
        cluster.start()
        with pytest.raises(RuntimeError):
            cluster.start()

    def test_pids_sorted(self):
        cluster = Cluster([Echo(3), Echo(1), Echo(2)])
        assert cluster.pids == (1, 2, 3)

    def test_run_until_decided_times_out_gracefully(self):
        from repro.core.protocol import DecidingProcess

        class NeverDecides(DecidingProcess):
            pass

        result = Cluster([NeverDecides(0, "v")]).run_until_decided(timeout=5.0)
        assert not result.decided
        assert result.decision_value is None

    def test_decisions_flow_into_trace(self):
        from repro.core.protocol import DecidingProcess

        class DecideAtOnce(DecidingProcess):
            def on_start(self):
                self.decide("yes")

        cluster = Cluster([DecideAtOnce(0, "v"), DecideAtOnce(1, "v")])
        result = cluster.run_until_decided()
        assert result.decided
        assert result.decision_value == "yes"
        assert result.decision_time == 0.0
