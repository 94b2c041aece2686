"""Tests for the view synchronizer (pacemaker)."""

import pytest

from repro.sim.process import Process
from repro.sim.network import SynchronousDelay
from repro.sim.runner import Cluster
from repro.sync.synchronizer import Pacemaker, WishMessage


class SyncOnly(Process):
    """A process that runs nothing but the pacemaker."""

    def __init__(self, pid, n, f, base_timeout=10.0, **kwargs):
        super().__init__(pid)
        self.view = 1
        self.view_history = [1]
        self.pacemaker = Pacemaker(
            pid=pid,
            n=n,
            f=f,
            current_view=lambda: self.view,
            enter_view=self._enter,
            broadcast=lambda msg: self.broadcast(msg),
            set_timer=lambda name, d, cb: self.ctx.set_timer(name, d, cb),
            cancel_timer=lambda name: self.ctx.cancel_timer(name),
            base_timeout=base_timeout,
            **kwargs,
        )

    def _enter(self, view):
        assert view > self.view, "views must be monotone"
        self.view = view
        self.view_history.append(view)

    def on_start(self):
        self.pacemaker.start()

    def on_message(self, sender, payload):
        if isinstance(payload, WishMessage):
            self.pacemaker.on_wish(sender, payload)


def make_sync_cluster(n, f, base_timeout=10.0, **kwargs):
    procs = [SyncOnly(pid, n, f, base_timeout, **kwargs) for pid in range(n)]
    return Cluster(procs, delay_model=SynchronousDelay(1.0)), procs


class TestViewAdvancement:
    def test_all_advance_after_timeout(self):
        cluster, procs = make_sync_cluster(4, 1, base_timeout=10.0)
        cluster.run(until=15.0)
        assert all(p.view == 2 for p in procs)

    def test_no_advancement_before_timeout(self):
        cluster, procs = make_sync_cluster(4, 1, base_timeout=10.0)
        cluster.run(until=9.0)
        assert all(p.view == 1 for p in procs)

    def test_views_never_decrease(self):
        cluster, procs = make_sync_cluster(4, 1, base_timeout=5.0)
        cluster.run(until=100.0)
        for proc in procs:
            assert proc.view_history == sorted(proc.view_history)

    def test_timeouts_grow_per_view(self):
        """Doubling timeouts: view k+1 lasts about twice as long."""
        cluster, procs = make_sync_cluster(4, 1, base_timeout=10.0)
        cluster.run(until=200.0)
        views = procs[0].view_history
        assert len(views) >= 3
        # Entry times roughly: 10, 10+20, 10+20+40... growth is monotone.

    def test_all_correct_reach_same_view(self):
        cluster, procs = make_sync_cluster(7, 2, base_timeout=8.0)
        cluster.run(until=50.0)
        assert len({p.view for p in procs}) == 1


class TestAmplification:
    def test_f_plus_1_wishes_pull_laggards(self):
        """A process that never times out still follows the majority."""
        cluster, procs = make_sync_cluster(4, 1, base_timeout=10.0)
        procs[3].pacemaker.base_timeout = 10_000.0  # never times out itself
        cluster.run(until=20.0)
        assert procs[3].view == 2

    def test_single_wish_is_not_enough(self):
        cluster, procs = make_sync_cluster(4, 1, base_timeout=10_000.0)
        cluster.start()
        # One Byzantine wish from pid 0 must not move anyone (f = 1).
        procs[0].broadcast(WishMessage(view=5))
        cluster.run(until=50.0)
        assert all(p.view == 1 for p in procs[1:])

    def test_stale_wishes_ignored(self):
        cluster, procs = make_sync_cluster(4, 1)
        cluster.start()
        pm = procs[1].pacemaker
        pm.on_wish(2, WishMessage(view=5))
        pm.on_wish(2, WishMessage(view=3))  # stale: lower than before
        assert pm._wishes[2] == 5


class TestStop:
    def test_stopped_pacemaker_does_not_initiate(self):
        cluster, procs = make_sync_cluster(4, 1, base_timeout=10.0)
        for proc in procs:
            proc.pacemaker.stop()
        cluster.run(until=100.0)
        assert all(p.view == 1 for p in procs)

    def test_stopped_pacemaker_still_follows(self):
        cluster, procs = make_sync_cluster(4, 1, base_timeout=10.0)
        procs[3].pacemaker.stop()
        cluster.run(until=20.0)
        # The other three time out, wish, and reach entry quorum; the
        # stopped process follows their wishes.
        assert procs[3].view == 2


class TestConfiguration:
    def test_entry_quorum_must_fit(self):
        with pytest.raises(ValueError):
            Pacemaker(
                pid=0,
                n=2,
                f=1,
                current_view=lambda: 1,
                enter_view=lambda v: None,
                broadcast=lambda m: None,
                set_timer=lambda n, d, c: None,
                cancel_timer=lambda n: None,
            )

    def test_custom_quorums(self):
        cluster, procs = make_sync_cluster(
            3, 1, base_timeout=10.0, entry_quorum=2, amplify_quorum=1
        )
        cluster.run(until=15.0)
        assert all(p.view == 2 for p in procs)

    def test_wish_message_signing_fields(self):
        assert WishMessage(view=3).signing_fields() == ("wish", 3)
