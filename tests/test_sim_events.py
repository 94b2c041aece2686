"""Unit tests for the discrete-event simulation core."""

import pytest

from repro.sim.events import (
    SimulationError,
    SimulationTimeout,
    Simulator,
)


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_same_time_events_fire_fifo(self):
        sim = Simulator()
        fired = []
        for name in "abcde":
            sim.schedule(1.0, lambda n=name: fired.append(n))
        sim.run()
        assert fired == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]
        assert sim.now == 5.0

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(7.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [7.5]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_nested_scheduling_from_callback(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append(("first", sim.now))
            sim.schedule(2.0, lambda: fired.append(("second", sim.now)))

        sim.schedule(1.0, first)
        sim.run()
        assert fired == [("first", 1.0), ("second", 3.0)]

    def test_zero_delay_event_fires_at_current_time(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: sim.schedule(0.0, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [1.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("x"))
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_cancel_from_earlier_event(self):
        sim = Simulator()
        fired = []
        later = sim.schedule(2.0, lambda: fired.append("later"))
        sim.schedule(1.0, later.cancel)
        sim.run()
        assert fired == []

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        handle = sim.schedule(2.0, lambda: None)
        handle.cancel()
        assert sim.pending_events == 1

    def test_handle_reports_time_and_label(self):
        sim = Simulator()
        handle = sim.schedule(4.0, lambda: None, label="hello")
        assert handle.time == 4.0
        assert handle.label == "hello"


class TestRunBounds:
    def test_run_until_time_bound(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        sim.run()
        assert fired == [1, 10]

    def test_run_until_bound_is_inclusive(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=5.0)
        assert fired == [5]

    def test_max_events_guard(self):
        sim = Simulator()

        def loop():
            sim.schedule(1.0, loop)

        sim.schedule(1.0, loop)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=100)

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestRunUntilPredicate:
    def test_returns_time_predicate_became_true(self):
        sim = Simulator()
        state = {"done": False}
        sim.schedule(3.0, lambda: state.update(done=True))
        time = sim.run_until(lambda: state["done"])
        assert time == 3.0

    def test_immediate_predicate(self):
        sim = Simulator()
        assert sim.run_until(lambda: True) == 0.0

    def test_timeout_raises(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationTimeout):
            sim.run_until(lambda: False, timeout=10.0)

    def test_does_not_run_past_timeout(self):
        sim = Simulator()
        fired = []
        sim.schedule(100.0, lambda: fired.append("late"))
        with pytest.raises(SimulationTimeout):
            sim.run_until(lambda: False, timeout=10.0)
        assert fired == []


class TestFastPathScheduling:
    def test_post_and_schedule_share_fifo_order(self):
        """post() events interleave with schedule() events in seq order."""
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.post(1.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("c"))
        sim.post(1.0, lambda: fired.append("d"))
        sim.run()
        assert fired == ["a", "b", "c", "d"]

    def test_post_rejects_past_times(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.post(1.0, lambda: None)

    def test_lazy_label_only_rendered_on_access(self):
        sim = Simulator()
        calls = []

        def render():
            calls.append(1)
            return "expensive label"

        handle = sim.schedule(1.0, lambda: None, label=render)
        assert calls == []  # scheduling must not render the label
        assert handle.label == "expensive label"
        assert calls == [1]

    def test_plain_string_labels_still_work(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None, label="plain")
        assert handle.label == "plain"


class TestHeapCompaction:
    """Mass-cancelled timers must not bloat the heap (the per-slot SMR
    pacemaker pattern arms and cancels thousands per run)."""

    def test_mass_cancel_compacts_queue(self):
        sim = Simulator()
        keeper_fired = []
        sim.schedule(100.0, lambda: keeper_fired.append(sim.now))
        handles = [sim.schedule(10.0, lambda: None) for _ in range(10_000)]
        assert sim.queue_depth == 10_001
        for handle in handles:
            handle.cancel()
        # Compaction triggered during the cancels: tombstones are gone.
        assert sim.compactions >= 1
        assert sim.queue_depth < 200
        assert sim.pending_events == 1
        sim.run()
        assert keeper_fired == [100.0]

    def test_cancel_after_fire_is_a_noop(self):
        """A late cancel() on a handle whose event already fired must not
        count toward the cancelled-entry accounting (the entry left the
        queue when it executed) — otherwise pending_events goes negative
        and compaction fires spuriously on a clean queue."""
        sim = Simulator()
        fired = []
        handles = [
            sim.schedule(1.0, lambda i=i: fired.append(i)) for i in range(100)
        ]
        sim.run()
        assert len(fired) == 100
        for handle in handles:
            handle.cancel()  # all events already fired
            handle.cancel()
        assert sim.pending_events == 0
        assert sim.compactions == 0
        assert not handles[0].cancelled  # it fired; it was never cancelled

    def test_pending_events_is_constant_time_accounting(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(50)]
        assert sim.pending_events == 50
        for handle in handles[::2]:
            handle.cancel()
        assert sim.pending_events == 25
        for handle in handles:
            handle.cancel()  # idempotent, incl. already-cancelled
        assert sim.pending_events == 0

    def test_cancel_during_run_keeps_order(self):
        """A compaction triggered from inside a callback must not strand
        the run loop on a stale queue or reorder survivors."""
        sim = Simulator()
        fired = []
        victims = [sim.schedule(50.0, lambda: None) for _ in range(5000)]

        def massacre():
            fired.append("massacre")
            for victim in victims:
                victim.cancel()

        sim.schedule(1.0, massacre)
        sim.schedule(2.0, lambda: fired.append("after"))
        sim.schedule(60.0, lambda: fired.append("late"))
        sim.run()
        assert fired == ["massacre", "after", "late"]
        assert sim.compactions >= 1

    def test_compaction_preserves_determinism(self):
        """Same schedule/cancel pattern with and without compaction-sized
        churn produces the same firing order for the survivors."""

        def run_once(churn: int):
            sim = Simulator()
            order = []
            doomed = [sim.schedule(30.0, lambda: None) for _ in range(churn)]
            for i in range(20):
                sim.schedule((i * 7) % 13 + 0.5, lambda i=i: order.append(i))
            for handle in doomed:
                handle.cancel()
            sim.run()
            return order

        assert run_once(0) == run_once(10_000)


class TestDeterminism:
    def test_identical_runs_produce_identical_sequences(self):
        def run_once():
            sim = Simulator()
            order = []
            for i in range(50):
                sim.schedule((i * 7) % 13 + 0.5, lambda i=i: order.append(i))
            sim.run()
            return order

        assert run_once() == run_once()


class TestCompactionStorms:
    """Interleaved cancel/schedule storms: the accounting invariants
    (queue_depth vs pending_events vs compactions) must hold at every
    step, and forcing extra compactions must never change an execution."""

    def test_interleaved_cancel_schedule_storm_invariants(self):
        sim = Simulator()
        fired = []
        live = []
        cancelled_total = 0
        compactions_seen = 0
        for wave in range(12):
            base = 100.0 + wave
            fresh = [
                sim.schedule(base + (i % 5) * 0.25, lambda w=wave: fired.append(w))
                for i in range(300)
            ]
            live.extend(fresh)
            # Cancel a sliding majority, oldest first, interleaved with
            # fresh scheduling so tombstones and live entries mix.
            victims, live = live[: len(live) * 2 // 3], live[len(live) * 2 // 3 :]
            for handle in victims:
                handle.cancel()
            cancelled_total += len(victims)
            # Invariants after every wave:
            assert sim.queue_depth >= sim.pending_events
            assert sim.pending_events == len(live)
            assert sim.compactions >= compactions_seen  # monotonic
            compactions_seen = sim.compactions
        assert sim.compactions >= 1, "storm never triggered compaction"
        survivors = len(live)
        sim.run()
        assert len(fired) == survivors
        assert sim.pending_events == 0
        assert sim.queue_depth == 0

    def test_no_compaction_below_threshold(self):
        sim = Simulator()
        handles = [sim.schedule(10.0, lambda: None) for _ in range(63)]
        for handle in handles:
            handle.cancel()
        # 63 tombstones dominate the queue but sit below _COMPACT_MIN.
        assert sim.compactions == 0
        assert sim.queue_depth == 63

    def test_forced_compaction_is_invisible_to_execution(self):
        """The same workload with compaction forced after every wave must
        fire the same events at the same times with the same clock — the
        in-core equivalent of digest equality."""

        def run_once(force: bool):
            sim = Simulator()
            order = []
            doomed = []
            for wave in range(8):
                for i in range(40):
                    t = (wave * 40 + i * 7) % 29 + 1.0
                    sim.schedule(t, lambda t=t: order.append(t))
                doomed.extend(
                    sim.schedule(50.0, lambda: order.append("doomed"))
                    for _ in range(40)
                )
                for handle in doomed[::2]:
                    handle.cancel()
                if force:
                    sim._compact()
            sim.run()
            return order, sim.now, sim.events_processed, sim.pending_events

        plain = run_once(force=False)
        forced = run_once(force=True)
        assert plain == forced

    def test_forced_compaction_resets_tombstone_accounting(self):
        sim = Simulator()
        handles = [sim.schedule(5.0, lambda: None) for _ in range(10)]
        keeper = sim.schedule(6.0, lambda: None)
        for handle in handles:
            handle.cancel()
        before = sim.compactions
        sim._compact()
        assert sim.compactions == before + 1
        assert sim.queue_depth == 1
        assert sim.pending_events == 1
        assert not keeper.cancelled
        # Compacting an already-clean queue is harmless and counted.
        sim._compact()
        assert sim.compactions == before + 2
        assert sim.queue_depth == 1


class TestFullWorkloadTrace:
    """One mixed schedule/post/cancel/compact workload with everything
    observable pinned to literals: firing order, clock values *and types*
    (int times stay ints), counters, and the exact text of every error."""

    def test_trace_is_exactly_this(self):
        trace = []
        sim = Simulator()
        trace.append(("t0", sim.now, type(sim.now).__name__))

        def fire(tag):
            trace.append((tag, sim.now, type(sim.now).__name__))

        # Int and float times interleaved; ties broken by sequence.
        sim.schedule(2, lambda: fire("int-2"))
        sim.schedule(2.0, lambda: fire("float-2"))
        sim.schedule_at(1, lambda: fire("at-1"))
        sim.post(3, lambda: fire("post-3"))
        doomed = [sim.schedule(5.0, lambda: fire("doomed")) for _ in range(100)]
        keeper = sim.schedule(4.0, lambda: fire("keeper"), label="keep")
        for handle in doomed:
            handle.cancel()
            handle.cancel()  # idempotent
        trace.append(("depth", sim.queue_depth, sim.pending_events))
        sim._compact()
        trace.append(
            ("compacted", sim.queue_depth, sim.pending_events, sim.compactions)
        )

        def nest():
            fire("nest")
            sim.post(sim.now, lambda: fire("nest-child"))

        sim.schedule_at(6, nest)
        sim.run(until=4.5)
        trace.append(("bounded", sim.now, type(sim.now).__name__))
        assert not keeper.cancelled
        sim.run()
        trace.append(
            ("drained", sim.now, type(sim.now).__name__, sim.events_processed)
        )
        assert trace == [
            ("t0", 0.0, "float"),
            ("depth", 41, 5),
            ("compacted", 5, 5, 2),
            ("at-1", 1, "int"),
            ("int-2", 2.0, "float"),
            ("float-2", 2.0, "float"),
            ("post-3", 3, "int"),
            ("keeper", 4.0, "float"),
            ("bounded", 4.5, "float"),
            ("nest", 6, "int"),
            ("nest-child", 6, "int"),
            ("drained", 6, "int", 7),
        ]

        for trigger, message in [
            (lambda: sim.schedule(-1.0, lambda: None),
             "cannot schedule in the past: delay=-1.0"),
            (lambda: sim.schedule_at(0, lambda: None),
             "cannot schedule in the past: time=0 < now=6"),
            (lambda: sim.post(0.5, lambda: None),
             "cannot schedule in the past: time=0.5 < now=6"),
        ]:
            with pytest.raises(SimulationError) as err:
                trigger()
            assert str(err.value) == message

    def test_bound_and_timeout_messages(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(float(i), lambda: None)
        with pytest.raises(SimulationError) as err:
            sim.run(max_events=3)
        assert str(err.value) == "exceeded max_events=3 at time 2.0"

        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationTimeout) as err:
            sim.run_until(lambda: False, timeout=5.0, max_events=100)
        assert str(err.value) == (
            "predicate not satisfied by time 1.0 (1 events executed)"
        )

        sim = Simulator()
        box = []
        sim.schedule(2.5, lambda: box.append(1))
        at = sim.run_until(lambda: bool(box), timeout=10.0)
        assert at == 2.5 and type(at) is float

    def test_callback_exception_consumes_the_event_and_queue_continues(self):
        sim = Simulator()
        fired = []

        def boom():
            raise RuntimeError("boom")

        sim.schedule(1.0, lambda: fired.append("before"))
        sim.schedule(2.0, boom)
        sim.schedule(3.0, lambda: fired.append("after"))
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        assert fired == ["before"]
        sim.run()
        assert fired == ["before", "after"]


# ---------------------------------------------------------------------------
# A queue entry carries its own call
# ---------------------------------------------------------------------------


def _mixed_workload(sim, trace):
    """Two fan-outs queued with ``post_many``, timers between them that
    the deliveries cancel (enough to compact the queue mid-fan-out), a
    delivery that posts a follow-up, one ``post`` with arguments."""

    def deliver(dst, src, payload):
        trace.append((payload, src, dst, sim.now))
        if payload == "first" and dst == 1:
            for handle in doomed:
                handle.cancel()  # crosses the compaction threshold
            trace.append(("compactions", sim.compactions))
        if payload == "first" and dst == 2:
            sim.post(sim.now, deliver, 9, dst, "reply")

    def timer(tag):
        trace.append((tag, sim.now))

    sim.post_many(deliver, [1.0, 1.0, 1.0], [(d, 0, "first") for d in range(3)])
    doomed = [sim.schedule(1.5, timer, label="doomed") for _ in range(70)]
    sim.schedule(1.5, lambda: timer("survivor"))
    sim.post_many(deliver, [2.5, 2.0], [(0, 7, "second"), (1, 7, "second")])
    sim.post(3.0, deliver, 4, 4, "posted")


_MIXED_TRACE = [
    ("first", 0, 0, 1.0),
    ("first", 0, 1, 1.0),
    ("compactions", 1),
    ("first", 0, 2, 1.0),
    ("reply", 2, 9, 1.0),
    ("survivor", 1.5),
    ("second", 7, 1, 2.0),
    ("second", 7, 0, 2.5),
    ("posted", 4, 4, 3.0),
]


def _drive_by_drain(sim, trace):
    sim.run()


def _drive_bounded(sim, trace):
    # In slices of simulated time and of events, resuming each time.
    sim.run(until=1.0)
    sim.run(until=1.2)
    while sim.pending_events:
        try:
            sim.run(max_events=2)
        except SimulationError:
            pass


def _drive_by_predicate(sim, trace):
    # Stop after every single entry — also in the middle of a fan-out —
    # and resume.
    while sim.pending_events:
        seen = len(trace)
        sim.run_until(lambda: len(trace) > seen)


class TestEntriesCarryTheirCall:
    """``[time, seq, callback, args]``: every loop pops an entry and runs
    ``callback(*args)`` — timers with no arguments, deliveries with
    theirs — with cancellation, ``FIRED`` and compaction as before."""

    @pytest.mark.parametrize(
        "drive",
        [_drive_by_drain, _drive_bounded, _drive_by_predicate],
        ids=["drain", "run_bounded", "run_pred"],
    )
    def test_every_loop_runs_the_same_entries_the_same_way(self, drive):
        sim, trace = Simulator(), []
        _mixed_workload(sim, trace)
        assert sim.pending_events == 77
        drive(sim, trace)
        assert trace == _MIXED_TRACE
        assert (sim.now, sim.events_processed) == (3.0, 8)
        assert (sim.pending_events, sim.queue_depth) == (0, 0)

    def test_a_fan_out_is_queued_under_consecutive_sequence_numbers(self):
        sim = Simulator()
        got = []
        sim.schedule(1.0, lambda: got.append("timer-before"))
        sim.post_many(got.append, [1.0, 1.0], [("a",), ("b",)])
        sim.schedule(1.0, lambda: got.append("timer-after"))
        assert [entry[1] for entry in sorted(sim._queue)] == [0, 1, 2, 3]
        sim.run()
        assert got == ["timer-before", "a", "b", "timer-after"]

    def test_stopped_mid_fan_out_then_resumed(self):
        sim = Simulator()
        got = []
        sim.post_many(got.append, [1.0] * 5, [(i,) for i in range(5)])
        assert sim.run_until(lambda: len(got) == 2) == 1.0
        assert got == [0, 1] and sim.pending_events == 3
        # What is queued now lands behind the rest of the fan-out.
        sim.post(1.0, got.append, "late")
        sim.run()
        assert got == [0, 1, 2, 3, 4, "late"]

    def test_a_past_time_mid_fan_out_keeps_the_counter_consistent(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.run()
        got = []
        with pytest.raises(SimulationError) as err:
            sim.post_many(got.append, [2.0, 1.0, 2.0], [("a",), ("b",), ("c",)])
        assert str(err.value) == "cannot schedule in the past: time=1.0 < now=2.0"
        sim.post(2.0, got.append, "d")
        assert [entry[1] for entry in sorted(sim._queue)] == [1, 2]
        sim.run()
        assert got == ["a", "d"]

    @pytest.mark.parametrize(
        "times, args",
        [
            ([1.0, 1.0, 1.0], [("a",), ("b",)]),
            (iter([1.0, 1.0]), [("a",), ("b",), ("c",)]),
        ],
    )
    def test_times_and_args_of_unequal_length_fail_loudly(self, times, args):
        sim = Simulator()
        got = []
        with pytest.raises(ValueError):
            sim.post_many(got.append, times, args)
        # Whatever was pushed before the mismatch showed keeps its
        # number: the next entry gets a fresh one.
        sim.post(1.0, got.append, "next")
        seqs = [entry[1] for entry in sorted(sim._queue)]
        assert seqs == list(range(len(seqs)))
        sim.run()
        assert got == ["a", "b", "next"]

    def test_a_handle_cancels_its_entry_whatever_the_entry_carries(self):
        sim = Simulator()
        got = []
        handle = sim.schedule(1.0, lambda: got.append("timer"))
        sim.post(1.0, got.append, "delivery")
        handle.cancel()
        assert sim.pending_events == 1
        sim.run()
        assert got == ["delivery"]
        handle.cancel()  # after the queue moved on: still a no-op
        assert sim.pending_events == 0
