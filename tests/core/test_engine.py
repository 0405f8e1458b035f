"""Simulation engine: registration, dispatch, clock semantics."""

from __future__ import annotations

import pytest

from repro.core.engine import Simulation, SimulationError
from repro.core.entity import Entity
from repro.core.tags import EventTag


class Recorder(Entity):
    """Test entity that records every delivered event."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.events = []
        self.started = False
        self.shutdown_called = False

    def start(self) -> None:
        self.started = True

    def shutdown(self) -> None:
        self.shutdown_called = True

    def process_event(self, event) -> None:
        self.events.append((self.now, event.tag, event.data))


class Echoer(Recorder):
    """Replies to every NONE event with one TIMER event after a delay."""

    def __init__(self, name: str, reply_delay: float = 1.0, max_replies: int = 3) -> None:
        super().__init__(name)
        self.reply_delay = reply_delay
        self.max_replies = max_replies
        self.sent = 0

    def process_event(self, event) -> None:
        super().process_event(event)
        if event.tag is EventTag.NONE and self.sent < self.max_replies:
            self.sent += 1
            self.send(event.src, self.reply_delay, EventTag.TIMER, data=self.sent)


class TestRegistration:
    def test_register_assigns_sequential_ids(self):
        sim = Simulation()
        a, b = Recorder("a"), Recorder("b")
        assert sim.register(a) == 0
        assert sim.register(b) == 1
        assert a.id == 0 and b.id == 1

    def test_register_all(self):
        sim = Simulation()
        entities = [Recorder(f"e{i}") for i in range(4)]
        assert sim.register_all(entities) == [0, 1, 2, 3]

    def test_duplicate_name_rejected(self):
        sim = Simulation()
        sim.register(Recorder("dup"))
        with pytest.raises(SimulationError, match="duplicate"):
            sim.register(Recorder("dup"))

    def test_lookup_by_name_and_id(self):
        sim = Simulation()
        a = Recorder("a")
        sim.register(a)
        assert sim.entity("a") is a
        assert sim.entity(0) is a

    def test_lookup_unknown(self):
        sim = Simulation()
        with pytest.raises(SimulationError):
            sim.entity("ghost")
        with pytest.raises(SimulationError):
            sim.entity(99)

    def test_empty_entity_name_rejected(self):
        with pytest.raises(ValueError):
            Recorder("")

    def test_double_attach_rejected(self):
        sim1, sim2 = Simulation(), Simulation()
        a = Recorder("a")
        sim1.register(a)
        with pytest.raises(RuntimeError, match="already attached"):
            sim2.register(a)

    def test_unattached_entity_has_no_sim(self):
        a = Recorder("a")
        assert a.id == -1
        with pytest.raises(RuntimeError, match="not attached"):
            _ = a.sim


class TestRunLoop:
    def test_delivers_in_time_order(self):
        sim = Simulation()
        r = Recorder("r")
        sim.register(r)
        sim.schedule(delay=2.0, src=-1, dst=0, tag=EventTag.NONE, data="b")
        sim.schedule(delay=1.0, src=-1, dst=0, tag=EventTag.NONE, data="a")
        end = sim.run()
        assert end == 2.0
        assert [d for _, _, d in r.events] == ["a", "b"]

    def test_start_hooks_fire_before_events(self):
        sim = Simulation()
        r = Recorder("r")
        sim.register(r)
        sim.schedule(delay=0.0, src=-1, dst=0, tag=EventTag.NONE)
        assert not r.started
        sim.run()
        assert r.started

    def test_shutdown_hooks_fire_on_drain(self):
        sim = Simulation()
        r = Recorder("r")
        sim.register(r)
        sim.schedule(delay=1.0, src=-1, dst=0, tag=EventTag.NONE)
        sim.run()
        assert r.shutdown_called

    def test_clock_advances_monotonically(self):
        sim = Simulation()
        e = Echoer("e", reply_delay=2.0)
        r = Recorder("r")
        sim.register_all([e, r])
        sim.schedule(delay=1.0, src=r.id, dst=e.id, tag=EventTag.NONE)
        sim.run()
        times = [t for t, _, _ in e.events + r.events]
        assert times == sorted(times)
        assert sim.now == 3.0  # 1.0 trigger + 2.0 reply

    def test_run_until_stops_clock(self):
        sim = Simulation()
        r = Recorder("r")
        sim.register(r)
        sim.schedule(delay=1.0, src=-1, dst=0, tag=EventTag.NONE, data="x")
        sim.schedule(delay=10.0, src=-1, dst=0, tag=EventTag.NONE, data="y")
        end = sim.run(until=5.0)
        assert end == 5.0
        assert [d for _, _, d in r.events] == ["x"]
        # Resume to completion.
        end = sim.run()
        assert end == 10.0
        assert [d for _, _, d in r.events] == ["x", "y"]

    def test_run_max_events(self):
        sim = Simulation()
        r = Recorder("r")
        sim.register(r)
        for i in range(5):
            sim.schedule(delay=float(i), src=-1, dst=0, tag=EventTag.NONE, data=i)
        sim.run(max_events=2)
        assert len(r.events) == 2
        sim.run()
        assert len(r.events) == 5

    def test_events_processed_counter(self):
        sim = Simulation()
        r = Recorder("r")
        sim.register(r)
        for i in range(7):
            sim.schedule(delay=1.0, src=-1, dst=0, tag=EventTag.NONE)
        sim.run()
        assert sim.events_processed == 7

    def test_step_single_event(self):
        sim = Simulation()
        r = Recorder("r")
        sim.register(r)
        sim.schedule(delay=1.0, src=-1, dst=0, tag=EventTag.NONE, data="only")
        event = sim.step()
        assert event is not None and event.data == "only"
        assert sim.step() is None

    def test_step_drain_terminates_like_run(self):
        # The step() that drains the queue must finalize exactly as run()
        # does: _finished set, _running cleared, shutdown hooks fired.
        sim = Simulation()
        r = Recorder("r")
        sim.register(r)
        for i in range(3):
            sim.schedule(delay=float(i + 1), src=-1, dst=0, tag=EventTag.NONE, data=i)
        while sim.step() is not None:
            pass
        assert sim.finished
        assert not sim._running
        assert r.shutdown_called
        # run() after a stepped-to-completion sim is a no-op, like a rerun.
        assert sim.run() == sim.now

    def test_step_shutdown_fires_once(self):
        sim = Simulation()

        class CountingRecorder(Recorder):
            def __init__(self, name):
                super().__init__(name)
                self.shutdown_count = 0

            def shutdown(self):
                super().shutdown()
                self.shutdown_count += 1

        r = CountingRecorder("r")
        sim.register(r)
        sim.schedule(delay=1.0, src=-1, dst=0, tag=EventTag.NONE)
        sim.step()
        assert r.shutdown_count == 1
        sim.step()  # drained call: must not re-fire hooks
        sim.run()
        assert r.shutdown_count == 1

    def test_step_drain_on_started_sim_finalizes(self):
        # A sim partially advanced by run(max_events=...) and then stepped
        # past its last event must terminate, not linger in _running.
        sim = Simulation()
        r = Recorder("r")
        sim.register(r)
        sim.schedule(delay=1.0, src=-1, dst=0, tag=EventTag.NONE)
        sim.schedule(delay=2.0, src=-1, dst=0, tag=EventTag.NONE)
        sim.run(max_events=1)
        assert not sim.finished
        assert sim.step() is not None
        assert sim.finished and r.shutdown_called

    def test_step_on_cancelled_out_queue_finalizes(self):
        # A sim can be left started with an empty queue and no finalize if
        # run(max_events=...) stops right after a handler's events were
        # cancelled; the next step() must notice the drain and terminate.
        sim = Simulation()
        r = Recorder("r")
        sim.register(r)
        sim.schedule(delay=1.0, src=-1, dst=0, tag=EventTag.NONE)
        later = sim.schedule(delay=2.0, src=-1, dst=0, tag=EventTag.NONE)
        sim.run(max_events=1)
        sim.cancel(later)
        assert not sim.finished
        assert sim.step() is None
        assert sim.finished and r.shutdown_called

    def test_schedule_negative_delay_rejected(self):
        sim = Simulation()
        sim.register(Recorder("r"))
        with pytest.raises(SimulationError, match="negative delay"):
            sim.schedule(delay=-0.5, src=-1, dst=0, tag=EventTag.NONE)

    def test_schedule_nan_delay_rejected(self):
        sim = Simulation()
        sim.register(Recorder("r"))
        with pytest.raises(SimulationError, match="delay is nan"):
            sim.schedule(delay=float("nan"), src=-1, dst=0, tag=EventTag.NONE)

    def test_schedule_to_unknown_destination_rejected(self):
        sim = Simulation()
        with pytest.raises(SimulationError, match="unknown destination"):
            sim.schedule(delay=0.0, src=-1, dst=0, tag=EventTag.NONE)

    def test_cancel_pending_event(self):
        sim = Simulation()
        r = Recorder("r")
        sim.register(r)
        e = sim.schedule(delay=1.0, src=-1, dst=0, tag=EventTag.NONE)
        assert sim.cancel(e)
        sim.run()
        assert r.events == []

    def test_trace_records_events(self):
        sim = Simulation(trace=True)
        r = Recorder("r")
        sim.register(r)
        sim.schedule(delay=1.0, src=-1, dst=0, tag=EventTag.NONE, data="t")
        sim.run()
        assert len(sim.trace_log) == 1
        assert sim.trace_log[0].data == "t"

    def test_register_after_run_rejected(self):
        sim = Simulation()
        sim.register(Recorder("r"))
        sim.run()
        with pytest.raises(SimulationError):
            sim.register(Recorder("late"))

    def test_run_on_finished_sim_is_noop(self):
        sim = Simulation()
        r = Recorder("r")
        sim.register(r)
        sim.schedule(delay=3.0, src=-1, dst=0, tag=EventTag.NONE)
        assert sim.run() == 3.0
        assert sim.run() == 3.0
        assert len(r.events) == 1


class TestMessaging:
    def test_entity_send_and_send_now(self):
        sim = Simulation()
        a, b = Recorder("a"), Recorder("b")
        sim.register_all([a, b])
        sim.schedule(delay=1.0, src=-1, dst=a.id, tag=EventTag.NONE)

        class Kicker(Recorder):
            def process_event(self, event):
                super().process_event(event)

        # Drive manually: deliver, then have `a` send to `b`.
        sim.run()
        a.send(b, 1.0, EventTag.TIMER, data="later")
        a.send_now(b, EventTag.NONE, data="now")
        sim.run()
        assert [d for _, _, d in b.events] == ["now", "later"]

    def test_schedule_self(self):
        sim = Simulation()

        class SelfTimer(Recorder):
            def start(self):
                super().start()
                self.schedule_self(2.5, EventTag.TIMER, data="ping")

        s = SelfTimer("s")
        sim.register(s)
        sim.run()
        assert [(t, d) for t, _, d in s.events] == [(2.5, "ping")]

    def test_send_by_id(self):
        sim = Simulation()
        a, b = Recorder("a"), Recorder("b")
        sim.register_all([a, b])
        a.send(b.id, 0.5, EventTag.NONE, data=42)
        sim.run()
        assert b.events == [(0.5, EventTag.NONE, 42)]
