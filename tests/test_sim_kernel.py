"""Unit tests for the discrete-event simulation kernel."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.clock import SimClock
from repro.sim.events import Event
from repro.sim.process import PeriodicTimer, Timer
from repro.sim.rng import SeededRng
from repro.sim.scheduler import Simulator


class TestSimClock:
    def test_starts_at_zero_by_default(self):
        assert SimClock().now == 0.0

    def test_advance_moves_forward(self):
        clock = SimClock()
        clock.advance_to(1.5)
        assert clock.now == 1.5

    def test_advance_to_same_time_is_noop(self):
        clock = SimClock(2.0)
        clock.advance_to(2.0)
        assert clock.now == 2.0

    def test_cannot_move_backwards(self):
        clock = SimClock(5.0)
        with pytest.raises(SimulationError):
            clock.advance_to(1.0)

    def test_negative_start_rejected(self):
        with pytest.raises(SimulationError):
            SimClock(-1.0)


class TestEventOrdering:
    def test_events_ordered_by_time(self, sim):
        fired = []
        sim.schedule_at(2.0, fired.append, "late")  # inserted first
        sim.schedule_at(1.0, fired.append, "early")
        sim.run()
        assert fired == ["early", "late"]

    def test_ties_broken_by_sequence(self, sim):
        fired = []
        sim.schedule_at(1.0, fired.append, "first")
        sim.schedule(1.0, fired.append, "second")
        sim.run()
        assert fired == ["first", "second"]

    def test_cancel_marks_not_pending(self):
        event = Event(1.0, 0, lambda: None)
        assert event.pending
        event.cancel()
        assert not event.pending


class TestSimulator:
    def test_runs_events_in_time_order(self, sim):
        fired = []
        sim.schedule(2.0, fired.append, "late")
        sim.schedule(1.0, fired.append, "early")
        sim.run()
        assert fired == ["early", "late"]

    def test_same_time_events_fire_in_scheduling_order(self, sim):
        fired = []
        for name in ("a", "b", "c"):
            sim.schedule(1.0, fired.append, name)
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_last_event(self, sim):
        sim.schedule(3.5, lambda: None)
        sim.run()
        assert sim.now == pytest.approx(3.5)

    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "in-window")
        sim.schedule(5.0, fired.append, "out-of-window")
        sim.run(until=2.0)
        assert fired == ["in-window"]
        assert sim.now == pytest.approx(2.0)

    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        sim.cancel(event)
        sim.run()
        assert fired == []

    def test_cannot_schedule_in_the_past(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-0.5, lambda: None)

    def test_events_scheduled_during_run_also_fire(self, sim):
        fired = []

        def chain():
            fired.append("first")
            sim.schedule(1.0, fired.append, "second")

        sim.schedule(1.0, chain)
        sim.run()
        assert fired == ["first", "second"]
        assert sim.now == pytest.approx(2.0)

    def test_max_events_bound(self, sim):
        fired = []
        for index in range(10):
            sim.schedule(float(index + 1), fired.append, index)
        sim.run(max_events=3)
        assert len(fired) == 3

    def test_events_processed_counter(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.events_processed == 2

    def test_determinism_across_instances(self):
        def run_once():
            simulator = Simulator(seed=3)
            order = []
            for index in range(20):
                delay = simulator.rng.uniform(0, 1)
                simulator.schedule(delay, order.append, index)
            simulator.run()
            return order

        assert run_once() == run_once()


class TestTimer:
    def test_fires_after_delay(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(0.5)
        sim.run()
        assert fired == [pytest.approx(0.5)]

    def test_restart_cancels_previous(self, sim):
        fired = []
        timer = Timer(sim, lambda tag: fired.append(tag))
        timer.start(0.5, "first")
        timer.start(1.0, "second")
        sim.run()
        assert fired == ["second"]

    def test_cancel_prevents_firing(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(1))
        timer.start(0.5)
        timer.cancel()
        sim.run()
        assert fired == []

    def test_deadline_reports_absolute_time(self, sim):
        timer = Timer(sim, lambda: None)
        timer.start(0.25)
        assert timer.deadline == pytest.approx(0.25)
        assert timer.pending


class TestPeriodicTimer:
    def test_ticks_repeatedly_until_stopped(self, sim):
        ticks = []
        timer = PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now))
        timer.start()
        sim.run(until=3.5)
        assert ticks == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]

    def test_stop_prevents_future_ticks(self, sim):
        ticks = []
        timer = PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now))
        timer.start()
        sim.schedule(1.5, timer.stop)
        sim.run(until=5.0)
        assert len(ticks) == 1

    def test_rejects_non_positive_period(self, sim):
        with pytest.raises(ValueError):
            PeriodicTimer(sim, 0.0, lambda: None)


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = SeededRng(5)
        b = SeededRng(5)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_fork_streams_are_independent(self):
        root = SeededRng(5)
        fork_a = root.fork("a")
        fork_b = root.fork("b")
        assert [fork_a.random() for _ in range(5)] != [fork_b.random() for _ in range(5)]

    def test_randint_within_bounds(self):
        rng = SeededRng(1)
        values = [rng.randint(3, 7) for _ in range(100)]
        assert all(3 <= value <= 7 for value in values)

    def test_choice_picks_existing_element(self):
        rng = SeededRng(1)
        items = ["x", "y", "z"]
        assert all(rng.choice(items) in items for _ in range(20))
