"""The discrete-event kernel: ordering, processes, events, clock scopes."""

import pytest

from repro.net.latency import LatencyModel, SimClock
from repro.net.simnet import Network, NetworkError
from repro.sim import (
    EventKernel,
    Interrupt,
    SimRng,
    sleep,
    spawn,
    wait,
)
from repro.sim.kernel import run_until_complete


@pytest.fixture
def kernel():
    return EventKernel(SimClock(), SimRng(0))


class TestScheduling:
    def test_sleep_advances_virtual_time(self, kernel):
        timestamps = []

        def proc():
            yield sleep(1.5)
            timestamps.append(kernel.clock.now)
            yield sleep(0.5)
            timestamps.append(kernel.clock.now)

        kernel.spawn(proc())
        kernel.run()
        assert timestamps == [1.5, 2.0]

    def test_events_fire_in_time_order_with_fifo_ties(self, kernel):
        order = []

        def proc(name, delay):
            yield sleep(delay)
            order.append(name)

        kernel.spawn(proc("late", 2.0))
        kernel.spawn(proc("tie-a", 1.0))
        kernel.spawn(proc("tie-b", 1.0))
        kernel.spawn(proc("early", 0.5))
        kernel.run()
        assert order == ["early", "tie-a", "tie-b", "late"]

    def test_run_until_stops_at_horizon(self, kernel):
        hits = []

        def proc():
            for _ in range(10):
                yield sleep(1.0)
                hits.append(kernel.clock.now)

        kernel.spawn(proc())
        kernel.run(until=3.5)
        assert hits == [1.0, 2.0, 3.0]
        assert kernel.clock.now == 3.5
        kernel.run()
        assert len(hits) == 10

    def test_zero_sleep_keeps_relative_order(self, kernel):
        order = []

        def proc(name):
            yield sleep(0.0)
            order.append(name)

        kernel.spawn(proc("a"))
        kernel.spawn(proc("b"))
        kernel.run()
        assert order == ["a", "b"]

    def test_yielding_garbage_raises(self, kernel):
        def proc():
            yield "not a command"

        kernel.spawn(proc())
        with pytest.raises(TypeError, match="expected"):
            kernel.run()


class TestProcesses:
    def test_spawn_returns_handle_and_wait_gets_value(self, kernel):
        def child():
            yield sleep(1.0)
            return 42

        def parent():
            handle = yield spawn(child())
            value = yield wait(handle)
            return value

        assert run_until_complete(kernel, parent()) == 42

    def test_wait_on_finished_process_resumes_immediately(self, kernel):
        def child():
            yield sleep(0.1)
            return "done"

        def parent():
            handle = yield spawn(child())
            yield sleep(5.0)  # child long finished
            value = yield wait(handle)
            return (value, kernel.clock.now)

        assert run_until_complete(kernel, parent()) == ("done", 5.0)

    def test_unhandled_exception_propagates_out_of_run(self, kernel):
        def proc():
            yield sleep(1.0)
            raise ValueError("boom")

        kernel.spawn(proc())
        with pytest.raises(ValueError, match="boom"):
            kernel.run()

    def test_exception_reraises_in_waiter_not_run(self, kernel):
        def child():
            yield sleep(1.0)
            raise ValueError("boom")

        def parent():
            handle = yield spawn(child())
            try:
                yield wait(handle)
            except ValueError:
                return "caught"

        assert run_until_complete(kernel, parent()) == "caught"

    def test_interrupt_cancels_pending_sleep(self, kernel):
        def sleeper():
            try:
                yield sleep(100.0)
            except Interrupt as interrupt:
                return ("interrupted", interrupt.cause, kernel.clock.now)

        handle = kernel.spawn(sleeper())

        def killer():
            yield sleep(2.0)
            handle.interrupt("shutdown")

        kernel.spawn(killer())
        kernel.run()
        assert handle.value == ("interrupted", "shutdown", 2.0)
        assert kernel.clock.now == 2.0  # the 100 s sleep never fired

    def test_event_wakes_all_waiters_with_value(self, kernel):
        results = []
        gate = kernel.event("gate")

        def waiter(name):
            value = yield wait(gate)
            results.append((name, value, kernel.clock.now))

        def firer():
            yield sleep(3.0)
            gate.succeed("go")

        kernel.spawn(waiter("a"))
        kernel.spawn(waiter("b"))
        kernel.spawn(firer())
        kernel.run()
        assert results == [("a", "go", 3.0), ("b", "go", 3.0)]


class TestClockScopes:
    def test_isolated_scope_does_not_advance_shared_time(self):
        clock = SimClock()
        with clock.isolated() as scope:
            clock.advance(5.0)
            assert clock.now == 5.0  # scope-local view
        assert scope.elapsed == 5.0
        assert clock.now == 0.0

    def test_nested_scope_rolls_up_into_parent(self):
        clock = SimClock()
        with clock.isolated() as outer:
            clock.advance(1.0)
            with clock.isolated() as inner:
                clock.advance(2.0)
            assert inner.elapsed == 2.0
            assert clock.now == 3.0
        assert outer.elapsed == 3.0
        assert clock.now == 0.0

    def test_advance_to_refused_inside_scope(self):
        clock = SimClock()
        with clock.isolated():
            with pytest.raises(RuntimeError):
                clock.advance_to(10.0)

    def test_advance_to_is_monotonic(self):
        clock = SimClock()
        clock.advance_to(4.0)
        assert clock.now == 4.0
        with pytest.raises(ValueError):
            clock.advance_to(3.0)

    def test_exception_in_nested_scope_still_rolls_up(self):
        clock = SimClock(start=10.0)
        with clock.isolated() as outer:
            clock.advance(1.0)
            with pytest.raises(KeyError):
                with clock.isolated() as inner:
                    clock.advance(2.0)
                    raise KeyError("inside the inner scope")
            assert inner.elapsed == 2.0
            assert clock.now == 13.0
        assert outer.elapsed == 3.0
        assert clock.now == 10.0
        assert clock._offsets == []
        clock.advance_to(11.0)  # refused while any scope is open

    def test_exception_propagates_through_both_scopes(self):
        clock = SimClock()
        with pytest.raises(KeyError):
            with clock.isolated() as outer:
                with clock.isolated() as inner:
                    clock.advance(2.0)
                    raise KeyError("inside the inner scope")
        assert (inner.elapsed, outer.elapsed) == (2.0, 2.0)
        assert clock.now == 0.0
        assert clock._offsets == []

    def test_event_mode_measure_survives_a_failed_exchange(self):
        """``_exchange`` and ``_forward`` measure every request, severed
        and unreachable ones too: the scope must close on the error and
        charge what the exchange took before it failed."""
        network = Network(LatencyModel(base_rtt=0.25))
        network.enable_event_mode(EventKernel(network.clock, SimRng(0)))
        server = network.add_host("server", "10.0.0.1")
        client = network.add_host("client", "10.0.0.2")

        def severed(payload, context):
            context.add_processing_time(0.5)
            raise NetworkError("session severed")

        server.listen(80, severed)
        with network.measure() as outer:
            with pytest.raises(NetworkError):
                with network.measure() as inner:
                    client.request("10.0.0.1", 80, b"record")
            with pytest.raises(NetworkError):
                with network.measure() as unreachable:
                    client.request("10.0.0.9", 80, b"record")
        assert inner.elapsed == 0.75
        assert unreachable.elapsed == 0.0
        assert outer.elapsed == 0.75
        assert network.clock.now == 0.0
        assert network.clock._offsets == []

    def test_sync_mode_measure_survives_a_failed_exchange(self):
        network = Network(LatencyModel(base_rtt=0.25))
        server = network.add_host("server", "10.0.0.1")
        client = network.add_host("client", "10.0.0.2")
        server.listen(80, lambda payload, context: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            with network.measure() as scope:
                client.request("10.0.0.1", 80, b"x")
        assert scope.elapsed == 0.25
        assert network.clock.now == 0.25


class TestSleepValidation:
    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            sleep(-0.001)

    @pytest.mark.parametrize(
        "duration", [float("nan"), float("inf"), float("-inf")]
    )
    def test_non_finite_duration_rejected(self, duration):
        # A NaN sleep used to silently corrupt the event heap (NaN
        # compares false against everything, breaking heap order for
        # every later entry); inf just wedged the run. Both are bugs at
        # the call site and must fail loudly.
        with pytest.raises(ValueError, match="finite|negative"):
            sleep(duration)

    def test_zero_and_positive_accepted(self):
        assert sleep(0).seconds == 0.0
        assert sleep(2.5).seconds == 2.5


class TestWaiterUnlink:
    def test_interrupting_10k_waiters(self, kernel):
        """Reverse-order interrupt storm over one event: quadratic with
        the old list-scan unlink, linear with the ordered-dict pop."""
        gate = kernel.event("gate")
        interrupted = []

        def waiter(index):
            try:
                yield wait(gate)
            except Interrupt:
                interrupted.append(index)

        parked = [kernel.spawn(waiter(index)) for index in range(10_000)]

        def storm():
            yield sleep(1.0)
            for process in reversed(parked):
                process.interrupt("storm")

        kernel.spawn(storm())
        kernel.run()
        assert len(interrupted) == 10_000
        assert not gate._waiters  # every waiter unlinked

    def test_interrupted_waiters_do_not_hear_the_event(self, kernel):
        gate = kernel.event("gate")
        woken, interrupted = [], []

        def waiter(index):
            try:
                woken.append((index, (yield wait(gate))))
            except Interrupt:
                interrupted.append(index)

        parked = [kernel.spawn(waiter(index)) for index in range(6)]

        def driver():
            yield sleep(1.0)
            for process in parked[::2]:  # interrupt 0, 2, 4
                process.interrupt("cancelled")
            yield sleep(1.0)
            gate.succeed("go")

        kernel.spawn(driver())
        kernel.run()
        assert interrupted == [0, 2, 4]
        assert woken == [(1, "go"), (3, "go"), (5, "go")]  # FIFO order


class TestKernelStats:
    def test_counters_track_commands(self, kernel):
        gate = kernel.event("gate")

        def child():
            yield sleep(1.0)
            gate.succeed("go")

        def parent():
            yield spawn(child())
            value = yield wait(gate)
            yield sleep(0.5)
            return value

        kernel.spawn(parent())
        kernel.run()
        stats = kernel.stats
        assert stats.steps == kernel.steps > 0
        assert stats.sleeps == 2
        assert stats.waits == 1
        assert stats.spawns == 1  # yielded spawn commands only
        assert stats.peak_heap >= 2
        assert stats.scheduled >= stats.steps

    def test_stale_entries_counted_for_cancelled_sleeps(self, kernel):
        def sleeper():
            try:
                yield sleep(100.0)
            except Interrupt:
                return

        handle = kernel.spawn(sleeper())

        def killer():
            yield sleep(1.0)
            handle.interrupt("now")

        kernel.spawn(killer())
        kernel.run()
        # The cancelled 100 s sleep stays in the heap as a stale entry
        # and is skipped, not dispatched.
        assert kernel.stats.stale_entries >= 1
        assert 0 < kernel.stats.stale_ratio < 1

    def test_snapshot_is_json_safe_and_sorted(self, kernel):
        def proc():
            yield sleep(1.0)

        kernel.spawn(proc())
        kernel.run()
        snapshot = kernel.stats.snapshot()
        assert list(snapshot) == sorted(snapshot)
        assert snapshot["steps"] == kernel.steps
        assert all(isinstance(v, (int, float)) for v in snapshot.values())

    def test_steps_is_read_only(self, kernel):
        with pytest.raises(AttributeError):
            kernel.steps = 7


class TestDeterminism:
    def test_same_seed_same_trace(self):
        def one_run(seed):
            clock = SimClock()
            kernel = EventKernel(clock, SimRng(seed))
            rng = kernel.rng.fork("jitter")
            trace = []

            def proc(name):
                for _ in range(20):
                    yield sleep(rng.expovariate(2.0))
                    trace.append((name, clock.now))

            for name in ("a", "b", "c"):
                kernel.spawn(proc(name))
            kernel.run()
            return trace

        assert one_run(42) == one_run(42)
        assert one_run(42) != one_run(43)
