"""The served client's delay log: time the thread is off the CPU while
the loop has work counts, and so does a wake-up later than the wait's
timeout; a wait itself does not."""

import asyncio
import selectors
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.served import LoopDelays  # noqa: E402


def run(coroutine_function):
    delays = LoopDelays()
    loop = asyncio.SelectorEventLoop(delays)
    try:
        loop.run_until_complete(coroutine_function())
    finally:
        loop.close()
    delays.mark()
    return delays


def test_blocking_sleep_inside_a_callback_counts_as_a_delay():
    # A blocking sleep holds the loop with the thread off the CPU, as
    # a stolen vCPU does.
    async def hold():
        time.sleep(0.05)

    delays = run(hold)
    assert 0.045 <= delays.delays[-1] <= 0.2


def test_a_wait_does_not_count():
    async def wait():
        await asyncio.sleep(0.05)

    delays = run(wait)
    assert delays.delays[-1] < 0.02


def test_delays_are_spread_over_the_stretch_they_fell_in():
    delays = LoopDelays()
    delays.close()
    delays.walls = [0.0, 1.0, 2.0, 3.0]
    delays.delays = [0.0, 0.0, 0.5, 0.5]
    assert np.allclose(delays.delayed_at(np.array([0.5, 1.5, 2.5, 9.0])),
                       [0.0, 0.25, 0.5, 0.5])


def test_a_late_wake_up_counts(monkeypatch):
    # The host runs the vCPU again 30 ms after a 10-ms wait ran out.
    def oversleep(self, timeout=None):
        time.sleep(timeout + 0.03)
        return []

    delays = LoopDelays()
    monkeypatch.setattr(selectors.DefaultSelector, "select", oversleep)
    delays.select(0.01)
    assert 0.025 <= delays.delays[-1] <= 0.2


def test_a_wait_ended_by_a_ready_event_does_not_count(monkeypatch):
    def ready(self, timeout=None):
        time.sleep(0.03)
        return [("key", 1)]

    delays = LoopDelays()
    monkeypatch.setattr(selectors.DefaultSelector, "select", ready)
    delays.select(0.001)
    assert delays.delays[-1] < 0.02
