"""Time sources.

Every component that needs time takes a clock object instead of calling
``time.time()`` directly, so the same code runs against the wall clock in
production and against a virtual clock in tests and simulations.
"""

from __future__ import annotations

import threading
import time
from typing import Protocol

SECONDS_PER_DAY = 86400.0


class Clock(Protocol):
    def now(self) -> float: ...

    def sleep(self, duration: float) -> None: ...

    def time_of_day(self, timestamp: float) -> float:
        """Seconds since local midnight for the given timestamp."""
        ...


class WallClock:
    """Real time.  ``sleep`` can be interrupted through a stop event so a
    daemon blocked between polls still shuts down promptly."""

    def __init__(self, stop_event: threading.Event | None = None):
        self._stop = stop_event

    def now(self) -> float:
        return time.time()

    def sleep(self, duration: float) -> None:
        if duration <= 0:
            return
        if self._stop is None:
            time.sleep(duration)
        else:
            self._stop.wait(timeout=duration)

    def time_of_day(self, timestamp: float) -> float:
        lt = time.localtime(timestamp)
        return lt.tm_hour * 3600.0 + lt.tm_min * 60.0 + lt.tm_sec


class VirtualClock:
    """Manually advanced clock.  Days start at multiples of 86400 seconds."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def sleep(self, duration: float) -> None:
        if duration > 0:
            self._now += duration

    def time_of_day(self, timestamp: float) -> float:
        return timestamp % SECONDS_PER_DAY
