"""Wall time per named stage of a command, summed over its calls.

A command reports the totals as `stages` in its manifest. Pool processes
time their own stages and send the seconds back with their results, so the
totals cover work that runs outside the parent process.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class StageTimer:
    def __init__(self):
        self.seconds: dict[str, float] = {}

    @contextmanager
    def stage(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add({name: time.perf_counter() - start})

    def add(self, seconds: dict[str, float]) -> None:
        for name, value in seconds.items():
            self.seconds[name] = self.seconds.get(name, 0.0) + value
