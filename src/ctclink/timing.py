"""Per-stage wall and CPU time of the library's pipelines.

Library code marks a stage with ``with stage("sampler"): ...``.  While a
Recording is active (``with Recording() as rec:``), every stage entered
adds its wall and CPU seconds and one call to the recording's totals under
its name; stages that nest are each counted in full.  CPU time is the
process's (time.process_time), so it includes other threads, such as a
BLAS's.  Outside a recording stage() hands back one shared no-op context,
so a marked stage costs a global lookup and a call.  The active recording
is process-wide: time stages from one thread at a time.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

_IDLE = nullcontext()


class Recording:
    """Summed wall seconds, CPU seconds and calls per stage name."""

    def __init__(self) -> None:
        self.wall_s: dict[str, float] = {}
        self.cpu_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self._outer: Recording | None = None

    def __enter__(self) -> "Recording":
        global _active
        self._outer, _active = _active, self
        return self

    def __exit__(self, *exc) -> None:
        global _active
        _active = self._outer

    def add(self, name: str, wall_s: float, cpu_s: float) -> None:
        self.wall_s[name] = self.wall_s.get(name, 0.0) + wall_s
        self.cpu_s[name] = self.cpu_s.get(name, 0.0) + cpu_s
        self.calls[name] = self.calls.get(name, 0) + 1


_active: Recording | None = None


class _Stage:
    __slots__ = ("recording", "name", "wall0", "cpu0")

    def __init__(self, recording: Recording, name: str) -> None:
        self.recording = recording
        self.name = name

    def __enter__(self) -> None:
        self.wall0 = time.perf_counter()
        self.cpu0 = time.process_time()

    def __exit__(self, *exc) -> None:
        self.recording.add(
            self.name, time.perf_counter() - self.wall0, time.process_time() - self.cpu0
        )


def stage(name: str):
    """Context that times its body as stage ``name`` of the active recording."""
    return _IDLE if _active is None else _Stage(_active, name)
