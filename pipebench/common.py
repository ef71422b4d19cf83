"""Shared pieces of the pipeline benchmark: import gate, rounds, tracer, RSS."""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

# Each timed run repeats its round at least this often, after the warm-up.
MIN_ROUNDS = 3
# Set-up is repeated this often and its median reported.
SETUP_REPEATS = 3


class BenchError(Exception):
    """The benchmark cannot run here (e.g. the package sources are missing)."""


def import_ctclink():
    """Import ctclink from this checkout's ``src`` and nowhere else.

    An installed copy elsewhere would time other code than the checkout's,
    so its presence is an error, as is a checkout without sources.
    """
    if not os.path.isfile(os.path.join(SRC, "ctclink", "__init__.py")):
        raise BenchError(f"no package sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import ctclink

    where = os.path.dirname(os.path.abspath(ctclink.__file__))
    if where != os.path.join(SRC, "ctclink"):
        raise BenchError(f"ctclink imported from {where}, not from {SRC}")
    return ctclink


def median(values) -> float:
    return float(statistics.median(values))


def timed_rounds(round_fn, seconds: float):
    """One warm-up round, then rounds until ``seconds`` have passed.

    Returns (warm-up result, timed results); at least MIN_ROUNDS timed
    rounds run whatever ``seconds`` is, so every run attempts whole rounds.
    """
    warm = round_fn()
    results = []
    start = time.perf_counter()
    while len(results) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        results.append(round_fn())
    return warm, results


def repeated_setup(setup_fn, teardown_fn=None):
    """Run ``setup_fn`` SETUP_REPEATS times; keep the last, return median time."""
    times = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None and teardown_fn is not None:
            teardown_fn(state)
        t0 = time.perf_counter()
        state = setup_fn()
        times.append(time.perf_counter() - t0)
    return state, median(times)


def draw_payloads(rng, n: int):
    """(network ID, six cluster IDs) for ``n`` frames, from the benchmark's RNG."""
    for _ in range(n):
        net = int(rng.integers(0, 1 << 32))
        yield net, tuple(int(c) for c in rng.integers(0, 1 << 16, size=6))


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any child it waited for."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


@dataclass
class Part:
    """Work units done and wall seconds taken by one timed part of a round."""

    units: int
    seconds: float

    @property
    def rate(self) -> float:
        return self.units / self.seconds


@dataclass
class OpCount:
    """Operations attempted and failed; an operation fails when it raises."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def run(self, fn, *args, weight: int = 1):
        """Call ``fn``; on an exception count ``weight`` failed operations."""
        self.attempted += weight
        try:
            return fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += weight
            self.errors.append(f"{getattr(fn, '__name__', fn)}: {exc!r}")
            return None


class Tracer:
    """In-memory spans (id, name, start, end, parent) around public calls."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self._stack: list[int] = []
        self._next = 0

    @contextmanager
    def span(self, name: str):
        span_id = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, name, t0, t1, parent))

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` as a leaf span, timed without a context manager."""
        span_id = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((span_id, name, t0, time.perf_counter(), parent))

    def total(self, name: str) -> float:
        """Summed wall seconds of every span with this name."""
        return sum(t1 - t0 for _, n, t0, t1, _ in self.spans if n == name)

    def self_time(self, name: str) -> float:
        """Summed duration of spans named ``name`` minus their child spans."""
        own = {s[0] for s in self.spans if s[1] == name}
        children = sum(t1 - t0 for _, _, t0, t1, parent in self.spans if parent in own)
        return self.total(name) - children


def write_traces(path: str, tracers: list[Tracer]) -> None:
    """One list of spans per traced pass, as JSON."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    passes = [
        [{"id": i, "name": n, "start": t0, "end": t1, "parent": p}
         for i, n, t0, t1, p in sorted(t.spans)]
        for t in tracers
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"passes": passes}, fh)
