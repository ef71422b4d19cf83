"""LTE-U duty-cycle waveforms and the WiFi-side MAC-state sampler.

The transmitter side lays puncture schedules into the ON phases of a CSAT
duty cycle on a 50 us tick grid.  The receiver side is a model of what a
WiFi NIC exposes: per 250 us window, how many of its ticks were spent
receiving, transmitting, and sensing energy without packet reception
(intf), the rest being idle.  The sampler packs the three counts into one
uint8 code per window; the fractions of time in each state follow from the
code on demand.  The intf share is the side channel's only observable.

Tick rules, in precedence order: the node's own transmissions win
(half-duplex), then decoded WiFi receptions, then energy above the ED
threshold from any LTE source or from undecodable WiFi frames, then idle.
A WiFi frame counts as decoded when it starts on a tick where no LTE
source transmits; frames that start under LTE energy are corrupted and
only contribute energy.  WiFi senders that sense the LTE cell defer to its
transmit mask, punctures included.

The energy detector's fast measurement noise is not drawn per tick: a
source near its threshold detects each of its transmit ticks on its own
with one probability, so the sampler draws one binomial detection count
per window over the ticks the earlier rules leave open, by inverting the
binomial CDF at one uniform per window.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .codec import PunctureSchedule
from .radio import RadioLink

RESOLUTION_US = 50
WINDOW_US = 250
# WiFi contention gap before each saturated launch, drawn uniformly
CONTENTION_GAP_US = (50.0, 200.0)
CYCLE_CHOICES = (40, 80, 160)
# a >=2 ms puncture is required within every 20 ms of ON time
MAX_ON_RUN_MS = 20
SAFETY_GAP_MS = 2
# doubles drawn at a time by saturated_frames
DRAW_BLOCK = 4096
# ticks that poisson_frames moves past the busy runs at a time
FREE_BLOCK = 65536
# a window's state code is rx + CODE_BASE * tx + CODE_BASE**2 * intf, its
# tick counts in those states: each count is at most the window's ticks,
# so the code is unique, and it fits a uint8 since CODE_BASE**3 <= 256
CODE_BASE = WINDOW_US // RESOLUTION_US + 1
# windows that MacStateSeries packs into codes at a time, so that no
# float temporary of its conversion outgrows a block
CONVERT_BLOCK = 32768


class SchedulingError(ValueError):
    """A symbol cannot be placed inside the configured ON phase."""


@dataclass(frozen=True)
class CsatConfig:
    """CSAT duty cycle: cycle length and ON time, duty capped at 50%."""

    cycle_ms: int
    on_ms: float

    def __post_init__(self) -> None:
        if self.cycle_ms not in CYCLE_CHOICES:
            raise ValueError(f"cycle_ms must be one of {CYCLE_CHOICES}")
        if not 0 < self.on_ms <= 0.5 * self.cycle_ms:
            raise ValueError("ON time must be positive with duty at most 50%")

    @property
    def duty(self) -> float:
        return self.on_ms / self.cycle_ms

    @property
    def on_ticks(self) -> int:
        """ON time in ticks, rounded to the nearest tick."""
        return round(self.on_ms * (1000 // RESOLUTION_US))


@dataclass
class Waveform:
    """Tick-level transmit pattern of one LTE-U source.

    tx is the actual transmission: True in the ON phases except at the
    punctures.  It is both the energy the sampler detects and the mask that
    carrier-sensing WiFi senders defer to.
    """

    csat: CsatConfig
    tx: np.ndarray

    @property
    def n_ticks(self) -> int:
        return len(self.tx)

    @property
    def n_cycles(self) -> int:
        return self.n_ticks // (self.csat.cycle_ms * 1000 // RESOLUTION_US)

    def with_lead_in(self, n_ticks: int) -> "Waveform":
        """Same waveform preceded by silence, for start-offset experiments."""
        return Waveform(self.csat, np.concatenate([np.zeros(n_ticks, dtype=bool), self.tx]))

    def validate(self) -> None:
        """Check the coexistence constraint: no TX run longer than 20 ms."""
        limit = MAX_ON_RUN_MS * 1000 // RESOLUTION_US
        padded = np.concatenate([[0], self.tx.astype(np.int8), [0]])
        edges = np.flatnonzero(np.diff(padded))
        runs = edges[1::2] - edges[::2]
        if runs.size and runs.max() > limit:
            raise ValueError(f"TX run of {runs.max()} ticks exceeds the 20 ms limit")


def generate_waveform(
    csat: CsatConfig,
    symbols: Sequence[PunctureSchedule],
    n_cycles: int | None = None,
) -> Waveform:
    """Lay symbols head-to-tail into consecutive ON phases.

    A symbol fits while its transmit span ends inside the ON phase; the
    trailing mandatory gap may extend into the OFF phase.  Leftover ON
    time after the symbols (and symbol-free cycles) transmits plainly
    with a 2 ms safety gap after every 18 ms so no run exceeds 20 ms.
    """
    per_ms = 1000 // RESOLUTION_US
    cycle_ticks = csat.cycle_ms * per_ms
    on_ticks = csat.on_ticks

    # assign symbols to (cycle, offset_ms) slots
    placed: list[tuple[int, int, PunctureSchedule]] = []
    cycle, offset_ms = 0, 0
    for sched in symbols:
        span = sched.symbol_ms - sched.trailing_gap_ms
        if span * per_ms > on_ticks:
            raise SchedulingError(
                f"symbol transmit span {span} ms exceeds ON phase {csat.on_ms} ms"
            )
        if (offset_ms + span) * per_ms > on_ticks:
            cycle, offset_ms = cycle + 1, 0
        placed.append((cycle, offset_ms, sched))
        offset_ms += sched.symbol_ms

    used_cycles = (placed[-1][0] + 1) if placed else 1
    total_cycles = used_cycles if n_cycles is None else n_cycles
    if n_cycles is not None and used_cycles > n_cycles:
        raise SchedulingError(f"symbols need {used_cycles} cycles, got {n_cycles}")

    tx = np.zeros(total_cycles * cycle_ticks, dtype=bool)
    tx.reshape(total_cycles, cycle_ticks)[:, :on_ticks] = True

    punctured_ms = []  # punctured slots, as ms from the start
    last_footprint = {}  # cycle -> ticks covered by symbols
    for c, off_ms, sched in placed:
        first_ms = c * csat.cycle_ms + off_ms
        punctured_ms += [first_ms + slot for slot in sched.positions]
        last_footprint[c] = (off_ms + sched.symbol_ms) * per_ms
    tx.reshape(-1, per_ms)[punctured_ms] = False

    # safety punctures in symbol-free ON time
    run_limit = MAX_ON_RUN_MS * per_ms
    chunk = (MAX_ON_RUN_MS - SAFETY_GAP_MS) * per_ms
    gap = SAFETY_GAP_MS * per_ms
    for c in range(total_cycles):
        start = c * cycle_ticks + last_footprint.get(c, 0)
        end = c * cycle_ticks + on_ticks
        if start >= end:
            continue
        carry = 0  # TX run carried across the boundary from the last symbol
        t = start
        while t > c * cycle_ticks and tx[t - 1]:
            carry += 1
            t -= 1
        pos = start
        while pos < end:
            if carry + (end - pos) <= run_limit:
                break  # rest of the ON phase fits in one legal run
            budget = chunk - carry
            if budget < 0:
                raise SchedulingError("symbol leaves no room for a safety gap")
            tx[pos + budget:min(pos + budget + gap, end)] = False
            pos += budget + gap
            carry = 0

    return Waveform(csat, tx)


# ---------------------------------------------------------------------------
# WiFi traffic traces.
# ---------------------------------------------------------------------------

@dataclass
class TrafficTrace:
    """Per-tick WiFi activity at the sampling node.

    tx: the node transmits.  rx_locked: a frame the NIC decodes.
    rx_unlocked: a corrupted frame, energy only.
    """

    tx: np.ndarray
    rx_locked: np.ndarray
    rx_unlocked: np.ndarray

    @property
    def n_ticks(self) -> int:
        return len(self.tx)


def tick_runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, ends) of the maximal True runs of a bool mask, as int64 arrays."""
    padded = np.concatenate([[False], mask, [False]])
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return edges[::2], edges[1::2]


def coverage(starts: np.ndarray, ends: np.ndarray, n_ticks: int) -> np.ndarray:
    """Ticks covered by at least one of the half-open intervals [start, end).

    The starts of the non-empty intervals must be in ascending order.
    """
    keep = starts < ends
    starts, ends = starts[keep], ends[keep]
    # merge overlapping and touching intervals: the merged ones lie apart,
    # so each of their starts and ends toggles the coverage exactly once
    reach = np.maximum.accumulate(ends)
    first = np.ones(len(starts), dtype=bool)
    first[1:] = starts[1:] > reach[:-1]
    last = np.ones(len(starts), dtype=bool)
    last[:-1] = first[1:]
    toggles = np.zeros(n_ticks + 1, dtype=bool)
    toggles[starts[first]] = True
    toggles[reach[last]] = True
    return np.logical_xor.accumulate(toggles[:n_ticks])


@dataclass
class WifiFrames:
    """WiFi frames at the sampling node as tick intervals, painted on demand.

    Frame i covers [starts[i], ends[i]).  A "tx" frame is the node's own
    transmission throughout.  An "rx" frame is locked from its start up to
    the first tick at or after it inside a transmit run of the LTE source,
    and energy only from there on, so a frame that starts under LTE energy
    never locks.  lte_ends holds the ends of those runs and lte_next their
    starts followed by the stream's length.  Starts are in ascending order
    and no frame is longer than ``longest`` ticks.  paint() lays the frames
    of any tick range as a TrafficTrace, so a stream can draw its traffic
    once and lay it chunk by chunk.
    """

    kind: str
    starts: np.ndarray
    ends: np.ndarray
    longest: int
    lte_ends: np.ndarray
    lte_next: np.ndarray

    @classmethod
    def launch(
        cls,
        starts: np.ndarray,
        lengths: np.ndarray | int,
        kind: str,
        lte_runs: tuple[np.ndarray, np.ndarray],
        n_ticks: int,
    ) -> "WifiFrames":
        """Frames launched at ascending ``starts``, each ``lengths`` ticks long,
        over a stream of ``n_ticks`` ticks whose LTE transmit runs are
        ``lte_runs`` (starts, ends).  Frames are clipped at the stream's end
        and may overlap."""
        starts = np.asarray(starts, dtype=np.int64)
        ends = starts + lengths
        np.minimum(ends, n_ticks, out=ends)
        lte_starts, lte_ends = lte_runs
        return cls(kind, starts, ends, int(np.max(lengths, initial=0)),
                   lte_ends, np.append(lte_starts, n_ticks))

    def paint(self, t0: int, t1: int) -> TrafficTrace:
        """The trace of ticks [t0, t1), tick t0 at index 0.

        The non-empty energy-only parts of "rx" frames start in ascending
        order, as coverage needs: a later frame that starts while an earlier
        one is still locked has the same next LTE tick, so its energy-only
        part is empty or starts at that tick.
        """
        # frames that start at or before t0 - longest end by t0
        lo = np.searchsorted(self.starts, t0 - self.longest, side="right")
        hi = np.searchsorted(self.starts, t1)
        starts, ends = self.starts[lo:hi], self.ends[lo:hi]
        n_ticks = t1 - t0

        def clip(ticks: np.ndarray) -> np.ndarray:
            return np.clip(ticks, t0, t1) - t0

        silent = np.zeros(n_ticks, dtype=bool)
        if self.kind == "tx":
            return TrafficTrace(coverage(clip(starts), clip(ends), n_ticks), silent, silent.copy())
        # first LTE run ending after each start; past the last run, no LTE follows
        run = np.searchsorted(self.lte_ends, starts, side="right")
        stomps = clip(np.minimum(np.maximum(starts, self.lte_next[run]), ends))
        starts, ends = clip(starts), clip(ends)
        return TrafficTrace(
            silent, coverage(starts, stomps, n_ticks), coverage(stomps, ends, n_ticks)
        )


def poisson_frames(
    n_ticks: int,
    busy_runs: tuple[np.ndarray, np.ndarray],
    rate_fps: float,
    frame_us: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int]:
    """Open-loop arrivals over ``n_ticks`` ticks: frames queue behind each
    other and defer to the sender's busy runs, then run to completion once
    started.  Returns the frames' starts and their common length in ticks.

    Frame i starts at s_i = nf(max(a_i, s_{i-1} + F)), where a_i is its
    arrival tick, F the frame length in ticks and nf(t) the first tick at
    or after t outside the busy runs.  Frames that would start past the
    end are dropped.  The draws are one poisson (the frame count) and one
    integers call (the arrival ticks), in that order.

    nf is monotone, so s_i = max(c_i, g(s_{i-1})) with c_i = nf(a_i) and
    g(x) = nf(x + F).  The starts are found in rounds of array operations
    on lower bounds e_i, which start at c_i.  A round takes the Lindley
    closed form t_i = iF + max_{j<=i}(e_j - jF) of t_i = max(e_i,
    t_{i-1} + F); since g(x) >= x + F, t stays a lower bound of s.  Where
    g(t_{i-1}) > t_i, the round raises e_i to g(t_{i-1}); where no arrival
    needs raising, t is s.  Every start before the first raised one is
    final, and so is that one, so the next round works from there on.
    Without busy runs one round is exact; a sensed light stream takes a
    few.  An overloaded queue can need about one round per busy run it
    crosses, so once a round raises more than half as many arrivals as the
    round before, the rest is walked one arrival at a time, from the first
    arrival that round raised.  That bounds the worst case to a few rounds
    plus the walk.  The rounds work in place on the sorted arrival ticks,
    which become the bounds e_i, and on one buffer as long as them, so the
    queue holds two arrays of its arrivals' length.
    """
    frame_ticks = max(1, round(frame_us / RESOLUTION_US))
    duration_s = n_ticks * RESOLUTION_US / 1e6
    n_frames = rng.poisson(rate_fps * duration_s)
    starts = rng.integers(0, n_ticks, size=n_frames)
    starts.sort()
    busy_starts, busy_ends = busy_runs
    # end of the last busy run starting at or before a tick; 0 before the first
    run_ends = np.concatenate([[0], busy_ends]).astype(np.int64)

    def next_free(t: np.ndarray) -> np.ndarray:
        """nf of every tick of t, in place, a block of FREE_BLOCK ticks at a time."""
        for i in range(0, len(t), FREE_BLOCK):
            block = t[i:i + FREE_BLOCK]
            np.maximum(block, run_ends[np.searchsorted(busy_starts, block, side="right")],
                       out=block)
        return t

    next_free(starts)  # the arrivals become the bounds e_i
    buffer = np.empty_like(starts)
    final = 0  # starts before this index are exact
    raised_before = len(starts)
    while final < len(starts):
        lindley = starts[final:]
        steps = buffer[:len(lindley)]  # 0, F, 2F, ...
        steps.fill(frame_ticks)
        steps[:1] = 0
        np.cumsum(steps, out=steps)
        lindley -= steps
        np.maximum.accumulate(lindley, out=lindley)
        lindley += steps
        # a lower bound at or past the end drops the frame and all after it
        lindley = lindley[:np.searchsorted(lindley, n_ticks)]
        starts = starts[:final + len(lindley)]
        queued = next_free(np.add(lindley[:-1], frame_ticks, out=buffer[1:len(lindley)]))
        raised = np.flatnonzero(queued > lindley[1:])
        if not raised.size:
            break
        starts[final + 1 + raised] = queued[raised]
        final += 1 + int(raised[0])
        if 2 * raised.size > raised_before:
            # each bound b_i lies in [nf(a_i), s_i], so nf(max(b_i, s_{i-1} + F))
            # is s_i, as it is for the arrival a_i
            walked = []
            free_at = int(starts[final - 1]) + frame_ticks
            run_starts, run_stops = busy_starts.tolist(), busy_ends.tolist()
            for bound in starts[final:].tolist():
                start = bound if bound > free_at else free_at
                run = bisect_right(run_starts, start) - 1
                if run >= 0 and start < run_stops[run]:
                    start = run_stops[run]
                if start >= n_ticks:
                    break
                walked.append(start)
                free_at = start + frame_ticks
            starts = np.concatenate([starts[:final], np.asarray(walked, dtype=np.int64)])
            break
        raised_before = raised.size
    return starts, frame_ticks


def _ticks(lo: float, span: float, doubles: np.ndarray) -> list[int]:
    """max(1, round((lo + span * d) / RESOLUTION_US)) for each double d, as ints.

    np.rint rounds half to even, as round does.
    """
    return np.maximum(1, np.rint((lo + span * doubles) / RESOLUTION_US)).astype(np.int64).tolist()


def saturated_frames(
    n_ticks: int,
    busy_runs: tuple[np.ndarray, np.ndarray],
    frame_us: float | tuple[float, float],
    rng: np.random.Generator,
    straddle_prob: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Backlogged sender over ``n_ticks`` ticks: fills every idle run between
    the busy runs with frames separated by contention gaps drawn from
    CONTENTION_GAP_US.  Returns the frames' starts and lengths in ticks.
    frame_us may be a (low, high) range, drawn per launch, for senders
    whose aggregated burst length varies.  With probability straddle_prob
    the frame that no longer fits an idle run is launched anyway and
    overruns into the LTE ON phase, which models imperfect carrier sensing
    at the run boundary.

    The idle runs are walked in order.  Each launch draws a uniform gap,
    then a uniform frame length (range frame_us only); a frame that does
    not fit draws one more uniform for the straddle decision and ends the
    run.  The draws are those of successive rng.uniform / rng.random
    calls: uniform(lo, hi) is lo + (hi - lo) * random().  They are taken
    from blocks of DRAW_BLOCK doubles, and rng is left exactly as far
    advanced as the doubles used.  For each double of a block, its gap in
    ticks, its frame length in ticks and its straddle decision are computed
    up front with numpy, since which of the three a double becomes is only
    known during the walk; the walk itself then only indexes and adds ints.
    Only the current block's values are kept, with the at most two doubles
    of the block before that a launch may still need.
    """
    ranged = isinstance(frame_us, tuple)
    gap_lo, gap_span = CONTENTION_GAP_US[0], CONTENTION_GAP_US[1] - CONTENTION_GAP_US[0]
    if ranged:
        if not frame_us[0] <= frame_us[1]:
            raise ValueError(f"range {frame_us} must have low <= high")
        frame_lo, frame_span = float(frame_us[0]), float(frame_us[1]) - float(frame_us[0])
    else:
        fixed_ticks = max(1, round(frame_us / RESOLUTION_US))
    saved = rng.bit_generator.state
    # per double kept, from double number `base` on: as a gap, as a frame
    # length, as a straddle draw; i indexes them
    gap_ticks: list[int] = []
    burst_ticks: list[int] = []
    straddles: list[bool] = []
    base = i = 0

    busy_starts, busy_ends = busy_runs
    idle_starts = np.concatenate([[0], busy_ends]).astype(np.int64)
    idle_ends = np.concatenate([busy_starts, [n_ticks]]).astype(np.int64)
    idle = idle_starts < idle_ends
    starts, lengths = array("q"), array("q")
    for run_start, run_end in zip(idle_starts[idle].tolist(), idle_ends[idle].tolist()):
        pos = run_start
        while pos < run_end:
            if i + 3 > len(gap_ticks):  # a launch takes at most three doubles
                block = rng.random(DRAW_BLOCK)
                gap_ticks = gap_ticks[i:] + _ticks(gap_lo, gap_span, block)
                if ranged:
                    burst_ticks = burst_ticks[i:] + _ticks(frame_lo, frame_span, block)
                straddles = straddles[i:] + (block < straddle_prob).tolist()
                base += i
                i = 0
            pos += gap_ticks[i]
            i += 1
            if pos >= run_end:
                break
            if ranged:
                frame_ticks = burst_ticks[i]
                i += 1
            else:
                frame_ticks = fixed_ticks
            if pos + frame_ticks <= run_end:
                starts.append(pos)
                lengths.append(frame_ticks)
                pos += frame_ticks
            else:
                if straddles[i]:
                    starts.append(pos)
                    lengths.append(frame_ticks)
                i += 1
                break

    rng.bit_generator.state = saved
    rng.random(base + i)
    return np.frombuffer(starts, dtype=np.int64), np.frombuffer(lengths, dtype=np.int64)


# ---------------------------------------------------------------------------
# MAC-state sampling.
# ---------------------------------------------------------------------------

class MacStateSeries:
    """Per-window MAC states, the receiver's observable: one uint8 state
    code per WINDOW_US window (see CODE_BASE), built from_codes by the sampler.

    The constructor packs fractions of a window's ticks in idle, rx, tx and
    intf into codes; ValueError unless each is k / (CODE_BASE - 1) for a
    whole k and a window's four fill it.  A series derives each fraction on
    first access, bit for bit the float mean of the window's tick masks.
    """

    window_us = WINDOW_US

    def __init__(
        self, window_us: int, idle: np.ndarray, rx: np.ndarray, tx: np.ndarray, intf: np.ndarray
    ) -> None:
        if window_us != WINDOW_US:
            raise ValueError(f"windows of {window_us} us, not {WINDOW_US} us")
        fractions = {"idle": idle, "rx": rx, "tx": tx, "intf": intf}
        if {np.shape(f) for f in fractions.values()} != {(len(idle),)}:
            raise ValueError("idle, rx, tx and intf must be 1-D and of one length")
        n = CODE_BASE - 1
        self.codes = np.empty(len(idle), dtype=np.uint8)
        for lo in range(0, len(idle), CONVERT_BLOCK):
            counts = []
            for name, f in fractions.items():
                f = np.asarray(f[lo:lo + CONVERT_BLOCK])
                k = np.rint(f * n)
                # k / n == f holds outside [0, n] too (-0.2), where uint8 would wrap
                if not np.all((k / n == f) & (k >= 0) & (k <= n)):
                    raise ValueError(f"{name} is not a whole number of ticks in every window")
                counts.append(k.astype(np.uint8))
            idle_k, rx_k, tx_k, intf_k = counts
            if np.any(idle_k + rx_k + tx_k + intf_k != n):
                raise ValueError(f"idle, rx, tx and intf do not add up to {n} ticks in every window")
            self.codes[lo:lo + CONVERT_BLOCK] = rx_k + CODE_BASE * tx_k + CODE_BASE**2 * intf_k

    @classmethod
    def from_codes(cls, codes: np.ndarray) -> "MacStateSeries":
        """A series from its uint8 state codes."""
        series = cls.__new__(cls)
        series.codes = codes
        return series

    @cached_property
    def rx(self) -> np.ndarray:
        return self.codes % CODE_BASE / (CODE_BASE - 1)

    @cached_property
    def tx(self) -> np.ndarray:
        return self.codes // CODE_BASE % CODE_BASE / (CODE_BASE - 1)

    @cached_property
    def intf(self) -> np.ndarray:
        return self.codes // CODE_BASE**2 / (CODE_BASE - 1)

    @cached_property
    def idle(self) -> np.ndarray:
        c = self.codes
        return (CODE_BASE - 1 - c % CODE_BASE - c // CODE_BASE % CODE_BASE
                - c // CODE_BASE**2) / (CODE_BASE - 1)

    @property
    def n_samples(self) -> int:
        return len(self.codes)


def window_sums(ticks: np.ndarray) -> np.ndarray:
    """Sums of a uint8 tick array over each whole WINDOW_US window."""
    per_win = WINDOW_US // RESOLUTION_US
    n_win = len(ticks) // per_win
    # adding the per_win uint8 columns beats a reduction along the short axis
    cols = ticks[:n_win * per_win].reshape(n_win, per_win)
    sums = cols[:, 0].copy()
    for k in range(1, per_win):
        sums += cols[:, k]
    return sums


@lru_cache(maxsize=16)  # a table per detection probability in use
def _binomial_cdfs(n_max: int, p: float) -> np.ndarray:
    """cdf[j, n] = P(K <= j) for K ~ Binomial(n, p), j < n_max and n <= n_max; read-only."""
    cdf = np.ones((n_max, n_max + 1))
    for n in range(1, n_max + 1):
        total = 0.0
        for j in range(n):
            total += math.comb(n, j) * p**j * (1.0 - p) ** (n - j)
            cdf[j, n] = total
    cdf.flags.writeable = False
    return cdf


def _detection_probability(link: RadioLink, ed_noise_sigma_db: float) -> float:
    """p of sample_mac_states: 1.0 above the noise band, 0.0 below it, else in between."""
    level, theta = link.mean_rx_dbm(), link.ed_threshold_dbm
    margin = 8.0 * ed_noise_sigma_db
    if level - theta >= margin:
        return 1.0
    if ed_noise_sigma_db > 0 and theta - level < margin:
        return 0.5 * math.erfc((theta - level) / (ed_noise_sigma_db * math.sqrt(2.0)))
    return 0.0


def _add_noise(codes: np.ndarray, open_ticks: np.ndarray, p: float, rng) -> None:
    """Add each window's Binomial(n, p) intf count to its code, n its open ticks."""
    if rng is None:
        raise ValueError("measurement noise needs a random generator")
    drawn = np.flatnonzero(open_ticks > 0)
    # one uniform u per such window: its count is the number of j with
    # u >= P(K <= j), K ~ Binomial(n, p), which is K's inverse CDF at u
    u = rng.random(len(drawn))
    cdf = _binomial_cdfs(CODE_BASE - 1, p)  # CODE_BASE - 1 ticks per window
    counts = open_ticks[drawn].astype(np.intp)
    detected = np.zeros(len(drawn), dtype=np.uint8)
    for j in range(CODE_BASE - 1):
        detected += u >= cdf[j].take(counts)
    codes[drawn] += detected * np.uint8(CODE_BASE**2)


def sample_mac_states(
    waveforms: Waveform | Sequence[Waveform],
    links: RadioLink | Sequence[RadioLink],
    traffic: TrafficTrace | None = None,
    ed_noise_sigma_db: float = 0.0,
    rng: np.random.Generator | None = None,
) -> MacStateSeries:
    """Simulate the NIC's per-window MAC states, one state code per window.

    Each (waveform, link) pair is one LTE source; a tick registers intf
    when any transmitting source's instantaneous receive power (mean plus
    optional fast measurement noise, normal with ed_noise_sigma_db) reaches
    that link's ED threshold.

    A source whose mean level lies 8 sigma or more from its threshold is
    detected on every transmit tick or on none.  Within that band the
    mean is constant, so each of its transmit ticks is detected on its own
    with p = Phi((level - threshold) / sigma).  Only ticks that no
    earlier rule (own tx, locked rx, unlocked rx) or other source already
    settles are left to the noise; with n of them in a window, the
    window's extra intf count is Binomial(n, p), drawn as the inverse
    CDF at one uniform.  So the noise is one rng.random double per window
    with n > 0, in window order, and a stream sampled in pieces draws
    exactly what it draws at once.  Detection is an OR over sources,
    which does not reduce to one count per window, so at most one source
    may lie in the noise band.

    Ticks are RESOLUTION_US long and each code covers one window of
    WINDOW_US: it packs the window's counts of rx, tx and intf ticks (see
    CODE_BASE), from which the series derives each fraction on first
    access.  Only whole windows are sampled: trailing ticks
    that do not fill one window are dropped, so the series covers
    ``n_ticks // (WINDOW_US // RESOLUTION_US)`` windows.
    """
    if isinstance(waveforms, Waveform):
        waveforms = [waveforms]
    if isinstance(links, RadioLink):
        links = [links]
    if len(waveforms) != len(links):
        raise ValueError("need exactly one RadioLink per waveform")
    n_ticks = max(w.n_ticks for w in waveforms)

    detect = np.zeros(n_ticks, dtype=bool)
    noisy: tuple[Waveform, float] | None = None  # the source in the noise band, its p
    for wave, link in zip(waveforms, links):
        p = _detection_probability(link, ed_noise_sigma_db)
        if p == 1.0:
            detect[:wave.n_ticks] |= wave.tx
        elif p > 0.0:
            if noisy is not None:
                raise ValueError("at most one source may lie within 8 sigma of its ED threshold")
            noisy = wave, p

    per_win = WINDOW_US // RESOLUTION_US
    cut = n_ticks // per_win * per_win

    # per tick: CODE_BASE**2 for intf, CODE_BASE for tx, 1 for rx, 0 for idle
    if traffic is None:
        code = detect[:cut].view(np.uint8) * np.uint8(CODE_BASE**2)
    else:
        if traffic.n_ticks != n_ticks:
            raise ValueError("traffic trace length must match the waveform")
        # own transmissions win over decoded receptions, which win over energy
        tx = traffic.tx[:cut]
        rx = ~tx & traffic.rx_locked[:cut]
        intf = ~tx & ~rx & (detect[:cut] | traffic.rx_unlocked[:cut])
        code = intf.view(np.uint8) * np.uint8(CODE_BASE**2)
        code += tx.view(np.uint8) * np.uint8(CODE_BASE)
        code += rx.view(np.uint8)
    codes = window_sums(code)
    if noisy is not None:
        wave, p = noisy
        # the source's transmit ticks whose state no rule above settled
        open_ticks = np.zeros(cut, dtype=np.uint8)
        m = min(cut, wave.n_ticks)
        np.greater(wave.tx[:m], code[:m], out=open_ticks[:m])
        _add_noise(codes, window_sums(open_ticks), p, rng)
    return MacStateSeries.from_codes(codes)


def sample_window_counts(counts: np.ndarray, link: RadioLink, ed_noise_sigma_db: float = 0.0,
                         rng: np.random.Generator | None = None) -> MacStateSeries:
    """sample_mac_states of one LTE source and no WiFi traffic, from its per-window
    transmit tick counts (uint8): all its ticks are open to the noise, so the
    codes and draws are those of sample_mac_states on any ticks with the counts."""
    p = _detection_probability(link, ed_noise_sigma_db)
    codes = counts * np.uint8(CODE_BASE**2 if p == 1.0 else 0)
    if 0.0 < p < 1.0:
        _add_noise(codes, counts, p, rng)
    return MacStateSeries.from_codes(codes)
