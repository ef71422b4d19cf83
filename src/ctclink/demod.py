"""Receiver: signal cleaning, preamble synchronization, demodulation.

The receiver sees only the NIC's per-window MAC states.  Cleaning maps each
250 us window to a value around +-0.5: confident interference becomes +0.5,
confident silence -0.5, any window dominated by rx/tx/idle is forced to
-0.5, and ambiguous windows keep their (DC-shifted) interference fraction.
A window is one of 56 state codes, so the rules are applied once, to each
code's tick counts, and a series is cleaned by table lookup.
A cross-correlation against the known four-cycle preamble arms the symbol
clock; a later, higher correlation re-anchors it.  Every cycle after the
anchor, the trailing window is correlated against all one-cycle symbol
templates and the best match is appended until a frame is complete.

The receiver computes in exact integers.  With n = WINDOW_US //
RESOLUTION_US ticks per window, a cleaned sample is (2k - n) / (2n) for k
of the window's ticks, so the receiver rounds its input to that 1/(2n)
grid once and works on the integers 2n * sample.  Templates and the
preamble are +-1, so every correlation is an integer (4n times its value
in the cleaned domain), and the first maximum among the templates does
not depend on the order in which any sum is taken.

Templates and the preamble reference are the cleaned windows of a table
of cycles that lays each schedule once with the transmitter's own
generate_waveform, so the noiseless loopback is exact by construction; a
config refuses ON times with room for two symbols.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .codec import (
    CodingScheme,
    CtcFrame,
    encode_symbol,
    frame_symbol_count,
    parse_frame,
    preamble_schedules,
)
from .phy import (
    CODE_BASE,
    RESOLUTION_US,
    WINDOW_US,
    CsatConfig,
    MacStateSeries,
    generate_waveform,
    window_sums,
)

# cleaning thresholds: confident interference, confident silence, and the
# rx/tx/idle share that marks a window as WiFi-dominated
TAU1 = 0.8
TAU2 = 0.8
TAU3 = 0.5
# synchronization threshold as a share of the preamble's peak correlation
TAU_P_FACTOR = 0.75
# the receiver's integer grid: samples scaled by 2n (n ticks per window)
# lie in [-n, n], and their correlations with +-1 references by 4n
SAMPLE_SCALE = 2 * (WINDOW_US // RESOLUTION_US)
CORR_SCALE = 2 * SAMPLE_SCALE
# schedules per generate_waveform call when ReceiverConfig lays its cycle table
REFERENCE_BLOCK = 1024
# windows that Demodulator.feed cleans, correlates and scans at a time
FEED_BLOCK = 32768


def _clean_codes() -> np.ndarray:
    """The cleaned sample of the window behind every state code.

    Rules apply in order with strict comparisons of tick shares: intf above
    TAU1 saturates to 1, silence above TAU2 to 0, any of rx/tx/idle above
    TAU3 forces 0, then the DC offset of 0.5 is removed.  Codes whose counts
    exceed one window never occur; their entries are what the rules make.
    """
    n = CODE_BASE - 1
    codes = np.arange(CODE_BASE**3)
    rx, tx, intf = codes % CODE_BASE, codes // CODE_BASE % CODE_BASE, codes // CODE_BASE**2
    wifi = np.maximum.reduce([rx, tx, n - rx - tx - intf]) / n
    intf = intf / n
    s = np.where(intf > TAU1, 1.0, intf) - 0.5
    # a saturated window has 1 - s = 0, so the silence rule may test intf
    s[((1.0 - intf) > TAU2) | (wifi > TAU3)] = -0.5
    return s


# per state code: the cleaned sample, and the receiver's integer sample
CODE_CLEANED = _clean_codes()
CODE_SAMPLES = np.rint(SAMPLE_SCALE * CODE_CLEANED)


def clean_signal(series: MacStateSeries) -> np.ndarray:
    """Map MAC-state windows to the symmetric correlation domain (see _clean_codes)."""
    return CODE_CLEANED[series.codes]


def require_one_symbol_per_on(scheme: CodingScheme, csat: CsatConfig) -> None:
    """ValueError unless every ON phase holds exactly one of the scheme's symbols.

    generate_waveform places a symbol when its transmit span (the symbol
    less its trailing punctures) fits the rest of the ON phase, but the
    receiver decodes one symbol per duty cycle.  The shortest trailing run
    is the mandatory gap in tail style and none in moving style, so the
    longest span must fit one ON phase.  The longest trailing run is the
    mandatory gap plus, in tail style, every extra puncture, so the
    shortest span must not fit after a whole symbol.  Each built-in scheme
    has schedules that reach both bounds.
    """
    tail = scheme.style == "tail"
    longest_span_ms = scheme.symbol_ms - (scheme.mandatory_ms if tail else 0)
    shortest_span_ms = scheme.symbol_ms - scheme.mandatory_ms - (scheme.extra_punctures if tail else 0)
    if longest_span_ms > csat.on_ms:
        raise ValueError(
            f"ON time {csat.on_ms:g} ms is shorter than the {longest_span_ms} ms "
            f"transmit span of a {scheme.name} symbol"
        )
    if scheme.symbol_ms + shortest_span_ms <= csat.on_ms:
        raise ValueError(
            f"ON time {csat.on_ms:g} ms has room for two {scheme.name} symbols; "
            "the receiver decodes one symbol per ON phase"
        )


class ReceiverConfig:
    """Everything the demodulator needs for one (scheme, duty cycle) pair.

    Samples are WINDOW_US windows cleaned with TAU1-TAU3.  templates and
    preamble hold the signs (+-1) of the cleaned references.  max_corr is
    the preamble's peak correlation in the cleaned domain, and the
    synchronization threshold tau_p is TAU_P_FACTOR times it.  Each ON
    phase must hold one symbol, so a cycle's ticks are its schedule's: the
    config lays each schedule once, REFERENCE_BLOCK per generate_waveform
    call.  Punctures and safety gaps are whole windows; the ON time must
    be too, or the window that ends it cleans to a value between the
    signs.  So a window sends on all its ticks or none, and the table
    keeps one bit per window of each cycle as a row, the alphabet's values
    first, then the preamble's two (preamble_rows); cycle_windows lays any
    rows.  Every cycle CsatConfig allows is bytes of windows.  A reference
    is its row's window counts, cleaned as a clean link's intf.
    """

    def __init__(self, scheme: CodingScheme, csat: CsatConfig) -> None:
        if csat.on_ticks % (WINDOW_US // RESOLUTION_US):
            raise ValueError(
                f"ON time {csat.on_ms:g} ms is not a whole number of {WINDOW_US} us windows"
            )
        require_one_symbol_per_on(scheme, csat)
        self.scheme = scheme
        self.csat = csat
        W = self.samples_per_cycle = csat.cycle_ms * 1000 // WINDOW_US
        self.frame_symbols = frame_symbol_count(scheme)  # L
        preamble = preamble_schedules(scheme)
        schedules = [encode_symbol(v, scheme) for v in range(scheme.alphabet_size)] + [*preamble[:2]]
        self.preamble_rows = tuple(scheme.alphabet_size + preamble.index(s) for s in preamble)
        self._packed_on = np.empty((len(schedules), W // 8), dtype=np.uint8)
        references = np.empty((len(schedules), W))
        for i in range(0, len(schedules), REFERENCE_BLOCK):
            rows = slice(i, i + REFERENCE_BLOCK)
            tx = generate_waveform(csat, schedules[rows]).tx
            codes = window_sums(tx.view(np.uint8)) * np.uint8(CODE_BASE**2)
            self._packed_on[rows] = np.packbits(codes.reshape(-1, W) > 0, axis=1)
            np.multiply(CODE_CLEANED[codes].reshape(-1, W), 2.0, out=references[rows])
        self.templates = references[:scheme.alphabet_size]
        self.preamble = references[list(self.preamble_rows)].ravel()
        self.preamble_len = len(self.preamble)  # N = 4W
        # a perfect match of +-0.5 samples against the +-0.5 reference
        self.max_corr = float(self.preamble @ self.preamble) / 4
        self.tau_p = TAU_P_FACTOR * self.max_corr
        # r[t] = sum over e of d[e] * S[t - N + 1 + e], S the running sum of
        # the samples and d[e] = P[e - 1] - P[e] with P = 0 outside [0, N):
        # d is 2 * sign at each inner edge of the preamble's constant runs
        d = -np.diff(self.preamble, prepend=0.0, append=0.0)
        self._inner_edges = tuple(
            (int(e), np.add if d[e] > 0 else np.subtract)
            for e in np.flatnonzero(d[1:-1]) + 1
        )

    def cycle_windows(self, rows: Sequence[int]) -> np.ndarray:
        """Windows that transmit in consecutive cycles holding the schedules of
        the table's rows: generate_waveform's tx of those schedules sends on
        all ticks of these windows and on no other tick."""
        return np.unpackbits(self._packed_on.take(rows, axis=0).ravel()).view(bool)

    def preamble_correlation(self, x: np.ndarray) -> np.ndarray:
        """r[t] = dot(preamble, x[t - N + 1:t + 1]); -inf while that window is short.

        x holds integers (the receiver's samples times SAMPLE_SCALE).  The
        preamble is constant over runs, so r is one running sum of x plus
        one shifted add per run edge.  Every term is an integer far below
        2**53, so r is exact and does not depend on how a stream is chunked.
        """
        N = self.preamble_len
        out = np.full(len(x), -np.inf)
        m = len(x) - N + 1
        if m > 0:
            S = np.empty(len(x) + 1)
            S[0] = 0.0
            np.cumsum(x, out=S[1:])
            r = out[N - 1:]
            r[:] = 0.0
            for e, op in self._inner_edges:
                op(r, S[e:e + m], out=r)
            r *= 2.0
            # the outer edges weigh the first and last sample's sign once
            (np.add if self.preamble[-1] > 0 else np.subtract)(r, S[N:], out=r)
            (np.subtract if self.preamble[0] > 0 else np.add)(r, S[:m], out=r)
        return out


@dataclass
class DecodedFrame:
    """One receiver output: symbol decisions plus frame-level verdicts."""

    symbols: tuple[int, ...]
    sync_t: int  # sample index of the synchronization peak
    peak_corr: float
    complete: bool
    frame: CtcFrame | None  # None when the stream ended mid-frame


def _first_at_least(values: np.ndarray, pos: int, level: float, block: int) -> int:
    """Index of the first values[t] >= level with t >= pos, or -1.

    Searches blocks that start at ``block`` samples and double until a
    hit, so a search costs time in proportion to the distance it covers
    rather than to the rest of the array.
    """
    n = len(values)
    while pos < n:
        hits = np.nonzero(values[pos:pos + block] >= level)[0]
        if hits.size:
            return pos + int(hits[0])
        pos += block
        block *= 2
    return -1


def _receiver_scan(x, pre_corr, templates, W, L, tau_p, start, state):
    """Scan an integer sample stream for frames.

    The receiver is a per-sample state machine.  Unsynchronized, a
    preamble correlation at or above tau_p arms it.  Synchronized, any
    correlation at or above the running peak R re-anchors the frame, and
    every W samples after the anchor one symbol is decoded by correlating
    the trailing window against every template (first maximum wins).
    The scan jumps from event to event instead of visiting every sample;
    between events the state cannot change.  Once synchronized it searches
    the rest of the frame for a re-anchor, and if there is none it decodes
    all of the frame's symbols in this array with one matrix product.
    Integer operands make every correlation exact, so the first maximum is
    the same whichever order the product sums in.

    Args:
        x: integer-valued float64 samples.
        pre_corr: preamble correlation, pre_corr[t] covering the window
            ending at t; -inf where that window is not yet full.
        templates: (alphabet, W) matrix of one-cycle references.
        W: samples per duty cycle (one symbol decoded per cycle).
        L: data symbols per frame.
        tau_p: synchronization threshold.
        start: first sample to examine; earlier samples are carry-over
            context for windows reaching back across a chunk boundary.
        state: (s, R, t0, l, anchor, partial) from the previous call, or
            None.  s is 1 while synchronized, t0 the last anchor or decode
            instant, l the symbols decoded so far and partial their values.

    Returns:
        (frames, state); frames holds (anchor, R, symbols) of each frame
        completed here, with indices local to this array.
    """
    T = len(x)
    s, R, t0, l, anchor, partial = state or (0, 0.0, 0, 0, 0, ())
    partial = list(partial)
    frames = []
    pos = start
    while pos < T:
        if s == 0:
            t = _first_at_least(pre_corr, pos, tau_p, W)
            if t < 0:
                break
            s, R, t0, l, anchor, partial = 1, float(pre_corr[t]), t, 0, t, []
            pos = t + 1
            continue
        # the frame's last decode instant, or the array's last sample
        last = min(t0 + (L - l) * W, T - 1)
        hits = np.flatnonzero(pre_corr[pos:last + 1] >= R)
        if hits.size:
            # a stronger preamble match restarts the frame
            t = pos + int(hits[0])
            R, t0, l, anchor, partial = float(pre_corr[t]), t, 0, t, []
            pos = t + 1
            continue
        m = (last - t0) // W  # decode instants t0 + W, ..., t0 + m * W
        windows = x[t0 + 1:t0 + 1 + m * W].reshape(m, W)
        partial += (windows @ templates.T).argmax(axis=1).tolist()
        l += m
        t0 += m * W
        if l < L:
            break  # the next decode instant lies beyond this array
        frames.append((anchor, R, partial))
        s, l, partial = 0, 0, []
        pos = t0 + 1
    return frames, (s, R, t0, l, anchor, tuple(partial))


def _integer_samples(chunk: MacStateSeries | np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The receiver's integer samples of windows [lo, hi) of a chunk."""
    if isinstance(chunk, MacStateSeries):
        return CODE_SAMPLES.take(chunk.codes[lo:hi])
    return np.rint(SAMPLE_SCALE * chunk[lo:hi])


class Demodulator:
    """Streaming receiver; feed MAC-state chunks, collect decoded frames.

    Chunks are processed with a carry-over of one preamble length so
    correlation windows and symbol windows may span chunk boundaries.
    A symbol is decoded at the last sample of its cycle, so a frame is
    complete only once the stream holds the full window that ends its
    last cycle; a stream ending before that yields the frame truncated.
    """

    def __init__(self, config: ReceiverConfig) -> None:
        self.config = config
        self._carry = np.empty(0, dtype=np.float64)
        self._state: tuple | None = None
        self._global0 = 0  # stream index of carry[0]

    def feed(self, chunk: MacStateSeries | np.ndarray) -> list[DecodedFrame]:
        """Decode a chunk of MAC states or of cleaned samples.

        A series becomes the receiver's integer samples by lookup in
        CODE_SAMPLES.  Cleaned samples are rounded to the nearest multiple
        of 1/SAMPLE_SCALE, which leaves every cleaned series as it is.
        All later arithmetic is on those integers and exact.  A long
        chunk is decoded in blocks of FEED_BLOCK windows, each on its own,
        so no array is longer than a block plus the carry; the output does
        not depend on how a stream is chunked.
        """
        if isinstance(chunk, MacStateSeries):
            n = chunk.n_samples
        else:
            chunk = np.asarray(chunk, dtype=np.float64)
            n = len(chunk)
        frames = []
        for lo in range(0, n, FEED_BLOCK):
            frames += self._feed_samples(_integer_samples(chunk, lo, lo + FEED_BLOCK))
        return frames

    def _feed_samples(self, samples: np.ndarray) -> list[DecodedFrame]:
        """Decode the next integer samples of the stream."""
        cfg = self.config
        buf = np.concatenate([self._carry, samples])
        pre = cfg.preamble_correlation(buf)
        raw, state = _receiver_scan(
            buf, pre, cfg.templates, cfg.samples_per_cycle, cfg.frame_symbols,
            CORR_SCALE * cfg.tau_p, len(self._carry), self._state,
        )
        frames = [self._assemble(anchor + self._global0, peak, symbols, True)
                  for anchor, peak, symbols in raw]
        keep = min(len(buf), cfg.preamble_len)
        s, peak, t0, l, anchor, partial = state
        self._state = (s, peak, t0 - len(buf) + keep, l, anchor - len(buf) + keep, partial)
        self._global0 += len(buf) - keep
        self._carry = buf[len(buf) - keep:]
        return frames

    def finish(self) -> list[DecodedFrame]:
        """Flush: a partially decoded frame is returned as truncated."""
        out = []
        if self._state is not None:
            s, peak, _t0, l, anchor, partial = self._state
            if s == 1 and l > 0:
                out.append(self._assemble(anchor + self._global0, peak, partial, False))
        self._state = None
        self._carry = np.empty(0, dtype=np.float64)
        return out

    def _assemble(self, sync_t: int, peak: float, symbols, complete: bool) -> DecodedFrame:
        values = tuple(int(v) for v in symbols)
        frame = parse_frame(values, self.config.scheme) if complete else None
        return DecodedFrame(values, int(sync_t), peak / CORR_SCALE, complete, frame)


def demodulate(series: MacStateSeries | np.ndarray, config: ReceiverConfig) -> list[DecodedFrame]:
    """One-shot demodulation of a full sample stream."""
    demod = Demodulator(config)
    frames = demod.feed(series)
    frames.extend(demod.finish())
    return frames


def measure_fer_ser(
    tx_symbols: Sequence[Sequence[int]],
    rx_frames: Sequence[DecodedFrame | None],
) -> tuple[int, int]:
    """Frame and symbol error counts against an aligned transmit log.

    A frame is in error when it was never decoded or any field CRC failed.
    A missing frame counts all its symbols as wrong.
    """
    if len(tx_symbols) != len(rx_frames):
        raise ValueError("transmit log and receive list must align 1:1")
    frame_errors = 0
    symbol_errors = 0
    for tx, rx in zip(tx_symbols, rx_frames):
        if rx is None or not rx.complete or rx.frame is None or not rx.frame.all_ok:
            frame_errors += 1
        if rx is None or not rx.complete:
            symbol_errors += len(tx)
            continue
        symbol_errors += sum(1 for a, b in zip(tx, rx.symbols) if a != b)
        symbol_errors += abs(len(tx) - len(rx.symbols))
    return frame_errors, symbol_errors
