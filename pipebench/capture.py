"""capture-decode: one long seeded MAC-state capture, decoded every round.

The capture is made at set-up from four segments: clean (-56 dBm), at the
knee (-61 dBm), under saturated own WiFi traffic (-56 dBm) and below the
ED threshold (-66 dBm).  Part a streams it in 1 s chunks (4,000 windows),
part b decodes it in one ``demodulate`` call, and part c decodes each
segment with one ``Demodulator.feed`` + ``finish``, as
``experiments.run_stream`` decodes each stream of a sweep.  Work units are
MAC-state windows decoded.
"""

from __future__ import annotations

import time

import numpy as np

from ctclink.codec import build_frame, get_scheme, parse_frame
from ctclink.demod import Demodulator, ReceiverConfig, clean_signal, demodulate
from ctclink.experiments import scenario_traffic
from ctclink.phy import CsatConfig, MacStateSeries, generate_waveform, sample_mac_states
from ctclink.radio import RadioLink

import checks
from common import OpCount, Part, draw_payloads

SCHEME = "wide20"
THETA = 28
ED_NOISE_SIGMA_DB = 0.6
FRAMES_PER_SEGMENT = 8
# (name, receive power, traffic scenario); the clean segment comes first so
# no earlier loss can disturb its frames.
SEGMENTS = (
    ("clean", -56.0, "clear"),
    ("knee", -61.0, "clear"),
    ("traffic", -56.0, "apdl-high"),
    ("below", -66.0, "clear"),
)
CHUNK_WINDOWS = 4000  # 1 s of 250 us windows
PARTS = {"a": "stream_windows_per_s", "b": "offline_windows_per_s",
         "c": "segment_windows_per_s"}


class Workload:
    parts = PARTS

    def __init__(self, seed: int) -> None:
        self.scheme = get_scheme(SCHEME)
        self.config = ReceiverConfig(self.scheme, CsatConfig(40, 20))
        rng = np.random.default_rng([seed, 0xCA7])
        self.segments, self.tx_log, self.spans = [], [], {}
        offset = 0
        for name, power, scenario in SEGMENTS:
            series, log = self._segment(name, power, scenario, rng, offset)
            self.segments.append((offset, series))
            self.tx_log += log
            self.spans[name] = (offset, offset + series.n_samples)
            offset += series.n_samples
        pieces = [series for _, series in self.segments]
        self.series = MacStateSeries(
            pieces[0].window_us,
            *(np.concatenate([getattr(p, f) for p in pieces]) for f in ("idle", "rx", "tx", "intf")),
        )
        self.n_windows = self.series.n_samples
        self.chunks = self._chunks(CHUNK_WINDOWS)

    def _segment(self, name, power, scenario, rng, offset):
        """MAC states of one segment and its transmit log (expected syncs)."""
        cfg = self.config
        payloads = list(draw_payloads(rng, FRAMES_PER_SEGMENT))
        schedules = [s for net, clusters in payloads
                     for s in build_frame(net, clusters, self.scheme).schedules()]
        lead = int(rng.integers(1, 2 * cfg.samples_per_cycle))
        # lead-in in whole 5-tick windows: the sampler keeps whole windows only
        wave = generate_waveform(cfg.csat, schedules).with_lead_in(5 * lead)
        link = RadioLink.at_rx_power(power, ed_register=THETA)
        sensed = link.mean_rx_dbm() >= link.ed_threshold_dbm
        busy = wave.tx if sensed else np.zeros(wave.n_ticks, dtype=bool)
        traffic = scenario_traffic(scenario, wave.tx, busy, rng)
        series = sample_mac_states(wave, link, traffic, ed_noise_sigma_db=ED_NOISE_SIGMA_DB, rng=rng)
        period = cfg.preamble_len + cfg.frame_symbols * cfg.samples_per_cycle
        first = offset + lead + cfg.preamble_len - 1
        log = [(name, first + i * period, net, clusters) for i, (net, clusters) in enumerate(payloads)]
        return series, log

    def _chunks(self, size: int):
        s = self.series
        return [
            MacStateSeries(s.window_us, s.idle[i:i + size], s.rx[i:i + size],
                           s.tx[i:i + size], s.intf[i:i + size])
            for i in range(0, self.n_windows, size)
        ]

    def close(self) -> None:
        pass

    # -- timed ------------------------------------------------------------

    def _stream(self, chunks):
        demod = Demodulator(self.config)
        frames = []
        for chunk in chunks:
            frames.extend(demod.feed(chunk))
        frames.extend(demod.finish())
        return frames

    def _per_segment(self):
        """One fresh receiver per segment, fed the whole segment at once.

        Returns (segment offset, frame) pairs; adding the offset to a
        frame's sync index gives its index in the whole capture.
        """
        frames = []
        for offset, series in self.segments:
            demod = Demodulator(self.config)
            found = demod.feed(series) + demod.finish()
            frames.extend((offset, f) for f in found)
        return frames

    def run_round(self, ops: OpCount):
        parts, outputs = {}, {}
        for key, fn, args in (
            ("a", self._stream, (self.chunks,)),
            ("b", demodulate, (self.series, self.config)),
            ("c", self._per_segment, ()),
        ):
            t0 = time.perf_counter()
            frames = ops.run(fn, *args)
            parts[key] = Part(self.n_windows if frames is not None else 0, time.perf_counter() - t0)
            if frames is not None and key == "c":
                frames = [_summary(f, offset) for offset, f in frames]
            elif frames is not None:
                frames = [_summary(f) for f in frames]
            outputs[key] = frames
        return parts, outputs

    def check(self, warm, rounds) -> None:
        _, first = warm
        for _, outputs in rounds:
            checks.check_identical(first, outputs, "decoded frames")
        if first["a"] is not None and first["b"] is not None:
            checks.check_same_frames(first["a"], first["b"], "streamed vs offline decoding")
        # Per-segment decoding may differ from the others at segment
        # boundaries (a sync whose preamble ends one segment), so it is held
        # to the transmit log on its own.
        tolerance = self.config.samples_per_cycle - 1
        for frames in (first["a"] or first["b"], first["c"]):
            if frames is None:
                continue
            checks.check_payloads(frames, self.tx_log, tolerance)
            checks.check_recovered(frames, self.tx_log, "clean", tolerance)
            checks.check_silent(frames, self.spans["below"])

    # -- traced -----------------------------------------------------------

    def trace(self, tracer) -> dict[str, float]:
        """Per-chunk cleaning, correlation and scan, timed by separate calls."""
        cfg = self.config
        n = self.n_windows
        with tracer.span("cap.pass"):
            with tracer.span("cap.stream"):
                self._traced_stream(tracer, "cap.stream", self.chunks)
            with tracer.span("cap.segment"):
                for _, series in self.segments:
                    self._traced_stream(tracer, "cap.segment", [series])
            with tracer.span("cap.offline"):
                cleaned = tracer.call("cap.offline.clean", clean_signal, self.series)
                tracer.call("cap.offline.correlation", cfg.preamble_correlation, cleaned)
                frames = tracer.call("cap.offline.decode", demodulate, cleaned, cfg)
            complete = [f for f in frames if f.complete]
            with tracer.span("cap.parse"):
                for f in complete:
                    parse_frame(f.symbols, self.scheme)
        parse = tracer.total("cap.parse")  # one decode's worth of frame parsing
        out = {
            "cap.clean_ns": 1e9 * (tracer.total("cap.stream.clean")
                                   + tracer.total("cap.offline.clean")) / (2 * n),
            "cap.correlation_ns": 1e9 * (tracer.total("cap.stream.correlation")
                                         + tracer.total("cap.offline.correlation")) / (2 * n),
            "cap.stream_scan_ns": 1e9 * (tracer.total("cap.stream.feed")
                                         - tracer.total("cap.stream.correlation") - parse) / n,
            "cap.offline_scan_ns": 1e9 * (tracer.total("cap.offline.decode")
                                          - tracer.total("cap.offline.correlation") - parse) / n,
            "cap.segment_scan_ns": 1e9 * (tracer.total("cap.segment.feed")
                                          - tracer.total("cap.segment.correlation") - parse) / n,
            "cap.parse_us": 1e6 * parse / max(1, len(complete)),
            "cap.correlated_windows": (CHUNK_WINDOWS + cfg.preamble_len) / CHUNK_WINDOWS,
            "cap.frames_ok_ratio": sum(1 for f in complete if f.frame.all_ok) / len(self.tx_log),
        }
        # loop time outside the program's calls, against the decodes' wall
        # time less the separate correlations, which only this pass makes
        decodes = ("cap.stream", "cap.segment", "cap.offline")
        wall = sum(tracer.total(d) for d in decodes) - sum(
            tracer.total(e) for e in ("cap.stream.extra", "cap.segment.extra", "cap.offline.correlation"))
        out["cap.unaccounted_ratio"] = sum(tracer.self_time(d) for d in decodes) / wall
        return out

    def _traced_stream(self, tracer, prefix, chunks):
        """Feed cleaned chunks; correlate the same carry + chunk separately.

        The receiver keeps one preamble length of samples across chunks, so
        the separate correlation runs on that carry plus the new chunk.
        """
        cfg = self.config
        demod = Demodulator(cfg)
        carry = np.empty(0)
        frames = []
        for chunk in chunks:
            cleaned = tracer.call(f"{prefix}.clean", clean_signal, chunk)
            with tracer.span(f"{prefix}.extra"):
                buf = np.concatenate([carry, cleaned])
                tracer.call(f"{prefix}.correlation", cfg.preamble_correlation, buf)
                carry = buf[len(buf) - min(len(buf), cfg.preamble_len):]
            frames += tracer.call(f"{prefix}.feed", demod.feed, cleaned)
        frames += tracer.call(f"{prefix}.feed", demod.finish)
        return frames


def _summary(frame, offset=0):
    """(sync_t, symbols, all CRCs ok, network ID, cluster IDs) of a frame."""
    sync_t = offset + frame.sync_t
    if frame.frame is None:
        return (sync_t, frame.symbols, False, None, ())
    f = frame.frame
    return (sync_t, frame.symbols, f.all_ok, f.network_id, f.cluster_ids)
