"""fer-sweep: the link-level evaluation through run_ed_sweep / run_link_sweep.

Part a is the ED sweep on a clear channel (both registers, the library's
default power grids); parts b and c are link sweeps under Poisson
("light") and saturated ("high") WiFi traffic.  Work units are LTE-U
frames simulated and decoded.
"""

from __future__ import annotations

import time

import numpy as np

from ctclink.codec import build_frame, get_scheme
from ctclink.demod import Demodulator, ReceiverConfig, clean_signal
from ctclink.experiments import (
    DEFAULT_ED_NOISE_SIGMA_DB,
    ExperimentSpec,
    align_to_schedule,
    default_power_sweep,
    run_ed_sweep,
    run_link_sweep,
    scenario_traffic,
)
from ctclink.phy import CsatConfig, generate_waveform, sample_mac_states
from ctclink.radio import RadioLink

import checks
from common import OpCount, Part, draw_payloads

SCHEME = "wide20"
THETA = 28
ABOVE_DBM, BELOW_DBM = -56.0, -66.0
ED_THETAS = (3, 28)  # run_ed_sweep's default registers
# (scenario, powers, repetitions, frames per repetition)
ED_SIZE = (1, 10)
LIGHT = (
    ("background-light", (BELOW_DBM, ABOVE_DBM), 2, 10),
    ("apdl-light", (BELOW_DBM, ABOVE_DBM), 2, 10),
)
# The apdl-high point carries the half-duplex check; 600 frames narrow its
# FER estimate to about +-0.016 (one standard deviation across seeds).
HIGH = (
    ("background-high", (BELOW_DBM, ABOVE_DBM), 2, 10),
    ("apdl-high", (ABOVE_DBM,), 24, 25),
)
PARTS = {"a": "clear_frames_per_s", "b": "light_traffic_frames_per_s",
         "c": "high_traffic_frames_per_s"}


class Workload:
    parts = PARTS

    def __init__(self, seed: int) -> None:
        self.seed = seed
        reps, frames = ED_SIZE
        self.ed_spec = ExperimentSpec(
            scenario="clear", seed=seed, repetitions=reps, frames_per_rep=frames
        )
        self.light = [self._spec(*s) for s in LIGHT]
        self.high = [self._spec(*s) for s in HIGH]
        self.ed_points = sum(len(default_power_sweep(t)) for t in ED_THETAS)

    def _spec(self, scenario, powers, reps, frames):
        return ExperimentSpec(scenario=scenario, powers_dbm=powers, theta=THETA,
                              seed=self.seed, repetitions=reps, frames_per_rep=frames)

    def close(self) -> None:
        pass

    # -- timed ------------------------------------------------------------

    def run_round(self, ops: OpCount):
        points = {}
        parts = {}
        t0 = time.perf_counter()
        ed = ops.run(run_ed_sweep, self.ed_spec, weight=self.ed_points)
        parts["a"] = Part(_frames(ed.sweeps.values()) if ed else 0, time.perf_counter() - t0)
        points["clear"] = _points(ed.sweeps.values()) if ed else None
        for key, specs in (("b", self.light), ("c", self.high)):
            t0 = time.perf_counter()
            results = [ops.run(run_link_sweep, s, weight=len(s.powers_dbm)) for s in specs]
            parts[key] = Part(_frames(r for r in results if r), time.perf_counter() - t0)
            for spec, r in zip(specs, results):
                points[spec.scenario] = _points([r]) if r else None
        return parts, points

    def check(self, warm, rounds) -> None:
        _, first = warm
        for _, points in rounds:
            checks.check_identical(first, points, "sweep results")
        clear = first["clear"]
        if clear is not None:
            curves = {}
            for _, theta, power, fer, _, _ in clear:
                curves.setdefault(theta, []).append((power, fer))
            checks.check_ed_knees(curves)
            checks.check_certain_points([(t, p, f) for _, t, p, f, _, _ in clear], clear=True)
        for scenario, pts in first.items():
            if scenario == "clear" or pts is None:
                continue
            checks.check_certain_points([(t, p, f) for _, t, p, f, _, _ in pts], clear=False)
            if scenario == "apdl-high":
                ((fer, n),) = [(f, n) for _, _, p, f, _, n in pts if p == ABOVE_DBM]
                checks.check_half_duplex(round(fer * n), n)

    # -- traced -----------------------------------------------------------

    def trace(self, tracer) -> dict[str, float]:
        """The same sweeps, single-threaded, through the stages' public calls."""
        streams = []
        for theta in ED_THETAS:
            for i, power in enumerate(default_power_sweep(theta)):
                streams += [("clear", theta, i, power)] * ED_SIZE[0]
        sizes = {}
        for spec in self.light + self.high:
            for i, power in enumerate(spec.powers_dbm):
                streams += [(spec.scenario, spec.theta, i, power)] * spec.repetitions
                sizes[spec.scenario] = spec.frames_per_rep
        counts = {"frames": 0, "ok": 0, "ticks": 0, "wifi": 0}
        with tracer.span("fer.pass"):
            for rep, (scenario, theta, i, power) in enumerate(streams):
                n = sizes.get(scenario, ED_SIZE[1])
                rng = np.random.default_rng([self.seed, theta, i, rep, 0xFE2])
                self._traced_stream(tracer, scenario, theta, power, n, rng, counts)
        n = counts["frames"]
        per_frame_ms = {
            "fer.frame_build_ms": "frame_build", "fer.waveform_ms": "waveform",
            "fer.traffic_ms": "traffic", "fer.sampler_ms": "sampler",
            "fer.rx_config_ms": "rx_config", "fer.clean_ms": "clean",
            "fer.correlation_ms": "correlation", "fer.align_ms": "align",
        }
        out = {k: 1e3 * tracer.total(f"fer.{v}") / n for k, v in per_frame_ms.items()}
        out["fer.scan_ms"] = 1e3 * (tracer.total("fer.receive") - tracer.total("fer.correlation")) / n
        out["fer.ticks"] = counts["ticks"] / n
        out["fer.wifi_frames"] = counts["wifi"] / n
        out["fer.frames_ok_ratio"] = counts["ok"] / n
        # the separate correlation call is extra work of this pass only
        wall = tracer.total("fer.stream") - tracer.total("fer.correlation")
        out["fer.unaccounted_ratio"] = tracer.self_time("fer.stream") / wall
        return out

    def _traced_stream(self, tracer, scenario, theta, power, n_frames, rng, counts) -> None:
        scheme = get_scheme(SCHEME)
        csat = CsatConfig(40, 20)
        link = RadioLink.at_rx_power(power, ed_register=theta)
        with tracer.span("fer.stream"):
            schedules = []
            with tracer.span("fer.frame_build"):
                for net, clusters in draw_payloads(rng, n_frames):
                    schedules.extend(build_frame(net, clusters, scheme).schedules())
            wave = tracer.call("fer.waveform", generate_waveform, csat, schedules)
            config = tracer.call("fer.rx_config", ReceiverConfig, scheme, csat)
            lead = int(rng.integers(0, 2 * config.samples_per_cycle))
            wave = tracer.call("fer.waveform", wave.with_lead_in, 5 * lead)
            sensed = link.mean_rx_dbm() >= link.ed_threshold_dbm
            busy = wave.tx if sensed else np.zeros(wave.n_ticks, dtype=bool)
            traffic = tracer.call("fer.traffic", scenario_traffic, scenario, wave.tx, busy, rng)
            series = tracer.call(
                "fer.sampler", sample_mac_states, wave, link, traffic,
                ed_noise_sigma_db=DEFAULT_ED_NOISE_SIGMA_DB, rng=rng,
            )
            cleaned = tracer.call("fer.clean", clean_signal, series)
            tracer.call("fer.correlation", config.preamble_correlation, cleaned)
            with tracer.span("fer.receive"):
                demod = Demodulator(config)
                frames = demod.feed(cleaned) + demod.finish()
            tracer.call("fer.align", align_to_schedule, frames, n_frames, lead, config)
        counts["frames"] += n_frames
        counts["ok"] += sum(1 for f in frames if f.complete and f.frame.all_ok)
        counts["ticks"] += wave.n_ticks
        if traffic is not None:
            active = traffic.tx | traffic.rx_locked | traffic.rx_unlocked
            counts["wifi"] += int(np.count_nonzero(np.diff(active.astype(np.int8)) == 1)) + int(active[0])


def _frames(sweeps) -> int:
    return sum(p.n_frames for s in sweeps for p in s.points)


def _points(sweeps):
    return [(p.scenario, p.theta, p.power_dbm, p.fer, p.ser, p.n_frames)
            for s in sweeps for p in s.points]
