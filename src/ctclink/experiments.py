"""Link-level and system-level experiment drivers.

Ties the codec, the PHY simulation, and the receiver together into seeded,
reproducible sweeps: frame error rate versus receive power under several
WiFi traffic scenarios, the same sweep across energy-detection registers,
and multicell detection grids.  Every run is deterministic for a fixed seed
and emits plain CSV.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, replace

import numpy as np

from . import timing
from ._csv import write_csv
from .codec import N_CLUSTER_FIELDS, build_frame, get_scheme
from .demod import (
    DecodedFrame,
    Demodulator,
    ReceiverConfig,
    measure_fer_ser,
    require_one_symbol_per_on,
)
from .multicell import GridResult, build_hex_deployment, grid_evaluate
from .phy import (
    RESOLUTION_US,
    WINDOW_US,
    CsatConfig,
    TrafficTrace,
    Waveform,
    WifiFrames,
    poisson_frames,
    sample_mac_states,
    sample_window_counts,
    saturated_frames,
    tick_runs,
)
from .radio import RadioLink, map_ed_register

SCENARIOS = ("clear", "background-light", "background-high", "apdl-light", "apdl-high")

# Light traffic: 10 Mbit/s of 1500-byte frames, each 222 us on air at 54 Mbit/s.
LIGHT_RATE_FPS = 833.0
WIFI_FRAME_US = 222.0
# Backlogged senders aggregate: burst airtime varies up to the 802.11n
# A-MPDU limit instead of a single 222 us frame.
SATURATED_BURST_US = (1000.0, 5500.0)
# Probability that a saturated sender launches the burst that no longer fits
# the sensed idle run, overrunning into the LTE ON phase.
STRADDLE_PROB = 0.035
# Fast per-tick measurement noise of the energy detector.
DEFAULT_ED_NOISE_SIGMA_DB = 0.6
# Default sweeps: the register's threshold +- POWER_SPAN_DB in POWER_STEP_DB steps.
POWER_SPAN_DB = 4.0
POWER_STEP_DB = 0.5
# Duty cycles that run_stream lays, samples and decodes at a time: about one
# wide20 frame (86 cycles, 68,800 ticks at 40 ms)
CHUNK_CYCLES = 86
# z of the 95% Wilson interval around each FER estimate.
WILSON_Z = 1.96
# FER levels that define a curve's knee and drop (see knee_metrics).
KNEE_LOW_FER = 0.1
KNEE_HIGH_FER = 0.9

_NETWORK_ID_BITS = 32
_CLUSTER_ID_BITS = 16


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep: a traffic scenario, receive powers, and an ED register."""

    scenario: str = "clear"
    powers_dbm: tuple[float, ...] = ()
    theta: int = 28
    seed: int = 1
    repetitions: int = 4
    frames_per_rep: int = 50
    scheme: str = "wide20"
    cycle_ms: float = 40.0
    on_ms: float = 20.0

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; choose from {SCENARIOS}")
        if self.repetitions < 1:
            raise ValueError("need at least one repetition")
        if self.frames_per_rep < 1:
            raise ValueError("need at least one frame per repetition")
        powers = tuple(float(p) for p in self.powers_dbm) or default_power_sweep(self.theta)
        if list(powers) != sorted(powers):
            raise ValueError("power sweep must be sorted ascending")
        object.__setattr__(self, "powers_dbm", powers)
        require_one_symbol_per_on(get_scheme(self.scheme), self.csat)

    @property
    def csat(self) -> CsatConfig:
        if not float(self.cycle_ms).is_integer() or not float(self.on_ms).is_integer():
            raise ValueError("cycle and ON durations must be whole milliseconds")
        return CsatConfig(int(self.cycle_ms), int(self.on_ms))

    @property
    def frames_per_point(self) -> int:
        return self.repetitions * self.frames_per_rep


def default_power_sweep(theta: int) -> tuple[float, ...]:
    """Receive powers bracketing the register's threshold symmetrically."""
    center = map_ed_register(theta)
    n = int(round(POWER_SPAN_DB / POWER_STEP_DB))
    return tuple(center + POWER_STEP_DB * i for i in range(-n, n + 1))


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("need at least one trial")
    z = WILSON_Z
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    # the interval always contains the point estimate; min/max guard the
    # one-ulp rounding at the 0 and 1 endpoints
    return max(0.0, min(p, center - half)), min(1.0, max(p, center + half))


# ---------------------------------------------------------------------------
# Single-stream simulation.
# ---------------------------------------------------------------------------

def scenario_frames(
    scenario: str,
    n_ticks: int,
    lte_runs: tuple[np.ndarray, np.ndarray],
    busy_runs: tuple[np.ndarray, np.ndarray],
    rng: np.random.Generator,
) -> WifiFrames | None:
    """WiFi frames at the monitoring node for one named scenario.

    lte_runs are the LTE source's transmit runs, busy_runs the runs the
    WiFi sender defers to, both as (starts, ends) tick arrays.
    """
    if scenario == "clear":
        return None
    kind = "tx" if scenario.startswith("apdl") else "rx"
    if scenario.endswith("light"):
        starts, lengths = poisson_frames(n_ticks, busy_runs, LIGHT_RATE_FPS, WIFI_FRAME_US, rng)
    else:
        starts, lengths = saturated_frames(
            n_ticks, busy_runs, SATURATED_BURST_US, rng, straddle_prob=STRADDLE_PROB
        )
    return WifiFrames.launch(starts, lengths, kind, lte_runs, n_ticks)


def scenario_traffic(
    scenario: str,
    lte_energy: np.ndarray,
    busy_mask: np.ndarray,
    rng: np.random.Generator,
) -> TrafficTrace | None:
    """scenario_frames on the runs of the two masks, painted as one chunk."""
    n_ticks = len(lte_energy)
    frames = scenario_frames(scenario, n_ticks, tick_runs(lte_energy), tick_runs(busy_mask), rng)
    return None if frames is None else frames.paint(0, n_ticks)


def _random_payload(rng: np.random.Generator) -> tuple[int, tuple[int, ...]]:
    network_id = int(rng.integers(0, 1 << _NETWORK_ID_BITS))
    clusters = tuple(int(c) for c in rng.integers(0, 1 << _CLUSTER_ID_BITS, size=N_CLUSTER_FIELDS))
    return network_id, clusters


def align_to_schedule(
    frames: list[DecodedFrame],
    n_frames: int,
    lead_windows: int,
    config: ReceiverConfig,
) -> list[DecodedFrame | None]:
    """Match decoded frames to their transmit slots by sync position.

    The preamble peak of frame i lands at a known sample index; anything
    not matching a slot (late re-syncs, truncated tails) is discarded, and
    empty slots stay None so the metrics count them as lost.
    """
    period = config.preamble_len + config.frame_symbols * config.samples_per_cycle
    out: list[DecodedFrame | None] = [None] * n_frames
    tolerance = config.samples_per_cycle - 1
    for frame in frames:
        if not frame.complete:
            continue
        slot = round((frame.sync_t - lead_windows - config.preamble_len + 1) / period)
        if not 0 <= slot < n_frames:
            continue
        expected = lead_windows + config.preamble_len - 1 + slot * period
        if abs(frame.sync_t - expected) <= tolerance and out[slot] is None:
            out[slot] = frame
    return out


def run_stream(
    config: ReceiverConfig,
    link: RadioLink,
    scenario: str,
    n_frames: int,
    rng: np.random.Generator,
) -> tuple[int, int]:
    """(frame errors, symbol errors) of one stream of frames with fresh traffic.

    The stream first draws its payloads, its lead-in and the WiFi traffic
    of the whole stream, as frame starts and lengths on the LTE transmit
    runs.  It then samples and decodes itself in chunks of CHUNK_CYCLES
    duty cycles, the first with the lead-in, each drawing its own ED noise
    into one Demodulator.  Cycle c holds schedule c alone, so the cycles
    are rows of the config's cycle table, each frame the preamble's rows
    and then its data values.  A clear chunk is sampled from the rows'
    window counts (cycle_windows, sample_window_counts); a traffic chunk
    lays its ticks (cycle_tx) and WiFi frames for sample_mac_states.  The
    draws come in the same order as for the whole stream at once, and no
    per-tick array is longer than one chunk plus the lead-in.  Each step
    is a stage of timing.  ValueError unless there is at least one frame.
    """
    scheme, csat = config.scheme, config.csat
    if n_frames < 1:
        raise ValueError(f"a stream needs at least one frame, not {n_frames}")
    with timing.stage("frame_build"):
        tx_symbols = []
        rows = []
        for _ in range(n_frames):
            network_id, clusters = _random_payload(rng)
            stream = build_frame(network_id, clusters, scheme)
            tx_symbols.append(list(stream.data))
            rows += config.preamble_rows + stream.data
        rows = np.array(rows)
    lead_windows = int(rng.integers(0, 2 * config.samples_per_cycle))
    ticks_per_window = WINDOW_US // RESOLUTION_US
    lead = lead_windows * ticks_per_window
    cycle_ticks = config.samples_per_cycle * ticks_per_window
    firsts = range(0, len(rows), CHUNK_CYCLES)
    # chunk k covers ticks [edges[k], edges[k + 1])
    edges = [0] + [lead + c * cycle_ticks for c in firsts[1:]] + [lead + len(rows) * cycle_ticks]

    frames = None
    if scenario != "clear":
        with timing.stage("waveform"):
            # the transmit runs on the stream's tick axis, from each chunk's
            # windows, which transmit on all their ticks or none
            lte_starts, lte_ends = np.concatenate([
                np.stack(tick_runs(config.cycle_windows(rows[c:c + CHUNK_CYCLES])))
                * ticks_per_window + (lead + c * cycle_ticks)
                for c in firsts
            ], axis=1)
        sensed = link.mean_rx_dbm() >= link.ed_threshold_dbm
        busy_runs = (lte_starts, lte_ends) if sensed else (np.zeros(0, dtype=np.int64),) * 2
        with timing.stage("traffic"):
            frames = scenario_frames(scenario, edges[-1], (lte_starts, lte_ends), busy_runs, rng)

    demod = Demodulator(config)
    decoded = []
    for c, t0, t1 in zip(firsts, edges, edges[1:]):
        chunk = rows[c:c + CHUNK_CYCLES]
        if frames is None:
            with timing.stage("waveform"):
                counts = config.cycle_windows(chunk).view(np.uint8) * np.uint8(ticks_per_window)
                if c == 0:
                    counts = np.concatenate([np.zeros(lead_windows, dtype=np.uint8), counts])
            with timing.stage("sampler"):
                series = sample_window_counts(counts, link, DEFAULT_ED_NOISE_SIGMA_DB, rng)
        else:
            with timing.stage("waveform"):
                wave = Waveform(csat, config.cycle_tx(chunk))
                if c == 0:
                    wave = wave.with_lead_in(lead)
            with timing.stage("traffic"):
                traffic = frames.paint(t0, t1)
            with timing.stage("sampler"):
                series = sample_mac_states(wave, link, traffic, DEFAULT_ED_NOISE_SIGMA_DB, rng)
        with timing.stage("receiver"):
            decoded += demod.feed(series)
    with timing.stage("receiver"):
        decoded += demod.finish()
    with timing.stage("align"):
        aligned = align_to_schedule(decoded, n_frames, lead_windows, config)
    return measure_fer_ser(tx_symbols, aligned)


# ---------------------------------------------------------------------------
# Sweeps.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepPoint:
    scenario: str
    theta: int
    power_dbm: float
    fer: float
    ser: float
    fer_lo: float
    fer_hi: float
    n_frames: int


# one column per SweepPoint field, in field order: rows are dataclasses.astuple(point)
_POINT_COLUMNS = (
    ("scenario", ""), ("theta", ""), ("power_dbm", "g"), ("fer", ".6f"), ("ser", ".6f"),
    ("fer_lo", ".6f"), ("fer_hi", ".6f"), ("n_frames", ""),
)


@dataclass
class SweepResult:
    spec: ExperimentSpec
    points: list[SweepPoint]

    def fer_curve(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.array([p.power_dbm for p in self.points]),
            np.array([p.fer for p in self.points]),
        )

    def to_csv(self, path: str) -> None:
        write_csv(path, _POINT_COLUMNS, map(astuple, self.points))


def run_link_sweep(spec: ExperimentSpec) -> SweepResult:
    """FER/SER versus receive power, one point per power in sweep order."""
    return _link_sweep(spec, ReceiverConfig(get_scheme(spec.scheme), spec.csat))


def _link_sweep(spec: ExperimentSpec, config: ReceiverConfig) -> SweepResult:
    """run_link_sweep with the spec's ReceiverConfig already built."""
    n = spec.frames_per_point
    points = []
    for i, power in enumerate(spec.powers_dbm):
        link = RadioLink.at_rx_power(power, ed_register=spec.theta)
        frame_errors = symbol_errors = 0
        for rep in range(spec.repetitions):
            rng = np.random.default_rng([spec.seed, spec.theta, i, rep])
            fe, se = run_stream(config, link, spec.scenario, spec.frames_per_rep, rng)
            frame_errors += fe
            symbol_errors += se
        lo, hi = wilson_interval(frame_errors, n)
        points.append(SweepPoint(
            spec.scenario, spec.theta, power, frame_errors / n,
            symbol_errors / (n * config.frame_symbols), lo, hi, n,
        ))
    return SweepResult(spec, points)


@dataclass(frozen=True)
class KneeSummary:
    theta: int
    theta_dbm: float
    knee_dbm: float
    drop_dbm: float
    width_db: float


@dataclass
class EdSweepResult:
    sweeps: dict[int, SweepResult]
    knees: list[KneeSummary]

    def to_csv(self, path: str) -> None:
        points = (p for theta in sorted(self.sweeps) for p in self.sweeps[theta].points)
        write_csv(path, _POINT_COLUMNS, map(astuple, points))

    def knees_to_csv(self, path: str) -> None:
        write_csv(
            path,
            (("theta", ""), ("theta_dbm", "g"), ("knee_dbm", "g"), ("drop_dbm", "g"),
             ("width_db", "g")),
            map(astuple, self.knees),
        )


def knee_metrics(powers: np.ndarray, fers: np.ndarray) -> tuple[float, float, float]:
    """(knee, drop, width) of an FER-vs-power curve.

    knee: lowest power from which FER stays at or below KNEE_LOW_FER;
    drop: highest power below the knee where FER is still at or above
    KNEE_HIGH_FER.  NaNs when the curve never settles.
    """
    powers = np.asarray(powers, dtype=float)
    fers = np.asarray(fers, dtype=float)
    order = np.argsort(powers)
    powers, fers = powers[order], fers[order]
    knee = math.nan
    for i in range(len(powers)):
        if np.all(fers[i:] <= KNEE_LOW_FER):
            knee = float(powers[i])
            below = powers[:i][fers[:i] >= KNEE_HIGH_FER]
            drop = float(below[-1]) if len(below) else math.nan
            return knee, drop, (knee - drop if not math.isnan(drop) else math.nan)
    return math.nan, math.nan, math.nan


def run_ed_sweep(
    spec: ExperimentSpec,
    thetas: tuple[int, ...] = (3, 28),
) -> EdSweepResult:
    """Link sweep per ED register through one ReceiverConfig; powers re-centered on each."""
    if len(set(thetas)) != len(thetas):
        raise ValueError(f"ED registers {','.join(map(str, thetas))} repeat a register")
    config = ReceiverConfig(get_scheme(spec.scheme), spec.csat)
    sweeps: dict[int, SweepResult] = {}
    knees: list[KneeSummary] = []
    for theta in thetas:
        sub = replace(spec, theta=theta, powers_dbm=default_power_sweep(theta))
        result = _link_sweep(sub, config)
        sweeps[theta] = result
        powers, fers = result.fer_curve()
        knee, drop, width = knee_metrics(powers, fers)
        knees.append(KneeSummary(theta, map_ed_register(theta), knee, drop, width))
    return EdSweepResult(sweeps, knees)


# ---------------------------------------------------------------------------
# System-level runs.
# ---------------------------------------------------------------------------

@dataclass
class MulticellRun:
    station_count: int
    results: dict[float, GridResult]

    def histogram_rows(self) -> list[tuple[float, int, int]]:
        rows = []
        for sigma in sorted(self.results):
            for count, n_points in sorted(self.results[sigma].histogram().items()):
                rows.append((sigma, int(count), int(n_points)))
        return rows

    def summary_to_csv(self, path: str) -> None:
        write_csv(
            path,
            (("sigma_db", "g"), ("n_detected", ""), ("n_points", "")),
            self.histogram_rows(),
        )


def run_multicell(
    station_count: int = 100,
    sigmas_db: tuple[float, ...] = (0.0, 6.0),
    seed: int = 1,
    grid_step_m: float = 2.0,
    side_m: float = 140.0,
) -> MulticellRun:
    """Detected-BS-count grids with and without shadowing."""
    for sigma in sigmas_db:
        if not sigma >= 0:
            raise ValueError(f"shadowing sigma {sigma:g} dB must be non-negative")
    deployment = build_hex_deployment(station_count)
    results = {}
    for sigma in sigmas_db:
        rng = np.random.default_rng([seed, int(round(10 * sigma))])
        results[float(sigma)] = grid_evaluate(
            deployment,
            grid_step_m=grid_step_m,
            side_m=side_m,
            shadowing_sigma_db=sigma,
            rng=rng,
        )
    return MulticellRun(station_count, results)
