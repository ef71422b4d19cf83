"""Tests for the experiment drivers: spec validation, statistics helpers,
sweep determinism, knee extraction, and scenario behavior."""

import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctclink import demod, experiments, multicell, phy
from ctclink.experiments import (
    DEFAULT_ED_NOISE_SIGMA_DB,
    SCENARIOS,
    EdSweepResult,
    ExperimentSpec,
    KneeSummary,
    align_to_schedule,
    default_power_sweep,
    knee_metrics,
    run_ed_sweep,
    run_link_sweep,
    run_multicell,
    run_stream,
    scenario_traffic,
    SweepPoint,
    SweepResult,
    wilson_interval,
)
from ctclink.analytics import rate_airtime_table
from ctclink.codec import default_schemes, encode_symbol, get_scheme, preamble_schedules
from ctclink.demod import Demodulator, ReceiverConfig, demodulate, measure_fer_ser
from ctclink.phy import (
    RESOLUTION_US,
    WINDOW_US,
    CsatConfig,
    MacStateSeries,
    generate_waveform,
    sample_mac_states,
)
from ctclink.codec import build_frame
from ctclink.multicell import build_hex_deployment, full_stack_check
from ctclink.radio import RadioLink, map_ed_register


class TestExperimentSpec:
    def test_defaults_are_valid(self):
        spec = ExperimentSpec()
        assert spec.scenario == "clear"
        assert spec.powers_dbm == default_power_sweep(28)
        assert spec.frames_per_point == spec.repetitions * spec.frames_per_rep

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="scenario"):
            ExperimentSpec(scenario="office-party")

    def test_at_least_one_repetition(self):
        with pytest.raises(ValueError):
            ExperimentSpec(repetitions=0)
        with pytest.raises(ValueError):
            ExperimentSpec(frames_per_rep=0)

    def test_sweep_must_be_sorted(self):
        with pytest.raises(ValueError, match="sorted"):
            ExperimentSpec(powers_dbm=(-60.0, -66.0))

    def test_fractional_milliseconds_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(cycle_ms=40.5).csat

    def test_on_phase_with_room_for_two_symbols_rejected(self):
        # 40 ms of ON time holds a 20 ms symbol and the 18 ms span of the next
        with pytest.raises(ValueError, match="one symbol per ON phase"):
            ExperimentSpec(cycle_ms=80, on_ms=40)

    def test_on_phase_shorter_than_one_symbol_rejected(self):
        # wide20 data symbols end without a puncture: a 20 ms transmit span
        with pytest.raises(ValueError, match="shorter than the 20 ms transmit span"):
            ExperimentSpec(cycle_ms=80, on_ms=19)

    @pytest.mark.parametrize("cycle_ms, on_ms, scheme", [(40, 20, "wide20"), (80, 19, "short12")])
    def test_one_symbol_per_on_phase_accepted(self, cycle_ms, on_ms, scheme):
        spec = ExperimentSpec(cycle_ms=cycle_ms, on_ms=on_ms, scheme=scheme)
        assert spec.csat == CsatConfig(cycle_ms, on_ms)

    @pytest.mark.parametrize("name", sorted(default_schemes()))
    def test_span_bounds_reached_by_schedules(self, name):
        # the bounds require_one_symbol_per_on assumes, against every
        # schedule the scheme transmits: all data symbols and the preamble
        scheme = default_schemes()[name]
        schedules = [encode_symbol(v, scheme) for v in range(scheme.alphabet_size)]
        spans = set()
        for sched in schedules + list(preamble_schedules(scheme)):
            end = scheme.symbol_ms
            while end - 1 in sched.positions:
                end -= 1
            spans.add(end)
        tail = scheme.style == "tail"
        assert max(spans) == scheme.symbol_ms - (scheme.mandatory_ms if tail else 0)
        assert min(spans) == (scheme.symbol_ms - scheme.mandatory_ms
                              - (scheme.extra_punctures if tail else 0))

    def test_default_sweep_centers_on_register(self):
        # the register's threshold +- 4 dB in 0.5 dB steps
        powers = default_power_sweep(28)
        assert map_ed_register(28) == -62.0
        assert powers == tuple(-66.0 + 0.5 * i for i in range(17))
        assert powers[8] == -62.0


class TestWilsonInterval:
    def test_known_values(self):
        # k=5, n=10, z=1.96: center (0.5 + z^2/20)/(1 + z^2/10) = 0.5 and
        # half-width (z/(1 + z^2/10)) * sqrt(0.025 + z^2/400) = 0.26341041
        lo, hi = wilson_interval(5, 10)
        assert lo == pytest.approx(0.23658959, abs=1e-8)
        assert hi == pytest.approx(0.76341041, abs=1e-8)

    def test_zero_and_full(self):
        lo, hi = wilson_interval(0, 20)
        assert lo == 0.0
        assert 0.0 < hi < 0.2
        lo, hi = wilson_interval(20, 20)
        assert 0.8 < lo < 1.0
        assert hi == 1.0

    def test_contains_point_estimate(self):
        for k, n in ((1, 7), (3, 11), (10, 13)):
            lo, hi = wilson_interval(k, n)
            assert lo <= k / n <= hi

    def test_shrinks_with_samples(self):
        lo1, hi1 = wilson_interval(5, 10)
        lo2, hi2 = wilson_interval(50, 100)
        assert hi2 - lo2 < hi1 - lo1

    def test_no_trials_rejected(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)


class TestKneeMetrics:
    def test_clean_step(self):
        powers = np.arange(-66.0, -58.0, 1.0)
        fers = np.where(powers < -62.0, 1.0, 0.0)
        knee, drop, width = knee_metrics(powers, fers)
        assert knee == -62.0
        assert drop == -63.0
        assert width == 1.0

    def test_intermediate_points_widen_the_window(self):
        powers = np.array([-66.0, -64.0, -62.0, -60.0, -58.0])
        fers = np.array([1.0, 0.95, 0.5, 0.05, 0.0])
        knee, drop, width = knee_metrics(powers, fers)
        assert knee == -60.0
        assert drop == -64.0
        assert width == 4.0

    def test_never_settling_curve_is_nan(self):
        powers = np.array([-66.0, -64.0, -62.0])
        fers = np.array([1.0, 0.5, 0.4])
        knee, drop, width = knee_metrics(powers, fers)
        assert math.isnan(knee) and math.isnan(drop) and math.isnan(width)

    def test_unsorted_input_is_sorted_first(self):
        powers = np.array([-58.0, -66.0, -62.0])
        fers = np.array([0.0, 1.0, 0.0])
        knee, _, _ = knee_metrics(powers, fers)
        assert knee == -62.0

    def test_relock_after_dip_moves_knee_right(self):
        powers = np.array([-66.0, -64.0, -62.0, -60.0])
        fers = np.array([1.0, 0.05, 0.9, 0.0])
        knee, drop, width = knee_metrics(powers, fers)
        assert knee == -60.0
        assert drop == -62.0


class TestScenarioTraffic:
    def make_mask(self):
        scheme = get_scheme("wide20")
        stream = build_frame(0xABCD0001, (1, 2, 3, 4, 5, 6), scheme)
        wave = generate_waveform(CsatConfig(40, 20), stream.schedules())
        return wave.tx

    def test_clear_channel_has_no_traffic(self):
        mask = self.make_mask()
        assert scenario_traffic("clear", mask, mask, np.random.default_rng(0)) is None

    def test_apdl_scenarios_transmit(self):
        mask = self.make_mask()
        for scen in ("apdl-light", "apdl-high"):
            trace = scenario_traffic(scen, mask, mask, np.random.default_rng(1))
            assert trace.tx.any()
            assert not trace.rx_locked.any()

    def test_background_scenarios_receive(self):
        mask = self.make_mask()
        for scen in ("background-light", "background-high"):
            trace = scenario_traffic(scen, mask, mask, np.random.default_rng(2))
            assert trace.rx_locked.any()
            assert not trace.tx.any()

    def test_saturated_fills_more_airtime_than_light(self):
        mask = self.make_mask()
        light = scenario_traffic("apdl-light", mask, mask, np.random.default_rng(3))
        high = scenario_traffic("apdl-high", mask, mask, np.random.default_rng(3))
        assert high.tx.sum() > light.tx.sum()


class TestAlignment:
    def test_clean_stream_fills_all_slots(self):
        scheme = get_scheme("wide20")
        csat = CsatConfig(40, 20)
        stream = build_frame(0x0A0B0C0D, (9, 8, 7, 6, 5, 4), scheme)
        schedules = stream.schedules() * 3
        wave = generate_waveform(csat, schedules).with_lead_in(5 * 40)
        series = sample_mac_states(wave, RadioLink(distance_m=5.0))
        config = ReceiverConfig(scheme, csat)
        frames = demodulate(series, config)
        aligned = align_to_schedule(frames, 3, 40, config)
        assert all(f is not None for f in aligned)
        assert [f.symbols for f in aligned] == [tuple(stream.data)] * 3

    def test_unmatched_slots_stay_none(self):
        config = ReceiverConfig(get_scheme("wide20"), CsatConfig(40, 20))
        aligned = align_to_schedule([], 4, 0, config)
        assert aligned == [None] * 4


class TestRunStream:
    def test_clear_channel_is_error_free(self):
        rng = np.random.default_rng(5)
        counts = run_stream(
            ReceiverConfig(get_scheme("wide20"), CsatConfig(40, 20)),
            RadioLink.at_rx_power(-56.0, ed_register=28),
            "clear", 4, rng,
        )
        assert counts == (0, 0)

    def test_below_threshold_loses_everything(self):
        rng = np.random.default_rng(6)
        config = ReceiverConfig(get_scheme("wide20"), CsatConfig(40, 20))
        counts = run_stream(
            config, RadioLink.at_rx_power(-70.0, ed_register=28), "clear", 4, rng,
        )
        assert counts == (4, 4 * config.frame_symbols)

    def test_two_symbols_per_on_phase_rejected(self):
        with pytest.raises(ValueError, match="one symbol per ON phase"):
            run_stream(
                ReceiverConfig(get_scheme("wide20"), CsatConfig(80, 40)),
                RadioLink.at_rx_power(-56.0, ed_register=28),
                "clear", 2, np.random.default_rng(5),
            )

    @pytest.mark.parametrize("cycle_ms, on_ms, scheme", [(40, 20, "wide20"), (80, 19, "short12")])
    def test_one_symbol_per_on_phase_decodes(self, cycle_ms, on_ms, scheme):
        counts = run_stream(
            ReceiverConfig(get_scheme(scheme), CsatConfig(cycle_ms, on_ms)),
            RadioLink.at_rx_power(-56.0, ed_register=28),
            "clear", 2, np.random.default_rng(5),
        )
        assert counts == (0, 0)

    def test_makes_no_fraction_arrays(self, monkeypatch):
        # the sampler's state codes reach the receiver, which cleans them by lookup
        seen = []
        feed = Demodulator.feed

        def spy(self, series):
            seen.append(series)
            return feed(self, series)

        def refuse(self):
            raise AssertionError("a MAC-state fraction array was made")

        config = ReceiverConfig(get_scheme("wide20"), CsatConfig(40, 20))
        monkeypatch.setattr(Demodulator, "feed", spy)
        for name in ("idle", "rx", "tx", "intf"):
            monkeypatch.setattr(MacStateSeries, name, property(refuse))
        for scenario in ("clear", "background-high", "apdl-light"):
            run_stream(config, RadioLink.at_rx_power(-61.5, ed_register=28), scenario, 2,
                       np.random.default_rng(5))
        # two 86-cycle frames are two chunks per stream
        assert len(seen) == 6 and all(series.codes.dtype == np.uint8 for series in seen)


# ---------------------------------------------------------------------------
# run_stream as it was before it worked in chunks: every per-tick array of
# the stream is built before the receiver reads any of them.  The chunked
# stream must match it in its codes, its decoded frames and its draws.
# ---------------------------------------------------------------------------

def whole_stream(config, link, scenario, n_frames, rng):
    """(codes, decoded frames, counts) of one stream laid and sampled at once."""
    tx_symbols, schedules = [], []
    for _ in range(n_frames):
        network_id, clusters = experiments._random_payload(rng)
        stream = build_frame(network_id, clusters, config.scheme)
        tx_symbols.append(list(stream.data))
        schedules.extend(stream.schedules())
    wave = generate_waveform(config.csat, schedules)
    lead_windows = int(rng.integers(0, 2 * config.samples_per_cycle))
    wave = wave.with_lead_in(lead_windows * (WINDOW_US // RESOLUTION_US))
    sensed = link.mean_rx_dbm() >= link.ed_threshold_dbm
    busy = wave.tx if sensed else np.zeros(wave.n_ticks, dtype=bool)
    traffic = scenario_traffic(scenario, wave.tx, busy, rng)
    series = sample_mac_states(
        wave, link, traffic, ed_noise_sigma_db=DEFAULT_ED_NOISE_SIGMA_DB, rng=rng
    )
    frames = demodulate(series, config)
    aligned = align_to_schedule(frames, n_frames, lead_windows, config)
    return series.codes, frames, measure_fer_ser(tx_symbols, aligned)


def chunked_stream(config, link, scenario, n_frames, rng, chunk_cycles):
    """(codes, decoded frames, counts, longest chunk fed) of run_stream."""
    fed, decoded = [], []
    feed = Demodulator.feed

    def spy_feed(self, series):
        fed.append(series.codes)
        return feed(self, series)

    def spy_align(frames, *args):
        decoded.extend(frames)
        return align_to_schedule(frames, *args)

    with mock.patch.object(experiments, "CHUNK_CYCLES", chunk_cycles), \
            mock.patch.object(Demodulator, "feed", spy_feed), \
            mock.patch.object(experiments, "align_to_schedule", spy_align):
        counts = run_stream(config, link, scenario, n_frames, rng)
    return np.concatenate(fed), decoded, counts, max(map(len, fed))


CONFIGS = {
    "wide20 40/20": ReceiverConfig(get_scheme("wide20"), CsatConfig(40, 20)),
    "short12 80/19": ReceiverConfig(get_scheme("short12"), CsatConfig(80, 19)),
}


def assert_chunked_equals_whole(config, link, scenario, n_frames, seed, chunk_cycles):
    rng_whole, rng_chunked = np.random.default_rng(seed), np.random.default_rng(seed)
    codes, frames, counts = whole_stream(config, link, scenario, n_frames, rng_whole)
    got_codes, got_frames, got_counts, longest = chunked_stream(
        config, link, scenario, n_frames, rng_chunked, chunk_cycles)
    assert np.array_equal(got_codes, codes)
    assert got_frames == frames
    assert got_counts == counts
    assert rng_chunked.bit_generator.state == rng_whole.bit_generator.state
    # no chunk is longer than its cycles plus the lead-in, under two cycles
    assert longest < (chunk_cycles + 2) * config.samples_per_cycle


class TestChunkedStream:
    @settings(max_examples=40, deadline=None)
    @given(config=st.sampled_from(sorted(CONFIGS)), scenario=st.sampled_from(SCENARIOS),
           theta=st.sampled_from([3, 28]),
           # dB from the register's threshold: below it the sender does not sense
           # the LTE cell, and inside +-8 sigma = 4.8 dB each tick draws ED noise
           offset_db=st.sampled_from([-10.0, -4.5, -1.0, 0.0, 0.5, 2.0, 4.5, 6.0]),
           n_frames=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           chunk_cycles=st.sampled_from([1, 2, 7]))
    def test_matches_whole_stream(self, config, scenario, theta, offset_db, n_frames, seed,
                                  chunk_cycles):
        link = RadioLink.at_rx_power(map_ed_register(theta) + offset_db, ed_register=theta)
        assert_chunked_equals_whole(CONFIGS[config], link, scenario, n_frames, seed,
                                    chunk_cycles)

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("extra_cycles", [1, 0, -1])
    def test_chunk_edges_around_one_frame(self, scenario, extra_cycles):
        # one frame in a chunk one cycle longer than it, exactly as long, and
        # one cycle shorter, which leaves a second chunk of one cycle
        config = CONFIGS["wide20 40/20"]
        cycles = 4 + config.frame_symbols  # preamble and data
        link = RadioLink.at_rx_power(-61.0, ed_register=28)
        assert_chunked_equals_whole(config, link, scenario, 1, 17, cycles + extra_cycles)

    def test_default_chunk_is_one_wide20_frame(self):
        assert experiments.CHUNK_CYCLES == 4 + CONFIGS["wide20 40/20"].frame_symbols


def spy_on(monkeypatch, name: str) -> list:
    """The code object of each caller of phy's ``name``, through any module
    that imports it."""
    callers = []
    real = getattr(phy, name)

    def spy(*args, **kwargs):
        callers.append(sys._getframe(1).f_code)
        return real(*args, **kwargs)

    for module in (phy, demod, experiments, multicell):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, spy)
    return callers


class TestLaidFromTheCycleTable:
    def test_streams_and_stations_call_no_waveform_builder(self, monkeypatch):
        laid = spy_on(monkeypatch, "generate_waveform")
        painted = spy_on(monkeypatch, "coverage")
        config = ReceiverConfig(get_scheme("wide20"), CsatConfig(40, 20))
        for scenario in ("clear", "background-light", "apdl-high"):
            run_stream(config, RadioLink.at_rx_power(-61.0, ed_register=3), scenario, 2,
                       np.random.default_rng(1))
        dep = build_hex_deployment(7)
        full_stack_check(dep, dep.positions_m[:1])
        # only the tables lay waveforms, and only WiFi frames are painted
        assert set(laid) == {ReceiverConfig.__init__.__code__}
        assert set(painted) == {phy.WifiFrames.paint.__code__}

    def test_clear_streams_are_sampled_from_window_counts(self, monkeypatch):
        config = ReceiverConfig(get_scheme("wide20"), CsatConfig(40, 20))
        laid, waves = [], []
        cycle_tx = ReceiverConfig.cycle_tx

        def spy_cycle_tx(self, rows):
            laid.append(len(rows))
            return cycle_tx(self, rows)

        def spy_waveform(*args):
            waves.append(args)
            return phy.Waveform(*args)

        monkeypatch.setattr(ReceiverConfig, "cycle_tx", spy_cycle_tx)
        monkeypatch.setattr(experiments, "Waveform", spy_waveform)
        runs = spy_on(monkeypatch, "tick_runs")
        sampled = spy_on(monkeypatch, "sample_mac_states")
        # above, inside and below the noise band of register 28
        for power in (-50.0, -61.5, -75.0):
            run_stream(config, RadioLink.at_rx_power(power, ed_register=28), "clear", 2,
                       np.random.default_rng(3))
        assert laid == runs == sampled == waves == []
        for scenario in ("background-light", "apdl-high"):
            run_stream(config, RadioLink.at_rx_power(-61.5, ed_register=28), scenario, 2,
                       np.random.default_rng(3))
        # two chunks per stream, each laid as ticks, wrapped and sampled once
        assert len(laid) == len(sampled) == len(waves) == 4
        assert len(runs) == 4  # one per chunk, on its windows

    @pytest.mark.parametrize("n_frames", [0, -1])
    def test_stream_without_frames_rejected(self, n_frames):
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="at least one frame"):
            run_stream(CONFIGS["wide20 40/20"], RadioLink.at_rx_power(-61.0, ed_register=28),
                       "clear", n_frames, rng)
        assert rng.bit_generator.state == state


def stream_peaks_kb(scenario: str) -> tuple[int, int]:
    """Peak RSS in KiB after one 10-frame and then one 200-frame stream of a
    scenario at -66 dBm against register 28, in a fresh interpreter.

    The peak is VmHWM, which starts afresh with the interpreter's image;
    ru_maxrss would carry over the test process's own peak from the fork.
    """
    code = (
        "import numpy as np\n"
        "from ctclink.codec import get_scheme\n"
        "from ctclink.demod import ReceiverConfig\n"
        "from ctclink.experiments import run_stream\n"
        "from ctclink.phy import CsatConfig\n"
        "from ctclink.radio import RadioLink\n"
        "config = ReceiverConfig(get_scheme('wide20'), CsatConfig(40, 20))\n"
        "link = RadioLink.at_rx_power(-66.0, ed_register=28)\n"
        "for n in (10, 200):\n"
        f"    run_stream(config, link, {scenario!r}, n, np.random.default_rng(n))\n"
        "    print(next(line.split()[1] for line in open('/proc/self/status')\n"
        "               if line.startswith('VmHWM:')))\n"
    )
    src = os.path.dirname(os.path.dirname(experiments.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    short_kb, long_kb = map(int, out.split())
    return short_kb, long_kb


@pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is read from /proc on Linux only")
class TestStreamMemory:
    def test_long_stream_peaks_near_a_short_one(self):
        # a 200-frame stream lays no per-tick array longer than one chunk, so
        # its peak RSS stays within 10 MB of a 10-frame stream's
        short_kb, long_kb = stream_peaks_kb("background-high")
        assert long_kb - short_kb < 10 * 1024

    def test_long_poisson_stream_peaks_near_a_short_one(self):
        # 200 light frames hold about 573 k arrival ticks (4.6 MB as int64);
        # the queue keeps them and one buffer as long, and nothing else as long
        short_kb, long_kb = stream_peaks_kb("background-light")
        assert long_kb - short_kb < 15 * 1024


class TestLinkSweep:
    def make_spec(self, **kw):
        base = dict(
            scenario="clear",
            powers_dbm=(-64.0, -62.5, -61.0, -59.0),
            theta=28,
            seed=3,
            repetitions=1,
            frames_per_rep=6,
        )
        base.update(kw)
        return ExperimentSpec(**base)

    def test_deterministic_per_seed(self):
        a = run_link_sweep(self.make_spec())
        b = run_link_sweep(self.make_spec())
        assert a.points == b.points

    def test_curve_falls_across_threshold(self):
        result = run_link_sweep(self.make_spec())
        powers, fers = result.fer_curve()
        assert fers[0] == 1.0
        assert fers[-1] == 0.0
        assert all(x >= y for x, y in zip(fers, fers[1:]))

    def test_point_metadata(self):
        result = run_link_sweep(self.make_spec(repetitions=2, frames_per_rep=3))
        for p in result.points:
            assert p.n_frames == 6
            assert p.fer_lo <= p.fer <= p.fer_hi
            assert p.scenario == "clear" and p.theta == 28

    def test_csv_layout(self, tmp_path):
        result = run_link_sweep(self.make_spec())
        out = tmp_path / "sweep.csv"
        result.to_csv(str(out))
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "scenario,theta,power_dbm,fer,ser,fer_lo,fer_hi,n_frames"
        assert len(lines) == 1 + 4
        assert lines[1].startswith("clear,28,-64,1.000000,")

    def test_point_sums_the_counts_of_its_streams(self):
        spec = self.make_spec(scenario="background-high", powers_dbm=(-91.5,), theta=3,
                              seed=4, repetitions=3, frames_per_rep=8)
        (point,) = run_link_sweep(spec).points
        config = ReceiverConfig(get_scheme(spec.scheme), spec.csat)
        link = RadioLink.at_rx_power(-91.5, ed_register=3)
        counts = [
            run_stream(config, link, spec.scenario, 8, np.random.default_rng([4, 3, 0, rep]))
            for rep in range(3)
        ]
        frame_errors = sum(fe for fe, _ in counts)
        symbol_errors = sum(se for _, se in counts)
        assert 0 < symbol_errors < 24 * config.frame_symbols  # not all or nothing
        assert point.n_frames == 24
        assert point.fer == frame_errors / 24
        assert point.ser == symbol_errors / (24 * config.frame_symbols)


class TestEdSweep:
    def test_knees_track_the_register_map(self):
        spec = ExperimentSpec(scenario="clear", seed=3, repetitions=1, frames_per_rep=6)
        result = run_ed_sweep(spec, thetas=(3, 28))
        by_theta = {k.theta: k for k in result.knees}
        assert by_theta[3].theta_dbm == -92.0
        assert by_theta[28].theta_dbm == -62.0
        # knee(theta_a) < knee(theta_b) whenever map(theta_a) < map(theta_b)
        assert by_theta[3].knee_dbm < by_theta[28].knee_dbm
        for k in result.knees:
            assert abs(k.knee_dbm - k.theta_dbm) <= 1.5
            assert k.width_db <= 3.0

    def test_registers_share_one_receiver_config(self, monkeypatch):
        built = []

        def spy(*args):
            built.append(args)
            return ReceiverConfig(*args)

        monkeypatch.setattr(experiments, "ReceiverConfig", spy)
        spec = ExperimentSpec(scenario="clear", powers_dbm=(-62.0,), seed=3,
                              repetitions=1, frames_per_rep=1)
        result = run_ed_sweep(spec, thetas=(3, 28))
        assert sorted(result.sweeps) == [3, 28]
        assert built == [(get_scheme("wide20"), CsatConfig(40, 20))]

    def test_repeated_register_rejected(self):
        spec = ExperimentSpec(scenario="clear", seed=3, repetitions=1, frames_per_rep=1)
        with pytest.raises(ValueError, match="ED registers 3,3 repeat a register"):
            run_ed_sweep(spec, thetas=(3, 3))

    def test_csv_outputs(self, tmp_path):
        spec = ExperimentSpec(
            scenario="clear", powers_dbm=(-63.0, -61.0), seed=3,
            repetitions=1, frames_per_rep=4,
        )
        result = run_ed_sweep(spec, thetas=(28,))
        sweep_csv = tmp_path / "ed.csv"
        knees_csv = tmp_path / "knees.csv"
        result.to_csv(str(sweep_csv))
        result.knees_to_csv(str(knees_csv))
        sweep_lines = sweep_csv.read_text().strip().splitlines()
        assert sweep_lines[0].startswith("scenario,theta,power_dbm")
        knee_lines = knees_csv.read_text().strip().splitlines()
        assert knee_lines[0] == "theta,theta_dbm,knee_dbm,drop_dbm,width_db"
        assert knee_lines[1].startswith("28,-62,")

    def test_csv_text_of_hand_built_result(self, tmp_path):
        # sweeps are written in register order, whatever the dict order
        spec = ExperimentSpec(powers_dbm=(-62.5,))
        sweeps = {
            28: SweepResult(spec, [
                SweepPoint("clear", 28, -62.5, 0.25, 0.0312344, 0.1, 0.5, 8),
                SweepPoint("clear", 28, -60.0, 0.0, 0.0, 0.0, 0.3243711, 8),
            ]),
            3: SweepResult(spec, [
                SweepPoint("apdl-high", 3, -92.25, 1.0, 0.5, 0.6756289, 1.0, 8),
            ]),
        }
        knees = [
            KneeSummary(3, -92.0, -91.5, -92.5, 1.0),
            KneeSummary(28, -62.0, math.nan, math.nan, math.nan),
        ]
        result = EdSweepResult(sweeps, knees)
        sweep_csv = tmp_path / "ed.csv"
        knees_csv = tmp_path / "knees.csv"
        result.to_csv(str(sweep_csv))
        result.knees_to_csv(str(knees_csv))
        assert sweep_csv.read_text() == (
            "scenario,theta,power_dbm,fer,ser,fer_lo,fer_hi,n_frames\n"
            "apdl-high,3,-92.25,1.000000,0.500000,0.675629,1.000000,8\n"
            "clear,28,-62.5,0.250000,0.031234,0.100000,0.500000,8\n"
            "clear,28,-60,0.000000,0.000000,0.000000,0.324371,8\n"
        )
        assert knees_csv.read_text() == (
            "theta,theta_dbm,knee_dbm,drop_dbm,width_db\n"
            "3,-92,-91.5,-92.5,1\n"
            "28,-62,nan,nan,nan\n"
        )


class TestMulticellRun:
    def test_histogram_support_and_determinism(self):
        run_a = run_multicell(station_count=19, sigmas_db=(0.0, 6.0), seed=5,
                              grid_step_m=6.0, side_m=60.0)
        run_b = run_multicell(station_count=19, sigmas_db=(0.0, 6.0), seed=5,
                              grid_step_m=6.0, side_m=60.0)
        assert set(run_a.results) == {0.0, 6.0}
        assert run_a.histogram_rows() == run_b.histogram_rows()
        sigma0_counts = {c for (s, c, _) in run_a.histogram_rows() if s == 0.0}
        assert sigma0_counts <= {0, 3, 4, 7}

    def test_shadowing_changes_the_picture(self):
        run = run_multicell(station_count=19, sigmas_db=(0.0, 6.0), seed=5,
                            grid_step_m=6.0, side_m=60.0)
        det0 = run.results[0.0].n_detected
        det6 = run.results[6.0].n_detected
        assert not np.array_equal(det0, det6)

    @pytest.mark.parametrize("sigma", [-3.0, -0.1, float("nan")])
    def test_negative_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="must be non-negative"):
            run_multicell(station_count=7, sigmas_db=(0.0, sigma), grid_step_m=10.0, side_m=40.0)

    def test_summary_csv(self, tmp_path):
        run = run_multicell(station_count=7, sigmas_db=(0.0,), seed=2,
                            grid_step_m=10.0, side_m=40.0)
        out = tmp_path / "summary.csv"
        run.summary_to_csv(str(out))
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "sigma_db,n_detected,n_points"
        assert all(line.startswith("0,") for line in lines[1:])


class TestAnalyticsRun:
    def test_table_dimensions(self):
        points = rate_airtime_table(ks=range(0, 3), duties=(0.2, 0.5), cycles_ms=(40.0,))
        assert len(points) == 3 * 2 * 1
        assert {p.cycle_ms for p in points} == {40.0}
