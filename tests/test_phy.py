"""Waveform generator and MAC-state sampler tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctclink.codec import build_frame, default_schemes, encode_symbol, preamble_schedules
from ctclink.phy import (
    RESOLUTION_US,
    CsatConfig,
    MacStateSeries,
    SchedulingError,
    TrafficTrace,
    Waveform,
    generate_waveform,
    poisson_traffic,
    sample_mac_states,
    saturated_traffic,
)
from ctclink.radio import RadioLink

SCHEMES = default_schemes()


def link_at(rx_dbm: float, **kw) -> RadioLink:
    return RadioLink.at_rx_power(rx_dbm, **kw)


class TestCsatConfig:
    def test_valid(self):
        cfg = CsatConfig(80, 19)
        assert cfg.duty == pytest.approx(19 / 80)

    def test_cycle_choices(self):
        with pytest.raises(ValueError):
            CsatConfig(50, 20)

    def test_duty_cap(self):
        with pytest.raises(ValueError):
            CsatConfig(40, 21)
        CsatConfig(40, 20)  # exactly 50% is allowed


class TestGenerateWaveform:
    def test_empty_symbol_list_plain_cycle(self):
        wave = generate_waveform(CsatConfig(80, 40), [], n_cycles=3)
        wave.validate()
        assert wave.n_cycles == 3
        assert wave.measured_duty() == pytest.approx(0.5)
        # safety punctures keep every run at 18 ms, so TX is less than ON
        assert wave.tx.sum() < wave.envelope.sum()

    def test_single_symbol_pattern(self):
        scheme = SCHEMES["wide20"]
        sched = encode_symbol(3, scheme)  # gap at slots 8,9 ms
        wave = generate_waveform(CsatConfig(40, 20), [sched])
        wave.validate()
        per_ms = 1000 // RESOLUTION_US
        assert not wave.tx[8 * per_ms:10 * per_ms].any()
        assert wave.tx[0:8 * per_ms].all()
        assert wave.tx[10 * per_ms:20 * per_ms].all()
        assert not wave.tx[20 * per_ms:40 * per_ms].any()
        assert wave.symbol_starts == [(0, sched)]

    def test_prototype_config_fits(self):
        # 80 ms cycle with 19 ms ON carries one 20 ms-class symbol whose
        # trailing gap overlaps the OFF phase
        scheme = SCHEMES["multi20-k1"]
        wave = generate_waveform(CsatConfig(80, 19), [encode_symbol(5, scheme)])
        wave.validate()
        assert wave.n_cycles == 1

    def test_short_symbol_low_duty(self):
        scheme = SCHEMES["short12"]
        scheds = [encode_symbol(v, scheme) for v in (0, 1, 2)]
        wave = generate_waveform(CsatConfig(40, 12), scheds)
        wave.validate()
        assert wave.n_cycles == 3  # one symbol per cycle at this duty

    def test_two_symbols_per_cycle(self):
        scheme = SCHEMES["multi20-k1"]
        scheds = [encode_symbol(v, scheme) for v in range(4)]
        wave = generate_waveform(CsatConfig(80, 40), scheds)
        wave.validate()
        assert wave.n_cycles == 2
        starts = [t for t, _ in wave.symbol_starts]
        per_cycle = 80 * 1000 // RESOLUTION_US
        per_ms = 1000 // RESOLUTION_US
        assert starts == [0, 20 * per_ms, per_cycle, per_cycle + 20 * per_ms]

    def test_oversized_symbol_rejected(self):
        scheme = SCHEMES["wide20"]  # transmit span 20 ms
        with pytest.raises(SchedulingError):
            generate_waveform(CsatConfig(40, 12), [encode_symbol(0, scheme)])

    def test_puncture_conservation(self):
        scheme = SCHEMES["multi20-k2"]
        scheds = [encode_symbol(v, scheme) for v in (7, 19, 41, 3)]
        wave = generate_waveform(CsatConfig(80, 40), scheds)
        per_ms = 1000 // RESOLUTION_US
        missing = int(wave.envelope.sum() - wave.tx.sum())
        expect = sum(len(s.positions) for s in scheds) * per_ms
        assert missing == expect

    def test_duty_budget_fractional_on(self):
        wave = generate_waveform(CsatConfig(80, 19.2), [], n_cycles=5)
        quantum = 1.0 / (80 * 1000 // RESOLUTION_US)
        assert abs(wave.measured_duty() - 0.24) <= quantum

    def test_lead_in_shifts_everything(self):
        scheme = SCHEMES["short12"]
        wave = generate_waveform(CsatConfig(40, 12), [encode_symbol(1, scheme)])
        shifted = wave.with_lead_in(37)
        assert shifted.n_ticks == wave.n_ticks + 37
        assert not shifted.tx[:37].any()
        assert shifted.symbol_starts[0][0] == 37


class TestSampler:
    def test_two_state_clean_channel(self):
        wave = generate_waveform(CsatConfig(40, 20), [], n_cycles=2)
        series = sample_mac_states(wave, link_at(-50.0))
        series.validate()
        on_windows = wave.envelope.reshape(-1, 5).mean(axis=1)
        assert np.array_equal(series.intf, on_windows)
        assert np.array_equal(series.idle, 1.0 - on_windows)
        assert not series.rx.any() and not series.tx.any()

    def test_below_threshold_silent(self):
        wave = generate_waveform(CsatConfig(40, 20), [], n_cycles=2)
        series = sample_mac_states(wave, link_at(-95.0, ed_threshold_dbm=-62.0))
        assert not series.intf.any()
        assert np.all(series.idle == 1.0)

    def test_fractional_boundary_window(self):
        wave = generate_waveform(CsatConfig(80, 19.2), [], n_cycles=1)
        series = sample_mac_states(wave, link_at(-50.0))
        series.validate()
        # 19.2 ms ON splits a 250 us window: 0.8 intf on the boundary
        boundary = series.intf[76]
        assert boundary == pytest.approx(0.8)

    def test_own_tx_beats_detection(self):
        wave = generate_waveform(CsatConfig(40, 20), [], n_cycles=1)
        traffic = TrafficTrace.silent(wave.n_ticks)
        traffic.tx[:400] = True  # 20 ms of own transmission over the ON phase
        series = sample_mac_states(wave, link_at(-50.0), traffic)
        assert np.all(series.tx[:80] == 1.0)
        assert not series.intf[:80].any()

    def test_locked_rx_straddles_into_on(self):
        wave = generate_waveform(CsatConfig(40, 20), [], n_cycles=2)
        traffic = TrafficTrace.silent(wave.n_ticks)
        # frame starts in the OFF phase and runs into the next ON phase
        start = 795  # tick 795 = 39.75 ms, frame 10 ticks -> 5 into cycle 2
        traffic.rx_locked[start:start + 10] = True
        series = sample_mac_states(wave, link_at(-50.0), traffic)
        w = 800 // 5  # first window of the second cycle
        assert series.rx[w] == pytest.approx(1.0)
        assert series.intf[w] == 0.0

    def test_determinism_with_noise(self):
        wave = generate_waveform(CsatConfig(40, 20), [], n_cycles=4)
        link = link_at(-62.0)
        a = sample_mac_states(wave, link, ed_noise_sigma_db=0.5,
                              rng=np.random.default_rng(42))
        b = sample_mac_states(wave, link, ed_noise_sigma_db=0.5,
                              rng=np.random.default_rng(42))
        assert np.array_equal(a.intf, b.intf)

    def test_noise_at_threshold_is_coin_flip(self):
        wave = generate_waveform(CsatConfig(40, 20), [], n_cycles=20)
        link = link_at(-62.0)  # exactly the default ED threshold
        series = sample_mac_states(wave, link, ed_noise_sigma_db=0.5,
                                   rng=np.random.default_rng(1))
        on_mean = series.intf[wave.envelope.reshape(-1, 5).mean(1) == 1.0].mean()
        assert 0.4 < on_mean < 0.6

    def test_csv_roundtrip(self, tmp_path):
        wave = generate_waveform(CsatConfig(40, 20), [], n_cycles=1)
        series = sample_mac_states(wave, link_at(-50.0))
        path = tmp_path / "mac.csv"
        series.to_csv(str(path))
        back = MacStateSeries.from_csv(str(path))
        assert back.window_us == series.window_us
        assert np.allclose(back.intf, series.intf, atol=1e-6)
        assert np.allclose(back.idle, series.idle, atol=1e-6)

    def test_csv_text(self, tmp_path):
        series = MacStateSeries(
            250,
            idle=np.array([1.0, 0.2, 0.0]),
            rx=np.array([0.0, 0.4, 0.0]),
            tx=np.array([0.0, 0.0, 1.0 / 3.0]),
            intf=np.array([0.0, 0.4, 2.0 / 3.0]),
        )
        path = tmp_path / "mac.csv"
        series.to_csv(str(path))
        assert path.read_text() == (
            "t_us,idle,rx,tx,intf\n"
            "0,1.000000,0.000000,0.000000,0.000000\n"
            "250,0.200000,0.400000,0.000000,0.400000\n"
            "500,0.000000,0.000000,0.333333,0.666667\n"
        )


class TestTraffic:
    def make_wave(self, cycles=10):
        return generate_waveform(CsatConfig(80, 19), [], n_cycles=cycles)

    def test_poisson_defers_to_busy_mask(self):
        wave = self.make_wave()
        rng = np.random.default_rng(2)
        trace = poisson_traffic(wave.envelope, wave.envelope, 800.0, 384.0, "rx", rng)
        starts = np.flatnonzero(np.diff(np.concatenate([[0], trace.rx_locked.astype(np.int8)])) == 1)
        assert len(starts) > 0
        assert not wave.envelope[starts].any()

    def test_poisson_frames_straddle_naturally(self):
        wave = self.make_wave(40)
        rng = np.random.default_rng(3)
        trace = poisson_traffic(wave.envelope, wave.envelope, 900.0, 384.0, "rx", rng)
        # some frames run into the envelope; the overlap loses lock and
        # registers as energy only
        assert (trace.rx_unlocked & wave.envelope).any()
        assert not (trace.rx_locked & wave.envelope).any()

    def test_saturated_fills_idle_runs(self):
        wave = self.make_wave()
        rng = np.random.default_rng(4)
        trace = saturated_traffic(wave.envelope, wave.envelope, 384.0, "tx", rng)
        off = ~wave.envelope
        busy_share = trace.tx[off].mean()
        assert busy_share > 0.5
        assert not (trace.tx & wave.envelope).any()  # no straddles at prob 0

    def test_straddle_probability(self):
        wave = self.make_wave(30)
        rng = np.random.default_rng(5)
        trace = saturated_traffic(wave.envelope, wave.envelope, 2000.0, "tx", rng,
                                  straddle_prob=1.0)
        assert (trace.tx & wave.envelope).any()

    def test_unlocked_frames_count_as_interference(self):
        wave = generate_waveform(CsatConfig(40, 20), [], n_cycles=1)
        traffic = TrafficTrace.silent(wave.n_ticks)
        traffic.rx_unlocked[420:440] = True  # during the OFF phase, LTE silent
        series = sample_mac_states(wave, link_at(-95.0, ed_threshold_dbm=-62.0), traffic)
        assert series.intf[84] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Reference traffic generators: one slice assignment per WiFi frame and one
# RNG call per draw.  The library's generators must match them bit for bit,
# in the traces and in the state they leave the generator in.
# ---------------------------------------------------------------------------

def ref_mark_frame(trace, start, n, kind, lte_envelope):
    end = min(start + n, trace.n_ticks)
    if start >= trace.n_ticks:
        return
    if kind == "tx":
        trace.tx[start:end] = True
        return
    if lte_envelope[start]:
        trace.rx_unlocked[start:end] = True
        return
    overlap = lte_envelope[start:end]
    stomp = int(np.argmax(overlap)) if overlap.any() else end - start
    trace.rx_locked[start:start + stomp] = True
    trace.rx_unlocked[start + stomp:end] = True


def ref_poisson_traffic(lte_envelope, busy_mask, rate_fps, frame_us, kind, rng,
                        resolution_us=50):
    n_ticks = len(lte_envelope)
    trace = TrafficTrace.silent(n_ticks)
    frame_ticks = max(1, round(frame_us / resolution_us))
    duration_s = n_ticks * resolution_us / 1e6
    n_frames = rng.poisson(rate_fps * duration_s)
    arrivals = np.sort(rng.integers(0, n_ticks, size=n_frames))
    free_at = 0
    for arr in arrivals:
        start = max(int(arr), free_at)
        while start < n_ticks and busy_mask[start]:
            start += 1
        if start >= n_ticks:
            break
        ref_mark_frame(trace, start, frame_ticks, kind, lte_envelope)
        free_at = start + frame_ticks
    return trace


def ref_saturated_traffic(lte_envelope, busy_mask, frame_us, kind, rng, straddle_prob=0.0,
                          gap_us=(50.0, 200.0), resolution_us=50):
    n_ticks = len(lte_envelope)
    trace = TrafficTrace.silent(n_ticks)

    def draw_frame_ticks():
        us = rng.uniform(*frame_us) if isinstance(frame_us, tuple) else frame_us
        return max(1, round(us / resolution_us))

    padded = np.concatenate([[1], busy_mask.astype(np.int8), [1]])
    edges = np.flatnonzero(np.diff(padded))
    for run_start, run_end in zip(edges[::2], edges[1::2]):
        pos = int(run_start)
        while pos < run_end:
            pos += max(1, round(rng.uniform(*gap_us) / resolution_us))
            if pos >= run_end:
                break
            frame_ticks = draw_frame_ticks()
            if pos + frame_ticks <= run_end:
                ref_mark_frame(trace, pos, frame_ticks, kind, lte_envelope)
                pos += frame_ticks
            else:
                if rng.random() < straddle_prob:
                    ref_mark_frame(trace, pos, frame_ticks, kind, lte_envelope)
                break
    return trace


def _punctured_lte() -> np.ndarray:
    """LTE transmit mask of two wide20 frames: ON phases with 1-3 ms punctures."""
    scheme = SCHEMES["wide20"]
    schedules = []
    for network_id in (0x0A00002A, 0x12345678):
        schedules += build_frame(network_id, (1, 2, 3, 4, 5, 6), scheme).schedules()
    return generate_waveform(CsatConfig(40, 20), schedules).with_lead_in(7).tx


PUNCTURED_LTE = _punctured_lte()


def busy_masks(lte: np.ndarray) -> dict[str, np.ndarray]:
    tail = lte.copy()
    tail[-max(1, len(lte) // 7):] = True
    return {
        "lte": lte,
        "clear": np.zeros(len(lte), dtype=bool),
        "all": np.ones(len(lte), dtype=bool),
        "tail": tail,  # busy through the last tick
        # a sender that defers to a source other than the sampled LTE cell
        "shifted": np.roll(lte, 400),
    }


def assert_same_traffic(got, want, rng_got, rng_want):
    assert np.array_equal(got.tx, want.tx)
    assert np.array_equal(got.rx_locked, want.rx_locked)
    assert np.array_equal(got.rx_unlocked, want.rx_unlocked)
    assert rng_got.bit_generator.state == rng_want.bit_generator.state


n_ticks_st = st.integers(1, len(PUNCTURED_LTE))
busy_st = st.sampled_from(["lte", "clear", "all", "tail", "shifted"])
kind_st = st.sampled_from(["rx", "tx"])
frame_us_st = st.one_of(
    st.floats(10.0, 6000.0),
    st.tuples(st.floats(10.0, 6000.0), st.floats(10.0, 6000.0)).map(lambda r: tuple(sorted(r))),
)


class TestTrafficMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(n_ticks=n_ticks_st, busy=busy_st, kind=kind_st,
           rate_fps=st.sampled_from([0.0, 5.0, 833.0, 6000.0]),
           frame_us=st.floats(10.0, 3000.0), seed=st.integers(0, 2**32 - 1))
    def test_poisson(self, n_ticks, busy, kind, rate_fps, frame_us, seed):
        lte = PUNCTURED_LTE[:n_ticks]
        mask = busy_masks(lte)[busy]
        rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
        got = poisson_traffic(lte, mask, rate_fps, frame_us, kind, rng_got)
        want = ref_poisson_traffic(lte, mask, rate_fps, frame_us, kind, rng_want)
        assert_same_traffic(got, want, rng_got, rng_want)

    @settings(max_examples=150, deadline=None)
    @given(n_ticks=n_ticks_st, busy=busy_st, kind=kind_st, frame_us=frame_us_st,
           straddle_prob=st.sampled_from([0.0, 0.035, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_saturated(self, n_ticks, busy, kind, frame_us, straddle_prob, seed):
        lte = PUNCTURED_LTE[:n_ticks]
        mask = busy_masks(lte)[busy]
        rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
        got = saturated_traffic(lte, mask, frame_us, kind, rng_got, straddle_prob)
        want = ref_saturated_traffic(lte, mask, frame_us, kind, rng_want, straddle_prob)
        assert_same_traffic(got, want, rng_got, rng_want)

    @pytest.mark.parametrize("kind", ["rx", "tx"])
    def test_saturated_draws_span_several_blocks(self, kind):
        # short frames on a clear channel draw far more doubles than one block
        lte = np.tile(PUNCTURED_LTE, 4)
        mask = np.zeros(len(lte), dtype=bool)
        rng_got, rng_want = np.random.default_rng(9), np.random.default_rng(9)
        got = saturated_traffic(lte, mask, (40.0, 80.0), kind, rng_got, 0.5)
        want = ref_saturated_traffic(lte, mask, (40.0, 80.0), kind, rng_want, 0.5)
        assert_same_traffic(got, want, rng_got, rng_want)
        assert rng_got.random() == rng_want.random()

    @pytest.mark.parametrize("ranges", [
        {"frame_us": (400.0, 300.0)},
    ])
    def test_saturated_rejects_reversed_ranges(self, ranges):
        lte = PUNCTURED_LTE
        with pytest.raises(ValueError):
            saturated_traffic(lte, lte, kind="tx", rng=np.random.default_rng(0), **ranges)

    def test_traffic_scenarios_of_a_stream(self):
        # the generators as the sweeps call them, on a sensed LTE sender
        from ctclink.experiments import (
            LIGHT_RATE_FPS, SATURATED_BURST_US, STRADDLE_PROB, WIFI_FRAME_US,
        )
        lte = PUNCTURED_LTE
        for kind in ("rx", "tx"):
            rng_got, rng_want = np.random.default_rng(11), np.random.default_rng(11)
            got = poisson_traffic(lte, lte, LIGHT_RATE_FPS, WIFI_FRAME_US, kind, rng_got)
            want = ref_poisson_traffic(lte, lte, LIGHT_RATE_FPS, WIFI_FRAME_US, kind, rng_want)
            assert_same_traffic(got, want, rng_got, rng_want)
            got = saturated_traffic(lte, lte, SATURATED_BURST_US, kind, rng_got, STRADDLE_PROB)
            want = ref_saturated_traffic(lte, lte, SATURATED_BURST_US, kind, rng_want,
                                         STRADDLE_PROB)
            assert_same_traffic(got, want, rng_got, rng_want)
