"""Waveform generator and MAC-state sampler tests."""

from __future__ import annotations

import hashlib
import json
import math
import re
from bisect import bisect_right
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctclink import experiments, phy
from ctclink.codec import build_frame, default_schemes, encode_symbol, preamble_schedules
from ctclink.demod import ReceiverConfig
from ctclink.experiments import default_power_sweep, run_stream, scenario_traffic, wilson_interval
from ctclink.phy import (
    CODE_BASE,
    CYCLE_CHOICES,
    MAX_ON_RUN_MS,
    RESOLUTION_US,
    SAFETY_GAP_MS,
    WINDOW_US,
    CsatConfig,
    MacStateSeries,
    SchedulingError,
    TrafficTrace,
    Waveform,
    WifiFrames,
    coverage,
    generate_waveform,
    poisson_frames,
    sample_mac_states,
    sample_window_counts,
    saturated_frames,
    tick_runs,
)
from ctclink.radio import RadioLink

SCHEMES = default_schemes()


def link_at(rx_dbm: float, **kw) -> RadioLink:
    return RadioLink.at_rx_power(rx_dbm, **kw)


def poisson_traffic(lte_tx, busy_mask, rate_fps, frame_us, kind, rng):
    """poisson_frames on the runs of busy_mask, painted over all of lte_tx."""
    n_ticks = len(lte_tx)
    starts, frame_ticks = poisson_frames(n_ticks, tick_runs(busy_mask), rate_fps, frame_us, rng)
    return WifiFrames.launch(starts, frame_ticks, kind, tick_runs(lte_tx), n_ticks).paint(0, n_ticks)


def saturated_traffic(lte_tx, busy_mask, frame_us, kind, rng, straddle_prob=0.0):
    """saturated_frames on the runs of busy_mask, painted over all of lte_tx."""
    n_ticks = len(lte_tx)
    starts, lengths = saturated_frames(n_ticks, tick_runs(busy_mask), frame_us, rng, straddle_prob)
    return WifiFrames.launch(starts, lengths, kind, tick_runs(lte_tx), n_ticks).paint(0, n_ticks)


def silent_trace(n_ticks: int) -> TrafficTrace:
    """A trace with no WiFi activity, for tests to mark by hand."""
    return TrafficTrace(*np.zeros((3, n_ticks), dtype=bool))


def validate(wave: Waveform) -> None:
    """The coexistence constraint: no TX run longer than MAX_ON_RUN_MS."""
    starts, ends = tick_runs(wave.tx)
    longest = int(np.max(ends - starts, initial=0))
    assert longest <= MAX_ON_RUN_MS * 1000 // RESOLUTION_US, f"TX run of {longest} ticks"


def n_cycles(wave: Waveform) -> int:
    """Whole duty cycles of a waveform."""
    return wave.n_ticks // (wave.csat.cycle_ms * 1000 // RESOLUTION_US)


def assert_partition(series: MacStateSeries) -> None:
    """Every window's four fractions lie in [0, 1] and sum to 1."""
    fractions = np.stack([series.idle, series.rx, series.tx, series.intf])
    assert np.all((fractions >= 0.0) & (fractions <= 1.0))
    assert np.all(np.abs(fractions.sum(axis=0) - 1.0) <= 1e-12)


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
        validate(wave)
        assert n_cycles(wave) == 3
        per_ms = 1000 // RESOLUTION_US
        cycles = wave.tx.reshape(3, 80 * per_ms)
        assert cycles[:, :18 * per_ms].all() and not cycles[:, 40 * per_ms:].any()
        # safety punctures keep every run at 18 ms, so TX is less than ON
        assert wave.tx.sum() < 3 * 40 * per_ms

    def test_single_symbol_pattern(self):
        scheme = SCHEMES["wide20"]
        sched = encode_symbol(3, scheme)  # gap at slots 8,9 ms
        wave = generate_waveform(CsatConfig(40, 20), [sched])
        validate(wave)
        per_ms = 1000 // RESOLUTION_US
        assert not wave.tx[8 * per_ms:10 * per_ms].any()
        assert wave.tx[0:8 * per_ms].all()
        assert wave.tx[10 * per_ms:20 * per_ms].all()
        assert not wave.tx[20 * per_ms:40 * per_ms].any()

    def test_prototype_config_fits(self):
        # 80 ms cycle with 19 ms ON carries one 20 ms-class symbol whose
        # trailing gap overlaps the OFF phase
        scheme = SCHEMES["multi20-k1"]
        wave = generate_waveform(CsatConfig(80, 19), [encode_symbol(5, scheme)])
        validate(wave)
        assert n_cycles(wave) == 1

    def test_short_symbol_low_duty(self):
        scheme = SCHEMES["short12"]
        scheds = [encode_symbol(v, scheme) for v in (0, 1, 2)]
        wave = generate_waveform(CsatConfig(40, 12), scheds)
        validate(wave)
        assert n_cycles(wave) == 3  # one symbol per cycle at this duty

    def test_two_symbols_per_cycle(self):
        scheme = SCHEMES["multi20-k1"]
        scheds = [encode_symbol(v, scheme) for v in range(4)]
        wave = generate_waveform(CsatConfig(80, 40), scheds)
        validate(wave)
        assert n_cycles(wave) == 2
        per_cycle = 80 * 1000 // RESOLUTION_US
        per_ms = 1000 // RESOLUTION_US
        starts = [0, 20 * per_ms, per_cycle, per_cycle + 20 * per_ms]
        for start, sched in zip(starts, scheds):
            slots = wave.tx[start:start + 20 * per_ms].reshape(20, per_ms)
            assert np.flatnonzero(~slots.any(axis=1)).tolist() == list(sched.positions)
            assert slots.all(axis=1).sum() == 20 - len(sched.positions)

    def test_oversized_symbol_rejected(self):
        scheme = SCHEMES["wide20"]  # transmit span 20 ms
        with pytest.raises(SchedulingError):
            generate_waveform(CsatConfig(40, 12), [encode_symbol(0, scheme)])

    def test_puncture_conservation(self):
        scheme = SCHEMES["multi20-k2"]
        scheds = [encode_symbol(v, scheme) for v in (7, 19, 41, 3)]
        wave = generate_waveform(CsatConfig(80, 40), scheds)
        per_ms = 1000 // RESOLUTION_US
        missing = int(n_cycles(wave) * 40 * per_ms - wave.tx.sum())
        expect = sum(len(s.positions) for s in scheds) * per_ms
        assert missing == expect

    def test_duty_budget_fractional_on(self):
        # 19.2 ms of ON needs no safety puncture, so TX is the whole ON phase
        wave = generate_waveform(CsatConfig(80, 19.2), [], n_cycles=5)
        quantum = 1.0 / (80 * 1000 // RESOLUTION_US)
        assert abs(wave.tx.mean() - 0.24) <= quantum

    def test_lead_in_shifts_everything(self):
        scheme = SCHEMES["short12"]
        wave = generate_waveform(CsatConfig(40, 12), [encode_symbol(1, scheme)])
        shifted = wave.with_lead_in(37)
        assert shifted.n_ticks == wave.n_ticks + 37
        assert not shifted.tx[:37].any()
        assert np.array_equal(shifted.tx[37:], wave.tx)


class TestSampler:
    def test_two_state_clean_channel(self):
        wave = generate_waveform(CsatConfig(40, 20), [], n_cycles=2)
        series = sample_mac_states(wave, link_at(-50.0))
        assert_partition(series)
        on_windows = wave.tx.reshape(-1, 5).mean(axis=1)
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
        assert_partition(series)
        # 19.2 ms ON splits a 250 us window: 0.8 intf on the boundary
        boundary = series.intf[76]
        assert boundary == pytest.approx(0.8)

    def test_own_tx_beats_detection(self):
        wave = generate_waveform(CsatConfig(40, 20), [], n_cycles=1)
        traffic = silent_trace(wave.n_ticks)
        traffic.tx[:400] = True  # 20 ms of own transmission over the ON phase
        series = sample_mac_states(wave, link_at(-50.0), traffic)
        assert np.all(series.tx[:80] == 1.0)
        assert not series.intf[:80].any()

    def test_locked_rx_straddles_into_on(self):
        wave = generate_waveform(CsatConfig(40, 20), [], n_cycles=2)
        traffic = silent_trace(wave.n_ticks)
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
        on_mean = series.intf[wave.tx.reshape(-1, 5).mean(1) == 1.0].mean()
        assert 0.4 < on_mean < 0.6


# every state code the sampler can make: counts that fit one window
VALID_CODES = [rx + CODE_BASE * tx + CODE_BASE**2 * intf
               for rx in range(CODE_BASE) for tx in range(CODE_BASE) for intf in range(CODE_BASE)
               if rx + tx + intf < CODE_BASE]


def one_window(idle, rx, tx, intf, window_us=WINDOW_US) -> MacStateSeries:
    return MacStateSeries(window_us, *(np.array([f], dtype=np.float64) for f in (idle, rx, tx, intf)))


class TestMacStateSeries:
    """The constructor is where fractions enter: it packs them into codes."""

    @settings(max_examples=100, deadline=None)
    @given(codes=st.lists(st.sampled_from(VALID_CODES), max_size=60), block=st.integers(1, 40))
    def test_fractions_give_back_their_codes(self, codes, block):
        series = MacStateSeries.from_codes(np.array(codes, dtype=np.uint8))
        with mock.patch.object(phy, "CONVERT_BLOCK", block):
            again = MacStateSeries(series.window_us, series.idle, series.rx, series.tx, series.intf)
        assert again.codes.dtype == np.uint8
        assert again.codes.tobytes() == series.codes.tobytes()

    def test_window_length_is_a_class_constant(self):
        assert MacStateSeries.window_us == WINDOW_US
        assert one_window(1.0, 0.0, 0.0, 0.0).window_us == WINDOW_US

    @pytest.mark.parametrize("idle, rx, tx, intf", [
        (2 / 3, 0.0, 0.0, 1 / 3),  # off the grid
        (0.5, 0.0, 0.0, 0.5),  # TAU3, which no 5-tick window reaches
        (1.2, -0.2, 0.0, 0.0),  # on the k / 5 grid but out of range
        (0.0, 0.0, 0.0, 1.2),
        (0.0, 0.0, 0.0, math.nan),
        (0.0, 0.0, 0.0, math.inf),
    ])
    def test_rejects_fractions_off_the_tick_grid(self, idle, rx, tx, intf):
        with pytest.raises(ValueError, match="whole number of ticks"):
            one_window(idle, rx, tx, intf)

    def test_rejects_windows_that_do_not_add_up(self):
        with pytest.raises(ValueError, match="add up"):
            one_window(0.2, 0.0, 0.0, 0.6)
        with pytest.raises(ValueError, match="add up"):
            one_window(1.0, 0.2, 0.0, 0.0)

    def test_rejects_other_window_lengths(self):
        with pytest.raises(ValueError, match="not 250 us"):
            one_window(1.0, 0.0, 0.0, 0.0, window_us=200)

    def test_rejects_arrays_of_unequal_shape(self):
        z = np.zeros(3)
        with pytest.raises(ValueError, match="one length"):
            MacStateSeries(WINDOW_US, np.ones(3), z, z, np.zeros(4))
        with pytest.raises(ValueError, match="one length"):
            MacStateSeries(WINDOW_US, np.ones((3, 1)), z, z, z)

    def test_finds_a_bad_window_in_a_later_block(self, monkeypatch):
        monkeypatch.setattr(phy, "CONVERT_BLOCK", 4)
        idle, z = np.ones(10), np.zeros(10)
        intf = z.copy()
        intf[9] = 0.5
        with pytest.raises(ValueError, match="intf is not a whole number"):
            MacStateSeries(WINDOW_US, idle, z, z, intf)
        intf[9] = 0.4
        with pytest.raises(ValueError, match="add up"):
            MacStateSeries(WINDOW_US, idle, z, z, intf)


class TestTraffic:
    def make_wave(self, cycles=10):
        # 19 ms of ON needs no safety puncture: TX is one run per cycle
        return generate_waveform(CsatConfig(80, 19), [], n_cycles=cycles)

    def test_poisson_defers_to_busy_mask(self):
        wave = self.make_wave()
        rng = np.random.default_rng(2)
        trace = poisson_traffic(wave.tx, wave.tx, 800.0, 384.0, "rx", rng)
        starts = np.flatnonzero(np.diff(np.concatenate([[0], trace.rx_locked.astype(np.int8)])) == 1)
        assert len(starts) > 0
        assert not wave.tx[starts].any()

    def test_poisson_frames_straddle_naturally(self):
        wave = self.make_wave(40)
        rng = np.random.default_rng(3)
        trace = poisson_traffic(wave.tx, wave.tx, 900.0, 384.0, "rx", rng)
        # some frames run into the LTE ON phase; the overlap loses lock and
        # registers as energy only
        assert (trace.rx_unlocked & wave.tx).any()
        assert not (trace.rx_locked & wave.tx).any()

    def test_saturated_fills_idle_runs(self):
        wave = self.make_wave()
        rng = np.random.default_rng(4)
        trace = saturated_traffic(wave.tx, wave.tx, 384.0, "tx", rng)
        off = ~wave.tx
        busy_share = trace.tx[off].mean()
        assert busy_share > 0.5
        assert not (trace.tx & wave.tx).any()  # no straddles at prob 0

    def test_straddle_probability(self):
        wave = self.make_wave(30)
        rng = np.random.default_rng(5)
        trace = saturated_traffic(wave.tx, wave.tx, 2000.0, "tx", rng,
                                  straddle_prob=1.0)
        assert (trace.tx & wave.tx).any()

    def test_unlocked_frames_count_as_interference(self):
        wave = generate_waveform(CsatConfig(40, 20), [], n_cycles=1)
        traffic = silent_trace(wave.n_ticks)
        traffic.rx_unlocked[420:440] = True  # during the OFF phase, LTE silent
        series = sample_mac_states(wave, link_at(-95.0, ed_threshold_dbm=-62.0), traffic)
        assert series.intf[84] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Reference traffic generators: one slice assignment per WiFi frame and one
# RNG call per draw.  The library's generators must match them bit for bit,
# in the traces and in the state they leave the generator in.
# ---------------------------------------------------------------------------

def ref_mark_frame(trace, start, n, kind, lte_tx):
    end = min(start + n, trace.n_ticks)
    if start >= trace.n_ticks:
        return
    if kind == "tx":
        trace.tx[start:end] = True
        return
    if lte_tx[start]:
        trace.rx_unlocked[start:end] = True
        return
    overlap = lte_tx[start:end]
    stomp = int(np.argmax(overlap)) if overlap.any() else end - start
    trace.rx_locked[start:start + stomp] = True
    trace.rx_unlocked[start + stomp:end] = True


def ref_poisson_traffic(lte_tx, busy_mask, rate_fps, frame_us, kind, rng,
                        resolution_us=50):
    n_ticks = len(lte_tx)
    trace = silent_trace(n_ticks)
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
        ref_mark_frame(trace, start, frame_ticks, kind, lte_tx)
        free_at = start + frame_ticks
    return trace


def ref_saturated_traffic(lte_tx, busy_mask, frame_us, kind, rng, straddle_prob=0.0,
                          gap_us=(50.0, 200.0), resolution_us=50):
    n_ticks = len(lte_tx)
    trace = silent_trace(n_ticks)

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
                ref_mark_frame(trace, pos, frame_ticks, kind, lte_tx)
                pos += frame_ticks
            else:
                if rng.random() < straddle_prob:
                    ref_mark_frame(trace, pos, frame_ticks, kind, lte_tx)
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


def _short_runs(n_ticks: int) -> np.ndarray:
    """Busy runs of 1-3 ticks between idle runs of 1-3 ticks, shorter than most frames."""
    lengths = np.random.default_rng(3).integers(1, 4, size=n_ticks)
    return np.repeat(np.arange(n_ticks) % 2 == 0, lengths)[:n_ticks]


SHORT_RUNS = _short_runs(len(PUNCTURED_LTE))


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
        "short": SHORT_RUNS[:len(lte)],
    }


def assert_same_traffic(got, want, rng_got, rng_want):
    assert np.array_equal(got.tx, want.tx)
    assert np.array_equal(got.rx_locked, want.rx_locked)
    assert np.array_equal(got.rx_unlocked, want.rx_unlocked)
    assert rng_got.bit_generator.state == rng_want.bit_generator.state


n_ticks_st = st.integers(1, len(PUNCTURED_LTE))
busy_st = st.sampled_from(["lte", "clear", "all", "tail", "shifted", "short"])
kind_st = st.sampled_from(["rx", "tx"])
frame_us_st = st.one_of(
    st.floats(10.0, 6000.0),
    st.tuples(st.floats(10.0, 6000.0), st.floats(10.0, 6000.0)).map(lambda r: tuple(sorted(r))),
)


class TestRuns:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.booleans(), max_size=200))
    def test_coverage_redraws_a_mask(self, bits):
        mask = np.array(bits, dtype=bool)
        assert np.array_equal(coverage(*tick_runs(mask), len(mask)), mask)


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

    @settings(max_examples=40, deadline=None)
    @given(n_ticks=st.integers(20_000, len(PUNCTURED_LTE)),
           busy=st.sampled_from(["lte", "tail", "shifted", "short"]), kind=kind_st,
           load=st.sampled_from([0.25, 0.5, 0.9, 1.5, 4.0]),
           frame_us=st.floats(100.0, 1000.0), seed=st.integers(0, 2**32 - 1))
    def test_poisson_loads(self, n_ticks, busy, kind, load, frame_us, seed):
        # arrivals at a share of the idle ticks' capacity: light queues settle in
        # a few rounds, overloaded ones leave them for the per-arrival walk
        lte = PUNCTURED_LTE[:n_ticks]
        mask = busy_masks(lte)[busy]
        frame_ticks = max(1, round(frame_us / RESOLUTION_US))
        rate_fps = load * np.count_nonzero(~mask) / frame_ticks / (n_ticks * RESOLUTION_US / 1e6)
        rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
        got = poisson_traffic(lte, mask, rate_fps, frame_us, kind, rng_got)
        want = ref_poisson_traffic(lte, mask, rate_fps, frame_us, kind, rng_want)
        assert_same_traffic(got, want, rng_got, rng_want)

    @pytest.mark.parametrize("busy, rate_fps, walks", [
        ("lte", 833.0, False),  # a sensed light stream: settles in three rounds
        ("short", 400.0, False),
        ("lte", 8000.0, True),  # overloaded: a round raises most of the arrivals again
        ("short", 8000.0, True),
    ])
    def test_poisson_rounds_and_walk(self, monkeypatch, busy, rate_fps, walks):
        # the per-arrival walk is the only caller of bisect_right
        calls = []
        monkeypatch.setattr(phy, "bisect_right", lambda *a: calls.append(a) or bisect_right(*a))
        lte = PUNCTURED_LTE
        mask = busy_masks(lte)[busy]
        rng_got, rng_want = np.random.default_rng(13), np.random.default_rng(13)
        got = poisson_traffic(lte, mask, rate_fps, 222.0, "rx", rng_got)
        want = ref_poisson_traffic(lte, mask, rate_fps, 222.0, "rx", rng_want)
        assert_same_traffic(got, want, rng_got, rng_want)
        assert bool(calls) == walks

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


# ---------------------------------------------------------------------------
# Reference waveform generator and MAC-state sampler: one slice per cycle and
# per punctured slot, one normal draw call per noisy source, one float mean
# per state.  The library's versions must match them bit for bit, in the
# arrays and in the state they leave the generator in.  The reference
# sampler ORs any number of LTE sources per tick; the library samples one,
# and full_stack_check's stations are checked against this OR in
# test_multicell.py.
# ---------------------------------------------------------------------------

def ref_generate_waveform(csat, symbols, n_cycles=None):
    per_ms = 1000 // RESOLUTION_US
    cycle_ticks = csat.cycle_ms * per_ms
    on_ticks = round(csat.on_ms * per_ms)

    placed = []
    cycle, offset_ms = 0, 0
    for sched in symbols:
        trailing = 0
        while sched.symbol_ms - 1 - trailing in sched.positions:
            trailing += 1
        span = sched.symbol_ms - trailing
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
    for c in range(total_cycles):
        tx[c * cycle_ticks:c * cycle_ticks + on_ticks] = True

    last_footprint = {}
    for c, off_ms, sched in placed:
        base = c * cycle_ticks + off_ms * per_ms
        for slot in sched.positions:
            tx[base + slot * per_ms:base + (slot + 1) * per_ms] = False
        last_footprint[c] = (off_ms + sched.symbol_ms) * per_ms

    run_limit = MAX_ON_RUN_MS * per_ms
    chunk = (MAX_ON_RUN_MS - SAFETY_GAP_MS) * per_ms
    gap = SAFETY_GAP_MS * per_ms
    for c in range(total_cycles):
        start = c * cycle_ticks + last_footprint.get(c, 0)
        end = c * cycle_ticks + on_ticks
        if start >= end:
            continue
        carry = 0
        t = start
        while t > c * cycle_ticks and tx[t - 1]:
            carry += 1
            t -= 1
        pos = start
        while pos < end:
            if carry + (end - pos) <= run_limit:
                break
            budget = chunk - carry
            if budget < 0:
                raise SchedulingError("symbol leaves no room for a safety gap")
            tx[pos + budget:min(pos + budget + gap, end)] = False
            pos += budget + gap
            carry = 0

    return Waveform(csat, tx)


def ref_sample_mac_states(waveforms, links, traffic=None, ed_noise_sigma_db=0.0, rng=None):
    n_ticks = max(w.n_ticks for w in waveforms)
    detect = np.zeros(n_ticks, dtype=bool)
    for wave, link in zip(waveforms, links):
        on = np.zeros(n_ticks, dtype=bool)
        on[:wave.n_ticks] = wave.tx
        level = link.mean_rx_dbm()
        theta = link.ed_threshold_dbm
        if ed_noise_sigma_db > 0:
            margin = 8.0 * ed_noise_sigma_db
            if level - theta >= margin:
                detect |= on
            elif theta - level < margin:
                noisy = level + rng.normal(0.0, ed_noise_sigma_db, size=n_ticks)
                detect |= on & (noisy >= theta)
        elif level >= theta:
            detect |= on
    if traffic is None:
        traffic = silent_trace(n_ticks)

    tx = traffic.tx
    rx = ~tx & traffic.rx_locked
    intf = ~tx & ~rx & (detect | traffic.rx_unlocked)
    idle = ~tx & ~rx & ~intf

    per_win = WINDOW_US // RESOLUTION_US
    n_win = n_ticks // per_win

    def frac(mask):
        return mask[:n_win * per_win].reshape(n_win, per_win).mean(axis=1)

    return MacStateSeries(WINDOW_US, frac(idle), frac(rx), frac(tx), frac(intf))


def assert_same_series(got, want, rng_got, rng_want):
    assert got.window_us == want.window_us
    for name in ("idle", "rx", "tx", "intf"):
        assert getattr(got, name).dtype == getattr(want, name).dtype, name
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert rng_got.bit_generator.state == rng_want.bit_generator.state


# ON times in ms: whole and fractional, short enough to refuse wide symbols,
# and long enough to need safety punctures; each is kept where duty <= 50%
ON_MS_CHOICES = (2, 5, 12, 12.6, 19, 19.2, 20, 20.35, 27, 38.5, 40, 58.5, 80)


@st.composite
def waveform_inputs(draw):
    scheme = SCHEMES[draw(st.sampled_from(sorted(SCHEMES)))]
    cycle_ms = draw(st.sampled_from(CYCLE_CHOICES))
    on_ms = draw(st.sampled_from([on for on in ON_MS_CHOICES if on <= cycle_ms / 2]))
    symbol = st.one_of(
        st.sampled_from(preamble_schedules(scheme)),
        st.integers(0, scheme.alphabet_size - 1).map(lambda v: encode_symbol(v, scheme)),
    )
    symbols = draw(st.lists(symbol, max_size=6))
    n_cycles = draw(st.one_of(st.none(), st.integers(0, 8)))
    return CsatConfig(cycle_ms, on_ms), symbols, n_cycles


class TestWaveformMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(inputs=waveform_inputs())
    def test_generate_waveform(self, inputs):
        csat, symbols, n_cycles = inputs
        try:
            want = ref_generate_waveform(csat, symbols, n_cycles)
        except SchedulingError as exc:
            with pytest.raises(SchedulingError, match=re.escape(str(exc))):
                generate_waveform(csat, symbols, n_cycles)
            return
        got = generate_waveform(csat, symbols, n_cycles)
        assert got.csat == want.csat
        assert got.tx.dtype == want.tx.dtype
        assert np.array_equal(got.tx, want.tx)

    @pytest.mark.parametrize("cycle_ms, on_ms, n_cycles", [
        (40, 12, None),  # a wide20 symbol's 20 ms span does not fit
        (40, 20, 1),  # two wide20 symbols need two cycles
    ])
    def test_scheduling_errors(self, cycle_ms, on_ms, n_cycles):
        symbols = [encode_symbol(v, SCHEMES["wide20"]) for v in (0, 1)]
        csat = CsatConfig(cycle_ms, on_ms)
        with pytest.raises(SchedulingError) as want:
            ref_generate_waveform(csat, symbols, n_cycles)
        with pytest.raises(SchedulingError, match=re.escape(str(want.value))):
            generate_waveform(csat, symbols, n_cycles)


# how far each source's mean power sits from its ED threshold, in units of
# sigma: exactly at and just beyond the 8-sigma margin on either side
OFFSET_SIGMAS = (-20.0, -8.5, -8.0, -3.0, -0.5, 0.0, 0.5, 3.0, 8.0, 8.5, 20.0)


@st.composite
def sampler_inputs(draw):
    sigma = draw(st.sampled_from([0.0, 0.25, 0.6, 2.0]))
    n_ticks = draw(st.integers(1, len(PUNCTURED_LTE)))
    wave = Waveform(CsatConfig(40, 20), PUNCTURED_LTE[:n_ticks])
    offset_db = draw(st.sampled_from(OFFSET_SIGMAS)) * (sigma if sigma > 0 else 0.5)
    link = link_at(-60.0, ed_threshold_dbm=-60.0 - offset_db)
    kind = draw(st.sampled_from(["none", "tx", "rx", "both"]))
    masks = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((3, n_ticks)) < 0.3
    if kind == "none":
        traffic = None
    else:
        traffic = silent_trace(n_ticks)
        if kind in ("tx", "both"):
            traffic.tx = masks[0]
        if kind in ("rx", "both"):
            traffic.rx_locked, traffic.rx_unlocked = masks[1], masks[2]
    return wave, link, traffic, sigma


def test_saturated_half_tick_bursts_round_half_to_even():
    # every burst is 2.5 ticks: round() makes it 2, rounding half up would make it 3
    lte = PUNCTURED_LTE
    rng_got, rng_want = np.random.default_rng(12), np.random.default_rng(12)
    got = saturated_traffic(lte, lte, (125.0, 125.0), "tx", rng_got, 0.5)
    want = ref_saturated_traffic(lte, lte, (125.0, 125.0), "tx", rng_want, 0.5)
    assert_same_traffic(got, want, rng_got, rng_want)


def in_noise_band(link: RadioLink, sigma: float) -> bool:
    """Whether the sampler draws ED noise for a source: within 8 sigma of its threshold."""
    margin = 8.0 * sigma
    level, theta = link.mean_rx_dbm(), link.ed_threshold_dbm
    return sigma > 0 and level - theta < margin and theta - level < margin


def window_codes(series: MacStateSeries) -> np.ndarray:
    """The per-window state codes of a series of fractions."""
    n = WINDOW_US // RESOLUTION_US
    return sum(CODE_BASE**k * np.rint(n * getattr(series, name)).astype(np.uint8)
               for k, name in enumerate(("rx", "tx", "intf")))


class TestSamplerMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(inputs=sampler_inputs(), seed=st.integers(0, 2**32 - 1))
    def test_sample_mac_states(self, inputs, seed):
        wave, link, traffic, sigma = inputs
        rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_mac_states(wave, link, traffic, sigma, rng_got)
        want = ref_sample_mac_states([wave], [link], traffic, sigma, rng_want)
        assert got.codes.dtype == np.uint8
        assert_partition(got)
        if not in_noise_band(link, sigma):
            # no noise is drawn: the same codes, fractions and generator state
            assert np.array_equal(got.codes, window_codes(want))
            assert_same_series(got, want, rng_got, rng_want)
            return
        # the source's open ticks bound the intf count: none of them
        # detected (threshold far above) and all of them (far below)
        never, always = (
            ref_sample_mac_states(
                [wave], [replace(link, ed_threshold_dbm=link.ed_threshold_dbm + shift)],
                traffic, sigma)
            for shift in (1e3, -1e3))
        lo, hi = (window_codes(b).astype(int) // CODE_BASE**2 for b in (never, always))
        want_codes = window_codes(want)
        # only the intf counts differ, each by at most the window's open ticks
        assert np.array_equal(got.codes % CODE_BASE**2, want_codes % CODE_BASE**2)
        intf, want_intf = got.codes // CODE_BASE**2, want_codes // CODE_BASE**2
        assert np.all(np.abs(intf.astype(int) - want_intf) <= hi - lo)
        assert np.all((lo <= intf) & (intf <= hi))
        assert np.all((lo <= want_intf) & (want_intf <= hi))

    def test_waveforms_are_left_unchanged(self):
        wave = Waveform(CsatConfig(40, 20), PUNCTURED_LTE.copy())
        sample_mac_states(wave, link_at(-62.0), None, 0.6, np.random.default_rng(0))
        assert np.array_equal(wave.tx, PUNCTURED_LTE)


# upper 0.1% points of the chi-square distribution with 1..5 degrees of freedom
CHI2_999 = {1: 10.828, 2: 13.816, 3: 16.266, 4: 18.467, 5: 20.515}


class TestNoiseCountsAreBinomial:
    """In the noise band, a window with n open LTE ticks gets Binomial(n, p)
    of them as intf, p = Phi((level - threshold) / sigma), in both the
    per-window sampler and the per-tick reference."""

    WINDOWS = 20_000

    @pytest.mark.parametrize("sampler", [
        sample_mac_states,
        lambda wave, link, *args: ref_sample_mac_states([wave], [link], *args),
    ], ids=["per-window", "per-tick"])
    @pytest.mark.parametrize("offset_sigmas", [-0.5, 0.0, 0.5])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_chi_square(self, sampler, offset_sigmas, n):
        per_win = WINDOW_US // RESOLUTION_US
        tx = np.zeros((self.WINDOWS, per_win), dtype=bool)
        tx[:, :n] = True
        sigma = 0.6
        link = link_at(-60.0, ed_threshold_dbm=-60.0 - offset_sigmas * sigma)
        series = sampler(Waveform(CsatConfig(40, 20), tx.ravel()), link, None, sigma,
                         np.random.default_rng(100 + n))
        counts = np.bincount(np.rint(per_win * series.intf).astype(int), minlength=n + 1)
        p = 0.5 * math.erfc(-offset_sigmas / math.sqrt(2.0))
        expected = self.WINDOWS * np.array(
            [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)])
        assert expected.min() >= 5  # every bin large enough for the chi-square test
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # p is given, not fitted: n + 1 bins leave n degrees of freedom
        assert chi2 < CHI2_999[n], (counts, expected)


class TestNoiseModelsAgreeOnFer:
    """Over SEEDS seeds of FRAMES-frame clear streams, the FER of every
    point of the default ED sweeps at registers 3 and 28 lies inside the
    Wilson interval of the per-tick model's FER.  Clear streams are sampled
    from per-window transmit counts; the per-tick model lays each window's
    count as its first ticks.  The two models draw the same payloads and
    lead-ins, since those come before the noise."""

    SEEDS = 8
    FRAMES = 5

    @pytest.mark.parametrize("theta", [3, 28])
    def test_default_sweep_points(self, theta):
        config = ReceiverConfig(SCHEMES["wide20"], CsatConfig(40, 20))
        per_win = WINDOW_US // RESOLUTION_US

        def per_tick(counts, link, traffic, ed_noise_sigma_db, rng):
            tx = (np.arange(per_win) < counts[:, None]).ravel()
            return ref_sample_mac_states([Waveform(config.csat, tx)], [link], traffic,
                                         ed_noise_sigma_db, rng)

        def frame_errors(sampler):
            with mock.patch.object(experiments, "sample_window_counts", sampler):
                return [
                    sum(run_stream(config, RadioLink.at_rx_power(power, ed_register=theta),
                                   "clear", self.FRAMES, np.random.default_rng([seed, theta, i]))[0]
                        for seed in range(self.SEEDS))
                    for i, power in enumerate(default_power_sweep(theta))
                ]

        n = self.SEEDS * self.FRAMES
        for got, want in zip(frame_errors(sample_window_counts), frame_errors(per_tick)):
            lo, hi = wilson_interval(want, n)
            assert lo <= got / n <= hi, (got, want)


class TestMacStateDigests:
    """sha256 of one seeded stream's MacStateSeries and final generator state.

    A 3-frame wide20 stream at -60.5 dBm against the -62 dBm threshold of
    register 28, with 0.6 dB ED noise, so every scenario draws the ED noise
    (one uniform per window) and the traffic scenarios draw their
    arrivals, gaps, bursts and straddles.  No BLAS call is involved, so the
    digests hold on any CPU.  They pin the draw order of the traffic
    generators and the sampler.
    """

    @staticmethod
    def digest(scenario: str, sensed: bool) -> str:
        scheme = SCHEMES["wide20"]
        schedules = []
        for network_id in (0x0A00002A, 0x12345678, 0x7FFFFFFF):
            schedules += build_frame(network_id, (1, 2, 3, 4, 5, 6), scheme).schedules()
        wave = generate_waveform(CsatConfig(40, 20), schedules).with_lead_in(7)
        link = link_at(-60.5, ed_register=28)
        rng = np.random.default_rng(7)
        busy = wave.tx if sensed else np.zeros(wave.n_ticks, dtype=bool)
        traffic = scenario_traffic(scenario, wave.tx, busy, rng)
        series = sample_mac_states(wave, link, traffic, ed_noise_sigma_db=0.6, rng=rng)
        h = hashlib.sha256()
        for arr in (series.idle, series.rx, series.tx, series.intf):
            h.update(arr.tobytes())
        h.update(json.dumps(rng.bit_generator.state, sort_keys=True).encode())
        return h.hexdigest()

    @pytest.mark.parametrize("scenario, digest", [
        ("clear",
         "63fc9a09b32b55c49b8dc705f280424be093e74fdb41b04b037aee93adf090a9"),
        ("background-light",
         "f1862c3dec01b7c0e8e24e27cc70491e0a7b296f6e30beb9bfcbb518dc72482f"),
        ("background-high",
         "0d3859dada8724b1cbac7e845d888111b100e08e93e35f7df0040ce3af41a394"),
        ("apdl-light",
         "e72d5fce41a9cc4ea01d0ada3a592a0cd4012b1fd5ca30afbe8a6eb79b3bbb41"),
        ("apdl-high",
         "524d33032b79e6ad77e4d08c045fc8c934b6a372e84f1c473cc502ec6d840219"),
    ], ids=["clear", "background-light", "background-high", "apdl-light", "apdl-high"])
    def test_digest(self, scenario, digest):
        # the WiFi sender defers to the LTE transmissions
        assert self.digest(scenario, sensed=True) == digest

    @pytest.mark.parametrize("scenario, digest", [
        ("background-light",
         "ab9e361036619bbd58a5edf0910a57ffe5c596f0a4a1341baa52343fbef4e730"),
        ("apdl-light",
         "226524554a02709a68a740aca629f425c0faceeebe7bba1a8425b0a50484f564"),
    ], ids=["background-light", "apdl-light"])
    def test_unsensed_digest(self, scenario, digest):
        # the all-False busy mask of a stream below the ED threshold
        assert self.digest(scenario, sensed=False) == digest
