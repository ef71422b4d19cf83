"""Receiver tests: cleaning rules, synchronization, streaming demodulation,
the scan against a per-sample oracle, and the error-rate metrics."""

import bisect
import functools
import itertools
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctclink.codec import (
    build_frame,
    default_schemes,
    encode_symbol,
    frame_symbol_count,
    get_scheme,
    preamble_schedules,
)
from ctclink import demod as demod_module
from ctclink.demod import (
    CODE_CLEANED,
    CODE_SAMPLES,
    CORR_SCALE,
    FEED_BLOCK,
    SAMPLE_SCALE,
    TAU1,
    TAU2,
    TAU3,
    Demodulator,
    ReceiverConfig,
    _receiver_scan,
    clean_signal,
    demodulate,
    measure_fer_ser,
)
from ctclink.experiments import DEFAULT_ED_NOISE_SIGMA_DB, SCENARIOS, scenario_traffic
from ctclink.phy import (
    CODE_BASE,
    CYCLE_CHOICES,
    RESOLUTION_US,
    WINDOW_US,
    CsatConfig,
    MacStateSeries,
    Waveform,
    generate_waveform,
    sample_mac_states,
    sample_window_counts,
)
from ctclink.radio import RadioLink

CONFIGS = {
    "wide20": CsatConfig(40, 20),
    "short12": CsatConfig(40, 12),
    "multi20-k1": CsatConfig(80, 19),
    "multi20-k4": CsatConfig(80, 19),
    "multi20-k3": CsatConfig(40, 20),
}

NETWORK_ID = 0x1234ABCD
CLUSTERS = (11, 22, 33, 44, 55, 66)


@functools.lru_cache(maxsize=None)
def make_config(name: str) -> ReceiverConfig:
    return ReceiverConfig(get_scheme(name), CONFIGS[name])


def transmit(name: str, n_frames: int = 1, lead_windows: int = 0, distance_m: float = 5.0,
             lead_ticks: int = 0):
    """Sampled MAC states of n_frames back-to-back frames plus the TX log."""
    scheme = get_scheme(name)
    stream = build_frame(NETWORK_ID, CLUSTERS, scheme)
    schedules = list(stream.schedules()) * n_frames
    wave = generate_waveform(CONFIGS[name], schedules)
    if lead_windows or lead_ticks:
        wave = wave.with_lead_in(lead_windows * 5 + lead_ticks)
    series = sample_mac_states(wave, RadioLink(distance_m=distance_m))
    return stream, series


def window(rx: float, tx: float, intf: float) -> MacStateSeries:
    """A one-window series of the given fractions; idle fills the rest."""
    n = CODE_BASE - 1
    idle = (n - round(n * rx) - round(n * tx) - round(n * intf)) / n
    return MacStateSeries(250, *(np.array([f]) for f in (idle, rx, tx, intf)))


def cleaned_windows(*windows) -> list[float]:
    return [clean_signal(window(*w))[0] for w in windows]


class TestCleaning:
    def test_confident_windows_saturate(self):
        # no rx/tx/idle share passes TAU3 in the silent window
        assert cleaned_windows((0.0, 0.0, 1.0), (0.4, 0.4, 0.0)) == [0.5, -0.5]

    def test_ambiguous_window_keeps_fraction(self):
        assert cleaned_windows((0.0, 0.0, 0.6)) == [0.6 - 0.5]

    def test_thresholds_are_strict(self):
        # exactly at TAU1 interference does not saturate, and at 1 - TAU2
        # silence does not
        assert cleaned_windows((0.0, 0.0, 0.8)) == [0.8 - 0.5]
        assert cleaned_windows((0.4, 0.0, 0.2)) == [0.2 - 0.5]

    def test_wifi_dominated_windows_forced_to_silence(self):
        assert cleaned_windows((0.0, 0.0, 0.4), (0.6, 0.0, 0.4), (0.0, 0.6, 0.4)) == [-0.5] * 3


def ref_clean_signal(series) -> np.ndarray:
    """The cleaning rules one at a time, each a boolean-index assignment,
    on any object with idle, rx, tx and intf fraction arrays."""
    s = series.intf.astype(np.float64).copy()
    s[s > TAU1] = 1.0
    s[(1.0 - s) > TAU2] = 0.0
    s[series.rx > TAU3] = 0.0
    s[series.tx > TAU3] = 0.0
    s[series.idle > TAU3] = 0.0
    return s - 0.5


# the (rx, tx, intf) tick counts of every window, and its state code
N_TICKS = CODE_BASE - 1
WINDOW_COUNTS = [(rx, tx, intf) for rx, tx, intf in itertools.product(range(N_TICKS + 1), repeat=3)
                 if rx + tx + intf <= N_TICKS]
VALID_CODES = [rx + CODE_BASE * tx + CODE_BASE**2 * intf for rx, tx, intf in WINDOW_COUNTS]


class TestCleaningMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(windows=st.lists(st.sampled_from(WINDOW_COUNTS), max_size=40))
    def test_clean_signal(self, windows):
        rx, tx, intf = np.array(windows, dtype=np.int64).reshape(-1, 3).T
        idle, rx, tx, intf = (k / N_TICKS for k in (N_TICKS - rx - tx - intf, rx, tx, intf))
        series = MacStateSeries(250, idle, rx, tx, intf)
        want = ref_clean_signal(SimpleNamespace(idle=idle, rx=rx, tx=tx, intf=intf))
        got = clean_signal(series)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert np.array_equal(series.intf, intf)  # the input is left as it was

    def test_sampled_series(self):
        # a sampled series is cleaned by lookup as the rules clean its fractions
        series = noisy_series("multi20-k3", CONFIGS["multi20-k3"], make_config("multi20-k3"), 3)
        want = ref_clean_signal(series)
        assert len(np.unique(want)) > 2
        assert clean_signal(series).tobytes() == want.tobytes()


class TestCodeTable:
    def test_every_window_cleans_as_its_fractions(self):
        assert len(WINDOW_COUNTS) == 56
        for (rx, tx, intf), code in zip(WINDOW_COUNTS, VALID_CODES):
            counts = {"idle": N_TICKS - rx - tx - intf, "rx": rx, "tx": tx, "intf": intf}
            fractions = {name: np.array([k / N_TICKS]) for name, k in counts.items()}
            want = ref_clean_signal(SimpleNamespace(**fractions))
            assert CODE_CLEANED[code:code + 1].tobytes() == want.tobytes(), counts
            assert CODE_SAMPLES[code] == np.rint(SAMPLE_SCALE * want)[0], counts
            # the code-backed window derives its fractions bit for bit
            coded = MacStateSeries.from_codes(np.array([code], dtype=np.uint8))
            for name, f in fractions.items():
                assert getattr(coded, name).tobytes() == f.tobytes()
            assert clean_signal(coded).tobytes() == want.tobytes()


class TestReceiverConfig:
    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_templates_are_binary_valued(self, name):
        cfg = make_config(name)
        assert cfg.templates.shape == (cfg.scheme.alphabet_size, cfg.samples_per_cycle)
        assert set(np.unique(cfg.templates)) == {-1.0, 1.0}
        assert set(np.unique(cfg.preamble)) == {-1.0, 1.0}

    def test_preamble_is_four_cycles(self):
        cfg = make_config("wide20")
        assert cfg.preamble_len == 4 * cfg.samples_per_cycle
        assert cfg.max_corr == pytest.approx(0.25 * cfg.preamble_len)
        assert cfg.tau_p == pytest.approx(0.75 * cfg.max_corr)

    def test_templates_distinct(self):
        cfg = make_config("short12")
        flat = {tuple(row) for row in cfg.templates}
        assert len(flat) == cfg.scheme.alphabet_size

    @pytest.mark.parametrize("name, cycle_ms, on_ms", [("wide20", 80, 24.4), ("short12", 40, 12.3)])
    def test_on_time_off_the_window_grid_rejected(self, name, cycle_ms, on_ms):
        with pytest.raises(ValueError, match="whole number of 250 us windows"):
            ReceiverConfig(get_scheme(name), CsatConfig(cycle_ms, on_ms))

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(list(CONFIGS)), cycle_ms=st.sampled_from(CYCLE_CHOICES),
           data=st.data())
    def test_whole_window_on_times_give_sign_references(self, name, cycle_ms, data):
        scheme = get_scheme(name)
        per_ms = 1000 // WINDOW_US
        lo, two = (per_ms * ms for ms in one_symbol_on_bounds(scheme))
        windows = data.draw(st.integers(lo, min(two - 1, cycle_ms * per_ms // 2)))
        cfg = ReceiverConfig(scheme, CsatConfig(cycle_ms, windows / per_ms))
        assert set(np.unique(cfg.templates)) <= {-1.0, 1.0}
        assert set(np.unique(cfg.preamble)) <= {-1.0, 1.0}
        # one window more has room for a second symbol's transmit span
        if two <= cycle_ms * per_ms // 2:
            with pytest.raises(ValueError, match="one symbol per ON phase"):
                ReceiverConfig(scheme, CsatConfig(cycle_ms, two / per_ms))


# rows of a cycle table laid at a time: a few MB of multi20-k9 ticks at 160 ms
ROW_BLOCK = 1024


class TestCycleTable:
    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(sorted(default_schemes())),
           cycle_ms=st.sampled_from(CYCLE_CHOICES), data=st.data())
    def test_rows_lay_as_generate_waveform(self, name, cycle_ms, data):
        scheme = get_scheme(name)
        per_ms = 1000 // WINDOW_US
        lo, two = (per_ms * ms for ms in one_symbol_on_bounds(scheme))
        windows = data.draw(st.integers(lo, min(two - 1, cycle_ms * per_ms // 2)))
        config = ReceiverConfig(scheme, CsatConfig(cycle_ms, windows / per_ms))
        values = tuple(data.draw(st.lists(st.integers(0, scheme.alphabet_size - 1), max_size=8)))
        per_win = WINDOW_US // RESOLUTION_US
        schedules = [*preamble_schedules(scheme), *(encode_symbol(v, scheme) for v in values)]
        got = config.cycle_windows(config.preamble_rows + values)
        assert got.dtype == bool
        assert np.array_equal(np.repeat(got, per_win), generate_waveform(config.csat, schedules).tx)
        # every row, values first and then the preamble's two schedules,
        # transmits on all ticks of its table windows and on no other tick
        table = [encode_symbol(v, scheme) for v in range(scheme.alphabet_size)]
        table += preamble_schedules(scheme)[:2]
        for lo in range(0, len(table), ROW_BLOCK):
            rows = range(lo, min(lo + ROW_BLOCK, len(table)))
            tx = generate_waveform(config.csat, table[lo:rows.stop]).tx
            assert np.array_equal(np.repeat(config.cycle_windows(rows), per_win), tx)


class TestWindowCountSampler:
    @pytest.mark.parametrize("cycle_ms", CYCLE_CHOICES)
    @pytest.mark.parametrize("name", sorted(default_schemes()))
    def test_counts_sample_as_their_ticks(self, name, cycle_ms):
        """sample_window_counts of rows' window counts, after a lead-in and
        with any scenario's traffic, equals sample_mac_states of their ticks
        in codes and generator state."""
        scheme = get_scheme(name)
        config = ReceiverConfig(scheme, CsatConfig(cycle_ms, one_symbol_on_bounds(scheme)[0]))
        per_win = WINDOW_US // RESOLUTION_US

        @settings(max_examples=25, deadline=None)
        @given(values=st.lists(st.integers(0, scheme.alphabet_size - 1), max_size=6),
               lead=st.integers(0, 2 * config.samples_per_cycle),
               scenario=st.sampled_from(SCENARIOS), sensed=st.booleans(),
               sigma=st.sampled_from([0.0, 0.6]),
               # sigmas (0.5 dB without noise) from the ED threshold: below,
               # at and inside the edges of the noise band, and above it
               offset=st.sampled_from([-20.0, -8.0, -7.5, -0.5, 0.0, 0.5, 7.5, 8.0, 20.0]),
               seed=st.integers(0, 2**32 - 1))
        def check(values, lead, scenario, sensed, sigma, offset, seed):
            rows = config.preamble_rows + tuple(values)
            counts = np.concatenate([np.zeros(lead, dtype=np.uint8),
                                     config.cycle_windows(rows).view(np.uint8) * np.uint8(per_win)])
            wave = Waveform(config.csat, np.repeat(counts > 0, per_win))
            busy = wave.tx if sensed else np.zeros(wave.n_ticks, dtype=bool)
            traffic = scenario_traffic(scenario, wave.tx, busy, np.random.default_rng([seed, 1]))
            link = RadioLink.at_rx_power(-60.0, ed_threshold_dbm=-60.0 - offset * (sigma or 0.5))
            rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sample_window_counts(counts, link, traffic, sigma, rng_got)
            want = sample_mac_states(wave, link, traffic, sigma, rng_want)
            assert got.codes.dtype == np.uint8
            assert np.array_equal(got.codes, want.codes)
            assert rng_got.bit_generator.state == rng_want.bit_generator.state

        check()


def one_symbol_on_bounds(scheme) -> tuple[int, int]:
    """(longest transmit span of a symbol, symbol plus the shortest span) in
    ms: ON times from the first up to below the second hold one symbol."""
    tail = scheme.style == "tail"
    longest = scheme.symbol_ms - (scheme.mandatory_ms if tail else 0)
    shortest = scheme.symbol_ms - scheme.mandatory_ms - (scheme.extra_punctures if tail else 0)
    return longest, scheme.symbol_ms + shortest


def prototype_references(config: ReceiverConfig, schedules) -> np.ndarray:
    """The per-value reference build: signs of each schedule's cleaned
    one-cycle reference, from one pipeline run of a one-cycle waveform each."""
    link = RadioLink(distance_m=1.0)
    return np.stack([
        2.0 * CODE_CLEANED[sample_mac_states(generate_waveform(config.csat, [s], n_cycles=1),
                                             link).codes]
        for s in schedules
    ])


def assert_references_match_prototypes(config: ReceiverConfig) -> None:
    scheme = config.scheme
    values = range(scheme.alphabet_size)
    want = prototype_references(config, [encode_symbol(v, scheme) for v in values])
    assert np.array_equal(config.templates, want)
    want = prototype_references(config, preamble_schedules(scheme)).ravel()
    assert np.array_equal(config.preamble, want)


# every built-in scheme whose per-value reference build stays cheap
ORACLE_SCHEMES = tuple(n for n, s in default_schemes().items() if s.alphabet_size <= 2048)


class TestReferencesAgainstPrototypes:
    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(ORACLE_SCHEMES), cycle_ms=st.sampled_from(CYCLE_CHOICES),
           data=st.data())
    def test_batched_references_equal_per_value_ones(self, name, cycle_ms, data):
        scheme = get_scheme(name)
        per_ms = 1000 // WINDOW_US
        lo, two = (per_ms * ms for ms in one_symbol_on_bounds(scheme))
        windows = data.draw(st.integers(lo, min(two - 1, cycle_ms * per_ms // 2)))
        assert_references_match_prototypes(
            ReceiverConfig(scheme, CsatConfig(cycle_ms, windows / per_ms))
        )

    # wide20's ON phases longer than its symbol carry safety punctures that
    # depend on where the symbol's last transmit run ends
    @pytest.mark.parametrize("name, cycle_ms, on_ms", [
        ("wide20", 80, 30), ("wide20", 80, 36), ("wide20", 160, 30), ("multi20-k9", 40, 20),
    ])
    def test_fixed_cases(self, name, cycle_ms, on_ms):
        config = ReceiverConfig(get_scheme(name), CsatConfig(cycle_ms, on_ms))
        assert_references_match_prototypes(config)


class TestLoopback:
    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_noiseless_roundtrip(self, name):
        stream, series = transmit(name, n_frames=2)
        frames = demodulate(series, make_config(name))
        assert len(frames) == 2
        for f in frames:
            assert f.complete
            assert f.symbols == tuple(stream.data)
            assert f.frame is not None and f.frame.all_ok
            assert f.frame.network_id == NETWORK_ID
            assert f.frame.cluster_ids == CLUSTERS

    @pytest.mark.parametrize("lead", [1, 3, 17, 64])
    def test_start_offset_does_not_matter(self, lead):
        stream, series = transmit("wide20", lead_windows=lead)
        cfg = make_config("wide20")
        frames = demodulate(series, cfg)
        assert len(frames) == 1
        assert frames[0].frame.all_ok
        assert frames[0].sync_t == lead + cfg.preamble_len - 1
        assert frames[0].peak_corr == pytest.approx(cfg.max_corr)

    def test_sync_spacing_matches_frame_length(self):
        _, series = transmit("wide20", n_frames=3)
        cfg = make_config("wide20")
        frames = demodulate(series, cfg)
        per_frame = (4 + frame_symbol_count(cfg.scheme)) * cfg.samples_per_cycle
        assert [f.sync_t for f in frames] == [
            cfg.preamble_len - 1 + i * per_frame for i in range(3)
        ]

    def test_below_detection_threshold_yields_nothing(self):
        _, series = transmit("wide20", distance_m=100.0)
        cfg = make_config("wide20")
        assert demodulate(series, cfg) == []

    def test_accepts_cleaned_array_directly(self):
        _, series = transmit("short12")
        cfg = make_config("short12")
        a = demodulate(series, cfg)
        b = demodulate(clean_signal(series), cfg)
        assert a == b


class TestStreaming:
    @pytest.mark.parametrize("chunk", [137, 4000])
    def test_chunked_equals_oneshot(self, chunk):
        _, series = transmit("wide20", n_frames=2, lead_windows=9)
        cfg = make_config("wide20")
        cleaned = clean_signal(series)
        oneshot = demodulate(cleaned, cfg)
        demod = Demodulator(cfg)
        frames = []
        for i in range(0, len(cleaned), chunk):
            frames.extend(demod.feed(cleaned[i:i + chunk]))
        frames.extend(demod.finish())
        assert frames == oneshot

    def test_chunks_smaller_than_preamble(self):
        _, series = transmit("short12")
        cfg = make_config("short12")
        cleaned = clean_signal(series)
        demod = Demodulator(cfg)
        frames = []
        step = cfg.preamble_len // 3
        for i in range(0, len(cleaned), step):
            frames.extend(demod.feed(cleaned[i:i + step]))
        frames.extend(demod.finish())
        assert frames == demodulate(cleaned, cfg)

    def test_stream_ending_mid_frame_is_truncated(self):
        scheme = get_scheme("wide20")
        stream = build_frame(NETWORK_ID, CLUSTERS, scheme)
        schedules = list(stream.schedules())[: 4 + 30]
        wave = generate_waveform(CONFIGS["wide20"], schedules)
        series = sample_mac_states(wave, RadioLink(distance_m=5.0))
        cfg = make_config("wide20")
        demod = Demodulator(cfg)
        assert demod.feed(series) == []
        (frame,) = demod.finish()
        assert not frame.complete
        assert frame.frame is None
        assert frame.symbols == tuple(stream.data[:30])
        assert demod.finish() == []

    @pytest.mark.parametrize("lead_ticks, n_complete", [(4, 2), (5, 3)])
    def test_frame_needs_its_last_full_window(self, lead_ticks, n_complete):
        # the sampler keeps whole 5-tick windows only: a 4-tick lead-in
        # pushes the last frame's final window past the end of the stream
        stream, series = transmit("wide20", n_frames=3, lead_ticks=lead_ticks)
        frames = demodulate(series, make_config("wide20"))
        assert [f.complete for f in frames] == [True] * n_complete + [False] * (3 - n_complete)
        assert all(f.frame.all_ok for f in frames[:n_complete])
        if n_complete < 3:
            assert frames[-1].symbols == tuple(stream.data[:-1])

    def test_feed_after_finish_starts_clean(self):
        _, series = transmit("wide20")
        cfg = make_config("wide20")
        demod = Demodulator(cfg)
        demod.feed(series)
        demod.finish()
        frames = demod.feed(series)
        frames.extend(demod.finish())
        assert len(frames) == 1 and frames[0].frame.all_ok


class TestResync:
    def test_later_stronger_preamble_wins(self):
        cfg = make_config("wide20")
        stream = build_frame(NETWORK_ID, CLUSTERS, cfg.scheme)
        # templates and preamble are signs; a clean sample is half of one
        body = np.concatenate([0.5 * cfg.templates[v] for v in stream.data])
        weak = 0.4 * cfg.preamble
        cleaned = np.concatenate([
            np.full(200, -0.5), weak, 0.5 * cfg.preamble, body, np.full(200, -0.5),
        ])
        frames = demodulate(cleaned, cfg)
        complete = [f for f in frames if f.complete]
        assert len(complete) == 1
        frame = complete[0]
        assert frame.frame.all_ok
        assert frame.sync_t == 200 + 2 * cfg.preamble_len - 1
        assert frame.peak_corr == pytest.approx(cfg.max_corr)
        assert frame.symbols == tuple(stream.data)
        # the receiver may re-arm on preamble-like data near the stream end,
        # but whatever it collects stays marked incomplete
        assert all(not f.frame.all_ok for f in frames if f.complete and f is not frame)


def exact_correlation(x, reference):
    """Integer np.correlate of x with a reference, aligned as
    ReceiverConfig.preamble_correlation: -inf where the window is short."""
    x = np.asarray(x).astype(np.int64)
    out = np.full(len(x), -np.inf)
    if len(x) >= len(reference):
        out[len(reference) - 1:] = np.correlate(x, np.asarray(reference).astype(np.int64), "valid")
    return out


def oracle_scan(x, pre_corr, templates, W, L, tau_p, history=None):
    """The receiver's state machine run one sample at a time, in exact arithmetic.

    The reference for the event-jumping scan in demod: every sample is
    visited and the state changes exactly as the scan documents.  x and
    templates hold integers, pre_corr integers or -inf.  A decode takes its
    correlations as Python ints, one window at a time, and picks the first
    maximum with an explicit loop, so no rounding and no summation order
    is involved.  With ``history`` a list, (t, state) is appended after
    every sample that changed the state.
    """
    xi = np.asarray(x).astype(np.int64)
    rows = np.asarray(templates).astype(np.int64)
    assert np.array_equal(xi, x) and np.array_equal(rows, templates)
    s, R, t0, l, anchor, partial = 0, 0.0, 0, 0, 0, []
    frames = []
    for t, r in enumerate(np.asarray(pre_corr).tolist()):
        if s == 0:
            if r < tau_p:
                continue
            s, R, t0, l, anchor, partial = 1, r, t, 0, t, []
        elif r >= R:
            R, t0, l, anchor, partial = r, t, 0, t, []
        elif t - t0 == W:
            corr = (rows @ xi[t - W + 1:t + 1]).tolist()
            best_v = 0
            for v, acc in enumerate(corr):
                if acc > corr[best_v]:
                    best_v = v
            partial.append(best_v)
            l += 1
            t0 = t
            if l == L:
                frames.append((anchor, R, tuple(partial)))
                s, l, partial = 0, 0, []
        else:
            continue
        if history is not None:
            history.append((t, (s, R, t0, l, anchor, tuple(partial))))
    return frames, (s, R, t0, l, anchor, tuple(partial))


def oracle_decode(cleaned, config, history=None):
    """One-shot oracle frames as (sync_t, peak, symbols, complete), with a
    stream that ends mid-frame giving that frame truncated.  The peak is in
    the cleaned domain, as DecodedFrame.peak_corr; the history in the
    receiver's integer units."""
    x = np.rint(SAMPLE_SCALE * np.asarray(cleaned, dtype=np.float64))
    frames, (s, R, _t0, l, anchor, partial) = oracle_scan(
        x, exact_correlation(x, config.preamble), config.templates,
        config.samples_per_cycle, config.frame_symbols, CORR_SCALE * config.tau_p, history,
    )
    out = [(a, r / CORR_SCALE, symbols, True) for a, r, symbols in frames]
    if s == 1 and l > 0:
        out.append((anchor, R / CORR_SCALE, partial, False))
    return out


def oracle_state_at(history, cut):
    """The oracle's state after samples [0, cut), from its history."""
    i = bisect.bisect_left([t for t, _ in history], cut)
    return history[i - 1][1] if i else (0, 0.0, 0, 0, 0, ())


def as_tuples(frames):
    return [(f.sync_t, f.peak_corr, f.symbols, f.complete) for f in frames]


def scan_matches_oracle(x, pre, templates, W, L, tau, cuts=()):
    """The scan, resumed at each cut, against the one-shot oracle: the
    same frames, and the same state at every cut and at the end."""
    history = []
    expected, final = oracle_scan(x, pre, templates, W, L, tau, history)
    frames, state, start = [], None, 0
    for cut in [*cuts, len(x)]:
        # indices stay local to the whole array, so a prefix resumes exactly
        got, state = _receiver_scan(x[:cut], pre[:cut], templates, W, L, tau, start, state)
        frames += [(a, r, tuple(symbols)) for a, r, symbols in got]
        assert state == oracle_state_at(history, cut)
        start = cut
    assert frames == expected
    assert state == final
    return history


def _random_case(seed: int):
    rng = np.random.default_rng(seed)
    W, L, A = 6, 3, 4
    T = 600
    if seed % 2:
        x = rng.choice([-5.0, 5.0], size=T)
    else:
        x = rng.integers(-5, 6, size=T).astype(np.float64)
    pre = exact_correlation(x, rng.choice([-1, 1], size=4 * W))
    valid = pre[4 * W - 1:]
    tau = float(np.quantile(valid, 0.98)) if seed % 3 else float(valid.max()) + 1.0
    templates = rng.integers(-5, 6, size=(A, W)).astype(np.float64)
    return x, pre, templates, W, L, tau


def noisy_series(name: str, csat: CsatConfig, config: ReceiverConfig, seed: int):
    """MAC states of two and a half frames near the detection threshold,
    under saturated WiFi traffic and ED measurement noise.  The config
    holds one symbol per ON phase, so every symbol gets a cycle of its own.
    """
    rng = np.random.default_rng(seed)
    schedules = list(build_frame(NETWORK_ID, CLUSTERS, get_scheme(name)).schedules())
    schedules = schedules * 2 + schedules[:len(schedules) // 2]
    wave = generate_waveform(csat, schedules).with_lead_in(
        int(rng.integers(0, 5 * config.samples_per_cycle))
    )
    traffic = scenario_traffic("background-high", wave.tx, wave.tx, rng)
    link = RadioLink.at_rx_power(-61.0)
    return sample_mac_states(wave, link, traffic, ed_noise_sigma_db=0.6, rng=rng)


def noisy_loopback(name: str, csat: CsatConfig, config: ReceiverConfig, seed: int):
    """Cleaned capture of noisy_series."""
    return clean_signal(noisy_series(name, csat, config, seed))


class TestScanAgainstOracle:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_streams(self, seed):
        x, pre, templates, W, L, tau = _random_case(seed)
        T = len(x)
        cuts = (T // 3, T // 3 + 1, 2 * T // 3)
        scan_matches_oracle(x, pre, templates, W, L, tau, cuts)

    @pytest.mark.parametrize("seed", range(4))
    def test_ties_go_to_the_first_template(self, seed):
        # binary streams and templates give exact ties between templates
        rng = np.random.default_rng(100 + seed)
        W, L, A, T = 6, 4, 8, 600
        x = rng.choice([-1.0, 1.0], size=T)
        templates = rng.choice([-1.0, 1.0], size=(A, W))
        pre = exact_correlation(x, rng.choice([-1, 1], size=4 * W))
        history = scan_matches_oracle(x, pre, templates, W, L, 8.0)
        # states with symbols pending were set at decode instants
        decodes = [t for t, (_, _, _, l, _, _) in history if l]
        top_two = [np.sort(templates @ x[t - W + 1:t + 1])[-2:] for t in decodes]
        assert sum(a == b for a, b in top_two) >= 5

    @pytest.mark.parametrize("W", [1, 5, 7])
    def test_sync_found_at_every_offset(self, W):
        # one threshold crossing, placed at each index in turn, including
        # every edge of the doubling search blocks
        T, tau = 160, 1.0
        rng = np.random.default_rng(W)
        x = rng.integers(-5, 6, size=T).astype(np.float64)
        templates = rng.integers(-5, 6, size=(3, W)).astype(np.float64)
        for k in range(T):
            pre = np.full(T, -np.inf)
            pre[k] = tau
            scan_matches_oracle(x, pre, templates, W, 3, tau)

    def test_single_frame_sync_and_peak(self):
        _, series = transmit("wide20", lead_windows=40)
        cfg = make_config("wide20")
        cleaned = clean_signal(series)
        (frame,) = demodulate(cleaned, cfg)
        ((sync_t, peak, symbols, complete),) = oracle_decode(cleaned, cfg)
        assert frame.sync_t == sync_t == 40 + cfg.preamble_len - 1
        assert frame.peak_corr == peak == pytest.approx(cfg.max_corr)
        assert frame.symbols == symbols and frame.complete and complete

    def test_noisy_loopback(self):
        cfg = make_config("wide20")
        cleaned = noisy_loopback("wide20", CONFIGS["wide20"], cfg, seed=5)
        history = []
        expected = oracle_decode(cleaned, cfg, history)
        frames = demodulate(cleaned, cfg)
        assert as_tuples(frames) == expected
        # the capture holds re-syncs (anchors that start no frame), a frame
        # that fails its CRCs, and a truncated tail
        assert len({state[4] for _, state in history}) > len(expected)
        assert any(f.frame is not None and not f.frame.all_ok for f in frames)
        assert not expected[-1][3]


PROPERTY_SCHEMES = ("wide20", "short12", "multi20-k1", "multi20-k2", "multi20-k3", "multi20-k4")
PROPERTY_CYCLES_MS = (40, 80, 160)
# the large alphabets at one cycle length: their configs take the longest to build
PROPERTY_CASES = [(name, cycle_ms) for name in PROPERTY_SCHEMES for cycle_ms in PROPERTY_CYCLES_MS]
PROPERTY_CASES += [(f"multi20-k{k}", 40) for k in range(5, 10)]


@functools.lru_cache(maxsize=None)
def oracle_capture(name: str, cycle_ms: int):
    """(config, cleaned capture, oracle frames, oracle state history) at
    20 ms of ON time, which holds one symbol of every property scheme."""
    csat = CsatConfig(cycle_ms, 20)
    config = ReceiverConfig(get_scheme(name), csat)
    cleaned = noisy_loopback(name, csat, config, seed=cycle_ms + len(name))
    history = []
    return config, cleaned, oracle_decode(cleaned, config, history), history


class TestChunkingProperty:
    @pytest.mark.parametrize("name, cycle_ms", PROPERTY_CASES)
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_chunking_does_not_change_decoding(self, name, cycle_ms, data):
        config, cleaned, expected, history = oracle_capture(name, cycle_ms)
        n = len(cleaned)
        W = config.samples_per_cycle
        spread = data.draw(st.lists(st.integers(1, n - 1), max_size=12))
        # a run of small chunks, some shorter than the preamble
        base = data.draw(st.integers(0, n - 1))
        steps = data.draw(st.lists(st.integers(1, 2 * W), max_size=8))
        run = base + np.cumsum(steps, dtype=np.int64) if steps else []
        cuts = sorted({int(c) for c in [*spread, base, *run] if 0 < c < n})

        demod = Demodulator(config)
        frames, prev = [], 0
        for cut in [*cuts, n]:
            frames += demod.feed(cleaned[prev:cut])
            prev = cut
            s, R, t0, l, anchor, partial = demod._state
            g = demod._global0
            assert (s, R, t0 + g, l, anchor + g, partial) == oracle_state_at(history, cut)
        frames += demod.finish()
        assert as_tuples(frames) == expected


@functools.lru_cache(maxsize=None)
def code_capture(name: str, cycle_ms: int):
    """(config, sampled series) of the capture behind oracle_capture."""
    config = oracle_capture(name, cycle_ms)[0]
    return config, noisy_series(name, config.csat, config, seed=cycle_ms + len(name))


class TestCodeBackedFeed:
    @pytest.mark.parametrize("cycle_ms", PROPERTY_CYCLES_MS)
    @pytest.mark.parametrize("name", ("wide20", "multi20-k3"))
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_codes_decode_as_their_cleaned_floats(self, name, cycle_ms, data):
        config, series = code_capture(name, cycle_ms)
        n = series.n_samples
        cuts = sorted(set(data.draw(st.lists(st.integers(1, n - 1), max_size=12))))
        by_code, by_float = Demodulator(config), Demodulator(config)
        decoded, prev = 0, 0
        for cut in [*cuts, n]:
            chunk = MacStateSeries.from_codes(series.codes[prev:cut])
            got = by_code.feed(chunk)
            assert got == by_float.feed(ref_clean_signal(chunk))
            assert by_code._state == by_float._state
            assert by_code._global0 == by_float._global0
            assert by_code._carry.tobytes() == by_float._carry.tobytes()
            decoded += len(got)
            prev = cut
        tail = by_code.finish()
        assert tail == by_float.finish()
        assert decoded + len(tail) > 0


class TestFeedBlocks:
    """Demodulator.feed decodes a long chunk FEED_BLOCK windows at a time."""

    @pytest.mark.parametrize("name, cycle_ms", [("wide20", 40), ("multi20-k3", 80),
                                                ("short12", 160)])
    @settings(max_examples=6, deadline=None)
    @given(block=st.integers(16, 5000), kind=st.sampled_from(["codes", "fractions", "cleaned"]))
    def test_blocks_decode_as_one_call(self, name, cycle_ms, block, kind):
        config, series = code_capture(name, cycle_ms)
        chunk = {
            "codes": series,
            "fractions": MacStateSeries(series.window_us, series.idle, series.rx, series.tx,
                                        series.intf),
            "cleaned": clean_signal(series),
        }[kind]

        def decode(feed_block):
            demod = Demodulator(config)
            with mock.patch.object(demod_module, "FEED_BLOCK", feed_block):
                frames = demod.feed(chunk)
            state = (demod._state, demod._global0, demod._carry.tobytes())
            return frames + demod.finish(), state

        whole = decode(series.n_samples)
        assert decode(block) == whole
        assert as_tuples(whole[0]) == oracle_capture(name, cycle_ms)[2]

    def test_correlation_never_sees_more_than_a_block(self):
        config, series = code_capture("short12", 160)
        assert series.n_samples > 2 * FEED_BLOCK
        seen = []
        correlate = ReceiverConfig.preamble_correlation

        def spy(self, x):
            seen.append(len(x))
            return correlate(self, x)

        with mock.patch.object(ReceiverConfig, "preamble_correlation", spy):
            frames = demodulate(series, config)
        assert len(seen) == -(-series.n_samples // FEED_BLOCK)
        assert max(seen) <= FEED_BLOCK + config.preamble_len
        assert as_tuples(frames) == oracle_capture("short12", 160)[2]


def threshold_stream(name: str, scenario: str, power_dbm: float, seed: int, n_frames: int = 10):
    """Cleaned capture of a run_stream stream at ED register 3 (-92 dBm):
    frames of random payloads after a random lead-in, with fresh WiFi
    traffic and ED measurement noise."""
    config = make_config(name)
    rng = np.random.default_rng(seed)
    schedules = []
    for _ in range(n_frames):
        network_id = int(rng.integers(0, 1 << 32))
        clusters = tuple(int(c) for c in rng.integers(0, 1 << 16, size=6))
        schedules += build_frame(network_id, clusters, config.scheme).schedules()
    wave = generate_waveform(config.csat, schedules)
    wave = wave.with_lead_in(5 * int(rng.integers(0, 2 * config.samples_per_cycle)))
    link = RadioLink.at_rx_power(power_dbm, ed_register=3)
    busy = wave.tx if link.mean_rx_dbm() >= link.ed_threshold_dbm else np.zeros(wave.n_ticks, bool)
    traffic = scenario_traffic(scenario, wave.tx, busy, rng)
    series = sample_mac_states(
        wave, link, traffic, ed_noise_sigma_db=DEFAULT_ED_NOISE_SIGMA_DB, rng=rng
    )
    return clean_signal(series)


def tied_decisions(x, templates, history):
    """(decisions, decisions whose two best templates tie) over the decode
    instants in an oracle history."""
    rows = templates.astype(np.int64)
    W = templates.shape[1]
    decodes = [t for t, (_, _, t0, _, anchor, _) in history if t == t0 != anchor]
    if not decodes:
        return 0, 0
    windows = np.stack([x[t - W + 1:t + 1] for t in decodes]).astype(np.int64)
    top_two = np.sort(windows @ rows.T, axis=1)[:, -2:]
    return len(decodes), int(np.count_nonzero(top_two[:, 0] == top_two[:, 1]))


class TestPreambleCorrelation:
    @pytest.mark.parametrize("name", list(CONFIGS))
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_run_sums_equal_integer_correlate(self, name, data):
        config = make_config(name)
        N = config.preamble_len
        T = data.draw(st.integers(0, 3 * N))
        seed = data.draw(st.integers(0, 2**32 - 1))
        x = np.random.default_rng(seed).integers(-5, 6, size=T).astype(np.float64)
        expected = exact_correlation(x, config.preamble)
        assert np.array_equal(config.preamble_correlation(x), expected)
        # chunked as Demodulator.feed chunks it: each chunk after a carry of N samples
        cuts = data.draw(st.lists(st.integers(1, max(1, T - 1)), max_size=6))
        carry, prev, got = np.empty(0), 0, []
        for cut in [*sorted({c for c in cuts if c < T}), T]:
            buf = np.concatenate([carry, x[prev:cut]])
            got.append(config.preamble_correlation(buf)[len(carry):])
            carry, prev = buf[len(buf) - min(len(buf), N):], cut
        assert np.array_equal(np.concatenate(got), expected)

    def test_short_input_is_all_minus_infinity(self):
        config = make_config("short12")
        x = np.ones(config.preamble_len - 1)
        assert np.all(config.preamble_correlation(x) == -np.inf)
        assert config.preamble_correlation(np.empty(0)).shape == (0,)


class TestExactDecisions:
    def test_reversed_windows_and_templates_decide_alike(self):
        # one sync, then every later cycle is a decode window on a fixed grid
        config, cleaned, _, _ = oracle_capture("multi20-k3", 40)
        x = np.rint(SAMPLE_SCALE * cleaned)
        W, k = config.samples_per_cycle, config.preamble_len - 1
        L = (len(x) - 1 - k) // W
        pre = np.full(len(x), -np.inf)
        pre[k] = 1.0
        frames, _ = _receiver_scan(x, pre, config.templates, W, L, 1.0, 0, None)
        reversed_x = x.copy()
        reversed_x[k + 1:k + 1 + L * W] = x[k + 1:k + 1 + L * W].reshape(L, W)[:, ::-1].ravel()
        flipped, _ = _receiver_scan(
            reversed_x, pre, config.templates[:, ::-1], W, L, 1.0, 0, None
        )
        assert flipped == frames
        history = []
        expected, _ = oracle_scan(x, pre, config.templates, W, L, 1.0, history)
        assert [(a, r, tuple(symbols)) for a, r, symbols in frames] == expected
        n, ties = tied_decisions(x, config.templates, history)
        assert n == L and ties >= 5

    @pytest.mark.parametrize("name", ["wide20", "multi20-k3"])
    def test_threshold_streams_match_the_exact_oracle(self, name):
        config = make_config(name)
        decisions = ties = 0
        for scenario, power_dbm, seed in itertools.product(
            ("background-high", "apdl-high", "background-light"), (-91.5, -92.0, -92.5), range(3)
        ):
            cleaned = threshold_stream(name, scenario, power_dbm, seed)
            history = []
            expected = oracle_decode(cleaned, config, history)
            assert as_tuples(demodulate(cleaned, config)) == expected
            n, t = tied_decisions(np.rint(SAMPLE_SCALE * cleaned), config.templates, history)
            decisions += n
            ties += t
        # the streams hold many exact ties, each of them decided as the oracle does
        assert ties >= 0.02 * decisions

    def test_off_grid_input_decodes_as_its_rounding(self):
        config, cleaned, expected, _ = oracle_capture("wide20", 40)
        rng = np.random.default_rng(7)
        near = cleaned + rng.uniform(-0.049, 0.049, size=len(cleaned))
        assert as_tuples(demodulate(near, config)) == expected
        far = cleaned + rng.uniform(-0.3, 0.3, size=len(cleaned))
        rounded = np.rint(SAMPLE_SCALE * far) / SAMPLE_SCALE
        assert not np.array_equal(rounded, cleaned)
        demod = Demodulator(config)
        chunked = [f for i in range(0, len(far), 700) for f in demod.feed(far[i:i + 700])]
        assert chunked + demod.finish() == demodulate(rounded, config)


class TestMetrics:
    def _frames(self, n):
        stream, series = transmit("wide20")
        cfg = make_config("wide20")
        (good,) = demodulate(series, cfg)
        tx = [tuple(stream.data)] * n
        rx = [good] * n
        return stream, cfg, tx, rx

    def test_perfect_reception(self):
        _, _, tx, rx = self._frames(10)
        assert measure_fer_ser(tx, rx) == (0, 0)

    def test_single_bad_symbol(self):
        from ctclink.codec import parse_frame
        from ctclink.demod import DecodedFrame

        stream, cfg, tx, rx = self._frames(10)
        symbols = list(stream.data)
        symbols[5] ^= 1
        bad = DecodedFrame(tuple(symbols), 0, 0.0, True, parse_frame(symbols, cfg.scheme))
        assert not bad.frame.all_ok
        rx = list(rx)
        rx[3] = bad
        assert measure_fer_ser(tx, rx) == (1, 1)

    def test_missing_frame_counts_all_symbols(self):
        stream, _, tx, rx = self._frames(4)
        rx = list(rx)
        rx[0] = None
        assert measure_fer_ser(tx, rx) == (1, len(stream.data))

    def test_truncated_frame_is_an_error(self):
        stream, cfg, tx, rx = self._frames(2)
        from ctclink.demod import DecodedFrame

        cut = DecodedFrame(tuple(stream.data[:10]), 0, 0.0, False, None)
        rx = [rx[0], cut]
        assert measure_fer_ser(tx, rx) == (1, len(stream.data))

    def test_length_mismatch_rejected(self):
        _, _, tx, rx = self._frames(3)
        with pytest.raises(ValueError):
            measure_fer_ser(tx, rx[:2])

    def test_empty_is_clean(self):
        assert measure_fer_ser([], []) == (0, 0)
