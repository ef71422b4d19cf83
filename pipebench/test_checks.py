"""Each correctness check of the benchmark passes on right input and fails
on a deliberately wrong one.

Run with ``python3 -m pytest pipebench``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import checks
from checks import CheckFailed
from common import import_ctclink

import_ctclink()


def curve(knee_dbm: float, powers) -> list[tuple[float, float]]:
    """A sharp FER curve: 1 below the knee, 0 from it on."""
    return [(p, 0.0 if p >= knee_dbm else 1.0) for p in powers]


def grid(center: float):
    return [center + 0.5 * i for i in range(-8, 9)]


GOOD_CURVES = {3: curve(-91.5, grid(-92.0)), 28: curve(-61.0, grid(-62.0))}


# -- fer-sweep --------------------------------------------------------------

def test_knee_and_width():
    at, width = checks.knee([(-93, 1.0), (-92, 0.5), (-91, 0.0), (-90, 0.05)])
    assert (at, width) == (-91, 2)
    assert all(math.isnan(v) for v in checks.knee([(-93, 1.0), (-92, 0.5)]))


def test_ed_knees_pass():
    checks.check_ed_knees(GOOD_CURVES)


def test_ed_knee_off_target_fails():
    shifted = {**GOOD_CURVES, 3: curve(-89.5, grid(-92.0))}
    with pytest.raises(CheckFailed, match="theta=3: knee"):
        checks.check_ed_knees(shifted)


def test_ed_knee_wide_transition_fails():
    powers = grid(-62.0)
    slow = [(p, 1.0 if p < -64.5 else 0.5 if p < -61.0 else 0.0) for p in powers]
    with pytest.raises(CheckFailed, match="transition width"):
        checks.check_ed_knees({**GOOD_CURVES, 28: slow})


def test_certain_points():
    checks.check_certain_points([(28, -66.0, 1.0), (28, -58.0, 0.0)], clear=True)
    checks.check_certain_points([(28, -66.0, 1.0), (28, -58.0, 0.2)], clear=False)
    with pytest.raises(CheckFailed, match="want 1"):
        checks.check_certain_points([(3, -96.0, 0.95)], clear=False)
    with pytest.raises(CheckFailed, match="want 0"):
        checks.check_certain_points([(28, -58.0, 0.05)], clear=True)


def test_wilson_interval():
    lo, hi = checks.wilson_interval(114, 600)
    assert lo < 114 / 600 < hi
    assert (round(lo, 3), round(hi, 3)) == (0.161, 0.223)
    assert checks.wilson_interval(0, 600)[0] == pytest.approx(0.0, abs=1e-12)


def test_half_duplex_band():
    checks.check_half_duplex(114, 600)  # 0.19, the usual floor
    # the estimates at the edges of what the 95% interval lets through
    checks.check_half_duplex(73, 600)  # 0.122
    checks.check_half_duplex(232, 600)  # 0.387
    for errors in (72, 233):  # 0.120 and 0.388 are not consistent with the band
        with pytest.raises(CheckFailed, match="misses"):
            checks.check_half_duplex(errors, 600)


def test_identical_rounds():
    checks.check_identical([("clear", 3, -92.0, 0.5)], [("clear", 3, -92.0, 0.5)], "x")
    with pytest.raises(CheckFailed):
        checks.check_identical([("clear", 3, -92.0, 0.5)], [("clear", 3, -92.0, 0.45)], "x")


# -- capture-decode -----------------------------------------------------------

TX_LOG = [("clean", 1000, 0x0A000001, (1, 2, 3, 4, 5, 6)),
          ("clean", 15000, 0x0A000002, (7, 8, 9, 10, 11, 12)),
          ("below", 29000, 0x0A000003, (0, 0, 0, 0, 0, 0))]
GOOD_FRAMES = [(1001, (5, 6), True, 0x0A000001, (1, 2, 3, 4, 5, 6)),
               (15000, (7, 8), True, 0x0A000002, (7, 8, 9, 10, 11, 12))]


def test_same_frames():
    checks.check_same_frames(GOOD_FRAMES, list(GOOD_FRAMES), "x")
    other_symbol = [GOOD_FRAMES[0], (15000, (7, 9)) + GOOD_FRAMES[1][2:]]
    with pytest.raises(CheckFailed):
        checks.check_same_frames(GOOD_FRAMES, other_symbol, "x")
    other_sync = [(1002,) + GOOD_FRAMES[0][1:], GOOD_FRAMES[1]]
    with pytest.raises(CheckFailed):
        checks.check_same_frames(GOOD_FRAMES, other_sync, "x")
    with pytest.raises(CheckFailed):
        checks.check_same_frames(GOOD_FRAMES, GOOD_FRAMES[:1], "x")


def test_payloads():
    checks.check_payloads(GOOD_FRAMES, TX_LOG, tolerance=159)
    flipped = [(1001, (5, 6), True, 0x0A0000FE, (1, 2, 3, 4, 5, 6))]
    with pytest.raises(CheckFailed, match="carries"):
        checks.check_payloads(flipped, TX_LOG, tolerance=159)
    stray = [(8000, (5, 6), True, 0x0A000001, (1, 2, 3, 4, 5, 6))]
    with pytest.raises(CheckFailed, match="no transmit slot"):
        checks.check_payloads(stray, TX_LOG, tolerance=159)
    # a frame failing its CRCs may carry anything
    checks.check_payloads([(1001, (0,), False, 0x12345678, (0,) * 6)], TX_LOG, tolerance=159)


def test_recovered():
    checks.check_recovered(GOOD_FRAMES, TX_LOG, "clean", tolerance=159)
    with pytest.raises(CheckFailed, match="not recovered"):
        checks.check_recovered(GOOD_FRAMES[:1], TX_LOG, "clean", tolerance=159)
    crc_failed = [GOOD_FRAMES[0], GOOD_FRAMES[1][:2] + (False,) + GOOD_FRAMES[1][3:]]
    with pytest.raises(CheckFailed, match="not recovered"):
        checks.check_recovered(crc_failed, TX_LOG, "clean", tolerance=159)


def test_silent():
    checks.check_silent(GOOD_FRAMES + [(29000, (1,), False, None, ())], (28000, 40000))
    with pytest.raises(CheckFailed, match="below threshold"):
        checks.check_silent([(29000, (1,), True, 0x0A000003, (0,) * 6)], (28000, 40000))


def test_payload_check_on_a_decoded_capture():
    """A real loopback passes; the same frames against a log with one
    flipped payload byte fail."""
    from ctclink.codec import build_frame, get_scheme
    from ctclink.demod import ReceiverConfig, demodulate
    from ctclink.phy import CsatConfig, generate_waveform, sample_mac_states
    from ctclink.radio import RadioLink

    scheme = get_scheme("wide20")
    config = ReceiverConfig(scheme, CsatConfig(40, 20))
    sent = [(0x0A000001, (1, 2, 3, 4, 5, 6)), (0x0A000002, (9, 8, 7, 6, 5, 4))]
    schedules = [s for net, cl in sent for s in build_frame(net, cl, scheme).schedules()]
    series = sample_mac_states(generate_waveform(config.csat, schedules),
                               RadioLink.at_rx_power(-56.0))
    frames = [(f.sync_t, f.symbols, f.frame.all_ok, f.frame.network_id, f.frame.cluster_ids)
              for f in demodulate(series, config) if f.complete]
    period = config.preamble_len + config.frame_symbols * config.samples_per_cycle
    log = [("clean", config.preamble_len - 1 + i * period, net, cl)
           for i, (net, cl) in enumerate(sent)]
    checks.check_payloads(frames, log, config.samples_per_cycle - 1)
    checks.check_recovered(frames, log, "clean", config.samples_per_cycle - 1)
    bad = [log[0], log[1][:2] + (log[1][2] ^ 0xFF,) + log[1][3:]]
    with pytest.raises(CheckFailed, match="carries"):
        checks.check_payloads(frames, bad, config.samples_per_cycle - 1)


# -- proximity ----------------------------------------------------------------

SITES = np.array([[0.0, 0.0], [50.0, 0.0], [200.0, 0.0]])
CELLS = (0, 1, 2)
ENTRIES = {(1, 0): (0, 1), (1, 2): (2,), (2, 0): (0,), (2, 1): (1,), (2, 2): (2,)}


def test_brute_force_estimate():
    # only site 0 audible: fields (1, 0) and (2, 0) decode
    assert checks.brute_force_estimate((-20.0, 0.0), SITES, CELLS, ENTRIES) == {0, 1}
    # sites 0 and 1 audible: only their shared cluster (1, 0) decodes
    assert checks.brute_force_estimate((25.0, 0.0), SITES, CELLS, ENTRIES) == {0, 1}
    # site 2 alone
    assert checks.brute_force_estimate((210.0, 0.0), SITES, CELLS, ENTRIES) == {2}
    # nothing audible
    assert checks.brute_force_estimate((120.0, 0.0), SITES, CELLS, ENTRIES) == frozenset()


def test_brute_force_matches_program_on_the_deployment():
    from ctclink.multicell import (
        build_cluster_configurations, build_hex_deployment, estimate_proximity, observation_at,
    )

    dep = build_hex_deployment(19)
    configs, book = build_cluster_configurations(dep)
    rng = np.random.default_rng(5)
    for point in rng.uniform(-90, 90, size=(40, 2)):
        want = checks.brute_force_estimate(point, dep.positions_m, dep.cell_ids, book.entries)
        got = estimate_proximity(observation_at(dep, point, configs), book)
        checks.check_estimate(got, want, point)


def test_codebook():
    checks.check_codebook(dict(ENTRIES), ENTRIES)
    missing = dict(ENTRIES)
    del missing[(2, 2)]
    with pytest.raises(CheckFailed, match="entries"):
        checks.check_codebook(missing, ENTRIES)
    changed = {**ENTRIES, (1, 0): (0, 2)}
    with pytest.raises(CheckFailed, match=r"entry \(1, 0\)"):
        checks.check_codebook(changed, ENTRIES)


def test_ack_and_estimate():
    checks.check_ack(3, 3)
    with pytest.raises(CheckFailed):
        checks.check_ack(2, 3)
    checks.check_estimate({0, 1, 4}, frozenset({0, 1, 4}), "p")
    with pytest.raises(CheckFailed, match="estimate"):
        checks.check_estimate({0, 1}, frozenset({0, 1, 4}), "p")


def test_unshadowed_grid():
    sites = np.array([[0.0, 0.0], [50.0, 0.0]])
    points = np.array([[1.0, 1.0], [25.0, 0.0], [49.0, 0.0]])
    checks.check_unshadowed_grid(points, np.array([7, 3, 7]), sites, 50.0)
    with pytest.raises(CheckFailed, match="above"):
        checks.check_unshadowed_grid(points, np.array([8, 3, 7]), sites, 50.0)
    with pytest.raises(CheckFailed, match="from the nearest site"):
        checks.check_unshadowed_grid(points, np.array([3, 7, 3]), sites, 50.0)
