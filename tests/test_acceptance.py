"""Acceptance suite: the ten headline checks, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Every check is deterministic for its pinned seed and the whole file stays
well under the ten-minute budget on a laptop-class machine.
"""

import concurrent.futures
import math
import socket
import time

import numpy as np
import pytest

from ctclink import x2
from ctclink.codec import (
    FIELD_BYTES,
    build_payload,
    decode_symbol,
    default_schemes,
    encode_symbol,
    get_scheme,
    modulation_capacity,
    parse_payload,
)
from ctclink.analytics import ctc_data_rate, peak_rate_bps, rate_airtime_table
from ctclink.demod import ReceiverConfig
from ctclink.experiments import ExperimentSpec, run_ed_sweep, run_link_sweep, run_stream
from ctclink.multicell import (
    build_cluster_configurations,
    build_hex_deployment,
    estimate_proximity,
    evaluate_points,
    example_codebook,
    grid_evaluate,
)
from ctclink.phy import CsatConfig
from ctclink.radio import RadioLink


def verdict(number: int, text: str) -> None:
    print(f"\nACCEPTANCE {number:02d} PASS: {text}")


class TestAcceptance:
    def test_criterion_01_capacity_oracle(self):
        start = time.perf_counter()
        for n in range(0, 19):
            for k in range(0, n + 1):
                m_exact = math.comb(n, k)
                bits_exact = m_exact.bit_length() - 1
                m, bits = modulation_capacity(n, k)
                assert (m, bits) == (m_exact, bits_exact), (n, k)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        verdict(1, f"capacity matches the exact binomial/floor-log2 oracle "
                   f"for all n <= 18 in {elapsed * 1000:.0f} ms")

    def test_criterion_02_exhaustive_roundtrip(self):
        checked = 0
        for name, scheme in default_schemes().items():
            if scheme.bits_per_symbol > 15:
                continue
            for value in range(1 << scheme.bits_per_symbol):
                assert decode_symbol(encode_symbol(value, scheme), scheme) == value
            checked += 1 << scheme.bits_per_symbol
        assert checked > 0
        verdict(2, f"encode->decode is the identity over {checked} symbol values "
                   f"across {len(default_schemes())} schemes (K <= 15)")

    def test_criterion_03_published_example(self):
        estimate = estimate_proximity({(2, 4), (3, 4)}, example_codebook())
        assert estimate == {3, 4, 5, 6}
        verdict(3, "observations {(2,4),(3,4)} with the published seven-cell "
                   "codebook yield exactly {3,4,5,6}")

    def test_criterion_04_clear_channel_loopback(self):
        config = ReceiverConfig(get_scheme("wide20"), CsatConfig(40, 20))
        link = RadioLink.at_rx_power(-56.0, ed_register=28)
        total_frames = 0
        for stream_idx in range(4):
            rng = np.random.default_rng([41, stream_idx])
            frame_errors, symbol_errors = run_stream(config, link, "clear", 25, rng)
            assert frame_errors == 0, f"stream {stream_idx} lost frames"
            assert symbol_errors == 0, f"stream {stream_idx} had symbol errors"
            total_frames += 25
        assert total_frames == 100
        verdict(4, "100/100 clear-channel frames recovered bit-exactly across "
                   "randomized start offsets (FER = 0)")

    def test_criterion_05_data_rate_endpoints(self):
        lower = ctc_data_rate(80.0, 0.24, 1)
        assert lower == 50.0
        upper = ctc_data_rate(80.0, 0.24, 5)
        assert upper == 162.5
        assert abs(upper - 160.0) / 160.0 <= 0.02
        assert peak_rate_bps(9) == 750.0
        table = rate_airtime_table()
        rates = [p.ctc_rate_bps for p in table]
        assert max(rates) == 750.0
        fast = [p for p in table if p.ctc_rate_bps >= 600.0]
        assert fast
        assert all(p.duty > 0.5 for p in fast)
        verdict(5, "rate endpoints hold: 50 bps at 24%/k=1 exactly, 162.5 bps at "
                   "k=5 (within 2% of 160), ceiling 750 bps, >=600 bps region "
                   "exists beyond 50% duty")

    def test_criterion_06_fer_knee_calibration(self):
        spec = ExperimentSpec(scenario="clear", seed=7, repetitions=2, frames_per_rep=15)
        result = run_ed_sweep(spec, thetas=(3, 28))
        by_theta = {k.theta: k for k in result.knees}
        knee28 = by_theta[28]
        assert abs(knee28.knee_dbm - (-60.5)) <= 1.5, knee28
        knee3 = by_theta[3]
        assert abs(knee3.knee_dbm - (-92.0)) <= 1.5, knee3
        for knee in result.knees:
            assert not math.isnan(knee.width_db)
            assert knee.width_db <= 3.0, knee
        verdict(6, f"FER knees land at {knee28.knee_dbm:g} dBm (theta=28, target "
                   f"-60.5 +/- 1.5) and {knee3.knee_dbm:g} dBm (theta=3, target "
                   f"-92 +/- 1.5); transition widths <= 3 dB")

    def test_criterion_07_half_duplex_floor(self):
        spec = ExperimentSpec(
            scenario="apdl-high", powers_dbm=(-56.0,), theta=28, seed=11,
            repetitions=16, frames_per_rep=25,
        )
        point = run_link_sweep(spec).points[0]
        assert point.n_frames == 400
        assert 0.15 <= point.fer <= 0.35, point
        verdict(7, f"saturated own-traffic floor: FER {point.fer:.3f} at -56 dBm "
                   f"(400 frames, bounds [0.15, 0.35])")

    def test_criterion_08_multicell_geometry(self):
        deployment = build_hex_deployment(100)
        configurations, codebook = build_cluster_configurations(deployment)

        # every adjacent pair shares a cluster in some slot - exhaustively
        member_sets = [set(ms) for ms in codebook.entries.values()]
        for a, b in deployment.adjacent_pairs():
            assert any({a, b} <= ms for ms in member_sets), (a, b)

        positions = deployment.positions_m
        # cells 0, 2, 3 sit at the corners of one lattice triangle; its
        # centroid is a three-cell symmetry point
        triple = positions[[0, 2, 3]].mean(axis=0)
        at_triple = evaluate_points(deployment, [triple], configurations, codebook)
        assert at_triple.n_detected.tolist() == [3]

        grid = grid_evaluate(deployment, grid_step_m=2.0, side_m=140.0)
        assert grid.n_detected.max() == 7
        where7 = grid.points_m[grid.n_detected == 7]
        assert len(where7) > 0
        dist_to_site = np.min(
            np.hypot(
                where7[:, None, 0] - positions[None, :, 0],
                where7[:, None, 1] - positions[None, :, 1],
            ),
            axis=1,
        )
        assert dist_to_site.max() < deployment.spacing_m / 2
        verdict(8, "sigma=0 grid: count 3 at triple points, maximum 7 only near "
                   "BS sites; edge coverage exhaustive over the 100-station "
                   "deployment")

    def test_criterion_09_crc_single_bit_exhaustive(self):
        payload = build_payload(0xC0FFEE42, (101, 202, 303, 404, 505, 606))
        assert len(payload) == 30
        assert parse_payload(payload).all_ok

        field_of_byte = []
        for field_idx, n_bytes in enumerate(FIELD_BYTES):
            field_of_byte.extend([field_idx] * n_bytes)

        for bit in range(240):
            corrupted = bytearray(payload)
            corrupted[bit // 8] ^= 1 << (7 - bit % 8)
            fields_ok = parse_payload(bytes(corrupted)).fields_ok
            expected_bad = field_of_byte[bit // 8]
            for idx, ok in enumerate(fields_ok):
                assert ok == (idx != expected_bad), (bit, idx)
        verdict(9, "all 240 single-bit payload corruptions are caught by exactly "
                   "the containing field's CRC")

    def test_criterion_10_x2_concurrency_and_fuzz(self):
        _, book = build_cluster_configurations(build_hex_deployment(19))
        with x2.X2Service(book, 0x0A00002A) as service:
            address = service.address

            def fetch(i):
                with x2.X2Client(address, 0x0A00002A, ap_id=f"ap-{i}") as client:
                    return x2.serialize_codebook(client.fetch_codebook())

            with concurrent.futures.ThreadPoolExecutor(max_workers=10) as pool:
                blobs = list(pool.map(fetch, range(10)))
            assert len(set(blobs)) == 1
            assert blobs[0] == service.codebook_bytes

            import random

            rng = random.Random(0xF0220)
            cases = 0
            for _ in range(1000):
                batch = b"".join(
                    rng.randbytes(rng.randrange(1, 64)) for _ in range(100)
                )
                cases += 100
                with socket.create_connection(address, timeout=2.0) as sock:
                    sock.settimeout(2.0)
                    try:
                        sock.sendall(batch)
                        sock.shutdown(socket.SHUT_WR)
                        while sock.recv(65536):
                            pass
                    except OSError:
                        pass
            assert cases == 100_000

            survivor = x2.fetch_codebook(address, 0x0A00002A)
            assert x2.serialize_codebook(survivor) == service.codebook_bytes
        verdict(10, "codebook byte-identical under 10 concurrent clients; server "
                    "survived a 100000-case random-bytes fuzz and kept serving")
