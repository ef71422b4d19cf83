"""Codec tests against independent oracles.

The binomial capacity is checked against a Pascal-triangle table, the
bit count against a doubling loop, CRC-16 against a bit-serial register,
and the lexicographic ranking against itertools.combinations, which
enumerates subsets in lexicographic order by construction.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctclink import codec
from ctclink.codec import (
    CodingScheme,
    FrameLengthError,
    InvalidSymbolError,
    PunctureSchedule,
    build_frame,
    build_payload,
    combination_rank,
    combination_unrank,
    crc16,
    decode_symbol,
    default_schemes,
    encode_symbol,
    frame_symbol_count,
    modulation_capacity,
    parse_frame,
    parse_payload,
    preamble_schedules,
)


def pascal_comb(n: int, k: int) -> int:
    """Binomial coefficient from the additive recurrence only."""
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k] if 0 <= k <= n else 0


def floor_log2(m: int) -> int:
    """Largest K with 2**K <= m, by doubling."""
    k, p = 0, 1
    while p * 2 <= m:
        p *= 2
        k += 1
    return k


def crc16_bitwise(data: bytes) -> int:
    """Bit-serial CCITT-FALSE register, independent of the library's."""
    reg = 0xFFFF
    for byte in data:
        for bit in range(7, -1, -1):
            top = (reg >> 15) & 1
            incoming = (byte >> bit) & 1
            reg = (reg << 1) & 0xFFFF
            if top ^ incoming:
                reg ^= 0x1021
    return reg


class TestCapacity:
    def test_against_pascal_triangle(self):
        for n in range(0, 21):
            for k in range(0, n + 1):
                m, bits = modulation_capacity(n, k)
                assert m == pascal_comb(n, k)
                if m >= 1:
                    assert bits == floor_log2(m)

    def test_largest_supported_slot_count(self):
        m, bits = modulation_capacity(64, 32)
        assert m == pascal_comb(64, 32)
        assert bits == floor_log2(m)

    def test_known_anchor_points(self):
        assert modulation_capacity(8, 1) == (8, 3)
        assert modulation_capacity(18, 1) == (18, 4)
        assert modulation_capacity(18, 9) == (48620, 15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            modulation_capacity(4, 5)
        with pytest.raises(ValueError):
            modulation_capacity(4, -1)
        with pytest.raises(ValueError):
            modulation_capacity(65, 1)


class TestRanking:
    @pytest.mark.parametrize("n,k", [(5, 2), (8, 1), (10, 3), (18, 2)])
    def test_matches_itertools_order(self, n, k):
        for rank, combo in enumerate(itertools.combinations(range(n), k)):
            assert combination_unrank(n, k, rank) == combo
            assert combination_rank(n, k, combo) == rank

    @given(st.integers(1, 30), st.data())
    def test_roundtrip(self, n, data):
        k = data.draw(st.integers(0, n))
        import math

        rank = data.draw(st.integers(0, math.comb(n, k) - 1))
        assert combination_rank(n, k, combination_unrank(n, k, rank)) == rank

    def test_rank_rejects_bad_subsets(self):
        with pytest.raises(ValueError):
            combination_rank(5, 2, (1, 1))
        with pytest.raises(ValueError):
            combination_rank(5, 2, (1, 7))


class TestCrc16:
    def test_check_value(self):
        assert crc16(b"123456789") == 0x29B1

    def test_empty_is_init(self):
        assert crc16(b"") == 0xFFFF

    @given(st.binary(max_size=64))
    def test_matches_bit_serial_register(self, data):
        assert crc16(data) == crc16_bitwise(data)


class TestSchemes:
    def test_registry_capacities(self):
        schemes = default_schemes()
        assert schemes["wide20"].n_positions == 8
        assert schemes["wide20"].bits_per_symbol == 3
        assert schemes["short12"].n_positions == 8
        assert schemes["short12"].bits_per_symbol == 3
        assert schemes["multi20-k1"].n_positions == 18
        assert schemes["multi20-k1"].bits_per_symbol == 4
        assert schemes["multi20-k9"].capacity == 48620
        assert schemes["multi20-k9"].bits_per_symbol == 15

    def test_wide20_gap_placement(self):
        scheme = default_schemes()["wide20"]
        assert encode_symbol(0, scheme).positions == (2, 3)
        assert encode_symbol(7, scheme).positions == (16, 17)

    def test_short12_keeps_tail_and_edges(self):
        scheme = default_schemes()["short12"]
        for v in range(scheme.alphabet_size):
            pos = encode_symbol(v, scheme).positions
            assert pos[-2:] == (10, 11)
            assert 0 not in pos[:-2] and 9 not in pos[:-2]

    def test_rejects_degenerate_configs(self):
        with pytest.raises(ValueError):
            CodingScheme("bad", 2, "tail")
        with pytest.raises(ValueError):
            CodingScheme("bad", 21, "moving")
        with pytest.raises(ValueError):
            CodingScheme("bad", 20, "tail", extra_punctures=0)


class TestSymbolRoundtrip:
    @pytest.mark.parametrize("name", sorted(default_schemes()))
    def test_exhaustive_bijection(self, name):
        scheme = default_schemes()[name]
        seen = set()
        for v in range(scheme.alphabet_size):
            sched = encode_symbol(v, scheme)
            assert sched.symbol_index == v
            assert sched.positions not in seen
            seen.add(sched.positions)
            assert decode_symbol(sched, scheme) == v

    @pytest.mark.parametrize("name", sorted(default_schemes()))
    def test_schedule_table_equals_encoder(self, name):
        scheme = default_schemes()[name]
        table = scheme.schedule_table
        values = range(scheme.alphabet_size)
        first = [table[v] for v in values]
        assert first == [encode_symbol(v, scheme) for v in values]
        # each value is encoded once: later lookups return the same object
        assert all(a is b for a, b in zip(first, (table[v] for v in values)))
        with pytest.raises(ValueError):
            table[scheme.alphabet_size]

    @pytest.mark.parametrize("name", sorted(default_schemes()))
    def test_trailing_gap_is_the_last_punctured_run(self, name):
        scheme = default_schemes()[name]
        values = range(min(scheme.alphabet_size, 64))
        for sched in [*(encode_symbol(v, scheme) for v in values), *preamble_schedules(scheme)]:
            on_air = [slot for slot in range(sched.symbol_ms) if slot not in sched.positions]
            assert sched.trailing_gap_ms == sched.symbol_ms - 1 - on_air[-1]

    def test_lexicographic_value_order(self):
        # larger value never yields a lexicographically smaller puncture set
        scheme = default_schemes()["multi20-k3"]
        prev = None
        for v in range(scheme.alphabet_size):
            pos = encode_symbol(v, scheme).positions
            if prev is not None:
                assert pos > prev
            prev = pos

    def test_out_of_alphabet_value(self):
        scheme = default_schemes()["wide20"]
        with pytest.raises(ValueError):
            encode_symbol(8, scheme)
        with pytest.raises(ValueError):
            encode_symbol(-1, scheme)

    def test_surplus_schedule_is_reserved(self):
        scheme = default_schemes()["multi20-k1"]
        # ranks 16 and 17 exist on air but are beyond the 16 value alphabet
        surplus = PunctureSchedule(20, (16, 18, 19))
        with pytest.raises(InvalidSymbolError):
            decode_symbol(surplus, scheme)

    def test_malformed_schedules(self):
        schemes = default_schemes()
        with pytest.raises(InvalidSymbolError):
            decode_symbol(PunctureSchedule(20, (3, 4)), schemes["wide20"])  # misaligned
        with pytest.raises(InvalidSymbolError):
            decode_symbol(PunctureSchedule(20, (0, 1)), schemes["wide20"])  # forbidden edge
        with pytest.raises(InvalidSymbolError):
            decode_symbol(PunctureSchedule(20, (3,)), schemes["multi20-k1"])  # tail missing
        with pytest.raises(InvalidSymbolError):
            decode_symbol(PunctureSchedule(12, (0, 10, 11)), schemes["short12"])
        with pytest.raises(InvalidSymbolError):
            decode_symbol(PunctureSchedule(20, (2, 3)), schemes["short12"])  # wrong duration


class TestPreamble:
    @pytest.mark.parametrize("name", ["wide20", "short12", "multi20-k1", "multi20-k9"])
    def test_reserved_and_alternating(self, name):
        scheme = default_schemes()[name]
        pre = preamble_schedules(scheme)
        assert len(pre) == 4
        assert pre[0] == pre[2] and pre[1] == pre[3]
        assert pre[0].positions != pre[1].positions
        data_positions = {
            encode_symbol(v, scheme).positions for v in range(scheme.alphabet_size)
        }
        for sched in pre:
            assert sched.positions not in data_positions
            assert sched.symbol_index is None

    def test_surplus_preamble_uses_lex_last(self):
        scheme = default_schemes()["multi20-k1"]
        pre = preamble_schedules(scheme)
        assert pre[0].positions == (17, 18, 19)
        assert pre[1].positions == (16, 18, 19)

    def test_moving_surplus_preamble_is_its_last_two_ranks(self):
        # a moving scheme without forbidden edges: 10 grid slots, 8 values
        scheme = CodingScheme("m", 20, "moving")
        pre = preamble_schedules(scheme)
        assert pre[0].positions == (18, 19)  # rank capacity - 1: grid slot 9
        assert pre[1].positions == (16, 17)  # rank capacity - 2: grid slot 8
        for sched in pre[:2]:
            with pytest.raises(InvalidSymbolError, match="reserved"):
                decode_symbol(sched, scheme)


class TestFraming:
    def test_payload_layout(self):
        payload = build_payload(0xC0A80101, [1, 2, 3, 4, 5, 6])
        assert len(payload) == 30
        frame = parse_payload(payload)
        assert frame.network_id == 0xC0A80101
        assert frame.cluster_ids == (1, 2, 3, 4, 5, 6)
        assert frame.all_ok

    def test_symbol_count_for_3bit_scheme(self):
        scheme = default_schemes()["short12"]
        assert frame_symbol_count(scheme) == 82
        stream = build_frame(7, [10, 20, 30, 40, 50, 60], scheme)
        assert len(stream.data) == 82
        assert stream.n_symbols == 86

    @pytest.mark.parametrize("name", ["wide20", "short12", "multi20-k1", "multi20-k9"])
    def test_frame_roundtrip(self, name):
        scheme = default_schemes()[name]
        stream = build_frame(0x0A000001, [9, 99, 999, 9999, 65535, 0], scheme)
        frame = parse_frame(stream.data, scheme)
        assert frame.all_ok
        assert frame.network_id == 0x0A000001
        assert frame.cluster_ids == (9, 99, 999, 9999, 65535, 0)

    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(0, 2**16 - 1), min_size=6, max_size=6),
    )
    @settings(max_examples=50, deadline=None)
    def test_payload_roundtrip_property(self, network_id, cluster_ids):
        frame = parse_payload(build_payload(network_id, cluster_ids))
        assert frame.all_ok
        assert frame.network_id == network_id
        assert list(frame.cluster_ids) == cluster_ids

    def test_bit_flip_detected_by_owning_field_only(self):
        payload = bytearray(build_payload(0xC0A80101, [1, 2, 3, 4, 5, 6]))
        boundaries = []
        offset = 0
        for nb in codec.FIELD_BYTES:
            boundaries.append((offset, offset + nb))
            offset += nb
        for bit in (0, 33, 47, 48, 64, 95, 96, 145, 239):
            flipped = bytearray(payload)
            flipped[bit // 8] ^= 1 << (7 - bit % 8)
            frame = parse_payload(bytes(flipped))
            owner = next(i for i, (a, b) in enumerate(boundaries) if a * 8 <= bit < b * 8)
            expect = [True] * 7
            expect[owner] = False
            assert list(frame.fields_ok) == expect

    def test_wrong_symbol_count(self):
        scheme = default_schemes()["short12"]
        with pytest.raises(FrameLengthError):
            parse_frame([0] * 81, scheme)

    def test_schedules_include_preamble(self):
        scheme = default_schemes()["short12"]
        stream = build_frame(1, [0, 0, 0, 0, 0, 0], scheme)
        scheds = stream.schedules()
        assert len(scheds) == 86
        assert scheds[0].symbol_index is None
        assert scheds[4].symbol_index == stream.data[0]
