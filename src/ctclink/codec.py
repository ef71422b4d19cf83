"""Puncture-position codec for the LTE-U to WiFi side channel.

Control data is conveyed by where an LTE-U base station punctures its own
transmission inside a duty cycle.  A coding scheme fixes a symbol duration
and a set of candidate 1 ms slots; choosing k of n candidate slots yields
M = C(n, k) distinguishable schedules, of which the lexicographically first
2**K (K = floor(log2 M)) carry data.  The remaining surplus schedules are
reserved and must never be emitted by the encoder; two of them double as
the synchronization preamble when no forbidden edge slots exist.

Frames carry a 4 byte network address and six 2 byte cluster identifiers,
each protected by its own CRC-16 so that a receiver can use every cluster
field that survived independently of the others.

The built-in schemes form a fixed registry, built once at import;
``get_scheme`` looks a scheme up there by name.
"""

from __future__ import annotations

import binascii
import math
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Literal, Sequence


class InvalidSymbolError(ValueError):
    """Schedule does not map to a data value (malformed or reserved)."""


class FrameLengthError(ValueError):
    """Symbol sequence does not match the frame layout of the scheme."""


# ---------------------------------------------------------------------------
# CRC-16 (CCITT-FALSE): poly 0x1021, init 0xFFFF, no reflection, no xor-out.
# crc16(b"123456789") == 0x29B1.
# ---------------------------------------------------------------------------

CRC_INIT = 0xFFFF


def crc16(data: bytes) -> int:
    """CRC-16/CCITT-FALSE checksum of ``data``."""
    return binascii.crc_hqx(data, CRC_INIT)


# ---------------------------------------------------------------------------
# Combinatorial capacity and lexicographic (un)ranking of k-subsets.
# ---------------------------------------------------------------------------

def modulation_capacity(n_positions: int, n_punctures: int) -> tuple[int, int]:
    """Alphabet size of a puncture-position scheme.

    Args:
        n_positions: number of candidate slots, at most 64.
        n_punctures: punctures placed per symbol.

    Returns:
        (M, K): M = C(n, k) distinguishable schedules computed exactly,
        K = floor(log2 M) usable bits per symbol.
    """
    if not 0 <= n_punctures <= n_positions:
        raise ValueError(f"need 0 <= k <= n, got k={n_punctures} n={n_positions}")
    if n_positions > 64:
        raise ValueError(f"n={n_positions} exceeds the supported slot count of 64")
    m = math.comb(n_positions, n_punctures)
    return m, m.bit_length() - 1


def combination_unrank(n: int, k: int, rank: int) -> tuple[int, ...]:
    """The ``rank``-th k-subset of range(n) in lexicographic order."""
    if not 0 <= rank < math.comb(n, k):
        raise ValueError(f"rank {rank} out of range for C({n},{k})")
    out = []
    x = 0
    r = rank
    for j in range(k, 0, -1):
        c = math.comb(n - x - 1, j - 1)
        while c <= r:
            r -= c
            x += 1
            c = math.comb(n - x - 1, j - 1)
        out.append(x)
        x += 1
    return tuple(out)


def combination_rank(n: int, k: int, subset: Sequence[int]) -> int:
    """Lexicographic rank of a k-subset of range(n); inverse of unrank."""
    elems = sorted(subset)
    if len(elems) != k or len(set(elems)) != k:
        raise ValueError("subset must contain k distinct elements")
    if elems and not 0 <= elems[0] <= elems[-1] < n:
        raise ValueError("subset elements out of range")
    rank = 0
    prev = -1
    for i, s in enumerate(elems):
        for y in range(prev + 1, s):
            rank += math.comb(n - 1 - y, k - 1 - i)
        prev = s
    return rank


# ---------------------------------------------------------------------------
# Coding schemes.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PunctureSchedule:
    """Puncture layout of one symbol.

    positions lists every punctured 1 ms slot, mandatory ones included.
    symbol_index is the encoded value, or None for reserved schedules
    such as the preamble.
    """

    symbol_ms: int
    positions: tuple[int, ...]
    symbol_index: int | None = None

    @cached_property
    def trailing_gap_ms(self) -> int:
        """Length of the punctured run ending at the symbol's last slot."""
        punctured = set(self.positions)
        gap = 0
        while self.symbol_ms - 1 - gap in punctured:
            gap += 1
        return gap


@dataclass(frozen=True)
class CodingScheme:
    """Mapping between symbol values and puncture schedules.

    Two styles exist.  "moving" lets the mandatory puncture itself carry
    the data: it occupies one slot of a mandatory_ms-wide grid and its grid
    position is the symbol.  "tail" pins the mandatory puncture to the last
    mandatory_ms of the symbol and places extra_punctures additional 1 ms
    punctures among the leading slots.  forbid_edges removes the first and
    last candidate so the channel never starts or ends a symbol silent,
    which keeps those slots free for the preamble.
    """

    name: str
    symbol_ms: int
    style: Literal["moving", "tail"]
    mandatory_ms: int = 2
    extra_punctures: int = 1
    forbid_edges: bool = False

    def __post_init__(self) -> None:
        if self.symbol_ms <= self.mandatory_ms:
            raise ValueError("symbol must be longer than the mandatory puncture")
        if self.style == "moving":
            if self.symbol_ms % self.mandatory_ms:
                raise ValueError("moving style needs symbol_ms divisible by mandatory_ms")
            if self.extra_punctures != 1:
                raise ValueError("moving style carries exactly one moving puncture")
        elif self.style == "tail":
            if not 1 <= self.extra_punctures <= len(self.candidate_slots):
                raise ValueError("extra_punctures out of range for the leading region")
        else:
            raise ValueError(f"unknown style {self.style!r}")
        if self.capacity < 2:
            raise ValueError("scheme cannot carry data (fewer than 2 schedules)")

    @cached_property
    def candidate_slots(self) -> tuple[int, ...]:
        """Slots a data puncture may occupy, in the style's native units.

        Grid-slot indices (mandatory_ms wide) for moving style, 1 ms slot
        indices in the leading region for tail style.
        """
        if self.style == "moving":
            grid = self.symbol_ms // self.mandatory_ms
            lo, hi = (1, grid - 1) if self.forbid_edges else (0, grid)
        else:
            leading = self.symbol_ms - self.mandatory_ms
            lo, hi = (1, leading - 1) if self.forbid_edges else (0, leading)
        return tuple(range(lo, hi))

    @cached_property
    def mandatory_slots(self) -> tuple[int, ...]:
        """1 ms slots of the fixed tail puncture; empty for moving style."""
        if self.style == "moving":
            return ()
        return tuple(range(self.symbol_ms - self.mandatory_ms, self.symbol_ms))

    @property
    def n_positions(self) -> int:
        return len(self.candidate_slots)

    @cached_property
    def capacity(self) -> int:
        """M, the number of distinguishable schedules."""
        k = 1 if self.style == "moving" else self.extra_punctures
        return math.comb(self.n_positions, k)

    @cached_property
    def bits_per_symbol(self) -> int:
        return self.capacity.bit_length() - 1

    @cached_property
    def alphabet_size(self) -> int:
        return 1 << self.bits_per_symbol

    @cached_property
    def schedule_table(self) -> "_ScheduleTable":
        """encode_symbol's schedule per value, each encoded on its first lookup."""
        return _ScheduleTable(self)


class _ScheduleTable(dict):
    """Memo of encode_symbol for one scheme, keyed by value."""

    def __init__(self, scheme: CodingScheme) -> None:
        super().__init__()
        self.scheme = scheme

    def __missing__(self, value: int) -> PunctureSchedule:
        schedule = self[value] = encode_symbol(value, self.scheme)
        return schedule


def _rank_positions(scheme: CodingScheme, rank: int) -> tuple[int, ...]:
    """Punctured slots, mandatory ones included, of the ``rank``-th of the
    scheme's ``capacity`` schedules: the rank-th grid slot in moving style,
    the rank-th choice of extra punctures in tail style."""
    if scheme.style == "moving":
        start = scheme.candidate_slots[rank] * scheme.mandatory_ms
        return tuple(range(start, start + scheme.mandatory_ms))
    picked = combination_unrank(scheme.n_positions, scheme.extra_punctures, rank)
    extras = tuple(scheme.candidate_slots[i] for i in picked)
    return tuple(sorted(extras + scheme.mandatory_slots))


def encode_symbol(value: int, scheme: CodingScheme) -> PunctureSchedule:
    """Schedule for ``value``; raises ValueError outside [0, 2**K)."""
    if not 0 <= value < scheme.alphabet_size:
        raise ValueError(
            f"value {value} outside alphabet of {scheme.alphabet_size} for {scheme.name}"
        )
    return PunctureSchedule(scheme.symbol_ms, _rank_positions(scheme, value), value)


def decode_symbol(schedule: PunctureSchedule, scheme: CodingScheme) -> int:
    """Value of a schedule; InvalidSymbolError for malformed or reserved ones."""
    if schedule.symbol_ms != scheme.symbol_ms:
        raise InvalidSymbolError("symbol duration does not match the scheme")
    pos = tuple(sorted(schedule.positions))
    if scheme.style == "moving":
        expect_len = scheme.mandatory_ms
        if len(pos) != expect_len or pos != tuple(range(pos[0], pos[0] + expect_len)):
            raise InvalidSymbolError("moving puncture must be one contiguous run")
        if pos[0] % scheme.mandatory_ms:
            raise InvalidSymbolError("puncture not aligned to the position grid")
        grid_slot = pos[0] // scheme.mandatory_ms
        if grid_slot not in scheme.candidate_slots:
            raise InvalidSymbolError(f"grid slot {grid_slot} is not a data position")
        value = scheme.candidate_slots.index(grid_slot)
    else:
        mand = set(scheme.mandatory_slots)
        if not mand.issubset(pos):
            raise InvalidSymbolError("mandatory tail puncture missing")
        extras = sorted(set(pos) - mand)
        if len(extras) + len(mand) != len(pos):
            raise InvalidSymbolError("duplicate puncture slots")
        lookup = {slot: i for i, slot in enumerate(scheme.candidate_slots)}
        try:
            picked = [lookup[s] for s in extras]
        except KeyError as exc:
            raise InvalidSymbolError(f"slot {exc.args[0]} is not a data position") from exc
        if len(picked) != scheme.extra_punctures:
            raise InvalidSymbolError(
                f"expected {scheme.extra_punctures} extra punctures, got {len(picked)}"
            )
        value = combination_rank(scheme.n_positions, scheme.extra_punctures, picked)
    if value >= scheme.alphabet_size:
        raise InvalidSymbolError(f"schedule is reserved (rank {value} beyond the alphabet)")
    return value


def preamble_schedules(scheme: CodingScheme) -> tuple[PunctureSchedule, ...]:
    """Four reserved schedules (A, B, A, B) announcing a frame.

    Schemes with forbidden edge slots alternate punctures on the two edges;
    otherwise the two lexicographically last surplus schedules are used.
    Either way no data symbol ever reproduces the pattern.
    """
    if scheme.forbid_edges:
        if scheme.style == "moving":
            grid = scheme.symbol_ms // scheme.mandatory_ms
            slots_a = tuple(range(0, scheme.mandatory_ms))
            start_b = (grid - 1) * scheme.mandatory_ms
            slots_b = tuple(range(start_b, start_b + scheme.mandatory_ms))
        else:
            leading = scheme.symbol_ms - scheme.mandatory_ms
            slots_a = tuple(sorted((0,) + scheme.mandatory_slots))
            slots_b = tuple(sorted((leading - 1,) + scheme.mandatory_slots))
    else:
        surplus = scheme.capacity - scheme.alphabet_size
        if surplus < 2:
            raise ValueError(
                f"{scheme.name} has {surplus} surplus schedules; preamble needs 2"
            )
        slots_a = _rank_positions(scheme, scheme.capacity - 1)
        slots_b = _rank_positions(scheme, scheme.capacity - 2)
    a = PunctureSchedule(scheme.symbol_ms, slots_a, None)
    b = PunctureSchedule(scheme.symbol_ms, slots_b, None)
    return (a, b, a, b)


# ---------------------------------------------------------------------------
# Frame layout: network address plus six cluster identifiers, each field
# carrying its own CRC-16 and padded with zero bits to a symbol boundary.
# ---------------------------------------------------------------------------

N_CLUSTER_FIELDS = 6
_NETWORK_BYTES = 4
_CLUSTER_BYTES = 2
_CRC_BYTES = 2
# (data + crc) byte widths per field: network first, then the clusters
FIELD_BYTES = (_NETWORK_BYTES + _CRC_BYTES,) + (_CLUSTER_BYTES + _CRC_BYTES,) * N_CLUSTER_FIELDS
PAYLOAD_BYTES = sum(FIELD_BYTES)  # 30


@dataclass(frozen=True)
class CtcFrame:
    """Parsed frame content with per-field CRC verdicts."""

    network_id: int
    network_ok: bool
    cluster_ids: tuple[int, ...]
    cluster_ok: tuple[bool, ...]

    @property
    def fields_ok(self) -> tuple[bool, ...]:
        return (self.network_ok,) + self.cluster_ok

    @property
    def all_ok(self) -> bool:
        return all(self.fields_ok)


@dataclass(frozen=True)
class SymbolStream:
    """Preamble marker plus the ordered data symbol values of one frame."""

    scheme: CodingScheme
    preamble: tuple[PunctureSchedule, ...]
    data: tuple[int, ...]

    def schedules(self) -> list[PunctureSchedule]:
        """Every on-air schedule, preamble first."""
        table = self.scheme.schedule_table
        return list(self.preamble) + [table[v] for v in self.data]

    @property
    def n_symbols(self) -> int:
        return len(self.preamble) + len(self.data)


def field_symbol_count(n_bytes: int, bits_per_symbol: int) -> int:
    return -(-8 * n_bytes // bits_per_symbol)


def frame_symbol_count(scheme: CodingScheme) -> int:
    """Data symbols per frame (preamble excluded) under per-field padding."""
    k = scheme.bits_per_symbol
    return sum(field_symbol_count(nb, k) for nb in FIELD_BYTES)


def build_payload(network_id: int, cluster_ids: Sequence[int]) -> bytes:
    """30 byte frame payload with one CRC-16 per field."""
    if not 0 <= network_id < 1 << 32:
        raise ValueError("network_id must fit 32 bits")
    if len(cluster_ids) != N_CLUSTER_FIELDS:
        raise ValueError(f"need {N_CLUSTER_FIELDS} cluster identifiers")
    parts = []
    net = struct.pack("!I", network_id)
    parts.append(net + struct.pack("!H", crc16(net)))
    for cid in cluster_ids:
        if not 0 <= cid < 1 << 16:
            raise ValueError("cluster id must fit 16 bits")
        raw = struct.pack("!H", cid)
        parts.append(raw + struct.pack("!H", crc16(raw)))
    return b"".join(parts)


def parse_payload(payload: bytes) -> CtcFrame:
    """Check every field CRC of a 30 byte payload independently."""
    if len(payload) != PAYLOAD_BYTES:
        raise FrameLengthError(f"payload must be {PAYLOAD_BYTES} bytes, got {len(payload)}")
    net = payload[:_NETWORK_BYTES]
    (net_crc,) = struct.unpack("!H", payload[_NETWORK_BYTES:_NETWORK_BYTES + _CRC_BYTES])
    network_id = struct.unpack("!I", net)[0]
    network_ok = crc16(net) == net_crc
    ids, oks = [], []
    offset = FIELD_BYTES[0]
    for _ in range(N_CLUSTER_FIELDS):
        raw = payload[offset:offset + _CLUSTER_BYTES]
        (got,) = struct.unpack("!H", payload[offset + _CLUSTER_BYTES:offset + _CLUSTER_BYTES + _CRC_BYTES])
        ids.append(struct.unpack("!H", raw)[0])
        oks.append(crc16(raw) == got)
        offset += _CLUSTER_BYTES + _CRC_BYTES
    return CtcFrame(network_id, network_ok, tuple(ids), tuple(oks))


def _field_to_symbols(raw: bytes, bits_per_symbol: int) -> list[int]:
    n_sym = field_symbol_count(len(raw), bits_per_symbol)
    total = n_sym * bits_per_symbol
    value = int.from_bytes(raw, "big") << (total - 8 * len(raw))  # zero padding
    mask = (1 << bits_per_symbol) - 1
    return [(value >> (total - bits_per_symbol * (i + 1))) & mask for i in range(n_sym)]


def _symbols_to_field(symbols: Sequence[int], n_bytes: int, bits_per_symbol: int) -> bytes:
    total = len(symbols) * bits_per_symbol
    value = 0
    for s in symbols:
        value = (value << bits_per_symbol) | s
    return (value >> (total - 8 * n_bytes)).to_bytes(n_bytes, "big")


def build_frame(network_id: int, cluster_ids: Sequence[int], scheme: CodingScheme) -> SymbolStream:
    """Symbol stream for one frame: preamble then the padded payload fields."""
    payload = build_payload(network_id, cluster_ids)
    k = scheme.bits_per_symbol
    values: list[int] = []
    offset = 0
    for nb in FIELD_BYTES:
        values.extend(_field_to_symbols(payload[offset:offset + nb], k))
        offset += nb
    return SymbolStream(scheme, preamble_schedules(scheme), tuple(values))


def parse_frame(values: Sequence[int], scheme: CodingScheme) -> CtcFrame:
    """Frame content from the data symbol values (preamble already stripped)."""
    expect = frame_symbol_count(scheme)
    if len(values) != expect:
        raise FrameLengthError(f"frame needs {expect} symbols, got {len(values)}")
    k = scheme.bits_per_symbol
    for v in values:
        if not 0 <= v < scheme.alphabet_size:
            raise ValueError(f"symbol value {v} outside the alphabet")
    payload = bytearray()
    offset = 0
    for nb in FIELD_BYTES:
        n_sym = field_symbol_count(nb, k)
        payload += _symbols_to_field(values[offset:offset + n_sym], nb, k)
        offset += n_sym
    return parse_payload(bytes(payload))


# ---------------------------------------------------------------------------
# Scheme registry: the built-in schemes, built once at import.
# ---------------------------------------------------------------------------

def default_schemes() -> dict[str, CodingScheme]:
    """Built-in schemes, freshly built.

    wide20: 20 ms symbol whose 2 ms gap moves over an 8 position grid (3 bit).
    short12: 12 ms symbol, fixed tail gap, one extra puncture, 8 positions (3 bit).
    multi20-kN: 20 ms symbol, fixed tail gap, N extra punctures over 18 slots.
    """
    schemes = {
        "wide20": CodingScheme("wide20", 20, "moving", forbid_edges=True),
        "short12": CodingScheme("short12", 12, "tail", extra_punctures=1, forbid_edges=True),
    }
    for k in range(1, 10):
        name = f"multi20-k{k}"
        schemes[name] = CodingScheme(name, 20, "tail", extra_punctures=k)
    return schemes


_REGISTRY = default_schemes()


def get_scheme(name: str) -> CodingScheme:
    """The registry's scheme of that name; the same object on every call."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown scheme {name!r}; have {sorted(_REGISTRY)}") from None
