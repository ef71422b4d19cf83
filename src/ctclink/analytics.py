"""Closed-form throughput and WiFi-airtime analysis of the side channel.

All quantities follow from three ingredients: how many whole symbols of
the registry's multi20 schemes fit into an ON phase, how many bits one
symbol carries (puncture-position combinatorics over the scheme's movable
1 ms slots, k of them punctured), and the worst-case airtime a WiFi
sender can extract from the OFF phase plus the punctures.

Symbols are laid head to tail; a symbol fits while its transmit span ends
inside the ON phase, so the mandatory tail gap of the last symbol may
overhang into the OFF phase.  That makes the symbol count
floor((T_on + gap) / symbol) and requires an overhang correction in the
airtime balance so that usable airtime, LTE payload time, and guard loss
add up to exactly one cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ._csv import write_csv
from .codec import get_scheme, modulation_capacity

# every multi20-kN shares the symbol geometry; only the puncture count differs
_MULTI20 = get_scheme("multi20-k1")
SYMBOL_MS = float(_MULTI20.symbol_ms)
MANDATORY_GAP_MS = float(_MULTI20.mandatory_ms)
CANDIDATE_SLOTS = _MULTI20.n_positions
EXTRA_PUNCTURE_MS = 1.0
GUARD_MS = 0.384  # WiFi slot+DIFS+preamble overhead lost per puncture


def _validate(cycle_ms: float, duty: float, k: int) -> None:
    if cycle_ms <= 0:
        raise ValueError("cycle must be positive")
    if not 0.0 <= duty <= 1.0:
        raise ValueError("duty must lie in [0, 1]")
    if not 0 <= k <= CANDIDATE_SLOTS:
        raise ValueError(f"k must lie in [0, {CANDIDATE_SLOTS}]")


def bits_per_symbol(k: int) -> int:
    """Bits carried by one symbol with k movable punctures."""
    if not 0 <= k <= CANDIDATE_SLOTS:
        raise ValueError(f"k must lie in [0, {CANDIDATE_SLOTS}]")
    return modulation_capacity(CANDIDATE_SLOTS, k)[1]


def symbols_per_on_phase(on_ms: float) -> int:
    """Whole symbols per ON phase; the last trailing gap may overhang."""
    if on_ms < 0:
        raise ValueError("ON time cannot be negative")
    return int((on_ms + MANDATORY_GAP_MS) // SYMBOL_MS)


def ctc_data_rate(cycle_ms: float, duty: float, k: int) -> float:
    """Side-channel rate in bit/s for one CSAT configuration."""
    _validate(cycle_ms, duty, k)
    n_sym = symbols_per_on_phase(duty * cycle_ms)
    return n_sym * bits_per_symbol(k) * 1000.0 / cycle_ms


def peak_rate_bps(k: int = 9) -> float:
    """Formula ceiling: symbols back to back, one per SYMBOL_MS."""
    return bits_per_symbol(k) * 1000.0 / SYMBOL_MS


def _airtime_parts(cycle_ms: float, duty: float, k: int) -> tuple[float, float, float]:
    """(usable_wifi, lte_payload, guard_loss) in ms per cycle, exact."""
    on_ms = duty * cycle_ms
    n_sym = symbols_per_on_phase(on_ms)
    overhang_ms = max(0.0, n_sym * SYMBOL_MS - on_ms)  # last gap past ON end
    punctured_ms = n_sym * (MANDATORY_GAP_MS + k * EXTRA_PUNCTURE_MS)
    punctured_in_on = punctured_ms - overhang_ms
    guard_loss = n_sym * (1 + k) * GUARD_MS
    usable = (cycle_ms - on_ms) + punctured_in_on - guard_loss
    payload = on_ms - punctured_in_on
    return usable, payload, guard_loss


def wifi_airtime(cycle_ms: float, duty: float, k: int) -> float:
    """Worst-case usable WiFi airtime fraction.

    OFF time plus every puncture, each docked the 384 us guard a WiFi
    sender needs before it can occupy the hole; any frame overlapping the
    LTE ON phase counts as lost.
    """
    _validate(cycle_ms, duty, k)
    usable, _, _ = _airtime_parts(cycle_ms, duty, k)
    return usable / cycle_ms


@dataclass(frozen=True)
class AnalyticsPoint:
    """One (cycle, duty, k) operating point of the air interface."""

    cycle_ms: float
    duty: float
    k_extra: int
    ctc_rate_bps: float
    wifi_airtime_fraction: float

    def __post_init__(self) -> None:
        if self.ctc_rate_bps < 0:
            raise ValueError("rate cannot be negative")
        if not 0.0 <= self.wifi_airtime_fraction <= 1.0:
            raise ValueError("airtime fraction must lie in [0, 1]")


DEFAULT_DUTIES = (0.1, 0.2, 0.24, 0.3, 0.4, 0.5, 0.75, 0.95)
DEFAULT_CYCLES_MS = (40.0, 80.0, 160.0)


def rate_airtime_table(
    ks: Iterable[int] = range(0, 10),
    duties: Sequence[float] = DEFAULT_DUTIES,
    cycles_ms: Sequence[float] = DEFAULT_CYCLES_MS,
) -> list[AnalyticsPoint]:
    """Rate/airtime trade-off grid, one point per (cycle, duty, k)."""
    return [
        AnalyticsPoint(
            cycle_ms=cycle,
            duty=duty,
            k_extra=k,
            ctc_rate_bps=ctc_data_rate(cycle, duty, k),
            wifi_airtime_fraction=wifi_airtime(cycle, duty, k),
        )
        for cycle in cycles_ms
        for duty in duties
        for k in ks
    ]


def table_to_csv(points: Sequence[AnalyticsPoint], path: str) -> None:
    write_csv(
        path,
        (("cycle_ms", "g"), ("duty", "g"), ("k", ""), ("rate_bps", ".4f"), ("wifi_airtime", ".6f")),
        ((p.cycle_ms, p.duty, p.k_extra, p.ctc_rate_bps, p.wifi_airtime_fraction) for p in points),
    )
