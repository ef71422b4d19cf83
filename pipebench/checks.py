"""Correctness checks of the benchmark's outputs.

Every check compares against a property of the method or against a
recomputation made here from the definition, never against a stored copy
of earlier output.  A failing check raises CheckFailed.
"""

from __future__ import annotations

import math

import numpy as np

# ED register -> threshold in dBm, from the calibration of the modelled NIC.
ED_THRESHOLD_DBM = {3: -92.0, 28: -62.0}
# Where each register's FER knee must land, and how far it may miss.
KNEE_TARGET_DBM = {3: -92.0, 28: -60.5}
KNEE_TOLERANCE_DB = 1.5
MAX_KNEE_WIDTH_DB = 3.0
# Points this far from the ED threshold are certain: all lost below it,
# all received above it on a clear channel.
CERTAIN_MARGIN_DB = 4.0
# Saturated own traffic blocks the receiver for part of the time
# (half-duplex), so FER at -56 dBm settles on a floor in this band.  The
# floor sits near 0.19, close to the lower edge, so the check asks the
# 95% Wilson interval of the estimate to reach the band.  At 600 frames
# that passes estimates from 0.122 to 0.387.
HALF_DUPLEX_FER = (0.15, 0.35)
WILSON_Z = 1.96

# Proximity definition: log-distance pathloss from a 20 dBm transmitter,
# audible at or above the receive sensitivity.
TX_POWER_DBM = 20.0
REF_LOSS_DB = 46.4
PATHLOSS_EXPONENT = 3.13
SENSITIVITY_DBM = -77.0
MAX_PROXIMITY = 7  # a site plus its six neighbours


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# fer-sweep
# ---------------------------------------------------------------------------

def knee(points: list[tuple[float, float]], low: float = 0.1, high: float = 0.9):
    """(knee, width) of an FER curve given as (power, fer) pairs.

    knee: lowest power from which FER stays at or below ``low``;
    width: knee minus the highest lower power whose FER is at or above
    ``high``.  NaN where the curve never settles or never fails.
    """
    pts = sorted(points)
    for i, (power, _) in enumerate(pts):
        if all(f <= low for _, f in pts[i:]):
            below = [p for p, f in pts[:i] if f >= high]
            return power, (power - below[-1]) if below else math.nan
    return math.nan, math.nan


def check_ed_knees(curves: dict[int, list[tuple[float, float]]]) -> None:
    """Each register's knee near its target, with a sharp transition."""
    for theta, target in KNEE_TARGET_DBM.items():
        require(theta in curves, f"no ED sweep for theta={theta}")
        at, width = knee(curves[theta])
        require(
            abs(at - target) <= KNEE_TOLERANCE_DB,
            f"theta={theta}: knee {at} dBm, want {target} +/- {KNEE_TOLERANCE_DB}",
        )
        require(
            width <= MAX_KNEE_WIDTH_DB,
            f"theta={theta}: transition width {width} dB exceeds {MAX_KNEE_WIDTH_DB}",
        )


def check_certain_points(points, clear: bool) -> None:
    """FER 1 far below the ED threshold; FER 0 far above it when clear.

    ``points`` holds (theta, power_dbm, fer) triples.
    """
    for theta, power, fer in points:
        threshold = ED_THRESHOLD_DBM[theta]
        if power <= threshold - CERTAIN_MARGIN_DB:
            require(fer == 1.0, f"theta={theta} {power} dBm: FER {fer}, want 1 below threshold")
        if clear and power >= threshold + CERTAIN_MARGIN_DB:
            require(fer == 0.0, f"theta={theta} {power} dBm: FER {fer}, want 0 on a clear channel")


def wilson_interval(errors: int, n: int, z: float = WILSON_Z) -> tuple[float, float]:
    """Wilson score interval of a binomial proportion."""
    p = errors / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z / denom * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return center - half, center + half


def check_half_duplex(errors: int, n: int) -> None:
    """The FER estimate is consistent with a floor inside the band."""
    lo, hi = HALF_DUPLEX_FER
    w_lo, w_hi = wilson_interval(errors, n)
    require(
        w_hi >= lo and w_lo <= hi,
        f"apdl-high FER {errors}/{n} at -56 dBm: 95% interval [{w_lo:.3f}, {w_hi:.3f}] "
        f"misses [{lo}, {hi}]",
    )


def check_identical(first, other, what: str) -> None:
    require(first == other, f"{what} differs between rounds of one seed")


# ---------------------------------------------------------------------------
# capture-decode
# ---------------------------------------------------------------------------
# A decoded frame is (sync_t, symbols, all_ok, network_id, cluster_ids);
# a transmit-log entry is (segment, sync_t, network_id, cluster_ids).

def check_same_frames(a, b, what: str) -> None:
    """Identical sync index and symbols, frame for frame."""
    key_a = [(f[0], tuple(f[1])) for f in a]
    key_b = [(f[0], tuple(f[1])) for f in b]
    require(key_a == key_b, f"{what}: {len(a)} vs {len(b)} frames, or sync/symbols differ")


def slot_of(frame, tx_log, tolerance: int):
    """Index of the transmit slot whose sync index lies within tolerance."""
    for i, entry in enumerate(tx_log):
        if abs(frame[0] - entry[1]) <= tolerance:
            return i
    return None


def check_payloads(frames, tx_log, tolerance: int) -> None:
    """Every frame passing all CRCs carries the payload sent in its slot."""
    for f in frames:
        if not f[2]:
            continue
        i = slot_of(f, tx_log, tolerance)
        require(i is not None, f"CRC-clean frame at sync {f[0]} matches no transmit slot")
        _, _, net, clusters = tx_log[i]
        require(
            (f[3], tuple(f[4])) == (net, tuple(clusters)),
            f"frame at sync {f[0]} carries {f[3]:#x}/{f[4]}, slot sent {net:#x}/{clusters}",
        )


def check_recovered(frames, tx_log, segment: str, tolerance: int) -> None:
    """Every slot of ``segment`` has a CRC-clean frame."""
    got = {slot_of(f, tx_log, tolerance) for f in frames if f[2]}
    lost = [i for i, e in enumerate(tx_log) if e[0] == segment and i not in got]
    require(not lost, f"{len(lost)} frames of the {segment} segment not recovered")


def check_silent(frames, span: tuple[int, int]) -> None:
    """No CRC-clean frame synchronises inside the sample range ``span``."""
    lo, hi = span
    bad = [f[0] for f in frames if f[2] and lo <= f[0] < hi]
    require(not bad, f"CRC-clean frames below threshold at sync {bad}")


# ---------------------------------------------------------------------------
# proximity
# ---------------------------------------------------------------------------

def audible(point, sites: np.ndarray) -> np.ndarray:
    """Indices of the sites heard at or above the sensitivity at ``point``."""
    d = np.maximum(np.hypot(sites[:, 0] - point[0], sites[:, 1] - point[1]), 1e-3)
    rx = TX_POWER_DBM - (REF_LOSS_DB + 10.0 * PATHLOSS_EXPONENT * np.log10(d))
    return np.flatnonzero(rx >= SENSITIVITY_DBM)


def brute_force_estimate(point, sites: np.ndarray, cell_ids, entries) -> frozenset[int]:
    """Union of the members of every (slot, cluster) field that decodes.

    A field decodes when something is audible and every audible station
    is a member of that field's cluster.
    """
    heard = {cell_ids[i] for i in audible(point, sites)}
    if not heard:
        return frozenset()
    cells: set[int] = set()
    for members in entries.values():
        if heard <= set(members):
            cells.update(members)
    return frozenset(cells)


def check_codebook(got: dict, expected: dict) -> None:
    require(len(got) == len(expected), f"codebook has {len(got)} entries, want {len(expected)}")
    for key, members in expected.items():
        require(
            tuple(sorted(got.get(key, ()))) == tuple(sorted(members)),
            f"codebook entry {key}: {got.get(key)} != {members}",
        )


def check_ack(ack: int, n_cells: int) -> None:
    require(ack == n_cells, f"REPORT_ACK counts {ack} cells, {n_cells} were reported")


def check_estimate(got, expected, where) -> None:
    require(set(got) == set(expected), f"estimate at {where}: {sorted(got)} != {sorted(expected)}")


def check_unshadowed_grid(points: np.ndarray, counts: np.ndarray, sites: np.ndarray,
                          spacing_m: float) -> None:
    """No count above 7, and 7 only within half a spacing of a site."""
    require(int(counts.max()) <= MAX_PROXIMITY, f"count {int(counts.max())} above {MAX_PROXIMITY}")
    full = points[counts == MAX_PROXIMITY]
    if len(full):
        d = np.hypot(full[:, None, 0] - sites[None, :, 0], full[:, None, 1] - sites[None, :, 1])
        far = float(d.min(axis=1).max())
        require(far < spacing_m / 2, f"count 7 at {far:.1f} m from the nearest site")
