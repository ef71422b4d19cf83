"""Hexagonal multi-cell deployments and proximity detection.

Adjacent base stations are grouped into clusters of up to three so that
cluster members transmit identical control frames (no intra-cluster
interference on the side channel).  Six time-multiplexed cluster
configurations — the two triangle orientations of the lattice in three
shift phases each — cover every edge of every cell, so any receiver that
hears only the members of one cluster can decode that cluster's ID field.
The union of the decoded clusters' members is the proximity estimate.

Grid-scale runs use the threshold decodability model: a field decodes when
every station above the receive sensitivity belongs to the field's
cluster.  One array kernel, ``decode_clusters``, applies that rule to a
(points, cells) receive-power matrix; a grid goes through it POINT_BLOCK
points at a time, and single locations go through the same kernel.  A
slow full-stack mode cross-checks selected points through the stations'
cycle-table windows, the MAC-state sampler, and the demodulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from ._csv import write_csv
from .codec import CodingScheme, N_CLUSTER_FIELDS, build_frame, get_scheme
from .demod import ReceiverConfig, demodulate
from .phy import RESOLUTION_US, WINDOW_US, CsatConfig, MacStateSeries, sample_window_counts
from .radio import (
    NOISE_FLOOR_DBM,
    SENSITIVITY_DBM,
    PathlossModel,
    RadioLink,
    ShadowingField,
    dbm_to_mw,
)
from .timing import stage

HEX_SPACING_M = 50.0
# receiver locations that evaluate_points takes through powers, decoding and
# SINR at a time; of 256, 512, 1024 and 2048, 512 ran the default grids fastest
POINT_BLOCK = 512

# axial-coordinate neighbor directions, counter-clockwise
_DIRECTIONS = ((1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1))


class UnsupportedTopologyError(ValueError):
    """The operation needs a hexagonal-lattice deployment."""


class CodebookLookupError(KeyError):
    """A decoded (slot, cluster) tuple is absent from the codebook."""


@dataclass(frozen=True)
class BaseStation:
    cell_id: int
    x_m: float
    y_m: float
    tx_power_dbm: float = 20.0


@dataclass
class Deployment:
    """Base stations on a triangular lattice, all sharing one channel."""

    stations: tuple[BaseStation, ...]
    spacing_m: float
    axial: dict[int, tuple[int, int]] = field(default_factory=dict)

    @property
    def n_cells(self) -> int:
        return len(self.stations)

    @cached_property
    def cell_ids(self) -> tuple[int, ...]:
        return tuple(bs.cell_id for bs in self.stations)

    @cached_property
    def positions_m(self) -> np.ndarray:
        positions = np.array([[bs.x_m, bs.y_m] for bs in self.stations])
        positions.flags.writeable = False
        return positions

    @cached_property
    def tx_powers_dbm(self) -> np.ndarray:
        powers = np.array([bs.tx_power_dbm for bs in self.stations])
        powers.flags.writeable = False
        return powers

    def neighbors(self, cell_id: int) -> tuple[int, ...]:
        """Cells at lattice distance one."""
        if not self.axial:
            raise UnsupportedTopologyError("deployment has no lattice coordinates")
        q, r = self.axial[cell_id]
        inverse = {qr: cid for cid, qr in self.axial.items()}
        out = []
        for dq, dr in _DIRECTIONS:
            hit = inverse.get((q + dq, r + dr))
            if hit is not None:
                out.append(hit)
        return tuple(sorted(out))

    def adjacent_pairs(self) -> tuple[tuple[int, int], ...]:
        pairs = set()
        for cid in self.cell_ids:
            for other in self.neighbors(cid):
                pairs.add((min(cid, other), max(cid, other)))
        return tuple(sorted(pairs))


def _axial_to_xy(q: int, r: int, spacing: float) -> tuple[float, float]:
    return spacing * (q + r / 2.0), spacing * (math.sqrt(3.0) / 2.0) * r


def build_hex_deployment(count: int) -> Deployment:
    """Lattice of HEX_SPACING_M, filled ring by ring from the center, deterministic IDs."""
    if count < 1:
        raise ValueError("need at least one base station")
    coords: list[tuple[int, int]] = [(0, 0)]
    ring = 1
    while len(coords) < count:
        q, r = ring * _DIRECTIONS[4][0], ring * _DIRECTIONS[4][1]
        for d in range(6):
            for _ in range(ring):
                coords.append((q, r))
                q, r = q + _DIRECTIONS[d][0], r + _DIRECTIONS[d][1]
        ring += 1
    coords = coords[:count]
    stations = []
    axial = {}
    for cid, (q, r) in enumerate(coords):
        x, y = _axial_to_xy(q, r, HEX_SPACING_M)
        stations.append(BaseStation(cid, x, y))
        axial[cid] = (q, r)
    return Deployment(tuple(stations), HEX_SPACING_M, axial)


@dataclass
class ClusterConfiguration:
    """One time slot's disjoint grouping of cells into clusters."""

    slot: int
    clusters: dict[int, tuple[int, ...]]  # cluster_id -> member cells
    _cluster_ids: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @cached_property
    def _cell_to_cluster(self) -> dict[int, int]:
        return {
            cell: cluster_id
            for cluster_id, members in self.clusters.items()
            for cell in members
        }

    def cluster_of(self, cell_id: int) -> int:
        try:
            return self._cell_to_cluster[cell_id]
        except KeyError:
            raise KeyError(f"cell {cell_id} is in no cluster of slot {self.slot}") from None

    def cluster_ids(self, cell_ids: tuple[int, ...]) -> np.ndarray:
        """Cluster ID of each cell in ``cell_ids``, -1 for a cell in no cluster.

        The array for the last ``cell_ids`` asked for is kept, so repeated
        single-location calls on one deployment build it once.
        """
        cached = self._cluster_ids
        if cached is None or (cached[0] is not cell_ids and cached[0] != cell_ids):
            ids = np.array([self._cell_to_cluster.get(c, -1) for c in cell_ids], dtype=np.int64)
            ids.flags.writeable = False
            self._cluster_ids = (cell_ids, ids)
        return self._cluster_ids[1]


@dataclass
class Codebook:
    """Lookup from (configuration slot, cluster ID) to member cells."""

    entries: dict[tuple[int, int], tuple[int, ...]]
    n_slots: int = N_CLUSTER_FIELDS  # one slot configuration per cluster field

    def members(self, slot: int, cluster_id: int) -> tuple[int, ...]:
        try:
            return self.entries[(slot, cluster_id)]
        except KeyError:
            raise CodebookLookupError(
                f"no cluster {cluster_id} in configuration slot {slot}"
            ) from None


def _triad_anchors(q: int, r: int, orientation: str) -> list[tuple[int, int]]:
    """Anchor candidates whose triad of the given orientation contains (q, r)."""
    if orientation == "up":
        return [(q, r), (q - 1, r), (q, r - 1)]
    return [(q - 1, r - 1), (q - 1, r), (q, r - 1)]


def build_cluster_configurations(
    dep: Deployment,
) -> tuple[list[ClusterConfiguration], Codebook]:
    """Six overlapping slot configurations from triad tiling.

    Slots 1-3 partition the lattice into upward triangles in the three
    shift phases, slots 4-6 into downward ones, so every adjacent pair
    shares exactly one cluster per orientation.  Cells on the deployment
    boundary may land in truncated clusters of size one or two.  Within a
    slot, a cluster's ID is its smallest member cell ID.
    """
    if not dep.axial:
        raise UnsupportedTopologyError("deployment has no lattice coordinates")
    inverse = {qr: cid for cid, qr in dep.axial.items()}
    configurations = []
    entries: dict[tuple[int, int], tuple[int, ...]] = {}
    for slot in range(1, N_CLUSTER_FIELDS + 1):
        orientation = "up" if slot <= 3 else "down"
        phase = (slot - 1) % 3
        by_anchor: dict[tuple[int, int], list[int]] = {}
        for cid, (q, r) in dep.axial.items():
            anchor = next(
                a for a in _triad_anchors(q, r, orientation)
                if (a[0] - a[1]) % 3 == phase
            )
            by_anchor.setdefault(anchor, []).append(cid)
        clusters = {}
        for anchor, members in by_anchor.items():
            members = tuple(sorted(members))
            clusters[min(members)] = members
        configurations.append(ClusterConfiguration(slot, clusters))
        for cluster_id, members in clusters.items():
            entries[(slot, cluster_id)] = members
    return configurations, Codebook(entries)


def example_codebook() -> Codebook:
    """Published seven-cell example: one center cell (4) with six neighbors.

    Only the two cluster rows quoted in the reference material are carried
    (IDs 4 and 5); truncated boundary clusters keep their partial member
    sets.  Lookup order is (slot, cluster): e.g. members(1, 5) = (0, 1, 4)
    and members(2, 4) = (3, 4, 6).
    """
    rows = {
        4: [(3, 6), (3, 4, 6), (4, 5, 6), (5, 6), (2, 4, 5), (2, 5)],
        5: [(0, 1, 4), (0, 1), (1, 2), (1, 2, 4), (1,), (6,)],
    }
    entries = {
        (slot, cluster_id): tuple(members)
        for cluster_id, per_slot in rows.items()
        for slot, members in enumerate(per_slot, start=1)
    }
    return Codebook(entries)


@dataclass(frozen=True)
class ProximityObservation:
    """Decoded (slot, cluster) tuples at one receiver location."""

    pairs: frozenset[tuple[int, int]]
    network_decoded: bool

    def __iter__(self):
        return iter(sorted(self.pairs))


def received_powers_dbm(
    dep: Deployment,
    points: np.ndarray,
    pathloss: PathlossModel | None = None,
    shadowing: ShadowingField | None = None,
) -> np.ndarray:
    """(n_points, n_cells) receive power per station, optionally shadowed."""
    pathloss = pathloss or PathlossModel()
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    cell_x, cell_y = dep.positions_m.T
    dist = np.hypot(pts[:, :1] - cell_x, pts[:, 1:] - cell_y)
    np.maximum(dist, 1e-3, out=dist)
    rx = pathloss.loss_db(dist)
    del dist
    np.subtract(dep.tx_powers_dbm, rx, out=rx)
    if shadowing is not None:
        rx += shadowing.values_at(pts)
    return rx


def decode_clusters(
    rx_dbm: np.ndarray,
    configurations: Sequence[ClusterConfiguration],
    cell_ids: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Threshold decodability of every cluster-ID field at many locations.

    ``rx_dbm`` is (points, cells), columns in ``cell_ids`` order.  A slot's
    field decodes when at least one cell is at or above SENSITIVITY_DBM and
    every such cell is in one cluster of that slot: the min and max of
    their (non-negative) cluster IDs are equal.  Returns the (points, slots)
    decoded cluster IDs, -1 where the field does not decode, and the (points,)
    flags of locations where anything is audible.  An audible cell that is
    in no cluster of a slot raises KeyError, naming the first such point's
    first such slot.
    """
    cell_ids = tuple(cell_ids)
    rx = np.asarray(rx_dbm, dtype=float)
    n_points = rx.shape[0]
    point, cell = np.nonzero(rx >= SENSITIVITY_DBM)
    if len(point) == 0:
        return np.full((n_points, len(configurations)), -1), np.zeros(n_points, dtype=bool)
    ids = np.array([c.cluster_ids(cell_ids) for c in configurations]).T[cell]
    # np.nonzero is row-major, so each point's audible cells form one run
    if n_points == 1:  # one row is one run
        starts = np.zeros(1, dtype=np.intp)
    else:
        new_point = np.empty(len(point), dtype=bool)
        new_point[0] = True
        np.not_equal(point[1:], point[:-1], out=new_point[1:])
        starts = np.flatnonzero(new_point)
    lo = np.minimum.reduceat(ids, starts, axis=0)
    if lo.min() < 0:
        _raise_unclustered(ids < 0, point, cell, configurations, cell_ids)
    hi = np.maximum.reduceat(ids, starts, axis=0)
    lo[lo != hi] = -1
    if len(starts) == n_points:  # every point audible, as a single audible point is
        return lo, np.ones(n_points, dtype=bool)
    decoded = np.full((n_points, len(configurations)), -1)
    audible = np.zeros(n_points, dtype=bool)
    decoded[point[starts]] = lo
    audible[point[starts]] = True
    return decoded, audible


def _raise_unclustered(missing, point, cell, configurations, cell_ids) -> None:
    """Raise the KeyError of the first point's first slot with an unclustered
    audible cell, looking its audible cells up as one set, as the set-based
    rule did, so that the same cell is named."""
    at_first = point == point[missing.any(axis=1).argmax()]
    slot = missing[at_first].any(axis=0).argmax()
    for cell_id in {cell_ids[c] for c in cell[at_first]}:
        configurations[slot].cluster_of(cell_id)


def _observation(
    configurations: Sequence[ClusterConfiguration], decoded_row: np.ndarray, audible: bool
) -> ProximityObservation:
    pairs = frozenset(
        (config.slot, cluster_id)
        for config, cluster_id in zip(configurations, decoded_row.tolist())
        if cluster_id >= 0
    )
    return ProximityObservation(pairs, bool(audible))


def decodable_fields(
    rx_dbm: np.ndarray,
    configurations: Sequence[ClusterConfiguration],
    cell_ids: Sequence[int],
) -> ProximityObservation:
    """Threshold decodability at one location (``decode_clusters`` on one row).

    The network-ID field decodes whenever anything is audible, since every
    station transmits it identically.
    """
    decoded, audible = decode_clusters(
        np.asarray(rx_dbm, dtype=float)[None, :], configurations, cell_ids
    )
    return _observation(configurations, decoded[0], audible[0])


def observation_at(
    dep: Deployment,
    point: Sequence[float],
    configurations: Sequence[ClusterConfiguration] | None = None,
    shadowing: ShadowingField | None = None,
) -> ProximityObservation:
    """Threshold-model observation at a single receiver location."""
    if configurations is None:
        configurations, _ = build_cluster_configurations(dep)
    rx = received_powers_dbm(dep, np.asarray(point, dtype=float)[None, :], shadowing=shadowing)
    return decodable_fields(rx[0], configurations, dep.cell_ids)


def estimate_proximity(
    observation: ProximityObservation | Iterable[tuple[int, int]],
    codebook: Codebook,
) -> set[int]:
    """Union of the member sets of every decoded (slot, cluster) tuple."""
    cells: set[int] = set()
    for slot, cluster_id in observation:
        cells.update(codebook.members(slot, cluster_id))
    return cells


def best_sinr_db(rx_dbm: np.ndarray) -> np.ndarray:
    """Best-station SINR per point over NOISE_FLOOR_DBM plus every other
    station; with no interferer this is P/noise."""
    p_mw = dbm_to_mw(np.atleast_2d(rx_dbm))
    total = p_mw.sum(axis=1, keepdims=True)
    sinr = np.subtract(total, p_mw)
    sinr += dbm_to_mw(NOISE_FLOOR_DBM)
    np.divide(p_mw, sinr, out=sinr)
    best = sinr.max(axis=1)
    np.log10(best, out=best)
    best *= 10.0
    return best


@dataclass
class GridResult:
    """Per-point proximity statistics of one grid run."""

    points_m: np.ndarray  # (n, 2)
    n_detected: np.ndarray  # (n,)
    sinr_db_best: np.ndarray  # (n,)

    def histogram(self) -> dict[int, int]:
        values, counts = np.unique(self.n_detected, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}

    def to_csv(self, path: str) -> None:
        write_csv(
            path,
            (("x_m", ".2f"), ("y_m", ".2f"), ("n_detected", ""), ("sinr_db_best", ".3f")),
            zip(self.points_m[:, 0], self.points_m[:, 1], self.n_detected, self.sinr_db_best),
        )


def evaluate_points(
    dep: Deployment,
    points: np.ndarray,
    configurations: Sequence[ClusterConfiguration] | None = None,
    codebook: Codebook | None = None,
    shadowing: ShadowingField | None = None,
) -> GridResult:
    """Proximity-set size and best SINR at explicit receiver locations.

    Powers, decoding and SINR run on POINT_BLOCK points at a time, so no
    (points, cells) array is longer than a block; the results do not
    depend on the block size.
    """
    if configurations is None or codebook is None:
        configurations, codebook = build_cluster_configurations(dep)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(pts)
    decoded = np.empty((n, len(configurations)), dtype=np.int64)
    sinr = np.empty(n)
    for lo in range(0, n, POINT_BLOCK):
        block = pts[lo:lo + POINT_BLOCK]
        with stage("powers"):
            rx = received_powers_dbm(dep, block, shadowing=shadowing)
        with stage("decode"):
            decoded[lo:lo + POINT_BLOCK] = decode_clusters(rx, configurations, dep.cell_ids)[0]
        with stage("sinr"):
            sinr[lo:lo + POINT_BLOCK] = best_sinr_db(rx)
    with stage("estimate"):
        # a grid has few distinct decoded rows: sort them so that equal rows
        # are adjacent (stable, so each run starts at its first occurrence)
        order = np.lexsort(decoded.T)
        ordered = decoded[order]
        new_row = np.ones(n, dtype=bool)
        np.any(ordered[1:] != ordered[:-1], axis=1, out=new_row[1:])
        starts = np.flatnonzero(new_row)
        sizes = np.zeros(len(starts), dtype=int)
        # estimate each row once, in order of first occurrence, so a codebook
        # miss names the first point's pair
        for r in np.argsort(order[starts]):
            observation = _observation(configurations, ordered[starts[r]], True)
            sizes[r] = len(estimate_proximity(observation, codebook))
        n_detected = np.empty(n, dtype=int)
        n_detected[order] = sizes[np.cumsum(new_row) - 1]
    return GridResult(pts, n_detected, sinr)


def grid_evaluate(
    dep: Deployment,
    grid_step_m: float = 2.0,
    side_m: float = 140.0,
    shadowing_sigma_db: float = 0.0,
    rng: np.random.Generator | None = None,
) -> GridResult:
    """Regular-grid proximity heatmap over a square centered on the lattice.

    The shadowing field (when enabled) is drawn once up front so every
    point sees one consistent spatially correlated realization.
    """
    if not (grid_step_m > 0 and side_m > 0):
        raise ValueError(f"grid step {grid_step_m:g} m and side {side_m:g} m must be positive")
    if not (math.isfinite(grid_step_m) and math.isfinite(side_m)):
        raise ValueError(f"grid step {grid_step_m:g} m and side {side_m:g} m must be finite")
    half = side_m / 2.0
    axis = np.arange(-half, half + grid_step_m / 2.0, grid_step_m)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    points = np.column_stack([gx.ravel(), gy.ravel()])
    shadowing = None
    if shadowing_sigma_db != 0:
        with stage("field"):
            shadowing = ShadowingField(
                shadowing_sigma_db,
                dep.n_cells,
                (-half, half, -half, half),
                rng=rng,
            )
    return evaluate_points(dep, points, shadowing=shadowing)


def full_stack_check(
    dep: Deployment,
    points: np.ndarray,
    scheme: CodingScheme | None = None,
    csat: CsatConfig | None = None,
    network_id: int = 0x0A000001,
    shadowing: ShadowingField | None = None,
) -> list[dict]:
    """Cross-check the threshold model against the real receiver chain.

    Every station transmits its own frame (shared network ID, its six
    per-slot cluster IDs) on a time-aligned duty cycle; the receiver's ED
    threshold is set to SENSITIVITY_DBM so audibility matches the model.
    A shadowing field enters both sides as a per-link tx-power offset,
    ``shadowing.values_at(point)``.  Frames are cycle-table window rows,
    each window all ON or all OFF, so the max of the stations' codes is
    their per-tick OR.  Returns one record per point with both
    observations and a match flag.
    """
    scheme = scheme or get_scheme("wide20")
    csat = csat or CsatConfig(40, 20)
    config = ReceiverConfig(scheme, csat)
    configurations, codebook = build_cluster_configurations(dep)
    counts = []  # per station, the transmit ticks of each window of its frame
    for bs in dep.stations:
        stream = build_frame(network_id, [c.cluster_of(bs.cell_id) for c in configurations], scheme)
        windows = config.cycle_windows(config.preamble_rows + stream.data)
        counts.append(windows.view(np.uint8) * np.uint8(WINDOW_US // RESOLUTION_US))
    results = []
    for point in np.atleast_2d(np.asarray(points, dtype=float)):
        rx = received_powers_dbm(dep, point[None, :], shadowing=shadowing)[0]
        analytic = decodable_fields(rx, configurations, dep.cell_ids)
        offsets = np.zeros(dep.n_cells) if shadowing is None else shadowing.values_at(point)[0]
        links = [
            RadioLink(
                distance_m=max(float(np.hypot(bs.x_m - point[0], bs.y_m - point[1])), 1e-3),
                tx_power_dbm=bs.tx_power_dbm + float(offset),
                ed_threshold_dbm=SENSITIVITY_DBM,
            )
            for bs, offset in zip(dep.stations, offsets)
        ]
        series = MacStateSeries.from_codes(np.maximum.reduce(
            [sample_window_counts(c, link).codes for c, link in zip(counts, links)]))
        decoded = [f for f in demodulate(series, config) if f.complete]
        pairs = set()
        network_decoded = False
        if decoded:
            frame = decoded[0].frame
            network_decoded = frame.network_ok
            for j in range(N_CLUSTER_FIELDS):
                if frame.cluster_ok[j]:
                    pairs.add((j + 1, frame.cluster_ids[j]))
        results.append({
            "point": tuple(point),
            "analytic": analytic,
            "stack_pairs": pairs,
            "stack_network": network_decoded,
            "match": pairs == set(analytic.pairs)
            and network_decoded == analytic.network_decoded,
        })
    return results
