"""Hex deployment, overlapping clustering, and proximity estimation tests."""

import functools
import itertools
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctclink import multicell
from ctclink.codec import build_frame, get_scheme
from ctclink.multicell import (
    Codebook,
    CodebookLookupError,
    Deployment,
    GridResult,
    ProximityObservation,
    UnsupportedTopologyError,
    best_sinr_db,
    build_cluster_configurations,
    build_hex_deployment,
    decodable_fields,
    decode_clusters,
    estimate_proximity,
    evaluate_points,
    example_codebook,
    full_stack_check,
    grid_evaluate,
    observation_at,
    received_powers_dbm,
)
from ctclink.phy import CsatConfig, generate_waveform
from ctclink.radio import NOISE_FLOOR_DBM, SENSITIVITY_DBM, PathlossModel, RadioLink, ShadowingField
from test_phy import ref_sample_mac_states


def mutually_adjacent_triples(dep):
    """Independent oracle: every set of three pairwise-adjacent cells."""
    triples = []
    for a, b, c in itertools.combinations(dep.cell_ids, 3):
        if (
            b in dep.neighbors(a)
            and c in dep.neighbors(a)
            and c in dep.neighbors(b)
        ):
            triples.append(frozenset((a, b, c)))
    return triples


def ref_decodable_fields(rx_dbm, configurations, cell_ids):
    """Reference: the threshold rule one location at a time, over sets."""
    above = {cid for cid, p in zip(cell_ids, rx_dbm) if p >= SENSITIVITY_DBM}
    if not above:
        return ProximityObservation(frozenset(), False)
    pairs = set()
    for config in configurations:
        ids = {config.cluster_of(c) for c in above}
        if len(ids) == 1:
            pairs.add((config.slot, ids.pop()))
    return ProximityObservation(frozenset(pairs), True)


def ref_evaluate_points(dep, points, configurations, codebook, shadowing=None):
    """Reference: the per-point loop of the grid evaluation."""
    rx = received_powers_dbm(dep, points, shadowing=shadowing)
    counts = np.zeros(len(rx), dtype=int)
    for i in range(len(rx)):
        obs = ref_decodable_fields(rx[i], configurations, dep.cell_ids)
        counts[i] = len(estimate_proximity(obs, codebook))
    return counts


def outcome(fn, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return "ok", fn(*args)
    except KeyError as exc:
        return type(exc), str(exc)


@functools.lru_cache(maxsize=None)
def clustered(count):
    dep = build_hex_deployment(count)
    return dep, *build_cluster_configurations(dep)


class TestDeployment:
    def test_single_station_at_origin(self):
        dep = build_hex_deployment(1)
        assert dep.n_cells == 1
        assert (dep.stations[0].x_m, dep.stations[0].y_m) == (0.0, 0.0)

    def test_seven_cell_ring_geometry(self):
        dep = build_hex_deployment(7)
        assert dep.spacing_m == 50.0
        assert dep.cell_ids == tuple(range(7))
        center = dep.stations[0]
        assert (center.x_m, center.y_m) == (0.0, 0.0)
        for bs in dep.stations[1:]:
            assert math.hypot(bs.x_m, bs.y_m) == pytest.approx(50.0)
        for a, b in dep.adjacent_pairs():
            pa, pb = dep.stations[a], dep.stations[b]
            assert math.hypot(pa.x_m - pb.x_m, pa.y_m - pb.y_m) == pytest.approx(50.0)
        assert dep.neighbors(0) == (1, 2, 3, 4, 5, 6)
        assert len(dep.adjacent_pairs()) == 12

    def test_hundred_cell_extent_covers_grid_region(self):
        dep = build_hex_deployment(100)
        pos = dep.positions_m
        assert pos[:, 0].max() - pos[:, 0].min() >= 140.0
        assert pos[:, 1].max() - pos[:, 1].min() >= 140.0

    def test_deterministic(self):
        assert build_hex_deployment(37) == build_hex_deployment(37)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            build_hex_deployment(0)

    def test_received_powers_match_the_difference_array(self):
        # the (points, cells, 2) difference formula that the hypot over
        # per-axis differences replaced, on stations of unequal tx power
        hexes = build_hex_deployment(100)
        dep = Deployment(
            tuple(replace(bs, tx_power_dbm=10.0 + bs.cell_id % 7) for bs in hexes.stations),
            hexes.spacing_m,
        )
        rng = np.random.default_rng(4)
        points = np.concatenate([rng.uniform(-150.0, 150.0, size=(500, 2)), dep.positions_m,
                                 [(1e4, -2e4)]])
        delta = points[:, None, :] - dep.positions_m[None, :, :]
        dist = np.maximum(np.hypot(delta[..., 0], delta[..., 1]), 1e-3)
        tx = np.array([bs.tx_power_dbm for bs in dep.stations])
        want = tx[None, :] - PathlossModel().loss_db(dist)
        assert np.array_equal(received_powers_dbm(dep, points), want)
        shadowing = ShadowingField(6.0, dep.n_cells, (-150, 150, -150, 150),
                                   rng=np.random.default_rng(5))
        assert np.array_equal(received_powers_dbm(dep, points, shadowing=shadowing),
                              want + shadowing.values_at(points))


class TestClustering:
    def test_each_slot_partitions_all_cells(self):
        dep = build_hex_deployment(19)
        configurations, _ = build_cluster_configurations(dep)
        assert [c.slot for c in configurations] == [1, 2, 3, 4, 5, 6]
        for config in configurations:
            members = [c for ms in config.clusters.values() for c in ms]
            assert sorted(members) == list(dep.cell_ids)
            assert all(1 <= len(ms) <= 3 for ms in config.clusters.values())

    def test_cluster_id_is_smallest_member(self):
        dep = build_hex_deployment(19)
        configurations, _ = build_cluster_configurations(dep)
        for config in configurations:
            for cluster_id, members in config.clusters.items():
                assert cluster_id == min(members)

    def test_center_cell_joins_six_distinct_triads(self):
        dep = build_hex_deployment(7)
        configurations, _ = build_cluster_configurations(dep)
        triads = [
            frozenset(ms)
            for config in configurations
            for ms in config.clusters.values()
            if 0 in ms
        ]
        assert len(triads) == 6
        assert len(set(triads)) == 6
        assert all(len(t) == 3 for t in triads)
        oracle = {t for t in mutually_adjacent_triples(dep) if 0 in t}
        assert set(triads) == oracle

    @pytest.mark.parametrize("count", [7, 37, 100])
    def test_every_edge_covered(self, count):
        dep = build_hex_deployment(count)
        _, codebook = build_cluster_configurations(dep)
        member_sets = [set(ms) for ms in codebook.entries.values()]
        for a, b in dep.adjacent_pairs():
            assert any({a, b} <= ms for ms in member_sets)

    def test_interior_edge_shared_by_exactly_two_clusters(self):
        dep = build_hex_deployment(7)
        _, codebook = build_cluster_configurations(dep)
        for b in dep.neighbors(0):
            shared = [ms for ms in codebook.entries.values() if {0, b} <= set(ms)]
            assert len(shared) == 2

    def test_codebook_matches_configurations(self):
        dep = build_hex_deployment(19)
        configurations, codebook = build_cluster_configurations(dep)
        for config in configurations:
            for cluster_id, members in config.clusters.items():
                assert codebook.members(config.slot, cluster_id) == members

    def test_lattice_coordinates_required(self):
        dep = build_hex_deployment(7)
        bare = Deployment(dep.stations, dep.spacing_m, {})
        with pytest.raises(UnsupportedTopologyError):
            build_cluster_configurations(bare)


class TestExampleCodebook:
    def test_quoted_rows(self):
        book = example_codebook()
        assert book.members(1, 5) == (0, 1, 4)
        assert book.members(2, 4) == (3, 4, 6)
        assert book.members(3, 4) == (4, 5, 6)
        assert book.members(1, 4) == (3, 6)

    def test_two_cluster_union(self):
        book = example_codebook()
        assert estimate_proximity([(2, 4), (3, 4)], book) == {3, 4, 5, 6}

    def test_single_cluster(self):
        assert estimate_proximity([(1, 5)], example_codebook()) == {0, 1, 4}

    def test_empty_observation(self):
        assert estimate_proximity([], example_codebook()) == set()

    def test_unknown_tuple_rejected(self):
        with pytest.raises(CodebookLookupError):
            estimate_proximity([(1, 9)], example_codebook())

    def test_union_monotonicity(self):
        book = example_codebook()
        pairs = sorted(book.entries)
        for cut in range(len(pairs)):
            smaller = estimate_proximity(pairs[:cut], book)
            larger = estimate_proximity(pairs[: cut + 1], book)
            assert smaller <= larger


class TestDecodability:
    def test_single_isolated_station(self):
        dep = build_hex_deployment(1)
        obs = observation_at(dep, (1.0, 0.0))
        assert obs.network_decoded
        assert len(obs.pairs) == 6
        _, codebook = build_cluster_configurations(dep)
        assert estimate_proximity(obs, codebook) == {0}

    def test_cluster_of_three_at_its_centroid(self):
        dep = build_hex_deployment(7)
        # cells 0, 2, 3 sit at the corners of one upward lattice triangle
        centroid = dep.positions_m[[0, 2, 3]].mean(axis=0)
        obs = observation_at(dep, centroid)
        assert obs.network_decoded
        assert set(obs.pairs) == {(1, 0)}
        _, codebook = build_cluster_configurations(dep)
        assert estimate_proximity(obs, codebook) == {0, 2, 3}

    def test_everything_out_of_range(self):
        dep = build_hex_deployment(7)
        obs = observation_at(dep, (5000.0, 5000.0))
        assert not obs.network_decoded
        assert obs.pairs == frozenset()

    def test_sensitivity_tie_decodes(self):
        dep = build_hex_deployment(1)
        configurations, _ = build_cluster_configurations(dep)
        obs = decodable_fields([SENSITIVITY_DBM], configurations, dep.cell_ids)
        assert obs.network_decoded and len(obs.pairs) == 6
        just_below = decodable_fields(
            [SENSITIVITY_DBM - 1e-9], configurations, dep.cell_ids
        )
        assert not just_below.network_decoded

    def test_at_most_one_cluster_per_slot(self):
        dep = build_hex_deployment(19)
        configurations, _ = build_cluster_configurations(dep)
        rng = np.random.default_rng(7)
        points = rng.uniform(-80, 80, size=(50, 2))
        for point in points:
            obs = observation_at(dep, point, configurations)
            slots = [slot for slot, _ in obs.pairs]
            assert len(slots) == len(set(slots))


class TestKernelMatchesReference:
    """The array kernel against the per-point loop it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(count=st.integers(1, 200), sigma=st.sampled_from([0.0, 6.0, 12.0]),
           n_inside=st.integers(0, 40), n_far=st.integers(0, 4),
           seed=st.integers(0, 2**32 - 1), block=st.integers(1, 8))
    def test_grid_and_single_points(self, count, sigma, n_inside, n_far, seed, block):
        dep, configurations, codebook = clustered(count)
        rng = np.random.default_rng(seed)
        # inside: a 100 m box around one station, which the shadowing field covers
        cx, cy = dep.positions_m[rng.integers(count)]
        inside = rng.uniform(-50.0, 50.0, size=(n_inside, 2)) + (cx, cy)
        angle = rng.uniform(0.0, 2 * np.pi, n_far)
        far = rng.uniform(10e3, 20e3, n_far)[:, None] * np.column_stack(
            [np.cos(angle), np.sin(angle)]
        )
        points = np.concatenate([inside, far]).reshape(-1, 2)
        shadowing = None
        if sigma > 0:
            bounds = (cx - 50, cx + 50, cy - 50, cy + 50)
            shadowing = ShadowingField(sigma, count, bounds, rng=rng)
        got = evaluate_points(dep, points, configurations, codebook, shadowing)
        want = ref_evaluate_points(dep, points, configurations, codebook, shadowing)
        assert got.n_detected.tolist() == want.tolist()
        # in blocks of a few points, block edges anywhere: the same bits as one block
        assert len(points) <= multicell.POINT_BLOCK
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(multicell, "POINT_BLOCK", block)
            blocked = evaluate_points(dep, points, configurations, codebook, shadowing)
        assert blocked.n_detected.dtype == got.n_detected.dtype
        assert blocked.n_detected.tobytes() == got.n_detected.tobytes()
        assert blocked.sinr_db_best.tobytes() == got.sinr_db_best.tobytes()
        rx = received_powers_dbm(dep, points, shadowing=shadowing)
        for row in rx:
            assert decodable_fields(row, configurations, dep.cell_ids) == ref_decodable_fields(
                row, configurations, dep.cell_ids
            )
        assert not got.n_detected[n_inside:].any()  # nothing audible far out

    @settings(max_examples=100, deadline=None)
    @given(count=st.sampled_from([1, 3, 7, 19]), data=st.data())
    def test_powers_at_the_sensitivity_edge(self, count, data):
        dep, configurations, codebook = clustered(count)
        level = st.sampled_from([
            SENSITIVITY_DBM, SENSITIVITY_DBM - 1e-9, np.nextafter(SENSITIVITY_DBM, 0.0),
            SENSITIVITY_DBM - 30.0, SENSITIVITY_DBM + 10.0,
        ])
        rows = data.draw(st.lists(st.lists(level, min_size=count, max_size=count),
                                  min_size=1, max_size=12))
        decoded, audible = decode_clusters(np.array(rows), configurations, dep.cell_ids)
        for row, ids, heard in zip(rows, decoded.tolist(), audible):
            want = ref_decodable_fields(row, configurations, dep.cell_ids)
            assert decodable_fields(row, configurations, dep.cell_ids) == want
            pairs = {(c.slot, i) for c, i in zip(configurations, ids) if i >= 0}
            assert (pairs, heard) == (want.pairs, want.network_decoded)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_points=st.integers(1, 30))
    def test_mismatched_codebook_raises_like_reference(self, seed, n_points):
        # the published example carries only clusters 4 and 5
        dep, configurations, _ = clustered(7)
        points = np.random.default_rng(seed).uniform(-80.0, 80.0, size=(n_points, 2))
        book = example_codebook()
        got = outcome(lambda: evaluate_points(dep, points, configurations, book).n_detected.tolist())
        want = outcome(lambda: ref_evaluate_points(dep, points, configurations, book).tolist())
        assert got == want

    def test_mismatched_codebook_raises(self):
        dep, configurations, _ = clustered(7)
        with pytest.raises(CodebookLookupError, match="no cluster 0 in configuration slot 1"):
            evaluate_points(dep, [(1.0, 0.0)], configurations, example_codebook())

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_points=st.integers(1, 30))
    def test_unclustered_cell_raises_like_reference(self, seed, n_points):
        # seven-cell configurations on a 19-cell deployment: cells 7-18 are in no cluster
        dep = build_hex_deployment(19)
        _, configurations, codebook = clustered(7)
        points = np.random.default_rng(seed).uniform(-120.0, 120.0, size=(n_points, 2))
        got = outcome(lambda: evaluate_points(dep, points, configurations, codebook).n_detected.tolist())
        want = outcome(lambda: ref_evaluate_points(dep, points, configurations, codebook).tolist())
        assert got == want
        rx = received_powers_dbm(dep, points)
        for row in rx:
            assert outcome(decodable_fields, row, configurations, dep.cell_ids) == outcome(
                ref_decodable_fields, row, configurations, dep.cell_ids
            )

    def test_unclustered_cell_raises(self):
        dep = build_hex_deployment(19)
        _, configurations, _ = clustered(7)
        with pytest.raises(KeyError, match="cell 7 is in no cluster of slot 1"):
            observation_at(dep, dep.positions_m[7], configurations)
        # an unclustered cell that is not audible is never looked up
        assert observation_at(dep, (0.0, 0.0), configurations).network_decoded

    def test_hundred_station_grid(self):
        dep, configurations, codebook = clustered(100)
        result = grid_evaluate(dep, grid_step_m=4.0)
        want = ref_evaluate_points(dep, result.points_m, configurations, codebook)
        assert result.n_detected.tolist() == want.tolist()


class TestGridEvaluation:
    def test_counts_at_characteristic_points(self):
        dep = build_hex_deployment(19)
        # BS site, triangle circumcenter, and edge midpoint of the lattice
        triple = dep.positions_m[[0, 2, 3]].mean(axis=0)
        edge_mid = dep.positions_m[[0, 3]].mean(axis=0)
        result = evaluate_points(dep, [dep.positions_m[0], triple, edge_mid])
        assert result.n_detected.tolist() == [7, 3, 4]

    def test_sinr_reduces_to_snr_without_interferers(self):
        dep = build_hex_deployment(1)
        result = evaluate_points(dep, [(10.0, 0.0)])
        from ctclink.radio import PathlossModel

        rx = 20.0 - PathlossModel().loss_db(10.0)
        assert result.sinr_db_best[0] == pytest.approx(rx - NOISE_FLOOR_DBM)

    def test_interference_lowers_sinr(self):
        # -70 dBm against co-channel -75 and -80 dBm over the -95 dBm floor
        sinr = best_sinr_db(np.array([[-70.0, -75.0, -80.0]]))[0]
        expect = 10 ** (-7.0) / (10 ** (-9.5) + 10 ** (-7.5) + 10 ** (-8.0))
        assert sinr == pytest.approx(10.0 * math.log10(expect))
        assert sinr < -70.0 - NOISE_FLOOR_DBM

    @pytest.mark.parametrize("step, side", [
        (0.0, 140.0), (-2.0, 140.0), (2.0, 0.0), (2.0, -1.0), (float("nan"), 140.0),
    ])
    def test_non_positive_step_or_side_rejected(self, step, side):
        with pytest.raises(ValueError, match="must be positive"):
            grid_evaluate(build_hex_deployment(7), grid_step_m=step, side_m=side)

    @pytest.mark.parametrize("step, side", [
        (float("inf"), 140.0), (2.0, float("inf")), (float("inf"), float("inf")),
    ])
    def test_non_finite_step_or_side_rejected(self, step, side):
        with pytest.raises(ValueError, match="must be finite"):
            grid_evaluate(build_hex_deployment(7), grid_step_m=step, side_m=side)

    @pytest.mark.parametrize("sigma", [-1.0, float("nan"), float("inf")])
    def test_bad_shadowing_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="must be finite and non-negative"):
            grid_evaluate(build_hex_deployment(7), grid_step_m=10.0, side_m=40.0,
                          shadowing_sigma_db=sigma, rng=np.random.default_rng(1))

    def test_clear_sky_histogram(self):
        dep = build_hex_deployment(100)
        result = grid_evaluate(dep, grid_step_m=4.0, side_m=140.0)
        hist = result.histogram()
        assert set(hist) <= {0, 3, 4, 7}
        assert max(hist, key=hist.get) == 3
        assert result.n_detected.max() == 7

    def test_seven_only_near_stations(self):
        dep = build_hex_deployment(100)
        result = grid_evaluate(dep, grid_step_m=4.0, side_m=140.0)
        sites = dep.positions_m
        where7 = result.points_m[result.n_detected == 7]
        assert len(where7) > 0
        nearest = np.min(
            np.hypot(
                where7[:, None, 0] - sites[None, :, 0],
                where7[:, None, 1] - sites[None, :, 1],
            ),
            axis=1,
        )
        assert nearest.max() < dep.spacing_m / 2

    def test_sixfold_symmetry_around_center(self):
        dep = build_hex_deployment(37)
        rng = np.random.default_rng(3)
        base = rng.uniform(-20, 20, size=(10, 2))
        for angle in (np.pi / 3, 2 * np.pi / 3, np.pi):
            rot = np.array(
                [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
            )
            a = evaluate_points(dep, base).n_detected
            b = evaluate_points(dep, base @ rot.T).n_detected
            assert a.tolist() == b.tolist()

    def test_shadowed_run_is_seeded_and_bounded(self):
        dep = build_hex_deployment(37)
        result = grid_evaluate(
            dep,
            grid_step_m=10.0,
            side_m=100.0,
            shadowing_sigma_db=6.0,
            rng=np.random.default_rng(11),
        )
        again = grid_evaluate(
            dep,
            grid_step_m=10.0,
            side_m=100.0,
            shadowing_sigma_db=6.0,
            rng=np.random.default_rng(11),
        )
        assert result.n_detected.tolist() == again.n_detected.tolist()
        assert result.n_detected.min() >= 0
        assert result.n_detected.max() <= 9

    def test_csv_layout(self, tmp_path):
        dep = build_hex_deployment(7)
        result = evaluate_points(dep, [(0.0, 0.0), (25.0, 0.0)])
        path = tmp_path / "grid.csv"
        result.to_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "x_m,y_m,n_detected,sinr_db_best"
        assert len(lines) == 3
        assert lines[1].split(",")[2] == "7"

    def test_csv_text_with_numpy_ints(self, tmp_path):
        result = GridResult(
            np.array([[0.0, 0.0], [25.0, -4.334], [-70.0, 1e-3]]),
            np.array([7, 0, 12], dtype=np.int64),
            np.array([12.3456, -3.21, math.inf]),
        )
        path = tmp_path / "grid.csv"
        result.to_csv(str(path))
        assert path.read_text() == (
            "x_m,y_m,n_detected,sinr_db_best\n"
            "0.00,0.00,7,12.346\n"
            "25.00,-4.33,0,-3.210\n"
            "-70.00,0.00,12,inf\n"
        )


class TestInPlaceKernels:
    """The in-place kernels against the dense expressions they replaced."""

    def test_received_powers_equal_the_dense_expression(self):
        dep = build_hex_deployment(100)
        rng = np.random.default_rng(6)
        points = np.concatenate([rng.uniform(-150.0, 150.0, size=(700, 2)), dep.positions_m])
        pathloss = PathlossModel(ref_loss_db=40.0, exponent=2.7)
        dist = np.maximum(np.hypot(points[:, :1] - dep.positions_m[:, 0],
                                   points[:, 1:] - dep.positions_m[:, 1]), 1e-3)
        want = dep.tx_powers_dbm - (pathloss.ref_loss_db
                                    + 10.0 * pathloss.exponent * np.log10(dist))
        assert np.array_equal(received_powers_dbm(dep, points, pathloss), want)
        shadowing = ShadowingField(6.0, dep.n_cells, (-150, 150, -150, 150),
                                   rng=np.random.default_rng(7))
        assert np.array_equal(received_powers_dbm(dep, points, pathloss, shadowing),
                              want + shadowing.values_at(points))

    def test_best_sinr_equals_the_dense_expression(self):
        dep = build_hex_deployment(100)
        points = np.random.default_rng(8).uniform(-150.0, 150.0, size=(700, 2))
        for rx in (received_powers_dbm(dep, points),
                   np.random.default_rng(9).uniform(-120.0, -30.0, size=(300, 5)),
                   np.array([[-70.0]])):
            p_mw = 10.0 ** (rx / 10.0)
            total = p_mw.sum(axis=1, keepdims=True)
            sinr = p_mw / (10.0 ** (NOISE_FLOOR_DBM / 10.0) + (total - p_mw))
            assert np.array_equal(best_sinr_db(rx), 10.0 * np.log10(sinr.max(axis=1)))


def grid_peaks_kb() -> tuple[int, int]:
    """Peak RSS in KiB after a 4 m and then a 1 m unshadowed grid over the
    default 140 m square of the 100-station deployment, in a fresh
    interpreter (VmHWM, as in test_experiments.stream_peaks_kb)."""
    code = (
        "from ctclink.multicell import build_hex_deployment, grid_evaluate\n"
        "dep = build_hex_deployment(100)\n"
        "for step in (4.0, 1.0):\n"
        "    assert len(grid_evaluate(dep, grid_step_m=step).n_detected) == (140 // step + 1) ** 2\n"
        "    print(next(line.split()[1] for line in open('/proc/self/status')\n"
        "               if line.startswith('VmHWM:')))\n"
    )
    src = os.path.dirname(os.path.dirname(multicell.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    coarse_kb, fine_kb = map(int, out.split())
    return coarse_kb, fine_kb


@pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is read from /proc on Linux only")
def test_fine_grid_peaks_near_a_coarse_one():
    # 19,881 points at 1 m against 1,296 at 4 m: only per-point arrays grow,
    # (points, cells) arrays are POINT_BLOCK points long
    coarse_kb, fine_kb = grid_peaks_kb()
    assert fine_kb - coarse_kb < 8 * 1024


def seven_station_points():
    """A 7-station deployment, points next to a station, at a triple's
    centroid and out of range, and no shadowing."""
    dep = build_hex_deployment(7)
    triple = dep.positions_m[[0, 2, 3]].mean(axis=0)
    return dep, [dep.positions_m[0] + (1.0, 0.0), triple, (600.0, 600.0)], None


def shadowed_nineteen_station_points():
    """A 19-station deployment, 20 random points and a 6 dB shadowing field."""
    dep = build_hex_deployment(19)
    half = 70.0
    shadowing = ShadowingField(
        6.0, dep.n_cells, (-half, half, -half, half), rng=np.random.default_rng([3, 60])
    )
    return dep, np.random.default_rng(4).uniform(-half, half, size=(20, 2)), shadowing


class TestFullStack:
    def test_threshold_model_matches_receiver_chain(self):
        dep, points, _ = seven_station_points()
        records = full_stack_check(dep, points)
        assert all(r["match"] for r in records)
        assert len(records[0]["stack_pairs"]) == 6
        assert records[1]["stack_pairs"] == {(1, 0)}
        assert records[2]["stack_pairs"] == set()
        assert not records[2]["stack_network"]

    def test_shadowed_points_match_receiver_chain(self):
        dep, points, shadowing = shadowed_nineteen_station_points()
        records = full_stack_check(dep, points, shadowing=shadowing)
        assert all(r["match"] for r in records)
        # the field moved the observations: shadowing is applied, not ignored
        flat = full_stack_check(dep, points)
        assert [r["stack_pairs"] for r in records] != [r["stack_pairs"] for r in flat]
        assert any(r["stack_pairs"] for r in records)

    def test_on_phase_with_room_for_two_symbols_rejected(self):
        # the receiver decodes one symbol per cycle: a 40 ms ON phase that
        # carries two wide20 symbols is refused, not decoded wrongly
        dep = build_hex_deployment(7)
        with pytest.raises(ValueError, match="one symbol per ON phase"):
            full_stack_check(dep, dep.positions_m[:1], csat=CsatConfig(80, 40))

    @pytest.mark.parametrize("case", [seven_station_points, shadowed_nineteen_station_points],
                             ids=["7-station", "19-station-shadowed"])
    def test_series_is_the_per_tick_or_of_the_stations(self, monkeypatch, case):
        """The series that full_stack_check demodulates at each point equals
        the per-tick OR over the stations' frames, laid by generate_waveform
        and sampled by the reference sampler on the same links."""
        dep, points, shadowing = case()
        seen = []
        demodulate = multicell.demodulate

        def spy(series, config):
            seen.append(series.codes)
            return demodulate(series, config)

        monkeypatch.setattr(multicell, "demodulate", spy)
        full_stack_check(dep, points, shadowing=shadowing)
        configurations, _ = build_cluster_configurations(dep)
        scheme = get_scheme("wide20")  # full_stack_check's defaults
        waves = [
            generate_waveform(CsatConfig(40, 20), build_frame(
                0x0A000001, [c.cluster_of(bs.cell_id) for c in configurations], scheme,
            ).schedules())
            for bs in dep.stations
        ]
        points = np.atleast_2d(np.asarray(points, dtype=float))
        assert len(seen) == len(points)
        for codes, point in zip(seen, points):
            offsets = np.zeros(dep.n_cells) if shadowing is None else shadowing.values_at(point)[0]
            links = [
                RadioLink(distance_m=max(math.hypot(bs.x_m - point[0], bs.y_m - point[1]), 1e-3),
                          tx_power_dbm=bs.tx_power_dbm + offset,
                          ed_threshold_dbm=SENSITIVITY_DBM)
                for bs, offset in zip(dep.stations, offsets)
            ]
            assert np.array_equal(codes, ref_sample_mac_states(waves, links).codes)
