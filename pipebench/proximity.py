"""proximity: LtFi's second step on the 100-station hexagonal deployment.

An X2 service in a child process serves the codebook.  Part a evaluates
the multicell grids at sigma 0 and 6 dB (``run_multicell``); part b
onboards APs at seeded grid locations, each on a fresh connection
(observe, connect, fetch, estimate, report); part c fetches the codebook
repeatedly on one persistent connection.  The client holds at most two
connections at once: the persistent one and one onboarding.

During parts b and c the client and the service share one CPU.  In this
closed loop they never run at once, and on a shared VM a wakeup across
CPUs costs a host-dependent extra: on a 2-vCPU VM the onboarding rate
spread 0.49 (IQR over median) across six runs unpinned, 0.13 pinned.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

from ctclink import x2
from ctclink.experiments import run_multicell
from ctclink.multicell import (
    best_sinr_db,
    build_cluster_configurations,
    build_hex_deployment,
    decodable_fields,
    estimate_proximity,
    observation_at,
    received_powers_dbm,
)
from ctclink.radio import ShadowingField
from ctclink.x2 import X2Client

import checks
from common import HERE, OpCount, Part

STATIONS = 100
SIGMAS_DB = (0.0, 6.0)
GRID_STEP_M, SIDE_M = 2.0, 140.0
NETWORK_ID = 0x0A000001
AP_LOCATIONS = 64
ONBOARDINGS_PER_ROUND = 128
FETCHES_PER_ROUND = 256
GRID_SAMPLE = 64  # sigma=0 grid points recomputed by brute force
STOP_TIMEOUT_S = 10.0
PARTS = {"a": "grid_points_per_s", "b": "onboard_per_s", "c": "fetch_per_s"}


def grid_axis() -> np.ndarray:
    half = SIDE_M / 2.0
    return np.arange(-half, half + GRID_STEP_M / 2.0, GRID_STEP_M)


@contextmanager
def on_cpu(cpu: int):
    """Run the calling thread on ``cpu`` only, then restore its CPU set."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


class Service:
    """The X2 service child process, on ``cpu``; ``close`` stops it and waits."""

    def __init__(self, cpu: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "x2_service.py"), hex(NETWORK_ID), str(cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "READY":
            self.close()
            raise RuntimeError(f"X2 service did not start: {line}")
        self.address = ("127.0.0.1", int(line[1]))

    def close(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Workload:
    parts = PARTS

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.dep = build_hex_deployment(STATIONS)
        self.configurations, book = build_cluster_configurations(self.dep)
        self.expected = dict(book.entries)
        self.sites = self.dep.positions_m
        rng = np.random.default_rng([seed, 0x9A0])
        axis = grid_axis()
        self.ap_points = [(float(axis[i]), float(axis[j]))
                          for i, j in rng.integers(0, len(axis), size=(AP_LOCATIONS, 2))]
        self.ap_expected = [
            checks.brute_force_estimate(p, self.sites, self.dep.cell_ids, self.expected)
            for p in self.ap_points
        ]
        self.grid_sample = rng.choice(len(axis) ** 2, size=GRID_SAMPLE, replace=False)
        self.problems: list[str] = []  # failed per-round checks
        self.cpu = max(os.sched_getaffinity(0))
        self.service = Service(self.cpu)
        self.client = None
        try:
            self.client = self._client("ap-persistent").connect()
        except Exception:
            self.close()
            raise

    def _client(self, ap_id: str):
        return X2Client(self.service.address, NETWORK_ID, ap_id=ap_id)

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        self.service.close()

    # -- timed ------------------------------------------------------------

    def _onboard(self, k: int):
        obs = observation_at(self.dep, self.ap_points[k], self.configurations)
        client = self._client(f"ap-{k}")
        try:
            client.connect()
            book = client.fetch_codebook()
            cells = estimate_proximity(obs, book)
            ack = client.report_proximity(obs.pairs, cells)
        finally:
            client.close()
        return k, book.entries, cells, ack

    def run_round(self, ops: OpCount):
        parts = {}
        t0 = time.perf_counter()
        grids = ops.run(run_multicell, STATIONS, SIGMAS_DB, self.seed, GRID_STEP_M, SIDE_M,
                        weight=len(SIGMAS_DB))
        n_points = sum(len(g.n_detected) for g in grids.results.values()) if grids else 0
        parts["a"] = Part(n_points, time.perf_counter() - t0)

        with on_cpu(self.cpu):
            t0 = time.perf_counter()
            onboarded = [ops.run(self._onboard, i % AP_LOCATIONS)
                         for i in range(ONBOARDINGS_PER_ROUND)]
            onboarded = [o for o in onboarded if o is not None]
            parts["b"] = Part(len(onboarded), time.perf_counter() - t0)

            t0 = time.perf_counter()
            fetched = [ops.run(self.client.fetch_codebook) for _ in range(FETCHES_PER_ROUND)]
            fetched = [f for f in fetched if f is not None]
            parts["c"] = Part(len(fetched), time.perf_counter() - t0)

        # checked here, outside the timed parts, so rounds keep no codebooks
        try:
            for book in fetched:
                checks.check_codebook(book.entries, self.expected)
            for k, entries, cells, ack in onboarded:
                checks.check_codebook(entries, self.expected)
                checks.check_ack(ack, len(cells))
                checks.check_estimate(cells, self.ap_expected[k], self.ap_points[k])
        except checks.CheckFailed as exc:
            self.problems.append(str(exc))
        counts = None if grids is None else {s: g.n_detected.tolist() for s, g in grids.results.items()}
        return parts, (grids, counts)

    def check(self, warm, rounds) -> None:
        if self.problems:
            raise checks.CheckFailed(self.problems[0])
        _, (grids, first) = warm
        for _, (_, counts) in rounds:
            checks.check_identical(first, counts, "grid counts")
        if grids is None:
            return
        flat = grids.results[0.0]
        checks.check_unshadowed_grid(flat.points_m, flat.n_detected, self.sites, self.dep.spacing_m)
        for i in self.grid_sample:
            want = checks.brute_force_estimate(flat.points_m[i], self.sites, self.dep.cell_ids,
                                               self.expected)
            checks.require(
                int(flat.n_detected[i]) == len(want),
                f"grid point {flat.points_m[i]}: count {flat.n_detected[i]}, want {len(want)}",
            )

    # -- traced -----------------------------------------------------------

    def trace(self, tracer) -> dict[str, float]:
        """Grid stages, onboarding steps and the raw fetch, timed apart."""
        axis = grid_axis()
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        points = np.column_stack([gx.ravel(), gy.ravel()])
        half = SIDE_M / 2.0
        with tracer.span("prox.pass"):
            with tracer.span("prox.grids"):
                for sigma in SIGMAS_DB:
                    dep = build_hex_deployment(STATIONS)
                    configs, book = tracer.call("prox.clustering", build_cluster_configurations, dep)
                    shadowing = None
                    if sigma > 0:
                        rng = np.random.default_rng([self.seed, int(round(10 * sigma))])
                        shadowing = tracer.call("prox.shadowing", ShadowingField, sigma,
                                                dep.n_cells, (-half, half, -half, half), rng=rng)
                    rx = tracer.call("prox.powers", received_powers_dbm, dep, points, None, shadowing)
                    for i in range(len(points)):
                        obs = tracer.call("prox.decodable", decodable_fields, rx[i], configs, dep.cell_ids)
                        tracer.call("prox.estimate", estimate_proximity, obs, book)
                    best_sinr_db(rx)
            with on_cpu(self.cpu):
                with tracer.span("prox.onboarding"):
                    for k in range(AP_LOCATIONS):
                        obs = tracer.call("prox.observation", observation_at, self.dep,
                                          self.ap_points[k], self.configurations)
                        client = self._client(f"ap-{k}")
                        try:
                            tracer.call("prox.connect", client.connect)
                            book = tracer.call("prox.fetch", client.fetch_codebook)
                            cells = tracer.call("prox.onboard_estimate", estimate_proximity, obs, book)
                            tracer.call("prox.report", client.report_proximity, obs.pairs, cells)
                        finally:
                            client.close()
                with tracer.span("prox.fetches"):
                    with socket.create_connection(self.service.address, timeout=2.0) as sock:
                        for _ in range(FETCHES_PER_ROUND):
                            with tracer.span("prox.roundtrip"):
                                sock.sendall(x2.encode_message(x2.MessageType.GET_CODEBOOK))
                                _, _, payload = x2.read_message(sock)
                            tracer.call("prox.decode", x2.deserialize_codebook, payload)
        n_grid = len(SIGMAS_DB)
        n_points = n_grid * len(points)
        n_shadowed = sum(1 for s in SIGMAS_DB if s > 0)
        out = {
            "prox.clustering_ms": 1e3 * tracer.total("prox.clustering") / n_grid,
            "prox.shadowing_ms": 1e3 * tracer.total("prox.shadowing") / n_shadowed,
            "prox.powers_ms": 1e3 * tracer.total("prox.powers") / n_grid,
            "prox.decodable_us": 1e6 * tracer.total("prox.decodable") / n_points,
            "prox.estimate_us": 1e6 * tracer.total("prox.estimate") / n_points,
            "prox.observation_us": 1e6 * tracer.total("prox.observation") / AP_LOCATIONS,
            "prox.connect_us": 1e6 * tracer.total("prox.connect") / AP_LOCATIONS,
            "prox.roundtrip_us": 1e6 * tracer.total("prox.roundtrip") / FETCHES_PER_ROUND,
            "prox.decode_us": 1e6 * tracer.total("prox.decode") / FETCHES_PER_ROUND,
            "prox.report_us": 1e6 * tracer.total("prox.report") / AP_LOCATIONS,
            "prox.codebook_bytes": float(len(payload)),
        }
        parents = ("prox.grids", "prox.onboarding", "prox.fetches")
        out["prox.unaccounted_ratio"] = (
            sum(tracer.self_time(p) for p in parents) / sum(tracer.total(p) for p in parents)
        )
        return out
