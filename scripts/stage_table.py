"""Per-stage times of one seeded wide20 stream per scenario and of the default
multicell grids, from ctclink.timing.

Each stream is experiments.run_stream at CSAT 40/20 ms and -61 dBm with
default_rng(5), at ED registers 3 (threshold -92 dBm, no ED noise) and 28
(threshold -62 dBm, one binomial ED-noise count per window).  Each grid is
one sigma of the default experiments.run_multicell run (100 stations, 2 m
step over 140 m, seed 1).  Each figure is the best of REPEATS runs in ms,
per stage and for the whole stream or grid.  Run from the repository root:

    PYTHONPATH=src python scripts/stage_table.py [--json]
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from ctclink import timing
from ctclink.codec import get_scheme
from ctclink.demod import ReceiverConfig
from ctclink.experiments import SCENARIOS, run_multicell, run_stream
from ctclink.phy import CsatConfig
from ctclink.radio import RadioLink

STAGES = ("frame_build", "waveform", "traffic", "sampler", "receiver", "align")
GRID_STAGES = ("field", "powers", "decode", "sinr", "estimate")
SIGMAS_DB = (0.0, 6.0)
POWER_DBM = -61.0
THETAS = (3, 28)
FRAMES = 50
REPEATS = 5


def best_times(run, whole: str, stages: tuple[str, ...]) -> dict[str, float]:
    """Best wall ms of each stage and of the whole ``run()`` over REPEATS runs."""
    best: dict[str, float] = {}
    for _ in range(REPEATS):
        with timing.Recording() as rec:
            t0 = time.perf_counter()
            run()
            seconds = time.perf_counter() - t0
        for name, spent in [(whole, seconds)] + [(s, rec.wall_s.get(s, 0.0)) for s in stages]:
            best[name] = min(best.get(name, float("inf")), 1e3 * spent)
    return best


def stream_times(config: ReceiverConfig, link: RadioLink, scenario: str) -> dict[str, float]:
    return best_times(
        lambda: run_stream(config, link, scenario, FRAMES, np.random.default_rng(5)),
        "stream", STAGES,
    )


def grid_times(sigma: float) -> dict[str, float]:
    return best_times(lambda: run_multicell(sigmas_db=(sigma,)), "grid", GRID_STAGES)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", action="store_true", help="print JSON instead of a table")
    args = parser.parse_args()
    config = ReceiverConfig(get_scheme("wide20"), CsatConfig(40, 20))
    table = {
        theta: {
            scenario: stream_times(
                config, RadioLink.at_rx_power(POWER_DBM, ed_register=theta), scenario
            )
            for scenario in SCENARIOS
        }
        for theta in THETAS
    }
    grids = {f"sigma{sigma:g}": grid_times(sigma) for sigma in SIGMAS_DB}
    if args.json:
        out = {f"theta{theta}": rows for theta, rows in table.items()}
        out["multicell"] = grids
        print(json.dumps(out, indent=1))
        return
    for theta, rows in table.items():
        print(f"theta = {theta}, {FRAMES} frames, best of {REPEATS} (ms)")
        print(f"{'stage':<12}" + "".join(f"{s:>18}" for s in SCENARIOS))
        for name in ("stream",) + STAGES:
            print(f"{name:<12}" + "".join(f"{rows[s][name]:>18.1f}" for s in SCENARIOS))
        print()
    print(f"multicell, 100 stations, 2 m grid over 140 m, best of {REPEATS} (ms)")
    print(f"{'stage':<12}" + "".join(f"{s:>18}" for s in grids))
    for name in ("grid",) + GRID_STAGES:
        print(f"{name:<12}" + "".join(f"{rows[name]:>18.1f}" for rows in grids.values()))


if __name__ == "__main__":
    main()
