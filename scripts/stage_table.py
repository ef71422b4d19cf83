"""Per-stage times of one seeded wide20 stream per scenario, from ctclink.timing.

Each stream is experiments.run_stream at CSAT 40/20 ms and -61 dBm with
default_rng(5), at ED registers 3 (threshold -92 dBm, no ED noise) and 28
(threshold -62 dBm, one binomial ED-noise count per window).  Each figure
is the best of REPEATS runs in ms, per stage and for the whole stream.
Run from the repository root:

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
from ctclink.experiments import SCENARIOS, run_stream
from ctclink.phy import CsatConfig
from ctclink.radio import RadioLink

STAGES = ("frame_build", "waveform", "traffic", "sampler", "receiver", "align")
POWER_DBM = -61.0
THETAS = (3, 28)
FRAMES = 50
REPEATS = 5


def best_times(config: ReceiverConfig, link: RadioLink, scenario: str) -> dict[str, float]:
    """Best wall ms of each stage and of the whole stream over REPEATS runs."""
    best: dict[str, float] = {}
    for _ in range(REPEATS):
        with timing.Recording() as rec:
            t0 = time.perf_counter()
            run_stream(config, link, scenario, FRAMES, np.random.default_rng(5))
            whole = time.perf_counter() - t0
        for name, seconds in [("stream", whole)] + [(s, rec.wall_s.get(s, 0.0)) for s in STAGES]:
            best[name] = min(best.get(name, float("inf")), 1e3 * seconds)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", action="store_true", help="print JSON instead of a table")
    args = parser.parse_args()
    config = ReceiverConfig(get_scheme("wide20"), CsatConfig(40, 20))
    table = {
        theta: {
            scenario: best_times(
                config, RadioLink.at_rx_power(POWER_DBM, ed_register=theta), scenario
            )
            for scenario in SCENARIOS
        }
        for theta in THETAS
    }
    if args.json:
        print(json.dumps({f"theta{theta}": rows for theta, rows in table.items()}, indent=1))
        return
    for theta, rows in table.items():
        print(f"theta = {theta}, {FRAMES} frames, best of {REPEATS} (ms)")
        print(f"{'stage':<12}" + "".join(f"{s:>18}" for s in SCENARIOS))
        for name in ("stream",) + STAGES:
            print(f"{name:<12}" + "".join(f"{rows[s][name]:>18.1f}" for s in SCENARIOS))
        print()


if __name__ == "__main__":
    main()
