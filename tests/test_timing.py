"""Tests for the per-stage timer and the stages run_stream marks."""

import time

import numpy as np

from ctclink import timing
from ctclink.codec import get_scheme
from ctclink.demod import ReceiverConfig
from ctclink.experiments import run_stream
from ctclink.phy import CsatConfig
from ctclink.radio import RadioLink


class TestRecording:
    def test_sums_wall_cpu_and_calls_per_stage(self):
        with timing.Recording() as rec:
            for _ in range(3):
                with timing.stage("sleep"):
                    time.sleep(0.01)
            with timing.stage("spin"):
                sum(range(200_000))
        assert rec.calls == {"sleep": 3, "spin": 1}
        assert rec.wall_s["sleep"] >= 0.03
        # CPU time is the whole process's, BLAS threads included, so it is
        # not bounded by the wall time
        assert set(rec.cpu_s) == {"sleep", "spin"} and rec.cpu_s["spin"] > 0.0

    def test_no_recording_records_nothing(self):
        with timing.stage("outside"):
            pass
        with timing.Recording() as rec:
            pass
        assert rec.calls == {} and timing._active is None

    def test_inner_recording_takes_over_until_it_ends(self):
        with timing.Recording() as outer:
            with timing.stage("a"):
                pass
            with timing.Recording() as inner:
                with timing.stage("b"):
                    pass
            with timing.stage("c"):
                pass
        assert outer.calls == {"a": 1, "c": 1}
        assert inner.calls == {"b": 1}

    def test_stage_is_recorded_when_its_body_raises(self):
        with timing.Recording() as rec:
            try:
                with timing.stage("fails"):
                    raise KeyError("x")
            except KeyError:
                pass
        assert rec.calls == {"fails": 1}


def test_run_stream_stages():
    # two 86-cycle frames: two chunks, each laid, painted, sampled and fed
    config = ReceiverConfig(get_scheme("wide20"), CsatConfig(40, 20))
    link = RadioLink.at_rx_power(-61.0, ed_register=28)
    with timing.Recording() as rec:
        run_stream(config, link, "background-light", 2, np.random.default_rng(5))
    assert rec.calls == {"frame_build": 1, "waveform": 3, "traffic": 3, "sampler": 2,
                         "receiver": 3, "align": 1}
