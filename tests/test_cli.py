"""End-to-end tests of the command-line harness."""

import hashlib
import json
import os
import subprocess
import sys
import threading
import time

import pytest

import ctclink
from ctclink import x2
from ctclink.cli import build_parser, main
from ctclink.codec import default_schemes
from ctclink.multicell import build_cluster_configurations, build_hex_deployment


def run_cli(*argv):
    return main(list(argv))


class TestImports:
    def test_cli_import_loads_no_scipy(self):
        # a fresh interpreter, so modules other tests imported do not count
        src = os.path.dirname(os.path.dirname(os.path.abspath(ctclink.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = "import sys, ctclink.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        assert out.stdout.strip() == "[]"


class TestParsing:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_power_list_parsing(self):
        args = build_parser().parse_args(
            ["link-sweep", "--powers=-66,-64.5,-63", "--out", "x.csv"]
        )
        assert args.powers_dbm == (-66.0, -64.5, -63.0)

    def test_address_parsing(self):
        args = build_parser().parse_args(["x2-fetch", "--server", "127.0.0.1:5099"])
        assert args.server == ("127.0.0.1", 5099)
        with pytest.raises(SystemExit):
            build_parser().parse_args(["x2-fetch", "--server", "nonsense"])


class TestLinkSweepCommand:
    def test_writes_csv_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "link-sweep", "--powers=-63,-61", "--repetitions", "1",
            "--frames", "3", "--seed", "9", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("scenario,theta,power_dbm")
        assert len(lines) == 3
        assert "wrote" in capsys.readouterr().out

    def test_seed_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["link-sweep", "--powers=-63,-61", "--repetitions", "1",
                "--frames", "3", "--seed", "9"]
        assert run_cli(*argv, "--out", str(a)) == 0
        assert run_cli(*argv, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({
            "scenario": "clear",
            "powers_dbm": [-63.0, -61.0],
            "repetitions": 1,
            "frames_per_rep": 2,
            "seed": 4,
        }))
        out = tmp_path / "sweep.csv"
        code = run_cli("link-sweep", "--config", str(config),
                       "--frames", "3", "--out", str(out))
        assert code == 0
        # the explicit flag overrides the config file
        assert out.read_text().strip().splitlines()[1].endswith(",3")

    def test_unknown_config_key_fails(self, tmp_path):
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({"scenarios": ["clear"]}))
        assert run_cli("link-sweep", "--config", str(config)) == 1

    @pytest.mark.parametrize("text, complaint", [
        ("5", "must be a JSON object"),
        ("[1, 2]", "must be a JSON object"),
        ('{"repetitions": "2"}', "'repetitions' has the wrong type"),
        ('{"repetitions": 2.5}', "'repetitions' has the wrong type"),
        ('{"repetitions": true}', "'repetitions' has the wrong type"),
        ('{"seed": "x"}', "'seed' has the wrong type"),
        ('{"powers_dbm": [-63, "x"]}', "'powers_dbm' has the wrong type"),
    ])
    def test_malformed_config_fails_with_one_error_line(self, tmp_path, capsys, text, complaint):
        config = tmp_path / "spec.json"
        config.write_text(text)
        assert run_cli("link-sweep", "--config", str(config)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert complaint in err

    def test_config_accepts_whole_numbers_for_float_fields(self, tmp_path):
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({
            "powers_dbm": [-63, -61], "cycle_ms": 40, "on_ms": 20,
            "repetitions": 1, "frames_per_rep": 1,
        }))
        assert run_cli("link-sweep", "--config", str(config),
                       "--out", str(tmp_path / "sweep.csv")) == 0

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_unknown_scheme_fails_with_plain_message(self, tmp_path, capsys, source):
        if source == "flag":
            argv = ["link-sweep", "--scheme", "nope"]
        else:
            config = tmp_path / "spec.json"
            config.write_text(json.dumps({"scheme": "nope"}))
            argv = ["link-sweep", "--config", str(config)]
        assert run_cli(*argv) == 1
        have = ", ".join(repr(name) for name in sorted(default_schemes()))
        assert capsys.readouterr().err == f"error: unknown scheme 'nope'; have [{have}]\n"

    def test_invalid_scenario_fails_with_diagnostic(self, capsys):
        with pytest.raises(SystemExit):
            run_cli("link-sweep", "--scenario", "bogus")


class TestMulticellCommand:
    def test_writes_grids_and_summary(self, tmp_path):
        prefix = str(tmp_path / "grid")
        code = run_cli(
            "multicell", "--stations", "7", "--sigmas", "0", "--step", "10",
            "--side", "40", "--seed", "2", "--out-prefix", prefix,
        )
        assert code == 0
        heat = (tmp_path / "grid_sigma0.csv").read_text().strip().splitlines()
        assert heat[0] == "x_m,y_m,n_detected,sinr_db_best"
        summary = (tmp_path / "grid_summary.csv").read_text().strip().splitlines()
        assert summary[0] == "sigma_db,n_detected,n_points"

    def test_codebook_blob_roundtrips(self, tmp_path):
        blob_path = tmp_path / "book.bin"
        code = run_cli(
            "multicell", "--stations", "7", "--sigmas", "0", "--step", "20",
            "--side", "40", "--out-prefix", str(tmp_path / "g"),
            "--codebook-out", str(blob_path),
        )
        assert code == 0
        book = x2.deserialize_codebook(blob_path.read_bytes())
        _, expected = build_cluster_configurations(build_hex_deployment(7))
        assert book.entries == {k: tuple(sorted(v)) for k, v in expected.entries.items()}

    @pytest.mark.parametrize("flags, complaint", [
        (["--step", "0"], "grid step 0 m and side 40 m must be positive"),
        (["--step", "-5"], "grid step -5 m and side 40 m must be positive"),
        (["--side", "0"], "grid step 10 m and side 0 m must be positive"),
        (["--sigmas=-3"], "shadowing sigma -3 dB must be non-negative"),
    ])
    def test_bad_grid_fails_with_one_error_line(self, tmp_path, capsys, flags, complaint):
        prefix = tmp_path / "grid"
        argv = ["multicell", "--stations", "7", "--step", "10", "--side", "40",
                "--out-prefix", str(prefix), *flags]
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err == f"error: {complaint}\n"
        assert list(tmp_path.iterdir()) == []


class TestEdSweepCommand:
    def test_repeated_register_fails_with_one_error_line(self, tmp_path, capsys):
        out, knees = tmp_path / "sweep.csv", tmp_path / "knees.csv"
        code = run_cli("ed-sweep", "--thetas", "3,3", "--repetitions", "1", "--frames", "1",
                       "--out", str(out), "--knees-out", str(knees))
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: ED registers 3,3 repeat a register\n"
        assert captured.out == "" and not out.exists() and not knees.exists()


class TestAnalyticsCommand:
    def test_writes_table(self, tmp_path, capsys):
        out = tmp_path / "rates.csv"
        assert run_cli("analytics", "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "cycle_ms,duty,k,rate_bps,wifi_airtime"
        assert "peak rate 750" in capsys.readouterr().out


# theta=3 link-sweep points around its -92 dBm threshold, one 10-frame repetition
NOISY_POINTS = ["link-sweep", "--theta", "3", "--powers=-92.5,-92,-91.5", "--repetitions", "1",
                "--frames", "10", "--seed", "7", "--out", "out.csv"]
# both registers' default power ladders: sensed and unsensed Poisson streams
ED_SWEEP = ["ed-sweep", "--scenario", "apdl-light", "--thetas", "3,28", "--repetitions", "1",
            "--frames", "3", "--seed", "7"]


class TestGoldenOutputs:
    """Seeded outputs byte for byte, as sha256 digests.

    No input uses a shadowing field, so no digest depends on the LAPACK
    build (Cholesky factorization).  The first four draw no ED noise and
    decide no tied templates.  The noisy ones sit at the -92 dBm
    threshold of register 3 under WiFi traffic, so they draw ED noise and
    decide tied templates: background-high has SER 0.5793 at -92.5 dBm and
    apdl-high FER 0.3 at -91.5 dBm.  The receiver decides on integers, so
    no BLAS is involved, but these digests also depend on numpy's uniform
    generator, which draws the ED noise as one double per window, not on
    its normal one; they were taken with numpy 2.4.6.
    """

    @pytest.mark.parametrize("argv, output, digest", [
        (["analytics", "--out", "out.csv"], "out.csv",
         "67a4a14a87519b84435e260efb7d6703b56b11a56ddc54ebd1264ee1dafcc447"),
        (["link-sweep", "--scenario", "clear", "--powers=-70,-56", "--repetitions", "1",
          "--frames", "4", "--seed", "7", "--out", "out.csv"], "out.csv",
         "222d14b17522af4d4cb8ad0e9cec446927515b624393ca42e3ed95f13681af6e"),
        (["multicell", "--stations", "19", "--sigmas", "0", "--step", "10", "--seed", "3",
          "--out-prefix", "out"], "out_summary.csv",
         "cdc372a18e352c3b35625960d0bcd3207d0d26ca923e2a8ebf3490315fbd915a"),
        (["multicell", "--stations", "19", "--sigmas", "0", "--step", "10", "--seed", "3",
          "--out-prefix", "out"], "out_sigma0.csv",
         "7869877ce7e89cfee21452c42ab525eb9c4b628635f38a726c9ff5ffb1a68d7f"),
        ([*NOISY_POINTS, "--scenario", "background-high"], "out.csv",
         "8b0d3c74fffbf07ced07d821d358d1fda0b82764d6e45fd14d94d7929a4b6794"),
        ([*NOISY_POINTS, "--scenario", "apdl-high"], "out.csv",
         "22073cba25e614079024c6d34ad0971674030f604da0f7fd7cec7024d380258a"),
        ([*NOISY_POINTS, "--scenario", "background-light"], "out.csv",
         "1d62108e36663c2f6d71b7f7f5af9506f59d9dcb23d539e0e639b89bae314956"),
        (ED_SWEEP, "ed_sweep.csv",
         "2fed0dc0b8d9747a5265413eec6a87d8442d72eb101f89ac3968c14e0691c4bc"),
        (ED_SWEEP, "ed_knees.csv",
         "1764f33618a0bf51d581d667c8d4528c8fa63c7e2cb0b1e63aaf7ced0d70bf68"),
    ], ids=["analytics", "link-sweep", "multicell-summary", "multicell-grid",
            "noisy-background-high", "noisy-apdl-high", "noisy-background-light",
            "ed-sweep", "ed-sweep-knees"])
    def test_output_digest(self, tmp_path, monkeypatch, argv, output, digest):
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv) == 0
        assert hashlib.sha256((tmp_path / output).read_bytes()).hexdigest() == digest


class TestX2Commands:
    def test_serve_and_fetch_roundtrip(self, tmp_path, capsys):
        blob_path = tmp_path / "book.bin"
        _, book = build_cluster_configurations(build_hex_deployment(7))
        blob_path.write_bytes(x2.serialize_codebook(book))

        service = x2.X2Service(book, 0x0A00002A)
        with service:
            host, port = service.address
            out = tmp_path / "fetched.bin"
            code = run_cli(
                "x2-fetch", "--server", f"{host}:{port}",
                "--network-id", "0x0A00002A", "--out", str(out),
                "--report", "1:0",
            )
            assert code == 0
            assert out.read_bytes() == blob_path.read_bytes()
            assert service.proximity_map()  # the report landed
        printed = capsys.readouterr().out
        assert "checksum" in printed and "reported proximity" in printed

    def test_serve_command_runs_for_fixed_time(self, tmp_path, capsys):
        blob_path = tmp_path / "book.bin"
        _, book = build_cluster_configurations(build_hex_deployment(7))
        blob_path.write_bytes(x2.serialize_codebook(book))
        port = 5871
        thread = threading.Thread(
            target=run_cli,
            args=("x2-serve", "--bind", f"127.0.0.1:{port}",
                  "--codebook", str(blob_path), "--run-seconds", "2.0"),
        )
        thread.start()
        try:
            deadline = time.time() + 2.0
            fetched = None
            while time.time() < deadline:
                try:
                    fetched = x2.fetch_codebook(("127.0.0.1", port), 0x0A00002A,
                                                timeout_s=0.5, retries=1)
                    break
                except x2.X2ConnectivityError:
                    time.sleep(0.05)
            assert fetched is not None
            assert x2.serialize_codebook(fetched) == blob_path.read_bytes()
        finally:
            thread.join()

    def test_fetch_unreachable_returns_nonzero(self, capsys):
        code = run_cli(
            "x2-fetch", "--server", "127.0.0.1:1", "--timeout", "0.2",
            "--retries", "1",
        )
        assert code == 2
        assert "x2 error" in capsys.readouterr().err

    def test_missing_codebook_file_fails(self, tmp_path, capsys):
        code = run_cli("x2-serve", "--codebook", str(tmp_path / "absent.bin"),
                       "--run-seconds", "0.1")
        assert code == 1
        assert "error" in capsys.readouterr().err
