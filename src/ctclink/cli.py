"""Command-line harness.

Subcommands cover the reproduction workflow end to end: link-level FER
sweeps, ED-register sweeps, multicell detection grids, the closed-form
rate/airtime table, and the X2 control-channel service pair.  Every
simulation command takes --seed and emits deterministic CSV.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from . import analytics, x2
from .experiments import (
    ED_SWEEP_THETAS,
    SCENARIOS,
    ExperimentSpec,
    run_ed_sweep,
    run_link_sweep,
    run_multicell,
)
from .multicell import build_cluster_configurations, build_hex_deployment
from .x2 import X2Client, X2Error, X2Service

# every ExperimentSpec field, with the default that fixes its JSON type
_SPEC_DEFAULTS = {f.name: f.default for f in dataclasses.fields(ExperimentSpec)}


def _json_fits(value, default) -> bool:
    """Whether a JSON value has the type of a spec field with this default."""
    if isinstance(default, tuple):
        return isinstance(value, list) and all(_json_fits(v, 0.0) for v in value)
    return type(value) in ((int, float) if isinstance(default, float) else (type(default),))


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"{path}: config must be a JSON object of experiment fields")
    unknown = set(config) - set(_SPEC_DEFAULTS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in config.items():
        if not _json_fits(value, _SPEC_DEFAULTS[key]):
            raise ValueError(f"{path}: config field {key!r} has the wrong type: {value!r}")
    return config


def _build_spec(args: argparse.Namespace) -> ExperimentSpec:
    """Defaults < --config file < explicit command-line flags."""
    fields = _load_config(args.config)
    for key in _SPEC_DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            fields[key] = value
    if "powers_dbm" in fields:
        fields["powers_dbm"] = tuple(fields["powers_dbm"])
    return ExperimentSpec(**fields)


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(","))


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(","))


def _parse_address(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {text!r}")
    return host, int(port)


def _add_spec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file with experiment fields")
    parser.add_argument("--seed", type=int, help="base random seed")
    parser.add_argument("--scenario", choices=SCENARIOS)
    parser.add_argument("--powers", dest="powers_dbm", type=_parse_floats,
                        help="comma-separated receive powers in dBm")
    parser.add_argument("--theta", type=int, help="energy-detection register")
    parser.add_argument("--repetitions", type=int)
    parser.add_argument("--frames", dest="frames_per_rep", type=int,
                        help="frames per repetition")
    parser.add_argument("--scheme", help="coding scheme name")
    parser.add_argument("--cycle-ms", dest="cycle_ms", type=float)
    parser.add_argument("--on-ms", dest="on_ms", type=float)


def _cmd_link_sweep(args: argparse.Namespace) -> int:
    result = run_link_sweep(_build_spec(args))
    result.to_csv(args.out)
    powers, fers = result.fer_curve()
    print(f"wrote {args.out}: {len(powers)} points, "
          f"FER {fers[0]:.3f} @ {powers[0]:g} dBm -> {fers[-1]:.3f} @ {powers[-1]:g} dBm")
    return 0


def _cmd_ed_sweep(args: argparse.Namespace) -> int:
    result = run_ed_sweep(_build_spec(args), thetas=tuple(args.thetas))
    result.to_csv(args.out)
    result.knees_to_csv(args.knees_out)
    for k in result.knees:
        print(f"theta {k.theta} ({k.theta_dbm:g} dBm): knee {k.knee_dbm:g} dBm, "
              f"width {k.width_db:g} dB")
    return 0


def _cmd_multicell(args: argparse.Namespace) -> int:
    run = run_multicell(
        station_count=args.stations,
        sigmas_db=tuple(args.sigmas),
        seed=args.seed if args.seed is not None else 1,
        grid_step_m=args.step,
        side_m=args.side,
    )
    for sigma, grid in sorted(run.results.items()):
        path = f"{args.out_prefix}_sigma{sigma:g}.csv"
        grid.to_csv(path)
        print(f"wrote {path}: {grid.points_m.shape[0]} points")
    summary = f"{args.out_prefix}_summary.csv"
    run.summary_to_csv(summary)
    print(f"wrote {summary}")
    if args.codebook_out:
        deployment = build_hex_deployment(args.stations)
        _, book = build_cluster_configurations(deployment)
        with open(args.codebook_out, "wb") as fh:
            fh.write(x2.serialize_codebook(book))
        print(f"wrote {args.codebook_out}: {len(book.entries)} codebook entries")
    return 0


def _cmd_analytics(args: argparse.Namespace) -> int:
    table = analytics.rate_airtime_table()
    analytics.table_to_csv(table, args.out)
    peak = max(p.ctc_rate_bps for p in table)
    print(f"wrote {args.out}: {len(table)} rows, peak rate {peak:g} bps")
    return 0


def _cmd_x2_serve(args: argparse.Namespace) -> int:
    with open(args.codebook, "rb") as fh:
        book = x2.deserialize_codebook(fh.read())
    host, port = args.bind
    service = X2Service(book, args.network_id, host=host, port=port)
    with service:
        host, port = service.address
        print(f"serving {len(book.entries)} codebook entries on {host}:{port} "
              f"(network id {args.network_id:#010x})")
        try:
            if args.run_seconds is None:
                while True:
                    time.sleep(3600)
            else:
                time.sleep(args.run_seconds)
        except KeyboardInterrupt:
            pass
        for ap_id, cells in sorted(service.proximity_map().items()):
            print(f"  report {ap_id}: cells {sorted(cells)}")
    return 0


def _cmd_x2_fetch(args: argparse.Namespace) -> int:
    book = x2.fetch_codebook(
        args.server,
        args.network_id,
        ap_id=args.ap_id,
        timeout_s=args.timeout,
        retries=args.retries,
    )
    blob = x2.serialize_codebook(book)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(blob)
    checksum = int.from_bytes(blob[-2:], "big")
    print(f"fetched {len(book.entries)} entries, {len(blob)} bytes, "
          f"checksum {checksum:#06x}")
    if args.report:
        pairs = [tuple(int(v) for v in pair.split(":")) for pair in args.report.split(",")]
        cells = sorted({m for p in pairs for m in book.members(*p)})
        with X2Client(args.server, args.network_id, ap_id=args.ap_id,
                      timeout_s=args.timeout) as client:
            client.report_proximity(pairs, cells)
        print(f"reported proximity: cells {cells}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctclink",
        description="LTE-U to WiFi cross-technology link toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("link-sweep", help="FER/SER versus receive power")
    _add_spec_flags(p)
    p.add_argument("--out", default="link_sweep.csv")
    p.set_defaults(func=_cmd_link_sweep)

    p = sub.add_parser("ed-sweep", help="FER sweep per ED register")
    _add_spec_flags(p)
    p.add_argument("--thetas", type=_parse_ints, default=ED_SWEEP_THETAS,
                   help="comma-separated register values")
    p.add_argument("--out", default="ed_sweep.csv")
    p.add_argument("--knees-out", default="ed_knees.csv")
    p.set_defaults(func=_cmd_ed_sweep)

    p = sub.add_parser("multicell", help="detected-BS grids with/without shadowing")
    p.add_argument("--seed", type=int)
    p.add_argument("--stations", type=int, default=100)
    p.add_argument("--sigmas", type=_parse_floats, default=(0.0, 6.0))
    p.add_argument("--step", type=float, default=2.0)
    p.add_argument("--side", type=float, default=140.0)
    p.add_argument("--out-prefix", dest="out_prefix", default="multicell")
    p.add_argument("--codebook-out", dest="codebook_out",
                   help="also write the deployment's canonical codebook blob")
    p.set_defaults(func=_cmd_multicell)

    p = sub.add_parser("analytics", help="closed-form rate/airtime table")
    p.add_argument("--out", default="rate_airtime.csv")
    p.set_defaults(func=_cmd_analytics)

    p = sub.add_parser("x2-serve", help="serve a codebook over the control channel")
    p.add_argument("--bind", type=_parse_address, default=("127.0.0.1", 5088))
    p.add_argument("--codebook", required=True, help="canonical codebook blob file")
    p.add_argument("--network-id", dest="network_id", type=lambda v: int(v, 0),
                   default=0x0A00002A)
    p.add_argument("--run-seconds", dest="run_seconds", type=float, default=None,
                   help="serve for a fixed time instead of forever")
    p.set_defaults(func=_cmd_x2_serve)

    p = sub.add_parser("x2-fetch", help="fetch the codebook from a running service")
    p.add_argument("--server", type=_parse_address, required=True)
    p.add_argument("--network-id", dest="network_id", type=lambda v: int(v, 0),
                   default=0x0A00002A)
    p.add_argument("--ap-id", dest="ap_id", default="ap-cli")
    p.add_argument("--timeout", type=float, default=2.0)
    p.add_argument("--retries", type=int, default=3)
    p.add_argument("--out", help="write the canonical blob here")
    p.add_argument("--report", help="slot:cluster pairs to report, e.g. 1:0,4:2")
    p.set_defaults(func=_cmd_x2_fetch)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except X2Error as exc:
        print(f"x2 error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        # str() of a KeyError is the repr of its message, quotes and all
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
