"""Serve the 100-station codebook over X2 from a process of its own.

Usage: python3 pipebench/x2_service.py NETWORK_ID CPU

Pins itself, and so every thread it starts, to CPU, prints ``READY <port>``
once listening on 127.0.0.1, serves until its standard input closes, then
stops the service and exits.
"""

from __future__ import annotations

import os
import sys

from common import import_ctclink

STATIONS = 100


def main() -> int:
    network_id, cpu = int(sys.argv[1], 0), int(sys.argv[2])
    os.sched_setaffinity(0, {cpu})
    import_ctclink()
    from ctclink.multicell import build_cluster_configurations, build_hex_deployment
    from ctclink.x2 import X2Service

    _, book = build_cluster_configurations(build_hex_deployment(STATIONS))
    service = X2Service(book, network_id).start()
    try:
        print(f"READY {service.address[1]}", flush=True)
        sys.stdin.read()
    finally:
        service.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
