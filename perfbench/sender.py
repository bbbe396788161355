"""Load generator for the daemon phases: one process, one TCP connection.

``flood`` sends a whole log as fast as the socket accepts it (closed
loop: TCP flow control is the only pacing).  ``paced`` is open loop: it
sends the first lines of a log on a fixed schedule of
``count:rate`` segments, stamping every line's due time on the
monotonic clock, which all processes on the host share.  Lines that are
due are sent together in one ``sendall``; a line's lateness is the time
it was handed to the socket minus its due time.

Both modes print one JSON object on stdout when done; the benchmark
turns due times into alert latencies from it::

    python3 perfbench/sender.py --port 7000 --file log.log \
        --mode paced --segments 8000:1000,40000:20000
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import time
from bisect import bisect_right

from stats import due_offsets, quantile


def parse_segments(text: str):
    """``"8000:1000,40000:20000"`` → ``[(8000, 1000.0), (40000, 20000.0)]``."""
    segments = []
    for part in text.split(","):
        count, rate = part.split(":")
        segments.append((int(count), float(rate)))
    if not segments or any(n < 1 or r <= 0 for n, r in segments):
        raise ValueError(f"bad segments {text!r}")
    return segments


def flood(sock: socket.socket, data: bytes) -> dict:
    t_first = time.monotonic()
    sock.sendall(data)
    return {"t_first": t_first, "t_done": time.monotonic(),
            "bytes": len(data)}


def paced(sock: socket.socket, lines, segments) -> dict:
    due = due_offsets(segments)
    if len(lines) < len(due):
        raise ValueError(f"log has {len(lines)} lines, schedule needs "
                         f"{len(due)}")
    batches = []  # (first line, end line, send time relative to t0)
    sent = 0
    n = len(due)
    t0 = time.monotonic() + 0.05
    while sent < n:
        now = time.monotonic() - t0
        end = bisect_right(due, now, lo=sent)
        if end > sent:
            batches.append((sent, end, now))
            sock.sendall(b"".join(lines[sent:end]))
            sent = end
            continue
        time.sleep(max(0.0, due[sent] - now))
    late = [(now - due[i]) * 1e3 for first, end, now in batches
            for i in range(first, end)]
    return {
        "t0": t0,
        "lines": n,
        "send_calls": len(batches),
        "late_p50_ms": quantile(late, 0.50),
        "late_p99_ms": quantile(late, 0.99),
        "late_max_ms": max(late),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--file", required=True)
    parser.add_argument("--mode", choices=("flood", "paced"), required=True)
    parser.add_argument("--segments", default="")
    args = parser.parse_args(argv)
    with open(args.file, "rb") as fh:
        data = fh.read()
    with socket.create_connection((args.host, args.port)) as sock:
        if args.mode == "flood":
            result = flood(sock, data)
        else:
            lines = data.splitlines(keepends=True)
            result = paced(sock, lines, parse_segments(args.segments))
        sock.shutdown(socket.SHUT_WR)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
