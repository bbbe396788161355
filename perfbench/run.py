"""Entry point of the benchmark: runs ``bench.py`` in a child process,
then stops and waits for every process the run started.

Run from the repository root::

    python3 perfbench/run.py --workload chain-dense --seed 1 --seconds 45 --trace 0

The arguments go to ``bench.py`` unchanged and its exit code is this
one.  ``multiprocessing``'s resource tracker outlives the process that
started it by design: it exits only after reading end-of-file, once that
process is gone.  So on Linux this process first becomes the child
subreaper, which makes every orphaned descendant its child, and after
the benchmark exits it reaps each one, killing any still running after
``GRACE_S`` seconds.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
PR_SET_CHILD_SUBREAPER = 36
GRACE_S = 5.0


def become_subreaper() -> None:
    if sys.platform.startswith("linux"):
        ctypes.CDLL(None, use_errno=True).prctl(
            PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def children():
    """Pids of this process's children, zombies included."""
    me = str(os.getpid())
    pids = []
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat", encoding="ascii",
                      errors="replace") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The command name may hold spaces and ')': the state and the
        # parent pid are the two fields after its last ')'.
        if stat[stat.rindex(")") + 1:].split()[1] == me:
            pids.append(int(entry.name))
    return pids


def reap(grace_s: float) -> None:
    """Wait until this process has no child left; from ``grace_s`` on,
    kill every child still there."""
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for pid in children():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def main() -> int:
    become_subreaper()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    bench = subprocess.Popen(
        [sys.executable, str(HERE / "bench.py"), *sys.argv[1:]])
    try:
        code = bench.wait()
    except BaseException:
        bench.kill()
        bench.wait()
        raise
    finally:
        reap(GRACE_S)
    return code if code >= 0 else 128 - code


if __name__ == "__main__":
    sys.exit(main())
