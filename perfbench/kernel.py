"""Host-speed probe: a fixed piece of the kind of work an orbitsep op does.

The benchmark starts this file as a child process and asks it for one
kernel time at a time (write a line, read one float in seconds).  It runs
apart from the orbitsep process, so orbitsep's heap, caches and numpy state
cannot change the kernel's time; only the host's speed can.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

import numpy as np

_PAIRS = [[i * 0.37, -i / 7.0] for i in range(1500)]


def calibration_kernel() -> float:
    """Seconds to build an argument parser, round-trip and format JSON, hash
    and sort tuples, multiply big integers and map small numpy arrays."""
    start = time.perf_counter()
    parser = argparse.ArgumentParser(prog="kernel")
    sub = parser.add_subparsers(dest="command")
    for name in "abcde":
        p = sub.add_parser(name)
        p.add_argument("--x")
        p.add_argument("--y", type=int, default=0)
        p.add_argument("z")
    parser.parse_args(["c", "--y", "3", "v"])
    pairs = json.loads(json.dumps(_PAIRS))
    ",\n".join(f"[{a:.17g}, {b:.17g}]" for a, b in pairs[:800])
    rows = [tuple((i * 7919 + j) % 1009 for j in range(4)) for i in range(1200)]
    index = {row: i for i, row in enumerate(rows)}
    rows.sort()
    x = len(index)
    for i in range(1, 400):
        x = x * (i | 1) + i
    a = np.arange(256, dtype=float)
    for _ in range(30):
        a = np.abs(np.exp(1j * a)) * a
    return time.perf_counter() - start


class Probe:
    """The kernel in a child process; close() ends the child and waits."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)

    def time(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"kernel probe exited with code {self._proc.wait()}")
        return float(line)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


if __name__ == "__main__":
    calibration_kernel()  # the first call pays for lazy imports and caches
    for _ in sys.stdin:
        print(repr(calibration_kernel()), flush=True)
