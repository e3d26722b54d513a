"""Fixed reference kernel that gauges how fast the machine runs right now.

    python3 perfbench/calibrate.py

Runs as a child process that never imports ionchain: for each line read
from standard input it times one pass of the kernel and prints the seconds;
it exits at the end of its input.  ``Calibrator`` starts and drives it.
The kernel mixes the kinds of work the workloads do (interpreted Python,
many small ``eigh`` calls, a large ``eigh`` and complex matrix-vector
products), so its time rises and falls with the machine's speed as theirs
do.  It depends on Python and numpy alone, so no change to ionchain can
alter it.
"""
from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path


class Calibrator:
    """The calibration child process, used as a context manager.

    ``env`` is the child's environment; it sets the BLAS thread count.
    """

    def __init__(self, env: dict | None = None):
        self.env = env

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())], env=self.env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __call__(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the calibration process ended early")
        return float(line)

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def make_inputs() -> dict:
    import numpy as np

    rng = np.random.default_rng(20220628)

    def sym(n):
        a = rng.random((n, n))
        return a + a.T

    matrix = rng.random((1200, 1200)) + 1j * rng.random((1200, 1200))
    return {"small": [sym(40) for _ in range(8)], "large": sym(600),
            "matrix": matrix, "vector": rng.random(1200) + 0j}


def kernel(inputs: dict) -> float:
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    for _ in range(10):
        for a in inputs["small"]:
            np.linalg.eigh(a)
    np.linalg.eigh(inputs["large"])
    for _ in range(10):
        inputs["matrix"] @ inputs["vector"]
    return time.perf_counter() - t0


def main() -> int:
    inputs = make_inputs()
    kernel(inputs)      # warm-up: first-touch of the arrays, BLAS set-up
    for _ in sys.stdin:
        print(repr(kernel(inputs)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
