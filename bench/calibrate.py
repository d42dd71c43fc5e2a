"""A fixed NumPy workload that does not use relent: ``python3 bench/calibrate.py THREADS``.

run.py times this process between passes and states every time metric at the
machine speed under which this process takes CALIBRATION_REF_S (see run.py).
Its parts mirror what relent spends time on: interpreter start-up and the
NumPy import, Python-level work on 2x2 matrices, and elementwise complex
arithmetic on arrays of the default (8,192) and the fine (131,072) grid size.
THREADS copies of the kernel run at once, as many as the pass runs threads, so
that the calibration also feels contention on every core the pass uses.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def kernel(seed: int) -> float:
    total = 0.0
    for i in range(3000):
        a = np.array([[np.cos(i), np.sin(i)], [-np.sin(i), np.cos(i)]], dtype=complex)
        total += np.kron(a, a.conj().T)[0, 0].real
    rng = np.random.default_rng(seed)
    for n, repeats in ((8192, 300), (131072, 25)):
        x = rng.uniform(0.0, 1.0, n)
        for _ in range(repeats):
            z = (np.cos(x) + 1j * np.sin(x)) * np.exp(-x)
            total += float(np.sum(z * z.conj()).real)
    return total


if __name__ == "__main__":
    threads = int(sys.argv[1])
    with ThreadPoolExecutor(threads) as pool:
        if not all(np.isfinite(t) for t in pool.map(kernel, range(threads))):
            sys.exit("calibration produced a non-finite sum")
