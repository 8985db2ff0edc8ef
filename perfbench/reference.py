"""Reference kernels that time the machine, not mlcvqkd.

    python3 perfbench/reference.py

prints one JSON object with the median seconds of a Python loop like the
key-rate code and of a numpy distance-and-sort like the neighbour search.
They change only when the machine does, so two benchmark results can tell
machine drift from a code change. run.py runs this in a child interpreter,
so that its memory does not count in the workload's peak_rss_mb.
"""

import json
import math
import statistics
from time import perf_counter

import numpy as np

rng = np.random.default_rng(0)
train, queries = rng.normal(size=(2000, 4)), rng.normal(size=(256, 4))


def python_loop():
    total = 0.0
    for i in range(200_000):
        total += math.sqrt(i)


def numpy_kernel():
    dist = np.sqrt(((queries[:, None, :] - train[None, :, :]) ** 2).sum(axis=2))
    np.argsort(dist, axis=1, kind="stable")


def median_seconds(kernel, repeats=5):
    times = []
    for _ in range(repeats):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


if __name__ == "__main__":
    print(json.dumps({"python_s": median_seconds(python_loop), "numpy_s": median_seconds(numpy_kernel)}))
