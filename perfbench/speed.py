"""A fixed reference kernel that tracks how fast the machine runs right now.

The benchmark shares its CPUs with other tenants, and their load changes the
speed of every instruction: CPU time stays equal to wall time, the work
itself runs slower.  On a shared 2-CPU Xeon VM the median batch-32 step of
the same code moved between 67 and 124 ms from one half-minute to the next,
while its ratio to a fixed kernel stayed within about 7%.  The benchmark
therefore times this kernel after every operation (on the one CPU it is
pinned to) and scales the operation's time by ``REFERENCE_MS`` over the
median kernel time around it: the end-to-end times read as if the kernel
took ``REFERENCE_MS``.  The kernel mixes what epicast spends its time on:
small batched matmuls, elementwise maths, an einsum contraction and
``np.quantile``, each called from Python; passes over an array larger than
L2, as the 64-region layers make; and parsing CSV rows into floats.  It is
part of the benchmark and never changes with the program, so a change to
epicast moves the scaled times by its own effect only.
"""

from __future__ import annotations

import csv
import io
import statistics
from time import perf_counter

import numpy as np

REFERENCE_MS = 8.0  # about the kernel's time on a quiet 2-CPU Xeon VM
ITERATIONS = 8
CSV_ROWS = 1500
MEMORY_PASSES = 2
WINDOW = 1  # operations on each side whose kernel times give the local speed


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.features = rng.normal(size=(32, 8, 14, 16))
        self.weight = rng.normal(size=(16, 16)) / 4.0
        self.flows = rng.normal(size=(32, 8, 8, 14))
        self.wide_flows = rng.normal(size=(8, 64, 64, 14))  # beyond L2, like N=64
        self.table = "".join(
            f"2020-01-{1 + row % 28:02d},r{row % 8},r{row % 5},{value:.17g}\n"
            for row, value in enumerate(rng.uniform(0, 1e4, CSV_ROWS))
        )

    def run_ms(self) -> float:
        start = perf_counter()
        x = self.features
        for _ in range(ITERATIONS):
            y = np.tanh(x @ self.weight) * 0.5 + x
            x = y / (np.abs(y).max() + 1.0)
            mixed = np.einsum("bnmt,bmt->bn", self.flows, x[..., 0])
            np.quantile(mixed, 0.3)
        for _ in range(MEMORY_PASSES):
            (self.wide_flows * 0.5).sum(axis=2)
        flows = {}
        for day, origin, destination, flow in csv.reader(io.StringIO(self.table)):
            flows[day, origin, destination] = float(flow)
        return 1e3 * (perf_counter() - start)


def scale_factors(kernel_ms: list[float | None]) -> list[float]:
    """Per operation: ``REFERENCE_MS`` over the median nearby kernel time.

    ``kernel_ms`` holds each operation's kernel time in order, or None where
    the kernel did not run; those positions borrow their neighbours' times.
    """
    known = [ms for ms in kernel_ms if ms is not None]
    factors = []
    for i in range(len(kernel_ms)):
        near = [ms for ms in kernel_ms[max(0, i - WINDOW) : i + WINDOW + 1] if ms is not None]
        factors.append(REFERENCE_MS / statistics.median(near or known))
    return factors
