"""Shared pieces of the benchmark: run logs, statistics, environment."""

from __future__ import annotations

import gc
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class RunLog:
    """What one timed pass did, per operation, as the client saw it."""

    latencies: list = field(default_factory=list)  # seconds, per operation
    kinds: list = field(default_factory=list)
    requests: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    wall: float = 0.0  # the timed pass, speed probes excluded
    probes: list = field(default_factory=list)  # seconds, per speed probe


# The probe takes about this long on an unloaded 2-CPU container at 2 GHz;
# ``*_at_ref`` metrics are scaled to a machine running at that speed.
PROBE_REFERENCE_S = 0.35e-3
_PROBE_ROWS = np.random.default_rng(0).random((32, 16))


def speed_probe() -> float:
    """Seconds for a fixed mix of small numpy and interpreter work.

    The machine this benchmark runs on is shared: its CPU speed drifts by
    a third over tens of seconds.  The probe runs between operations, never
    inside one, and uses nothing from ``repro``, so it measures the machine
    and not the program.  Garbage collection is held off so that the
    program's own collection debt is never charged to the probe.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = 0.0
        for i in range(12):
            row = np.convolve(_PROBE_ROWS[i], _PROBE_ROWS[i + 1])
            total += float(np.cumsum((_PROBE_ROWS * row[:16]).sum(axis=1)).max())
            table = {j: j * j for j in range(40)}
            total += sum(table.values()) * 1e-12
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed_factor(probes) -> float:
    """How much slower than the reference the machine ran, from probe times.

    The mean, not the median, of the probes: throughput averages over time
    the same way.
    """
    return float(np.mean(probes)) / PROBE_REFERENCE_S


def zipf_weights(size: int, exponent: float) -> np.ndarray:
    """Normalised Zipf weights ``1/rank**exponent`` over ``size`` ranks."""
    weights = 1.0 / np.arange(1, size + 1, dtype=float) ** exponent
    return weights / weights.sum()


def percentile_ms(samples, q: float):
    """The ``q``-th percentile of ``samples`` (seconds) in ms, or ``None``.

    ``None`` without samples, and for a tail percentile (above the median)
    unless at least ten samples lie beyond it: a tail figure read off fewer
    samples is mostly noise.
    """
    if not samples or (q > 50 and len(samples) * (1.0 - q / 100.0) < 10):
        return None
    return float(np.percentile(np.asarray(samples) * 1000.0, q))


def tail_percentile(count: int) -> float:
    """Highest of p50/p90/p95/p99/p99.9 with at least ten samples beyond it."""
    for q in (99.9, 99.0, 95.0, 90.0, 50.0):
        if count * (1.0 - q / 100.0) >= 10:
            return q
    return 50.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(seed: int, workload: str, parameters: dict) -> dict:
    """The machine and software a report was measured with."""
    from repro.core.kernels import kernel_environment
    from repro.engine.boundstore import bound_store_available
    from repro.engine.executor import _pool_context
    from repro.uncertain.sharedmem import shared_memory_available

    kernel = kernel_environment()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "numpy": np.__version__,
        "numba": kernel["numba_version"],
        "kernel_backend": kernel["default_backend"],
        "kernel_backend_env": kernel["kernel_backend_env"],
        "start_method": _pool_context(None).get_start_method(),
        "shared_memory": shared_memory_available(),
        "bound_store": bound_store_available(),
        "workload": workload,
        "seed": seed,
        "parameters": parameters,
    }
