"""Scalar pair-bounds loop vs the CSR pair-bounds kernel.

For a seeded set of influence candidates and a target/reference partition
grid, the per-pair ``PDom`` bounds are computed two ways:

* **scalar** — the test oracle's triple loop: one
  :func:`repro.core.pdom_bounds_from_partitions` call per *(target partition,
  reference partition, candidate)* triple;
* **csr** — one :func:`repro.core.pdom_bounds_csr` call over the ragged CSR
  batch built by :func:`repro.uncertain.csr_partitions_batch` (concatenation
  included, batch cache cleared before every repeat).

Both must produce the same bound matrices (up to summation re-association,
checked with a tight tolerance); the sweep over candidate decomposition
depths shows how the speedup scales with the partition count.

A second, **ragged** section runs the hot path's own shape: a mixed-depth
frontier (depths cycling ``1 + i % 5``, so per-candidate partition counts
span 2..32).  It times the scalar loop, the CSR kernel cold (concatenation
included) and the CSR kernel with the per-depth-set batch cache warm (the
steady state of an unchanged frontier).  The scalar loop runs identical code
on every machine, so CI uses it to rescale the committed timings.

Results, together with the host environment (``nproc`` and
:func:`repro.core.kernel_environment`), are written to ``BENCH_kernel.json``
(override with the ``BENCH_KERNEL_JSON`` environment variable).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_kernel.py

or through the benchmark suite::

    PYTHONPATH=src python -m pytest benchmarks/bench_kernel.py -q -s
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.core import pdom_bounds_csr, pdom_bounds_from_partitions
from repro.core.kernels import kernel_environment
from repro.datasets import random_reference_object, uniform_rectangle_database
from repro.uncertain import DecompositionTree, clear_csr_cache, csr_partitions_batch

NUM_CANDIDATES = 40
GRID_DEPTH = 2  # 4 target x 4 reference partitions = 16 pairs
CANDIDATE_DEPTHS = (2, 3, 4, 5, 6)
SEED = 13
REPEATS = 5
RAGGED_DEPTH_CYCLE = 5  # mixed-depth frontier: depths 1 + (i % 5)
RAGGED_REPEATS = 5
TOLERANCE = 1e-12  # CSR vs scalar: summation re-association only


def _workload():
    database = uniform_rectangle_database(
        num_objects=NUM_CANDIDATES, max_extent=0.05, seed=SEED
    )
    target = random_reference_object(extent=0.05, seed=SEED + 1, label="target")
    reference = random_reference_object(extent=0.05, seed=SEED + 2, label="reference")
    candidate_trees = [DecompositionTree(obj) for obj in database]
    target_parts = DecompositionTree(target).partitions_arrays(GRID_DEPTH)
    reference_parts = DecompositionTree(reference).partitions_arrays(GRID_DEPTH)
    return candidate_trees, target_parts, reference_parts


def _scalar_matrices(trees, depths, target_regions, reference_regions):
    parts = [tree.partitions_arrays(depth) for tree, depth in zip(trees, depths)]
    num_pairs = target_regions.shape[0] * reference_regions.shape[0]
    lower = np.empty((num_pairs, len(parts)))
    upper = np.empty((num_pairs, len(parts)))
    pair = 0
    for b_idx in range(target_regions.shape[0]):
        for r_idx in range(reference_regions.shape[0]):
            for c_idx, (regions, masses) in enumerate(parts):
                lower[pair, c_idx], upper[pair, c_idx] = pdom_bounds_from_partitions(
                    regions, masses, target_regions[b_idx], reference_regions[r_idx]
                )
            pair += 1
    return lower, upper


def _csr_matrices(trees, depths, target_regions, reference_regions):
    batch = csr_partitions_batch(trees, depths)
    return pdom_bounds_csr(
        batch.regions, batch.masses, batch.offsets, target_regions, reference_regions
    )


def _interleaved_best(repeats, *paths):
    """Fastest of ``repeats`` timed calls per ``(compute, cold)`` path.

    The paths take turns within each repeat, so a load swing on the host
    hits all of them alike and their ratio stays meaningful.  A cold path
    clears the CSR batch cache first; its own call refills it, so a path
    listed after it runs warm.  Returns ``(seconds, last result)`` per path.
    """
    best = [np.inf] * len(paths)
    results = [None] * len(paths)
    for _ in range(repeats):
        for i, (compute, cold) in enumerate(paths):
            if cold:
                clear_csr_cache()
            start = time.perf_counter()
            results[i] = compute()
            best[i] = min(best[i], time.perf_counter() - start)
    return list(zip(best, results))


def _max_abs_diff(got, want) -> float:
    diff = max(np.abs(got[0] - want[0]).max(), np.abs(got[1] - want[1]).max())
    if diff > TOLERANCE:
        # correctness gate shared by the CLI and the pytest entry point
        raise AssertionError(f"CSR kernel diverged from the scalar loop: {diff:.3e}")
    return float(diff)


def _ragged_section(trees, target_regions, reference_regions) -> dict:
    """Scalar vs CSR cold vs CSR cache-warm on a mixed-depth frontier."""
    depths = [1 + (i % RAGGED_DEPTH_CYCLE) for i in range(len(trees))]
    counts = [
        tree.partitions_arrays(depth)[1].shape[0] for tree, depth in zip(trees, depths)
    ]
    args = (trees, depths, target_regions, reference_regions)
    (scalar_seconds, scalar), *csr = _interleaved_best(
        RAGGED_REPEATS,
        (lambda: _scalar_matrices(*args), False),
        (lambda: _csr_matrices(*args), True),
        (lambda: _csr_matrices(*args), False),
    )
    rows = [{"path": "scalar", "csr_cache": None, "seconds": scalar_seconds}]
    for cache, (seconds, result) in zip(("cold", "warm"), csr):
        rows.append(
            {
                "path": "csr",
                "csr_cache": cache,
                "seconds": seconds,
                "speedup_vs_scalar": scalar_seconds / max(seconds, 1e-12),
                "max_abs_diff_vs_scalar": _max_abs_diff(result, scalar),
            }
        )
    return {
        "workload": {
            "num_candidates": len(trees),
            "depth_cycle": RAGGED_DEPTH_CYCLE,
            "partition_counts": {
                "min": int(min(counts)),
                "max": int(max(counts)),
                "total": int(sum(counts)),
            },
            "num_pairs": int(target_regions.shape[0] * reference_regions.shape[0]),
            "repeats": RAGGED_REPEATS,
        },
        "rows": rows,
    }


def run_benchmark() -> dict:
    """Time both paths across candidate depths and return the comparison."""
    trees, (target_regions, _), (reference_regions, _) = _workload()
    rows = []
    for depth in CANDIDATE_DEPTHS:
        args = (trees, [depth] * len(trees), target_regions, reference_regions)
        (scalar_seconds, scalar), (csr_seconds, csr) = _interleaved_best(
            REPEATS,
            (lambda: _scalar_matrices(*args), False),
            (lambda: _csr_matrices(*args), True),
        )
        rows.append(
            {
                "candidate_depth": depth,
                "max_partitions": int(
                    max(tree.partitions_arrays(depth)[1].shape[0] for tree in trees)
                ),
                "num_pairs": int(target_regions.shape[0] * reference_regions.shape[0]),
                "scalar_seconds": scalar_seconds,
                "csr_seconds": csr_seconds,
                "speedup": scalar_seconds / max(csr_seconds, 1e-12),
                "max_abs_diff": _max_abs_diff(csr, scalar),
            }
        )
    return {
        "workload": {
            "num_candidates": NUM_CANDIDATES,
            "grid_depth": GRID_DEPTH,
            "candidate_depths": list(CANDIDATE_DEPTHS),
            "seed": SEED,
            "repeats": REPEATS,
        },
        "rows": rows,
        "ragged": _ragged_section(trees, target_regions, reference_regions),
        "environment": {
            "nproc": len(os.sched_getaffinity(0)),
            **kernel_environment(),
        },
    }


def _write_report(report: dict) -> str:
    path = os.environ.get("BENCH_KERNEL_JSON", "BENCH_kernel.json")
    with open(path, "w") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    return path


def test_csr_kernel_beats_scalar_loop():
    report = run_benchmark()
    path = _write_report(report)
    print()
    for row in report["rows"]:
        print(
            f"depth {row['candidate_depth']}: scalar {row['scalar_seconds'] * 1e3:.1f} ms  "
            f"csr {row['csr_seconds'] * 1e3:.1f} ms  "
            f"speedup {row['speedup']:.1f}x"
        )
    for row in report["ragged"]["rows"]:
        cache = f" ({row['csr_cache']})" if row["csr_cache"] else ""
        print(f"ragged {row['path']}{cache}: {row['seconds'] * 1e3:.2f} ms")
    print(f"-> {path}")
    # correctness is asserted inside run_benchmark; here only the speed claim
    for row in report["rows"]:
        assert row["csr_seconds"] < row["scalar_seconds"]


if __name__ == "__main__":
    result = run_benchmark()
    path = _write_report(result)
    print(json.dumps(result, indent=1))
    print(f"wrote {path}")
