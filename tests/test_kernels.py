"""Plumbing around the pair-bounds kernel.

Complements ``tests/test_pdom_batch.py`` (numerical parity of the kernel
with the scalar oracle): the environment metadata benchmark reports read,
``csr_partitions_batch`` construction and its per-depth-set cache, and the
kernel timing counter surfaced in ``IterationStats`` / ``BatchReport``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import IDCA, MaxIterations
from repro.core.kernels import (
    kernel_environment,
    kernel_stats,
    pdom_bounds_csr,
    total_kernel_seconds,
)
from repro.datasets import random_reference_object, uniform_rectangle_database
from repro.engine import (
    ExecutorConfig,
    InverseRankingQuery,
    KNNQuery,
    QueryEngine,
    RankingQuery,
)
from repro.uncertain import (
    DecompositionTree,
    clear_csr_cache,
    csr_partitions_batch,
)


@pytest.fixture(scope="module")
def database():
    return uniform_rectangle_database(num_objects=20, max_extent=0.05, seed=41)


@pytest.fixture(scope="module")
def reference():
    return random_reference_object(extent=0.05, seed=42, label="query")


@pytest.fixture(scope="module")
def requests(reference):
    return [
        KNNQuery(reference, k=3, tau=0.5, max_iterations=3),
        KNNQuery(7, k=2, tau=0.3, max_iterations=3),
        RankingQuery(reference, max_iterations=2, candidate_indices=range(8)),
        InverseRankingQuery(5, reference, max_iterations=3),
    ]


class TestBackendResolution:
    """One kernel implementation: the environment always reports it."""

    def test_kernel_environment_metadata(self):
        env = kernel_environment()
        assert env["numpy_version"] == np.__version__
        assert env["cpu_count"] >= 1
        # fixed keys kept for benchmark reports that still read them
        assert env["default_backend"] == "numpy"
        assert env["numba_version"] is None
        assert env["kernel_backend_env"] is None


# --------------------------------------------------------------------- #
# CSR batch construction and caching
# --------------------------------------------------------------------- #
class TestCSRPartitionBatch:
    def test_layout_matches_per_tree_arrays(self, database):
        trees = [DecompositionTree(obj) for obj in database[:6]]
        depths = [1 + (i % 3) for i in range(6)]
        batch = csr_partitions_batch(trees, depths)
        assert batch.num_candidates == 6
        assert batch.offsets[0] == 0 and batch.offsets[-1] == batch.total_partitions
        for i, (tree, depth) in enumerate(zip(trees, depths)):
            regions, masses = tree.partitions_arrays(depth)
            lo, hi = int(batch.offsets[i]), int(batch.offsets[i + 1])
            assert hi - lo == masses.shape[0] == int(batch.counts[i])
            assert np.array_equal(batch.regions[lo:hi], regions)
            assert np.array_equal(batch.masses[lo:hi], masses)

    def test_unchanged_depth_set_reuses_cached_batch(self, database):
        trees = [DecompositionTree(obj) for obj in database[:4]]
        first = csr_partitions_batch(trees, [2, 2, 3, 3])
        second = csr_partitions_batch(trees, [2, 2, 3, 3])
        assert first is second  # iteration N+1 reuses N's concatenation
        third = csr_partitions_batch(trees, [2, 2, 3, 4])
        assert third is not first

    def test_cache_key_uses_effective_depth(self, database):
        tree = DecompositionTree(database[0], max_depth=2)
        capped = csr_partitions_batch([tree], [5])
        exact = csr_partitions_batch([tree], [2])
        assert capped is exact  # both clamp to max_depth=2

    def test_arrays_are_read_only(self, database):
        batch = csr_partitions_batch([DecompositionTree(database[0])], [2])
        for array in (batch.regions, batch.masses, batch.offsets):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0

    def test_empty_batch(self):
        batch = csr_partitions_batch([], [])
        assert batch.num_candidates == 0
        assert batch.total_partitions == 0
        assert batch.offsets.tolist() == [0]

    def test_mismatched_lengths_raise(self, database):
        with pytest.raises(ValueError):
            csr_partitions_batch([DecompositionTree(database[0])], [1, 2])

    def test_clear_csr_cache(self, database):
        trees = [DecompositionTree(database[0])]
        first = csr_partitions_batch(trees, [1])
        clear_csr_cache()
        second = csr_partitions_batch(trees, [1])
        assert first is not second
        assert np.array_equal(first.regions, second.regions)


# --------------------------------------------------------------------- #
# timing instrumentation
# --------------------------------------------------------------------- #
class TestKernelTiming:
    def test_counters_accumulate_per_call(self, database):
        tree = DecompositionTree(database[0])
        batch = csr_partitions_batch([tree], [3])
        grid, _ = DecompositionTree(database[1]).partitions_arrays(1)
        before_seconds = total_kernel_seconds()
        before_calls = kernel_stats()["kernel_calls"]
        pdom_bounds_csr(batch.regions, batch.masses, batch.offsets, grid, grid)
        assert total_kernel_seconds() > before_seconds
        assert kernel_stats()["kernel_calls"] == before_calls + 1
        assert kernel_stats()["kernel_seconds"] == total_kernel_seconds()

    def test_iteration_stats_record_kernel_time(self, database, reference):
        idca = IDCA(database)
        result = idca.domination_count(
            0, reference, stop=MaxIterations(2), max_iterations=2
        )
        refined = result.iterations[1:]
        assert refined, "expected at least one refinement iteration"
        for stat in refined:
            assert 0.0 <= stat.kernel_seconds <= stat.elapsed_seconds
        # the fresh run computed at least one column in the kernel
        assert any(stat.kernel_seconds > 0.0 for stat in refined)

    def test_batch_report_surfaces_kernel_fields(self, database, requests):
        engine = QueryEngine(database)
        before = total_kernel_seconds()
        engine.evaluate_many(requests, ExecutorConfig(mode="serial"))
        report = engine.last_batch_report
        assert 0.0 < report.kernel_seconds <= total_kernel_seconds() - before
        payload = report.to_dict()
        assert payload["kernel_seconds"] == report.kernel_seconds
        assert "kernel_backend" not in payload
