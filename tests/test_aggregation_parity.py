"""The batched aggregation path agrees bit for bit with its scalar oracle.

IDCA aggregates every iteration with three batched steps: the UGF expansion
of all partition pairs (``ugf_pmf_bounds_batch``), the weighted fold over the
pairs (``combine_weighted_bounds_arrays``) and, for iteration 0, the closed
form of ``domination_count_bounds`` on all-``[0, 1]`` bounds.  Each must
produce exactly the bytes of the scalar ``UncertainGeneratingFunction``
expansion and of a row-by-row Python fold.  The results must also own their
memory: a view into a ``(pairs x length)`` temporary would keep the whole
temporary alive behind every stored bound.  Probabilities that are NaN are
rejected by every entry point instead of turning into NaN bounds.
"""

import numpy as np
import pytest

from repro.core import (
    IDCA,
    DominationCountBounds,
    combine_weighted_bounds_arrays,
    domination_count_bounds,
    domination_count_bounds_batch,
    poisson_binomial_pmf,
    regular_gf_bounds,
    ugf_pmf_bounds_batch,
)
from repro.core.generating_functions import UncertainGeneratingFunction
from repro.datasets import random_reference_object, uniform_rectangle_database


def _bound_matrix(rng, num_batches, n):
    """Random consistent bounds with exact 0, exact 1 and lower == upper entries."""
    lower = rng.uniform(0.0, 0.7, size=(num_batches, n))
    upper = np.minimum(lower + rng.uniform(0.0, 0.5, size=(num_batches, n)), 1.0)
    kind = rng.integers(0, 6, size=(num_batches, n))
    lower[kind == 1] = 0.0
    upper[kind == 2] = 1.0
    upper[kind == 3] = lower[kind == 3]
    lower[kind == 4] = 0.0
    upper[kind == 4] = 0.0
    lower[kind == 5] = 1.0
    upper[kind == 5] = 1.0
    return lower, upper


class TestUGFBatchParity:
    @pytest.mark.parametrize("num_batches", [1, 4, 64])
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 13, 30])
    def test_rows_equal_scalar_oracle_bytes(self, num_batches, n):
        rng = np.random.default_rng(1000 * num_batches + n)
        lower, upper = _bound_matrix(rng, num_batches, n)
        for k_cap in (None, 0, 1, 5, n, n + 2):
            batch_lower, batch_upper = ugf_pmf_bounds_batch(lower, upper, k_cap=k_cap)
            for row in range(num_batches):
                ref_lower, ref_upper = UncertainGeneratingFunction(
                    lower[row], upper[row], k_cap=k_cap
                ).pmf_bounds()
                assert batch_lower[row].tobytes() == ref_lower.tobytes()
                assert batch_upper[row].tobytes() == ref_upper.tobytes()

    def test_tolerated_excursions_match_scalar_oracle(self):
        """Entries just outside [0, 1], -0.0 and lower a hair above upper."""
        rng = np.random.default_rng(7)
        lower, upper = _bound_matrix(rng, 12, 8)
        lower[0, :3] = (-1e-13, -0.0, -1e-13)
        upper[1, 2:5] = (1.0 + 1e-13, -0.0, 1.0 + 1e-13)
        lower[1, 3] = -0.0
        upper[2, 1] = lower[2, 1] - 1e-13
        for k_cap in (None, 2):
            batch_lower, batch_upper = ugf_pmf_bounds_batch(lower, upper, k_cap=k_cap)
            for row in range(lower.shape[0]):
                ref_lower, ref_upper = UncertainGeneratingFunction(
                    lower[row], upper[row], k_cap=k_cap
                ).pmf_bounds()
                assert batch_lower[row].tobytes() == ref_lower.tobytes()
                assert batch_upper[row].tobytes() == ref_upper.tobytes()

    def test_results_own_their_memory(self):
        rng = np.random.default_rng(3)
        lower, upper = _bound_matrix(rng, 16, 9)
        for k_cap in (None, 3):
            pmf_lower, pmf_upper = ugf_pmf_bounds_batch(lower, upper, k_cap=k_cap)
            assert pmf_lower.base is None
            assert pmf_upper.base is None


class TestIterationZeroClosedForm:
    def test_matches_expansion_exhaustively(self):
        """All-[0, 1] bounds: the closed form equals the UGF expansion byte for byte."""
        cases = 0
        for complete in range(7):
            for n in range(9):
                for extra in range(4):
                    total = complete + n + extra
                    for k_cap in (None, *range(20)):
                        closed = domination_count_bounds(
                            np.zeros(n), np.ones(n),
                            complete_count=complete, total_objects=total, k_cap=k_cap,
                        )
                        expanded_lower, expanded_upper = domination_count_bounds_batch(
                            np.zeros((1, n)), np.ones((1, n)),
                            complete_count=complete, total_objects=total, k_cap=k_cap,
                        )
                        assert closed.lower.tobytes() == expanded_lower[0].tobytes()
                        assert closed.upper.tobytes() == expanded_upper[0].tobytes()
                        assert closed.k_cap == k_cap
                        cases += 1
        assert cases == 5292

    def test_matches_scalar_ugf(self):
        for n in range(6):
            for k_cap in (None, 0, 2, 5):
                pmf_lower, pmf_upper = UncertainGeneratingFunction(
                    np.zeros(n), np.ones(n), k_cap=k_cap
                ).pmf_bounds()
                closed = domination_count_bounds(np.zeros(n), np.ones(n), k_cap=k_cap)
                top = pmf_lower.shape[0]
                assert closed.lower[:top].tobytes() == pmf_lower.tobytes()
                assert closed.upper[:top].tobytes() == pmf_upper.tobytes()


class TestOwnedAggregates:
    def test_combined_bounds_own_their_memory(self):
        rng = np.random.default_rng(4)
        lower, upper = _bound_matrix(rng, 8, 6)
        pmf_lower, pmf_upper = domination_count_bounds_batch(lower, upper)
        for weights in (np.full(8, 0.125), np.full(8, 0.1)):
            combined = combine_weighted_bounds_arrays(weights, pmf_lower, pmf_upper)
            assert combined.lower.base is None
            assert combined.upper.base is None

    def test_combined_fold_matches_row_loop(self):
        rng = np.random.default_rng(5)
        pmf_lower = rng.uniform(0.0, 0.5, size=(16, 11))
        pmf_upper = pmf_lower + rng.uniform(0.0, 0.5, size=(16, 11))
        pmf_lower[:, 3] = 0.0
        pmf_lower[:, 4] = -0.0
        for weights in (rng.dirichlet(np.ones(16)), rng.uniform(0.0, 0.05, size=16)):
            lower = np.zeros(11)
            upper = np.zeros(11)
            for row in range(16):
                lower += float(weights[row]) * pmf_lower[row]
                upper += float(weights[row]) * pmf_upper[row]
            total = 0.0
            for weight in weights:
                total += float(weight)
            if 1.0 - total > 1e-12:
                upper += 1.0 - total
            upper = np.minimum(upper, 1.0)
            combined = combine_weighted_bounds_arrays(weights, pmf_lower, pmf_upper)
            assert combined.lower.tobytes() == lower.tobytes()
            assert combined.upper.tobytes() == upper.tobytes()

    def test_previous_widths_own_their_memory(self):
        database = uniform_rectangle_database(40, max_extent=0.06, seed=21)
        reference = random_reference_object(extent=0.05, seed=22)
        run = IDCA(database).start_run(0, reference, max_iterations=3)
        while run.step():
            assert run._previous_widths.base is None
            assert run.result.bounds.lower.base is None
            assert run.result.bounds.upper.base is None
        assert run.iteration > 0


class TestNaNProbabilitiesRejected:
    nan = float("nan")

    def test_poisson_binomial(self):
        with pytest.raises(ValueError):
            poisson_binomial_pmf([0.5, self.nan])

    def test_scalar_ugf(self):
        with pytest.raises(ValueError):
            UncertainGeneratingFunction([self.nan, 0.5], [0.5, 0.5])
        with pytest.raises(ValueError):
            UncertainGeneratingFunction([0.5, 0.5], [0.5, self.nan])

    def test_regular_gf_bounds(self):
        with pytest.raises(ValueError):
            regular_gf_bounds([0.2, self.nan], [0.4, 0.6])

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_ugf_batch(self, side):
        lower = np.full((3, 4), 0.2)
        upper = np.full((3, 4), 0.6)
        (lower if side == "lower" else upper)[1, 2] = self.nan
        with pytest.raises(ValueError):
            ugf_pmf_bounds_batch(lower, upper)
        with pytest.raises(ValueError):
            domination_count_bounds_batch(lower, upper)

    def test_domination_count_bounds(self):
        with pytest.raises(ValueError):
            domination_count_bounds([self.nan, 0.5], [0.5, 0.5])
        with pytest.raises(ValueError):
            domination_count_bounds([0.0, 0.0], [1.0, self.nan])

    def test_domination_count_bounds_object(self):
        with pytest.raises(ValueError):
            DominationCountBounds(np.array([self.nan, 0.5]), np.array([0.5, self.nan]))
        with pytest.raises(ValueError):
            DominationCountBounds(np.array([0.1, 0.5]), np.array([0.5, self.nan]))

    def test_combine_weights(self):
        pmf = np.full((2, 3), 0.2)
        with pytest.raises(ValueError):
            combine_weighted_bounds_arrays(np.array([0.5, self.nan]), pmf, pmf)
