"""Unit tests of the unified query engine's building blocks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import IDCA, MaxIterations, ThresholdDecision, UncertaintyBelow
from repro.datasets import random_reference_object, uniform_rectangle_database
from repro.engine import (
    KNNQuery,
    QueryEngine,
    RangeQuery,
    RefinementContext,
    RefinementScheduler,
    RTreeCandidateSource,
    ScanCandidateSource,
    make_candidate_source,
)
from repro.index import RTree, exclude_mask, exclude_set, normalize_exclude
from repro.index.scan import knn_candidates as scan_knn_candidates
from repro.queries import probabilistic_knn_threshold
from repro.queries.common import ProbabilisticMatch, ThresholdQueryResult


# object extents large enough that several candidates survive the filter step
# and actually require refinement iterations (exercising trees + pair memo)
@pytest.fixture(scope="module")
def database():
    return uniform_rectangle_database(num_objects=50, max_extent=0.1, seed=5)


@pytest.fixture(scope="module")
def reference():
    return random_reference_object(extent=0.1, seed=13, label="ref")


# --------------------------------------------------------------------- #
# exclude normalisation (index layer)
# --------------------------------------------------------------------- #
class TestNormalizeExclude:
    def test_none(self):
        mask, indices = normalize_exclude(None, 5)
        assert not mask.any()
        assert indices == set()

    def test_iterable_and_set(self):
        mask, indices = normalize_exclude([1, 3], 5)
        assert mask.tolist() == [False, True, False, True, False]
        assert indices == {1, 3}
        mask2, indices2 = normalize_exclude({1, 3}, 5)
        assert np.array_equal(mask, mask2) and indices == indices2

    def test_boolean_mask_round_trip(self):
        source = np.array([True, False, True, False])
        mask, indices = normalize_exclude(source, 4)
        assert np.array_equal(mask, source)
        assert indices == {0, 2}

    def test_out_of_range_positions_ignored(self):
        mask, indices = normalize_exclude([2, 99, -7], 4)
        assert indices == {2}
        assert mask.tolist() == [False, False, True, False]

    def test_wrong_mask_length_raises(self):
        with pytest.raises(ValueError):
            normalize_exclude(np.array([True, False]), 5)

    def test_convenience_wrappers(self):
        assert exclude_mask([0], 2).tolist() == [True, False]
        assert exclude_set(np.array([False, True]), 2) == {1}

    def test_scan_and_rtree_accept_both_forms(self, database, reference):
        mbrs = database.mbrs()
        rtree = RTree(mbrs)
        as_set = {3, 7}
        as_mask = exclude_mask(as_set, len(database))
        scan_set = scan_knn_candidates(mbrs, reference.mbr, 4, exclude=as_set)
        scan_mask = scan_knn_candidates(mbrs, reference.mbr, 4, exclude=as_mask)
        tree_set = rtree.knn_candidates(reference.mbr, 4, exclude=as_set)
        tree_mask = rtree.knn_candidates(reference.mbr, 4, exclude=as_mask)
        assert np.array_equal(scan_set, scan_mask)
        assert np.array_equal(tree_set, tree_mask)


# --------------------------------------------------------------------- #
# candidate sources
# --------------------------------------------------------------------- #
class TestCandidateSources:
    def test_default_source_selection(self, database):
        assert isinstance(make_candidate_source(database), ScanCandidateSource)
        rtree = RTree(database.mbrs())
        source = make_candidate_source(database, rtree)
        assert isinstance(source, RTreeCandidateSource)
        assert source.rtree is rtree

    def test_knn_candidates_agree(self, database, reference):
        scan = ScanCandidateSource(database)
        tree = RTreeCandidateSource(database)
        for k in (1, 3, 8):
            a = scan.knn_candidates(reference.mbr, k, 2.0, None)
            b = tree.knn_candidates(reference.mbr, k, 2.0, None)
            # both are conservative candidate sets; the scan threshold is the
            # exact k-th MaxDist, which the best-first traversal also reaches
            assert np.array_equal(a, b)

    def test_range_classification_agrees(self, database, reference):
        scan = ScanCandidateSource(database)
        tree = RTreeCandidateSource(database)
        for epsilon in (0.05, 0.2, 0.5):
            a = scan.range_classify(reference.mbr, epsilon, 2.0, {2})
            b = tree.range_classify(reference.mbr, epsilon, 2.0, {2})
            assert np.array_equal(np.sort(a.definite), np.sort(b.definite))
            assert np.array_equal(np.sort(a.refine), np.sort(b.refine))
            assert a.pruned == b.pruned

    def test_all_candidates_excludes(self, database):
        scan = ScanCandidateSource(database)
        result = scan.all_candidates({0, 4})
        assert 0 not in result and 4 not in result
        assert result.shape[0] == len(database) - 2


# --------------------------------------------------------------------- #
# shared refinement context
# --------------------------------------------------------------------- #
class TestRefinementContext:
    def test_tree_cache_by_identity(self, database):
        context = RefinementContext(database)
        obj = database[3]
        assert context.tree_for(obj) is context.tree_for(obj)
        assert context.stats()["trees"] == 1

    def test_idca_instances_memoised_per_parameters(self, database):
        context = RefinementContext(database)
        a = context.idca_for(k_cap=2)
        b = context.idca_for(k_cap=2)
        c = context.idca_for(k_cap=3)
        assert a is b and a is not c
        # all instances share the context caches
        assert a._trees is context.tree_cache
        assert c._trees is context.tree_cache

    def test_pair_bounds_cache_records_hits(self, database, reference):
        context = RefinementContext(database)
        engine = QueryEngine(database, context=context)
        engine.knn(reference, k=3, tau=0.5, max_iterations=3)
        first = context.stats()
        assert first["pair_bounds"] > 0
        engine.knn(reference, k=3, tau=0.5, max_iterations=3)
        second = context.stats()
        # the repeated query re-uses every previously computed pair bound
        assert second["pair_bounds_hits"] >= first["pair_bounds"]
        assert second["pair_bounds"] == first["pair_bounds"]

    def test_shared_caches_do_not_change_results(self, database, reference):
        fresh = probabilistic_knn_threshold(database, reference, k=2, tau=0.5)
        context = RefinementContext(database)
        engine = QueryEngine(database, context=context)
        warm_up = engine.knn(reference, k=2, tau=0.5)
        cached = engine.knn(reference, k=2, tau=0.5)
        for a, b in ((fresh, warm_up), (fresh, cached)):
            assert a.result_indices() == b.result_indices()
            assert [m.index for m in a.undecided] == [m.index for m in b.undecided]
            assert [m.index for m in a.rejected] == [m.index for m in b.rejected]


# --------------------------------------------------------------------- #
# incremental IDCA runs + scheduler
# --------------------------------------------------------------------- #
class TestIncrementalRuns:
    def test_stepwise_equals_monolithic(self, database, reference):
        idca_a = IDCA(database)
        idca_b = IDCA(database)
        monolithic = idca_a.domination_count(
            0, reference, stop=MaxIterations(4), max_iterations=4
        )
        run = idca_b.start_run(0, reference, stop=MaxIterations(4), max_iterations=4)
        steps = 0
        while run.step():
            steps += 1
        assert steps == monolithic.num_iterations
        assert np.allclose(run.result.bounds.lower, monolithic.bounds.lower)
        assert np.allclose(run.result.bounds.upper, monolithic.bounds.upper)
        assert run.result.complete_count == monolithic.complete_count

    def test_finished_run_refuses_steps(self, database, reference):
        idca = IDCA(database)
        run = idca.start_run(0, reference, max_iterations=0)
        assert run.finished
        assert run.step() is False

    def test_threshold_run_decides(self, database, reference):
        idca = IDCA(database, k_cap=2)
        stop = ThresholdDecision(k=2, tau=0.5)
        run = idca.start_run(0, reference, stop=stop, max_iterations=10)
        result = run.run()
        assert result.decision is stop.decision

    def test_scheduler_prioritises_widest_bounds(self, database, reference):
        idca = IDCA(database)
        runs = [
            idca.start_run(i, reference, stop=UncertaintyBelow(0.2), max_iterations=5)
            for i in range(6)
        ]
        stepped: list[float] = []

        def priority(run):
            value = run.result.bounds.uncertainty()
            stepped.append(value)
            return value

        RefinementScheduler().refine(runs, priority)
        for run in runs:
            assert run.finished

    def test_global_budget_caps_total_iterations(self, database, reference):
        idca = IDCA(database)
        runs = [
            idca.start_run(i, reference, stop=UncertaintyBelow(0.0), max_iterations=4)
            for i in range(5)
        ]
        scheduler = RefinementScheduler(global_iteration_budget=3)
        steps = scheduler.refine(runs, lambda run: run.result.bounds.uncertainty())
        assert steps <= 3
        assert sum(run.iteration for run in runs) == steps

    def test_on_finished_called_once_per_run(self, database, reference):
        idca = IDCA(database)
        runs = [
            idca.start_run(i, reference, stop=UncertaintyBelow(0.3), max_iterations=4)
            for i in range(4)
        ]
        pending = [run for run in runs if not run.finished]
        finished = []
        RefinementScheduler().refine(
            runs, lambda run: run.result.bounds.uncertainty(), on_finished=finished.append
        )
        assert sorted(map(id, finished)) == sorted(map(id, pending))


# --------------------------------------------------------------------- #
# engine-level behaviour
# --------------------------------------------------------------------- #
class TestQueryEngine:
    def test_evaluate_many_matches_individual_calls(self, database, reference):
        engine = QueryEngine(database)
        batch = engine.evaluate_many(
            [
                KNNQuery(reference, k=2, tau=0.5, max_iterations=4),
                RangeQuery(reference, epsilon=0.25, tau=0.5, max_depth=3),
            ]
        )
        single_engine = QueryEngine(database)
        singles = [
            single_engine.knn(reference, k=2, tau=0.5, max_iterations=4),
            single_engine.range(reference, epsilon=0.25, tau=0.5, max_depth=3),
        ]
        for got, want in zip(batch, singles):
            assert got.result_indices() == want.result_indices()
            assert got.pruned == want.pruned

    def test_global_budget_leaves_candidates_undecided(self, database, reference):
        unconstrained = QueryEngine(database).knn(
            reference, k=3, tau=0.5, max_iterations=6
        )
        budget = QueryEngine(
            database, scheduler=RefinementScheduler(global_iteration_budget=0)
        ).knn(reference, k=3, tau=0.5, max_iterations=6)
        assert budget.candidate_count() == unconstrained.candidate_count()
        # with zero refinement budget nothing beyond the filter step can decide
        total_iterations = sum(m.iterations for m in budget.all_evaluated())
        assert total_iterations == 0

    def test_sequence_numbers_record_evaluation_order(self, database, reference):
        result = QueryEngine(database).knn(reference, k=3, tau=0.5, max_iterations=6)
        evaluated = result.all_evaluated()
        sequences = [m.sequence for m in evaluated]
        assert sequences == sorted(sequences)
        assert sorted(sequences) == list(range(len(evaluated)))

    def test_all_evaluated_backwards_compatible_without_sequences(self):
        result = ThresholdQueryResult(k=1, tau=0.5)
        a = ProbabilisticMatch(0, 0.9, 1.0, True, 1)
        b = ProbabilisticMatch(1, 0.1, 0.6, None, 2)
        result.matches.append(a)
        result.undecided.append(b)
        assert result.all_evaluated() == [a, b]

    def test_supplied_idca_is_validated(self, database, reference):
        engine = QueryEngine(database)
        truncated = IDCA(database, k_cap=1)
        with pytest.raises(ValueError):
            engine.knn(reference, k=3, tau=0.5, idca=truncated)
        with pytest.raises(ValueError):
            engine.ranking(reference, idca=truncated)


class TestNormParameter:
    """``p`` is checked once at construction; NaN must not slip through."""

    @pytest.mark.parametrize("p", [float("nan"), 0.5, 0.0, -2.0])
    def test_invalid_p_rejected_at_construction(self, p):
        database = uniform_rectangle_database(30, max_extent=0.05, seed=1)
        with pytest.raises(ValueError, match="p >= 1"):
            QueryEngine(database, p=p)
        with pytest.raises(ValueError, match="p >= 1"):
            IDCA(database, p=p)

    def test_infinite_p_still_answers_range_queries(self):
        database = uniform_rectangle_database(30, max_extent=0.05, seed=1)
        query = random_reference_object(extent=0.02, seed=2)
        IDCA(database, p=float("inf"))
        result = QueryEngine(database, p=float("inf")).range(query, 0.2, 0.5)
        assert result.candidate_count() > 0
