"""The two serial engine workloads: ``engine_cold`` and ``engine_warm``.

Both run ``QueryEngine.evaluate_many`` one request at a time, timing each
request, over a seeded box-uniform database with an R-tree candidate
source.  Requests follow the paper's standard workload: a random reference
object, with the object of 10th-smallest MinDist as the target of the
inverse-ranking and domination-count kinds.  Every request gets its own
reference object, so no two requests of the cold stream share a memoised
pair-bounds column.

* ``engine_cold`` builds a fresh engine and streams distinct requests:
  filter, decomposition, pair-bounds kernel and aggregation do all the work.
* ``engine_warm`` warms one engine on a fixed pool during set-up and then
  replays the pool with Zipf-skewed repetition: every column hits the memo,
  so only aggregation and the refinement loop are left.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from repro.datasets import (
    random_reference_object,
    target_by_mindist_rank,
    uniform_rectangle_database,
)
from repro.engine import (
    DominationCountQuery,
    InverseRankingQuery,
    KNNQuery,
    QueryEngine,
    RangeQuery,
    RankingQuery,
    RKNNQuery,
)
from repro.engine.candidates import RTreeCandidateSource
from repro.gateway.codec import canonical_json, encode_result
from repro.geometry import min_dist_arrays
from repro.index import RTree

from common import RunLog, speed_probe, zipf_weights

NUM_OBJECTS = 200
MAX_EXTENT = 0.05
REFERENCE_EXTENT = 0.02
KINDS = ("knn", "rknn", "range", "ranking", "inverse_ranking", "domination_count")
KNN_K = 5
TAU = 0.5
MAX_ITERATIONS = 3
RANGE_EPSILON = 0.1
RANGE_MAX_DEPTH = 4
RANKING_ITERATIONS = 2
RANKING_CANDIDATES = 8  # the objects nearest to the reference by MinDist
RKNN_CANDIDATES = 16
TARGET_RANK = 10
WARM_GROUPS = 48  # warm pool: WARM_GROUPS x len(KINDS) requests
WARM_ZIPF_EXPONENT = 0.3

PARAMETERS = {
    "num_objects": NUM_OBJECTS,
    "max_extent": MAX_EXTENT,
    "reference_extent": REFERENCE_EXTENT,
    "kinds": list(KINDS),
    "knn_k": KNN_K,
    "tau": TAU,
    "max_iterations": MAX_ITERATIONS,
    "range_epsilon": RANGE_EPSILON,
    "range_max_depth": RANGE_MAX_DEPTH,
    "ranking_iterations": RANKING_ITERATIONS,
    "ranking_candidates": RANKING_CANDIDATES,
    "rknn_candidates": RKNN_CANDIDATES,
    "target_rank": TARGET_RANK,
    "candidate_source": "rtree",
    "warm_groups": WARM_GROUPS,
    "warm_zipf_exponent": WARM_ZIPF_EXPONENT,
}


def make_request(kind: str, database, reference):
    """One request of ``kind`` around ``reference``."""
    if kind == "knn":
        return KNNQuery(reference, k=KNN_K, tau=TAU, max_iterations=MAX_ITERATIONS)
    if kind == "range":
        return RangeQuery(
            reference, epsilon=RANGE_EPSILON, tau=TAU, max_depth=RANGE_MAX_DEPTH
        )
    if kind in ("rknn", "ranking"):
        distances = min_dist_arrays(database.mbrs(), reference.mbr.to_array(), 2.0)
        nearest = [int(i) for i in np.argsort(distances, kind="stable")]
        if kind == "rknn":
            return RKNNQuery(
                reference,
                k=KNN_K,
                tau=TAU,
                max_iterations=MAX_ITERATIONS,
                candidate_indices=nearest[:RKNN_CANDIDATES],
            )
        return RankingQuery(
            reference,
            max_iterations=RANKING_ITERATIONS,
            candidate_indices=nearest[:RANKING_CANDIDATES],
        )
    target = target_by_mindist_rank(database, reference, rank=TARGET_RANK)
    if kind == "inverse_ranking":
        return InverseRankingQuery(target, reference, max_iterations=MAX_ITERATIONS)
    return DominationCountQuery(target, reference, max_iterations=MAX_ITERATIONS)


def request_stream(database, rng):
    """Endless stream cycling through the kinds, one new reference each."""
    for number in itertools.count():
        reference = random_reference_object(
            extent=REFERENCE_EXTENT, rng=rng, label=f"reference-{number}"
        )
        yield make_request(KINDS[number % len(KINDS)], database, reference)


def fingerprint(result) -> bytes:
    """Canonical bytes of a result, without wall-clock fields."""
    if hasattr(result, "influence_indices"):  # raw IDCAResult
        return canonical_json(
            {
                "lower": [float(v) for v in result.bounds.lower],
                "upper": [float(v) for v in result.bounds.upper],
                "complete_count": result.complete_count,
                "influence": [int(i) for i in result.influence_indices],
                "pruned": result.pruned_count,
                "decision": result.decision,
                "iterations": result.num_iterations,
            }
        )
    return canonical_json(encode_result(result))


def build_engine(database) -> QueryEngine:
    rtree = RTree(database.mbrs())
    return QueryEngine(database, candidate_source=RTreeCandidateSource(database, rtree))


def run_requests(engine, requests, seconds=None, probe=True) -> RunLog:
    """Evaluate requests one by one until they run out or ``seconds`` pass.

    With ``probe``, a speed probe runs before each request, outside its
    timing.
    """
    log = RunLog()
    clock = time.perf_counter
    start = clock()
    deadline = None if seconds is None else start + seconds
    for request in requests:
        if deadline is not None and clock() >= deadline:
            break
        if probe:
            log.probes.append(speed_probe())
        began = clock()
        try:
            outcome = engine.evaluate_many([request])[0]
        except Exception as error:  # noqa: BLE001 - counted as a failed operation
            outcome = error
        log.latencies.append(clock() - began)
        log.kinds.append(request.kind)
        log.requests.append(request)
        log.outcomes.append(outcome)
    log.wall = clock() - start - sum(log.probes)
    return log


def mismatches(log: RunLog, expected: dict) -> int:
    """Failed outcomes of ``log``, and those whose fingerprint differs from
    ``expected`` (keyed by request id)."""
    return sum(
        isinstance(outcome, Exception) or fingerprint(outcome) != expected.get(id(request))
        for request, outcome in zip(log.requests, log.outcomes)
    )


class _EngineWorkload:
    def __init__(self, seed: int):
        self.seed = seed

    def measure(self, state, seconds=None, requests=None) -> RunLog:
        """One timed pass over the stream, or over ``requests`` when given."""
        source = state["stream"] if requests is None else requests
        return run_requests(state["engine"], source, seconds=seconds)

    def memo_stats(self, state) -> dict:
        return state["engine"].context.stats()

    def coalesce_hits(self, state) -> int:
        return 0

    def close(self, state) -> None:
        pass


class EngineCold(_EngineWorkload):
    name = "engine_cold"

    def setup(self):
        database = uniform_rectangle_database(
            NUM_OBJECTS, max_extent=MAX_EXTENT, seed=self.seed
        )
        engine = build_engine(database)
        stream = request_stream(database, np.random.default_rng([self.seed, 1]))
        return {"database": database, "engine": engine, "stream": stream}

    def reset(self, state) -> None:
        """Back to the state right after set-up: a fresh engine."""
        state["engine"] = build_engine(state["database"])

    def verify(self, state, log: RunLog) -> int:
        """Every result must equal a fresh default engine's.

        The default engine filters with a scan instead of the R-tree, so
        the check also crosses the two candidate-source paths.
        """
        fresh = QueryEngine(state["database"]).evaluate_many(log.requests)
        expected = {id(r): fingerprint(result) for r, result in zip(log.requests, fresh)}
        return mismatches(log, expected)


class EngineWarm(_EngineWorkload):
    name = "engine_warm"

    def setup(self):
        database = uniform_rectangle_database(
            NUM_OBJECTS, max_extent=MAX_EXTENT, seed=self.seed
        )
        engine = build_engine(database)
        stream = request_stream(database, np.random.default_rng([self.seed, 2]))
        pool = list(itertools.islice(stream, WARM_GROUPS * len(KINDS)))
        warmup = run_requests(engine, pool, probe=False)  # timed as set-up
        return {
            "engine": engine,
            "warmup": warmup,
            "stream": self._replay(pool, np.random.default_rng([self.seed, 3])),
        }

    @staticmethod
    def _replay(pool, rng):
        """Zipf-skewed over reference groups; kinds cycle so the mix is fixed."""
        weights = zipf_weights(WARM_GROUPS, WARM_ZIPF_EXPONENT)
        for number in itertools.count():
            group = int(rng.choice(WARM_GROUPS, p=weights))
            yield pool[group * len(KINDS) + number % len(KINDS)]

    def reset(self, state) -> None:
        """Nothing to undo: an all-hit pass leaves the memo unchanged."""

    def verify(self, state, log: RunLog) -> int:
        """Every replay must equal the set-up's warm-up result.

        The warm-up ran on a fresh engine, so its results are a fresh
        serial engine's; ``engine_cold`` checks that cold path against the
        scan source.
        """
        warmup = state["warmup"]
        expected = {
            id(request): fingerprint(outcome)
            for request, outcome in zip(warmup.requests, warmup.outcomes)
            if not isinstance(outcome, Exception)
        }
        return mismatches(warmup, expected) + mismatches(log, expected)
