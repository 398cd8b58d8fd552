"""Which functions belong to which layer, and the per-layer metrics.

Spans are named ``<layer>:<function>``.  The layer names follow the
modules of ``src/repro``:

=============  ============================================================
layer          wrapped functions
=============  ============================================================
engine         ``engine.engine.QueryEngine`` query methods, ``evaluate_many``
scheduler      ``engine.scheduler.RefinementScheduler.refine``
idca_step      ``core.idca.IDCARun.step``
filter         ``engine.candidates`` R-tree / scan sources,
               ``core.domination.complete_domination_filter``
range_refine   ``queries.range.probability_within_range``
decomposition  ``uncertain.decomposition`` ``materialise``,
               ``partitions_arrays``, ``csr_partitions_batch``
kernel         ``core.kernels.pdom_bounds_csr``
aggregate      ``core.domination_count`` bounds (batch, scalar, combine)
http           ``gateway.http`` ``read_request`` (running slices only),
               ``encode_response``
codec          ``gateway.codec`` decode / key / encode / canonical JSON,
               request-body JSON parsing
=============  ============================================================

The memo lookups inside a refinement step are not wrapped (one call per
column would cost more than the lookup); their time stays in
``idca_step``.  Worker processes are not traced: the service layers are
read from the ``BatchReport`` of each batch instead.
"""

from __future__ import annotations

import time

TIMED_LAYERS = (
    "engine",
    "scheduler",
    "idca_step",
    "filter",
    "range_refine",
    "decomposition",
    "kernel",
    "aggregate",
    "http",
    "codec",
)


def install_engine_tracing(tracer) -> None:
    """Wrap the serial engine's layers (all inside this process)."""
    import repro.core.idca as idca
    import repro.engine.engine as engine_module
    from repro.core.idca import IDCARun
    from repro.engine.candidates import RTreeCandidateSource, ScanCandidateSource
    from repro.engine.engine import QueryEngine
    from repro.engine.scheduler import RefinementScheduler
    from repro.uncertain.decomposition import DecompositionTree

    def count(name, amount_of):
        return lambda args, kwargs, result: tracer.count(name, amount_of(args, result))

    for method in (
        "evaluate_many",
        "knn",
        "rknn",
        "range",
        "ranking",
        "inverse_ranking",
        "domination_count",
    ):
        tracer.wrap(QueryEngine, method, f"engine:{method}")
    tracer.wrap(
        RefinementScheduler,
        "refine",
        "scheduler:refine",
        count("scheduler.steps", lambda args, steps: steps),
    )
    tracer.wrap(IDCARun, "step", "idca_step:step")
    for source in (RTreeCandidateSource, ScanCandidateSource):
        tracer.wrap(
            source,
            "knn_candidates",
            "filter:knn_candidates",
            count("filter.candidates", lambda args, found: len(found)),
        )
        tracer.wrap(
            source,
            "range_classify",
            "filter:range_classify",
            count(
                "filter.candidates",
                lambda args, found: len(found.definite) + len(found.refine),
            ),
        )
    tracer.wrap(
        idca,
        "complete_domination_filter",
        "filter:complete_domination_filter",
        count("filter.influence", lambda args, found: len(found.influence_indices)),
    )
    tracer.wrap(engine_module, "probability_within_range", "range_refine:probability")
    tracer.wrap(DecompositionTree, "materialise", "decomposition:materialise")
    tracer.wrap(DecompositionTree, "partitions_arrays", "decomposition:partitions_arrays")
    tracer.wrap(idca, "csr_partitions_batch", "decomposition:csr_partitions_batch")
    tracer.wrap(
        idca,
        "pdom_bounds_csr",
        "kernel:pdom_bounds_csr",
        count("kernel.columns", lambda args, result: len(args[2]) - 1),
    )
    tracer.wrap(
        idca,
        "domination_count_bounds_batch",
        "aggregate:domination_count_bounds_batch",
        count("aggregate.rows", lambda args, result: len(args[0])),
    )
    tracer.wrap(idca, "domination_count_bounds", "aggregate:domination_count_bounds")
    tracer.wrap(
        idca, "combine_weighted_bounds_arrays", "aggregate:combine_weighted_bounds"
    )


def install_gateway_tracing(tracer) -> None:
    """Wrap the gateway (loop thread) and read the service's batch reports.

    Install only after the service started its workers: a forked worker
    would inherit the wrappers and record spans nobody reads.
    """
    import repro.gateway.server as server
    from repro.engine.service import QueryService

    tracer.wrap_coroutine(server, "read_request", "http:read_request")
    tracer.wrap(server, "encode_response", "http:encode_response")
    for function in (
        "decode_query",
        "decode_mutations",
        "request_key",
        "encode_result",
        "canonical_json",
    ):
        tracer.wrap(server, function, f"codec:{function}")
    tracer.wrap(server.AsyncGateway, "_run_route_checks", "codec:parse_body")

    def on_batch(args, kwargs, batch):
        batch.add_done_callback(_record_batch)

    def _record_batch(batch):
        done = time.perf_counter()
        if batch.exception() is not None:
            return
        report = batch.report()
        compute = max((chunk.seconds for chunk in report.chunks), default=0.0)
        tracer.intervals.append((done - report.elapsed_seconds, done))
        tracer.count("service.batches")
        tracer.count("service.requests", report.num_requests)
        tracer.count("service.wait_s", report.elapsed_seconds - compute)
        tracer.count("service.worker_s", sum(c.seconds for c in report.chunks))
        tracer.count("service.kernel_s", report.kernel_seconds)
        tracer.count("memo.hits", report.pair_bounds_hits)
        tracer.count("memo.misses", report.pair_bounds_misses)
        # callbacks all run on the service's one dispatcher thread
        tracer.counters["memo.trees"] = max(
            [tracer.counters.get("memo.trees", 0)] + [c.trees for c in report.chunks]
        )
        tracer.count("store.hits", report.shared_hits)
        tracer.count("store.misses", report.shared_misses)
        tracer.count("store.publishes", report.shared_publishes)
        tracer.count("store.rejected", report.shared_rejected)
        tracer.count("store.duplicates", report.shared_duplicates)

    def on_mutation(args, kwargs, ticket):
        submitted = time.perf_counter()

        def done(_ticket):
            finished = time.perf_counter()
            tracer.intervals.append((submitted, finished))
            tracer.count("mutation.apply_s", finished - submitted)
            tracer.count("mutation.count")

        ticket.add_done_callback(done)

    tracer.wrap(QueryService, "submit", "service:submit", on_batch)
    tracer.wrap(QueryService, "submit_mutations", "service:submit_mutations", on_mutation)


def union_seconds(intervals) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def layer_metrics(tracer, wall: float, queries: int, memo: dict, extra: dict) -> dict:
    """Every per-layer metric from one traced pass of ``wall`` seconds.

    ``memo`` holds the pair-bounds memo's ``hits``, ``misses`` and
    ``trees`` over the pass; ``extra`` the remaining counters read from
    the program itself and the tracing overhead.
    """
    totals = tracer.totals()
    counters = tracer.counters
    self_seconds = {layer: 0.0 for layer in TIMED_LAYERS}
    calls = {layer: 0 for layer in TIMED_LAYERS}
    for name, (seconds, count) in totals.items():
        layer = name.split(":", 1)[0]
        if layer in self_seconds:
            self_seconds[layer] += seconds
            calls[layer] += count
    metrics = {}
    for layer in TIMED_LAYERS:
        metrics[f"{layer}.self_s"] = self_seconds[layer]
        metrics[f"{layer}.share"] = self_seconds[layer] / wall
    # service and mutation intervals run on other threads and processes;
    # their union is the time the result path spent beyond the loop thread
    service_busy = union_seconds(tracer.intervals)
    attributed = sum(self_seconds.values()) + service_busy
    metrics["service.busy_share"] = service_busy / wall
    metrics["unattributed.share"] = max(0.0, 1.0 - attributed / wall)

    # each work count over the pass, and per query so that passes of
    # different lengths compare
    per_query = 1.0 / max(queries, 1)
    counts = {
        "aggregate.calls": calls["aggregate"],
        "aggregate.rows": counters.get("aggregate.rows", 0),
        "kernel.calls": calls["kernel"],
        "kernel.columns": counters.get("kernel.columns", 0),
        "idca_step.calls": calls["idca_step"],
        "scheduler.steps": counters.get("scheduler.steps", 0),
        "memo.hits": memo["hits"],
        "memo.misses": memo["misses"],
        "store.publishes": counters.get("store.publishes", 0),
    }
    for name, count in counts.items():
        metrics[name] = count
        metrics[f"{name}_per_query"] = count * per_query
    metrics["filter.candidates_per_query"] = counters.get("filter.candidates", 0) * per_query
    filter_runs = totals.get("filter:complete_domination_filter", (0.0, 0))[1]
    metrics["filter.influence_per_run"] = counters.get("filter.influence", 0) / max(
        filter_runs, 1
    )

    batches = counters.get("service.batches", 0)
    metrics["service.batches"] = batches
    metrics["service.requests_per_batch"] = counters.get("service.requests", 0) / max(
        batches, 1
    )
    for name in ("service.wait_s", "service.worker_s", "service.kernel_s"):
        metrics[name] = counters.get(name, 0.0)
    store_hits = counters.get("store.hits", 0)
    store_consulted = store_hits + counters.get("store.misses", 0)
    metrics["store.hit_rate"] = store_hits / store_consulted if store_consulted else 0.0
    for name in ("store.rejected", "store.duplicates"):
        metrics[name] = counters.get(name, 0)
    metrics["mutation.apply_s"] = counters.get("mutation.apply_s", 0.0)
    metrics["mutation.count"] = counters.get("mutation.count", 0)
    metrics["trace.spans"] = tracer.span_count()
    hits, misses = memo["hits"], memo["misses"]
    metrics["memo.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["memo.trees"] = memo["trees"]
    metrics.update(extra)
    return metrics
