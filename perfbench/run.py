"""Seeded end-to-end benchmark of the IDCA engine, service and gateway.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload engine_cold --seed 1 --seconds 18 --trace 0

``--trace 0`` sets the workload up several times (the median, scaled to
the reference machine speed, is ``setup_s``), runs it for ``--seconds``,
checks every answer against a fresh serial engine outside the timed region
and reports the end-to-end metrics.  ``--trace 1`` runs the same stream
once untraced and then replays exactly those operations from the same
starting state with span tracing on; it reports the per-layer split and
the tracing overhead (traced wall over untraced wall).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a full report with the environment goes to
``perfbench/out/``.  ``perfbench/METRICS.md`` says what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
from multiprocessing import resource_tracker
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
if not (SOURCE / "repro" / "__init__.py").is_file():
    sys.exit(f"perfbench: no program to measure at {SOURCE / 'repro'}")
sys.path[:0] = [str(SOURCE), str(HERE)]

from common import (  # noqa: E402
    PROBE_REFERENCE_S,
    environment,
    peak_rss_mb,
    percentile_ms,
    speed_factor,
    speed_probe,
    tail_percentile,
)
from engine_workloads import PARAMETERS as ENGINE_PARAMETERS  # noqa: E402
from engine_workloads import EngineCold, EngineWarm  # noqa: E402
from gateway_workload import PARAMETERS as GATEWAY_PARAMETERS  # noqa: E402
from gateway_workload import GatewayRW  # noqa: E402
from layers import (  # noqa: E402
    TIMED_LAYERS,
    install_engine_tracing,
    install_gateway_tracing,
    layer_metrics,
)
from spans import Tracer  # noqa: E402

WORKLOADS = {
    "engine_cold": (EngineCold, ENGINE_PARAMETERS, install_engine_tracing),
    "engine_warm": (EngineWarm, ENGINE_PARAMETERS, install_engine_tracing),
    "gateway_rw": (GatewayRW, GATEWAY_PARAMETERS, install_gateway_tracing),
}
# set up at least this many times, more while they take under two seconds
SETUP_REPEATS = (3, 25)
SETUP_MIN_SECONDS = 2.0
SETUP_PROBES = 8  # speed probes before and after each set-up

# ``*_at_ref``: wall-clock figures scaled by the speed probe to the
# reference machine speed (see ``common.speed_probe``)
END_TO_END_UNITS = {
    "throughput_qps_at_ref": "1/s",
    "query_p90_ms_at_ref": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# printed for reading, not gated: raw wall-clock figures drift with the
# machine, and the p50/p99/mutation figures do not exist on every workload
REPORTED_UNITS = {
    "throughput_qps": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "query_p99_ms": "ms",
    "query_tail_percentile": "percentile",
    "query_tail_ms": "ms",
    "query_samples": "count",
    "mutate_p50_ms": "ms",
    "mutate_samples": "count",
    "error_rate": "fraction",
    "speed_factor": "ratio",
    "setup_s_raw": "s",
}
PER_LAYER_UNITS = {
    **{
        f"{layer}.{suffix}": unit
        for layer in TIMED_LAYERS
        for suffix, unit in (("self_s", "s"), ("share", "fraction"))
    },
    **{
        name: unit
        for count in (
            "aggregate.calls", "aggregate.rows", "kernel.calls", "kernel.columns",
            "idca_step.calls", "scheduler.steps", "memo.hits", "memo.misses",
            "store.publishes",
        )
        for name, unit in ((count, "count"), (f"{count}_per_query", "count/query"))
    },
    "filter.candidates_per_query": "count/query",
    "filter.influence_per_run": "count/run",
    "memo.hit_rate": "fraction",
    "memo.trees": "count",
    "coalesce.hit_rate": "fraction",
    "service.batches": "count",
    "service.requests_per_batch": "count/batch",
    "service.wait_s": "s",
    "service.worker_s": "s",
    "service.kernel_s": "s",
    "service.busy_share": "fraction",
    "store.hit_rate": "fraction",
    "store.rejected": "count",
    "store.duplicates": "count",
    "mutation.apply_s": "s",
    "mutation.count": "count",
    "unattributed.share": "fraction",
    "trace.overhead": "ratio",
    "trace.spans": "count",
}


def query_latencies(log) -> list:
    return [lat for lat, kind in zip(log.latencies, log.kinds) if kind != "mutate"]


def latency_summary(log) -> dict:
    """Percentiles from the client's raw per-request samples."""
    queries = query_latencies(log)
    mutations = [lat for lat, kind in zip(log.latencies, log.kinds) if kind == "mutate"]
    tail = tail_percentile(len(queries))
    return {
        "query_samples": len(queries),
        "query_p50_ms": percentile_ms(queries, 50),
        "query_p90_ms": percentile_ms(queries, 90),
        "query_p99_ms": percentile_ms(queries, 99),
        "query_tail_percentile": tail,
        "query_tail_ms": percentile_ms(queries, tail),
        "mutate_samples": len(mutations),
        "mutate_p50_ms": percentile_ms(mutations, 50),
    }


def measured_run(workload, seconds: float) -> dict:
    setup_times, setup_factors = [], []
    state = None
    least, most = SETUP_REPEATS
    while len(setup_times) < most and (
        len(setup_times) < least or sum(setup_times) < SETUP_MIN_SECONDS
    ):
        if state is not None:
            workload.close(state)
            state = None  # never hold two set-ups at once: it would count in peak_rss_mb
            gc.collect()
        # the first probe after freeing a set-up pays for fresh memory pages
        speed_probe()
        probes = [speed_probe() for _ in range(SETUP_PROBES)]
        began = time.perf_counter()
        state = workload.setup()
        setup_times.append(time.perf_counter() - began)
        probes.extend(speed_probe() for _ in range(SETUP_PROBES))
        setup_factors.append(speed_factor(probes))
    gc.collect()
    try:
        log = workload.measure(state, seconds=seconds)
        rss_mb = peak_rss_mb()  # before the check, which builds engines of its own
        failed = workload.verify(state, log)
    finally:
        workload.close(state)
    queries = query_latencies(log)
    throughput = len(queries) / log.wall
    p90_ms = float(np.percentile(np.asarray(queries) * 1000.0, 90))
    factor = speed_factor(log.probes)
    setup_s = statistics.median(setup_times)
    setup_s_at_ref = statistics.median(
        took / factor for took, factor in zip(setup_times, setup_factors)
    )
    metrics = {
        "throughput_qps_at_ref": throughput * factor,
        "query_p90_ms_at_ref": p90_ms / factor,
        "setup_s": setup_s_at_ref,
        "peak_rss_mb": rss_mb,
    }
    reported = {
        "throughput_qps": throughput,
        **latency_summary(log),
        "error_rate": failed / len(log.latencies),
        "speed_factor": factor,
        "setup_s_raw": setup_s,
    }
    return {
        "attempted": len(log.latencies),
        "failed": failed,
        "metrics": metrics,
        "reported": reported,
        "details": {
            "wall_s": log.wall,
            "setup_times_s": setup_times,
            "probe_reference_s": PROBE_REFERENCE_S,
            "probe_samples": len(log.probes),
            "probe_mean_s": float(np.mean(log.probes)),
        },
    }


def traced_run(workload, install, seconds: float, spans_path: Path) -> dict:
    state = workload.setup()
    try:
        untraced = workload.measure(state, seconds=seconds)
        workload.reset(state)
        gc.collect()
        tracer = Tracer()
        install(tracer)
        memo_before = workload.memo_stats(state)
        coalesce_before = workload.coalesce_hits(state)
        try:
            log = workload.measure(state, requests=untraced.requests)
        finally:
            tracer.uninstall()
        memo_after = workload.memo_stats(state)
        coalesce_hits = workload.coalesce_hits(state) - coalesce_before
        failed = workload.verify(state, log)
    finally:
        workload.close(state)
    queries = len(query_latencies(log))
    if memo_after is None:  # the workers' memo, from the batch reports
        hits = tracer.counters.get("memo.hits", 0)
        misses = tracer.counters.get("memo.misses", 0)
        trees = tracer.counters.get("memo.trees", 0)
    else:
        hits = memo_after["pair_bounds_hits"] - memo_before["pair_bounds_hits"]
        misses = memo_after["pair_bounds_misses"] - memo_before["pair_bounds_misses"]
        trees = memo_after["trees"]
    memo = {"hits": hits, "misses": misses, "trees": trees}
    extra = {
        "coalesce.hit_rate": coalesce_hits / max(queries, 1),
        # both passes at the reference speed, so machine drift between
        # them does not read as tracing cost
        "trace.overhead": (log.wall / speed_factor(log.probes))
        / (untraced.wall / speed_factor(untraced.probes)),
    }
    metrics = layer_metrics(tracer, log.wall, queries, memo, extra)
    tracer.write(str(spans_path))
    return {
        "attempted": len(log.latencies),
        "failed": failed,
        "metrics": metrics,
        "details": {
            "traced_wall_s": log.wall,
            "untraced_wall_s": untraced.wall,
            "spans_file": str(spans_path.relative_to(HERE.parent)),
            "span_totals": {
                name: {"self_s": seconds, "calls": calls}
                for name, (seconds, calls) in sorted(tracer.totals().items())
            },
            "amdahl_ceiling": {
                name[: -len(".share")]: 1.0 / max(1.0 - share, 1e-9)
                for name, share in metrics.items()
                if name.endswith(".share") and name != "unattributed.share" and share > 0
            },
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    factory, parameters, install = WORKLOADS[args.workload]
    workload = factory(args.seed)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            outcome = traced_run(workload, install, args.seconds, out / f"{stem}.spans.tsv")
            units = PER_LAYER_UNITS
        else:
            outcome = measured_run(workload, args.seconds)
            units = END_TO_END_UNITS
    finally:
        # the shared-memory transport starts multiprocessing's tracker
        # process; stop it and wait for it, as for every other process
        resource_tracker._resource_tracker._stop()
    env = environment(args.seed, args.workload, parameters)
    report = {"environment": env, "seconds": args.seconds, "trace": args.trace, **outcome}
    (out / f"{stem}.json").write_text(json.dumps(report, indent=1, default=float) + "\n")

    print(json.dumps({"environment": env}))
    for name, value in {**outcome["metrics"], **outcome.get("reported", {})}.items():
        unit = units.get(name) or REPORTED_UNITS.get(name, "")
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{args.workload} {name} = {shown} {unit}")
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": float(outcome["metrics"][name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
