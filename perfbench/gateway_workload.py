"""The HTTP workload ``gateway_rw``: reads and writes over real sockets.

A ``GatewayServer`` fronts a ``QueryService`` with one worker per CPU (at
most two) and the shared bounds store at its default.  A closed-loop client
in this process keeps one request in flight per connection (one connection
per worker).  Queries are drawn from a Zipf-skewed pool of documents, so
coalescing and the shared store have repeats to serve; the two connections
take the same query kind at a time, which lets concurrent duplicates meet.
Every ``MUTATE_EVERY``-th operation is a ``/v1/mutate`` update sent at a
barrier, when no query is in flight, so the snapshot epoch of every query
is known and its answer can be checked against a serial engine on that
snapshot.  Standing range queries registered during set-up make every
mutation run the standing-query refresh as well (skip, patch or
re-evaluate each).  Every ``PROBE_EVERY`` queries the client also waits
until nothing is in flight and runs the speed probes, so the probes follow
the machine's drift through the run.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import time
import urllib.request
from collections import defaultdict, deque

import numpy as np

from repro.datasets import (
    random_reference_object,
    target_by_mindist_rank,
    uniform_rectangle_database,
)
from repro.engine import ExecutorConfig, QueryEngine, QueryService
from repro.gateway import GatewayServer
from repro.gateway.codec import canonical_json, decode_query, encode_result
from repro.geometry import min_dist_arrays

import engine_workloads as ew
from common import RunLog, speed_probe, zipf_weights

NUM_OBJECTS = 150
KINDS = ("knn", "rknn", "range", "ranking", "inverse_ranking")
GROUPS = 200  # query pool: GROUPS x len(KINDS) documents
ZIPF_EXPONENT = 0.5
MUTATE_EVERY = 30
# (kind, group).  Range queries only: the gateway re-evaluates a rank-based
# standing query on every mutation, and the cost of one kNN query varies
# threefold between seeds, which made set-up time swing with the seed
STANDING = (("range", 0), ("range", 1), ("range", 2))
WORKERS = max(1, min(2, len(os.sched_getaffinity(0))))
PROBES_PER_BARRIER = 16  # speed probes while nothing is in flight
PROBE_EVERY = 10  # queries between probe barriers
# lighter than the engine workloads: HTTP requests should be short, and
# reverse kNN over many candidates would dominate the latency tail alone
KNN_K = 3
MAX_ITERATIONS = 3
RKNN_CANDIDATES = 8

PARAMETERS = {
    "num_objects": NUM_OBJECTS,
    "max_extent": ew.MAX_EXTENT,
    "reference_extent": ew.REFERENCE_EXTENT,
    "kinds": list(KINDS),
    "pool_groups": GROUPS,
    "zipf_exponent": ZIPF_EXPONENT,
    "mutate_every": MUTATE_EVERY,
    "standing_queries": [kind for kind, _ in STANDING],
    "workers": WORKERS,
    "connections": WORKERS,
    "shared_bounds": "default",
    "knn_k": KNN_K,
    "max_iterations": MAX_ITERATIONS,
    "rknn_candidates": RKNN_CANDIDATES,
    "other_query_parameters": "as engine_cold",
}


def box_literal(rectangle) -> dict:
    bounds = rectangle.to_array()
    return {"box": {"lower": bounds[:, 0].tolist(), "upper": bounds[:, 1].tolist()}}


def query_document(kind: str, database, reference) -> dict:
    """The HTTP form of ``engine_workloads.make_request``."""
    box = box_literal(reference.mbr)
    if kind == "knn":
        return {"type": "knn", "query": box, "k": KNN_K, "tau": ew.TAU,
                "max_iterations": MAX_ITERATIONS}
    if kind == "range":
        return {"type": "range", "query": box, "epsilon": ew.RANGE_EPSILON,
                "tau": ew.TAU, "max_depth": ew.RANGE_MAX_DEPTH}
    if kind in ("rknn", "ranking"):
        distances = min_dist_arrays(database.mbrs(), reference.mbr.to_array(), 2.0)
        nearest = [int(i) for i in np.argsort(distances, kind="stable")]
        if kind == "rknn":
            return {"type": "rknn", "query": box, "k": KNN_K, "tau": ew.TAU,
                    "max_iterations": MAX_ITERATIONS,
                    "candidate_indices": nearest[:RKNN_CANDIDATES]}
        return {"type": "ranking", "query": box,
                "max_iterations": ew.RANKING_ITERATIONS,
                "candidate_indices": nearest[: ew.RANKING_CANDIDATES]}
    target = target_by_mindist_rank(database, reference, rank=ew.TARGET_RANK)
    return {"type": "inverse_ranking", "target": target, "reference": box,
            "max_iterations": MAX_ITERATIONS}


class Op:
    """One client operation: a query document or a mutation."""

    __slots__ = ("path", "document", "body")

    def __init__(self, path: str, document: dict):
        self.path = path
        self.document = document
        self.body = json.dumps(document).encode()

    @property
    def kind(self) -> str:
        return "mutate" if self.path == "/v1/mutate" else self.document["type"]


def operation_stream(database, pool, rng):
    """Endless seeded op stream: Zipf queries with a mutation every N-th op."""
    weights = zipf_weights(GROUPS, ZIPF_EXPONENT)
    for number in itertools.count(1):
        if number % MUTATE_EVERY == 0:
            center = rng.uniform(0.0, 1.0, size=database.dimensions)
            extent = rng.uniform(0.0, ew.MAX_EXTENT, size=database.dimensions)
            obj = {"box": {"lower": (center - extent / 2).tolist(),
                           "upper": (center + extent / 2).tolist()}}
            position = int(rng.integers(0, NUM_OBJECTS))
            yield Op("/v1/mutate", {"mutations": [
                {"op": "update", "position": position, "object": obj}]})
            continue
        # both connections take the same kind, so duplicates can coalesce
        kind_index = (number // WORKERS) % len(KINDS)
        group = int(rng.choice(GROUPS, p=weights))
        yield pool[group * len(KINDS) + kind_index]


async def _exchange(reader, writer, path: str, body: bytes) -> tuple[int, bytes]:
    writer.write(
        b"POST %s HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
        b"Content-Length: %d\r\n\r\n%s" % (path.encode(), len(body), body)
    )
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, await reader.readexactly(length)


async def _drive(state, ops, seconds, log: RunLog) -> None:
    """Closed loop over ``ops`` until they run out or ``seconds`` pass."""
    host, port = state["server"].address
    connections = [await asyncio.open_connection(host, port) for _ in range(WORKERS)]
    clock = time.perf_counter
    deadline = None if seconds is None else clock() + seconds
    epoch = state["service"].epoch
    ops = iter(ops)

    def expired() -> bool:
        return deadline is not None and clock() >= deadline

    def record(op, began, status, body, at_epoch):
        log.latencies.append(clock() - began)
        log.kinds.append(op.kind)
        log.requests.append(op)
        log.outcomes.append((status, body, at_epoch))

    async def client(reader, writer, queue):
        while queue and not expired():
            op = queue.popleft()
            began = clock()
            status, body = await _exchange(reader, writer, op.path, op.body)
            record(op, began, status, body, epoch)

    start = clock()
    try:
        while not expired():
            log.probes.extend(speed_probe() for _ in range(PROBES_PER_BARRIER))
            queue, mutation, exhausted = deque(), None, True
            for op in ops:
                if op.path == "/v1/mutate":
                    mutation, exhausted = op, False
                    break
                queue.append(op)
                if len(queue) == PROBE_EVERY:
                    exhausted = False
                    break
            await asyncio.gather(*(client(r, w, queue) for r, w in connections))
            if exhausted or expired():
                break
            if mutation is None:
                continue
            # the barrier: every query of this epoch has answered
            began = clock()
            reader, writer = connections[0]
            status, body = await _exchange(reader, writer, mutation.path, mutation.body)
            record(mutation, began, status, body, epoch)
            if status != 200:
                break
            epoch = json.loads(body)["epoch"]
            state["snapshots"][epoch] = state["service"].engine.database
        log.wall = clock() - start - sum(log.probes)
    finally:
        for _, writer in connections:
            writer.close()
            await writer.wait_closed()


class GatewayRW:
    name = "gateway_rw"

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        database = uniform_rectangle_database(
            NUM_OBJECTS, max_extent=ew.MAX_EXTENT, seed=self.seed
        )
        rng = np.random.default_rng([self.seed, 4])
        pool = [
            Op("/v1/query", query_document(kind, database, random_reference_object(
                extent=ew.REFERENCE_EXTENT, rng=rng)))
            for _ in range(GROUPS)
            for kind in KINDS
        ]
        service = QueryService(QueryEngine(database), ExecutorConfig(workers=WORKERS))
        try:
            server = GatewayServer(service)
        except BaseException:
            service.close()
            raise
        state = {
            "service": service,
            "server": server,
            "pool": pool,
            "snapshots": {service.epoch: database},
            "standing": [],
        }
        try:
            asyncio.run(self._register_standing(state))
        except BaseException:
            self.close(state)
            raise
        state["stream"] = operation_stream(database, pool, rng)
        return state

    async def _register_standing(self, state) -> None:
        host, port = state["server"].address
        reader, writer = await asyncio.open_connection(host, port)
        try:
            for kind, group in STANDING:
                document = state["pool"][group * len(KINDS) + KINDS.index(kind)].document
                status, body = await _exchange(
                    reader, writer, "/v1/standing", json.dumps({"query": document}).encode()
                )
                if status != 200:
                    raise RuntimeError(f"standing registration failed: {status} {body!r}")
                state["standing"].append((json.loads(body)["id"], document))
        finally:
            writer.close()
            await writer.wait_closed()

    def reset(self, state) -> None:
        """Back to the state right after set-up: a fresh stack."""
        self.close(state)
        state.clear()
        state.update(self.setup())

    def measure(self, state, seconds=None, requests=None) -> RunLog:
        """One timed pass over the stream, or over ``requests`` when given."""
        log = RunLog()
        asyncio.run(_drive(state, state["stream"] if requests is None else requests,
                           seconds, log))
        return log

    def memo_stats(self, state) -> None:
        """Worker memo counters arrive through the batch reports instead."""
        return None

    def coalesce_hits(self, state) -> int:
        return state["server"].metrics()["coalesce_hits"]

    def verify(self, state, log: RunLog) -> int:
        """Failed or wrong responses, against serial engines per snapshot."""
        by_epoch = defaultdict(dict)
        for op, (status, _body, epoch) in zip(log.requests, log.outcomes):
            if op.path == "/v1/query" and status == 200:
                by_epoch[epoch].setdefault(op.body, op.document)
        expected = {}
        for epoch, documents in by_epoch.items():
            snapshot = state["snapshots"][epoch]
            requests = [decode_query(document, snapshot) for document in documents.values()]
            results = QueryEngine(snapshot).evaluate_many(requests)
            for body, result in zip(documents, results):
                expected[epoch, body] = (
                    b'{"result":' + canonical_json(encode_result(result)) + b"}"
                )
        failed = 0
        previous = state["service"].epoch - sum(1 for k in log.kinds if k == "mutate")
        for op, (status, body, epoch) in zip(log.requests, log.outcomes):
            if status != 200:
                failed += 1
            elif op.path == "/v1/query":
                failed += body != expected[epoch, op.body]
            else:
                previous += 1
                failed += json.loads(body)["epoch"] != previous
        return failed + self._verify_standing(state)

    @staticmethod
    def _verify_standing(state) -> int:
        """Standing results must equal a serial evaluation at the last epoch."""
        snapshot = state["service"].engine.database
        failed = 0
        for standing_id, document in state["standing"]:
            with urllib.request.urlopen(f"{state['server'].url}/v1/standing/{standing_id}") as reply:
                stored = json.loads(reply.read())
            result = QueryEngine(snapshot).evaluate_many([decode_query(document, snapshot)])[0]
            failed += (
                stored.get("epoch") != snapshot.epoch
                or canonical_json(stored.get("result")) != canonical_json(encode_result(result))
            )
        return failed

    def close(self, state) -> None:
        server, service = state.get("server"), state.get("service")
        try:
            if server is not None:
                server.close()
        finally:
            if service is not None:
                service.close()
