"""QueryService serving layer: batching, matrix queries, metrics."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.bench.reporting import format_kv_table
from repro.bench.workloads import chunked, random_query_pairs
from repro.core.base import build_index
from repro.core.service import QueryService, ServiceMetrics
from repro.exceptions import QueryError
from repro.graph.generators import random_dag, single_rooted_dag

VECTOR_SCHEME = "dual-i"      # serves through a label-array kernel
FALLBACK_SCHEME = "2hop"      # no kernel: scalar reachable_many path


@pytest.fixture(scope="module")
def graph():
    return random_dag(60, 90, seed=11)


@pytest.fixture(scope="module")
def vector_index(graph):
    return build_index(graph, scheme=VECTOR_SCHEME)


@pytest.fixture(scope="module")
def fallback_index(graph):
    return build_index(graph, scheme=FALLBACK_SCHEME)


@pytest.fixture(scope="module")
def workload(graph):
    return random_query_pairs(graph, 500, seed=5)


@pytest.fixture(scope="module")
def expected(vector_index, workload):
    reach = vector_index.reachable
    return [reach(u, v) for u, v in workload]


class TestQueryBatch:
    def test_empty_batch(self, vector_index):
        with QueryService(vector_index) as service:
            assert service.query_batch([]) == []
            assert service.metrics.batches == 1
            assert service.metrics.queries == 0

    def test_matches_scalar_loop(self, vector_index, workload, expected):
        with QueryService(vector_index) as service:
            assert service.query_batch(workload) == expected

    def test_fallback_matches_scalar_loop(self, fallback_index, workload,
                                          expected):
        with QueryService(fallback_index) as service:
            assert not service.vectorised
            assert service.query_batch(workload) == expected
            assert service.metrics.scalar_queries == len(workload)
            assert service.metrics.kernel_queries == 0

    def test_duplicate_pairs(self, vector_index):
        pairs = [(0, 7), (0, 7), (7, 0), (0, 7)]
        with QueryService(vector_index) as service:
            answers = service.query_batch(pairs)
        assert answers[0] == answers[1] == answers[3]

    def test_self_pairs_reflexive(self, vector_index, graph):
        pairs = [(u, u) for u in list(graph.nodes())[:10]]
        with QueryService(vector_index) as service:
            assert service.query_batch(pairs) == [True] * len(pairs)

    @pytest.mark.parametrize("scheme", [VECTOR_SCHEME, FALLBACK_SCHEME])
    def test_unknown_node_raises(self, graph, scheme):
        index = build_index(graph, scheme=scheme)
        with QueryService(index) as service:
            with pytest.raises(QueryError):
                service.query_batch([(0, 1), (0, 10_000)])
            with pytest.raises(QueryError):
                service.query_batch([("ghost", 0)])

    def test_single_query_endpoint(self, vector_index, expected, workload):
        with QueryService(vector_index) as service:
            u, v = workload[0]
            assert service.query(u, v) == expected[0]
            assert service.metrics.queries == 1


class TestQueryMatrix:
    def test_matrix_matches_scalar(self, vector_index, graph):
        nodes = list(graph.nodes())
        sources, targets = nodes[:8], nodes[8:20]
        with QueryService(vector_index) as service:
            matrix = service.query_matrix(sources, targets)
        assert matrix.shape == (8, 12)
        reach = vector_index.reachable
        for i, u in enumerate(sources):
            for j, v in enumerate(targets):
                assert matrix[i, j] == reach(u, v)

    def test_matrix_scalar_fallback(self, fallback_index, vector_index,
                                    graph):
        nodes = list(graph.nodes())[:6]
        with QueryService(fallback_index) as scalar_service, \
                QueryService(vector_index) as vector_service:
            assert np.array_equal(
                scalar_service.query_matrix(nodes, nodes),
                vector_service.query_matrix(nodes, nodes))

    @pytest.mark.parametrize("scheme", [VECTOR_SCHEME, FALLBACK_SCHEME])
    def test_matrix_unknown_node_raises(self, graph, scheme):
        index = build_index(graph, scheme=scheme)
        with QueryService(index) as service:
            with pytest.raises(QueryError):
                service.query_matrix([0, 10_000], [1])


class TestMetrics:
    def test_counters_and_timers(self, vector_index, workload):
        with QueryService(vector_index) as service:
            for batch in chunked(workload, 128):
                service.query_batch(batch)
            metrics = service.metrics
            assert metrics.queries == len(workload)
            assert metrics.batches == len(list(chunked(workload, 128)))
            assert metrics.kernel_queries == len(workload)
            assert metrics.positives == sum(
                vector_index.reachable_many(workload))
            assert metrics.queries_per_second > 0
            assert metrics.stage_seconds["total"] >= \
                metrics.stage_seconds["kernel"]

    def test_as_dict_keys_and_kv_table(self, vector_index, workload):
        with QueryService(vector_index) as service:
            service.query_batch(workload)
            row = service.metrics.as_dict()
        for key in ("queries", "batches", "positives", "kernel_queries",
                    "scalar_queries", "queries_per_second",
                    "seconds_kernel", "seconds_map", "seconds_total"):
            assert key in row, key
        table = format_kv_table(row, title="serve report")
        assert "### serve report" in table
        assert "| queries |" in table.replace("  ", " ")

    def test_fresh_metrics_are_zero(self):
        metrics = ServiceMetrics()
        assert metrics.queries_per_second == 0.0

    def test_uptime_advances(self):
        metrics = ServiceMetrics()
        time.sleep(0.01)
        first = metrics.uptime_seconds
        assert first >= 0.01
        time.sleep(0.005)
        assert metrics.uptime_seconds > first
        assert metrics.as_dict()["uptime_seconds"] > first

    def test_reset_zeroes_counters_and_restarts_uptime(self,
                                                       vector_index,
                                                       workload):
        with QueryService(vector_index) as service:
            service.query_batch(workload)
            metrics = service.metrics
            assert metrics.queries > 0
            time.sleep(0.01)
            uptime_before = metrics.uptime_seconds
            metrics.reset()
            assert metrics.queries == 0
            assert metrics.batches == 0
            assert metrics.positives == 0
            assert metrics.kernel_queries == 0
            assert metrics.scalar_queries == 0
            assert metrics.stage_seconds == {}
            assert metrics.uptime_seconds < uptime_before
            # The service keeps counting from zero after a reset.
            service.query_batch(workload[:10])
            assert metrics.queries == 10

    def test_repr_and_close_idempotent(self, vector_index):
        service = QueryService(vector_index)
        assert "vectorised" in repr(service)
        service.close()
        service.close()


def test_batch_path_speedup_over_scalar_loop():
    """Acceptance criterion: the QueryService batch path answers a
    100k-pair workload >= 5x faster than the scalar ``reachable`` loop
    on the same backend (Dual-II here: its per-query bisects leave the
    most room, and the vectorised kernel answers via two gathers into
    precomputed rank tables)."""
    graph = single_rooted_dag(2000, 3400, max_fanout=5, seed=0)
    index = build_index(graph, scheme="dual-ii")
    pairs = random_query_pairs(graph, 100_000, seed=1)
    reach = index.reachable

    with QueryService(index) as service:
        service.query_batch(pairs)  # warm NumPy/code paths once
        service_seconds = min(
            _timed(lambda: service.query_batch(pairs)) for _ in range(3))
        batched = service.query_batch(pairs)
    scalar_seconds = min(
        _timed(lambda: [reach(u, v) for u, v in pairs])
        for _ in range(2))
    assert batched == [reach(u, v) for u, v in pairs]
    speedup = scalar_seconds / service_seconds
    assert speedup >= 5.0, (
        f"service {service_seconds * 1e3:.1f} ms vs scalar "
        f"{scalar_seconds * 1e3:.1f} ms = {speedup:.2f}x (need >= 5x)")


def _timed(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started
