"""The traced run's instruments: client spans, server scrapes and an
in-process replay of the workload's inputs through each layer's
public functions.

All spans are recorded from the benchmark's own code, around calls
into the program; nothing inside ``src/`` is instrumented.  Spans stay
in memory until the run ends and are then written out with the self
time of every layer.
"""

from __future__ import annotations

import json
import re
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from perfbench.drivers import LoopResult
from perfbench.measure import Span, self_times

#: Build phases as the pipeline's profiler names them, folded into the
#: layer names the benchmark reports.
PHASE_GROUPS = {
    "condense": ("condense",),
    "meg": ("meg",),
    "spanning": ("spanning",),
    "intervals": ("intervals",),
    "link_table": ("link_table",),
    "tlc": ("transitive_closure_of_links", "tlc_matrix"),
    "nontree_labels": ("nontree_labels",),
}

#: Server request stages, in the order a request passes them.
STAGES = ("parse", "admission", "queue_wait", "kernel", "serialize")

#: Counters of the ``stats`` verb's micro-batch lane blocks.
LANE_COUNTERS = ("flushes", "multi_query_flushes", "flushed_pairs",
                 "flushed_requests", "shed_requests")


class Tracer:
    """Nested spans around calls, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0

    def new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    @contextmanager
    def span(self, layer: str):
        span_id = self.new_id()
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans.append(Span(span_id, parent, layer, start,
                                   time.perf_counter()))


def client_spans(tracer: Tracer, result: LoopResult) -> None:
    """Turn a traced window's timestamps into spans.

    Each request gets a ``client.request`` root from its send to the
    end of its verification, with ``client.write``,
    ``client.reply_wait``, ``client.decode`` and ``client.verify``
    children sharing the root's id as their parent.
    """
    tr = result.trace
    for i, received in enumerate(result.received):
        if received is None or not tr.verify_end[i]:
            continue
        root = tracer.new_id()
        sent = result.sent[i]
        for layer, start, end, parent in (
                ("client.request", sent, tr.verify_end[i], None),
                ("client.write", sent, tr.write_end[i], root),
                ("client.reply_wait", tr.write_end[i], received, root),
                ("client.decode", tr.decode_start[i], tr.decode_end[i],
                 root),
                ("client.verify", tr.decode_end[i], tr.verify_end[i],
                 root)):
            span_id = root if parent is None else tracer.new_id()
            tracer.spans.append(Span(span_id, parent, layer, start, end))


def stage_totals(exposition: str) -> dict[str, list[float]]:
    """``{stage: [seconds_sum, count]}`` of ``reach_stage_seconds``
    summed over every other label (fleet workers add a worker label)."""
    totals: dict[str, list[float]] = {}
    for line in exposition.splitlines():
        match = re.match(r"reach_stage_seconds_(sum|count)\{([^}]*)\}"
                         r"\s+(\S+)", line)
        if not match:
            continue
        stage = re.search(r'stage="([^"]+)"', match.group(2))
        if stage is None:
            continue
        slot = totals.setdefault(stage.group(1), [0.0, 0.0])
        slot[0 if match.group(1) == "sum" else 1] += float(match.group(3))
    return totals


def lane_totals(stats: dict) -> Counter:
    """Micro-batch counters summed over the JSON and binary lanes."""
    totals: Counter = Counter()
    for block in ("batcher", "binary_lane"):
        lane = stats.get(block) or {}
        for key in LANE_COUNTERS:
            totals[key] += lane.get(key, 0)
    return totals


def server_layer_metrics(before: tuple[dict, str], after: tuple[dict, str],
                         window_s: float, client_mean_ms: float) -> dict:
    """``server.*`` and ``batcher.*`` figures from two scrapes.

    Each scrape is ``(stats result, metrics exposition)``.  Stage means
    are the window's deltas of ``reach_stage_seconds`` sum over count;
    ``server.unattributed_ms`` is the client-observed mean minus their
    sum, so the stages plus it add up to the client mean exactly.
    """
    stages_before, stages_after = (stage_totals(before[1]),
                                   stage_totals(after[1]))
    metrics = {}
    stage_sum = 0.0
    for stage in STAGES:
        s0, n0 = stages_before.get(stage, [0.0, 0.0])
        s1, n1 = stages_after.get(stage, [0.0, 0.0])
        mean_ms = (s1 - s0) / (n1 - n0) * 1000.0 if n1 > n0 else 0.0
        metrics[f"server.{stage}_ms_mean"] = mean_ms
        stage_sum += mean_ms
    metrics["server.unattributed_ms"] = client_mean_ms - stage_sum
    lanes = lane_totals(after[0])
    lanes.subtract(lane_totals(before[0]))
    flushes = lanes["flushes"]
    metrics["batcher.mean_flush_pairs"] = (
        lanes["flushed_pairs"] / flushes if flushes else 0.0)
    metrics["batcher.multi_query_flush_share"] = (
        lanes["multi_query_flushes"] / flushes if flushes else 0.0)
    metrics["batcher.flushes_per_s"] = flushes / window_s
    metrics["batcher.shed_requests"] = lanes["shed_requests"]
    return metrics


def _no_default_factory():
    raise RuntimeError("durable default generation did not restore")


def replay(tracer: Tracer, graph_path: Path, state_dir: Path, *,
           requests: list[list[tuple]], truth: list[list[bool]],
           json_lines: list[bytes], frames: list[list[tuple]],
           frame_truth: list[list[bool]]) -> tuple[dict, int]:
    """Run the workload's own inputs through each layer in-process.

    ``requests`` are the workload's request-shaped pair lists with
    ``truth`` their BFS answers, ``json_lines`` the request lines to
    decode (empty for a binary workload), and ``frames`` its pairs cut
    into binary-frame batches with ``frame_truth``.  Returns the layer
    metrics and the number of wrong answers the replay saw.
    """
    import numpy as np

    from repro.core.base import build_index
    from repro.core.serialize import dumps_index, loads_index
    from repro.core.service import QueryService
    from repro.core.shm import attach_index, publish_index
    from repro.graph.io import read_edge_list
    from repro.server import binproto, protocol
    from repro.server.durability import (DurableState, index_label_bytes,
                                         restore_catalog)

    span = tracer.span
    wrong = 0
    with span("replay"):
        with span("graph.read_edge_list"):
            graph = read_edge_list(graph_path)
        with span("pipeline.build"):
            index = build_index(graph, scheme="dual-i")
        with span("serialize.dumps"):
            document = dumps_index(index)
        with span("serialize.loads"):
            loads_index(document)
        with span("shm.publish"):
            published = publish_index(index)
        try:
            with span("shm.attach"):
                attach_index(published.name)
        finally:
            published.unlink()
        state = DurableState(state_dir)
        state.recover()
        generation = state.next_generation("default")
        with span("durability.save_index"):
            artifact = state.save_index(index, "default", generation)
        with span("durability.record_install"):
            state.record_install("default", index_id=0, scheme="dual-i",
                                 generation=generation,
                                 label_bytes=index_label_bytes(index),
                                 artifact=artifact)
        state.close()
        with span("durability.recover"):
            again = DurableState(state_dir)
            again.recover()
            restore_catalog(again, default_factory=_no_default_factory)
        again.close()

        service = QueryService(index)
        payloads = [binproto.encode_pairs(pairs) for pairs in frames]
        # Untimed first calls build the lazily created kernel buffers.
        service.query_batch(requests[0])
        service.query_frames([payloads[0]])
        for pairs, want in zip(requests, truth):
            with span("service.query_batch"):
                got = service.query_batch(pairs)
            wrong += sum(g is not w for g, w in zip(got, want))
        bitmaps = []
        for payload, want in zip(payloads, frame_truth):
            with span("fastkernel.query_frames"):
                bitmap = service.query_frames([payload])[0]
            bitmaps.append(bitmap)
            got = np.unpackbits(np.frombuffer(bitmap, dtype=np.uint8),
                                count=len(want), bitorder="little")
            wrong += int(np.count_nonzero(got != np.asarray(want)))
        for line, want in zip(json_lines, truth):
            with span("protocol.decode"):
                request = protocol.parse_request(
                    protocol.decode_message(line))
                protocol.parse_pairs(request.payload)
            with span("protocol.encode"):
                protocol.encode_message(protocol.ok_reply(request.id,
                                                          want[0]))
        for k, (bitmap, want) in enumerate(zip(bitmaps, frame_truth)):
            with span("binproto.encode_answers"):
                binproto.encode_answers(k, len(want), bitmap)
            with span("binproto.unpack_bitmap"):
                binproto.unpack_bitmap(len(want), bitmap)

    selfs = self_times(tracer.spans)
    pairs_total = sum(len(pairs) for pairs in requests)
    frame_pairs = sum(len(pairs) for pairs in frames)

    def per(layer: str, scale: float, unit_count: int) -> float:
        return selfs.get(layer, 0.0) * scale / unit_count \
            if unit_count else 0.0

    phases = index.stats().phase_seconds
    metrics = {
        "graph.read_edge_list_s": selfs["graph.read_edge_list"],
        "pipeline.build_s": selfs["pipeline.build"],
        "serialize.dumps_s": selfs["serialize.dumps"],
        "serialize.loads_s": selfs["serialize.loads"],
        "serialize.doc_mb": len(document) / 1e6,
        "shm.publish_s": selfs["shm.publish"],
        "shm.attach_s": selfs["shm.attach"],
        "durability.save_index_s": selfs["durability.save_index"],
        "durability.record_install_ms":
            selfs["durability.record_install"] * 1000.0,
        "durability.recover_s": selfs["durability.recover"],
        "service.query_batch_ns_per_pair":
            per("service.query_batch", 1e9, pairs_total),
        "fastkernel.query_frames_ns_per_pair":
            per("fastkernel.query_frames", 1e9, frame_pairs),
        "fastkernel.compiled": int(bool(
            service.fast_kernel() is not None
            and service.fast_kernel().compiled)),
        "protocol.decode_us_per_req":
            per("protocol.decode", 1e6, len(json_lines)),
        "protocol.encode_us_per_req":
            per("protocol.encode", 1e6, len(json_lines)),
        "binproto.encode_answers_us_per_frame":
            per("binproto.encode_answers", 1e6, len(bitmaps)),
        "binproto.unpack_bitmap_us_per_frame":
            per("binproto.unpack_bitmap", 1e6, len(bitmaps)),
    }
    for name, parts in PHASE_GROUPS.items():
        metrics[f"pipeline.{name}_s"] = sum(phases.get(p, 0.0)
                                            for p in parts)
    service.close()
    return metrics, wrong


def stop_resource_tracker() -> None:
    """End the shared-memory resource tracker the replay's publish
    started, and wait for it, so the benchmark leaves no process."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def write_trace(path: Path, fingerprint: dict, metrics: dict,
                tracer: Tracer) -> None:
    """Spans (one JSON array per line) after a header line holding the
    fingerprint, the per-layer metrics and the self time per layer."""
    path.parent.mkdir(parents=True, exist_ok=True)
    selfs = self_times(tracer.spans)
    with open(path, "w") as out:
        out.write(json.dumps({
            "fingerprint": fingerprint, "metrics": metrics,
            "self_seconds": selfs,
            "span_counts": Counter(s.layer for s in tracer.spans),
        }) + "\n")
        for span in tracer.spans:
            out.write(json.dumps(list(span)) + "\n")

