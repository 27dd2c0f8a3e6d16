"""The three workloads: inputs, server launches, windows and metrics.

Why each workload exists, and what each metric means on it, is in
``README.md``.  Every workload prints every end-to-end metric, because
a comparison of two commits checks every metric on every workload.
"""

from __future__ import annotations

import math
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import drivers, measure, trace
from perfbench.drivers import CORRECT, LoopResult
from perfbench.serverproc import ServerError, ServerProcess, connect, rpc

#: Open-loop validity: the generator's 99th-percentile send lateness
#: must stay below this, or the load was not the load that was asked.
#: Scheduler hiccups on a busy two-core host reach about 10 ms.
LATENESS_LIMIT_S = 0.025

#: Seconds a request may go unanswered before it counts as timed out;
#: a percentile that lands on a failed request reports this value.
REPLY_TIMEOUT_S = 10.0

#: Pairs per binary frame (the traced replay cuts every workload's
#: pool into frames of this size).
FRAME_PAIRS = 2048

#: Request-id bases keep the replies of different windows apart.
WARM_IDS, REF_IDS, WINDOW_IDS = 1_000_000, 3_000_000, 5_000_000

SIZES = {
    "full": {
        "json-point": dict(nodes=600, edges=900, pool=4096, rate=2000.0,
                           conns=2, warmup_s=1.0, launches=7, reloads=61),
        "binary-bulk": dict(nodes=100_000, edges=102_000, frame=FRAME_PAIRS,
                            frames=16, conns=2, window=2, warm_frames=48,
                            launches=3, reloads=3),
        "swap-under-reads": dict(nodes=20_000, edges=20_600, pool=4096,
                                 rate=200.0, warmup_s=1.0, launches=3,
                                 swaps=12, lead_share=0.25),
    },
    "tiny": {
        "json-point": dict(nodes=600, edges=900, pool=512, rate=1000.0,
                           conns=2, warmup_s=0.2, launches=2, reloads=3),
        "binary-bulk": dict(nodes=3000, edges=3100, frame=256, frames=8,
                            conns=2, window=2, warm_frames=16,
                            launches=2, reloads=3),
        "swap-under-reads": dict(nodes=2000, edges=2100, pool=512,
                                 rate=200.0, warmup_s=0.2, launches=2,
                                 swaps=10, lead_share=0.25),
    },
}


@dataclass
class Context:
    """One run's settings and its scratch directory in the checkout."""

    checkout: Path
    run_dir: Path
    workload: str
    seed: int
    seconds: float
    traced: bool
    scale: str = "full"
    corrupt: bool = False

    @property
    def strict(self) -> bool:
        # The tiny self-test pass has too few samples for a p99 with
        # ten samples beyond it; full runs always have enough.
        return self.scale == "full"

    @property
    def size(self) -> dict:
        return SIZES[self.scale][self.workload]

    @property
    def launches(self) -> int:
        # A traced run launches once: its setup time is not reported.
        return 1 if self.traced else self.size["launches"]

    @property
    def window_ids(self) -> tuple[int, ...]:
        """Id bases of the measured windows: a traced run measures an
        untraced reference window first, then the traced one."""
        return (REF_IDS, WINDOW_IDS) if self.traced else (WINDOW_IDS,)


@dataclass
class Tally:
    """Every verified operation of a run, for the result line."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    invalid: list[str] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def add(self, result: LoopResult) -> None:
        self.attempted += len(result.status)
        self.failed += result.failed
        self.wrong += result.wrong

    def add_op(self, ok: bool, wrong: bool = False) -> None:
        self.attempted += 1
        self.failed += not ok
        self.wrong += wrong

    @property
    def correct(self) -> bool:
        return self.wrong == 0 and not self.invalid


@dataclass
class Inputs:
    graph_path: Path
    pairs: list[tuple[int, int]]
    truth: list[bool]


def make_inputs(ctx: Context, nodes: int, edges: int,
                pool: int) -> Inputs:
    """The seeded graph file the server reads, a half-positive pair
    pool, and BFS truth for it (computed untimed)."""
    from repro.bench.workloads import mixed_query_pairs
    from repro.graph.generators import single_rooted_dag
    from repro.graph.io import write_edge_list
    from repro.graph.traversal import reachable_set

    graph = single_rooted_dag(nodes, edges, seed=ctx.seed)
    path = ctx.run_dir / "graph.txt"
    write_edge_list(graph, path)
    pairs = mixed_query_pairs(graph, pool, seed=ctx.seed)
    reach = {u: reachable_set(graph, u) for u in {u for u, _ in pairs}}
    truth = [v in reach[u] for u, v in pairs]
    if ctx.corrupt:
        # The fault check: one deliberately wrong expected answer
        # must surface as a wrong reply.
        truth[0] = not truth[0]
    return Inputs(path, pairs, truth)


# -- swaps -----------------------------------------------------------------

@dataclass
class Swap:
    """One ``reload`` as the client saw it (perf_counter seconds)."""

    sent: float
    acked: float | None
    build_s: float
    workers: int
    generation: int | None


def do_reload(sock, graph_path: Path, reload_id: int) -> Swap:
    sent = time.perf_counter()
    reply = rpc(sock, {"id": reload_id, "verb": "reload",
                       "graph": str(graph_path)}, timeout=120.0)
    acked = time.perf_counter()
    if not reply.get("ok"):
        return Swap(sent, None, 0.0, 0, None)
    result = reply["result"]
    return Swap(sent, acked, float(result.get("build_seconds", 0.0)),
                int(result.get("workers", 1)), result.get("generation"))


def check_swaps(swaps: list[Swap], tally: Tally) -> int:
    """Count the reloads as operations: each must be acked and move the
    generation exactly one above the previous reload's.  Returns how
    many passed."""
    passed = 0
    previous = None
    for swap in swaps:
        ok = swap.acked is not None and swap.generation is not None
        if ok and previous is not None and swap.generation != previous + 1:
            tally.invalid.append(f"reload moved generation {previous} -> "
                                 f"{swap.generation}, not by one")
            ok = False
        tally.add_op(ok)
        passed += ok
        previous = swap.generation if ok else None
    return passed


def reload_cpu_s(run: "Run") -> float:
    """The read workloads' ``swap_s``: server-tree CPU seconds per
    back-to-back reload.  Their wall time, about 15 ms on json-point,
    moved 11-19 ms with the host's steal time from run to run; CPU
    time does not count the stolen time."""
    acked = sum(1 for s in run.swaps if s.acked is not None)
    return run.swap_cpu_s / max(1, acked)


def swap_median_s(swaps: list[Swap]) -> float:
    acked = [s.acked - s.sent for s in swaps if s.acked is not None]
    return statistics.median(acked) if acked else 0.0


def verify_probe(sock, inputs: Inputs, tally: Tally, probe_id: int,
                 size: int = 64) -> None:
    """A verified ``batch`` read right after a swap."""
    start = (probe_id * size) % len(inputs.pairs)
    picks = [(start + i) % len(inputs.pairs) for i in range(size)]
    reply = rpc(sock, {"id": probe_id, "verb": "batch",
                       "pairs": [list(inputs.pairs[k]) for k in picks]})
    ok = bool(reply.get("ok")) and len(reply["result"]) == size
    wrong = ok and any(got is not inputs.truth[k]
                       for got, k in zip(reply["result"], picks))
    tally.add_op(ok and not wrong, wrong)


# -- shared steps ----------------------------------------------------------

@dataclass
class Measured:
    """One driver window with the server's CPU and memory around it."""

    result: LoopResult
    server_cpu_s: float
    client_cpu_s: float
    pss: measure.PssSampler
    steal: float = 0.0
    swaps: list[Swap] = field(default_factory=list)
    lead_cpu_s: float = 0.0
    lead_end: float = 0.0
    swap_cpu_s: float = 0.0


def measured(server: ServerProcess, drive) -> Measured:
    """Run ``drive()`` between two CPU snapshots of the server tree and
    of this process, sampling the tree's PSS once a second."""
    pids = server.pids()
    before = measure.cpu_ticks(pids)
    host_before = measure.host_cpu_ticks()
    client_before = time.process_time()
    with measure.PssSampler(pids) as pss:
        result = drive()
    client_cpu = time.process_time() - client_before
    cpu = measure.cpu_seconds_between(before, measure.cpu_ticks(pids))
    steal = measure.steal_share(host_before, measure.host_cpu_ticks())
    return Measured(result, cpu, client_cpu, pss, steal)


@dataclass
class Run:
    """What a workload hands to the metric code."""

    inputs: Inputs
    setups: list[float]
    window: Measured
    swaps: list[Swap]
    swap_cpu_s: float
    pairs_per_request: int
    ref: Measured | None = None
    scrapes: tuple | None = None
    encode_times: list[float] | None = None


def launch(ctx: Context, serve_args: list[str], launches: int,
           setups: list[float]) -> ServerProcess:
    """Launch ``launches`` fresh servers, timing each to ``ready``;
    all but the last are stopped again."""
    for k in range(launches):
        server = ServerProcess(ctx.checkout, ctx.run_dir, serve_args,
                               f"serve-{k}")
        setups.append(server.start())
        if k < launches - 1:
            server.stop()
    return server


def shm_segments() -> set[str]:
    from repro.core.shm import list_segments

    return set(list_segments())


def finish(server: ServerProcess | None, segments_before: set[str],
           tally: Tally) -> None:
    """Stop the server, then fail the run on any leaked segment."""
    if server is not None:
        try:
            server.stop()
        except ServerError as exc:
            tally.invalid.append(str(exc))
    leaked = sorted(shm_segments() - segments_before)
    if leaked:
        tally.invalid.append(f"leaked /dev/shm segments: {leaked}")


def json_lines(pairs: list[tuple], id_base: int, count: int, offset: int,
               encode_times: list[float] | None = None
               ) -> tuple[list[bytes], list[int]]:
    """``count`` query lines cycling the pool from ``offset``; returns
    the lines and each one's pool index."""
    lines, picks = [], []
    perf = time.perf_counter
    for i in range(count):
        k = (offset + i) % len(pairs)
        started = perf()
        lines.append(drivers.query_line(id_base + i, *pairs[k]))
        if encode_times is not None:
            encode_times.append(perf() - started)
        picks.append(k)
    return lines, picks


def check_lateness(result: LoopResult, tally: Tally, label: str) -> None:
    late = measure.percentile(result.lateness(), 99, strict=False)
    tally.notes[f"{label}_lateness_p99_ms"] = round(late * 1000.0, 4)
    if late > LATENESS_LIMIT_S:
        tally.invalid.append(
            f"{label}: open-loop generator ran {late * 1e3:.2f} ms late "
            f"at p99 (limit {LATENESS_LIMIT_S * 1e3:.0f} ms)")


def scrape(sock) -> tuple[dict, str]:
    """``stats`` and ``metrics`` from an idle JSON connection."""
    stats = rpc(sock, {"id": 900_001, "verb": "stats"})["result"]
    metrics = rpc(sock, {"id": 900_002, "verb": "metrics"})["result"]
    return stats, metrics["exposition"]


def reload_series(server: ServerProcess, inputs: Inputs, reloads: int,
                  tally: Tally) -> tuple[list[Swap], float]:
    """Back-to-back swaps of the same graph with no reads running, each
    followed by a verified probe; returns the swaps and the server CPU
    seconds they took."""
    swaps = []
    with connect(server.port) as sock:
        before = measure.cpu_ticks(server.pids())
        for k in range(reloads):
            swaps.append(do_reload(sock, inputs.graph_path, 800_000 + k))
            verify_probe(sock, inputs, tally, 810_000 + k)
        cpu = measure.cpu_seconds_between(
            before, measure.cpu_ticks(server.pids()))
    check_swaps(swaps, tally)
    return swaps, cpu


def correct_received(result: LoopResult) -> list[float | None]:
    return [r if st == CORRECT else None
            for r, st in zip(result.received, result.status)]


def ms_percentile(seconds: list[float], q: float, strict: bool,
                  sliced: bool = False) -> float:
    value = (measure.sliced_percentile(seconds, q, strict=strict)
             if sliced else measure.percentile(seconds, q, strict=strict))
    return (REPLY_TIMEOUT_S if math.isinf(value) else value) * 1000.0


# -- json-point --------------------------------------------------------------

def json_point(ctx: Context, tally: Tally) -> Run:
    """Open-loop single-pair ``query`` verbs at a fixed rate."""
    cfg = ctx.size
    inputs = make_inputs(ctx, cfg["nodes"], cfg["edges"], cfg["pool"])
    rate = cfg["rate"]
    count = int(rate * ctx.seconds)
    encode_times: list[float] | None = [] if ctx.traced else None
    plans = {}
    for base in ctx.window_ids:
        lines, picks = json_lines(
            inputs.pairs, base, count, 0,
            encode_times if base == WINDOW_IDS else None)
        plans[base] = (lines, [inputs.truth[k] for k in picks])
    warm_lines, warm_picks = json_lines(
        inputs.pairs, WARM_IDS, int(rate * cfg["warmup_s"]), count)

    segments = shm_segments()
    setups: list[float] = []
    server = None
    try:
        server = launch(ctx, [str(inputs.graph_path)],
                        ctx.launches, setups)
        socks = [connect(server.port) for _ in range(cfg["conns"])]
        mgmt = connect(server.port)
        windows = {}
        scrapes = None
        try:
            tally.add(drivers.run_open_loop(
                socks, warm_lines, [inputs.truth[k] for k in warm_picks],
                start=time.perf_counter() + 0.02, rate=rate,
                id_base=WARM_IDS))
            for base, (lines, expected) in plans.items():
                tracing = ctx.traced and base == WINDOW_IDS
                before = scrape(mgmt) if tracing else None
                windows[base] = measured(
                    server, lambda: drivers.run_open_loop(
                        socks, lines, expected,
                        start=time.perf_counter() + 0.02, rate=rate,
                        id_base=base, reply_timeout=REPLY_TIMEOUT_S,
                        trace=tracing))
                if tracing:
                    scrapes = (before, scrape(mgmt))
                tally.add(windows[base].result)
                check_lateness(windows[base].result, tally,
                               "traced" if tracing else "window")
        finally:
            for sock in socks:
                sock.close()
            mgmt.close()
        swaps, swap_cpu = reload_series(server, inputs, cfg["reloads"],
                                        tally)
    finally:
        finish(server, segments, tally)
    return Run(inputs, setups, windows[WINDOW_IDS], swaps, swap_cpu, 1,
               ref=windows.get(REF_IDS), scrapes=scrapes,
               encode_times=encode_times)


def open_loop_e2e(ctx: Context, run: Run, m: Measured) -> dict:
    """End-to-end metrics of an open-loop window (timed from due)."""
    result = m.result
    lat = measure.due_latencies(result.due, correct_received(result))
    verified = result.correct * run.pairs_per_request
    last = max((r for r in result.received if r is not None),
               default=result.due[-1])
    return {
        "setup_s": statistics.median(run.setups),
        "latency_p50_ms": ms_percentile(lat, 50, ctx.strict),
        "latency_p99_ms": ms_percentile(lat, 99, ctx.strict, sliced=True),
        "qps": verified / (last - result.due[0]),
        "cpu_us_per_query": m.server_cpu_s / max(1, verified) * 1e6,
        "ok_rate": result.correct / len(result.status),
        "mem_mb": m.pss.median_mb(),
        "swap_s": reload_cpu_s(run),
    }


# -- binary-bulk --------------------------------------------------------------

def binary_bulk(ctx: Context, tally: Tally) -> Run:
    """Closed loop of binary ``BATCH`` frames, a fixed window per
    connection, bounded by a frame count calibrated in the warm-up."""
    from repro.server import binproto

    cfg = ctx.size
    frame, kinds = cfg["frame"], cfg["frames"]
    inputs = make_inputs(ctx, cfg["nodes"], cfg["edges"], frame * kinds)
    chunks = [inputs.pairs[k * frame:(k + 1) * frame] for k in range(kinds)]
    answers = [inputs.truth[k * frame:(k + 1) * frame] for k in range(kinds)]
    expected = [binproto.pack_bitmap(a) for a in answers]
    encode_times: list[float] | None = [] if ctx.traced else None
    started = time.perf_counter()
    payloads = [binproto.encode_pairs(chunk) for chunk in chunks]
    frames = [drivers.batch_frames(payloads, c) for c in range(cfg["conns"])]
    if encode_times is not None:
        encode_times.append((time.perf_counter() - started)
                            / (kinds * cfg["conns"]))

    segments = shm_segments()
    setups: list[float] = []
    server = None
    try:
        server = launch(ctx, [str(inputs.graph_path)],
                        ctx.launches, setups)
        socks = [connect(server.port) for _ in range(cfg["conns"])]
        mgmt = connect(server.port)
        windows = {}
        scrapes = None
        try:
            for sock in socks:
                hello = drivers.negotiate_binary(sock)
                if hello["max_pairs"] < frame:
                    raise ServerError(f"server caps frames at "
                                      f"{hello['max_pairs']} pairs")
            # Calibrate the frame count: a short warm-up gives a rough
            # rate, a second one about a second long a steady one.
            warm_count = cfg["warm_frames"]
            for _ in range(2):
                warm_start = time.perf_counter()
                tally.add(drivers.run_closed_loop(
                    socks, frames, expected, frame, count=warm_count,
                    window=cfg["window"]))
                warm_rate = warm_count / (time.perf_counter() - warm_start)
                warm_count = max(warm_count, round(warm_rate))
            count = max(cfg["conns"] * cfg["window"],
                        round(warm_rate * ctx.seconds))
            tally.notes["frames"] = count
            for base in ctx.window_ids:
                tracing = ctx.traced and base == WINDOW_IDS
                before = scrape(mgmt) if tracing else None
                windows[base] = measured(
                    server, lambda: drivers.run_closed_loop(
                        socks, frames, expected, frame, count=count,
                        window=cfg["window"],
                        reply_timeout=REPLY_TIMEOUT_S, trace=tracing))
                if tracing:
                    scrapes = (before, scrape(mgmt))
                tally.add(windows[base].result)
        finally:
            for sock in socks:
                sock.close()
            mgmt.close()
        swaps, swap_cpu = reload_series(server, inputs, cfg["reloads"],
                                        tally)
    finally:
        finish(server, segments, tally)
    return Run(inputs, setups, windows[WINDOW_IDS], swaps, swap_cpu,
               frame, ref=windows.get(REF_IDS), scrapes=scrapes,
               encode_times=encode_times)


def closed_loop_e2e(ctx: Context, run: Run, m: Measured) -> dict:
    """End-to-end metrics of a closed-loop window (timed from send)."""
    result = m.result
    lat = [math.inf if r is None else r - s
           for s, r in zip(result.sent, correct_received(result))]
    verified = result.correct * run.pairs_per_request
    wall = max(r for r in result.received if r is not None) \
        - min(result.sent)
    return {
        "setup_s": statistics.median(run.setups),
        "latency_p50_ms": ms_percentile(lat, 50, ctx.strict),
        "latency_p99_ms": ms_percentile(lat, 99, ctx.strict, sliced=True),
        "qps": verified / wall,
        "cpu_us_per_query": m.server_cpu_s / max(1, verified) * 1e6,
        "ok_rate": result.correct / len(result.status),
        "mem_mb": m.pss.median_mb(),
        "swap_s": reload_cpu_s(run),
    }


# -- swap-under-reads ---------------------------------------------------------

def swap_window(server: ServerProcess, sock, mgmt, inputs: Inputs,
                cfg: dict,
                seconds: float, id_base: int, tracing: bool,
                encode_times: list[float] | None = None) -> Measured:
    """Open-loop reads on ``sock`` while a second connection reloads
    the same graph on a fixed schedule.

    The first ``lead_share`` of the window is reads only; its server
    CPU, per verified read, is the workload's ``cpu_us_per_query``.
    The scheduled swaps then run ``spacing`` apart, wider than one
    swap, so each starts on an idle server.  About a quarter of the
    reads fall inside a swap: the median read is a between-swaps read
    and the p99 one a read stalled by a swap.  (With swaps half the
    time, the median sat on the boundary and moved 45% between runs.)
    """
    rate = cfg["rate"]
    count = int(rate * seconds)
    lines, picks = json_lines(inputs.pairs, id_base, count,
                              id_base % len(inputs.pairs), encode_times)
    expected = [inputs.truth[k] for k in picks]
    start = time.perf_counter() + 0.05
    lead = seconds * cfg["lead_share"]
    # One spacing of reads-only follows the last swap, so the window
    # never ends inside a swap.
    spacing = (seconds - lead) / (cfg["swaps"] + 1)
    swaps: list[Swap] = []
    ticks: list[dict[int, int]] = []
    failure: list[BaseException] = []

    def reloader() -> None:
        try:
            for k in range(cfg["swaps"]):
                due = start + lead + k * spacing
                time.sleep(max(0.0, due - time.perf_counter()))
                if k == 0:
                    ticks.append(measure.cpu_ticks(pids))
                swaps.append(do_reload(mgmt, inputs.graph_path,
                                       id_base + 700_000 + k))
        except BaseException as exc:  # reported by the caller
            failure.append(exc)

    # Scanning /proc for the tree holds this process's GIL for a few
    # milliseconds; the reloader thread must not do it while the open
    # loop is sending, so the tree is taken once, here.
    pids = server.pids()
    before = measure.cpu_ticks(pids)
    thread = threading.Thread(target=reloader, name="reloader")
    thread.start()
    try:
        m = measured(server, lambda: drivers.run_open_loop(
            [sock], lines, expected, start=start, rate=rate,
            id_base=id_base, reply_timeout=REPLY_TIMEOUT_S,
            trace=tracing))
    finally:
        thread.join(timeout=300.0)
    if failure:
        raise ServerError(f"reloader failed: {failure[0]!r}")
    m.swaps = swaps
    m.lead_end = start + lead
    after = measure.cpu_ticks(pids)
    if ticks:
        m.lead_cpu_s = measure.cpu_seconds_between(before, ticks[0])
        rest = measure.cpu_seconds_between(ticks[0], after)
        # Swap CPU: what the swap phase used beyond the lead-in's rate.
        m.swap_cpu_s = max(0.0, rest - m.lead_cpu_s / lead
                           * (seconds - lead))
    return m


def swap_under_reads(ctx: Context, tally: Tally) -> Run:
    """A durable single-process server swapping the same graph under
    reads.  (On a 2-worker fleet the read tail was bimodal from run to
    run, 105-145 ms or 240-310 ms, depending on how the two workers'
    copy-parses shared the two cores; see README.md.)"""
    cfg = ctx.size
    inputs = make_inputs(ctx, cfg["nodes"], cfg["edges"], cfg["pool"])
    state_dir = ctx.run_dir / "state"
    serve_args = [str(inputs.graph_path),
                  "--state-dir", str(state_dir)]
    warm_lines, warm_picks = json_lines(
        inputs.pairs, WARM_IDS, int(cfg["rate"] * cfg["warmup_s"]), 0)
    encode_times: list[float] | None = [] if ctx.traced else None

    segments = shm_segments()
    setups: list[float] = []
    server = None
    try:
        # Prepare the state dir untimed; every timed launch after it is
        # a restart down the durable-recovery path.
        launch(ctx, serve_args, 1, []).stop()
        server = launch(ctx, serve_args, ctx.launches, setups)
        windows = {}
        scrapes = None
        with connect(server.port) as sock, connect(server.port) as mgmt:
            tally.add(drivers.run_open_loop(
                [sock], warm_lines, [inputs.truth[k] for k in warm_picks],
                start=time.perf_counter() + 0.02, rate=cfg["rate"],
                id_base=WARM_IDS))
            for base in ctx.window_ids:
                tracing = ctx.traced and base == WINDOW_IDS
                before = scrape(sock) if tracing else None
                m = swap_window(server, sock, mgmt, inputs, cfg, ctx.seconds,
                                base, tracing,
                                encode_times if tracing else None)
                if tracing:
                    scrapes = (before, scrape(sock))
                tally.add(m.result)
                passed = check_swaps(m.swaps, tally)
                if passed < cfg["swaps"]:
                    tally.invalid.append(
                        f"only {passed} of {cfg['swaps']} reloads passed")
                check_lateness(m.result, tally,
                               "traced" if tracing else "window")
                windows[base] = m
    finally:
        finish(server, segments, tally)
    window = windows[WINDOW_IDS]
    return Run(inputs, setups, window, window.swaps, window.swap_cpu_s, 1,
               ref=windows.get(REF_IDS), scrapes=scrapes,
               encode_times=encode_times)


def swap_e2e(ctx: Context, run: Run, m: Measured) -> dict:
    """Open-loop read metrics plus the window's scheduled swaps."""
    metrics = open_loop_e2e(ctx, run, m)
    result = m.result
    lead_reads = sum(1 for d, st in zip(result.due, result.status)
                     if d < m.lead_end and st == CORRECT)
    acked = sum(1 for s in m.swaps if s.acked is not None)
    metrics.update({
        "cpu_us_per_query": m.lead_cpu_s / max(1, lead_reads) * 1e6,
        # The lead-in's footprint: after swaps, how much of the old
        # index the allocator still holds varied 213-291 MB from run
        # to run (server.mem_after_swaps_mb in the traced run).
        "mem_mb": m.pss.median_mb(end=m.lead_end),
        "ok_rate": (result.correct + acked)
        / (len(result.status) + len(m.swaps)),
        "swap_s": swap_median_s(m.swaps),
    })
    return metrics


def read_split(m: Measured, strict: bool) -> dict:
    """Read p99 split by whether a read was due during a swap."""
    windows = [(s.sent, s.acked if s.acked is not None else math.inf)
               for s in m.swaps]
    lat = measure.due_latencies(m.result.due, correct_received(m.result))
    inside, outside = [], []
    for due, value in zip(m.result.due, lat):
        (inside if any(a <= due <= b for a, b in windows)
         else outside).append(value)
    return {
        "reads.in_swap_p99_ms": ms_percentile(inside, 99, strict)
        if inside else 0.0,
        "reads.between_swaps_p99_ms": ms_percentile(outside, 99, strict)
        if outside else 0.0,
    }


WORKLOADS = {
    "json-point": (json_point, open_loop_e2e),
    "binary-bulk": (binary_bulk, closed_loop_e2e),
    "swap-under-reads": (swap_under_reads, swap_e2e),
}


# -- per-layer metrics --------------------------------------------------------

def swap_layer_metrics(swaps: list[Swap], cpu_s: float) -> dict:
    acked = [s for s in swaps if s.acked is not None]
    if not acked:
        return {"router.swap_build_s": 0.0,
                "router.swap_post_build_s": 0.0,
                "router.swap_workers_acked": 0,
                "server.cpu_s_per_swap": 0.0}
    return {
        "router.swap_build_s": statistics.median(s.build_s for s in acked),
        "router.swap_post_build_s": statistics.median(
            s.acked - s.sent - s.build_s for s in acked),
        "router.swap_workers_acked": min(s.workers for s in acked),
        "server.cpu_s_per_swap": cpu_s / len(acked),
    }


def mean_wire_ms(result: LoopResult) -> float:
    """Client-observed mean latency from send to reply, in ms."""
    spans = [r - s for s, r in zip(result.sent, correct_received(result))
             if r is not None]
    return statistics.fmean(spans) * 1000.0 if spans else 0.0


def layer_metrics(ctx: Context, run: Run, tracer: trace.Tracer,
                  tally: Tally) -> dict:
    """Per-layer metrics of a traced run (definitions in README.md)."""
    e2e = WORKLOADS[ctx.workload][1]
    traced_e2e = e2e(ctx, run, run.window)
    ref_e2e = e2e(ctx, run, run.ref)
    if ctx.workload == "binary-bulk":
        overhead = (ref_e2e["qps"] / traced_e2e["qps"] - 1.0) * 100.0
    else:
        overhead = (traced_e2e["latency_p50_ms"]
                    / ref_e2e["latency_p50_ms"] - 1.0) * 100.0
    result = run.window.result
    trace.client_spans(tracer, result)
    selfs = measure.self_times(tracer.spans)
    requests = len(result.status)
    metrics = {
        "e2e.latency_p99_ms": ref_e2e["latency_p99_ms"],
        "client.cpu_us_per_query": run.ref.client_cpu_s
        / max(1, run.ref.result.correct * run.pairs_per_request) * 1e6,
        "client.encode_us_per_req": statistics.fmean(run.encode_times)
        * 1e6 if run.encode_times else 0.0,
        "client.decode_us_per_req":
            selfs.get("client.decode", 0.0) / max(1, requests) * 1e6,
        "client.latency_ms_mean": mean_wire_ms(result),
        "trace.overhead_pct": overhead,
    }
    first = min(result.sent)
    last = max(r for r in result.received if r is not None)
    metrics.update(trace.server_layer_metrics(
        run.scrapes[0], run.scrapes[1], last - first,
        metrics["client.latency_ms_mean"]))
    metrics.update(swap_layer_metrics(run.swaps, run.swap_cpu_s))
    if ctx.workload == "swap-under-reads":
        metrics.update(read_split(run.window, ctx.strict))
        metrics["server.mem_after_swaps_mb"] = run.window.pss.median_mb(
            start=run.window.lead_end)
    else:
        metrics.update({"reads.in_swap_p99_ms": 0.0,
                        "reads.between_swaps_p99_ms": 0.0,
                        "server.mem_after_swaps_mb": 0.0})

    pairs, truth = run.inputs.pairs, run.inputs.truth
    frames = [pairs[k:k + FRAME_PAIRS]
              for k in range(0, len(pairs), FRAME_PAIRS)]
    frame_truth = [truth[k:k + FRAME_PAIRS]
                   for k in range(0, len(truth), FRAME_PAIRS)]
    if run.pairs_per_request > 1:
        # binary-bulk: its requests are the frames themselves.
        requests, request_truth, lines = frames, frame_truth, []
    else:
        requests = [[p] for p in pairs[:2000]]
        request_truth = [[t] for t in truth[:2000]]
        lines = [drivers.query_line(i, *p) for i, p in enumerate(pairs[:2000])]
    layer, wrong = trace.replay(
        tracer, run.inputs.graph_path, ctx.run_dir / "replay-state",
        requests=requests, truth=request_truth, json_lines=lines,
        frames=frames, frame_truth=frame_truth)
    trace.stop_resource_tracker()
    tally.wrong += wrong
    metrics.update(layer)
    return metrics
