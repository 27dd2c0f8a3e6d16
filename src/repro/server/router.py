"""The worker-fleet front: shared port, shared labels, one supervisor.

:class:`WorkerFleet` scales the gateway past the single-interpreter
ceiling (~42k qps, BENCH_serve.json): the dual-labeling arrays are
immutable after build, so the parent builds **once**, publishes the
index into a shared-memory segment (:mod:`repro.core.shm`), and spawns
``N`` :mod:`repro.server.worker` processes that each attach and serve.

Routing is *accept sharding*: the parent reserves the port with a
bound (never listening) ``SO_REUSEPORT`` socket and every worker
listens on the same address with ``SO_REUSEPORT`` set, so the kernel
distributes incoming connections across the workers.  A userspace
dispatch ring was rejected deliberately — a Python router process
would itself be GIL-bound at roughly the single-server qps ceiling,
capping the fleet at 1× no matter how many workers sit behind it.

Generation-aware hot swap: any worker that receives a ``reload``
forwards it here.  The parent rebuilds (or loads) the new index once,
publishes it as generation ``g+1``, commands every worker to swap,
waits for the acks, unlinks generation ``g``, and only then releases
the requesting worker's reply — so a success reply is never observable
before the whole fleet serves the new index, and each worker's
per-flush service snapshot guarantees no micro-batch ever mixes
generations.  A worker that fails to ack in time is killed and
respawned directly onto the new generation.

Supervision extends the PR-4 :class:`~repro.server.server.Supervisor`
semantics to processes: a dead worker (crash, SIGKILL) is respawned
with capped exponential backoff onto the *current* generation and
rejoins the accept sharding by re-binding the shared port; a worker
that stayed up ``healthy_after`` seconds earns back its restart
budget, while a crash loop exhausts ``max_restarts`` and leaves the
fleet running degraded on the surviving workers.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import random
import secrets
import socket
import threading
import time
from collections import deque
from multiprocessing import connection as mp_connection
from typing import Any

from repro.core.serialize import load_dual_index
from repro.core.shm import (SEGMENT_PREFIX, PublishedIndex,
                            publish_index, sweep_stale_segments)
from repro.exceptions import ReproError
from repro.obs.flight import FlightRecorder
from repro.obs.prometheus import CONTENT_TYPE, merge_expositions
from repro.server import protocol
from repro.server.protocol import ProtocolError
from repro.server.tenancy import (DEFAULT_INDEX_ID, CatalogEntry,
                                  CatalogService, TenantQuota)
from repro.server.worker import worker_main

__all__ = ["FleetError", "WorkerFleet"]


class _TenantPub:
    """Parent-side shared-memory state of one tenant index."""

    __slots__ = ("generation", "published", "segment")

    def __init__(self) -> None:
        #: Per-index generation counter (independent of the default
        #: index's generation).
        self.generation = 0
        self.published: PublishedIndex | None = None
        self.segment: str | None = None


class FleetError(ReproError):
    """The fleet could not start or lost its last worker."""


class _ScrapeJob:
    """One in-flight fleet-wide metrics collection.

    Created by any thread (:meth:`WorkerFleet.scrape`, the HTTP
    endpoint); broadcast and completed on the monitor thread, which
    owns the control pipes.  The caller blocks on ``event`` and takes
    whatever workers answered by the deadline — a hung worker degrades
    the scrape to the survivors instead of wedging it.
    """

    __slots__ = ("token", "expected", "results", "event", "deadline")

    def __init__(self, token: int, deadline: float) -> None:
        self.token = token
        self.expected: set[int] = set()
        self.results: dict[int, str] = {}
        self.event = threading.Event()
        self.deadline = deadline


class _WorkerHandle:
    """Parent-side state of one worker process."""

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.process: multiprocessing.process.BaseProcess | None = None
        self.conn = None
        self.ready = False
        self.started_at = 0.0
        self.consecutive_crashes = 0
        #: Restart budget exhausted — the supervisor gave up on this
        #: slot and the fleet runs degraded on the survivors.
        self.abandoned = False
        # Liveness-probe state: sequence of the outstanding ping (if
        # any), when it was sent, and when the last probe round ran.
        self.ping_seq = 0
        self.ping_sent: float | None = None
        self.last_probe = 0.0

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    @property
    def pid(self) -> int | None:
        return self.process.pid if self.process is not None else None


class WorkerFleet:
    """``N`` worker processes serving one index from shared memory.

    Parameters
    ----------
    index:
        A built (serialisable) index — the parent publishes it and
        never serves queries itself.
    scheme:
        Scheme tag reported by the workers (``dual-i`` / ``dual-ii``).
    workers:
        Fleet size.  Near-linear qps scaling requires at least that
        many usable cores; on fewer cores the fleet is capacity-bound
        but still correct.
    host / port:
        The shared listening address (``0`` picks a free port).
    tenants:
        Optional static tenant manifest: dicts with ``name``, an
        optional built ``index`` (published into a per-index
        ``/dev/shm`` segment at start; omitted = registered empty),
        optional ``scheme``, and an optional ``quota`` dict (see
        :class:`~repro.server.tenancy.TenantQuota`).  Further tenants
        can be added at runtime through the ``catalog`` verb — any
        worker forwards mutations here and the parent moves the whole
        fleet together.
    server_options:
        Picklable :class:`~repro.server.server.ServerConfig` keywords
        applied to every worker (``max_batch``, ``policy``, ...).
    max_restarts / base_delay / max_delay / jitter / healthy_after /
    seed:
        Per-worker supervisor knobs, matching
        :class:`~repro.server.server.Supervisor`.
    start_timeout / swap_timeout:
        Seconds to wait for worker readiness at start / for swap acks
        during a reload before the straggler is killed and respawned.
    probe_interval / probe_timeout:
        Liveness probing: every ``probe_interval`` seconds the parent
        pings each worker over its control pipe; a worker silent for
        ``probe_timeout`` seconds is killed and respawned.  This is
        what bounds recovery from a *hung* (not dead) worker — its
        kernel listen queue keeps accepting connections that would
        otherwise black-hole forever.  ``probe_interval=None``
        disables probing.
    metrics_port:
        When set, the parent serves an HTTP ``GET /metrics`` on this
        port (``0`` picks a free one): each request collects every
        live worker's exposition over the control pipes and merges
        them into **one** valid scrape document — the per-worker
        ``worker="<id>"`` labels keep the series distinct, so one
        Prometheus target covers the whole fleet.
    flight_dir:
        When set, the parent's own flight recorder (label ``fleet``,
        supervision events: spawns, deaths, swaps, catalog mutations)
        spills here alongside the workers' rings, and every
        supervisor respawn triggers a dump.
    """

    def __init__(self, index, *, scheme: str = "dual-i",
                 workers: int = 2, host: str = "127.0.0.1",
                 port: int = 0,
                 tenants: list[dict] | None = None,
                 server_options: dict | None = None,
                 max_restarts: int | None = 8,
                 base_delay: float = 0.1, max_delay: float = 5.0,
                 jitter: float = 0.25, healthy_after: float = 30.0,
                 seed: int | None = None,
                 start_timeout: float = 60.0,
                 swap_timeout: float = 30.0,
                 probe_interval: float | None = 2.0,
                 probe_timeout: float = 10.0,
                 state: Any = None,
                 metrics_port: int | None = None,
                 flight_dir: Any = None) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if not hasattr(socket, "SO_REUSEPORT"):  # pragma: no cover
            raise FleetError(
                "the worker fleet needs SO_REUSEPORT accept sharding, "
                "which this platform does not offer")
        self._index = index
        self._scheme = scheme
        self._host = host
        self._requested_port = port
        self._server_options = dict(server_options or {})
        self._max_restarts = max_restarts
        self._base_delay = base_delay
        self._max_delay = max_delay
        self._jitter = jitter
        self._healthy_after = healthy_after
        self._rng = random.Random(seed)
        self._start_timeout = start_timeout
        self._swap_timeout = swap_timeout
        self._probe_interval = probe_interval
        self._probe_timeout = probe_timeout
        self._ctx = multiprocessing.get_context("spawn")
        self._handles = [_WorkerHandle(i) for i in range(workers)]
        self._base_name = (f"{SEGMENT_PREFIX}{os.getpid()}-"
                           f"{secrets.token_hex(3)}")
        self._generation = 0
        self._published: PublishedIndex | None = None
        # The parent's catalog registry (no serving backend — the
        # default entry's service stays None): one source of truth for
        # tenant names, numeric ids, schemes, and quotas, shared with
        # the workers via the spawn manifest.
        self._catalog = CatalogService(None, scheme=scheme)
        #: Durable-state subsystem (``serve --state-dir``), or
        #: ``None``.  Only the parent carries it: every fleet-wide
        #: catalog mutation is journaled here *before* workers swap
        #: and the requester is acknowledged; workers themselves
        #: never touch the state dir.
        self._state = state
        #: The default index's durable generation (0 without
        #: ``--state-dir``); workers mirror it so `catalog list` and
        #: reload replies report journal generations fleet-wide.
        self._default_generation = 0
        if state is not None:
            snap = state.entry("default")
            if snap is not None:
                self._default_generation = snap.generation
                self._catalog.default.generation = snap.generation
            if state.recovery_seconds is not None:
                # The parent recovered once for the whole fleet; hand
                # each worker the number so its exposition carries
                # ``reach_recovery_seconds`` like a single server's.
                self._server_options["recovery_seconds"] = \
                    state.recovery_seconds
        self._tenant_pubs: dict[str, _TenantPub] = {}
        #: ``(entry, built index)`` pairs published at :meth:`start`.
        self._startup_tenants: list[tuple[CatalogEntry, Any]] = []
        for spec in (tenants or []):
            quota = (spec["quota"]
                     if isinstance(spec.get("quota"), TenantQuota)
                     else TenantQuota.from_payload(spec.get("quota")))
            entry = self._catalog.create(
                spec["name"], scheme=spec.get("scheme", scheme),
                quota=quota, index_id=spec.get("index_id"))
            if spec.get("generation"):
                # Durable boot: resume the tenant's generation count
                # where the journal left it (also used for segment
                # names, so a restarted fleet never reuses a name a
                # dying worker may still have mapped).
                entry.generation = spec["generation"]
            self._tenant_pubs[entry.name] = _TenantPub()
            self._tenant_pubs[entry.name].generation = \
                entry.generation
            if spec.get("index") is not None:
                self._startup_tenants.append((entry, spec["index"]))
        self._reserve_sock: socket.socket | None = None
        self._port: int | None = None
        self._monitor: threading.Thread | None = None
        self._stopping = threading.Event()
        #: Control messages that arrived while a reload orchestration
        #: was draining its acks; replayed afterwards.
        self._deferred: deque = deque()
        self._lock = threading.Lock()
        # Fleet-wide scrape plumbing: jobs queue in from any thread,
        # the monitor thread broadcasts and completes them.
        self._scrape_tokens = itertools.count(1)
        self._scrape_requests: deque[_ScrapeJob] = deque()
        self._scrape_active: dict[int, _ScrapeJob] = {}
        self._requested_metrics_port = metrics_port
        self._metrics_http = None
        self._metrics_thread: threading.Thread | None = None
        self._flight_dir = flight_dir
        #: Supervision-plane flight recorder (label ``fleet``): spawn,
        #: death, swap, and catalog events; dumps on every respawn.
        self.flight = FlightRecorder(1024, label="fleet")
        #: Total worker restarts performed by the fleet supervisor.
        self.restarts = 0
        #: ``(worker_id, reason, backoff seconds)`` per crash.
        self.crashes: list[tuple[int, str, float]] = []
        #: Successful fleet-wide generation swaps.
        self.swaps = 0

    # -- lifecycle ------------------------------------------------------
    @property
    def port(self) -> int:
        """The shared listening port all workers accept on."""
        if self._port is None:
            raise RuntimeError("fleet is not started")
        return self._port

    @property
    def workers(self) -> int:
        return len(self._handles)

    @property
    def generation(self) -> int:
        """The current index generation (0 at start, +1 per reload)."""
        return self._generation

    @property
    def segment(self) -> str:
        """Shared-memory segment name of the current generation."""
        return f"{self._base_name}-g{self._generation}"

    def pids(self) -> list[int]:
        """Live worker PIDs (chaos tests kill/stop these)."""
        return [handle.pid for handle in self._handles
                if handle.alive and handle.pid is not None]

    def start(self, timeout: float | None = None) -> "WorkerFleet":
        """Publish generation 0, reserve the port, spawn the fleet.

        Blocks until every worker is listening (or raises
        :class:`FleetError` after cleaning up).
        """
        timeout = self._start_timeout if timeout is None else timeout
        # Reap segments leaked by fleets whose parent died abnormally
        # (SIGKILL skips _teardown): owner-pid liveness plus a magic
        # check keep live fleets' segments untouched.
        sweep_stale_segments()
        self._published = publish_index(self._index, name=self.segment)
        try:
            for entry, tenant_index in self._startup_tenants:
                self._publish_tenant(entry, tenant_index)
        except BaseException:
            self._unlink_all()
            raise
        self._startup_tenants.clear()
        # The parent's bound-but-not-listening SO_REUSEPORT socket
        # pins the port for the fleet's whole lifetime: port 0 is
        # resolved here once, restarted workers re-bind the same
        # number, and the kernel only hashes connections across the
        # *listening* sockets, so the placeholder never steals one.
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.bind((self._host, self._requested_port))
        except OSError:
            sock.close()
            self._unlink_all()
            raise
        self._reserve_sock = sock
        self._port = sock.getsockname()[1]
        try:
            for handle in self._handles:
                self._spawn(handle)
            deadline = time.monotonic() + timeout
            while not all(h.ready for h in self._handles):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise FleetError(
                        f"fleet start timed out: workers "
                        f"{[h.worker_id for h in self._handles if not h.ready]} "
                        f"never reported ready")
                for message in self._poll_control(remaining):
                    self._dispatch(message, during_start=True)
        except BaseException:
            self._teardown()
            raise
        self._monitor = threading.Thread(
            target=self._monitor_loop, daemon=True,
            name="repro-fleet-monitor")
        self._monitor.start()
        self.flight.record("fleet_start", workers=self.workers,
                           port=self._port)
        if self._flight_dir is not None:
            # Recorded-before-started: the spiller's immediate first
            # pass must already see fleet_start, or an early kill
            # leaves no file.
            self.flight.start_spiller(str(self._flight_dir))
        if self._requested_metrics_port is not None:
            self._start_metrics_http()
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful shutdown: stop workers, unlink shared memory."""
        if self._stopping.is_set():
            return
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout)
            self._monitor = None
        self._teardown(timeout)

    def _teardown(self, timeout: float = 10.0) -> None:
        self._stopping.set()
        if self._metrics_http is not None:
            self._metrics_http.shutdown()
            self._metrics_http.server_close()
            self._metrics_http = None
            if self._metrics_thread is not None:
                self._metrics_thread.join(5.0)
                self._metrics_thread = None
        self.flight.record("fleet_stop")
        self.flight.stop_spiller()
        # Release any scrape callers still parked on the monitor.
        with self._lock:
            stuck = list(self._scrape_requests)
            self._scrape_requests.clear()
        stuck.extend(self._scrape_active.values())
        self._scrape_active.clear()
        for job in stuck:
            job.event.set()
        for handle in self._handles:
            if handle.conn is not None:
                try:
                    handle.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
        deadline = time.monotonic() + timeout
        for handle in self._handles:
            if handle.process is not None:
                handle.process.join(
                    max(0.1, deadline - time.monotonic()))
                if handle.process.is_alive():
                    handle.process.kill()
                    handle.process.join(5.0)
            if handle.conn is not None:
                try:
                    handle.conn.close()
                except OSError:
                    pass
                handle.conn = None
        self._unlink_all()
        if self._reserve_sock is not None:
            self._reserve_sock.close()
            self._reserve_sock = None

    def _unlink_all(self) -> None:
        """Unlink the default and every tenant's current segment."""
        if self._published is not None:
            self._published.unlink()
            self._published = None
        for pub in self._tenant_pubs.values():
            if pub.published is not None:
                pub.published.unlink()
                pub.published = None
                pub.segment = None

    def _publish_tenant(self, entry: CatalogEntry,
                        index) -> PublishedIndex | None:
        """Budget-check and publish one tenant index generation.

        Returns the *previous* generation's segment — the caller
        unlinks it only after every worker has acked the new one, so
        in-flight attaches never race an unlink.
        """
        self._catalog.check_budget(entry, index)
        pub = self._tenant_pubs[entry.name]
        if pub.published is not None:
            pub.generation += 1
        segment = (f"{self._base_name}-i{entry.index_id}"
                   f"-g{pub.generation}")
        old = pub.published
        pub.published = publish_index(index, name=segment)
        pub.segment = segment
        return old

    def __enter__(self) -> "WorkerFleet":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- worker processes -----------------------------------------------
    def _spawn(self, handle: _WorkerHandle) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        options = dict(self._server_options)
        options["default_generation"] = self._default_generation
        # Current tenant manifest: a respawned worker attaches every
        # tenant's *current* generation, not the one at fleet start.
        options["tenants"] = [
            {"name": entry.name, "index_id": entry.index_id,
             "scheme": entry.scheme, "quota": entry.quota.as_dict(),
             "generation": entry.generation,
             "segment": self._tenant_pubs[entry.name].segment}
            for entry in self._catalog.entries()
            if entry.name in self._tenant_pubs]
        process = self._ctx.Process(
            target=worker_main,
            args=(handle.worker_id, self.segment, self._scheme,
                  self._host, self._port, options, child_conn),
            daemon=True,
            name=f"repro-worker-{handle.worker_id}")
        process.start()
        child_conn.close()
        handle.process = process
        handle.conn = parent_conn
        handle.ready = False
        handle.started_at = time.monotonic()
        handle.ping_sent = None
        handle.last_probe = time.monotonic()

    def _handle_for_conn(self, conn) -> _WorkerHandle | None:
        for handle in self._handles:
            if handle.conn is conn:
                return handle
        return None

    def _poll_control(self, timeout: float) -> list[tuple]:
        """One ``connection.wait`` round over worker pipes + sentinels.

        Returns ``("msg", handle, message)`` and ``("died", handle)``
        events; closed pipes surface as deaths once the sentinel
        fires.
        """
        conns = {h.conn: h for h in self._handles
                 if h.conn is not None}
        sentinels = {h.process.sentinel: h for h in self._handles
                     if h.process is not None and h.process.is_alive()}
        waitables = list(conns) + list(sentinels)
        if not waitables:
            time.sleep(min(timeout, 0.05))
            return []
        events: list[tuple] = []
        for obj in mp_connection.wait(waitables, timeout):
            if obj in conns:
                handle = conns[obj]
                try:
                    while handle.conn.poll():
                        events.append(("msg", handle,
                                       handle.conn.recv()))
                except (EOFError, OSError):
                    pass  # the sentinel will report the death
            else:
                events.append(("died", sentinels[obj]))
        return events

    # -- supervision ----------------------------------------------------
    def _monitor_loop(self) -> None:
        while not self._stopping.is_set():
            while self._deferred and not self._stopping.is_set():
                self._dispatch(self._deferred.popleft())
            self._start_scrapes()
            for event in self._poll_control(0.2):
                if self._stopping.is_set():
                    break
                self._dispatch(event)
            self._run_probes()
            self._expire_scrapes()

    def _run_probes(self) -> None:
        """Ping ready workers; kill one that stayed silent too long.

        Timeouts are checked *after* this iteration's pipe drain, so a
        pong that queued while the monitor was busy (a long rebuild
        during a fleet reload) counts before the deadline does — only
        a genuinely unresponsive worker is replaced.
        """
        if self._probe_interval is None:
            return
        now = time.monotonic()
        for handle in self._handles:
            if not (handle.ready and handle.alive
                    and handle.conn is not None):
                continue
            if handle.ping_sent is not None:
                if now - handle.ping_sent > self._probe_timeout:
                    self.crashes.append(
                        (handle.worker_id,
                         "liveness probe timed out", 0.0))
                    handle.ping_sent = None
                    handle.process.kill()
            elif now - handle.last_probe >= self._probe_interval:
                handle.ping_seq += 1
                handle.last_probe = now
                try:
                    handle.conn.send(("ping", handle.ping_seq))
                except (BrokenPipeError, OSError):
                    continue
                handle.ping_sent = now

    def _dispatch(self, event: tuple,
                  during_start: bool = False) -> None:
        kind, handle = event[0], event[1]
        if kind == "died":
            if during_start:
                raise FleetError(
                    f"worker {handle.worker_id} exited during startup")
            self._restart(handle)
            return
        message = event[2]
        verb = message[0]
        if verb == "ready":
            handle.ready = True
        elif verb == "pong":
            handle.ping_sent = None
        elif verb == "reload":
            _, worker_id, token, payload = message
            self._fleet_reload(handle, token, payload)
        elif verb == "catalog":
            _, worker_id, token, payload = message
            self._fleet_catalog(handle, token, payload)
        elif verb == "scrape_result":
            _, worker_id, token, text = message
            job = self._scrape_active.get(token)
            if job is not None:
                job.results[worker_id] = text
                if set(job.results) >= job.expected:
                    self._scrape_active.pop(token, None)
                    job.event.set()
        elif verb in ("attach_failed", "start_failed"):
            # The worker exits right after sending this; the sentinel
            # delivers the restart.  Keep the reason for the crash log.
            self.crashes.append(
                (handle.worker_id, f"{verb}: {message[2]}", 0.0))
            if during_start:
                raise FleetError(
                    f"worker {handle.worker_id} failed to start: "
                    f"{message[2]}")
        # "swap_ok"/"swap_err" outside an orchestration window and
        # "bye" acknowledgements need no action here.

    def _backoff(self, consecutive: int) -> float:
        delay = min(self._base_delay * (2 ** (consecutive - 1)),
                    self._max_delay)
        if self._jitter:
            delay *= 1.0 + self._jitter * (2.0 * self._rng.random() - 1.0)
        return delay

    def _restart(self, handle: _WorkerHandle) -> None:
        """Supervisor action for one dead worker: backoff, respawn
        onto the current generation, rejoin the shared port."""
        if handle.process is not None:
            handle.process.join(0.1)
        uptime = time.monotonic() - handle.started_at
        if uptime >= self._healthy_after:
            handle.consecutive_crashes = 0  # earned a fresh budget
        handle.consecutive_crashes += 1
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:
                pass
            handle.conn = None
        handle.process = None
        handle.ready = False
        self.flight.record("worker_died", worker=handle.worker_id,
                           uptime=round(uptime, 3))
        if self._max_restarts is not None \
                and handle.consecutive_crashes > self._max_restarts:
            handle.abandoned = True
            self.crashes.append(
                (handle.worker_id, "restart budget exhausted", 0.0))
            self.flight.record("worker_abandoned",
                               worker=handle.worker_id)
            self.flight.dump(reason="abandoned")
            if not any(h.alive or not h.abandoned
                       for h in self._handles):
                # Last worker gone: nothing serves the port any more.
                self._stopping.set()
            return
        delay = self._backoff(handle.consecutive_crashes)
        self.crashes.append(
            (handle.worker_id, "worker process died", delay))
        if self._stopping.wait(delay):
            return
        self.restarts += 1
        self._spawn(handle)
        self.flight.record("worker_respawn", worker=handle.worker_id,
                           restarts=self.restarts,
                           backoff=round(delay, 3))
        # A respawn is a fault-window trigger: persist the supervision
        # ring so post-mortems see what led up to the death even if the
        # parent dies next.
        self.flight.dump(reason="respawn")

    # -- generation-aware fleet reload ----------------------------------
    def reload(self, *, graph=None, index=None,
               scheme: str | None = None,
               name: str | None = None) -> dict:
        """Parent-initiated fleet reload (same contract as the verb).

        Goes through a real worker connection on purpose, so the
        public entry point and a client-sent ``reload`` exercise the
        identical forward → rebuild → publish → swap → ack pipeline.
        ``name`` targets a tenant entry, as in the verb.
        """
        from repro.server.client import ReachClient

        with ReachClient(self._host, self.port, timeout=180.0) as client:
            return client.reload(graph=graph, index=index, scheme=scheme,
                                 name=name)

    def _fleet_reload(self, requester: _WorkerHandle, token: int,
                      payload: dict) -> None:
        """Rebuild once, move every worker, then answer the requester.

        Runs on the monitor thread; control messages that arrive while
        the acks drain are deferred, which serialises concurrent
        reload requests (the second rebuilds on top of the first's
        generation — last writer wins, same as the single server).
        """
        try:
            summary = self._rebuild_and_swap(payload)
        except Exception as exc:
            # Catch-all on purpose: this runs on the monitor thread,
            # and an escaped exception (say a KeyError from an unknown
            # scheme name) would kill the fleet's whole control plane,
            # not just this request.
            self._reply_reload(requester, token, False,
                               f"{type(exc).__name__}: {exc}")
        else:
            self._reply_reload(requester, token, True, summary)

    def _reply_reload(self, requester: _WorkerHandle, token: int,
                      ok: bool, doc) -> None:
        if requester.conn is None:
            return  # the requester died mid-reload; nobody to answer
        try:
            requester.conn.send(("reload_result", token, ok, doc))
        except (BrokenPipeError, OSError):
            pass

    @staticmethod
    def _rebuild_index(payload: dict, default_scheme: str):
        """Build or load the payload's index (shared by the default
        reload and the tenant build/load paths)."""
        graph_path = payload.get("graph")
        index_path = payload.get("index")
        if bool(graph_path) == bool(index_path):
            raise ReproError(
                "reload requires exactly one of 'graph' or 'index'")
        scheme = payload.get("scheme", default_scheme)
        if not isinstance(scheme, str):
            raise ReproError("scheme must be a string")

        from repro.core.base import build_index
        from repro.graph.io import read_edge_list

        started = time.perf_counter()
        if index_path:
            new_index = load_dual_index(index_path)
        else:
            new_index = build_index(read_edge_list(graph_path),
                                    scheme=scheme)
        build_seconds = time.perf_counter() - started
        scheme_name = type(new_index).scheme_name or scheme
        return new_index, scheme_name, build_seconds

    def _persist_install(self, name: str, index_id: int, index,
                         scheme_name: str) -> int | None:
        """Journal a new generation before the fleet serves it.

        The fleet twin of the single-server commit ordering: artifact
        first, then the fsynced ``install`` record — only after this
        returns is the segment published, workers swapped, and the
        requester acknowledged.  Returns the durable generation
        (``None`` without ``--state-dir``); failures propagate as
        build failures, so an un-persistable generation never serves.
        """
        if self._state is None:
            return None
        from repro.server.durability import index_label_bytes

        generation = self._state.next_generation(name)
        artifact = self._state.save_index(index, name, generation)
        self._state.record_install(
            name, index_id=index_id, scheme=scheme_name,
            generation=generation,
            label_bytes=index_label_bytes(index), artifact=artifact)
        return generation

    def _rebuild_and_swap(self, payload: dict) -> dict:
        name = payload.get("name")
        if name not in (None, "default"):
            entry = self._catalog.lookup(name)  # unknown_index if not
            return self._tenant_swap(entry, payload)
        new_index, scheme_name, build_seconds = self._rebuild_index(
            payload, self._scheme)
        durable_gen = self._persist_install("default", 0, new_index,
                                            scheme_name)
        if durable_gen is not None:
            self._default_generation = durable_gen
            self._catalog.default.generation = durable_gen

        old_published = self._published
        self._generation += 1
        self._published = publish_index(new_index, name=self.segment)
        self._scheme = scheme_name
        acked = self._broadcast_swap(self.segment, scheme_name, 0)
        if old_published is not None:
            old_published.unlink()
        self.swaps += 1
        self.flight.record("swap", index="default",
                           generation=self._generation,
                           workers=len(acked))
        stats = new_index.stats()
        return {
            "swapped": True,
            "index_name": "default",
            "scheme": scheme_name,
            "source": "index" if payload.get("index") else "graph",
            "nodes": stats.num_nodes,
            "edges": stats.num_edges,
            "build_seconds": build_seconds,
            "phase_seconds": dict(stats.phase_seconds),
            "index_swaps": self.swaps,
            "generation": self._generation,
            "workers": len(acked),
        }

    def _tenant_swap(self, entry: CatalogEntry, payload: dict) -> dict:
        """Rebuild one tenant's index and move the whole fleet to it.

        The per-index mirror of the default reload pipeline: publish
        the tenant's next ``/dev/shm`` generation, command every
        worker to swap *that entry only*, collect acks, then unlink
        the previous generation.  Other tenants' segments and lanes
        are untouched throughout.
        """
        new_index, scheme_name, build_seconds = self._rebuild_index(
            payload, entry.scheme)
        # Admission before the durable commit (publish re-checks, but
        # an over-budget index must never reach the journal).
        self._catalog.check_budget(entry, new_index)
        durable_gen = self._persist_install(
            entry.name, entry.index_id, new_index, scheme_name)
        old_published = self._publish_tenant(entry, new_index)
        entry.scheme = scheme_name
        if durable_gen is not None:
            entry.generation = durable_gen
        pub = self._tenant_pubs[entry.name]
        acked = self._broadcast_swap(pub.segment, scheme_name,
                                     entry.index_id)
        if old_published is not None:
            old_published.unlink()
        self.swaps += 1
        self.flight.record("swap", index=entry.name,
                           generation=pub.generation,
                           workers=len(acked))
        stats = new_index.stats()
        return {
            "swapped": True,
            "index_name": entry.name,
            "scheme": scheme_name,
            "source": "index" if payload.get("index") else "graph",
            "nodes": stats.num_nodes,
            "edges": stats.num_edges,
            "build_seconds": build_seconds,
            "phase_seconds": dict(stats.phase_seconds),
            "index_swaps": self.swaps,
            "generation": pub.generation,
            "workers": len(acked),
        }

    def _broadcast_swap(self, segment: str, scheme_name: str,
                        index_id: int) -> set:
        """Send one swap command fleet-wide and collect the acks;
        stragglers are killed and respawn onto the new generation."""
        targets = [h for h in self._handles
                   if h.conn is not None and h.alive]
        for handle in targets:
            try:
                handle.conn.send(("swap", segment, scheme_name,
                                  index_id))
            except (BrokenPipeError, OSError):
                pass
        acked = self._collect_swap_acks(targets, segment)
        for handle in targets:
            if handle not in acked and handle.alive \
                    and handle.process is not None:
                # Straggler or failed attach: kill it; the supervisor
                # respawns it directly onto the new generation.
                handle.process.kill()
        return acked

    # -- fleet-wide catalog mutations -----------------------------------
    def _fleet_catalog(self, requester: _WorkerHandle, token: int,
                       payload: dict) -> None:
        """Serve one forwarded catalog mutation and answer the
        requester (runs on the monitor thread, like reloads)."""
        try:
            result = self._catalog_mutation(payload)
        except ProtocolError as exc:
            self._reply_catalog(requester, token, False,
                                {"code": exc.code,
                                 "message": exc.message})
        except Exception as exc:
            # Same catch-all rationale as _fleet_reload: the monitor
            # thread must survive any single bad request.
            self._reply_catalog(
                requester, token, False,
                {"code": protocol.ERR_RELOAD_FAILED,
                 "message": f"{type(exc).__name__}: {exc}"})
        else:
            self._reply_catalog(requester, token, True, result)

    def _reply_catalog(self, requester: _WorkerHandle, token: int,
                       ok: bool, doc) -> None:
        if requester.conn is None:
            return
        try:
            requester.conn.send(("catalog_result", token, ok, doc))
        except (BrokenPipeError, OSError):
            pass

    def _catalog_mutation(self, payload: dict) -> dict:
        op = payload.get("op")
        if op == "create":
            quota = TenantQuota.from_payload(payload.get("quota"))
            scheme = payload.get("scheme", self._scheme)
            if not isinstance(scheme, str):
                raise ProtocolError(protocol.ERR_BAD_REQUEST,
                                    "scheme must be a string")
            entry = self._catalog.create(payload.get("name"),
                                         scheme=scheme, quota=quota)
            if self._state is not None:
                try:
                    self._state.record_create(
                        entry.name, index_id=entry.index_id,
                        scheme=scheme, quota=quota.as_dict())
                except (ReproError, OSError):
                    # Undo before replying: a create that never became
                    # durable must not exist anywhere in the fleet.
                    self._catalog.drop(entry.name)
                    raise
            self._tenant_pubs[entry.name] = _TenantPub()
            spec = {"name": entry.name, "index_id": entry.index_id,
                    "scheme": entry.scheme,
                    "quota": entry.quota.as_dict(),
                    "generation": entry.generation, "segment": None}
            # Pipe FIFO ordering makes the requester's create land
            # before its client reply is released below.
            for handle in self._handles:
                if handle.conn is not None and handle.alive:
                    try:
                        handle.conn.send(("catalog_create", spec))
                    except (BrokenPipeError, OSError):
                        pass
            self.flight.record("catalog", op="create",
                               index=entry.name)
            return {"created": entry.name, "index_id": entry.index_id,
                    "quota": entry.quota.as_dict()}
        if op == "drop":
            entry = self._catalog.drop(payload.get("name"))
            if self._state is not None:
                # Journal before the broadcast: once any worker stops
                # answering for this entry the drop must be durable.
                self._state.record_drop(entry.name)
            pub = self._tenant_pubs.pop(entry.name, None)
            for handle in self._handles:
                if handle.conn is not None and handle.alive:
                    try:
                        handle.conn.send(("catalog_drop", entry.name))
                    except (BrokenPipeError, OSError):
                        pass
            # Workers attach at spawn/swap time only, so the segment
            # can be unlinked as soon as the drop is broadcast —
            # already-attached mappings stay valid until process exit.
            if pub is not None and pub.published is not None:
                pub.published.unlink()
            self.flight.record("catalog", op="drop", index=entry.name)
            return {"dropped": entry.name, "index_id": entry.index_id}
        if op == "quota":
            entry = self._catalog.lookup(payload.get("name"))
            quota = TenantQuota.from_payload(payload.get("quota"))
            if self._state is not None \
                    and entry.index_id != DEFAULT_INDEX_ID:
                # Journal before the in-memory apply and the
                # broadcast: an acked quota must survive a restart.
                self._state.record_quota(entry.name, quota.as_dict())
            self._catalog.update_quota(entry, quota)
            self.flight.record("catalog", op="quota",
                               index=entry.name)
            for handle in self._handles:
                if handle.conn is not None and handle.alive:
                    try:
                        handle.conn.send(("catalog_quota", entry.name,
                                          quota.as_dict()))
                    except (BrokenPipeError, OSError):
                        pass
            return {"updated": entry.name, "index_id": entry.index_id,
                    "quota": quota.as_dict()}
        if op in ("build", "load"):
            entry = self._catalog.lookup(payload.get("name"))
            if entry.name not in self._tenant_pubs:
                raise ProtocolError(
                    protocol.ERR_BAD_REQUEST,
                    "use the reload verb for the default index")
            field_name = "graph" if op == "build" else "index"
            source = payload.get(field_name)
            if not isinstance(source, str) or not source:
                raise ProtocolError(
                    protocol.ERR_BAD_REQUEST,
                    f"catalog {op} requires a {field_name!r} path")
            swap_payload: dict[str, Any] = {field_name: source}
            if "scheme" in payload:
                swap_payload["scheme"] = payload["scheme"]
            return self._tenant_swap(entry, swap_payload)
        raise ProtocolError(
            protocol.ERR_BAD_REQUEST,
            f"unknown catalog op {op!r}; supported: create, build, "
            f"load, drop, quota, list")

    def _collect_swap_acks(self, targets, segment: str) -> set:
        """Drain worker pipes until every target acked the new
        generation (or the swap timeout passes).  Non-ack messages are
        deferred for the monitor loop."""
        acked: set[_WorkerHandle] = set()
        deadline = time.monotonic() + self._swap_timeout
        while len(acked) < len(targets):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            for event in self._poll_control(remaining):
                if event[0] != "msg":
                    self._deferred.append(event)
                    continue
                handle, message = event[1], event[2]
                if message[0] == "swap_ok" and message[2] == segment:
                    acked.add(handle)
                elif message[0] == "swap_err" \
                        and message[2] == segment:
                    targets = [t for t in targets if t is not handle]
                    if handle.process is not None:
                        handle.process.kill()
                else:
                    self._deferred.append(event)
        return acked

    # -- fleet-wide metrics scrape --------------------------------------
    def scrape(self, timeout: float = 5.0) -> str:
        """One merged Prometheus exposition covering every live worker.

        Callable from any thread: the job is handed to the monitor
        thread (which owns the control pipes), each ready worker
        answers with its own exposition, and the texts are merged into
        a single valid scrape document — per-worker ``worker="<id>"``
        labels keep every series attributable.  Workers that fail to
        answer within ``timeout`` are simply absent from the result,
        so a hung worker degrades the scrape instead of failing it.
        """
        job = _ScrapeJob(next(self._scrape_tokens),
                         time.monotonic() + timeout)
        if self._stopping.is_set():
            return ""
        with self._lock:
            self._scrape_requests.append(job)
        job.event.wait(timeout + 1.0)
        texts = [job.results[wid] for wid in sorted(job.results)]
        return merge_expositions(texts)

    def _start_scrapes(self) -> None:
        """Broadcast queued scrape jobs (monitor thread only)."""
        while True:
            with self._lock:
                if not self._scrape_requests:
                    return
                job = self._scrape_requests.popleft()
            targets = [h for h in self._handles
                       if h.ready and h.alive and h.conn is not None]
            for handle in targets:
                try:
                    handle.conn.send(("scrape", job.token))
                except (BrokenPipeError, OSError):
                    continue
                job.expected.add(handle.worker_id)
            if not job.expected:
                job.event.set()
            else:
                self._scrape_active[job.token] = job

    def _expire_scrapes(self) -> None:
        """Release scrape callers whose deadline passed with
        stragglers outstanding (monitor thread only)."""
        if not self._scrape_active:
            return
        now = time.monotonic()
        for token, job in list(self._scrape_active.items()):
            if now >= job.deadline:
                self._scrape_active.pop(token, None)
                job.event.set()

    @property
    def metrics_port(self) -> int | None:
        """Bound port of the fleet ``/metrics`` endpoint (``None``
        when not serving one)."""
        if self._metrics_http is None:
            return None
        return self._metrics_http.server_address[1]

    def _start_metrics_http(self) -> None:
        from http.server import (BaseHTTPRequestHandler,
                                 ThreadingHTTPServer)

        fleet = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (stdlib name)
                if self.path.split("?", 1)[0] != "/metrics":
                    self.send_error(404, "only /metrics is served")
                    return
                try:
                    body = fleet.scrape().encode("utf-8")
                except Exception as exc:
                    self.send_error(500, f"scrape failed: {exc}")
                    return
                self.send_response(200)
                self.send_header("Content-Type", CONTENT_TYPE)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: Any) -> None:
                pass  # scrapes are periodic; stderr noise helps nobody

        server = ThreadingHTTPServer(
            (self._host, self._requested_metrics_port), Handler)
        self._metrics_http = server
        self._metrics_thread = threading.Thread(
            target=server.serve_forever, daemon=True,
            name="repro-fleet-metrics")
        self._metrics_thread.start()

    # -- introspection --------------------------------------------------
    def describe(self) -> dict:
        """Operational snapshot for the CLI banner and the tests."""
        return {
            "workers": self.workers,
            "port": self._port,
            "scheme": self._scheme,
            "generation": self._generation,
            "segment": self.segment,
            "restarts": self.restarts,
            "swaps": self.swaps,
            "pids": self.pids(),
            "protocol_version": protocol.PROTOCOL_VERSION,
            "tenants": [
                {"name": entry.name, "index_id": entry.index_id,
                 "scheme": entry.scheme,
                 "generation": self._tenant_pubs[entry.name].generation,
                 "segment": self._tenant_pubs[entry.name].segment}
                for entry in self._catalog.entries()
                if entry.name in self._tenant_pubs],
        }
