"""Load drivers: an open loop of newline-JSON point queries and a
closed, windowed loop of binary frames.

Both run in the calling thread over blocking sockets polled with
``select.select``, whose timeout has microsecond resolution (an epoll
selector rounds waits up to whole milliseconds, which would make every
send up to 1 ms late).  Request bytes and expected answers are built
before the clock starts, so the timed loop only sends, receives and
compares.

``repro.server.loadgen.run_loadgen(rate=...)`` is deliberately not
used: it sleeps after each send and times from the actual send, which
drops the wait a stall imposes on the requests queued behind it.
"""

from __future__ import annotations

import functools
import gc
import json
import select
import socket
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.server import binproto

# Per-request status codes (0: no reply yet).
CORRECT, WRONG, ERROR = 1, 2, 3


class DriverError(RuntimeError):
    """The driver could not talk to the server at all."""


@dataclass
class ClientTrace:
    """Per-request client timestamps of a traced run (perf_counter s).

    Turned into spans only after the window (see ``trace.py``), so the
    timed loop pays a few list stores per request.
    """

    write_end: list[float]
    decode_start: list[float]
    decode_end: list[float]
    verify_end: list[float]

    @classmethod
    def sized(cls, n: int) -> "ClientTrace":
        return cls([0.0] * n, [0.0] * n, [0.0] * n, [0.0] * n)


@dataclass
class LoopResult:
    """What one driver window observed, request by request."""

    sent: list[float]
    received: list[float | None]
    status: bytearray
    errors: Counter = field(default_factory=Counter)
    due: list[float] | None = None
    trace: ClientTrace | None = None

    @property
    def correct(self) -> int:
        return self.status.count(CORRECT)

    @property
    def wrong(self) -> int:
        return self.status.count(WRONG)

    @property
    def failed(self) -> int:
        """Requests that got no correct reply (wrong, error, timeout)."""
        return len(self.status) - self.correct

    def lateness(self) -> list[float]:
        """Seconds each open-loop send ran behind its due time."""
        return [s - d for s, d in zip(self.sent, self.due)]


def collector_paused(loop):
    """Keep the client's cyclic garbage collector out of a timed loop.

    A full collection walks every tracked object and would stall the
    generator for milliseconds that the due-time latency would then
    charge to the server.  The loops make no reference cycles, so
    nothing accumulates meanwhile.
    """
    @functools.wraps(loop)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return loop(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()
    return paused


def query_line(request_id: int, u, v) -> bytes:
    """A ``query`` request line (what any JSON client would send)."""
    return b'{"id":%d,"verb":"query","u":%s,"v":%s}\n' % (
        request_id, json.dumps(u).encode(), json.dumps(v).encode())


@collector_paused
def run_open_loop(socks: list[socket.socket], lines: list[bytes],
                  expected: list[bool], *, start: float, rate: float,
                  id_base: int = 0, reply_timeout: float = 10.0,
                  trace: bool = False) -> LoopResult:
    """Send ``lines[i]`` at ``start + i / rate`` regardless of replies.

    Request ``i`` carries id ``id_base + i`` and goes out on
    ``socks[i % len(socks)]``; its reply must be ``expected[i]``.
    Replies still missing ``reply_timeout`` seconds after the last due
    time count as timeouts.
    """
    n = len(lines)
    gap = 1.0 / rate
    due = [start + i * gap for i in range(n)]
    result = LoopResult(sent=[0.0] * n, received=[None] * n,
                        status=bytearray(n), due=due)
    tr = result.trace = ClientTrace.sized(n) if trace else None
    sent, received, status, errors = (result.sent, result.received,
                                      result.status, result.errors)
    live = list(socks)
    buffers = {s: b"" for s in socks}
    nsock = len(socks)
    perf = time.perf_counter
    loads = json.loads
    pending = n
    i = 0
    give_up = due[-1] + reply_timeout if n else 0.0
    while pending:
        now = perf()
        while i < n and due[i] <= now:
            sent[i] = perf()
            try:
                socks[i % nsock].sendall(lines[i])
            except OSError:
                status[i] = ERROR
                errors["send_failed"] += 1
                received[i] = sent[i]
                pending -= 1
            if tr is not None:
                tr.write_end[i] = perf()
            i += 1
        now = perf()
        if i < n:
            wait = due[i] - now
        else:
            wait = give_up - now
            if wait <= 0:
                break
        if not live:
            break
        readable, _, _ = select.select(live, (), (), max(wait, 0.0))
        for sock in readable:
            chunk = sock.recv(1 << 18)
            arrived = perf()
            if not chunk:
                live.remove(sock)
                continue
            *complete, buffers[sock] = (buffers[sock] + chunk).split(b"\n")
            for line in complete:
                decode_start = perf()
                doc = loads(line)
                rid = doc.get("id")
                decode_end = perf()
                if type(rid) is not int or not 0 <= rid - id_base < n \
                        or received[rid - id_base] is not None:
                    errors["stray_reply"] += 1
                    continue
                rid -= id_base
                received[rid] = arrived
                pending -= 1
                if doc.get("ok"):
                    status[rid] = CORRECT \
                        if doc.get("result") is expected[rid] else WRONG
                else:
                    status[rid] = ERROR
                    errors[str(doc.get("error"))] += 1
                if tr is not None:
                    tr.decode_start[rid] = decode_start
                    tr.decode_end[rid] = decode_end
                    tr.verify_end[rid] = perf()
    for k in range(n):
        if received[k] is None:
            errors["timeout"] += 1
    return result


# -- binary frames ---------------------------------------------------------

def negotiate_binary(sock: socket.socket) -> dict:
    """Switch a fresh connection to binary frames; returns the HELLO."""
    sock.sendall(binproto.MAGIC_LINE)
    head = _read_exactly(sock, binproto.HEADER_SIZE)
    magic, opcode, _, _, length, _ = binproto.HEADER.unpack(head)
    payload = _read_exactly(sock, length)
    if magic != binproto.FRAME_MAGIC or opcode != binproto.OP_HELLO:
        raise DriverError(f"binary negotiation failed: opcode {opcode:#x} "
                          f"{payload[:200]!r}")
    return binproto.decode_hello(payload)


def _read_exactly(sock: socket.socket, n: int) -> bytes:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise DriverError("connection closed mid-frame")
        buf += chunk
    return buf


def bitmap_matches(count: int, got: bytes, want: bytes) -> bool:
    """Whether an answer bitmap carries exactly the expected ``count``
    answers (padding bits past ``count`` are not compared)."""
    full, rest = divmod(count, 8)
    if len(got) < full + (1 if rest else 0):
        return False
    if got[:full] != want[:full]:
        return False
    mask = (1 << rest) - 1
    return not rest or (got[full] & mask) == (want[full] & mask)


def batch_frames(payloads: list[bytes], conn: int) -> list[bytes]:
    """Full ``BATCH`` frames of one connection: frame ``k`` carries
    request id ``conn * len(payloads) + k``, so ids stay unique while
    fewer than ``len(payloads)`` frames are in flight per connection."""
    base = conn * len(payloads)
    return [binproto.encode_frame(binproto.OP_BATCH, base + k, payload)
            for k, payload in enumerate(payloads)]


@collector_paused
def run_closed_loop(socks: list[socket.socket],
                    frames: list[list[bytes]], expected: list[bytes],
                    pairs_per_frame: int, *, count: int, window: int,
                    reply_timeout: float = 30.0,
                    trace: bool = False) -> LoopResult:
    """Exactly ``count`` frames, ``window`` in flight per connection.

    ``frames[c][k]`` (from :func:`batch_frames`) is answered by
    ``expected[k]``; each connection cycles through its frames.  The
    loop is bounded by work, not by a timer, so every request it sends
    is also completed and timed.
    """
    nconn = len(socks)
    kinds = len(expected)
    if window >= kinds:
        raise ValueError("window must be smaller than the frame pool")
    quota = [count // nconn + (1 if c < count % nconn else 0)
             for c in range(nconn)]
    result = LoopResult(sent=[0.0] * count, received=[None] * count,
                        status=bytearray(count))
    tr = result.trace = ClientTrace.sized(count) if trace else None
    sent, received, status, errors = (result.sent, result.received,
                                      result.status, result.errors)
    conn_of = {sock: c for c, sock in enumerate(socks)}
    issued = [0] * nconn
    # request id -> sequence number of the in-flight request using it.
    inflight: dict[int, int] = {}
    buffers = {sock: bytearray() for sock in socks}
    seq = 0
    perf = time.perf_counter
    unpack_head = binproto.HEADER.unpack_from
    head_size = binproto.HEADER_SIZE

    def issue(c: int) -> None:
        nonlocal seq
        k = issued[c] % kinds
        issued[c] += 1
        inflight[c * kinds + k] = seq
        sent[seq] = perf()
        socks[c].sendall(frames[c][k])
        if tr is not None:
            tr.write_end[seq] = perf()
        seq += 1

    for c in range(nconn):
        for _ in range(min(window, quota[c])):
            issue(c)
    done = 0
    while done < count:
        readable, _, _ = select.select(socks, (), (), reply_timeout)
        if not readable:
            break
        for sock in readable:
            chunk = sock.recv(1 << 18)
            arrived = perf()
            if not chunk:
                raise DriverError("server closed a binary connection")
            buf = buffers[sock]
            buf += chunk
            offset = 0
            while len(buf) - offset >= head_size:
                decode_start = perf()
                _, opcode, _, rid, length, _ = unpack_head(buf, offset)
                end = offset + head_size + length
                if len(buf) < end:
                    break
                payload = bytes(buf[offset + head_size:end])
                offset = end
                number = inflight.pop(rid, None)
                decode_end = perf()
                if number is None:
                    errors["stray_reply"] += 1
                    continue
                received[number] = arrived
                done += 1
                if opcode == binproto.OP_ANSWERS:
                    n_answers = int.from_bytes(payload[:4], "little")
                    ok = n_answers == pairs_per_frame and bitmap_matches(
                        n_answers, payload[4:], expected[rid % kinds])
                    status[number] = CORRECT if ok else WRONG
                else:
                    status[number] = ERROR
                    code = payload[0] if payload else 0
                    errors[binproto.ERROR_NAMES.get(code, str(code))] += 1
                if tr is not None:
                    tr.decode_start[number] = decode_start
                    tr.decode_end[number] = decode_end
                    tr.verify_end[number] = perf()
                c = conn_of[sock]
                if issued[c] < quota[c]:
                    issue(c)
            del buf[:offset]
    if done < count:
        errors["timeout"] += count - done
    return result
