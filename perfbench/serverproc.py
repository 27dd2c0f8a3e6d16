"""The server under test: a ``repro-reach serve`` subprocess per launch.

Each launch is timed from just before the process is spawned to the
first ``ready: true`` reply (``setup_s``).  Shutdown is SIGTERM, the
way an orchestrator stops the service, followed by checks that every
process of the tree ended and that no ``/dev/shm`` segment leaked.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from perfbench import measure

_BANNER = re.compile(rb" on 127\.0\.0\.1:(\d+)")

#: Seconds a launch may take to answer ``ready`` (a 10^5-node build
#: takes a few seconds; a wedged boot must still fail the run).
READY_TIMEOUT = 120.0
#: Seconds a SIGTERMed server tree gets to exit cleanly.
STOP_TIMEOUT = 30.0


class ServerError(RuntimeError):
    """The server failed to start, answer or stop cleanly."""


def rpc(sock: socket.socket, doc: dict, *, timeout: float = 60.0) -> dict:
    """One blocking newline-JSON exchange on an idle connection.

    Lines that answer other ids (late replies of a finished driver)
    are skipped.
    """
    sock.settimeout(timeout)
    sock.sendall(json.dumps(doc).encode() + b"\n")
    buf = b""
    while True:
        while b"\n" not in buf:
            chunk = sock.recv(1 << 16)
            if not chunk:
                raise ServerError("connection closed during rpc")
            buf += chunk
        line, buf = buf.split(b"\n", 1)
        reply = json.loads(line)
        if reply.get("id") == doc.get("id"):
            return reply


def connect(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


class ServerProcess:
    """One ``serve`` launch with its logs under ``run_dir``."""

    def __init__(self, checkout: Path, run_dir: Path,
                 serve_args: list[str], label: str) -> None:
        self.checkout = checkout
        self.run_dir = run_dir
        self.serve_args = serve_args
        self.label = label
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.setup_s = 0.0
        self._known_pids: set[int] = set()

    def start(self) -> float:
        """Spawn, wait for ``ready``; returns and records ``setup_s``."""
        out_path = self.run_dir / f"{self.label}.out"
        err_path = self.run_dir / f"{self.label}.err"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.checkout / "src")
        # A fixed hash seed takes one source of run-to-run layout
        # variation out of the server's dicts and sets.
        env["PYTHONHASHSEED"] = "0"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.perf_counter()
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 *self.serve_args, "--port", "0"],
                cwd=self.run_dir, env=env, stdout=out, stderr=err,
                stdin=subprocess.DEVNULL, start_new_session=True)
        deadline = started + READY_TIMEOUT
        while not self.port:
            match = _BANNER.search(out_path.read_bytes())
            if match:
                self.port = int(match.group(1))
            else:
                self._check_alive(deadline)
                time.sleep(0.002)
        while not self._ready():
            self._check_alive(deadline)
            time.sleep(0.002)
        self.setup_s = time.perf_counter() - started
        self._known_pids.update(self.pids())
        return self.setup_s

    def _ready(self) -> bool:
        try:
            with connect(self.port) as sock:
                reply = rpc(sock, {"id": 1, "verb": "ready"})
        except (OSError, ServerError, ValueError):
            return False
        return bool(reply.get("ok") and reply["result"].get("ready"))

    def _check_alive(self, deadline: float) -> None:
        if self.proc.poll() is not None:
            raise ServerError(f"{self.label}: serve exited with "
                              f"{self.proc.returncode}: {self.stderr_tail()}")
        if time.perf_counter() > deadline:
            raise ServerError(f"{self.label}: not ready after "
                              f"{READY_TIMEOUT:.0f}s")

    def stderr_tail(self, limit: int = 2000) -> str:
        path = self.run_dir / f"{self.label}.err"
        try:
            return path.read_text(errors="replace")[-limit:]
        except OSError:
            return ""

    def pids(self) -> list[int]:
        """The live server process tree (parent first)."""
        pids = measure.process_tree(self.proc.pid)
        self._known_pids.update(pids)
        return pids

    def stop(self) -> None:
        """SIGTERM, wait, and require the whole tree to have ended.

        A tree that outlives :data:`STOP_TIMEOUT` is SIGKILLed (so the
        run never leaves processes behind) and the run fails.
        """
        if self.proc is None:
            return
        self.pids()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        clean = True
        try:
            self.proc.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            clean = False
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait(timeout=STOP_TIMEOUT)
        deadline = time.monotonic() + STOP_TIMEOUT
        survivors = self._survivors()
        while survivors and time.monotonic() < deadline:
            time.sleep(0.05)
            survivors = self._survivors()
        for pid in survivors:
            clean = False
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc = None
        if not clean:
            raise ServerError(f"{self.label}: server tree did not exit "
                              f"on SIGTERM: {self.stderr_tail()}")

    def _survivors(self) -> list[int]:
        alive = []
        for pid in self._known_pids:
            try:
                state = measure.stat_fields(pid)[0]
            except OSError:
                continue
            if state != "Z":
                alive.append(pid)
        return alive
