"""Metric math, /proc accounting and the host fingerprint.

Everything here is pure bookkeeping: no sockets, no servers.  The
self-tests in ``tests/test_perfbench.py`` pin each rule down.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import statistics
import subprocess
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

#: A tail percentile is reported only when at least this many samples
#: lie beyond it; fewer would make the figure one unlucky request.
MIN_BEYOND = 10

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class InsufficientSamples(ValueError):
    """A tail percentile was asked of too few samples."""


def percentile(values: Sequence[float], q: float, *,
               strict: bool = True) -> float:
    """Nearest-rank ``q``-th percentile of ``values``.

    Above the median, ``strict`` requires :data:`MIN_BEYOND` samples
    ranked beyond the returned one, so a p99 needs at least 1,000
    samples.  Failed requests belong in ``values`` as ``math.inf``:
    a failure counts as over any latency limit.
    """
    n = len(values)
    if n == 0:
        raise InsufficientSamples("no samples")
    rank = max(1, math.ceil(q / 100.0 * n))
    if strict and q > 50 and n - rank < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{q:g} of {n} samples has {n - rank} beyond it "
            f"(need {MIN_BEYOND})")
    return sorted(values)[rank - 1]


def sliced_percentile(values: Sequence[float], q: float, *,
                      slices: int = 40, strict: bool = True) -> float:
    """Median, over up to ``slices`` consecutive equal slices of
    ``values`` (in arrival order), of each slice's ``q``-th percentile.

    A neighbour's burst on a shared host lands in one slice and moves
    one slice's tail, not the reported figure.  The slice count drops
    until every slice still has :data:`MIN_BEYOND` samples beyond its
    percentile; with one slice this is :func:`percentile` itself.
    """
    n = len(values)
    for k in range(max(1, slices), 0, -1):
        size = n // k
        try:
            tails = [percentile(values[j * size:(j + 1) * size], q)
                     for j in range(k)]
        except InsufficientSamples:
            continue
        return statistics.median(tails)
    return percentile(values, q, strict=strict)


def due_latencies(due: Sequence[float], received: Sequence[float | None]
                  ) -> list[float]:
    """Open-loop latency of each request, timed from its due time.

    Timing from the due time rather than the actual send charges the
    wait a stall imposes on every later request; an unanswered or
    failed request (``None``) is ``math.inf``.
    """
    return [math.inf if r is None else r - d
            for d, r in zip(due, received)]


class Span(NamedTuple):
    """One traced interval; ``parent`` is the causing span's id."""

    id: int
    parent: int | None
    layer: str
    start: float
    end: float


def _covered(intervals: list[tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Seconds of self time per layer.

    A span's self time is its duration minus the part of that interval
    its child spans cover (overlapping children count once).
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        covered = _covered(children.get(span.id, []), span.start,
                           span.end)
        totals[span.layer] += (span.end - span.start) - covered
    return dict(totals)


# -- /proc accounting ----------------------------------------------------

def stat_fields(pid: int) -> list[str]:
    """Fields of ``/proc/<pid>/stat`` after the ``(comm)`` field."""
    text = Path(f"/proc/{pid}/stat").read_text()
    return text[text.rindex(")") + 2:].split()


def process_tree(root: int) -> list[int]:
    """``root`` and every live descendant (fleet workers, trackers)."""
    parent_of = {}
    for entry in os.scandir("/proc"):
        if entry.name.isdigit():
            try:
                parent_of[int(entry.name)] = int(
                    stat_fields(int(entry.name))[1])
            except (OSError, IndexError, ValueError):
                continue  # exited while scanning
    tree = [root]
    frontier = [root]
    while frontier:
        frontier = [pid for pid, ppid in parent_of.items()
                    if ppid in frontier]
        tree.extend(frontier)
    return tree


def cpu_ticks(pids: Iterable[int]) -> dict[int, int]:
    """utime+stime clock ticks per live pid (dead threads included)."""
    ticks = {}
    for pid in pids:
        try:
            fields = stat_fields(pid)
        except OSError:
            continue
        ticks[pid] = int(fields[11]) + int(fields[12])
    return ticks


def cpu_seconds_between(before: dict[int, int],
                        after: dict[int, int]) -> float:
    """CPU seconds a process tree spent between two snapshots; a pid
    born in between contributes everything it used."""
    return sum(t - before.get(pid, 0)
               for pid, t in after.items()) / CLOCK_TICKS


def host_cpu_ticks() -> list[int]:
    """The host-wide ``cpu`` line of ``/proc/stat`` (user, nice, system,
    idle, iowait, irq, softirq, steal, ...), in clock ticks."""
    with open("/proc/stat") as stat:
        return [int(v) for v in stat.readline().split()[1:]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of host CPU time the hypervisor gave to other guests."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def parse_pss_kb(smaps_rollup: str) -> int:
    """The ``Pss:`` line of an ``smaps_rollup`` text, in kB."""
    for line in smaps_rollup.splitlines():
        if line.startswith("Pss:"):
            return int(line.split()[1])
    raise ValueError("no Pss line in smaps_rollup")


def pss_mb(pids: Iterable[int], proc: Path = Path("/proc")) -> float:
    """Summed proportional set size of ``pids`` in MB (10^6 bytes).

    PSS splits each shared page among the processes mapping it, so a
    ``/dev/shm`` segment or shared library counts once across the
    tree while per-worker private copies count in full.
    """
    total_kb = 0
    for pid in pids:
        try:
            total_kb += parse_pss_kb(
                (proc / str(pid) / "smaps_rollup").read_text())
        except OSError:
            continue
    return total_kb * 1024 / 1e6


class PssSampler:
    """Samples :func:`pss_mb` of ``pids`` once per ``interval`` on a
    thread while a window runs, as ``(perf_counter, MB)`` pairs.

    :meth:`median_mb` is the typical footprint over a stretch of the
    window: a median, not the last sample, so a swap whose old and new
    index briefly coexist does not decide the figure."""

    def __init__(self, pids: list[int], interval: float = 1.0) -> None:
        self.pids = list(pids)
        self.interval = interval
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="pss")

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.samples.append((time.perf_counter(), pss_mb(self.pids)))

    def __enter__(self) -> "PssSampler":
        self.samples.append((time.perf_counter(), pss_mb(self.pids)))
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
        self.samples.append((time.perf_counter(), pss_mb(self.pids)))

    def median_mb(self, start: float = -math.inf,
                  end: float = math.inf) -> float:
        """Median of the samples taken in ``[start, end)``."""
        return statistics.median(mb for t, mb in self.samples
                                 if start <= t < end)


# -- host fingerprint ----------------------------------------------------

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit(checkout: Path) -> str | None:
    # The ceiling keeps git from searching parent directories when
    # the checkout is not itself a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(checkout.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                             env=env, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(src: Path) -> str:
    """sha256 over the package sources, so runs of the same code can
    be matched when there is no git commit to name it."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.suffix in (".py", ".c") and path.is_file():
            digest.update(str(path.relative_to(src)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint(checkout: Path) -> dict:
    """Host and build facts recorded with every run."""
    import numpy

    from repro.core.fastkernel import compiled_available

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "compiled_kernel": compiled_available(),
        "REPRO_FAST_KERNEL": os.environ.get("REPRO_FAST_KERNEL"),
        "commit": _commit(checkout),
        "source_sha256": source_digest(checkout / "src" / "repro"),
    }
