"""Self-tests of the benchmark: its metric math, its drivers, a tiny
pass of every workload and the fault check.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

The tiny passes start real servers and take about a minute in all.
"""

from __future__ import annotations

import json
import math
import shutil
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

CHECKOUT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(CHECKOUT / "src"), str(CHECKOUT)]

from perfbench import drivers, measure, trace  # noqa: E402

SPEC = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
# binary-bulk runs too, although the comparison gate leaves it out.
WORKLOADS = ["json-point", "binary-bulk", "swap-under-reads"]


# -- metric math -------------------------------------------------------------

def test_p99_needs_ten_samples_beyond_it():
    assert measure.percentile(list(range(1000)), 99) == 989
    with pytest.raises(measure.InsufficientSamples):
        measure.percentile(list(range(999)), 99)
    assert measure.percentile(list(range(999)), 99, strict=False) == 989
    assert measure.percentile([3, 1, 2], 50) == 2


def test_failed_requests_count_over_any_limit():
    values = [0.001] * 985 + [math.inf] * 15
    assert math.isinf(measure.percentile(values, 99))


def test_sliced_percentile_keeps_one_burst_out_of_the_figure():
    quiet = [0.002] * 1000
    burst = [0.002] * 900 + [0.050] * 100
    values = quiet + quiet + burst + quiet + quiet
    assert measure.percentile(values, 99) == 0.050
    assert measure.sliced_percentile(values, 99) == 0.002
    # Too few samples for five slices: fewer, larger slices are used.
    assert measure.sliced_percentile(quiet + burst + burst, 99) == 0.050


def test_due_time_latency_charges_the_stall_to_later_requests():
    due = [0.0, 0.001, 0.002]
    # The server stalled until t=0.010 and then answered all three.
    received = [0.010, 0.010, None]
    assert measure.due_latencies(due, received) == pytest.approx(
        [0.010, 0.009, math.inf])


def test_self_time_subtracts_the_union_of_children():
    spans = [
        measure.Span(1, None, "root", 0.0, 10.0),
        measure.Span(2, 1, "a", 1.0, 3.0),
        measure.Span(3, 1, "a", 2.0, 5.0),   # overlaps its sibling
        measure.Span(4, 1, "b", 7.0, 8.0),
        measure.Span(5, 4, "c", 7.5, 8.0),
    ]
    assert measure.self_times(spans) == pytest.approx(
        {"root": 5.0, "a": 5.0, "b": 0.5, "c": 0.5})


def test_pss_is_summed_over_the_process_tree(tmp_path):
    for pid, kb in ((10, 2048), (11, 1024), (12, 512)):
        (tmp_path / str(pid)).mkdir()
        (tmp_path / str(pid) / "smaps_rollup").write_text(
            f"55d0-7ffc ---p 00000000 00:00 0 [rollup]\n"
            f"Rss:  {kb * 3} kB\nPss:  {kb} kB\nPss_Anon: 4 kB\n")
    # Pid 13 exited between the tree scan and the read: skipped.
    assert measure.pss_mb([10, 11, 12, 13], proc=tmp_path) == \
        pytest.approx(3584 * 1024 / 1e6)


def test_bitmap_comparison_ignores_padding_bits():
    assert drivers.bitmap_matches(3, b"\x05", b"\x05")
    assert drivers.bitmap_matches(3, b"\xfd", b"\x05")
    assert not drivers.bitmap_matches(3, b"\x04", b"\x05")
    assert not drivers.bitmap_matches(9, b"\xff", b"\xff\x01")


def test_server_stages_and_unattributed_add_up_to_the_client_mean():
    def scrape(parse, wait, count):
        expo = (f'reach_stage_seconds_sum{{stage="parse"}} {parse}\n'
                f'reach_stage_seconds_count{{stage="parse"}} {count}\n'
                f'reach_stage_seconds_sum{{worker="0",stage="queue_wait"}}'
                f' {wait}\n'
                f'reach_stage_seconds_count{{worker="0",stage="queue_wait"}}'
                f' {count}\n')
        return ({"batcher": {"flushes": count, "flushed_pairs": 2 * count,
                             "multi_query_flushes": count // 2}}, expo)

    layer = trace.server_layer_metrics(scrape(0.0, 0.0, 0),
                                       scrape(0.010, 0.200, 100),
                                       window_s=2.0, client_mean_ms=2.5)
    stages = sum(layer[f"server.{s}_ms_mean"] for s in trace.STAGES)
    assert layer["server.parse_ms_mean"] == pytest.approx(0.1)
    assert layer["server.queue_wait_ms_mean"] == pytest.approx(2.0)
    assert stages + layer["server.unattributed_ms"] == pytest.approx(2.5)
    assert layer["batcher.mean_flush_pairs"] == 2.0
    assert layer["batcher.multi_query_flush_share"] == 0.5
    assert layer["batcher.flushes_per_s"] == 50.0


# -- the open-loop driver against a stalling fake server ----------------------

def _stalling_server(stall_at: int, stall_s: float):
    """Answer every query line ``true``; sleep once before answering
    request ``stall_at``."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        conn, _ = listener.accept()
        with conn:
            buf = b""
            seen = 0
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    return
                *lines, buf = (buf + chunk).split(b"\n")
                for line in lines:
                    if seen == stall_at:
                        time.sleep(stall_s)
                    seen += 1
                    rid = json.loads(line)["id"]
                    conn.sendall(b'{"id":%d,"ok":true,"result":true}\n'
                                 % rid)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener, thread


def test_open_loop_times_from_due_and_verifies_answers():
    listener, thread = _stalling_server(stall_at=20, stall_s=0.05)
    with listener, socket.create_connection(listener.getsockname()) as s:
        n = 100
        lines = [drivers.query_line(i, 0, 1) for i in range(n)]
        expected = [True] * n
        expected[5] = False  # a wrong answer must be reported
        result = drivers.run_open_loop(
            [s], lines, expected, start=time.perf_counter() + 0.01,
            rate=1000.0, reply_timeout=2.0)
    thread.join(timeout=5)
    assert result.wrong == 1 and result.correct == n - 1
    lat = measure.due_latencies(result.due, result.received)
    # Requests due during the 50 ms stall waited for it, from their due
    # time, although the driver kept sending them on schedule.
    assert lat[25] > 0.03
    assert max(result.lateness()) < 0.02


# -- end to end ---------------------------------------------------------------

def _run(*args, cwd=CHECKOUT, timeout=300):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=timeout)
    return proc


def _result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass_of_every_workload(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "2",
                "--trace", "0", "--scale", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for name in names:
        assert result["metrics"][name]["value"] > 0, name


def test_traced_pass_reports_every_layer_metric():
    proc = _run("--workload", "json-point", "--seed", "3", "--seconds",
                "2", "--trace", "1", "--scale", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    metrics = _result(proc)["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    stages = sum(metrics[f"server.{s}_ms_mean"]["value"]
                 for s in trace.STAGES)
    assert stages + metrics["server.unattributed_ms"]["value"] == \
        pytest.approx(metrics["client.latency_ms_mean"]["value"])


def test_a_corrupted_expected_answer_fails_the_run():
    proc = _run("--workload", "json-point", "--seed", "3", "--seconds",
                "1", "--trace", "0", "--scale", "tiny",
                "--corrupt-expected")
    assert proc.returncode != 0
    result = _result(proc)
    assert not result["correct"]
    assert result["metrics"]["ok_rate"]["value"] < 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(CHECKOUT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "json-point", "--seed", "1", "--seconds",
                "1", "--trace", "0", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
