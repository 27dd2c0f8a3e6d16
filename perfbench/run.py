"""Run one workload of the serving benchmark and print its metrics.

    python3 perfbench/run.py --workload json-point --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (every end-to-end metric with ``--trace 0``, every
per-layer metric with ``--trace 1``, each as ``{"value", "unit"}``).
The exit code is non-zero when any answer was wrong or the run was
invalid (a leak, a generator that fell behind, a reload that did not
move the generation).  Workload and metric definitions: README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
BENCHMARK_JSON = CHECKOUT / "BENCHMARK.json"


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("json-point", "binary-bulk",
                                 "swap-under-reads"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"),
                        default="full",
                        help="tiny: small graphs for the self-tests")
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="flip one expected answer (fault check: "
                             "the run must report it as wrong)")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (CHECKOUT / "src" / "repro" / "server").is_dir():
        print(f"perfbench: no repro sources under {CHECKOUT / 'src'}; "
              f"run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(CHECKOUT / "src"), str(CHECKOUT)]

    from perfbench import measure, trace, workloads

    spec = json.loads(BENCHMARK_JSON.read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace
                                      else "end_to_end"]]
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    run_dir = CHECKOUT / ".perfbench-run" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ctx = workloads.Context(
        checkout=CHECKOUT, run_dir=run_dir, workload=args.workload,
        seed=args.seed, seconds=args.seconds, traced=bool(args.trace),
        scale=args.scale, corrupt=args.corrupt_expected)
    tally = workloads.Tally()
    fingerprint = measure.fingerprint(CHECKOUT)
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    try:
        drive, e2e = workloads.WORKLOADS[args.workload]
        run = drive(ctx, tally)
        if ctx.traced:
            tracer = trace.Tracer()
            metrics = workloads.layer_metrics(ctx, run, tracer, tally)
            out = (CHECKOUT / ".perfbench-out"
                   / f"trace-{args.workload}-seed{args.seed}.jsonl")
            trace.write_trace(out, fingerprint, metrics, tracer)
            print(f"spans written to {out}")
        else:
            metrics = e2e(ctx, run, run.window)
    except Exception:
        traceback.print_exc()
        print("perfbench: run failed", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    missing = [name for name in wanted if name not in metrics]
    if missing:
        print(f"perfbench: metrics not produced: {missing}",
              file=sys.stderr)
        return 1
    tally.notes["window_host_steal_pct"] = round(run.window.steal * 100, 2)
    # Figures a run computes but comparisons do not gate on, such as
    # the untraced latency_p99_ms (README.md, "Ungated figures").
    for name in sorted(set(metrics) - set(wanted)):
        tally.notes[name] = round(metrics[name], 4)
    for note, value in sorted(tally.notes.items()):
        print(f"note {note} = {value}")
    for reason in tally.invalid:
        print(f"INVALID: {reason}")
    if tally.wrong:
        print(f"WRONG ANSWERS: {tally.wrong}")
    for name in wanted:
        print(f"{args.workload} {name} = {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name]),
                           "unit": units[name]} for name in wanted},
    }))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
