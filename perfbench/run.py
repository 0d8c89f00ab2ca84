#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark of rdftuner.

    python3 perfbench/run.py --workload fuse --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 -m pytest perfbench/test_selftest.py -q      # the self-test

Run from the root of a checkout.  The workloads (see BENCHMARK.json and
harness.py) drive the `rdftuner` command line in child processes, one at a
time, on inputs generated from --seed; nothing but the generated files
reaches the program.  Every output is checked against reference answers.
Times are medians over the passes a run makes, each step's scaled to a
reference speed of the machine by a calibration timed in its own process
(child.calibration); the --out report keeps the measured seconds of every
step and pass.

Standard output ends with one JSON line: `correct`, `attempted`, `failed`
and `metrics`.  With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json, measured untraced; with --trace 1 they are the per-layer
metrics from traced passes, plus the tracing overhead.  The lines before
it print every metric with its unit and direction, the run environment
and the generated input sizes.  --out also writes that report as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fuse", "explore", "entail")
# printed with the end-to-end metrics, outside BENCHMARK.json: zero on
# the seed code, or defined on one workload only
INFO = {
    "rcr_vs_root": ("ratio", "higher"),
    "saturate_s": ("s", "lower"),
    "reformulate_s": ("s", "lower"),
}


def _print_rows(rows) -> None:
    for name, value, unit, better, note in rows:
        print(f"  {name:<34} {value:>14.6g} {unit:<6} {better} is better{note}")


def run_one(args, spec: dict) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import harness

    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    try:
        res = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    env = harness.environment(args.seed)

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = res.layers if args.trace else res.end_to_end
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload}: " + " ".join(f"{k}={v}" for k, v in res.sizes.items())
          + f" passes={len(res.passes)}")
    if args.trace:
        print("per-layer, traced passes:")
        _print_rows([(m["name"], res.layers[m["name"]], m["unit"], m["better"], "")
                     for m in spec["per_layer"]])
    print(f"end-to-end, untraced passes, times scaled by a median {res.scale:.4f}"
          " to the reference speed:")
    e2e = res.end_to_end
    _print_rows([(m["name"], e2e[m["name"]], m["unit"], m["better"], "")
                 for m in spec["end_to_end"]]
                + [(name, e2e[name], unit, better, " (not bounded)")
                   for name, (unit, better) in INFO.items() if name in e2e]
                + [("failed_frac", res.failed / res.attempted, "ratio", "lower",
                    f" ({res.failed} of {res.attempted} operations)")])
    if args.out:
        report = {"environment": env, "workload": args.workload, "sizes": res.sizes,
                  "scale": res.scale, "passes": res.passes, "steps": res.steps,
                  "metrics": metrics,
                  "end_to_end": res.end_to_end,
                  "attempted": res.attempted, "failed": res.failed, "spans": res.spans}
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"correct": res.failed == 0, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    attempted = failed = 0
    metrics = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        last = json.loads(lines[-1])
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="rdftuner benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, help="timed work per run (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the report as JSON here")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rdftuner" / "cli.py").is_file():
        print(f"error: no rdftuner sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
