"""One timed step of a benchmark run, in a fresh interpreter.

    python3 perfbench/child.py RESULT [--trace] cli ARG...
    python3 perfbench/child.py RESULT [--trace] reformulate BATCH OUT

`cli` runs ``rdftuner.cli.main(ARG...)``.  `reformulate` answers a batch of
reformulation requests (JSON written by the benchmark) with
``rdftuner.reasoning.reformulate`` and writes the members of each union.
RESULT receives the exit code, the import and run times, the peak RSS of
this process, the mean time of a fixed piece of interpreter work run just
before and just after the step (`calibration`) and, with --trace, the
tracer's report.  A fresh process per step keeps the package's
module-level caches cold, as they are for a user who runs the command.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))


def reformulate_batch(batch_path: str, out_path: str) -> float:
    """Answer every request; returns the seconds spent in reformulate."""
    from rdftuner import reasoning
    from rdftuner.cli import query_from_json, query_to_json

    requests = json.loads(Path(batch_path).read_text(encoding="utf-8"))
    spent = 0.0
    answers = []
    for req in requests:
        schema = reasoning.parse_schema("\n".join(req["schema"]))
        q = query_from_json(req["query"])
        t = time.perf_counter()
        union = reasoning.reformulate(q, schema)
        spent += time.perf_counter() - t
        answers.append([query_to_json(m) for m in union.members])
    Path(out_path).write_text(json.dumps(answers), encoding="utf-8")
    return spent


def calibration() -> float:
    """Seconds for a fixed piece of plain interpreter work: an arithmetic
    loop, then tuple and string keys counted in a dictionary.  On a shared
    machine the speed of the CPU drifts by a third over minutes; run in the
    step's own process right before and after it, this tracks the speed the
    step met.  Over 300 timings of one step, dividing by a longer form of
    either loop (300000 and 60000 rounds) cut the spread of 10-step medians
    from 0.072 of their median to 0.038 (arithmetic) or 0.058 (dictionary),
    where a walk through a list larger than the memory caches raised it to
    0.098."""
    t = time.perf_counter()
    s = 0
    for i in range(100000):
        s += i * i
    counts: dict = {}
    for i in range(6000):
        key = (i % 977, str(i % 313))
        counts[key] = counts.get(key, 0) + 1
    sorted(counts.items())
    return time.perf_counter() - t


def peak_rss_kb() -> int:
    """Peak resident memory of this process's own address space.  Linux
    carries the parent's peak over into ru_maxrss across fork and exec, so
    that figure would report the benchmark's memory whenever it exceeds
    the program's; VmHWM starts afresh at exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv: list[str]) -> int:
    result_path, rest = argv[0], argv[1:]
    trace = rest[:1] == ["--trace"]
    if trace:
        rest = rest[1:]
    kind, args = rest[0], rest[1:]

    before = calibration()
    t0 = time.perf_counter()
    import rdftuner.cli

    import_s = time.perf_counter() - t0
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    out: dict = {}
    t1 = time.perf_counter()
    try:
        if kind == "cli":
            rc = rdftuner.cli.main(args)
        else:
            out["reformulate_s"] = reformulate_batch(*args)
            rc = 0
    except SystemExit as exc:  # argparse rejects the arguments
        out["error"] = f"exit {exc.code!r}"
        rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception:
        out["error"] = traceback.format_exc()
        rc = 3
    main_s = time.perf_counter() - t1
    out.update(
        rc=rc,
        import_s=import_s,
        main_s=main_s,
        rss_kb=peak_rss_kb(),
        calibration_s=(before + calibration()) / 2,
    )
    if tracer is not None:
        out["trace"] = tracer.report()
    Path(result_path).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
