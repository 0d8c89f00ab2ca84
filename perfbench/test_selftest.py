"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_selftest.py -q

Checks that one run per workload prints every metric of BENCHMARK.json
with its unit and direction, that no operation fails on correct code, and
that the correctness checks reject wrong outputs.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import run  # noqa: E402

TINY = {
    "fuse": {"triples": 800, "atoms": 3, "shape_seed": 5},
    "explore": {"triples": 1000, "atoms": 3, "shape_seed": 5, "beam": 1},
    "entail": {"triples": 2000, "atoms": 3, "shape_seed": 3, "schema": 10,
               "requests": 8, "request_seed": 402, "tune_runs": 2},
}
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric(workload, trace, monkeypatch, capsys):
    monkeypatch.setitem(harness.SIZES, workload, TINY[workload])
    rc = run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                   "--trace", str(trace)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0

    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    for m in listed + SPEC["end_to_end"]:
        line = next(li for li in lines if li.split()[:1] == [m["name"]])
        assert f" {m['unit']} " in line and f"{m['better']} is better" in line
    printed = "\n".join(lines[:-1])
    assert "failed_frac" in printed and "nproc=" in printed


@pytest.fixture(scope="module")
def fuse(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuse")
    wl = harness.prepare("fuse", 3, work, TINY["fuse"])
    inst = wl.instances[0]
    doc = work / "plan.json"
    ctx = harness.Context(work, harness.Checker(wl))
    assert ctx.child("tune:star", inst.tune_argv(doc, inst.flags), False).ok
    return ctx, inst, doc


def test_correct_plan_passes(fuse):
    ctx, inst, doc = fuse
    steps = harness.answer_plan(ctx, inst, doc, False)
    assert len(steps) == 1 + len(inst.parsed) and all(s.ok for s in steps)


def test_wrong_view_file_fails(fuse):
    ctx, inst, doc = fuse
    views = ctx.work / "views"
    assert harness.answer_plan(ctx, inst, doc, False)[0].ok
    plan = json.loads(doc.read_text(encoding="utf-8"))
    path = views / f"{plan['views'][0]['name']}.tsv"
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) > 1
    path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")  # one row lost
    assert not ctx.checker.views(inst, plan, views)


def test_peak_rss_is_the_childs_own(fuse):
    # a child inherits its parent's peak in ru_maxrss; the step must report
    # the program's memory, not the benchmark's
    ctx, inst, doc = fuse
    ballast = bytearray(160 << 20)
    for i in range(0, len(ballast), 4096):
        ballast[i] = 1
    q = inst.parsed[0].name
    step = ctx.child(f"answer:{inst.name}:{q}",
                     ["answer", "--plan", str(doc), "--triples", str(inst.triples),
                      "--query", q, "--out", str(ctx.work / "answer.tsv")], False)
    assert step.ok and 0 < step.rss_kb < 120 << 10
    del ballast


def test_corrupted_plan_fails(fuse):
    ctx, inst, doc = fuse
    plan = json.loads(doc.read_text(encoding="utf-8"))
    # reverse one atom of a view: the plan still runs, but the view holds
    # other rows, so the queries answered from it come out wrong
    atom = plan["views"][0]["body"][0]
    atom[0], atom[2] = atom[2], atom[0]
    bad = ctx.work / "corrupted.json"
    bad.write_text(json.dumps(plan), encoding="utf-8")
    steps = harness.answer_plan(ctx, inst, bad, False)
    assert steps[0].ok and not all(s.ok for s in steps[1:])


def test_wrong_saturation_and_reformulation_fail(tmp_path):
    wl = harness.prepare("entail", 3, tmp_path, TINY["entail"])
    checker = harness.Checker(wl)
    out = tmp_path / "saturated.txt"
    inst = wl.instances[0]
    step = harness.Context(tmp_path, checker).child(
        "saturate", ["saturate", "--triples", str(inst.triples), "--schema", str(inst.schema),
                     "--out", str(out)], False)
    assert step.ok
    lines = out.read_text(encoding="utf-8").splitlines()
    assert checker.saturation("\n".join(lines))
    assert not checker.saturation("\n".join(lines[:-1]))

    # answering each request with its query alone, unreformulated, misses
    # the entailed answers on some of them
    unreformulated = json.dumps([[r["query"]] for r in wl.requests])
    assert not all(checker.reformulations(unreformulated))


def test_step_past_the_deadline_fails_at_once(tmp_path):
    ctx = harness.Context(tmp_path, None, deadline=time.perf_counter())
    step = ctx.child("tune:star", ["tune", "--triples", "t", "--queries", "q"], False)
    assert not step.ok and step.seconds == 0.0


@pytest.mark.parametrize("breakage", ["unknown flag", "no child"])
def test_failing_steps_end_the_run(breakage, monkeypatch, tmp_path):
    # an argparse rejection, or a child that dies without writing its
    # result: every tune fails at once, and the run must still end
    monkeypatch.setitem(harness.SIZES, "fuse", TINY["fuse"])
    if breakage == "unknown flag":
        monkeypatch.setattr(harness, "GSTR", harness.GSTR + ["--no-such-flag"])
    else:
        monkeypatch.setattr(harness, "CHILD", tmp_path / "missing.py")
    started = time.perf_counter()
    res = harness.run("fuse", 7, 600.0, False, tmp_path / "work")
    assert time.perf_counter() - started < 60
    assert res.failed > 0 and res.attempted >= res.failed
