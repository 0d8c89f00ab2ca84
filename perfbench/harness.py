"""Workloads, timed passes, correctness checks and metrics.

A run prepares one workload's inputs from the seed, then repeats passes
until the requested seconds of timed work have gone by.  A pass performs
every step of the workload, each in its own child process (`child.py`):
the `tune` invocations, each repeated `tune_runs` times, then
`materialize` and `answer` for every query of each distinct plan, and on
`entail` also `saturate` and a batch of reformulation requests.
`end_to_end` turns the passes into metrics.  The checks run between steps,
outside the timed calls, once per distinct output.  A traced run alternates untraced and traced passes; the per-layer
metrics are medians over the traced ones.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from check import read_tsv, saturate_reference, store_of
from inputs import reformulation_requests, tune_instance
from rdftuner.cli import document_views, load_document, query_from_json
from rdftuner.queries import ConjunctiveQuery, QueryError, UnionQuery, parse_queries
from rdftuner.reasoning import parse_schema
from rdftuner.store import evaluate
from rdftuner.workload import WorkloadSpec

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
STEP_TIMEOUT = 150.0
RUN_LIMIT_S = 160.0  # steps of a run end by then, so the run ends within 180 s

GSTR = ["--strategy", "gstr", "--avf", "--stop-var"]


@dataclass
class Instance:
    """One `tune` configuration: the files it reads and its flags."""

    name: str
    triples: Path
    queries: Path
    schema: Path | None
    flags: list[str]
    mode: str = "plain"
    parsed: list[ConjunctiveQuery] = field(default_factory=list)
    expected: dict[str, set] = field(default_factory=dict)
    root_cost: float = 0.0

    def tune_argv(self, out: Path, extra: list[str]) -> list[str]:
        argv = ["tune", "--triples", str(self.triples), "--queries", str(self.queries),
                "--mode", self.mode, "--out", str(out)]
        if self.schema is not None:
            argv += ["--schema", str(self.schema)]
        return argv + extra


@dataclass
class Workload:
    name: str
    instances: list[Instance]
    sizes: dict
    tune_runs: int = 1  # tunes of each instance per pass
    saturate: bool = False  # also saturate the store under the schema
    requests: list[dict] = field(default_factory=list)
    batch: Path | None = None


# Sizes, chosen so that one pass takes about 10 s on 2 CPUs and a run of
# 40 s makes four.  fuse: the criterion-10 shapes (high commonality, no
# constants, every gstr phase drains) at 4 atoms over 6000 triples; at 5
# atoms one star tune alone takes 10 s.  fuse runs by hand and with
# `--workload all` but is not one of BENCHMARK.json's workloads: the time
# limit of a full benchmark leaves room for long runs of two workloads,
# and explore drives the same layers and also shows search quality.
# explore: the roadmap's real-work specs, searched by gstr with a narrow
# beam until the search drains.  Anytime dfs under a --timeout does not
# give a steady rate: its states vary greatly in cost, so the states it
# reaches in a fixed budget jump with small changes of machine speed (250
# to 384 in 1.5 s for the same input).  entail: post-mode tuning with a
# schema.  With a constant in each query no plan beats the initial one and
# rcr would read 0, so the queries keep none; with 3 atoms the search lasts
# 50 ms, too short to time a rate, so they have 4.  Reasoning, statistics
# and the store still do most of the work.  tune_runs: a pass repeats each
# tune so that the tune times, measured on one or two instances, get as
# many samples in a run as the answer times, which come from a dozen
# steps; a single tune per pass left their spread over runs near twice
# that of answer_s.
SIZES = {
    "fuse": {"triples": 6000, "atoms": 4, "shape_seed": 5},
    "explore": {"triples": 10000, "atoms": 5, "shape_seed": 5, "beam": 2, "tune_runs": 2},
    "entail": {"triples": 20000, "atoms": 4, "shape_seed": 3, "schema": 10,
               "requests": 100, "request_seed": 402, "tune_runs": 3},
}


def prepare(name: str, seed: int, work: Path, sizes: dict) -> Workload:
    """Write the workload's input files under `work`."""
    work.mkdir(parents=True, exist_ok=True)
    s = sizes
    if name == "fuse":
        specs = {shape: WorkloadSpec(5, s["atoms"], shape, "high", 0, s["shape_seed"])
                 for shape in ("star", "chain")}
        flags = GSTR + ["--max-states", "30"]
    elif name == "explore":
        specs = {
            "star": WorkloadSpec(5, s["atoms"], "star", "medium", 1, s["shape_seed"]),
            "mixed": WorkloadSpec(5, s["atoms"], "mixed", "medium", 1, s["shape_seed"]),
        }
        flags = GSTR + ["--max-states", str(s["beam"])]
    elif name == "entail":
        specs = {"star": WorkloadSpec(3, s["atoms"], "star", "high", 0, s["shape_seed"])}
        flags = GSTR + ["--max-states", "10"]
    else:
        raise ValueError(f"unknown workload {name!r}")

    inst = tune_instance(s["triples"], specs, s["shape_seed"], seed,
                         schema_statements=s.get("schema", 0))
    triples = work / "triples.txt"
    triples.write_text(inst.triples, encoding="utf-8")
    schema = None
    if inst.schema is not None:
        schema = work / "schema.txt"
        schema.write_text(inst.schema, encoding="utf-8")
    wl = Workload(name, [], dict(inst.sizes), s.get("tune_runs", 1))
    for key, text in inst.queries.items():
        queries = work / f"{key}.queries.txt"
        queries.write_text(text, encoding="utf-8")
        wl.instances.append(Instance(key, triples, queries, schema, flags,
                                     mode="post" if schema else "plain",
                                     parsed=parse_queries(text)))
    if name == "entail":
        wl.saturate = True
        wl.requests = reformulation_requests(s["requests"], s["request_seed"], seed)
        wl.batch = work / "requests.json"
        wl.batch.write_text(json.dumps([{"schema": r["schema"], "query": r["query"]}
                                        for r in wl.requests]), encoding="utf-8")
        wl.sizes["reformulation_requests"] = len(wl.requests)
    return wl


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Step:
    """One child process: what it ran, whether it succeeded and its cost."""

    key: str  # kind, then instance and query: "tune:star", "answer:star:q1"
    ok: bool
    seconds: float
    rss_kb: int = 0
    trace: dict | None = None
    extra: dict = field(default_factory=dict)
    inst: Instance | None = None
    doc: dict | None = None  # the tune document
    calibration_s: float = 0.0  # child.calibration() around the step

    @property
    def kind(self) -> str:
        return self.key.split(":")[0]

    @property
    def scale(self) -> float:
        """The factor that brings this step's times to the reference speed."""
        return REFERENCE_CALIBRATION_S / self.calibration_s if self.calibration_s else 1.0


@dataclass
class Context:
    """What the steps of one run share: the directory of the input and
    output files, the checker, and the time by which every step must end,
    so that a run ends in bounded time even if the program hangs."""

    work: Path
    checker: Checker
    deadline: float = float("inf")  # a time.perf_counter() value

    def child(self, key: str, args: list[str], trace: bool) -> Step:
        """Run one step in a fresh interpreter; `seconds` covers importing
        the package and the call, not interpreter start-up."""
        result = self.work / "child.json"
        result.unlink(missing_ok=True)
        cmd = [sys.executable, str(CHILD), str(result)] + (["--trace"] if trace else [])
        cmd += ["reformulate" if key == "reformulate" else "cli"] + args
        timeout = min(STEP_TIMEOUT, self.deadline - time.perf_counter())
        try:
            if timeout <= 0:
                raise subprocess.TimeoutExpired(cmd, 0)
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"step {key} ran out of time", file=sys.stderr)
            return Step(key, False, max(timeout, 0.0))
        if proc.returncode != 0 or not result.exists():
            sys.stderr.write(proc.stderr.decode(errors="replace")[-2000:])
            return Step(key, False, 0.0)
        out = json.loads(result.read_text(encoding="utf-8"))
        if out["rc"] != 0:
            sys.stderr.write(out.get("error", "") + proc.stderr.decode(errors="replace")[-2000:])
        return Step(key, out["rc"] == 0, out["import_s"] + out["main_s"], out["rss_kb"],
                    out.get("trace"), out, calibration_s=out["calibration_s"])


# ---------------------------------------------------------------------------
# checks


class Checker:
    """Compares outputs with reference answers, once per distinct output."""

    def __init__(self, wl: Workload) -> None:
        self.wl = wl
        self._verdicts: dict[str, bool] = {}
        self._store: dict[Path, set] = {}
        self._saturated: dict[Path, object] = {}

    def _triples(self, path: Path) -> set:
        if path not in self._store:
            lines = path.read_text(encoding="utf-8").split("\n")
            self._store[path] = {tuple(line.split()) for line in lines if line.strip()}
        return self._store[path]

    def _saturated_store(self, inst: Instance):
        if inst.triples not in self._saturated:
            triples = self._triples(inst.triples)
            if inst.schema is not None:
                statements = parse_schema(inst.schema.read_text(encoding="utf-8")).statements
                triples = saturate_reference(triples, set(statements))
            self._saturated[inst.triples] = store_of(triples)
        return self._saturated[inst.triples]

    def _memo(self, key: str, compute) -> bool:
        if key not in self._verdicts:
            self._verdicts[key] = compute()
        return self._verdicts[key]

    def answer(self, inst: Instance, query: str, text: str) -> bool:
        def compute() -> bool:
            if query not in inst.expected:
                q = next(q for q in inst.parsed if q.name == query)
                inst.expected[query] = evaluate(q, self._saturated_store(inst))
            return read_tsv(text) == inst.expected[query]

        digest = hashlib.sha1(text.encode()).hexdigest()
        return self._memo(f"answer:{inst.name}:{query}:{digest}", compute)

    def views(self, inst: Instance, doc: dict, out_dir: Path) -> bool:
        """Each view file `materialize` wrote holds the view's answers over
        the saturated store, which is what the mode's materialization (a
        reformulated union over the raw store in post mode) must give."""
        def one(view: ConjunctiveQuery, text: str) -> bool:
            return read_tsv(text) == evaluate(view, self._saturated_store(inst))

        ok = True
        for view in document_views(doc):
            path = out_dir / f"{view.name}.tsv"
            if not path.is_file():
                return False
            text = path.read_text(encoding="utf-8")
            digest = hashlib.sha1((repr(view) + "\0" + text).encode()).hexdigest()
            ok &= self._memo(f"view:{inst.name}:{digest}", lambda v=view, t=text: one(v, t))
        return ok

    def saturation(self, text: str) -> bool:
        def compute() -> bool:
            inst = self.wl.instances[0]
            statements = parse_schema(inst.schema.read_text(encoding="utf-8")).statements
            expected = saturate_reference(self._triples(inst.triples), set(statements))
            got = {tuple(line.split()) for line in text.split("\n") if line.strip()}
            return got == expected

        return self._memo("saturate:" + hashlib.sha1(text.encode()).hexdigest(), compute)

    def reformulations(self, text: str) -> list[bool]:
        def one(req: dict, members: list[dict]) -> bool:
            schema = parse_schema("\n".join(req["schema"]))
            q = query_from_json(req["query"])
            raw = set(map(tuple, req["triples"]))
            try:
                union = UnionQuery(q.name, tuple(query_from_json(m) for m in members))
            except QueryError:  # no members, or mixed arities
                return False
            saturated = store_of(saturate_reference(raw, set(schema.statements)))
            return evaluate(union, store_of(raw)) == evaluate(q, saturated)

        digest = hashlib.sha1(text.encode()).hexdigest()
        answers = json.loads(text)
        if len(answers) != len(self.wl.requests):
            return [False] * len(self.wl.requests)
        return [self._memo(f"reformulate:{i}:{digest}", lambda r=r, a=a: one(r, a))
                for i, (r, a) in enumerate(zip(self.wl.requests, answers))]


# ---------------------------------------------------------------------------
# passes


@dataclass
class Pass:
    """The steps of one pass, and the counts of attempted and failed
    operations: a tune, a materialize, an answer, a saturate and each
    reformulation request are one operation each."""

    steps: list[Step] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def add(self, step: Step, operations: int = 1, failed: int | None = None) -> None:
        self.steps.append(step)
        self.attempted += operations
        self.failed += (not step.ok) if failed is None else failed


def answer_plan(ctx: Context, inst: Instance, doc: Path, trace: bool) -> list[Step]:
    """`materialize` the plan's views, then `answer` every workload query
    from the plan, checking each view and each answer."""
    views = ctx.work / "views"
    shutil.rmtree(views, ignore_errors=True)
    step = ctx.child(f"materialize:{inst.name}",
                     ["materialize", "--plan", str(doc), "--triples", str(inst.triples),
                      "--out-dir", str(views)], trace)
    if step.ok:
        step.ok = ctx.checker.views(inst, load_document(str(doc)), views)
    steps = [step]
    for q in inst.parsed:
        out = ctx.work / "answer.tsv"
        out.unlink(missing_ok=True)
        step = ctx.child(f"answer:{inst.name}:{q.name}",
                         ["answer", "--plan", str(doc), "--triples", str(inst.triples),
                          "--query", q.name, "--out", str(out)], trace)
        if step.ok:
            step.ok = ctx.checker.answer(inst, q.name, out.read_text(encoding="utf-8"))
        steps.append(step)
    return steps


def run_pass(ctx: Context, wl: Workload, trace: bool) -> Pass:
    p = Pass()
    for inst in wl.instances:
        verified: dict[str, bool] = {}  # per plan: were its views and answers right
        for _ in range(wl.tune_runs):
            doc_path = ctx.work / f"{inst.name}.plan.json"
            doc_path.unlink(missing_ok=True)
            tune = ctx.child(f"tune:{inst.name}", inst.tune_argv(doc_path, inst.flags), trace)
            tune.inst = inst
            answers: list[Step] = []
            if tune.ok:
                tune.doc = load_document(str(doc_path))
                plan = json.dumps([tune.doc["views"], tune.doc["rewritings"]])
                if plan not in verified:
                    answers = answer_plan(ctx, inst, doc_path, trace)
                    verified[plan] = all(s.ok for s in answers)
                # a plan whose views or answers are wrong fails its tune too
                tune.ok = verified[plan]
            for step in [tune] + answers:
                p.add(step)
    if wl.saturate:
        inst = wl.instances[0]
        out = ctx.work / "saturated.txt"
        step = ctx.child("saturate", ["saturate", "--triples", str(inst.triples),
                                      "--schema", str(inst.schema), "--out", str(out)], trace)
        if step.ok:
            step.ok = ctx.checker.saturation(out.read_text(encoding="utf-8"))
        p.add(step)
    if wl.batch is not None:
        out = ctx.work / "reformulated.json"
        step = ctx.child("reformulate", [str(wl.batch), str(out)], trace)
        verdicts = ctx.checker.reformulations(out.read_text(encoding="utf-8")) if step.ok \
            else [False] * len(wl.requests)
        step.ok = all(verdicts)
        p.add(step, len(verdicts), verdicts.count(False))
    return p


def root_costs(ctx: Context, wl: Workload) -> Pass:
    """Cost of each instance's fusion-closed initial state, from its own
    zero-budget --avf tune in a fresh process."""
    p = Pass()
    for inst in wl.instances:
        doc = ctx.work / f"{inst.name}.root.json"
        flags = ["--strategy", "gstr", "--avf", "--timeout", "0"]
        step = ctx.child(f"root:{inst.name}", inst.tune_argv(doc, flags), False)
        if step.ok:
            inst.root_cost = load_document(str(doc))["best_cost"]["total"]
            step.ok = inst.root_cost > 0
        p.add(step)
    return p


# ---------------------------------------------------------------------------
# metrics


def _best_rcr_within(doc: dict, seconds: float) -> float:
    return max((row[2] for row in doc["trace"] if row[0] <= seconds), default=0.0)


# child.calibration() at the reference speed: on the 2-CPU machine the
# sizes were chosen on it read about 18 ms.
REFERENCE_CALIBRATION_S = 0.018


def pass_metrics(p: Pass) -> dict[str, float]:
    """One pass's plan quality and memory, and its summed step times at the
    reference speed."""
    tunes = [s for s in p.steps if s.doc is not None]
    n = max(len(tunes), 1)

    def mean(f) -> float:
        return sum(f(s.doc, s.inst.root_cost) for s in tunes if s.inst.root_cost) / n

    def seconds(*kinds: str) -> float:
        return sum(s.seconds * s.scale for s in p.steps if not kinds or s.kind in kinds)

    return {
        "setup_s": sum((s.seconds - s.doc["elapsed_seconds"]) * s.scale for s in tunes),
        "tune_s": seconds("tune"),
        "answer_s": seconds("materialize", "answer"),
        "total_s": seconds(),
        "rcr": mean(lambda d, root: d["rcr"]),
        "rcr_1s": mean(lambda d, root: _best_rcr_within(d, 1.0)),
        "best_vs_root": mean(lambda d, root: d["best_cost"]["total"] / root),
        "rcr_vs_root": mean(lambda d, root: (root - d["best_cost"]["total"]) / root),
        "peak_rss_mb": max((s.rss_kb for s in p.steps), default=0) / 1024.0,
    }


def end_to_end(passes: list[Pass]) -> dict[str, float]:
    """The run's end-to-end metrics, times at the reference speed.

    Each step counts with the median of its successful passes, each tune's
    search with its median search time.  The fastest pass is no steady
    estimate on a shared machine: now and then a step runs a third faster
    than usual, and whether a run meets such a moment is chance (over 300
    timings of one step, the fastest of 10 spread nearly four times as
    much as the median).  Plan quality and memory are medians over the passes.
    """
    out = _medians([pass_metrics(p) for p in passes])
    by_key: dict[str, list[Step]] = {}
    for p in passes:
        for s in p.steps:
            if s.ok:
                by_key.setdefault(s.key, []).append(s)

    def median(steps: list[Step], f) -> float:
        return statistics.median(f(s) for s in steps)

    def seconds(*kinds: str) -> float:
        return sum(median(steps, lambda s: s.seconds * s.scale)
                   for steps in by_key.values() if not kinds or steps[0].kind in kinds)

    tunes = [steps for steps in by_key.values() if steps[0].kind == "tune"]
    created = sum(median(steps, lambda s: s.doc["search"]["created"]) for steps in tunes)
    searched = sum(median(steps, lambda s: s.doc["elapsed_seconds"] * s.scale)
                   for steps in tunes)
    out.update(
        setup_s=sum(median(steps, lambda s: (s.seconds - s.doc["elapsed_seconds"]) * s.scale)
                    for steps in tunes),
        tune_s=seconds("tune"),
        states_per_s=created / searched if searched else 0.0,
        answer_s=seconds("materialize", "answer"),
        total_s=seconds(),
    )
    if "saturate" in by_key:
        out["saturate_s"] = seconds("saturate")
    if "reformulate" in by_key:
        out["reformulate_s"] = median(by_key["reformulate"],
                                      lambda s: s.extra["reformulate_s"] * s.scale)
    return out


def per_layer(p: Pass) -> dict[str, float]:
    """Per-layer metrics of one traced pass, summed over its child processes.
    Times are inclusive, except the self times cost.state_cost_s,
    states.transitions_s and search.self_s."""
    calls: dict[str, float] = {}
    total: dict[str, float] = {}
    self_: dict[str, float] = {}
    hits: dict[str, float] = {}
    counters: dict[str, float] = {}
    for step in p.steps:
        tr = step.trace or {}
        for src, dst in ((tr.get("calls", {}), calls), (tr.get("total", {}), total),
                         (tr.get("self", {}), self_), (tr.get("hits", {}), hits)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
        for k, v in tr.get("counters", {}).items():
            if k == "search.peak_frontier":
                counters[k] = max(counters.get(k, 0), v)
            else:
                counters[k] = counters.get(k, 0) + v

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out = {
        "cost.state_cost_s": self_.get("cost.state_cost", 0.0),
        "cost.state_cost_calls": calls.get("cost.state_cost", 0),
        "cost.state_cost_hit_ratio": ratio(hits.get("cost.state_cost", 0),
                                           calls.get("cost.state_cost", 0)),
        "cost.body_rows_calls": calls.get("cost.body_rows", 0),
        "cost.body_rows_hit_ratio": ratio(hits.get("cost.body_rows", 0),
                                          calls.get("cost.body_rows", 0)),
        "cost.rewriting_cost_s": total.get("cost.rewriting_cost", 0.0),
    }
    for name in ("queries.view_key", "queries.canonical_body_key", "queries.bodies_isomorphic",
                 "queries.make_union", "reasoning.reformulate", "algebra.replace_scans",
                 "store.evaluate"):
        out[name + "_s"] = total.get(name, 0.0)
        out[name + "_calls"] = calls.get(name, 0)
    out["queries.are_equivalent_calls"] = calls.get("queries.are_equivalent", 0)
    out["reasoning.members"] = counters.get("reasoning.members", 0)
    out["states.transitions_s"] = self_.get("states.transitions", 0.0)
    for kind in ("VB", "SC", "JC", "VF"):
        out[f"states.{kind}_applied"] = counters.get(f"states.{kind}_applied", 0)
    out["search.self_s"] = self_.get("search.run", 0.0)
    for name in ("created", "duplicates", "transitions", "peak_frontier", "time_to_best_s"):
        out["search." + name] = counters.get("search." + name, 0)
    out["search.dup_ratio"] = ratio(counters.get("search.duplicates", 0),
                                    counters.get("search.transitions", 0))
    out["store.load_s"] = total.get("store.load", 0.0)
    out["store.count_pattern_s"] = total.get("store.count_pattern", 0.0)
    out["store.lookup_calls"] = calls.get("store.lookup", 0)
    out["stats.collect_s"] = total.get("stats.collect", 0.0)
    out["stats.patterns"] = counters.get("stats.patterns", 0)
    out["reasoning.saturate_s"] = total.get("reasoning.saturate", 0.0)
    out["reasoning.saturate_added"] = counters.get("reasoning.saturate_added", 0)
    out["store.materialize_s"] = total.get("store.materialize", 0.0)
    out["algebra.eval_expr_s"] = total.get("algebra.eval_expr", 0.0)
    out["reasoning.reformulate_views_s"] = total.get("reasoning.reformulate_views", 0.0)
    out["cli.document_s"] = counters.get("cli.document_s", 0.0)
    return out


def spans(p: Pass) -> list[dict]:
    """The coarse spans of a traced pass, one list per child process."""
    return [{"step": s.key, "spans": (s.trace or {}).get("spans", [])} for s in p.steps]


# ---------------------------------------------------------------------------
# a run


@dataclass
class RunResult:
    scale: float  # median factor from measured seconds to the reference speed
    end_to_end: dict[str, float]
    layers: dict[str, float] | None
    attempted: int
    failed: int
    passes: list[dict[str, float]]
    steps: dict[str, list[float]]  # seconds of each step, pass by pass
    sizes: dict
    spans: list = field(default_factory=list)


def _medians(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def run(name: str, seed: int, seconds: float, trace: bool, work: Path) -> RunResult:
    """Passes until `seconds` of step time are measured.  The run stops
    early once a pass fails in every operation, since a step that dies at
    once adds no time, and at the deadline, after which every step fails
    at once."""
    started = time.perf_counter()
    wl = prepare(name, seed, work, SIZES[name])
    ctx = Context(work, Checker(wl), started + RUN_LIMIT_S)
    roots = root_costs(ctx, wl)
    plain: list[Pass] = []
    traced: list[Pass] = []
    measured = 0.0
    broken = False
    while not plain or (measured < seconds and not broken
                        and time.perf_counter() < ctx.deadline):
        for with_trace in ((False, True) if trace else (False,)):
            p = run_pass(ctx, wl, with_trace)
            measured += sum(s.seconds for s in p.steps)
            broken |= p.failed == p.attempted
            (traced if with_trace else plain).append(p)
    everything = [roots] + plain + traced
    attempted = sum(p.attempted for p in everything)
    failed = sum(p.failed for p in everything)
    e2e = end_to_end(plain)
    k = statistics.median(s.scale for p in plain for s in p.steps)
    samples = [pass_metrics(p) for p in plain]
    steps: dict[str, list[float]] = {}
    for p in plain:
        for s in p.steps:
            steps.setdefault(s.key, []).append(s.seconds)
    if not trace:
        return RunResult(k, e2e, None, attempted, failed, samples, steps, wl.sizes)
    layers = _medians([per_layer(p) for p in traced])
    layers["trace.overhead_s"] = end_to_end(traced)["tune_s"] - e2e["tune_s"]
    return RunResult(k, e2e, layers, attempted, failed, samples, steps, wl.sizes,
                     spans(traced[0]))


def environment(seed: int) -> dict:
    # a checkout that is no git repository must not report an enclosing one
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10, env=env).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "commit": commit,
        "seed": seed,
    }
