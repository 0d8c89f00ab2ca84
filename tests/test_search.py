"""Search strategies: exhaustive agreement, counters, stops, greedy, fusion.

The exhaustive strategies must agree exactly on what the space IS (the set of
reachable states) and on the best cost in it; they may only differ in how
much work they spend getting there.
"""

import functools
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rdftuner
from conftest import painter_query, PAINTER_TRIPLES
from rdftuner.cost import Estimator
from rdftuner.queries import ConjunctiveQuery, Const, TripleAtom, Var, find_containment_mapping
from rdftuner.search import SearchConfig, _Run, run_search
from rdftuner.states import KINDS, TransitionContext, initial_state, iter_transitions
from rdftuner.stats import collect_statistics
from rdftuner.store import load_triples
from rdftuner.workload import WorkloadSpec, generate_workload, make_synthetic_store

from test_acceptance import FOUR_STORE, STAR_STORE, four_chain_query, star_query
from test_states import CHAIN_STORE, chain_query, state_shape


def run(queries, store, on_transition=None, **kw):
    """Fresh context, stats and estimator; returns (result, visited sigs)."""
    visited = set()

    def observe(kind, parent, child):
        visited.add(child.signature)
        if on_transition is not None:
            on_transition(kind, parent, child)

    stats = collect_statistics(queries, store)
    ctx = TransitionContext()
    s0 = initial_state(queries, ctx)
    visited.add(s0.signature)
    cfg = SearchConfig(on_transition=observe, **kw)
    result = run_search(s0, Estimator(stats), ctx, cfg)
    return result, visited


PAINTER = load_triples(PAINTER_TRIPLES)


# ---------------------------------------------------------------------------
# exhaustive strategies agree


def two_by_two(shape):
    """Two queries of two atoms over a synthetic store: a space that drains
    in a fraction of a second."""
    store = make_synthetic_store(2000, seed=5)
    spec = WorkloadSpec(n_queries=2, atoms_per_query=2, shape=shape, seed=5)
    return generate_workload(spec, store), store


EXHAUSTIVE_INPUTS = {
    "chain": lambda: ([chain_query()], CHAIN_STORE),
    "painter": lambda: ([painter_query()], PAINTER),
    **{f"{shape}-2x2": functools.partial(two_by_two, shape)
       for shape in ("chain", "star", "mixed", "random_sparse")},
}


@pytest.mark.parametrize(
    "name,avf",
    [(name, avf) for avf in (False, True) for name in EXHAUSTIVE_INPUTS],
    ids=[name + ("-avf" if avf else "") for avf in (False, True) for name in EXHAUSTIVE_INPUTS],
)
def test_exhaustive_strategies_agree(name, avf):
    queries, store = EXHAUSTIVE_INPUTS[name]()
    results = {}
    for strategy in ("exnaive", "exstr", "dfs"):
        res, visited = run(queries, store, strategy=strategy, avf=avf)
        results[strategy] = (res, visited)
    sets = {s: v for s, (_, v) in results.items()}
    assert sets["exstr"] == sets["dfs"]
    if not avf:  # fusion closures pass through different intermediates
        assert sets["exnaive"] == sets["exstr"]
    totals = {s: r.best_cost.total for s, (r, _) in results.items()}
    assert totals["exnaive"] == totals["exstr"] == totals["dfs"]
    bests = {s: r.best.signature for s, (r, _) in results.items()}
    assert bests["exnaive"] == bests["exstr"] == bests["dfs"]
    # dfs expands each state under the same strata as exstr, in another order
    exstr, dfs = results["exstr"][0], results["dfs"][0]
    for counter in ("created", "duplicates", "discarded", "explored", "transitions"):
        assert getattr(dfs, counter) == getattr(exstr, counter), counter
    # stratified never applies more transitions than the naive closure
    assert exstr.transitions <= results["exnaive"][0].transitions
    for res, visited in results.values():
        if not avf:
            assert res.created == len(visited)
        assert not res.timed_out


def test_chain_search_covers_the_nine_states():
    res, visited = run([chain_query()], CHAIN_STORE, strategy="dfs")
    assert len(visited) == 9
    assert res.created == 9
    # every strategy counts each applied transition, duplicates included
    assert res.transitions == res.duplicates + res.created - 1


def test_exnaive_counter_identity():
    res, _ = run([painter_query()], PAINTER, strategy="exnaive")
    assert res.transitions == res.duplicates + res.created - 1
    assert res.explored == res.created  # heap pops every admitted state once
    assert res.peak_frontier >= 1
    assert res.elapsed >= 0.0


# ---------------------------------------------------------------------------
# greedy


def test_gstr_never_worse_than_initial():
    res, visited = run([painter_query()], PAINTER, strategy="gstr")
    assert res.best_cost.total <= res.initial_cost.total
    assert 0.0 <= res.rcr <= 1.0
    assert res.rcr == pytest.approx(
        (res.initial_cost.total - res.best_cost.total) / res.initial_cost.total
    )


@pytest.mark.parametrize("max_states", [None, 2])
@pytest.mark.parametrize(
    "queries,store",
    [
        ([painter_query()], PAINTER),
        ([four_chain_query()], FOUR_STORE),
        ([star_query()], STAR_STORE),
    ],
    ids=["painter", "four-chain", "star"],
)
def test_gstr_keeps_the_cheapest_state_of_each_stratum(queries, store, max_states):
    log = []
    res, _ = run(queries, store, strategy="gstr", max_states=max_states,
                 on_transition=lambda kind, parent, child: log.append((kind, parent, child)))
    est = Estimator(collect_statistics(queries, store))

    def rank(state):
        return (est.state_cost(state).total, len(state.views), state.signature)

    # every stratum starts from the cheapest state reached in the one before,
    # the state it started from included, whatever the cap cut from its worklist
    reached = {res.initial.signature: res.initial}
    stratum = -1
    for kind, parent, child in log:
        if KINDS.index(kind) != stratum:
            assert KINDS.index(kind) > stratum
            stratum = KINDS.index(kind)
            winner = min(reached.values(), key=rank)
            assert parent.signature == winner.signature, kind
            reached = {winner.signature: winner}
        reached.setdefault(child.signature, child)
    assert stratum > 0
    assert res.best.signature == min(reached.values(), key=rank).signature


@pytest.mark.parametrize("strategy", ["exstr", "gstr", "dfs"])
def test_the_cheapest_child_of_the_root_is_expanded_next(strategy):
    """The first state after the root to be expanded is the cheapest of the
    children the root has made by then.  On the painter query no child of a
    view break breaks further, so exstr and gstr first expand a selection
    cut of the root.  So does dfs: the root is cheaper than its children, so
    dfs expands it under view breaks, selection cuts and join cuts first."""
    log = []
    res, _ = run([painter_query()], PAINTER, strategy=strategy,
                 on_transition=lambda kind, parent, child: log.append((kind, parent, child)))
    est = Estimator(collect_statistics([painter_query()], PAINTER))
    root = res.initial.signature
    after_root = next(i for i, (_, parent, _) in enumerate(log) if parent.signature != root)
    children = [child for _, _, child in log[:after_root]]
    assert len(children) > 1
    cheapest = min(children, key=lambda s: (est.state_cost(s).total, len(s.views), s.signature))
    assert log[after_root][1].signature == cheapest.signature
    if strategy == "dfs":
        # every child of the root's first stratum is made before any state
        # but the root is expanded
        first_kind = log[0][0]
        assert all(i < after_root for i, (kind, parent, _) in enumerate(log)
                   if parent.signature == root and kind == first_kind)


def test_gstr_explores_less_than_exhaustive():
    greedy, _ = run([painter_query()], PAINTER, strategy="gstr")
    full, _ = run([painter_query()], PAINTER, strategy="exnaive")
    assert greedy.transitions < full.transitions


# ---------------------------------------------------------------------------
# stop conditions


def test_stop_at_triple_table():
    res, visited = run([chain_query()], CHAIN_STORE, strategy="dfs", stop_tt=True)
    # the fused single-view state is only reachable by expanding a state
    # that already holds a generic triple view, so it is never built
    assert res.created == 8
    assert res.discarded == 3
    _, seen = run([chain_query()], CHAIN_STORE, strategy="dfs")
    assert len(seen) == 9


def test_stop_when_all_constants_gone():
    # the stratum-ordered search loses its only route to the two-triple-table
    # state when the all-variable single view becomes terminal; the
    # unrestricted closure still reaches it through a later selection cut
    dfs, _ = run([chain_query()], CHAIN_STORE, strategy="dfs", stop_var=True)
    assert dfs.created == 7
    assert dfs.discarded == 1
    naive, _ = run([chain_query()], CHAIN_STORE, strategy="exnaive", stop_var=True)
    assert naive.created == 8
    assert naive.discarded == 2


def test_stop_var_suppressed_when_initial_is_all_variable():
    x, y, z = Var("X"), Var("Y"), Var("Z")
    p, r = Var("P"), Var("R")
    q = ConjunctiveQuery(
        "q", (x, z), (TripleAtom(x, p, y), TripleAtom(y, r, z))
    )
    res, visited = run([q], CHAIN_STORE, strategy="dfs", stop_var=True)
    assert res.created > 1  # the condition held at the start, so it is ignored


def test_stop_tt_suppressed_when_initial_holds_a_triple_table():
    x, y, z = Var("X"), Var("Y"), Var("Z")
    queries = [
        ConjunctiveQuery("q1", (x, y, z), (TripleAtom(x, y, z),)),
        ConjunctiveQuery("q2", (x, y), (TripleAtom(x, Const("p1"), y),
                                        TripleAtom(y, Const("p2"), Const("r5")))),
    ]
    store = make_synthetic_store(400, seed=1)
    plain, _ = run(queries, store, strategy="exstr")
    stopped, _ = run(queries, store, strategy="exstr", stop_tt=True)
    assert plain.created > 1
    counters = ("created", "duplicates", "discarded", "explored", "transitions")
    assert [getattr(stopped, c) for c in counters] == [getattr(plain, c) for c in counters]


# ---------------------------------------------------------------------------
# budgets


@pytest.mark.parametrize("strategy", ["exnaive", "exstr", "dfs", "gstr"])
def test_zero_timeout_returns_initial(strategy):
    res, _ = run([painter_query()], PAINTER, strategy=strategy, timeout=0.0)
    assert res.timed_out
    assert res.best.signature == res.initial.signature
    assert res.created == 1


@pytest.mark.parametrize("strategy", ["exnaive", "gstr"])
def test_max_states_caps_the_frontier(strategy):
    capped, _ = run([painter_query()], PAINTER, strategy=strategy, max_states=2)
    full, _ = run([painter_query()], PAINTER, strategy=strategy)
    assert capped.discarded > full.discarded
    assert capped.created < full.created
    assert capped.peak_frontier <= 2 < full.peak_frontier
    assert capped.best_cost.total <= capped.initial_cost.total


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        run([chain_query()], CHAIN_STORE, strategy="simulated-annealing")


@pytest.mark.parametrize(
    "kw",
    [
        dict(strategy="gstr", max_states=0),
        dict(strategy="gstr", max_states=-1),
        dict(strategy="exnaive", max_states=-1),
        dict(strategy="dfs", timeout=-1.0),
        dict(strategy="gstr", timeout=float("nan")),
    ],
    ids=["gstr-cap-0", "gstr-cap-neg", "exnaive-cap-neg", "dfs-timeout-neg",
         "gstr-timeout-nan"],
)
def test_out_of_range_limits_rejected(kw):
    with pytest.raises(ValueError, match="must be at least"):
        run([chain_query()], CHAIN_STORE, **kw)


@pytest.mark.parametrize("strategy", ["exstr", "dfs"])
def test_max_states_rejected_where_there_is_no_frontier_to_cap(strategy):
    with pytest.raises(ValueError, match="max_states"):
        run([chain_query()], CHAIN_STORE, strategy=strategy, max_states=5)


def twin_chain_queries():
    """Two copies of the chain query: their views fuse into one."""
    q = chain_query()
    return [q, ConjunctiveQuery("q2", q.head, q.body)]


def test_fusion_closure_stops_at_the_deadline():
    queries = twin_chain_queries()
    ctx = TransitionContext()
    s0 = initial_state(queries, ctx)
    est = Estimator(collect_statistics(queries, CHAIN_STORE))
    run_ = _Run(s0, est, ctx, SearchConfig(avf=True, timeout=0.0))
    assert run_._fusion_closure(s0) is None
    assert run_.timed_out
    assert not run_._avf_memo  # a partial closure is never memoized
    state, expandable = run_.admit(s0)
    assert state is s0 and not expandable
    assert run_.created == 0 and not run_.seen
    # the root's closure runs to the end whatever the budget
    root, _ = run_.admit(s0, bounded=False)
    assert len(root.views) == 1
    assert run_.created == 1


@pytest.mark.parametrize("strategy", ["exnaive", "exstr", "dfs", "gstr"])
def test_zero_budget_avf_returns_the_fused_root(strategy):
    res, _ = run(twin_chain_queries(), CHAIN_STORE, strategy=strategy, avf=True,
                 timeout=0.0)
    assert res.timed_out
    assert res.created == 1
    assert len(res.initial.views) == 2 and len(res.best.views) == 1
    assert res.best_cost.total < res.initial_cost.total


def test_avf_searches_overshoot_their_budget_little():
    store = make_synthetic_store(2000, seed=5)
    queries = generate_workload(
        WorkloadSpec(n_queries=5, atoms_per_query=5, shape="star",
                     commonality="high", n_constants=0, seed=5),
        store,
    )
    budget = 0.3
    for strategy in ("exnaive", "dfs"):
        res, _ = run(queries, store, strategy=strategy, avf=True, stop_var=True,
                     timeout=budget)
        assert res.timed_out, strategy
        # generous: a loaded machine can stall any single step
        assert res.elapsed < budget + 0.25, (strategy, res.elapsed)


# ---------------------------------------------------------------------------
# aggressive fusion


@pytest.mark.parametrize(
    "queries,store",
    [
        ([chain_query()], CHAIN_STORE),
        ([painter_query()], PAINTER),
    ],
    ids=["chain", "painter"],
)
def test_avf_preserves_best_cost(queries, store):
    plain, _ = run(queries, store, strategy="dfs")
    fused, _ = run(queries, store, strategy="dfs", avf=True)
    assert fused.best_cost.total == pytest.approx(plain.best_cost.total, rel=1e-12)
    # non-fixpoint states never enter the candidate space
    assert fused.created < plain.created


def test_avf_on_chain_admits_eight_states():
    fused, _ = run([chain_query()], CHAIN_STORE, strategy="dfs", avf=True)
    # the two-triple-table state closes into the fused one on arrival
    assert fused.created == 8
    assert fused.discarded == 1


def test_avf_best_state_is_fusion_closed():
    fused, _ = run([painter_query()], PAINTER, strategy="dfs", avf=True)
    probe = TransitionContext()
    assert list(iter_transitions(fused.best, probe, ("VF",))) == []


# ---------------------------------------------------------------------------
# the variables a search interns


# runs in a fresh interpreter, so the table of variables holds only the
# query's and those the search names
FRESH_VARIABLES_PROBE = r"""
import json, re
from conftest import PAINTER_TRIPLES, painter_query
from rdftuner import queries
from rdftuner.cost import Estimator
from rdftuner.search import SearchConfig, run_search
from rdftuner.states import TransitionContext, initial_state
from rdftuner.stats import collect_statistics
from rdftuner.store import load_triples

store, q = load_triples(PAINTER_TRIPLES), painter_query()
ctx = TransitionContext()
result = run_search(initial_state([q], ctx), Estimator(collect_statistics([q], store)), ctx,
                    SearchConfig(strategy="exnaive", avf=True, stop_var=True))
print(json.dumps({"created": result.created, "timed_out": result.timed_out,
                  "fresh": sorted(int(n[1:]) for n in queries._VARS if re.fullmatch(r"F\d+", n))}))
"""


def test_a_drained_search_interns_few_fresh_variables():
    """A cut names its variable the lowest F<i> its view does not use, and
    a view of n atoms uses at most 3n variables, so a drained exhaustive
    search over the 3-atom painter query interns no F<i> past F10, however
    many states it makes."""
    path = os.pathsep.join([str(Path(rdftuner.__file__).resolve().parents[1]),
                            str(Path(__file__).resolve().parent)])
    proc = subprocess.run([sys.executable, "-c", FRESH_VARIABLES_PROBE],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["created"] > 100 and not report["timed_out"]
    assert report["fresh"] and max(report["fresh"]) <= 3 * len(painter_query().body) + 1


def test_a_drained_search_leaves_no_cyclic_garbage():
    """With the collector off, a drained search and a containment check free
    everything they drop by reference counting alone: no helper, such as a
    recursive closure, leaves a reference cycle.  On these star queries the
    canonical forms take the individualization search."""
    store = make_synthetic_store(2000, seed=5)
    queries = generate_workload(
        WorkloadSpec(n_queries=3, atoms_per_query=2, shape="star", seed=5), store)
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        res, _ = run(queries, store, strategy="exstr", avf=True, stop_var=True)
        assert find_containment_mapping(queries[0], queries[0]) is not None
        gc.collect()
        garbage = len(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert not res.timed_out and res.created > 100
    assert garbage == 0


# ---------------------------------------------------------------------------
# trace


def test_trace_is_monotone():
    res, _ = run([painter_query()], PAINTER, strategy="dfs")
    assert res.trace
    assert res.trace[0][1] == pytest.approx(res.initial_cost.total)
    costs = [c for _, c, _ in res.trace]
    assert costs == sorted(costs, reverse=True)
    times = [t for t, _, _ in res.trace]
    assert times == sorted(times)
    assert res.trace[-1][1] == pytest.approx(res.best_cost.total)
    rcrs = [r for _, _, r in res.trace]
    assert rcrs == sorted(rcrs)
    assert rcrs[-1] == pytest.approx(res.rcr)
