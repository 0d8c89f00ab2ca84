"""Cost model: pinned cardinalities on a small store, then the two
directional guarantees the search depends on, swept over whole state spaces.

The store below has 8 triples; column distincts are s:5, p:3, o:5 and every
symbol is one byte, so widths equal arities.  Expected row counts are worked
out by hand from the product-over-divisors rule and frozen here.
"""

import gc
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import painter_query
from rdftuner.algebra import NatJoin, Project, Rename, Scan, Select, UnionOp, eval_expr, scan_views
from rdftuner.cost import CostWeights, Estimator
from rdftuner.queries import ConjunctiveQuery, Const, QueryError, TripleAtom, Var, canonical_body_key
from rdftuner.states import Rewriting, State, TransitionContext, initial_state, iter_transitions
from rdftuner.stats import MissingStatisticError, collect_statistics
from rdftuner.store import Relation, evaluate, load_triples
from rdftuner.workload import WorkloadSpec, generate_workload, make_synthetic_store

COST_TRIPLES = """
a p b
a p c
b p c
b p d
a q b
c q d
d r a
e p e
"""

X, Y, Z, W, P = Var("X"), Var("Y"), Var("Z"), Var("W"), Var("P")


def q_chain() -> ConjunctiveQuery:
    return ConjunctiveQuery(
        "qc", (X, Z), (TripleAtom(X, Const("p"), Y), TripleAtom(Y, Const("q"), Z))
    )


def q_loop() -> ConjunctiveQuery:
    return ConjunctiveQuery("ql", (X,), (TripleAtom(X, Const("p"), X),))


def q_loop_q() -> ConjunctiveQuery:
    return ConjunctiveQuery("qlq", (X,), (TripleAtom(X, Const("q"), X),))


def q_select() -> ConjunctiveQuery:
    return ConjunctiveQuery("qs", (X,), (TripleAtom(X, Const("p"), Const("b")),))


def q_three() -> ConjunctiveQuery:
    return ConjunctiveQuery(
        "q3",
        (X, W),
        (
            TripleAtom(X, Const("p"), Y),
            TripleAtom(Y, Const("q"), Z),
            TripleAtom(Z, Const("r"), W),
        ),
    )


@pytest.fixture(scope="module")
def est() -> Estimator:
    store = load_triples(COST_TRIPLES)
    stats = collect_statistics([q_chain(), q_loop(), q_loop_q(), q_select(), q_three()], store)
    return Estimator(stats)


# ---------------------------------------------------------------------------
# cardinalities


def test_single_atom_estimates_are_exact(est):
    store = load_triples(COST_TRIPLES)
    for atom, arity in [
        (TripleAtom(X, Const("p"), Y), 2),
        (TripleAtom(X, Const("q"), Y), 2),
        (TripleAtom(X, P, Y), 3),
        (TripleAtom(X, Const("p"), X), 1),
    ]:
        head = tuple(dict.fromkeys(atom.variables()))
        v = ConjunctiveQuery("v", head, (atom,))
        assert est.view_rows(v) == float(len(evaluate(v, store)))


def test_join_divides_by_largest_domain(est):
    # |p|*|q| / distinct of the join column: 5*2/5
    assert est.body_rows(q_chain().body) == pytest.approx(2.0)


def test_property_join_divides_by_property_distincts(est):
    body = (TripleAtom(X, P, Y), TripleAtom(Z, P, W))
    assert est.body_rows(body) == pytest.approx(64.0 / 3.0)


def test_rows_clamped_to_one(est):
    body = (
        TripleAtom(X, Const("p"), Y),
        TripleAtom(Y, Const("q"), Z),
        TripleAtom(Z, Const("r"), W),
    )
    # 5*2*1/(5*5) is below one row
    assert est.body_rows(body) == 1.0


def test_empty_pattern_estimates_zero(est):
    body = (TripleAtom(X, Const("q"), X),)  # no reflexive q triple exists
    assert est.body_rows(body) == 0.0


def test_unseen_shape_raises(est):
    with pytest.raises(MissingStatisticError):
        est.body_rows((TripleAtom(X, Const("zzz"), Y),))


def test_estimate_ignores_atom_order_and_names(est):
    a_, b_, c_ = Var("A"), Var("B"), Var("C")
    renamed = (TripleAtom(b_, Const("q"), c_), TripleAtom(a_, Const("p"), b_))
    assert est.body_rows(renamed) == est.body_rows(q_chain().body)


def test_view_width(est):
    v = ConjunctiveQuery("v", (X, Y), (TripleAtom(X, Const("p"), Y),))
    assert est.view_width(v) == pytest.approx(2.0)
    vc = ConjunctiveQuery("v", (X, Const("pp")), (TripleAtom(X, Const("p"), Y),))
    assert est.view_width(vc) == pytest.approx(3.0)
    dangling = ConjunctiveQuery("v", (Z,), (TripleAtom(X, Const("p"), Y),))
    with pytest.raises(QueryError):
        est.view_width(dangling)


# ---------------------------------------------------------------------------
# operator trees


def test_scan_cost_is_io_only(est):
    v = ConjunctiveQuery("v1", (X, Y), (TripleAtom(X, Const("p"), Y),))
    assert est.rewriting_cost(Scan("v1"), {"v1": v}) == pytest.approx(5.0)


def test_selection_costs_its_input(est):
    f = Var("F")
    v4 = ConjunctiveQuery("v4", (X, f), (TripleAtom(X, Const("p"), f),))
    expr = Project(Select(Scan("v4"), f, Const("b")), (X,))
    # io 5 for the scan, cpu 5 for filtering it
    assert est.rewriting_cost(expr, {"v4": v4}) == pytest.approx(10.0)


def test_join_costs_inputs_plus_output(est):
    va = ConjunctiveQuery("va", (X, Y), (TripleAtom(X, Const("p"), Y),))
    vb = ConjunctiveQuery("vb", (Y, Z), (TripleAtom(Y, Const("q"), Z),))
    expr = Project(NatJoin(Scan("va"), Scan("vb")), (X, Z))
    # io 5+2, cpu 5+2+2
    got = est.rewriting_cost(expr, {"va": va, "vb": vb})
    assert got == pytest.approx(16.0)


def test_union_cost_sums_members(est):
    va = ConjunctiveQuery("va", (X, Y), (TripleAtom(X, Const("p"), Y),))
    vb = ConjunctiveQuery("vb", (X, Y), (TripleAtom(X, Const("q"), Y),))
    expr = UnionOp((Scan("va"), Scan("vb")))
    # io 5+2, cpu 5+2 for concatenating
    assert est.rewriting_cost(expr, {"va": va, "vb": vb}) == pytest.approx(14.0)


def test_selection_over_union_rejected(est):
    va = ConjunctiveQuery("va", (X, Y), (TripleAtom(X, Const("p"), Y),))
    expr = Select(UnionOp((Scan("va"), Scan("va"))), X, Const("a"))
    with pytest.raises(QueryError):
        est.rewriting_cost(expr, {"va": va})


def test_state_cost_breakdown(est):
    va = ConjunctiveQuery("va", (X, Y), (TripleAtom(X, Const("p"), Y),))
    vb = ConjunctiveQuery("vb", (Y, Z), (TripleAtom(Y, Const("q"), Z),))
    rw = Rewriting("qc", Project(NatJoin(Scan("va"), Scan("vb")), (X, Z)))
    state = State((va, vb), (rw,), uid=1)
    cost = est.state_cost(state)
    assert cost.vso == pytest.approx(5 * 2 + 2 * 2)
    assert cost.rec == pytest.approx(16.0)
    assert cost.vmc == pytest.approx(2.0 + 2.0)  # f^1 per single-atom view
    assert cost.total == pytest.approx(14 + 16 + 0.5 * 4)
    assert est.state_cost(state) is cost  # cached by state id


def test_weights_scale_components():
    store = load_triples(COST_TRIPLES)
    stats = collect_statistics([q_chain()], store)
    va = ConjunctiveQuery("va", (X, Y), (TripleAtom(X, Const("p"), Y),))
    state = State((va,), (Rewriting("qc", Scan("va")),), uid=1)
    base = Estimator(stats).state_cost(state)
    heavy = Estimator(stats, CostWeights(cs=3.0, cr=2.0, cm=4.0)).state_cost(state)
    assert heavy.total == pytest.approx(3 * base.vso + 2 * base.rec + 4 * base.vmc)
    io_free = Estimator(stats, CostWeights(c1=0.0)).state_cost(state)
    assert io_free.rec == pytest.approx(0.0)  # a scan is pure io


# ---------------------------------------------------------------------------
# the directional guarantees, swept over complete reachable spaces

REL_TOL = 1e-9


def sweep_monotonicity(queries, store):
    stats = collect_statistics(queries, store)
    est = Estimator(stats)
    ctx = TransitionContext()
    s0 = initial_state(queries, ctx)
    seen = {s0.signature}
    frontier = [s0]
    n_sc = n_vf = 0
    while frontier:
        nxt = []
        for st in frontier:
            before = est.state_cost(st).total
            for tr in iter_transitions(st, ctx):
                after = est.state_cost(tr.state).total
                slack = REL_TOL * max(abs(before), 1.0)
                if tr.kind == "SC":
                    assert after >= before - slack, tr.label
                    n_sc += 1
                elif tr.kind == "VF":
                    assert after <= before + slack, tr.label
                    n_vf += 1
                if tr.state.signature not in seen:
                    seen.add(tr.state.signature)
                    nxt.append(tr.state)
        frontier = nxt
    return n_sc, n_vf


def test_selection_cuts_never_cheapen(painter_store):
    n_sc, n_vf = sweep_monotonicity([painter_query()], painter_store)
    assert n_sc > 50 and n_vf > 10


def test_monotonicity_on_a_two_query_workload():
    store = load_triples(COST_TRIPLES)
    q2 = ConjunctiveQuery(
        "q2", (X, Y), (TripleAtom(X, Const("p"), Y), TripleAtom(Y, Const("p"), Z))
    )
    n_sc, n_vf = sweep_monotonicity([q_chain(), q2], store)
    assert n_sc > 20 and n_vf > 0


def test_fusion_strictly_helps_on_identical_views():
    store = load_triples(COST_TRIPLES)
    q1 = ConjunctiveQuery("q1", (X, Y), (TripleAtom(X, Const("p"), Y),))
    q2 = ConjunctiveQuery("q2", (Z, W), (TripleAtom(Z, Const("p"), W),))
    stats = collect_statistics([q1, q2], store)
    est = Estimator(stats)
    ctx = TransitionContext()
    s0 = initial_state([q1, q2], ctx)
    fused = [t for t in iter_transitions(s0, ctx) if t.kind == "VF"]
    assert len(fused) == 1
    # storing one copy instead of two is cheaper outright
    assert est.state_cost(fused[0].state).total < est.state_cost(s0).total


def test_a_join_cut_under_a_view_break_joins_back_to_the_view(est):
    """Break q3 into two pieces, then cut a join edge of one piece: every
    rewriting derives q3's own body up to renaming, and so its row
    estimate, also where the cut splits the piece at a variable the two
    pieces are joined on."""
    q = q_three()
    form = canonical_body_key(q)
    rows = est.body_rows(q.body)
    ctx = TransitionContext()
    splits = 0
    for vb in iter_transitions(initial_state([q], ctx), ctx, kinds=("VB",)):
        joined = set(vb.state.views[0].head) & set(vb.state.views[1].head)
        for jc in iter_transitions(vb.state, ctx, kinds=("JC",)):
            views = {v.name: v for v in jc.state.views}
            body, card, _, _ = est._walk(jc.state.rewritings[0].expr, views)
            assert canonical_body_key(ConjunctiveQuery("", (), body)) == form, jc.label
            assert card == rows, jc.label
            cut = Var(jc.label[jc.label.index("(") + 1 : -1])
            splits += len(views) == 3 and cut in joined
    assert splits


def test_random_walk_costs_are_finite(painter_store):
    stats = collect_statistics([painter_query()], painter_store)
    est = Estimator(stats)
    ctx = TransitionContext()
    state = initial_state([painter_query()], ctx)
    rng = random.Random(3)
    for _ in range(25):
        cost = est.state_cost(state)
        for part in (cost.vso, cost.rec, cost.vmc, cost.total):
            assert part >= 0.0 and part == part  # no NaN
        trs = list(iter_transitions(state, ctx))
        if not trs:
            break
        state = rng.choice(trs).state


# ---------------------------------------------------------------------------
# the memoized state cost equals a full recomputation


def walk(state, ctx, rng, steps, avf):
    """A random transition walk over every kind, yielding (kind, state) per
    step, from ("", initial).  With avf each step is followed by fusions,
    picked at random, until none is left."""
    yield "", state
    for _ in range(steps):
        trs = list(iter_transitions(state, ctx))
        if not trs:
            return
        tr = rng.choice(trs)
        state = tr.state
        yield tr.kind, state
        while avf:
            fusions = list(iter_transitions(state, ctx, ("VF",)))
            if not fusions:
                break
            state = rng.choice(fusions).state
            yield "VF", state


def synthetic_workload(seed, commonality="medium", shape="star"):
    store = make_synthetic_store(400, seed=seed)
    spec = WorkloadSpec(n_queries=4, atoms_per_query=3, shape=shape,
                        commonality=commonality, n_constants=1, seed=seed)
    return generate_workload(spec, store), store


@pytest.mark.parametrize("avf", [False, True], ids=["plain", "avf"])
def test_memoized_state_cost_equals_full_recomputation(avf):
    rng = random.Random(23)
    kinds = set()
    for seed, commonality in enumerate(["high", "medium"] * 2):
        queries, store = synthetic_workload(seed, commonality)
        stats = collect_statistics(queries, store)
        est = Estimator(stats)
        ctx = TransitionContext()
        for kind, state in walk(initial_state(queries, ctx), ctx, rng, 12, avf):
            # a fresh estimator has empty caches and costs everything anew
            assert est.state_cost(state) == Estimator(stats).state_cost(state)
            kinds.add(kind)
    assert kinds >= {"VB", "SC", "JC", "VF"}


def test_a_tree_shared_over_another_view_is_costed_again(est):
    tree = Project(Scan("v1"), (X,))
    narrow = ConjunctiveQuery("v1", (X,), (TripleAtom(X, Const("p"), Const("b")),))
    wide = ConjunctiveQuery("v1", (X, Y), (TripleAtom(X, Const("p"), Y),))
    for uid, view in enumerate((narrow, wide, narrow), start=1):
        state = State((view,), (Rewriting("q", tree),), uid=uid)
        assert est.state_cost(state).rec == est.rewriting_cost(tree, {"v1": view})
    assert est.rewriting_cost(tree, {"v1": narrow}) != est.rewriting_cost(tree, {"v1": wide})


def test_one_estimator_shared_by_two_contexts_stays_exact():
    rng = random.Random(5)
    q_a, store = synthetic_workload(1)
    q_b = generate_workload(
        WorkloadSpec(n_queries=3, atoms_per_query=3, shape="chain",
                     commonality="medium", n_constants=1, seed=2),
        store,
    )
    stats = collect_statistics(q_a + q_b, store)
    est = Estimator(stats)
    ctx_a, ctx_b = TransitionContext(), TransitionContext()
    walk_a = walk(initial_state(q_a, ctx_a), ctx_a, rng, 10, avf=False)
    walk_b = walk(initial_state(q_b, ctx_b), ctx_b, rng, 10, avf=True)
    same_uid = 0
    for (_, a), (_, b) in zip(walk_a, walk_b):
        # both contexts name views v1, v2, ... and number states from 1
        same_uid += a.uid == b.uid
        for state in (a, b):
            assert est.state_cost(state) == Estimator(stats).state_cost(state)
    assert same_uid


@pytest.mark.parametrize("shape", ["star", "chain", "mixed"])
@pytest.mark.parametrize("avf", [False, True], ids=["plain", "avf"])
@settings(max_examples=6)
@given(seed=st.integers(0, 3), rng=st.randoms(use_true_random=False))
def test_a_rewriting_handed_on_scans_the_same_views(shape, avf, seed, rng):
    """The cost memo by `Rewriting` object rests on this: wherever
    transitions hand a rewriting on, each name it scans is the same view
    object."""
    queries, _ = synthetic_workload(seed, shape=shape)
    ctx = TransitionContext()
    scanned: dict[Rewriting, dict[str, ConjunctiveQuery]] = {}
    shared = 0
    for _, state in walk(initial_state(queries, ctx), ctx, rng, 8, avf):
        for held in [state, *(tr.state for tr in iter_transitions(state, ctx))]:
            views = {v.name: v for v in held.views}
            for r in held.rewritings:
                mine = {name: views[name] for name in scan_views(r.expr)}
                first = scanned.setdefault(r, mine)
                shared += first is not mine
                assert all(first[name] is view for name, view in mine.items())
    assert shared


@pytest.mark.parametrize("shape", ["star", "chain", "mixed"])
@pytest.mark.parametrize("avf", [False, True], ids=["plain", "avf"])
@settings(max_examples=6)
@given(seed=st.integers(0, 3), rng=st.randoms(use_true_random=False))
def test_every_rewriting_walks_to_its_querys_body(shape, avf, seed, rng):
    """Costs cannot depend on the names transitions invent: the selection
    or rename above each scan of a cut view eliminates its fresh variable,
    so the walk of every rewriting derives at its root a body isomorphic to
    its query's, with no F<i> in it.  Evaluated over empty relations of
    the views it scans, every rewriting has the query's head as columns."""
    queries, store = synthetic_workload(seed, shape=shape)
    by_name = {q.name: q for q in queries}
    est = Estimator(collect_statistics(queries, store))
    ctx = TransitionContext()
    for _, state in walk(initial_state(queries, ctx), ctx, rng, 8, avf):
        for held in [state, *(tr.state for tr in iter_transitions(state, ctx))]:
            views = {v.name: v for v in held.views}
            for r in held.rewritings:
                body = est._walk(r.expr, views)[0]
                query = by_name[r.query_name]
                assert canonical_body_key(ConjunctiveQuery("", (), body)) == (
                    canonical_body_key(query))
                assert not [t for a in body for t in a.variables()
                            if re.fullmatch(r"F\d+", t.name)]
                empty = {n: Relation(n, views[n].head) for n in scan_views(r.expr)}
                assert eval_expr(r.expr, empty).columns == query.head


def test_the_rewriting_memo_lets_dropped_states_go():
    queries, store = synthetic_workload(0)
    est = Estimator(collect_statistics(queries, store))
    ctx = TransitionContext()
    root = initial_state(queries, ctx)
    est.state_cost(root)
    children = [tr.state for tr in iter_transitions(root, ctx)]
    list(map(est.state_cost, children))
    assert len(est._costs_by_rewriting) > len(root.rewritings)
    del children
    gc.collect()
    # what is left is the root's own rewritings, which its children shared
    assert len(est._costs_by_rewriting) == len(root.rewritings)
    assert est.state_cost(root) == Estimator(est.stats).state_cost(root)


def renamed_state(state: State) -> State:
    """state with fresh view names and every variable renamed one to one,
    the same way in every view and tree, to F<i> names as transitions
    make."""
    names = {v.name: f"w{i}" for i, v in enumerate(state.views, start=1)}
    mapping: dict[Var, Var] = {}

    def sub(t):
        if isinstance(t, Var):
            return mapping.setdefault(t, Var(f"F{len(mapping) + 1}"))
        return t

    def tree(e):
        if isinstance(e, Scan):
            return Scan(names[e.view])
        if isinstance(e, Select):
            return Select(tree(e.child), sub(e.left), sub(e.right))
        if isinstance(e, Project):
            return Project(tree(e.child), tuple(map(sub, e.columns)))
        if isinstance(e, Rename):
            return Rename(tree(e.child), tuple((sub(a), sub(b)) for a, b in e.mapping))
        if isinstance(e, NatJoin):
            return NatJoin(tree(e.left), tree(e.right))
        return UnionOp(tuple(map(tree, e.children)))

    rewritings = tuple(Rewriting(r.query_name, tree(r.expr)) for r in state.rewritings)
    views = tuple(
        ConjunctiveQuery(names[v.name], tuple(map(sub, v.head)),
                         tuple(TripleAtom(*map(sub, a.terms)) for a in v.body))
        for v in state.views)
    return State(views, rewritings, state.uid)


@settings(max_examples=12)
@given(st.integers(0, 3), st.booleans(), st.randoms(use_true_random=False))
def test_a_renamed_state_costs_what_the_original_does(seed, avf, rng):
    """The view terms are memoized by head and body and the rewriting costs
    by tree shape, both with the terms as they are: a state renamed
    throughout gets, from an estimator that costed the original, the very
    cost a fresh estimator gives the original."""
    queries, store = synthetic_workload(seed)
    stats = collect_statistics(queries, store)
    est = Estimator(stats)
    ctx = TransitionContext()
    for _, state in walk(initial_state(queries, ctx), ctx, rng, 8, avf):
        fresh = Estimator(stats).state_cost(state)
        assert est.state_cost(state) == fresh
        assert est.state_cost(renamed_state(state)) == fresh
    counts = est.cache_counts()
    assert counts["rewriting_by_shape"]["hits"] > 0 and counts["view_terms"]["hits"] > 0


def test_a_view_changed_under_its_name_and_head_is_costed_again(est):
    """Two trees that scan a view of the same name and head, but of another
    body, have different shapes."""
    wide = ConjunctiveQuery("v1", (X,), (TripleAtom(X, Const("p"), Y),))
    narrow = ConjunctiveQuery("v1", (X,), (TripleAtom(X, Const("q"), Y),))
    costs = []
    for uid, view in enumerate((wide, narrow, wide, narrow), start=1):
        tree = Project(Scan("v1"), (X,))
        state = State((view,), (Rewriting("q", tree),), uid=uid)
        assert est.state_cost(state).rec == Estimator(est.stats).rewriting_cost(tree, {"v1": view})
        costs.append(est.state_cost(state).rec)
    assert costs[0] == costs[2] != costs[1] == costs[3]


def test_a_variable_two_scanned_views_share_keeps_their_trees_apart(est):
    """Costing joins the bodies of the views a tree scans by their
    variables, so a tree's shape keeps each scanned view's variables as
    they are: two joins whose views share a variable or not cost apart."""
    left = ConjunctiveQuery("v1", (X, Y), (TripleAtom(X, Const("p"), Y),))
    joined = ConjunctiveQuery("v2", (Y, Z), (TripleAtom(Y, Const("q"), Z),))
    apart = ConjunctiveQuery("v2", (W, Z), (TripleAtom(W, Const("q"), Z),))
    costs = []
    for uid, right in enumerate((joined, apart), start=1):
        tree = NatJoin(Scan("v1"), Scan("v2"))
        state = State((left, right), (Rewriting("q", tree),), uid=uid)
        costs.append(est.state_cost(state).rec)
        assert costs[-1] == Estimator(est.stats).rewriting_cost(tree, {"v1": left, "v2": right})
    assert costs[0] != costs[1]
