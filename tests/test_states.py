"""State space: initial states, the four transitions, rewriting preservation.

The heavyweight check here is answer preservation: whatever chain of
transitions we apply, evaluating each query's rewriting over the
materialized views must return exactly the answers of the query on the
triple store.  Every test that builds states runs it.
"""

import copy
import itertools
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import painter_query, random_query, random_schema, random_store
from rdftuner.algebra import (
    NatJoin,
    Project,
    Scan,
    Select,
    UnionOp,
    eval_expr,
    replace_scans,
    scan_views,
)
from rdftuner.queries import (
    ConjunctiveQuery,
    Const,
    QueryError,
    TripleAtom,
    Var,
    bodies_isomorphic,
    canonical_body_key,
    canonical_key,
    is_connected,
    view_key,
)
from rdftuner.reasoning import parse_schema, reformulate
from rdftuner.states import (
    KINDS,
    Rewriting,
    State,
    TransitionContext,
    initial_state,
    iter_transitions,
    view_fusions,
)
from rdftuner.store import evaluate, load_triples, materialize
from rdftuner.workload import WorkloadSpec, generate_workload, make_synthetic_store


def assert_rewritings_ok(state, queries, store):
    expected = {q.name: frozenset(evaluate(q, store)) for q in queries}
    relations = {v.name: materialize(v, store) for v in state.views}
    for r in state.rewritings:
        got = eval_expr(r.expr, relations)
        assert got.rows == expected[r.query_name], r.query_name


def full_closure(queries, ctx=None):
    """BFS over all four transitions; returns (initial, {signature: state},
    number of duplicate arrivals)."""
    ctx = ctx or TransitionContext()
    s0 = initial_state(queries, ctx)
    seen = {s0.signature: s0}
    frontier = [s0]
    duplicates = 0
    while frontier:
        nxt = []
        for st in frontier:
            for tr in iter_transitions(st, ctx):
                if tr.state.signature in seen:
                    duplicates += 1
                else:
                    seen[tr.state.signature] = tr.state
                    nxt.append(tr.state)
        frontier = nxt
    return s0, seen, duplicates


def view_shape(v):
    consts = tuple(
        sorted(t.symbol for a in v.body for t in a.terms if isinstance(t, Const))
    )
    return (len(v.body), consts, len(v.head))


def state_shape(state):
    return tuple(sorted(view_shape(v) for v in state.views))


# ---------------------------------------------------------------------------
# states and rewritings as objects


def test_states_and_rewritings_compare_by_identity():
    """The estimator memoizes by state and by rewriting object, weakly:
    each compares and hashes as itself, takes weak references and refuses
    changes."""
    q = painter_query()
    r = Rewriting(q.name, Scan(q.name))
    s = State((q,), (r,), 1)
    for obj, twins in ((r, [Rewriting(q.name, Scan(q.name)), copy.copy(r)]),
                       (s, [State(s.views, s.rewritings, s.uid), copy.copy(s)])):
        assert obj == obj and hash(obj) == object.__hash__(obj)
        for twin in twins:
            assert type(twin) is type(obj) and twin != obj and not twin == obj
            assert {obj: 1, twin: 2}[obj] == 1
    assert copy.copy(s).signature == s.signature == (view_key(q),)
    memo: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
    memo[s] = memo[r] = 0.0
    assert weakref.ref(s)() is s and weakref.ref(r)() is r and len(memo) == 2
    for obj, names in ((s, ("views", "rewritings", "uid", "signature", "other")),
                       (r, ("query_name", "expr", "other"))):
        for name in names:
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
    assert repr(r) == "Rewriting(query_name='q1', expr=Scan(view='q1'))"
    assert repr(s) == "State(uid=1, views=['q1'])"


# ---------------------------------------------------------------------------
# initial states


def test_initial_state_plain(painter_store):
    q = painter_query()
    ctx = TransitionContext()
    s0 = initial_state([q], ctx)
    assert len(s0.views) == 1
    v = s0.views[0]
    assert v.head == q.head and v.body == q.body
    assert s0.rewritings[0].query_name == "q1"
    assert s0.rewritings[0].expr == Scan(v.name)
    assert_rewritings_ok(s0, [q], painter_store)


def test_initial_state_two_queries():
    x, y = Var("X"), Var("Y")
    qa = ConjunctiveQuery("qa", (x,), (TripleAtom(x, Const("p"), Const("k")),))
    qb = ConjunctiveQuery("qb", (x, y), (TripleAtom(x, Const("r"), y),))
    s0 = initial_state([qa, qb], TransitionContext())
    assert len(s0.views) == 2
    assert [r.query_name for r in s0.rewritings] == ["qa", "qb"]
    assert len({v.name for v in s0.views}) == 2


def test_initial_state_validation():
    ctx = TransitionContext()
    with pytest.raises(QueryError):
        initial_state([], ctx)
    # a disconnected body never becomes a view seed
    x, y = Var("X"), Var("Y")
    bad = ConjunctiveQuery(
        "bad", (x, y), (TripleAtom(x, Const("p"), Const("a")),
                        TripleAtom(y, Const("p"), Const("b")))
    )
    with pytest.raises(QueryError):
        initial_state([bad], ctx)


def test_initial_state_pre_mode_unions(gallery_schema):
    x = Var("X1")
    q = ConjunctiveQuery(
        "q1", (x,), (TripleAtom(x, Const("rdf:type"), Const("picture")),)
    )
    s0 = initial_state([reformulate(q, gallery_schema)], TransitionContext())
    # one view per member of the entailment-aware rewriting
    assert len(s0.views) == 2
    classes = {v.body[0].o.symbol for v in s0.views}
    assert classes == {"picture", "painting"}
    expr = s0.rewritings[0].expr
    assert isinstance(expr, UnionOp) and len(expr.children) == 2
    assert all(isinstance(p, Scan) for p in expr.children)


def test_initial_state_pre_mode_rejects_trifold_constants(gallery_schema):
    p = Var("P")
    q = ConjunctiveQuery(
        "q1", (p,), (TripleAtom(Const("mona"), p, Const("louvre")),)
    )
    # binding the property variable would leave an all-constant atom
    with pytest.raises(QueryError):
        initial_state([reformulate(q, gallery_schema)], TransitionContext())


def test_initial_state_pre_mode_rejects_disconnection(gallery_schema):
    x, y, c = Var("X"), Var("Y"), Var("C")
    q = ConjunctiveQuery(
        "q1",
        (x, y),
        (
            TripleAtom(x, Const("rdf:type"), c),
            TripleAtom(c, Const("hasAuthor"), y),
        ),
    )
    # binding C to a class constant severs the only join
    with pytest.raises(QueryError):
        initial_state([reformulate(q, gallery_schema)], TransitionContext())


# ---------------------------------------------------------------------------
# transition enumeration on a two-atom chain query: the nine-state space


CHAIN_STORE = load_triples(
    """
    a c1 b
    b c2 c
    a c1 d
    d c2 e
    f c1 b
    b c2 b
    g c3 h
    """
)


def chain_query() -> ConjunctiveQuery:
    x, y, z = Var("X"), Var("Y"), Var("Z")
    return ConjunctiveQuery(
        "q",
        (x, y),
        (TripleAtom(x, Const("c1"), z), TripleAtom(z, Const("c2"), y)),
    )


def test_chain_closure_has_nine_states():
    s0, seen, duplicates = full_closure([chain_query()])
    assert len(seen) == 9
    # several transitions re-derive already known states
    assert duplicates > 0
    expected_shapes = {
        ((2, ("c1", "c2"), 2),),                    # the query itself
        ((1, ("c1",), 2), (1, ("c2",), 2)),         # join cut
        ((2, ("c2",), 3),),                         # selection cut on c1
        ((2, ("c1",), 3),),                         # selection cut on c2
        ((2, (), 4),),                              # both selections cut
        ((1, (), 3), (1, ("c2",), 2)),
        ((1, (), 3), (1, ("c1",), 2)),
        ((1, (), 3), (1, (), 3)),                   # two full triple views
        ((1, (), 3),),                              # fused: one triple table
    }
    assert {state_shape(st) for st in seen.values()} == expected_shapes


def test_chain_closure_preserves_answers():
    q = chain_query()
    assert evaluate(q, CHAIN_STORE)  # meaningful store
    _, seen, _ = full_closure([q])
    for st in seen.values():
        assert_rewritings_ok(st, [q], CHAIN_STORE)


def test_chain_terminal_state_has_no_transitions():
    _, seen, _ = full_closure([chain_query()])
    ctx = TransitionContext()
    terminal = [st for st in seen.values() if state_shape(st) == ((1, (), 3),)]
    assert len(terminal) == 1
    assert list(iter_transitions(terminal[0], ctx)) == []


def test_iter_transitions_yields_duplicates():
    ctx = TransitionContext()
    s0 = initial_state([chain_query()], ctx)
    raw = list(iter_transitions(s0, ctx))
    # two selection cuts plus one join edge cut at either end
    assert sorted(t.kind for t in raw) == ["JC", "JC", "SC", "SC"]
    # two of them reach the same state; deduplication is the search's job
    assert len({t.state.signature for t in raw}) == 3


def test_view_fusion_yields_every_fused_head():
    """Two 7-atom stars have 5040 isomorphisms.  v2's head lands on v1's
    own head column Y0 under some of them and beside it under the rest,
    so fusing gives a 3-column and a 4-column view: two transitions."""
    x, z, p = Var("X"), Var("Z"), Const("p")
    ys = [Var(f"Y{i}") for i in range(7)]
    ws = [Var(f"W{i}") for i in range(7)]
    v1 = ConjunctiveQuery("v1", (x, ys[0]), tuple(TripleAtom(x, p, y) for y in ys))
    v2 = ConjunctiveQuery("v2", (z, ws[6], ws[5]), tuple(TripleAtom(z, p, w) for w in ws))
    ctx = TransitionContext()
    s0 = initial_state([v1, v2], ctx)
    trs = list(iter_transitions(s0, ctx, kinds=("VF",)))
    assert len(trs) == 2
    assert sorted(len(t.state.views[0].head) for t in trs) == [3, 4]
    store = load_triples("a p b\na p c\nd p e\n")
    for t in trs:
        assert_rewritings_ok(t.state, [v1, v2], store)


def test_transition_walkthrough_script_runs():
    script = Path(__file__).resolve().parent.parent / "scripts" / "transition_walkthrough.py"
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    applied = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("-> ")]
    assert sorted(set(applied)) == sorted(KINDS)
    # each group of transitions of one kind is followed by the state it led to
    assert proc.stdout.count("\n== ") == 1 + len(KINDS)


# ---------------------------------------------------------------------------
# a child shares what its transition left untouched


def test_replace_scans_returns_untouched_subtrees_themselves():
    x = Var("X")
    kept = Project(Select(Scan("v1"), x, Const("a")), (x,))
    tree = NatJoin(kept, Scan("v2"))
    assert replace_scans(tree, {"v3": Scan("v4")}) is tree
    patched = replace_scans(tree, {"v2": Scan("v5")})
    assert patched == NatJoin(kept, Scan("v5"))
    assert patched.left is kept
    union = UnionOp((kept, Scan("v2")))
    assert replace_scans(union, {"v9": Scan("v5")}) is union
    assert replace_scans(union, {"v2": Scan("v5")}).children[0] is kept


def test_children_share_the_untouched_views_and_rewritings():
    q1 = chain_query()
    q2 = ConjunctiveQuery("q2", (Var("A"),), (TripleAtom(Var("A"), Const("c3"), Const("k")),))
    ctx = TransitionContext()
    s0 = initial_state([q1, q2], ctx)
    children = list(iter_transitions(s0, ctx))
    assert {tr.kind for tr in children} >= {"SC", "JC"}
    for tr in children:
        replaced = {v.name for v in s0.views} - {v.name for v in tr.state.views}
        for old, new in zip(s0.rewritings, tr.state.rewritings):
            if replaced.isdisjoint(scan_views(old.expr)):
                assert new is old
            else:
                assert new.expr is not old.expr
        parent_views = {v.name: v for v in s0.views}
        for v in tr.state.views:
            if v.name in parent_views:
                assert v is parent_views[v.name]


def test_view_and_body_keys_ignore_the_view_name():
    q = chain_query()
    for name in ("v1", "v2", "other"):
        renamed = ConjunctiveQuery(name, q.head, q.body)
        assert view_key(renamed) == view_key(q)
        assert canonical_body_key(renamed) == canonical_body_key(q)
    swapped = ConjunctiveQuery("v3", q.head[::-1], q.body)
    assert view_key(swapped) == view_key(q)  # head order is ignored too
    other_body = ConjunctiveQuery("q", q.head, q.body[:1])
    assert view_key(other_body) != view_key(q)
    assert canonical_body_key(other_body) != canonical_body_key(q)


def test_key_caches_pin_no_query():
    """The key caches hold heads and bodies, never the query
    objects, so a view no state holds any more can be freed."""
    q = ConjunctiveQuery("pinned", (Var("A"), Var("B")),
                         (TripleAtom(Var("A"), Const("pin"), Var("B")),))
    twin = ConjunctiveQuery("twin", (Var("C"),), (TripleAtom(Var("C"), Const("pin"), Var("D")),))
    state = State((q, twin), (Rewriting("a", Scan("pinned")), Rewriting("b", Scan("twin"))), 1)
    before = sys.getrefcount(q)
    view_key(q), canonical_key(q), canonical_body_key(q)
    renamed = ConjunctiveQuery("renamed", (Var("E"), Var("G")),
                               (TripleAtom(Var("E"), Const("pin"), Var("G")),))
    view_key(renamed), canonical_body_key(renamed)
    children = list(view_fusions(state, TransitionContext()))
    assert children
    del children
    assert sys.getrefcount(q) == before


# ---------------------------------------------------------------------------
# the worked example: break, select-cut, two join cuts, two fusions


def transition_by(transitions, kind, label_part):
    hits = [t for t in transitions if t.kind == kind and label_part in t.label]
    assert hits, f"no {kind} transition matching {label_part!r}"
    return hits[0]


def test_painter_walkthrough(painter_store):
    q = painter_query()
    queries = [q]
    ctx = TransitionContext()
    s0 = initial_state(queries, ctx)
    v1 = s0.views[0]

    # break the three-atom view on the overlapping node sets {n1,n2}, {n2,n3}
    tr = transition_by(
        iter_transitions(s0, ctx, kinds=("VB",)), "VB", "{n1,n2}|{n2,n3}"
    )
    s1 = tr.state
    assert len(s1.views) == 2
    v2 = next(v for v in s1.views
              if any(t == Const("starryNight") for a in v.body for t in a.terms))
    v3 = next(v for v in s1.views if v.name != v2.name)
    assert v2.head == (Var("X"), Var("Y"))
    assert v3.head == (Var("X"), Var("Z"), Var("Y"))
    assert [a.p.symbol for a in v2.body] == ["hasPainted", "isParentOf"]
    assert [a.p.symbol for a in v3.body] == ["isParentOf", "hasPainted"]
    expr = s1.rewritings[0].expr
    assert isinstance(expr, Project) and expr.columns == q.head
    assert isinstance(expr.child, NatJoin)
    assert_rewritings_ok(s1, queries, painter_store)

    # cut the selection on starryNight: constant becomes a head variable
    tr = transition_by(iter_transitions(s1, ctx, kinds=("SC",)), "SC", "starryNight")
    s2 = tr.state
    v4 = next(v for v in s2.views if v.name not in (v2.name, v3.name))
    assert len(s2.views) == 2 and v3 in s2.views
    assert v4.head[:2] == (Var("X"), Var("Y"))
    fresh = v4.head[2]
    assert isinstance(fresh, Var) and fresh not in (Var("X"), Var("Y"), Var("Z"))
    assert v4.body[0] == TripleAtom(Var("X"), Const("hasPainted"), fresh)
    # the cut re-applies the selection on top of the relaxed view
    sel = next(
        e for e in iter_exprs(s2.rewritings[0].expr)
        if isinstance(e, Select) and e.right == Const("starryNight")
    )
    assert sel.left == fresh
    assert_rewritings_ok(s2, queries, painter_store)

    # cut the subject-subject join of the relaxed view: it splits in two
    tr = transition_by(
        iter_transitions(s2, ctx, kinds=("JC",)), "JC", f"JC {v4.name}:n1.s"
    )
    s3a = tr.state
    assert len(s3a.views) == 3
    v5 = next(v for v in s3a.views
              if len(v.body) == 1 and v.body[0].p == Const("hasPainted"))
    v6 = next(v for v in s3a.views
              if len(v.body) == 1 and v.body[0].p == Const("isParentOf"))
    assert set(v5.head) == set(v5.body[0].variables())
    assert v6.head == (Var("X"), Var("Y"))
    assert_rewritings_ok(s3a, queries, painter_store)

    # cut the parent-child join of the other break half
    tr = transition_by(
        iter_transitions(s3a, ctx, kinds=("JC",)), "JC", f"JC {v3.name}:n1.o"
    )
    s3 = tr.state
    assert len(s3.views) == 4
    v7 = next(v for v in s3.views
              if v.name not in {x.name for x in s3a.views}
              and v.body[0].p == Const("isParentOf"))
    v8 = next(v for v in s3.views
              if v.name not in {x.name for x in s3a.views} and v.name != v7.name)
    assert v8.body[0].p == Const("hasPainted")
    assert set(v8.head) == set(v8.body[0].variables())
    assert_rewritings_ok(s3, queries, painter_store)

    # the two isomorphic pairs fuse down to two generic views
    trs = list(iter_transitions(s3, ctx, kinds=("VF",)))
    assert sorted(t.label for t in trs) == sorted(
        [f"VF {v5.name}+{v8.name}", f"VF {v6.name}+{v7.name}"]
    )
    mid = transition_by(trs, "VF", f"{v5.name}+{v8.name}").state
    tr = transition_by(iter_transitions(mid, ctx, kinds=("VF",)), "VF", "+")
    s4 = tr.state
    assert len(s4.views) == 2
    props = sorted(v.body[0].p.symbol for v in s4.views)
    assert props == ["hasPainted", "isParentOf"]
    for v in s4.views:
        assert len(v.body) == 1
        assert set(v.head) == set(v.body[0].variables())
        assert len(v.head) == 2
    assert set(scan_views(s4.rewritings[0].expr)) == {v.name for v in s4.views}
    assert_rewritings_ok(s4, queries, painter_store)


def iter_exprs(e):
    yield e
    for attr in ("child", "left", "right"):
        sub = getattr(e, attr, None)
        if sub is not None and not isinstance(sub, (Var, Const, tuple)):
            yield from iter_exprs(sub)
    for part in getattr(e, "children", ()):
        yield from iter_exprs(part)


# ---------------------------------------------------------------------------
# randomized: any walk keeps rewritings equivalent to the queries


def test_random_walks_preserve_answers():
    rng = random.Random(77)
    checked = 0
    for _ in range(60):
        schema = random_schema(rng)
        store = random_store(rng, schema)
        queries = []
        for qi in range(rng.randint(1, 2)):
            q = random_query(rng, schema)
            queries.append(ConjunctiveQuery(f"q{qi + 1}", q.head, q.body))
        ctx = TransitionContext()
        try:
            state = initial_state(queries, ctx)
        except QueryError:
            continue  # e.g. an all-constant atom; not a legal view seed
        for _step in range(3):
            trs = list(iter_transitions(state, ctx))
            if not trs:
                break
            state = rng.choice(trs).state
            assert_rewritings_ok(state, queries, store)
            checked += 1
    assert checked > 60


def assert_fusions_match_brute_force(state, ctx):
    """view_fusions yields children for exactly the pairs of views with
    isomorphic bodies, pair by pair in (i, j) order, each pair's head
    layouts numbered VF a+b, VF a+b#2, ..., at most one per isomorphism."""
    views = state.views
    expected = []
    for i in range(len(views)):
        for j in range(i + 1, len(views)):
            isos = bodies_isomorphic(views[i], views[j])
            if isos:
                expected.append((f"VF {views[i].name}+{views[j].name}", len(isos)))
    labels = [label for label, _ in view_fusions(state, ctx)]
    got: list[list] = []
    for label in labels:
        base, _, n = label.partition("#")
        if n:
            assert got[-1][0] == base and int(n) == got[-1][1] + 1, labels
            got[-1][1] += 1
        else:
            got.append([base, 1])
    assert [base for base, _ in got] == [base for base, _ in expected]
    assert all(1 <= k <= n_isos for (_, k), (_, n_isos) in zip(got, expected))


@pytest.mark.parametrize("avf", [False, True], ids=["plain", "avf"])
@pytest.mark.parametrize("shape_name", ["star", "chain", "mixed"])
def test_fusion_candidates_are_the_isomorphic_pairs(shape_name, avf):
    store = make_synthetic_store(300, seed=2)
    rng = random.Random(f"{shape_name}-{avf}")
    walks = 0
    for seed in range(4):
        # five queries over two patterns: views of one body form interleave
        for n_queries, commonality, constants in ((5, "high", 0), (3, "medium", 1)):
            spec = WorkloadSpec(n_queries, 3, shape_name, commonality, constants, seed)
            ctx = TransitionContext()
            state = initial_state(generate_workload(spec, store), ctx)
            for _step in range(5):
                assert_fusions_match_brute_force(state, ctx)
                trs = list(iter_transitions(state, ctx))
                if not trs:
                    break
                state = rng.choice(trs).state
                while avf:
                    fused = next(iter_transitions(state, ctx, ("VF",)), None)
                    if fused is None:
                        break
                    state = fused.state
            walks += 1
    assert walks == 8


def random_connected_body(rng, n_atoms):
    """A connected body of distinct atoms over few variables, so variables
    repeat within and across atoms, with constants in any position but
    never three in one atom."""
    variables = [Var(f"X{i}") for i in range(4)]
    constants = [Const(c) for c in ("c0", "c1", "p0", "p1")]
    while True:
        atoms: list[TripleAtom] = []
        while len(atoms) < n_atoms:
            terms = [rng.choice(variables) if rng.random() < 0.65 else rng.choice(constants)
                     for _ in range(3)]
            a = TripleAtom(*terms)
            if a.n_constants() < 3 and a not in atoms:
                atoms.append(a)
        if is_connected(tuple(atoms)):
            return tuple(atoms)


def test_view_breaks_are_the_covering_pairs_of_connected_pieces():
    """The VB transitions of a one-view state are exactly the pairs of
    connected atom subsets that cover the body with neither holding the
    other, each pair once, its first piece before its second in (size,
    index) order, pairs in that order too, and each label naming the
    pieces whose atoms the child's two views hold."""
    rng = random.Random(20)
    breaks = 0
    for n_atoms in range(3, 9):
        for _ in range(10 if n_atoms < 8 else 4):
            body = random_connected_body(rng, n_atoms)
            variables = list(dict.fromkeys(v for a in body for v in a.variables()))
            head = tuple(rng.sample(variables, rng.randint(1, len(variables))))
            constants = [t for a in body for t in a.terms if isinstance(t, Const)]
            if constants and rng.random() < 0.3:
                head += (constants[0],)
            ctx = TransitionContext()
            state = initial_state([ConjunctiveQuery("q", head, body)], ctx)
            connected = [idxs for k in range(1, n_atoms + 1)
                         for idxs in itertools.combinations(range(n_atoms), k)
                         if is_connected(tuple(body[i] for i in idxs))]
            expected = [(n1, n2) for n1, n2 in itertools.combinations(connected, 2)
                        if set(n1) | set(n2) == set(range(n_atoms))
                        and not set(n1) <= set(n2) and not set(n2) <= set(n1)]
            got = []
            for tr in iter_transitions(state, ctx, ("VB",)):
                pieces = tr.label.partition(":")[2].split("|")
                n1, n2 = (tuple(int(i[1:]) - 1 for i in p.strip("{}").split(","))
                          for p in pieces)
                assert tr.label == f"VB v1:{pieces[0]}|{pieces[1]}"
                assert [v.body for v in tr.state.views] == [
                    tuple(body[i] for i in n1), tuple(body[i] for i in n2)], tr.label
                got.append((n1, n2))
            assert got == expected, body
            breaks += len(got)
    assert breaks > 10000


# ---------------------------------------------------------------------------
# the names transitions invent


def lowest_free_f(view):
    """The lowest F<i> that no term of the view's head or body is."""
    used = set(view.head) | {t for a in view.body for t in a.terms}
    return next(Var(f"F{i}") for i in itertools.count(1) if Var(f"F{i}") not in used)


@pytest.mark.parametrize("avf", [False, True], ids=["plain", "avf"])
@pytest.mark.parametrize("shape_name", ["star", "chain", "mixed"])
@settings(max_examples=8)
@given(seed=st.integers(0, 3), rng=st.randoms(use_true_random=False))
def test_a_transition_of_one_view_builds_equal_views_in_every_state(shape_name, avf, seed, rng):
    """SC, JC and VB applied to one view give views of equal heads and
    bodies in every state that holds the view, and the one variable a cut
    invents is the lowest F<i> the cut view does not use."""
    spec = WorkloadSpec(3, 3, shape_name, "medium", 1, seed)
    ctx = TransitionContext()
    state = initial_state(generate_workload(spec, make_synthetic_store(300, seed=2)), ctx)
    built: dict[tuple, list] = {}
    repeats = 0
    for _step in range(5):
        trs = list(iter_transitions(state, ctx))
        held = {id(v) for v in state.views}
        for tr in trs:
            if tr.kind == "VF":
                continue
            name, _, where = tr.label[len(tr.kind) + 1:].partition(":")
            view = next(v for v in state.views if v.name == name)
            new = [v for v in tr.state.views if id(v) not in held]
            invented = {t for v in new for a in v.body for t in a.terms
                        if isinstance(t, Var)} - set(view.variables())
            assert invented == (set() if tr.kind == "VB" else {lowest_free_f(view)}), tr.label
            key, terms = (view.head, view.body, tr.kind, where), [(v.head, v.body) for v in new]
            repeats += key in built
            assert built.setdefault(key, terms) == terms, tr.label
        if not trs:
            break
        state = rng.choice(trs).state
        while avf:
            fused = next(iter_transitions(state, ctx, ("VF",)), None)
            if fused is None:
                break
            state = fused.state
    assert repeats


def test_pre_mode_walk_preserves_entailed_answers(gallery_schema):
    """In pre-reformulation mode the invariant is against the saturated store."""
    from rdftuner.reasoning import saturate

    store = load_triples(PAINTER_EXTRA)
    x, w = Var("X"), Var("W")
    q = ConjunctiveQuery(
        "q1",
        (x, w),
        (
            TripleAtom(x, Const("rdf:type"), Const("picture")),
            TripleAtom(x, Const("isLocatIn"), w),
        ),
    )
    full = saturate(store, gallery_schema)
    expected = frozenset(evaluate(q, full))
    assert expected  # entailment matters on this instance
    assert expected != frozenset(evaluate(q, store))

    ctx = TransitionContext()
    state = initial_state([reformulate(q, gallery_schema)], ctx)
    rng = random.Random(5)
    for _step in range(4):
        relations = {v.name: materialize(v, store) for v in state.views}
        got = eval_expr(state.rewritings[0].expr, relations)
        assert got.rows == expected
        trs = list(iter_transitions(state, ctx))
        if not trs:
            break
        state = rng.choice(trs).state


PAINTER_EXTRA = """
starryNight rdf:type painting
starryNight isExpIn moma
fatata rdf:type picture
fatata isLocatIn orsay
nightWatch rdf:type painting
nightWatch isLocatIn rijks
"""


def test_transition_kinds_complete():
    assert KINDS == ("VB", "SC", "JC", "VF")
