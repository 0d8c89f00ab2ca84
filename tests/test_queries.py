"""Query layer: containment, equivalence, canonical forms, parsing.

The containment oracle here enumerates every variable assignment outright,
and a second oracle goes through evaluation over the frozen body, so the
backtracking matcher is checked against two independent definitions.  The
canonical forms and body isomorphisms are checked against a plain
backtracking isomorphism search on bodies that refinement cannot split.
"""

import copy
import dataclasses
import itertools
import pickle
import random
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import QUERY_CHARS, loader_symbols, symmetric_bodies
from rdftuner.algebra import NatJoin, Project, Rename, Scan, Select, UnionOp
from rdftuner.cost import CostBreakdown, CostWeights
from rdftuner.queries import (
    ConjunctiveQuery,
    Const,
    QueryError,
    TripleAtom,
    UnionQuery,
    Var,
    are_equivalent,
    bodies_isomorphic,
    canonical_body_key,
    canonical_key,
    check_workload_query,
    connected_components,
    is_connected,
    find_containment_mapping,
    format_query,
    make_union,
    minimize,
    parse_queries,
    view_key,
)
from rdftuner.reasoning import SUBCLASS, Schema
from rdftuner.states import Transition
from rdftuner.stats import ColumnStats
from rdftuner.store import Relation, TripleStore, evaluate

VARS = [Var(n) for n in "XYZW"]
CONSTS = [Const(s) for s in ("a", "b", "p", "q")]


def atom(s, p, o) -> TripleAtom:
    """An atom from bare strings under the query-text convention (leading
    uppercase or '?' means variable); terms pass through."""
    return TripleAtom(_coerce(s), _coerce(p), _coerce(o))


def _coerce(t):
    if isinstance(t, (Var, Const)):
        return t
    if t.startswith("?"):
        return Var(t[1:]) if len(t) > 1 else Var("?")
    if t[:1].isupper():
        return Var(t)
    return Const(t)


terms = st.sampled_from(VARS + CONSTS)
atoms = st.builds(TripleAtom, terms, terms, terms)


@st.composite
def queries(draw, max_atoms=3):
    body = tuple(draw(st.lists(atoms, min_size=1, max_size=max_atoms)))
    body_vars = []
    for a in body:
        for v in a.variables():
            if v not in body_vars:
                body_vars.append(v)
    head = tuple(
        draw(
            st.lists(
                st.sampled_from(body_vars + CONSTS) if body_vars else st.sampled_from(CONSTS),
                unique=True,
                max_size=min(3, len(body_vars) + 1),
            )
        )
    )
    return ConjunctiveQuery("q", head, body)


def brute_contained(src: ConjunctiveQuery, dst: ConjunctiveQuery) -> bool:
    """dst is contained in src: some total assignment of src's variables to
    dst's terms maps head onto head and body into body."""
    if len(src.head) != len(dst.head):
        return False
    src_vars = sorted(
        {v for a in src.body for v in a.variables()}
        | {t for t in src.head if isinstance(t, Var)},
        key=lambda v: v.name,
    )
    targets = sorted(
        {t for a in dst.body for t in a.terms} | set(dst.head),
        key=repr,
    )
    if not targets:
        targets = [Const("_")]
    dst_atoms = set(dst.body)
    for combo in itertools.product(targets, repeat=len(src_vars)):
        env = dict(zip(src_vars, combo))

        def m(t):
            return env.get(t, t)

        if tuple(m(t) for t in src.head) != dst.head:
            continue
        if all(
            TripleAtom(m(a.terms[0]), m(a.terms[1]), m(a.terms[2])) in dst_atoms
            for a in src.body
        ):
            return True
    return False


def frozen_body_contained(src: ConjunctiveQuery, dst: ConjunctiveQuery) -> bool:
    """Same question answered semantically: freeze dst's body into a store
    and ask whether src returns dst's frozen head row."""
    if len(src.head) != len(dst.head):
        return False

    def sym(t):
        return t.name if isinstance(t, Var) else t.symbol

    store = TripleStore()
    for a in dst.body:
        store.add(sym(a.terms[0]), sym(a.terms[1]), sym(a.terms[2]))
    want = tuple(sym(t) for t in dst.head)
    return want in evaluate(src, store)


@given(queries(), queries())
def test_containment_matches_bruteforce(q1, q2):
    got = find_containment_mapping(q1, q2) is not None
    assert got == brute_contained(q1, q2)


@given(queries(), queries())
def test_containment_matches_frozen_body(q1, q2):
    got = find_containment_mapping(q1, q2) is not None
    assert got == frozen_body_contained(q1, q2)


@given(queries())
def test_containment_mapping_is_a_witness(q1):
    env = find_containment_mapping(q1, q1)
    assert env is not None

    def sub(t):
        return env.get(t, t)

    body = set(q1.body)
    for a in q1.body:
        assert TripleAtom(sub(a.terms[0]), sub(a.terms[1]), sub(a.terms[2])) in body
    assert tuple(sub(t) for t in q1.head) == q1.head


@given(queries(), queries())
def test_equivalence_is_mutual_containment(q1, q2):
    expected = brute_contained(q1, q2) and brute_contained(q2, q1)
    assert are_equivalent(q1, q2) == expected


# ---------------------------------------------------------------------------
# minimization


@given(queries())
def test_minimize_preserves_equivalence(q):
    assert are_equivalent(minimize(q), q)


@given(queries())
def test_minimize_yields_a_core(q):
    small = minimize(q)
    if len(small.body) == 1:
        return
    head_vars = {t for t in small.head if isinstance(t, Var)}
    for r in range(1, len(small.body)):
        for keep in itertools.combinations(range(len(small.body)), r):
            body = tuple(small.body[i] for i in keep)
            bound = {v for a in body for v in a.variables()}
            if not head_vars <= bound:
                continue
            assert not are_equivalent(
                ConjunctiveQuery(small.name, small.head, body), small
            )


def unguarded_minimize(q: ConjunctiveQuery) -> ConjunctiveQuery:
    """The greedy loop of `minimize` with a containment search for every
    atom."""
    body = list(q.body)
    changed = True
    while changed and len(body) > 1:
        changed = False
        for i in range(len(body)):
            reduced = body[:i] + body[i + 1:]
            if find_containment_mapping(ConjunctiveQuery(q.name, q.head, tuple(body)),
                                        ConjunctiveQuery(q.name, q.head, tuple(reduced))) is not None:
                body = reduced
                changed = True
                break
    return ConjunctiveQuery(q.name, q.head, tuple(body))


@settings(max_examples=200)
@given(queries(max_atoms=5))
def test_minimize_skips_only_atoms_nothing_absorbs(q):
    """Skipping the search for atoms that no other atom agrees with on
    their constants removes the same atoms, in the same order."""
    assert minimize(q) == unguarded_minimize(q)


# ---------------------------------------------------------------------------
# canonical forms


@given(queries(), st.randoms(use_true_random=False))
def test_canonical_key_invariant_under_renaming(q, rng):
    names = [v.name for v in q.variables()]
    fresh = [f"R{i}" for i in range(len(names))]
    rng.shuffle(fresh)
    mapping = {Var(n): Var(f) for n, f in zip(names, fresh)}
    body = list(q.rename(mapping).body)
    rng.shuffle(body)
    renamed = ConjunctiveQuery(
        q.name,
        tuple(mapping.get(t, t) if isinstance(t, Var) else t for t in q.head),
        tuple(body),
    )
    assert canonical_key(renamed) == canonical_key(q)
    assert canonical_body_key(renamed) == canonical_body_key(q)


@given(queries(), queries())
def test_equal_canonical_keys_imply_equivalence(q1, q2):
    if canonical_key(q1) == canonical_key(q2):
        assert are_equivalent(q1, q2)


def test_canonical_key_separates_structures():
    x, y = Var("X"), Var("Y")
    a = ConjunctiveQuery("q", (x,), (TripleAtom(x, Const("p"), y),))
    b = ConjunctiveQuery("q", (x,), (TripleAtom(y, Const("p"), x),))
    c = ConjunctiveQuery("q", (y,), (TripleAtom(y, Const("p"), x),))
    assert canonical_key(a) != canonical_key(b)
    assert canonical_key(a) == canonical_key(c)


@given(queries(), queries())
def test_body_isomorphism_agrees_with_body_key(q1, q2):
    renamings = bodies_isomorphic(q1, q2)
    assert bool(renamings) == (canonical_body_key(q1) == canonical_body_key(q2))
    for rho in renamings:
        mapped = {
            TripleAtom(*(rho.get(t, t) if isinstance(t, Var) else t for t in a.terms))
            for a in q2.body
        }
        assert mapped == set(q1.body)


@given(st.lists(queries(), min_size=1, max_size=5), st.randoms(use_true_random=False))
def test_make_union_drops_exactly_the_equivalent_members(qs, rnd):
    arity = len(qs[0].head)
    members = []
    for q in qs:
        if len(q.head) != arity:
            continue
        members.append(q)
        # an isomorphic copy: variables renamed, atoms shuffled
        renamed = q.rename({v: Var(v.name + "2") for v in q.variables()})
        body = list(renamed.body)
        rnd.shuffle(body)
        members.insert(rnd.randint(0, len(members)),
                       ConjunctiveQuery(q.name, renamed.head, tuple(body)))
    members = [minimize(m) for m in members]
    expected = []
    for m in members:
        if not any(are_equivalent(m, k) for k in expected):
            expected.append(m)
    assert make_union("u", members).members == tuple(expected)


# ---------------------------------------------------------------------------
# canonical forms of symmetric bodies, against a brute-force oracle


def brute_isomorphisms(a: ConjunctiveQuery, b: ConjunctiveQuery) -> list[dict[Var, Var]]:
    """Bijective renamings of b's variables carrying b's body onto a's body,
    one per image of b's head variables, by plain backtracking over atom
    assignments.  Atoms holding head variables go first and then atoms
    joined to those placed, and a variable only maps to one occurring as
    often in each position, so the search stays small without any
    canonical form."""
    if len(a.body) != len(b.body):
        return []

    def occurrences(q):
        counts = {}
        for at in q.body:
            for pos, t in enumerate(at.terms):
                if isinstance(t, Var):
                    counts.setdefault(t, [0, 0, 0])[pos] += 1
        return {v: tuple(c) for v, c in counts.items()}

    occ_a, occ_b = occurrences(a), occurrences(b)
    head = [v for v in b.head_vars() if v in occ_b]
    order, bound = [], set()
    while len(order) < len(b.body):
        k = max((k for k in range(len(b.body)) if k not in order),
                key=lambda k: (bool(set(b.body[k].variables()) & (set(head) - bound)),
                               len(set(b.body[k].variables()) & bound)))
        order.append(k)
        bound.update(b.body[k].variables())
    results: dict[tuple, dict[Var, Var]] = {}
    used = [False] * len(a.body)

    def rec(k: int, env: dict[Var, Var], rev: dict[Var, Var]) -> None:
        if all(v in env for v in head) and tuple(env[v] for v in head) in results:
            return
        if k == len(order):
            results[tuple(env[v] for v in head)] = dict(env)
            return
        bat = b.body[order[k]]
        for i, aat in enumerate(a.body):
            if used[i]:
                continue
            env2, rev2 = dict(env), dict(rev)
            ok = True
            for bt, at_ in zip(bat.terms, aat.terms):
                if isinstance(bt, Const) or isinstance(at_, Const):
                    ok = bt == at_
                elif bt in env2:
                    ok = env2[bt] == at_
                else:
                    ok = at_ not in rev2 and occ_b[bt] == occ_a[at_]
                    env2[bt], rev2[at_] = at_, bt
                if not ok:
                    break
            if ok:
                used[i] = True
                rec(k + 1, env2, rev2)
                used[i] = False

    rec(0, {}, {})
    return list(results.values())


def shuffled_copy(q: ConjunctiveQuery, rng: random.Random) -> ConjunctiveQuery:
    """q with fresh variable names and its atoms shuffled."""
    fresh = [Var(f"R{i}") for i in range(len(q.variables()))]
    rng.shuffle(fresh)
    renamed = q.rename(dict(zip(q.variables(), fresh)))
    body = list(renamed.body)
    rng.shuffle(body)
    return ConjunctiveQuery(q.name, renamed.head, tuple(body))


def body_only(q: ConjunctiveQuery) -> ConjunctiveQuery:
    return ConjunctiveQuery(q.name, (), q.body)


@given(symmetric_bodies(), st.randoms(use_true_random=False))
def test_keys_invariant_under_shuffling_up_to_12_atoms(q, rng):
    other = shuffled_copy(q, rng)
    assert canonical_key(other) == canonical_key(q)
    assert canonical_body_key(other) == canonical_body_key(q)
    head = list(other.head)
    rng.shuffle(head)
    assert view_key(ConjunctiveQuery(q.name, tuple(head), other.body)) == view_key(q)


@given(symmetric_bodies(), symmetric_bodies(), st.randoms(use_true_random=False))
def test_body_keys_equal_iff_isomorphic(q1, q2, rng):
    for a, b in ((q1, q2), (q1, shuffled_copy(q1, rng))):
        isomorphic = bool(brute_isomorphisms(body_only(a), body_only(b)))
        assert (canonical_body_key(a) == canonical_body_key(b)) == isomorphic


@given(symmetric_bodies(), symmetric_bodies(), st.randoms(use_true_random=False))
def test_body_isomorphisms_match_the_oracle(q1, q2, rng):
    for a, b in ((q1, q2), (q1, shuffled_copy(q1, rng))):
        head = [v for v in b.head_vars() if v in b.variables()]
        got = bodies_isomorphic(a, b)
        images = [tuple(rho[v] for v in head) for rho in got]
        assert len(images) == len(set(images))
        assert set(images) == {tuple(rho[v] for v in head) for rho in brute_isomorphisms(a, b)}
        for rho in got:
            assert set(rho) == set(b.variables())
            assert len(set(rho.values())) == len(rho)
            assert sorted(map(str, b.rename(rho).body)) == sorted(map(str, a.body))


def two_cycles(k: int, n: int) -> ConjunctiveQuery:
    """Directed cycles of k and n - k atoms over one property."""
    ring = [Var(f"V{i}") for i in range(n)]
    body = tuple(TripleAtom(c[i], Const("p"), c[(i + 1) % len(c)])
                 for c in (ring[:k], ring[k:]) for i in range(len(c)))
    return ConjunctiveQuery("v", (), body)


def test_two_disjoint_cycles_key_exactly():
    """Refinement leaves all atoms of such a body in one class; copies
    must still share a key, and other splits of the atoms must not."""
    rng = random.Random(2014)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(200):
        n = rng.randint(8, 10)
        k = rng.randint(2, n // 2)
        q = two_cycles(k, n)
        mismatches += view_key(shuffled_copy(q, rng)) != view_key(q)
        other = two_cycles(k + 1 if k < n // 2 else k - 1, n)
        assert canonical_body_key(other) != canonical_body_key(q)
    assert mismatches == 0
    assert time.perf_counter() - t0 < 10.0


def test_twelve_atom_symmetric_stars_key_exactly():
    """Twelve spokes from one hub, free or joined in a ring through the
    property position: refinement leaves the twelve atoms in one class."""
    x, ys = Var("X"), [Var(f"Y{i}") for i in range(12)]
    spokes = tuple(TripleAtom(x, Var(f"F{i}"), ys[i]) for i in range(12))
    wheel = tuple(TripleAtom(x, ys[i - 1], ys[i]) for i in range(12))
    rng = random.Random(12)
    for body in (spokes, wheel):
        star = ConjunctiveQuery("v", (x,), body)
        for _ in range(5):
            other = shuffled_copy(star, rng)
            assert view_key(other) == view_key(star)
            assert canonical_key(other) == canonical_key(star)
            assert canonical_body_key(other) == canonical_body_key(star)


def test_view_key_ignores_head_order():
    x, y = Var("X"), Var("Y")
    body = (TripleAtom(x, Const("p"), y),)
    assert view_key(ConjunctiveQuery("v", (x, y), body)) == view_key(
        ConjunctiveQuery("v", (y, x), body)
    )


@st.composite
def renamed_copies(draw):
    """A query from `symmetric_bodies` and a copy of it under a one-to-one
    renaming of its variables, some to F<i> names as transitions make, and
    under another query name."""
    q = draw(symmetric_bodies(max_atoms=8))
    names = st.one_of(st.integers(1, 10**6).map(lambda i: f"F{i}"),
                      st.from_regex(r"[A-Z][a-z0-9]{0,2}", fullmatch=True))
    variables = q.variables()
    fresh = draw(st.lists(names, unique=True, min_size=len(variables),
                          max_size=len(variables)))
    other = q.rename({v: Var(n) for v, n in zip(variables, fresh)})
    return q, ConjunctiveQuery("v" + draw(st.integers(1, 10**6).map(str)), other.head, other.body)


@given(renamed_copies())
def test_keys_ignore_the_names_transitions_invent(pair):
    q, other = pair
    assert view_key(other) == view_key(q)
    assert canonical_key(other) == canonical_key(q)
    assert canonical_body_key(other) == canonical_body_key(q)


# ---------------------------------------------------------------------------
# structure checks


def test_connected_components_partition():
    x, y, z, w = Var("X"), Var("Y"), Var("Z"), Var("W")
    p = Const("p")
    body = (TripleAtom(x, p, y), TripleAtom(z, p, w), TripleAtom(y, p, x))
    assert connected_components(body) == [[0, 2], [1]]
    assert connected_components((TripleAtom(x, p, y), TripleAtom(y, p, z))) == [[0, 1]]


def test_workload_query_validation():
    x, y = Var("X"), Var("Y")
    p = Const("p")
    with pytest.raises(QueryError):
        check_workload_query(ConjunctiveQuery("q", (x,), ()))
    with pytest.raises(QueryError):
        check_workload_query(ConjunctiveQuery("q", (y,), (TripleAtom(x, p, x),)))
    with pytest.raises(QueryError):
        check_workload_query(
            ConjunctiveQuery("q", (x, x), (TripleAtom(x, p, x),))
        )
    with pytest.raises(QueryError):
        check_workload_query(
            ConjunctiveQuery("q", (), (TripleAtom(Const("a"), p, Const("b")),))
        )
    with pytest.raises(QueryError):
        check_workload_query(
            ConjunctiveQuery(
                "q", (x, y), (TripleAtom(x, p, x), TripleAtom(y, p, y))
            )
        )
    check_workload_query(ConjunctiveQuery("q", (x,), (TripleAtom(x, p, y),)))


# ---------------------------------------------------------------------------
# interning


@given(loader_symbols(), loader_symbols())
def test_terms_and_atoms_are_interned(s, o):
    v, c = Var(s), Const(s)
    same = "".join(list(s))  # an equal string, not necessarily the same object
    assert Var(same) is v and Const(same) is c
    assert v != c
    a = TripleAtom(v, Const(o), c)
    assert TripleAtom(*a.terms) is a
    assert a.terms == (v, Const(o), c)
    for obj, field in ((v, "name"), (c, "symbol"), (a, "s"), (a, "terms")):
        with pytest.raises(AttributeError):
            setattr(obj, field, v)
        with pytest.raises(AttributeError):
            delattr(obj, field)
    for obj in (v, c, a):
        assert pickle.loads(pickle.dumps(obj)) is obj
        assert copy.copy(obj) is obj
        assert copy.deepcopy(obj) is obj


def test_term_and_atom_reprs():
    a = TripleAtom(Var("X"), Const("p"), Const("a"))
    assert repr(a) == ("TripleAtom(s=Var(name='X'), p=Const(symbol='p'), "
                       "o=Const(symbol='a'))")
    assert str(a) == "t(X,p,a)"


# ---------------------------------------------------------------------------
# value records


def _record_cases():
    x, y = Var("X"), Var("Y")
    q = ConjunctiveQuery("q", (x,), (TripleAtom(x, Const("p"), y),))
    return [
        (ConjunctiveQuery, {"name": "q", "head": (x,), "body": q.body}),
        (UnionQuery, {"name": "u", "members": (q, q.rename({y: Var("Z")}))}),
        (Scan, {"view": "v1"}),
        (Select, {"child": Scan("v1"), "left": x, "right": Const("a")}),
        (Project, {"child": Scan("v1"), "columns": (x,)}),
        (NatJoin, {"left": Scan("v1"), "right": Scan("v2")}),
        (Rename, {"child": Scan("v1"), "mapping": ((x, y),)}),
        (UnionOp, {"children": (Scan("v1"), Scan("v2"))}),
        (Schema, {"statements": frozenset({(SUBCLASS, "a", "b")}),
                  "declared_classes": frozenset({"c"}), "declared_properties": frozenset()}),
        (Relation, {"name": "r", "columns": (x, y), "rows": frozenset({("a", "b")})}),
        (CostWeights, {"cs": 2.0, "cr": 1.0, "cm": 0.25, "c1": 1.0, "c2": 0.0, "f": 3.0}),
        (CostBreakdown, {"vso": 1.5, "rec": 2.0, "vmc": 0.5, "total": 4.0}),
        (ColumnStats, {"distinct": 3, "avg_size": 2.5, "min_size": 1, "max_size": 4}),
        # a state compares by identity, so a copy of one is another state:
        # a value that copies equal stands in for it
        (Transition, {"kind": "VB", "label": "break v1", "state": Scan("v1")}),
    ]


RECORD_CASES = _record_cases()


@pytest.mark.parametrize("cls, fields", RECORD_CASES, ids=[c.__name__ for c, _ in RECORD_CASES])
def test_value_records_act_as_frozen_dataclasses(cls, fields):
    """Each value class compares, hashes, refuses changes, pickles, copies
    and prints as the frozen dataclass with the same fields would."""
    values = tuple(fields.values())
    obj = cls(*values)
    equal = cls(**pickle.loads(pickle.dumps(fields)))
    assert equal is not obj and equal == obj and not equal != obj
    assert hash(equal) == hash(obj)
    assert tuple(getattr(obj, f) for f in fields) == values
    # another class with as many fields, given the same values
    twin = next((c for c, f in RECORD_CASES
                 if c not in (cls, UnionQuery) and len(f) == len(fields)), None)
    if twin is not None:
        assert twin(*values) != obj and obj != twin(*values)
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(obj, name)
    for clone in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert type(clone) is cls and clone == obj
    reference = dataclasses.make_dataclass(cls.__name__, list(fields), frozen=True)(*values)
    assert repr(obj) == repr(reference)
    assert hash(obj) == hash(reference)


def test_value_records_keep_their_defaults_and_checks():
    q = ConjunctiveQuery("q", (Var("X"), Var("Y")), (atom("X", "p", "Y"),))
    assert repr(q) == ("ConjunctiveQuery(name='q', head=(Var(name='X'), Var(name='Y')), "
                       "body=(TripleAtom(s=Var(name='X'), p=Const(symbol='p'), "
                       "o=Var(name='Y')),))")
    assert Schema(frozenset()) == Schema(frozenset(), frozenset(), frozenset())
    assert Relation("r", ()).rows == frozenset()
    assert CostWeights() == CostWeights(1.0, 1.0, 0.5, 1.0, 1.0, 2.0)
    assert CostWeights(f=3.0).f == 3.0 and CostWeights(f=3.0).cm == 0.5
    with pytest.raises(ValueError, match=r"cost weight cm \(--cm\) must be finite and at "
                                         r"least 0, got -1"):
        CostWeights(cm=-1)
    with pytest.raises(QueryError, match="no members"):
        UnionQuery("u", ())
    with pytest.raises(QueryError, match="mixes head arities"):
        UnionQuery("u", (q, ConjunctiveQuery("q2", (Var("X"),), q.body)))


# ---------------------------------------------------------------------------
# parsing and formatting


def test_parse_format_round_trip():
    text = 'q1(X, Z) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y), t(Y, hasPainted, Z) .'
    (q,) = parse_queries(text)
    assert format_query(q) == text
    assert q.name == "q1"
    assert q.head == (Var("X"), Var("Z"))


@given(queries())
def test_format_parse_identity(q):
    assume(is_connected(q.body))
    head = tuple(t for t in q.head if isinstance(t, Var))
    q = ConjunctiveQuery("q1", head, q.body)
    (back,) = parse_queries(format_query(q), validate=False)
    assert back.head == q.head
    assert back.body == q.body


@given(st.lists(st.tuples(*[st.one_of(st.sampled_from(VARS),
                                      loader_symbols(QUERY_CHARS).map(Const))] * 3),
                min_size=1, max_size=3))
def test_formatted_constants_read_back(atom_terms):
    body = tuple(TripleAtom(*terms) for terms in atom_terms)
    assume(is_connected(body))
    q = ConjunctiveQuery("q1", tuple(sorted(ConjunctiveQuery("", (), body).variables(),
                                            key=str)), body)
    try:
        text = format_query(q)
    except QueryError:
        # only a constant that needs <> and holds '>' has no query token
        assert any(">" in t.symbol for a in body for t in a.terms if isinstance(t, Const))
        return
    assert parse_queries(text, validate=False) == [q]


@pytest.mark.parametrize("term, symbol", [
    ("<http://ex.org/p>", "http://ex.org/p"),
    ("<http://ex/a#b>", "http://ex/a#b"),
    ('"3.5"', '"3.5"'),
    ('"a)b"', '"a)b"'),
    ("ex.org", "ex.org"),
])
def test_parse_reads_iris_and_literals_whole(term, symbol):
    text = f"q1(X, Y) :- t(X, {term}, Y).q2(?y) :- t(?y, p, {term})  # two statements"
    q1, q2 = parse_queries(text)
    assert q1.body == (TripleAtom(Var("X"), Const(symbol), Var("Y")),)
    assert q2.head == (Var("y"),)
    assert q2.body == (TripleAtom(Var("y"), Const("p"), Const(symbol)),)
    assert parse_queries(format_query(q1)) == [q1]


@pytest.mark.parametrize("text", [
    "q(X) :- t(X, p, a b) .",  # whitespace ends a bare symbol
    'q(X) :- t(X, p, "a"b) .',  # a literal ends at its closing quote
    "q(X) :- t(X, p, Y), t(Y, :-q, Z) .",  # ':-' is punctuation
])
def test_parse_rejects_what_the_tokens_split(text):
    with pytest.raises(QueryError, match="statement 1"):
        parse_queries(text)


def test_format_rejects_constants_no_token_holds():
    for symbol in ("A>b", "a b>", "a\nb", '"a\rb"'):
        with pytest.raises(QueryError):
            format_query(ConjunctiveQuery("q", (Var("X"),), (atom("X", "p", Const(symbol)),)))


def test_parse_question_mark_variables_and_comments():
    text = """
    # workload
    q1(?x) :- t(?x, rdf:type, painting) .  # typed things
    """
    (q,) = parse_queries(text)
    assert q.body[0].terms[1] == Const("rdf:type")
    assert isinstance(q.body[0].terms[0], Var)


def test_parse_splits_cartesian_products():
    text = "q(X, Y) :- t(X, p, a), t(Y, p, b) ."
    qs = parse_queries(text)
    assert [q.name for q in qs] == ["q_p1", "q_p2"]
    assert [q.head for q in qs] == [(Var("X"),), (Var("Y"),)]


def test_parse_rejects_constants_in_workload_heads():
    with pytest.raises(QueryError):
        parse_queries("q(a) :- t(a, p, X) .")


def test_parse_without_validation_reads_head_constants():
    (q,) = parse_queries("q__2(X, painting) :- t(X, rdf:type, painting) .", validate=False)
    assert q.head == (Var("X"), Const("painting"))
    with pytest.raises(QueryError, match="statement 1: constant painting in head"):
        parse_queries("q__2(X, painting) :- t(X, rdf:type, painting) .")
    # split parts keep the head constants in the first part
    assert [p.head for p in parse_queries("q(X, c, Y) :- t(X, p, a), t(Y, p, b) .",
                                          validate=False)] == [
        (Var("X"), Const("c")), (Var("Y"),)]


def test_parse_rejects_garbage():
    with pytest.raises(QueryError):
        parse_queries("q(X) : t(X, p, Y) .")
    with pytest.raises(QueryError):
        parse_queries("q(X) :- s(X, p, Y) .")
    with pytest.raises(QueryError):
        parse_queries("q(X) :- t(X, p) .")
    for text in ('q(X) :- t(X, p, "a) .', "q(X) :- t(X, p, (Y)) .",
                 "q(X) :- t(X, p, Y,) .", "q(<X>) :- t(X, p, Y) ."):
        with pytest.raises(QueryError, match="statement 1"):
            parse_queries(text)
