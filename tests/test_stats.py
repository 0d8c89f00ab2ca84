"""Statistics collection: pattern universes, counting, serialization.

Which store is counted on in each mode is the command line's choice; see
test_cli.py for post mode counting on the saturated store.
"""

import itertools
import json
import random

import pytest

from conftest import painter_query, random_query, random_schema
from rdftuner.queries import Const, TripleAtom, Var
from rdftuner.stats import (
    ColumnStats,
    MissingStatisticError,
    WorkloadStatistics,
    atom_patterns,
    collect_statistics,
    pattern_atom,
    pattern_of,
)

X, Y, Z = Var("X"), Var("Y"), Var("Z")


# ---------------------------------------------------------------------------
# pattern keys


def test_pattern_of_normalizes_variable_names():
    a = TripleAtom(X, Const("p"), Y)
    b = TripleAtom(Z, Const("p"), X)
    assert pattern_of(a) == pattern_of(b)
    assert pattern_of(TripleAtom(X, Const("p"), X)) != pattern_of(a)


def test_pattern_atom_round_trip():
    for atom in [
        TripleAtom(X, Const("p"), Const("k")),
        TripleAtom(X, Const("p"), X),
        TripleAtom(X, Y, Z),
        TripleAtom(Const("a"), Const("p"), Const("k")),
    ]:
        key = pattern_of(atom)
        assert pattern_of(pattern_atom(key)) == key


def test_atom_patterns_of_two_constant_atom():
    # relaxing any subset of {p, k}: four shapes, no repeated-variable variants
    got = atom_patterns(TripleAtom(X, Const("p"), Const("k")))
    expected = {
        (("v", 0), ("c", "p"), ("c", "k")),
        (("v", 0), ("v", 1), ("c", "k")),
        (("v", 0), ("c", "p"), ("v", 1)),
        (("v", 0), ("v", 1), ("v", 2)),
    }
    assert got == expected


def test_atom_patterns_refines_repeated_variables():
    # a loop atom can be split by a join cut, so both shapes must be counted
    got = atom_patterns(TripleAtom(X, Const("p"), X))
    expected = {
        (("v", 0), ("c", "p"), ("v", 0)),
        (("v", 0), ("c", "p"), ("v", 1)),
        (("v", 0), ("v", 1), ("v", 0)),
        (("v", 0), ("v", 1), ("v", 2)),
    }
    assert got == expected


def brute_force_patterns(a: TripleAtom) -> set:
    """The shapes of every atom that specializes onto `a` position by
    position: each of its constants is `a`'s constant there, and two of its
    positions share a variable only where `a` has one variable at both."""
    constants = {t for t in a.terms if isinstance(t, Const)}
    fresh = [Var(f"V{i}") for i in range(3)]
    out = set()
    for terms in itertools.product([*constants, *fresh], repeat=3):
        if any(isinstance(t, Const) and t is not a.terms[i] for i, t in enumerate(terms)):
            continue
        if any(terms[i] is terms[j] and isinstance(terms[i], Var)
               and not (isinstance(a.terms[i], Var) and a.terms[i] is a.terms[j])
               for i, j in itertools.combinations(range(3), 2)):
            continue
        out.add(pattern_of(TripleAtom(*terms)))
    return out


def test_atom_patterns_match_the_brute_force_rule():
    pool = [Const("c1"), Const("c2"), X, Y, Z]
    for terms in itertools.product(pool, repeat=3):
        a = TripleAtom(*terms)
        assert atom_patterns(a) == brute_force_patterns(a), a


def test_atom_patterns_cover_transition_reachable_shapes():
    """Any chain of selection and join cuts stays inside the universe."""
    rng = random.Random(9)
    for _ in range(40):
        schema = random_schema(rng)
        q = random_query(rng, schema)
        for a in q.body:
            shapes = atom_patterns(a)
            assert pattern_of(a) in shapes
            # relaxing one constant of a member shape stays a member
            for key in list(shapes):
                probe = pattern_atom(key)
                for i, t in enumerate(probe.terms):
                    if isinstance(t, Const):
                        relaxed = probe.replace(i, Var("Q9"))
                        assert pattern_of(relaxed) in shapes


# ---------------------------------------------------------------------------
# collection


def test_counts_match_store(painter_store):
    stats = collect_statistics([painter_query()], painter_store)
    a = TripleAtom(X, Const("hasPainted"), Y)
    assert stats.count(a) == 5
    assert stats.count(TripleAtom(X, Const("hasPainted"), Const("starryNight"))) == 1
    assert stats.count(TripleAtom(X, Y, Z)) == len(painter_store)
    assert stats.triple_count == len(painter_store)


def test_missing_shape_raises(painter_store):
    stats = collect_statistics([painter_query()], painter_store)
    with pytest.raises(MissingStatisticError):
        stats.count(TripleAtom(X, Const("unrelated"), Y))
    assert pattern_of(TripleAtom(X, Const("unrelated"), Y)) not in stats.pattern_counts
    assert pattern_of(TripleAtom(X, Const("isParentOf"), Y)) in stats.pattern_counts


def test_column_stats(painter_store):
    stats = collect_statistics([painter_query()], painter_store)
    subjects = {painter_store.symbols(t)[0] for t in painter_store.triples}
    assert stats.columns[0].distinct == len(subjects)
    sizes = [len(s.encode()) for s in [painter_store.symbols(t)[0] for t in painter_store.triples]]
    assert stats.columns[0].avg_size == pytest.approx(sum(sizes) / len(sizes))
    assert stats.columns[0].min_size == min(sizes)
    assert stats.columns[0].max_size == max(sizes)


# ---------------------------------------------------------------------------
# serialization


def read_statistics(text: str) -> WorkloadStatistics:
    """Statistics back from the JSON text `WorkloadStatistics.dumps` writes."""
    d = json.loads(text)
    cols = tuple(ColumnStats(c["distinct"], c["avg_size"], c["min_size"], c["max_size"])
                 for c in d["columns"])
    patterns = {tuple((kind, val) for kind, val in entry["key"]): entry["count"]
                for entry in d["patterns"]}
    return WorkloadStatistics(d["triple_count"], cols, patterns)


def test_json_round_trip(painter_store):
    stats = collect_statistics([painter_query()], painter_store)
    back = read_statistics(stats.dumps())
    assert back.pattern_counts == stats.pattern_counts
    assert back.columns == stats.columns
    assert back.triple_count == stats.triple_count
    # loaded statistics drive lookups identically
    assert back.count(TripleAtom(X, Const("hasPainted"), Y)) == 5
