"""Store and evaluation, checked against a nested-loop reference evaluator
that knows nothing about atom ordering or indexes."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from rdftuner.queries import ConjunctiveQuery, Const, TripleAtom, UnionQuery, Var
from rdftuner.store import (
    StoreError,
    TripleStore,
    dump_triples,
    evaluate,
    load_triples,
    materialize,
    tokenize_line,
)
from conftest import loader_symbols, random_query, random_schema, random_store


def naive_evaluate(q, store):
    """Try every combination of triples, one per atom, and keep consistent
    variable assignments."""
    if isinstance(q, UnionQuery):
        out = set()
        for m in q.members:
            out |= naive_evaluate(m, store)
        return out
    rows = set()
    facts = [store.symbols(t) for t in store.triples]
    for combo in itertools.product(facts, repeat=len(q.body)):
        env = {}
        ok = True
        for atom, fact in zip(q.body, combo):
            for term, value in zip(atom.terms, fact):
                if isinstance(term, Const):
                    if term.symbol != value:
                        ok = False
                        break
                elif env.setdefault(term, value) != value:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            rows.add(
                tuple(
                    env[t] if isinstance(t, Var) else t.symbol for t in q.head
                )
            )
    return rows


def test_evaluate_matches_naive_randomized():
    rng = random.Random(11)
    for _ in range(150):
        schema = random_schema(rng)
        store = random_store(rng, schema, max_triples=25)
        q = random_query(rng, schema)
        assert evaluate(q, store) == naive_evaluate(q, store)


def test_evaluate_painter_example(painter_store):
    from conftest import painter_query

    assert evaluate(painter_query(), painter_store) == {("vanGogh", "pieta")}


def test_evaluate_repeated_variable_atom():
    store = load_triples("a p a\na p b\nb q b\n")
    x = Var("X")
    q = ConjunctiveQuery("q", (x,), (TripleAtom(x, Var("P"), x),))
    assert evaluate(q, store) == {("a",), ("b",)}


def test_count_pattern_matches_lookup():
    rng = random.Random(5)
    schema = random_schema(rng)
    store = random_store(rng, schema, max_triples=60)
    x, y = Var("X"), Var("Y")
    patterns = [
        TripleAtom(x, y, Var("Z")),
        TripleAtom(x, Const("p0"), y),
        TripleAtom(x, Const("rdf:type"), Const("c0")),
        TripleAtom(x, y, x),
        TripleAtom(x, Const("nosuch"), y),
    ]
    for a in patterns:
        q = ConjunctiveQuery("c", tuple(dict.fromkeys(a.variables())), (a,))
        assert store.count_pattern(a) == len(naive_evaluate(q, store))


def symbol_triples(store):
    return {store.symbols(t) for t in store.triples}


def test_load_dump_round_trip():
    text = 'a p b\nb "has space" c\n'
    store = load_triples(text)
    assert len(store) == 2
    again = load_triples(dump_triples(store))
    assert symbol_triples(again) == symbol_triples(store)


RDF_TYPE_IRI = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"


@pytest.mark.parametrize(
    "text, triple",
    [
        (f"a p <{RDF_TYPE_IRI}>", ("a", "p", RDF_TYPE_IRI)),
        ("<http://x.org/a#b> p o", ("http://x.org/a#b", "p", "o")),
        ("x p <with space>", ("x", "p", "with space")),
        ("<a#b> p o # a comment", ("a#b", "p", "o")),
        ("<a> <b> <c>#comment", ("a", "b", "c")),
        ('s p "lit # not a comment"', ("s", "p", '"lit # not a comment"')),
        ('s p "lit"# comment', ("s", "p", '"lit"')),
        ("s p o # x y z", ("s", "p", "o")),
        ("s p <>", ("s", "p", "<>")),
        ("s p <o", ("s", "p", "<o")),
        ("s p a<b>", ("s", "p", "a<b>")),
        ("<> <<a>> <a>b", ("<>", "<<a>>", "<a>b")),
    ],
)
def test_load_token_forms(text, triple):
    assert symbol_triples(load_triples(text + "\n# only a comment\n\n")) == {triple}


def test_load_errors_name_the_line():
    with pytest.raises(StoreError, match="line 2: unterminated literal"):
        load_triples('a p b\ns p "open\n')
    with pytest.raises(StoreError, match="line 1: expected 3 terms, got 4"):
        load_triples("x p <with space> o\n")
    with pytest.raises(StoreError, match="line 1: expected 3 terms, got 2"):
        load_triples("s p # <o>\n")


def test_dump_brackets_what_a_bare_token_cannot_hold():
    store = TripleStore()
    store.add("a#b", "with space", '"lit"')
    store.add("<<a>>", "#c", "<b")
    text = dump_triples(store)
    assert text == '<<a>> <#c> <<b>\n<a#b> <with space> "lit"\n'
    assert symbol_triples(load_triples(text)) == symbol_triples(store)


@given(st.lists(st.tuples(loader_symbols(), loader_symbols(), loader_symbols()),
                max_size=6))
def test_dump_then_load_is_identity(triples):
    store = TripleStore()
    for t in triples:
        store.add(*t)
    assert symbol_triples(load_triples(dump_triples(store))) == set(triples)


@given(st.text(alphabet=st.characters(blacklist_characters='"#<'), max_size=30)
       | st.text(alphabet='ab>\t \u00a0\u1680\u2028\u3000\x1c\x85', max_size=30))
def test_split_shortcut_equals_the_tokenizer(line):
    """Lines without a quote, '#' or '<' load through str.split()."""
    assert line.split() == tokenize_line(line, "drawn")


def test_materialize_columns_and_rows(painter_store):
    x, y = Var("X"), Var("Y")
    v = ConjunctiveQuery(
        "v1", (x, y), (TripleAtom(x, Const("isParentOf"), y),)
    )
    rel = materialize(v, painter_store)
    assert rel.name == "v1"
    assert rel.columns == (x, y)
    assert rel.rows == frozenset(
        {("vanGogh", "vincentW"), ("rembrandt", "titus")}
    )


def test_materialize_union(painter_store):
    x = Var("X")
    u = UnionQuery(
        "v2",
        (
            ConjunctiveQuery(
                "v2", (x,), (TripleAtom(x, Const("isExpIn"), Var("Y")),)
            ),
            ConjunctiveQuery(
                "v2", (x,), (TripleAtom(x, Const("isLocatIn"), Var("Y")),)
            ),
        ),
    )
    rel = materialize(u, painter_store)
    assert rel.rows == frozenset({("starryNight",), ("nightWatch",)})
