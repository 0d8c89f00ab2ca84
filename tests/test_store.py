"""Store and evaluation, checked against a nested-loop reference evaluator
that knows nothing about atom ordering or indexes."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from rdftuner.queries import ConjunctiveQuery, Const, QueryError, TripleAtom, UnionQuery, Var
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


# Properties also occur as subjects and objects, so a property variable can
# be bound to a code that is no property; "zz" is in no store.
VOCAB = ["a", "b", "p", "q"]
TERMS = st.sampled_from([Var(f"X{i}") for i in range(4)] + [Const(c) for c in VOCAB + ["zz"]])
VOCAB_TRIPLES = st.lists(st.tuples(*[st.sampled_from(VOCAB)] * 3), max_size=8)


def store_of(triples):
    store = TripleStore()
    for t in triples:
        store.add(*t)
    return store


@st.composite
def conjunctive_queries(draw, arity=None):
    """1 to 4 atoms over the vocabulary with variables anywhere, repeated
    within an atom or not; a head of body variables and constants.  Small
    heads leave atoms whose new variables nothing reads, which evaluate as
    existence tests."""
    body = tuple(draw(st.lists(st.builds(TripleAtom, TERMS, TERMS, TERMS),
                               min_size=1, max_size=4)))
    body_vars = list(dict.fromkeys(v for a in body for v in a.variables()))
    consts = st.sampled_from([Const(c) for c in ("a", "zz")])
    term = st.sampled_from(body_vars) | consts if body_vars else consts
    if arity is None:
        arity = draw(st.integers(0, 3))
    return ConjunctiveQuery("q", tuple(draw(st.lists(term, min_size=arity, max_size=arity))),
                            body)


@st.composite
def queries_and_unions(draw):
    arity = draw(st.integers(0, 3))
    members = draw(st.lists(conjunctive_queries(arity), min_size=1, max_size=3))
    return members[0] if len(members) == 1 else UnionQuery("q", tuple(members))


@settings(max_examples=300)
@given(VOCAB_TRIPLES, queries_and_unions())
def test_evaluate_matches_naive(triples, q):
    store = store_of(triples)
    assert evaluate(q, store) == naive_evaluate(q, store)


def _joins_through_every_index():
    """Two-atom queries whose second atom probes, in turn, each index: the
    subject and object index of a constant and of a variable property, the
    property partition, the whole-store (s), (o) and (s, o) indexes, and
    the triple set when every position is bound."""
    x, y, z, w, v = (Var(n) for n in ("X", "Y", "Z", "W", "V"))
    p = Const("p")
    first = TripleAtom(x, y, z)
    seconds = [TripleAtom(z, p, w), TripleAtom(w, p, x), TripleAtom(z, y, w),
               TripleAtom(w, y, x), TripleAtom(w, y, v), TripleAtom(z, w, v),
               TripleAtom(v, w, x), TripleAtom(x, w, z), TripleAtom(z, p, x),
               TripleAtom(z, y, x)]
    return [ConjunctiveQuery("j", (x, y, z, *(u for u in (w, v) if u in a.variables())),
                             (first, a)) for a in seconds]


@settings(max_examples=150)
@given(VOCAB_TRIPLES, VOCAB_TRIPLES, st.lists(conjunctive_queries(), max_size=3))
def test_evaluate_after_adding_triples(before, added, drawn):
    """Triples added after an evaluation drop the indexes it built,
    per-property ones too, so the next evaluation sees them."""
    store = store_of(before)
    queries = drawn + _joins_through_every_index()
    for q in queries:
        evaluate(q, store)
    for t in added:
        store.add(*t)
    store.add("new", "p", "a")
    for q in queries:
        assert evaluate(q, store) == naive_evaluate(q, store)


def test_evaluate_existence_tests_and_head_constants():
    store = load_triples("a p b\na p c\nb q a\nc q a\nd p e\n")
    x, y, z, w = (Var(v) for v in "XYZW")
    p, q = Const("p"), Const("q")
    # Y and Z are read by nothing after their atoms: existence tests
    exists = ConjunctiveQuery("e", (x, Const("k")), (TripleAtom(x, p, y), TripleAtom(y, q, z)))
    assert evaluate(exists, store) == {("a", "k")}
    # a test on constants alone decides the whole query
    always = ConjunctiveQuery("e", (x,), (TripleAtom(x, p, Const("e")), TripleAtom(Const("b"), q, w)))
    assert evaluate(always, store) == {("d",)}
    never = ConjunctiveQuery("e", (x,), (TripleAtom(x, p, y), TripleAtom(Const("a"), q, w)))
    assert evaluate(never, store) == set()
    # a repeated head variable, and a property variable
    assert evaluate(ConjunctiveQuery("r", (z, x, z), (TripleAtom(x, z, y),)), store) == {
        ("p", "a", "p"), ("q", "b", "q"), ("q", "c", "q"), ("p", "d", "p")}
    # an existence test whose repeated variable Z must match itself
    store = load_triples("a p b\na p c\nb q a\nc q a\nd p e\ne r r\nf p g\ng s h\n")
    repeated = ConjunctiveQuery("e", (x,), (TripleAtom(x, p, y), TripleAtom(y, z, z)))
    assert evaluate(repeated, store) == {("d",)}


def test_evaluate_rejects_an_unbound_head_variable():
    store = load_triples("a p b\n")
    q = ConjunctiveQuery("u", (Var("Y"),), (TripleAtom(Var("X"), Const("p"), Const("b")),))
    with pytest.raises(QueryError, match="head variable Y not bound in body"):
        evaluate(q, store)


@given(VOCAB_TRIPLES, st.tuples(*[st.sampled_from([None] + VOCAB + ["zz"])] * 3),
       st.sampled_from([(), (0, 2), (0, 1), (1, 2)]))
def test_count_pattern_and_lookup_match_naive_for_every_mask(triples, consts, repeat):
    """Every bound-position mask, with a variable repeated at two free
    positions or not, against the naive evaluator."""
    store = store_of(triples)
    terms = [Const(c) if c is not None else Var(f"V{i}") for i, c in enumerate(consts)]
    if repeat and all(consts[i] is None for i in repeat):
        terms[repeat[1]] = terms[repeat[0]]
    atom = TripleAtom(*terms)
    q = ConjunctiveQuery("c", tuple(dict.fromkeys(atom.variables())), (atom,))
    assert store.count_pattern(atom) == len(naive_evaluate(q, store))
    d = store.dictionary
    if all(c is None or d.code(c) is not None for c in consts):
        pattern = tuple(None if c is None else d.code(c) for c in consts)
        assert sorted(store.lookup(pattern)) == sorted(
            t for t in store.triples if all(c is None or c == v for c, v in zip(pattern, t)))


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


# lines of every kind the loader reads: bare, IRI and literal tokens, a
# trailing comment, a comment alone and a blank line
LOADER_LINES = st.sampled_from([
    "a p b", "b q c", "c p a", "<a#b> p <c>", 's q "lit # not a comment"',
    '<http://x.org/p#r> <r> "x"', "a <r> b # a comment", "# only a comment", "",
    "b <http://x.org/p#r> <a#b>", '"lit" p "lit"',
])
LOADER_PROPERTIES = ["p", "q", "r", "http://x.org/p#r", "zz"]


@given(st.lists(LOADER_LINES, max_size=12),
       st.sets(st.sampled_from(LOADER_PROPERTIES)))
def test_loading_some_properties_is_the_full_load_restricted(lines, properties):
    text = "\n".join(lines) + "\n"
    full = symbol_triples(load_triples(text))
    some = load_triples(text, properties)
    assert symbol_triples(some) == {t for t in full if t[1] in properties}
    # nothing of a skipped line is interned
    assert len(some.dictionary) == len({sym for t in symbol_triples(some) for sym in t})


def test_a_malformed_line_of_a_skipped_property_names_its_line():
    with pytest.raises(StoreError, match="line 3: expected 3 terms, got 4"):
        load_triples("a p b\nb q c\nc q d e\n", {"p"})
    with pytest.raises(StoreError, match="line 2: unterminated literal"):
        load_triples('a p b\ns q "open\n', {"p"})


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
