"""Schema reasoning: saturation, reformulation, and the equality between
answering over the saturated store and answering the reformulated query
over the raw store.  That equality is the oracle most other guarantees
lean on, so it gets a dedicated randomized hammering here."""

import random

import pytest
from hypothesis import assume, given, strategies as st

from rdftuner.queries import (
    ConjunctiveQuery,
    Const,
    TripleAtom,
    Var,
    are_equivalent,
    canonical_key,
)
from rdftuner.reasoning import (
    DOMAIN,
    RANGE,
    SUBCLASS,
    SUBPROPERTY,
    Schema,
    SchemaError,
    format_schema,
    parse_schema,
    reformulate,
    saturate,
)
from rdftuner.store import TripleStore, evaluate, load_triples
from conftest import loader_symbols, random_query, random_schema, random_store

X1, X2 = Var("X1"), Var("X2")
TYPE = Const("rdf:type")


def atom_q(name, head, *atoms):
    return ConjunctiveQuery(name, head, tuple(atoms))


# ---------------------------------------------------------------------------
# saturation


def test_saturation_propagates_through_property_and_class_chains():
    schema = parse_schema(
        """
        painting rdfs:subClassOf masterpiece
        masterpiece rdfs:subClassOf work
        hasPainted rdfs:subPropertyOf hasCreated
        hasPainted rdfs:range painting
        hasCreated rdfs:range masterpiece
        """
    )
    store = load_triples("u hasPainted b\n")
    sat = saturate(store, schema)
    got = {sat.symbols(t) for t in sat.triples}
    assert got == {
        ("u", "hasPainted", "b"),
        ("u", "hasCreated", "b"),
        ("b", "rdf:type", "painting"),
        ("b", "rdf:type", "masterpiece"),
        ("b", "rdf:type", "work"),
    }


def test_saturation_types_through_subclass_transitivity():
    schema = parse_schema("c1 rdfs:subClassOf c2\nc2 rdfs:subClassOf c3\n")
    sat = saturate(load_triples("x rdf:type c1\n"), schema)
    got = {sat.symbols(t) for t in sat.triples}
    assert got == {
        ("x", "rdf:type", "c1"),
        ("x", "rdf:type", "c2"),
        ("x", "rdf:type", "c3"),
    }


def test_saturation_domain_types_subject():
    schema = parse_schema("p rdfs:domain c\n")
    sat = saturate(load_triples("a p b\n"), schema)
    assert ("a", "rdf:type", "c") in {sat.symbols(t) for t in sat.triples}


def test_saturation_idempotent_randomized():
    rng = random.Random(21)
    for _ in range(40):
        schema = random_schema(rng)
        store = random_store(rng, schema, max_triples=40)
        once = saturate(store, schema)
        twice = saturate(once, schema)
        assert once.triples == twice.triples


def test_saturation_growth_is_linear_in_store_and_schema():
    rng = random.Random(22)
    for _ in range(40):
        schema = random_schema(rng)
        store = random_store(rng, schema, max_triples=60)
        sat = saturate(store, schema)
        assert len(sat) - len(store) <= 6 * len(store) * max(len(schema), 1)


def test_saturation_keeps_schema_triples_only_on_request():
    schema = parse_schema("c1 rdfs:subClassOf c2\nc2 rdfs:subClassOf c3\n")
    store = load_triples("x rdf:type c1\n")
    plain = saturate(store, schema)
    assert all(plain.symbols(t)[1] == "rdf:type" for t in plain.triples)
    full = saturate(store, schema, include_schema_triples=True)
    got = {full.symbols(t) for t in full.triples}
    assert ("c1", "rdfs:subClassOf", "c2") in got
    # inclusion transitivity shows up too
    assert ("c1", "rdfs:subClassOf", "c3") in got


# ---------------------------------------------------------------------------
# reformulation goldens over the gallery schema


def members_by_key(union):
    keys = [canonical_key(m) for m in union.members]
    assert len(keys) == len(set(keys)), "duplicate members survived"
    return set(keys)


def test_class_atom_reformulation_members(gallery_schema):
    union = reformulate(
        atom_q("q", (X1,), TripleAtom(X1, TYPE, Const("picture"))), gallery_schema
    )
    expected = [
        atom_q("q", (X1,), TripleAtom(X1, TYPE, Const("picture"))),
        atom_q("q", (X1,), TripleAtom(X1, TYPE, Const("painting"))),
    ]
    assert members_by_key(union) == {canonical_key(e) for e in expected}


def test_property_variable_reformulation_members(gallery_schema):
    union = reformulate(
        atom_q("q", (X1, X2), TripleAtom(X1, X2, Const("picture"))), gallery_schema
    )
    loc, exp = Const("isLocatIn"), Const("isExpIn")
    expected = [
        atom_q("q", (X1, X2), TripleAtom(X1, X2, Const("picture"))),
        atom_q("q", (X1, loc), TripleAtom(X1, loc, Const("picture"))),
        atom_q("q", (X1, exp), TripleAtom(X1, exp, Const("picture"))),
        atom_q("q", (X1, TYPE), TripleAtom(X1, TYPE, Const("picture"))),
        atom_q("q", (X1, loc), TripleAtom(X1, exp, Const("picture"))),
        atom_q("q", (X1, TYPE), TripleAtom(X1, TYPE, Const("painting"))),
    ]
    assert len(union.members) == 6
    assert members_by_key(union) == {canonical_key(e) for e in expected}


def test_class_variable_view_reformulation(gallery_schema):
    union = reformulate(
        atom_q("v", (X1, X2), TripleAtom(X1, TYPE, X2)), gallery_schema
    )
    paint, pic = Const("painting"), Const("picture")
    expected = [
        atom_q("v", (X1, X2), TripleAtom(X1, TYPE, X2)),
        atom_q("v", (X1, paint), TripleAtom(X1, TYPE, paint)),
        atom_q("v", (X1, pic), TripleAtom(X1, TYPE, pic)),
        atom_q("v", (X1, pic), TripleAtom(X1, TYPE, paint)),
    ]
    assert len(union.members) == 4
    assert members_by_key(union) == {canonical_key(e) for e in expected}


def test_property_view_reformulation(gallery_schema):
    union = reformulate(
        atom_q("v", (X1, X2), TripleAtom(X1, Const("isLocatIn"), X2)),
        gallery_schema,
    )
    expected = [
        atom_q("v", (X1, X2), TripleAtom(X1, Const("isLocatIn"), X2)),
        atom_q("v", (X1, X2), TripleAtom(X1, Const("isExpIn"), X2)),
    ]
    assert len(union.members) == 2
    assert members_by_key(union) == {canonical_key(e) for e in expected}


def test_domain_rule_introduces_existential_variable():
    schema = parse_schema("p rdfs:domain c\n")
    union = reformulate(atom_q("q", (X1,), TripleAtom(X1, TYPE, Const("c"))), schema)
    assert len(union.members) == 2
    bodies = {m.body[0].terms[1] for m in union.members}
    assert bodies == {TYPE, Const("p")}
    # the introduced object variable stays out of the head
    for m in union.members:
        assert m.head == (X1,)


def test_domain_and_range_rules_name_their_variable_E1():
    """Each domain or range rule names its existential variable the lowest
    E<i> that the query it rewrites does not use: E1 in every member here,
    and E2 where the query holds E1 already."""
    schema = parse_schema("p rdfs:domain c\nr rdfs:range c\n")
    e1, e2 = Var("E1"), Var("E2")
    union = reformulate(atom_q("q", (X1,), TripleAtom(X1, TYPE, Const("c"))), schema)
    assert {m.body for m in union.members} == {
        (TripleAtom(X1, TYPE, Const("c")),),
        (TripleAtom(X1, Const("p"), e1),),
        (TripleAtom(e1, Const("r"), X1),),
    }
    union = reformulate(atom_q("q", (e1,), TripleAtom(e1, TYPE, Const("c"))), schema)
    assert {m.body for m in union.members} == {
        (TripleAtom(e1, TYPE, Const("c")),),
        (TripleAtom(e1, Const("p"), e2),),
        (TripleAtom(e2, Const("r"), e1),),
    }


def test_members_are_pairwise_inequivalent(gallery_schema):
    union = reformulate(
        atom_q("q", (X1, X2), TripleAtom(X1, X2, Const("picture"))), gallery_schema
    )
    ms = union.members
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            assert not are_equivalent(ms[i], ms[j])


# ---------------------------------------------------------------------------
# the saturation equality, randomized


def test_reformulation_equals_saturation_randomized():
    rng = random.Random(33)
    for _ in range(200):
        schema = random_schema(rng)
        store = random_store(rng, schema)
        q = random_query(rng, schema)
        union = reformulate(q, schema)
        assert evaluate(q, saturate(store, schema)) == evaluate(union, store)


def reformulation_bound(schema: Schema, q: ConjunctiveQuery) -> int:
    """Worst-case member count of the reformulation output."""
    return (2 * len(schema) ** 2) ** len(q.body)


def test_member_count_stays_under_bound():
    rng = random.Random(34)
    for _ in range(120):
        schema = random_schema(rng)
        q = random_query(rng, schema)
        union = reformulate(q, schema)
        assert len(union.members) <= reformulation_bound(schema, q)


def test_bound_is_tight_for_the_all_variable_atom():
    # with every variable kept in the head, each binding stays distinct
    schema = parse_schema("p1 rdfs:subPropertyOf p2\nc1 rdfs:subClassOf c2\n")
    x3 = Var("X3")
    q = atom_q("q", (X1, X2, x3), TripleAtom(X1, X2, x3))
    union = reformulate(q, schema)
    assert reformulation_bound(schema, q) == 8
    assert len(union.members) == 8


# ---------------------------------------------------------------------------
# schema parsing


def test_schema_parse_and_format_round_trip():
    schema = parse_schema(
        "a rdfs:subClassOf b\np rdfs:domain a\nq rdf:type rdf:Property\n"
    )
    assert len(schema) == 2
    assert "q" in schema.properties
    again = parse_schema(format_schema(schema))
    assert again == schema


def test_schema_reads_iris_with_fragments_and_spaces():
    schema = parse_schema(
        "<http://x.org/A#c> rdfs:subClassOf <http://x.org/B#d>  # a comment\n"
        "<has part> rdfs:domain <http://x.org/A#c>\n"
        "<http://x.org/p#q> rdf:type rdf:Property\n"
    )
    assert schema.statements == {
        (SUBCLASS, "http://x.org/A#c", "http://x.org/B#d"),
        (DOMAIN, "has part", "http://x.org/A#c"),
    }
    assert schema.declared_properties == {"http://x.org/p#q"}
    assert parse_schema(format_schema(schema)) == schema


@given(
    st.sets(st.tuples(st.sampled_from([SUBCLASS, SUBPROPERTY, DOMAIN, RANGE]),
                      loader_symbols(), loader_symbols()), max_size=5),
    st.frozensets(loader_symbols(), max_size=3),
    st.frozensets(loader_symbols(), max_size=3),
)
def test_format_then_parse_schema_is_identity(statements, classes, properties):
    assume(all(lhs != rhs for _, lhs, rhs in statements))
    schema = Schema(frozenset(statements), classes, properties)
    assert parse_schema(format_schema(schema)) == schema


def test_schema_rejects_bad_lines():
    with pytest.raises(SchemaError):
        parse_schema("a rdfs:subClassOf a\n")
    with pytest.raises(SchemaError):
        parse_schema("a b c\n")
    with pytest.raises(SchemaError):
        parse_schema("a rdfs:subClassOf\n")
    with pytest.raises(SchemaError):
        parse_schema("a rdf:type rdfs:Banana\n")
