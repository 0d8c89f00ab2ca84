"""Operator trees: evaluation semantics, serialization, formatting."""

import pytest

from rdftuner.algebra import (
    NatJoin,
    Project,
    Rename,
    Scan,
    Select,
    UnionOp,
    eval_expr,
    expr_from_json,
    expr_to_json,
    format_expr,
    replace_scans,
    scan_views,
)
from rdftuner.queries import ConjunctiveQuery, Const, QueryError, TripleAtom, Var
from rdftuner.store import Relation, evaluate, load_triples, materialize

X1, X2, Y1, Y2 = Var("X1"), Var("X2"), Var("Y1"), Var("Y2")


@pytest.fixture
def location_store():
    return load_triples(
        """
        a rdf:type picture
        b rdf:type picture
        a isLocatIn louvre
        c isLocatIn prado
        """
    )


@pytest.fixture
def relations(location_store):
    v1 = ConjunctiveQuery("v1", (X1, X2), (TripleAtom(X1, Const("rdf:type"), X2),))
    v2 = ConjunctiveQuery("v2", (Y1, Y2), (TripleAtom(Y1, Const("isLocatIn"), Y2),))
    return {
        "v1": materialize(v1, location_store),
        "v2": materialize(v2, location_store),
    }


def test_select_project_join_pipeline(relations, location_store):
    # typed-as-picture things joined with their locations
    expr = Project(
        NatJoin(
            Select(Scan("v1"), X2, Const("picture")),
            Rename(Scan("v2"), ((Y1, X1),)),
        ),
        (X1, Y2),
    )
    got = eval_expr(expr, relations)
    direct = ConjunctiveQuery(
        "q",
        (X1, Y2),
        (
            TripleAtom(X1, Const("rdf:type"), Const("picture")),
            TripleAtom(X1, Const("isLocatIn"), Y2),
        ),
    )
    assert got.rows == frozenset(evaluate(direct, location_store))
    assert got.columns == (X1, Y2)


def test_select_on_two_columns():
    rel = Relation("r", (X1, X2), frozenset({("a", "a"), ("a", "b")}))
    got = eval_expr(Select(Scan("r"), X1, X2), {"r": rel})
    assert got.rows == frozenset({("a", "a")})


def test_natural_join_on_shared_labels():
    r1 = Relation("r1", (X1, X2), frozenset({("a", "1"), ("b", "2")}))
    r2 = Relation("r2", (X2, Y1), frozenset({("1", "u"), ("3", "w")}))
    got = eval_expr(NatJoin(Scan("r1"), Scan("r2")), {"r1": r1, "r2": r2})
    assert got.columns == (X1, X2, Y1)
    assert got.rows == frozenset({("a", "1", "u")})


def test_project_emits_head_constants():
    rel = Relation("r", (X1,), frozenset({("a",)}))
    got = eval_expr(Project(Scan("r"), (X1, Const("k"))), {"r": rel})
    assert got.columns == (X1, Const("k"))
    assert got.rows == frozenset({("a", "k")})


def test_rename_relabels_columns():
    rel = Relation("r", (X1, X2), frozenset({("a", "b")}))
    got = eval_expr(Rename(Scan("r"), ((X1, Y1),)), {"r": rel})
    assert got.columns == (Y1, X2)
    assert got.rows == rel.rows


def test_union_merges_and_validates_arity():
    r1 = Relation("r1", (X1,), frozenset({("a",)}))
    r2 = Relation("r2", (Y1,), frozenset({("b",)}))
    got = eval_expr(UnionOp((Scan("r1"), Scan("r2"))), {"r1": r1, "r2": r2})
    assert got.rows == frozenset({("a",), ("b",)})
    bad = Relation("r3", (X1, X2), frozenset())
    with pytest.raises(QueryError):
        eval_expr(UnionOp((Scan("r1"), Scan("r3"))), {"r1": r1, "r3": bad})


def test_missing_relation_is_reported():
    with pytest.raises(QueryError):
        eval_expr(Scan("nope"), {})


def test_projection_on_unbound_variable_is_reported():
    rel = Relation("r", (X1,), frozenset())
    with pytest.raises(QueryError):
        eval_expr(Project(Scan("r"), (Y2,)), {"r": rel})


def test_scan_views_counts_occurrences():
    expr = NatJoin(Scan("v1"), NatJoin(Scan("v2"), Scan("v1")))
    assert sorted(scan_views(expr)) == ["v1", "v1", "v2"]


def test_replace_scans_substitutes_subtrees():
    rel = Relation("r", (X1,), frozenset({("a",), ("b",)}))
    expr = replace_scans(Scan("v"), {"v": Select(Scan("r"), X1, Const("a"))})
    got = eval_expr(expr, {"r": rel})
    assert got.rows == frozenset({("a",)})


def test_json_round_trip():
    expr = UnionOp(
        (
            Project(
                NatJoin(
                    Select(Scan("v1"), X2, Const("picture")),
                    Rename(Scan("v2"), ((Y1, X1),)),
                ),
                (X1, Y2),
            ),
            Scan("v3"),
        )
    )
    assert expr_from_json(expr_to_json(expr)) == expr


def test_format_expr_shapes():
    expr = Project(
        NatJoin(Scan("v1"), Select(Scan("v2"), X1, Const("a"))), (X1,)
    )
    assert format_expr(expr) == "project[X1]((v1 join select[X1=a](v2)))"
    assert (
        format_expr(Rename(Scan("v"), ((X1, Y1),))) == "rename[X1->Y1](v)"
    )
    assert format_expr(UnionOp((Scan("a"), Scan("b")))) == "a union b"
    assert (
        format_expr(NatJoin(Rename(Scan("a"), ((X1, Y1),)), Scan("b")))
        == "(rename[X1->Y1](a) join b)"
    )
