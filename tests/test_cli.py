"""Drive the command line the way a shell user would: main(argv) against
files in tmp_path, then inspect exit codes, stdout, and output files."""

import csv
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    GALLERY_SCHEMA,
    PAINTER_TRIPLES,
    painter_query,
    random_query,
    random_schema,
    random_store,
)
from rdftuner import cli, reasoning, search
from rdftuner.algebra import eval_expr, expr_from_json, scan_views
from rdftuner.cli import main, query_from_json
from rdftuner.queries import (
    ConjunctiveQuery,
    Const,
    UnionQuery,
    Var,
    find_containment_mapping,
    parse_queries,
    without_contained_members,
)
from rdftuner.reasoning import format_schema, parse_schema, saturate
from rdftuner.stats import pattern_of
from rdftuner.store import Relation, evaluate, load_triples, materialize
from rdftuner.workload import make_synthetic_schema, make_synthetic_store
from test_stats import read_statistics

PAINTER_QUERY_TEXT = (
    "q1(X, Z) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y), "
    "t(Y, hasPainted, Z) ."
)


@pytest.fixture
def painter_files(tmp_path):
    triples = tmp_path / "triples.txt"
    queries = tmp_path / "queries.txt"
    schema = tmp_path / "schema.txt"
    triples.write_text(PAINTER_TRIPLES)
    queries.write_text(PAINTER_QUERY_TEXT)
    schema.write_text(GALLERY_SCHEMA)
    return triples, queries, schema


def read_tsv(path):
    lines = path.read_text().splitlines()
    header = tuple(lines[0].split("\t"))
    rows = {tuple(line.split("\t")) for line in lines[1:]}
    return header, rows


# ---------------------------------------------------------------------------
# tune


def test_tune_writes_document_to_stdout(painter_files, capsys):
    triples, queries, _ = painter_files
    rc = main(["tune", "--triples", str(triples), "--queries", str(queries),
               "--strategy", "exnaive"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["format"] == "rdftuner/1"
    assert doc["mode"] == "plain"
    assert doc["schema"] is None
    assert len(doc["queries"]) == 1 and doc["queries"][0]["name"] == "q1"
    assert doc["views"], "best state must carry at least one view"
    assert [r["query"] for r in doc["rewritings"]] == ["q1"]
    for r in doc["rewritings"]:
        assert r["plan"] and isinstance(r["expr"], dict)
    assert doc["best_cost"]["total"] <= doc["initial_cost"]["total"]
    assert 0.0 <= doc["rcr"] <= 1.0
    assert doc["search"]["created"] >= 1
    assert doc["search"]["explored"] == doc["search"]["created"]  # exnaive ran dry
    assert not doc["timed_out"]


def test_tune_out_file_prints_summary_and_trace(painter_files, tmp_path, capsys):
    triples, queries, _ = painter_files
    out = tmp_path / "doc.json"
    trace = tmp_path / "trace.csv"
    rc = main(["tune", "--triples", str(triples), "--queries", str(queries),
               "--strategy", "dfs", "--avf",
               "--out", str(out), "--trace", str(trace)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "cost " in printed and "views:" in printed and "rewritings:" in printed
    doc = json.loads(out.read_text())
    assert doc["strategy"] == "dfs" and doc["avf"] is True

    with open(trace, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["elapsed_seconds", "best_cost", "rcr"]
    body = [(float(e), float(c), float(r)) for e, c, r in rows[1:]]
    assert body, "trace must record at least the initial state"
    assert body[0][1] == pytest.approx(doc["initial_cost"]["total"])
    assert body[-1][1] == pytest.approx(doc["best_cost"]["total"])
    assert body[-1][2] == pytest.approx(doc["rcr"], abs=1e-6)
    assert all(b[1] <= a[1] for a, b in zip(body, body[1:]))
    assert all(a[0] <= b[0] for a, b in zip(body, body[1:]))


def test_tune_records_flags_in_document(painter_files, tmp_path):
    triples, queries, schema = painter_files
    out = tmp_path / "doc.json"
    rc = main(["tune", "--triples", str(triples), "--queries", str(queries),
               "--schema", str(schema), "--mode", "saturate",
               "--strategy", "gstr", "--avf", "--stop-tt", "--stop-var",
               "--timeout", "30", "--max-states", "500",
               "--cs", "2", "--cm", "0.25",
               "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    doc = json.loads(text)
    assert doc["mode"] == "saturate"
    assert doc["strategy"] == "gstr"
    assert doc["avf"] and doc["stop_tt"] and doc["stop_var"]
    assert doc["timeout"] == 30.0
    assert doc["max_states"] == 500
    assert doc["weights"]["cs"] == 2.0 and doc["weights"]["cm"] == 0.25
    assert doc["weights"]["cr"] == 1.0  # untouched default
    # the weights and cost breakdowns are written in their records' field order
    assert ('  "weights": {\n    "cs": 2.0,\n    "cr": 1.0,\n    "cm": 0.25,\n'
            '    "c1": 1.0,\n    "c2": 1.0,\n    "f": 2.0\n  },\n') in text
    assert list(doc["initial_cost"]) == list(doc["best_cost"]) == ["vso", "rec", "vmc", "total"]
    restored = parse_schema("\n".join(doc["schema"]))
    assert restored.statements == parse_schema(GALLERY_SCHEMA).statements


def test_tune_zero_timeout_keeps_initial_state(painter_files, capsys):
    triples, queries, _ = painter_files
    rc = main(["tune", "--triples", str(triples), "--queries", str(queries),
               "--timeout", "0"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["timed_out"] is True
    assert doc["rcr"] == 0.0
    assert doc["best_cost"] == doc["initial_cost"]
    assert doc["search"]["created"] == 1


# ---------------------------------------------------------------------------
# materialize / answer on a tune document


@pytest.fixture
def tuned_doc(painter_files, tmp_path, capsys):
    triples, queries, _ = painter_files
    out = tmp_path / "doc.json"
    rc = main(["tune", "--triples", str(triples), "--queries", str(queries),
               "--strategy", "gstr", "--avf", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()  # swallow the summary
    return out, triples


def test_materialize_writes_one_tsv_per_view(tuned_doc, tmp_path, capsys):
    out, triples = tuned_doc
    view_dir = tmp_path / "views"
    rc = main(["materialize", "--plan", str(out), "--triples", str(triples),
               "--out-dir", str(view_dir)])
    assert rc == 0
    printed = capsys.readouterr().out
    store = load_triples(PAINTER_TRIPLES)
    doc = json.loads(out.read_text())
    assert doc["views"]
    for vj in doc["views"]:
        view = query_from_json(vj)
        assert view.name in printed
        header, rows = read_tsv(view_dir / f"{view.name}.tsv")
        rel = materialize(view, store)
        assert header == rel.column_names()
        assert rows == set(rel.rows)


def test_answer_matches_direct_evaluation(tuned_doc, tmp_path):
    out, triples = tuned_doc
    ans = tmp_path / "q1.tsv"
    rc = main(["answer", "--plan", str(out), "--triples", str(triples),
               "--query", "q1", "--out", str(ans)])
    assert rc == 0
    _, rows = read_tsv(ans)
    store = load_triples(PAINTER_TRIPLES)
    assert rows == evaluate(painter_query(), store)


def test_answer_stdout_lists_rows(tuned_doc, capsys):
    out, triples = tuned_doc
    rc = main(["answer", "--plan", str(out), "--triples", str(triples),
               "--query", "q1"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "vanGogh\tpieta" in printed


def _var(name):
    return {"v": name}


# A join cut that splits the painter query at n2.o (Y), as rdftuner/1
# documents from before rewritings joined the two pieces through a rename
# hold it: a "thetajoin" on the (fresh, cut) variable pair.
THETAJOIN_DOCUMENT = {
    "format": "rdftuner/1",
    "mode": "plain",
    "schema": None,
    "views": [
        {"name": "v6", "head": [_var("X"), _var("F3")],
         "body": [[_var("X"), {"c": "hasPainted"}, {"c": "starryNight"}],
                  [_var("X"), {"c": "isParentOf"}, _var("F3")]]},
        {"name": "v7", "head": [_var("Z"), _var("Y")],
         "body": [[_var("Y"), {"c": "hasPainted"}, _var("Z")]]},
    ],
    "rewritings": [{
        "query": "q1",
        "plan": "project[X,Z]((v6 join[F3=Y] v7))",
        "expr": {"op": "project", "columns": [_var("X"), _var("Z")],
                 "child": {"op": "thetajoin",
                           "left": {"op": "scan", "view": "v6"},
                           "right": {"op": "scan", "view": "v7"},
                           "pairs": [[_var("F3"), _var("Y")]]}},
    }],
}


def test_a_thetajoin_plan_answers_as_the_query(painter_files, tmp_path, capsys):
    """answer, and the plan evaluated over what materialize writes, give the
    query's own rows from a document whose plan holds a "thetajoin"."""
    triples, _, _ = painter_files
    plan = tmp_path / "doc.json"
    plan.write_text(json.dumps(THETAJOIN_DOCUMENT))
    direct = evaluate(painter_query(), load_triples(PAINTER_TRIPLES))
    assert direct

    ans = tmp_path / "q1.tsv"
    assert main(["answer", "--plan", str(plan), "--triples", str(triples),
                 "--query", "q1", "--out", str(ans)]) == 0
    assert read_tsv(ans) == (("X", "Z"), direct)

    view_dir = tmp_path / "views"
    assert main(["materialize", "--plan", str(plan), "--triples", str(triples),
                 "--out-dir", str(view_dir)]) == 0
    capsys.readouterr()
    relations = {}
    for vj in THETAJOIN_DOCUMENT["views"]:
        view = query_from_json(vj)
        header, rows = read_tsv(view_dir / f"{view.name}.tsv")
        assert header == tuple(t.name for t in view.head)
        relations[view.name] = Relation(view.name, view.head, frozenset(rows))
    expr = expr_from_json(THETAJOIN_DOCUMENT["rewritings"][0]["expr"])
    assert eval_expr(expr, relations).rows == direct


def test_answer_unknown_query_name_is_input_error(tuned_doc, capsys):
    out, triples = tuned_doc
    rc = main(["answer", "--plan", str(out), "--triples", str(triples),
               "--query", "nope"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "q1" in err  # names what it does have


def test_answer_with_a_view_missing_from_the_document_is_input_error(
        tuned_doc, tmp_path, capsys):
    out, triples = tuned_doc
    doc = json.loads(out.read_text())
    scanned = set(scan_views(expr_from_json(doc["rewritings"][0]["expr"])))
    doc["views"] = [v for v in doc["views"] if v["name"] not in scanned]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    rc = main(["answer", "--plan", str(broken), "--triples", str(triples),
               "--query", "q1"])
    assert rc == 2
    assert "no materialized relation for view" in capsys.readouterr().err


def drop_views(doc):
    del doc["views"]


def two_term_atom(doc):
    doc["views"][0]["body"][0].pop()


def select_without_left(doc):
    rewriting = doc["rewritings"][0]
    rewriting["expr"] = {"op": "select", "right": {"c": "pieta"}, "child": rewriting["expr"]}


@pytest.mark.parametrize("command", ["answer", "materialize"])
@pytest.mark.parametrize("break_doc, error", [
    (drop_views, "KeyError"),
    (two_term_atom, "TypeError"),
    (select_without_left, "KeyError"),
], ids=["no-views", "two-term-atom", "select-without-left"])
def test_malformed_documents_are_input_errors(tuned_doc, tmp_path, capsys, command,
                                              break_doc, error):
    out, triples = tuned_doc
    doc = json.loads(out.read_text())
    break_doc(doc)
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    extra = ["--query", "q1"] if command == "answer" else ["--out-dir", str(tmp_path / "views")]
    assert main([command, "--plan", str(broken), "--triples", str(triples)] + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {broken}: malformed tune document: {error}")
    assert "Traceback" not in err


def name_view(name):
    def rename(doc):
        old = doc["views"][0]["name"]
        doc["views"][0]["name"] = name
        for r in doc["rewritings"]:
            r["expr"] = json.loads(json.dumps(r["expr"]).replace(
                json.dumps(old), json.dumps(name)))
    return rename


def repeat_view(doc):
    doc["views"].append(dict(doc["views"][0]))


def repeat_rewriting(doc):
    doc["rewritings"].append(dict(doc["rewritings"][0]))


@pytest.mark.parametrize("command", ["answer", "materialize"])
@pytest.mark.parametrize("break_doc, error", [
    (name_view("../evil"), "view name '../evil' is not a file name"),
    (name_view(""), "view name '' is not a file name"),
    (name_view("."), "view name '.' is not a file name"),
    (name_view(".."), "view name '..' is not a file name"),
    (name_view("a/b"), "view name 'a/b' is not a file name"),
    (name_view("a\\b"), "view name 'a\\\\b' is not a file name"),
    (name_view("a\0b"), "view name 'a\\x00b' is not a file name"),
    (repeat_view, "more than one view 'v"),
    (repeat_rewriting, "more than one rewriting of query 'q1'"),
], ids=["parent-dir", "empty", "dot", "dot-dot", "slash", "backslash", "nul", "two-views-one-name",
        "two-rewritings-one-query"])
def test_view_names_that_are_no_file_names_or_repeat_are_input_errors(
        tuned_doc, tmp_path, capsys, command, break_doc, error):
    """A view name becomes a file name under --out-dir, and views and
    rewritings are looked up by name: the document is refused, with exit
    2, before anything is written."""
    out, triples = tuned_doc
    doc = json.loads(out.read_text())
    break_doc(doc)
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    views = tmp_path / "out" / "views"
    answer = tmp_path / "q1.tsv"
    extra = (["--query", "q1", "--out", str(answer)] if command == "answer"
             else ["--out-dir", str(views)])
    before = sorted(tmp_path.rglob("*"))
    assert main([command, "--plan", str(broken), "--triples", str(triples)] + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {broken}: {error}"), err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.fixture
def post_doc(painter_files, tmp_path, capsys):
    triples, queries, schema = painter_files
    out = tmp_path / "post.json"
    rc = main(["tune", "--triples", str(triples), "--queries", str(queries),
               "--schema", str(schema), "--mode", "post", "--strategy", "gstr",
               "--avf", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    return out, triples


@pytest.mark.parametrize("command", ["answer", "materialize"])
@pytest.mark.parametrize("mode, keep_schema, message", [
    ("bogus", True, "unknown mode 'bogus'"),
    ("bogus", False, "unknown mode 'bogus'"),
    ("post", False, "mode 'post' needs a schema"),
], ids=["unknown", "unknown-without-schema", "post-without-schema"])
def test_document_mode_is_checked(post_doc, tmp_path, capsys, command, mode,
                                  keep_schema, message):
    # answered as plain, an unknown mode would lose the entailed answers
    out, triples = post_doc
    doc = json.loads(out.read_text())
    doc["mode"] = mode
    if not keep_schema:
        doc["schema"] = None
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    extra = ["--query", "q1"] if command == "answer" else ["--out-dir", str(tmp_path / "views")]
    assert main([command, "--plan", str(broken), "--triples", str(triples)] + extra) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "--schema" not in err


@pytest.mark.parametrize("mode", ["plain", "post"])
def test_answer_materializes_only_the_views_its_rewriting_scans(
        painter_files, tmp_path, capsys, monkeypatch, mode):
    triples, _, schema = painter_files
    queries = tmp_path / "two.txt"
    queries.write_text(PAINTER_QUERY_TEXT + "\nq2(X) :- t(X, rdf:type, picture) .")
    doc = tmp_path / "doc.json"
    # a zero budget keeps the initial state: one view per query
    argv = ["tune", "--triples", str(triples), "--queries", str(queries),
            "--strategy", "exnaive", "--timeout", "0", "--mode", mode, "--out", str(doc)]
    assert main(argv + (["--schema", str(schema)] if mode == "post" else [])) == 0
    capsys.readouterr()
    rewritings = json.loads(doc.read_text())["rewritings"]
    materialized, reformulated = [], []

    def recording_materialize(view, store, real=cli.materialize):
        materialized.append(view.name)
        return real(view, store)

    def recording_reformulate(views, schema,
                              real=reasoning.reformulate_views_for_materialization):
        reformulated.extend(v.name for v in views)
        return real(views, schema)

    monkeypatch.setattr(cli, "materialize", recording_materialize)
    # cli imports it from reasoning where it reformulates
    monkeypatch.setattr(reasoning, "reformulate_views_for_materialization",
                        recording_reformulate)
    store = load_triples(PAINTER_TRIPLES)
    if mode == "post":
        store = saturate(store, parse_schema(GALLERY_SCHEMA))
    for r in rewritings:
        materialized.clear()
        reformulated.clear()
        ans = tmp_path / f"{r['query']}.tsv"
        assert main(["answer", "--plan", str(doc), "--triples", str(triples),
                     "--query", r["query"], "--out", str(ans)]) == 0
        scanned = sorted(set(scan_views(expr_from_json(r["expr"]))))
        assert len(scanned) == 1
        assert sorted(materialized) == scanned
        assert sorted(reformulated) == (scanned if mode == "post" else [])
        query = next(q for q in parse_queries(queries.read_text()) if q.name == r["query"])
        assert read_tsv(ans)[1] == evaluate(query, store)


# ---------------------------------------------------------------------------
# answering loads only the properties its views read

ANSWERING_WORKLOADS = {
    "painter": PAINTER_QUERY_TEXT,
    # a variable property: every triple is loaded
    "variable-property": "qv(X, P) :- t(X, P, starryNight), t(X, isParentOf, Y) .",
    # moma occurs only on an isExpIn line, which no view reads
    "skipped-constant": "qm(X, Y) :- t(X, hasPainted, Y), t(X, isParentOf, moma) .",
}


def tsv_of(columns, rows):
    return "".join("\t".join(r) + "\n" for r in [[str(c) for c in columns], *sorted(rows)])


def full_store_relations(views, mode):
    """The views' relations evaluated over the whole painter store, each
    post-mode view as its whole reformulation."""
    store = load_triples(PAINTER_TRIPLES)
    schema = parse_schema(GALLERY_SCHEMA)
    if mode == "saturate":
        store = saturate(store, schema)
    if mode == "post":
        return {v.name: materialize(reasoning.reformulate(v, schema), store) for v in views}
    return {v.name: materialize(v, store) for v in views}


@pytest.mark.parametrize("mode", ["plain", "saturate", "pre", "post"])
@pytest.mark.parametrize("workload", sorted(ANSWERING_WORKLOADS))
def test_answering_writes_what_a_full_store_evaluation_gives(painter_files, tmp_path, capsys,
                                                              mode, workload):
    triples, _, schema = painter_files
    queries = tmp_path / "w.txt"
    queries.write_text(ANSWERING_WORKLOADS[workload])
    doc = tmp_path / "doc.json"
    assert main(["tune", "--triples", str(triples), "--queries", str(queries),
                 "--schema", str(schema), "--mode", mode, "--strategy", "gstr", "--avf",
                 "--out", str(doc)]) == 0
    view_dir = tmp_path / "views"
    assert main(["materialize", "--plan", str(doc), "--triples", str(triples),
                 "--out-dir", str(view_dir)]) == 0
    capsys.readouterr()
    plan = cli.load_document(str(doc))
    views = cli.document_views(plan)
    relations = full_store_relations(views, mode)
    for v in views:
        rel = relations[v.name]
        assert (view_dir / f"{v.name}.tsv").read_text() == tsv_of(rel.columns, rel.rows)
    for name, expr in cli.document_plans(plan).items():
        ans = tmp_path / f"{name}.tsv"
        assert main(["answer", "--plan", str(doc), "--triples", str(triples),
                     "--query", name, "--out", str(ans)]) == 0
        rel = eval_expr(expr, relations)
        assert ans.read_text() == tsv_of(rel.columns, rel.rows)
    if workload == "skipped-constant":
        assert rel.rows == frozenset()


@pytest.mark.parametrize("mode", ["plain", "saturate", "pre", "post"])
def test_answer_loads_only_the_properties_its_rewriting_reads(
        painter_files, tmp_path, capsys, monkeypatch, mode):
    triples, _, schema = painter_files
    queries = tmp_path / "two.txt"
    queries.write_text(PAINTER_QUERY_TEXT + "\nq2(X) :- t(X, rdf:type, picture) .")
    doc = tmp_path / "doc.json"
    assert main(["tune", "--triples", str(triples), "--queries", str(queries),
                 "--schema", str(schema), "--mode", mode, "--strategy", "gstr", "--avf",
                 "--out", str(doc)]) == 0
    capsys.readouterr()
    plan = cli.load_document(str(doc))
    loaded = []

    def recording_load(text, *properties, real=cli.load_triples):
        loaded.append(real(text, *properties))
        return loaded[-1]

    monkeypatch.setattr(cli, "load_triples", recording_load)
    whole = load_triples(PAINTER_TRIPLES)
    for name, expr in cli.document_plans(plan).items():
        loaded.clear()
        scanned = set(scan_views(expr))
        views = [v for v in cli.document_views(plan) if v.name in scanned]
        if mode in ("saturate", "post"):
            views = [m for v in views for m in reasoning.reformulate(v, parse_schema(
                GALLERY_SCHEMA)).members]
        read = {a.p.symbol for v in views for a in v.body}
        assert main(["answer", "--plan", str(doc), "--triples", str(triples),
                     "--query", name, "--out", str(tmp_path / "a.tsv")]) == 0
        (store,) = loaded
        assert {store.symbols(t) for t in store.triples} == {
            whole.symbols(t) for t in whole.triples if whole.dictionary.symbol(t[1]) in read}
        assert len(store) < len(whole)


@settings(max_examples=150)
@given(st.integers(0, 2**32 - 1))
def test_dropping_contained_members_keeps_a_unions_answers(seed):
    rng = random.Random(seed)
    schema = random_schema(rng)
    store = random_store(rng, schema, max_triples=30)
    q = random_query(rng, schema)
    members = list(reasoning.reformulate(q, schema).members)
    # an equivalent copy and a specialization of a member, so that pairs
    # contain each other both ways and one way
    m = rng.choice(members)
    members.append(m.rename({v: Var(v.name + "c") for v in m.variables()}))
    members.append(ConjunctiveQuery(m.name, m.head, m.body + (rng.choice(q.body),)))
    rng.shuffle(members)
    union = UnionQuery(q.name, tuple(members))
    pruned = without_contained_members(union)
    assert evaluate(pruned, store) == evaluate(union, store)
    rest = iter(union.members)
    assert all(any(k is m for m in rest) for k in pruned.members)  # kept in order
    assert len(pruned.members) < len(members)
    for m in union.members:
        assert any(find_containment_mapping(k, m) is not None for k in pruned.members)


# ---------------------------------------------------------------------------
# reformulate / saturate / stats / gen-workload


def test_reformulate_members_cover_entailed_answers(painter_files, tmp_path, capsys):
    _, _, schema = painter_files
    queries = tmp_path / "q.txt"
    queries.write_text("qp(X) :- t(X, rdf:type, picture) .\n"
                       "ql(X, Y) :- t(X, isLocatIn, Y) .")
    rc = main(["reformulate", "--queries", str(queries), "--schema", str(schema)])
    assert rc == 0
    members = parse_queries(capsys.readouterr().out)
    store = load_triples(PAINTER_TRIPLES)
    sat = saturate(store, parse_schema(GALLERY_SCHEMA))
    for name, n_members in (("qp", 2), ("ql", 2)):
        group = [m for m in members if m.name.startswith(name + "__")]
        assert len(group) == n_members
        union_rows = set().union(*(evaluate(m, store) for m in group))
        direct = [q for q in parse_queries(queries.read_text()) if q.name == name]
        assert union_rows == evaluate(direct[0], sat)


def test_reformulate_output_reads_back_as_its_members(tmp_path, capsys):
    queries, schema = tmp_path / "q.txt", tmp_path / "schema.txt"
    queries.write_text("q(X, C) :- t(X, rdf:type, C) .")
    schema.write_text("painting rdfs:subClassOf picture\n")
    assert main(["reformulate", "--queries", str(queries), "--schema", str(schema)]) == 0
    back = parse_queries(capsys.readouterr().out, validate=False)
    union = reasoning.reformulate(parse_queries(queries.read_text())[0],
                                  parse_schema(schema.read_text()))
    assert [(m.name, m.head, m.body) for m in back] == [
        (f"q__{i}", m.head, m.body) for i, m in enumerate(union.members, start=1)]
    assert any(isinstance(t, Const) for m in back for t in m.head)


def test_saturate_adds_entailed_triples(painter_files, capsys):
    triples, _, schema = painter_files
    rc = main(["saturate", "--triples", str(triples), "--schema", str(schema)])
    assert rc == 0
    sat = load_triples(capsys.readouterr().out)
    symbols = {sat.symbols(t) for t in sat.triples}
    base = load_triples(PAINTER_TRIPLES)
    assert {base.symbols(t) for t in base.triples} <= symbols
    assert ("starryNight", "rdf:type", "picture") in symbols
    assert ("starryNight", "isLocatIn", "moma") in symbols
    assert ("painting", "rdfs:subClassOf", "picture") not in symbols


def test_saturate_can_include_schema_triples(painter_files, capsys):
    triples, _, schema = painter_files
    rc = main(["saturate", "--triples", str(triples), "--schema", str(schema),
               "--include-schema-triples"])
    assert rc == 0
    sat = load_triples(capsys.readouterr().out)
    symbols = {sat.symbols(t) for t in sat.triples}
    assert ("painting", "rdfs:subClassOf", "picture") in symbols
    assert ("isExpIn", "rdfs:subPropertyOf", "isLocatIn") in symbols


def test_stats_output_round_trips(painter_files, tmp_path):
    triples, queries, _ = painter_files
    out = tmp_path / "stats.json"
    rc = main(["stats", "--triples", str(triples), "--queries", str(queries),
               "--out", str(out)])
    assert rc == 0
    stats = read_statistics(out.read_text())
    store = load_triples(PAINTER_TRIPLES)
    assert stats.triple_count == len(store.triples)
    for atom in painter_query().body:
        assert pattern_of(atom) in stats.pattern_counts


def _generated_schema_workload(tmp_path):
    triples, queries = tmp_path / "gen.triples.txt", tmp_path / "gen.txt"
    schema = tmp_path / "gen.schema.txt"
    assert main(["gen-workload", "--store-size", "300", "--n-queries", "2",
                 "--atoms", "3", "--shape", "star", "--seed", "11",
                 "--out", str(queries), "--triples-out", str(triples)]) == 0
    schema.write_text(format_schema(make_synthetic_schema(10, seed=11)))
    return triples, queries, schema


@pytest.mark.parametrize("workload", ["painter", "generated"])
def test_stats_post_writes_the_saturated_statistics(painter_files, tmp_path, workload):
    # post-reformulated views answer as the views do over the saturated store
    if workload == "painter":
        triples, _, schema = painter_files
        queries = tmp_path / "entailed.txt"
        queries.write_text("q(X, Y) :- t(X, rdf:type, picture), t(X, isLocatIn, Y) .")
    else:
        triples, queries, schema = _generated_schema_workload(tmp_path)
    written = {}
    for mode in ("plain", "saturate", "post"):
        out = tmp_path / f"{mode}.json"
        assert main(["stats", "--triples", str(triples), "--queries", str(queries),
                     "--schema", str(schema), "--mode", mode, "--out", str(out)]) == 0
        written[mode] = out.read_bytes()
    assert written["post"] == written["saturate"]
    post, plain = (read_statistics(written[m].decode()) for m in ("post", "plain"))
    assert post.pattern_counts != plain.pattern_counts


def test_post_tune_reformulates_nothing_before_the_search(painter_files, tmp_path,
                                                          monkeypatch, capsys):
    triples, queries, schema = painter_files
    events = []
    real_reformulate, real_search = reasoning.reformulate, search.run_search

    def recording_reformulate(*args, **kwargs):
        events.append("reformulate")
        return real_reformulate(*args, **kwargs)

    def recording_search(*args, **kwargs):
        events.append("search")
        return real_search(*args, **kwargs)

    # callers import the function by name, so rebind it in every module
    for name, module in list(sys.modules.items()):
        if name.startswith("rdftuner") and getattr(module, "reformulate", None) is real_reformulate:
            monkeypatch.setattr(module, "reformulate", recording_reformulate)
    monkeypatch.setattr(search, "run_search", recording_search)
    assert main(["tune", "--triples", str(triples), "--queries", str(queries),
                 "--schema", str(schema), "--mode", "post", "--strategy", "gstr",
                 "--avf", "--out", str(tmp_path / "doc.json")]) == 0
    assert events[:1] == ["search"]


def test_gen_workload_is_deterministic(tmp_path):
    def run(seed, q, t):
        rc = main(["gen-workload", "--store-size", "200", "--n-queries", "3",
                   "--atoms", "3", "--shape", "chain", "--seed", str(seed),
                   "--out", str(q), "--triples-out", str(t)])
        assert rc == 0

    qa, ta = tmp_path / "qa.txt", tmp_path / "ta.txt"
    qb, tb = tmp_path / "qb.txt", tmp_path / "tb.txt"
    qc, tc = tmp_path / "qc.txt", tmp_path / "tc.txt"
    run(5, qa, ta)
    run(5, qb, tb)
    run(6, qc, tc)
    assert qa.read_text() == qb.read_text() and ta.read_text() == tb.read_text()
    assert qc.read_text() != qa.read_text()

    generated = parse_queries(qa.read_text())
    store = load_triples(ta.read_text())
    assert len(generated) == 3 and len(store.triples) == 200
    for q in generated:
        assert len(q.body) == 3
        assert evaluate(q, store), "sampled queries must be non-empty"


def test_gen_workload_rejects_a_negative_constant_count(tmp_path, capsys):
    out = tmp_path / "w.txt"
    rc = main(["gen-workload", "--store-size", "200", "--constants", "-2", "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "constants" in captured.err
    assert not out.exists()


def test_tune_document_does_not_depend_on_hash_order(tmp_path):
    """Terms and atoms hash by identity, so set order follows memory
    addresses, and strings hash by a per-process seed; no output may read
    either order.  Two processes with different hash seeds, one of them
    with its heap shifted by a few thousand tuples, write the same
    document."""
    queries, triples = tmp_path / "q.txt", tmp_path / "t.txt"
    assert main(["gen-workload", "--shape", "star", "--commonality", "medium", "--atoms", "4",
                 "--constants", "1", "--out", str(queries), "--triples-out", str(triples)]) == 0
    docs = []
    for seed, pad in (("1", 0), ("2", 2999)):
        out = tmp_path / f"doc{seed}.json"
        run = (f"_pad = [(i,) * (1 + i % 3) for i in range({pad})]\n"
               "import sys; from rdftuner.cli import main; sys.exit(main(sys.argv[1:]))")
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", run, "tune", "--triples", str(triples), "--queries",
             str(queries), "--strategy", "gstr", "--avf", "--stop-var", "--max-states", "2",
             "--out", str(out)], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(out.read_text())
        del doc["elapsed_seconds"], doc["trace"]
        docs.append(doc)
    assert docs[0]["search"]["created"] > 100
    assert docs[0] == docs[1]


def tune_in_subprocess(args: list[str]) -> int:
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "rdftuner.cli", "tune", *args],
                          env=env, capture_output=True, text=True, timeout=60)
    return proc.returncode


def test_python_m_rdftuner_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "rdftuner", "tune", "--help"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "--max-states" in proc.stdout


def test_module_caches_carry_nothing_between_tunes(tmp_path):
    """The key caches outlive a tune, the cost memos do not: two
    tunes in one process, of one query file over two stores, each write
    the document that a fresh process writes."""
    queries = tmp_path / "q1.txt"
    stores = [tmp_path / "t1.txt", tmp_path / "t2.txt"]
    for i, store in enumerate(stores, start=1):
        # the queries sampled from the second store go unused
        assert main(["gen-workload", "--shape", "star", "--commonality", "medium",
                     "--atoms", "4", "--constants", "0", "--store-size", str(300 * i),
                     "--store-seed", str(i), "--out", str(tmp_path / f"q{i}.txt"),
                     "--triples-out", str(store)]) == 0
    docs = {}
    for where in ("here", "fresh"):
        for i, store in enumerate(stores):
            out = tmp_path / f"{where}{i}.json"
            args = ["--triples", str(store), "--queries", str(queries), "--strategy", "gstr",
                    "--avf", "--stop-var", "--max-states", "2", "--out", str(out)]
            assert (main(["tune", *args]) if where == "here" else tune_in_subprocess(args)) == 0
            doc = json.loads(out.read_text())
            del doc["elapsed_seconds"], doc["trace"], doc["caches"]
            docs[where, i] = doc
    assert docs["here", 0] == docs["fresh", 0] and docs["here", 1] == docs["fresh", 1]
    assert min(docs["here", i]["search"]["created"] for i in (0, 1)) > 10
    assert docs["here", 0]["best_cost"] != docs["here", 1]["best_cost"]


def test_tune_document_counts_cache_hits(tmp_path):
    """The caches field: each memo of the estimator, and the process-wide
    key caches over the search.  On a star workload, rewritings recur under
    fresh view names, so the memo by tree shape has hits."""
    queries, triples, out = tmp_path / "q.txt", tmp_path / "t.txt", tmp_path / "doc.json"
    assert main(["gen-workload", "--shape", "star", "--commonality", "medium", "--atoms", "4",
                 "--constants", "1", "--out", str(queries), "--triples-out", str(triples)]) == 0
    assert main(["tune", "--triples", str(triples), "--queries", str(queries), "--strategy",
                 "gstr", "--avf", "--stop-var", "--max-states", "2", "--out", str(out)]) == 0
    caches = json.loads(out.read_text())["caches"]
    assert set(caches["estimator"]) == {"rows", "view_terms", "rewriting_by_tree",
                                        "rewriting_by_shape"}
    assert set(caches["process"]) == {"view_key", "body_form", "canonical_key"}
    for counts in [*caches["estimator"].values(), *caches["process"].values()]:
        assert set(counts) == {"hits", "misses"} and min(counts.values()) >= 0
    by_tree, by_shape = caches["estimator"]["rewriting_by_tree"], caches["estimator"]["rewriting_by_shape"]
    assert by_shape["hits"] > 0
    assert by_tree["misses"] == by_shape["hits"] + by_shape["misses"]


def test_gen_workload_against_existing_store(painter_files, tmp_path, capsys):
    triples, _, _ = painter_files
    rc = main(["gen-workload", "--triples", str(triples), "--n-queries", "2",
               "--atoms", "2", "--shape", "chain", "--seed", "1"])
    assert rc == 0
    generated = parse_queries(capsys.readouterr().out)
    store = load_triples(PAINTER_TRIPLES)
    assert len(generated) == 2
    for q in generated:
        assert evaluate(q, store)


# ---------------------------------------------------------------------------
# error envelope


def test_invalid_inputs_exit_2(painter_files, tmp_path, capsys):
    triples, queries, _ = painter_files
    garbage = tmp_path / "garbage.txt"
    garbage.write_text("this is not ( a query")
    empty = tmp_path / "empty.txt"
    empty.write_text("# only a comment\n")
    notdoc = tmp_path / "notdoc.json"
    notdoc.write_text('{"format": "something-else"}')
    badjson = tmp_path / "bad.json"
    badjson.write_text("{truncated")

    cases = [
        ["tune", "--triples", str(tmp_path / "missing.txt"), "--queries", str(queries)],
        ["tune", "--triples", str(triples), "--queries", str(garbage)],
        ["tune", "--triples", str(triples), "--queries", str(empty)],
        ["tune", "--triples", str(triples), "--queries", str(queries),
         "--mode", "saturate"],
        ["materialize", "--plan", str(notdoc), "--triples", str(triples),
         "--out-dir", str(tmp_path / "v")],
        ["materialize", "--plan", str(badjson), "--triples", str(triples),
         "--out-dir", str(tmp_path / "v")],
    ]
    for argv in cases:
        capsys.readouterr()
        assert main(argv) == 2, argv
        assert "error:" in capsys.readouterr().err or argv[1].endswith("bad.json")


@pytest.mark.parametrize("mode", ["pre", "saturate", "post"])
@pytest.mark.parametrize("command", ["tune", "stats"])
def test_a_mode_without_a_schema_exits_2_before_reading_a_file(tmp_path, capsys, command,
                                                               mode):
    argv = [command, "--triples", str(tmp_path / "missing.txt"),
            "--queries", str(tmp_path / "missing-queries.txt"), "--mode", mode]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: mode {mode!r} needs --schema\n"


@pytest.mark.parametrize("strategy", ["exstr", "dfs"])
def test_max_states_without_a_frontier_exits_2(painter_files, capsys, strategy):
    triples, queries, _ = painter_files
    rc = main(["tune", "--triples", str(triples), "--queries", str(queries),
               "--strategy", strategy, "--max-states", "5"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "max_states" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "flags,field",
    [
        (["--strategy", "gstr", "--max-states", "-1"], "max_states"),
        (["--strategy", "exnaive", "--max-states", "0"], "max_states"),
        (["--strategy", "dfs", "--timeout", "-0.5"], "timeout"),
        *[([f"--{name}", value], f"cost weight {name} (--{name}) must be finite and at least 0")
          for name in ("cs", "cr", "cm", "c1", "c2", "f") for value in ("nan", "-5", "inf")],
        (["--strategy", "dfs", "--timeout", "inf"],
         "timeout (--timeout) must be at least 0 and finite"),
        # finite weights under which the initial cost is infinite or math.pow overflows
        (["--cs", "1e308"], "initial state overflows under the cost weights --cs 1e+308 --cr 1"),
        (["--f", "1e308"], "initial state overflows under the cost weights --cs 1 --cr 1 "
                           "--cm 0.5 --c1 1 --c2 1 --f 1e+308"),
    ],
)
def test_out_of_range_limits_exit_2(painter_files, capsys, flags, field):
    triples, queries, _ = painter_files
    rc = main(["tune", "--triples", str(triples), "--queries", str(queries)] + flags)
    assert rc == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and field in captured.err
    assert captured.out == ""


def test_a_finite_cost_near_the_float_limit_writes_strict_json(painter_files, tmp_path):
    triples, queries, _ = painter_files
    out = tmp_path / "doc.json"
    assert main(["tune", "--triples", str(triples), "--queries", str(queries),
                 "--cr", "1e308", "--out", str(out)]) == 0

    def reject(token):
        raise ValueError(f"non-RFC-8259 token {token}")

    doc = json.loads(out.read_text(), parse_constant=reject)
    assert doc["initial_cost"]["total"] < float("inf")


def test_unexpected_failure_exits_3(painter_files, monkeypatch, capsys):
    def boom(*a, **kw):
        raise RuntimeError("wired to fail")

    monkeypatch.setattr(search, "run_search", boom)
    triples, queries, _ = painter_files
    rc = main(["tune", "--triples", str(triples), "--queries", str(queries)])
    assert rc == 3
    assert "RuntimeError" in capsys.readouterr().err


def test_a_negative_weight_exits_2_naming_it(painter_files, capsys):
    triples, queries, _ = painter_files
    assert main(["tune", "--triples", str(triples), "--queries", str(queries),
                 "--cs", "-1"]) == 2
    assert capsys.readouterr().err == (
        "error: cost weight cs (--cs) must be finite and at least 0, got -1.0\n")


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_main_runs_the_module_attribute_of_the_subcommand(painter_files, monkeypatch, name):
    """A wrapper bound to `cli.cmd_<name>` after import, as a tracer binds
    one, runs in place of the subcommand."""
    calls = []

    def wrapper(args):
        calls.append(args.command)
        return 0

    monkeypatch.setattr(cli, "cmd_" + name.replace("-", "_"), wrapper)
    triples, queries, _ = painter_files
    argv = {"tune": ["--triples", str(triples), "--queries", str(queries)],
            "reformulate": ["--queries", "q", "--schema", "s"],
            "saturate": ["--triples", "t", "--schema", "s"],
            "stats": ["--triples", "t", "--queries", "q"],
            "gen-workload": [],
            "materialize": ["--plan", "p", "--triples", "t"],
            "answer": ["--plan", "p", "--triples", "t", "--query", "q1"]}[name]
    assert main([name, *argv]) == 0
    assert calls == [name]


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def _parse_outcome(parse, argv, capsys):
    """The namespace, or the exit code, and what parsing argv printed."""
    try:
        result = vars(parse(argv))
    except SystemExit as exc:
        result = exc.code
    out, err = capsys.readouterr()
    return result, out, err


COMMAND_LINES = [
    [], ["-h"], ["--help"], ["nosuch"], ["--nosuch", "tune"], ["-h", "tune"], ["--", "tune"],
    *([c, flag] for c in cli.COMMANDS for flag in ("-h", "--help", "--bogus")),
    *([c, "extra", "words"] for c in cli.COMMANDS),
    *([c] for c in cli.COMMANDS),
    ["tune", "--triples", "t", "--queries", "q", "--timeout", "abc"],
    ["tune", "--triples", "t", "--queries", "q", "--strategy", "nope"],
    ["tune", "--triples", "t", "--queries", "q", "--mode", "x", "--avf"],
    ["tune", "--tri", "t", "--que", "q", "--max-states", "3", "--stop-var"],
    ["tune", "--triples", "t", "--queries", "q", "--c", "1"],
    ["tune", "--triples", "t", "--queries", "q", "-h", "--bogus"],
    ["stats", "--triples", "t", "--queries", "q", "--mode", "post", "--out", "o"],
    ["gen-workload", "--shape", "ring"], ["gen-workload", "--atoms", "x"],
    ["gen-workload", "--shape", "chain", "--seed", "4"],
    ["saturate", "--triples", "t", "--schema", "s", "--include-schema-triples"],
    ["reformulate", "--queries", "q", "--schema", "s", "--out", "o", "tail"],
    ["materialize", "--plan", "p", "--triples", "t"],
    ["answer", "--plan", "p", "--triples", "t", "--query", "q1", "--out", "o"],
    ["answer", "--plan", "p", "--triples", "t", "--query"],
]


@pytest.mark.parametrize("argv", COMMAND_LINES, ids=" ".join)
def test_parsing_one_subcommand_reads_like_the_full_parser(argv, capsys):
    """`main` builds the chosen subcommand's parser alone; every help text,
    usage error and parsed namespace is the full parser's, byte for byte."""
    full = _parse_outcome(lambda a: cli.build_parser().parse_args(a), argv, capsys)
    assert _parse_outcome(cli.parse_arguments, argv, capsys) == full


# ---------------------------------------------------------------------------
# the whole pipeline in one breath


def test_generate_tune_materialize_answer_round_trip(tmp_path, capsys):
    q = tmp_path / "w.txt"
    t = tmp_path / "t.txt"
    assert main(["gen-workload", "--store-size", "300", "--n-queries", "2",
                 "--atoms", "3", "--shape", "star", "--seed", "11",
                 "--out", str(q), "--triples-out", str(t)]) == 0
    doc = tmp_path / "doc.json"
    assert main(["tune", "--triples", str(t), "--queries", str(q),
                 "--strategy", "gstr", "--avf", "--timeout", "30",
                 "--out", str(doc)]) == 0
    assert main(["materialize", "--plan", str(doc), "--triples", str(t),
                 "--out-dir", str(tmp_path / "views")]) == 0
    store = load_triples(t.read_text())
    for query in parse_queries(q.read_text()):
        ans = tmp_path / f"{query.name}.tsv"
        assert main(["answer", "--plan", str(doc), "--triples", str(t),
                     "--query", query.name, "--out", str(ans)]) == 0
        _, rows = read_tsv(ans)
        assert rows == evaluate(query, store)


def test_iri_store_generate_tune_answer(tmp_path):
    """Over a store of IRIs, some holding '#', the generated workload reads
    back, and every query's answer is its evaluation over the store."""
    synthetic = make_synthetic_store(300, seed=11)

    def iri(sym):  # properties get a '#', which must not start a comment
        if ":" in sym:
            return sym
        return f"<http://ex.org/{sym[0]}{'#' if sym[0] == 'p' else '/'}{sym}>"

    t = tmp_path / "t.txt"
    t.write_text("".join(" ".join(map(iri, synthetic.symbols(tr))) + "\n"
                         for tr in sorted(synthetic.triples)))
    q = tmp_path / "w.txt"
    assert main(["gen-workload", "--triples", str(t), "--n-queries", "3", "--atoms", "3",
                 "--shape", "star", "--seed", "11", "--out", str(q)]) == 0
    assert "#" in q.read_text()
    doc = tmp_path / "doc.json"
    assert main(["tune", "--triples", str(t), "--queries", str(q), "--strategy", "gstr",
                 "--avf", "--timeout", "30", "--out", str(doc)]) == 0
    store = load_triples(t.read_text())
    for query in parse_queries(q.read_text()):
        ans = tmp_path / f"{query.name}.tsv"
        assert main(["answer", "--plan", str(doc), "--triples", str(t),
                     "--query", query.name, "--out", str(ans)]) == 0
        _, rows = read_tsv(ans)
        assert rows == evaluate(query, store)
