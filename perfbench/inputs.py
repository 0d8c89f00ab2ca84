"""Seeded input generation for the benchmark.

Every input has a fixed shape: the store, the workloads and the schema are
drawn by the repository's own generators from a fixed shape seed, and the
reformulation requests by the generator below.  The run seed then renames
every resource, class and property to another symbol of the same length
and shuffles the order of the triple lines.  Different seeds give
different files, while the program does the same work on each, so the
figures of one run compare with those of another: drawn afresh, the star
workloads alone vary several-fold in search time from seed to seed.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from rdftuner.queries import ConjunctiveQuery, Const, TripleAtom, Var, format_query
from rdftuner.reasoning import DOMAIN, RANGE, SUBCLASS, SUBPROPERTY, Schema, format_schema
from rdftuner.workload import WorkloadSpec, generate_workload, make_synthetic_schema, make_synthetic_store

_SYMBOL = re.compile(r"^([a-z]+)(\d+)$")


def renaming(symbols, rng: random.Random) -> dict[str, str]:
    """A permutation of generated symbols (r17, c3, p10, ...) that keeps
    each symbol's prefix and digit count, so byte sizes are unchanged."""
    groups: dict[tuple[str, int], list[str]] = {}
    for sym in sorted(symbols):
        m = _SYMBOL.match(sym)
        if m:
            groups.setdefault((m.group(1), len(m.group(2))), []).append(sym)
    out: dict[str, str] = {}
    for key in sorted(groups):
        names = groups[key]
        shuffled = names[:]
        rng.shuffle(shuffled)
        out.update(zip(names, shuffled))
    return out


def _rename_term(t, names: dict[str, str]):
    return Const(names.get(t.symbol, t.symbol)) if isinstance(t, Const) else t


def rename_query(q: ConjunctiveQuery, names: dict[str, str]) -> ConjunctiveQuery:
    body = tuple(TripleAtom(*(_rename_term(t, names) for t in a.terms)) for a in q.body)
    return ConjunctiveQuery(q.name, q.head, body)


@dataclass
class TuneInstance:
    """The text files handed to the program, plus their sizes."""

    triples: str
    queries: dict[str, str]
    schema: str | None
    sizes: dict


def tune_instance(n_triples: int, specs: dict[str, WorkloadSpec], shape_seed: int, seed: int,
                  schema_statements: int = 0) -> TuneInstance:
    """One store, one query file per spec and optionally a schema."""
    store = make_synthetic_store(n_triples, seed=shape_seed)
    rows = [store.symbols(t) for t in sorted(store.triples)]
    rng = random.Random(seed)
    names = renaming({sym for row in rows for sym in row}, rng)
    lines = [" ".join(names.get(sym, sym) for sym in row) for row in rows]
    rng.shuffle(lines)

    queries: dict[str, str] = {}
    n_queries = n_atoms = 0
    for key, spec in specs.items():
        workload = [rename_query(q, names) for q in generate_workload(spec, store)]
        queries[key] = "\n".join(format_query(q) for q in workload) + "\n"
        n_queries += len(workload)
        n_atoms += sum(len(q.body) for q in workload)

    schema_text = None
    n_schema = 0
    if schema_statements:
        schema = make_synthetic_schema(schema_statements, seed=shape_seed)
        renamed = Schema(frozenset((k, names.get(a, a), names.get(b, b))
                                   for k, a, b in schema.statements))
        schema_text = format_schema(renamed)
        n_schema = len(renamed.statements)

    return TuneInstance(
        triples="\n".join(lines) + "\n",
        queries=queries,
        schema=schema_text,
        sizes={"triples": len(lines), "queries": n_queries, "atoms": n_atoms,
               "schema_statements": n_schema},
    )


def reformulation_requests(n: int, shape_seed: int, seed: int) -> list[dict]:
    """Random schema, store and query per request, in the style of the
    acceptance suite's reformulation oracle: variables may stand in any
    position, the property included.  A few requests whose unions run to
    hundreds of members take most of the time, so the requests come from
    the shape seed and the run seed only renames them.  Queries travel as
    JSON because their bodies may be disconnected, which query text would
    split."""
    from rdftuner.cli import query_to_json

    rng = random.Random(shape_seed)
    classes = [f"c{i}" for i in range(5)]
    properties = [f"p{i}" for i in range(5)]
    variables = [Var(f"X{i}") for i in range(4)]
    out = []
    for _ in range(n):
        statements: set[tuple[str, str, str]] = set()
        target = rng.randint(2, 10)
        for _guard in range(200):
            if len(statements) >= target:
                break
            kind = rng.choice((SUBCLASS, SUBPROPERTY, DOMAIN, RANGE))
            if kind == SUBCLASS:
                statements.add((kind, *rng.sample(classes, 2)))
            elif kind == SUBPROPERTY:
                statements.add((kind, *rng.sample(properties, 2)))
            else:
                statements.add((kind, rng.choice(properties), rng.choice(classes)))
        schema = Schema(frozenset(statements))
        s_classes = sorted(schema.classes) or ["c0"]
        s_props = sorted(schema.properties) or ["p0"]

        resources = [f"r{i}" for i in range(rng.randint(3, 15))]
        triples = set()
        for _t in range(rng.randint(1, 200)):
            if rng.random() < 0.3:
                triples.add((rng.choice(resources), "rdf:type", rng.choice(s_classes)))
            else:
                triples.add((rng.choice(resources), rng.choice(s_props), rng.choice(resources)))

        def node():
            if rng.random() < 0.6:
                return rng.choice(variables)
            return Const(rng.choice([f"r{i}" for i in range(5)] + s_classes))

        def prop():
            roll = rng.random()
            if roll < 0.35:
                return rng.choice(variables)
            if roll < 0.55:
                return Const("rdf:type")
            return Const(rng.choice(s_props))

        atoms = tuple(TripleAtom(node(), prop(), node()) for _a in range(rng.randint(1, 3)))
        body_vars = list(dict.fromkeys(v for a in atoms for v in a.variables()))
        head = tuple(rng.sample(body_vars, rng.randint(1, len(body_vars)))) if body_vars else ()
        out.append((schema, ConjunctiveQuery("q", head, atoms), triples))

    symbols = [f"r{i}" for i in range(15)] + classes + properties
    names = renaming(symbols, random.Random(seed))
    return [
        {
            "schema": sorted(" ".join(names.get(x, x) for x in (a, k, b))
                             for k, a, b in schema.statements),
            "query": query_to_json(rename_query(q, names)),
            "triples": sorted(tuple(names.get(x, x) for x in t) for t in triples),
        }
        for schema, q, triples in out
    ]
