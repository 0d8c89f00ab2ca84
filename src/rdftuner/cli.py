"""Command line front end.

Subcommands cover the whole pipeline: workload generation, schema-aware
reformulation, saturation, statistics collection, view selection (tune),
view materialization, and answering workload queries from a tune document.

Exit codes: 0 on success, 2 on invalid input (files, flags, queries,
schema), 3 on unexpected runtime failure.

Each command loads only the layers it runs.  Only `tune`, `stats` and
`gen-workload` load the search stack (`search`, `cost`, `states`, `stats`,
`workload`), inside the functions that run it; `answer`, `materialize`,
`saturate` and `reformulate` load the queries, the store and the algebra.
`reasoning` is loaded only where a schema is in play (reading, writing,
saturating or reformulating with one): `gen-workload`, and a `tune`,
`answer` or `materialize` in plain mode without a schema, never load it.
No command imports `dataclasses`: the value classes of every layer are
written out on `queries._Record` or as plain classes, and the tune
document reads a record's fields through `_fields`.  `traceback` is
imported where it is used, and `main` builds the parser of the chosen
subcommand alone (`parse_arguments`).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Collection
from pathlib import Path
from typing import TYPE_CHECKING

from .algebra import (
    Expr,
    _term_back,
    _term_json,
    eval_expr,
    expr_from_json,
    expr_to_json,
    format_expr,
    scan_views,
)
from .choices import COMMONALITY, MODES, SHAPES, STRATEGIES
from .queries import (
    ConjunctiveQuery,
    Const,
    QueryError,
    SchemaError,
    TripleAtom,
    UnionQuery,
    format_query,
    key_cache_info,
    parse_queries,
    without_contained_members,
)
from .store import Relation, StoreError, TripleStore, dump_triples, load_triples, materialize

if TYPE_CHECKING:
    from .cost import CostWeights
    from .reasoning import Schema
    from .search import SearchConfig, SearchResult

DOCUMENT_FORMAT = "rdftuner/1"


class InputError(ValueError):
    pass


# ---------------------------------------------------------------------------
# file loading


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def load_store_file(path: str, properties: Collection[str] | None = None) -> TripleStore:
    """The store of the triple file at `path`; given `properties`, of its
    triples whose property is one of these symbols (`load_triples`)."""
    return load_triples(_read_text(path), properties)


def load_schema_file(path: str) -> Schema:
    from .reasoning import parse_schema

    return parse_schema(_read_text(path))


def load_workload_file(path: str) -> list[ConjunctiveQuery]:
    queries = parse_queries(_read_text(path))
    if not queries:
        raise QueryError(f"{path}: no queries found")
    return queries


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out).write_text(text if text.endswith("\n") else text + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# mode plumbing shared by tune/stats/materialize/answer

# the modes whose views answer over the saturated store: a saturated view is
# evaluated there, and a post-reformulated one is materialized as its
# reformulation over the raw store, which gives the same answers
SATURATED_MODES = ("saturate", "post")


def _tuning_setup(args: argparse.Namespace):
    """The workload, the schema, the transition context, the initial state
    and the statistics that `tune` and `stats` start from.

    A mode other than plain needs --schema, which is checked before any file
    is read.  In pre mode each query seeds the views of its reformulation;
    in the saturated modes the statistics count the saturated store.
    """
    from .states import TransitionContext, initial_state
    from .stats import collect_statistics

    if args.mode != "plain" and not args.schema:
        raise InputError(f"mode {args.mode!r} needs --schema")
    store = load_store_file(args.triples)
    schema = load_schema_file(args.schema) if args.schema else None
    queries = load_workload_file(args.queries)
    seeds: list[ConjunctiveQuery | UnionQuery] = list(queries)
    if args.mode == "pre":
        from .reasoning import reformulate

        seeds = [reformulate(q, schema) for q in queries]
    ctx = TransitionContext()
    initial = initial_state(seeds, ctx)
    if args.mode in SATURATED_MODES:
        from .reasoning import saturate

        store = saturate(store, schema)
    return queries, schema, ctx, initial, collect_statistics(list(initial.views), store)


def _properties_named(queries: list[ConjunctiveQuery | UnionQuery]) -> set[str] | None:
    """The property symbols the queries' atoms name; None when an atom's
    property is a variable."""
    properties = set()
    for q in queries:
        for m in q.members if isinstance(q, UnionQuery) else (q,):
            for a in m.body:
                if not isinstance(a.p, Const):
                    return None
                properties.add(a.p.symbol)
    return properties


def view_relations(
    views: list[ConjunctiveQuery] | tuple[ConjunctiveQuery, ...],
    triples: str,
    schema: Schema | None,
    mode: str,
) -> dict[str, Relation]:
    """Materialize the given views the way the chosen mode prescribes, over
    the triple file at `triples`.

    Plain and pre-reformulated views are evaluated over the raw store.  A
    post-reformulated or saturated view is evaluated as its reformulation
    over the raw store, which gives its answers over the saturated store,
    without the members another member contains
    (`without_contained_members`): their answers are among that member's.

    The queries to evaluate are fixed before the file is read, and only
    the triples of the properties their atoms name are loaded.  The whole
    file is loaded when an atom's property is a variable.
    """
    queries: list[ConjunctiveQuery | UnionQuery] = list(views)
    if mode in SATURATED_MODES:
        from .reasoning import reformulate_views_for_materialization

        unions = reformulate_views_for_materialization(list(views), schema)
        queries = [without_contained_members(u) for u in unions]
    store = load_store_file(triples, _properties_named(queries))
    return {q.name: materialize(q, store) for q in queries}


# ---------------------------------------------------------------------------
# tune documents


def query_to_json(q: ConjunctiveQuery) -> dict:
    return {
        "name": q.name,
        "head": [_term_json(t) for t in q.head],
        "body": [[_term_json(t) for t in a.terms] for a in q.body],
    }


def query_from_json(d: dict) -> ConjunctiveQuery:
    return ConjunctiveQuery(
        d["name"],
        tuple(_term_back(t) for t in d["head"]),
        tuple(TripleAtom(*(_term_back(t) for t in row)) for row in d["body"]),
    )


def _fields_json(record) -> dict:
    """A record's fields by name, in their order (`queries._Record`)."""
    return {f: getattr(record, f) for f in record._fields}


def result_document(
    queries: list[ConjunctiveQuery],
    result: SearchResult,
    mode: str,
    schema: Schema | None,
    config: SearchConfig,
    weights: CostWeights,
    caches: dict,
) -> dict:
    best = result.best
    schema_lines = None
    if schema is not None:
        from .reasoning import format_schema

        schema_lines = format_schema(schema).splitlines()
    return {
        "format": DOCUMENT_FORMAT,
        "mode": mode,
        "schema": schema_lines,
        "strategy": config.strategy,
        "avf": config.avf,
        "stop_tt": config.stop_tt,
        "stop_var": config.stop_var,
        "timeout": config.timeout,
        "max_states": config.max_states,
        "weights": _fields_json(weights),
        "queries": [query_to_json(q) for q in queries],
        "views": [query_to_json(v) for v in best.views],
        "rewritings": [
            {
                "query": r.query_name,
                "plan": format_expr(r.expr),
                "expr": expr_to_json(r.expr),
            }
            for r in best.rewritings
        ],
        "initial_cost": _fields_json(result.initial_cost),
        "best_cost": _fields_json(result.best_cost),
        "rcr": result.rcr,
        "elapsed_seconds": result.elapsed,
        "timed_out": result.timed_out,
        "search": {
            "created": result.created,
            "duplicates": result.duplicates,
            "discarded": result.discarded,
            "explored": result.explored,
            "transitions": result.transitions,
            "peak_frontier": result.peak_frontier,
        },
        "trace": [list(row) for row in result.trace],
        "caches": caches,
    }


def load_document(path: str) -> dict:
    doc = json.loads(_read_text(path))
    if not isinstance(doc, dict) or doc.get("format") != DOCUMENT_FORMAT:
        raise InputError(f"{path}: not a {DOCUMENT_FORMAT} tune document")
    mode = doc.get("mode")
    if mode not in MODES:
        raise InputError(f"{path}: unknown mode {mode!r} (expected one of {', '.join(MODES)})")
    if mode != "plain" and doc.get("schema") is None:
        raise InputError(f"{path}: mode {mode!r} needs a schema, and the document has none")
    # parse what answer and materialize read, so a malformed part is an
    # input error here and not a failure halfway through a command
    try:
        views = [v.name for v in document_views(doc)]
        queries = [r["query"] for r in doc["rewritings"]]
        document_plans(doc)
        document_schema(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed tune document: {type(exc).__name__}: {exc}") from exc
    # materialize writes each view to <out-dir>/<name>.tsv, and the views
    # and plans are looked up by name
    for name in views:
        if not isinstance(name, str) or name in ("", ".", "..") or any(c in name for c in "/\\\0"):
            raise InputError(f"{path}: view name {name!r} is not a file name")
    for what, names in (("view", views), ("rewriting of query", queries)):
        twice = [n for i, n in enumerate(names) if n in names[:i]]
        if twice:
            raise InputError(f"{path}: more than one {what} {twice[0]!r}")
    return doc


def document_views(doc: dict) -> list[ConjunctiveQuery]:
    return [query_from_json(v) for v in doc["views"]]


def document_plans(doc: dict) -> dict[str, Expr]:
    return {r["query"]: expr_from_json(r["expr"]) for r in doc["rewritings"]}


def document_schema(doc: dict) -> Schema | None:
    lines = doc.get("schema")
    if lines is None:
        return None
    from .reasoning import parse_schema

    return parse_schema("\n".join(lines))


def write_trace(path: str, result: SearchResult) -> None:
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["elapsed_seconds", "best_cost", "rcr"])
        for elapsed, best_cost, rcr in result.trace:
            w.writerow([f"{elapsed:.6f}", repr(best_cost), f"{rcr:.6f}"])


def _relation_tsv(rel: Relation) -> str:
    lines = ["\t".join(rel.column_names()), *map("\t".join, sorted(rel.rows))]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def cmd_tune(args: argparse.Namespace) -> int:
    from .cost import CostWeights, Estimator
    from .search import SearchConfig, check_config, run_search

    config = SearchConfig(
        strategy=args.strategy,
        avf=args.avf,
        stop_tt=args.stop_tt,
        stop_var=args.stop_var,
        timeout=args.timeout,
        max_states=args.max_states,
    )
    try:
        check_config(config)
        weights = CostWeights(cs=args.cs, cr=args.cr, cm=args.cm, c1=args.c1, c2=args.c2, f=args.f)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    queries, schema, ctx, initial, stats = _tuning_setup(args)
    estimator = Estimator(stats, weights)
    keys_before = key_cache_info()
    try:
        initial_cost = estimator.state_cost(initial).total
    except OverflowError:
        initial_cost = math.inf
    if not math.isfinite(initial_cost):
        named = " ".join(f"--{name} {getattr(weights, name):g}" for name in weights._fields)
        raise InputError(f"the cost of the initial state overflows under the cost "
                         f"weights {named}; use smaller weights")
    result = run_search(initial, estimator, ctx, config)
    keys_after = key_cache_info()

    caches = {
        "estimator": estimator.cache_counts(),
        "process": {
            name: {"hits": hits - keys_before[name][0], "misses": misses - keys_before[name][1]}
            for name, (hits, misses) in keys_after.items()
        },
    }
    doc = result_document(queries, result, args.mode, schema, config, weights, caches)
    text = json.dumps(doc, indent=2, allow_nan=False)
    if args.out:
        _write_out(text, args.out)
        _print_summary(result)
    else:
        _write_out(text, None)
    if args.trace:
        write_trace(args.trace, result)
    return 0


def _print_summary(result: SearchResult) -> None:
    best = result.best
    flag = " (timed out)" if result.timed_out else ""
    print(
        f"cost {result.initial_cost.total:.6g} -> {result.best_cost.total:.6g}"
        f"  rcr {result.rcr:.4f}{flag}"
    )
    print(
        f"states created={result.created} duplicates={result.duplicates}"
        f" explored={result.explored} transitions={result.transitions}"
        f" peak_frontier={result.peak_frontier}"
        f" elapsed={result.elapsed:.2f}s"
    )
    print("views:")
    for v in best.views:
        print(f"  {format_query(v)}")
    print("rewritings:")
    for r in best.rewritings:
        print(f"  {r.query_name}: {format_expr(r.expr)}")


def cmd_reformulate(args: argparse.Namespace) -> int:
    from .reasoning import reformulate

    schema = load_schema_file(args.schema)
    queries = load_workload_file(args.queries)
    pieces = []
    for q in queries:
        pieces.append(format_query(reformulate(q, schema)))
    _write_out("\n".join(pieces), args.out)
    return 0


def cmd_saturate(args: argparse.Namespace) -> int:
    from .reasoning import saturate

    store = load_store_file(args.triples)
    schema = load_schema_file(args.schema)
    sat = saturate(store, schema, include_schema_triples=args.include_schema_triples)
    _write_out(dump_triples(sat), args.out)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    stats = _tuning_setup(args)[-1]
    _write_out(stats.dumps(), args.out)
    return 0


def cmd_gen_workload(args: argparse.Namespace) -> int:
    from .workload import WorkloadSpec, generate_workload, make_synthetic_store

    if args.triples:
        store = load_store_file(args.triples)
    else:
        store = make_synthetic_store(args.store_size, seed=args.store_seed)
    spec = WorkloadSpec(
        n_queries=args.n_queries,
        atoms_per_query=args.atoms,
        shape=args.shape,
        commonality=args.commonality,
        n_constants=args.constants,
        seed=args.seed,
    )
    queries = generate_workload(spec, store)
    _write_out("\n".join(format_query(q) for q in queries), args.out)
    if args.triples_out:
        _write_out(dump_triples(store), args.triples_out)
    return 0


def cmd_materialize(args: argparse.Namespace) -> int:
    doc = load_document(args.plan)
    views = document_views(doc)
    relations = view_relations(views, args.triples, document_schema(doc), doc["mode"])
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for v in views:
        rel = relations[v.name]
        (out_dir / f"{v.name}.tsv").write_text(_relation_tsv(rel), encoding="utf-8")
        print(f"{v.name}: {len(rel.rows)} rows -> {out_dir / (v.name + '.tsv')}")
    return 0


def cmd_answer(args: argparse.Namespace) -> int:
    doc = load_document(args.plan)
    plans = document_plans(doc)
    if args.query not in plans:
        raise InputError(f"no rewriting for query {args.query!r} (have: {', '.join(plans)})")
    expr = plans[args.query]
    scanned = set(scan_views(expr))
    views = [v for v in document_views(doc) if v.name in scanned]
    relations = view_relations(views, args.triples, document_schema(doc), doc["mode"])
    rel = eval_expr(expr, relations)
    _write_out(_relation_tsv(rel), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_mode(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--mode",
        choices=MODES,
        default="plain",
        help="how implicit triples are handled (default: plain, explicit only)",
    )


def _tune_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--triples", required=True, help="triple file, one 's p o' per line")
    p.add_argument("--queries", required=True, help="workload query file")
    p.add_argument("--schema", help="schema statement file")
    _add_mode(p)
    p.add_argument("--strategy", choices=sorted(STRATEGIES), default="dfs")
    p.add_argument("--avf", action="store_true", help="aggressive view fusion")
    p.add_argument("--stop-tt", action="store_true",
                   help="stop expanding states containing a triple-table view")
    p.add_argument("--stop-var", action="store_true",
                   help="stop expanding states whose views hold no constants")
    p.add_argument("--timeout", type=float,
                   help="search budget in seconds, finite and at least 0")
    p.add_argument("--max-states", type=int,
                   help="keep at most this many frontier states (best first), at "
                        "least 1; exnaive and gstr only, rejected with exit 2 otherwise")
    p.add_argument("--cs", type=float, default=1.0, help="space cost weight")
    p.add_argument("--cr", type=float, default=1.0, help="rewriting cost weight")
    p.add_argument("--cm", type=float, default=0.5, help="maintenance cost weight")
    p.add_argument("--c1", type=float, default=1.0, help="io weight inside rewriting cost")
    p.add_argument("--c2", type=float, default=1.0, help="cpu weight inside rewriting cost")
    p.add_argument("--f", type=float, default=2.0, help="maintenance base per view atom")
    p.add_argument("--out", help="write the tune document here instead of stdout")
    p.add_argument("--trace", help="write an improvement trace CSV here")


def _reformulate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--queries", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--out")


def _saturate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--triples", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--include-schema-triples", action="store_true",
                   help="also emit the schema statements themselves as triples")
    p.add_argument("--out")


def _stats_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--triples", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--schema")
    _add_mode(p)
    p.add_argument("--out")


def _gen_workload_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--triples", help="sample against this store instead of a synthetic one")
    p.add_argument("--store-size", type=int, default=1000,
                   help="synthetic store size when --triples is absent")
    p.add_argument("--store-seed", type=int, default=0)
    p.add_argument("--n-queries", type=int, default=5)
    p.add_argument("--atoms", type=int, default=3, help="atoms per query")
    p.add_argument("--shape", choices=SHAPES, default="star")
    p.add_argument("--commonality", choices=COMMONALITY, default="medium")
    p.add_argument("--constants", type=int, default=1,
                   help="constants pinned per query beyond properties")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write queries here instead of stdout")
    p.add_argument("--triples-out", help="also write the store used for sampling")


def _materialize_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--plan", required=True, help="tune document (JSON)")
    p.add_argument("--triples", required=True)
    p.add_argument("--out-dir", default="views", help="directory for one TSV per view")


def _answer_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--plan", required=True, help="tune document (JSON)")
    p.add_argument("--triples", required=True)
    p.add_argument("--query", required=True, help="workload query name")
    p.add_argument("--out")


# each subcommand's help, the function that adds its arguments to a parser,
# and the name of the function that runs it.  `main` looks that name up in
# the module when it runs the subcommand, so a wrapper bound to the module
# attribute (a tracer's, a test's) sees the call.
COMMANDS = {
    "tune": ("search for a good view set and rewritings", _tune_arguments, "cmd_tune"),
    "reformulate": ("schema-aware union rewriting of queries", _reformulate_arguments,
                    "cmd_reformulate"),
    "saturate": ("add all schema-entailed triples", _saturate_arguments, "cmd_saturate"),
    "stats": ("collect workload statistics as JSON", _stats_arguments, "cmd_stats"),
    "gen-workload": ("generate a synthetic workload", _gen_workload_arguments,
                     "cmd_gen_workload"),
    "materialize": ("evaluate the views of a tune document", _materialize_arguments,
                    "cmd_materialize"),
    "answer": ("answer a workload query from materialized views", _answer_arguments,
               "cmd_answer"),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser of the whole command line, every subcommand included."""
    parser = argparse.ArgumentParser(
        prog="rdftuner",
        description="Materialized view selection for triple pattern workloads.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _) in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def parse_arguments(argv: list[str]) -> argparse.Namespace:
    """`build_parser().parse_args(argv)`, building only the parser of the
    subcommand argv starts with, which is all a valid command line needs.
    That parser is the one `build_parser` would make for it, so its help
    and its errors read the same.  When argv starts with no subcommand, or
    that parser leaves arguments unread, the full parser parses argv and
    prints its own usage error."""
    if argv and argv[0] in COMMANDS:
        name = argv[0]
        _, add_arguments, _ = COMMANDS[name]
        parser = argparse.ArgumentParser(prog=f"rdftuner {name}")
        add_arguments(parser)
        args, extras = parser.parse_known_args(argv[1:])
        if not extras:
            args.command = name
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_arguments(sys.argv[1:] if argv is None else argv)
    try:
        return globals()[COMMANDS[args.command][2]](args)
    except (QueryError, SchemaError, StoreError, InputError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        import traceback

        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
