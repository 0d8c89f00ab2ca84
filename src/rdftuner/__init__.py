"""Materialized view selection for RDF triple pattern workloads.

Given a triple store, an optional schema, and a workload of conjunctive
triple pattern queries, the tuner searches the space of candidate view
sets reachable through cost guided state transitions and reports the
cheapest set found together with a complete rewriting of every workload
query over those views.  Implicit, schema entailed triples are honored
through saturation or through query reformulation, before or after the
search.

Importing the package loads none of its modules.  Each name in `__all__`
is imported from the submodule that defines it on first use, so a program
that answers queries from a tune document never loads the search stack
(`search`, `cost`, `states`, `stats` and `workload`).
"""

import importlib

__version__ = "0.1.0"

# the submodule that defines each public name
_EXPORTS = {
    "cost": ("CostWeights", "Estimator"),
    "queries": (
        "ConjunctiveQuery",
        "Const",
        "QueryError",
        "SchemaError",
        "TripleAtom",
        "UnionQuery",
        "Var",
        "format_query",
        "parse_queries",
    ),
    "reasoning": (
        "Schema",
        "format_schema",
        "parse_schema",
        "reformulate",
        "saturate",
    ),
    "search": ("SearchConfig", "SearchResult", "run_search"),
    "states": ("State", "TransitionContext", "initial_state"),
    "stats": ("WorkloadStatistics", "collect_statistics"),
    "store": (
        "StoreError",
        "TripleStore",
        "dump_triples",
        "evaluate",
        "load_triples",
        "materialize",
    ),
    "workload": ("WorkloadSpec", "generate_workload", "make_synthetic_store"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_SOURCE), "__version__"]


def __getattr__(name: str):
    # not cached in the package, so the name always reads the submodule's
    # current binding, as `from .submodule import name` inside a function does
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_SOURCE})
