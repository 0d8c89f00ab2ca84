"""Synthetic stores and workload generators for experiments and benchmarks.

Queries are generated satisfiable by construction: a concrete embedding
(a star around one subject, or a walk along property triples) is sampled
from the store first, then generalized by replacing resources with
variables, keeping a configurable number of constants.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from .choices import COMMONALITY, SHAPES
from .queries import ConjunctiveQuery, Const, QueryError, RDF_TYPE, TripleAtom, Var, minimize
from .store import StoreError, TripleStore

if TYPE_CHECKING:
    from .reasoning import Schema

# the classes and properties of the synthetic stores and schemas
N_CLASSES = 8
N_PROPERTIES = 12


class WorkloadSpec:
    def __init__(
        self,
        n_queries: int = 5,
        atoms_per_query: int = 3,
        shape: str = "star",
        commonality: str = "medium",
        n_constants: int = 1,
        seed: int = 0,
    ) -> None:
        if shape not in SHAPES:
            raise QueryError(f"unknown shape {shape!r}")
        if commonality not in COMMONALITY:
            raise QueryError(f"unknown commonality {commonality!r}")
        if n_queries < 1 or atoms_per_query < 1:
            raise QueryError("workload needs at least one query and one atom")
        if n_constants < 0:
            raise QueryError("the number of constants must not be negative")
        self.n_queries = n_queries
        self.atoms_per_query = atoms_per_query
        self.shape = shape
        self.commonality = commonality
        self.n_constants = n_constants
        self.seed = seed


def make_synthetic_store(n_triples: int, seed: int = 0) -> TripleStore:
    """A skewed synthetic graph: a hub-heavy property layer plus typings."""
    rng = random.Random(seed)
    n_resources = max(6, n_triples // 4)
    resources = [f"r{i}" for i in range(n_resources)]
    classes = [f"c{i}" for i in range(N_CLASSES)]
    properties = [f"p{i}" for i in range(N_PROPERTIES)]
    p_weights = [1.0 / (i + 1) for i in range(N_PROPERTIES)]
    c_weights = [1.0 / (i + 1) for i in range(N_CLASSES)]
    hubs = resources[: max(1, n_resources // 10)]

    store = TripleStore()
    seen: set[tuple[str, str, str]] = set()
    target_typing = n_triples // 4

    def add(s: str, p: str, o: str) -> None:
        if (s, p, o) not in seen:
            seen.add((s, p, o))
            store.add(s, p, o)

    guard = 0
    while len(store) < target_typing and guard < 50 * n_triples:
        guard += 1
        add(rng.choice(resources), RDF_TYPE.symbol, rng.choices(classes, c_weights)[0])
    while len(store) < n_triples and guard < 100 * n_triples:
        guard += 1
        s = rng.choice(hubs) if rng.random() < 0.5 else rng.choice(resources)
        o = rng.choice(hubs) if rng.random() < 0.2 else rng.choice(resources)
        if s == o:
            continue
        add(s, rng.choices(properties, p_weights)[0], o)
    return store


def make_synthetic_schema(n_statements: int = 10, seed: int = 0) -> Schema:
    """Subclass and subproperty chains plus a few domain/range statements
    over the vocabulary of make_synthetic_store."""
    from .reasoning import DOMAIN, RANGE, SUBCLASS, SUBPROPERTY, Schema

    rng = random.Random(seed)
    classes = [f"c{i}" for i in range(N_CLASSES)]
    properties = [f"p{i}" for i in range(N_PROPERTIES)]
    statements: set[tuple[str, str, str]] = set()
    kinds = [SUBCLASS, SUBCLASS, SUBPROPERTY, SUBPROPERTY, DOMAIN, RANGE]
    guard = 0
    while len(statements) < n_statements and guard < 100 * n_statements:
        guard += 1
        kind = rng.choice(kinds)
        if kind == SUBCLASS:
            a, b = rng.sample(classes, 2)
            statements.add((SUBCLASS, a, b))
        elif kind == SUBPROPERTY:
            a, b = rng.sample(properties, 2)
            statements.add((SUBPROPERTY, a, b))
        else:
            statements.add((kind, rng.choice(properties), rng.choice(classes)))
    return Schema(frozenset(statements))


# ---------------------------------------------------------------------------
# satisfiable query generation


def _property_triples(store: TripleStore) -> tuple[list, dict[int, list], dict[int, list]]:
    """Non-typing, non-loop triples in a deterministic order, and the same
    triples by subject and by either end."""
    type_code = store.dictionary.code(RDF_TYPE.symbol)
    triples = sorted(t for t in store.triples if t[1] != type_code and t[0] != t[2])
    if not triples:
        raise StoreError("store has no property triples")
    by_subject: dict[int, list] = {}
    by_node: dict[int, list] = {}
    for t in triples:
        by_subject.setdefault(t[0], []).append(t)
        by_node.setdefault(t[0], []).append(t)
        by_node.setdefault(t[2], []).append(t)
    return triples, by_subject, by_node


def _sample_star(triples: list, by_subject: dict, rng: random.Random, m: int):
    """m distinct property triples sharing one subject, no self loops."""
    for _ in range(400):
        out = by_subject[rng.choice(triples)[0]]
        if len(out) >= m:
            return rng.sample(out, m)
    raise StoreError(f"no subject with {m} outgoing property triples found")


def _sample_walk(triples: list, by_subject: dict, rng: random.Random, m: int, closed: bool):
    """A walk along m distinct property triples; closed walks return home."""
    for _ in range(800):
        walk = [rng.choice(triples)]
        ok = True
        for _ in range(m - 1):
            nxt = [t for t in by_subject.get(walk[-1][2], ()) if t not in walk]
            if not nxt:
                ok = False
                break
            walk.append(rng.choice(nxt))
        if not ok:
            continue
        if closed and walk[-1][2] != walk[0][0]:
            continue
        return walk
    raise StoreError(f"no {'closed ' if closed else ''}walk of length {m} found")


def _sample_sparse(triples: list, by_node: dict, rng: random.Random, m: int, dense: bool):
    """A connected set of m property triples grown edge by edge; dense sets
    keep growing inside the already touched resources when possible."""
    for _ in range(400):
        first = rng.choice(triples)
        chosen = [first]
        nodes = {first[0], first[2]}
        ok = True
        for _ in range(m - 1):
            internal = [
                t
                for n in nodes
                for t in by_node.get(n, ())
                if t not in chosen and t[0] in nodes and t[2] in nodes
            ]
            frontier = [
                t for n in nodes for t in by_node.get(n, ()) if t not in chosen
            ]
            pool = internal if (dense and internal) else frontier
            if not pool:
                ok = False
                break
            t = rng.choice(pool)
            chosen.append(t)
            nodes.update((t[0], t[2]))
        if ok:
            return chosen
    raise StoreError(f"no connected {m}-triple pattern found")


def _generalize(
    store: TripleStore,
    triples: list,
    rng: random.Random,
    n_constants: int,
    name: str,
) -> ConjunctiveQuery:
    """Replace resources by variables, keep property constants, then pin
    n_constants subject/object positions back to their concrete values."""
    var_of: dict[int, Var] = {}

    def v(code: int) -> Var:
        if code not in var_of:
            var_of[code] = Var(f"X{len(var_of)}")
        return var_of[code]

    atoms = []
    for t in triples:
        s, p, o = t
        atoms.append(
            TripleAtom(v(s), Const(store.dictionary.symbol(p)), v(o))
        )

    # candidate positions to re-instantiate: one per atom at most, and only
    # where the variable occurs in a single atom (keeps the body connected)
    occurrences: dict[Var, int] = {}
    for a in atoms:
        for x in set(a.variables()):
            occurrences[x] = occurrences.get(x, 0) + 1
    candidates = []
    for i, t in enumerate(triples):
        for pos, code in ((0, t[0]), (2, t[2])):
            x = var_of[code]
            if occurrences[x] == 1:
                candidates.append((i, pos, code))
    rng.shuffle(candidates)
    pinned: set[int] = set()
    bound = 0
    for i, pos, code in candidates:
        if bound >= n_constants or i in pinned:
            continue
        atoms[i] = atoms[i].replace(pos, Const(store.dictionary.symbol(code)))
        pinned.add(i)
        bound += 1

    # head: first atom's subject and last atom's object, whatever survived
    # the pinning; covers the hub of a star and both ends of a chain
    head_vars: list[Var] = []
    for term in (atoms[0].terms[0], atoms[-1].terms[2]):
        if isinstance(term, Var) and term not in head_vars:
            head_vars.append(term)
    if not head_vars:
        remaining = [x for a in atoms for x in a.variables()]
        head_vars = [remaining[0]]
    q = ConjunctiveQuery(name, tuple(head_vars), tuple(atoms))
    if len(minimize(q).body) < len(q.body):
        q = ConjunctiveQuery(name, tuple(dict.fromkeys(q.variables())), tuple(atoms))
    return q


def generate_workload(spec: WorkloadSpec, store: TripleStore) -> list[ConjunctiveQuery]:
    """Sample n_queries satisfiable queries of the requested shape.

    Commonality controls how much structure queries share: high draws every
    query's shape from a pool of two sampled patterns, medium from a pool the
    size of the workload, low samples fresh patterns every time.
    """
    if spec.shape == "cycle" and spec.atoms_per_query < 2:
        raise QueryError("cycle shape needs at least two atoms")
    triples, by_subject, by_node = _property_triples(store)
    rng = random.Random(spec.seed)
    pool_size = {"high": 2, "medium": max(2, spec.n_queries), "low": 0}[spec.commonality]
    m = spec.atoms_per_query

    def sample(shape: str):
        if shape == "star":
            return _sample_star(triples, by_subject, rng, m)
        if shape in ("chain", "cycle"):
            return _sample_walk(triples, by_subject, rng, m, closed=shape == "cycle")
        if shape in ("random_sparse", "random_dense"):
            return _sample_sparse(triples, by_node, rng, m, dense=shape == "random_dense")
        return sample(rng.choice(("star", "chain", "random_sparse")))

    pool: list = []
    if pool_size:
        for _ in range(pool_size):
            pool.append(sample(spec.shape))

    queries = []
    for qi in range(spec.n_queries):
        embedding = rng.choice(pool) if pool else sample(spec.shape)
        queries.append(
            _generalize(store, embedding, rng, spec.n_constants, f"q{qi + 1}")
        )
    return queries
