"""Synthetic stores, schemas, and satisfiable-by-construction workloads."""

import pytest

from rdftuner.queries import (
    ConjunctiveQuery,
    Const,
    QueryError,
    RDF_TYPE,
    Var,
    check_workload_query,
    format_query,
)
from rdftuner.store import StoreError, evaluate
from rdftuner.workload import (
    COMMONALITY,
    SHAPES,
    WorkloadSpec,
    generate_workload,
    make_synthetic_schema,
    make_synthetic_store,
)


@pytest.fixture(scope="module")
def store():
    return make_synthetic_store(200, seed=1)


def properties_of(q: ConjunctiveQuery) -> tuple[str, ...]:
    return tuple(sorted(a.p.symbol for a in q.body))


# ---------------------------------------------------------------------------
# synthetic data


def test_store_size_and_composition(store):
    assert len(store) == 200
    typing = [t for t in store.triples
              if store.symbols(t)[1] == RDF_TYPE.symbol]
    assert len(typing) == 50  # a quarter of the store types resources
    for t in store.triples:
        s, p, o = store.symbols(t)
        if p != RDF_TYPE.symbol:
            assert s != o


def test_store_deterministic():
    a = make_synthetic_store(120, seed=7)
    b = make_synthetic_store(120, seed=7)
    assert {a.symbols(t) for t in a.triples} == {b.symbols(t) for t in b.triples}
    c = make_synthetic_store(120, seed=8)
    assert {a.symbols(t) for t in a.triples} != {c.symbols(t) for t in c.triples}


def test_schema_generation():
    schema = make_synthetic_schema(10, seed=3)
    assert len(schema.statements) == 10
    for kind, lhs, rhs in schema.statements:
        assert lhs != rhs
    again = make_synthetic_schema(10, seed=3)
    assert again.statements == schema.statements


# ---------------------------------------------------------------------------
# workload specs


def test_spec_validation():
    with pytest.raises(QueryError):
        WorkloadSpec(shape="clique")
    with pytest.raises(QueryError):
        WorkloadSpec(commonality="extreme")
    with pytest.raises(QueryError):
        WorkloadSpec(n_queries=0)
    with pytest.raises(QueryError):
        WorkloadSpec(atoms_per_query=0)
    with pytest.raises(QueryError):
        WorkloadSpec(n_constants=-2)
    assert WorkloadSpec().shape in SHAPES
    assert WorkloadSpec().commonality in COMMONALITY


def test_spec_takes_its_fields_by_position():
    """The benchmark builds specs positionally, in this order."""
    spec = WorkloadSpec(5, 4, "star", "high", 0, 5)
    assert (spec.n_queries, spec.atoms_per_query, spec.shape, spec.commonality,
            spec.n_constants, spec.seed) == (5, 4, "star", "high", 0, 5)
    default = WorkloadSpec()
    assert (default.n_queries, default.atoms_per_query, default.shape, default.commonality,
            default.n_constants, default.seed) == (5, 3, "star", "medium", 1, 0)


# ---------------------------------------------------------------------------
# generated queries


@pytest.mark.parametrize("shape", SHAPES)
def test_queries_valid_and_satisfiable(store, shape):
    spec = WorkloadSpec(n_queries=4, atoms_per_query=3, shape=shape, seed=11)
    queries = generate_workload(spec, store)
    assert [q.name for q in queries] == ["q1", "q2", "q3", "q4"]
    for q in queries:
        check_workload_query(q)
        assert len(q.body) == 3
        assert q.head and all(isinstance(t, Var) for t in q.head)
        # the sampled embedding remains a witness after generalization
        assert evaluate(q, store)


def test_star_shares_its_center(store):
    spec = WorkloadSpec(n_queries=3, atoms_per_query=3, shape="star", seed=5)
    for q in generate_workload(spec, store):
        centers = {a.s for a in q.body}
        assert len(centers) == 1
        assert isinstance(next(iter(centers)), Var)


def test_chain_links_consecutive_atoms(store):
    spec = WorkloadSpec(n_queries=3, atoms_per_query=4, shape="chain", seed=5)
    for q in generate_workload(spec, store):
        for left, right in zip(q.body, q.body[1:]):
            assert left.o == right.s
            assert isinstance(left.o, Var)


def test_cycle_returns_home(store):
    spec = WorkloadSpec(n_queries=2, atoms_per_query=3, shape="cycle", seed=2)
    for q in generate_workload(spec, store):
        for left, right in zip(q.body, q.body[1:]):
            assert left.o == right.s
        assert q.body[-1].o == q.body[0].s


def test_constant_budget(store):
    for n_constants in (0, 1, 2):
        spec = WorkloadSpec(
            n_queries=4, atoms_per_query=3, shape="star",
            n_constants=n_constants, seed=9,
        )
        for q in generate_workload(spec, store):
            pinned = sum(
                1 for a in q.body for t in (a.s, a.o) if isinstance(t, Const)
            )
            assert pinned <= n_constants


def test_high_commonality_reuses_patterns(store):
    spec = WorkloadSpec(
        n_queries=6, atoms_per_query=3, shape="star", commonality="high", seed=4
    )
    queries = generate_workload(spec, store)
    assert len({properties_of(q) for q in queries}) <= 2


def test_workload_deterministic(store):
    spec = WorkloadSpec(n_queries=4, atoms_per_query=3, shape="mixed", seed=13)
    a = [format_query(q) for q in generate_workload(spec, store)]
    b = [format_query(q) for q in generate_workload(spec, store)]
    assert a == b
    other = WorkloadSpec(n_queries=4, atoms_per_query=3, shape="mixed", seed=14)
    c = [format_query(q) for q in generate_workload(other, store)]
    assert a != c


def test_impossible_shapes_report_store_errors():
    from rdftuner.store import TripleStore

    tiny = TripleStore()
    tiny.add("a", "p", "b")
    tiny.add("b", "p", "c")
    with pytest.raises(StoreError):
        generate_workload(WorkloadSpec(n_queries=1, atoms_per_query=3, shape="star"), tiny)
    with pytest.raises(StoreError):
        generate_workload(WorkloadSpec(n_queries=1, atoms_per_query=2, shape="cycle"), tiny)
    empty = TripleStore()
    empty.add("a", RDF_TYPE.symbol, "c")
    with pytest.raises(StoreError):
        generate_workload(WorkloadSpec(n_queries=1, atoms_per_query=1, shape="chain"), empty)
