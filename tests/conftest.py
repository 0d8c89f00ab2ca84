import random

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from rdftuner.queries import ConjunctiveQuery, Const, TripleAtom, Var
from rdftuner.reasoning import (
    DOMAIN,
    RANGE,
    SUBCLASS,
    SUBPROPERTY,
    Schema,
    parse_schema,
)
from rdftuner.store import StoreError, TripleStore, load_triples, tokenize_line

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


# a small museum world: two painter families, locations, one typed work
PAINTER_TRIPLES = """
vanGogh hasPainted starryNight
vanGogh isParentOf vincentW
vincentW hasPainted pieta
rembrandt hasPainted nightWatch
rembrandt isParentOf titus
titus hasPainted selfPortrait
gauguin hasPainted fatata
starryNight isExpIn moma
nightWatch isLocatIn rijks
starryNight rdf:type painting
fatata rdf:type picture
"""

GALLERY_SCHEMA = """
painting rdfs:subClassOf picture
isExpIn rdfs:subPropertyOf isLocatIn
"""


@pytest.fixture
def painter_store() -> TripleStore:
    return load_triples(PAINTER_TRIPLES)


@pytest.fixture
def gallery_schema() -> Schema:
    return parse_schema(GALLERY_SCHEMA)


def painter_query() -> ConjunctiveQuery:
    """Grandparent-grandchild painting pairs; the worked example everywhere."""
    x, y, z = Var("X"), Var("Y"), Var("Z")
    return ConjunctiveQuery(
        "q1",
        (x, z),
        (
            TripleAtom(x, Const("hasPainted"), Const("starryNight")),
            TripleAtom(x, Const("isParentOf"), y),
            TripleAtom(y, Const("hasPainted"), z),
        ),
    )


# ---------------------------------------------------------------------------
# randomized instances: a store, a schema, and a query, all small


def random_schema(rng: random.Random, max_statements: int = 10) -> Schema:
    classes = [f"c{i}" for i in range(5)]
    properties = [f"p{i}" for i in range(5)]
    n = rng.randint(2, max_statements)
    statements: set[tuple[str, str, str]] = set()
    guard = 0
    while len(statements) < n and guard < 200:
        guard += 1
        kind = rng.choice((SUBCLASS, SUBPROPERTY, DOMAIN, RANGE))
        if kind == SUBCLASS:
            a, b = rng.sample(classes, 2)
            statements.add((kind, a, b))
        elif kind == SUBPROPERTY:
            a, b = rng.sample(properties, 2)
            statements.add((kind, a, b))
        else:
            statements.add((kind, rng.choice(properties), rng.choice(classes)))
    return Schema(frozenset(statements))


def random_store(rng: random.Random, schema: Schema, max_triples: int = 200) -> TripleStore:
    resources = [f"r{i}" for i in range(rng.randint(3, 15))]
    classes = sorted(schema.classes) or ["c0"]
    properties = sorted(schema.properties) or ["p0"]
    store = TripleStore()
    for _ in range(rng.randint(1, max_triples)):
        if rng.random() < 0.3:
            store.add(rng.choice(resources), "rdf:type", rng.choice(classes))
        else:
            store.add(
                rng.choice(resources), rng.choice(properties), rng.choice(resources)
            )
    return store


def random_query(rng: random.Random, schema: Schema, max_atoms: int = 3) -> ConjunctiveQuery:
    """Triple patterns with variables allowed in any position, including the
    property; constants drawn from the schema vocabulary and rdf:type."""
    variables = [Var(f"X{i}") for i in range(4)]
    classes = sorted(schema.classes) or ["c0"]
    properties = sorted(schema.properties) or ["p0"]
    resources = [f"r{i}" for i in range(5)]

    def subject_or_object():
        if rng.random() < 0.6:
            return rng.choice(variables)
        return Const(rng.choice(resources + classes))

    def prop():
        roll = rng.random()
        if roll < 0.35:
            return rng.choice(variables)
        if roll < 0.55:
            return Const("rdf:type")
        return Const(rng.choice(properties))

    atoms = tuple(
        TripleAtom(subject_or_object(), prop(), subject_or_object())
        for _ in range(rng.randint(1, max_atoms))
    )
    body_vars: list[Var] = []
    for a in atoms:
        for v in a.variables():
            if v not in body_vars:
                body_vars.append(v)
    if body_vars:
        k = rng.randint(1, len(body_vars))
        head = tuple(rng.sample(body_vars, k))
    else:
        head = ()
    return ConjunctiveQuery("q", head, atoms)


# characters that make the tokenizer's cases meet, unicode whitespace included
_TOKEN_CHARS = 'ab<>"# \t\u00a0\u2003\u3000\x1c\u00e9'
# and those that query text gives a meaning of its own
QUERY_CHARS = _TOKEN_CHARS + ".,():-?A"


@st.composite
def loader_symbols(draw, chars: str = _TOKEN_CHARS):
    """A symbol that loading some text drawn from `chars` can produce:
    `load_triples` cuts the text at every line boundary `str.splitlines`
    knows before reading tokens, so no symbol holds one."""
    piece = st.text(alphabet=chars, max_size=8)
    pieces = st.one_of(piece, piece.map(lambda t: f"<{t}>"),
                       piece.map(lambda t: '"' + t.replace('"', "") + '"'))
    text = "".join(draw(st.lists(pieces, min_size=1, max_size=3)))
    try:
        toks = [tok for line in text.splitlines() for tok in tokenize_line(line, "drawn")]
    except StoreError:
        toks = []
    return draw(st.sampled_from(toks or ["a"]))


@st.composite
def symmetric_bodies(draw, max_atoms: int = 12) -> ConjunctiveQuery:
    """Queries of up to `max_atoms` atoms over at most two properties, built
    from directed cycles, stars and all-variable atoms: shapes whose atoms
    colour refinement cannot tell apart, so canonical forms and isomorphism
    searches must branch."""
    props = [Const("p"), Const("q")][: draw(st.integers(1, 2))]
    n = draw(st.integers(1, max_atoms))
    body: list[TripleAtom] = []
    used: list[Var] = []

    def fresh() -> Var:
        used.append(Var(f"V{len(used)}"))
        return used[-1]

    def old_or_fresh() -> Var:
        if used and draw(st.booleans()):
            return draw(st.sampled_from(used))
        return fresh()

    while len(body) < n:
        room = n - len(body)
        kind = draw(st.sampled_from(("cycle", "star", "free")))
        if kind == "free":
            body.append(TripleAtom(old_or_fresh(), old_or_fresh(), old_or_fresh()))
            continue
        size = draw(st.integers(1, room))
        p = draw(st.sampled_from(props))
        if kind == "cycle":
            ring = [fresh() for _ in range(size)]
            body += [TripleAtom(ring[i], p, ring[(i + 1) % size]) for i in range(size)]
        else:
            hub, outward = old_or_fresh(), draw(st.booleans())
            for _ in range(size):
                leaf = fresh()
                body.append(TripleAtom(hub, p, leaf) if outward else TripleAtom(leaf, p, hub))
    body_vars = list(dict.fromkeys(v for a in body for v in a.variables()))
    head = tuple(draw(st.lists(st.sampled_from(body_vars), unique=True, max_size=3)))
    return ConjunctiveQuery("q", head, tuple(draw(st.permutations(body))))
