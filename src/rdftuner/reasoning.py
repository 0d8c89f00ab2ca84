"""RDFS schema handling: saturation and query reformulation.

Both mechanisms make the implicit triples entailed by subclass, subproperty,
domain and range statements visible to query answering.  Saturation adds the
entailed triples to the store; reformulation rewrites a query into a union of
queries whose evaluation over the raw store returns exactly the answers the
query would have over the saturated store.  That equality is the load-bearing
contract here and is exercised heavily by the test suite.
"""

from __future__ import annotations

import itertools

from .queries import (
    Const,
    ConjunctiveQuery,
    RDF_TYPE,
    SchemaError,
    TripleAtom,
    UnionQuery,
    _Record,
    _set,
    canonical_key,
    fresh_var,
    make_union,
    minimize,
)
from .store import TripleStore, render_symbol, tokenize_line

SUBCLASS = "rdfs:subClassOf"
SUBPROPERTY = "rdfs:subPropertyOf"
DOMAIN = "rdfs:domain"
RANGE = "rdfs:range"

_KINDS = (SUBCLASS, SUBPROPERTY, DOMAIN, RANGE)


class Schema(_Record):
    """A set of (kind, lhs, rhs) statements over class and property names."""

    __slots__ = _fields = ("statements", "declared_classes", "declared_properties")
    statements: frozenset[tuple[str, str, str]]
    declared_classes: frozenset[str]
    declared_properties: frozenset[str]

    def __init__(
        self,
        statements: frozenset[tuple[str, str, str]],
        declared_classes: frozenset[str] = frozenset(),
        declared_properties: frozenset[str] = frozenset(),
    ) -> None:
        _set(self, "statements", statements)
        _set(self, "declared_classes", declared_classes)
        _set(self, "declared_properties", declared_properties)

    def __len__(self) -> int:
        return len(self.statements)

    def pairs(self, kind: str) -> list[tuple[str, str]]:
        return sorted((l, r) for k, l, r in self.statements if k == kind)

    @property
    def classes(self) -> set[str]:
        out = set(self.declared_classes)
        for k, l, r in self.statements:
            if k == SUBCLASS:
                out.add(l)
                out.add(r)
            elif k in (DOMAIN, RANGE):
                out.add(r)
        return out

    @property
    def properties(self) -> set[str]:
        out = set(self.declared_properties)
        for k, l, r in self.statements:
            if k == SUBPROPERTY:
                out.add(l)
                out.add(r)
            elif k in (DOMAIN, RANGE):
                out.add(l)
        return out


def parse_schema(text: str) -> Schema:
    """One statement per line: `lhs kind rhs` with kind one of subClassOf,
    subPropertyOf, domain, range (rdfs: prefixed).  Lines of the form
    `name rdf:type rdfs:Class` or `name rdf:type rdf:Property` declare extra
    names without adding statements."""
    statements: set[tuple[str, str, str]] = set()
    classes: set[str] = set()
    properties: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        where = f"line {lineno}"
        toks = tokenize_line(line, where)
        if not toks:
            continue
        if len(toks) != 3:
            raise SchemaError(f"{where}: expected 3 terms, got {len(toks)}")
        lhs, kind, rhs = toks
        if kind == RDF_TYPE.symbol:
            if rhs == "rdfs:Class":
                classes.add(lhs)
            elif rhs in ("rdf:Property", "rdfs:Property"):
                properties.add(lhs)
            else:
                raise SchemaError(f"{where}: unsupported declaration {rhs!r}")
        elif kind in _KINDS:
            if lhs == rhs:
                raise SchemaError(f"{where}: reflexive statement {lhs} {kind} {rhs}")
            statements.add((kind, lhs, rhs))
        else:
            raise SchemaError(f"{where}: unsupported schema property {kind!r}")
    return Schema(frozenset(statements), frozenset(classes), frozenset(properties))


def format_schema(schema: Schema) -> str:
    """Schema text that `parse_schema` reads back as `schema`."""
    r = render_symbol
    lines = sorted(f"{r(lhs)} {k} {r(rhs)}" for k, lhs, rhs in schema.statements)
    lines += sorted(f"{r(c)} rdf:type rdfs:Class" for c in schema.declared_classes)
    lines += sorted(f"{r(p)} rdf:type rdf:Property" for p in schema.declared_properties)
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# closures


def _transitive_closure(pairs: list[tuple[str, str]]) -> dict[str, set[str]]:
    """Map each lhs to every rhs reachable through one or more statements."""
    direct: dict[str, set[str]] = {}
    for l, r in pairs:
        direct.setdefault(l, set()).add(r)
    closure: dict[str, set[str]] = {}
    for x in direct:
        acc: set[str] = set()
        stack = [x]
        seen = {x}
        while stack:
            for nxt in direct.get(stack.pop(), ()):
                acc.add(nxt)
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        closure[x] = acc
    return closure


# ---------------------------------------------------------------------------
# saturation


def saturate(
    store: TripleStore, schema: Schema, include_schema_triples: bool = False
) -> TripleStore:
    """Close the store under the RDFS entailment rules.

    Rules applied, to fixpoint: subclass and subproperty transitivity feed
    instance typing ((x, rdf:type, c1) with c1 below c2 yields (x, rdf:type,
    c2)); subproperty statements propagate property triples; domain and range
    statements type the subject or object of every matching property triple.

    By default the output contains the instance-level closure only, which is
    what statistics collection and the reformulation equivalence need.  With
    include_schema_triples the schema statements themselves (plus inclusion
    transitivity) are added so queries over schema vocabulary can be answered
    from the result.
    """
    d = store.dictionary
    out = TripleStore(d)
    out.triples = set(store.triples)

    sub_c = _transitive_closure(schema.pairs(SUBCLASS))
    sub_p = _transitive_closure(schema.pairs(SUBPROPERTY))
    domains: dict[str, set[str]] = {}
    ranges: dict[str, set[str]] = {}
    for l, r in schema.pairs(DOMAIN):
        domains.setdefault(l, set()).add(r)
    for l, r in schema.pairs(RANGE):
        ranges.setdefault(l, set()).add(r)

    type_code = d.intern(RDF_TYPE.symbol)

    def supers_of_class(c: str) -> set[str]:
        return {c} | sub_c.get(c, set())

    def type_all(x: int, c: str) -> None:
        for c2 in supers_of_class(c):
            out.add_coded((x, type_code, d.intern(c2)))

    for s, p, o in store.triples:
        psym = d.symbol(p)
        if p == type_code:
            type_all(s, d.symbol(o))
            continue
        for p2 in {psym} | sub_p.get(psym, set()):
            out.add_coded((s, d.intern(p2), o))
            for c in domains.get(p2, ()):
                type_all(s, c)
            for c in ranges.get(p2, ()):
                type_all(o, c)

    if include_schema_triples:
        kind_codes = {k: d.intern(k) for k in _KINDS}
        for k, l, r in schema.statements:
            out.add_coded((d.intern(l), kind_codes[k], d.intern(r)))
        for l, rs in sub_c.items():
            for r in rs:
                out.add_coded((d.intern(l), kind_codes[SUBCLASS], d.intern(r)))
        for l, rs in sub_p.items():
            for r in rs:
                out.add_coded((d.intern(l), kind_codes[SUBPROPERTY], d.intern(r)))
    return out


# ---------------------------------------------------------------------------
# reformulation


def _rule_targets(schema: Schema) -> dict[str, list]:
    return {
        "sub_classes": schema.pairs(SUBCLASS),
        "sub_properties": schema.pairs(SUBPROPERTY),
        "domains": schema.pairs(DOMAIN),
        "ranges": schema.pairs(RANGE),
        "classes": sorted(schema.classes),
        "properties": sorted(schema.properties),
    }


def _expand_atom(q: ConjunctiveQuery, i: int, targets: dict[str, list]) -> list[ConjunctiveQuery]:
    """All single-rule rewritings of atom i of q.  The domain and range
    rules name their existential variable by `fresh_var`, E1, E2, ..."""
    a = q.body[i]
    out: list[ConjunctiveQuery] = []

    def replaced(new_atom: TripleAtom) -> ConjunctiveQuery:
        body = q.body[:i] + (new_atom,) + q.body[i + 1 :]
        return ConjunctiveQuery(q.name, q.head, body)

    if a.p == RDF_TYPE:
        if isinstance(a.o, Const):
            cls = a.o.symbol
            # specialize the class
            for c1, c2 in targets["sub_classes"]:
                if c2 == cls:
                    out.append(replaced(TripleAtom(a.s, RDF_TYPE, Const(c1))))
            # trade the typing for a property occurrence
            for p, c in targets["domains"]:
                if c == cls:
                    out.append(replaced(TripleAtom(a.s, Const(p), fresh_var("E", q))))
            for p, c in targets["ranges"]:
                if c == cls:
                    out.append(replaced(TripleAtom(fresh_var("E", q), Const(p), a.s)))
        else:
            # bind a class-position variable to every known class
            for c in targets["classes"]:
                bound = q.rename({a.o: Const(c)})
                out.append(bound)
    elif isinstance(a.p, Const):
        for p1, p2 in targets["sub_properties"]:
            if p2 == a.p.symbol:
                out.append(replaced(TripleAtom(a.s, Const(p1), a.o)))
    else:
        # bind a property-position variable to every known property and to
        # rdf:type, so typing triples are reachable as well
        for p in itertools.chain(targets["properties"], [RDF_TYPE.symbol]):
            bound = q.rename({a.p: Const(p)})
            out.append(bound)
    return out


def reformulate(q: ConjunctiveQuery, schema: Schema) -> UnionQuery:
    """Rewrite q into a union equivalent, over the raw store, to q over the
    saturated store.

    The rewriting rules are applied atom by atom to a fixpoint, deduplicating
    by canonical form during the expansion; the final members are minimized
    and deduplicated by canonical form (see make_union).  The existential
    variable of a domain or range rule is the lowest E<i> that the query it
    rewrites does not use (`fresh_var`).
    """
    targets = _rule_targets(schema)
    seen: dict[str, ConjunctiveQuery] = {canonical_key(q): q}
    queue: list[ConjunctiveQuery] = [q]
    while queue:
        cur = queue.pop(0)
        for i in range(len(cur.body)):
            for cand in _expand_atom(cur, i, targets):
                key = canonical_key(cand)
                if key not in seen:
                    seen[key] = cand
                    queue.append(cand)

    members = [minimize(m) for m in seen.values()]
    return make_union(q.name, members)


def reformulate_views_for_materialization(
    views: list[ConjunctiveQuery], schema: Schema
) -> list[UnionQuery]:
    """Expand each selected view so its extension over the raw store matches
    the plain view over the saturated store.  View names are preserved, so
    rewritings keep working against the expanded relations."""
    return [reformulate(v, schema) for v in views]
