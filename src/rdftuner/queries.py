"""Conjunctive queries and views over a single triple table.

Queries and views share one representation: a named head (a tuple of terms,
normally variables) plus a body of triple atoms.  Heads are ordered because
rewritings align view columns positionally; they may contain constants, which
arise when entailment-aware rewriting binds a head variable to a schema class
or property.

The container itself is permissive.  Workload queries parsed from text are
validated (connected body, head variables bound, at most two constants per
atom) and split into independent sub-queries when their join graph is
disconnected.  The state layer checks the same rules only on the queries
that seed the initial state's views, and a member of a union seed only for
an all-constant atom and a disconnected body; the views that transitions
make are not checked.  Internal queries produced by rewriting rules may
legitimately violate the rules and still need to evaluate.

Terms and atoms are hash-consed: `Var`, `Const` and `TripleAtom` each keep
one object per value, so two equal terms or atoms are the same object and
compare and hash by identity.  Hashing a body then costs one pointer per
atom, which keeps the caches keyed by heads and bodies cheap.

Containment mappings drive equivalence and minimization.  A canonical form,
equal exactly for isomorphic queries, makes duplicate detection cheap for the
search and yields the renamings that fuse views.
"""

from __future__ import annotations

import re
from functools import lru_cache


class QueryError(ValueError):
    """Raised for malformed query structures or query text."""


# defined here, not in `reasoning`, so that the command line catches it
# without loading reasoning in a run that reads no schema
class SchemaError(ValueError):
    """Raised for malformed schema text."""


# ---------------------------------------------------------------------------
# terms and atoms


class _Record:
    """Base of the immutable value classes: queries, unions, algebra nodes,
    schemas, relations, column statistics, cost weights and breakdowns,
    rewritings, states and transitions.  A subclass lists its fields in
    `_fields` (and in `__slots__`) and sets them in its `__init__` with
    `_set`.  The base gives what a frozen dataclass would: assigning or
    deleting a field raises `AttributeError`, equality and hashing go by
    the field values (an object of another class is never equal), `repr`
    has the dataclass format, and pickling or copying calls the class on
    the field values.  `states.Rewriting` and `states.State` compare and
    hash by identity instead.  Written out here, it spares every command
    the import of `dataclasses` and the code generation of its classes."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


# sets a field of a `_Record` in its `__init__`
_set = object.__setattr__


class _Interned(_Record):
    """Base of the hash-consed terms and atoms.  Each class keeps one object
    per tuple of field values, built on first use, so equality and hashing
    are object identity.  Pickling or copying one gives back the same
    object."""

    __slots__ = ()
    __eq__ = object.__eq__
    __hash__ = object.__hash__


_VARS: dict[str, Var] = {}
_CONSTS: dict[str, Const] = {}
_ATOMS: dict[tuple, TripleAtom] = {}


class Var(_Interned):
    __slots__ = ("name",)
    _fields = ("name",)
    name: str

    def __new__(cls, name: str) -> Var:
        self = _VARS.get(name)
        if self is None:
            self = _VARS[name] = object.__new__(cls)
            _set(self, "name", name)
        return self

    def __str__(self) -> str:
        return self.name


class Const(_Interned):
    __slots__ = ("symbol",)
    _fields = ("symbol",)
    symbol: str

    def __new__(cls, symbol: str) -> Const:
        self = _CONSTS.get(symbol)
        if self is None:
            self = _CONSTS[symbol] = object.__new__(cls)
            _set(self, "symbol", symbol)
        return self

    def __str__(self) -> str:
        return self.symbol


Term = Var | Const

RDF_TYPE = Const("rdf:type")

POSITIONS = ("s", "p", "o")


class TripleAtom(_Interned):
    __slots__ = ("s", "p", "o", "terms")
    _fields = ("s", "p", "o")
    s: Term
    p: Term
    o: Term
    terms: tuple[Term, Term, Term]

    def __new__(cls, s: Term, p: Term, o: Term) -> TripleAtom:
        terms = (s, p, o)
        self = _ATOMS.get(terms)
        if self is None:
            self = _ATOMS[terms] = object.__new__(cls)
            for field, t in zip(("s", "p", "o", "terms"), (s, p, o, terms)):
                _set(self, field, t)
        return self

    def variables(self) -> list[Var]:
        return [t for t in self.terms if isinstance(t, Var)]

    def n_constants(self) -> int:
        return sum(1 for t in self.terms if isinstance(t, Const))

    def replace(self, pos: int, term: Term) -> TripleAtom:
        parts = list(self.terms)
        parts[pos] = term
        return TripleAtom(*parts)

    def __str__(self) -> str:
        return f"t({self.s},{self.p},{self.o})"


# ---------------------------------------------------------------------------
# queries


class ConjunctiveQuery(_Record):
    __slots__ = _fields = ("name", "head", "body")
    name: str
    head: tuple[Term, ...]
    body: tuple[TripleAtom, ...]

    def __init__(self, name: str, head: tuple[Term, ...], body: tuple[TripleAtom, ...]) -> None:
        _set(self, "name", name)
        _set(self, "head", head)
        _set(self, "body", body)

    def variables(self) -> list[Var]:
        seen: dict[Var, None] = {}
        for a in self.body:
            for v in a.variables():
                seen.setdefault(v)
        return list(seen)

    def head_vars(self) -> list[Var]:
        out: dict[Var, None] = {}
        for t in self.head:
            if isinstance(t, Var):
                out.setdefault(t)
        return list(out)

    def rename(self, mapping: dict[Var, Term]) -> "ConjunctiveQuery":
        def sub(t: Term) -> Term:
            return mapping.get(t, t) if isinstance(t, Var) else t

        return ConjunctiveQuery(
            self.name,
            tuple(sub(t) for t in self.head),
            tuple(TripleAtom(sub(a.s), sub(a.p), sub(a.o)) for a in self.body),
        )

    def __str__(self) -> str:
        head = ",".join(map(str, self.head))
        body = ", ".join(map(str, self.body))
        return f"{self.name}({head}) :- {body} ."


class UnionQuery(_Record):
    """A union of conjunctive queries of identical head arity."""

    __slots__ = _fields = ("name", "members")
    name: str
    members: tuple[ConjunctiveQuery, ...]

    def __init__(self, name: str, members: tuple[ConjunctiveQuery, ...]) -> None:
        if not members:
            raise QueryError(f"union {name} has no members")
        arities = {len(m.head) for m in members}
        if len(arities) != 1:
            raise QueryError(f"union {name} mixes head arities {arities}")
        _set(self, "name", name)
        _set(self, "members", members)


def make_union(name: str, members: list[ConjunctiveQuery]) -> UnionQuery:
    """Build a union of minimized members, dropping each member whose
    canonical_key an earlier one has.

    Equivalent minimized queries are isomorphic, so this drops exactly the
    members equivalent to an earlier one.
    """
    kept: dict[str, ConjunctiveQuery] = {}
    for m in members:
        kept.setdefault(canonical_key(m), m)
    return UnionQuery(name, tuple(kept.values()))


def fresh_var(prefix: str, q: ConjunctiveQuery) -> Var:
    """The variable `prefix<i>` of the lowest i >= 1 that q's head and body
    do not use.  Every variable a transition or a reformulation rule
    invents is named so: one transition of one view, or one rule applied
    to one query, builds equal terms wherever it runs."""
    used = {t.name for t in q.head if isinstance(t, Var)}
    used.update(v.name for v in q.variables())
    i = 1
    while f"{prefix}{i}" in used:
        i += 1
    return Var(f"{prefix}{i}")


# ---------------------------------------------------------------------------
# structural checks


def connected_components(body: tuple[TripleAtom, ...]) -> list[list[int]]:
    """Partition atom indexes into join-connected components.

    Two atoms are connected when they share a variable.  Atoms without
    variables form singleton components.
    """
    n = len(body)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    by_var: dict[Var, int] = {}
    for i, a in enumerate(body):
        for v in a.variables():
            if v in by_var:
                ri, rj = find(i), find(by_var[v])
                if ri != rj:
                    parent[ri] = rj
            else:
                by_var[v] = i
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values())


def is_connected(body: tuple[TripleAtom, ...]) -> bool:
    return len(connected_components(body)) <= 1


def check_workload_query(q: ConjunctiveQuery) -> None:
    """Validate a query destined to become a view seed."""
    if not q.body:
        raise QueryError(f"{q.name}: empty body")
    body_vars = set(q.variables())
    for t in q.head:
        if isinstance(t, Var) and t not in body_vars:
            raise QueryError(f"{q.name}: head variable {t} not bound in body")
    seen_head: set[Term] = set()
    for t in q.head:
        if t in seen_head:
            raise QueryError(f"{q.name}: duplicate head term {t}")
        seen_head.add(t)
    for a in q.body:
        if a.n_constants() == 3:
            raise QueryError(f"{q.name}: atom {a} has three constants")
    if not is_connected(q.body):
        raise QueryError(f"{q.name}: body is not join-connected")


# ---------------------------------------------------------------------------
# containment


def _unify_atom(
    src: TripleAtom, dst: TripleAtom, env: dict[Var, Term]
) -> dict[Var, Term] | None:
    out = env
    for st, dt in zip(src.terms, dst.terms):
        if isinstance(st, Const):
            if st != dt:
                return None
        else:
            bound = out.get(st)
            if bound is None:
                if out is env:
                    out = dict(env)
                out[st] = dt
            elif bound != dt:
                return None
    return out


def _mappings(src: ConjunctiveQuery, dst: ConjunctiveQuery, seed: dict[Var, Term] | None):
    """Yield homomorphisms from src's body into dst's body extending seed."""
    if seed is None:
        return
    atoms = sorted(src.body, key=lambda a: -a.n_constants())
    yield from _extensions(atoms, 0, dst.body, seed)


def _extensions(atoms, k: int, targets, env: dict[Var, Term]):
    """Yield every extension of env that maps atoms[k:] into targets."""
    if k == len(atoms):
        yield dict(env)
        return
    for b in targets:
        env2 = _unify_atom(atoms[k], b, env)
        if env2 is not None:
            yield from _extensions(atoms, k + 1, targets, env2)


def _head_seed(src: ConjunctiveQuery, dst: ConjunctiveQuery) -> dict[Var, Term] | None:
    """Initial assignment forcing head positions to correspond."""
    if len(src.head) != len(dst.head):
        return None
    env: dict[Var, Term] = {}
    for st, dt in zip(src.head, dst.head):
        if isinstance(st, Const):
            if st != dt:
                return None
        else:
            if st in env and env[st] != dt:
                return None
            env[st] = dt
    return env


def find_containment_mapping(
    src: ConjunctiveQuery, dst: ConjunctiveQuery
) -> dict[Var, Term] | None:
    """Find a head-respecting homomorphism from src into dst, as the image
    of each of src's variables, or None.

    Its existence shows that dst is contained in src.  Constants must map to
    themselves and the i-th head term of src must land on the i-th head term
    of dst.
    """
    return next(_mappings(src, dst, _head_seed(src, dst)), None)


def are_equivalent(a: ConjunctiveQuery, b: ConjunctiveQuery) -> bool:
    """Mutual containment with positional head correspondence."""
    return (
        find_containment_mapping(a, b) is not None
        and find_containment_mapping(b, a) is not None
    )


def without_contained_members(u: UnionQuery) -> UnionQuery:
    """u without the members whose answers another member's include on
    every store (Sagiv & Yannakakis, JACM 1980), so it has the same answers.

    Member m goes when another member k has a containment mapping into it,
    unless m also maps into k, which makes them equivalent, and comes before
    k.  The members kept stay in order.  A containment mapping sends each
    constant to itself, so k can contain m only if every constant of k
    occurs in m; no mapping is searched for a pair that fails this test.
    """
    members = u.members
    if len(members) < 2:
        return u
    constants = [
        {t for a in m.body for t in a.terms if isinstance(t, Const)}
        | {t for t in m.head if isinstance(t, Const)}
        for m in members
    ]

    def contains(k: int, m: int) -> bool:
        return (constants[k] <= constants[m]
                and find_containment_mapping(members[k], members[m]) is not None)

    kept = tuple(
        m for i, m in enumerate(members)
        if not any(k != i and contains(k, i) and (k < i or not contains(i, k))
                   for k in range(len(members)))
    )
    return u if len(kept) == len(members) else UnionQuery(u.name, kept)


def bodies_isomorphic(a: ConjunctiveQuery, b: ConjunctiveQuery) -> list[dict[Var, Var]]:
    """Bijective variable renamings carrying b's body onto a's body, one for
    each distinct image of b's head variables.

    Atom multiplicities must match exactly (each atom of b is matched to a
    distinct atom of a).  Heads only choose which renamings come back.  The
    two canonical atom orders give one renaming; composing it with the
    automorphisms of b's body reaches every other image of the head.
    """
    if len(a.body) != len(b.body) or canonical_body_key(a) != canonical_body_key(b):
        return []
    (_, order_a, _), (_, order_b, gens) = _body_form(a.body), _body_form(b.body)
    # both bodies in canonical order name their variables alike
    to_a = dict(zip(
        ConjunctiveQuery("", (), tuple(b.body[i] for i in order_b)).variables(),
        ConjunctiveQuery("", (), tuple(a.body[i] for i in order_a)).variables()))
    autos = [{u: w for i, j in enumerate(g) for u, w in zip(b.body[i].terms, b.body[j].terms)
              if isinstance(u, Var)} for g in gens]
    head = tuple(v for v in b.head_vars() if v in to_a)
    found = {head: {v: v for v in to_a}}
    queue = [found[head]]
    for sigma in queue:
        for g in autos:
            moved = {v: g[w] for v, w in sigma.items()}
            image = tuple(moved[v] for v in head)
            if image not in found:
                found[image] = moved
                queue.append(moved)
    return [{v: to_a[w] for v, w in sigma.items()} for sigma in found.values()]


# ---------------------------------------------------------------------------
# minimization


def _foldable(body: list[TripleAtom], i: int) -> bool:
    """Whether another atom of the body agrees with atom i at each of its
    constant positions.  A homomorphism maps constants to themselves, so
    without such an atom none can fold atom i away."""
    consts = [(pos, t) for pos, t in enumerate(body[i].terms) if isinstance(t, Const)]
    return any(j != i and all(b.terms[pos] is t for pos, t in consts)
               for j, b in enumerate(body))


def minimize(q: ConjunctiveQuery) -> ConjunctiveQuery:
    """Remove redundant atoms until none can be folded away.

    An atom is redundant when the full body maps homomorphically into the
    reduced body with head terms fixed.  Greedy one-at-a-time removal reaches
    a core, which is unique up to renaming.  The search for that mapping is
    skipped for an atom no other atom can absorb (see `_foldable`).
    """
    body = list(q.body)
    changed = True
    while changed and len(body) > 1:
        changed = False
        for i in range(len(body)):
            if not _foldable(body, i):
                continue
            reduced = body[:i] + body[i + 1 :]
            full = ConjunctiveQuery(q.name, q.head, tuple(body))
            smaller = ConjunctiveQuery(q.name, q.head, tuple(reduced))
            if find_containment_mapping(full, smaller) is not None:
                body = reduced
                changed = True
                break
    return ConjunctiveQuery(q.name, q.head, tuple(body))


# ---------------------------------------------------------------------------
# canonical form


def _initial_colors(q: ConjunctiveQuery, ordered_head: bool) -> list[tuple]:
    head_pos: dict[Var, tuple[int, ...]] = {}
    for i, t in enumerate(q.head):
        if isinstance(t, Var):
            head_pos.setdefault(t, ())
            head_pos[t] = head_pos[t] + ((i if ordered_head else 0),)
    colors = []
    for a in q.body:
        slots = []
        local: dict[Var, int] = {}
        for t in a.terms:
            if isinstance(t, Const):
                slots.append(("c", t.symbol))
            else:
                cls = local.setdefault(t, len(local))
                slots.append(("v", cls, head_pos.get(t, ())))
        colors.append(tuple(slots))
    return colors


def _links(q: ConjunctiveQuery) -> list[list[tuple[int, int, int]]]:
    """Per atom, its position, the other's position and the other atom of
    each variable occurrence it shares."""
    var_positions: dict[Var, list[tuple[int, int]]] = {}
    for i, a in enumerate(q.body):
        for pos, t in enumerate(a.terms):
            if isinstance(t, Var):
                var_positions.setdefault(t, []).append((i, pos))
    links: list[list[tuple[int, int, int]]] = [[] for _ in q.body]
    for occurrences in var_positions.values():
        for i, pos in occurrences:
            links[i].extend((pos, jpos, j) for j, jpos in occurrences if j != i)
    return links


def _refine(links: list[list[tuple[int, int, int]]], colors: list) -> list[int]:
    """Iteratively split atom color classes by their join neighborhoods.
    Each round ranks the colors 0, 1, ... in sorted order: the classes keep
    the order that nested colors would give them, and compare cheaply."""
    for _ in links:
        nxt = [
            (colors[i], tuple(sorted([(pos, jpos, colors[j]) for pos, jpos, j in out])))
            for i, out in enumerate(links)
        ]
        classes = sorted(set(nxt))
        rank = {c: r for r, c in enumerate(classes)}
        # nxt[i] holds colors[i], so nxt refines colors: the two partitions
        # are equal exactly when they have as many classes
        stable = len(classes) == len(set(colors))
        colors = [rank[c] for c in nxt]
        if stable:
            break
    return colors


def _serialize(q: ConjunctiveQuery, order: tuple[int, ...], ordered_head: bool) -> str:
    names: dict[Var, str] = {}

    def label(t: Term) -> str:
        if isinstance(t, Const):
            return "c:" + t.symbol
        got = names.get(t)
        if got is None:
            got = names.setdefault(t, f"x{len(names)}")
        return got

    atoms = []
    for i in order:
        a = q.body[i]
        atoms.append("(" + ",".join(label(t) for t in a.terms) + ")")
    # head vars that never occur in the body still need stable labels
    head_labels = []
    for t in q.head:
        if isinstance(t, Var) and t not in names:
            names[t] = f"x{len(names)}"
        head_labels.append(label(t))
    if not ordered_head:
        head_labels = sorted(head_labels)
    return "h=" + ",".join(head_labels) + ";b=" + ";".join(atoms)


def _canonical(q: ConjunctiveQuery, ordered_head: bool) -> tuple[str, tuple[int, ...], tuple]:
    """The canonical serialization of q, the atom order that gives it, and
    atom permutations that generate q's automorphism group.

    An individualization-refinement search (McKay and Piperno, "Practical
    graph isomorphism, II", 2014): where refinement leaves a class of several
    atoms, each atom of the first such class in turn becomes a class of its
    own, and the search refines again and recurses.  The smallest
    serialization of a discrete leaf, atoms ordered by color, is the key.
    Two leaves that serialize equally give an automorphism; the search then
    goes back to where their paths part, and skips each child that an
    automorphism fixing the path maps onto one already searched.
    """
    n, links = len(q.body), _links(q)
    colors = _refine(links, _initial_colors(q, ordered_head))
    if len(set(colors)) == n:  # refinement alone ordered every atom
        order = tuple(sorted(range(n), key=colors.__getitem__))
        return _serialize(q, order, ordered_head), order, ()
    gens: list[tuple[int, ...]] = []
    leaves: list = []  # key, order and path of the first leaf, then the best

    def visit(colors: list[int], path: tuple[int, ...]) -> int:
        """Search below a node; returns the depth to resume at."""
        if len(set(colors)) == n:
            order = tuple(sorted(range(n), key=colors.__getitem__))
            key = _serialize(q, order, ordered_head)
            for k, o, p in leaves:
                if key == k:
                    gens.append(tuple(j for _, j in sorted(zip(o, order))))
                    return next(d for d, (u, v) in enumerate(zip(p, path)) if u != v)
            if not leaves:
                leaves[:] = [(key, order, path)] * 2
            elif key < leaves[1][0]:
                leaves[1] = (key, order, path)
            return len(path)
        target = min(c for c in colors if colors.count(c) > 1)
        searched: list[int] = []
        for w in (i for i, c in enumerate(colors) if c == target):
            # the orbits of the children searched under what fixes the path
            fixing = [g for g in gens if all(g[v] == v for v in path)]
            reach = list(searched)
            for v in reach:
                reach.extend(g[v] for g in fixing if g[v] not in reach)
            if w in reach:
                continue
            searched.append(w)
            depth = visit(_refine(links, [2 * c + (i != w) for i, c in enumerate(colors)]),
                          path + (w,))
            if depth < len(path):
                return depth
        return len(path)

    visit(colors, ())
    del visit  # the closure holds itself: break the cycle for the collector
    return leaves[1][0], leaves[1][1], tuple(gens)


# Every key below is cached by the head and body it depends on, never by
# the query object, so the caches keep no query alive.  Terms and atoms are
# interned, so hashing a body hashes the identity of each atom.  Transitions
# and reformulation name each variable they invent by `fresh_var`, so one
# transition of one view builds views of equal heads and bodies in every
# state that holds it, and they hit these caches.


def canonical_key(q: ConjunctiveQuery) -> str:
    """Serialization invariant under variable renaming and atom reordering.

    Two queries get equal keys exactly when they are isomorphic with
    positionally matching heads; equal keys imply equivalent queries.
    """
    return _canonical_key(q.head, q.body)


@lru_cache(maxsize=200_000)
def _canonical_key(head: tuple[Term, ...], body: tuple[TripleAtom, ...]) -> str:
    return _canonical(ConjunctiveQuery("", head, body), ordered_head=True)[0]


def view_key(q: ConjunctiveQuery) -> str:
    """Like canonical_key but order-insensitive on the head.

    Two views that differ only in head ordering store the same columns, so
    state signatures treat them as the same view.
    """
    return _view_key(q.head, q.body)


@lru_cache(maxsize=200_000)
def _view_key(head: tuple[Term, ...], body: tuple[TripleAtom, ...]) -> str:
    return _canonical(ConjunctiveQuery("", head, body), ordered_head=False)[0]


def canonical_body_key(q: ConjunctiveQuery) -> str:
    """Canonical form of the body alone (head ignored)."""
    return _body_form(q.body)[0]


@lru_cache(maxsize=200_000)
def _body_form(body: tuple[TripleAtom, ...]) -> tuple[str, tuple[int, ...], tuple]:
    return _canonical(ConjunctiveQuery("", (), body), ordered_head=True)


def key_cache_info() -> dict[str, tuple[int, int]]:
    """Hits and misses of the view-key, body-form and canonical-key caches
    since the process started."""
    caches = {"view_key": _view_key, "body_form": _body_form, "canonical_key": _canonical_key}
    return {name: fn.cache_info()[:2] for name, fn in caches.items()}


# ---------------------------------------------------------------------------
# query text

# The token grammar of triple, schema and query text, tried in this order: a
# "literal", holding anything but '"'; an <IRI> (group iri), holding anything
# but '>', its '>' followed by whitespace, '#', a stop character or the end
# of the line; punctuation (group punct); a bare symbol, a run of characters
# other than whitespace, '#' and stop characters that does not start with
# '"'; a comment (group comment); an unterminated literal (group open).  Only
# whitespace lies between matches.  Query text has the stop characters '(',
# ')' and ',' and the punctuation, so no bare symbol starts with '.' or ':-'.
TOKEN_GRAMMAR = (r'"[^"]*"|<(?P<iri>[^>]+)>(?=[\s#{stops}]|\Z){punct}'
                 r'|[^\s#"{stops}][^\s#{stops}]*|(?P<comment>#.*)|(?P<open>")')
_QUERY_TOKEN = re.compile(TOKEN_GRAMMAR.format(stops="(),", punct=r"|(?P<punct>:-|[(),.])"))

_NAME = re.compile(r"[A-Za-z_][\w.-]*")
_LPAREN, _RPAREN, _COMMA, _END, _DEFINE = (("punct", p) for p in ("(", ")", ",", ".", ":-"))
_UNTERMINATED, _T = ("open", '"'), (None, "t")


def _statements(text: str):
    """Query text as statements, each a list of (group, text) tokens: the
    group is None for a literal or a bare symbol, and an IRI's text has no
    brackets.  A '.' ends a statement, as does the end of the text.  No
    token spans a line."""
    stmt: list[tuple[str | None, str]] = []
    for line in text.splitlines():
        for m in _QUERY_TOKEN.finditer(line):
            kind = m.lastgroup
            if kind == "comment":
                break
            tok = (kind, m.group(kind or 0))
            if tok == _END:
                yield stmt
                stmt = []
            else:
                stmt.append(tok)
    yield stmt


def _term(tok: tuple[str | None, str], where: str) -> Term:
    kind, text = tok
    if kind == "iri":
        return Const(text)
    if kind is not None:
        raise QueryError(f"{where}: {text!r} is not a term")
    if text[0] == "?":
        if len(text) == 1:
            raise QueryError(f"{where}: bare '?' is not a variable name")
        return Var(text[1:])
    return Var(text) if text[0].isupper() else Const(text)


def _args(toks: list, i: int, where: str) -> tuple[list[Term], int] | None:
    """The terms of the parenthesized, comma-separated list at toks[i] and
    the index after it, or None when no such list starts there."""
    if toks[i:i + 1] != [_LPAREN] or _RPAREN not in toks[i:]:
        return None
    j = toks.index(_RPAREN, i)
    inner = toks[i + 1:j]
    if inner[1::2] != [_COMMA] * (len(inner) // 2) or (inner and len(inner) % 2 == 0):
        return None
    return [_term(tok, where) for tok in inner[::2]], j + 1


def parse_queries(text: str, validate: bool = True) -> list[ConjunctiveQuery]:
    """Parse workload query text.

    Query text has the tokens of triple text (see `TOKEN_GRAMMAR`) and the
    punctuation '(', ')', ',', ':-' and '.'.  A statement such as
    `q1(X, Y) :- t(X, p, Z), t(Z, <http://ex.org/q#1>, Y)` ends with '.' or
    with the end of the text and may span lines.  Commas between atoms may
    be missing or repeated.  A bare symbol that starts with an uppercase
    letter is a variable, as is `?x`, which names x; every other term is a
    constant: a bare symbol, a literal with its quotes or an IRI without
    its brackets.  A query whose join graph has several components is split
    into one query per component, suffixed _p1, _p2, ... in body order.
    With `validate`, each query must pass `check_workload_query` and no
    head may hold a constant.  Without it, head constants are read, as in
    the union members that `format_query` writes, and a split query keeps
    them in its first part.
    """
    queries: list[ConjunctiveQuery] = []
    seen_names: set[str] = set()
    for stmt_no, toks in enumerate(_statements(text), start=1):
        if not toks:
            continue
        where = f"statement {stmt_no}"
        if _UNTERMINATED in toks:
            raise QueryError(f"{where}: unterminated string literal")
        if _DEFINE not in toks:
            raise QueryError(f"{where}: missing ':-'")
        cut = toks.index(_DEFINE)
        head, body = toks[:cut], toks[cut + 1:]
        named = head and head[0][0] is None and _NAME.fullmatch(head[0][1])
        args = _args(head, 1, where) if named else None
        if args is None or args[1] != len(head):
            raise QueryError(f"{where}: malformed head {' '.join(t for _, t in head)!r}")
        name = head[0][1]
        if name in seen_names:
            raise QueryError(f"{where}: duplicate query name {name!r}")
        seen_names.add(name)
        for t in args[0]:
            if validate and isinstance(t, Const):
                raise QueryError(f"{where}: constant {t} in head")
        atoms: list[TripleAtom] = []
        i = 0
        while i < len(body):
            if body[i] == _COMMA:
                i += 1
                continue
            terms = _args(body, i + 1, where) if body[i] == _T else None
            if terms is None:
                raise QueryError(
                    f"{where}: unrecognized body text {' '.join(t for _, t in body[i:])!r}")
            if len(terms[0]) != 3:
                raise QueryError(f"{where}: atom needs 3 terms, got {len(terms[0])}")
            atoms.append(TripleAtom(*terms[0]))
            i = terms[1]
        if not atoms:
            raise QueryError(f"{where}: empty body")
        q = ConjunctiveQuery(name, tuple(args[0]), tuple(atoms))
        parts = connected_components(q.body)
        if len(parts) == 1:
            if validate:
                check_workload_query(q)
            queries.append(q)
        else:
            for i, part in enumerate(parts, start=1):
                sub_body = tuple(q.body[j] for j in part)
                sub_vars = {v for a in sub_body for v in a.variables()}
                sub_head = tuple(t for t in q.head
                                 if t in sub_vars or (i == 1 and isinstance(t, Const)))
                sub = ConjunctiveQuery(f"{name}_p{i}", sub_head, sub_body)
                if validate:
                    check_workload_query(sub)
                queries.append(sub)
            # every head variable must survive in some part
            if validate:
                covered = {t for p in queries[-len(parts):] for t in p.head}
                missing = [t for t in q.head if t not in covered]
                if missing:
                    raise QueryError(f"{where}: head variable {missing[0]} not bound in body")
    return queries


def format_query(q: ConjunctiveQuery | UnionQuery) -> str:
    """Query text for q, a union as one statement per member named
    name__1, name__2, ...; each term is the token that reads back as it.
    Raises QueryError for a constant that no query token can hold."""
    if isinstance(q, UnionQuery):
        return "\n".join(format_query(ConjunctiveQuery(f"{q.name}__{i}", m.head, m.body))
                         for i, m in enumerate(q.members, start=1))
    head = ", ".join(map(_format_term, q.head))
    body = ", ".join("t(" + ", ".join(map(_format_term, a.terms)) + ")" for a in q.body)
    return f"{q.name}({head}) :- {body} ."


def _format_term(t: Term) -> str:
    """The query token that reads back as t.  A constant is written as is
    when it reads whole as one literal or bare token that is no variable and
    opens no IRI reaching into the next token, else in <>."""
    if isinstance(t, Var):
        return t.name if t.name[:1].isupper() else "?" + t.name
    sym = t.symbol
    if sym.splitlines() == [sym]:  # no token spans a line
        m = _QUERY_TOKEN.match(sym)
        if (m is not None and m.end() == len(sym) and m.lastindex is None
                and not (sym[0].isupper() or sym[0] == "?") and (sym[0] != "<" or ">" in sym)):
            return sym
        if ">" not in sym:
            return f"<{sym}>"
    raise QueryError(f"no query token reads back as the constant {sym!r}")
