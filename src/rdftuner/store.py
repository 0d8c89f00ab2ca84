"""Dictionary-encoded in-memory triple store with pattern indexes.

Symbols are interned into dense integer codes once at load time; everything
downstream joins on integers.  A lookup never scans more than its
candidates.  A pattern that binds the property is served from the property
partition, the index of the triples by property; its subject and object
indexes are built per property, from that property's triples alone, the
first time a pattern asks for them.  Patterns that leave the property free
use indexes over the whole store.  Every index is built on first use and
dropped when the triples change.

`evaluate` compiles each conjunctive query into a join plan before it
scans, with each step's index fetched once, and tests an atom whose new
variables nothing after it reads for existence only.

Loading collapses duplicate triples.  Triple text is one triple per line,
three tokens separated by whitespace.  A token is an <IRI>, stored without
its brackets, a "literal", stored with its quotes, or a bare symbol; a '#'
outside a literal or an IRI starts a comment.  `_TOKEN` builds these rules
from `queries.TOKEN_GRAMMAR`, their one statement, which query text shares:
schema files read the same tokens, and `render_symbol` writes every symbol
that loading can produce so that it reads back unchanged.  Lines holding
none of '"', '#' and '<' load through `str.split`, which reads the same
tokens.

Given a set of property symbols, loading keeps only the triples of those
properties, the partitions a query reads (Abadi et al., "Scalable Semantic
Web Data Management Using Vertical Partitioning", VLDB 2007).  It still
tokenizes and checks every line, and interns no symbol of a line it skips.
"""

from __future__ import annotations

import re
from collections.abc import Collection
from operator import itemgetter

from .queries import (
    TOKEN_GRAMMAR,
    Const,
    ConjunctiveQuery,
    QueryError,
    Term,
    TripleAtom,
    UnionQuery,
    Var,
    _Record,
    _set,
)

Triple = tuple[int, int, int]
# an index key: the code at one bound position, or the codes at two
Key = int | tuple[int, int]

# the key of a triple, or of a pattern, in the whole-store index of each
# position mask that leaves the property free, and in the property partition
_KEY_OF = {mask: itemgetter(*mask) for mask in ((0,), (1,), (2,), (0, 2))}


def _grouped(triples, key_of) -> dict:
    """The triples in lists by their key."""
    idx: dict = {}
    get = idx.get
    for t in triples:
        key = key_of(t)
        bucket = get(key)
        if bucket is None:
            idx[key] = [t]
        else:
            bucket.append(t)
    return idx


class StoreError(ValueError):
    """Raised for malformed triple text."""


class Dictionary:
    """Bijective symbol <-> dense code mapping."""

    def __init__(self) -> None:
        self._by_symbol: dict[str, int] = {}
        self._by_code: list[str] = []

    def __len__(self) -> int:
        return len(self._by_code)

    def intern(self, symbol: str) -> int:
        code = self._by_symbol.get(symbol)
        if code is None:
            code = len(self._by_code)
            self._by_symbol[symbol] = code
            self._by_code.append(symbol)
        return code

    def code(self, symbol: str) -> int | None:
        return self._by_symbol.get(symbol)

    def symbol(self, code: int) -> str:
        return self._by_code[code]


class TripleStore:
    def __init__(self, dictionary: Dictionary | None = None) -> None:
        self.dictionary = dictionary or Dictionary()
        self.triples: set[Triple] = set()
        # whole-store indexes by position mask
        self._index: dict[tuple[int, ...], dict[Key, list[Triple]]] = {}
        # per-property indexes by (position, property)
        self._by_property: dict[tuple[int, int], dict[int, list[Triple]]] = {}

    def __len__(self) -> int:
        return len(self.triples)

    def add(self, s: str, p: str, o: str) -> None:
        d = self.dictionary
        self.add_coded((d.intern(s), d.intern(p), d.intern(o)))

    def add_coded(self, t: Triple) -> None:
        if t not in self.triples:
            self.triples.add(t)
            self._drop_indexes()

    def _drop_indexes(self) -> None:
        self._index.clear()
        self._by_property.clear()

    def symbols(self, t: Triple) -> tuple[str, str, str]:
        d = self.dictionary
        return (d.symbol(t[0]), d.symbol(t[1]), d.symbol(t[2]))

    def _index_for(self, mask: tuple[int, ...]) -> dict[Key, list[Triple]]:
        """The whole-store index of a mask in `_KEY_OF`; (1,) is the property
        partition."""
        idx = self._index.get(mask)
        if idx is None:
            idx = self._index[mask] = _grouped(self.triples, _KEY_OF[mask])
        return idx

    def _property_index(self, pos: int, p: int) -> dict[int, list[Triple]]:
        """The triples of property p by their subject (pos 0) or object
        (pos 2), built from p's partition alone."""
        idx = self._by_property.get((pos, p))
        if idx is None:
            triples = self._index_for((1,)).get(p)
            if triples is None:
                return {}
            idx = self._by_property[pos, p] = _grouped(triples, _KEY_OF[pos,])
        return idx

    def lookup(self, pattern: tuple[int | None, int | None, int | None]
               ) -> list[Triple] | tuple[Triple, ...]:
        """All triples matching the partially bound pattern."""
        if pattern == (None, None, None):
            return list(self.triples)
        slot_of = [None if code is None else i for i, code in enumerate(pattern)]
        return _candidates(self, slot_of, pattern[1], list(pattern))()

    def count_pattern(self, a: TripleAtom) -> int:
        """Number of stored triples matching one atom (repeated variables
        force equality between their positions)."""
        pattern: list[int | None] = [None, None, None]
        for i, t in enumerate(a.terms):
            if isinstance(t, Const):
                code = self.dictionary.code(t.symbol)
                if code is None:
                    return 0
                pattern[i] = code
        cands = self.lookup((pattern[0], pattern[1], pattern[2]))
        eq: list[tuple[int, int]] = []
        seen: dict[Var, int] = {}
        for i, t in enumerate(a.terms):
            if isinstance(t, Var):
                if t in seen:
                    eq.append((seen[t], i))
                else:
                    seen[t] = i
        if not eq:
            return len(cands)
        return sum(1 for t in cands if all(t[i] == t[j] for i, j in eq))


# ---------------------------------------------------------------------------
# loading


# no stop characters and no punctuation: groups iri, comment and open
_TOKEN = re.compile(TOKEN_GRAMMAR.format(stops="", punct=""))


def tokenize_line(line: str, where: str) -> list[str]:
    """The symbols on one line of triple or schema text."""
    toks: list[str] = []
    for m in _TOKEN.finditer(line):
        iri, comment, unterminated = m.groups()
        if comment is not None:
            break
        if unterminated is not None:
            raise StoreError(f"{where}: unterminated literal")
        toks.append(m.group() if iri is None else iri)
    return toks


def load_triples(text: str, properties: Collection[str] | None = None) -> TripleStore:
    """The store of the triples in `text`, or, given `properties`, of those
    whose property is one of these symbols.  Every line is tokenized and
    checked either way, so a malformed line raises `StoreError` with its
    number whether or not its triple is kept; the symbols of a skipped
    line are not interned."""
    store = TripleStore()
    d = store.dictionary
    codes = d._by_symbol
    # a new symbol's code is the number of symbols before it; the code list
    # gets the symbols, in code order, once the loop ends
    intern = codes.setdefault
    add = store.triples.add
    for lineno, line in enumerate(text.splitlines(), start=1):
        if '"' in line or "#" in line or "<" in line:
            toks = tokenize_line(line, f"line {lineno}")
        else:
            # without quotes, comments or brackets every token is bare
            toks = line.split()
        if not toks:
            continue
        if len(toks) != 3:
            raise StoreError(f"line {lineno}: expected 3 terms, got {len(toks)}")
        s, p, o = toks
        if properties is not None and p not in properties:
            continue
        add((intern(s, len(codes)), intern(p, len(codes)), intern(o, len(codes))))
    d._by_code.extend(codes)
    return store


def render_symbol(sym: str) -> str:
    """The token that `tokenize_line` reads back as `sym`, whatever tokens
    surround it: the symbol itself when it is one literal or bare token,
    else the symbol in <>.  A bare symbol that starts with '<' and holds no
    '>' goes in <> too, since it would open an IRI reaching into the next
    token."""
    m = _TOKEN.fullmatch(sym)
    if m is not None and m.lastindex is None and (sym[0] != "<" or ">" in sym):
        return sym
    return f"<{sym}>"


def dump_triples(store: TripleStore) -> str:
    """The store as triple text, one sorted line per triple.  Each distinct
    code is rendered once, not once per occurrence."""
    symbol = store.dictionary.symbol
    token = {c: render_symbol(symbol(c)) for c in {c for t in store.triples for c in t}}
    lines = sorted(f"{token[s]} {token[p]} {token[o]}" for s, p, o in store.triples)
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# evaluation


def _atom_order(q: ConjunctiveQuery) -> list[int]:
    """Greedy join order: start from the most constant-bound atom, then prefer
    atoms sharing variables with what is already placed."""
    remaining = set(range(len(q.body)))
    placed: list[int] = []
    bound: set[Var] = set()

    def score(i: int) -> tuple[int, int, int]:
        a = q.body[i]
        consts = a.n_constants()
        shared = sum(1 for v in a.variables() if v in bound)
        return (shared + consts, consts, -i)

    while remaining:
        best = max(remaining, key=score)
        remaining.discard(best)
        placed.append(best)
        bound.update(q.body[best].variables())
    return placed


def evaluate(q: ConjunctiveQuery | UnionQuery, store: TripleStore) -> set[tuple[str, ...]]:
    """Answer tuples of q over the store, in head order, duplicates removed.

    A union is the union of its members' answers.  Each conjunctive query
    is compiled by `_plan` before anything is scanned: its atoms in
    `_atom_order`, each with its index fetched once (a bound property's
    subject or object index, built from that property's triples alone),
    its constants and repeated-variable checks fixed, and the bindings in
    a list of slots.  An atom whose new variables neither the head nor a
    later atom reads only tests existence: its first match continues the
    join and the others are skipped.  Rows are collected as codes and
    decoded through the dictionary's code list once the join is done.

    Constant head terms are emitted verbatim; a body constant missing from
    the dictionary matches nothing.  Disconnected bodies evaluate as cross
    products, which union members produced by rewriting rules may
    legitimately contain.
    """
    if isinstance(q, UnionQuery):
        out: set[tuple[str, ...]] = set()
        for m in q.members:
            out |= _evaluate_conjunctive(m, store)
        return out
    return _evaluate_conjunctive(q, store)


def _candidates(store: TripleStore, pattern: list[int | None], prop: int | None,
                slots: list[int]):
    """The triples matching an atom, as a function of the slots: `pattern`
    holds the slot each bound position reads, and `prop` the property's
    code when it is a constant.  Each index is fetched here, once, except
    the per-property index of a property variable."""
    s, p, o = pattern
    if p is None:
        if s is not None and o is not None:
            pair = store._index_for((0, 2))
            return lambda: pair.get((slots[s], slots[o]), ())
        pos, key = (0, s) if s is not None else (2, o)
        idx = store._index_for((pos,))
        return lambda: idx.get(slots[key], ())
    if s is not None and o is not None:
        triples = store.triples

        def full() -> tuple[Triple, ...]:
            t = (slots[s], slots[p], slots[o])
            return (t,) if t in triples else ()

        return full
    if s is None and o is None:
        part = store._index_for((1,))
        return lambda: part.get(slots[p], ())
    pos, key = (0, s) if s is not None else (2, o)
    if prop is not None:
        idx = store._property_index(pos, prop)
        return lambda: idx.get(slots[key], ())
    by_property = store._property_index
    return lambda: by_property(pos, slots[p]).get(slots[key], ())


def _plan(q: ConjunctiveQuery, store: TripleStore) -> tuple[list[tuple], list[int]] | None:
    """The steps of q's join plan, and its slots with the constants filled
    in; None when no row can match (a body constant missing from the
    dictionary, or a failed existence test).

    Steps follow `_atom_order`.  Slots 0.. hold the head variables in order
    of first occurrence, then the body's other variables, then the codes of
    the constants, so every bound position reads a slot.  A step is its
    candidates (a sequence when they depend on constants alone, looked up
    here once, else a function of the slots), the (position, slot) pairs
    it binds and the position pairs where a variable repeated in the atom
    must agree.  A step that binds nothing the head or a later step reads
    only tests existence; one on constants alone is decided here and
    dropped.
    """
    d = store.dictionary
    order = _atom_order(q)
    head_vars = q.head_vars()
    unbound = set(head_vars).difference(*(a.variables() for a in q.body))
    if unbound:
        raise QueryError(f"{q.name}: head variable {min(unbound, key=str)} not bound in body")
    slot_of: dict[Var, int] = {v: i for i, v in enumerate(head_vars)}
    for i in order:
        for v in q.body[i].variables():
            slot_of.setdefault(v, len(slot_of))
    slots = [0] * len(slot_of)
    const_slot: dict[int, int] = {}
    # the variables the head or a step after the k-th reads
    wanted: list[set[Var]] = []
    later = set(head_vars)
    for i in reversed(order):
        wanted.append(later)
        later = later | set(q.body[i].variables())
    wanted.reverse()

    steps: list[tuple] = []
    bound: set[Var] = set()
    for i, after in zip(order, wanted):
        pattern: list[int | None] = [None, None, None]
        codes: list[int | None] = [None, None, None]
        first: dict[Var, int] = {}
        binds: list[tuple[int, int]] = []
        checks: list[tuple[int, int]] = []
        reads_variables = False
        for pos, t in enumerate(q.body[i].terms):
            if isinstance(t, Const):
                code = d.code(t.symbol)
                if code is None:
                    return None
                codes[pos] = code
                if code not in const_slot:
                    const_slot[code] = len(slots)
                    slots.append(code)
                pattern[pos] = const_slot[code]
            elif t in bound:
                pattern[pos] = slot_of[t]
                reads_variables = True
            elif t in first:
                checks.append((first[t], pos))
            else:
                first[t] = pos
                if t in after:
                    binds.append((pos, slot_of[t]))
        bound.update(first)
        if not reads_variables:
            cands = store.lookup((codes[0], codes[1], codes[2]))
            if not binds:
                if not any(all(t[a] == t[b] for a, b in checks) for t in cands):
                    return None
                continue
        else:
            cands = _candidates(store, pattern, codes[1], slots)
        steps.append((cands, tuple(binds), tuple(checks)))
    return steps, slots


def _step(cands, binds, checks, nxt, slots: list[int]):
    """One step of a plan as a function that runs it and, for each match,
    the steps after it (`nxt`): for the first match only when the step
    binds nothing."""
    probe = cands if callable(cands) else (lambda: cands)
    if not binds:
        if not checks:
            def run() -> None:
                if probe():
                    nxt()
        else:
            def run() -> None:
                for t in probe():
                    if all(t[a] == t[b] for a, b in checks):
                        nxt()
                        return
    elif len(binds) == 1 and not checks:
        ((pos, slot),) = binds

        def run() -> None:
            for t in probe():
                slots[slot] = t[pos]
                nxt()
    else:
        def run() -> None:
            for t in probe():
                if checks and not all(t[a] == t[b] for a, b in checks):
                    continue
                for pos, slot in binds:
                    slots[slot] = t[pos]
                nxt()
    return run


def _evaluate_conjunctive(q: ConjunctiveQuery, store: TripleStore) -> set[tuple[str, ...]]:
    """Run q's plan as a chain of steps ending in one that keeps the head
    variables' codes, then decode the distinct rows."""
    plan = _plan(q, store)
    if plan is None:
        return set()
    steps, slots = plan
    head_vars = q.head_vars()
    n = len(head_vars)
    codes: set[tuple[int, ...]] = set()  # the head variables' codes
    add = codes.add
    if n > 1:
        get = itemgetter(*range(n))
        run = lambda: add(get(slots))  # noqa: E731
    else:
        run = lambda: add(tuple(slots[:n]))  # noqa: E731
    for cands, binds, checks in reversed(steps):
        run = _step(cands, binds, checks, run, slots)
    run()

    symbol = store.dictionary._by_code
    if q.head == tuple(head_vars):
        return {tuple(map(symbol.__getitem__, r)) for r in codes}
    envs = ({v: symbol[c] for v, c in zip(head_vars, r)} for r in codes)
    return {tuple(env[t] if isinstance(t, Var) else t.symbol for t in q.head) for env in envs}


# ---------------------------------------------------------------------------
# materialization


class Relation(_Record):
    """A materialized view: named columns plus a set of symbol rows."""

    __slots__ = _fields = ("name", "columns", "rows")
    name: str
    columns: tuple[Term, ...]
    rows: frozenset[tuple[str, ...]]

    def __init__(
        self, name: str, columns: tuple[Term, ...], rows: frozenset[tuple[str, ...]] = frozenset()
    ) -> None:
        _set(self, "name", name)
        _set(self, "columns", columns)
        _set(self, "rows", rows)

    def column_names(self) -> tuple[str, ...]:
        return tuple(str(c) for c in self.columns)


def materialize(view: ConjunctiveQuery | UnionQuery, store: TripleStore) -> Relation:
    if isinstance(view, UnionQuery):
        columns = view.members[0].head
        name = view.name
    else:
        columns = view.head
        name = view.name
    return Relation(name, columns, frozenset(evaluate(view, store)))
