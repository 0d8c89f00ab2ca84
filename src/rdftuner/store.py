"""Dictionary-encoded in-memory triple store with pattern indexes.

Symbols are interned into dense integer codes once at load time; everything
downstream joins on integers.  Indexes cover every bound-position mask so a
single atom lookup never scans more than its candidates; each is built on
first use and dropped when the triples change.

Loading collapses duplicate triples.  Triple text is one triple per line,
three tokens separated by whitespace.  A token is an <IRI>, stored without
its brackets, a "literal", stored with its quotes, or a bare symbol; a '#'
outside a literal or an IRI starts a comment.  `_TOKEN` builds these rules
from `queries.TOKEN_GRAMMAR`, their one statement, which query text shares:
schema files read the same tokens, and `render_symbol` writes every symbol
that loading can produce so that it reads back unchanged.  Lines holding
none of '"', '#' and '<' load through `str.split`, which reads the same
tokens.
"""

from __future__ import annotations

import re
from operator import itemgetter

from .queries import (
    TOKEN_GRAMMAR,
    Const,
    ConjunctiveQuery,
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

# the key of a triple, or of a pattern, in the index over each position mask
_KEY_OF = {mask: itemgetter(*mask) for mask in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2))}


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
        self._index: dict[tuple[int, ...], dict[Key, list[Triple]]] = {}

    def __len__(self) -> int:
        return len(self.triples)

    def add(self, s: str, p: str, o: str) -> None:
        d = self.dictionary
        self.add_coded((d.intern(s), d.intern(p), d.intern(o)))

    def add_coded(self, t: Triple) -> None:
        if t not in self.triples:
            self.triples.add(t)
            self._index.clear()

    def symbols(self, t: Triple) -> tuple[str, str, str]:
        d = self.dictionary
        return (d.symbol(t[0]), d.symbol(t[1]), d.symbol(t[2]))

    def _index_for(self, mask: tuple[int, ...]) -> dict[Key, list[Triple]]:
        idx = self._index.get(mask)
        if idx is None:
            idx = {}
            get = idx.get
            key_of = _KEY_OF[mask]
            for t in self.triples:
                key = key_of(t)
                bucket = get(key)
                if bucket is None:
                    idx[key] = [t]
                else:
                    bucket.append(t)
            self._index[mask] = idx
        return idx

    def lookup(self, pattern: tuple[int | None, int | None, int | None]) -> list[Triple]:
        """All triples matching the partially bound pattern."""
        mask = tuple(i for i in range(3) if pattern[i] is not None)
        if not mask:
            return list(self.triples)
        if len(mask) == 3:
            t = (pattern[0], pattern[1], pattern[2])
            return [t] if t in self.triples else []  # type: ignore[list-item]
        return self._index_for(mask).get(_KEY_OF[mask](pattern), [])

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


def load_triples(text: str, store: TripleStore | None = None) -> TripleStore:
    if store is None:
        store = TripleStore()
    intern = store.dictionary.intern
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
        add((intern(s), intern(p), intern(o)))
    store._index.clear()
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

    Constant head terms are emitted verbatim.  Disconnected bodies evaluate
    as cross products, which union members produced by rewriting rules may
    legitimately contain.
    """
    if isinstance(q, UnionQuery):
        out: set[tuple[str, ...]] = set()
        for m in q.members:
            out |= evaluate(m, store)
        return out

    d = store.dictionary
    # constants missing from the dictionary can never match
    coded_body: list[tuple] = []
    for a in q.body:
        coded: list[tuple[str, int] | Var] = []
        for t in a.terms:
            if isinstance(t, Const):
                code = d.code(t.symbol)
                if code is None:
                    return set()
                coded.append(("c", code))
            else:
                coded.append(t)
        coded_body.append(tuple(coded))

    order = _atom_order(q)
    results: set[tuple[str, ...]] = set()
    head = q.head

    def emit(env: dict[Var, int]) -> None:
        row = []
        for t in head:
            if isinstance(t, Var):
                row.append(d.symbol(env[t]))
            else:
                row.append(t.symbol)
        results.add(tuple(row))

    def rec(k: int, env: dict[Var, int]) -> None:
        if k == len(order):
            emit(env)
            return
        coded = coded_body[order[k]]
        pattern: list[int | None] = [None, None, None]
        for i, t in enumerate(coded):
            if isinstance(t, Var):
                if t in env:
                    pattern[i] = env[t]
            else:
                pattern[i] = t[1]
        for triple in store.lookup((pattern[0], pattern[1], pattern[2])):
            env2 = env
            ok = True
            for i, t in enumerate(coded):
                if isinstance(t, Var) and t not in env:
                    if env2 is env:
                        env2 = dict(env)
                    if t in env2 and env2[t] != triple[i]:
                        # same fresh variable at two positions of this atom
                        ok = False
                        break
                    env2[t] = triple[i]
            if ok:
                rec(k + 1, env2)

    rec(0, {})
    return results


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
