"""Dictionary-encoded in-memory triple store with pattern indexes.

Symbols are interned into dense integer codes once at load time; everything
downstream joins on integers.  Indexes cover every bound-position mask so a
single atom lookup never scans more than its candidates.

Loading collapses duplicate triples.  Triple text is one triple per line,
three whitespace-separated tokens; tokens are bare URIs, <wrapped> IRIs, or
double-quoted literals (quotes kept as part of the symbol), and '#' outside
quotes starts a comment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .queries import Const, ConjunctiveQuery, QueryError, Term, TripleAtom, UnionQuery, Var

Triple = tuple[int, int, int]


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
        self._index: dict[tuple[int, ...], dict[tuple[int, ...], list[Triple]]] = {}

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

    def _index_for(self, mask: tuple[int, ...]) -> dict[tuple[int, ...], list[Triple]]:
        idx = self._index.get(mask)
        if idx is None:
            idx = {}
            for t in self.triples:
                key = tuple(t[i] for i in mask)
                idx.setdefault(key, []).append(t)
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
        key = tuple(pattern[i] for i in mask)
        return self._index_for(mask).get(key, [])  # type: ignore[arg-type]

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


def _tokenize_line(line: str, where: str) -> list[str]:
    toks: list[str] = []
    i, n = 0, len(line)
    while i < n:
        ch = line[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "#":
            break
        if ch == '"':
            j = i + 1
            while j < n and line[j] != '"':
                j += 1
            if j >= n:
                raise StoreError(f"{where}: unterminated literal")
            toks.append(line[i : j + 1])
            i = j + 1
        else:
            j = i
            while j < n and not line[j].isspace() and line[j] != "#":
                j += 1
            tok = line[i:j]
            if tok.startswith("<") and tok.endswith(">") and len(tok) > 2:
                tok = tok[1:-1]
            toks.append(tok)
            i = j
    return toks


def load_triples(text: str, store: TripleStore | None = None) -> TripleStore:
    store = store or TripleStore()
    for lineno, line in enumerate(text.splitlines(), start=1):
        where = f"line {lineno}"
        toks = _tokenize_line(line, where)
        if not toks:
            continue
        if len(toks) != 3:
            raise StoreError(f"{where}: expected 3 terms, got {len(toks)}")
        store.add(*toks)
    return store


def dump_triples(store: TripleStore) -> str:
    lines = sorted(" ".join(_render(sym) for sym in store.symbols(t)) for t in store.triples)
    return "\n".join(lines) + ("\n" if lines else "")


def _render(sym: str) -> str:
    if sym.startswith('"'):
        return sym
    if any(ch.isspace() for ch in sym) or sym.startswith("#"):
        return f"<{sym}>"
    return sym


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


@dataclass(frozen=True)
class Relation:
    """A materialized view: named columns plus a set of symbol rows."""

    name: str
    columns: tuple[Term, ...]
    rows: frozenset[tuple[str, ...]] = field(default_factory=frozenset)

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
