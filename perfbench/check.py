"""Reference answers the benchmark checks the program's outputs against.

Saturation here is an independent worklist fixpoint of the four RDFS rules
the package implements, so a defect in `rdftuner.reasoning.saturate` cannot
hide itself.  Queries are answered by `rdftuner.store.evaluate` directly
over the (saturated) store, the path the views and rewritings must agree
with.
"""

from __future__ import annotations

from rdftuner.queries import RDF_TYPE
from rdftuner.reasoning import DOMAIN, RANGE, SUBCLASS, SUBPROPERTY
from rdftuner.store import TripleStore

Triple = tuple[str, str, str]


def _closure(pairs: list[tuple[str, str]]) -> dict[str, set[str]]:
    """x -> every y with x below y, x itself included."""
    up: dict[str, set[str]] = {}
    for a, b in pairs:
        up.setdefault(a, set()).add(b)
    out: dict[str, set[str]] = {}
    for start in {x for pair in pairs for x in pair}:
        seen = {start}
        todo = [start]
        while todo:
            for y in up.get(todo.pop(), ()):
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        out[start] = seen
    return out


def saturate_reference(triples: set[Triple], statements: set[Triple]) -> set[Triple]:
    """The instance-level RDFS closure of `triples` under `statements`,
    given as (kind, left, right)."""
    sub_c = _closure([(a, b) for k, a, b in statements if k == SUBCLASS])
    sub_p = _closure([(a, b) for k, a, b in statements if k == SUBPROPERTY])
    domain = [(a, b) for k, a, b in statements if k == DOMAIN]
    range_ = [(a, b) for k, a, b in statements if k == RANGE]
    typ = RDF_TYPE.symbol
    out = set(triples)
    todo = list(out)
    while todo:
        s, p, o = todo.pop()
        if p == typ:
            new = [(s, typ, c) for c in sub_c.get(o, ())]
        else:
            new = [(s, p2, o) for p2 in sub_p.get(p, ())]
            new += [(s, typ, c) for prop, c in domain if prop == p]
            new += [(o, typ, c) for prop, c in range_ if prop == p]
        for t in new:
            if t not in out:
                out.add(t)
                todo.append(t)
    return out


def store_of(triples: set[Triple]) -> TripleStore:
    store = TripleStore()
    for s, p, o in sorted(triples):
        store.add(s, p, o)
    return store


def read_tsv(text: str) -> set[tuple[str, ...]]:
    """Rows of an `rdftuner answer` output, header dropped."""
    lines = text.splitlines()[1:]
    return {tuple(line.split("\t")) for line in lines}
