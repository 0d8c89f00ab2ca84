"""Workload statistics driving cardinality and cost estimation.

For every atom of every workload query we record the exact number of matching
triples, together with the count of every relaxation of the atom: any subset
of its constants replaced by fresh variables, and any refinement of its
repeated-variable pattern (a join cut may sever one occurrence of a repeated
variable, producing an atom the original pattern does not cover).

Counts are taken on the store the caller picks, which must hold the triples
the views' answers are drawn from.  The command line picks the saturated
store for saturation and for post-reformulation, and the raw store
otherwise: a post-reformulated view is materialized as its reformulation
over the raw store, whose answers are exactly the view's answers over the
saturated store.
"""

from __future__ import annotations

import json
from collections import Counter
from operator import itemgetter

from .queries import ConjunctiveQuery, Const, TripleAtom, Var, _Record, _set
from .store import TripleStore

PatternKey = tuple[tuple[str, str | int], ...]


class MissingStatisticError(LookupError):
    """An estimate was requested for an atom shape never collected."""


def pattern_of(a: TripleAtom) -> PatternKey:
    """Shape of an atom: constants by value, variables by equality class."""
    classes: dict[Var, int] = {}
    out: list[tuple[str, str | int]] = []
    for t in a.terms:
        if isinstance(t, Const):
            out.append(("c", t.symbol))
        else:
            out.append(("v", classes.setdefault(t, len(classes))))
    return tuple(out)


def pattern_atom(key: PatternKey) -> TripleAtom:
    terms = [
        Const(val) if kind == "c" else Var(f"x{val}")  # type: ignore[arg-type]
        for kind, val in key
    ]
    return TripleAtom(terms[0], terms[1], terms[2])


def atom_patterns(a: TripleAtom) -> set[PatternKey]:
    """Every pattern a chain of selection and join cuts can reach from this
    atom: the closure of its pattern under making one position a fresh
    variable, which a selection cut does to a constant and a join cut to
    one occurrence of a variable."""
    out: set[PatternKey] = set()
    todo = [pattern_of(a)]
    while todo:
        key = todo.pop()
        if key not in out:
            out.add(key)
            # pattern_atom names its variables x0 to x2, so x3 is fresh
            probe = pattern_atom(key)
            todo += [pattern_of(probe.replace(i, Var("x3"))) for i in range(3)]
    return out


class ColumnStats(_Record):
    __slots__ = _fields = ("distinct", "avg_size", "min_size", "max_size")
    distinct: int
    avg_size: float
    min_size: int
    max_size: int

    def __init__(self, distinct: int, avg_size: float, min_size: int, max_size: int) -> None:
        _set(self, "distinct", distinct)
        _set(self, "avg_size", avg_size)
        _set(self, "min_size", min_size)
        _set(self, "max_size", max_size)


class WorkloadStatistics:
    def __init__(
        self,
        triple_count: int,
        columns: tuple[ColumnStats, ColumnStats, ColumnStats],
        pattern_counts: dict[PatternKey, int],
    ) -> None:
        self.triple_count = triple_count
        self.columns = columns
        self.pattern_counts = pattern_counts

    def count(self, a: TripleAtom) -> int:
        key = pattern_of(a)
        try:
            return self.pattern_counts[key]
        except KeyError:
            raise MissingStatisticError(
                f"no count collected for atom shape {pattern_atom(key)}"
            ) from None

    def to_json(self) -> dict:
        return {
            "triple_count": self.triple_count,
            "columns": [
                {
                    "distinct": c.distinct,
                    "avg_size": c.avg_size,
                    "min_size": c.min_size,
                    "max_size": c.max_size,
                }
                for c in self.columns
            ],
            "patterns": [
                {"key": list(map(list, k)), "count": n}
                for k, n in sorted(self.pattern_counts.items(), key=lambda kv: str(kv[0]))
            ],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


def _column_stats(store: TripleStore) -> tuple[ColumnStats, ...]:
    """Per position, computed from codes with one byte length per distinct
    code: the sums are of integers, so the order of the triples is moot."""
    cols = []
    for pos in range(3):
        counts = Counter(map(itemgetter(pos), store.triples))
        if not counts:
            cols.append(ColumnStats(0, 0.0, 0, 0))
            continue
        sizes = {code: len(store.dictionary.symbol(code).encode("utf-8")) for code in counts}
        cols.append(
            ColumnStats(
                distinct=len(counts),
                avg_size=sum(n * sizes[code] for code, n in counts.items()) / len(store),
                min_size=min(sizes.values()),
                max_size=max(sizes.values()),
            )
        )
    return tuple(cols)


def collect_statistics(
    queries: list[ConjunctiveQuery], store: TripleStore
) -> WorkloadStatistics:
    """Count every shape of every workload atom, and the column statistics,
    on `store`, the store the caller picks (see the module docstring)."""
    keys: set[PatternKey] = set()
    for q in queries:
        for a in q.body:
            keys.update(atom_patterns(a))
    counts = {key: store.count_pattern(pattern_atom(key)) for key in keys}
    return WorkloadStatistics(len(store), _column_stats(store), counts)  # type: ignore[arg-type]
