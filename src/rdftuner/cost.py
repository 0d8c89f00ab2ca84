"""Combined cost of a candidate state: space, rewriting effort, maintenance.

Cardinalities come from exact per-shape triple counts combined under uniform
independence: the estimated size of a connected body is the product of its
atom counts divided, for every variable shared by k atoms, by the largest of
the variable's per-atom domain sizes taken k-1 times.  Domain sizes derive
from stored per-column distinct counts only, so relaxing a constant in one
atom changes exactly one factor of the product, and never downward.  Factor
lists are multiplied in sorted order, which makes the estimate a function of
the body's isomorphism class, not of atom order or variable names.

Operator trees are costed by associating each node with the conjunctive body
it computes: a selection that re-binds a cut constant is costed as the view
it reconstructs, so wrapping a view in compensating operators never changes
the cardinalities seen higher in the tree.  Reading a view costs its row
count; selections cost their input rows; hash joins cost input plus output
rows; projections and renames are free.  These choices make a selection cut
never decrease, and a view fusion never increase, the total cost, which the
search relies on.

A transition changes a few views and the rewritings that scan them; the rest
of the child state is the parent's own objects, and what the transition
makes is often a copy of a view or tree costed before, under a fresh view
name.  A variable a transition invents is the lowest `F<i>` its view does
not use (`queries.fresh_var`), so one transition of one view makes views
with equal terms in every state that holds the view.  state_cost
therefore memoizes each view's space and maintenance terms by the view's
head and body, and each rewriting's cost by the `Rewriting` object, in a
weak table whose entries go with their states, and, on a miss there, by
the tree's shape (`_tree_shape`: the tree with each scan replaced by its
view's head and body).  A rewriting is made against one state's views and
handed on only to children that keep every view it scans, and view names
are fresh within a `TransitionContext`, so it never meets another view
under a name it scans.

Costs do not depend on the names of invented variables: the selection or
rename right above each scan of a cut view (SC's `Select(f=c)`, JC's
`Select(f=x)` or `Rename(f->x)`) eliminates its fresh variable, so the body
a walk derives above it holds the variables of the view it replaces, and
the projection above restores that view's columns.  A memoized value is the
same to the last bit as a fresh computation, and a child state pays only
for what its transition changed: the terms are summed in the same order as
a full recomputation, so the totals are the same to the last bit too.
"""

from __future__ import annotations

import math
import weakref

from .algebra import (
    Expr,
    NatJoin,
    Project,
    Rename,
    Scan,
    Select,
)
from .queries import ConjunctiveQuery, Const, QueryError, Term, TripleAtom, Var, _Record, _set
from .states import Rewriting, State
from .stats import WorkloadStatistics


class CostWeights(_Record):
    __slots__ = _fields = ("cs", "cr", "cm", "c1", "c2", "f")
    cs: float  # space
    cr: float  # rewriting evaluation
    cm: float  # maintenance
    c1: float  # io component of evaluation
    c2: float  # cpu component of evaluation
    f: float   # maintenance growth per body atom

    def __init__(self, cs: float = 1.0, cr: float = 1.0, cm: float = 0.5, c1: float = 1.0,
                 c2: float = 1.0, f: float = 2.0) -> None:
        for name, w in zip(self._fields, (cs, cr, cm, c1, c2, f)):
            # a negative weight lets a selection cut lower the cost or a view
            # fusion raise it; NaN fails the comparison too
            if not 0.0 <= w < math.inf:
                raise ValueError(f"cost weight {name} (--{name}) must be finite and "
                                 f"at least 0, got {w}")
            _set(self, name, w)


class CostBreakdown(_Record):
    __slots__ = _fields = ("vso", "rec", "vmc", "total")
    vso: float
    rec: float
    vmc: float
    total: float

    def __init__(self, vso: float, rec: float, vmc: float, total: float) -> None:
        _set(self, "vso", vso)
        _set(self, "rec", rec)
        _set(self, "vmc", vmc)
        _set(self, "total", total)


def _sorted_product(factors: list[float]) -> float:
    out = 1.0
    for x in sorted(factors):
        out *= x
    return out


def _subst_body(body: tuple[TripleAtom, ...], mapping: dict[Var, Term]):
    def sub(t: Term) -> Term:
        return mapping.get(t, t) if isinstance(t, Var) else t

    return tuple(TripleAtom(sub(a.s), sub(a.p), sub(a.o)) for a in body)


def _merge_bodies(left: tuple[TripleAtom, ...], right: tuple[TripleAtom, ...]):
    out = list(left)
    for a in right:
        if a not in out:
            out.append(a)
    return tuple(out)


class Estimator:
    def __init__(self, stats: WorkloadStatistics, weights: CostWeights | None = None):
        self.stats = stats
        self.weights = weights or CostWeights()
        self._row_cache: dict[tuple[TripleAtom, ...], float] = {}
        # by state object: uids restart with every TransitionContext
        self._state_cache: weakref.WeakKeyDictionary[State, CostBreakdown] = (
            weakref.WeakKeyDictionary()
        )
        # (view head, view body) -> (vso term, vmc term)
        self._view_terms: dict[tuple, tuple[float, float]] = {}
        # by rewriting object, weakly: a state's children share its rewritings
        self._costs_by_rewriting: weakref.WeakKeyDictionary[Rewriting, float] = (
            weakref.WeakKeyDictionary()
        )
        # tree shape -> its cost
        self._shape_costs: dict[tuple, float] = {}
        # hits of each memo; every miss adds one entry (see cache_counts)
        self._hits = {"rows": 0, "view_terms": 0, "rewriting_by_tree": 0,
                      "rewriting_by_shape": 0}

    # -- cardinality ------------------------------------------------------

    def body_rows(self, body: tuple[TripleAtom, ...]) -> float:
        cached = self._row_cache.get(body)
        if cached is not None:
            self._hits["rows"] += 1
            return cached
        counts = [float(self.stats.count(a)) for a in body]
        if any(c == 0.0 for c in counts):
            self._row_cache[body] = 0.0
            return 0.0
        atoms_of: dict[Var, list[int]] = {}
        for i, a in enumerate(body):
            for v in dict.fromkeys(a.variables()):
                atoms_of.setdefault(v, []).append(i)
        divisors: list[float] = []
        for v, idxs in atoms_of.items():
            if len(idxs) < 2:
                continue
            dv = 0.0
            for i in idxs:
                positions = [
                    p for p, t in enumerate(body[i].terms) if t == v
                ]
                local = min(self.stats.columns[p].distinct for p in positions)
                dv = max(dv, float(local))
            divisors.extend([max(dv, 1.0)] * (len(idxs) - 1))
        rows = _sorted_product(counts) / _sorted_product(divisors)
        rows = max(rows, 1.0)
        self._row_cache[body] = rows
        return rows

    def view_rows(self, view: ConjunctiveQuery) -> float:
        return self.body_rows(view.body)

    def view_width(self, view: ConjunctiveQuery) -> float:
        """Estimated bytes per stored row."""
        positions_of: dict[Var, set[int]] = {}
        for a in view.body:
            for p, t in enumerate(a.terms):
                if isinstance(t, Var):
                    positions_of.setdefault(t, set()).add(p)
        width = 0.0
        for t in view.head:
            if isinstance(t, Const):
                width += float(len(t.symbol.encode("utf-8")))
            else:
                pos = positions_of.get(t)
                if not pos:
                    raise QueryError(f"head variable {t} of {view.name} unbound")
                width += max(self.stats.columns[p].avg_size for p in pos)
        return width

    # -- operator trees ---------------------------------------------------

    def _walk(self, expr: Expr, views: dict[str, ConjunctiveQuery]) -> tuple:
        """Returns (body, rows, io, cpu) for one subtree: its derived body
        (None over a union), its cardinality, and the io and cpu of
        computing it."""
        if isinstance(expr, Scan):
            view = views[expr.view]
            rows = self.view_rows(view)
            return view.body, rows, rows, 0.0

        if isinstance(expr, Select):
            body, rows, io, cpu = self._walk(expr.child, views)
            if body is None:
                raise QueryError("selection over a union is unsupported")
            bound = _subst_body(body, {expr.left: expr.right})  # type: ignore[dict-item]
            return bound, self.body_rows(bound), io, cpu + rows

        if isinstance(expr, Project):
            return self._walk(expr.child, views)

        if isinstance(expr, Rename):
            body, rows, io, cpu = self._walk(expr.child, views)
            if body is not None:
                body = _subst_body(body, dict(expr.mapping))
            return body, rows, io, cpu

        if isinstance(expr, NatJoin):
            lbody, lrows, lio, lcpu = self._walk(expr.left, views)
            rbody, rrows, rio, rcpu = self._walk(expr.right, views)
            if lbody is None or rbody is None:
                raise QueryError("join over a union is unsupported")
            body = _merge_bodies(lbody, rbody)
            card = self.body_rows(body)
            return body, card, lio + rio, lcpu + rcpu + lrows + rrows + card

        # union: members are independent plans over disjoint scans
        parts = [self._walk(c, views) for c in expr.children]
        card = sum(p[1] for p in parts)
        io = sum(p[2] for p in parts)
        return None, card, io, sum(p[3] for p in parts) + card

    def rewriting_cost(self, expr: Expr, views: dict[str, ConjunctiveQuery]) -> float:
        _, _, io, cpu = self._walk(expr, views)
        return self.weights.c1 * io + self.weights.c2 * cpu

    # -- state cost -------------------------------------------------------

    def state_cost(self, state: State) -> CostBreakdown:
        cached = self._state_cache.get(state)
        if cached is not None:
            return cached
        w = self.weights
        vso = 0.0
        vmc = 0.0
        for v in state.views:
            key = (v.head, v.body)
            terms = self._view_terms.get(key)
            if terms is None:
                terms = (self.view_rows(v) * self.view_width(v), math.pow(w.f, len(v.body)))
                self._view_terms[key] = terms
            else:
                self._hits["view_terms"] += 1
            vso += terms[0]
            vmc += terms[1]
        by_name = {v.name: v for v in state.views}
        rec = 0.0
        for r in state.rewritings:
            cost = self._costs_by_rewriting.get(r)
            if cost is not None:
                self._hits["rewriting_by_tree"] += 1
            else:
                key = _tree_shape(r.expr, by_name)
                cost = self._shape_costs.get(key)
                if cost is None:
                    cost = self._shape_costs[key] = self.rewriting_cost(r.expr, by_name)
                else:
                    self._hits["rewriting_by_shape"] += 1
                self._costs_by_rewriting[r] = cost
            rec += cost
        total = w.cs * vso + w.cr * rec + w.cm * vmc
        out = CostBreakdown(vso, rec, vmc, total)
        self._state_cache[state] = out
        return out

    def cache_counts(self) -> dict[str, dict[str, int]]:
        """Hits and misses of each memo since the estimator was made: row
        estimates by body, view terms by view head and body, rewriting costs
        by the `Rewriting` object (`rewriting_by_tree`) and by tree shape.  The
        memo by rewriting evicts with its rewritings, and its misses are the
        lookups by tree shape; no other memo evicts, so their misses are
        their sizes."""
        hits = self._hits
        misses = {"rows": len(self._row_cache), "view_terms": len(self._view_terms),
                  "rewriting_by_shape": len(self._shape_costs)}
        misses["rewriting_by_tree"] = hits["rewriting_by_shape"] + misses["rewriting_by_shape"]
        return {name: {"hits": hits[name], "misses": misses[name]} for name in hits}


def _tree_shape(expr: Expr, views: dict[str, ConjunctiveQuery]) -> tuple:
    """The tree in preorder, a flat tuple: each node's type and its terms,
    a scan as its view's head and body, a union with its number of
    children.  Two trees get equal shapes exactly when they are equal up to
    the names of the views they scan."""
    out: list = []
    stack = [expr]
    while stack:
        e = stack.pop()
        kind = type(e)
        out.append(kind)
        if kind is Scan:
            view = views[e.view]
            out += (view.head, view.body)
        elif kind is Select:
            out += (e.left, e.right)
            stack.append(e.child)
        elif kind is Project:
            out.append(e.columns)
            stack.append(e.child)
        elif kind is Rename:
            out.append(e.mapping)
            stack.append(e.child)
        elif kind is NatJoin:
            stack += (e.right, e.left)
        else:
            out.append(len(e.children))
            stack += reversed(e.children)
    return tuple(out)
