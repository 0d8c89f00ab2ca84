"""Search states and the four state transitions.

A state pairs a set of candidate views with one complete rewriting per
workload query.  Transitions refine the views and patch every rewriting that
mentions the replaced view symbol:

  SC  cut a selection edge: a constant becomes a fresh head variable, the
      rewriting compensates with a selection.
  JC  cut a join edge: one occurrence of a joined variable becomes a fresh
      head variable; the view either survives with a selection on the two
      columns or splits into two views, which the rewriting joins back
      naturally once it renames the fresh variable to the cut one.
  VB  break a view into two connected pieces that cover it, each holding an
      atom the other lacks (they may share atoms), rejoined naturally.
  VF  fuse two views with isomorphic bodies into one serving both roles.

SC, JC and VB give each view they make the same head: the replaced view's
head terms that its atoms bind, its head constants unless the piece is the
second of two, and then each join variable the head still lacks (the fresh
variable of a cut, the cut variable, or the variables two pieces share).
The fresh variable of a cut is the lowest F1, F2, ... that the cut view
does not use (`queries.fresh_var`), so one transition of one view makes
views of equal heads and bodies in every state that holds it.  VF fuses only
views of one canonical body form.

States are identified up to view renaming by a signature of canonical view
keys, which is what the search layers deduplicate on.
"""

from __future__ import annotations

import itertools

from .algebra import (
    Expr,
    NatJoin,
    Project,
    Rename,
    Scan,
    Select,
    UnionOp,
    replace_scans,
)
from .queries import (
    POSITIONS,
    ConjunctiveQuery,
    Const,
    QueryError,
    Term,
    UnionQuery,
    Var,
    _Record,
    _set,
    bodies_isomorphic,
    canonical_body_key,
    canonical_key,
    check_workload_query,
    connected_components,
    fresh_var,
    is_connected,
    view_key,
)

KINDS = ("VB", "SC", "JC", "VF")


# compared by identity, and weakly referenced: the estimator memoizes a
# rewriting's cost on the object, which a state's children share while they
# keep the views it scans
class Rewriting(_Record):
    __slots__ = ("query_name", "expr", "__weakref__")
    _fields = ("query_name", "expr")
    __eq__ = object.__eq__
    __hash__ = object.__hash__
    query_name: str
    expr: Expr

    def __init__(self, query_name: str, expr: Expr) -> None:
        _set(self, "query_name", query_name)
        _set(self, "expr", expr)


class State(_Record):
    """Views and rewritings, compared by identity like `Rewriting` and
    keyed weakly by the estimator's memo.  `signature` is computed from the
    views, so it is no field: a copy is built from the other three."""

    __slots__ = ("views", "rewritings", "uid", "signature", "__weakref__")
    _fields = ("views", "rewritings", "uid")
    __eq__ = object.__eq__
    __hash__ = object.__hash__
    views: tuple[ConjunctiveQuery, ...]
    rewritings: tuple[Rewriting, ...]
    uid: int
    signature: tuple[str, ...]

    def __init__(
        self, views: tuple[ConjunctiveQuery, ...], rewritings: tuple[Rewriting, ...], uid: int
    ) -> None:
        _set(self, "views", views)
        _set(self, "rewritings", rewritings)
        _set(self, "uid", uid)
        _set(self, "signature", tuple(sorted(view_key(v) for v in views)))

    def __repr__(self) -> str:
        return f"State(uid={self.uid}, views={[v.name for v in self.views]})"


class Transition(_Record):
    __slots__ = _fields = ("kind", "label", "state")
    kind: str
    label: str
    state: State

    def __init__(self, kind: str, label: str, state: State) -> None:
        _set(self, "kind", kind)
        _set(self, "label", label)
        _set(self, "state", state)


class TransitionContext:
    """Supplies globally fresh view names and state ids."""

    def __init__(self) -> None:
        self._view_n = 0
        self._uid = 0

    def view_name(self) -> str:
        self._view_n += 1
        return f"v{self._view_n}"

    def next_uid(self) -> int:
        self._uid += 1
        return self._uid


def initial_state(
    queries: list[ConjunctiveQuery | UnionQuery], ctx: TransitionContext
) -> State:
    """One view per workload query.  A query given as a union, such as the
    entailment-aware rewriting of a query (`reasoning.reformulate`), gets
    one view per member, and its rewriting unites their scans."""
    if not queries:
        raise QueryError("empty workload")
    views: list[ConjunctiveQuery] = []
    rewritings: list[Rewriting] = []
    for q in queries:
        if isinstance(q, UnionQuery):
            members = q.members
            for m in members:
                for a in m.body:
                    if a.n_constants() == 3:
                        raise QueryError(
                            f"{q.name}: entailment-aware rewriting produces atom {a} "
                            "with three constants; such views are unsupported, "
                            "use saturation or post-reformulation instead"
                        )
                if len(connected_components(m.body)) > 1:
                    raise QueryError(
                        f"{q.name}: entailment-aware rewriting disconnects a member; "
                        "use saturation or post-reformulation instead"
                    )
        else:
            check_workload_query(q)
            members = (q,)
        scans: list[Expr] = []
        for m in members:
            v = ConjunctiveQuery(ctx.view_name(), m.head, m.body)
            views.append(v)
            scans.append(Scan(v.name))
        rewritings.append(
            Rewriting(q.name, scans[0] if len(scans) == 1 else UnionOp(tuple(scans)))
        )
    return State(tuple(views), tuple(rewritings), ctx.next_uid())


# ---------------------------------------------------------------------------
# transition helpers


def _patched(state: State, ctx: TransitionContext,
             replaced: dict[int, list[ConjunctiveQuery]], mapping: dict[str, Expr]) -> State:
    """The child whose view at each slot of `replaced` gives way to the
    listed views, and whose rewritings have their scans replaced by
    `mapping`; a rewriting that scans no replaced view is kept as the same
    object, tree and all."""
    views = state.views
    for slot in sorted(replaced, reverse=True):
        views = views[:slot] + tuple(replaced[slot]) + views[slot + 1 :]
    rewritings = []
    for r in state.rewritings:
        expr = replace_scans(r.expr, mapping)
        rewritings.append(r if expr is r.expr else Rewriting(r.query_name, expr))
    return State(views, tuple(rewritings), ctx.next_uid())


def _terms(atoms) -> set[Term]:
    return set().union(*[a.terms for a in atoms])


def _piece(ctx: TransitionContext, view: ConjunctiveQuery, body: tuple, idxs,
           joins, constants: bool = True) -> ConjunctiveQuery:
    """The new view over the atoms `idxs` of `body`, the view's body or a
    cut of it, under the head rule of the module docstring."""
    atoms = tuple([body[i] for i in idxs])
    bound = _terms(atoms)
    head = tuple([t for t in view.head if (constants if isinstance(t, Const) else t in bound)])
    head += tuple([v for v in joins if v not in head])
    return ConjunctiveQuery(ctx.view_name(), head, atoms)


# ---------------------------------------------------------------------------
# the four transitions


def selection_cuts(state: State, slot: int, ctx: TransitionContext):
    view = state.views[slot]
    f = fresh_var("F", view)
    for ai, a in enumerate(view.body):
        for pos, term in enumerate(a.terms):
            if not isinstance(term, Const):
                continue
            body = view.body[:ai] + (a.replace(pos, f),) + view.body[ai + 1 :]
            new = _piece(ctx, view, body, range(len(body)), (f,))
            expr = Project(Select(Scan(new.name), f, term), view.head)
            label = f"SC {view.name}:n{ai + 1}.{POSITIONS[pos]}={term.symbol}"
            yield label, _patched(state, ctx, {slot: [new]}, {view.name: expr})


def join_cuts(state: State, slot: int, ctx: TransitionContext):
    view = state.views[slot]
    f = fresh_var("F", view)
    for ai, a in enumerate(view.body):
        others = view.body[:ai] + view.body[ai + 1 :]
        for pos, x in enumerate(a.terms):
            # a join edge reaches this occurrence when another atom holds x
            if not isinstance(x, Var) or not any(x in b.terms for b in others):
                continue
            body = view.body[:ai] + (a.replace(pos, f),) + view.body[ai + 1 :]
            comps = connected_components(body)
            label = f"JC {view.name}:n{ai + 1}.{POSITIONS[pos]}({x})"
            if len(comps) == 1:
                new = _piece(ctx, view, body, range(len(body)), (x, f))
                expr = Project(Select(Scan(new.name), f, x), view.head)
                yield label, _patched(state, ctx, {slot: [new]}, {view.name: expr})
            else:
                comp_f = next(c for c in comps if ai in c)
                comp_x = next(c for c in comps if ai not in c)
                new_f = _piece(ctx, view, body, comp_f, (f,))
                new_x = _piece(ctx, view, body, comp_x, (x,), constants=False)
                expr = Project(
                    NatJoin(Rename(Scan(new_f.name), ((f, x),)), Scan(new_x.name)),
                    view.head,
                )
                yield label, _patched(state, ctx, {slot: [new_f, new_x]}, {view.name: expr})


def view_breaks(state: State, slot: int, ctx: TransitionContext):
    view = state.views[slot]
    body = view.body
    n = len(body)
    if n <= 2:
        return
    order = view.variables()
    # the connected proper atom subsets, by size and then index order
    pieces = []
    for k in range(1, n):
        for idxs in itertools.combinations(range(n), k):
            atoms = tuple([body[i] for i in idxs])
            if is_connected(atoms):
                pieces.append((idxs, sum(1 << i for i in idxs), _terms(atoms)))
    # every pair that covers the body is a break: two proper subsets that
    # cover it cannot hold each other
    full = (1 << n) - 1
    for p, (n1, mask1, terms1) in enumerate(pieces):
        for n2, mask2, terms2 in pieces[p + 1 :]:
            if mask1 | mask2 != full:
                continue
            shared = [v for v in order if v in terms1 and v in terms2]
            v1 = _piece(ctx, view, body, n1, shared)
            v2 = _piece(ctx, view, body, n2, shared, constants=False)
            expr = Project(NatJoin(Scan(v1.name), Scan(v2.name)), view.head)
            label = (
                f"VB {view.name}:"
                f"{{{','.join(f'n{i + 1}' for i in n1)}}}"
                f"|{{{','.join(f'n{i + 1}' for i in n2)}}}"
            )
            yield label, _patched(state, ctx, {slot: [v1, v2]}, {view.name: expr})


def view_fusions(state: State, ctx: TransitionContext):
    # only views of one body form can fuse: try the pairs within each form
    forms: dict[str, list[int]] = {}
    for i, v in enumerate(state.views):
        forms.setdefault(canonical_body_key(v), []).append(i)
    candidates = sorted(
        pair for group in forms.values() for pair in itertools.combinations(group, 2)
    )
    for i, j in candidates:
        v1, v2 = state.views[i], state.views[j]
        isos = bodies_isomorphic(v1, v2)
        # Distinct isomorphisms can induce distinct fused heads (two
        # all-variable atoms can line up straight or crosswise).
        # bodies_isomorphic returns one renaming per image of v2's head, so
        # every outcome is here; each is its own transition, as collapsing
        # them to one would make fusion order matter and lose states from
        # the stratified orders.
        variants: dict[str, tuple[dict[Var, Var], tuple[Term, ...]]] = {}
        for rho in isos:
            fused: list[Term] = list(v1.head)
            for t in v2.head:
                mapped: Term = rho[t] if isinstance(t, Var) else t
                if mapped not in fused:
                    fused.append(mapped)
            key = canonical_key(ConjunctiveQuery("", tuple(fused), v1.body))
            variants.setdefault(key, (rho, tuple(fused)))
        for n, variant_key in enumerate(sorted(variants)):
            rho, fused_head = variants[variant_key]
            new = ConjunctiveQuery(ctx.view_name(), fused_head, v1.body)
            expr1: Expr = Scan(new.name)
            if fused_head != v1.head:
                expr1 = Project(expr1, v1.head)
            inv = {u: w for w, u in rho.items()}
            pairs = tuple(
                sorted(
                    ((u, w) for u, w in inv.items() if u != w),
                    key=lambda p: p[0].name,
                )
            )
            expr2: Expr = Scan(new.name)
            if pairs:
                expr2 = Rename(expr2, pairs)
            renamed_cols = tuple(
                inv.get(t, t) if isinstance(t, Var) else t for t in fused_head
            )
            if renamed_cols != v2.head:
                expr2 = Project(expr2, v2.head)
            label = f"VF {v1.name}+{v2.name}"
            if n:
                label += f"#{n + 1}"
            yield label, _patched(state, ctx, {i: [new], j: []},
                                  {v1.name: expr1, v2.name: expr2})


# ---------------------------------------------------------------------------
# enumeration


def iter_transitions(state: State, ctx: TransitionContext, kinds=KINDS):
    """All transitions of the requested kinds, in a fixed deterministic order.

    Duplicates (children equal to previously seen states) are not filtered
    here; search layers that need deduplication do it on signatures.
    """
    for kind in kinds:
        if kind == "VF":
            for label, child in view_fusions(state, ctx):
                yield Transition(kind, label, child)
            continue
        fn = {"VB": view_breaks, "SC": selection_cuts, "JC": join_cuts}[kind]
        for slot in range(len(state.views)):
            for label, child in fn(state, slot, ctx):
                yield Transition(kind, label, child)
