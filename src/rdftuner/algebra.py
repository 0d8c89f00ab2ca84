"""Relational algebra trees over view symbols: the rewriting language.

A rewriting is an operator tree whose leaves scan materialized views and whose
output columns are exactly the head terms of the workload query it answers.
Trees are immutable; transitions rewrite them by substituting expressions for
scan leaves (replace_scans).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterator, Union

from .queries import Const, QueryError, Term, Var, _Record, _set
from .store import Relation


class Scan(_Record):
    __slots__ = _fields = ("view",)
    view: str

    def __init__(self, view: str) -> None:
        _set(self, "view", view)


class Select(_Record):
    __slots__ = _fields = ("child", "left", "right")
    child: Expr
    left: Term
    right: Term

    def __init__(self, child: Expr, left: Term, right: Term) -> None:
        _set(self, "child", child)
        _set(self, "left", left)
        _set(self, "right", right)


class Project(_Record):
    __slots__ = _fields = ("child", "columns")
    child: Expr
    columns: tuple[Term, ...]

    def __init__(self, child: Expr, columns: tuple[Term, ...]) -> None:
        _set(self, "child", child)
        _set(self, "columns", columns)


class NatJoin(_Record):
    __slots__ = _fields = ("left", "right")
    left: Expr
    right: Expr

    def __init__(self, left: Expr, right: Expr) -> None:
        _set(self, "left", left)
        _set(self, "right", right)


class Rename(_Record):
    __slots__ = _fields = ("child", "mapping")
    child: Expr
    mapping: tuple[tuple[Var, Var], ...]

    def __init__(self, child: Expr, mapping: tuple[tuple[Var, Var], ...]) -> None:
        _set(self, "child", child)
        _set(self, "mapping", mapping)


class UnionOp(_Record):
    __slots__ = _fields = ("children",)
    children: tuple[Expr, ...]

    def __init__(self, children: tuple[Expr, ...]) -> None:
        _set(self, "children", children)


Expr = Union[Scan, Select, Project, NatJoin, Rename, UnionOp]


def scan_views(expr: Expr) -> Iterator[str]:
    """View names at the leaves, one per scan occurrence."""
    if isinstance(expr, Scan):
        yield expr.view
    elif isinstance(expr, (Select, Project, Rename)):
        yield from scan_views(expr.child)
    elif isinstance(expr, NatJoin):
        yield from scan_views(expr.left)
        yield from scan_views(expr.right)
    else:
        for c in expr.children:
            yield from scan_views(c)


def replace_scans(expr: Expr, mapping: dict[str, Expr]) -> Expr:
    """Substitute expressions for scan leaves.  Every subtree holding no
    replaced scan is returned as the same object, so a patched tree shares
    its untouched parts with the original."""
    if isinstance(expr, Scan):
        return mapping.get(expr.view, expr)
    if isinstance(expr, Select):
        child = replace_scans(expr.child, mapping)
        return expr if child is expr.child else Select(child, expr.left, expr.right)
    if isinstance(expr, Project):
        child = replace_scans(expr.child, mapping)
        return expr if child is expr.child else Project(child, expr.columns)
    if isinstance(expr, Rename):
        child = replace_scans(expr.child, mapping)
        return expr if child is expr.child else Rename(child, expr.mapping)
    if isinstance(expr, NatJoin):
        left = replace_scans(expr.left, mapping)
        right = replace_scans(expr.right, mapping)
        if left is expr.left and right is expr.right:
            return expr
        return NatJoin(left, right)
    children = tuple(replace_scans(c, mapping) for c in expr.children)
    if all(new is old for new, old in zip(children, expr.children)):
        return expr
    return UnionOp(children)


# ---------------------------------------------------------------------------
# evaluation over materialized relations


def _col_index(columns: tuple[Term, ...], t: Term) -> int:
    for i, c in enumerate(columns):
        if c == t:
            return i
    raise QueryError(f"column {t} not found among {columns}")


def _row_getter(idx: list[int]):
    """The function from a row to the tuple of its values at `idx`."""
    if len(idx) > 1:
        return itemgetter(*idx)
    if idx:
        (i,) = idx
        return lambda r: (r[i],)
    return lambda r: ()


def eval_expr(expr: Expr, relations: dict[str, Relation]) -> Relation:
    """Set-semantics evaluation; column labels are the views' head terms."""
    if isinstance(expr, Scan):
        try:
            return relations[expr.view]
        except KeyError:
            raise QueryError(f"no materialized relation for view {expr.view!r}")

    if isinstance(expr, Select):
        child = eval_expr(expr.child, relations)
        li = _col_index(child.columns, expr.left)
        if isinstance(expr.right, Var) or expr.right in child.columns:
            ri = _col_index(child.columns, expr.right)
            rows = frozenset(r for r in child.rows if r[li] == r[ri])
        else:
            value = expr.right.symbol
            rows = frozenset(r for r in child.rows if r[li] == value)
        return Relation(child.name, child.columns, rows)

    if isinstance(expr, Project):
        child = eval_expr(expr.child, relations)
        idx: list[int | None] = []
        consts: list[str] = []
        for t in expr.columns:
            if t in child.columns:
                idx.append(_col_index(child.columns, t))
                consts.append("")
            elif isinstance(t, Const):
                idx.append(None)
                consts.append(t.symbol)
            else:
                raise QueryError(f"projection on unbound variable {t}")
        if None in idx:
            rows = frozenset(
                tuple(r[i] if i is not None else consts[k] for k, i in enumerate(idx))
                for r in child.rows
            )
        else:
            rows = frozenset(map(_row_getter(idx), child.rows))
        return Relation(child.name, expr.columns, rows)

    if isinstance(expr, NatJoin):
        left = eval_expr(expr.left, relations)
        right = eval_expr(expr.right, relations)
        shared = [c for c in left.columns if c in right.columns]
        if shared:
            # a one-column key is the value itself, on both sides alike
            left_key = itemgetter(*(_col_index(left.columns, c) for c in shared))
            right_key = itemgetter(*(_col_index(right.columns, c) for c in shared))
        else:
            left_key = right_key = _row_getter([])
        rest = [i for i, c in enumerate(right.columns) if c not in shared]
        # the right rows' other columns, by their values in the shared ones
        table: dict = {}
        for key, tail in zip(map(right_key, right.rows), map(_row_getter(rest), right.rows)):
            bucket = table.get(key)
            if bucket is None:
                table[key] = [tail]
            else:
                bucket.append(tail)
        get = table.get
        out = set()
        add = out.add
        for l, tails in zip(left.rows, map(get, map(left_key, left.rows))):
            if tails is not None:
                for tail in tails:
                    add(l + tail)
        columns = left.columns + tuple(right.columns[i] for i in rest)
        return Relation(left.name, columns, frozenset(out))

    if isinstance(expr, Rename):
        child = eval_expr(expr.child, relations)
        m = dict(expr.mapping)
        columns = tuple(m.get(c, c) if isinstance(c, Var) else c for c in child.columns)
        return Relation(child.name, columns, child.rows)

    parts = [eval_expr(c, relations) for c in expr.children]
    arities = {len(p.columns) for p in parts}
    if len(arities) != 1:
        raise QueryError("union members disagree on arity")
    rows = frozenset().union(*(p.rows for p in parts))
    return Relation(parts[0].name, parts[0].columns, rows)


# ---------------------------------------------------------------------------
# serialization


def _term_json(t: Term) -> dict:
    return {"v": t.name} if isinstance(t, Var) else {"c": t.symbol}


def _term_back(d: dict) -> Term:
    if "v" in d:
        return Var(d["v"])
    return Const(d["c"])


def expr_to_json(expr: Expr) -> dict:
    if isinstance(expr, Scan):
        return {"op": "scan", "view": expr.view}
    if isinstance(expr, Select):
        return {
            "op": "select",
            "left": _term_json(expr.left),
            "right": _term_json(expr.right),
            "child": expr_to_json(expr.child),
        }
    if isinstance(expr, Project):
        return {
            "op": "project",
            "columns": [_term_json(t) for t in expr.columns],
            "child": expr_to_json(expr.child),
        }
    if isinstance(expr, NatJoin):
        return {"op": "natjoin", "left": expr_to_json(expr.left), "right": expr_to_json(expr.right)}
    if isinstance(expr, Rename):
        return {
            "op": "rename",
            "mapping": [[a.name, b.name] for a, b in expr.mapping],
            "child": expr_to_json(expr.child),
        }
    return {"op": "union", "children": [expr_to_json(c) for c in expr.children]}


def expr_from_json(d: dict) -> Expr:
    op = d["op"]
    if op == "scan":
        return Scan(d["view"])
    if op == "select":
        return Select(expr_from_json(d["child"]), _term_back(d["left"]), _term_back(d["right"]))
    if op == "project":
        return Project(expr_from_json(d["child"]), tuple(_term_back(t) for t in d["columns"]))
    if op == "natjoin":
        return NatJoin(expr_from_json(d["left"]), expr_from_json(d["right"]))
    if op == "thetajoin":
        # earlier versions wrote a join cut's two pieces joined on (fresh,
        # cut) variable pairs; the left piece has no column named after the
        # cut variable and the pieces share no other, so renaming the fresh
        # variable and joining naturally gives the same rows
        pairs = tuple((Var(a["v"]), Var(b["v"])) for a, b in d["pairs"])
        return NatJoin(Rename(expr_from_json(d["left"]), pairs), expr_from_json(d["right"]))
    if op == "rename":
        return Rename(
            expr_from_json(d["child"]),
            tuple((Var(a), Var(b)) for a, b in d["mapping"]),
        )
    if op == "union":
        return UnionOp(tuple(expr_from_json(c) for c in d["children"]))
    raise QueryError(f"unknown operator {op!r}")


def format_expr(expr: Expr) -> str:
    if isinstance(expr, Scan):
        return expr.view
    if isinstance(expr, Select):
        return f"select[{expr.left}={expr.right}]({format_expr(expr.child)})"
    if isinstance(expr, Project):
        cols = ",".join(str(t) for t in expr.columns)
        return f"project[{cols}]({format_expr(expr.child)})"
    if isinstance(expr, NatJoin):
        return f"({format_expr(expr.left)} join {format_expr(expr.right)})"
    if isinstance(expr, Rename):
        ren = ",".join(f"{a}->{b}" for a, b in expr.mapping)
        return f"rename[{ren}]({format_expr(expr.child)})"
    return " union ".join(format_expr(c) for c in expr.children)
