"""Search strategies over the state space.

All strategies share one bookkeeping core and one expansion step.  The step
applies transitions of the requested kinds to a state, checking the
deadline before each one; every application is counted (and reported to an
optional observer), and each child is admitted: deduplicated by signature,
fusion-closed under avf, held back from expansion by a stop condition
without being forgotten, and ranked against the best state so far with a
deterministic tie-break of (cost, number of views, signature).  The same
ranking orders every frontier, picks each fusion of a fusion closure and
cuts frontiers to max_states.

A stratum is a set of transition kinds.  exnaive, exstr and gstr share one
loop: for each stratum in turn, it closes the kept states under the
stratum's kinds, always expanding the cheapest state of its frontier next.

  exnaive  exhaustive, one stratum of all four kinds.
  exstr    exhaustive but stratified: one stratum per kind, so it closes
           the space under view breaks, then selection cuts, then join
           cuts, then fusions.  Reaches the same states while applying no
           more transitions than exnaive.
  gstr     greedy stratified: the same strata as exstr, but after each one
           it keeps only the cheapest state it reached.
  dfs      exhaustive depth-first variant of the stratified order.  Its
           frontier is a stack of (state, stratum) entries; the children of
           one expansion go on it dearest first, so the cheapest child is
           searched in full before its siblings.

Aggressive view fusion (avf) closes every newly created state under fusion
before admitting it, discarding the intermediates.  The timeout is checked
inside each closure too, except the initial state's.

max_states keeps the cheapest states of the frontier of exnaive and of each
gstr stratum; exstr and dfs always search exhaustively and reject it.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from typing import Callable

from .choices import STRATEGIES
from .cost import CostBreakdown, Estimator
from .states import KINDS, State, TransitionContext, iter_transitions


@dataclass
class SearchConfig:
    strategy: str = "dfs"
    avf: bool = False
    stop_tt: bool = False
    stop_var: bool = False
    timeout: float | None = None
    max_states: int | None = None  # exnaive and gstr only
    on_transition: Callable[[str, State, State], None] | None = None


@dataclass
class SearchResult:
    best: State
    best_cost: CostBreakdown
    initial: State
    initial_cost: CostBreakdown
    created: int
    duplicates: int
    discarded: int
    explored: int
    transitions: int
    peak_frontier: int
    elapsed: float
    timed_out: bool
    trace: list[tuple[float, float, float]] = field(default_factory=list)

    @property
    def rcr(self) -> float:
        c0 = self.initial_cost.total
        if c0 <= 0.0:
            return 0.0
        return (c0 - self.best_cost.total) / c0


# the strategies whose frontier max_states may cut
BOUNDED_STRATEGIES = ("exnaive", "gstr")


def is_triple_table(state: State) -> bool:
    for v in state.views:
        if len(v.body) == 1:
            a = v.body[0]
            if len(set(a.variables())) == 3:
                return True
    return False


def is_all_variable(state: State) -> bool:
    return all(
        all(a.n_constants() == 0 for a in v.body) for v in state.views
    )


class _Run:
    def __init__(self, initial: State, estimator: Estimator,
                 ctx: TransitionContext, cfg: SearchConfig):
        self.est = estimator
        self.ctx = ctx
        self.cfg = cfg
        self.t0 = time.perf_counter()
        self.deadline = None if cfg.timeout is None else self.t0 + cfg.timeout
        self.timed_out = False

        self.created = 0
        self.duplicates = 0
        self.discarded = 0
        self.explored = 0
        self.transitions = 0
        self.peak = 0

        self.seen: dict[tuple[str, ...], State] = {}
        self.terminal: set[tuple[str, ...]] = set()
        self._avf_memo: dict[tuple[str, ...], State] = {}

        self.initial = initial
        self.initial_cost = estimator.state_cost(initial)
        self.best: State | None = None
        self.best_key: tuple | None = None
        self.trace: list[tuple[float, float, float]] = []

        # a stop condition already met by the initial state is suppressed
        self.stop_var_active = cfg.stop_var and not is_all_variable(initial)
        self.stop_tt_active = cfg.stop_tt

    # -- plumbing ---------------------------------------------------------

    def out_of_time(self) -> bool:
        if self.deadline is not None and time.perf_counter() > self.deadline:
            self.timed_out = True
            return True
        return False

    def note_peak(self, size: int) -> None:
        if size > self.peak:
            self.peak = size

    def _priority(self, state: State) -> tuple:
        cost = self.est.state_cost(state)
        return (cost.total, len(state.views), state.signature)

    def _consider_best(self, state: State) -> None:
        key = self._priority(state)
        if self.best_key is None or key < self.best_key:
            self.best = state
            self.best_key = key
            elapsed = time.perf_counter() - self.t0
            cost = key[0]
            c0 = self.initial_cost.total
            rcr = 0.0 if c0 <= 0.0 else (c0 - cost) / c0
            self.trace.append((elapsed, cost, rcr))

    def _observe(self, kind: str, parent: State, child: State) -> None:
        if self.cfg.on_transition is not None:
            self.cfg.on_transition(kind, parent, child)

    def _fusion_closure(self, state: State, bounded: bool = True) -> State | None:
        """Fuse pairs of isomorphic views to a fixpoint.  The states along
        the way are applied transitions and discards, but only the fixpoint
        ever counts as created: it alone enters the candidate space.

        A bounded closure checks the deadline before costing each fusion
        and returns None once time is up; a partial closure is never
        memoized."""
        memo = self._avf_memo.get(state.signature)
        if memo is not None:
            return memo
        start_sig = state.signature
        cur = state
        while True:
            # several fusions (or head layouts) may apply; commit to the
            # cheapest so aggressive fusion never worsens the best cost
            tr = best_key = None
            for choice in iter_transitions(cur, self.ctx, ("VF",)):
                if bounded and self.out_of_time():
                    return None
                key = self._priority(choice.state)
                if best_key is None or key < best_key:
                    tr, best_key = choice, key
            if tr is None:
                break
            self.transitions += 1
            self._observe("VF", cur, tr.state)
            self.discarded += 1
            cur = tr.state
        self._avf_memo[start_sig] = cur
        return cur

    def admit(self, state: State, bounded: bool = True) -> tuple[State, bool]:
        """Dedup (and fusion-close) a reached state.  Returns the canonical
        state object and whether it is new and expandable.  A state whose
        closure ran out of time is returned unrecorded and not expandable.
        The initial state is admitted unbounded, so a zero-budget --avf run
        returns the fusion-closed root."""
        if self.cfg.avf:
            closed = self._fusion_closure(state, bounded)
            if closed is None:
                return state, False
            state = closed
        existing = self.seen.get(state.signature)
        if existing is not None:
            self.duplicates += 1
            return existing, False
        self.seen[state.signature] = state
        self.created += 1
        self._consider_best(state)
        stopped = (self.stop_tt_active and is_triple_table(state)) or (
            self.stop_var_active and is_all_variable(state)
        )
        if stopped:
            self.terminal.add(state.signature)
            self.discarded += 1
            return state, False
        return state, True

    def result(self) -> SearchResult:
        assert self.best is not None
        return SearchResult(
            best=self.best,
            best_cost=self.est.state_cost(self.best),
            initial=self.initial,
            initial_cost=self.initial_cost,
            created=self.created,
            duplicates=self.duplicates,
            discarded=self.discarded,
            explored=self.explored,
            transitions=self.transitions,
            peak_frontier=self.peak,
            elapsed=time.perf_counter() - self.t0,
            timed_out=self.timed_out,
            trace=self.trace,
        )

    # -- strategies -------------------------------------------------------

    def _expand(self, state: State, kinds):
        """Count `state` as explored, then apply each transition of `kinds`
        to it: count and observe it, and yield (child, expandable) from
        admit.  The deadline is checked before each transition; once it has
        passed, no further transition is applied."""
        self.explored += 1
        for tr in iter_transitions(state, self.ctx, kinds):
            if self.out_of_time():
                return
            self.transitions += 1
            self._observe(tr.kind, state, tr.state)
            yield self.admit(tr.state)

    def run_strata(self, strata, greedy: bool = False) -> SearchResult:
        """exnaive (one stratum of every kind), exstr and gstr (one stratum
        per kind, in KINDS order): close the kept states under each
        stratum's kinds, cheapest first.  exnaive and exstr keep every state
        they reach; gstr keeps only the cheapest after each stratum."""
        root, _ = self.admit(self.initial, bounded=False)
        kept = {root.signature: root}
        cap = self.cfg.max_states
        for kinds in strata:
            if self.timed_out:
                break
            heap = [(self._priority(s), s) for s in kept.values()
                    if s.signature not in self.terminal]
            heapq.heapify(heap)
            while heap:
                self.note_peak(len(heap))
                if self.out_of_time():
                    break
                _, state = heapq.heappop(heap)
                for child, expandable in self._expand(state, kinds):
                    kept.setdefault(child.signature, child)
                    if expandable:
                        heapq.heappush(heap, (self._priority(child), child))
                if self.timed_out:
                    break
                if cap is not None and len(heap) > cap:
                    self.discarded += len(heap) - cap
                    heap = heapq.nsmallest(cap, heap)  # a sorted list is a heap
            if greedy:
                winner = min(kept.values(), key=self._priority)
                self.discarded += len(kept) - 1
                kept = {winner.signature: winner}
        return self.result()

    def run_dfs(self) -> SearchResult:
        """Depth-first over (state, stratum) entries.  Popping (s, j) first
        pushes (s, j + 1), then the non-terminal children of s under
        KINDS[j], dearest first, so the cheapest is searched in full before
        its siblings.  Each pair is expanded once."""
        root, expandable = self.admit(self.initial, bounded=False)
        stack = [(root, 0)] if expandable else []
        expanded: set[tuple[tuple[str, ...], int]] = set()
        while stack:
            self.note_peak(len(stack))
            if self.out_of_time():
                break
            state, j = stack.pop()
            if (state.signature, j) in expanded:
                continue
            expanded.add((state.signature, j))
            if j + 1 < len(KINDS):
                stack.append((state, j + 1))
            children = [child for child, _ in self._expand(state, (KINDS[j],))
                        if child.signature not in self.terminal]
            stack.extend((child, j) for child in sorted(children, key=self._priority, reverse=True))
        return self.result()


def check_config(cfg: SearchConfig) -> None:
    """Raise ValueError for a strategy that does not exist, a limit the
    strategy would not honour, or a limit out of range."""
    if cfg.strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {cfg.strategy!r}")
    if cfg.max_states is not None and cfg.strategy not in BOUNDED_STRATEGIES:
        raise ValueError(
            f"max_states (--max-states) caps the frontier of "
            f"{' and '.join(BOUNDED_STRATEGIES)} only; {cfg.strategy} always searches exhaustively"
        )
    if cfg.max_states is not None and cfg.max_states < 1:
        raise ValueError(f"max_states (--max-states) must be at least 1, got {cfg.max_states}")
    # also rejects NaN, and infinity, which a tune document cannot record
    if cfg.timeout is not None and not 0.0 <= cfg.timeout < math.inf:
        raise ValueError(f"timeout (--timeout) must be at least 0 and finite, got {cfg.timeout}")


def run_search(
    initial: State,
    estimator: Estimator,
    ctx: TransitionContext,
    config: SearchConfig | None = None,
) -> SearchResult:
    cfg = config or SearchConfig()
    check_config(cfg)
    run = _Run(initial, estimator, ctx, cfg)
    if cfg.strategy == "dfs":
        return run.run_dfs()
    if cfg.strategy == "exnaive":
        return run.run_strata([KINDS])
    return run.run_strata([(kind,) for kind in KINDS], greedy=cfg.strategy == "gstr")
