"""Rebuilding the restricted state sequence from an emitted trace.

The restricted state Q keeps four of the machine's nine parameters: the
tree T, the current node u, the node numbering, and the node predications.
Reading a trace takes one event of lookahead: each rule is identified from
the pair (event, next event) by its port and by how the r attribute moves,
then a local rebuilding step updates Q.  The depth attribute l is never
read.

A rebuild steps one live `Rebuilder` in place, as the engines fire their
rules on one live machine: it holds the current node, the numbering (whose
key set is the tree: a node is numbered when it is added), the
predications and the inverse numbering, and its `snapshot` copies the
four rebuilt parameters into a frozen `RestrictedState`.  A node is added
only where the machine pushes one (the Dewey maximum) and a Redo drops a
suffix, so on an emitted trace the maps list their nodes in Dewey order.
`reconstruct_trace` takes one snapshot per committed event,
`adequacy.check_adequacy` compares the rebuilder itself with the machine
and takes none, and `reconstruct_step` is one step from a given state,
which it leaves as it was.

Identification table (nd is the inverse of the numbering; the root's
number is 1 for the whole run, so `nd(r) = root` is just `r = 1`):

    Call  and r' = r             -> Call1
    Call  and r' > r             -> Call2
    Exit  and (r' < r or r = 1)  -> Exit1
    Exit  and r' > r and r != 1  -> Exit2
    Fail                         -> Fail2   (no lookahead needed)
    Redo  and r' = r             -> Redo1
    Redo  and r' > r             -> Redo2
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .dewey import child
from .engine import EPSILON, NodeId, RuleId, VirtualState, node_str, parent
from .terms import Term, VarNames, format_term
from .tracing import Port, TraceEvent

__all__ = [
    "RestrictedState",
    "Rebuilder",
    "MalformedTrace",
    "AmbiguousOrUndecidable",
    "CondViolation",
    "ReconstructionResult",
    "initial_restricted",
    "restrict",
    "matching_conds",
    "identify_rule",
    "reconstruct_step",
    "reconstruct_trace",
    "format_restricted",
]


class MalformedTrace(Exception):
    """An event references a node that does not exist in the rebuilt tree."""


class AmbiguousOrUndecidable(Exception):
    """The final event's rule needs a successor event that is not there."""


class CondViolation(Exception):
    """No identification condition (or several) matched an event pair."""


@dataclass(frozen=True)
class RestrictedState:
    tree: frozenset
    current: NodeId
    numbers: dict
    preds: dict

    @cached_property
    def _by_number(self) -> dict:
        return _first_carriers(self.numbers)

    def node_of(self, number: int) -> Optional[NodeId]:
        return self._by_number.get(number)


def _first_carriers(numbers: dict) -> dict:
    """The inverse of a numbering; where several nodes carry one number
    (only a malformed trace numbers so), the first of them in `numbers`."""
    # built back to front, so the first node of a number is set last
    return dict(zip(reversed(numbers.values()), reversed(numbers.keys())))


def initial_restricted(goal: Term) -> RestrictedState:
    return RestrictedState(
        tree=frozenset({EPSILON}),
        current=EPSILON,
        numbers={EPSILON: 1},
        preds={EPSILON: goal},
    )


def restrict(state: VirtualState) -> RestrictedState:
    """Project a full machine state onto the four rebuilt parameters."""
    return RestrictedState(
        tree=state.tree,
        current=state.current,
        numbers=dict(state.numbers),
        preds=dict(state.preds),
    )


def matching_conds(e: TraceEvent, e_next: Optional[TraceEvent]) -> set:
    """All rules whose identification condition holds for the pair.

    With e_next = None only the conditions that need no successor can
    match (Fail always; Exit when the event concerns the root)."""
    out = set()
    r = e.r
    rn = e_next.r if e_next is not None else None
    if e.port is Port.CALL and rn is not None:
        if rn == r:
            out.add(RuleId.CALL1)
        if rn > r:
            out.add(RuleId.CALL2)
    elif e.port is Port.EXIT:
        if r == 1 or (rn is not None and rn < r):
            out.add(RuleId.EXIT1)
        if rn is not None and rn > r and r != 1:
            out.add(RuleId.EXIT2)
    elif e.port is Port.FAIL:
        out.add(RuleId.FAIL2)
    elif e.port is Port.REDO and rn is not None:
        if rn == r:
            out.add(RuleId.REDO1)
        if rn > r:
            out.add(RuleId.REDO2)
    return out


def identify_rule(e: TraceEvent, e_next: Optional[TraceEvent]) -> RuleId:
    """The unique rule that produced `e`, judged from `e` and its successor."""
    matched = matching_conds(e, e_next)
    if len(matched) == 1:
        return next(iter(matched))
    if e_next is None and e.port in (Port.CALL, Port.EXIT, Port.REDO):
        raise AmbiguousOrUndecidable(
            f"a final {e.port} event needs a successor to be identified"
        )
    raise CondViolation(
        f"event pair at chrono {e.chrono} matches {len(matched)} conditions"
    )


def _next_child(q, w: NodeId) -> NodeId:
    """The slot of w's next child in the tree of q, a rebuilt state or the
    rebuilder, read as the key set of q's numbering: children are numbered
    from 1 without gaps (see dewey), so the first free number is found by
    probing 1, 2, ..."""
    numbers, k = q.numbers, 1
    while w + (k,) in numbers:
        k += 1
    return child(w, k)


class Rebuilder:
    """The one mutable restricted state that a rebuild steps in place.  It
    owns the maps it holds: it copies them from the state it starts from
    (a node of its tree that it does not number gets the number None), and
    `snapshot` copies them into a new RestrictedState.  Beside them it
    keeps the inverse numbering, updated as nodes are numbered and derived
    again after a Redo prunes."""

    def __init__(self, q: RestrictedState):
        self.current, self.preds = q.current, dict(q.preds)
        self.numbers = q.numbers | dict.fromkeys(q.tree - q.numbers.keys())
        self.by_number = _first_carriers(self.numbers)

    def snapshot(self) -> RestrictedState:
        return RestrictedState(
            frozenset(self.numbers), self.current, dict(self.numbers), dict(self.preds)
        )

    def node_of(self, number: int) -> NodeId:
        v = self.by_number.get(number)
        if v is None:
            raise MalformedTrace(f"no live node carries creation number {number}")
        return v

    def step(self, rule: RuleId, e: TraceEvent, e_next: Optional[TraceEvent]) -> None:
        """One local rebuilding step: Q_t from Q_{t-1} and the event pair."""
        if rule is RuleId.CALL1:
            return
        u = self.current
        if rule is RuleId.CALL2:
            self._add(_next_child(self, self.node_of(e.r)), e_next)
        elif rule is RuleId.EXIT1:
            self.preds[u] = e.pred
            self.current = parent(u)
        elif rule is RuleId.EXIT2:
            if u == EPSILON:
                raise MalformedTrace("the root cannot acquire a brother")
            v = child(parent(u), u[-1] + 1)
            if v in self.numbers:
                raise MalformedTrace(f"brother {node_str(v)} already exists")
            self.preds[u] = e.pred
            self._add(v, e_next)
        elif rule is RuleId.FAIL2:
            self.current = parent(u)
        else:
            assert rule in (RuleId.REDO1, RuleId.REDO2)
            v = self.current = self.node_of(e.r)
            for w in [w for w in self.numbers if w > v]:
                del self.numbers[w]
                self.preds.pop(w, None)
            self.by_number = _first_carriers(self.numbers)
            if rule is RuleId.REDO2:
                self._add(child(v, 1), e_next)

    def _add(self, v: NodeId, e_next: TraceEvent) -> None:
        """Make v, numbered and predicated as e_next says, the current node."""
        self.current = v
        self.numbers[v] = e_next.r
        self.preds[v] = e_next.pred
        self.by_number.setdefault(e_next.r, v)


def reconstruct_step(
    rule: RuleId, e: TraceEvent, e_next: Optional[TraceEvent], q: RestrictedState
) -> RestrictedState:
    """One local rebuilding step from q, which is left as it was."""
    rebuilder = Rebuilder(q)
    rebuilder.step(rule, e, e_next)
    return rebuilder.snapshot()


@dataclass(frozen=True)
class ReconstructionResult:
    """Q_0 .. Q_k, one state per committed event.

    `pending` holds the final event when its rule could not be identified
    without a successor; the state it leads to is then unknown and absent
    from `states`."""

    states: tuple
    pending: Optional[TraceEvent]

    @property
    def final_known(self) -> bool:
        return self.pending is None


def reconstruct_trace(
    q0: RestrictedState, events, final_peek: bool = False
) -> ReconstructionResult:
    """Fold the rebuilding steps over the event stream.

    Each state Q_t is committed once the pair (w_t, w_{t+1}) is available;
    Fail events and root Exit events commit without a successor.  With
    `final_peek` the stream is declared complete: the last event is then
    committed under the only reading a halted run allows (Exit at the
    root), and anything else is malformed.
    """
    events = list(events)
    states = [q0]
    rebuilder = Rebuilder(q0)
    for i, e in enumerate(events):
        e_next = events[i + 1] if i + 1 < len(events) else None
        try:
            rule = identify_rule(e, e_next)
        except AmbiguousOrUndecidable:
            if not final_peek:
                return ReconstructionResult(tuple(states), e)
            if e.port is not Port.EXIT:
                raise MalformedTrace(
                    f"a complete trace cannot end with a {e.port} event"
                ) from None
            rule = RuleId.EXIT1
        rebuilder.step(rule, e, e_next)
        states.append(rebuilder.snapshot())
    return ReconstructionResult(tuple(states), None)


def format_restricted(q: RestrictedState, names: VarNames = None) -> str:
    """Line-oriented dump: one node per line, current node starred."""
    names = names if names is not None else VarNames()
    rows = []
    for v in sorted(q.tree):
        star = " *" if v == q.current else ""
        rows.append(
            f"  {node_str(v)}{star} #{q.numbers[v]} {format_term(q.preds[v], names)}"
        )
    return "\n".join(rows)
