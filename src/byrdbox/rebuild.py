"""Rebuilding the restricted state sequence from an emitted trace.

The restricted state Q keeps four of the machine's nine parameters: the
tree T, the current node u, the node numbering, and the node predications.
Reading a trace takes one event of lookahead: each rule is identified from
the pair (event, next event) by its port and by how the r attribute moves,
then a local rebuilding step updates Q.  The depth attribute l is never
read.

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

from dataclasses import dataclass, field
from typing import Optional

from .dewey import child, child_count
from .engine import EPSILON, NodeId, RuleId, VirtualState, node_str, parent
from .terms import Term, VarNames, format_term
from .tracing import Port, TraceEvent

__all__ = [
    "RestrictedState",
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
    # The inverse of `numbers`; where several nodes carry one number (only
    # a malformed trace numbers so), the first of them in `numbers`.
    # Derived on first use when not given.
    by_number: Optional[dict] = field(default=None, compare=False, repr=False)

    def node_of(self, number: int) -> Optional[NodeId]:
        return _inverse(self).get(number)


def _inverse(q: RestrictedState) -> dict:
    if q.by_number is None:
        # built back to front, so the first node of a number is set last
        nodes, numbers = reversed(q.numbers.keys()), reversed(q.numbers.values())
        object.__setattr__(q, "by_number", dict(zip(numbers, nodes)))
    return q.by_number


def _numbered(q: RestrictedState, v: NodeId, number: int) -> dict:
    """q's inverse numbering once the new node v carries `number`."""
    inverse = dict(_inverse(q))
    inverse.setdefault(number, v)
    return inverse


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


def _require_node(q: RestrictedState, number: int) -> NodeId:
    v = q.node_of(number)
    if v is None:
        raise MalformedTrace(f"no live node carries creation number {number}")
    return v


def _next_child(q: RestrictedState, w: NodeId) -> NodeId:
    # children are numbered from 1 without gaps (see dewey)
    return child(w, child_count(q.tree, w) + 1)


def _grow(q, v, number, pred):
    return RestrictedState(
        tree=q.tree | {v},
        current=v,
        numbers={**q.numbers, v: number},
        preds={**q.preds, v: pred},
        by_number=_numbered(q, v, number),
    )


def _pruned(q, keep_upto):
    """q's tree, numbering, predications and inverse numbering without the
    nodes after `keep_upto`; the three maps are fresh copies."""
    doomed = {w for w in q.tree if w > keep_upto}
    numbers, preds, by_number = dict(q.numbers), dict(q.preds), dict(_inverse(q))
    for w in doomed:
        n = numbers.pop(w, None)
        preds.pop(w, None)
        if by_number.get(n) == w:
            del by_number[n]
    if len(by_number) != len(numbers):
        # some number is carried twice: derive the inverse again when used
        by_number = None
    return q.tree - doomed, numbers, preds, by_number


def reconstruct_step(
    rule: RuleId, e: TraceEvent, e_next: Optional[TraceEvent], q: RestrictedState
) -> RestrictedState:
    """One local rebuilding step: Q_t from Q_{t-1} and the event pair."""
    if rule is RuleId.CALL1:
        return q

    if rule is RuleId.CALL2:
        w = _require_node(q, e.r)
        v = _next_child(q, w)
        return _grow(q, v, e_next.r, e_next.pred)

    if rule is RuleId.EXIT1:
        return RestrictedState(
            tree=q.tree,
            current=parent(q.current),
            numbers=q.numbers,
            preds={**q.preds, q.current: e.pred},
            by_number=q.by_number,
        )

    if rule is RuleId.EXIT2:
        u = q.current
        if u == EPSILON:
            raise MalformedTrace("the root cannot acquire a brother")
        v = child(parent(u), u[-1] + 1)
        if v in q.tree:
            raise MalformedTrace(f"brother {node_str(v)} already exists")
        return RestrictedState(
            tree=q.tree | {v},
            current=v,
            numbers={**q.numbers, v: e_next.r},
            preds={**q.preds, u: e.pred, v: e_next.pred},
            by_number=_numbered(q, v, e_next.r),
        )

    if rule is RuleId.FAIL2:
        return RestrictedState(
            tree=q.tree,
            current=parent(q.current),
            numbers=q.numbers,
            preds=q.preds,
            by_number=q.by_number,
        )

    assert rule in (RuleId.REDO1, RuleId.REDO2)
    v = _require_node(q, e.r)
    tree, numbers, preds, by_number = _pruned(q, v)
    if rule is RuleId.REDO1:
        return RestrictedState(tree, v, numbers, preds, by_number)
    first = child(v, 1)
    numbers[first] = e_next.r
    preds[first] = e_next.pred
    if by_number is not None:
        by_number.setdefault(e_next.r, first)
    return RestrictedState(tree | {first}, first, numbers, preds, by_number)


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
    q = q0
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
        q = reconstruct_step(rule, e, e_next, q)
        states.append(q)
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
