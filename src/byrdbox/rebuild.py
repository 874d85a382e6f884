"""Rebuilding the restricted state sequence from an emitted trace.

The restricted state Q keeps four of the machine's nine parameters: the
tree T, the current node u, the node numbering, and the node predications.
Reading a trace takes one event of lookahead: each rule is identified from
the pair (event, next event) by its port and by how the r attribute moves,
then a local rebuilding step updates Q.  The depth attribute l is never
read.

A rebuild steps one live `Rebuilder` in place, as the engines fire their
rules on one live machine, and it runs on their node stack (engine's
`_Live`, with `RestrictedState` its `_Snapshot`; see engine for its
layout), with numbering and predication columns (`numbers`, `preds`).
On an emitted trace every node is added as the Dewey maximum with the
largest number yet, so every add is an append, a Redo to v truncates
every list after v (`_Live.cut`), the numbers increase along the
positions so that `node_of` finds a number by bisection, and
`_next_child` counts the children of a leaf that is the last node.  A
forged trace can add a node elsewhere and number two live nodes alike:
such an add is an insert (`_Live.insert`), and from then on the
rebuilder keeps each node's creation stamp in one more column (`born`),
so that `node_of` answers, as it always has, with the first created of
the nodes that carry a number.  `snapshot` copies the lists (all but
`up`) into a frozen `RestrictedState` as tuples.  `reconstruct_trace`
runs the whole rebuild and takes one snapshot, of the last state: it
keeps the states as the trace they decompress from (Q_0, each committed
step's rule and event, and the last state), and a state in between is
rebuilt when it is read: an `engine.StateLog`, as the engines keep
their runs.  `adequacy.check_adequacy` compares the
rebuilder's lists with the machine's and takes none, and
`reconstruct_step` is one step from a given state, which it leaves as
it was.

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

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .engine import EPSILON, NodeId, RuleId, StateLog, VirtualState, _Live, _Snapshot
from .engine import _subtree_end, child, node_str
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


def _columns_of(tree, numbers, preds) -> tuple:
    """(nodes, (numbers, preds), born) of a state built from maps: a node
    with no entry in a map holds None in its column, and entries of nodes
    outside the tree are left out.  `born` is None when the numbers
    increase along the positions; else it ranks the nodes as the numbering
    lists them, which a rebuilder takes as the order of their creation."""
    nodes = tuple(sorted(tree))
    column = tuple(map(numbers.get, nodes))
    born = None
    if None in column or any(a >= b for a, b in zip(column, column[1:])):
        rank = {v: i for i, v in enumerate(numbers)}
        born = tuple(rank.get(v, len(rank)) for v in nodes)
    return nodes, (column, tuple(map(preds.get, nodes))), born


def _parent_positions(nodes) -> tuple:
    """Each node's parent position; None for a node whose parent is not in
    the tree (only a state built by hand holds one)."""
    at = {v: p for p, v in enumerate(nodes)}
    return tuple(at.get(v[:-1]) for v in nodes)  # the root is its own parent


def _carrier(numbers, born, number: int) -> Optional[int]:
    """The position of the node that carries `number` in a numbering
    column; where several do (only a forged trace numbers so), the first
    created, the one with the least `born`; None when none does."""
    if born is None:  # the numbers increase along the positions
        p = bisect_left(numbers, number)
        return p if p < len(numbers) and numbers[p] == number else None
    carriers = (p for p, n in enumerate(numbers) if n == number)
    return min(carriers, key=born.__getitem__, default=None)


@dataclass(frozen=True, init=False)
class RestrictedState(_Snapshot):
    """A rebuilt state: the tree T, the current node u, the numbering and
    the predications, as a frozen node stack (see engine).  A state is
    built in one of two ways and holds both views:

      * from the word-keyed maps `tree`, `numbers` and `preds`, as a state
        built by hand is (`RestrictedState(tree, current, numbers,
        preds)`); its columns are derived from them;
      * from the columns, as tuples, as `Rebuilder.snapshot` and
        `restrict` build it: the tree in Dewey order (`nodes`), the
        numbering and predication columns (`observed`, None where a node
        has no entry), and the creation stamps `born` (None while the
        numbers increase along the positions, see Rebuilder); its maps
        are derived from them the first time they are read, listing the
        nodes in the order they were created.

    Each node's parent position (`up`) is derived from `nodes` when it is
    read: a snapshot does not copy the rebuilder's, as no step of a run
    reads a state's.

    Equality and `dataclasses.replace` see the maps, so a state built from
    maps and one built from columns compare equal when their maps do; the
    hash reads the tree and the current node, so equal states hash alike."""

    OBSERVED, KEPT, kept = ("numbers", "preds"), (), ()

    tree: frozenset
    current: NodeId
    numbers: dict
    preds: dict

    def __init__(self, tree=None, current=None, numbers=None, preds=None, *,
                 nodes=None, observed=None, born=None):
        if nodes is None:
            vars(self).update(tree=tree, numbers=numbers, preds=preds)
            nodes, observed, born = _columns_of(tree, numbers, preds)
        vars(self).update(current=current, nodes=nodes, observed=observed, born=born)

    up = cached_property(lambda q: _parent_positions(q.nodes))

    def __hash__(self):
        return hash((self.current, self.tree))

    def node_of(self, number: int) -> Optional[NodeId]:
        p = _carrier(self.observed[0], self.born, number)
        return None if p is None else self.nodes[p]


def initial_restricted(goal: Term) -> RestrictedState:
    return RestrictedState(
        tree=frozenset({EPSILON}),
        current=EPSILON,
        numbers={EPSILON: 1},
        preds={EPSILON: goal},
    )


def restrict(state: VirtualState) -> RestrictedState:
    """Project a full machine state onto the four rebuilt parameters: its
    node tuple and its first two observed columns, shared, not copied (the
    machine numbers its nodes in the order it pushes them)."""
    return RestrictedState(current=state.current, nodes=state.nodes, observed=state.observed[:2])


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


def _next_child(q, p: int) -> tuple:
    """(the word of the next child of the node at position p, the position
    it takes) in q, a rebuilt state or the rebuilder.  Children are
    numbered from 1 without gaps (see engine), so the next one is numbered
    one more than the children p has, and it goes at the end of p's
    subtree."""
    end = _subtree_end(q, p)
    return child(q.nodes[p], q.up[p + 1:end].count(p) + 1), end


class Rebuilder(_Live):
    """The one mutable restricted state that a rebuild steps in place: a
    node stack (see engine and the module docstring) whose columns are
    `nodes`, `up`, `numbers`, `preds` and, once a forged trace inserts a
    node, `born`.  It copies in the state it starts from, and `snapshot`
    freezes it into a new RestrictedState.  `current` is None only when
    the state it starts from has its current node outside its tree (a
    state built by hand); `stray` then holds that node, and a rule that
    reads the current node cannot step."""

    STATE, SCALARS = RestrictedState, ()
    boxes = ()  # a rebuilt state has no boxes, so `cps` stays empty

    def __init__(self, q: RestrictedState):
        super().__init__(q)
        self.born = None if q.born is None else list(q.born)
        self.columns += () if self.born is None else (self.born,)
        self.stray = q.current if self.current is None else None

    def snapshot(self) -> RestrictedState:
        u = self.stray if self.current is None else self.nodes[self.current]
        born = None if self.born is None else tuple(self.born)
        observed = (tuple(self.numbers), tuple(self.preds))
        return RestrictedState(current=u, nodes=tuple(self.nodes), observed=observed, born=born)

    def node_of(self, number: int) -> int:
        p = _carrier(self.numbers, self.born, number)
        if p is None:
            raise MalformedTrace(f"no live node carries creation number {number}")
        return p

    def step(self, rule: RuleId, e: TraceEvent, e_next: Optional[TraceEvent]) -> None:
        """One local rebuilding step: Q_t from Q_{t-1} and the event pair."""
        if rule is RuleId.CALL1:
            return
        if rule is RuleId.CALL2:
            p = self.node_of(e.r)
            self._add(*_next_child(self, p), p, e_next)
            return
        if rule is RuleId.REDO1 or rule is RuleId.REDO2:
            v = self.current = self.node_of(e.r)
            self.cut(v)
            if rule is RuleId.REDO2:
                self._add(child(self.nodes[v], 1), v + 1, v, e_next)
            return
        u = self.current
        if u is None:
            raise MalformedTrace(f"the current node {node_str(self.stray)} is not in the tree")
        if rule is RuleId.EXIT1:
            self.preds[u] = e.pred
            self.current = self.up[u]
        elif rule is RuleId.EXIT2:
            w = self.nodes[u]
            if w == EPSILON:
                raise MalformedTrace("the root cannot acquire a brother")
            p, end = self.up[u], _subtree_end(self, u)
            v = child(self.nodes[p], w[-1] + 1)
            # u's next brother would be the first node after u's subtree
            if end < len(self.nodes) and self.nodes[end] == v:
                raise MalformedTrace(f"brother {node_str(v)} already exists")
            self.preds[u] = e.pred
            self._add(v, end, p, e_next)
        else:
            assert rule is RuleId.FAIL2
            self.current = self.up[u]

    def _add(self, v: NodeId, at: int, p: int, e_next: TraceEvent) -> None:
        """Make v, a child of the node at position p, the current node, at
        position `at`, numbered and predicated as e_next says.  On an
        emitted trace v is the Dewey maximum and its number the largest, so
        this appends.  Otherwise (a forged trace) every later node moves one
        on, and from then on each node keeps its creation stamp in `born`:
        before that every add was an append and the numbers increased, so
        the positions' order was the creation order."""
        row = (v, p, e_next.r, e_next.pred)
        if at < len(self.nodes) or self.born is not None or e_next.r <= self.numbers[-1]:
            if self.born is None:
                self.born = list(range(len(self.nodes)))
                self.columns += (self.born,)
            row += (max(self.born) + 1,)
            self.up[:] = [w + (w >= at) for w in self.up]
        self.insert(at, row)
        self.current = at


def reconstruct_step(
    rule: RuleId, e: TraceEvent, e_next: Optional[TraceEvent], q: RestrictedState
) -> RestrictedState:
    """One local rebuilding step from q, which is left as it was."""
    rebuilder = Rebuilder(q)
    rebuilder.step(rule, e, e_next)
    return rebuilder.snapshot()


@dataclass(frozen=True)
class ReconstructionResult:
    """Q_0 .. Q_k, one state per committed event, as a read-only sequence
    that rebuilds a state when it is read (an `engine.StateLog`).

    `pending` holds the final event when its rule could not be identified
    without a successor; the state it leads to is then unknown and absent
    from `states`."""

    states: StateLog
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
    root), and anything else is malformed.  The whole rebuild runs here,
    so every error is raised here; the states in between are rebuilt
    again when they are read.
    """
    events = list(events)
    successors = events[1:] + [None]
    rules, pending = [], None
    rebuilder = Rebuilder(q0)
    for e, e_next in zip(events, successors):
        try:
            rule = identify_rule(e, e_next)
        except AmbiguousOrUndecidable:
            if not final_peek:
                pending = e
                break
            if e.port is not Port.EXIT:
                raise MalformedTrace(
                    f"a complete trace cannot end with a {e.port} event"
                ) from None
            rule = RuleId.EXIT1
        rebuilder.step(rule, e, e_next)
        rules.append(rule)
    final = rebuilder.snapshot() if rules else q0
    fire = lambda rebuilder, rule, i: rebuilder.step(rule, events[i], successors[i])
    return ReconstructionResult(StateLog(q0, rules, final, Rebuilder, fire), pending)


def format_restricted(q: RestrictedState, names: VarNames = None) -> str:
    """Line-oriented dump: one node per line, in Dewey order, current node
    starred.  A node with no number or no predication (only a state built
    by hand has one) shows `?` in its place."""
    names = names if names is not None else VarNames()
    rows = []
    for v, number, pred in zip(q.nodes, *q.observed):
        star = " *" if v == q.current else ""
        number = "?" if number is None else number
        pred = "?" if pred is None else format_term(pred, names)
        rows.append(f"  {node_str(v)}{star} #{number} {pred}")
    return "\n".join(rows)
