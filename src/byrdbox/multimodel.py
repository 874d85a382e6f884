"""A generic proof-tree engine hosting three backtracking trace models.

The machine builds partial proof trees by SLDT-style leaf development:
a chosen clause's body atoms become child slots all at once, each slot is
numbered when first visited, and slots survive backtracking as unvisited
skeleton nodes to be renumbered on their next visit.  The observable
state has thirteen parameters; on top of the nine of the simplified
machine it adds the chosen clause per node, the per-node substitution,
and the booleans scs (success) and bk3 (reverse traversal, third model
only).

Three mutually exclusive models select how backtracking is traced:

    m1  simplified box model: one Redo event, straight to the choice point
    m2  GNU-Prolog style: a Redo event per box re-entered on the way down,
        and the r attribute is the node's rank in the tree, not its
        creation number
    m3  original box model: full stepwise undo; every completed box is
        re-entered (Redo) and closed (Fail) in reverse order

State layout and clause selection are the simplified machine's (see
engine): the resolution bookkeeping sits in fields that equality and repr
skip, binding dicts are shared, never copied, and `_peek_visit` and
`_take` choose each clause.  The live machine keeps the snapshots' Dewey
indexes (see dewey), not engine's node stack: CLAUSSUCCEEDS creates all
of a clause's body slots at once, before the subtrees of the earlier
slots grow, so nodes are not created in Dewey order.

The rule table has 16 rules.  The paper's leaffail2 is not among them:
it fails a node whose chosen clause's head does not unify, and
`_peek_visit` skips such clauses silently before one is chosen, so it
could never fire.

Which rules emit which events is not prescribed anywhere usable; the
mapping below is frozen against the three reference traces of the second
worked example (28, 32 and 44 events) and against the first example,
which all three models must trace identically up to the m2 numbering.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import cached_property
from typing import Optional, Tuple

from .dewey import (
    child,
    child_count,
    derive_indexes,
    last_in_subtree,
    split_after,
    with_node,
)
from .engine import (
    EPSILON, DeterminismViolation, NodeId, _peek_visit, _take, node_str, parent,
)
from .terms import Program, resolve
from .tracing import Port, TraceEvent

__all__ = [
    "ModelId",
    "ExtRuleId",
    "ExtendedState",
    "ExtMachine",
    "ModelRun",
    "ModelComparison",
    "init_extended",
    "applicable_extended",
    "step_extended",
    "run_model",
    "compare_models",
]

class ModelId(Enum):
    M1 = "m1"
    M2 = "m2"
    M3 = "m3"

    # Members are singletons: hash by identity, in C, not by name.
    __hash__ = object.__hash__

    def __str__(self):
        return self.value


class ExtRuleId(Enum):
    CALLONE = "callone"
    CHOICE = "choice"
    FACTSUCCEEDS = "factsucceeds"
    CLAUSSUCCEEDS = "claussucceeds"
    EXIT1 = "exit1"
    EXIT2 = "exit2"
    LEAFFAIL1 = "leaffail1"
    TREEFAIL_M12 = "treefail_m12"
    TREEFAIL_M2 = "treefail_m2"
    REDO_M1 = "redo_m1"
    REDO_M2A = "redo_m2a"
    REDO_M2B = "redo_m2b"
    REDO_M3A = "redo_m3a"
    REDO_M3B = "redo_m3b"
    REDO_M3C = "redo_m3c"
    REDO_M3D = "redo_m3d"

    # Members are singletons: hash by identity, in C, not by name.
    __hash__ = object.__hash__

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class ExtendedState:
    tree: frozenset
    current: NodeId
    counter: int
    numbers: dict
    preds: dict        # skeleton predications (raw body atoms)
    chosen: dict       # node -> renamed clause instance currently in use
    boxes: dict
    # node -> substitution active at the node: the paper's per-node
    # substitution parameter, compared in state equality; no rule reads it
    sigmas: dict
    fresh: dict
    complete: bool     # ct
    failing: bool      # flr
    success: bool      # scs
    reverse: bool      # bk3
    program: Program = field(compare=False, repr=False)
    # Resolution bookkeeping, not observable: neither compared nor shown.
    bindings: dict = field(compare=False, repr=False)
    stamp: int = field(compare=False, repr=False)
    pending: Optional[dict] = field(compare=False, repr=False)  # to commit
    call_preds: dict = field(compare=False, repr=False)  # node -> as (re)called
    call_snaps: dict = field(compare=False, repr=False)  # node -> bindings then
    display: dict = field(compare=False, repr=False)     # node -> last shown
    marks: frozenset = field(compare=False, repr=False)  # closed by m3's sweep
    # Indexes (see dewey): every node, and the choice points, as sorted
    # tuples.  Derived from `tree` and `boxes` when not given.
    order: tuple = field(default=None, compare=False, repr=False)
    cps: tuple = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        derive_indexes(self)


# ----------------------------------------------------------------------
# Tree helpers on the extended state.  Children are numbered from 1
# without gaps (see dewey).
# ----------------------------------------------------------------------

def _is_leaf(state, v):
    return v + (1,) not in state.tree


def _children(state, v):
    return [child(v, i) for i in range(1, child_count(state.tree, v) + 1)]


def _has_next_node(state, v):
    return v != EPSILON and parent(v) + (v[-1] + 1,) in state.tree


def _hcp(state, v):
    return last_in_subtree(state.cps, v) is not None


def _gcp(state, v):
    return last_in_subtree(state.cps, v)


def _toward_gcp(state, u):
    """The child of u whose subtree holds the greatest choice point."""
    return child(u, _gcp(state, u)[len(u)])


def _reenterable_child(state, u):
    """Rightmost child already visited and not yet closed by the sweep."""
    live = [
        w
        for w in _children(state, u)
        if not state.fresh.get(w, False) and w not in state.marks
    ]
    return live[-1] if live else None


# ----------------------------------------------------------------------
# Rule gates
# ----------------------------------------------------------------------

# Every gate closed.  `_gates` starts from a copy of it: a dict copy
# rehashes no key.
_CLOSED = dict.fromkeys(ExtRuleId, False)


def _gates(state: ExtendedState, model: ModelId) -> dict:
    u = state.current
    fst = state.fresh.get(u, False)
    ct, flr, scs, bk3 = state.complete, state.failing, state.success, state.reverse
    leaf = _is_leaf(state, u)
    box = state.boxes.get(u, ())
    cc = state.chosen.get(u)
    m1, m2, m3 = model is ModelId.M1, model is ModelId.M2, model is ModelId.M3

    g = _CLOSED.copy()
    g[ExtRuleId.CALLONE] = fst and leaf and not ct and not flr and not bk3
    g[ExtRuleId.CHOICE] = (
        not fst and leaf and not ct and not bk3 and not flr
        and cc is None and bool(box) and state.pending is None
    )
    committed = cc is not None and state.pending is not None
    g[ExtRuleId.FACTSUCCEEDS] = (
        not fst and leaf and not ct and committed and cc.is_fact
    )
    g[ExtRuleId.CLAUSSUCCEEDS] = (
        not fst and leaf and not ct and committed and not cc.is_fact
    )
    g[ExtRuleId.EXIT1] = not fst and scs and not _has_next_node(state, u) and not ct
    g[ExtRuleId.EXIT2] = not fst and scs and _has_next_node(state, u) and not ct
    g[ExtRuleId.LEAFFAIL1] = (
        not fst and leaf and not ct and not bk3 and not flr and not scs
        and cc is None and not box and state.pending is None
    )
    g[ExtRuleId.TREEFAIL_M12] = (
        (m1 or m2)
        and not fst and not leaf and flr and not ct and not _hcp(state, u)
    )
    g[ExtRuleId.REDO_M1] = m1 and not fst and _hcp(state, u) and (flr or ct)
    g[ExtRuleId.REDO_M2A] = m2 and ct and scs and _hcp(state, u)
    g[ExtRuleId.TREEFAIL_M2] = (
        m2 and not fst and flr and not ct
        and _hcp(state, u) and _gcp(state, u) != u
    )
    g[ExtRuleId.REDO_M2B] = (
        m2 and not fst and flr and not ct
        and _hcp(state, u) and _gcp(state, u) == u
    )
    # The reverse sweep undoes the subtree of a node completely before the
    # node's own clause list is consulted again: re-enter the rightmost
    # still-open child first, re-choose at the node only once no child is
    # left to re-enter, and fail it when the clause list is empty too.
    reenter3 = m3 and ct and scs and not bk3 and _hcp(state, u)
    no_child_left = m3 and _reenterable_child(state, u) is None
    g[ExtRuleId.REDO_M3A] = (
        m3 and not fst and bk3 and not ct and bool(box) and no_child_left
    )
    g[ExtRuleId.REDO_M3B] = reenter3 or (
        m3 and not fst and bk3 and not ct and not no_child_left
    )
    g[ExtRuleId.REDO_M3C] = (
        m3 and not fst and bk3 and not ct and not box and leaf and no_child_left
    )
    g[ExtRuleId.REDO_M3D] = (
        m3 and not fst and bk3 and not ct and not box and not leaf and no_child_left
    )
    return g


def applicable_extended(state: ExtendedState, model: ModelId) -> Optional[ExtRuleId]:
    """The unique applicable rule under `model`, or None for Halt."""
    gates = _gates(state, model)
    live = [r for r, on in gates.items() if on]
    if len(live) == 1:
        return live[0]
    if not live:
        if state.complete and not _hcp(state, EPSILON):
            return None
        raise DeterminismViolation(
            f"[{model}] no rule applies at node {node_str(state.current)}"
        )
    raise DeterminismViolation(
        f"[{model}] rules {', '.join(str(r) for r in live)} all apply at node "
        f"{node_str(state.current)}"
    )


# ----------------------------------------------------------------------
# Transitions
# ----------------------------------------------------------------------

def init_extended(program: Program) -> ExtendedState:
    called = program.goal
    return ExtendedState(
        tree=frozenset({EPSILON}),
        current=EPSILON,
        counter=0,
        numbers={},
        preds={EPSILON: called},
        chosen={},
        # the first visit re-initializes this anyway, but the initial
        # state already advertises the goal's clause list
        boxes={EPSILON: program.clauses_for(called.functor, called.arity)},
        sigmas={EPSILON: {}},
        fresh={EPSILON: True},
        complete=False,
        failing=False,
        success=False,
        reverse=False,
        program=program,
        bindings={},
        stamp=0,
        pending=None,
        call_preds={EPSILON: called},
        call_snaps={EPSILON: {}},
        display={EPSILON: called},
        marks=frozenset(),
    )


def _thawed(value):
    """A mutable copy of a state's set or map; any other value as it is."""
    if isinstance(value, frozenset):
        return set(value)
    return dict(value) if isinstance(value, dict) else value


def _frozen(value):
    """A frozen copy of a machine's set or map; any other value as it is."""
    if isinstance(value, set):
        return frozenset(value)
    return dict(value) if isinstance(value, dict) else value


class ExtMachine:
    """The one mutable state that a run of this engine fires its rules on,
    in place, with the pieces its rules share.  It holds the fields of an
    ExtendedState and owns every set and map it holds: it copies them from
    the state it starts from, and `snapshot` copies them into a new frozen
    state."""

    def __init__(self, state: ExtendedState):
        for f in fields(state):
            setattr(self, f.name, _thawed(getattr(state, f.name)))
        self.halted = False  # set by the run that drives the machine

    def set_box(self, v, box):
        self.boxes[v] = box
        self.cps = with_node(self.cps, v, bool(box))

    def snapshot(self) -> ExtendedState:
        return ExtendedState(**{
            f.name: _frozen(getattr(self, f.name)) for f in fields(ExtendedState)
        })

    def prune_after(self, v):
        """Tear down everything behind a resumed choice point: interior
        nodes vanish, later body slots of still-standing clauses revert to
        unvisited skeleton nodes awaiting a fresh number."""
        kept, after = split_after(self.order, v)
        doomed = [y for y in after if parent(y) >= v]
        resets = tuple(y for y in after if parent(y) < v)
        self.order = kept + resets
        # every box behind v is gone or emptied
        self.cps = split_after(self.cps, v)[0]
        self.tree.difference_update(doomed)
        for maps in (self.numbers, self.preds, self.chosen, self.boxes,
                     self.sigmas, self.fresh, self.call_preds,
                     self.call_snaps, self.display):
            for y in doomed:
                maps.pop(y, None)
        self.marks.difference_update(doomed)
        for y in resets:
            self.fresh[y] = True
            self.boxes[y] = ()
            for maps in (self.numbers, self.chosen, self.sigmas,
                         self.call_preds, self.call_snaps, self.display):
                maps.pop(y, None)
            self.marks.discard(y)

    def rechoice(self, v):
        self.prune_after(v)
        self.chosen.pop(v, None)
        self.pending = None
        self.success = False
        self.failing = False
        self.complete = False

    def fail_at(self, u):
        self.marks.add(u)
        self.current = parent(u)
        if u == EPSILON:
            self.complete = True
        self.failing = True
        self.success = False


def _num_for(m, model, node):
    if model is ModelId.M2:
        return 1 + bisect_left(m.order, node)  # 1 + nodes before it
    return m.numbers[node]


def _fire(m: ExtMachine, model: ModelId, chrono: int, rule: ExtRuleId):
    """Fire `rule` on the machine in place; returns (rule, event|None).

    A rule that emits names the port, node and predication of its event,
    and the event is built once the rule has fired.  That is sound
    because no emitting rule renumbers or re-ranks the node it reports:
    CALLONE numbers its own node before the event reads it, and a rule
    that prunes (REDO_M1) keeps its node and every node before it."""
    u = m.current
    port = None
    R = ExtRuleId

    if rule is R.CALLONE:
        called = resolve(m.bindings, m.preds[u])
        m.counter += 1
        m.numbers[u] = m.counter
        m.set_box(u, m.program.clauses_for(called.functor, called.arity))
        m.chosen.pop(u, None)
        m.sigmas[u] = m.bindings
        m.fresh[u] = False
        m.success = False
        m.failing = False
        m.call_preds[u] = called
        m.call_snaps[u] = m.bindings
        m.display[u] = called
        m.marks.discard(u)
        port, node, pred = Port.CALL, u, called

    elif rule is R.CHOICE:
        taken = _take(m, u, _peek_visit(m, u, m.call_snaps[u]))
        if taken is not None:
            m.chosen[u], m.pending = taken

    elif rule in (R.FACTSUCCEEDS, R.CLAUSSUCCEEDS):
        m.bindings = m.pending
        m.pending = None
        m.sigmas[u] = m.bindings
        if rule is R.FACTSUCCEEDS:
            m.success = True
            m.failing = False
            port, node = Port.EXIT, u
            pred = m.display[u] = resolve(m.bindings, m.call_preds[u])
        else:
            for i, atom in enumerate(m.chosen[u].body, start=1):
                slot = child(u, i)
                m.tree.add(slot)
                m.order = with_node(m.order, slot)
                m.preds[slot] = atom
                m.fresh[slot] = True
                m.boxes[slot] = ()
            m.current = child(u, 1)

    elif rule in (R.EXIT1, R.EXIT2):
        if not _is_leaf(m, u):
            port, node = Port.EXIT, u
            pred = m.display[u] = resolve(m.bindings, m.call_preds[u])
        if rule is R.EXIT1:
            m.current = parent(u)
            if u == EPSILON:
                m.complete = True
        else:
            m.current = child(parent(u), u[-1] + 1)

    elif rule in (R.LEAFFAIL1, R.TREEFAIL_M12, R.REDO_M3C, R.REDO_M3D):
        port, node, pred = Port.FAIL, u, m.call_preds[u]
        m.fail_at(u)
        if model is ModelId.M3:  # a failure starts or goes on with the sweep
            m.reverse = True

    elif rule in (R.REDO_M2B, R.REDO_M3A):
        m.rechoice(u)
        m.reverse = False  # ends m3's sweep; never set under m2

    elif rule is R.REDO_M1:
        node = _gcp(m, u)
        port, pred = Port.REDO, m.display[node]
        m.rechoice(node)
        m.current = node

    elif rule is R.REDO_M2A:
        # Top level re-enters the root box asking for another solution;
        # the walk down to the choice point is then traced like a failure.
        port, node, pred = Port.REDO, u, m.display[u]
        m.complete = False
        m.success = False
        m.failing = True

    elif rule is R.TREEFAIL_M2:
        node = m.current = _toward_gcp(m, u)
        port, pred = Port.REDO, m.display[node]

    elif rule is R.REDO_M3B:
        if m.reverse:
            node = m.current = _reenterable_child(m, u)
        else:
            # ct at the root with alternatives left: the reverse sweep
            # starts by re-entering the root box itself.
            node = u
            m.reverse = True
            m.complete = False
            m.success = False
        port, pred = Port.REDO, m.display[node]

    if port is None:
        return rule, None
    # l is engine's lpath: the number of nodes on the root-to-node path
    r, l = _num_for(m, model, node), len(node) + 1
    return rule, TraceEvent(chrono=chrono, r=r, l=l, port=port, pred=pred)


def _drive(machine: ExtMachine, model: ModelId, max_steps: int):
    """Fire the rules of a run under `model` of at most `max_steps`
    transitions, yielding (rule, event|None) after each.  At the end
    `machine.halted` is True when no rule applies, False when the budget
    ran out first."""
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    chrono = 1
    for _ in range(max_steps):
        rule = applicable_extended(machine, model)
        if rule is None:
            machine.halted = True
            return
        fired = _fire(machine, model, chrono, rule)
        if fired[1] is not None:
            chrono += 1
        yield fired
    machine.halted = applicable_extended(machine, model) is None


def step_extended(
    state: ExtendedState, model: ModelId
) -> Tuple[ExtRuleId, ExtendedState]:
    """Fire the unique applicable rule under `model`; `state` itself is
    left as it was."""
    rule = applicable_extended(state, model)
    if rule is None:
        raise DeterminismViolation("step called on a halted state")
    machine = ExtMachine(state)
    _fire(machine, model, 0, rule)
    return rule, machine.snapshot()


@dataclass(frozen=True)
class ModelRun:
    """A run under one model: its events, and whether it halted.  The run
    keeps no states; `initial` and `transitions` (rule, state after it)
    replay it (deterministically) on first access."""

    model: ModelId
    events: tuple
    halted: bool
    program: Program = field(compare=False, repr=False)
    max_steps: int = field(compare=False, repr=False)

    @cached_property
    def _states(self) -> tuple:
        initial = init_extended(self.program)
        machine = ExtMachine(initial)
        transitions = tuple(
            (rule, machine.snapshot())
            for rule, _ in _drive(machine, self.model, self.max_steps)
        )
        return initial, transitions

    @property
    def initial(self) -> ExtendedState:
        return self._states[0]

    @property
    def transitions(self) -> tuple:
        return self._states[1]


def run_model(program: Program, model: ModelId, max_steps: int) -> ModelRun:
    """Run the machine under one model and collect its emitted events.

    `max_steps` bounds machine transitions (silent ones included), so the
    event count is at most the budget."""
    machine = ExtMachine(init_extended(program))
    events = tuple(
        event for _, event in _drive(machine, model, max_steps) if event is not None
    )
    return ModelRun(model, events, machine.halted, program, max_steps)


# ----------------------------------------------------------------------
# Model comparison
# ----------------------------------------------------------------------

def _is_subsequence(shorter, longer) -> bool:
    it = iter(longer)
    return all(x in it for x in shorter)


@dataclass(frozen=True)
class ModelComparison:
    counts: dict
    halted: dict
    m1_in_m2: bool
    m2_in_m3: bool

    def summary(self) -> str:
        yn = lambda b: "yes" if b else "no"
        return (
            f"m1:{self.counts[ModelId.M1]} m2:{self.counts[ModelId.M2]} "
            f"m3:{self.counts[ModelId.M3]} "
            f"subseq:{yn(self.m1_in_m2)},{yn(self.m2_in_m3)}"
        )


def compare_models(program: Program, max_steps: int) -> ModelComparison:
    """Run all three models and check that the port sequences nest:
    m1's within m2's, m2's within m3's."""
    runs = {m: run_model(program, m, max_steps) for m in ModelId}
    ports = {m: [e.port for e in runs[m].events] for m in ModelId}
    return ModelComparison(
        counts={m: len(runs[m].events) for m in ModelId},
        halted={m: runs[m].halted for m in ModelId},
        m1_in_m2=_is_subsequence(ports[ModelId.M1], ports[ModelId.M2]),
        m2_in_m3=_is_subsequence(ports[ModelId.M2], ports[ModelId.M3]),
    )
