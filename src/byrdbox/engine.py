"""The box-model tracer's state machine for pure-Prolog resolution.

The observable state has nine parameters: the partial proof tree T (nodes
in Dewey notation), the current node u, the last creation number n, the
node-numbering map, the node-predication map, the per-node clause boxes,
the first-visit flags, and the two booleans ct (construction complete,
back at the root) and flr (failure in progress).

Exactly seven named transition rules drive the machine: Call1, Call2,
Exit1, Exit2, Fail2, Redo1, Redo2.  (There is no Fail1; the numbering gap
is deliberate and preserved.)  At every reachable state exactly one rule
applies, or the machine halts.

Resolution proper (unification, clause choice, bindings) is not part of
the observable state.  It is bookkeeping that the rules consult, kept in
fields of the same state that equality and repr skip: one global
substitution per derivation branch, snapshotted at every node's call so
that a Redo can roll it back to the choice point.  A binding dict is
never updated in place (`unify` returns a new one), so a snapshot is the
dict itself, not a copy.

A run fires its rules in place on one mutable `Machine`.  A frozen
`VirtualState` is a snapshot of it, made only where states are kept
(`step`, `run_virtual`); the streaming runs keep none.  The other engine
(multimodel) shares this layout, the machine and the clause selection
(`_peek_visit`, `_take`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Optional, Tuple

from .dewey import (
    child, derive_indexes, last_in_subtree, parent, split_after, with_node,
)
from .terms import (
    BOTTOM,
    Clause,
    Program,
    Term,
    rename_clause,
    resolve,
    unify,
)

__all__ = [
    "NodeId",
    "EPSILON",
    "RuleId",
    "VirtualState",
    "Machine",
    "drive",
    "RunResult",
    "DeterminismViolation",
    "node_str",
    "parent",
    "is_leaf",
    "lpath",
    "may_have_new_brother",
    "has_choice_point",
    "greatest_choice_point",
    "box_init",
    "updated_pred",
    "init_state",
    "applicable_rule",
    "step",
    "run_virtual",
]

NodeId = Tuple[int, ...]
EPSILON: NodeId = ()

class RuleId(Enum):
    CALL1 = "Call1"
    CALL2 = "Call2"
    EXIT1 = "Exit1"
    EXIT2 = "Exit2"
    FAIL2 = "Fail2"
    REDO1 = "Redo1"
    REDO2 = "Redo2"

    def __str__(self):
        return self.value


class DeterminismViolation(Exception):
    """Raised when zero or several transition rules apply to a live state."""


@dataclass(frozen=True)
class VirtualState:
    tree: frozenset
    current: NodeId
    counter: int
    numbers: dict
    preds: dict
    boxes: dict
    fresh: dict
    complete: bool
    failing: bool
    program: Program = field(compare=False, repr=False)
    # Resolution bookkeeping, not observable: neither compared nor shown.
    bindings: dict = field(compare=False, repr=False)    # current branch
    stamp: int = field(compare=False, repr=False)        # renaming counter
    call_preds: dict = field(compare=False, repr=False)  # node -> as called
    call_snaps: dict = field(compare=False, repr=False)  # node -> bindings then
    chosen: dict = field(compare=False, repr=False)      # node -> clause in use
    failed: dict = field(compare=False, repr=False)      # node -> visit drained
    # Indexes (see dewey): every node, and the choice points, as sorted
    # tuples.  Derived from `tree` and `boxes` when not given.
    order: tuple = field(default=None, compare=False, repr=False)
    cps: tuple = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        derive_indexes(self)


@dataclass(frozen=True)
class RunResult:
    """A derivation: the initial state plus every fired transition.

    `halted` is True when the machine reached the no-rule-applies state,
    False when the step budget ran out first (the two are distinguishable
    by construction)."""

    initial: VirtualState
    transitions: tuple  # of (RuleId, VirtualState)
    halted: bool

    @property
    def states(self) -> list:
        return [self.initial] + [s for _, s in self.transitions]


# ----------------------------------------------------------------------
# Tree utilities.  Dewey words are int tuples; Python's tuple order is
# exactly the required lexicographic order (a prefix sorts before its
# extensions, siblings sort by component).  Stored nodes are the
# canonical tuples made by dewey's `child` and `parent`.
# ----------------------------------------------------------------------

def node_str(v: NodeId) -> str:
    if v == EPSILON:
        return "eps"
    if all(i <= 9 for i in v):
        return "".join(str(i) for i in v)
    return ".".join(str(i) for i in v)


def is_leaf(state: VirtualState, v: NodeId) -> bool:
    # children are numbered from 1 without gaps (see dewey)
    return v + (1,) not in state.tree


def lpath(state: VirtualState, v: NodeId) -> int:
    """Number of nodes on the root-to-v path (the recursion depth)."""
    return len(v) + 1


def may_have_new_brother(state: VirtualState, v: NodeId) -> bool:
    """True iff v's predication is not the last one in the body of the
    clause currently chosen at v's parent.  The root has no brother."""
    if v == EPSILON:
        return False
    chosen = state.chosen.get(parent(v))
    return chosen is not None and v[-1] < len(chosen.body)


def has_choice_point(state: VirtualState, v: NodeId) -> bool:
    return last_in_subtree(state.cps, v) is not None


def greatest_choice_point(state: VirtualState, v: NodeId) -> Optional[NodeId]:
    """Greatest node (lexicographically) in v's subtree whose box still
    holds a clause; None when there is no choice point."""
    return last_in_subtree(state.cps, v)


def box_init(program: Program, atom: Term, bindings: dict):
    """Fill a fresh node's box: the called predication under the current
    substitution, plus its predicate's clauses (functor/arity filter; the
    unification outcome is decided at visit time, not here)."""
    called = resolve(bindings, atom)
    return program.clauses_for(called.functor, called.arity), called


def updated_pred(state: VirtualState, v: NodeId) -> Term:
    """The node's predication with all bindings accumulated so far applied
    (the post-success value shown by Exit events)."""
    return resolve(state.bindings, state.call_preds[v])


# ----------------------------------------------------------------------
# Visit resolution.  When a node is visited (first call, or re-entry via
# Redo) the engine scans its box in order: clauses whose head does not
# unify with the called predication are dropped silently, with no trace
# event; the first unifying clause is the one the visit consumes.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _Peek:
    skipped: int              # leading clauses that fail head unification
    clause: Optional[Clause]  # first unifying clause; None when drained
    base: dict                # substitution the unification extends

    @property
    def calls_fact(self) -> bool:
        # Drained boxes route through the fact-style visit: the call event
        # still fires, failure is detected right after.
        return self.clause is None or self.clause.is_fact


def _peek_visit(state: VirtualState, v: NodeId, base: dict) -> _Peek:
    goal = state.call_preds[v]
    skipped = 0
    for c in state.boxes.get(v, ()):
        if unify(goal, c.trial.head, base, resolved=False) is not BOTTOM:
            return _Peek(skipped, c, base)
        skipped += 1
    return _Peek(skipped, None, base)


# ----------------------------------------------------------------------
# Rule selection.  The conditions, like the tree queries above and event
# extraction, read a VirtualState and a live Machine alike.
# ----------------------------------------------------------------------

def _pending_visit(state: VirtualState) -> Optional[_Peek]:
    """The clause scan of the visit that a Call rule (first visit of the
    current node) or a Redo rule (re-entry of the greatest choice point)
    would make from `state`; None when neither kind can apply."""
    u = state.current
    if state.fresh.get(u, False):
        if not state.complete:
            return _peek_visit(state, u, state.bindings)
    elif state.failing or state.complete:
        v = greatest_choice_point(state, u)
        if v is not None:
            # A Redo rolls the substitution back to the choice point's call.
            return _peek_visit(state, v, state.call_snaps[v])
    return None


def _rule_conditions(state: VirtualState, peek: Optional[_Peek]) -> dict:
    u = state.current
    fst = state.fresh.get(u, False)
    ct, flr = state.complete, state.failing
    failed_here = state.failed.get(u, False)
    hcp_u = has_choice_point(state, u)

    conds = {}
    if fst and not ct:
        conds[RuleId.CALL1] = is_leaf(state, u) and peek.calls_fact
        conds[RuleId.CALL2] = is_leaf(state, u) and not peek.calls_fact
    else:
        conds[RuleId.CALL1] = conds[RuleId.CALL2] = False

    succeeded = not fst and not failed_here
    mhnb = may_have_new_brother(state, u)
    conds[RuleId.EXIT1] = succeeded and not mhnb and not ct and not flr
    conds[RuleId.EXIT2] = succeeded and mhnb and not ct and not flr
    conds[RuleId.FAIL2] = (not fst) and not ct and not hcp_u and (failed_here or flr)

    if not fst and hcp_u and (flr or ct):
        conds[RuleId.REDO1] = peek.calls_fact
        conds[RuleId.REDO2] = not peek.calls_fact
    else:
        conds[RuleId.REDO1] = conds[RuleId.REDO2] = False
    return conds


def _conditions(state: VirtualState) -> dict:
    """Rule -> whether its condition holds at `state`."""
    return _rule_conditions(state, _pending_visit(state))


def _select(state: VirtualState) -> Tuple[Optional[RuleId], Optional[_Peek]]:
    """(the rule that applies, the clause scan of the visit it makes), so
    that firing the rule does not scan the box again; (None, None) for
    Halt."""
    peek = _pending_visit(state)
    conds = _rule_conditions(state, peek)
    matching = [r for r, ok in conds.items() if ok]
    if len(matching) == 1:
        return matching[0], peek
    if not matching:
        if state.complete and not has_choice_point(state, EPSILON):
            return None, None
        raise DeterminismViolation(
            f"no rule applies at node {node_str(state.current)} in a live state"
        )
    raise DeterminismViolation(
        f"rules {', '.join(str(r) for r in matching)} all apply at node "
        f"{node_str(state.current)}"
    )


def applicable_rule(state: VirtualState) -> Optional[RuleId]:
    """The unique rule that applies, or None for Halt.

    Raises DeterminismViolation when zero or several rules match a live
    state; that is an internal bug and must surface, never be resolved
    silently."""
    return _select(state)[0]


# ----------------------------------------------------------------------
# The machine and its transitions
# ----------------------------------------------------------------------

def init_state(program: Program) -> VirtualState:
    """The state right after top level enters the root box (the top
    level transition itself is not modeled).  An undefined goal predicate
    simply yields an empty root box and a Call/Fail trace."""
    boxes, called = box_init(program, program.goal, {})
    return VirtualState(
        tree=frozenset({EPSILON}),
        current=EPSILON,
        counter=1,
        numbers={EPSILON: 1},
        preds={EPSILON: called},
        boxes={EPSILON: boxes},
        fresh={EPSILON: True},
        complete=False,
        failing=False,
        program=program,
        bindings={},
        stamp=0,
        call_preds={EPSILON: called},
        call_snaps={EPSILON: {}},
        chosen={},
        failed={},
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


class Machine:
    """The one mutable state that a run fires its rules on, in place.

    It holds the fields of a state.  It owns every set and map it holds:
    it copies them from the state it starts from, and `snapshot` copies
    them into a new frozen state.  The other engine's machine is the
    subclass that names that engine's state class."""

    state_class = VirtualState

    def __init__(self, state):
        for f in fields(state):
            setattr(self, f.name, _thawed(getattr(state, f.name)))
        self.halted = False  # set by the run that drives the machine

    def set_box(self, v, box):
        self.boxes[v] = box
        self.cps = with_node(self.cps, v, bool(box))

    def snapshot(self):
        return self.state_class(**{
            f.name: _frozen(getattr(self, f.name)) for f in fields(self.state_class)
        })


def drive(machine: Machine, max_steps: int):
    """Yield each rule of a run of at most `max_steps` transitions while
    the machine still holds the state the rule fires from, and fire it on
    resumption.  At the end `machine.halted` is True when no rule applies,
    False when the budget ran out first."""
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    for _ in range(max_steps):
        rule, peek = _select(machine)
        if rule is None:
            machine.halted = True
            return
        yield rule
        _fire(machine, rule, peek)
    machine.halted = _select(machine)[0] is None


def _take(m: Machine, v: NodeId, peek: _Peek):
    """Consume the visit decided by `peek` at node v, in either engine:
    drop the silently skipped clauses and the chosen one from v's box, and
    return (the chosen clause renamed apart, the unifier extending
    `peek.base`); None when the box is drained."""
    m.set_box(v, m.boxes[v][peek.skipped + 1:])
    if peek.clause is None:
        return None
    m.stamp += 1
    inst = rename_clause(peek.clause, m.stamp)
    bindings = unify(m.call_preds[v], inst.head, peek.base, resolved=False)
    assert bindings is not BOTTOM
    return inst, bindings


def _visit(m: Machine, v: NodeId, peek: _Peek) -> None:
    """Consume the visit decided by `peek` at node v and extend the
    bindings, or roll them back to `peek.base` when the box is drained."""
    taken = _take(m, v, peek)
    m.failed[v] = taken is None
    if taken is None:
        m.bindings = peek.base
    else:
        m.chosen[v], m.bindings = taken


def _child_slot(m: Machine, atom: Term, v: NodeId) -> None:
    """Create (or re-create) node v labeled with `atom` instantiated by the
    current substitution, number it, fill its box, and make it current."""
    box, called = box_init(m.program, atom, m.bindings)
    m.counter += 1
    m.current = v
    m.tree.add(v)
    m.numbers[v] = m.counter
    m.preds[v] = called
    m.set_box(v, box)
    m.fresh[v] = True
    m.call_preds[v] = called
    m.call_snaps[v] = m.bindings
    m.failed.pop(v, None)
    m.chosen.pop(v, None)
    m.order = with_node(m.order, v)


def _prune(m: Machine, v: NodeId) -> None:
    """Backtracking to v deletes every node lexicographically after it,
    from the tree, both indexes and every map."""
    m.order, doomed = split_after(m.order, v)
    m.cps = split_after(m.cps, v)[0]
    m.tree.difference_update(doomed)
    for table in (m.numbers, m.preds, m.boxes, m.fresh,
                  m.call_preds, m.call_snaps, m.chosen, m.failed):
        for w in doomed:
            table.pop(w, None)


def step(state: VirtualState) -> Tuple[RuleId, VirtualState]:
    """Fire the unique applicable rule and return (rule, new state);
    `state` itself is left as it was."""
    machine = Machine(state)
    rule, peek = _select(machine)
    if rule is None:
        raise DeterminismViolation("step called on a halted state")
    _fire(machine, rule, peek)
    return rule, machine.snapshot()


def _fire(m: Machine, rule: RuleId, peek: Optional[_Peek]) -> None:
    """Fire `rule` on the machine in place; `peek` is the clause scan
    `_select` made for the visit of a Call or Redo rule."""
    u = m.current
    if rule in (RuleId.EXIT1, RuleId.EXIT2):
        m.preds[u] = resolve(m.bindings, m.call_preds[u])
        if rule is RuleId.EXIT1:
            m.current = parent(u)
            if u == EPSILON:
                m.complete = True
        else:
            w, i = parent(u), u[-1]
            _child_slot(m, m.chosen[w].body[i], child(w, i + 1))

    elif rule is RuleId.FAIL2:
        m.current = parent(u)
        m.failing = True
        # ct is raised when failing at the root itself, and also on
        # arrival at the root while a choice point survives elsewhere;
        # the latter is observable only in the state table, never in the
        # rule selection that follows (a Redo fires on flr alone).
        if u == EPSILON or (m.current == EPSILON and has_choice_point(m, EPSILON)):
            m.complete = True

    else:  # Call1, Call2, Redo1, Redo2: a visit; Call2 and Redo2 enter a body
        if rule in (RuleId.CALL1, RuleId.CALL2):
            v = u
            m.fresh[u] = False
        else:
            v = greatest_choice_point(m, u)
            _prune(m, v)
            m.current = v
            m.complete = False
        _visit(m, v, peek)
        m.failing = False
        if rule in (RuleId.CALL2, RuleId.REDO2):
            _child_slot(m, m.chosen[v].body[0], child(v, 1))


def run_virtual(program: Program, max_steps: int) -> RunResult:
    """Iterate the machine from the initial state until Halt or until the
    step budget runs out, keeping every state.  Traces may be infinite, so
    the budget is mandatory."""
    machine = Machine(init_state(program))
    rules, states = [], []
    for rule in drive(machine, max_steps):
        rules.append(rule)
        states.append(machine.snapshot())
    states.append(machine.snapshot())
    return RunResult(states[0], tuple(zip(rules, states[1:])), machine.halted)
