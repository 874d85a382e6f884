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
the observable state.  It lives in a per-derivation `Shadow` that the
rules consult: one global substitution per derivation branch, snapshotted
at every node's call so that a Redo can roll it back to the choice point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    "Shadow",
    "VirtualState",
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
class Shadow:
    """Resolution bookkeeping behind the observable state.

    bindings    -- the accumulated substitution of the current branch
    stamp       -- renaming counter (stamps handed to clause copies)
    call_preds  -- per node, the predication as called (resolved snapshot)
    call_snaps  -- per node, the substitution snapshot taken at its call
    chosen      -- per node, the renamed clause instance in use
    failed      -- per node, True when its visit found no usable clause
    """

    bindings: dict
    stamp: int
    call_preds: dict
    call_snaps: dict
    chosen: dict
    failed: dict


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
    shadow: Shadow = field(compare=False, repr=False)
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
    chosen = state.shadow.chosen.get(parent(v))
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
    return resolve(state.shadow.bindings, state.shadow.call_preds[v])


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
    goal = state.shadow.call_preds[v]
    skipped = 0
    for c in state.boxes.get(v, ()):
        if unify(goal, c.trial.head, base, resolved=False) is not BOTTOM:
            return _Peek(skipped, c, base)
        skipped += 1
    return _Peek(skipped, None, base)


def _peek_fresh(state: VirtualState, v: NodeId) -> _Peek:
    return _peek_visit(state, v, state.shadow.bindings)


def _peek_redo(state: VirtualState, v: NodeId) -> _Peek:
    # A Redo rolls the substitution back to the choice point's call.
    return _peek_visit(state, v, state.shadow.call_snaps[v])


# ----------------------------------------------------------------------
# Rule selection
# ----------------------------------------------------------------------

def _conditions(state: VirtualState) -> dict:
    u = state.current
    sh = state.shadow
    fst = state.fresh.get(u, False)
    ct, flr = state.complete, state.failing
    failed_here = sh.failed.get(u, False)
    hcp_u = has_choice_point(state, u)

    conds = {}
    if fst and not ct:
        peek = _peek_fresh(state, u)
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
        v = greatest_choice_point(state, u)
        peek = _peek_redo(state, v)
        conds[RuleId.REDO1] = peek.calls_fact
        conds[RuleId.REDO2] = not peek.calls_fact
    else:
        conds[RuleId.REDO1] = conds[RuleId.REDO2] = False
    return conds


def _select(state: VirtualState) -> Optional[RuleId]:
    conds = _conditions(state)
    matching = [r for r, ok in conds.items() if ok]
    if len(matching) == 1:
        return matching[0]
    if not matching:
        if state.complete and not has_choice_point(state, EPSILON):
            return None
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
    return _select(state)


# ----------------------------------------------------------------------
# Transitions
# ----------------------------------------------------------------------

def init_state(program: Program) -> VirtualState:
    """The state right after top level enters the root box (the top
    level transition itself is not modeled).  An undefined goal predicate
    simply yields an empty root box and a Call/Fail trace."""
    boxes, called = box_init(program, program.goal, {})
    shadow = Shadow(
        bindings={},
        stamp=0,
        call_preds={EPSILON: called},
        call_snaps={EPSILON: {}},
        chosen={},
        failed={},
    )
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
        shadow=shadow,
    )


def _visit(state, v, peek, maps):
    """Consume the visit decided by `peek` at node v: drop the silently
    skipped clauses, pop and rename the chosen one, extend the bindings.
    Returns the updated shadow maps and whether the visit succeeded."""
    boxes, shadow = maps
    box = list(boxes[v])[peek.skipped:]
    if peek.clause is None:
        boxes[v] = ()
        shadow["failed"][v] = True
        shadow["bindings"] = dict(peek.base)
        return False
    stamp = shadow["stamp"] + 1
    shadow["stamp"] = stamp
    inst = rename_clause(peek.clause, stamp)
    new_bindings = unify(state.shadow.call_preds[v], inst.head, peek.base, resolved=False)
    assert new_bindings is not BOTTOM
    boxes[v] = tuple(box[1:])
    shadow["bindings"] = new_bindings
    shadow["chosen"][v] = inst
    shadow["failed"][v] = False
    return True


def _child_slot(state, maps, atom, v, number):
    """Create (or re-create) node v labeled with `atom` instantiated by the
    current substitution, and fill its box."""
    tree, numbers, preds, boxes, fresh, shadow = maps
    box, called = box_init(state.program, atom, shadow["bindings"])
    tree.add(v)
    numbers[v] = number
    preds[v] = called
    boxes[v] = box
    fresh[v] = True
    shadow["call_preds"][v] = called
    shadow["call_snaps"][v] = dict(shadow["bindings"])
    shadow["failed"].pop(v, None)
    shadow["chosen"].pop(v, None)
    return called


def _prune(doomed, maps):
    """Delete the `doomed` nodes from the tree and every map."""
    tree, numbers, preds, boxes, fresh, shadow = maps
    tree.difference_update(doomed)
    for m in (numbers, preds, boxes, fresh,
              shadow["call_preds"], shadow["call_snaps"],
              shadow["chosen"], shadow["failed"]):
        for w in doomed:
            m.pop(w, None)


def step(state: VirtualState) -> Tuple[RuleId, VirtualState]:
    """Fire the unique applicable rule and return (rule, new state)."""
    rule = _select(state)
    if rule is None:
        raise DeterminismViolation("step called on a halted state")
    return rule, _fire(state, rule)


def _fire(state: VirtualState, rule: RuleId) -> VirtualState:
    u = state.current
    tree = set(state.tree)
    numbers = dict(state.numbers)
    preds = dict(state.preds)
    boxes = dict(state.boxes)
    fresh = dict(state.fresh)
    shadow = {
        "bindings": state.shadow.bindings,
        "stamp": state.shadow.stamp,
        "call_preds": dict(state.shadow.call_preds),
        "call_snaps": dict(state.shadow.call_snaps),
        "chosen": dict(state.shadow.chosen),
        "failed": dict(state.shadow.failed),
    }
    maps = (tree, numbers, preds, boxes, fresh, shadow)
    order, cps = state.order, state.cps
    counter = state.counter
    current = u
    complete = state.complete
    failing = state.failing

    if rule in (RuleId.CALL1, RuleId.CALL2):
        peek = _peek_fresh(state, u)
        ok = _visit(state, u, peek, (boxes, shadow))
        cps = with_node(cps, u, bool(boxes[u]))
        fresh[u] = False
        failing = False
        if rule is RuleId.CALL2:
            assert ok
            counter += 1
            current = child(u, 1)
            _child_slot(state, maps, shadow["chosen"][u].body[0], current, counter)

    elif rule is RuleId.EXIT1:
        preds[u] = resolve(shadow["bindings"], shadow["call_preds"][u])
        current = parent(u)
        if u == EPSILON:
            complete = True

    elif rule is RuleId.EXIT2:
        preds[u] = resolve(shadow["bindings"], shadow["call_preds"][u])
        w, i = parent(u), u[-1]
        counter += 1
        current = child(w, i + 1)
        _child_slot(state, maps, shadow["chosen"][w].body[i], current, counter)

    elif rule is RuleId.FAIL2:
        current = parent(u)
        failing = True
        # ct is raised when failing at the root itself, and also on
        # arrival at the root while a choice point survives elsewhere;
        # the latter is observable only in the state table, never in the
        # rule selection that follows (a Redo fires on flr alone).
        if u == EPSILON or (current == EPSILON and has_choice_point(state, EPSILON)):
            complete = True

    elif rule in (RuleId.REDO1, RuleId.REDO2):
        v = greatest_choice_point(state, u)
        # Backtracking to v deletes every node lexicographically after it.
        order, doomed = split_after(order, v)
        cps = split_after(cps, v)[0]
        _prune(doomed, maps)
        peek = _peek_redo(state, v)
        ok = _visit(state, v, peek, (boxes, shadow))
        cps = with_node(cps, v, bool(boxes[v]))
        current = v
        failing = False
        if complete:
            complete = False
        if rule is RuleId.REDO2:
            assert ok
            counter += 1
            current = child(v, 1)
            _child_slot(state, maps, shadow["chosen"][v].body[0], current, counter)

    if rule in (RuleId.CALL2, RuleId.EXIT2, RuleId.REDO2):  # a new child slot
        order = with_node(order, current)
        cps = with_node(cps, current, bool(boxes[current]))

    new_state = VirtualState(
        tree=frozenset(tree),
        current=current,
        counter=counter,
        numbers=numbers,
        preds=preds,
        boxes=boxes,
        fresh=fresh,
        complete=complete,
        failing=failing,
        program=state.program,
        shadow=Shadow(
            bindings=shadow["bindings"],
            stamp=shadow["stamp"],
            call_preds=shadow["call_preds"],
            call_snaps=shadow["call_snaps"],
            chosen=shadow["chosen"],
            failed=shadow["failed"],
        ),
        order=order,
        cps=cps,
    )
    return new_state


def run_virtual(program: Program, max_steps: int) -> RunResult:
    """Iterate the machine from the initial state until Halt or until the
    step budget runs out.  Traces may be infinite, so the budget is
    mandatory."""
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    initial = init_state(program)
    state = initial
    transitions = []
    halted = False
    for _ in range(max_steps):
        rule = _select(state)
        if rule is None:
            halted = True
            break
        state = _fire(state, rule)
        transitions.append((rule, state))
    else:
        halted = _select(state) is None
    return RunResult(initial, tuple(transitions), halted)
