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

Its state is engine's `_State` plus scs, bk3 and the mark of a CHOICE
that is left to commit (`pending`).  The live machine runs on engine's
node stack (`_Live`; see engine for its layout), with the per-node maps
and bookkeeping as columns under their state names, and its binding
store: a CHOICE binds its clause's head in the store, as every visit of
either engine does, and keeps its mark in `pending` until a success rule
commits it, and `rechoice` takes the store back to the choice point's
mark.  A state holds the store and the mark as the machine does, so
`_Live` builds and snapshots both engines alike.  A substitution column
entry (`sigmas`) is the store as it stood, handed out by
`frozen_bindings`: the machine copies the store before its next write,
so it is copied at most once per change, and a node called right after
a success shares its dict.  It shares engine's clause selection
(`_peek_visit`, `_take`), box fill (`box_init`) and next-node query
(`may_have_new_brother`).  Four invariants of its own hold:

  1. a clause's body slots are made at once, by CLAUSSUCCEEDS at a leaf
     after which every node is an unvisited slot (a leaf with no box), so
     inserting them right after it moves no parent position and no
     choice point;
  2. no choice point lies after the current node's subtree, so the
     greatest one in the subtree of the current node or an ancestor is
     the top of `cps` when that is at or after it;
  3. until flr, ct or bk3 holds or the rule that applies is not in
     `_SHARED`, every model's gate table is m1's (only those flags open a
     model's own rules) and the rule fired reads the model only for its
     event's r (LEAFFAIL1, gated alike, sets bk3 under m3): so
     `compare_models` runs such a shared segment once, under m1;
  4. where they part, each model backtracks until it re-chooses at a
     choice point (REDO_M1, REDO_M2B or REDO_M3A, each by `rechoice`), or
     halts; after the k-th re-choice the three models' machines are equal
     in every field (the columns, `up` and `cps`, the store's items in
     order, the stamp, `pending`, scs and bk3), a state from which the
     next shared segment starts: so `compare_models` forks each model's
     backtrack and goes on from any one of them.

A body inserted before a visited node raises.  The queries take the live
machine and the position of the current node or one of its ancestors (a
node's m2 rank is its position plus one); a caller that holds a snapshot
builds `ExtMachine(state)` first, as `_gates`, `applicable_extended` and
`step_extended` do.

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

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Tuple

from .engine import EPSILON, DeterminismViolation, StateLog, _peek_visit, _take, box_init
from .engine import _Live, _State, _Tag, _word_map, child, lpath, may_have_new_brother, node_str
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

class ModelId(_Tag):
    M1 = "m1"
    M2 = "m2"
    M3 = "m3"


class ExtRuleId(_Tag):
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


@dataclass(frozen=True)
class ExtendedState(_State):
    """A snapshot of the machine, by position: engine's shared state with
    this engine's columns and three fields more: the flags scs and bk3,
    which equality and repr see after ct and flr, and the mark of a CHOICE
    that a success rule has yet to commit (`pending`: the chosen node's
    `call_marks` entry, None when there is none; `bindings` already holds
    the CHOICE's bindings), which they skip."""

    # preds are the skeleton predications (raw body atoms), chosen the
    # renamed clause instance in use, sigmas the paper's per-node
    # substitution parameter, which no rule reads
    OBSERVED = ("numbers", "preds", "chosen", "boxes", "sigmas", "fresh")
    # node -> as (re)called, the store's length then (its mark), last
    # shown, closed by m3's sweep
    KEPT = ("call_preds", "call_marks", "display", "marks")

    success: bool      # scs
    reverse: bool      # bk3
    pending: Optional[int] = field(compare=False, repr=False)  # to commit

    sigmas = _word_map("sigmas")
    marks = cached_property(lambda s: frozenset(v for v, x in zip(s.nodes, s.kept[3]) if x))


# ----------------------------------------------------------------------
# Tree helpers: they take the live machine and a position.
# ----------------------------------------------------------------------

def _is_leaf(m, v):
    # in Dewey order, a node with children is followed by its first child
    return v + 1 == len(m.nodes) or m.up[v + 1] != v


def _children(m, v):
    """v's children: as many as the body of its clause, once it has any."""
    children = []
    if not _is_leaf(m, v):
        p, up = v, m.up
        for _ in m.chosen[v].body:
            p = up.index(v, p + 1)
            children.append(p)
    return children


def _hcp(m, v):
    return _gcp(m, v) is not None


def _gcp(m, v):
    """The position of the greatest node (lexicographically) in v's
    subtree whose box still holds a clause; None when there is none.

    v is the current node or an ancestor of it, the only nodes after
    whose subtree no choice point lies (invariant 2): so the answer is
    the top of `cps` when that is at or after v."""
    cps = m.cps
    return cps[-1] if cps and cps[-1] >= v else None


def _toward_gcp(m, u):
    """The child of u whose subtree holds the greatest choice point."""
    p, up = _gcp(m, u), m.up
    while up[p] != u:
        p = up[p]
    return p


def _reenterable_child(m, u):
    """Rightmost child already visited and not yet closed by the sweep."""
    for w in reversed(_children(m, u)):
        if not m.fresh[w] and not m.marks[w]:
            return w
    return None


def _num_for(m, model, node):
    if model is not ModelId.M2:
        return m.numbers[node]
    return node + 1  # 1 + nodes before it


# ----------------------------------------------------------------------
# Rule gates
# ----------------------------------------------------------------------

# Every gate closed.  `_gates` starts from a copy of it: a dict copy
# rehashes no key.
_CLOSED = dict.fromkeys(ExtRuleId, False)
# The rules that fire alike under every model, but for their event's r.
_SHARED = frozenset((ExtRuleId.CALLONE, ExtRuleId.CHOICE, ExtRuleId.FACTSUCCEEDS,
                     ExtRuleId.CLAUSSUCCEEDS, ExtRuleId.EXIT1, ExtRuleId.EXIT2))


def _gates(state, model: ModelId) -> dict:
    """Rule -> whether its gate is open, for all 16 rules, on a state or
    the live machine.  Only the shared rules and `model`'s own are
    evaluated (the others stay closed), and each tree query is made at
    most once."""
    m = state if isinstance(state, ExtMachine) else ExtMachine(state)
    R = ExtRuleId
    u = m.current
    fst, leaf, box, cc = m.fresh[u], _is_leaf(m, u), m.boxes[u], m.chosen[u]
    ct, flr, scs, bk3 = m.complete, m.failing, m.success, m.reverse
    idle = m.pending is None

    g = _CLOSED.copy()
    g[R.CALLONE] = fst and leaf and not ct and not flr and not bk3
    if not fst and not ct:
        if leaf and cc is None and idle and not bk3 and not flr:
            g[R.CHOICE] = bool(box)
            g[R.LEAFFAIL1] = not scs and not box
        elif leaf and cc is not None and not idle:
            g[R.FACTSUCCEEDS] = cc.is_fact
            g[R.CLAUSSUCCEEDS] = not cc.is_fact
        if scs:
            g[R.EXIT2] = nxt = may_have_new_brother(m, u)
            g[R.EXIT1] = not nxt
    cp = _gcp(m, u) if flr or ct else None
    if model is ModelId.M3:
        # The reverse sweep undoes the subtree of a node completely before
        # the node's own clause list is consulted again: re-enter the
        # rightmost still-open child first, re-choose at the node only once
        # no child is left to re-enter, and fail it when the clause list is
        # empty too.
        g[R.REDO_M3B] = ct and scs and not bk3 and cp is not None
        if not fst and bk3 and not ct:
            open_child = _reenterable_child(m, u) is not None
            g[R.REDO_M3A] = bool(box) and not open_child
            g[R.REDO_M3B] = open_child
            g[R.REDO_M3C] = not box and leaf and not open_child
            g[R.REDO_M3D] = not box and not leaf and not open_child
        return g
    g[R.TREEFAIL_M12] = not fst and not leaf and flr and not ct and cp is None
    if model is ModelId.M1:
        g[R.REDO_M1] = not fst and cp is not None  # cp is None unless flr or ct
    else:
        g[R.REDO_M2A] = ct and scs and cp is not None
        if not fst and flr and not ct and cp is not None:
            g[R.TREEFAIL_M2] = cp != u
            g[R.REDO_M2B] = cp == u
    return g


def applicable_extended(state, model: ModelId) -> Optional[ExtRuleId]:
    """The unique applicable rule under `model` at a state or the live
    machine, or None for Halt."""
    m = state if isinstance(state, ExtMachine) else ExtMachine(state)
    gates = _gates(m, model)
    live = [r for r, on in gates.items() if on]
    if len(live) == 1:
        return live[0]
    where = node_str(m.nodes[m.current])
    if not live:
        if m.complete and not _hcp(m, 0):
            return None
        raise DeterminismViolation(f"[{model}] no rule applies at node {where}", gates)
    raise DeterminismViolation(
        f"[{model}] rules {', '.join(str(r) for r in live)} all apply at node {where}",
        gates,
    )


# ----------------------------------------------------------------------
# Transitions
# ----------------------------------------------------------------------

def init_extended(program: Program) -> ExtendedState:
    box, called = box_init(program, program.goal, {})
    return ExtendedState(
        nodes=(EPSILON,),
        up=(0,),
        current=EPSILON,
        counter=0,
        # unnumbered and with no clause chosen; the first visit
        # re-initializes the box anyway, but the initial state already
        # advertises the goal's clause list
        observed=((None,), (called,), (None,), (box,), ({},), (True,)),
        complete=False,
        failing=False,
        success=False,
        reverse=False,
        program=program,
        bindings={},
        stamp=0,
        pending=None,
        kept=((called,), (0,), (called,), (False,)),
    )


# A body slot as CLAUSSUCCEEDS makes it and a prune resets it, in column
# order after its word, parent, number (None) and predication: unvisited,
# with no clause, box, substitution or call, and not closed.
_BLANK = (None, (), None, True, None, None, None, False)


class ExtMachine(_Live):
    """The one mutable state that a run of this engine fires its rules on,
    in place: engine's node stack, which refuses a state whose u is not in
    its tree."""

    STATE = ExtendedState
    SCALARS = ("counter", "complete", "failing", "success", "reverse", "program", "bindings",
               "stamp", "pending")

    def __init__(self, state: ExtendedState):
        super().__init__(state)
        if self.current is None:
            raise ValueError("a state's u must be in its tree")

    def rechoice(self, v):
        """Resume the choice point v: every node behind it is torn down.
        Interior nodes vanish; later body slots of still-standing clauses
        (the nodes after v whose parent is before v) move behind v and
        revert to unvisited skeleton nodes awaiting a fresh number."""
        nodes, up, preds = self.nodes, self.up, self.preds
        later = [(nodes[y], up[y], None, preds[y]) for y in range(v + 1, len(nodes)) if up[y] < v]
        self.cut(v)  # every box behind v is gone or emptied
        for row in later:
            self.insert(len(nodes), row + _BLANK)
        self.undo(self.call_marks[v])
        self.chosen[v] = None
        self.pending = None
        self.success = self.failing = self.complete = False


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
        box, called = box_init(m.program, m.preds[u], m.bindings)
        m.counter += 1
        m.numbers[u] = m.counter
        m.set_box(u, box)
        m.chosen[u] = None
        m.sigmas[u] = m.frozen_bindings()
        m.fresh[u] = False
        m.success = m.failing = False
        m.call_preds[u] = called
        m.call_marks[u] = len(m.bindings)
        m.display[u] = called
        m.marks[u] = False
        port, node, pred = Port.CALL, u, called

    elif rule is R.CHOICE:
        clause = _take(m, u, _peek_visit(m, u))
        if clause is not None:
            m.chosen[u], m.pending = clause, m.call_marks[u]

    elif rule in (R.FACTSUCCEEDS, R.CLAUSSUCCEEDS):
        m.pending = None
        m.sigmas[u] = m.frozen_bindings()
        if rule is R.FACTSUCCEEDS:
            m.success = True
            m.failing = False
            port, node = Port.EXIT, u
            pred = m.display[u] = resolve(m.bindings, m.call_preds[u])
        else:
            # the body slots go right after u; every node after it is an
            # unvisited slot, so a leaf with no box (invariant 1): no parent
            # position and no choice point moves
            at, body = u + 1, m.chosen[u].body
            assert all(m.fresh[at:]), "a body inserted before a visited node"
            for i in range(len(body), 0, -1):  # each goes in at `at`: last first
                m.insert(at, (child(m.nodes[u], i), u, None, body[i - 1]) + _BLANK)
            m.current = at

    elif rule in (R.EXIT1, R.EXIT2):
        if not _is_leaf(m, u):
            port, node = Port.EXIT, u
            pred = m.display[u] = resolve(m.bindings, m.call_preds[u])
        if rule is R.EXIT1:
            m.current = m.up[u]
            if u == 0:
                m.complete = True
        else:
            m.current = m.up.index(m.up[u], u + 1)  # the brother after u's subtree

    elif rule in (R.LEAFFAIL1, R.TREEFAIL_M12, R.REDO_M3C, R.REDO_M3D):
        port, node, pred = Port.FAIL, u, m.call_preds[u]
        m.marks[u] = True
        m.current = m.up[u]
        if u == 0:
            m.complete = True
        m.failing = True
        m.success = False
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
        m.complete = m.success = False
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
            m.complete = m.success = False
        port, pred = Port.REDO, m.display[node]

    if port is None:
        return rule, None
    r, l = _num_for(m, model, node), lpath(m, node)
    return rule, TraceEvent(chrono, r, l, port, pred)

def _drive(machine: ExtMachine, model: ModelId, max_steps: int, shared: bool = False):
    """Fire the rules of a run under `model` of at most `max_steps`
    transitions, yielding (rule, event|None) after each.  At the end
    `machine.halted` is True when no rule applies, False when the budget
    ran out first or, with `shared`, the models may part (invariant 3)."""
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    chrono = 1
    for _ in range(max_steps):
        rule = applicable_extended(machine, model)
        if shared and (rule not in _SHARED or machine.failing or machine.complete or machine.reverse):
            return
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
    machine = ExtMachine(state)
    rule = applicable_extended(machine, model)
    if rule is None:
        raise DeterminismViolation("step called on a halted state")
    _fire(machine, model, 0, rule)
    return rule, machine.snapshot()


@dataclass(frozen=True)
class ModelRun:
    """A run under one model: its events, and whether it halted.  The run
    keeps no states.  `initial` is `init_extended(program)`, and
    `transitions`, each (rule, state after it), replays the run
    (deterministically) on first read and keeps its rules and its last
    state, an `engine.StateLog` that rebuilds a state when it is read."""

    model: ModelId
    events: tuple
    halted: bool
    program: Program = field(compare=False, repr=False)
    max_steps: int = field(compare=False, repr=False)

    initial = cached_property(lambda run: init_extended(run.program))

    @cached_property
    def transitions(self) -> StateLog:
        machine, model = ExtMachine(self.initial), self.model
        rules = [rule for rule, _ in _drive(machine, model, self.max_steps)]
        fire = lambda m, rule, _i: _fire(m, model, 0, rule)
        return StateLog(self.initial, rules, machine.snapshot(), ExtMachine, fire).transitions()


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


# The rules that end a backtrack, each by re-choosing at a choice point.
_RECHOICE = frozenset((ExtRuleId.REDO_M1, ExtRuleId.REDO_M2B, ExtRuleId.REDO_M3A))


def compare_models(program: Program, max_steps: int) -> ModelComparison:
    """Run all three models and check that the port sequences nest:
    m1's within m2's, m2's within m3's.  Each segment that they share
    (invariant 3) runs once, under m1, and each model takes the events of
    the steps its budget has left.  Where they part, each model with
    budget left backtracks on its own copy until it re-chooses, and they
    go on from the machine of any that did (invariant 4)."""
    machine = ExtMachine(init_extended(program))
    left, ports, halted = dict.fromkeys(ModelId, max_steps), {m: [] for m in ModelId}, {}
    while left:
        fired = list(_drive(machine, ModelId.M1, max(left.values()), shared=True))
        for model, budget in list(left.items()):
            ports[model] += [e.port for _, e in fired[:budget] if e is not None]
            left[model] -= len(fired)
            if left[model] <= 0:  # a shared rule fired after its last step, unless none did
                del left[model]
                halted[model] = budget == len(fired) and applicable_extended(machine, model) is None
        parted, forks = machine, list(left)
        for model in forks:
            m = parted if model is forks[-1] else parted.copy()
            for rule, event in _drive(m, model, left[model]):
                left[model] -= 1
                if event is not None:
                    ports[model].append(event.port)
                if rule in _RECHOICE and left[model]:
                    break
            else:  # it halted or ran out of budget first
                halted[model] = m.halted
                del left[model]
                continue
            machine = m
    return ModelComparison(
        counts={m: len(ports[m]) for m in ModelId},
        halted=halted,
        m1_in_m2=_is_subsequence(ports[ModelId.M1], ports[ModelId.M2]),
        m2_in_m3=_is_subsequence(ports[ModelId.M2], ports[ModelId.M3]),
    )
