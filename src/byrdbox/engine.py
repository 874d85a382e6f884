"""The box-model tracer's state machine for pure-Prolog resolution.

The observable state has nine parameters: the partial proof tree T (nodes
in Dewey notation, see below), the current node u, the last creation
number n, the node-numbering map, the node-predication map, the per-node
clause boxes, the first-visit flags, and the two booleans ct
(construction complete, back at the root) and flr (failure in progress).

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
`VirtualState` is a snapshot of it, made only where a state is asked
for: `step` returns one, and the streaming runs make none.  The states of
a whole run are a `StateLog`, kept as the rules that replay them: the
first state, each step's rule and the last state.  A state in between is
rebuilt when it is read, by firing the kept rules on a fresh live stack,
so a run keeps two states, not one per step (runs are deterministic).
The other engine's `ModelRun` and the rebuilder's `reconstruct_trace`
keep theirs in the same way.

A node is named by its Dewey word, a tuple of ints whose Python order is
the Dewey (lexicographic) order: a prefix sorts before its extensions,
siblings by component.  A node's children are numbered 1..k without gaps
in every reachable state of both engines and in every rebuilt state:
children are created in order (a clause's body slots all at once), and
pruning removes a lexicographic suffix of the tree or all of a node's
children.  So v is a leaf iff v + (1,) is not in the tree, and the
rebuilder numbers v's next child one more than the children it counts in
v's subtree.  Every node a state stores is the canonical tuple of its
word, made by `child` and kept for the life of the process in one table,
so all states share one object per node.  Equality never depends on it,
but list, set and dict comparisons test identity first.  The adequacy
check compares the rebuilder's node list with the machine's as it
stands, so that costs one step per node, not one per node component.
Words are built where they are observed (the stacks' `nodes` lists,
snapshots, `node_str`); a tree query reads positions, and a word only
for a depth or a child index.

The machine holds its tree as a node stack.  Each node is a position in
parallel lists: its word (`nodes`), its parent's position (`up`; the root,
at 0, is its own parent) and the per-node bookkeeping the rules read
(`numbers`, `preds`, `boxes`, `fresh`, `call_preds`, `call_snaps`,
`chosen`).  A visit that finds its box drained chooses None, which the
rules read as the node's failure, so the kept `chosen` map of a snapshot
has no entry for that node.  The choice points `cps` are a list of
positions.  The layout relies on three invariants:

  1. every node created is the Dewey maximum of the tree, so the lists
     only grow on top and stay in Dewey order;
  2. the current node is the last node or an ancestor of it, so every
     node after the current one lies in its subtree;
  3. `cps` only grows on top: a node enters it only when it is created,
     through `set_box`, and a drained box leaves it from the top.

So node u is a leaf iff it is the last node or the next node's parent is
not u, the greatest choice point in u's subtree is the top of `cps` when
that is at or after u, and backtracking to v, that top, truncates every
list after v and leaves `cps` as it is.  A push that is not the Dewey
maximum, and a drained box that is not the top of `cps`, raise.  The
machine holds each node once, in its lists: nothing is keyed by word.

The node stack is one substrate, written once here, for three stacks:
this engine's `Machine` and `VirtualState`, the other engine's
(multimodel) `ExtMachine` and `ExtendedState`, and the rebuilder's
(rebuild) `Rebuilder` and `RestrictedState`.  The two engines' states
declare their shared fields once, in `_State`.  `_Live` is the live stack.
It copies a snapshot's lists in, in one column order for every stack
(`nodes` and `up`, then the state's OBSERVED and KEPT columns), and finds
the current node with one bisection of `nodes`; each stack has its own
rule for a u that is not where it allows.  It keeps the choice points
(`set_box`), drops every node after a position that no choice point lies
after (`cut`), adds one (`insert`) and freezes the lists (`snapshot`).
`_Snapshot` is the frozen stack: it holds the lists as tuples, so a
snapshot is tuple copies, and derives its word-keyed maps (`tree`,
`numbers`, `preds`, ...) from them the first time they are read.
`_subtree_end` finds where a subtree ends.  The adequacy check compares
the rebuilder's lists with the machine's as they stand.  Both engines
also fill every box with `box_init` and share the clause selection:
`_peek_visit` unifies each head at most once, and `_take` consumes what
it found without unifying (see "Visit resolution" below).  The tree
queries below take the live machine and a position; a caller that holds
a snapshot builds `Machine(state)` first, as `step`, `applicable_rule`
and `tracing.extract_event` do.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain, islice
from typing import Optional, Tuple

from .terms import (
    BOTTOM,
    Clause,
    Program,
    Struct,
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
    "StateLog",
    "DeterminismViolation",
    "child",
    "node_str",
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

class _Tag(Enum):
    """Base of the enums whose members print as their value."""

    # Members are singletons: hash by identity, in C, not by name.
    __hash__ = object.__hash__

    def __str__(self):
        return self.value


class RuleId(_Tag):
    CALL1 = "Call1"
    CALL2 = "Call2"
    EXIT1 = "Exit1"
    EXIT2 = "Exit2"
    FAIL2 = "Fail2"
    REDO1 = "Redo1"
    REDO2 = "Redo2"


class DeterminismViolation(Exception):
    """Raised when zero or several transition rules apply to a live state;
    `table` maps every rule, in rule order, to whether it applies."""

    def __init__(self, message: str, table: Optional[dict] = None):
        super().__init__(message)
        self.table = table


def _word_map(name: str) -> cached_property:
    """A snapshot's word-keyed map of its column `name`, derived on first
    read: it lists the nodes in the order they were created, which is
    Dewey order unless creation stamps `born` rank them otherwise, and has
    no entry where the column holds None."""
    def derive(s):
        rows = zip(s.nodes, (s.observed + s.kept)[(s.OBSERVED + s.KEPT).index(name)])
        if s.born is not None:
            rows = (row for _, row in sorted(zip(s.born, rows)))
        return {v: x for v, x in rows if x is not None}
    return cached_property(derive)


class _Snapshot:
    """A frozen node stack, of either engine or of the rebuilder: its
    lists as tuples (the words in `nodes`, one column per name of OBSERVED
    and then KEPT in `observed` and `kept`), the current node as a word,
    and the word-keyed maps derived from them the first time they are
    read.  Only a rebuilt state can carry creation stamps `born`."""

    born = None
    tree = cached_property(lambda s: frozenset(s.nodes))
    numbers, preds, boxes, fresh = map(_word_map, ("numbers", "preds", "boxes", "fresh"))
    call_preds, call_snaps, chosen = map(_word_map, ("call_preds", "call_snaps", "chosen"))


# The link map is keyed by the id of a canonical node, which the table
# keeps alive, so that id is never reused; it makes `child` O(1) on
# canonical nodes.
_NODES = {(): ()}
_CHILDREN = {}  # (id(v), i) -> v.i


def child(v: tuple, i: int) -> tuple:
    """The canonical node v.i (see the module docstring)."""
    node = _CHILDREN.get((id(v), i))
    if node is None:
        v = _NODES.setdefault(v, v)
        w = v + (i,)
        node = _CHILDREN[id(v), i] = _NODES.setdefault(w, w)
    return node


class _Live:
    """A live node stack, of either engine or the rebuilder: it copies the
    lists of the snapshot it starts from into `columns`, in one order for
    every stack (LISTS, then the state's OBSERVED and KEPT), and its
    scalars (SCALARS), takes its choice points `cps` from the boxes, and
    `snapshot` freezes them into a new STATE.  `current` is the current
    node's position, found by bisection as the lists are in Dewey order;
    None when the state's u is not in its tree.  `set_box`, `cut` and
    `insert` keep the lists in Dewey order, so positions compare as the
    nodes do."""

    LISTS = ("nodes", "up")

    def __init__(self, state):
        lists = tuple(getattr(state, name) for name in self.LISTS) + state.observed + state.kept
        self.columns = tuple(map(list, lists))
        vars(self).update(zip(self.LISTS + state.OBSERVED + state.KEPT, self.columns))
        for name in self.SCALARS:
            setattr(self, name, getattr(state, name))
        self.cps = [p for p, box in enumerate(self.boxes) if box]
        self.halted = False  # set by the run that drives the machine
        nodes, u = self.nodes, state.current
        p = bisect_left(nodes, u)
        self.current = p if p < len(nodes) and nodes[p] == u else None

    def snapshot(self):
        frozen = lambda name: tuple(getattr(self, name))
        return self.STATE(
            current=self.nodes[self.current],
            observed=tuple(map(frozen, self.STATE.OBSERVED)),
            kept=tuple(map(frozen, self.STATE.KEPT)),
            **{name: frozen(name) for name in self.LISTS},
            **{name: getattr(self, name) for name in self.SCALARS},
        )

    def set_box(self, p: int, box: tuple) -> None:
        """Fill or shrink the box at p: p enters `cps` on top when its box
        fills (the only way in), and leaves it, from the top, when its box
        drains."""
        cps = self.cps
        if box and not self.boxes[p]:
            assert not cps or p > cps[-1], "a push below the top of cps"
            cps.append(p)
        elif self.boxes[p] and not box:
            top = cps.pop()
            assert top == p, "a drained choice point is not the top of cps"
        self.boxes[p] = box

    def cut(self, v: int) -> None:
        """Drop every node after position v from every column.  No choice
        point lies after v: every stack cuts at or above the top of `cps`."""
        assert not self.cps or self.cps[-1] <= v, "a cut below the top of cps"
        for column in self.columns:
            del column[v + 1:]

    def insert(self, at: int, row: tuple) -> None:
        """Insert a node at position `at`, one value of `row` per column:
        every later node moves one on.  No parent position or choice point
        is moved; on a push on top there is none to move."""
        for column, value in zip(self.columns, row):
            column.insert(at, value)


class StateLog(Sequence):
    """The states of a run, of either engine or of the rebuilder, kept as
    the rules that replay them: the first state, each step's rule, and the
    last state.  `len`, `[0]` and `[-1]` build no state; `[i]` replays i
    steps on a fresh live stack `live(first)`, `fire(stack, rule, i)`
    firing step i, and iteration replays once, with one snapshot per
    state.  Slices, equality and hash are those of the tuple of its items.
    `transitions()` is the same log read as the run's transitions, each
    (rule, state after it): its item i holds state i + 1."""

    def __init__(self, first, rules: list, final, live, fire, pairs: bool = False):
        self.first, self.rules, self.final = first, rules, final
        self._live, self._fire, self._pairs = live, fire, pairs

    def transitions(self) -> StateLog:
        return StateLog(self.first, self.rules, self.final, self._live, self._fire, True)

    def _replay(self, steps: int):
        """A fresh live stack from the first state, after each of its first `steps` steps."""
        stack = self._live(self.first)
        for i in range(steps):
            self._fire(stack, self.rules[i], i)
            yield stack

    def _state(self, i: int):
        if i in (0, len(self.rules)):
            return self.final if i else self.first
        return next(islice(self._replay(i), i - 1, None)).snapshot()

    def __len__(self):
        return len(self.rules) + (not self._pairs)

    def __iter__(self):
        replayed = (stack.snapshot() for stack in self._replay(len(self.rules) - 1))
        later = chain(replayed, (self.final,))
        if self._pairs:
            return zip(self.rules, later)
        return chain((self.first,), islice(later, len(self.rules)))

    # Sequence's own versions read item by item, a replay each; these replay once
    __reversed__ = lambda self: reversed(tuple(self))

    def index(self, value, start=0, stop=None):
        for i, x in islice(enumerate(self), *slice(start, stop).indices(len(self))[:2]):
            if x is value or x == value:
                return i
        raise ValueError("value not in the log")

    def __getitem__(self, key):
        if isinstance(key, slice):
            want = range(len(self))[key]
            # one replay, up to the last item wanted
            picked = {i: x for i, x in zip(range(max(want, default=-1) + 1), self) if i in want}
            return tuple(map(picked.__getitem__, want))
        i = range(len(self))[key]  # IndexError out of range, as a tuple's
        return (self.rules[i], self._state(i + 1)) if self._pairs else self._state(i)

    def __eq__(self, other):
        if not isinstance(other, (tuple, StateLog)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __hash__(self):
        # a tuple's hash reads only its items' hashes: hand it those
        return hash(tuple(_Hashed(hash(x)) for x in self))


class _Hashed(int):
    """An int whose hash is itself at any size (an int's own hash is its
    value modulo 2**61 - 1)."""

    __hash__ = int.__int__


@dataclass(frozen=True)
class _State(_Snapshot):
    """The state both engines share, frozen: the core machine's nine
    parameters, which the other engine's thirteen extend (see multimodel).
    `nodes` is the tree in Dewey order, so comparing the columns compares
    the maps: equality and repr see the tree, u, n, the observable columns
    (`observed`, one per name of the subclass's OBSERVED), ct and flr, in
    that order.  The rest is not observable, neither compared nor shown:
    the parent positions, the program, and the resolution bookkeeping (the
    current branch's bindings, the renaming stamp and the KEPT columns)."""

    nodes: tuple
    up: tuple = field(compare=False, repr=False)  # given by the nodes
    current: NodeId
    counter: int
    observed: tuple
    complete: bool  # ct
    failing: bool   # flr
    program: Program = field(compare=False, repr=False)
    bindings: dict = field(compare=False, repr=False)  # current branch
    stamp: int = field(compare=False, repr=False)      # renaming counter
    kept: tuple = field(compare=False, repr=False)


class VirtualState(_State):
    """A snapshot of the core machine, by position: the shared state with
    the core's columns and nothing more."""

    OBSERVED = ("numbers", "preds", "boxes", "fresh")
    # node -> as called, bindings then, clause in use (None before the
    # first visit and after a drained one)
    KEPT = ("call_preds", "call_snaps", "chosen")


@dataclass(frozen=True)
class RunResult:
    """A derivation: its states S_0 .. S_k, a `StateLog` that keeps S_0,
    the rules and S_k (it reads as a tuple, not a list: compare
    `list(run.states)` with a list).  `initial` is S_0, and `transitions`
    the same log read as (rule, state after it) pairs.

    `halted` is True when the machine reached the no-rule-applies state,
    False when the step budget ran out first (the two are distinguishable
    by construction)."""

    states: StateLog
    halted: bool

    initial = property(lambda run: run.states.first)
    transitions = property(lambda run: run.states.transitions())


# ----------------------------------------------------------------------
# Tree utilities.  They take the live machine and a position (see the
# module docstring); only `node_str` takes a Dewey word.
# ----------------------------------------------------------------------

_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")  # byte i -> digit i


def node_str(v: NodeId) -> str:
    if v == EPSILON:
        return "eps"
    if max(v) <= 9:  # one digit per component, each made in C
        return bytes(v).translate(_DIGITS).decode()
    return ".".join(map(str, v))


def is_leaf(m: Machine, p: int) -> bool:
    # in Dewey order, a node with children is followed by its first child
    return p + 1 == len(m.nodes) or m.up[p + 1] != p


def lpath(m: Machine, p: int) -> int:
    """Number of nodes on the root-to-p path (the recursion depth)."""
    return len(m.nodes[p]) + 1


def may_have_new_brother(m: Machine, p: int) -> bool:
    """True iff p's predication is not the last one in the body of the
    clause currently chosen at p's parent.  The root has no brother."""
    if p == 0:
        return False
    chosen = m.chosen[m.up[p]]
    return chosen is not None and m.nodes[p][-1] < len(chosen.body)


def _subtree_end(m, p: int) -> int:
    """The position right after the subtree of the node at position p of
    any node stack, live or frozen, whose Dewey order keeps a subtree
    contiguous: the end of the lists when the last node lies in the
    subtree (so always when p is the current node or an ancestor of it,
    invariant 2), else the first later node no deeper than p."""
    nodes, up = m.nodes, m.up
    last = w = len(nodes) - 1
    depth = len(nodes[p])
    for _ in range(len(nodes[last]) - depth):
        w = up[w]
    if w == p:
        return last + 1
    return next(end for end in range(p + 1, last + 1) if len(nodes[end]) <= depth)


def has_choice_point(m: Machine, p: int) -> bool:
    return greatest_choice_point(m, p) is not None


def greatest_choice_point(m: Machine, p: int) -> Optional[int]:
    """The position of the greatest node (lexicographically) in p's
    subtree whose box still holds a clause; None when there is none.

    p is the current node or an ancestor of it, the only nodes after
    which every node lies in p's subtree (invariant 2): so the answer is
    the top of `cps` when that is at or after p."""
    cps = m.cps
    return cps[-1] if cps and cps[-1] >= p else None


def box_init(program: Program, atom: Term, bindings: dict):
    """Fill a fresh node's box: the called predication under the current
    substitution, plus its predicate's clauses (functor/arity filter; the
    unification outcome is decided at visit time, not here)."""
    called = resolve(bindings, atom)
    return program.clauses_for(called.functor, called.arity), called


def updated_pred(m: Machine, p: int) -> Term:
    """The node's predication with all bindings accumulated so far applied
    (the post-success value shown by Exit events).  Resolved once per
    transition, so that an Exit event and the node's new predication are
    one object."""
    if m.resolved is None or m.resolved[0] != p:
        m.resolved = (p, resolve(m.bindings, m.call_preds[p]))
    return m.resolved[1]


# ----------------------------------------------------------------------
# Visit resolution.  When a node is visited (first call, or re-entry via
# Redo) the engine scans its box in order: clauses whose head does not
# unify with the called predication are dropped silently, with no trace
# event; the first unifying clause is the one the visit consumes.  A head
# with an argument whose functor clashes with the call's is dropped
# without unifying (clause indexing on the principal functor, as the
# WAM's switch_on_term does); every other head is unified once, renamed
# with the stamp the visit will take, and the winner's renaming and
# unifier are what the visit consumes.  Every visit, in both engines,
# extends the bindings of the visited node's call (`call_snaps`), the
# mark a WAM trail would record there.  At a first visit those are the
# machine's own bindings: no rule fires between a node's push and its
# visit.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _Peek:
    skipped: int              # leading clauses that fail head unification
    clause: Optional[Clause]  # first unifying clause, renamed; None when drained
    bindings: Optional[dict]  # its unifier, extending the node's call bindings
    stamp: int                # the renaming stamp: the machine's stamp + 1

    @property
    def calls_fact(self) -> bool:
        # Drained boxes route through the fact-style visit: the call event
        # still fires, failure is detected right after.
        return self.clause is None or self.clause.is_fact


def _clash(goal: Struct, head: Struct) -> bool:
    """Whether some argument of `goal` and the same argument of `head` are
    both compound terms with a different functor or arity.  Such a pair
    never unifies, whatever the bindings or the renaming, so the head is
    dropped without unifying.  That skips no CyclicTerm that `unify` would
    raise: the engines' stores start empty and grow only through `unify`,
    which never binds a variable into a variable-to-variable cycle."""
    for a, b in zip(goal.args, head.args):
        if a.__class__ is Struct is b.__class__ and (
            a.functor != b.functor or len(a.args) != len(b.args)
        ):
            return True
    return False


def _peek_visit(state, v) -> _Peek:
    """The visit of node v, decided without changing anything: it extends
    the bindings of v's call, which at a first visit are the machine's
    own.  A trial renames a clause with the stamp the visit will take,
    which no variable of the call or the store carries yet, and unifies
    its head; both build new objects, so a peek that is not fired
    (`_conditions`, `applicable_rule`) leaves the state as it was."""
    goal, base = state.call_preds[v], state.call_snaps[v]
    stamp = state.stamp + 1
    skipped = 0
    for c in state.boxes[v]:
        if not _clash(goal, c.head):
            inst = rename_clause(c, stamp)
            bindings = unify(goal, inst.head, base, resolved=False)
            if bindings is not BOTTOM:
                return _Peek(skipped, inst, bindings, stamp)
        skipped += 1
    return _Peek(skipped, None, None, stamp)


# ----------------------------------------------------------------------
# Rule selection, on the live machine.
# ----------------------------------------------------------------------

def _pending_visit(m: Machine) -> Optional[_Peek]:
    """The clause scan of the visit that a Call rule (first visit of the
    current node) or a Redo rule (re-entry of the greatest choice point)
    would make from the machine; None when neither kind can apply."""
    u = m.current
    if m.fresh[u]:
        v = None if m.complete else u
    else:
        v = greatest_choice_point(m, u) if m.failing or m.complete else None
    return None if v is None else _peek_visit(m, v)


def _rule_conditions(m: Machine, peek: Optional[_Peek]) -> dict:
    u = m.current
    fst = m.fresh[u]
    ct, flr = m.complete, m.failing
    drained = m.chosen[u] is None  # read only on a visited node
    hcp_u = has_choice_point(m, u)

    conds = {}
    if fst and not ct:
        conds[RuleId.CALL1] = is_leaf(m, u) and peek.calls_fact
        conds[RuleId.CALL2] = is_leaf(m, u) and not peek.calls_fact
    else:
        conds[RuleId.CALL1] = conds[RuleId.CALL2] = False

    succeeded = not fst and not drained
    mhnb = may_have_new_brother(m, u)
    conds[RuleId.EXIT1] = succeeded and not mhnb and not ct and not flr
    conds[RuleId.EXIT2] = succeeded and mhnb and not ct and not flr
    conds[RuleId.FAIL2] = (not fst) and not ct and not hcp_u and (drained or flr)

    if not fst and hcp_u and (flr or ct):
        conds[RuleId.REDO1] = peek.calls_fact
        conds[RuleId.REDO2] = not peek.calls_fact
    else:
        conds[RuleId.REDO1] = conds[RuleId.REDO2] = False
    return conds


def _conditions(state: VirtualState) -> dict:
    """Rule -> whether its condition holds at `state`."""
    m = Machine(state)
    return _rule_conditions(m, _pending_visit(m))


def _select(m: Machine) -> Tuple[Optional[RuleId], Optional[_Peek]]:
    """(the rule that applies, the clause scan of the visit it makes), so
    that firing the rule does not scan the box again; (None, None) for
    Halt."""
    peek = _pending_visit(m)
    conds = _rule_conditions(m, peek)
    matching = [r for r, ok in conds.items() if ok]
    if len(matching) == 1:
        return matching[0], peek
    u = node_str(m.nodes[m.current])
    if not matching:
        if m.complete and not has_choice_point(m, 0):
            return None, None
        raise DeterminismViolation(f"no rule applies at node {u} in a live state", conds)
    raise DeterminismViolation(
        f"rules {', '.join(str(r) for r in matching)} all apply at node {u}", conds
    )


def applicable_rule(state: VirtualState) -> Optional[RuleId]:
    """The unique rule that applies, or None for Halt.

    Raises DeterminismViolation when zero or several rules match a live
    state; that is an internal bug and must surface, never be resolved
    silently."""
    return _select(Machine(state))[0]


# ----------------------------------------------------------------------
# The machine and its transitions
# ----------------------------------------------------------------------

def init_state(program: Program) -> VirtualState:
    """The state right after top level enters the root box (the top
    level transition itself is not modeled).  An undefined goal predicate
    simply yields an empty root box and a Call/Fail trace."""
    bindings = {}  # the machine's, and the root's call bindings
    boxes, called = box_init(program, program.goal, bindings)
    return VirtualState(
        nodes=(EPSILON,),
        up=(0,),
        current=EPSILON,
        counter=1,
        observed=((1,), (called,), (boxes,), (True,)),
        complete=False,
        failing=False,
        program=program,
        bindings=bindings,
        stamp=0,
        kept=((called,), (bindings,), (None,)),  # no clause before the first visit
    )


class Machine(_Live):
    """The one mutable state that a run fires its rules on, in place: a
    node stack (see the module docstring) that refuses a state whose u is
    not its last node or an ancestor of it (invariant 2)."""

    STATE = VirtualState
    SCALARS = ("counter", "complete", "failing", "program", "bindings", "stamp")

    def __init__(self, state: VirtualState):
        super().__init__(state)
        u = state.current
        if self.current is None or self.nodes[-1][: len(u)] != u:
            raise ValueError("a state's u must be its last node or an ancestor of it")
        self.resolved = None  # (position, Exit predication), see updated_pred


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


def _take(m, v, peek: _Peek):
    """Consume the visit decided by `peek` at node v, in either engine:
    drop the silently skipped clauses and the chosen one from v's box, and
    return (the chosen clause renamed apart, the unifier extending v's
    call bindings), both as the peek made them; None when the box is
    drained."""
    assert peek.stamp == m.stamp + 1, "a peek made at another stamp"
    m.set_box(v, m.boxes[v][peek.skipped + 1:])
    if peek.clause is None:
        return None
    m.stamp += 1
    return peek.clause, peek.bindings


def _child_slot(m: Machine, atom: Term, p: int, i: int) -> None:
    """Push child i of the node at position p, labeled with `atom`
    instantiated by the current substitution: number it, fill its box, and
    make it current."""
    v = child(m.nodes[p], i)
    assert v > m.nodes[-1], f"node {node_str(v)} is not the Dewey maximum"
    box, called = box_init(m.program, atom, m.bindings)
    m.counter += 1
    m.current = len(m.nodes)
    # LISTS, then the columns in OBSERVED and KEPT order.  The new node
    # gets its box once it is on the stack, and no chosen clause until its
    # visit.
    m.insert(m.current, (v, p, m.counter, called, (), True, called, m.bindings, None))
    m.set_box(m.current, box)


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
        m.preds[u] = updated_pred(m, u)
        if rule is RuleId.EXIT1:
            m.current = m.up[u]
            if u == 0:
                m.complete = True
        else:
            w, i = m.up[u], m.nodes[u][-1]
            _child_slot(m, m.chosen[w].body[i], w, i + 1)

    elif rule is RuleId.FAIL2:
        m.current = m.up[u]
        m.failing = True
        # ct is raised when failing at the root itself, and also on
        # arrival at the root while a choice point survives elsewhere;
        # the latter is observable only in the state table, never in the
        # rule selection that follows (a Redo fires on flr alone).
        if u == 0 or (m.current == 0 and has_choice_point(m, 0)):
            m.complete = True

    else:  # Call1, Call2, Redo1, Redo2: a visit; Call2 and Redo2 enter a body
        if rule in (RuleId.CALL1, RuleId.CALL2):
            v = u
            m.fresh[u] = False
        else:
            v = greatest_choice_point(m, u)
            m.cut(v)  # backtracking to v deletes every node after it
            m.current = v
            m.complete = False
        # the visit chooses its clause and extends the bindings, or, when
        # the box is drained, chooses None and rolls them back to v's call
        taken = _take(m, v, peek)
        m.chosen[v], m.bindings = (None, m.call_snaps[v]) if taken is None else taken
        m.failing = False
        if rule in (RuleId.CALL2, RuleId.REDO2):
            _child_slot(m, m.chosen[v].body[0], v, 1)
    m.resolved = None


def run_virtual(program: Program, max_steps: int) -> RunResult:
    """Iterate the machine from the initial state until Halt or until the
    step budget runs out, keeping its rules and its first and last states
    (see `StateLog`).  Traces may be infinite, so the budget is
    mandatory."""
    first = init_state(program)
    machine = Machine(first)
    rules = list(drive(machine, max_steps))
    # a kept rule fires again with the clause scan `_select` made for it
    refire = lambda m, rule, _i: _fire(m, rule, _pending_visit(m))
    return RunResult(StateLog(first, rules, machine.snapshot(), Machine, refire), machine.halted)
