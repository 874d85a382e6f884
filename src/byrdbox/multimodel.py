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

Which rules emit which events is not prescribed anywhere usable; the
mapping below is frozen against the three reference traces of the second
worked example (28, 32 and 44 events) and against the first example,
which all three models must trace identically up to the m2 numbering.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Tuple

from .dewey import (
    child,
    child_count,
    derive_indexes,
    last_in_subtree,
    split_after,
    with_node,
)
from .engine import EPSILON, NodeId, parent, node_str, DeterminismViolation
from .terms import (
    BOTTOM,
    Program,
    rename_clause,
    resolve,
    unify,
)
from .tracing import Port, TraceEvent

__all__ = [
    "ModelId",
    "ExtRuleId",
    "ExtendedState",
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
    LEAFFAIL2_M12 = "leaffail2_m12"
    LEAFFAIL2_M3 = "leaffail2_m3"
    TREEFAIL_M12 = "treefail_m12"
    TREEFAIL_M2 = "treefail_m2"
    REDO_M1 = "redo_m1"
    REDO_M2A = "redo_m2a"
    REDO_M2B = "redo_m2b"
    REDO_M3A = "redo_m3a"
    REDO_M3B = "redo_m3b"
    REDO_M3C = "redo_m3c"
    REDO_M3D = "redo_m3d"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class ExtShadow:
    bindings: dict
    stamp: int
    pending: Optional[dict]  # bindings to adopt when the chosen clause commits
    call_preds: dict         # node -> predication as (re)called
    call_snaps: dict         # node -> substitution snapshot at that call
    display: dict            # node -> last shown instance (call, then exit values)
    marks: frozenset         # nodes closed during the current reverse sweep (m3)


@dataclass(frozen=True)
class ExtendedState:
    tree: frozenset
    current: NodeId
    counter: int
    numbers: dict
    preds: dict        # skeleton predications (raw body atoms)
    chosen: dict       # node -> renamed clause instance currently in use
    boxes: dict
    sigmas: dict       # node -> substitution active at the node
    fresh: dict
    complete: bool     # ct
    failing: bool      # flr
    success: bool      # scs
    reverse: bool      # bk3
    program: Program = field(compare=False, repr=False)
    shadow: ExtShadow = field(compare=False, repr=False)
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
        if not state.fresh.get(w, False) and w not in state.shadow.marks
    ]
    return live[-1] if live else None


def _lp(v) -> int:
    return len(v) + 1


# ----------------------------------------------------------------------
# Rule gates
# ----------------------------------------------------------------------

def _gates(state: ExtendedState, model: ModelId) -> dict:
    u = state.current
    sh = state.shadow
    fst = state.fresh.get(u, False)
    ct, flr, scs, bk3 = state.complete, state.failing, state.success, state.reverse
    leaf = _is_leaf(state, u)
    box = state.boxes.get(u, ())
    cc = state.chosen.get(u)
    m1, m2, m3 = model is ModelId.M1, model is ModelId.M2, model is ModelId.M3

    g = {r: False for r in ExtRuleId}
    g[ExtRuleId.CALLONE] = fst and leaf and not ct and not flr and not bk3
    g[ExtRuleId.CHOICE] = (
        not fst and leaf and not ct and not bk3 and not flr
        and cc is None and bool(box) and sh.pending is None
    )
    committed = cc is not None and sh.pending is not None
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
        and cc is None and not box and sh.pending is None
    )
    # The two leaffail2 variants cover a chosen clause whose unification
    # fails; clause choice here already skips non-unifying heads silently,
    # so these never fire.  They stay in the rule table for completeness.
    g[ExtRuleId.LEAFFAIL2_M12] = False
    g[ExtRuleId.LEAFFAIL2_M3] = False
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
    no_child_left = _reenterable_child(state, u) is None
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
    shadow = ExtShadow(
        bindings={},
        stamp=0,
        pending=None,
        call_preds={EPSILON: called},
        call_snaps={EPSILON: {}},
        display={EPSILON: called},
        marks=frozenset(),
    )
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
        shadow=shadow,
    )


class _Work:
    """Mutable scratch copy of a state while one transition fires."""

    def __init__(self, state: ExtendedState):
        self.s = state
        self.tree = set(state.tree)
        self.current = state.current
        self.counter = state.counter
        self.numbers = dict(state.numbers)
        self.preds = dict(state.preds)
        self.chosen = dict(state.chosen)
        self.boxes = dict(state.boxes)
        self.sigmas = dict(state.sigmas)
        self.fresh = dict(state.fresh)
        self.complete = state.complete
        self.failing = state.failing
        self.success = state.success
        self.reverse = state.reverse
        self.bindings = state.shadow.bindings
        self.stamp = state.shadow.stamp
        self.pending = state.shadow.pending
        self.call_preds = dict(state.shadow.call_preds)
        self.call_snaps = dict(state.shadow.call_snaps)
        self.display = dict(state.shadow.display)
        self.marks = set(state.shadow.marks)
        self.order = state.order
        self.cps = state.cps

    def freeze(self) -> ExtendedState:
        return ExtendedState(
            tree=frozenset(self.tree),
            current=self.current,
            counter=self.counter,
            numbers=self.numbers,
            preds=self.preds,
            chosen=self.chosen,
            boxes=self.boxes,
            sigmas=self.sigmas,
            fresh=self.fresh,
            complete=self.complete,
            failing=self.failing,
            success=self.success,
            reverse=self.reverse,
            program=self.s.program,
            shadow=ExtShadow(
                bindings=self.bindings,
                stamp=self.stamp,
                pending=self.pending,
                call_preds=self.call_preds,
                call_snaps=self.call_snaps,
                display=self.display,
                marks=frozenset(self.marks),
            ),
            order=self.order,
            cps=self.cps,
        )

    # -- shared pieces --------------------------------------------------

    def set_box(self, v, box):
        self.boxes[v] = box
        self.cps = with_node(self.cps, v, bool(box))

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
            self.numbers.pop(y, None)
            self.boxes[y] = ()
            self.chosen.pop(y, None)
            self.sigmas.pop(y, None)
            self.call_preds.pop(y, None)
            self.call_snaps.pop(y, None)
            self.display.pop(y, None)
            self.marks.discard(y)

    def rechoice(self, v):
        self.prune_after(v)
        self.chosen.pop(v, None)
        self.pending = None
        self.success = False
        self.failing = False
        if self.complete:
            self.complete = False

    def fail_at(self, u):
        self.marks.add(u)
        self.current = parent(u)
        if u == EPSILON:
            self.complete = True
        self.failing = True
        self.success = False


def _event(port, r, node, pred, chrono):
    return TraceEvent(chrono=chrono, r=r, l=_lp(node), port=port, pred=pred)


def _num_for(work, model, node):
    if model is ModelId.M2:
        return 1 + bisect_left(work.order, node)  # 1 + nodes before it
    return work.numbers[node]


def _fire(state: ExtendedState, model: ModelId, chrono: int, rule: ExtRuleId):
    """Fire `rule`; returns (state', event|None)."""
    w = _Work(state)
    u = state.current
    event = None

    if rule is ExtRuleId.CALLONE:
        called = resolve(w.bindings, state.preds[u])
        w.counter += 1
        w.numbers[u] = w.counter
        w.set_box(u, state.program.clauses_for(called.functor, called.arity))
        w.chosen.pop(u, None)
        w.sigmas[u] = w.bindings
        w.fresh[u] = False
        w.success = False
        w.failing = False
        w.call_preds[u] = called
        w.call_snaps[u] = dict(w.bindings)
        w.display[u] = called
        w.marks.discard(u)
        event = _event(Port.CALL, _num_for(w, model, u), u, called, chrono)

    elif rule is ExtRuleId.CHOICE:
        base = w.call_snaps[u]
        goal = w.call_preds[u]
        box = list(w.boxes[u])
        while box:
            if unify(goal, box[0].trial.head, base, resolved=False) is not BOTTOM:
                w.stamp += 1
                inst = rename_clause(box[0], w.stamp)
                w.chosen[u] = inst
                w.pending = unify(goal, inst.head, base, resolved=False)
                box.pop(0)
                break
            box.pop(0)
        w.set_box(u, tuple(box))

    elif rule is ExtRuleId.FACTSUCCEEDS:
        w.bindings = w.pending
        w.pending = None
        w.sigmas[u] = w.bindings
        w.success = True
        w.failing = False
        shown = resolve(w.bindings, w.call_preds[u])
        w.display[u] = shown
        event = _event(Port.EXIT, _num_for(w, model, u), u, shown, chrono)

    elif rule is ExtRuleId.CLAUSSUCCEEDS:
        w.bindings = w.pending
        w.pending = None
        w.sigmas[u] = w.bindings
        body = w.chosen[u].body
        for i, atom in enumerate(body, start=1):
            slot = child(u, i)
            w.tree.add(slot)
            w.order = with_node(w.order, slot)
            w.preds[slot] = atom
            w.fresh[slot] = True
            w.boxes[slot] = ()
        w.current = child(u, 1)

    elif rule in (ExtRuleId.EXIT1, ExtRuleId.EXIT2):
        if not _is_leaf(state, u):
            shown = resolve(w.bindings, w.call_preds[u])
            w.display[u] = shown
            event = _event(Port.EXIT, _num_for(w, model, u), u, shown, chrono)
        if rule is ExtRuleId.EXIT1:
            w.current = parent(u)
            if u == EPSILON:
                w.complete = True
        else:
            w.current = child(parent(u), u[-1] + 1)

    elif rule is ExtRuleId.LEAFFAIL1:
        event = _event(
            Port.FAIL, _num_for(w, model, u), u, w.call_preds[u], chrono
        )
        w.fail_at(u)
        if model is ModelId.M3:
            w.reverse = True

    elif rule is ExtRuleId.TREEFAIL_M12:
        event = _event(
            Port.FAIL, _num_for(w, model, u), u, w.call_preds[u], chrono
        )
        w.fail_at(u)

    elif rule is ExtRuleId.REDO_M1:
        v = _gcp(state, u)
        event = _event(
            Port.REDO, _num_for(w, model, v), v, w.display[v], chrono
        )
        w.rechoice(v)
        w.current = v

    elif rule is ExtRuleId.REDO_M2A:
        # Top level re-enters the root box asking for another solution;
        # the walk down to the choice point is then traced like a failure.
        event = _event(
            Port.REDO, _num_for(w, model, u), u, w.display[u], chrono
        )
        w.complete = False
        w.success = False
        w.failing = True

    elif rule is ExtRuleId.TREEFAIL_M2:
        dest = _toward_gcp(state, u)
        event = _event(
            Port.REDO, _num_for(w, model, dest), dest, w.display[dest], chrono
        )
        w.current = dest

    elif rule is ExtRuleId.REDO_M2B:
        w.rechoice(u)

    elif rule is ExtRuleId.REDO_M3A:
        w.rechoice(u)
        w.reverse = False

    elif rule is ExtRuleId.REDO_M3B:
        if state.reverse:
            dest = _reenterable_child(state, u)
            w.current = dest
        else:
            # ct at the root with alternatives left: the reverse sweep
            # starts by re-entering the root box itself.
            dest = u
            w.reverse = True
            w.complete = False
            w.success = False
        event = _event(
            Port.REDO, _num_for(w, model, dest), dest, w.display[dest], chrono
        )

    elif rule in (ExtRuleId.REDO_M3C, ExtRuleId.REDO_M3D):
        event = _event(
            Port.FAIL, _num_for(w, model, u), u, w.call_preds[u], chrono
        )
        w.fail_at(u)

    else:  # pragma: no cover - leaffail2 variants are unreachable
        raise DeterminismViolation(f"rule {rule} cannot fire")

    return w.freeze(), event


def step_extended(
    state: ExtendedState, model: ModelId
) -> Tuple[ExtRuleId, ExtendedState]:
    """Fire the unique applicable rule under `model`."""
    rule = applicable_extended(state, model)
    if rule is None:
        raise DeterminismViolation("step called on a halted state")
    new_state, _ = _fire(state, model, 0, rule)
    return rule, new_state


@dataclass(frozen=True)
class ModelRun:
    model: ModelId
    events: tuple
    halted: bool
    transitions: tuple  # of (ExtRuleId, ExtendedState)
    initial: ExtendedState


def run_model(program: Program, model: ModelId, max_steps: int) -> ModelRun:
    """Run the machine under one model and collect its emitted events.

    `max_steps` bounds machine transitions (silent ones included), so the
    event count is at most the budget."""
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    initial = init_extended(program)
    state = initial
    events = []
    transitions = []
    chrono = 1
    halted = False
    for _ in range(max_steps):
        rule = applicable_extended(state, model)
        if rule is None:
            halted = True
            break
        state, event = _fire(state, model, chrono, rule)
        transitions.append((rule, state))
        if event is not None:
            events.append(event)
            chrono += 1
    else:
        halted = applicable_extended(state, model) is None
    return ModelRun(model, tuple(events), halted, tuple(transitions), initial)


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
