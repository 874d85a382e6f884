"""The tree queries against the full-tree scans they replaced.

Both live machines answer their tree questions (leaf, choice points, and
in the multimodel engine children, next node and m2 rank) from positions
in one kind of node stack; a snapshot is asked through the machine built
from it, which copies the snapshot's lists and takes the choice points
from the boxes.  The rebuilder answers (next child slot, node by number)
from its own node stack: by counting a node's children, and by bisecting
its numbering column, whose numbers increase along the positions.  The
scans below are the reference definitions; the machine built from every
reachable state, the live machine at every step and every rebuilt state
must answer alike, a machine built from a state must give that state
back, and states and the live rebuilder must store only canonical nodes.
"""

from dataclasses import fields
from itertools import chain

import pytest

from byrdbox import (
    AmbiguousOrUndecidable,
    ModelId,
    initial_restricted,
    parse_program,
    parse_term,
    parse_trace,
    reconstruct_trace,
    run_actual_trace,
    run_model,
    run_virtual,
)
from byrdbox.corpus import corpus
from byrdbox.engine import (
    Machine, RuleId, drive, greatest_choice_point, has_choice_point, init_state, is_leaf,
    may_have_new_brother,
)
from byrdbox.multimodel import (
    ExtMachine,
    ExtRuleId,
    _children,
    _drive,
    _gates,
    _gcp,
    _hcp,
    _is_leaf,
    _num_for,
    _reenterable_child,
    _toward_gcp,
    init_extended,
)
from byrdbox.rebuild import Rebuilder, _next_child, identify_rule

from conftest import DATA, SHARED_NUMBER_TRACES, assert_canonical, assert_nodes_canonical

FUEL = 120


# ----------------------------------------------------------------------
# Reference scans
# ----------------------------------------------------------------------

def scan_children(tree, v):
    return sorted(w for w in tree if w[: len(v)] == v and len(w) == len(v) + 1)


def scan_gcp(tree, boxes, v):
    cps = [w for w in tree if w[: len(v)] == v and boxes.get(w)]
    return max(cps) if cps else None


def scan_rank(tree, v):
    return 1 + sum(1 for w in tree if w < v)


def scan_next_child(tree, w):
    used = [v[-1] for v in tree if v[: len(w)] == w and len(v) == len(w) + 1]
    return w + (max(used, default=0) + 1,)


def scan_node_of(numbers, number):
    for v, n in numbers.items():
        if n == number:
            return v
    return None


# ----------------------------------------------------------------------

def programs():
    examples = [
        parse_program((DATA / name).read_text(encoding="utf-8"))
        for name in ("example1.pl", "example2.pl")
    ]
    return examples + list(corpus(30))


PROGRAMS = programs()


def assert_children_gapless(tree):
    for v in tree:
        if v:
            assert v[-1] == 1 or v[:-1] + (v[-1] - 1,) in tree, v


def word(m, p):
    """The Dewey word of a machine's position p, or None."""
    return None if p is None else m.nodes[p]


def path_to_root(m):
    """The positions of the current node and its ancestors."""
    p = m.current
    while p:
        yield p
        p = m.up[p]
    yield 0


def assert_round_trip(state, live, rebuilt, layout):
    """The machine `rebuilt` from `state` holds the layout of the `live`
    machine that `state` was taken from: the lists it copies and the
    choice points it takes from the boxes are the live ones.  And
    it gives back a snapshot equal to `state` in every field, bookkeeping
    included."""
    for name in layout:
        assert getattr(rebuilt, name) == getattr(live, name), name
    again = rebuilt.snapshot()
    for f in fields(state):
        assert getattr(again, f.name) == getattr(state, f.name), f.name


@pytest.mark.parametrize("index", range(len(PROGRAMS)))
def test_machines_give_back_the_states_they_are_built_from(index):
    program = PROGRAMS[index]
    # drive yields before each rule fires, and ends holding the last state
    m = Machine(init_state(program))
    states = run_virtual(program, FUEL).states
    layout = ("nodes", "up", "cps", "current")
    for state, _ in zip(states, chain(drive(m, FUEL), [None]), strict=True):
        assert_round_trip(state, m, Machine(state), layout)
    for model in ModelId:
        # _drive yields after each rule fires
        m = ExtMachine(init_extended(program))
        run = run_model(program, model, FUEL)
        states = [run.initial] + [s for _, s in run.transitions]
        for state, _ in zip(states, chain([None], _drive(m, model, FUEL)), strict=True):
            assert_round_trip(state, m, ExtMachine(state), layout)
            # a CHOICE left to commit is its node's mark, not a second store
            assert state.pending is None or state.pending == state.call_marks[state.current]


@pytest.mark.parametrize("index", range(len(PROGRAMS)))
def test_core_engine_queries_match_scans(index):
    trace = run_actual_trace(PROGRAMS[index], FUEL)
    for state in trace.run.states:
        assert_children_gapless(state.tree)
        assert_nodes_canonical(state)
        m = Machine(state)
        for p, v in enumerate(m.nodes):
            assert is_leaf(m, p) == (not scan_children(state.tree, v))
        for p in path_to_root(m):
            gcp = scan_gcp(state.tree, state.boxes, m.nodes[p])
            assert word(m, greatest_choice_point(m, p)) == gcp
            assert has_choice_point(m, p) == (gcp is not None)

    # the rebuilt states of the same trace
    goal = trace.run.initial.preds[()]
    for q in reconstruct_trace(initial_restricted(goal), trace.events).states:
        assert_children_gapless(q.tree)
        assert_rebuilt_layout(q.nodes, q.up, q.observed[0])
        for p, v in enumerate(q.nodes):
            w = scan_next_child(q.tree, v)
            assert _next_child(q, p) == (w, sorted(q.tree | {w}).index(w))
        for number in set(q.numbers.values()) | {0, max(q.numbers.values()) + 1}:
            assert q.node_of(number) == scan_node_of(q.numbers, number)
        assert_nodes_canonical(q)


def assert_rebuilt_layout(nodes, up, numbers):
    """A rebuilt node stack on an emitted trace: the nodes in Dewey order,
    each node's parent position, and numbers that increase along the
    positions (so that `node_of` can bisect)."""
    nodes = list(nodes)
    assert nodes == sorted(set(nodes))
    assert list(up) == [nodes.index(v[:-1]) for v in nodes]
    assert list(numbers) == sorted(set(numbers))


@pytest.mark.parametrize("index", range(len(PROGRAMS)))
def test_live_rebuilder_stores_canonical_nodes(index):
    # Stepped as reconstruct_trace steps it, the live rebuilder stores only
    # canonical nodes at every step, and keeps the layout of the machine's
    # node stack: the adequacy check compares its lists with the machine's
    # as they stand.
    program = PROGRAMS[index]
    events = run_actual_trace(program, FUEL).events
    rebuilder = Rebuilder(initial_restricted(init_state(program).preds[()]))
    for e, e_next in zip(events, list(events[1:]) + [None]):
        try:
            rule = identify_rule(e, e_next)
        except AmbiguousOrUndecidable:
            break  # the last event of a run that did not halt
        rebuilder.step(rule, e, e_next)
        assert_rebuilt_layout(rebuilder.nodes, rebuilder.up, rebuilder.numbers)
        assert len(rebuilder.preds) == len(rebuilder.nodes) and rebuilder.born is None
        assert_canonical(chain([rebuilder.nodes[rebuilder.current]], rebuilder.nodes))


def assert_stack_layout(m):
    """Either live machine is a node stack: its lists are parallel and in
    Dewey order, `up` holds each node's parent position, `cps` is exactly
    the positions whose box holds a clause, in order, and no choice point
    lies after the current node's subtree (the multimodel engine's
    invariant 2; the core's stronger one is checked below)."""
    nodes = m.nodes
    assert nodes == sorted(set(nodes)) and all(len(column) == len(nodes) for column in m.columns)
    where = {v: p for p, v in enumerate(nodes)}
    assert m.up == [where[v[:-1]] for v in nodes]
    assert m.cps == [p for p in range(len(nodes)) if m.boxes[p]]
    current = nodes[m.current]
    assert all(nodes[p] < current or nodes[p][: len(current)] == current for p in m.cps)


def assert_core_stack_layout(m):
    """The core machine's invariant 2 as well: the current node is the
    last node or an ancestor of it."""
    assert_stack_layout(m)
    current = m.nodes[m.current]
    assert m.nodes[-1][: len(current)] == current


def assert_resumed(m, resumed):
    """After a Redo of node v: Redo1 makes v current, Redo2 its new first
    child, and either is the last node."""
    if resumed is not None:
        rule, v = resumed
        expected = v if rule is RuleId.REDO1 else v + (1,)
        assert m.nodes[m.current] == expected == m.nodes[-1]


@pytest.mark.parametrize("index", range(len(PROGRAMS)))
def test_live_machine_answers_as_scans_of_its_snapshot(index):
    # At every step the machine's positions answer for the current node
    # and its ancestors name the same Dewey words as reference scans of a
    # snapshot, and a Redo resumes the node its choice-point answer named.
    m = Machine(init_state(PROGRAMS[index]))
    resumed = None
    for rule in drive(m, FUEL):
        assert_resumed(m, resumed)
        assert_core_stack_layout(m)
        s = m.snapshot()
        u = m.current
        assert m.nodes[u] == s.current
        assert is_leaf(m, u) == (not scan_children(s.tree, s.current))
        for p in path_to_root(m):  # the current node and each of its ancestors
            gcp = scan_gcp(s.tree, s.boxes, m.nodes[p])
            assert word(m, greatest_choice_point(m, p)) == gcp
            assert has_choice_point(m, p) == (gcp is not None)
        gcp = scan_gcp(s.tree, s.boxes, s.current)
        resumed = (rule, gcp) if rule in (RuleId.REDO1, RuleId.REDO2) else None
    assert_resumed(m, resumed)
    assert_core_stack_layout(m)


@pytest.mark.parametrize("model", list(ModelId), ids=str)
@pytest.mark.parametrize("index", range(len(PROGRAMS)))
def test_model_engine_queries_match_scans(index, model):
    run = run_model(PROGRAMS[index], model, FUEL)
    for state in [run.initial] + [s for _, s in run.transitions]:
        assert_children_gapless(state.tree)
        assert_nodes_canonical(state)
        m = ExtMachine(state)
        for p, v in enumerate(m.nodes):
            children = scan_children(state.tree, v)
            assert [m.nodes[w] for w in _children(m, p)] == children
            assert _is_leaf(m, p) == (not children)
            assert _num_for(m, ModelId.M2, p) == scan_rank(state.tree, v)
        for p in path_to_root(m):
            gcp = scan_gcp(state.tree, state.boxes, m.nodes[p])
            assert word(m, _gcp(m, p)) == gcp
            assert _hcp(m, p) == (gcp is not None)


def scan_reenterable(s, v):
    live = [w for w in scan_children(s.tree, v) if not s.fresh[w] and w not in s.marks]
    return live[-1] if live else None


def scan_next_node(tree, v):
    w = v[:-1] + (v[-1] + 1,) if v else None
    return w if w in tree else None


@pytest.mark.parametrize("model", list(ModelId), ids=str)
@pytest.mark.parametrize("index", range(len(PROGRAMS)))
def test_live_model_machine_answers_as_scans_of_its_snapshot(index, model):
    # At every step the machine's position answers for the current node
    # and its ancestors name the same Dewey words as reference scans of a
    # snapshot, its gate table is the snapshot's, and EXIT2 and
    # TREEFAIL_M2 move to the node a scan names: the next brother, and the
    # child on the way down to the greatest choice point.
    m = ExtMachine(init_extended(PROGRAMS[index]))
    moves_to = None
    for _ in chain([None], _drive(m, model, FUEL)):  # before each step and after the last
        s = m.snapshot()
        assert_stack_layout(m)
        gates = _gates(m, model)
        assert gates == _gates(s, model)
        u, v = m.current, s.current
        assert m.nodes[u] == v
        if moves_to is not None:
            assert v == moves_to
        children = scan_children(s.tree, v)
        assert [m.nodes[w] for w in _children(m, u)] == children
        assert _is_leaf(m, u) == (not children)
        brother = scan_next_node(s.tree, v)
        assert may_have_new_brother(m, u) == (brother is not None)
        moves_to = brother if gates[ExtRuleId.EXIT2] else None
        if gates[ExtRuleId.TREEFAIL_M2]:
            moves_to = scan_gcp(s.tree, s.boxes, v)[: len(v) + 1]
            assert word(m, _toward_gcp(m, u)) == moves_to
        assert word(m, _reenterable_child(m, u)) == scan_reenterable(s, v)
        assert _num_for(m, ModelId.M2, u) == scan_rank(s.tree, v)
        for p in path_to_root(m):  # the current node and each of its ancestors
            gcp = scan_gcp(s.tree, s.boxes, m.nodes[p])
            assert word(m, _gcp(m, p)) == gcp
            assert _hcp(m, p) == (gcp is not None)


# Forged traces can give two live nodes one number.  node_of must then
# answer with the first of them in the numbering, as a scan finds it.
@pytest.mark.parametrize("name", SHARED_NUMBER_TRACES)
def test_node_of_with_a_number_carried_twice(name):
    text, expected = SHARED_NUMBER_TRACES[name]
    events = parse_trace(text)
    states = reconstruct_trace(initial_restricted(parse_term("goal")), events).states
    assert any(len(set(q.numbers.values())) < len(q.numbers) for q in states)
    for q in states:
        for number in range(8):
            assert q.node_of(number) == scan_node_of(q.numbers, number)
    for step, (current, tree) in expected.items():
        assert (states[step].current, states[step].tree) == (current, tree)
