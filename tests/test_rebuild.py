import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from byrdbox import (
    AmbiguousOrUndecidable,
    CondViolation,
    MalformedTrace,
    ModelId,
    Port,
    RuleId,
    TraceEvent,
    identify_rule,
    init_extended,
    init_state,
    initial_restricted,
    parse_term,
    parse_trace,
    reconstruct_step,
    reconstruct_trace,
    restrict,
    run_actual_trace,
    run_model,
    run_virtual,
)
from byrdbox.rebuild import Rebuilder, RestrictedState, format_restricted, matching_conds

from byrdbox.corpus import corpus
from byrdbox.engine import EPSILON, Machine, drive
from byrdbox.multimodel import ExtMachine, _drive

from conftest import FORGED_BROTHER, SHARED_NUMBER_TRACES, assert_nodes_canonical


def ev(chrono, r, l, port, pred):
    return TraceEvent(chrono, r, l, Port(port), parse_term(pred))


E, N1, N2 = (), (1,), (2,)


# ----------------------------------------------------------------------
# Rule identification from event pairs
# ----------------------------------------------------------------------

def test_identify_call_rules():
    call = ev(1, 1, 1, "Call", "goal")
    assert identify_rule(call, ev(2, 2, 2, "Call", "p(_1)")) is RuleId.CALL2
    call_same = ev(4, 3, 2, "Call", "eq(a,b)")
    assert identify_rule(call_same, ev(5, 3, 2, "Fail", "eq(a,b)")) is RuleId.CALL1


def test_identify_exit_rules():
    assert identify_rule(
        ev(9, 4, 2, "Exit", "eq(b,b)"), ev(10, 1, 1, "Exit", "goal")
    ) is RuleId.EXIT1  # r' < r
    assert identify_rule(
        ev(3, 2, 2, "Exit", "p(a)"), ev(4, 3, 2, "Call", "eq(a,b)")
    ) is RuleId.EXIT2  # r' > r away from the root
    # at the root the rule is decidable without looking at r'
    assert identify_rule(ev(10, 1, 1, "Exit", "goal"), None) is RuleId.EXIT1


def test_identify_redo_rules():
    redo = ev(6, 2, 2, "Redo", "p(a)")
    assert identify_rule(redo, ev(7, 2, 2, "Exit", "p(b)")) is RuleId.REDO1
    assert identify_rule(redo, ev(7, 5, 3, "Call", "r(a)")) is RuleId.REDO2


def test_identify_fail_needs_no_lookahead():
    assert identify_rule(ev(5, 3, 2, "Fail", "eq(a,b)"), None) is RuleId.FAIL2


def test_identify_final_event_undecidable():
    with pytest.raises(AmbiguousOrUndecidable):
        identify_rule(ev(1, 1, 1, "Call", "goal"), None)
    with pytest.raises(AmbiguousOrUndecidable):
        identify_rule(ev(3, 2, 2, "Exit", "p(a)"), None)
    with pytest.raises(AmbiguousOrUndecidable):
        identify_rule(ev(6, 2, 2, "Redo", "p(a)"), None)


def test_identify_forged_pair_is_a_violation():
    # a Call followed by a smaller creation number matches no condition
    with pytest.raises(CondViolation):
        identify_rule(ev(1, 5, 1, "Call", "goal"), ev(2, 3, 2, "Call", "p(a)"))


def test_matching_conds_enumeration():
    pair = matching_conds(ev(1, 3, 1, "Call", "x"), ev(2, 2, 2, "Call", "y"))
    assert pair == set()
    only_fail = matching_conds(ev(1, 3, 1, "Fail", "x"), ev(2, 9, 2, "Call", "y"))
    assert only_fail == {RuleId.FAIL2}


# ----------------------------------------------------------------------
# Local rebuilding steps against the first reference run
# ----------------------------------------------------------------------

def q0_example1():
    return initial_restricted(parse_term("goal"))


def test_call2_step_builds_q2():
    e1 = ev(1, 1, 1, "Call", "goal")
    e2 = ev(2, 2, 2, "Call", "p(_1)")
    q2 = reconstruct_step(RuleId.CALL2, e1, e2, q0_example1())
    assert q2.tree == frozenset({E, N1})
    assert q2.current == N1
    assert q2.numbers == {E: 1, N1: 2}
    assert q2.preds == {E: parse_term("goal"), N1: parse_term("p(_1)")}


def test_call1_step_is_invariant():
    e2 = ev(2, 2, 2, "Call", "p(_1)")
    e3 = ev(3, 2, 2, "Exit", "p(a)")
    q2 = reconstruct_step(
        RuleId.CALL2, ev(1, 1, 1, "Call", "goal"), e2, q0_example1()
    )
    assert reconstruct_step(RuleId.CALL1, e2, e3, q2) == q2


def test_redo1_step_prunes_to_q7(ex1_program):
    trace = run_actual_trace(ex1_program, 100)
    events = list(trace.events)
    result = reconstruct_trace(q0_example1(), events)
    q7 = result.states[6]
    assert q7.tree == frozenset({E, N1})
    assert q7.current == N1
    assert q7.numbers == {E: 1, N1: 2}


def test_reconstruct_trace_matches_machine_states(ex1_program):
    trace = run_actual_trace(ex1_program, 100)
    result = reconstruct_trace(q0_example1(), trace.events)
    assert result.final_known  # the last event is an Exit at the root
    machine = [restrict(s) for s in trace.run.states]
    assert len(result.states) == len(machine) == 11
    assert list(result.states) == machine


def test_restricted_states_hash_as_they_compare(ex1_program):
    trace = run_actual_trace(ex1_program, 100)
    states = reconstruct_trace(q0_example1(), trace.events).states
    # restrict builds a state from the machine's columns, the constructor
    # from maps: equal states hash alike whichever way they were built
    by_columns = [restrict(s) for s in trace.run.states]
    by_maps = [RestrictedState(q.tree, q.current, q.numbers, q.preds) for q in by_columns]
    for a, b in zip(by_columns, by_maps):
        assert a == b and hash(a) == hash(b)
    distinct = []
    for q in list(states) + by_columns + by_maps:
        if q not in distinct:
            distinct.append(q)
    assert len(set(states)) == len(set(states) | set(by_columns) | set(by_maps)) == len(distinct)


def test_reconstruct_empty_and_single_event_streams():
    q0 = q0_example1()
    assert list(reconstruct_trace(q0, []).states) == [q0]
    # one lookahead-needing event leaves only the initial state known
    result = reconstruct_trace(q0, [ev(1, 1, 1, "Call", "goal")])
    assert list(result.states) == [q0]
    assert not result.final_known
    # a lone Fail commits immediately: its condition reads no successor
    result = reconstruct_trace(q0, [ev(1, 1, 1, "Fail", "goal")])
    assert len(result.states) == 2
    assert result.final_known


def test_final_peek_commits_a_trailing_exit():
    q0 = q0_example1()
    events = [
        ev(1, 1, 1, "Call", "goal"),
        ev(2, 2, 2, "Call", "p(a)"),
        ev(3, 2, 2, "Exit", "p(a)"),
    ]
    plain = reconstruct_trace(q0, events)
    assert not plain.final_known and len(plain.states) == 3
    peeked = reconstruct_trace(q0, events, final_peek=True)
    assert peeked.final_known and len(peeked.states) == 4
    assert peeked.states[-1].current == E


def test_final_peek_rejects_trailing_call():
    q0 = q0_example1()
    events = [ev(1, 1, 1, "Call", "goal")]
    with pytest.raises(MalformedTrace):
        reconstruct_trace(q0, events, final_peek=True)


def test_malformed_trace_on_dead_node_reference():
    q0 = q0_example1()
    events = [
        ev(1, 7, 1, "Redo", "goal"),  # no live node is numbered 7
        ev(2, 7, 1, "Exit", "goal"),
    ]
    with pytest.raises(MalformedTrace):
        reconstruct_trace(q0, events)


def test_a_brother_that_exists_already_is_malformed():
    events = parse_trace(FORGED_BROTHER)
    with pytest.raises(MalformedTrace, match=r"^brother 2 already exists$"):
        reconstruct_trace(initial_restricted(parse_term("goal")), events)


def test_reconstruction_total_on_every_prefix(ex1_program):
    # any prefix of an adequate trace rebuilds deterministically; only the
    # state after a trailing lookahead-needing event stays unknown
    trace = run_actual_trace(ex1_program, 100)
    machine = [restrict(s) for s in trace.run.states]
    for k in range(len(trace.events) + 1):
        result = reconstruct_trace(q0_example1(), trace.events[:k])
        committed = list(result.states)
        assert committed == machine[: len(committed)]
        assert len(committed) in (k, k + 1)


def test_an_unnumbered_node_stays_unnumbered():
    # A state built by hand can hold a node that its numbering lacks.  A
    # rebuilder built from it keeps the node without a number: its
    # snapshot gives the state back, node_of never names the node, the
    # dump shows `?` for its number, and steps go on around it.
    goal, p = parse_term("goal"), parse_term("p")
    q = RestrictedState(frozenset({E, N1}), E, {E: 1}, {E: goal, N1: p})
    rebuilder = Rebuilder(q)
    assert rebuilder.numbers == [1, None]
    again = rebuilder.snapshot()
    assert again == q and again.numbers == {E: 1}
    assert [again.node_of(n) for n in (0, 1, 2)] == [None, E, None]
    assert format_restricted(again) == format_restricted(q) == "  eps * #1 goal\n  1 #? p"
    e1, e2 = ev(1, 1, 1, "Call", "goal"), ev(2, 2, 2, "Call", "q")
    q2 = reconstruct_step(RuleId.CALL2, e1, e2, q)
    assert (q2.tree, q2.current, q2.numbers) == ({E, N1, N2}, N2, {E: 1, N2: 2})


def test_a_current_node_outside_the_tree_stays_put():
    # A state built by hand can have its u outside its tree.  A rebuilder
    # built from it gives that u back, the rules that read the current
    # node raise, and the rules that find their node by number still step.
    q = dataclasses.replace(initial_restricted(parse_term("goal")), current=(7, 7))
    assert Rebuilder(q).snapshot().current == (7, 7)
    e, e_next = ev(1, 1, 1, "Exit", "goal"), ev(2, 2, 2, "Call", "p")
    for rule in (RuleId.EXIT1, RuleId.EXIT2, RuleId.FAIL2):
        with pytest.raises(MalformedTrace, match=r"^the current node 77 is not in the tree$"):
            reconstruct_step(rule, e, e_next, q)
    call, redo = ev(1, 1, 1, "Call", "goal"), ev(1, 1, 1, "Redo", "goal")
    assert reconstruct_step(RuleId.CALL2, call, e_next, q).current == N1
    assert reconstruct_step(RuleId.REDO1, redo, ev(2, 1, 1, "Exit", "goal"), q).current == E
    q2 = reconstruct_step(RuleId.REDO2, redo, e_next, q)
    assert (q2.tree, q2.current, q2.numbers) == ({E, N1}, N1, {E: 1, N1: 2})


def test_depth_attribute_is_never_read(ex1_program, ex2_program):
    for program in (ex1_program, ex2_program):
        trace = run_actual_trace(program, 200)
        q0 = initial_restricted(trace.run.initial.preds[E])
        reference = reconstruct_trace(q0, trace.events)
        zeroed = [dataclasses.replace(e, l=0) for e in trace.events]
        mutated = reconstruct_trace(q0, zeroed)
        assert list(mutated.states) == list(reference.states)
        assert mutated.final_known == reference.final_known


# ----------------------------------------------------------------------
# The rebuilt states: a read-only sequence that rebuilds a state when it
# is read, and reads as the tuple of the states would
# ----------------------------------------------------------------------

def eager_states(q0, events, final_peek=False):
    """The reference: one snapshot of a rebuilder after each committed
    event."""
    rebuilder, states = Rebuilder(q0), [q0]
    for i, e in enumerate(events):
        e_next = events[i + 1] if i + 1 < len(events) else None
        try:
            rule = identify_rule(e, e_next)
        except AmbiguousOrUndecidable:
            if not final_peek:
                break
            rule = RuleId.EXIT1
        rebuilder.step(rule, e, e_next)
        states.append(rebuilder.snapshot())
    return states


def columns(q):
    return q.current, q.nodes, q.observed, q.born


def full(item):
    """Everything an item of a state log holds: a rebuilt state's columns,
    every field of an engine state but its program, and a transition's
    rule with its state."""
    if isinstance(item, tuple):
        return item[0], full(item[1])
    if isinstance(item, RestrictedState):
        return columns(item)
    return {f.name: getattr(item, f.name) for f in dataclasses.fields(item) if f.name != "program"}


def assert_reads_as_a_tuple(log, as_tuple, again, shorter):
    """`log` reads as `as_tuple`, the tuple of its items, does: its length,
    every index (negative ones too), out-of-range indexes, slices, two
    iterations, and `==` and `hash` both ways.  `again` is the log of a
    second run, `shorter` that of a shorter one."""
    n = len(as_tuple)
    assert len(log) == n > 9
    for i in range(-n, n):
        assert full(log[i]) == full(as_tuple[i])
    for i in (n, n + 1, -n - 1, -n - 9):
        with pytest.raises(IndexError):
            log[i]
    for key in (slice(None), slice(2, 5), slice(5, 2), slice(-3, None), slice(None, None, -2),
                slice(1, 9, 3), slice(n + 9, n + 19), slice(-1, -1)):
        assert type(log[key]) is tuple and log[key] == as_tuple[key]
    assert list(log) == list(log) == list(as_tuple)
    assert list(map(full, log)) == list(map(full, as_tuple))
    assert log == as_tuple and as_tuple == log and not log != as_tuple
    assert log == again and again == log
    assert log != shorter and shorter != as_tuple and shorter == as_tuple[:len(shorter)]
    assert log != list(as_tuple)  # a tuple never equals a list either
    try:
        want = hash(as_tuple)
    except TypeError:  # a state with a dict among its compared fields
        for unhashable in (log, again):
            with pytest.raises(TypeError):
                hash(unhashable)
    else:
        assert hash(log) == want == hash(again)


def test_rebuilt_states_read_as_a_tuple(ex1_program):
    trace = run_actual_trace(ex1_program, 100)
    q0 = q0_example1()
    states = reconstruct_trace(q0, trace.events).states
    as_tuple = tuple(eager_states(q0, trace.events))
    assert len(states) == len(as_tuple) == 11
    assert states[0] is q0
    assert states[-1] is states[10] and states[-1] == as_tuple[-1]
    again = reconstruct_trace(q0, trace.events).states
    shorter = reconstruct_trace(q0, trace.events[:5]).states
    assert_reads_as_a_tuple(states, as_tuple, again, shorter)


def eager_run(program, budget):
    """The reference: (rules, states) of a core run that snapshots the
    machine before every rule and after the last."""
    machine = Machine(init_state(program))
    rules, states = [], []
    for rule in drive(machine, budget):
        rules.append(rule)
        states.append(machine.snapshot())
    return rules, states + [machine.snapshot()]


def eager_model_run(program, model, budget):
    """The reference: (rules, states) of a model run that snapshots the
    machine after every rule."""
    machine = ExtMachine(init_extended(program))
    rules, states = [], [machine.snapshot()]
    for rule, _ in _drive(machine, model, budget):
        rules.append(rule)
        states.append(machine.snapshot())
    return rules, states


def pairs(rules, states):
    """Transitions: each rule with the state after it."""
    return tuple(zip(rules, states[1:]))


LOGS = {
    # name -> (the log of a run at a budget, its reference tuple)
    "core states": (
        lambda program, budget: run_virtual(program, budget).states,
        lambda program, budget: tuple(eager_run(program, budget)[1]),
    ),
    "core transitions": (
        lambda program, budget: run_virtual(program, budget).transitions,
        lambda program, budget: pairs(*eager_run(program, budget)),
    ),
    "m3 transitions": (
        lambda program, budget: run_model(program, ModelId.M3, budget).transitions,
        lambda program, budget: pairs(*eager_model_run(program, ModelId.M3, budget)),
    ),
}


@pytest.mark.parametrize("name", LOGS)
def test_state_logs_read_as_a_tuple(name, ex2_program):
    log_of, reference = LOGS[name]
    log, as_tuple = log_of(ex2_program, 100), reference(ex2_program, 100)
    assert_reads_as_a_tuple(log, as_tuple, log_of(ex2_program, 100), log_of(ex2_program, 7))
    # the first and last states are kept, not rebuilt
    if name == "core states":
        assert log[0] is log.first and log[-1] is log[len(log) - 1] is log.final
    else:
        assert log[-1][1] is log[len(log) - 1][1] is log.final


def test_short_rebuilds_read_as_a_tuple():
    q0, goal = q0_example1(), parse_term("goal")
    empty = reconstruct_trace(q0, [])
    assert empty.final_known and empty.states == (q0,) and empty.states[-1] is q0
    pending = reconstruct_trace(q0, [ev(1, 1, 1, "Call", "goal")])
    assert pending.pending is not None and not pending.final_known
    assert pending.states == (q0,) and pending.states[-1] is q0
    events = [ev(1, 1, 1, "Call", "goal"), ev(2, 2, 2, "Call", "p(a)"), ev(3, 2, 2, "Exit", "p(a)")]
    plain = reconstruct_trace(q0, events)
    assert not plain.final_known and list(plain.states) == eager_states(q0, events)
    assert len(plain.states) == 3
    # final_peek commits the last Exit as an Exit to the root
    peeked = reconstruct_trace(q0, events, final_peek=True)
    assert peeked.final_known and len(peeked.states) == 4
    assert list(peeked.states) == eager_states(q0, events, True)
    assert peeked.states[-1].current == EPSILON and peeked.states[-1].preds[EPSILON] == goal
    for result in (empty, pending, plain, peeked):
        as_tuple = tuple(result.states)
        assert result.states == as_tuple and hash(result.states) == hash(as_tuple)


def _oracle_cases():
    for program in corpus(60):
        trace = run_actual_trace(program, 120)
        yield initial_restricted(trace.run.initial.preds[EPSILON]), trace.events, trace.halted
    for text, _ in SHARED_NUMBER_TRACES.values():
        yield initial_restricted(parse_term("goal")), parse_trace(text), False


def test_rebuilt_states_are_the_eager_snapshots():
    cases = list(_oracle_cases())
    assert any(q.born is not None for q0, events, _ in cases[-2:] for q in eager_states(q0, events))
    for q0, events, final_peek in cases:
        states = reconstruct_trace(q0, events, final_peek=final_peek).states
        reference = eager_states(q0, events, final_peek)
        assert list(states) == reference
        assert list(map(columns, states)) == list(map(columns, reference))
        assert columns(states[-1]) == columns(reference[-1])


# ----------------------------------------------------------------------
# The rebuilder's contract on arbitrary input: it returns, or raises one
# of its three documented errors.  Every node it stores is canonical.
# ----------------------------------------------------------------------

def _walk(rows):
    # r starts at 1 and moves by small steps, so that many traces get
    # past their first events and grow the tree
    events, r = [], 1
    for chrono, (step, l, port, pred) in enumerate(rows, start=1):
        events.append(TraceEvent(chrono, r, l, port, pred))
        r = max(0, r + step)
    return events


_events = st.lists(
    st.tuples(
        st.integers(-2, 2),
        st.integers(0, 3),
        st.sampled_from(list(Port)),
        st.sampled_from([parse_term(t) for t in ("goal", "p(X)", "p(a)", "q")]),
    ),
    max_size=12,
).map(_walk)


@settings(max_examples=300, deadline=None)
@given(_events)
def test_reconstruct_trace_raises_only_documented_errors(events):
    for final_peek in (False, True):
        try:
            result = reconstruct_trace(
                initial_restricted(parse_term("goal")), events, final_peek=final_peek
            )
        except (MalformedTrace, CondViolation, AmbiguousOrUndecidable):
            continue
        for q in result.states:
            assert_nodes_canonical(q)
