"""Streaming runs against the runs that keep their states.

The traced run, the model runs and the adequacy check fire their rules
in place on one live machine and keep no states (the adequacy check also
steps one live rebuilder); `step`, `step_extended` and the state logs of
`run_virtual`, `.run` and `.transitions` make frozen snapshots of it, a
log only of the states read.  Both must tell the same story, no snapshot
may share a map or set with the machine that goes on running, and a step
must leave its input as it was.
"""

import copy
import tracemalloc
from dataclasses import fields

import pytest

from byrdbox import (
    ModelId,
    check_adequacy,
    compare_models,
    extract_event,
    init_extended,
    init_state,
    initial_restricted,
    parse_program,
    reconstruct_trace,
    run_actual_trace,
    run_model,
    run_virtual,
    step,
    step_extended,
)
from byrdbox.corpus import corpus
from byrdbox.engine import VirtualState
from byrdbox.multimodel import ExtendedState
from byrdbox.rebuild import RestrictedState

from conftest import DATA

FUEL = 120


def programs():
    examples = [
        parse_program((DATA / name).read_text(encoding="utf-8"))
        for name in ("example1.pl", "example2.pl")
    ]
    return examples + list(corpus(30))


PROGRAMS = programs()


def everything(state):
    """Every field of a state, its bookkeeping included (state equality
    compares the observable parameters only)."""
    return {f.name: getattr(state, f.name) for f in fields(state) if f.name != "program"}


def stepped(state, fire, budget):
    """The states reached by firing one step at a time from `state`, each
    step starting a fresh machine from the last snapshot; every input is
    checked to be left as it was."""
    states = [state]
    # Shared, so that each term is copied once, not once per state.  Dewey
    # nodes are tuples of ints, which deepcopy returns as they are, but
    # only after walking them on every visit: they are entered up front.
    memo = {}
    for _ in range(budget):
        memo.update((id(v), v) for v in state.tree)
        before = copy.deepcopy(state, memo)
        _, state = fire(state)
        assert everything(states[-1]) == everything(before)
        states.append(state)
    return states


@pytest.mark.parametrize("index", range(len(PROGRAMS)))
def test_core_streams_and_snapshots_agree(index):
    program = PROGRAMS[index]
    run = run_virtual(program, FUEL)
    states = run.states
    rules = [rule for rule, _ in run.transitions]

    trace = run_actual_trace(program, FUEL)
    assert trace.halted == run.halted
    assert list(trace.events) == [
        extract_event(rule, before, chrono)
        for chrono, (rule, before) in enumerate(zip(rules, states), start=1)
    ]
    assert trace.run.states == states
    assert [everything(s) for s in trace.run.states] == [everything(s) for s in states]

    # One step at a time from fresh machines reaches the same states, so no
    # state run_virtual kept was changed by the rest of its run.
    one_by_one = stepped(init_state(program), step, len(rules))
    assert [everything(s) for s in one_by_one] == [everything(s) for s in states]


@pytest.mark.parametrize("index", range(len(PROGRAMS)))
def test_model_streams_and_snapshots_agree(index):
    program = PROGRAMS[index]
    comparison = compare_models(program, FUEL)
    for model in ModelId:
        run = run_model(program, model, FUEL)
        assert comparison.counts[model] == len(run.events)
        assert comparison.halted[model] == run.halted
        assert everything(run.initial) == everything(init_extended(program))
        states = [run.initial] + [s for _, s in run.transitions]
        one_by_one = stepped(
            init_extended(program),
            lambda s: step_extended(s, model),
            len(run.transitions),
        )
        assert [everything(s) for s in one_by_one] == [everything(s) for s in states]


def count_states(monkeypatch):
    """Count the VirtualStates and ExtendedStates constructed from now on."""
    made = {VirtualState: 0, ExtendedState: 0}
    for cls in made:
        init = cls.__init__

        def counted(self, *args, cls=cls, init=init, **kwargs):
            made[cls] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return made


def test_streaming_runs_keep_no_states(monkeypatch):
    made = count_states(monkeypatch)
    for program in PROGRAMS:
        made[VirtualState] = made[ExtendedState] = 0
        trace = run_actual_trace(program, FUEL)
        check_adequacy(program, FUEL)
        compare_models(program, FUEL)
        run = run_model(program, ModelId.M3, FUEL)
        # one initial state per run, none per step
        assert made == {VirtualState: 2, ExtendedState: 4}
        # a replay keeps its first and last states, none per step
        assert len(trace.run.states) == len(trace.events) + 1
        assert made[VirtualState] == 2 + 2
        assert len(run.transitions) >= len(run.events)
        assert made[ExtendedState] == 4 + 2


def count_rebuilt_states(monkeypatch):
    """The RestrictedStates constructed from now on."""
    made = []
    init = RestrictedState.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RestrictedState, "__init__", counted)
    return made


def test_adequacy_check_keeps_no_rebuilt_states(monkeypatch):
    made = count_rebuilt_states(monkeypatch)
    for program in PROGRAMS:
        made.clear()
        report = check_adequacy(program, FUEL)
        assert report.passed and report.steps_checked > 1
        # the initial state, and none per step
        assert len(made) == 1


def test_a_rebuild_snapshots_only_its_last_state(monkeypatch):
    made = count_rebuilt_states(monkeypatch)
    for program in PROGRAMS:
        trace = run_actual_trace(program, FUEL)
        q0 = initial_restricted(trace.run.initial.preds[()])
        made.clear()
        states = reconstruct_trace(q0, trace.events, final_peek=trace.halted).states
        assert len(states) > 2 and made == [states[-1]]
        made.clear()
        assert states[0] is q0 and states[-1] is states[len(states) - 1]
        assert made == []
        # a read of a state in between rebuilds that one state
        states[1]
        assert len(made) == 1


NAT = parse_program("nat(s(X)) :- nat(X).\nnat(z).\n:- nat(N).\n")


def rebuild_peak(events) -> int:
    """The tracemalloc peak, in bytes, of a rebuild of `events`."""
    q0 = initial_restricted(NAT.goal)
    tracemalloc.start()
    try:
        reconstruct_trace(q0, events)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_rebuild_grows_linearly_with_the_trace():
    # nat(N) recurses for ever: its tree is as deep as its trace is long,
    # so a state per event would be quadratic
    small, large = (run_actual_trace(NAT, n).events for n in (1000, 2000))
    assert len(small) == 1000 and len(large) == 2000
    assert rebuild_peak(large) <= 2.3 * rebuild_peak(small)


def state_log_peak(run) -> int:
    """The tracemalloc peak, in bytes, of `run()`."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_run_that_keeps_its_states_peaks_as_a_streaming_run():
    # nat(N)'s tree grows one node per step: a snapshot per step would
    # make run_virtual's peak quadratic beside the streaming run's.  The
    # first run also fills engine's table of canonical words, which
    # outlives it, so both peaks are measured after it.
    assert len(run_virtual(NAT, 1000).transitions) == 1000
    kept = state_log_peak(lambda: run_virtual(NAT, 1000))
    assert kept <= 1.1 * state_log_peak(lambda: run_actual_trace(NAT, 1000))


@pytest.mark.parametrize("model", ModelId)
def test_model_transitions_peak_as_the_run(model):
    # the transitions keep their rules and last state, not a state per rule
    assert len(run_model(NAT, model, 1000).transitions) == 1000
    transitions = state_log_peak(lambda: len(run_model(NAT, model, 1000).transitions))
    assert transitions <= 1.1 * state_log_peak(lambda: run_model(NAT, model, 1000))


def test_a_state_log_builds_only_the_states_read(monkeypatch):
    made = count_states(monkeypatch)
    program = PROGRAMS[1]  # example2: it backtracks
    for log, cls in (
        (run_virtual(program, FUEL).states, VirtualState),
        (run_virtual(program, FUEL).transitions, VirtualState),
        (run_model(program, ModelId.M3, FUEL).transitions, ExtendedState),
    ):
        made[cls] = 0
        # the first and last states are kept: a state log's `[0]` and
        # `[-1]`, and a transition log's `[-1]`
        states = log if isinstance(log[-1], cls) else None
        assert len(log) > 20 and log[-1] is not None
        assert states is None or states[0] is states[0]
        assert made[cls] == 0
        # a read of an item in between rebuilds that one state
        for i in (1, len(log) // 2, -2) + ((0,) if states is None else ()):
            log[i]
            assert made[cls] == 1
            made[cls] = 0


@pytest.mark.parametrize("log", ["states", "transitions", "m3 transitions"])
def test_a_state_log_reads_backwards_and_finds_an_item_in_one_replay(log):
    # Sequence's own reversed() and index() would replay once per item
    log = {
        "states": lambda: run_virtual(NAT, 200).states,
        "transitions": lambda: run_virtual(NAT, 200).transitions,
        "m3 transitions": lambda: run_model(NAT, ModelId.M3, 200).transitions,
    }[log]()
    items, fire, fired = tuple(log), log._fire, []

    def counted(*args):
        fired.append(args[2])
        return fire(*args)

    log._fire = counted
    reads = [
        (lambda: list(reversed(log)), list(reversed(items))),
        (lambda: log.index(items[-1]), len(items) - 1),
        (lambda: log.index(items[0]), 0),
        (lambda: log.index(items[50], 10, 60), 50),
        (lambda: log.index(items[50], -len(items) + 40), 50),
    ]
    for read, expected in reads:
        fired.clear()
        assert read() == expected
        assert len(fired) <= 2 * len(log)
    for start, stop in ((0, len(items) - 1), (51, None), (10, 50), (60, 10)):
        fired.clear()
        with pytest.raises(ValueError):
            log.index(items[-1] if stop else items[50], start, stop)
        assert len(fired) <= 2 * len(log)
