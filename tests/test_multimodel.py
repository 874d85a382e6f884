import dataclasses

import pytest

from byrdbox import (
    DeterminismViolation,
    ExtRuleId,
    ModelId,
    Port,
    compare_models,
    format_trace,
    init_extended,
    parse_program,
    run_actual_trace,
    run_model,
    step_extended,
)
from byrdbox.multimodel import ExtMachine, ExtRuleId, applicable_extended, init_extended

from conftest import load_golden, normalize_trace


GOLDEN = {
    ModelId.M1: ("golden_ex2_m1.txt", 28),
    ModelId.M2: ("golden_ex2_m2.txt", 32),
    ModelId.M3: ("golden_ex2_m3.txt", 44),
}


@pytest.mark.parametrize("model", list(ModelId), ids=str)
def test_example2_golden_traces(ex2_program, model):
    filename, count = GOLDEN[model]
    run = run_model(ex2_program, model, 1000)
    assert run.halted
    assert len(run.events) == count
    assert normalize_trace(format_trace(run.events)) == load_golden(filename)


@pytest.mark.parametrize("model", list(ModelId), ids=str)
def test_run_model_rejects_zero_fuel(ex2_program, model):
    with pytest.raises(ValueError):
        run_model(ex2_program, model, 0)


def test_a_current_node_outside_the_tree_is_refused(ex2_program):
    with pytest.raises(ValueError):
        ExtMachine(dataclasses.replace(init_extended(ex2_program), current=(1,)))


def test_example2_model_inclusion(ex2_program):
    comparison = compare_models(ex2_program, 1000)
    assert comparison.counts == {ModelId.M1: 28, ModelId.M2: 32, ModelId.M3: 44}
    assert comparison.m1_in_m2 and comparison.m2_in_m3
    assert comparison.summary() == "m1:28 m2:32 m3:44 subseq:yes,yes"


def test_example1_models_agree_except_m2_numbering(ex1_program):
    runs = {m: run_model(ex1_program, m, 500) for m in ModelId}
    assert all(r.halted for r in runs.values())
    ports = {m: [e.port for e in runs[m].events] for m in ModelId}
    assert ports[ModelId.M1] == ports[ModelId.M2] == ports[ModelId.M3]
    m1 = runs[ModelId.M1].events
    m2 = runs[ModelId.M2].events
    m3 = runs[ModelId.M3].events
    assert [(e.r, e.l) for e in m1] == [(e.r, e.l) for e in m3]
    differing = [
        i for i, (a, b) in enumerate(zip(m1, m2), start=1) if a.r != b.r
    ]
    assert differing == [8, 9]  # tree rank 3 instead of creation number 4
    assert [m2[7].r, m2[8].r] == [3, 3]


def test_m1_model_agrees_with_core_engine(ex1_program, ex2_program):
    for program in (ex1_program, ex2_program):
        simple = run_actual_trace(program, 300)
        ext = run_model(program, ModelId.M1, 1200)
        assert ext.halted == simple.halted
        assert [(e.r, e.l, e.port, e.pred) for e in ext.events] == [
            (e.r, e.l, e.port, e.pred) for e in simple.events
        ]


def test_init_extended(ex2_program):
    s1 = init_extended(ex2_program)
    assert s1.tree == frozenset({()})
    assert s1.preds[()] == ex2_program.goal
    assert [c.id for c in s1.boxes[()]] == ["c1"]  # the goal's clause list
    assert s1.chosen == {}
    assert s1.sigmas == {(): {}}
    assert not (s1.complete or s1.failing or s1.success or s1.reverse)


def test_init_extended_goal_without_clauses():
    p = parse_program("p(a). :- q.")
    assert init_extended(p).boxes[()] == ()


def test_first_visit_refills_the_box_and_numbers_the_node(ex2_program):
    s1 = init_extended(ex2_program)
    rule, s2 = step_extended(s1, ModelId.M1)
    assert rule is ExtRuleId.CALLONE
    assert [c.id for c in s2.boxes[()]] == ["c1"]
    assert s2.numbers[()] == 1
    rule, s3 = step_extended(s2, ModelId.M1)
    assert rule is ExtRuleId.CHOICE
    assert s3.chosen[()].id == "c1"
    assert s3.boxes[()] == ()  # the box shrank by the chosen clause


def test_fact_success_raises_the_success_flag():
    p = parse_program("p(a). :- p(a).")
    state = init_extended(p)
    fired = []
    for _ in range(3):
        rule, state = step_extended(state, ModelId.M1)
        fired.append(rule)
    assert fired == [ExtRuleId.CALLONE, ExtRuleId.CHOICE, ExtRuleId.FACTSUCCEEDS]
    assert state.success and not state.failing


def test_goal_without_clauses_fails():
    p = parse_program("p(a). :- q.")
    for model in ModelId:
        run = run_model(p, model, 50)
        assert run.halted
        assert [(e.port, e.pred.functor) for e in run.events] == [
            (Port.CALL, "q"),
            (Port.FAIL, "q"),
        ]


def test_deterministic_fact_program_traces_identically():
    p = parse_program("p(a). :- p(a).")
    traces = {
        m: [(e.r, e.l, e.port, e.pred) for e in run_model(p, m, 50).events]
        for m in ModelId
    }
    assert traces[ModelId.M1] == traces[ModelId.M2] == traces[ModelId.M3]
    assert [t[2] for t in traces[ModelId.M1]] == [Port.CALL, Port.EXIT]


def test_success_and_failure_flags_never_both(ex2_program, corpus_200):
    programs = [ex2_program] + list(corpus_200[:20])
    for program in programs:
        for model in ModelId:
            for _, state in run_model(program, model, 600).transitions:
                assert not (state.success and state.failing)


def test_reverse_flag_only_under_m3(ex2_program):
    for model in (ModelId.M1, ModelId.M2):
        assert all(
            not state.reverse
            for _, state in run_model(ex2_program, model, 1000).transitions
        )
    m3_states = [s for _, s in run_model(ex2_program, ModelId.M3, 1000).transitions]
    assert any(state.reverse for state in m3_states)


def test_m3_reverse_redos_resolve_to_fail_or_exit(ex2_program):
    run = run_model(ex2_program, ModelId.M3, 1000)
    events = run.events
    # inside a reverse sweep every re-entered box is eventually closed by
    # its own Fail, or answers with a new Exit after a re-choice
    for i, e in enumerate(events):
        if e.port is Port.REDO:
            following = events[i + 1 :]
            assert any(
                f.port in (Port.FAIL, Port.EXIT) and f.r == e.r for f in following
            )


def test_choice_points_resumed_newest_first(ex2_program):
    # m1 jumps straight to the greatest choice point: between two Redo
    # events no Call of a fresher node intervenes backwards
    run = run_model(ex2_program, ModelId.M1, 1000)
    redos = [e for e in run.events if e.port is Port.REDO]
    assert [e.pred.functor for e in redos] == ["p", "p"]


def test_resuming_a_rule_clause_choice_point():
    # backtracking into a box whose next alternative is a rule develops a
    # fresh subtree after the Redo; the third model later undoes it box by
    # box, the others fail straight up once it is exhausted
    p = parse_program(
        "c1: goal :- a, nope. c2: a. c3: a :- c. c4: c. :- goal."
    )
    front = ["Call", "Call", "Exit", "Call", "Fail", "Redo",
             "Call", "Exit", "Exit", "Call", "Fail"]
    for model in ModelId:
        run = run_model(p, model, 300)
        assert run.halted
        ports = [str(e.port) for e in run.events]
        assert ports[:11] == front
        if model is ModelId.M3:
            assert ports[11:] == ["Redo", "Redo", "Fail", "Fail", "Fail"]
        else:
            assert ports[11:] == ["Fail"]


def test_halted_state_has_no_rule(ex1_program):
    run = run_model(ex1_program, ModelId.M3, 500)
    final = run.transitions[-1][1]
    assert applicable_extended(final, ModelId.M3) is None
    with pytest.raises(DeterminismViolation):
        step_extended(final, ModelId.M3)


def test_every_rule_fires_under_some_model(ex1_program, ex2_program, corpus_200):
    fired = set()
    for program in [ex1_program, ex2_program] + list(corpus_200[:30]):
        for model in ModelId:
            fired.update(rule for rule, _ in run_model(program, model, 120).transitions)
    assert fired == set(ExtRuleId)


@pytest.mark.parametrize("model", list(ModelId), ids=str)
def test_a_violation_carries_the_gate_table(ex1_program, model):
    # A forged live state: the root is still fresh while ct is up and its
    # box holds clauses, so no gate is open and the machine has not halted.
    m = ExtMachine(init_extended(ex1_program))
    m.complete = True
    with pytest.raises(DeterminismViolation) as caught:
        applicable_extended(m, model)
    assert str(caught.value) == f"[{model}] no rule applies at node eps"
    assert list(caught.value.table.items()) == [(rule, False) for rule in ExtRuleId]
