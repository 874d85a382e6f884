import dataclasses
import random
from itertools import chain

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
from byrdbox.multimodel import (
    ExtMachine,
    ExtRuleId,
    ModelComparison,
    _RECHOICE,
    _drive,
    _gates,
    _is_subsequence,
    applicable_extended,
    init_extended,
)
from byrdbox.terms import CyclicTerm

from conftest import DATA, load_golden, normalize_trace


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


# ----------------------------------------------------------------------
# compare_models runs each segment the models share once, forks where
# they part, and re-joins them at each backtrack's re-choice
# ----------------------------------------------------------------------

NAT = parse_program("nat(s(X)) :- nat(X).\nnat(z).\n:- nat(N).\n")
DATA_PROGRAMS = {path.name: parse_program(path.read_text(encoding="utf-8")) for path in sorted(DATA.glob("*.pl"))}


def three_runs(program, max_steps):
    """The comparison as three independent runs make it."""
    runs = {m: run_model(program, m, max_steps) for m in ModelId}
    ports = {m: [e.port for e in run.events] for m, run in runs.items()}
    return ModelComparison(
        counts={m: len(run.events) for m, run in runs.items()},
        halted={m: run.halted for m, run in runs.items()},
        m1_in_m2=_is_subsequence(ports[ModelId.M1], ports[ModelId.M2]),
        m2_in_m3=_is_subsequence(ports[ModelId.M2], ports[ModelId.M3]),
    )


def shared_prefix(program, max_steps):
    """The rules of the prefix that compare_models runs once."""
    machine = ExtMachine(init_extended(program))
    return [rule for rule, _ in _drive(machine, ModelId.M1, max_steps, shared=True)]


def test_compare_agrees_with_three_runs_over_the_corpus(corpus_200):
    for program in corpus_200:
        assert compare_models(program, 500) == three_runs(program, 500)


@pytest.mark.parametrize("name", DATA_PROGRAMS)
def test_compare_agrees_with_three_runs_at_every_small_budget(name):
    # budgets 1 to 3 end inside every program's prefix
    program = DATA_PROGRAMS[name]
    for budget in chain(range(1, 61), (2000,)):
        assert compare_models(program, budget) == three_runs(program, budget), budget


def test_a_leaf_failure_ends_the_prefix():
    # q has no clause: LEAFFAIL1 fires at step 2, and under m3 it starts the sweep
    program = DATA_PROGRAMS["undefined_goal.pl"]
    assert shared_prefix(program, 10) == [ExtRuleId.CALLONE]
    rules = {m: [rule for rule, _ in run_model(program, m, 10).transitions] for m in ModelId}
    assert all(r == [ExtRuleId.CALLONE, ExtRuleId.LEAFFAIL1] for r in rules.values())
    assert run_model(program, ModelId.M3, 10).transitions[-1][1].reverse


@pytest.mark.parametrize("source, prefix", [
    # ct with a choice point left, and no failure before it
    ("p(a).\np(b).\n:- p(X).\n", 4),
    ((DATA / "example2.pl").read_text(encoding="utf-8"), None),
])
def test_the_models_part_at_a_completed_tree_with_choice_points(source, prefix):
    program = parse_program(source)
    if prefix is not None:
        assert len(shared_prefix(program, 100)) == prefix
    rules = {m: {rule for rule, _ in run_model(program, m, 1000).transitions} for m in ModelId}
    assert ExtRuleId.REDO_M1 in rules[ModelId.M1]
    assert ExtRuleId.REDO_M2A in rules[ModelId.M2]
    assert ExtRuleId.REDO_M3B in rules[ModelId.M3]
    for budget in range(1, 60):
        assert compare_models(program, budget) == three_runs(program, budget), budget


def test_a_run_with_no_failure_is_all_prefix():
    # nat(N) tries its recursive clause first: it never fails, so the
    # prefix spends the whole budget and no model forks
    assert len(shared_prefix(NAT, 400)) == 400
    assert compare_models(NAT, 400) == three_runs(NAT, 400)


@pytest.mark.parametrize("source", [
    # cyclic inside the prefix
    "eq(X, X).\np(Y) :- eq(Y, f(Y)), q(Y).\nq(f(Z)).\n:- p(A).\n",
    # cyclic after a failure: in the models' own runs
    "eq(X, X).\nr(a).\nr(b).\np(Y) :- r(W), eq(W, b), eq(Y, f(Y)), q(Y).\nq(f(Z)).\n:- p(A).\n",
])
def test_compare_raises_a_cyclic_term_as_m1_does(source):
    program = parse_program(source)
    with pytest.raises(CyclicTerm) as m1:
        run_model(program, ModelId.M1, 100)
    with pytest.raises(CyclicTerm) as compared:
        compare_models(program, 100)
    assert str(compared.value) == str(m1.value)


def test_the_models_gate_alike_on_every_prefix_state(ex1_program, ex2_program, corpus_200):
    # flr, ct and bk3 are clear on a prefix state, and only they open a
    # model's own rules: so m1's gate table is m2's and m3's
    checked = 0
    for program in [ex1_program, ex2_program, NAT] + list(corpus_200):
        m = ExtMachine(init_extended(program))
        for _ in chain([None], _drive(m, ModelId.M1, 500, shared=True)):
            if m.failing or m.complete or m.reverse:
                continue  # the state the models part at
            gates = _gates(m, ModelId.M1)
            assert gates == _gates(m, ModelId.M2) == _gates(m, ModelId.M3)
            checked += 1
    assert checked > 10000


def machine_fields(m):
    """Every field of the live machine: its columns (the tree, the
    parents, the observed and kept columns), its choice points, u, n, the
    four flags, the stamp, the pending mark and the store's items in
    order."""
    return (tuple(map(list, m.columns)), list(m.cps), m.current, m.counter,
            m.complete, m.failing, m.success, m.reverse,
            m.stamp, m.pending, list(m.bindings.items()))


def test_the_models_join_at_each_rechoice(corpus_200):
    # invariant 4: after its k-th re-choice, each model's own run holds
    # the same machine, so compare_models goes on with any one of them
    joins = 0
    for program in list(corpus_200) + list(DATA_PROGRAMS.values()):
        rechosen = []
        for model in ModelId:
            m = ExtMachine(init_extended(program))
            rechosen.append([machine_fields(m) for rule, _ in _drive(m, model, 500) if rule in _RECHOICE])
        for m1, m2, m3 in zip(*rechosen):
            assert m1 == m2 == m3
            joins += 1
    assert joins > 600


def test_every_shared_segment_gates_alike(corpus_200):
    # as test_the_models_gate_alike_on_every_prefix_state, on every segment
    # the models share: each re-join goes on with the machine of one
    # model's backtrack, m1's, m2's and m3's in turn
    checked = joins = 0
    for program in list(corpus_200) + list(DATA_PROGRAMS.values()):
        m, spent = ExtMachine(init_extended(program)), 0
        while spent < 500:
            for fired in chain([None], _drive(m, ModelId.M1, 500, shared=True)):
                spent += fired is not None
                if not (m.failing or m.complete or m.reverse):
                    assert _gates(m, ModelId.M1) == _gates(m, ModelId.M2) == _gates(m, ModelId.M3)
                    checked += 1
            model = list(ModelId)[joins % 3]
            for rule, _ in _drive(m, model, 500):
                spent += 1
                if rule in _RECHOICE:
                    joins += 1
                    break
            else:
                break
    assert joins > 600 and checked > 40000


def test_a_copy_leaves_its_machine_as_it_was(corpus_200):
    # compare_models forks the machine where the models part: a copy's run
    # writes neither the columns, the choice points nor the store it came from
    copies = 0
    for program in corpus_200[:60] + list(DATA_PROGRAMS.values()):
        m = ExtMachine(init_extended(program))
        for step, _ in enumerate(_drive(m, ModelId.M1, 150)):
            if step % 25 == 0:
                before, twin = machine_fields(m), m.copy()
                assert machine_fields(twin) == before
                for _ in _drive(twin, ModelId.M1, 50):
                    pass
                assert machine_fields(m) == before
                copies += 1
    assert copies > 200


def generate_and_test(seed, constants=4, rows=6):
    """The shape of a generate-and-test search over fact tables: d/1
    generates every triple, and t/3, a few random rows, admits some."""
    rng = random.Random(seed)
    names = [f"k{i}" for i in range(constants)]
    lines = ["goal :- d(X), d(Y), d(Z), t(X, Y, Z)."] + [f"d({c})." for c in names]
    lines += [f"t({', '.join(rng.choice(names) for _ in range(3))})." for _ in range(rows)]
    return parse_program("\n".join(lines + [":- goal.", ""]))


def ends(program, model, fuel):
    """For each budget up to `fuel`, where `model`'s own run ends: inside
    a backtrack (flr, ct or bk3 holds), and after how many re-choices."""
    m, rechoices, where = ExtMachine(init_extended(program)), 0, []
    for rule, _ in _drive(m, model, fuel):
        rechoices += rule in _RECHOICE
        where.append((m.failing or m.complete or m.reverse, rechoices))
    return where


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_compare_agrees_with_three_runs_across_rejoins(seed):
    program = generate_and_test(seed)
    budgets = list(range(1, 121)) + [2000]
    for model in ModelId:
        where = ends(program, model, 120)
        # some budgets end inside a later backtrack, some inside a later shared segment
        assert {(True, True), (False, True)} <= {(inside, k > 0) for inside, k in where}
    for budget in budgets:
        assert compare_models(program, budget) == three_runs(program, budget), budget


def test_compare_agrees_with_three_runs_over_the_corpus_at_small_budgets(corpus_200):
    for program in corpus_200:
        for budget in (5, 50, 150):
            assert compare_models(program, budget) == three_runs(program, budget), budget


def test_every_node_after_the_last_visited_one_is_a_fresh_slot(corpus_200):
    # the whole-stack form of CLAUSSUCCEEDS's assert: past the current
    # node and the last visited one, every node is a body slot not yet
    # visited, with no number and no box
    slots = 0
    for program in corpus_200[:60] + list(DATA_PROGRAMS.values()):
        for model in ModelId:
            m = ExtMachine(init_extended(program))
            for _ in chain([None], _drive(m, model, 150)):
                visited = [p for p, fresh in enumerate(m.fresh) if not fresh]
                last = max(visited + [m.current])
                for p in range(last + 1, len(m.nodes)):
                    assert m.fresh[p] and m.numbers[p] is None and m.boxes[p] == ()
                slots += len(m.nodes) - last - 1
    assert slots > 10000
