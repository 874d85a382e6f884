import dataclasses

import pytest

from byrdbox import (
    DeterminismViolation,
    RuleId,
    Struct,
    Var,
    applicable_rule,
    box_init,
    greatest_choice_point,
    init_state,
    lpath,
    may_have_new_brother,
    parse_program,
    parse_term,
    run_virtual,
    step,
    updated_pred,
)
from byrdbox.engine import EPSILON, Machine, _fire, _select, drive, has_choice_point, is_leaf, node_str

from conftest import DATA


def alpha_equal(pairs_a, pairs_b):
    """Structural equality of aligned term sequences modulo one consistent
    variable renaming."""
    fwd, bwd = {}, {}

    def eq(x, y):
        if isinstance(x, Var) != isinstance(y, Var):
            return False
        if isinstance(x, Var):
            if fwd.setdefault(x, y) != y:
                return False
            return bwd.setdefault(y, x) == x
        return (
            x.functor == y.functor
            and len(x.args) == len(y.args)
            and all(eq(p, q) for p, q in zip(x.args, y.args))
        )

    return len(pairs_a) == len(pairs_b) and all(
        eq(a, b) for a, b in zip(pairs_a, pairs_b)
    )


def assert_state(state, tree, current, counter, numbers, preds, boxes, fresh, ct, flr):
    """Field-by-field comparison against a reference state row."""
    assert state.tree == frozenset(tree), "T"
    assert state.current == current, "u"
    assert state.counter == counter, "n"
    assert state.numbers == numbers, "num"
    nodes = sorted(preds)
    assert sorted(state.preds) == nodes, "pred domain"
    assert alpha_equal(
        [state.preds[v] for v in nodes], [parse_term(preds[v]) for v in nodes]
    ), f"pred values: {state.preds} vs {preds}"
    assert {v: [c.id for c in b] for v, b in state.boxes.items()} == boxes, "claus"
    assert state.fresh == fresh, "first"
    assert state.complete == ct, "ct"
    assert state.failing == flr, "flr"


E, N1, N2 = (), (1,), (2,)

# The reference run of the first example: eleven states, every parameter.
EXAMPLE1_STATES = [
    # (tree, u, n, num, pred, claus, first, ct, flr)
    ({E}, E, 1, {E: 1}, {E: "goal"}, {E: ["c1"]}, {E: True}, False, False),
    ({E, N1}, N1, 2, {E: 1, N1: 2}, {E: "goal", N1: "p(X)"},
     {E: [], N1: ["c2", "c3"]}, {E: False, N1: True}, False, False),
    ({E, N1}, N1, 2, {E: 1, N1: 2}, {E: "goal", N1: "p(X)"},
     {E: [], N1: ["c3"]}, {E: False, N1: False}, False, False),
    ({E, N1, N2}, N2, 3, {E: 1, N1: 2, N2: 3},
     {E: "goal", N1: "p(a)", N2: "eq(a,b)"},
     {E: [], N1: ["c3"], N2: ["c4"]},
     {E: False, N1: False, N2: True}, False, False),
    ({E, N1, N2}, N2, 3, {E: 1, N1: 2, N2: 3},
     {E: "goal", N1: "p(a)", N2: "eq(a,b)"},
     {E: [], N1: ["c3"], N2: []},
     {E: False, N1: False, N2: False}, False, False),
    ({E, N1, N2}, E, 3, {E: 1, N1: 2, N2: 3},
     {E: "goal", N1: "p(a)", N2: "eq(a,b)"},
     {E: [], N1: ["c3"], N2: []},
     {E: False, N1: False, N2: False}, True, True),
    ({E, N1}, N1, 3, {E: 1, N1: 2}, {E: "goal", N1: "p(a)"},
     {E: [], N1: []}, {E: False, N1: False}, False, False),
    ({E, N1, N2}, N2, 4, {E: 1, N1: 2, N2: 4},
     {E: "goal", N1: "p(b)", N2: "eq(b,b)"},
     {E: [], N1: [], N2: ["c4"]},
     {E: False, N1: False, N2: True}, False, False),
    ({E, N1, N2}, N2, 4, {E: 1, N1: 2, N2: 4},
     {E: "goal", N1: "p(b)", N2: "eq(b,b)"},
     {E: [], N1: [], N2: []},
     {E: False, N1: False, N2: False}, False, False),
    ({E, N1, N2}, E, 4, {E: 1, N1: 2, N2: 4},
     {E: "goal", N1: "p(b)", N2: "eq(b,b)"},
     {E: [], N1: [], N2: []},
     {E: False, N1: False, N2: False}, False, False),
    ({E, N1, N2}, E, 4, {E: 1, N1: 2, N2: 4},
     {E: "goal", N1: "p(b)", N2: "eq(b,b)"},
     {E: [], N1: [], N2: []},
     {E: False, N1: False, N2: False}, True, False),
]

EXAMPLE1_RULES = [
    RuleId.CALL2, RuleId.CALL1, RuleId.EXIT2, RuleId.CALL1, RuleId.FAIL2,
    RuleId.REDO1, RuleId.EXIT2, RuleId.CALL1, RuleId.EXIT1, RuleId.EXIT1,
]


def test_example1_replays_reference_states(ex1_program):
    run = run_virtual(ex1_program, 100)
    assert run.halted
    assert len(run.transitions) == 10
    assert [rule for rule, _ in run.transitions] == EXAMPLE1_RULES
    for i, state in enumerate(run.states):
        assert_state(state, *EXAMPLE1_STATES[i])


def test_init_state_example1(ex1_program):
    s1 = init_state(ex1_program)
    assert [c.id for c in s1.boxes[EPSILON]] == ["c1"]
    assert s1.preds[EPSILON] == Struct("goal")


def test_init_state_single_fact():
    p = parse_program("p(a). :- p(a).")
    s1 = init_state(p)
    assert [c.id for c in s1.boxes[EPSILON]] == ["c1"]


def test_init_state_undefined_goal_gives_empty_box():
    p = parse_program("p(a). :- q.")
    s1 = init_state(p)
    assert s1.boxes[EPSILON] == ()


def test_applicable_rule_sequence(ex1_program):
    s1 = init_state(ex1_program)
    assert applicable_rule(s1) is RuleId.CALL2
    _, s2 = step(s1)
    assert applicable_rule(s2) is RuleId.CALL1
    run = run_virtual(ex1_program, 100)
    final = run.states[-1]
    assert applicable_rule(final) is None  # Halt


def test_step_matches_reference_transitions(ex1_program):
    s1 = init_state(ex1_program)
    rule, s2 = step(s1)
    assert rule is RuleId.CALL2
    assert s2.tree == frozenset({E, N1})
    assert s2.current == N1
    assert s2.counter == 2
    assert alpha_equal([s2.preds[N1]], [parse_term("p(X)")])


def test_fail_step_reaches_root_with_ct_and_flr(ex1_program):
    run = run_virtual(ex1_program, 100)
    rule, s6 = run.transitions[4]
    assert rule is RuleId.FAIL2
    assert s6.current == EPSILON
    assert s6.complete and s6.failing


def test_redo_step_deletes_node_two(ex1_program):
    run = run_virtual(ex1_program, 100)
    rule, s7 = run.transitions[5]
    assert rule is RuleId.REDO1
    assert s7.tree == frozenset({E, N1})
    assert N2 not in s7.numbers and N2 not in s7.preds


def test_run_virtual_examples(ex1_program, ex2_program, loop_program):
    assert len(run_virtual(ex1_program, 100).transitions) == 10
    r2 = run_virtual(ex2_program, 100)
    assert r2.halted and len(r2.transitions) == 28
    r3 = run_virtual(loop_program, 50)
    assert not r3.halted  # fuel exhaustion, distinguishable from Halt
    assert len(r3.transitions) == 50


def test_run_virtual_rejects_zero_fuel(ex1_program):
    with pytest.raises(ValueError):
        run_virtual(ex1_program, 0)


def at(m, v):
    """The position of the node with Dewey word v in the machine."""
    return m.nodes.index(v)


def test_greatest_choice_point(ex1_program):
    run = run_virtual(ex1_program, 100)
    m6 = Machine(run.states[5])
    assert m6.nodes[greatest_choice_point(m6, at(m6, EPSILON))] == N1
    m11 = Machine(run.states[10])
    assert greatest_choice_point(m11, at(m11, EPSILON)) is None
    assert not has_choice_point(m11, at(m11, EPSILON))


def test_greatest_choice_point_takes_lexicographic_max(ex1_program):
    # synthetic tree with boxes at nodes 1 and 12: the greatest is 12
    base = init_state(ex1_program)
    clause = ex1_program.clauses[1]
    state = dataclasses.replace(
        base,
        nodes=(E, (1,), (1, 2)),
        up=(0, 0, 1),
        counter=3,
        # numbers, preds, boxes, fresh
        observed=((1, 2, 3), (Struct("x"),) * 3, ((), (clause,), (clause,)), (False,) * 3),
        # no call, bindings, chosen clause or drained visit recorded
        kept=((None,) * 3,) * 4,
    )
    enumerated = sorted(v for v in state.tree if state.boxes.get(v))
    m = Machine(state)
    assert m.nodes[greatest_choice_point(m, at(m, EPSILON))] == (1, 2) == enumerated[-1]


def test_may_have_new_brother(ex1_program):
    run = run_virtual(ex1_program, 100)
    m3 = Machine(run.states[2])
    assert may_have_new_brother(m3, at(m3, N1))  # p(X) is first of two body atoms
    assert not may_have_new_brother(m3, at(m3, EPSILON))  # the root has no brother
    m9 = Machine(run.states[8])
    assert not may_have_new_brother(m9, at(m9, N2))  # eq(X,b) is the last body atom


def test_box_init_examples(ex1_program):
    run = run_virtual(ex1_program, 100)
    s1 = run.states[0]
    clause_body = s1.program.clauses[0].body
    boxes, called = box_init(s1.program, clause_body[0], {})
    assert [c.id for c in boxes] == ["c2", "c3"]
    assert alpha_equal([called], [parse_term("p(X)")])
    s3 = run.states[2]
    atom = s3.chosen[EPSILON].body[1]
    boxes, called = box_init(s3.program, atom, s3.bindings)
    assert [c.id for c in boxes] == ["c4"]
    assert called == parse_term("eq(a,b)")
    boxes, called = box_init(s1.program, Struct("nosuch"), {})
    assert boxes == ()


def test_updated_pred_examples(ex1_program):
    run = run_virtual(ex1_program, 100)
    m3 = Machine(run.states[2])  # after c2 was used at node 1
    assert updated_pred(m3, at(m3, N1)) == parse_term("p(a)")
    m10 = Machine(run.states[9])
    assert updated_pred(m10, at(m10, EPSILON)) == Struct("goal")
    assert updated_pred(m10, at(m10, N2)) == parse_term("eq(b,b)")  # ground stays itself


def test_undefined_goal_fails_in_two_steps():
    p = parse_program("p(a). :- q.")
    run = run_virtual(p, 10)
    assert run.halted
    assert [rule for rule, _ in run.transitions] == [RuleId.CALL1, RuleId.FAIL2]


def test_first_implies_leaf_everywhere(ex2_program):
    for state in run_virtual(ex2_program, 100).states:
        m = Machine(state)
        for p, fresh in enumerate(m.fresh):
            if fresh:
                assert is_leaf(m, p)


def test_tree_prefix_closed_and_current_in_tree(ex2_program):
    for state in run_virtual(ex2_program, 100).states:
        assert state.current in state.tree
        assert EPSILON in state.tree
        for v in state.tree:
            assert v[:-1] in state.tree or v == EPSILON


def test_numbering_monotone_and_injective(ex2_program):
    # n is the number of the last node created, which a Redo may since
    # have deleted, so n bounds the live numbers from above (the sixth
    # state of the first reference run shows n=3 over live numbers {1,2})
    states = run_virtual(ex2_program, 100).states
    for before, after in zip(states, states[1:]):
        created = set(after.numbers) - set(before.numbers)
        for v in created:
            assert after.numbers[v] > max(before.numbers.values())
            assert after.numbers[v] == after.counter
        values = list(after.numbers.values())
        assert len(values) == len(set(values))
        assert after.counter >= max(values)


def test_step_on_halted_state_raises(ex1_program):
    final = run_virtual(ex1_program, 100).states[-1]
    with pytest.raises(DeterminismViolation):
        step(final)


def test_rule_preconditions_hold_on_fired_transitions(ex1_program, ex2_program):
    # Fail2 never fires on a first visit; Redo rules fire only while the
    # failing or construction-complete flag is up
    for program in (ex1_program, ex2_program):
        run = run_virtual(program, 200)
        before = run.initial
        for rule, after in run.transitions:
            if rule is RuleId.FAIL2:
                assert not before.fresh[before.current]
            if rule in (RuleId.REDO1, RuleId.REDO2):
                assert before.failing or before.complete
            before = after


def test_lpath_values(ex2_program):
    state = next(s for s in run_virtual(ex2_program, 100).states if (1, 1) in s.tree)
    m = Machine(state)
    assert lpath(m, at(m, EPSILON)) == 1
    assert lpath(m, at(m, (1,))) == 2
    assert lpath(m, at(m, (1, 1))) == 3


def test_every_rule_fires(ex1_program, ex2_program, corpus_200):
    fired = set()
    for program in [ex1_program, ex2_program] + list(corpus_200[:30]):
        fired.update(rule for rule, _ in run_virtual(program, 120).transitions)
    assert fired == set(RuleId)


def test_a_break_of_the_node_stack_raises(ex1_program):
    # The fourth reference state: tree {eps, 1, 2}, u = 2.  A state whose
    # u is not the last node or an ancestor of it is refused, and a live
    # machine whose u is moved off that path cannot push a node that is
    # not the Dewey maximum.
    state = run_virtual(ex1_program, 100).states[3]
    assert (state.current, tuple(sorted(state.tree))) == (N2, (E, N1, N2))
    with pytest.raises(ValueError):
        step(dataclasses.replace(state, current=N1))
    m = Machine(state)
    m.current = 1  # node 1, whose brother 2 exists already
    with pytest.raises(AssertionError):
        _fire(m, RuleId.EXIT2, None)


def test_a_cut_below_the_top_choice_point_raises(ex1_program):
    # every cut is at or above the top of cps; the first state with a
    # choice point after the root is cut at the root instead
    states = run_virtual(ex1_program, 100).states
    state = next(s for s in states if any(p > 0 for p in Machine(s).cps))
    m = Machine(state)
    with pytest.raises(AssertionError):
        m.cut(0)


def test_a_node_word_with_a_component_past_9_prints_with_dots():
    assert (node_str(()), node_str((1, 2)), node_str((1, 10))) == ("eps", "12", "1.10")


def test_a_violation_carries_the_condition_table(ex1_program):
    # A forged live state: the root is still fresh while ct is up and its
    # box holds clauses, so no rule applies and the machine has not halted.
    m = Machine(init_state(ex1_program))
    m.complete = True
    with pytest.raises(DeterminismViolation) as caught:
        _select(m)
    assert str(caught.value) == "no rule applies at node eps in a live state"
    assert list(caught.value.table.items()) == [(rule, False) for rule in RuleId]


def test_a_first_visit_extends_the_machines_own_bindings(corpus_200):
    # every visit binds at its node's mark: at a first visit that is the
    # whole store, as no rule fires between a push and the pushed node's Call
    data = [parse_program(p.read_text(encoding="utf-8")) for p in sorted(DATA.glob("*.pl"))]
    calls = 0
    for program in corpus_200[:60] + data:
        m = Machine(init_state(program))
        for rule in drive(m, 150):
            if rule in (RuleId.CALL1, RuleId.CALL2):
                assert m.call_marks[m.current] == len(m.bindings)
                calls += 1
    assert calls > 4000
