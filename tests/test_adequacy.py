import dataclasses
import itertools

import pytest

from byrdbox import (
    HARD_FORBIDDEN,
    Port,
    RuleId,
    TraceEvent,
    check_adequacy,
    check_cond_exclusivity,
    check_port_sequence,
    derive_port_table,
    initial_restricted,
    parse_program,
    parse_term,
    port_warnings,
    reconstruct_step,
    restrict,
    run_actual_trace,
)
from byrdbox.corpus import corpus
from byrdbox.rebuild import Rebuilder, RestrictedState, matching_conds


def ev(chrono, r, l, port, pred="x"):
    return TraceEvent(chrono, r, l, Port(port), parse_term(pred))


def test_example1_passes(ex1_program):
    report = check_adequacy(ex1_program, 100)
    assert report.passed
    assert report.halted
    assert report.steps_checked == 10
    assert report.machine_line("example1.pl").startswith("PASS example1.pl 10")


def test_example2_passes(ex2_program):
    report = check_adequacy(ex2_program, 100)
    assert report.passed
    assert report.steps_checked == 28


def test_mutated_reconstruction_diverges_on_tree(ex1_program):
    # breaking the pruning of the Redo1 step must surface as a divergence
    # on T right after the Redo event (chrono 6 in the first example)
    trace = run_actual_trace(ex1_program, 100)
    events = trace.events
    q = initial_restricted(trace.run.initial.preds[()])
    divergence = None
    for t, (rule, state_after) in enumerate(trace.run.transitions):
        e = events[t]
        e_next = events[t + 1] if t + 1 < len(events) else None
        if rule is RuleId.REDO1:
            pass  # the mutation: skip the pruning update entirely
        else:
            q = reconstruct_step(rule, e, e_next, q)
        want = restrict(state_after)
        if q.tree != want.tree:
            divergence = (e.chrono, "T")
            break
    assert divergence == (6, "T")


def test_cond_exclusivity_on_reference_events(ex1_program, ex2_program):
    for program in (ex1_program, ex2_program):
        events = run_actual_trace(program, 200).events
        assert check_cond_exclusivity(events) == []


def test_cond_exclusivity_flags_forged_pair():
    events = [ev(1, 3, 1, "Call"), ev(2, 2, 2, "Call")]
    violations = check_cond_exclusivity(events)
    assert violations == [(0, set())]


def test_fail_pairs_match_exactly_one_cond():
    pair = matching_conds(ev(1, 3, 1, "Fail"), ev(2, 99, 1, "Redo"))
    assert pair == {RuleId.FAIL2}


def test_port_sequence_examples(ex1_program):
    ports = [e.port for e in run_actual_trace(ex1_program, 100).events]
    assert check_port_sequence(ports) == []
    assert check_port_sequence([Port.CALL, Port.REDO]) == [
        (0, (Port.CALL, Port.REDO))
    ]
    assert check_port_sequence([Port.REDO, Port.REDO]) == [
        (0, (Port.REDO, Port.REDO))
    ]
    assert check_port_sequence([Port.FAIL, Port.CALL]) == [
        (0, (Port.FAIL, Port.CALL))
    ]


def test_derived_port_table_oracle():
    programs = corpus(40, seed=7)
    table = derive_port_table(programs, max_steps=300)
    assert table
    assert not table & HARD_FORBIDDEN
    # warnings are reported against the derived table, not as violations
    assert port_warnings([Port.CALL, Port.EXIT], table) == []
    weird = port_warnings([Port.EXIT, Port.FAIL], table)
    assert weird == [(0, (Port.EXIT, Port.FAIL))]


def test_adequacy_on_undefined_goal():
    report = check_adequacy(parse_program("p(a). :- q."), 10)
    assert report.passed
    assert report.steps_checked == 2


# ----------------------------------------------------------------------
# check_adequacy compares all four restricted fields at every step, by
# value: a rebuilt state corrupted in one field is caught at its step,
# and one whose nodes are not the canonical tuples still passes.
# ----------------------------------------------------------------------

CORRUPTIONS = {
    "T": ("tree", lambda q: q.tree | {(7, 7)}),
    "u": ("current", lambda q: (7, 7)),
    "num": ("numbers", lambda q: {**q.numbers, (): 99}),
    "pred": ("preds", lambda q: {**q.preds, (): parse_term("corrupted")}),
}


def patch_rebuild(monkeypatch, change):
    """Make check_adequacy see change(step, q) for every rebuilt q."""
    real = Rebuilder.step
    steps = itertools.count(1)

    def patched(rebuilder, rule, e, e_next):
        real(rebuilder, rule, e, e_next)
        q = change(next(steps), rebuilder.snapshot())
        vars(rebuilder).update(vars(Rebuilder(q)))

    monkeypatch.setattr(Rebuilder, "step", patched)


@pytest.mark.parametrize("step", range(1, 11))
@pytest.mark.parametrize("name", CORRUPTIONS)
def test_a_corrupted_field_is_reported_at_its_step(monkeypatch, ex1_program, name, step):
    attr, corrupt = CORRUPTIONS[name]
    patch_rebuild(
        monkeypatch,
        lambda t, q: dataclasses.replace(q, **{attr: corrupt(q)}) if t == step else q,
    )
    report = check_adequacy(ex1_program, 100)
    assert report.first_divergence[:2] == (step, name)
    assert report.steps_checked == step - 1
    assert report.machine_line("ex1").startswith(f"FAIL ex1 {step - 1} divergence:step{step}:{name}")


EVIDENCE = {
    "T": (frozenset(), frozenset({(7, 7)})),
    "u": ((2,), (7, 7)),
    "num": ({(): 1}, {(): 99}),
    "pred": ({(): parse_term("goal")}, {(): parse_term("corrupted")}),
}


@pytest.mark.parametrize("name", CORRUPTIONS)
def test_a_divergence_names_only_the_differing_nodes(monkeypatch, ex1_program, name):
    # step 3 (Exit2) makes (2,) current; the other nodes agree
    attr, corrupt = CORRUPTIONS[name]
    patch_rebuild(
        monkeypatch,
        lambda t, q: dataclasses.replace(q, **{attr: corrupt(q)}) if t == 3 else q,
    )
    report = check_adequacy(ex1_program, 100)
    assert report.first_divergence == (3, name, *EVIDENCE[name])


def fresh_nodes(q):
    """q rebuilt from new tuples, none of them the canonical node."""
    new = lambda v: tuple(list(v))
    return RestrictedState(
        tree=frozenset(new(v) for v in q.tree),
        current=new(q.current),
        numbers={new(v): n for v, n in q.numbers.items()},
        preds={new(v): p for v, p in q.preds.items()},
    )


def reversed_maps(q):
    """q with its numbering and predications listing their nodes back to
    front, so that they no longer list them in the machine's order."""
    backwards = lambda m: dict(reversed(m.items()))
    return dataclasses.replace(q, numbers=backwards(q.numbers), preds=backwards(q.preds))


def test_non_canonical_nodes_compare_by_value(monkeypatch, ex1_program, ex2_program):
    # Neither the identity of the nodes nor the order in which the maps
    # list them changes a verdict.
    programs = [ex1_program, ex2_program] + list(corpus(10))
    expected = [check_adequacy(p, 120) for p in programs]
    for rewrite in (fresh_nodes, reversed_maps):
        with monkeypatch.context() as patch:
            patch_rebuild(patch, lambda t, q: rewrite(q))
            for program, want in zip(programs, expected):
                report = check_adequacy(program, 120)
                assert report.passed
                assert report.machine_line("p") == want.machine_line("p")
                assert report.steps_checked == want.steps_checked
