"""The clause selection against the scan it replaced.

`engine._peek_visit` drops a head that clashes with the call on a
functor without unifying it, binds each other head in the machine's
store at the node's mark, and keeps the renamed clause and the bindings
of the trial that wins, which `_take` commits.  The function below is
the scan it replaced, kept here as an oracle: it renames each clause of
the box in turn with the stamp the visit takes and unifies its head with
the pure `unify`, under a copy of the bindings at the node's mark.  Both
must skip the same clauses and give the same renamed clause and the same
unifier (its insertion order included) at every visit a core state can
make, over corpus(60) and `tests/data/skip.pl`, and at every CHOICE of
the m1, m2 and m3 runs of the same programs; the peek must leave the
store as it was, and once the visit fires the store must be that
unifier (the bindings at the mark, when the box is drained).
"""

import pytest

from byrdbox import BOTTOM, parse_program, rename_clause, run_virtual, unify
from byrdbox.corpus import corpus
from byrdbox.engine import Machine, RuleId, _fire, _peek_visit, _select, greatest_choice_point
from byrdbox.multimodel import ExtMachine, ExtRuleId, ModelId, _fire as fire_extended, run_model

from conftest import DATA

FUEL = 150
PROGRAMS = corpus(60)
SKIP = parse_program((DATA / "skip.pl").read_text(encoding="utf-8"))


def ref_peek_visit(state, v, base):
    """(clauses skipped, the first renamed clause whose head unifies, its
    unifier); the clause and unifier are None when the box is drained."""
    goal, stamp = state.call_preds[v], state.stamp + 1
    for skipped, c in enumerate(state.boxes[v]):
        inst = rename_clause(c, stamp)
        bindings = unify(goal, inst.head, base, resolved=False)
        if bindings is not BOTTOM:
            return skipped, inst, list(bindings.items())
    return len(state.boxes[v]), None, None


def check_visit(m, v):
    """Check the visit of position v against the scan under the bindings
    at v's mark; (its skipped count, the store its firing must leave)."""
    base, store = m.bindings_at(m.call_marks[v]), list(m.bindings.items())
    peek = _peek_visit(m, v)
    assert list(m.bindings.items()) == store
    want = ref_peek_visit(m, v, base)
    got = (peek.skipped, peek.clause, None if peek.clause is None else [*base.items(), *peek.bindings])
    assert got == want
    assert peek.stamp == m.stamp + 1
    return peek.skipped, list(base.items()) if want[2] is None else want[2]


def core_visits(program, fuel):
    """Check every visit a state of the core run can make: the current
    node's first visit, and the re-entry of its greatest choice point;
    then fire the rule that applies."""
    checked = skipped = 0
    for state in run_virtual(program, fuel).states:
        m = Machine(state)
        u = m.current
        visits = [u] if m.fresh[u] else []
        v = greatest_choice_point(m, u)
        if v is not None:
            visits.append(v)
        stores = {}
        for w in visits:
            skips, stores[w] = check_visit(m, w)
            skipped += skips
            checked += 1
        rule, peek = _select(m)
        if rule in (RuleId.CALL1, RuleId.CALL2, RuleId.REDO1, RuleId.REDO2):
            store = stores[u if rule in (RuleId.CALL1, RuleId.CALL2) else v]
            _fire(m, rule, peek)
            assert list(m.bindings.items()) == store
    return checked, skipped


def choice_visits(program, model, fuel):
    """Check the visit of every CHOICE the model's run fires."""
    run = run_model(program, model, fuel)
    states = [run.initial] + [s for _, s in run.transitions]
    checked = skipped = 0
    for before, (rule, _) in zip(states, run.transitions):
        if rule is ExtRuleId.CHOICE:
            m = ExtMachine(before)
            skips, store = check_visit(m, m.current)
            fire_extended(m, model, 0, rule)
            assert list(m.bindings.items()) == store
            skipped += skips
            checked += 1
    return checked, skipped


def test_core_visits_match_the_scan_on_the_corpus():
    checked, skipped = map(sum, zip(*(core_visits(p, FUEL) for p in PROGRAMS)))
    assert checked > 1000 and skipped > 100


@pytest.mark.parametrize("model", list(ModelId), ids=str)
def test_choices_match_the_scan_on_the_corpus(model):
    checked, skipped = map(sum, zip(*(choice_visits(p, model, FUEL) for p in PROGRAMS)))
    assert checked > 500 and skipped > 50


def test_visits_match_the_scan_on_a_generate_and_test_program():
    # most of skip.pl's t/3 rows clash with a call: the skips dominate
    checked, skipped = core_visits(SKIP, 1000)
    assert skipped > checked
    for model in ModelId:
        checked, skipped = choice_visits(SKIP, model, 1000)
        assert skipped > checked
