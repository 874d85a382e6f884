"""The clause selection against the scan it replaced.

`engine._peek_visit` drops a head that clashes with the call on a
functor without unifying it, and keeps the renamed clause and the
unifier of the trial that wins, which `_take` hands on.  The function
below is the scan it replaced, kept here as an oracle: it renames each
clause of the box in turn with the stamp the visit takes and unifies
its head.  Both must skip the same clauses and give the same renamed
clause and the same unifier (its insertion order included) at every
visit a core state can make, over corpus(60) and `tests/data/skip.pl`,
and at every CHOICE of the m1, m2 and m3 runs of the same programs.
"""

import pytest

from byrdbox import BOTTOM, parse_program, rename_clause, run_virtual, unify
from byrdbox.corpus import corpus
from byrdbox.engine import Machine, _peek_visit, greatest_choice_point
from byrdbox.multimodel import ExtMachine, ExtRuleId, ModelId, run_model

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


def check_visit(m, v, base) -> int:
    """Check the visit of position v under `base`; its skipped count."""
    peek = _peek_visit(m, v, base)
    got = (peek.skipped, peek.clause, None if peek.bindings is None else list(peek.bindings.items()))
    assert got == ref_peek_visit(m, v, base)
    assert peek.base is base and peek.stamp == m.stamp + 1
    return peek.skipped


def core_visits(program, fuel):
    """Check every visit a state of the core run can make: the current
    node's first visit, and the re-entry of its greatest choice point."""
    checked = skipped = 0
    for state in run_virtual(program, fuel).states:
        m = Machine(state)
        u = m.current
        visits = [(u, m.bindings)] if m.fresh[u] else []
        v = greatest_choice_point(m, u)
        if v is not None:
            visits.append((v, m.call_snaps[v]))
        for v, base in visits:
            skipped += check_visit(m, v, base)
            checked += 1
    return checked, skipped


def choice_visits(program, model, fuel):
    """Check the visit of every CHOICE the model's run fires."""
    run = run_model(program, model, fuel)
    states = [run.initial] + [s for _, s in run.transitions]
    checked = skipped = 0
    for before, (rule, _) in zip(states, run.transitions):
        if rule is ExtRuleId.CHOICE:
            m = ExtMachine(before)
            skipped += check_visit(m, m.current, m.call_snaps[m.current])
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
