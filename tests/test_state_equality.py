"""State equality against the word-keyed maps a state stands for.

A frozen state holds its machine's lists as tuples, by position, and
equality compares those columns, not word-keyed maps.  That is sound
because each tree has exactly one layout: in both engines the positions
are the tree in Dewey order.  The oracle below pins it:
for every pair of states, `s == t` holds exactly when the maps derived
from the columns, u, n and the flags are all equal.
"""

from itertools import combinations_with_replacement

import pytest

from byrdbox import ModelId, parse_program, run_model, run_virtual
from byrdbox.corpus import corpus
from byrdbox.engine import Machine
from byrdbox.multimodel import ExtMachine

from conftest import DATA

FUEL = 120
FIRST = 40

CORE = ("tree", "numbers", "preds", "boxes", "fresh", "current", "counter", "complete", "failing")
EXTENDED = (
    "tree", "numbers", "preds", "chosen", "boxes", "sigmas", "fresh",
    "current", "counter", "complete", "failing", "success", "reverse",
)


def programs():
    examples = [
        parse_program((DATA / name).read_text(encoding="utf-8"))
        for name in ("example1.pl", "example2.pl")
    ]
    return examples + list(corpus(30))


PROGRAMS = programs()


def observed(state, names):
    return tuple(getattr(state, name) for name in names)


def assert_equality_is_map_equality(states, names, machine):
    """Every pair of `states`, and each state with the snapshot of the
    machine built from it; returns how many distinct pairs were equal."""
    for s in states:
        again = machine(s).snapshot()
        assert again == s and observed(again, names) == observed(s, names)
    equal = 0
    for s, t in combinations_with_replacement(states, 2):
        same = observed(s, names) == observed(t, names)
        assert (s == t) == same == (t == s)
        equal += same and s is not t
    return equal


@pytest.mark.parametrize("index", range(len(PROGRAMS)))
def test_state_equality_is_map_equality(index):
    program = PROGRAMS[index]
    states = run_virtual(program, FUEL).states[:FIRST]
    assert_equality_is_map_equality(states, CORE, Machine)
    # the three models' states pooled, so that pairs cross models
    states = []
    for model in ModelId:
        run = run_model(program, model, FUEL)
        states += ([run.initial] + [s for _, s in run.transitions])[:FIRST]
    equal = assert_equality_is_map_equality(states, EXTENDED, ExtMachine)
    # the models share their first steps, so distinct states compare equal
    assert equal > 0
