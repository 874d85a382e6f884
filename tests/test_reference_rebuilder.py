"""The node-stack rebuilder against the word-keyed rebuilder it replaced.

`byrdbox.rebuild.Rebuilder` holds its state as a node stack in Dewey
order and finds nodes by position.  The class below is the rebuilder it
replaced, kept here as an oracle: its maps are keyed by word, it finds a
node's next child by probing its numbering, and it derives its inverse
numbering again after every Redo.  Both must give equal states, the same
`node_of` answers (the first created of the nodes that carry a number),
and the same exceptions with the same messages.  Three input sets: the
traces of corpus(60), the `tests/data` goldens, and forged traces with
non-maximal adds and duplicate numbers (test_rebuild's `_events`).
"""

import pytest
from hypothesis import example, given, settings

from byrdbox import (
    AmbiguousOrUndecidable,
    CondViolation,
    MalformedTrace,
    Port,
    RuleId,
    TraceEvent,
    initial_restricted,
    parse_term,
    parse_trace,
    reconstruct_trace,
    run_actual_trace,
)
from byrdbox.corpus import corpus
from byrdbox.dewey import child, parent
from byrdbox.engine import EPSILON, node_str
from byrdbox.rebuild import RestrictedState, format_restricted, identify_rule

from conftest import load_golden
from test_rebuild import _events

FUEL = 120
PROGRAMS = corpus(60)

# ----------------------------------------------------------------------
# The word-keyed reference
# ----------------------------------------------------------------------


def ref_first_carriers(numbers):
    """The inverse of a numbering; where several nodes carry one number,
    the first of them in `numbers`, which lists them as they were added."""
    return dict(zip(reversed(numbers.values()), reversed(numbers.keys())))


class RefRebuilder:
    def __init__(self, goal):
        self.current, self.preds = EPSILON, {EPSILON: goal}
        self.numbers = {EPSILON: 1}
        self.by_number = ref_first_carriers(self.numbers)

    def maps(self):
        return frozenset(self.numbers), self.current, dict(self.numbers), dict(self.preds)

    def node_of(self, number):
        v = self.by_number.get(number)
        if v is None:
            raise MalformedTrace(f"no live node carries creation number {number}")
        return v

    def next_child(self, w):
        k = 1
        while w + (k,) in self.numbers:
            k += 1
        return child(w, k)

    def step(self, rule, e, e_next):
        if rule is RuleId.CALL1:
            return
        u = self.current
        if rule is RuleId.CALL2:
            self.add(self.next_child(self.node_of(e.r)), e_next)
        elif rule is RuleId.EXIT1:
            self.preds[u] = e.pred
            self.current = parent(u)
        elif rule is RuleId.EXIT2:
            if u == EPSILON:
                raise MalformedTrace("the root cannot acquire a brother")
            v = child(parent(u), u[-1] + 1)
            if v in self.numbers:
                raise MalformedTrace(f"brother {node_str(v)} already exists")
            self.preds[u] = e.pred
            self.add(v, e_next)
        elif rule is RuleId.FAIL2:
            self.current = parent(u)
        else:
            v = self.current = self.node_of(e.r)
            for w in [w for w in self.numbers if w > v]:
                del self.numbers[w]
                self.preds.pop(w, None)
            self.by_number = ref_first_carriers(self.numbers)
            if rule is RuleId.REDO2:
                self.add(child(v, 1), e_next)

    def add(self, v, e_next):
        self.current = v
        self.numbers[v] = e_next.r
        self.preds[v] = e_next.pred
        self.by_number.setdefault(e_next.r, v)


def ref_reconstruct(goal, events, final_peek):
    """(the maps and the numbering of every committed state, the pending
    event), as `reconstruct_trace` commits them."""
    rebuilder = RefRebuilder(goal)
    states = [(rebuilder.maps(), dict(rebuilder.numbers))]
    for i, e in enumerate(events):
        e_next = events[i + 1] if i + 1 < len(events) else None
        try:
            rule = identify_rule(e, e_next)
        except AmbiguousOrUndecidable:
            if not final_peek:
                return states, e
            if e.port is not Port.EXIT:
                raise MalformedTrace(
                    f"a complete trace cannot end with a {e.port} event"
                ) from None
            rule = RuleId.EXIT1
        rebuilder.step(rule, e, e_next)
        states.append((rebuilder.maps(), dict(rebuilder.numbers)))
    return states, None


def outcome(run):
    try:
        return run(), None
    except (MalformedTrace, CondViolation, AmbiguousOrUndecidable) as exc:
        return None, (type(exc), str(exc))


def assert_same_rebuild(goal, events):
    for final_peek in (False, True):
        got, got_error = outcome(
            lambda: reconstruct_trace(initial_restricted(goal), events, final_peek)
        )
        want, want_error = outcome(lambda: ref_reconstruct(goal, events, final_peek))
        assert got_error == want_error
        if want is None:
            continue
        states, pending = want
        assert got.pending == pending
        assert len(got.states) == len(states)
        for q, (maps, numbers) in zip(got.states, states):
            assert (q.tree, q.current, q.numbers, q.preds) == maps
            # a state built by hand from the same maps is the same state
            hand = RestrictedState(*maps)
            assert hand == q and format_restricted(hand) == format_restricted(q)
            by_number = ref_first_carriers(numbers)
            for number in range(max(numbers.values(), default=0) + 2):
                assert q.node_of(number) == hand.node_of(number) == by_number.get(number)


# ----------------------------------------------------------------------


@pytest.mark.parametrize("index", range(60))
def test_corpus_traces_rebuild_alike(index):
    program = PROGRAMS[index]
    trace = run_actual_trace(program, FUEL)
    assert_same_rebuild(trace.run.initial.preds[EPSILON], trace.events)


@pytest.mark.parametrize(
    "name", ["golden_ex1.txt", "golden_ex2_m1.txt", "golden_ex2_m2.txt", "golden_ex2_m3.txt"]
)
def test_goldens_rebuild_alike(name):
    # the listings, read as the golden tests read them
    events = parse_trace("\n".join(load_golden(name)))
    assert_same_rebuild(parse_term("goal"), events)


def forged(*rows):
    """Events from (r, port, predication) rows."""
    return [
        TraceEvent(chrono, r, 0, Port(port), parse_term(pred))
        for chrono, (r, port, pred) in enumerate(rows, start=1)
    ]


# Call2 adds 1 (number 2), Exit2 its brother 2 (number 3), Exit1 returns to
# the root, and Call2 at 1 inserts 11 before 2, also numbered 3.  Number 3
# then names 2, the first of its carriers to be created, not 11, the first
# in Dewey order: the Redo resumes 2 and keeps 11.
SHARED_NUMBER = forged(
    (1, "Call", "goal"), (2, "Exit", "p"), (3, "Exit", "q"), (2, "Call", "p"),
    (3, "Call", "r"), (3, "Redo", "q"), (3, "Exit", "q"),
)


@settings(max_examples=500, deadline=None)
@given(_events)
@example(SHARED_NUMBER)
def test_forged_traces_rebuild_alike(events):
    assert_same_rebuild(parse_term("goal"), events)
