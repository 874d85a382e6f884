"""Properties of both engines on generated programs, shrunk on failure.

The corpus (byrdbox.corpus) draws linear clause heads from a fixed seed;
the programs below come from hypothesis and may repeat a variable in a
head, so a unification can build a cyclic term.  Whatever the program,
a run either ends or raises CyclicTerm:

  * the adequacy check finds no forbidden port adjacency, and passes on
    a halting run;
  * on a halting run the core engine's events equal the m1 model's;
  * the comparison of the three models reports port inclusion as an
    independent subsequence check finds it, and m2's ports lie within
    m3's whenever the three runs halt.  m1's need not lie within m2's:
    m1 announces a Redo at a resumed choice point whose clauses then all
    fail, where m2 re-chooses silently (test_corpus_properties).
"""

from hypothesis import given, settings, strategies as st

from byrdbox import (
    Clause,
    ModelId,
    Program,
    Struct,
    Var,
    check_adequacy,
    compare_models,
    run_actual_trace,
    run_model,
)
from byrdbox.terms import CyclicTerm

FUEL = 150

_LEAVES = (Struct("a"), Struct("b"), Var("X"), Var("Y"))


def _nest(term, depth):
    for _ in range(depth):
        term = Struct("f", (term,))
    return term


# an argument: a constant, a variable, or f/1 around one, at most twice
_argument = st.builds(_nest, st.sampled_from(_LEAVES), st.integers(0, 2))


@st.composite
def programs(draw):
    """1-4 predicates of arity 0-2, each with 1-3 clauses whose bodies
    hold 0-3 atoms, and a goal."""
    arities = draw(st.lists(st.integers(0, 2), min_size=1, max_size=4))
    predicate = st.integers(0, len(arities) - 1)

    def atom(i):
        return Struct(f"p{i}", tuple(draw(_argument) for _ in range(arities[i])))

    clauses = []
    for i in range(len(arities)):
        for _ in range(draw(st.integers(1, 3))):
            body = tuple(atom(draw(predicate)) for _ in range(draw(st.integers(0, 3))))
            clauses.append(Clause(f"c{len(clauses) + 1}", atom(i), body))
    return Program(tuple(clauses), atom(draw(predicate)))


def _within(shorter, longer) -> bool:
    it = iter(longer)
    return all(port in it for port in shorter)


@settings(max_examples=100, deadline=None)
@given(programs())
def test_engines_agree_on_generated_programs(program):
    try:
        report = check_adequacy(program, FUEL)
        trace = run_actual_trace(program, FUEL)
        comparison = compare_models(program, FUEL)
        runs = {model: run_model(program, model, FUEL) for model in ModelId}
    except CyclicTerm:
        return

    assert report.port_violations == []
    assert report.halted == trace.halted
    if report.halted:
        assert report.passed, report.machine_line("generated")

    m1 = runs[ModelId.M1]
    if trace.halted and m1.halted:
        rows = lambda events: [(e.r, e.l, e.port, e.pred) for e in events]
        assert rows(trace.events) == rows(m1.events)

    ports = {model: [e.port for e in run.events] for model, run in runs.items()}
    assert comparison.m1_in_m2 == _within(ports[ModelId.M1], ports[ModelId.M2])
    assert comparison.m2_in_m3 == _within(ports[ModelId.M2], ports[ModelId.M3])
    if all(run.halted for run in runs.values()):
        assert comparison.m2_in_m3
