"""The answers the machines trace against an SLD solver written here.

Every other check compares byrdbox with itself (the rebuilder with the
machine, the core with m1, the models with each other) or with the
paper's listings.  A fault that kept them all in step would pass those: a
Redo that did not take back the bindings made since its choice point, for
one.  The solver below shares nothing with `engine` or `multimodel`: it
runs the standard computation of Prolog, depth first, left to right,
clauses in source order, each alternative with its own binding store, on
an explicit stack of goal lists.

The answers of a run are the predications of its root Exits (port Exit,
l = 1), in order; the solver's are the goal under each of its answer
stores.  Both are formatted with a fresh `VarNames` each.  For the core
trace and each model's, on `corpus(200)` and on `tests/data` at fuel 500:
- a halted run's answers are all of the solver's;
- a run out of fuel has answers that are a prefix of the solver's.
"""

from itertools import islice

import pytest

from byrdbox import ModelId, Port, parse_program, run_actual_trace, run_model
from byrdbox.terms import BOTTOM, VarNames, format_term, rename_clause, resolve, unify

from conftest import DATA_PROGRAMS

FUEL = 500
# Each pending alternative keeps its own store, so the cap bounds memory
# as well as time.  The runs below need at most 204 trials of the solver.
TRIALS = 1_000


class OutOfTrials(Exception):
    """The solver used up its clause trials before it ended."""


def sld_answers(program, trials=TRIALS):
    """Yield the goal's answers, formatted.  A frame on the stack is an
    alternative not yet taken: its store, its goal list, and the position
    in the first goal's definition of the next clause to try.  The newest
    frame is taken first, so the first clause's subtree is searched before
    the second clause is tried.  Raises OutOfTrials after `trials` head
    unifications."""
    stack = [({}, (program.goal,), 0)]
    stamp = 0
    while stack:
        store, goals, i = stack.pop()
        if not goals:
            yield format_term(resolve(store, program.goal), VarNames())
            continue
        goal = goals[0]
        clauses = program.clauses_for(goal.functor, len(goal.args))
        if i == len(clauses):
            continue  # this goal has no clause left: the alternative fails
        stack.append((store, goals, i + 1))
        if trials == 0:
            raise OutOfTrials(f"{TRIALS} clause trials")
        trials -= 1
        stamp += 1
        clause = rename_clause(clauses[i], stamp)
        unifier = unify(goal, clause.head, store, resolved=False)
        if unifier is not BOTTOM:
            stack.append((unifier, clause.body + goals[1:], 0))


def root_answers(events):
    return [format_term(e.pred, VarNames()) for e in events if e.port is Port.EXIT and e.l == 1]


def check_runs(program):
    """The core run and each model's against one run of the solver, which
    is asked for one answer more than the longest halted run has."""
    core = run_actual_trace(program, FUEL)
    runs = {"core": (root_answers(core.events), core.halted)}
    for model in ModelId:
        run = run_model(program, model, FUEL)
        runs[model.value] = (root_answers(run.events), run.halted)
    wanted = max(len(answers) + halted for answers, halted in runs.values())
    found = list(islice(sld_answers(program), wanted))
    for name, (answers, halted) in runs.items():
        if halted:  # every answer, and the solver has no other
            assert answers == found, name
        else:
            assert answers == found[: len(answers)], name
    return runs


def test_the_solver_searches_as_prolog_does():
    program = parse_program("p(a). p(X) :- q(X). p(c). q(b). q(d). :- p(Y).")
    assert list(sld_answers(program)) == ["p(a)", "p(b)", "p(d)", "p(c)"]
    loop = parse_program("n(z). n(s(X)) :- n(X). :- n(N).")
    assert list(islice(sld_answers(loop), 3)) == ["n(z)", "n(s(z))", "n(s(s(z)))"]
    with pytest.raises(OutOfTrials):
        list(sld_answers(parse_program("l :- l. :- l."), trials=50))


def test_the_corpus_traces_the_answers_of_sld_resolution(corpus_200):
    answered = halted = 0
    for program in corpus_200:
        runs = check_runs(program)
        answered += len(runs["core"][0])
        halted += runs["core"][1]
    # the corpus reaches both kinds of run, and answers
    assert answered > 100 and 20 < halted < len(corpus_200) - 20


@pytest.mark.parametrize("name", DATA_PROGRAMS)
def test_the_data_programs_trace_the_answers_of_sld_resolution(name):
    check_runs(DATA_PROGRAMS[name])
