"""Engine invariants over randomly generated programs.

The heavyweight corpus-wide acceptance checks (adequacy, port algebra,
determinism at fuel 500 over 200 programs) live in test_acceptance; this
module covers the structural invariants the corpus is also good at
exercising, on smaller samples.
"""

from byrdbox import ModelId, run_actual_trace, run_model
from byrdbox.corpus import corpus, program_source
from byrdbox.engine import EPSILON, Machine, is_leaf
from byrdbox.terms import parse_program


def test_generator_is_reproducible():
    a = corpus(10, seed=99)
    b = corpus(10, seed=99)
    assert [program_source(p) for p in a] == [program_source(p) for p in b]


def test_generated_heads_are_linear():
    from byrdbox.terms import Var

    for program in corpus(50, seed=3):
        for clause in program.clauses:
            seen = []
            for arg in clause.head.args:
                if isinstance(arg, Var):
                    assert arg not in seen
                    seen.append(arg)


def test_generated_sources_parse_back():
    for program in corpus(25, seed=4):
        again = parse_program(program_source(program))
        assert len(again.clauses) == len(program.clauses)
        assert again.goal == program.goal


def test_tree_shape_invariants_hold_on_corpus(corpus_200):
    for program in corpus_200[:40]:
        run = run_actual_trace(program, 200).run
        for state in run.states:
            assert state.current in state.tree
            assert EPSILON in state.tree
            for v in state.tree:
                assert v == EPSILON or v[:-1] in state.tree
            m = Machine(state)
            for p, fresh in enumerate(m.fresh):
                if fresh:
                    assert is_leaf(m, p)


def test_m1_model_matches_core_engine_on_corpus(corpus_200):
    # the generic machine restricted to its first model and the core
    # machine must emit identical event streams, attribute for attribute
    for program in corpus_200:
        simple = run_actual_trace(program, 150)
        ext = run_model(program, ModelId.M1, 650)
        left = [(e.r, e.l, e.port, e.pred) for e in simple.events]
        right = [(e.r, e.l, e.port, e.pred) for e in ext.events]
        if simple.halted and ext.halted:
            assert left == right
        else:
            shared = min(len(left), len(right))
            assert left[:shared] == right[:shared]


def test_compare_models_reports_honest_inclusion(corpus_200):
    # Port inclusion across models holds on the reference examples but is
    # not a theorem: the first model announces a Redo at every resumed
    # choice point while the second re-chooses silently inside a box it
    # already re-entered, which can reorder Redo and Fail events.  The
    # comparison report must agree with an independent subsequence oracle
    # either way.
    from byrdbox import compare_models

    def contains(longer, shorter):
        it = iter(longer)
        return all(p in it for p in shorter)

    checked = 0
    for program in corpus_200[:40]:
        runs = {m: run_model(program, m, 800) for m in ModelId}
        if not all(r.halted for r in runs.values()):
            continue
        checked += 1
        ports = {m: [e.port for e in runs[m].events] for m in ModelId}
        report = compare_models(program, 800)
        assert report.m1_in_m2 == contains(ports[ModelId.M2], ports[ModelId.M1])
        assert report.m2_in_m3 == contains(ports[ModelId.M3], ports[ModelId.M2])
        assert report.counts == {m: len(ports[m]) for m in ModelId}
    assert checked >= 10
