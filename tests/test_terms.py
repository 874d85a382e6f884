import os
import subprocess
import sys
from itertools import count
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import byrdbox
from byrdbox import (
    BOTTOM,
    Clause,
    ParseError,
    Struct,
    Var,
    apply_subst,
    compose,
    format_term,
    parse_program,
    parse_term,
    rename_clause,
    unify,
)
from byrdbox.corpus import corpus
from byrdbox.engine import _clash
from byrdbox.terms import CyclicTerm, resolve, variables


def term(text):
    return parse_term(text)


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------

def test_parse_labeled_program():
    p = parse_program("c1: goal:-p(X),eq(X,b). c2: p(a). c3: p(b). c4: eq(X,X). :- goal.")
    assert [c.id for c in p.clauses] == ["c1", "c2", "c3", "c4"]
    assert p.goal == Struct("goal")
    assert p.clauses[0].head == Struct("goal")
    assert len(p.clauses[0].body) == 2
    assert p.clauses[1].is_fact


def test_parse_single_fact_program():
    p = parse_program("p(a). :- p(a).")
    assert len(p.clauses) == 1
    assert p.clauses[0].id == "c1"
    assert p.goal == Struct("p", (Struct("a"),))


def test_parse_rejects_empty_body():
    with pytest.raises(ParseError):
        parse_program("q :- . :- q.")


def test_parse_requires_exactly_one_goal():
    with pytest.raises(ParseError, match="missing goal"):
        parse_program("p(a).")
    with pytest.raises(ParseError, match="duplicate goal"):
        parse_program("p(a). :- p(a). :- p(a).")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_program("p(a).\nq(].\n:- p(a).")
    assert err.value.line == 2


def test_duplicate_clause_id_points_at_the_second_clause():
    with pytest.raises(ParseError, match="duplicate clause id 'c1'") as err:
        parse_program("c1: p(a).\n  c1: p(b).\n:- p(a).")
    assert (err.value.line, err.value.column) == (2, 3)
    # an unlabeled clause takes its position as id: here c2, like the label
    with pytest.raises(ParseError, match="duplicate clause id 'c2'") as err:
        parse_program("c2: p(a). p(b).\n:- p(a).")
    assert (err.value.line, err.value.column) == (1, 11)


def test_parse_comments_and_anonymous_vars():
    p = parse_program("% header\nq(_, _).\n:- q(a, b). % trailing\n")
    head = p.clauses[0].head
    assert isinstance(head.args[0], Var) and isinstance(head.args[1], Var)
    assert head.args[0] != head.args[1]


def test_positional_ids_skip_nothing():
    p = parse_program("p(a). p(b). :- p(X).")
    assert [c.id for c in p.clauses] == ["c1", "c2"]


def test_clauses_for_matches_the_scan(ex1_program, ex2_program):
    # the per-program index gives each predicate's clauses in source
    # order, as a scan of the clause list does
    for program in [ex1_program, ex2_program] + list(corpus(30)):
        keys = {(c.head.functor, c.head.arity) for c in program.clauses}
        keys |= {(b.functor, b.arity) for c in program.clauses for b in c.body}
        keys |= {(program.goal.functor, program.goal.arity), ("absent", 0), ("eq", 3)}
        for functor, arity in keys:
            scan = tuple(
                c for c in program.clauses
                if c.head.functor == functor and c.head.arity == arity
            )
            assert program.clauses_for(functor, arity) == scan


# ----------------------------------------------------------------------
# Renaming
# ----------------------------------------------------------------------

def test_rename_preserves_structure():
    c = Clause("c", term("eq(X,X)"), ())
    r = rename_clause(c, 7)
    assert r.head.functor == "eq"
    assert r.head.args[0] == r.head.args[1] == Var("X", 7)


def test_rename_ground_clause_unchanged():
    c = Clause("c", term("p(a)"), ())
    assert rename_clause(c, 3) == Clause("c", term("p(a)"), ())


def test_rename_makes_variables_fresh():
    c = Clause("c1", term("goal"), (term("p(X)"), term("eq(X,b)")))
    r = rename_clause(c, 3)
    before = set().union(*(variables(b) for b in c.body))
    after = set().union(*(variables(b) for b in r.body))
    assert before and after
    assert before & after == set()
    assert r.body[0].args[0] == Var("X", 3)


def test_rename_shares_the_ground_subterms_of_its_clause():
    c = parse_program("p(f(a,g(b)),X,h(X,c)) :- q(k(a),X), r.\n:- r.\n").clauses[0]
    for stamp in (5, 6):  # the first renaming compiles the clause, the next reuses that
        r = rename_clause(c, stamp)
        assert r.head.args[0] is c.head.args[0]
        assert r.head.args[2].args[1] is c.head.args[2].args[1]
        assert r.body[0].args[0] is c.body[0].args[0]
        assert r.body[1] is c.body[1]
        assert r.head.args[2] is not c.head.args[2]
        assert r.head.args[2] == Struct("h", (Var("X", stamp), Struct("c")))


# ----------------------------------------------------------------------
# Term values
# ----------------------------------------------------------------------

def test_equal_terms_hash_alike():
    pairs = [
        (Var("X", 3), Var("X", 3)),
        (Var("X"), Var("X", 0)),
        (Struct("a"), Struct("a", ())),
        (term("f(X,g(a))"), Struct("f", (Var("X"), Struct("g", (Struct("a"),))))),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
        assert a is not b
    # a Struct hashes its functor and arity alone, so a deep one hashes in O(1)
    assert all(hash(a) == hash(a.indicator) for a, _ in pairs if isinstance(a, Struct))
    assert Var("X", 3) != Var("X", 4) and Var("X") != Var("Y")
    assert term("f(a)") != term("f(b)") and Struct("f") != term("f(a)")


def test_hashing_a_term_100000_deep_returns():
    # Tuple hashing recurses in C with no depth guard, and a crash there
    # ends the process, so the three hashes run in a child.
    code = (
        "from byrdbox import Clause, parse_program, parse_term\n"
        "d = 's(' * 100000 + 'z' + ')' * 100000\n"
        "hash(parse_term(d))\n"
        "hash(parse_program('nat(z).\\nnat(s(X)) :- nat(X).\\n:- nat(' + d + ').\\n'))\n"
        "hash(Clause('c', parse_term(d)))\n"
    )
    src = str(Path(byrdbox.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True
    )
    assert (done.returncode, done.stderr) == (0, b"")


def test_a_variable_never_equals_a_compound_term():
    # a stamp is an int and arguments are a tuple, whatever the first field
    for v, s in ((Var("a"), Struct("a")), (Var("X"), Struct("X")), (Var("f", 1), term("f(a)"))):
        assert v != s and s != v
        assert not (v == s or s == v)


def test_term_repr_is_unchanged():
    assert repr(Var("X")) == "Var('X')"
    assert repr(Var("X", 3)) == "Var('X'#3)"
    assert repr(Struct("a")) == "Struct(a)"
    assert repr(term("f(X,g(a),Y,X)")) == "Struct(f(_1,g(a),_2,_1))"
    assert repr({Var("X", 2): term("s(z)")}) == "{Var('X'#2): Struct(s(z))}"
    assert (term("f(a,b)").arity, term("f(a,b)").indicator) == (2, ("f", 2))


# ----------------------------------------------------------------------
# Unification and substitutions
# ----------------------------------------------------------------------

def test_unify_single_binding():
    s = unify(term("p(X)"), term("p(a)"))
    assert s == {Var("X"): Struct("a")}


def test_unify_failure_is_bottom():
    assert unify(term("eq(a,b)"), term("eq(X,X)")) is BOTTOM


def test_unify_identical_constants():
    assert unify(term("goal"), term("goal")) == {}


def test_unify_makes_sides_equal():
    a, b = term("f(X,g(Y))"), term("f(g(b),Z)")
    s = unify(a, b)
    assert apply_subst(s, a) == apply_subst(s, b)


def test_unify_result_idempotent():
    s = unify(term("f(X,Y)"), term("f(g(Z),Z)"))
    t = term("h(X,Y,Z)")
    once = apply_subst(s, t)
    assert apply_subst(s, once) == once


def test_apply_subst_examples():
    s = unify(term("p(X)"), term("p(a)"))
    assert apply_subst(s, term("eq(X,b)")) == term("eq(a,b)")
    assert apply_subst({}, term("eq(X,b)")) == term("eq(X,b)")
    assert apply_subst({Var("X"): Struct("b")}, term("p(X)")) == term("p(b)")


def test_apply_bottom_is_a_contract_violation():
    with pytest.raises(ValueError):
        apply_subst(BOTTOM, term("p(a)"))


def test_bottom_absorbs_composition():
    s = {Var("X"): Struct("a")}
    assert compose(BOTTOM, s) is BOTTOM
    assert compose(s, BOTTOM) is BOTTOM
    assert compose(BOTTOM, BOTTOM) is BOTTOM


def test_compose_applies_in_order():
    first = {Var("X"): Var("Y")}
    second = {Var("Y"): Struct("a")}
    composed = compose(first, second)
    assert apply_subst(composed, Var("X")) == Struct("a")


def test_resolve_reports_a_binding_that_contains_its_own_variable():
    s = unify(term("p(Y,f(Y))"), term("p(X,X)"), resolved=False)
    with pytest.raises(CyclicTerm) as raised:
        resolve(s, term("q(Y)"))
    assert raised.value.var == Var("Y")


def test_resolve_reports_a_cycle_through_two_bindings():
    s = {Var("X"): term("f(Y)"), Var("Y"): term("g(a,X)")}
    with pytest.raises(CyclicTerm) as raised:
        resolve(s, term("h(b,X)"))
    assert raised.value.var in (Var("X"), Var("Y"))


def test_unify_reports_a_cycle_of_variable_bindings():
    x, y = Var("X"), Var("Y")
    for store in ({x: y, y: x}, {x: x}):
        with pytest.raises(CyclicTerm) as raised:
            unify(x, term("a"), store, resolved=False)
        assert raised.value.var in store


def test_resolve_of_a_deep_acyclic_term_is_no_cyclic_term():
    # chains of n bindings, each one level deeper, without a cycle
    for n in (5000, 100_000):
        s = {Var(f"V{i}"): Struct("s", (Var(f"V{i + 1}"),)) for i in range(n)}
        assert format_term(resolve(s, Var("V0"))) == "s(" * n + "_1" + ")" * n


def test_every_walker_handles_a_term_100000_deep():
    n = 100_000
    text = "s(" * n + "_7" + ")" * n
    t = parse_term(text)
    assert format_term(t) == text
    assert variables(t) == {Var("_7")}
    assert format_term(apply_subst({Var("_7"): Struct("z")}, t)) == "s(" * n + "z" + ")" * n
    renamed = rename_clause(Clause("c", Struct("p", (t,))), 2).head.args[0]
    assert variables(renamed) == {Var("_7", 2)}
    # equal down to the variables: unification descends all n levels
    assert unify(t, renamed, resolved=False) == {Var("_7", 2): Var("_7")}


def test_unify_returns_on_two_cyclic_bindings_out_of_phase():
    # A = f(A) and B = f(f(B)) stand for the same infinite term; the pair
    # (A, B) comes round again through the bindings and is not expanded twice
    a, b = Var("A"), Var("B")
    s = {a: term("f(A)"), b: term("f(f(B))")}
    assert unify(a, b, s, resolved=False) is not BOTTOM
    assert unify(a, term("g(A)"), s, resolved=False) is BOTTOM


def test_unify_leaves_its_input_substitution_alone():
    s = {Var("X"): term("f(Y)")}
    out = unify(term("p(X,Y)"), term("p(f(a),Z)"), s, resolved=False)
    assert s == {Var("X"): term("f(Y)")}
    assert out is not s and out[Var("Y")] == Struct("a")


def test_too_deep_term_is_a_parse_error():
    # no term is too deep to parse; an unclosed one fails at the end of input
    deep = "s(" * 3000 + "z" + ")" * 3000
    assert format_term(parse_term(deep)) == deep
    assert format_term(parse_program(f"nat(z).\n:- nat({deep}).\n").goal) == f"nat({deep})"
    with pytest.raises(ParseError, match="expected '\\)', found ''") as raised:
        parse_program(f"nat(z).\n:- nat({deep[:-1]}")
    assert (raised.value.line, raised.value.column) == (2, 9008)
    assert parse_term("s(" * 100 + "z" + ")" * 100).arity == 1


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------

def test_format_canonical():
    assert format_term(term("eq(a,b)")) == "eq(a,b)"
    assert format_term(term("goal")) == "goal"


def test_format_assigns_indices_in_first_occurrence_order():
    t = term("f(X,Y,X)")
    assert format_term(t) == "f(_1,_2,_1)"


def test_format_round_trips_trace_variables():
    t = term("q(_86)")
    assert format_term(t) == "q(_86)"


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------

_functors = st.sampled_from(["f", "g", "h"])
_constants = st.sampled_from(["a", "b", "c"]).map(Struct)


def _terms(var_names):
    vars_ = st.sampled_from(var_names).map(Var)
    return st.recursive(
        _constants | vars_,
        lambda sub: st.builds(
            lambda f, args: Struct(f, tuple(args)),
            _functors,
            st.lists(sub, min_size=1, max_size=3),
        ),
        max_leaves=8,
    )


def _linearize(t, prefix):
    # one occurrence per variable; linear terms with disjoint sides keep
    # every unification acyclic, which is the defined domain of the
    # occur-check-free unifier
    counter = [0]

    def go(t):
        if isinstance(t, Var):
            counter[0] += 1
            return Var(f"{prefix}{counter[0]}")
        return Struct(t.functor, tuple(go(a) for a in t.args))

    return go(t)


_left_terms = _terms(["X"]).map(lambda t: _linearize(t, "X"))
_right_terms = _terms(["U"]).map(lambda t: _linearize(t, "U"))


@given(_left_terms, _right_terms)
def test_unifier_equalizes_linear_terms(a, b):
    s = unify(a, b)
    if s is not BOTTOM:
        assert apply_subst(s, a) == apply_subst(s, b)


@given(_left_terms, _right_terms)
def test_unify_symmetric_up_to_success(a, b):
    left = unify(a, b)
    right = unify(b, a)
    assert (left is BOTTOM) == (right is BOTTOM)
    if left is not BOTTOM:
        assert apply_subst(left, a) == apply_subst(left, b)
        assert apply_subst(right, a) == apply_subst(right, b)


_POOL = ["A", "B", "C", "D"]


@st.composite
def _stores(draw):
    """A binding store over _POOL, cyclic at will: through compound terms,
    and through variables bound to variables in any direction, a variable
    bound to itself included (`unify` never makes such a loop)."""
    store = {}
    for name in _POOL:
        kind = draw(st.sampled_from(["free", "var", "term", "term"]))
        if kind == "var":
            store[Var(name)] = Var(draw(st.sampled_from(_POOL)))
        elif kind == "term":
            args = draw(st.lists(_terms(_POOL), min_size=1, max_size=2))
            store[Var(name)] = Struct(draw(_functors), tuple(args))
    return store


def _has_variable_cycle(store):
    """Whether the store's variable-to-variable bindings hold a cycle."""
    for v in store:
        chain = set()
        while isinstance(v, Var) and v in store:
            if v in chain:
                return True
            chain.add(v)
            v = store[v]
    return False


def _resolves_or_is_cyclic(store, t):
    try:
        r = resolve(store, t)
    except CyclicTerm as exc:
        assert exc.var in store
    else:
        assert not variables(r) & store.keys()


@settings(max_examples=100, deadline=None)
@given(_stores(), _terms(_POOL), _terms(_POOL))
def test_unify_and_resolve_are_total_on_any_store(store, a, b):
    # unify raises CyclicTerm exactly where a chain of variable bindings
    # can come back to its start, and returns otherwise
    try:
        out = unify(a, b, store, resolved=False)
    except CyclicTerm as exc:
        assert _has_variable_cycle(store) and exc.var in store
        out = BOTTOM
    assert out is BOTTOM or store.items() <= out.items()
    for t in (a, b):
        _resolves_or_is_cyclic(store, t)
        if out is not BOTTOM:
            _resolves_or_is_cyclic(out, t)


@st.composite
def _goal_and_head(draw):
    """A call and a clause head of one predicate p/n, over _POOL."""
    n = draw(st.integers(1, 3))
    args = st.lists(_terms(_POOL), min_size=n, max_size=n).map(tuple)
    return Struct("p", draw(args)), Struct("p", draw(args))


def _skeleton(t, prefix):
    """`t` with each argument cut down to its principal functor: variables
    and the arguments' arguments become fresh variables named `prefix`k."""
    fresh = (Var(f"{prefix}{k}") for k in count())
    return Struct(t.functor, tuple(
        Struct(a.functor, tuple(next(fresh) for _ in a.args)) if isinstance(a, Struct) else next(fresh)
        for a in t.args
    ))


@settings(max_examples=300, deadline=None)
@given(_stores().filter(lambda store: not _has_variable_cycle(store)), _goal_and_head())
def test_a_head_clash_never_unifies(store, pair):
    # the visit's pre-check drops exactly the heads whose argument
    # skeletons fail to unify, and such a head fails on any store
    goal, head = pair
    clash = _clash(goal, head)
    assert clash == (unify(_skeleton(goal, "G"), _skeleton(head, "H")) is BOTTOM)
    if clash:
        assert unify(goal, head, store, resolved=False) is BOTTOM
        assert unify(goal, rename_clause(Clause("c", head), 1).head, store, resolved=False) is BOTTOM


@given(_terms(["X", "Y", "Z"]))
def test_format_parse_round_trip_modulo_renaming(t):
    text = format_term(t)
    back = parse_term(text)
    # printed variables are normalized, so compare after one more trip
    assert format_term(back) == text


def test_program_round_trip_modulo_labels():
    src = "c1: goal:-p(X),eq(X,b).\nc2: p(a).\n:- goal.\n"
    p = parse_program(src)
    from byrdbox import program_source

    again = parse_program(program_source(p))
    assert [c.head for c in again.clauses] == [c.head for c in p.clauses]
    assert [c.body for c in again.clauses] == [c.body for c in p.clauses]
    assert again.goal == p.goal
