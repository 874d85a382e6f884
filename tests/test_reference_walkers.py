"""The term walkers and the term reader against reference implementations.

`byrdbox.terms` walks terms on explicit stacks.  The functions below are
the plain recursive walks those replace, kept here as an oracle: on every
term shallow enough for Python's recursion, both must agree.  Three input
sets: every clause of the 200-program corpus, the binding store and call
predication at every step of corpus(60) runs, and generated terms.

The reader keeps its tokens as texts and works out a line and column only
for an error.  The reference reader below tokenizes first, each token
with its line and column, as the reader once did; `parse_term` and
`parse_program` must give its result or its error, on generated text and
on edited corpus sources.
"""

import re
import string
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from byrdbox.corpus import corpus, program_source
from byrdbox.engine import Machine, drive, init_state
from byrdbox.terms import (
    Clause,
    CyclicTerm,
    ParseError,
    Program,
    Struct,
    Var,
    VarNames,
    _KIND,
    _Parser,
    apply_subst,
    format_term,
    parse_program,
    parse_term,
    rename_clause,
    resolve,
    variables,
    walk,
)

# ----------------------------------------------------------------------
# Recursive reference implementations
# ----------------------------------------------------------------------


def ref_variables(t):
    if isinstance(t, Var):
        return {t}
    out = set()
    for a in t.args:
        out |= ref_variables(a)
    return out


def ref_rename_clause(clause, stamp):
    def ren(t):
        if isinstance(t, Var):
            return Var(t.name, stamp)
        return Struct(t.functor, tuple(ren(a) for a in t.args))

    return Clause(clause.id, ren(clause.head), tuple(ren(b) for b in clause.body))


def ref_resolve(subst, t):
    """The recursive resolve; a cycle overflows the recursion, and the
    variable it names is the first that a right-to-left search meets."""
    try:
        return _ref_resolve(subst, t)
    except RecursionError:
        var = _ref_cyclic_var(subst, t)
        if var is None:
            raise
    raise CyclicTerm(var)


def _ref_resolve(subst, t):
    t = walk(subst, t)
    if isinstance(t, Var):
        return t
    return Struct(t.functor, tuple(_ref_resolve(subst, a) for a in t.args))


def _ref_cyclic_var(subst, t):
    on_path, done = set(), set()
    stack = [(None, [t])]  # (variable being expanded, terms left in it)
    while stack:
        var, pending = stack[-1]
        if not pending:
            stack.pop()
            on_path.discard(var)
            done.add(var)
            continue
        x = pending.pop()
        if isinstance(x, Struct):
            pending.extend(x.args)
        elif x in on_path:
            return x
        elif x in subst and x not in done:
            on_path.add(x)
            stack.append((x, [subst[x]]))
    return None


def ref_apply_subst(subst, t):
    if isinstance(t, Var):
        return subst.get(t, t)
    return Struct(t.functor, tuple(ref_apply_subst(subst, a) for a in t.args))


_RAW_VAR_RE = re.compile(r"^_\d+$")


def ref_format_term(t, names):
    def fmt(t):
        if isinstance(t, Var):
            if t.stamp == 0 and _RAW_VAR_RE.match(t.name):
                return t.name
            return f"_{names.index(t)}"
        if not t.args:
            return t.functor
        return f"{t.functor}({','.join(fmt(a) for a in t.args)})"

    return fmt(t)


class RefParser(_Parser):
    """The package's reader going one whole token at a time: `peek` and
    `next` give a token with its line and column."""

    def peek(self):
        text = self.tokens[self.pos]
        return RefToken("ife" if text == ":-" else _KIND[text[:1]], text, *self._where(self.pos))

    def next(self):
        tok = self.peek()
        if tok.text:  # not eof
            self.pos += 1
        return tok

    def term(self):
        tok = self.next()
        if tok.kind == "var":
            if tok.text == "_":
                self.anon_count += 1
                return Var(f"_A{self.anon_count}")
            return Var(tok.text)
        if tok.kind != "atom":
            raise ParseError(f"expected a term, found {tok.text!r}", tok.line, tok.column)
        if self.peek().kind != "(":
            return Struct(tok.text)
        self.next()
        args = [self.term()]
        while self.peek().kind == ",":
            self.next()
            args.append(self.term())
        self.expect(")")
        return Struct(tok.text, tuple(args))


# ----------------------------------------------------------------------
# Agreement checks
# ----------------------------------------------------------------------


def source(t):
    """Source text of a term, variables by their own names."""
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.functor
    return f"{t.functor}({','.join(source(a) for a in t.args)})"


def check_parse(text):
    """Both parsers read the same term, or fail with the same message."""
    try:
        ref = RefParser(text)
        want = ref.term()
    except ParseError as exc:
        with pytest.raises(ParseError) as raised:
            _Parser(text).term()
        assert str(raised.value) == str(exc)
    else:
        new = _Parser(text)
        assert new.term() == want
        assert (new.pos, new.anon_count) == (ref.pos, ref.anon_count)


def check_walks(t, names, ref_names):
    assert variables(t) == ref_variables(t)
    assert format_term(t, names) == ref_format_term(t, ref_names)
    clause = Clause("c", Struct("p", (t,)), (t, Struct("q", (t, t))))
    assert rename_clause(clause, 7) == ref_rename_clause(clause, 7)
    subst = {v: Struct("f", (v, Struct("a"))) for v in sorted(variables(t), key=repr)[::2]}
    assert apply_subst(subst, t) == ref_apply_subst(subst, t)


def check_resolve(subst, t):
    try:
        want = ref_resolve(subst, t)
    except CyclicTerm as exc:
        with pytest.raises(CyclicTerm) as raised:
            resolve(subst, t)
        assert raised.value.var == exc.var
    else:
        assert resolve(subst, t) == want


def test_walkers_agree_on_every_corpus_clause(corpus_200):
    names, ref_names = VarNames(), VarNames()
    for program in corpus_200:
        for clause in program.clauses:
            assert rename_clause(clause, 3) == ref_rename_clause(clause, 3)
            for atom in (clause.head,) + clause.body:
                check_parse(source(atom))
                check_walks(atom, names, ref_names)


def test_rename_knows_a_variable_by_its_name():
    # one name under two stamps, as in a clause renamed and renamed again:
    # both occurrences become the one fresh variable of that name
    x, x4 = Var("X"), Var("X", 4)
    head = Struct("p", (x, x4, Struct("f", (x4, Var("Y")))))
    clause = Clause("c", head, (Struct("q", (x4,)), Struct("r", (x,))))
    renamed = rename_clause(clause, 7)
    assert renamed == ref_rename_clause(clause, 7)
    assert variables(renamed.head) == {Var("X", 7), Var("Y", 7)}


def test_walkers_agree_on_every_step_of_corpus_runs():
    names, ref_names = VarNames(), VarNames()
    steps = 0
    for program in corpus(60):
        m = Machine(init_state(program))
        for _ in drive(m, 300):
            pred = m.call_preds[m.current]
            check_resolve(m.bindings, pred)
            assert apply_subst(m.bindings, pred) == ref_apply_subst(m.bindings, pred)
            check_walks(resolve(m.bindings, pred), names, ref_names)
            steps += 1
    assert steps > 1000


_functors = st.sampled_from(["f", "g", "h", "a", "b"])
_var_names = ["X", "Y", "Z", "_", "_7"]
_vars = st.builds(Var, st.sampled_from(_var_names), st.sampled_from([0, 0, 1, 2]))


def _terms(leaves):
    return st.recursive(
        leaves,
        lambda sub: st.builds(
            Struct, _functors, st.lists(sub, min_size=0, max_size=3).map(tuple)
        ),
        max_leaves=25,
    )


_source_terms = _terms(st.sampled_from(_var_names).map(Var) | _functors.map(Struct))
_stamped_terms = _terms(_vars | _functors.map(Struct))


@settings(max_examples=200, deadline=None)
@given(_source_terms)
def test_parsers_agree_on_generated_terms(t):
    text = source(t)
    check_parse(text)
    check_parse(f"p({text},{text})")
    for cut in (len(text) // 2, len(text) - 1):
        check_parse(text[:cut] + ",)" + text[cut:])


@settings(max_examples=200, deadline=None)
@given(_stamped_terms)
def test_walks_agree_on_generated_terms(t):
    check_walks(t, VarNames(), VarNames())


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(st.builds(Var, st.sampled_from(["X", "Y", "Z"])), _stamped_terms, max_size=3),
    _stamped_terms,
)
def test_resolve_agrees_on_generated_stores(subst, t):
    # a variable bound to a variable chain must not come back to itself:
    # `walk` follows such chains without a check, in both versions
    for v in subst:
        seen = {v}
        x = subst[v]
        while isinstance(x, Var) and x in subst:
            if x in seen:
                return
            seen.add(x)
            x = subst[x]
    check_resolve(subst, t)


# ----------------------------------------------------------------------
# The reference reader: the whole text tokenized first, every token with
# its line and column, then read token by token
# ----------------------------------------------------------------------

_REF_TOKEN_RE = re.compile(
    r"\s+|%[^\n]*|:-|[a-z][A-Za-z0-9_]*|[A-Z_][A-Za-z0-9_]*|[().,:]|.", re.DOTALL
)
_REF_KIND = {
    **dict.fromkeys(string.ascii_lowercase, "atom"),
    **dict.fromkeys(string.ascii_uppercase + "_", "var"),
    **{c: c for c in "().,:"},
}


class RefToken(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


def ref_tokenize(source):
    tokens = []
    line, line_start, pos = 1, 0, 0  # line_start: where the current line begins
    for text in _REF_TOKEN_RE.findall(source):
        kind = _REF_KIND.get(text[0])
        if kind is None:  # white space, a comment, or a stray character
            if text.isspace():
                newlines = text.count("\n")
                if newlines:
                    line += newlines
                    line_start = pos + text.rfind("\n") + 1
            elif text[0] != "%":
                raise ParseError(f"unexpected character {text!r}", line, pos - line_start + 1)
        else:
            if text == ":-":
                kind = "ife"
            tokens.append(RefToken(kind, text, line, pos - line_start + 1))
        pos += len(text)
    tokens.append(RefToken("eof", "", line, pos - line_start + 1))
    return tokens


class RefReader:
    def __init__(self, source):
        self.tokens = ref_tokenize(source)
        self.pos = 0
        self.anon_count = 0

    def peek(self, ahead=0):
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self):
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text!r}", tok.line, tok.column)
        return tok

    def term(self):
        tokens, pos = self.tokens, self.pos
        open_terms = []  # (functor, arguments so far) of each open compound
        while True:
            tok = tokens[pos]
            pos += 1
            if tok.kind == "var":
                if tok.text == "_":
                    self.anon_count += 1
                    t = Var(f"_A{self.anon_count}")
                else:
                    t = Var(tok.text)
            elif tok.kind != "atom":
                raise ParseError(f"expected a term, found {tok.text!r}", tok.line, tok.column)
            elif tokens[pos].kind == "(":
                pos += 1
                open_terms.append((tok.text, []))
                continue
            else:
                t = Struct(tok.text)
            while open_terms:
                open_terms[-1][1].append(t)
                tok = tokens[pos]
                pos += 1
                if tok.kind == ",":
                    break
                if tok.kind != ")":
                    raise ParseError(f"expected ')', found {tok.text!r}", tok.line, tok.column)
                functor, args = open_terms.pop()
                t = Struct(functor, tuple(args))
            else:
                self.pos = pos
                return t

    def predication(self):
        tok = self.peek()
        t = self.term()
        if isinstance(t, Var):
            raise ParseError("a predication cannot be a variable", tok.line, tok.column)
        return t

    def clause_or_directive(self):
        tok = self.peek()
        if tok.kind == "ife":
            self.next()
            goal = self.predication()
            self.expect(".")
            return ("goal", goal, tok)
        label = None
        if tok.kind == "atom" and self.peek(1).kind == ":":
            label = tok.text
            self.next()
            self.next()
        head = self.predication()
        body = []
        if self.peek().kind == "ife":
            self.next()
            body.append(self.predication())
            while self.peek().kind == ",":
                self.next()
                body.append(self.predication())
        self.expect(".")
        return ("clause", (label, head, tuple(body)), tok)


def ref_parse_term(text):
    reader = RefReader(text)
    t = reader.term()
    tok = reader.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
    return t


def ref_parse_program(source):
    reader = RefReader(source)
    clauses = []
    goal = None
    while reader.peek().kind != "eof":
        kind, payload, tok = reader.clause_or_directive()
        if kind == "goal":
            if goal is not None:
                raise ParseError("duplicate goal directive", tok.line, tok.column)
            goal = payload
        else:
            clauses.append((payload, tok))
    if goal is None:
        raise ParseError("missing goal directive", reader.peek().line, 1)
    named = []
    seen = set()
    for i, ((label, head, body), tok) in enumerate(clauses, start=1):
        c = Clause(label if label else f"c{i}", head, body)
        if c.id in seen:
            raise ParseError(f"duplicate clause id {c.id!r}", tok.line, tok.column)
        seen.add(c.id)
        named.append(c)
    return Program(tuple(named), goal)


def check_read(read, ref_read, text):
    """`read` gives the reference's result, or its error at its place."""
    try:
        want = ref_read(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as raised:
            read(text)
        got = raised.value
        assert (got.message, got.line, got.column) == (exc.message, exc.line, exc.column)
    else:
        assert read(text) == want


# White space of several kinds (only "\n" ends a line), characters no
# token takes, and the pieces of terms and clauses.
_PIECES = [
    "a", "nat", "X", "Y1", "_", "_7", "7", "(", ")", ",", ".", ":", ":-", "%", "-",
    " ", "\n", "\t", "\r", "\x0b", "\x0c", "\x85", "\x1c", "\xa0", "\u2028", "\u3000",
    "é", "$",
]
_flat = st.lists(st.sampled_from(_PIECES), max_size=12).map("".join)
_reader_texts = st.recursive(
    _flat,
    lambda sub: st.builds(
        lambda functor, args, tail: f"{functor}({','.join(args)}{tail}",
        st.sampled_from(["f", "s", "X", "é", " g ", "h%c\n"]),
        st.lists(sub, max_size=3),
        st.sampled_from([")", "", "))", ") .", ")\n:- p."]),
    ),
    max_leaves=12,
)


@settings(max_examples=400, deadline=None)
@given(_reader_texts)
def test_the_reader_agrees_with_the_reference_on_generated_text(text):
    check_read(parse_term, ref_parse_term, text)
    check_read(parse_program, ref_parse_program, text)
    check_read(parse_program, ref_parse_program, f"p :- {text}.\n:- p.")


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 199),
    st.lists(
        st.tuples(st.integers(0, 10**6), st.integers(0, 3), st.sampled_from(_PIECES)),
        max_size=4,
    ),
)
def test_the_reader_agrees_with_the_reference_on_edited_sources(corpus_200, program, edits):
    source = program_source(corpus_200[program])
    for at, cut, piece in edits:
        i = at % (len(source) + 1)
        source = source[:i] + piece + source[i + cut:]
    check_read(parse_program, ref_parse_program, source)
