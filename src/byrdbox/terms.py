"""Pure-Prolog terms, clauses, programs, and substitutions.

The language is deliberately tiny: compound terms over lowercase atoms,
uppercase/underscore variables, facts `h.`, rules `h :- b1, ..., bn.`,
`%` line comments, and exactly one goal directive `:- g.`.  No operators,
no arithmetic, no lists, no cut.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

__all__ = [
    "Var",
    "Struct",
    "Term",
    "Clause",
    "Program",
    "ParseError",
    "CyclicTerm",
    "BOTTOM",
    "parse_program",
    "parse_term",
    "rename_clause",
    "unify",
    "compose",
    "apply_subst",
    "walk",
    "resolve",
    "variables",
    "VarNames",
    "format_term",
]


@dataclass(frozen=True)
class Var:
    """A logic variable.  `stamp` distinguishes renamed copies; source-level
    variables carry stamp 0."""

    name: str
    stamp: int = 0

    def __repr__(self):
        return f"Var({self.name!r})" if self.stamp == 0 else f"Var({self.name!r}#{self.stamp})"


@dataclass(frozen=True)
class Struct:
    """A compound term; arity 0 means a constant."""

    functor: str
    args: tuple = ()

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def indicator(self) -> tuple:
        return (self.functor, len(self.args))

    def __repr__(self):
        return f"Struct({format_term(self)})"


Term = Union[Var, Struct]

# The failure substitution.  It absorbs composition and cannot be applied.
BOTTOM = None


@dataclass(frozen=True)
class Clause:
    """A program clause.  An empty body makes it a fact."""

    id: str
    head: Struct
    body: tuple = ()

    @property
    def is_fact(self) -> bool:
        return not self.body

    @cached_property
    def trial(self) -> "Clause":
        """The throwaway renaming that tests the head before the clause is
        chosen; its stamp -1 never collides with the real ones (>= 1)."""
        return rename_clause(self, -1)

    def __repr__(self):
        return f"Clause({self.id})"


@dataclass(frozen=True)
class Program:
    clauses: tuple
    goal: Struct

    def clauses_for(self, functor: str, arity: int) -> tuple:
        """Clause list of one predicate's definition, in source order."""
        return tuple(
            c for c in self.clauses if c.head.functor == functor and c.head.arity == arity
        )


# ======================================================================
# Parsing
# ======================================================================

class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>%[^\n]*)
    | (?P<ife>:-)
    | (?P<atom>[a-z][A-Za-z0-9_]*)
    | (?P<var>[A-Z_][A-Za-z0-9_]*)
    | (?P<punct>[().,:])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(source: str) -> list:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", line, col)
        kind = m.lastgroup
        text = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind if kind != "punct" else text, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.anon_count = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text!r}", tok.line, tok.column)
        return tok

    def run(self, method):
        """Call a parsing method; a term nested too deeply for Python's
        recursion is a ParseError at the token the recursion stopped at."""
        try:
            return method()
        except RecursionError:
            tok = self.peek()
            raise ParseError("term nested too deeply", tok.line, tok.column) from None

    def term(self) -> Term:
        tok = self.next()
        if tok.kind == "var":
            if tok.text == "_":
                # every anonymous variable is distinct
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

    def predication(self) -> Struct:
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


def parse_term(text: str) -> Term:
    """Parse a single term, e.g. for a goal given on the command line."""
    parser = _Parser(text)
    t = parser.run(parser.term)
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
    return t


def parse_program(source: str) -> Program:
    """Parse a program: clauses in source order plus one `:- goal.` directive.

    Clause ids are taken from `c1:`-style labels when present, positional
    (c1..cn) otherwise.
    """
    parser = _Parser(source)
    clauses = []
    goal = None
    while parser.peek().kind != "eof":
        kind, payload, tok = parser.run(parser.clause_or_directive)
        if kind == "goal":
            if goal is not None:
                raise ParseError("duplicate goal directive", tok.line, tok.column)
            goal = payload
        else:
            clauses.append((payload, tok))
    if goal is None:
        line = parser.peek().line
        raise ParseError("missing goal directive", line, 1)
    named = []
    seen = set()
    for i, ((label, head, body), tok) in enumerate(clauses, start=1):
        c = Clause(label if label else f"c{i}", head, body)
        if c.id in seen:
            # tok starts the clause: its label, or its head when unlabeled
            raise ParseError(f"duplicate clause id {c.id!r}", tok.line, tok.column)
        seen.add(c.id)
        named.append(c)
    return Program(tuple(named), goal)


# ======================================================================
# Substitutions and unification
# ======================================================================

def variables(t: Term) -> set:
    """The set of variables occurring in a term."""
    if isinstance(t, Var):
        return {t}
    out = set()
    for a in t.args:
        out |= variables(a)
    return out


def rename_clause(clause: Clause, stamp: int) -> Clause:
    """Fresh copy of a clause: every variable re-stamped with `stamp`."""

    def ren(t: Term) -> Term:
        if isinstance(t, Var):
            return Var(t.name, stamp)
        return Struct(t.functor, tuple(ren(a) for a in t.args))

    return Clause(clause.id, ren(clause.head), tuple(ren(b) for b in clause.body))


def walk(subst: dict, t: Term) -> Term:
    """Chase variable bindings at the root of `t`."""
    while isinstance(t, Var) and t in subst:
        t = subst[t]
    return t


class CyclicTerm(Exception):
    """A binding contains its own variable (unification has no occur
    check), so the term it stands for is infinite."""

    def __init__(self, var: Var):
        super().__init__(f"cyclic term: variable {var.name} is bound to a term containing it")
        self.var = var


def resolve(subst: dict, t: Term) -> Term:
    """Apply `subst` all the way down.

    Raises CyclicTerm when a binding met on the way contains its own
    variable.  The check runs only once the recursion has failed, so
    acyclic terms pay nothing for it; an acyclic term too deep for the
    recursion still raises RecursionError."""
    try:
        return _resolve(subst, t)
    except RecursionError:
        var = _cyclic_var(subst, t)
        if var is None:
            raise
    raise CyclicTerm(var)


def _resolve(subst: dict, t: Term) -> Term:
    t = walk(subst, t)
    if isinstance(t, Var):
        return t
    return Struct(t.functor, tuple(_resolve(subst, a) for a in t.args))


def _cyclic_var(subst: dict, t: Term) -> Optional[Var]:
    """A variable that `t`'s resolution binds to a term containing it, or
    None.  Iterative: it runs where the recursion has just failed."""
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


def unify(a: Term, b: Term, subst: Optional[dict] = None, resolved: bool = True):
    """Most general unifier of `a` and `b`, or BOTTOM.

    No occur check, as in standard Prolog.  By default the result is fully
    resolved, hence idempotent: applying it twice equals applying it once.
    The engines pass resolved=False to keep the binding store triangular
    (walked on demand), which avoids rebuilding it on every unification.
    `subst` is never mutated: the result is a new dict, and nothing else
    updates a binding dict in place, so the engines share them uncopied.
    Bindings may be cyclic (no occur check): a compound pair reached again
    through them is skipped, as it is already being unified.
    """
    s = dict(subst) if subst else {}
    stack = [(a, b)]
    seen = None  # (id, id) of compound pairs reached through a binding
    while stack:
        x0, y0 = stack.pop()
        x, y = walk(s, x0), walk(s, y0)
        if x == y:
            continue
        if isinstance(x, Var) and isinstance(y, Var):
            # Alias the younger variable to the older one so that a chain
            # of head unifications keeps a single display representative.
            if (x.stamp, x.name) <= (y.stamp, y.name):
                s[y] = x
            else:
                s[x] = y
        elif isinstance(x, Var):
            s[x] = y
        elif isinstance(y, Var):
            s[y] = x
        elif x.functor == y.functor and x.arity == y.arity:
            if x is not x0 or y is not y0:
                key = (id(x), id(y))
                if seen is None:
                    seen = set()
                elif key in seen:
                    continue
                seen.add(key)
            stack.extend(zip(x.args, y.args))
        else:
            return BOTTOM
    if not resolved:
        return s
    return {v: resolve(s, t) for v, t in s.items()}


def compose(first, second):
    """Substitution composition: apply `first`, then `second`.

    BOTTOM absorbs: composing with the failure substitution on either
    side yields BOTTOM.
    """
    if first is BOTTOM or second is BOTTOM:
        return BOTTOM
    out = {v: resolve(second, t) for v, t in first.items()}
    for v, t in second.items():
        if v not in out:
            out[v] = t
    return {v: t for v, t in out.items() if t != v}


def apply_subst(subst, t: Term) -> Term:
    """Simultaneous replacement of bound variables in `t`.

    `subst` must not be BOTTOM; applying the failure substitution is a
    contract violation.
    """
    if subst is BOTTOM:
        raise ValueError("cannot apply the failure substitution")
    if isinstance(t, Var):
        return subst.get(t, t)
    return Struct(t.functor, tuple(apply_subst(subst, a) for a in t.args))


# ======================================================================
# Printing
# ======================================================================

_RAW_VAR_RE = re.compile(r"^_\d+$")


class VarNames:
    """Assigns `_k` display indices to unbound variables in first-occurrence
    order.  One instance is shared across a whole trace so that the same
    variable prints identically in every event."""

    def __init__(self):
        self._indices = {}

    def index(self, v: Var) -> int:
        if v not in self._indices:
            self._indices[v] = len(self._indices) + 1
        return self._indices[v]


def format_term(t: Term, names: Optional[VarNames] = None) -> str:
    """Canonical text: functor, parenthesized comma-separated args, no spaces.

    Variables that already look like `_86` (parsed back from a trace) print
    verbatim so that parse/format round-trips; all other unbound variables
    print as `_k` per the `names` registry.
    """
    if names is None:
        names = VarNames()

    def fmt(t: Term) -> str:
        if isinstance(t, Var):
            if t.stamp == 0 and _RAW_VAR_RE.match(t.name):
                return t.name
            return f"_{names.index(t)}"
        if not t.args:
            return t.functor
        return f"{t.functor}({','.join(fmt(a) for a in t.args)})"

    return fmt(t)
