"""Pure-Prolog terms, clauses, programs, and substitutions.

The language is deliberately tiny: compound terms over lowercase atoms,
uppercase/underscore variables, facts `h.`, rules `h :- b1, ..., bn.`,
`%` line comments, and exactly one goal directive `:- g.`.  No operators,
no arithmetic, no lists, no cut.

No function here recurses: every term walk keeps its work on an explicit
stack, so any term that parses can be resolved, renamed and printed,
however deeply it nests.

Terms are tuples (NamedTuples), so building and comparing them runs in
C.  No byrdbox code relies on two consequences: a `Var` equals the plain
tuple `(name, stamp)`, and terms order.  A `Var` never equals a `Struct`.
A `Struct` hashes its functor and arity alone, in O(1): tuple hashing
recurses in C with no depth guard, so a deep term (or a clause or program
holding one) would crash the interpreter when hashed.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from functools import cached_property
from operator import is_
from typing import NamedTuple, Optional, Union

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


class Var(NamedTuple):
    """A logic variable.  `stamp` distinguishes renamed copies; source-level
    variables carry stamp 0."""

    name: str
    stamp: int = 0

    def __repr__(self):
        return f"Var({self.name!r})" if self.stamp == 0 else f"Var({self.name!r}#{self.stamp})"


class Struct(NamedTuple):
    """A compound term; arity 0 means a constant."""

    functor: str
    args: tuple = ()

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def indicator(self) -> tuple:
        return (self.functor, len(self.args))

    def __hash__(self):  # equal terms agree on both; the arguments stay unread
        return hash((self.functor, len(self.args)))

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

    _template = cached_property(lambda c: _compile(c))  # see rename_clause

    def __repr__(self):
        return f"Clause({self.id})"


@dataclass(frozen=True)
class Program:
    clauses: tuple
    goal: Struct

    @cached_property
    def _definitions(self) -> dict:
        """(functor, arity) -> the clauses of that predicate, in source
        order, indexed once per program."""
        index = {}
        for c in self.clauses:
            index.setdefault((c.head.functor, c.head.arity), []).append(c)
        return {key: tuple(clauses) for key, clauses in index.items()}

    def clauses_for(self, functor: str, arity: int) -> tuple:
        """Clause list of one predicate's definition, in source order."""
        return self._definitions.get((functor, arity), ())


# ======================================================================
# Parsing
# ======================================================================

class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


# One alternative per token, in one pass: white space, a `%` comment,
# `:-`, an atom, a variable, punctuation, and any other character, which
# is an error.  A token's kind is read off its first character.
_TOKEN_RE = re.compile(
    r"\s+|%[^\n]*|:-|[a-z][A-Za-z0-9_]*|[A-Z_][A-Za-z0-9_]*|[().,:]|.", re.DOTALL
)
_KIND = {
    **dict.fromkeys(string.ascii_lowercase, "atom"),
    **dict.fromkeys(string.ascii_uppercase + "_", "var"),
    **{c: c for c in "().,:"},
}


class _Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


_new = tuple.__new__  # builds a NamedTuple without its Python-level __new__


def _tokenize(source: str) -> list:
    tokens = []
    line, line_start, pos = 1, 0, 0  # line_start: where the current line begins
    for text in _TOKEN_RE.findall(source):
        kind = _KIND.get(text[0])
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
            tokens.append(_new(_Token, (kind, text, line, pos - line_start + 1)))
        pos += len(text)
    tokens.append(_new(_Token, ("eof", "", line, pos - line_start + 1)))
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

    def term(self) -> Term:
        # Reads the tokens in place: a token read is never "eof" unless
        # it is an error, so the position never passes the last token.
        tokens, pos = self.tokens, self.pos
        open_terms = []  # (functor, arguments so far) of each open compound
        while True:
            tok = tokens[pos]
            pos += 1
            if tok.kind == "var":
                if tok.text == "_":
                    # every anonymous variable is distinct
                    self.anon_count += 1
                    t = _new(Var, (f"_A{self.anon_count}", 0))
                else:
                    t = _new(Var, (tok.text, 0))
            elif tok.kind != "atom":
                raise ParseError(f"expected a term, found {tok.text!r}", tok.line, tok.column)
            elif tokens[pos].kind == "(":
                pos += 1
                open_terms.append((tok.text, []))
                continue
            else:
                t = _new(Struct, (tok.text, ()))
            # t is complete: it is an argument of the innermost open term,
            # which a ")" closes or a "," keeps open for its next argument
            while open_terms:
                open_terms[-1][1].append(t)
                tok = tokens[pos]
                pos += 1
                if tok.kind == ",":
                    break
                if tok.kind != ")":
                    raise ParseError(f"expected ')', found {tok.text!r}", tok.line, tok.column)
                functor, args = open_terms.pop()
                t = _new(Struct, (functor, tuple(args)))
            else:
                self.pos = pos
                return t

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
    t = parser.term()
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
        kind, payload, tok = parser.clause_or_directive()
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

def _fold(t: Term, leaf, node, subst: Optional[dict] = None):
    """Post-order walk of `t` on an explicit stack: `leaf(v)` for each
    variable, `node(s, results)` for each compound term `s`, with its
    arguments' results in argument order.  Subterms are visited right to
    left, and CyclicTerm names the first cyclic variable met in that order.

    With `subst`, a bound variable is replaced by its binding, walked in
    turn; meeting a variable again inside its own binding raises
    CyclicTerm."""
    on_path = set()  # bound variables whose binding is being walked
    # (compound or bound variable, its parts left to walk, their results)
    frames = [(None, iter((t,)), [])]
    while True:
        owner, pending, results = frames[-1]
        for x in pending:
            if x.__class__ is Var:
                if subst is None or x not in subst:
                    results.append(leaf(x))
                    continue
                if x in on_path:
                    raise CyclicTerm(x)
                on_path.add(x)
                frames.append((x, iter((subst[x],)), []))
                break
            if x.args:
                frames.append((x, reversed(x.args), []))
                break
            results.append(node(x, ()))
        else:  # every part is walked: `owner` is done
            frames.pop()
            if owner is None:
                return results[0]
            if owner.__class__ is Var:  # its binding's result stands for it
                on_path.discard(owner)
                result = results[0]
            else:
                results.reverse()
                result = node(owner, tuple(results))
            frames[-1][2].append(result)


def _rebuild(s: Struct, args: tuple) -> Struct:
    """`s` with `args`; `s` itself when no argument changed."""
    if all(map(is_, args, s.args)):
        return s
    return _new(Struct, (s.functor, args))


def variables(t: Term) -> set:
    """The set of variables occurring in a term."""
    out = set()
    _fold(t, out.add, lambda s, args: None)
    return out


def _compile(clause: Clause) -> tuple:
    """The template that `rename_clause` runs: the clause's variable names,
    and flat post-order code that builds a renamed copy of its head, then
    of each body atom.  An op is an int, a fresh variable (its name's
    index); a Struct, a ground subterm reused as it is; or a plain
    `(functor, arity)` pair, a compound term built from the last `arity`
    results."""
    names, code = {}, []
    todo = [*reversed(clause.body), clause.head]
    while todo:
        t = todo.pop()
        if t.__class__ is Var:
            code.append(names.setdefault(t.name, len(names)))
        elif t.__class__ is not Struct:  # (start, s): the code of s's arguments ends here
            start, s = t
            n = len(s.args)
            if len(code) - start == n and all(op.__class__ is Struct for op in code[start:]):
                code[start:] = [s]  # each argument is one ground subterm: so is s
            else:
                code.append((s.functor, n))
        elif t.args:
            todo.append((len(code), t))
            todo.extend(reversed(t.args))
        else:
            code.append(t)
    return tuple(names), tuple(code)


def rename_clause(clause: Clause, stamp: int) -> Clause:
    """Fresh copy of a clause, from its template (compiled on the first
    renaming): each variable name re-stamped with `stamp`, ground subterms
    shared."""
    names, code = clause._template
    fresh = [_new(Var, (name, stamp)) for name in names]
    stack = []  # the atoms built so far, and the parts of the one being built
    for op in code:
        if op.__class__ is int:
            stack.append(fresh[op])
        elif op.__class__ is Struct:
            stack.append(op)
        else:
            functor, n = op
            stack[-n:] = [_new(Struct, (functor, tuple(stack[-n:])))]
    renamed = object.__new__(Clause)  # not the frozen __init__'s object.__setattr__
    fields = renamed.__dict__
    fields["id"], fields["head"], fields["body"] = clause.id, stack[0], tuple(stack[1:])
    return renamed


def walk(subst: dict, t: Term) -> Term:
    """Chase variable bindings at the root of `t`.  A chain longer than
    the store has bindings comes back to a variable: CyclicTerm names one
    on that cycle (a self-binding included)."""
    steps = 0
    while t.__class__ is Var and t in subst:
        t = subst[t]
        steps += 1
        if steps > len(subst):
            raise CyclicTerm(t)
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
    variable; of several, it names the first that a right-to-left walk
    of `t` meets."""
    return _fold(t, lambda v: v, _rebuild, subst)


def unify(a: Term, b: Term, subst: Optional[dict] = None, resolved: bool = True):
    """Most general unifier of `a` and `b`, or BOTTOM.

    No occur check, as in standard Prolog.  By default the result is fully
    resolved, hence idempotent: applying it twice equals applying it once.
    The engines pass resolved=False to keep the binding store triangular
    (walked on demand), which avoids rebuilding it on every unification.
    `subst` is never mutated: the result is a new dict, and nothing else
    updates a binding dict in place, so the engines share them uncopied.
    Bindings may be cyclic (no occur check): a compound pair reached again
    through them is skipped, as it is already being unified; a loop of
    variable-to-variable bindings raises CyclicTerm (see `walk`).  Two
    compound terms are never compared whole (tuple comparison recurses in
    C): they descend, and only an identical pair or two equal variables is
    skipped."""
    s = dict(subst) if subst else {}
    stack = [(a, b)]
    seen = None  # (id, id) of compound pairs reached through a binding
    while stack:
        x0, y0 = stack.pop()
        x, y = walk(s, x0), walk(s, y0)
        if x is y:
            continue
        if x.__class__ is Var:
            if y.__class__ is not Var:
                s[x] = y
            elif x != y:
                # Alias the younger variable to the older one so that a chain
                # of head unifications keeps a single display representative.
                if (x.stamp, x.name) <= (y.stamp, y.name):
                    s[y] = x
                else:
                    s[x] = y
        elif y.__class__ is Var:
            s[y] = x
        elif x.functor == y.functor and len(x.args) == len(y.args):
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
    return _fold(t, lambda v: subst.get(v, v), _rebuild)


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
        return self._indices.setdefault(v, len(self._indices) + 1)


def format_term(t: Term, names: Optional[VarNames] = None) -> str:
    """Canonical text: functor, parenthesized comma-separated args, no spaces.

    Variables that already look like `_86` (parsed back from a trace) print
    verbatim so that parse/format round-trips; all other unbound variables
    print as `_k` per the `names` registry.
    """
    if names is None:
        names = VarNames()
    # Pre-order on a stack of terms and punctuation, so that each character
    # is written once; text built bottom-up would be copied at every level.
    parts, todo = [], [t]
    while todo:
        x = todo.pop()
        if x.__class__ is str:
            parts.append(x)
        elif x.__class__ is Var:
            raw = x.stamp == 0 and _RAW_VAR_RE.match(x.name)
            parts.append(x.name if raw else f"_{names.index(x)}")
        elif x.args:
            parts.append(f"{x.functor}(")
            todo.append(")")
            for a in reversed(x.args):
                todo += (a, ",")
            todo.pop()  # no comma before the first argument
        else:
            parts.append(x.functor)
    return "".join(parts)
