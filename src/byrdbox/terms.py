"""Pure-Prolog terms, clauses, programs, and substitutions.

The language is deliberately tiny: compound terms over lowercase atoms,
uppercase/underscore variables, facts `h.`, rules `h :- b1, ..., bn.`,
`%` line comments, and exactly one goal directive `:- g.`.  No operators,
no arithmetic, no lists, no cut.

No function here recurses: every term walk keeps its work on an explicit
stack, so any term that parses can be resolved, renamed and printed,
however deeply it nests.

One reader serves programs, goals and trace predications: one regex
pass yields the token texts, and a line and column are worked out only
for an error.  A stray character wins over every other error.

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


# One match per token: white space before it is skipped in the same
# match, and the group holds punctuation, an atom or a variable, `:-`, a
# `%` comment (dropped after the pass), or "" at the end (eof, once or
# twice).  A stray character takes the rest of the text with it, so only
# the token before the last can start with one.  A token's kind is read
# off its first character.
_TOKEN_RE = re.compile(r"\s*([().,]|[A-Za-z_][A-Za-z0-9_]*|:-?|%[^\n]*|.+|\Z)", re.DOTALL)
_KIND = {
    **dict.fromkeys(string.ascii_lowercase, "atom"),
    **dict.fromkeys(string.ascii_uppercase + "_", "var"),
    **{c: c for c in "().,:"},
    "": "eof",
}


_new = tuple.__new__  # builds a NamedTuple without its Python-level __new__


class _Parser:
    """Reads the token texts in place from `pos`, which never passes eof."""

    __slots__ = ("source", "tokens", "pos", "anon_count")

    def __init__(self, source: str):
        tokens = _TOKEN_RE.findall(source)
        if "%" in source:
            tokens = [text for text in tokens if text[:1] != "%"]
        self.source, self.tokens, self.pos, self.anon_count = source, tokens, 0, 0
        if len(tokens) > 1 and tokens[-2][:1] not in _KIND:  # before any parse error
            raise self.error(f"unexpected character {tokens[-2][0]!r}", len(tokens) - 2)

    def _where(self, i: int) -> tuple:
        """Line and column of token i: a line feed alone ends a line."""
        offset = [m.start(1) for m in _TOKEN_RE.finditer(self.source) if m[1][:1] != "%"][i]
        line_start = self.source.rfind("\n", 0, offset) + 1
        return self.source.count("\n", 0, offset) + 1, offset - line_start + 1

    def error(self, message: str, i: int) -> ParseError:
        return ParseError(message, *self._where(i))

    def skip(self, text: str) -> bool:
        """Whether the next token is `text`, read if it is."""
        if self.tokens[self.pos] != text:
            return False
        self.pos += 1
        return True

    def expect(self, text: str) -> None:
        if not self.skip(text):
            found = self.tokens[self.pos]
            raise self.error(f"expected {text!r}, found {found!r}", self.pos)

    def term(self) -> Term:
        # A token read is never eof unless it is an error, so the position
        # never passes the last token.
        tokens, pos = self.tokens, self.pos
        open_terms = []  # (functor, arguments so far) of each open compound
        while True:
            text = tokens[pos]
            kind = _KIND[text[:1]]
            pos += 1
            if kind == "var":
                if text == "_":
                    # every anonymous variable is distinct
                    self.anon_count += 1
                    text = f"_A{self.anon_count}"
                t = _new(Var, (text, 0))
            elif kind != "atom":
                raise self.error(f"expected a term, found {text!r}", pos - 1)
            elif tokens[pos] == "(":
                pos += 1
                open_terms.append((text, []))
                continue
            else:
                t = _new(Struct, (text, ()))
            # t is complete: it is an argument of the innermost open term,
            # which a ")" closes or a "," keeps open for its next argument
            while open_terms:
                open_terms[-1][1].append(t)
                text = tokens[pos]
                pos += 1
                if text == ",":
                    break
                if text != ")":
                    raise self.error(f"expected ')', found {text!r}", pos - 1)
                functor, args = open_terms.pop()
                t = _new(Struct, (functor, tuple(args)))
            else:
                self.pos = pos
                return t

    def predication(self) -> Struct:
        start = self.pos
        t = self.term()
        if t.__class__ is Var:
            raise self.error("a predication cannot be a variable", start)
        return t


def parse_term(text: str, predication: bool = False) -> Term:
    """Parse a single term, e.g. for a goal given on the command line.  A
    `predication` is a term that is not a variable."""
    parser = _Parser(text)
    t = parser.predication() if predication else parser.term()
    if parser.tokens[parser.pos]:
        raise parser.error(f"trailing input {parser.tokens[parser.pos]!r}", parser.pos)
    return t


def parse_program(source: str) -> Program:
    """Parse a program: clauses in source order plus one `:- goal.` directive.

    Clause ids are taken from `c1:`-style labels when present, positional
    (c1..cn) otherwise.
    """
    parser = _Parser(source)
    tokens = parser.tokens
    clauses = []
    goal = None
    while tokens[parser.pos]:
        start = parser.pos  # the clause's first token: its label, or its head
        if parser.skip(":-"):
            atom = parser.predication()
            parser.expect(".")
            if goal is not None:
                raise parser.error("duplicate goal directive", start)
            goal = atom
            continue
        label = None
        if tokens[start + 1] == ":" and _KIND[tokens[start][:1]] == "atom":
            label = tokens[start]
            parser.pos += 2
        head = parser.predication()
        body = []
        if parser.skip(":-"):
            body.append(parser.predication())
            while parser.skip(","):
                body.append(parser.predication())
        parser.expect(".")
        clauses.append((label, head, tuple(body), start))
    if goal is None:
        raise ParseError("missing goal directive", parser._where(parser.pos)[0], 1)
    named = []
    seen = set()
    for i, (label, head, body, start) in enumerate(clauses, start=1):
        c = Clause(label if label else f"c{i}", head, body)
        if c.id in seen:
            raise parser.error(f"duplicate clause id {c.id!r}", start)
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


def _bind(s: dict, a: Term, b: Term) -> bool:
    """Unify `a` and `b` in the binding store `s`, in place: add the
    bindings of their most general unifier under `s`, in the order they
    are made, and return True; or return False with `s` as it was, its
    own bindings taken back (a dict keeps insertion order, so each
    `popitem` takes back the newest).  The binder of `unify` and of both
    engines' visits; see `unify` for how it binds."""
    start = len(s)
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
            for _ in range(len(s) - start):
                s.popitem()
            return False
    return True


def unify(a: Term, b: Term, subst: Optional[dict] = None, resolved: bool = True):
    """Most general unifier of `a` and `b`, or BOTTOM.

    No occur check, as in standard Prolog.  By default the result is fully
    resolved, hence idempotent: applying it twice equals applying it once.
    With resolved=False the result is the triangular store the engines
    keep (walked on demand): `subst` extended by `_bind`, which the
    engines call on their own store.  `subst` is never mutated: the
    result is a new dict.  Bindings may be cyclic (no occur check): a
    compound pair reached again through them is skipped, as it is already
    being unified; a loop of variable-to-variable bindings raises
    CyclicTerm (see `walk`).  Two compound terms are never compared whole
    (tuple comparison recurses in C): they descend, and only an identical
    pair or two equal variables is skipped."""
    s = dict(subst) if subst else {}
    if not _bind(s, a, b):
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
