"""Span recorder for the traced run.

A span is recorded around every call of the functions in TARGETS: its
name, start, end, parent span and operation id, plus one small tag that
some targets compute from their arguments or result (the rule fired,
whether a unification succeeded).  The recorder installs itself by
rebinding every attribute of every loaded `byrdbox.*` module that refers
to a target function, because modules hold their own references
(`tracing` imports `run_virtual`, `cli` imports `format_event`).  A
function whose body calls itself by its global name (`terms.resolve`,
from inside a generator expression) is not rebound in its own module, so
a recursion is one span, not one per level; its calls from elsewhere in
its module count in their caller's self time.  Spans stay in memory
until the run ends; self times are computed from them afterwards.
"""

from __future__ import annotations

import sys
from array import array
from types import CodeType
from time import perf_counter

MODELS = ("m1", "m2", "m3")
RULES = ("Call1", "Call2", "Exit1", "Exit2", "Fail2", "Redo1", "Redo2")


# A tag maker is called once, with the target's module, when the recorder
# is installed; it returns the tag function, called as tag(args, result).

def _unify_tag(terms):
    bottom = terms.BOTTOM

    def tag(args, result):
        return 0 if result is bottom else 1

    return tag


def _core_fire_tag(_engine):
    def tag(args, result):
        return RULES.index(args[1].value)

    return tag


def _model_fire_tag(_multimodel):
    def tag(args, result):
        # two bits per model: index * 2, plus 1 when the transition is silent
        return MODELS.index(args[1].value) * 2 + (result[1] is None)

    return tag


def _names_global(code: CodeType, name: str) -> bool:
    """Whether `code`, or a code object nested in it (a generator
    expression, a comprehension, an inner function), reads the global
    `name`."""
    return name in code.co_names or any(
        _names_global(c, name) for c in code.co_consts if isinstance(c, CodeType)
    )


# (module, attribute, span name, tag maker or None).  An attribute may
# name a method as `Class.method`.
TARGETS = (
    ("terms", "parse_program", "terms.parse_program", None),
    ("terms", "parse_term", "terms.parse_term", None),
    ("terms", "unify", "terms.unify", _unify_tag),
    ("terms", "rename_clause", "terms.rename_clause", None),
    ("terms", "resolve", "terms.resolve", None),
    ("terms", "format_term", "terms.format_term", None),
    ("engine", "init_state", "engine.init", None),
    ("engine", "run_virtual", "engine.run", None),
    ("engine", "_select", "engine.select", None),
    ("engine", "_fire", "engine.fire", _core_fire_tag),
    ("engine", "is_leaf", "engine.tree_query", None),
    ("engine", "has_choice_point", "engine.tree_query", None),
    ("engine", "greatest_choice_point", "engine.tree_query", None),
    ("engine", "_peek_visit", "engine.clause_select", None),
    ("tracing", "run_actual_trace", "tracing.run", None),
    ("tracing", "extract_event", "tracing.extract", None),
    ("tracing", "format_trace", "tracing.format", None),
    ("tracing", "format_event", "tracing.format", None),
    ("tracing", "parse_trace", "tracing.parse", None),
    ("tracing", "parse_event", "tracing.parse", None),
    ("rebuild", "reconstruct_trace", "rebuild.run", None),
    ("rebuild", "reconstruct_step", "rebuild.step", None),
    ("rebuild", "identify_rule", "rebuild.identify", None),
    ("rebuild", "matching_conds", "rebuild.identify", None),
    ("rebuild", "restrict", "rebuild.restrict", None),
    ("rebuild", "RestrictedState.node_of", "rebuild.node_of", None),
    ("rebuild", "_next_child", "rebuild.next_child", None),
    ("adequacy", "check_adequacy", "adequacy.check", None),
    ("multimodel", "compare_models", "multimodel.compare", None),
    ("multimodel", "run_model", "multimodel.run", None),
    ("multimodel", "_gates", "multimodel.gates", None),
    ("multimodel", "_fire", "multimodel.fire", _model_fire_tag),
    ("multimodel", "_is_leaf", "multimodel.tree_query", None),
    ("multimodel", "_hcp", "multimodel.tree_query", None),
    ("multimodel", "_gcp", "multimodel.tree_query", None),
    ("multimodel", "_children", "multimodel.tree_query", None),
)


class SpanLog:
    """Spans in parallel arrays: name id, start, end, parent index (-1 at
    the top), operation id and tag."""

    def __init__(self):
        self.names = []  # name id -> span name
        self._ids = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("I")
        self.tag = array("b")
        self._stack = [-1]
        self.current_op = 0  # 0 outside operations: nothing is recorded

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self):
        return len(self.start)

    def span(self, name: str, fn, tag=None):
        """A wrapper of `fn` that records one span per call."""
        nid = self.name_id(name)
        stack = self._stack
        log = self

        def wrapper(*args, **kwargs):
            if not log.current_op:
                return fn(*args, **kwargs)
            i = len(log.start)
            log.name.append(nid)
            log.parent.append(stack[-1])
            log.op.append(log.current_op)
            log.tag.append(0)
            log.end.append(0.0)
            stack.append(i)
            log.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                log.end[i] = perf_counter()
                stack.pop()
            if tag is not None:
                log.tag[i] = tag(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def self_times(self) -> array:
        """Per span: its duration minus the durations of its children.
        Spans nest strictly (one thread), so children never overlap."""
        own = array("d", (e - s for s, e in zip(self.start, self.end)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def write(self, path):
        """One line per span: index, parent, op, name, start, end, tag."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\tparent\top\tname\tstart\tend\ttag\n")
            for i in range(len(self)):
                out.write(
                    f"{i}\t{self.parent[i]}\t{self.op[i]}\t"
                    f"{self.names[self.name[i]]}\t{self.start[i]!r}\t"
                    f"{self.end[i]!r}\t{self.tag[i]}\n"
                )


class Recorder:
    """Installs span wrappers for TARGETS into the loaded byrdbox modules
    and removes them again."""

    def __init__(self, log: SpanLog):
        self.log = log
        self._undo = []  # (owner, attribute, original value)

    def install(self):
        loaded = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == "byrdbox" or name.startswith("byrdbox."))
        ]
        for module_name, attr, span_name, tag_maker in TARGETS:
            home = sys.modules[f"byrdbox.{module_name}"]
            tag = tag_maker(home) if tag_maker is not None else None
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                fn = cls.__dict__[meth]
                self._rebind(cls, meth, self.log.span(span_name, fn, tag))
                continue
            fn = getattr(home, attr)
            wrapper = self.log.span(span_name, fn, tag)
            recursive = _names_global(fn.__code__, fn.__name__)
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is not fn:
                        continue
                    if recursive and module is home and key == fn.__name__:
                        continue
                    self._rebind(module, key, wrapper)

    def _rebind(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
