"""Extraction of the emitted trace: one event per machine transition.

An event has three attributes besides its chrono and port:

    t  r  l  port  p

where r is the creation number of the node the event concerns, l its
depth (number of nodes on the root path), and p the predication.  Which
node and which predication depend on the rule that fired:

    Call1/Call2  -> current node, predication as called
    Exit1/Exit2  -> current node, predication after the successful proof
    Fail2        -> current node, predication as it was called
    Redo1/Redo2  -> the choice point being resumed, its last proved value

The text form is one event per line.  `parse_trace` reads a whole trace:
it parses each distinct predication text once per call, through a memo
that lives only for that call, so events that repeat a predication share
its term (terms are frozen).  `parse_event` reads one line, and words
every error.  A numeric field is ASCII decimal digits and nothing else,
and a predication is a term that is not a variable.

A `TraceEvent` has slots, filled by a hand-written `__init__` through
the slots' own setters; equality, hashing, `repr` and
`dataclasses.replace` are the dataclass's own.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from functools import cached_property

from .engine import (
    Machine,
    RuleId,
    RunResult,
    VirtualState,
    _Tag,
    drive,
    greatest_choice_point,
    init_state,
    lpath,
    node_str,
    run_virtual,
    updated_pred,
)
from .terms import ParseError, Program, Term, VarNames, format_term, parse_term

__all__ = [
    "Port",
    "TraceEvent",
    "TraceResult",
    "PORT_OF_RULE",
    "extract_event",
    "run_actual_trace",
    "format_event",
    "parse_event",
    "format_trace",
    "parse_trace",
    "debug_dump",
]


class Port(_Tag):
    CALL = "Call"
    EXIT = "Exit"
    FAIL = "Fail"
    REDO = "Redo"


_PORTS = {port.value: port for port in Port}

PORT_OF_RULE = {
    RuleId.CALL1: Port.CALL,
    RuleId.CALL2: Port.CALL,
    RuleId.EXIT1: Port.EXIT,
    RuleId.EXIT2: Port.EXIT,
    RuleId.FAIL2: Port.FAIL,
    RuleId.REDO1: Port.REDO,
    RuleId.REDO2: Port.REDO,
}


@dataclass(frozen=True, slots=True, init=False)
class TraceEvent:
    chrono: int
    r: int
    l: int
    port: Port
    pred: Term

    def __init__(self, chrono: int, r: int, l: int, port: Port, pred: Term):
        # each field is set by its slot's own setter: the generated
        # __init__ looks up object.__setattr__ again for every field
        _set_chrono(self, chrono)
        _set_r(self, r)
        _set_l(self, l)
        _set_port(self, port)
        _set_pred(self, pred)


_set_chrono, _set_r, _set_l, _set_port, _set_pred = (
    TraceEvent.__dict__[f.name].__set__ for f in fields(TraceEvent)
)


@dataclass(frozen=True)
class TraceResult:
    """A traced run: its events, and whether it halted.  The run keeps no
    states; `run` replays it (deterministically) on first access, as a
    `RunResult` that keeps its rules and its first and last states."""

    events: tuple
    halted: bool
    program: Program = field(compare=False, repr=False)
    max_steps: int = field(compare=False, repr=False)

    @cached_property
    def run(self) -> RunResult:
        return run_virtual(self.program, self.max_steps)


def extract_event(rule: RuleId, s_before, chrono: int) -> TraceEvent:
    """The event extracted from firing `rule` out of `s_before`, the live
    machine (or a state) before the rule fires."""
    m = s_before if isinstance(s_before, Machine) else Machine(s_before)
    u = m.current
    if rule in (RuleId.CALL1, RuleId.CALL2):
        node, pred = u, m.preds[u]
    elif rule in (RuleId.EXIT1, RuleId.EXIT2):
        node, pred = u, updated_pred(m, u)
    elif rule is RuleId.FAIL2:
        # A failing box reports the goal as it was called, not any value a
        # since-undone success may have written into the state.
        node, pred = u, m.call_preds[u]
    else:
        node = greatest_choice_point(m, u)
        pred = m.preds[node]
    return TraceEvent(chrono, m.numbers[node], lpath(m, node), PORT_OF_RULE[rule], pred)


def run_actual_trace(program: Program, max_steps: int) -> TraceResult:
    """Run the machine and extract one event per transition, from the live
    machine before the transition fires; chronos count from 1."""
    machine = Machine(init_state(program))
    events = tuple(
        extract_event(rule, machine, chrono)
        for chrono, rule in enumerate(drive(machine, max_steps), start=1)
    )
    return TraceResult(events, machine.halted, program, max_steps)


# ----------------------------------------------------------------------
# Text form: one event per line, single spaces, `#` comments ignored.
# ----------------------------------------------------------------------

def format_event(e: TraceEvent, names: VarNames = None) -> str:
    return f"{e.chrono} {e.r} {e.l} {e.port.value} {format_term(e.pred, names)}"


def format_trace(events, names: VarNames = None) -> str:
    names = names if names is not None else VarNames()
    return "\n".join(format_event(e, names) for e in events)


def _is_int(text: str) -> bool:
    """Whether a numeric field reads as a number: ASCII decimal digits
    only (no sign, `_` or other scripts' digits), within `int`'s limit
    on the digits it converts."""
    if not (text.isascii() and text.isdigit()):
        return False
    try:
        int(text)
    except ValueError:
        return False
    return True


def _field_error(message, line, line_number, field, offset=0):
    """A ParseError at the `field`-th (from 0) whitespace-separated field of
    `line`, `offset` columns into it."""
    column = [m.start() for m in re.finditer(r"\S+", line)][field] + 1
    return ParseError(message, line_number, column + offset)


def parse_event(line: str, line_number: int = 1) -> TraceEvent:
    """One event from one line of a trace; errors are reported at
    `line_number` and the column of the offending field."""
    parts = line.split()
    if len(parts) != 5:
        raise ParseError(f"expected 5 fields, found {len(parts)}", line_number, 1)
    for field in range(3):
        if not _is_int(parts[field]):
            raise _field_error(
                f"bad numeric field {parts[field]!r}", line, line_number, field
            )
    chrono, r, l = int(parts[0]), int(parts[1]), int(parts[2])
    try:
        port = Port(parts[3])
    except ValueError:
        raise _field_error(
            f"unknown port {parts[3]!r}", line, line_number, 3
        ) from None
    try:
        pred = parse_term(parts[4], predication=True)
    except ParseError as exc:
        raise _field_error(
            exc.message, line, line_number, 4, exc.column - 1
        ) from None
    return TraceEvent(chrono, r, l, port, pred)


def parse_trace(text: str) -> list:
    """The events of a trace text, one per line; blank lines and `#`
    comment lines are skipped.  A line that does not read cleanly goes to
    `parse_event`, which words the error."""
    events = []
    preds = {}  # predication text -> its term, for this call only
    for number, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts or parts[0][0] == "#":
            continue
        try:
            chrono, r, l, port, pred = parts
            # on an ASCII line isdigit() is 0-9 alone; other lines read slowly
            if not (chrono.isdigit() and r.isdigit() and l.isdigit() and line.isascii()):
                raise ValueError(line)
            chrono, r, l, port = int(chrono), int(r), int(l), _PORTS[port]
            term = preds.get(pred)
            if term is None:
                term = preds[pred] = parse_term(pred, predication=True)
        except (ValueError, KeyError, ParseError):
            events.append(parse_event(line, number))
        else:
            events.append(TraceEvent(chrono, r, l, port, term))
    return events


def debug_dump(state: VirtualState, names: VarNames = None) -> str:
    """Full-state dump for debugging, one node per line in Dewey order;
    not a stable format."""
    names = names if names is not None else VarNames()
    rows = [
        "  {}{} num={} pred={} box=[{}] fresh={}".format(
            node_str(v), " *" if v == state.current else "", number,
            format_term(pred, names), ",".join(c.id for c in box), fresh,
        )
        for v, number, pred, box, fresh in zip(state.nodes, *state.observed)
    ]
    rows.append(f"  ct={state.complete} flr={state.failing}")
    return "\n".join(rows)
