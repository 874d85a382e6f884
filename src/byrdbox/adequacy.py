"""Machine-checking that traces carry what they promise.

Three checks, run together or separately:

  * adequacy: replay a program, rebuild the restricted states from the
    emitted events alone, and demand equality with the machine's own
    states at every step, field by field;
  * identification exclusivity: every adjacent event pair must satisfy
    exactly one rule condition, and that rule must be the one that
    actually fired;
  * port algebra: some port adjacencies can never occur.  Three of them
    are hard guarantees of the rule system (no Fail->Call, no Call->Redo,
    no Redo->Redo); the full allowed table is not written down anywhere
    trustworthy, so it is derived once by observation over a corpus and
    deviations from it are reported as warnings, not violations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .engine import Machine, drive, init_state
from .rebuild import Rebuilder, initial_restricted, matching_conds
from .terms import Program
from .tracing import Port, extract_event, run_actual_trace

__all__ = [
    "HARD_FORBIDDEN",
    "AdequacyReport",
    "check_adequacy",
    "check_cond_exclusivity",
    "check_port_sequence",
    "derive_port_table",
    "port_warnings",
]

HARD_FORBIDDEN = frozenset(
    {(Port.FAIL, Port.CALL), (Port.CALL, Port.REDO), (Port.REDO, Port.REDO)}
)


@dataclass
class AdequacyReport:
    steps_checked: int = 0
    halted: bool = False
    # (step, field name, expected, got) for the first rebuilt/actual
    # mismatch; expected and got hold only the difference: for T the nodes
    # one side lacks, for num and pred the entries that one side lacks or
    # holds otherwise, for u both nodes
    first_divergence: Optional[tuple] = None
    # (step, set of matching rules) whenever that set has size != 1,
    # plus identification/fired mismatches
    cond_violations: list = field(default_factory=list)
    # (position, (port, port)) for hard-forbidden adjacencies
    port_violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (
            self.first_divergence is None
            and not self.cond_violations
            and not self.port_violations
        )

    def machine_line(self, name: str) -> str:
        status = "PASS" if self.passed else "FAIL"
        detail = "-" if self.halted else "fuel-exhausted"
        if self.first_divergence is not None:
            step, fieldname, _, _ = self.first_divergence
            detail = f"divergence:step{step}:{fieldname}"
        elif self.cond_violations:
            detail = f"cond:step{self.cond_violations[0][0]}"
        elif self.port_violations:
            detail = f"port:at{self.port_violations[0][0]}"
        return f"{status} {name} {self.steps_checked} {detail}"


def check_adequacy(program: Program, max_steps: int) -> AdequacyReport:
    """Run machine, extraction and rebuilding side by side.

    For each transition t: the rule identified from (w_t, w_{t+1}) must be
    the rule that fired, exactly one identification condition may match,
    and the rebuilt state must equal the machine state restricted to
    {T, u, num, pred}.  On a fuel-exhausted run the last transition has no
    successor event and is not checked.

    The run streams on one live machine and one live rebuilder and keeps
    no states: w_{t+1} is extracted from state t before the machine fires
    transition t+1, and transition t is rebuilt and checked against the
    machine right then.  After the first check that fails, the run goes on
    unchecked, for `halted` and the port checks, which cover every event.
    """
    machine = Machine(init_state(program))
    report = AdequacyReport()
    ports = []
    rebuilder = Rebuilder(initial_restricted(machine.preds[0]))
    last = None  # (rule, event) of the transition awaiting its check
    for chrono, rule in enumerate(drive(machine, max_steps), start=1):
        e = extract_event(rule, machine, chrono)
        ports.append(e.port)
        if rebuilder is not None and last is not None:
            rebuilder = _check_transition(report, *last, e, rebuilder, machine)
        last = (rule, e)
    report.halted = machine.halted
    if rebuilder is not None and last is not None and machine.halted:
        _check_transition(report, *last, None, rebuilder, machine)
    report.port_violations = check_port_sequence(ports)
    return report


def _check_transition(report, rule, e, e_next, rebuilder, machine):
    """Check the transition that fired `rule` and emitted `e`: step the
    rebuilder and compare it with the machine's state after it; the
    rebuilder, or None on a failure.  Both are node stacks in Dewey order
    (see rebuild), so the current positions and the node, numbering and
    predication lists are compared as they stand, one identity check per
    entry on a passing run (see engine).  Only when they differ are the
    word-keyed maps of both sides built, to decide by value and to report
    the difference."""
    conds = matching_conds(e, e_next)
    if conds != {rule}:
        report.cond_violations.append((e.chrono, conds))
        return None
    rebuilder.step(rule, e, e_next)
    nodes = machine.nodes
    if (
        rebuilder.current != machine.current
        or rebuilder.nodes != nodes
        or rebuilder.numbers != machine.numbers
        or rebuilder.preds != machine.preds
    ):
        q = rebuilder.snapshot()  # a copy: the rebuilder changes with the next step
        for name, want, got in (
            ("T", frozenset(nodes), q.tree),
            ("u", nodes[machine.current], q.current),
            ("num", dict(zip(nodes, machine.numbers)), q.numbers),
            ("pred", dict(zip(nodes, machine.preds)), q.preds),
        ):
            if got != want:
                report.first_divergence = (e.chrono, name, *_difference(name, want, got))
                return None
    report.steps_checked = e.chrono
    return rebuilder


def _difference(name, want, got) -> tuple:
    """The part of each of two differing fields that the other lacks."""
    if name == "u":
        return want, got
    if name == "T":
        return frozenset(want - got), frozenset(got - want)
    lacks = lambda a, b: {v: x for v, x in a.items() if v not in b or b[v] != x}
    return lacks(want, got), lacks(got, want)


def check_cond_exclusivity(events) -> list:
    """For every adjacent pair, the set of rule conditions that match;
    returns the pairs where that set does not have exactly one element."""
    violations = []
    for i in range(len(events) - 1):
        conds = matching_conds(events[i], events[i + 1])
        if len(conds) != 1:
            violations.append((i, conds))
    return violations


def check_port_sequence(ports) -> list:
    """Positions of hard-forbidden port adjacencies."""
    return [
        (i, (ports[i], ports[i + 1]))
        for i in range(len(ports) - 1)
        if (ports[i], ports[i + 1]) in HARD_FORBIDDEN
    ]


def derive_port_table(programs, max_steps: int = 500) -> frozenset:
    """Observe every port adjacency a corpus of programs produces.

    This is the one-time oracle for the full allowed-adjacency table; the
    hard forbidden pairs must never show up in it."""
    seen = set()
    for program in programs:
        events = run_actual_trace(program, max_steps).events
        ports = [e.port for e in events]
        seen.update(zip(ports, ports[1:]))
    return frozenset(seen)


def port_warnings(ports, table: frozenset) -> list:
    """Adjacencies not in the derived table; warnings, not violations."""
    return [
        (i, (ports[i], ports[i + 1]))
        for i in range(len(ports) - 1)
        if (ports[i], ports[i + 1]) not in table
    ]
