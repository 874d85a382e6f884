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

from .rebuild import initial_restricted, matching_conds, reconstruct_step
from .terms import Program
from .tracing import Port, run_actual_trace

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
    # (step, field name, expected, got) for the first rebuilt/actual mismatch
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


def _restricted_fields(q):
    """The four rebuilt parameters of a restricted or a machine state."""
    return (
        ("T", q.tree),
        ("u", q.current),
        ("num", q.numbers),
        ("pred", q.preds),
    )


def check_adequacy(program: Program, max_steps: int) -> AdequacyReport:
    """Run machine, extraction and rebuilding side by side.

    For each transition t: the rule identified from (w_t, w_{t+1}) must be
    the rule that fired, exactly one identification condition may match,
    and the rebuilt state must equal the machine state restricted to
    {T, u, num, pred}.  On a fuel-exhausted run the last transition has no
    successor event and is not checked.
    """
    trace = run_actual_trace(program, max_steps)
    run = trace.run
    report = AdequacyReport(halted=trace.halted)
    events = trace.events

    report.port_violations = check_port_sequence([e.port for e in events])

    q = initial_restricted(run.initial.preds[()])
    for t, (rule, state_after) in enumerate(run.transitions):
        e = events[t]
        e_next = events[t + 1] if t + 1 < len(events) else None
        if e_next is None and not trace.halted:
            break
        conds = matching_conds(e, e_next)
        if conds != {rule}:
            report.cond_violations.append((t + 1, conds))
            break
        q = reconstruct_step(rule, e, e_next, q)
        # Nodes are canonical (see dewey), so comparing the machine's own
        # tree and maps takes one identity check per node.
        expected = dict(_restricted_fields(state_after))
        for name, got_value in _restricted_fields(q):
            if got_value != expected[name]:
                report.first_divergence = (t + 1, name, expected[name], got_value)
                break
        if report.first_divergence:
            break
        report.steps_checked = t + 1
    return report


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
