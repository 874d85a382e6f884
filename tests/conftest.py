from __future__ import annotations

import re
from dataclasses import fields
from pathlib import Path

import pytest

from byrdbox import parse_event, parse_program
from byrdbox.engine import child

DATA = Path(__file__).parent / "data"

# A forged trace: its second Exit2 at node 1 asks for node 1's brother 2,
# which the first one made already.
FORGED_BROTHER = (
    "1 1 1 Call goal\n2 2 2 Call p\n3 3 3 Exit q\n4 2 2 Exit p\n5 4 2 Fail s\n"
    "6 2 2 Call p\n7 5 3 Exit t\n8 2 2 Exit p\n9 6 2 Call u\n"
)

# Forged traces that give two live nodes one number, so that the rebuilder
# keeps creation stamps (`born`), with what their rebuilt states must show
# at some steps: the (current node, tree) of each.
SHARED_NUMBER_TRACES = {
    # Call2 from the root numbers both 1 and 2 with 5; a Redo of 5 resumes 1.
    "resume-first": (
        "1 1 0 Call goal\n2 5 0 Call p\n3 5 0 Exit p\n4 1 0 Call goal\n"
        "5 5 0 Call q\n6 5 0 Redo p\n7 5 0 Exit p",
        {6: ((1,), frozenset({(), (1,)}))},
    ),
    # 2 and then 11 carry 5; a Redo to 12 prunes 2, and 11 carries 5 alone.
    "prune-first": (
        "1 1 0 Call goal\n2 2 0 Call p\n3 2 0 Exit p\n4 1 0 Call goal\n"
        "5 5 0 Call q\n6 5 0 Fail q\n7 2 0 Call p\n8 5 0 Exit s\n"
        "9 6 0 Call t\n10 6 0 Redo t\n11 6 0 Exit t",
        {10: ((1, 2), frozenset({(), (1,), (1, 1), (1, 2)}))},
    ),
}

# Variables inside a predication token: either machine-style (_86) or
# source-style (X); both normalize to position-of-first-occurrence names.
_VAR_TOKEN = re.compile(r"\b(_[A-Za-z0-9]*|[A-Z][A-Za-z0-9_]*)\b")


def normalize_trace(text: str) -> list:
    """Token-normalize a trace listing for golden comparison.

    Strips listing decorations (a trailing `yes`, GNU's `?` column and the
    colon after the port), renumbers chronos sequentially (two reference
    listings carry a duplicated chrono), and renames variables by first
    occurrence across the whole trace.
    """
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line == "yes" or line.startswith("#"):
            continue
        toks = line.split()
        if toks[-1] == "?":
            toks = toks[:-1]
        toks[3] = toks[3].rstrip(":")
        rows.append(toks)
    mapping = {}

    def rename(match):
        name = match.group()
        return mapping.setdefault(name, f"_v{len(mapping) + 1}")

    out = []
    for i, toks in enumerate(rows, start=1):
        pred = _VAR_TOKEN.sub(rename, toks[4])
        out.append(" ".join([str(i)] + toks[1:4] + [pred]))
    return out


def read_line_by_line(text: str) -> list:
    """The trace reader's oracle: `parse_event` on each line of `text`
    that is neither blank nor a `#` comment, so the first bad line
    raises its ParseError."""
    events = []
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            events.append(parse_event(line, number))
    return events


def load_golden(name: str) -> list:
    return normalize_trace((DATA / name).read_text(encoding="utf-8"))


def stored_nodes(state):
    """Every node a machine or rebuilt state stores: its current node,
    the words of its nodes, the nodes of its set fields, and the keys of
    its per-node maps (the bookkeeping's included).  A node is a plain
    tuple: the variables that key a binding store are tuples too, but of
    a subclass, and are not nodes."""
    yield state.current
    yield from state.nodes
    for f in fields(state):
        value = getattr(state, f.name)
        if isinstance(value, dict):
            yield from (k for k in value if type(k) is tuple)
        elif isinstance(value, frozenset):
            yield from value


def assert_canonical(nodes):
    """Every node is the one canonical tuple of its Dewey word."""
    for v in nodes:
        assert v == () or child(v[:-1], v[-1]) is v, v


def assert_nodes_canonical(state):
    assert_canonical(stored_nodes(state))


@pytest.fixture(scope="session")
def data_dir():
    return DATA


@pytest.fixture(scope="session")
def ex1_program():
    return parse_program((DATA / "example1.pl").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def ex2_program():
    return parse_program((DATA / "example2.pl").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def loop_program():
    return parse_program((DATA / "loop.pl").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def corpus_200():
    from byrdbox.corpus import corpus

    return corpus(200)


# ----------------------------------------------------------------------
# Acceptance reporting: one PASS/FAIL line per criterion in the summary.
# ----------------------------------------------------------------------

ACCEPTANCE_RESULTS = {}


def record_criterion(number: int, description: str, status: str):
    ACCEPTANCE_RESULTS[number] = (status, description)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        status, description = ACCEPTANCE_RESULTS[number]
        terminalreporter.write_line(f"criterion {number}: {status} - {description}")
