import dataclasses
import re

import pytest
from hypothesis import given, settings, strategies as st

from byrdbox import (
    ModelId,
    ParseError,
    Port,
    TraceEvent,
    VarNames,
    extract_event,
    format_event,
    format_trace,
    parse_event,
    parse_program,
    parse_term,
    parse_trace,
    run_actual_trace,
    run_model,
    run_virtual,
)
from byrdbox.corpus import corpus
from byrdbox.engine import Machine, RuleId, drive, init_state
from byrdbox.terms import Var

from conftest import load_golden, normalize_trace, read_line_by_line


def test_example1_trace_matches_reference(ex1_program):
    result = run_actual_trace(ex1_program, 100)
    assert result.halted
    mine = normalize_trace(format_trace(result.events))
    assert mine == load_golden("golden_ex1.txt")


def test_example2_trace_matches_first_model_reference(ex2_program):
    result = run_actual_trace(ex2_program, 200)
    assert result.halted and len(result.events) == 28
    mine = normalize_trace(format_trace(result.events))
    assert mine == load_golden("golden_ex2_m1.txt")


def test_extract_event_examples(ex1_program):
    run = run_virtual(ex1_program, 100)
    e1 = extract_event(RuleId.CALL2, run.states[0], 1)
    assert (e1.chrono, e1.r, e1.l, e1.port) == (1, 1, 1, Port.CALL)
    assert e1.pred == parse_term("goal")

    e5 = extract_event(RuleId.FAIL2, run.states[4], 5)
    assert (e5.chrono, e5.r, e5.l, e5.port) == (5, 3, 2, Port.FAIL)
    assert e5.pred == parse_term("eq(a,b)")

    e6 = extract_event(RuleId.REDO1, run.states[5], 6)
    assert (e6.chrono, e6.r, e6.l, e6.port) == (6, 2, 2, Port.REDO)
    assert e6.pred == parse_term("p(a)")


def test_one_event_per_transition(ex1_program, ex2_program):
    for program in (ex1_program, ex2_program):
        result = run_actual_trace(program, 200)
        assert len(result.events) == len(result.run.transitions)
        assert [e.chrono for e in result.events] == list(
            range(1, len(result.events) + 1)
        )


def test_exit_events_share_the_predication_the_machine_stores(ex1_program, ex2_program):
    # An Exit is resolved once: its event and the exited node's new
    # predication are one object, so the adequacy check compares them by
    # identity.
    def assert_shared(m, exited):
        if exited is not None:
            p, e = exited
            assert m.preds[p] is e.pred

    exits = 0
    for program in [ex1_program, ex2_program] + list(corpus(10)):
        m = Machine(init_state(program))
        exited = None
        for chrono, rule in enumerate(drive(m, 300), start=1):
            assert_shared(m, exited)
            e = extract_event(rule, m, chrono)
            exited = (m.current, e) if e.port is Port.EXIT else None
            exits += exited is not None
        assert_shared(m, exited)
    assert exits > 100


def test_two_event_trace_for_single_fact():
    p = parse_program("p(a). :- p(a).")
    result = run_actual_trace(p, 10)
    assert [(e.port, str(e.pred.functor)) for e in result.events] == [
        (Port.CALL, "p"),
        (Port.EXIT, "p"),
    ]


def test_r_equals_current_node_number_outside_redo(ex2_program):
    result = run_actual_trace(ex2_program, 200)
    run = result.run
    before = run.initial
    for e, (rule, after) in zip(result.events, run.transitions):
        if e.port is not Port.REDO:
            assert e.r == before.numbers[before.current]
        before = after


def test_l_is_depth_of_the_traced_node(ex2_program):
    result = run_actual_trace(ex2_program, 200)
    before = result.run.initial
    for e, (rule, after) in zip(result.events, result.run.transitions):
        node = next(v for v, n in before.numbers.items() if n == e.r)
        assert e.l == len(node) + 1
        before = after


def test_port_algebra_on_reference_traces(ex1_program, ex2_program):
    forbidden = {(Port.FAIL, Port.CALL), (Port.CALL, Port.REDO), (Port.REDO, Port.REDO)}
    for program in (ex1_program, ex2_program):
        ports = [e.port for e in run_actual_trace(program, 200).events]
        assert not [p for p in zip(ports, ports[1:]) if p in forbidden]


def test_fuel_exhaustion_is_reported(loop_program):
    result = run_actual_trace(loop_program, 50)
    assert not result.halted
    assert len(result.events) == 50


def test_format_event_canonical():
    e = TraceEvent(10, 1, 1, Port.EXIT, parse_term("goal"))
    assert format_event(e) == "10 1 1 Exit goal"


def test_event_round_trip(ex1_program):
    result = run_actual_trace(ex1_program, 100)
    names = VarNames()
    for e in result.events:
        line = format_event(e, names)
        back = parse_event(line)
        assert format_event(back) == line


def test_parse_event_rejects_unknown_port():
    with pytest.raises(ParseError, match="unknown port"):
        parse_event("1 1 1 Jump goal")


def test_parse_event_rejects_malformed():
    with pytest.raises(ParseError):
        parse_event("1 1 Call goal")
    with pytest.raises(ParseError):
        parse_event("1 1 one Call goal")
    with pytest.raises(ParseError):
        parse_event("1 1 1 Call p(")


@pytest.mark.parametrize(
    "line, field, column",
    [
        ("1_0 1 1 Call goal", "1_0", 1),
        ("+2 1 1 Call goal", "+2", 1),
        ("\u0663 1 1 Call goal", "\u0663", 1),  # an Arabic-Indic three
        ("1 -1 1 Call goal", "-1", 3),
        pytest.param(
            "1 " + "9" * 5000 + " 1 Call goal", "9" * 5000, 3, id="past int()'s digit limit"
        ),
    ],
)
def test_numeric_fields_are_ascii_decimal_digits(line, field, column):
    # int() reads the first four; the trace format's numbers are plain
    # digits, and no more of them than int() converts
    for read in (parse_event, parse_trace):
        with pytest.raises(ParseError) as err:
            read(line)
        assert err.value.message == f"bad numeric field {field!r}"
        assert (err.value.line, err.value.column) == (1, column)


def test_parse_trace_skips_comments_and_blanks():
    text = "# header\n\n1 1 1 Call goal\n  # indented comment\n2 2 2 Call p(_1)\n"
    events = parse_trace(text)
    assert [e.chrono for e in events] == [1, 2]


@pytest.mark.parametrize(
    "text, line, column, message",
    [
        ("1 1 1 Call goal\n\n  3 x 1 Exit goal\n", 3, 5, "bad numeric field 'x'"),
        ("1 1 1 Call goal\n# note\n3 1 1 Jump goal\n", 3, 7, "unknown port"),
        ("1 1 1 Call goal\n2 2 2 Call p(a,\n", 2, 16, "expected a term"),
        ("1 1 1 Call goal\n2 2 Call p\n", 2, 1, "expected 5 fields"),
    ],
)
def test_parse_trace_reports_the_bad_line_and_column(text, line, column, message):
    with pytest.raises(ParseError, match=message) as err:
        parse_trace(text)
    assert (err.value.line, err.value.column) == (line, column)


@pytest.fixture(scope="module")
def corpus_trace_lines():
    """The lines of each trace of corpus(60) at fuel 500."""
    return [format_trace(run_actual_trace(p, 500).events).splitlines() for p in corpus(60)]


def _with_fields(edit):
    """A line mutation that edits the five single-space fields of an
    emitted line, and leaves a line an earlier mutation reshaped as it is."""

    def mutate(line, k, lines):
        fields = line.split(" ")
        if len(fields) != 5:
            return line
        edit(fields, k, lines)
        return " ".join(fields)

    return mutate


def _repeat(fields, k, lines):
    fields[4] = lines[k % len(lines)].split()[-1]


def _anonymous(fields, k, lines):
    pred = re.sub(r"_\d+", "_", fields[4], count=k % 3)
    fields[4] = pred.replace("(", "(_,", 1) if "(" in pred else pred + "(_)"


def _percent(fields, k, lines):
    pred = fields[4]  # "p(a)%c" reads as p(a); "p(a,%)" ends inside the term
    fields[4] = [pred + "%c", pred + "%", pred[:-1] + ",%)", "%" + pred][k % 4]


def _number(fields, k, lines):
    fields[k % 3] = ["x", "1.5", "+2", "1_0", "", "\u0663", "-0", "0x1"][k % 8]


def _port(fields, k, lines):
    fields[3] = ["Jump", "call", "CALL", "Call:", "Redo1", ""][k % 6]


# Line mutations: (line, k, the trace's lines) -> the new text, which may
# hold a line break.
_MUTATIONS = {
    "repeat": _with_fields(_repeat),
    "comment": lambda line, k, lines: ["# c", "", "  #c", "\t", "#"][k % 5] + "\n" + line,
    "separator": lambda line, k, lines: ["\t", " \t ", "\x0b", "\x0c"][k % 4].join(line.split(" ")),
    "anonymous": _with_fields(_anonymous),
    "percent": _with_fields(_percent),
    "number": _with_fields(_number),
    "port": _with_fields(_port),
}


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 59),
    st.lists(
        st.tuples(st.integers(0, 10**6), st.sampled_from(sorted(_MUTATIONS)), st.integers(0, 10**6)),
        max_size=6,
    ),
)
def test_parse_trace_reads_as_parse_event_line_by_line(corpus_trace_lines, program, edits):
    lines = list(corpus_trace_lines[program])
    for at, kind, k in edits:
        i = at % len(lines)
        lines[i] = _MUTATIONS[kind](lines[i], k, lines)
    text = "\n".join(lines)
    try:
        want = read_line_by_line(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as raised:
            parse_trace(text)
        got = raised.value
        assert (got.message, got.line, got.column) == (exc.message, exc.line, exc.column)
    else:
        assert parse_trace(text) == want


def test_parse_trace_shares_the_term_of_a_repeated_predication():
    first, again, other = parse_trace("1 1 1 Call p(_,a)\n2 2 2 Call p(_,a)\n3 3 3 Call p(_,b)")
    assert first.pred is again.pred and first.pred == parse_term("p(_,a)")
    assert other.pred == parse_term("p(_,b)")


def test_debug_dump_renders_every_node(ex1_program):
    from byrdbox.tracing import debug_dump

    state = run_virtual(ex1_program, 100).states[3]
    dump = debug_dump(state)
    assert "eps" in dump and "ct=False" in dump
    assert dump.count("num=") == len(state.tree)  # one row per node


# ----------------------------------------------------------------------
# A variable is no predication, in a trace as in a program
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, line, column",
    [
        ("1 1 1 Call X", 1, 12),
        ("1 1 1 Call goal\n2 1 1 Exit X", 2, 12),
        ("1 1 1 Call goal\n\n  2  1 1 Exit _", 3, 15),
        ("1 1 1 Call p(X)\n2 1 1 Exit _7\n3 1 1 Exit p(X)", 2, 12),
    ],
)
def test_a_variable_predication_is_a_parse_error(text, line, column):
    for read in (parse_trace, lambda t: [parse_event(l, n) for n, l in enumerate(t.splitlines(), 1) if l]):
        with pytest.raises(ParseError) as raised:
            read(text)
        got = raised.value
        assert (got.message, got.line, got.column) == ("a predication cannot be a variable", line, column)


def test_a_variable_still_reads_as_a_term():
    assert parse_term("X") == Var("X")
    assert parse_term(" _7 ") == Var("_7")
    with pytest.raises(ParseError) as raised:
        parse_term("\n  X", predication=True)
    assert (raised.value.line, raised.value.column) == (2, 3)
    # a text that is no term at all keeps its own error
    with pytest.raises(ParseError, match="trailing input"):
        parse_term("X(a)", predication=True)


# ----------------------------------------------------------------------
# TraceEvent behaves as the dataclass it is, however it was built
# ----------------------------------------------------------------------

_FIELDS = [f.name for f in dataclasses.fields(TraceEvent)]
# the same class with the __init__ that @dataclass generates
DataclassEvent = dataclasses.make_dataclass("TraceEvent", _FIELDS, frozen=True)


def check_dataclass_behaviour(e):
    ref = DataclassEvent(*(getattr(e, name) for name in _FIELDS))
    assert repr(e) == repr(ref)
    assert hash(e) == hash(ref)
    same = TraceEvent(**{name: getattr(e, name) for name in _FIELDS})
    assert e == same and hash(e) == hash(same)
    moved = dataclasses.replace(e, l=0)
    assert type(moved) is TraceEvent
    assert repr(moved) == repr(dataclasses.replace(ref, l=0))
    assert (moved == e) is (e.l == 0)
    assert moved.chrono == e.chrono and moved.pred is e.pred
    for name in _FIELDS:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(e, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(e, name)
    assert e == same


def test_trace_events_behave_as_dataclass_built_ones(ex2_program, data_dir):
    events = list(parse_trace((data_dir / "golden_ex1.txt").read_text(encoding="utf-8")))
    events += run_actual_trace(ex2_program, 100).events  # extract_event
    for model in (ModelId.M2, ModelId.M3):
        events += run_model(ex2_program, model, 100).events  # multimodel._fire
    for program in corpus(5):
        events += run_actual_trace(program, 50).events
    assert len(events) > 100
    for e in events:
        check_dataclass_behaviour(e)
