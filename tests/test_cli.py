import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from byrdbox import ParseError
from byrdbox.cli import main

from conftest import FORGED_BROTHER, read_line_by_line


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_trace_example1(capsys, data_dir):
    code, out = run_cli(capsys, "trace", "--program", str(data_dir / "example1.pl"))
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 10
    assert lines[0] == "1 1 1 Call goal"
    assert lines[-1] == "10 1 1 Exit goal"


def test_trace_model_m3(capsys, data_dir):
    code, out = run_cli(
        capsys, "trace", "--program", str(data_dir / "example2.pl"), "--model", "m3"
    )
    assert code == 0
    assert len([l for l in out.splitlines() if l.strip()]) == 44


def test_trace_fuel_exhaustion_exit_code(capsys, data_dir):
    code, out = run_cli(
        capsys,
        "trace", "--program", str(data_dir / "loop.pl"), "--max-steps", "5",
    )
    assert code == 2
    assert len([l for l in out.splitlines() if l.strip()]) == 5


def test_trace_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.pl"
    bad.write_text("q :- .\n:- q.\n", encoding="utf-8")
    code, _ = run_cli(capsys, "trace", "--program", str(bad))
    assert code == 1


@pytest.mark.parametrize("value", ["0", "-3", "many"])
def test_max_steps_must_be_a_positive_int(capsys, data_dir, value):
    with pytest.raises(SystemExit) as exit_:
        main(["trace", "--program", str(data_dir / "example1.pl"), "--max-steps", value])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "argument --max-steps" in err.splitlines()[-1]
    assert "Traceback" not in err


EMPTY_PATHS = {
    "verify --corpus": ["verify", "--corpus", ""],
    "verify --program": ["verify", "--program", ""],
    "trace --program": ["trace", "--program", ""],
    "compare --program": ["compare", "--program", ""],
    "reconstruct --trace": ["reconstruct", "--trace", "", "--goal", "goal"],
    "trace --output": ["trace", "--program", "tests/data/example1.pl", "--output", ""],
}


@pytest.mark.parametrize("argv", EMPTY_PATHS.values(), ids=EMPTY_PATHS)
def test_an_empty_path_is_a_usage_error(capsys, argv):
    # An empty path used to glob or read the current directory, or, for
    # --output, to print to stdout.
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: byrdbox {argv[0]}")
    flag = argv[argv.index("") - 1]
    assert f"argument {flag}" in captured.err.splitlines()[-1]
    assert "Traceback" not in captured.err


def test_trace_output_file(tmp_path, capsys, data_dir):
    out_path = tmp_path / "trace.txt"
    code, _ = run_cli(
        capsys,
        "trace", "--program", str(data_dir / "example1.pl"),
        "--output", str(out_path),
    )
    assert code == 0
    assert len(out_path.read_text(encoding="utf-8").splitlines()) == 10


def test_reconstruct_example1(tmp_path, capsys, data_dir):
    trace_path = tmp_path / "ex1.trace"
    run_cli(
        capsys,
        "trace", "--program", str(data_dir / "example1.pl"),
        "--output", str(trace_path),
    )
    code, out = run_cli(
        capsys, "reconstruct", "--trace", str(trace_path), "--goal", "goal"
    )
    assert code == 0
    # ten rebuilt states after the initial one, all known
    assert sum(1 for l in out.splitlines() if l.startswith("q")) == 11
    assert "unknown" not in out
    final = out.split("q10\n")[1]
    assert [row.split()[0] for row in final.splitlines() if row.strip()] == [
        "eps", "1", "2",
    ]


# (trace, flags, recorded stdout).  Example 1's trace ends with the root's
# Exit, so --final-peek changes nothing; the recording of example 2 reads
# the m1 listing without its last line, the top level's `yes`.
RECORDED_REBUILDS = {
    "ex1": ("golden_ex1.txt", [], "reconstruct_ex1.txt"),
    "ex1 --final-peek": ("golden_ex1.txt", ["--final-peek"], "reconstruct_ex1.txt"),
    "ex2 m1": ("golden_ex2_m1.txt", [], "reconstruct_ex2_m1.txt"),
}


def assert_rebuild_writes(tmp_path, capsys, trace_path, flags, expected):
    """`reconstruct` writes `expected` to stdout, and the same bytes to an
    --output file."""
    argv = ["reconstruct", "--trace", str(trace_path), "--goal", "goal", *flags]
    assert run_cli(capsys, *argv) == (0, expected)
    output = tmp_path / "states.txt"
    assert run_cli(capsys, *argv, "--output", str(output)) == (0, "")
    assert output.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("case", RECORDED_REBUILDS)
def test_reconstruct_prints_the_recorded_states(tmp_path, capsys, data_dir, case):
    name, flags, recording = RECORDED_REBUILDS[case]
    lines = (data_dir / name).read_text(encoding="utf-8").splitlines()
    trace_path = tmp_path / name
    trace_path.write_text("\n".join(l for l in lines if l != "yes") + "\n", encoding="utf-8")
    expected = (data_dir / recording).read_text(encoding="utf-8")
    assert_rebuild_writes(tmp_path, capsys, trace_path, flags, expected)


def _brothers_rebuilt() -> str:
    """The rebuild of `Call goal`, `Call p` and ten Exits whose r rises by
    one: each Exit2 adds the next brother under node 1, so the last state
    holds nodes 11 ... 19 and 1.10 (a component past 9 prints dotted), and
    the final Exit waits for a successor."""
    rows = [f"  1{k} #{k + 2} q\n" for k in range(1, 10)] + ["  1.10 #12 q\n"]
    states = ["  eps * #1 goal\n", "  eps #1 goal\n  1 * #2 p\n"]
    for i in range(1, 11):
        last = rows[i - 1].replace(" #", " * #")
        states.append("  eps #1 goal\n  1 #2 p\n" + "".join(rows[: i - 1]) + last)
    blocks = "".join(f"q{i}\n{state}" for i, state in enumerate(states))
    return blocks + "q12\n  unknown (final event needs a successor)\n"


# (trace text, flags, output) of short rebuilds: the empty trace, a
# pending final event, a final Exit that --final-peek commits as an Exit
# to the root, and a node word with a component past 9.
SHORT_REBUILDS = {
    "empty": ("# nothing here\n", [], "q0\n  eps * #1 goal\n"),
    "pending": (
        "1 1 1 Call goal\n", [],
        "q0\n  eps * #1 goal\nq1\n  unknown (final event needs a successor)\n",
    ),
    "final peek": (
        "1 1 1 Call goal\n2 2 2 Call p\n3 2 2 Exit p\n", ["--final-peek"],
        "q0\n  eps * #1 goal\n"
        "q1\n  eps #1 goal\n  1 * #2 p\n"
        "q2\n  eps #1 goal\n  1 * #2 p\n"
        "q3\n  eps * #1 goal\n  1 #2 p\n",
    ),
    "brother 10": (
        "1 1 1 Call goal\n2 2 2 Call p\n" + "".join(f"{k} {k} 3 Exit q\n" for k in range(3, 13)),
        [],
        _brothers_rebuilt(),
    ),
}


@pytest.mark.parametrize("case", SHORT_REBUILDS)
def test_reconstruct_prints_short_rebuilds(tmp_path, capsys, case):
    text, flags, expected = SHORT_REBUILDS[case]
    trace_path = tmp_path / "short.trace"
    trace_path.write_text(text, encoding="utf-8")
    assert_rebuild_writes(tmp_path, capsys, trace_path, flags, expected)


def test_reconstruct_empty_trace(tmp_path, capsys):
    trace_path = tmp_path / "empty.trace"
    trace_path.write_text("# nothing here\n", encoding="utf-8")
    code, out = run_cli(
        capsys, "reconstruct", "--trace", str(trace_path), "--goal", "goal"
    )
    assert code == 0
    assert out.splitlines()[0] == "q0"
    assert sum(1 for l in out.splitlines() if l.startswith("q")) == 1


def test_reconstruct_forged_trace_fails(tmp_path, capsys):
    trace_path = tmp_path / "forged.trace"
    trace_path.write_text("1 5 1 Call goal\n2 3 2 Call p(a)\n", encoding="utf-8")
    code, _ = run_cli(
        capsys, "reconstruct", "--trace", str(trace_path), "--goal", "goal"
    )
    assert code == 1


def test_verify_example1(capsys, data_dir):
    code, out = run_cli(capsys, "verify", "--program", str(data_dir / "example1.pl"))
    assert code == 0
    assert out.startswith("PASS example1.pl 10")


def test_verify_undefined_goal(capsys, data_dir):
    code, out = run_cli(
        capsys, "verify", "--program", str(data_dir / "undefined_goal.pl")
    )
    assert code == 0
    assert out.startswith("PASS undefined_goal.pl 2")


def test_verify_corpus_directory(tmp_path, capsys, data_dir):
    for name in ("example1.pl", "example2.pl", "undefined_goal.pl"):
        (tmp_path / name).write_text(
            (data_dir / name).read_text(encoding="utf-8"), encoding="utf-8"
        )
    code, out = run_cli(capsys, "verify", "--corpus", str(tmp_path))
    assert code == 0
    assert len(out.splitlines()) == 3
    assert all(line.startswith("PASS") for line in out.splitlines())


def test_verify_an_empty_corpus_is_one_error_line(tmp_path, capsys):
    (tmp_path / "notes.txt").write_text("p.\n:- p.\n", encoding="utf-8")
    code = main(["verify", "--corpus", str(tmp_path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == f"error: no .pl files in {tmp_path}\n"


def test_reconstruct_a_forged_brother_is_one_error_line(tmp_path, capsys):
    trace = tmp_path / "brother.trace"
    trace.write_text(FORGED_BROTHER, encoding="utf-8")
    code = main(["reconstruct", "--trace", str(trace), "--goal", "goal"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "error: brother 2 already exists\n"


def test_reconstruct_a_forged_brother_creates_no_output_file(tmp_path, capsys):
    # the trace fails at its eighth event, before a state is written
    trace, output = tmp_path / "brother.trace", tmp_path / "states.txt"
    trace.write_text(FORGED_BROTHER, encoding="utf-8")
    argv = ["reconstruct", "--trace", str(trace), "--goal", "goal", "--output", str(output)]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: brother 2 already exists\n")
    assert not output.exists()


@pytest.mark.parametrize("both", [True, False], ids=["both", "neither"])
def test_verify_takes_exactly_one_of_program_and_corpus(capsys, data_dir, both):
    # Given both, verify used to check the corpus alone and exit 0.
    flags = ["--program", str(data_dir / "example1.pl"), "--corpus", str(data_dir)]
    with pytest.raises(SystemExit) as exit_:
        main(["verify"] + (flags if both else []))
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: byrdbox verify")
    assert "(--program PROGRAM | --corpus CORPUS)" in captured.err
    assert "Traceback" not in captured.err


def test_verify_corpus_reports_a_bad_file_and_goes_on(tmp_path, capsys, data_dir):
    (tmp_path / "a_bad.pl").write_text("p(a).\nq :- .\n:- p(a).\n", encoding="utf-8")
    (tmp_path / "b_good.pl").write_text(
        (data_dir / "example1.pl").read_text(encoding="utf-8"), encoding="utf-8"
    )
    code = main(["verify", "--corpus", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.splitlines() == [
        "FAIL a_bad.pl 0 parse-error",
        "PASS b_good.pl 10 -",
    ]
    assert captured.err.splitlines() == [
        "error: a_bad.pl: expected a term, found '.' (line 2, column 6)"
    ]


def test_verify_reports_divergence(monkeypatch, capsys, data_dir):
    from byrdbox.adequacy import AdequacyReport
    import byrdbox.cli as cli

    broken = AdequacyReport(
        steps_checked=5,
        halted=True,
        first_divergence=(6, "T", frozenset({()}), frozenset({(), (1,)})),
    )
    monkeypatch.setattr(cli, "check_adequacy", lambda program, max_steps: broken)
    code, out = run_cli(capsys, "verify", "--program", str(data_dir / "example1.pl"))
    assert code == 1
    assert out.startswith("FAIL example1.pl 5 divergence:step6:T")
    assert "divergence at step 6 on T" in out


def test_compare_example2(capsys, data_dir):
    code, out = run_cli(capsys, "compare", "--program", str(data_dir / "example2.pl"))
    assert code == 0
    assert out.strip() == "m1:28 m2:32 m3:44 subseq:yes,yes"


# skip.pl's table heads clash with most calls, so most of the clauses a
# visit drops emit no event.  Each command's stdout was recorded from a
# clause selection that unified every head it dropped.
SKIP_RECORDINGS = {
    "trace m1": (["trace", "--model", "m1"], "skip_trace_m1.txt"),
    "trace m2": (["trace", "--model", "m2"], "skip_trace_m2.txt"),
    "trace m3": (["trace", "--model", "m3"], "skip_trace_m3.txt"),
    "verify": (["verify"], "skip_verify.txt"),
    "compare": (["compare"], "skip_compare.txt"),
}


@pytest.mark.parametrize("case", SKIP_RECORDINGS)
def test_silent_skips_print_the_recorded_output(capsys, data_dir, case):
    command, recording = SKIP_RECORDINGS[case]
    code, out = run_cli(capsys, *command, "--program", str(data_dir / "skip.pl"))
    assert code == 0
    assert out == (data_dir / recording).read_text(encoding="utf-8")


def test_compare_exits_1_when_m1_is_no_subsequence_of_m2(tmp_path, capsys):
    # The program halts in all three models, but m1 announces a Redo at a
    # resumed choice point whose clauses then all fail, where m2 re-chooses
    # silently: a correct run whose check fails.
    program = tmp_path / "redo.pl"
    program.write_text(
        "p0(c,X1) :- p0(X1,a). p0(a,a) :- p0(Y1,b). :- p0(c,c).\n", encoding="utf-8"
    )
    code, out = run_cli(capsys, "compare", "--program", str(program))
    assert out.strip() == "m1:13 m2:10 m3:10 subseq:no,yes"
    assert code == 1


def test_outputs_are_deterministic(tmp_path, capsys, data_dir):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for target in (a, b):
        run_cli(
            capsys,
            "trace", "--program", str(data_dir / "example2.pl"),
            "--model", "m2", "--output", str(target),
        )
    assert a.read_bytes() == b.read_bytes()


# A byte that is never valid in UTF-8 text.
NOT_UTF8 = b"p(\xff).\n:- p(a).\n"


def test_trace_non_utf8_program(tmp_path, capsys):
    bad = tmp_path / "bad.pl"
    bad.write_bytes(NOT_UTF8)
    code = main(["trace", "--program", str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {bad}: not UTF-8 text (invalid start byte at byte 2)"
    ]


def test_reconstruct_non_utf8_trace(tmp_path, capsys):
    bad = tmp_path / "bad.trace"
    bad.write_bytes(b"1 1 1 Call goal\n2 1 1 Exit g\xc3(\n")
    code = main(["reconstruct", "--trace", str(bad), "--goal", "goal"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: {bad}: not UTF-8 text (")


def test_verify_corpus_reports_a_non_utf8_file_and_goes_on(tmp_path, capsys, data_dir):
    (tmp_path / "a_bad.pl").write_bytes(NOT_UTF8)
    (tmp_path / "b_good.pl").write_text(
        (data_dir / "example1.pl").read_text(encoding="utf-8"), encoding="utf-8"
    )
    code = main(["verify", "--corpus", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.splitlines() == [
        "FAIL a_bad.pl 0 read-error",
        "PASS b_good.pl 10 -",
    ]
    assert captured.err.splitlines() == [
        f"error: {tmp_path / 'a_bad.pl'}: not UTF-8 text (invalid start byte at byte 2)"
    ]


# Unification has no occur check: p(Y,f(Y)) against p(X,X) binds Y to f(Y).
CYCLIC = "p(X,X).\n:- p(Y,f(Y)).\n"
CYCLIC_ERROR = "cyclic term: variable Y is bound to a term containing it"


@pytest.mark.parametrize("argv", [["trace"], ["trace", "--model", "m3"], ["compare"]])
def test_cyclic_binding_is_a_one_line_error(tmp_path, capsys, argv):
    cyc = tmp_path / "cyc.pl"
    cyc.write_text(CYCLIC, encoding="utf-8")
    code = main(argv + ["--program", str(cyc)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {cyc}: {CYCLIC_ERROR}"]


def test_verify_reports_a_cyclic_binding_and_goes_on(tmp_path, capsys, data_dir):
    (tmp_path / "a_cyc.pl").write_text(CYCLIC, encoding="utf-8")
    (tmp_path / "b_good.pl").write_text(
        (data_dir / "example1.pl").read_text(encoding="utf-8"), encoding="utf-8"
    )
    code = main(["verify", "--corpus", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.splitlines() == [
        "FAIL a_cyc.pl 0 cyclic-term",
        "PASS b_good.pl 10 -",
    ]
    assert captured.err.splitlines() == [f"error: a_cyc.pl: {CYCLIC_ERROR}"]


# Unification has no occur check: A = f(A) and B = f(f(B)) are both cyclic,
# and unifying A with B must still return.
TWO_CYCLES = "p(X,X,Y,Y,Z,Z).\n:- p(A,f(A),B,f(f(B)),A,B).\n"


@pytest.mark.parametrize("command", ["trace", "compare"])
def test_two_cyclic_bindings_end_in_a_one_line_error(tmp_path, capsys, command):
    cyc = tmp_path / "two.pl"
    cyc.write_text(TWO_CYCLES, encoding="utf-8")
    code = main([command, "--program", str(cyc)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {cyc}: cyclic term: variable B is bound to a term containing it"
    ]


def test_verify_reports_two_cyclic_bindings(tmp_path, capsys):
    (tmp_path / "two.pl").write_text(TWO_CYCLES, encoding="utf-8")
    code = main(["verify", "--corpus", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().out.splitlines() == ["FAIL two.pl 0 cyclic-term"]


def _nat(depth):
    return "s(" * depth + "z" + ")" * depth


# Terms of any depth run: a goal 5,000 deep, and eq(X, X) on two separately
# parsed terms that deep, whose unification descends all 5,000 levels.
DEEP = 5000
DEEP_NAT = f"nat(z).\nnat(s(X)) :- nat(X).\n:- nat({_nat(DEEP)}).\n"
DEEP_EQ = f"eq(X,X).\n:- eq({_nat(DEEP)},{_nat(DEEP)}).\n"


def _deep_nat_calls(count):
    """The first `count` trace lines of DEEP_NAT: one Call per level."""
    return [f"{i} {i} {i} Call nat({_nat(DEEP + 1 - i)})" for i in range(1, count + 1)]


@pytest.mark.parametrize("argv", [["trace"], ["trace", "--model", "m2"], ["compare"]])
def test_too_deep_term_is_a_one_line_error(tmp_path, capsys, argv):
    # no term is too deep: both 5,000-deep programs give results
    nat, eq = tmp_path / "nat.pl", tmp_path / "eq.pl"
    nat.write_text(DEEP_NAT, encoding="utf-8")
    eq.write_text(DEEP_EQ, encoding="utf-8")
    code = main(argv + ["--program", str(nat), "--max-steps", "5"])
    captured = capsys.readouterr()
    assert captured.err == ""
    if argv == ["compare"]:
        assert (code, captured.out) == (1, "m1:2 m2:2 m3:2 subseq:yes,yes\n")
    else:
        calls = 5 if argv == ["trace"] else 2
        assert (code, captured.out.splitlines()) == (2, _deep_nat_calls(calls))
    code = main(argv + ["--program", str(eq)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    if argv == ["compare"]:
        assert captured.out == "m1:2 m2:2 m3:2 subseq:yes,yes\n"
    else:
        pred = f"eq({_nat(DEEP)},{_nat(DEEP)})"
        assert captured.out.splitlines() == [f"1 1 1 Call {pred}", f"2 1 1 Exit {pred}"]


def test_verify_reports_too_deep_terms_and_goes_on(tmp_path, capsys, data_dir):
    # deep programs pass like any other, in --corpus and --program runs
    (tmp_path / "a_nat.pl").write_text(DEEP_NAT, encoding="utf-8")
    (tmp_path / "b_eq.pl").write_text(DEEP_EQ, encoding="utf-8")
    (tmp_path / "c_good.pl").write_text(
        (data_dir / "example1.pl").read_text(encoding="utf-8"), encoding="utf-8"
    )
    code = main(["verify", "--corpus", str(tmp_path), "--max-steps", "20"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out.splitlines() == [
        "PASS a_nat.pl 19 fuel-exhausted",
        "PASS b_eq.pl 2 -",
        "PASS c_good.pl 10 -",
    ]
    code = main(["verify", "--program", str(tmp_path / "a_nat.pl"), "--max-steps", "5"])
    assert (code, capsys.readouterr()) == (0, ("PASS a_nat.pl 4 fuel-exhausted\n", ""))


def test_reconstruct_reports_too_deep_terms(tmp_path, capsys):
    # the rebuilt states of a 5,000-deep goal print in full
    goal = f"nat({_nat(DEEP)})"
    trace = tmp_path / "deep.txt"
    trace.write_text("\n".join(_deep_nat_calls(2)) + "\n", encoding="utf-8")
    assert main(["reconstruct", "--trace", str(trace), "--goal", goal]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == [
        "q0",
        f"  eps * #1 {goal}",
        "q1",
        f"  eps #1 {goal}",
        f"  1 * #2 nat({_nat(DEEP - 1)})",
        "q2",
        "  unknown (final event needs a successor)",
    ]


@pytest.mark.parametrize("command", ["trace", "reconstruct", "verify", "compare"])
@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_unwritable_output_is_a_one_line_error(tmp_path, capsys, data_dir, command, where):
    output = tmp_path if where == "directory" else tmp_path / "missing" / "out.txt"
    if command == "reconstruct":
        trace = tmp_path / "ex1.txt"
        main(["trace", "--program", str(data_dir / "example1.pl"), "--output", str(trace)])
        argv = ["reconstruct", "--trace", str(trace), "--goal", "goal"]
    else:
        argv = [command, "--program", str(data_dir / "example1.pl")]
    assert main(argv + ["--output", str(output)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and str(output) in line
    assert "Traceback" not in captured.err


# ----------------------------------------------------------------------
# The reconstruct contract on generated trace text
# ----------------------------------------------------------------------

_NUMBER = st.one_of(st.integers(-1, 12).map(str), st.sampled_from(["x", "1.5", "+2", ""]))
_PORT = st.sampled_from(["Call", "Exit", "Fail", "Redo", "Jump", "call"])
_PRED = st.one_of(
    st.sampled_from(["goal", "p(a)", "p(X)", "p(_1,f(_))", "eq(b,b)", "p(", "p(a)%c", "p(a,%)", "X", "\u00e9"]),
    st.text(alphabet="abpqXY_01(),%", max_size=10),
)
_EVENT = st.builds(
    lambda c, r, l, port, pred, sep: sep.join([c, r, l, port, pred]),
    _NUMBER, _NUMBER, _NUMBER, _PORT, _PRED, st.sampled_from([" ", "\t", "   "]),
)
_LINE = st.one_of(_EVENT, st.sampled_from(["", "# a comment", "1 1 1 Call goal", "2 2 2 Call p(X)"]))


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    return tmp_path_factory.mktemp("generated") / "trace.txt"


@settings(max_examples=200, deadline=None)
@given(prefix=st.integers(0, 10), extra=st.lists(_LINE, max_size=8), final_peek=st.booleans())
def test_reconstruct_gives_a_result_or_one_error_line(trace_file, data_dir, prefix, extra, final_peek):
    # a prefix of an emitted trace rebuilds; the generated lines after it
    # may be forged events or lines that do not parse
    golden = (data_dir / "golden_ex1.txt").read_text(encoding="utf-8").splitlines()
    text = "\n".join(golden[:prefix] + extra) + "\n"
    try:
        read_line_by_line(text)
        parse_error = None
    except ParseError as exc:
        parse_error = f"error: {exc}"
    trace_file.write_text(text, encoding="utf-8")
    argv = ["reconstruct", "--trace", str(trace_file), "--goal", "goal"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--final-peek"] * final_peek)
    assert code in (0, 1)
    if code == 0:
        assert err.getvalue() == "" and parse_error is None
    else:
        [line] = err.getvalue().splitlines()
        assert err.getvalue() == line + "\n" and line.startswith("error: ")
        assert parse_error is None or line == parse_error
