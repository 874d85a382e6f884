"""Command-line front end: trace, reconstruct, verify, compare."""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from pathlib import Path

from .adequacy import check_adequacy
from .multimodel import ModelId, compare_models, run_model
from .rebuild import (
    CondViolation,
    MalformedTrace,
    format_restricted,
    initial_restricted,
    reconstruct_trace,
)
from .terms import CyclicTerm, ParseError, VarNames, parse_program, parse_term
from .tracing import format_event, parse_trace, run_actual_trace

__all__ = ["main", "cmd_trace", "cmd_reconstruct", "cmd_verify", "cmd_compare"]


def _emit(lines, output):
    """Write each line as it comes, to the file `output` or to stdout."""
    with open(output, "w", encoding="utf-8") if output else nullcontext(sys.stdout) as out:
        for line in lines:
            out.write(line + "\n")


def _read(path) -> str:
    """A file's text; one that is not UTF-8 is an OSError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        reason = f"{exc.reason} at byte {exc.start}"
        raise OSError(f"{path}: not UTF-8 text ({reason})") from None


def cmd_trace(args) -> int:
    program = parse_program(_read(args.program))
    if args.model == "m1":
        run = run_actual_trace(program, args.max_steps)
    else:
        run = run_model(program, ModelId(args.model), args.max_steps)
    names = VarNames()
    _emit((format_event(e, names) for e in run.events), args.output)
    return 0 if run.halted else 2


def cmd_reconstruct(args) -> int:
    goal = parse_term(args.goal)
    events = parse_trace(_read(args.trace))
    result = reconstruct_trace(
        initial_restricted(goal), events, final_peek=args.final_peek
    )
    # a bad trace has raised by now, before a line is written; the states
    # are rebuilt again as they are written, one at a time
    _emit(_state_blocks(result), args.output)
    return 0


def _state_blocks(result):
    names = VarNames()
    for i, q in enumerate(result.states):
        yield f"q{i}"
        yield format_restricted(q, names)
    if not result.final_known:
        yield f"q{len(result.states)}"
        yield "  unknown (final event needs a successor)"


def cmd_verify(args) -> int:
    if args.corpus is not None:
        paths = sorted(Path(args.corpus).glob("*.pl"))
        if not paths:
            print(f"error: no .pl files in {args.corpus}", file=sys.stderr)
            return 1
    else:
        paths = [Path(args.program)]
    worst = 0
    lines = []
    for path in paths:
        try:
            report = check_adequacy(parse_program(_read(path)), args.max_steps)
        except (OSError, ParseError, CyclicTerm) as exc:
            # the message of a read error already names the file
            read = isinstance(exc, OSError)
            print(f"error: {exc}" if read else f"error: {path.name}: {exc}", file=sys.stderr)
            kind = "parse-error" if isinstance(exc, ParseError) else "cyclic-term"
            lines.append(f"FAIL {path.name} 0 {'read-error' if read else kind}")
            worst = 1
            continue
        lines.append(report.machine_line(path.name))
        if not report.passed:
            worst = 1
            if report.first_divergence:
                step, fieldname, want, got = report.first_divergence
                lines.append(f"  divergence at step {step} on {fieldname}:")
                lines.append(f"    expected {want}")
                lines.append(f"    rebuilt  {got}")
            for step, conds in report.cond_violations:
                lines.append(f"  condition violation at step {step}: {conds}")
            for pos, pair in report.port_violations:
                lines.append(f"  forbidden ports at {pos}: {pair[0]}->{pair[1]}")
    _emit(lines, args.output)
    return worst


def cmd_compare(args) -> int:
    comparison = compare_models(parse_program(_read(args.program)), args.max_steps)
    _emit([comparison.summary()], args.output)
    ok = comparison.m1_in_m2 and comparison.m2_in_m3 and all(
        comparison.halted.values()
    )
    return 0 if ok else 1


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _path(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("expected a path, got an empty string")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="byrdbox",
        description="Four-port tracer for a pure-Prolog subset",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--max-steps", type=_positive_int, default=10000)
        p.add_argument("--output", type=_path, default=None)

    p = sub.add_parser("trace", help="emit the trace of a program run")
    p.add_argument("--program", type=_path, required=True)
    p.add_argument("--model", choices=["m1", "m2", "m3"], default="m1")
    common(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("reconstruct", help="rebuild restricted states from a trace")
    p.add_argument("--trace", type=_path, required=True)
    p.add_argument("--goal", required=True)
    p.add_argument("--final-peek", action="store_true")
    common(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("verify", help="check trace adequacy for a program")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--program", type=_path)
    source.add_argument("--corpus", type=_path, help="directory of .pl programs to verify")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compare", help="run all three trace models")
    p.add_argument("--program", type=_path, required=True)
    common(p)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError, MalformedTrace, CondViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except CyclicTerm as exc:
        source = args.trace if args.command == "reconstruct" else args.program
        print(f"error: {source}: {exc}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
