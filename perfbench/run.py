"""The byrdbox benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload corpus|deep|wide --seed N \
        --seconds S --trace 0|1

One operation is one command on one program, made through the same
package calls `byrdbox.cli` makes for it, without argparse and file I/O:

    trace        parse_program -> run_actual_trace -> format_trace
    reconstruct  parse_term(goal) + parse_trace(trace text) -> reconstruct_trace
    compare      parse_program -> compare_models -> summary()
    verify       parse_program -> check_adequacy -> machine_line()

Operations run one at a time in this one process.  A pass runs one
command on every program of the workload; a round is one pass of each
command.  With --trace 0 rounds repeat until --seconds have passed, and
the end-to-end metrics come from per-operation medians over the rounds.
With --trace 1 one plain round runs, then the same round under the span
recorder, then under tracemalloc, and the per-layer metrics come from
those.  Operation times are scaled to a reference machine speed (see
SpeedReference).  Every output is checked outside the timed region.  The
last line of standard output is the JSON result; README.md documents it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

import checks
import spans
import workloads
from checks import module

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "digests.json"
SPAN_DIR = ROOT / ".bench_out"

COMMANDS = ("trace", "reconstruct", "compare", "verify")
SETUP_REPEATS = 21
MIN_ROUNDS = 3
MIB = 1024 * 1024


class SpeedReference:
    """The machine's current speed, from a fixed pure-Python kernel.

    A shared machine can change speed by up to twofold within seconds,
    and every Python workload then slows alike: the kernel's time
    tracks byrdbox's closely.  So each timed operation is
    bracketed by a kernel run before and after it, and its time is scaled
    to a machine on which the kernel takes NOMINAL_S.  The kernel lives
    here, not in byrdbox, so no change to the package can move it."""

    NOMINAL_S = 0.020

    def __init__(self):
        self.samples = []  # every kernel time measured
        self.last = self.measure()

    @staticmethod
    def _kernel():
        # Dict inserts and a generator scan, as in the engines' tree maps.
        # Int keys allocate nothing the garbage collector tracks, so the
        # kernel never triggers a collection over a result still alive.
        for _ in range(4):
            d = {}
            for i in range(20000):
                d[i * 7919 % 100003] = i
            sum(1 for key in d if key % 97 == 3)

    def measure(self) -> float:
        start = perf_counter()
        self._kernel()
        self.samples.append(perf_counter() - start)
        return self.samples[-1]

    def scale(self, seconds: float) -> float:
        """`seconds` just measured, at the nominal speed: the kernel runs
        once more and the two runs around the measurement are averaged."""
        before, self.last = self.last, self.measure()
        return seconds * self.NOMINAL_S / ((before + self.last) / 2)


def _setup(workload: str, seed: int, speed: SpeedReference):
    """Import the package afresh and build the inputs, SETUP_REPEATS
    times; returns the set-up times and the cases.  As before every
    operation, the previous set-up's garbage is collected untimed."""
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [n for n in sys.modules if n.split(".")[0] == "byrdbox"]:
            del sys.modules[name]
        gc.collect()
        start = perf_counter()
        importlib.import_module("byrdbox")
        cases = workloads.build(workload, seed, ROOT)
        times.append(speed.scale(perf_counter() - start))
    return times, cases


# ----------------------------------------------------------------------
# The four operations.  Module attributes are looked up at call time so
# that the span recorder's rebinding applies.
# ----------------------------------------------------------------------

def op_trace(case, _traced):
    terms, tracing = module("terms"), module("tracing")
    program = terms.parse_program(case.source)
    result = tracing.run_actual_trace(program, case.fuel)
    return tracing.format_trace(result.events), result, len(result.events)


def op_reconstruct(case, traced):
    terms, tracing, rebuild = module("terms"), module("tracing"), module("rebuild")
    goal = terms.parse_term(case.goal)
    events = tracing.parse_trace(traced.text)
    result = rebuild.reconstruct_trace(
        rebuild.initial_restricted(goal), events, final_peek=traced.halted
    )
    # The rebuild is timed, not a dump of its states: the output text is
    # made after the clock stops.
    return None, result, len(events)


def op_compare(case, _traced):
    program = module("terms").parse_program(case.source)
    comparison = module("multimodel").compare_models(program, case.fuel)
    return comparison.summary(), comparison, sum(comparison.counts.values())


def op_verify(case, _traced):
    program = module("terms").parse_program(case.source)
    report = module("adequacy").check_adequacy(program, case.fuel)
    return report.machine_line(case.name), report, report.steps_checked


OPS = {
    "trace": op_trace,
    "reconstruct": op_reconstruct,
    "compare": op_compare,
    "verify": op_verify,
}


# ----------------------------------------------------------------------
# Rounds
# ----------------------------------------------------------------------

class Bench:
    """Runs rounds over one workload's cases and keeps the tallies."""

    def __init__(self, cases, speed: SpeedReference, checker=None):
        """Without a checker, first outputs are taken as they come; the
        digest check then compares them with the record."""
        self.cases = cases
        self.speed = speed
        self.checker = checker
        self.expected = {}   # (case, command) -> checked output text
        self.traces = {}     # case -> TraceRecord of its latest trace
        self.attempted = 0
        self.failed = 0
        self.errors = []     # first few failure descriptions

    def fail(self, what, why):
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"{what}: {why}")

    def round(self, wrap=None, on_result=None):
        """One pass of each command, in COMMANDS order, over every case.
        Returns, per operation that succeeded, (case name, command,
        events, seconds), with seconds taken around the operation only.

        wrap(command, fn) may replace the operation (the traced round);
        on_result(case, command, result) sees every result, untimed."""
        samples = []
        for command in COMMANDS:
            for case in self.cases:
                done = self._op(case, command, wrap, on_result)
                if done is not None:
                    samples.append((case.name, command) + done)
        return samples

    def _op(self, case, command, wrap, on_result):
        """Run, time and check one operation; (events, seconds), or None
        when it failed.  Of a trace only its TraceRecord is kept, so that
        no result outlives its operation (as in the CLI, where each
        command is its own process)."""
        self.attempted += 1
        what = f"{case.name}/{command}"
        traced = self.traces.get(case.name)
        if command == "reconstruct" and traced is None:
            self.fail(what, "no trace to rebuild from")
            return None
        fn = OPS[command] if wrap is None else wrap(command, OPS[command])
        gc.collect()
        start = perf_counter()
        try:
            output, result, work = fn(case, traced)
        except Exception as exc:  # an operation that raises has failed
            self.fail(what, f"{type(exc).__name__}: {exc}")
            return None
        seconds = self.speed.scale(perf_counter() - start)
        if command == "reconstruct":
            output = checks.reconstruct_output(result)
        try:
            self._check(case, command, output, result, traced)
        except checks.CheckFailed as exc:
            self.fail(what, str(exc))
            return None
        if on_result is not None:
            on_result(case, command, result)
        if command == "trace":
            self.traces[case.name] = checks.TraceRecord.of(output, result)
        return work, seconds

    def _check(self, case, command, output, result, traced):
        key = (case.name, command)
        if key in self.expected:
            if output != self.expected[key]:
                raise checks.CheckFailed("output differs from the first run's")
            return
        if self.checker is not None:
            self.checker.check(case, command, output, result, traced)
        self.expected[key] = output


def _digest(outputs: dict) -> dict:
    return {
        f"{name}/{command}": hashlib.sha256(text.encode()).hexdigest()[:16]
        for (name, command), text in sorted(outputs.items())
    }


def _inputs_digest(cases) -> str:
    h = hashlib.sha256()
    for case in sorted(cases, key=lambda c: c.name):
        h.update(f"{case.name}\0{case.fuel}\0{case.source}\0".encode())
    return h.hexdigest()[:16]


def check_digests(workload: str, bench: Bench) -> None:
    """Compare every output with the record taken on the seed commit.

    The record is for the reference seed's inputs.  When this run's
    inputs differ (only `wide` draws its program from the seed), one
    untimed reference round is run and checked instead."""
    record = json.loads(DIGESTS.read_text(encoding="utf-8"))[workload]
    ref = bench
    if _inputs_digest(bench.cases) != record["inputs"]:
        ref = Bench(workloads.build(workload, workloads.REFERENCE_SEED, ROOT), bench.speed)
        ref.round()
    got = _digest(ref.expected)
    for key, want in record["outputs"].items():
        if got.get(key) != want:
            ref.fail(key, "output differs from the recorded digest")
    if ref is not bench:
        bench.attempted += ref.attempted
        bench.failed += ref.failed
        bench.errors += ref.errors


def record_digests(workload: str) -> None:
    cases = workloads.build(workload, workloads.REFERENCE_SEED, ROOT)
    bench = Bench(cases, SpeedReference(), checks.Checker(ROOT))
    bench.round()
    if bench.failed:
        raise SystemExit(f"cannot record digests: {bench.errors}")
    table = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    table[workload] = {"inputs": _inputs_digest(cases), "outputs": _digest(bench.expected)}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


# ----------------------------------------------------------------------
# Census: what the workload's traffic looks like
# ----------------------------------------------------------------------

class Census:
    def __init__(self):
        self.programs = 0
        self.halted = 0
        self.core_steps = 0
        self.events = {"m1": 0, "m2": 0, "m3": 0}
        self.peak_tree_nodes = 0
        self.peak_choice_points = 0
        self.steps_checked = 0

    def __call__(self, case, command, result):
        if command == "trace":
            self.programs += 1
            self.halted += result.halted
            self.core_steps += len(result.run.transitions)
            for state in result.run.states:
                self.peak_tree_nodes = max(self.peak_tree_nodes, len(state.tree))
                cps = sum(1 for v in state.tree if state.boxes.get(v))
                self.peak_choice_points = max(self.peak_choice_points, cps)
        elif command == "compare":
            for model, count in result.counts.items():
                self.events[str(model)] += count
        elif command == "verify":
            self.steps_checked += result.steps_checked

    def as_dict(self):
        return {
            "programs": self.programs,
            "halted": self.halted,
            "fuel_exhausted": self.programs - self.halted,
            "core_steps": self.core_steps,
            "events": dict(self.events),
            "peak_tree_nodes": self.peak_tree_nodes,
            "peak_choice_points": self.peak_choice_points,
        }


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------

def timed_run(bench: Bench, seconds: float, census: Census):
    """Rounds until `seconds` have passed, at least MIN_ROUNDS.  Each
    operation's time is its median over the rounds, which drops a burst
    of load on the machine wherever it falls; every command is sampled
    across the whole run, so a slower drift of the machine's speed
    weighs on all commands alike.  A command's throughput is its events
    over the sum of its operations' medians."""
    start = perf_counter()
    times, events = {}, {}
    rounds = 0
    while True:
        round_start = perf_counter()
        for name, command, work, secs in bench.round(on_result=None if rounds else census):
            times.setdefault((name, command), []).append(secs)
            events[(name, command)] = work
        rounds += 1
        now = perf_counter()
        if rounds >= MIN_ROUNDS and (now - start) + (now - round_start) > seconds:
            break
    metrics = {}
    for command in COMMANDS:
        keys = [k for k in times if k[1] == command]
        rate = sum(events[k] for k in keys) / sum(statistics.median(times[k]) for k in keys)
        if command == "verify":
            metrics["verify_steps_per_s"] = (rate, "steps/s")
        else:
            metrics[f"{command}_events_per_s"] = (rate, "events/s")
    return metrics, rounds


def _mem_round(bench: Bench) -> dict:
    """One round under tracemalloc; the peak traced heap per command."""
    peaks = {c: 0 for c in COMMANDS}

    def wrap(command, fn):
        def measured(case, traced):
            tracemalloc.start()
            try:
                return fn(case, traced)
            finally:
                peaks[command] = max(peaks[command], tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return measured

    bench.round(wrap=wrap)
    return peaks


def traced_run(bench: Bench, workload: str, census: Census):
    """Untraced round, traced round and tracemalloc round over the same
    cases; per-layer metrics from the spans."""
    plain = bench.round(on_result=census)
    log = spans.SpanLog()
    ops = iter(range(1, 1 << 30))

    def wrap(command, fn):
        recorded = log.span(f"cmd.{command}", fn)

        def op(case, traced):
            log.current_op = next(ops)
            try:
                return recorded(case, traced)
            finally:
                log.current_op = 0

        return op

    with spans.Recorder(log):
        traced = bench.round(wrap=wrap)
    peaks = _mem_round(bench)

    SPAN_DIR.mkdir(exist_ok=True)
    log.write(SPAN_DIR / f"spans-{workload}.tsv")
    metrics = layer_metrics(log, census)
    untraced_s = sum(sample[3] for sample in plain)
    traced_s = sum(sample[3] for sample in traced)
    metrics["tracing_overhead"] = (traced_s / untraced_s, "ratio")
    for command in COMMANDS:
        metrics[f"mem.{command}.peak_mb"] = (peaks[command] / MIB, "MB")
    return metrics, profile(log)


def layer_metrics(log: spans.SpanLog, census: Census) -> dict:
    own = log.self_times()
    self_s, calls = {}, {}
    for i, nid in enumerate(log.name):
        name = log.names[nid]
        self_s[name] = self_s.get(name, 0.0) + own[i]
        calls[name] = calls.get(name, 0) + 1
    rule_counts = dict.fromkeys(spans.RULES, 0)
    model_steps = dict.fromkeys(spans.MODELS, 0)
    model_silent = dict.fromkeys(spans.MODELS, 0)
    unify_ok = 0
    fire_core = log.name_id("engine.fire")
    fire_model = log.name_id("multimodel.fire")
    unify_id = log.name_id("terms.unify")
    for nid, tag in zip(log.name, log.tag):
        if nid == unify_id:
            unify_ok += tag
        elif nid == fire_core:
            rule_counts[spans.RULES[tag]] += 1
        elif nid == fire_model:
            model = spans.MODELS[tag // 2]
            model_steps[model] += 1
            model_silent[model] += tag % 2

    def s(name):
        return (self_s.get(name, 0.0), "s")

    def n(name):
        return (calls.get(name, 0), "count")

    all_steps = calls.get("engine.fire", 0) + sum(model_steps.values())
    unify_calls = calls.get("terms.unify", 0)
    m = {
        "terms.parse_program_s": s("terms.parse_program"),
        "terms.parse_term_s": s("terms.parse_term"),
        "terms.unify_calls": n("terms.unify"),
        "terms.unify_s": s("terms.unify"),
        "terms.rename_clause_calls": n("terms.rename_clause"),
        "terms.rename_clause_s": s("terms.rename_clause"),
        "terms.resolve_s": s("terms.resolve"),
        "terms.format_term_s": s("terms.format_term"),
        "terms.unify_per_step": (unify_calls / all_steps if all_steps else 0.0, "count"),
        "terms.head_match_ratio": (unify_ok / unify_calls if unify_calls else 0.0, "ratio"),
        "engine.steps": n("engine.fire"),
        "engine.init_s": s("engine.init"),
        "engine.run_s": s("engine.run"),
        "engine.select_s": s("engine.select"),
        "engine.fire_s": s("engine.fire"),
        "engine.tree_query_s": s("engine.tree_query"),
        "engine.clause_select_s": s("engine.clause_select"),
        "engine.peak_tree_nodes": (census.peak_tree_nodes, "count"),
        "engine.peak_choice_points": (census.peak_choice_points, "count"),
        "tracing.run_s": s("tracing.run"),
        "tracing.extract_s": s("tracing.extract"),
        "tracing.format_s": s("tracing.format"),
        "tracing.parse_s": s("tracing.parse"),
        "rebuild.run_s": s("rebuild.run"),
        "rebuild.step_s": s("rebuild.step"),
        "rebuild.identify_s": s("rebuild.identify"),
        "rebuild.restrict_s": s("rebuild.restrict"),
        "rebuild.node_of_s": s("rebuild.node_of"),
        "rebuild.node_of_calls": n("rebuild.node_of"),
        "rebuild.next_child_s": s("rebuild.next_child"),
        "adequacy.self_s": s("adequacy.check"),
        "adequacy.steps_checked": (census.steps_checked, "count"),
        "multimodel.compare_s": s("multimodel.compare"),
        "multimodel.run_s": s("multimodel.run"),
        "multimodel.gates_s": s("multimodel.gates"),
        "multimodel.fire_s": s("multimodel.fire"),
        "multimodel.tree_query_s": s("multimodel.tree_query"),
    }
    for rule, count in rule_counts.items():
        m[f"engine.rule.{rule}"] = (count, "count")
    for model in spans.MODELS:
        steps = model_steps[model]
        m[f"multimodel.steps.{model}"] = (steps, "count")
        m[f"multimodel.events.{model}"] = (steps - model_silent[model], "count")
        m[f"multimodel.silent_ratio.{model}"] = (
            model_silent[model] / steps if steps else 0.0,
            "ratio",
        )
    return m


def profile(log: spans.SpanLog) -> dict:
    """Self seconds per span name, per command (the command of the
    operation a span belongs to)."""
    own = log.self_times()
    command_of_op = {}
    for i, nid in enumerate(log.name):
        if log.parent[i] == -1:
            command_of_op[log.op[i]] = log.names[nid][len("cmd."):]
    table = {}
    for i, nid in enumerate(log.name):
        row = table.setdefault(command_of_op[log.op[i]], {})
        name = log.names[nid]
        row[name] = row.get(name, 0.0) + own[i]
    return table


# ----------------------------------------------------------------------

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--record-digests",
        action="store_true",
        help="record the reference outputs of --workload into digests.json "
        "(run on the commit whose outputs are the reference)",
    )
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "byrdbox" / "__init__.py").is_file():
        print(f"error: no byrdbox sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    speed = SpeedReference()
    setup_times, cases = _setup(args.workload, args.seed, speed)
    if args.record_digests:
        record_digests(args.workload)
        return 0

    bench = Bench(cases, speed, checks.Checker(ROOT))
    census = Census()
    if args.trace:
        metrics, table = traced_run(bench, args.workload, census)
        for command, row in table.items():
            top = sorted(row.items(), key=lambda kv: -kv[1])[:8]
            print(f"profile {command} (traced {sum(row.values()):.3f}s): "
                  + ", ".join(f"{k} {v:.3f}s" for k, v in top))
        rounds = 1
    else:
        metrics, rounds = timed_run(bench, args.seconds, census)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MB",
        )
        metrics["setup_s"] = (statistics.median(setup_times), "s")
    check_digests(args.workload, bench)

    print("census " + json.dumps({
        "workload": args.workload, "seed": args.seed, "rounds": rounds,
        "speed_reference_s": statistics.median(speed.samples), **census.as_dict(),
    }))
    for line in bench.errors:
        print(f"failed: {line}")
    print(
        json.dumps(
            {
                "correct": bench.failed == 0,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
