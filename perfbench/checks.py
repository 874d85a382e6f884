"""Output checks, run outside the timed region.

The first time an operation runs on a case its output is checked here;
later runs of it only demand the same output again.  Every check derives its
reference independently of the operation it checks:

  trace        the hand-written goldens in tests/data where a case has one;
               on a halting run, the core engine's events equal the
               multimodel engine's m1 events attribute for attribute
  reconstruct  the last rebuilt state equals the machine's own state at
               that step, restricted to the four rebuilt parameters
  compare      the event counts, and the subsequence verdicts recomputed
               here from the three models' port sequences
  verify       the adequacy report passes
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from pathlib import Path


class CheckFailed(Exception):
    pass


# A variable inside a predication: machine style (_86) or source style (X).
_VAR_TOKEN = re.compile(r"\b(_[A-Za-z0-9]*|[A-Z][A-Za-z0-9_]*)\b")


def _rename_variables(texts) -> list:
    """Rename the variables of `texts` by first occurrence across all of
    them: _v1, _v2, ..."""
    names = {}

    def rename(match):
        return names.setdefault(match.group(), f"_v{len(names) + 1}")

    return [_VAR_TOKEN.sub(rename, text) for text in texts]


def normalize_trace(text: str) -> list:
    """Token-normalize a trace listing: drop listing decoration (a final
    `yes`, GNU's `?` column, the colon after the port), renumber chronos
    (two reference listings repeat one), and rename variables by first
    occurrence."""
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
    preds = _rename_variables(toks[4] for toks in rows)
    return [
        " ".join([str(i)] + toks[1:4] + [pred])
        for i, (toks, pred) in enumerate(zip(rows, preds), start=1)
    ]


def module(name):
    """A byrdbox module as currently loaded (the benchmark re-imports the
    package while it sets up)."""
    return sys.modules[f"byrdbox.{name}"]


def reconstruct_output(result) -> str:
    """What the benchmark keeps of a rebuild: the state count, whether the
    final state is known, and the last state.  (The CLI prints every
    state; that dump is not what is timed.)"""
    rebuild = module("rebuild")
    return (
        f"states={len(result.states)} final_known={result.final_known}\n"
        + rebuild.format_restricted(result.states[-1])
    )


def _canonical(state) -> str:
    return _rename_variables([module("rebuild").format_restricted(state)])[0]


def _event_rows(events):
    return [(e.r, e.l, e.port, e.pred) for e in events]


@dataclass(frozen=True)
class TraceRecord:
    """What later operations of a case need from its `trace` operation:
    the text, whether the run halted, and the machine's last two states
    restricted to the rebuilt parameters (a rebuild commits every event,
    or all but the last)."""

    text: str
    halted: bool
    tail: dict  # step -> restricted machine state

    @classmethod
    def of(cls, text, result):
        states = result.run.states
        restrict = module("rebuild").restrict
        tail = {i: restrict(states[i]) for i in range(max(0, len(states) - 2), len(states))}
        return cls(text, result.halted, tail)


class Checker:
    """Checks first outputs; keeps the reference model runs of a case so
    that the trace and compare checks share them."""

    def __init__(self, root: Path):
        self.data = root / "tests" / "data"
        self._events = {}  # (case, model) -> (events, halted)

    def _model_events(self, case, model_name):
        """The events of an independent run_model call; kept until the
        case's compare check, never the whole run."""
        key = (case.name, model_name)
        if key not in self._events:
            terms, mm = module("terms"), module("multimodel")
            program = terms.parse_program(case.source)
            run = mm.run_model(program, mm.ModelId(model_name), case.fuel)
            self._events[key] = (run.events, run.halted)
        return self._events[key]

    def _golden(self, case, model, events):
        golden = case.goldens.get(model)
        if golden is None:
            return
        want = normalize_trace((self.data / golden).read_text(encoding="utf-8"))
        got = normalize_trace(module("tracing").format_trace(events))
        if got != want:
            raise CheckFailed(f"{model} trace differs from {golden}")

    def check(self, case, command, output, result, traced):
        """`traced` is the case's TraceRecord, once its trace has run."""
        getattr(self, f"_check_{command}")(case, output, result, traced)

    def _check_trace(self, case, output, result, _traced):
        self._golden(case, "core", result.events)
        if result.halted:
            events, halted = self._model_events(case, "m1")
            if not halted or _event_rows(events) != _event_rows(result.events):
                raise CheckFailed("core trace differs from the m1 model's events")

    def _check_reconstruct(self, case, output, result, traced):
        # The rebuilt predications hold the trace text's variables, the
        # machine's its own: compare both printed, variables renamed by
        # first occurrence.
        step = len(result.states) - 1
        machine = traced.tail.get(step)
        if machine is None or _canonical(machine) != _canonical(result.states[-1]):
            raise CheckFailed(f"rebuilt state {step} differs from the machine's")

    def _check_compare(self, case, output, result, _traced):
        ports = {}
        for model in ("m1", "m2", "m3"):
            events, _ = self._model_events(case, model)
            del self._events[(case.name, model)]
            self._golden(case, model, events)
            ports[model] = [e.port for e in events]

        def contains(longer, shorter):
            it = iter(longer)
            return all(p in it for p in shorter)

        counts = {str(m): n for m, n in result.counts.items()}
        if counts != {m: len(p) for m, p in ports.items()}:
            raise CheckFailed(f"event counts {counts} differ from the models' runs")
        verdict = (contains(ports["m2"], ports["m1"]), contains(ports["m3"], ports["m2"]))
        if (result.m1_in_m2, result.m2_in_m3) != verdict:
            raise CheckFailed(f"subsequence verdict differs from {verdict}")

    def _check_verify(self, case, output, result, _traced):
        if not result.passed or not output.startswith("PASS "):
            raise CheckFailed(f"adequacy failed: {output}")
