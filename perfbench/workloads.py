"""Benchmark inputs: each workload is a list of cases built from a seed.

A case is one program, given to byrdbox only as source text, plus the
step budget it runs under and the goldens its trace must match.  Why each
workload exists, and the splits measured on it, is in README.md.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("corpus", "deep", "wide")

# The test suite's corpus seed.  The corpus draw is fixed to it (see
# README.md, "Why the corpus draw is fixed"); the run seed only sets the
# order in which the programs are visited.
REFERENCE_SEED = 20240601

CORPUS_SIZE = 10
CORPUS_FUEL = 500
# A run's operation times are medians over its rounds, so a round must be
# short enough for a 30 s run to hold about twenty.  `deep`'s cost grows
# as the square of its fuel; at 400 its tree still grows to 401 nodes.
DEEP_FUEL = 400
# The full `wide` search takes 4,280 core steps and up to 8.8k model
# transitions, a round of about 6.5 s.  Every step of the search does the
# same kind of work, so its first 1,000 steps keep the traffic.
WIDE_FUEL = 1000

WIDE_CONSTANTS = tuple(f"k{i}" for i in range(10))
WIDE_TABLE_ROWS = 20

DEEP_SOURCE = "nat(s(X)) :- nat(X).\nnat(z).\n:- nat(N).\n"

_DIRECTIVE = re.compile(r"^:-\s*(.*?)\s*\.\s*$", re.MULTILINE)


@dataclass(frozen=True)
class Case:
    name: str
    source: str
    fuel: int
    # model ("core", "m1", "m2", "m3") -> golden file under tests/data
    goldens: dict = field(default_factory=dict)

    @property
    def goal(self) -> str:
        """The goal text of the program's `:- goal.` directive, as a user
        would pass it to `byrdbox reconstruct --goal`."""
        return _DIRECTIVE.findall(self.source)[-1]


def _corpus_cases(root: Path, seed: int) -> list:
    from byrdbox.corpus import corpus, program_source

    cases = [
        Case(f"corpus-{i:03d}", program_source(p), CORPUS_FUEL)
        for i, p in enumerate(corpus(CORPUS_SIZE, REFERENCE_SEED))
    ]
    data = root / "tests" / "data"
    cases.append(
        Case(
            "example1",
            (data / "example1.pl").read_text(encoding="utf-8"),
            CORPUS_FUEL,
            {"core": "golden_ex1.txt"},
        )
    )
    cases.append(
        Case(
            "example2",
            (data / "example2.pl").read_text(encoding="utf-8"),
            CORPUS_FUEL,
            {
                "core": "golden_ex2_m1.txt",
                "m1": "golden_ex2_m1.txt",
                "m2": "golden_ex2_m2.txt",
                "m3": "golden_ex2_m3.txt",
            },
        )
    )
    random.Random(seed).shuffle(cases)
    return cases


def _wide_source(seed: int) -> str:
    rng = random.Random(seed)
    lines = ["goal :- d(X), d(Y), d(Z), t(X,Y,Z)."]
    lines += [f"d({c})." for c in WIDE_CONSTANTS]
    for _ in range(WIDE_TABLE_ROWS):
        a, b, c = (rng.choice(WIDE_CONSTANTS) for _ in range(3))
        lines.append(f"t({a},{b},{c}).")
    lines.append(":- goal.")
    return "\n".join(lines) + "\n"


def build(workload: str, seed: int, root: Path) -> list:
    """The cases of `workload` for `seed`; the same seed gives the same
    cases."""
    if workload == "corpus":
        return _corpus_cases(root, seed)
    if workload == "deep":
        return [Case("deep", DEEP_SOURCE, DEEP_FUEL)]
    if workload == "wide":
        return [Case("wide", _wide_source(seed), WIDE_FUEL)]
    raise ValueError(f"unknown workload {workload!r}")
