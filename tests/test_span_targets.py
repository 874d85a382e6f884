"""The benchmark's span targets name functions of the package.

`perfbench/spans.py` wraps each (module, attribute) of its TARGETS in a
span during a traced benchmark run.  A target that was renamed or
deleted would fail only there, so this reads the TARGETS table from the
file's syntax tree, without running or importing it, and resolves each
entry in `byrdbox` the way the recorder does.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def span_targets():
    """(module, attribute) of every entry of TARGETS."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"), filename=str(SPANS))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError(f"no TARGETS table in {SPANS}")


TARGETS = span_targets()


def test_the_table_is_read():
    assert TARGETS and all(isinstance(name, str) for entry in TARGETS for name in entry)


@pytest.mark.parametrize("module, attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_span_target_is_a_function(module, attr):
    # resolved as the recorder resolves it: a method `Class.method` from
    # the class's own body, where the recorder rebinds it, not inherited
    home = importlib.import_module(f"byrdbox.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        target = getattr(home, cls_name).__dict__[meth]
    else:
        target = getattr(home, attr)
    assert inspect.isfunction(target)
