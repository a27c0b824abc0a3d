"""Guards over the package source itself: arithmetic stays exact (no float
or complex values anywhere in src/mcdiv), every function or method the
package defines has a caller in the package, the scripts or the benchmark,
and every name the benchmark's span tracer wraps still exists."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "mcdiv").glob("*.py"))

# math functions of integers only; anything else in math works in floats
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm"}

# defined on purpose with no caller outside the tests: the paper's moves
# that define linear equivalence, and the wedge construction
KEPT_WITHOUT_CALLER = {"wedge_model", "move_swap_curve_part", "move_fire_vertex",
                       "move_fire_interior"}


def _inexact(tree):
    """(line, what) for every float or complex literal, float or complex
    call and non-integer math function in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"literal {node.value!r}"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("float", "complex")):
            yield node.lineno, f"call to {node.func.id}"
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr not in INTEGER_MATH):
            yield node.lineno, f"math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name not in INTEGER_MATH:
                    yield node.lineno, f"from math import {alias.name}"


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_inexact_arithmetic(path):
    found = list(_inexact(ast.parse(path.read_text(), str(path))))
    assert not found, f"{path.name}: {found}"


def test_inexact_arithmetic_is_seen():
    src = "import math\nx = 0.5\ny = float(1)\nz = math.sqrt(2)\nw = math.lcm(2, 3)\n"
    assert [line for line, _ in _inexact(ast.parse(src))] == [2, 3, 4]


def _defined_names(tree):
    """Names of the module-level functions and of the methods of
    module-level classes; dunder methods are called by the language."""
    for node in tree.body:
        defs = node.body if isinstance(node, ast.ClassDef) else [node]
        for d in defs:
            if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    d.name.startswith("__") and d.name.endswith("__")):
                yield d.name


def test_every_definition_has_a_caller():
    corpus = "\n".join(
        p.read_text()
        for where in ("src", "scripts", "perfbench")
        for p in sorted((ROOT / where).rglob("*.py"))
    )
    words = Counter(re.findall(r"\w+", corpus))
    defs = Counter(re.findall(r"\bdef (\w+)", corpus))
    uncalled = {name for path in PACKAGE for name in _defined_names(ast.parse(path.read_text()))
                if words[name] == defs[name]}
    assert uncalled == KEPT_WITHOUT_CALLER


def test_benchmark_span_table_matches_the_package(monkeypatch):
    """perfbench/spans.py looks up each method, import site and span name it
    lists; a rename or deletion there fails here, not in a benchmark run."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        metrics = spans.layer_metrics(tracer)
    finally:
        tracer.uninstall()
    assert metrics["complexes.divisor.built"] == 0
