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


CURVE_CLASSES = {"P1Oracle", "EllipticOracle", "TableOracle"}


def _curve_class_uses(tree):
    """(line, what) for every import of a concrete oracle class and every
    isinstance test against one."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name.rsplit(".", 1)[-1] in CURVE_CLASSES:
                    yield node.lineno, f"import {alias.name}"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "isinstance" and len(node.args) == 2):
            for sub in ast.walk(node.args[1]):
                name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
                if name in CURVE_CLASSES:
                    yield node.lineno, f"isinstance(..., {name})"


@pytest.mark.parametrize("name", ["reduction.py", "rank.py"])
def test_engine_asks_curves_through_the_oracle_contract(name):
    """Reduction and the rank search put every curve question to the oracle
    it holds; they never branch on which kind of curve it is."""
    path = ROOT / "src" / "mcdiv" / name
    found = list(_curve_class_uses(ast.parse(path.read_text(), str(path))))
    assert not found, f"{name}: {found}"


def test_curve_class_uses_are_seen():
    src = ("from .curves import P1Oracle, CurveDivisor\nimport mcdiv.curves.TableOracle\n"
           "ok = isinstance(o, CurveDivisor)\nbad = isinstance(o, (int, curves.EllipticOracle))\n")
    assert [line for line, _ in _curve_class_uses(ast.parse(src))] == [1, 2, 4]


README = ROOT / "README.md"


def _constructor_memos(tree):
    """The `*_memo` attributes that a constructor assigns on self."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "__init__":
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                        and isinstance(sub.value, ast.Name) and sub.value.id == "self"
                        and sub.attr.endswith("_memo")):
                    yield sub.attr


def test_readme_names_every_memo_table():
    """Operations touch no state but memo tables declared by constructors,
    and the README names each of them by its attribute."""
    memos = {m for path in PACKAGE for m in _constructor_memos(ast.parse(path.read_text()))}
    assert {"nonneg_memo", "sites_memo", "refinement_memo", "local_memo"} <= memos
    (para,) = [p for p in README.read_text().split("\n\n") if "memo tables" in p]
    assert [m for m in sorted(memos) if f"`{m}`" not in para] == []


def test_memo_tables_are_seen():
    src = ("class A:\n    def __init__(self):\n        self.x_memo = {}\n        self.memo = {}\n"
           "        other.y_memo = {}\n\n    def f(self):\n        self.z_memo = {}\n")
    assert list(_constructor_memos(ast.parse(src))) == ["x_memo"]
