"""Text serialization: one JSON document per file describing a complex,
named divisors, weighted graphs, and limit-series data.
Rationals travel as "p/q" strings so exactness survives round trips.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from .complexes import MetrizedComplex
from .curves import EllipticOracle, O_POINT, P1Oracle, TableOracle
from .decomposition import WeightedGraph, check_attachment
from .errors import InputError
from .exact import INF, Fp, Poly, PrimeField, QQ, RationalFunc
from .limitseries import Aspect, FunctionSpace, VanishingTable
from .metric import GraphDivisor, GraphModel

FORMAT_VERSION = 1


class _PathError(InputError):
    """An input error that already names its place in the document."""


def _fail(path, msg):
    raise _PathError(f"{path}: {msg}")


@contextmanager
def _at(path):
    """Report an error raised below `path` that does not name its own place
    (a JSON value of the wrong shape, or a rejection by a constructor that
    knows nothing of the document) as an input error at `path`."""
    try:
        yield
    except _PathError:
        raise
    except InputError as err:
        _fail(path, str(err))
    except (ArithmeticError, AttributeError, LookupError, TypeError, ValueError) as err:
        _fail(path, f"malformed value ({err})")


def _int(value, path):
    """An integer field: a JSON integer or a string of one.  Floats and
    booleans are refused rather than truncated."""
    if not isinstance(value, (bool, float)):
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    _fail(path, f"not an integer: {value!r}")


def parse_rational(s, path):
    try:
        if isinstance(s, int) and not isinstance(s, bool):
            return Fraction(s)
        if isinstance(s, str):
            return Fraction(s)
    except (ValueError, ZeroDivisionError):
        pass
    _fail(path, f"not a rational: {s!r}")


def rational_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def parse_field(spec, path):
    if spec in ("Q", "QQ", None):
        return QQ
    if isinstance(spec, int):
        with _at(path):
            return PrimeField(spec)
    _fail(path, f"unknown field {spec!r}")


def parse_curve_point(oracle, obj, path):
    if isinstance(oracle, P1Oracle):
        if obj == {"inf": True}:
            return INF
        if isinstance(obj, dict) and "x" in obj:
            x = parse_rational(obj["x"], path + ".x")
            if isinstance(oracle.field, PrimeField):
                if x.denominator != 1:
                    _fail(path, "prime-field point must be an integer")
                return oracle.field.elem(int(x))
            return x
        _fail(path, "projective-line point wants {'inf': true} or {'x': ...}")
    if isinstance(oracle, EllipticOracle):
        if obj == {"O": True}:
            return O_POINT
        if isinstance(obj, dict) and "x" in obj and "y" in obj:
            x, y = _int(obj["x"], path + ".x"), _int(obj["y"], path + ".y")
            with _at(path):
                return oracle.point(x, y)
        _fail(path, "elliptic point wants {'O': true} or {'x':.., 'y':..}")
    if isinstance(oracle, TableOracle):
        if isinstance(obj, dict) and "label" in obj:
            lab = str(obj["label"])
            if lab not in oracle.points:
                _fail(path, f"unknown labeled point {lab}")
            return lab
        _fail(path, "table point wants {'label': ...}")
    _fail(path, "cannot parse point for this oracle")


def curve_point_json(oracle, p):
    if isinstance(oracle, P1Oracle):
        if p is INF:
            return {"inf": True}
        if isinstance(p, Fp):
            return {"x": str(p.v)}
        return {"x": rational_str(p)}
    if isinstance(oracle, EllipticOracle):
        if p is O_POINT:
            return {"O": True}
        return {"x": str(p.x.v), "y": str(p.y.v)}
    return {"label": p}


def parse_graph_point(model: GraphModel, obj, path):
    if isinstance(obj, dict) and "vertex" in obj:
        with _at(path):
            return model.vertex_point(obj["vertex"])
    if isinstance(obj, dict) and "edge" in obj:
        off = parse_rational(obj.get("offset", 0), path + ".offset")
        with _at(path):
            return model.point_on(obj["edge"], off)
    _fail(path, "graph point wants {'vertex': ...} or {'edge':.., 'offset':..}")


def parse_place(cx, obj, path):
    """A place of cx: {"vertex": V, "point": {...}} for a point on the curve
    at V, else a graph point."""
    with _at(path):
        if isinstance(obj, dict) and "point" in obj:
            v = obj.get("vertex")
            if not cx.is_oracle_vertex(v):
                _fail(path, f"{v} carries no curve")
            return (v, parse_curve_point(cx.oracles[v], obj["point"], path))
        return parse_graph_point(cx.model, obj, path)


def graph_point_json(p):
    if p.kind == "v":
        return {"vertex": p.where}
    return {"edge": p.where, "offset": rational_str(p.offset)}


def parse_oracle(spec, path):
    if spec == "graphical" or spec is None:
        return None
    if not isinstance(spec, dict) or "type" not in spec:
        _fail(path, "oracle wants 'graphical' or an object with a 'type'")
    t = spec["type"]
    if t == "p1":
        return P1Oracle(parse_field(spec.get("field", "Q"), path + ".field"))
    if t == "elliptic":
        for k in ("p", "a", "b"):
            if k not in spec:
                _fail(path, f"elliptic oracle needs '{k}'")
        p, a, b = (_int(spec[k], path) for k in ("p", "a", "b"))
        with _at(path):
            return EllipticOracle(p, a, b)
    if t == "table":
        with _at(path):
            table = {}
            for i, row in enumerate(spec["rank_table"]):
                rp = f"{path}.rank_table[{i}]"
                deg, cls, r = row
                table[(_int(deg, rp), tuple(_int(x, rp) for x in cls))] = _int(r, rp)
            return TableOracle(
                _int(spec["genus"], path + ".genus"),
                tuple(_int(m, path + ".moduli") for m in spec["moduli"]),
                {k: tuple(_int(x, f"{path}.points.{k}") for x in v)
                 for k, v in spec["points"].items()},
                table,
                tuple(_int(x, path + ".canonical_class") for x in spec["canonical_class"]),
            )
    _fail(path, f"unknown oracle type {t!r}")


def parse_ratfunc(field_obj, obj, path):
    def coeffs(key, cs):
        out = []
        for j, c in enumerate(cs):
            cp = f"{path}.{key}[{j}]"
            q = parse_rational(c, cp)
            if isinstance(field_obj, PrimeField):
                if q.denominator != 1:
                    _fail(cp, "prime-field coefficient must be an integer")
                q = q.numerator
            out.append(q)
        return out

    with _at(path):
        num = Poly.make(field_obj, coeffs("num", obj["num"]))
        den = Poly.make(field_obj, coeffs("den", obj.get("den", ["1"])))
        return RationalFunc.make(num, den)


@dataclass
class Document:
    """A parsed input file: the complex plus named ancillary objects."""

    complex: MetrizedComplex
    divisors: dict = field(default_factory=dict)
    weighted: dict = field(default_factory=dict)
    limit_series: dict = field(default_factory=dict)
    complex2: MetrizedComplex | None = None
    glue: tuple | None = None  # (place on complex, place on complex2, bridge length)
    seed: int = 0


def _parse_model(obj, path):
    if not isinstance(obj, dict) or "vertices" not in obj or "edges" not in obj:
        _fail(path, "complex wants 'vertices' and 'edges'")
    with _at(path):
        names = []
        for i, v in enumerate(obj["vertices"]):
            if not isinstance(v, dict) or not isinstance(v.get("name"), str):
                _fail(f"{path}.vertices[{i}]", "vertex wants a string 'name'")
            names.append(v["name"])
        edges = []
        for i, e in enumerate(obj["edges"]):
            p = f"{path}.edges[{i}]"
            if not isinstance(e, dict) or not isinstance(e.get("name"), str):
                _fail(p, "edge wants a string 'name'")
            for k in ("ends", "length"):
                if k not in e:
                    _fail(p, f"edge wants '{k}'")
            if not isinstance(e["ends"], list) or len(e["ends"]) != 2:
                _fail(p + ".ends", "edge wants a list of two vertex names")
            length = parse_rational(e["length"], p + ".length")
            if length <= 0:
                _fail(p + ".length", "edge length must be positive")
            edges.append((e["name"], e["ends"][0], e["ends"][1], length))
        return GraphModel(names, edges)


def _parse_complex(obj, path):
    model = _parse_model(obj, path)
    oracles = {}
    marks = {}
    for i, v in enumerate(obj["vertices"]):
        p = f"{path}.vertices[{i}]"
        o = parse_oracle(v.get("oracle", "graphical"), p + ".oracle")
        if o is None:
            if v.get("marks"):
                _fail(p, "graphical vertices carry no marked points")
            continue
        name = v["name"]
        oracles[name] = o
        marks[name] = {}
        raw_marks = v.get("marks", {})
        if not isinstance(raw_marks, dict):
            _fail(p + ".marks", "marks want an object keyed by 'edge:end'")
        for key, ptobj in raw_marks.items():
            if ":" not in key:
                _fail(f"{p}.marks.{key}", "mark key wants 'edge:end'")
            ename, end = key.rsplit(":", 1)
            if end not in ("0", "1"):
                _fail(f"{p}.marks.{key}", "end must be 0 or 1")
            marks[name][(ename, int(end))] = parse_curve_point(
                o, ptobj, f"{p}.marks.{key}"
            )
    with _at(path):
        return MetrizedComplex(model, oracles, marks)


def _parse_divisor(cx, obj, path):
    if not isinstance(obj, dict):
        _fail(path, "divisor wants an object with 'graph' and/or 'curves'")
    with _at(path):
        chips = _parse_chips(obj.get("graph", []), partial(parse_graph_point, cx.model),
                             f"{path}.graph")
        for v, pairs in obj.get("curves", {}).items():
            p = f"{path}.curves.{v}"
            if not cx.is_oracle_vertex(v):
                _fail(p, f"vertex {v} carries no curve")
            chips += [((v, q), c)
                      for q, c in _parse_chips(pairs, partial(parse_curve_point, cx.oracles[v]), p)]
        return cx.chips(chips)


def _parse_chips(pairs, parse_point, path):
    """A list of [point, coefficient] pairs, each parsed under its own
    path, as (point, coefficient) pairs."""
    if not isinstance(pairs, list):
        _fail(path, "wants a list of [point, coefficient] pairs")
    chips = []
    for i, pair in enumerate(pairs):
        p = f"{path}[{i}]"
        with _at(p):
            pt, c = pair
            chips.append((parse_point(pt, p), _int(c, p)))
    return chips


def divisor_json(cx, d):
    graph = [[graph_point_json(p), c] for p, c in d.graph.terms()]
    curves = {
        v: [[curve_point_json(cx.oracles[v], p), c] for p, c in dv.terms()]
        for v, dv in sorted(d.curves.items())
    }
    return {"graph": graph, "curves": curves}


def _section(raw, key):
    """The named entries of an optional top-level section."""
    entries = raw.get(key, {})
    if not isinstance(entries, dict):
        _fail(key, "section wants an object keyed by name")
    return entries.items()


def parse_document(text: str) -> Document:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise InputError(f"not valid JSON: {err}") from None
    if not isinstance(raw, dict):
        _fail("document", "root must be an object")
    if raw.get("format", FORMAT_VERSION) != FORMAT_VERSION:
        _fail("format", f"unsupported format version {raw.get('format')}")
    if "complex" not in raw:
        _fail("document", "missing 'complex'")
    cx = _parse_complex(raw["complex"], "complex")
    seed = _int(raw.get("seed", 0), "seed")
    if seed < 0:
        _fail("seed", f"must be at least 0, got {seed}")
    doc = Document(complex=cx, seed=seed)
    if "complex2" in raw:
        doc.complex2 = _parse_complex(raw["complex2"], "complex2")
    if "glue" in raw:
        doc.glue = _parse_glue(raw["glue"], cx, doc.complex2)
    for name, obj in _section(raw, "divisors"):
        doc.divisors[name] = _parse_divisor(cx, obj, f"divisors.{name}")
    for name, obj in _section(raw, "weighted_graphs"):
        p = f"weighted_graphs.{name}"
        model = _parse_model(obj, p)
        with _at(p):
            weights = {v: _int(w, f"{p}.weights.{v}") for v, w in obj.get("weights", {}).items()}
            divisors = {
                dn: GraphDivisor.of(*_parse_chips(pairs, partial(parse_graph_point, model),
                                                  f"{p}.divisors.{dn}"))
                for dn, pairs in obj.get("divisors", {}).items()
            }
            doc.weighted[name] = (WeightedGraph(model, weights), divisors)
    for name, obj in _section(raw, "limit_series"):
        p = f"limit_series.{name}"
        with _at(p):
            doc.limit_series[name] = _parse_limit_series(cx, obj, p)
    return doc


def _parse_glue(obj, cx1, cx2):
    if not isinstance(obj, dict):
        _fail("glue", "glue wants an object with 'x1', 'x2' and 'length'")
    if cx2 is None:
        _fail("glue", "glue joins 'complex' to 'complex2', which is missing")
    places = []
    for key, cx in (("x1", cx1), ("x2", cx2)):
        x = parse_place(cx, obj.get(key), f"glue.{key}")
        with _at(f"glue.{key}"):
            check_attachment(cx, x)
        places.append(x)
    length = parse_rational(obj.get("length", 1), "glue.length")
    if length <= 0:
        _fail("glue.length", f"bridge length must be positive, got {length}")
    return (*places, length)


def _parse_limit_series(cx, obj, p):
    root = obj.get("root")
    if root not in cx.model.vertices:
        _fail(p, f"unknown root {root!r}")
    d = _int(obj.get("degree", 0), f"{p}.degree")
    r = _int(obj.get("rank", 0), f"{p}.rank")
    aspects = {}
    for v, a in obj.get("aspects", {}).items():
        pa = f"{p}.aspects.{v}"
        if not cx.is_oracle_vertex(v):
            _fail(pa, f"vertex {v} carries no curve")
        o = cx.oracles[v]
        with _at(pa):
            if "table" in a:
                seqs = {}
                for i, row in enumerate(a["table"]):
                    pt = parse_curve_point(o, row[0], f"{pa}.table[{i}]")
                    seqs[pt] = tuple(_int(x, f"{pa}.table[{i}]") for x in row[1])
                aspects[v] = VanishingTable(seqs)
                continue
            div = o.divisor(*_parse_chips(a.get("divisor", []), partial(parse_curve_point, o),
                                          f"{pa}.divisor"))
            basis = [
                parse_ratfunc(o.field, b, f"{pa}.basis[{i}]")
                for i, b in enumerate(a.get("basis", []))
            ]
            aspects[v] = Aspect(div, FunctionSpace(o, basis))
    return {"root": root, "degree": d, "rank": r, "aspects": aspects}
