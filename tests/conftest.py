"""Shared instance builders for the test suite: deterministic families of
metrized complexes, divisors, and rational-function witnesses."""

import itertools
import random
from fractions import Fraction

import pytest

from mcdiv.complexes import ComplexRationalFunction, MetrizedComplex
from mcdiv.complexes import NodalCurveDescription, regularize
from mcdiv.curves import EllipticOracle, O_POINT, P1Oracle, genus2_table_oracle
from mcdiv.exact import Poly, PrimeField, QQ, RationalFunc
from mcdiv.limitseries import FunctionSpace
from mcdiv.metric import GraphModel, PLFunction


def theta_model(lengths=(1, 1, 1)):
    return GraphModel(
        ["u", "v"],
        [
            ("e1", "u", "v", lengths[0]),
            ("e2", "u", "v", lengths[1]),
            ("e3", "u", "v", lengths[2]),
        ],
    )


def segment_model(length=1):
    return GraphModel(["v0", "w"], [("e", "v0", "w", length)])


def circle_model(circumference=1):
    return GraphModel(["v"], [("loop", "v", "v", circumference)])


def single_vertex_complex(oracle):
    model = GraphModel(["s"], [])
    return MetrizedComplex(model, {"s": oracle}, {"s": {}})


def star_elliptic_complex(p=5, a=1, b=1):
    """Projective-line center with three genus-one leaves."""
    field = PrimeField(p)
    model = GraphModel(
        ["c", "l1", "l2", "l3"],
        [("ea", "c", "l1", 1), ("eb", "c", "l2", 1), ("ec", "c", "l3", 1)],
    )
    center = P1Oracle(field)
    marks = {
        "c": {
            ("ea", 0): field.elem(0),
            ("eb", 0): field.elem(1),
            ("ec", 0): field.elem(2),
        }
    }
    oracles = {"c": center}
    for name, leaf in (("ea", "l1"), ("eb", "l2"), ("ec", "l3")):
        o = EllipticOracle(p, a, b)
        oracles[leaf] = o
        marks[leaf] = {(name, 1): O_POINT}
    return MetrizedComplex(model, oracles, marks)


# -- randomized families -------------------------------------------------------


_SHAPES = [
    ("segment", ["A", "B"], [("e1", "A", "B", 1)]),
    ("path3", ["A", "B", "C"], [("e1", "A", "B", 1), ("e2", "B", "C", Fraction(1, 2))]),
    ("theta", ["A", "B"], [("e1", "A", "B", 1), ("e2", "A", "B", 1), ("e3", "A", "B", 2)]),
    ("banana", ["A", "B"], [("e1", "A", "B", 1), ("e2", "A", "B", Fraction(3, 2))]),
    (
        "triangle",
        ["A", "B", "C"],
        [("e1", "A", "B", 1), ("e2", "B", "C", 1), ("e3", "C", "A", 1)],
    ),
    ("loop+tail", ["A", "B"], [("e1", "A", "A", 2), ("e2", "A", "B", 1)]),
    (
        "star3",
        ["A", "B", "C", "D"],
        [("e1", "A", "B", 1), ("e2", "A", "C", 1), ("e3", "A", "D", Fraction(1, 2))],
    ),
]


def random_complex(rng: random.Random, allow_table=True, p=5):
    """A deterministic random small complex: a graph shape plus a mix of
    graphical, projective-line, genus-one, and genus-two table vertices."""
    _name, vertices, edges = _SHAPES[rng.randrange(len(_SHAPES))]
    model = GraphModel(list(vertices), list(edges))
    field = PrimeField(p)
    oracles = {}
    marks = {}
    table_used = False
    for v in model.vertices:
        if v not in vertices:
            continue  # loop break vertices stay graphical
        deg = model.degree(v)
        kind = rng.choice(["graphical", "p1", "p1", "elliptic", "table"])
        if kind == "graphical":
            continue
        if kind == "table" and (not allow_table or table_used or deg > 3):
            kind = "p1"
        if kind == "p1":
            o = P1Oracle(field)
        elif kind == "elliptic":
            o = EllipticOracle(p, 1, 1)
        else:
            o = genus2_table_oracle()
            table_used = True
        pts = o.sample_points(deg)
        oracles[v] = o
        marks[v] = {
            (e.name, end): pt
            for (e, end), pt in zip(model.incident_edges(v), pts)
        }
    return MetrizedComplex(model, oracles, marks)


def random_divisor(rng: random.Random, cx, deg_lo=-6, deg_hi=6, spread=3):
    """A random divisor with support on interior points, graphical
    vertices, and curve points."""
    sites = []
    for w in cx.graphical_vertices():
        sites.append(("g", cx.model.vertex_point(w)))
    for name, e in sorted(cx.model.edges.items()):
        sites.append(("g", cx.model.point_on(name, e.length * Fraction(1, 2))))
        sites.append(("g", cx.model.point_on(name, e.length * Fraction(1, 3))))
    for v in cx.oracle_vertices():
        o = cx.oracles[v]
        for p in o.sample_points(min(3, 2 + o.genus)):
            sites.append(("c", (v, p)))
    target = rng.randint(deg_lo, deg_hi)
    graph = {}
    curves = {}
    placed = 0
    picks = rng.randint(1, spread)
    for i in range(picks):
        kind, where = sites[rng.randrange(len(sites))]
        coeff = rng.randint(-2, 3)
        if i == picks - 1:
            coeff = target - placed
        if coeff == 0:
            continue
        placed += coeff
        if kind == "g":
            graph[where] = graph.get(where, 0) + coeff
        else:
            v, p = where
            o = cx.oracles[v]
            cur = curves.get(v, o.zero_divisor())
            curves[v] = cur + o.divisor((p, coeff))
    return cx.divisor(graph_pairs=list(graph.items()), curve_parts=curves)


def random_witness(rng: random.Random, cx) -> ComplexRationalFunction:
    """A random rational function: tents on edges, vertex fires, and
    principal curve shifts."""
    f = PLFunction.constant(cx.model)
    for _ in range(rng.randint(0, 2)):
        name = rng.choice(sorted(cx.model.edges))
        e = cx.model.edges[name]
        mid = e.length * Fraction(rng.randint(1, 3), 4)
        apex = cx.model.point_on(name, mid)
        if apex.kind != "e":
            continue
        room = min(mid, e.length - mid)
        eps = room * Fraction(1, 2)
        ref = cx.model.refinement(
            [apex, cx.model.point_on(name, mid - eps), cx.model.point_on(name, mid + eps)]
        )
        vals = {n: Fraction(0) for n in ref.nodes}
        vals[apex] = -eps * rng.randint(1, 2)
        f = f + PLFunction(ref, vals)
    wits = {}
    for v in cx.oracle_vertices():
        if rng.random() < 0.5:
            continue
        o = cx.oracles[v]
        if isinstance(o, P1Oracle):
            pts = o.sample_points(2)
            shift = o.divisor((pts[0], 1), (pts[1], -1))
            wits[v] = o.principal_witness(shift)
        elif isinstance(o, EllipticOracle):
            pts = o.sample_points(3)
            p_, q_ = pts[1], pts[2]
            s = o.add_points(p_, q_)
            shift = o.divisor((p_, 1), (q_, 1), (s, -1), (O_POINT, -1))
            if shift.coeffs:
                wits[v] = shift
        else:
            quads = []
            labels = sorted(o.points)
            for a, b in itertools.combinations(labels, 2):
                for c, d in itertools.combinations(labels, 2):
                    if {a, b} & {c, d}:
                        continue
                    if o._gadd(o.points[a], o.points[b]) == o._gadd(
                        o.points[c], o.points[d]
                    ):
                        quads.append((a, b, c, d))
            if quads:
                a, b, c, d = quads[rng.randrange(len(quads))]
                wits[v] = o.divisor((a, 1), (b, 1), (c, -1), (d, -1))
    return ComplexRationalFunction(cx, f, wits)


def line_chain(n):
    """Chain of n projective lines over Q: C_i meets C_{i+1} at 1 on C_i
    (0 on C_0) and at 0 on C_{i+1}."""
    comps = {f"C{i}": P1Oracle(QQ) for i in range(n)}
    nodes = []
    for i in range(n - 1):
        nodes.append((f"C{i}", QQ.elem(1) if i > 0 else QQ.elem(0),
                      f"C{i+1}", QQ.elem(0)))
    return regularize(NodalCurveDescription(comps, nodes))


def qq_space(oracle, exps):
    """Span of the monomials t^e over Q; the exponent "b" stands for the
    binomial t^2 + t^3."""
    one = Poly.const(QQ, 1)
    basis = []
    for e in exps:
        coeffs = [0, 0, 1, 1] if e == "b" else [0] * e + [1]
        basis.append(RationalFunc.make(Poly.make(QQ, coeffs), one))
    return FunctionSpace(oracle, basis)


def space_catalog(d, r):
    """Subspaces of L(d * inf) of dimension r+1 spanned by monomials up to
    degree d, plus one binomial twist where it fits."""
    exps = list(range(d + 1))
    picks = [c for c in itertools.combinations(exps, r + 1)]
    if d >= 3 and r + 1 <= 3:
        picks.append(tuple([0, "b", 3][: r + 1]))
    return picks


@pytest.fixture
def rng():
    return random.Random(20260810)
