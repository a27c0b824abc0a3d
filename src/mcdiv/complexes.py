"""Metrized complexes: a metric graph with a marked curve attached at some
vertices, divisors and rational functions on them, chip-firing moves, the
canonical class, and regularizations of nodal curves.

Vertices without an oracle are "graphical": genus-zero break points that
behave exactly like interior points of the metric graph.  Loop
normalization and edge refinement only ever introduce graphical vertices,
so they leave the divisor theory untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .curves import CurveDivisor, P1Oracle
from .errors import InputError
from .exact import QQ, RationalFunc
from .metric import GraphDivisor, GraphModel, GraphPoint, PLFunction


class MetrizedComplex:
    """A loopless model, per-vertex curve oracles, and a bijection between
    edge ends at each oracle vertex and marked points of its curve."""

    def __init__(self, model: GraphModel, oracles=None, marks=None, lift_points=None):
        self.model = model
        self.oracles = dict(oracles or {})
        self.marks = {v: dict(m) for v, m in (marks or {}).items()}
        for v in self.oracles:
            if v not in model.vertices:
                raise InputError(f"oracle attached to unknown vertex {v}")
        for v, o in self.oracles.items():
            ends = {(e.name, end) for e, end in model.incident_edges(v)}
            mk = self.marks.get(v, {})
            if set(mk) != ends:
                raise InputError(
                    f"vertex {v}: marked points must biject with its {len(ends)} edge ends"
                )
            pts = list(mk.values())
            for p in pts:
                o.validate_point(p)
            if len({o.point_key(p) for p in pts}) != len(pts):
                raise InputError(f"vertex {v}: marked points must be distinct")
        self.lift_points = dict(lift_points or {})
        for v, p in self.lift_points.items():
            self.oracles[v].validate_point(p)
        # memo tables of the rank engine; they only ever gain entries
        self.nonneg_memo = {}  # (divisor key, base point) -> bool
        self.shortcut_validated = False

    # -- structure queries ------------------------------------------------

    def is_oracle_vertex(self, v) -> bool:
        return v in self.oracles

    def oracle_vertices(self):
        return [v for v in self.model.vertices if v in self.oracles]

    def graphical_vertices(self):
        return [v for v in self.model.vertices if v not in self.oracles]

    def genus(self) -> int:
        return self.model.first_betti() + sum(o.genus for o in self.oracles.values())

    def marked_point(self, v, edge_name, end):
        return self.marks[v][(edge_name, end)]

    def marked_divisor(self, v) -> CurveDivisor:
        """A_v: the sum of the marked points of the curve at v."""
        o = self.oracles[v]
        d = {}
        for p in self.marks[v].values():
            d[p] = d.get(p, 0) + 1
        return CurveDivisor(o, d)

    def vertex_twist(self, v, potential) -> CurveDivisor:
        """div_v of an integer vertex potential: slope differences placed
        on the marked points of the curve at v."""
        o = self.oracles[v]
        out = o.zero_divisor()
        for e, end in self.model.incident_edges(v):
            other = e.v if end == 0 else e.u
            s = potential[other] - potential[v]
            if s:
                out = out + o.divisor((self.marked_point(v, e.name, end), s))
        return out

    def lift_point(self, v):
        """Deterministic curve point used to lift graph chips onto C_v: the
        declared one, or else the first unmarked sample point."""
        if v in self.lift_points:
            return self.lift_points[v]
        return self.oracles[v].sample_points(1, avoid=list(self.marks[v].values()))[0]

    # -- divisors ----------------------------------------------------------

    def divisor(self, graph_pairs=(), curve_parts=None) -> "ComplexDivisor":
        g = GraphDivisor.of(*graph_pairs)
        return ComplexDivisor(self, g, curve_parts or {})

    def zero_divisor(self) -> "ComplexDivisor":
        return ComplexDivisor(self, GraphDivisor(), {})

    def canonical(self) -> "ComplexDivisor":
        """The canonical divisor: sum over vertices of K_v + A_v, with the
        graphical vertices contributing degree(v) - 2 at the vertex."""
        graph = {}
        curves = {}
        for w in self.graphical_vertices():
            c = self.model.degree(w) - 2
            if c:
                graph[self.model.vertex_point(w)] = c
        for v in self.oracle_vertices():
            o = self.oracles[v]
            curves[v] = o.canonical_divisor() + self.marked_divisor(v)
        return ComplexDivisor(self, GraphDivisor(graph), curves)

    def lift_graph_divisor(self, d: GraphDivisor) -> "ComplexDivisor":
        """Lift a metric-graph divisor: oracle-vertex coefficients land on
        the vertex's lift point."""
        graph = {}
        curves = {}
        for p, c in d.coeffs.items():
            if p.kind == "v" and self.is_oracle_vertex(p.where):
                v = p.where
                o = self.oracles[v]
                cur = curves.get(v, o.zero_divisor())
                curves[v] = cur + o.divisor((self.lift_point(v), c))
            else:
                graph[p] = graph.get(p, 0) + c
        return ComplexDivisor(self, GraphDivisor(graph), curves)


class ComplexDivisor:
    """A divisor on a metrized complex: a graph part supported on graphical
    points plus one curve divisor per oracle vertex."""

    def __init__(self, cx: MetrizedComplex, graph: GraphDivisor, curve_parts):
        self.cx = cx
        for p in graph.support():
            if p.kind == "v" and cx.is_oracle_vertex(p.where):
                raise InputError(
                    f"graph part may not sit at oracle vertex {p.where}; "
                    "use the curve part"
                )
        self.graph = graph
        self.curves = {}
        for v, d in curve_parts.items():
            if not cx.is_oracle_vertex(v):
                raise InputError(f"{v} carries no curve")
            if d.oracle is not cx.oracles[v]:
                raise InputError(f"curve part at {v} built on a foreign oracle")
            if d.coeffs:
                self.curves[v] = d

    def curve_part(self, v) -> CurveDivisor:
        return self.curves.get(v, self.cx.oracles[v].zero_divisor())

    def degree(self) -> int:
        return self.graph.degree() + sum(d.degree() for d in self.curves.values())

    def gamma_part(self) -> GraphDivisor:
        """The induced divisor on the metric graph (curve parts collapse to
        their degrees at the vertices)."""
        out = dict(self.graph.coeffs)
        for v, d in self.curves.items():
            p = self.cx.model.vertex_point(v)
            c = d.degree()
            if c:
                out[p] = out.get(p, 0) + c
        return GraphDivisor(out)

    def is_effective(self) -> bool:
        return self.graph.is_effective() and all(
            d.is_effective() for d in self.curves.values()
        )

    def deg_plus(self) -> int:
        """Sum of the positive coefficients, over all points of the complex."""
        s = sum(c for c in self.graph.coeffs.values() if c > 0)
        for d in self.curves.values():
            s += sum(c for c in d.coeffs.values() if c > 0)
        return s

    def __add__(self, o):
        curves = dict(self.curves)
        for v, d in o.curves.items():
            curves[v] = curves[v] + d if v in curves else d
        return ComplexDivisor(self.cx, self.graph + o.graph, curves)

    def __sub__(self, o):
        return self + o.scale(-1)

    def scale(self, k):
        return ComplexDivisor(
            self.cx,
            self.graph.scale(k),
            {v: d.scale(k) for v, d in self.curves.items()},
        )

    def __eq__(self, o):
        return (
            isinstance(o, ComplexDivisor)
            and self.cx is o.cx
            and self.graph == o.graph
            and self.curves == o.curves
        )

    def key(self):
        return (
            self.graph.key(),
            tuple(sorted((v, d.key()) for v, d in self.curves.items())),
        )

    def __repr__(self):
        parts = []
        if self.graph.coeffs:
            parts.append(repr(self.graph))
        for v, d in sorted(self.curves.items()):
            parts.append(f"{v}:[{d}]")
        return " | ".join(parts) if parts else "0"


class ComplexRationalFunction:
    """A piecewise-linear graph part plus one witness per oracle vertex:
    an explicit rational function for projective lines, or a declared
    principal divisor otherwise."""

    def __init__(self, cx: MetrizedComplex, f_gamma: PLFunction, curve_witnesses=None):
        self.cx = cx
        self.f_gamma = f_gamma
        self.witnesses = dict(curve_witnesses or {})
        for v, w in self.witnesses.items():
            o = cx.oracles[v]
            if isinstance(w, RationalFunc):
                if not isinstance(o, P1Oracle):
                    raise InputError(f"explicit function witness needs a P1 at {v}")
            elif isinstance(w, CurveDivisor):
                if w.degree() != 0 or not o.classes_equal(w, o.zero_divisor()):
                    raise InputError(f"declared witness at {v} is not principal")
            else:
                raise InputError(f"bad witness type at {v}")

    def curve_divisor_shift(self, v) -> CurveDivisor:
        """div(f_v) as a curve divisor."""
        o = self.cx.oracles[v]
        w = self.witnesses.get(v)
        if w is None:
            return o.zero_divisor()
        if isinstance(w, RationalFunc):
            return o.divisor_of(w)
        return w

    def div_gamma_at_vertex(self, v) -> CurveDivisor:
        """Sum of outgoing slopes of the graph part, placed on the marked
        points of the curve at v."""
        o = self.cx.oracles[v]
        out = o.zero_divisor()
        for e, end in self.cx.model.incident_edges(v):
            s = self.f_gamma.slope_at_edge_end(e.name, end)
            if s:
                out = out + o.divisor((self.cx.marked_point(v, e.name, end), s))
        return out

    def divisor(self) -> ComplexDivisor:
        """div of the function; always degree zero."""
        graph_div = self.f_gamma.divisor()
        graph = {}
        curves = {}
        for p, c in graph_div.coeffs.items():
            if p.kind == "v" and self.cx.is_oracle_vertex(p.where):
                continue  # accounted for through the marked points below
            graph[p] = c
        for v in self.cx.oracle_vertices():
            d = self.curve_divisor_shift(v) + self.div_gamma_at_vertex(v)
            if d.coeffs:
                curves[v] = d
        return ComplexDivisor(self.cx, GraphDivisor(graph), curves)


# -- chip-firing moves ----------------------------------------------------


def move_swap_curve_part(cx, d: ComplexDivisor, v, new_part: CurveDivisor):
    """Move of type (1): replace the curve part at v inside its class."""
    o = cx.oracles[v]
    old = d.curve_part(v)
    if not o.classes_equal(old, new_part):
        raise InputError("replacement divisor is not in the same class")
    shift = new_part - old
    if isinstance(o, P1Oracle):
        wit = o.principal_witness(shift)
    else:
        wit = shift
    f = ComplexRationalFunction(
        cx, PLFunction.constant(cx.model), {v: wit} if shift.coeffs else {}
    )
    return d + f.divisor(), f


def move_fire_vertex(cx, d: ComplexDivisor, v, eps):
    """Move of type (2): fire the vertex v by a step eps smaller than every
    incident edge length."""
    eps = Fraction(eps)
    lengths = [e.length for e, _ in cx.model.incident_edges(v)]
    if not lengths:
        raise InputError(f"{v} has no incident edges")
    if not (0 < eps < min(lengths)):
        raise InputError(f"need 0 < eps < {min(lengths)}")
    pts = []
    for e, end in cx.model.incident_edges(v):
        off = eps if end == 0 else e.length - eps
        pts.append(cx.model.point_on(e.name, off))
    ref = cx.model.refinement(pts)
    vals = {}
    vp = cx.model.vertex_point(v)
    for n in ref.nodes:
        vals[n] = Fraction(0) if n == vp else -eps
    for p in pts:
        vals[p] = -eps
    f = PLFunction(ref, vals)
    wit = ComplexRationalFunction(cx, f, {})
    return d + wit.divisor(), wit


def move_fire_interior(cx, d: ComplexDivisor, p: GraphPoint, eps):
    """Move of type (3): fire a non-vertex point p by eps, sending one chip
    each way."""
    eps = Fraction(eps)
    if p.kind != "e":
        raise InputError("use the vertex move at model vertices")
    e = cx.model.edges[p.where]
    room = min(p.offset, e.length - p.offset)
    if not (0 < eps < room):
        raise InputError(f"need 0 < eps < {room}")
    a = cx.model.point_on(p.where, p.offset - eps)
    b = cx.model.point_on(p.where, p.offset + eps)
    ref = cx.model.refinement([p, a, b])
    vals = {n: Fraction(0) for n in ref.nodes}
    vals[p] = eps  # peak at p: two chips leave, one each way
    f = PLFunction(ref, vals)
    wit = ComplexRationalFunction(cx, f, {})
    return d + wit.divisor(), wit


# -- constructions ---------------------------------------------------------


@dataclass
class NodalCurveDescription:
    """Components with their curve oracles, and nodes as unordered pairs of
    (component, branch point)."""

    components: dict  # name -> CurveOracle
    nodes: list  # (name_a, point_a, name_b, point_b)


def regularize(desc: NodalCurveDescription) -> MetrizedComplex:
    """The unit-edge-length metrized complex of a nodal curve's dual graph."""
    vertices = list(desc.components)
    edges = []
    marks = {v: {} for v in vertices}
    for i, (va, pa, vb, pb) in enumerate(desc.nodes):
        name = f"n{i}"
        edges.append((name, va, vb, Fraction(1)))
    model = GraphModel(vertices, edges)
    for i, (va, pa, vb, pb) in enumerate(desc.nodes):
        name = f"n{i}"
        if name in model.edges:
            e = model.edges[name]
            marks[e.u][(name, 0)] = pa if e.u == va else pb
            marks[e.v][(name, 1)] = pb if e.v == vb else pa
        else:
            # self-node: the loop was split at its midpoint
            ea, eb = model.edges[f"{name}~a"], model.edges[f"{name}~b"]
            marks[va][(ea.name, 0)] = pa
            marks[va][(eb.name, 1)] = pb
    for v in vertices:
        expected = {(e.name, end) for e, end in model.incident_edges(v)}
        if set(marks[v]) != expected:
            raise InputError(f"component {v}: branch points do not match nodes")
    return MetrizedComplex(model, desc.components, marks)


def as_trivial_complex(model: GraphModel, field=QQ) -> MetrizedComplex:
    """Attach a projective line at every vertex, with distinct marked points;
    the extra sample point per vertex is the divisor lift point."""
    oracles = {}
    marks = {}
    lifts = {}
    for v in model.vertices:
        o = P1Oracle(field)
        deg = model.degree(v)
        pts = o.sample_points(deg + 1)
        oracles[v] = o
        marks[v] = {}
        for (e, end), p in zip(model.incident_edges(v), pts):
            marks[v][(e.name, end)] = p
        lifts[v] = pts[deg]
    return MetrizedComplex(model, oracles, marks, lifts)


def graphical_complex(model: GraphModel) -> MetrizedComplex:
    """The pure metric-graph view: every vertex graphical, no curves."""
    return MetrizedComplex(model, {}, {})
