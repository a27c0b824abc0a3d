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
from .metric import ChipSum, GraphDivisor, GraphModel, GraphPoint, PLFunction


class MetrizedComplex:
    """A loopless model, per-vertex curve oracles, and a bijection between
    edge ends at each oracle vertex and marked points of its curve."""

    def __init__(self, model: GraphModel, oracles=None, marks=None):
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
        # memo tables of the rank engine; they only ever gain entries
        self.nonneg_memo = {}  # (rest key, base point) -> what reduction leaves there
        self.sites_memo = {}  # (seed, oversize) -> rank-determining sites
        self.refinement_memo = {}  # interior points of a burn -> their read-only Refinement
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

    def _on_marks(self, v, pairs) -> CurveDivisor:
        """The divisor on C_v of the ((edge name, end), c) pairs: c on the
        marked point of each edge end, repeated ends summed.  Built
        unchecked: the marks were checked with the complex."""
        mk = self.marks[v]
        return self.oracles[v]._like(ChipSum.tally((mk[end], c) for end, c in pairs))

    def marked_divisor(self, v) -> CurveDivisor:
        """A_v: the sum of the marked points of the curve at v."""
        return self._on_marks(v, ((end, 1) for end in self.marks[v]))

    def vertex_twist(self, v, potential) -> CurveDivisor:
        """div_v of an integer vertex potential: slope differences placed
        on the marked points of the curve at v."""
        return self._on_marks(v, (
            ((e.name, end), potential[e.v if end == 0 else e.u] - potential[v])
            for e, end in self.model.incident_edges(v)))

    def lift_point(self, v):
        """Deterministic curve point used to lift graph chips onto C_v: the
        first unmarked sample point."""
        return self.oracles[v].sample_points(1, avoid=list(self.marks[v].values()))[0]

    # -- divisors ----------------------------------------------------------

    def divisor(self, graph_pairs=(), curve_parts=None) -> "ComplexDivisor":
        g = GraphDivisor.of(*graph_pairs)
        return ComplexDivisor(self, g, curve_parts or {})

    def chips(self, pairs) -> "ComplexDivisor":
        """The divisor sum of c*(x) over the (x, c) pairs, where each place x
        is a GraphPoint off the oracle vertices or a (vertex, curve point)
        pair.  Repeated places add up."""
        graph, curves = {}, {}
        for x, c in pairs:
            if isinstance(x, GraphPoint):
                graph[x] = graph.get(x, 0) + c
            else:
                v, p = x
                if v not in self.oracles:
                    raise InputError(f"{v} carries no curve")
                curves.setdefault(v, []).append((p, c))
        return ComplexDivisor(
            self,
            GraphDivisor(graph),
            {v: self.oracles[v].divisor(*ps) for v, ps in curves.items()},
        )

    def zero_divisor(self) -> "ComplexDivisor":
        return ComplexDivisor(self, GraphDivisor(), {})

    def canonical(self) -> "ComplexDivisor":
        """The canonical divisor: sum over vertices of K_v + A_v, with the
        graphical vertices contributing degree(v) - 2 at the vertex."""
        graph = GraphDivisor.of(*((self.model.vertex_point(w), self.model.degree(w) - 2)
                                  for w in self.graphical_vertices()))
        return ComplexDivisor._unchecked(self, graph, {
            v: self.oracles[v].canonical_divisor() + self.marked_divisor(v) for v in self.oracle_vertices()})

    def lift_graph_divisor(self, d: GraphDivisor) -> "ComplexDivisor":
        """Lift a metric-graph divisor: oracle-vertex coefficients land on
        the vertex's lift point."""
        return self.chips(
            ((p.where, self.lift_point(p.where))
             if p.kind == "v" and self.is_oracle_vertex(p.where) else p, c)
            for p, c in d.coeffs.items()
        )


class ComplexDivisor:
    """A divisor on a metrized complex: a graph part supported on graphical
    points plus one curve divisor per oracle vertex.  This constructor,
    `cx.divisor` and `cx.chips` check parts from outside; `_unchecked`
    builds results from parts already on the complex (sums, multiples,
    firings, divisors of functions, K and moderators, whose curve parts sit
    on checked marks) and only drops empty curve parts."""

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

    @staticmethod
    def _unchecked(cx, graph: GraphDivisor, curve_parts) -> "ComplexDivisor":
        out = object.__new__(ComplexDivisor)
        out.cx = cx
        out.graph = graph
        out.curves = {v: d for v, d in curve_parts.items() if d.coeffs}
        return out

    def curve_part(self, v) -> CurveDivisor:
        return self.curves.get(v) or self.cx.oracles[v].zero_divisor()

    def degree(self) -> int:
        return self.graph.degree() + sum(d.degree() for d in self.curves.values())

    def gamma_part(self) -> GraphDivisor:
        """The induced divisor on the metric graph (curve parts collapse to
        their degrees at the vertices)."""
        return self.graph + GraphDivisor.of(
            *((self.cx.model.vertex_point(v), d.degree()) for v, d in self.curves.items()))

    def is_effective(self) -> bool:
        return self.graph.is_effective() and all(
            d.is_effective() for d in self.curves.values()
        )

    def deg_plus(self) -> int:
        """Sum of the positive coefficients, over all points of the complex."""
        return self.graph.deg_plus() + sum(d.deg_plus() for d in self.curves.values())

    def _combine(self, o, sign):
        """self + sign * o, part by part."""
        if o.cx is not self.cx:
            raise InputError("cannot add divisors on different complexes")
        curves = dict(self.curves)
        for v, d in o.curves.items():
            curves[v] = curves[v]._combine(d, sign) if v in curves else d.scale(sign)
        return ComplexDivisor._unchecked(self.cx, self.graph._combine(o.graph, sign), curves)

    def __add__(self, o):
        return self._combine(o, 1)

    def __sub__(self, o):
        return self._combine(o, -1)

    def scale(self, k):
        return ComplexDivisor._unchecked(
            self.cx, self.graph.scale(k), {v: d.scale(k) for v, d in self.curves.items()})

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
    on any curve a declared divisor, refused unless its class is trivial;
    on a projective line also an explicit rational function.  Reduction
    witnesses declare the divisor on every curve."""

    def __init__(self, cx: MetrizedComplex, f_gamma: PLFunction, curve_witnesses=None):
        self.cx = cx
        self.f_gamma = f_gamma
        self.witnesses = dict(curve_witnesses or {})
        self._shifts = {}  # oracle vertex -> div f_v, as a curve divisor
        for v, w in self.witnesses.items():
            o = cx.oracles.get(v)
            if o is None:
                raise InputError(f"{v} carries no curve")
            if isinstance(w, RationalFunc):
                if not isinstance(o, P1Oracle):
                    raise InputError(f"explicit function witness needs a P1 at {v}")
                if w.field != o.field:
                    raise InputError(
                        f"explicit function witness at {v} is over {w.field}, "
                        f"but the curve there is over {o.field}"
                    )
                self._shifts[v] = o.divisor_of(w)
            elif isinstance(w, CurveDivisor):
                if w.oracle is not o:
                    raise InputError(f"declared witness at {v} built on a foreign oracle")
                if w.degree() != 0 or not o.classes_equal(w, o.zero_divisor()):
                    raise InputError(f"declared witness at {v} is not principal")
                self._shifts[v] = w
            else:
                raise InputError(f"bad witness type at {v}")

    def divisor(self) -> ComplexDivisor:
        """div of the function; always degree zero.  Each refined segment's
        slope s leaves its lo end and enters its hi end, landing at an
        oracle vertex on the marked point the segment meets; div f_v is
        added at v."""
        f = self.f_gamma
        graph, ends = {}, {}
        for re, s in zip(f.ref.redges, f.slopes):
            if s:
                _add_chips(self.cx, graph, ends, re.ends[0], re, s)
                _add_chips(self.cx, graph, ends, re.ends[1], re, -s)
        curves = {v: self.cx._on_marks(v, ps) for v, ps in ends.items()}
        for v, shift in self._shifts.items():
            curves[v] = curves[v] + shift if v in curves else shift
        return ComplexDivisor._unchecked(self.cx, GraphDivisor(graph), curves)


def _end_of_redge(cx, v, redge):
    """The base-edge end (edge name, end) at v that a refined segment meets."""
    pv = cx.model.vertex_point(v)
    if redge.ends[0] == pv:
        return redge.base, 0
    if redge.ends[1] == pv:
        return redge.base, 1
    raise InputError("segment does not meet the vertex at a base-edge end")


def _add_chips(cx, graph, ends, x, re, c):
    """Add c chips at the node x of the refined segment re: at an oracle
    vertex to its list in ends, on the edge end re meets; on the graph
    elsewhere."""
    if x.kind == "v" and cx.is_oracle_vertex(x.where):
        ends.setdefault(x.where, []).append((_end_of_redge(cx, x.where, re), c))
    else:
        graph[x] = graph.get(x, 0) + c


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
    the field must leave one more point per vertex, the divisor lift point."""
    oracles = {}
    marks = {}
    for v in model.vertices:
        o = P1Oracle(field)
        deg = model.degree(v)
        pts = o.sample_points(deg + 1)
        oracles[v] = o
        marks[v] = {}
        for (e, end), p in zip(model.incident_edges(v), pts):
            marks[v][(e.name, end)] = p
    return MetrizedComplex(model, oracles, marks)


def graphical_complex(model: GraphModel) -> MetrizedComplex:
    """The pure metric-graph view: every vertex graphical, no curves."""
    return MetrizedComplex(model, {}, {})
