"""Metric graphs with a distinguished model: points, divisors on the graph,
continuous piecewise-linear functions with integer slopes, and acyclic
orientations.

A model is a finite connected multigraph with positive rational edge
lengths.  Loop edges are normalized away at construction time by inserting
a break vertex at the loop midpoint; the underlying metric graph is
unchanged.  All point coordinates are rational offsets along base edges.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError


@dataclass(frozen=True)
class GraphPoint:
    kind: str  # "v" for a model vertex, "e" for an interior edge point
    where: str  # vertex name or edge name
    offset: Fraction = Fraction(0)

    def __post_init__(self):
        # hashed once: Fraction.__hash__ takes a modular inverse, and the
        # numerator and denominator in lowest terms name the offset as well
        o = self.offset
        object.__setattr__(self, "_hash", hash((self.kind, self.where, o.numerator, o.denominator)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # str hashes differ between processes: a copy is built afresh
        return GraphPoint, (self.kind, self.where, self.offset)

    def __repr__(self):
        if self.kind == "v":
            return f"@{self.where}"
        return f"@{self.where}[{self.offset}]"


@dataclass(frozen=True)
class Edge:
    name: str
    u: str
    v: str
    length: Fraction


class GraphModel:
    """Connected loopless multigraph with positive rational edge lengths.

    Input loops are split at their midpoint; the inserted vertex is named
    '<edge>~mid' and carries no curve in any complex built on this model.
    """

    def __init__(self, vertices, edges):
        self.vertices = list(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError("duplicate vertex names")
        for name in self.vertices:
            # so that repr tells graph points apart, as divisor keys need
            if "[" in str(name):
                raise InputError(f"vertex name {name} may not contain '['")
        vset = set(self.vertices)
        self.edges = {}
        names = set()  # the input edge names; a loop keeps only its halves in self.edges
        for name, u, v, length in edges:
            length = Fraction(length)
            if length <= 0:
                raise InputError(f"edge {name}: length must be positive")
            if u not in vset or v not in vset:
                raise InputError(f"edge {name}: unknown endpoint")
            if name in names or name in self.edges:
                raise InputError(f"duplicate edge name {name}")
            names.add(name)
            if u == v:
                mid = f"{name}~mid"
                if mid in vset:
                    raise InputError(f"vertex name {mid} collides with loop split")
                for half_name in (f"{name}~a", f"{name}~b"):
                    if half_name in self.edges:
                        raise InputError(f"loop {name}: its split half collides with edge {half_name}")
                self.vertices.append(mid)
                vset.add(mid)
                half = length / 2
                self.edges[f"{name}~a"] = Edge(f"{name}~a", u, mid, half)
                self.edges[f"{name}~b"] = Edge(f"{name}~b", mid, u, half)
            else:
                self.edges[name] = Edge(name, u, v, length)
        # one point per vertex, and the edges by name with their end points:
        # every vertex point handed out is one of these objects
        self._points = {w: GraphPoint("v", w) for w in self.vertices}
        self._rows = [(n, e, self._points[e.u], self._points[e.v]) for n, e in sorted(self.edges.items())]
        self._incidence = {w: [] for w in self.vertices}  # vertex -> [(edge, end)], in edge order
        for e in self.edges.values():
            self._incidence[e.u].append((e, 0))
            self._incidence[e.v].append((e, 1))
        self._check_connected()

    def _check_connected(self):
        if not self.vertices:
            raise InputError("empty graph")
        if self._reach(self.vertices[0]) != self._points.keys():
            raise InputError("graph is not connected")

    def _reach(self, start, cut=None):
        """The vertices reachable from the vertex start once the point cut (if
        any) is taken out: a vertex cut is never entered, an interior cut's edge never crossed."""
        seen = {start}
        stack = [start]
        while stack:
            for e, end in self._incidence[stack.pop()]:
                b = e.v if end == 0 else e.u
                if b not in seen and (cut is None or cut.where != (b if cut.kind == "v" else e.name)):
                    seen.add(b)
                    stack.append(b)
        return seen

    # -- point factories -------------------------------------------------

    def vertex_point(self, name) -> GraphPoint:
        if name not in self._points:
            raise InputError(f"unknown vertex {name}")
        return self._points[name]

    def point_on(self, edge_name, offset) -> GraphPoint:
        """Point at rational distance `offset` from the edge's first end."""
        e = self.edges.get(edge_name)
        if e is None:
            raise InputError(f"unknown edge {edge_name}")
        offset = Fraction(offset)
        if offset < 0 or offset > e.length:
            raise InputError(f"offset {offset} outside edge {edge_name}")
        if offset == 0:
            return self._points[e.u]
        if offset == e.length:
            return self._points[e.v]
        return GraphPoint("e", edge_name, offset)

    def incident_edges(self, vertex):
        """The (edge, end) pairs at the vertex, in edge order; [] for an
        unknown vertex."""
        return list(self._incidence.get(vertex, ()))

    def degree(self, vertex):
        return len(self._incidence.get(vertex, ()))

    def first_betti(self):
        return len(self.edges) - len(self.vertices) + 1

    # -- refinements ------------------------------------------------------

    def refinement(self, extra_points=()):
        return Refinement(self, extra_points)


@dataclass(frozen=True)
class REdge:
    """A refined segment: a sub-interval of a base edge."""

    base: str
    lo: Fraction
    hi: Fraction
    ends: tuple  # (GraphPoint at lo, GraphPoint at hi)

    @property
    def length(self):
        return self.hi - self.lo


class Refinement:
    """Model refinement whose node set contains all requested points."""

    def __init__(self, model: GraphModel, extra_points=()):
        self.model = model
        inner = {name: [] for name in model.edges}
        for p in set(extra_points):
            if p.kind != "e":
                continue
            e = model.edges.get(p.where)
            if e is None:
                raise InputError(f"unknown edge {p.where}")
            if not 0 < p.offset < e.length:
                raise InputError(f"offset {p.offset} not inside edge {p.where}")
            inner[p.where].append(p)
        self.nodes = list(model._points.values())
        self.redges = []
        for name, e, pu, pv in model._rows:
            pts = sorted(inner[name], key=lambda p: p.offset)
            self.nodes += pts
            ends = [pu, *pts, pv]
            # GraphPoint's default offset: one zero shared by every refinement
            offs = [GraphPoint.offset, *(p.offset for p in pts), e.length]
            for k in range(len(ends) - 1):
                self.redges.append(REdge(name, offs[k], offs[k + 1], (ends[k], ends[k + 1])))
        self.adj = {n: [] for n in self.nodes}
        for i, re in enumerate(self.redges):
            self.adj[re.ends[0]].append((i, 0))
            self.adj[re.ends[1]].append((i, 1))


class ChipSum:
    """Finite integer combination of points, zero coefficients dropped: the
    arithmetic that divisors on the metric graph and on a curve share.  A
    subclass fixes how a divisor on its carrier is built (its constructor
    checks points from outside; `_like`, the unchecked builder, makes the
    results of `+`, `-` and `scale`), the point order (`_order`), the term
    format (`_term`) and which operands share its carrier (`_same`)."""

    def __init__(self, coeffs=None):
        self.coeffs = {}
        for p, c in (coeffs or {}).items():
            if c:
                self.coeffs[p] = int(c)

    @staticmethod
    def tally(pairs):
        """{point: summed coefficient} of (point, coefficient) pairs."""
        out = {}
        for p, c in pairs:
            out[p] = out.get(p, 0) + c
        return out

    def _same(self, o):
        """Whether o lives on the same carrier; a graph divisor does not
        carry its graph, so any two share one."""
        return True

    def degree(self):
        return sum(self.coeffs.values())

    def deg_plus(self):
        """Sum of the positive coefficients."""
        return sum(c for c in self.coeffs.values() if c > 0)

    def support(self):
        return set(self.coeffs)

    def get(self, p):
        return self.coeffs.get(p, 0)

    def is_effective(self):
        return all(c >= 0 for c in self.coeffs.values())

    def _combine(self, o, sign):
        """self + sign * o, as one new divisor."""
        if not self._same(o):
            raise InputError("cannot add divisors on different curves")
        out = dict(self.coeffs)
        for p, c in o.coeffs.items():
            out[p] = out.get(p, 0) + sign * c
        return self._like(out)

    def __add__(self, o):
        return self._combine(o, 1)

    def __sub__(self, o):
        return self._combine(o, -1)

    def scale(self, k):
        return self._like({p: c * k for p, c in self.coeffs.items()})

    def __eq__(self, o):
        return isinstance(o, type(self)) and self._same(o) and self.coeffs == o.coeffs

    def key(self):
        """Hashable and equal exactly when the divisors are: the (order,
        coefficient) pairs, sorted."""
        return tuple(sorted(zip(map(self._order, self.coeffs), self.coeffs.values())))

    def terms(self):
        """The (point, coefficient) pairs in point order."""
        return sorted(self.coeffs.items(), key=lambda kv: self._order(kv[0]))

    def __repr__(self):
        return " + ".join(self._term.format(p=p, c=c) for p, c in self.terms()) or "0"


class GraphDivisor(ChipSum):
    """Finite integer combination of points of the metric graph."""

    def _like(self, coeffs):
        return GraphDivisor(coeffs)

    _order = staticmethod(repr)
    _term = "{c}*{p}"

    @staticmethod
    def of(*pairs):
        return GraphDivisor(ChipSum.tally(pairs))


class PLFunction:
    """Continuous piecewise-linear function with integer slopes.

    Stored as one rational value per node of a refinement; linear on each
    refined segment.  Slope integrality is validated eagerly, and the slope
    of each refined segment (from its lo end) is kept.
    """

    def __init__(self, refinement: Refinement, values):
        self.ref = refinement
        self.values = dict(values)
        for n in refinement.nodes:
            if n not in self.values:
                raise InputError(f"no value at {n}")
        self.slopes = []
        for re in refinement.redges:
            s = (self.values[re.ends[1]] - self.values[re.ends[0]]) / re.length
            if s.denominator != 1:
                raise InputError(f"non-integer slope {s} on {re.base}[{re.lo},{re.hi}]")
            self.slopes.append(s.numerator)

    @staticmethod
    def constant(model: GraphModel, c=Fraction(0)):
        ref = model.refinement()
        return PLFunction(ref, {n: Fraction(c) for n in ref.nodes})

    def divisor(self) -> GraphDivisor:
        """div of the function: the sum of outgoing slopes at every node.
        Each segment's slope s leaves its lo end (+s there) and enters its
        hi end (-s there)."""
        return GraphDivisor(ChipSum.tally(
            (n, c) for re, s in zip(self.ref.redges, self.slopes)
            for n, c in ((re.ends[0], s), (re.ends[1], -s))))

    def __add__(self, o):
        if self.ref.model is not o.ref.model:
            raise InputError("functions live on different graphs")
        return PLFunction.sum(self.ref.model, [self, o])

    @staticmethod
    def sum(model: GraphModel, fs):
        """The sum of the functions, on one common refinement: the union of
        their interior nodes.  Vertex values add, first slopes add, and the
        slope changes at the functions' own nodes add, so each function is
        read once; from_slopes rebuilds the values."""
        first, bend = {}, {}  # edge -> summed first slope; node -> summed slope change
        for f in fs:
            for re, s in zip(f.ref.redges, f.slopes):
                if re.lo == 0:
                    first[re.base] = first.get(re.base, 0) + s
                else:
                    bend[re.ends[0]] = bend.get(re.ends[0], 0) + s - prev
                prev = s
        vals = {p: sum((f.values[p] for f in fs), Fraction(0)) for p in model._points.values()}
        points = [n for f in fs for n in f.ref.nodes if n.kind == "e"]
        return PLFunction.from_slopes(model, points, vals, first, bend)

    @staticmethod
    def from_slopes(model: GraphModel, points, vertex_values, first, bend):
        """The function on the refinement by the interior points with the
        given model-vertex values, first slope per base edge and slope change
        per interior point (absent ones 0); a walk along each edge fills in
        the interior values."""
        ref = Refinement(model, points)
        vals = dict(vertex_values)
        for re in ref.redges:
            slope = first.get(re.base, 0) if re.lo == 0 else slope + bend.get(re.ends[0], 0)
            if re.ends[1].kind == "e":
                vals[re.ends[1]] = vals[re.ends[0]] + slope * re.length
        return PLFunction(ref, vals)

    def __repr__(self):
        vals = ", ".join(f"{n}:{v}" for n, v in sorted(self.values.items(), key=lambda kv: repr(kv[0])))
        return f"PL({vals})"


@dataclass(frozen=True)
class AcyclicOrientation:
    """Direction per edge of a loopless model, with no directed cycle."""

    model: GraphModel
    directions: tuple  # tuple of (edge_name, flip) pairs; flip=0 means u->v

    def __post_init__(self):
        if _has_directed_cycle(self.model, dict(self.directions)):
            raise InputError("orientation has a directed cycle")

    def as_dict(self):
        return dict(self.directions)

    def tail(self, edge_name):
        e = self.model.edges[edge_name]
        return e.u if self.as_dict()[edge_name] == 0 else e.v

    def out_edges(self, vertex):
        return [name for name in self.model.edges if self.tail(name) == vertex]

    def deg_plus(self, vertex) -> int:
        return len(self.out_edges(vertex))

    def reversed(self):
        return AcyclicOrientation(
            self.model, tuple((n, 1 - f) for n, f in self.directions)
        )


def _has_directed_cycle(model, dirs):
    outs = {v: [] for v in model.vertices}
    for name, e in model.edges.items():
        if dirs[name] == 0:
            outs[e.u].append(e.v)
        else:
            outs[e.v].append(e.u)
    color = {v: 0 for v in model.vertices}

    def visit(v):
        color[v] = 1
        for w in outs[v]:
            if color[w] == 1:
                return True
            if color[w] == 0 and visit(w):
                return True
        color[v] = 2
        return False

    return any(color[v] == 0 and visit(v) for v in model.vertices)


def enumerate_acyclic_orientations(model: GraphModel):
    """All acyclic orientations."""
    names = sorted(model.edges)
    for flips in itertools.product((0, 1), repeat=len(names)):
        dirs = dict(zip(names, flips))
        if _has_directed_cycle(model, dirs):
            continue
        yield AcyclicOrientation(model, tuple(zip(names, flips)))
