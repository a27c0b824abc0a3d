"""Metric graphs with a distinguished model: points, divisors on the graph,
continuous piecewise-linear functions with integer slopes, and acyclic
orientations.

A model is a finite connected multigraph with positive rational edge
lengths.  Loop edges are normalized away at construction time by inserting
a break vertex at the loop midpoint; the underlying metric graph is
unchanged.  All point coordinates are rational offsets along base edges.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError


@dataclass(frozen=True)
class GraphPoint:
    kind: str  # "v" for a model vertex, "e" for an interior edge point
    where: str  # vertex name or edge name
    offset: Fraction = Fraction(0)

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
        vset = set(self.vertices)
        self.edges = {}
        self.loop_break_vertices = set()
        for name, u, v, length in edges:
            length = Fraction(length)
            if length <= 0:
                raise InputError(f"edge {name}: length must be positive")
            if u not in vset or v not in vset:
                raise InputError(f"edge {name}: unknown endpoint")
            if name in self.edges:
                raise InputError(f"duplicate edge name {name}")
            if u == v:
                mid = f"{name}~mid"
                if mid in vset:
                    raise InputError(f"vertex name {mid} collides with loop split")
                self.vertices.append(mid)
                vset.add(mid)
                self.loop_break_vertices.add(mid)
                half = length / 2
                self.edges[f"{name}~a"] = Edge(f"{name}~a", u, mid, half)
                self.edges[f"{name}~b"] = Edge(f"{name}~b", mid, u, half)
            else:
                self.edges[name] = Edge(name, u, v, length)
        self._check_connected()

    def _check_connected(self):
        if not self.vertices:
            raise InputError("empty graph")
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            w = stack.pop()
            for e in self.edges.values():
                for a, b in ((e.u, e.v), (e.v, e.u)):
                    if a == w and b not in seen:
                        seen.add(b)
                        stack.append(b)
        if seen != set(self.vertices):
            raise InputError("graph is not connected")

    # -- point factories -------------------------------------------------

    def vertex_point(self, name) -> GraphPoint:
        if name not in set(self.vertices):
            raise InputError(f"unknown vertex {name}")
        return GraphPoint("v", name)

    def point_on(self, edge_name, offset) -> GraphPoint:
        """Point at rational distance `offset` from the edge's first end."""
        e = self.edges.get(edge_name)
        if e is None:
            raise InputError(f"unknown edge {edge_name}")
        offset = Fraction(offset)
        if offset < 0 or offset > e.length:
            raise InputError(f"offset {offset} outside edge {edge_name}")
        if offset == 0:
            return GraphPoint("v", e.u)
        if offset == e.length:
            return GraphPoint("v", e.v)
        return GraphPoint("e", edge_name, offset)

    def incident_edges(self, vertex):
        out = []
        for e in self.edges.values():
            if e.u == vertex:
                out.append((e, 0))
            if e.v == vertex:
                out.append((e, 1))
        return out

    def degree(self, vertex):
        return len(self.incident_edges(vertex))

    def first_betti(self):
        return len(self.edges) - len(self.vertices) + 1

    def total_length(self):
        return sum((e.length for e in self.edges.values()), Fraction(0))

    # -- refinements ------------------------------------------------------

    def refinement(self, extra_points=()):
        return Refinement(self, extra_points)

    def distance(self, p: GraphPoint, q: GraphPoint) -> Fraction:
        """Shortest-path distance between two points of the metric graph."""
        ref = self.refinement([x for x in (p, q) if x.kind == "e"])
        dist = {n: None for n in ref.nodes}
        dist[p] = Fraction(0)
        heap = [(Fraction(0), repr(p), p)]
        while heap:
            d, _, x = heapq.heappop(heap)
            if dist[x] is not None and d > dist[x]:
                continue
            for ei, end in ref.adj[x]:
                y = ref.redges[ei].ends[1 - end]
                nd = d + ref.redges[ei].length
                if dist[y] is None or nd < dist[y]:
                    dist[y] = nd
                    heapq.heappush(heap, (nd, repr(y), y))
        return dist[q]


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
        cuts = {name: set() for name in model.edges}
        for p in extra_points:
            if p.kind == "e":
                cuts[p.where].add(p.offset)
        self.nodes = [model.vertex_point(v) for v in model.vertices]
        self.redges = []
        for name, e in sorted(model.edges.items()):
            offs = [Fraction(0)] + sorted(cuts[name]) + [e.length]
            for lo, hi in zip(offs, offs[1:]):
                a = model.point_on(name, lo)
                b = model.point_on(name, hi)
                if a.kind == "e" and a not in self.nodes:
                    self.nodes.append(a)
                if b.kind == "e" and b not in self.nodes:
                    self.nodes.append(b)
                self.redges.append(REdge(name, lo, hi, (a, b)))
        self.adj = {n: [] for n in self.nodes}
        for i, re in enumerate(self.redges):
            self.adj[re.ends[0]].append((i, 0))
            self.adj[re.ends[1]].append((i, 1))

    def node_degree(self, p):
        return len(self.adj[p])

    def with_points(self, pts):
        """A common refinement including the given extra interior points."""
        extra = [n for n in self.nodes if n.kind == "e"]
        extra += [p for p in pts if p.kind == "e"]
        return Refinement(self.model, extra)


class GraphDivisor:
    """Finite integer combination of points of the metric graph."""

    def __init__(self, coeffs=None):
        self.coeffs = {}
        for p, c in (coeffs or {}).items():
            if c:
                self.coeffs[p] = int(c)

    def degree(self):
        return sum(self.coeffs.values())

    def support(self):
        return set(self.coeffs)

    def get(self, p):
        return self.coeffs.get(p, 0)

    def is_effective(self):
        return all(c >= 0 for c in self.coeffs.values())

    def __add__(self, o):
        out = dict(self.coeffs)
        for p, c in o.coeffs.items():
            out[p] = out.get(p, 0) + c
        return GraphDivisor(out)

    def __sub__(self, o):
        return self + o.scale(-1)

    def scale(self, k):
        return GraphDivisor({p: c * k for p, c in self.coeffs.items()})

    def __eq__(self, o):
        return isinstance(o, GraphDivisor) and self.coeffs == o.coeffs

    def key(self):
        return tuple(sorted(self.coeffs.items(), key=lambda kv: repr(kv[0])))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c}*{p}" for p, c in sorted(self.coeffs.items(), key=lambda kv: repr(kv[0])))

    @staticmethod
    def of(*pairs):
        d = {}
        for p, c in pairs:
            d[p] = d.get(p, 0) + c
        return GraphDivisor(d)


class PLFunction:
    """Continuous piecewise-linear function with integer slopes.

    Stored as one rational value per node of a refinement; linear on each
    refined segment.  Slope integrality is validated eagerly.
    """

    def __init__(self, refinement: Refinement, values):
        self.ref = refinement
        self.values = dict(values)
        for n in refinement.nodes:
            if n not in self.values:
                raise InputError(f"no value at {n}")
        for re in refinement.redges:
            s = self._slope(re)
            if s.denominator != 1:
                raise InputError(f"non-integer slope {s} on {re.base}[{re.lo},{re.hi}]")

    def _slope(self, re: REdge) -> Fraction:
        return (self.values[re.ends[1]] - self.values[re.ends[0]]) / re.length

    @staticmethod
    def constant(model: GraphModel, c=Fraction(0)):
        ref = model.refinement()
        return PLFunction(ref, {n: Fraction(c) for n in ref.nodes})

    def value_at(self, p: GraphPoint) -> Fraction:
        if p in self.values:
            return self.values[p]
        if p.kind != "e":
            raise InputError(f"{p} not on the model")
        for re in self.ref.redges:
            if re.base == p.where and re.lo <= p.offset <= re.hi:
                t = (p.offset - re.lo) / re.length
                a, b = self.values[re.ends[0]], self.values[re.ends[1]]
                return a + (b - a) * t
        raise InputError(f"{p} not on the model")

    def outgoing_slope(self, node: GraphPoint, redge_index: int) -> int:
        re = self.ref.redges[redge_index]
        s = self._slope(re)
        if re.ends[0] == node:
            return int(s)
        if re.ends[1] == node:
            return int(-s)
        raise InputError("node not an end of the segment")

    def slope_at_edge_end(self, edge_name: str, end: int) -> int:
        """Outgoing slope at a base-edge endpoint along that edge."""
        segs = [r for r in self.ref.redges if r.base == edge_name]
        segs.sort(key=lambda r: r.lo)
        if end == 0:
            re = segs[0]
            return int(self._slope(re))
        re = segs[-1]
        return int(-self._slope(re))

    def divisor(self) -> GraphDivisor:
        """div of the function: sum of outgoing slopes at every break point."""
        out = {}
        for n in self.ref.nodes:
            s = 0
            for ei, _end in self.ref.adj[n]:
                s += self.outgoing_slope(n, ei)
            if s:
                out[n] = s
        return GraphDivisor(out)

    def __add__(self, o):
        if self.ref.model is not o.ref.model:
            raise InputError("functions live on different graphs")
        pts = [n for n in self.ref.nodes + o.ref.nodes if n.kind == "e"]
        ref = Refinement(self.ref.model, pts)
        vals = {n: self.value_at(n) + o.value_at(n) for n in ref.nodes}
        return PLFunction(ref, vals)

    def scale_int(self, k: int):
        return PLFunction(self.ref, {n: v * k for n, v in self.values.items()})

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

    def head(self, edge_name):
        e = self.model.edges[edge_name]
        return e.v if self.as_dict()[edge_name] == 0 else e.u

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


def enumerate_acyclic_orientations(model: GraphModel, sink=None):
    """All acyclic orientations; with `sink` given, only those whose unique
    sink is that vertex."""
    names = sorted(model.edges)
    for flips in itertools.product((0, 1), repeat=len(names)):
        dirs = dict(zip(names, flips))
        if _has_directed_cycle(model, dirs):
            continue
        pi = AcyclicOrientation(model, tuple(zip(names, flips)))
        if sink is not None:
            outdegs = {v: pi.deg_plus(v) for v in model.vertices}
            if outdegs[sink] != 0:
                continue
            if any(d == 0 for v, d in outdegs.items() if v != sink):
                continue
        yield pi
