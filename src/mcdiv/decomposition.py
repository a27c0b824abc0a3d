"""Decomposition formulas for ranks: eta twist thresholds at an attachment
point, connected sums over a bridge, wedges of metric graphs, the weighted
rank of a vertex-weighted graph, the vertex-twist upper bound, and the
Brill-Noether existence search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .complexes import ComplexDivisor, MetrizedComplex, graphical_complex
from .curves import CurveOracle
from .errors import BudgetError, FieldTooSmallError, InputError
from .metric import GraphDivisor, GraphModel, GraphPoint
from .rank import point_divisor, rank


class EtaFunction:
    """eta(k): the smallest twist n at the attachment point making the
    divisor reach rank k; strictly increasing with a linear tail."""

    def __init__(self, cx, d, x, seed=0):
        self.cx = cx
        self.d = d
        self.x = x
        self.seed = seed
        self.memo = {}

    def __call__(self, k: int) -> int:
        if k < 0:
            raise InputError("eta is defined for k >= 0")
        if k in self.memo:
            return self.memo[k]
        lo = k - self.d.degree()
        if k - 1 in self.memo:
            lo = max(lo, self.memo[k - 1] + 1)
        n = lo
        while True:
            r = rank(
                self.cx, self.d + point_divisor(self.cx, self.x, n), seed=self.seed
            )
            if r >= k:
                self.memo[k] = n
                return n
            n += 1


def eta(cx, d, x, k, seed=0) -> int:
    return EtaFunction(cx, d, x, seed)(k)


def eta_v(oracle: CurveOracle, d_v, marks, k: int, bound=None) -> int:
    """Smallest n >= 0 such that some divisor supported on the marked
    points, with coefficients bounded by `bound`, lifts d_v to rank
    exactly k at degree n."""
    marks = list(marks)
    g = oracle.genus
    deg = d_v.degree()
    if bound is None:
        bound = g + k + abs(deg) + 2
    limit = k + 3 * g + abs(deg) + bound + 2
    for n in range(max(k, 0), limit + 1):
        target = n - deg
        if marks:
            for combo in itertools.product(range(-bound, bound + 1), repeat=len(marks)):
                if sum(combo) != target:
                    continue
                twist = oracle.zero_divisor()
                for p, c in zip(marks, combo):
                    if c:
                        twist = twist + oracle.divisor((p, c))
                if oracle.curve_rank(d_v + twist) == k:
                    return n
        else:
            if target == 0 and oracle.curve_rank(d_v) == k:
                return n
    raise BudgetError(f"eta_v: no certificate within coefficient bound {bound}")


# -- connected sums ----------------------------------------------------------


@dataclass
class GluedComplex:
    """Two complexes joined by a bridge edge; knows how to transport
    divisors from either side."""

    complex: MetrizedComplex
    vertex_map: dict  # (side, old vertex) -> new vertex
    edge_map: dict  # (side, old edge) -> new edge

    def lift(self, side: int, d: ComplexDivisor) -> ComplexDivisor:
        graph = []
        for p, c in d.graph.coeffs.items():
            if p.kind == "v":
                q = self.complex.model.vertex_point(self.vertex_map[(side, p.where)])
            else:
                q = self.complex.model.point_on(
                    self.edge_map[(side, p.where)], p.offset
                )
            graph.append((q, c))
        # the glued complex shares the pieces' oracles; the divisor
        # constructor rejects a curve part built on any other oracle
        curves = {self.vertex_map[(side, v)]: dv for v, dv in d.curves.items()}
        return self.complex.divisor(graph_pairs=graph, curve_parts=curves)

    def lift_point(self, side: int, pt):
        if isinstance(pt, GraphPoint):
            if pt.kind == "v":
                return self.complex.model.vertex_point(self.vertex_map[(side, pt.where)])
            return self.complex.model.point_on(self.edge_map[(side, pt.where)], pt.offset)
        v, p = pt
        return (self.vertex_map[(side, v)], p)


def glue(cx1, x1, cx2, x2, bridge_length=Fraction(1)) -> GluedComplex:
    """Join two complexes with a bridge between attachment points.

    Attachment points are curve points on oracle vertices (they become
    marked points of the bridge end; collisions with existing marks are
    rejected) or graphical model vertices.
    """
    bridge_length = Fraction(bridge_length)
    if bridge_length <= 0:
        raise InputError("bridge length must be positive")
    vmap, emap = {}, {}
    vertices, edges = [], []
    oracles, marks = {}, {}
    for side, cx in ((1, cx1), (2, cx2)):
        for v in cx.model.vertices:
            nv = f"{side}.{v}"
            vmap[(side, v)] = nv
            vertices.append(nv)
        for name, e in cx.model.edges.items():
            ne = f"{side}.{name}"
            emap[(side, name)] = ne
            edges.append((ne, vmap[(side, e.u)], vmap[(side, e.v)], e.length))

    def attach_vertex(side, cx, x):
        if isinstance(x, GraphPoint):
            if x.kind != "v":
                raise InputError("attach at a model vertex or a curve point")
            if cx.is_oracle_vertex(x.where):
                raise InputError("vertex carries a curve; attach at a curve point")
            return vmap[(side, x.where)], None
        v, p = x
        cx.oracles[v].validate_point(p)
        for q in cx.marks[v].values():
            if cx.oracles[v].point_key(q) == cx.oracles[v].point_key(p):
                raise InputError(f"attachment point collides with a marked point at {v}")
        return vmap[(side, v)], p

    a1, p1 = attach_vertex(1, cx1, x1)
    a2, p2 = attach_vertex(2, cx2, x2)
    edges.append(("bridge", a1, a2, bridge_length))
    model = GraphModel(vertices, edges)
    for side, cx in ((1, cx1), (2, cx2)):
        for v in cx.model.vertices:
            nv = vmap[(side, v)]
            if cx.is_oracle_vertex(v):
                oracles[nv] = cx.oracles[v]
                marks[nv] = {
                    (emap[(side, e)], end): pt
                    for (e, end), pt in cx.marks[v].items()
                }
    if p1 is not None:
        marks[a1][("bridge", 0)] = p1
    if p2 is not None:
        marks[a2][("bridge", 1)] = p2
    return GluedComplex(MetrizedComplex(model, oracles, marks), vmap, emap)


def connected_sum_rank(cx1, d1, x1, cx2, d2, x2, seed=0) -> int:
    """Rank of d1 + d2 on the connected sum, computed from the two pieces:
    min over k of k + rank(piece 1 with the piece-2 twist threshold
    removed at the attachment point)."""
    eta2 = EtaFunction(cx2, d2, x2, seed=seed)
    cap = max(d1.degree() + d2.degree() + cx2.genus() + 1, 0)
    best = None
    for k in range(cap + 1):
        n = eta2(k)
        term = k + rank(cx1, d1 - point_divisor(cx1, x1, n), seed=seed)
        if best is None or term < best:
            best = term
    return best


# -- wedges of metric graphs --------------------------------------------------


def wedge_model(model1: GraphModel, v1: str, model2: GraphModel, v2: str):
    """Metric graph obtained by identifying v1 with v2; returns the model,
    the joint vertex name, and point translators for each side."""
    vertices = []
    vmap = {}
    joint = "w"
    vertices.append(joint)
    for side, (m, vx) in ((1, (model1, v1)), (2, (model2, v2))):
        for v in m.vertices:
            if v == vx:
                vmap[(side, v)] = joint
            else:
                nv = f"{side}.{v}"
                vmap[(side, v)] = nv
                vertices.append(nv)
    edges = []
    emap = {}
    for side, m in ((1, model1), (2, model2)):
        for name, e in m.edges.items():
            ne = f"{side}.{name}"
            emap[(side, name)] = ne
            edges.append((ne, vmap[(side, e.u)], vmap[(side, e.v)], e.length))
    model = GraphModel(vertices, edges)

    def carry(side, d: GraphDivisor) -> GraphDivisor:
        out = {}
        for p, c in d.coeffs.items():
            if p.kind == "v":
                q = model.vertex_point(vmap[(side, p.where)])
            else:
                q = model.point_on(emap[(side, p.where)], p.offset)
            out[q] = out.get(q, 0) + c
        return GraphDivisor(out)

    return model, joint, carry


def graph_rank(model: GraphModel, d: GraphDivisor, seed=0) -> int:
    """Rank of a divisor on a bare metric graph."""
    cx = graphical_complex(model)
    return rank(cx, cx.lift_graph_divisor(d), seed=seed)


def wedge_rank(model1, d1, v1, model2, d2, v2, seed=0) -> int:
    """The wedge formula: min over k of k + rank(side 1 twisted down by
    the side-2 threshold at the joint)."""
    cx2 = graphical_complex(model2)
    eta2 = EtaFunction(cx2, cx2.lift_graph_divisor(d2), model2.vertex_point(v2), seed)
    cx1 = graphical_complex(model1)
    base1 = cx1.lift_graph_divisor(d1)
    vp1 = model1.vertex_point(v1)
    cap = max(d1.degree() + d2.degree() + cx2.genus() + 1, 0)
    best = None
    for k in range(cap + 1):
        n = eta2(k)
        term = k + rank(cx1, base1 - point_divisor(cx1, vp1, n), seed=seed)
        if best is None or term < best:
            best = term
    return best


# -- weighted graphs -----------------------------------------------------------


@dataclass
class WeightedGraph:
    """Metric graph with a non-negative integer weight per model vertex."""

    model: GraphModel
    weights: dict

    def __post_init__(self):
        for v, w in self.weights.items():
            if v not in self.model.vertices:
                raise InputError(f"weight on unknown vertex {v}")
            if w < 0:
                raise InputError("weights must be non-negative")

    def weight(self, v):
        return self.weights.get(v, 0)

    def weight_divisor(self) -> GraphDivisor:
        return GraphDivisor(
            {
                self.model.vertex_point(v): w
                for v, w in self.weights.items()
                if w
            }
        )


def weighted_rank(wg: WeightedGraph, d: GraphDivisor, seed=0) -> int:
    """min over 0 <= E <= weights of deg(E) + rank(d - 2E) on the bare
    graph; equals the rank of d on the loop-augmented graph."""
    cx = graphical_complex(wg.model)
    vs = [v for v in wg.model.vertices if wg.weight(v) > 0]
    ranges = [range(wg.weight(v) + 1) for v in vs]
    best = None
    for combo in itertools.product(*ranges) if vs else [()]:
        e = GraphDivisor(
            {wg.model.vertex_point(v): c for v, c in zip(vs, combo) if c}
        )
        term = e.degree() + rank(cx, cx.lift_graph_divisor(d - e.scale(2)), seed=seed)
        if best is None or term < best:
            best = term
    return best


def gamma_sharp(wg: WeightedGraph, loop_lengths=None) -> GraphModel:
    """The graph with weight(v) loops attached at each vertex (normalized
    at their midpoints)."""
    edges = [
        (name, e.u, e.v, e.length) for name, e in wg.model.edges.items()
    ]
    for v in wg.model.vertices:
        for i in range(wg.weight(v)):
            ll = Fraction(1)
            if loop_lengths is not None:
                ll = Fraction(loop_lengths.get((v, i), 1))
            if ll <= 0:
                raise InputError("loop lengths must be positive")
            edges.append((f"{v}~loop{i}", v, v, ll))
    return GraphModel(list(wg.model.vertices), edges)


def sharp_rank(wg: WeightedGraph, d: GraphDivisor, loop_lengths=None, seed=0) -> int:
    """Direct rank of d on the loop-augmented graph."""
    sharp = gamma_sharp(wg, loop_lengths)
    out = {}
    for p, c in d.coeffs.items():
        if p.kind == "v":
            out[sharp.vertex_point(p.where)] = c
        else:
            out[sharp.point_on(p.where, p.offset)] = c
    return graph_rank(sharp, GraphDivisor(out), seed=seed)


# -- vertex-twist upper bound ---------------------------------------------------


def wrank3_bound(cx: MetrizedComplex, d: ComplexDivisor, coeff_cap=2, seed=0,
                 eta_bound=None) -> int:
    """Upper bound for the rank: min over effective vertex-supported E of
    deg(E) + graph rank of the gamma part twisted down by the per-vertex
    thresholds."""
    vs = cx.oracle_vertices()
    d_gamma = d.gamma_part()
    etas = {}
    for v in vs:
        o = cx.oracles[v]
        marks = sorted(cx.marks[v].values(), key=o.point_key)
        etas[v] = {
            k: eta_v(o, d.curve_part(v), marks, k, bound=eta_bound)
            for k in range(coeff_cap + 1)
        }
    gcx = graphical_complex(cx.model)
    best = None
    for combo in itertools.product(range(coeff_cap + 1), repeat=len(vs)):
        twist = GraphDivisor(
            {
                cx.model.vertex_point(v): etas[v][c]
                for v, c in zip(vs, combo)
                if etas[v][c]
            }
        )
        term = sum(combo) + rank(gcx, gcx.lift_graph_divisor(d_gamma - twist), seed=seed)
        if best is None or term < best:
            best = term
    return best


# -- Brill-Noether existence search ----------------------------------------------


def brill_noether_number(g: int, r: int, d: int) -> int:
    return g - (r + 1) * (g - d + r)


def bn_grid(cx, max_den=4):
    """Deterministic pool of effective-divisor sites: graphical vertices,
    curve sample points, and j/q interior points for q <= max_den."""
    pts = []
    for w in cx.graphical_vertices():
        pts.append(cx.model.vertex_point(w))
    for v in cx.oracle_vertices():
        o = cx.oracles[v]
        marked = list(cx.marks[v].values())
        try:
            samples = o.sample_points(o.genus + 2, avoid=marked)
        except FieldTooSmallError:
            samples = o.sample_points(1)
        pts.extend((v, p) for p in samples)
    for name, e in sorted(cx.model.edges.items()):
        seen = set()
        for q in range(2, max_den + 1):
            for j in range(1, q):
                off = e.length * Fraction(j, q)
                if off not in seen:
                    seen.add(off)
                    pts.append(cx.model.point_on(name, off))
    return pts


def bn_search(cx, d: int, r: int, budget=2000, seed=0):
    """First effective degree-d divisor of rank >= r over the grid, or
    None when the budget runs out (a reportable incident when the
    Brill-Noether number is non-negative)."""
    grid = bn_grid(cx)
    tried = 0
    for combo in itertools.combinations_with_replacement(range(len(grid)), d):
        div = cx.zero_divisor()
        for i in combo:
            div = div + point_divisor(cx, grid[i], 1)
        tried += 1
        if rank(cx, div, seed=seed) >= r:
            return div, tried
        if tried >= budget:
            return None, tried
    return None, tried
