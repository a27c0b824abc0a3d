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
from .errors import BudgetError, InputError
from .metric import GraphDivisor, GraphModel, GraphPoint
from .rank import _first_twist, edge_grid, point_divisor, rank


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
        self.memo[k] = _first_twist(
            self.cx, self.d, self.x, k, lo, lambda e: rank(self.cx, e, seed=self.seed)
        )
        return self.memo[k]


def eta(cx, d, x, k, seed=0) -> int:
    return EtaFunction(cx, d, x, seed)(k)


def eta_v(oracle: CurveOracle, d_v, marks, k: int) -> int:
    """Smallest n >= 0 such that some divisor supported on the marked
    points, with coefficients bounded by genus + k + |deg d_v| + 2, lifts
    d_v to rank exactly k at degree n."""
    marks = list(marks)
    g = oracle.genus
    deg = d_v.degree()
    bound = g + k + abs(deg) + 2
    limit = k + 3 * g + abs(deg) + bound + 2
    for n in range(max(k, 0), limit + 1):
        target = n - deg
        if marks:
            for combo in itertools.product(range(-bound, bound + 1), repeat=len(marks)):
                if sum(combo) != target:
                    continue
                twist = oracle.divisor(*zip(marks, combo))
                if oracle.curve_rank(d_v + twist) == k:
                    return n
        else:
            if target == 0 and oracle.curve_rank(d_v) == k:
                return n
    raise BudgetError(f"eta_v: no certificate within coefficient bound {bound}")


# -- connected sums ----------------------------------------------------------


def _carry(model, vmap, emap, side, p: GraphPoint) -> GraphPoint:
    """The point of `model` that p of piece `side` becomes, through the
    maps (side, old vertex) -> new vertex and (side, old edge) -> new edge."""
    if p.kind == "v":
        return model.vertex_point(vmap[(side, p.where)])
    return model.point_on(emap[(side, p.where)], p.offset)


@dataclass
class GluedComplex:
    """Two complexes joined by a bridge edge; knows how to transport
    divisors from either side."""

    complex: MetrizedComplex
    vertex_map: dict  # (side, old vertex) -> new vertex
    edge_map: dict  # (side, old edge) -> new edge

    def lift(self, side: int, d: ComplexDivisor) -> ComplexDivisor:
        graph = [(self.lift_point(side, p), c) for p, c in d.graph.coeffs.items()]
        # the glued complex shares the pieces' oracles; the divisor
        # constructor rejects a curve part built on any other oracle
        curves = {self.vertex_map[(side, v)]: dv for v, dv in d.curves.items()}
        return self.complex.divisor(graph_pairs=graph, curve_parts=curves)

    def lift_point(self, side: int, pt):
        if isinstance(pt, GraphPoint):
            return _carry(self.complex.model, self.vertex_map, self.edge_map, side, pt)
        v, p = pt
        return (self.vertex_map[(side, v)], p)


def check_attachment(cx, x):
    """Refuse a place x of cx that cannot end a bridge: one end attaches at
    a graphical model vertex, or at a curve point of an oracle vertex that
    is none of its marked points (it becomes the bridge end's mark)."""
    if isinstance(x, GraphPoint):
        if x.kind != "v":
            raise InputError("attach at a model vertex or a curve point")
        if cx.is_oracle_vertex(x.where):
            raise InputError(f"{x.where} carries a curve; attach at a curve point")
        return
    v, p = x
    if not cx.is_oracle_vertex(v):
        raise InputError(f"{v} carries no curve")
    o = cx.oracles[v]
    o.validate_point(p)
    if any(o.point_key(q) == o.point_key(p) for q in cx.marks[v].values()):
        raise InputError(f"attachment point collides with a marked point at {v}")


def _union(model1, model2, merged=None):
    """The two models side by side: vertex v and edge e of piece `side`
    become "side.v" and "side.e", except that `merged` may rename a vertex,
    keyed by (side, v).  Returns (vertices, edges, vertex map, edge map),
    piece 1 first; the maps are keyed by (side, old name)."""
    merged = merged or {}
    vmap, emap, edges = {}, {}, []
    for side, m in ((1, model1), (2, model2)):
        for v in m.vertices:
            vmap[(side, v)] = merged.get((side, v), f"{side}.{v}")
        for name, e in m.edges.items():
            emap[(side, name)] = ne = f"{side}.{name}"
            edges.append((ne, vmap[(side, e.u)], vmap[(side, e.v)], e.length))
    return list(dict.fromkeys(vmap.values())), edges, vmap, emap


def glue(cx1, x1, cx2, x2, bridge_length=Fraction(1)) -> GluedComplex:
    """Join two complexes with a bridge between attachment points, each
    checked by `check_attachment`."""
    bridge_length = Fraction(bridge_length)
    if bridge_length <= 0:
        raise InputError("bridge length must be positive")
    vertices, edges, vmap, emap = _union(cx1.model, cx2.model)
    oracles, marks, ends = {}, {}, []
    for side, cx, x in ((1, cx1, x1), (2, cx2, x2)):
        check_attachment(cx, x)
        for v in cx.oracle_vertices():
            nv = vmap[(side, v)]
            oracles[nv] = cx.oracles[v]
            marks[nv] = {(emap[(side, e)], end): pt for (e, end), pt in cx.marks[v].items()}
        if isinstance(x, GraphPoint):
            ends.append(vmap[(side, x.where)])
        else:
            ends.append(vmap[(side, x[0])])
            marks[ends[-1]][("bridge", side - 1)] = x[1]
    edges.append(("bridge", *ends, bridge_length))
    model = GraphModel(vertices, edges)
    return GluedComplex(MetrizedComplex(model, oracles, marks), vmap, emap)


def connected_sum_rank(cx1, d1, x1, cx2, d2, x2, seed=0) -> int:
    """Rank of d1 + d2 on the connected sum, computed from the two pieces:
    min over k of k + rank(piece 1 with the piece-2 twist threshold
    removed at the attachment point)."""
    eta2 = EtaFunction(cx2, d2, x2, seed=seed)
    cap = max(d1.degree() + d2.degree() + cx2.genus() + 1, 0)
    return min(k + rank(cx1, d1 - point_divisor(cx1, x1, eta2(k)), seed=seed)
               for k in range(cap + 1))


# -- wedges of metric graphs --------------------------------------------------


def wedge_model(model1: GraphModel, v1: str, model2: GraphModel, v2: str):
    """Metric graph obtained by identifying v1 with v2; returns the model,
    the joint vertex name, and point translators for each side."""
    joint = "w"
    vertices, edges, vmap, emap = _union(model1, model2, {(1, v1): joint, (2, v2): joint})
    model = GraphModel(vertices, edges)

    def carry(side, d: GraphDivisor) -> GraphDivisor:
        return GraphDivisor({_carry(model, vmap, emap, side, p): c for p, c in d.coeffs.items()})

    return model, joint, carry


def graph_rank(model: GraphModel, d: GraphDivisor, seed=0) -> int:
    """Rank of a divisor on a bare metric graph."""
    cx = graphical_complex(model)
    return rank(cx, cx.lift_graph_divisor(d), seed=seed)


def wedge_rank(model1, d1, v1, model2, d2, v2, seed=0) -> int:
    """The wedge formula: min over k of k + rank(side 1 twisted down by
    the side-2 threshold at the joint)."""
    cx1 = graphical_complex(model1)
    cx2 = graphical_complex(model2)
    return connected_sum_rank(
        cx1, cx1.lift_graph_divisor(d1), model1.vertex_point(v1),
        cx2, cx2.lift_graph_divisor(d2), model2.vertex_point(v2), seed=seed,
    )


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


def weighted_rank(wg: WeightedGraph, d: GraphDivisor, seed=0) -> int:
    """min over 0 <= E <= weights of deg(E) + rank(d - 2E) on the bare
    graph; equals the rank of d on the loop-augmented graph."""
    cx = graphical_complex(wg.model)
    vs = [v for v in wg.model.vertices if wg.weight(v) > 0]
    ranges = [range(wg.weight(v) + 1) for v in vs]

    def term(combo):
        e = GraphDivisor({wg.model.vertex_point(v): c for v, c in zip(vs, combo) if c})
        return e.degree() + rank(cx, cx.lift_graph_divisor(d - e.scale(2)), seed=seed)

    return min(map(term, itertools.product(*ranges)))


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
    """Direct rank of d on the loop-augmented graph, which keeps every vertex
    and edge name of wg.model, so d's points name the same places there."""
    return graph_rank(gamma_sharp(wg, loop_lengths), d, seed=seed)


# -- vertex-twist upper bound ---------------------------------------------------


def wrank3_bound(cx: MetrizedComplex, d: ComplexDivisor, coeff_cap=2, seed=0) -> int:
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
            k: eta_v(o, d.curve_part(v), marks, k)
            for k in range(coeff_cap + 1)
        }
    gcx = graphical_complex(cx.model)

    def term(combo):
        twist = GraphDivisor(
            {cx.model.vertex_point(v): etas[v][c] for v, c in zip(vs, combo) if etas[v][c]})
        return sum(combo) + rank(gcx, gcx.lift_graph_divisor(d_gamma - twist), seed=seed)

    # None when coeff_cap < 0 leaves no combination
    return min(map(term, itertools.product(range(coeff_cap + 1), repeat=len(vs))), default=None)


# -- Brill-Noether existence search ----------------------------------------------


def brill_noether_number(g: int, r: int, d: int) -> int:
    return g - (r + 1) * (g - d + r)


def bn_grid(cx):
    """Deterministic pool of effective-divisor sites: graphical vertices,
    curve sample points, and j/q interior points for q <= 4."""
    pts = []
    for w in cx.graphical_vertices():
        pts.append(cx.model.vertex_point(w))
    for v in cx.oracle_vertices():
        o = cx.oracles[v]
        marked = list(cx.marks[v].values())
        pts.extend((v, p) for p in o.pool(o.genus + 2, avoid=marked))
    return pts + edge_grid(cx.model, 4)


def bn_search(cx, d: int, r: int, budget=2000, seed=0):
    """First effective degree-d divisor of rank >= r over the grid, or
    None when the budget runs out (a reportable incident when the
    Brill-Noether number is non-negative)."""
    grid = bn_grid(cx)
    tried = 0
    for combo in itertools.combinations_with_replacement(range(len(grid)), d):
        div = cx.chips((grid[i], 1) for i in combo)
        tried += 1
        if rank(cx, div, seed=seed) >= r:
            return div, tried
        if tried >= budget:
            return None, tried
    return None, tried
