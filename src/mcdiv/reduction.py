"""Reduced divisors on metrized complexes: generalized burning, saturated
cuts, event-driven cut firing, and base-point reduction with an exact
linear-equivalence witness.

The burning rule: fire lit at the base point spreads along segments; a
graphical point withstands it exactly when the number of burnt incoming
directions stays within its coefficient, and an oracle vertex withstands
it exactly when removing the marked points of the burnt directions leaves
a curve divisor of non-negative rank.  The set of surviving points is the
maximal saturated cut avoiding the base point, and firing it moves every
boundary chip one event step toward the fire's origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .complexes import ComplexDivisor, ComplexRationalFunction, MetrizedComplex
from .complexes import _add_chips, _end_of_redge
from .errors import BudgetError, InputError, McdivError
from .metric import GraphDivisor, GraphPoint, PLFunction, REdge

DEFAULT_EVENT_CAP = 10**6


@dataclass
class Cut:
    """A closed region of the graph: its surviving nodes in a refinement
    and its fronts, each boundary node mapped to the refined segments that
    leave the region there.  The builder of a cut records the fronts as it
    finds the region, and need not build the refinement."""

    points: list  # the refinement's interior points
    nodes: set  # surviving GraphPoints
    fronts: dict  # boundary GraphPoint -> [REdge] leaving the region there


@dataclass
class Move:
    """A firing event as a rational function: 0 on the cut's region, slope
    -1 from each boundary node out to its landing, -eps beyond; plus the
    principal shift at each renormalized boundary oracle vertex."""

    cut: Cut
    eps: Fraction
    landings: list  # (boundary node, front segment, landing point)
    shifts: dict  # oracle vertex -> CurveDivisor


def _withstands(cx, d, x, segs) -> bool:
    """Whether the node x withstands fire reaching it along the refined
    segments segs.  At an oracle vertex: the curve part minus the marked
    points the segments meet has non-negative rank, read from its class.
    Elsewhere: the coefficient covers the number of segments."""
    if x.kind == "v" and cx.is_oracle_vertex(x.where):
        v = x.where
        burnt = ((cx.marks[v][_end_of_redge(cx, v, re)], -1) for re in segs)
        return cx.oracles[v].nonneg_rank(chain(d.curve_part(v).coeffs.items(), burnt))
    return len(segs) <= d.graph.get(x)


def _debts(cx, d, v0, owed):
    """What keeps d from being normalized away from v0: (need, repr, point)
    for every negative coefficient and every oracle vertex whose part has
    negative rank, need being the chips it lacks (at least 1).  Only the
    oracle vertices missing from owed are scored, into owed (None: no debt)."""
    for v in cx.oracle_vertices():
        vp = cx.model.vertex_point(v)
        if v not in owed and vp != v0:
            o = cx.oracles[v]
            part = d.curve_part(v)
            owed[v] = (max(o.genus - part.degree(), 1), repr(vp), vp) if o.curve_rank(part) < 0 else None
    debts = [(-c, repr(p), p) for p, c in d.graph.coeffs.items() if c < 0 and p != v0]
    return debts + [t for t in owed.values() if t]


def _spread(ref, v0, joins):
    """Dhar's worklist walk over the refinement from v0: a node reached
    along the segments segs joins when joins(node, segs), and the walk goes
    on from it, so each segment is crossed once.  Returns the joined nodes
    (v0 among them) and {node reached: the segments it was reached along}."""
    joined = {v0}
    reached = {}
    todo = [v0]
    while todo:
        x = todo.pop()
        for i, end in ref.adj[x]:
            re = ref.redges[i]
            y = re.ends[1 - end]
            if y in joined:
                continue
            segs = reached.setdefault(y, [])
            segs.append(re)
            if joins(y, segs):
                joined.add(y)
                todo.append(y)
    return joined, reached


def burn(cx: MetrizedComplex, d: ComplexDivisor, v0: GraphPoint) -> Cut | None:
    """Run the burning pass from v0 on a normalized divisor.

    Returns None when everything burns (the divisor is v0-reduced), else
    the surviving region as a Cut: the maximal saturated cut avoiding v0.
    The fire spreads by _spread to every node that does not withstand it.
    The segments along which the fire reached a surviving node are the
    fronts of the cut at that node.  Burns share one read-only refinement
    per interior support (the chips and v0 inside edges), cx.refinement_memo.
    """
    debts = _debts(cx, d, v0, {})
    if debts:
        raise InputError(f"unnormalized input: debt at {max(debts)[2]}")
    inner = frozenset(p for p in chain(d.graph.coeffs, (v0,)) if p.kind == "e")
    ref = cx.refinement_memo.get(inner)
    if ref is None:
        ref = cx.refinement_memo[inner] = cx.model.refinement(inner)
    if v0 not in ref.adj:
        raise InputError(f"{v0} is not a point of the graph")
    burnt, reached = _spread(ref, v0, lambda y, segs: not _withstands(cx, d, y, segs))
    if len(burnt) == len(ref.nodes):
        return None
    nodes = {x for x in ref.nodes if x not in burnt}
    fronts = {y: segs for y, segs in reached.items() if y not in burnt}
    return Cut([n for n in ref.nodes if n.kind == "e"], nodes, fronts)


def check_saturated(cx, d, cut: Cut) -> bool:
    """Every boundary point absorbs its outgoing firing."""
    return all(_withstands(cx, d, x, segs) for x, segs in cut.fronts.items())


def fire_cut(cx, d: ComplexDivisor, cut: Cut, debt_mode=False):
    """Fire the region: one unit of slope on every segment of its fronts,
    with the largest event-driven step eps, the shortest such segment.

    Each front segment has one end in the region and moves one chip from
    that boundary node to the point at distance eps along it; at an oracle
    vertex the chip leaves or lands on the marked point the segment meets.
    Boundary oracle vertices are then renormalized to an effective
    representative when their part has non-negative rank; each shift is
    checked to be principal (classes_equal of the two representatives).

    Returns (new divisor, move): the move is the record of this event
    (its step is move.eps) whose sum with others _witness turns into a
    rational function.  Outside debt_mode the cut must be saturated.
    """
    if not debt_mode and not check_saturated(cx, d, cut):
        raise McdivError("internal error: firing an unsaturated cut")
    if not cut.fronts:
        raise McdivError("internal error: cut has no outgoing segment")
    spans = [(x, re, re.hi - re.lo) for x, segs in cut.fronts.items() for re in segs]
    eps = min(span for _, _, span in spans)
    graph = dict(d.graph.coeffs)
    ends, landings = {}, []
    for x, re, span in spans:
        # a shortest segment lands on its far end, any other strictly inside
        fwd = re.ends[0] == x
        far = re.ends[1] if fwd else re.ends[0]
        land = far if span == eps else GraphPoint("e", re.base, re.lo + eps if fwd else re.hi - eps)
        _add_chips(cx, graph, ends, x, re, -1)
        _add_chips(cx, graph, ends, land, re, 1)
        landings.append((x, re, land))
    curves = dict(d.curves)
    shifts = {}
    for v, ps in ends.items():
        o = cx.oracles[v]
        curves[v] = part = d.curve_part(v) + cx._on_marks(v, ps)
        # renormalize a boundary oracle vertex inside its curve-divisor class
        if cx.model.vertex_point(v) not in cut.fronts or o.curve_rank(part) < 0:
            continue
        rep = o.effective_representative(part)
        shift = rep - part
        if shift.coeffs:
            if not o.classes_equal(rep, part):
                raise McdivError("internal error: renormalization left the class")
            shifts[v] = shift
            curves[v] = rep
    d_new = ComplexDivisor._unchecked(cx, GraphDivisor(graph), curves)
    return d_new, Move(cut, eps, landings, shifts)


def _witness(cx, moves) -> ComplexRationalFunction:
    """The sum of the moves as one rational function, walked once by
    PLFunction.from_slopes on the refinement by every move's interior nodes
    and landings.  A move adds -eps at the vertices outside its region, and
    a first slope or bend where each stretch from a boundary node to its
    landing starts, the opposite bend where it ends.  Per oracle vertex the
    shifts add up to one principal divisor, passed on as it is on every
    curve."""
    vals = dict.fromkeys(map(cx.model.vertex_point, cx.model.vertices), Fraction(0))
    points, first, bend, shifts = [], {}, {}, {}
    for mv in moves:
        points += mv.cut.points
        for n in vals:
            if n not in mv.cut.nodes:
                vals[n] -= mv.eps
        for x, re, land in mv.landings:
            points.append(land)
            # the stretch from a to b (in the edge's direction) has slope s
            a, b, s = (x, land, -1) if re.ends[0] == x else (land, x, 1)
            if a.kind == "v":
                first[re.base] = first.get(re.base, 0) + s
            else:
                bend[a] = bend.get(a, 0) + s
            if b.kind == "e":
                bend[b] = bend.get(b, 0) - s
        for v, sh in mv.shifts.items():
            shifts[v] = shifts[v] + sh if v in shifts else sh
    f = PLFunction.from_slopes(cx.model, points, vals, first, bend)
    return ComplexRationalFunction(cx, f, {v: sh for v, sh in shifts.items() if sh.coeffs})


def _fire(cx, d, cut, moves, debt_mode, check):
    """Fire the cut through fire_cut and record its move in moves, if a list;
    with check, verify that d plus the move's function alone is the new divisor."""
    d_new, mv = fire_cut(cx, d, cut, debt_mode=debt_mode)
    if check and not (d + _witness(cx, [mv]).divisor() == d_new):
        raise McdivError("internal error: witness identity failed for a firing event")
    if moves is not None:
        moves.append(mv)
    return d_new


def _debt_cut(cx, d, v0, z):
    """The region of v0 in the graph minus z, on the refinement by d's
    support, v0 and z, read from z's star: one walk finds its vertices, an
    interior node joins with the end of its edge on its side of z, and each
    direction out of z into it has one front, the nearest node ahead."""
    model = cx.model
    points = {p for p in (*d.graph.coeffs, v0, z) if p.kind == "e"}

    def side(p):  # the end of p's edge that p reaches without passing z
        e = model.edges[p.where]
        past = z.where == e.name and z.offset < p.offset if z.kind == "e" else z.where == e.u
        return e.v if past else e.u

    region = model._reach(v0.where if v0.kind == "v" else side(v0), z)
    nodes = {model._points[w] for w in region} | {p for p in points if p != z and side(p) in region}
    zero = GraphPoint.offset
    # (edge, z's offset on it, the offset of the end the direction heads to)
    dirs = ([(model.edges[z.where], z.offset, to) for to in (zero, model.edges[z.where].length)]
            if z.kind == "e" else
            [(e, *((e.length, zero) if end else (zero, e.length))) for e, end in model._incidence[z.where]])
    fronts = {}
    for e, at, to in dirs:
        far = model._points[e.v if to else e.u]
        if far.where in region:
            up = at < to
            ahead = [p for p in points if p.where == e.name and (p.offset > at if up else p.offset < at)]
            x = (min if up else max)(ahead, key=lambda p: p.offset, default=far)
            end = x.offset if ahead else to
            re = REdge(e.name, at, end, (z, x)) if up else REdge(e.name, end, at, (x, z))
            fronts.setdefault(x, []).append(re)
    return Cut(list(points), nodes, fronts)


def _clear_debt(cx, d, v0, cap, check, moves):
    """clear_debt's loop, recording each move in moves if a list.  An event
    changes the curve parts at its fronts and landings only, and a landing
    at a vertex is z: just those oracle vertices are scored again."""
    if v0 != (cx.model.point_on(v0.where, v0.offset) if v0.kind == "e" else cx.model.vertex_point(v0.where)):
        raise InputError(f"{v0} is not a point of the graph")
    owed = {}
    steps = 0
    while debts := _debts(cx, d, v0, owed):
        z = max(debts)[2]
        cut = _debt_cut(cx, d, v0, z)
        d = _fire(cx, d, cut, moves, True, check)
        for x in (z, *cut.fronts):
            if x.kind == "v":
                owed.pop(x.where, None)
        steps += 1
        if steps > cap:
            raise BudgetError(f"debt clearing exceeded {cap} events")
    return d


def clear_debt(cx, d: ComplexDivisor, v0: GraphPoint, cap=DEFAULT_EVENT_CAP,
               check_each_step=False):
    """Make the divisor burnable: every graphical coefficient non-negative
    away from v0 and every other oracle part of non-negative rank.

    Repeatedly fires the maximal region containing v0 and avoiding the
    worst debtor z (the largest entry of _debts), pushing chips toward it;
    _debt_cut reads that region and its fronts off z's star, building no
    refinement.  v0 is the only point allowed to go arbitrarily negative.

    Returns (divisor, moves): the fire_cut moves in firing order.  With
    check_each_step each event is verified on its own as it fires.
    """
    moves = []
    return _clear_debt(cx, d, v0, cap, check_each_step, moves), moves


def reduce_divisor(cx, d: ComplexDivisor, v0: GraphPoint, cap=DEFAULT_EVENT_CAP,
                   want_witness=True, check_witness=True, check_each_step=False):
    """The v0-reduced representative of the class of d, with a witness.

    The result is effective away from v0, every other curve part has
    non-negative rank, and the burning pass consumes the whole graph.
    Returns (reduced divisor, witness): the witness is one
    ComplexRationalFunction f with d + div f equal to the result.  Every
    firing event, in debt clearing and then in burning, records its move;
    with want_witness (the default) _witness sums them once at the end, on
    one refinement, and with check_witness (the default) the identity is
    then verified.  Without want_witness no event records its move, and
    None is returned for the witness.  check_each_step verifies each event's
    move alone against the divisor it produced, with or without a witness.
    """
    start = d
    moves = [] if want_witness else None  # only a witness reads them
    d = _clear_debt(cx, d, v0, cap, check_each_step, moves)
    steps = 0
    while (cut := burn(cx, d, v0)) is not None:
        d = _fire(cx, d, cut, moves, False, check_each_step)
        steps += 1
        if steps > cap:
            raise BudgetError(f"reduction exceeded {cap} events")
    if not want_witness:
        return d, None
    wit = _witness(cx, moves)
    if check_witness and not (start + wit.divisor() == d):
        raise McdivError("internal error: witness identity failed")
    return d, wit
