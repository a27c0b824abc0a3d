"""Rank of divisors on metrized complexes and the certified quantities
around it: the non-negative-rank test through reduced divisors, the full
rank through rank-determining sets, Riemann-Roch and Clifford audits,
moderators, the non-special upper bound, combinatorial rank on
regularizations, and Weierstrass points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .complexes import ComplexDivisor, MetrizedComplex
from .curves import AuditReport
from .errors import FieldTooSmallError, InputError, McdivError
from .metric import AcyclicOrientation, GraphPoint, enumerate_acyclic_orientations
from .reduction import reduce_divisor


def default_base_point(cx: MetrizedComplex):
    return cx.model.vertex_point(cx.model.vertices[0])


# -- sites on which test divisors are supported -----------------------------


@dataclass(frozen=True)
class Site:
    """A place where a unit test chip can sit: a graphical model vertex or
    a curve point on an oracle vertex."""

    kind: str  # "g" or "c"
    vertex: str
    point: object = None

    def __repr__(self):
        if self.kind == "g":
            return f"site@{self.vertex}"
        return f"site@{self.vertex}:{self.point}"


def rank_determining_sites(cx: MetrizedComplex, seed=0, oversize=0):
    """One chip site per graphical model vertex plus genus+1 curve points
    per oracle vertex, avoiding the marked points.

    Different seeds select disjoint point runs when the curve has enough
    rational points, falling back to rotations when it does not.  Finite
    Picard tables contribute all their unmarked points (their coarse class
    groups need the full pool to stay rank-determining); the detection
    property is audited here and fails loudly when marks exhaust it.
    """
    sites = [Site("g", w) for w in cx.graphical_vertices()]
    for v in cx.oracle_vertices():
        o = cx.oracles[v]
        marked = list(cx.marks[v].values())
        if hasattr(o, "rank_one_detection"):
            pts = [p for p in sorted(o.points) if p not in set(marked)]
            if not o.rank_one_detection(pts):
                raise InputError(
                    f"table oracle at {v}: marked points exhaust the "
                    "rank-detecting pool"
                )
            sites.extend(Site("c", v, p) for p in pts)
            continue
        need = o.genus + 1 + oversize
        want = need * (seed + 1)
        try:
            pts = o.sample_points(want, avoid=marked)[seed * need :]
        except FieldTooSmallError:
            pts = o.sample_points(need, avoid=marked)
            pts = pts[seed % len(pts) :] + pts[: seed % len(pts)]
        sites.extend(Site("c", v, p) for p in pts[:need])
    return sites


def site_divisor(cx, multiset) -> ComplexDivisor:
    graph = []
    curves = {}
    for s in multiset:
        if s.kind == "g":
            graph.append((cx.model.vertex_point(s.vertex), 1))
        else:
            o = cx.oracles[s.vertex]
            cur = curves.get(s.vertex, o.zero_divisor())
            curves[s.vertex] = cur + o.divisor((s.point, 1))
    return cx.divisor(graph_pairs=graph, curve_parts=curves)


# -- the non-negative rank test ---------------------------------------------


def nonneg_rank(cx, d: ComplexDivisor, v0=None) -> bool:
    """True iff d is linearly equivalent to an effective divisor.

    Reduction at a fixed base point; the reduced divisor is equivalent to
    an effective one iff its coefficient at the base point (and, at an
    oracle base vertex, the rank of the curve part there) is non-negative.
    """
    if d.degree() < 0:
        return False
    if d.is_effective():
        return True
    if v0 is None:
        v0 = default_base_point(cx)
    cache = cx.nonneg_memo
    key = (d.key(), repr(v0))
    if key in cache:
        return cache[key]
    red, _ = reduce_divisor(cx, d, v0, want_witness=False)
    if v0.kind == "v" and cx.is_oracle_vertex(v0.where):
        ok = cx.oracles[v0.where].curve_rank(red.curve_part(v0.where)) >= 0
    else:
        ok = red.graph.get(v0) >= 0
    cache[key] = ok
    return ok


def _all_tests_pass(cx, d, sites, k) -> bool:
    """Whether d minus every degree-k test divisor keeps non-negative rank."""
    return all(
        nonneg_rank(cx, d - site_divisor(cx, e))
        for e in itertools.combinations_with_replacement(sites, k)
    )


def _validate_shortcut(cx, sites):
    """One-time sanity pass per complex before trusting the high-degree
    rank formula: the canonical divisor must come out at genus - 1 by
    plain enumeration, and the zero divisor at 0."""
    if cx.shortcut_validated:
        return
    g = cx.genus()
    k = cx.canonical()
    if _rank_enumerated(cx, k, sites) != g - 1:
        raise McdivError("high-degree shortcut rejected: canonical rank check failed")
    if _rank_enumerated(cx, cx.zero_divisor(), sites) != 0:
        raise McdivError("high-degree shortcut rejected: zero divisor check failed")
    cx.shortcut_validated = True


def _rank_enumerated(cx, d, sites) -> int:
    deg = d.degree()
    if deg < 0 or not nonneg_rank(cx, d):
        return -1
    k = 1
    while k <= deg:
        if not _all_tests_pass(cx, d, sites, k):
            return k - 1
        k += 1
    return deg


def rank(cx, d: ComplexDivisor, sites=None, seed=0, audit=False) -> int:
    """The rank: the largest k such that removing any k test chips leaves
    a divisor equivalent to an effective one.

    For degrees above 2g-2 the value is degree - genus; that shortcut is
    used only after a once-per-complex enumeration check, and never in
    audit mode.
    """
    if sites is None:
        sites = rank_determining_sites(cx, seed)
    deg = d.degree()
    g = cx.genus()
    if deg > 2 * g - 2 and not audit:
        _validate_shortcut(cx, sites)
        return deg - g
    return _rank_enumerated(cx, d, sites)


def linear_equiv(cx, d1: ComplexDivisor, d2: ComplexDivisor, v0=None) -> bool:
    """Equality of reduced representatives: same graph parts and the same
    curve-divisor class at every oracle vertex."""
    if d1.degree() != d2.degree():
        return False
    if v0 is None:
        v0 = default_base_point(cx)
    r1, _ = reduce_divisor(cx, d1, v0, want_witness=False)
    r2, _ = reduce_divisor(cx, d2, v0, want_witness=False)
    if r1.gamma_part() != r2.gamma_part():
        return False
    for v in cx.oracle_vertices():
        if not cx.oracles[v].classes_equal(r1.curve_part(v), r2.curve_part(v)):
            return False
    return True


# -- audits ------------------------------------------------------------------


def rr_audit(cx, d: ComplexDivisor, seed=0) -> AuditReport:
    """Check r(D) - r(K - D) = deg(D) - g + 1 exactly."""
    rep = AuditReport()
    g = cx.genus()
    k = cx.canonical()
    r1 = rank(cx, d, seed=seed)
    r2 = rank(cx, k - d, seed=seed)
    ok = r1 - r2 == d.degree() - g + 1
    rep.record(
        "riemann-roch identity",
        ok,
        f"r(D)={r1}, r(K-D)={r2}, deg={d.degree()}, g={g}",
    )
    rep.data = {"lhs": r1, "rhs": r2, "deg": d.degree(), "genus": g}
    return rep


def clifford_audit(cx, d: ComplexDivisor, seed=0) -> AuditReport:
    """For special divisors (both d and K-d equivalent to effective),
    check 2 r(d) <= deg(d)."""
    rep = AuditReport()
    k = cx.canonical()
    special = nonneg_rank(cx, d) and nonneg_rank(cx, k - d)
    rep.data = {"special": special}
    if not special:
        rep.record("not special", True, "precondition fails; nothing to check")
        return rep
    r = rank(cx, d, seed=seed)
    rep.record("clifford bound", 2 * r <= d.degree(), f"r={r}, deg={d.degree()}")
    rep.data.update({"rank": r, "deg": d.degree()})
    return rep


# -- moderators ---------------------------------------------------------------


@dataclass
class Moderator:
    """An acyclic orientation with one minimal non-special divisor per
    oracle vertex; its divisor has degree genus - 1 and empty system."""

    cx: MetrizedComplex
    orientation: AcyclicOrientation
    parts: dict  # oracle vertex -> CurveDivisor in the minimal non-special set

    def __post_init__(self):
        for v, dv in self.parts.items():
            o = self.cx.oracles[v]
            if dv.degree() != o.genus - 1 or o.curve_rank(dv) != -1:
                raise InputError(f"part at {v} is not minimal non-special")
        if set(self.parts) != set(self.cx.oracle_vertices()):
            raise InputError("need one part per oracle vertex")

    def divisor(self) -> ComplexDivisor:
        cx = self.cx
        pi = self.orientation
        graph = []
        curves = {}
        for w in cx.graphical_vertices():
            c = pi.deg_plus(w) - 1
            if c:
                graph.append((cx.model.vertex_point(w), c))
        for v in cx.oracle_vertices():
            o = cx.oracles[v]
            away = o.zero_divisor()
            for e_name in pi.out_edges(v):
                e = cx.model.edges[e_name]
                end = 0 if e.u == v else 1
                away = away + o.divisor((cx.marked_point(v, e_name, end), 1))
            curves[v] = away + self.parts[v]
        out = cx.divisor(graph_pairs=graph, curve_parts=curves)
        if out.degree() != cx.genus() - 1:
            raise McdivError("moderator degree check failed")
        return out

    def dual(self) -> "Moderator":
        parts = {}
        for v, dv in self.parts.items():
            o = self.cx.oracles[v]
            parts[v] = o.canonical_divisor() - dv
        return Moderator(self.cx, self.orientation.reversed(), parts)


def moderator(cx, orientation, parts) -> ComplexDivisor:
    return Moderator(cx, orientation, parts).divisor()


def dual_moderator(mod: Moderator) -> ComplexDivisor:
    """The reversed-orientation, canonical-complement partner; the sum of
    the pair lies in the canonical class."""
    return mod.dual().divisor()


def nonspecial_pools(cx, extra=1):
    """Per-vertex pools feeding the minimal non-special samples."""
    pools = {}
    for v in cx.oracle_vertices():
        o = cx.oracles[v]
        count = o.genus + 1 + extra
        try:
            pools[v] = o.sample_points(count)
        except FieldTooSmallError:
            pools[v] = o.sample_points(1)
    return pools


def moderator_sample(cx, pools=None, per_vertex_cap=6):
    """Moderators over all acyclic orientations and sampled minimal
    non-special parts: a sample of the complex's minimal non-special set."""
    if pools is None:
        pools = nonspecial_pools(cx)
    choices = {}
    for v in cx.oracle_vertices():
        o = cx.oracles[v]
        opts = list(itertools.islice(o.minimal_nonspecial_sample(pools[v]), per_vertex_cap))
        if not opts:
            return
        choices[v] = opts
    vs = cx.oracle_vertices()
    for pi in enumerate_acyclic_orientations(cx.model):
        for combo in itertools.product(*(choices[v] for v in vs)):
            yield Moderator(cx, pi, dict(zip(vs, combo)))


def rank_bound_from_nonspecial(cx, d: ComplexDivisor, sample) -> int:
    """min over sampled minimal non-special N of deg+(d - N) - 1.

    Always an upper bound for the rank; equality holds when the sample is
    exhaustive for the instance class.
    """
    best = None
    for n in sample:
        nd = n.divisor() if isinstance(n, Moderator) else n
        val = (d - nd).deg_plus() - 1
        best = val if best is None else min(best, val)
    if best is None:
        raise InputError("empty non-special sample")
    return best


# -- combinatorial rank on regularizations ------------------------------------


def combinatorial_rank(cx, d: ComplexDivisor, slope_slack=0, validate_bound=True) -> int:
    """Rank computed with test chips on vertices and twists by integer
    vertex potentials; defined on unit-edge-length complexes whose
    vertices all carry curves.

    Independent of the reduction engine: feasibility is checked per
    vertex with oracle rank queries only.
    """
    model = cx.model
    if any(e.length != 1 for e in model.edges.values()):
        raise InputError("combinatorial rank needs unit edge lengths")
    if cx.graphical_vertices():
        raise InputError("combinatorial rank needs a curve at every vertex")
    if d.graph.coeffs:
        raise InputError("divisor must be supported on the vertex curves")
    vs = list(model.vertices)

    def feasible(e_map, bound):
        root = vs[0]
        others = vs[1:]
        for vals in itertools.product(range(-bound, bound + 1), repeat=len(others)):
            f = {root: 0}
            f.update(dict(zip(others, vals)))
            ok = True
            for v in vs:
                o = cx.oracles[v]
                dv = d.curve_part(v) + cx.vertex_twist(v, f)
                if o.curve_rank(dv) < e_map.get(v, 0):
                    ok = False
                    break
            if ok:
                return True
        return False

    def rank_with(bound_extra):
        r = -1
        deg = d.degree()
        while r < deg:
            target = r + 1
            bound = d.deg_plus() + target + sum(
                cx.oracles[v].genus for v in vs
            ) + 2 + bound_extra
            all_ok = True
            for combo in itertools.combinations_with_replacement(vs, target):
                e_map = {}
                for v in combo:
                    e_map[v] = e_map.get(v, 0) + 1
                if not feasible(e_map, bound):
                    all_ok = False
                    break
            if not all_ok:
                return r
            r = target
        return r

    r = rank_with(slope_slack)
    if validate_bound and rank_with(slope_slack + 2) != r:
        raise McdivError("twist bound certificate failed; enlarge slope_slack")
    return r


# -- Weierstrass points --------------------------------------------------------


def point_divisor(cx, pt, mult=1) -> ComplexDivisor:
    """Divisor mult*(pt) for a graphical point or a (vertex, curve point)
    pair."""
    if isinstance(pt, GraphPoint):
        return cx.divisor(graph_pairs=[(pt, mult)])
    v, p = pt
    o = cx.oracles[v]
    return cx.divisor(curve_parts={v: o.divisor((p, mult))})


def is_weierstrass(cx, pt, seed=0) -> bool:
    """Whether rank of genus times the point is at least one."""
    g = cx.genus()
    if g < 2:
        raise InputError("Weierstrass points undefined below genus 2")
    return rank(cx, point_divisor(cx, pt, g), seed=seed) >= 1


def weierstrass_grid(cx, denominators=(2, 3)):
    """Search grid: graphical vertices, sampled curve points, and rational
    interior edge points."""
    pts = []
    for s in rank_determining_sites(cx):
        if s.kind == "g":
            pts.append(cx.model.vertex_point(s.vertex))
        else:
            pts.append((s.vertex, s.point))
    for name, e in sorted(cx.model.edges.items()):
        for q in denominators:
            for j in range(1, q):
                pts.append(cx.model.point_on(name, e.length * j / q))
    return pts


def find_weierstrass(cx, seed=0):
    """First Weierstrass point found on the search grid, or None."""
    for pt in weierstrass_grid(cx):
        if is_weierstrass(cx, pt, seed=seed):
            return pt
    return None
