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
from .metric import AcyclicOrientation, ChipSum, GraphDivisor, GraphPoint, enumerate_acyclic_orientations
from .reduction import reduce_divisor


# -- places on which test divisors are supported ----------------------------


def rank_determining_sites(cx: MetrizedComplex, seed=0, oversize=0):
    """Places for unit test chips: the point of each graphical model
    vertex, then (v, p) for genus+1 curve points p per oracle vertex v,
    avoiding the marked points.

    Different seeds select disjoint point runs when the curve has enough
    rational points, falling back to rotations when it does not; the seed
    must be at least 0.  Finite Picard tables contribute all their
    unmarked points (their coarse class groups need the full pool to stay
    rank-determining); the detection property is audited here and fails
    loudly when marks exhaust it.  The sites are kept per (seed, oversize)
    in cx.sites_memo; every call returns a fresh list.
    """
    if seed < 0:
        raise InputError(f"seed must be at least 0, got {seed}")
    if (seed, oversize) in cx.sites_memo:
        return list(cx.sites_memo[seed, oversize])
    sites = [cx.model.vertex_point(w) for w in cx.graphical_vertices()]
    for v in cx.oracle_vertices():
        o = cx.oracles[v]
        marked = set(cx.marks[v].values())
        if hasattr(o, "rank_one_detection"):
            pts = [p for p in sorted(o.points) if p not in marked]
            if not o.rank_one_detection(pts):
                raise InputError(
                    f"table oracle at {v}: marked points exhaust the "
                    "rank-detecting pool"
                )
            sites.extend((v, p) for p in pts)
            continue
        need = o.genus + 1 + oversize
        want = need * (seed + 1)
        try:
            pts = o.sample_points(want, avoid=marked)[seed * need :]
        except FieldTooSmallError:
            pts = o.sample_points(need, avoid=marked)
            pts = pts[seed % len(pts) :] + pts[: seed % len(pts)]
        sites.extend((v, p) for p in pts[:need])
    cx.sites_memo[seed, oversize] = sites
    return list(sites)


def site_divisor(cx, multiset) -> ComplexDivisor:
    """The test divisor with one chip on each place of the multiset."""
    return cx.chips((s, 1) for s in multiset)


# -- the non-negative rank test ---------------------------------------------


def nonneg_rank(cx, d: ComplexDivisor, v0=None) -> bool:
    """True iff d is linearly equivalent to an effective divisor; v0
    defaults to the first model vertex (see `_passes`)."""
    if d.degree() < 0:
        return False
    if d.is_effective():
        return True
    if v0 is None:
        v0 = cx.model.vertex_point(cx.model.vertices[0])
    return _passes(cx, _rest(cx, d, v0), d)


def _rest(cx, d, v0):
    """(v0, the oracle at v0 or None, d with its part at v0 removed, its key)."""
    o = cx.oracles.get(v0.where) if v0.kind == "v" else None
    rest = ComplexDivisor._unchecked(cx, GraphDivisor({**d.graph.coeffs, v0: 0}) if o is None else d.graph,
                                     d.curves if o is None else {**d.curves, v0.where: o.zero_divisor()})
    return v0, o, rest, (rest.key(), repr(v0))


def _passes(cx, split, d, at=()) -> bool:
    """Whether rest + B ~ an effective divisor, for a `_rest` split and B, d's
    part at v0 less the chips `at`.  Being v0-reduced ignores B, so what the
    rest reduces to at v0 is memoized per key and tested with B added."""
    v0, o, rest, key = split
    left = cx.nonneg_memo.get(key)
    if left is None:
        red, _ = reduce_divisor(cx, rest, v0, want_witness=False)
        # only the leftover: a ComplexDivisor would point back to cx
        left = cx.nonneg_memo[key] = red.graph.get(v0) if o is None else red.curve_part(v0.where)
    if o is None:
        return left + d.graph.get(v0) - len(at) >= 0
    return o.curve_rank(left + d.curve_part(v0.where) - o._like(ChipSum.tally((p, 1) for _, p in at))) >= 0


def _largest_k(tests, passes, top) -> int:
    """The largest k <= top such that passes(T) holds for every k-multiset
    T of tests and every smaller size; -1 when k = 0 fails or top < 0.
    Sizes are tried upward, multisets in combinations_with_replacement
    order, stopping at the first failure."""
    for k in range(top + 1):
        if not all(passes(t) for t in itertools.combinations_with_replacement(tests, k)):
            return k - 1
    return max(top, -1)


def _potentials(vs, bound):
    """Integer vertex potentials, 0 at vs[0] and in [-bound, bound]
    elsewhere, in itertools.product order."""
    root, others = vs[0], vs[1:]
    for vals in itertools.product(range(-bound, bound + 1), repeat=len(others)):
        f = {root: 0}
        f.update(zip(others, vals))
        yield f


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
    """The largest k <= deg d such that d - E is equivalent to an effective
    divisor for every k-multiset E of sites (k = 0 tests d).  E is tested at
    the vertex v0 of its last place: d less E's chips off v0 (wherever in E)
    is one rest per (chips off v0, v0), built and keyed once per call."""
    where = {s: s if isinstance(s, GraphPoint) else cx.model.vertex_point(s[0]) for s in sites}
    have = d.is_effective() and {
        s: d.graph.get(s) if isinstance(s, GraphPoint) else d.curve_part(s[0]).get(s[1]) for s in sites}
    rests = {}  # (chips off v0, v0) -> the `_rest` split

    def passes(e):
        if not e:
            return nonneg_rank(cx, d)
        v0 = where[e[-1]]
        if have and all(have[s] >= e.count(s) for s in e):
            return True  # d - E is effective
        off = tuple(s for s in e if where[s] != v0)
        if (off, v0) not in rests:
            rests[off, v0] = _rest(cx, d - site_divisor(cx, off), v0)
        return _passes(cx, rests[off, v0], d, [s for s in e if where[s] == v0])

    return _largest_k(sites, passes, d.degree())


def rank(cx, d: ComplexDivisor, sites=None, seed=0, audit=False) -> int:
    """The rank: the largest k such that removing any k test chips leaves
    a divisor equivalent to an effective one.

    For degrees above 2g-2 the value is degree - genus; that shortcut is
    used only after a once-per-complex enumeration check, and never in
    audit mode.
    """
    if sites is None:
        sites = rank_determining_sites(cx, seed)
    else:
        site_divisor(cx, sites)  # a caller's places are checked once, here
    deg = d.degree()
    g = cx.genus()
    if deg > 2 * g - 2 and not audit:
        _validate_shortcut(cx, sites)
        return deg - g
    return _rank_enumerated(cx, d, sites)


def linear_equiv(cx, d1: ComplexDivisor, d2: ComplexDivisor, v0=None) -> bool:
    """d1 - d2 has degree 0 and is equivalent to an effective divisor,
    which in degree 0 can only be the zero divisor."""
    return d1.degree() == d2.degree() and nonneg_rank(cx, d1 - d2, v0)


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
            if dv.oracle is not o:
                raise InputError(f"part at {v} built on a foreign oracle")
            if dv.degree() != o.genus - 1 or o.curve_rank(dv) != -1:
                raise InputError(f"part at {v} is not minimal non-special")
        if set(self.parts) != set(self.cx.oracle_vertices()):
            raise InputError("need one part per oracle vertex")

    def divisor(self) -> ComplexDivisor:
        cx, model, pi = self.cx, self.cx.model, self.orientation
        graph = GraphDivisor.of(*((model.vertex_point(w), pi.deg_plus(w) - 1) for w in cx.graphical_vertices()))
        out = ComplexDivisor._unchecked(cx, graph, {
            v: dv + cx._on_marks(v, (((e, 0 if model.edges[e].u == v else 1), 1) for e in pi.out_edges(v)))
            for v, dv in self.parts.items()})
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


def nonspecial_pools(cx):
    """Per-vertex pools feeding the minimal non-special samples: genus + 2
    sample points, or a single one on curves with too few points."""
    pools = {}
    for v in cx.oracle_vertices():
        o = cx.oracles[v]
        pools[v] = o.pool(o.genus + 2)
    return pools


def moderator_sample(cx, per_vertex_cap=6):
    """Moderators over all acyclic orientations and sampled minimal
    non-special parts: a sample of the complex's minimal non-special set."""
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
    best = min(((d - (n.divisor() if isinstance(n, Moderator) else n)).deg_plus() - 1
                for n in sample), default=None)
    if best is None:
        raise InputError("empty non-special sample")
    return best


# -- combinatorial rank on regularizations ------------------------------------


def combinatorial_rank(cx, d: ComplexDivisor) -> int:
    """Rank computed with test chips on vertices and twists by integer
    vertex potentials; defined on unit-edge-length complexes whose
    vertices all carry curves.

    Independent of the reduction engine: feasibility is checked per
    vertex with oracle rank queries only.  Certified: the search is rerun
    with the potential bound widened by 2 and must give the same rank.
    """
    model = cx.model
    if any(e.length != 1 for e in model.edges.values()):
        raise InputError("combinatorial rank needs unit edge lengths")
    if cx.graphical_vertices():
        raise InputError("combinatorial rank needs a curve at every vertex")
    if d.graph.coeffs:
        raise InputError("divisor must be supported on the vertex curves")
    vs = list(model.vertices)
    base = d.deg_plus() + sum(cx.oracles[v].genus for v in vs) + 2

    def feasible(combo, bound):
        return any(
            all(
                cx.oracles[v].curve_rank(d.curve_part(v) + cx.vertex_twist(v, f))
                >= combo.count(v)
                for v in vs
            )
            for f in _potentials(vs, bound)
        )

    def rank_with(widen):
        return _largest_k(vs, lambda combo: feasible(combo, base + len(combo) + widen),
                          d.degree())

    r = rank_with(0)
    if rank_with(2) != r:
        raise McdivError("twist bound certificate failed: a potential bound wider "
                         "by 2 gave another rank")
    return r


# -- Weierstrass points --------------------------------------------------------


def point_divisor(cx, pt, mult=1) -> ComplexDivisor:
    """Divisor mult*(pt) for a place pt: a graph point off the oracle
    vertices or a (vertex, curve point) pair."""
    return cx.chips([(pt, mult)])


def _first_twist(cx, d, x, k, lo, rank_of) -> int:
    """The smallest n >= lo with rank_of(d + n*(x)) >= k.  The scan stops
    after 4(|deg d| + k + g + 4) further twists; the plain rank reaches k
    within g + 1 of them, since r(D) >= deg D - g."""
    bound = 4 * (abs(d.degree()) + k + cx.genus() + 4)
    for n in range(lo, lo + bound + 1):
        if rank_of(d + point_divisor(cx, x, n)) >= k:
            return n
    raise InputError(
        f"rank never reaches {k} at this attachment point (scan bound exhausted)"
    )


def is_weierstrass(cx, pt, seed=0) -> bool:
    """Whether rank of genus times the point is at least one."""
    g = cx.genus()
    if g < 2:
        raise InputError("Weierstrass points undefined below genus 2")
    return rank(cx, point_divisor(cx, pt, g), seed=seed) >= 1


def edge_grid(model, qmax):
    """The interior points at j/q of each edge for 2 <= q <= qmax, each
    once, edge by edge in name order."""
    pts = []
    for name, e in sorted(model.edges.items()):
        offsets = (e.length * j / q for q in range(2, qmax + 1) for j in range(1, q))
        pts.extend(model.point_on(name, off) for off in dict.fromkeys(offsets))
    return pts


def weierstrass_grid(cx):
    """Search grid: the rank-determining places (graphical vertices and
    sampled curve points), then the interior edge points at 1/2, 1/3 and
    2/3 of each edge."""
    return rank_determining_sites(cx) + edge_grid(cx.model, 3)


def find_weierstrass(cx, seed=0):
    """First Weierstrass point found on the search grid, or None."""
    for pt in weierstrass_grid(cx):
        if is_weierstrass(cx, pt, seed=seed):
            return pt
    return None
