"""Restricted ranks with explicit function spaces, vanishing sequences,
and the limit-series checks on compact-type regularizations.

Everything here works over projective-line components with exactly
represented function spaces; higher-genus components participate in the
node inequalities only through user-supplied vanishing tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from .complexes import ComplexDivisor, MetrizedComplex
from .curves import AuditReport, CurveDivisor, P1Oracle
from .errors import FieldTooSmallError, InputError, McdivError
from .exact import INF, MatrixF, Poly, RationalFunc, kernel_dim, laurent_at, ord_at
from .rank import Site, point_divisor, rank, site_divisor


class FunctionSpace:
    """A linear span of rational functions on a projective line, held by a
    validated basis."""

    def __init__(self, oracle: P1Oracle, basis):
        if not isinstance(oracle, P1Oracle):
            raise InputError("explicit function spaces need a projective line")
        self.oracle = oracle
        self.basis = list(basis)
        if not self.basis:
            raise InputError("function space needs a nonzero basis")
        for f in self.basis:
            if f.is_zero():
                raise InputError("zero function in basis")
            _roots, cof = f.den.rational_roots()
            if cof.degree > 0:
                raise InputError("basis denominators must split over the field")
        if self._dependent():
            raise InputError("basis is linearly dependent")
        self.meets_memo = {}  # bound key -> bool; only ever gains entries

    @property
    def dim(self):
        return len(self.basis)

    def _dependent(self):
        den = Poly.const(self.oracle.field, 1)
        for f in self.basis:
            den = den * f.den
        rows = []
        deg_cap = 0
        nums = []
        for f in self.basis:
            n = f.num * (den // f.den)
            nums.append(n)
            deg_cap = max(deg_cap, n.degree)
        for n in nums:
            row = list(n.coeffs) + [self.oracle.field.zero()] * (
                deg_cap + 1 - len(n.coeffs)
            )
            rows.append(row)
        m = MatrixF(self.oracle.field, rows)
        return m.rank() < len(self.basis)

    def element(self, coeffs):
        out = None
        for c, f in zip(coeffs, self.basis):
            term = f.scale(c)
            out = term if out is None else out + term
        return out

    def contained_in_L(self, d: CurveDivisor) -> bool:
        """Whether every basis element f satisfies div(f) + d >= 0."""
        for f in self.basis:
            pts = set(p for p in d.support() if p is not INF)
            droots, _ = f.den.rational_roots()
            pts.update(droots)
            for p in pts:
                if ord_at(f, p) < -d.get(p):
                    return False
            if ord_at(f, INF) < -d.get(INF):
                return False
        return True

    def constrained_dim(self, constraints):
        """Dimension of {f in span : ord_p(f) >= m_p for all constraints}."""
        rows = []
        field = self.oracle.field
        for p, m in constraints:
            orders = []
            expansions = []
            for f in self.basis:
                k, coeffs = laurent_at(f, p, max(1, m - _min_ord(self.basis, p)))
                orders.append(k)
                expansions.append(coeffs)
            k_min = min(orders)
            for j in range(k_min, m):
                row = []
                for k, coeffs in zip(orders, expansions):
                    idx = j - k
                    row.append(
                        coeffs[idx] if 0 <= idx < len(coeffs) else field.zero()
                    )
                rows.append(row)
        if not rows:
            return self.dim, [
                [field.one() if i == j else field.zero() for j in range(self.dim)]
                for i in range(self.dim)
            ]
        m = MatrixF(field, rows)
        return kernel_dim(m)

    def subspace_meets(self, bound: CurveDivisor) -> bool:
        """Whether some nonzero element f has div(f) + bound >= 0."""
        cache = self.meets_memo
        key = bound.key()
        if key in cache:
            return cache[key]
        constraints = []
        pts = set(p for p, c in bound.coeffs.items())
        for f in self.basis:
            droots, _ = f.den.rational_roots()
            pts.update(droots)
        pts.add(INF)
        for p in sorted(pts, key=self.oracle.point_key):
            m = -bound.get(p)
            if m > _min_ord(self.basis, p):
                constraints.append((p, m))
        dim, _ = self.constrained_dim(constraints)
        cache[key] = dim > 0
        return dim > 0

    def rescale(self, f: RationalFunc) -> "FunctionSpace":
        return FunctionSpace(self.oracle, [b * f for b in self.basis])


def _min_ord(basis, p):
    return min(ord_at(f, p) for f in basis)


def _wronskian(polys):
    """Determinant of the derivative matrix of the given polynomials."""
    n = len(polys)
    field = polys[0].field
    rows = []
    cur = list(polys)
    for _ in range(n):
        rows.append(list(cur))
        cur = [q.derivative() for q in cur]
    det = Poly(field, ())
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        term = Poly.const(field, 1)
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        det = det + (term if sign > 0 else -term)
    return det


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def ramification_points(space: FunctionSpace):
    """Field-rational points where the vanishing sequence of the span is
    non-generic: rational roots of the basis Wronskian."""
    den = Poly.const(space.oracle.field, 1)
    for f in space.basis:
        den = den * f.den
    nums = [f.num * (den // f.den) for f in space.basis]
    w = _wronskian(nums)
    if w.is_zero():
        return None  # degenerate (inseparability); caller must widen pools
    roots, _ = w.rational_roots()
    return sorted(set(roots), key=space.oracle.point_key)


def vanishing_sequence(oracle, d_v: CurveDivisor, space: FunctionSpace, p):
    """The strictly increasing orders ord_p(f) + d_v(p) over nonzero f in
    the span, computed by elimination on leading coefficients."""
    if not space.contained_in_L(d_v):
        raise InputError("space is not contained in L(d_v)")
    work = list(space.basis)
    while True:
        orders = [ord_at(f, p) for f in work]
        seen = {}
        clash = None
        for i, k in enumerate(orders):
            if k in seen:
                clash = (seen[k], i)
                break
            seen[k] = i
        if clash is None:
            break
        i, j = clash
        ki, ci = laurent_at(work[i], p, 1)
        kj, cj = laurent_at(work[j], p, 1)
        factor = cj[0] / ci[0]
        work[j] = work[j] - work[i].scale(factor)
        if work[j].is_zero():
            raise McdivError("internal error: dependent space in elimination")
    return tuple(sorted(ord_at(f, p) + d_v.get(p) for f in work))


# -- compact-type limit series -------------------------------------------------


@dataclass
class Aspect:
    """Per-component data of a limit series: a degree-d divisor and an
    (r+1)-dimensional function space on that component."""

    divisor: CurveDivisor
    space: FunctionSpace


@dataclass
class VanishingTable:
    """Precomputed vanishing sequences at the node points, for components
    whose function theory is not explicit."""

    sequences: dict  # curve point -> tuple of ints


def _node_points(cx, edge_name):
    e = cx.model.edges[edge_name]
    return (e.u, cx.marked_point(e.u, edge_name, 0)), (
        e.v,
        cx.marked_point(e.v, edge_name, 1),
    )


def crude_limit_check(cx: MetrizedComplex, aspects, d: int, r: int, refined=False):
    """The node inequalities of a crude limit series: at every node, the
    i-th vanishing order on one side plus the (r-i)-th on the other side
    reaches the degree; `refined` demands equality throughout.

    Returns (ok, violations).
    """
    if cx.model.first_betti() != 0:
        raise InputError("limit series checks need a tree dual graph")
    seqs = {}
    for v in cx.model.vertices:
        a = aspects.get(v)
        if a is None:
            raise InputError(f"no aspect at {v}")
        if isinstance(a, VanishingTable):
            continue
        if a.divisor.degree() != d:
            raise InputError(f"aspect at {v} has degree {a.divisor.degree()}, want {d}")
        if a.space.dim != r + 1:
            raise InputError(f"aspect at {v} has dimension {a.space.dim}, want {r + 1}")
    violations = []
    for name in sorted(cx.model.edges):
        (u, pu), (v, pv) = _node_points(cx, name)
        su = _aspect_sequence(cx, aspects[u], u, pu)
        sv = _aspect_sequence(cx, aspects[v], v, pv)
        if len(su) != r + 1 or len(sv) != r + 1:
            raise InputError(f"vanishing sequences at node {name} have wrong length")
        for i in range(r + 1):
            total = sv[i] + su[r - i]
            if total < d or (refined and total != d):
                violations.append((name, i, sv[i], su[r - i]))
    return (not violations), violations


def _aspect_sequence(cx, aspect, v, p):
    if isinstance(aspect, VanishingTable):
        if p not in aspect.sequences:
            raise InputError(f"vanishing table at {v} has no entry for {p}")
        return tuple(aspect.sequences[p])
    return vanishing_sequence(cx.oracles[v], aspect.divisor, aspect.space, p)


def eqD_divisor(cx: MetrizedComplex, root, aspect_divisors) -> ComplexDivisor:
    """The degree-d divisor of a limit series datum: keep the root aspect
    and twist every other aspect down by d at its parent-edge node."""
    if cx.model.first_betti() != 0:
        raise InputError("needs a tree dual graph")
    degs = {v: aspect_divisors[v].degree() for v in cx.model.vertices}
    d = degs[root]
    if any(val != d for val in degs.values()):
        raise InputError("aspect divisors must share one degree")
    parent_edge = _parent_edges(cx.model, root)
    curves = {}
    for v in cx.model.vertices:
        dv = aspect_divisors[v]
        if v != root:
            name, end = parent_edge[v]
            x = cx.marked_point(v, name, end)
            dv = dv - cx.oracles[v].divisor((x, d))
        curves[v] = dv
    return cx.divisor(curve_parts=curves)


def _parent_edges(model, root):
    """For each non-root vertex: (edge name, end index at that vertex) of
    the first edge on the path to the root."""
    parent = {}
    seen = {root}
    frontier = [root]
    while frontier:
        new = []
        for w in frontier:
            for e, end in model.incident_edges(w):
                other = e.v if end == 0 else e.u
                if other not in seen:
                    seen.add(other)
                    parent[other] = (e.name, 1 - end)
                    new.append(other)
        frontier = new
    return parent


# -- restricted rank -----------------------------------------------------------


def _restricted_sites(cx, d, spaces, fresh=2, offset=0):
    """Chip sites for restricted-rank tests: graphical vertices plus, per
    component, the points where something special can happen (marked
    points, divisor support, basis zeros and poles, ramification points)
    and a few fresh generic points."""
    sites = [Site("g", w) for w in cx.graphical_vertices()]
    for v in cx.oracle_vertices():
        o = cx.oracles[v]
        space = spaces[v]
        special = set()
        for q in cx.marks[v].values():
            special.add(q)
        for q in d.curve_part(v).support():
            if q is not INF:
                special.add(q)
        for f in space.basis:
            nroots, _ = f.num.rational_roots()
            droots, _ = f.den.rational_roots()
            special.update(nroots)
            special.update(droots)
        ram = ramification_points(space)
        if ram is None:
            fresh_here = fresh + 3
        else:
            special.update(ram)
            fresh_here = fresh
        pool = sorted(special, key=o.point_key)
        pool.append(INF)
        avoid = set(pool)
        try:
            extra = o.sample_points(offset + fresh_here, avoid=avoid)
            extra = extra[offset : offset + fresh_here]
        except FieldTooSmallError:
            # small field: take every remaining point; the pool is then
            # exhaustive for the component
            extra = []
            if hasattr(o.field, "p"):
                extra = [
                    p
                    for p in o.sample_points(min(o.field.p + 1, 64))
                    if p not in avoid
                ]
        pool.extend(extra)
        seen = set()
        for q in pool:
            kq = o.point_key(q)
            if kq not in seen:
                seen.add(kq)
                sites.append(Site("c", v, q))
    return sites


def _restricted_feasible(cx, d, e_div, spaces, bound):
    """Whether some integer vertex potential and per-vertex elements of
    the given spaces make d - e_div + div(f) effective."""
    vs = list(cx.model.vertices)
    root = vs[0]
    others = vs[1:]
    e_graph = {w: 0 for w in cx.graphical_vertices()}
    for p, c in e_div.graph.coeffs.items():
        if p.kind != "v":
            raise InputError("restricted rank needs vertex-supported chips")
        e_graph[p.where] = e_graph.get(p.where, 0) + c
    d_graph = {}
    for p, c in d.graph.coeffs.items():
        if p.kind != "v":
            raise InputError("restricted rank needs vertex-supported divisors")
        d_graph[p.where] = c
    for vals in itertools.product(range(-bound, bound + 1), repeat=len(others)):
        f = {root: 0}
        f.update(dict(zip(others, vals)))
        ok = True
        for w in cx.graphical_vertices():
            ordw = sum(
                f[e.v if end == 0 else e.u] - f[w]
                for e, end in cx.model.incident_edges(w)
            )
            if d_graph.get(w, 0) + ordw - e_graph.get(w, 0) < 0:
                ok = False
                break
        if not ok:
            continue
        for v in cx.oracle_vertices():
            need = d.curve_part(v) + cx.vertex_twist(v, f) - e_div.curve_part(v)
            if not spaces[v].subspace_meets(need):
                ok = False
                break
        if ok:
            return True
    return False


def restricted_rank(cx, d: ComplexDivisor, spaces, slope_slack=0, fresh=2,
                    site_offset=0, validate=False) -> int:
    """The rank with curve-level moves restricted to the given function
    spaces: the largest k such that after removing any k test chips some
    integer vertex potential plus per-vertex space elements restore
    effectivity.

    Only integer divisors on unit-edge-length models are supported, with a
    projective line (and its function space) at every oracle vertex.
    """
    if any(e.length != 1 for e in cx.model.edges.values()):
        raise InputError("restricted rank needs unit edge lengths")
    for v in cx.oracle_vertices():
        if v not in spaces:
            raise InputError(f"no function space at {v}")
    if validate:
        a = restricted_rank(cx, d, spaces, slope_slack, fresh, site_offset, False)
        b = restricted_rank(cx, d, spaces, slope_slack + 2, fresh + 1,
                            site_offset, False)
        if a != b:
            raise McdivError(
                f"restricted rank certificate failed: slope slack {slope_slack} "
                f"gave {a} but {slope_slack + 2} gave {b}"
            )
        return a
    sites = _restricted_sites(cx, d, spaces, fresh=fresh, offset=site_offset)
    dims = [spaces[v].dim for v in cx.oracle_vertices()]
    cap = max(0, min(dims) - 1) if dims else d.degree()
    k = 0
    while True:
        bound = d.deg_plus() + k + slope_slack
        all_ok = all(
            _restricted_feasible(cx, d, site_divisor(cx, combo), spaces, bound)
            for combo in itertools.combinations_with_replacement(sites, k)
        )
        if not all_ok:
            return k - 1
        if k > cap:
            raise McdivError(
                "restricted rank exceeded its dimension cap; test pool too weak"
            )
        k += 1


def restricted_eta(cx, d, x, spaces, k, **kw) -> int:
    """Smallest twist n at the attachment point reaching restricted rank
    exactly k; errors when k is beyond the dimension cap."""
    dims = [spaces[v].dim for v in cx.oracle_vertices()]
    cap = max(0, min(dims) - 1) if dims else None
    if cap is not None and k > cap:
        raise InputError(f"restricted rank never reaches {k}; cap is {cap}")
    n = k - d.degree()
    guard = 0
    while True:
        r = restricted_rank(cx, d + point_divisor(cx, x, n), spaces, **kw)
        if r >= k:
            return n
        n += 1
        guard += 1
        if guard > 4 * (abs(d.degree()) + k + cx.genus() + 4):
            raise InputError(
                f"restricted rank never reaches {k} at this attachment point "
                "(scan bound exhausted)"
            )


def limit_equiv_audit(cx, aspects, root, d: int, r: int, **kw) -> AuditReport:
    """Both sides of the limit-series equivalence: the node inequalities
    and the restricted rank of the associated divisor; asserts the
    biconditional."""
    rep = AuditReport()
    ok_crude, violations = crude_limit_check(cx, aspects, d, r)
    spaces = {v: aspects[v].space for v in cx.model.vertices}
    div = eqD_divisor(cx, root, {v: aspects[v].divisor for v in cx.model.vertices})
    rr = restricted_rank(cx, div, spaces, **kw)
    rep.record(
        "limit series biconditional",
        ok_crude == (rr == r),
        f"crude={ok_crude} (violations {violations}), restricted rank={rr}, r={r}",
    )
    rep.data = {"crude": ok_crude, "violations": violations, "restricted_rank": rr}
    return rep


# -- the degree-2 rank-1 obstruction --------------------------------------------


def build_three_leaf_star(p: int = 5, a=1, b=1):
    """Star complex with a projective-line center and three genus-one
    leaves over F_p, the configuration carrying a degree-2 rank-1 divisor
    that no two-dimensional space can complete."""
    from .curves import EllipticOracle, O_POINT
    from .exact import PrimeField
    from .metric import GraphModel

    field = PrimeField(p)
    model = GraphModel(
        ["c", "l1", "l2", "l3"],
        [("a", "c", "l1", 1), ("b", "c", "l2", 1), ("d", "c", "l3", 1)],
    )
    center = P1Oracle(field)
    xs = [field.elem(0), field.elem(1), field.elem(2)]
    marks = {"c": {("a", 0): xs[0], ("b", 0): xs[1], ("d", 0): xs[2]}}
    oracles = {"c": center}
    for name, leaf in (("a", "l1"), ("b", "l2"), ("d", "l3")):
        o = EllipticOracle(p, a, b)
        oracles[leaf] = o
        marks[leaf] = {(name, 1): O_POINT}
    cx = MetrizedComplex(model, oracles, marks)
    return cx, center, xs


def not_completable_audit(p: int = 5, a=1, b=1) -> AuditReport:
    """The obstruction pattern: a degree-2 divisor of rank 1 whose three
    forced functions span a 3-dimensional space, so no 2-dimensional space
    can complete it to a limit series."""
    rep = AuditReport()
    cx, center, xs = build_three_leaf_star(p, a, b)
    field = center.field
    base = field.elem(3)
    if any(base == x for x in xs):
        raise InputError("base point collides with a marked point")
    div = cx.divisor(curve_parts={"c": center.divisor((base, 2))})
    r = rank(cx, div)
    rep.record("degree-2 divisor has rank 1", r == 1, f"rank={r}")
    den = Poly.make(field, [-base, 1])
    den = den * den
    forced = []
    for x in xs:
        num = Poly.make(field, [-x, 1])
        forced.append(RationalFunc.make(num * num, den))
    span = FunctionSpace(center, forced)
    rep.record("forced functions independent", span.dim == 3, f"dim={span.dim}")
    for name, leaf in (("a", "l1"), ("b", "l2"), ("d", "l3")):
        o = cx.oracles[leaf]
        y = cx.marked_point(leaf, name, 1)
        q = o.sample_points(2, avoid=[y])[0]
        principal = o.classes_equal(o.divisor((q, 1), (y, -1)), o.zero_divisor())
        rep.record(
            f"no function with divisor (q)-(y) on {leaf}",
            not principal,
            f"q={q}, y={y}",
        )
    # every 2-dimensional candidate misses one forced function
    for i, j in itertools.combinations(range(3), 2):
        cand = FunctionSpace(center, [forced[i], forced[j]])
        k = ({0, 1, 2} - {i, j}).pop()
        inside = _member_of_span(cand, forced[k])
        rep.record(
            f"candidate span {{f{i + 1},f{j + 1}}} misses f{k + 1}",
            not inside,
            "the chip at leaf {0} forces f{0}".format(k + 1),
        )
    return rep


def _member_of_span(space: FunctionSpace, f: RationalFunc) -> bool:
    try:
        bigger = FunctionSpace(space.oracle, space.basis + [f])
    except InputError:
        return True
    return bigger.dim == space.dim
