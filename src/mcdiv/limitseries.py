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
# ord_at and laurent_at go unused here, but the benchmark's tracer
# (perfbench/spans.py) patches them at this import site
from .exact import INF, Echelon, Poly, RationalFunc, laurent_at, ord_at  # noqa: F401
from .rank import _first_twist, _largest_k, rank, site_divisor


class FunctionSpace:
    """A linear span of rational functions on a projective line, held by a
    validated basis over one common denominator: basis[i] = nums[i] / den,
    and `poles` are the roots of den, sorted.  Its one cache, `local_memo`,
    filled on the first query at a finite point p, holds the Taylor rows of
    the numerators at p with their orders, as integer rows (see _taylor)."""

    def __init__(self, oracle: P1Oracle, basis):
        if not isinstance(oracle, P1Oracle):
            raise InputError("explicit function spaces need a projective line")
        self.oracle = oracle
        self.basis = list(basis)
        if not self.basis:
            raise InputError("function space needs a nonzero basis")
        field = oracle.field
        den = Poly.const(field, 1)
        poles = set()
        for i, f in enumerate(self.basis):
            if f.field != field:
                raise InputError(f"basis[{i}] is over {f.field}, not over {field}, the field of the line")
            if f.is_zero():
                raise InputError("zero function in basis")
            roots, cof = f.den.rational_roots()
            if cof.degree > 0:
                raise InputError("basis denominators must split over the field")
            poles.update(roots)
            den = den * f.den
        self.den = den
        self.nums = [f.num * (den // f.den) for f in self.basis]
        self.poles = sorted(poles, key=oracle.point_key)
        width = max(len(n.coeffs) for n in self.nums)
        rows = [Echelon.integers(field, n.coeffs) + [0] * (width - len(n.coeffs)) for n in self.nums]
        if len(Echelon(field, rows).kept) < len(rows):
            raise InputError("basis is linearly dependent")
        self.local_memo = {}  # point key -> [(order, Taylor row)] at that point

    @property
    def dim(self):
        return len(self.basis)

    def _taylor(self, p):
        """(order, row) for each Taylor row of the numerators at p, by growing
        order: row j holds coefficient j of each numerator shifted to p and
        has order j - mult_p(den); at INF rows run from the top coefficient
        down, and row j has order deg den - j.  A row is held in ints as a
        nonzero multiple of itself (Echelon.integers), which moves no order
        or rank.  The rows at a finite point are the local table's entry."""
        if p is INF:
            cols, base, step = [n.coeffs for n in self.nums], self.den.degree, -1
        else:
            key = self.oracle.point_key(p)
            if key in self.local_memo:
                return self.local_memo[key]
            cols, base, step = [n.shifted(p).coeffs for n in self.nums], -self.den.mult_at(p), 1
        field = self.oracle.field
        zero = field.zero()
        rows = [(base + step * j, Echelon.integers(field, [c[j] if j < len(c) else zero for c in cols]))
                for j in range(max(map(len, cols)))]
        if p is INF:
            return rows[::-1]
        self.local_memo[key] = rows
        return rows

    def min_ord(self, p) -> int:
        """Smallest order at p of a nonzero element of the span."""
        if p is INF:
            return self.den.degree - max(n.degree for n in self.nums)
        return next(k for k, row in self._taylor(p) if any(row))

    def contained_in_L(self, d: CurveDivisor) -> bool:
        """Whether every element f of the span satisfies div(f) + d >= 0."""
        return not self._constraints(d)

    def _rows(self, constraints):
        """Linear conditions on the coefficients c_i of f = sum c_i nums[i] /
        den saying ord_p(f) >= m_p for all constraints: the Taylor rows at p
        of order below m_p vanish."""
        return [row for p, m in constraints for k, row in self._taylor(p) if k < m]

    def _constraints(self, bound: CurveDivisor):
        """(p, -bound(p)) at each point p where div(f) + bound >= 0 asks more
        of an element f than the span's least order there."""
        pts = sorted({*bound.coeffs, *self.poles, INF}, key=self.oracle.point_key)
        return [(p, -bound.get(p)) for p in pts if -bound.get(p) > self.min_ord(p)]

    def constrained_dim(self, constraints) -> int:
        """Dimension of {f in span : ord_p(f) >= m_p for all constraints}: dim
        less the number of constraint rows the elimination (Echelon) keeps."""
        return self.dim - len(Echelon(self.oracle.field, self._rows(constraints)).kept)

    def orders(self, q, constraints=()) -> list:
        """The orders at q, ascending, of the nonzero elements of {f in span :
        ord_p(f) >= m_p for all constraints}, one per dimension: one
        elimination (Echelon) takes the constraint rows, then the Taylor rows
        at q by growing order, and each of these that it keeps contributes
        its order."""
        echelon = Echelon(self.oracle.field, self._rows(constraints))
        out = []
        for k, row in self._taylor(q):
            if len(echelon.kept) == self.dim:
                break
            if echelon.add(row):
                out.append(k)
        return out

    def subspace_meets(self, bound: CurveDivisor) -> bool:
        """Whether some nonzero element f has div(f) + bound >= 0."""
        return self.constrained_dim(self._constraints(bound)) > 0

    def least_twist(self, bound: CurveDivisor, q):
        """The least integer t with subspace_meets(bound + t*(q)), or None.
        The elements meeting bound away from q form a subspace; t must reach
        -bound(q) - ord_q(f) for one nonzero f in it, so the least t is
        -bound(q) minus its largest order at q, read by elimination (see
        orders), and None when that subspace is 0."""
        key = self.oracle.point_key
        orders = self.orders(q, [(p, m) for p, m in self._constraints(bound) if key(p) != key(q)])
        return -bound.get(q) - orders[-1] if orders else None


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
        term = Poly.const(field, 1)
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        odd = sum(a > b for a, b in itertools.combinations(perm, 2)) % 2
        det = det - term if odd else det + term
    return det


def ramification_points(space: FunctionSpace):
    """Field-rational points where the vanishing sequence of the span is
    non-generic: rational roots of the basis Wronskian."""
    w = _wronskian(space.nums)
    if w.is_zero():
        return None  # degenerate (inseparability); caller must widen pools
    roots, _ = w.rational_roots()
    return sorted(set(roots), key=space.oracle.point_key)


def vanishing_sequence(d_v: CurveDivisor, space: FunctionSpace, p):
    """The strictly increasing orders ord_p(f) + d_v(p) over nonzero f in
    the span, read by one elimination on its Taylor rows at p (see
    FunctionSpace.orders)."""
    if not space.contained_in_L(d_v):
        raise InputError("space is not contained in L(d_v)")
    orders = space.orders(p)
    if len(orders) != space.dim:
        raise McdivError("internal error: dependent space in elimination")
    return tuple(k + d_v.get(p) for k in orders)


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


def crude_limit_check(cx: MetrizedComplex, aspects, d: int, r: int):
    """The node inequalities of a crude limit series: at every node, the
    i-th vanishing order on one side plus the (r-i)-th on the other side
    reaches the degree.

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
        o = cx.oracles.get(v)
        if a.divisor.oracle is not o:
            raise InputError(f"aspect divisor at {v} is not on the curve at {v}")
        if a.space.oracle.field != o.field:
            raise InputError(f"function space at {v} is not over the field of its curve")
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
            if total < d:
                violations.append((name, i, sv[i], su[r - i]))
    return (not violations), violations


def _aspect_sequence(cx, aspect, v, p):
    if isinstance(aspect, VanishingTable):
        if p not in aspect.sequences:
            raise InputError(f"vanishing table at {v} has no entry for {p}")
        return tuple(aspect.sequences[p])
    return vanishing_sequence(aspect.divisor, aspect.space, p)


def eqD_divisor(cx: MetrizedComplex, root, aspect_divisors) -> ComplexDivisor:
    """The degree-d divisor of a limit series datum: keep the root aspect
    and twist every other aspect down by d at its parent-edge node."""
    if cx.model.first_betti() != 0:
        raise InputError("needs a tree dual graph")
    if root not in cx.model.vertices:
        raise InputError(f"unknown root {root!r}")
    for v in cx.model.vertices:
        if v not in aspect_divisors:
            raise InputError(f"no aspect divisor at {v}")
    degs = {v: aspect_divisors[v].degree() for v in cx.model.vertices}
    d = degs[root]
    if any(val != d for val in degs.values()):
        raise InputError("aspect divisors must share one degree")
    curves = {v: aspect_divisors[v] for v in cx.model.vertices}
    for v, end in _parent_edges(cx.model, root).items():
        curves[v] = curves[v] - cx._on_marks(v, [(end, d)])
    return cx.divisor(curve_parts=curves)


def _parent_edges(model, root):
    """For each non-root vertex: (edge name, end index at that vertex) of
    the first edge on the path to the root."""
    parent = {}
    stack = [root]
    while stack:
        w = stack.pop()
        for e, end in model.incident_edges(w):
            other = e.v if end == 0 else e.u
            if other != root and other not in parent:
                parent[other] = (e.name, 1 - end)
                stack.append(other)
    return parent


# -- restricted rank -----------------------------------------------------------


def _special_pools(cx, d, spaces):
    """For each oracle vertex v: the curve points of the component where
    something special can happen (marked points, divisor support, basis
    zeros and poles, ramification points), sorted, then INF; and whether
    the basis Wronskian vanishes, which asks for three more fresh points."""
    pools = {}
    for v in cx.oracle_vertices():
        space = spaces[v]
        special = set(cx.marks[v].values())
        special.update(q for q in d.curve_part(v).support() if q is not INF)
        special.update(space.poles)
        for f in space.basis:
            special.update(f.num.rational_roots()[0])
        ram = ramification_points(space)
        special.update(ram or ())
        pools[v] = (sorted(special, key=cx.oracles[v].point_key) + [INF], ram is None)
    return pools


def _restricted_sites(cx, pools, fresh):
    """Places for restricted-rank test chips: the point of each graphical
    vertex, then (v, q) for the special points q of each component v and a
    few fresh generic points, one place per point key."""
    sites = [cx.model.vertex_point(w) for w in cx.graphical_vertices()]
    for v, (pool, degenerate) in pools.items():
        o = cx.oracles[v]
        avoid = set(pool)
        try:
            extra = o.sample_points(fresh + 3 if degenerate else fresh, avoid=avoid)
        except FieldTooSmallError:
            # small field: take every remaining point; the pool is then
            # exhaustive for the component
            extra = [p for p in o.sample_points(min(o.field.p + 1, 64)) if p not in avoid]
        seen = set()
        for q in pool + extra:
            kq = o.point_key(q)
            if kq not in seen:
                seen.add(kq)
                sites.append((v, q))
    return sites


def _restricted_feasible(cx, d, e_div, spaces, bound, verdicts, ends):
    """Whether some integer vertex potential, 0 at the root model.vertices[0]
    and in [-bound, bound] elsewhere, and per-vertex elements of the given
    spaces make d - e_div + div(f) effective; ends[v] lists the far ends of
    v's edges in a tree.  Every vertex test is one threshold: the difference
    f(w) - f(v) to v's last neighbour w (v itself when v has no edges)
    reaches threshold(v, the other differences): -D(v) less their sum at a
    graphical vertex, and at an oracle vertex the least twist or None, kept
    in `verdicts` under (v, key of the test chips at v), which stands for
    the rest d_v - e_v as d is fixed, and then the others.  A test reads f
    only at a vertex and its neighbours, so a depth-first search settles
    each subtree once per (v, f(parent), f(v)), trying inner children in
    itertools.product order.  As every test only grows with each
    difference, a leaf takes its largest value meeting its test, and a
    vertex's last child starts at the least value its threshold allows."""
    graph = {p.where: c for p, c in (d.graph - e_div.graph).coeffs.items()}
    tables = {v: verdicts.setdefault((v, e_div.curve_part(v).key()), {}) for v in cx.oracle_vertices()}
    memo = {}  # (v, f(parent), f(v)) -> whether v's subtree can meet its tests

    def threshold(v, key):
        if v not in tables:
            return -graph.get(v, 0) - sum(key)
        table = tables[v]
        if key not in table:
            rest = d.curve_part(v) - e_div.curve_part(v)
            marks = [(e.name, end) for e, end in cx.model.incident_edges(v)]
            if marks:
                twist = cx._on_marks(v, zip(marks, key))
                table[key] = spaces[v].least_twist(rest + twist, cx.marks[v][marks[-1]])
            else:
                table[key] = 0 if spaces[v].subspace_meets(rest) else None
        return table[key]

    def top(c, fv):
        # a leaf's largest value meeting its test, at most bound
        t = threshold(c, ())
        return -bound - 1 if t is None else min(fv - t, bound)

    def settled(c, v, f):
        key = (c, f[v], f[c])
        if key not in memo:
            memo[key] = search(c, v, f)
        return memo[key]

    def lasts(v, f):
        # the values of v's last neighbour that meet v's test
        t = threshold(v, tuple(f[w] - f[v] for w in ends[v][:-1]))
        return () if t is None else range(max(-bound, f[v] + t), bound + 1)

    def search(v, up, f):
        leaves = [c for c in ends[v] if c != up and len(ends[c]) == 1]
        inner = [c for c in ends[v] if c != up and len(ends[c]) > 1]
        f.update((c, top(c, f[v])) for c in leaves)
        if any(f[c] < -bound for c in leaves):
            return False
        last = inner.pop() if inner and inner[-1] == ends[v][-1] else None
        for vals in itertools.product(range(-bound, bound + 1), repeat=len(inner)):
            f.update(zip(inner, vals))
            if last is None:
                if f[(ends[v] or [v])[-1]] in lasts(v, f) and all(settled(c, v, f) for c in inner):
                    return True
                continue
            for f[last] in lasts(v, f):
                if all(settled(c, v, f) for c in inner) and settled(last, v, f):
                    return True
        return False

    root = cx.model.vertices[0]
    return search(root, None, {root: 0})


def restricted_rank(cx, d: ComplexDivisor, spaces, validate=False) -> int:
    """The rank with curve-level moves restricted to the given function
    spaces: the largest k such that after removing any k test chips some
    integer vertex potential plus per-vertex space elements restore
    effectivity.

    Only integer divisors on unit-edge-length trees are supported, with a
    projective line (and its function space) at every oracle vertex.
    With validate, the search is rerun with the potential bound widened by
    2 and one more fresh chip site per component, and must give the same
    rank.  A vertex test is monotone in each difference of the potential
    along its edges, as a larger one only adds chips or enlarges the bound a
    space element must meet; so it is one threshold on the last edge: -D(v)
    less the others at a graphical vertex, at an oracle vertex the least
    twist (FunctionSpace.least_twist), kept per test chips and the others
    and read by one elimination on the space's Taylor rows at the node.  The
    potentials are searched depth first from model.vertices[0], each subtree
    once per (vertex, f(parent), f(vertex)); a leaf takes the largest value
    its threshold allows, and a vertex's last child starts at the least
    value its threshold allows (see _restricted_feasible).
    """
    if any(e.length != 1 for e in cx.model.edges.values()):
        raise InputError("restricted rank needs unit edge lengths")
    if cx.model.first_betti() != 0:
        raise InputError("restricted rank needs a tree dual graph")
    for v in cx.oracle_vertices():
        if v not in spaces:
            raise InputError(f"no function space at {v}")
        if spaces[v].oracle.field != cx.oracles[v].field:
            raise InputError(f"function space at {v} is not over the field of its curve")
    if any(p.kind != "v" for p in d.graph.support()):
        raise InputError("restricted rank needs vertex-supported divisors")
    dims = [spaces[v].dim for v in cx.oracle_vertices()]
    cap = max(0, min(dims) - 1) if dims else max(d.degree(), -1)

    pools = _special_pools(cx, d, spaces)
    verdicts = {}  # shared by both passes; see _restricted_feasible
    ends = {w: [e.v if end == 0 else e.u for e, end in cx.model.incident_edges(w)]
            for w in cx.model.vertices}

    def rank_with(widen, fresh):
        base = d.deg_plus() + widen
        r = _largest_k(
            _restricted_sites(cx, pools, fresh),
            lambda combo: _restricted_feasible(
                cx, d, site_divisor(cx, combo), spaces, base + len(combo), verdicts, ends
            ),
            cap + 1,
        )
        if r > cap:
            raise McdivError(
                "restricted rank exceeded its dimension cap; test pool too weak"
            )
        return r

    r = rank_with(0, 2)
    if validate:
        wide = rank_with(2, 3)
        if wide != r:
            raise McdivError(
                f"restricted rank certificate failed: {r}, but {wide} with a potential "
                "bound wider by 2 and one more fresh site per component"
            )
    return r


def restricted_eta(cx, d, x, spaces, k) -> int:
    """Smallest twist n at the attachment point reaching restricted rank
    exactly k; errors when k is beyond the dimension cap."""
    dims = [spaces[v].dim for v in cx.oracle_vertices()]
    cap = max(0, min(dims) - 1) if dims else None
    if cap is not None and k > cap:
        raise InputError(f"restricted rank never reaches {k}; cap is {cap}")
    return _first_twist(
        cx, d, x, k, k - d.degree(), lambda e: restricted_rank(cx, e, spaces)
    )


def limit_equiv_audit(cx, aspects, root, d: int, r: int) -> AuditReport:
    """Both sides of the limit-series equivalence: the node inequalities
    and the restricted rank of the associated divisor; asserts the
    biconditional."""
    rep = AuditReport()
    ok_crude, violations = crude_limit_check(cx, aspects, d, r)
    for v in cx.model.vertices:
        if isinstance(aspects[v], VanishingTable):
            raise InputError(f"restricted rank needs a function space at {v}, not a vanishing table")
    spaces = {v: aspects[v].space for v in cx.model.vertices}
    div = eqD_divisor(cx, root, {v: aspects[v].divisor for v in cx.model.vertices})
    rr = restricted_rank(cx, div, spaces)
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
