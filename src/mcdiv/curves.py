"""Vertex-curve oracles: the projective line, elliptic curves over prime
fields, and table-backed Picard models.

An oracle answers the handful of divisor-theoretic questions the
combinatorial layer needs: rank of a divisor, equality of divisor classes,
a deterministic effective representative, a canonical divisor, and samples
of minimal non-special divisors.  Concrete curve geometry never leaks past
this interface.  The class answers depend on (degree, class) alone: each
oracle gives `class_of`, `_rank` and `_in_class`, `CurveOracle` the rest.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import AuditError, FieldTooSmallError, InputError
from .exact import INF, Fp, Poly, PrimeField, QQ, RationalFunc
from .metric import ChipSum


class CurveDivisor(ChipSum):
    """Finite integer combination of points on one curve.  This constructor
    and `oracle.divisor` check every point they keep; `oracle._like` builds
    sums, multiples and divisors on a complex's checked marks unchecked."""

    def __init__(self, oracle, coeffs=None):
        super().__init__(coeffs)
        self.oracle = oracle
        for p in self.coeffs:
            oracle.validate_point(p)

    def _like(self, coeffs):
        return self.oracle._like(coeffs)

    def _same(self, o):
        return o.oracle is self.oracle

    def _order(self, p):
        return self.oracle.point_key(p)

    _term = "{c}*({p})"


class CurveOracle:
    """Interface shared by all vertex-curve models."""

    genus = 0

    def divisor(self, *pairs):
        return CurveDivisor(self, ChipSum.tally(pairs))

    def zero_divisor(self):
        return self._like({})

    def _like(self, coeffs):
        out = object.__new__(CurveDivisor)
        ChipSum.__init__(out, coeffs)
        out.oracle = self
        return out

    def validate_point(self, p):  # pragma: no cover - interface
        raise NotImplementedError

    def point_key(self, p):  # pragma: no cover - interface
        raise NotImplementedError

    def class_of(self, pairs):  # pragma: no cover - interface
        """(degree, class) of the divisor of the (point, c) pairs; a point
        may repeat."""
        raise NotImplementedError

    def _rank(self, deg, cls) -> int:  # pragma: no cover - interface
        raise NotImplementedError

    def _in_class(self, deg, cls) -> CurveDivisor:  # pragma: no cover - interface
        """An effective divisor in a class of rank >= 0."""
        raise NotImplementedError

    def curve_rank(self, d: CurveDivisor) -> int:
        self._check(d)
        return self._rank(*self.class_of(d.coeffs.items()))

    def classes_equal(self, d1, d2) -> bool:
        self._check(d1)
        self._check(d2)
        return self.class_of(d1.coeffs.items()) == self.class_of(d2.coeffs.items())

    def effective_representative(self, d) -> CurveDivisor:
        self._check(d)
        deg, cls = self.class_of(d.coeffs.items())
        if self._rank(deg, cls) < 0:
            raise InputError("no effective representative")
        return self._in_class(deg, cls)

    def nonneg_rank(self, pairs) -> bool:
        """Whether the divisor of the (point, c) pairs has rank >= 0,
        building no divisor."""
        return self._rank(*self.class_of(pairs)) >= 0

    def __init_subclass__(cls, **kwargs):
        # perfbench/spans.py wraps curve_rank and classes_equal from each
        # oracle class's own __dict__, so every subclass holds them itself
        super().__init_subclass__(**kwargs)
        cls.curve_rank = CurveOracle.curve_rank
        cls.classes_equal = CurveOracle.classes_equal

    def canonical_divisor(self) -> CurveDivisor:  # pragma: no cover
        raise NotImplementedError

    def sample_points(self, count, avoid=()):  # pragma: no cover
        raise NotImplementedError

    def pool(self, count, avoid=()):
        """`count` sample points off `avoid`, or a single sample point on a
        curve with too few."""
        try:
            return self.sample_points(count, avoid)
        except FieldTooSmallError:
            return self.sample_points(1)

    def minimal_nonspecial_sample(self, pool):  # pragma: no cover
        raise NotImplementedError

    def _check(self, d):
        if d.oracle is not self:
            raise InputError("divisor belongs to a different oracle")


class P1Oracle(CurveOracle):
    """The projective line: every divisor class is determined by its degree."""

    genus = 0

    def __init__(self, field=QQ):
        self.field = field

    def validate_point(self, p):
        if p is INF:
            return
        if isinstance(self.field, PrimeField):
            if not (isinstance(p, Fp) and p.p == self.field.p):
                raise InputError(f"{p!r} is not a point of P1 over {self.field}")
        else:
            if not isinstance(p, Fraction):
                raise InputError(f"{p!r} is not a rational point of P1 over Q")

    def point_key(self, p):
        if p is INF:
            return (0, 0, 0)
        if isinstance(p, Fp):
            return (1, p.v, 0)
        return (1, p.numerator, p.denominator)

    def class_of(self, pairs):
        """(degree, None): on the line the degree is the whole class."""
        return sum(c for _, c in pairs), None

    def _rank(self, deg, cls):
        return max(deg, -1)

    def _in_class(self, deg, cls):
        return self._like({INF: deg})

    def canonical_divisor(self):
        return self.divisor((INF, -2))

    def sample_points(self, count, avoid=()):
        avoid = set(avoid)
        stream = self.field.sample_points(count + len(avoid) + 1) + [INF]
        out = [p for p in stream if p not in avoid][:count]
        if len(out) < count:
            raise FieldTooSmallError(count, len(out), f"P1 over {self.field}")
        return out

    def minimal_nonspecial_sample(self, pool):
        for q in pool:
            yield self.divisor((q, -1))

    def principal_witness(self, d: CurveDivisor) -> RationalFunc:
        """A rational function with divisor exactly d (degree 0 required);
        its numerator and denominator are monic and coprime by construction."""
        self._check(d)
        if d.degree() != 0:
            raise InputError("principal divisors have degree 0")
        num = Poly.const(self.field, 1)
        den = Poly.const(self.field, 1)
        for p, c in d.coeffs.items():
            if p is INF:
                continue
            lin = Poly.make(self.field, [-p, 1])
            for _ in range(abs(c)):
                if c > 0:
                    num = num * lin
                else:
                    den = den * lin
        return RationalFunc(num, den)

    def divisor_of(self, f: RationalFunc) -> CurveDivisor:
        """div(f) for a function whose zeros and poles are field-rational."""
        if f.is_zero():
            raise InputError("div of the zero function")
        nroots, ncof = f.num.rational_roots()
        droots, dcof = f.den.rational_roots()
        if ncof.degree > 0 or dcof.degree > 0:
            raise InputError("function does not split over the base field")
        return self.divisor(*((r, 1) for r in nroots), *((r, -1) for r in droots),
                            (INF, f.den.degree - f.num.degree))


@dataclass(frozen=True)
class EPoint:
    x: Fp
    y: Fp

    def __repr__(self):
        return f"({self.x},{self.y})"


class EOrigin:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "O"


O_POINT = EOrigin()


class EllipticOracle(CurveOracle):
    """Short Weierstrass curve y^2 = x^3 + ax + b over F_p, p > 3 prime."""

    genus = 1

    def __init__(self, p: int, a, b):
        if p <= 3:
            raise InputError("need p > 3 for the short Weierstrass form")
        self.field = PrimeField(p)
        self.a = self.field.elem(a)
        self.b = self.field.elem(b)
        disc = self.field.elem(4) * self.a * self.a * self.a + self.field.elem(
            27
        ) * self.b * self.b
        if not disc:
            raise InputError("singular curve: 4a^3 + 27b^2 = 0")

    def on_curve(self, pt):
        if pt is O_POINT:
            return True
        return pt.y * pt.y == pt.x * pt.x * pt.x + self.a * pt.x + self.b

    def validate_point(self, p):
        """O, or an EPoint on the curve whose coordinates are both Fp over its
        prime: the group law reads their integers, so no other is accepted."""
        if p is O_POINT:
            return
        if not (isinstance(p, EPoint) and isinstance(p.x, Fp) and isinstance(p.y, Fp)
                and p.x.p == self.field.p == p.y.p and self.on_curve(p)):
            raise InputError(f"{p!r} is not on the curve")

    def point_key(self, p):
        if p is O_POINT:
            return (0, 0, 0)
        return (1, p.x.v, p.y.v)

    def point(self, x, y):
        pt = EPoint(self.field.elem(x), self.field.elem(y))
        self.validate_point(pt)
        return pt

    def _points(self):
        """O, then the affine points by x and then y ascending, each built
        as it is reached."""
        p, a, b = self.field.p, self.a.v, self.b.v
        roots = {}  # square -> its square roots, ascending
        for y in range(p):
            roots.setdefault(y * y % p, []).append(y)
        yield O_POINT
        for x in range(p):
            for y in roots.get((x * x * x + a * x + b) % p, ()):
                yield EPoint(Fp(x, p), Fp(y, p))

    def all_points(self):
        return list(self._points())

    def _law(self, s, t):
        """The group law on affine integer pairs (x, y) mod p; O_POINT is O."""
        if s is O_POINT:
            return t
        if t is O_POINT:
            return s
        p = self.field.p
        (x1, y1), (x2, y2) = s, t
        if x1 != x2:
            m = (y2 - y1) * pow(x2 - x1, -1, p) % p
        elif (y1 + y2) % p:
            m = (3 * x1 * x1 + self.a.v) * pow(2 * y1, -1, p) % p
        else:
            return O_POINT
        x = (m * m - x1 - x2) % p
        return x, (m * (x1 - x) - y1) % p

    def _epoint(self, s):
        return s if s is O_POINT else EPoint(Fp(s[0], self.field.p), Fp(s[1], self.field.p))

    def add_points(self, p, q):
        return self._epoint(self.class_of([(p, 1), (q, 1)])[1])

    def class_of(self, pairs):
        """(degree, the sum of the points as an integer pair (x, y) mod p or
        O_POINT): double-and-add per point, of the negated point for c < 0."""
        deg, acc = 0, O_POINT
        for pt, c in pairs:
            deg += c
            if pt is O_POINT:
                continue
            s = (pt.x.v, pt.y.v if c > 0 else -pt.y.v % self.field.p)
            n = abs(c)
            while n:
                if n & 1:
                    acc = self._law(acc, s)
                n >>= 1
                if n:
                    s = self._law(s, s)
        return deg, acc

    def _rank(self, deg, cls):
        if deg == 0:
            return 0 if cls is O_POINT else -1
        return max(deg - 1, -1)

    def _in_class(self, deg, cls):
        # in degree 0 the sum is O and the two terms cancel
        return self.divisor((self._epoint(cls), 1), (O_POINT, deg - 1))

    def canonical_divisor(self):
        return self.zero_divisor()

    def sample_points(self, count, avoid=()):
        avoid = set(avoid)
        out = list(itertools.islice((p for p in self._points() if p not in avoid), count))
        if len(out) < count:
            raise FieldTooSmallError(count, len(out), f"elliptic over F{self.field.p}")
        return out

    def minimal_nonspecial_sample(self, pool):
        pool = list(pool)
        for p, q in itertools.permutations(pool, 2):
            if p != q:
                yield self.divisor((p, 1), (q, -1))


class TableOracle(CurveOracle):
    """Picard data of a genus-g curve given by explicit tables.

    The class group of degree-zero divisors is a finite abelian group
    (a product of cyclic groups); labeled points carry their degree-one
    class images, and the rank of every class in the degree window
    [0, 2g-2] is tabulated.  Construction audits the table against the
    curve Riemann-Roch identity and rejects inconsistent data.
    """

    def __init__(self, genus, moduli, points, rank_table, canonical_class):
        self.genus = int(genus)
        self.moduli = tuple(int(m) for m in moduli)
        if any(m <= 0 for m in self.moduli):
            raise InputError("group moduli must be positive")
        self.points = {str(k): self._norm(v) for k, v in points.items()}
        if not self.points:
            raise InputError("table oracle needs at least one labeled point")
        if self.genus >= 1 and len(set(self.points.values())) != len(self.points):
            raise InputError(
                "labeled points must have distinct classes in positive genus"
            )
        self.canonical_class = self._norm(canonical_class)
        self.rank_table = {}
        for (deg, cls), r in rank_table.items():
            self.rank_table[(int(deg), self._norm(cls))] = int(r)
        self.field = None
        self._audit_table()

    def _norm(self, elem):
        e = tuple(int(x) for x in elem)
        if len(e) != len(self.moduli):
            raise InputError("group element has wrong number of components")
        return tuple(x % m for x, m in zip(e, self.moduli))

    def _gadd(self, a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, self.moduli))

    def _gneg(self, a):
        return tuple((-x) % m for x, m in zip(a, self.moduli))

    def _gzero(self):
        return tuple(0 for _ in self.moduli)

    def all_classes(self):
        return [self._norm(t) for t in itertools.product(*[range(m) for m in self.moduli])]

    def table_rank(self, deg, cls):
        return self._rank(deg, self._norm(cls) if 0 <= deg <= 2 * self.genus - 2 else cls)

    def _rank(self, deg, cls):
        """table_rank of a normalized class."""
        g = self.genus
        if deg < 0:
            return -1
        if deg > 2 * g - 2:
            return deg - g
        r = self.rank_table.get((deg, cls))
        if r is None:
            raise InputError(f"no table entry for degree {deg}, class {cls}")
        return r

    def _audit_table(self):
        g = self.genus
        k = self.canonical_class
        for deg in range(0, max(2 * g - 1, 1)):
            for c in self.all_classes():
                r = self.table_rank(deg, c)
                if r < -1:
                    raise AuditError(f"rank below -1 at ({deg},{c})")
                rk = self.table_rank(2 * g - 2 - deg, self._gadd(k, self._gneg(c)))
                if r - rk != deg - g + 1:
                    raise AuditError(
                        f"Riemann-Roch fails at degree {deg}, class {c}: "
                        f"{r} - {rk} != {deg - g + 1}"
                    )
                for img in set(self.points.values()):
                    r2 = self.table_rank(deg + 1, self._gadd(c, img))
                    if r2 - max(r, -1) not in (0, 1):
                        raise AuditError(
                            f"adding a point changes rank by {r2 - r} at ({deg},{c})"
                        )
        if self.table_rank(0, self._gzero()) != 0:
            raise AuditError("trivial class must have rank 0 in degree 0")
        # every rank>=0 window class must be representable by pool points
        self._reps = self._build_representatives()

    def _build_representatives(self):
        """Smallest-support effective representatives, per (degree, class)."""
        reps = {(0, self._gzero()): ()}
        horizon = 2 * self.genus + 2
        frontier = {(0, self._gzero()): ()}
        labels = sorted(self.points)
        for _deg in range(horizon):
            new = {}
            for (d, c), combo in frontier.items():
                for lab in labels:
                    key = (d + 1, self._gadd(c, self.points[lab]))
                    if key not in reps:
                        entry = tuple(sorted(combo + (lab,)))
                        reps[key] = entry
                        new[key] = entry
            frontier = new
        for deg in range(0, 2 * self.genus - 1):
            for c in self.all_classes():
                if self.table_rank(deg, c) >= 0 and (deg, c) not in reps:
                    raise AuditError(
                        f"class ({deg},{c}) has rank >= 0 but no representative "
                        "supported on the labeled points"
                    )
        return reps

    def validate_point(self, p):
        if p not in self.points:
            raise InputError(f"unknown labeled point {p!r}")

    def point_key(self, p):
        return (0, p, 0)

    def class_of(self, pairs):
        """(degree, normalized class): each component summed over the points
        in one pass, then reduced once mod its modulus."""
        deg, sums = 0, [0] * len(self.moduli)
        for p, c in pairs:
            deg += c
            for i, x in enumerate(self.points[p]):
                sums[i] += c * x
        return deg, tuple(s % m for s, m in zip(sums, self.moduli))

    def canonical_divisor(self):
        deg = 2 * self.genus - 2
        if self.table_rank(deg, self.canonical_class) < 0:
            raise InputError("declared canonical class is not effective")
        return self._in_class(deg, self.canonical_class)

    def _in_class(self, deg, cls):
        # beyond the precomputed horizon: peel k copies of the first label
        lab0, k = min(self.points), 0
        while (deg - k, cls) not in self._reps:
            cls = self._gadd(cls, self._gneg(self.points[lab0]))
            k += 1
            if k > deg:
                raise InputError("no representative found")
        return self.divisor(*((lab, 1) for lab in self._reps[(deg - k, cls)]), (lab0, k))

    def divisor_in_class(self, deg, cls):
        """Some divisor (not necessarily effective) in the given class."""
        cls = self._norm(cls)
        labels = sorted(self.points)
        for radius in range(0, 3 * (self.genus + 2)):
            for combo in itertools.combinations_with_replacement(labels, radius):
                for signs in itertools.product((1, -1), repeat=len(combo)):
                    pairs = list(zip(combo, signs))
                    if self.class_of(pairs) == (deg, cls):
                        return self.divisor(*pairs)
        raise InputError("no divisor found in class")

    def sample_points(self, count, avoid=()):
        avoid = set(avoid)
        out = [p for p in sorted(self.points) if p not in avoid][:count]
        if len(out) < count:
            raise FieldTooSmallError(count, len(out), "table oracle pool")
        return out

    def rank_one_detection(self, residual_points) -> bool:
        """Whether the residual points still detect every rank-0 class:
        for each tabulated class of rank 0 some residual point drops it to
        an empty system.  Needed for the points to be rank-determining."""
        imgs = {self.points[p] for p in residual_points}
        if not imgs:
            return False
        for (deg, cls), r in self.rank_table.items():
            if r != 0:
                continue
            if not any(
                self.table_rank(deg - 1, self._gadd(cls, self._gneg(i))) == -1
                for i in imgs
            ):
                return False
        return True

    def minimal_nonspecial_sample(self, pool):
        g = self.genus
        seen = set()
        for c in self.all_classes():
            if self.table_rank(g - 1, c) == -1 and c not in seen:
                seen.add(c)
                yield self.divisor_in_class(g - 1, c)


def genus2_table_oracle():
    """A consistent genus-2 Picard table with class group Z/13.

    The labeled points inject into the class group (as the degree-one
    Abel-Jacobi map does on any positive-genus curve); their images are
    the effective degree-one classes, the complement {0, 5, 8} carries the
    minimal non-special classes, and the canonical class is 0.  The label
    order keeps the rank-detection property intact after marked points
    are removed.
    """
    g = 2
    moduli = (13,)
    image_order = [1, 2, 6, 7, 9, 11, 12, 4, 10, 3]
    points = {f"L{i:02d}": (img,) for i, img in enumerate(image_order, start=1)}
    nonspecial1 = {(0,), (5,), (8,)}
    table = {}
    for c in range(13):
        table[(0, (c,))] = 0 if c == 0 else -1
        table[(1, (c,))] = -1 if (c,) in nonspecial1 else 0
        table[(2, (c,))] = 1 if c == 0 else 0
    return TableOracle(g, moduli, points, table, canonical_class=(0,))


class AuditReport:
    """Outcome of an oracle self-check: a list of (name, ok, witness)."""

    def __init__(self):
        self.checks = []

    def record(self, name, ok, witness=""):
        self.checks.append((name, bool(ok), witness))

    def passed(self):
        return all(ok for _, ok, _ in self.checks)

    def failures(self):
        return [(n, w) for n, ok, w in self.checks if not ok]

    def __repr__(self):
        status = "ok" if self.passed() else "FAIL"
        return f"AuditReport({status}, {len(self.checks)} checks)"


def riemann_roch_audit(oracle: CurveOracle):
    """Check the oracle axioms on a deterministic sample of 24 divisors
    (plus zero and canonical)."""
    import random

    rng = random.Random(0)
    rep = AuditReport()
    g = oracle.genus
    k_div = oracle.canonical_divisor()
    rep.record("canonical degree", k_div.degree() == 2 * g - 2, repr(k_div))
    pool = oracle.pool(max(g + 2, 3))
    divisors = [oracle.zero_divisor(), k_div]
    for _ in range(24):
        picks = [(pool[rng.randrange(len(pool))], rng.randint(-2, 2))
                 for _ in range(rng.randint(1, 3))]
        divisors.append(oracle.divisor(*picks))
    for d in divisors:
        r = oracle.curve_rank(d)
        deg = d.degree()
        rep.record("rank >= -1", r >= -1, repr(d))
        if deg < 0:
            rep.record("negative degree has empty system", r == -1, repr(d))
        if deg > 2 * g - 2:
            rep.record("high degree rank", r == deg - g, repr(d))
        rk = oracle.curve_rank(k_div - d)
        rep.record(
            "Riemann-Roch identity",
            r - rk == deg - g + 1,
            f"{d!r}: {r} - {rk} != {deg - g + 1}",
        )
        r_up = oracle.curve_rank(d + oracle.divisor((pool[0], 1)))
        rep.record("adding a point moves rank by 0 or 1", r_up - r in (0, 1), repr(d))
        if r >= 0:
            e = oracle.effective_representative(d)
            rep.record("effective representative effective", e.is_effective(), repr(e))
            rep.record(
                "effective representative in class",
                oracle.classes_equal(d, e),
                f"{d!r} vs {e!r}",
            )
            rep.record("rank constant on classes", oracle.curve_rank(e) == r, repr(d))
    return rep
