"""Exact arithmetic substrate: Q, prime fields, univariate polynomials,
rational functions in one variable, and dense linear algebra over these
fields.  No floating point anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class Fp:
    """An element of F_p in canonical representative form 0 <= v < p."""

    v: int
    p: int

    def __post_init__(self):
        object.__setattr__(self, "v", self.v % self.p)

    def __add__(self, o):
        return Fp(self.v + o.v, self.p)

    def __sub__(self, o):
        return Fp(self.v - o.v, self.p)

    def __neg__(self):
        return Fp(-self.v, self.p)

    def __mul__(self, o):
        return Fp(self.v * o.v, self.p)

    def inverse(self):
        if self.v == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return Fp(pow(self.v, self.p - 2, self.p), self.p)

    def __truediv__(self, o):
        return self * o.inverse()

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"{self.v}"


class Field:
    """Field descriptor: knows how to build and enumerate elements."""

    def elem(self, x):  # pragma: no cover - interface
        raise NotImplementedError

    def sample_points(self, count):
        raise NotImplementedError


class Rationals(Field):
    name = "Q"

    def elem(self, x):
        # Poly arithmetic over Q mostly hands in Fractions already
        return x if type(x) is Fraction else Fraction(x)

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def sample_points(self, count):
        # deterministic stream 0, 1, -1, 2, -2, ...
        out = [Fraction(0)]
        k = 1
        while len(out) < count:
            out.append(Fraction(k))
            if len(out) < count:
                out.append(Fraction(-k))
            k += 1
        return out[:count]

    def __eq__(self, o):
        return isinstance(o, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField(Field):
    def __init__(self, p: int):
        if not is_prime(p):
            raise InputError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"

    def elem(self, x):
        if isinstance(x, Fp):
            if x.p != self.p:
                raise InputError("element from a different prime field")
            return x
        return Fp(int(x), self.p)

    def zero(self):
        return Fp(0, self.p)

    def one(self):
        return Fp(1, self.p)

    def sample_points(self, count):
        return [Fp(i, self.p) for i in range(min(count, self.p))]

    def __eq__(self, o):
        return isinstance(o, PrimeField) and o.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return self.name


QQ = Rationals()


class _Infinity:
    """The point at infinity of the projective line."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INF = _Infinity()


@dataclass(frozen=True)
class Poly:
    """Dense univariate polynomial over a Field; coeffs[i] multiplies t^i."""

    field: Field
    coeffs: tuple

    @staticmethod
    def make(field, coeffs):
        cs = [field.elem(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        return Poly(field, tuple(cs))

    @staticmethod
    def const(field, c):
        return Poly.make(field, [c])

    @staticmethod
    def x(field):
        return Poly.make(field, [0, 1])

    @property
    def degree(self):
        # degree of the zero polynomial is -1 by convention
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def lead(self):
        if self.is_zero():
            raise InputError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, o):
        n = max(len(self.coeffs), len(o.coeffs))
        z = self.field.zero()
        a = list(self.coeffs) + [z] * (n - len(self.coeffs))
        b = list(o.coeffs) + [z] * (n - len(o.coeffs))
        return Poly.make(self.field, [x + y for x, y in zip(a, b)])

    def __neg__(self):
        return Poly(self.field, tuple(-c for c in self.coeffs))

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        if self.is_zero() or o.is_zero():
            return Poly(self.field, ())
        z = self.field.zero()
        out = [z] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(o.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly.make(self.field, out)

    def scale(self, c):
        c = self.field.elem(c)
        return Poly.make(self.field, [a * c for a in self.coeffs])

    def divmod(self, o):
        if o.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        field, n, r = self.field, o.degree, list(self.coeffs)
        if len(r) <= n:
            return Poly(field, ()), self
        inv_lead = field.one() / o.lead()
        q = []
        for k in range(len(r) - 1 - n, -1, -1):
            c = r.pop() * inv_lead
            q.append(c)
            if c:
                for j in range(n):
                    r[k + j] = r[k + j] - c * o.coeffs[j]
        return Poly.make(field, q[::-1]), Poly.make(field, r)

    def __mod__(self, o):
        return self.divmod(o)[1]

    def __floordiv__(self, o):
        return self.divmod(o)[0]

    def gcd(self, o):
        a, b = self, o
        while not b.is_zero():
            a, b = b, a % b
        if a.is_zero():
            return a
        return a.monic()

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self.field.one() / self.lead())

    def derivative(self):
        if self.degree < 1:
            return Poly(self.field, ())
        return Poly.make(
            self.field,
            [self.coeffs[i] * self.field.elem(i) for i in range(1, len(self.coeffs))],
        )

    def __call__(self, x):
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shifted(self, a):
        """The polynomial p(t + a), via repeated synthetic division by t - a."""
        a = self.field.elem(a)
        cs = list(self.coeffs)
        out = []
        while cs:
            horner = []
            acc = self.field.zero()
            for c in reversed(cs):
                acc = acc * a + c
                horner.append(acc)
            horner.reverse()
            out.append(horner[0])  # remainder = next Taylor coefficient
            cs = horner[1:]
        return Poly.make(self.field, out)

    def mult_at(self, a):
        """Multiplicity of the root a (0 if p(a) != 0)."""
        if self.is_zero():
            raise InputError("zero polynomial")
        return _val0(self.shifted(a))

    def rational_roots(self):
        """Roots lying in the base field, ascending and with multiplicity,
        plus the nonsplit cofactor.  Over F_p the scan of candidates stops
        once the cofactor is constant."""
        if self.is_zero():
            raise InputError("zero polynomial")
        roots = []
        p = self
        if isinstance(self.field, PrimeField):
            for i in range(self.field.p):
                if p.degree == 0:
                    break
                a = Fp(i, self.field.p)
                while not p(a):
                    roots.append(a)
                    p = p // Poly.make(self.field, [-a, 1])
        else:
            # rational root theorem on the primitive integer model
            p = p.monic()
            while p.degree > 0:
                den_lcm = math.lcm(*(c.denominator for c in p.coeffs))
                ints = [int(c * den_lcm) for c in p.coeffs]
                a0, an = ints[0], ints[-1]
                if a0 == 0:
                    root = Fraction(0)
                else:
                    root = None
                    for r in _divisors(abs(a0)):
                        for s in _divisors(abs(an)):
                            for sign in (1, -1):
                                cand = Fraction(sign * r, s)
                                if not p(cand):
                                    root = cand
                                    break
                            if root is not None:
                                break
                        if root is not None:
                            break
                    if root is None:
                        break
                roots.append(root)
                p = p // Poly.make(self.field, [-root, 1])
        return roots, p

    def __repr__(self):
        if self.is_zero():
            return "0"
        return " + ".join(
            f"{c}*t^{i}" if i else f"{c}" for i, c in enumerate(self.coeffs) if c
        )


def _divisors(n):
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


@dataclass(frozen=True)
class RationalFunc:
    """Quotient of polynomials in canonical form: monic denominator,
    gcd(num, den) = 1."""

    num: Poly
    den: Poly

    @staticmethod
    def make(num, den):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        g = num.gcd(den)
        if not g.is_zero() and g.degree > 0:
            num = num // g
            den = den // g
        lead = den.lead()
        one = den.field.one()
        if lead != one:
            inv = one / lead
            num = num.scale(inv)
            den = den.scale(inv)
        return RationalFunc(num, den)

    @property
    def field(self):
        return self.den.field

    def is_zero(self):
        return self.num.is_zero()

    def __add__(self, o):
        return RationalFunc.make(self.num * o.den + o.num * self.den, self.den * o.den)

    def __sub__(self, o):
        return RationalFunc.make(self.num * o.den - o.num * self.den, self.den * o.den)

    def __mul__(self, o):
        return RationalFunc.make(self.num * o.num, self.den * o.den)

    def __truediv__(self, o):
        if o.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return RationalFunc.make(self.num * o.den, self.den * o.num)

    def scale(self, c):
        return RationalFunc.make(self.num.scale(c), self.den)

    def __call__(self, x):
        """Value at a finite point; raises on a pole."""
        d = self.den(x)
        if not d:
            raise ZeroDivisionError("pole")
        return self.num(x) / d

    def __repr__(self):
        return f"({self.num})/({self.den})"


def ord_at(f: RationalFunc, p) -> int:
    """Vanishing order of f at a point of P^1 (negative means a pole).

    p is a field element or INF; the orders over all points of P^1 sum
    to zero.
    """
    if f.is_zero():
        raise InputError("ord of zero undefined")
    if p is INF:
        return f.den.degree - f.num.degree
    return f.num.mult_at(p) - f.den.mult_at(p)


def laurent_at(f: RationalFunc, p, terms: int):
    """First `terms` Laurent coefficients of f at p.

    Returns (k, [c_0, c_1, ...]) meaning f = sum c_i * u^(k+i) with u the
    local parameter t - p (or 1/t at INF) and c_0 != 0.
    """
    if f.is_zero():
        raise InputError("zero function has no expansion")
    field = f.field
    if p is INF:
        num = Poly.make(field, list(reversed(f.num.coeffs)))
        den = Poly.make(field, list(reversed(f.den.coeffs)))
        shift = f.den.degree - f.num.degree
        g = RationalFunc.make(num, den)
        k0, coeffs = laurent_at(g, field.zero(), terms)
        return k0 + shift, coeffs
    num = f.num.shifted(p)
    den = f.den.shifted(p)
    vn = _val0(num)
    vd = _val0(den)
    k = vn - vd
    num_u = Poly.make(field, num.coeffs[vn:])
    den_u = Poly.make(field, den.coeffs[vd:])
    coeffs = _series_div(num_u, den_u, terms)
    return k, coeffs


def _val0(p: Poly) -> int:
    for i, c in enumerate(p.coeffs):
        if c:
            return i
    raise InputError("zero polynomial has no valuation")


def _series_div(num: Poly, den: Poly, terms: int):
    """Power series of num/den at 0 up to `terms` coefficients; den(0) != 0."""
    field = num.field
    inv0 = field.one() / den.coeffs[0]
    out = []
    rem = list(num.coeffs) + [field.zero()] * terms
    dcs = den.coeffs
    for i in range(terms):
        c = rem[i] * inv0
        out.append(c)
        for j, d in enumerate(dcs):
            if i + j < len(rem):
                rem[i + j] = rem[i + j] - c * d
    return out


@dataclass
class MatrixF:
    """Dense matrix over a Field (exact)."""

    field: Field
    rows: list  # list of lists of field elements

    @staticmethod
    def make(field, rows):
        return MatrixF(field, [[field.elem(x) for x in r] for r in rows])

    def rref(self):
        """Reduced row echelon form; returns (matrix rows, pivot columns)."""
        m = [list(r) for r in self.rows]
        nr, nc = len(m), (len(m[0]) if m else 0)
        pivots = []
        r = 0
        for c in range(nc):
            piv = None
            for i in range(r, nr):
                if m[i][c]:
                    piv = i
                    break
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            inv = self.field.one() / m[r][c]
            m[r] = [x * inv for x in m[r]]
            for i in range(nr):
                if i != r and m[i][c]:
                    f = m[i][c]
                    m[i] = [x - f * y for x, y in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == nr:
                break
        return m, pivots

    def rank(self):
        """Over F_p the pivot count of rref.  Over Q each nonzero row is
        scaled to integers and eliminated fraction-free (Bareiss): after k
        pivots an entry is a (k+1)-minor, so dividing by the previous pivot
        is exact."""
        if not isinstance(self.field, Rationals):
            return len(self.rref()[1])
        m = []
        for row in self.rows:
            den = math.lcm(*[x.denominator for x in row])
            ints = [x.numerator * (den // x.denominator) for x in row]
            if any(ints):
                m.append(ints)
        nr, nc = len(m), (len(m[0]) if m else 0)
        r, prev = 0, 1
        for c in range(nc):
            piv = next((i for i in range(r, nr) if m[i][c]), None)
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            p, top = m[r][c], m[r]
            if c + 1 < nc:  # the last column needs only its pivot
                for i in range(r + 1, nr):
                    a = m[i][c]
                    m[i] = [(p * x - a * y) // prev for x, y in zip(m[i], top)]
            prev = p
            r += 1
        return r
