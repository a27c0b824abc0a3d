"""Exact arithmetic kernel: fields, polynomials, rational functions,
vanishing orders, and kernels."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mcdiv.errors import InputError
from mcdiv.exact import (
    INF,
    Echelon,
    Fp,
    MatrixF,
    Poly,
    PrimeField,
    QQ,
    RationalFunc,
    is_prime,
    laurent_at,
    ord_at,
)

fractions = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)


def fp5(vals):
    return [Fp(v, 5) for v in vals]


def _division_roots(f):
    """Rational roots by dividing out t - a once per root: over F_p for a =
    0, 1, ..., p - 1 in turn; over Q for the candidates of the rational root
    theorem on the monic cofactor, 0 first whenever it is a root."""
    field = f.field
    roots = []
    if isinstance(field, PrimeField):
        for i in range(field.p):
            a = Fp(i, field.p)
            while f.degree > 0 and not f(a):
                roots.append(a)
                f = f // Poly.make(field, [-a, 1])
        return roots, f
    f = f.monic()
    while f.degree > 0:
        den = lcm(*(c.denominator for c in f.coeffs))
        ints = [int(c * den) for c in f.coeffs]
        if ints[0] == 0:
            cands = [Fraction(0)]
        else:
            cands = [Fraction(sign * r, s)
                     for r in range(1, abs(ints[0]) + 1) if ints[0] % r == 0
                     for s in range(1, abs(ints[-1]) + 1) if ints[-1] % s == 0
                     for sign in (1, -1)]
        root = next((a for a in cands if not f(a)), None)
        if root is None:
            break
        roots.append(root)
        f = f // Poly.make(field, [-root, 1])
    return roots, f


class TestFields:
    def test_prime_validation(self):
        with pytest.raises(InputError):
            PrimeField(6)
        assert PrimeField(13).p == 13
        assert not is_prime(1)

    @given(st.integers(-40, 40), st.integers(-40, 40), st.integers(-40, 40))
    def test_fp_ring_axioms(self, a, b, c):
        p = 7
        x, y, z = Fp(a, p), Fp(b, p), Fp(c, p)
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + (-x) == Fp(0, p)

    @given(st.integers(1, 6))
    def test_fp_inverse(self, a):
        x = Fp(a, 7)
        assert x * x.inverse() == Fp(1, 7)

    @given(fractions)
    def test_rational_elem_keeps_a_fraction(self, f):
        assert QQ.elem(f) is f
        assert QQ.elem(f.numerator) == Fraction(f.numerator)
        assert type(QQ.elem(f.numerator)) is Fraction
        assert QQ.elem(str(f)) == f and type(QQ.elem(str(f))) is Fraction

    @given(fractions, fractions, fractions)
    def test_rational_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if b:
            assert (a / b) * b == a


class TestPoly:
    def test_divmod_roundtrip(self):
        f5 = PrimeField(5)
        a = Poly.make(f5, [1, 2, 0, 3])
        b = Poly.make(f5, [2, 1])
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree < b.degree

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from([QQ, PrimeField(7)]),
           st.lists(fractions, max_size=7), st.lists(fractions, min_size=1, max_size=4))
    def test_divmod_is_division_with_remainder(self, field, a, b):
        # q and r are unique with a = q b + r and deg r < deg b
        if isinstance(field, PrimeField):  # F_7 takes integers
            a = [x.numerator * x.denominator for x in a]
            b = [x.numerator * x.denominator for x in b]
        a, b = Poly.make(field, a), Poly.make(field, b)
        assume(not b.is_zero())
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree < b.degree

    def test_shift(self):
        p = Poly.make(QQ, [0, 0, 1])  # t^2
        assert p.shifted(Fraction(1)) == Poly.make(QQ, [1, 2, 1])

    def test_gcd(self):
        t = Poly.x(QQ)
        one = Poly.const(QQ, 1)
        a = (t - one) * (t - one) * t
        b = (t - one) * t * t
        assert a.gcd(b) == (t - one) * t

    def test_rational_roots_qq(self):
        t = Poly.x(QQ)
        p = (t - Poly.const(QQ, Fraction(1, 2))) * (t + Poly.const(QQ, 3))
        roots, cof = p.rational_roots()
        assert sorted(roots) == [Fraction(-3), Fraction(1, 2)]
        assert cof.degree == 0

    def test_rational_roots_nonsplit(self):
        p = Poly.make(QQ, [1, 0, 1])  # t^2 + 1
        roots, cof = p.rational_roots()
        assert roots == [] and cof.degree == 2

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7, 101]), st.data())
    def test_rational_roots_fp_match_brute_force(self, p, data):
        # c * (t - r_1) ... (t - r_k) * g with g constant or a monic
        # quadratic or cubic without a root in F_p; k = 0 gives constants
        field = PrimeField(p)
        elems = [Fp(i, p) for i in range(p)]
        f = Poly.const(field, data.draw(st.integers(1, p - 1)))
        if data.draw(st.booleans()):
            g = data.draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=3)
                          .map(lambda cs: Poly.make(field, cs + [1]))
                          .filter(lambda g: all(g(a) for a in elems)))
            f = f * g
        for r in data.draw(st.lists(st.integers(0, p - 1), max_size=5)):
            f = f * Poly.make(field, [-r, 1])
        roots, cof = f.rational_roots()
        want = [a for a in elems for _ in range(f.mult_at(a))]
        assert roots == want
        split = Poly.const(field, 1)
        for a in want:
            split = split * Poly.make(field, [-a, 1])
        assert cof * split == f
        assert all(cof.mult_at(a) == 0 for a in elems)

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from([0, 2, 5, 7]),
           st.lists(st.integers(-6, 6), min_size=1, max_size=5), st.integers(0, 4))
    def test_rational_roots_of_powers_of_t_match_division(self, p, g_coeffs, k):
        # t^k * g over Q (p = 0) and F_p: the roots, their order and the
        # cofactor are those of dividing out each root, 0 included, by t - a
        field = QQ if p == 0 else PrimeField(p)
        g = Poly.make(field, g_coeffs)
        assume(not g.is_zero())
        f = Poly.make(field, [0] * k + list(g.coeffs))
        assert f.rational_roots() == _division_roots(f)

    def test_derivative(self):
        p = Poly.make(QQ, [5, 3, 0, 2])
        assert p.derivative() == Poly.make(QQ, [3, 0, 6])

    @settings(max_examples=80)
    @given(st.sampled_from([0, 5, 7]), fractions,
           st.lists(st.integers(-6, 6), min_size=1, max_size=4), st.integers(0, 4))
    def test_mult_at_counts_linear_factors(self, p, a, q_coeffs, m):
        # p = q * (t - a)^m with q(a) != 0, over Q (p = 0) and over F_p
        field = QQ if p == 0 else PrimeField(p)
        a = field.elem(a) if p == 0 else field.elem(a.numerator)
        q = Poly.make(field, q_coeffs)
        assume(not q.is_zero() and q(a))
        poly = q
        for _ in range(m):
            poly = poly * Poly.make(field, [-a, 1])
        assert poly.mult_at(a) == m

    def test_mult_at_zero_polynomial_rejected(self):
        with pytest.raises(InputError):
            Poly.make(QQ, []).mult_at(Fraction(0))


class TestOrdAt:
    def setup_method(self):
        t = Poly.x(QQ)
        one = Poly.const(QQ, 1)
        self.f = RationalFunc.make(t * t, t - one)  # t^2/(t-1)

    def test_order_at_zero(self):
        assert ord_at(self.f, Fraction(0)) == 2

    def test_simple_pole(self):
        assert ord_at(self.f, Fraction(1)) == -1

    def test_order_at_infinity(self):
        assert ord_at(self.f, INF) == -1

    def test_zero_function_rejected(self):
        z = RationalFunc.make(Poly.make(QQ, []), Poly.const(QQ, 1))
        with pytest.raises(InputError):
            ord_at(z, Fraction(0))

    @settings(max_examples=40)
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=4),
           st.lists(st.integers(0, 4), min_size=1, max_size=4))
    def test_orders_sum_to_zero_for_split_functions(self, zeros, poles):
        # functions built from linear factors over F_5 split by construction
        f5 = PrimeField(5)
        num = Poly.const(f5, 1)
        den = Poly.const(f5, 1)
        for z in zeros:
            num = num * Poly.make(f5, [-z, 1])
        for q in poles:
            den = den * Poly.make(f5, [-q, 1])
        f = RationalFunc.make(num, den)
        if f.num.degree == 0 and f.den.degree == 0:
            return
        total = sum(ord_at(f, Fp(i, 5)) for i in range(5)) + ord_at(f, INF)
        assert total == 0

    def test_laurent_matches_order(self):
        k, coeffs = laurent_at(self.f, Fraction(0), 3)
        assert k == 2 and coeffs[0] == Fraction(-1)
        k_inf, c_inf = laurent_at(self.f, INF, 2)
        assert k_inf == -1 and c_inf[0] == 1


def echelon_rank(field, rows):
    """The rank of a matrix over field: the rows the one elimination
    (Echelon) keeps of its integer rows."""
    return len(Echelon(field, [Echelon.integers(field, [field.elem(x) for x in r]) for r in rows]).kept)


class TestKernel:
    # the kernel dimension is the number of columns minus the rank
    def test_identity_has_trivial_kernel(self):
        rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert len(rows[0]) - echelon_rank(QQ, rows) == 0

    def test_zero_matrix(self):
        rows = [[0, 0, 0], [0, 0, 0]]
        assert len(rows[0]) - echelon_rank(QQ, rows) == 3

    def test_ones_over_f2(self):
        rows = [[1, 1], [1, 1]]
        assert len(rows[0]) - echelon_rank(PrimeField(2), rows) == 1


entries = st.sampled_from(
    [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
     Fraction(-3, 4), Fraction(5, 3), Fraction(7, 12), Fraction(-11, 6)]
)


PRIMES = [PrimeField(2), PrimeField(5), PrimeField(7)]


@st.composite
def matrices(draw, field=QQ):
    """Up to 6x6 matrices over Q (entries above) or F_p (any residue), tall
    or wide, with zeroed rows and columns and rows repeated as scalar
    multiples or sums of other rows, so that rank deficits are common."""
    elems = entries if field == QQ else st.integers(0, field.p - 1).map(field.elem)
    nr, nc = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rows = [draw(st.lists(elems, min_size=nc, max_size=nc)) for _ in range(nr)]
    index = st.integers(0, nr - 1)
    for i, j, c in draw(st.lists(st.tuples(index, index, elems), max_size=3)):
        rows[i] = [c * x for x in rows[j]]
    for i, j, k in draw(st.lists(st.tuples(index, index, index), max_size=2)):
        rows[i] = [x + y for x, y in zip(rows[j], rows[k])]
    for i in draw(st.lists(index, max_size=2)):
        rows[i] = [field.zero()] * nc
    for j in draw(st.lists(st.integers(0, nc - 1), max_size=2)):
        for row in rows:
            row[j] = field.zero()
    return rows


class TestRank:
    # the rank is the one fraction-free elimination (Echelon) on integer
    # rows; rref's pivots are the reference

    @settings(max_examples=300, deadline=None)
    @given(matrices())
    def test_fraction_free_rank_counts_rref_pivots(self, rows):
        assert echelon_rank(QQ, rows) == len(MatrixF(QQ, rows).rref()[1])
        assert echelon_rank(QQ, list(zip(*rows))) == echelon_rank(QQ, rows)

    @pytest.mark.parametrize("field", PRIMES, ids=repr)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_rank_over_prime_fields_counts_rref_pivots(self, field, data):
        rows = data.draw(matrices(field))
        assert echelon_rank(field, rows) == len(MatrixF(field, rows).rref()[1])
        assert echelon_rank(field, list(zip(*rows))) == echelon_rank(field, rows)

    @pytest.mark.parametrize("field", [QQ, *PRIMES], ids=repr)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_kept_rows_count_the_rank_of_each_prefix(self, field, data):
        rows = data.draw(matrices(field))
        echelon = Echelon(field)
        before = 0
        for n, row in enumerate(rows, 1):
            kept = echelon.add(Echelon.integers(field, row))
            after = len(MatrixF(field, rows[:n]).rref()[1])
            assert len(echelon.kept) == after
            assert kept == (after > before)
            before = after

    @settings(max_examples=150, deadline=None)
    @given(st.lists(entries, min_size=1, max_size=6))
    def test_integer_rows_are_nonzero_multiples(self, row):
        ints = Echelon.integers(QQ, row)
        assert all(type(x) is int for x in ints)
        assert any(ints) == any(row)
        # proportional: ints[i] * row[j] == ints[j] * row[i] for all i, j
        assert all(a * y == b * x for a, x in zip(ints, row) for b, y in zip(ints, row))
        # and with the same signs, so by a positive factor
        assert all((a > 0) == (x > 0) for a, x in zip(ints, row))

    def test_pivot_after_a_column_without_one(self):
        # after the first pivot the second column is zero below it, so the
        # second pivot is in the third column
        rows = [[2, 1, 0], [4, 2, 1], [6, 3, 5]]
        assert echelon_rank(QQ, rows) == 2
