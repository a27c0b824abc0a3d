"""Exact arithmetic kernel: fields, polynomials, rational functions,
vanishing orders, and kernels."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mcdiv.errors import InputError
from mcdiv.exact import (
    INF,
    Fp,
    MatrixF,
    Poly,
    PrimeField,
    QQ,
    RationalFunc,
    is_prime,
    kernel_dim,
    laurent_at,
    ord_at,
)

fractions = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)


def fp5(vals):
    return [Fp(v, 5) for v in vals]


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


class TestKernel:
    def test_identity_has_trivial_kernel(self):
        m = MatrixF.make(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        dim, basis = kernel_dim(m)
        assert dim == 0 and basis == []

    def test_zero_matrix(self):
        m = MatrixF.make(QQ, [[0, 0, 0], [0, 0, 0]])
        dim, _ = kernel_dim(m)
        assert dim == 3

    def test_ones_over_f2(self):
        m = MatrixF.make(PrimeField(2), [[1, 1], [1, 1]])
        dim, basis = kernel_dim(m)
        assert dim == 1

    @settings(max_examples=30)
    @given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                    min_size=2, max_size=4))
    def test_kernel_vectors_annihilate(self, rows):
        m = MatrixF.make(QQ, rows)
        dim, basis = kernel_dim(m)
        assert dim + m.rank() == m.ncols
        for v in basis:
            assert all(x == 0 for x in m.mul_vec(v))
