"""Vanishing sequences, restricted ranks, and the compact-type limit
series checks."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mcdiv.complexes import MetrizedComplex, NodalCurveDescription, as_trivial_complex, regularize
from mcdiv.curves import P1Oracle
from mcdiv.errors import InputError, McdivError
from mcdiv.exact import INF, Poly, PrimeField, QQ, RationalFunc, laurent_at, ord_at
from mcdiv.limitseries import (
    Aspect,
    FunctionSpace,
    VanishingTable,
    crude_limit_check,
    eqD_divisor,
    limit_equiv_audit,
    not_completable_audit,
    ramification_points,
    restricted_eta,
    restricted_rank,
    vanishing_sequence,
)
from mcdiv import limitseries
from mcdiv.metric import GraphModel
from mcdiv.rank import _potentials, point_divisor, rank

from conftest import line_chain, qq_space, space_catalog


ONE = Poly.const(QQ, 1)
T = Poly.x(QQ)


def rf(num, den=None):
    return RationalFunc.make(num, den or ONE)


def mono(*exps, field=QQ):
    """Span of the given monomials t^e."""
    o = P1Oracle(field)
    basis = []
    for e in exps:
        basis.append(RationalFunc.make(Poly.make(field, [0] * e + [1]), Poly.const(field, 1)))
    return FunctionSpace(o, basis)


def two_lines():
    return regularize(
        NodalCurveDescription(
            {"Y": P1Oracle(QQ), "Z": P1Oracle(QQ)},
            [("Y", QQ.elem(0), "Z", QQ.elem(0))],
        )
    )


class TestFunctionSpace:
    def test_dependent_basis_rejected(self):
        o = P1Oracle(QQ)
        with pytest.raises(InputError):
            FunctionSpace(o, [rf(T), rf(T.scale(2))])

    def test_dim(self):
        assert mono(0, 1, 2).dim == 3

    def test_contained_in_L(self):
        o = P1Oracle(QQ)
        h = mono(0, 1)
        assert h.contained_in_L(o.divisor((INF, 1)))
        assert not h.contained_in_L(o.zero_divisor())

    def test_constrained_dim(self):
        h = mono(0, 1, 2)
        dim = h.constrained_dim([(QQ.elem(0), 2)])
        assert dim == 1  # only t^2 vanishes doubly at 0

    def test_dependent_only_over_common_denominator(self):
        # 1/(t-1) - 1/t = 1/(t(t-1)): no two elements are proportional
        o = P1Oracle(QQ)
        t1 = T - ONE
        with pytest.raises(InputError, match="dependent"):
            FunctionSpace(o, [rf(ONE, T), rf(ONE, t1), rf(ONE, T * t1)])

    def test_nonsplit_denominator_rejected(self):
        with pytest.raises(InputError, match="must split"):
            FunctionSpace(P1Oracle(QQ), [rf(ONE, T * T + ONE)])

    @pytest.mark.parametrize("line, basis_field", [(QQ, PrimeField(5)), (PrimeField(5), QQ)],
                             ids=["F5-basis-on-Q-line", "Q-basis-on-F5-line"])
    def test_basis_over_another_field_rejected(self, line, basis_field):
        one = Poly.const(basis_field, 1)
        basis = [RationalFunc.make(one, one), RationalFunc.make(Poly.x(basis_field), one)]
        with pytest.raises(InputError, match=rf"basis\[0\] is over {basis_field}, not over {line}"):
            FunctionSpace(P1Oracle(line), basis)

    def test_common_denominator(self):
        t1 = T - ONE
        h = FunctionSpace(P1Oracle(QQ), [rf(ONE, T), rf(T, t1 * t1), rf(T * T)])
        assert h.poles == [QQ.elem(0), QQ.elem(1)]
        assert [RationalFunc.make(n, h.den) for n in h.nums] == h.basis


def random_space(rng, field):
    """A random span over a prime field: 1-3 elements, numerators of degree
    at most 3, denominators made of 0-2 linear factors; None when the draw
    is dependent."""
    p = field.p
    basis = []
    for _ in range(rng.randint(1, 3)):
        num = Poly.make(field, [rng.randrange(p) for _ in range(rng.randint(1, 4))])
        if num.is_zero():
            num = Poly.const(field, 1)
        den = Poly.const(field, 1)
        for _ in range(rng.randint(0, 2)):
            den = den * Poly.make(field, [rng.randrange(p), 1])
        basis.append(RationalFunc.make(num, den))
    try:
        return FunctionSpace(P1Oracle(field), basis)
    except InputError as exc:
        assert "dependent" in str(exc)
        return None


class TestLocalModel:
    """min_ord, contained_in_L and constrained_dim, answered from the common
    denominator, against per-element orders and brute force over small
    prime fields."""

    @staticmethod
    def draw(p, count):
        """A generator seeded with p, the points of P^1(F_p) and `count`
        independent random spaces over F_p."""
        rng = random.Random(p)
        field = PrimeField(p)
        spaces = []
        while len(spaces) < count:
            space = random_space(rng, field)
            if space is not None:
                spaces.append(space)
        return rng, [field.elem(a) for a in range(p)] + [INF], spaces

    @pytest.mark.parametrize("p", [5, 7])
    def test_min_ord_matches_basis_orders(self, p):
        _, points, spaces = self.draw(p, 40)
        for space in spaces:
            for q in points:
                assert space.min_ord(q) == min(ord_at(f, q) for f in space.basis)

    @pytest.mark.parametrize("p", [5, 7])
    def test_contained_in_L_matches_definition(self, p):
        rng, points, spaces = self.draw(p, 40)
        for space in spaces:
            for _ in range(4):
                d = space.oracle.divisor(
                    *[(q, rng.randint(-2, 3)) for q in rng.sample(points, 3)]
                )
                expected = all(
                    ord_at(f, q) >= -d.get(q) for f in space.basis for q in points
                )
                assert space.contained_in_L(d) == expected

    @pytest.mark.parametrize("p", [5, 7])
    def test_constrained_dim_matches_brute_force(self, p):
        field = PrimeField(p)
        zero = RationalFunc.make(Poly.make(field, []), Poly.const(field, 1))
        rng, points, spaces = self.draw(p, 12)
        for space in spaces:
            elements = []
            for cs in itertools.product(range(p), repeat=space.dim):
                f = zero
                for c, b in zip(cs, space.basis):
                    f = f + b.scale(c)
                elements.append(f)
            for _ in range(2):
                cons = []
                for q in rng.sample(points, rng.randint(1, 2)):
                    cons.append((q, space.min_ord(q) + rng.randint(-1, 2)))
                meets = sum(
                    1
                    for f in elements
                    if f.is_zero() or all(ord_at(f, q) >= m for q, m in cons)
                )
                dim = space.constrained_dim(cons)
                assert p**dim == meets, (space.basis, cons)

    @pytest.mark.parametrize("p", [5, 7])
    def test_local_table_answers_like_a_fresh_space(self, p, monkeypatch):
        """One space asked min_ord, constrained_dim and subspace_meets in a
        shuffled, repeated order answers every query as a fresh twin asked
        once, and shifts each numerator (and the denominator) once per
        distinct finite point."""
        rng, points, spaces = self.draw(p, 12)
        shifted = []
        original = Poly.shifted

        def counting(self, a):
            shifted.append(self)
            return original(self, a)

        for space in spaces:
            o = space.oracle
            queries = []
            for q in points:
                queries.append(("min_ord", q))
                queries.append(("constrained_dim", [(q, space.min_ord(q) + rng.randint(0, 2))]))
            for _ in range(6):
                pairs = [(q, rng.randint(-2, 3)) for q in rng.sample(points, 2)]
                queries.append(("subspace_meets", o.divisor(*pairs)))
            queries = queries * 2
            rng.shuffle(queries)
            twin_answers = [
                getattr(FunctionSpace(o, space.basis), name)(arg) for name, arg in queries
            ]
            space = FunctionSpace(o, space.basis)
            del shifted[:]
            monkeypatch.setattr(Poly, "shifted", counting)
            answers = [getattr(space, name)(arg) for name, arg in queries]
            monkeypatch.setattr(Poly, "shifted", original)
            assert answers == twin_answers
            finite = len(points) - 1  # every finite point is asked about
            assert len(space.local_memo) == finite
            for n in space.nums:
                assert sum(1 for s in shifted if s is n) == finite
            assert sum(1 for s in shifted if s is space.den) == finite
            assert len(shifted) == (space.dim + 1) * finite


# (field, (numerator coefficients, denominator coefficients) per element)
_TWIST_SPACES = {
    "Q: 1, t, t^2": (QQ, ([1], [1]), ([0, 1], [1]), ([0, 0, 1], [1])),
    "Q: 1/(t-1), t^2+t^3": (QQ, ([1], [-1, 1]), ([0, 0, 1, 1], [1])),
    "F5: 1, t^3+t": (PrimeField(5), ([1], [1]), ([0, 1, 0, 1], [1])),
    "F7: 1/t^2, 1/(t-2), t": (PrimeField(7), ([1], [0, 0, 1]), ([1], [-2, 1]), ([0, 1], [1])),
}


def twist_space(name):
    field, *elements = _TWIST_SPACES[name]
    return FunctionSpace(P1Oracle(field), [
        RationalFunc.make(Poly.make(field, n), Poly.make(field, d)) for n, d in elements
    ])


def twist_pool(space):
    """Finite points 0..3 (the poles of the spaces above among them), then INF."""
    return [space.oracle.field.elem(a) for a in range(4)] + [INF]


def direct_least_twist(space, bound, q, window=20):
    """The least t in [-window, window] with subspace_meets(bound + t*(q)),
    asked of a fresh twin of the space at every t; None when none meets.
    Checks on the way that meeting never stops as t grows.  The window is
    wider than both ends of the threshold for bounds with |coefficients|
    summing to at most 12 on these spaces, whose orders reach at most 3."""
    twin = FunctionSpace(space.oracle, space.basis)
    ts = range(-window, window + 1)
    answers = [twin.subspace_meets(bound + bound.oracle.divisor((q, t))) for t in ts]
    assert answers == sorted(answers)
    return next((t for t, ok in zip(ts, answers) if ok), None)


class TestLeastTwist:
    """FunctionSpace.least_twist against a direct scan of subspace_meets
    over a window wider than the degree bound."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(sorted(_TWIST_SPACES)),
        st.lists(st.tuples(st.integers(0, 4), st.integers(-3, 3)), max_size=4),
        st.integers(0, 4),
    )
    def test_least_twist_is_the_direct_threshold(self, name, terms, qi):
        space = twist_space(name)
        pool = twist_pool(space)
        bound = space.oracle.divisor(*[(pool[i], c) for i, c in terms])
        q = pool[qi]
        assert space.least_twist(bound, q) == direct_least_twist(space, bound, q)

    # (space, bound terms over the pool, index of q in the pool, case, least twist)
    @pytest.mark.parametrize("name, terms, qi, case, expected", [
        ("Q: 1, t, t^2", [(4, 2)], 0, "finite", -2),
        ("F5: 1, t^3+t", [(0, 1), (2, -1)], 4, "INF", 3),
        ("Q: 1/(t-1), t^2+t^3", [(4, 3)], 1, "pole", 0),
        ("F7: 1/t^2, 1/(t-2), t", [(2, 2), (3, -1), (4, 1)], 2, "support", -1),
        ("Q: 1, t, t^2", [(4, -3)], 0, "none", None),
    ])
    def test_cases(self, name, terms, qi, case, expected):
        space = twist_space(name)
        pool = twist_pool(space)
        bound = space.oracle.divisor(*[(pool[i], c) for i, c in terms])
        q = pool[qi]
        if case == "finite":
            assert q is not INF and q not in space.poles and not bound.get(q)
        elif case == "INF":
            assert q is INF
        elif case == "pole":
            assert q in space.poles
        elif case == "support":
            assert bound.get(q)
        got = space.least_twist(bound, q)
        assert got == direct_least_twist(space, bound, q) == expected
        assert (got is None) == (case == "none")


class TestVanishingSequence:
    def test_full_monomials(self):
        o = P1Oracle(QQ)
        h = mono(0, 1, 2)
        d = o.divisor((INF, 2))
        assert vanishing_sequence(d, h, QQ.elem(0)) == (0, 1, 2)

    def test_gap_sequence(self):
        o = P1Oracle(QQ)
        h = FunctionSpace(o, [rf(ONE), rf(Poly.make(QQ, [0, 0, 1, 1])), rf(Poly.make(QQ, [0, 0, 0, 0, 1]))])
        d = o.divisor((INF, 4))
        assert vanishing_sequence(d, h, QQ.elem(0)) == (0, 2, 4)

    def test_generic_point(self):
        o = P1Oracle(QQ)
        h = FunctionSpace(o, [rf(ONE), rf(Poly.make(QQ, [0, 0, 1, 1])), rf(Poly.make(QQ, [0, 0, 0, 0, 1]))])
        d = o.divisor((INF, 4))
        assert vanishing_sequence(d, h, QQ.elem(7)) == (0, 1, 2)

    def test_basis_change_invariance(self):
        o = P1Oracle(QQ)
        d = o.divisor((INF, 4))
        h1 = FunctionSpace(o, [rf(ONE), rf(Poly.make(QQ, [0, 0, 1, 1])), rf(Poly.make(QQ, [0, 0, 0, 0, 1]))])
        mixed = [
            h1.basis[0] + h1.basis[1],
            h1.basis[1],
            h1.basis[2] + h1.basis[0].scale(Fraction(3)),
        ]
        h2 = FunctionSpace(o, mixed)
        for p in (QQ.elem(0), QQ.elem(1), QQ.elem(-2)):
            assert vanishing_sequence(d, h1, p) == vanishing_sequence(d, h2, p)

    def test_space_outside_L_rejected(self):
        o = P1Oracle(QQ)
        with pytest.raises(InputError):
            vanishing_sequence(o.zero_divisor(), mono(0, 1), QQ.elem(0))

    def test_at_infinity(self):
        o = P1Oracle(QQ)
        h = mono(0, 1, 2)
        d = o.divisor((INF, 2))
        assert vanishing_sequence(d, h, INF) == (0, 1, 2)

    def test_ramification_points(self):
        h = FunctionSpace(
            P1Oracle(QQ),
            [rf(ONE), rf(Poly.make(QQ, [0, 0, 1, 1])), rf(Poly.make(QQ, [0, 0, 0, 0, 1]))],
        )
        pts = ramification_points(h)
        assert QQ.elem(0) in pts

    def test_ramification_points_with_poles(self):
        t2 = T + ONE.scale(2)
        h = FunctionSpace(
            P1Oracle(QQ), [rf(ONE), rf(T * T, T - ONE), rf(T * T * T * T, t2 * t2)]
        )
        assert ramification_points(h) == [QQ.elem(-2), QQ.elem(0)]


def reference_vanishing_sequence(d_v, space, p):
    """The vanishing sequence by elimination on the basis itself: while two
    elements share an order at p (ord_at), subtract the multiple of one that
    cancels the other's leading Laurent coefficient (laurent_at)."""
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
        _, ci = laurent_at(work[i], p, 1)
        _, cj = laurent_at(work[j], p, 1)
        work[j] = work[j] - work[i].scale(cj[0] / ci[0])
        if work[j].is_zero():
            raise McdivError("internal error: dependent space in elimination")
    return tuple(sorted(ord_at(f, p) + d_v.get(p) for f in work))


@st.composite
def spaces_with_poles(draw):
    """A span over Q, F5 or F7 of 1-3 elements: numerators of degree at most
    4 with small coefficients, each over 0-2 linear factors t - a with
    0 <= a < 4, so several elements may share a pole."""
    field = draw(st.sampled_from([QQ, PrimeField(5), PrimeField(7)]))
    basis = []
    for _ in range(draw(st.integers(1, 3))):
        num = Poly.make(field, draw(st.lists(st.integers(-3, 3), min_size=1, max_size=5)))
        assume(not num.is_zero())
        den = Poly.const(field, 1)
        for a in draw(st.lists(st.integers(0, 3), max_size=2)):
            den = den * Poly.make(field, [-a, 1])
        basis.append(RationalFunc.make(num, den))
    try:
        return FunctionSpace(P1Oracle(field), basis)
    except InputError:
        assume(False)


def reference_orders(space, q, constraints=()):
    """FunctionSpace.orders by Gauss-Jordan on rows of field elements
    (Fraction or Fp): the Taylor rows of the numerators at each point, each
    new pivot row scaled to 1 at its pivot and earlier rows reduced away."""
    field = space.oracle.field

    def taylor(p):
        if p is INF:
            cols, base, step = [n.coeffs for n in space.nums], space.den.degree, -1
        else:
            cols, base, step = [n.shifted(p).coeffs for n in space.nums], -space.den.mult_at(p), 1
        rows = [(base + step * j, [c[j] if j < len(c) else field.zero() for c in cols])
                for j in range(max(map(len, cols)))]
        return rows[::-1] if p is INF else rows

    echelon = []  # (pivot column, row with 1 there and 0 at earlier pivots)

    def raises(row):
        for c, e in echelon:
            a = row[c]
            if a:
                row = [x - a * y for x, y in zip(row, e)]
        c = next((i for i, x in enumerate(row) if x), None)
        if c is not None:
            inv = field.one() / row[c]
            echelon.append((c, [x * inv for x in row]))
        return c is not None

    for p, m in constraints:
        for k, row in taylor(p):
            if k < m:
                raises(row)
    out = []
    for k, row in taylor(q):
        if len(echelon) == space.dim:
            break
        if raises(row):
            out.append(k)
    return out


class TestOrdersByElimination:
    """FunctionSpace.orders, on the integer rows of the local table, against
    the elimination on field elements above."""

    @settings(max_examples=200, deadline=None)
    @given(spaces_with_poles(), st.data())
    def test_matches_the_field_elimination(self, space, data):
        field = space.oracle.field
        points = [field.elem(a) for a in range(5)] + space.poles + [INF]
        q = data.draw(st.sampled_from(points))
        constraints = data.draw(st.lists(st.sampled_from(points).flatmap(
            lambda p: st.tuples(st.just(p), st.integers(space.min_ord(p), space.min_ord(p) + 3))),
            max_size=3))
        got = space.orders(q, constraints)
        assert got == reference_orders(space, q, constraints)
        assert len(got) == space.constrained_dim(constraints)

    def test_constraints_at_a_pole_and_at_infinity(self):
        # span of 1/t, 1 and t over F7: ord_0 >= 0 drops 1/t, ord_INF >= 0
        # drops t, and 1 is left, of order 0 at 1
        f7 = PrimeField(7)
        one, t = Poly.const(f7, 1), Poly.x(f7)
        space = FunctionSpace(P1Oracle(f7), [RationalFunc.make(one, t), RationalFunc.make(one, one),
                                             RationalFunc.make(t, one)])
        constraints = [(f7.elem(0), 0), (INF, 0)]
        assert space.orders(f7.elem(1), constraints) == reference_orders(space, f7.elem(1), constraints) == [0]
        assert space.orders(f7.elem(0)) == reference_orders(space, f7.elem(0)) == [-1, 0, 1]


class TestVanishingByElimination:
    """vanishing_sequence, read from the local table, against the
    elimination on the basis above."""

    @settings(max_examples=150, deadline=None)
    @given(spaces_with_poles(), st.data())
    def test_matches_the_basis_elimination(self, space, data):
        field = space.oracle.field
        points = [field.elem(a) for a in range(5)] + space.poles + [INF]
        p = data.draw(st.sampled_from(points))
        # the least divisor containing the span, plus a little at p
        pairs = [(q, -space.min_ord(q)) for q in space.poles + [INF]]
        d_v = space.oracle.divisor(*pairs, (p, data.draw(st.integers(0, 2))))
        want = reference_vanishing_sequence(d_v, space, p)
        assert vanishing_sequence(d_v, space, p) == want
        assert len(want) == space.dim

    def test_every_kind_of_point(self):
        # a finite point, a pole of two elements and INF, where two elements
        # share the order 1, over Q
        t1 = T - ONE
        space = FunctionSpace(P1Oracle(QQ), [rf(ONE, t1), rf(T, t1 * t1), rf(T * T * T)])
        d_v = space.oracle.divisor((QQ.elem(1), 2), (INF, 3))
        got = {p: vanishing_sequence(d_v, space, p)
               for p in (QQ.elem(0), QQ.elem(1), INF)}
        assert got == {p: reference_vanishing_sequence(d_v, space, p) for p in got}
        assert got == {QQ.elem(0): (0, 1, 3), QQ.elem(1): (0, 1, 2), INF: (0, 4, 5)}


class TestCrudeCheck:
    def test_single_component_vacuous(self):
        cx = regularize(NodalCurveDescription({"Y": P1Oracle(QQ)}, []))
        a = {"Y": Aspect(cx.oracles["Y"].divisor((INF, 1)), mono(0, 1))}
        ok, violations = crude_limit_check(cx, a, 1, 1)
        assert ok and not violations

    def test_two_lines_passing(self):
        cx = two_lines()
        oy, oz = cx.oracles["Y"], cx.oracles["Z"]
        aspects = {
            "Y": Aspect(oy.divisor((INF, 2)), mono(0, 1)),
            "Z": Aspect(oz.divisor((INF, 2)), mono(1, 2)),
        }
        ok, violations = crude_limit_check(cx, aspects, 2, 1)
        assert ok, violations

    def test_two_lines_failing(self):
        cx = two_lines()
        oy, oz = cx.oracles["Y"], cx.oracles["Z"]
        aspects = {
            "Y": Aspect(oy.divisor((INF, 2)), mono(0, 1)),
            "Z": Aspect(oz.divisor((INF, 2)), mono(0, 2)),
        }
        ok, violations = crude_limit_check(cx, aspects, 2, 1)
        assert not ok and violations

    def test_vanishing_table_participation(self):
        cx = two_lines()
        oy = cx.oracles["Y"]
        node_z = cx.marked_point("Z", "n0", 1)
        aspects = {
            "Y": Aspect(oy.divisor((INF, 2)), mono(0, 1)),
            "Z": VanishingTable({node_z: (1, 2)}),
        }
        ok, violations = crude_limit_check(cx, aspects, 2, 1)
        assert ok, violations

    @pytest.mark.parametrize("field", [PrimeField(5), QQ], ids=["F5", "another-Q-line"])
    def test_divisor_on_another_curve_rejected(self, field):
        # an F5 divisor and space at Z once passed with no violation
        cx = two_lines()
        other = P1Oracle(field)
        aspects = {
            "Y": Aspect(cx.oracles["Y"].divisor((INF, 2)), mono(0, 1)),
            "Z": Aspect(other.divisor((INF, 2)), mono(1, 2, field=field)),
        }
        with pytest.raises(InputError, match="aspect divisor at Z is not on the curve at Z"):
            crude_limit_check(cx, aspects, 2, 1)

    def test_aspect_at_a_graphical_vertex_rejected(self):
        # g carries no curve; this once raised KeyError
        model = GraphModel(["A", "g"], [("e", "A", "g", 1)])
        o = P1Oracle(QQ)
        cx = MetrizedComplex(model, {"A": o}, {"A": {("e", 0): QQ.elem(0)}})
        aspects = {"A": Aspect(o.divisor((INF, 1)), mono(0, 1)),
                   "g": Aspect(P1Oracle(QQ).divisor((INF, 1)), mono(0, 1))}
        with pytest.raises(InputError, match="aspect divisor at g is not on the curve at g"):
            crude_limit_check(cx, aspects, 1, 1)

    def test_space_over_another_field_rejected(self):
        cx = two_lines()
        oy, oz = cx.oracles["Y"], cx.oracles["Z"]
        aspects = {
            "Y": Aspect(oy.divisor((INF, 2)), mono(0, 1, field=PrimeField(5))),
            "Z": Aspect(oz.divisor((INF, 2)), mono(1, 2)),
        }
        with pytest.raises(InputError, match="function space at Y is not over the field of its curve"):
            crude_limit_check(cx, aspects, 2, 1)
        aspects["Y"] = Aspect(oy.divisor((INF, 2)), mono(0, 1))
        aspects["Z"] = Aspect(oz.divisor((INF, 2)), mono(1, 2, field=PrimeField(7)))
        with pytest.raises(InputError, match="function space at Z is not over the field of its curve"):
            crude_limit_check(cx, aspects, 2, 1)


class TestEqD:
    def test_single_component(self):
        cx = regularize(NodalCurveDescription({"Y": P1Oracle(QQ)}, []))
        o = cx.oracles["Y"]
        d = eqD_divisor(cx, "Y", {"Y": o.divisor((INF, 2))})
        assert d.curve_part("Y") == o.divisor((INF, 2))

    def test_two_components(self):
        cx = two_lines()
        oy, oz = cx.oracles["Y"], cx.oracles["Z"]
        d = eqD_divisor(cx, "Y", {"Y": oy.divisor((INF, 2)), "Z": oz.divisor((INF, 2))})
        assert d.degree() == 2
        node = cx.marked_point("Z", "n0", 1)
        assert d.curve_part("Z").get(node) == -2

    def test_degree_independent_of_tree_shape(self):
        comps = {f"C{i}": P1Oracle(QQ) for i in range(3)}
        desc = NodalCurveDescription(
            comps,
            [("C0", QQ.elem(0), "C1", QQ.elem(0)), ("C1", QQ.elem(1), "C2", QQ.elem(0))],
        )
        cx = regularize(desc)
        divs = {v: cx.oracles[v].divisor((INF, 3)) for v in comps}
        for root in comps:
            assert eqD_divisor(cx, root, divs).degree() == 3

    def test_degree_mismatch_rejected(self):
        cx = two_lines()
        oy, oz = cx.oracles["Y"], cx.oracles["Z"]
        with pytest.raises(InputError):
            eqD_divisor(cx, "Y", {"Y": oy.divisor((INF, 2)), "Z": oz.divisor((INF, 3))})

    def test_unknown_root_rejected(self):
        cx = two_lines()
        divs = {v: cx.oracles[v].divisor((INF, 2)) for v in ("Y", "Z")}
        with pytest.raises(InputError, match="unknown root 'Q'"):
            eqD_divisor(cx, "Q", divs)

    def test_missing_divisor_rejected(self):
        cx = two_lines()
        with pytest.raises(InputError, match="no aspect divisor at Z"):
            eqD_divisor(cx, "Y", {"Y": cx.oracles["Y"].divisor((INF, 2))})


class TestRestrictedRank:
    def test_constants_cap(self):
        cx = two_lines()
        oy = cx.oracles["Y"]
        d = cx.divisor(curve_parts={"Y": oy.divisor((INF, 2))})
        spaces = {"Y": mono(0), "Z": mono(0)}
        assert restricted_rank(cx, d, spaces) == 0

    def test_bounded_by_unrestricted(self):
        cx = two_lines()
        oy, oz = cx.oracles["Y"], cx.oracles["Z"]
        d = eqD_divisor(cx, "Y", {"Y": oy.divisor((INF, 2)), "Z": oz.divisor((INF, 2))})
        spaces = {"Y": mono(0, 1), "Z": mono(1, 2)}
        rr = restricted_rank(cx, d, spaces)
        assert rr <= rank(cx, d)
        assert rr <= min(s.dim for s in spaces.values()) - 1

    def test_two_lines_limit_value(self):
        cx = two_lines()
        oy, oz = cx.oracles["Y"], cx.oracles["Z"]
        d = eqD_divisor(cx, "Y", {"Y": oy.divisor((INF, 2)), "Z": oz.divisor((INF, 2))})
        assert restricted_rank(cx, d, {"Y": mono(0, 1), "Z": mono(1, 2)}) == 1
        assert restricted_rank(cx, d, {"Y": mono(0, 1), "Z": mono(0, 2)}) == 0

    def test_certificate_validation(self):
        cx = two_lines()
        oy, oz = cx.oracles["Y"], cx.oracles["Z"]
        d = eqD_divisor(cx, "Y", {"Y": oy.divisor((INF, 2)), "Z": oz.divisor((INF, 2))})
        assert restricted_rank(cx, d, {"Y": mono(0, 1), "Z": mono(1, 2)}, validate=True) == 1

    def test_rescaling_invariance(self):
        cx = two_lines()
        oy, oz = cx.oracles["Y"], cx.oracles["Z"]
        d = eqD_divisor(cx, "Y", {"Y": oy.divisor((INF, 2)), "Z": oz.divisor((INF, 2))})
        spaces = {"Y": mono(0, 1), "Z": mono(1, 2)}
        base = restricted_rank(cx, d, spaces)
        # rescale the Z-space by (t-1) and shift the divisor accordingly
        shift = oz.divisor((QQ.elem(1), 1), (INF, -1))
        f = oz.principal_witness(shift)
        spaces2 = {"Y": spaces["Y"], "Z": FunctionSpace(oz, [b * f for b in spaces["Z"].basis])}
        d2 = cx.divisor(
            curve_parts={"Y": d.curve_part("Y"), "Z": d.curve_part("Z") - shift}
        )
        assert restricted_rank(cx, d2, spaces2) == base


class TestRestrictedRankGuards:
    @staticmethod
    def inputs(case):
        if case == "edge length":
            model = GraphModel(["a", "b"], [("e", "a", "b", 2)])
            cx = as_trivial_complex(model)
            return cx, cx.zero_divisor(), {"a": mono(0), "b": mono(0)}
        if case == "cycle":
            cx = regularize(NodalCurveDescription(
                {"Y": P1Oracle(QQ), "Z": P1Oracle(QQ)},
                [("Y", QQ.elem(0), "Z", QQ.elem(0)), ("Y", QQ.elem(1), "Z", QQ.elem(1))],
            ))
            return cx, cx.zero_divisor(), {"Y": mono(0, 1), "Z": mono(0, 1)}
        cx = two_lines()
        spaces = {"Y": mono(0, 1), "Z": mono(0, 1)}
        if case == "missing space":
            del spaces["Z"]
            return cx, cx.zero_divisor(), spaces
        d = cx.divisor(graph_pairs=[(cx.model.point_on("n0", Fraction(1, 2)), 1)])
        return cx, d, spaces

    @pytest.mark.parametrize("case, message", [
        ("edge length", "unit edge lengths"),
        ("cycle", "tree dual graph"),
        ("missing space", "no function space at Z"),
        ("interior chip", "vertex-supported divisors"),
    ])
    def test_rejected(self, case, message):
        cx, d, spaces = self.inputs(case)
        with pytest.raises(InputError, match=message):
            restricted_rank(cx, d, spaces)

    @pytest.mark.parametrize("y, z", [((0,), (0,)), ((0,), (1,)), ((1,), (0,))],
                             ids=["one-one", "one-t", "t-one"])
    def test_space_over_another_field_rejected(self, y, z):
        # 1*(inf) on each line over Q with F5 spaces: {1}/{1} and {1}/{t}
        # once got ranks, and {t}, whose zero 0 of F5 is no point of a line
        # over Q, failed only when a test chip was built there
        cx = two_lines()
        oy, oz = cx.oracles["Y"], cx.oracles["Z"]
        d = cx.divisor(curve_parts={"Y": oy.divisor((INF, 1)), "Z": oz.divisor((INF, 1))})
        f5 = PrimeField(5)
        spaces = {"Y": mono(*y, field=f5), "Z": mono(*z, field=f5)}
        with pytest.raises(InputError, match="function space at Y is not over the field of its curve"):
            restricted_rank(cx, d, spaces)
        spaces["Y"] = mono(*y)
        with pytest.raises(InputError, match="function space at Z is not over the field of its curve"):
            restricted_rank(cx, d, spaces)


class TestRestrictedSearchCount:
    """least_twist calls on the inputs of test_two_lines_limit_value.
    Each vertex test is read from a threshold table: one least twist per
    (vertex, rest, differences at every edge of the vertex but the last),
    shared by both passes of a restricted_rank call.  A least twist reads
    its threshold by one elimination and asks subspace_meets nothing; a
    change to the order of test chips or potentials, to the short-circuits
    or to that key moves these counts."""

    @staticmethod
    def inputs():
        cx = two_lines()
        oy, oz = cx.oracles["Y"], cx.oracles["Z"]
        d = eqD_divisor(cx, "Y", {"Y": oy.divisor((INF, 2)), "Z": oz.divisor((INF, 2))})
        return cx, d, {"Y": mono(0, 1), "Z": mono(1, 2)}

    @pytest.mark.parametrize("validate, expected", [(False, 11), (True, 13)])
    def test_least_twist_calls(self, monkeypatch, validate, expected):
        calls = {"least_twist": 0, "subspace_meets": 0}
        for name in calls:
            original = getattr(FunctionSpace, name)

            def counting(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(FunctionSpace, name, counting)
        cx, d, spaces = self.inputs()
        assert restricted_rank(cx, d, spaces, validate=validate) == 1
        assert calls == {"least_twist": expected, "subspace_meets": 0}

    def test_validate_finds_roots_once(self, monkeypatch):
        # the basis zeros and ramification points of each space are found
        # once per call and serve both passes
        runs = {validate: self.inputs() for validate in (False, True)}
        counts = {}
        original = Poly.rational_roots

        def counting(self):
            counts[validate] += 1
            return original(self)

        monkeypatch.setattr(Poly, "rational_roots", counting)
        for validate, (cx, d, spaces) in runs.items():
            counts[validate] = 0
            assert restricted_rank(cx, d, spaces, validate=validate) == 1
        assert counts[False] > 0 and counts[True] == counts[False]


def _per_potential_feasible(cx, d, e_div, spaces, bound, verdicts, ends):
    """The feasibility test with no verdict table and no tree search: every
    potential in the box that passes the graphical degrees asks
    subspace_meets at every oracle vertex; `ends` goes unread."""
    graph = {p.where: c for p, c in (d.graph - e_div.graph).coeffs.items()}
    for f in _potentials(list(cx.model.vertices), bound):
        if all(
            graph.get(w, 0)
            + sum(f[e.v if end == 0 else e.u] - f[w] for e, end in cx.model.incident_edges(w))
            >= 0
            for w in cx.graphical_vertices()
        ) and all(
            spaces[v].subspace_meets(
                d.curve_part(v) - e_div.curve_part(v) + cx.vertex_twist(v, f)
            )
            for v in cx.oracle_vertices()
        ):
            return True
    return False


class TestVerdictTable:
    """restricted_rank with the verdict table against the same search with
    the per-potential feasibility test above, which runs on twin spaces
    built afresh, so no memo of the first search answers it."""

    @staticmethod
    def both_ranks(monkeypatch, cx, d, make_spaces, validate=False):
        fast = restricted_rank(cx, d, make_spaces(), validate=validate)
        with monkeypatch.context() as m:
            m.setattr(limitseries, "_restricted_feasible", _per_potential_feasible)
            slow = restricted_rank(cx, d, make_spaces(), validate=validate)
        return fast, slow

    # the limit_series strata of the benchmark: (components, d, r)
    @pytest.mark.parametrize("n, d, r", [
        (2, 1, 0), (2, 2, 1), (2, 3, 1), (2, 3, 2), (3, 1, 0), (3, 2, 1),
    ])
    def test_chain_catalogue(self, monkeypatch, n, d, r):
        cx = line_chain(n)
        vs = list(cx.model.vertices)
        div = eqD_divisor(cx, vs[0], {v: cx.oracles[v].divisor((INF, d)) for v in vs})
        for combo in itertools.product(space_catalog(d, r), repeat=n):
            fast, slow = self.both_ranks(
                monkeypatch, cx, div,
                lambda: {v: qq_space(cx.oracles[v], exps) for v, exps in zip(vs, combo)},
            )
            assert fast == slow, combo

    def test_two_lines_validated(self, monkeypatch):
        cx, d, _ = TestRestrictedSearchCount.inputs()
        fast, slow = self.both_ranks(
            monkeypatch, cx, d, lambda: {"Y": mono(0, 1), "Z": mono(1, 2)}, validate=True
        )
        assert fast == slow == 1

    def assert_agree(self, monkeypatch, cx, d, combos, validate=False):
        vs = list(cx.model.vertices)
        div = eqD_divisor(cx, vs[0], {v: cx.oracles[v].divisor((INF, d)) for v in vs})
        return self.agreeing_ranks(monkeypatch, cx, div, vs, combos,
                                   range(len(combos)) if validate else ())

    def agreeing_ranks(self, monkeypatch, cx, div, names, combos, validated):
        """The ranks of div with the spaces of each combination at the named
        vertices, asserting that both searches agree; the combinations at
        the indices in `validated` run with validate."""
        ranks = []
        for i, combo in enumerate(combos):
            fast, slow = self.both_ranks(
                monkeypatch, cx, div,
                lambda: {v: qq_space(cx.oracles[v], exps) for v, exps in zip(names, combo)},
                validate=i in validated,
            )
            assert fast == slow, combo
            ranks.append(fast)
        return ranks

    def test_four_chain_sample(self, monkeypatch):
        # the middle lines carry two node differences each, so their
        # thresholds are keyed by the first; the catalogue's limit series
        # (rank 1) and three seeded combinations
        catalogue = list(itertools.product(space_catalog(2, 1), repeat=4))
        series = ((0, 1), (1, 2), (1, 2), (1, 2))
        combos = [series] + random.Random(27).sample(catalogue, 3)
        assert self.assert_agree(monkeypatch, line_chain(4), 2, combos)[0] == 1

    def test_chain_with_nodes_at_infinity(self, monkeypatch):
        # C0 meets C1 at INF on C0, and C1 meets C2 at INF on C1, so the
        # middle line's last difference is read at INF
        cx = regularize(NodalCurveDescription(
            {f"C{i}": P1Oracle(QQ) for i in range(3)},
            [("C0", INF, "C1", QQ.elem(0)), ("C1", INF, "C2", QQ.elem(0))],
        ))
        combos = [((0, 1), (0, 1), (0, 1)), ((0, 1), (1, 2), (0, 2)), ((1, 2), (0, 1), (0, 1))]
        assert self.assert_agree(monkeypatch, cx, 2, combos, validate=True)[0] == 1

    @staticmethod
    def claw(first):
        """A projective line X meeting three projective lines L0, L1, L2 at
        0, 1 and 2 on X and at INF on each Li, with 2*(INF) on X; `first` is
        the first model vertex, where the search is rooted."""
        names = ["X", "L0", "L1", "L2"]
        comps = {v: P1Oracle(QQ) for v in [first] + [v for v in names if v != first]}
        cx = regularize(NodalCurveDescription(
            comps, [("X", QQ.elem(i), f"L{i}", INF) for i in range(3)]
        ))
        return cx, cx.divisor(curve_parts={"X": cx.oracles["X"].divisor((INF, 2))}), names

    @staticmethod
    def graphical_path(vertices, edges, chips):
        """Projective lines over Q at every vertex but g, a graphical vertex,
        on a path of unit edges, with the given chips at g and one at INF on
        A; each line meets its first edge at INF and its second at 0."""
        lines = [v for v in vertices if v != "g"]
        model = GraphModel(vertices, [(n, u, v, 1) for n, u, v in edges])
        oracles = {v: P1Oracle(QQ) for v in lines}
        marks = {v: {} for v in oracles}
        for e in model.edges.values():
            for end, w in ((0, e.u), (1, e.v)):
                if w in marks:
                    marks[w][(e.name, end)] = QQ.elem(0) if marks[w] else INF
        cx = MetrizedComplex(model, oracles, marks)
        d = cx.divisor(graph_pairs=[(model.vertex_point("g"), chips)] if chips else (),
                       curve_parts={"A": cx.oracles["A"].divisor((INF, 1))})
        return cx, d, lines

    @pytest.mark.parametrize("first", ["X", "L0"], ids=["centre-root", "leaf-root"])
    def test_claw(self, monkeypatch, first):
        # rooted at X, the root has three leaf children; rooted at L0, the
        # root is a leaf whose one child X has two leaf children
        combos = [((0, 1),) * 4, ((1, 2), (0, 1), (0, 1), (0, 1)),
                  ((0, 1), (0, 1), (1,), (0,)), ((0, 1), (0, 2), (1, 2), (0, 1)),
                  ((0,), (2,), (0,), (0,))]
        cx, d, names = self.claw(first)
        ranks = self.agreeing_ranks(monkeypatch, cx, d, names, combos, validated={0})
        assert ranks == [1, 1, 0, 0, -1]

    @pytest.mark.parametrize("vertices, edges, expected", [
        (["A", "g", "B"], [("e1", "A", "g"), ("e2", "g", "B")],
         [1, 0, -1, 0, 1, 0, 0, 0, 1, 0, 1, 0]),
        (["A", "B", "g"], [("e1", "B", "g"), ("e2", "A", "B")],
         [0, 0, -1, 0, 1, 0, 0, 0, 1, 0, 1, 0]),
        (["A", "g", "B", "C"], [("e1", "A", "g"), ("e2", "g", "B"), ("e3", "B", "C")],
         [0, 0, -1, -1, 1, 0, 0, -1, 1, 0, 1, -1]),
    ], ids=["inner-graphical", "graphical-leaf", "graphical-inner-child"])
    def test_graphical_vertex(self, monkeypatch, vertices, edges, expected):
        # the graphical vertex's test reads its chips and every difference
        # at it; as a leaf it takes f(B) plus its chips, which reach B at INF.
        # Rooted at A on A-g-B-C, g's last edge leads to the inner vertex B,
        # whose values start at g's threshold.  A path with two lines reads
        # the first two spaces of each combination.
        combos = [((0, 1), (0, 1), (0, 1)), ((1,), (0, 1), (0, 1)),
                  ((0, 2), (1, 2), (0, 1)), ((0, 1), (0,), (1,))]
        ranks = []
        for chips in (0, 1, 2):
            cx, d, names = self.graphical_path(vertices, edges, chips)
            ranks += self.agreeing_ranks(monkeypatch, cx, d, names, combos,
                                              validated={0} if chips == 1 else ())
        assert ranks == expected

    @pytest.mark.parametrize("shape", ["claw", "graphical-leaf", "graphical-inner-child"])
    def test_feasibility_where_the_box_binds(self, shape):
        # at bounds 0-3 the box [-bound, bound] decides some answers, so a
        # leaf's value must be clamped to it and refused below it
        if shape == "claw":
            cx, d, names = self.claw("X")
            combo = ((0, 1), (0, 1), (1,), (0, 2))
        elif shape == "graphical-inner-child":
            cx, d, names = self.graphical_path(
                ["A", "g", "B", "C"], [("e1", "A", "g"), ("e2", "g", "B"), ("e3", "B", "C")], 2)
            combo = ((0, 1), (0, 1), (0, 1))
        else:
            cx, d, names = self.graphical_path(
                ["A", "B", "g"], [("e1", "B", "g"), ("e2", "A", "B")], 2)
            combo = ((0, 1), (0, 1))
        spaces = {v: qq_space(cx.oracles[v], exps) for v, exps in zip(names, combo)}
        ends = {w: [e.v if end == 0 else e.u for e, end in cx.model.incident_edges(w)]
                for w in cx.model.vertices}
        tests = [cx.zero_divisor()] + [
            point_divisor(cx, (v, q)) for v in names for q in (QQ.elem(3), INF)
        ] + [point_divisor(cx, cx.model.vertex_point(w)) for w in cx.graphical_vertices()]
        answers = set()
        for bound in range(4):
            for e_div in tests:
                fast = limitseries._restricted_feasible(cx, d, e_div, spaces, bound, {}, ends)
                assert fast == _per_potential_feasible(cx, d, e_div, spaces, bound, {}, ends)
                answers.add(fast)
        assert answers == {True, False}

    def test_single_component(self, monkeypatch):
        # a vertex with no edges keeps its plain verdict on the rest
        cx = regularize(NodalCurveDescription({"Y": P1Oracle(QQ)}, []))
        combos = [((0, 1, 2),), ((0, 2),), ((1,),)]
        assert self.assert_agree(monkeypatch, cx, 2, combos, validate=True) == [2, 1, 0]


class TestRestrictedEta:
    def test_full_space_reduces_to_plain_eta(self):
        cx = regularize(NodalCurveDescription({"Y": P1Oracle(QQ)}, []))
        x = ("Y", INF)  # the monomial spans exhaust L(n(inf))
        spaces = {"Y": mono(0, 1, 2)}
        d = cx.zero_divisor()
        assert restricted_eta(cx, d, x, spaces, 0) == 0
        assert restricted_eta(cx, d, x, spaces, 1) == 1
        assert restricted_eta(cx, d, x, spaces, 2) == 2

    def test_constants_only(self):
        cx = regularize(NodalCurveDescription({"Y": P1Oracle(QQ)}, []))
        o = cx.oracles["Y"]
        d = cx.divisor(curve_parts={"Y": o.divisor((QQ.elem(2), -1))})
        spaces = {"Y": mono(0)}
        assert restricted_eta(cx, d, ("Y", QQ.elem(2)), spaces, 0) == 1

    def test_unreachable_k_rejected(self):
        cx = regularize(NodalCurveDescription({"Y": P1Oracle(QQ)}, []))
        with pytest.raises(InputError):
            restricted_eta(cx, cx.zero_divisor(), ("Y", QQ.elem(0)), {"Y": mono(0)}, 1)


class TestPrimeFieldRestrictedRank:
    def _two_lines_f(self, p):
        from mcdiv.exact import PrimeField

        f = PrimeField(p)
        desc = NodalCurveDescription(
            {"Y": P1Oracle(f), "Z": P1Oracle(f)},
            [("Y", f.elem(0), "Z", f.elem(0))],
        )
        return regularize(desc), f

    def test_char7_instance_with_certificate(self):
        from mcdiv.exact import Poly as P

        cx, f = self._two_lines_f(7)
        oy, oz = cx.oracles["Y"], cx.oracles["Z"]

        def rf7(coefs):
            return RationalFunc.make(P.make(f, coefs), P.const(f, 1))

        hy = FunctionSpace(oy, [rf7([1]), rf7([0, 1]), rf7([0, 0, 0, 0, 1])])
        hz = FunctionSpace(oz, [rf7([0, 1]), rf7([0, 0, 1]), rf7([0, 0, 1, 1])])
        aspects = {
            "Y": Aspect(oy.divisor((INF, 4)), hy),
            "Z": Aspect(oz.divisor((INF, 4)), hz),
        }
        ok, _ = crude_limit_check(cx, aspects, 4, 2)
        div = eqD_divisor(cx, "Y", {v: aspects[v].divisor for v in ("Y", "Z")})
        rr = restricted_rank(cx, div, {"Y": hy, "Z": hz}, validate=True)
        assert ok == (rr == 2)

    def test_small_field_pool_falls_back_to_all_points(self):
        from mcdiv.exact import Poly as P

        cx, f = self._two_lines_f(5)
        oy, oz = cx.oracles["Y"], cx.oracles["Z"]

        def rf5(coefs):
            return RationalFunc.make(P.make(f, coefs), P.const(f, 1))

        # zeros of the second basis element blanket the field, forcing the
        # fresh-point sampler into the exhaustive fallback
        blanket = rf5([-1, 1]) * rf5([-2, 1]) * rf5([-3, 1])
        hy = FunctionSpace(oy, [rf5([1]), blanket])
        hz = FunctionSpace(oz, [rf5([0, 1]), rf5([0, 0, 1])])
        aspects = {
            "Y": Aspect(oy.divisor((INF, 3)), hy),
            "Z": Aspect(oz.divisor((INF, 3)), hz),
        }
        ok, _ = crude_limit_check(cx, aspects, 3, 1)
        div = eqD_divisor(cx, "Y", {v: aspects[v].divisor for v in ("Y", "Z")})
        rr = restricted_rank(cx, div, {"Y": hy, "Z": hz}, validate=True)
        assert ok == (rr == 1)


class TestRestrictedConnectedSum:
    def test_formula_matches_direct_on_two_components(self):
        # the two-component chain is the connected sum of its vertices;
        # min over k of k + restricted rank of the far side with the twist
        # threshold removed must equal the direct restricted rank
        cx = two_lines()
        oy, oz = cx.oracles["Y"], cx.oracles["Z"]
        d = eqD_divisor(cx, "Y", {"Y": oy.divisor((INF, 2)), "Z": oz.divisor((INF, 2))})
        spaces = {"Y": mono(0, 1), "Z": mono(1, 2)}
        direct = restricted_rank(cx, d, spaces)

        piece_y = regularize(NodalCurveDescription({"Y": P1Oracle(QQ)}, []))
        piece_z = regularize(NodalCurveDescription({"Z": P1Oracle(QQ)}, []))
        d1 = piece_y.divisor(
            curve_parts={"Y": piece_y.oracles["Y"].divisor((INF, 2))}
        )
        d2 = piece_z.divisor(
            curve_parts={
                "Z": piece_z.oracles["Z"].divisor((INF, 2), (QQ.elem(0), -2))
            }
        )
        s1 = {"Y": FunctionSpace(piece_y.oracles["Y"], spaces["Y"].basis)}
        s2 = {"Z": FunctionSpace(piece_z.oracles["Z"], spaces["Z"].basis)}
        x1 = ("Y", QQ.elem(0))
        x2 = ("Z", QQ.elem(0))
        cap = s1["Y"].dim - 1
        best = None
        for k in range(cap + 1):
            n = restricted_eta(piece_y, d1, x1, s1, k)
            term = k + restricted_rank(
                piece_z, d2 - point_divisor(piece_z, x2, n), s2
            )
            best = term if best is None else min(best, term)
        assert best == direct


class TestLimitEquivalence:
    def test_vanishing_table_aspect_rejected(self):
        # the crude check reads a vanishing table, the restricted rank needs
        # a function space
        cx = two_lines()
        aspects = {
            "Y": Aspect(cx.oracles["Y"].divisor((INF, 2)), mono(0, 1)),
            "Z": VanishingTable({cx.marked_point("Z", "n0", 1): (1, 2)}),
        }
        with pytest.raises(InputError, match="function space at Z"):
            limit_equiv_audit(cx, aspects, "Y", 2, 1)

    def test_biconditional_positive(self):
        cx = two_lines()
        oy, oz = cx.oracles["Y"], cx.oracles["Z"]
        aspects = {
            "Y": Aspect(oy.divisor((INF, 2)), mono(0, 1)),
            "Z": Aspect(oz.divisor((INF, 2)), mono(1, 2)),
        }
        rep = limit_equiv_audit(cx, aspects, "Y", 2, 1)
        assert rep.passed() and rep.data["crude"] and rep.data["restricted_rank"] == 1

    def test_biconditional_negative_by_fault_injection(self):
        cx = two_lines()
        oy, oz = cx.oracles["Y"], cx.oracles["Z"]
        aspects = {
            "Y": Aspect(oy.divisor((INF, 2)), mono(0, 1)),
            "Z": Aspect(oz.divisor((INF, 2)), mono(0, 2)),
        }
        rep = limit_equiv_audit(cx, aspects, "Y", 2, 1)
        assert rep.passed()
        assert not rep.data["crude"] and rep.data["restricted_rank"] != 1

    def test_biconditional_on_four_and_five_chains(self):
        # crude <=> restricted rank = r, on chains beyond criterion 9's:
        # each line keeps the space of a limit series, (0..r) on C0 and
        # (d-r..d) after it, or with odds 1/4 takes a seeded catalogue space
        rng = random.Random(29)
        crude = set()
        for n in (4, 5):
            cx = line_chain(n)
            vs = list(cx.model.vertices)
            for d, r in ((2, 1), (3, 1), (3, 2)):
                catalog = space_catalog(d, r)
                series = [tuple(range(r + 1))] + [tuple(range(d - r, d + 1))] * (n - 1)
                for _ in range(16):
                    combo = [rng.choice(catalog) if rng.random() < 0.25 else s for s in series]
                    aspects = {
                        v: Aspect(cx.oracles[v].divisor((INF, d)), qq_space(cx.oracles[v], exps))
                        for v, exps in zip(vs, combo)
                    }
                    ok, _ = crude_limit_check(cx, aspects, d, r)
                    div = eqD_divisor(cx, vs[0], {v: a.divisor for v, a in aspects.items()})
                    rr = restricted_rank(cx, div, {v: a.space for v, a in aspects.items()})
                    assert ok == (rr == r), (n, d, r, combo)
                    crude.add(ok)
        assert crude == {True, False}

    def test_single_component(self):
        cx = regularize(NodalCurveDescription({"Y": P1Oracle(QQ)}, []))
        o = cx.oracles["Y"]
        aspects = {"Y": Aspect(o.divisor((INF, 2)), mono(0, 1, 2))}
        rep = limit_equiv_audit(cx, aspects, "Y", 2, 2)
        assert rep.passed() and rep.data["restricted_rank"] == 2


class TestNotCompletable:
    def test_audit_passes(self):
        rep = not_completable_audit(5, 1, 1)
        assert rep.passed(), rep.failures()

    def test_other_field(self):
        rep = not_completable_audit(7, 2, 3)
        assert rep.passed(), rep.failures()
