"""Curve oracles: the projective line, elliptic curves, table models, and
their shared axioms."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcdiv.curves import (
    EPoint,
    EllipticOracle,
    O_POINT,
    P1Oracle,
    TableOracle,
    genus2_table_oracle,
    riemann_roch_audit,
)
from mcdiv.errors import AuditError, FieldTooSmallError, InputError
from mcdiv.exact import INF, Fp, PrimeField, QQ, RationalFunc


# -- references: the group law on Fp objects and the tuple-fold table class,
# as the oracles computed them before they worked on plain integers ---------


def reference_add(o, p, q):
    if p is O_POINT:
        return q
    if q is O_POINT:
        return p
    if p.x == q.x and p.y == -q.y:
        return O_POINT
    if p == q:
        s = (o.field.elem(3) * p.x * p.x + o.a) / (o.field.elem(2) * p.y)
    else:
        s = (q.y - p.y) / (q.x - p.x)
    x = s * s - p.x - q.x
    return EPoint(x, s * (p.x - x) - p.y)


def reference_neg(p):
    return p if p is O_POINT else EPoint(p.x, -p.y)


def reference_mul(o, n, p):
    if n < 0:
        return reference_mul(o, -n, reference_neg(p))
    acc = O_POINT
    while n:
        if n & 1:
            acc = reference_add(o, acc, p)
        p = reference_add(o, p, p)
        n >>= 1
    return acc


def reference_group_sum(o, d):
    acc = O_POINT
    for p, c in d.coeffs.items():
        acc = reference_add(o, acc, reference_mul(o, c, p))
    return acc


def reference_elliptic_rank(o, d):
    deg = d.degree()
    if deg <= 0:
        return 0 if deg == 0 and reference_group_sum(o, d) is O_POINT else -1
    return deg - 1


def reference_class_of(t, d):
    acc = t._gzero()
    for p, c in d.coeffs.items():
        acc = t._gadd(acc, tuple((c * x) % m for x, m in zip(t.points[p], t.moduli)))
    return (d.degree(), acc)


def as_pair(pt):
    """An EPoint as the integer pair the group law works on."""
    return pt if pt is O_POINT else (pt.x.v, pt.y.v)


def representative_or_error(o, d):
    try:
        return o.effective_representative(d)
    except InputError:
        return "no effective representative"


@pytest.fixture(scope="module")
def e5():
    return EllipticOracle(5, 1, 1)


@pytest.fixture(scope="module")
def table2():
    return genus2_table_oracle()


class TestP1:
    def setup_method(self):
        self.o = P1Oracle(QQ)

    def test_rank_is_degree(self):
        d = self.o.divisor((QQ.elem(0), 3))
        assert self.o.curve_rank(d) == 3
        assert self.o.curve_rank(d.scale(-1)) == -1

    def test_sum_across_curves_rejected(self):
        other = P1Oracle(QQ)
        d = self.o.divisor((QQ.elem(0), 1))
        e = other.divisor((QQ.elem(0), 1))
        with pytest.raises(InputError, match="different curves"):
            d + e
        with pytest.raises(InputError, match="different curves"):
            d - e
        assert d + self.o.divisor((QQ.elem(0), 1)) == self.o.divisor((QQ.elem(0), 2))

    def test_classes_by_degree(self):
        d1 = self.o.divisor((QQ.elem(0), 1), (QQ.elem(1), 1))
        d2 = self.o.divisor((INF, 2))
        assert self.o.classes_equal(d1, d2)

    def test_effective_representative_at_basepoint(self):
        d = self.o.divisor((QQ.elem(0), 1), (QQ.elem(1), -1), (QQ.elem(2), 1))
        rep = self.o.effective_representative(d)
        assert rep == self.o.divisor((INF, 1))
        with pytest.raises(InputError):
            self.o.effective_representative(d.scale(-1))

    def test_canonical(self):
        k = self.o.canonical_divisor()
        assert k.degree() == -2 and k.get(INF) == -2

    def test_minimal_nonspecial(self):
        pool = [QQ.elem(0), INF]
        out = list(self.o.minimal_nonspecial_sample(pool))
        assert len(out) == 2
        assert all(d.degree() == -1 and self.o.curve_rank(d) == -1 for d in out)

    def test_principal_witness_roundtrip(self):
        """Over Q and F_5/F_7 the witness is already in RationalFunc.make's
        canonical form (monic, coprime) and its divisor is d."""
        for field in (QQ, PrimeField(5), PrimeField(7)):
            o = P1Oracle(field)
            x = field.elem
            for pairs in (
                [(x(2), 2), (x(1), -1), (INF, -1)],
                [(x(0), 1), (x(3), 1), (x(4), -2)],
                [(INF, 3), (x(1), -1), (x(2), -1), (x(0), -1)],
                [(x(3), -2), (INF, 2)],
            ):
                d = o.divisor(*pairs)
                f = o.principal_witness(d)
                assert f == RationalFunc.make(f.num, f.den)
                assert o.divisor_of(f) == d

    def test_audit(self):
        assert riemann_roch_audit(self.o).passed()

    def test_small_field_exhaustion(self):
        o = P1Oracle(PrimeField(2))
        with pytest.raises(FieldTooSmallError):
            o.sample_points(5)

    @settings(max_examples=200)
    @given(st.sampled_from([2, 3, 5, 7]), st.integers(0, 9), st.lists(st.integers(-1, 7), max_size=6))
    def test_prime_field_samples_follow_full_stream(self, p, count, avoid_idx):
        """Over F_p, sampling walks the whole point stream 0..p-1, INF:
        it skips `avoid` and keeps the first `count` points; a count of 0
        keeps none, whatever is avoided."""
        o = P1Oracle(PrimeField(p))
        full = [Fp(i, p) for i in range(p)] + [INF]
        avoid = [full[i] for i in avoid_idx if i < len(full)]

        def walk_full_stream():
            out = []
            for q in full:
                if len(out) < count and q not in avoid:
                    out.append(q)
            if len(out) < count:
                raise FieldTooSmallError(count, len(out))
            return out

        def outcome(fn):
            try:
                return fn()
            except FieldTooSmallError as err:
                return ("too small", err.needed)

        assert outcome(lambda: o.sample_points(count, avoid=avoid)) == outcome(walk_full_stream)
        assert o.sample_points(0, avoid=avoid) == []


class TestElliptic:
    def test_singular_rejected(self):
        with pytest.raises(InputError):
            EllipticOracle(5, 0, 0)

    def test_point_validation(self, e5):
        with pytest.raises(InputError):
            e5.point(1, 1)

    def test_group_associativity_exhaustive(self, e5):
        pts = e5.all_points()
        for a, b, c in itertools.product(pts, repeat=3):
            assert e5.add_points(e5.add_points(a, b), c) == e5.add_points(
                a, e5.add_points(b, c)
            )

    def test_rank_values(self, e5):
        pts = e5.all_points()
        p, q = pts[1], pts[3]
        assert e5.curve_rank(e5.divisor((p, 1), (O_POINT, -1))) == -1
        assert e5.curve_rank(e5.divisor((p, 1), (q, 1))) == 1
        assert e5.curve_rank(e5.zero_divisor()) == 0

    def test_group_law_class_identity(self, e5):
        pts = e5.all_points()
        p, q = pts[1], pts[4]
        s = e5.add_points(p, q)
        assert e5.classes_equal(
            e5.divisor((p, 1), (q, 1)), e5.divisor((s, 1), (O_POINT, 1))
        )
        assert not e5.classes_equal(e5.divisor((p, 1)), e5.divisor((q, 1)))

    def test_effective_representative(self, e5):
        pts = e5.all_points()
        p, q = pts[1], pts[2]
        d = e5.divisor((p, 1), (q, 1))
        rep = e5.effective_representative(d)
        assert rep.is_effective() and e5.classes_equal(rep, d)
        principal = e5.divisor((p, 1), (reference_neg(p), 1), (O_POINT, -2))
        assert e5.effective_representative(principal) == e5.zero_divisor()
        assert e5.curve_rank(principal) == 0

    def test_canonical_trivial(self, e5):
        assert e5.canonical_divisor().degree() == 0

    def test_minimal_nonspecial(self, e5):
        pool = e5.sample_points(3)
        for d in e5.minimal_nonspecial_sample(pool):
            assert d.degree() == 0 and e5.curve_rank(d) == -1

    def test_audit_f5_and_f7(self):
        assert riemann_roch_audit(EllipticOracle(5, 1, 1)).passed()
        assert riemann_roch_audit(EllipticOracle(7, 2, 3)).passed()

    @pytest.mark.parametrize("p, a, b", [
        (5, 1, 1), (5, 2, 0), (5, 0, 2), (7, 2, 3), (7, 1, 0), (11, 0, 1), (11, 3, 7),
        (13, 1, 0), (13, 2, 5), (101, 1, 1), (101, 0, 7), (101, 3, 0), (101, 100, 50),
    ])
    def test_all_points_match_the_double_loop(self, p, a, b):
        """The square-root table lists exactly the points that trying every
        (x, y) pair finds, in the same order: O, then x and y ascending."""
        o = EllipticOracle(p, a, b)
        f = o.field
        brute = [O_POINT]
        for x in range(p):
            xe = f.elem(x)
            rhs = xe * xe * xe + o.a * xe + o.b
            for y in range(p):
                ye = f.elem(y)
                if ye * ye == rhs:
                    brute.append(EPoint(xe, ye))
        assert o.all_points() == brute
        if b == 0:
            assert EPoint(f.elem(0), f.elem(0)) in brute  # a point with y = 0


_CURVES = {key: EllipticOracle(*key)
           for key in ((5, 1, 1), (5, 2, 0), (13, 1, 1), (13, 1, 0), (101, 1, 1))}


# up to six (point index, coefficient) terms; the index wraps around the points
_TERMS = st.lists(st.tuples(st.integers(0, 200), st.integers(-5, 5)), max_size=6)


def _on(o, terms, pts):
    return o.divisor(*((pts[i % len(pts)], c) for i, c in terms))


class TestIntegerGroupLaw:
    """The group law on integer pairs against the Fp reference: every pair
    of points, and every class question on random divisors."""

    @pytest.mark.parametrize("key", [(5, 1, 1), (5, 2, 0), (13, 1, 1), (13, 1, 0)], ids=str)
    def test_every_pair_of_points(self, key):
        o = _CURVES[key]
        pts = o.all_points()
        if key[2] == 0:  # x^3 + ax has the root 0: a 2-torsion point
            assert EPoint(o.field.elem(0), o.field.elem(0)) in pts
        for p, q in itertools.product(pts, repeat=2):
            assert o.add_points(p, q) == reference_add(o, p, q)
            d = o.divisor((p, 1), (q, -1))
            assert o.class_of(d.coeffs.items()) == (0, as_pair(reference_add(o, p, reference_neg(q))))
            assert o.curve_rank(d) == reference_elliptic_rank(o, d)
            assert o.classes_equal(o.divisor((p, 1)), o.divisor((q, 1))) == (p == q)
            principal = o.divisor((p, 1), (q, 1), (reference_add(o, p, q), -1), (O_POINT, -1))
            assert o.class_of(principal.coeffs.items()) == (0, O_POINT)
            assert o.curve_rank(principal) == 0

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([(13, 1, 1), (101, 1, 1)]), _TERMS, _TERMS)
    def test_random_divisors(self, key, terms, other):
        o = _CURVES[key]
        pts = o.all_points()
        d, e = _on(o, terms, pts), _on(o, other, pts)
        assert o.class_of(d.coeffs.items()) == (d.degree(), as_pair(reference_group_sum(o, d)))
        assert o.curve_rank(d) == reference_elliptic_rank(o, d)
        same = d.degree() == e.degree() and reference_group_sum(o, d) == reference_group_sum(o, e)
        assert o.classes_equal(d, e) == same
        if reference_elliptic_rank(o, d) < 0:
            assert representative_or_error(o, d) == "no effective representative"
        else:
            # O and -O cancel in degree 0
            expected = o.divisor((reference_group_sum(o, d), 1), (O_POINT, d.degree() - 1))
            rep = o.effective_representative(d)
            assert rep == expected and o.classes_equal(rep, d)


class TestOnePassTableClass:
    """class_of sums in one pass and reduces once; its classes, ranks and
    representatives must be those of the tuple fold."""

    @settings(max_examples=150, deadline=None)
    @given(_TERMS, _TERMS)
    def test_random_divisors(self, table2, terms, other):
        labels = sorted(table2.points)
        d, e = _on(table2, terms, labels), _on(table2, other, labels)
        ref = reference_class_of(table2, d)
        assert table2.class_of(d.coeffs.items()) == ref
        assert table2.curve_rank(d) == table2.table_rank(*ref)
        assert table2.classes_equal(d, e) == (ref == reference_class_of(table2, e))
        if table2.table_rank(*ref) < 0:
            assert representative_or_error(table2, d) == "no effective representative"
        else:
            rep = table2.effective_representative(d)
            assert rep == table2._in_class(*ref) and table2.classes_equal(rep, d)


_KINDS = {"P1/Q": P1Oracle(QQ), "P1/F5": P1Oracle(PrimeField(5)), "E/F5": _CURVES[(5, 1, 1)],
          "E/F13": _CURVES[(13, 1, 1)], "table": genus2_table_oracle()}


class TestClassPath:
    """The rank >= 0 test reads the class of (point, c) pairs, building no
    divisor; it must answer as curve_rank does on the divisor of the pairs,
    with points repeated, with negative coefficients, and with marked points
    removed as the burn test removes them."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(_KINDS)), _TERMS, st.lists(st.integers(0, 2), max_size=4))
    def test_nonneg_rank_is_curve_rank_of_the_divisor(self, kind, terms, burnt):
        o = _KINDS[kind]
        pts = o.sample_points(5)
        marks = pts[:3]  # as a complex would mark them
        pairs = [(pts[i % len(pts)], c) for i, c in terms] + [(marks[j], -1) for j in burnt]
        d = o.divisor(*pairs)
        assert o.class_of(pairs) == o.class_of(d.coeffs.items())
        assert o.nonneg_rank(pairs) == (o.curve_rank(d) >= 0)


@pytest.mark.parametrize("key", sorted(_CURVES), ids=str)
def test_elliptic_samples_stop_at_count(key, monkeypatch):
    """sample_points gives the first points of all_points off avoid, builds
    only the points it reaches, and leaves the oracle as it was."""
    o = _CURVES[key]
    pts = o.all_points()
    state = dict(vars(o))
    built = []

    def counting(x, y):
        built.append((x, y))
        return EPoint(x, y)

    monkeypatch.setattr("mcdiv.curves.EPoint", counting)
    for count, avoid in ((1, ()), (min(2, len(pts) - 1), pts[1:2]), (len(pts) - 1, pts[:1])):
        built.clear()
        assert o.sample_points(count, avoid) == [p for p in pts if p not in avoid][:count]
        # only the points reached are built: those kept and those avoided
        assert len(built) <= count + len(avoid)
    with pytest.raises(FieldTooSmallError):
        o.sample_points(len(pts) - 1, pts[:2])
    assert vars(o) == state


@pytest.mark.parametrize("point", [
    EPoint(Fp(0, 7), Fp(1, 7)),  # (0, 1) lies on y^2 = x^3 + x + 1 over F7 as well
    EPoint(0, 1),
    EPoint(Fp(0, 5), 1),
    EPoint(Fp(0, 5), Fp(1, 7)),
    (0, 1),
])
def test_elliptic_points_need_coordinates_over_its_field(e5, point):
    """Only EPoints with both coordinates in F_p of the curve are points:
    the group law reads the coordinates' integers, so a point over another
    field would be taken mod p without a word."""
    assert e5.point(0, 1) in e5.all_points()
    with pytest.raises(InputError, match="is not on the curve"):
        e5.validate_point(point)
    with pytest.raises(InputError):
        e5.divisor((point, 1))


@pytest.mark.parametrize("kind", ["E/F7 against E/F5", "P1/Q against P1/F5"])
def test_classes_equal_refuses_a_foreign_divisor(kind):
    """classes_equal checks that both divisors belong to the oracle, as
    curve_rank and effective_representative do: read by the wrong oracle,
    a point over F7 is taken mod 5 and a P1/Q divisor counts by its degree."""
    if kind.startswith("E"):
        o, other = EllipticOracle(5, 1, 1), EllipticOracle(7, 1, 1)
        own, foreign = o.divisor((o.point(0, 1), 1)), other.divisor((other.point(0, 1), 1))
    else:
        o, other = P1Oracle(PrimeField(5)), P1Oracle(QQ)
        own, foreign = o.divisor((INF, 1)), other.divisor((QQ.elem(0), 1))
    assert o.classes_equal(own, own)
    for pair in ((foreign, own), (own, foreign)):
        with pytest.raises(InputError, match="different oracle"):
            o.classes_equal(*pair)


class TestTable:
    def test_genus2_instance_consistent(self, table2):
        assert table2.genus == 2
        assert riemann_roch_audit(table2).passed()

    def test_rank_lookup(self, table2):
        # L01 has image 1 and L07 image 12, so their sum is canonical
        k = table2.divisor(("L01", 1), ("L07", 1))
        assert table2.curve_rank(k) == 1
        assert table2.curve_rank(table2.divisor(("L01", 1))) == 0
        assert table2.curve_rank(table2.divisor(("L01", 3))) == 1  # deg 3: 3-2

    def test_points_inject_into_classes(self, table2):
        imgs = list(table2.points.values())
        assert len(set(imgs)) == len(imgs)

    def test_minimal_nonspecial_classes(self, table2):
        out = list(table2.minimal_nonspecial_sample(None))
        assert len(out) == 3
        for d in out:
            assert d.degree() == 1 and table2.curve_rank(d) == -1

    def test_corrupted_table_rejected(self):
        good = genus2_table_oracle()
        table = dict(good.rank_table)
        table[(2, (0,))] = 0  # break the canonical rank
        with pytest.raises(AuditError):
            TableOracle(2, (13,), good.points, table, (0,))

    def test_duplicate_class_points_rejected(self):
        good = genus2_table_oracle()
        pts = dict(good.points)
        pts["DUP"] = pts["L01"]
        with pytest.raises(InputError):
            TableOracle(2, (13,), pts, dict(good.rank_table), (0,))

    def test_rank_one_detection(self, table2):
        labels = sorted(table2.points)
        assert table2.rank_one_detection(labels)
        assert table2.rank_one_detection(labels[3:])
        assert not table2.rank_one_detection([])

    def test_effective_representative(self, table2):
        d = table2.divisor(("L01", 2))  # degree 2, class 2: rank 0
        rep = table2.effective_representative(d)
        assert rep.is_effective() and table2.classes_equal(rep, d)

    def test_fault_injection_audit_names_divisor(self, table2):
        rep = riemann_roch_audit(table2)
        assert rep.passed() and not rep.failures()
