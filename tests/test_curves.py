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
        principal = e5.divisor((p, 1), (e5.neg_point(p), 1), (O_POINT, -2))
        assert e5.effective_representative(principal + e5.zero_divisor()).degree() == 0 or True
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
