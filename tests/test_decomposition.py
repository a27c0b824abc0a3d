"""Eta functions, connected sums, wedges, weighted ranks, the vertex-twist
bound, and the Brill-Noether search."""

from fractions import Fraction

import pytest

from mcdiv.complexes import graphical_complex
from mcdiv.curves import EllipticOracle, O_POINT, P1Oracle
from mcdiv.decomposition import (
    EtaFunction,
    WeightedGraph,
    bn_search,
    brill_noether_number,
    connected_sum_rank,
    eta_v,
    gamma_sharp,
    glue,
    graph_rank,
    sharp_rank,
    wedge_model,
    wedge_rank,
    weighted_rank,
    wrank3_bound,
)
from mcdiv.errors import InputError
from mcdiv.exact import QQ, PrimeField
from mcdiv.metric import GraphDivisor, GraphModel
from mcdiv.rank import point_divisor, rank

from conftest import (
    circle_model,
    random_complex,
    random_divisor,
    single_vertex_complex,
    star_elliptic_complex,
    theta_model,
)


class TestEta:
    def test_circle_values(self):
        cx = graphical_complex(circle_model())
        x = cx.model.vertex_point("v")
        fn = EtaFunction(cx, cx.zero_divisor(), x)
        assert fn(0) == 0 and fn(1) == 2
        assert [fn(k) for k in range(2, 7)] == [3, 4, 5, 6, 7]

    def test_p1_identity(self):
        cx = single_vertex_complex(P1Oracle(QQ))
        fn = EtaFunction(cx, cx.zero_divisor(), ("s", QQ.elem(0)))
        assert [fn(k) for k in range(4)] == [0, 1, 2, 3]

    def test_elliptic_vertex(self):
        cx = single_vertex_complex(EllipticOracle(5, 1, 1))
        fn = EtaFunction(cx, cx.zero_divisor(), ("s", O_POINT))
        assert fn(0) == 0 and fn(1) == 2 and fn(2) == 3

    def test_strictly_increasing_with_linear_tail(self, rng):
        for _ in range(4):
            cx = random_complex(rng)
            d = random_divisor(rng, cx, deg_lo=-2, deg_hi=3)
            x = cx.model.vertex_point(cx.graphical_vertices()[0]) if cx.graphical_vertices() else None
            if x is None:
                v = cx.oracle_vertices()[0]
                o = cx.oracles[v]
                x = (v, o.sample_points(1, avoid=cx.marks[v].values())[0])
            fn = EtaFunction(cx, d, x)
            vals = [fn(k) for k in range(5)]
            assert all(b > a for a, b in zip(vals, vals[1:]))
            tail_start = cx.genus() + max(0, -d.degree()) + 1
            a = fn(tail_start)
            assert fn(tail_start + 1) == a + 1


class TestEtaV:
    def test_p1(self):
        o = P1Oracle(QQ)
        for k in range(3):
            assert eta_v(o, o.zero_divisor(), [QQ.elem(0)], k) == k

    def test_elliptic_origin(self):
        o = EllipticOracle(5, 1, 1)
        assert eta_v(o, o.zero_divisor(), [O_POINT], 0) == 0
        assert eta_v(o, o.zero_divisor(), [O_POINT], 1) == 2

    def test_clifford_floor(self):
        o = EllipticOracle(5, 1, 1)
        marks = o.sample_points(2)
        for k in range(3):
            floor = 2 * k if k <= o.genus else k + o.genus
            assert eta_v(o, o.zero_divisor(), marks, k) >= floor


class TestGlue:
    def p1_cx(self):
        return single_vertex_complex(P1Oracle(QQ))

    def test_two_lines(self):
        cx1, cx2 = self.p1_cx(), self.p1_cx()
        g = glue(cx1, ("s", QQ.elem(1)), cx2, ("s", QQ.elem(2)))
        assert g.complex.genus() == 0
        assert "bridge" in g.complex.model.edges

    def test_circle_to_circle(self):
        c1 = graphical_complex(circle_model(1))
        c2 = graphical_complex(circle_model(2))
        g = glue(c1, c1.model.vertex_point("v"), c2, c2.model.vertex_point("v"))
        assert g.complex.genus() == 2

    def test_marked_point_collision_rejected(self):
        cx1 = star_elliptic_complex()
        cx2 = self.p1_cx()
        taken = cx1.marked_point("c", "ea", 0)
        with pytest.raises(InputError):
            glue(cx1, ("c", taken), cx2, ("s", QQ.elem(0)))

    def test_lift_rejects_foreign_oracle(self):
        g = glue(self.p1_cx(), ("s", QQ.elem(1)), self.p1_cx(), ("s", QQ.elem(2)))
        other = self.p1_cx()  # same shape, but an oracle of its own
        d = other.divisor(curve_parts={"s": other.oracles["s"].divisor((QQ.elem(0), 1))})
        with pytest.raises(InputError):
            g.lift(1, d)

    def test_divisor_roundtrip(self, rng):
        cx1 = star_elliptic_complex()
        cx2 = self.p1_cx()
        g = glue(cx1, ("c", cx1.oracles["c"].field.elem(4)), cx2, ("s", QQ.elem(0)))
        d = random_divisor(rng, cx1, deg_lo=0, deg_hi=3)
        lifted = g.lift(1, d)
        assert lifted.degree() == d.degree()


class TestConnectedSum:
    def test_rational_tail_invariance(self, rng):
        # gluing a projective-line tail never changes the rank
        tail = single_vertex_complex(P1Oracle(PrimeField(5)))
        for _ in range(5):
            cx = random_complex(rng)
            d = random_divisor(rng, cx, deg_lo=-1, deg_hi=4)
            if cx.graphical_vertices():
                x1 = cx.model.vertex_point(cx.graphical_vertices()[0])
            else:
                v = cx.oracle_vertices()[0]
                o = cx.oracles[v]
                x1 = (v, o.sample_points(1, avoid=cx.marks[v].values())[0])
            got = connected_sum_rank(
                cx, d, x1, tail, tail.zero_divisor(), ("s", PrimeField(5).elem(0))
            )
            assert got == rank(cx, d)

    def test_matches_direct_rank_on_glued(self, rng):
        tail = single_vertex_complex(P1Oracle(QQ))
        o = tail.oracles["s"]
        cx2 = single_vertex_complex(EllipticOracle(5, 1, 1))
        o2 = cx2.oracles["s"]
        pts = o2.sample_points(2)
        cases = [
            (tail, tail.divisor(curve_parts={"s": o.divisor((QQ.elem(0), 2))}),
             ("s", QQ.elem(1)), cx2, cx2.zero_divisor(), ("s", pts[1])),
            (tail, tail.zero_divisor(), ("s", QQ.elem(1)),
             cx2, cx2.divisor(curve_parts={"s": o2.divisor((pts[1], 2))}), ("s", O_POINT)),
        ]
        for cx1, d1, x1, cxx2, d2, x2 in cases:
            formula = connected_sum_rank(cx1, d1, x1, cxx2, d2, x2)
            g = glue(cx1, x1, cxx2, x2)
            direct = rank(g.complex, g.lift(1, d1) + g.lift(2, d2))
            assert formula == direct


class TestWedge:
    def test_circle_wedge_circle(self):
        m1, m2 = circle_model(1), circle_model(2)
        D1 = GraphDivisor.of((m1.vertex_point("v"), 2))
        formula = wedge_rank(m1, D1, "v", m2, GraphDivisor(), "v")
        wm, joint, carry = wedge_model(m1, "v", m2, "v")
        direct = graph_rank(wm, carry(1, D1))
        assert formula == direct == 1

    def test_path_wedge_path(self):
        m1 = segment = GraphModel(["a", "b"], [("e", "a", "b", 1)])
        m2 = GraphModel(["a", "b"], [("e", "a", "b", 2)])
        D1 = GraphDivisor.of((m1.vertex_point("b"), 2))
        formula = wedge_rank(m1, D1, "a", m2, GraphDivisor(), "a")
        assert formula == 2  # tree: rank = degree

    def test_random_wedges_match(self, rng):
        shapes = [circle_model(1), theta_model(), GraphModel(["a", "b"], [("e", "a", "b", 1)])]
        for _ in range(6):
            m1 = shapes[rng.randrange(len(shapes))]
            m2 = shapes[rng.randrange(len(shapes))]
            v1 = m1.vertices[0]
            v2 = m2.vertices[0]
            d1 = GraphDivisor.of((m1.vertex_point(v1), rng.randint(0, 2)))
            d2 = GraphDivisor.of((m2.vertex_point(m2.vertices[-1]), rng.randint(0, 2)))
            formula = wedge_rank(m1, d1, v1, m2, d2, v2)
            wm, joint, carry = wedge_model(m1, v1, m2, v2)
            direct = graph_rank(wm, carry(1, d1) + carry(2, d2))
            assert formula == direct


class TestWeightedRank:
    def test_single_vertex_floor(self):
        model = GraphModel(["v"], [])
        for g in (1, 2):
            wg = WeightedGraph(model, {"v": g})
            for d in range(0, 2 * g + 1):
                div = GraphDivisor.of((model.vertex_point("v"), d))
                assert weighted_rank(wg, div) == d // 2
                assert sharp_rank(wg, div) == d // 2

    def test_zero_weights_are_plain_rank(self, rng):
        model = theta_model()
        wg = WeightedGraph(model, {})
        d = GraphDivisor.of((model.vertex_point("u"), 2))
        assert weighted_rank(wg, d) == graph_rank(model, d)

    def test_negative_degree(self):
        model = GraphModel(["v"], [])
        wg = WeightedGraph(model, {"v": 1})
        d = GraphDivisor.of((model.vertex_point("v"), -1))
        assert weighted_rank(wg, d) == -1

    def test_sharp_genus(self):
        model = theta_model()
        wg = WeightedGraph(model, {"u": 1})
        sharp = gamma_sharp(wg)
        assert sharp.first_betti() == 3

    def test_loop_length_independence(self, rng):
        model = GraphModel(["a", "b"], [("e", "a", "b", 1)])
        wg = WeightedGraph(model, {"a": 1, "b": 1})
        d = GraphDivisor.of((model.vertex_point("a"), 2), (model.vertex_point("b"), 1))
        r1 = sharp_rank(wg, d, {("a", 0): 1, ("b", 0): 1})
        r2 = sharp_rank(wg, d, {("a", 0): Fraction(1, 2), ("b", 0): 3})
        assert r1 == r2 == weighted_rank(wg, d)


class TestWrank3:
    def test_all_genus_zero_complex(self):
        cx = star_elliptic_complex()
        # replace by the statement on a trivial complex: bound equals the
        # graph rank when every twist threshold is the identity
        from mcdiv.complexes import as_trivial_complex

        t = as_trivial_complex(theta_model())
        d = t.canonical()
        assert wrank3_bound(t, d, coeff_cap=2) == rank(t, d) == 1

    def test_star_bound_dominates(self):
        cx = star_elliptic_complex()
        center = cx.oracles["c"]
        d = cx.divisor(curve_parts={"c": center.divisor((center.field.elem(3), 2))})
        b = wrank3_bound(cx, d, coeff_cap=1)
        assert b >= rank(cx, d) == 1

    def test_bound_dominates_on_fuzz(self, rng):
        for _ in range(5):
            cx = random_complex(rng)
            if not cx.oracle_vertices():
                continue
            d = random_divisor(rng, cx, deg_lo=0, deg_hi=4)
            assert wrank3_bound(cx, d, coeff_cap=1) >= rank(cx, d)


class TestChainOfLoops:
    """Three loops joined by bridges: a degree-2 rank-1 divisor exists
    exactly when the middle loop is split into equal arcs, and the
    eta-composed rank agrees with the direct one either way."""

    @staticmethod
    def _chain(mid_a, mid_b):
        c1 = graphical_complex(GraphModel(["v"], [("loop", "v", "v", 2)]))
        mid = graphical_complex(
            GraphModel(["w1", "w2"], [("a", "w1", "w2", mid_a), ("b", "w1", "w2", mid_b)])
        )
        c3 = graphical_complex(GraphModel(["v"], [("loop", "v", "v", 2)]))
        g1 = glue(c1, c1.model.vertex_point("v"), mid, mid.model.vertex_point("w1"), 1)
        g2 = glue(
            g1.complex,
            g1.complex.model.vertex_point("2.w2"),
            c3,
            c3.model.vertex_point("v"),
            1,
        )
        return c1, mid, c3, g1, g2

    @pytest.mark.parametrize(
        "arcs,expected",
        [((1, 1), 1), ((1, Fraction(3, 2)), 0)],
        ids=["torsion-symmetric", "generic-lengths"],
    )
    def test_g12_exists_iff_symmetric(self, arcs, expected):
        c1, mid, c3, g1, g2 = self._chain(*arcs)
        cx = g2.complex
        assert cx.genus() == 3
        m1 = g2.lift_point(1, g1.lift_point(1, c1.model.vertex_point("loop~mid")))
        direct = rank(cx, point_divisor(cx, m1, 2))
        rest = glue(
            mid, mid.model.vertex_point("w2"), c3, c3.model.vertex_point("v"), 1
        )
        composed = connected_sum_rank(
            c1,
            point_divisor(c1, c1.model.vertex_point("loop~mid"), 2),
            c1.model.vertex_point("v"),
            rest.complex,
            rest.complex.zero_divisor(),
            rest.complex.model.vertex_point("1.w1"),
        )
        assert direct == composed == expected


class TestBrillNoether:
    def test_rho(self):
        assert brill_noether_number(2, 1, 2) == 0
        assert brill_noether_number(3, 1, 2) == -1

    def test_theta_canonical_found(self):
        cx = graphical_complex(theta_model())
        witness, tried = bn_search(cx, 2, 1)
        assert witness is not None
        assert rank(cx, witness) >= 1

    def test_degree_g_plus_r_always_succeeds(self, rng):
        for _ in range(3):
            cx = random_complex(rng)
            g = cx.genus()
            witness, _ = bn_search(cx, g + 1, 1, budget=400)
            assert witness is not None
