"""Rank computations and the certified identities around them."""

import itertools
from fractions import Fraction

import pytest

from mcdiv.complexes import as_trivial_complex, graphical_complex
from mcdiv.complexes import NodalCurveDescription, regularize
from mcdiv.curves import EllipticOracle, O_POINT, P1Oracle
from mcdiv.decomposition import WeightedGraph, graph_rank, weighted_rank
from mcdiv.errors import InputError
from mcdiv.exact import INF, Poly, PrimeField, QQ, RationalFunc
from mcdiv.limitseries import FunctionSpace
from mcdiv.metric import GraphDivisor, GraphModel, enumerate_acyclic_orientations
from mcdiv.rank import (
    Moderator,
    clifford_audit,
    combinatorial_rank,
    find_weierstrass,
    is_weierstrass,
    linear_equiv,
    moderator,
    moderator_sample,
    nonneg_rank,
    nonspecial_pools,
    point_divisor,
    rank,
    rank_bound_from_nonspecial,
    rank_determining_sites,
    rr_audit,
)

from conftest import (
    random_complex,
    random_divisor,
    random_witness,
    segment_model,
    single_vertex_complex,
    star_elliptic_complex,
    theta_model,
)


@pytest.fixture(scope="module")
def theta_cx():
    return as_trivial_complex(theta_model())


class TestNonnegRank:
    def test_effective_true(self, theta_cx):
        d = theta_cx.divisor(
            graph_pairs=[(theta_cx.model.point_on("e1", Fraction(1, 2)), 1)]
        )
        assert nonneg_rank(theta_cx, d)

    def test_negative_degree_false(self, theta_cx):
        o = theta_cx.oracles["u"]
        d = theta_cx.divisor(curve_parts={"u": o.divisor((INF, -1))})
        assert not nonneg_rank(theta_cx, d)

    def test_generic_degree_zero_on_theta_false(self, theta_cx):
        p = theta_cx.model.point_on("e1", Fraction(1, 2))
        q = theta_cx.model.point_on("e2", Fraction(1, 2))
        d = theta_cx.divisor(graph_pairs=[(p, 1), (q, -1)])
        assert not nonneg_rank(theta_cx, d)


class TestRank:
    def test_p1_rank_is_degree(self):
        cx = single_vertex_complex(P1Oracle(QQ))
        o = cx.oracles["s"]
        for d in range(4):
            div = cx.divisor(curve_parts={"s": o.divisor((QQ.elem(0), d))})
            assert rank(cx, div, audit=True) == d

    def test_star_two_p_is_one(self):
        cx = star_elliptic_complex()
        center = cx.oracles["c"]
        p = center.field.elem(3)
        d = cx.divisor(curve_parts={"c": center.divisor((p, 2))})
        assert rank(cx, d) == 1

    def test_theta_canonical_rank_one(self, theta_cx):
        assert rank(theta_cx, theta_cx.canonical()) == 1

    def test_invariance_under_witness(self, rng):
        for _ in range(8):
            cx = random_complex(rng)
            d = random_divisor(rng, cx, deg_lo=-2, deg_hi=4)
            w = random_witness(rng, cx)
            assert rank(cx, d) == rank(cx, d + w.divisor())

    def test_adding_point_moves_rank_by_at_most_one(self, rng):
        for _ in range(8):
            cx = random_complex(rng)
            d = random_divisor(rng, cx, deg_lo=-2, deg_hi=4)
            sites = rank_determining_sites(cx)
            extra = point_divisor(
                cx,
                (sites[-1].vertex, sites[-1].point)
                if sites[-1].kind == "c"
                else cx.model.vertex_point(sites[-1].vertex),
                1,
            )
            r0, r1 = rank(cx, d), rank(cx, d + extra)
            assert r1 - r0 in (0, 1)

    def test_rank_independent_of_sites(self, rng):
        for _ in range(6):
            cx = random_complex(rng, p=13)
            d = random_divisor(rng, cx, deg_lo=-1, deg_hi=4)
            r0 = rank(cx, d, sites=rank_determining_sites(cx, seed=0))
            r1 = rank(cx, d, sites=rank_determining_sites(cx, seed=1))
            big = rank(cx, d, sites=rank_determining_sites(cx, oversize=2))
            assert r0 == r1 == big

    def test_genus_zero_complex_matches_graph_rank(self, rng):
        # attaching projective lines everywhere never changes the rank of
        # a graph divisor
        from mcdiv.metric import GraphDivisor

        shapes = [theta_model(), segment_model(),
                  GraphModel(["a", "b", "c"],
                             [("e1", "a", "b", 1), ("e2", "b", "c", 1),
                              ("e3", "c", "a", 1)])]
        for model in shapes:
            trivial = as_trivial_complex(model)
            bare = graphical_complex(model)
            for _ in range(4):
                pts = [model.vertex_point(v) for v in model.vertices]
                pts.append(model.point_on(sorted(model.edges)[0], Fraction(1, 2)))
                d = GraphDivisor(
                    {pts[rng.randrange(len(pts))]: rng.randint(-2, 3)}
                )
                assert rank(trivial, trivial.lift_graph_divisor(d)) == rank(
                    bare, bare.lift_graph_divisor(d)
                )


class TestLinearEquiv:
    def test_witness_shift(self, rng, theta_cx):
        d = random_divisor(rng, theta_cx)
        w = random_witness(rng, theta_cx)
        assert linear_equiv(theta_cx, d, d + w.divisor())

    def test_distinct_degrees(self, theta_cx):
        o = theta_cx.oracles["u"]
        d1 = theta_cx.divisor(curve_parts={"u": o.divisor((INF, 1))})
        d2 = theta_cx.divisor(curve_parts={"u": o.divisor((INF, 2))})
        assert not linear_equiv(theta_cx, d1, d2)

    def test_tree_effective_divisors_of_equal_degree(self):
        model = segment_model()
        cx = as_trivial_complex(model)
        u, w = cx.oracles["a" if "a" in cx.oracles else "v0"], None
        ou = cx.oracles["v0"]
        ow = cx.oracles["w"]
        d1 = cx.divisor(curve_parts={"v0": ou.divisor((INF, 2))})
        d2 = cx.divisor(
            curve_parts={
                "v0": ou.divisor((QQ.elem(5), 1)),
                "w": ow.divisor((QQ.elem(7), 1)),
            }
        )
        assert linear_equiv(cx, d1, d2)


class TestAudits:
    def test_rr_zero_divisor(self, theta_cx):
        rep = rr_audit(theta_cx, theta_cx.zero_divisor())
        assert rep.passed()
        assert rep.data["rhs"] == theta_cx.genus() - 1

    def test_rr_canonical_symmetry(self, theta_cx):
        assert rr_audit(theta_cx, theta_cx.canonical()).passed()

    def test_rr_fuzz(self, rng):
        for _ in range(10):
            cx = random_complex(rng)
            d = random_divisor(rng, cx, deg_lo=-4, deg_hi=5)
            assert rr_audit(cx, d).passed()

    def test_clifford_zero(self, theta_cx):
        rep = clifford_audit(theta_cx, theta_cx.zero_divisor())
        assert rep.passed() and rep.data["special"]

    def test_clifford_canonical_equality(self, theta_cx):
        rep = clifford_audit(theta_cx, theta_cx.canonical())
        assert rep.passed()
        assert 2 * rep.data["rank"] == rep.data["deg"]

    def test_clifford_not_special_reported(self, theta_cx):
        o = theta_cx.oracles["u"]
        big = theta_cx.divisor(curve_parts={"u": o.divisor((INF, 5))})
        rep = clifford_audit(theta_cx, big)
        assert not rep.data["special"]


class TestModerators:
    def test_single_edge_formula(self):
        model = segment_model()
        cx = as_trivial_complex(model)
        pi = next(enumerate_acyclic_orientations(model, "v0"))
        # choose the non-special parts away from the marked points so the
        # two contributions stay visible
        parts = {}
        for v in cx.oracle_vertices():
            o = cx.oracles[v]
            q = o.sample_points(1, avoid=cx.marks[v].values())[0]
            parts[v] = o.divisor((q, -1))
        m = moderator(cx, pi, parts)
        assert m.degree() == cx.genus() - 1 == -1
        # the vertex firing away from the sink carries its bridge mark
        away = m.curve_part("w")
        assert away.get(cx.marked_point("w", "e", 1)) == 1
        assert away.degree() == 0
        assert m.curve_part("v0").degree() == -1

    def test_theta_moderator_degree(self):
        cx = as_trivial_complex(theta_model())
        pools = nonspecial_pools(cx)
        pi = next(enumerate_acyclic_orientations(cx.model, "u"))
        parts = {
            v: next(iter(cx.oracles[v].minimal_nonspecial_sample(pools[v])))
            for v in cx.oracle_vertices()
        }
        m = moderator(cx, pi, parts)
        assert m.degree() == 1

    def test_moderators_have_rank_minus_one_and_dual_canonical(self):
        for cx in (
            as_trivial_complex(theta_model()),
            star_elliptic_complex(),
        ):
            count = 0
            for mod in moderator_sample(cx, per_vertex_cap=2):
                m = mod.divisor()
                assert m.degree() == cx.genus() - 1
                assert rank(cx, m) == -1
                dual = mod.dual()
                dd = dual.divisor()
                assert dd.degree() == cx.genus() - 1
                assert linear_equiv(cx, m + dd, cx.canonical())
                assert dual.dual().divisor() == m
                count += 1
                if count >= 6:
                    break
            assert count > 0

    def test_bad_part_rejected(self):
        cx = as_trivial_complex(theta_model())
        pi = next(enumerate_acyclic_orientations(cx.model, "u"))
        o = cx.oracles["u"]
        with pytest.raises(InputError):
            Moderator(cx, pi, {"u": o.divisor((INF, 1)), "v": o.divisor((INF, -1))})


class TestNonspecialBound:
    def test_single_p1(self):
        cx = single_vertex_complex(P1Oracle(QQ))
        o = cx.oracles["s"]
        p = QQ.elem(0)
        d = cx.divisor(curve_parts={"s": o.divisor((p, 2))})
        sample = [cx.divisor(curve_parts={"s": o.divisor((p, -1))})]
        assert rank_bound_from_nonspecial(cx, d, sample) == 2 == rank(cx, d)

    def test_bound_at_member(self):
        cx = single_vertex_complex(EllipticOracle(5, 1, 1))
        o = cx.oracles["s"]
        pts = o.sample_points(3)
        n = cx.divisor(curve_parts={"s": o.divisor((pts[1], 1), (pts[2], -1))})
        assert rank_bound_from_nonspecial(cx, n, [n]) == -1
        assert rank(cx, n) == -1

    def test_bound_dominates_rank(self, rng):
        for _ in range(8):
            cx = random_complex(rng)
            if not cx.oracle_vertices():
                continue
            d = random_divisor(rng, cx, deg_lo=-2, deg_hi=4)
            sample = list(itertools.islice(moderator_sample(cx, per_vertex_cap=2), 12))
            if not sample:
                continue
            assert rank_bound_from_nonspecial(cx, d, sample) >= rank(cx, d)


class TestCombinatorialRank:
    def two_lines(self):
        return regularize(
            NodalCurveDescription(
                {"Y": P1Oracle(QQ), "Z": P1Oracle(QQ)},
                [("Y", QQ.elem(0), "Z", QQ.elem(0))],
            )
        )

    def test_compact_type_degree(self):
        cx = self.two_lines()
        o = cx.oracles["Y"]
        for d in range(3):
            div = cx.divisor(curve_parts={"Y": o.divisor((QQ.elem(1), d))})
            assert combinatorial_rank(cx, div) == d
            assert rank(cx, div, audit=True) == d

    def test_elliptic_line_nonspecial(self):
        desc = NodalCurveDescription(
            {"E": EllipticOracle(5, 1, 1), "Z": P1Oracle(PrimeField(5))},
            [("E", O_POINT, "Z", PrimeField(5).elem(0))],
        )
        cx = regularize(desc)
        oe = cx.oracles["E"]
        pts = oe.sample_points(3)
        p = pts[1] if pts[1] is not O_POINT else pts[2]
        d = cx.divisor(curve_parts={"E": oe.divisor((p, 1), (O_POINT, -1))})
        assert combinatorial_rank(cx, d) == -1
        assert rank(cx, d) == -1

    def test_matches_rank_on_random_regularizations(self, rng):
        field = PrimeField(7)
        comps = {
            "A": P1Oracle(field),
            "B": EllipticOracle(7, 2, 3),
        }
        desc = NodalCurveDescription(
            comps, [("A", field.elem(0), "B", O_POINT)]
        )
        cx = regularize(desc)
        for _ in range(6):
            d = random_divisor(rng, cx, deg_lo=-2, deg_hi=3)
            if d.graph.coeffs:
                continue
            assert combinatorial_rank(cx, d) == rank(cx, d)

    def test_unit_length_required(self):
        model = GraphModel(["a", "b"], [("e", "a", "b", Fraction(1, 2))])
        cx = as_trivial_complex(model)
        with pytest.raises(InputError):
            combinatorial_rank(cx, cx.zero_divisor())


class TestWeierstrass:
    def test_genus_zero_rejected(self):
        cx = single_vertex_complex(P1Oracle(QQ))
        with pytest.raises(InputError):
            is_weierstrass(cx, ("s", QQ.elem(0)))

    def test_theta_midpoint(self):
        model = theta_model()
        cx = graphical_complex(model)
        m = model.point_on("e1", Fraction(1, 2))
        assert is_weierstrass(cx, m)
        assert not is_weierstrass(cx, model.vertex_point("u"))

    def test_every_high_genus_complex_has_one(self):
        for cx in (
            graphical_complex(theta_model()),
            star_elliptic_complex(),
        ):
            assert find_weierstrass(cx) is not None


class TestNoHiddenState:
    """Operations add no attribute to the objects they are given; the memo
    tables they fill are declared by the constructors."""

    def test_rank_and_nonneg_rank_keep_complex_attributes(self):
        cx = as_trivial_complex(theta_model())
        before = set(vars(cx))
        k = cx.canonical()
        chip = point_divisor(cx, cx.model.point_on("e1", Fraction(1, 2)))
        assert rank(cx, k) == 1
        assert rank(cx, k + k) == 2  # above 2g - 2: the validated shortcut
        assert nonneg_rank(cx, k - chip)
        assert cx.nonneg_memo and cx.shortcut_validated
        assert set(vars(cx)) == before

    def test_subspace_meets_keeps_space_attributes(self):
        o = P1Oracle(QQ)
        t = Poly.x(QQ)
        space = FunctionSpace(o, [RationalFunc.make(Poly.const(QQ, 1), Poly.const(QQ, 1)),
                                  RationalFunc.make(t, Poly.const(QQ, 1))])
        before = set(vars(space))
        assert space.subspace_meets(o.divisor((INF, 1)))
        assert not space.subspace_meets(o.divisor((INF, -1)))
        assert len(space.meets_memo) == 2
        assert set(vars(space)) == before

    def test_weighted_rank_keeps_model_attributes(self):
        model = GraphModel(["a", "b"], [("e", "a", "b", 1)])
        wg = WeightedGraph(model, {"a": 1})
        before = set(vars(model))
        d = GraphDivisor.of((model.vertex_point("a"), 2))
        assert weighted_rank(wg, d) == graph_rank(model, d) - 1
        assert set(vars(model)) == before
