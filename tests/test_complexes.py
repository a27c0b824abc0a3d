"""Metrized complexes: genus, divisors of rational functions, chip-firing
moves, canonical class, regularization."""

from fractions import Fraction

import pytest

from mcdiv.complexes import (
    ComplexRationalFunction,
    MetrizedComplex,
    NodalCurveDescription,
    as_trivial_complex,
    move_fire_interior,
    move_fire_vertex,
    move_swap_curve_part,
    regularize,
)
from mcdiv.curves import EllipticOracle, O_POINT, P1Oracle
from mcdiv.errors import InputError
from mcdiv.exact import INF, PrimeField, QQ
from mcdiv.metric import GraphDivisor, GraphModel, PLFunction

from conftest import (
    random_complex,
    random_divisor,
    random_witness,
    single_vertex_complex,
    star_elliptic_complex,
    theta_model,
)


def trivial_theta():
    return as_trivial_complex(theta_model())


class TestStructure:
    def test_genus_no_edges(self):
        cx = single_vertex_complex(P1Oracle(QQ))
        assert cx.genus() == 0

    def test_genus_theta(self):
        assert trivial_theta().genus() == 2

    def test_genus_star(self):
        assert star_elliptic_complex().genus() == 3

    def test_marks_must_biject(self):
        g = theta_model()
        with pytest.raises(InputError):
            MetrizedComplex(g, {"u": P1Oracle(QQ)}, {"u": {("e1", 0): QQ.elem(0)}})

    def test_marks_must_be_distinct(self):
        g = theta_model()
        marks = {
            "u": {("e1", 0): QQ.elem(0), ("e2", 0): QQ.elem(0), ("e3", 0): QQ.elem(1)}
        }
        with pytest.raises(InputError):
            MetrizedComplex(g, {"u": P1Oracle(QQ)}, marks)

    def test_divisor_degree_and_gamma_part(self):
        cx = trivial_theta()
        o = cx.oracles["u"]
        d = cx.divisor(
            graph_pairs=[(cx.model.point_on("e1", Fraction(1, 2)), 2)],
            curve_parts={"u": o.divisor((INF, 3))},
        )
        assert d.degree() == 5
        gp = d.gamma_part()
        assert gp.get(cx.model.vertex_point("u")) == 3


class TestDivOf:
    def test_trivial_function(self):
        cx = trivial_theta()
        f = ComplexRationalFunction(cx, PLFunction.constant(cx.model), {})
        assert f.divisor() == cx.zero_divisor()

    def test_tent_reproduces_interior_move(self):
        cx = trivial_theta()
        p = cx.model.point_on("e1", Fraction(1, 2))
        d0 = cx.divisor(graph_pairs=[(p, 2)])
        d1, wit = move_fire_interior(cx, d0, p, Fraction(1, 4))
        assert d1.degree() == 2
        assert d1.graph.get(p) == 0
        assert d0 + wit.divisor() == d1

    def test_slope_into_vertex_lands_on_marked_point(self):
        g = GraphModel(["a", "b"], [("e", "a", "b", 1)])
        cx = as_trivial_complex(g)
        ref = cx.model.refinement()
        vals = {
            cx.model.vertex_point("a"): Fraction(1),
            cx.model.vertex_point("b"): Fraction(0),
        }
        f = PLFunction(ref, vals)  # slope -1 leaving a along e
        wit = ComplexRationalFunction(cx, f, {})
        d = wit.divisor()
        assert d.curve_part("a").get(cx.marked_point("a", "e", 0)) == -1
        assert d.curve_part("b").get(cx.marked_point("b", "e", 1)) == 1
        assert d.degree() == 0

    def test_witness_not_principal_rejected(self):
        cx = star_elliptic_complex()
        o = cx.oracles["l1"]
        pts = o.sample_points(2)
        bad = o.divisor((pts[1], 1), (O_POINT, -1))
        with pytest.raises(InputError):
            ComplexRationalFunction(cx, PLFunction.constant(cx.model), {"l1": bad})

    def test_random_witness_degree_zero(self, rng):
        for _ in range(25):
            cx = random_complex(rng)
            w = random_witness(rng, cx)
            assert w.divisor().degree() == 0


class TestMoves:
    def test_swap_preserves_gamma(self):
        cx = trivial_theta()
        o = cx.oracles["u"]
        d = cx.divisor(curve_parts={"u": o.divisor((o.field.elem(7), 1))})
        d2, wit = move_swap_curve_part(cx, d, "u", o.divisor((INF, 1)))
        assert d2.gamma_part() == d.gamma_part()
        assert d + wit.divisor() == d2

    def test_swap_requires_same_class(self):
        cx = trivial_theta()
        o = cx.oracles["u"]
        d = cx.divisor(curve_parts={"u": o.divisor((INF, 1))})
        with pytest.raises(InputError):
            move_swap_curve_part(cx, d, "u", o.divisor((INF, 2)))

    def test_fire_vertex(self):
        cx = trivial_theta()
        o = cx.oracles["u"]
        d = cx.divisor(curve_parts={"u": cx.marked_divisor("u")})
        d2, wit = move_fire_vertex(cx, d, "u", Fraction(1, 2))
        assert d2.curve_part("u").coeffs == {}
        for name in ("e1", "e2", "e3"):
            assert d2.graph.get(cx.model.point_on(name, Fraction(1, 2))) == 1
        assert d + wit.divisor() == d2

    def test_fire_vertex_eps_bounds(self):
        cx = trivial_theta()
        with pytest.raises(InputError):
            move_fire_vertex(cx, cx.zero_divisor(), "u", Fraction(3, 2))

    def test_moves_compose(self, rng):
        cx = trivial_theta()
        d = random_divisor(rng, cx)
        total = cx.zero_divisor()
        cur = d
        for _ in range(3):
            w = random_witness(rng, cx)
            cur = cur + w.divisor()
            total = total + w.divisor()
        assert cur == d + total


class TestCanonical:
    def test_theta_canonical(self):
        cx = trivial_theta()
        k = cx.canonical()
        assert k.degree() == 2
        gp = k.gamma_part()
        assert gp.get(cx.model.vertex_point("u")) == 1
        assert gp.get(cx.model.vertex_point("v")) == 1

    def test_single_elliptic_canonical_zero(self):
        cx = single_vertex_complex(EllipticOracle(5, 1, 1))
        assert cx.canonical() == cx.zero_divisor()

    def test_star_degree(self):
        cx = star_elliptic_complex()
        assert cx.canonical().degree() == 2 * cx.genus() - 2 == 4

    def test_degree_formula_on_fuzz(self, rng):
        for _ in range(20):
            cx = random_complex(rng)
            assert cx.canonical().degree() == 2 * cx.genus() - 2


class TestRegularize:
    def test_two_lines_one_node(self):
        desc = NodalCurveDescription(
            {"Y": P1Oracle(QQ), "Z": P1Oracle(QQ)},
            [("Y", QQ.elem(0), "Z", QQ.elem(0))],
        )
        cx = regularize(desc)
        assert list(cx.model.edges) == ["n0"]
        assert cx.model.edges["n0"].length == 1
        assert cx.genus() == 0

    def test_self_node_normalized(self):
        desc = NodalCurveDescription(
            {"Y": P1Oracle(QQ)}, [("Y", QQ.elem(0), "Y", QQ.elem(1))]
        )
        cx = regularize(desc)
        assert cx.genus() == 1
        assert "n0~mid" in cx.model.vertices
        assert not cx.is_oracle_vertex("n0~mid")

    def test_chain_of_three(self):
        desc = NodalCurveDescription(
            {"A": P1Oracle(QQ), "B": P1Oracle(QQ), "C": P1Oracle(QQ)},
            [("A", QQ.elem(0), "B", QQ.elem(0)), ("B", QQ.elem(1), "C", QQ.elem(0))],
        )
        cx = regularize(desc)
        assert cx.model.first_betti() == 0
        assert cx.genus() == 0

    def test_repeated_branch_point_rejected(self):
        desc = NodalCurveDescription(
            {"A": P1Oracle(QQ), "B": P1Oracle(QQ), "C": P1Oracle(QQ)},
            [("A", QQ.elem(0), "B", QQ.elem(0)), ("B", QQ.elem(0), "C", QQ.elem(0))],
        )
        with pytest.raises(InputError):
            regularize(desc)


class TestTrivialComplex:
    def test_path_becomes_chain(self):
        g = GraphModel(["a", "b"], [("e", "a", "b", 1)])
        cx = as_trivial_complex(g)
        assert cx.genus() == 0
        assert all(cx.is_oracle_vertex(v) for v in g.vertices)

    def test_theta_marks(self):
        cx = trivial_theta()
        assert len(cx.marks["u"]) == 3

    def test_genus_preserved(self, rng):
        for _ in range(10):
            cx0 = random_complex(rng)
            model = cx0.model
            cx = as_trivial_complex(model)
            assert cx.genus() == model.first_betti()

    def test_small_field_error_names_count(self):
        g = GraphModel(
            ["a", "b"],
            [("e1", "a", "b", 1), ("e2", "a", "b", 1), ("e3", "a", "b", 1)],
        )
        with pytest.raises(InputError, match="4"):
            as_trivial_complex(g, PrimeField(2))

    def test_lift_divisor(self):
        cx = trivial_theta()
        g = cx.model
        d = GraphDivisor.of((g.vertex_point("u"), 2), (g.point_on("e1", Fraction(1, 3)), 1))
        lifted = cx.lift_graph_divisor(d)
        assert lifted.degree() == 3
        assert lifted.curve_part("u").degree() == 2

    def test_lift_point_is_stable_and_stores_nothing(self):
        cx = star_elliptic_complex()
        before = dict(cx.lift_points)
        first = cx.lift_point("c")
        assert cx.lift_point("c") == first
        assert first not in cx.marks["c"].values()
        assert cx.lift_points == before
