"""Metric graphs: models, refinements, PL functions, orientations."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcdiv.errors import InputError
from mcdiv.metric import (
    GraphDivisor,
    GraphModel,
    PLFunction,
    enumerate_acyclic_orientations,
)

from conftest import circle_model, segment_model, theta_model


class TestModels:
    def test_tree_betti(self):
        g = GraphModel(
            ["a", "b", "c", "d"],
            [("e1", "a", "b", 1), ("e2", "b", "c", 1), ("e3", "b", "d", 1)],
        )
        assert g.first_betti() == 0

    def test_theta_betti(self):
        assert theta_model().first_betti() == 2

    def test_two_loops_betti(self):
        g = GraphModel(["a"], [("l1", "a", "a", 1), ("l2", "a", "a", 1)])
        assert len(g.vertices) == 3 and len(g.edges) == 4
        assert g.first_betti() == 2

    def test_disconnected_rejected(self):
        with pytest.raises(InputError):
            GraphModel(["a", "b"], [])

    def test_negative_length_rejected(self):
        with pytest.raises(InputError):
            GraphModel(["a", "b"], [("e", "a", "b", -1)])

    def test_point_normalization(self):
        g = segment_model()
        assert g.point_on("e", 0) == g.vertex_point("v0")
        assert g.point_on("e", 1) == g.vertex_point("w")
        assert g.point_on("e", Fraction(1, 2)).kind == "e"


class TestRefine:
    def test_refine_at_vertex_is_identity(self):
        g = segment_model()
        ref = g.refinement([g.vertex_point("v0")])
        assert len(ref.redges) == 1

    def test_refine_halves(self):
        g = segment_model()
        ref = g.refinement([g.point_on("e", Fraction(1, 2))])
        assert len(ref.redges) == 2
        assert all(re.length == Fraction(1, 2) for re in ref.redges)

    def test_loop_normalization_is_midpoint_refinement(self):
        g = circle_model(2)
        assert sorted(g.edges) == ["loop~a", "loop~b"]
        assert all(e.length == 1 for e in g.edges.values())

    @settings(max_examples=25)
    @given(st.integers(1, 7), st.integers(1, 7))
    def test_refine_preserves_distance(self, num, den):
        g = theta_model()
        off = Fraction(num, num + den)
        p = g.point_on("e1", off)
        q = g.vertex_point("v")
        base = g.distance(p, q)
        # distances computed through an unrelated refinement agree
        ref_pts = [g.point_on("e2", Fraction(1, 3)), g.point_on("e3", Fraction(5, 7))]
        g2 = GraphModel(
            list(g.vertices),
            [(n, e.u, e.v, e.length) for n, e in g.edges.items()],
        )
        assert g2.distance(g2.point_on("e1", off), g2.vertex_point("v")) == base
        assert base == min(1 - off, off + 1)


class TestPLFunctions:
    def test_constant_divisor_empty(self):
        f = PLFunction.constant(theta_model())
        assert f.divisor() == GraphDivisor()

    def test_single_slope(self):
        g = segment_model()
        ref = g.refinement()
        f = PLFunction(ref, {g.vertex_point("v0"): Fraction(0), g.vertex_point("w"): Fraction(-1)})
        d = f.divisor()
        assert d.get(g.vertex_point("v0")) == -1
        assert d.get(g.vertex_point("w")) == 1
        assert d.degree() == 0

    def test_tent(self):
        g = segment_model()
        mid = g.point_on("e", Fraction(1, 2))
        ref = g.refinement([mid])
        f = PLFunction(
            ref,
            {g.vertex_point("v0"): Fraction(0), g.vertex_point("w"): Fraction(0), mid: Fraction(-1, 2)},
        )
        d = f.divisor()
        assert d.get(mid) == 2
        assert d.get(g.vertex_point("v0")) == -1
        assert d.get(g.vertex_point("w")) == -1

    def test_non_integer_slope_rejected(self):
        g = segment_model()
        ref = g.refinement()
        with pytest.raises(InputError):
            PLFunction(ref, {g.vertex_point("v0"): Fraction(0), g.vertex_point("w"): Fraction(1, 2)})

    def test_addition_and_degree_zero(self):
        g = theta_model()
        rng = random.Random(5)
        fs = []
        for k in range(2):
            name = rng.choice(sorted(g.edges))
            e = g.edges[name]
            apex = g.point_on(name, e.length / 2)
            ref = g.refinement([apex])
            vals = {n: Fraction(0) for n in ref.nodes}
            vals[apex] = -e.length / 2 * (k + 1)
            fs.append(PLFunction(ref, vals))
        total = fs[0] + fs[1]
        assert total.divisor() == fs[0].divisor() + fs[1].divisor()
        assert total.divisor().degree() == 0


class TestOrientations:
    def test_single_edge(self):
        g = segment_model()
        pis = list(enumerate_acyclic_orientations(g, "v0"))
        assert len(pis) == 1
        assert pis[0].deg_plus("v0") == 0 and pis[0].deg_plus("w") == 1

    def test_triangle_two_with_sink(self):
        g = GraphModel(
            ["u", "v", "w"],
            [("a", "u", "v", 1), ("b", "v", "w", 1), ("c", "w", "u", 1)],
        )
        assert len(list(enumerate_acyclic_orientations(g, "u"))) == 2
        assert len(list(enumerate_acyclic_orientations(g))) == 6

    def test_theta_unique(self):
        pis = list(enumerate_acyclic_orientations(theta_model(), "u"))
        assert len(pis) == 1
        assert all(pis[0].head(e) == "u" for e in ("e1", "e2", "e3"))

    def test_every_orientation_has_unique_sink_at_target(self):
        g = theta_model()
        for pi in enumerate_acyclic_orientations(g, "v"):
            sinks = [v for v in g.vertices if pi.deg_plus(v) == 0]
            assert sinks == ["v"]

    def test_reversal_is_involution(self):
        g = theta_model()
        pi = next(enumerate_acyclic_orientations(g, "u"))
        assert pi.reversed().reversed().as_dict() == pi.as_dict()
