"""Metric graphs: models, refinements, PL functions, orientations."""

import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import mcdiv

from mcdiv.errors import InputError
from mcdiv.metric import (
    GraphDivisor,
    GraphModel,
    GraphPoint,
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

    # a loop e splits into e~a and e~b; a user edge of either name is refused
    # whichever comes first, so it never silently disappears, and so is a
    # second edge named e after the loop
    LOOP_AND_HALF = [("f", "u", "v", 1), ("e~a", "u", "v", 1), ("e", "u", "u", 1)]

    @pytest.mark.parametrize("edges, message", [
        (LOOP_AND_HALF, "loop e: its split half collides with edge e~a"),
        (LOOP_AND_HALF[::-1], "duplicate edge name e~a"),
        ([("e~b", "u", "v", 1), ("e", "u", "u", 1)], "loop e: its split half collides with edge e~b"),
        ([("e", "u", "u", 1), ("e", "u", "v", 1)], "duplicate edge name e"),
        ([("e", "u", "u", 1), ("e", "u", "u", 1)], "duplicate edge name e"),
    ], ids=["half-first", "loop-first", "second-half", "loop-then-edge", "two-loops"])
    def test_loop_split_never_overwrites_an_edge(self, edges, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            GraphModel(["u", "v"], edges)

    def test_bracket_in_vertex_name_rejected(self):
        """A vertex "e[1/2]" would print like the midpoint of edge e."""
        with pytest.raises(InputError, match="may not contain"):
            GraphModel(["a", "e[1/2]"], [("e", "a", "e[1/2]", 1)])

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

    def test_equal_points_hash_alike(self):
        g = segment_model(2)
        pairs = [
            (g.point_on("e", Fraction(2, 4)), GraphPoint("e", "e", Fraction(1, 2))),
            (GraphPoint("e", "e", 1), GraphPoint("e", "e", Fraction(1))),
            (GraphPoint("v", "a"), GraphPoint("v", "a", 0)),
        ]
        for p, q in pairs:
            assert p == q and hash(p) == hash(q)
            assert len({p, q}) == 1

    @given(st.sampled_from("ve"), st.text(max_size=3),
           st.integers(-9, 9) | st.fractions(max_denominator=12))
    def test_hash_is_the_value_formula(self, kind, where, offset):
        p = GraphPoint(kind, where, offset)
        f = Fraction(offset)
        alike = [GraphPoint(kind, where, f), GraphPoint(kind, where, Fraction(f.numerator * 3, f.denominator * 3))]
        if f.denominator == 1:
            alike.append(GraphPoint(kind, where, f.numerator))
        for q in alike:
            assert p == q and hash(p) == hash(q)
        assert hash(p) == hash((kind, where, f.numerator, f.denominator))


class TestPointTables:
    """A model builds one point per vertex; every vertex point it hands out
    is that object."""

    MODELS = [segment_model, theta_model, circle_model,
              lambda: GraphModel(["a", "b"], [("e", "a", "b", 2), ("f", "b", "a", 1), ("l", "a", "a", 3)])]

    @pytest.mark.parametrize("make", MODELS)
    def test_vertex_point_is_one_object(self, make):
        g = make()
        for v in g.vertices:
            assert g.vertex_point(v) is g.vertex_point(v)
            assert g.vertex_point(v) == GraphPoint("v", v)

    @pytest.mark.parametrize("make", MODELS)
    def test_edge_ends_are_the_vertex_points(self, make):
        g = make()
        for name, e in g.edges.items():
            assert g.point_on(name, 0) is g.vertex_point(e.u)
            assert g.point_on(name, e.length) is g.vertex_point(e.v)
            assert g.point_on(name, Fraction(0)) is g.vertex_point(e.u)

    @pytest.mark.parametrize("make", MODELS)
    def test_refinements_use_the_vertex_points(self, make):
        g = make()
        inner = [g.point_on(n, e.length * Fraction(k, 3)) for n, e in g.edges.items() for k in (1, 2)]
        for extra in ([], inner, inner[::3], [*inner, *map(g.vertex_point, g.vertices)]):
            ref = g.refinement(extra)
            ends = [p for re in ref.redges for p in re.ends]
            for p in [*ref.nodes, *ends, *ref.adj]:
                if p.kind == "v":
                    assert p is g.vertex_point(p.where)

    def test_pickled_point_rehashes_under_another_hash_seed(self):
        # str hashes differ between processes, so a point loaded elsewhere
        # must hash by its own process's formula to be found in a set
        src = str(Path(mcdiv.__file__).resolve().parents[1])
        build = ("from fractions import Fraction\n"
                 "from mcdiv.metric import GraphModel\n"
                 "g = GraphModel(['alpha', 'beta'], [('edge', 'alpha', 'beta', 3)])\n"
                 "pts = [g.vertex_point('alpha'), g.vertex_point('beta'), g.point_on('edge', Fraction(1, 3))]\n")
        load = build + ("import pickle, sys\n"
                        "old = pickle.loads(sys.stdin.buffer.read())\n"
                        "assert old == pts and all(p in set(pts) for p in old)\n"
                        "assert all(hash(p) == hash((p.kind, p.where, p.offset.numerator, p.offset.denominator)) for p in old)\n"
                        "print('found')\n")

        def run(code, seed, data=b""):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            return subprocess.run([sys.executable, "-c", code], input=data, env=env,
                                  capture_output=True, check=True).stdout

        data = run(build + "import pickle, sys\nsys.stdout.buffer.write(pickle.dumps(pts))\n", "1")
        assert run(load, "2", data).strip() == b"found"
        assert pickle.loads(data)[0] == GraphPoint("v", "alpha")


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

    @pytest.mark.parametrize("point", [
        GraphPoint("e", "nope", Fraction(1, 2)),
        GraphPoint("e", "e", Fraction(0)),
        GraphPoint("e", "e", Fraction(1)),
        GraphPoint("e", "e", Fraction(-1, 2)),
        GraphPoint("e", "e", Fraction(3, 2)),
    ])
    def test_refine_rejects_points_off_the_edges(self, point):
        with pytest.raises(InputError):
            segment_model().refinement([point])

    def test_loop_normalization_is_midpoint_refinement(self):
        g = circle_model(2)
        assert sorted(g.edges) == ["loop~a", "loop~b"]
        assert all(e.length == 1 for e in g.edges.values())


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

        def depth(k, ell, x):
            # two tents of slope k + 1 down to the middle of the edge, then a
            # trough of slope 1 down to a flat middle half
            return -(k + 1) * min(x, ell - x) if k < 2 else -min(x, ell / 4, ell - x)

        fs, names = [], []
        for k in range(3):
            name = rng.choice(sorted(g.edges))
            names.append(name)
            ell = g.edges[name].length
            offs = [ell / 2] if k < 2 else [ell / 4, 3 * ell / 4]
            ref = g.refinement([g.point_on(name, x) for x in offs])
            vals = {n: Fraction(0) for n in ref.nodes}
            for x in offs:
                vals[g.point_on(name, x)] = depth(k, ell, x)
            fs.append(PLFunction(ref, vals))
        total = fs[0] + fs[1]
        assert total.divisor() == fs[0].divisor() + fs[1].divisor()
        assert total.divisor().degree() == 0
        # one sum on the common refinement equals the left fold of +
        folded = fs[0] + fs[1] + fs[2]
        summed = PLFunction.sum(g, fs)
        assert summed.ref.nodes == folded.ref.nodes
        assert summed.values == folded.values
        assert summed.divisor() == folded.divisor()
        for n, v in summed.values.items():
            assert v == sum(depth(k, g.edges[name].length, n.offset)
                            for k, name in enumerate(names) if n.where == name)


class TestOrientations:
    def test_single_edge(self):
        g = segment_model()
        pis = list(enumerate_acyclic_orientations(g))
        assert sorted((pi.deg_plus("v0"), pi.deg_plus("w")) for pi in pis) == [(0, 1), (1, 0)]

    def test_triangle_two_with_sink(self):
        g = GraphModel(
            ["u", "v", "w"],
            [("a", "u", "v", 1), ("b", "v", "w", 1), ("c", "w", "u", 1)],
        )
        assert len(list(enumerate_acyclic_orientations(g))) == 6

    def test_theta_unique(self):
        pis = list(enumerate_acyclic_orientations(theta_model()))
        assert len(pis) == 2
        into_u = [pi for pi in pis if pi.deg_plus("u") == 0]
        assert len(into_u) == 1
        assert all(into_u[0].tail(e) == "v" for e in ("e1", "e2", "e3"))

    def test_reversal_is_involution(self):
        g = theta_model()
        pi = next(enumerate_acyclic_orientations(g))
        assert pi.reversed().reversed().as_dict() == pi.as_dict()
