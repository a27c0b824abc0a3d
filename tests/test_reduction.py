"""Burning, saturated cuts, cut firing, and base-point reduction."""

import itertools
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcdiv import metric, reduction
from mcdiv.complexes import MetrizedComplex, as_trivial_complex, graphical_complex
from mcdiv.curves import CurveDivisor, EllipticOracle, O_POINT, P1Oracle
from mcdiv.errors import BudgetError, InputError, McdivError
from mcdiv.exact import PrimeField
from mcdiv.io import parse_document
from mcdiv.metric import GraphModel, GraphPoint, PLFunction, REdge, Refinement
from mcdiv.rank import linear_equiv, nonneg_rank, rank
from mcdiv.reduction import burn, check_saturated, fire_cut, reduce_divisor

from conftest import (
    random_complex,
    random_divisor,
    random_witness,
    segment_model,
    star_elliptic_complex,
    theta_model,
)


@pytest.fixture
def segment():
    model = segment_model()
    return graphical_complex(model), model


class TestBurn:
    def test_chip_at_base_all_burnt(self, segment):
        cx, g = segment
        v0 = g.vertex_point("v0")
        assert burn(cx, cx.divisor(graph_pairs=[(v0, 1)]), v0) is None

    def test_interior_chip_blocks(self, segment):
        cx, g = segment
        v0 = g.vertex_point("v0")
        m = g.point_on("e", Fraction(1, 2))
        cut = burn(cx, cx.divisor(graph_pairs=[(m, 1)]), v0)
        assert cut is not None
        assert cut.nodes == {m, g.vertex_point("w")}
        assert {x: len(s) for x, s in cut.fronts.items()} == {m: 1}
        assert check_saturated(cx, cx.divisor(graph_pairs=[(m, 1)]), cut)

    def test_elliptic_vertex_burns_on_nonprincipal_remainder(self):
        # one edge between a projective line and a genus-one vertex;
        # remainder (P)-(Q) after removing the burnt marked point has
        # rank -1, so the vertex burns
        field = PrimeField(5)
        model = GraphModel(["a", "b"], [("e", "a", "b", 1)])
        p1 = P1Oracle(field)
        ell = EllipticOracle(5, 1, 1)
        pts = ell.sample_points(3)
        marks = {"a": {("e", 0): field.elem(0)}, "b": {("e", 1): O_POINT}}
        cx_ = type(as_trivial_complex(model))(model, {"a": p1, "b": ell}, marks)
        d = cx_.divisor(
            curve_parts={
                "b": ell.divisor((pts[1], 1), (pts[2], -1), (O_POINT, 1))
            }
        )
        v0 = model.vertex_point("a")
        assert burn(cx_, d, v0) is None

    def test_elliptic_vertex_withstands_on_effective_class(self):
        field = PrimeField(5)
        model = GraphModel(["a", "b"], [("e", "a", "b", 1)])
        p1 = P1Oracle(field)
        ell = EllipticOracle(5, 1, 1)
        pts = ell.sample_points(3)
        marks = {"a": {("e", 0): field.elem(0)}, "b": {("e", 1): O_POINT}}
        cx_ = type(as_trivial_complex(model))(model, {"a": p1, "b": ell}, marks)
        d = cx_.divisor(curve_parts={"b": ell.divisor((pts[1], 1), (O_POINT, 1))})
        cut = burn(cx_, d, model.vertex_point("a"))
        assert cut is not None
        vb = model.vertex_point("b")
        assert vb in cut.nodes
        # b withstands: the part left after removing the burnt marked
        # point has non-negative rank
        assert reduction._withstands(cx_, d, vb, cut.fronts[vb])
        remainder = d.curve_part("b") - ell.divisor((O_POINT, 1))
        assert ell.curve_rank(remainder) >= 0

    def test_unnormalized_rejected(self, segment):
        cx, g = segment
        m = g.point_on("e", Fraction(1, 2))
        with pytest.raises(InputError):
            burn(cx, cx.divisor(graph_pairs=[(m, -1)]), g.vertex_point("v0"))


def _fire(cx, d, cut, debt_mode):
    """fire_cut in either mode (debt_mode only skips the saturation check,
    so a saturated cut fires the same): the divisor of the move, summed
    alone, is the change of the divisor."""
    d2, mv = fire_cut(cx, d, cut, debt_mode=debt_mode)
    assert d + reduction._witness(cx, [mv]).divisor() == d2
    return d2, mv.eps


@pytest.mark.parametrize("debt_mode", [True, False])
class TestFireCut:
    def test_interior_chip_moves_toward_base(self, segment, debt_mode):
        cx, g = segment
        v0 = g.vertex_point("v0")
        m = g.point_on("e", Fraction(1, 2))
        d = cx.divisor(graph_pairs=[(m, 1)])
        d2, eps = _fire(cx, d, burn(cx, d, v0), debt_mode)
        assert eps == Fraction(1, 2)
        assert d2.graph.get(v0) == 1

    def test_star_vertex_fires_marked_points(self, debt_mode):
        cx = star_elliptic_complex()
        v0 = cx.model.vertex_point("l1")
        d = cx.divisor(curve_parts={"c": cx.marked_divisor("c")})
        cut = burn(cx, d, v0)
        assert cut is not None
        d2, eps = _fire(cx, d, cut, debt_mode)
        assert d2.degree() == d.degree()

    def test_theta_cut_fires_both_slopes(self, debt_mode):
        model = theta_model()
        cx = graphical_complex(model)
        v0 = model.vertex_point("u")
        a = model.point_on("e1", Fraction(1, 4))
        b = model.point_on("e1", Fraction(3, 4))
        d = cx.divisor(graph_pairs=[(a, 1), (b, 1)])
        cut = burn(cx, d, v0)
        assert cut is not None
        assert {x: len(s) for x, s in cut.fronts.items()} == {a: 1, b: 1}
        d2, eps = _fire(cx, d, cut, debt_mode)
        assert d2.graph.get(a) == 0 and d2.graph.get(b) == 0


class TestReduce:
    def test_already_reduced_identity(self, segment):
        cx, g = segment
        v0 = g.vertex_point("v0")
        d = cx.divisor(graph_pairs=[(v0, 2)])
        red, wit = reduce_divisor(cx, d, v0)
        assert red == d
        assert wit.divisor() == cx.zero_divisor()

    def test_segment_chip_arrives(self, segment):
        cx, g = segment
        v0 = g.vertex_point("v0")
        m = g.point_on("e", Fraction(1, 2))
        red, wit = reduce_divisor(cx, cx.divisor(graph_pairs=[(m, 1)]), v0)
        assert red == cx.divisor(graph_pairs=[(v0, 1)])

    def test_debt_cleared(self, segment):
        cx, g = segment
        v0 = g.vertex_point("v0")
        m = g.point_on("e", Fraction(1, 2))
        d = cx.divisor(graph_pairs=[(m, -1), (v0, 2)])
        red, wit = reduce_divisor(cx, d, v0)
        assert red == cx.divisor(graph_pairs=[(v0, 1)])

    def test_curve_debt_transported_across_edge(self):
        field = PrimeField(5)
        model = GraphModel(["a", "b"], [("e", "a", "b", 1)])
        p1 = P1Oracle(field)
        ell = EllipticOracle(5, 1, 1)
        pts = ell.sample_points(3)
        marks = {"a": {("e", 0): field.elem(0)}, "b": {("e", 1): O_POINT}}
        from mcdiv.complexes import MetrizedComplex

        cx = MetrizedComplex(model, {"a": p1, "b": ell}, marks)
        # rank -1 part at b, one spare chip at a
        d = cx.divisor(
            curve_parts={
                "a": p1.divisor((field.elem(1), 1)),
                "b": ell.divisor((pts[1], 1), (pts[2], -1)),
            }
        )
        v0 = model.vertex_point("a")
        red, wit = reduce_divisor(cx, d, v0)
        assert ell.curve_rank(red.curve_part("b")) >= 0
        assert red.degree() == d.degree()

    def test_p1_shifts_stay_divisors(self):
        """The witness carries each projective-line shift as the divisor it
        is, as on every other curve, and the identity still holds."""
        field = PrimeField(5)
        lines = {v: P1Oracle(field) for v in ("a", "b")}
        cx = MetrizedComplex(GraphModel(["a", "b"], [("e", "a", "b", 1)]), lines,
                             {"a": {("e", 0): field.elem(0)}, "b": {("e", 1): field.elem(0)}})
        d = cx.divisor(curve_parts={"b": lines["b"].divisor((field.elem(1), 1), (field.elem(2), 1))})
        red, wit = reduce_divisor(cx, d, cx.model.vertex_point("a"))
        assert wit.witnesses and all(isinstance(w, CurveDivisor) for w in wit.witnesses.values())
        assert all(w.degree() == 0 for w in wit.witnesses.values())
        assert d + wit.divisor() == red

    def test_theta_canonical_properties(self):
        cx = as_trivial_complex(theta_model())
        v0 = cx.model.vertex_point("u")
        k = cx.canonical()
        red, wit = reduce_divisor(cx, k, v0)
        # (i) effective away from the base point
        for p, c in red.graph.coeffs.items():
            if p != v0:
                assert c >= 0
        # (ii) curve parts have non-negative rank away from the base
        for v in cx.oracle_vertices():
            if cx.model.vertex_point(v) != v0:
                assert cx.oracles[v].curve_rank(red.curve_part(v)) >= 0
        # (iii) burning consumes everything
        assert burn(cx, red, v0) is None
        assert k + wit.divisor() == red

    def test_idempotent(self, rng):
        for _ in range(10):
            cx = random_complex(rng)
            d = random_divisor(rng, cx)
            v0 = cx.model.vertex_point(cx.model.vertices[0])
            red, _ = reduce_divisor(cx, d, v0)
            red2, wit2 = reduce_divisor(cx, red, v0)
            assert red2 == red
            assert wit2.divisor() == cx.zero_divisor()

    def test_quasi_uniqueness_under_witness_shift(self, rng):
        for _ in range(12):
            cx = random_complex(rng)
            d = random_divisor(rng, cx)
            w = random_witness(rng, cx)
            v0 = cx.model.vertex_point(cx.model.vertices[-1])
            r1, _ = reduce_divisor(cx, d, v0)
            r2, _ = reduce_divisor(cx, d + w.divisor(), v0)
            assert r1.gamma_part() == r2.gamma_part()
            for v in cx.oracle_vertices():
                assert cx.oracles[v].classes_equal(
                    r1.curve_part(v), r2.curve_part(v)
                )

    def test_interior_base_point(self):
        model = theta_model()
        cx = graphical_complex(model)
        v0 = model.point_on("e2", Fraction(1, 3))
        d = cx.divisor(graph_pairs=[(model.vertex_point("u"), 2)])
        red, wit = reduce_divisor(cx, d, v0)
        assert d + wit.divisor() == red
        assert burn(cx, red, v0) is None


class TestClassicalCrossCheck:
    """The event-driven engine against the classic finite-graph algorithm
    on the unit-subdivided integer rescale."""

    def test_reduce_matches_unit_refinement_oracle(self, rng):
        from classical_oracle import classical_reduce, unit_subdivision

        shapes = [
            segment_model(Fraction(3, 2)),
            theta_model((1, Fraction(1, 2), 2)),
            GraphModel(["a", "b", "c"],
                       [("e1", "a", "b", 1), ("e2", "b", "c", Fraction(1, 2)),
                        ("e3", "c", "a", 1)]),
            GraphModel(["a"], [("l", "a", "a", 2)]),
        ]
        checked = 0
        for _ in range(16):
            model = shapes[rng.randrange(len(shapes))]
            cx = graphical_complex(model)
            sites = [model.vertex_point(v) for v in model.vertices]
            for name, e in sorted(model.edges.items()):
                sites.append(model.point_on(name, e.length / 2))
            coeffs = {}
            for _k in range(rng.randint(1, 3)):
                coeffs[sites[rng.randrange(len(sites))]] = rng.randint(-2, 3)
            d = cx.divisor(graph_pairs=list(coeffs.items()))
            v0 = sites[rng.randrange(len(sites))]
            red, _ = reduce_divisor(cx, d, v0)
            _scale, verts, adj, locate = unit_subdivision(
                model, list(d.graph.support()) + [v0] + sites
            )
            start = {}
            for p, c in d.graph.coeffs.items():
                key = locate(p)
                start[key] = start.get(key, 0) + c
            classical = classical_reduce(verts, adj, start, locate(v0))
            ours = {}
            for p, c in red.graph.coeffs.items():
                ours[locate(p)] = ours.get(locate(p), 0) + c
            theirs = {k: v for k, v in classical.items() if v}
            assert ours == theirs, (
                f"engine {ours} vs classical {theirs} on {d!r} at {v0}"
            )
            checked += 1
        assert checked == 16


class TestReducedRankOracle:
    def test_lemma_conditions_match_brute_force_on_tree(self):
        # on a tree every degree-0 class is trivial: d is equivalent to an
        # effective divisor iff deg >= 0; cross-check the reduced test
        model = segment_model()
        cx = graphical_complex(model)
        v0 = model.vertex_point("v0")
        m = model.point_on("e", Fraction(1, 3))
        w = model.vertex_point("w")
        for coeffs in itertools.product(range(-2, 3), repeat=2):
            d = cx.divisor(graph_pairs=[(m, coeffs[0]), (w, coeffs[1])])
            red, _ = reduce_divisor(cx, d, v0)
            via_lemma = red.graph.get(v0) >= 0
            assert via_lemma == (d.degree() >= 0)

    def test_genus2_nonprincipal_on_theta(self):
        model = theta_model()
        cx = graphical_complex(model)
        v0 = model.vertex_point("u")
        p = model.point_on("e1", Fraction(1, 2))
        q = model.point_on("e2", Fraction(1, 2))
        d = cx.divisor(graph_pairs=[(p, 1), (q, -1)])
        red, _ = reduce_divisor(cx, d, v0)
        assert red.graph.get(v0) < 0


# -- the fast path against the witness path -----------------------------------

_F5 = PrimeField(5)


@st.composite
def small_complexes(draw):
    """A loop at A, a double edge A-B and a tail B-C, with lengths 1/2 to 2
    and each vertex graphical, a projective line or an elliptic curve over F5."""
    lengths = [draw(st.sampled_from([Fraction(1, 2), 1, Fraction(3, 2), 2])) for _ in range(4)]
    model = GraphModel(
        ["A", "B", "C"],
        [("l", "A", "A", lengths[0]), ("m1", "A", "B", lengths[1]),
         ("m2", "A", "B", lengths[2]), ("t", "B", "C", lengths[3])],
    )
    oracles, marks = {}, {}
    for v in ("A", "B", "C"):
        kind = draw(st.sampled_from(["graphical", "p1", "elliptic"]))
        if kind == "graphical":
            continue
        o = P1Oracle(_F5) if kind == "p1" else EllipticOracle(5, 1, 1)
        ends = model.incident_edges(v)
        oracles[v] = o
        marks[v] = {(e.name, end): pt for (e, end), pt in zip(ends, o.sample_points(len(ends)))}
    cx = MetrizedComplex(model, oracles, marks)
    sites = [("g", model.vertex_point(w)) for w in cx.graphical_vertices()]
    for name, e in sorted(model.edges.items()):
        sites += [("g", model.point_on(name, e.length * k)) for k in (Fraction(1, 3), Fraction(1, 2))]
    for v in cx.oracle_vertices():
        sites += [("c", (v, pt)) for pt in cx.oracles[v].sample_points(3)]
    picks = draw(st.lists(st.tuples(st.sampled_from(sites), st.integers(-2, 3)),
                          min_size=1, max_size=3))
    degree = draw(st.integers(-3, 6))
    picks[-1] = (picks[-1][0], degree - sum(c for _, c in picks[:-1]))
    graph, curves = [], {}
    for (kind, where), c in picks:
        if kind == "g":
            graph.append((where, c))
        else:
            v, pt = where
            o = cx.oracles[v]
            curves[v] = curves.get(v, o.zero_divisor()) + o.divisor((pt, c))
    return cx, cx.divisor(graph_pairs=graph, curve_parts=curves)


class TestFastPathAgrees:
    @settings(max_examples=40, deadline=None)
    @given(small_complexes())
    def test_fast_path_equals_witness_path(self, case):
        cx, d = case
        original = reduction.fire_cut

        def checked_fire_cut(cx_, d_, cut, *args, **kwargs):
            d_new, mv = original(cx_, d_, cut, *args, **kwargs)
            assert d_ + reduction._witness(cx_, [mv]).divisor() == d_new
            return d_new, mv

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reduction, "fire_cut", checked_fire_cut)
            for w in cx.model.vertices:
                v0 = cx.model.vertex_point(w)
                fast, none = reduce_divisor(cx, d, v0, want_witness=False)
                slow, wit = reduce_divisor(cx, d, v0, want_witness=True, check_each_step=True)
                assert none is None
                assert fast == slow
                assert d + wit.divisor() == slow


def _move_function(cx, mv):
    """One move as its own PL function: on the cut's refinement plus the
    landing points, 0 on the region and -eps elsewhere."""
    points = [n for n in Refinement(cx.model, mv.cut.points).nodes if n.kind == "e"]
    ref = Refinement(cx.model, points + [land for _x, _re, land in mv.landings])
    return PLFunction(ref, {n: Fraction(0) if n in mv.cut.nodes else -mv.eps for n in ref.nodes})


class TestWitnessSum:
    @settings(max_examples=40, deadline=None)
    @given(small_complexes())
    def test_witness_is_the_sum_of_move_functions(self, case):
        """The witness summed from the move records equals PLFunction.sum of
        one PL function per move: the same nodes and the same values."""
        cx, d = case
        original = reduction.fire_cut
        moves = []

        def recording_fire_cut(*args, **kwargs):
            out = original(*args, **kwargs)
            moves.append(out[1])
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reduction, "fire_cut", recording_fire_cut)
            for w in cx.model.vertices:
                moves.clear()
                _red, wit = reduce_divisor(cx, d, cx.model.vertex_point(w), check_witness=False)
                summed = PLFunction.sum(cx.model, [_move_function(cx, mv) for mv in moves])
                assert wit.f_gamma.ref.nodes == summed.ref.nodes
                assert wit.f_gamma.values == summed.values


def _nonneg_by_full_reduction(cx, d, v0):
    """Reduce all of d at v0 and read v0."""
    if d.degree() < 0:
        return False
    if d.is_effective():
        return True
    red, _ = reduce_divisor(cx, d, v0, want_witness=False)
    if v0.kind == "v" and cx.is_oracle_vertex(v0.where):
        return cx.oracles[v0.where].curve_rank(red.curve_part(v0.where)) >= 0
    return red.graph.get(v0) >= 0


def _equiv_by_two_reductions(cx, d1, d2, v0):
    """Compare the v0-reduced forms: Γ-parts and curve classes."""
    if d1.degree() != d2.degree():
        return False
    r1, _ = reduce_divisor(cx, d1, v0, want_witness=False)
    r2, _ = reduce_divisor(cx, d2, v0, want_witness=False)
    return r1.gamma_part() == r2.gamma_part() and all(
        cx.oracles[v].classes_equal(r1.curve_part(v), r2.curve_part(v))
        for v in cx.oracle_vertices()
    )


def _base_points(cx):
    """Every model vertex and one interior point of the double edge."""
    m1 = cx.model.edges["m1"]
    return [cx.model.vertex_point(w) for w in cx.model.vertices] + [
        cx.model.point_on("m1", m1.length / 2)
    ]


def _chips_at(cx, v0, c):
    """c chips at v0: on the curve at an oracle vertex, else on the graph."""
    if v0.kind == "v" and cx.is_oracle_vertex(v0.where):
        o = cx.oracles[v0.where]
        return cx.divisor(curve_parts={v0.where: o.divisor((o.sample_points(1)[0], c))})
    return cx.divisor(graph_pairs=[(v0, c)])


class TestReducedRestAgrees:
    """nonneg_rank reduces only the part away from the base point; it must
    agree with reducing the whole divisor, and linear_equiv with comparing
    two reduced forms."""

    @settings(max_examples=40, deadline=None)
    @given(small_complexes(), st.integers(-3, 3))
    def test_nonneg_rank_equals_full_reduction(self, case, c):
        cx, d = case
        for v0 in _base_points(cx):
            # the last two differ from d only at v0, so they share the
            # memoized reduction of d
            for e in (d, d + _chips_at(cx, v0, c), d - _chips_at(cx, v0, d.degree())):
                assert nonneg_rank(cx, e, v0) == _nonneg_by_full_reduction(cx, e, v0), (e, v0)

    @settings(max_examples=30, deadline=None)
    @given(small_complexes())
    def test_linear_equiv_equals_two_reductions(self, case):
        cx, d = case
        model = cx.model
        a = model.point_on("m2", model.edges["m2"].length / 3)
        b = model.point_on("t", model.edges["t"].length / 2)
        moved = d + cx.divisor(graph_pairs=[(a, 1), (b, -1)])
        reduced, _ = reduce_divisor(cx, d, model.vertex_point("C"), want_witness=False)
        for v0 in _base_points(cx):
            for d2 in (reduced, moved, moved + moved - d, d + _chips_at(cx, v0, 1)):
                assert linear_equiv(cx, d, d2, v0) == _equiv_by_two_reductions(cx, d, d2, v0)


def _scanned_fronts(cx, cut):
    """The fronts found by scanning every refined segment of the cut's
    refinement, rebuilt from its points: those with exactly one end in the
    region, grouped by that end."""
    out = {}
    for re in Refinement(cx.model, cut.points).redges:
        inside = [x for x in re.ends if x in cut.nodes]
        if len(inside) == 1:
            out.setdefault(inside[0], []).append(re)
    return out


class TestCutFronts:
    """Every cut that burn returns and every debt cut that clear_debt fires
    carries the fronts its builder recorded; they must be exactly the
    segments leaving the region, each with one end in it, at its key."""

    @settings(max_examples=40, deadline=None)
    @given(small_complexes())
    def test_recorded_fronts_equal_a_full_scan(self, case):
        cx, d = case
        cuts = []
        burn_, fire_cut_ = reduction.burn, reduction.fire_cut

        def recording_burn(*args, **kwargs):
            cut = burn_(*args, **kwargs)
            if cut is not None:
                cuts.append(cut)
            return cut

        def recording_fire_cut(cx_, d_, cut, debt_mode=False, **kwargs):
            if debt_mode:
                cuts.append(cut)
            return fire_cut_(cx_, d_, cut, debt_mode=debt_mode, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reduction, "burn", recording_burn)
            mp.setattr(reduction, "fire_cut", recording_fire_cut)
            for v0 in _base_points(cx):
                reduce_divisor(cx, d, v0, want_witness=False)
        for cut in cuts:
            scanned = _scanned_fronts(cx, cut)
            assert set(cut.fronts) == set(scanned)
            for x, segs in cut.fronts.items():
                assert sorted(segs, key=repr) == sorted(scanned[x], key=repr)
                for re in segs:
                    assert sum(end in cut.nodes for end in re.ends) == 1


class TestLandings:
    """fire_cut builds each landing inside its front segment, unchecked; it
    must be the point the checking GraphModel.point_on gives at the same
    offset, on burn cuts and debt cuts alike."""

    @settings(max_examples=40, deadline=None)
    @given(small_complexes())
    def test_landings_equal_point_on(self, case):
        cx, d = case
        moves = []
        fire_cut_ = reduction.fire_cut

        def recording_fire_cut(*args, **kwargs):
            out = fire_cut_(*args, **kwargs)
            moves.append(out[1])
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reduction, "fire_cut", recording_fire_cut)
            for v0 in _base_points(cx):
                reduce_divisor(cx, d, v0, want_witness=False)
        for mv in moves:
            for x, re, land in mv.landings:
                offset = re.lo + mv.eps if re.ends[0] == x else re.hi - mv.eps
                assert land == cx.model.point_on(re.base, offset)


def reference_debt_cut(cx, d, v0, z):
    """The debt cut as a walk of the whole refinement finds it: the
    refinement by d's support, v0 and z, walked from v0 by _spread without
    entering z; the segments that reached z are the fronts, each at its
    other end."""
    ref = cx.model.refinement([*d.graph.coeffs, v0, z])
    nodes, reached = reduction._spread(ref, v0, lambda y, segs: y != z)
    fronts = {}
    for re in reached[z]:
        fronts.setdefault(re.ends[1] if re.ends[0] == z else re.ends[0], []).append(re)
    return reduction.Cut([n for n in ref.nodes if n.kind == "e"], nodes, fronts)


def reference_clear_debt(events):
    """A debt loop that scores every debt anew per event and fires
    reference_debt_cut, appending (z, cut) per event to events; it stands
    in for reduction._clear_debt."""

    def loop(cx, d, v0, cap, check, moves):
        while debts := reduction._debts(cx, d, v0, {}):
            z = max(debts)[2]
            cut = reference_debt_cut(cx, d, v0, z)
            events.append((z, cut))
            d = reduction._fire(cx, d, cut, moves, True, check)
        return d

    return loop


def _cut_view(cut):
    """What two cuts must share: interior points, region and fronts."""
    return (set(cut.points), cut.nodes,
            {x: sorted(segs, key=repr) for x, segs in cut.fronts.items()})


def _all_base_points(model):
    """Every model vertex and an interior point of every edge."""
    return [model.vertex_point(w) for w in model.vertices] + [
        model.point_on(name, e.length / 3) for name, e in sorted(model.edges.items())]


class TestDebtCut:
    """Each debt cut is read from the debtor's star; it must be the cut the
    walk of the whole refinement finds (reference_debt_cut)."""

    @settings(max_examples=60, deadline=None)
    @given(small_complexes())
    def test_every_debt_event_matches_the_refinement_walk(self, case):
        cx, d = case
        for v0 in _all_base_points(cx.model):
            ours, theirs = [], []
            debt_cut = reduction._debt_cut

            def recording_debt_cut(cx_, d_, v0_, z):
                cut = debt_cut(cx_, d_, v0_, z)
                ours.append((z, cut))
                return cut

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(reduction, "_debt_cut", recording_debt_cut)
                red, wit = reduce_divisor(cx, d, v0, check_each_step=True)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(reduction, "_clear_debt", reference_clear_debt(theirs))
                red_ref, wit_ref = reduce_divisor(cx, d, v0, check_each_step=True)
            assert [z for z, _ in ours] == [z for z, _ in theirs]
            for (_, cut), (_, ref_cut) in zip(ours, theirs):
                assert _cut_view(cut) == _cut_view(ref_cut)
            assert red == red_ref
            assert wit.f_gamma.ref.nodes == wit_ref.f_gamma.ref.nodes
            assert wit.f_gamma.values == wit_ref.f_gamma.values
            assert wit._shifts == wit_ref._shifts

    @staticmethod
    def _model():
        # the shape of small_complexes: loop l at A, double edge m1/m2, bridge t
        return GraphModel(["A", "B", "C"], [
            ("l", "A", "A", 2), ("m1", "A", "B", 1), ("m2", "A", "B", Fraction(3, 2)),
            ("t", "B", "C", 1)])

    @pytest.mark.parametrize("case", [
        "z-inside-the-bridge", "z-at-the-cut-vertex", "v0-before-z-on-the-bridge",
        "v0-after-z-on-the-bridge", "v0-before-z-on-a-cycle", "two-segments-to-one-front"])
    def test_explicit_cuts(self, case):
        model = self._model()
        cx = graphical_complex(model)
        A, B, C, mid = (model.vertex_point(w) for w in ("A", "B", "C", "l~mid"))

        def at(edge, offset):
            return model.point_on(edge, Fraction(offset))

        def seg(edge, lo, hi, a, b):
            return REdge(edge, Fraction(lo), Fraction(hi), (a, b))

        if case == "z-inside-the-bridge":
            # chips on both sides of z; only B's side holds v0
            z, v0 = at("t", "1/2"), A
            chips = [(at("t", "1/4"), 1), (z, -1), (at("t", "3/4"), 1), (C, 1)]
            nodes = {A, B, mid, at("t", "1/4")}
            fronts = {at("t", "1/4"): [seg("t", "1/4", "1/2", at("t", "1/4"), z)]}
        elif case == "z-at-the-cut-vertex":
            z, v0 = B, C
            chips = [(B, -1), (at("t", "1/2"), 1), (at("m1", "1/2"), 1)]
            nodes = {C, at("t", "1/2")}
            fronts = {at("t", "1/2"): [seg("t", 0, "1/2", B, at("t", "1/2"))]}
        elif case == "v0-before-z-on-the-bridge":
            z, v0 = at("t", "1/2"), at("t", "1/4")
            chips = [(z, -1), (C, 2)]
            nodes = {A, B, mid, v0}
            fronts = {v0: [seg("t", "1/4", "1/2", v0, z)]}
        elif case == "v0-after-z-on-the-bridge":
            z, v0 = at("t", "1/2"), at("t", "3/4")
            chips = [(z, -1), (A, 2)]
            nodes = {C, v0}
            fronts = {v0: [seg("t", "1/2", "3/4", z, v0)]}
        elif case == "v0-before-z-on-a-cycle":
            # the far side of z is reached round the other edge of the pair
            z, v0 = at("m1", "1/2"), at("m1", "1/4")
            chips = [(z, -1), (C, 2)]
            nodes = {A, B, C, mid, v0}
            fronts = {v0: [seg("m1", "1/4", "1/2", v0, z)], B: [seg("m1", "1/2", 1, z, B)]}
        else:
            # m1 and m2 bare: both end at B; the loop's side is cut off at A
            z, v0 = A, C
            chips = [(A, -1), (at("l~a", "1/2"), 1), (C, 2)]
            nodes = {B, C}
            fronts = {B: [seg("m1", 0, 1, A, B), seg("m2", 0, "3/2", A, B)]}
        d = cx.divisor(graph_pairs=chips)
        assert max(reduction._debts(cx, d, v0, {}))[2] == z
        cut = reduction._debt_cut(cx, d, v0, z)
        assert cut.nodes == nodes
        assert {x: sorted(segs, key=repr) for x, segs in cut.fronts.items()} == {
            x: sorted(segs, key=repr) for x, segs in fronts.items()}
        assert _cut_view(cut) == _cut_view(reference_debt_cut(cx, d, v0, z))
        red, wit = reduce_divisor(cx, d, v0, check_each_step=True)
        assert d + wit.divisor() == red

    def test_clear_debt_builds_no_refinement(self, monkeypatch):
        cx, d, v0, _a = _two_phase_case()
        d = d + cx.divisor(graph_pairs=[(cx.model.point_on("e1", Fraction(2, 3)), -2)])
        built = []
        init = metric.Refinement.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(metric.Refinement, "__init__", counting_init)
        _red, moves = reduction.clear_debt(cx, d, v0)
        assert len(moves) >= 3
        assert built == []

    @pytest.mark.parametrize("want_witness", [True, False])
    def test_debt_events_record_moves_only_for_a_witness(self, want_witness):
        cx, d, v0, _a = _two_phase_case()
        fire = reduction._fire
        handed = []

        def recording_fire(cx_, d_, cut, moves, debt_mode, check):
            if debt_mode:
                handed.append(moves)
            return fire(cx_, d_, cut, moves, debt_mode, check)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reduction, "_fire", recording_fire)
            reduce_divisor(cx, d, v0, want_witness=want_witness)
        assert len(handed) == 2
        assert all((moves is not None) == want_witness for moves in handed)


THETA_JSON = Path(__file__).resolve().parents[1] / "scripts" / "theta.json"


class TestEventCounts:
    """Exact burn and fire_cut call counts on scripts/theta.json; a change to
    the event sequence of the reduction shows up here."""

    @pytest.fixture
    def counted(self, monkeypatch):
        counts = {"burn": 0, "fire_cut": 0}
        for name in counts:
            original = getattr(reduction, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(reduction, name, counting)
        return counts

    @pytest.mark.parametrize("divisor, expected", [
        ("K", {"burn": 2, "fire_cut": 0}),
        ("D2", {"burn": 4, "fire_cut": 2}),
    ])
    def test_rank(self, counted, divisor, expected):
        doc = parse_document(THETA_JSON.read_text())
        rank(doc.complex, doc.divisors[divisor])
        assert counted == expected

    def test_reduce(self, counted):
        doc = parse_document(THETA_JSON.read_text())
        cx = doc.complex
        reduce_divisor(cx, doc.divisors["D2"], cx.model.vertex_point("u"))
        assert counted == {"burn": 2, "fire_cut": 1}


def _two_phase_case():
    """A divisor on the theta complex with P1 curves whose reduction at u
    fires two debt events and then two burn events."""
    model = theta_model()
    cx = as_trivial_complex(model)
    a = model.point_on("e1", Fraction(1, 3))
    b = model.point_on("e2", Fraction(1, 2))
    c = model.point_on("e3", Fraction(2, 3))
    return cx, cx.divisor(graph_pairs=[(a, 3), (b, -2), (c, 1)]), model.vertex_point("u"), a


def test_event_cap_stops_debt_clearing():
    # the two debt events fit in cap=2, and so do the two burn events after them
    cx, d, v0, _a = _two_phase_case()
    with pytest.raises(BudgetError, match="^debt clearing exceeded 1 events$"):
        reduce_divisor(cx, d, v0, cap=1)
    reduce_divisor(cx, d, v0, cap=2)


@pytest.mark.parametrize("where, message", [
    (("v", "x", 0), "unknown vertex x"),
    (("e", "f", Fraction(1, 2)), "unknown edge f"),
    (("e", "e", 3), "offset 3 outside edge e"),
    (("e", "e", 0), r"@e\[0\] is not a point of the graph"),
    (("e", "e", 1), r"@e\[1\] is not a point of the graph"),
], ids=["unknown-vertex", "unknown-edge", "beyond-the-edge", "at-its-first-end", "at-its-last-end"])
def test_base_point_off_the_graph_refused(segment, where, message):
    """Debt clearing reads the base point's edge without a refinement to
    check it, so it checks the point itself, before any event."""
    cx, g = segment
    v0 = GraphPoint(where[0], where[1], Fraction(where[2]))
    d = cx.divisor(graph_pairs=[(g.point_on("e", Fraction(1, 2)), -1), (g.vertex_point("w"), 2)])
    for run in (lambda: reduce_divisor(cx, d, v0), lambda: reduction.clear_debt(cx, d, v0)):
        with pytest.raises(InputError, match=message):
            run()


@pytest.mark.parametrize("want_witness", [True, False])
def test_moves_outlive_their_event_only_for_a_witness(want_witness):
    """Each burning pass counts the move records still alive: with a
    witness every record lives until the sum; without one nothing reads
    them, and none is left once debt clearing returns."""
    cx, d, v0, _a = _two_phase_case()
    fire_cut_, burn_ = reduction.fire_cut, reduction.burn
    refs, alive = [], []

    def recording_fire_cut(*args, **kwargs):
        out = fire_cut_(*args, **kwargs)
        refs.append(weakref.ref(out[1]))
        return out

    def counting_burn(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in refs))
        return burn_(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reduction, "fire_cut", recording_fire_cut)
        mp.setattr(reduction, "burn", counting_burn)
        reduce_divisor(cx, d, v0, want_witness=want_witness)
    assert alive == ([2, 3, 4] if want_witness else [0, 0, 0])


class TestEachStepCheck:
    """check_each_step verifies every firing event on its own, against the
    divisor that event produced, with or without a witness."""

    @pytest.mark.parametrize("want_witness", [True, False])
    @pytest.mark.parametrize("debt_phase", [True, False], ids=["debt", "burn"])
    def test_corrupted_event_caught(self, debt_phase, want_witness):
        cx, d, v0, a = _two_phase_case()
        original = reduction.fire_cut
        seen = []

        def corrupting_fire_cut(cx_, d_, cut, debt_mode=False):
            d_new, mv = original(cx_, d_, cut, debt_mode=debt_mode)
            if debt_mode == debt_phase:
                seen.append(mv)
                if len(seen) == 2:
                    d_new = d_new + cx_.divisor(graph_pairs=[(a, 1)])
            return d_new, mv

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reduction, "fire_cut", corrupting_fire_cut)
            with pytest.raises(McdivError, match="firing event"):
                reduce_divisor(cx, d, v0, want_witness=want_witness, check_each_step=True)
        assert len(seen) == 2

    def test_each_event_summed_once_alone(self):
        cx, d, v0, _a = _two_phase_case()
        fire_cut_, witness_ = reduction.fire_cut, reduction._witness
        events, summed = [], []

        def counting_fire_cut(*args, **kwargs):
            events.append(1)
            return fire_cut_(*args, **kwargs)

        def counting_witness(cx_, moves):
            summed.append(len(moves))
            return witness_(cx_, moves)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reduction, "fire_cut", counting_fire_cut)
            mp.setattr(reduction, "_witness", counting_witness)
            red, wit = reduce_divisor(cx, d, v0, check_each_step=True)
        assert d + wit.divisor() == red
        assert len(events) == 4
        assert sum(summed) == 2 * len(events)
        assert summed == [1] * len(events) + [len(events)]
