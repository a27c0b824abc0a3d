"""Metrized complexes: genus, divisor arithmetic, divisors of rational
functions, chip-firing moves, canonical class, regularization."""

import functools
import operator
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcdiv.complexes import (
    ComplexDivisor,
    ComplexRationalFunction,
    MetrizedComplex,
    NodalCurveDescription,
    as_trivial_complex,
    graphical_complex,
    move_fire_interior,
    move_fire_vertex,
    move_swap_curve_part,
    regularize,
)
from mcdiv.curves import (
    CurveDivisor,
    EPoint,
    EllipticOracle,
    O_POINT,
    P1Oracle,
    TableOracle,
    genus2_table_oracle,
)
from mcdiv.errors import InputError
from mcdiv.exact import INF, Poly, PrimeField, QQ, RationalFunc
from mcdiv.io import curve_point_json, divisor_json, graph_point_json
from mcdiv.limitseries import eqD_divisor
from mcdiv.metric import GraphDivisor, GraphModel, GraphPoint, PLFunction, enumerate_acyclic_orientations
from mcdiv.rank import Moderator
from mcdiv.reduction import reduce_divisor

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


def _places(cx):
    """Graphical vertices, edge midpoints and two points per curve."""
    places = [cx.model.vertex_point(w) for w in cx.graphical_vertices()]
    places += [cx.model.point_on(n, e.length / 2) for n, e in sorted(cx.model.edges.items())]
    for v in cx.oracle_vertices():
        places += [(v, p) for p in cx.oracles[v].sample_points(2)]
    return places


class TestChips:
    """cx.chips builds a divisor in one pass; each test compares it with a
    chip-by-chip construction."""

    def test_equals_fold_of_single_chips(self, rng):
        for _ in range(30):
            cx = random_complex(rng)
            places = _places(cx)
            pairs = [(rng.choice(places), rng.choice([-3, -2, -1, 1, 2, 3]))
                     for _ in range(rng.randint(1, 8))]
            x, c = pairs[0]
            pairs += [(x, c), (x, -2 * c)]  # x repeats, and its chips cancel
            fold = cx.zero_divisor()
            for x, c in pairs:
                if isinstance(x, GraphPoint):
                    fold = fold + cx.divisor(graph_pairs=[(x, c)])
                else:
                    v, p = x
                    fold = fold + cx.divisor(curve_parts={v: cx.oracles[v].divisor((p, c))})
            assert cx.chips(pairs) == fold
            assert cx.chips(pairs).key() == fold.key()

    def test_vertex_twist_equals_slope_sum(self, rng):
        for _ in range(30):
            cx = random_complex(rng)
            pot = {v: rng.randint(-3, 3) for v in cx.model.vertices}
            for v in cx.oracle_vertices():
                o = cx.oracles[v]
                want = o.zero_divisor()
                for e, end in cx.model.incident_edges(v):
                    s = pot[e.v if end == 0 else e.u] - pot[v]
                    if s:
                        want = want + o.divisor((cx.marked_point(v, e.name, end), s))
                assert cx.vertex_twist(v, pot) == want

    def test_lift_graph_divisor_puts_vertex_chips_on_lift_points(self, rng):
        for _ in range(30):
            cx = random_complex(rng)
            pts = [cx.model.vertex_point(v) for v in cx.model.vertices]
            pts += [cx.model.point_on(n, e.length / 3) for n, e in cx.model.edges.items()]
            d = GraphDivisor.of(*((rng.choice(pts), rng.randint(-3, 3)) for _ in range(6)))
            graph, curves = {}, {}
            for p, c in d.coeffs.items():
                if p.kind == "v" and cx.is_oracle_vertex(p.where):
                    o = cx.oracles[p.where]
                    cur = curves.get(p.where, o.zero_divisor())
                    curves[p.where] = cur + o.divisor((cx.lift_point(p.where), c))
                else:
                    graph[p] = graph.get(p, 0) + c
            lifted = cx.lift_graph_divisor(d)
            assert lifted == ComplexDivisor(cx, GraphDivisor(graph), curves)
            assert lifted.gamma_part() == d

    def test_places_off_their_kind_are_refused(self):
        cx = trivial_theta()
        with pytest.raises(InputError, match="oracle vertex"):
            cx.chips([(cx.model.vertex_point("u"), 1)])
        bare = MetrizedComplex(theta_model())
        with pytest.raises(InputError, match="carries no curve"):
            bare.chips([(("u", INF), 1)])


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
        bad = o.divisor((pts[1], 1), (O_POINT, -1))  # degree 0, off O
        with pytest.raises(InputError, match="^declared witness at l1 is not principal$"):
            ComplexRationalFunction(cx, PLFunction.constant(cx.model), {"l1": bad})

    def test_p1_shift_of_nonzero_degree_rejected(self):
        """A projective-line shift declared as a divisor must have degree 0,
        the whole of its class there."""
        cx = star_elliptic_complex()
        o = cx.oracles["c"]
        pts = o.sample_points(3)
        assert ComplexRationalFunction(cx, PLFunction.constant(cx.model), {
            "c": o.divisor((pts[1], 1), (pts[2], -1))}).divisor().degree() == 0
        with pytest.raises(InputError, match="^declared witness at c is not principal$"):
            ComplexRationalFunction(cx, PLFunction.constant(cx.model), {"c": o.divisor((pts[1], 1))})

    @pytest.mark.parametrize("v", ["b", "nowhere"])
    def test_witness_off_the_curves_refused(self, v):
        o = P1Oracle(QQ)
        g = GraphModel(["a", "b"], [("e", "a", "b", 1)])
        cx = MetrizedComplex(g, {"a": o}, {"a": {("e", 0): o.sample_points(1)[0]}})
        with pytest.raises(InputError, match=f"^{v} carries no curve$"):
            ComplexRationalFunction(cx, PLFunction.constant(g), {v: o.zero_divisor()})

    @staticmethod
    def _principal(o):
        """p + q - (p + q) - O on an elliptic curve: principal, not zero."""
        p_, q_ = o.sample_points(3)[1:]
        shift = o.divisor((p_, 1), (q_, 1), (o.add_points(p_, q_), -1), (O_POINT, -1))
        assert shift.coeffs
        return shift

    @pytest.mark.parametrize("foreign", [(5, 1, 1), (7, 1, 1)], ids=["E/F5", "twin"])
    def test_witness_on_foreign_oracle_refused(self, foreign):
        cx = single_vertex_complex(EllipticOracle(7, 1, 1))
        f = PLFunction.constant(cx.model)
        own = self._principal(cx.oracles["s"])
        assert ComplexRationalFunction(cx, f, {"s": own}).divisor().curve_part("s") == own
        with pytest.raises(InputError, match="^declared witness at s built on a foreign oracle$"):
            ComplexRationalFunction(cx, f, {"s": self._principal(EllipticOracle(*foreign))})

    def test_explicit_witness_off_a_p1_refused(self):
        cx = single_vertex_complex(EllipticOracle(7, 1, 1))
        line = P1Oracle(QQ)
        pts = line.sample_points(2)
        fn = line.principal_witness(line.divisor((pts[0], 1), (pts[1], -1)))
        with pytest.raises(InputError, match="^explicit function witness needs a P1 at s$"):
            ComplexRationalFunction(cx, PLFunction.constant(cx.model), {"s": fn})

    @pytest.mark.parametrize("field", [PrimeField(5), QQ], ids=["F5", "Q"])
    @pytest.mark.parametrize("num", [[3], [1, 1]], ids=["constant", "t+1"])
    def test_explicit_witness_over_another_field_refused(self, field, num):
        cx = single_vertex_complex(P1Oracle(PrimeField(7)))
        fn = RationalFunc.make(Poly.make(field, num), Poly.const(field, 1))
        msg = f"^explicit function witness at s is over {field}, but the curve there is over F7$"
        with pytest.raises(InputError, match=msg):
            ComplexRationalFunction(cx, PLFunction.constant(cx.model), {"s": fn})

    def test_bad_witness_type_refused(self):
        cx = single_vertex_complex(EllipticOracle(7, 1, 1))
        with pytest.raises(InputError, match="^bad witness type at s$"):
            ComplexRationalFunction(cx, PLFunction.constant(cx.model), {"s": 3})

    def test_random_witness_degree_zero(self, rng):
        for _ in range(25):
            cx = random_complex(rng)
            w = random_witness(rng, cx)
            assert w.divisor().degree() == 0
            # curve shifts are principal: the graph view is div f_gamma
            assert w.divisor().gamma_part() == w.f_gamma.divisor()


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
        first = cx.lift_point("c")
        assert cx.lift_point("c") == first
        assert first not in cx.marks["c"].values()
        # on a trivial complex it is the sample point after the marks
        for field in (QQ, PrimeField(5)):
            trivial = as_trivial_complex(theta_model(), field)
            for v in trivial.model.vertices:
                deg = trivial.model.degree(v)
                assert trivial.lift_point(v) == trivial.oracles[v].sample_points(deg + 1)[deg]


CURVES = {
    "P1/Q": lambda: P1Oracle(QQ),
    "P1/F5": lambda: P1Oracle(PrimeField(5)),
    "E/F5": lambda: EllipticOracle(5, 1, 1),
    "genus-2 table": genus2_table_oracle,
}


@functools.lru_cache(maxsize=None)
def _carrier(name):
    """A complex and a twin of the same shape (a different object), the
    points that chips go on, and the reference point order: the theta graph
    ordered by repr, or the curve of a one-vertex complex by point_key."""
    if name == "theta graph":
        cx, twin = graphical_complex(theta_model()), graphical_complex(theta_model())
        m = cx.model
        pts = [m.vertex_point("u"), m.vertex_point("v")]
        pts += [m.point_on(e, Fraction(k, 4)) for e in ("e1", "e2", "e3") for k in (1, 2, 3)]
        return cx, twin, pts, repr
    cx, twin = single_vertex_complex(CURVES[name]()), single_vertex_complex(CURVES[name]())
    o = cx.oracles["s"]
    pts = o.sample_points(6)
    if name == "P1/Q":
        pts[-1] = INF
    return cx, twin, pts, o.point_key


def _divisor(cx, pts, chips):
    pairs = [(pts[i % len(pts)], c) for i, c in chips]
    return cx.oracles["s"].divisor(*pairs) if cx.oracles else GraphDivisor.of(*pairs)


def _whole(cx, d):
    """d as a divisor of the complex."""
    return ComplexDivisor(cx, GraphDivisor(), {"s": d}) if cx.oracles else ComplexDivisor(cx, d, {})


chips = st.lists(st.tuples(st.integers(0, 10), st.integers(-3, 3)), max_size=6)


@pytest.mark.parametrize("name", ["theta graph", *CURVES])
class TestChipSumArithmetic:
    """Graph and curve divisors share one arithmetic (metric.ChipSum), which
    complex divisors combine part by part."""

    @settings(max_examples=60, deadline=None)
    @given(xs=chips, ys=chips)
    def test_sums_and_degrees(self, name, xs, ys):
        cx, _, pts, _ = _carrier(name)
        a, b = _divisor(cx, pts, xs), _divisor(cx, pts, ys)
        assert a - b == a + b.scale(-1)
        assert (a + b) - b == a
        assert (a + b).degree() == a.degree() + b.degree()
        assert a.deg_plus() - a.scale(-1).deg_plus() == a.degree()
        assert (a + b).deg_plus() <= a.deg_plus() + b.deg_plus()
        if a.is_effective() and b.is_effective():
            assert (a + b).deg_plus() == a.deg_plus() + b.deg_plus()
        wa, wb = _whole(cx, a), _whole(cx, b)
        assert wa - wb == _whole(cx, a - b) and wa + wb == _whole(cx, a + b)
        assert (wa - wb).deg_plus() == (a - b).deg_plus()
        assert (wa - wb).is_effective() == (a - b).is_effective()

    @settings(max_examples=60, deadline=None)
    @given(xs=chips, ys=chips)
    def test_keys_equal_exactly_when_divisors_are(self, name, xs, ys):
        cx, _, pts, _ = _carrier(name)
        a, b = _divisor(cx, pts, xs), _divisor(cx, pts, ys)
        assert (a.key() == b.key()) == (a == b)
        same = _divisor(cx, pts, reversed(xs))  # other insertion order
        assert same == a and same.key() == a.key()
        assert _whole(cx, same).key() == _whole(cx, a).key()

    @settings(max_examples=60, deadline=None)
    @given(xs=chips)
    def test_repr_key_and_json_in_point_order(self, name, xs):
        cx, _, pts, order = _carrier(name)
        a = _divisor(cx, pts, xs)
        ref = sorted(a.coeffs.items(), key=lambda kv: order(kv[0]))
        assert a.key() == tuple((order(p), c) for p, c in ref)
        term = "{c}*({p})" if cx.oracles else "{c}*{p}"
        assert repr(a) == (" + ".join(term.format(c=c, p=p) for p, c in ref) or "0")
        got = divisor_json(cx, _whole(cx, a))
        if cx.oracles:
            want = [[curve_point_json(cx.oracles["s"], p), c] for p, c in ref]
            assert got == {"graph": [], "curves": {"s": want} if want else {}}
        else:
            assert got == {"graph": [[graph_point_json(p), c] for p, c in ref], "curves": {}}

    @settings(max_examples=30, deadline=None)
    @given(xs=chips, ys=chips)
    def test_arithmetic_across_carriers_refused(self, name, xs, ys):
        cx, twin, pts, _ = _carrier(name)
        a, b = _divisor(cx, pts, xs), _divisor(twin, pts, ys)
        for op in (operator.add, operator.sub):
            if cx.oracles:
                with pytest.raises(InputError, match="different curves"):
                    op(a, b)
            with pytest.raises(InputError, match="different complexes"):
                op(_whole(cx, a), _whole(twin, b))


def test_sum_across_complexes_with_same_names_refused():
    """Edge e has length 1 in one complex and 2 in the other: a sum on the
    first would hold a chip at offset 3/2, off its edge."""
    short, long = (graphical_complex(GraphModel(["a", "b"], [("e", "a", "b", n)])) for n in (1, 2))
    d = short.divisor(graph_pairs=[(short.model.point_on("e", Fraction(1, 2)), 1)])
    e = long.divisor(graph_pairs=[(long.model.point_on("e", Fraction(3, 2)), -1)])
    for op in (operator.add, operator.sub):
        with pytest.raises(InputError, match="different complexes"):
            op(d, e)


F5 = PrimeField(5)


def _p1_complex():
    return single_vertex_complex(P1Oracle(QQ))


def _foreign_part(cx):
    return ComplexDivisor(cx, GraphDivisor(), {"s": P1Oracle(QQ).divisor((INF, 1))})


# every entry that takes points from outside, with the message it refuses
# an invalid or foreign point with; results of arithmetic are not checked again
CHECKING_ENTRIES = {
    "oracle.divisor P1/Q": (lambda: P1Oracle(QQ).divisor((F5.elem(1), 1)),
                            "1 is not a rational point of P1 over Q"),
    "oracle.divisor P1/F5": (lambda: P1Oracle(F5).divisor((Fraction(1), 1)),
                             "Fraction(1, 1) is not a point of P1 over F5"),
    "oracle.divisor E/F5": (lambda: EllipticOracle(5, 1, 1).divisor((EPoint(F5.elem(0), F5.elem(2)), 1)),
                            "(0,2) is not on the curve"),
    "oracle.divisor table": (lambda: genus2_table_oracle().divisor(("L99", 1)),
                             "unknown labeled point 'L99'"),
    "CurveDivisor": (lambda: CurveDivisor(P1Oracle(F5), {INF: 1, Fraction(1, 2): -1}),
                     "Fraction(1, 2) is not a point of P1 over F5"),
    "ComplexDivisor graph chip at an oracle vertex": (
        lambda: ComplexDivisor(_p1_complex(), GraphDivisor.of((GraphPoint("v", "s"), 1)), {}),
        "graph part may not sit at oracle vertex s; use the curve part"),
    "ComplexDivisor foreign oracle": (lambda: _foreign_part(_p1_complex()),
                                      "curve part at s built on a foreign oracle"),
    "cx.divisor graph chip at an oracle vertex": (
        lambda: _p1_complex().divisor(graph_pairs=[(GraphPoint("v", "s"), 1)]),
        "graph part may not sit at oracle vertex s; use the curve part"),
    "cx.divisor foreign oracle": (
        lambda: _p1_complex().divisor(curve_parts={"s": P1Oracle(QQ).divisor((INF, 1))}),
        "curve part at s built on a foreign oracle"),
    "cx.chips invalid curve point": (lambda: _p1_complex().chips([(("s", F5.elem(2)), 1)]),
                                     "2 is not a rational point of P1 over Q"),
    "cx.chips graph chip at an oracle vertex": (
        lambda: _p1_complex().chips([(GraphPoint("v", "s"), 1)]),
        "graph part may not sit at oracle vertex s; use the curve part"),
}


@pytest.mark.parametrize("entry", sorted(CHECKING_ENTRIES))
def test_checking_entries_refuse_outside_points(entry):
    build, message = CHECKING_ENTRIES[entry]
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        build()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), k=st.integers(-2, 2))
def test_unchecked_results_equal_checked_rebuilds(seed, k):
    """+, - and scale build their results without checking their points
    again, and so does the complex's builder of divisors on marked points;
    each equals the divisor rebuilt through the checking constructors,
    holds only nonzero int coefficients and no empty curve part, and keeps
    each part on its vertex's oracle."""
    rng = random.Random(seed)
    cx = random_complex(rng)
    a, b = random_divisor(rng, cx), random_divisor(rng, cx)
    for r in (a + b, a - b, a.scale(k), b.scale(k)):
        assert r == ComplexDivisor(cx, GraphDivisor(r.graph.coeffs), {
            v: CurveDivisor(cx.oracles[v], d.coeffs) for v, d in r.curves.items()})
        assert all(type(c) is int and c for c in r.graph.coeffs.values())
        for v, d in r.curves.items():
            assert d.coeffs and d.oracle is cx.oracles[v]
            assert all(type(c) is int and c for c in d.coeffs.values())
    for v in cx.oracle_vertices():
        x, y = a.curve_part(v), b.curve_part(v)
        # edge ends drawn with repeats and zero coefficients
        ends = sorted(cx.marks[v])
        pairs = [(rng.choice(ends), rng.randint(-2, 2)) for _ in range(rng.randint(0, 2 * len(ends)))]
        on_marks = cx._on_marks(v, pairs)
        assert on_marks == cx.oracles[v].divisor(*((cx.marks[v][end], c) for end, c in pairs))
        for r in (x + y, x - y, x.scale(k), on_marks):
            assert r == CurveDivisor(cx.oracles[v], r.coeffs) and r.oracle is cx.oracles[v]
            assert all(type(c) is int and c for c in r.coeffs.values())


def _ep(x, y):
    return EPoint(F5.elem(x), F5.elem(y))


def _marked_star():
    """A projective line over Q at c with two elliptic leaves over F_5.
    The base point is the center: renormalizing a projective line turns
    its shift into an explicit function, and the zeros and poles of that
    function are checked when they are read back."""
    model = GraphModel(["c", "l1", "l2"], [("ea", "c", "l1", 1), ("eb", "c", "l2", Fraction(1, 2))])
    c, l1, l2 = P1Oracle(QQ), EllipticOracle(5, 1, 1), EllipticOracle(5, 1, 1)
    cx = MetrizedComplex(model, {"c": c, "l1": l1, "l2": l2}, {
        "c": {("ea", 0): Fraction(0), ("eb", 0): Fraction(1)},
        "l1": {("ea", 1): _ep(0, 1)}, "l2": {("eb", 1): _ep(2, 1)}})
    p, q = _ep(3, 1), _ep(4, 2)
    d = cx.divisor(graph_pairs=[(model.point_on("ea", Fraction(1, 2)), 1)], curve_parts={
        "c": c.divisor((Fraction(5), 2)), "l1": l1.divisor((p, 2)), "l2": l2.divisor((q, 2), (_ep(3, 4), -1))})
    parts = {"c": c.divisor((Fraction(5), -1)), "l1": l1.divisor((p, 1), (O_POINT, -1)),
             "l2": l2.divisor((p, 1), (O_POINT, -1))}
    aspects = {"c": c.divisor((Fraction(5), 2)), "l1": l1.divisor((p, 2)), "l2": l2.divisor((p, 1), (O_POINT, 1))}
    witnesses = {"c": c.principal_witness(c.divisor((Fraction(5), 1), (Fraction(7), -1)))}
    values = {"c": 0, "l1": 1, "l2": Fraction(1, 2)}
    return cx, d, ["c"], parts, ("c", aspects), {"c": 0, "l1": 2, "l2": -1}, values, witnesses


def _marked_table():
    """A genus-2 table vertex t on a loop and a pendant edge; its marks are
    none of the labels of its canonical divisor."""
    model = GraphModel(["t", "a", "w"], [("e", "t", "a", 1), ("f", "t", "w", 1), ("g", "w", "t", 1)])
    t = genus2_table_oracle()
    cx = MetrizedComplex(model, {"t": t}, {"t": {("e", 0): "L03", ("f", 0): "L05", ("g", 1): "L06"}})
    d = cx.divisor(graph_pairs=[(model.point_on("g", Fraction(1, 2)), 2), (model.vertex_point("a"), -1)],
                   curve_parts={"t": t.divisor(("L02", 1), ("L09", -1))})
    values = {"t": 0, "a": 1, "w": 1}
    return cx, d, ["t", "a", "w"], {"t": t.divisor_in_class(1, (0,))}, None, {"t": 0, "a": 1, "w": 3}, values, {}


MARKED_COMPLEXES = {"P1/elliptic star": _marked_star, "genus-2 table": _marked_table}


@pytest.mark.parametrize("name", sorted(MARKED_COMPLEXES))
def test_marked_points_are_not_checked_again(monkeypatch, name):
    """The complex checks its marked points when it is built.  Reductions
    with a witness (burn tests, firings), vertex twists, K, moderators, the
    eqD divisor and divisors of functions then build their divisors on the
    marks without passing any mark to validate_point again."""
    cx, d, bases, parts, eqd, potential, values, witnesses = MARKED_COMPLEXES[name]()
    mod = Moderator(cx, next(enumerate_acyclic_orientations(cx.model)), parts)
    f = ComplexRationalFunction(cx, PLFunction(cx.model.refinement(), {
        cx.model.vertex_point(v): Fraction(x) for v, x in values.items()}), witnesses)
    checked = []

    def recording(validate_point):
        def record(oracle, p):
            checked.append((oracle, p))
            return validate_point(oracle, p)
        return record

    for cls in (P1Oracle, EllipticOracle, TableOracle):
        monkeypatch.setattr(cls, "validate_point", recording(cls.validate_point))
    for b in bases:
        reduced, wit = reduce_divisor(cx, d, cx.model.vertex_point(b))
        assert wit is not None and reduced != d
    for v in cx.oracle_vertices():
        cx.vertex_twist(v, potential)
    cx.canonical()
    mod.divisor()
    f.divisor()
    if eqd:
        eqD_divisor(cx, *eqd)
    marks = [(cx.oracles[v], p) for v in cx.oracle_vertices() for p in cx.marks[v].values()]
    assert [(o, p) for o, p in checked if any(o is mo and p == mp for mo, mp in marks)] == []
