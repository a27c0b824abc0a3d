"""Rank computations and the certified identities around them."""

import gc
import importlib
import itertools
import random
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from mcdiv.complexes import as_trivial_complex, graphical_complex
from mcdiv.complexes import MetrizedComplex, NodalCurveDescription, regularize
from mcdiv.curves import EllipticOracle, O_POINT, P1Oracle, TableOracle, genus2_table_oracle
from mcdiv.decomposition import WeightedGraph, graph_rank, weighted_rank
from mcdiv.errors import InputError
from mcdiv.exact import INF, Poly, PrimeField, QQ, RationalFunc
from mcdiv.io import parse_document
from mcdiv.limitseries import FunctionSpace, restricted_rank, vanishing_sequence
from mcdiv.metric import GraphDivisor, GraphModel, GraphPoint, enumerate_acyclic_orientations
from mcdiv.rank import (
    Moderator,
    _largest_k,
    _rank_enumerated,
    clifford_audit,
    combinatorial_rank,
    edge_grid,
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
    site_divisor,
)
from mcdiv.reduction import reduce_divisor

from conftest import (
    random_complex,
    random_divisor,
    random_witness,
    segment_model,
    single_vertex_complex,
    star_elliptic_complex,
    theta_model,
)


rank_module = importlib.import_module("mcdiv.rank")  # `mcdiv.rank` is also the function
THETA_JSON = Path(__file__).resolve().parents[1] / "scripts" / "theta.json"


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
            extra = point_divisor(cx, sites[-1], 1)
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

    def test_negative_seed_is_refused(self):
        # a negative seed would sample no curve points, and too few test
        # places overstate the rank (D1 on theta.json has rank 0)
        doc = parse_document(THETA_JSON.read_text())
        cx, d = doc.complex, doc.divisors["D1"]
        assert rank(cx, d, seed=0) == 0
        with pytest.raises(InputError, match="seed"):
            rank_determining_sites(cx, seed=-1)
        with pytest.raises(InputError, match="seed"):
            rank(cx, d, seed=-1, audit=True)

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


def _table_segment(mark):
    """A genus-2 table vertex A, its one edge end marked by `mark`, joined to
    a graphical vertex B."""
    model = GraphModel(["A", "B"], [("e1", "A", "B", 1)])
    return MetrizedComplex(model, {"A": genus2_table_oracle()}, {"A": {("e1", 0): mark}})


def reference_search(cx, d, sites):
    """The rank search with one test divisor per multiset: d - E is built
    for every multiset E and tested at the vertex of E's last place."""
    return _largest_k(sites, lambda e: nonneg_rank(
        cx, d - site_divisor(cx, e),
        e[-1] if isinstance(e[-1], GraphPoint) else cx.model.vertex_point(e[-1][0]),
    ) if e else nonneg_rank(cx, d), d.degree())


class TestSplitSearch:
    """`_rank_enumerated` keys each test by its rest: d less the chips away
    from the test vertex.  On twin complexes it must give the reference's
    ranks from the same reductions and the same memo keys, in the same
    order, whatever the order of the sites."""

    SITES = {
        "default": lambda cx, rng: rank_determining_sites(cx),
        "shuffled": lambda cx, rng: rng.sample(rank_determining_sites(cx), len(rank_determining_sites(cx))),
        "edge_grid": lambda cx, rng: edge_grid(cx.model, 2),
    }

    @pytest.fixture
    def reductions(self, monkeypatch):
        seen = []
        real = rank_module.reduce_divisor
        monkeypatch.setattr(rank_module, "reduce_divisor",
                            lambda cx, d, *a, **kw: seen.append(d.key()) or real(cx, d, *a, **kw))
        return seen

    @staticmethod
    def assert_same_search(reductions, twins, divisors, sites):
        (ref_cx, cx), (ref_d, d) = twins, divisors
        reductions.clear()
        want = reference_search(ref_cx, ref_d, sites)
        ref_reductions = list(reductions)
        reductions.clear()
        assert _rank_enumerated(cx, d, sites) == want, d
        assert reductions == ref_reductions, d
        assert list(cx.nonneg_memo) == list(ref_cx.nonneg_memo), d

    @pytest.mark.parametrize("kind", list(SITES))
    def test_same_ranks_reductions_and_memo_keys(self, kind, reductions):
        rng = random.Random(f"split-{kind}")
        seen = set()
        for case in range(10):
            twins = [random_complex(random.Random(case)) for _ in range(2)]
            seen.update(type(twins[1].oracles[v]).__name__ if v in twins[1].oracles else "graphical"
                        for v in twins[1].model.vertices)
            sites = self.SITES[kind](twins[1], rng)
            for _ in range(3):
                deg, seed = rng.randint(-2, 2 * twins[1].genus() + 1), rng.random()
                divisors = [random_divisor(random.Random(seed), cx, deg, deg) for cx in twins]
                self.assert_same_search(reductions, twins, divisors, sites)
        assert seen == {"graphical", "P1Oracle", "EllipticOracle", "TableOracle"}

    def test_chips_at_the_test_vertex_before_a_chip_elsewhere(self, reductions):
        # 5 chips on the middle of an edge from a genus-2 table to a line:
        # the first failing 4-multiset, ((A, L03), (B, 1), (B, 1), (A, L02)),
        # is tested at A and holds a chip there ahead of its chips at B
        def build():
            line = P1Oracle(PrimeField(5))
            model = GraphModel(["A", "B"], [("e1", "A", "B", 1)])
            return MetrizedComplex(model, {"A": genus2_table_oracle(), "B": line},
                                   {"A": {("e1", 0): "L01"}, "B": {("e1", 1): line.sample_points(1)[0]}})

        twins = [build(), build()]
        b = next(s for s in rank_determining_sites(twins[1]) if s[0] == "B")
        divisors = [cx.chips([(cx.model.point_on("e1", Fraction(1, 2)), 5)]) for cx in twins]
        self.assert_same_search(reductions, twins, divisors, [("A", "L03"), b, ("A", "L02")])

    def test_sites_from_a_caller_are_checked(self):
        cx = star_elliptic_complex()
        with pytest.raises(InputError, match="carries no curve"):
            rank(cx, cx.canonical(), sites=[("nowhere", O_POINT)])
        with pytest.raises(InputError, match="oracle vertex"):
            rank(cx, cx.canonical(), sites=[cx.model.vertex_point("l1")])


class TestSiteTable:
    """rank_determining_sites fills cx.sites_memo once per (seed, oversize)
    and hands out copies; refusals raise every time and store nothing."""

    def test_calls_return_equal_fresh_lists(self):
        cx, twin = star_elliptic_complex(), star_elliptic_complex()
        for seed, oversize in ((0, 0), (1, 0), (0, 2)):
            first = rank_determining_sites(cx, seed, oversize)
            first.append(("junk", None))
            again = rank_determining_sites(cx, seed, oversize)
            assert again == first[:-1] == rank_determining_sites(twin, seed, oversize)
            assert again is not rank_determining_sites(cx, seed, oversize)
        assert set(cx.sites_memo) == {(0, 0), (1, 0), (0, 2)}

    def test_one_table_audit_per_rr_audit(self):
        cx = _table_segment("L01")
        audit = TableOracle.rank_one_detection
        calls = []

        def counting(self, residual_points):
            calls.append(list(residual_points))
            return audit(self, residual_points)

        d = cx.chips([(("A", "L02"), 1)])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(TableOracle, "rank_one_detection", counting)
            assert rr_audit(cx, d).passed()
        assert len(calls) == 1

    def test_refusals_raise_every_time_and_store_nothing(self):
        exhausted = _table_segment("L09")  # without L09 no point detects every rank-0 class
        good = _table_segment("L01")
        for _ in range(2):
            with pytest.raises(InputError, match="exhaust"):
                rank_determining_sites(exhausted)
            with pytest.raises(InputError, match="seed"):
                rank_determining_sites(good, seed=-1)
        assert exhausted.sites_memo == {} and good.sites_memo == {}
        assert rank_determining_sites(good)
        with pytest.raises(InputError, match="seed"):
            rank_determining_sites(good, seed=-1)
        assert list(good.sites_memo) == [(0, 0)]


_SITE_COMPLEXES = {
    "E/F5": lambda: single_vertex_complex(EllipticOracle(5, 1, 1)),
    "E/F13": lambda: single_vertex_complex(EllipticOracle(13, 1, 1)),
    "elliptic star": star_elliptic_complex,
    "genus-2 table": lambda: single_vertex_complex(genus2_table_oracle()),
}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", sorted(_SITE_COMPLEXES))
def test_sites_of_every_seed_detect_rank(name, seed):
    """One chip at a site on a curve of positive genus has rank 0, so the
    sites of every seed must hold a test chip that drops it.  Too few curve
    points per vertex (one instead of genus + 1) let the site take its own
    chip away and read rank 1.  audit=True searches the sites also where
    the degree exceeds 2g - 2 (on genus 1), which the shortcut answers alone."""
    cx = _SITE_COMPLEXES[name]()
    sites = [s for s in rank_determining_sites(cx, seed)
             if not isinstance(s, GraphPoint) and cx.oracles[s[0]].genus > 0]
    assert sites
    for s in sites:
        assert rank(cx, site_divisor(cx, [s]), seed=seed, audit=True) == 0, s


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
        pi = next(pi for pi in enumerate_acyclic_orientations(model) if pi.deg_plus("v0") == 0)
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
        pi = next(pi for pi in enumerate_acyclic_orientations(cx.model) if pi.deg_plus("u") == 0)
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
        pi = next(pi for pi in enumerate_acyclic_orientations(cx.model) if pi.deg_plus("u") == 0)
        o = cx.oracles["u"]
        with pytest.raises(InputError):
            Moderator(cx, pi, {"u": o.divisor((INF, 1)), "v": o.divisor((INF, -1))})

    def test_part_on_foreign_oracle_rejected(self):
        # a part's points are only meaningful on its own curve
        cx = as_trivial_complex(theta_model())
        pi = next(pi for pi in enumerate_acyclic_orientations(cx.model) if pi.deg_plus("u") == 0)
        o = cx.oracles["u"]
        with pytest.raises(InputError, match="foreign oracle"):
            Moderator(cx, pi, {"u": o.divisor((INF, -1)), "v": o.divisor((INF, -1))}).divisor()


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

    @pytest.mark.parametrize("case, message", [
        ("graphical vertex", "curve at every vertex"),
        ("graph part", "supported on the vertex curves"),
    ])
    def test_rejects_input_off_the_vertex_curves(self, case, message):
        if case == "graphical vertex":
            model = GraphModel(["a", "b"], [("e", "a", "b", 1)])
            cx = MetrizedComplex(model, {"a": P1Oracle(QQ)}, {"a": {("e", 0): QQ.elem(0)}})
            d = cx.zero_divisor()
        else:
            cx = self.two_lines()
            d = cx.divisor(graph_pairs=[(cx.model.point_on("n0", Fraction(1, 2)), 1)])
        with pytest.raises(InputError, match=message):
            combinatorial_rank(cx, d)

    def test_oracle_query_count(self, monkeypatch):
        """Curve rank queries on two lines at degree 2, recorded before the
        rank engines shared one search loop; a change to the order of test
        chips or potentials, or to the short-circuits, moves this count."""
        calls = []
        original = P1Oracle.curve_rank

        def counting(self, d):
            calls.append(d)
            return original(self, d)

        monkeypatch.setattr(P1Oracle, "curve_rank", counting)
        cx = self.two_lines()
        o = cx.oracles["Y"]
        div = cx.divisor(curve_parts={"Y": o.divisor((QQ.elem(1), 2))})
        assert combinatorial_rank(cx, div) == 2
        assert len(calls) == 84


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
        reduce_divisor(cx, chip + chip, cx.model.point_on("e2", Fraction(1, 3)))
        assert cx.nonneg_memo and cx.sites_memo and cx.shortcut_validated
        assert frozenset({cx.model.point_on("e1", Fraction(1, 2)),
                          cx.model.point_on("e2", Fraction(1, 3))}) in cx.refinement_memo
        assert set(vars(cx)) == before

    def test_rank_memo_keeps_no_reference_cycle(self):
        # the memos hold keys, leftovers, sites and refinements (which point
        # at the model), never a ComplexDivisor, which points back to its
        # complex: with the cycle collector off, the complex must die with
        # its last outside reference
        doc = parse_document(THETA_JSON.read_text())
        cx, k = doc.complex, doc.divisors["K"]
        gc.disable()
        try:
            assert rank(cx, k) == 1 and rank(cx, k + k) == 2
            assert nonneg_rank(cx, k - doc.divisors["D2"], cx.model.vertex_point("v"))
            assert cx.nonneg_memo and cx.sites_memo and cx.refinement_memo
            ref = weakref.ref(cx)
            del doc, cx, k
            assert ref() is None
        finally:
            gc.enable()

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

    def test_local_queries_keep_space_attributes(self):
        o = P1Oracle(QQ)
        t = Poly.x(QQ)
        one = Poly.const(QQ, 1)
        space = FunctionSpace(o, [RationalFunc.make(one, t), RationalFunc.make(t, one)])
        before = set(vars(space))
        assert space.min_ord(QQ.elem(0)) == -1
        assert space.constrained_dim([(QQ.elem(0), 0), (QQ.elem(2), 1)]) == 0
        assert space.constrained_dim([(QQ.elem(0), 1)]) == 1
        assert len(space.local_memo) == 2
        assert set(vars(space)) == before

    def test_limit_series_operations_keep_space_attributes(self):
        cx = regularize(NodalCurveDescription(
            {"Y": P1Oracle(QQ), "Z": P1Oracle(QQ)}, [("Y", QQ.elem(0), "Z", QQ.elem(0))]))
        oy, oz = cx.oracles["Y"], cx.oracles["Z"]
        t = Poly.x(QQ)
        one = Poly.const(QQ, 1)
        spaces = {"Y": FunctionSpace(oy, [RationalFunc.make(one, one), RationalFunc.make(t, one)]),
                  "Z": FunctionSpace(oz, [RationalFunc.make(t, one), RationalFunc.make(t * t, one)])}
        before = {v: set(vars(s)) for v, s in spaces.items()}
        d = cx.divisor(curve_parts={"Y": oy.divisor((INF, 2)),
                                    "Z": oz.divisor((INF, 2), (QQ.elem(0), -2))})
        assert spaces["Y"].contained_in_L(oy.divisor((INF, 1)))
        assert vanishing_sequence(oz, oz.divisor((INF, 2)), spaces["Z"], QQ.elem(0)) == (1, 2)
        assert restricted_rank(cx, d, spaces) == 1
        assert {v: set(vars(s)) for v, s in spaces.items()} == before

    def test_weighted_rank_keeps_model_attributes(self):
        model = GraphModel(["a", "b"], [("e", "a", "b", 1)])
        wg = WeightedGraph(model, {"a": 1})
        before = set(vars(model))
        d = GraphDivisor.of((model.vertex_point("a"), 2))
        assert weighted_rank(wg, d) == graph_rank(model, d) - 1
        assert set(vars(model)) == before
