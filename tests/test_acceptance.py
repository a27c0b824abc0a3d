"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line.  All comparisons are exact; there are no tolerances anywhere.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from mcdiv.complexes import (
    NodalCurveDescription,
    as_trivial_complex,
    graphical_complex,
    regularize,
)
from mcdiv.curves import EllipticOracle, O_POINT, P1Oracle
from mcdiv.decomposition import (
    EtaFunction,
    WeightedGraph,
    bn_search,
    brill_noether_number,
    connected_sum_rank,
    glue,
    sharp_rank,
    weighted_rank,
)
from mcdiv.exact import INF, Poly, PrimeField, QQ, RationalFunc
from mcdiv.limitseries import (
    Aspect,
    FunctionSpace,
    crude_limit_check,
    eqD_divisor,
    not_completable_audit,
    restricted_rank,
    vanishing_sequence,
)
from mcdiv.metric import GraphDivisor, GraphModel, enumerate_acyclic_orientations
from mcdiv.rank import (
    combinatorial_rank,
    linear_equiv,
    moderator_sample,
    nonneg_rank,
    rank,
    rank_bound_from_nonspecial,
    rank_determining_sites,
    rr_audit,
)
from mcdiv.reduction import reduce_divisor

from conftest import (
    circle_model,
    line_chain,
    qq_space,
    random_complex,
    random_divisor,
    random_witness,
    single_vertex_complex,
    space_catalog,
    star_elliptic_complex,
    theta_model,
)


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def fuzz_corpus(pairs=200, seed=1):
    """Deterministic corpus of (complex, divisor) pairs shared by the
    Riemann-Roch and Clifford criteria."""
    rng = random.Random(seed)
    corpus = []
    complexes = [random_complex(rng) for _ in range(25)]
    per = (pairs + len(complexes) - 1) // len(complexes)
    for cx in complexes:
        for _ in range(per):
            corpus.append((cx, random_divisor(rng, cx, deg_lo=-6, deg_hi=6)))
    return corpus[:pairs]


@pytest.fixture(scope="module")
def corpus():
    return fuzz_corpus()


def test_criterion_1_riemann_roch_fuzz(corpus):
    t0 = time.time()
    for cx, d in corpus:
        rep = rr_audit(cx, d)
        assert rep.passed(), f"identity failed: {rep.data} on {d!r}"
    elapsed = time.time() - t0
    assert len(corpus) >= 200
    report(1, f"Riemann-Roch identity exact on {len(corpus)} fuzz pairs "
              f"({elapsed:.1f}s)")


def test_criterion_2_clifford(corpus):
    special = 0
    for cx, d in corpus:
        k = cx.canonical()
        if d.degree() < 0 or d.degree() > 2 * cx.genus() - 2:
            continue
        if nonneg_rank(cx, d) and nonneg_rank(cx, k - d):
            special += 1
            assert 2 * rank(cx, d) <= d.degree(), f"Clifford fails on {d!r}"
    # canonical-flavoured special divisors top up the count
    rng = random.Random(7)
    while special < 20:
        cx = random_complex(rng)
        if cx.genus() < 1:
            continue
        d = cx.canonical()
        assert nonneg_rank(cx, d) and nonneg_rank(cx, cx.zero_divisor())
        assert 2 * rank(cx, d) <= d.degree()
        special += 1
    assert special >= 20
    report(2, f"Clifford bound held on {special} special divisors")


def test_criterion_3_reduced_quasi_uniqueness():
    rng = random.Random(3)
    pairs = 0
    while pairs < 100:
        cx = random_complex(rng)
        d = random_divisor(rng, cx, deg_lo=-4, deg_hi=5)
        w = random_witness(rng, cx)
        shifted = d + w.divisor()
        v0 = cx.model.vertex_point(
            cx.model.vertices[rng.randrange(len(cx.model.vertices))]
        )
        r1, _ = reduce_divisor(cx, d, v0, check_each_step=True)
        r2, _ = reduce_divisor(cx, shifted, v0, check_each_step=True)
        assert r1.gamma_part() == r2.gamma_part(), f"gamma parts differ at {v0}"
        for v in cx.oracle_vertices():
            assert cx.oracles[v].classes_equal(r1.curve_part(v), r2.curve_part(v))
        pairs += 1
    report(3, f"reduced representatives agree on {pairs} witness-shifted pairs, "
              "witness identity checked at every step")


def test_criterion_4_circle_eta():
    cx = graphical_complex(circle_model())
    x = cx.model.vertex_point("v")
    fn = EtaFunction(cx, cx.zero_divisor(), x)
    assert fn(0) == 0
    assert fn(1) == 2
    for k in range(2, 7):
        assert fn(k) == k + 1
    report(4, "circle eta values: eta(0)=0, eta(1)=2, eta(k)=k+1 for 2<=k<=6")


def _random_weighted(rng):
    shapes = [
        GraphModel(["a"], []),
        GraphModel(["a", "b"], [("e", "a", "b", 1)]),
        GraphModel(["a", "b"], [("e1", "a", "b", 1), ("e2", "a", "b", 2)]),
        GraphModel(
            ["a", "b", "c"],
            [("e1", "a", "b", 1), ("e2", "b", "c", 1)],
        ),
        GraphModel(
            ["a", "b", "c"],
            [("e1", "a", "b", 1), ("e2", "b", "c", 1), ("e3", "c", "a", 1)],
        ),
    ]
    model = shapes[rng.randrange(len(shapes))]
    weights = {}
    budget = 3
    for v in model.vertices:
        w = rng.randint(0, min(2, budget))
        budget -= w
        if w:
            weights[v] = w
    if not weights:
        weights[model.vertices[0]] = 1
    return WeightedGraph(model, weights)


def test_criterion_5_weighted_rank_equivalence():
    rng = random.Random(5)
    lengths_a = {}
    checked = 0
    while checked < 30:
        wg = _random_weighted(rng)
        sites = [wg.model.vertex_point(v) for v in wg.model.vertices]
        deg = rng.randint(-5, 5)
        d = GraphDivisor({sites[rng.randrange(len(sites))]: deg})
        formula = weighted_rank(wg, d)
        la = {
            (v, i): 1
            for v in wg.model.vertices
            for i in range(wg.weight(v))
        }
        lb = {
            (v, i): Fraction(1, 2) + i
            for v in wg.model.vertices
            for i in range(wg.weight(v))
        }
        assert formula == sharp_rank(wg, d, la), f"lengths A mismatch: {d!r}"
        assert formula == sharp_rank(wg, d, lb), f"lengths B mismatch: {d!r}"
        checked += 1
    report(5, f"weighted rank formula = loop-graph rank on {checked} instances, "
              "two length assignments each")


def _sum_piece_catalog():
    f5 = PrimeField(5)
    p1q = single_vertex_complex(P1Oracle(QQ))
    p1f = single_vertex_complex(P1Oracle(f5))
    ell = single_vertex_complex(EllipticOracle(5, 1, 1))
    circ = graphical_complex(circle_model())
    seg = as_trivial_complex(GraphModel(["a", "b"], [("e", "a", "b", 1)]))
    out = []
    o = p1q.oracles["s"]
    out.append((p1q, p1q.divisor(curve_parts={"s": o.divisor((QQ.elem(0), 2))}),
                ("s", QQ.elem(1))))
    out.append((p1q, p1q.zero_divisor(), ("s", QQ.elem(1))))
    oe = ell.oracles["s"]
    pts = oe.sample_points(3)
    out.append((ell, ell.zero_divisor(), ("s", O_POINT)))
    out.append((ell, ell.divisor(curve_parts={"s": oe.divisor((pts[1], 2))}),
                ("s", pts[2])))
    out.append((circ, circ.divisor(graph_pairs=[(circ.model.vertex_point("v"), 2)]),
                circ.model.vertex_point("v")))
    out.append((circ, circ.zero_divisor(), circ.model.vertex_point("v")))
    osa = seg.oracles["a"]
    out.append((seg, seg.divisor(curve_parts={"a": osa.divisor((QQ.elem(5), 1))}),
                ("b", QQ.elem(5))))
    op = p1f.oracles["s"]
    out.append((p1f, p1f.divisor(curve_parts={"s": op.divisor((f5.elem(3), 3))}),
                ("s", f5.elem(4))))
    return out


def test_criterion_6_connected_sum_equivalence():
    pieces = _sum_piece_catalog()
    rng = random.Random(6)
    checked = 0
    while checked < 20:
        cx1, d1, x1 = pieces[rng.randrange(len(pieces))]
        cx2, d2, x2 = pieces[rng.randrange(len(pieces))]
        if cx1 is cx2:
            continue
        formula = connected_sum_rank(cx1, d1, x1, cx2, d2, x2)
        glued = glue(cx1, x1, cx2, x2)
        direct = rank(glued.complex, glued.lift(1, d1) + glued.lift(2, d2))
        assert formula == direct, (
            f"connected sum mismatch: formula {formula} direct {direct}"
        )
        checked += 1
    # rational-tail invariance
    tail = single_vertex_complex(P1Oracle(QQ))
    tails = 0
    while tails < 10:
        cx1, d1, x1 = pieces[rng.randrange(len(pieces))]
        if cx1 is tail:
            continue
        got = connected_sum_rank(cx1, d1, x1, tail, tail.zero_divisor(),
                                 ("s", QQ.elem(0)))
        assert got == rank(cx1, d1)
        tails += 1
    report(6, f"connected-sum formula = direct rank on {checked} glued instances; "
              f"rational-tail invariance on {tails}")


def _exhaustive_nonspecial_single_elliptic(cx, d):
    """All minimal non-special candidates of the proof shape d - E + F on
    a one-vertex genus-one complex."""
    v = cx.oracle_vertices()[0]
    o = cx.oracles[v]
    pts = o.all_points()
    r = rank(cx, d, audit=True)
    out = []
    for e_size in range(r + 2):
        deficit = o.genus - 1 - (d.degree() - e_size)
        if deficit < 0:
            continue
        for e_combo in itertools.combinations_with_replacement(pts, e_size):
            rem = d.curve_part(v)
            for p in e_combo:
                rem = rem - o.divisor((p, 1))
            for f_combo in itertools.combinations_with_replacement(pts, deficit):
                n = rem
                for p in f_combo:
                    n = n + o.divisor((p, 1))
                if o.curve_rank(n) == -1:
                    out.append(cx.divisor(curve_parts={v: n}))
    return out


def test_criterion_7_moderator_audit():
    models = [
        ("theta trivial", as_trivial_complex(theta_model())),
        ("triangle trivial", as_trivial_complex(
            GraphModel(["a", "b", "c"],
                       [("e1", "a", "b", 1), ("e2", "b", "c", 1), ("e3", "c", "a", 1)]))),
        ("elliptic star", star_elliptic_complex()),
        ("four parallel", as_trivial_complex(
            GraphModel(["a", "b"],
                       [(f"e{i}", "a", "b", 1) for i in range(4)]))),
    ]
    total = 0
    for name, cx in models:
        orientations = list(enumerate_acyclic_orientations(cx.model))
        assert len(cx.model.edges) <= 4
        seen = 0
        for mod in moderator_sample(cx, per_vertex_cap=2):
            m = mod.divisor()
            assert m.degree() == cx.genus() - 1
            assert rank(cx, m) == -1, f"moderator of rank != -1 on {name}"
            assert linear_equiv(cx, m + mod.dual().divisor(), cx.canonical())
            seen += 1
            if seen >= 3 * len(orientations):
                break
        assert seen > 0
        total += seen
    # upper bound from the non-special sample dominates the rank on fuzz
    rng = random.Random(77)
    bound_checked = 0
    for _ in range(12):
        cx = random_complex(rng)
        if not cx.oracle_vertices():
            continue
        d = random_divisor(rng, cx, deg_lo=-2, deg_hi=4)
        sample = list(itertools.islice(moderator_sample(cx, per_vertex_cap=2), 10))
        if not sample:
            continue
        assert rank_bound_from_nonspecial(cx, d, sample) >= rank(cx, d)
        bound_checked += 1
    # equality where the non-special set is exhaustively enumerable
    cx = single_vertex_complex(EllipticOracle(5, 1, 1))
    o = cx.oracles["s"]
    pts = o.sample_points(4)
    eq_cases = [
        cx.zero_divisor(),
        cx.divisor(curve_parts={"s": o.divisor((pts[1], 2))}),
        cx.divisor(curve_parts={"s": o.divisor((pts[1], 1), (pts[2], 1))}),
        cx.divisor(curve_parts={"s": o.divisor((pts[1], 1), (pts[2], -1))}),
        cx.divisor(curve_parts={"s": o.divisor((pts[1], 3), (pts[3], -1))}),
    ]
    for d in eq_cases:
        sample = _exhaustive_nonspecial_single_elliptic(cx, d)
        assert rank_bound_from_nonspecial(cx, d, sample) == rank(cx, d, audit=True)
    report(7, f"{total} moderators of rank -1 with dual pairing canonical; "
              f"bound >= rank on {bound_checked} fuzz instances, equality on "
              f"{len(eq_cases)} exhaustive single-vertex genus-one instances")


def test_criterion_8_not_completable():
    rep = not_completable_audit(5, 1, 1)
    assert rep.passed(), rep.failures()
    names = [n for n, ok, _ in rep.checks]
    assert "degree-2 divisor has rank 1" in names
    assert "forced functions independent" in names
    report(8, "degree-2 rank-1 divisor reproduced over F5 with a "
              "3-dimensional forced span blocking every completion")


ONE = Poly.const(QQ, 1)


def _rf(num, den=None):
    return RationalFunc.make(num, den or ONE)


def test_criterion_9_limit_series_biconditional():
    o_check = P1Oracle(QQ)
    h = FunctionSpace(
        o_check,
        [_rf(ONE), _rf(Poly.make(QQ, [0, 0, 1, 1])), _rf(Poly.make(QQ, [0, 0, 0, 0, 1]))],
    )
    seq = vanishing_sequence(o_check.divisor((INF, 4)), h, QQ.elem(0))
    assert seq == (0, 2, 4)
    checked = 0
    mismatches = 0

    def run_instance(cx, vs, combo, d, r):
        nonlocal checked, mismatches
        aspects = {}
        for v, exps in zip(vs, combo):
            o = cx.oracles[v]
            aspects[v] = Aspect(o.divisor((INF, d)), qq_space(o, exps))
        ok_crude, _ = crude_limit_check(cx, aspects, d, r)
        div = eqD_divisor(cx, vs[0], {v: aspects[v].divisor for v in vs})
        spaces = {v: aspects[v].space for v in vs}
        rr = restricted_rank(cx, div, spaces)
        if ok_crude != (rr == r):
            mismatches += 1
        checked += 1

    # two-component chains: exhaustive over the catalog for d <= 3, r <= 2
    cx2 = line_chain(2)
    vs2 = list(cx2.model.vertices)
    for d, r in ((1, 0), (2, 1), (3, 1), (3, 2)):
        for combo in itertools.product(space_catalog(d, r), repeat=2):
            run_instance(cx2, vs2, combo, d, r)
    # three-component chains: exhaustive at d <= 2, strided at d = 3
    cx3 = line_chain(3)
    vs3 = list(cx3.model.vertices)
    for d, r in ((1, 0), (2, 1)):
        for combo in itertools.product(space_catalog(d, r), repeat=3):
            run_instance(cx3, vs3, combo, d, r)
    for d, r in ((3, 1), (3, 2)):
        catalog = space_catalog(d, r)
        triples = list(itertools.product(catalog, repeat=3))
        for combo in triples[:: max(1, len(triples) // 12)]:
            run_instance(cx3, vs3, combo, d, r)
    assert mismatches == 0
    report(9, f"limit-series biconditional exact on {checked} compact-type "
              "instances; vanishing sequence (0,2,4) reproduced")


def _regularization_catalog(rng):
    f7 = PrimeField(7)
    picks = []
    picks.append(regularize(NodalCurveDescription(
        {"A": P1Oracle(f7), "B": P1Oracle(f7)},
        [("A", f7.elem(0), "B", f7.elem(0))])))
    picks.append(regularize(NodalCurveDescription(
        {"A": P1Oracle(f7), "B": EllipticOracle(7, 2, 3)},
        [("A", f7.elem(0), "B", O_POINT)])))
    e = EllipticOracle(7, 2, 3)
    pts = e.sample_points(3)
    picks.append(regularize(NodalCurveDescription(
        {"A": EllipticOracle(7, 2, 3), "B": P1Oracle(f7)},
        [("A", O_POINT, "B", f7.elem(0)), ("A", pts[1], "B", f7.elem(1))])))
    picks.append(regularize(NodalCurveDescription(
        {"A": P1Oracle(f7), "B": P1Oracle(f7), "C": P1Oracle(f7)},
        [("A", f7.elem(0), "B", f7.elem(0)), ("B", f7.elem(1), "C", f7.elem(0)),
         ("C", f7.elem(1), "A", f7.elem(1))])))
    return picks


def test_criterion_10_rank_determining_robustness():
    rng = random.Random(10)
    agreed = 0
    while agreed < 50:
        cx = random_complex(rng, p=13)
        d = random_divisor(rng, cx, deg_lo=-2, deg_hi=4)
        ranks = {
            rank(cx, d, sites=rank_determining_sites(cx, seed=s)) for s in (0, 1, 2)
        }
        ranks.add(rank(cx, d, sites=rank_determining_sites(cx, oversize=2)))
        assert len(ranks) == 1, f"site choice changed the rank: {ranks}"
        agreed += 1
    cats = _regularization_catalog(rng)
    integral = 0
    while integral < 20:
        cx = cats[integral % len(cats)]
        d = random_divisor(rng, cx, deg_lo=-2, deg_hi=3)
        if d.graph.coeffs:
            continue
        assert combinatorial_rank(cx, d) == rank(cx, d)
        integral += 1
    report(10, f"rank stable under 4 site choices on {agreed} instances; "
               f"vertex-twist rank = rank on {integral} regularizations")


def _genus_representatives():
    return {
        0: single_vertex_complex(P1Oracle(QQ)),
        1: graphical_complex(circle_model()),
        2: graphical_complex(theta_model()),
        3: star_elliptic_complex(),
    }


def test_criterion_11_brill_noether_existence():
    reps = _genus_representatives()
    found = 0
    cases = []
    for g, cx in reps.items():
        assert cx.genus() == g
        for r in range(1, 4):
            for d in range(r, g + r + 1):
                if brill_noether_number(g, r, d) >= 0:
                    cases.append((g, cx, d, r))
    for g, cx, d, r in cases:
        witness, tried = bn_search(cx, d, r, budget=4000)
        assert witness is not None, f"no witness for (g,r,d)=({g},{r},{d})"
        assert rank(cx, witness) >= r
        found += 1
    report(11, f"Brill-Noether witnesses found for all {found} (g,r,d) cases "
               "with g <= 3 and non-negative rho")
