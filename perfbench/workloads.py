"""The benchmark workloads: seeded input builders, the timed op, and each
op's independent self-check.

A workload is an object with
  prepare(seed, workdir) -> context   set-up shared by all ops of a run
  build(context, index) -> input      set-up for one op (never timed)
  op(input) -> str                    the timed query; returns a canonical
                                      result line and raises CheckFailed
                                      when its self-check fails.

Inputs of op `index` depend only on (seed, index), so the same seed gives
the same ops in the same order on every run.  Ops are stratified: op
`index` always draws from stratum `index % len(strata)` and the seed picks
the instance inside that stratum, so every run sees the same mix of input
sizes and the run-to-run spread comes from the instances, not the mix.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from fractions import Fraction

from mcdiv import cli
from mcdiv.complexes import (
    ComplexRationalFunction,
    MetrizedComplex,
    NodalCurveDescription,
    regularize,
)
from mcdiv.curves import EllipticOracle, O_POINT, P1Oracle, genus2_table_oracle
from mcdiv.exact import INF, Poly, PrimeField, QQ, RationalFunc
from mcdiv.limitseries import Aspect, FunctionSpace, crude_limit_check, eqD_divisor, restricted_rank
from mcdiv.metric import GraphModel, PLFunction
from mcdiv.rank import rr_audit
from mcdiv.reduction import reduce_divisor


class CheckFailed(Exception):
    """An op's result failed its independent self-check."""


def _rng(seed, index, salt=""):
    # str seeds hash through sha512, independent of PYTHONHASHSEED
    return random.Random(f"{salt}:{seed}:{index}")


def _betti(vertices, edges):
    return len(edges) - len(vertices) + 1


# -- rank_rr ------------------------------------------------------------------

_RR_SHAPES = {
    "segment": (["A", "B"], [("e1", "A", "B")]),
    "path3": (["A", "B", "C"], [("e1", "A", "B"), ("e2", "B", "C")]),
    "theta": (["A", "B"], [("e1", "A", "B"), ("e2", "A", "B"), ("e3", "A", "B")]),
    "banana": (["A", "B"], [("e1", "A", "B"), ("e2", "A", "B")]),
    "triangle": (["A", "B", "C"], [("e1", "A", "B"), ("e2", "B", "C"), ("e3", "C", "A")]),
    "loop+tail": (["A", "B"], [("e1", "A", "A"), ("e2", "A", "B")]),
    "star3": (["A", "B", "C", "D"], [("e1", "A", "B"), ("e2", "A", "C"), ("e3", "A", "D")]),
}
# (shape, genus).  Session cost grows steeply with the genus (genus 4 and
# 5 sessions take seconds), so the genus is part of the stratum and capped
# at 3; otherwise a handful of sessions would decide every run's numbers.
_RR_STRATA = [("segment", 1), ("path3", 2), ("theta", 2), ("banana", 3), ("triangle", 2),
              ("loop+tail", 3), ("star3", 2), ("segment", 2), ("theta", 3), ("banana", 2),
              ("triangle", 3), ("loop+tail", 2), ("path3", 3), ("star3", 1)]
_RR_LENGTHS = [Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(2)]


def _small_complex(rng, shape, genus):
    """A complex of the given genus on one of the small shapes, with
    graphical, P1/F5, elliptic/F5 or genus-2 table vertices (at most one
    table, at a vertex of degree <= 3)."""
    vertices, edges = _RR_SHAPES[shape]
    edges = [(n, u, v, rng.choice(_RR_LENGTHS)) for n, u, v in edges]
    model = GraphModel(list(vertices), edges)
    while True:
        kinds = {v: rng.choice(["graphical", "p1", "p1", "elliptic", "table"]) for v in vertices}
        tables = [v for v in vertices if kinds[v] == "table"]
        if len(tables) > 1 or any(model.degree(v) > 3 for v in tables):
            continue
        curve_genus = {"graphical": 0, "p1": 0, "elliptic": 1, "table": 2}
        if _betti(vertices, edges) + sum(curve_genus[k] for k in kinds.values()) == genus:
            break
    oracles, marks = {}, {}
    for v in vertices:
        if kinds[v] == "graphical":
            continue
        if kinds[v] == "p1":
            o = P1Oracle(PrimeField(5))
        elif kinds[v] == "elliptic":
            o = EllipticOracle(5, 1, 1)
        else:
            o = genus2_table_oracle()
        pts = o.sample_points(model.degree(v))
        oracles[v] = o
        marks[v] = {(e.name, end): p for (e, end), p in zip(model.incident_edges(v), pts)}
    return MetrizedComplex(model, oracles, marks)


def _random_divisor(rng, cx, target):
    """A divisor of the given degree with seeded chips on graphical
    vertices, interior edge points and curve points."""
    sites = [("g", cx.model.vertex_point(w)) for w in cx.graphical_vertices()]
    for name, e in sorted(cx.model.edges.items()):
        for q in (2, 3):
            sites.append(("g", cx.model.point_on(name, e.length / q)))
    for v in cx.oracle_vertices():
        o = cx.oracles[v]
        sites.extend(("c", (v, p)) for p in o.sample_points(min(3, 2 + o.genus)))
    graph, curves = {}, {}
    placed = 0
    picks = rng.randint(1, 3)
    for i in range(picks):
        kind, where = sites[rng.randrange(len(sites))]
        coeff = target - placed if i == picks - 1 else rng.randint(-2, 3)
        if coeff == 0:
            continue
        placed += coeff
        if kind == "g":
            graph[where] = graph.get(where, 0) + coeff
        else:
            v, p = where
            o = cx.oracles[v]
            curves[v] = curves.get(v, o.zero_divisor()) + o.divisor((p, coeff))
    return cx.divisor(graph_pairs=list(graph.items()), curve_parts=curves)


class RankRR:
    """One session: rr_audit on 4 divisors of one freshly built complex."""

    name = "rank_rr"
    divisors_per_session = 4

    def prepare(self, seed, workdir):
        return seed

    def build(self, seed, index):
        rng = _rng(seed, index, self.name)
        shape, genus = _RR_STRATA[index % len(_RR_STRATA)]
        cx = _small_complex(rng, shape, genus)
        # degrees spread evenly over -6..6 inside each session: the cost of
        # an audit depends mostly on where its degree sits against 2g - 2
        first = rng.randrange(13)
        degrees = [(first + 3 * k) % 13 - 6 for k in range(self.divisors_per_session)]
        divs = [(_random_divisor(rng, cx, deg), deg) for deg in degrees]
        return cx, genus, divs

    def op(self, inp):
        cx, genus, divs = inp
        out = []
        for d, deg in divs:
            rep = rr_audit(cx, d)
            lhs, rhs = rep.data["lhs"], rep.data["rhs"]
            if not rep.passed() or lhs - rhs != deg - genus + 1:
                raise CheckFailed(f"Riemann-Roch: r(D)={lhs}, r(K-D)={rhs}, deg={deg}, g={genus}")
            out.append(f"{lhs},{rhs}")
        return f"g={genus} " + " ".join(out)


# -- reduce_big ----------------------------------------------------------------

_F101 = PrimeField(101)
_BIG_LENGTHS = [Fraction(1), Fraction(1, 2), Fraction(3, 2)]
# (kind, size): complete graphs, chains of components, stars of elliptic
# leaves.  K6 is left out: its ops took 0.1-1 s with a 0.6 coefficient of
# variation and decided every run's 90th percentile on their own.
_BIG_STRATA = [("K", 4), ("chain", 4), ("star", 3), ("K", 5), ("chain", 6),
               ("star", 4), ("K", 4), ("chain", 8), ("star", 5), ("K", 5)]


def _big_complex(rng, kind, size):
    if kind == "K":
        vertices = [f"v{i}" for i in range(size)]
        edges = [(f"e{i}{j}", vertices[i], vertices[j])
                 for i, j in itertools.combinations(range(size), 2)]
    elif kind == "chain":
        vertices = [f"c{i}" for i in range(size)]
        edges = [(f"n{i}", vertices[i], vertices[i + 1]) for i in range(size - 1)]
    else:
        vertices = ["hub"] + [f"leaf{i}" for i in range(size)]
        edges = [(f"s{i}", "hub", f"leaf{i}") for i in range(size)]
    # complete graphs keep unit lengths: mixed lengths on 10-15 edges shrink
    # every firing step and make a few ops take seconds
    lengths = [Fraction(1)] if kind == "K" else _BIG_LENGTHS
    model = GraphModel(vertices, [(n, u, v, rng.choice(lengths)) for n, u, v in edges])
    oracles, marks = {}, {}
    for v in vertices:
        if kind == "star":
            o = P1Oracle(_F101) if v == "hub" else EllipticOracle(13, 1, 1)
        else:
            o = rng.choice([P1Oracle(_F101), P1Oracle(_F101), EllipticOracle(13, 1, 1)])
        pts = o.sample_points(model.degree(v) + 4)
        rng.shuffle(pts)
        oracles[v] = o
        marks[v] = {(e.name, end): p for (e, end), p in zip(model.incident_edges(v), pts)}
    return MetrizedComplex(model, oracles, marks)


def _big_divisor(rng, cx):
    """Degree-2 divisor with a fixed pattern, so ops differ by geometry
    rather than by how much debt they carry: one interior debt, two
    interior chips, one curve chip and one curve debt."""
    graph = {}
    names = sorted(cx.model.edges)
    for coeff in (-1, 1, 1):
        name = rng.choice(names)
        e = cx.model.edges[name]
        p = cx.model.point_on(name, e.length * Fraction(rng.choice((1, 2, 3)), 4))
        graph[p] = graph.get(p, 0) + coeff
    curves = {}
    for v, coeff in zip(rng.sample(cx.oracle_vertices(), 2), (1, -1)):
        o = cx.oracles[v]
        curves[v] = o.divisor((rng.choice(o.sample_points(6)), coeff))
    return cx.divisor(graph_pairs=list(graph.items()), curve_parts=curves)


def _big_function(rng, cx):
    """A PL function (tents on edges) plus principal curve witnesses."""
    f = PLFunction.constant(cx.model)
    for _ in range(rng.randint(1, 2)):
        name = rng.choice(sorted(cx.model.edges))
        e = cx.model.edges[name]
        mid = e.length * Fraction(rng.randint(1, 3), 4)
        eps = min(mid, e.length - mid) / 2
        apex = cx.model.point_on(name, mid)
        ref = cx.model.refinement(
            [apex, cx.model.point_on(name, mid - eps), cx.model.point_on(name, mid + eps)]
        )
        vals = {n: Fraction(0) for n in ref.nodes}
        vals[apex] = -eps
        f = f + PLFunction(ref, vals)
    wits = {}
    for v in cx.oracle_vertices():
        if rng.random() < 0.5:
            continue
        o = cx.oracles[v]
        p, q = rng.sample(o.sample_points(6), 2)
        if isinstance(o, P1Oracle):
            wits[v] = o.principal_witness(o.divisor((p, 1), (q, -1)))
        else:
            s = o.add_points(p, q)
            shift = o.divisor((p, 1), (q, 1), (s, -1), (O_POINT, -1))
            if shift.coeffs:
                wits[v] = shift
    return ComplexRationalFunction(cx, f, wits)


class ReduceBig:
    """reduce_divisor(D) and reduce_divisor(D + div f) with witnesses; the
    two reduced representatives must agree."""

    name = "reduce_big"

    def prepare(self, seed, workdir):
        return seed

    def build(self, seed, index):
        rng = _rng(seed, index, self.name)
        kind, size = _BIG_STRATA[index % len(_BIG_STRATA)]
        cx = _big_complex(rng, kind, size)
        d = _big_divisor(rng, cx)
        shifted = d + _big_function(rng, cx).divisor()
        v0 = cx.model.vertex_point(rng.choice(cx.model.vertices))
        return cx, d, shifted, v0

    def op(self, inp):
        cx, d, shifted, v0 = inp
        r1, _ = reduce_divisor(cx, d, v0, want_witness=True, check_witness=True)
        r2, _ = reduce_divisor(cx, shifted, v0, want_witness=True, check_witness=True)
        if r1.gamma_part() != r2.gamma_part():
            raise CheckFailed(f"gamma parts differ at {v0}: {r1!r} vs {r2!r}")
        for v in cx.oracle_vertices():
            if not cx.oracles[v].classes_equal(r1.curve_part(v), r2.curve_part(v)):
                raise CheckFailed(f"curve classes differ at {v}")
        return f"{v0!r} {r1!r} ~ {r2!r}"


# -- limit_series ----------------------------------------------------------------

_ONE = Poly.const(QQ, 1)
# (components, d, r).  The 3-chain strata with d = 3 take seconds per op
# and would leave too few ops per run for a steady 90th percentile.
_LS_STRATA = [(2, 1, 0), (2, 2, 1), (2, 3, 1), (3, 1, 0), (2, 2, 1), (2, 3, 1),
              (2, 3, 2), (2, 1, 0), (2, 3, 1), (3, 2, 1), (2, 2, 1), (2, 3, 1)]


def _space_catalog(d, r):
    """Subspaces of L(d*inf) of dimension r+1: monomial spans up to degree
    d, plus the binomial t^2 + t^3 twist where it fits."""
    picks = list(itertools.combinations(range(d + 1), r + 1))
    if d >= 3 and r + 1 <= 3:
        picks.append(tuple([0, "b", 3][: r + 1]))
    return picks


def _space(oracle, exps):
    basis = []
    for e in exps:
        coeffs = [0, 0, 1, 1] if e == "b" else [0] * e + [1]
        basis.append(RationalFunc.make(Poly.make(QQ, coeffs), _ONE))
    return FunctionSpace(oracle, basis)


def _chain(n):
    comps = {f"C{i}": P1Oracle(QQ) for i in range(n)}
    nodes = [(f"C{i}", QQ.elem(1) if i > 0 else QQ.elem(0), f"C{i + 1}", QQ.elem(0))
             for i in range(n - 1)]
    return regularize(NodalCurveDescription(comps, nodes))


class LimitSeries:
    """crude_limit_check + eqD_divisor + restricted_rank on one compact-type
    instance; asserts crude <=> (restricted rank = r).

    Each stratum walks a seeded permutation of its catalogue combinations,
    so a run covers the catalogue evenly instead of sampling it with
    replacement."""

    name = "limit_series"

    def prepare(self, seed, workdir):
        orders = {}
        for n, d, r in set(_LS_STRATA):
            combos = list(itertools.product(_space_catalog(d, r), repeat=n))
            _rng(seed, f"{n}/{d}/{r}", self.name).shuffle(combos)
            orders[(n, d, r)] = combos
        return orders

    def build(self, orders, index):
        key = _LS_STRATA[index % len(_LS_STRATA)]
        n, d, r = key
        # occurrences of this stratum before op `index`
        cycle, pos = divmod(index, len(_LS_STRATA))
        per_cycle = _LS_STRATA.count(key)
        seen = cycle * per_cycle + _LS_STRATA[:pos].count(key)
        combo = orders[key][seen % len(orders[key])]
        cx = _chain(n)
        vs = list(cx.model.vertices)
        aspects = {v: Aspect(cx.oracles[v].divisor((INF, d)), _space(cx.oracles[v], exps))
                   for v, exps in zip(vs, combo)}
        return cx, vs, aspects, d, r, combo

    def op(self, inp):
        cx, vs, aspects, d, r, combo = inp
        ok_crude, violations = crude_limit_check(cx, aspects, d, r)
        div = eqD_divisor(cx, vs[0], {v: aspects[v].divisor for v in vs})
        rr = restricted_rank(cx, div, {v: aspects[v].space for v in vs})
        if ok_crude != (rr == r):
            raise CheckFailed(f"biconditional fails: crude={ok_crude}, restricted rank={rr}, r={r}")
        return f"n={len(vs)} d={d} r={r} {list(combo)} crude={ok_crude}/{len(violations)} rr={rr}"


# -- cli_docs ----------------------------------------------------------------------

_THETA = os.path.join("scripts", "theta.json")
_F7 = 7


def _rat(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _p1_point(i):
    return {"x": str(i)}


_E13_POINTS = [p for p in EllipticOracle(13, 1, 1).all_points() if p is not O_POINT]


def _ell_point(p):
    return {"x": str(p.x.v), "y": str(p.y.v)}


def _doc_vertex(name, kind, ends):
    """A vertex record whose marks are the first points of its curve."""
    if kind == "graphical":
        return {"name": name}
    if kind == "p1":
        return {"name": name, "oracle": {"type": "p1", "field": _F7},
                "marks": {end: _p1_point(i) for i, end in enumerate(ends)}}
    return {"name": name, "oracle": {"type": "elliptic", "p": 13, "a": 1, "b": 1},
            "marks": {end: _ell_point(_E13_POINTS[i]) for i, end in enumerate(ends)}}


def _free_point(kind, used):
    """A curve point that is not among the first `used` marks."""
    return _p1_point(used) if kind == "p1" else _ell_point(_E13_POINTS[used])


def _weighted(rng):
    return {
        "vertices": [{"name": "a"}, {"name": "b"}],
        "edges": [{"name": "e", "ends": ["a", "b"], "length": _rat(rng.choice(_RR_LENGTHS))}],
        "weights": {"a": rng.randint(1, 2)},
        "divisors": {"D": [[{"vertex": rng.choice("ab")}, rng.randint(-1, 3)]]},
    }


def _elliptic_piece():
    """complex2: one elliptic curve with no edges."""
    return {"vertices": [{"name": "s", "oracle": {"type": "elliptic", "p": 13, "a": 1, "b": 1},
                          "marks": {}}], "edges": []}


def _complex_doc(rng, vertices, edges, kinds):
    """Document for a complex: divisors D1 (interior chips), D2 (mixed),
    a weighted graph, and a complex2 + glue section."""
    ends = {v: [] for v in vertices}
    edge_objs = []
    for name, u, v in edges:
        ends[u].append(f"{name}:0")
        ends[v].append(f"{name}:1")
        edge_objs.append({"name": name, "ends": [u, v], "length": _rat(rng.choice(_RR_LENGTHS))})
    vobjs = [_doc_vertex(v, kinds[v], ends[v]) for v in vertices]
    e0 = edge_objs[0]
    d1 = {"graph": [[{"edge": e0["name"], "offset": _rat(Fraction(e0["length"]) / 2)}, 1]]}
    curves = {}
    graph = []
    for v in vertices:
        if kinds[v] == "graphical":
            graph.append([{"vertex": v}, rng.randint(0, 1)])
        else:
            curves[v] = [[_free_point(kinds[v], len(ends[v])), rng.randint(0, 1)]]
    graph.append([{"edge": edge_objs[-1]["name"], "offset": _rat(Fraction(edge_objs[-1]["length"]) / 3)}, 1])
    glue_v = vertices[0]
    x1 = ({"vertex": glue_v} if kinds[glue_v] == "graphical"
          else {"vertex": glue_v, "point": _free_point(kinds[glue_v], len(ends[glue_v]) + 1)})
    return {
        "format": 1,
        "seed": 0,
        "complex": {"vertices": vobjs, "edges": edge_objs},
        "divisors": {"D1": d1, "D2": {"graph": graph, "curves": curves}},
        "weighted_graphs": {"W": _weighted(rng)},
        "complex2": _elliptic_piece(),
        "glue": {"x1": x1, "x2": {"vertex": "s", "point": _ell_point(_E13_POINTS[0])},
                 "length": _rat(rng.choice(_RR_LENGTHS))},
    }


def _kn_doc(rng, n):
    vertices = [f"v{i}" for i in range(n)]
    edges = [(f"e{i}{j}", vertices[i], vertices[j]) for i, j in itertools.combinations(range(n), 2)]
    kinds = {v: rng.choice(["graphical", "p1"]) for v in vertices}
    return _complex_doc(rng, vertices, edges, kinds)


def _star_doc(rng, leaves):
    vertices = ["hub"] + [f"l{i}" for i in range(leaves)]
    edges = [(f"s{i}", "hub", f"l{i}") for i in range(leaves)]
    kinds = {"hub": "p1", **{f"l{i}": "elliptic" for i in range(leaves)}}
    return _complex_doc(rng, vertices, edges, kinds)


def _chain_doc(rng, d, r, combo):
    """Chain of projective lines over Q with unit edges and a limit series
    of type (d, r) with one catalogue subspace per component."""
    n = len(combo)
    vertices = [f"C{i}" for i in range(n)]
    vobjs = []
    for i, v in enumerate(vertices):
        marks = {}
        if i > 0:
            marks[f"n{i - 1}:1"] = {"x": "0"}
        if i < n - 1:
            marks[f"n{i}:0"] = {"x": "1" if i > 0 else "0"}
        vobjs.append({"name": v, "oracle": {"type": "p1", "field": "Q"}, "marks": marks})
    edges = [{"name": f"n{i}", "ends": [vertices[i], vertices[i + 1]], "length": "1"}
             for i in range(n - 1)]
    aspects = {}
    for v, exps in zip(vertices, combo):
        basis = [{"num": ["0", "0", "1", "1"]} if e == "b" else {"num": ["0"] * e + ["1"]}
                 for e in exps]
        aspects[v] = {"divisor": [[{"inf": True}, d]], "basis": basis}
    return {
        "format": 1,
        "seed": 0,
        "complex": {"vertices": vobjs, "edges": edges},
        "divisors": {
            "D1": {"curves": {"C0": [[{"x": "2"}, 1]]}},
            "D2": {"curves": {v: [[{"x": "3"}, 1]] for v in vertices}},
        },
        "weighted_graphs": {"W": _weighted(rng)},
        "limit_series": {"L": {"root": "C0", "degree": d, "rank": r, "aspects": aspects}},
        "complex2": _elliptic_piece(),
        "glue": {"x1": {"vertex": "C0", "point": {"x": "5"}},
                 "x2": {"vertex": "s", "point": _ell_point(_E13_POINTS[0])},
                 "length": "1"},
    }


# One cycle of invocations: (document, argv after the file name).
_CLI_CYCLE = [
    ("theta", ["canonical"]),
    ("theta", ["rank", "--divisor", "K"]),
    ("theta", ["rr-check", "--divisor", "D1"]),
    ("theta", ["reduce", "--divisor", "D2", "--base", "u"]),
    ("theta", ["eta", "--divisor", "D1", "--point", "e1:1/4", "--k", "2"]),
    ("theta", ["wrank", "--weighted", "W", "--divisor", "D", "--audit"]),
    ("theta", ["weierstrass", "--point", "e1:1/2"]),
    ("theta", ["clifford-check", "--divisor", "K"]),
    ("theta", ["moderator-audit"]),
    ("theta", ["bn-search", "--d", "2", "--r", "1"]),
    ("k3", ["rank", "--divisor", "D2"]),
    ("k3", ["rr-check", "--divisor", "D1"]),
    ("k4", ["reduce", "--divisor", "D2", "--base", "v1"]),
    ("k3", ["glue-rank", "--divisor", "D1", "--audit"]),
    ("k3", ["moderator-audit"]),
    ("k4", ["canonical"]),
    ("chain2", ["limit-check", "--series", "L"]),
    ("chain3", ["limit-check", "--series", "L"]),
    ("chain2", ["wrank", "--weighted", "W", "--divisor", "D", "--audit"]),
    ("chain3", ["glue-rank", "--divisor", "D1", "--audit"]),
    ("star3", ["reduce", "--divisor", "D2", "--base", "hub"]),
    ("star3", ["rr-check", "--divisor", "D1"]),
    ("star3", ["eta", "--divisor", "D1", "--point", "s0:1/4", "--k", "2"]),
    ("chain2", ["bn-search", "--d", "1", "--r", "0"]),
]
# report fields that carry the command's own verdict
_VERDICT_FIELDS = ("identity", "agreement", "biconditional", "status", "bound")


class CliDocs:
    """One in-process `mcdiv.cli.main(argv)` with stdout captured; each call
    parses its document afresh, as a real invocation does."""

    name = "cli_docs"

    def prepare(self, seed, workdir):
        # each run covers the same limit-series catalogue, in seeded order
        chains = {}
        for key, n, d, r in (("chain2", 2, 2, 1), ("chain3", 3, 1, 0)):
            combos = list(itertools.product(_space_catalog(d, r), repeat=n))
            _rng(seed, key, self.name).shuffle(combos)
            chains[key] = (d, r, combos)
        return seed, workdir, chains, {}

    def _write_documents(self, ctx, k):
        """The generated documents of cycle k, one of each kind."""
        seed, workdir, chains, paths = ctx
        rng = _rng(seed, k, self.name)
        docs = {"k3": _kn_doc(rng, 3), "k4": _kn_doc(rng, 4), "star3": _star_doc(rng, 3)}
        for key, (d, r, combos) in chains.items():
            docs[key] = _chain_doc(rng, d, r, combos[k % len(combos)])
        for key, doc in docs.items():
            paths[key, k] = os.path.join(workdir, f"{key}-{k}.json")
            with open(paths[key, k], "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
        paths["theta", k] = _THETA

    def build(self, ctx, index):
        # every cycle gets documents of its own, so a run's numbers rest on
        # as many generated complexes as it has cycles
        seed, _, _, paths = ctx
        cycle, pos = divmod(index, len(_CLI_CYCLE))
        if ("theta", cycle) not in paths:
            self._write_documents(ctx, cycle)
        doc, args = _CLI_CYCLE[pos]
        return [args[0], paths[doc, cycle], *args[1:], "--seed", str(seed % 3), "--format", "json"]

    def op(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        text = out.getvalue()
        if code != 0:
            raise CheckFailed(f"exit {code} for {argv[0]}: {err.getvalue().strip()}")
        report = json.loads(text.splitlines()[0])
        for key in _VERDICT_FIELDS:
            if key in report and report[key] != "ok":
                raise CheckFailed(f"{argv[0]} reports {key}={report[key]}")
        return f"{argv[0]} {text.strip()}"


WORKLOADS = {w.name: w for w in (RankRR(), ReduceBig(), LimitSeries(), CliDocs())}
