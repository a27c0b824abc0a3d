"""Command-line front end: deterministic reports over document files.

Exit codes: 0 success, 1 computation error, 2 input error, 3 audit
failure.  Reports start with a machine-readable block of `key: value`
lines; --format json emits one JSON object instead.
"""

from __future__ import annotations

import argparse
import json
import sys
from . import decomposition, limitseries, reduction
from .rank import (
    clifford_audit,
    is_weierstrass,
    linear_equiv,
    moderator_sample,
    rank as rank_of,
    rr_audit,
)
from .errors import AuditError, BudgetError, InputError, McdivError
from .io import divisor_json, parse_document, parse_rational


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_document(fh.read())
    except (OSError, UnicodeDecodeError) as err:
        raise InputError(f"cannot read {path}: {err}") from None


def _parse_base(cx, spec):
    """Base point syntax: 'vertex' or 'edge:offset'."""
    if ":" in spec:
        name, off = spec.rsplit(":", 1)
        return cx.model.point_on(name, parse_rational(off, "--base"))
    return cx.model.vertex_point(spec)


def _parse_point(cx, spec):
    """Point syntax: 'vertex' | 'edge:offset' | 'vertex@{json point}'."""
    if "@" in spec:
        vname, raw = spec.split("@", 1)
        if not cx.is_oracle_vertex(vname):
            raise InputError(f"{vname} carries no curve")
        from .io import parse_curve_point

        return (vname, parse_curve_point(cx.oracles[vname], json.loads(raw), "--point"))
    return _parse_base(cx, spec)


def _need_divisor(doc, args):
    name = args.divisor
    if name is None:
        raise InputError("missing --divisor NAME")
    if name not in doc.divisors:
        raise InputError(f"unknown divisor {name!r}")
    return doc.divisors[name]


def _emit(args, block, prose=""):
    if args.format == "json":
        print(json.dumps(block, sort_keys=True))
    else:
        for k, v in block.items():
            print(f"{k}: {v}")
        if prose:
            print()
            print(prose)


def cmd_rank(doc, args):
    d = _need_divisor(doc, args)
    r = rank_of(doc.complex, d, seed=args.seed, audit=args.audit)
    _emit(args, {"rank": r, "degree": d.degree(), "genus": doc.complex.genus()})
    return 0


def cmd_canonical(doc, args):
    k = doc.complex.canonical()
    _emit(
        args,
        {
            "degree": k.degree(),
            "genus": doc.complex.genus(),
            "divisor": json.dumps(divisor_json(doc.complex, k), sort_keys=True),
        },
    )
    return 0


def cmd_reduce(doc, args):
    d = _need_divisor(doc, args)
    if args.base is None:
        raise InputError("missing --base POINT")
    v0 = _parse_base(doc.complex, args.base)
    cap = args.budget or reduction.DEFAULT_EVENT_CAP
    red, wit = reduction.reduce_divisor(doc.complex, d, v0, cap=cap)
    shifts = sum(1 for s in wit.shifts.values() if s.coeffs)
    _emit(
        args,
        {
            "reduced": json.dumps(divisor_json(doc.complex, red), sort_keys=True),
            "witness-breakpoints": len(wit.f_gamma.values),
            "witness-curve-shifts": shifts,
            "identity": "ok",
        },
    )
    return 0


def cmd_rr_check(doc, args):
    d = _need_divisor(doc, args)
    rep = rr_audit(doc.complex, d, seed=args.seed)
    block = {
        "lhs": f"r(D)={rep.data['lhs']}",
        "rhs": f"r(K-D)={rep.data['rhs']}",
        "degree": rep.data["deg"],
        "genus": rep.data["genus"],
        "identity": "ok" if rep.passed() else "FAIL",
    }
    _emit(args, block)
    return 0 if rep.passed() else 3


def cmd_clifford_check(doc, args):
    d = _need_divisor(doc, args)
    rep = clifford_audit(doc.complex, d, seed=args.seed)
    block = {"special": rep.data["special"]}
    if rep.data["special"]:
        block["rank"] = rep.data["rank"]
        block["degree"] = rep.data["deg"]
        block["bound"] = "ok" if rep.passed() else "FAIL"
    _emit(args, block)
    return 0 if rep.passed() else 3


def cmd_eta(doc, args):
    d = _need_divisor(doc, args)
    if args.point is None:
        raise InputError("missing --point")
    x = _parse_point(doc.complex, args.point)
    kmax = args.k if args.k is not None else 3
    fn = decomposition.EtaFunction(doc.complex, d, x, seed=args.seed)
    vals = {f"eta({k})": fn(k) for k in range(kmax + 1)}
    _emit(args, vals)
    return 0


def cmd_wrank(doc, args):
    if args.weighted is None or args.weighted not in doc.weighted:
        raise InputError("missing or unknown --weighted NAME")
    wg, divisors = doc.weighted[args.weighted]
    if args.divisor is None or args.divisor not in divisors:
        raise InputError("missing or unknown --divisor NAME (inside the weighted graph)")
    d = divisors[args.divisor]
    val = decomposition.weighted_rank(wg, d, seed=args.seed)
    block = {"weighted-rank": val, "degree": d.degree()}
    if args.audit:
        direct = decomposition.sharp_rank(wg, d, seed=args.seed)
        block["direct"] = direct
        block["agreement"] = "ok" if direct == val else "FAIL"
        _emit(args, block)
        return 0 if direct == val else 3
    _emit(args, block)
    return 0


def cmd_glue_rank(doc, args):
    if doc.complex2 is None or doc.glue_spec is None:
        raise InputError("document needs 'complex2' and 'glue' sections")
    from .io import parse_curve_point, parse_graph_point

    def attach(cx, spec, path):
        if "point" in spec:
            v = spec.get("vertex")
            if not cx.is_oracle_vertex(v):
                raise InputError(f"{path}: {v} carries no curve")
            return (v, parse_curve_point(cx.oracles[v], spec["point"], path))
        return parse_graph_point(cx.model, spec, path)

    x1 = attach(doc.complex, doc.glue_spec.get("x1", {}), "glue.x1")
    x2 = attach(doc.complex2, doc.glue_spec.get("x2", {}), "glue.x2")
    length = parse_rational(doc.glue_spec.get("length", 1), "glue.length")
    d1 = _need_divisor(doc, args)
    d2name = args.divisor2 or "0"
    if d2name == "0":
        d2 = doc.complex2.zero_divisor()
    else:
        raise InputError("second divisor must live in the first document "
                         "(use divisor2 '0' or extend the document)")
    formula = decomposition.connected_sum_rank(
        doc.complex, d1, x1, doc.complex2, d2, x2, seed=args.seed
    )
    block = {"formula-rank": formula}
    if args.audit:
        glued = decomposition.glue(doc.complex, x1, doc.complex2, x2, length)
        direct = rank_of(
            glued.complex, glued.lift(1, d1) + glued.lift(2, d2), seed=args.seed
        )
        block["direct"] = direct
        block["agreement"] = "ok" if direct == formula else "FAIL"
        _emit(args, block)
        return 0 if direct == formula else 3
    _emit(args, block)
    return 0


def cmd_limit_check(doc, args):
    if args.series is None or args.series not in doc.limit_series:
        raise InputError("missing or unknown --series NAME")
    spec = doc.limit_series[args.series]
    ok, violations = limitseries.crude_limit_check(
        doc.complex, spec["aspects"], spec["degree"], spec["rank"]
    )
    block = {"crude-limit": "ok" if ok else "FAIL", "violations": len(violations)}
    explicit = all(
        not isinstance(a, limitseries.VanishingTable)
        for a in spec["aspects"].values()
    )
    if explicit:
        rep = limitseries.limit_equiv_audit(
            doc.complex, spec["aspects"], spec["root"], spec["degree"], spec["rank"]
        )
        block["restricted-rank"] = rep.data["restricted_rank"]
        block["biconditional"] = "ok" if rep.passed() else "FAIL"
        _emit(args, block)
        return 0 if rep.passed() else 3
    _emit(args, block)
    return 0


def cmd_moderator_audit(doc, args):
    cx = doc.complex
    count = 0
    bad = []
    budget = args.budget or 64
    for mod in moderator_sample(cx, per_vertex_cap=3):
        m = mod.divisor()
        if rank_of(cx, m, seed=args.seed) != -1:
            bad.append(("rank", repr(m)))
        dual = mod.dual().divisor()
        if not linear_equiv(cx, m + dual, cx.canonical()):
            bad.append(("dual", repr(m)))
        count += 1
        if count >= budget:
            break
    block = {
        "moderators-checked": count,
        "failures": len(bad),
        "status": "ok" if not bad else "FAIL",
    }
    _emit(args, block, prose="\n".join(f"{k}: {w}" for k, w in bad[:5]))
    return 0 if not bad else 3


def cmd_bn_search(doc, args):
    if args.d is None or args.r is None:
        raise InputError("missing --d and --r")
    g = doc.complex.genus()
    rho = decomposition.brill_noether_number(g, args.r, args.d)
    budget = args.budget or 2000
    witness, tried = decomposition.bn_search(
        doc.complex, args.d, args.r, budget=budget, seed=args.seed
    )
    block = {"genus": g, "rho": rho, "tried": tried}
    if witness is None:
        block["found"] = "no"
        _emit(args, block)
        return 0 if rho < 0 else 1
    block["found"] = "yes"
    block["witness"] = json.dumps(divisor_json(doc.complex, witness), sort_keys=True)
    _emit(args, block)
    return 0


def cmd_weierstrass(doc, args):
    if args.point is None:
        raise InputError("missing --point")
    pt = _parse_point(doc.complex, args.point)
    val = is_weierstrass(doc.complex, pt, seed=args.seed)
    _emit(args, {"weierstrass": "yes" if val else "no"})
    return 0


COMMANDS = {
    "rank": cmd_rank,
    "reduce": cmd_reduce,
    "rr-check": cmd_rr_check,
    "clifford-check": cmd_clifford_check,
    "eta": cmd_eta,
    "wrank": cmd_wrank,
    "glue-rank": cmd_glue_rank,
    "limit-check": cmd_limit_check,
    "canonical": cmd_canonical,
    "moderator-audit": cmd_moderator_audit,
    "bn-search": cmd_bn_search,
    "weierstrass": cmd_weierstrass,
}


def build_parser():
    p = argparse.ArgumentParser(
        prog="mcdiv",
        description="exact divisor theory on metrized complexes of curves",
    )
    p.add_argument("command", choices=sorted(COMMANDS))
    p.add_argument("file", help="JSON document")
    p.add_argument("--divisor", help="named divisor in the document")
    p.add_argument("--divisor2", help="second divisor name (glue-rank)")
    p.add_argument("--base", help="base point: VERTEX or EDGE:OFFSET")
    p.add_argument("--point", help="point: VERTEX, EDGE:OFFSET, or VERTEX@{json}")
    p.add_argument("--series", help="named limit series (limit-check)")
    p.add_argument("--weighted", help="named weighted graph (wrank)")
    p.add_argument("--seed", type=int, default=None, help="sampling seed")
    p.add_argument("--audit", action="store_true", help="disable shortcuts, cross-check")
    p.add_argument("--budget", type=int, help="search/iteration cap")
    p.add_argument("--k", type=int, help="eta: largest k to report")
    p.add_argument("--d", type=int, help="bn-search: degree")
    p.add_argument("--r", type=int, help="bn-search: target rank")
    p.add_argument("--format", choices=["text", "json"], default="text")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = _load(args.file)
        if args.seed is None:
            args.seed = doc.seed
        code = COMMANDS[args.command](doc, args)
        return code
    except InputError as err:
        print(f"input error: {err}", file=sys.stderr)
        return 2
    except AuditError as err:
        print(f"audit failure: {err}", file=sys.stderr)
        return 3
    except (BudgetError, McdivError) as err:
        print(f"computation error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
