"""Command-line front end: deterministic reports over document files.

Exit codes: 0 success, 1 computation error, 2 input error, 3 audit
failure.  Each command returns its report block and exit code (and
moderator-audit some prose); `main` alone prints them.  Reports start with
a machine-readable block of `key: value` lines; --format json emits one
JSON object instead.
"""

from __future__ import annotations

import argparse
import functools
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
from .io import _at, divisor_json, parse_document, parse_place, parse_rational


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_document(fh.read())
    except (OSError, UnicodeDecodeError) as err:
        raise InputError(f"cannot read {path}: {err}") from None


def _parse_base(cx, spec, flag):
    """Point syntax: 'vertex' or 'edge:offset'.  Errors name the flag."""
    with _at(flag):
        if ":" in spec:
            name, off = spec.rsplit(":", 1)
            return cx.model.point_on(name, parse_rational(off, flag))
        return cx.model.vertex_point(spec)


def _parse_point(cx, spec):
    """Point syntax: 'vertex' | 'edge:offset' | 'vertex@{json point}'."""
    if "@" in spec:
        vname, raw = spec.split("@", 1)
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as err:
            raise InputError(f"--point: not valid JSON after '@': {err}") from None
        return parse_place(cx, {"vertex": vname, "point": obj}, "--point")
    x = _parse_base(cx, spec, "--point")
    if x.kind == "v" and cx.is_oracle_vertex(x.where):
        raise InputError(f"--point: {x.where} carries a curve; give VERTEX@{{json point}}")
    return x


def _need_divisor(doc, args):
    name = args.divisor
    if name is None:
        raise InputError("missing --divisor NAME")
    if name not in doc.divisors:
        raise InputError(f"unknown divisor {name!r}")
    return doc.divisors[name]


def _audited(args, block, value, direct):
    """The report and exit code of a command whose --audit recomputes its
    value another way: `direct()` goes in the block with their agreement,
    and a disagreement exits 3."""
    if not args.audit:
        return block, 0
    block["direct"] = other = direct()
    block["agreement"] = "ok" if other == value else "FAIL"
    return block, 0 if other == value else 3


def cmd_rank(doc, args):
    d = _need_divisor(doc, args)
    r = rank_of(doc.complex, d, seed=args.seed, audit=args.audit)
    return {"rank": r, "degree": d.degree(), "genus": doc.complex.genus()}, 0


def cmd_canonical(doc, args):
    k = doc.complex.canonical()
    return {
        "degree": k.degree(),
        "genus": doc.complex.genus(),
        "divisor": json.dumps(divisor_json(doc.complex, k), sort_keys=True),
    }, 0


def cmd_reduce(doc, args):
    d = _need_divisor(doc, args)
    if args.base is None:
        raise InputError("missing --base POINT")
    v0 = _parse_base(doc.complex, args.base, "--base")
    cap = reduction.DEFAULT_EVENT_CAP if args.budget is None else args.budget
    red, wit = reduction.reduce_divisor(doc.complex, d, v0, cap=cap)
    return {
        "reduced": json.dumps(divisor_json(doc.complex, red), sort_keys=True),
        "witness-breakpoints": len(wit.f_gamma.values),
        "witness-curve-shifts": len(wit.witnesses),
        "identity": "ok",
    }, 0


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
    return block, 0 if rep.passed() else 3


def cmd_clifford_check(doc, args):
    d = _need_divisor(doc, args)
    rep = clifford_audit(doc.complex, d, seed=args.seed)
    block = {"special": rep.data["special"]}
    if rep.data["special"]:
        block["rank"] = rep.data["rank"]
        block["degree"] = rep.data["deg"]
        block["bound"] = "ok" if rep.passed() else "FAIL"
    return block, 0 if rep.passed() else 3


def cmd_eta(doc, args):
    d = _need_divisor(doc, args)
    if args.point is None:
        raise InputError("missing --point")
    x = _parse_point(doc.complex, args.point)
    kmax = args.k if args.k is not None else 3
    fn = decomposition.EtaFunction(doc.complex, d, x, seed=args.seed)
    return {f"eta({k})": fn(k) for k in range(kmax + 1)}, 0


def cmd_wrank(doc, args):
    if args.weighted is None or args.weighted not in doc.weighted:
        raise InputError("missing or unknown --weighted NAME")
    wg, divisors = doc.weighted[args.weighted]
    if args.divisor is None or args.divisor not in divisors:
        raise InputError("missing or unknown --divisor NAME (inside the weighted graph)")
    d = divisors[args.divisor]
    val = decomposition.weighted_rank(wg, d, seed=args.seed)
    return _audited(args, {"weighted-rank": val, "degree": d.degree()}, val,
                    lambda: decomposition.sharp_rank(wg, d, seed=args.seed))


def cmd_glue_rank(doc, args):
    if doc.glue is None:
        raise InputError("document needs 'complex2' and 'glue' sections")
    x1, x2, length = doc.glue
    d1 = _need_divisor(doc, args)
    d2 = doc.complex2.zero_divisor()
    formula = decomposition.connected_sum_rank(
        doc.complex, d1, x1, doc.complex2, d2, x2, seed=args.seed
    )

    def direct():
        glued = decomposition.glue(doc.complex, x1, doc.complex2, x2, length)
        return rank_of(glued.complex, glued.lift(1, d1) + glued.lift(2, d2), seed=args.seed)

    return _audited(args, {"formula-rank": formula}, formula, direct)


def cmd_limit_check(doc, args):
    if args.series is None or args.series not in doc.limit_series:
        raise InputError("missing or unknown --series NAME")
    spec = doc.limit_series[args.series]
    explicit = all(
        not isinstance(a, limitseries.VanishingTable)
        for a in spec["aspects"].values()
    )
    if not explicit:
        ok, violations = limitseries.crude_limit_check(
            doc.complex, spec["aspects"], spec["degree"], spec["rank"]
        )
        return {"crude-limit": "ok" if ok else "FAIL", "violations": len(violations)}, 0
    # the audit runs the crude check itself
    rep = limitseries.limit_equiv_audit(
        doc.complex, spec["aspects"], spec["root"], spec["degree"], spec["rank"]
    )
    block = {"crude-limit": "ok" if rep.data["crude"] else "FAIL",
             "violations": len(rep.data["violations"])}
    block["restricted-rank"] = rep.data["restricted_rank"]
    block["biconditional"] = "ok" if rep.passed() else "FAIL"
    return block, 0 if rep.passed() else 3


def cmd_moderator_audit(doc, args):
    cx = doc.complex
    count = 0
    bad = []
    budget = 64 if args.budget is None else args.budget
    canonical = cx.canonical()
    for mod in moderator_sample(cx, per_vertex_cap=3):
        m = mod.divisor()
        if rank_of(cx, m, seed=args.seed) != -1:
            bad.append(("rank", repr(m)))
        dual = mod.dual().divisor()
        if not linear_equiv(cx, m + dual, canonical):
            bad.append(("dual", repr(m)))
        count += 1
        if count >= budget:
            break
    block = {
        "moderators-checked": count,
        "failures": len(bad),
        "status": "ok" if not bad else "FAIL",
    }
    return block, 0 if not bad else 3, "\n".join(f"{k}: {w}" for k, w in bad[:5])


def cmd_bn_search(doc, args):
    if args.d is None or args.r is None:
        raise InputError("missing --d and --r")
    g = doc.complex.genus()
    rho = decomposition.brill_noether_number(g, args.r, args.d)
    budget = 2000 if args.budget is None else args.budget
    witness, tried = decomposition.bn_search(
        doc.complex, args.d, args.r, budget=budget, seed=args.seed
    )
    block = {"genus": g, "rho": rho, "tried": tried}
    if witness is None:
        block["found"] = "no"
        return block, 0 if rho < 0 else 1
    block["found"] = "yes"
    block["witness"] = json.dumps(divisor_json(doc.complex, witness), sort_keys=True)
    return block, 0


def cmd_weierstrass(doc, args):
    if args.point is None:
        raise InputError("missing --point")
    pt = _parse_point(doc.complex, args.point)
    val = is_weierstrass(doc.complex, pt, seed=args.seed)
    return {"weierstrass": "yes" if val else "no"}, 0


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


@functools.cache  # built on the first call, then shared by every main call
def build_parser():
    p = argparse.ArgumentParser(
        prog="mcdiv",
        description="exact divisor theory on metrized complexes of curves",
    )
    p.add_argument("command", choices=sorted(COMMANDS))
    p.add_argument("file", help="JSON document")
    p.add_argument("--divisor", help="named divisor in the document")
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
        for flag, least in (("budget", 1), ("d", 0), ("k", 0), ("r", 0), ("seed", 0)):
            value = getattr(args, flag)
            if value is not None and value < least:
                raise InputError(f"--{flag}: must be at least {least}, got {value}")
        doc = _load(args.file)
        if args.seed is None:
            args.seed = doc.seed
        block, code, *prose = COMMANDS[args.command](doc, args)
    except InputError as err:
        print(f"input error: {err}", file=sys.stderr)
        return 2
    except AuditError as err:
        print(f"audit failure: {err}", file=sys.stderr)
        return 3
    except (BudgetError, McdivError) as err:
        print(f"computation error: {err}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps(block, sort_keys=True))
        return code
    for k, v in block.items():
        print(f"{k}: {v}")
    if any(prose):
        print(f"\n{prose[0]}")
    return code


if __name__ == "__main__":
    sys.exit(main())
