"""Command-line interface: compute characters, enumerate tableaux and path
tuples, run verification suites, and report classical decompositions."""

from __future__ import annotations

import argparse
import json
import sys

from . import checks
from .ring import letter_str, make_type
from .shapes import parse_partition, shape
from .jacobitrudi import chi_h, chi_e
from .paths import model_status, surviving_tuples_with_sum
from .tableaux import RULESETS, resolve_ruleset, tableaux_with_sum
from .classical import verify_decomposition_A, verify_decomposition_C


def _emit(args, obj, text_fn):
    if args.output == "json":
        print(json.dumps(obj, sort_keys=True))
    else:
        print(text_fn(obj))


def _shape_from(args):
    lam = parse_partition(args.lam) if args.lam else ()
    mu = parse_partition(args.mu) if args.mu else ()
    return shape(lam, mu)


def _type_from(args):
    return make_type(args.type, args.rank)


def cmd_qchar(args) -> int:
    t = _type_from(args)
    s = _shape_from(args)
    out = {}
    for form, chi in (("h", chi_h), ("e", chi_e)):
        if args.form in (form, "both"):
            x = chi(t, s, args.offset)
            out[form] = x.to_json_obj()
            out[f"{form}_text"] = x.to_text()
    obj = {
        "type": str(t),
        "lambda": list(s.lam),
        "mu": list(s.mu),
        "offset": args.offset,
        **out,
    }
    return _emit(args, obj, lambda o: o.get("h_text") or o.get("e_text")) or 0


def cmd_tableaux(args) -> int:
    t = _type_from(args)
    s = _shape_from(args)
    ruleset = resolve_ruleset(t, s, args.ruleset)
    status = model_status(t, ruleset, s)
    tabs, total = tableaux_with_sum(t, s, args.offset, ruleset)
    obj = {
        "type": str(t),
        "lambda": list(s.lam),
        "mu": list(s.mu),
        "offset": args.offset,
        "ruleset": ruleset,
        "count": len(tabs),
        "weight_sum": total.to_json_obj(),
        "weight_sum_text": total.to_text(),
    }
    if not args.count:
        obj["tableaux"] = sorted(
            [[letter_str(c) for c in row] for row in T.cells] for T in tabs
        )
    if status != "proven":  # a sum that is not chi says so
        obj["model"] = status

    def text(o):
        lines = [f"count: {o['count']}"]
        for rows in o.get("tableaux", []):
            lines.append(" | ".join(" ".join(r) for r in rows))
        lines.append(f"sum: {o['weight_sum_text']}")
        if "model" in o:
            lines.append(f"model: {o['model']}")
        return "\n".join(lines)

    return _emit(args, obj, text) or 0


def cmd_paths(args) -> int:
    t = _type_from(args)
    s = _shape_from(args)
    tuples, total = surviving_tuples_with_sum(t, s, args.offset)
    items = []
    for p in tuples:
        d = p.to_json_obj()
        d["sign"] = p.sign()
        d["transposed_pairs"] = [
            [i + 1, j + 1] for i, j in p.transposed_pairs(t)
        ]
        items.append(d)
    items.sort(key=lambda d: d["paths"])
    obj = {
        "type": str(t),
        "lambda": list(s.lam),
        "mu": list(s.mu),
        "count": len(items),
        "tuples": items,
        "signed_sum": total.to_text(),
    }

    def text(o):
        lines = [f"count: {o['count']}"]
        for d in o["tuples"]:
            lines.append(
                f"sign={d['sign']:+d} transposed={d['transposed_pairs']} "
                + "; ".join(d["paths"])
            )
        lines.append(f"signed sum: {o['signed_sum']}")
        return "\n".join(lines)

    return _emit(args, obj, text) or 0


def cmd_classical(args) -> int:
    # the parser admits types A and C only
    verify = verify_decomposition_A if args.type == "A" else verify_decomposition_C
    report = verify(parse_partition(args.lam), args.rank)
    _emit(
        args,
        report,
        lambda o: "\n".join(f"{k}: {v}" for k, v in sorted(o.items())),
    )
    return 0 if report["equal"] else 1


def cmd_verify(args) -> int:
    # a bound below these runs no case and would pass vacuously
    bounds = (("count", args.count, 1), ("max-rank", args.max_rank, 2), ("trunc", args.trunc, 1))
    for flag, value, least in bounds:
        if value < least:
            raise ValueError(f"--{flag} must be at least {least}, got {value}")
    failures = checks.SUITES[args.suite](args)
    obj = {"suite": args.suite, "ok": not failures, "failures": failures}
    _emit(
        args,
        obj,
        lambda o: f"suite {o['suite']}: "
        + ("ok" if o["ok"] else f"FAILED {o['failures']}"),
    )
    return 0 if not failures else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qjt",
        description="Jacobi-Trudi characters, lattice paths and tableaux "
        "for classical quantum affine algebras",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    def common(p, with_shape=True):
        p.add_argument("--type", required=True, choices=["A", "B", "C", "D"])
        p.add_argument("--rank", required=True, type=int)
        if with_shape:
            p.add_argument("--lambda", dest="lam", required=True)
            p.add_argument("--mu", default="")
            p.add_argument("--offset", type=int, default=0)
        p.add_argument("--output", choices=["text", "json"], default="text")

    p = sub.add_parser("qchar", help="print the determinant character")
    common(p)
    p.add_argument("--form", choices=["h", "e", "both"], default="h")
    p.set_defaults(fn=cmd_qchar)

    p = sub.add_parser("tableaux", help="enumerate tableaux under a ruleset")
    common(p)
    p.add_argument("--ruleset", choices=list(RULESETS), default="auto")
    p.add_argument("--count", action="store_true", help="omit the listing")
    p.set_defaults(fn=cmd_tableaux)

    p = sub.add_parser("paths", help="enumerate path tuples")
    common(p)
    p.set_defaults(fn=cmd_paths)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=sorted(checks.SUITES))
    p.add_argument("--max-rank", type=int, default=3)
    p.add_argument("--trunc", type=int, default=8)
    p.add_argument("--seed", type=int, default=20260826)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--output", choices=["text", "json"], default="text")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("classical", help="classical decomposition report")
    p.add_argument("--type", required=True, choices=["A", "C"])
    p.add_argument("--rank", required=True, type=int)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--output", choices=["text", "json"], default="text")
    p.set_defaults(fn=cmd_classical)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
