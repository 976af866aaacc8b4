"""Command-line interface: compute characters, enumerate tableaux and path
tuples, run verification suites, and report classical decompositions."""

from __future__ import annotations

import argparse
import json
import random
import sys

from .ring import RingElem, letter_str, make_type
from .shapes import parse_partition, shape
from .series import check_HE
from .jacobitrudi import chi_h, chi_e
from .paths import signed_path_sum, surviving_tuples_with_sum
from .tableaux import (
    RULESETS,
    enumerate_tableaux,
    resolve_ruleset,
    tableau_sum,
)
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
    tabs = enumerate_tableaux(t, s, ruleset=ruleset)
    total = RingElem.sum(T.weight(t, args.offset) for T in tabs)
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

    def text(o):
        lines = [f"count: {o['count']}"]
        for rows in o.get("tableaux", []):
            lines.append(" | ".join(" ".join(r) for r in rows))
        lines.append(f"sum: {o['weight_sum_text']}")
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
    if args.type == "A":
        report = verify_decomposition_A(parse_partition(args.lam), args.rank)
    elif args.type == "C":
        report = verify_decomposition_C(parse_partition(args.lam), args.rank)
    else:
        print(f"classical: unsupported type {args.type}", file=sys.stderr)
        return 2
    _emit(
        args,
        report,
        lambda o: "\n".join(f"{k}: {v}" for k, v in sorted(o.items())),
    )
    return 0 if report["equal"] else 1


# ---------------------------------------------------------------------------
# verify suites


def _random_shapes(rng, count, max_rows, max_cols, skew=True):
    out = []
    while len(out) < count:
        lam = sorted(
            (rng.randint(1, max_cols) for _ in range(rng.randint(1, max_rows))),
            reverse=True,
        )
        mu = []
        if skew:
            mu = [rng.randint(0, p) for p in lam]
            mu = [min(mu[: i + 1]) for i in range(len(mu))]
            mu = sorted(mu, reverse=True)
        out.append(shape(tuple(lam), tuple(p for p in mu if p)))
    return out


def _suite_he(args):
    failures = []
    for fam in ("A", "B", "C", "D"):
        for n in range(2, args.max_rank + 1):
            t = make_type(fam, n)
            if not check_HE(t, args.trunc):
                failures.append({"type": str(t), "trunc": args.trunc})
    return failures


def _suite_det(args):
    rng = random.Random(args.seed)
    failures = []
    for fam in ("A", "B", "C", "D"):
        for n in (2, 3):
            t = make_type(fam, n)
            for s in _random_shapes(rng, args.count, 3, 3):
                if chi_h(t, s) != chi_e(t, s):
                    failures.append({"type": str(t), "shape": repr(s)})
    return failures


def _suite_paths(args):
    rng = random.Random(args.seed)
    failures = []
    for fam in ("A", "B", "C"):
        for n in (2, 3):
            t = make_type(fam, n)
            for s in _random_shapes(rng, args.count, 3, 3):
                if signed_path_sum(t, s) != chi_h(t, s):
                    failures.append({"type": str(t), "shape": repr(s)})
    return failures


def _suite_tableaux(args, fam):
    rng = random.Random(args.seed)
    failures = []
    for n in (2, 3):
        t = make_type(fam, n)
        max_rows = 3 if fam != "A" else 4
        for s in _random_shapes(rng, args.count, max_rows, 3):
            if fam == "C" and len(s.lam) > 3 and s.lam[1] > 2:
                continue
            if tableau_sum(t, s) != chi_h(t, s):
                failures.append({"type": str(t), "shape": repr(s)})
    return failures


def _suite_appendixB(args):
    from .paths import p_k_tuples, p_tilde
    from .resolutions import (
        f1_12,
        f1_23,
        f2_13,
        g_map,
        is_p2_cross,
        transposed_index_pairs,
        condition_f1_12,
        condition_f1_23,
    )

    rng = random.Random(args.seed)
    t = make_type("C", 2)
    failures = []
    seen = set()
    for _ in range(args.count):
        lam = tuple(sorted((rng.randint(1, 3) for _ in range(3)), reverse=True))
        mu = []
        for i in range(3):
            hi = min(lam[i], mu[-1] if mu else lam[0])
            mu.append(rng.randint(0, hi))
        s = shape(lam, tuple(m for m in mu if m))
        if s in seen:
            continue
        seen.add(s)
        pk = p_k_tuples(t, s)
        p0, p1, p2 = pk.get(0, []), pk.get(1, []), pk.get(2, [])
        p2x = [p for p in p2 if is_p2_cross(t, p)]
        gset = set(tuple(g_map(t, p).paths) for p in p2x)
        p0set = set(tuple(p.paths) for p in p0)
        if gset | p0set != set(tuple(p.paths) for p in p_tilde(t, s)) or (
            gset & p0set
        ):
            failures.append({"suite": "g", "shape": repr(s)})
        im = set()
        for p in p1:
            pair = transposed_index_pairs(t, p)
            q = f1_12(t, p) if pair == [(1, 2)] else f1_23(t, p)
            if q.weight(t) != p.weight(t):
                failures.append({"suite": "f1-weight", "shape": repr(s)})
            im.add(tuple(q.paths))
        cond = set(
            tuple(p.paths)
            for p in p0
            if condition_f1_12(t, p) is not None
            or condition_f1_23(t, p) is not None
        )
        if im != cond:
            failures.append({"suite": "f1-image", "shape": repr(s)})
    return failures


def _suite_classical(args):
    failures = []
    for n in (1, 2, 3):
        for lam in [(1,), (2,), (1, 1), (2, 1), (3, 1), (2, 2)]:
            if len(lam) > n + 1:
                continue
            if not verify_decomposition_A(lam, n)["equal"]:
                failures.append({"type": f"A{n}", "lambda": lam})
    for n in (2, 3):
        for lam in [(1,), (2,), (1, 1), (2, 1), (2, 2), (3, 1)]:
            if len(lam) > n:
                continue
            if not verify_decomposition_C(lam, n)["equal"]:
                failures.append({"type": f"C{n}", "lambda": lam})
    return failures


SUITES = {
    "he": _suite_he,
    "det": _suite_det,
    "paths": _suite_paths,
    "tableaux-A": lambda a: _suite_tableaux(a, "A"),
    "tableaux-B": lambda a: _suite_tableaux(a, "B"),
    "tableaux-C": lambda a: _suite_tableaux(a, "C"),
    "appendixB": _suite_appendixB,
    "classical": _suite_classical,
}


def cmd_verify(args) -> int:
    # a bound below these runs no case and would pass vacuously
    bounds = (("count", args.count, 1), ("max-rank", args.max_rank, 2), ("trunc", args.trunc, 1))
    for flag, value, least in bounds:
        if value < least:
            raise ValueError(f"--{flag} must be at least {least}, got {value}")
    failures = SUITES[args.suite](args)
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
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
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
