"""Verification checks: the resolution-map lemmas of a three-row C shape,
and the seeded suites of ``qjt verify``, which take its parsed flags (seed,
count, max_rank, trunc) and return one dict per failing case."""

from __future__ import annotations

import random
from functools import partial

from . import resolutions
from .ring import AlgType, make_type
from .shapes import SkewShape, shape
from .series import check_HE
from .jacobitrudi import chi_h, chi_e
from .paths import p_k_tuples, p_tilde, signed_path_sum
from .tableaux import enumerate_tableaux, path_tuple_to_tableau, satisfies_2row_rule, satisfies_3row_rule
from .tableaux import tableau_sum
from .classical import verify_decomposition_A, verify_decomposition_C


# ---------------------------------------------------------------------------
# The resolution-map lemmas


def _key(pt) -> tuple:
    return tuple(pt.paths)


def _apply(f, t: AlgType, domain) -> list:
    """f on each tuple of domain, or no images if f is undefined on one."""
    try:
        return [f(t, p) for p in domain]
    except (resolutions.NotApplicable, ValueError):
        return []


def _has_block(n: int, T) -> bool:
    """Whether some two columns hold (n-bar, n) in each of the three rows."""
    return any(
        all(T.entry(i, j) == -n and T.entry(i, j + 1) == n for i in (1, 2, 3))
        for j in range(1, T.shape.lam[1] + 1)
    )


def resolution_maps(t: AlgType, s: SkewShape) -> list[str]:
    """The names of the resolution-map lemmas that fail on a three-row C
    shape; empty when all hold.  P_k is the class of tuples with k
    transposed pairs, and P_2 splits into the g-domain (both crossing
    corners on the tuple) and the f2-domain.  The maps are looked up in
    ``qjt.resolutions`` at call time; one that raises on its domain fails
    as undefined."""
    R = resolutions
    failed = []

    def holds(ok: bool, lemma: str):
        if not ok:
            failed.append(lemma)

    pk = p_k_tuples(t, s)
    holds(all(k <= 2 for k in pk), "classes: none beyond P2")
    p0, p1, p2 = (pk.get(k, []) for k in range(3))
    p1_12 = [p for p in p1 if R.transposed_index_pairs(t, p) == [(1, 2)]]
    p1_23 = [p for p in p1 if R.transposed_index_pairs(t, p) == [(2, 3)]]
    holds(len(p1_12) + len(p1_23) == len(p1), "classes: P1 = P1,12 + P1,23")
    p2x = [p for p in p2 if R.is_p2_cross(t, p)]
    p2o = [p for p in p2 if not R.is_p2_cross(t, p)]
    tilde = p_tilde(t, s)
    hv = enumerate_tableaux(t, s, "hv")

    # g keeps weight and sign, and its image tiles P~ together with P0
    gs = _apply(R.g_map, t, p2x)
    holds(len(gs) == len(p2x), "g: defined")
    holds(all(q.weight(t) == p.weight(t) and q.sign() == p.sign() for p, q in zip(p2x, gs)), "g: weight and sign")
    g_set, p0_set = set(map(_key, gs)), set(map(_key, p0))
    holds(len(g_set) == len(gs), "g: injective")
    holds(not g_set & p0_set, "g: image disjoint from P0")
    holds(g_set | p0_set == set(map(_key, tilde)), "g: image and P0 tile P~")
    g_tabs = {path_tuple_to_tableau(t, p).cells for p in tilde if _key(p) in g_set}
    holds(g_tabs == {T.cells for T in hv if _has_block(t.rank, T)}, "g: tableaux with an (n-bar, n) block")

    # each f map keeps weight, flips sign, lands in its class, and is an
    # injection onto the tuples of that class that its image condition picks
    maps = (
        ("f2_13", R.f2_13, p2o, [(2, 3)], p1_23, R.condition_f2_13),
        ("f2_23", R.f2_23, p2o, [(1, 2)], p1_12, R.condition_f2_23),
        ("f1_12", R.f1_12, p1_12, [], p0, R.condition_f1_12),
        ("f1_23", R.f1_23, p1_23, [], p0, R.condition_f1_23),
    )
    images = {}
    for name, f, domain, pairs, target, condition in maps:
        qs = images[name] = _apply(f, t, domain)
        holds(len(qs) == len(domain), f"{name}: defined")
        holds(all(q.weight(t) == p.weight(t) for p, q in zip(domain, qs)), f"{name}: weight")
        holds(all(q.sign() == -p.sign() for p, q in zip(domain, qs)), f"{name}: sign")
        holds(all(R.transposed_index_pairs(t, q) == pairs for q in qs), f"{name}: class")
        im = set(map(_key, qs))
        holds(len(im) == len(qs), f"{name}: injective")
        holds(im == {_key(p) for p in target if condition(t, p) is not None}, f"{name}: image is the condition set")

    # the f1 images meet in the image of either composition f1 f2, and give
    # exactly the hv tableaux that the two- or three-row rule rejects
    im12, im23 = set(map(_key, images["f1_12"])), set(map(_key, images["f1_23"]))
    comp13, comp23 = _apply(R.f1_23, t, images["f2_13"]), _apply(R.f1_12, t, images["f2_23"])
    holds(
        len(comp13) == len(comp23) == len(p2o) and im12 & im23 == set(map(_key, comp13)) == set(map(_key, comp23)),
        "overlap: Im f1_12 & Im f1_23 = Im f1_23 f2_13 = Im f1_12 f2_23",
    )
    f1_tabs = {path_tuple_to_tableau(t, p).cells for p in p0 if _key(p) in im12 | im23}
    rejected = {T.cells for T in hv if not (satisfies_2row_rule(t, T) and satisfies_3row_rule(t, T))}
    holds(f1_tabs == rejected, "row rules: f1 images are the rejected tableaux")
    return failed


# ---------------------------------------------------------------------------
# The suites of ``qjt verify``


def _random_shapes(rng, count, max_rows, max_cols):
    out = []
    while len(out) < count:
        lam = sorted(
            (rng.randint(1, max_cols) for _ in range(rng.randint(1, max_rows))),
            reverse=True,
        )
        mu = [rng.randint(0, p) for p in lam]
        mu = [min(mu[: i + 1]) for i in range(len(mu))]
        out.append(shape(tuple(lam), tuple(p for p in mu if p)))
    return out


def _he(args):
    failures = []
    for fam in ("A", "B", "C", "D"):
        for n in range(2, args.max_rank + 1):
            t = make_type(fam, n)
            if not check_HE(t, args.trunc):
                failures.append({"type": str(t), "trunc": args.trunc})
    return failures


# suite -> (families, max rows of its random shapes, lhs of lhs == chi_h); the
# lambdas look the functions up at call time, so that tracers which wrap
# module functions (perfbench) still see each call
_IDENTITIES = {
    "det": ("ABCD", 3, lambda t, s: chi_e(t, s)),
    "paths": ("ABC", 3, lambda t, s: signed_path_sum(t, s)),
    "tableaux-A": ("A", 4, lambda t, s: tableau_sum(t, s)),
    "tableaux-B": ("B", 3, lambda t, s: tableau_sum(t, s)),
    "tableaux-C": ("C", 3, lambda t, s: tableau_sum(t, s)),
}


def _identity(suite, args):
    families, max_rows, lhs = _IDENTITIES[suite]
    rng = random.Random(args.seed)
    failures = []
    for fam in families:
        for n in range(2, args.max_rank + 1):
            t = make_type(fam, n)
            for s in _random_shapes(rng, args.count, max_rows, 3):
                if lhs(t, s) != chi_h(t, s):
                    failures.append({"type": str(t), "shape": repr(s)})
    return failures


def _appendixB(args):
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
        lemmas = resolution_maps(t, s)
        if lemmas:
            failures.append({"shape": repr(s), "lemmas": lemmas})
    return failures


def _classical(args):
    # (type, rank, most rows, decomposition check)
    cases = [("A", n, n + 1, verify_decomposition_A) for n in (1, 2, 3)]
    cases += [("C", n, n, verify_decomposition_C) for n in (2, 3)]
    failures = []
    for fam, n, rows, verify in cases:
        for lam in [(1,), (2,), (1, 1), (2, 1), (3, 1), (2, 2)]:
            if len(lam) <= rows and not verify(lam, n)["equal"]:
                failures.append({"type": f"{fam}{n}", "lambda": lam})
    return failures


SUITES = {
    "he": _he,
    **{suite: partial(_identity, suite) for suite in _IDENTITIES},
    "appendixB": _appendixB,
    "classical": _classical,
}
