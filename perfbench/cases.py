"""Case universes, seeded rounds and exact checks for the four workloads.

A workload is a finite universe of cases split into strata.  One *round*
draws one case from every stratum (and a random spectral offset), in a
shuffled order; a run is a fixed prefix followed by the cases of the rounds,
in order, up to a case count set by the run's length.  Because every round has the same mix of
strata, runs with different seeds do the same kind and amount of work, which
keeps the end-to-end figures steady.

Scope follows the paper's models, not outcomes: type D has no path or
tableau model in the paper, so it appears only in ``det``; C tableaux always
name their ruleset (``rows`` for at most three rows, ``columns`` for one
column and for two columns), so the ``auto`` fallback to ``hv`` on C shapes
with more than three rows and more than two columns, which the paper does
not cover, is never exercised.

Library cases call qjt through module attributes (``jacobitrudi.chi_h``,
not a name imported once), so the traced run sees the wrapped functions.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from typing import NamedTuple

RANKS = (2, 3)
CHECK_HE_TRUNC = 8
# Shapes of the library workloads fit in a 3 x 3 box and have at most this
# many boxes: a case must stay a small share of a run, so that several rounds
# fit in the window (the largest, B3 (3,3,3), costs about 4 s).
MAX_BOXES = 6
OFFSETS = range(-4, 5)


class Case(NamedTuple):
    kind: str  # he det paths resolution tableaux roundtrip cli
    family: str = ""
    rank: int = 0
    lam: tuple = ()
    mu: tuple = ()
    offset: int = 0
    ruleset: str = ""
    argv: tuple = ()

    def key(self) -> str:
        """Offset-free identity; pinned fingerprints are stored under it."""
        if self.kind == "cli":
            return "cli " + " ".join(self.argv)
        if self.kind == "he":
            return f"he {self.family}{self.rank}"
        shape = ",".join(map(str, self.lam)) + "/" + ",".join(map(str, self.mu))
        rs = f" {self.ruleset}" if self.ruleset else ""
        return f"{self.kind} {self.family}{self.rank} {shape}{rs}"


# ---------------------------------------------------------------------------
# Shapes


def partitions_in_box(rows: int, cols: int) -> list[tuple]:
    """All partitions (the empty one included) inside a rows x cols box."""
    out = [()]
    for length in range(1, rows + 1):
        for parts in itertools.combinations_with_replacement(range(cols, 0, -1), length):
            out.append(parts)
    return out


def subpartitions(lam: tuple) -> list[tuple]:
    out = set()
    for combo in itertools.product(*(range(p + 1) for p in lam)):
        if all(combo[i] >= combo[i + 1] for i in range(len(combo) - 1)):
            out.add(tuple(p for p in combo if p))
    return sorted(out, reverse=True)


def skew_shapes(rows: int, cols: int, max_boxes: int | None = None, exact_rows=None):
    """Non-empty skew shapes lam/mu with lam inside a rows x cols box."""
    out = []
    for lam in partitions_in_box(rows, cols):
        if not lam or (exact_rows is not None and len(lam) != exact_rows):
            continue
        for mu in subpartitions(lam):
            size = sum(lam) - sum(mu)
            if size and (max_boxes is None or size <= max_boxes):
                out.append((lam, mu))
    return out


def _by_stratum(shapes) -> list[list]:
    """Group shapes by (lambda, |mu|): shapes in one group cost about the same."""
    groups: dict = {}
    for lam, mu in shapes:
        groups.setdefault((lam, sum(mu)), []).append((lam, mu))
    return [groups[k] for k in sorted(groups)]


# ---------------------------------------------------------------------------
# Workload universes: a fixed prefix of cases and the strata of a round.
# Each stratum is a list of Case templates (offset 0).


def _shape_strata(kind, types, shapes, ruleset=""):
    return [
        [Case(kind, f, n, lam, mu, 0, ruleset) for lam, mu in group]
        for f, n in types
        for group in _by_stratum(shapes)
    ]


def det_universe():
    types = [(f, n) for f in "ABCD" for n in RANKS]
    prefix = [Case("he", f, n) for f, n in types]
    strata = _shape_strata("det", types, skew_shapes(3, 3, MAX_BOXES))
    return prefix, strata


def paths_universe():
    types = [(f, n) for f in "ABC" for n in RANKS]
    strata = _shape_strata("paths", types, skew_shapes(3, 3, MAX_BOXES))
    strata += _shape_strata("resolution", [("C", 2)], skew_shapes(3, 3, exact_rows=3))
    return [], strata


def one_column_shapes(n: int):
    return [((1,) * l, (1,) * m) for l in range(1, n + 2) for m in range(l)]


def tableaux_universe():
    small = skew_shapes(3, 3, MAX_BOXES)
    strata = []
    for f in "AB":
        strata += _shape_strata("tableaux", [(f, n) for n in RANKS], small, "hv")
    strata += _shape_strata("tableaux", [("C", n) for n in RANKS], small, "rows")
    strata.append([Case("tableaux", "C", 2, lam, mu, 0, "columns") for lam, mu in one_column_shapes(2)])
    # C3 one- and two-column shapes with at most 4 rows
    strata += _shape_strata("tableaux", [("C", 3)], skew_shapes(4, 2), "columns")
    # a round trip enumerates every tuple and every tableau: 4 boxes keep it cheap
    for f in "ABC":
        strata += _shape_strata("roundtrip", [(f, n) for n in RANKS], skew_shapes(3, 3, 4))
    return [], strata


UNIVERSES = {"det": det_universe, "paths": paths_universe, "tableaux": tableaux_universe}


def tiny() -> bool:
    """Whether the self-test asked for tiny case lists (PERFBENCH_TINY=1)."""
    return os.environ.get("PERFBENCH_TINY") == "1"


def universe(name: str):
    """The prefix and strata of a workload; the self-test keeps a few cheap
    strata and no prefix."""
    prefix, strata = UNIVERSES[name]()
    return ([], strata[:4]) if tiny() else (prefix, strata)


def rounds(prefix, strata, seed: int):
    """The case stream of one seed: the prefix, then shuffled rounds."""
    rng = random.Random(seed)
    yield list(prefix)
    while True:
        batch = [rng.choice(group)._replace(offset=rng.choice(OFFSETS)) for group in strata]
        rng.shuffle(batch)
        yield batch


def first_cases(stream, count: int) -> list:
    out = []
    for batch in stream:
        out.extend(batch)
        if len(out) >= count:
            return out[:count]
    return out


# ---------------------------------------------------------------------------
# Fingerprints


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def canonical_terms(elem, offset: int) -> list:
    """Sorted terms of a RingElem with the spectral offset taken out.

    Shifting every spectral parameter by one amount keeps the sort order of
    monomials, so results at different offsets compare in one canonical form.
    """
    return [[[[i, s - offset, e] for i, s, e in m], c] for m, c in sorted(elem.terms.items())]


def fingerprint(count: int, obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return f"{count}:{digest(text.encode())}"


# ---------------------------------------------------------------------------
# Library cases.  Each returns (identity holds, fingerprint thunk): the
# fingerprint is computed after the case's clock has stopped.


class Library:
    """The qjt modules the cases call, looked up at call time."""

    def __init__(self):
        from qjt import jacobitrudi, paths, resolutions, ring, series, shapes, tableaux

        self.ring, self.series, self.jt = ring, series, jacobitrudi
        self.paths, self.tab, self.res, self.shapes = paths, tableaux, resolutions, shapes

    def fill_series(self, families):
        """Build the h- and e-series the workload's types need (set-up)."""
        for f in families:
            for n in RANKS:
                t = self.ring.make_type(f, n)
                self.series.h_coeff(t, 1)
                self.series.e_coeff(t, 1)

    def run(self, case: Case):
        t = self.ring.make_type(case.family, case.rank)
        if case.kind == "he":
            ok = self.series.check_HE(t, CHECK_HE_TRUNC)
            return ok, lambda: fingerprint(1, ok)
        s = self.shapes.shape(case.lam, case.mu)
        if case.kind == "resolution":
            return self.resolution(t, s)
        if case.kind == "roundtrip":
            return self.roundtrip(t, s)
        if case.kind == "det":
            lhs = self.jt.chi_h(t, s, case.offset)
        elif case.kind == "paths":
            lhs = self.paths.signed_path_sum(t, s, case.offset)
        elif case.kind == "tableaux":
            lhs = self.tab.tableau_sum(t, s, case.offset, case.ruleset)
        else:
            raise ValueError(f"unknown case kind {case.kind!r}")
        rhs = self.jt.chi_e(t, s, case.offset)
        return lhs == rhs, lambda: fingerprint(len(rhs.terms), canonical_terms(rhs, case.offset))

    def roundtrip(self, t, s):
        """Criterion 8: path tuple -> tableau -> path tuple is the identity,
        and the tableaux reached are exactly the hv-valid ones."""
        P, T = self.paths, self.tab
        if t.family == "A":
            tuples = P.nonintersecting_tuples(t, s)
        elif t.family == "B":
            tuples = P.no_ordinary_tuples(t, s)
        else:
            tuples = P.p_tilde(t, s)
        ok = True
        tabs = set()
        for p in tuples:
            tab = T.path_tuple_to_tableau(t, p)
            ok = ok and T.tableau_to_path_tuple(t, tab).paths == p.paths
            tabs.add(tab.cells)
        ok = ok and tabs == {x.cells for x in T.enumerate_tableaux(t, s, "hv")}
        return ok, lambda: fingerprint(len(tabs), sorted([list(map(list, c)) for c in tabs]))

    def resolution(self, t, s):
        """Criterion 9 on one 3-row C2 shape: the g, f1 and f2 images and
        the tableaux that the row rules reject."""
        P, R, T = self.paths, self.res, self.tab
        pk = P.p_k_tuples(t, s)
        p0, p1, p2 = pk.get(0, []), pk.get(1, []), pk.get(2, [])
        p1_12 = [p for p in p1 if R.transposed_index_pairs(t, p) == [(1, 2)]]
        p1_23 = [p for p in p1 if R.transposed_index_pairs(t, p) == [(2, 3)]]
        p2x = [p for p in p2 if R.is_p2_cross(t, p)]
        p2o = [p for p in p2 if not R.is_p2_cross(t, p)]

        def key(p):
            return tuple(p.paths)

        ok = True
        gs = []
        for p in p2x:
            q = R.g_map(t, p)
            ok = ok and q.weight(t) == p.weight(t) and q.sign() == p.sign()
            gs.append(q)
        g_set, p0_set = set(map(key, gs)), set(map(key, p0))
        ok = ok and len(g_set) == len(p2x) and not (g_set & p0_set)
        ok = ok and g_set | p0_set == set(map(key, P.p_tilde(t, s)))

        im2_13, im2_23 = set(), set()
        for p in p2o:
            q13, q23 = R.f2_13(t, p), R.f2_23(t, p)
            ok = ok and q13.weight(t) == p.weight(t) == q23.weight(t)
            im2_13.add(key(q13))
            im2_23.add(key(q23))
        ok = ok and len(im2_13) == len(p2o) == len(im2_23)
        ok = ok and im2_13 == {key(p) for p in p1_23 if R.condition_f2_13(t, p) is not None}
        ok = ok and im2_23 == {key(p) for p in p1_12 if R.condition_f2_23(t, p) is not None}

        im1_12, im1_23 = set(), set()
        for p in p1_12:
            q = R.f1_12(t, p)
            ok = ok and q.weight(t) == p.weight(t)
            im1_12.add(key(q))
        for p in p1_23:
            q = R.f1_23(t, p)
            ok = ok and q.weight(t) == p.weight(t)
            im1_23.add(key(q))
        ok = ok and len(im1_12) == len(p1_12) and len(im1_23) == len(p1_23)
        ok = ok and im1_12 == {key(p) for p in p0 if R.condition_f1_12(t, p) is not None}
        ok = ok and im1_23 == {key(p) for p in p0 if R.condition_f1_23(t, p) is not None}

        comp = {key(R.f1_23(t, R.f2_13(t, p))) for p in p2o}
        ok = ok and im1_12 & im1_23 == comp
        ok = ok and comp == {key(R.f1_12(t, R.f2_23(t, p))) for p in p2o}

        by_key = {key(p): p for p in p0}
        im_tabs = {T.path_tuple_to_tableau(t, by_key[k]).cells for k in im1_12 | im1_23}
        rejected = {
            x.cells
            for x in T.enumerate_tableaux(t, s, "hv")
            if not (T.satisfies_2row_rule(t, x) and T.satisfies_3row_rule(t, x))
        }
        ok = ok and im_tabs == rejected
        sizes = [len(p0), len(p1_12), len(p1_23), len(p2x), len(p2o)]
        return ok, lambda: fingerprint(sum(sizes), [sizes, sorted([list(map(list, c)) for c in rejected])])


# ---------------------------------------------------------------------------
# The cli-cold catalog: qjt argv lists, one fresh interpreter per case.

# The run's prefix: the slowest first call (the C4 column-rule companions) and
# the two commands with the largest peak RSS, so that every run has them and
# the children's peak RSS does not depend on the draw.
HEAVY_CLI = [
    ("tableaux", "--type", "C", "--rank", "4", "--lambda", "2,2,2,1,1", "--ruleset", "columns", "--count",
     "--output", "json"),
    ("verify", "--suite", "paths", "--count", "1", "--seed", "4", "--output", "json"),
    ("verify", "--suite", "det", "--count", "1", "--seed", "4", "--output", "json"),
]
VERIFY_SEEDS = (1, 2, 3, 4)


def _shape_args(lam, mu):
    out = ["--lambda", ",".join(map(str, lam))]
    if mu:
        out += ["--mu", ",".join(map(str, mu))]
    return out


def _cli(verb, family, rank, *rest):
    return Case("cli", argv=(verb, "--type", family, "--rank", str(rank), *rest, "--output", "json"))


def cli_universe():
    small = skew_shapes(2, 2)
    strata = []
    for f in "ABCD":
        strata.append([
            _cli("qchar", f, n, *_shape_args(lam, mu), "--form", form, "--offset", str(off))
            for n in RANKS for lam, mu in small for form in ("h", "e", "both") for off in (0, 2)
        ])
    for f, ruleset in (("A", "hv"), ("B", "hv"), ("C", "rows")):
        strata.append([
            _cli("tableaux", f, n, *_shape_args(lam, mu), "--ruleset", ruleset, *count)
            for n in RANKS for lam, mu in small for count in ((), ("--count",))
        ])
    columns = [(n, lam, mu) for n in RANKS for lam, mu in one_column_shapes(n)]
    columns += [(3, lam, mu) for lam, mu in skew_shapes(4, 2, 6) if len(lam) == 4]
    strata.append([
        _cli("tableaux", "C", n, *_shape_args(lam, mu), "--ruleset", "columns", *count)
        for n, lam, mu in columns for count in ((), ("--count",))
    ])
    for f in "ABC":
        strata.append([_cli("paths", f, n, *_shape_args(lam, mu)) for n in RANKS for lam, mu in small])
    strata.append([
        _cli("classical", "A", n, *_shape_args(lam, ()))
        for n in (1, 2, 3) for lam in partitions_in_box(n + 1, 4) if lam and sum(lam) <= 4
    ])
    strata.append([
        _cli("classical", "C", n, *_shape_args(lam, ()))
        for n in RANKS for lam in partitions_in_box(n, 3) if lam and sum(lam) <= 3
    ])
    verify = [("he", "--max-rank", "2", "--trunc", str(k)) for k in (4, 6)] + [("classical",)]
    for suite in ("det", "paths", "tableaux-A", "tableaux-B", "tableaux-C", "appendixB"):
        verify += [(suite, "--count", "1", "--seed", str(k)) for k in VERIFY_SEEDS]
    verify = [("verify", "--suite", *v, "--output", "json") for v in verify]
    strata.append([Case("cli", argv=v) for v in verify if v not in HEAVY_CLI])
    return [Case("cli", argv=v) for v in HEAVY_CLI], strata


UNIVERSES["cli-cold"] = cli_universe


def check_cli(stdout: bytes, returncode: int) -> bool:
    """The identity a CLI case can show by itself (the pin covers the rest)."""
    if returncode != 0:
        return False
    obj = json.loads(stdout)
    if "h" in obj and "e" in obj and obj["h"] != obj["e"]:
        return False
    return obj.get("ok", True) is True and obj.get("equal", True) is True
