"""Acceptance gate: the eleven end-to-end criteria, one test each.

Each test prints a single PASS/FAIL line (visible with pytest -s or -rA)
and asserts the exact identity it covers; a FAIL line lists every failing
case.
"""

import random
from functools import partial

import pytest

from qjt.checks import resolution_maps
from qjt.ring import make_type
from qjt.shapes import shape
from qjt.series import check_HE, h_coeff
from qjt.jacobitrudi import chi_h, chi_e
from qjt.paths import (
    _Frame,
    _hpath_table,
    model_status,
    no_ordinary_tuples,
    nonintersecting_tuples,
    p_tilde,
    signed_path_sum,
)
from qjt.tableaux import (
    Tableau,
    _fillings,
    column_companions,
    path_tuple_to_tableau,
    tableau_sum,
    tableau_to_path_tuple,
)
from qjt.classical import verify_decomposition_A, verify_decomposition_C

from letter_images import IMAGE_TYPES, d_word_failures, duality_failures, inverse_failures, relation_failures
from test_shapes import all_partitions, hw_monomial, subpartitions


def report(num, name, failures, extra=""):
    line = f"[criterion {num:2d}] {name}: {'FAIL' if failures else 'PASS'}"
    if extra:
        line += f" ({extra})"
    if failures:
        line += f" failing: {failures}"
    print(line, flush=True)
    assert not failures, line


def identity_failures(lhs, rhs, t, shapes):
    """(type, shape) of each shape where lhs(t, s) != rhs(t, s)."""
    return [(str(t), repr(s)) for s in shapes if lhs(t, s) != rhs(t, s)]


def skew_shapes(max_size, max_rows, max_cols, exact_rows=None):
    out = []
    for lam in all_partitions(max_size, max_rows, max_cols):
        if not lam:
            continue
        if exact_rows is not None and len(lam) != exact_rows:
            continue
        for mu in subpartitions(lam):
            out.append(shape(lam, mu))
    return out


def test_criterion_01_he_identity():
    failures = []
    for fam in ("A", "B", "C", "D"):
        for n in (1, 2, 3):
            if fam == "D" and n < 2:
                continue
            if not check_HE(make_type(fam, n), 8):
                failures.append(f"{fam}{n}")
    # H*E = 1 holds for any letter images: pin the images themselves
    for t in IMAGE_TYPES:
        failures += relation_failures(t) + inverse_failures(t)
    # and so does chi_h = chi_e: pin D's one-row series to their tableau words
    d_types = [t for t in IMAGE_TYPES if t.family == "D"]
    for t in d_types:
        failures += d_word_failures(t)
    report(
        1,
        "H*E(-X) = E(-X)*H = 1 up to X^8, all types, n <= 3; letter images: generating relations and f(g(Y)) = Y;"
        " D: h_k and e_k as sums over tableau words",
        failures,
        f"images of {len(IMAGE_TYPES)} types, A-D, n <= 4; words of {len(d_types)} D types, k <= 4",
    )


def test_criterion_02_determinant_h_equals_e():
    rng = random.Random(12061)
    checked = 0
    failures = []
    for fam in ("A", "B", "C", "D"):  # D last: the draws for A-C stay as they were
        for n in (2, 3):
            t = make_type(fam, n)
            for _ in range(25):
                lam = tuple(
                    sorted(
                        (rng.randint(1, 4) for _ in range(rng.randint(1, 4))),
                        reverse=True,
                    )
                )
                mu = []
                for i, p in enumerate(lam):
                    mu.append(rng.randint(0, min(p, mu[-1] if mu else p)))
                s = shape(lam, tuple(m for m in mu if m))
                failures += identity_failures(chi_h, chi_e, t, [s])
                checked += 1
    # the highest-weight monomial has coefficient 1 in chi_h
    straight = 0
    for fam in ("A", "B", "C", "D"):
        for n in (2, 3):
            t = make_type(fam, n)
            for lam in all_partitions(3 * n, n, 3):
                if not lam:
                    continue
                (m,) = hw_monomial(t, shape(lam)).terms
                if chi_h(t, shape(lam)).terms.get(m) != 1:
                    failures.append((str(t), f"{lam}: highest-weight coefficient"))
                straight += 1
    # the dual of chi is chi of the shape turned 180 degrees, at a closed-form
    # offset: lam in a 3 x 3 box (at most 5 boxes at rank 3), mu with fewer rows
    dual = 0
    for fam in ("A", "B", "C", "D"):
        for n in (2, 3):
            shapes = [s for s in skew_shapes(9 if n == 2 else 5, 3, 3) if len(s.mu) < len(s.lam)]
            failures += duality_failures(make_type(fam, n), shapes)
            dual += len(shapes)
    report(
        2,
        "chi_h == chi_e on random skew shapes, A-D; highest-weight coefficient 1; dual(chi) = chi of the rotated shape",
        failures,
        f"{checked} skew shapes; {straight} straight shapes in an n x 3 box, n in {{2,3}}; {dual} duality shapes, A-D, n in {{2,3}}",
    )


def test_criterion_03_path_sum_equals_determinant():
    shapes = skew_shapes(9, 3, 3)
    failures = []
    for fam in ("A", "B", "C"):
        for n in (2, 3):
            failures += identity_failures(signed_path_sum, chi_h, make_type(fam, n), shapes)
    report(
        3,
        "signed path sum == chi_h, rows <= 3, cols <= 3, A/B/C, n in {2,3}",
        failures,
        f"{len(shapes)} shapes x 6 types",
    )


def a_shapes(n):
    return [
        s
        for s in skew_shapes(8, n, 8)
        if len(s.lam) <= n
    ]


def test_criterion_04_tableaux_A():
    failures = []
    total = 0
    for n in (1, 2, 3):
        shapes = a_shapes(n)
        failures += identity_failures(tableau_sum, chi_h, make_type("A", n), shapes)
        total += len(shapes)
    report(4, "type-A tableau sum == chi_h, |lambda| <= 8, n <= 3", failures, f"{total} shapes")


def test_criterion_05_tableaux_B():
    shapes = skew_shapes(9, 3, 3)
    failures = []
    for n in (2, 3):
        failures += identity_failures(tableau_sum, chi_h, make_type("B", n), shapes)
    report(5, "type-B tableau sum == chi_h, rows <= 3, cols <= 3", failures)


def c_class_shapes(n):
    two_row = skew_shapes(8, 2, 4)
    three_row = skew_shapes(9, 3, 3, exact_rows=3)
    one_col = [
        shape((1,) * l, (1,) * m)
        for l in range(1, n + 2)
        for m in range(l)
    ]
    two_col = [s for s in skew_shapes(8, 4, 2) if n == 3]
    return [
        ("rows", two_row),
        ("rows", three_row),
        ("columns", one_col),
        ("columns", two_col),
    ]


def test_criterion_06_tableaux_C_covered_classes():
    failures = []
    total = 0
    for n in (2, 3):
        t = make_type("C", n)
        for ruleset, shapes in c_class_shapes(n):
            lhs = partial(tableau_sum, ruleset=ruleset)
            failures += [(*f, ruleset) for f in identity_failures(lhs, chi_h, t, shapes)]
            total += len(shapes)
    report(
        6,
        "type-C tableau sum == chi_h on 2-row/3-row/1-column/2-column classes",
        failures,
        f"{total} shape checks",
    )


def test_criterion_07_two_column_rule_at_five_and_six_rows():
    # the paper derives the two-column rule: 5-row two-column shapes at rank
    # 4 against chi_h, and 6-row ones at rank 5 against chi_e (= chi_h by
    # criterion 2; chi_h of these shapes takes far longer)
    cases = [
        (make_type("C", 4), chi_h, [shape(lam) for lam in all_partitions(10, 5, 2) if len(lam) == 5]),
        (make_type("C", 5), chi_e, [shape((2,) * a + (1,) * (6 - a)) for a in range(7)]),
    ]
    statuses = sorted({model_status(t, "columns", s) for t, _chi, shapes in cases for s in shapes})
    failures = [
        (str(t), repr(s)) for t, chi, shapes in cases for s in shapes if tableau_sum(t, s, 0, "columns") != chi(t, s)
    ]
    line = " and ".join(f"{len(shapes)} {t} shapes" for t, _chi, shapes in cases) + f", model_status {statuses}"
    report(7, "two-column rule at 5 rows, rank 4 (vs chi_h) and 6 rows, rank 5 (vs chi_e)", failures, line)


def _roundtrip_ok(t, s):
    """The path search over every permutation and the tableau search, the
    same frame's search of the identity, yield one list of index tuples, in
    one order, and the type's path tuples, in that order, go to the hv
    tableaux of those index tuples (row i's word is entry cs[i] of the
    table of its length) and back to themselves."""
    tuples = {"A": nonintersecting_tuples, "B": no_ordinary_tuples, "C": p_tilde}[t.family](t, s)
    frame = _Frame(t, s)
    fits = {"A": frame.disjoint, "B": frame.no_ordinary, "C": frame.untransposed}[t.family]
    found = [(pi, cs) for pi, cs, _key in frame.tuples(fits, adjacent_only=t.family == "C")]
    fillings = [(pi, cs) for pi, cs, _key in _fillings(t, s, "hv")[1]]
    if found != fillings or len(tuples) != len(fillings):
        return False
    words = [_hpath_table(t, s.lam[i] - s.mu[i]).words for i in range(1, len(s.lam) + 1)]
    for p, (_pi, cs) in zip(tuples, fillings):
        T = path_tuple_to_tableau(t, p)
        if T != Tableau(s, tuple(ws[c] for ws, c in zip(words, cs))) or tableau_to_path_tuple(t, T).paths != p.paths:
            return False
    return True


def criterion_08_cases():
    """(type, shapes) of criterion 8: the shapes of criteria 4-6."""
    cases = [(make_type("A", n), a_shapes(n)) for n in (1, 2, 3)]
    cases += [(make_type(fam, n), skew_shapes(9, 3, 3)) for fam in ("B", "C") for n in (2, 3)]
    return cases + [(make_type("C", n), shapes) for n in (2, 3) for _, shapes in c_class_shapes(n)]


def test_criterion_08_bijection_round_trip():
    cases = criterion_08_cases()
    failures = [(str(t), repr(s)) for t, shapes in cases for s in shapes if not _roundtrip_ok(t, s)]
    total = sum(len(shapes) for _, shapes in cases)
    report(8, "path/tableau bijection round-trips on all criteria 4-6 shapes", failures, f"{total} shapes")


def test_criterion_09_resolution_map_suite():
    t = make_type("C", 2)
    failures = []
    for s in skew_shapes(9, 3, 3, exact_rows=3):
        lemmas = resolution_maps(t, s)
        if lemmas:
            failures.append((str(t), repr(s), lemmas))
    report(9, "resolution-map suite (weights, images, set lemmas), 3-row C2", failures)


def test_criterion_10_pinned_values():
    failures = []
    # disconnected two-box skew shape factors into two h_1 coefficients
    t = make_type("C", 2)
    if chi_h(t, shape((3, 1), (2,)), 2) != h_coeff(t, 1, 0) * h_coeff(t, 1, 6):
        failures.append("C2 (3,1)/(2) at offset 2")
    # single-box character monomial counts
    for n in (1, 2, 3):
        for fam, terms in (("A", n + 1), ("B", 2 * n + 1), ("C", 2 * n)):
            if chi_h(make_type(fam, n), shape((1,))).num_terms() != terms:
                failures.append(f"{fam}{n} (1) terms")
    # companion letters for all one-column blocks of height <= 4
    for n in (3, 4):
        tc = make_type("C", n)
        b = lambda k: -k
        cases = [
            ((n, b(n)), (b(n), n)),
            ((n - 1, n, b(n - 1)), (n, b(n), n)),
            ((n - 1, b(n), b(n - 1)), (b(n), n, b(n))),
            ((n - 2, n - 1, n, b(n - 2)), (n - 1, n, b(n), n)),
            ((n - 2, n - 1, b(n), b(n - 2)), (n - 1, b(n), n, b(n))),
            ((n - 2, n - 1, b(n - 1), b(n - 2)), (n, b(n), n, b(n))),
            ((n - 2, n, b(n - 1), b(n - 2)), (n, b(n), n, b(n - 1))),
            ((n - 2, b(n), b(n - 1), b(n - 2)), (b(n), n, b(n), b(n - 1))),
        ]
        for c, want in cases:
            if any(abs(x) < 1 for x in c):
                continue
            if column_companions(tc, c) != want:
                failures.append(f"C{n} companions of {c}")
    report(10, "pinned values: factored skew character, box counts, companion table", failures)


def test_criterion_11_classical_decomposition():
    failures = []
    for n in (1, 2, 3):
        for lam in all_partitions(5, n + 1, 5):
            if lam and not verify_decomposition_A(lam, n)["equal"]:
                failures.append((f"A{n}", lam))
    for n in (2, 3):
        for lam in all_partitions(4, n, 4):
            if lam and not verify_decomposition_C(lam, n)["equal"]:
                failures.append((f"C{n}", lam))
    report(11, "classical decomposition (A irreducible, C via even partitions)", failures)


def test_gate_names_each_failing_shape(monkeypatch):
    # a wrong answer for one shape fails its criterion, which names that shape alone
    t, bad, right = make_type("A", 2), shape((2, 1)), tableau_sum

    def wrong(t_, s, *args):
        x = right(t_, s, *args)
        return x + x if (t_, s) == (t, bad) else x

    monkeypatch.setitem(globals(), "tableau_sum", wrong)
    with pytest.raises(AssertionError) as e:
        test_criterion_04_tableaux_A()
    line = str(e.value).splitlines()[0]
    assert line.endswith(f"FAIL (733 shapes) failing: {[('A2', repr(bad))]}")
