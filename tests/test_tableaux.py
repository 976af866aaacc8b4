import hashlib
import itertools
import random

import pytest

from qjt.jacobitrudi import chi_h
from qjt.paths import no_ordinary_tuples, p_tilde
from qjt.ring import AlgType, RingElem, letters, make_type, parse_letter
from qjt.shapes import shape
from qjt.tableaux import (
    RULESETS,
    Tableau,
    _Rows,
    _cmp,
    _h_ok,
    _h_triple_ok,
    _row_heights,
    _v_ok,
    column_companions,
    enumerate_tableaux,
    is_valid,
    path_tuple_to_tableau,
    resolve_ruleset,
    satisfies_1col_rule,
    satisfies_2col_rule,
    satisfies_2row_rule,
    satisfies_3row_rule,
    satisfies_extra_rules,
    tableau_from_rows,
    tableau_sum,
    tableau_to_path_tuple,
    tableaux_with_sum,
)

from optimized import error_under_O
from test_acceptance import a_shapes, c_class_shapes, skew_shapes
from test_shapes import all_partitions, subpartitions


def T(fam_n, lam, mu, rows):
    t = make_type(*fam_n)
    return t, tableau_from_rows(shape(lam, mu), rows)


def test_entry_and_weight():
    t, tab = T(("A", 2), (3, 2), (1,), [["1", "2"], ["2", "3"]])
    assert tab.entry(1, 1) is None
    assert tab.entry(1, 2) == 1
    assert tab.entry(2, 2) == 3
    assert tab.entry(3, 1) is None
    # weight = z_{1,2} z_{2,4} z_{2,-2} z_{3,0}
    from qjt.ring import z_product

    assert tab.weight(t, 0) == z_product(t, [(1, 2), (2, 4), (2, -2), (3, 0)])


def count_ssyt(n_letters, lam):
    # hook content formula for straight shapes
    from math import prod
    from fractions import Fraction

    cells = [(i, j) for i in range(len(lam)) for j in range(lam[i])]
    conj = [sum(1 for p in lam if p > j) for j in range(max(lam))]
    val = Fraction(1)
    for i, j in cells:
        hook = lam[i] - j + conj[j] - i - 1
        val *= Fraction(n_letters + j - i, hook)
    assert val.denominator == 1
    return val.numerator


def test_enumerate_A_counts():
    t = make_type("A", 2)  # 3 letters
    for lam in [(2,), (1, 1), (2, 1), (3, 2)]:
        got = len(enumerate_tableaux(t, shape(lam)))
        assert got == count_ssyt(3, list(lam))


def test_validity_rules_B():
    # repeated 0 allowed vertically, not horizontally
    t, tab = T(("B", 2), (1, 1), (), [["0"], ["0"]])
    assert is_valid(t, tab)
    t, tab = T(("B", 2), (2,), (), [["0", "0"]])
    assert not is_valid(t, tab)
    t, tab = T(("B", 2), (2,), (), [["2", "0"]])
    assert is_valid(t, tab)


def test_validity_rules_C():
    # (nb, n) descent allowed in a row, triples forbidden
    t, tab = T(("C", 2), (2,), (), [["2b", "2"]])
    assert is_valid(t, tab)
    t, tab = T(("C", 2), (3,), (), [["2b", "2", "2"]])
    assert not is_valid(t, tab)
    t, tab = T(("C", 2), (3,), (), [["2b", "2b", "2"]])
    assert not is_valid(t, tab)
    # vertical n over n needs nb left of the lower n
    t, tab = T(("C", 2), (2, 2), (), [["1", "2"], ["2b", "2"]])
    assert is_valid(t, tab)
    t, tab = T(("C", 2), (1, 1), (), [["2"], ["2"]])
    assert not is_valid(t, tab)
    # vertical nb over nb needs n right of the upper nb
    t, tab = T(("C", 2), (2, 1), (), [["2b", "2"], ["2b"]])
    assert is_valid(t, tab)


def test_2row_rule():
    t = make_type("C", 2)
    # single column of n over nb: width 1 (odd), no neighbors -> prohibited
    tab = tableau_from_rows(shape((1, 1)), [["2"], ["2b"]])
    assert not satisfies_2row_rule(t, tab)
    # escape: n to the right of the top
    tab = tableau_from_rows(shape((2, 1)), [["2", "2"], ["2b"]])
    assert satisfies_2row_rule(t, tab)
    # escape: nb to the left of the bottom
    tab = tableau_from_rows(shape((2, 2), (1,)), [["2"], ["2b", "2b"]])
    assert satisfies_2row_rule(t, tab)
    # width 2 block (even) is fine
    tab = tableau_from_rows(shape((2, 2)), [["2", "2"], ["2b", "2b"]])
    assert satisfies_2row_rule(t, tab)


def test_1col_rule():
    t = make_type("C", 3)
    col = lambda *xs: tableau_from_rows(shape([1] * len(xs)), [[x] for x in xs])
    # c=3 and 3b adjacent: distance 1 > n-c=0 -> prohibited
    assert not satisfies_1col_rule(t, col("3", "3b"))
    # c=2 ... 2b at distance 1 <= n-c=1 -> fine
    assert satisfies_1col_rule(t, col("2", "2b"))
    assert not satisfies_1col_rule(t, col("2", "3", "2b"))
    assert satisfies_1col_rule(t, col("1", "2", "2b"))


@pytest.mark.parametrize("n", [3, 4])
def test_column_companions_table(n):
    t = make_type("C", n)
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
        assert column_companions(t, c) == want, c


def test_ruleset_resolution():
    t = make_type("C", 3)
    assert resolve_ruleset(t, shape((3, 2, 1)), "auto") == "rows"
    assert resolve_ruleset(t, shape((2, 2, 1, 1)), "auto") == "columns"
    assert resolve_ruleset(make_type("A", 2), shape((2, 1)), "auto") == "hv"


def test_auto_ruleset_refuses_C_shapes_without_a_rule():
    # more than 3 rows and more than 2 columns: C3 (3,1,1,1) used to fall back
    # to hv, whose 298 tableaux do not sum to chi_h
    t, s = make_type("C", 3), shape((3, 1, 1, 1))
    with pytest.raises(ValueError, match="no C3 tableau rule covers"):
        resolve_ruleset(t, s, "auto")
    for f in (enumerate_tableaux, tableau_sum, tableaux_with_sum):
        with pytest.raises(ValueError, match="no C3 tableau rule covers"):
            f(t, s)
    tabs, total = tableaux_with_sum(t, s, 0, "hv")
    assert len(tabs) == 298 and total != chi_h(t, s)


def test_tableau_layer_refuses_type_D():
    # it used to run the C rules, whose D3 (2,1) sum differs from chi_h
    t, s = make_type("D", 3), shape((2, 1))
    for f in (enumerate_tableaux, tableau_sum, tableaux_with_sum):
        with pytest.raises(ValueError, match="the tableau model covers types A, B and C, not D3"):
            f(t, s)


@pytest.mark.parametrize("fam", ["A", "B", "C"])
def test_unknown_ruleset_is_refused(fam):
    # before the check, A2 (2,1) gave 8 tableaux and C2 (1^6) gave []
    t = make_type(fam, 2)
    for s in (shape((2, 1)), shape((1,) * 6)):
        with pytest.raises(ValueError, match="unknown ruleset 'bogus'"):
            resolve_ruleset(t, s, "bogus")
        for f in (enumerate_tableaux, tableau_sum, tableaux_with_sum):
            with pytest.raises(ValueError, match="unknown ruleset 'bogus'"):
                f(t, s, ruleset="bogus")


@pytest.mark.parametrize("fam,n", [("A", 2), ("A", 3)])
def test_tableau_sum_A(fam, n):
    t = make_type(fam, n)
    for lam in all_partitions(6, 4, 4):
        if not lam:
            continue
        for mu in subpartitions(lam):
            s = shape(lam, mu)
            assert tableau_sum(t, s, 0) == chi_h(t, s, 0), (lam, mu)


@pytest.mark.parametrize("n", [2, 3])
def test_tableau_sum_B(n):
    t = make_type("B", n)
    for lam in all_partitions(6, 3, 3):
        if not lam:
            continue
        for mu in subpartitions(lam):
            s = shape(lam, mu)
            assert tableau_sum(t, s, 0) == chi_h(t, s, 0), (lam, mu)


@pytest.mark.parametrize("n", [2, 3])
def test_tableau_sum_C_rows(n):
    t = make_type("C", n)
    for lam in all_partitions(8, 3, 3):
        if not lam:
            continue
        for mu in subpartitions(lam):
            s = shape(lam, mu)
            assert tableau_sum(t, s, 0, "rows") == chi_h(t, s, 0), (lam, mu)


@pytest.mark.parametrize("n", [2, 3])
def test_tableau_sum_C_columns(n):
    t = make_type("C", n)
    for lam in all_partitions(8, n + 1, 2):
        if not lam:
            continue
        for mu in subpartitions(lam):
            s = shape(lam, mu)
            assert tableau_sum(t, s, 0, "columns") == chi_h(t, s, 0), (lam, mu)


def test_rulesets_agree_on_overlap():
    # shapes with at most 3 rows and at most 2 columns: both rule systems
    # select the same tableaux
    t = make_type("C", 3)
    for lam in all_partitions(6, 3, 2):
        if not lam:
            continue
        for mu in subpartitions(lam):
            s = shape(lam, mu)
            rows = {tb.cells for tb in enumerate_tableaux(t, s, "rows")}
            cols = {tb.cells for tb in enumerate_tableaux(t, s, "columns")}
            assert rows == cols, (lam, mu)


@pytest.mark.parametrize("fam,n", [("A", 2), ("B", 2), ("C", 2), ("C", 3)])
def test_path_tableau_roundtrip(fam, n):
    t = make_type(fam, n)
    from qjt.paths import nonintersecting_tuples, no_ordinary_tuples

    for lam, mu in [((2, 1), ()), ((3, 2, 1), (1,)), ((2, 2, 2), ()), ((3, 3), (2,))]:
        s = shape(lam, mu)
        if fam == "A":
            tuples = nonintersecting_tuples(t, s)
        elif fam == "B":
            tuples = no_ordinary_tuples(t, s)
        else:
            tuples = p_tilde(t, s)
        for pt in tuples:
            T = path_tuple_to_tableau(t, pt)
            assert is_valid(t, T), (lam, mu, T.cells)
            assert T.weight(t, 0) == pt.weight(t, 0)
            back = tableau_to_path_tuple(t, T)
            assert back.paths == pt.paths


@pytest.mark.parametrize("fam,n", [("A", 2), ("B", 2), ("C", 2)])
def test_tableau_path_bijection_counts(fam, n):
    # the correspondence is onto: every valid tableau comes from a tuple
    t = make_type(fam, n)
    from qjt.paths import nonintersecting_tuples, no_ordinary_tuples

    for lam, mu in [((2, 2), ()), ((3, 1), (1,)), ((2, 2, 1), ())]:
        s = shape(lam, mu)
        if fam == "A":
            tuples = nonintersecting_tuples(t, s)
        elif fam == "B":
            tuples = no_ordinary_tuples(t, s)
        else:
            tuples = p_tilde(t, s)
        tabs = enumerate_tableaux(t, s, "hv")
        assert len(tuples) == len(tabs)
        assert {path_tuple_to_tableau(t, pt).cells for pt in tuples} == {
            tb.cells for tb in tabs
        }


def row_heights_search(t, row):
    """Every height assignment for a C row: try each alternating n-bar, n
    block at height 0 and keep the weakly increasing results."""
    n = t.rank

    def fixed(c):
        return c - n - 1 if 0 < c < n else (n + 1 + c if -n < c < 0 else None)

    candidates = set()
    m = len(row)
    for p in range(m + 1):
        for q in range(p, m + 1):  # block row[p:q] at height 0
            block = row[p:q]
            if len(block) % 2 == 1:
                continue
            if any(block[x] != (-n if x % 2 == 0 else n) for x in range(len(block))):
                continue
            hs = []
            good = True
            for x, c in enumerate(row):
                if p <= x < q:
                    hs.append(0)
                    continue
                h = fixed(c)
                if h is None:
                    h = -1 if c == n else 1  # below/above the axis
                if x < p and h >= 0 or x >= q and h <= 0:
                    good = False
                    break
                hs.append(h)
            if good and all(hs[x] <= hs[x + 1] for x in range(m - 1)):
                candidates.add(tuple(hs))
    return candidates


def test_row_heights_closed_form_matches_search():
    # every letter sequence of length <= 5, valid rows or not
    rows_seen = 0
    for n in (2, 3, 4):
        t = make_type("C", n)
        for m in range(6):
            for row in itertools.product(letters(t), repeat=m):
                rows_seen += 1
                found = row_heights_search(t, row)
                if len(found) == 1:
                    assert tuple(_row_heights(t, row)) in found, row
                else:
                    with pytest.raises(ValueError):
                        _row_heights(t, row)
    assert rows_seen == 48145


def test_serialization():
    t, tab = T(("C", 2), (2, 1), (), [["1", "2b"], ["2"]])
    obj = tab.to_json_obj()
    assert obj["rows"] == [["1", "2b"], ["2"]]
    back = tableau_from_rows(shape(tuple(obj["lambda"]), tuple(obj["mu"])), obj["rows"])
    assert back == tab


def test_tableau_from_rows_fails_closed():
    for rows in ([["1", "1", "1"], ["2"]], [["1", "1"]], [["1", "1"], ["2"], ["3"]]):
        with pytest.raises(ValueError):
            tableau_from_rows(shape((2, 1)), rows)
    assert error_under_O(
        "from qjt.shapes import shape; from qjt.tableaux import tableau_from_rows; "
        "tableau_from_rows(shape((2, 1)), [['1', '1', '1'], ['2']])"
    ).startswith("ValueError: row 1 has 3 entries")


def test_path_tuple_to_tableau_fails_closed_on_permuted_rows():
    t = make_type("C", 2)
    (pt,) = [p for p in no_ordinary_tuples(t, shape((1, 1))) if p.pi == (1, 0)]
    with pytest.raises(ValueError, match="rows permuted"):
        path_tuple_to_tableau(t, pt)
    assert error_under_O(
        "from qjt.paths import no_ordinary_tuples; from qjt.ring import make_type; from qjt.shapes import shape; "
        "from qjt.tableaux import path_tuple_to_tableau; t = make_type('C', 2); "
        "path_tuple_to_tableau(t, [p for p in no_ordinary_tuples(t, shape((1, 1))) if p.pi == (1, 0)][0])"
    ).startswith("ValueError: rows permuted by [2, 1]")


def test_tableau_to_path_tuple_fails_closed_on_short_row():
    # a Tableau built directly, past tableau_from_rows' row-length check
    t = make_type("C", 2)
    tab = Tableau(shape((2, 1)), ((1,), (1,)))
    with pytest.raises(ValueError, match="ending at"):
        tableau_to_path_tuple(t, tab)
    assert error_under_O(
        "from qjt.ring import make_type; from qjt.shapes import shape; "
        "from qjt.tableaux import Tableau, tableau_to_path_tuple; "
        "tableau_to_path_tuple(make_type('C', 2), Tableau(shape((2, 1)), ((1,), (1,))))"
    ).startswith("ValueError: row 1 (1,) gives a path ending at (1, 2), not (2, 2)")


def test_column_companions_fails_closed():
    t = make_type("C", 3)
    with pytest.raises(ValueError, match="not a bounding one-column pattern"):
        column_companions(t, (1, 2))
    assert error_under_O(
        "from qjt.ring import make_type; from qjt.tableaux import column_companions; "
        "column_companions(make_type('C', 3), (1, 2))"
    ) == "ValueError: (1, 2) is not a bounding one-column pattern of C3"


@pytest.mark.parametrize("fam,n", [("A", 2), ("B", 2), ("C", 2)])
def test_enumeration_is_the_is_valid_filter(fam, n):
    # the cell tests seen from the enumeration and from a whole tableau agree,
    # in order: fillings run over the alphabet in row-major order
    t = make_type(fam, n)
    for lam, mu in [((2, 2), ()), ((2, 1, 1), ()), ((3, 2), (1,)), ((2, 2, 1), (1,))]:
        s = shape(lam, mu)
        want = []
        for fill in itertools.product(letters(t), repeat=len(s.boxes())):
            it = iter(fill)
            T = Tableau(s, tuple(tuple(itertools.islice(it, s.lam[i] - s.mu[i]))
                                 for i in range(1, len(lam) + 1)))
            if is_valid(t, T):
                want.append(T)
        assert enumerate_tableaux(t, s, "hv") == want, (fam, lam, mu)


def test_3row_rule_matches_oracle_on_hv_tableaux():
    # every hv tableau of the 3- and 4-row shapes with |lam| <= 9 and at most
    # 7 boxes (C2), or |lam| <= 7 and at most 6 boxes (C3)
    seen = rejected = 0
    for n, size, boxes in ((2, 9, 7), (3, 7, 6)):
        t = make_type("C", n)
        for lam in all_partitions(size, 4):
            if len(lam) < 3:
                continue
            for mu in subpartitions(lam):
                if sum(lam) - sum(mu) > boxes:
                    continue
                for tab in enumerate_tableaux(t, shape(lam, mu), "hv"):
                    ok = satisfies_3row_rule(t, tab)
                    assert ok == satisfies_3row_rule_oracle(t, tab), (n, tab)
                    seen += 1
                    rejected += not ok
    assert (seen, rejected) == (105851, 2936)


def _class_word(rng):
    """A word of three-row column classes on or near one of the patterns."""
    run = lambda cs, least: "".join(rng.choice(cs) for _ in range(rng.randint(least, 2)))
    alt = "BN" * rng.randint(0, 1)
    core = rng.choice([run("N", 1) + alt + run("B", 0), run("N", 0) + alt + run("B", 1)])
    return rng.choice([
        run("LP", 0) + core + run("HQ", 0),
        rng.choice("MQ") + "N" + alt + run("B", 1) + run("HQ", 0),
        run("LP", 0) + run("N", 1) + alt + "B" + rng.choice("GP"),
    ])


def test_3row_rule_matches_oracle_on_random_fillings():
    # letter fillings, valid or not: rows r..r+2 of the columns j0.. spell a
    # class word, each of its letters kept with probability 0.95; every other
    # cell (and a class's free cell) gets a random letter
    rng = random.Random(20261018)
    rejected = 0
    for _ in range(5000):
        n = rng.choice((2, 3, 4))
        t, m = make_type("C", n), n - 1
        proto = {"L": (None, n, -n), "P": (n, n, -n), "M": (None, -n, -n), "Q": (n, -n, -n),
                 "H": (n, -n, None), "G": (n, n, None), "N": (m, n, -m), "B": (m, -n, -m)}
        word, j0, r = _class_word(rng), rng.randint(1, 3), rng.randint(1, 2)
        nrows = r + 2 + rng.randint(0, 1)
        lam = sorted((rng.randint(max(1, j0 + len(word) - 2), j0 + len(word))
                      for _ in range(nrows)), reverse=True)
        mu = [min(x, p) for x, p in zip(sorted((rng.randint(0, j0) for _ in lam), reverse=True), lam)]
        s = shape(tuple(lam), tuple(x for x in mu if x))

        def letter(i, j):
            if 0 <= i - r <= 2 and 0 <= j - j0 < len(word) and rng.random() < 0.95:
                c = proto[word[j - j0]][i - r]
                if c is not None:
                    return c
            return rng.choice(letters(t))

        rows = [[letter(i, j) for j in range(s.mu[i] + 1, s.lam[i] + 1)] for i in range(1, nrows + 1)]
        tab = tableau_from_rows(s, rows)
        ok = satisfies_3row_rule(t, tab)
        assert ok == satisfies_3row_rule_oracle(t, tab), (n, tab)
        rejected += not ok
    assert rejected == 750


def _enumeration_digest(cases, ruleset):
    h = hashlib.sha256()
    for t, s in cases:
        cells = [tab.cells for tab in enumerate_tableaux(t, s, ruleset)]
        h.update(repr((str(t), s.lam.parts, s.mu.parts, cells)).encode())
    return h.hexdigest()


# sha256 of the ordered enumerate_tableaux output on the criterion 4-6 shapes,
# captured before the cell tests took letters; A and B ignore the ruleset.
ENUMERATION_GOLDEN = {
    ("AB", "hv"): "c50fec10e8f3505424181ac1dc0647c56464842853ca89159c5e91f7acdc58f6",
    ("C", "hv"): "a8ce916e043a399c702d52ec4a9dd26d86da82396b37927549307e090ae6cdec",
    ("C", "rows"): "ec224d5b26a8bacffa22f314b7cdbf467d7b93546618097f28518b14ead7f855",
    ("C", "columns"): "bb939adb6debd9ead870b187b4ff9ccefdb0b743c390d7a3e84be42f5d6f445d",
    ("C", "auto"): "5c0af5e4337acf60b78995abf35fd7f944b2913e8045ff78a28f6c26494a940f",
}


@pytest.mark.parametrize("families,ruleset", sorted(ENUMERATION_GOLDEN))
def test_enumeration_golden(families, ruleset):
    if families == "AB":
        cases = [(make_type("A", n), s) for n in (1, 2, 3) for s in a_shapes(n)]
        cases += [(make_type("B", n), s) for n in (2, 3) for s in skew_shapes(9, 3, 3)]
    else:
        cases = [
            (make_type("C", n), s)
            for n in (2, 3)
            for _, shapes in c_class_shapes(n)
            for s in shapes
        ]
    assert sorted(RULESETS) == sorted(r for f, r in ENUMERATION_GOLDEN if f == "C")
    assert _enumeration_digest(cases, ruleset) == ENUMERATION_GOLDEN[(families, ruleset)]


# ---------------------------------------------------------------------------
# The row-major cell search, kept verbatim as the oracle for the row tables
# of qjt.tableaux.


def enumerate_tableaux_oracle(t: AlgType, s, ruleset: str = "auto"):
    """All tableaux of the shape obeying the family rules and, for C, the
    shape's extra rules (ruleset 'auto' picks row rules for at most three
    rows, else column rules for at most two columns, else none)."""
    ruleset = resolve_ruleset(t, s, ruleset)
    cells = [(i, j) for i in range(1, len(s.lam) + 1) for j in range(s.mu[i] + 1, s.lam[i] + 1)]
    rows: list[list[int]] = [[] for _ in range(len(s.lam))]
    alphabet = letters(t)
    out = []

    def above(i, j):
        """Letter at (i-1, j), or None; row i-1 is complete."""
        if i > 1 and s.mu[i - 1] < j <= s.lam[i - 1]:
            return rows[i - 2][j - s.mu[i - 1] - 1]
        return None

    def rec(m: int):
        if m == len(cells):
            T = Tableau(s, tuple(map(tuple, rows)))
            if satisfies_extra_rules(t, T, ruleset):
                out.append(T)
            return
        i, j = cells[m]
        row = rows[i - 1]
        left = row[-1] if row else None
        left2 = row[-2] if len(row) > 1 else None
        up, up_right = above(i, j), above(i, j + 1)
        for v in alphabet:
            if left is not None and not (
                _h_ok(t, left, v) and (left2 is None or _h_triple_ok(t, left2, left, v))
            ):
                continue
            if up is not None and not _v_ok(t, up, v, left, up_right):
                continue
            row.append(v)
            rec(m + 1)
            row.pop()

    rec(0)
    return out


def assert_row_tables_match_oracle(t, s, rulesets):
    # the oracle runs once per distinct rule set: A and B read no extra rule
    wants: dict = {}
    for ruleset in rulesets:
        rules = resolve_ruleset(t, s, ruleset) if t.family == "C" else "hv"
        if rules not in wants:
            want = enumerate_tableaux_oracle(t, s, rules)
            wants[rules] = want, [RingElem.sum(T.weight(t, off) for T in want).terms for off in (0, -3)]
        want, sums = wants[rules]
        assert enumerate_tableaux(t, s, ruleset) == want, (t, s, ruleset)
        tabs, got = tableaux_with_sum(t, s, 0, ruleset)
        assert tabs == want and got.terms == sums[0], (t, s, ruleset)
        assert tableau_sum(t, s, 0, ruleset) == got, (t, s, ruleset)
        assert tableau_sum(t, s, -3, ruleset).terms == sums[1], (t, s, ruleset)


@pytest.mark.parametrize("fam,n", [(f, n) for f in "ABC" for n in (2, 3)])
def test_row_tables_match_cell_search(fam, n):
    # same ordered list and same weight sum as the cell search, for every
    # ruleset on every shape in a 3x3 box with at most 5 boxes
    t = make_type(fam, n)
    for s in skew_shapes(9, 3, 3):
        if len(s.boxes()) <= 5:
            assert_row_tables_match_oracle(t, s, RULESETS)


def test_row_tables_match_cell_search_C3_columns():
    t = make_type("C", 3)
    for s in skew_shapes(8, 4, 2):
        assert_row_tables_match_oracle(t, s, ["columns"])


def test_row_keys_widen_with_the_exponent_bound():
    # a 128-row A1 ribbon: each row's table bounds its exponents by 1, so the
    # bound of a filling passes 127 and the tables are taken again at 16 bits
    t = make_type("A", 1)
    s = shape(tuple(range(129, 1, -1)), tuple(range(127, 0, -1)))
    assert _Rows(t, s).bound > 127
    tabs, total = tableaux_with_sum(t, s, 5)
    assert len(tabs) == 4
    assert total._w == 16
    assert total == RingElem.sum(T.weight(t, 5) for T in tabs)
    assert tableau_sum(t, s, 5).terms == total.terms


# ---------------------------------------------------------------------------
# The three-row rule as five nested loops over run lengths, kept verbatim as
# the oracle for the column-word match in qjt.tableaux.


def _col_kinds(t: AlgType, T: Tableau, r: int, j: int) -> frozenset:
    """Segment kinds column j can play in the window anchored at row r.

    Two-cell kinds only constrain the two drawn cells; the third row's cell
    may or may not exist outside the matched subtableau.
    """
    n = t.rank
    top, mid, bot = T.entry(r, j), T.entry(r + 1, j), T.entry(r + 2, j)
    kinds = set()
    if mid == n and bot == -n:
        kinds.add("lo-n-nb")  # bottom two rows: n over n-bar
    if mid == -n and bot == -n:
        kinds.add("lo-nb-nb")
    if top == n and mid == -n:
        kinds.add("hi-n-nb")
    if top == n and mid == n:
        kinds.add("hi-n-n")
    if top == n - 1 and bot == -(n - 1):
        if mid == n:
            kinds.add("full-n")
        if mid == -n:
            kinds.add("full-nb")
    return frozenset(kinds)


def _windows(T: Tableau, r: int):
    """Maximal column ranges meeting at least two of rows r, r+1, r+2."""
    s = T.shape
    lo = min(s.mu[i] + 1 for i in (r, r + 1, r + 2))
    hi = max(s.lam[i] for i in (r, r + 1, r + 2))
    return lo, hi


def _alt_mid(kinds, start, count2) -> bool:
    """kinds[start:start+count2] alternate full-nb, full-n (even length)."""
    for m in range(count2):
        want = "full-nb" if m % 2 == 0 else "full-n"
        if want not in kinds[start + m]:
            return False
    return True


def satisfies_3row_rule_oracle(t: AlgType, T: Tableau) -> bool:
    """Three-row window rule for the C family."""
    for r in range(1, len(T.cells) - 1):
        lo, hi = _windows(T, r)
        width = hi - lo + 1
        if width <= 0:
            continue
        kinds = {j: _col_kinds(t, T, r, j) for j in range(lo, hi + 1)}

        def a_escape(j1):
            a = T.entry(r, j1 + 1)
            below = T.entry(r + 1, j1)
            return a is not None and _cmp(t, a, below) < 0

        def b_escape(j0):
            b = T.entry(r + 2, j0 - 1)
            above = T.entry(r + 1, j0)
            return b is not None and _cmp(t, b, above) > 0

        for j0 in range(lo, hi + 1):
            for j1 in range(j0, hi + 1):
                ks = [kinds[j] for j in range(j0, j1 + 1)]
                if any(not k for k in ks):
                    continue
                w = len(ks)
                # first arrangement: k1 low / k2 full-n / 2*k3 alternating /
                # k4 full-nb / k5 high
                for k1 in range(w + 1):
                    if any("lo-n-nb" not in k for k in ks[:k1]):
                        break
                    for k5 in range(w - k1 + 1):
                        if any("hi-n-nb" not in k for k in ks[w - k5 :]):
                            break
                        for k2 in range(w - k1 - k5 + 1):
                            if any("full-n" not in k for k in ks[k1 : k1 + k2]):
                                break
                            for k4 in range(w - k1 - k2 - k5 + 1):
                                if any(
                                    "full-nb" not in k
                                    for k in ks[w - k5 - k4 : w - k5]
                                ):
                                    break
                                k3x2 = w - k1 - k2 - k4 - k5
                                if k3x2 % 2 != 0 or not _alt_mid(ks, k1 + k2, k3x2):
                                    continue
                                if (k1 + k2 + k4 + k5) % 2 == 1 and (k2 or k4):
                                    if not (a_escape(j1) or b_escape(j0)):
                                        return False
                # second arrangement: fixed pair (lo-nb-nb, full-n) /
                # 2*k3 alternating / k4 full-nb / k5 high; only the a escape
                if w >= 2 and "lo-nb-nb" in ks[0] and "full-n" in ks[1]:
                    for k5 in range(w - 1):
                        if any("hi-n-nb" not in k for k in ks[w - k5 :]):
                            break
                        for k4 in range(w - 2 - k5 + 1):
                            if any(
                                "full-nb" not in k for k in ks[w - k5 - k4 : w - k5]
                            ):
                                break
                            k3x2 = w - 2 - k4 - k5
                            if k3x2 % 2 != 0 or not _alt_mid(ks, 2, k3x2):
                                continue
                            if (k4 + k5) % 2 == 1 and k4:
                                if not a_escape(j1):
                                    return False
                # third arrangement: k1 low / k2 full-n / 2*k3 alternating /
                # fixed pair (full-nb, hi-n-n); only the b escape
                if w >= 2 and "full-nb" in ks[-2] and "hi-n-n" in ks[-1]:
                    for k1 in range(w - 1):
                        if any("lo-n-nb" not in k for k in ks[:k1]):
                            break
                        for k2 in range(w - 2 - k1 + 1):
                            if any("full-n" not in k for k in ks[k1 : k1 + k2]):
                                break
                            k3x2 = w - 2 - k1 - k2
                            if k3x2 % 2 != 0 or not _alt_mid(ks, k1 + k2, k3x2):
                                continue
                            if (k1 + k2) % 2 == 1 and k2:
                                if not b_escape(j0):
                                    return False
    return True
