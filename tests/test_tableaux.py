import itertools

import pytest

from qjt.jacobitrudi import chi_h
from qjt.paths import no_ordinary_tuples, p_tilde
from qjt.ring import letters, make_type, parse_letter
from qjt.shapes import shape
from qjt.tableaux import (
    Tableau,
    _row_heights,
    column_companions,
    enumerate_tableaux,
    is_valid,
    path_tuple_to_tableau,
    resolve_ruleset,
    satisfies_1col_rule,
    satisfies_2col_rule,
    satisfies_2row_rule,
    satisfies_3row_rule,
    tableau_from_rows,
    tableau_sum,
    tableau_to_path_tuple,
)

from optimized import error_under_O
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
