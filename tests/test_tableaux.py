import gc
import hashlib
import itertools
import random
import re
import tracemalloc

import pytest

import qjt.paths as paths_module
import qjt.tableaux as tableaux_module
from qjt.jacobitrudi import chi_e, chi_h
from qjt.paths import (
    Path,
    PathTuple,
    _Frame,
    _hpath_table,
    _pair_masks,
    _table_keys,
    _transposed,
    band,
    model_status,
    no_ordinary_tuples,
    p_tilde,
    signed_path_sum,
)
from qjt.ring import AlgType, RingElem, delta, letter_order, letter_str, letters, make_type, word_keys, z_product
from qjt.shapes import shape
from qjt.tableaux import (
    RULESETS,
    Tableau,
    _2col_ok,
    _cmp,
    _col_layout,
    _far_pairs,
    column_companions,
    enumerate_tableaux,
    path_tuple_to_tableau,
    resolve_ruleset,
    satisfies_2row_rule,
    satisfies_3row_rule,
    tableau_sum,
    tableau_to_path_tuple,
    tableaux_with_sum,
)

from optimized import error_under_O
from test_acceptance import a_shapes, c_class_shapes, criterion_08_cases, skew_shapes
from test_paths import east_labels, hpath_steps, walk
from test_shapes import all_partitions, subpartitions


def parse_letter(s: str) -> int:
    """The letter of letter_str's text: k, 0 or kb."""
    return -int(s[:-1]) if s.endswith("b") else int(s)


def tableau_from_rows(s, rows) -> Tableau:
    """The tableau of shape s with these rows of letters (ints or texts)."""
    cells = tuple(tuple(c if isinstance(c, int) else parse_letter(c) for c in row) for row in rows)
    if len(cells) != len(s.lam):
        raise ValueError(f"{len(cells)} rows given for a shape with {len(s.lam)} rows")
    for i, row in enumerate(cells, start=1):
        if len(row) != s.lam[i] - s.mu[i]:
            raise ValueError(f"row {i} has {len(row)} entries, the shape has {s.lam[i] - s.mu[i]}")
    return Tableau(s, cells)


def tableau_json(tab: Tableau) -> dict:
    return {
        "lambda": list(tab.shape.lam.parts),
        "mu": list(tab.shape.mu.parts),
        "rows": [[letter_str(c) for c in row] for row in tab.cells],
    }


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


def companions_oracle(t: AlgType, c: tuple) -> tuple:
    """column_companions by search: the letters of the unique tuple of
    one-box paths with one transposed pair whose weight is the column's; the
    two paths of the pair contribute n-bar and n at the crossing."""
    n, l = t.rank, len(c)
    target = z_product(t, [(c[i], -2 * i) for i in range(l)])
    matches = [
        pt
        for pt in no_ordinary_tuples(t, shape([1] * l))
        if len(pt.transposed_pairs(t)) == 1 and pt.weight(t, 0) == target
    ]
    k = max((i for i in range(l) if _cmp(t, c[i], n) <= 0), default=-1) + 1  # 1-based
    # one east step per path, except none at row k and two at row k+1
    labs = [east_labels(t, p) for p in matches[0].paths] if len(matches) == 1 else []
    if [len(x) for x in labs] != [1] * (k - 1) + [0, 2] + [1] * (l - k - 1):
        raise ValueError(f"{c} is not a bounding one-column pattern of {t}")
    return tuple(-n if i == k - 1 else n if i == k else labs[i][0][0] for i in range(l))


def bounding_patterns(t: AlgType) -> list[tuple]:
    """Every bounding one-column pattern of t: c_1 in 1..n, l = n+2-c_1
    strictly increasing letters up to c_1-bar, no far pair but (c_1, c_l)."""
    n = t.rank
    out = []
    for c1 in range(1, n + 1):
        l = n + 2 - c1
        between = [x for x in letters(t) if _cmp(t, c1, x) < 0 < _cmp(t, -c1, x)]
        for inner in itertools.combinations(between, l - 2):
            c = (c1, *inner, -c1)
            if all(pq == (0, l - 1) for pq in _far_pairs(n, c)):
                out.append(c)
    return out


def test_column_companions_match_the_search():
    # the closed form against the one-transposed-pair search on every
    # bounding pattern up to rank 5
    seen = []
    for n in (2, 3, 4, 5):
        t = make_type("C", n)
        patterns = bounding_patterns(t)
        seen.append(len(patterns))
        for c in patterns:
            assert column_companions(t, c) == companions_oracle(t, c), (t, c)
    assert seen == [3, 8, 22, 64]


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
    with pytest.raises(ValueError, match="the tableau model covers types A, B and C, not D3"):
        tableau_to_path_tuple(t, Tableau(s, ((1, -1), (1,))))


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


@pytest.mark.parametrize("fam", ["A", "B", "C", "D"])
def test_model_status_refuses_unknown_models(fam):
    # 'auto' is resolved before the table is read; taken as a model, it
    # would pass every C shape as proven
    t = make_type(fam, 3)
    for model in ("auto", "bogus", "tableau"):
        for s in (None, shape((3, 1, 1, 1))):
            with pytest.raises(ValueError, match=f"unknown model '{model}'"):
                model_status(t, model, s)


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


def test_weights_are_the_z_products_on_criterion_8_shapes():
    # Tableau.weight and PathTuple.weight sum letter keys; z_product, which
    # sums exponents, is their oracle.  Every 50th hv tableau of each of
    # criterion 8's shapes, the first included, and its path tuple, at
    # offsets 0 and -3: rows below the first start left of x = 0
    seen = 0
    for t, shapes in criterion_08_cases():
        f = 2 * delta(t)
        for s in shapes:
            for T in enumerate_tableaux(t, s, "hv")[::50]:
                pt = tableau_to_path_tuple(t, T)
                for off in (0, -3):
                    cells = [(c, off + f * (s.mu[i] + 1 - i + m)) for i, row in enumerate(T.cells, 1) for m, c in enumerate(row)]
                    labels = [(c, x + off) for p in pt.paths for c, x in east_labels(t, p)]
                    assert T.weight(t, off) == z_product(t, cells), (t, s, T.cells, off)
                    assert pt.weight(t, off) == z_product(t, labels), (t, s, T.cells, off)
                seen += 1
    assert seen == 6_295


def test_weights_refuse_letters_outside_the_alphabet():
    t = make_type("C", 2)
    with pytest.raises(ValueError, match="letter 0 not in alphabet of C2"):
        Tableau(shape((2,)), ((1, 0),)).weight(t)


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


# The path labels and their inverse: oracles for the words of the h-path
# tables, and for the shared table index of the path-tableau
# correspondence, which reads no label.


def _path_word(t: AlgType, y0: int, steps: str) -> tuple:
    """The letters of the east steps of a path from height y0."""
    return tuple(c for c, _s in east_labels(t, Path((0, y0), steps)))


def _row_heights(t: AlgType, row: tuple) -> list[int]:
    """Heights of the east steps realizing this row, the inverse of
    ``east_labels``; unique by monotonicity.  In C an n or n-bar sits
    at height 0 inside the block n-bar, n, ..., n-bar, n that starts at the
    first n-bar directly followed by n."""
    model_status(t, "hv")
    n, bot, fam_c = t.rank, band(t)[0], t.family == "C"
    hs = [letter_order(t, c) + bot + (1 if fam_c and c < 0 else 0) for c in row]
    m = len(row)
    if fam_c:
        p = next((x for x in range(m - 1) if row[x] == -n and row[x + 1] == n), m)
        while p + 1 < m and row[p] == -n and row[p + 1] == n:
            hs[p] = hs[p + 1] = 0
            p += 2
    if any(hs[x] > hs[x + 1] for x in range(m - 1)):
        raise ValueError(f"row {row} is realized by no path in {t}")
    return hs


def _row_steps(t: AlgType, row: tuple) -> str:
    """The steps of the path whose east steps lie at the heights of
    _row_heights (not always an h-path: B (0, 0) gets two east steps at
    height 0)."""
    bot, top = band(t)
    steps = []
    y = bot
    for h in _row_heights(t, row):
        steps.append("N" * (h - y) + "E")
        y = h
    steps.append("N" * (top - y))
    return "".join(steps)


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


@pytest.mark.parametrize("fam", ["A", "B", "C"])
def test_row_heights_invert_the_path_labels(fam):
    # the word of every h-path of width <= 3 gives back the heights of the
    # path's east steps
    seen = 0
    for n in (1, 2, 3, 4):
        t = make_type(fam, n)
        bot = band(t)[0]
        for r in range(4):
            for steps in _hpath_table(t, r).steps:
                heights = [y for (_x, y), e in zip(walk(Path((0, bot), steps)), steps) if e == "E"]
                assert _row_heights(t, _path_word(t, bot, steps)) == heights, (t, steps)
                seen += 1
    assert seen == {"A": 121, "B": 388, "C": 318}[fam]


def test_hpath_and_row_tables_agree():
    # the one table of width r holds the words its h-paths read, and they
    # are the rows of length r that the cell rules allow, in the cell
    # search's order: path i reads row word i, with one packed key
    seen = 0
    for fam, ranks in (("A", (1, 2, 3, 4)), ("B", (1, 2, 3, 4)), ("C", (1, 2, 3, 4))):
        for n in ranks:
            t = make_type(fam, n)
            bot = band(t)[0]
            for r in range(6):
                table = _hpath_table(t, r)
                rows = rows_oracle(t, r)
                assert [_path_word(t, bot, steps) for steps in table.steps] == list(table.words) == rows, (t, r)
                assert _table_keys(t, r, 8) == word_keys(t, 8, rows), (t, r)
                seen += 1
    assert seen == 72


@pytest.mark.parametrize("fam", ["A", "B", "C"])
def test_bijection_matches_the_path_labels(fam):
    # on a one-row shape of 1-3 cells: every letter word goes to the path
    # that the labels give (_row_steps) when that path is an h-path and is
    # refused otherwise, and every N/E word of the row's steps goes to the
    # word it reads (_path_word) when it is an h-path and is refused
    # otherwise
    seen = refused = 0
    for n in (1, 2, 3) if fam != "C" else (2, 3):
        t = make_type(fam, n)
        bot, top = band(t)
        for m in (1, 2, 3):
            s, length = shape((m,)), m + top - bot
            hpaths = set(hpath_steps(t, m))
            for row in itertools.product(letters(t), repeat=m):
                try:
                    steps = _row_steps(t, row)
                except ValueError:
                    steps = None
                tab = Tableau(s, (row,))
                if steps in hpaths:
                    pt = tableau_to_path_tuple(t, tab)
                    assert pt.paths == (Path((0, bot), steps),) and path_tuple_to_tableau(t, pt) == tab, (t, row)
                else:
                    with pytest.raises(ValueError, match="is read by no h-path"):
                        tableau_to_path_tuple(t, tab)
                    refused += 1
                seen += 1
            for east in itertools.combinations(range(length), m):
                steps = "".join("E" if x in east else "N" for x in range(length))
                pt = PathTuple((Path((0, bot), steps),), (0,), s)
                if steps in hpaths:
                    assert path_tuple_to_tableau(t, pt).cells == (_path_word(t, bot, steps),), (t, steps)
                else:
                    with pytest.raises(ValueError, match="is no h-path"):
                        path_tuple_to_tableau(t, pt)
                    refused += 1
                seen += 1
    assert (seen, refused) == {"A": (199, 75), "B": (786, 436), "C": (516, 258)}[fam]


@pytest.mark.parametrize("fam,ranks", [("A", (1, 2, 3, 4)), ("B", (1, 2, 3)), ("C", (1, 2, 3))])
def test_adjacent_pair_masks_are_below(fam, ranks):
    # Row k+1 of a shape, lb long, starts off <= 0 columns right of row k,
    # la long, and ends no further right (lb + off <= la).  Their paths start
    # d = 1 - off >= 1 columns apart and end d + la - lb >= 1 apart, so they
    # are never transposed; and since path c of a table reads its row word
    # c, the path layer's pair mask of what may follow path c at d (disjoint
    # paths for A, no ordinary meeting for B and C), the tableau search's
    # pair test, is the vertical cell rule's mask, below_oracle.  Rows of 0-4
    # cells with -4 <= off; B4 and C4 are left out, as their oracle masks
    # alone take seconds.
    seen = 0
    for n in ranks:
        t = make_type(fam, n)
        for la, lb in itertools.product(range(5), repeat=2):
            for off in range(-4, min(0, la - lb) + 1):
                assert not _transposed(1 - off, 1 - off + la, 0, lb)
                for c in range(len(_hpath_table(t, la).words)):
                    disjoint, special = _pair_masks(t, la, lb, 1 - off, c)
                    below = disjoint if fam == "A" else disjoint | special
                    assert below == below_oracle(t, la, lb, off, c), (t, la, lb, off, c)
                    seen += 1
    assert seen == {"A": 340 + 819 + 1_666 + 3_030, "B": 575 + 2_513 + 7_140, "C": 510 + 2_059 + 5_801}[fam]


def test_serialization():
    t, tab = T(("C", 2), (2, 1), (), [["1", "2b"], ["2"]])
    obj = tableau_json(tab)
    assert obj["rows"] == [["1", "2b"], ["2"]]
    back = tableau_from_rows(shape(tuple(obj["lambda"]), tuple(obj["mu"])), obj["rows"])
    assert back == tab


def test_tableau_from_rows_fails_closed():
    for rows in ([["1", "1", "1"], ["2"]], [["1", "1"]], [["1", "1"], ["2"], ["3"]]):
        with pytest.raises(ValueError):
            tableau_from_rows(shape((2, 1)), rows)


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


_BIJECTION_SETUP = (
    "from qjt.paths import Path, PathTuple; from qjt.ring import make_type; from qjt.shapes import shape; "
    "from qjt.tableaux import Tableau, path_tuple_to_tableau, tableau_to_path_tuple; "
    "B2 = make_type('B', 2); "
)


_REFUSALS = [
        # two east steps at height 0, which no B h-path takes: inverting
        # the path labels turned the row into such a path, and back
        ("tableau_to_path_tuple(B2, Tableau(shape((2,)), ((0, 0),)))", "row 1 (0, 0) is read by no h-path of B2"),
        (
            "path_tuple_to_tableau(B2, PathTuple((Path((0, -2), 'NNEENN'),), (0,), shape((2,))))",
            "path 1 (0,-2):NNEENN is no h-path of B2 from (0, -2) to (2, 2)",
        ),
        # paths that start off the shape's start, an h-path among them
        (
            "path_tuple_to_tableau(B2, PathTuple((Path((1, -2), 'NNEENN'),), (0,), shape((2,))))",
            "path 1 (1,-2):NNEENN is no h-path of B2 from (0, -2) to (2, 2)",
        ),
        (
            "path_tuple_to_tableau(B2, PathTuple((Path((-1, -2), 'ENNNNE'),), (0,), shape((2,))))",
            "path 1 (-1,-2):ENNNNE is no h-path of B2 from (0, -2) to (2, 2)",
        ),
        # path and row counts other than the shape's row count
        (
            "path_tuple_to_tableau(B2, PathTuple((Path((0, -2), 'ENNNNE'),), (0,), shape((2, 1))))",
            "path count 1 for a shape of 2 rows",
        ),
        ("tableau_to_path_tuple(B2, Tableau(shape((2, 1)), ((1, 1),)))", "row count 1 for a shape of 2 rows"),
        ("tableau_to_path_tuple(B2, Tableau(shape((2,)), ((1, 1), (2,))))", "row count 2 for a shape of 1 rows"),
]


@pytest.mark.parametrize("call,message", _REFUSALS)
def test_bijection_fails_closed(call, message):
    with pytest.raises(ValueError) as exc:
        exec(_BIJECTION_SETUP + call)
    assert str(exc.value) == message
    assert error_under_O(_BIJECTION_SETUP + call) == f"ValueError: {message}"


# a round trip of every hv tableau of the shape, both ways, which leaves the
# shape's cached correspondence warm; it exits if a tableau comes back changed
_WARM_ROUND_TRIP = (
    "import sys; from qjt.tableaux import enumerate_tableaux; hv = enumerate_tableaux(B2, {shape}, 'hv'); "
    "hv == [path_tuple_to_tableau(B2, tableau_to_path_tuple(B2, T)) for T in hv] or sys.exit('round trip broken'); "
)


@pytest.mark.parametrize(
    "call,message",
    _REFUSALS
    + [
        # a row of an h-path one column short of its row's end
        ("tableau_to_path_tuple(B2, Tableau(shape((2, 1)), ((1,), (1,))))", "row 1 (1,) gives a path ending at (1, 2), not (2, 2)"),
    ],
)
def test_bijection_fails_closed_after_a_round_trip(call, message):
    # a refusal stays a refusal once the shape's rows have been looked up
    # and their paths built: nothing a success leaves behind answers it
    warm = _BIJECTION_SETUP + _WARM_ROUND_TRIP.format(shape=re.search(r"shape\(\([\d, ]*\)\)", call)[0])
    tableaux_module._links.cache_clear()
    for _ in range(2):
        with pytest.raises(ValueError) as exc:
            exec(warm + call, {})
        assert str(exc.value) == message
    assert error_under_O(warm + call) == f"ValueError: {message}"


def test_rows_given_as_lists_give_the_same_tuples():
    # lists are read as tuples, with a cold and with a warm correspondence
    seen = 0
    for fam, n in (("A", 2), ("B", 2), ("C", 2)):
        t = make_type(fam, n)
        for lam, mu in [((2, 1), ()), ((3, 2, 1), (1,)), ((3, 3), (2,))]:
            s = shape(lam, mu)
            tableaux_module._links.cache_clear()
            for T in enumerate_tableaux(t, s, "hv"):
                listed = Tableau(s, [list(row) for row in T.cells])
                first = tableau_to_path_tuple(t, listed)
                assert first == tableau_to_path_tuple(t, T) == tableau_to_path_tuple(t, listed), (t, T.cells)
                assert path_tuple_to_tableau(t, first) == T
                seen += 1
    B2 = make_type("B", 2)
    with pytest.raises(ValueError, match=re.escape("row 1 (0, 0) is read by no h-path of B2")):
        tableau_to_path_tuple(B2, Tableau(shape((2,)), [[0, 0]]))
    assert seen == 776


def test_column_companions_fails_closed():
    t = make_type("C", 3)
    refused = [
        (1, 2),
        (1, 3, 2, -1),  # not increasing
        (1, 3, -3, -1),  # a far inner pair
        (2, -2),  # too short
        (2, 3, -3, -2),  # too long
        (3, -3, 3),  # the last letter is not the bar of the first
        (0, 1),  # a letter outside the alphabet
        (1, 2, 4, -1),  # an inner letter outside the alphabet
    ]
    for c in refused:
        with pytest.raises(ValueError, match="not a bounding one-column pattern"):
            column_companions(t, c)
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


def test_2row_and_2col_rules_match_oracles_on_hv_tableaux():
    # every hv tableau of the 2- and 3-row C2/C3 shapes in a 3x3 box
    counts = []
    for n in (2, 3):
        t = make_type("C", n)
        seen = rows_rejected = cols_rejected = 0
        for s in skew_shapes(9, 3, 3):
            if len(s.lam) < 2:
                continue
            for tab in enumerate_tableaux(t, s, "hv"):
                rows_ok, cols_ok = satisfies_2row_rule(t, tab), satisfies_2col_rule(t, tab)
                assert rows_ok == satisfies_2row_rule_oracle(t, tab), (n, tab)
                assert cols_ok == satisfies_2col_rule_oracle(t, tab), (n, tab)
                seen += 1
                rows_rejected += not rows_ok
                cols_rejected += not cols_ok
        counts.append((seen, rows_rejected, cols_rejected))
    assert counts == [(5552, 814, 980), (41344, 4212, 4760)]


def test_2row_and_2col_rules_match_oracles_on_random_fillings():
    # letter fillings of random skew shapes, valid or not; most letters are
    # drawn from n-1, n and their bars, which the two rules read
    rng = random.Random(20261019)
    rows_rejected = cols_rejected = 0
    for _ in range(5000):
        n = rng.choice((2, 3, 4))
        t = make_type("C", n)
        lam = sorted((rng.randint(1, 4) for _ in range(rng.randint(2, n + 2))), reverse=True)
        mu = sorted((rng.randint(0, 2) for _ in lam), reverse=True)
        s = shape(tuple(lam), tuple(min(m, l) for m, l in zip(mu, lam) if m))
        near = (n - 1, n, -n, 1 - n)
        rows = [
            [rng.choice(near) if rng.random() < 0.6 else rng.choice(letters(t)) for _ in range(s.lam[i] - s.mu[i])]
            for i in range(1, len(lam) + 1)
        ]
        tab = tableau_from_rows(s, rows)
        rows_ok, cols_ok = satisfies_2row_rule(t, tab), satisfies_2col_rule(t, tab)
        assert rows_ok == satisfies_2row_rule_oracle(t, tab), (n, tab)
        assert cols_ok == satisfies_2col_rule_oracle(t, tab), (n, tab)
        rows_rejected += not rows_ok
        cols_rejected += not cols_ok
    assert (rows_rejected, cols_rejected) == (411, 293)


def test_C_rule_sums_build_no_tableau(monkeypatch):
    # the C extra rules run on row-table indices: a rows or columns sum
    # builds no Tableau, while enumerate_tableaux builds one per tableau
    built = []

    def counted(*args):
        built.append(args)
        return Tableau(*args)

    monkeypatch.setattr(tableaux_module, "Tableau", counted)
    t = make_type("C", 3)
    for lam, ruleset in (((3, 2, 1), "rows"), ((2, 2, 1), "rows"), ((2, 2, 1, 1), "columns"), ((2, 1), "columns")):
        s = shape(lam)
        assert tableau_sum(t, s, 0, ruleset) == chi_h(t, s), (lam, ruleset)
    assert built == []
    assert len(enumerate_tableaux(t, shape((2, 2, 1, 1)), "columns")) == len(built) > 0


def test_tableau_layer_refuses_C_rank_1():
    # C1 (1,1,1) gave 0 tableaux and sum 0, while chi_h has 2 terms
    t, s = make_type("C", 1), shape((1, 1, 1))
    assert chi_h(t, s).num_terms() == 2
    for ruleset in RULESETS:
        for f in (enumerate_tableaux, tableau_sum, tableaux_with_sum):
            with pytest.raises(ValueError, match="the C tableau rules need rank at least 2, not C1"):
                f(t, s, ruleset=ruleset)


def _enumeration_digest(cases, ruleset):
    h = hashlib.sha256()
    for t, s in cases:
        cells = [tab.cells for tab in enumerate_tableaux(t, s, ruleset)]
        h.update(repr((str(t), s.lam.parts, s.mu.parts, cells)).encode())
    return h.hexdigest()


# sha256 of the ordered enumerate_tableaux output on the criterion 4-6 shapes
# that the ruleset admits, captured before the cell tests took letters; A and
# B ignore the ruleset.  The C rows and columns digests were taken again over
# their admitted shapes alone, before model_status refused the others.
ENUMERATION_GOLDEN = {
    ("AB", "hv"): "c50fec10e8f3505424181ac1dc0647c56464842853ca89159c5e91f7acdc58f6",
    ("C", "hv"): "a8ce916e043a399c702d52ec4a9dd26d86da82396b37927549307e090ae6cdec",
    ("C", "rows"): "a82e618471988f2a235ce63eb17d8b1f2821c03fd7836ab9de83b4397345d9b9",
    ("C", "columns"): "beae09dd48624f3f2c2e0f1e9d5620e6ad1bee5a499a6fce31089d318de613ef",
    ("C", "auto"): "5c0af5e4337acf60b78995abf35fd7f944b2913e8045ff78a28f6c26494a940f",
}


def refusal(t, s, ruleset):
    """model_status's message for the ruleset on the shape, or None if it
    admits it."""
    try:
        model_status(t, resolve_ruleset(t, s, ruleset), s)
    except ValueError as e:
        return str(e)
    return None


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
    admitted = []
    for t, s in cases:
        why = refusal(t, s, ruleset)
        if why is None:
            admitted.append((t, s))
        else:
            with pytest.raises(ValueError, match=re.escape(why)):
                enumerate_tableaux(t, s, ruleset)
    assert _enumeration_digest(admitted, ruleset) == ENUMERATION_GOLDEN[(families, ruleset)]


# ---------------------------------------------------------------------------
# The row-major cell search, kept verbatim as the oracle for the row tables
# and the row masks of qjt.tableaux, and the whole-tableau rule checks that
# it and the other tests read.  The horizontal and vertical rules are cell
# tests on letters here; the library reads its rows off the h-path tables
# and the rows that may lie under a row off the paths' pair masks instead.


def _h_ok(t: AlgType, left: int, right: int) -> bool:
    if t.family == "B" and left == right == 0:
        return False
    return _cmp(t, left, right) <= 0 or (t.family == "C" and (left, right) == (-t.rank, t.rank))


def _h_triple_ok(t: AlgType, c1, c2, c3) -> bool:
    if t.family != "C":
        return True
    n = t.rank
    return (c1, c2, c3) not in ((-n, -n, n), (-n, n, n))


def _v_ok(t: AlgType, up: int, dn: int, dn_left, up_right) -> bool:
    """Vertical rule between a letter and the letter below it; dn_left is the
    letter left of the lower cell, up_right the letter right of the upper
    cell (None where there is no cell)."""
    n = t.rank
    return (
        _cmp(t, up, dn) < 0
        or (t.family == "B" and up == dn == 0)
        or (t.family == "C" and (up == dn == n and dn_left == -n or up == dn == -n and up_right == n))
    )


def below_oracle(t: AlgType, la: int, lb: int, off: int, c: int) -> int:
    """Bitmask over the rows of length lb that may lie under row c of length
    la when the lower row starts off columns right of the upper one: _v_ok
    at every column the two rows share."""
    up = _hpath_table(t, la).words[c]
    cols = range(max(0, -off), min(lb, la - off))  # indices into the lower row
    mask = 0
    for d, dn in enumerate(_hpath_table(t, lb).words):
        if all(
            _v_ok(t, up[p + off], dn[p], dn[p - 1] if p else None, up[p + off + 1] if p + off + 1 < la else None)
            for p in cols
        ):
            mask |= 1 << d
    return mask


def rows_oracle(t: AlgType, length: int) -> list[tuple]:
    """The rows of this length allowed by _h_ok and _h_triple_ok, in
    lexicographic alphabet order."""
    alphabet = letters(t)
    words = []
    row: list[int] = []

    def rec():
        if len(row) == length:
            words.append(tuple(row))
            return
        for v in alphabet:
            if row and not (_h_ok(t, row[-1], v) and (len(row) < 2 or _h_triple_ok(t, row[-2], row[-1], v))):
                continue
            row.append(v)
            rec()
            row.pop()

    rec()
    return words


def is_valid(t: AlgType, T: Tableau) -> bool:
    """The family's horizontal and vertical rules (no extra rules), cell by
    cell on a whole tableau."""
    for i, j in T.shape.boxes():
        c = T.entry(i, j)
        r = T.entry(i, j + 1)
        if r is not None:
            if not _h_ok(t, c, r):
                return False
            ll = T.entry(i, j - 1)
            if ll is not None and not _h_triple_ok(t, ll, c, r):
                return False
        dn = T.entry(i + 1, j)
        if dn is not None and not _v_ok(t, c, dn, T.entry(i + 1, j - 1), r):
            return False
    return True


def satisfies_2col_rule(t: AlgType, T: Tableau) -> bool:
    """The two-column rule on every column of T."""
    return _2col_ok(t, T.cells, _col_layout(T.shape.lam.parts, T.shape.mu.parts))


def satisfies_extra_rules(t: AlgType, T: Tableau, ruleset: str) -> bool:
    """The C extra rules of a resolved ruleset on a whole tableau."""
    if ruleset == "hv" or t.family != "C":
        return True
    if ruleset == "rows":
        return satisfies_2row_rule(t, T) and satisfies_3row_rule(t, T)
    if ruleset == "columns":
        return satisfies_2col_rule(t, T)
    raise ValueError(f"unknown ruleset {ruleset!r}")


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
        why = refusal(t, s, ruleset)
        if why is not None:
            for f in (enumerate_tableaux, tableaux_with_sum, tableau_sum):
                with pytest.raises(ValueError, match=re.escape(why)):
                    f(t, s, ruleset=ruleset)
            continue
        rules = resolve_ruleset(t, s, ruleset)
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
    for s in [shape(())] + skew_shapes(9, 3, 3):  # no rows: one empty filling
        if len(s.boxes()) <= 5:
            assert_row_tables_match_oracle(t, s, RULESETS)


@pytest.mark.parametrize("model,n,lam", [("rows", 3, (3, 1, 1, 1)), ("columns", 3, (3, 3, 1, 1)), ("hv", 2, (1, 1))])
def test_the_table_refuses_or_labels_where_the_rules_fail(model, n, lam):
    # witnesses for the table: run past model_status, the cell search with
    # the ruleset's extra rules sums to something other than chi_h (131
    # terms against 70, 675 against 672, 6 against 5)
    t, s = make_type("C", n), shape(lam)
    assert RingElem.sum(T.weight(t) for T in enumerate_tableaux_oracle(t, s, model)) != chi_h(t, s)
    if model == "hv":
        assert model_status(t, model, s) == "not a character"
    else:
        with pytest.raises(ValueError, match="no C3 tableau rule covers .*: more than (3 rows|2 columns)$"):
            model_status(t, model, s)


def test_row_tables_match_cell_search_C3_columns():
    t = make_type("C", 3)
    for s in skew_shapes(8, 4, 2):
        assert_row_tables_match_oracle(t, s, ["columns"])


def test_long_rows_are_searched():
    # the h-path search keeps its own stack, so no row is too long for it:
    # A1 (2000,) has 2,001 tableaux, 1^k 2^(2000-k) for k = 2000 down to 0,
    # and its tableau sum, its path sum and the sum of the tableaux'
    # weights agree.  The sum of a row of 60 is chi_e; chi_e of (2000,) is
    # a determinant of 2000 rows, whose cofactor expansion recurses once
    # per row.
    t = make_type("A", 1)
    assert tableau_sum(t, shape((60,))) == chi_e(t, shape((60,)))
    s = shape((2000,))
    tabs, total = tableaux_with_sum(t, s)
    assert [T.cells for T in tabs] == [((1,) * k + (2,) * (2000 - k),) for k in range(2000, -1, -1)]
    assert total == RingElem.sum(T.weight(t) for T in tabs) == tableau_sum(t, s) == signed_path_sum(t, s)


def test_row_keys_widen_with_the_exponent_bound():
    # a 128-row A1 ribbon: the placement holds row_bound(A1) = 1 per row,
    # past the 127 of 8-bit digits, so the rows' words are packed at 16 bits
    t = make_type("A", 1)
    s = shape(tuple(range(129, 1, -1)), tuple(range(127, 0, -1)))
    assert _Frame(t, s).place.bound > 127
    tabs, total = tableaux_with_sum(t, s, 5)
    assert len(tabs) == 4
    assert total._w == 16
    assert total == RingElem.sum(T.weight(t, 5) for T in tabs)
    assert tableau_sum(t, s, 5).terms == total.terms


@pytest.mark.parametrize("l, w", [(7, 4), (8, 8), (127, 8), (128, 16)])
def test_placements_widen_past_7_and_127_rows(l, w):
    # row_bound(A1) = 1 per row: 7 rows fit 4-bit digits, 127 rows 8-bit
    # ones, and 128 rows need 16 bits, in the path frame that the tableau
    # sums share; an l-row A1 ribbon of two-cell rows has 4 tableaux, and
    # its sum is their z_products
    t = make_type("A", 1)
    s = shape(tuple(range(l + 1, 1, -1)), tuple(range(l - 1, 0, -1)))
    assert _Frame(t, s).place.w == w
    tabs, total = tableaux_with_sum(t, s, 5)
    assert len(tabs) == 4 and total._w == w
    assert total == RingElem.sum(T.weight(t, 5) for T in tabs)
    f = 2 * delta(t)
    assert total == RingElem.sum(
        z_product(t, [(c, 5 + f * (s.mu[i] + 1 - i + m)) for i, row in enumerate(T.cells, 1) for m, c in enumerate(row)])
        for T in tabs
    )


def test_wide_rows_reuse_the_tables():
    # the ribbon above reads only the table of length 2, which A1 (2) has
    # made; its 16-bit keys are packed from its words, not tabulated again
    t = make_type("A", 1)
    tableau_sum(t, shape((2,)))
    before = _hpath_table.cache_info().currsize
    s = shape(tuple(range(129, 1, -1)), tuple(range(127, 0, -1)))
    assert _Frame(t, s).place.w == 16
    assert tableau_sum(t, s).num_terms() == 4
    assert _hpath_table.cache_info().currsize == before



def test_mask_tables_stay_small():
    # the mask tables hold one list slot per cached mask and skip the
    # three-row windows the rule cannot read.  After the B3 hv and C3 rows
    # sums of the tableaux benchmark's shapes (3 x 3 box, at most 6 boxes)
    # and the C2 p_k_tuples of its three-row shapes, clearing the three mask
    # tables and the precheck masks frees 257 KiB under tracemalloc
    # (CPython 3.11): the rows below a row are its pair masks, two ints a
    # slot.  One lru_cache entry per (type, lengths, offset, index) held
    # 827.6 KiB on the same run; the bound is half of that.
    caches = (tableaux_module._below_2row, tableaux_module._row3_mask, paths_module._pair_masks, tableaux_module._holding)
    small = [s for s in skew_shapes(9, 3, 3) if s.size() <= 6]
    for f in caches:
        f.cache_clear()
    tracemalloc.start()
    try:
        for s in small:
            tableau_sum(make_type("B", 3), s, 0, "hv")
            tableau_sum(make_type("C", 3), s, 0, "rows")
        for s in skew_shapes(9, 3, 3, exact_rows=3):
            paths_module.p_k_tuples(make_type("C", 2), s)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        for f in caches:
            f.cache_clear()
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(small) == 166 and freed < 827.6 * 1024 / 2, freed

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


# ---------------------------------------------------------------------------
# The two-row and two-column rules read cell by cell from a Tableau, kept
# verbatim as the oracles for the word-level rules in qjt.tableaux, and the
# one-column rule, which only the tests read.


def _block_rows(T: Tableau, i: int):
    """Columns j where both (i, j) and (i+1, j) are cells."""
    s = T.shape
    lo = max(s.mu[i], s.mu[i + 1]) + 1
    hi = min(s.lam[i], s.lam[i + 1])
    return range(lo, hi + 1)


def satisfies_2row_rule_oracle(t: AlgType, T: Tableau) -> bool:
    """No odd-width block of n's atop n-bar's without an n to its upper right
    or an n-bar to its lower left."""
    n = t.rank
    for i in range(1, len(T.cells)):
        cols = list(_block_rows(T, i))
        m = 0
        while m < len(cols):
            j = cols[m]
            if T.entry(i, j) == n and T.entry(i + 1, j) == -n:
                k = m
                while (
                    k + 1 < len(cols)
                    and T.entry(i, cols[k + 1]) == n
                    and T.entry(i + 1, cols[k + 1]) == -n
                ):
                    k += 1
                j0, j1 = cols[m], cols[k]
                if (j1 - j0 + 1) % 2 == 1:
                    a_ok = T.entry(i, j1 + 1) == n
                    b_ok = T.entry(i + 1, j0 - 1) == -n
                    if not (a_ok or b_ok):
                        return False
                m = k + 1
            else:
                m += 1
    return True


def _column_segments(T: Tableau):
    """(j, i_top, letters) for every column of T."""
    s = T.shape
    lam1 = s.lam[1] if s.lam.parts else 0
    out = []
    lamc, muc = s.lam.conjugate(), s.mu.conjugate()
    for j in range(1, lam1 + 1):
        i_top = muc[j] + 1
        seg = [T.entry(i, j) for i in range(i_top, lamc[j] + 1)]
        if seg:
            out.append((j, i_top, seg))
    return out


def satisfies_1col_rule(t: AlgType, T: Tableau) -> bool:
    """A letter c and its bar in one column must be at most n-c rows apart."""
    return not any(any(_far_pairs(t.rank, seg)) for _j, _i, seg in _column_segments(T))


def satisfies_2col_rule_oracle(t: AlgType, T: Tableau) -> bool:
    """Two-column rule: a bounding column pattern needs a strictly smaller
    right neighbor above the crossing or a strictly larger left neighbor
    below it, measured against the companion letters d_i."""
    n = t.rank
    for j, i_top, seg in _column_segments(T):
        L = len(seg)
        for p in range(L):
            c1 = seg[p]
            if not (1 <= c1 <= n):
                continue
            l = n + 2 - c1
            q = p + l - 1
            if l < 2 or q >= L or seg[q] != -c1:
                continue
            sub = seg[p : q + 1]
            # the pattern must be a valid standalone column (strict)
            if any(_cmp(t, sub[m], sub[m + 1]) >= 0 for m in range(l - 1)):
                continue
            # every proper contiguous piece obeys the one-column rule
            if any(pq != (0, l - 1) for pq in _far_pairs(n, sub)):
                continue
            k = max(i for i in range(l) if _cmp(t, sub[i], n) <= 0) + 1
            d = column_companions(t, tuple(sub))
            i1 = i_top + p
            escape = False
            for i in range(1, k + 1):
                a = T.entry(i1 + i - 1, j + 1)
                if a is not None and _cmp(t, a, d[i - 1]) < 0:
                    escape = True
            for i in range(k + 1, l + 1):
                b = T.entry(i1 + i - 1, j - 1)
                if b is not None and _cmp(t, b, d[i - 1]) > 0:
                    escape = True
            if not escape:
                return False
    return True
