import itertools
import re
from functools import lru_cache

import pytest

from qjt.jacobitrudi import chi_h
from qjt.paths import (
    Path,
    PathTuple,
    _Frame,
    _geometry,
    _hpath_table,
    _pair_masks,
    _signed_sum,
    _table_keys,
    band,
    classify_pair,
    common_points,
    endpoints,
    nonintersecting_tuples,
    no_ordinary_tuples,
    p_k_tuples,
    p_tilde,
    signed_path_sum,
    surviving_tuples_with_sum,
)
from qjt.resolutions import NotApplicable, _common, _index, _leftmost, _on, _rightmost
from qjt.ring import RingElem, delta, letters, make_type, z_product
from qjt.tableaux import _fillings
from qjt.series import h_coeff
from qjt.shapes import shape

from optimized import error_under_O
from test_acceptance import skew_shapes
from test_shapes import all_partitions, subpartitions


def parse_path(text: str) -> Path:
    """The path of Path.to_text's "(x,y):steps"."""
    head, _, steps = text.partition(":")
    x, y = head.strip("()").split(",")
    return Path((int(x), int(y)), steps)


# ---------------------------------------------------------------------------
# The path model of the paper, computed from the steps alone: the oracles of
# the geometry records, the words and the h-path tables of qjt.paths.


def walk(p: Path) -> list:
    """p's points, in path order."""
    x, y = p.start
    pts = [(x, y)]
    for s in p.steps:
        x, y = (x + 1, y) if s == "E" else (x, y + 1)
        pts.append((x, y))
    return pts


def east_labels(t, p: Path):
    """(letter, spectral shift) for each east step of p, in path order: a
    step from (x, y) reads letters(t)[y - bot] at shift 2 delta x, one
    letter lower above C's axis, and C's height-0 steps read n-bar, n in
    turn.  None where an east step leaves the band."""
    bot, top = band(t)
    alphabet, f, fam_c = letters(t), 2 * delta(t), t.family == "C"
    out, axis = [], 0
    for (x, y), s in zip(walk(p), p.steps):
        if s == "N":
            continue
        if not bot <= y <= top:
            return None
        i = y - bot
        if fam_c and y == 0:
            i -= axis % 2
            axis += 1
        elif fam_c and y > 0:
            i -= 1
        out.append((alphabet[i], f * x))
    return out


@lru_cache(maxsize=None)
def hpath_steps(t, r: int) -> tuple:
    """The steps of the h-paths from (0, bot) to (r, top), by brute force:
    every E/N word of r E's and top - bot N's whose run of E's at height 0
    (after -bot N's) has at most one step (B) or an even number (C), sorted
    with E before N.  Empty for r < 0: no h-path ends west of its start."""
    if r < 0:
        return ()
    bot, top = band(t)
    kept = []
    for east in itertools.combinations(range(r + top - bot), r):
        w = "".join("E" if m in east else "N" for m in range(r + top - bot))
        zero = len(w.split("N")[-bot])
        if t.family == "A" or (zero <= 1 if t.family == "B" else zero % 2 == 0):
            kept.append(w)
    return tuple(sorted(kept))  # "E" < "N"


def test_path_basics():
    p = Path((0, 0), "ENNE")
    assert p.end == (2, 2)
    assert walk(p) == [(0, 0), (1, 0), (1, 1), (1, 2), (2, 2)]
    assert parse_path(p.to_text()) == p
    assert parse_path("(-1,-2):NE") == Path((-1, -2), "NE")


def test_enumerate_counts():
    # r east steps interleaved with n north steps: C(r+n, r)
    assert len(_hpath_table(make_type("A", 2), 3).steps) == 10
    # B: at most one east step at height 0, C(4,2)=6 minus the one with both there
    assert len(_hpath_table(make_type("B", 1), 2).steps) == 5
    # C: an even number there, EE at 0 or both easts off height 0 (3 ways)
    assert len(_hpath_table(make_type("C", 1), 2).steps) == 4


def test_labels_A():
    t = make_type("A", 2)
    p = Path((1, 0), "ENEN")  # east at (1,0) letter 1, east at (2,1) letter 2
    assert east_labels(t, p) == [(1, 2), (2, 4)]
    assert PathTuple((p,), (0,), shape(())).weight(t, 0) == z_product(t, [(1, 2), (2, 4)])


def test_labels_B():
    t = make_type("B", 2)
    p = Path((0, -2), "ENNENNE")
    # easts at (0,-2)->letter 1, (1,0)->letter 0, (2,2)->letter -1; shift 4x
    assert east_labels(t, p) == [(1, 0), (0, 4), (-1, 8)]


def test_labels_C_alternation():
    t = make_type("C", 2)
    p = Path((0, -2), "NNEEENNE")
    # height-0 easts at x=0,1,2 labeled -2, 2, -2; height 1 unused here
    labs = east_labels(t, p)
    assert labs == [(-2, 0), (2, 2), (-2, 4), (-1, 6)]


@pytest.mark.parametrize("fam,n", [("A", 2), ("A", 3), ("B", 2), ("C", 2), ("C", 3)])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_single_row_equals_h(fam, n, r):
    t = make_type(fam, n)
    s = shape([r])
    assert signed_path_sum(t, s, 0) == chi_h(t, s, 0)
    assert chi_h(t, s, 0) == h_coeff(t, r, 2 * (r - 1) * delta(t))


def test_classify_pair_A():
    t = make_type("A", 2)
    p = Path((0, 0), "ENN")
    q = Path((1, 0), "NNE")
    assert classify_pair(t, p, q) == "ordinarily"
    q2 = Path((2, 0), "NN")
    assert classify_pair(t, p, q2) == "disjoint"


def test_classify_pair_C():
    t = make_type("C", 1)
    # meet only at height 0, leftmost height-0 x's differ by 1 -> specially
    p = Path((0, -1), "NEEN")
    q = Path((1, -1), "NEEN")
    assert classify_pair(t, p, q) == "specially"
    # same start x -> distance 0, even -> ordinarily
    q3 = Path((0, -1), "NN")
    assert classify_pair(t, p, q3) == "ordinarily"
    # transposed: crossing endpoints
    p2 = Path((1, -1), "NEEN")
    # a specially intersecting pair that does not cross
    a = Path((2, -1), "NEEN")  # (2,-1) -> (4,1)
    b = Path((3, -1), "NEEN")  # (3,-1) -> (5,1)
    assert classify_pair(t, a, b) == "specially"
    assert PathTuple((a, b), (0, 1), shape(())).transposed_pairs(t) == []
    c = Path((2, -1), "NN")  # (2,-1) -> (2,1): starts right of p2, ends left
    assert classify_pair(t, p2, c) == "specially"
    assert PathTuple((p2, c), (0, 1), shape(())).transposed_pairs(t) == [(0, 1)]


def test_gv_involution_A():
    # full signed sum over ALL tuples equals the nonintersecting one:
    # the intersecting tuples cancel in pairs
    t = make_type("A", 2)
    for lam, mu in [((2, 1), ()), ((2, 2), (1,)), ((3, 1), ())]:
        s = shape(lam, mu)
        total = _ref_signed_sum(t, s, _any_pair, 0)
        assert total == signed_path_sum(t, s, 0)
        assert all(pt.sign() == 1 for pt in nonintersecting_tuples(t, s))


def test_full_signed_sum_matches_det_B_C():
    # cancellation holds in types B and C too: summing sign*weight over all
    # tuples gives the determinant, and restricting to the surviving class
    # changes nothing
    for fam, n in [("B", 2), ("C", 2)]:
        t = make_type(fam, n)
        s = shape((2, 1))
        assert _ref_signed_sum(t, s, _any_pair, 0) == chi_h(t, s, 0)


@pytest.mark.parametrize("fam,n", [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3)])
def test_signed_sum_equals_determinant(fam, n):
    t = make_type(fam, n)
    for lam in all_partitions(6, 3, 3):
        if not lam:
            continue
        for mu in subpartitions(lam):
            if len(mu) >= len(lam) and mu:
                continue
            s = shape(lam, mu)
            assert signed_path_sum(t, s, 0) == chi_h(t, s, 0), (fam, n, lam, mu)


def test_b_surviving_signs_positive():
    # in type B every no-ordinary tuple has sign +1 for these shapes
    t = make_type("B", 2)
    for lam, mu in [((2, 1), ()), ((3, 2), (1,)), ((2, 2, 1), ())]:
        for pt in no_ordinary_tuples(t, shape(lam, mu)):
            assert pt.sign() == 1


def test_p_k_signs():
    # in type C the sign of a tuple with k transposed pairs is (-1)^k
    t = make_type("C", 2)
    s = shape((2, 2, 1))
    by_k = p_k_tuples(t, s)
    for k, tuples in by_k.items():
        for pt in tuples:
            assert pt.sign() == (-1) ** k


def test_p_tilde_superset():
    # tuples with no ordinary intersection and no transposed pair at all lie
    # in the adjacent-constrained class
    t = make_type("C", 2)
    s = shape((2, 1, 1))
    tilde = set(pt.paths for pt in p_tilde(t, s))
    for pt in p_k_tuples(t, s).get(0, []):
        assert pt.paths in tilde


def test_endpoints():
    t = make_type("C", 2)
    us, vs = endpoints(t, shape((3, 1), (2,)))
    assert us == ((2, -2), (-1, -2))
    assert vs == ((3, 2), (0, 2))


def test_offset_shift():
    t = make_type("C", 2)
    s = shape((2, 1))
    assert signed_path_sum(t, s, 4) == chi_h(t, s, 4)


def test_C_only_tuple_classes_fail_closed():
    B2 = make_type("B", 2)
    for fn in (p_tilde, p_k_tuples):
        with pytest.raises(ValueError, match="type C only"):
            fn(B2, shape((2, 1)))
        assert error_under_O(
            f"from qjt.paths import {fn.__name__}; from qjt.ring import make_type; from qjt.shapes import shape; "
            f"{fn.__name__}(make_type('B', 2), shape((2, 1)))"
        ).startswith(f"ValueError: {fn.__name__} is defined for type C only")


def test_path_layer_refuses_type_D():
    # it used to run the C rules, whose D3 (2,1) signed sum differs from chi_h
    t, s = make_type("D", 3), shape((2, 1))
    for fn in (signed_path_sum, surviving_tuples_with_sum, nonintersecting_tuples, no_ordinary_tuples):
        with pytest.raises(ValueError, match="the path model covers types A, B and C, not D3"):
            fn(t, s)
    # the pair classification gave D the C verdict: this pair read specially,
    # and transposed_pairs read [] for the tuple of the two
    p, q = parse_path("(0,-3):NNNEENNN"), parse_path("(1,-3):NNNEENNN")
    with pytest.raises(ValueError, match="the path model covers types A, B and C, not D3"):
        classify_pair(t, p, q)
    with pytest.raises(ValueError, match="the path model covers types A, B and C, not D3"):
        PathTuple((p, q), (0, 1), s).transposed_pairs(t)
    with pytest.raises(ValueError, match="the path model covers types A, B and C, not D3"):
        PathTuple((p, q), (0, 1), s).weight(t)
    # the h-path table has no D rules: it would hold unlabelled band walks
    with pytest.raises(ValueError, match="the path model covers types A, B and C, not D3"):
        _hpath_table(t, 2)


@pytest.mark.parametrize("text", ["(0,-2):NNEENN", "(0,-1):ENNN", "(0,-2):ENNN"])
def test_path_facts_refuse_what_is_no_h_path(text):
    # a path's word and its verdicts are read off its h-path table entry:
    # two B east steps at height 0, a start above the band's bottom and an
    # end below its top have none, in either place of a pair, also under -O
    t, p, q = make_type("B", 2), parse_path(text), parse_path("(1,-2):NNNN")
    message = f"{text} is no h-path of B2"
    calls = (
        "classify_pair(t, p, q)",
        "classify_pair(t, q, p)",
        "PathTuple((q, p), (0, 1), shape(())).transposed_pairs(t)",
        "PathTuple((p,), (0,), shape(())).weight(t)",
    )
    names = {"t": t, "p": p, "q": q, "classify_pair": classify_pair, "PathTuple": PathTuple, "shape": shape}
    setup = (
        "from qjt.paths import Path, PathTuple, classify_pair; from qjt.ring import make_type; "
        f"from qjt.shapes import shape; t = make_type('B', 2); p = Path({p.start}, {p.steps!r}); "
        f"q = Path({q.start}, {q.steps!r}); "
    )
    for code in calls:
        with pytest.raises(ValueError, match=re.escape(message)):
            eval(code, names)
        assert error_under_O(setup + code) == f"ValueError: {message}", code


# ---------------------------------------------------------------------------
# The enumeration before h-paths were tabulated per (type, width), kept as
# the oracle: every permutation's candidates from the brute-force h-paths,
# pairs classified on frozenset point sets.


@lru_cache(maxsize=None)
def _point_set(p: Path) -> frozenset:
    return frozenset(walk(p))


def _ref_classify(t, p, q):
    pp, qq = _point_set(p), _point_set(q)
    common = pp & qq
    if not common:
        return "disjoint"
    if t.family == "A" or any(y != 0 for _x, y in common):
        return "ordinarily"
    if t.family == "B":
        return "specially"
    x1 = min(x for x, y in pp if y == 0)
    x2 = min(x for x, y in qq if y == 0)
    return "specially" if abs(x1 - x2) % 2 == 1 else "ordinarily"


def _ref_transposed(p, q):
    return (p.start[0] - q.start[0]) * (p.end[0] - q.end[0]) < 0


def _any_pair(p, q):
    return True


def _ref_tuples(t, s, pair_ok, adjacent_only=False):
    us, vs = endpoints(t, s)
    l = len(us)
    out = []
    for pi in itertools.permutations(range(l)):
        cands = [[Path(us[i], w) for w in hpath_steps(t, vs[pi[i]][0] - us[i][0])] for i in range(l)]
        chosen = []

        def rec(i):
            if i == l:
                out.append((tuple(chosen), pi))
                return
            for p in cands[i]:
                lo = max(i - 1, 0) if adjacent_only else 0
                if all(pair_ok(chosen[j], p) for j in range(lo, i)):
                    chosen.append(p)
                    rec(i + 1)
                    chosen.pop()

        rec(0)
    return out


def _ref_signed_sum(t, s, pair_ok, a_offset):
    return RingElem.sum(
        PathTuple(paths, pi, s).weight(t, a_offset).scalar_mul(PathTuple(paths, pi, s).sign())
        for paths, pi in _ref_tuples(t, s, pair_ok)
    )


def _small_skew_shapes(max_boxes):
    return [
        shape(lam, mu)
        for lam in all_partitions(9, 3, 3)
        if lam
        for mu in subpartitions(lam)
        if sum(lam) - sum(mu) <= max_boxes
    ]


@pytest.mark.parametrize("fam", ["A", "B", "C"])
def test_tabulated_enumeration_matches_reference(fam):
    def listed(tuples):
        return [(pt.paths, pt.pi) for pt in tuples]

    def disjoint(p, q):
        return _ref_classify(t, p, q) == "disjoint"

    def no_ordinary(p, q):
        return _ref_classify(t, p, q) != "ordinarily"

    def untransposed(p, q):
        return no_ordinary(p, q) and not _ref_transposed(p, q)

    for n in (2, 3):
        t = make_type(fam, n)
        for s in [shape(())] + _small_skew_shapes(4):  # no rows: one empty tuple
            assert listed(nonintersecting_tuples(t, s)) == _ref_tuples(t, s, disjoint), (t, s)
            surviving = disjoint if fam == "A" else no_ordinary
            for off in (0, -3):
                assert signed_path_sum(t, s, off) == _ref_signed_sum(t, s, surviving, off), (t, s, off)
            ref = _ref_tuples(t, s, no_ordinary)
            assert listed(no_ordinary_tuples(t, s)) == ref, (t, s)
            if fam != "C":
                continue
            assert listed(p_tilde(t, s)) == _ref_tuples(t, s, untransposed, adjacent_only=True), (t, s)
            sizes = {}
            for paths, _pi in ref:
                k = sum(_ref_transposed(p, q) for p, q in itertools.combinations(paths, 2))
                sizes[k] = sizes.get(k, 0) + 1
            assert {k: len(v) for k, v in p_k_tuples(t, s).items()} == sizes, (t, s)


def test_pair_classes_match_reference():
    # every pair of rows of every tuple of small shapes, classified in a
    # frame that spans just the two paths
    for fam, n in [("A", 2), ("B", 2), ("C", 2), ("C", 3)]:
        t = make_type(fam, n)
        for s in _small_skew_shapes(3):
            for paths, pi in _ref_tuples(t, s, _any_pair):
                pt = PathTuple(paths, pi, s)
                for p, q in itertools.combinations(pt.paths, 2):
                    c = classify_pair(t, p, q)
                    assert c == _ref_classify(t, p, q), (t, p, q)
                assert pt.transposed_pairs(t) == [
                    (i, j)
                    for i, j in itertools.combinations(range(len(pt.paths)), 2)
                    if _ref_classify(t, pt.paths[i], pt.paths[j]) != "ordinarily"
                    and _ref_transposed(pt.paths[i], pt.paths[j])
                ]


def test_wide_keys_for_many_rows():
    # a 128-row column: its placement holds row_bound(A1) = 1 per row, past
    # the 127 that 8-bit digits hold, so the frame packs the tables' words at
    # 16 bits
    t = make_type("A", 1)
    s = shape([1] * 128)
    frame = _Frame(t, s)
    assert frame.place.w == 16
    pi = tuple(range(128))
    keys = _table_keys(t, 1, 16)  # in place, every row is one column wide

    def key(pick):
        return sum(keys[pick] << sh for sh in frame.place.kshift)

    for pick in (0, -1):  # every row EN (Y[1,.]), every row NE (Y[1,.]^-1)
        cs = (pick % len(keys),) * 128
        pt = frame.path_tuple(pi, cs)
        assert _signed_sum(frame.place, [(pi, cs, key(pick))], -3) == pt.weight(t, -3)
    # a pair test that admits every pair leaves the first candidates first
    admit_all = lambda ws, i, c, k: -1
    assert next(frame.tuples(admit_all)) == (pi, (0,) * 128, key(0))


@pytest.mark.parametrize("fam", ["B", "C"])
def test_frame_path_tuples_are_the_rebuilt_tuples(fam):
    # path_tuple builds each (row, destination, index) Path once per frame;
    # over criterion 8's B2 shapes, every permutation, its tuples equal
    # tuples of Paths built afresh from the table steps, asked twice (the
    # B2 tuples keep their rows in place, 1,148 of the C2 tuples do not)
    t = make_type(fam, 2)
    seen = 0
    for s in skew_shapes(9, 3, 3):
        frame = _Frame(t, s)
        us, vs = endpoints(t, s)
        for pi, cs, _key in frame.tuples(frame.no_ordinary):
            rows = zip(us, pi, cs)
            rebuilt = PathTuple(tuple(Path(u, _hpath_table(t, vs[j][0] - u[0]).steps[c]) for u, j, c in rows), pi, s)
            assert frame.path_tuple(pi, cs) == rebuilt == frame.path_tuple(pi, cs), (s, pi, cs)
            seen += 1
    assert seen == {"B": 12_039, "C": 6_753}[fam]


def test_wide_frames_reuse_the_tables():
    # a frame tabulates nothing up front: a search looks up the tables of
    # its permutation's rows.  In an l-row column, the cycle (0 1 ... k)
    # runs rows 0..k-1 zero columns and row k k + 1 columns, so the l
    # cycles reach every width the frame has a path for, 0..l.  The 128-row
    # column needs 16-bit keys; its frame packs them from the words of the
    # tables of the 127-row column, which it shares, and tabulates only its
    # one new width, 128
    t = make_type("A", 1)

    def search_cycles(l):
        frame = _Frame(t, shape([1] * l))
        for k in range(l):
            pi = (*range(1, k + 1), 0, *range(k + 1, l))
            assert list(frame.search(pi, lambda ws, i, c, k: 0)) == []  # a pair test that admits no pair
        return frame

    _hpath_table.cache_clear()
    search_cycles(127)
    assert _hpath_table.cache_info().currsize == 128
    frame = search_cycles(128)
    assert frame.place.w == 16
    assert _hpath_table.cache_info().currsize == 129


# ---------------------------------------------------------------------------
# The cached lookups against what they replace: the pair masks against a
# classification of the two translated table paths, the geometry record
# against list scans of the points walked off the steps, and the keys of
# the search against a re-sum over the rows.


@pytest.mark.parametrize("fam", ["A", "B", "C"])
def test_pair_masks_match_classify(fam):
    # path c of width ri moved d columns east against each path e of width
    # rk, classified by their walked points (_ref_classify); classify_pair
    # reads the masks, in either order of the pair
    seen = 0
    for n in (1, 2, 3):
        t = make_type(fam, n)
        bot = band(t)[0]
        for ri, rk, d in itertools.product(range(5), range(5), range(5)):
            others = [Path((0, bot), steps) for steps in _hpath_table(t, rk).steps]
            for c, steps in enumerate(_hpath_table(t, ri).steps):
                disjoint, special = _pair_masks(t, ri, rk, d, c)
                p = Path((d, bot), steps)
                for e, q in enumerate(others):
                    verdict = _ref_classify(t, p, q)
                    assert (disjoint >> e & 1, special >> e & 1) == (verdict == "disjoint", verdict == "specially")
                    assert classify_pair(t, p, q) == classify_pair(t, q, p) == verdict, (t, p, q)
                    seen += 1
    assert seen == {"A": 31_750, "B": 490_430, "C": 325_005}[fam]


def _walk_rec(p, bot, h):
    """The point mask and leftmost height-0 x of a path from (0, bot) in
    the frame with origin (0, bot) and h heights, read off its walked
    points."""
    pts = walk(p)
    zero = [x for x, y in pts if y == 0]
    return sum(1 << (x * h + y - bot) for x, y in pts), min(zero) if zero else None


@pytest.mark.parametrize("fam", ["A", "B", "C"])
def test_table_records_are_the_geometry_records(fam):
    # the table walks each path's steps once for its point mask and its
    # leftmost height-0 x, here read off the walked points
    seen = 0
    for n in (1, 2, 3, 4):
        t = make_type(fam, n)
        bot, top = band(t)
        for r in range(6):
            table = _hpath_table(t, r)
            for steps, mask, zx in zip(table.steps, table.masks, table.zx):
                assert (mask, zx) == _walk_rec(Path((0, bot), steps), bot, top - bot + 1), (t, steps)
                seen += 1
    assert seen == {"A": 455, "B": 2_686, "C": 2_214}[fam]


@pytest.mark.parametrize("fam", ["A", "B", "C"])
def test_table_steps_are_the_brute_force_hpaths(fam):
    # the table holds the brute-force h-paths, in their order
    seen = 0
    for n in (1, 2, 3, 4):
        t = make_type(fam, n)
        for r in range(6):
            assert _hpath_table(t, r).steps == hpath_steps(t, r), (t, r)
            seen += len(hpath_steps(t, r))
    assert seen == {"A": 455, "B": 2_686, "C": 2_214}[fam]


def _ref_leftmost(pts, y):
    xs = [x for (x, h) in pts if h == y]
    if not xs:
        raise NotApplicable(f"no point of height {y}")
    return (min(xs), y)


def _ref_rightmost(pts, y):
    xs = [x for (x, h) in pts if h == y]
    if not xs:
        raise NotApplicable(f"no point of height {y}")
    return (max(xs), y)


def _ref_index(pts, pt):
    try:
        return pts.index(pt)
    except ValueError:
        raise NotApplicable(f"{pt} not on path")


def _outcome(f, *args):
    try:
        return f(*args)
    except NotApplicable as exc:
        return str(exc)


@pytest.mark.parametrize("fam", ["A", "B", "C"])
def test_geometry_matches_list_scans(fam):
    seen = 0
    for n in (1, 2, 3):
        t = make_type(fam, n)
        bot, top = band(t)
        for r in range(5):
            for steps in _hpath_table(t, r).steps:
                for sx, sy in ((0, bot), (-3, bot), (2, bot + 1)):
                    p = Path((sx, sy), steps)
                    pts = walk(p)
                    assert list(_geometry(p).index) == pts and p.end == pts[-1]
                    for y in range(sy - 1, sy + top - bot + 2):
                        assert _outcome(_leftmost, p, y) == _outcome(_ref_leftmost, pts, y)
                        assert _outcome(_rightmost, p, y) == _outcome(_ref_rightmost, pts, y)
                    for pt in pts + [(x + 1, y) for x, y in pts] + [(x, y - 1) for x, y in pts]:
                        assert _outcome(_index, p, pt) == _outcome(_ref_index, pts, pt)
                        assert _on(p, pt) == (pt in pts)
                    q = Path((sx + 1, sy), steps)
                    assert common_points(p, q) == set(pts) & set(walk(q))
                    assert _outcome(_common, p, q) == (set(pts) & set(walk(q)) or "paths do not intersect")
                    seen += 1
    assert seen == {"A": 360, "B": 1_272, "C": 1_041}[fam]


@pytest.mark.parametrize("fam,n", [("A", 2), ("B", 2), ("C", 2), ("C", 3)])
def test_search_keys_are_the_row_sums(fam, n):
    t = make_type(fam, n)
    seen = 0
    for s in _small_skew_shapes(4):
        frame = _Frame(t, s)
        us, vs = endpoints(t, s)
        w, kshift = frame.place.w, frame.place.kshift
        for pi, cs, key in frame.tuples(frame.no_ordinary):
            parts = zip(cs, us, pi, kshift)
            assert key == sum(_table_keys(t, vs[j][0] - u[0], w)[c] << sh for c, u, j, sh in parts)
            seen += 1
        rows, fillings = _fillings(t, s, "hv")
        lengths = [s.lam[i] - s.mu[i] for i in range(1, len(s.lam) + 1)]
        for _pi, cs, key in fillings:
            parts = zip(lengths, cs, rows.place.kshift)
            assert key == sum(_table_keys(t, r, rows.place.w)[c] << sh for r, c, sh in parts)
            seen += 1
    assert seen == {"A2": 1_886, "B2": 9_502, "C2": 5_262, "C3": 19_144}[str(t)]
