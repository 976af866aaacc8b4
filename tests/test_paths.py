import itertools
import random

import pytest

from qjt.jacobitrudi import chi_h
from qjt.paths import (
    Path,
    PathTuple,
    _Frame,
    _bare_records,
    _classify,
    _hpath_table,
    _pair_masks,
    band,
    classify_pair,
    east_labels,
    endpoints,
    enumerate_hpaths,
    is_transposed,
    nonintersecting_tuples,
    no_ordinary_tuples,
    p_k_tuples,
    p_tilde,
    path_weight,
    signed_path_sum,
    surviving_tuples_with_sum,
)
from qjt.resolutions import NotApplicable, _common, _index, _leftmost, _on, _rightmost
from qjt.ring import RingElem, delta, make_type, z_product
from qjt.tableaux import _Rows
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


def test_path_basics():
    p = Path((0, 0), "ENNE")
    assert p.end == (2, 2)
    assert p.points() == ((0, 0), (1, 0), (1, 1), (1, 2), (2, 2))
    assert p.east_steps() == [(0, 0), (1, 2)]
    assert parse_path(p.to_text()) == p
    assert parse_path("(-1,-2):NE") == Path((-1, -2), "NE")


def test_enumerate_counts():
    tA = make_type("A", 2)
    # r east steps interleaved with n north steps: C(r+n, r)
    assert len(enumerate_hpaths(tA, (0, 0), (3, 2))) == 10
    assert enumerate_hpaths(tA, (2, 0), (1, 2)) == []
    # B: at most one east step at height 0
    tB = make_type("B", 1)
    paths = enumerate_hpaths(tB, (0, -1), (2, 1))
    assert all(p.end == (2, 1) and sum(1 for _, y in p.east_steps() if y == 0) <= 1 for p in paths)
    assert len(paths) == 5  # C(4,2)=6 minus the one with both easts at height 0
    # C: even number of east steps at height 0
    tC = make_type("C", 1)
    paths = enumerate_hpaths(tC, (0, -1), (2, 1))
    assert all(sum(1 for _, y in p.east_steps() if y == 0) % 2 == 0 for p in paths)
    assert len(paths) == 4  # EE at 0, or both easts off height 0 (3 ways)


def test_labels_A():
    t = make_type("A", 2)
    p = Path((1, 0), "ENEN")  # east at (1,0) letter 1, east at (2,1) letter 2
    assert east_labels(t, p) == [(1, 2), (2, 4)]
    assert path_weight(t, p, 0) == z_product(t, [(1, 2), (2, 4)])


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


def test_labels_refuse_paths_off_the_band():
    # a height outside the band has no letter: letters(t)[y - bot] would wrap
    t = make_type("C", 2)
    for p in (Path((0, -3), "EN"), Path((0, 2), "NE")):
        with pytest.raises(ValueError, match="leaves the band of C2"):
            east_labels(t, p)


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
    q2 = Path((2, -1), "NE" + "E" * 0 + "N")  # (2,-1)->(3,1), no height-0 east pair
    # build a crossing specially intersecting pair explicitly
    a = Path((2, -1), "NEEN")  # (2,-1) -> (4,1)
    b = Path((3, -1), "NEEN")  # (3,-1) -> (5,1)
    assert classify_pair(t, a, b) == "specially"
    assert not is_transposed(t, a, b)
    c = Path((2, -1), "NN")  # (2,-1) -> (2,1): starts right of p2, ends left
    assert classify_pair(t, p2, c) == "specially"
    assert is_transposed(t, p2, c)


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
    # the labels gave D the C letters; read off letters(D3), a step at the top
    # of the band would index past the alphabet
    with pytest.raises(ValueError, match="the path model covers types A, B and C, not D3"):
        east_labels(t, Path((0, -3), "NNNNNNE"))


def test_is_transposed_fails_closed_on_ordinary_pair():
    t = make_type("C", 2)
    p, q = parse_path("(0,-2):NNNN"), parse_path("(-1,-2):ENNNN")
    assert classify_pair(t, p, q) == "ordinarily"
    with pytest.raises(ValueError, match="intersect ordinarily"):
        is_transposed(t, p, q)
    assert error_under_O(
        "from qjt.paths import Path, is_transposed; from qjt.ring import make_type; "
        "is_transposed(make_type('C', 2), Path((0, -2), 'NNNN'), Path((-1, -2), 'ENNNN'))"
    ).startswith("ValueError: (0,-2):NNNN and (-1,-2):ENNNN intersect ordinarily in C2")


# ---------------------------------------------------------------------------
# The enumeration before h-paths were tabulated per (type, width), kept as
# the oracle: candidates re-enumerated for every permutation, pairs
# classified on frozenset point sets.


def _ref_classify(t, p, q):
    pp, qq = frozenset(p.points()), frozenset(q.points())
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
        cands = [enumerate_hpaths(t, us[i], vs[pi[i]]) for i in range(l)]
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
                    if c != "ordinarily":
                        assert is_transposed(t, p, q) == _ref_transposed(p, q)
                assert pt.transposed_pairs(t) == [
                    (i, j)
                    for i, j in itertools.combinations(range(len(pt.paths)), 2)
                    if _ref_classify(t, pt.paths[i], pt.paths[j]) != "ordinarily"
                    and _ref_transposed(pt.paths[i], pt.paths[j])
                ]


def test_wide_keys_for_many_rows():
    # in a 128-row column every row's paths have an exponent 1, so a tuple
    # may reach 128, past the 127 that 8-bit digits hold: the frame's
    # placement recodes the tables' 8-bit keys at 16 bits
    t = make_type("A", 1)
    s = shape([1] * 128)
    frame = _Frame(t, s)
    assert frame.place.w == 16
    pi = tuple(range(128))

    def key(pick):
        return sum(frame.keys[i][i][pick] << sh for i, sh in zip(pi, frame.place.kshift))

    for pick in (0, -1):  # every row EN (Y[1,.]), every row NE (Y[1,.]^-1)
        cs = tuple(pick % len(frame.keys[i][i]) for i in pi)
        pt = frame.path_tuple(pi, cs)
        assert frame.signed_sum([(pi, cs, key(pick))], -3) == pt.weight(t, -3)
    # a pair test that admits every pair leaves the first candidates first
    admit_all = lambda pi, i, c, k: -1
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
        for pi, cs, _key in frame.tuples(frame.no_ordinary):
            rows = zip(frame.us, frame.cands, pi, cs)
            rebuilt = PathTuple(tuple(Path(u, cands[j][c].path.steps) for u, cands, j, c in rows), pi, s)
            assert frame.path_tuple(pi, cs) == rebuilt == frame.path_tuple(pi, cs), (s, pi, cs)
            seen += 1
    assert seen == {"B": 12_039, "C": 6_753}[fam]


def test_wide_frames_reuse_the_tables():
    # the 128-row column needs 16-bit keys; its frame recodes the tables of
    # the 127-row column, which it shares, and tabulates only its one new
    # width, 128
    t = make_type("A", 1)
    _hpath_table.cache_clear()
    _Frame(t, shape([1] * 127))
    assert _hpath_table.cache_info().currsize == 128
    frame = _Frame(t, shape([1] * 128))
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
    # rk, classified in one frame with the whole table of width rk
    seen = 0
    for n in (1, 2, 3):
        t = make_type(fam, n)
        bot = band(t)[0]
        for ri, rk, d in itertools.product(range(5), range(5), range(5)):
            others = [b.path for b in _hpath_table(t, rk)[2]]
            for c, a in enumerate(_hpath_table(t, ri)[2]):
                disjoint, special = _pair_masks(t, ri, rk, d, c)
                (p, *recs), zero = _bare_records([Path((d, bot), a.path.steps)] + others)
                for e, b in enumerate(recs):
                    verdict = _classify(fam, p, b, zero)
                    assert (disjoint >> e & 1, special >> e & 1) == (verdict == "disjoint", verdict == "specially")
                    seen += 1
    assert seen == {"A": 31_750, "B": 490_430, "C": 325_005}[fam]


def _walk(p):
    x, y = p.start
    pts = [(x, y)]
    for s in p.steps:
        x, y = (x + 1, y) if s == "E" else (x, y + 1)
        pts.append((x, y))
    return pts


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
            for a in _hpath_table(t, r)[2]:
                for sx, sy in ((0, bot), (-3, bot), (2, bot + 1)):
                    p = Path((sx, sy), a.path.steps)
                    pts = _walk(p)
                    assert p.points() == tuple(pts) and p.end == pts[-1]
                    for y in range(sy - 1, sy + top - bot + 2):
                        assert _outcome(_leftmost, p, y) == _outcome(_ref_leftmost, pts, y)
                        assert _outcome(_rightmost, p, y) == _outcome(_ref_rightmost, pts, y)
                    for pt in pts + [(x + 1, y) for x, y in pts] + [(x, y - 1) for x, y in pts]:
                        assert _outcome(_index, p, pt) == _outcome(_ref_index, pts, pt)
                        assert _on(p, pt) == (pt in pts)
                    q = Path((sx + 1, sy), a.path.steps)
                    assert _outcome(_common, p, q) == (set(pts) & set(_walk(q)) or "paths do not intersect")
                    seen += 1
    assert seen == {"A": 360, "B": 1_272, "C": 1_041}[fam]


@pytest.mark.parametrize("fam,n", [("A", 2), ("B", 2), ("C", 2), ("C", 3)])
def test_search_keys_are_the_row_sums(fam, n):
    t = make_type(fam, n)
    seen = 0
    for s in _small_skew_shapes(4):
        frame = _Frame(t, s)
        for pi, cs, key in frame.tuples(frame.no_ordinary):
            parts = zip(cs, frame.keys, pi, frame.place.kshift)
            assert key == sum(ks[j][c] << sh for c, ks, j, sh in parts)
            seen += 1
        rows = _Rows(t, s)
        for cs, key in rows.fillings("hv"):
            assert key == sum(ks[c] << sh for ks, c, sh in zip(rows.keys, cs, rows.place.kshift))
            seen += 1
    assert seen == {"A2": 1_886, "B2": 9_502, "C2": 5_262, "C3": 19_144}[str(t)]


def test_classify_pair_across_spans():
    # paths that span different heights get their masks laid out again in
    # the pair's frame, rather than moved
    words = ["".join(w) for k in (2, 3, 4) for w in itertools.product("NE", repeat=k)]
    paths = [Path((x, y), w) for x in (0, 1) for y in (-2, -1, 0) for w in words]
    seen = 0
    for fam in "ABC":
        t = make_type(fam, 2)
        for p, q in itertools.combinations(paths[::3], 2):
            assert classify_pair(t, p, q) == _ref_classify(t, p, q), (t, p, q)
            seen += p.end[1] - p.start[1] != q.end[1] - q.start[1]
    assert seen == 3_408
