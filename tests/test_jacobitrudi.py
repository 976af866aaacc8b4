"""Determinant characters: pinned values and h/e self-consistency."""

import itertools
import random

import pytest

from qjt.jacobitrudi import chi_e, chi_h
from qjt.ring import ONE, ZERO, RingElem, letters, make_type, f_hom, y_monomial
from qjt.series import e_coeff, h_coeff
from qjt.shapes import shape

from optimized import error_under_O

A2 = make_type("A", 2)
C2 = make_type("C", 2)


def test_determinant_basics():
    assert RingElem.determinant([]) == ONE
    x, y = y_monomial(1, 0), y_monomial(2, 1)
    assert RingElem.determinant([[x, ZERO], [ZERO, y]]) == x * y
    a, b, c, d = (y_monomial(1, s) for s in range(4))
    assert RingElem.determinant([[a, b], [c, d]]) == a * d - b * c
    # 3x3 against the Leibniz formula by hand on monomials
    m = [[y_monomial(1, 3 * i + j) for j in range(3)] for i in range(3)]
    leib = ZERO
    for perm, sgn in [((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                      ((0, 2, 1), -1), ((1, 0, 2), -1), ((2, 1, 0), -1)]:
        term = m[0][perm[0]] * m[1][perm[1]] * m[2][perm[2]]
        leib = leib + (term if sgn == 1 else -term)
    assert RingElem.determinant(m) == leib


def leibniz_terms(matrix):
    """The determinant's terms by the Leibniz sum, on decoded terms with
    dict arithmetic: no packed key is read."""
    acc = {}
    for perm in itertools.permutations(range(len(matrix))):
        sign = (-1) ** sum(perm[a] > perm[b] for a in range(len(perm)) for b in range(a + 1, len(perm)))
        prods = {(): sign}
        for row, j in zip(matrix, perm):
            nxt = {}
            for m1, c1 in prods.items():
                for m2, c2 in row[j].terms.items():
                    exps = {}
                    for i, s, e in m1 + m2:
                        exps[(i, s)] = exps.get((i, s), 0) + e
                    m = tuple(sorted((i, s, e) for (i, s), e in exps.items() if e))
                    nxt[m] = nxt.get(m, 0) + c1 * c2
            prods = nxt
        for m, c in prods.items():
            acc[m] = acc.get(m, 0) + c
    return {m: c for m, c in acc.items() if c}


def random_entry(rng):
    """A random element in its own layout: base shift, stride (indices up to
    4) and width (an exponent of 130 needs 16 bits) vary, and constants and
    zeros, one of them a cancelled element with a layout, appear.  Exponents
    of 70 fit 8 bits alone but not in a product of two rows."""
    kind = rng.random()
    if kind < 0.1:
        return ZERO
    if kind < 0.2:
        return ONE
    if kind < 0.3:
        return RingElem.const(rng.choice((-2, -1, 2, 3)))
    terms = {}
    for _ in range(rng.randint(1, 3)):
        factors = {}
        for _ in range(rng.randint(0, 3)):
            big = rng.choice((70, 130)) if rng.random() < 0.15 else 1
            factors[(rng.randint(1, 4), rng.randint(-2, 2))] = rng.choice((-2, -1, 1, 2, big))
        terms[tuple(sorted((i, s, e) for (i, s), e in factors.items()))] = rng.choice((-3, -1, 1, 2))
    x = RingElem(terms).shift_spectral(rng.randint(-3, 3))
    return x - x if kind < 0.35 else x


def test_determinant_matches_leibniz_on_mixed_layouts():
    rng = random.Random(20261018)
    for l in range(5):
        for _ in range(12 if l < 4 else 6):
            matrix = [[random_entry(rng) for _ in range(l)] for _ in range(l)]
            before = [[RingElem(x.terms) for x in row] for row in matrix]
            assert RingElem.determinant(matrix).terms == leibniz_terms(matrix), matrix
            assert matrix == before  # no entry's keys were mutated
    for e in (70, 130):
        big = RingElem.monomial([(1, 0, e)])
        x, y = y_monomial(4, -3), RingElem.monomial([(2, 5, -e)]).shift_spectral(1)
        assert RingElem.determinant([[big, x], [y, big]]).terms == leibniz_terms([[big, x], [y, big]])
    # a repeated row: every product cancels, so each key that the minors
    # add is deleted again and the determinant is an empty dict
    u = RingElem.monomial([(1, 0, 130), (3, 2, -1)]) + y_monomial(2, -1).shift_spectral(4)
    v = RingElem({((1, 1, 2),): 3, ((2, -2, -1), (4, 0, 1)): -1, (): 2}).shift_spectral(-2)
    r = [u, v, RingElem.const(-3)]
    s = [y_monomial(4, 5, 70), u - v, v.shift_spectral(1)]
    for matrix in ([[u, v], [u, v]], [r, s, r]):
        det = RingElem.determinant(matrix)
        assert det.is_zero() and det.terms == leibniz_terms(matrix) == {}, matrix


@pytest.mark.parametrize("matrix", [
    [[y_monomial(1, 0), y_monomial(2, 1)]],
    [[y_monomial(1, 0)], [y_monomial(2, 1)]],
    [[ONE, ZERO], [ONE]],
    [[], []],
])
def test_determinant_refuses_a_non_square_matrix(matrix):
    with pytest.raises(ValueError, match="non-square"):
        RingElem.determinant(matrix)


def test_determinant_refuses_a_non_square_matrix_under_O():
    assert error_under_O(
        "from qjt.ring import ONE, RingElem; RingElem.determinant([[ONE, ONE]])"
    ).startswith("ValueError: determinant of a non-square matrix: row lengths [2]")
    assert error_under_O(
        "from qjt.ring import ONE, RingElem; RingElem.determinant([[ONE], [ONE]])"
    ).startswith("ValueError: determinant of a non-square matrix: row lengths [1, 1]")


def test_single_row_and_column():
    from qjt.ring import delta

    for t in (A2, C2, make_type("B", 2)):
        for r in (1, 2, 3):
            # the single entry carries the row's spectral offset 2(r-1)delta
            assert chi_h(t, shape((r,)), 0) == h_coeff(t, r, 2 * (r - 1) * delta(t))
        for i in (1, 2):
            assert chi_e(t, shape((1,) * i), 0) == e_coeff(t, i, 0)
    assert chi_h(C2, shape(()), 0) == ONE
    assert chi_e(C2, shape(()), 0) == ONE


def test_one_box_is_sum_of_letters():
    for t in (A2, C2, make_type("B", 2)):
        want = ZERO
        for c in letters(t):
            want = want + f_hom(t, c, 0)
        assert chi_h(t, shape((1,)), 0) == want


def test_pinned_disconnected_shape():
    # chi of (3,1)/(2) at a+2 equals h_{1,a} h_{1,a+6} for C_2
    got = chi_h(C2, shape((3, 1), (2,)), 2)
    assert got == h_coeff(C2, 1, 0) * h_coeff(C2, 1, 6)


def test_shift_covariance():
    s = shape((2, 1))
    for t in (A2, C2):
        assert chi_h(t, s, 5) == chi_h(t, s, 0).shift_spectral(5)


def random_skew(rng, max_len=4, max_part=4):
    while True:
        lam = []
        prev = rng.randint(1, max_part)
        for _ in range(rng.randint(1, max_len)):
            lam.append(prev)
            prev = rng.randint(0, prev)
            if prev == 0:
                break
        mu = [rng.randint(0, p) for p in lam]
        mu = [min(mu[:i + 1]) for i in range(len(mu))][: len(lam)]
        mu.sort(reverse=True)
        if all(m <= l for m, l in zip(mu, lam)):
            return tuple(lam), tuple(p for p in mu if p)


def test_chi_h_equals_chi_e_random():
    rng = random.Random(20260826)
    for fam in "ABCD":
        for n in (2, 3):
            t = make_type(fam, n)
            for _ in range(8):
                lam, mu = random_skew(rng)
                s = shape(lam, mu)
                assert chi_h(t, s, 0) == chi_e(t, s, 0), (t, lam, mu)


def test_A_beta_at_one_counts_ssyt():
    # beta(chi_h) with all y_i = 1 equals the number of semistandard
    # tableaux; for one row of length r with 3 letters that is C(r+2, 2).
    t = A2
    for r in (1, 2, 3):
        b = chi_h(t, shape((r,)), 0).beta()
        assert sum(b.terms.values()) == (r + 2) * (r + 1) // 2
