"""Determinant characters: pinned values and h/e self-consistency."""

import itertools
import random
import sys

import pytest

from qjt import series
from qjt.jacobitrudi import chi_e, chi_h
from qjt.ring import ONE, ZERO, RingElem, letters, make_type, f_hom, y_monomial
from qjt.ring import _add_product, _align
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


def banded(l, entries):
    """The l x l matrix with entries[d] on its d-th diagonal (d = j - i)
    and ZERO off the band."""
    return [[entries.get(j - i, ZERO) for j in range(l)] for i in range(l)]


def test_long_banded_determinants_need_no_recursion():
    # the minors are built up the rows, not by recursion, from each row's
    # nonzero entries, so 1,500 rows take well under a second at the
    # default recursion limit.  3 on the diagonal and 1 beside it: D_l =
    # 3 D_(l-1) - D_(l-2), D_0 = 1, D_1 = 3, which is the Fibonacci number
    # F(2l + 2).  An upper band of width 2 with 2 on the diagonal: 2^l.
    assert sys.getrecursionlimit() <= 1000
    l = 1500
    fib = [0, 1]
    while len(fib) < 2 * l + 3:
        fib.append(fib[-1] + fib[-2])
    three = RingElem.const(3)
    assert RingElem.determinant(banded(l, {-1: ONE, 0: three, 1: ONE})) == RingElem.const(fib[2 * l + 2])
    assert RingElem.determinant(banded(l, {0: RingElem.const(2), 1: three, 2: ONE})) == RingElem.const(2**l)
    x = y_monomial(1, 0)
    assert RingElem.determinant(banded(40, {-1: ONE, 0: x, 1: ONE})).terms[((1, 0, 40),)] == 1


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
    x = RingElem(terms.items()).shift_spectral(rng.randint(-3, 3))
    return x - x if kind < 0.35 else x


def test_determinant_matches_leibniz_on_mixed_layouts():
    rng = random.Random(20261018)
    for l in range(5):
        for _ in range(12 if l < 4 else 6):
            matrix = [[random_entry(rng) for _ in range(l)] for _ in range(l)]
            before = [[RingElem(x.terms.items()) for x in row] for row in matrix]
            assert RingElem.determinant(matrix).terms == leibniz_terms(matrix), matrix
            assert matrix == before  # no entry's keys were mutated
    for e in (70, 130):
        big = RingElem.monomial([(1, 0, e)])
        x, y = y_monomial(4, -3), RingElem.monomial([(2, 5, -e)]).shift_spectral(1)
        assert RingElem.determinant([[big, x], [y, big]]).terms == leibniz_terms([[big, x], [y, big]])
    # a repeated row: every product cancels, so each key that the minors
    # add is deleted again and the determinant is an empty dict
    u = RingElem.monomial([(1, 0, 130), (3, 2, -1)]) + y_monomial(2, -1).shift_spectral(4)
    v = RingElem({((1, 1, 2),): 3, ((2, -2, -1), (4, 0, 1)): -1, (): 2}.items()).shift_spectral(-2)
    r = [u, v, RingElem.const(-3)]
    s = [y_monomial(4, 5, 70), u - v, v.shift_spectral(1)]
    for matrix in ([[u, v], [u, v]], [r, s, r]):
        det = RingElem.determinant(matrix)
        assert det == ZERO and det.terms == leibniz_terms(matrix) == {}, matrix


def random_monomial(rng):
    """One term, coefficient +-1 or +-2, in its own layout."""
    factors = {(rng.randint(1, 4), rng.randint(-2, 2)): rng.choice((-1, 1, 2, 70)) for _ in range(rng.randint(1, 2))}
    return RingElem.monomial([(i, s, e) for (i, s), e in factors.items()], rng.choice((-2, -1, 1, 2)))


def skew_like(rng, l):
    """A matrix shaped like a Jacobi-Trudi one: zero below a band, 1 or -1
    on some cells of it, and monomials and polynomials above, in mixed
    bases, strides and widths; some columns are zero below a random row,
    which makes the cofactors of some nonzero entries zero."""
    band = rng.randint(0, 1)
    cut = {j: rng.randint(1, l) for j in range(l) if rng.random() < 0.3}
    matrix = []
    for i in range(l):
        row = []
        for j in range(l):
            if j < i - band or i >= cut.get(j, l):
                row.append(ZERO)
            elif j == i - band and rng.random() < 0.7:
                row.append(rng.choice((ONE, ONE, RingElem.const(-1))))
            else:
                row.append((random_monomial(rng) if rng.random() < 0.5 else random_entry(rng)).shift_spectral(rng.randint(-3, 3)))
        matrix.append(row)
    return matrix


def test_determinant_matches_leibniz_on_skew_like_matrices():
    # every result equals the Leibniz sum and holds no zero coefficient;
    # the matrices include nonzero entries whose cofactor is zero
    rng = random.Random(20261020)
    zero_cofactors = 0
    for l in (1, 2, 3, 3, 4, 4, 5):
        for _ in range(10):
            matrix = skew_like(rng, l)
            det = RingElem.determinant(matrix)
            assert det.terms == leibniz_terms(matrix), matrix
            assert 0 not in det.terms.values() and 0 not in det._keys.values()
            for i, j in itertools.product(range(l), repeat=2):
                minor = [row[:j] + row[j + 1 :] for k, row in enumerate(matrix) if k != i]
                zero_cofactors += matrix[i][j] != ZERO and not leibniz_terms(minor)
    assert zero_cofactors >= 20, zero_cofactors


def one_layout(*elems, bound=0):
    """The key dicts of elems in one layout, and the layout."""
    keys, lo, n, w = _align(elems, bound)
    return keys, (lo, n, w)


def product_terms(c, x, y):
    """c * x * y on decoded terms, with dict arithmetic."""
    return leibniz_terms([[x.scalar_mul(c), ZERO], [ZERO, y]])


@pytest.mark.parametrize("c", [1, -1, 2, -2])
def test_add_product_writes_its_first_term_into_an_empty_accumulator(c):
    # a monomial (a constant, 1 included) times a polynomial into an empty
    # accumulator is one new dict; so is the first term of a longer operand,
    # whose other terms then cancel against it: (a + b)(a - b) = a^2 - b^2
    poly = RingElem({((1, 0, 1), (2, 1, -1)): 3, ((3, 2, 2),): -1, (): 5}.items()).shift_spectral(2)
    a, b = y_monomial(1, 0), RingElem.monomial([(2, 3, 1)], 2)
    monomials = (ONE, RingElem.const(-1), RingElem.const(2), y_monomial(2, -1), RingElem.monomial([(1, 1, 70)], -2))
    for p, q in [(m, poly) for m in monomials] + [(a + b, a - b), (poly, poly)]:
        for x, y in ((p, q), (q, p)):
            (kx, ky), (lo, n, w) = one_layout(x, y, bound=x._b + y._b)
            before = (dict(kx), dict(ky))
            out = _add_product({}, c, kx, ky)
            assert out is not kx and out is not ky and (kx, ky) == before
            got = RingElem._make(out, lo, n, w, x._b + y._b)
            assert got.terms == product_terms(c, x, y) and 0 not in out.values(), (c, x, y)


@pytest.mark.parametrize("c", [1, -1, 2, -2])
def test_add_product_adds_a_monomial_product_to_a_live_accumulator_by_pairs(c):
    # a nonempty accumulator takes the pair loop: it is added to in place,
    # and the key that cancels leaves it
    poly = RingElem({((1, 0, 1),): 3, ((3, 2, 2),): -1, (): 5}.items())
    mono = RingElem.monomial([(2, 1, 1)], 2)
    first = RingElem.monomial([(2, 1, 1)], -5 * 2 * c)  # cancels c * mono * 5
    other = y_monomial(4, 3)
    (km, kp, kf, ko), (lo, n, w) = one_layout(mono, poly, first, other, bound=2)
    acc = {**kf, **ko}
    out = _add_product(acc, c, km, kp)
    assert out is acc and 0 not in out.values()
    want = RingElem.sum([RingElem.sum_products([(c, mono, poly)]), first, other])
    assert RingElem._make(out, lo, n, w, 2) == want and len(out) == 3


class CountingKeys(dict):
    """A key dict that counts each read of its items, keys or values."""

    def __init__(self, keys):
        super().__init__(keys)
        self.reads = 0

    def _read(self, method):
        self.reads += 1
        return method()

    def items(self):
        return self._read(super().items)

    def keys(self):
        return self._read(super().keys)

    def values(self):
        return self._read(super().values)

    def __iter__(self):
        return self._read(super().__iter__)

    def copy(self):
        return self._read(super().copy)


def test_a_zero_cofactor_entry_is_never_read(monkeypatch):
    # chi_h of C3 (3,3,1)/(3,2,1) is det [[1, h2, h4], [0, h1, h3], [0, 0, 1]]
    # = h1 at 2 delta: h2 and the 148-term h4 have cofactor zero, so their
    # keys are neither moved into the layout nor multiplied (h2, at base 2,
    # is outside the layout, whose base is that of h3 and h4)
    t = make_type("C", 3)
    monkeypatch.setattr(series, "_SERIES_CACHE", {})
    coeffs = series.coefficients(t, "H", 4)
    assert coeffs[4].num_terms() == 148
    counted = {}
    for r in (2, 4):
        x = coeffs[r]
        counted[r] = CountingKeys(x._keys)
        coeffs[r] = RingElem._make(counted[r], x._lo, x._n, x._w, x._b)
    got = chi_h(t, shape((3, 3, 1), (3, 2, 1)))
    assert {r: c.reads for r, c in counted.items()} == {2: 0, 4: 0}
    assert got == h_coeff(t, 1, 2) and got.num_terms() == 6


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
