"""E/H series, coefficient extraction, and the HE inversion identity."""

import random
import tracemalloc

import pytest

from qjt import series
from qjt.jacobitrudi import chi_e, chi_h
from qjt.ring import ONE, ZERO, delta, f_hom, letters, make_type
from qjt.series import E_series, H_series, _build, check_HE, coefficients, e_coeff, h_coeff
from qjt.shapes import shape

from test_shapes import all_partitions, subpartitions

A1 = make_type("A", 1)
A2 = make_type("A", 2)
B2 = make_type("B", 2)
C2 = make_type("C", 2)
C3 = make_type("C", 3)


SMALL_TYPES = [make_type(f, n) for f in "ABCD" for n in (1, 2, 3) if not (f == "D" and n < 2)]
ORACLE_TYPES = [make_type(f, n) for f in "ABCD" for n in (1, 2, 3, 4) if not (f == "D" and n < 2)]


# The oracle: E and H as ordered convolutions of dense truncated factor
# series (coefficient lists), each quotient by the inversion recursion or the
# geometric closed form.  Its arithmetic is plain + and * of coefficients: it
# shares no series product or sum_products with the library.


def linear_factor(t, letter, sign, trunc):
    """(1 + sign * z_{letter,a} X) truncated."""
    coeffs = [ONE] + [ZERO] * trunc
    if trunc >= 1:
        coeffs[1] = f_hom(t, letter).scalar_mul(sign)
    return coeffs


def quadratic_factor(t, first, second, sign, trunc):
    """(1 + sign * z_{first,a} X z_{second,a} X) truncated."""
    coeffs = [ONE] + [ZERO] * trunc
    if trunc >= 2:
        coeffs[2] = (f_hom(t, first) * f_hom(t, second, -2 * delta(t))).scalar_mul(sign)
    return coeffs


def geom_inverse(t, letter, sign, trunc):
    """(1 - sign * z_{letter,a} X)^{-1} truncated, from its closed form: the
    degree m coefficient is sign^m * z_{c,a} z_{c,a-2d} ... z_{c,a-2d(m-1)}."""
    d = delta(t)
    z = f_hom(t, letter).scalar_mul(sign)
    coeffs = [ONE]
    for m in range(trunc):
        coeffs.append(coeffs[-1] * z.shift_spectral(-2 * d * m))
    return coeffs


def inverse(t, s):
    """The two-sided inverse of a series with constant coefficient 1."""
    assert s[0] == ONE
    d, inv = delta(t), [ONE]
    for k in range(1, len(s)):
        c = ZERO
        for i in range(1, k + 1):
            c = c - s[i] * inv[k - i].shift_spectral(-2 * d * i)
        inv.append(c)
    return inv


def convolve(t, a, b):
    """(sum a_i X^i)(sum b_j X^j) to the shorter length, with X b_j =
    shift(b_j, -2 delta) X: the degree k coefficient is the plain sum of
    the products a_i shift(b_{k-i}, -2 delta i), each built on its own."""
    d = delta(t)
    out = []
    for k in range(min(len(a), len(b))):
        c = ZERO
        for i in range(k + 1):
            c = c + a[i] * b[k - i].shift_spectral(-2 * d * i)
        out.append(c)
    return out


def ordered_product(t, factors):
    out = factors[0]
    for fac in factors[1:]:
        out = convolve(t, out, fac)
    return out


def oracle_E(t, trunc):
    n, fam = t.rank, t.family
    if fam == "A":
        facs = [linear_factor(t, k, 1, trunc) for k in range(1, n + 2)]
    elif fam == "B":
        facs = (
            [linear_factor(t, k, 1, trunc) for k in range(1, n + 1)]
            + [geom_inverse(t, 0, 1, trunc)]
            + [linear_factor(t, -k, 1, trunc) for k in range(n, 0, -1)]
        )
    elif fam == "C":
        facs = (
            [linear_factor(t, k, 1, trunc) for k in range(1, n + 1)]
            + [quadratic_factor(t, n, -n, -1, trunc)]
            + [linear_factor(t, -k, 1, trunc) for k in range(n, 0, -1)]
        )
    else:  # D
        facs = (
            [linear_factor(t, k, 1, trunc) for k in range(1, n + 1)]
            + [inverse(t, quadratic_factor(t, -n, n, -1, trunc))]
            + [linear_factor(t, -k, 1, trunc) for k in range(n, 0, -1)]
        )
    return ordered_product(t, facs)


def oracle_H(t, trunc):
    n, fam = t.rank, t.family
    if fam == "A":
        facs = [geom_inverse(t, k, 1, trunc) for k in range(n + 1, 0, -1)]
    elif fam == "B":
        facs = (
            [geom_inverse(t, -k, 1, trunc) for k in range(1, n + 1)]
            + [linear_factor(t, 0, 1, trunc)]
            + [geom_inverse(t, k, 1, trunc) for k in range(n, 0, -1)]
        )
    elif fam == "C":
        facs = (
            [geom_inverse(t, -k, 1, trunc) for k in range(1, n + 1)]
            + [inverse(t, quadratic_factor(t, n, -n, -1, trunc))]
            + [geom_inverse(t, k, 1, trunc) for k in range(n, 0, -1)]
        )
    else:  # D
        facs = (
            [geom_inverse(t, -k, 1, trunc) for k in range(1, n + 1)]
            + [quadratic_factor(t, -n, n, -1, trunc)]
            + [geom_inverse(t, k, 1, trunc) for k in range(n, 0, -1)]
        )
    return ordered_product(t, facs)


def same(got, want):
    return len(got) == len(want) and all(g == w and g.terms == w.terms for g, w in zip(got, want))


@pytest.mark.parametrize("t", ORACLE_TYPES, ids=str)
def test_E_and_H_equal_the_factor_series_oracle(t):
    assert same(E_series(t, 9), oracle_E(t, 9)), t
    assert same(H_series(t, 9), oracle_H(t, 9)), t


def test_geom_inverse_coeffs():
    # a quotient step by 1 - z X from 1 is the geometric series
    s = _build(A2, [((1,), -1, True)], 3)
    assert same(s, geom_inverse(A2, 1, 1, 3))
    assert s[1] == f_hom(A2, 1, 0)
    assert s[2] == f_hom(A2, 1, 0) * f_hom(A2, 1, -2)
    # B has delta = 2, so the ladder steps by 4
    sb = _build(B2, [((2,), -1, True)], 2)
    assert same(sb, geom_inverse(B2, 2, 1, 2))
    assert sb[2] == f_hom(B2, 2, 0) * f_hom(B2, 2, -4)


def test_geom_inverse_is_the_inverse_of_its_linear_factor():
    # each step of the builder, from 1, against the dense factor series and
    # the inversion recursion, coefficient by coefficient
    for t in SMALL_TYPES:
        n = t.rank
        for c in letters(t):
            for sign in (1, -1):
                assert same(_build(t, [((c,), sign, False)], 8), linear_factor(t, c, sign, 8)), (t, c, sign)
                want = inverse(t, linear_factor(t, c, -sign, 8))
                assert same(geom_inverse(t, c, sign, 8), want), (t, c, sign)
                assert same(_build(t, [((c,), -sign, True)], 8), want), (t, c, sign)
        for word in ((n, -n), (-n, n)) if t.family in "CD" else ():
            for sign in (1, -1):
                quad = quadratic_factor(t, *word, sign, 8)
                assert same(_build(t, [(word, sign, False)], 8), quad), (t, word, sign)
                assert same(_build(t, [(word, sign, True)], 8), inverse(t, quad)), (t, word, sign)


def test_E_examples():
    assert E_series(A1, 2)[1] == f_hom(A1, 1, 0) + f_hom(A1, 2, 0)
    assert E_series(C2, 4)[3] == ZERO  # e_{n+1} = 0 for C_n
    assert E_series(A2, 5)[4] == ZERO  # e_i = 0 for i > n+1
    assert E_series(A2, 5)[5] == ZERO


def test_E_vanishing_C():
    # e_i = 0 for i > 2n+2 and i = n+1 for C_n
    E = E_series(C2, 8)
    assert E[3] == ZERO
    for i in range(7, 9):
        assert E[i] == ZERO
    E3 = E_series(C3, 9)
    assert E3[4] == ZERO
    assert E3[9] == ZERO


def test_H_first_coeffs():
    for t in (A2, B2, C2, make_type("D", 3)):
        H = H_series(t, 2)
        assert H[0] == ONE
        want = ZERO
        for c in letters(t):
            want = want + f_hom(t, c, 0)
        assert H[1] == want, t


def test_H2_C2_monomial_count():
    h2 = h_coeff(C2, 2, 0)
    assert h2.num_terms() == 11


def test_e2_C2_monomial_count():
    assert e_coeff(C2, 2, 0).num_terms() == 5


def test_coeff_conventions():
    for t in (A2, C2):
        assert h_coeff(t, -1, 0) == ZERO
        assert e_coeff(t, -2, 4) == ZERO
        assert h_coeff(t, 0, 5) == ONE
        assert h_coeff(t, 2, 3) == h_coeff(t, 2, 0).shift_spectral(3)


def test_h1_equals_e1():
    for t in (A2, B2, C2):
        assert h_coeff(t, 1, 0) - e_coeff(t, 1, 0) == ZERO


@pytest.mark.parametrize("n,fam", [(n, fam) for n in (1, 2, 3) for fam in "ABCD" if n > 1 or fam != "D"])  # no D1
def test_check_HE(fam, n):
    assert check_HE(make_type(fam, n), 8)


def test_check_HE_peak_memory():
    # the products of check_HE cancel down to 1: a key leaves the ring's
    # accumulators where its coefficient cancels, and each degree of a
    # product is tested and dropped before the next is built, so B3 to
    # degree 8 peaks at 4.3 MiB on CPython 3.11 (5.1 MiB when each product
    # was held whole, 6.8 MiB when cancelled keys also stayed as 0
    # coefficients until a filtered copy of each result)
    t = make_type("B", 3)
    check_HE(t, 2)  # the letter caches, outside the measurement
    tracemalloc.start()
    try:
        assert check_HE(t, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.0 * 2**20, peak


def _factor_mutants(table, n):
    """Each factor list of table at rank n with one factor changed: its sign
    flipped, or its inverse flag."""
    facs = table(n)
    for j, (word, sign, inverted) in enumerate(facs):
        for changed in ((word, -sign, inverted), (word, sign, not inverted)):
            yield facs[:j] + [changed] + facs[j + 1 :]


def test_check_HE_fails_on_every_single_factor_mutant(monkeypatch):
    # check_HE can fail: with one factor of E or H changed, the identity
    # breaks by degree 4, at rank 2 of each family
    seen = 0
    for fam in "ABCD":
        t = make_type(fam, 2)
        for tables in (series._E_FACTORS, series._H_FACTORS):
            for mutant in _factor_mutants(tables[fam], 2):
                with monkeypatch.context() as m:
                    m.setitem(tables, fam, lambda n, mutant=mutant: mutant)
                    assert not check_HE(t, 4), (t, mutant)
                seen += 1
    assert seen == 72


def test_coefficients_refuse_an_unknown_kind(fresh_cache):
    for kind in ("e", "h", "", "EH"):
        for r in (0, 2):
            with pytest.raises(ValueError, match="unknown series kind"):
                coefficients(A2, kind, r)
    assert fresh_cache._SERIES_CACHE == {}


# The coefficient cache builds each (type, kind) series to the largest degree
# asked so far, whatever the order of the asks.


@pytest.fixture
def fresh_cache(monkeypatch):
    monkeypatch.setattr(series, "_SERIES_CACHE", {})
    return series


def test_coefficients_are_those_of_the_full_series_in_any_order(fresh_cache):
    rng = random.Random(21)
    for t in SMALL_TYPES:
        full = {"H": H_series(t, 8), "E": E_series(t, 8)}
        shuffled = list(range(1, 9))
        rng.shuffle(shuffled)
        for order in (range(1, 9), range(8, 0, -1), shuffled):
            fresh_cache._SERIES_CACHE.clear()
            for r in order:
                for kind, coeff in (("H", h_coeff), ("E", e_coeff)):
                    got = coeff(t, r)
                    assert got == full[kind][r] and got.terms == full[kind][r].terms, (t, kind, list(order), r)


def test_a_series_is_built_to_the_degree_asked(fresh_cache):
    for t in SMALL_TYPES:
        fresh_cache._SERIES_CACHE.clear()
        h_coeff(t, 1)
        assert len(fresh_cache._SERIES_CACHE[(t, "H")]) == 2
        assert (t, "E") not in fresh_cache._SERIES_CACHE
        h_coeff(t, 3)
        h_coeff(t, 2)
        assert len(fresh_cache._SERIES_CACHE[(t, "H")]) == 4


def _largest_index(rows, cols):
    """The largest index rows_i - cols_j - i + j of a Jacobi-Trudi matrix
    (rows and cols zero-padded to one length), by scanning every entry."""
    l = max(len(rows), len(cols))
    rows, cols = list(rows) + [0] * (l - len(rows)), list(cols) + [0] * (l - len(cols))
    return max((rows[i] - cols[j] - i + j for i in range(l) for j in range(l)), default=0)


@pytest.mark.parametrize("t", [make_type("A", 2), make_type("B", 2), make_type("C", 2), make_type("D", 3)], ids=str)
def test_a_determinant_builds_its_series_once(fresh_cache, monkeypatch, t):
    builds = []

    def counted(name):
        build = getattr(series, name)

        def run(t, r):
            builds.append(name)
            return build(t, r)

        return run

    for name in ("H_series", "E_series"):
        monkeypatch.setattr(series, name, counted(name))
    for lam in all_partitions(5, 3, 3):
        for mu in subpartitions(lam) if lam else ():
            s = shape(lam, mu)
            for chi, kind, top in (
                (chi_h, "H", _largest_index(lam, mu)),
                (chi_e, "E", _largest_index(s.lam.conjugate().parts, s.mu.conjugate().parts)),
            ):
                fresh_cache._SERIES_CACHE.clear()
                builds.clear()
                want = [f"{kind}_series"] if top >= 1 else []
                chi(t, s)
                assert builds == want, (t, s, kind)
                held = fresh_cache._SERIES_CACHE.get((t, kind))
                assert (len(held) - 1 if held else 0) == max(top, 0), (t, s, kind)
                chi(t, s, 3)  # another offset reads the held series
                assert builds == want, (t, s, kind)
