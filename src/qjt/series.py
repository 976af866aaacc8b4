"""Truncated series in a noncommuting symbol X over RingElem coefficients:
a series is the list of its coefficients, that of X^i at index i.

X twists past coefficients by a spectral shift: X*z_{c,a} = z_{c,a-2*delta}*X,
so the product rule is (sum a_i X^i)(sum b_j X^j)_k =
sum_{i+j=k} a_i * shift(b_j, -2*delta*i).

E and H are the ordered products of linear/quadratic factors and their
inverses, whose X-degree coefficients are the elementary and complete one-row
characters e_{i,a} and h_{i,a}.  Each is built one factor at a time, by the
two-term recurrence of a product or quotient by that factor; only
``check_HE`` multiplies two series, by the product rule above, so the
identity it checks does not share the build's arithmetic.
A build's cost is dominated by its top degree, so ``coefficients`` (and
``h_coeff`` and ``e_coeff``, which read one coefficient through it) builds
each (type, kind) series to exactly the degree asked and keeps it; a larger
degree asked later rebuilds it to that degree.
``check_HE`` builds its own series to its own truncation, apart from them.
"""

from __future__ import annotations

from .ring import ONE, ZERO, AlgType, RingElem, delta, f_hom, row_bound


def _each(letters, sign: int, inverted: bool) -> list:
    return [((c,), sign, inverted) for c in letters]


# The factors of E and H in their order, one table each per family of rank n.
# An entry (word, sign, inverted) is the factor 1 + sign * c X^len(word), or
# its inverse if flagged, where c = z_{w1,a} for a one-letter word and
# c = z_{w1,a} z_{w2,a-2*delta} for a two-letter one (from z_{w1,a} X z_{w2,a} X).
_E_FACTORS = {
    "A": lambda n: _each(range(1, n + 2), 1, False),
    "B": lambda n: _each(range(1, n + 1), 1, False) + [((0,), -1, True)] + _each(range(-n, 0), 1, False),
    "C": lambda n: _each(range(1, n + 1), 1, False) + [((n, -n), -1, False)] + _each(range(-n, 0), 1, False),
    "D": lambda n: _each(range(1, n + 1), 1, False) + [((-n, n), -1, True)] + _each(range(-n, 0), 1, False),
}
_H_FACTORS = {
    "A": lambda n: _each(range(n + 1, 0, -1), -1, True),
    "B": lambda n: _each(range(-1, -n - 1, -1), -1, True) + [((0,), 1, False)] + _each(range(n, 0, -1), -1, True),
    "C": lambda n: _each(range(-1, -n - 1, -1), -1, True) + [((n, -n), -1, True)] + _each(range(n, 0, -1), -1, True),
    "D": lambda n: _each(range(-1, -n - 1, -1), -1, True) + [((-n, n), -1, False)] + _each(range(n, 0, -1), -1, True),
}


def _build(t: AlgType, factors, trunc: int) -> list[RingElem]:
    """The ordered product of factors to X^trunc, one factor at a time.

    With c X^m the factor's non-constant term and c_j = shift(c, -2*delta*j),
    so that X^j c = c_j X^j, multiplying p by 1 + c X^m gives
    q_k = p_k + p_{k-m} c_{k-m}, and dividing p by it gives
    q_k = p_k - q_{k-m} c_{k-m}.  Both run in place: a product from the top
    degree down, as q_k reads the old lower degrees, and a quotient from the
    bottom up, as q_k reads the new ones.  Each q_k, finished or not, is a
    sum of products of letter images at distinct shifts, so it is within
    ``row_bound(t)``.  The bound q_{k-m} carries grows by c's at each step;
    where its product with c could leave its digits' width, it is first
    declared, checked, within row_bound(t), so the build stays at 4-bit
    digits.  Each finished coefficient is declared, checked, once more."""
    d, bound = delta(t), row_bound(t)
    p = [ONE] + [ZERO] * trunc
    for word, sign, inverted in factors:
        m = len(word)
        c = f_hom(t, word[0]).scalar_mul(sign)
        for j, letter in enumerate(word[1:], 1):
            c = c * f_hom(t, letter, -2 * d * j)
        s = -1 if inverted else 1
        for k in range(m, trunc + 1) if inverted else range(trunc, m - 1, -1):
            if p[k - m].widens(c):
                p[k - m] = p[k - m].bounded(bound)
            p[k] = RingElem.sum_products(((1, p[k], ONE), (s, p[k - m], c.shift_spectral(-2 * d * (k - m)))))
    return [x.bounded(bound) for x in p]


def E_series(t: AlgType, trunc: int) -> list[RingElem]:
    return _build(t, _E_FACTORS[t.family](t.rank), trunc)


def H_series(t: AlgType, trunc: int) -> list[RingElem]:
    return _build(t, _H_FACTORS[t.family](t.rank), trunc)


# Memoized coefficient access: one series per (type, kind), built to the
# largest degree asked so far.
_SERIES_CACHE: dict[tuple[AlgType, str], list[RingElem]] = {}


def coefficients(t: AlgType, kind: str, r: int) -> list[RingElem]:
    """The coefficients of degree 0 to at least r of the held "E" or "H"
    series of t, built to degree r if it holds less; [1] for r < 1, with
    nothing built.  The list is shared: read it, never change it."""
    if kind not in ("E", "H"):
        raise ValueError(f"unknown series kind {kind!r}: expected 'E' or 'H'")
    if r < 1:
        return [ONE]
    key = (t, kind)
    coeffs = _SERIES_CACHE.get(key)
    if coeffs is None or len(coeffs) <= r:
        coeffs = _SERIES_CACHE[key] = E_series(t, r) if kind == "E" else H_series(t, r)
    return coeffs


def h_coeff(t: AlgType, r: int, offset: int = 0) -> RingElem:
    """h_{r, a+offset}; zero for r < 0, one for r = 0."""
    return coefficients(t, "H", r)[r].shift_spectral(offset) if r >= 0 else ZERO


def e_coeff(t: AlgType, r: int, offset: int = 0) -> RingElem:
    """e_{r, a+offset}; zero for r < 0, one for r = 0."""
    return coefficients(t, "E", r)[r].shift_spectral(offset) if r >= 0 else ZERO


def check_HE(t: AlgType, trunc: int) -> bool:
    """H_a(z,X) E_a(z,-X) = E_a(z,-X) H_a(z,X) = 1 up to X^trunc, by the
    product rule, one degree at a time: no product is held whole."""
    d = delta(t)
    H = H_series(t, trunc)
    Em = [c if i % 2 == 0 else -c for i, c in enumerate(E_series(t, trunc))]
    return all(
        RingElem.sum_products((1, a[i], b[k - i].shift_spectral(-2 * d * i)) for i in range(k + 1))
        == (ONE if k == 0 else ZERO)
        for a, b in ((H, Em), (Em, H))
        for k in range(trunc + 1)
    )
