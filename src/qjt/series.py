"""Truncated series in a noncommuting symbol X over RingElem coefficients.

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

from .ring import ONE, ZERO, AlgType, RingElem, delta, f_hom


class Series:
    """coeffs[i] is the coefficient of X^i, for i = 0..trunc."""

    __slots__ = ("coeffs", "delta")

    def __init__(self, coeffs: list[RingElem], delta_: int):
        self.coeffs = coeffs
        self.delta = delta_

    @property
    def trunc(self) -> int:
        return len(self.coeffs) - 1

    def __mul__(self, other: "Series") -> "Series":
        if self.delta != other.delta:
            raise ValueError(f"series with spectral steps {self.delta} and {other.delta} do not multiply")
        trunc = min(self.trunc, other.trunc)
        d = self.delta
        a, b = self.coeffs, other.coeffs
        return Series(
            [
                RingElem.sum_products((1, a[i], b[k - i].shift_spectral(-2 * d * i)) for i in range(k + 1))
                for k in range(trunc + 1)
            ],
            d,
        )

    def negate_x(self) -> "Series":
        """Substitute X -> -X."""
        return Series(
            [c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs)], self.delta
        )

    def is_one(self) -> bool:
        return self.coeffs[0].is_one() and all(c.is_zero() for c in self.coeffs[1:])


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


def _build(t: AlgType, factors, trunc: int) -> Series:
    """The ordered product of factors to X^trunc, one factor at a time.

    With c X^m the factor's non-constant term and c_j = shift(c, -2*delta*j),
    so that X^j c = c_j X^j, multiplying p by 1 + c X^m gives
    q_k = p_k + p_{k-m} c_{k-m}, and dividing p by it gives
    q_k = p_k - q_{k-m} c_{k-m}.  Both run in place: a product from the top
    degree down, as q_k reads the old lower degrees, and a quotient from the
    bottom up, as q_k reads the new ones."""
    d = delta(t)
    p = [ONE] + [ZERO] * trunc
    for word, sign, inverted in factors:
        m = len(word)
        c = f_hom(t, word[0]).scalar_mul(sign)
        for j, letter in enumerate(word[1:], 1):
            c = c * f_hom(t, letter, -2 * d * j)
        s = -1 if inverted else 1
        for k in range(m, trunc + 1) if inverted else range(trunc, m - 1, -1):
            p[k] = RingElem.sum_products(((1, p[k], ONE), (s, p[k - m], c.shift_spectral(-2 * d * (k - m)))))
    return Series(p, d)


def E_series(t: AlgType, trunc: int) -> Series:
    return _build(t, _E_FACTORS[t.family](t.rank), trunc)


def H_series(t: AlgType, trunc: int) -> Series:
    return _build(t, _H_FACTORS[t.family](t.rank), trunc)


# Memoized coefficient access: one series per (type, kind), built to the
# largest degree asked so far.
_SERIES_CACHE: dict[tuple[AlgType, str], Series] = {}


def coefficients(t: AlgType, kind: str, r: int) -> list[RingElem]:
    """The coefficients of degree 0 to at least r of the held "E" or "H"
    series of t, built to degree r if it holds less; [1] for r < 1, with
    nothing built.  The list is shared: read it, never change it."""
    if r < 1:
        return [ONE]
    key = (t, kind)
    ser = _SERIES_CACHE.get(key)
    if ser is None or ser.trunc < r:
        ser = _SERIES_CACHE[key] = E_series(t, r) if kind == "E" else H_series(t, r)
    return ser.coeffs


def h_coeff(t: AlgType, r: int, offset: int = 0) -> RingElem:
    """h_{r, a+offset}; zero for r < 0, one for r = 0."""
    return coefficients(t, "H", r)[r].shift_spectral(offset) if r >= 0 else ZERO


def e_coeff(t: AlgType, r: int, offset: int = 0) -> RingElem:
    """e_{r, a+offset}; zero for r < 0, one for r = 0."""
    return coefficients(t, "E", r)[r].shift_spectral(offset) if r >= 0 else ZERO


def check_HE(t: AlgType, trunc: int) -> bool:
    """H_a(z,X) E_a(z,-X) = E_a(z,-X) H_a(z,X) = 1 up to X^trunc."""
    H = H_series(t, trunc)
    Em = E_series(t, trunc).negate_x()
    return (H * Em).is_one() and (Em * H).is_one()
