"""Truncated series in a noncommuting symbol X over RingElem coefficients.

X twists past coefficients by a spectral shift: X*z_{c,a} = z_{c,a-2*delta}*X,
so the product rule is (sum a_i X^i)(sum b_j X^j)_k =
sum_{i+j=k} a_i * shift(b_j, -2*delta*i).

E and H are the ordered products of linear/quadratic factors whose X-degree
coefficients are the elementary and complete one-row characters e_{i,a} and
h_{i,a}.  A build's cost is dominated by its top degree, so ``h_coeff`` and
``e_coeff`` build each (type, kind) series to exactly the degree asked and
keep it; a larger degree asked later rebuilds it to that degree.
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

    def inverse(self) -> "Series":
        """Two-sided inverse; requires constant coefficient 1."""
        if self.coeffs[0] != ONE:
            raise ValueError("only a series with constant coefficient 1 is inverted")
        d = self.delta
        s = self.coeffs
        inv = [ONE]
        for k in range(1, self.trunc + 1):
            inv.append(
                RingElem.sum_products((-1, s[i], inv[k - i].shift_spectral(-2 * d * i)) for i in range(1, k + 1))
            )
        return Series(inv, d)

    def negate_x(self) -> "Series":
        """Substitute X -> -X."""
        return Series(
            [c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs)], self.delta
        )

    def is_one(self) -> bool:
        return self.coeffs[0].is_one() and all(c.is_zero() for c in self.coeffs[1:])


def linear_factor(t: AlgType, letter: int, sign: int, trunc: int) -> Series:
    """(1 + sign * z_{letter,a} X) truncated."""
    coeffs = [ONE] + [ZERO] * trunc
    if trunc >= 1:
        coeffs[1] = f_hom(t, letter).scalar_mul(sign)
    return Series(coeffs, delta(t))


def quadratic_factor(t: AlgType, first: int, second: int, sign: int, trunc: int) -> Series:
    """(1 + sign * z_{first,a} X z_{second,a} X) truncated."""
    coeffs = [ONE] + [ZERO] * trunc
    if trunc >= 2:
        d = delta(t)
        coeffs[2] = (f_hom(t, first) * f_hom(t, second, -2 * d)).scalar_mul(sign)
    return Series(coeffs, delta(t))


def geom_inverse(t: AlgType, letter: int, sign: int, trunc: int) -> Series:
    """(1 - sign * z_{letter,a} X)^{-1} truncated, from its closed form: the
    degree m coefficient is sign^m * z_{c,a} z_{c,a-2d} ... z_{c,a-2d(m-1)},
    so each is the one before times sign * z_{c,a-2d(m-1)}."""
    d = delta(t)
    z = f_hom(t, letter).scalar_mul(sign)
    coeffs = [ONE]
    for m in range(trunc):
        coeffs.append(coeffs[-1] * z.shift_spectral(-2 * d * m))
    return Series(coeffs, d)


def _ordered_product(factors: list[Series]) -> Series:
    out = factors[0]
    for fac in factors[1:]:
        out = out * fac
    return out


def E_series(t: AlgType, trunc: int) -> Series:
    n = t.rank
    fam = t.family
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
            + [quadratic_factor(t, -n, n, -1, trunc).inverse()]
            + [linear_factor(t, -k, 1, trunc) for k in range(n, 0, -1)]
        )
    return _ordered_product(facs)


def H_series(t: AlgType, trunc: int) -> Series:
    n = t.rank
    fam = t.family
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
            + [quadratic_factor(t, n, -n, -1, trunc).inverse()]
            + [geom_inverse(t, k, 1, trunc) for k in range(n, 0, -1)]
        )
    else:  # D
        facs = (
            [geom_inverse(t, -k, 1, trunc) for k in range(1, n + 1)]
            + [quadratic_factor(t, -n, n, -1, trunc)]
            + [geom_inverse(t, k, 1, trunc) for k in range(n, 0, -1)]
        )
    return _ordered_product(facs)


# Memoized coefficient access: one series per (type, kind), built to the
# largest degree asked so far.
_SERIES_CACHE: dict[tuple[AlgType, str], Series] = {}


def _coeffs(t: AlgType, kind: str, r: int) -> list[RingElem]:
    key = (t, kind)
    ser = _SERIES_CACHE.get(key)
    if ser is None or ser.trunc < r:
        ser = _SERIES_CACHE[key] = E_series(t, r) if kind == "E" else H_series(t, r)
    return ser.coeffs


def h_coeff(t: AlgType, r: int, offset: int = 0) -> RingElem:
    """h_{r, a+offset}; zero for r < 0, one for r = 0."""
    if r < 0:
        return ZERO
    if r == 0:
        return ONE
    return _coeffs(t, "H", r)[r].shift_spectral(offset)


def e_coeff(t: AlgType, r: int, offset: int = 0) -> RingElem:
    """e_{r, a+offset}; zero for r < 0, one for r = 0."""
    if r < 0:
        return ZERO
    if r == 0:
        return ONE
    return _coeffs(t, "E", r)[r].shift_spectral(offset)


def check_HE(t: AlgType, trunc: int) -> bool:
    """H_a(z,X) E_a(z,-X) = E_a(z,-X) H_a(z,X) = 1 up to X^trunc."""
    H = H_series(t, trunc)
    Em = E_series(t, trunc).negate_x()
    return (H * Em).is_one() and (Em * H).is_one()
