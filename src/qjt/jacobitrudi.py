"""The determinant characters chi_{lambda/mu, a} in h- and e-form.

The matrices are built here: each reads its series' coefficient list once,
up to its largest index, and each entry is an O(1) spectral-shift view of
one coefficient.  Their cofactor expansion is ``RingElem.determinant``,
which runs in the ring's packed layout on the same pair-product loop as
``RingElem.sum_products``.
"""

from __future__ import annotations

from .ring import ZERO, AlgType, RingElem, delta
from .series import coefficients
from .shapes import SkewShape


def _entry(coeffs: list[RingElem], r: int, offset: int) -> RingElem:
    """The degree-r coefficient moved offset; zero for r < 0."""
    return coeffs[r].shift_spectral(offset) if r >= 0 else ZERO


def chi_h(t: AlgType, s: SkewShape, a_offset: int = 0) -> RingElem:
    """det( h_{lam_i - mu_j - i + j} at offset a_offset + 2(lam_i - i) delta )."""
    d = delta(t)
    l = max(len(s.lam), len(s.mu))
    rows = range(1, l + 1)
    # lam and mu 1-indexed and zero-padded to length l
    lam = (0, *s.lam.parts) + (0,) * (l - len(s.lam))
    mu = (0, *s.mu.parts) + (0,) * (l - len(s.mu))
    # up to the largest index, lam_1 - mu_l + l - 1: the series is built once
    h = coefficients(t, "H", lam[1] - mu[l] + l - 1 if l else 0)
    return RingElem.determinant(
        [[_entry(h, lam[i] - mu[j] - i + j, a_offset + 2 * (lam[i] - i) * d) for j in rows] for i in rows]
    )


def chi_e(t: AlgType, s: SkewShape, a_offset: int = 0) -> RingElem:
    """det( e_{lam'_i - mu'_j - i + j} at offset a_offset - 2(mu'_j - j + 1) delta )."""
    d = delta(t)
    lam, mu = s.lam.parts, s.mu.parts
    rows = range(1, (lam[0] if lam else 0) + 1)
    # the conjugates lam' and mu', 1-indexed up to lam_1: lam'_j counts the parts >= j
    lamc = (0, *[len([p for p in lam if p >= j]) for j in rows])
    muc = (0, *[len([p for p in mu if p >= j]) for j in rows])
    # up to the largest index, lam'_1 - mu'_m + m - 1 for m = lam_1: the series is built once
    e = coefficients(t, "E", lamc[1] - muc[-1] + len(rows) - 1 if rows else 0)
    return RingElem.determinant(
        [[_entry(e, lamc[i] - muc[j] - i + j, a_offset - 2 * (muc[j] - j + 1) * d) for j in rows] for i in rows]
    )
