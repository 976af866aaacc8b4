"""The letter images of qjt.ring, pinned from outside.  qjt.ring derives
them along one Frenkel-Mukhin string per type, each image the one before
times A_{i,a}^{-1}; the checks here do not use that rule.  They are the
generating relations among the z-variables (B's z_0 relation included), the
inverse substitution g, and for D, which has no path or tableau model, the
one-row series as sums over their tableau words.  Each check lists its
failures as (type, relation, shift) or (type, coefficient, degree);
``tests/test_ring.py`` and acceptance criterion 1 run the same checks.
``oracle_factors`` writes every image out case by case, as the library did
before the string: ``tests/test_ring.py`` compares the derived images with
it."""

import itertools

from qjt.jacobitrudi import chi_h
from qjt.ring import ONE, AlgType, RingElem, delta, letters, make_type, y_monomial, z_product
from qjt.series import e_coeff, h_coeff
from qjt.shapes import SkewShape, shape

IMAGE_TYPES = [make_type(f, n) for f in "ABCD" for n in range(1, 5) if not (f == "D" and n < 2)]

# The step c of the relation z_{i,a} z_{ib,a-c} = z_{i-1,a} z_{i-1b,a-c}
# (z_0 z_0b = 1) of B, C and D at rank n.
_PAIR_STEP = {
    "B": lambda n, i: 4 * n - 4 * i + 2,
    "C": lambda n, i: 2 * n - 2 * i + 4,
    "D": lambda n, i: 2 * n - 2 * i,
}


def relation_failures(t: AlgType) -> list[tuple[str, str, int]]:
    """(type, relation, a) of each generating relation of t's letter images
    that fails at a: prod_k z_{k,a-2k} = 1 for A (a in -4..4), and for B, C
    and D each pair relation of _PAIR_STEP, i = 1..n, and for B
    z_{0,a} = prod_k z_{k,a+4n-4k} z_{kb,a-4n+4k} (a in -8..8)."""
    n = t.rank
    if t.family == "A":
        return [
            (str(t), "prod_k z_{k,a-2k} = 1", a)
            for a in range(-4, 5)
            if z_product(t, [(k, a - 2 * k) for k in range(1, n + 2)]) != ONE
        ]
    out = []
    for i in range(1, n + 1):
        c = _PAIR_STEP[t.family](n, i)
        name = f"z_{{{i},a}} z_{{{i}b,a-{c}}} = " + (f"z_{{{i - 1},a}} z_{{{i - 1}b,a-{c}}}" if i > 1 else "1")
        for a in range(-8, 9):
            lhs = z_product(t, [(i, a), (-i, a - c)])
            rhs = z_product(t, [(i - 1, a), (1 - i, a - c)]) if i > 1 else ONE
            if lhs != rhs:
                out.append((str(t), name, a))
    if t.family == "B":
        name = "z_{0,a} = prod_k z_{k,a+4n-4k} z_{kb,a-4n+4k}"
        for a in range(-8, 9):
            rhs = [(k, a + 4 * n - 4 * k) for k in range(1, n + 1)] + [(-k, a - 4 * n + 4 * k) for k in range(1, n + 1)]
            if z_product(t, [(0, a)]) != z_product(t, rhs):
                out.append((str(t), name, a))
    return out


def d_word_failures(t: AlgType) -> list[tuple[str, str, int]]:
    """(type, coefficient, k) of each h_k and e_k of type D, k <= 4, that
    differs from its sum of z-products over tableau words, read in
    letters(t) order.  h_k at offset 2(k - 1) sums the weakly increasing
    words that do not hold both n and n-bar, letter m of a word at shift 2m;
    e_k sums the strictly increasing words, except that adjacent n and n-bar
    may come in either order, letter m at shift -2m.  H E(-X) = 1 and
    chi_h = chi_e hold for any letter images used alike in both series;
    these sums do not."""
    n, alphabet = t.rank, letters(t)
    pos = {c: p for p, c in enumerate(alphabet)}

    def word_sum(words, step):
        return RingElem.sum(z_product(t, [(c, step * m) for m, c in enumerate(w)]) for w in words)

    out = []
    for k in range(1, 5):
        rows = [w for w in itertools.combinations_with_replacement(alphabet, k) if not {n, -n} <= set(w)]
        columns = [
            w
            for w in itertools.product(alphabet, repeat=k)
            if all(pos[a] < pos[b] or {a, b} == {n, -n} for a, b in zip(w, w[1:]))
        ]
        if word_sum(rows, 2) != h_coeff(t, k, 2 * (k - 1)):
            out.append((str(t), "h_k", k))
        if word_sum(columns, -2) != e_coeff(t, k):
            out.append((str(t), "e_k", k))
    return out


# sigma = r^vee h^vee, in spectral steps: the shift between a fundamental
# module and its dual
_DUAL_SHIFT = {"A": lambda n: n + 1, "B": lambda n: 4 * n - 2, "C": lambda n: 2 * n + 2, "D": lambda n: 2 * n - 2}


def _dual_index(t: AlgType, i: int) -> int:
    """i*: n + 1 - i for A, n - 1 and n swapped for D of odd rank, else i."""
    n = t.rank
    if t.family == "A":
        return n + 1 - i
    if t.family == "D" and n % 2 and i >= n - 1:
        return 2 * n - 1 - i
    return i


def rotated(t: AlgType, s: SkewShape) -> tuple[SkewShape, int]:
    """(rot(s), offset): s turned 180 degrees inside L rows and lam_1
    columns, L = n + 1 for A (a column of n + 1 boxes is 1) and the number
    of rows of lam otherwise, and the offset -sigma - 2 delta (lam_1 - L) at
    which chi of rot(s) is the dual of chi_{s,0}."""
    lam, mu = s.lam, s.mu
    L, c = (t.rank + 1 if t.family == "A" else len(lam)), lam[1]
    if len(lam) > L:
        raise ValueError(f"{s} has more than {L} rows")
    rot = shape(tuple(c - mu[L + 1 - i] for i in range(1, L + 1)), tuple(c - lam[L + 1 - i] for i in range(1, L + 1)))
    return rot, -_DUAL_SHIFT[t.family](t.rank) - 2 * delta(t) * (c - L)


def duality_failures(t: AlgType, shapes) -> list[tuple[str, str]]:
    """(type, shape) of each skew shape s where the dual of chi_{s,0} is not
    chi of rot(s) at the offset of ``rotated``.  The dual sends Y_{i,s} to
    Y_{i*,-s}^{-1}; it is taken here on the decoded terms of chi_h, so no
    library code dualizes.  The closed-form offset is read, not searched."""
    out = []
    for s in shapes:
        rot, offset = rotated(t, s)
        dual = {tuple(sorted((_dual_index(t, i), -x, -e) for i, x, e in m)): c for m, c in chi_h(t, s).terms.items()}
        if dual != chi_h(t, rot, offset).terms:
            out.append((str(t), repr(s)))
    return out


def inverse_failures(t: AlgType) -> list[tuple[str, str, int]]:
    """(type, generator^e, a) of each Y-generator of t at a in (-3, 0, 2)
    and e = +-1 that g followed by f does not give back."""
    n, fam = t.rank, t.family
    simple = range(1, {"B": n, "D": n - 1}.get(fam, n + 1))

    def images(a: int, e: int):
        """(generator, its image under g then f, the generator) at a."""
        for i in simple:
            yield f"Y_{{{i},a}}", g_hom(t, i, a, e), y_monomial(i, a, e)
        if fam in ("B", "D"):
            want = RingElem.monomial([(n, a - 1, e), (n, a + 1, e)])
            yield f"Y_{{{n},a-1}} Y_{{{n},a+1}}", g_hom_composite(t, "nn", a, e), want
        if fam == "D":
            want = RingElem.monomial([(n - 1, a, e), (n, a, e)])
            yield f"Y_{{{n - 1},a}} Y_{{{n},a}}", g_hom_composite(t, "n-1,n", a, e), want

    return [
        (str(t), f"({name})^{e}", a)
        for a in (-3, 0, 2)
        for e in (1, -1)
        for name, got, want in images(a, e)
        if got != want
    ]


# The inverse substitution g: Y-generators -> z-products (returned in
# Y-form), the oracle that the letter images of qjt.ring must invert


def g_hom(t: AlgType, index: int, shift: int, exponent: int) -> RingElem:
    """Image of Y_{index, a+shift}^{exponent} (exponent = +-1).

    Returned pushed back through f, so g followed by this representation is
    the identity on generator monomials.  For B (index n) and D (indices
    n-1, n) the single Y-variables are not generators of the source ring;
    use g_hom_composite for those.
    """
    n = t.rank
    fam = t.family
    if exponent not in (1, -1):
        raise ValueError("exponent must be +1 or -1")
    if not 1 <= index <= n:
        raise ValueError(f"index {index} out of range for {t}")
    i, a = index, shift
    if fam == "A":
        if exponent == 1:
            zs = [(k, a + i - 2 * k + 1) for k in range(1, i + 1)]
        else:
            zs = [(k, a + i - 2 * k + 1) for k in range(i + 1, n + 2)]
        return z_product(t, zs)
    if fam == "C":
        if exponent == 1:
            zs = [(k, a + i - 2 * k + 1) for k in range(1, i + 1)]
        else:
            zs = [(-k, a - 2 * n - i + 2 * k - 3) for k in range(1, i + 1)]
        return z_product(t, zs)
    if fam == "B":
        if i == n:
            raise ValueError("Y_n for B is only generated in composite pairs")
        if exponent == 1:
            zs = [(k, a + 2 * i - 4 * k + 2) for k in range(1, i + 1)]
        else:
            zs = [(-k, a - 4 * n - 2 * i + 4 * k) for k in range(1, i + 1)]
        return z_product(t, zs)
    if fam == "D":
        if i >= n - 1:
            raise ValueError("Y_{n-1}, Y_n for D are only generated in composite pairs")
        if exponent == 1:
            zs = [(k, a + i - 2 * k + 1) for k in range(1, i + 1)]
        else:
            zs = [(-k, a - 2 * n - i + 2 * k + 1) for k in range(1, i + 1)]
        return z_product(t, zs)
    raise ValueError(f"unknown family {fam}")


def g_hom_composite(t: AlgType, which: str, shift: int, exponent: int) -> RingElem:
    """Composite generator images.

    which = 'nn' : Y_{n,a-1} Y_{n,a+1}         (B and D)
    which = 'n-1,n' : Y_{n-1,a} Y_{n,a}        (D only)
    shift is the base a; exponent = +-1 applies to the whole pair.
    """
    n = t.rank
    a = shift
    if exponent not in (1, -1):
        raise ValueError("exponent must be +1 or -1")
    if t.family == "B" and which == "nn":
        if exponent == 1:
            zs = [(k, a + 2 * n - 4 * k + 2) for k in range(1, n + 1)]
        else:
            zs = [(-k, a - 6 * n + 4 * k) for k in range(1, n + 1)]
        return z_product(t, zs)
    if t.family == "D" and which == "nn":
        if exponent == 1:
            zs = [(k, a + n - 2 * k + 1) for k in range(1, n + 1)]
        else:
            zs = [(-k, a - 3 * n + 2 * k + 1) for k in range(1, n + 1)]
        return z_product(t, zs)
    if t.family == "D" and which == "n-1,n":
        if exponent == 1:
            zs = [(k, a + n - 2 * k) for k in range(1, n)]
        else:
            zs = [(-k, a - 3 * n + 2 * k + 2) for k in range(1, n)]
        return z_product(t, zs)
    raise ValueError(f"no composite generator {which!r} for {t}")


# The images written out case by case: the oracle of the string derivation
# in qjt.ring


def oracle_factors(t: AlgType, letter: int) -> tuple[tuple[int, int, int], ...]:
    """Y-factors (i, relative shift, exponent) of the image of z_{letter,a},
    sorted; B's z_0 by its generating relation over the other letters."""
    if letter not in letters(t):
        raise ValueError(f"letter {letter} not in alphabet of {t}")
    n = t.rank
    fam = t.family
    if 0 < letter <= {"A": n + 1, "C": n, "D": n - 2}.get(fam, 0):
        # every A letter, and the unbarred C and D letters whose image is the A one
        i = letter
        out = [(i, i - 1, 1)] if i <= n else []
        if i >= 2:
            out.append((i - 1, i, -1))
    elif fam == "B" and letter == 0:
        # z_{0,a} = prod_k z_{k,a+4n-4k} z_{kbar,a-4n+4k}
        acc: dict[tuple[int, int], int] = {}
        for k in range(1, n + 1):
            for i, s, e in oracle_factors(t, k):
                acc[(i, s + 4 * n - 4 * k)] = acc.get((i, s + 4 * n - 4 * k), 0) + e
            for i, s, e in oracle_factors(t, -k):
                acc[(i, s - 4 * n + 4 * k)] = acc.get((i, s - 4 * n + 4 * k), 0) + e
        out = [(i, s, e) for (i, s), e in acc.items() if e]
    elif fam == "B":
        if 1 <= letter <= n - 1:
            i = letter
            out = [(i, 2 * i - 2, 1), (i - 1, 2 * i, -1)] if i >= 2 else [(1, 0, 1)]
        elif letter == n:
            out = [(n, 2 * n - 3, 1), (n, 2 * n - 1, 1)]
            if n >= 2:
                out.append((n - 1, 2 * n, -1))
        elif letter == -n:
            out = []
            if n >= 2:
                out.append((n - 1, 2 * n - 2, 1))
            out += [(n, 2 * n - 1, -1), (n, 2 * n + 1, -1)]
        else:
            i = -letter  # -(n-1) <= letter <= -1
            out = []
            if i >= 2:
                out.append((i - 1, 4 * n - 2 * i - 2, 1))
            out.append((i, 4 * n - 2 * i, -1))
    elif fam == "C":
        i = -letter
        out = []
        if i >= 2:
            out.append((i - 1, 2 * n - i + 2, 1))
        out.append((i, 2 * n - i + 3, -1))
    elif letter == n - 1:  # D from here on
        out = [(n, n - 2, 1), (n - 1, n - 2, 1)]
        if n >= 3:
            out.append((n - 2, n - 1, -1))
    elif letter == n:
        out = [(n, n - 2, 1), (n - 1, n, -1)]
    elif letter == -n:
        out = [(n - 1, n - 2, 1), (n, n, -1)]
    elif letter == -(n - 1):
        out = []
        if n >= 3:
            out.append((n - 2, n - 1, 1))
        out += [(n - 1, n, -1), (n, n, -1)]
    else:
        i = -letter  # -(n-2) <= letter <= -1
        out = []
        if i >= 2:
            out.append((i - 1, 2 * n - i - 2, 1))
        out.append((i, 2 * n - i - 1, -1))
    return tuple(sorted(out))
