"""Partitions, skew shapes, and the highest weight tableau machinery."""

from __future__ import annotations

from .ring import AlgType, RingElem, delta


def parse_partition(text: str) -> tuple[int, ...]:
    """Parse "4,3,2" into (4,3,2); empty string is the empty partition."""
    text = text.strip()
    if not text:
        return ()
    parts = tuple(int(p) for p in text.split(","))
    return Partition(parts).parts


class Partition:
    """A weakly decreasing tuple of positive integers."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(p for p in parts if p != 0)
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"not weakly decreasing: {parts}")
        if parts and parts[-1] < 0:
            raise ValueError(f"negative part in {parts}")
        self.parts = parts

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        """1-indexed part, zero-padded: p[i] = lambda_i."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def __iter__(self):
        return iter(self.parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"

    def size(self) -> int:
        return sum(self.parts)

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition()
        return Partition(
            tuple(sum(1 for p in self.parts if p >= j) for j in range(1, self.parts[0] + 1))
        )

    def contains(self, other: "Partition") -> bool:
        return all(self[i] >= other[i] for i in range(1, len(other) + 1))

    def to_text(self) -> str:
        return ",".join(str(p) for p in self.parts)


class SkewShape:
    """A pair of partitions mu inside lambda; boxes are 1-indexed (row, col)."""

    __slots__ = ("lam", "mu")

    def __init__(self, lam: Partition, mu: Partition = Partition()):
        if not lam.contains(mu):
            raise ValueError(f"{mu} is not contained in {lam}")
        self.lam = lam
        self.mu = mu

    def __eq__(self, other):
        return isinstance(other, SkewShape) and (self.lam, self.mu) == (other.lam, other.mu)

    def __hash__(self):
        return hash((self.lam, self.mu))

    def __repr__(self):
        return f"SkewShape({self.lam.parts}/{self.mu.parts})"

    def num_rows(self) -> int:
        return len(self.lam)

    def num_cols(self) -> int:
        return self.lam[1]

    def boxes(self) -> list[tuple[int, int]]:
        return [
            (i, j)
            for i in range(1, len(self.lam) + 1)
            for j in range(self.mu[i] + 1, self.lam[i] + 1)
        ]

    def contains_box(self, i: int, j: int) -> bool:
        return 1 <= i <= len(self.lam) and self.mu[i] + 1 <= j <= self.lam[i]

    def size(self) -> int:
        return self.lam.size() - self.mu.size()

    def depth(self) -> int:
        """Length of the longest column."""
        lamc, muc = self.lam.conjugate(), self.mu.conjugate()
        if not lamc.parts:
            return 0
        return max(lamc[j] - muc[j] for j in range(1, len(lamc) + 1))

    def conjugate(self) -> "SkewShape":
        return SkewShape(self.lam.conjugate(), self.mu.conjugate())


def shape(lam, mu=()) -> SkewShape:
    return SkewShape(Partition(lam), Partition(mu))


def highest_weight_tableau(s: SkewShape) -> dict[tuple[int, int], int]:
    """Fill box (i,j) with the unbarred letter i - mu'_j."""
    muc = s.mu.conjugate()
    return {(i, j): i - muc[j] for (i, j) in s.boxes()}


def hw_monomial(t: AlgType, s: SkewShape, a_offset: int = 0) -> RingElem:
    """The Y-monomial of the highest weight tableau, by the column product.

    Column j contributes Y_{c(j), a(j)} in general, where c(j) is the column
    height lam'_j - mu'_j and a(j) = a + (2j - lam'_j - mu'_j - 1) * delta;
    for B/D columns of full height n the factor is instead
    Y_{n, a(j)-1} Y_{n, a(j)+1}, for D columns of height n-1 an extra
    Y_{n, a(j)} appears, and empty columns contribute 1.
    """
    n = t.rank
    if s.depth() > n:
        raise ValueError(f"depth {s.depth()} exceeds rank {n}")
    d = delta(t)
    lamc, muc = s.lam.conjugate(), s.mu.conjugate()
    factors = []
    for j in range(1, len(lamc) + 1):
        h = lamc[j] - muc[j]
        if h == 0:
            continue
        aj = a_offset + (2 * j - lamc[j] - muc[j] - 1) * d
        if t.family in ("B", "D") and h == n:
            factors += [(n, aj - 1, 1), (n, aj + 1, 1)]
        elif t.family == "D" and h == n - 1:
            factors += [(h, aj, 1), (n, aj, 1)]
        else:
            factors.append((h, aj, 1))
    return RingElem.monomial(factors)
