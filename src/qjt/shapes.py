"""Partitions and skew shapes."""

from __future__ import annotations


def parse_partition(text: str) -> tuple[int, ...]:
    """Parse "4,3,2" into (4,3,2); empty string is the empty partition."""
    text = text.strip()
    if not text:
        return ()
    parts = tuple(int(p) for p in text.split(","))
    return Partition(parts).parts


class Partition:
    """A weakly decreasing tuple of positive integers, hashed once; trailing
    zero parts are dropped, and a zero before a positive part is refused."""

    __slots__ = ("parts", "_hash")

    def __init__(self, parts=()):
        parts = tuple(parts)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"not weakly decreasing: {parts}")
        if parts and parts[-1] < 0:
            raise ValueError(f"negative part in {parts}")
        self.parts = parts
        self._hash = hash(parts)

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
        return self._hash

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
    """A pair of partitions mu inside lambda; boxes are 1-indexed (row, col).
    The hash is computed once, at construction: shapes key the caches of the
    path and tableau layers."""

    __slots__ = ("lam", "mu", "_hash")

    def __init__(self, lam: Partition, mu: Partition = Partition()):
        if not lam.contains(mu):
            raise ValueError(f"{mu} is not contained in {lam}")
        self.lam = lam
        self.mu = mu
        self._hash = hash((lam, mu))

    def __eq__(self, other):
        return isinstance(other, SkewShape) and (self.lam, self.mu) == (other.lam, other.mu)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"SkewShape({self.lam.parts}/{self.mu.parts})"

    def boxes(self) -> list[tuple[int, int]]:
        return [
            (i, j)
            for i in range(1, len(self.lam) + 1)
            for j in range(self.mu[i] + 1, self.lam[i] + 1)
        ]

    def size(self) -> int:
        return self.lam.size() - self.mu.size()

    def depth(self) -> int:
        """Length of the longest column."""
        lamc, muc = self.lam.conjugate(), self.mu.conjugate()
        if not lamc.parts:
            return 0
        return max(lamc[j] - muc[j] for j in range(1, len(lamc) + 1))


def shape(lam, mu=()) -> SkewShape:
    return SkewShape(Partition(lam), Partition(mu))
