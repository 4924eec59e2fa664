"""Subsets of {1..2n} with the dualities, shuffle signs, types, and weights
used to index wedge-basis vectors.

Conventions, for a fixed rank n:
  i_vee  = n + 1 - i       (reflection of {1..n})
  i_star = 2n + 1 - i      (reflection of {1..2n})
  S*     = {i_star : i in S}
  S_perp = {1..2n} minus S*
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

MAX_RANK = 21  # enumeration guard: C(42, 21) is the largest exhaustive mode


def i_vee(n: int, i: int) -> int:
    return n + 1 - i

def i_star(n: int, i: int) -> int:
    return 2 * n + 1 - i


def lex_key(mask: int) -> int:
    """Sort key of an index-set bitmask (bit i-1 is element i): the negated
    bit reversal at width 2 * MAX_RANK, so element 1 weighs most.  Masks of
    one cardinality sort exactly as their increasing member tuples; masks of
    different cardinalities do not."""
    # bin() of the mask under a sentinel bit is "0b1" and then the width's
    # digits, most significant first; [:2:-1] reverses just those digits
    return -int(bin(mask | 1 << 2 * MAX_RANK)[:2:-1], 2)


@dataclass(frozen=True)
class IndexSet:
    """A subset of {1..2n}, stored as a bitmask (bit i-1 is element i).

    Cardinality-n sets index the top wedge power; smaller cardinalities
    appear in lower wedge degrees.  The shuffle sign is defined only for
    cardinality n.  Wedge vectors, lattice bases and annihilators key their
    coordinates by the bare mask; an IndexSet chooses sets and prints them.
    """

    n: int
    mask: int

    @staticmethod
    def of(n: int, members) -> "IndexSet":
        if n < 1 or n > MAX_RANK:
            raise ValueError(f"rank {n} out of supported range 1..{MAX_RANK}")
        mask = 0
        for i in members:
            if not 1 <= i <= 2 * n:
                raise ValueError(f"element {i} outside 1..{2 * n}")
            mask |= 1 << (i - 1)
        return IndexSet(n, mask)

    @property
    def members(self) -> tuple:
        return tuple(i + 1 for i in range(2 * self.n) if self.mask >> i & 1)

    def star(self) -> "IndexSet":
        mask = 0
        for i in self.members:
            mask |= 1 << (2 * self.n - i)
        return IndexSet(self.n, mask)

    def perp(self) -> "IndexSet":
        full = (1 << (2 * self.n)) - 1
        return IndexSet(self.n, full ^ self.star().mask)

    def type_pair(self) -> tuple:
        """(r, s) with r = #(S in {1..n}), s = #(S in {n+1..2n})."""
        low = self.mask & ((1 << self.n) - 1)
        return (low.bit_count(), (self.mask >> self.n).bit_count())

    def weight(self) -> tuple:
        """Per-slot counts #(S in {i, n+i}) for i = 1..n."""
        return tuple(
            (self.mask >> (i - 1) & 1) + (self.mask >> (self.n + i - 1) & 1)
            for i in range(1, self.n + 1))

    def to_json(self):
        return list(self.members)


def sigma_sign_bruteforce(s: IndexSet) -> int:
    """Sign of the shuffle sending {1..n} onto S in increasing order and
    {n+1..2n} onto the complement in increasing order, computed as the
    parity of the explicit one-line permutation."""
    n, members = s.n, s.members
    if len(members) != n:
        raise ValueError("shuffle sign requires a cardinality-n set")
    line = list(members) + [i for i in range(1, 2 * n + 1) if i not in members]
    inv = 0
    for a in range(len(line)):
        for b in range(a + 1, len(line)):
            if line[a] > line[b]:
                inv += 1
    return -1 if inv % 2 else 1


def sigma_sign_closed(s: IndexSet) -> int:
    """Closed form (-1)^(sum(S) + ceil(n/2)) for the shuffle sign."""
    n = s.n
    if s.mask.bit_count() != n:
        raise ValueError("shuffle sign requires a cardinality-n set")
    return -1 if (sum(s.members) + (n + 1) // 2) % 2 else 1


def all_index_sets(n: int, card: int = None):
    """All cardinality-card subsets of {1..2n} in lexicographic order of
    their sorted member tuples (deterministic driver order)."""
    if card is None:
        card = n
    for members in combinations(range(1, 2 * n + 1), card):
        yield IndexSet.of(n, members)


def type_n11_sets(n: int):
    """All sets {1..n} with j removed and n+i added, i.e. type (n-1, 1),
    yielded as (i, j, S) with i the added column and j the removed row."""
    base = frozenset(range(1, n + 1))
    for j in range(1, n + 1):
        for i in range(1, n + 1):
            yield i, j, IndexSet.of(n, (base - {j}) | {n + i})
