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
from functools import lru_cache
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
    return -star_mask(MAX_RANK, mask)


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
        return IndexSet(self.n, star_mask(self.n, self.mask))

    def perp(self) -> "IndexSet":
        return IndexSet(self.n, perp_mask(self.n, self.mask))

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
    if s.mask.bit_count() != s.n:
        raise ValueError("shuffle sign requires a cardinality-n set")
    return shuffle_sign(s.n, s.mask)


# ---------------------------------------------------------------------------
# Bit operations on masks: the enumerators and dualities the engine uses

# bit i-1 for every odd element i: the parity of sum(S) is that of its odd
# members
_ODD_ELEMENTS = int("01" * MAX_RANK, 2)


def shuffle_sign(n: int, mask: int) -> int:
    """sigma_sign_closed of a cardinality-n mask, unchecked."""
    return -1 if ((mask & _ODD_ELEMENTS).bit_count() + (n + 1) // 2) % 2 else 1


def star_mask(n: int, mask: int) -> int:
    """The mask of S*: the bit reversal at width 2n."""
    # bin() under a sentinel bit is "0b1" and then the 2n digits, most
    # significant first; [:2:-1] reverses just those digits
    return int(bin(mask | 1 << 2 * n)[:2:-1], 2)


def perp_mask(n: int, mask: int) -> int:
    """The mask of S-perp, the complement of S*."""
    return ((1 << 2 * n) - 1) ^ star_mask(n, mask)


def index_masks(n: int, card: int = None) -> list:
    """The masks of all cardinality-card subsets of {1..2n} (n when None),
    in lexicographic order of their sorted member tuples."""
    if not 1 <= n <= MAX_RANK:
        raise ValueError(f"rank {n} out of supported range 1..{MAX_RANK}")
    return [sum(c) for c in combinations([1 << i for i in range(2 * n)],
                                         n if card is None else card)]


def type_masks(n: int, r: int, s: int) -> list:
    """The masks of type (r, s) (type_pair), in lexicographic order: the r
    low members lead the member tuple, so low parts vary slowest."""
    lows = [sum(c) for c in combinations([1 << i for i in range(n)], r)]
    highs = [sum(c) << n for c in combinations([1 << i for i in range(n)], s)]
    return [lo | hi for lo in lows for hi in highs]


def bounded_type_masks(n: int, card: int, r: int, s: int) -> list:
    """The masks of cardinality card and type at most (r, s) componentwise,
    in lexicographic order."""
    masks = [m for j in range(max(0, card - s), min(card, r) + 1)
             for m in type_masks(n, j, card - j)]
    return sorted(masks, key=lex_key)


@lru_cache(maxsize=None)
def lex_ranks(n: int, card: int) -> dict:
    """{mask: position} over index_masks(n, card): a sort key on masks of
    one cardinality that sorts as lex_key, read by dict lookup."""
    return {m: k for k, m in enumerate(index_masks(n, card))}


def all_index_sets(n: int, card: int = None):
    """All cardinality-card subsets of {1..2n} in lexicographic order of
    their sorted member tuples (deterministic driver order)."""
    for mask in index_masks(n, card):
        yield IndexSet(n, mask)


def type_n11_sets(n: int):
    """All sets {1..n} with j removed and n+i added, i.e. type (n-1, 1),
    yielded as (i, j, S) with i the added column and j the removed row."""
    base = frozenset(range(1, n + 1))
    for j in range(1, n + 1):
        for i in range(1, n + 1):
            yield i, j, IndexSet.of(n, (base - {j}) | {n + i})
