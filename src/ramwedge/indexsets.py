"""Subsets S of {1..2n}, the index sets of the wedge basis, as int masks
(bit i-1 is element i), with the enumerators, dualities, shuffle sign and
lex order the engine reads, and the ranks up to which drivers run.

Conventions, for a fixed rank n:
  i_vee  = n + 1 - i                (reflection of {1..n})
  S*     = {2n + 1 - i : i in S}    (star_mask: the bit reversal at width 2n)
  S_perp = {1..2n} minus S*         (perp_mask)
  type (r, s): r = #(S in {1..n}), s = #(S in {n+1..2n})

The mask is the one index-set value below the CLI and JSON, and lex_key
the one order on it.  IndexSet only parses a member list and prints one.
"""

from __future__ import annotations

from itertools import combinations

from .records import frozen

MAX_RANK = 21  # enumeration guard: C(42, 21) is the largest exhaustive mode

# The ranks each driver supports, up to MAX_RANK: (least, greatest or None,
# odd only, default); here so that the CLI lists the drivers without loading them.
DRIVER_RANKS = {
    "sign-lemma": (2, 6, False, 6),
    "worst-terms": (3, 9, True, 7),
    "refined-basis": (3, 7, True, 5),
    "spin-structure": (3, 7, True, 5),
    "counterexample": (5, None, True, 5),
    "x1-zero": (3, 9, True, 3),
    "operator-identities": (3, 11, True, 3),
}


def bundle_ranks(n: int) -> list:
    """(result id, rank) for each driver of `verify all --n n`, in order: a
    driver runs at min(n, greatest), or at max(n, least) without a greatest."""
    return [(result_id, max(n, low) if high is None else min(n, high))
            for result_id, (low, high, _, _) in DRIVER_RANKS.items()]


def i_vee(n: int, i: int) -> int:
    return n + 1 - i


@frozen
class IndexSet:
    """A subset of {1..2n} as read from or written to JSON: its mask
    (bit i-1 is element i) and its increasing member tuple."""

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

    def to_json(self):
        return list(self.members)


def sigma_sign_bruteforce(n: int, mask: int) -> int:
    """Sign of the shuffle sending {1..n} onto S in increasing order and
    {n+1..2n} onto the complement in increasing order, computed as the
    parity of the explicit one-line permutation."""
    members = [i for i in range(1, 2 * n + 1) if mask >> i - 1 & 1]
    if len(members) != n or mask >> 2 * n:
        raise ValueError("shuffle sign requires a cardinality-n set")
    line = members + [i for i in range(1, 2 * n + 1) if i not in members]
    inv = 0
    for a in range(len(line)):
        for b in range(a + 1, len(line)):
            if line[a] > line[b]:
                inv += 1
    return -1 if inv % 2 else 1


# bit i-1 for every odd element i: the parity of sum(S) is that of its odd
# members
_ODD_ELEMENTS = int("01" * MAX_RANK, 2)


def shuffle_sign(n: int, mask: int) -> int:
    """The shuffle sign of a cardinality-n mask in closed form,
    (-1)^(sum(S) + ceil(n/2))."""
    if mask.bit_count() != n:
        raise ValueError("shuffle sign requires a cardinality-n set")
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


def lex_key(mask: int) -> int:
    """The sort key of lex order (of the increasing member tuples) on masks
    of one cardinality: -star_mask(MAX_RANK, mask), inlined, since the bit
    reversal at the fixed width 2 * MAX_RANK keeps the order at every rank
    up to MAX_RANK.  Its domain is the 42-bit masks, mask < 2^(2 * MAX_RANK):
    a higher bit breaks the order."""
    return -int(bin(mask | 1 << 2 * MAX_RANK)[:2:-1], 2)


def type_masks(n: int, r: int, s: int) -> list:
    """The masks of type (r, s), in lexicographic order: the r low members
    lead the member tuple, so low parts vary slowest."""
    lows = [sum(c) for c in combinations([1 << i for i in range(n)], r)]
    highs = [sum(c) << n for c in combinations([1 << i for i in range(n)], s)]
    return [lo | hi for lo in lows for hi in highs]


def bounded_type_masks(n: int, card: int, r: int, s: int) -> list:
    """The masks of cardinality card and type at most (r, s) componentwise,
    in lexicographic order."""
    masks = [m for j in range(max(0, card - s), min(card, r) + 1)
             for m in type_masks(n, j, card - j)]
    return sorted(masks, key=lex_key)


def type_n11_sets(n: int):
    """All sets {1..n} with j removed and n+i added, i.e. type (n-1, 1),
    yielded as (i, j, mask) with i the added column and j the removed row."""
    for j in range(1, n + 1):
        for i in range(1, n + 1):
            yield i, j, (((1 << n) - 1) ^ 1 << j - 1) | 1 << n + i - 1
