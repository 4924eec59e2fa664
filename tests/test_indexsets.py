"""Index-set masks: dualities, shuffle signs, weights, types, and the lex
order, against member-tuple definitions written out here."""

from itertools import combinations

import pytest

from ramwedge.indexsets import (IndexSet, bounded_type_masks, i_vee,
                                index_masks, lex_key, perp_mask,
                                shuffle_sign, sigma_sign_bruteforce, star_mask,
                                type_masks, type_n11_sets)


def _inline_parity(seq):
    """Independent parity oracle: inversion count of a sequence."""
    inv = sum(1 for a in range(len(seq)) for b in range(a + 1, len(seq))
              if seq[a] > seq[b])
    return -1 if inv % 2 else 1


def _inline_shuffle_sign(n, members):
    comp = [i for i in range(1, 2 * n + 1) if i not in members]
    return _inline_parity(list(members) + comp)


def mask(n, members):
    return IndexSet.of(n, members).mask


def members(n, m):
    return IndexSet(n, m).members


def type_pair(n, m):
    """(r, s) with r = #(S in {1..n}), s = #(S in {n+1..2n})."""
    return (m & ((1 << n) - 1)).bit_count(), (m >> n).bit_count()


def weight(n, m):
    """Per-slot counts #(S in {i, n+i}) for i = 1..n."""
    return tuple((m >> i - 1 & 1) + (m >> n + i - 1 & 1) for i in range(1, n + 1))


def test_star_and_perp_examples():
    m = mask(3, (1, 2, 3))
    assert members(3, star_mask(3, m)) == (4, 5, 6)
    assert members(3, perp_mask(3, m)) == (1, 2, 3)
    m = mask(3, (1, 2, 4))
    assert members(3, star_mask(3, m)) == (3, 5, 6)
    assert members(3, perp_mask(3, m)) == (1, 2, 4)
    m = mask(3, (4, 5, 6))
    assert members(3, perp_mask(3, m)) == (4, 5, 6)


def test_sign_examples():
    assert sigma_sign_bruteforce(3, mask(3, (1, 2, 3))) == 1
    assert shuffle_sign(3, mask(3, (1, 2, 3))) == 1
    # parity of (1 4)(2 5)(3 6), three transpositions
    assert _inline_shuffle_sign(3, (4, 5, 6)) == -1
    assert sigma_sign_bruteforce(3, mask(3, (4, 5, 6))) == -1
    assert shuffle_sign(3, mask(3, (4, 5, 6))) == -1
    # parity of the transposition (3 4)
    assert _inline_shuffle_sign(3, (1, 2, 4)) == -1
    assert shuffle_sign(3, mask(3, (1, 2, 4))) == -1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_closed_sign_equals_brute_force_exhaustively(n):
    for m in index_masks(n):
        want = _inline_shuffle_sign(n, members(n, m))
        assert sigma_sign_bruteforce(n, m) == want
        assert shuffle_sign(n, m) == want


@pytest.mark.parametrize("n", [5, 7])
def test_sign_closed_form_on_type_n11(n):
    for i, j, m in type_n11_sets(n):
        want = 1 if (i + j + 1) % 2 == 0 else -1
        assert shuffle_sign(n, m) == want


def test_weight_examples():
    assert weight(3, mask(3, (1, 2, 3))) == (1, 1, 1)
    # direct count: slot 1 holds {1, 4} and both lie in the set
    assert weight(3, mask(3, (1, 2, 4))) == (2, 1, 0)
    assert weight(3, mask(3, (2, 3, 4))) == (1, 1, 1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_weight_entries_sum_to_cardinality(n):
    for m in index_masks(n):
        assert sum(weight(n, m)) == n


@pytest.mark.parametrize("n", [3, 5])
def test_type_n11_weights(n):
    for i, j, m in type_n11_sets(n):
        assert type_pair(n, m) == (n - 1, 1)
        assert set(members(n, m)) == (set(range(1, n + 1)) - {j}) | {n + i}
        w = weight(n, m)
        if i == j:
            assert w == (1,) * n
        else:
            assert w[i - 1] == 2 and w[j - 1] == 0
            assert all(w[t] == 1 for t in range(n) if t not in (i - 1, j - 1))


def test_type_examples():
    assert type_pair(3, mask(3, (1, 2, 3))) == (3, 0)
    assert type_pair(3, mask(3, (1, 2, 4))) == (2, 1)
    assert type_pair(3, mask(3, (4, 5, 6))) == (0, 3)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_dualities_and_weight_identity(n):
    # star and perp are involutions on masks of every cardinality
    for card in range(2 * n + 1):
        for m in index_masks(n, card):
            assert star_mask(n, star_mask(n, m)) == m
            assert perp_mask(n, perp_mask(n, m)) == m
    for m in index_masks(n):
        perp = perp_mask(n, m)
        assert type_pair(n, m) == type_pair(n, perp)
        total = tuple(a + b for a, b in zip(weight(n, perp), reversed(weight(n, m))))
        assert total == (2,) * n


@pytest.mark.parametrize("n", [3, 5, 7])
def test_weight_injectivity_on_type_n11(n):
    trivial = []
    by_weight = {}
    for _, _, m in type_n11_sets(n):
        w = weight(n, m)
        if w == (1,) * n:
            trivial.append(m)
        else:
            by_weight.setdefault(w, set()).add(m)
    assert len(set(trivial)) == n
    assert all(len(group) == 1 for group in by_weight.values())


def test_element_helpers():
    assert i_vee(3, 1) == 3
    assert members(3, star_mask(3, mask(3, (1,)))) == (6,)


def test_validation():
    with pytest.raises(ValueError):
        IndexSet.of(3, (0, 1, 2))
    with pytest.raises(ValueError):
        IndexSet.of(3, (1, 2, 7))
    with pytest.raises(ValueError):
        IndexSet.of(25, (1,))
    with pytest.raises(ValueError):
        shuffle_sign(3, mask(3, (1, 2)))
    with pytest.raises(ValueError):
        sigma_sign_bruteforce(3, mask(3, (1, 2)))
    with pytest.raises(ValueError):
        sigma_sign_bruteforce(3, mask(3, (1, 2)) | 1 << 6)


def test_lexicographic_enumeration_order():
    masks = index_masks(2)
    assert [members(2, m) for m in masks[:3]] == [(1, 2), (1, 3), (1, 4)]
    assert len(masks) == 6


def test_lex_key_orders_masks_as_member_tuples():
    # within one cardinality the key sorts masks exactly as their increasing
    # member tuples, for every n <= 7, and at the top of its fixed width
    cases = [(n, card) for n in range(1, 8) for card in range(2 * n + 1)]
    cases += [(n, card) for n in (20, 21) for card in (1, 2, 2 * n - 2, 2 * n - 1)]
    for n, card in cases:
        masks = index_masks(n, card)
        assert sorted(reversed(masks), key=lex_key) == masks
        assert sorted(masks, key=lambda m: members(n, m)) == masks


# ---------------------------------------------------------------------------
# Mask enumerations and dualities against filters and member definitions


def member_masks(n, card):
    return [mask(n, c) for c in combinations(range(1, 2 * n + 1), card)]


@pytest.mark.parametrize("n", range(1, 8))
def test_mask_enumerations_are_the_filters_they_replace(n):
    for card in range(2 * n + 1):
        assert index_masks(n, card) == member_masks(n, card)
    assert index_masks(n) == member_masks(n, n)
    for r in range(n + 1):
        s = n - r
        assert type_masks(n, r, s) == [t for t in member_masks(n, n)
                                       if type_pair(n, t) == (r, s)]
        for card in range(1, n + 1):
            want = [t for t in member_masks(n, card)
                    if type_pair(n, t)[0] <= r and type_pair(n, t)[1] <= s]
            assert bounded_type_masks(n, card, r, s) == want


@pytest.mark.parametrize("n", range(1, 7))
def test_mask_dualities_match_member_definitions(n):
    for card in range(2 * n + 1):
        for m in index_masks(n, card):
            star = mask(n, [2 * n + 1 - i for i in members(n, m)])
            perp = mask(n, [i for i in range(1, 2 * n + 1)
                            if i not in members(n, star)])
            assert star_mask(n, m) == star
            assert perp_mask(n, m) == perp
            if card == n:
                assert shuffle_sign(n, m) == sigma_sign_bruteforce(n, m)


def test_mask_enumeration_checks_the_rank():
    with pytest.raises(ValueError):
        index_masks(0)
    with pytest.raises(ValueError):
        index_masks(22)
