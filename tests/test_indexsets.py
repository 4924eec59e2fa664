"""Index-set dualities, shuffle signs, weights, and types."""

from itertools import combinations

import pytest

from ramwedge.indexsets import (IndexSet, all_index_sets, bounded_type_masks,
                                i_star, i_vee, index_masks, lex_key, lex_ranks,
                                perp_mask, shuffle_sign, sigma_sign_bruteforce,
                                sigma_sign_closed, star_mask, type_masks,
                                type_n11_sets)


def _inline_parity(seq):
    """Independent parity oracle: inversion count of a sequence."""
    inv = sum(1 for a in range(len(seq)) for b in range(a + 1, len(seq))
              if seq[a] > seq[b])
    return -1 if inv % 2 else 1


def _inline_shuffle_sign(n, members):
    comp = [i for i in range(1, 2 * n + 1) if i not in members]
    return _inline_parity(list(members) + comp)


def test_star_and_perp_examples():
    s = IndexSet.of(3, (1, 2, 3))
    assert s.star().members == (4, 5, 6)
    assert s.perp().members == (1, 2, 3)
    s = IndexSet.of(3, (1, 2, 4))
    assert s.star().members == (3, 5, 6)
    assert s.perp().members == (1, 2, 4)
    s = IndexSet.of(3, (4, 5, 6))
    assert s.perp().members == (4, 5, 6)


def test_sign_examples():
    assert sigma_sign_bruteforce(IndexSet.of(3, (1, 2, 3))) == 1
    assert sigma_sign_closed(IndexSet.of(3, (1, 2, 3))) == 1
    # parity of (1 4)(2 5)(3 6), three transpositions
    assert _inline_shuffle_sign(3, (4, 5, 6)) == -1
    assert sigma_sign_bruteforce(IndexSet.of(3, (4, 5, 6))) == -1
    assert sigma_sign_closed(IndexSet.of(3, (4, 5, 6))) == -1
    # parity of the transposition (3 4)
    assert _inline_shuffle_sign(3, (1, 2, 4)) == -1
    assert sigma_sign_closed(IndexSet.of(3, (1, 2, 4))) == -1


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_closed_sign_equals_brute_force_exhaustively(n):
    for s in all_index_sets(n):
        want = _inline_shuffle_sign(n, s.members)
        assert sigma_sign_bruteforce(s) == want
        assert sigma_sign_closed(s) == want


@pytest.mark.parametrize("n", [5, 7])
def test_sign_closed_form_on_type_n11(n):
    for i, j, s in type_n11_sets(n):
        want = 1 if (i + j + 1) % 2 == 0 else -1
        assert sigma_sign_closed(s) == want


def test_weight_examples():
    assert IndexSet.of(3, (1, 2, 3)).weight() == (1, 1, 1)
    # direct count: slot 1 holds {1, 4} and both lie in the set
    assert IndexSet.of(3, (1, 2, 4)).weight() == (2, 1, 0)
    assert IndexSet.of(3, (2, 3, 4)).weight() == (1, 1, 1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_weight_entries_sum_to_cardinality(n):
    for s in all_index_sets(n):
        assert sum(s.weight()) == n


@pytest.mark.parametrize("n", [3, 5])
def test_type_n11_weights(n):
    for i, j, s in type_n11_sets(n):
        w = s.weight()
        if i == j:
            assert w == (1,) * n
        else:
            assert w[i - 1] == 2 and w[j - 1] == 0
            assert all(w[t] == 1 for t in range(n) if t not in (i - 1, j - 1))


def test_type_examples():
    assert IndexSet.of(3, (1, 2, 3)).type_pair() == (3, 0)
    assert IndexSet.of(3, (1, 2, 4)).type_pair() == (2, 1)
    assert IndexSet.of(3, (4, 5, 6)).type_pair() == (0, 3)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_dualities_and_weight_identity(n):
    for s in all_index_sets(n):
        assert s.star().star() == s
        assert s.perp().perp() == s
        assert s.type_pair() == s.perp().type_pair()
        w_perp = s.perp().weight()
        total = tuple(a + b for a, b in zip(w_perp, reversed(s.weight())))
        assert total == (2,) * n


@pytest.mark.parametrize("n", [3, 5, 7])
def test_weight_injectivity_on_type_n11(n):
    trivial = []
    by_weight = {}
    for _, _, s in type_n11_sets(n):
        w = s.weight()
        if w == (1,) * n:
            trivial.append(s)
        else:
            by_weight.setdefault(w, set()).add(s)
    assert len(set(trivial)) == n
    assert all(len(group) == 1 for group in by_weight.values())


def test_element_helpers():
    assert i_vee(3, 1) == 3
    assert i_star(3, 1) == 6


def test_validation():
    with pytest.raises(ValueError):
        IndexSet.of(3, (0, 1, 2))
    with pytest.raises(ValueError):
        IndexSet.of(3, (1, 2, 7))
    with pytest.raises(ValueError):
        IndexSet.of(25, (1,))
    with pytest.raises(ValueError):
        sigma_sign_closed(IndexSet.of(3, (1, 2)))


def test_lexicographic_enumeration_order():
    sets = list(all_index_sets(2))
    assert [s.members for s in sets[:3]] == [(1, 2), (1, 3), (1, 4)]
    assert len(sets) == 6


def test_lex_key_orders_masks_as_member_tuples():
    # all_index_sets enumerates in member-tuple order; within one
    # cardinality lex_key must give the same order, for every n <= 7
    for n in range(1, 8):
        for card in range(2 * n + 1):
            masks = [s.mask for s in all_index_sets(n, card)]
            assert sorted(masks, key=lex_key) == masks


# ---------------------------------------------------------------------------
# Mask enumerations and dualities against filters and member definitions


def member_masks(n, card):
    return [IndexSet.of(n, c).mask for c in combinations(range(1, 2 * n + 1), card)]


@pytest.mark.parametrize("n", range(1, 8))
def test_mask_enumerations_are_the_filters_they_replace(n):
    for card in range(2 * n + 1):
        assert index_masks(n, card) == member_masks(n, card)
        assert list(lex_ranks(n, card)) == index_masks(n, card)
    assert index_masks(n) == member_masks(n, n)
    for r in range(n + 1):
        s = n - r
        assert type_masks(n, r, s) == [t.mask for t in all_index_sets(n)
                                       if t.type_pair() == (r, s)]
        for card in range(1, n + 1):
            want = [t.mask for t in all_index_sets(n, card)
                    if t.type_pair()[0] <= r and t.type_pair()[1] <= s]
            assert bounded_type_masks(n, card, r, s) == want


@pytest.mark.parametrize("n", range(1, 7))
def test_mask_dualities_match_member_definitions(n):
    for card in range(2 * n + 1):
        for m in index_masks(n, card):
            members = IndexSet(n, m).members
            star = IndexSet.of(n, [i_star(n, i) for i in members])
            perp = IndexSet.of(n, [i for i in range(1, 2 * n + 1)
                                   if i not in star.members])
            assert star_mask(n, m) == star.mask
            assert perp_mask(n, m) == perp.mask
            if card == n:
                assert shuffle_sign(n, m) == sigma_sign_bruteforce(IndexSet(n, m))


def test_mask_enumeration_checks_the_rank():
    with pytest.raises(ValueError):
        index_masks(0)
    with pytest.raises(ValueError):
        list(all_index_sets(22))
