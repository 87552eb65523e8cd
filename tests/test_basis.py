import itertools

import pytest

from vertexalg import make_signature, min_deg2
from vertexalg.basis import (
    ColoredPartition,
    basis_words,
    colored_partitions,
    component_dims,
    dim_component,
    minimal_word,
    word_from_partition,
    word_to_partition,
)
from vertexalg.rewrite import is_basic
from vertexalg.words import word_deg2

from conftest import ALL_SIGS, SIG_FERM, SIG_FREE2, components, naive_colored_count


def test_minimal_word_examples(ferm, free2):
    assert minimal_word(ferm, (2,)) == ((0, -2), (0, -1))
    assert minimal_word(free2, (0, 1)) == ((1, -1),)
    assert minimal_word(free2, (1, 1)) == ((0, 1), (1, -1))


def test_minimal_word_sits_at_floor():
    for sig in ALL_SIGS:
        for lam in itertools.product(range(0, 4), repeat=sig.size):
            if not 0 < sum(lam) <= 4:
                continue
            w = minimal_word(sig, lam)
            assert word_deg2(sig, w) == min_deg2(sig, lam)
            assert is_basic(sig, w)


def test_partition_examples(ferm):
    assert word_to_partition(ferm, ((0, -3), (0, -1))) == ColoredPartition(((1, 0),))
    assert word_to_partition(ferm, minimal_word(ferm, (3,))) == ColoredPartition(())
    assert word_to_partition(ferm, ((0, -4), (0, -2))) == ColoredPartition(((2, 0), (1, 0)))


def test_partition_validation():
    with pytest.raises(ValueError):
        ColoredPartition(((0, 0),))
    with pytest.raises(ValueError):
        ColoredPartition(((1, 0), (2, 0)))
    with pytest.raises(ValueError):
        ColoredPartition(((2, 1), (2, 0)))
    ColoredPartition(((2, 0), (2, 1), (1, 0)))  # valid: ties in color order


def test_partition_word_requires_basic(ferm):
    with pytest.raises(ValueError):
        word_to_partition(ferm, ((0, -1), (0, -1)))


def test_word_from_partition_examples(ferm):
    assert word_from_partition(ferm, (2,), ColoredPartition(((1, 0),))) == ((0, -3), (0, -1))
    assert word_from_partition(ferm, (2,), ColoredPartition(())) == minimal_word(ferm, (2,))
    with pytest.raises(ValueError):
        word_from_partition(ferm, (1,), ColoredPartition(((1, 0), (1, 0))))


def test_partition_roundtrip_and_sum_identity():
    # modes recover the partition, and the parts sum to the degree excess
    for sig in ALL_SIGS:
        for lam, d2 in components(sig, max_size=3, extra=8):
            for w in basis_words(sig, lam, d2):
                pi = word_to_partition(sig, w)
                assert word_from_partition(sig, lam, pi) == w
                assert 2 * pi.total == d2 - min_deg2(sig, lam)


def test_enumerate_examples(ferm):
    assert basis_words(ferm, (2,), 10) == [((0, -5), (0, -1)), ((0, -4), (0, -2))]
    assert basis_words(ferm, (2,), 3) == []
    for j in range(4):
        assert basis_words(ferm, (1,), 1 + 2 * j) == [((0, -1 - j),)]


def test_enumerate_parity_gap(ferm):
    assert basis_words(ferm, (2,), 5) == []
    assert dim_component(ferm, (2,), 5) == 0


def test_dim_examples(ferm):
    assert dim_component(ferm, (0,), 0) == 1
    assert dim_component(ferm, (4,), 16 + 2 * 5) == 6
    for sig in ALL_SIGS:
        for lam in itertools.product(range(0, 3), repeat=sig.size):
            if sum(lam) == 0:
                continue
            assert dim_component(sig, lam, min_deg2(sig, lam)) == 1


def test_dims_match_naive_counter():
    for sig in ALL_SIGS:
        for lam, d2 in components(sig, max_size=4, extra=12):
            j2 = d2 - min_deg2(sig, lam)
            expected = naive_colored_count(j2 // 2, tuple(lam)) if j2 % 2 == 0 else 0
            assert dim_component(sig, lam, d2) == expected


def test_dim_dp_matches_enumeration():
    # the DP count against the enumeration on every criterion-1 component
    for sig in ALL_SIGS:
        for lam, d2 in components(sig, max_size=4, extra=12):
            assert dim_component(sig, lam, d2) == len(basis_words(sig, lam, d2)), (sig.generators, lam, d2)


def test_component_dims_match_per_degree():
    # one series over a range against the count per degree, on every
    # criterion-1 weight; the ranges take in negative, odd and below-floor
    # degrees, and one lies wholly below the floor
    for sig in ALL_SIGS:
        for lam in {lam for lam, _ in components(sig, max_size=4, extra=0)}:
            floor = min_deg2(sig, lam)
            for degs in (range(min(-3, floor - 5), floor + 14), range(floor - 6, floor)):
                assert component_dims(sig, lam, degs) == [dim_component(sig, lam, d) for d in degs]
    assert component_dims(SIG_FREE2, (-1, 2), range(7)) == [0] * 7


def test_dim_large_component(free2):
    # 52,806 basic words, counted without building them
    assert dim_component(free2, (4, 4), min_deg2(free2, (4, 4)) + 2 * 30) == 52806


def test_enumeration_is_injective_and_basic():
    for sig in ALL_SIGS:
        for lam, d2 in components(sig, max_size=3, extra=10):
            words = basis_words(sig, lam, d2)
            assert len(set(words)) == len(words)
            for w in words:
                assert is_basic(sig, w)
                assert word_deg2(sig, w) == d2


def test_tails_of_basic_words_are_basic():
    for sig in ALL_SIGS:
        for lam, d2 in components(sig, max_size=3, extra=8):
            for w in basis_words(sig, lam, d2):
                for i in range(len(w)):
                    assert is_basic(sig, w[i:])
                    assert all(p > 0 for p, _ in word_to_partition(sig, w[i:]).parts)


def test_dimension_shift_invariance():
    # adding a constant to the locality matrix shifts the floor, not the dims
    for base, names in (([[-1]], ["a"]), ([[2, 2], [2, 2]], ["a", "b"]), ([[-2, 1], [1, 0]], ["a", "b"])):
        for shift in (-1, 1, 2):
            s1 = make_signature(names, base)
            s2 = make_signature(names, [[x + shift for x in row] for row in base])
            for lam in itertools.product(range(0, 4), repeat=len(names)):
                if not 0 < sum(lam) <= 3:
                    continue
                f1, f2 = min_deg2(s1, lam), min_deg2(s2, lam)
                for j in range(0, 7):
                    assert dim_component(s1, lam, f1 + 2 * j) == dim_component(s2, lam, f2 + 2 * j)


def test_colored_partitions_respect_caps():
    for pairs in colored_partitions(5, (2, 1)):
        counts = [0, 0]
        for _, c in pairs:
            counts[c] += 1
        assert counts[0] <= 2 and counts[1] <= 1
        assert sum(p for p, _ in pairs) == 5
