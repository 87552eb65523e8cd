import itertools
import random
from functools import cache

import pytest

from vertexalg import make_signature, min_deg2
from vertexalg.basis import basis_words
from vertexalg.words import FreeElement

# The three signatures used throughout: a single odd generator, two
# generators at constant even locality, and a mixed-sign pair.
SIG_FERM = make_signature(["a"], [[-1]])
SIG_FREE2 = make_signature(["a", "b"], [[2, 2], [2, 2]])
SIG_NEG = make_signature(["a", "b"], [[-2, 1], [1, 0]])

ALL_SIGS = (SIG_FERM, SIG_FREE2, SIG_NEG)


@pytest.fixture
def ferm():
    return SIG_FERM


@pytest.fixture
def free2():
    return SIG_FREE2


@pytest.fixture
def neg():
    return SIG_NEG


def components(sig, max_size=4, extra=12):
    """All (weight, deg2) components with |weight| <= max_size up to the cap."""
    for lam in itertools.product(range(0, max_size + 1), repeat=sig.size):
        if sum(lam) == 0 or sum(lam) > max_size:
            continue
        floor = min_deg2(sig, lam)
        for d2 in range(floor, floor + extra + 1, 2):
            yield lam, d2


def random_word_in(sig, lam, d2, rng, spread=4):
    """A random word of the given weight and doubled degree (may be null)."""
    letters = [g for g in range(sig.size) for _ in range(lam[g])]
    rng.shuffle(letters)
    k = len(letters)
    target = (sum(sig.gen_deg2(g) for g in letters) - d2) // 2 - k
    for _ in range(80):
        if k == 1:
            modes = [target]
        else:
            modes = [rng.randint(target // k - spread, target // k + spread) for _ in range(k - 1)]
            modes.append(target - sum(modes))
        if modes[-1] < 0:
            return tuple(zip(letters, modes))
    return tuple(zip(letters, [0] * (k - 1) + [target]))


def random_short_word(sig, rng, max_len=3, lo=-3):
    k = rng.randint(1, max_len)
    return tuple((rng.randrange(sig.size), rng.randint(lo, -1)) for _ in range(k))


def random_element(sig, rng, nwords=2, max_len=3):
    data = {}
    for _ in range(nwords):
        data[random_short_word(sig, rng, max_len)] = rng.randint(-3, 3) or 1
    return FreeElement(data)


def seeded(seed):
    return random.Random(seed)


@cache
def count_bounded(n, k):
    """Partitions of n into at most k parts, by the classic two-way recursion."""
    if n == 0:
        return 1
    if k == 0 or n < 0:
        return 0
    return count_bounded(n - k, k) + count_bounded(n, k - 1)


def naive_colored_count(total, caps):
    """Colored partitions of total with at most caps[c] parts of color c: the
    per-color bounded-partition counts convolved, independent of the basis DP."""
    if not caps:
        return 1 if total == 0 else 0
    return sum(count_bounded(c, caps[0]) * naive_colored_count(total - c, caps[1:]) for c in range(total + 1))
