"""Basis of the free vertex algebra via colored partitions.

Basic words of weight lam and doubled degree d2 are in bijection with
partitions of (d2 - floor)/2 colored by the generators, with at most s_a
parts of each color a.  The bijection reads off, letter by letter, the
excess of the letter over its minimal mode (`rewrite.excess`): a basic
word's nonzero excesses are its parts, and its letters sit that far below
the modes of the minimal word.
"""

from __future__ import annotations

from dataclasses import dataclass

from .signature import Signature, Weight, min_deg2
from .words import Word
from .rewrite import excess, is_basic


@dataclass(frozen=True)
class ColoredPartition:
    """Nonincreasing positive parts, each carrying a generator color.

    Equal parts appear in nondecreasing color order.
    """

    parts: tuple  # tuple of (part, color) pairs

    def __post_init__(self):
        prev = None
        for part, color in self.parts:
            if part <= 0:
                raise ValueError("partition parts must be positive")
            key = (-part, color)
            if prev is not None and key < prev:
                raise ValueError("parts must be sorted by size, ties by color")
            prev = key

    @property
    def total(self) -> int:
        return sum(p for p, _ in self.parts)


def minimal_word(sig: Signature, lam: Weight) -> Word:
    """The unique basic word of weight lam at the degree floor."""
    letters = [g for g in range(sig.size) for _ in range(lam[g])]
    return _word_for(sig, letters, [0] * len(letters))


def _word_for(sig: Signature, letters, parts) -> Word:
    """Word with the given letters whose excesses are `parts`.

    Each mode is the letter's excess at mode 0 minus its part.
    """
    zero = excess(sig, tuple((g, 0) for g in letters))
    return tuple((g, z - p) for g, z, p in zip(letters, zero, parts))


def word_to_partition(sig: Signature, w: Word) -> ColoredPartition:
    """Colored partition of a basic word: its nonzero letter excesses, colored by generator."""
    if not is_basic(sig, w):
        raise ValueError("word is not basic")
    return ColoredPartition(tuple((x, g) for (g, _), x in zip(w, excess(sig, w)) if x))


def word_from_partition(sig: Signature, lam: Weight, pi: ColoredPartition) -> Word:
    """Unique basic word of weight lam whose partition is pi."""
    remaining = list(lam)
    pairs = list(pi.parts)
    for _part, color in pairs:
        remaining[color] -= 1
        if remaining[color] < 0:
            raise ValueError("partition uses a color more often than the weight allows")
    pairs.extend((0, g) for g in range(sig.size) for _ in range(remaining[g]))
    return _word_for(sig, [c for _, c in pairs], [p for p, _ in pairs])


def colored_partitions(total: int, caps):
    """All colored partitions of `total` with at most caps[c] parts of color c.

    Yields tuples of (part, color) pairs sorted descending by part, ties by
    ascending color.
    """
    ncolors = len(caps)

    def rec(remaining, max_part, min_color_at_max, caps_left):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, max_part), 0, -1):
            start = min_color_at_max if part == max_part else 0
            for color in range(start, ncolors):
                if caps_left[color] == 0:
                    continue
                caps_left[color] -= 1
                for rest in rec(remaining - part, part, color, caps_left):
                    yield ((part, color),) + rest
                caps_left[color] += 1

    yield from rec(total, total, 0, list(caps))


def _partition_total(sig: Signature, lam: Weight, deg2: int):
    """(deg2 - floor)/2, the total of the component's colored partitions; None if it has no words.

    A weight with a negative entry has no words.
    """
    floor = min_deg2(sig, lam)
    if deg2 < floor or (deg2 - floor) & 1 or any(c < 0 for c in lam):
        return None
    return (deg2 - floor) // 2


def basis_words(sig: Signature, lam: Weight, deg2: int):
    """All basic words of the given weight and doubled degree, sorted."""
    total = _partition_total(sig, lam, deg2)
    if total is None:
        return []
    out = [word_from_partition(sig, lam, ColoredPartition(pairs)) for pairs in colored_partitions(total, lam)]
    out.sort()
    return out


def component_dims(sig: Signature, lam: Weight, degs) -> list:
    """Dimensions of the homogeneous components of weight lam at each doubled degree in degs.

    By the bijection they count the colored partitions of e = (deg2 - floor)/2
    with at most lam_a parts of color a: the coefficients of
    prod_a prod_{i=1..lam_a} (1 - q^i)^-1, read off one integer series up to
    the largest e, built by a DP over the factors in O(e * sum lam) steps,
    without enumerating the words.
    """
    totals = [_partition_total(sig, lam, d) for d in degs]
    e = max((t for t in totals if t is not None), default=-1)
    series = [1] + [0] * e
    for cap in lam:
        for i in range(1, min(cap, e) + 1):
            for n in range(i, e + 1):
                series[n] += series[n - i]
    return [0 if t is None else series[t] for t in totals]


def dim_component(sig: Signature, lam: Weight, deg2: int) -> int:
    """Dimension of the homogeneous component of weight lam and doubled degree deg2."""
    return component_dims(sig, lam, (deg2,))[0]
