"""Conformal derivations of the free algebra, given by their action on
generators.

A derivation is stored as its finite list of generator actions (mode s >= 0,
value).  The Leibniz-type identity

    alpha(m)(a [n] b) = a [n] (alpha(m) b)
                        + sum_{s>=0} C(m,s) (alpha(s) a) [m+n-s] b

unrolls on a word l1...lk vac, l_i = a_i(n_i), into one pass over its letters:

    alpha(m) w = sum_i l1...l(i-1) sum_{s>=0} C(m,s) (alpha(s) a_i) [m+n_i-s] (l(i+1)...lk vac).

A one-letter word b(k) vac of an action value is the divided power
D^(j) b, j = -k-1, so its product is the one-letter rule of the free
product (`words.letter_rule`), applied directly:
(b(k) vac) [p] y = (-1)^j C(p,j) b(p-j) y.  The Heisenberg and Virasoro
derivations have only such values, and a long word costs one prepend per
letter.  Longer values go through `words.product`.

Null words (a tail below its degree floor, see `rewrite.is_null_word`) are
dropped from the value, so it does not depend on which terms the degree
floor of the inner products happened to truncate.

All derivations here are even and weight-homogeneous of weight zero, so no
Koszul signs appear.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rewrite import is_null_word
from .signature import Signature
from .words import FreeElement, binomial, letter_rule, product, word_element


@dataclass(frozen=True)
class DerivationSpec:
    """Finite generator actions: actions[g] lists (mode, value) pairs, each mode at most once."""

    actions: tuple  # tuple over generators of tuple[(mode, FreeElement), ...]


def heisenberg_derivation(sig: Signature, f) -> DerivationSpec:
    """The degree-one derivation with alpha(0) b = f(b) b, nothing else."""
    f = tuple(f)
    actions = []
    for g in range(sig.size):
        if f[g]:
            actions.append(((0, word_element(((g, -1),)).scale(f[g])),))
        else:
            actions.append(())
    return DerivationSpec(tuple(actions))


def virasoro_derivation(sig: Signature, f) -> DerivationSpec:
    """The degree-two derivation with omega(0) b = Db, omega(1) b = f(b) b."""
    f = tuple(f)
    actions = []
    for g in range(sig.size):
        acts = [(0, word_element(((g, -2),)))]
        if f[g]:
            acts.append((1, word_element(((g, -1),)).scale(f[g])))
        actions.append(tuple(acts))
    return DerivationSpec(tuple(actions))


def apply_derivation(sig: Signature, spec: DerivationSpec, m: int, x: FreeElement) -> FreeElement:
    """Apply the mode-m coefficient of the derivation, m >= 0."""
    if m < 0:
        raise ValueError("conformal derivations have nonnegative modes only")
    data = {}
    for w, c in x.terms.items():
        for i, (a, n) in enumerate(w):
            head, tail = w[:i], w[i + 1 :]
            for s, value in spec.actions[a]:
                if s > m:
                    continue
                p = m + n - s
                for v, cv in value.terms.items():
                    cv *= binomial(m, s) * c
                    if len(v) == 1:
                        (b, k), = v
                        rule = letter_rule(k, p)
                        if rule:
                            t, q = rule
                            key = head + ((b, q),) + tail
                            data[key] = data.get(key, 0) + cv * t
                        continue
                    for w2, c2 in product(sig, word_element(v), p, word_element(tail)).terms.items():
                        key = head + w2
                        data[key] = data.get(key, 0) + cv * c2
    return FreeElement({w: c for w, c in data.items() if not is_null_word(sig, w)})
