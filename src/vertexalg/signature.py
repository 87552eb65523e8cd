"""Algebra signature: ordered generators with a symmetric integer locality matrix.

Everything downstream derives from the matrix N: the bilinear form is
(a|b) = -N(a,b), the parity of a generator is N(a,a) mod 2, and its doubled
degree is -N(a,a).  Degrees live in (1/2)Z, so they are stored doubled as
plain integers; all grading arithmetic stays exact and integral.

Weights are elements of Z[B] (or Z_+[B] on the free-algebra side), kept as
dense integer tuples aligned with the generator order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add

# Exact scalar type used everywhere; never floats.
Scalar = Fraction

Weight = tuple  # tuple[int, ...] aligned with Signature.generators


class SignatureError(ValueError):
    """Invalid signature or lattice configuration."""


@dataclass(frozen=True)
class Signature:
    """Generator names (order matters) plus the locality matrix N.

    Memo tables are keyed by signatures, so the hash is computed once, at
    construction; equality stays by value.  It hashes the doubled matrix:
    CPython hashes -1 like -2, and 2x is never -1.
    """

    generators: tuple[str, ...]
    locality: tuple[tuple[int, ...], ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        doubled = tuple(tuple(2 * x for x in row) for row in self.locality)
        object.__setattr__(self, "_hash", hash((self.generators, doubled)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def size(self) -> int:
        return len(self.generators)

    def n(self, i: int, j: int) -> int:
        return self.locality[i][j]

    def gram(self, i: int, j: int) -> int:
        """Bilinear form on generators, (e_i|e_j) = -N(e_i, e_j)."""
        return -self.locality[i][j]

    def parity(self, i: int) -> int:
        return self.locality[i][i] & 1

    def gen_deg2(self, i: int) -> int:
        """Doubled degree of a generator, -N(a,a)."""
        return -self.locality[i][i]

    def index(self, name: str) -> int:
        try:
            return self.generators.index(name)
        except ValueError:
            raise SignatureError(f"unknown generator {name!r}") from None

    def zero_weight(self) -> Weight:
        return (0,) * self.size

    def unit_weight(self, i: int) -> Weight:
        return tuple(1 if j == i else 0 for j in range(self.size))


def make_signature(generators, locality) -> Signature:
    """Validate and build a Signature from a name list and a matrix.

    A name is a string that the expression grammar reads as one identifier:
    a letter or `_`, then letters, digits or `_`, and not `vac`.
    """
    if not isinstance(generators, (list, tuple)):
        raise SignatureError("generators must be a list of names")
    if not isinstance(locality, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in locality):
        raise SignatureError("locality must be a matrix of integers")
    for g in generators:
        if not _is_name(g):
            raise SignatureError(f"generator names must be identifiers other than 'vac', got {g!r}")
    names = tuple(generators)
    if len(set(names)) != len(names):
        raise SignatureError("duplicate generator name")
    if not names:
        raise SignatureError("empty generator list")
    rows = tuple(tuple(r) for r in locality)
    if len(rows) != len(names) or any(len(r) != len(names) for r in rows):
        raise SignatureError("locality matrix size does not match generator list")
    for row in rows:
        for x in row:
            if not _is_int(x):
                raise SignatureError(f"locality entries must be integers, got {x!r}")
    for i in range(len(names)):
        for j in range(i):
            if rows[i][j] != rows[j][i]:
                raise SignatureError("locality matrix is not symmetric")
    return Signature(names, rows)


def load_signature(doc) -> Signature:
    """Load a signature from a JSON document (text or parsed object).

    Expected keys: `generators` (array of names, defines the order) and
    `locality` (square symmetric array of arrays of integers).
    """
    obj = _parse_doc(doc)
    if "generators" not in obj or "locality" not in obj:
        raise SignatureError("configuration needs 'generators' and 'locality'")
    return make_signature(obj["generators"], obj["locality"])


def load_lattice(doc) -> Signature:
    """Load a lattice configuration: `generators` plus a Gram matrix.

    Returns the signature with N = -Gram, so that sig.gram() recovers the
    lattice form exactly.
    """
    obj = _parse_doc(doc)
    if "generators" not in obj or "gram" not in obj:
        raise SignatureError("lattice configuration needs 'generators' and 'gram'")
    gram = obj["gram"]
    try:
        locality = [[-x if _is_int(x) else _bad(x) for x in row] for row in gram]
    except TypeError:
        raise SignatureError("gram must be a matrix of integers") from None
    return make_signature(obj["generators"], locality)


def load_config(doc) -> Signature:
    """Load either a signature config (`locality`) or a lattice config (`gram`)."""
    obj = _parse_doc(doc)
    if "locality" in obj:
        return load_signature(obj)
    if "gram" in obj:
        return load_lattice(obj)
    raise SignatureError("configuration needs a 'locality' or 'gram' matrix")


def _is_name(x) -> bool:
    """x reads as one identifier token of the expression grammar, and is not `vac`."""
    return (
        isinstance(x, str)
        and x != "vac"
        and (x[:1].isalpha() or x[:1] == "_")
        and all(ch.isalnum() or ch == "_" for ch in x)
    )


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _bad(x):
    raise SignatureError(f"gram entries must be integers, got {x!r}")


def _parse_doc(doc):
    if isinstance(doc, dict):
        return doc
    try:
        obj = json.loads(doc)
    except json.JSONDecodeError as exc:
        raise SignatureError(f"configuration is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise SignatureError("configuration must be a JSON object")
    return obj


def pairing(sig: Signature, lam: Weight, mu: Weight) -> int:
    """Bilinear form (lam|mu), extended from (e_i|e_j) = -N(e_i,e_j)."""
    total = 0
    for i, li in enumerate(lam):
        if not li:
            continue
        row = sig.locality[i]
        for j, mj in enumerate(mu):
            if mj:
                total -= li * mj * row[j]
    return total


def min_deg2(sig: Signature, lam: Weight) -> int:
    """Doubled degree floor of the weight-lam component, (lam|lam)."""
    return pairing(sig, lam, lam)


def weight_parity(sig: Signature, lam: Weight) -> int:
    return sum(lam[i] * sig.locality[i][i] for i in range(sig.size)) & 1


def weight_add(lam: Weight, mu: Weight) -> Weight:
    return tuple(map(add, lam, mu))


def weight_neg(lam: Weight) -> Weight:
    return tuple(-a for a in lam)


def format_weight(sig: Signature, lam: Weight) -> str:
    """Render a weight as a signed generator combination, e.g. `2a-b`."""
    parts = []
    for i, c in enumerate(lam):
        if c == 0:
            continue
        name = sig.generators[i]
        if c == 1:
            term = name
        elif c == -1:
            term = "-" + name
        else:
            term = f"{c}{name}"
        if parts and not term.startswith("-"):
            parts.append("+" + term)
        else:
            parts.append(term)
    return "".join(parts) if parts else "0"
