from fractions import Fraction

import pytest

from vertexalg import make_signature, normal_form, pairing
from vertexalg.derivations import (
    DerivationSpec,
    apply_derivation,
    heisenberg_derivation,
    virasoro_derivation,
)
from vertexalg.rewrite import is_null_word
from vertexalg.words import (
    FreeElement,
    ZERO,
    VACUUM,
    _word_product,
    binomial,
    product,
    translate,
    word_deg2,
    word_element,
    word_weight,
)
from vertexalg import fock

from conftest import ALL_SIGS, SIG_FERM, random_short_word, seeded


def _nf(sig, x):
    return normal_form(sig, x).result


def test_zero_function_gives_zero_derivation(ferm):
    spec = heisenberg_derivation(ferm, (0,))
    x = FreeElement({((0, -2), (0, -1)): 1})
    for m in range(3):
        assert apply_derivation(ferm, spec, m, x).is_zero()


def test_mode_zero_eigenvalue_on_words(free2):
    # alpha_f(0) scales a word of weight lam by sum of f over its letters
    f = (Fraction(2), Fraction(-3))
    spec = heisenberg_derivation(free2, f)
    rng = seeded(31)
    for _ in range(20):
        w = random_short_word(free2, rng)
        lam = word_weight(free2, w)
        eig = sum(c * f[g] for g, c in enumerate(lam))
        got = _nf(free2, apply_derivation(free2, spec, 0, FreeElement({w: 1})))
        assert got == _nf(free2, FreeElement({w: eig}))


def test_vacuum_annihilated(ferm):
    for spec in (heisenberg_derivation(ferm, (1,)), virasoro_derivation(ferm, (1,))):
        for m in range(3):
            assert apply_derivation(ferm, spec, m, VACUUM).is_zero()


def test_negative_mode_rejected(ferm):
    with pytest.raises(ValueError):
        apply_derivation(ferm, heisenberg_derivation(ferm, (1,)), -1, VACUUM)


def test_check_derivation_kills_basic_pair(ferm):
    # mode-1 action of the single-generator scaling derivation on a(-2)a(-1)
    spec = heisenberg_derivation(ferm, (1,))
    out = apply_derivation(ferm, spec, 1, FreeElement({((0, -2), (0, -1)): 1}))
    assert _nf(ferm, out).is_zero()


def test_virasoro_spec_examples(ferm):
    spec = virasoro_derivation(ferm, (Fraction(1, 2),))
    b = FreeElement({((0, -1),): 1})
    assert apply_derivation(ferm, spec, 0, b) == FreeElement({((0, -2),): 1})
    assert apply_derivation(ferm, spec, 1, b) == b.scale(Fraction(1, 2))
    assert apply_derivation(ferm, spec, 2, b).is_zero()


def test_grading_contract():
    for sig in ALL_SIGS:
        rng = seeded(32)
        f = tuple(rng.randint(-2, 2) for _ in range(sig.size))
        spec = heisenberg_derivation(sig, f)
        for _ in range(15):
            w = random_short_word(sig, rng)
            m = rng.randint(0, 3)
            out = apply_derivation(sig, spec, m, FreeElement({w: 1}))
            for u in out.terms:
                assert word_weight(sig, u) == word_weight(sig, w)
                assert word_deg2(sig, u) == word_deg2(sig, w) - 2 * m


def _letterwise(f, m, x):
    """alpha_f(m) acting letter by letter, a(n) -> f(a) a(n+m); equal to the
    derivation modulo the relations of the free algebra."""
    data = {}
    for w, c in x.terms.items():
        for i, (g, n) in enumerate(w):
            if f[g]:
                w2 = w[:i] + ((g, n + m),) + w[i + 1 :]
                data[w2] = data.get(w2, 0) + f[g] * c
    return FreeElement(data)


def test_fast_and_generic_paths_agree_mod_f():
    # the letterwise formula for alpha_f against the generic Leibniz pass
    for sig in ALL_SIGS:
        rng = seeded(33)
        f = tuple(Fraction(rng.randint(-2, 2)) for _ in range(sig.size))
        spec = heisenberg_derivation(sig, f)
        for _ in range(15):
            x = FreeElement({random_short_word(sig, rng): 1})
            n = rng.randint(0, 2)
            assert _nf(sig, apply_derivation(sig, spec, n, x)) == _nf(sig, _letterwise(f, n, x))


def test_heisenberg_compatibility_with_embedding():
    # phi(alpha_f(n) x) = h(n) phi(x) when f = (h|.)
    for sig in ALL_SIGS:
        rng = seeded(34)
        for _ in range(30):
            h = tuple(rng.randint(-2, 2) for _ in range(sig.size))
            f = tuple(pairing(sig, h, sig.unit_weight(g)) for g in range(sig.size))
            spec = heisenberg_derivation(sig, f)
            x = FreeElement({random_short_word(sig, rng): 1})
            n = rng.randint(0, 3)
            lhs = fock.embed(sig, apply_derivation(sig, spec, n, x))
            rhs = fock.charge_act(sig, h, n, fock.embed(sig, x))
            assert lhs == rhs


def test_commutation_with_translation():
    # alpha(n) D x - D alpha(n) x = n alpha(n-1) x
    for sig in ALL_SIGS:
        rng = seeded(35)
        for which in (0, 1):
            f = tuple(rng.randint(-2, 2) for _ in range(sig.size))
            spec = heisenberg_derivation(sig, f) if which == 0 else virasoro_derivation(sig, f)
            for _ in range(10):
                x = FreeElement({random_short_word(sig, rng): 1})
                n = rng.randint(0, 3)
                lhs = apply_derivation(sig, spec, n, translate(x, 1)) - translate(
                    apply_derivation(sig, spec, n, x), 1
                )
                rhs = apply_derivation(sig, spec, n - 1, x).scale(n) if n else ZERO
                assert _nf(sig, lhs) == _nf(sig, rhs)


def test_scaling_derivations_commute():
    for sig in ALL_SIGS:
        rng = seeded(36)
        for _ in range(15):
            f = tuple(rng.randint(-2, 2) for _ in range(sig.size))
            g = tuple(rng.randint(-2, 2) for _ in range(sig.size))
            sf, sg = heisenberg_derivation(sig, f), heisenberg_derivation(sig, g)
            x = FreeElement({random_short_word(sig, rng): 1})
            m, n = rng.randint(0, 2), rng.randint(0, 2)
            lhs = apply_derivation(sig, sf, m, apply_derivation(sig, sg, n, x))
            rhs = apply_derivation(sig, sg, n, apply_derivation(sig, sf, m, x))
            assert lhs == rhs


def _op_product_apply(sig, spec_a, spec_b, n, m, x):
    # coefficient form of the nonnegative product of two even conformal operators
    out = ZERO
    for s in range(0, n + 1):
        c = binomial(n, s)
        if s & 1:
            c = -c
        t1 = apply_derivation(sig, spec_a, n - s, apply_derivation(sig, spec_b, m + s, x))
        t2 = apply_derivation(sig, spec_b, m + s, apply_derivation(sig, spec_a, n - s, x))
        out = out + (t1 - t2).scale(c)
    return out


def test_virasoro_operator_relations():
    # omega_f [0] alpha_g = d/dz alpha_g, omega_f [1] alpha_g = alpha_g,
    # omega_f [0] omega_g = d/dz omega_g, omega_f [1] omega_g = 2 omega_g
    for sig in ALL_SIGS:
        rng = seeded(37)
        f = tuple(rng.randint(-2, 2) for _ in range(sig.size))
        g = tuple(rng.randint(-2, 2) for _ in range(sig.size))
        of = virasoro_derivation(sig, f)
        ag = heisenberg_derivation(sig, g)
        og = virasoro_derivation(sig, g)
        for _ in range(4):
            x = FreeElement({random_short_word(sig, rng): 1})
            for m in range(0, 4):
                ddz = apply_derivation(sig, ag, m - 1, x).scale(-m) if m else ZERO
                assert _nf(sig, _op_product_apply(sig, of, ag, 0, m, x)) == _nf(sig, ddz)
                assert _nf(sig, _op_product_apply(sig, of, ag, 1, m, x)) == _nf(
                    sig, apply_derivation(sig, ag, m, x)
                )
                ddz = apply_derivation(sig, og, m - 1, x).scale(-m) if m else ZERO
                assert _nf(sig, _op_product_apply(sig, of, og, 0, m, x)) == _nf(sig, ddz)
                assert _nf(sig, _op_product_apply(sig, of, og, 1, m, x)) == _nf(
                    sig, apply_derivation(sig, og, m, x).scale(2)
                )


def test_derivation_on_long_word():
    # one pass over the 1200 letters of a(-1)^1200 vac, without recursion;
    # omega(1) a(-1) = f(a) a(-1) and (Da) [0] y = 0, so every letter gives
    # the word once.  For N(a,a) = -2 the word is null (its tail a(-1)a(-1)vac
    # lies below the degree floor) and the value is 0.
    w = ((0, -1),) * 1200
    x = FreeElement({w: 1})
    for locality, coeff in (([[-2, 0], [0, -2]], 0), ([[2, 0], [0, 2]], 1200)):
        sig = make_signature(["a", "b"], locality)
        before = _word_product.cache_info().currsize
        out = apply_derivation(sig, virasoro_derivation(sig, (1, 0)), 1, x)
        assert out == FreeElement({w: coeff})
        assert _word_product.cache_info().currsize == before  # one-letter values skip the free product


def _through_product(sig, spec, m, x):
    """The Leibniz pass with every action value multiplied through `words.product`."""
    data = {}
    for w, c in x.terms.items():
        for i, (a, n) in enumerate(w):
            for s, value in spec.actions[a]:
                if s > m:
                    continue
                for w2, c2 in product(sig, value, m + n - s, word_element(w[i + 1 :])).terms.items():
                    key = w[:i] + w2
                    data[key] = data.get(key, 0) + binomial(m, s) * c * c2
    return FreeElement({w: c for w, c in data.items() if not is_null_word(sig, w)})


def test_one_letter_rule_matches_free_product():
    # one-letter action values go through the one-letter rule, longer ones through
    # words.product; both against the free product on every value
    for sig in ALL_SIGS:
        rng = seeded(38)
        f = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(sig.size))
        mixed = tuple(
            ((0, word_element(((g, -2),)) + word_element(((g, -1), (0, -1))).scale(3)),) for g in range(sig.size)
        )
        specs = (heisenberg_derivation(sig, f), virasoro_derivation(sig, f), DerivationSpec(mixed))
        nonzero = 0
        for _ in range(40):
            x = FreeElement({random_short_word(sig, rng, max_len=4): rng.randint(1, 3) for _ in range(2)})
            m = rng.randint(0, 3)
            for spec in specs:
                got = apply_derivation(sig, spec, m, x)
                assert got == _through_product(sig, spec, m, x)
                nonzero += not got.is_zero()
        assert nonzero >= 40
