import json

import pytest
from hypothesis import given, strategies as st

from vertexalg import (
    SignatureError,
    format_weight,
    load_config,
    load_signature,
    make_signature,
    min_deg2,
    pairing,
    weight_parity,
)
from vertexalg.parser import _tokenize
from vertexalg.signature import load_lattice, weight_add

from conftest import SIG_FERM, SIG_FREE2


def test_load_fermion_signature():
    sig = load_signature('{"generators": ["a"], "locality": [[-1]]}')
    assert sig.generators == ("a",)
    assert sig.parity(0) == 1
    assert sig.gen_deg2(0) == 1


def test_load_even_constant_signature():
    sig = load_signature('{"generators": ["a", "b"], "locality": [[2, 2], [2, 2]]}')
    assert sig.parity(0) == 0 and sig.parity(1) == 0


def test_odd_diagonal_accepted():
    sig = load_signature('{"generators": ["a", "b"], "locality": [[2, 1], [1, 3]]}')
    assert sig.parity(1) == 1


@pytest.mark.parametrize(
    "doc",
    [
        '{"generators": ["a", "a"], "locality": [[1, 1], [1, 1]]}',
        '{"generators": ["a", "b"], "locality": [[2, 1], [3, 2]]}',
        '{"generators": ["a", "b"], "locality": [[2, 1]]}',
        '{"generators": ["a"], "locality": [[1, 2]]}',
        '{"generators": ["a"]}',
        "not json",
        '{"generators": null, "locality": [[1]]}',
        '{"generators": 5, "locality": [[1]]}',
        '{"generators": ["a"], "locality": null}',
        '{"generators": ["a"], "locality": 5}',
        '{"generators": ["a"], "locality": [5]}',
        '{"generators": ["a"], "locality": [[true]]}',
        '{"generators": [null], "locality": [[-1]]}',
        '{"generators": [7], "locality": [[-1]]}',
        '{"generators": [""], "locality": [[-1]]}',
        '{"generators": ["a(b"], "locality": [[-1]]}',
        '{"generators": ["vac"], "locality": [[-1]]}',
        '{"generators": ["2a"], "locality": [[-1]]}',
        '{"generators": ["a b"], "locality": [[-1]]}',
    ],
)
def test_invalid_configurations_rejected(doc):
    with pytest.raises(SignatureError):
        load_signature(doc)


@pytest.mark.parametrize(
    "doc",
    [
        '{"generators": ["a"], "gram": [[true]]}',
        '{"generators": ["a", "b"], "gram": [[2, false], [false, 2]]}',
        '{"generators": null, "gram": [[1]]}',
        '{"generators": ["a"], "gram": null}',
        '{"generators": ["a"], "gram": [5]}',
        '{"generators": ["a"], "gram": [[1.0]]}',
    ],
)
def test_invalid_lattice_configurations_rejected(doc):
    # a JSON boolean is a Python int, but not a Gram entry
    with pytest.raises(SignatureError):
        load_lattice(doc)
    with pytest.raises(SignatureError):
        load_config(doc)


@given(st.text(alphabet="ab_1v c(é", max_size=5))
def test_generator_names_are_the_parser_identifiers(name):
    # a name loads exactly when the tokenizer reads it as one identifier token
    ident = [t[:2] for t in _tokenize(name)] == [("IDENT", name), ("EOF", None)]
    try:
        make_signature([name], [[-1]])
    except SignatureError:
        assert not ident
    else:
        assert ident


def test_make_signature_rejects_malformed_shapes():
    for generators, locality in ((None, [[1]]), (5, [[1]]), (["a"], None), (["a"], 5), (["a"], [5])):
        with pytest.raises(SignatureError):
            make_signature(generators, locality)
    assert make_signature(("a",), ((1,),)) == make_signature(["a"], [[1]])


def test_load_lattice_negates_gram():
    sig = load_lattice('{"generators": ["a"], "gram": [[1]]}')
    assert sig.locality == ((-1,),)
    assert sig.gram(0, 0) == 1
    assert load_config('{"generators": ["a"], "gram": [[1]]}') == sig


def test_pairing_examples():
    assert pairing(SIG_FERM, (1,), (1,)) == 1
    assert pairing(SIG_FERM, (2,), (2,)) == 4
    assert pairing(SIG_FREE2, (1, 1), (1, 1)) == -8


def test_min_deg2_examples():
    assert min_deg2(SIG_FERM, (2,)) == 4
    assert min_deg2(SIG_FERM, (0,)) == 0
    assert min_deg2(SIG_FREE2, (1, 1)) == -8


weights2 = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


@given(weights2, weights2)
def test_pairing_symmetric(lam, mu):
    assert pairing(SIG_FREE2, lam, mu) == pairing(SIG_FREE2, mu, lam)


@given(weights2, weights2, weights2)
def test_pairing_bilinear(lam, lam2, mu):
    lhs = pairing(SIG_FREE2, weight_add(lam, lam2), mu)
    assert lhs == pairing(SIG_FREE2, lam, mu) + pairing(SIG_FREE2, lam2, mu)


@given(weights2, weights2)
def test_parity_additive(lam, mu):
    total = weight_parity(SIG_FREE2, weight_add(lam, mu))
    assert total == (weight_parity(SIG_FREE2, lam) + weight_parity(SIG_FREE2, mu)) % 2


def test_min_deg2_of_generator_sums():
    # floor of a sum of generators: sum of floors minus twice the cross localities
    sig = make_signature(["a", "b"], [[1, -1], [-1, 3]])
    lam = (1, 1)
    expect = sig.gen_deg2(0) + sig.gen_deg2(1) - 2 * sig.n(0, 1)
    assert min_deg2(sig, lam) == expect


def test_format_weight():
    assert format_weight(SIG_FREE2, (2, 0)) == "2a"
    assert format_weight(SIG_FREE2, (1, 1)) == "a+b"
    assert format_weight(SIG_FREE2, (-1, 2)) == "-a+2b"
    assert format_weight(SIG_FREE2, (0, 0)) == "0"


def test_arbitrary_magnitude_entries():
    big = 10**40
    doc = json.dumps({"generators": ["a"], "locality": [[big]]})
    sig = load_signature(doc)
    assert sig.n(0, 0) == big
    assert min_deg2(sig, (1,)) == -big


def test_equal_configs_compare_and_hash_equal():
    doc = '{"generators": ["a", "b"], "locality": [[2, 1], [1, -2]]}'
    s1, s2 = load_config(doc), load_config(doc)
    assert s1 is not s2
    assert s1 == s2 and hash(s1) == hash(s2)
    assert {s1: 1}[s2] == 1
    other = load_config('{"generators": ["a", "b"], "locality": [[2, 1], [1, 2]]}')
    assert other != s1


def test_dong_grid_signatures_hash_apart():
    # CPython hashes -1 like -2; the 216 criterion-4 signatures must still hash to 216 values
    values = range(-2, 4)
    sigs = {make_signature(["a", "b"], [[naa, nab], [nab, nbb]]) for naa in values for nbb in values for nab in values}
    assert len(sigs) == 216
    assert len({hash(sig) for sig in sigs}) == 216
