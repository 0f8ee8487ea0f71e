import json
import random

import pytest

from pfkit.errors import DomainError
from pfkit.paperfold import pf_prefix
from pfkit.subst import (
    PAPERFOLD_SUBSTITUTION,
    Substitution,
    abelianization,
    apply,
    block_code,
    first_letters,
    fixed_prefix,
    is_left_proper,
    is_primitive,
    verify_intertwining,
    verify_recoding,
)
from pfkit.words import QUATERNARY, Word

RHO = PAPERFOLD_SUBSTITUTION

R_PREFIX_32 = "31213021312030213121302031203021"


def test_rules():
    assert {a: str(w) for a, w in RHO.rules.items()} == {3: "31", 2: "30", 1: "21", 0: "20"}


def test_apply():
    assert str(apply(RHO, Word("3", 4))) == "31"
    assert str(apply(RHO, apply(RHO, Word("0", 4)))) == "3020"
    assert apply(RHO, Word("", 4)) == Word("", 4)
    w = Word("3120", 4)
    assert len(apply(RHO, w)) == 2 * len(w)
    with pytest.raises(DomainError):
        apply(RHO, Word("10", 2))


def test_second_iterates():
    want = {0: "3020", 1: "3021", 2: "3120", 3: "3121"}
    for a, image in want.items():
        assert str(apply(RHO, apply(RHO, Word(str(a), 4)))) == image


def test_primitivity_index():
    assert is_primitive(RHO, 6) == 3
    assert is_primitive(RHO, 2) is None  # the square of 3 is 3121, no 0
    ident = Substitution({a: str(a) * 2 for a in range(4)})
    assert is_primitive(ident, 6) is None


def test_left_proper_index():
    assert is_left_proper(RHO, 6) == 2
    assert is_left_proper(RHO, 1) is None
    assert set(first_letters(RHO, 2)) == {3}
    constant = Substitution({a: "3" + str(a) for a in range(4)})
    assert is_left_proper(constant, 3) == 1


def test_abelianization():
    m = abelianization(RHO)
    assert m.entries == ((1, 0, 1, 0), (0, 1, 1, 0), (1, 0, 0, 1), (0, 1, 0, 1))
    assert m.row_sums == (2, 2, 2, 2)
    assert tuple(sum(col) for col in zip(*m.entries)) == (2, 2, 2, 2)


def test_abelianization_of_iterates_is_matrix_power():
    from pfkit.dimgroup import mat_pow

    for n in range(1, 13):
        s_n = RHO
        word_counts = []
        for a in range(4):
            w = Word(str(a), 4)
            for _ in range(n):
                w = apply(RHO, w)
            arr = w.to_array()
            word_counts.append(tuple(int((arr == j).sum()) for j in range(4)))
        assert tuple(word_counts) == mat_pow(abelianization(RHO).entries, n)


def test_image_lengths_double():
    for a in range(4):
        w = Word(str(a), 4)
        for n in range(1, 11):
            w = apply(RHO, w)
            assert len(w) == 2**n


def test_fixed_prefix():
    assert str(fixed_prefix(RHO, 32)) == R_PREFIX_32
    assert str(fixed_prefix(RHO, 2)) == "31"
    assert fixed_prefix(RHO, 0) == Word("", 4)
    long = fixed_prefix(RHO, 1000)
    assert str(fixed_prefix(RHO, 100)) == str(long)[:100]
    not_proper = Substitution({0: "01", 1: "10", 2: "23", 3: "32"})
    with pytest.raises(DomainError):
        fixed_prefix(not_proper, 8)


def test_block_code():
    assert str(block_code(Word("1101100111001001"))) == "31213021"
    assert str(block_code(Word("00"))) == "0"
    with pytest.raises(DomainError):
        block_code(Word("110"))
    with pytest.raises(DomainError):
        block_code(Word("3121", 4))
    # offset 1 drops the leading symbol and pairs from the second one
    assert str(block_code(Word("1101100"), offset=1)) == "230"
    with pytest.raises(DomainError):
        block_code(Word("110110"), offset=1)


def test_block_code_injective_on_samples():
    rng = random.Random(31)
    seen = {}
    for _ in range(500):
        w = Word("".join(rng.choice("01") for _ in range(8)))
        coded = str(block_code(w))
        if coded in seen:
            assert seen[coded] == str(w)
        seen[coded] = str(w)


def test_recoding_identity():
    L = 2**16
    assert block_code(pf_prefix(2 * L)) == fixed_prefix(RHO, L)
    assert verify_recoding(2**12).status == "pass"


def test_recoding_negative_control(symbols):
    # binary symbol 1000 lies in block 500 of the recoded word
    arr = pf_prefix(2**13).to_array().copy()
    arr[1000] ^= 1
    with symbols(arr):
        rep = verify_recoding(4096)
    assert (rep.status, rep.witness) == ("fail", {"first_mismatch": 500})


def test_intertwining(symbols):
    assert verify_intertwining(8).status == "pass"
    assert verify_intertwining(2**14).status == "pass"
    # the identity holds on every binary word
    rng = random.Random(37)
    with symbols([rng.choice((0, 1)) for _ in range(256)]):
        assert verify_intertwining(256).status == "pass"
    with pytest.raises(DomainError):
        verify_intertwining(7)


def test_block_code_shift_commutation():
    x = pf_prefix(4096)
    arr = x.to_array()
    coded = block_code(x)
    for k in (1, 2, 5, 100):
        dropped = Word.from_array(arr[2 * k :])
        assert block_code(dropped) == Word.from_array(coded.to_array()[k:], QUATERNARY)


def test_json_roundtrip():
    blob = RHO.to_json()
    data = json.loads(blob)
    assert data == {
        "alphabet": 4,
        "rules": {"0": "20", "1": "21", "2": "30", "3": "31"},
    }
    again = Substitution.from_json(blob)
    assert again.rules == RHO.rules


# test_report_cli covers invalid JSON, an array, no "rules" and a bad letter
@pytest.mark.parametrize("text", [
    '"rules"', '{"alphabet": "four", "rules": {}}', '{"rules": ["20", "21", "30", "31"]}',
    '{"alphabet": 2, "rules": {"0": "20", "1": "21", "2": "30", "3": "31"}}',
], ids=["string", "non-integer-alphabet", "rules-array", "binary-alphabet"])
def test_malformed_json_is_a_domain_error(text):
    with pytest.raises(DomainError):
        Substitution.from_json(text)


def test_substitution_validation():
    with pytest.raises(DomainError):
        Substitution({0: "20", 1: "21", 2: "30"})  # missing a letter
    with pytest.raises(DomainError):
        Substitution({0: "20", 1: "21", 2: "30", 3: ""})  # empty image
    with pytest.raises(DomainError):
        Substitution({0: "20", 1: "21", 2: "30", 5: "31"})  # bad letter
